//! Scheduling strategies compared in the paper's evaluation.

use crate::warmup::WarmupConfig;
use serde::{Deserialize, Serialize};

/// How conformations are assigned to devices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// All work on the host CPU — the paper's OpenMP baseline column.
    CpuOnly,
    /// Equal split across GPUs (Algorithm 2): the *homogeneous algorithm*,
    /// blind to device differences.
    HomogeneousSplit,
    /// Warm-up + Equation 1 proportional split: the *heterogeneous
    /// algorithm* (§3.3).
    HeterogeneousSplit { warmup: WarmupConfig },
    /// Dynamic self-scheduling: conformations are dealt in chunks to
    /// whichever device has the earliest virtual clock (ablation beyond
    /// the paper's static splits).
    DynamicQueue { chunk: u64 },
    /// Guided self-scheduling (Polychronopoulos & Kuck): dynamic chunks of
    /// `remaining / (k × devices)` — large early chunks keep occupancy
    /// high, shrinking tail chunks balance the finish. The classic answer
    /// to the fixed-chunk dilemma the chunk-size ablation exposes.
    GuidedQueue { divisor: u64 },
    /// The unified runtime's work-stealing mode (DESIGN.md §10): warm-up +
    /// Equation 1 weights seed per-device deques each batch, owners drain
    /// their deque in guided chunks (`remaining / divisor`, floor-clamped
    /// at the device's occupancy saturation), and idle devices steal half
    /// the tail of the most-loaded victim. Heals mispredicted or degraded
    /// devices that the frozen Percent split would leave stranded.
    WorkSteal { warmup: WarmupConfig, divisor: u64 },
    /// The learned cost oracle (DESIGN.md §15): the warm-up is ingested as
    /// a cold-start prior instead of a terminal answer, every batch's
    /// `(units, virtual seconds)` refines per-(device, kernel-class)
    /// throughput fits, and the work-stealing deques are re-seeded from
    /// the *current* fitted rates before each batch. Drift (a device
    /// slowing or recovering mid-run) re-fits the model within a few
    /// batches, so seeds track reality and stealing shrinks to a safety
    /// net.
    Oracle { warmup: WarmupConfig, divisor: u64 },
}

impl Strategy {
    /// Human-readable label matching the paper's table columns.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::CpuOnly => "OpenMP",
            Strategy::HomogeneousSplit => "Homogeneous computation",
            Strategy::HeterogeneousSplit { .. } => "Heterogeneous computation",
            Strategy::DynamicQueue { .. } => "Dynamic queue",
            Strategy::GuidedQueue { .. } => "Guided self-scheduling",
            Strategy::WorkSteal { .. } => "Work stealing",
            Strategy::Oracle { .. } => "Learned oracle",
        }
    }

    /// The warm-up the strategy starts with, if it has one: the batches
    /// that run under the equal split while Equation 1 is measured
    /// ([`WarmupConfig::batches`] of them).
    pub fn warmup(&self) -> Option<WarmupConfig> {
        match self {
            Strategy::HeterogeneousSplit { warmup }
            | Strategy::WorkSteal { warmup, .. }
            | Strategy::Oracle { warmup, .. } => Some(*warmup),
            Strategy::CpuOnly
            | Strategy::HomogeneousSplit
            | Strategy::DynamicQueue { .. }
            | Strategy::GuidedQueue { .. } => None,
        }
    }

    /// A stable identity of the strategy for cache keys: the variant's
    /// index, then each of its fields, written through [`vsmath::fnv1a`].
    /// Equal strategies share it, and any differing field changes it (up
    /// to a 64-bit hash collision). No field is a float, so there is no
    /// sign of a zero to fold.
    pub fn fingerprint(&self) -> u64 {
        let words: [u64; 4] = match *self {
            Strategy::CpuOnly => [0, 0, 0, 0],
            Strategy::HomogeneousSplit => [1, 0, 0, 0],
            Strategy::HeterogeneousSplit {
                warmup: WarmupConfig { iterations, items_per_iteration },
            } => [2, iterations as u64, items_per_iteration, 0],
            Strategy::DynamicQueue { chunk } => [3, chunk, 0, 0],
            Strategy::GuidedQueue { divisor } => [4, divisor, 0, 0],
            Strategy::WorkSteal {
                warmup: WarmupConfig { iterations, items_per_iteration },
                divisor,
            } => [5, iterations as u64, items_per_iteration, divisor],
            Strategy::Oracle {
                warmup: WarmupConfig { iterations, items_per_iteration },
                divisor,
            } => [6, iterations as u64, items_per_iteration, divisor],
        };
        vsmath::fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
    }

    /// Whether the strategy consults a [`crate::CostOracle`], so a caller
    /// may share one across runs ([`crate::ReplayOptions::oracle`]) and
    /// must not memoize its schedules.
    pub fn learns(&self) -> bool {
        matches!(self, Strategy::Oracle { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use gpusim::{catalog, SimDevice, WorkProfile};
    use std::sync::Arc;
    use vstrace::Trace;

    fn hertz_gpus() -> Vec<Arc<SimDevice>> {
        vec![
            Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
        ]
    }

    #[test]
    fn labels() {
        assert_eq!(Strategy::CpuOnly.label(), "OpenMP");
        assert_eq!(Strategy::HomogeneousSplit.label(), "Homogeneous computation");
        assert_eq!(
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() }.label(),
            "Heterogeneous computation"
        );
    }

    #[test]
    fn warmup_only_where_equation_1_is_measured() {
        let warmup = WarmupConfig { iterations: 3, ..Default::default() };
        assert_eq!(Strategy::HeterogeneousSplit { warmup }.warmup(), Some(warmup));
        assert_eq!(Strategy::WorkSteal { warmup, divisor: 2 }.warmup(), Some(warmup));
        assert_eq!(Strategy::Oracle { warmup, divisor: 2 }.warmup(), Some(warmup));
        for s in [
            Strategy::CpuOnly,
            Strategy::HomogeneousSplit,
            Strategy::DynamicQueue { chunk: 32 },
            Strategy::GuidedQueue { divisor: 2 },
        ] {
            assert_eq!(s.warmup(), None, "{}", s.label());
        }
    }

    #[test]
    fn fingerprint_tells_every_variant_and_field_apart() {
        let w = WarmupConfig { iterations: 3, items_per_iteration: 64 };
        let w2 = WarmupConfig { iterations: 4, ..w };
        let w3 = WarmupConfig { items_per_iteration: 65, ..w };
        let all = [
            Strategy::CpuOnly,
            Strategy::HomogeneousSplit,
            Strategy::HeterogeneousSplit { warmup: w },
            Strategy::HeterogeneousSplit { warmup: w2 },
            Strategy::HeterogeneousSplit { warmup: w3 },
            Strategy::DynamicQueue { chunk: 2 },
            Strategy::DynamicQueue { chunk: 3 },
            Strategy::GuidedQueue { divisor: 2 },
            Strategy::GuidedQueue { divisor: 3 },
            Strategy::WorkSteal { warmup: w, divisor: 2 },
            Strategy::WorkSteal { warmup: w2, divisor: 2 },
            Strategy::WorkSteal { warmup: w3, divisor: 2 },
            Strategy::WorkSteal { warmup: w, divisor: 3 },
            Strategy::Oracle { warmup: w, divisor: 2 },
            Strategy::Oracle { warmup: w2, divisor: 2 },
            Strategy::Oracle { warmup: w3, divisor: 2 },
            Strategy::Oracle { warmup: w, divisor: 3 },
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn homogeneous_weights_are_equal() {
        let policy = Policy::new(Strategy::HomogeneousSplit, 2);
        assert_eq!(policy.weights(), [1.0, 1.0]);
        assert_eq!(policy.shares(), Some(vec![0.5, 0.5]));
    }

    #[test]
    fn heterogeneous_weights_favor_fast_device() {
        let devs = hertz_gpus();
        let warmup = WarmupConfig::default();
        let mut policy = Policy::new(Strategy::HeterogeneousSplit { warmup }, devs.len());
        assert!(policy.weights().is_empty(), "no weights until Equation 1 has measurements");
        for _ in 0..warmup.iterations {
            let profile = WorkProfile::pairs(45 * 3264);
            policy.plan(&devs, 128, profile, None, None, &Trace::disabled());
        }
        let w = policy.weights();
        assert!(w[0] > w[1], "K40c should get the larger share: {w:?}");
        // Warm-up charged.
        assert!(devs[0].clock() > 0.0 && devs[1].clock() > 0.0);
    }

    #[test]
    fn cpu_and_dynamic_have_no_static_weights() {
        assert!(Policy::new(Strategy::CpuOnly, 2).shares().is_none());
        let dynamic = Policy::new(Strategy::DynamicQueue { chunk: 32 }, 2);
        assert!(dynamic.weights().is_empty() && dynamic.shares().is_none());
    }
}
