//! The warm-up phase and Equation 1.
//!
//! §3.3: "a warm-up phase is performed to establish performance differences
//! among all targeted GPUs, running the scoring function for a few
//! candidate solutions. This phase measures, at run-time, the execution
//! time of a small number of iterations of the metaheuristic (five to ten)
//! [...] The execution times in this warm-up phase on all GPUs are reduced
//! to obtain the maximum value [...] Thus, the Percent parameter is
//! eventually determined as
//!
//! ```text
//! Percent = t_actualGPU / t_slowestGPU                (Equation 1)
//! ```
//!
//! The slowest GPU has Percent = 1; a GPU twice as fast has Percent = 0.5."
//!
//! # Per-regime warm-up sizing
//!
//! The warm-up batch size scales with the kernel's cost regime
//! ([`WarmupConfig::items_for`]). A flat 8×64 items was tuned for the
//! pair-sweep regime, whose per-item cost grows with pairs; grid
//! interpolation is orders of magnitude cheaper per pose, so the same 64
//! items barely move the device clocks and Equation 1 ratios come out of
//! transfer noise rather than compute — the split under-samples. Cheaper
//! regimes therefore warm up with proportionally more items per iteration
//! (grid-interp 64×, shell-pairs 8×); the pair-sweep size is unchanged so
//! existing pair-sweep splits are bit-identical to before.
//!
//! With the learned oracle ([`crate::oracle`]) these measurements are no
//! longer a terminal answer: they are ingested as the cold-start prior and
//! refined by every subsequent batch.

use gpusim::{KernelClass, SimDevice, WorkProfile};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Warm-up parameters. The paper uses five to ten iterations of the
/// metaheuristic over a small set of candidate solutions.
///
/// Two edge rules hold wherever a strategy warms up (replay and live
/// executor alike, [`crate::policy::Policy`]): `iterations: 0` still times
/// one batch ([`Self::batches`]) — Equation 1 needs a measurement — and a
/// run that ends inside the warm-up reports Equation 1 shares over
/// whatever had been measured by then.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmupConfig {
    /// Metaheuristic iterations to time (paper: 5–10).
    pub iterations: usize,
    /// Candidate solutions scored per iteration per device, for the
    /// baseline pair-sweep regime. Cheaper regimes scale this up — see
    /// [`Self::items_for`] and the module docs.
    pub items_per_iteration: u64,
}

impl Default for WarmupConfig {
    fn default() -> Self {
        WarmupConfig { iterations: 8, items_per_iteration: 64 }
    }
}

impl WarmupConfig {
    /// How many batches of the run execute under the equal split while
    /// being timed: `iterations`, but never fewer than one.
    pub fn batches(self) -> usize {
        self.iterations.max(1)
    }

    /// Items per warm-up iteration for `class`. Cheap-per-pose regimes
    /// need more poses for the device clocks to move past transfer noise:
    /// grid interpolation costs ~3 flops per pose-atom versus a full
    /// pairwise sweep, shell pairs sit in between.
    pub fn items_for(self, class: KernelClass) -> u64 {
        match class {
            KernelClass::PairSweep => self.items_per_iteration,
            KernelClass::GridInterp => self.items_per_iteration * 64,
            KernelClass::ShellPairs => self.items_per_iteration * 8,
        }
    }
}

/// Run the warm-up on every device and return the measured per-device
/// times. The warm-up batches *really execute* (they advance the device
/// clocks), exactly as the paper's warm-up spends real runtime. The runs
/// are not trying to solve the docking problem — they only expose the
/// performance differences.
///
/// The `profile` carries the scoring kernel's cost regime
/// ([`crate::runtime::work_profile`]): warming up in the wrong regime —
/// timing dense pair sweeps when the run will interpolate grids — would
/// hand Equation 1 throughput ratios from the wrong curve.
pub fn warmup_times(
    devices: &[Arc<SimDevice>],
    profile: WorkProfile,
    config: WarmupConfig,
) -> Vec<f64> {
    assert!(!devices.is_empty(), "warm-up needs devices");
    assert!(config.iterations > 0 && config.items_per_iteration > 0, "degenerate warm-up");
    let items = config.items_for(profile.class);
    devices
        .iter()
        .map(|d| {
            let mut t = 0.0;
            for _ in 0..config.iterations {
                t += d.execute(&profile.batch(items));
            }
            t
        })
        .collect()
}

/// Equation 1: `Percent_d = t_d / max_i t_i`. The slowest device gets 1.0.
pub fn percent_factors(times: &[f64]) -> Vec<f64> {
    assert!(!times.is_empty(), "no measurements");
    assert!(times.iter().all(|t| t.is_finite() && *t > 0.0), "bad warm-up times: {times:?}");
    let t_max = times.iter().cloned().fold(f64::MIN, f64::max);
    times.iter().map(|t| t / t_max).collect()
}

/// Throughput weights from warm-up times: a device's share of the
/// conformations is proportional to `1 / Percent` (equivalently `1 / t`),
/// so every device finishes its share at the same time.
pub fn shares_from_times(times: &[f64]) -> Vec<f64> {
    percent_factors(times).iter().map(|p| 1.0 / p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::catalog;

    fn devices() -> Vec<Arc<SimDevice>> {
        vec![
            Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
        ]
    }

    #[test]
    fn warmup_measures_slower_device_slower() {
        let devs = devices();
        let times = warmup_times(&devs, WorkProfile::pairs(45 * 3264), WarmupConfig::default());
        assert_eq!(times.len(), 2);
        assert!(times[0] < times[1], "K40c must beat GTX 580: {times:?}");
    }

    #[test]
    fn warmup_advances_clocks() {
        let devs = devices();
        let times = warmup_times(&devs, WorkProfile::pairs(1000), WarmupConfig::default());
        for (d, t) in devs.iter().zip(&times) {
            assert!((d.clock() - t).abs() < 1e-15, "warm-up cost must be charged");
        }
    }

    #[test]
    fn percent_slowest_is_one() {
        let p = percent_factors(&[2.0, 4.0, 1.0]);
        assert_eq!(p[1], 1.0);
        assert_eq!(p[0], 0.5);
        assert_eq!(p[2], 0.25);
    }

    #[test]
    fn percent_identical_devices() {
        let p = percent_factors(&[3.0, 3.0, 3.0]);
        assert!(p.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn percent_in_unit_interval() {
        let p = percent_factors(&[0.123, 7.7, 3.25, 0.5]);
        assert!(p.iter().all(|&x| x > 0.0 && x <= 1.0));
    }

    #[test]
    fn paper_example_twice_as_fast_is_half() {
        // "a GPU two times faster than slowest GPU would have Percent = 0.5"
        let p = percent_factors(&[1.0, 2.0]);
        assert_eq!(p[0], 0.5);
        assert_eq!(p[1], 1.0);
    }

    #[test]
    fn shares_inverse_of_times() {
        let s = shares_from_times(&[1.0, 2.0, 4.0]);
        // Weights 4:2:1 after normalizing by the max.
        assert!((s[0] / s[1] - 2.0).abs() < 1e-12);
        assert!((s[1] / s[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shares_balance_completion_time() {
        // If device rates are r_d = 1/t_d, assigning n_d ∝ 1/t_d items
        // makes n_d × t_d equal across devices.
        let times = [0.8, 1.9, 3.3];
        let shares = shares_from_times(&times);
        let completion: Vec<f64> = shares.iter().zip(&times).map(|(s, t)| s * t).collect();
        for w in completion.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn warmup_items_scale_with_regime_cheapness() {
        let cfg = WarmupConfig::default();
        assert_eq!(cfg.items_for(KernelClass::PairSweep), 64);
        assert_eq!(cfg.items_for(KernelClass::ShellPairs), 64 * 8);
        assert_eq!(cfg.items_for(KernelClass::GridInterp), 64 * 64);
    }

    #[test]
    fn grid_interp_warmup_samples_more_items() {
        // Same iteration count, but the cheap regime executes enough items
        // that the measured ratio reflects compute, not per-batch noise.
        let devs = devices();
        let profile = WorkProfile::new(4, KernelClass::GridInterp);
        let times = warmup_times(&devs, profile, WarmupConfig::default());
        let stats = devs[0].stats();
        assert_eq!(stats.items, 8 * 64 * 64, "grid-interp warm-up must up-sample");
        assert!(times.iter().all(|t| *t > 0.0));
    }

    #[test]
    #[should_panic]
    fn percent_rejects_zero_time() {
        percent_factors(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn percent_rejects_empty() {
        percent_factors(&[]);
    }

    #[test]
    #[should_panic]
    fn warmup_zero_iterations_panics() {
        warmup_times(
            &devices(),
            WorkProfile::pairs(10),
            WarmupConfig { iterations: 0, items_per_iteration: 1 },
        );
    }
}
