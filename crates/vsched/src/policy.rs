//! The one strategy interpreter: plan a batch once, then replay it or
//! score it live (DESIGN.md §10).
//!
//! A [`Policy`] is the only place a [`Strategy`] is interpreted. Its
//! single step, [`Policy::plan`], takes the next scoring batch and
//!
//! 1. decides which device claims which index range — warm-up batches
//!    under the equal split, then static Equation 1 shares, greedy
//!    self-scheduled chunks, or the seeded-deque work-stealing drain
//!    (optionally re-seeded from a [`CostOracle`] before every batch);
//! 2. charges each claim to the claiming device's virtual clock as it is
//!    made, so the claim order is a pure function of (strategy state,
//!    device clocks and slowdowns, batch size, [`WorkProfile`]);
//! 3. feeds the batch's per-device `(units, seconds)` outcome back into
//!    the warm-up accumulators or the oracle, emitting every scheduling
//!    trace event from one site.
//!
//! Both execution substrates call the same step. The analytic replay
//! ([`crate::replay::schedule_trace_with`]) keeps the clocks and drops the
//! claims; the real-compute path ([`crate::DeviceEvaluator`]) checks the
//! claims and scores the whole batch on the shared host pool — by then
//! every claim is charged, so a claim's `device` says whose clock moved,
//! not which host thread computes. A virtual-time number therefore
//! cannot differ between the two — the differential test in
//! `tests/substrates_agree.rs` pins clocks, launch counts, steals and
//! oracle re-seeds bit-for-bit.
//!
//! # Measurements
//!
//! Every per-batch device time is *clock after − clock before* the batch,
//! whether the device made one claim or twenty; warm-up sums and oracle
//! observations both use it.

use crate::oracle::CostOracle;
use crate::partition::proportional_split;
use crate::runtime::{
    charge, drain_deques, earliest, makespan, seed_deques, Claim, StealConfig, StealStats,
};
use crate::strategy::Strategy;
use crate::warmup::shares_from_times;
use gpusim::{SimDevice, Timeline, WorkProfile};
use std::sync::Arc;
use vstrace::{Event, Trace, BATCH_TRACK};

/// What a batch does once the warm-up (if the strategy has one) is over.
enum Steady {
    /// One contiguous share per device, proportional to the weights.
    Split,
    /// Self-scheduling: the device that is free first takes the next
    /// chunk of `max(remaining / (divisor × devices), min_chunk)` items,
    /// one launch per chunk. Guided self-scheduling is `min_chunk = 1`;
    /// the fixed-chunk queue is the `divisor → ∞` case.
    Greedy { divisor: u64, min_chunk: u64 },
    /// Deques seeded by the Equation 1 weights, drained with stealing.
    Steal(StealConfig),
    /// Deques re-seeded from the oracle's fits before every batch, and
    /// every device's outcome fed back as an observation.
    Learn(StealConfig),
}

/// The strategy state machine. See the module docs.
pub struct Policy {
    steady: Steady,
    cpu_only: bool,
    /// Batches still to run under the equal split while being timed.
    warm_left: usize,
    warm_done: u32,
    /// Warm-up accumulators: per-device seconds and executed work units.
    times: Vec<f64>,
    units: Vec<f64>,
    /// Split / deque-seed weights: all ones until Equation 1 fixes them.
    weights: Vec<f64>,
    /// The cold-start oracle of [`Strategy::Oracle`] (`None` under every
    /// other strategy), used whenever [`Policy::plan`] is not lent a
    /// caller-owned one.
    oracle: Option<CostOracle>,
    stats: StealStats,
    /// Per-batch scratch, reused so the static path allocates nothing
    /// beyond the integer split.
    claims: Vec<Claim>,
    before: Vec<f64>,
}

impl Policy {
    /// The policy for `strategy` over `n_devices` devices
    /// ([`Strategy::CpuOnly`] always plans for exactly one lane, the host
    /// CPU — see [`Policy::cpu_only`]).
    ///
    /// # Panics
    /// Panics if a device strategy is given no devices.
    pub fn new(strategy: Strategy, n_devices: usize) -> Policy {
        let cpu_only = matches!(strategy, Strategy::CpuOnly);
        let n = if cpu_only { 1 } else { n_devices };
        assert!(n > 0, "GPU strategies need GPUs");
        let steal = |divisor: u64| StealConfig { divisor: divisor.max(1), min_chunk: 0 };
        let steady = match strategy {
            Strategy::CpuOnly
            | Strategy::HomogeneousSplit
            | Strategy::HeterogeneousSplit { .. } => Steady::Split,
            Strategy::DynamicQueue { chunk } => {
                Steady::Greedy { divisor: u64::MAX, min_chunk: chunk.max(1) }
            }
            Strategy::GuidedQueue { divisor } => {
                Steady::Greedy { divisor: divisor.max(1), min_chunk: 1 }
            }
            Strategy::WorkSteal { divisor, .. } => Steady::Steal(steal(divisor)),
            Strategy::Oracle { divisor, .. } => Steady::Learn(steal(divisor)),
        };
        let oracle = matches!(steady, Steady::Learn(_)).then(|| CostOracle::new(n));
        Policy {
            steady,
            cpu_only,
            warm_left: strategy.warmup().map_or(0, |w| w.batches()),
            warm_done: 0,
            times: vec![0.0; n],
            units: vec![0.0; n],
            weights: vec![1.0; n],
            oracle,
            stats: StealStats::default(),
            claims: Vec::new(),
            before: Vec::with_capacity(n),
        }
    }

    /// Whether the single lane this policy plans for is the host CPU
    /// rather than the GPUs.
    pub fn cpu_only(&self) -> bool {
        self.cpu_only
    }

    /// Split or deque-seed weights in force (empty while warming up and
    /// under the self-scheduling strategies, which have none).
    pub fn weights(&self) -> &[f64] {
        if self.warm_left > 0 || matches!(self.steady, Steady::Greedy { .. }) {
            &[]
        } else {
            &self.weights
        }
    }

    /// Normalized shares for a report: the weights in force, or — when
    /// the run ended inside the warm-up — Equation 1 over whatever the
    /// warm-up had measured by then. `None` for the CPU baseline and the
    /// self-scheduling strategies.
    pub fn shares(&self) -> Option<Vec<f64>> {
        if self.cpu_only || matches!(self.steady, Steady::Greedy { .. }) {
            return None;
        }
        let w = if self.warm_left > 0 && self.times.iter().all(|&t| t > 0.0) {
            shares_from_times(&self.times)
        } else {
            self.weights.clone()
        };
        let total: f64 = w.iter().sum();
        Some(w.iter().map(|x| x / total).collect())
    }

    /// Cumulative work-stealing statistics (all zeros unless the strategy
    /// drains deques).
    pub fn steal_stats(&self) -> StealStats {
        self.stats
    }

    /// The policy's own oracle, once [`Strategy::Oracle`] finished its
    /// warm-up (`None` before that or under any other strategy).
    pub fn oracle(&self) -> Option<&CostOracle> {
        self.oracle.as_ref().filter(|_| self.warm_left == 0)
    }

    /// Plan the next batch of `items` conformations onto `devices`:
    /// charge every claim to its device's clock (through `timeline` when
    /// given), update the warm-up / oracle state from the outcome, emit
    /// the scheduling events to `trace`, and return the claims — disjoint
    /// ranges tiling `[0, items)`, in claim order.
    ///
    /// `shared` substitutes a caller-owned oracle for the policy's own
    /// under [`Strategy::Oracle`] (the campaign service's cross-tenant
    /// warm start); an oracle that is already warm for the profile's
    /// kernel class skips the warm-up. Other strategies ignore it.
    ///
    /// # Panics
    /// Panics if `devices` does not match the device count the policy was
    /// built for.
    pub fn plan(
        &mut self,
        devices: &[Arc<SimDevice>],
        items: u64,
        profile: WorkProfile,
        shared: Option<&mut CostOracle>,
        timeline: Option<&Timeline>,
        trace: &Trace,
    ) -> &[Claim] {
        let n = devices.len();
        assert_eq!(n, self.weights.len(), "policy was built for another device count");
        self.claims.clear();
        if items == 0 {
            return &self.claims;
        }
        let learn = matches!(self.steady, Steady::Learn(_));
        let mut oracle = match shared {
            Some(o) if learn => Some(o),
            _ => self.oracle.as_mut(),
        };
        if let Some(o) = &oracle {
            assert_eq!(o.n_devices(), n, "oracle device count must match the devices");
            // A warm oracle's knowledge replaces the measurements.
            if self.warm_left > 0 && o.is_warm(profile.class) {
                self.warm_left = 0;
            }
        }
        let warming = self.warm_left > 0;
        // Clocks before the batch — read only where something consumes
        // them: the warm-up and oracle outcomes, and the trace span.
        self.before.clear();
        if warming || learn || trace.is_enabled() {
            self.before.extend(devices.iter().map(|d| d.clock()));
        }

        match &self.steady {
            Steady::Greedy { divisor, min_chunk } => {
                let per_step = divisor.saturating_mul(n as u64);
                let mut lo = 0u64;
                while lo < items {
                    let remaining = items - lo;
                    let take = (remaining / per_step).max(*min_chunk).min(remaining);
                    let who = earliest(devices);
                    charge(&devices[who], take, profile, timeline, trace);
                    self.claims.push(Claim {
                        device: who,
                        lo: lo as u32,
                        hi: (lo + take) as u32,
                        stolen_from: None,
                    });
                    lo += take;
                }
            }
            Steady::Steal(cfg) | Steady::Learn(cfg) if !warming => {
                if let Some(oracle) = oracle.as_deref_mut() {
                    self.weights =
                        oracle.seed_weights(profile.class).unwrap_or_else(|| vec![1.0; n]);
                    if trace.is_enabled() {
                        trace.emit(Event::Counter {
                            name: "oracle_reseed",
                            value: oracle.reseeds() as f64,
                        });
                    }
                }
                let mut deques = seed_deques(items, &self.weights);
                if trace.is_enabled() {
                    for ((d, q), &weight) in devices.iter().zip(&deques).zip(&self.weights) {
                        trace.emit(Event::PartitionDecision {
                            device: d.id() as u32,
                            share: f64::from(q.end - q.start) / items as f64,
                            weight,
                        });
                    }
                }
                let (claims, stats) =
                    drain_deques(devices, &mut deques, cfg, profile, timeline, trace);
                self.claims = claims;
                self.stats.merge(stats);
            }
            // Static shares — and every warm-up batch, whose weights are
            // still the equal split.
            _ => {
                let mut lo = 0u32;
                for (i, &share) in proportional_split(items, &self.weights).iter().enumerate() {
                    if share > 0 {
                        let hi = lo + share as u32;
                        charge(&devices[i], share, profile, timeline, trace);
                        self.claims.push(Claim { device: i, lo, hi, stolen_from: None });
                        lo = hi;
                    }
                }
            }
        }

        if trace.is_enabled() {
            // For the dense kernels `units_per_item` *is* the pair count;
            // grid/cell-list batches report their own regime's unit so the
            // trace matches what the cost model actually charged.
            trace.emit(Event::BatchScored {
                device: BATCH_TRACK,
                items,
                pairs_per_item: profile.units_per_item,
                vt_start: self.before.iter().copied().fold(f64::INFINITY, f64::min),
                vt_end: makespan(devices),
            });
        }
        if !warming && !learn {
            return &self.claims;
        }

        // This batch's outcome per device: items claimed and clock delta.
        let outcome = |i: usize| {
            let di: u64 = self.claims.iter().filter(|c| c.device == i).map(Claim::items).sum();
            (di, devices[i].clock() - self.before[i])
        };
        if warming {
            for (i, d) in devices.iter().enumerate() {
                let (di, dt) = outcome(i);
                self.times[i] += dt;
                self.units[i] += (di * profile.units_per_item) as f64;
                if trace.is_enabled() {
                    trace.emit(Event::WarmupSample {
                        device: d.id() as u32,
                        iteration: self.warm_done,
                        seconds: dt,
                    });
                }
            }
            self.warm_done += 1;
            self.warm_left -= 1;
            if self.warm_left == 0 {
                // Equation 1 fixes the weights; the oracle takes the same
                // measurements as its cold-start prior.
                let measured = self.times.iter().all(|&t| t > 0.0);
                if measured {
                    self.weights = shares_from_times(&self.times);
                }
                if trace.is_enabled() {
                    let total: f64 = self.weights.iter().sum();
                    for (d, &w) in devices.iter().zip(&self.weights) {
                        trace.emit(Event::PartitionDecision {
                            device: d.id() as u32,
                            share: if total > 0.0 { w / total } else { 0.0 },
                            weight: w,
                        });
                    }
                }
                if let Some(oracle) = oracle {
                    if measured && self.units.iter().all(|&u| u > 0.0) {
                        oracle.observe_warmup(profile.class, &self.times, &self.units);
                    }
                }
            }
        } else if let Some(oracle) = oracle {
            // Every device's `(units, virtual seconds)` refines the fits
            // the *next* batch's seed will query.
            for (i, d) in devices.iter().enumerate() {
                let (di, dt) = outcome(i);
                if di > 0 && dt > 0.0 {
                    let u =
                        oracle.observe(i, profile.class, (di * profile.units_per_item) as f64, dt);
                    if trace.is_enabled() {
                        trace.emit(Event::ModelUpdated {
                            device: d.id() as u32,
                            class: profile.class.ordinal(),
                            predicted: u.predicted,
                            observed: u.observed,
                            residual: u.residual,
                            refit: u.refit,
                        });
                    }
                }
            }
        }
        &self.claims
    }
}
