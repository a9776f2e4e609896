//! Trace replay: schedule a recorded metaheuristic batch stream onto a
//! simulated node.
//!
//! The engine in `metaheur` is deterministic, so the *search trajectory*
//! (and therefore the sequence of scoring-batch sizes) is identical no
//! matter which devices execute the scoring. That lets the experiment
//! harness run the search once, record its [`metaheur::RunResult::batch_trace`],
//! and then replay the same workload under every scheduling strategy to
//! obtain virtual execution times — the mechanism behind Tables 6–9.
//!
//! The replay interprets no strategy itself: it is one loop over the batch
//! trace calling [`Policy::plan`] — the very step the real-compute
//! [`crate::DeviceEvaluator`] charges with — and keeping only the device
//! clocks it charged. Replay semantics follow the paper's execution model:
//! devices run *independent* executions of their conformation shares (§3.3
//! "Parallel runs do not incur any communication overhead"), so there is no
//! cross-device synchronization until the final reduction; the slowest
//! device determines overall time.

use crate::oracle::CostOracle;
use crate::policy::Policy;
use crate::strategy::Strategy;
use gpusim::{EnergyModel, SimDevice, Timeline, WorkProfile};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vstrace::Trace;

/// Outcome of replaying one workload under one strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleReport {
    pub strategy_label: String,
    pub device_names: Vec<String>,
    /// Final virtual clock per device (seconds).
    pub device_times: Vec<f64>,
    /// Overall execution time: the slowest device's clock.
    pub makespan: f64,
    /// Normalized static / deque-seed shares in force at the end of the
    /// run (None for CPU-only and the self-scheduling queues).
    pub shares: Option<Vec<f64>>,
    /// Total conformations scheduled.
    pub total_items: u64,
    /// Whole-configuration energy to solution (joules): every device in
    /// the configuration — including the host CPU — is powered for the
    /// whole makespan, busy or idle ([`gpusim::EnergyModel`]).
    pub energy_joules: f64,
}

/// Everything a replay can be asked for beyond the plain schedule. The
/// default is a healthy, silent, self-contained run.
#[derive(Default)]
pub struct ReplayOptions<'a> {
    /// Degradation phases: before batch `phases[k].0` executes, every
    /// GPU's slowdown is set to the matching factor in `phases[k].1`
    /// (1.0 restores nominal speed, see [`SimDevice::set_slowdown`]). One
    /// phase is a device that throttles mid-run *after* the warm-up froze
    /// its Equation 1 weight — the scenario work stealing exists to heal;
    /// slow-then-recover drift is two.
    pub phases: &'a [(usize, Vec<f64>)],
    /// Sink for the scheduling events of [`Policy::plan`]: `DeviceBusy`
    /// per launch, `BatchScored` per batch, `WarmupSample` /
    /// `PartitionDecision` from the warm-up and the deque seeds,
    /// [`vstrace::Event::JobMigrated`] per steal, `ModelUpdated` and the
    /// `oracle_reseed` counter under [`Strategy::Oracle`].
    pub events: Trace,
    /// For [`Strategy::Oracle`]: learned state carried across calls (the
    /// campaign service's cross-tenant warm start). A warm oracle skips
    /// the warm-up phase entirely and seeds from its fits at batch 0, and
    /// every observation made here updates the caller's model. `None` is
    /// a self-contained run on a fresh cold-start oracle. Other strategies
    /// ignore the field.
    pub oracle: Option<&'a mut CostOracle>,
    /// Record every launch as a Gantt segment.
    pub timeline: Option<&'a Timeline>,
}

/// Replay `trace` (batch sizes, in order) under `strategy`, scoring in the
/// dense pair-sweep regime at `pairs_per_item` pair interactions per
/// conformation: [`schedule_trace_with`] at its default options.
///
/// Device clocks are reset first, so the report's `makespan` is the full
/// cost of this workload, including the heterogeneous strategy's warm-up.
///
/// ```
/// use std::sync::Arc;
/// use gpusim::{catalog, SimDevice};
/// use vsched::{schedule_trace, Strategy, WarmupConfig};
///
/// let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
/// let gpus = vec![
///     Arc::new(SimDevice::new(1, catalog::tesla_k40c())),
///     Arc::new(SimDevice::new(2, catalog::geforce_gtx_580())),
/// ];
/// // 33 generations of 2048 conformations, 45x3264 pairs each.
/// let trace: Vec<u64> = std::iter::repeat(2048).take(33).collect();
///
/// let hom = schedule_trace(&cpu, &gpus, &trace, 45 * 3264, Strategy::HomogeneousSplit);
/// let het = schedule_trace(&cpu, &gpus, &trace, 45 * 3264,
///     Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() });
/// // Equation 1's proportional split beats the equal split on Kepler+Fermi.
/// assert!(het.makespan < hom.makespan);
/// ```
pub fn schedule_trace(
    cpu: &Arc<SimDevice>,
    gpus: &[Arc<SimDevice>],
    trace: &[u64],
    pairs_per_item: u64,
    strategy: Strategy,
) -> ScheduleReport {
    let profile = WorkProfile::pairs(pairs_per_item);
    schedule_trace_with(cpu, gpus, trace, profile, strategy, ReplayOptions::default())
}

/// Replay `trace` under `strategy` in the cost regime of `profile`, with
/// the fault phases, event sink, caller-owned oracle and timeline of `opts`.
///
/// # Panics
/// Panics if any phase's factor list length differs from `gpus.len()`, if
/// a GPU strategy is given no GPUs, or if a passed-in oracle was built for
/// a different device count.
pub fn schedule_trace_with(
    cpu: &Arc<SimDevice>,
    gpus: &[Arc<SimDevice>],
    trace: &[u64],
    profile: WorkProfile,
    strategy: Strategy,
    opts: ReplayOptions<'_>,
) -> ScheduleReport {
    let ReplayOptions { phases, events, mut oracle, timeline } = opts;
    for (_, factors) in phases {
        assert_eq!(factors.len(), gpus.len(), "one slowdown factor per GPU per phase");
    }
    cpu.reset();
    for g in gpus {
        g.reset(); // also restores nominal slowdown from any prior replay
    }
    let mut policy = Policy::new(strategy, gpus.len());
    let lanes = if policy.cpu_only() { std::slice::from_ref(cpu) } else { gpus };

    for (bi, &items) in trace.iter().enumerate() {
        for (_, factors) in phases.iter().filter(|(onset, _)| *onset == bi) {
            for (g, &f) in gpus.iter().zip(factors) {
                g.set_slowdown(f);
            }
        }
        policy.plan(lanes, items, profile, oracle.as_deref_mut(), timeline, &events);
    }

    let device_times: Vec<f64> = lanes.iter().map(|d| d.clock()).collect();
    let makespan = device_times.iter().cloned().fold(0.0, f64::max);
    // Whole-configuration energy: CPU plus every listed GPU, powered for
    // the full makespan.
    let model = EnergyModel::default();
    let energy_joules =
        std::iter::once(cpu).chain(gpus).map(|d| model.device_energy(d, makespan).joules).sum();
    ScheduleReport {
        strategy_label: strategy.label().into(),
        device_names: lanes.iter().map(|d| d.spec().name.clone()).collect(),
        device_times,
        makespan,
        shares: policy.shares(),
        total_items: trace.iter().sum(),
        energy_joules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warmup::WarmupConfig;
    use gpusim::{catalog, KernelClass};
    use vstrace::Event;

    const PAIRS: u64 = 45 * 3264;

    fn hertz() -> (Arc<SimDevice>, Vec<Arc<SimDevice>>) {
        (
            Arc::new(SimDevice::new(0, catalog::xeon_e3_1220())),
            vec![
                Arc::new(SimDevice::new(1, catalog::tesla_k40c())),
                Arc::new(SimDevice::new(2, catalog::geforce_gtx_580())),
            ],
        )
    }

    /// `schedule_trace_with` in the 2BSM pair-sweep regime.
    fn replay(
        node: &(Arc<SimDevice>, Vec<Arc<SimDevice>>),
        trace: &[u64],
        strategy: Strategy,
        opts: ReplayOptions<'_>,
    ) -> ScheduleReport {
        schedule_trace_with(&node.0, &node.1, trace, WorkProfile::pairs(PAIRS), strategy, opts)
    }

    /// Every GPU strategy the crate has.
    fn gpu_strategies() -> [Strategy; 7] {
        [
            Strategy::HomogeneousSplit,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
            Strategy::DynamicQueue { chunk: 64 },
            Strategy::DynamicQueue { chunk: 512 },
            Strategy::GuidedQueue { divisor: 2 },
            worksteal(),
            oracle(),
        ]
    }

    /// A plausible M1-like trace: init + 32 generations of 64×32 spots —
    /// big enough per batch to put the GPUs in the saturated-occupancy
    /// regime the paper's workloads run in.
    fn trace() -> Vec<u64> {
        std::iter::repeat_n(64 * 32, 33).collect()
    }

    #[test]
    fn cpu_only_uses_cpu() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::CpuOnly);
        assert_eq!(r.device_times.len(), 1);
        assert!(r.makespan > 0.0);
        assert_eq!(gpus[0].clock(), 0.0);
        assert_eq!(r.total_items, 33 * 2048);
    }

    #[test]
    fn gpu_strategies_beat_cpu_by_a_lot() {
        let (cpu, gpus) = hertz();
        let t_cpu = schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::CpuOnly).makespan;
        let t_hom =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit).makespan;
        let speedup = t_cpu / t_hom;
        assert!(speedup > 10.0, "GPU speedup only {speedup}");
    }

    #[test]
    fn heterogeneous_beats_homogeneous_on_hertz() {
        // The paper's headline result: up to 1.56× on the Kepler+Fermi node.
        let (cpu, gpus) = hertz();
        let t_hom =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit).makespan;
        let t_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let gain = t_hom / t_het;
        assert!(gain > 1.25, "heterogeneous gain only {gain}");
        assert!(gain < 2.0, "gain suspiciously large: {gain}");
    }

    #[test]
    fn homogeneous_split_bottlenecked_by_slow_gpu() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit);
        // GTX 580 (index 1) is slower and determines the makespan.
        assert!(r.device_times[1] > r.device_times[0]);
        assert_eq!(r.makespan, r.device_times[1]);
    }

    #[test]
    fn heterogeneous_balances_completion_times() {
        // Long run: the warm-up's equal-split imbalance amortizes away and
        // the Equation 1 split keeps both devices finishing together.
        let (cpu, gpus) = hertz();
        let long_trace: Vec<u64> = std::iter::repeat_n(64 * 32, 200).collect();
        let r = schedule_trace(
            &cpu,
            &gpus,
            &long_trace,
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        );
        let imbalance = (r.device_times[0] - r.device_times[1]).abs() / r.makespan;
        assert!(imbalance < 0.10, "imbalance {imbalance}: {:?}", r.device_times);
    }

    #[test]
    fn heterogeneous_shares_sum_to_one() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        );
        let s = r.shares.unwrap();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s[0] > s[1], "K40c share must dominate: {s:?}");
    }

    #[test]
    fn dynamic_queue_close_to_heterogeneous() {
        let (cpu, gpus) = hertz();
        let t_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let t_dyn =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::DynamicQueue { chunk: 512 })
                .makespan;
        // Dynamic self-scheduling also balances, but pays an occupancy
        // penalty for its smaller kernels (an ablation finding: static
        // Eq. 1 splits keep launches large).
        assert!((t_dyn / t_het) < 1.4, "dynamic {t_dyn} vs het {t_het}");
    }

    #[test]
    fn replay_resets_clocks() {
        let (cpu, gpus) = hertz();
        gpus[0].advance(100.0);
        let r = schedule_trace(&cpu, &gpus, &[64], PAIRS, Strategy::HomogeneousSplit);
        assert!(r.makespan < 100.0, "stale clock leaked into report");
    }

    #[test]
    fn identical_gpus_make_strategies_equivalent() {
        // On a truly homogeneous pair the heterogeneous algorithm's split
        // converges to the equal split (paper §5: "minimal differences" on
        // near-identical Fermi cards).
        let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
        let gpus = vec![
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_590())),
            Arc::new(SimDevice::new(2, catalog::geforce_gtx_590())),
        ];
        let t_hom =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit).makespan;
        let t_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let gain = t_hom / t_het;
        assert!((0.95..1.05).contains(&gain), "gain {gain} should be ≈1");
    }

    #[test]
    fn energy_reported_and_sane() {
        let (cpu, gpus) = hertz();
        let r_cpu = schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::CpuOnly);
        let r_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        );
        assert!(r_cpu.energy_joules > 0.0 && r_het.energy_joules > 0.0);
        // The paper's energy argument: the GPU configuration finishes so
        // much sooner that whole-node energy-to-solution plummets even
        // though the GPUs burn more power while busy.
        assert!(
            r_het.energy_joules < r_cpu.energy_joules / 5.0,
            "GPU energy {} vs CPU energy {}",
            r_het.energy_joules,
            r_cpu.energy_joules
        );
    }

    #[test]
    fn heterogeneous_saves_energy_over_homogeneous() {
        let (cpu, gpus) = hertz();
        let e_hom =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::HomogeneousSplit).energy_joules;
        let e_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .energy_joules;
        assert!(e_het < e_hom, "balanced schedule should cut idle energy: {e_het} vs {e_hom}");
    }

    #[test]
    fn guided_queue_beats_small_fixed_chunks() {
        // GSS keeps early chunks large (occupancy) while a small fixed
        // chunk destroys it.
        let (cpu, gpus) = hertz();
        let fixed =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::DynamicQueue { chunk: 64 })
                .makespan;
        let guided =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::GuidedQueue { divisor: 2 })
                .makespan;
        assert!(guided < fixed, "GSS {guided} should beat fixed-64 {fixed}");
    }

    #[test]
    fn guided_queue_loses_to_static_split_on_gpus() {
        // The ablation finding: GSS was designed for CPU loop scheduling;
        // its geometrically shrinking tail chunks destroy GPU occupancy,
        // so the paper's one-shot Equation 1 split — one large launch per
        // device per batch — wins on occupancy-sensitive hardware.
        let (cpu, gpus) = hertz();
        let het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let guided =
            schedule_trace(&cpu, &gpus, &trace(), PAIRS, Strategy::GuidedQueue { divisor: 2 })
                .makespan;
        assert!(guided > het, "expected GSS tail chunks to cost occupancy");
        assert!(guided < het * 5.0, "GSS should still be in the same decade: {guided} vs {het}");
    }

    #[test]
    fn timeline_replay_matches_plain_replay() {
        // A timeline only records: for every strategy the clocks equal the
        // timeline-less replay bit-for-bit, and the recorded segments sum
        // to each device's busy time (one segment per launch).
        let node = hertz();
        let strategies = std::iter::once(Strategy::CpuOnly).chain(gpu_strategies());
        for strat in strategies {
            let plain = replay(&node, &trace(), strat, ReplayOptions::default());
            let tl = Timeline::new();
            let timed = replay(
                &node,
                &trace(),
                strat,
                ReplayOptions { timeline: Some(&tl), ..Default::default() },
            );
            let label = strat.label();
            let bits = |r: &ScheduleReport| -> Vec<u64> {
                r.device_times.iter().map(|t| t.to_bits()).collect()
            };
            assert_eq!(bits(&timed), bits(&plain), "{label}: clocks moved under a timeline");
            assert_eq!(tl.makespan().to_bits(), timed.makespan.to_bits(), "{label}");
            let segments = tl.segments();
            for dev in std::iter::once(&node.0).chain(&node.1) {
                let mine = segments.iter().filter(|s| s.device == dev.id());
                let (launches, busy) =
                    mine.fold((0, 0.0), |(n, busy), s| (n + 1, busy + (s.end - s.start)));
                let stats = dev.stats();
                assert_eq!(launches, stats.batches, "{label}: one segment per launch");
                assert!(
                    (busy - stats.busy_s).abs() <= 1e-12 * stats.busy_s.max(1.0),
                    "{label}: {} segments sum to {busy}, busy {}",
                    dev.name(),
                    stats.busy_s
                );
            }
        }
    }

    #[test]
    fn timeline_shows_homogeneous_imbalance() {
        // Under the homogeneous split, the K40c idles while the GTX 580
        // finishes — visible as idle time on device 0.
        let (cpu, gpus) = hertz();
        let tl = Timeline::new();
        schedule_trace_with(
            &cpu,
            &gpus,
            &trace(),
            WorkProfile::pairs(PAIRS),
            Strategy::HomogeneousSplit,
            ReplayOptions { timeline: Some(&tl), ..Default::default() },
        );
        let idle_k40 = tl.idle_time(gpus[0].id());
        let idle_580 = tl.idle_time(gpus[1].id());
        assert!(idle_k40 > idle_580, "K40c should idle more: {idle_k40} vs {idle_580}");
        assert!(idle_k40 / tl.makespan() > 0.3, "imbalance should be large");
        let chart = tl.render(60);
        assert!(chart.contains("K40c") && chart.contains('#'));
    }

    #[test]
    fn empty_trace_zero_makespan_cpu() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(&cpu, &gpus, &[], PAIRS, Strategy::CpuOnly);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.total_items, 0);
    }

    #[test]
    #[should_panic]
    fn gpu_strategy_without_gpus_panics() {
        let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
        schedule_trace(&cpu, &[], &[64], PAIRS, Strategy::HomogeneousSplit);
    }

    fn worksteal() -> Strategy {
        Strategy::WorkSteal { warmup: WarmupConfig::default(), divisor: 2 }
    }

    /// Straggler-scenario trace: generations far above the occupancy floor
    /// so the deques hold many whole chunks and stealing has granularity
    /// to work with.
    fn big_trace() -> Vec<u64> {
        std::iter::repeat_n(16 * 1024, 24).collect()
    }

    #[test]
    fn work_steal_healthy_within_five_percent_of_heterogeneous() {
        // Acceptance: when nothing goes wrong, the seeded deques drain as
        // whole per-device chunks — virtually identical to the frozen
        // Percent split, so stealing costs nothing to carry.
        let (cpu, gpus) = hertz();
        let t_het = schedule_trace(
            &cpu,
            &gpus,
            &trace(),
            PAIRS,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        )
        .makespan;
        let t_ws = schedule_trace(&cpu, &gpus, &trace(), PAIRS, worksteal()).makespan;
        let ratio = t_ws / t_het;
        assert!(
            ratio <= 1.05,
            "healthy work stealing must not lose to the Percent split: {t_ws} vs {t_het}"
        );
        // It is allowed to *win* (the drain reclaims the warm-up's
        // equal-split imbalance, which the frozen split never recovers),
        // but not by an implausible margin.
        assert!(ratio >= 0.7, "suspiciously large healthy gain: {t_ws} vs {t_het}");
    }

    #[test]
    fn work_steal_shares_favor_fast_device() {
        let (cpu, gpus) = hertz();
        let r = schedule_trace(&cpu, &gpus, &trace(), PAIRS, worksteal());
        assert_eq!(r.strategy_label, "Work stealing");
        let s = r.shares.unwrap();
        assert!(s[0] > s[1], "K40c seed share must dominate: {s:?}");
    }

    #[test]
    fn faulty_replay_with_no_faults_matches_plain_replay() {
        // A phase of all-1.0 factors is not a fault: every strategy stays
        // bit-identical to the phase-less replay.
        let node = hertz();
        let healthy = [(0, vec![1.0, 1.0])];
        for strat in gpu_strategies() {
            let plain = schedule_trace(&node.0, &node.1, &trace(), PAIRS, strat).makespan;
            let phased = replay(
                &node,
                &trace(),
                strat,
                ReplayOptions { phases: &healthy, ..Default::default() },
            )
            .makespan;
            assert_eq!(phased.to_bits(), plain.to_bits(), "{}", strat.label());
        }
    }

    #[test]
    fn work_steal_heals_midrun_straggler() {
        // Acceptance: a GPU that degrades 4x after the warm-up froze its
        // weight strands its seeded share; the runtime's steals must beat
        // the frozen Percent split by >= 1.3x on makespan.
        let node = hertz();
        let phases = [(WarmupConfig::default().iterations + 2, vec![1.0, 4.0])];
        let run = |strategy| {
            replay(
                &node,
                &big_trace(),
                strategy,
                ReplayOptions { phases: &phases, ..Default::default() },
            )
            .makespan
        };
        let t_frozen = run(Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() });
        let t_steal = run(worksteal());
        let gain = t_frozen / t_steal;
        assert!(gain >= 1.3, "steal gain only {gain}: {t_steal} vs frozen {t_frozen}");
    }

    #[test]
    fn faulty_work_steal_emits_job_migrations() {
        let node = hertz();
        let events = Trace::new();
        let phases = [(WarmupConfig::default().iterations, vec![1.0, 4.0])];
        replay(
            &node,
            &big_trace(),
            worksteal(),
            ReplayOptions { phases: &phases, events: events.clone(), ..Default::default() },
        );
        let data = events.snapshot();
        let migrations =
            data.events().filter(|s| matches!(s.event, Event::JobMigrated { .. })).count();
        assert!(migrations > 0, "straggler replay must record steals");
    }

    #[test]
    fn faulty_replay_straggler_slower_than_healthy() {
        let node = hertz();
        let healthy =
            schedule_trace(&node.0, &node.1, &trace(), PAIRS, Strategy::HomogeneousSplit).makespan;
        let phases = [(0, vec![1.0, 3.0])];
        let degraded = replay(
            &node,
            &trace(),
            Strategy::HomogeneousSplit,
            ReplayOptions { phases: &phases, ..Default::default() },
        )
        .makespan;
        assert!(degraded > healthy * 2.0, "3x straggler must dominate: {degraded} vs {healthy}");
    }

    fn oracle() -> Strategy {
        Strategy::Oracle { warmup: WarmupConfig::default(), divisor: 2 }
    }

    #[test]
    fn oracle_replay_healthy_competitive_with_worksteal() {
        let (cpu, gpus) = hertz();
        let t_ws = schedule_trace(&cpu, &gpus, &trace(), PAIRS, worksteal()).makespan;
        let r = schedule_trace(&cpu, &gpus, &trace(), PAIRS, oracle());
        assert_eq!(r.strategy_label, "Learned oracle");
        let ratio = r.makespan / t_ws;
        assert!((0.9..=1.05).contains(&ratio), "healthy oracle {} vs worksteal {t_ws}", r.makespan);
        let s = r.shares.unwrap();
        assert!(s[0] > s[1], "fitted seed must favor the K40c: {s:?}");
    }

    #[test]
    fn oracle_replay_is_deterministic() {
        let (cpu, gpus) = hertz();
        let a = schedule_trace(&cpu, &gpus, &big_trace(), PAIRS, oracle()).makespan;
        let b = schedule_trace(&cpu, &gpus, &big_trace(), PAIRS, oracle()).makespan;
        assert_eq!(a.to_bits(), b.to_bits(), "oracle replay must be bit-identical per input");
    }

    /// The `sched_snapshot` drift scenario: 4x slowdown after the warm-up,
    /// recovery 8 batches later.
    fn drift_phases() -> [(usize, Vec<f64>); 2] {
        let onset = WarmupConfig::default().iterations + 2;
        [(onset, vec![1.0, 4.0]), (onset + 8, vec![1.0, 1.0])]
    }

    #[test]
    fn drift_scenario_oracle_beats_frozen_percent() {
        // A device slows 4x mid-run, then recovers: the frozen Percent
        // split pays the straggler twice (too much work while slow, too
        // little after recovery); the oracle re-fits within a few batches
        // on both transitions.
        let node = hertz();
        let phases = drift_phases();
        let run = |strategy| {
            replay(
                &node,
                &big_trace(),
                strategy,
                ReplayOptions { phases: &phases, ..Default::default() },
            )
            .makespan
        };
        let t_frozen = run(Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() });
        let t_oracle = run(oracle());
        assert!(
            t_oracle < t_frozen,
            "oracle {t_oracle} must strictly beat frozen Percent {t_frozen} under drift"
        );
    }

    #[test]
    fn drift_scenario_oracle_steals_less_than_worksteal() {
        // Pure work stealing heals drift by migrating chunks every batch;
        // the oracle re-prices the seed so most of that traffic vanishes.
        let node = hertz();
        let phases = drift_phases();
        let count_migrations = |strategy: Strategy| {
            let events = Trace::new();
            let t = replay(
                &node,
                &big_trace(),
                strategy,
                ReplayOptions { phases: &phases, events: events.clone(), ..Default::default() },
            )
            .makespan;
            let steals = events
                .snapshot()
                .events()
                .filter(|s| matches!(s.event, Event::JobMigrated { .. }))
                .count();
            (t, steals)
        };
        let (t_ws, steals_ws) = count_migrations(worksteal());
        let (t_or, steals_or) = count_migrations(oracle());
        assert!(steals_ws > 0, "drift must force the frozen-seed drain to steal");
        assert!(
            steals_or < steals_ws,
            "oracle re-seeding must reduce steal traffic: {steals_or} vs {steals_ws}"
        );
        assert!(
            t_or <= t_ws * 1.02,
            "oracle {t_or} must not lose to pure stealing {t_ws} under drift"
        );
    }

    #[test]
    fn warm_oracle_skips_warmup_and_stays_deterministic() {
        // Cross-campaign warm start: a second replay reusing the fitted
        // oracle skips the equal-split warm-up entirely and seeds from the
        // fits at batch 0 — and re-running from a cloned oracle is
        // bit-identical (fits consume only virtual-time measurements).
        let node = hertz();
        let mut shared = CostOracle::new(node.1.len());
        let run = |o: &mut CostOracle| {
            replay(
                &node,
                &trace(),
                oracle(),
                ReplayOptions { oracle: Some(o), ..Default::default() },
            )
            .makespan
        };
        let cold = run(&mut shared);
        assert!(shared.is_warm(KernelClass::PairSweep));
        let warm1 = run(&mut shared.clone());
        let warm2 = run(&mut shared.clone());
        assert_eq!(warm1.to_bits(), warm2.to_bits(), "warm replays must be bit-identical");
        assert!(
            warm1 < cold,
            "warm start must skip the equal-split warm-up cost: {warm1} vs {cold}"
        );
    }

    #[test]
    fn zero_warmup_iterations_time_one_batch() {
        // Edge rule: `iterations: 0` is one timed batch, not "never leave
        // the equal split" — so it is exactly `iterations: 1`.
        let node = hertz();
        for with in [
            |warmup| Strategy::HeterogeneousSplit { warmup },
            |warmup| Strategy::WorkSteal { warmup, divisor: 2 },
            |warmup| Strategy::Oracle { warmup, divisor: 2 },
        ] {
            let run = |iterations| {
                let warmup = WarmupConfig { iterations, ..Default::default() };
                schedule_trace(&node.0, &node.1, &trace(), PAIRS, with(warmup))
            };
            let (zero, one) = (run(0), run(1));
            assert_eq!(zero.makespan.to_bits(), one.makespan.to_bits(), "{}", zero.strategy_label);
            let hom = schedule_trace(&node.0, &node.1, &trace(), PAIRS, Strategy::HomogeneousSplit);
            assert!(
                zero.makespan < hom.makespan,
                "{}: stuck on the equal split",
                zero.strategy_label
            );
        }
    }

    #[test]
    fn trace_shorter_than_warmup_reports_measured_shares() {
        // Edge rule: a run that ends inside the warm-up ran every batch
        // under the equal split, but reports Equation 1 over what the
        // warm-up had measured when the trace ended.
        let node = hertz();
        let short = [2048u64; 3];
        let hom = schedule_trace(&node.0, &node.1, &short, PAIRS, Strategy::HomogeneousSplit);
        for strat in [Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() }, worksteal()]
        {
            let r = schedule_trace(&node.0, &node.1, &short, PAIRS, strat);
            assert_eq!(r.makespan.to_bits(), hom.makespan.to_bits(), "{}", r.strategy_label);
            let want = crate::warmup::shares_from_times(&r.device_times);
            let total: f64 = want.iter().sum();
            let want: Vec<f64> = want.iter().map(|w| w / total).collect();
            assert_eq!(r.shares, Some(want), "{}", r.strategy_label);
        }
    }
}
