//! The real-compute batch evaluator (DESIGN.md §10). A submission has two
//! halves, and [`DeviceEvaluator`] adds nothing to either.
//!
//! - The *virtual half* is [`BatchEvaluator::charge`]: the release time,
//!   then [`Policy::plan`] — the paper's warm-up and Equation 1, greedy
//!   chunks, the work-stealing drain, the oracle feedback, the device
//!   clocks and the scheduling trace events, the same step the analytic
//!   replay runs — and a check that the plan's claims tile the batch. It
//!   depends on the order of submissions and runs on the submitting thread.
//! - The *host half* is the scorer itself, lent as a
//!   [`metaheur::HostScorer`]: a pure function of the pose, so the engine
//!   scores each spot's share of a submission on whichever thread of
//!   `vsscore`'s shared pool claims that spot, beside its selection and
//!   variation.
//!
//! [`BatchEvaluator::evaluate`] is the two in a row: a charge, then one
//! [`Exec::Pool`] job over the batch on `min(devices, host threads)`
//! threads of the same pool — the one host worker team in the workspace,
//! which [`metaheur::CpuEvaluator`] and the grid build use too. The
//! evaluator owns no threads.
//!
//! # Determinism
//!
//! Every conformation is scored alone by the same serial kernel as
//! [`vsscore::Scorer::score_batch`], so scores are bit-identical to the
//! serial CPU path for every strategy — including work stealing, where
//! chunk migration changes *which device is charged*, never the numeric
//! result — for whichever kernel the scorer is configured with (DESIGN §7
//! per-kernel bit-identity). Which host thread scores a conformation has
//! nothing to do with which device was charged for it.

use crate::oracle::CostOracle;
use crate::policy::Policy;
use crate::runtime::{makespan, release_until, work_profile, Claim, StealStats};
use crate::strategy::Strategy;
use gpusim::{SimDevice, Timeline, WorkProfile};
use metaheur::{BatchEvaluator, HostScorer};
use std::sync::Arc;
use vsmol::Conformation;
use vsscore::{Exec, PoseScratch, ScoreBatch, Scorer};
use vstrace::{Trace, BATCH_TRACK};

/// A [`BatchEvaluator`] that executes scoring on a set of simulated devices.
///
/// Each submission is planned under the strategy — the first `warmup`
/// batches of the heterogeneous strategies run under the equal split while
/// being timed, their cost landing on the device clocks as in the paper —
/// and scored on the shared host pool, by `evaluate` itself or by the
/// engine through [`BatchEvaluator::host_scorer`]. Construction spawns
/// nothing: the pool's team outlives every evaluator.
pub struct DeviceEvaluator {
    devices: Vec<Arc<SimDevice>>,
    scorer: Arc<Scorer>,
    timeline: Option<Arc<Timeline>>,
    trace: Trace,
    policy: Policy,
    profile: WorkProfile,
    /// Host threads `evaluate` scores a batch on, the calling thread
    /// included: `min(devices, host threads)`, or `min(cores, host
    /// threads)` for the CPU-only baseline's one lane.
    threads: usize,
    /// The calling thread's: it scores chunks of every batch `evaluate`
    /// submits, as one of the `threads`.
    scratch: PoseScratch,
}

impl DeviceEvaluator {
    /// Build an evaluator over `devices` using `strategy` to assign work.
    /// [`Strategy::CpuOnly`] — the paper's OpenMP baseline — takes exactly
    /// one device, the host CPU, and scores each batch on as many host
    /// threads as that CPU has cores (at most the host's).
    ///
    /// # Panics
    /// Panics if `devices` is empty, or if the strategy is
    /// [`Strategy::CpuOnly`] and `devices` is not one CPU.
    pub fn new(
        devices: Vec<Arc<SimDevice>>,
        scorer: Arc<Scorer>,
        strategy: Strategy,
    ) -> DeviceEvaluator {
        let policy = Policy::new(strategy, devices.len());
        let lanes = if policy.cpu_only() {
            assert!(
                devices.len() == 1 && !devices[0].spec().is_gpu(),
                "the CPU-only baseline runs on one device, the host CPU: got {:?}",
                devices.iter().map(|d| d.name()).collect::<Vec<_>>()
            );
            devices[0].spec().lanes() as usize
        } else {
            devices.len()
        };
        DeviceEvaluator {
            threads: lanes.min(vsscore::host_threads()),
            profile: work_profile(&scorer),
            devices,
            scorer,
            timeline: None,
            trace: Trace::disabled(),
            policy,
            scratch: PoseScratch::new(),
        }
    }

    /// Record every device execution into `timeline` (Gantt introspection
    /// of the real-compute path).
    pub fn with_timeline(mut self, timeline: Arc<Timeline>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Emit structured `vstrace` events (`DeviceBusy`, `BatchScored`,
    /// `WarmupSample`, `PartitionDecision`, `JobMigrated`) for every batch
    /// from here on. Device track names are registered from the catalog
    /// names.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        trace.set_track_name(BATCH_TRACK, "batches");
        for dev in &self.devices {
            trace.set_track_name(dev.id() as u32, dev.name());
        }
        self.trace = trace;
        self
    }

    pub fn devices(&self) -> &[Arc<SimDevice>] {
        &self.devices
    }

    /// The overall virtual execution time so far (slowest device).
    pub fn makespan(&self) -> f64 {
        makespan(&self.devices)
    }

    /// Static or deque-seed weights in use (empty while warming up or
    /// under the self-scheduling strategies).
    pub fn weights(&self) -> &[f64] {
        self.policy.weights()
    }

    /// Cumulative work-stealing statistics (all zeros unless the strategy
    /// is [`Strategy::WorkSteal`] or [`Strategy::Oracle`]).
    pub fn steal_stats(&self) -> StealStats {
        self.policy.steal_stats()
    }

    /// The learned cost oracle, once [`Strategy::Oracle`] finished its
    /// warm-up (`None` before that or under any other strategy).
    pub fn oracle(&self) -> Option<&CostOracle> {
        self.policy.oracle()
    }

    /// The host half of `evaluate`: one [`Exec::Pool`] job over the batch
    /// on `threads` threads of `vsscore`'s shared team, the calling thread
    /// claiming chunks beside the workers. A panic while scoring is
    /// re-raised here by the pool, which stays usable.
    fn score(&mut self, confs: &mut [Conformation]) {
        let batch = ScoreBatch::Confs(confs);
        self.scorer.score_batch(batch, &mut self.scratch, Exec::Pool(self.threads));
    }
}

/// Panic unless `claims` are disjoint ranges inside a batch of `items`,
/// each for one of a node's `devices`, and — in debug builds — cover all of
/// it: what [`Policy::plan`] promises, so that every conformation is
/// charged once.
///
/// # Panics
/// Panics if a claim overlaps another, reaches past the batch, or names a
/// device `>= devices`.
fn check_claims(claims: &[Claim], items: usize, devices: usize) {
    let mut ranges: Vec<(u32, u32)> = claims.iter().map(|c| (c.lo, c.hi)).collect();
    ranges.sort_unstable();
    let mut end = 0u32;
    for &(lo, hi) in &ranges {
        assert!(end <= lo && lo <= hi, "claims must be disjoint ranges: {claims:?}");
        end = hi;
    }
    assert!(end as usize <= items, "claims reach past the batch: {claims:?}");
    assert!(
        claims.iter().all(|c| c.device < devices),
        "claim for a device the node does not have ({devices} devices): {claims:?}"
    );
    debug_assert_eq!(
        claims.iter().map(Claim::items).sum::<u64>(),
        items as u64,
        "a plan's claims must tile the batch: {claims:?}"
    );
}

impl BatchEvaluator for DeviceEvaluator {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        self.charge(confs.len(), None);
        self.score(confs);
    }

    fn pairs_per_eval(&self) -> u64 {
        self.scorer.pairs_per_eval()
    }

    /// Streamed-batch entry point for the pipelined engine: the batch was
    /// released by the host at virtual time `release`, so every device
    /// first idles forward to that instant (visible as `DeviceIdle` spans
    /// — the metric `scripts/ci.sh`'s `pin BENCH_pipeline.json
    /// pipeline_snapshot` step gates on), then scores exactly as
    /// [`Self::evaluate`] would. Returns the node makespan, i.e. when the
    /// batch's scores are available to the selector stage.
    fn evaluate_after(&mut self, confs: &mut [Conformation], release: f64) -> f64 {
        let done = self.charge(confs.len(), Some(release));
        self.score(confs);
        done
    }

    /// The virtual half of `evaluate` (`release` `None`) or
    /// `evaluate_after`: idle every device forward to `release`, plan the
    /// `items` under the strategy — charging each claim to its device —
    /// and check the claims. Returns the node makespan.
    fn charge(&mut self, items: usize, release: Option<f64>) -> f64 {
        if let Some(vt) = release {
            release_until(&self.devices, &self.trace, vt);
        }
        if items > 0 {
            let claims = self.policy.plan(
                &self.devices,
                items as u64,
                self.profile,
                None,
                self.timeline.as_deref(),
                &self.trace,
            );
            check_claims(claims, items, self.devices.len());
        }
        self.makespan()
    }

    fn host_scorer(&self) -> Option<&dyn HostScorer> {
        Some(&*self.scorer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warmup::WarmupConfig;
    use gpusim::catalog;
    use metaheur::CpuEvaluator;
    use vsmath::{RigidTransform, RngStream};
    use vsmol::synth;
    use vsscore::{Exec, ScoreBatch};
    use vstrace::Event;

    fn scorer() -> Arc<Scorer> {
        let rec = synth::synth_receptor("r", 400, 1);
        let lig = synth::synth_ligand("l", 12, 2);
        Arc::new(Scorer::new(&rec, &lig, Default::default()))
    }

    fn hertz_devices() -> Vec<Arc<SimDevice>> {
        vec![
            Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
        ]
    }

    fn confs(n: usize, seed: u64) -> Vec<Conformation> {
        let mut rng = RngStream::from_seed(seed);
        (0..n)
            .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(25.0)), 0))
            .collect()
    }

    #[test]
    fn scores_match_cpu_evaluator() {
        let sc = scorer();
        let mut dev_eval =
            DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
        let mut cpu_eval = CpuEvaluator::new((*sc).clone(), Exec::Serial);
        let mut a = confs(50, 3);
        let mut b = a.clone();
        dev_eval.evaluate(&mut a);
        cpu_eval.evaluate(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score, y.score, "device path must compute identical scores");
        }
    }

    #[test]
    fn all_backends_agree_bitwise() {
        // Serial, pooled and device-scheduled scoring give the same bits.
        let sc = scorer();
        let mut backends: Vec<Box<dyn BatchEvaluator>> = vec![
            Box::new(CpuEvaluator::new((*sc).clone(), Exec::Serial)),
            Box::new(CpuEvaluator::new((*sc).clone(), Exec::Pool(3))),
            Box::new(DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit)),
        ];
        let mut reference: Option<Vec<u64>> = None;
        for (i, ev) in backends.iter_mut().enumerate() {
            assert_eq!(ev.pairs_per_eval(), sc.pairs_per_eval(), "backend {i}");
            let mut c = confs(37, 5);
            ev.evaluate(&mut c);
            let bits: Vec<u64> = c.iter().map(|x| x.score.to_bits()).collect();
            match &reference {
                Some(want) => assert_eq!(want, &bits, "backend {i} diverged"),
                None => reference = Some(bits),
            }
        }
    }

    #[test]
    fn repeated_evaluates_stay_bit_identical() {
        // Many evaluate calls on the same evaluator, every one
        // bit-identical to the serial path.
        let sc = scorer();
        let mut dev_eval =
            DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
        for seed in 0..6 {
            let mut a = confs(10 + 7 * seed as usize, seed);
            let mut b = a.clone();
            dev_eval.evaluate(&mut a);
            let mut scratch = vsscore::PoseScratch::new();
            sc.score_batch(ScoreBatch::Confs(&mut b), &mut scratch, Exec::Serial);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn device_path_bit_identical_for_every_kernel() {
        // DESIGN §7: for a fixed kernel, the device path must reproduce
        // the serial path bitwise — including the run-layout kernel.
        use vsscore::scorer::{Kernel, ScorerOptions, ScoringModel};
        let rec = synth::synth_receptor("r", 400, 1);
        let lig = synth::synth_ligand("l", 12, 2);
        let model = ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 };
        for kernel in [
            Kernel::Naive,
            Kernel::Fused,
            Kernel::CellList { cutoff: 16.0 },
            Kernel::Grid { spacing: 0.6 },
        ] {
            let sc = Arc::new(Scorer::new(&rec, &lig, ScorerOptions { model, kernel }));
            let mut ev =
                DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
            let mut a = confs(31, 17);
            let mut serial = a.clone();
            let mut scratch = vsscore::PoseScratch::new();
            sc.score_batch(ScoreBatch::Confs(&mut serial), &mut scratch, Exec::Serial);
            ev.evaluate(&mut a);
            for (c, s) in a.iter().zip(&serial) {
                assert_eq!(c.score.to_bits(), s.score.to_bits(), "kernel {kernel:?}");
            }
        }
    }

    #[test]
    fn single_conformation_batch() {
        let sc = scorer();
        let mut ev = DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
        let mut c = confs(1, 42);
        let want = sc.score(&c[0].pose);
        ev.evaluate(&mut c);
        assert_eq!(c[0].score.to_bits(), want.to_bits());
    }

    #[test]
    fn drop_joins_workers() {
        // Nothing of the evaluator may outlive it. The pool's workers see
        // the scorer only while a batch is being scored, so once drop
        // returns the caller's handles are the only ones left.
        let devs = hertz_devices();
        let sc = scorer();
        {
            let mut ev = DeviceEvaluator::new(devs.clone(), sc.clone(), Strategy::HomogeneousSplit);
            let mut c = confs(16, 13);
            ev.evaluate(&mut c);
            // Alive: our handle + the evaluator's.
            assert_eq!(Arc::strong_count(&devs[0]), 2);
            assert_eq!(Arc::strong_count(&sc), 2);
        }
        assert_eq!(Arc::strong_count(&devs[0]), 1, "drop must release the evaluator's devices");
        assert_eq!(Arc::strong_count(&devs[1]), 1);
        assert_eq!(Arc::strong_count(&sc), 1, "no worker may keep the scorer");
    }

    #[test]
    fn building_evaluators_spawns_no_threads() {
        // A library screen builds one evaluator per ligand: all of them
        // must score on the one shared team, which construction, use and
        // drop leave as it was.
        let sc = scorer();
        let threads = 2.min(vsscore::host_threads());
        let team = vsscore::shared_pool(threads);
        for seed in 0..32 {
            let mut ev =
                DeviceEvaluator::new(hertz_devices(), sc.clone(), Strategy::HomogeneousSplit);
            assert_eq!(ev.threads, threads);
            let mut c = confs(8, seed);
            ev.evaluate(&mut c);
            assert!(c.iter().all(|x| x.is_scored()));
        }
        assert!(Arc::ptr_eq(&team, &vsscore::shared_pool(threads)));
        assert_eq!(team.threads(), threads);
    }

    #[test]
    fn clocks_advance_per_batch() {
        let devs = hertz_devices();
        let mut ev = DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HomogeneousSplit);
        let mut c = confs(64, 4);
        ev.evaluate(&mut c);
        assert!(devs[0].clock() > 0.0);
        assert!(devs[1].clock() > 0.0);
        assert_eq!(ev.makespan(), devs[0].clock().max(devs[1].clock()));
    }

    #[test]
    fn heterogeneous_strategy_warms_up_then_favors_k40() {
        let devs = hertz_devices();
        let warmup = WarmupConfig { iterations: 3, ..Default::default() };
        let mut ev =
            DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HeterogeneousSplit { warmup });
        // During warm-up: no static weights yet, equal split in force.
        assert!(ev.weights().is_empty());
        for i in 0..3 {
            let mut c = confs(1000, 5 + i);
            ev.evaluate(&mut c);
        }
        // Warm-up complete: Equation 1 weights favor the K40c.
        let w = ev.weights().to_vec();
        assert_eq!(w.len(), 2);
        assert!(w[0] > w[1], "K40c share must dominate: {w:?}");

        let before = (devs[0].stats().items, devs[1].stats().items);
        let mut c = confs(1000, 9);
        ev.evaluate(&mut c);
        let d0 = devs[0].stats().items - before.0;
        let d1 = devs[1].stats().items - before.1;
        assert!(d0 > d1, "post-warm-up batch split {d0}/{d1}");
    }

    #[test]
    fn work_steal_warms_up_then_seeds_deques() {
        let devs = hertz_devices();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        let mut ev = DeviceEvaluator::new(
            devs.clone(),
            scorer(),
            Strategy::WorkSteal { warmup, divisor: 2 },
        );
        assert!(ev.weights().is_empty(), "no weights during warm-up");
        for i in 0..2 {
            let mut c = confs(500, 40 + i);
            ev.evaluate(&mut c);
        }
        let w = ev.weights().to_vec();
        assert_eq!(w.len(), 2);
        assert!(w[0] > w[1], "Equation 1 must favor the K40c: {w:?}");

        // Healthy post-warm-up batch: claims follow the seeded shares.
        let before = (devs[0].stats().items, devs[1].stats().items);
        let mut c = confs(1000, 44);
        ev.evaluate(&mut c);
        let d0 = devs[0].stats().items - before.0;
        let d1 = devs[1].stats().items - before.1;
        assert_eq!(d0 + d1, 1000);
        assert!(d0 > d1, "seeded deques must favor the faster device: {d0}/{d1}");
    }

    #[test]
    fn work_steal_absorbs_midrun_straggler() {
        // Degrade the GTX 580 8x *after* warm-up froze the weights: the
        // stale seed strands work on the straggler, and the K40c must
        // steal it (observable in the evaluator's steal statistics).
        let devs = hertz_devices();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        let mut ev = DeviceEvaluator::new(
            devs.clone(),
            scorer(),
            Strategy::WorkSteal { warmup, divisor: 2 },
        );
        for i in 0..2 {
            let mut c = confs(400, 50 + i);
            ev.evaluate(&mut c);
        }
        assert_eq!(ev.steal_stats().chunks, 0, "warm-up batches run as equal splits");
        devs[1].set_slowdown(8.0);
        // Large batch so the deques hold many occupancy-floor chunks.
        let mut c = confs(12_000, 52);
        let mut serial = c.clone();
        ev.evaluate(&mut c);
        let stats = ev.steal_stats();
        assert!(stats.steals > 0, "straggler work must migrate: {stats:?}");
        // Scores still bit-identical to serial despite migration.
        let sc = scorer();
        let mut scratch = vsscore::PoseScratch::new();
        sc.score_batch(ScoreBatch::Confs(&mut serial), &mut scratch, Exec::Serial);
        for (x, y) in c.iter().zip(&serial) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn oracle_warms_up_then_tracks_drift() {
        // The oracle seeds from the warm-up prior, then re-prices a device
        // that slows 6x mid-run: the fits drift-reset and subsequent seeds
        // shrink the straggler's share instead of relying on steals.
        let devs = hertz_devices();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        let mut ev =
            DeviceEvaluator::new(devs.clone(), scorer(), Strategy::Oracle { warmup, divisor: 2 });
        assert!(ev.oracle().is_none(), "no oracle during warm-up");
        for i in 0..2 {
            let mut c = confs(500, 60 + i);
            ev.evaluate(&mut c);
        }
        let o = ev.oracle().expect("warm-up must hand off to the oracle");
        assert!(o.is_warm(gpusim::KernelClass::PairSweep), "prior must be installed");

        // Healthy batches: fits form, K40c keeps the larger share.
        let before = (devs[0].stats().items, devs[1].stats().items);
        let mut c = confs(1000, 62);
        ev.evaluate(&mut c);
        let d0 = devs[0].stats().items - before.0;
        let d1 = devs[1].stats().items - before.1;
        assert!(d0 > d1, "oracle seed must favor the faster device: {d0}/{d1}");

        // Slow the GTX 580 6x; a few batches later the *seed itself*
        // reflects the new regime (share ratio widens well past warm-up's).
        devs[1].set_slowdown(6.0);
        for i in 0..3 {
            let mut c = confs(2000, 63 + i);
            ev.evaluate(&mut c);
        }
        let before = (devs[0].stats().items, devs[1].stats().items);
        let mut c = confs(2000, 70);
        ev.evaluate(&mut c);
        let d0 = (devs[0].stats().items - before.0) as f64;
        let d1 = (devs[1].stats().items - before.1) as f64;
        let o = ev.oracle().unwrap();
        assert!(o.fits().iter().any(|(_, f)| f.refits > 0), "6x drift must refit");
        assert!(d0 / d1.max(1.0) > 4.0, "post-drift seed must starve the straggler: {d0}/{d1}");
        // Scores stay bit-identical to serial throughout.
        let sc = scorer();
        let mut serial = c.clone();
        let mut scratch = vsscore::PoseScratch::new();
        sc.score_batch(ScoreBatch::Confs(&mut serial), &mut scratch, Exec::Serial);
        for (x, y) in c.iter().zip(&serial) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn oracle_emits_model_updates_and_reseed_counter() {
        let devs = hertz_devices();
        let trace = Trace::new();
        let warmup = WarmupConfig { iterations: 1, ..Default::default() };
        let mut ev = DeviceEvaluator::new(devs, scorer(), Strategy::Oracle { warmup, divisor: 2 })
            .with_trace(trace.clone());
        for i in 0..3 {
            let mut c = confs(400, 80 + i);
            ev.evaluate(&mut c);
        }
        let data = trace.snapshot();
        let kinds: Vec<&str> = data.events().map(|s| s.event.kind()).collect();
        assert!(kinds.contains(&"ModelUpdated"), "{kinds:?}");
        assert!(kinds.contains(&"WarmupSample"), "{kinds:?}");
        let reseeds = data
            .events()
            .filter_map(|s| match s.event {
                Event::Counter { name: "oracle_reseed", value } => Some(value),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        assert!(reseeds >= 2.0, "each post-warm-up batch re-seeds: {reseeds}");
    }

    #[test]
    fn full_metaheuristic_run_through_oracle() {
        let sc = scorer();
        let spots = vec![vsmol::Spot {
            id: 0,
            center: vsmath::Vec3::new(18.0, 0.0, 0.0),
            normal: vsmath::Vec3::X,
            radius: 4.0,
            anchor_atom: 0,
        }];
        let devs = hertz_devices();
        let mut ev = DeviceEvaluator::new(
            devs.clone(),
            sc,
            Strategy::Oracle { warmup: WarmupConfig::default(), divisor: 2 },
        );
        let params = metaheur::m3(0.5);
        let r = metaheur::run(&params, &spots, &mut ev, 11);
        assert!(r.best.is_scored());
        assert_eq!(r.evaluations, params.evals_per_spot());
        assert!(ev.oracle().is_some());
    }

    #[test]
    fn dynamic_strategy_balances_clocks() {
        let devs = hertz_devices();
        let mut ev =
            DeviceEvaluator::new(devs.clone(), scorer(), Strategy::DynamicQueue { chunk: 16 });
        let mut c = confs(512, 6);
        ev.evaluate(&mut c);
        let (t0, t1) = (devs[0].clock(), devs[1].clock());
        let imbalance = (t0 - t1).abs() / t0.max(t1);
        assert!(imbalance < 0.35, "dynamic imbalance {imbalance}: {t0} vs {t1}");
    }

    #[test]
    fn dynamic_queue_honors_chunk_parameter() {
        // A chunk at least as large as the batch is grabbed whole by the
        // first idle device; a chunk of 1 spreads work across both. The
        // old implementation ignored `chunk` entirely, so both cases split
        // identically — this pins the fix.
        let coarse_devs = hertz_devices();
        let mut coarse = DeviceEvaluator::new(
            coarse_devs.clone(),
            scorer(),
            Strategy::DynamicQueue { chunk: 10_000 },
        );
        let mut c = confs(128, 21);
        coarse.evaluate(&mut c);
        let coarse_split = (coarse_devs[0].stats().items, coarse_devs[1].stats().items);
        assert_eq!(coarse_split.0 + coarse_split.1, 128, "all items must be scheduled");
        assert!(
            coarse_split.0 == 128 || coarse_split.1 == 128,
            "oversized chunk must land on a single device: {coarse_split:?}"
        );

        let fine_devs = hertz_devices();
        let mut fine =
            DeviceEvaluator::new(fine_devs.clone(), scorer(), Strategy::DynamicQueue { chunk: 1 });
        let mut c = confs(128, 21);
        fine.evaluate(&mut c);
        let fine_split = (fine_devs[0].stats().items, fine_devs[1].stats().items);
        assert!(
            fine_split.0 > 0 && fine_split.1 > 0,
            "chunk=1 must use both devices: {fine_split:?}"
        );
        assert_ne!(coarse_split, fine_split, "chunk parameter must change the split");
    }

    #[test]
    fn guided_queue_honors_divisor_parameter() {
        // GuidedQueue grabs remaining/(divisor*n) per step: a huge divisor
        // degenerates to chunk=1 (both devices busy); divisor=1 starts
        // with half the batch in one grab.
        let eager_devs = hertz_devices();
        let mut eager = DeviceEvaluator::new(
            eager_devs.clone(),
            scorer(),
            Strategy::GuidedQueue { divisor: 1 },
        );
        let mut c = confs(128, 22);
        eager.evaluate(&mut c);
        let eager_split = (eager_devs[0].stats().items, eager_devs[1].stats().items);

        let fine_devs = hertz_devices();
        let mut fine = DeviceEvaluator::new(
            fine_devs.clone(),
            scorer(),
            Strategy::GuidedQueue { divisor: 1_000 },
        );
        let mut c = confs(128, 22);
        fine.evaluate(&mut c);
        let fine_split = (fine_devs[0].stats().items, fine_devs[1].stats().items);
        assert!(fine_split.0 > 0 && fine_split.1 > 0, "fine split {fine_split:?}");
        assert_ne!(eager_split, fine_split, "divisor must change the split");
    }

    #[test]
    fn empty_batch_is_noop() {
        let devs = hertz_devices();
        let mut ev = DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HomogeneousSplit);
        ev.evaluate(&mut []);
        assert_eq!(devs[0].clock(), 0.0);
    }

    #[test]
    fn single_device_gets_everything() {
        let devs = vec![Arc::new(SimDevice::new(0, catalog::geforce_gtx_590()))];
        let mut ev = DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HomogeneousSplit);
        let mut c = confs(33, 7);
        ev.evaluate(&mut c);
        assert_eq!(devs[0].stats().items, 33);
        assert!(c.iter().all(|x| x.is_scored()));
    }

    #[test]
    fn timeline_records_real_compute_path() {
        let devs = hertz_devices();
        let tl = Arc::new(gpusim::Timeline::new());
        let mut ev = DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HomogeneousSplit)
            .with_timeline(tl.clone());
        let mut c = confs(40, 8);
        ev.evaluate(&mut c);
        ev.evaluate(&mut c);
        assert_eq!(tl.segments().len(), 4, "2 batches x 2 devices");
        assert!((tl.makespan() - ev.makespan()).abs() < 1e-15);
        let recorded: u64 = tl.segments().iter().map(|s| s.items).sum();
        assert_eq!(recorded, 80);
    }

    #[test]
    fn traced_executor_emits_structured_events() {
        let devs = hertz_devices();
        let trace = Trace::new();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        let mut ev =
            DeviceEvaluator::new(devs.clone(), scorer(), Strategy::HeterogeneousSplit { warmup })
                .with_trace(trace.clone());
        for i in 0..3 {
            let mut c = confs(200, 30 + i);
            ev.evaluate(&mut c);
        }
        let data = trace.snapshot();
        let kinds: Vec<&str> = data.events().map(|s| s.event.kind()).collect();
        assert!(kinds.contains(&"DeviceBusy"), "{kinds:?}");
        assert!(kinds.contains(&"BatchScored"), "{kinds:?}");
        assert!(kinds.contains(&"WarmupSample"), "{kinds:?}");
        assert!(kinds.contains(&"PartitionDecision"), "{kinds:?}");
        // Per-device traced busy totals must match the device clocks: every
        // execution was recorded.
        for d in &devs {
            let traced = data.device_busy_s(d.id() as u32);
            assert!(
                (traced - d.clock()).abs() < 1e-12,
                "device {} traced {traced} vs clock {}",
                d.id(),
                d.clock()
            );
        }
        // Track names registered from the catalog.
        assert_eq!(data.track_names.get(&0).map(String::as_str), Some("Tesla K40c"));
    }

    #[test]
    fn untraced_executor_emits_nothing() {
        let trace = Trace::disabled();
        let mut ev = DeviceEvaluator::new(hertz_devices(), scorer(), Strategy::HomogeneousSplit)
            .with_trace(trace.clone());
        let mut c = confs(32, 9);
        ev.evaluate(&mut c);
        assert!(trace.snapshot().is_empty(), "disabled sink must record zero events");
        assert!(c.iter().all(|x| x.is_scored()));
    }

    #[test]
    fn cpu_only_scores_like_serial_with_one_launch_per_batch() {
        // The OpenMP baseline is a one-lane plan over the host CPU: every
        // batch is one claim, charged to the CPU as one launch.
        let sc = scorer();
        let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
        let mut ev = DeviceEvaluator::new(vec![cpu.clone()], sc.clone(), Strategy::CpuOnly);
        assert_eq!(ev.threads, 4.min(vsscore::host_threads()), "one host thread per core");
        let mut serial = CpuEvaluator::new((*sc).clone(), Exec::Serial);
        for (batch, n) in [37, 1, 64].into_iter().enumerate() {
            let mut a = confs(n, 90 + batch as u64);
            let mut b = a.clone();
            ev.evaluate(&mut a);
            serial.evaluate(&mut b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "batch {batch}");
            }
            assert_eq!(cpu.stats().batches, batch as u64 + 1);
        }
        assert_eq!(cpu.stats().items, 37 + 1 + 64);
        assert_eq!(ev.makespan(), cpu.clock());
    }

    #[test]
    #[should_panic(expected = "one device, the host CPU")]
    fn cpu_only_over_two_devices_rejected() {
        let devices = vec![
            Arc::new(SimDevice::new(0, catalog::xeon_e3_1220())),
            Arc::new(SimDevice::new(1, catalog::tesla_k40c())),
        ];
        DeviceEvaluator::new(devices, scorer(), Strategy::CpuOnly);
    }

    #[test]
    #[should_panic]
    fn empty_device_list_rejected() {
        DeviceEvaluator::new(Vec::new(), scorer(), Strategy::HomogeneousSplit);
    }

    #[test]
    fn charge_then_host_scoring_equals_evaluate() {
        // Twin evaluators per strategy, one scored through `evaluate` /
        // `evaluate_after`, the other through `charge` and its host scorer:
        // same score bits, device clocks, steal statistics, Gantt segments
        // and trace payloads, warm-up, releases, empty and one-item batches
        // and a mid-run slowdown included.
        let sc = scorer();
        let warmup = WarmupConfig { iterations: 2, ..Default::default() };
        for (strategy, slows) in [
            (Strategy::CpuOnly, false),
            (Strategy::HomogeneousSplit, false),
            (Strategy::HeterogeneousSplit { warmup }, false),
            (Strategy::DynamicQueue { chunk: 64 }, false),
            (Strategy::GuidedQueue { divisor: 2 }, false),
            (Strategy::WorkSteal { warmup, divisor: 2 }, true),
            (Strategy::Oracle { warmup, divisor: 2 }, false),
        ] {
            let twin = || {
                let devices = match strategy {
                    Strategy::CpuOnly => vec![Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()))],
                    _ => hertz_devices(),
                };
                let (timeline, trace) = (Arc::new(Timeline::new()), Trace::new());
                let ev = DeviceEvaluator::new(devices.clone(), sc.clone(), strategy)
                    .with_timeline(timeline.clone())
                    .with_trace(trace.clone());
                (ev, devices, timeline, trace)
            };
            let (mut whole, whole_devs, whole_tl, whole_trace) = twin();
            let (mut split, split_devs, split_tl, split_trace) = twin();
            let mut scratch = PoseScratch::new();
            for (i, n) in [400, 400, 1, 0, 12_000, 777].into_iter().enumerate() {
                if slows && i == 4 {
                    whole_devs[1].set_slowdown(8.0);
                    split_devs[1].set_slowdown(8.0);
                }
                let mut a = confs(n, 200 + i as u64);
                let mut b = a.clone();
                if i % 2 == 1 {
                    let release = whole.makespan() + 1e-3;
                    let done = whole.evaluate_after(&mut a, release);
                    assert_eq!(done.to_bits(), split.charge(n, Some(release)).to_bits());
                } else {
                    whole.evaluate(&mut a);
                    split.charge(n, None);
                }
                split
                    .host_scorer()
                    .expect("the device evaluator splits")
                    .score_confs(&mut b, &mut scratch);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "{strategy:?} batch {i}");
                }
            }
            for (x, y) in whole_devs.iter().zip(&split_devs) {
                assert_eq!(x.clock().to_bits(), y.clock().to_bits(), "{strategy:?}");
                assert_eq!(x.stats().items, y.stats().items, "{strategy:?}");
            }
            assert_eq!(whole.steal_stats(), split.steal_stats(), "{strategy:?}");
            if slows {
                assert!(split.steal_stats().steals > 0, "the slowdown must cause steals");
            }
            assert_eq!(whole_tl.segments(), split_tl.segments(), "{strategy:?}");
            let payloads = whole_trace.snapshot().payloads();
            assert!(!payloads.is_empty());
            assert_eq!(payloads, split_trace.snapshot().payloads(), "{strategy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn charge_rejects_overlapping_claims() {
        let overlapping = [
            Claim { device: 0, lo: 0, hi: 5, stolen_from: None },
            Claim { device: 1, lo: 4, hi: 8, stolen_from: None },
        ];
        check_claims(&overlapping, 8, 2);
    }

    #[test]
    #[should_panic(expected = "reach past the batch")]
    fn charge_rejects_a_claim_past_the_batch() {
        check_claims(&[Claim { device: 0, lo: 4, hi: 9, stolen_from: None }], 8, 2);
    }

    #[test]
    #[should_panic(expected = "device the node does not have")]
    fn charge_rejects_a_claim_for_a_missing_device() {
        check_claims(&[Claim { device: 2, lo: 0, hi: 8, stolen_from: None }], 8, 2);
    }

    #[test]
    fn full_metaheuristic_run_through_devices() {
        // End-to-end: Algorithm 1 driving the heterogeneous executor.
        let sc = scorer();
        let spots = vec![vsmol::Spot {
            id: 0,
            center: vsmath::Vec3::new(18.0, 0.0, 0.0),
            normal: vsmath::Vec3::X,
            radius: 4.0,
            anchor_atom: 0,
        }];
        let devs = hertz_devices();
        let mut ev = DeviceEvaluator::new(
            devs.clone(),
            sc,
            Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        );
        let params = metaheur::m3(0.5);
        let r = metaheur::run(&params, &spots, &mut ev, 11);
        assert!(r.best.is_scored());
        assert!(ev.makespan() > 0.0);
        assert_eq!(
            r.evaluations,
            params.evals_per_spot(),
            "evaluation accounting must survive the device path"
        );
    }
}
