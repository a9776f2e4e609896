//! Scoring backends for the metaheuristic engine.
//!
//! The engine only ever asks "score this batch of conformations"; *where*
//! that happens — serial CPU, multithreaded CPU (the OpenMP baseline), or a
//! scheduled set of simulated GPUs (`vsched`) — is an [`BatchEvaluator`]
//! implementation. This is the seam the paper's parallelization strategy
//! plugs into.
//!
//! # Two halves of a submission
//!
//! Scoring a batch has a *virtual* half and a *host* half. The virtual half
//! — a release time, the scheduler's plan, the device clocks and the trace
//! events they emit — depends on the order of submissions and runs on the
//! engine's driving thread. The host half is the per-pose kernel, a pure
//! function of the pose (DESIGN §7), which any thread may run. An evaluator
//! that can tell them apart offers both: [`BatchEvaluator::charge`] does the
//! virtual half for `n` items without scoring them, and
//! [`BatchEvaluator::host_scorer`] lends a [`HostScorer`] the engine scores
//! each spot's batch with, on whichever worker claims that spot. The
//! defaults split nothing, so an evaluator that implements only
//! [`BatchEvaluator::evaluate`] is scored whole, on the driving thread.

use vsmath::Vec3;
use vsmol::Conformation;
use vsscore::{Exec, PoseScratch, RigidGradient, ScoreBatch, Scorer};
use vstrace::{Event, Trace, BATCH_TRACK};

/// The host half of an evaluator: the per-pose kernel, callable from any
/// thread. It fills `score` for every conformation in place, with the same
/// bits as the evaluator's own [`BatchEvaluator::evaluate`] would give each
/// of them, and touches no virtual clock, counter or trace. The engine
/// calls it inside a job of `vsscore`'s shared pool, so it must score on
/// the calling thread: a job submitted to that pool from inside one of its
/// jobs waits forever for the one job slot the outer job holds.
pub trait HostScorer: Sync {
    /// Score `confs` in place; `scratch` is the caller's, reused across
    /// calls.
    fn score_confs(&self, confs: &mut [Conformation], scratch: &mut PoseScratch);
}

impl HostScorer for Scorer {
    fn score_confs(&self, confs: &mut [Conformation], scratch: &mut PoseScratch) {
        self.score_batch(ScoreBatch::Confs(confs), scratch, Exec::Serial);
    }
}

/// A batch scoring backend. Implementations fill `score` for every
/// conformation in the slice.
pub trait BatchEvaluator {
    /// Score all conformations in place.
    fn evaluate(&mut self, confs: &mut [Conformation]);

    /// Pair interactions per single evaluation (workload metadata consumed
    /// by the device cost model).
    fn pairs_per_eval(&self) -> u64;

    /// Score all conformations in place *and* return the rigid-body
    /// gradients (force + torque) — the hook for the Lamarckian improver.
    /// Backends without gradient support return `None`, making Lamarckian
    /// local search fall back to stochastic hill climbing.
    fn evaluate_with_gradients(
        &mut self,
        confs: &mut [Conformation],
    ) -> Option<Vec<RigidGradient>> {
        let _ = confs;
        None
    }

    /// Score a *streamed* batch that becomes ready at virtual time
    /// `release` (seconds on the evaluator's device clocks): the batch may
    /// not start executing before `release`, and the returned value is its
    /// virtual completion time. This is how [`crate::run_exec`] threads
    /// host-side clocks (the ring's stages, or the charged lockstep loop)
    /// through the device scheduler so overlap (and the lack of it in
    /// lockstep mode) shows up as measured device idle time.
    ///
    /// Backends without a virtual clock just score and echo `release`;
    /// scores are identical to [`BatchEvaluator::evaluate`] either way.
    fn evaluate_after(&mut self, confs: &mut [Conformation], release: f64) -> f64 {
        self.evaluate(confs);
        release
    }

    /// The virtual half of a submission of `items` conformations: what
    /// [`BatchEvaluator::evaluate`] (`release` `None`) or
    /// [`BatchEvaluator::evaluate_after`] (`Some`) does to clocks, counters
    /// and the trace, without scoring anything. Returns the virtual
    /// completion time, or `release` (0 without one) where there is no
    /// clock. The engine calls it only on an evaluator whose
    /// [`BatchEvaluator::host_scorer`] is `Some`, and then scores the
    /// items with that scorer.
    fn charge(&mut self, items: usize, release: Option<f64>) -> f64 {
        let _ = items;
        release.unwrap_or(0.0)
    }

    /// The host half, when this evaluator splits its submissions:
    /// [`BatchEvaluator::charge`] followed by scoring every item with the
    /// returned scorer must leave the same scores, clocks and trace as one
    /// `evaluate`. `None` (the default) means it does not split, and the
    /// engine scores through `evaluate` on its driving thread.
    fn host_scorer(&self) -> Option<&dyn HostScorer> {
        None
    }
}

impl<E: BatchEvaluator + ?Sized> BatchEvaluator for Box<E> {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        (**self).evaluate(confs);
    }

    fn pairs_per_eval(&self) -> u64 {
        (**self).pairs_per_eval()
    }

    fn evaluate_with_gradients(
        &mut self,
        confs: &mut [Conformation],
    ) -> Option<Vec<RigidGradient>> {
        (**self).evaluate_with_gradients(confs)
    }

    fn evaluate_after(&mut self, confs: &mut [Conformation], release: f64) -> f64 {
        (**self).evaluate_after(confs, release)
    }

    fn charge(&mut self, items: usize, release: Option<f64>) -> f64 {
        (**self).charge(items, release)
    }

    fn host_scorer(&self) -> Option<&dyn HostScorer> {
        (**self).host_scorer()
    }
}

/// CPU evaluator over the real scoring function — the paper's OpenMP
/// baseline path.
///
/// The execution policy is an [`Exec`] handed straight to
/// [`Scorer::score_batch`]: `Exec::Serial` keeps everything on the calling
/// thread with a private [`PoseScratch`], `Exec::Pool(n)` scores on the
/// process-wide persistent pool of `n` threads ([`vsscore::shared_pool`]),
/// matching the paper's long-lived OpenMP thread team: the calling thread
/// is one of them, claiming chunks of the batch and scoring them with the
/// same scratch. Either way, repeated `evaluate` calls allocate nothing.
/// The policy governs `evaluate` only: the engine splits this evaluator's
/// plain submissions and scores each spot's batch with the scorer inside
/// its own host job.
pub struct CpuEvaluator {
    scorer: Scorer,
    exec: Exec,
    scratch: PoseScratch,
    trace: Trace,
}

impl CpuEvaluator {
    /// CPU evaluator with the given execution policy.
    pub fn new(scorer: Scorer, exec: Exec) -> CpuEvaluator {
        CpuEvaluator { scorer, exec, scratch: PoseScratch::new(), trace: Trace::disabled() }
    }

    /// Emit a `BatchScored` event per batch (no virtual device clock on the
    /// CPU path, so the virtual-time fields stay zero).
    pub fn with_trace(mut self, trace: Trace) -> CpuEvaluator {
        self.trace = trace;
        self
    }

    pub fn scorer(&self) -> &Scorer {
        &self.scorer
    }
}

impl BatchEvaluator for CpuEvaluator {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        self.scorer.score_batch(ScoreBatch::Confs(confs), &mut self.scratch, self.exec);
        self.charge(confs.len(), None);
    }

    /// The batch's `BatchScored` event; there is no clock to advance.
    fn charge(&mut self, items: usize, release: Option<f64>) -> f64 {
        self.trace.emit(Event::BatchScored {
            device: BATCH_TRACK,
            items: items as u64,
            pairs_per_item: self.scorer.pairs_per_eval(),
            vt_start: 0.0,
            vt_end: 0.0,
        });
        release.unwrap_or(0.0)
    }

    fn host_scorer(&self) -> Option<&dyn HostScorer> {
        Some(&self.scorer)
    }

    fn pairs_per_eval(&self) -> u64 {
        self.scorer.pairs_per_eval()
    }

    fn evaluate_with_gradients(
        &mut self,
        confs: &mut [Conformation],
    ) -> Option<Vec<RigidGradient>> {
        let mut grads = Vec::with_capacity(confs.len());
        for c in confs.iter_mut() {
            let (score, g) = self.scorer.score_and_gradient_with(&c.pose, &mut self.scratch);
            c.score = score;
            grads.push(g);
        }
        Some(grads)
    }
}

/// A synthetic landscape for fast, deterministic tests: the score of a
/// conformation is the squared distance of its translation to a hidden
/// per-spot optimum plus an orientation penalty. Smooth, single-basin per
/// spot — any sane optimizer must descend it.
pub struct SyntheticEvaluator {
    /// Hidden optimum translation per spot id.
    pub optima: Vec<Vec3>,
    /// Weight of the orientation term.
    pub angle_weight: f64,
    /// Evaluation counter (for tests asserting batch sizes).
    pub evaluations: u64,
}

impl SyntheticEvaluator {
    pub fn new(optima: Vec<Vec3>) -> SyntheticEvaluator {
        SyntheticEvaluator { optima, angle_weight: 1.0, evaluations: 0 }
    }
}

impl HostScorer for SyntheticEvaluator {
    fn score_confs(&self, confs: &mut [Conformation], _scratch: &mut PoseScratch) {
        for c in confs.iter_mut() {
            let target = self.optima[c.spot_id % self.optima.len()];
            let d2 = c.pose.translation.dist_sq(target);
            let ang = c.pose.rotation.angle();
            c.score = d2 + self.angle_weight * ang * ang;
        }
    }
}

impl BatchEvaluator for SyntheticEvaluator {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        self.charge(confs.len(), None);
        self.score_confs(confs, &mut PoseScratch::new());
    }

    /// Counts the items; there is no clock.
    fn charge(&mut self, items: usize, release: Option<f64>) -> f64 {
        self.evaluations += items as u64;
        release.unwrap_or(0.0)
    }

    fn host_scorer(&self) -> Option<&dyn HostScorer> {
        Some(self)
    }

    fn pairs_per_eval(&self) -> u64 {
        1
    }

    fn evaluate_with_gradients(
        &mut self,
        confs: &mut [Conformation],
    ) -> Option<Vec<RigidGradient>> {
        self.evaluate(confs);
        // Analytic gradient of the synthetic landscape: for the score
        // d² + w·θ², force = −2(t − target) and torque = −2wθ·û where û is
        // the rotation axis (small extra rotation δ about n changes θ by
        // δ(n·û), so ∇_rot E = 2wθ û).
        let grads = confs
            .iter()
            .map(|c| {
                let target = self.optima[c.spot_id % self.optima.len()];
                let force = (target - c.pose.translation) * 2.0;
                let q = c.pose.rotation;
                let theta = q.angle();
                let axis = Vec3::new(q.x, q.y, q.z).normalized().unwrap_or(Vec3::ZERO)
                    * if q.w >= 0.0 { 1.0 } else { -1.0 };
                let torque = -axis * (2.0 * self.angle_weight * theta);
                RigidGradient { force, torque }
            })
            .collect();
        Some(grads)
    }
}

/// A rugged multi-basin landscape: Gaussian wells of different depths and
/// widths around each spot. Unlike [`SyntheticEvaluator`]'s single smooth
/// basin, this one punishes pure exploitation — local search from the
/// wrong start converges into a shallow well — which is what docking
/// landscapes actually look like and what distinguishes the population
/// metaheuristics from hill climbing.
pub struct RuggedEvaluator {
    /// Per spot: wells as (center offset from spot center, depth > 0, width).
    pub wells: Vec<Vec<(Vec3, f64, f64)>>,
    /// Spot centers, index-aligned with `wells` by spot id.
    pub centers: Vec<Vec3>,
    pub evaluations: u64,
}

impl RuggedEvaluator {
    /// Standard fixture: one deep narrow well off to the side and two
    /// shallow wide wells near the middle of each spot ball.
    pub fn standard(spot_centers: &[Vec3]) -> RuggedEvaluator {
        let wells = spot_centers
            .iter()
            .map(|_| {
                vec![
                    (Vec3::new(3.2, 2.4, 0.0), 10.0, 0.7), // deep, narrow, off-center
                    (Vec3::new(-0.5, 0.3, 0.2), 3.0, 2.0), // shallow, wide, central
                    (Vec3::new(0.8, -1.5, -0.6), 2.5, 1.8),
                ]
            })
            .collect();
        RuggedEvaluator { wells, centers: spot_centers.to_vec(), evaluations: 0 }
    }

    /// The global minimum value of one spot's landscape (approximately the
    /// deepest well's depth, negated).
    pub fn global_min(&self) -> f64 {
        -self.wells.iter().flat_map(|ws| ws.iter().map(|&(_, d, _)| d)).fold(0.0, f64::max)
    }
}

impl BatchEvaluator for RuggedEvaluator {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        self.evaluations += confs.len() as u64;
        for c in confs.iter_mut() {
            let si = c.spot_id % self.centers.len();
            let rel = c.pose.translation - self.centers[si];
            let mut score = 0.0;
            for &(offset, depth, width) in &self.wells[si] {
                let d2 = rel.dist_sq(offset);
                score -= depth * (-d2 / (width * width)).exp();
            }
            c.score = score;
        }
    }

    fn pairs_per_eval(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmath::{RigidTransform, RngStream};
    use vsmol::synth;

    #[test]
    fn cpu_evaluator_fills_scores() {
        let rec = synth::synth_receptor("r", 200, 1);
        let lig = synth::synth_ligand("l", 8, 2);
        let mut ev = CpuEvaluator::new(Scorer::new(&rec, &lig, Default::default()), Exec::Serial);
        let mut rng = RngStream::from_seed(3);
        let mut confs: Vec<Conformation> = (0..10)
            .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(30.0)), 0))
            .collect();
        assert!(confs.iter().all(|c| !c.is_scored()));
        ev.evaluate(&mut confs);
        assert!(confs.iter().all(|c| c.is_scored()));
    }

    #[test]
    fn threaded_matches_serial() {
        let rec = synth::synth_receptor("r", 200, 1);
        let lig = synth::synth_ligand("l", 8, 2);
        let scorer = Scorer::new(&rec, &lig, Default::default());
        let mut serial = CpuEvaluator::new(scorer.clone(), Exec::Serial);
        let mut par = CpuEvaluator::new(scorer, Exec::Pool(4));
        let mut rng = RngStream::from_seed(4);
        let confs: Vec<Conformation> = (0..23)
            .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(30.0)), 0))
            .collect();
        let mut a = confs.clone();
        let mut b = confs;
        serial.evaluate(&mut a);
        par.evaluate(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score, y.score);
        }
    }

    #[test]
    fn synthetic_optimum_scores_zero() {
        let target = Vec3::new(5.0, -1.0, 2.0);
        let mut ev = SyntheticEvaluator::new(vec![target]);
        let mut confs = vec![Conformation::new(RigidTransform::from_translation(target), 0)];
        ev.evaluate(&mut confs);
        assert!(confs[0].score.abs() < 1e-12);
    }

    #[test]
    fn synthetic_score_increases_with_distance() {
        let mut ev = SyntheticEvaluator::new(vec![Vec3::ZERO]);
        let mut confs = vec![
            Conformation::new(RigidTransform::from_translation(Vec3::new(1.0, 0.0, 0.0)), 0),
            Conformation::new(RigidTransform::from_translation(Vec3::new(3.0, 0.0, 0.0)), 0),
        ];
        ev.evaluate(&mut confs);
        assert!(confs[0].score < confs[1].score);
    }

    #[test]
    fn synthetic_counts_evaluations() {
        let mut ev = SyntheticEvaluator::new(vec![Vec3::ZERO]);
        let mut confs = vec![Conformation::new(RigidTransform::IDENTITY, 0); 7];
        ev.evaluate(&mut confs);
        ev.evaluate(&mut confs);
        assert_eq!(ev.evaluations, 14);
    }

    #[test]
    fn grid_evaluator_finds_bindings_like_exact_scorer() {
        let rec = synth::synth_receptor("r", 300, 1);
        let lig = synth::synth_ligand("l", 8, 2);
        let spots = vec![vsmol::Spot {
            id: 0,
            center: Vec3::new(13.5, 0.0, 0.0),
            normal: Vec3::X,
            radius: 4.0,
            anchor_atom: 0,
        }];
        let params = crate::suite::m1(0.2);
        let grid_opts = vsscore::ScorerOptions {
            kernel: vsscore::Kernel::Grid { spacing: 0.6 },
            ..Default::default()
        };
        let mut grid_ev = CpuEvaluator::new(Scorer::new(&rec, &lig, grid_opts), Exec::Serial);
        let r_grid = crate::engine::run(&params, &spots, &mut grid_ev, 5);
        let mut exact_ev =
            CpuEvaluator::new(Scorer::new(&rec, &lig, Default::default()), Exec::Serial);
        let r_exact = crate::engine::run(&params, &spots, &mut exact_ev, 5);
        // Both searches find favorable bindings of the same magnitude.
        assert!(r_grid.best.score < 0.0, "grid search found no binding");
        assert!(r_exact.best.score < 0.0);
        // Re-score the grid-search winner with the exact function: it must
        // also be a genuine binding (the grid didn't hallucinate a minimum).
        let exact_rescore = Scorer::new(&rec, &lig, Default::default()).score(&r_grid.best.pose);
        assert!(exact_rescore < 0.0, "grid winner rescored to {exact_rescore}");
    }

    #[test]
    fn rugged_deep_well_is_global_minimum() {
        let centers = vec![Vec3::ZERO];
        let mut ev = RuggedEvaluator::standard(&centers);
        let mut at_deep =
            vec![Conformation::new(RigidTransform::from_translation(Vec3::new(3.2, 2.4, 0.0)), 0)];
        let mut at_shallow =
            vec![Conformation::new(RigidTransform::from_translation(Vec3::new(-0.5, 0.3, 0.2)), 0)];
        ev.evaluate(&mut at_deep);
        ev.evaluate(&mut at_shallow);
        assert!(at_deep[0].score < at_shallow[0].score);
        assert!(at_deep[0].score <= ev.global_min() * 0.9, "deep well ~{}", at_deep[0].score);
    }

    #[test]
    fn rugged_population_search_escapes_shallow_wells() {
        // GA with a population reliably locates the off-center deep well;
        // the landscape is designed so single-walker exploitation tends to
        // settle in the central shallow ones.
        let spots: Vec<vsmol::Spot> = (0..2)
            .map(|i| vsmol::Spot {
                id: i,
                center: Vec3::new(20.0 * i as f64, 0.0, 0.0),
                normal: Vec3::Z,
                radius: 5.0,
                anchor_atom: 0,
            })
            .collect();
        let centers: Vec<Vec3> = spots.iter().map(|s| s.center).collect();
        let mut ev = RuggedEvaluator::standard(&centers);
        let ga = crate::suite::m2(0.5);
        let r = crate::engine::run(&ga, &spots, &mut ev, 4);
        let global = RuggedEvaluator::standard(&centers).global_min();
        assert!(r.best.score < global * 0.8, "GA best {} vs global {global}", r.best.score);
    }

    #[test]
    fn synthetic_per_spot_optima() {
        let mut ev = SyntheticEvaluator::new(vec![Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)]);
        let mut confs = vec![
            Conformation::new(RigidTransform::from_translation(Vec3::new(10.0, 0.0, 0.0)), 1),
            Conformation::new(RigidTransform::from_translation(Vec3::new(10.0, 0.0, 0.0)), 0),
        ];
        ev.evaluate(&mut confs);
        assert!(confs[0].score < 1e-12, "spot 1 optimum");
        assert!(confs[1].score > 50.0, "spot 0 is far");
    }
}
