//! The Algorithm 1 engine: one independent population per spot, with all
//! scoring requests batched across spots.
//!
//! The template's control flow is written once, as a per-spot state
//! machine (DESIGN.md §12). A `SpotToken` carries one spot's population,
//! RNG stream and current `Phase`; `build` does the phase's variation,
//! `submit` hands the batches of many tokens to the evaluator as one
//! submission, `Driver::step` does the phase's selection and picks the
//! next phase, and `Driver::settle` files the records that step produced
//! into the run's.
//!
//! `step` and `build` touch one token only, so a scheduler runs them for
//! every token it holds as one pool job (`host_job`), together with the
//! scoring of each token's batch when the evaluator splits its submissions
//! ([`crate::evaluator`]). What depends on the order of tokens — the
//! submission, its virtual clocks and trace events, and `settle` — stays on
//! the driving thread. Two schedulers step the tokens: the lockstep loop at
//! the bottom of this module (every live token through each lap together —
//! [`run`], [`run_seeded`], [`run_traced`]) and the stage ring in
//! [`crate::pipeline`]. A spot's trajectory does not depend on which.

use crate::diversity::translation_diversity;
use crate::evaluator::{BatchEvaluator, HostScorer};
use crate::params::{
    improved_count, Combine, EndCondition, ImproveStrategy, MetaheuristicParams, SelectStrategy,
};
use std::collections::VecDeque;
use vsmath::{Quat, RigidTransform, RngStream, Vec3};
use vsmol::{conformation::score_cmp, Conformation, Spot};
use vsscore::{CpuPool, PoseScratch};
use vstrace::{Event, SpanGuard, Trace};

/// Outcome of one metaheuristic execution.
///
/// Every field but `batch_trace` is the same whichever scheduler ran the
/// search ([`run`], [`EngineExec::Lockstep`](crate::pipeline::EngineExec) or
/// `Pipelined` at any depth), for every [`EndCondition`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Best conformation found anywhere on the surface.
    pub best: Conformation,
    /// Best conformation per spot (index-aligned with the input spots).
    pub best_per_spot: Vec<Conformation>,
    /// Total scoring evaluations performed.
    pub evaluations: u64,
    /// Generations actually run: the count of the spot that ran longest
    /// (≤ the configured maximum; 0 for M4).
    pub generations_run: usize,
    /// Items per scoring batch, in submission order. This is the workload
    /// trace the device schedulers in `vsched` partition and replay.
    ///
    /// Submission order is part of the contract, and the one thing the
    /// scheduler decides. The lockstep loop ([`run`] and
    /// [`EngineExec::Lockstep`](crate::pipeline::EngineExec)) submits in
    /// program order — initialize, then per generation: offspring, then one
    /// batch per improve step (two per Lamarckian step), each spanning every
    /// spot still running. Under
    /// [`EngineExec::Pipelined`](crate::pipeline::EngineExec) batches appear
    /// in evaluator-submission order — coalesced across spots at different
    /// generations — which is deterministic for a fixed seed, spot set and
    /// depth, but is a *different* order. `vsched::replay` consumers must
    /// not assume the two orders match; only the sum (`evaluations`) is
    /// scheduler-invariant.
    pub batch_trace: Vec<u64>,
    /// Global best score after initialization and after each generation
    /// (`generations_run + 1` entries; a spot that stopped earlier keeps
    /// contributing its final best).
    pub best_history: Vec<f64>,
    /// Mean per-spot translation diversity (Å) after initialization and
    /// after each generation — the premature-convergence diagnostic
    /// ([`crate::diversity`]). `single_pass` runs record two entries:
    /// before and after their one improve pass.
    pub diversity_history: Vec<f64>,
}

/// Execute a parameterized metaheuristic (Algorithm 1) over `spots`.
///
/// Deterministic: each spot draws from its own RNG stream derived from
/// `seed`, so results do not depend on how work is later partitioned across
/// devices.
///
/// ```
/// use metaheur::{m1, run, SyntheticEvaluator};
/// use vsmath::Vec3;
/// use vsmol::Spot;
///
/// let spots = vec![Spot {
///     id: 0, center: Vec3::ZERO, normal: Vec3::Z, radius: 5.0, anchor_atom: 0,
/// }];
/// let mut eval = SyntheticEvaluator::new(vec![Vec3::new(1.0, 1.0, 0.0)]);
/// let result = run(&m1(0.2), &spots, &mut eval, 42);
/// assert_eq!(result.evaluations, m1(0.2).evals_per_spot());
/// assert!(result.best.score < result.best_history[0]);
/// ```
pub fn run<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    evaluator: &mut E,
    seed: u64,
) -> RunResult {
    run_lockstep(params, spots, evaluator, seed, &[], &Trace::disabled())
}

/// Like [`run`], but injects already-scored `seed_confs` into the initial
/// populations (each replaces the worst member of its spot's population).
/// This is the warm-start hook `vscreen::quality::cooperative_search` uses
/// to share incumbent solutions between independent executions.
pub fn run_seeded<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    evaluator: &mut E,
    seed: u64,
    seed_confs: &[Conformation],
) -> RunResult {
    run_lockstep(params, spots, evaluator, seed, seed_confs, &Trace::disabled())
}

/// Like [`run`], but with a [`vstrace::Trace`] attached: the engine opens
/// `initialize` / `generation` / `improve` spans around its phases and
/// emits a `GenerationDone` event (generation index, incumbent best,
/// cumulative evaluations) after every generation. A disabled trace makes
/// this identical to [`run`].
pub fn run_traced<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    evaluator: &mut E,
    seed: u64,
    trace: &Trace,
) -> RunResult {
    run_lockstep(params, spots, evaluator, seed, &[], trace)
}

// ---------------------------------------------------------------------------
// Per-spot operators.
//
// Everything that draws from a spot's RNG stream lives here as a free
// function over one spot's state, called from [`build`] and
// [`Driver::step`] only — so the draws a spot makes, and their order, are
// the same under every scheduler.
// ---------------------------------------------------------------------------

/// The one comparison every acceptance rule makes: does `cand` beat `cur`?
/// [`score_cmp`] order, so a NaN score is the worst there is — a NaN
/// incumbent yields to any finite candidate and a NaN candidate never wins.
fn improves(cand: &Conformation, cur: &Conformation) -> bool {
    score_cmp(cand, cur).is_lt()
}

/// Two parents from one spot's (sorted) population per the selection
/// strategy.
fn pick_parents(
    params: &MetaheuristicParams,
    pop: &[Conformation],
    rng: &mut RngStream,
) -> (Conformation, Conformation) {
    match params.select {
        SelectStrategy::TruncationBest { fraction } => {
            let pool = ((pop.len() as f64 * fraction).ceil() as usize).clamp(1, pop.len());
            let i = rng.index(pool);
            let j = rng.index(pool);
            (pop[i], pop[j])
        }
        SelectStrategy::Tournament { k } => {
            let pick = |rng: &mut RngStream, pop: &[Conformation]| {
                let mut best = pop[rng.index(pop.len())];
                for _ in 1..k {
                    let c = pop[rng.index(pop.len())];
                    if improves(&c, &best) {
                        best = c;
                    }
                }
                best
            };
            (pick(rng, pop), pick(rng, pop))
        }
    }
}

/// `Select` + `Combine` for one spot: `offspring_per_spot` children
/// (unscored, in draw order).
fn breed_spot(
    params: &MetaheuristicParams,
    spot: &Spot,
    pop: &[Conformation],
    rng: &mut RngStream,
) -> Vec<Conformation> {
    let mut offspring = Vec::with_capacity(params.offspring_per_spot);
    for _ in 0..params.offspring_per_spot {
        let (a, b) = pick_parents(params, pop, rng);
        let mut child = Conformation::crossover(&a, &b, rng);
        if rng.chance(params.mutation_prob) {
            child = child.perturbed(params.max_shift, params.max_angle, rng);
        }
        offspring.push(child.clamped_to(spot));
    }
    offspring
}

/// [`Combine::Swarm`]'s inertia weight and its equal pulls toward the
/// particle's own best and the spot's best (the usual constriction values;
/// no caller ever set others).
const INERTIA: f64 = 0.72;
const PULL: f64 = 1.49;

/// One swarm particle: its current pose, its velocity in the tangent space
/// of ℝ³ × SO(3) (a translation and a rotation vector) and the best pose it
/// has visited.
struct Particle {
    current: Conformation,
    velocity: Vec3,
    spin: Vec3,
    best: Conformation,
}

/// A swarm over a scored initial population (in draw order), each particle
/// at rest within half the speed clamps.
fn seed_swarm(
    params: &MetaheuristicParams,
    scored: &[Conformation],
    rng: &mut RngStream,
) -> Vec<Particle> {
    scored
        .iter()
        .map(|&c| Particle {
            current: c,
            velocity: rng.in_ball(params.max_shift * 0.5),
            spin: rng.in_ball(params.max_angle * 0.5),
            best: c,
        })
        .collect()
}

/// `Combine` for a swarm: one velocity step per particle, pulled toward
/// the particle's best and toward `leader`, with speeds clamped to
/// `max_shift` Å and `max_angle` rad (unscored, in particle order).
fn swarm_spot(
    params: &MetaheuristicParams,
    spot: &Spot,
    swarm: &mut [Particle],
    leader: &Conformation,
    rng: &mut RngStream,
) -> Vec<Conformation> {
    let clamp = |v: Vec3, max: f64| match v.normalized() {
        Some(dir) if v.norm() > max => dir * max,
        _ => v,
    };
    swarm
        .iter_mut()
        .map(|p| {
            let (t, rot) = (p.current.pose.translation, p.current.pose.rotation);
            let (r1, r2) = (rng.uniform(), rng.uniform());
            p.velocity = clamp(
                p.velocity * INERTIA
                    + (p.best.pose.translation - t) * (PULL * r1)
                    + (leader.pose.translation - t) * (PULL * r2),
                params.max_shift,
            );
            let (r3, r4) = (rng.uniform(), rng.uniform());
            p.spin = clamp(
                p.spin * INERTIA
                    + rotation_vector(rot, p.best.pose.rotation) * (PULL * r3)
                    + rotation_vector(rot, leader.pose.rotation) * (PULL * r4),
                params.max_angle,
            );
            let turn = Quat::from_axis_angle(p.spin.normalized().unwrap_or(Vec3::Z), p.spin.norm());
            let pose = RigidTransform::new((turn * rot).renormalize(), t + p.velocity);
            Conformation::new(pose, p.current.spot_id).clamped_to(spot)
        })
        .collect()
}

/// Move every particle to its scored proposal and keep its best.
fn fly(swarm: &mut [Particle], scored: &[Conformation]) {
    for (p, c) in swarm.iter_mut().zip(scored) {
        p.current = *c;
        if improves(c, &p.best) {
            p.best = *c;
        }
    }
}

/// Rotation vector (axis × angle, the short way round) taking `from` to
/// `to`.
pub(crate) fn rotation_vector(from: Quat, to: Quat) -> Vec3 {
    let d = (to * from.conjugate()).renormalize();
    let axis = Vec3::new(d.x, d.y, d.z).normalized().unwrap_or(Vec3::ZERO);
    axis * (d.angle() * if d.w >= 0.0 { 1.0 } else { -1.0 })
}

/// One local-search step's proposals for one spot, appended to
/// `proposals`: `per` perturbations of each start (unscored, start by
/// start).
fn propose_spot<'c>(
    params: &MetaheuristicParams,
    spot: &Spot,
    starts: impl Iterator<Item = &'c Conformation>,
    per: usize,
    rng: &mut RngStream,
    proposals: &mut Vec<Conformation>,
) {
    for start in starts {
        for _ in 0..per {
            proposals
                .push(start.perturbed(params.max_shift, params.max_angle, rng).clamped_to(spot));
        }
    }
}

/// Accept scored proposals into one spot's group per the hill-climb or
/// simulated-annealing rule at local-search step `step`.
fn accept_spot(
    params: &MetaheuristicParams,
    step: usize,
    group: &mut [Conformation],
    cands: &[Conformation],
    rng: &mut RngStream,
) {
    let (sa_t0, sa_cooling) = match params.improve {
        ImproveStrategy::SimulatedAnnealing { t0, cooling, .. } => (t0, cooling),
        _ => (0.0, 1.0),
    };
    let temp = sa_t0 * sa_cooling.powi(step as i32);
    for (cur, cand) in group.iter_mut().zip(cands) {
        let accept = improves(cand, cur)
            || (temp > 0.0 && rng.chance((-(cand.score - cur.score) / temp).exp()));
        if accept {
            *cur = *cand;
        }
    }
}

/// [`ImproveStrategy::Tabu`]'s memory: a walker stays away from the last
/// `TABU_TENURE` poses it visited, a candidate counting as a revisit when it
/// is within `TABU_SHIFT` Å *and* `TABU_ANGLE` rad of one of them.
const TABU_TENURE: usize = 12;
const TABU_SHIFT: f64 = 0.5;
const TABU_ANGLE: f64 = 0.2;

/// One tabu walker: where it stands and where it has just been.
struct Walker {
    current: Conformation,
    recent: VecDeque<Conformation>,
}

impl Walker {
    fn is_tabu(&self, c: &Conformation) -> bool {
        self.recent
            .iter()
            .any(|t| c.translation_distance(t) < TABU_SHIFT && c.rotation_distance(t) < TABU_ANGLE)
    }
}

/// Tabu's accept rule: each walker moves to its best candidate that is not
/// tabu — a tabu one is allowed if it beats the walker's best (aspiration)
/// — or, when every candidate is tabu, to the least bad. `best[i]` keeps
/// walker `i`'s best pose, which is what the pass hands back.
fn tabu_accept(
    best: &mut [Conformation],
    walkers: &mut [Walker],
    cands: &[Conformation],
    neighbors: usize,
) {
    let first_min = |a: &&Conformation, b: &&Conformation| score_cmp(a, b);
    for ((best, w), cands) in best.iter_mut().zip(walkers).zip(cands.chunks(neighbors)) {
        let allowed = cands.iter().filter(|c| improves(c, best) || !w.is_tabu(c));
        let next = allowed.min_by(first_min).or_else(|| cands.iter().min_by(first_min));
        let next = *next.unwrap_or(&w.current);
        if improves(&next, best) {
            *best = next;
        }
        w.current = next;
        w.recent.push_back(next);
        if w.recent.len() > TABU_TENURE {
            w.recent.pop_front();
        }
    }
}

/// One Lamarckian step's trial points for one spot: along the gradient
/// when available, stochastic perturbation otherwise.
fn lamarckian_trials(
    params: &MetaheuristicParams,
    spot: &Spot,
    current: &[Conformation],
    grads: Option<&[vsscore::RigidGradient]>,
    rng: &mut RngStream,
    trials: &mut Vec<Conformation>,
) {
    let (step_size, angle_step) = match params.improve {
        ImproveStrategy::Lamarckian { step_size, angle_step, .. } => (step_size, angle_step),
        // PANICS: callers only reach this under the Lamarckian strategy.
        _ => unreachable!("lamarckian_trials outside Lamarckian improve"),
    };
    match grads {
        Some(gs) => trials.extend(current.iter().zip(gs).map(|(c, g)| {
            let dir = g.force.normalized().unwrap_or(Vec3::ZERO);
            let t = c.pose.translation + dir * step_size;
            let rot = match g.torque.normalized() {
                Some(axis) => {
                    (Quat::from_axis_angle(axis, angle_step) * c.pose.rotation).renormalize()
                }
                None => c.pose.rotation,
            };
            Conformation::new(RigidTransform::new(rot, t), c.spot_id).clamped_to(spot)
        })),
        None => trials.extend(
            current
                .iter()
                .map(|c| c.perturbed(params.max_shift, params.max_angle, rng).clamped_to(spot)),
        ),
    }
}

/// Inject already-scored warm-start seeds addressed to `spot` into its
/// population (each replaces the worst member if it improves on it).
fn inject_seeds_spot(spot: &Spot, pop: &mut [Conformation], seed_confs: &[Conformation]) {
    for c in seed_confs {
        if !c.is_scored() || c.spot_id != spot.id {
            continue;
        }
        let last = pop.len() - 1;
        if improves(c, &pop[last]) {
            pop[last] = *c;
            pop.sort_by(score_cmp);
        }
    }
}

// ---------------------------------------------------------------------------
// The per-spot state machine.
// ---------------------------------------------------------------------------

/// What a token's next lap does. Every lap except the farewell
/// [`Phase::Retire`] lap carries a batch to score, so a scheduler's scoring
/// step sees a continuous stream of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// `Initialize`: the initial population batch.
    Seed,
    /// `Select` + `Combine`: the offspring batch.
    Breed,
    /// One local-search step's perturbation proposals.
    Propose,
    /// Lamarckian step, first half: the improving elements go out for a
    /// gradient batch.
    LamGather,
    /// Lamarckian step, second half: gradient-directed trial moves.
    LamPropose,
    /// Farewell lap: no batch; [`Driver::settle`] harvests the final
    /// population (the ring's evaluator also counts live tokens by it).
    Retire,
}

/// What [`Driver::step`] leaves for [`Driver::settle`]: the records of the
/// run one lap of one spot produced, applied in this order.
#[derive(Default)]
struct Records {
    /// A checkpoint: best score, translation diversity and cumulative
    /// evaluations.
    checkpoint: Option<(f64, f64, u64)>,
    /// A diversity entry without a checkpoint (M4's second one).
    diversity: Option<f64>,
    /// A finished generation (1-based) and whether it was the spot's last.
    generation: Option<(usize, bool)>,
    /// The final population is ready to hand in.
    harvest: bool,
}

/// One surface spot's whole search state.
pub(crate) struct SpotToken {
    pub(crate) si: usize,
    pub(crate) phase: Phase,
    rng: RngStream,
    /// Population, sorted by ascending score.
    pop: Vec<Conformation>,
    /// Offspring group being improved this generation (M4: the population).
    group: Vec<Conformation>,
    /// Lamarckian: freshly scored originals from the gather half-step.
    saved: Vec<Conformation>,
    /// Lamarckian: gradients for `saved` (None → stochastic fallback).
    grads: Option<Vec<vsscore::RigidGradient>>,
    /// [`Combine::Swarm`]: the population's particles.
    swarm: Vec<Particle>,
    /// [`ImproveStrategy::Tabu`]: one walker per improving element of
    /// `group`, which holds the walkers' best poses.
    walkers: Vec<Walker>,
    /// This lap's scoring payload.
    pub(crate) batch: Vec<Conformation>,
    /// This lap's batch wants gradients (Lamarckian gather).
    wants_grads: bool,
    /// This lap's batch is charged to the evaluator but not scored yet:
    /// [`host_job`] scores it.
    charged: bool,
    /// The evaluator's [`HostScorer`] scores this token's batches with it,
    /// on whichever thread runs the token.
    scratch: PoseScratch,
    /// Evaluations this spot has had scored so far.
    evals: u64,
    /// Records of the last step, not yet settled.
    records: Records,
    /// Improving elements per group this generation.
    k: usize,
    /// Local-search step within the current improve pass.
    step: usize,
    /// Generations completed.
    gen: usize,
    stale: usize,
    best_so_far: f64,
    /// Scheduler's: set on tokens the ring admits after its initial wave.
    pub(crate) fresh: bool,
    /// Scheduler's: virtual time at which this token's current contents
    /// are ready (the ring's host↔device overlap accounting; [`submit`]
    /// stores the batch's completion time here).
    pub(crate) ready_vt: f64,
}

impl SpotToken {
    pub(crate) fn new(si: usize, spot: &Spot, seed: u64) -> SpotToken {
        SpotToken {
            si,
            phase: Phase::Seed,
            rng: RngStream::derive(seed, spot.id as u64 + 1),
            pop: Vec::new(),
            group: Vec::new(),
            saved: Vec::new(),
            grads: None,
            swarm: Vec::new(),
            walkers: Vec::new(),
            batch: Vec::new(),
            wants_grads: false,
            charged: false,
            scratch: PoseScratch::new(),
            evals: 0,
            records: Records::default(),
            k: 0,
            step: 0,
            gen: 0,
            stale: 0,
            best_so_far: f64::INFINITY,
            fresh: false,
            ready_vt: 0.0,
        }
    }
}

/// Variation: build the batch `tok`'s current phase wants scored (unscored
/// conformations in draw order; the gather half-step re-submits scored
/// ones). Proposals are built into the buffer `tok.batch` holds, which
/// [`Driver::step`] hands back after a lap whose batch it does not keep.
pub(crate) fn build(params: &MetaheuristicParams, spot: &Spot, tok: &mut SpotToken) {
    tok.wants_grads = tok.phase == Phase::LamGather;
    let mut batch = std::mem::take(&mut tok.batch);
    batch.clear();
    tok.batch = match tok.phase {
        Phase::Seed => (0..params.population_per_spot)
            .map(|_| Conformation::random_at(spot, &mut tok.rng))
            .collect(),
        Phase::Breed => match params.combine {
            Combine::Crossover => breed_spot(params, spot, &tok.pop, &mut tok.rng),
            Combine::Swarm => swarm_spot(params, spot, &mut tok.swarm, &tok.pop[0], &mut tok.rng),
        },
        Phase::Propose => {
            match params.improve {
                ImproveStrategy::Tabu { neighbors, .. } => {
                    let starts = tok.walkers.iter().map(|w| &w.current);
                    propose_spot(params, spot, starts, neighbors, &mut tok.rng, &mut batch)
                }
                _ => {
                    let starts = tok.group.iter().take(tok.k);
                    propose_spot(params, spot, starts, 1, &mut tok.rng, &mut batch)
                }
            }
            batch
        }
        Phase::LamGather => tok.group[..tok.group.len().min(tok.k)].to_vec(),
        Phase::LamPropose => {
            let grads = tok.grads.as_deref();
            lamarckian_trials(params, spot, &tok.saved, grads, &mut tok.rng, &mut batch);
            batch
        }
        Phase::Retire => Vec::new(),
    };
}

/// Does `tok` contribute to the submission of its gradient class?
fn member(tok: &SpotToken, grad_class: bool) -> bool {
    tok.wants_grads == grad_class && !tok.batch.is_empty()
}

/// Submit what `toks` carry: one coalesced submission for the plain batches
/// and one for the gradient batches, each one entry of `batch_trace`.
///
/// `at` is the scheduler's clock: given the time the latest contributor was
/// ready it returns when the submission leaves the host, and the batch goes
/// through [`BatchEvaluator::evaluate_after`]; `None` means an unclocked
/// plain [`BatchEvaluator::evaluate`], device clocks running free. Every
/// contributor's `ready_vt` becomes the completion time.
///
/// A plain submission to an evaluator that splits
/// ([`BatchEvaluator::host_scorer`]) is only charged here: its tokens are
/// marked `charged`, and [`host_job`] scores each one's batch in place.
/// Every other submission — the gradient batches, and every batch of an
/// evaluator that does not split — is scored here, on the driving thread,
/// through one flat batch.
pub(crate) fn submit<E: BatchEvaluator>(
    evaluator: &mut E,
    toks: &mut [SpotToken],
    batch_trace: &mut Vec<u64>,
    mut at: impl FnMut(f64) -> Option<f64>,
) {
    for grad_class in [false, true] {
        let (mut items, mut release) = (0usize, 0.0f64);
        for tok in toks.iter().filter(|t| member(t, grad_class)) {
            items += tok.batch.len();
            release = release.max(tok.ready_vt);
        }
        if items == 0 {
            continue;
        }
        let when = at(release);
        let completion = if !grad_class && evaluator.host_scorer().is_some() {
            let done = evaluator.charge(items, when);
            toks.iter_mut().filter(|t| member(t, false)).for_each(|t| t.charged = true);
            if when.is_some() {
                done
            } else {
                0.0
            }
        } else {
            score_flat(evaluator, toks, grad_class, when)
        };
        batch_trace.push(items as u64);
        toks.iter_mut().filter(|t| member(t, grad_class)).for_each(|t| t.ready_vt = completion);
    }
}

/// Score one gradient class's batches through the evaluator's whole-batch
/// entry points, copied into one flat batch and back, and return the
/// submission's completion time.
fn score_flat<E: BatchEvaluator>(
    evaluator: &mut E,
    toks: &mut [SpotToken],
    grad_class: bool,
    when: Option<f64>,
) -> f64 {
    let mut flat: Vec<Conformation> = Vec::new();
    for tok in toks.iter().filter(|t| member(t, grad_class)) {
        flat.extend_from_slice(&tok.batch);
    }
    let grads = if grad_class { evaluator.evaluate_with_gradients(&mut flat) } else { None };
    let completion = match (&grads, when) {
        // Host-evaluated gradients carry the scores: nothing is released
        // to a device.
        (Some(_), _) => when.unwrap_or(0.0),
        // A plain batch — or the gradient fallback, which still needs
        // the scores (one batch in the accounting either way).
        (None, Some(t)) => evaluator.evaluate_after(&mut flat, t),
        (None, None) => {
            evaluator.evaluate(&mut flat);
            0.0
        }
    };
    let mut off = 0;
    for tok in toks.iter_mut().filter(|t| member(t, grad_class)) {
        let end = off + tok.batch.len();
        tok.batch.copy_from_slice(&flat[off..end]);
        if grad_class {
            tok.grads = grads.as_ref().map(|gs| gs[off..end].to_vec());
        }
        off = end;
    }
    completion
}

/// The host work of one scheduler step, as one pool job of one token per
/// chunk: score the token's batch if it was only charged, run
/// [`Driver::step`] on it, and build its next lap's batch. Each part reads
/// and writes the token alone (and the evaluator's [`HostScorer`], a pure
/// function of the pose), so which thread runs a token, and when, changes
/// nothing (DESIGN.md §7).
pub(crate) fn host_job(
    pool: &CpuPool,
    scorer: Option<&dyn HostScorer>,
    driver: &Driver<'_>,
    toks: &mut [SpotToken],
) {
    pool.for_each_mut(toks, |tok| {
        if std::mem::take(&mut tok.charged) {
            debug_assert!(
                scorer.is_some(),
                "a batch was charged to an evaluator that cannot score it"
            );
            if let Some(scorer) = scorer {
                scorer.score_confs(&mut tok.batch, &mut tok.scratch);
            }
        }
        driver.step(tok);
        if tok.phase != Phase::Retire {
            build(driver.params, &driver.spots[tok.si], tok);
        }
    });
}

/// Selection, the end condition and the run's records: the half of the
/// state machine that consumes scored batches.
pub(crate) struct Driver<'a> {
    params: &'a MetaheuristicParams,
    spots: &'a [Spot],
    seed_confs: &'a [Conformation],
    trace: &'a Trace,
    /// Local-search steps per improve pass, and the phase a step starts at.
    improve_steps: usize,
    improve_first: Phase,
    /// Per-spot best score after init and after each generation.
    hist: Vec<Vec<f64>>,
    /// Per-spot translation diversity at the same checkpoints.
    div: Vec<Vec<f64>>,
    /// Per-spot cumulative evaluations at the same checkpoints.
    evals: Vec<Vec<u64>>,
    /// `completed[j]` = spots that have finished generation `j` (1-based;
    /// index 0, initialization, is unused), `retired_at[j]` = those for
    /// which it was the last. Both grow with the longest-running spot.
    completed: Vec<usize>,
    retired_at: Vec<usize>,
    /// Next generation to announce with `GenerationDone`, and the spots
    /// that retired before it.
    next_gd: usize,
    retired_earlier: usize,
    pops: Vec<Option<Vec<Conformation>>>,
    /// Spots whose final population has been handed in.
    pub(crate) harvested: usize,
}

/// Checkpoint `j` of one spot's record; a retired spot's last checkpoint
/// carries forward.
fn at<T: Copy>(record: &[T], j: usize) -> T {
    record[j.min(record.len() - 1)]
}

/// Record a checkpoint of `tok`'s population for [`Driver::settle`] and
/// return its translation diversity.
fn checkpoint(tok: &mut SpotToken) -> f64 {
    let diversity = translation_diversity(&tok.pop);
    tok.records.checkpoint = Some((tok.pop[0].score, diversity, tok.evals));
    diversity
}

impl<'a> Driver<'a> {
    pub(crate) fn new(
        params: &'a MetaheuristicParams,
        spots: &'a [Spot],
        seed_confs: &'a [Conformation],
        trace: &'a Trace,
    ) -> Driver<'a> {
        // PANICS: invalid parameters are a caller programming error; fail fast.
        params.validate().expect("invalid metaheuristic parameters");
        assert!(!spots.is_empty(), "need at least one spot");
        let (improve_steps, improve_first) = match params.improve {
            ImproveStrategy::None => (0, Phase::Retire), // never entered: zero steps
            ImproveStrategy::HillClimb { steps }
            | ImproveStrategy::SimulatedAnnealing { steps, .. }
            | ImproveStrategy::Tabu { steps, .. } => (steps, Phase::Propose),
            ImproveStrategy::Lamarckian { steps, .. } => (steps, Phase::LamGather),
        };
        let n = spots.len();
        Driver {
            params,
            spots,
            seed_confs,
            trace,
            improve_steps,
            improve_first,
            hist: vec![Vec::new(); n],
            div: vec![Vec::new(); n],
            evals: vec![Vec::new(); n],
            completed: vec![0],
            retired_at: vec![0],
            next_gd: 1,
            retired_earlier: 0,
            pops: (0..n).map(|_| None).collect(),
            harvested: 0,
        }
    }

    /// Selection: consume `tok`'s scored batch as its phase prescribes and
    /// set the phase of its next lap, leaving what the run records of it
    /// for [`Driver::settle`]. Reads and writes `tok` alone, so any thread
    /// may run it. A token arriving at [`Phase::Retire`] only marks its
    /// population for harvest. The batch of a [`Phase::Propose`] or
    /// [`Phase::LamPropose`] lap goes back to `tok.batch` emptied, for
    /// [`build`] to fill again.
    pub(crate) fn step(&self, tok: &mut SpotToken) {
        let mut scored = std::mem::take(&mut tok.batch);
        tok.evals += scored.len() as u64;
        match tok.phase {
            Phase::Seed => {
                if self.params.combine == Combine::Swarm {
                    tok.swarm = seed_swarm(self.params, &scored, &mut tok.rng);
                }
                tok.pop = scored;
                tok.pop.sort_by(score_cmp);
                inject_seeds_spot(&self.spots[tok.si], &mut tok.pop, self.seed_confs);
                tok.best_so_far = tok.pop[0].score;
                let diversity = checkpoint(tok);
                if self.params.single_pass {
                    // M4: one Improve pass over the large initial set; no
                    // Select / Combine / Include loop.
                    tok.group = std::mem::take(&mut tok.pop);
                    if !self.begin_improve(tok) {
                        // Improve is a no-op; the run still records a second
                        // (unchanged) diversity checkpoint.
                        tok.pop = std::mem::take(&mut tok.group);
                        tok.records.diversity = Some(diversity);
                        tok.phase = Phase::Retire;
                    }
                } else {
                    let none = self.params.end.max_generations() == 0;
                    tok.phase = if none { Phase::Retire } else { Phase::Breed };
                }
            }
            Phase::Breed => {
                // A swarm's particles move to their proposals (no swarm, no-op).
                fly(&mut tok.swarm, &scored);
                tok.group = scored;
                tok.group.sort_by(score_cmp);
                // Improve the best fraction of the spot's offspring.
                if !self.begin_improve(tok) {
                    self.include_and_advance(tok);
                }
            }
            Phase::Propose => {
                match self.params.improve {
                    ImproveStrategy::Tabu { neighbors, .. } => {
                        tabu_accept(&mut tok.group, &mut tok.walkers, &scored, neighbors)
                    }
                    _ => accept_spot(self.params, tok.step, &mut tok.group, &scored, &mut tok.rng),
                }
                self.end_step(tok);
                scored.clear();
                tok.batch = scored;
            }
            Phase::LamGather => {
                tok.saved = scored;
                tok.phase = Phase::LamPropose;
            }
            Phase::LamPropose => {
                for ((dst, &cand), &cur) in tok.group.iter_mut().zip(&scored).zip(&tok.saved) {
                    // The gathered copy carries the freshly evaluated score
                    // of the original; keep whichever is better (acquired
                    // traits are written back into the genotype — the
                    // defining Lamarckian property).
                    *dst = if improves(&cand, &cur) { cand } else { cur };
                }
                tok.saved.clear();
                tok.grads = None;
                self.end_step(tok);
                scored.clear();
                tok.batch = scored;
            }
            Phase::Retire => tok.records.harvest = true,
        }
    }

    /// File the records of `tok`'s last [`Driver::step`] into the run's,
    /// and take its final population if it was handed in (returning
    /// whether it was). Schedulers call it in the order the tokens were
    /// stepped.
    pub(crate) fn settle(&mut self, tok: &mut SpotToken) -> bool {
        let records = std::mem::take(&mut tok.records);
        let si = tok.si;
        if let Some((best, diversity, evals)) = records.checkpoint {
            self.hist[si].push(best);
            self.div[si].push(diversity);
            self.evals[si].push(evals);
        }
        if let Some(diversity) = records.diversity {
            self.div[si].push(diversity);
        }
        if let Some((gen, done)) = records.generation {
            if self.completed.len() <= gen {
                self.completed.resize(gen + 1, 0);
                self.retired_at.resize(gen + 1, 0);
            }
            self.completed[gen] += 1;
            if done {
                self.retired_at[gen] += 1;
            }
        }
        if records.harvest {
            self.pops[si] = Some(std::mem::take(&mut tok.pop));
            self.harvested += 1;
        }
        records.harvest
    }

    /// Start an improve pass over the best elements of the (sorted) group,
    /// if the parameters improve anything at all.
    fn begin_improve(&self, tok: &mut SpotToken) -> bool {
        tok.k = improved_count(tok.group.len(), self.params.improve_fraction);
        tok.step = 0;
        let improving = tok.k > 0 && self.improve_steps > 0;
        if improving {
            tok.phase = self.improve_first;
            if let ImproveStrategy::Tabu { .. } = self.params.improve {
                let walker = |&c| Walker { current: c, recent: VecDeque::from([c]) };
                tok.walkers = tok.group[..tok.k].iter().map(walker).collect();
            }
        }
        improving
    }

    /// One local-search step is done: take the next, or fold the group
    /// back and decide what happens after the improve pass.
    fn end_step(&self, tok: &mut SpotToken) {
        tok.step += 1;
        if tok.step < self.improve_steps {
            tok.phase = self.improve_first;
        } else if self.params.single_pass {
            tok.pop = std::mem::take(&mut tok.group);
            tok.pop.sort_by(score_cmp);
            tok.records.diversity = Some(translation_diversity(&tok.pop));
            tok.phase = Phase::Retire;
        } else {
            self.include_and_advance(tok);
        }
    }

    /// `Include`: merge the offspring group into the population and keep
    /// the best `population_per_spot`; record the generation checkpoint;
    /// then either retire the spot (end condition met) or start its next
    /// generation.
    fn include_and_advance(&self, tok: &mut SpotToken) {
        tok.pop.append(&mut tok.group);
        tok.pop.sort_by(score_cmp);
        tok.pop.truncate(self.params.population_per_spot);
        tok.gen += 1;
        checkpoint(tok);
        // The end condition is per spot under every scheduler: spots are
        // independent searches, and a global staleness check would need the
        // barrier the ring exists to remove.
        let done = match self.params.end {
            EndCondition::Generations(g) => tok.gen >= g,
            EndCondition::Convergence { patience, max } => {
                let now_best = tok.pop[0].score;
                if now_best < tok.best_so_far - 1e-12 {
                    tok.best_so_far = now_best;
                    tok.stale = 0;
                } else {
                    tok.stale += 1;
                }
                tok.stale >= patience || tok.gen >= max
            }
        };
        tok.records.generation = Some((tok.gen, done));
        tok.phase = if done { Phase::Retire } else { Phase::Breed };
    }

    /// Global best as of checkpoint `j`.
    fn best_at(&self, j: usize) -> f64 {
        self.hist.iter().map(|h| at(h, j)).fold(f64::INFINITY, f64::min)
    }

    /// Emit `GenerationDone` for every generation that settled since the
    /// last call — exactly when its slowest spot finishes it, with the
    /// global best and cumulative evaluations as of that generation. A spot
    /// that retired earlier counts as done with it (its last checkpoint
    /// carries forward), so a run emits `generations_run` events in all.
    /// Schedulers call this once selection for a lap is done (the lockstep
    /// loop after closing the generation's span).
    pub(crate) fn announce(&mut self) {
        while self.next_gd < self.completed.len()
            && self.completed[self.next_gd] + self.retired_earlier == self.spots.len()
        {
            let j = self.next_gd;
            self.trace.emit(Event::GenerationDone {
                generation: (j - 1) as u32,
                best_score: self.best_at(j),
                evaluations: self.evals.iter().map(|e| at(e, j)).sum(),
            });
            self.retired_earlier += self.retired_at[j];
            self.next_gd += 1;
        }
    }

    /// The run's report, assembled from the per-spot records (spots may
    /// have retired at different generations under `Convergence`).
    pub(crate) fn into_result(self, batch_trace: Vec<u64>) -> RunResult {
        let best_per_spot: Vec<Conformation> = self
            .pops
            .iter()
            // PANICS: never — both schedulers harvest every spot before
            // they ask for the result.
            .map(|pop| pop.as_ref().expect("every spot retired")[0])
            .collect();
        // PANICS: non-empty by caller contract.
        let best = *best_per_spot.iter().min_by(|a, b| score_cmp(a, b)).expect("non-empty spots");
        let generations_run = self.completed.len() - 1;
        let best_history: Vec<f64> = (0..=generations_run).map(|j| self.best_at(j)).collect();
        let div_len = self.div.iter().map(Vec::len).max().unwrap_or(1);
        let diversity_history: Vec<f64> = (0..div_len)
            .map(|j| self.div.iter().map(|d| at(d, j)).sum::<f64>() / self.spots.len() as f64)
            .collect();
        RunResult {
            best,
            best_per_spot,
            evaluations: batch_trace.iter().sum(),
            generations_run,
            batch_trace,
            best_history,
            diversity_history,
        }
    }
}

/// The lockstep scheduler: step every live token through each lap together,
/// so each submission spans all running spots and `batch_trace` comes out
/// in program order. Each lap submits on the calling thread, then runs the
/// live tokens' host work as one [`host_job`] and settles them in spot
/// order. It carries no cost model and lets device clocks run free (plain
/// `evaluate`, or a `charge` without a release); wrapping the evaluator is
/// what turns it into charged
/// [`EngineExec::Lockstep`](crate::pipeline::EngineExec).
pub(crate) fn run_lockstep<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    evaluator: &mut E,
    seed: u64,
    seed_confs: &[Conformation],
    trace: &Trace,
) -> RunResult {
    let pool = vsscore::shared_pool(vsscore::host_threads());
    let mut driver = Driver::new(params, spots, seed_confs, trace);
    let mut live: Vec<SpotToken> =
        spots.iter().enumerate().map(|(si, spot)| SpotToken::new(si, spot, seed)).collect();
    let mut batch_trace = Vec::new();
    // Open `initialize` / `generation` ⊃ `improve` spans, innermost last.
    let mut spans: Vec<SpanGuard> = Vec::new();
    while let Some(first) = live.first() {
        // Laps per generation depend on the parameters only, so the tokens
        // never drift apart; retiring ones just leave the batches smaller.
        let (phase, step) = (first.phase, first.step);
        debug_assert!(live.iter().all(|t| (t.phase, t.step) == (phase, step)));
        match phase {
            Phase::Seed => spans.push(trace.span("initialize")),
            Phase::Breed => spans.push(trace.span("generation")),
            Phase::Propose | Phase::LamGather if step == 0 => spans.push(trace.span("improve")),
            _ => {}
        }
        if phase == Phase::Seed {
            // The first lap's batches; each host job builds the next lap's.
            live.iter_mut().for_each(|tok| build(params, &spots[tok.si], tok));
        }
        submit(evaluator, &mut live, &mut batch_trace, |_| None);
        host_job(&pool, evaluator.host_scorer(), &driver, &mut live);
        for tok in &mut live {
            driver.settle(tok);
        }
        live.retain_mut(|tok| {
            let retiring = tok.phase == Phase::Retire;
            if retiring {
                driver.step(tok);
                driver.settle(tok);
            }
            !retiring
        });
        // Initialization, a generation or the single improve pass is over
        // when the survivors are about to breed (or nobody survives).
        if phase == Phase::Seed || live.first().is_none_or(|t| t.phase == Phase::Breed) {
            while let Some(innermost) = spans.pop() {
                drop(innermost);
            }
            driver.announce();
        }
    }
    driver.into_result(batch_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SyntheticEvaluator;
    use crate::params::{EndCondition, ImproveStrategy, MetaheuristicParams, SelectStrategy};
    use vsmath::Vec3;

    fn spots(n: usize) -> Vec<Spot> {
        (0..n)
            .map(|i| Spot {
                id: i,
                center: Vec3::new(10.0 * i as f64, 0.0, 0.0),
                normal: Vec3::Z,
                radius: 5.0,
                anchor_atom: 0,
            })
            .collect()
    }

    fn ga(gens: usize) -> MetaheuristicParams {
        MetaheuristicParams {
            name: "test-ga".into(),
            population_per_spot: 32,
            select: SelectStrategy::TruncationBest { fraction: 0.5 },
            offspring_per_spot: 32,
            combine: Combine::Crossover,
            improve_fraction: 0.0,
            improve: ImproveStrategy::None,
            mutation_prob: 0.3,
            max_shift: 1.0,
            max_angle: 0.4,
            end: EndCondition::Generations(gens),
            single_pass: false,
        }
    }

    /// Optima placed inside each spot's search ball.
    fn evaluator_for(spots: &[Spot]) -> SyntheticEvaluator {
        SyntheticEvaluator::new(spots.iter().map(|s| s.center + Vec3::new(1.0, 1.0, 0.5)).collect())
    }

    #[test]
    fn ga_improves_over_generations() {
        let sp = spots(4);
        let mut ev = evaluator_for(&sp);
        let r = run(&ga(30), &sp, &mut ev, 7);
        assert!(
            r.best_history.last().unwrap() < &(r.best_history[0] * 0.5),
            "history {:?}",
            r.best_history
        );
        assert_eq!(r.generations_run, 30);
    }

    #[test]
    fn evaluation_count_matches_params() {
        let sp = spots(3);
        let mut ev = evaluator_for(&sp);
        let p = ga(10);
        let r = run(&p, &sp, &mut ev, 1);
        assert_eq!(r.evaluations, p.evals_per_spot() * 3);
        assert_eq!(ev.evaluations, r.evaluations);
        assert_eq!(r.batch_trace.iter().sum::<u64>(), r.evaluations);
    }

    #[test]
    fn evaluation_count_with_improvement() {
        let sp = spots(2);
        let mut ev = evaluator_for(&sp);
        let p = MetaheuristicParams {
            improve_fraction: 0.25,
            improve: ImproveStrategy::HillClimb { steps: 3 },
            ..ga(5)
        };
        let r = run(&p, &sp, &mut ev, 1);
        assert_eq!(r.evaluations, p.evals_per_spot() * 2);
    }

    #[test]
    fn single_pass_counts_and_runs_no_generations() {
        let sp = spots(2);
        let mut ev = evaluator_for(&sp);
        let p = MetaheuristicParams {
            population_per_spot: 128,
            improve_fraction: 1.0,
            improve: ImproveStrategy::HillClimb { steps: 20 },
            single_pass: true,
            ..ga(0)
        };
        let r = run(&p, &sp, &mut ev, 3);
        assert_eq!(r.generations_run, 0);
        assert_eq!(r.evaluations, p.evals_per_spot() * 2);
        // Pure local search still optimizes.
        assert!(r.best.score < 5.0, "best {}", r.best.score);
    }

    #[test]
    fn deterministic_across_runs() {
        let sp = spots(3);
        let p = MetaheuristicParams {
            improve_fraction: 0.5,
            improve: ImproveStrategy::HillClimb { steps: 2 },
            ..ga(8)
        };
        let mut e1 = evaluator_for(&sp);
        let mut e2 = evaluator_for(&sp);
        let r1 = run(&p, &sp, &mut e1, 42);
        let r2 = run(&p, &sp, &mut e2, 42);
        assert_eq!(r1.best.score, r2.best.score);
        assert_eq!(r1.best.pose, r2.best.pose);
        assert_eq!(r1.batch_trace, r2.batch_trace);
    }

    #[test]
    fn different_seeds_differ() {
        let sp = spots(2);
        let mut e1 = evaluator_for(&sp);
        let mut e2 = evaluator_for(&sp);
        let r1 = run(&ga(5), &sp, &mut e1, 1);
        let r2 = run(&ga(5), &sp, &mut e2, 2);
        assert_ne!(r1.best.score, r2.best.score);
    }

    #[test]
    fn hill_climb_beats_no_improvement() {
        let sp = spots(4);
        let mut e1 = evaluator_for(&sp);
        let mut e2 = evaluator_for(&sp);
        let plain = ga(10);
        let improved = MetaheuristicParams {
            improve_fraction: 1.0,
            improve: ImproveStrategy::HillClimb { steps: 4 },
            ..ga(10)
        };
        let r_plain = run(&plain, &sp, &mut e1, 5);
        let r_imp = run(&improved, &sp, &mut e2, 5);
        assert!(
            r_imp.best.score <= r_plain.best.score,
            "LS {} vs plain {}",
            r_imp.best.score,
            r_plain.best.score
        );
    }

    #[test]
    fn best_per_spot_belongs_to_spot() {
        let sp = spots(5);
        let mut ev = evaluator_for(&sp);
        let r = run(&ga(5), &sp, &mut ev, 9);
        assert_eq!(r.best_per_spot.len(), 5);
        for (i, c) in r.best_per_spot.iter().enumerate() {
            assert_eq!(c.spot_id, i);
            // Stays within the spot's search ball.
            assert!(c.pose.translation.dist(sp[i].center) <= sp[i].radius + 1e-9);
        }
    }

    #[test]
    fn best_is_min_of_best_per_spot() {
        let sp = spots(3);
        let mut ev = evaluator_for(&sp);
        let r = run(&ga(6), &sp, &mut ev, 11);
        let min = r.best_per_spot.iter().map(|c| c.score).fold(f64::INFINITY, f64::min);
        assert_eq!(r.best.score, min);
    }

    #[test]
    fn convergence_end_stops_early() {
        let sp = spots(1);
        let mut ev = evaluator_for(&sp);
        let p = MetaheuristicParams {
            end: EndCondition::Convergence { patience: 3, max: 500 },
            mutation_prob: 0.0, // converges fast without mutation noise
            ..ga(0)
        };
        let r = run(&p, &sp, &mut ev, 13);
        assert!(r.generations_run < 500, "never converged");

        // Staleness is judged per spot: three spots may stop at three
        // different generations, and the run is as long as the slowest.
        let sp = spots(3);
        let mut ev = evaluator_for(&sp);
        let r = run(&p, &sp, &mut ev, 13);
        assert!(r.generations_run < 500, "never converged");
        assert_eq!(r.best_history.len(), r.generations_run + 1);
        // Each spot alone stops where it stops in company.
        let alone: Vec<usize> = sp
            .iter()
            .map(|s| run(&p, std::slice::from_ref(s), &mut evaluator_for(&sp), 13).generations_run)
            .collect();
        assert_eq!(r.generations_run, *alone.iter().max().unwrap());
        assert!(alone.iter().any(|&g| g < r.generations_run), "spots stopped together: {alone:?}");
        // Batches shrink as spots retire: generation `j`'s offspring batch
        // spans the spots still running it.
        for (j, &items) in r.batch_trace[1..].iter().enumerate() {
            let running = alone.iter().filter(|&&g| g > j).count();
            assert_eq!(items, 32 * running as u64, "generation {}", j + 1);
        }
    }

    #[test]
    fn tournament_selection_works() {
        let sp = spots(2);
        let mut ev = evaluator_for(&sp);
        let p = MetaheuristicParams { select: SelectStrategy::Tournament { k: 3 }, ..ga(10) };
        let r = run(&p, &sp, &mut ev, 17);
        assert!(r.best_history.last().unwrap() <= &r.best_history[0]);
    }

    #[test]
    fn lamarckian_descends_synthetic_gradient() {
        // On the smooth synthetic landscape, gradient descent must converge
        // much tighter than blind hill climbing at the same budget.
        let sp = spots(2);
        let lam = MetaheuristicParams {
            improve_fraction: 1.0,
            improve: ImproveStrategy::Lamarckian { steps: 15, step_size: 0.25, angle_step: 0.05 },
            mutation_prob: 0.0,
            ..ga(4)
        };
        let hc = MetaheuristicParams {
            improve_fraction: 1.0,
            improve: ImproveStrategy::HillClimb { steps: 30 }, // same eval budget
            mutation_prob: 0.0,
            ..ga(4)
        };
        assert_eq!(lam.evals_per_spot(), hc.evals_per_spot(), "budgets must match");
        let mut e1 = evaluator_for(&sp);
        let mut e2 = evaluator_for(&sp);
        let r_lam = run(&lam, &sp, &mut e1, 51);
        let r_hc = run(&hc, &sp, &mut e2, 51);
        assert!(
            r_lam.best.score < r_hc.best.score,
            "Lamarckian {} should beat hill climb {}",
            r_lam.best.score,
            r_hc.best.score
        );
    }

    #[test]
    fn lamarckian_eval_accounting() {
        let sp = spots(2);
        let p = MetaheuristicParams {
            improve_fraction: 0.5,
            improve: ImproveStrategy::Lamarckian { steps: 3, step_size: 0.2, angle_step: 0.05 },
            ..ga(4)
        };
        let mut ev = evaluator_for(&sp);
        let r = run(&p, &sp, &mut ev, 53);
        assert_eq!(r.evaluations, p.evals_per_spot() * 2);
        assert_eq!(ev.evaluations, r.evaluations);
    }

    #[test]
    fn lamarckian_never_accepts_worse() {
        let sp = spots(3);
        let p = MetaheuristicParams {
            improve_fraction: 1.0,
            improve: ImproveStrategy::Lamarckian { steps: 8, step_size: 0.5, angle_step: 0.1 },
            ..ga(6)
        };
        let mut ev = evaluator_for(&sp);
        let r = run(&p, &sp, &mut ev, 57);
        for w in r.best_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    /// An evaluator that scores like the synthetic landscape but reports no
    /// gradient support, exercising the fallback path.
    struct NoGradient(SyntheticEvaluator);
    impl crate::evaluator::BatchEvaluator for NoGradient {
        fn evaluate(&mut self, confs: &mut [Conformation]) {
            self.0.evaluate(confs)
        }
        fn pairs_per_eval(&self) -> u64 {
            1
        }
        // evaluate_with_gradients: default None.
    }

    #[test]
    fn lamarckian_falls_back_without_gradients() {
        let sp = spots(2);
        let p = MetaheuristicParams {
            improve_fraction: 1.0,
            improve: ImproveStrategy::Lamarckian { steps: 5, step_size: 0.3, angle_step: 0.1 },
            ..ga(3)
        };
        let mut ev = NoGradient(evaluator_for(&sp));
        let r = run(&p, &sp, &mut ev, 59);
        assert!(r.best.is_scored());
        assert_eq!(r.evaluations, p.evals_per_spot() * 2, "fallback keeps the same budget");
        // Still optimizes (stochastically).
        assert!(r.best_history.last().unwrap() <= &r.best_history[0]);
    }

    /// Scores its first batch NaN, later ones like the synthetic landscape.
    struct NanFirst(SyntheticEvaluator, bool);
    impl crate::evaluator::BatchEvaluator for NanFirst {
        fn evaluate(&mut self, confs: &mut [Conformation]) {
            self.0.evaluate(confs);
            if !std::mem::replace(&mut self.1, true) {
                confs.iter_mut().for_each(|c| c.score = f64::NAN);
            }
        }
        fn pairs_per_eval(&self) -> u64 {
            1
        }
    }

    #[test]
    fn nan_incumbents_yield_to_finite_candidates() {
        // A NaN-scored population, then one improve step: every acceptance
        // rule must replace every NaN incumbent with its finite candidate.
        let sp = spots(1);
        for improve in [
            ImproveStrategy::HillClimb { steps: 1 },
            ImproveStrategy::SimulatedAnnealing { steps: 1, t0: 1.0, cooling: 0.8 },
            ImproveStrategy::Tabu { steps: 1, neighbors: 3 },
        ] {
            let p = MetaheuristicParams {
                population_per_spot: 8,
                improve_fraction: 1.0,
                improve,
                single_pass: true,
                ..ga(0)
            };
            let mut ev = NanFirst(evaluator_for(&sp), false);
            let trace = Trace::disabled();
            let mut driver = Driver::new(&p, &sp, &[], &trace);
            let mut tok = SpotToken::new(0, &sp[0], 3);
            while tok.phase != Phase::Retire {
                build(&p, &sp[0], &mut tok);
                submit(&mut ev, std::slice::from_mut(&mut tok), &mut Vec::new(), |_| None);
                driver.step(&mut tok);
                driver.settle(&mut tok);
            }
            driver.step(&mut tok);
            driver.settle(&mut tok);
            let pop = driver.pops[0].as_ref().unwrap();
            assert_eq!(pop.len(), 8);
            assert!(pop.iter().all(|c| c.score.is_finite()), "{improve:?}: {pop:?}");
        }
    }

    #[test]
    fn simulated_annealing_improver_runs() {
        let sp = spots(2);
        let mut ev = evaluator_for(&sp);
        let p = MetaheuristicParams {
            improve_fraction: 1.0,
            improve: ImproveStrategy::SimulatedAnnealing { steps: 5, t0: 1.0, cooling: 0.8 },
            ..ga(5)
        };
        let r = run(&p, &sp, &mut ev, 19);
        assert_eq!(r.evaluations, p.evals_per_spot() * 2);
    }

    #[test]
    fn diversity_history_shows_contraction() {
        // Elitist selection on a single-basin landscape must contract the
        // populations over generations.
        let sp = spots(2);
        let mut ev = evaluator_for(&sp);
        let p = MetaheuristicParams { mutation_prob: 0.05, ..ga(25) };
        let r = run(&p, &sp, &mut ev, 61);
        assert_eq!(r.diversity_history.len(), 1 + r.generations_run);
        let first = r.diversity_history[0];
        let last = *r.diversity_history.last().unwrap();
        assert!(last < first * 0.6, "no contraction: {first} -> {last}");
        assert!(r.diversity_history.iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn population_never_regresses() {
        // Elitist include: generation bests are non-increasing.
        let sp = spots(3);
        let mut ev = evaluator_for(&sp);
        let r = run(&ga(20), &sp, &mut ev, 23);
        for w in r.best_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "best regressed: {:?}", w);
        }
    }

    #[test]
    #[should_panic]
    fn empty_spots_panics() {
        let mut ev = SyntheticEvaluator::new(vec![Vec3::ZERO]);
        run(&ga(1), &[], &mut ev, 1);
    }

    #[test]
    fn seeded_run_injects_good_solution() {
        let sp = spots(2);
        // A perfect solution for spot 0, pre-scored.
        let mut seed_conf = Conformation::new(
            vsmath::RigidTransform::from_translation(sp[0].center + Vec3::new(1.0, 1.0, 0.5)),
            0,
        );
        seed_conf.score = 0.0;
        let p = ga(0); // no generations: initial population only
        let mut e1 = evaluator_for(&sp);
        let r_plain = run(&p, &sp, &mut e1, 31);
        let mut e2 = evaluator_for(&sp);
        let r_seeded = crate::engine::run_seeded(&p, &sp, &mut e2, 31, &[seed_conf]);
        assert_eq!(r_seeded.best.score, 0.0);
        assert!(r_plain.best.score > 0.0);
    }

    #[test]
    fn unscored_seeds_are_ignored() {
        let sp = spots(1);
        let unscored = Conformation::new(vsmath::RigidTransform::IDENTITY, 0);
        let mut ev = evaluator_for(&sp);
        // Must not panic or inject NaN into the population.
        let r = crate::engine::run_seeded(&ga(2), &sp, &mut ev, 37, &[unscored]);
        assert!(r.best.is_scored());
    }

    #[test]
    fn seeds_for_unknown_spots_are_ignored() {
        let sp = spots(1);
        let mut foreign = Conformation::new(vsmath::RigidTransform::IDENTITY, 99);
        foreign.score = -1e9;
        let mut ev = evaluator_for(&sp);
        let r = crate::engine::run_seeded(&ga(1), &sp, &mut ev, 41, &[foreign]);
        assert!(r.best.score > -1e9);
    }

    #[test]
    fn batch_trace_structure_for_plain_ga() {
        // init batch + one offspring batch per generation.
        let sp = spots(2);
        let mut ev = evaluator_for(&sp);
        let r = run(&ga(4), &sp, &mut ev, 29);
        assert_eq!(r.batch_trace.len(), 1 + 4);
        assert_eq!(r.batch_trace[0], 32 * 2);
        for &b in &r.batch_trace[1..] {
            assert_eq!(b, 32 * 2);
        }
    }
}
