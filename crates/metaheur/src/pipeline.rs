//! The engine's execution modes: the stage ring that overlaps variation
//! with scoring on the virtual-time axis, and the host cost model that
//! makes it comparable with the lockstep loop (DESIGN.md §12).
//!
//! The search itself — the per-spot state machine and its operators — lives
//! in [`crate::engine`]. This module holds only how the machine is
//! scheduled and what its host work costs in virtual time. The lockstep
//! loop alternates host phases (Select/Combine/Improve proposal
//! construction) with device phases (batch scoring): while the host breeds
//! generation N+1, every device sits idle, and while the devices score, the
//! host waits. The ring instead runs the same state machine as stages
//! connected by FIFO queues, each stage on a host clock of its own:
//!
//! ```text
//!   selector(driver) → seeder / breeder → evaluator → selector …
//! ```
//!
//! Each surface spot circulates as a token carrying its population, RNG
//! stream and per-lap scoring batch. Independent spots advance through
//! their generations asynchronously — spot A can breed generation 5 while
//! spot B's generation 3 proposals are still on a device — so the
//! evaluator always has work and per-device deques never drain at a
//! generation boundary.
//!
//! The ring is a schedule, not a thread topology: the calling thread steps
//! variation, scoring and selection in turn, each draining the queue in
//! front of it, and keeps everything whose result depends on order — the
//! stage clocks, each submission's release, plan and device clocks, the
//! trace events and the run's records. The host work of every token the
//! selector holds — scoring its charged batch, selection, and building its
//! next batch — is one [`vsscore::CpuPool`] job per step, each token on
//! whichever thread claims it; variation itself builds only tokens that
//! arrive unbuilt (the initial wave and replacement admissions). The
//! overlap the ring models is on the virtual clocks.
//!
//! # Determinism contract
//!
//! A spot's trajectory is a function of the parameters, the seed and the
//! scores alone: both schedulers run the one `build` / `step` pair of
//! [`crate::engine`], every RNG draw a spot makes happens in the same order,
//! and the end condition is per spot ([`crate::EndCondition`]). So `best`,
//! `best_per_spot`, `best_history`, `diversity_history`, `evaluations` and
//! `generations_run` are bit-identical across modes and depths for every
//! end condition. What *does* differ is batch composition: the evaluator
//! coalesces batches across spots at different generations, so
//! `batch_trace` is a different (but still deterministic) sequence — see
//! [`RunResult::batch_trace`]. Every stage is a function of the sequence of
//! tokens it is handed, so `batch_trace`, every virtual time and the trace
//! payloads depend on the parameters, the seed and the depth alone.
//!
//! # Learned-oracle re-seeding
//!
//! When the evaluator underneath is a `vsched` executor running
//! `Strategy::Oracle`, every coalesced batch the ring submits flows
//! through the same virtual half (`charge`, or `evaluate_after` for an
//! evaluator that does not split) as charged lockstep's generation
//! batches. The executor re-queries its learned cost model for fresh deque
//! seeds at each such call, so the ring re-seeds at (cross-spot)
//! generation boundaries for free — no extra coupling between the
//! variation stage and the scheduler is needed, and the determinism
//! contract above is unchanged (the oracle consumes only virtual-time
//! measurements).
//!
//! # Progress
//!
//! At most `4·depth` tokens exist at once (a retiring spot's replacement is
//! admitted only once it is harvested), and some queue is non-empty until
//! every spot is harvested. The evaluator holds a token back only while
//! another live token is still on its way to it; once every live token is
//! held, it submits them. Retiring spots make one final farewell lap (phase
//! `Retire`) so the evaluator can keep the live-token count its submission
//! rule needs.

use crate::engine::{self, Driver, Phase, RunResult, SpotToken};
use crate::evaluator::{BatchEvaluator, HostScorer};
use crate::params::MetaheuristicParams;
use std::collections::VecDeque;
use vsmol::{Conformation, Spot};
use vstrace::{Event, SpanGuard, Trace};

/// Execution mode for the generational engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineExec {
    /// The lockstep loop with the host charged: every scoring batch is a
    /// barrier between the host's variation/selection work and the
    /// devices. The search, `batch_trace` included, is bit-identical to
    /// [`crate::run`] (Tables 6–9 reproduce exactly).
    #[default]
    Lockstep,
    /// The stage ring, admitting `4·depth` spots at a time. Overlaps
    /// variation of one generation with scoring of another; the search is
    /// bit-identical to lockstep, only `batch_trace` differs (see the
    /// module docs for the exact contract).
    Pipelined {
        /// At most `4·depth` spot tokens circulate at once (≥ 1; any
        /// larger value admits every spot).
        depth: usize,
    },
}

impl EngineExec {
    /// Depth of `"pipelined"` parsed without an explicit one.
    pub const DEFAULT_DEPTH: usize = 2;
}

impl std::str::FromStr for EngineExec {
    type Err = String;

    /// Parse `lockstep`, `pipelined` or `pipelined:<depth>` (the CLI
    /// syntax of `dock --exec`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "lockstep" => Ok(EngineExec::Lockstep),
            "pipelined" => Ok(EngineExec::Pipelined { depth: EngineExec::DEFAULT_DEPTH }),
            other => match other.strip_prefix("pipelined:") {
                Some(d) => d
                    .parse::<usize>()
                    .map_err(|e| format!("bad pipeline depth {d:?}: {e}"))
                    .map(|depth| EngineExec::Pipelined { depth: depth.max(1) }),
                None => Err(format!("unknown exec mode {other:?} (lockstep | pipelined[:depth])")),
            },
        }
    }
}

/// Modeled host-side costs, charged on the engine's virtual-time axis so
/// lockstep and pipelined runs are compared honestly: both modes charge
/// the *same* per-conformation variation/selection work and per-batch
/// submission overhead; they differ only in whether that host time
/// serializes with device time (lockstep) or overlaps it (pipelined).
/// [`run_exec`] always charges [`HostCosts::default`]: the model is a
/// property of the host, not a caller's choice.
#[derive(Debug, Clone, Copy)]
pub struct HostCosts {
    /// Host seconds to construct one conformation (Select/Combine draw,
    /// crossover, perturbation) on the seeder/breeder stages.
    pub variation_per_conf_s: f64,
    /// Host seconds to sort/accept/include one scored conformation on the
    /// selector stage.
    pub select_per_conf_s: f64,
    /// Fixed host seconds to marshal and submit one scoring batch.
    pub submit_per_batch_s: f64,
}

impl Default for HostCosts {
    fn default() -> Self {
        // Calibrated against the gpusim pair-sweep model so host work is a
        // comparable fraction of device time on the Table 5 complexes —
        // the regime where the per-generation barrier actually hurts.
        HostCosts {
            variation_per_conf_s: 3.0e-7,
            select_per_conf_s: 1.0e-7,
            submit_per_batch_s: 1.0e-5,
        }
    }
}

impl HostCosts {
    /// Total host seconds the lockstep engine charges for one batch of
    /// `n` conformations (variation + selection + submission).
    fn lockstep_batch_s(&self, n: usize) -> f64 {
        n as f64 * (self.variation_per_conf_s + self.select_per_conf_s) + self.submit_per_batch_s
    }
}

/// The ring's evaluator coalesces per-spot batches until at least this
/// many conformations are pending (or every live token has arrived), then
/// submits them as one scoring batch — keeping device occupancy close to
/// the lockstep loop's spot-spanning batches.
const COALESCE_ITEMS: usize = 512;

// ---------------------------------------------------------------------------
// Entry point and the lockstep cost decorator.
// ---------------------------------------------------------------------------

/// Run the generational engine in the chosen execution mode, with
/// warm-start seeds and a trace. Both modes charge the [`HostCosts`] model
/// on the evaluator's virtual clocks so their times compare honestly; the
/// search is the one [`crate::run_seeded`] / [`crate::run_traced`] perform.
pub fn run_exec<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    evaluator: &mut E,
    seed: u64,
    seed_confs: &[Conformation],
    trace: &Trace,
    exec: EngineExec,
) -> RunResult {
    match exec {
        EngineExec::Lockstep => {
            let mut staged = StagedHost {
                inner: evaluator,
                costs: HostCosts::default(),
                host_vt: 0.0,
                last_completion: 0.0,
            };
            engine::run_lockstep(params, spots, &mut staged, seed, seed_confs, trace)
        }
        EngineExec::Pipelined { depth } => {
            run_ring(params, spots, evaluator, seed, seed_confs, trace, depth.max(1))
        }
    }
}

/// The whole difference between the classic run and charged lockstep: an
/// evaluator decorator that puts the lockstep loop's host phases on the
/// virtual-time axis. Each batch is released (`evaluate_after`, or the
/// inner evaluator's `charge` when it splits, either of which barriers
/// every device clock) only after the host has re-done selection on the
/// previous results and bred the batch — exactly the serialization the
/// ring removes.
struct StagedHost<'e, E: ?Sized> {
    inner: &'e mut E,
    costs: HostCosts,
    host_vt: f64,
    last_completion: f64,
}

impl<E: BatchEvaluator + ?Sized> StagedHost<'_, E> {
    /// Put the host phases of a batch of `items` on the host clock, after
    /// the previous batch's results came back: when the batch is released.
    fn release(&mut self, items: usize) -> f64 {
        self.host_vt = self.host_vt.max(self.last_completion) + self.costs.lockstep_batch_s(items);
        self.host_vt
    }
}

impl<E: BatchEvaluator + ?Sized> BatchEvaluator for StagedHost<'_, E> {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        let release = self.release(confs.len());
        self.last_completion = self.inner.evaluate_after(confs, release);
    }

    /// What `evaluate` does to the clocks, with the inner evaluator's own
    /// charge in place of its `evaluate_after`.
    fn charge(&mut self, items: usize, _release: Option<f64>) -> f64 {
        let release = self.release(items);
        self.last_completion = self.inner.charge(items, Some(release));
        self.last_completion
    }

    fn host_scorer(&self) -> Option<&dyn HostScorer> {
        self.inner.host_scorer()
    }

    fn evaluate_with_gradients(
        &mut self,
        confs: &mut [Conformation],
    ) -> Option<Vec<vsscore::RigidGradient>> {
        let grads = self.inner.evaluate_with_gradients(confs);
        if grads.is_some() {
            // Host-evaluated gradients: charge the host work, no device
            // release involved. The None fallback re-enters `evaluate`,
            // which charges there instead.
            self.last_completion = self.release(confs.len());
        }
        grads
    }

    fn pairs_per_eval(&self) -> u64 {
        self.inner.pairs_per_eval()
    }
}

// ---------------------------------------------------------------------------
// The ring.
// ---------------------------------------------------------------------------

/// Run the stage ring on the calling thread: step variation, scoring and
/// selection in turn, each draining the queue in front of it, until every
/// spot is harvested. See the module docs for the determinism and progress
/// arguments.
fn run_ring<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    evaluator: &mut E,
    seed: u64,
    seed_confs: &[Conformation],
    trace: &Trace,
    depth: usize,
) -> RunResult {
    let costs = HostCosts::default();
    let pool = vsscore::shared_pool(vsscore::host_threads());
    let mut driver = Driver::new(params, spots, seed_confs, trace);
    let wave = depth.saturating_mul(4).min(spots.len());
    let admit = |si: usize| SpotToken::new(si, &spots[si], seed);
    let mut to_vary: VecDeque<SpotToken> = (0..wave).map(admit).collect();
    let mut to_score: VecDeque<SpotToken> = VecDeque::new();
    let mut to_select: VecDeque<SpotToken> = VecDeque::new();
    let mut next_spot = wave;
    // Each stage's host clock.
    let (mut seed_vt, mut breed_vt, mut score_vt, mut select_vt) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    // The evaluator's state: `live` counts the tokens it has seen and not
    // yet seen retire; `held` is its next submission, of `held_items`.
    let mut live = wave;
    let mut held: Vec<SpotToken> = Vec::new();
    let mut held_items = 0usize;
    let mut batch_trace: Vec<u64> = Vec::new();

    while driver.harvested < spots.len() {
        assert!(
            !(to_vary.is_empty() && to_score.is_empty() && to_select.is_empty()),
            "stage ring stalled with spots left to harvest"
        );
        if let Some(_span) = step(trace, "stage:vary", "vary", to_vary.len()) {
            // The selector's host job built every returning token's batch;
            // only admitted ones, still at `Seed`, arrive without, and are
            // built in one pool job. Then the seeder's and the breeder's
            // clocks advance over the tokens in queue order.
            if to_vary.iter().any(|t| t.phase == Phase::Seed) {
                pool.for_each_mut(to_vary.make_contiguous(), |tok| {
                    if tok.phase == Phase::Seed {
                        engine::build(params, &spots[tok.si], tok);
                    }
                });
            }
            for tok in &mut to_vary {
                let clock = match tok.phase {
                    Phase::Seed => &mut seed_vt,
                    Phase::Retire => continue,
                    _ => &mut breed_vt,
                };
                *clock =
                    clock.max(tok.ready_vt) + tok.batch.len() as f64 * costs.variation_per_conf_s;
                tok.ready_vt = *clock;
            }
            to_score.append(&mut to_vary);
        }
        if let Some(_span) = step(trace, "stage:score", "score", to_score.len()) {
            for mut tok in to_score.drain(..) {
                if tok.fresh {
                    tok.fresh = false;
                    live += 1;
                }
                if tok.phase == Phase::Retire {
                    live -= 1;
                    to_select.push_back(tok);
                } else {
                    held_items += tok.batch.len();
                    held.push(tok);
                }
                // Submit when enough work is pending to keep the devices
                // saturated, or when every live token has arrived (waiting
                // longer could not grow the batch).
                if !held.is_empty() && (held_items >= COALESCE_ITEMS || held.len() >= live) {
                    engine::submit(evaluator, &mut held, &mut batch_trace, |release| {
                        // The submission leaves the host once the latest
                        // contributor is ready; scoring completes at the
                        // device's pace after that.
                        score_vt = score_vt.max(release) + costs.submit_per_batch_s;
                        Some(score_vt)
                    });
                    to_select.extend(held.drain(..));
                    held_items = 0;
                }
            }
        }
        if let Some(_span) = step(trace, "stage:select", "select", to_select.len()) {
            // Selection work on a scored batch happens on the selector's
            // own clock, after the scores are available.
            for tok in to_select.iter_mut().filter(|t| t.phase != Phase::Retire) {
                select_vt =
                    select_vt.max(tok.ready_vt) + tok.batch.len() as f64 * costs.select_per_conf_s;
                tok.ready_vt = select_vt;
            }
            // Score what was charged, select and build the next batches:
            // one pool job over every token in the queue.
            engine::host_job(&pool, evaluator.host_scorer(), &driver, to_select.make_contiguous());
            for mut tok in to_select.drain(..) {
                let harvested = driver.settle(&mut tok);
                driver.announce();
                if !harvested {
                    to_vary.push_back(tok);
                } else if next_spot < spots.len() {
                    // A token admitted after the initial wave is `fresh`:
                    // the evaluator counts it live on first sight.
                    let mut tok = admit(next_spot);
                    tok.fresh = true;
                    to_vary.push_back(tok);
                    next_spot += 1;
                }
            }
        }
    }
    driver.into_result(batch_trace)
}

/// Begin a stage's step: record how many tokens are queued in front of it
/// and open its span. `None` when the queue is empty and there is nothing
/// to step.
fn step(
    trace: &Trace,
    span: &'static str,
    stage: &'static str,
    queued: usize,
) -> Option<SpanGuard> {
    (queued > 0).then(|| {
        trace.emit(Event::StageDepth { stage, depth: u32::try_from(queued).unwrap_or(u32::MAX) });
        trace.span(span)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SyntheticEvaluator;
    use crate::params::{EndCondition, ImproveStrategy, SelectStrategy};
    use crate::{run, run_seeded};
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

    fn evaluator_for(spots: &[Spot]) -> SyntheticEvaluator {
        SyntheticEvaluator::new(spots.iter().map(|s| s.center + Vec3::new(1.0, 1.0, 0.5)).collect())
    }

    fn ga(gens: usize) -> MetaheuristicParams {
        MetaheuristicParams {
            name: "pipe-ga".into(),
            population_per_spot: 16,
            select: SelectStrategy::TruncationBest { fraction: 0.5 },
            offspring_per_spot: 16,
            combine: crate::params::Combine::Crossover,
            improve_fraction: 0.0,
            improve: ImproveStrategy::None,
            mutation_prob: 0.3,
            max_shift: 1.0,
            max_angle: 0.4,
            end: EndCondition::Generations(gens),
            single_pass: false,
        }
    }

    fn assert_bit_identical(a: &RunResult, b: &RunResult) {
        assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
        assert_eq!(a.best.pose, b.best.pose);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.generations_run, b.generations_run);
        assert_eq!(a.best_per_spot.len(), b.best_per_spot.len());
        for (x, y) in a.best_per_spot.iter().zip(&b.best_per_spot) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.pose, y.pose);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.best_history), bits(&b.best_history));
        assert_eq!(bits(&a.diversity_history), bits(&b.diversity_history));
        assert_eq!(
            a.batch_trace.iter().sum::<u64>(),
            b.batch_trace.iter().sum::<u64>(),
            "same total items, possibly different coalescing"
        );
    }

    fn pipelined(params: &MetaheuristicParams, sp: &[Spot], seed: u64, depth: usize) -> RunResult {
        let mut ev = evaluator_for(sp);
        let exec = EngineExec::Pipelined { depth };
        run_exec(params, sp, &mut ev, seed, &[], &Trace::disabled(), exec)
    }

    #[test]
    fn pipelined_matches_lockstep_plain_ga() {
        let sp = spots(5);
        let p = ga(7);
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 42);
        for depth in [1, 2, 4] {
            assert_bit_identical(&lock, &pipelined(&p, &sp, 42, depth));
        }
    }

    #[test]
    fn pipelined_matches_lockstep_hill_climb() {
        let sp = spots(3);
        let p = MetaheuristicParams {
            improve_fraction: 0.5,
            improve: ImproveStrategy::HillClimb { steps: 3 },
            ..ga(5)
        };
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 7);
        assert_bit_identical(&lock, &pipelined(&p, &sp, 7, 2));
    }

    #[test]
    fn pipelined_matches_lockstep_simulated_annealing() {
        let sp = spots(2);
        let p = MetaheuristicParams {
            improve_fraction: 1.0,
            improve: ImproveStrategy::SimulatedAnnealing { steps: 4, t0: 1.0, cooling: 0.8 },
            ..ga(4)
        };
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 19);
        assert_bit_identical(&lock, &pipelined(&p, &sp, 19, 3));
    }

    #[test]
    fn pipelined_matches_lockstep_tournament() {
        let sp = spots(4);
        let p = MetaheuristicParams { select: SelectStrategy::Tournament { k: 3 }, ..ga(6) };
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 17);
        assert_bit_identical(&lock, &pipelined(&p, &sp, 17, 2));
    }

    #[test]
    fn pipelined_matches_lockstep_lamarckian() {
        let sp = spots(3);
        let p = MetaheuristicParams {
            improve_fraction: 0.5,
            improve: ImproveStrategy::Lamarckian { steps: 3, step_size: 0.25, angle_step: 0.05 },
            mutation_prob: 0.0,
            ..ga(4)
        };
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 51);
        assert_bit_identical(&lock, &pipelined(&p, &sp, 51, 2));
    }

    #[test]
    fn pipelined_matches_lockstep_single_pass() {
        let sp = spots(3);
        let p = MetaheuristicParams {
            population_per_spot: 64,
            improve_fraction: 1.0,
            improve: ImproveStrategy::HillClimb { steps: 6 },
            single_pass: true,
            ..ga(0)
        };
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 3);
        assert_bit_identical(&lock, &pipelined(&p, &sp, 3, 2));
    }

    #[test]
    fn pipelined_matches_lockstep_zero_generations() {
        let sp = spots(2);
        let p = ga(0);
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 31);
        assert_bit_identical(&lock, &pipelined(&p, &sp, 31, 1));
    }

    #[test]
    fn pipelined_more_spots_than_admitted_tokens() {
        // depth 1 admits 4 tokens; 9 spots forces replacement admissions.
        let sp = spots(9);
        let p = MetaheuristicParams {
            improve_fraction: 0.25,
            improve: ImproveStrategy::HillClimb { steps: 2 },
            ..ga(4)
        };
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 23);
        assert_bit_identical(&lock, &pipelined(&p, &sp, 23, 1));
    }

    #[test]
    fn pipelined_seeded_injects_warm_start() {
        let sp = spots(2);
        let mut seed_conf = Conformation::new(
            vsmath::RigidTransform::from_translation(sp[0].center + Vec3::new(1.0, 1.0, 0.5)),
            0,
        );
        seed_conf.score = 0.0;
        let p = ga(0);
        let mut e1 = evaluator_for(&sp);
        let lock = run_seeded(&p, &sp, &mut e1, 31, &[seed_conf]);
        let mut e2 = evaluator_for(&sp);
        let exec = EngineExec::Pipelined { depth: 2 };
        let pipe = run_exec(&p, &sp, &mut e2, 31, &[seed_conf], &Trace::disabled(), exec);
        assert_bit_identical(&lock, &pipe);
        assert_eq!(pipe.best.score, 0.0);
    }

    #[test]
    fn pipelined_batch_trace_is_deterministic() {
        let sp = spots(6);
        let p = MetaheuristicParams {
            improve_fraction: 0.5,
            improve: ImproveStrategy::HillClimb { steps: 2 },
            ..ga(5)
        };
        let r1 = pipelined(&p, &sp, 13, 2);
        let r2 = pipelined(&p, &sp, 13, 2);
        assert_eq!(r1.batch_trace, r2.batch_trace, "flush composition must be reproducible");
        assert_eq!(r1.batch_trace.iter().sum::<u64>(), r1.evaluations);
    }

    #[test]
    fn pipelined_convergence_reaches_similar_best() {
        // The end condition is per spot under both schedulers, so a
        // convergence-ended run is bit-identical too — spots stopping at
        // different generations included.
        let sp = spots(3);
        let p = MetaheuristicParams {
            end: EndCondition::Convergence { patience: 4, max: 60 },
            mutation_prob: 0.0,
            ..ga(0)
        };
        let mut ev = evaluator_for(&sp);
        let lock = run(&p, &sp, &mut ev, 13);
        assert!(lock.generations_run < 60, "never converged");
        for depth in [1, 2, 4] {
            assert_bit_identical(&lock, &pipelined(&p, &sp, 13, depth));
        }
    }

    #[test]
    fn lockstep_exec_is_bit_identical_to_plain_run() {
        let sp = spots(3);
        let p = MetaheuristicParams {
            improve_fraction: 0.5,
            improve: ImproveStrategy::HillClimb { steps: 2 },
            ..ga(6)
        };
        let mut e1 = evaluator_for(&sp);
        let plain = run(&p, &sp, &mut e1, 11);
        let mut e2 = evaluator_for(&sp);
        let staged = run_exec(&p, &sp, &mut e2, 11, &[], &Trace::disabled(), EngineExec::Lockstep);
        assert_bit_identical(&plain, &staged);
        assert_eq!(plain.batch_trace, staged.batch_trace, "lockstep keeps program order");
    }

    #[test]
    fn run_exec_pipelined_matches_lockstep() {
        let sp = spots(4);
        let p = ga(5);
        let mut e1 = evaluator_for(&sp);
        let lock = run_exec(&p, &sp, &mut e1, 5, &[], &Trace::disabled(), EngineExec::Lockstep);
        let mut e2 = evaluator_for(&sp);
        let pipe = run_exec(
            &p,
            &sp,
            &mut e2,
            5,
            &[],
            &Trace::disabled(),
            EngineExec::Pipelined { depth: 2 },
        );
        assert_bit_identical(&lock, &pipe);
    }

    #[test]
    fn pipelined_emits_stage_events() {
        let sp = spots(3);
        let p = ga(4);
        let trace = Trace::new();
        let mut ev = evaluator_for(&sp);
        let r = run_exec(&p, &sp, &mut ev, 9, &[], &trace, EngineExec::Pipelined { depth: 2 });
        let data = trace.snapshot();
        let mut stages = std::collections::BTreeSet::new();
        let mut gen_done = 0;
        for s in data.events() {
            match s.event {
                Event::StageDepth { stage, depth } => {
                    assert!(depth >= 1);
                    stages.insert(stage);
                }
                Event::GenerationDone { .. } => gen_done += 1,
                _ => {}
            }
        }
        let expect = std::collections::BTreeSet::from(["vary", "score", "select"]);
        assert_eq!(stages, expect, "StageDepth names");
        assert_eq!(gen_done, r.generations_run);
    }

    #[test]
    fn generation_done_keeps_coming_after_a_spot_retires() {
        // Under Convergence spots retire at different generations; a retired
        // spot counts as done with every later one, so both schedulers emit
        // one GenerationDone per generation the slowest spot ran, each with
        // the carried-forward best and cumulative evaluations.
        let sp = spots(3);
        let p = MetaheuristicParams {
            end: EndCondition::Convergence { patience: 3, max: 60 },
            mutation_prob: 0.0,
            ..ga(0)
        };
        let mut per_mode = Vec::new();
        for exec in [EngineExec::Lockstep, EngineExec::Pipelined { depth: 2 }] {
            let trace = Trace::new();
            let mut ev = evaluator_for(&sp);
            let r = run_exec(&p, &sp, &mut ev, 13, &[], &trace, exec);
            let done: Vec<(u32, u64, u64)> = trace
                .snapshot()
                .events()
                .filter_map(|s| match s.event {
                    Event::GenerationDone { generation, best_score, evaluations } => {
                        Some((generation, best_score.to_bits(), evaluations))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(done.len(), r.generations_run, "{exec:?}");
            for (j, &(generation, best, _)) in done.iter().enumerate() {
                assert_eq!(generation as usize, j, "{exec:?}");
                assert_eq!(best, r.best_history[j + 1].to_bits(), "{exec:?}");
            }
            assert_eq!(done.last().unwrap().2, r.evaluations, "{exec:?}");
            per_mode.push(done);
        }
        assert_eq!(per_mode[0], per_mode[1], "same events from both schedulers");
    }

    #[test]
    fn exec_mode_parses_from_cli_syntax() {
        assert_eq!("lockstep".parse::<EngineExec>().unwrap(), EngineExec::Lockstep);
        assert_eq!(
            "pipelined".parse::<EngineExec>().unwrap(),
            EngineExec::Pipelined { depth: EngineExec::DEFAULT_DEPTH }
        );
        assert_eq!(
            "pipelined:4".parse::<EngineExec>().unwrap(),
            EngineExec::Pipelined { depth: 4 }
        );
        assert!("warp".parse::<EngineExec>().is_err());
        assert!("pipelined:x".parse::<EngineExec>().is_err());
    }
}
