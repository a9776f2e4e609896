//! The engine's execution modes: the stage ring that overlaps variation
//! with scoring, and the host cost model that makes it comparable with the
//! lockstep loop (DESIGN.md §12).
//!
//! The search itself — the per-spot state machine and its operators — lives
//! in [`crate::engine`]. This module holds only what is about threads and
//! virtual host time. The lockstep loop alternates host phases
//! (Select/Combine/Improve proposal construction) with device phases (batch
//! scoring): while the host breeds generation N+1, every device sits idle,
//! and while the devices score, the host waits. The ring instead runs the
//! same state machine as four stages connected by bounded SPSC channels:
//!
//! ```text
//!   selector(driver) → seeder → breeder → evaluator → selector …
//! ```
//!
//! Each surface spot circulates as a token carrying its population, RNG
//! stream and per-lap scoring batch. Independent spots advance through
//! their generations asynchronously — spot A can breed generation 5 while
//! spot B's generation 3 proposals are still on a device — so the
//! evaluator stage always has work and per-device deques never drain at a
//! generation boundary.
//!
//! # Determinism contract
//!
//! A spot's trajectory is a function of the parameters, the seed and the
//! scores alone: both schedulers run the one `build` / `handle` pair of
//! [`crate::engine`], every RNG draw a spot makes happens in the same order,
//! and the end condition is per spot ([`crate::EndCondition`]). So `best`,
//! `best_per_spot`, `best_history`, `diversity_history`, `evaluations` and
//! `generations_run` are bit-identical across modes and depths for every
//! end condition. What *does* differ is batch composition: the evaluator
//! stage coalesces batches across spots at different generations, so
//! `batch_trace` is a different (but still deterministic) sequence — see
//! [`RunResult::batch_trace`].
//!
//! # Learned-oracle re-seeding
//!
//! When the evaluator underneath is a `vsched` executor running
//! `Strategy::Oracle`, every coalesced batch the ring submits flows
//! through the same `evaluate_after` seam as charged lockstep's generation
//! batches. The executor re-queries its learned cost model for fresh deque
//! seeds at each such call, so the ring re-seeds at (cross-spot)
//! generation boundaries for free — no extra coupling between the
//! variation stages and the scheduler is needed, and the determinism
//! contract above is unchanged (the oracle consumes only virtual-time
//! measurements).
//!
//! # Deadlock freedom
//!
//! All four channels hold at most `depth` tokens and at most `4·depth`
//! tokens are admitted to the ring at once. A send-cycle deadlock needs
//! every channel full plus one token held by each of the four blocked
//! stages — `4·depth + 4` tokens, more than can exist. Retiring spots
//! make one final farewell lap (phase `Retire`) so the evaluator can track
//! the live-token count it needs for its submission rule; farewell tokens
//! are replaced, not added, preserving the bound. The `model_*` tests
//! exhaustively check the channel protocol under the `vscheck-model`
//! feature.

use crate::engine::{self, Driver, Phase, RunResult, SpotToken};
use crate::evaluator::BatchEvaluator;
use crate::params::MetaheuristicParams;
use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use vsmol::{Conformation, Spot};
use vstrace::{Event, Trace};

/// Execution mode for the generational engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineExec {
    /// The lockstep loop with the host charged: every scoring batch is a
    /// barrier between the host's variation/selection work and the
    /// devices. The search, `batch_trace` included, is bit-identical to
    /// [`crate::run`] (Tables 6–9 reproduce exactly).
    #[default]
    Lockstep,
    /// The stage ring with channels of capacity `depth`. Overlaps
    /// variation of one generation with scoring of another; the search is
    /// bit-identical to lockstep, only `batch_trace` differs (see the
    /// module docs for the exact contract).
    Pipelined {
        /// Bounded capacity of each stage channel (≥ 1); at most `4·depth`
        /// spot tokens circulate at once.
        depth: usize,
    },
}

impl EngineExec {
    /// Channel depth of `"pipelined"` parsed without an explicit depth.
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
// Bounded stage channel.
// ---------------------------------------------------------------------------

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO channel between two pipeline stages (used SPSC here,
/// though the protocol is safe for any number of endpoints). `send` blocks
/// on a full queue (backpressure — this is what throttles how far ahead
/// the variation stages can run), `recv` blocks on an empty one. Closing
/// wakes all waiters: pending items can still be drained, further sends
/// return the rejected value so no batch is silently lost on teardown.
pub(crate) struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
    stage: &'static str,
    trace: Trace,
}

impl<T> Channel<T> {
    pub(crate) fn new(cap: usize, stage: &'static str, trace: Trace) -> Channel<T> {
        Channel {
            state: Mutex::new(ChannelState { queue: VecDeque::with_capacity(cap), closed: false }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
            stage,
            trace,
        }
    }

    /// Blocking send. Returns the value back if the channel was closed
    /// before it could be enqueued.
    pub(crate) fn send(&self, value: T) -> Result<(), T> {
        // PANICS: lock poisoning means a stage already panicked; propagate.
        let mut st = self.state.lock().expect("stage channel poisoned");
        loop {
            if st.closed {
                return Err(value);
            }
            if st.queue.len() < self.cap {
                break;
            }
            // PANICS: lock poisoning means a stage already panicked.
            st = self.not_full.wait(st).expect("stage channel poisoned");
        }
        st.queue.push_back(value);
        let depth = st.queue.len() as u32;
        self.not_empty.notify_one();
        drop(st);
        self.trace.emit(Event::StageDepth { stage: self.stage, depth });
        Ok(())
    }

    /// Blocking receive; `None` once the channel is closed *and* drained.
    pub(crate) fn recv(&self) -> Option<T> {
        // PANICS: lock poisoning means a stage already panicked; propagate.
        let mut st = self.state.lock().expect("stage channel poisoned");
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.not_full.notify_one();
                return Some(v);
            }
            if st.closed {
                return None;
            }
            // PANICS: lock poisoning means a stage already panicked.
            st = self.not_empty.wait(st).expect("stage channel poisoned");
        }
    }

    /// Close the channel and wake every blocked sender/receiver.
    pub(crate) fn close(&self) {
        // PANICS: lock poisoning means a stage already panicked; propagate.
        let mut st = self.state.lock().expect("stage channel poisoned");
        st.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Closes a channel when dropped, so a panicking stage tears the ring
/// down instead of deadlocking its neighbours.
struct CloseGuard<'a, T>(&'a Channel<T>);

impl<T> Drop for CloseGuard<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

// ---------------------------------------------------------------------------
// Entry point and the lockstep cost decorator.
// ---------------------------------------------------------------------------

/// Run the generational engine in the chosen execution mode, with
/// warm-start seeds and a trace. Both modes charge the [`HostCosts`] model
/// on the evaluator's virtual clocks so their times compare honestly; the
/// search is the one [`crate::run_seeded`] / [`crate::run_traced`] perform.
pub fn run_exec<E: BatchEvaluator + Send>(
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
/// virtual-time axis. Each batch is released (`evaluate_after`, which
/// barriers every device clock) only after the host has re-done selection
/// on the previous results and bred the batch — exactly the serialization
/// the ring removes.
struct StagedHost<'e, E: ?Sized> {
    inner: &'e mut E,
    costs: HostCosts,
    host_vt: f64,
    last_completion: f64,
}

impl<E: BatchEvaluator + ?Sized> BatchEvaluator for StagedHost<'_, E> {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        self.host_vt =
            self.host_vt.max(self.last_completion) + self.costs.lockstep_batch_s(confs.len());
        self.last_completion = self.inner.evaluate_after(confs, self.host_vt);
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
            self.host_vt =
                self.host_vt.max(self.last_completion) + self.costs.lockstep_batch_s(confs.len());
            self.last_completion = self.host_vt;
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

type TokenChannel = Channel<Box<SpotToken>>;

/// Run the stage ring. See the module docs for topology, determinism and
/// deadlock-freedom arguments.
fn run_ring<E: BatchEvaluator + Send>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    evaluator: &mut E,
    seed: u64,
    seed_confs: &[Conformation],
    trace: &Trace,
    depth: usize,
) -> RunResult {
    let costs = HostCosts::default();
    let mut driver = Driver::new(params, spots, seed_confs, trace);
    let wave = (4 * depth).min(spots.len());

    let c_seed: TokenChannel = Channel::new(depth, "seed", trace.clone());
    let c_breed: TokenChannel = Channel::new(depth, "breed", trace.clone());
    let c_eval: TokenChannel = Channel::new(depth, "score", trace.clone());
    let c_out: TokenChannel = Channel::new(depth, "select", trace.clone());

    // DETERMINISM: structured `thread::scope` — joins before returning, stage order is fixed by the channel graph, reviewed with the facade.
    let batch_trace = std::thread::scope(|scope| {
        let (cs, cb, ce, co) = (&c_seed, &c_breed, &c_eval, &c_out);
        let per_conf_s = costs.variation_per_conf_s;
        let seeder = scope.spawn(move || {
            let builds = |phase| phase == Phase::Seed;
            variation_stage("stage:seed", builds, params, spots, cs, cb, trace, per_conf_s)
        });
        let breeder = scope.spawn(move || {
            let builds = |phase| !matches!(phase, Phase::Seed | Phase::Retire);
            variation_stage("stage:breed", builds, params, spots, cb, ce, trace, per_conf_s)
        });
        let ev = &mut *evaluator;
        let submit_s = costs.submit_per_batch_s;
        let scorer = scope.spawn(move || evaluator_stage(ev, ce, co, wave, trace, submit_s));

        {
            let _span = trace.span("stage:select");
            drive(&mut driver, spots, seed, wave, &c_seed, &c_out, costs.select_per_conf_s);
        }

        // Shut the ring down: the close cascades seeder → breeder →
        // evaluator via each stage's exit path.
        c_seed.close();
        // PANICS: propagate a stage panic to the caller.
        seeder.join().expect("seeder stage panicked");
        breeder.join().expect("breeder stage panicked");
        // PANICS: propagate a stage panic to the caller.
        scorer.join().expect("evaluator stage panicked")
    });

    driver.into_result(batch_trace)
}

/// A variation stage: build the batch of every token whose phase is this
/// stage's (`builds`), on the stage's own host clock, and pass every token
/// on. The seeder and the breeder are this function over different phases.
#[allow(clippy::too_many_arguments)]
fn variation_stage(
    name: &'static str,
    builds: impl Fn(Phase) -> bool,
    params: &MetaheuristicParams,
    spots: &[Spot],
    input: &TokenChannel,
    output: &TokenChannel,
    trace: &Trace,
    per_conf_s: f64,
) {
    let _close_in = CloseGuard(input);
    let _close_out = CloseGuard(output);
    let _span = trace.span(name);
    let mut clock = 0.0f64;
    while let Some(mut tok) = input.recv() {
        if builds(tok.phase) {
            engine::build(params, &spots[tok.si], &mut tok);
            clock = clock.max(tok.ready_vt) + tok.batch.len() as f64 * per_conf_s;
            tok.ready_vt = clock;
        }
        if output.send(tok).is_err() {
            break;
        }
    }
}

/// The evaluator stage: coalesce arriving batches, submit them through
/// [`engine::score`] on the stage's host clock, and forward the scored
/// tokens in arrival order. Returns the run's `batch_trace`.
fn evaluator_stage<E: BatchEvaluator>(
    evaluator: &mut E,
    input: &TokenChannel,
    output: &TokenChannel,
    initial_live: usize,
    trace: &Trace,
    submit_s: f64,
) -> Vec<u64> {
    let _close_in = CloseGuard(input);
    let _close_out = CloseGuard(output);
    let _span = trace.span("stage:score");
    let mut live = initial_live;
    let mut buf: Vec<Box<SpotToken>> = Vec::new();
    let mut pending_items = 0usize;
    let mut clock = 0.0f64;
    let mut batch_trace: Vec<u64> = Vec::new();
    // Score everything pending and forward it; false if the downstream
    // channel closed.
    let mut submit = |buf: &mut Vec<Box<SpotToken>>| {
        engine::score(evaluator, &mut buf[..], &mut batch_trace, |release| {
            // The submission leaves the host once the latest contributor is
            // ready; scoring completes at the device's pace after that.
            clock = clock.max(release) + submit_s;
            Some(clock)
        });
        buf.drain(..).all(|tok| output.send(tok).is_ok())
    };

    let mut alive = true;
    while let Some(mut tok) = input.recv() {
        if tok.fresh {
            tok.fresh = false;
            live += 1;
        }
        if tok.phase == Phase::Retire {
            live -= 1;
            alive = output.send(tok).is_ok();
        } else {
            pending_items += tok.batch.len();
            buf.push(tok);
        }
        // Submit when enough work is pending to keep the devices saturated,
        // or when every live token has arrived (waiting longer could not
        // grow the batch — and guarantees progress at any fleet size).
        if alive && !buf.is_empty() && (pending_items >= COALESCE_ITEMS || buf.len() >= live) {
            alive = submit(&mut buf);
            pending_items = 0;
        }
        if !alive {
            break;
        }
    }
    // Teardown: never lose a buffered batch (a stage upstream may have
    // closed early on a panic; the tokens still carry spot state).
    if alive && !buf.is_empty() {
        submit(&mut buf);
    }
    batch_trace
}

/// The selector stage, on the calling thread: admit the initial wave, then
/// hand every scored token to [`Driver::handle`] on the selector's own host
/// clock and recirculate it, admitting the next spot for each one harvested
/// — until every spot is in (or a stage dies, detected as a closed
/// channel).
fn drive(
    driver: &mut Driver<'_>,
    spots: &[Spot],
    seed: u64,
    wave: usize,
    c_seed: &TokenChannel,
    c_out: &TokenChannel,
    select_per_conf_s: f64,
) {
    // Tokens admitted after the initial wave are `fresh`: the evaluator
    // bumps its live count on first sight.
    let admit = |si: usize, fresh: bool| {
        let mut tok = Box::new(SpotToken::new(si, &spots[si], seed));
        tok.fresh = fresh;
        c_seed.send(tok).is_ok()
    };
    if !(0..wave).all(|si| admit(si, false)) {
        return;
    }
    let mut next_spot = wave;
    let mut clock = 0.0f64;
    while driver.harvested < spots.len() {
        let Some(mut tok) = c_out.recv() else { return };
        let retiring = tok.phase == Phase::Retire;
        if !retiring {
            // Selection work on the scored batch happens on the selector's
            // own clock, after the batch's scores are available.
            clock = clock.max(tok.ready_vt) + tok.batch.len() as f64 * select_per_conf_s;
            tok.ready_vt = clock;
        }
        driver.handle(&mut tok);
        driver.announce();
        let ring_open = if !retiring {
            c_seed.send(tok).is_ok()
        } else if next_spot < spots.len() {
            next_spot += 1;
            admit(next_spot - 1, true)
        } else {
            true
        };
        if !ring_open {
            return;
        }
    }
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
        for expect in ["seed", "breed", "score", "select"] {
            assert!(stages.contains(expect), "missing StageDepth for {expect}: {stages:?}");
        }
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

/// Exhaustive interleaving checks of the stage-channel protocol (run with
/// `cargo test -p metaheur --features vscheck-model model_`).
#[cfg(all(test, feature = "vscheck-model"))]
mod model_tests {
    use super::Channel;
    use std::sync::Arc;
    use vscheck::{explore, Config};
    use vstrace::Trace;

    /// Producer → bounded channel → consumer: every interleaving delivers
    /// all items in FIFO order despite backpressure at capacity 1.
    #[test]
    fn model_channel_delivers_in_order() {
        let report = explore(Config::with_bound(2), || {
            let ch: Arc<Channel<u32>> = Arc::new(Channel::new(1, "model", Trace::disabled()));
            let producer = {
                let ch = Arc::clone(&ch);
                vscheck::thread::Builder::new()
                    .name("producer".into())
                    .spawn(move || {
                        for i in 0..3 {
                            ch.send(i).expect("consumer closed early");
                        }
                    })
                    .expect("spawn")
            };
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(ch.recv().expect("producer closed early"));
            }
            producer.join().expect("producer panicked");
            assert_eq!(got, vec![0, 1, 2]);
            ch.close();
            assert!(ch.recv().is_none());
        });
        report.assert_passed();
        assert!(report.complete, "exploration exhausted");
    }

    /// The consumer abandons the stream early (the pipelined engine's
    /// Convergence end retires spots before producers drain): no
    /// deadlock, and every item is accounted for — received, drained
    /// after close, or rejected back to the sender. Nothing is lost.
    #[test]
    fn model_channel_early_exit_loses_nothing() {
        let report = explore(Config::with_bound(2), || {
            let ch: Arc<Channel<u32>> = Arc::new(Channel::new(1, "model", Trace::disabled()));
            let producer = {
                let ch = Arc::clone(&ch);
                vscheck::thread::Builder::new()
                    .name("producer".into())
                    .spawn(move || {
                        let mut rejected = 0u32;
                        for i in 0..4 {
                            if ch.send(i).is_err() {
                                rejected += 1;
                            }
                        }
                        rejected
                    })
                    .expect("spawn")
            };
            let first = ch.recv().expect("at least one item");
            assert_eq!(first, 0, "FIFO: the first send arrives first");
            ch.close(); // early exit: stop consuming
            let mut drained = 0u32;
            while ch.recv().is_some() {
                drained += 1;
            }
            let rejected = producer.join().expect("producer panicked");
            assert_eq!(1 + drained + rejected, 4, "an item vanished in teardown");
        });
        report.assert_passed();
        assert!(report.complete, "exploration exhausted");
    }

    /// A miniature ring — driver → channel a → stage → channel b →
    /// driver — with more tokens admitted than any one channel holds and
    /// tokens recirculating before retirement, then an orderly shutdown:
    /// the close must cascade through the stage without deadlock.
    #[test]
    fn model_ring_shutdown_cascades() {
        let report = explore(Config::with_bound(2), || {
            let a: Arc<Channel<u32>> = Arc::new(Channel::new(1, "a", Trace::disabled()));
            let b: Arc<Channel<u32>> = Arc::new(Channel::new(1, "b", Trace::disabled()));
            let stage = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                vscheck::thread::Builder::new()
                    .name("stage".into())
                    .spawn(move || {
                        while let Some(t) = a.recv() {
                            if b.send(t).is_err() {
                                break;
                            }
                        }
                        b.close(); // cascade the shutdown downstream
                    })
                    .expect("spawn")
            };
            // Two tokens (encoded tens digit = identity, ones digit =
            // lap), each making two laps around the ring.
            a.send(10).expect("open");
            a.send(20).expect("open");
            let mut done = 0;
            while done < 2 {
                let t = b.recv().expect("stage alive while tokens circulate");
                if t.is_multiple_of(10) {
                    a.send(t + 1).expect("ring open while tokens live");
                } else {
                    done += 1; // retired
                }
            }
            a.close();
            stage.join().expect("stage panicked");
            assert!(b.recv().is_none(), "ring drained after shutdown");
        });
        report.assert_passed();
        assert!(report.complete, "exploration exhausted");
    }
}
