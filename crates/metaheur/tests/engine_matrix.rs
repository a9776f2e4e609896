//! The recorded engine matrix: 17 parameter sets × {1, 3, 5} spots ×
//! {classic, seeded, charged lockstep}, one line per cell in
//! `engine_matrix.expected` — a tag and the 64-bit FNV-1a hash of the
//! cell's full dump (every `RunResult` field by bits, the whole
//! `batch_trace`, and the trace payload sequence: span names and nesting,
//! evaluator events in between, `GenerationDone` order).
//!
//! The file was recorded from the build *before* the engine was reduced to
//! one per-spot state machine (DESIGN.md §12); only the cells that the two
//! behaviour changes of that reduction name (CHANGES.md, PR 20) were
//! re-recorded. The last 27 lines, the PSO, Tabu and memetic sets, were
//! appended when those algorithms became operator kinds of the machine
//! (PR 25). Nothing else pins the engine's trace payload order. A
//! deliberate behaviour change re-records the cells it names, and says
//! which, from the table this test prints when it fails.
//!
//! A second test holds the two schedulers to each other over the same
//! matrix: charged lockstep and the ring at depths 1, 2, 4 and `usize::MAX`
//! agree by bits on every `RunResult` field but `batch_trace`, both emit
//! one `GenerationDone` per generation run, and the ring run twice at one
//! depth emits the same trace payloads.

use metaheur::{
    memetic, paper_suite, pso, run_exec, run_seeded, run_traced, tabu, BatchEvaluator, Combine,
    EndCondition, EngineExec, ImproveStrategy, MetaheuristicParams, RunResult, SelectStrategy,
    SyntheticEvaluator,
};
use std::fmt::Write;
use vsmath::{fnv1a, RigidTransform, Vec3};
use vsmol::{Conformation, Spot};
use vsscore::RigidGradient;
use vstrace::{Event, Trace, BATCH_TRACK};

const EXPECTED: &str = include_str!("engine_matrix.expected");
const SEED: u64 = 2016;

/// The synthetic landscape, announcing every submission on the trace so a
/// cell's payload sequence shows where scoring falls between the spans.
/// `pairs_per_item` tells the two submission kinds apart (1 plain, 2
/// gradient).
struct Announcing {
    inner: SyntheticEvaluator,
    gradients: bool,
    trace: Trace,
}

impl Announcing {
    fn announce(&self, items: usize, pairs_per_item: u64) {
        self.trace.emit(Event::BatchScored {
            device: BATCH_TRACK,
            items: items as u64,
            pairs_per_item,
            vt_start: 0.0,
            vt_end: 0.0,
        });
    }
}

impl BatchEvaluator for Announcing {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        self.inner.evaluate(confs);
        self.announce(confs.len(), 1);
    }

    fn pairs_per_eval(&self) -> u64 {
        1
    }

    fn evaluate_with_gradients(
        &mut self,
        confs: &mut [Conformation],
    ) -> Option<Vec<RigidGradient>> {
        if !self.gradients {
            return None;
        }
        self.announce(confs.len(), 2);
        self.inner.evaluate_with_gradients(confs)
    }
}

fn spots(n: usize) -> Vec<Spot> {
    (0..n)
        .map(|i| Spot {
            id: i,
            center: Vec3::new(12.0 * i as f64, 0.0, 0.0),
            normal: Vec3::Z,
            radius: 5.0,
            anchor_atom: 0,
        })
        .collect()
}

/// One hidden optimum inside each spot's search ball.
fn evaluator(sp: &[Spot], gradients: bool, trace: &Trace) -> Announcing {
    let optima = sp.iter().map(|s| s.center + Vec3::new(1.0, 0.5, 0.5)).collect();
    Announcing { inner: SyntheticEvaluator::new(optima), gradients, trace: trace.clone() }
}

fn ga(name: &str) -> MetaheuristicParams {
    MetaheuristicParams {
        name: name.into(),
        population_per_spot: 16,
        select: SelectStrategy::TruncationBest { fraction: 0.5 },
        offspring_per_spot: 16,
        combine: Combine::Crossover,
        improve_fraction: 0.0,
        improve: ImproveStrategy::None,
        mutation_prob: 0.3,
        max_shift: 1.0,
        max_angle: 0.4,
        end: EndCondition::Generations(5),
        single_pass: false,
    }
}

/// The 17 parameter sets; the flag says whether the evaluator offers
/// gradients (off only for the Lamarckian fallback set).
fn parameter_sets() -> Vec<(MetaheuristicParams, bool)> {
    let lamarck = ImproveStrategy::Lamarckian { steps: 3, step_size: 0.25, angle_step: 0.05 };
    let mut sets: Vec<(MetaheuristicParams, bool)> =
        paper_suite(0.05).into_iter().map(|p| (p, true)).collect();
    sets.extend([
        (ga("ga"), true),
        (
            MetaheuristicParams {
                improve_fraction: 0.5,
                improve: ImproveStrategy::HillClimb { steps: 3 },
                ..ga("hill")
            },
            true,
        ),
        (
            MetaheuristicParams {
                improve_fraction: 1.0,
                improve: ImproveStrategy::SimulatedAnnealing { steps: 4, t0: 1.0, cooling: 0.8 },
                ..ga("anneal")
            },
            true,
        ),
        (
            MetaheuristicParams { select: SelectStrategy::Tournament { k: 3 }, ..ga("tournament") },
            true,
        ),
        (MetaheuristicParams { improve_fraction: 0.5, improve: lamarck, ..ga("lamarck") }, true),
        (
            MetaheuristicParams { improve_fraction: 0.5, improve: lamarck, ..ga("lamarck-nograd") },
            false,
        ),
        (
            MetaheuristicParams {
                population_per_spot: 64,
                improve_fraction: 1.0,
                improve: ImproveStrategy::HillClimb { steps: 6 },
                end: EndCondition::Generations(0),
                single_pass: true,
                ..ga("single-pass")
            },
            true,
        ),
        (
            MetaheuristicParams {
                end: EndCondition::Generations(0),
                single_pass: true,
                ..ga("single-pass-noop")
            },
            true,
        ),
        (MetaheuristicParams { end: EndCondition::Generations(0), ..ga("zero-gens") }, true),
        (
            MetaheuristicParams {
                mutation_prob: 0.0,
                end: EndCondition::Convergence { patience: 3, max: 40 },
                ..ga("convergence")
            },
            true,
        ),
        (pso(8, 4), true),
        (tabu(6, 4), true),
        (memetic(2, 2, 4), true),
    ]);
    sets
}

fn dump_conf(out: &mut String, c: &Conformation) {
    // The pose's `{:?}` prints every f64 in shortest round-trip form.
    write!(out, "{:016x}@{}:{:?};", c.score.to_bits(), c.spot_id, c.pose).unwrap();
}

fn dump(run: &RunResult, trace: &Trace) -> String {
    let mut out = String::new();
    dump_conf(&mut out, &run.best);
    for c in &run.best_per_spot {
        dump_conf(&mut out, c);
    }
    write!(out, "|{}|{}|{:?}|", run.evaluations, run.generations_run, run.batch_trace).unwrap();
    for series in [&run.best_history, &run.diversity_history] {
        for x in series {
            write!(out, "{:016x},", x.to_bits()).unwrap();
        }
        out.push('|');
    }
    write!(out, "{:?}", trace.snapshot().payloads()).unwrap();
    out
}

/// The scheduler-invariant part of a run, by bits, and its
/// `GenerationDone` events.
fn search_and_events(run: &RunResult, trace: &Trace) -> (String, Vec<Event>) {
    let invariant = RunResult { batch_trace: Vec::new(), ..run.clone() };
    let done = trace.snapshot().payloads();
    let done = done.into_iter().filter(|e| matches!(e, Event::GenerationDone { .. })).collect();
    (dump(&invariant, &Trace::disabled()), done)
}

/// The whole matrix as the expected file spells it: `tag hash` per line.
fn matrix() -> String {
    let mut table = String::new();
    for (params, gradients) in parameter_sets() {
        for n in [1, 3, 5] {
            let sp = spots(n);
            // One warm-start conformation per spot, scored better than most
            // random draws and worse than a converged population.
            let seeds: Vec<Conformation> = sp
                .iter()
                .map(|s| {
                    let at = s.center + Vec3::new(1.5, 0.5, 0.5);
                    let mut c = Conformation::new(RigidTransform::from_translation(at), s.id);
                    c.score = 0.25;
                    c
                })
                .collect();
            for mode in ["classic", "seeded", "lockstep"] {
                let trace = Trace::new();
                let mut ev = evaluator(&sp, gradients, &trace);
                let run = match mode {
                    "classic" => run_traced(&params, &sp, &mut ev, SEED, &trace),
                    // Untraced by signature: the cell still records the
                    // evaluator's own events.
                    "seeded" => run_seeded(&params, &sp, &mut ev, SEED, &seeds),
                    _ => {
                        run_exec(&params, &sp, &mut ev, SEED, &seeds, &trace, EngineExec::Lockstep)
                    }
                };
                let hash = fnv1a(dump(&run, &trace).bytes());
                writeln!(table, "{}/s{n}/{mode} {hash:016x}", params.name).unwrap();
            }
        }
    }
    table
}

#[test]
fn engine_matrix_matches_the_recorded_cells() {
    let fresh = matrix();
    let moved: Vec<&str> = fresh
        .lines()
        .zip(EXPECTED.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, _)| a.split(' ').next().unwrap())
        .collect();
    assert!(
        moved.is_empty() && fresh.lines().count() == EXPECTED.lines().count(),
        "{} cell(s) moved against engine_matrix.expected: {moved:?}\nfresh table:\n{fresh}",
        moved.len()
    );
}

#[test]
fn lockstep_and_every_ring_depth_agree_on_every_cell() {
    for (params, gradients) in parameter_sets() {
        for n in [1, 3, 5] {
            let sp = spots(n);
            let run_mode = |exec: EngineExec| {
                let trace = Trace::new();
                let mut ev = evaluator(&sp, gradients, &Trace::disabled());
                let run = run_exec(&params, &sp, &mut ev, SEED, &[], &trace, exec);
                let (search, done) = search_and_events(&run, &trace);
                assert_eq!(done.len(), run.generations_run, "{}/s{n} {exec:?}", params.name);
                ((search, done), trace.snapshot().payloads())
            };
            let lockstep = run_mode(EngineExec::Lockstep);
            for depth in [1, 2, 4, usize::MAX] {
                let (ring, payloads) = run_mode(EngineExec::Pipelined { depth });
                assert_eq!(lockstep.0, ring, "{}/s{n} depth {depth}", params.name);
                let (_, again) = run_mode(EngineExec::Pipelined { depth });
                assert_eq!(payloads, again, "{}/s{n} depth {depth}: trace", params.name);
            }
        }
    }
}
