//! Acceptance tests for the pipelined generational engine (DESIGN.md §12).
//!
//! The pipeline refactor must not move a single bit of the search: the
//! golden values below were captured from the pre-pipeline engine on the
//! Table 5 complexes (2BSM, 2BXG) under all four paper metaheuristics
//! M1–M4, and both the classic entry points and `run_exec(Lockstep)` are
//! pinned to them. `Pipelined` is then held to bit-identity with
//! `Lockstep` at several depths, and a property test sweeps
//! random configurations, convergence-ended ones included.

use metaheur::{
    run_exec, BatchEvaluator, Combine, CpuEvaluator, EndCondition, EngineExec, ImproveStrategy,
    MetaheuristicParams, RunResult, SelectStrategy, SyntheticEvaluator,
};
use proptest::prelude::*;
use vsmath::Vec3;
use vsmol::{Dataset, Spot};
use vsscore::{Exec, Kernel, ScorerOptions};
use vstrace::Trace;

const ENGINE_SEED: u64 = 2016;

/// Pre-pipeline golden record: (pdb, meta, best bits, evaluations,
/// generations, batch-trace length, batch-trace item sum, last
/// best-history entry bits).
type Golden = (&'static str, &'static str, u64, u64, usize, usize, u64, u64);

/// Pre-pipeline engine outputs for `max_spots(3)`, screen seed 7, the
/// `Grid { spacing: 0.75 }` kernel, engine seed 2016, `paper_suite(0.05)`.
#[allow(clippy::unreadable_literal)]
const GOLDEN: &[Golden] = &[
    ("2BSM", "M1", 0xc015d76adb000000, 576, 2, 3, 576, 0xc015d76adb000000),
    ("2BSM", "M2", 0xc01bfce0f0000000, 768, 1, 4, 768, 0xc01bfce0f0000000),
    ("2BSM", "M3", 0xc01594f1d8000000, 462, 1, 4, 462, 0xc01594f1d8000000),
    ("2BSM", "M4", 0xc0246a82a2000000, 18432, 0, 6, 18432, 0xc0246a82a2000000),
    ("2BXG", "M1", 0xc017ee1240000000, 576, 2, 3, 576, 0xc017ee1240000000),
    ("2BXG", "M2", 0xc017ee1240000000, 768, 1, 4, 768, 0xc017ee1240000000),
    ("2BXG", "M3", 0xc017ee1240000000, 462, 1, 4, 462, 0xc017ee1240000000),
    ("2BXG", "M4", 0xc0205cc108000000, 18432, 0, 6, 18432, 0xc01e0845b0000000),
];

fn golden_screen(dataset: Dataset) -> vscreen::VirtualScreen {
    vscreen::VirtualScreen::builder(dataset)
        .max_spots(3)
        .seed(7)
        .scorer_options(ScorerOptions {
            kernel: Kernel::Grid { spacing: 0.75 },
            ..Default::default()
        })
        .build()
}

fn serial_evaluator(screen: &vscreen::VirtualScreen) -> CpuEvaluator {
    CpuEvaluator::new((*screen.scorer()).clone(), Exec::Serial)
}

fn check_against_golden(run: &RunResult, g: &Golden) {
    let (pdb, meta, best, evals, gens, trace_len, trace_sum, hist_last) = *g;
    let tag = format!("{pdb}/{meta}");
    assert_eq!(run.best.score.to_bits(), best, "{tag}: best score moved");
    assert_eq!(run.evaluations, evals, "{tag}: evaluation count moved");
    assert_eq!(run.generations_run, gens, "{tag}: generation count moved");
    assert_eq!(run.batch_trace.len(), trace_len, "{tag}: batch trace length moved");
    assert_eq!(run.batch_trace.iter().sum::<u64>(), trace_sum, "{tag}: batch trace sum moved");
    assert_eq!(
        run.best_history.last().unwrap().to_bits(),
        hist_last,
        "{tag}: final best-history entry moved"
    );
}

/// One uncharged, untraced, unseeded pipelined run.
fn pipelined<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    ev: &mut E,
    seed: u64,
    depth: usize,
) -> RunResult {
    run_exec(params, spots, ev, seed, &[], &Trace::disabled(), EngineExec::Pipelined { depth })
}

fn dataset_goldens(dataset: Dataset) -> Vec<&'static Golden> {
    GOLDEN.iter().filter(|g| g.0 == dataset.pdb_id()).collect()
}

fn suite_params(meta: &str) -> MetaheuristicParams {
    let suite = metaheur::paper_suite(0.05);
    suite.into_iter().find(|p| p.name == meta).expect("paper suite metaheuristic")
}

#[test]
fn legacy_engine_still_matches_pre_pipeline_goldens() {
    for dataset in Dataset::ALL {
        let screen = golden_screen(dataset);
        let mut ev = serial_evaluator(&screen);
        for g in dataset_goldens(dataset) {
            let params = suite_params(g.1);
            let run = metaheur::run(&params, screen.spots(), &mut ev, ENGINE_SEED);
            check_against_golden(&run, g);
        }
    }
}

#[test]
fn lockstep_exec_matches_pre_pipeline_goldens() {
    // `EngineExec::Lockstep` charges host virtual time but must leave the
    // trajectory — scores, counts, batch program order — untouched.
    for dataset in Dataset::ALL {
        let screen = golden_screen(dataset);
        let mut ev = serial_evaluator(&screen);
        for g in dataset_goldens(dataset) {
            let params = suite_params(g.1);
            let run = run_exec(
                &params,
                screen.spots(),
                &mut ev,
                ENGINE_SEED,
                &[],
                &Trace::disabled(),
                EngineExec::Lockstep,
            );
            check_against_golden(&run, g);
        }
    }
}

#[test]
fn pipelined_matches_lockstep_on_table5_complexes() {
    // The pipelined engine reorders batch submission but must reproduce
    // the lockstep search bit for bit on the real complexes, for every
    // paper metaheuristic and several depths.
    for dataset in Dataset::ALL {
        let screen = golden_screen(dataset);
        for g in dataset_goldens(dataset) {
            let params = suite_params(g.1);
            let mut ev = serial_evaluator(&screen);
            let lock = metaheur::run(&params, screen.spots(), &mut ev, ENGINE_SEED);
            for depth in [1, 4] {
                let mut ev = serial_evaluator(&screen);
                let piped = pipelined(&params, screen.spots(), &mut ev, ENGINE_SEED, depth);
                let tag = format!("{}/{} depth {depth}", g.0, g.1);
                assert_eq!(lock.best.score.to_bits(), piped.best.score.to_bits(), "{tag}");
                assert_eq!(lock.best.pose, piped.best.pose, "{tag}");
                assert_eq!(lock.evaluations, piped.evaluations, "{tag}");
                assert_eq!(lock.generations_run, piped.generations_run, "{tag}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&lock.best_history), bits(&piped.best_history), "{tag}");
                assert_eq!(
                    lock.batch_trace.iter().sum::<u64>(),
                    piped.batch_trace.iter().sum::<u64>(),
                    "{tag}: total scored items"
                );
            }
        }
    }
}

// ---- property sweep on the synthetic landscape ----

fn sweep_spots(n: usize) -> Vec<Spot> {
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

fn sweep_evaluator(spots: &[Spot]) -> SyntheticEvaluator {
    SyntheticEvaluator::new(spots.iter().map(|s| s.center + Vec3::new(1.0, 0.5, 0.5)).collect())
}

fn sweep_params(pop: usize, improve: bool, end: EndCondition) -> MetaheuristicParams {
    MetaheuristicParams {
        name: "sweep".into(),
        population_per_spot: pop,
        select: SelectStrategy::TruncationBest { fraction: 0.5 },
        offspring_per_spot: pop,
        combine: Combine::Crossover,
        improve_fraction: if improve { 0.25 } else { 0.0 },
        improve: if improve {
            ImproveStrategy::HillClimb { steps: 2 }
        } else {
            ImproveStrategy::None
        },
        mutation_prob: 0.3,
        max_shift: 1.0,
        max_angle: 0.4,
        end,
        single_pass: false,
    }
}

/// Either end condition: generation-bounded, or convergence with a cap.
fn arb_end() -> impl Strategy<Value = EndCondition> {
    prop_oneof![
        (1usize..5).prop_map(EndCondition::Generations),
        (1usize..4, 4usize..13)
            .prop_map(|(patience, max)| EndCondition::Convergence { patience, max }),
    ]
}

/// The scheduler-invariant fields of two runs agree bit for bit.
fn prop_assert_same_search(lock: &RunResult, piped: &RunResult) -> Result<(), TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(lock.best.score.to_bits(), piped.best.score.to_bits());
    prop_assert_eq!(lock.best.pose, piped.best.pose);
    prop_assert_eq!(lock.evaluations, piped.evaluations);
    prop_assert_eq!(lock.generations_run, piped.generations_run);
    prop_assert_eq!(bits(&lock.best_history), bits(&piped.best_history));
    prop_assert_eq!(bits(&lock.diversity_history), bits(&piped.diversity_history));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipeline is bit-identical to lockstep whatever the population,
    /// spot count, depth, seed or end condition.
    #[test]
    fn pipelined_is_bit_identical_for_generation_runs(
        seed in any::<u64>(),
        n_spots in 1usize..6,
        pop in 4usize..20,
        end in arb_end(),
        improve in any::<bool>(),
        depth in 1usize..5,
    ) {
        let sp = sweep_spots(n_spots);
        let p = sweep_params(pop, improve, end);
        let mut ev = sweep_evaluator(&sp);
        let lock = metaheur::run(&p, &sp, &mut ev, seed);
        let mut ev = sweep_evaluator(&sp);
        let piped = pipelined(&p, &sp, &mut ev, seed, depth);
        prop_assert_same_search(&lock, &piped)?;
    }

    /// Convergence-ended runs stop each spot on its own staleness under
    /// both schedulers, so they too are bit-identical — and the per-spot
    /// bests with them.
    #[test]
    fn pipelined_convergence_tracks_lockstep_best(
        seed in any::<u64>(),
        n_spots in 1usize..5,
        depth in 1usize..4,
    ) {
        let sp = sweep_spots(n_spots);
        let p = sweep_params(12, false, EndCondition::Convergence { patience: 3, max: 12 });
        let mut ev = sweep_evaluator(&sp);
        let lock = metaheur::run(&p, &sp, &mut ev, seed);
        let mut ev = sweep_evaluator(&sp);
        let piped = pipelined(&p, &sp, &mut ev, seed, depth);
        prop_assert_same_search(&lock, &piped)?;
        for (a, b) in lock.best_per_spot.iter().zip(&piped.best_per_spot) {
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            prop_assert_eq!(a.pose, b.pose);
        }
    }
}

#[test]
fn pipelined_respects_warm_start_seeds() {
    // Streamed admission must still inject warm-start conformations into
    // the right spot's initial population.
    let sp = sweep_spots(3);
    let p = sweep_params(8, false, EndCondition::Generations(3));
    let mut ev = sweep_evaluator(&sp);
    let seeds: Vec<_> = sp
        .iter()
        .map(|s| vsmol::Conformation::new(vsmath::RigidTransform::from_translation(s.center), s.id))
        .collect();
    let lock = metaheur::run_seeded(&p, &sp, &mut ev, 9, &seeds);
    let mut ev = sweep_evaluator(&sp);
    let exec = EngineExec::Pipelined { depth: 2 };
    let piped = run_exec(&p, &sp, &mut ev, 9, &seeds, &Trace::disabled(), exec);
    assert_eq!(lock.best.score.to_bits(), piped.best.score.to_bits());
    assert_eq!(lock.evaluations, piped.evaluations);
}

/// Passes on a [`DeviceEvaluator`](vsched::DeviceEvaluator)'s whole-batch
/// entry points and hides its split into a charge and a host scorer, so
/// the engine scores every batch whole on its driving thread.
struct Whole<E>(E);

impl<E: BatchEvaluator> BatchEvaluator for Whole<E> {
    fn evaluate(&mut self, confs: &mut [vsmol::Conformation]) {
        self.0.evaluate(confs);
    }

    fn pairs_per_eval(&self) -> u64 {
        self.0.pairs_per_eval()
    }

    fn evaluate_after(&mut self, confs: &mut [vsmol::Conformation], release: f64) -> f64 {
        self.0.evaluate_after(confs, release)
    }
}

/// `dock_grid`'s configuration at a tenth of its local search: 2BXG, the
/// grid kernel, the learned oracle on Hertz's CPU and GPUs, the ring at
/// depth 4, 16 spots, seed 2016. `VirtualScreen::run`, where the engine
/// scores each spot's batch in its host job, and the same evaluator behind
/// [`Whole`] give the same best bits, evaluations, virtual time, batch
/// trace and trace payloads. Release mode, about a second:
/// `cargo test --release -p vs-integration --test pipeline_acceptance -- --ignored table5_`.
#[test]
#[ignore = "release-mode Table 5 check; scripts/ci.sh runs it"]
fn table5_split_scoring_matches_whole_batches_on_dock_grid() {
    let screen = vscreen::VirtualScreen::builder(Dataset::TwoBxg)
        .max_spots(16)
        .seed(ENGINE_SEED)
        .scorer_options(ScorerOptions {
            kernel: Kernel::Grid { spacing: vsscore::GridOptions::default().spacing },
            ..Default::default()
        })
        .build();
    let params = metaheur::m4(0.1);
    let warmup = vsched::WarmupConfig::default();
    let strategy = vsched::Strategy::Oracle { warmup, divisor: 2 };
    let exec = EngineExec::Pipelined { depth: 4 };
    let node = vscreen::platform::hertz();

    let screen_trace = Trace::new();
    let spec = vscreen::RunSpec::on_node(&params, &node, strategy).exec(exec);
    let out = screen.run(spec.traced(&screen_trace));

    // What `VirtualScreen::run` assembles for the oracle, once split and
    // once whole.
    let run = |split: bool| {
        node.reset();
        let trace = Trace::new();
        let devices = std::iter::once(node.cpu()).chain(node.gpus()).cloned().collect();
        let ev = vsched::DeviceEvaluator::new(devices, screen.scorer(), strategy)
            .with_trace(trace.clone());
        let _screen = trace.span("screen");
        let (run, makespan) = if split {
            let mut ev = ev;
            let run = run_exec(&params, screen.spots(), &mut ev, ENGINE_SEED, &[], &trace, exec);
            (run, ev.makespan())
        } else {
            let mut ev = Whole(ev);
            let run = run_exec(&params, screen.spots(), &mut ev, ENGINE_SEED, &[], &trace, exec);
            (run, ev.0.makespan())
        };
        drop(_screen);
        (run, makespan, trace.snapshot().payloads())
    };
    let (split, split_vt, split_payloads) = run(true);
    let (whole, whole_vt, whole_payloads) = run(false);

    assert_eq!(split.evaluations, params.evals_per_spot() * 16);
    for (tag, best, evaluations, vt) in [
        ("VirtualScreen::run", out.best.score, out.evaluations, out.virtual_time),
        ("split", split.best.score, split.evaluations, split_vt),
    ] {
        assert_eq!(best.to_bits(), whole.best.score.to_bits(), "{tag}: best");
        assert_eq!(evaluations, whole.evaluations, "{tag}: evaluations");
        assert_eq!(vt.to_bits(), whole_vt.to_bits(), "{tag}: virtual time");
    }
    assert_eq!(split.batch_trace, whole.batch_trace, "batch trace");
    let screen_payloads = screen_trace.snapshot().payloads();
    assert_eq!(screen_payloads, whole_payloads, "VirtualScreen::run: trace payloads");
    assert_eq!(split_payloads, whole_payloads, "split: trace payloads");
}
