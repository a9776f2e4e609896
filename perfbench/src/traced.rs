//! The traced run: one process per workload that yields the per-layer
//! metrics. Everything is measured from outside — the benchmark's own
//! spans around public calls, plus the timing decorator at the evaluator
//! seam — and nothing is recorded inside a library crate.
//!
//! A traced run makes these passes, each under its own root span:
//!
//! 1. `workload` — set-up and timed region assembled by hand from the
//!    public calls `VirtualScreen` makes, one span per call. Layer self
//!    times and `trace.closure_frac` are taken over this root.
//! 2. `reference` — the tracing-off code path of the end-to-end run, in
//!    this process, as the base for the overhead fractions and as the
//!    check that pass 1 computed the same thing.
//! 3. `vstrace_pass` — the same path with an enabled `vstrace::Trace`.
//! 4. micro passes: the evaluation ladder, the engine against a synthetic
//!    evaluator, replay, cost model, parsers, trace emit.

use crate::checks::Checks;
use crate::metrics::PER_LAYER;
use crate::spans::{Recorder, HARNESS};
use crate::stack::{devices_for, run_engine, EvalCall, TimedEvaluator};
use crate::stats;
use crate::workloads::{
    campaign_service, campaign_timed, config, dock_screen, library_loop, synth_library,
    CampaignCfg, Cfg, DockCfg, LibraryCfg, LibraryOutcome, Workload,
};
use gpusim::{SimNode, Timeline};
use metaheur::{
    BatchEvaluator, CpuEvaluator, EngineExec, MetaheuristicParams, RunResult, SyntheticEvaluator,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vsched::{DeviceEvaluator, Strategy};
use vscluster::{bursty_traffic, CampaignReport};
use vscreen::platform;
use vsmol::{surface, Conformation, Molecule, Spot, SurfaceOptions};
use vsscore::{Exec, GridOptions, Kernel, PoseScratch, ScoreBatch, Scorer, ScorerOptions};
use vstrace::{Event, Trace};

/// Shortest time a micro measurement loops for at full and smoke sizes.
const MICRO_SECONDS: (f64, f64) = (0.25, 0.01);

/// Per-layer metric values, every name of [`PER_LAYER`] present.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Remarks on single values, such as the percentile actually reported.
    pub notes: BTreeMap<&'static str, String>,
    /// Shortest time each micro measurement loops for.
    micro_s: f64,
}

impl Layers {
    fn new(micro_s: f64) -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
            notes: BTreeMap::new(),
            micro_s,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot =
            self.values.get_mut(name).unwrap_or_else(|| panic!("{name} is not in PER_LAYER"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        PER_LAYER.iter().map(|m| (m.name, self.values[m.name]))
    }
}

/// What a traced run hands back.
pub struct Traced {
    pub layers: Layers,
    pub checks: Checks,
    pub recorder: Recorder,
}

/// Loop `f` until `budget_s` seconds have passed; seconds per call.
fn micro(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= budget_s {
            return elapsed / calls as f64;
        }
    }
}

// ---------------------------------------------------------------------------
// The hand-assembled dock stack.
// ---------------------------------------------------------------------------

/// One engine run through the hand-assembled stack.
pub struct HandRun {
    pub result: RunResult,
    pub virtual_time: f64,
    calls: Vec<EvalCall>,
    captured: Vec<Vec<Conformation>>,
    steals: u64,
    reseeds: u64,
    timeline: Arc<Timeline>,
}

/// `VirtualScreen::run`'s node backend, call by call, under spans.
#[allow(clippy::too_many_arguments)]
pub fn hand_run(
    rec: &mut Recorder,
    params: &MetaheuristicParams,
    spots: &[Spot],
    scorer: &Arc<Scorer>,
    node: &SimNode,
    strategy: Strategy,
    exec: Option<EngineExec>,
    seed: u64,
) -> HandRun {
    let timeline = Arc::new(Timeline::new());
    let epoch = rec.epoch();
    node.reset();
    let mut ev = rec.time("vsched", "vsched.evaluator_new", || {
        let inner = DeviceEvaluator::new(devices_for(node, strategy), scorer.clone(), strategy)
            .with_timeline(timeline.clone());
        TimedEvaluator::new(inner, epoch)
    });
    let result =
        rec.time("metaheur", "metaheur.run", || run_engine(params, spots, &mut ev, seed, exec));
    let run_span = rec.last("metaheur.run").expect("span just recorded");
    for c in &ev.calls {
        rec.adopt(run_span, "vsched", "metaheur.evaluate", c.start_ns, c.end_ns);
    }
    let virtual_time = ev.inner.makespan();
    let steals = ev.inner.steal_stats().steals;
    let reseeds = ev.inner.oracle().map_or(0, |o| o.reseeds());
    let TimedEvaluator { inner, calls, captured, .. } = ev;
    // Joining the device worker threads is part of `VirtualScreen::run`.
    rec.time("vsched", "vsched.evaluator_drop", || drop(inner));
    HandRun { result, virtual_time, calls, captured, steals, reseeds, timeline }
}

/// `metaheur.*` seam metrics from the decorator's calls.
fn seam_metrics(
    m: &mut Layers,
    calls: &[EvalCall],
    run_s: f64,
    generations: usize,
    exec: Option<EngineExec>,
) {
    let ms: Vec<f64> =
        calls.iter().map(|c| c.end_ns.saturating_sub(c.start_ns) as f64 * 1e-6).collect();
    let items: Vec<f64> = calls.iter().map(|c| f64::from(c.items)).collect();
    let evaluate_s = ms.iter().sum::<f64>() * 1e-3;
    m.set("metaheur.run_s", run_s);
    m.set("metaheur.evaluate_s", evaluate_s);
    m.set("metaheur.evaluate_calls", calls.len() as f64);
    m.set("metaheur.generations", generations as f64);
    if !calls.is_empty() {
        m.set("metaheur.batch_items_p50", stats::median(&items));
        m.set("metaheur.evaluate_p50_ms", stats::median(&ms));
        let tail = stats::tail(&ms, 99.0);
        m.set("metaheur.evaluate_p99_ms", tail.value);
        m.notes.insert(
            "metaheur.evaluate_p99_ms",
            format!("p{:.1} of n={} calls", tail.percentile, tail.n),
        );
    }
    if matches!(exec, Some(EngineExec::Pipelined { .. })) {
        // Stages overlap, so engine self time is not exclusive: report how
        // busy the scoring stage was instead.
        m.set("metaheur.scoring_stage_busy_frac", evaluate_s / run_s);
    } else {
        m.set("metaheur.engine_self_s", run_s - evaluate_s);
    }
}

/// `gpusim.device_*` from the timelines the device evaluators recorded.
fn timeline_metrics(m: &mut Layers, timelines: &[Arc<Timeline>]) {
    let (mut busy, mut idle) = (0.0, 0.0);
    for lane in timelines.iter().flat_map(|t| t.device_stats()) {
        busy += lane.busy_s;
        idle += lane.idle_s;
    }
    m.set("gpusim.device_busy_virtual_s", busy);
    m.set("gpusim.device_idle_frac", if busy + idle > 0.0 { idle / (busy + idle) } else { 0.0 });
}

/// `vsscore.grid_*` from the `GridBuilt` events `Scorer::new_traced` left.
fn grid_metrics(m: &mut Layers, grid_events: &Trace) {
    let built: Vec<(u64, bool)> = grid_events
        .snapshot()
        .events()
        .filter_map(|s| match s.event {
            Event::GridBuilt { bytes, cached, .. } => Some((bytes, cached)),
            _ => None,
        })
        .collect();
    if !built.is_empty() {
        let hits = built.iter().filter(|(_, cached)| *cached).count();
        m.set("vsscore.grid_cache_hit_frac", hits as f64 / built.len() as f64);
        m.set("vsscore.grid_bytes", built.iter().map(|(b, _)| *b).max().unwrap_or(0) as f64);
    }
}

// ---------------------------------------------------------------------------
// Micro passes.
// ---------------------------------------------------------------------------

/// Score `batches` through `score` until a fair time has passed;
/// microseconds per evaluation.
fn rung(
    budget_s: f64,
    batches: &mut [Vec<Conformation>],
    mut score: impl FnMut(&mut [Conformation]),
) -> f64 {
    let evals: usize = batches.iter().map(Vec::len).sum();
    score(&mut batches[0]); // spawn pools, bind scratch
    let per_pass = micro(budget_s, || {
        for b in batches.iter_mut() {
            score(b);
        }
    });
    per_pass * 1e6 / evals.max(1) as f64
}

/// The evaluation ladder: the same sample of captured batches through
/// `Scorer::score_batch(Serial)`, `Exec::Pool(n)`, `CpuEvaluator` and a
/// fresh `DeviceEvaluator`, so each rung minus the previous is that
/// layer's added cost per evaluation; plus the sample through the
/// cell-list kernel, so the third kernel stays measured.
#[allow(clippy::too_many_arguments)]
fn ladder(
    rec: &mut Recorder,
    m: &mut Layers,
    checks: &mut Checks,
    captured: &[Vec<Conformation>],
    scorer: &Arc<Scorer>,
    receptor: &Molecule,
    ligand: &Molecule,
    strategy: Strategy,
    device_us_per_eval: f64,
) {
    if captured.is_empty() {
        return;
    }
    // As many batches, evenly spaced over the run, as one rung can score
    // in about four micro budgets.
    let budget = m.micro_s;
    let mean_items = captured.iter().map(Vec::len).sum::<usize>() as f64 / captured.len() as f64;
    let affordable = 4.0 * budget / (mean_items * device_us_per_eval.max(1e-3) * 1e-6);
    let take = (affordable as usize).clamp(1, captured.len());
    let mut sample: Vec<Vec<Conformation>> =
        (0..take).map(|i| captured[i * captured.len() / take].clone()).collect();
    let lanes = devices_for(&platform::hertz(), strategy).len();

    rec.scope(HARNESS, "ladder", |rec| {
        let mut scratch = PoseScratch::new();
        let serial = rec.time("vsscore", "ladder.serial", || {
            rung(budget, &mut sample, |b| {
                scorer.score_batch(ScoreBatch::Confs(b), &mut scratch, Exec::Serial)
            })
        });
        let serial_scores: Vec<u64> = sample.iter().flatten().map(|c| c.score.to_bits()).collect();
        let pool = rec.time("vsscore", "ladder.pool", || {
            rung(budget, &mut sample, |b| {
                scorer.score_batch(ScoreBatch::Confs(b), &mut scratch, Exec::Pool(lanes))
            })
        });
        let mut cpu_ev = CpuEvaluator::new((**scorer).clone(), Exec::Pool(lanes));
        let cpu = rec.time("metaheur", "ladder.cpu_evaluator", || {
            rung(budget, &mut sample, |b| cpu_ev.evaluate(b))
        });
        let node = platform::hertz();
        let mut dev_ev =
            DeviceEvaluator::new(devices_for(&node, strategy), scorer.clone(), strategy);
        let device = rec
            .time("vsched", "ladder.device", || rung(budget, &mut sample, |b| dev_ev.evaluate(b)));
        let device_scores = sample.iter().flatten().map(|c| c.score.to_bits());
        let differing = serial_scores.iter().zip(device_scores).filter(|(a, b)| **a != *b).count();
        if differing > 0 {
            checks.fail(
                differing as u64,
                format!("{differing} ladder scores differ between the serial and device rungs"),
            );
        }
        let cells_scorer = Scorer::new(
            receptor,
            ligand,
            ScorerOptions {
                kernel: Kernel::CellList { cutoff: GridOptions::default().cutoff },
                ..Default::default()
            },
        );
        let cells = rec.time("vsscore", "ladder.cells", || {
            rung(budget, &mut sample, |b| {
                cells_scorer.score_batch(ScoreBatch::Confs(b), &mut scratch, Exec::Serial)
            })
        });
        m.set("vsscore.serial_us_per_eval", serial);
        m.set("vsscore.pool_us_per_eval", pool);
        m.set("metaheur.cpu_evaluator_us_per_eval", cpu);
        m.set("vsched.device_us_per_eval", device);
        m.set("vsched.dispatch_us_per_eval", device - pool);
        m.set("vsscore.cells_us_per_eval", cells);
        m.set("vsscore.pairs_per_eval", scorer.pairs_per_eval() as f64);
        m.notes.insert(
            "vsched.device_us_per_eval",
            format!("{take} of {} captured batches, {lanes} lanes", captured.len()),
        );
    });
}

/// The engine with the same parameters and spots against
/// `metaheur::SyntheticEvaluator`: variation, selection and (pipelined)
/// stage hand-off with scoring taken out.
fn engine_only(
    rec: &mut Recorder,
    m: &mut Layers,
    params: &MetaheuristicParams,
    spots: &[Spot],
    seed: u64,
    exec: Option<EngineExec>,
) {
    let mut ev = SyntheticEvaluator::new(spots.iter().map(|s| s.center).collect());
    let t0 = Instant::now();
    let result =
        rec.time("metaheur", "engine_only", || run_engine(params, spots, &mut ev, seed, exec));
    let us = t0.elapsed().as_secs_f64() * 1e6;
    m.set("metaheur.engine_only_us_per_eval", us / result.evaluations.max(1) as f64);
}

/// `vsched::schedule_trace` on the analytic batch trace of `params`.
fn replay(m: &mut Layers, params: &MetaheuristicParams, n_spots: usize, pairs: u64, s: Strategy) {
    let trace = vscreen::trace::synthetic_trace(params, n_spots);
    let node = platform::hertz();
    let per_replay = micro(m.micro_s, || {
        black_box(vsched::schedule_trace(node.cpu(), node.gpus(), &trace, pairs, s));
    });
    m.set("vsched.replay_us_per_batch", per_replay * 1e6 / trace.len() as f64);
}

/// The distinct batch sizes of a run (sixteen at most) in the scorer's
/// cost regime.
fn batch_shapes(calls: &[EvalCall], scorer: &Scorer) -> Vec<gpusim::WorkBatch> {
    let profile = vsched::work_profile(scorer);
    let mut sizes: Vec<u64> = calls.iter().map(|c| u64::from(c.items)).collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes.truncate(16);
    sizes.into_iter().map(|n| profile.batch(n)).collect()
}

/// `CostModel::execution_time` over the workload's batch shapes on every
/// Hertz device.
fn cost_model(m: &mut Layers, shapes: &[gpusim::WorkBatch]) {
    if shapes.is_empty() {
        return;
    }
    let node = platform::hertz();
    let devices =
        devices_for(&node, Strategy::WorkSteal { warmup: Default::default(), divisor: 2 });
    let calls = (shapes.len() * devices.len()) as f64;
    let per_sweep = micro(m.micro_s, || {
        for d in &devices {
            for b in shapes {
                black_box(d.model().execution_time(d.spec(), black_box(b)));
            }
        }
    });
    m.set("gpusim.cost_ns_per_call", per_sweep * 1e9 / calls);
}

/// Round-trip of the generated molecules through the PDB and SDF writers
/// and parsers — the set-up cost of a file-fed `dock` user.
fn parsers(m: &mut Layers, checks: &mut Checks, receptor: &Molecule, ligands: &[Molecule]) {
    let pdb = vsmol::pdb::write(receptor);
    match vsmol::pdb::parse(&pdb, "roundtrip") {
        Ok(back) if back.len() == receptor.len() => {
            let per_parse = micro(m.micro_s, || {
                black_box(vsmol::pdb::parse(black_box(&pdb), "roundtrip").map(|m| m.len()).ok());
            });
            m.set("vsmol.pdb_parse_atoms_per_s", receptor.len() as f64 / per_parse);
        }
        other => checks.fail(1, format!("PDB round-trip lost atoms: {:?}", other.map(|m| m.len()))),
    }
    let sdf = vsmol::sdf::write(ligands);
    let atoms: usize = ligands.iter().map(Molecule::len).sum();
    match vsmol::sdf::parse(&sdf, "roundtrip") {
        Ok(back) if back.iter().map(Molecule::len).sum::<usize>() == atoms => {
            let per_parse = micro(m.micro_s, || {
                black_box(vsmol::sdf::parse(black_box(&sdf), "roundtrip").map(|m| m.len()).ok());
            });
            m.set("vsmol.sdf_parse_atoms_per_s", atoms as f64 / per_parse);
        }
        other => checks.fail(1, format!("SDF round-trip lost atoms: {:?}", other.map(|m| m.len()))),
    }
}

/// A direct `Trace::emit` loop.
fn trace_emit(m: &mut Layers) {
    const EVENTS: u32 = 1 << 16;
    let trace = Trace::new();
    let per_loop = micro(m.micro_s, || {
        for i in 0..EVENTS {
            trace.emit(Event::Counter { name: "perf", value: f64::from(i) });
        }
    });
    m.set("vstrace.emit_ns_per_event", per_loop * 1e9 / f64::from(EVENTS));
}

/// `vstrace.*` totals of a pass that ran with `trace` enabled, against the
/// tracing-off wall time of the same path.
fn vstrace_metrics(m: &mut Layers, rec: &mut Recorder, trace: &Trace, traced_s: f64, plain_s: f64) {
    let snapshot = trace.snapshot();
    m.set("vstrace.overhead_frac", traced_s / plain_s - 1.0);
    m.set("vstrace.events", snapshot.len() as f64);
    m.set("vstrace.dropped", snapshot.dropped as f64);
    let t0 = Instant::now();
    rec.time("vstrace", "vstrace.export", || {
        black_box(vstrace::chrome_trace_json(&snapshot).len())
    });
    m.set("vstrace.export_s", t0.elapsed().as_secs_f64());
}

/// Layer self times, closure and overhead of the `workload` root.
fn closure_metrics(m: &mut Layers, rec: &Recorder, root: usize, traced_s: f64, reference_s: f64) {
    let self_times = rec.self_times(root);
    for (layer, name) in [
        ("vsmol", "self.vsmol_s"),
        ("vsscore", "self.vsscore_s"),
        ("metaheur", "self.metaheur_s"),
        ("vsched", "self.vsched_s"),
        ("vscluster", "self.vscluster_s"),
        (HARNESS, "self.harness_s"),
    ] {
        m.set(name, self_times.get(layer).copied().unwrap_or(0.0));
    }
    m.set("trace.closure_frac", rec.closure_frac(root));
    m.set("trace.traced_wall_s", traced_s);
    m.set("trace.reference_wall_s", reference_s);
    m.set("trace.harness_overhead_frac", traced_s / reference_s - 1.0);
}

fn span_seconds(rec: &Recorder, name: &str) -> f64 {
    rec.total(name).0
}

/// Fill the process-global grid cache (four fields, first in first out)
/// with throwaway fields over a four-atom receptor, so the next pass
/// meets the same cold cache the first one did.
fn flush_grid_cache() {
    use vsmol::{Atom, Element};
    let tiny = |e: Element| {
        Molecule::new(
            "flush",
            (0..4).map(|i| Atom::new(vsmath::Vec3::X * f64::from(i), e)).collect(),
        )
    };
    let receptor = tiny(Element::C);
    for e in [Element::F, Element::P, Element::Br, Element::I] {
        black_box(vsscore::GridScorer::new(&receptor, &tiny(e), GridOptions::default()));
    }
}

// ---------------------------------------------------------------------------
// Workload kinds.
// ---------------------------------------------------------------------------

fn dock(cfg: &DockCfg, seed: u64, m: &mut Layers, checks: &mut Checks, rec: &mut Recorder) {
    let grid_events = Trace::new();
    let node = platform::hertz();

    // Pass 1: the hand-assembled stack.
    let (receptor, ligand, spots, scorer, hand) = rec.scope(HARNESS, "workload", |rec| {
        let (receptor, ligand, spots, scorer) = rec.scope(HARNESS, "setup", |rec| {
            let (receptor, ligand) =
                rec.time("vsmol", "vsmol.synth", || (cfg.complex.receptor(), cfg.complex.ligand()));
            let spots = rec.time("vsmol", "vsmol.detect_spots", || {
                let opts = SurfaceOptions { max_spots: cfg.spots, ..Default::default() };
                surface::detect_spots(&receptor, &opts)
            });
            let scorer = rec.time("vsscore", "vsscore.scorer_build", || {
                Arc::new(Scorer::new_traced(&receptor, &ligand, cfg.scorer_options(), &grid_events))
            });
            (receptor, ligand, spots, scorer)
        });
        let hand = rec.scope(HARNESS, "timed", |rec| {
            hand_run(rec, &cfg.params, &spots, &scorer, &node, cfg.strategy, cfg.exec, seed)
        });
        (receptor, ligand, spots, scorer, hand)
    });
    let root = rec.last("workload").expect("root span");
    let traced_s = span_seconds(rec, "timed");

    checks.attempted = hand.result.evaluations.max(1);
    let mut ranked = hand.result.best_per_spot.clone();
    ranked.sort_by(vsmol::conformation::score_cmp);
    checks.outcome(&ranked, &hand.result.best, hand.result.evaluations, cfg.budget(), cfg.spots);
    checks.rescore(&receptor, &ligand, &hand.result.best, cfg.kernel);

    // Pass 2: the end-to-end code path, tracing off.
    let reference = rec.scope(HARNESS, "reference", |rec| {
        let screen = rec.time("vscreen", "vscreen.build", || dock_screen(cfg, seed));
        rec.time("vscreen", "vscreen.run", || screen.run(cfg.spec(&node)))
    });
    let same = reference.best.score.to_bits() == hand.result.best.score.to_bits()
        && reference.evaluations == hand.result.evaluations
        && reference.virtual_time.to_bits() == hand.virtual_time.to_bits();
    if !same {
        checks.fail(1, "hand-assembled stack and VirtualScreen::run disagree".to_string());
    }
    let reference_s = span_seconds(rec, "vscreen.run");

    // Pass 3: the same path with vstrace enabled.
    let trace = Trace::new();
    rec.scope(HARNESS, "vstrace_pass", |rec| {
        let screen = dock_screen(cfg, seed);
        rec.time("vscreen", "vscreen.run_traced", || screen.run(cfg.spec(&node).traced(&trace)))
    });
    let vstrace_s = span_seconds(rec, "vscreen.run_traced");

    m.set("vsmol.synth_s", span_seconds(rec, "vsmol.synth"));
    m.set("vsmol.detect_spots_s", span_seconds(rec, "vsmol.detect_spots"));
    m.set("vsmol.detect_spots_calls", 1.0);
    m.set("vsscore.scorer_build_s", span_seconds(rec, "vsscore.scorer_build"));
    m.set("vsscore.scorer_build_calls", 1.0);
    grid_metrics(m, &grid_events);
    m.set("vsched.evaluator_new_s", span_seconds(rec, "vsched.evaluator_new"));
    m.set("vsched.evaluator_new_calls", 1.0);
    m.set("vsched.steals", hand.steals as f64);
    m.set("vsched.oracle_reseeds", hand.reseeds as f64);
    m.set("gpusim.virtual_makespan_s", hand.virtual_time);
    let run_s = span_seconds(rec, "metaheur.run");
    seam_metrics(m, &hand.calls, run_s, hand.result.generations_run, cfg.exec);
    timeline_metrics(m, std::slice::from_ref(&hand.timeline));
    m.set("vscreen.build_s", span_seconds(rec, "vscreen.build"));
    m.set("vscreen.run_s", reference_s);
    m.set("vscreen.run_overhead_s", reference_s - traced_s);
    closure_metrics(m, rec, root, traced_s, reference_s);
    vstrace_metrics(m, rec, &trace, vstrace_s, reference_s);

    // Pass 4: micro measurements.
    let device_us = m.get("metaheur.evaluate_s") * 1e6 / hand.result.evaluations.max(1) as f64;
    ladder(rec, m, checks, &hand.captured, &scorer, &receptor, &ligand, cfg.strategy, device_us);
    engine_only(rec, m, &cfg.params, &spots, seed, cfg.exec);
    replay(m, &cfg.params, cfg.spots, scorer.pairs_per_eval(), cfg.strategy);
    cost_model(m, &batch_shapes(&hand.calls, &scorer));
    parsers(m, checks, &receptor, std::slice::from_ref(&ligand));
}

fn library(cfg: &LibraryCfg, seed: u64, m: &mut Layers, checks: &mut Checks, rec: &mut Recorder) {
    let grid_events = Trace::new();
    let node = platform::hertz();
    let mut hands: Vec<HandRun> = Vec::with_capacity(cfg.ligands);
    let mut probe: Option<(Arc<Scorer>, Vec<Spot>)> = None;

    // Pass 1: the loop body assembled by hand, one span per public call.
    let (receptor, ligands) = rec.scope(HARNESS, "workload", |rec| {
        let (receptor, ligands) = rec.scope(HARNESS, "setup", |rec| {
            rec.time("vsmol", "vsmol.synth", || (cfg.receptor(), synth_library(cfg.ligands, seed)))
        });
        rec.scope(HARNESS, "timed", |rec| {
            for (i, lig) in ligands.iter().enumerate() {
                let spots = rec.time("vsmol", "vsmol.detect_spots", || {
                    let opts = SurfaceOptions { max_spots: cfg.spots, ..Default::default() };
                    surface::detect_spots(&receptor, &opts)
                });
                let scorer = rec.time("vsscore", "vsscore.scorer_build", || {
                    Arc::new(Scorer::new_traced(&receptor, lig, cfg.scorer_options(), &grid_events))
                });
                let ligand_seed = seed.wrapping_add(i as u64);
                hands.push(hand_run(
                    rec,
                    &cfg.params,
                    &spots,
                    &scorer,
                    &node,
                    cfg.strategy,
                    None,
                    ligand_seed,
                ));
                if i == cfg.ligands / 2 {
                    probe = Some((scorer, spots));
                }
            }
        });
        (receptor, ligands)
    });
    let root = rec.last("workload").expect("root span");
    let traced_s = span_seconds(rec, "timed");
    let hand_out = LibraryOutcome::collect(
        hands.iter().map(|h| (h.result.best, h.result.evaluations, h.virtual_time)).collect(),
    );
    checks.attempted = hand_out.evaluations.max(1);
    checks.library(&hand_out, &receptor, &ligands, cfg);

    // Pass 2: the end-to-end loop, tracing off, on a cache as cold as pass 1 met.
    flush_grid_cache();
    let reference = rec.scope(HARNESS, "reference", |rec| {
        library_loop(cfg, &receptor, &ligands, &node, seed, &Trace::disabled(), rec)
    });
    let same =
        reference.evaluations == hand_out.evaluations
            && reference.virtual_time.to_bits() == hand_out.virtual_time.to_bits()
            && reference.hits.len() == hand_out.hits.len()
            && reference.hits.iter().zip(&hand_out.hits).all(|(a, b)| {
                a.ligand == b.ligand && a.best.score.to_bits() == b.best.score.to_bits()
            });
    if !same {
        checks.fail(1, "hand-assembled library loop and VirtualScreen loop disagree".to_string());
    }
    let reference_s = span_seconds(rec, "reference");
    m.set("vscreen.build_s", span_seconds(rec, "vscreen.build"));
    m.set("vscreen.run_s", span_seconds(rec, "vscreen.run"));

    // Pass 3: the same loop with vstrace enabled.
    flush_grid_cache();
    let trace = Trace::new();
    rec.scope(HARNESS, "vstrace_pass", |_| {
        library_loop(cfg, &receptor, &ligands, &node, seed, &trace, &mut Recorder::disabled())
    });
    let vstrace_s = span_seconds(rec, "vstrace_pass");

    let (spots_s, spots_calls) = rec.total("vsmol.detect_spots");
    let (build_s, build_calls) = rec.total("vsscore.scorer_build");
    let (new_s, new_calls) = rec.total("vsched.evaluator_new");
    m.set("vsmol.synth_s", span_seconds(rec, "vsmol.synth"));
    m.set("vsmol.detect_spots_s", spots_s);
    m.set("vsmol.detect_spots_calls", spots_calls as f64);
    m.set("vsscore.scorer_build_s", build_s);
    m.set("vsscore.scorer_build_calls", build_calls as f64);
    grid_metrics(m, &grid_events);
    m.set("vsched.evaluator_new_s", new_s);
    m.set("vsched.evaluator_new_calls", new_calls as f64);
    m.set("vsched.steals", hands.iter().map(|h| h.steals).sum::<u64>() as f64);
    m.set("vsched.oracle_reseeds", hands.iter().map(|h| h.reseeds).sum::<u64>() as f64);
    m.set("gpusim.virtual_makespan_s", hand_out.virtual_time);
    let calls: Vec<EvalCall> = hands.iter().flat_map(|h| h.calls.iter().copied()).collect();
    let generations = hands.iter().map(|h| h.result.generations_run).sum();
    seam_metrics(m, &calls, span_seconds(rec, "metaheur.run"), generations, None);
    timeline_metrics(m, &hands.iter().map(|h| h.timeline.clone()).collect::<Vec<_>>());
    m.set("vscreen.run_overhead_s", reference_s - traced_s);
    closure_metrics(m, rec, root, traced_s, reference_s);
    vstrace_metrics(m, rec, &trace, vstrace_s, reference_s);

    // Pass 4: micro measurements on the middle ligand.
    let mid = cfg.ligands / 2;
    let (scorer, spots) = probe.expect("the middle ligand was screened");
    let device_us = m.get("metaheur.evaluate_s") * 1e6 / hand_out.evaluations.max(1) as f64;
    ladder(
        rec,
        m,
        checks,
        &hands[mid].captured,
        &scorer,
        &receptor,
        &ligands[mid],
        cfg.strategy,
        device_us,
    );
    engine_only(rec, m, &cfg.params, &spots, seed, None);
    replay(m, &cfg.params, cfg.spots, scorer.pairs_per_eval(), cfg.strategy);
    cost_model(m, &batch_shapes(&hands[mid].calls, &scorer));
    parsers(m, checks, &receptor, &ligands);
}

/// One campaign pass under root span `name`: the report and the timed
/// region's wall seconds.
fn campaign_pass(
    rec: &mut Recorder,
    name: &'static str,
    cfg: &CampaignCfg,
    seed: u64,
    trace: &Trace,
) -> (CampaignReport, f64) {
    rec.scope(HARNESS, name, |rec| {
        let (mut svc, traffic) = rec.scope(HARNESS, "setup", |rec| {
            rec.time("vscluster", "vscluster.setup", || {
                (campaign_service(cfg).traced(trace), bursty_traffic(&cfg.traffic, seed))
            })
        });
        let t0 = Instant::now();
        let report = rec.scope(HARNESS, "timed", |rec| campaign_timed(&mut svc, traffic, rec));
        (report, t0.elapsed().as_secs_f64())
    })
}

fn campaign(cfg: &CampaignCfg, seed: u64, m: &mut Layers, checks: &mut Checks, rec: &mut Recorder) {
    let off = Trace::disabled();

    // Pass 1: the spanned run. The campaign path is four public calls, so
    // the hand-assembled stack and the end-to-end path are the same code
    // with and without spans.
    let (report, traced_s) = campaign_pass(rec, "workload", cfg, seed, &off);
    let root = rec.last("workload").expect("root span");
    let (submit_s, drain_s) =
        (span_seconds(rec, "vscluster.submit"), span_seconds(rec, "vscluster.drain"));
    checks.attempted = cfg.jobs() as u64;
    checks.campaign(&report, cfg);

    // Pass 2: tracing off.
    let mut plain = Recorder::disabled();
    let (reference, reference_s) = campaign_pass(&mut plain, "reference", cfg, seed, &off);
    if reference != report {
        checks.fail(1, "two drains of the same traffic disagree".to_string());
    }

    // Pass 3: vstrace enabled.
    let trace = Trace::new();
    let (_, vstrace_s) = campaign_pass(&mut plain, "vstrace_pass", cfg, seed, &trace);

    // Half size: the other point of the drain scaling fit.
    let mut half_rec = Recorder::new();
    campaign_pass(&mut half_rec, "half", &cfg.halved(), seed, &off);
    let half_drain_s = span_seconds(&half_rec, "vscluster.drain");

    m.set("vscluster.setup_s", span_seconds(rec, "vscluster.setup"));
    m.set("vscluster.submit_s", submit_s);
    m.set("vscluster.drain_s", drain_s);
    m.set("vscluster.drain_us_per_job", drain_s * 1e6 / report.total_jobs.max(1) as f64);
    m.set("vscluster.drain_scaling_exp", (drain_s / half_drain_s).log2());
    m.set("vscluster.cache_hits", report.cache_hits as f64);
    m.set("vscluster.requeued_jobs", report.requeued_jobs as f64);
    m.set("vscluster.utilization", report.utilization);
    m.set("vscluster.queue_p50_virtual_s", report.queue_p50_s);
    m.set("vscluster.queue_p99_virtual_s", report.queue_p99_s);
    m.set("vscluster.interactive_p99_virtual_s", report.interactive_p99_s);
    m.set("gpusim.virtual_makespan_s", report.makespan);
    closure_metrics(m, rec, root, traced_s, reference_s);
    vstrace_metrics(m, rec, &trace, vstrace_s, reference_s);

    // Micro measurements on the campaign's job shapes.
    let t = &cfg.traffic;
    let params = metaheur::m1(t.scale);
    let jobs = vscluster::synthetic_library(64, &params, seed);
    let pairs = jobs[0].pairs_per_eval(t.receptor_atoms);
    replay(m, &params, t.n_spots, pairs, t.strategy);
    let shapes: Vec<gpusim::WorkBatch> = jobs
        .iter()
        .map(|j| {
            gpusim::WorkBatch::conformations(
                j.total_items(t.n_spots),
                j.pairs_per_eval(t.receptor_atoms),
            )
        })
        .collect();
    cost_model(m, &shapes);
}

/// Run the traced passes of `w` in this process.
pub fn run(w: Workload, seed: u64, smoke: bool) -> Traced {
    let mut layers = Layers::new(if smoke { MICRO_SECONDS.1 } else { MICRO_SECONDS.0 });
    let mut checks = Checks::new(1);
    let mut recorder = Recorder::new();
    match config(w, smoke) {
        Cfg::Dock(c) => dock(&c, seed, &mut layers, &mut checks, &mut recorder),
        Cfg::Library(c) => library(&c, seed, &mut layers, &mut checks, &mut recorder),
        Cfg::Campaign(c) => campaign(&c, seed, &mut layers, &mut checks, &mut recorder),
    }
    trace_emit(&mut layers);
    layers.set("trace.spans", recorder.spans().len() as f64);
    layers.set("trace.failed_frac", checks.failed as f64 / checks.attempted as f64);
    Traced { layers, checks, recorder }
}
