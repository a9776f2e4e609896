//! The whole-surface virtual-screening pipeline.

use gpusim::SimNode;
use metaheur::{BatchEvaluator, CpuEvaluator, EngineExec, MetaheuristicParams};
use std::sync::Arc;
use vsched::{DeviceEvaluator, Strategy};
use vsmol::{surface, Conformation, Dataset, Molecule, Spot, SurfaceOptions};
use vsscore::{Exec, Scorer, ScorerOptions};
use vstrace::Trace;

/// Which execution backend a [`RunSpec`] targets.
enum Backend<'a> {
    /// Host CPU threads, no virtual timing — the quality-measurement path.
    Cpu { threads: usize },
    /// A simulated heterogeneous node under a scheduling strategy
    /// (§3.2–3.3).
    Node { node: &'a SimNode, strategy: Strategy },
}

/// Declarative description of one screening run: metaheuristic parameters,
/// an execution backend, and (optionally) a trace sink. Consumed by
/// [`VirtualScreen::run`], the single entry point that replaced the
/// per-backend `run_*` methods.
///
/// ```no_run
/// # use vscreen::{RunSpec, VirtualScreen};
/// # use vsmol::Dataset;
/// let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(3).build();
/// let params = metaheur::m1(0.05);
/// let outcome = screen.run(RunSpec::cpu(&params, 4));
/// # let _ = outcome;
/// ```
pub struct RunSpec<'a> {
    params: &'a MetaheuristicParams,
    backend: Backend<'a>,
    trace: Trace,
    exec: Option<EngineExec>,
}

impl<'a> RunSpec<'a> {
    /// Run on `threads` host CPU threads (real compute, no virtual time).
    pub fn cpu(params: &'a MetaheuristicParams, threads: usize) -> RunSpec<'a> {
        RunSpec { params, backend: Backend::Cpu { threads }, trace: Trace::disabled(), exec: None }
    }

    /// Run on a simulated node under `strategy`; the outcome carries the
    /// modeled makespan. Under [`Strategy::CpuOnly`] the host CPU is the
    /// only lane; under [`Strategy::WorkSteal`] and [`Strategy::Oracle`] it
    /// joins the GPUs in the runtime's steal pool.
    pub fn on_node(
        params: &'a MetaheuristicParams,
        node: &'a SimNode,
        strategy: Strategy,
    ) -> RunSpec<'a> {
        RunSpec {
            params,
            backend: Backend::Node { node, strategy },
            trace: Trace::disabled(),
            exec: None,
        }
    }

    /// Attach a [`vstrace::Trace`]: the run is wrapped in a `screen` span,
    /// the engine emits generation spans and `GenerationDone` events, and
    /// the node scheduler contributes `DeviceBusy` / `BatchScored` /
    /// warm-up / `JobMigrated` events.
    pub fn traced(mut self, trace: &Trace) -> Self {
        self.trace = trace.clone();
        self
    }

    /// Select the engine execution mode (DESIGN.md §12).
    ///
    /// Without this call the run uses the lockstep loop with no host-side
    /// cost model and free-running device clocks — exactly the pre-pipeline
    /// behavior, bit for bit, virtual time included. With
    /// [`EngineExec::Lockstep`] the same loop is charged host
    /// variation/selection costs so it compares honestly against
    /// [`EngineExec::Pipelined`], which overlaps variation with scoring
    /// through the stage ring ([`metaheur::pipeline`]). The search is the
    /// same in all three.
    pub fn exec(mut self, exec: EngineExec) -> Self {
        self.exec = Some(exec);
        self
    }
}

/// A prepared screening problem: receptor + ligand + detected surface spots
/// + scoring context. Build with [`VirtualScreen::builder`].
#[derive(Debug, Clone)]
pub struct VirtualScreen {
    receptor: Molecule,
    ligand: Molecule,
    spots: Vec<Spot>,
    scorer: Arc<Scorer>,
    seed: u64,
}

/// Builder for [`VirtualScreen`].
pub struct VirtualScreenBuilder {
    receptor: Molecule,
    ligand: Molecule,
    surface: SurfaceOptions,
    spots: Option<Vec<Spot>>,
    scorer_opts: ScorerOptions,
    seed: u64,
}

impl VirtualScreen {
    /// Start from one of the paper's benchmark datasets (Table 5).
    pub fn builder(dataset: Dataset) -> VirtualScreenBuilder {
        VirtualScreenBuilder::new(dataset.receptor(), dataset.ligand())
    }

    /// Start from arbitrary molecules (e.g. parsed from real PDB files).
    pub fn from_molecules(receptor: Molecule, ligand: Molecule) -> VirtualScreenBuilder {
        VirtualScreenBuilder::new(receptor, ligand)
    }

    pub fn receptor(&self) -> &Molecule {
        &self.receptor
    }

    pub fn ligand(&self) -> &Molecule {
        &self.ligand
    }

    /// The independent surface regions being screened (§3.1).
    pub fn spots(&self) -> &[Spot] {
        &self.spots
    }

    /// The screen's scorer, made by [`Scorer::for_spots`]: it scores every
    /// pose clamped to one of [`VirtualScreen::spots`]; under
    /// [`vsscore::Kernel::Grid`] a pose farther out may read lattice nodes
    /// that were not built. Score arbitrary poses with a [`Scorer::new`].
    pub fn scorer(&self) -> Arc<Scorer> {
        self.scorer.clone()
    }

    /// Pair interactions per conformation evaluation.
    pub fn pairs_per_eval(&self) -> u64 {
        self.scorer.pairs_per_eval()
    }

    /// Run a metaheuristic as described by `spec` — the single entry point
    /// for every backend: host CPU threads or a simulated node under a
    /// scheduling strategy (all through the unified node runtime,
    /// DESIGN.md §10), with whichever kernel the screen's
    /// [`ScorerOptions`] selected — the `O(ligand)` potential grid
    /// (`Kernel::Grid`) included. Attach a [`vstrace::Trace`] with
    /// [`RunSpec::traced`] for structured observability on any backend.
    pub fn run(&self, spec: RunSpec<'_>) -> ScreenOutcome {
        let trace = spec.trace;
        let exec = spec.exec;
        match spec.backend {
            Backend::Cpu { threads } => {
                let _screen = trace.span("screen");
                let mut ev = CpuEvaluator::new((*self.scorer).clone(), Exec::Pool(threads));
                let run = run_engine(spec.params, &self.spots, &mut ev, self.seed, &trace, exec);
                ScreenOutcome::from_run(run, f64::NAN)
            }
            Backend::Node { node, strategy } => {
                // Scores are computed for real on host threads; the
                // returned [`ScreenOutcome::virtual_time`] is the modeled
                // node makespan, including any warm-up phase.
                node.reset();
                let _screen = trace.span("screen");
                // The OpenMP baseline runs on the host CPU alone. Work
                // stealing and the learned oracle run the *whole*
                // heterogeneous node: the host CPU joins the device pool as
                // one more lane pulling chunks from the shared deques. The
                // split strategies keep the paper's GPU-only partitioning
                // (the CPU orchestrates).
                let devices = match strategy {
                    Strategy::CpuOnly => vec![node.cpu().clone()],
                    Strategy::WorkSteal { .. } | Strategy::Oracle { .. } => {
                        std::iter::once(node.cpu()).chain(node.gpus()).cloned().collect()
                    }
                    _ => node.gpus().to_vec(),
                };
                let mut ev = DeviceEvaluator::new(devices, self.scorer.clone(), strategy)
                    .with_trace(trace.clone());
                let run = run_engine(spec.params, &self.spots, &mut ev, self.seed, &trace, exec);
                ScreenOutcome::from_run(run, ev.makespan())
            }
        }
    }

    /// Render a docked pose as PDB text (ligand atoms transformed into
    /// receptor space) — the Figure 1 analog, loadable in any molecular
    /// viewer alongside the receptor.
    pub fn pose_pdb(&self, conf: &Conformation) -> String {
        let posed = self.ligand.centered().transformed(&conf.pose);
        vsmol::pdb::write(&posed)
    }

    /// Render the whole complex — receptor plus docked ligand — as one PDB
    /// file (chains A and B): the exact Figure 1 rendering, for any
    /// molecular viewer.
    pub fn complex_pdb(&self, conf: &Conformation) -> String {
        let posed = self.ligand.centered().transformed(&conf.pose);
        vsmol::pdb::write_complex(&self.receptor, &posed)
    }

    /// Greedy RMSD clustering of an outcome's per-spot best poses
    /// (AutoDock-style): clusters of spots whose best poses are within
    /// `rmsd_cutoff` Å of each other, best cluster first. Distinct clusters
    /// correspond to distinct candidate binding sites.
    pub fn cluster_poses(&self, outcome: &ScreenOutcome, rmsd_cutoff: f64) -> Vec<Vec<usize>> {
        vsmol::rmsd::cluster_poses(&self.ligand, &outcome.ranked, rmsd_cutoff)
    }
}

impl VirtualScreenBuilder {
    fn new(receptor: Molecule, ligand: Molecule) -> VirtualScreenBuilder {
        assert!(!receptor.is_empty() && !ligand.is_empty(), "empty molecule");
        VirtualScreenBuilder {
            receptor,
            ligand,
            surface: SurfaceOptions::default(),
            spots: None,
            scorer_opts: ScorerOptions::default(),
            seed: 0xD0C5,
        }
    }

    /// Replace the surface/spot-detection options wholesale.
    pub fn surface_options(mut self, opts: SurfaceOptions) -> Self {
        self.surface = opts;
        self
    }

    /// Cap the number of detected spots (0 = unlimited).
    pub fn max_spots(mut self, n: usize) -> Self {
        self.surface.max_spots = n;
        self
    }

    /// Use spots already detected on this receptor instead of detecting
    /// them in [`VirtualScreenBuilder::build`]: spots belong to the
    /// receptor, so a caller screening many ligands against it detects
    /// once. The surface options are then unused.
    pub fn spots(mut self, spots: Vec<Spot>) -> Self {
        self.spots = Some(spots);
        self
    }

    /// Replace the scoring options (model/kernel).
    pub fn scorer_options(mut self, opts: ScorerOptions) -> Self {
        self.scorer_opts = opts;
        self
    }

    /// Root seed for the stochastic search.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Detect spots (unless given) and prepare the scorer for poses
    /// clamped to them ([`Scorer::for_spots`]).
    ///
    /// # Panics
    /// Panics if no spots are found (e.g. a degenerate receptor).
    pub fn build(self) -> VirtualScreen {
        let spots =
            self.spots.unwrap_or_else(|| surface::detect_spots(&self.receptor, &self.surface));
        assert!(!spots.is_empty(), "no surface spots detected on {}", self.receptor.name);
        // Every pose the engine scores is clamped to one of these spots, so
        // a grid scorer needs the lattice only within their reach.
        let scorer =
            Arc::new(Scorer::for_spots(&self.receptor, &self.ligand, self.scorer_opts, &spots));
        VirtualScreen {
            receptor: self.receptor,
            ligand: self.ligand,
            spots,
            scorer,
            seed: self.seed,
        }
    }
}

/// Result of one screening run.
#[derive(Debug, Clone)]
pub struct ScreenOutcome {
    /// Best pose over the whole surface.
    pub best: Conformation,
    /// Best pose per spot, ranked best-first — the paper's "ranking of
    /// chemical compounds according to the estimated affinity".
    pub ranked: Vec<Conformation>,
    /// Total scoring evaluations.
    pub evaluations: u64,
    /// Generations executed.
    pub generations_run: usize,
    /// Modeled node execution time in seconds (`NaN` for host-only runs).
    pub virtual_time: f64,
}

impl ScreenOutcome {
    fn from_run(run: metaheur::RunResult, virtual_time: f64) -> ScreenOutcome {
        let mut ranked = run.best_per_spot.clone();
        ranked.sort_by(vsmol::conformation::score_cmp);
        ScreenOutcome {
            best: run.best,
            ranked,
            evaluations: run.evaluations,
            generations_run: run.generations_run,
            virtual_time,
        }
    }

    /// Distribution of best scores over the protein surface — BINDSURF's
    /// spot-discovery analysis ("the distribution of scoring function
    /// values over the entire protein surface", §2.1). `None` when no spot
    /// has a finite score.
    pub fn score_histogram(&self, bins: usize) -> Option<vsmath::Histogram> {
        let scores: Vec<f64> =
            self.ranked.iter().map(|c| c.score).filter(|s| s.is_finite()).collect();
        vsmath::Histogram::auto(&scores, bins)
    }
}

/// Dispatch to the uncharged lockstep loop (no exec mode requested — the
/// historical behavior) or to the mode-aware entry point
/// ([`metaheur::run_exec`]), which charges host costs under `Lockstep` and
/// runs the stage ring under `Pipelined`.
fn run_engine<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[vsmol::Spot],
    ev: &mut E,
    seed: u64,
    trace: &Trace,
    exec: Option<EngineExec>,
) -> metaheur::RunResult {
    match exec {
        None => metaheur::run_traced(params, spots, ev, seed, trace),
        Some(exec) => metaheur::run_exec(params, spots, ev, seed, &[], trace, exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform;
    use vsched::WarmupConfig;

    fn quick_screen() -> VirtualScreen {
        VirtualScreen::builder(Dataset::TwoBsm).max_spots(3).seed(7).build()
    }

    /// [`quick_screen`] scored through the potential grid.
    fn grid_screen() -> VirtualScreen {
        let kernel = vsscore::Kernel::Grid { spacing: 0.75 };
        VirtualScreen::builder(Dataset::TwoBsm)
            .max_spots(3)
            .seed(7)
            .scorer_options(ScorerOptions { kernel, ..Default::default() })
            .build()
    }

    #[test]
    fn builder_detects_spots_and_prepares_scorer() {
        let s = quick_screen();
        assert_eq!(s.spots().len(), 3);
        assert_eq!(s.pairs_per_eval(), (45 * 3264) as u64);
        assert_eq!(s.receptor().len(), 3264);
        assert_eq!(s.ligand().len(), 45);
    }

    #[test]
    fn cpu_run_produces_ranked_spots() {
        let s = quick_screen();
        let p = metaheur::m1(0.03);
        let out = s.run(RunSpec::cpu(&p, 4));
        assert_eq!(out.ranked.len(), 3);
        for w in out.ranked.windows(2) {
            assert!(w[0].score <= w[1].score, "ranking out of order");
        }
        assert_eq!(out.best.score, out.ranked[0].score);
        assert!(out.virtual_time.is_nan());
    }

    #[test]
    fn node_run_reports_virtual_time() {
        let s = quick_screen();
        let node = platform::hertz();
        let p = metaheur::m1(0.03);
        let out = s.run(RunSpec::on_node(
            &p,
            &node,
            Strategy::HeterogeneousSplit {
                warmup: WarmupConfig { iterations: 2, ..Default::default() },
            },
        ));
        assert!(out.virtual_time > 0.0);
        assert!(out.best.is_scored());
    }

    #[test]
    fn cpu_only_strategy_charges_cpu_clock() {
        let s = quick_screen();
        let node = platform::hertz();
        let p = metaheur::m1(0.03);
        let out = s.run(RunSpec::on_node(&p, &node, Strategy::CpuOnly));
        assert!(out.virtual_time > 0.0);
        assert_eq!(node.cpu().clock(), out.virtual_time);
        assert_eq!(node.gpu(0).clock(), 0.0, "GPUs must stay idle");
    }

    #[test]
    fn gpu_beats_cpu_virtual_time() {
        let s = quick_screen();
        let node = platform::hertz();
        let p = metaheur::m1(0.03);
        let t_cpu = s.run(RunSpec::on_node(&p, &node, Strategy::CpuOnly)).virtual_time;
        let t_gpu = s.run(RunSpec::on_node(&p, &node, Strategy::HomogeneousSplit)).virtual_time;
        assert!(t_cpu / t_gpu > 5.0, "GPU speedup only {}", t_cpu / t_gpu);
    }

    #[test]
    fn same_seed_same_result_across_strategies() {
        // Scheduling must not change the search trajectory (per-spot RNG
        // streams): identical best scores on CPU and on the node, whatever
        // the strategy — including work stealing, where chunk migration
        // changes which device scores what but never the numbers.
        let s = quick_screen();
        let node = platform::hertz();
        let p = metaheur::m1(0.03);
        let a = s.run(RunSpec::on_node(&p, &node, Strategy::CpuOnly));
        let b = s.run(RunSpec::on_node(&p, &node, Strategy::HomogeneousSplit));
        let c = s.run(RunSpec::on_node(
            &p,
            &node,
            Strategy::WorkSteal {
                warmup: WarmupConfig { iterations: 2, ..Default::default() },
                divisor: 2,
            },
        ));
        assert_eq!(a.best.score, b.best.score);
        assert_eq!(a.best.pose, b.best.pose);
        assert_eq!(a.best.score.to_bits(), c.best.score.to_bits());
        assert_eq!(a.best.pose, c.best.pose);
    }

    #[test]
    fn work_steal_runs_whole_node() {
        // Under WorkSteal the host CPU is one more lane in the steal pool:
        // it gets seeded work (or steals), so its clock advances alongside
        // the GPUs'.
        let s = quick_screen();
        let node = platform::hertz();
        let p = metaheur::m1(0.03);
        let out = s.run(RunSpec::on_node(
            &p,
            &node,
            Strategy::WorkSteal {
                warmup: WarmupConfig { iterations: 2, ..Default::default() },
                divisor: 2,
            },
        ));
        assert!(out.virtual_time > 0.0);
        assert!(node.cpu().clock() > 0.0, "CPU lane must participate");
        assert!(node.gpu(0).clock() > 0.0);
    }

    #[test]
    fn grid_and_cell_list_kernels_reach_every_backend() {
        // The first-class kernels must be selectable at the RunSpec level
        // and bit-identical between the host-CPU path and the
        // whole-node work-stealing path.
        use vsscore::Kernel;
        let node = platform::hertz();
        let p = metaheur::m1(0.03);
        for kernel in [Kernel::Grid { spacing: 0.75 }, Kernel::CellList { cutoff: 12.0 }] {
            let s = VirtualScreen::builder(Dataset::TwoBsm)
                .max_spots(2)
                .seed(7)
                .scorer_options(ScorerOptions { kernel, ..Default::default() })
                .build();
            let cpu = s.run(RunSpec::cpu(&p, 2));
            assert!(cpu.best.is_scored(), "{kernel:?} cpu run");
            let steal = s.run(RunSpec::on_node(
                &p,
                &node,
                Strategy::WorkSteal {
                    warmup: WarmupConfig { iterations: 2, ..Default::default() },
                    divisor: 2,
                },
            ));
            assert_eq!(cpu.best.score.to_bits(), steal.best.score.to_bits(), "{kernel:?}");
            assert!(steal.virtual_time > 0.0);
        }
    }

    #[test]
    fn pose_pdb_is_parseable_and_in_receptor_frame() {
        let s = quick_screen();
        let p = metaheur::m1(0.02);
        let out = s.run(RunSpec::cpu(&p, 2));
        let pdb = s.pose_pdb(&out.best);
        let reparsed = vsmol::pdb::parse(&pdb, "pose").unwrap();
        assert_eq!(reparsed.len(), s.ligand().len());
        // The posed ligand sits near its spot, not at the origin.
        let spot = s.spots()[out.best.spot_id];
        assert!(reparsed.centroid().dist(spot.center) <= spot.radius + 1e-6);
    }

    #[test]
    fn gridded_search_agrees_with_exact_search() {
        let s = quick_screen();
        let p = metaheur::m1(0.05);
        let exact = s.run(RunSpec::cpu(&p, 4));
        let gridded = grid_screen().run(RunSpec::cpu(&p, 4));
        assert!(exact.best.score < 0.0);
        assert!(gridded.best.score < 0.0, "gridded search found no binding");
        // Re-score the gridded winner exactly: still a genuine binding.
        let rescore = s.scorer().score(&gridded.best.pose);
        assert!(rescore < 0.0, "gridded winner rescored to {rescore}");
    }

    #[test]
    fn complex_pdb_holds_receptor_and_ligand() {
        let s = quick_screen();
        let p = metaheur::m1(0.02);
        let out = s.run(RunSpec::cpu(&p, 2));
        let text = s.complex_pdb(&out.best);
        let complex = vsmol::pdb::parse_structure(&text, "complex").unwrap();
        assert_eq!(complex.protein().len(), s.receptor().len());
        let ligs = complex.ligands();
        assert_eq!(ligs.len(), 1);
        assert_eq!(ligs[0].len(), s.ligand().len());
    }

    #[test]
    fn score_histogram_covers_all_spots() {
        let s = quick_screen();
        let p = metaheur::m1(0.03);
        let out = s.run(RunSpec::cpu(&p, 4));
        let h = out.score_histogram(4).expect("scored spots");
        assert_eq!(h.total() as usize, s.spots().len());
    }

    #[test]
    fn pose_clustering_partitions_spots() {
        let s = quick_screen();
        let p = metaheur::m1(0.03);
        let out = s.run(RunSpec::cpu(&p, 4));
        let clusters = s.cluster_poses(&out, 4.0);
        let covered: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(covered, out.ranked.len());
        // Best cluster is seeded by the best pose.
        assert_eq!(out.ranked[clusters[0][0]].score, out.best.score);
    }

    #[test]
    fn exec_modes_preserve_search_trajectory() {
        // The engine execution mode changes *when* work happens, never
        // *what* is computed: default (no mode), charged Lockstep, and
        // Pipelined at several depths must all land on bit-identical poses.
        let s = quick_screen();
        let node = platform::hertz();
        let p = metaheur::m1(0.03);
        let base = s.run(RunSpec::on_node(&p, &node, Strategy::HomogeneousSplit));
        for exec in [
            EngineExec::Lockstep,
            EngineExec::Pipelined { depth: 1 },
            EngineExec::Pipelined { depth: 2 },
        ] {
            let out = s.run(RunSpec::on_node(&p, &node, Strategy::HomogeneousSplit).exec(exec));
            assert_eq!(base.best.score.to_bits(), out.best.score.to_bits(), "{exec:?}");
            assert_eq!(base.best.pose, out.best.pose, "{exec:?}");
            assert_eq!(base.evaluations, out.evaluations, "{exec:?}");
            assert!(out.virtual_time > 0.0, "{exec:?}");
        }
    }

    #[test]
    fn exec_modes_run_on_every_backend() {
        let s = quick_screen();
        let p = metaheur::m1(0.02);
        let exec = EngineExec::Pipelined { depth: 2 };
        let cpu = s.run(RunSpec::cpu(&p, 2).exec(exec));
        assert!(cpu.best.is_scored());
        let grid = grid_screen().run(RunSpec::cpu(&p, 2).exec(exec));
        assert!(grid.best.is_scored());
        let node = platform::hertz();
        let cpu_node = s.run(RunSpec::on_node(&p, &node, Strategy::CpuOnly).exec(exec));
        assert!(cpu_node.best.is_scored());
        assert!(cpu_node.virtual_time > 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_ligand_rejected() {
        VirtualScreen::from_molecules(Dataset::TwoBsm.receptor(), Molecule::new("x", vec![]));
    }

    #[test]
    fn custom_molecules_roundtrip() {
        let rec = vsmol::synth::synth_receptor("custom", 500, 11);
        let lig = vsmol::synth::synth_ligand("lig", 10, 12);
        let s = VirtualScreen::from_molecules(rec, lig).max_spots(2).build();
        assert!(!s.spots().is_empty());
        let p = metaheur::m1(0.02);
        let out = s.run(RunSpec::cpu(&p, 2));
        assert!(out.best.is_scored());
    }
}
