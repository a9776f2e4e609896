//! The four workloads: their sizes, their seeded inputs, and the
//! tracing-off repetition that yields the end-to-end metrics.
//!
//! Every repetition sets up once, cold (a fresh process: the grid cache is
//! process-global, so an in-process repeat would be warm), then runs the
//! timed region once. Load is closed-loop with one client, this thread;
//! the program's own worker threads are the system under test. Only the
//! Hertz node is used: the box has two cores, and Jupiter's six GPU lanes
//! would measure the host OS scheduler.

use crate::calib;
use crate::checks::Checks;
use crate::procfs;
use crate::spans::Recorder;
use gpusim::SimNode;
use metaheur::{EngineExec, MetaheuristicParams};
use std::time::Instant;
use vsched::{Strategy, WarmupConfig};
use vscluster::{
    bursty_traffic, Campaign, CampaignReport, NetModel, ScalePlan, Service, ServiceConfig,
    SimCluster, TrafficConfig,
};
use vscreen::{platform, RunSpec, ScreenOutcome, VirtualScreen};
use vsmath::RngStream;
use vsmol::{Atom, Conformation, Dataset, Element, Molecule};
use vsscore::{GridOptions, Kernel, ScorerOptions};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DockPairs,
    DockGrid,
    LibraryGrid,
    CampaignBurst,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::DockPairs, Workload::DockGrid, Workload::LibraryGrid, Workload::CampaignBurst];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DockPairs => "dock_pairs",
            Workload::DockGrid => "dock_grid",
            Workload::LibraryGrid => "library_grid",
            Workload::CampaignBurst => "campaign_burst",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })
    }

    /// What one operation of `ops_per_s` is on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::CampaignBurst => "job",
            _ => "evaluation",
        }
    }
}

/// A receptor/ligand pair: a Table 5 complex, or a small synthetic one for
/// `--smoke` sizes.
#[derive(Debug, Clone, Copy)]
pub enum Complex {
    Table5(Dataset),
    Synthetic { receptor_atoms: usize, ligand_atoms: usize },
}

impl Complex {
    pub fn receptor(self) -> Molecule {
        match self {
            Complex::Table5(d) => d.receptor(),
            Complex::Synthetic { receptor_atoms, .. } => {
                vsmol::synth::synth_receptor("synthetic-receptor", receptor_atoms, 0x5E0C)
            }
        }
    }

    pub fn ligand(self) -> Molecule {
        match self {
            Complex::Table5(d) => d.ligand(),
            Complex::Synthetic { ligand_atoms, .. } => {
                vsmol::synth::synth_ligand("synthetic-ligand", ligand_atoms, 0x5E0D)
            }
        }
    }

    fn label(self) -> String {
        match self {
            Complex::Table5(d) => d.pdb_id().to_string(),
            Complex::Synthetic { receptor_atoms, ligand_atoms } => {
                format!("synthetic {receptor_atoms}x{ligand_atoms}")
            }
        }
    }
}

/// One receptor, one ligand, one metaheuristic run over the surface.
#[derive(Debug, Clone)]
pub struct DockCfg {
    pub complex: Complex,
    pub kernel: Kernel,
    pub params: MetaheuristicParams,
    pub spots: usize,
    pub strategy: Strategy,
    pub exec: Option<EngineExec>,
    /// Times a repetition runs the timed region after its one set-up. The
    /// region is `VirtualScreen::run`, which resets the node and builds
    /// its evaluator anew each time, so every run does the same work; a
    /// costly set-up is amortised over several samples this way.
    pub regions: usize,
}

impl DockCfg {
    pub fn scorer_options(&self) -> ScorerOptions {
        ScorerOptions { kernel: self.kernel, ..Default::default() }
    }

    pub fn spec<'a>(&'a self, node: &'a SimNode) -> RunSpec<'a> {
        let spec = RunSpec::on_node(&self.params, node, self.strategy);
        match self.exec {
            Some(exec) => spec.exec(exec),
            None => spec,
        }
    }

    /// Evaluations a run performs: fixed by the parameters and spot count.
    pub fn budget(&self) -> u64 {
        self.params.evals_per_spot() * self.spots as u64
    }
}

/// One receptor screened against a synthetic ligand library.
#[derive(Debug, Clone)]
pub struct LibraryCfg {
    pub receptor_atoms: usize,
    pub ligands: usize,
    pub kernel: Kernel,
    pub params: MetaheuristicParams,
    pub spots: usize,
    pub strategy: Strategy,
}

impl LibraryCfg {
    pub fn receptor(&self) -> Molecule {
        vsmol::synth::synth_receptor("library-receptor", self.receptor_atoms, 0x5E0C)
    }

    pub fn scorer_options(&self) -> ScorerOptions {
        ScorerOptions { kernel: self.kernel, ..Default::default() }
    }

    pub fn budget(&self) -> u64 {
        self.params.evals_per_spot() * (self.spots * self.ligands) as u64
    }
}

/// Bursty multi-tenant traffic through the campaign service.
#[derive(Debug, Clone)]
pub struct CampaignCfg {
    pub nodes: usize,
    pub traffic: TrafficConfig,
    pub join_at: f64,
    pub leave_at: (f64, usize),
}

impl CampaignCfg {
    pub fn jobs(&self) -> usize {
        let t = &self.traffic;
        t.bulk_campaigns * t.bulk_jobs + t.bursts * t.burst_size * t.interactive_jobs
    }

    /// Jobs and nodes halved — the other point of the drain scaling fit.
    pub fn halved(&self) -> CampaignCfg {
        let mut half = self.clone();
        half.nodes = (self.nodes / 2).max(2);
        half.traffic.bulk_campaigns = (self.traffic.bulk_campaigns / 2).max(1);
        half.traffic.bursts = (self.traffic.bursts / 2).max(1);
        half
    }
}

#[derive(Debug, Clone)]
pub enum Cfg {
    Dock(DockCfg),
    Library(LibraryCfg),
    Campaign(CampaignCfg),
}

fn default_grid() -> Kernel {
    Kernel::Grid { spacing: GridOptions::default().spacing }
}

/// The workload's sizes. Full sizes give a timed region of 1.5–3 s on the
/// reference 2-core box: the box's noise comes in waves several seconds
/// long and only ever slows a run down, so many short regions find the
/// undisturbed time far more reliably than a few long ones. `smoke` sizes
/// keep the shapes and finish the whole suite in a few seconds.
pub fn config(w: Workload, smoke: bool) -> Cfg {
    let warmup = WarmupConfig::default();
    let small = Complex::Synthetic { receptor_atoms: 600, ligand_atoms: 12 };
    match w {
        Workload::DockPairs => Cfg::Dock(DockCfg {
            complex: if smoke { small } else { Complex::Table5(Dataset::TwoBsm) },
            kernel: Kernel::Fused,
            params: metaheur::m2(if smoke { 0.1 } else { 0.25 }),
            spots: if smoke { 3 } else { 16 },
            strategy: Strategy::HeterogeneousSplit { warmup },
            exec: None,
            regions: 1,
        }),
        Workload::DockGrid => Cfg::Dock(DockCfg {
            complex: if smoke { small } else { Complex::Table5(Dataset::TwoBxg) },
            kernel: default_grid(),
            params: metaheur::m4(if smoke { 0.05 } else { 1.2 }),
            spots: if smoke { 3 } else { 16 },
            strategy: Strategy::Oracle { warmup, divisor: 2 },
            exec: Some(EngineExec::Pipelined { depth: 4 }),
            regions: if smoke { 2 } else { 5 },
        }),
        Workload::LibraryGrid => Cfg::Library(LibraryCfg {
            receptor_atoms: if smoke { 600 } else { 300 },
            ligands: if smoke { 6 } else { 32 },
            kernel: default_grid(),
            params: metaheur::m1(0.05),
            spots: if smoke { 3 } else { 8 },
            strategy: Strategy::WorkSteal { warmup, divisor: 2 },
        }),
        Workload::CampaignBurst => Cfg::Campaign(CampaignCfg {
            nodes: if smoke { 4 } else { 32 },
            traffic: TrafficConfig {
                horizon_s: 0.3,
                bulk_campaigns: if smoke { 4 } else { 30 },
                bulk_jobs: if smoke { 40 } else { 600 },
                bursts: if smoke { 8 } else { 60 },
                burst_size: 3,
                interactive_jobs: 2,
                duplicate_fraction: 0.25,
                scale: 1.0,
                ..TrafficConfig::default()
            },
            join_at: 0.05,
            leave_at: (0.18, 1),
        }),
    }
}

/// The sizes as recorded in result files.
pub fn describe(cfg: &Cfg) -> String {
    match cfg {
        Cfg::Dock(c) => format!(
            "{} {:?} {} spots={} {} exec={:?} budget={} regions/rep={}",
            c.complex.label(),
            c.kernel,
            c.params.name,
            c.spots,
            c.strategy.label(),
            c.exec,
            c.budget(),
            c.regions
        ),
        Cfg::Library(c) => format!(
            "synthetic {} atoms, ligands={} {:?} {} spots={} {} budget={}",
            c.receptor_atoms,
            c.ligands,
            c.kernel,
            c.params.name,
            c.spots,
            c.strategy.label(),
            c.budget()
        ),
        Cfg::Campaign(c) => format!(
            "hertz nodes={} bulk={}x{} bursts={}x{}x{} dup={} jobs={}",
            c.nodes,
            c.traffic.bulk_campaigns,
            c.traffic.bulk_jobs,
            c.traffic.bursts,
            c.traffic.burst_size,
            c.traffic.interactive_jobs,
            c.traffic.duplicate_fraction,
            c.jobs()
        ),
    }
}

/// Element sets of the synthetic library, each used by two consecutive
/// ligands. The grid cache is keyed on the ligand's element set and holds
/// four fields, first in first out: six sets in rotation make every other
/// ligand a hit and every set's return a miss, whatever the seed, so the
/// build work of a run does not depend on the seed.
const ELEMENT_SETS: [&[Element]; 6] = [
    &[Element::C],
    &[Element::C, Element::N],
    &[Element::C, Element::O],
    &[Element::C, Element::N, Element::O],
    &[Element::C, Element::N, Element::O, Element::S],
    &[Element::C, Element::N, Element::O, Element::S, Element::Cl],
];

/// `n` ligands of `8 + (7·i mod 57)` atoms — sizes on both sides of the
/// 32-lane warp boundary. Geometry, charges and the element mix within a
/// ligand's set come from `seed`; sizes and sets do not.
pub fn synth_library(n: usize, seed: u64) -> Vec<Molecule> {
    (0..n)
        .map(|i| {
            let atoms = 8 + (7 * i) % 57;
            let name = format!("lig-{i:03}");
            let shape = vsmol::synth::synth_ligand(&name, atoms, seed.wrapping_add(i as u64));
            let set = ELEMENT_SETS[(i / 2) % ELEMENT_SETS.len()];
            let mut rng = RngStream::derive(seed, 0x11B0 + i as u64);
            let recolored = shape
                .atoms()
                .iter()
                .enumerate()
                .map(|(j, a)| {
                    // The first atoms cover the set; the rest are mostly carbon.
                    let element = match set.get(j) {
                        Some(&e) => e,
                        None if rng.chance(0.6) => set[0],
                        None => set[rng.index(set.len())],
                    };
                    Atom::with_charge(a.position, element, a.charge)
                })
                .collect();
            Molecule::new(name, recolored)
        })
        .collect()
}

/// A service sized so that nothing is rejected, with one join and one
/// leave planned.
pub fn campaign_service(cfg: &CampaignCfg) -> Service {
    let cluster = SimCluster::uniform(cfg.nodes, NetModel::infiniband(), platform::hertz);
    let capacity = cfg.jobs() * 2;
    let mut svc = Service::new(
        cluster,
        ServiceConfig {
            queue_capacity: capacity,
            cache_capacity: capacity,
            ..ServiceConfig::default()
        },
    );
    svc.scale(
        ScalePlan::new()
            .join_at(cfg.join_at, platform::hertz())
            .leave_at(cfg.leave_at.0, cfg.leave_at.1),
    );
    svc
}

/// One ligand's outcome in the library loop.
pub struct LibraryHit {
    pub ligand: usize,
    pub best: Conformation,
}

/// What the library loop returns: the body of
/// `vscreen::library::screen_library`, which cannot select a kernel.
pub struct LibraryOutcome {
    /// Best-first.
    pub hits: Vec<LibraryHit>,
    pub virtual_time: f64,
    pub evaluations: u64,
}

impl LibraryOutcome {
    pub fn collect(per_ligand: Vec<(Conformation, u64, f64)>) -> LibraryOutcome {
        let evaluations = per_ligand.iter().map(|(_, e, _)| e).sum();
        let virtual_time = per_ligand.iter().map(|(_, _, vt)| vt).sum();
        let mut hits: Vec<LibraryHit> = per_ligand
            .into_iter()
            .enumerate()
            .map(|(ligand, (best, _, _))| LibraryHit { ligand, best })
            .collect();
        hits.sort_by(|a, b| vsmol::conformation::score_cmp(&a.best, &b.best));
        LibraryOutcome { hits, virtual_time, evaluations }
    }
}

/// `screen_library`'s loop against the public API, with the kernel chosen
/// through `scorer_options`. Ligand `i` searches with `seed + i`.
pub fn library_loop(
    cfg: &LibraryCfg,
    receptor: &Molecule,
    ligands: &[Molecule],
    node: &SimNode,
    seed: u64,
    trace: &vstrace::Trace,
    rec: &mut Recorder,
) -> LibraryOutcome {
    let per_ligand = ligands
        .iter()
        .enumerate()
        .map(|(i, lig)| {
            let screen = rec.time("vscreen", "vscreen.build", || {
                VirtualScreen::from_molecules(receptor.clone(), lig.clone())
                    .max_spots(cfg.spots)
                    .seed(seed.wrapping_add(i as u64))
                    .scorer_options(cfg.scorer_options())
                    .build()
            });
            let out = rec.time("vscreen", "vscreen.run", || {
                screen.run(RunSpec::on_node(&cfg.params, node, cfg.strategy).traced(trace))
            });
            (out.best, out.evaluations, out.virtual_time)
        })
        .collect();
    LibraryOutcome::collect(per_ligand)
}

/// One tracing-off repetition: one cold set-up, then the timed region
/// once or (dock workloads) a few times.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Wall and CPU seconds of each run of the timed region.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Whether host times are brought to reference speed (`calib`): the
    /// workloads whose timed region keeps several threads busy.
    pub calibrated: bool,
    /// The machine's speed relative to the reference (`calib::speed`)
    /// during set-up and during each run of the timed region; 1 where the
    /// workload is not calibrated.
    pub setup_speed: f64,
    pub speed: Vec<f64>,
    /// Evaluations or jobs completed in one run of the timed region.
    pub ops: u64,
    pub peak_rss_mb: f64,
    pub virtual_makespan_s: f64,
    /// `campaign_burst` only.
    pub interactive_p99_virtual_s: Option<f64>,
    /// Bits of the best score (makespan bits for the campaign).
    pub best_bits: u64,
    pub evaluations: u64,
    pub checks: Checks,
}

/// Wall and CPU seconds of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, procfs::cpu_seconds().unwrap_or(0.0) - cpu0)
}

/// What a `dock` user sets up: molecules, surface spots and the scorer
/// (including any grid build).
pub fn dock_screen(cfg: &DockCfg, seed: u64) -> VirtualScreen {
    VirtualScreen::from_molecules(cfg.complex.receptor(), cfg.complex.ligand())
        .max_spots(cfg.spots)
        .seed(seed)
        .scorer_options(cfg.scorer_options())
        .build()
}

fn dock_rep(cfg: &DockCfg, seed: u64) -> Rep {
    // Calibrations alternate with the work: c setup c region c region c …
    let before_setup = calib::measure();
    let t0 = Instant::now();
    let screen = dock_screen(cfg, seed);
    let node = platform::hertz();
    let setup_s = t0.elapsed().as_secs_f64();

    let mut calibration = vec![calib::measure()];
    let mut runs: Vec<(ScreenOutcome, f64, f64)> = Vec::new();
    for _ in 0..cfg.regions.max(1) {
        runs.push(timed(|| screen.run(cfg.spec(&node))));
        calibration.push(calib::measure());
    }
    let (wall_s, cpu_s) = (runs.iter().map(|r| r.1).collect(), runs.iter().map(|r| r.2).collect());
    let speed = calibration.windows(2).map(|c| calib::speed(c[0], c[1])).collect();
    let (out, _, _) = runs.swap_remove(0);

    let mut checks = Checks::new(out.evaluations * (runs.len() as u64 + 1));
    checks.outcome(&out.ranked, &out.best, out.evaluations, cfg.budget(), cfg.spots);
    checks.rescore(screen.receptor(), screen.ligand(), &out.best, cfg.kernel);
    checks.virtual_time(out.virtual_time);
    for (again, _, _) in &runs {
        let same = again.best.score.to_bits() == out.best.score.to_bits()
            && again.evaluations == out.evaluations
            && again.virtual_time.to_bits() == out.virtual_time.to_bits();
        if !same {
            checks.fail(1, "two runs of the timed region disagree".to_string());
        }
    }
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        calibrated: true,
        setup_speed: calib::speed(before_setup, calibration[0]),
        speed,
        ops: out.evaluations,
        virtual_makespan_s: out.virtual_time,
        best_bits: out.best.score.to_bits(),
        evaluations: out.evaluations,
        checks,
        ..Rep::default()
    }
}

fn library_rep(cfg: &LibraryCfg, seed: u64) -> Rep {
    let t0 = Instant::now();
    let receptor = cfg.receptor();
    let ligands = synth_library(cfg.ligands, seed);
    let node = platform::hertz();
    let setup_s = t0.elapsed().as_secs_f64();

    let (out, wall_s, cpu_s) = timed(|| {
        let off = vstrace::Trace::disabled();
        library_loop(cfg, &receptor, &ligands, &node, seed, &off, &mut Recorder::disabled())
    });

    let mut checks = Checks::new(out.evaluations);
    checks.library(&out, &receptor, &ligands, cfg);
    checks.virtual_time(out.virtual_time);
    Rep {
        setup_s,
        wall_s: vec![wall_s],
        cpu_s: vec![cpu_s],
        setup_speed: 1.0,
        speed: vec![1.0],
        ops: out.evaluations,
        virtual_makespan_s: out.virtual_time,
        best_bits: out.hits.first().map_or(0, |h| h.best.score.to_bits()),
        evaluations: out.evaluations,
        checks,
        ..Rep::default()
    }
}

/// Submit every campaign, then drain.
pub fn campaign_timed(
    svc: &mut Service,
    traffic: Vec<Campaign>,
    rec: &mut Recorder,
) -> CampaignReport {
    rec.time("vscluster", "vscluster.submit", || {
        for c in traffic {
            svc.submit(c);
        }
    });
    rec.time("vscluster", "vscluster.drain", || svc.drain())
}

fn campaign_rep(cfg: &CampaignCfg, seed: u64) -> Rep {
    let t0 = Instant::now();
    let mut svc = campaign_service(cfg);
    let traffic = bursty_traffic(&cfg.traffic, seed);
    let setup_s = t0.elapsed().as_secs_f64();

    let (report, wall_s, cpu_s) =
        timed(|| campaign_timed(&mut svc, traffic, &mut Recorder::disabled()));

    let mut checks = Checks::new(cfg.jobs() as u64);
    checks.campaign(&report, cfg);
    checks.virtual_time(report.makespan);
    Rep {
        setup_s,
        wall_s: vec![wall_s],
        cpu_s: vec![cpu_s],
        setup_speed: 1.0,
        speed: vec![1.0],
        ops: report.completed_jobs as u64,
        virtual_makespan_s: report.makespan,
        interactive_p99_virtual_s: Some(report.interactive_p99_s),
        best_bits: report.makespan.to_bits(),
        evaluations: report.device_evals,
        checks,
        ..Rep::default()
    }
}

/// Run one tracing-off repetition of `w` in this process.
pub fn rep(w: Workload, seed: u64, smoke: bool) -> Rep {
    let mut rep = match config(w, smoke) {
        Cfg::Dock(c) => dock_rep(&c, seed),
        Cfg::Library(c) => library_rep(&c, seed),
        Cfg::Campaign(c) => campaign_rep(&c, seed),
    };
    rep.peak_rss_mb = procfs::peak_rss_mib().unwrap_or(0.0);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(m: &Molecule) -> u32 {
        m.elements().iter().fold(0, |acc, e| acc | 1 << e.index())
    }

    #[test]
    fn full_sizes_are_pinned() {
        let Cfg::Dock(pairs) = config(Workload::DockPairs, false) else { panic!() };
        assert_eq!(pairs.budget(), 13_312);
        let Cfg::Dock(grid) = config(Workload::DockGrid, false) else { panic!() };
        assert_eq!(grid.budget(), 2_048_000);
        let Cfg::Campaign(c) = config(Workload::CampaignBurst, false) else { panic!() };
        assert_eq!(c.jobs(), 18_360);
        assert_eq!(c.halved().nodes, 16);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("dock").is_err());
    }

    #[test]
    fn library_shape_is_fixed_and_content_is_seeded() {
        let a = synth_library(14, 1);
        let b = synth_library(14, 2);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.len(), 8 + (7 * i) % 57);
            assert_eq!((x.len(), mask(x)), (y.len(), mask(y)), "ligand {i}");
            let want = ELEMENT_SETS[(i / 2) % 6].iter().fold(0, |acc, e| acc | 1 << e.index());
            assert_eq!(mask(x), want, "ligand {i} must cover exactly its element set");
        }
        assert_ne!(a[3].positions(), b[3].positions(), "the seed must change geometry");
        assert_eq!(synth_library(5, 9)[4].positions(), synth_library(5, 9)[4].positions());
        assert_eq!(mask(&a[12]), mask(&a[0]), "sets rotate with period 12");
    }
}
