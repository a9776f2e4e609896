//! The [`Scorer`] facade: prepare a receptor/ligand pair once, then score
//! arbitrary poses cheaply, serially or in parallel batches.
//!
//! # The zero-allocation batch path
//!
//! The hot loop of every metaheuristic generation is "score this batch of
//! poses". To keep host-side overhead out of that loop (it distorts both
//! throughput and the warm-up timing the Eq. 1 split is computed from),
//! scoring is allocation-free per pose after warm-up:
//!
//! - a [`PoseScratch`] owns a *mutable ligand SoA frame*; for every kernel
//!   but [`Kernel::Grid`], applying a pose writes the transformed
//!   coordinates directly into the frame's `x`/`y`/`z` arrays
//!   ([`vsmath::RigidTransform::apply_all_soa`]) — no per-pose [`Frame`]
//!   construction, no `Vec<Vec3>` round-trip. The grid kernel places the
//!   atoms in its own lanes and touches no frame;
//! - [`Scorer::score_batch`] is the **single batch entry point**: it takes
//!   a [`ScoreBatch`] input (poses scored into a caller-owned output
//!   slice, or conformations scored in place) plus an [`Exec`] policy —
//!   [`Exec::Serial`] for the caller's thread, [`Exec::Pool`] for the
//!   shared *persistent* worker pool ([`crate::pool::CpuPool`]), which the
//!   caller joins with its own scratch, every worker reusing one of its
//!   own — so the batch path allocates nothing and spawns nothing once
//!   scratch and output buffers exist.
//!
//! Every execution policy produces bit-identical scores for a fixed
//! kernel (the schedule-invariance invariant, DESIGN §7).

use crate::coulomb::{coulomb_naive, coulomb_pair};
use crate::lj::{lj_naive, lj_pair, Frame, PairTable};
use crate::run::{fused_run, RunFrame};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use vsmath::{RigidTransform, SpatialGrid, Vec3};
use vsmol::{Conformation, Element, LjTable, Molecule, Spot};

/// Which physical terms the score includes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ScoringModel {
    /// The paper's baseline: Lennard-Jones only (§3.1).
    #[default]
    LennardJones,
    /// Extension (§6 future work): LJ plus Coulomb with a
    /// distance-dependent dielectric.
    LennardJonesCoulomb { dielectric: f64 },
    /// Full extension: LJ + Coulomb + the 10–12 hydrogen-bond term
    /// ([`crate::hbond`]).
    Full { dielectric: f64, hbond_epsilon: f64 },
}

impl ScoringModel {
    /// The dielectric scale, if the model has an electrostatic term.
    pub fn dielectric(&self) -> Option<f64> {
        match *self {
            ScoringModel::LennardJones => None,
            ScoringModel::LennardJonesCoulomb { dielectric }
            | ScoringModel::Full { dielectric, .. } => Some(dielectric),
        }
    }

    /// The H-bond well depth, if the model has an H-bond term.
    pub fn hbond_epsilon(&self) -> Option<f64> {
        match *self {
            ScoringModel::Full { hbond_epsilon, .. } => Some(hbond_epsilon),
            _ => None,
        }
    }
}

/// Which kernel executes the pair loop.
///
/// Every kernel's summation order is part of its definition: a fixed
/// kernel is bit-identical across execution paths (serial, `CpuPool`,
/// `DeviceEvaluator`); different kernels agree within 1e-9 relative
/// (DESIGN §7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Kernel {
    /// All-pairs, ligand-outer loop, one pass per model term: the
    /// reference the other kernels are compared with.
    Naive,
    /// Element-run receptor layout ([`crate::run::RunFrame`]), tiled
    /// within each run, with LJ + Coulomb + run-gated H-bond fused into a
    /// **single receptor pass** ([`crate::run::fused_run`]). Default.
    #[default]
    Fused,
    /// Exact spherical cutoff through a receptor cell list
    /// ([`vsmath::SpatialGrid`]): only the receptor atoms inside the
    /// cutoff shell are enumerated, so cost scales with shell occupancy,
    /// not receptor size. An approximation only in that pairs beyond
    /// `cutoff` Å contribute nothing.
    CellList { cutoff: f64 },
    /// Precomputed receptor potential grids
    /// ([`crate::grid_potential::GridScorer`]): trilinear interpolation at
    /// `spacing` Å pitch, `O(ligand_atoms)` per pose and independent of
    /// receptor size. Grid-resolution error applies (DESIGN §11 budget);
    /// grids are cached per (receptor, options, ligand element).
    Grid { spacing: f64 },
}

/// Scorer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ScorerOptions {
    pub model: ScoringModel,
    pub kernel: Kernel,
}

/// Reusable per-thread scratch: a mutable ligand frame that pose
/// transforms write into directly.
///
/// The frame's `elem`/`charge` columns are (re)filled from the scorer when
/// the scratch is bound to it; the `x`/`y`/`z` columns are overwritten per
/// pose. After the first use with a given ligand size, scoring through a
/// scratch performs **zero heap allocations per pose** — buffers retain
/// their capacity across poses, batches, and `evaluate` calls.
///
/// The scratch remembers which scorer it is bound to (the scorer's
/// binding id plus ligand length), so repeated `score_with` /
/// `score_batch` calls against the same scorer skip the
/// `elem`/`charge` column refill entirely.
#[derive(Debug, Default, Clone)]
pub struct PoseScratch {
    lig: Frame,
    /// `(binding_id, ligand_len)` of the scorer the columns were last
    /// filled from; `None` until first bound.
    bound: Option<(u64, usize)>,
}

impl PoseScratch {
    /// An empty scratch; it binds (sizes itself) to a scorer lazily on
    /// first use and rebinds transparently if used with another scorer.
    pub fn new() -> PoseScratch {
        PoseScratch::default()
    }
}

/// A prepared receptor/ligand scoring context.
///
/// Construction flattens the receptor once ([`Frame`]); each [`Scorer::score`]
/// call applies a pose to the centered ligand and runs the configured kernel.
#[derive(Debug, Clone)]
pub struct Scorer {
    rec_frame: Frame,
    /// What the selected kernel needs beyond `rec_frame`, built once.
    kernel: KernelData,
    /// Per-receptor-atom H-bond capability (original atom order), so the
    /// cell-list path gates pairs with one indexed bit instead of an
    /// `Element::ALL` round-trip per visited pair.
    rec_hb_capable: Vec<bool>,
    lig_local: Vec<Vec3>,
    lig_elem: Vec<Element>,
    lig_charge: Vec<f64>,
    table: PairTable,
    opts: ScorerOptions,
    /// Kernel work units per pose for the cost model: pair interactions
    /// for the dense kernels, ligand atoms for [`Kernel::Grid`], estimated
    /// shell pairs for [`Kernel::CellList`] (fixed at construction).
    units_per_eval: u64,
    /// Process-unique identity for scratch binding. Clones share the id —
    /// sound, because a clone carries identical ligand columns, so a
    /// scratch bound to either is bound to both.
    binding_id: u64,
}

/// The selected [`Kernel`] together with the receptor data it alone needs,
/// so a kernel cannot be reached without its data.
#[derive(Debug, Clone)]
enum KernelData {
    Naive,
    /// The element-run permutation of the receptor frame.
    Fused(RunFrame),
    CellList {
        cutoff: f64,
        cells: SpatialGrid,
    },
    /// Interpolator over slabs fetched from (or built into) the
    /// process-wide slab cache.
    Grid(crate::grid_potential::GridScorer),
}

/// Source of [`Scorer::binding_id`]; `fetch_add` never hands out the same
/// id twice, so a dropped scorer's id is never reused by a new one.
static NEXT_BINDING_ID: AtomicU64 = AtomicU64::new(1);

impl Scorer {
    /// Prepare a scorer. The ligand is re-centered at its centroid so pose
    /// translations place the ligand *center*. The receptor is flattened
    /// once; the fused kernel additionally permutes it into element runs
    /// here, so the per-pose hot loop never touches unsorted elements.
    pub fn new(receptor: &Molecule, ligand: &Molecule, opts: ScorerOptions) -> Scorer {
        Scorer::new_inner(receptor, ligand, opts, &[], None)
    }

    /// [`Scorer::new`] for a screen whose every pose is
    /// [`Conformation::clamped_to`] one of `spots`, as the engine keeps
    /// them. A [`Kernel::Grid`] scorer that finds no slab of this receptor
    /// resident builds only the lattice nodes such poses can read (DESIGN
    /// §11), with the bits a whole build gives them; a pose farther out
    /// reads `+0.0` where a node was not built, which a debug build
    /// asserts never happens. The other kernels ignore `spots`.
    pub fn for_spots(
        receptor: &Molecule,
        ligand: &Molecule,
        opts: ScorerOptions,
        spots: &[Spot],
    ) -> Scorer {
        Scorer::new_inner(receptor, ligand, opts, spots, None)
    }

    /// [`Scorer::new`] plus trace visibility into any potential-grid build
    /// ([`vstrace::Event::GridBuilt`]) the kernel choice triggers.
    pub fn new_traced(
        receptor: &Molecule,
        ligand: &Molecule,
        opts: ScorerOptions,
        trace: &vstrace::Trace,
    ) -> Scorer {
        Scorer::new_inner(receptor, ligand, opts, &[], Some(trace))
    }

    fn new_inner(
        receptor: &Molecule,
        ligand: &Molecule,
        opts: ScorerOptions,
        spots: &[Spot],
        trace: Option<&vstrace::Trace>,
    ) -> Scorer {
        let lig = ligand.centered();
        let lig_atoms = lig.positions().len();
        let rec_frame = Frame::from_molecule(receptor);
        let dense_pairs = crate::pairs_per_eval(lig_atoms, rec_frame.len());
        let (kernel, units_per_eval) = match opts.kernel {
            Kernel::Naive => (KernelData::Naive, dense_pairs),
            Kernel::Fused => (KernelData::Fused(RunFrame::from_frame(&rec_frame)), dense_pairs),
            Kernel::CellList { cutoff } => {
                assert!(cutoff > 0.0, "cutoff must be positive");
                let cells = SpatialGrid::build(receptor.positions(), cutoff.max(1.0));
                let shell = mean_shell_occupancy(&cells, receptor.positions(), cutoff);
                (KernelData::CellList { cutoff, cells }, lig_atoms as u64 * shell)
            }
            Kernel::Grid { spacing } => {
                let gopts = crate::grid_potential::GridOptions {
                    spacing,
                    dielectric: opts.model.dielectric(),
                    hbond_epsilon: opts.model.hbond_epsilon(),
                    ..Default::default()
                };
                use crate::grid_potential::GridScorer;
                let grid = match trace {
                    Some(t) => GridScorer::new_traced(receptor, ligand, gopts, t),
                    None => GridScorer::for_spots(receptor, ligand, gopts, spots),
                };
                (KernelData::Grid(grid), lig_atoms as u64)
            }
        };
        let rec_hb_capable: Vec<bool> =
            rec_frame.elem.iter().map(|&e| crate::hbond::is_hbond_capable_idx(e)).collect();
        Scorer {
            rec_frame,
            kernel,
            rec_hb_capable,
            lig_local: lig.positions().to_vec(),
            lig_elem: lig.elements().to_vec(),
            lig_charge: lig.charges(),
            table: PairTable::new(&LjTable::standard()),
            opts,
            units_per_eval,
            binding_id: NEXT_BINDING_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    pub fn receptor_atoms(&self) -> usize {
        self.rec_frame.len()
    }

    pub fn ligand_atoms(&self) -> usize {
        self.lig_local.len()
    }

    /// Pair interactions per evaluation (the dense-kernel workload unit).
    pub fn pairs_per_eval(&self) -> u64 {
        crate::pairs_per_eval(self.ligand_atoms(), self.receptor_atoms())
    }

    /// Kernel work units per evaluation in this kernel's *own* regime:
    /// `ligand × receptor` pairs for the dense kernels, ligand atoms for
    /// [`Kernel::Grid`], estimated shell pairs for [`Kernel::CellList`].
    /// This is what the cost model should multiply by its per-unit rates —
    /// feeding pair counts for a grid job would mispredict it by orders of
    /// magnitude.
    pub fn work_units_per_eval(&self) -> u64 {
        self.units_per_eval
    }

    pub fn options(&self) -> ScorerOptions {
        self.opts
    }

    /// Score a single pose (lower is better).
    ///
    /// Convenience wrapper over [`Scorer::score_with`] that pays one
    /// scratch construction; batch callers and repeated single-pose
    /// callers should hold a [`PoseScratch`] and use the `_with` form.
    pub fn score(&self, pose: &RigidTransform) -> f64 {
        let mut scratch = PoseScratch::new();
        self.score_with(pose, &mut scratch)
    }

    /// Bind `scratch` to this scorer: size the ligand frame and refresh the
    /// per-atom element/charge columns. A scratch already bound to this
    /// scorer (same binding id and ligand length — e.g. on every batch
    /// after the first against a persistent worker's scratch) returns
    /// immediately without touching the columns; an actual rebind is a
    /// memcpy of ligand-atom width, allocation-free once capacities are
    /// warm.
    fn bind_scratch(&self, scratch: &mut PoseScratch) {
        let key = (self.binding_id, self.lig_local.len());
        if scratch.bound == Some(key) {
            return;
        }
        let n = self.lig_local.len();
        scratch.lig.x.resize(n, 0.0);
        scratch.lig.y.resize(n, 0.0);
        scratch.lig.z.resize(n, 0.0);
        scratch.lig.elem.clear();
        scratch.lig.elem.extend(self.lig_elem.iter().map(|e| e.index() as u8));
        scratch.lig.charge.clear();
        scratch.lig.charge.extend_from_slice(&self.lig_charge);
        scratch.bound = Some(key);
    }

    /// Score a single pose through a caller-owned, reusable scratch.
    pub fn score_with(&self, pose: &RigidTransform, scratch: &mut PoseScratch) -> f64 {
        self.bind_scratch(scratch);
        self.score_bound(pose, scratch)
    }

    /// Write `pose`'s atoms into `scratch`'s frame (bound to this scorer)
    /// and return the frame.
    fn place<'s>(&self, pose: &RigidTransform, scratch: &'s mut PoseScratch) -> &'s Frame {
        let lig = &mut scratch.lig;
        pose.apply_all_soa(&self.lig_local, &mut lig.x, &mut lig.y, &mut lig.z);
        lig
    }

    /// Score one pose assuming `scratch` is already bound to this scorer.
    /// This is the innermost hot path, zero allocations: the grid kernel
    /// places the atoms in its own lanes; every other kernel reads them
    /// from the scratch frame, written by one `apply_all_soa`.
    pub(crate) fn score_bound(&self, pose: &RigidTransform, scratch: &mut PoseScratch) -> f64 {
        let (dielectric, hbond_eps) =
            (self.opts.model.dielectric(), self.opts.model.hbond_epsilon());
        match &self.kernel {
            KernelData::Grid(grid) => grid.score(pose),
            KernelData::Naive => {
                // One LJ pass, then one pass per enabled model term.
                let lig = self.place(pose, scratch);
                let rec = &self.rec_frame;
                let mut total = lj_naive(lig, rec, &self.table);
                if let Some(dielectric) = dielectric {
                    total += coulomb_naive(lig, rec, dielectric);
                }
                if let Some(eps) = hbond_eps {
                    total += crate::hbond::hbond_naive(lig, rec, eps);
                }
                total
            }
            KernelData::Fused(runs) => {
                fused_run(self.place(pose, scratch), runs, &self.table, dielectric, hbond_eps)
            }
            KernelData::CellList { cutoff, cells } => {
                self.score_cell_list(self.place(pose, scratch), cells, *cutoff)
            }
        }
    }

    fn score_cell_list(&self, lig: &Frame, grid: &SpatialGrid, cutoff: f64) -> f64 {
        let dielectric = self.opts.model.dielectric();
        let hbond_eps = self.opts.model.hbond_epsilon();
        let mut total = 0.0;
        for i in 0..lig.len() {
            let p = Vec3::new(lig.x[i], lig.y[i], lig.z[i]);
            let le = self.lig_elem[i].index() as u8;
            let lig_capable = crate::hbond::is_hbond_capable(self.lig_elem[i]);
            let qi = self.lig_charge[i];
            grid.for_each_within(p, cutoff, |j, _, r_sq| {
                let (s2, e4) = self.pair_at(le, self.rec_frame.elem[j]);
                total += lj_pair(s2, e4, r_sq);
                if let Some(eps) = dielectric {
                    total += coulomb_pair(qi, self.rec_frame.charge[j], r_sq, eps);
                }
                if let Some(hb) = hbond_eps {
                    if lig_capable && self.rec_hb_capable[j] {
                        total += crate::hbond::hbond_pair(hb, r_sq);
                    }
                }
            });
        }
        total
    }

    /// Score a pose and compute the net force/torque on the rigid ligand —
    /// the gradient the Lamarckian improver in `metaheur` descends. The
    /// gradient covers the LJ and Coulomb terms (the H-bond term, when
    /// enabled, contributes to the score but not the descent direction).
    pub fn score_and_gradient(&self, pose: &RigidTransform) -> (f64, crate::forces::RigidGradient) {
        let mut scratch = PoseScratch::new();
        self.score_and_gradient_with(pose, &mut scratch)
    }

    /// [`Scorer::score_and_gradient`] through a reusable scratch: the
    /// transformed ligand frame produced by scoring (written after scoring
    /// for [`Kernel::Grid`], which reads none) is fed straight to the
    /// gradient kernel, with no per-pose allocation. Scorers on the fused
    /// kernel descend the run-layout gradient kernel (hoisted `(σ², 4ε)`,
    /// no per-pair gather), same force field either way.
    pub fn score_and_gradient_with(
        &self,
        pose: &RigidTransform,
        scratch: &mut PoseScratch,
    ) -> (f64, crate::forces::RigidGradient) {
        let score = self.score_with(pose, scratch);
        if let KernelData::Grid(_) = self.kernel {
            self.place(pose, scratch);
        }
        let dielectric = self.opts.model.dielectric();
        let grad = match &self.kernel {
            KernelData::Fused(runs) => crate::forces::rigid_gradient_run(
                &scratch.lig,
                runs,
                &self.table,
                pose.translation,
                dielectric,
            ),
            _ => crate::forces::rigid_gradient(
                &scratch.lig,
                &self.rec_frame,
                &self.table,
                pose.translation,
                dielectric,
            ),
        };
        (score, grad)
    }

    #[inline]
    fn pair_at(&self, lig_elem: u8, rec_elem: u8) -> (f64, f64) {
        self.table.lookup(lig_elem, rec_elem)
    }

    /// Score a batch — the single batch entry point every other scoring
    /// path is built on.
    ///
    /// `input` selects the shape: [`ScoreBatch::Poses`] scores `poses[i]`
    /// into `out[i]` (equal lengths required); [`ScoreBatch::Confs`]
    /// scores `confs[i].pose` into `confs[i].score` in place (the
    /// `metaheur` evaluate shape) — no pose/score round-trips through
    /// temporary vectors either way.
    ///
    /// `exec` selects the policy: [`Exec::Serial`] binds `scratch` once
    /// and runs in the caller's thread, allocation-free per pose;
    /// [`Exec::Pool`]`(n)` runs on a shared *persistent*
    /// [`crate::pool::CpuPool`] of `n` threads — the "OpenMP" CPU path
    /// of the paper's baseline. The caller is one of the `n`: it claims
    /// chunks of the batch beside the pool's `n − 1` workers and scores
    /// them with `scratch`. Pools are keyed by the requested thread count
    /// (created on first use), so repeated batch calls pay no spawn/join
    /// cost and reuse each worker's scratch; single-item batches and
    /// `n <= 1` take the serial path. Scores are bit-identical across
    /// policies for a fixed kernel (DESIGN §7).
    pub fn score_batch(&self, input: ScoreBatch<'_>, scratch: &mut PoseScratch, exec: Exec) {
        input.assert_valid();
        match exec {
            Exec::Pool(threads) if threads > 1 && input.len() >= 2 => {
                crate::pool::shared_pool(threads).score_batch(self, input, scratch);
            }
            Exec::Serial | Exec::Pool(_) => self.score_batch_serial(input, scratch),
        }
    }

    /// The serial batch loop: bind the scratch once, then score each item
    /// against the bound frame. Also the per-chunk body of the pool path
    /// (each thread passes its own scratch and a contiguous chunk it
    /// claimed), which is what makes pool scores bit-identical to serial
    /// ones.
    pub(crate) fn score_batch_serial(&self, input: ScoreBatch<'_>, scratch: &mut PoseScratch) {
        if input.is_empty() {
            return;
        }
        self.bind_scratch(scratch);
        match input {
            ScoreBatch::Poses { poses, out } => {
                for (p, o) in poses.iter().zip(out.iter_mut()) {
                    *o = self.score_bound(p, scratch);
                }
            }
            ScoreBatch::Confs(confs) => {
                for c in confs.iter_mut() {
                    c.score = self.score_bound(&c.pose, scratch);
                }
            }
        }
    }
}

/// Mean receptor atoms inside a `cutoff` shell, sampled at up to 256
/// receptor-atom positions (strided for coverage). The cell-list kernel's
/// per-ligand-atom cost is proportional to this; it prices a ligand *near*
/// the receptor, which is where every docking pose of interest sits.
fn mean_shell_occupancy(grid: &SpatialGrid, positions: &[Vec3], cutoff: f64) -> u64 {
    if positions.is_empty() {
        return 1;
    }
    let stride = positions.len().div_ceil(256);
    let mut total = 0u64;
    let mut samples = 0u64;
    for p in positions.iter().step_by(stride) {
        total += grid.count_within(*p, cutoff) as u64;
        samples += 1;
    }
    (total / samples.max(1)).max(1)
}

/// Execution policy for [`Scorer::score_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Exec {
    /// Score in the calling thread.
    Serial,
    /// Score on the shared persistent worker pool with this many threads,
    /// the caller included (`0` and `1` are equivalent to [`Exec::Serial`]).
    Pool(usize),
}

/// Batch input shape for [`Scorer::score_batch`].
#[derive(Debug)]
pub enum ScoreBatch<'a> {
    /// Score `poses[i]` into `out[i]`; the slices must have equal length.
    Poses { poses: &'a [RigidTransform], out: &'a mut [f64] },
    /// Score `confs[i].pose` into `confs[i].score`, in place.
    Confs(&'a mut [Conformation]),
}

impl ScoreBatch<'_> {
    /// Number of items to score.
    pub fn len(&self) -> usize {
        match self {
            ScoreBatch::Poses { poses, .. } => poses.len(),
            ScoreBatch::Confs(confs) => confs.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn assert_valid(&self) {
        if let ScoreBatch::Poses { poses, out } = self {
            assert_eq!(poses.len(), out.len(), "output slice length must match pose count");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmath::{Quat, RngStream};
    use vsmol::synth;

    fn setup(kernel: Kernel) -> Scorer {
        let rec = synth::synth_receptor("r", 600, 5);
        let lig = synth::synth_ligand("l", 16, 6);
        Scorer::new(&rec, &lig, ScorerOptions { model: ScoringModel::LennardJones, kernel })
    }

    fn random_poses(n: usize, seed: u64, spread: f64) -> Vec<RigidTransform> {
        let mut rng = RngStream::from_seed(seed);
        (0..n).map(|_| RigidTransform::new(rng.rotation(), rng.in_ball(spread))).collect()
    }

    fn batch_scores(s: &Scorer, poses: &[RigidTransform], exec: Exec) -> Vec<f64> {
        let mut out = vec![0.0; poses.len()];
        let mut scratch = PoseScratch::new();
        s.score_batch(ScoreBatch::Poses { poses, out: &mut out }, &mut scratch, exec);
        out
    }

    #[test]
    fn fused_is_the_default_kernel() {
        assert_eq!(ScorerOptions::default().kernel, Kernel::Fused);
    }

    #[test]
    fn all_dense_kernels_agree_for_every_model() {
        let rec = synth::synth_receptor("r", 600, 5);
        let lig = synth::synth_ligand("l", 16, 6);
        for model in [
            ScoringModel::LennardJones,
            ScoringModel::LennardJonesCoulomb { dielectric: 4.0 },
            ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 },
        ] {
            let reference = Scorer::new(&rec, &lig, ScorerOptions { model, kernel: Kernel::Naive });
            let fused = Scorer::new(&rec, &lig, ScorerOptions { model, kernel: Kernel::Fused });
            for pose in random_poses(6, 2, 25.0) {
                let want = reference.score(&pose);
                let got = fused.score(&pose);
                assert!(
                    (want - got).abs() <= 1e-9 * want.abs().max(1.0),
                    "{model:?}: {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn scratch_skips_rebind_for_same_scorer() {
        let s = setup(Kernel::Fused);
        let mut scratch = PoseScratch::new();
        assert!(scratch.bound.is_none());
        let pose = random_poses(1, 7, 20.0)[0];
        let first = s.score_with(&pose, &mut scratch);
        let key = scratch.bound.expect("scoring must bind the scratch");
        // Repeated scoring against the same scorer keeps the binding (the
        // refill is skipped) and stays bit-identical.
        let second = s.score_with(&pose, &mut scratch);
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(scratch.bound, Some(key));
        // A clone shares the binding id (identical ligand columns), so the
        // scratch stays bound to it too.
        let clone = s.clone();
        assert_eq!(clone.score_with(&pose, &mut scratch).to_bits(), first.to_bits());
        assert_eq!(scratch.bound, Some(key));
        // A different scorer rebinds and still scores correctly.
        let rec2 = synth::synth_receptor("r2", 300, 9);
        let lig2 = synth::synth_ligand("l2", 7, 10);
        let other = Scorer::new(&rec2, &lig2, ScorerOptions::default());
        let via_scratch = other.score_with(&pose, &mut scratch);
        assert_ne!(scratch.bound, Some(key), "different scorer must rebind");
        assert_eq!(via_scratch.to_bits(), other.score(&pose).to_bits());
        // And back: binding to the first scorer again is a fresh rebind.
        assert_eq!(s.score_with(&pose, &mut scratch).to_bits(), first.to_bits());
        assert_eq!(scratch.bound, Some(key));
    }

    #[test]
    fn cell_list_matches_naive_cutoff() {
        let rec = synth::synth_receptor("r", 600, 5);
        let lig = synth::synth_ligand("l", 16, 6);
        let cutoff = 10.0;
        let grid = Scorer::new(
            &rec,
            &lig,
            ScorerOptions {
                model: ScoringModel::LennardJones,
                kernel: Kernel::CellList { cutoff },
            },
        );
        // Reference: naive cutoff over the same transformed ligand.
        let table = PairTable::new(&LjTable::standard());
        let rec_frame = Frame::from_molecule(&rec);
        let lig_centered = lig.centered();
        for pose in random_poses(8, 2, 25.0) {
            let lig_t = lig_centered.transformed(&pose);
            let lf = Frame::from_molecule(&lig_t);
            let want = crate::lj::lj_naive_cutoff(&lf, &rec_frame, &table, cutoff);
            let got = grid.score(&pose);
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0), "{got} vs {want}");
        }
    }

    #[test]
    fn batch_matches_single() {
        let s = setup(Kernel::Naive);
        let poses = random_poses(12, 3, 20.0);
        let batch = batch_scores(&s, &poses, Exec::Serial);
        for (p, &b) in poses.iter().zip(&batch) {
            assert_eq!(s.score(p), b);
        }
    }

    #[test]
    fn batch_scores_conformations_in_place() {
        let s = setup(Kernel::Naive);
        let poses = random_poses(9, 13, 20.0);
        let mut confs: Vec<Conformation> = poses.iter().map(|p| Conformation::new(*p, 0)).collect();
        let mut scratch = PoseScratch::new();
        s.score_batch(ScoreBatch::Confs(&mut confs), &mut scratch, Exec::Serial);
        let want = batch_scores(&s, &poses, Exec::Serial);
        let got: Vec<f64> = confs.iter().map(|c| c.score).collect();
        assert_eq!(want, got);
    }

    #[test]
    fn pool_exec_matches_serial() {
        let s = setup(Kernel::Naive);
        let poses = random_poses(37, 4, 20.0);
        let serial = batch_scores(&s, &poses, Exec::Serial);
        for n_threads in [0, 1, 2, 3, 8, 64] {
            let par = batch_scores(&s, &poses, Exec::Pool(n_threads));
            assert_eq!(serial, par, "n_threads={n_threads}");
        }
    }

    #[test]
    fn pool_exec_empty_and_single() {
        let s = setup(Kernel::Naive);
        assert!(batch_scores(&s, &[], Exec::Pool(4)).is_empty());
        let one = random_poses(1, 5, 10.0);
        assert_eq!(batch_scores(&s, &one, Exec::Pool(4)), batch_scores(&s, &one, Exec::Serial));
    }

    #[test]
    #[should_panic(expected = "output slice length must match pose count")]
    fn mismatched_output_length_panics() {
        let s = setup(Kernel::Naive);
        let poses = random_poses(3, 6, 10.0);
        let mut out = vec![0.0; 2];
        let mut scratch = PoseScratch::new();
        s.score_batch(
            ScoreBatch::Poses { poses: &poses, out: &mut out },
            &mut scratch,
            Exec::Serial,
        );
    }

    #[test]
    fn coulomb_model_changes_score() {
        let rec = synth::synth_receptor("r", 300, 7);
        let lig = synth::synth_ligand("l", 10, 8);
        let lj = Scorer::new(&rec, &lig, ScorerOptions::default());
        let ljc = Scorer::new(
            &rec,
            &lig,
            ScorerOptions {
                model: ScoringModel::LennardJonesCoulomb { dielectric: 4.0 },
                kernel: Kernel::Naive,
            },
        );
        let pose = RigidTransform::from_translation(Vec3::new(25.0, 0.0, 0.0));
        assert_ne!(lj.score(&pose), ljc.score(&pose));
    }

    #[test]
    fn far_away_ligand_scores_near_zero() {
        let s = setup(Kernel::Naive);
        let far = RigidTransform::from_translation(Vec3::new(1e5, 0.0, 0.0));
        assert!(s.score(&far).abs() < 1e-6);
    }

    #[test]
    fn ligand_inside_receptor_is_unfavorable() {
        let s = setup(Kernel::Naive);
        let inside = RigidTransform::IDENTITY; // ligand at receptor center
        let surface = RigidTransform::from_translation(Vec3::new(19.0, 0.0, 0.0));
        assert!(
            s.score(&inside) > s.score(&surface),
            "buried clash must score worse than surface contact"
        );
    }

    #[test]
    fn there_exists_a_favorable_pose() {
        // Somewhere near the surface the LJ attraction wins: score < 0.
        let s = setup(Kernel::Naive);
        let mut best = f64::INFINITY;
        let mut rng = RngStream::from_seed(9);
        for _ in 0..300 {
            let r = rng.uniform_range(16.0, 24.0);
            let dir = rng.unit_vector();
            let pose = RigidTransform::new(rng.rotation(), dir * r);
            best = best.min(s.score(&pose));
        }
        assert!(best < 0.0, "no favorable pose found, best {best}");
    }

    #[test]
    fn rotation_changes_score() {
        let s = setup(Kernel::Naive);
        let t = Vec3::new(18.0, 2.0, 1.0);
        let a = s.score(&RigidTransform::new(Quat::IDENTITY, t));
        let b = s.score(&RigidTransform::new(Quat::from_axis_angle(Vec3::X, 1.5), t));
        assert_ne!(a, b);
    }

    #[test]
    fn pairs_per_eval_exposed() {
        let s = setup(Kernel::Naive);
        assert_eq!(s.pairs_per_eval(), (s.ligand_atoms() * s.receptor_atoms()) as u64);
    }

    #[test]
    fn full_model_adds_hbond_term() {
        let rec = synth::synth_receptor("r", 300, 7);
        let lig = synth::synth_ligand("l", 10, 8);
        let ljc = Scorer::new(
            &rec,
            &lig,
            ScorerOptions {
                model: ScoringModel::LennardJonesCoulomb { dielectric: 4.0 },
                kernel: Kernel::Naive,
            },
        );
        let full = Scorer::new(
            &rec,
            &lig,
            ScorerOptions {
                model: ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 },
                kernel: Kernel::Naive,
            },
        );
        // Scan poses until one differs (N/O contact); a zero-eps Full model
        // must equal LJC everywhere.
        let zero = Scorer::new(
            &rec,
            &lig,
            ScorerOptions {
                model: ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 0.0 },
                kernel: Kernel::Naive,
            },
        );
        let mut rng = RngStream::from_seed(21);
        let mut any_diff = false;
        for _ in 0..40 {
            let pose = RigidTransform::new(rng.rotation(), rng.unit_vector() * 19.0);
            let a = ljc.score(&pose);
            let b = full.score(&pose);
            let c = zero.score(&pose);
            assert!((a - c).abs() < 1e-12, "zero-eps H-bond must be inert");
            if (a - b).abs() > 1e-9 {
                any_diff = true;
            }
        }
        assert!(any_diff, "H-bond term never engaged across 40 contact poses");
    }

    #[test]
    fn full_model_cell_list_matches_dense_within_cutoff_tolerance() {
        let rec = synth::synth_receptor("r", 300, 7);
        let lig = synth::synth_ligand("l", 10, 8);
        let model = ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 };
        let dense = Scorer::new(&rec, &lig, ScorerOptions { model, kernel: Kernel::Naive });
        let grid = Scorer::new(
            &rec,
            &lig,
            ScorerOptions { model, kernel: Kernel::CellList { cutoff: 25.0 } },
        );
        let mut rng = RngStream::from_seed(23);
        let pose = RigidTransform::new(rng.rotation(), rng.unit_vector() * 18.0);
        let a = dense.score(&pose);
        let b = grid.score(&pose);
        // 25 Å truncates the slow 1/r² Coulomb tail; allow a sub-kcal/mol
        // absolute discrepancy.
        assert!((a - b).abs() < 0.5, "{a} vs {b}");
    }

    #[test]
    fn model_accessors() {
        assert_eq!(ScoringModel::LennardJones.dielectric(), None);
        assert_eq!(ScoringModel::LennardJonesCoulomb { dielectric: 2.0 }.dielectric(), Some(2.0));
        let f = ScoringModel::Full { dielectric: 3.0, hbond_epsilon: 0.5 };
        assert_eq!(f.dielectric(), Some(3.0));
        assert_eq!(f.hbond_epsilon(), Some(0.5));
        assert_eq!(ScoringModel::LennardJones.hbond_epsilon(), None);
    }

    #[test]
    #[should_panic]
    fn non_positive_cutoff_panics() {
        let rec = synth::synth_receptor("r", 50, 1);
        let lig = synth::synth_ligand("l", 5, 2);
        Scorer::new(
            &rec,
            &lig,
            ScorerOptions {
                model: ScoringModel::LennardJones,
                kernel: Kernel::CellList { cutoff: 0.0 },
            },
        );
    }

    #[test]
    fn grid_kernel_matches_grid_scorer_and_batch_paths() {
        let rec = synth::synth_receptor("r", 300, 7);
        let lig = synth::synth_ligand("l", 10, 8);
        let model = ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 };
        let spacing = 0.6;
        let s = Scorer::new(&rec, &lig, ScorerOptions { model, kernel: Kernel::Grid { spacing } });
        let direct = crate::grid_potential::GridScorer::new(
            &rec,
            &lig,
            crate::grid_potential::GridOptions {
                spacing,
                dielectric: model.dielectric(),
                hbond_epsilon: model.hbond_epsilon(),
                ..Default::default()
            },
        );
        let mut rng = RngStream::from_seed(31);
        let poses: Vec<RigidTransform> = (0..24)
            .map(|_| RigidTransform::new(rng.rotation(), rng.unit_vector() * 16.0))
            .collect();
        let want: Vec<u64> = poses.iter().map(|p| direct.score(p).to_bits()).collect();
        let bits = |scores: Vec<f64>| -> Vec<u64> { scores.iter().map(|s| s.to_bits()).collect() };
        // `score_bound`'s grid arm is the interpolator's own pose path, on
        // every batch policy and both batch shapes.
        assert_eq!(bits(poses.iter().map(|p| s.score(p)).collect()), want);
        for exec in [Exec::Serial, Exec::Pool(2)] {
            assert_eq!(bits(batch_scores(&s, &poses, exec)), want, "{exec:?}");
            let mut confs: Vec<Conformation> =
                poses.iter().map(|p| Conformation::new(*p, 0)).collect();
            s.score_batch(ScoreBatch::Confs(&mut confs), &mut PoseScratch::new(), exec);
            assert_eq!(bits(confs.iter().map(|c| c.score).collect()), want, "{exec:?}");
        }
        // The grid reads no frame, yet its gradient is taken over the
        // pose's: the one a frame kernel's scratch holds, pose after pose.
        let naive = Scorer::new(&rec, &lig, ScorerOptions { model, kernel: Kernel::Naive });
        let (mut scratch, mut naive_scratch) = (PoseScratch::new(), PoseScratch::new());
        for (pose, want) in poses.iter().zip(&want) {
            let (score, grad) = s.score_and_gradient_with(pose, &mut scratch);
            let (_, naive_grad) = naive.score_and_gradient_with(pose, &mut naive_scratch);
            assert_eq!(score.to_bits(), *want);
            assert_eq!(grad, naive_grad);
        }
    }

    #[test]
    fn two_threads_building_one_grid_scorer_share_its_slabs() {
        // Both miss the process-wide slab cache and build outside its
        // lock: neither may block the other, and whoever publishes second
        // must adopt the first's slabs rather than keep a copy of its own.
        let rec = synth::synth_receptor("two-thread-grid", 180, 41);
        let lig = synth::synth_ligand("l", 11, 42);
        let opts = ScorerOptions {
            model: ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 },
            kernel: Kernel::Grid { spacing: 1.1 },
        };
        let gate = std::sync::Barrier::new(2);
        let build = || {
            gate.wait();
            Scorer::new(&rec, &lig, opts)
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(build);
            (build(), other.join().expect("building thread panicked"))
        });
        let (KernelData::Grid(ga), KernelData::Grid(gb)) = (&a.kernel, &b.kernel) else {
            panic!("grid kernel without its interpolator");
        };
        assert!(ga.shares_slabs_with(gb), "one slab per channel, shared");
        let pose = RigidTransform::from_translation(Vec3::new(13.0, 2.0, -1.0));
        assert_eq!(a.score(&pose).to_bits(), b.score(&pose).to_bits());
    }

    #[test]
    fn work_units_reflect_each_kernels_regime() {
        let rec = synth::synth_receptor("r", 600, 5);
        let lig = synth::synth_ligand("l", 16, 6);
        let mk = |kernel| {
            Scorer::new(&rec, &lig, ScorerOptions { model: ScoringModel::LennardJones, kernel })
        };
        let dense = mk(Kernel::Fused);
        assert_eq!(dense.work_units_per_eval(), dense.pairs_per_eval());
        let grid = mk(Kernel::Grid { spacing: 1.0 });
        assert_eq!(grid.work_units_per_eval(), grid.ligand_atoms() as u64);
        let cells = mk(Kernel::CellList { cutoff: 8.0 });
        let units = cells.work_units_per_eval();
        assert!(
            units > cells.ligand_atoms() as u64 && units < cells.pairs_per_eval(),
            "shell pairs ({units}) should sit between ligand atoms and dense pairs"
        );
    }
}
