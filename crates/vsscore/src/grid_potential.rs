//! Precomputed potential grids — the AutoDock-style scoring optimization.
//!
//! The paper's kernels recompute all `ligand × receptor` pair interactions
//! per conformation. Production docking codes (AutoDock, the paper's ref
//! \[24\]) instead precompute, once per receptor, a 3-D grid of interaction
//! potentials per ligand atom *type*; scoring a pose then costs one
//! trilinear interpolation per ligand atom — `O(ligand)` instead of
//! `O(ligand × receptor)`, at the price of grid-resolution error and an
//! upfront build (DESIGN §11 documents the error budget).
//!
//! Layout and kernel shape:
//!
//! - Grid work is done at **slab** grain: one slab is one *channel* over
//!   one receptor's node lattice — the LJ(+H-bond) potential felt by one
//!   ligand element, or the electrostatic potential per unit charge that
//!   every ligand shares (the ligand charge multiplies in at interpolation
//!   time). LJ node potentials are clamped at [`MAX_NODE_POTENTIAL`] like
//!   AutoDock's maps. A [`GridField`] is the list of slabs one ligand
//!   needs, plus the lattice geometry.
//! - Slabs are cached process-wide per (receptor content, build options,
//!   channel) under a byte budget, so a library whose ligands draw on five
//!   elements builds five slabs however the elements combine. A request
//!   builds every slab it is missing in one pass over the receptor.
//! - A scorer made for poses clamped to surface spots
//!   ([`crate::Scorer::for_spots`]) reads only the nodes within their
//!   `Reach`. A **cold** request — nothing of its receptor and options
//!   resident — builds only those; each slab records that `Cover`, and
//!   every later request gets whole slabs, completing a partial one by
//!   building the rest of the lattice into a copy. Unbuilt nodes hold
//!   `+0.0`, and a debug build asserts that interpolation never reads one.
//! - The build is atom-major: every receptor atom, taken in the cell order
//!   of a [`vsmath::SpatialGrid`], adds its term into the lattice nodes of
//!   its cutoff sphere, in every slab being built. A slab's sums never read
//!   another slab, so one built alone holds the same bits as one built in
//!   a set. Every build is cut into contiguous ranges of z-planes, several
//!   per host thread, that the threads of the shared [`crate::pool::CpuPool`]
//!   claim one at a time; each range walks all the atoms in that same
//!   order, so the bits do not depend on how many ranges there are or who
//!   ran which (DESIGN §11).
//! - A row of nodes is taken four per step through the lane types of
//!   `crate::lanes` — the distance, the keep mask `!(d² > cutoff²)`, every
//!   slab's own `σ²/r²`, the `f64 → f32` narrowing and the `f32` add — and
//!   its `len % 4` last nodes through the same step over `f64`. The pair
//!   formulas are the ones [`crate::lj::lj_pair`] and
//!   [`crate::hbond::hbond_pair`] instantiate, a lane outside the cutoff
//!   stores back the cell it loaded, and every lane operation is correctly
//!   rounded, so a slab holds the same bits whichever lanes the host has.
//!   [`GridBuildStats::terms`] counts the kept lanes.
//! - [`GridScorer`] scores a pose 8 ligand atoms per step, in one body
//!   compiled under the widest lanes the host has. Four atoms per step
//!   through the same lane types, it places the atoms — the pose applied
//!   to the ligand's coordinate columns with [`RigidTransform::apply`]'s
//!   operations in its order — and finds their lattice cells and fractions
//!   — the clamp to the lattice as two compare-selects, the cell by
//!   truncation. Each lane's cell is then read through one checked slice,
//!   and the corners are blended with explicit `F32x8` lanes (`lanes`).
//!   The tests keep the per-atom scalar placement, setup and blend it
//!   replaced as the reference and hold every lane path to its bits, so
//!   the lanes are a pure speedup, never a numerics fork.
//! - [`GridScorer::new_traced`] records a [`vstrace::Event::GridBuilt`]
//!   with this scorer's slab memory, the seconds spent building and
//!   whether anything had to be built.

use crate::coulomb::{potential_at, COULOMB_K};
use crate::hbond::{hbond_at, hbond_pair, is_hbond_capable_idx};
use crate::lanes::{widest, F32x8, Lane, Wide, WideFn, LANES};
use crate::lj::{clamped, lj_at, Frame, PairTable};
use crate::pool::{host_threads, shared_pool};
use std::collections::BTreeMap;
use std::ops::Range;
// DETERMINISM: raw std mutex — the grid cache is process-global memoization that outlives any vscheck exploration, like `shared_pool`'s registry.
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use vsmath::{fnv1a, Aabb, RigidTransform, SpatialGrid, Vec3};
use vsmol::{Element, LjTable, Molecule, Spot};

/// Grid build options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOptions {
    /// Node spacing in Å. The `Default` is a deliberately coarse 0.75 Å —
    /// half the memory and an 8th of the build cost of AutoDock's classic
    /// 0.375 Å, accurate enough for metaheuristic *ranking* (see the rank
    /// tests below); use [`GridOptions::autodock`] when publication-grade
    /// pose energies matter.
    pub spacing: f64,
    /// Margin beyond the receptor bounding box, Å (covers surface spots).
    pub margin: f64,
    /// Pair cutoff while accumulating node potentials, Å.
    pub cutoff: f64,
    /// Include the electrostatic grid (distance-dependent dielectric).
    pub dielectric: Option<f64>,
    /// Bake the 10–12 H-bond term into N/O-capable type grids with this
    /// well depth (the term is pairwise in *element capability* only, so it
    /// precomputes exactly like LJ).
    pub hbond_epsilon: Option<f64>,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            spacing: 0.75,
            margin: 8.0,
            cutoff: 12.0,
            dielectric: None,
            hbond_epsilon: None,
        }
    }
}

impl GridOptions {
    /// AutoDock's classic map resolution: 0.375 Å spacing. 8x the node
    /// count (and build time) of the coarse [`Default`].
    pub fn autodock() -> GridOptions {
        GridOptions { spacing: 0.375, ..GridOptions::default() }
    }
}

/// Cap on stored node potentials: inside the repulsive core the true LJ
/// value diverges and trilinear interpolation of it is meaningless; any
/// pose touching such a node is a rejected clash either way. AutoDock's
/// grid maps clamp identically.
pub const MAX_NODE_POTENTIAL: f32 = 1.0e4;

/// What one scorer's grids are and what its request cost, for the
/// `GridBuilt` trace event and reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridBuildStats {
    /// Nodes per grid.
    pub nodes: u64,
    /// This scorer's slabs: one per ligand element type present, plus the
    /// electrostatic slab when enabled.
    pub grids: u32,
    /// Memory of this scorer's slabs, bytes (slabs are shared, so scorers'
    /// figures do not add up to the cache's).
    pub bytes: u64,
    /// Seconds this request spent building on the caller-supplied clock —
    /// the trace epoch for [`GridScorer::new_traced`], a constant `0.0`
    /// untraced or when nothing was built. Excluded from the determinism
    /// contract, like `Stamped::mono_ns`.
    pub build_seconds: f64,
    /// Slabs built for this request; the rest came from the cache.
    pub built: u32,
    /// Pair terms this request's build added up: one per receptor atom,
    /// lattice node within the cutoff of it, and slab built, counted
    /// exactly. The same on every lane type and however the build was cut;
    /// 0 when nothing was built.
    pub terms: u64,
    /// No slab was built for this request: every one came from the cache.
    pub cached: bool,
}

/// The unit of grid work and of caching: one potential over the lattice.
/// Ordered LJ channels by element index, then electrostatics — the order
/// of a [`GridField`]'s slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Channel {
    /// LJ(+H-bond) potential felt by a ligand atom of this `Element::index()`.
    Lj(u8),
    /// Electrostatic potential per unit charge.
    Elec,
}

/// One channel's node values, `dims[0] * dims[1] * dims[2]` of them, x
/// fastest. Immutable once built; alive as long as any scorer or the cache
/// holds it.
type Slab = Arc<[f32]>;

/// The node lattice of one (receptor, options) pair: every channel over
/// that pair shares it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Geometry {
    origin: Vec3,
    spacing: f64,
    dims: [usize; 3],
}

impl Geometry {
    fn of(receptor: &Molecule, opts: GridOptions) -> Geometry {
        let bb = Aabb::from_points(receptor.positions());
        // No atoms, no box: the (all-zero) field of an empty receptor sits
        // at the origin.
        let bb = if bb.is_empty() { Aabb::new(Vec3::ZERO, Vec3::ZERO) } else { bb };
        let bb = bb.inflated(opts.margin);
        let extent = bb.extent();
        // Interpolation reads a cell, two nodes along every axis: a box
        // with no extent (no margin around one atom, or a plane) still
        // gets a lattice one cell thick.
        let nodes = |extent: f64| ((extent / opts.spacing).ceil() as usize + 1).max(2);
        Geometry {
            origin: bb.min,
            spacing: opts.spacing,
            dims: [nodes(extent.x), nodes(extent.y), nodes(extent.z)],
        }
    }

    fn nodes(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// The node-index steps to the next row and to the next plane. A plane
    /// is far below 2³² nodes (a slab of it alone would take 16 GiB), so
    /// both fit a `u32`, and no sum of them wraps a `usize`.
    fn strides(&self) -> [u32; 2] {
        let [row, plane] = [self.dims[0], self.dims[0] * self.dims[1]];
        assert!(plane <= u32::MAX as usize, "a lattice plane of {plane} nodes");
        [row as u32, plane as u32]
    }

    /// Rows of `dims[0]` nodes: row `z · dims[1] + y` is line `y` of plane
    /// `z`.
    fn rows(&self) -> usize {
        self.dims[1] * self.dims[2]
    }

    /// Coordinate of node `i` along `axis`: `origin + i · spacing`.
    fn node(&self, axis: usize, i: usize) -> f64 {
        self.origin[axis] + i as f64 * self.spacing
    }

    /// Node indices of one axis that can lie in `[lo, hi]`. One node of
    /// slack on either side absorbs the rounding of the division; an exact
    /// distance test decides membership.
    fn span(&self, axis: usize, lo: f64, hi: f64) -> Range<usize> {
        let o = self.origin[axis];
        // Float-to-int casts saturate: below the lattice is 0.
        let first = ((lo - o) / self.spacing).floor().max(0.0) as usize;
        let last = ((hi - o) / self.spacing).ceil().max(-1.0) + 1.0;
        let end = (last as usize).min(self.dims[axis]);
        // Wholly past the lattice: empty, and still a range to slice with.
        first.min(end)..end
    }

    /// `p` clamped into the lattice box as [`GridScorer`]'s interpolation
    /// clamps a ligand atom: per axis `(p − origin) / spacing` into `[0,
    /// dims − 1.000001]`, a NaN to 0.
    fn clamp(&self, p: Vec3) -> Vec3 {
        let axis = |a: usize| {
            let g = (p[a] - self.origin[a]) / self.spacing;
            let g = if g < 0.0 || g.is_nan() { 0.0 } else { g };
            self.origin[a] + g.min(self.dims[a] as f64 - 1.000001) * self.spacing
        };
        Vec3::new(axis(0), axis(1), axis(2))
    }
}

// ---------------------------------------------------------------------------
// Reach.
// ---------------------------------------------------------------------------

/// Slack on a reach radius, Å. An atom lands within `spot.radius + r_lig`
/// of its spot's centre only up to rounding: `clamped_to` leaves a
/// translation a few ulps past `spot.radius`; the engine's rotations are
/// all `renormalize`d, so a quaternion's norm is 1 within a few ulps and
/// stretches an atom's offset by under 1e-15 of its length; placing the
/// atom and finding its cell round a few times more, each by 2⁻⁵³ of a
/// coordinate far below 10³ Å. Together that is under 1e-11 Å; a
/// thousandth of an Å is eight orders of magnitude above it and adds
/// under 0.03% to a reach ball's volume.
const REACH_SLACK: f64 = 1e-3;

/// Where a screen's poses can put a ligand: every pose is `clamped_to`
/// one of `spots`, so its translation lies within `spot.radius` of that
/// spot's centre, and the centred ligand's atoms lie within `r_lig` of
/// the translation.
#[derive(Clone, Copy)]
struct Reach<'a> {
    spots: &'a [Spot],
    /// The largest distance of a ligand atom from the ligand's centroid.
    r_lig: f64,
}

impl Reach<'_> {
    /// The lattice nodes interpolation can read for these poses, or `None`
    /// when that is every node (or a spot or the ligand is not finite, so
    /// nothing can be bounded).
    ///
    /// Interpolation clamps an atom into the lattice box, then reads the
    /// eight corners of its cell, each within one cell diagonal of the
    /// clamped atom. The clamp is a projection onto a box, which never
    /// lengthens a distance, so the clamped atom lies within `spot.radius +
    /// r_lig` of the spot centre clamped the same way — also for a spot
    /// outside the box. The ball around each clamped centre takes the
    /// nodes within that distance plus the diagonal and [`REACH_SLACK`],
    /// by an exact distance test per node.
    fn region(&self, geom: Geometry) -> Option<Region> {
        let finite = |s: &Spot| s.center.is_finite() && s.radius.is_finite();
        if self.spots.is_empty() || !self.r_lig.is_finite() || !self.spots.iter().all(finite) {
            return None;
        }
        let ny = geom.dims[1];
        let diag = geom.spacing * 3f64.sqrt();
        let mut runs = Vec::new();
        for spot in self.spots {
            let c = geom.clamp(spot.center);
            let r = spot.radius.max(0.0) + self.r_lig + diag + REACH_SLACK;
            let r2 = r * r;
            for iz in geom.span(2, c.z - r, c.z + r) {
                let dz = c.z - geom.node(2, iz);
                for iy in geom.span(1, c.y - r, c.y + r) {
                    let dy = c.y - geom.node(1, iy);
                    let dyz = dy * dy + dz * dz;
                    if dyz > r2 {
                        continue;
                    }
                    let half = (r2 - dyz).sqrt();
                    let mut xs = geom.span(0, c.x - half, c.x + half);
                    let out = |ix: usize| {
                        let dx = c.x - geom.node(0, ix);
                        dx * dx + dyz > r2
                    };
                    while !xs.is_empty() && out(xs.start) {
                        xs.start += 1;
                    }
                    while !xs.is_empty() && out(xs.end - 1) {
                        xs.end -= 1;
                    }
                    if !xs.is_empty() {
                        runs.push((iz * ny + iy, xs));
                    }
                }
            }
        }
        let region = Region::from_runs(geom, runs);
        (region.nodes < geom.nodes() as u64).then_some(region)
    }
}

/// A set of lattice nodes, row by row ([`Geometry::rows`]): the nodes a
/// build adds terms into, and the nodes a slab holds. A row's nodes in the
/// set are sorted, disjoint runs of x with a gap between any two.
#[derive(Debug, Clone, PartialEq)]
struct Region {
    /// Row `r`'s runs are `runs[rows[r]..rows[r + 1]]`.
    rows: Vec<usize>,
    runs: Vec<Range<usize>>,
    /// The line `y` of each run.
    line: Vec<usize>,
    /// Per plane, the smallest ranges of x and of lines `y` that hold its
    /// runs (both empty if none).
    extent: Vec<[Range<usize>; 2]>,
    /// Nodes in the set.
    nodes: u64,
}

impl Region {
    /// Every node of the lattice.
    fn whole(geom: Geometry) -> Region {
        let rows = (0..geom.rows()).map(|r| (r, 0..geom.dims[0])).collect();
        Region::from_runs(geom, rows)
    }

    /// The nodes of `runs`, `(row, x range)` pairs in any order; they may
    /// overlap.
    fn from_runs(geom: Geometry, mut runs: Vec<(usize, Range<usize>)>) -> Region {
        runs.sort_unstable_by_key(|(row, xs)| (*row, xs.start));
        let mut rows = Vec::with_capacity(geom.rows() + 1);
        let mut merged: Vec<Range<usize>> = Vec::with_capacity(runs.len());
        let mut line = Vec::with_capacity(runs.len());
        let mut next = runs.into_iter().peekable();
        rows.push(0);
        for r in 0..geom.rows() {
            let first = merged.len();
            while let Some((_, xs)) = next.next_if(|(row, _)| *row == r) {
                match merged[first..].last_mut() {
                    Some(last) if xs.start <= last.end => last.end = last.end.max(xs.end),
                    _ => {
                        merged.push(xs);
                        line.push(r % geom.dims[1]);
                    }
                }
            }
            rows.push(merged.len());
        }
        let [ny, nz] = [geom.dims[1], geom.dims[2]];
        let extent = (0..nz)
            .map(|z| {
                let held = |y: &usize| rows[z * ny + y] < rows[z * ny + y + 1];
                let first = (0..ny).find(held).unwrap_or(0);
                let end = (0..ny).rev().find(held).map_or(0, |y| y + 1);
                let runs = &merged[rows[z * ny]..rows[(z + 1) * ny]];
                let x0 = runs.iter().map(|xs| xs.start).min().unwrap_or(0);
                let x1 = runs.iter().map(|xs| xs.end).max().unwrap_or(0);
                [x0..x1, first..end]
            })
            .collect();
        let nodes = merged.iter().map(|xs| xs.len() as u64).sum();
        Region { rows, runs: merged, line, extent, nodes }
    }

    /// The runs of row `r`.
    #[inline(always)]
    fn row(&self, r: usize) -> &[Range<usize>] {
        let [first, end] = [self.rows[r], self.rows[r + 1]];
        &self.runs[first..end]
    }

    /// Every node of the lattice that is not in this set.
    fn complement(&self, geom: Geometry) -> Region {
        let mut gaps = Vec::new();
        for r in 0..geom.rows() {
            let mut x = 0;
            for run in self.row(r) {
                if x < run.start {
                    gaps.push((r, x..run.start));
                }
                x = run.end;
            }
            if x < geom.dims[0] {
                gaps.push((r, x..geom.dims[0]));
            }
        }
        Region::from_runs(geom, gaps)
    }

    /// Whether node `node` (`(z · dims[1] + y) · dims[0] + x`) is in the
    /// set.
    fn contains(&self, geom: &Geometry, node: usize) -> bool {
        let (r, x) = (node / geom.dims[0], node % geom.dims[0]);
        r < geom.rows() && self.row(r).iter().any(|run| run.contains(&x))
    }

    /// Nodes of plane `z` in the set.
    fn plane_nodes(&self, geom: &Geometry, z: usize) -> u64 {
        let rows = z * geom.dims[1]..(z + 1) * geom.dims[1];
        let runs = &self.runs[self.rows[rows.start]..self.rows[rows.end]];
        runs.iter().map(|xs| xs.len() as u64).sum()
    }
}

/// Whether two ranges share an index.
#[inline(always)]
fn overlap(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

/// The nodes a slab holds: all of them, or only those of a region (the
/// rest hold `+0.0`).
#[derive(Debug, Clone)]
enum Cover {
    Whole,
    Part(Arc<Region>),
}

// ---------------------------------------------------------------------------
// Build.
// ---------------------------------------------------------------------------

/// Ranges of z-planes a build is cut into per host thread: enough that a
/// thread woken late still finds some to claim, few enough that walking
/// the atoms once per range stays cheap.
const RANGES_PER_THREAD: usize = 4;

/// A slab of `+0.0`: the value of a node no build has reached, which a
/// lane past the last ligand atom may read under mask 0 (a NaN there
/// would poison the sum).
fn zero_slab(geom: Geometry) -> Slab {
    std::iter::repeat_n(0f32, geom.nodes()).collect()
}

/// Add every receptor atom's terms into the nodes of `region` of `slabs`
/// (one per channel, each unique, its nodes in `region` all `+0.0`), then
/// clamp those nodes: a node of `region` ends with the bits a whole build
/// gives it, and a node outside keeps its value. Cost: `atoms × nodes of
/// region within the cutoff × channels`. A slab's node sums read nothing
/// of the other slabs, so it comes out the same bits whichever channels
/// are built beside it.
///
/// The planes that hold nodes of `region` are cut into `ranges` (at least
/// one) contiguous ranges holding about as many of them each, or fewer if
/// the planes run out; each range is one item of a
/// [`crate::pool::CpuPool::for_each_mut`] job on the shared pool of
/// [`host_threads`]: the calling thread and the workers claim ranges until
/// none is left. Returns the slabs and the pair terms added to them.
fn fill_region(
    receptor: &Molecule,
    geom: Geometry,
    opts: GridOptions,
    channels: &[Channel],
    region: &Region,
    mut slabs: Vec<Slab>,
    ranges: usize,
) -> (Vec<Slab>, u64) {
    debug_assert!(channels.is_sorted(), "channels out of order: {channels:?}");
    let scatter = Scatter::new(receptor, geom, opts, channels, region);

    // Cut at the planes where the running count of the region's nodes
    // passes each k/ranges of the total; drop the ranges with none.
    let weights: Vec<u64> = (0..geom.dims[2]).map(|z| region.plane_nodes(&geom, z)).collect();
    let total = region.nodes.max(1);
    let ranges = ranges.max(1) as u64;
    let (mut parts, mut start, mut seen) = (Vec::new(), 0, 0);
    for (z, w) in weights.iter().enumerate() {
        let before = seen * ranges / total;
        seen += w;
        if seen * ranges / total > before || z + 1 == weights.len() {
            if weights[start..=z].iter().any(|&w| w > 0) {
                parts.push(Planes { z: start..z + 1, slabs: Vec::new(), terms: 0 });
            }
            start = z + 1;
        }
    }
    // Every slab is cut at the same planes; range k gets piece k of each.
    let plane = geom.dims[0] * geom.dims[1];
    for slab in &mut slabs {
        // Unique, as the caller made it: this never copies.
        let mut rest = &mut Arc::make_mut(slab)[..];
        let mut at = 0;
        for part in &mut parts {
            let skipped = std::mem::take(&mut rest).split_at_mut((part.z.start - at) * plane).1;
            let (piece, tail) = skipped.split_at_mut(part.z.len() * plane);
            part.slabs.push(piece);
            (rest, at) = (tail, part.z.end);
        }
    }
    shared_pool(host_threads()).for_each_mut(&mut parts, |part| scatter.fill(part));
    let terms = parts.iter().map(|part| part.terms).sum();
    (slabs, terms)
}

/// One range's share of a build: planes `z` of every slab being built.
struct Planes<'a> {
    z: Range<usize>,
    /// Planes `z` of each slab, in channel order.
    slabs: Vec<&'a mut [f32]>,
    /// Pair terms [`Scatter::fill`] added to them.
    terms: u64,
}

/// What every range of one build reads: the lattice, the nodes being
/// built, and the receptor laid out for the walk.
struct Scatter<'r> {
    geom: Geometry,
    region: &'r Region,
    cutoff: f64,
    /// Node coordinates along each axis, `origin + i · spacing`.
    axes: [Vec<f64>; 3],
    /// Receptor atoms in [`SpatialGrid::cell_order`].
    atoms: Vec<ScatterAtom>,
    /// Per receptor element, per LJ channel: LJ (σ², 4ε) and whether the
    /// pair also takes the H-bond term.
    pair_params: Vec<Vec<(f64, f64, bool)>>,
    hb_eps: f64,
    dielectric: f64,
}

struct ScatterAtom {
    p: Vec3,
    elem: u8,
    /// `COULOMB_K ·` charge.
    kq: f64,
}

impl<'r> Scatter<'r> {
    fn new(
        receptor: &Molecule,
        geom: Geometry,
        opts: GridOptions,
        channels: &[Channel],
        region: &'r Region,
    ) -> Scatter<'r> {
        let lj_elems = channels.iter().filter_map(|c| match c {
            Channel::Lj(e) => Some(*e),
            Channel::Elec => None,
        });
        let table = PairTable::new(&LjTable::standard());
        let pair_params = (0..Element::COUNT as u8)
            .map(|re| {
                lj_elems
                    .clone()
                    .map(|le| {
                        let (s2, e4) = table.lookup(le, re);
                        let hb = opts.hbond_epsilon.is_some()
                            && is_hbond_capable_idx(le)
                            && is_hbond_capable_idx(re);
                        (s2, e4, hb)
                    })
                    .collect()
            })
            .collect();
        let cells = SpatialGrid::build(receptor.positions(), opts.cutoff);
        let charges = receptor.charges();
        let atoms = cells
            .cell_order()
            .iter()
            .map(|&j| ScatterAtom {
                p: receptor.positions()[j as usize],
                elem: receptor.elements()[j as usize].index() as u8,
                kq: COULOMB_K * charges[j as usize],
            })
            .collect();
        let axis = |a: usize| -> Vec<f64> { (0..geom.dims[a]).map(|i| geom.node(a, i)).collect() };
        Scatter {
            geom,
            region,
            cutoff: opts.cutoff,
            axes: [axis(0), axis(1), axis(2)],
            atoms,
            pair_params,
            hb_eps: opts.hbond_epsilon.unwrap_or(0.0),
            dielectric: opts.dielectric.unwrap_or(0.0),
        }
    }

    /// Add every atom's terms into the nodes of the region in `part`'s
    /// planes, then clamp them, over the widest lanes the host has (asked
    /// once per call).
    fn fill(&self, part: &mut Planes<'_>) {
        widest(RangeFill { scatter: self, part })
    }

    /// [`Scatter::fill`] over the lanes `W`: [`Scatter::fill_over`] of
    /// the whole lattice or of a part of it, compiled apart (the walk of a
    /// part ran 5–10% slower as one body with a flag).
    #[inline(always)]
    fn fill_in<W: Wide>(&self, part: &mut Planes<'_>) {
        if self.region.nodes == self.geom.nodes() as u64 {
            self.fill_over::<W, false>(part)
        } else {
            self.fill_over::<W, true>(part)
        }
    }

    /// [`Scatter::fill`] over the lanes `W`; `PART` says whether the region
    /// leaves nodes out.
    ///
    /// A node's `f32` sums must not depend on how the lattice was cut, on
    /// the region or on the lane type, and must equal what a node-major
    /// gather through the same `SpatialGrid` would add up (the tests keep
    /// one to compare with). All of it holds because a node takes its
    /// terms in cell order here and there: a query reports its neighbours
    /// in the relative order of `cell_order`, and here every range walks
    /// all of `cell_order`, a run of a row of nodes at a time, in whatever
    /// steps. The terms themselves are the same numbers
    /// ([`Scatter::step`]).
    ///
    /// An atom visits the lines of a plane within its cutoff circle there.
    /// In a part it visits only the runs of those lines within the
    /// circle's x-extent, so that rows outside the part cost nothing; in
    /// the whole lattice every line is one run.
    #[inline(always)]
    fn fill_over<W: Wide, const PART: bool>(&self, part: &mut Planes<'_>) {
        let [nx, ny, nz] = &self.axes;
        let dims = self.geom.dims;
        let r2 = self.cutoff * self.cutoff;
        let mut nodes = 0;
        // One plane's pieces of rows: where its cells start, dy², and the
        // nodes' x indices.
        let mut pieces: Vec<(usize, f64, Range<usize>)> = Vec::with_capacity(dims[1]);
        for atom in &self.atoms {
            let p = atom.p;
            let hbond = self.pair_params[atom.elem as usize].iter().any(|&(_, _, hb)| hb);
            let zs = self.geom.span(2, p.z - self.cutoff, p.z + self.cutoff);
            let zs = zs.start.max(part.z.start)..zs.end.min(part.z.end);
            for iz in zs {
                let dz = p.z - nz[iz];
                let dz2 = dz * dz;
                // Rounding is monotone, so d² >= dz² and d² >= dy² + dz² as
                // computed: a plane or row beyond the cutoff holds no node
                // within it.
                let circle = r2 - dz2;
                if circle < 0.0 {
                    continue;
                }
                let rc = circle.sqrt();
                let ys = self.geom.span(1, p.y - rc, p.y + rc);
                let plane = (iz - part.z.start) * dims[1];
                // The plane's pieces first, then their terms: finding a
                // chord is a chain of dependent operations, which runs
                // ahead of the steps this way instead of after each row.
                pieces.clear();
                if PART {
                    // Only the runs of these lines that meet the circle's
                    // x-extent, each line's chord found once.
                    let wide = self.geom.span(0, p.x - rc, p.x + rc);
                    let [xs, lines] = &self.region.extent[iz];
                    let ys = ys.start.max(lines.start)..ys.end.min(lines.end);
                    if !overlap(xs, &wide) || ys.is_empty() {
                        continue;
                    }
                    let rows = &self.region.rows[iz * dims[1]..][ys.start..=ys.end];
                    let runs = rows[0]..rows[ys.len()];
                    let lines = &self.region.line[runs.clone()];
                    let (mut at_line, mut dy2, mut xs) = (usize::MAX, 0.0, 0..0);
                    for (run, &iy) in self.region.runs[runs].iter().zip(lines) {
                        if !overlap(run, &wide) {
                            continue;
                        }
                        if iy != at_line {
                            (at_line, (dy2, xs)) = (iy, self.chord(p, ny[iy], dz2));
                        }
                        let (lo, hi) = (xs.start.max(run.start), xs.end.min(run.end));
                        if lo < hi {
                            pieces.push(((plane + iy) * dims[0], dy2, lo..hi));
                        }
                    }
                } else {
                    for iy in ys {
                        let (dy2, xs) = self.chord(p, ny[iy], dz2);
                        if !xs.is_empty() {
                            pieces.push(((plane + iy) * dims[0], dy2, xs));
                        }
                    }
                }
                for (row_at, dy2, xs) in pieces.drain(..) {
                    let at = row_at + xs.start;
                    let row = Row { atom, dy2, dz2, r2, nodes: &nx[xs] };
                    nodes += self.add_row::<W>(row, hbond, &mut part.slabs, at);
                }
            }
        }
        part.terms = nodes * part.slabs.len() as u64;
        let lj = self.pair_params[0].len();
        for iz in part.z.clone() {
            for iy in self.region.extent[iz][1].clone() {
                let row = ((iz - part.z.start) * dims[1] + iy) * dims[0];
                for run in self.region.row(iz * dims[1] + iy) {
                    for slab in &mut part.slabs[..lj] {
                        let nodes = &mut slab[row + run.start..row + run.end];
                        nodes.iter_mut().for_each(|v| *v = v.min(MAX_NODE_POTENTIAL));
                    }
                }
            }
        }
    }

    /// The nodes of the line at `y` whose distance from `p` can be within
    /// the cutoff, in a plane `dz²` from it, and the line's `dy²`.
    #[inline(always)]
    fn chord(&self, p: Vec3, y: f64, dz2: f64) -> (f64, Range<usize>) {
        let dy = p.y - y;
        let dy2 = dy * dy;
        let room = self.cutoff * self.cutoff - (dy2 + dz2);
        if room < 0.0 {
            return (dy2, 0..0);
        }
        let half = room.sqrt();
        (dy2, self.geom.span(0, p.x - half, p.x + half))
    }

    /// Add `row`'s atom into its nodes, whose cells start at `at` in every
    /// slab; `hbond` says whether any slab takes the atom's H-bond term.
    /// Returns how many nodes took the atom.
    #[inline(always)]
    fn add_row<W: Wide>(
        &self,
        row: Row<'_>,
        hbond: bool,
        slabs: &mut [&mut [f32]],
        at: usize,
    ) -> u64 {
        if hbond {
            self.add_row_with::<W, true>(row, slabs, at)
        } else {
            self.add_row_with::<W, false>(row, slabs, at)
        }
    }

    /// [`Scatter::add_row`], [`LANES`] nodes per step over `W`, the `len %
    /// LANES` left over one by one — the same step over `f64`. `HB` says
    /// whether any slab takes the atom's H-bond term.
    #[inline(always)]
    fn add_row_with<W: Wide, const HB: bool>(
        &self,
        row: Row<'_>,
        slabs: &mut [&mut [f32]],
        mut at: usize,
    ) -> u64 {
        let (x4, x1) = row.nodes.as_chunks::<LANES>();
        let mut nodes = 0;
        for x in x4 {
            nodes += self.step::<W, HB>(row, W::from_array(*x), slabs, at);
            at += LANES;
        }
        for x in x1 {
            nodes += self.step::<f64, HB>(row, *x, slabs, at);
            at += 1;
        }
        nodes
    }

    /// One step of [`Scatter::add_row_with`]: the nodes at `x`, one per lane.
    ///
    /// `d²` is `Vec3::dist_sq(atom, node)` spelled out — `(dx² + dy²) + dz²`
    /// against the same node coordinates — and a node takes the atom exactly
    /// when `!(d² > cutoff²)`, whatever the lanes beside it do: a lane
    /// outside the cutoff stores back the cell it loaded. Each term is the
    /// formula of the scalar pair function over the lanes, every slab's
    /// `σ²/r²` by a division of its own (a reciprocal shared between slabs
    /// would round differently), narrowed as `as f32` narrows.
    #[inline(always)]
    fn step<V: Lane, const HB: bool>(
        &self,
        row: Row<'_>,
        x: V,
        slabs: &mut [&mut [f32]],
        at: usize,
    ) -> u64 {
        let atom = row.atom;
        let dx = V::splat(atom.p.x) - x;
        let d2 = dx * dx + V::splat(row.dy2) + V::splat(row.dz2);
        let keep = d2.not_gt(V::splat(row.r2));
        // The LJ slabs, then the electrostatic one if it is being built.
        let params = &self.pair_params[atom.elem as usize];
        let (lj, elec) = slabs.split_at_mut(params.len());
        // One clamp serves LJ and H-bond; a NaN passes through it.
        let r2 = clamped(d2);
        // σ_hb and ε_hb belong to no element: every slab that takes the
        // H-bond term of this pair takes this one.
        let hbond = if HB { hbond_at(self.hb_eps, r2) } else { V::splat(0.0) };
        for (slab, &(s2, e4, hb)) in lj.iter_mut().zip(params) {
            let mut v = lj_at(s2, e4, r2);
            if HB && hb {
                v = v + hbond;
            }
            v.add_narrowed(keep, slab, at);
        }
        if let Some(slab) = elec.first_mut() {
            // Its own clamp, which drops a NaN.
            potential_at(atom.kq, self.dielectric, d2).add_narrowed(keep, slab, at);
        }
        u64::from(V::count(keep))
    }
}

/// One atom against one row of lattice nodes.
#[derive(Clone, Copy)]
struct Row<'a> {
    atom: &'a ScatterAtom,
    /// The atom's squared y and z distances to the row.
    dy2: f64,
    dz2: f64,
    /// The squared cutoff.
    r2: f64,
    /// x coordinates of the row's nodes that can lie within the cutoff.
    nodes: &'a [f64],
}

/// One range's fill, for [`widest`] to pick the lanes of.
struct RangeFill<'a, 'p> {
    scatter: &'a Scatter<'a>,
    part: &'a mut Planes<'p>,
}

impl WideFn for RangeFill<'_, '_> {
    type Output = ();
    #[inline(always)]
    fn call<W: Wide>(self) {
        self.scatter.fill_in::<W>(self.part)
    }
}

// ---------------------------------------------------------------------------
// Cache.
// ---------------------------------------------------------------------------

/// What slabs of one cache entry have in common: receptor content hash and
/// atom count, and the exact build options (floats by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FieldKey {
    receptor: u64,
    rec_atoms: u64,
    opts: [u64; 7],
}

impl FieldKey {
    fn of(receptor: &Molecule, o: GridOptions) -> FieldKey {
        // Each stream is cut into bytes before the chain: flattening the
        // chained words instead compiles to a slower loop than the
        // per-word one (about 25% on an x86-64 host, 8,609 atoms).
        let coords = receptor.positions().iter().flat_map(|p| [p.x, p.y, p.z]);
        let bytes = (coords.map(f64::to_bits).flat_map(u64::to_le_bytes))
            .chain(receptor.elements().iter().flat_map(|e| (e.index() as u64).to_le_bytes()))
            .chain(receptor.charges().into_iter().flat_map(|q| q.to_bits().to_le_bytes()));
        FieldKey {
            receptor: fnv1a(bytes),
            rec_atoms: receptor.len() as u64,
            opts: [
                o.spacing.to_bits(),
                o.margin.to_bits(),
                o.cutoff.to_bits(),
                o.dielectric.is_some() as u64,
                o.dielectric.unwrap_or(0.0).to_bits(),
                o.hbond_epsilon.is_some() as u64,
                o.hbond_epsilon.unwrap_or(0.0).to_bits(),
            ],
        }
    }
}

/// Counters of the process-wide slab cache ([`grid_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridCacheStats {
    /// Slabs resident.
    pub entries: usize,
    /// Their memory, bytes.
    pub bytes: u64,
    /// Requests (one per scorer built) that found every slab resident.
    pub hits: u64,
    /// Requests that had to build at least one slab.
    pub misses: u64,
    /// Slabs dropped from the cache to stay within the byte budget.
    pub evictions: u64,
    /// Slabs built.
    pub channels_built: u64,
}

/// Resident slabs may total this much before the least recently used
/// receptor's are dropped: room for one AutoDock-pitch (0.375 Å) field
/// over the larger Table 5 receptor (2BXG: four slabs of 47 MB) beside a
/// library's worth of coarse ones.
const GRID_CACHE_BUDGET_BYTES: u64 = 256 << 20;

fn slab_bytes(slab: &Slab) -> u64 {
    std::mem::size_of_val::<[f32]>(slab) as u64
}

/// A slab and the nodes it holds.
#[derive(Debug, Clone)]
struct Stored {
    slab: Slab,
    cover: Cover,
}

/// The slabs of one (receptor, options) pair.
#[derive(Default)]
struct Resident {
    slabs: BTreeMap<Channel, Stored>,
    /// [`CacheState::tick`] of the last request that touched it.
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    fields: BTreeMap<FieldKey, Resident>,
    tick: u64,
    stats: GridCacheStats,
}

/// A byte-budgeted store of slabs, evicting whole receptors least recently
/// used first. Slabs a scorer holds stay alive through their `Arc` after
/// eviction. The lock is held for map operations only, never across a
/// build: two requests for one cold slab both build it and the later
/// publisher adopts the earlier one's copy if it holds at least the nodes
/// the later one built. The process has one ([`grid_cache`]); tests make
/// their own.
///
/// A slab records its [`Cover`]. Only a **cold** request — one that finds
/// no slab of its receptor and options resident — builds just the nodes
/// its poses can reach ([`Reach`]); every later request gets whole slabs,
/// and one that finds a partial slab completes it by building the rest of
/// the lattice into a copy, which then replaces it.
struct SlabCache {
    budget: u64,
    state: Mutex<CacheState>,
}

/// One build of a request: the channels at `slots`, from `slabs`, over
/// the nodes of `region`, after which they hold `made`.
struct Pass {
    region: Arc<Region>,
    made: Cover,
    slots: Vec<usize>,
    slabs: Vec<Slab>,
}

/// What one request got: the slab of every channel, in channel order, and
/// what getting them cost.
struct Fetched {
    slabs: Vec<Slab>,
    /// The nodes every one of `slabs` holds at least.
    cover: Cover,
    /// Slabs built or completed.
    built: usize,
    seconds: f64,
    terms: u64,
}

impl SlabCache {
    fn new(budget: u64) -> SlabCache {
        SlabCache { budget, state: Mutex::default() }
    }

    fn state(&self) -> MutexGuard<'_, CacheState> {
        // PANICS: no code panics while holding this lock; poisoning would be a bug here, not a build failure.
        self.state.lock().expect("grid cache poisoned")
    }

    /// The resident slabs among `channels`, and whether the request is
    /// cold (nothing of `key` resident); marks the receptor used and counts
    /// the request as a hit (all resident and whole) or a miss.
    fn lookup(&self, key: &FieldKey, channels: &[Channel]) -> (Vec<Option<Stored>>, bool) {
        let mut st = self.state();
        st.tick += 1;
        let tick = st.tick;
        let (found, cold): (Vec<Option<Stored>>, bool) = match st.fields.get_mut(key) {
            Some(resident) => {
                resident.last_used = tick;
                (channels.iter().map(|c| resident.slabs.get(c).cloned()).collect(), false)
            }
            None => (vec![None; channels.len()], true),
        };
        if found.iter().all(|s| matches!(s, Some(Stored { cover: Cover::Whole, .. }))) {
            st.stats.hits += 1;
        } else {
            st.stats.misses += 1;
        }
        (found, cold)
    }

    /// Make freshly built slabs resident and hand back, in order, the
    /// resident slab of each of their channels: a resident whole slab, or
    /// one over the same region as the fresh one, is adopted (a racing
    /// request published it first); a resident partial slab is replaced by
    /// a fresh whole one; a resident partial slab over another region stays
    /// and the fresh one is handed back. Then evict other receptors, least
    /// recently used first, until the budget holds (`key`'s own slabs
    /// always stay).
    fn publish(&self, key: FieldKey, built: Vec<(Channel, Stored)>) -> Vec<Stored> {
        let mut st = self.state();
        st.tick += 1;
        let tick = st.tick;
        st.stats.channels_built += built.len() as u64;
        let resident = st.fields.entry(key).or_default();
        resident.last_used = tick;
        let (mut added, mut bytes) = (0, 0);
        let mut kept = Vec::with_capacity(built.len());
        for (channel, fresh) in built {
            let Some(slot) = resident.slabs.get_mut(&channel) else {
                added += 1;
                bytes += slab_bytes(&fresh.slab);
                resident.slabs.insert(channel, fresh.clone());
                kept.push(fresh);
                continue;
            };
            match (&slot.cover, &fresh.cover) {
                (Cover::Whole, _) => kept.push(slot.clone()),
                (Cover::Part(_), Cover::Whole) => {
                    *slot = fresh.clone();
                    kept.push(fresh);
                }
                (Cover::Part(a), Cover::Part(b)) if a == b => kept.push(slot.clone()),
                (Cover::Part(_), Cover::Part(_)) => kept.push(fresh),
            }
        }
        st.stats.entries += added;
        st.stats.bytes += bytes;
        while st.stats.bytes > self.budget {
            let others = st.fields.iter().filter(|(k, _)| **k != key);
            let Some((&victim, _)) = others.min_by_key(|(_, r)| r.last_used) else { break };
            let gone = st.fields.remove(&victim).unwrap_or_default();
            st.stats.entries -= gone.slabs.len();
            st.stats.bytes -= gone.slabs.values().map(|s| slab_bytes(&s.slab)).sum::<u64>();
            st.stats.evictions += gone.slabs.len() as u64;
        }
        kept
    }

    /// One request: the slab of every channel, in `channels` order. The
    /// missing ones are built in one pass — over the nodes `reach` can read
    /// if the request is cold, else over the whole lattice — and each
    /// resident partial slab is completed, one pass per region, by building
    /// the rest of the lattice into a copy. `clock` times the passes.
    fn slabs(
        &self,
        receptor: &Molecule,
        opts: GridOptions,
        channels: &[Channel],
        reach: Option<Reach<'_>>,
        clock: &dyn Fn() -> f64,
    ) -> Fetched {
        let key = FieldKey::of(receptor, opts);
        let (mut found, cold) = self.lookup(&key, channels);
        let geom = Geometry::of(receptor, opts);
        let cover = match reach.filter(|_| cold).and_then(|r| r.region(geom)) {
            Some(region) => Cover::Part(Arc::new(region)),
            None => Cover::Whole,
        };
        // The passes: the missing slabs from zeros over `cover`, then every
        // resident region's complement into copies of its slabs.
        let mut passes = Vec::new();
        let missing: Vec<usize> = (0..channels.len()).filter(|&i| found[i].is_none()).collect();
        if !missing.is_empty() {
            let region = match &cover {
                Cover::Whole => Arc::new(Region::whole(geom)),
                Cover::Part(region) => Arc::clone(region),
            };
            let slabs = missing.iter().map(|_| zero_slab(geom)).collect();
            passes.push(Pass { region, made: cover.clone(), slots: missing, slabs });
        }
        let mut partial: Vec<(Arc<Region>, Vec<usize>)> = Vec::new();
        for (i, stored) in found.iter().enumerate() {
            let Some(Stored { cover: Cover::Part(region), .. }) = stored else { continue };
            match partial.iter_mut().find(|(r, _)| Arc::ptr_eq(r, region)) {
                Some((_, slots)) => slots.push(i),
                None => partial.push((Arc::clone(region), vec![i])),
            }
        }
        for (part, slots) in partial {
            let region = Arc::new(part.complement(geom));
            let slabs = slots
                .iter()
                .filter_map(|&i| found[i].as_ref().map(|s| Slab::from(&s.slab[..])))
                .collect();
            passes.push(Pass { region, made: Cover::Whole, slots, slabs });
        }

        let (mut built, mut seconds, mut terms) = (Vec::new(), 0.0, 0);
        if !passes.is_empty() {
            let t0 = clock();
            for Pass { region, made, slots, slabs } in passes {
                let these: Vec<Channel> = slots.iter().map(|&i| channels[i]).collect();
                let ranges = RANGES_PER_THREAD * host_threads();
                let (slabs, added) =
                    fill_region(receptor, geom, opts, &these, &region, slabs, ranges);
                terms += added;
                let stored = slabs.into_iter().map(|slab| Stored { slab, cover: made.clone() });
                built.extend(slots.into_iter().zip(stored));
            }
            seconds = clock() - t0;
            let publish = built.iter().map(|(i, s)| (channels[*i], s.clone())).collect();
            for ((i, _), stored) in built.iter().zip(self.publish(key, publish)) {
                found[*i] = Some(stored);
            }
        }
        let slabs = found.into_iter().flatten().map(|s| s.slab).collect();
        Fetched { slabs, cover, built: built.len(), seconds, terms }
    }

    fn stats(&self) -> GridCacheStats {
        self.state().stats
    }

    fn clear(&self) {
        let mut st = self.state();
        st.fields.clear();
        st.stats.entries = 0;
        st.stats.bytes = 0;
    }
}

fn grid_cache() -> &'static SlabCache {
    static CACHE: OnceLock<SlabCache> = OnceLock::new();
    CACHE.get_or_init(|| SlabCache::new(GRID_CACHE_BUDGET_BYTES))
}

/// Counters of the process-wide slab cache since the process started
/// (`entries` and `bytes` are what is resident now).
pub fn grid_cache_stats() -> GridCacheStats {
    grid_cache().stats()
}

/// Drop every resident slab from the process-wide cache; the next request
/// for any of them builds again. Slabs that scorers hold stay valid, and
/// the cumulative counters keep counting.
pub fn grid_cache_clear() {
    grid_cache().clear()
}

// ---------------------------------------------------------------------------
// Field and interpolation.
// ---------------------------------------------------------------------------

/// The grids one ligand scores against: lattice geometry plus its slabs —
/// one per ligand element present and, when enabled, the electrostatic
/// one — each possibly shared with other scorers and with the cache.
#[derive(Debug, Clone)]
pub struct GridField {
    geom: Geometry,
    opts: GridOptions,
    /// LJ(+H-bond) slabs, ascending element index.
    lj: Vec<Slab>,
    /// Electrostatic potential per unit charge.
    elec: Option<Slab>,
    /// The nodes every slab holds at least: the whole lattice, or the
    /// reach of a cold request's spots ([`SlabCache`]).
    cover: Cover,
}

impl GridField {
    fn slabs(&self) -> impl Iterator<Item = &Slab> {
        self.lj.iter().chain(&self.elec)
    }

    /// Memory of this field's slabs in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.slabs().map(slab_bytes).sum::<u64>() as usize
    }

    /// Nodes per grid.
    pub fn nodes(&self) -> usize {
        self.geom.nodes()
    }

    /// Grid count (per-type LJ grids + electrostatic grid when present).
    pub fn grid_count(&self) -> u32 {
        self.slabs().count() as u32
    }
}

/// Per-chunk interpolation inputs for up to 8 ligand atoms: base node
/// index, the atom's LJ slab, fractional weights, charge, and a 0/1 lane
/// mask (trailing lanes of a short final chunk score 0).
struct Chunk<'a> {
    base: [usize; 8],
    lj: [&'a [f32]; 8],
    fx: [f32; 8],
    fy: [f32; 8],
    fz: [f32; 8],
    q: [f32; 8],
    mask: [f32; 8],
}

/// Wide trilinear interpolation: the 8 corners of each lane's cell,
/// gathered from the slab `slab` names for that lane (one per lane for
/// the LJ term, the same one for electrostatics), then weighted and summed
/// in a fixed order (000, 100, 010, 110, 001, 101, 011, 111). The tests'
/// scalar reference, `trilerp_lane`, replays the same order per lane —
/// keep them in sync.
#[inline(always)]
fn trilerp_wide<'a>(
    slab: impl Fn(usize) -> &'a [f32],
    idx: &[usize; 8],
    [oy, oz]: [u32; 2],
    w: &[F32x8; 8],
) -> F32x8 {
    let (ox, oy, oz) = (1, oy as usize, oz as usize);
    let offsets = [0, ox, oy, ox + oy, oz, ox + oz, oy + oz, ox + oy + oz];
    // Lane-major gather: a lane's slab is looked up once for its 8 corners,
    // and its cell is bounds-checked once, as the slice up to the far
    // corner. The strides came from `u32`s, so no offset sum wraps and every
    // corner provably lies inside that slice.
    let mut corners = [[0f32; 8]; 8];
    for l in 0..8 {
        let cell = &slab(l)[idx[l]..][..=ox + oy + oz];
        for (corner, &off) in corners.iter_mut().zip(&offsets) {
            corner[l] = cell[off];
        }
    }
    let mut v = F32x8::from_array(corners[0]) * w[0];
    for c in 1..8 {
        v = v + F32x8::from_array(corners[c]) * w[c];
    }
    v
}

/// A pose broadcast to every lane, to place [`LANES`] ligand atoms per step.
#[derive(Clone, Copy)]
struct LanePose<W> {
    /// The rotation's vector part, then its scalar part.
    q: [W; 3],
    w: W,
    t: [W; 3],
}

impl<W: Wide> LanePose<W> {
    #[inline(always)]
    fn new(pose: &RigidTransform) -> LanePose<W> {
        let (r, t) = (pose.rotation, pose.translation);
        LanePose {
            q: [W::splat(r.x), W::splat(r.y), W::splat(r.z)],
            w: W::splat(r.w),
            t: [W::splat(t.x), W::splat(t.y), W::splat(t.z)],
        }
    }

    /// The atoms at local coordinates `v`, placed: [`RigidTransform::apply`]
    /// — `Quat::rotate(v) + t` — with its association, `u = (q × v)·2`, then
    /// `((v + u·w) + q × u) + t`, each cross component `a·b − c·d` as
    /// `Vec3::cross` writes it. Every operation is a correctly rounded
    /// `+ − ×` and Rust never contracts two into a fused multiply-add, so
    /// each lane gets `apply`'s bits.
    ///
    /// Spelled out component by component: a closure passed to
    /// `<[_; 3]>::map` is not inlined into the `avx2` body, and calling it
    /// per step made a pose several times slower.
    #[inline(always)]
    fn apply(&self, v: [W; 3]) -> [W; 3] {
        #[inline(always)]
        fn cross<W: Wide>(a: [W; 3], b: [W; 3]) -> [W; 3] {
            [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
        }
        let (q, w, t, two) = (self.q, self.w, self.t, W::splat(2.0));
        let u = cross(q, v);
        let u = [u[0] * two, u[1] * two, u[2] * two];
        let qu = cross(q, u);
        [
            ((v[0] + u[0] * w) + qu[0]) + t[0],
            ((v[1] + u[1] * w) + qu[1]) + t[1],
            ((v[2] + u[2] * w) + qu[2]) + t[2],
        ]
    }
}

/// One pose's interpolation, for [`widest`] to pick the lanes of.
struct Interpolation<'a> {
    scorer: &'a GridScorer,
    pose: &'a RigidTransform,
}

impl WideFn for Interpolation<'_> {
    type Output = f64;
    #[inline(always)]
    fn call<W: Wide>(self) -> f64 {
        self.scorer.interpolate::<W>(self.pose)
    }
}

/// A ligand bound to its [`GridField`]: scores poses by trilinear
/// interpolation, `O(ligand_atoms)` per pose.
#[derive(Debug, Clone)]
pub struct GridScorer {
    field: GridField,
    /// The centred ligand's x, y and z columns, padded with NaN to whole
    /// 8-atom chunks, so that a chunk loads its lanes directly. A padding
    /// lane is placed at NaN by any pose, which the lattice clamp sends to
    /// node 0.
    lig: [Vec<f64>; 3],
    /// Index into `field.lj` per ligand atom.
    lig_slab: Vec<usize>,
    lig_charge: Vec<f32>,
    stats: GridBuildStats,
}

impl GridScorer {
    /// Fetch from the slab cache, building what is missing, the grids for a
    /// receptor/ligand pair. Cost of a slab that has to be built:
    /// `nodes × receptor atoms within the cutoff`, paid once per
    /// (receptor, options, ligand element).
    pub fn new(receptor: &Molecule, ligand: &Molecule, opts: GridOptions) -> GridScorer {
        // Untraced builds report 0.0 build seconds rather than read the
        // OS clock; [`GridScorer::new_traced`] threads the trace epoch in.
        GridScorer::new_in(grid_cache(), receptor, ligand, opts, &[], &|| 0.0)
    }

    /// [`GridScorer::new`] for poses that are each `clamped_to` one of
    /// `spots`: a cold request builds only the nodes those poses can read
    /// ([`Reach`]), and scoring a pose farther out reads `+0.0` for the
    /// nodes it was not built (a debug build asserts it reads none).
    pub(crate) fn for_spots(
        receptor: &Molecule,
        ligand: &Molecule,
        opts: GridOptions,
        spots: &[Spot],
    ) -> GridScorer {
        GridScorer::new_in(grid_cache(), receptor, ligand, opts, spots, &|| 0.0)
    }

    /// The scorer over `cache`'s slabs; `spots` empty asks for the whole
    /// lattice.
    fn new_in(
        cache: &SlabCache,
        receptor: &Molecule,
        ligand: &Molecule,
        opts: GridOptions,
        spots: &[Spot],
        clock: &dyn Fn() -> f64,
    ) -> GridScorer {
        assert!(opts.spacing > 0.0, "spacing must be positive");
        assert!(opts.cutoff > 0.0, "cutoff must be positive");
        let lig = ligand.centered();
        let r_lig = lig.positions().iter().fold(0.0, |r: f64, p| {
            let d = p.norm();
            // A NaN atom makes the reach NaN, which asks for the whole lattice.
            if d > r || d.is_nan() {
                d
            } else {
                r
            }
        });
        let reach = (!spots.is_empty()).then_some(Reach { spots, r_lig });
        // Channels in `Channel` order: LJ by ascending element index, then
        // electrostatics. `slot[e]` is where element `e`'s slab will sit.
        let mut present = [false; Element::COUNT];
        for e in lig.elements() {
            present[e.index()] = true;
        }
        let mut slot = [usize::MAX; Element::COUNT];
        let mut channels = Vec::new();
        for idx in (0..Element::COUNT).filter(|&idx| present[idx]) {
            slot[idx] = channels.len();
            channels.push(Channel::Lj(idx as u8));
        }
        if opts.dielectric.is_some() {
            channels.push(Channel::Elec);
        }
        let Fetched { slabs: mut lj, cover, built, seconds, terms } =
            cache.slabs(receptor, opts, &channels, reach, clock);
        let elec = if opts.dielectric.is_some() { lj.pop() } else { None };
        let field = GridField { geom: Geometry::of(receptor, opts), opts, lj, elec, cover };
        let stats = GridBuildStats {
            nodes: field.nodes() as u64,
            grids: field.grid_count(),
            bytes: field.footprint_bytes() as u64,
            build_seconds: seconds,
            built: built as u32,
            terms,
            cached: built == 0,
        };
        let chunks = lig.len().next_multiple_of(F32x8::LANES);
        let column = |axis: usize| -> Vec<f64> {
            let coords = lig.positions().iter().map(|p| p[axis]);
            coords.chain(std::iter::repeat(f64::NAN)).take(chunks).collect()
        };
        GridScorer {
            field,
            lig: [column(0), column(1), column(2)],
            lig_slab: lig.elements().iter().map(|e| slot[e.index()]).collect(),
            lig_charge: lig.charges().iter().map(|&q| q as f32).collect(),
            stats,
        }
    }

    /// [`GridScorer::new`] plus a [`vstrace::Event::GridBuilt`] record of
    /// what this scorer's grids are and what the request cost: `grids` and
    /// `bytes` are this scorer's slabs, `terms` the pair terms its build
    /// added, `build_s` the seconds spent building, `cached` that nothing
    /// had to be built. A request that
    /// built also leaves a `grid_slabs_built` counter with how many.
    pub fn new_traced(
        receptor: &Molecule,
        ligand: &Molecule,
        opts: GridOptions,
        trace: &vstrace::Trace,
    ) -> GridScorer {
        let scorer =
            GridScorer::new_in(grid_cache(), receptor, ligand, opts, &[], &|| trace.now_s());
        let s = scorer.stats;
        trace.emit(vstrace::Event::GridBuilt {
            nodes: s.nodes,
            grids: s.grids,
            bytes: s.bytes,
            terms: s.terms,
            build_s: s.build_seconds,
            cached: s.cached,
        });
        if s.built > 0 {
            trace.emit(vstrace::Event::Counter {
                name: "grid_slabs_built",
                value: f64::from(s.built),
            });
        }
        scorer
    }

    pub fn options(&self) -> GridOptions {
        self.field.opts
    }

    pub fn ligand_atoms(&self) -> usize {
        self.lig_slab.len()
    }

    /// Memory of this scorer's slabs in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.field.footprint_bytes()
    }

    /// What this scorer's grids are and what its request cost.
    pub fn build_stats(&self) -> GridBuildStats {
        self.stats
    }

    /// Whether every slab the two scorers have in common by position is one
    /// shared allocation (same receptor, options and element set).
    pub fn shares_slabs_with(&self, other: &GridScorer) -> bool {
        self.field.grid_count() == other.field.grid_count()
            && self.field.slabs().zip(other.field.slabs()).all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Chunk `a0`'s atoms without their lattice cells: each atom's LJ slab,
    /// charge and mask 1.0. The lanes past the last atom keep mask 0.0 and
    /// node 0 of the first slab, which exists: a ligand has at least one
    /// atom.
    #[inline(always)]
    fn chunk_atoms(&self, a0: usize) -> Chunk<'_> {
        let mut c = Chunk {
            base: [0; 8],
            lj: [&self.field.lj[0]; 8],
            fx: [0.0; 8],
            fy: [0.0; 8],
            fz: [0.0; 8],
            q: [0.0; 8],
            mask: [0.0; 8],
        };
        for l in 0..F32x8::LANES.min(self.ligand_atoms() - a0) {
            c.mask[l] = 1.0;
            c.lj[l] = &self.field.lj[self.lig_slab[a0 + l]];
            c.q[l] = self.lig_charge[a0 + l];
        }
        c
    }

    /// Fill the interpolation inputs of chunk `a0`, whose atoms sit at
    /// `local` in the ligand's frame: [`LANES`] atoms per step over `W`,
    /// each placed by `pose`, then its lattice cell and fractions found.
    /// Per axis, `g = (p − origin) / spacing` is clamped into `[0, dims −
    /// 1.000001]` — a position outside the grid to its boundary (far from
    /// the receptor the potential is ~0 anyway, given the build cutoff), a
    /// NaN to 0 — then `cell = trunc(g)` and `frac = (g − cell) as f32`.
    /// The clamp is `f64::max(g, 0.0)` then `f64::min(g, hi)` as
    /// compare-selects, which agree with them on NaN, ±∞ and `−0.0` (to
    /// `+0.0`); the division is the one the scalar setup made, not a
    /// product with a reciprocal, which would round differently. Lanes past
    /// the last atom are placed at NaN (the padding of the columns), so
    /// they sit at the origin: cell 0, fraction 0.
    ///
    /// The base node `(z · dims[1] + y) · dims[0] + x` is summed in the
    /// lanes too and converted once per atom: every term is an integer no
    /// larger than the node count, which is below 2⁵³ for any lattice whose
    /// slabs fit in memory, so the `f64` sums are exact. Three saturating
    /// `f64 → usize` conversions per atom cost more than the rest of the
    /// setup; the one left goes through `i64`, which x86-64 converts to in
    /// one instruction where `u64` takes two and a branch.
    #[inline(always)]
    fn prep_chunk<W: Wide>(
        &self,
        pose: &LanePose<W>,
        local: [&[f64; 8]; 3],
        a0: usize,
    ) -> Chunk<'_> {
        let g = &self.field.geom;
        let mut c = self.chunk_atoms(a0);
        let (mut base, mut fracs) = ([W::splat(0.0); 2], [[0f32; 8]; 3]);
        for (step, base) in base.iter_mut().enumerate() {
            let at = |col: &[f64; 8]| W::from_array(col.as_chunks::<LANES>().0[step]);
            let p = pose.apply([at(local[0]), at(local[1]), at(local[2])]);
            for axis in (0..3).rev() {
                let (origin, spacing) = (W::splat(g.origin[axis]), W::splat(g.spacing));
                let (zero, hi) = (W::splat(0.0), W::splat(g.dims[axis] as f64 - 1.000001));
                let v = (p[axis] - origin) / spacing;
                let v = zero.select_lt(v, v, zero);
                let v = v.select_lt(hi, v, hi);
                let cell = v.trunc();
                *base = *base * W::splat(g.dims[axis] as f64) + cell;
                fracs[axis].as_chunks_mut::<LANES>().0[step] = (v - cell).to_f32_array();
            }
        }
        [c.fx, c.fy, c.fz] = fracs;
        for (lanes, base) in c.base.as_chunks_mut::<LANES>().0.iter_mut().zip(base) {
            *lanes = base.to_array().map(|b| b as i64 as usize);
        }
        c
    }

    /// The score of `pose`: 8 atoms per step, placed and their cells set up
    /// over `W`, their corners blended through [`F32x8`].
    #[inline(always)]
    fn interpolate<W: Wide>(&self, pose: &RigidTransform) -> f64 {
        let f = &self.field;
        debug_assert!(f.nodes() < 1 << 53, "node indices must be exact in f64");
        let strides = f.geom.strides();
        let pose = LanePose::<W>::new(pose);
        let one = F32x8::splat(1.0);
        let mut total = 0.0f64;
        let [x, y, z] = &self.lig;
        let chunks = x.as_chunks().0.iter().zip(y.as_chunks().0).zip(z.as_chunks().0);
        for (k, ((x, y), z)) in chunks.enumerate() {
            let c = self.prep_chunk(&pose, [x, y, z], k * F32x8::LANES);
            debug_assert!(self.reads_built(&c), "a pose read lattice nodes its slabs do not hold");
            let (fx, fy, fz) =
                (F32x8::from_array(c.fx), F32x8::from_array(c.fy), F32x8::from_array(c.fz));
            let (wx0, wy0, wz0) = (one - fx, one - fy, one - fz);
            let w = [
                (wx0 * wy0) * wz0,
                (fx * wy0) * wz0,
                (wx0 * fy) * wz0,
                (fx * fy) * wz0,
                (wx0 * wy0) * fz,
                (fx * wy0) * fz,
                (wx0 * fy) * fz,
                (fx * fy) * fz,
            ];
            let mut contrib = trilerp_wide(|l| c.lj[l], &c.base, strides, &w);
            if let Some(elec) = &f.elec {
                let e = trilerp_wide(|_| elec, &c.base, strides, &w);
                contrib = contrib + F32x8::from_array(c.q) * e;
            }
            total += (contrib * F32x8::from_array(c.mask)).horizontal_sum() as f64;
        }
        total
    }

    /// Whether every corner a lane of `c` under mask 1 reads is a node the
    /// slabs hold. A lane under mask 0 reads node 0's cell, which may be
    /// unbuilt: it holds `+0.0`, and `0 · 0` adds nothing.
    fn reads_built(&self, c: &Chunk<'_>) -> bool {
        let Cover::Part(region) = &self.field.cover else { return true };
        let g = &self.field.geom;
        let [oy, oz] = g.strides().map(|s| s as usize);
        let offsets = [0, 1, oy, 1 + oy, oz, 1 + oz, oy + oz, 1 + oy + oz];
        let live = (0..F32x8::LANES).filter(|&l| c.mask[l] != 0.0);
        live.flat_map(|l| offsets.map(|o| c.base[l] + o)).all(|node| region.contains(g, node))
    }

    /// Score a pose by interpolation: `O(ligand_atoms)`.
    pub fn score(&self, pose: &RigidTransform) -> f64 {
        widest(Interpolation { scorer: self, pose })
    }
}

/// Reference: the exact cutoff score the grid approximates (same cutoff,
/// same terms — LJ, Coulomb, H-bond as enabled), for accuracy tests and
/// benches.
pub fn exact_cutoff_score(
    receptor: &Molecule,
    ligand: &Molecule,
    pose: &RigidTransform,
    opts: GridOptions,
) -> f64 {
    let lig = ligand.centered().transformed(pose);
    let lf = Frame::from_molecule(&lig);
    let rf = Frame::from_molecule(receptor);
    let table = PairTable::new(&LjTable::standard());
    let mut total = crate::lj::lj_naive_cutoff(&lf, &rf, &table, opts.cutoff);
    if opts.dielectric.is_some() || opts.hbond_epsilon.is_some() {
        let c2 = opts.cutoff * opts.cutoff;
        for i in 0..lf.len() {
            for j in 0..rf.len() {
                let dx = lf.x[i] - rf.x[j];
                let dy = lf.y[i] - rf.y[j];
                let dz = lf.z[i] - rf.z[j];
                let r_sq = dx * dx + dy * dy + dz * dz;
                if r_sq > c2 {
                    continue;
                }
                if let Some(eps) = opts.dielectric {
                    total += crate::coulomb::coulomb_pair(lf.charge[i], rf.charge[j], r_sq, eps);
                }
                if let Some(hb) = opts.hbond_epsilon {
                    if is_hbond_capable_idx(lf.elem[i]) && is_hbond_capable_idx(rf.elem[j]) {
                        total += hbond_pair(hb, r_sq);
                    }
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::F64x4;
    use crate::lj::{lj_pair, MIN_DIST_SQ};
    use vsmath::{Quat, RngStream};
    use vsmol::synth;

    fn setup(spacing: f64) -> (Molecule, Molecule, GridScorer) {
        let rec = synth::synth_receptor("r", 300, 3);
        let lig = synth::synth_ligand("l", 10, 4);
        let grid = GridScorer::new(&rec, &lig, GridOptions { spacing, ..Default::default() });
        (rec, lig, grid)
    }

    /// Surface poses for the 300-atom test receptor (radius ≈ 11.7 Å).
    fn surface_poses(n: usize, seed: u64) -> Vec<RigidTransform> {
        let mut rng = RngStream::from_seed(seed);
        (0..n)
            .map(|_| {
                RigidTransform::new(
                    rng.rotation(),
                    rng.unit_vector() * rng.uniform_range(13.0, 17.0),
                )
            })
            .collect()
    }

    #[test]
    fn grid_tracks_exact_scores_on_surface_poses() {
        let (rec, lig, grid) = setup(0.6);
        let mut checked = 0;
        for (k, pose) in surface_poses(12, 5).iter().enumerate() {
            let exact = exact_cutoff_score(&rec, &lig, pose, grid.options());
            if exact > 0.0 {
                // Repulsive pose: near and inside the clamped core the grid
                // only guarantees "bad", not the exact value.
                assert!(grid.score(pose) > 0.0, "pose {k}: clash not flagged");
                continue;
            }
            let approx = grid.score(pose);
            // Grid error scales with the potential's local curvature; on
            // non-clashing surface poses a 0.6 Å grid stays within
            // ~15% + 1.0 absolute.
            let tol = 0.15 * exact.abs() + 1.0;
            assert!((approx - exact).abs() < tol, "pose {k}: grid {approx} vs exact {exact}");
            checked += 1;
        }
        assert!(checked >= 5, "too few non-clashing poses ({checked})");
    }

    #[test]
    fn finer_grids_are_more_accurate() {
        let (rec, lig, _) = setup(0.6);
        let coarse =
            GridScorer::new(&rec, &lig, GridOptions { spacing: 1.5, ..Default::default() });
        let fine = GridScorer::new(&rec, &lig, GridOptions { spacing: 0.5, ..Default::default() });
        let poses = surface_poses(20, 7);
        let err = |g: &GridScorer| -> f64 {
            poses
                .iter()
                .map(|p| (g.score(p) - exact_cutoff_score(&rec, &lig, p, g.options())).abs())
                .sum::<f64>()
        };
        let (ec, ef) = (err(&coarse), err(&fine));
        assert!(ef < ec, "fine {ef} should beat coarse {ec}");
    }

    #[test]
    fn grid_preserves_pose_ranking() {
        // What the metaheuristic needs is the *ordering* of scores, not the
        // values: check rank agreement between grid and exact on a pose set.
        let (rec, lig, grid) = setup(0.6);
        let poses = surface_poses(15, 9);
        let approx: Vec<f64> = poses.iter().map(|p| grid.score(p)).collect();
        let exact: Vec<f64> =
            poses.iter().map(|p| exact_cutoff_score(&rec, &lig, p, grid.options())).collect();
        // Count concordant pairs (Kendall-style).
        let mut concordant = 0;
        let mut total = 0;
        for i in 0..poses.len() {
            for j in (i + 1)..poses.len() {
                if (exact[i] - exact[j]).abs() < 0.2 {
                    continue; // near-ties don't count
                }
                total += 1;
                if (approx[i] < approx[j]) == (exact[i] < exact[j]) {
                    concordant += 1;
                }
            }
        }
        assert!(concordant as f64 >= 0.85 * total as f64, "rank agreement {concordant}/{total}");
    }

    #[test]
    fn far_outside_grid_scores_near_zero() {
        let (_, _, grid) = setup(1.0);
        let far = RigidTransform::from_translation(Vec3::new(500.0, 0.0, 0.0));
        assert!(grid.score(&far).abs() < 1.0, "boundary clamp leaked: {}", grid.score(&far));
    }

    #[test]
    fn electrostatic_grid_contributes() {
        let rec = synth::synth_receptor("r", 200, 8);
        let lig = synth::synth_ligand("l", 8, 9);
        let no_elec =
            GridScorer::new(&rec, &lig, GridOptions { spacing: 1.0, ..Default::default() });
        let with_elec = GridScorer::new(
            &rec,
            &lig,
            GridOptions { spacing: 1.0, dielectric: Some(4.0), ..Default::default() },
        );
        let pose = RigidTransform::from_translation(Vec3::new(12.0, 0.0, 0.0));
        assert_ne!(no_elec.score(&pose), with_elec.score(&pose));
    }

    #[test]
    fn hbond_term_bakes_into_capable_grids() {
        let rec = synth::synth_receptor("r", 200, 8);
        let lig = synth::synth_ligand("l", 8, 9);
        assert!(
            lig.elements().iter().any(|&e| matches!(e, Element::N | Element::O)),
            "test ligand must carry an H-bond-capable atom"
        );
        let plain = GridScorer::new(&rec, &lig, GridOptions { spacing: 0.6, ..Default::default() });
        let hb = GridScorer::new(
            &rec,
            &lig,
            GridOptions { spacing: 0.6, hbond_epsilon: Some(1.0), ..Default::default() },
        );
        let pose = RigidTransform::from_translation(Vec3::new(12.0, 0.0, 0.0));
        assert_ne!(plain.score(&pose), hb.score(&pose), "H-bond grids should shift the score");
        // And the H-bond grid tracks the H-bond-inclusive exact reference.
        let exact = exact_cutoff_score(&rec, &lig, &pose, hb.options());
        if exact <= 0.0 {
            let tol = 0.15 * exact.abs() + 1.0;
            assert!((hb.score(&pose) - exact).abs() < tol, "{} vs {exact}", hb.score(&pose));
        }
    }

    #[test]
    fn wide_and_scalar_paths_bit_identical() {
        let rec = synth::synth_receptor("r", 200, 8);
        let lig = synth::synth_ligand("l", 13, 9); // 13 atoms: exercises a masked tail chunk
        let grid = GridScorer::new(
            &rec,
            &lig,
            GridOptions { spacing: 0.8, dielectric: Some(4.0), ..Default::default() },
        );
        let mut poses = surface_poses(16, 21);
        poses.push(RigidTransform::from_translation(Vec3::new(400.0, -30.0, 2.0)));
        for (k, pose) in poses.iter().enumerate() {
            let w = grid.score(pose);
            let s = grid.score_scalar(pose);
            assert_eq!(w.to_bits(), s.to_bits(), "pose {k}: wide {w} != scalar {s}");
        }
    }

    /// `pose` placing four atoms at `local` over the lanes `W`: the bits of
    /// every coordinate, any NaN as [`f64::NAN`]'s.
    struct Placement {
        pose: RigidTransform,
        local: [[f64; LANES]; 3],
    }

    impl WideFn for Placement {
        type Output = [[u64; LANES]; 3];
        #[inline(always)]
        fn call<W: Wide>(self) -> [[u64; LANES]; 3] {
            let placed = LanePose::<W>::new(&self.pose).apply(self.local.map(W::from_array));
            placed.map(|c| c.to_array().map(nan_as_one))
        }
    }

    /// `v`'s bits, with every NaN counted as one: neither IEEE-754 nor Rust
    /// fixes the sign and payload a NaN result carries, and the lattice
    /// clamp sends every NaN to node 0.
    fn nan_as_one(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// The frame the other kernels score, written by `apply_all_soa`, holds
    /// the numbers the grid's lanes place the same atoms at, to the bit (NaN
    /// as one): on the portable lanes and on the detected ones, for every
    /// pose of [`odd_poses`] and 200 seeded ones, over atoms at zero, `−0.0`,
    /// NaN, ±∞, 1e300 and random places.
    #[test]
    fn frame_soa_matches_pose_scoring() {
        let mut rng = RngStream::from_seed(0xf5a);
        let mut poses = odd_poses();
        poses.extend((0..200).map(|_| {
            let t = rng.unit_vector() * rng.uniform_range(0.0, 30.0);
            RigidTransform::new(rng.rotation(), t)
        }));
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
        let mut atoms: Vec<Vec3> = specials.iter().map(|&s| Vec3::new(s, 1.5, -2.25)).collect();
        atoms.extend(specials.iter().map(|&s| Vec3::new(0.75, s, -s)));
        atoms.extend((0..12).map(|_| rng.unit_vector() * rng.uniform_range(0.0, 9.0)));
        let n = atoms.len();
        assert_eq!(n % LANES, 0);
        for (k, pose) in poses.iter().enumerate() {
            let (mut x, mut y, mut z) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            pose.apply_all_soa(&atoms, &mut x, &mut y, &mut z);
            for (step, four) in atoms.chunks_exact(LANES).enumerate() {
                let local = [0, 1, 2].map(|a| [0, 1, 2, 3].map(|l| four[l][a]));
                let frame =
                    [&x, &y, &z].map(|c| [0, 1, 2, 3].map(|l| nan_as_one(c[step * LANES + l])));
                let placement = || Placement { pose: *pose, local };
                assert_eq!(placement().call::<F64x4>(), frame, "pose {k} {pose:?}, portable lanes");
                assert_eq!(widest(placement()), frame, "pose {k} {pose:?}, detected lanes");
            }
        }
    }

    #[test]
    fn batch_matches_singles() {
        let (_, _, grid) = setup(1.0);
        let poses = surface_poses(6, 11);
        let batch = grid.score_batch(&poses);
        for (p, &b) in poses.iter().zip(&batch) {
            assert_eq!(grid.score(p), b);
        }
    }

    #[test]
    fn footprint_scales_with_types_and_volume() {
        let (_, _, grid) = setup(1.0);
        assert!(grid.footprint_bytes() > 0);
        let (_, _, fine) = setup(0.5);
        assert!(fine.footprint_bytes() > 4 * grid.footprint_bytes());
    }

    #[test]
    fn default_is_deliberately_coarse_and_autodock_preset_is_finer() {
        assert_eq!(GridOptions::default().spacing, 0.75, "documented coarse default");
        assert_eq!(GridOptions::autodock().spacing, 0.375, "AutoDock map resolution");
        assert_eq!(GridOptions::autodock().cutoff, GridOptions::default().cutoff);
    }

    #[test]
    fn build_cache_shares_fields_between_scorers() {
        // Dedicated receptor + spacing so no other test matches this key.
        let rec = synth::synth_receptor("cache-test", 120, 77);
        let lig = synth::synth_ligand("cache-lig", 9, 78);
        let opts = GridOptions { spacing: 0.9, ..Default::default() };
        let a = GridScorer::new(&rec, &lig, opts);
        let b = GridScorer::new(&rec, &lig, opts);
        assert!(b.shares_slabs_with(&a), "second request must hit the cache");
        assert!(b.build_stats().cached, "cache hit must be visible in stats");
        assert_eq!(a.build_stats().bytes, b.build_stats().bytes);
        // A different pitch is a different key.
        let c = GridScorer::new(&rec, &lig, GridOptions { spacing: 1.1, ..Default::default() });
        assert!(!c.shares_slabs_with(&a));
        assert!(grid_cache_stats().channels_built >= 2 * u64::from(a.build_stats().grids));
    }

    #[test]
    fn traced_build_emits_grid_built_event() {
        let rec = synth::synth_receptor("trace-test", 110, 81);
        let lig = synth::synth_ligand("trace-lig", 7, 82);
        let opts = GridOptions { spacing: 1.0, ..Default::default() };
        let trace = vstrace::Trace::new();
        let g = GridScorer::new_traced(&rec, &lig, opts, &trace);
        let data = trace.snapshot();
        let built: Vec<_> = data
            .payloads()
            .into_iter()
            .filter(|e| matches!(e, vstrace::Event::GridBuilt { .. }))
            .collect();
        assert_eq!(built.len(), 1);
        if let vstrace::Event::GridBuilt { nodes, grids, bytes, terms, cached, .. } = built[0] {
            assert_eq!(nodes, g.build_stats().nodes);
            assert_eq!(terms, g.build_stats().terms);
            assert!(terms > 0, "a first request adds terms");
            assert_eq!(grids, g.build_stats().grids);
            assert_eq!(bytes, g.build_stats().bytes);
            assert!(!cached, "a first request builds");
        }
        let slabs_built = |t: &vstrace::Trace| -> Vec<f64> {
            t.snapshot()
                .payloads()
                .into_iter()
                .filter_map(|e| match e {
                    vstrace::Event::Counter { name: "grid_slabs_built", value } => Some(value),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(slabs_built(&trace), [f64::from(g.build_stats().grids)]);
        // The same request again builds nothing and says so.
        let again = vstrace::Trace::new();
        let h = GridScorer::new_traced(&rec, &lig, opts, &again);
        assert!(h.build_stats().cached && h.build_stats().build_seconds == 0.0);
        assert!(slabs_built(&again).is_empty());
        assert!(again
            .snapshot()
            .payloads()
            .into_iter()
            .any(|e| matches!(e, vstrace::Event::GridBuilt { cached: true, .. })));
    }

    #[test]
    #[should_panic]
    fn zero_spacing_panics() {
        let rec = synth::synth_receptor("r", 50, 1);
        let lig = synth::synth_ligand("l", 5, 2);
        GridScorer::new(&rec, &lig, GridOptions { spacing: 0.0, ..Default::default() });
    }

    // -- interpolation lane paths --------------------------------------------

    /// The interpolation this module shipped before the lanes, and their
    /// reference: a chunk's atoms placed one at a time by
    /// [`RigidTransform::apply`] and their lattice cells set up in scalar
    /// `f64` — `f64::max` / `f64::min` for the clamp, `as usize` for the
    /// cell — and every lane's corners blended on their own by
    /// [`trilerp_lane`], in the wide blend's order.
    impl GridScorer {
        /// Ligand atom `i` in the ligand's own frame.
        fn local(&self, i: usize) -> Vec3 {
            Vec3::new(self.lig[0][i], self.lig[1][i], self.lig[2][i])
        }

        /// This scorer with its ligand's atoms moved to `at`, one place per
        /// atom, padded as [`GridScorer::new_in`] pads them.
        fn with_local(&self, at: &[Vec3]) -> GridScorer {
            assert_eq!(at.len(), self.ligand_atoms());
            let mut moved = self.clone();
            for (axis, col) in moved.lig.iter_mut().enumerate() {
                col.iter_mut().zip(at).for_each(|(c, p)| *c = p[axis]);
            }
            moved
        }

        fn prep_chunk_scalar(&self, pose: &RigidTransform, a0: usize) -> Chunk<'_> {
            let g = &self.field.geom;
            let clampf = |v: f64, hi: usize| -> f64 { v.max(0.0).min(hi as f64 - 1.000001) };
            let mut c = self.chunk_atoms(a0);
            for l in 0..F32x8::LANES.min(self.ligand_atoms() - a0) {
                let p = (pose.apply(self.local(a0 + l)) - g.origin) / g.spacing;
                let gx = clampf(p.x, g.dims[0]);
                let gy = clampf(p.y, g.dims[1]);
                let gz = clampf(p.z, g.dims[2]);
                let (x0, y0, z0) = (gx as usize, gy as usize, gz as usize);
                c.fx[l] = (gx - x0 as f64) as f32;
                c.fy[l] = (gy - y0 as f64) as f32;
                c.fz[l] = (gz - z0 as f64) as f32;
                c.base[l] = (z0 * g.dims[1] + y0) * g.dims[0] + x0;
            }
            c
        }

        /// The reference twin of [`GridScorer::score`].
        fn score_scalar(&self, pose: &RigidTransform) -> f64 {
            let f = &self.field;
            let (ox, oy, oz) = (1usize, f.geom.dims[0], f.geom.dims[0] * f.geom.dims[1]);
            let mut total = 0.0f64;
            for a0 in (0..self.ligand_atoms()).step_by(F32x8::LANES) {
                let c = self.prep_chunk_scalar(pose, a0);
                let mut lanes = [0f32; 8];
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let (fx, fy, fz) = (c.fx[l], c.fy[l], c.fz[l]);
                    let (wx0, wy0, wz0) = (1.0 - fx, 1.0 - fy, 1.0 - fz);
                    let w = [
                        (wx0 * wy0) * wz0,
                        (fx * wy0) * wz0,
                        (wx0 * fy) * wz0,
                        (fx * fy) * wz0,
                        (wx0 * wy0) * fz,
                        (fx * wy0) * fz,
                        (wx0 * fy) * fz,
                        (fx * fy) * fz,
                    ];
                    let mut contrib = trilerp_lane(c.lj[l], c.base[l], ox, oy, oz, &w);
                    if let Some(elec) = &f.elec {
                        contrib += c.q[l] * trilerp_lane(elec, c.base[l], ox, oy, oz, &w);
                    }
                    *lane = contrib * c.mask[l];
                }
                total += F32x8::from_array(lanes).horizontal_sum() as f64;
            }
            total
        }

        fn score_batch(&self, poses: &[RigidTransform]) -> Vec<f64> {
            poses.iter().map(|p| self.score(p)).collect()
        }
    }

    /// One lane's trilinear blend: [`trilerp_wide`]'s IEEE operations on
    /// that lane, in its order.
    fn trilerp_lane(f: &[f32], i: usize, ox: usize, oy: usize, oz: usize, w: &[f32; 8]) -> f32 {
        let mut v = f[i] * w[0];
        v += f[i + ox] * w[1];
        v += f[i + oy] * w[2];
        v += f[i + ox + oy] * w[3];
        v += f[i + oz] * w[4];
        v += f[i + ox + oz] * w[5];
        v += f[i + oy + oz] * w[6];
        v += f[i + ox + oy + oz] * w[7];
        v
    }

    /// A pose's score on the reference, on the portable lanes instantiated
    /// here (so that they run on every host) and on whatever lanes this
    /// host has: the same bits on all three. Returns it.
    fn assert_pose_paths_agree(grid: &GridScorer, pose: &RigidTransform, what: &str) -> f64 {
        let want = grid.score_scalar(pose);
        let portable = Interpolation { scorer: grid, pose }.call::<F64x4>();
        for (path, got) in [("portable", portable), ("detected", grid.score(pose))] {
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: {path} lanes: {got} != {want}");
        }
        want
    }

    #[test]
    fn interpolation_lane_paths_agree_on_ligands_of_every_length() {
        let rec = synth::synth_receptor("r", 200, 8);
        let cache = SlabCache::new(ROOMY);
        let base = GridOptions { spacing: 0.8, ..Default::default() };
        for (opts, _) in model_variants(base, &[]) {
            // 1–17 atoms: every partial last chunk, one and two full ones.
            for atoms in 1..=17 {
                let lig = synth::synth_ligand("l", atoms, 40 + atoms as u64);
                let grid = GridScorer::new_in(&cache, &rec, &lig, opts, &[], NO_CLOCK);
                let mut poses = surface_poses(6, atoms as u64);
                poses.push(RigidTransform::IDENTITY);
                poses.push(RigidTransform::from_translation(Vec3::new(-300.0, 12.0, 0.5)));
                for (k, pose) in poses.iter().enumerate() {
                    assert_pose_paths_agree(&grid, pose, &format!("{atoms} atoms, pose {k}"));
                }
            }
        }
    }

    /// Coordinates along an axis from `origin` at `spacing` whose fraction
    /// narrows to another `f32` when `(p − origin) / spacing` is taken as
    /// `(p − origin) · (1 / spacing)`: the ulps around `f32` ties, where a
    /// reciprocal would change the score.
    fn reciprocal_sensitive(origin: f64, spacing: f64) -> Vec<f64> {
        let frac = |g: f64| (g - g.trunc()) as f32;
        let mut found = Vec::new();
        for k in 0..64 {
            let t = 0.1f32 + 0.0125 * k as f32;
            // Halfway between two neighbouring `f32`s: exact in `f64`.
            let tie = (f64::from(t) + f64::from(t.next_up())) / 2.0;
            let mut p = origin + tie * spacing;
            for _ in 0..8 {
                p = p.next_down();
            }
            for _ in 0..16 {
                if frac((p - origin) / spacing) != frac((p - origin) * (1.0 / spacing)) {
                    found.push(p);
                }
                p = p.next_up();
            }
        }
        found
    }

    /// `p` with its coordinate along axis `a` replaced by `v`.
    fn with_axis(p: Vec3, a: usize, v: f64) -> Vec3 {
        let mut c = [p.x, p.y, p.z];
        c[a] = v;
        Vec3::new(c[0], c[1], c[2])
    }

    #[test]
    fn interpolation_lane_paths_agree_on_nodes_edges_faces_and_non_finite_atoms() {
        let rec = synth::synth_receptor("r", 60, 12);
        let lig = ligand_of(&[Element::C, Element::O], 13, 14);
        let opts = GridOptions { dielectric: Some(4.0), ..Default::default() };
        let scorer = GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &lig, opts, &[], NO_CLOCK);
        let mut rng = RngStream::from_seed(0x1e5);
        // Hand-made lattices, their node values seeded, positive and
        // negative: two with a zero origin and a power-of-two pitch, where
        // `(p − origin) / spacing` is exact, so that an atom can sit on a
        // node, on the upper clamp or one ulp either side of it; two
        // lattices one cell thick along z; one where a reciprocal of the
        // pitch would round some fractions to another `f32`.
        let lattices = [
            (Vec3::ZERO, 0.5, [6, 5, 2]),
            (Vec3::ZERO, 0.5, [9, 7, 4]),
            (Vec3::new(-3.25, 1.5, -0.75), 0.75, [2, 2, 2]),
            (Vec3::new(-3.25, 1.5, -0.75), 0.75, [7, 6, 5]),
            (Vec3::ZERO, 0.75, [5, 4, 3]),
        ];
        assert!(!reciprocal_sensitive(0.0, 0.75).is_empty(), "nowhere would a reciprocal show");
        // The atoms are put in place as the ligand's own coordinates, which
        // the identity rotation keeps when they are finite; the translation
        // then moves them by zero, by `−0.0`, or to ±∞ or NaN along one
        // axis. (A rotation, even the identity, takes an atom with an
        // infinite coordinate to NaN on every axis: `0 · ∞`.)
        let mut shifts = vec![Vec3::ZERO, Vec3::splat(-0.0)];
        for a in 0..3 {
            let bad = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            shifts.extend(bad.map(|v| with_axis(Vec3::ZERO, a, v)));
        }
        for (origin, spacing, dims) in lattices {
            let mut grid = scorer.clone();
            let geom = Geometry { origin, spacing, dims };
            let mut seeded = || -> Slab {
                (0..geom.nodes()).map(|_| rng.uniform_range(-8.0, 8.0) as f32).collect()
            };
            grid.field.lj = grid.field.lj.iter().map(|_| seeded()).collect();
            grid.field.elec = Some(seeded());
            grid.field.geom = geom;
            // Per axis, in lattice units (`origin + u · spacing`): nodes,
            // the two ends, the upper clamp and its neighbours, cell
            // interiors and beyond both faces; then raw coordinates.
            let axis = |a: usize| -> Vec<f64> {
                let top = dims[a] as f64 - 1.000001;
                let units = [0.0, 1.0, dims[a] as f64 - 1.0, top, top.next_up(), top.next_down()];
                let units = units.into_iter().chain([0.5, 0.25, -3.0, dims[a] as f64 + 2.0]);
                let raw = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
                let units = units.map(|u| origin[a] + u * spacing).chain(raw);
                units.chain(reciprocal_sensitive(origin[a], spacing)).collect()
            };
            let [vx, vy, vz] = [axis(0), axis(1), axis(2)];
            for k in 0..vx.len() {
                // Atom `i` of frame `k` takes a different value on each axis,
                // so every value meets every lane and every other axis.
                let pick = |v: &[f64], i: usize, stride: usize| v[(k + stride * i) % v.len()];
                let at: Vec<Vec3> = (0..lig.len())
                    .map(|i| Vec3::new(pick(&vx, i, 1), pick(&vy, i + 1, 3), pick(&vz, i + 2, 7)))
                    .collect();
                let mut finite = at.iter().filter(|p| p.is_finite());
                assert!(finite.all(|&p| RigidTransform::IDENTITY.apply(p) == p));
                let moved = grid.with_local(&at);
                for shift in &shifts {
                    let what =
                        format!("lattice {dims:?} at {origin:?}, frame {k}, shift {shift:?}");
                    assert_pose_paths_agree(
                        &moved,
                        &RigidTransform::from_translation(*shift),
                        &what,
                    );
                }
            }
        }
    }

    /// Poses whose rotation is no unit quaternion, or holds NaN, ±∞ or
    /// `−0.0` in one component; whose translation does; and both.
    fn odd_poses() -> Vec<RigidTransform> {
        let unit = Quat::from_axis_angle(Vec3::new(0.48, -0.6, 0.64), 0.9);
        let near = Vec3::new(14.5, -3.25, 6.0);
        let mut quats = vec![
            Quat::new(2.0, 0.0, 0.0, 0.0),
            Quat::new(0.3, -0.7, 1.9, 0.2),
            Quat::new(1e-3, 2e-3, 0.0, -1e-3),
            Quat::new(0.0, 0.0, 0.0, 0.0),
            Quat::new(-0.0, -0.0, -0.0, -0.0),
            Quat::new(1e200, 1e200, 0.0, 1.0),
        ];
        let mut shifts = Vec::new();
        for s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            for c in 0..4 {
                let mut q = [unit.w, unit.x, unit.y, unit.z];
                q[c] = s;
                quats.push(Quat::new(q[0], q[1], q[2], q[3]));
            }
            shifts.extend((0..3).map(|a| with_axis(near, a, s)));
        }
        let mut poses: Vec<RigidTransform> =
            quats.iter().map(|&q| RigidTransform::new(q, near)).collect();
        poses.extend(shifts.iter().map(|&t| RigidTransform::new(unit, t)));
        let both = quats.iter().zip(shifts.iter().cycle());
        poses.extend(both.map(|(&q, &t)| RigidTransform::new(q, t)));
        poses
    }

    #[test]
    fn interpolation_lane_paths_agree_on_unnormalised_and_non_finite_poses() {
        let rec = synth::synth_receptor("r", 150, 15);
        let cache = SlabCache::new(ROOMY);
        let opts = GridOptions {
            spacing: 0.7,
            dielectric: Some(4.0),
            hbond_epsilon: Some(1.0),
            ..Default::default()
        };
        for atoms in [1, 5, 8, 13] {
            let lig = synth::synth_ligand("l", atoms, 90 + atoms as u64);
            let grid = GridScorer::new_in(&cache, &rec, &lig, opts, &[], NO_CLOCK);
            for (k, pose) in odd_poses().iter().enumerate() {
                assert_pose_paths_agree(&grid, pose, &format!("{atoms} atoms, pose {k}: {pose:?}"));
            }
        }
    }

    #[test]
    fn interpolation_lane_paths_agree_on_two_hundred_random_poses() {
        let rec = synth::synth_receptor("r", 150, 15);
        let lig = synth::synth_ligand("l", 13, 16);
        let cache = SlabCache::new(ROOMY);
        let full = GridOptions {
            spacing: 0.7,
            dielectric: Some(4.0),
            hbond_epsilon: Some(1.0),
            ..Default::default()
        };
        // And a lattice one cell thick: a plane of atoms with no margin.
        let flat = flat_receptor();
        let thin = GridOptions { margin: 0.0, ..full };
        assert_eq!(Geometry::of(&flat, thin).dims[2], 2);
        let mut rng = RngStream::from_seed(0x200);
        for (what, rec, opts) in [("globular", &rec, full), ("flat", &flat, thin)] {
            let grid = GridScorer::new_in(&cache, rec, &lig, opts, &[], NO_CLOCK);
            for k in 0..200 {
                // Inside the lattice and out past every face.
                let t = Vec3::new(
                    rng.uniform_range(-30.0, 30.0),
                    rng.uniform_range(-30.0, 30.0),
                    rng.uniform_range(-30.0, 30.0),
                );
                let pose = RigidTransform::new(rng.rotation(), t);
                assert_pose_paths_agree(&grid, &pose, &format!("{what}: pose {k}"));
            }
        }
    }

    #[test]
    #[ignore = "run in release mode: scores both Table 5 complexes under three models on three lane paths and through Scorer::score_batch"]
    fn table5_receptors_interpolate_the_same_bits_on_every_lane_path() {
        use crate::scorer::{
            Exec, Kernel, PoseScratch, ScoreBatch, Scorer, ScorerOptions, ScoringModel,
        };
        let base = GridOptions::default();
        for dataset in [vsmol::Dataset::TwoBsm, vsmol::Dataset::TwoBxg] {
            let (rec, lig) = (dataset.receptor(), dataset.ligand());
            let geom = Geometry::of(&rec, base);
            let mut rng = RngStream::from_seed(0x7ab5);
            for (opts, _) in model_variants(base, &[]) {
                let grid =
                    GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &lig, opts, &[], NO_CLOCK);
                let poses: Vec<RigidTransform> = (0..256)
                    .map(|_| {
                        // Anywhere in the lattice's box and a little past it.
                        let [x, y, z] = [0, 1, 2].map(|a| {
                            let extent = (geom.dims[a] - 1) as f64 * geom.spacing;
                            geom.origin[a] + rng.uniform_range(-4.0, extent + 4.0)
                        });
                        RigidTransform::new(rng.rotation(), Vec3::new(x, y, z))
                    })
                    .collect();
                let what = |k: usize| format!("{dataset:?}, {opts:?}, pose {k}");
                let want: Vec<u64> = poses
                    .iter()
                    .enumerate()
                    .map(|(k, pose)| assert_pose_paths_agree(&grid, pose, &what(k)).to_bits())
                    .collect();
                // And the production entry: a `Kernel::Grid` scorer's batches.
                let model = match (opts.dielectric, opts.hbond_epsilon) {
                    (None, _) => ScoringModel::LennardJones,
                    (Some(dielectric), None) => ScoringModel::LennardJonesCoulomb { dielectric },
                    (Some(dielectric), Some(hbond_epsilon)) => {
                        ScoringModel::Full { dielectric, hbond_epsilon }
                    }
                };
                let kernel = Kernel::Grid { spacing: opts.spacing };
                let scorer = Scorer::new(&rec, &lig, ScorerOptions { model, kernel });
                for exec in [Exec::Serial, Exec::Pool(2)] {
                    let mut out = vec![0.0; poses.len()];
                    let batch = ScoreBatch::Poses { poses: &poses, out: &mut out };
                    scorer.score_batch(batch, &mut PoseScratch::new(), exec);
                    for (k, (got, want)) in out.iter().zip(&want).enumerate() {
                        assert_eq!(got.to_bits(), *want, "{}, {exec:?} batch", what(k));
                    }
                }
            }
        }
    }

    // -- build equivalence ---------------------------------------------------

    /// Build `channels` (in [`Channel`] order, which is the order of the
    /// slabs) over the whole lattice of one receptor, as a request that
    /// misses every one of them does.
    fn build_slabs(
        receptor: &Molecule,
        geom: Geometry,
        opts: GridOptions,
        channels: &[Channel],
    ) -> (Vec<Slab>, u64) {
        build_slabs_in(receptor, geom, opts, channels, RANGES_PER_THREAD * host_threads())
    }

    /// [`build_slabs`] cut into `ranges` ranges of z-planes ([`fill_region`]).
    fn build_slabs_in(
        receptor: &Molecule,
        geom: Geometry,
        opts: GridOptions,
        channels: &[Channel],
        ranges: usize,
    ) -> (Vec<Slab>, u64) {
        let zeros = channels.iter().map(|_| zero_slab(geom)).collect();
        fill_region(receptor, geom, opts, channels, &Region::whole(geom), zeros, ranges)
    }

    /// The same slabs by an independent, node-major route, and the build
    /// this module shipped before the atom-major one: every lattice node
    /// gathers the receptor atoms within the cutoff through the
    /// `SpatialGrid` whose cell order [`Scatter`] walks, and adds each
    /// one's term to every slab. About twice the time — most distance
    /// tests of a query's 27 cells miss.
    fn gather_slabs(
        receptor: &Molecule,
        geom: Geometry,
        opts: GridOptions,
        channels: &[Channel],
    ) -> Vec<Vec<f32>> {
        let table = PairTable::new(&LjTable::standard());
        let rec_grid = SpatialGrid::build(receptor.positions(), opts.cutoff);
        let rec_charge = receptor.charges();
        let hb_eps = opts.hbond_epsilon.unwrap_or(0.0);
        let mut slabs = vec![vec![0f32; geom.nodes()]; channels.len()];
        for iz in 0..geom.dims[2] {
            for iy in 0..geom.dims[1] {
                for ix in 0..geom.dims[0] {
                    let node = (iz * geom.dims[1] + iy) * geom.dims[0] + ix;
                    let p = geom.origin + Vec3::new(ix as f64, iy as f64, iz as f64) * geom.spacing;
                    rec_grid.for_each_within(p, opts.cutoff, |j, _, r_sq| {
                        let re = receptor.elements()[j].index() as u8;
                        for (c, slab) in channels.iter().zip(slabs.iter_mut()) {
                            slab[node] += match *c {
                                Channel::Lj(le) => {
                                    let (s2, e4) = table.lookup(le, re);
                                    let mut v = lj_pair(s2, e4, r_sq);
                                    if opts.hbond_epsilon.is_some()
                                        && is_hbond_capable_idx(le)
                                        && is_hbond_capable_idx(re)
                                    {
                                        v += hbond_pair(hb_eps, r_sq);
                                    }
                                    v as f32
                                }
                                Channel::Elec => {
                                    let eps = opts.dielectric.expect("Elec needs a dielectric");
                                    let r2 = r_sq.max(MIN_DIST_SQ);
                                    (COULOMB_K * rec_charge[j] / (eps * r2)) as f32
                                }
                            };
                        }
                    });
                }
            }
        }
        for (c, slab) in channels.iter().zip(slabs.iter_mut()) {
            if matches!(c, Channel::Lj(_)) {
                slab.iter_mut().for_each(|v| *v = v.min(MAX_NODE_POTENTIAL));
            }
        }
        slabs
    }

    fn lj_channels(elements: &[Element]) -> Vec<Channel> {
        let mut c: Vec<Channel> = elements.iter().map(|e| Channel::Lj(e.index() as u8)).collect();
        c.sort();
        c
    }

    /// LJ only; LJ + electrostatics; the full model with H-bond.
    fn model_variants(base: GridOptions, elements: &[Element]) -> Vec<(GridOptions, Vec<Channel>)> {
        let lj = lj_channels(elements);
        let with_elec: Vec<Channel> = lj.iter().copied().chain([Channel::Elec]).collect();
        vec![
            (base, lj),
            (GridOptions { dielectric: Some(4.0), ..base }, with_elec.clone()),
            (GridOptions { dielectric: Some(4.0), hbond_epsilon: Some(1.0), ..base }, with_elec),
        ]
    }

    fn assert_same_bits<A: AsRef<[f32]>, B: AsRef<[f32]>>(got: &[A], want: &[B], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: slab count");
        for (s, (g, w)) in got.iter().zip(want).enumerate() {
            let (g, w) = (g.as_ref(), w.as_ref());
            assert_eq!(g.len(), w.len(), "{what}: slab {s} length");
            if let Some(node) = (0..g.len()).find(|&i| g[i].to_bits() != w[i].to_bits()) {
                panic!("{what}: slab {s} node {node}: {} != {}", g[node], w[node]);
            }
        }
    }

    /// Range counts the build is forced through: one, a few, and more than
    /// a thin lattice has z-planes.
    const RANGES: [usize; 5] = [1, 2, 3, 7, 64];

    /// Every model variant of `base` over `receptor`: the build, as it
    /// cuts itself and cut into each of [`RANGES`], against the node-major
    /// gather.
    fn check_against_gather(receptor: &Molecule, base: GridOptions) {
        for (opts, channels) in model_variants(base, &[Element::C, Element::N, Element::O]) {
            let geom = Geometry::of(receptor, opts);
            let what = format!("{} atoms, {opts:?}", receptor.len());
            let want = gather_slabs(receptor, geom, opts, &channels);
            assert!(want.iter().any(|slab| slab.iter().any(|v| *v != 0.0)), "{what}: all zero");
            let (got, terms) = build_slabs(receptor, geom, opts, &channels);
            assert_same_bits(&got, &want, &what);
            for ranges in RANGES {
                let (got, cut) = build_slabs_in(receptor, geom, opts, &channels, ranges);
                assert_same_bits(&got, &want, &format!("{what}, {ranges} ranges"));
                assert_eq!(cut, terms, "{what}, {ranges} ranges: terms");
            }
        }
    }

    /// Forty atoms in the plane z = 0: the spatial grid has a single cell
    /// along z.
    fn flat_receptor() -> Molecule {
        let mut rng = RngStream::from_seed(57);
        let atoms = (0..40)
            .map(|i| {
                let p =
                    Vec3::new(rng.uniform_range(-15.0, 15.0), rng.uniform_range(-15.0, 15.0), 0.0);
                let e = [Element::C, Element::N, Element::O, Element::S][i % 4];
                vsmol::Atom::with_charge(p, e, rng.uniform_range(-0.5, 0.5))
            })
            .collect();
        Molecule::new("flat", atoms)
    }

    #[test]
    fn build_equals_atom_major_scatter_bit_for_bit() {
        let coarse = GridOptions { spacing: 1.5, ..Default::default() };
        for atoms in [1, 50, 300] {
            let rec = synth::synth_receptor("equiv", atoms, 31 + atoms as u64);
            check_against_gather(&rec, coarse);
        }
        // A 2 Å margin leaves the flat receptor's lattice four z-planes:
        // fewer than most of `RANGES`.
        let flat = flat_receptor();
        let thin = GridOptions { margin: 2.0, ..coarse };
        assert_eq!(Geometry::of(&flat, thin).dims[2], 4);
        check_against_gather(&flat, thin);
        check_against_gather(&flat, coarse);
    }

    #[test]
    fn a_slab_built_alone_equals_the_same_slab_built_in_a_set() {
        let rec = synth::synth_receptor("alone", 200, 91);
        let opts = GridOptions {
            spacing: 1.5,
            dielectric: Some(4.0),
            hbond_epsilon: Some(1.0),
            ..Default::default()
        };
        let geom = Geometry::of(&rec, opts);
        let mut set = lj_channels(&[Element::C, Element::N, Element::O, Element::S, Element::Cl]);
        set.push(Channel::Elec);
        let (together, terms) = build_slabs(&rec, geom, opts, &set);
        assert_same_bits(&together, &gather_slabs(&rec, geom, opts, &set), "the set");
        let mut terms_alone = 0;
        for (channel, slab) in set.iter().zip(&together) {
            let (alone, terms) = build_slabs(&rec, geom, opts, &[*channel]);
            assert_same_bits(&alone, std::slice::from_ref(slab), &format!("{channel:?}"));
            terms_alone += terms;
        }
        assert_eq!(terms, terms_alone, "a set adds up its slabs' terms");
    }

    #[test]
    fn degenerate_receptors_build_a_lattice_that_scores() {
        let lig = synth::synth_ligand("l", 9, 4);
        let poses = surface_poses(4, 13);
        let model = GridOptions { dielectric: Some(4.0), ..Default::default() };

        // No atoms: a field of zeros around the origin.
        let empty = Molecule::new("empty", Vec::new());
        let g = GridScorer::new_in(&SlabCache::new(ROOMY), &empty, &lig, model, &[], NO_CLOCK);
        assert!(Geometry::of(&empty, model).dims.iter().all(|&d| d >= 2));
        assert!(g.field.slabs().all(|slab| slab.iter().all(|v| v.to_bits() == 0)));
        for pose in &poses {
            assert_eq!(g.score(pose).to_bits(), 0f64.to_bits());
            assert_eq!(g.score_scalar(pose).to_bits(), 0f64.to_bits());
        }

        // No atoms and no margin, one atom and no margin: a box without
        // extent still gets a cell to interpolate in.
        let bare = GridOptions { margin: 0.0, ..model };
        let one = synth::synth_receptor("one", 1, 5);
        for rec in [&empty, &one] {
            assert_eq!(Geometry::of(rec, bare).dims, [2, 2, 2]);
            let g = GridScorer::new_in(&SlabCache::new(ROOMY), rec, &lig, bare, &[], NO_CLOCK);
            assert!(poses.iter().all(|p| g.score(p).is_finite()));
        }
        let at_the_atom = RigidTransform::from_translation(one.positions()[0]);
        let g = GridScorer::new_in(&SlabCache::new(ROOMY), &one, &lig, bare, &[], NO_CLOCK);
        assert!(g.score(&at_the_atom) > 0.0, "a ligand on top of the atom clashes");

        // One atom, default margin: scored before, and by the same lattice.
        let geom = Geometry::of(&one, model);
        assert_eq!(geom.dims, [23, 23, 23]);
        assert_eq!(geom.origin, one.positions()[0] - Vec3::splat(8.0));

        // A plane of atoms with a margin below the pitch: two z-planes, cut
        // into more ranges than that.
        let flat = flat_receptor();
        let thin = GridOptions { margin: 0.25, ..model };
        let geom = Geometry::of(&flat, thin);
        assert_eq!(geom.dims[2], 2);
        let channels = [Channel::Lj(Element::C.index() as u8), Channel::Elec];
        let want = gather_slabs(&flat, geom, thin, &channels);
        for ranges in RANGES {
            let (got, _) = build_slabs_in(&flat, geom, thin, &channels, ranges);
            assert_same_bits(&got, &want, &format!("thin plane, {ranges} ranges"));
        }
        let g = GridScorer::new_in(&SlabCache::new(ROOMY), &flat, &lig, thin, &[], NO_CLOCK);
        assert!(poses.iter().all(|p| g.score(p).is_finite()));
    }

    /// Both Table 5 receptors under the full model, as `dock --kernel grid`
    /// builds them.
    fn table5_builds() -> impl Iterator<Item = (String, Molecule, GridOptions, Vec<Channel>)> {
        [vsmol::Dataset::TwoBsm, vsmol::Dataset::TwoBxg].into_iter().map(|dataset| {
            let opts = GridOptions {
                dielectric: Some(4.0),
                hbond_epsilon: Some(1.0),
                ..Default::default()
            };
            let mut channels = lj_channels(&[Element::C, Element::N, Element::O, Element::S]);
            channels.push(Channel::Elec);
            (format!("{dataset:?}"), dataset.receptor(), opts, channels)
        })
    }

    #[test]
    #[ignore = "run in release mode: builds both Table 5 receptors twice"]
    fn table5_receptors_build_equals_scatter() {
        for (what, rec, opts, channels) in table5_builds() {
            let geom = Geometry::of(&rec, opts);
            let (got, _) = build_slabs(&rec, geom, opts, &channels);
            assert_same_bits(&got, &gather_slabs(&rec, geom, opts, &channels), &what);
        }
    }

    #[test]
    #[ignore = "run in release mode: builds both Table 5 receptors five times"]
    fn table5_receptors_build_the_same_bits_on_any_worker_count() {
        for (what, rec, opts, channels) in table5_builds() {
            let geom = Geometry::of(&rec, opts);
            let (want, terms) = build_slabs_in(&rec, geom, opts, &channels, 1);
            for ranges in &RANGES[1..] {
                let (got, cut) = build_slabs_in(&rec, geom, opts, &channels, *ranges);
                assert_same_bits(&got, &want, &format!("{what}, {ranges} ranges"));
                assert_eq!(cut, terms, "{what}, {ranges} ranges: terms");
            }
        }
    }

    // -- lane paths ----------------------------------------------------------

    /// One way of adding a build's atoms into a range's planes.
    type Fill = fn(&Scatter, &mut Planes<'_>);

    /// The fill this module shipped before the lanes, and their reference:
    /// a row's nodes one at a time through the scalar pair functions, a node
    /// outside the cutoff skipped, every slab with divisions of its own.
    fn fill_node_by_node(scatter: &Scatter, part: &mut Planes<'_>) {
        let [nx, ny, nz] = &scatter.axes;
        let dims = scatter.geom.dims;
        let r2 = scatter.cutoff * scatter.cutoff;
        let (lj, elec) = part.slabs.split_at_mut(scatter.pair_params[0].len());
        let mut terms = 0;
        for &ScatterAtom { p, elem, kq } in &scatter.atoms {
            let params = &scatter.pair_params[elem as usize];
            let zs = scatter.geom.span(2, p.z - scatter.cutoff, p.z + scatter.cutoff);
            let zs = zs.start.max(part.z.start)..zs.end.min(part.z.end);
            let ys = scatter.geom.span(1, p.y - scatter.cutoff, p.y + scatter.cutoff);
            for iz in zs {
                let dz = p.z - nz[iz];
                let dz2 = dz * dz;
                for iy in ys.clone() {
                    let dy = p.y - ny[iy];
                    let dy2 = dy * dy;
                    let room = r2 - (dy2 + dz2);
                    if room < 0.0 {
                        continue;
                    }
                    let half = room.sqrt();
                    let row = ((iz - part.z.start) * dims[1] + iy) * dims[0];
                    for ix in scatter.geom.span(0, p.x - half, p.x + half) {
                        let dx = p.x - nx[ix];
                        let d2 = dx * dx + dy2 + dz2;
                        if d2 > r2 {
                            continue;
                        }
                        for (slab, &(s2, e4, hb)) in lj.iter_mut().zip(params) {
                            let mut v = lj_pair(s2, e4, d2);
                            if hb {
                                v += hbond_pair(scatter.hb_eps, d2);
                            }
                            slab[row + ix] += v as f32;
                            terms += 1;
                        }
                        if let Some(slab) = elec.first_mut() {
                            let r2 = d2.max(MIN_DIST_SQ);
                            slab[row + ix] += (kq / (scatter.dielectric * r2)) as f32;
                            terms += 1;
                        }
                    }
                }
            }
        }
        part.terms = terms;
        for slab in lj {
            slab.iter_mut().for_each(|v| *v = v.min(MAX_NODE_POTENTIAL));
        }
    }

    /// The reference first; then the portable lanes, instantiated here so
    /// that they run on every host, and whatever lanes this host has.
    const LANE_PATHS: [(&str, Fill); 3] = [
        ("node by node", fill_node_by_node),
        ("portable lanes", |scatter, part| scatter.fill_in::<F64x4>(part)),
        ("detected lanes", |scatter, part| scatter.fill(part)),
    ];

    /// `fill` over the whole lattice of `scatter`, into `slabs` slabs whose
    /// every cell starts out as `seed`; the slabs and the terms counted.
    fn filled(scatter: &Scatter, slabs: usize, seed: f32, fill: Fill) -> (Vec<Vec<f32>>, u64) {
        let mut slabs = vec![vec![seed; scatter.geom.nodes()]; slabs];
        let mut part = Planes {
            z: 0..scatter.geom.dims[2],
            slabs: slabs.iter_mut().map(Vec::as_mut_slice).collect(),
            terms: 0,
        };
        fill(scatter, &mut part);
        let terms = part.terms;
        (slabs, terms)
    }

    /// Every lane path over `scatter` ends with the reference's bits in
    /// every cell and counts the reference's terms; returns those.
    fn assert_lane_paths_agree(
        scatter: &Scatter,
        slabs: usize,
        seed: f32,
        what: &str,
    ) -> (Vec<Vec<f32>>, u64) {
        let [(_, reference), lanes @ ..] = LANE_PATHS;
        let want = filled(scatter, slabs, seed, reference);
        for (path, fill) in lanes {
            let (got, terms) = filled(scatter, slabs, seed, fill);
            assert_same_bits(&got, &want.0, &format!("{what}: {path}"));
            assert_eq!(terms, want.1, "{what}: {path}: terms");
        }
        want
    }

    #[test]
    fn lane_paths_build_the_same_bits_on_rows_of_every_length() {
        use Element::{C, N, O, S};
        let mut rng = RngStream::from_seed(0x10e5);
        for len in (0..=9).chain([11, 12, 13, 15, 16, 17, 31, 32, 33]) {
            // A lattice `len` nodes long, and atoms around it and past both
            // its ends: x-spans clipped by either edge, by both, by neither.
            let geom = Geometry { origin: Vec3::ZERO, spacing: 1.0, dims: [len, 3, 2] };
            let atoms = (0..12)
                .map(|i| {
                    let p = Vec3::new(
                        rng.uniform_range(-3.0, len as f64 + 2.0),
                        rng.uniform_range(-1.0, 3.0),
                        rng.uniform_range(-1.0, 2.0),
                    );
                    vsmol::Atom::with_charge(p, [C, N, O, S][i % 4], rng.uniform_range(-0.5, 0.5))
                })
                .collect();
            let rec = Molecule::new("row", atoms);
            for cutoff in [2.5, 40.0] {
                let base = GridOptions { spacing: 1.0, cutoff, ..Default::default() };
                for (opts, channels) in model_variants(base, &[C, N, O]) {
                    let whole = Region::whole(geom);
                    let scatter = Scatter::new(&rec, geom, opts, &channels, &whole);
                    let what = format!("len {len}, {opts:?}");
                    let (_, terms) = assert_lane_paths_agree(&scatter, channels.len(), 0.0, &what);
                    if cutoff == 40.0 {
                        // Every node takes every atom: rows of exactly `len`.
                        assert_eq!(terms, (12 * geom.nodes() * channels.len()) as u64, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_paths_agree_inside_the_clamp_on_the_cutoff_edge_and_in_skipped_cells() {
        let (c, o) = (Element::C.index() as u8, Element::O.index() as u8);
        // Nodes at x = 0, 1, … 10; row 0 of plane 0 is the line y = z = 0.
        let geom = Geometry { origin: Vec3::ZERO, spacing: 1.0, dims: [11, 2, 2] };
        let opts = GridOptions {
            spacing: 1.0,
            cutoff: 3.0,
            dielectric: Some(4.0),
            hbond_epsilon: Some(1.0),
            ..Default::default()
        };
        let channels = [Channel::Lj(c), Channel::Lj(o), Channel::Elec];
        let kq = COULOMB_K * 0.5;
        let untouched = (-0.0f32).to_bits();
        let whole = Region::whole(geom);
        let build = |x: f64| {
            let atom = vsmol::Atom::with_charge(Vec3::new(x, 0.0, 0.0), Element::O, 0.5);
            let one = Molecule::new("one", vec![atom]);
            let scatter = Scatter::new(&one, geom, opts, &channels, &whole);
            // Every cell starts as -0.0: a lane that adds a zero where it
            // should skip shows as +0.0.
            assert_lane_paths_agree(&scatter, channels.len(), -0.0, &format!("atom at {x}"))
        };

        // On node 5: d² = 0 there, raised to the clamp; nodes 2 and 8 sit at
        // d² = cutoff² exactly and are kept, 1 and 9 are out.
        let (slabs, terms) = build(5.0);
        let [_, lj_o, elec] = &slabs[..] else { panic!("three slabs") };
        assert_eq!(lj_o[5], MAX_NODE_POTENTIAL);
        assert_eq!(elec[5].to_bits(), ((kq / (4.0 * MIN_DIST_SQ)) as f32).to_bits());
        for node in [2, 8] {
            assert_eq!(elec[node].to_bits(), ((kq / (4.0 * 9.0)) as f32).to_bits(), "node {node}");
            assert_ne!(lj_o[node].to_bits(), untouched, "node {node}");
        }
        for slab in &slabs {
            for node in [0, 1, 9, 10] {
                assert_eq!(slab[node].to_bits(), untouched, "node {node}");
            }
        }
        // The terms, counted the plain way.
        let within = (0..geom.nodes())
            .filter(|node| {
                let (ix, iy, iz) = (node % 11, node / 11 % 2, node / 22);
                let at = Vec3::new(ix as f64, iy as f64, iz as f64);
                at.dist_sq(Vec3::new(5.0, 0.0, 0.0)) <= 9.0
            })
            .count();
        assert_eq!(terms, 3 * within as u64);

        // One ulp further from node 0 than the cutoff: node 0 is skipped,
        // in a step whose other lanes are not; node 6, one ulp nearer, not.
        let (slabs, _) = build(3.0f64.next_up());
        for slab in &slabs {
            assert_eq!(slab[0].to_bits(), untouched);
            assert_ne!(slab[1].to_bits(), untouched);
            assert_ne!(slab[6].to_bits(), untouched);
            assert_eq!(slab[7].to_bits(), untouched);
        }
    }

    #[test]
    fn lane_paths_agree_on_non_finite_atoms() {
        let rec = synth::synth_receptor("non-finite", 30, 17);
        let opts = GridOptions {
            spacing: 1.5,
            dielectric: Some(4.0),
            hbond_epsilon: Some(1.0),
            ..Default::default()
        };
        let geom = Geometry::of(&rec, opts);
        let mut channels = lj_channels(&[Element::C, Element::N, Element::O]);
        channels.push(Channel::Elec);
        let n = channels.len();
        // `SpatialGrid` refuses a non-finite point, so no receptor gets this
        // far with one: the atoms are spoiled after the layout.
        let whole = Region::whole(geom);
        let scatter = || Scatter::new(&rec, geom, opts, &channels, &whole);
        let (clean, _) = filled(&scatter(), n, 0.0, fill_node_by_node);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for k in [0, 7, 29] {
                // An atom that is nowhere reaches no node, on any path: the
                // build without it.
                let mut without = scatter();
                without.atoms.remove(k);
                let (want, want_terms) = filled(&without, n, 0.0, fill_node_by_node);
                for axis in 0..3 {
                    let mut spoiled = scatter();
                    let p = &mut spoiled.atoms[k].p;
                    *[&mut p.x, &mut p.y, &mut p.z][axis] = bad;
                    let what = format!("atom {k}, axis {axis} at {bad}");
                    let (got, terms) = assert_lane_paths_agree(&spoiled, n, 0.0, &what);
                    assert_same_bits(&got, &want, &what);
                    assert_eq!(terms, want_terms, "{what}");
                }
                // A non-finite charge spoils the electrostatic cells of the
                // atom's sphere, the same ones on every path, and no other.
                let mut spoiled = scatter();
                spoiled.atoms[k].kq = bad;
                let what = format!("atom {k}, charge {bad}");
                let (got, _) = assert_lane_paths_agree(&spoiled, n, 0.0, &what);
                assert_same_bits(&got[..n - 1], &clean[..n - 1], &what);
                assert!(got[n - 1].iter().any(|v| !v.is_finite()), "{what}");
            }
        }
    }

    #[test]
    fn lane_paths_agree_on_two_hundred_random_receptors() {
        use Element::{C, N, O, S};
        let mut rng = RngStream::from_seed(0x6a1d);
        for case in 0..200 {
            let rec = synth::synth_receptor("sweep", 1 + rng.index(24), rng.next_u64());
            let base = GridOptions {
                spacing: rng.uniform_range(0.7, 2.0),
                margin: rng.uniform_range(0.5, 6.0),
                cutoff: rng.uniform_range(2.0, 7.0),
                ..Default::default()
            };
            let (opts, channels) = model_variants(base, &[C, N, O, S]).swap_remove(case % 3);
            let geom = Geometry::of(&rec, opts);
            let whole = Region::whole(geom);
            let scatter = Scatter::new(&rec, geom, opts, &channels, &whole);
            let what = format!("case {case}: {} atoms, {opts:?}", rec.len());
            let (want, terms) = assert_lane_paths_agree(&scatter, channels.len(), 0.0, &what);
            // The build proper, cut in three, is the same slabs and terms.
            let (built, cut) = build_slabs_in(&rec, geom, opts, &channels, 3);
            assert_same_bits(&built, &want, &what);
            assert_eq!(cut, terms, "{what}");
        }
    }

    #[test]
    #[ignore = "run in release mode: fills both Table 5 receptors on three lane paths"]
    fn table5_receptors_build_the_same_bits_on_every_lane_path() {
        for (what, rec, opts, channels) in table5_builds() {
            let geom = Geometry::of(&rec, opts);
            let whole = Region::whole(geom);
            let scatter = Scatter::new(&rec, geom, opts, &channels, &whole);
            let (want, terms) = assert_lane_paths_agree(&scatter, channels.len(), 0.0, &what);
            let (built, pooled) = build_slabs(&rec, geom, opts, &channels);
            assert_same_bits(&built, &want, &format!("{what}, as built"));
            assert_eq!(pooled, terms, "{what}, as built: terms");
        }
    }

    // -- cache behaviour -----------------------------------------------------

    /// A ligand with exactly these elements, one atom each, then carbons.
    fn ligand_of(elements: &[Element], atoms: usize, seed: u64) -> Molecule {
        let shape = synth::synth_ligand("l", atoms.max(elements.len()), seed);
        let recolored = shape
            .atoms()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let e = elements.get(i).copied().unwrap_or(elements[0]);
                vsmol::Atom::with_charge(a.position, e, a.charge)
            })
            .collect();
        Molecule::new("l", recolored)
    }

    fn score_bits(g: &GridScorer, seed: u64) -> Vec<u64> {
        surface_poses(8, seed).iter().map(|p| g.score(p).to_bits()).collect()
    }

    const NO_CLOCK: &dyn Fn() -> f64 = &|| 0.0;
    const ROOMY: u64 = 1 << 30;

    #[test]
    fn each_element_is_built_once_however_ligands_combine_them() {
        use Element::{C, N, O};
        let rec = synth::synth_receptor("r", 150, 61);
        let opts = GridOptions { spacing: 1.2, ..Default::default() };
        let cache = SlabCache::new(ROOMY);
        let sets: [&[Element]; 4] = [&[C], &[C, N], &[C, N, O], &[C, N, O]];
        let mut scorers = Vec::new();
        for (i, set) in sets.iter().enumerate() {
            let lig = ligand_of(set, 9, 70 + i as u64);
            let g = GridScorer::new_in(&cache, &rec, &lig, opts, &[], NO_CLOCK);
            assert_eq!(g.build_stats().cached, i == 3, "request {i}");
            assert_eq!(g.build_stats().terms == 0, i == 3, "a cached request adds nothing");
            assert_eq!(g.build_stats().grids as usize, set.len());
            // The same ligand over a cache of its own: all its slabs built
            // together, none adopted.
            let fresh = GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &lig, opts, &[], NO_CLOCK);
            assert!(!fresh.build_stats().cached);
            assert_eq!(score_bits(&g, 5), score_bits(&fresh, 5), "request {i}");
            scorers.push(g);
            // One slab's terms for every slab built, alone or in a set.
            let per_slab = scorers[0].build_stats().terms;
            assert_eq!(fresh.build_stats().terms, set.len() as u64 * per_slab, "request {i}");
        }
        let st = cache.stats();
        assert_eq!((st.channels_built, st.entries, st.misses, st.hits), (3, 3, 3, 1));
        assert_eq!(st.bytes, 3 * scorers[0].build_stats().bytes);
        assert!(scorers[3].shares_slabs_with(&scorers[2]));
        assert!(Arc::ptr_eq(&scorers[0].field.lj[0], &scorers[3].field.lj[0]), "one carbon slab");
    }

    #[test]
    fn different_build_options_share_nothing() {
        let rec = synth::synth_receptor("r", 120, 62);
        let lig = ligand_of(&[Element::C, Element::N], 8, 63);
        let base = GridOptions { spacing: 1.3, ..Default::default() };
        let cache = SlabCache::new(ROOMY);
        let variants = [
            base,
            GridOptions { spacing: 1.4, ..base },
            GridOptions { dielectric: Some(4.0), ..base },
            GridOptions { hbond_epsilon: Some(1.0), ..base },
            GridOptions { hbond_epsilon: Some(2.0), ..base },
        ];
        let scorers: Vec<GridScorer> = variants
            .iter()
            .map(|&o| GridScorer::new_in(&cache, &rec, &lig, o, &[], NO_CLOCK))
            .collect();
        for (i, a) in scorers.iter().enumerate() {
            assert!(!a.build_stats().cached, "variant {i}");
            for b in &scorers[i + 1..] {
                let shared = a.field.slabs().any(|s| b.field.slabs().any(|t| Arc::ptr_eq(s, t)));
                assert!(!shared, "variant {i} shares a slab with a later one");
            }
        }
        // 2 LJ slabs each, plus the electrostatic one of the third.
        assert_eq!(cache.stats().channels_built, 11);
        assert_eq!(cache.stats().entries, 11);
    }

    #[test]
    fn two_threads_on_one_cold_key_end_up_sharing_one_arc() {
        let rec = synth::synth_receptor("r", 150, 64);
        let lig = ligand_of(&[Element::C, Element::O], 8, 65);
        let opts = GridOptions { spacing: 1.2, dielectric: Some(4.0), ..Default::default() };
        let cache = SlabCache::new(ROOMY);
        let gate = std::sync::Barrier::new(2);
        let request = || {
            gate.wait();
            GridScorer::new_in(&cache, &rec, &lig, opts, &[], NO_CLOCK)
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(request);
            (request(), other.join().expect("requesting thread panicked"))
        });
        assert!(a.shares_slabs_with(&b), "the later publisher adopts the earlier one's slabs");
        assert_eq!(score_bits(&a, 6), score_bits(&b, 6));
        let st = cache.stats();
        assert_eq!((st.entries, st.bytes), (3, a.build_stats().bytes), "one copy resident");
        assert!((3..=6).contains(&st.channels_built), "{st:?}");
        assert_eq!(st.hits + st.misses, 2);
    }

    #[test]
    fn over_budget_evicts_the_least_recently_used_receptor() {
        let lig = ligand_of(&[Element::C, Element::N], 8, 66);
        let opts = GridOptions { spacing: 1.5, ..Default::default() };
        let recs: Vec<Molecule> =
            (0..3).map(|i| synth::synth_receptor("r", 100 + 10 * i, 67 + i as u64)).collect();
        let field_bytes = |r: &Molecule| 2 * 4 * Geometry::of(r, opts).nodes() as u64;
        // Room for any two of the three receptors, not for all of them.
        let cache = SlabCache::new(field_bytes(&recs[2]) * 2);
        let request = |r: &Molecule| GridScorer::new_in(&cache, r, &lig, opts, &[], NO_CLOCK);

        let a = request(&recs[0]);
        let before = score_bits(&a, 7);
        let _b = request(&recs[1]);
        assert!(request(&recs[0]).build_stats().cached, "A is resident and now the fresher one");
        let _c = request(&recs[2]);
        let st = cache.stats();
        assert_eq!((st.evictions, st.entries), (2, 4), "B's two slabs go");
        assert_eq!(st.bytes, field_bytes(&recs[0]) + field_bytes(&recs[2]));
        assert!(request(&recs[0]).build_stats().cached, "A survived");
        assert!(!request(&recs[1]).build_stats().cached, "B was evicted");

        // That rebuild of B pushed out C, then a rebuild of C pushes out A:
        // the scorer over A's evicted slabs still holds and scores them.
        let _ = request(&recs[2]);
        assert!(!request(&recs[0]).shares_slabs_with(&a), "A was rebuilt meanwhile");
        assert_eq!(score_bits(&a, 7), before);
    }

    #[test]
    fn a_field_larger_than_the_budget_is_still_served() {
        let rec = synth::synth_receptor("r", 80, 68);
        let lig = ligand_of(&[Element::C], 6, 69);
        let cache = SlabCache::new(16);
        let opts = GridOptions { spacing: 1.5, ..Default::default() };
        let g = GridScorer::new_in(&cache, &rec, &lig, opts, &[], NO_CLOCK);
        assert!(g.score(&surface_poses(1, 3)[0]).is_finite());
        assert_eq!(cache.stats().entries, 1, "nothing else to evict: the requester's slabs stay");
    }

    #[test]
    fn footprint_counts_only_the_scorers_own_slabs() {
        use Element::{C, N, O};
        let rec = synth::synth_receptor("r", 120, 71);
        let opts = GridOptions { spacing: 1.3, dielectric: Some(4.0), ..Default::default() };
        let cache = SlabCache::new(ROOMY);
        let wide =
            GridScorer::new_in(&cache, &rec, &ligand_of(&[C, N, O], 9, 72), opts, &[], NO_CLOCK);
        let narrow = GridScorer::new_in(&cache, &rec, &ligand_of(&[C], 9, 73), opts, &[], NO_CLOCK);
        let slab = 4 * Geometry::of(&rec, opts).nodes();
        assert_eq!(wide.footprint_bytes(), 4 * slab, "C, N, O and electrostatics");
        assert_eq!(narrow.footprint_bytes(), 2 * slab, "C and electrostatics");
        let s = narrow.build_stats();
        assert_eq!((s.grids, s.bytes, s.cached), (2, 2 * slab as u64, true));
        assert_eq!(cache.stats().bytes, 4 * slab as u64);
    }

    #[test]
    fn clearing_the_cache_forces_a_rebuild_and_keeps_counters() {
        let rec = synth::synth_receptor("r", 90, 74);
        let lig = ligand_of(&[Element::C], 6, 75);
        let opts = GridOptions { spacing: 1.5, ..Default::default() };
        let cache = SlabCache::new(ROOMY);
        let a = GridScorer::new_in(&cache, &rec, &lig, opts, &[], NO_CLOCK);
        cache.clear();
        assert_eq!((cache.stats().entries, cache.stats().bytes), (0, 0));
        let b = GridScorer::new_in(&cache, &rec, &lig, opts, &[], NO_CLOCK);
        assert!(!b.build_stats().cached && !b.shares_slabs_with(&a));
        assert_eq!(score_bits(&a, 8), score_bits(&b, 8));
        assert_eq!((cache.stats().channels_built, cache.stats().misses), (2, 2));
    }

    // -- reach ---------------------------------------------------------------

    /// Spots on `rec` as `VirtualScreen` detects them, `max` of them (0: all).
    fn spots_on(rec: &Molecule, max: usize) -> Vec<Spot> {
        let opts = vsmol::SurfaceOptions { max_spots: max, ..Default::default() };
        vsmol::surface::detect_spots(rec, &opts)
    }

    /// The rotation taking the direction of `from` onto `to`.
    fn turning(from: Vec3, to: Vec3) -> Quat {
        let (Some(a), Some(b)) = (from.normalized(), to.normalized()) else {
            return Quat::IDENTITY;
        };
        let axis = a.cross(b);
        let angle = a.dot(b).clamp(-1.0, 1.0).acos();
        match axis.normalized() {
            Some(_) => Quat::from_axis_angle(axis, angle),
            // Parallel: nothing to turn; opposite: half a turn about any
            // axis normal to `a`.
            None if angle < 1.0 => Quat::IDENTITY,
            None => {
                let normal = if a.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
                Quat::from_axis_angle(a.cross(normal), std::f64::consts::PI)
            }
        }
    }

    /// Poses on the rim of every spot, as the engine leaves them
    /// (`clamped_to`): the translation exactly `spot.radius` from the
    /// centre along each axis, the spot normal and `random` seeded
    /// directions, the ligand's farthest atom turned outward along it — and
    /// as many with a seeded rotation.
    fn rim_poses(ligand: &Molecule, spots: &[Spot], random: usize) -> Vec<RigidTransform> {
        let lig = ligand.centered();
        let far = lig.positions().iter().copied().fold(Vec3::ZERO, |f, p| {
            if p.norm() > f.norm() {
                p
            } else {
                f
            }
        });
        let mut rng = RngStream::from_seed(0x5107);
        let mut poses = Vec::new();
        for spot in spots {
            let mut dirs = vec![Vec3::X, -Vec3::X, Vec3::Y, -Vec3::Y, Vec3::Z, -Vec3::Z];
            dirs.extend([spot.normal, -spot.normal]);
            dirs.extend((0..random).map(|_| rng.unit_vector()));
            for u in dirs {
                let t = spot.center + u * spot.radius;
                for rotation in [turning(far, u), rng.rotation()] {
                    let conf = vsmol::Conformation::new(RigidTransform::new(rotation, t), spot.id);
                    poses.push(conf.clamped_to(spot).pose);
                }
            }
        }
        poses
    }

    /// `reach` scores every pose with the bits of `whole`, a scorer over
    /// the whole lattice, and reads only nodes its slabs hold, which are
    /// not all of them.
    fn assert_reach_scores_like_whole(
        reach: &GridScorer,
        whole: impl Fn(&RigidTransform) -> f64,
        poses: &[RigidTransform],
        what: &str,
    ) {
        assert!(matches!(reach.field.cover, Cover::Part(_)), "{what}: a whole lattice was built");
        for (k, pose) in poses.iter().enumerate() {
            assert!(reach.reads_only_built(pose), "{what}, pose {k}: read an unbuilt node");
            let (got, want) = (reach.score(pose), whole(pose));
            assert_eq!(got.to_bits(), want.to_bits(), "{what}, pose {k}: {got} != {want}");
        }
    }

    impl GridScorer {
        /// Whether scoring `pose` reads only nodes this scorer's slabs
        /// hold: the debug assertion of `interpolate`, in any build.
        fn reads_only_built(&self, pose: &RigidTransform) -> bool {
            (0..self.ligand_atoms())
                .step_by(F32x8::LANES)
                .all(|a0| self.reads_built(&self.prep_chunk_scalar(pose, a0)))
        }
    }

    #[test]
    fn reach_scores_rim_poses_like_the_whole_lattice() {
        let rec = synth::synth_receptor("reach", 300, 0x5E0C);
        for (opts, _) in model_variants(GridOptions::default(), &[]) {
            for (atoms, spots) in [(13, 8), (1, 3), (9, 0)] {
                let lig = synth::synth_ligand("l", atoms, 80 + atoms as u64);
                let spots = spots_on(&rec, spots);
                let reach =
                    GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &lig, opts, &spots, NO_CLOCK);
                let whole =
                    GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &lig, opts, &[], NO_CLOCK);
                assert!(matches!(whole.field.cover, Cover::Whole));
                let what = format!("{atoms} atoms, {} spots, {opts:?}", spots.len());
                let poses = rim_poses(&lig, &spots, 4);
                assert_reach_scores_like_whole(&reach, |p| whole.score(p), &poses, &what);
            }
        }
    }

    #[test]
    fn a_partial_build_holds_the_whole_bits_in_its_region_and_zero_elsewhere() {
        let rec = synth::synth_receptor("partial", 200, 95);
        let lig = synth::synth_ligand("l", 11, 96);
        let base = GridOptions { spacing: 1.1, ..Default::default() };
        let r_lig = lig.centered().positions().iter().map(|p| p.norm()).fold(0.0, f64::max);
        let spots = spots_on(&rec, 5);
        for (opts, channels) in model_variants(base, &[Element::C, Element::N, Element::O]) {
            let geom = Geometry::of(&rec, opts);
            let what = format!("{opts:?}");
            let region = Reach { spots: &spots, r_lig }.region(geom).expect("a part");
            let rest = region.complement(geom);
            assert_eq!(region.nodes + rest.nodes, geom.nodes() as u64, "{what}");
            assert_eq!(rest.complement(geom), region, "{what}");
            let (want, whole_terms) = build_slabs(&rec, geom, opts, &channels);
            for ranges in RANGES {
                let zeros = channels.iter().map(|_| zero_slab(geom)).collect();
                let (part, terms) =
                    fill_region(&rec, geom, opts, &channels, &region, zeros, ranges);
                for (slab, whole) in part.iter().zip(&want) {
                    for node in 0..geom.nodes() {
                        let expect = if region.contains(&geom, node) { whole[node] } else { 0.0 };
                        assert_eq!(slab[node].to_bits(), expect.to_bits(), "{what}: node {node}");
                    }
                }
                let copies = part.iter().map(|s| Slab::from(&s[..])).collect();
                let (done, rest_terms) =
                    fill_region(&rec, geom, opts, &channels, &rest, copies, ranges);
                assert_same_bits(&done, &want, &format!("{what}, completed, {ranges} ranges"));
                assert!(terms < whole_terms, "{what}");
                assert_eq!(terms + rest_terms, whole_terms, "{what}, {ranges} ranges: terms");
            }
        }
    }

    #[test]
    fn a_cold_request_builds_its_reach_and_later_ones_get_whole_slabs() {
        use Element::{C, N};
        let rec = synth::synth_receptor("sequence", 250, 97);
        let opts = GridOptions { spacing: 1.0, ..Default::default() };
        let geom = Geometry::of(&rec, opts);
        let spots = spots_on(&rec, 4);
        let cache = SlabCache::new(ROOMY);
        let slab = 4 * geom.nodes() as u64;
        let whole = |e: Element| build_slabs(&rec, geom, opts, &lj_channels(&[e]));
        let (whole_c, terms_c) = whole(C);
        let stats = |misses, built, entries| {
            let st = cache.stats();
            assert_eq!((st.misses, st.hits, st.channels_built), (misses, 0, built), "{st:?}");
            assert_eq!((st.entries, st.bytes), (entries, entries as u64 * slab), "{st:?}");
        };

        // A small carbon ligand, cold: a part of the carbon slab.
        let small = ligand_of(&[C], 4, 98);
        let a = GridScorer::new_in(&cache, &rec, &small, opts, &spots, NO_CLOCK);
        let s = a.build_stats();
        assert!(matches!(a.field.cover, Cover::Part(_)));
        assert!(s.built == 1 && s.terms > 0 && s.terms < terms_c, "{s:?}");
        stats(1, 1, 1);

        // A larger one: not cold, so it completes the slab, into a copy
        // that replaces the part and equals a cold whole build.
        let large = ligand_of(&[C], 24, 99);
        let b = GridScorer::new_in(&cache, &rec, &large, opts, &spots, NO_CLOCK);
        assert!(matches!(b.field.cover, Cover::Whole));
        assert_same_bits(&b.field.lj, &whole_c, "completed carbon slab");
        assert_eq!(b.build_stats().built, 1);
        assert_eq!(s.terms + b.build_stats().terms, terms_c, "the part and the rest add up");
        assert!(!Arc::ptr_eq(&a.field.lj[0], &b.field.lj[0]), "the part was copied");
        stats(2, 2, 1);
        // The first scorer keeps its part and still scores its poses.
        let whole_scorer =
            GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &small, opts, &[], NO_CLOCK);
        let poses = rim_poses(&small, &spots, 2);
        assert_reach_scores_like_whole(&a, |p| whole_scorer.score(p), &poses, "part");

        // Carbon and nitrogen: the whole carbon slab, and nitrogen built
        // whole.
        let both = ligand_of(&[C, N], 9, 100);
        let c = GridScorer::new_in(&cache, &rec, &both, opts, &spots, NO_CLOCK);
        assert!(matches!(c.field.cover, Cover::Whole));
        assert!(Arc::ptr_eq(&c.field.lj[0], &b.field.lj[0]), "carbon from the cache");
        let (whole_n, terms_n) = whole(N);
        assert_same_bits(&c.field.lj[1..], &whole_n, "nitrogen slab");
        assert_eq!((c.build_stats().built, c.build_stats().terms), (1, terms_n));
        stats(3, 3, 2);
    }

    #[test]
    fn publishing_keeps_a_part_only_beside_parts_of_its_own_region() {
        let rec = synth::synth_receptor("publish", 80, 101);
        let opts = GridOptions { spacing: 1.5, ..Default::default() };
        let (geom, key) = (Geometry::of(&rec, opts), FieldKey::of(&rec, opts));
        let spots = spots_on(&rec, 2);
        let part = |r_lig: f64| {
            let region = Reach { spots: &spots, r_lig }.region(geom).expect("a part");
            Stored { slab: zero_slab(geom), cover: Cover::Part(Arc::new(region)) }
        };
        let carbon = Channel::Lj(Element::C.index() as u8);
        let cache = SlabCache::new(ROOMY);
        let publish = |s: &Stored| cache.publish(key, vec![(carbon, s.clone())]).remove(0).slab;
        let (a, b, a_again) = (part(1.0), part(2.0), part(1.0));
        let whole = Stored { slab: zero_slab(geom), cover: Cover::Whole };
        assert!(Arc::ptr_eq(&publish(&a), &a.slab), "the first is resident");
        assert!(Arc::ptr_eq(&publish(&a_again), &a.slab), "the same region is adopted");
        assert!(Arc::ptr_eq(&publish(&b), &b.slab), "another region keeps its own");
        assert!(Arc::ptr_eq(&publish(&whole), &whole.slab), "a whole slab replaces a part");
        assert!(Arc::ptr_eq(&publish(&b), &whole.slab), "and is adopted from then on");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn a_reach_that_cannot_be_bounded_or_leaves_nothing_out_is_the_whole_lattice() {
        let rec = synth::synth_receptor("unbounded", 60, 102);
        let opts = GridOptions { spacing: 1.5, ..Default::default() };
        let geom = Geometry::of(&rec, opts);
        let spots = spots_on(&rec, 2);
        let reach = |spots: &[Spot], r_lig: f64| Reach { spots, r_lig }.region(geom);
        assert!(reach(&spots, 1.0).is_some());
        assert!(reach(&[], 1.0).is_none(), "no spots");
        assert!(reach(&spots, f64::NAN).is_none(), "a ligand atom at NaN");
        let nowhere = Spot { center: Vec3::new(f64::NAN, 0.0, 0.0), ..spots[0] };
        assert!(reach(&[spots[0], nowhere], 1.0).is_none(), "a spot at NaN");
        assert!(reach(&spots, 1e3).is_none(), "a reach over every node");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lattice nodes its slabs do not hold")]
    fn scoring_a_pose_outside_the_reach_panics_in_debug_builds() {
        let rec = synth::synth_receptor("outside", 200, 103);
        let lig = synth::synth_ligand("l", 7, 104);
        let opts = GridOptions::default();
        let geom = Geometry::of(&rec, opts);
        // One small spot at a corner of the lattice; the pose sits at the
        // opposite one.
        let corner =
            Spot { id: 0, center: geom.origin, normal: Vec3::X, radius: 1.0, anchor_atom: 0 };
        let g = GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &lig, opts, &[corner], NO_CLOCK);
        let far = (0..3).map(|a| geom.node(a, geom.dims[a] - 1));
        let far: Vec<f64> = far.collect();
        g.score(&RigidTransform::from_translation(Vec3::new(far[0], far[1], far[2])));
    }

    /// The grid options of [`table5_whole`]'s scorer.
    fn table5_opts() -> GridOptions {
        GridOptions { dielectric: Some(4.0), hbond_epsilon: Some(1.0), ..Default::default() }
    }

    /// A whole-lattice `Scorer::new` of the full model on the default grid.
    fn table5_whole(rec: &Molecule, lig: &Molecule) -> crate::scorer::Scorer {
        use crate::scorer::{Kernel, Scorer, ScorerOptions, ScoringModel};
        let model = ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 };
        let kernel = Kernel::Grid { spacing: table5_opts().spacing };
        Scorer::new(rec, lig, ScorerOptions { model, kernel })
    }

    #[test]
    #[ignore = "run in release mode: builds both Table 5 receptors' reach for 16 spots and for all"]
    fn table5_reach_scores_rim_poses_like_the_whole_lattice() {
        let opts = table5_opts();
        for dataset in [vsmol::Dataset::TwoBsm, vsmol::Dataset::TwoBxg] {
            let (rec, lig) = (dataset.receptor(), dataset.ligand());
            let whole = table5_whole(&rec, &lig);
            for max in [16, 0] {
                let spots = spots_on(&rec, max);
                let cache = SlabCache::new(ROOMY);
                let reach = GridScorer::new_in(&cache, &rec, &lig, opts, &spots, NO_CLOCK);
                let what = format!("{dataset:?}, {} spots", spots.len());
                let poses = rim_poses(&lig, &spots, 4);
                assert_reach_scores_like_whole(&reach, |p| whole.score(p), &poses, &what);
            }
        }
    }

    #[test]
    #[ignore = "run in release mode: builds 2BSM's reach for a spot 20 Å outside its lattice"]
    fn table5_reach_serves_a_spot_outside_the_lattice() {
        let opts = table5_opts();
        let (rec, lig) = (vsmol::Dataset::TwoBsm.receptor(), vsmol::Dataset::TwoBsm.ligand());
        let geom = Geometry::of(&rec, opts);
        let top = Vec3::new(geom.node(0, geom.dims[0] - 1), geom.node(1, 0), geom.node(2, 0));
        let spot = Spot { center: top + Vec3::new(20.0, 3.0, 4.0), ..spots_on(&rec, 1)[0] };
        let spots = [spot];
        let reach = GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &lig, opts, &spots, NO_CLOCK);
        let whole = table5_whole(&rec, &lig);
        let poses = rim_poses(&lig, &spots, 16);
        assert_reach_scores_like_whole(&reach, |p| whole.score(p), &poses, "outside");
    }

    #[test]
    #[ignore = "run in release mode: builds 2BSM's reach for a one-atom and a nine-atom ligand"]
    fn table5_reach_serves_one_atom_and_nine_atom_ligands() {
        let opts = table5_opts();
        let rec = vsmol::Dataset::TwoBsm.receptor();
        let spots = spots_on(&rec, 16);
        // One atom: r_lig = 0. Nine: one full chunk, then one atom and
        // seven padding lanes.
        for atoms in [1, 9] {
            let lig = synth::synth_ligand("l", atoms, 105);
            let reach =
                GridScorer::new_in(&SlabCache::new(ROOMY), &rec, &lig, opts, &spots, NO_CLOCK);
            let whole = table5_whole(&rec, &lig);
            let what = format!("{atoms} atoms");
            let poses = rim_poses(&lig, &spots, 4);
            assert_reach_scores_like_whole(&reach, |p| whole.score(p), &poses, &what);
        }
    }
}
