//! Element-run receptor layout and the fused kernel that exploits it.
//!
//! # Why runs
//!
//! The naive kernels pay a per-pair indexed gather
//! `table.at(lig_elem, rec.elem[j])` in the innermost loop. That gather is
//! what blocks autovectorization: the compiler cannot prove the `(σ², 4ε)`
//! loads are loop-invariant (they depend on `rec.elem[j]`), so every pair
//! costs two data-dependent table loads and the loop stays scalar.
//!
//! A [`RunFrame`] removes the dependence structurally instead of asking the
//! compiler to guess: the receptor is permuted **once** at scorer
//! construction so that atoms of the same element are contiguous. The atom
//! set is unchanged — only the iteration order moves — and the layout
//! records:
//!
//! - the permuted SoA columns (a plain [`Frame`]);
//! - a run table of `(elem, start, len)` spans, at most one per element.
//!
//! Inside one run the element is constant, so `(σ², 4ε)` hoist out of the
//! inner loop as loop constants and the body becomes a pure
//! distance/energy computation over contiguous memory, composed with
//! [`TILE`] cache blocking (tile *within* run) so a receptor block stays
//! L1/L2-resident while every ligand atom consumes it — the CPU analog of
//! the paper's CUDA shared-memory tiling.
//!
//! # Lanes
//!
//! The pair math (`r² → clamp → 1/r² → LJ [+ Coulomb] [+ 10–12 H-bond]`)
//! is written once over the lane types of `crate::lanes` (`f64` for the
//! `len % 4` atoms of a span's tail; four wide the portable `F64x4`, or one
//! 256-bit register when the CPU reports `avx2`, asked once per pose), and
//! a span takes four receptor atoms per step in one `Wide` accumulator
//! ([`LANES`]). Every lane operation is a correctly rounded IEEE operation
//! or a compare-select and the order in which results are combined is fixed
//! by the source (below), so every lane type gives the same bits on every
//! input, non-finite ones included. `run::tests` holds them to that by
//! `to_bits`, the portable one instantiated directly so it is exercised on
//! every host.
//!
//! # Kernel
//!
//! [`fused_run`] accumulates LJ + Coulomb + hydrogen bond in a **single
//! receptor pass**. The H-bond gate is free here: capability is an element
//! property, hence a *run constant* — whole runs are gated outside the
//! inner loop instead of testing every pair.
//!
//! # Canonical summation order
//!
//! The kernel's summation order is part of its definition (DESIGN §7):
//! run-major, tile-minor, ligand-atom, then within the span receptor atom
//! `j` into lane `j % 4`, the tail after the last full four, and
//! `(acc0 + acc1) + (acc2 + acc3) + tail`. Every execution path (serial,
//! `CpuPool`, `DeviceEvaluator`) runs this exact code, so scores are
//! bit-identical across paths — and across lane instantiations; it agrees
//! with the separate-pass [`crate::lj::lj_naive`] reference within 1e-9
//! relative (pinned by tests here and in `tests/props.rs`).

use crate::coulomb::COULOMB_K;
use crate::hbond::{hbond_from_q, is_hbond_capable_idx, HB_SIGMA_SQ};
use crate::lanes::{widest, Lane, Wide, WideFn};
use crate::lj::{clamped, lj_from_q, Frame, PairTable, TILE};
use vsmol::Element;

/// Independent accumulator lanes in the inner loops: receptor atom `j` of
/// a span goes to lane `j % LANES`.
pub use crate::lanes::LANES;

/// One maximal span of same-element receptor atoms in a [`RunFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// `Element::index()` shared by every atom in the span.
    pub elem: u8,
    /// First atom of the span in the permuted frame.
    pub start: usize,
    /// Number of atoms in the span.
    pub len: usize,
}

/// A receptor frame permuted so same-element atoms are contiguous, plus
/// the run table.
#[derive(Debug, Clone, Default)]
pub struct RunFrame {
    frame: Frame,
    runs: Vec<Run>,
}

impl RunFrame {
    /// Permute `rec` into element runs. Stable: within a run, atoms keep
    /// their original relative order (a counting sort by element index).
    pub fn from_frame(rec: &Frame) -> RunFrame {
        let n = rec.len();
        let ne = Element::COUNT;
        let mut counts = vec![0usize; ne];
        for &e in &rec.elem {
            counts[e as usize] += 1;
        }
        let mut starts = vec![0usize; ne];
        let mut acc = 0;
        for e in 0..ne {
            starts[e] = acc;
            acc += counts[e];
        }
        let mut frame = Frame {
            x: vec![0.0; n],
            y: vec![0.0; n],
            z: vec![0.0; n],
            elem: vec![0; n],
            charge: vec![0.0; n],
        };
        let mut cursor = starts.clone();
        for (o, &e) in rec.elem.iter().enumerate() {
            let k = cursor[e as usize];
            cursor[e as usize] += 1;
            frame.x[k] = rec.x[o];
            frame.y[k] = rec.y[o];
            frame.z[k] = rec.z[o];
            frame.elem[k] = e;
            frame.charge[k] = rec.charge[o];
        }
        let runs = (0..ne)
            .filter(|&e| counts[e] > 0)
            .map(|e| Run { elem: e as u8, start: starts[e], len: counts[e] })
            .collect();
        RunFrame { frame, runs }
    }

    /// The permuted SoA columns — a plain [`Frame`] any kernel can stream.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// The run table, ordered by element index.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    pub fn len(&self) -> usize {
        self.frame.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }
}

/// [`fused_run`]'s pair: LJ plus the statically gated Coulomb and 10–12
/// H-bond terms off one reciprocal per pair. `ck` is the hoisted
/// per-ligand-atom Coulomb constant `k·qᵢ/ε_scale`; `hb_eps` the H-bond
/// well depth.
#[derive(Clone, Copy)]
struct FusedPair<const COUL: bool, const HB: bool> {
    s2: f64,
    e4: f64,
    ck: f64,
    hb_eps: f64,
}

impl<const COUL: bool, const HB: bool> FusedPair<COUL, HB> {
    /// The pair energy from the pair's clamped squared distance and the
    /// receptor atom's charge. Written over [`Lane`], so the four-lane body
    /// and the scalar tail of [`span`] are one formula.
    #[inline(always)]
    fn at<V: Lane>(self, r2: V, qj: V) -> V {
        let inv = V::splat(1.0) / r2;
        let mut e = lj_from_q(self.e4, V::splat(self.s2) * inv);
        if COUL {
            e = e + V::splat(self.ck) * qj * inv;
        }
        if HB {
            e = e + hbond_from_q(self.hb_eps, V::splat(HB_SIGMA_SQ) * inv);
        }
        e
    }
}

/// `pair` energy of the ligand atom at `at` against the receptor atoms in
/// the lanes of `(x, y, z)` with charges `q`: `r²`, clamped at
/// [`crate::lj::MIN_DIST_SQ`], then the pair formula.
#[inline(always)]
fn pair_energy<V: Lane, const COUL: bool, const HB: bool>(
    pair: FusedPair<COUL, HB>,
    at: [f64; 3],
    x: V,
    y: V,
    z: V,
    q: V,
) -> V {
    let dx = V::splat(at[0]) - x;
    let dy = V::splat(at[1]) - y;
    let dz = V::splat(at[2]) - z;
    pair.at(clamped(dx * dx + dy * dy + dz * dz), q)
}

/// One ligand atom against one contiguous same-element span — the
/// canonical order of the kernel: receptor atom `j` adds into lane
/// `j % LANES` of one [`Wide`] accumulator, the `len % LANES` atoms left
/// over into a scalar tail, and the span's sum is
/// `(acc0 + acc1) + (acc2 + acc3) + tail`.
#[inline(always)]
fn span<W: Wide, const COUL: bool, const HB: bool>(
    pair: FusedPair<COUL, HB>,
    at: [f64; 3],
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
) -> f64 {
    // `zip` stops at the shortest column: unequal columns would drop pairs.
    assert!(ys.len() == xs.len() && zs.len() == xs.len() && qs.len() == xs.len());
    let (x4, x1) = xs.as_chunks::<LANES>();
    let (y4, y1) = ys.as_chunks::<LANES>();
    let (z4, z1) = zs.as_chunks::<LANES>();
    let (q4, q1) = qs.as_chunks::<LANES>();
    let mut acc = W::splat(0.0);
    for (((x, y), z), q) in x4.iter().zip(y4).zip(z4).zip(q4) {
        let (x, y, z, q) =
            (W::from_array(*x), W::from_array(*y), W::from_array(*z), W::from_array(*q));
        acc = acc + pair_energy(pair, at, x, y, z, q);
    }
    let mut tail = 0.0;
    for (((x, y), z), q) in x1.iter().zip(y1).zip(z1).zip(q1) {
        tail += pair_energy(pair, at, *x, *y, *z, *q);
    }
    let [a0, a1, a2, a3] = acc.to_array();
    (a0 + a1) + (a2 + a3) + tail
}

/// One pose's sweep under one scoring model, for [`widest`] to pick the
/// lanes of (once per pose).
#[derive(Clone, Copy)]
struct PoseSweep<'a> {
    dielectric: Option<f64>,
    hbond_eps: Option<f64>,
    lig: &'a Frame,
    rec: &'a RunFrame,
    table: &'a PairTable,
}

impl WideFn for PoseSweep<'_> {
    type Output = f64;
    #[inline(always)]
    fn call<W: Wide>(self) -> f64 {
        let PoseSweep { dielectric, hbond_eps, lig, rec, table } = self;
        // One statically gated body per scoring model.
        match (dielectric, hbond_eps) {
            (None, None) => fused_impl::<W, false, false>(lig, rec, table, 1.0, 0.0),
            (Some(d), None) => fused_impl::<W, true, false>(lig, rec, table, d, 0.0),
            (None, Some(e)) => fused_impl::<W, false, true>(lig, rec, table, 1.0, e),
            (Some(d), Some(e)) => fused_impl::<W, true, true>(lig, rec, table, d, e),
        }
    }
}

#[inline(always)]
fn fused_impl<W: Wide, const COUL: bool, const HB: bool>(
    lig: &Frame,
    rec: &RunFrame,
    table: &PairTable,
    dielectric: f64,
    hb_eps: f64,
) -> f64 {
    let rf = &rec.frame;
    let mut total = 0.0;
    for run in &rec.runs {
        // Capability is an element property, hence constant over the run:
        // whole runs are gated here, never per pair.
        let run_capable = HB && is_hbond_capable_idx(run.elem);
        let run_end = run.start + run.len;
        let mut start = run.start;
        while start < run_end {
            let end = (start + TILE).min(run_end);
            let xs = &rf.x[start..end];
            let ys = &rf.y[start..end];
            let zs = &rf.z[start..end];
            let qs = &rf.charge[start..end];
            for i in 0..lig.len() {
                let le = lig.elem[i];
                let (s2, e4) = table.lookup(le, run.elem);
                let ck = if COUL { COULOMB_K * lig.charge[i] / dielectric } else { 0.0 };
                let at = [lig.x[i], lig.y[i], lig.z[i]];
                total += if run_capable && is_hbond_capable_idx(le) {
                    let pair = FusedPair::<COUL, true> { s2, e4, ck, hb_eps };
                    span::<W, _, _>(pair, at, xs, ys, zs, qs)
                } else {
                    let pair = FusedPair::<COUL, false> { s2, e4, ck, hb_eps: 0.0 };
                    span::<W, _, _>(pair, at, xs, ys, zs, qs)
                };
            }
            start = end;
        }
    }
    total
}

/// Fused single-pass kernel over the run layout: LJ always, Coulomb when
/// `dielectric` is set, the 10–12 H-bond term when `hbond_eps` is set and
/// positive (a zero well depth is inert, matching
/// [`crate::hbond::hbond_naive`]). Matches the sum of the separate
/// per-term kernels within 1e-9 relative.
pub fn fused_run(
    lig: &Frame,
    rec: &RunFrame,
    table: &PairTable,
    dielectric: Option<f64>,
    hbond_eps: Option<f64>,
) -> f64 {
    if let Some(d) = dielectric {
        assert!(d > 0.0, "dielectric scale must be positive");
    }
    if let Some(e) = hbond_eps {
        assert!(e >= 0.0, "well depth must be non-negative");
    }
    let hbond_eps = hbond_eps.filter(|&e| e > 0.0);
    widest(PoseSweep { dielectric, hbond_eps, lig, rec, table })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coulomb::coulomb_naive;
    use crate::hbond::hbond_naive;
    use crate::lanes::every_path;
    use crate::lj::lj_naive;
    use vsmath::{RngStream, Vec3};
    use vsmol::{synth, LjTable};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(1.0)
    }

    fn table() -> PairTable {
        PairTable::new(&LjTable::standard())
    }

    /// A receptor frame with exactly the given per-element run lengths,
    /// in random (interleaved) original order.
    fn frame_with_runs(spec: &[(Element, usize)], seed: u64) -> Frame {
        let mut rng = RngStream::from_seed(seed);
        let mut atoms: Vec<(Vec3, Element, f64)> = Vec::new();
        for &(e, n) in spec {
            for _ in 0..n {
                atoms.push((rng.in_ball(15.0), e, rng.uniform_range(-0.5, 0.5)));
            }
        }
        // Shuffle so runs are *not* already contiguous in the input.
        for i in (1..atoms.len()).rev() {
            let j = rng.index(i + 1);
            atoms.swap(i, j);
        }
        let pos: Vec<Vec3> = atoms.iter().map(|a| a.0).collect();
        let el: Vec<Element> = atoms.iter().map(|a| a.1).collect();
        let q: Vec<f64> = atoms.iter().map(|a| a.2).collect();
        Frame::from_parts(&pos, &el, &q)
    }

    fn synth_frames(n_rec: usize, n_lig: usize, seed: u64) -> (Frame, Frame) {
        let rec = synth::synth_receptor("r", n_rec, seed);
        let lig = synth::synth_ligand("l", n_lig, seed + 1);
        (Frame::from_molecule(&lig), Frame::from_molecule(&rec))
    }

    /// A ligand frame posed somewhere around a receptor of radius ~`reach`.
    fn posed_ligand(lig: &vsmol::Molecule, rng: &mut RngStream, reach: f64) -> Frame {
        let pose = vsmath::RigidTransform::new(rng.rotation(), rng.in_ball(reach));
        Frame::from_molecule(&lig.centered().transformed(&pose))
    }

    /// The fused kernel under every model: `(dielectric, hbond_eps)` for
    /// each `(COUL, HB)` gating.
    const MODELS: [(Option<f64>, Option<f64>); 4] =
        [(None, None), (Some(4.0), None), (None, Some(1.0)), (Some(4.0), Some(1.0))];

    /// The canonical order (DESIGN §7) spelled out pair by pair over the
    /// `f64` instantiation alone: run-major, tile-minor, ligand atom, lane
    /// `j % LANES`, `(acc0 + acc1) + (acc2 + acc3) + tail`. Every wide
    /// instantiation must reproduce it bit for bit.
    fn scalar_lanes(
        (dielectric, hbond_eps): (Option<f64>, Option<f64>),
        lig: &Frame,
        rec: &RunFrame,
        table: &PairTable,
    ) -> f64 {
        fn at_atom<const COUL: bool, const HB: bool>(
            pair: FusedPair<COUL, HB>,
            at: [f64; 3],
            rf: &Frame,
            j: usize,
        ) -> f64 {
            pair_energy(pair, at, rf.x[j], rf.y[j], rf.z[j], rf.charge[j])
        }
        let rf = rec.frame();
        let mut total = 0.0;
        for run in rec.runs() {
            let run_end = run.start + run.len;
            for start in (run.start..run_end).step_by(TILE) {
                let n = TILE.min(run_end - start);
                for i in 0..lig.len() {
                    let at = [lig.x[i], lig.y[i], lig.z[i]];
                    let (s2, e4) = table.lookup(lig.elem[i], run.elem);
                    let capable =
                        is_hbond_capable_idx(run.elem) && is_hbond_capable_idx(lig.elem[i]);
                    let ck = dielectric.map_or(0.0, |d| COULOMB_K * lig.charge[i] / d);
                    let hb_eps = hbond_eps.filter(|_| capable).unwrap_or(0.0);
                    let one = |j: usize| -> f64 {
                        match (dielectric.is_some(), hb_eps > 0.0) {
                            (false, false) => {
                                at_atom(FusedPair::<false, false> { s2, e4, ck, hb_eps }, at, rf, j)
                            }
                            (true, false) => {
                                at_atom(FusedPair::<true, false> { s2, e4, ck, hb_eps }, at, rf, j)
                            }
                            (false, true) => {
                                at_atom(FusedPair::<false, true> { s2, e4, ck, hb_eps }, at, rf, j)
                            }
                            (true, true) => {
                                at_atom(FusedPair::<true, true> { s2, e4, ck, hb_eps }, at, rf, j)
                            }
                        }
                    };
                    let mut acc = [0.0f64; LANES];
                    let mut tail = 0.0;
                    for j in 0..n {
                        if j < n - n % LANES {
                            acc[j % LANES] += one(start + j);
                        } else {
                            tail += one(start + j);
                        }
                    }
                    total += (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
                }
            }
        }
        total
    }

    /// Scalar lanes and every lane path of the host (`lanes::every_path`:
    /// the portable `F64x4`, so that it is exercised on every host, and
    /// each x86-64 entry the CPU has) must agree to the bit, for every
    /// model. Returns the four scores.
    fn assert_lane_paths_agree(lig: &Frame, rec: &RunFrame, what: &str) -> [f64; 4] {
        let t = table();
        MODELS.map(|model| {
            let want = scalar_lanes(model, lig, rec, &t);
            let (dielectric, hbond_eps) = model;
            let pose = || PoseSweep { dielectric, hbond_eps, lig, rec, table: &t };
            for (path, got) in every_path(pose) {
                assert_eq!(got.to_bits(), want.to_bits(), "{what}, {model:?}: {path} lanes");
            }
            want
        })
    }

    #[test]
    fn lane_paths_agree_bit_for_bit_at_every_run_length() {
        // N and O runs are H-bond capable, so the `HB` bodies run too.
        let lig = synth::synth_ligand("l", 9, 13);
        let mut rng = RngStream::from_seed(51);
        let lens = (0..=9).chain([TILE - 1, TILE, TILE + 1, 2 * TILE + 7]);
        for len in lens {
            let spec = [(Element::N, len), (Element::C, 3), (Element::O, len / 2)];
            let rec = RunFrame::from_frame(&frame_with_runs(&spec, 7 + len as u64));
            let scores = assert_lane_paths_agree(
                &posed_ligand(&lig, &mut rng, 12.0),
                &rec,
                &format!("len={len}"),
            );
            assert!(scores.iter().all(|s| s.is_finite()), "len={len}: {scores:?}");
        }
    }

    #[test]
    fn lane_paths_agree_inside_the_clamp_and_on_non_finite_coordinates() {
        let lig_mol = synth::synth_ligand("l", 9, 13);
        let spec = [(Element::N, 2 * LANES + 1), (Element::O, LANES - 1), (Element::C, TILE + 3)];
        let rec_frame = frame_with_runs(&spec, 59);
        let lig = posed_ligand(&lig_mol, &mut RngStream::from_seed(61), 12.0);
        // Receptor atoms moved onto ligand atom 0: coincident, and closer
        // than the `MIN_DIST_SQ` clamp — in the lanes and in the tail.
        let mut clamped = rec_frame.clone();
        for (k, off) in [(0, 0.0), (1, 0.3), (rec_frame.len() - 1, 0.0), (rec_frame.len() - 2, 0.4)]
        {
            (clamped.x[k], clamped.y[k], clamped.z[k]) = (lig.x[0] + off, lig.y[0], lig.z[0]);
        }
        let scores = assert_lane_paths_agree(&lig, &RunFrame::from_frame(&clamped), "clamped");
        assert!(
            scores.iter().all(|s| s.is_finite() && *s > 1e6),
            "clash must dominate: {scores:?}"
        );
        // A non-finite coordinate gives the same non-finite answer on
        // every path: NaN poisons the sum, an atom at ±∞ interacts with
        // nothing.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for k in [0, LANES + 1, rec_frame.len() - 1] {
                let mut rec = rec_frame.clone();
                rec.y[k] = bad;
                let scores = assert_lane_paths_agree(
                    &lig,
                    &RunFrame::from_frame(&rec),
                    &format!("{bad} at {k}"),
                );
                assert!(
                    scores.iter().all(|s| s.is_nan() == bad.is_nan()),
                    "{bad} at {k}: {scores:?}"
                );
            }
            let mut lig = lig.clone();
            lig.z[3] = bad;
            assert_lane_paths_agree(
                &lig,
                &RunFrame::from_frame(&rec_frame),
                &format!("ligand at {bad}"),
            );
        }
    }

    #[test]
    fn lane_paths_agree_on_a_thousand_random_frames() {
        // The shapes of `run_and_fused_match_naive_on_random_frames`
        // (tests/props.rs), seeded, compared by bits instead of 1e-9.
        let mut rng = RngStream::from_seed(0x1a9e5);
        for frame in 0..1000 {
            let (n_rec, n_lig) = (1 + rng.index(399), 1 + rng.index(23));
            let seed = rng.next_u64();
            let rec = Frame::from_molecule(&synth::synth_receptor("r", n_rec, seed));
            let lig = synth::synth_ligand("l", n_lig, seed ^ 0x9e37_79b9);
            let lig = posed_ligand(&lig, &mut rng, 25.0);
            assert_lane_paths_agree(&lig, &RunFrame::from_frame(&rec), &format!("frame {frame}"));
        }
    }

    #[test]
    #[ignore = "run in release mode: both Table 5 complexes, 64 poses, three lane paths"]
    fn table5_complexes_score_the_same_bits_on_every_lane_path() {
        for dataset in vsmol::Dataset::ALL {
            let rec = RunFrame::from_frame(&Frame::from_molecule(&dataset.receptor()));
            let lig = dataset.ligand();
            let mut rng = RngStream::from_seed(64);
            for pose in 0..64 {
                let lig = posed_ligand(&lig, &mut rng, 30.0);
                assert_lane_paths_agree(&lig, &rec, &format!("{dataset:?} pose {pose}"));
            }
        }
    }

    #[test]
    fn permutation_roundtrip_and_runs_cover_frame() {
        let rec = frame_with_runs(&[(Element::C, 37), (Element::N, 5), (Element::O, 12)], 3);
        let rf = RunFrame::from_frame(&rec);
        assert_eq!(rf.len(), rec.len());
        // Runs are contiguous, disjoint, and cover the whole frame in
        // element-index order; each is that element's atoms in their
        // original order.
        let mut expected_start = 0;
        for run in rf.runs() {
            assert_eq!(run.start, expected_start);
            assert!(run.len > 0);
            let original: Vec<usize> =
                (0..rec.len()).filter(|&o| rec.elem[o] == run.elem).collect();
            assert_eq!(original.len(), run.len);
            for (k, o) in (run.start..run.start + run.len).zip(original) {
                assert_eq!(rf.frame().x[k], rec.x[o]);
                assert_eq!(rf.frame().y[k], rec.y[o]);
                assert_eq!(rf.frame().z[k], rec.z[o]);
                assert_eq!(rf.frame().elem[k], rec.elem[o]);
                assert_eq!(rf.frame().charge[k], rec.charge[o]);
            }
            expected_start += run.len;
        }
        assert_eq!(expected_start, rec.len());
        let elems: Vec<u8> = rf.runs().iter().map(|r| r.elem).collect();
        let mut sorted = elems.clone();
        sorted.sort_unstable();
        assert_eq!(elems, sorted, "runs ordered by element index");
    }

    #[test]
    fn run_matches_naive() {
        let (lig, rec) = synth_frames(1500, 30, 11);
        let t = table();
        let a = lj_naive(&lig, &rec, &t);
        let b = fused_run(&lig, &RunFrame::from_frame(&rec), &t, None, None);
        assert!(close(a, b), "{a} vs {b}");
    }

    #[test]
    fn run_matches_naive_at_run_boundaries() {
        // Run lengths straddling the lane width and the tile size. Length
        // 0 is the absent-element case (no run emitted).
        let t = table();
        for len in [1usize, 2, 3, LANES, LANES + 1, TILE - 1, TILE, TILE + 1] {
            let rec = frame_with_runs(&[(Element::C, len), (Element::O, 1)], 7 + len as u64);
            let lig = Frame::from_molecule(&synth::synth_ligand("l", 9, 13));
            let a = lj_naive(&lig, &rec, &t);
            let b = fused_run(&lig, &RunFrame::from_frame(&rec), &t, None, None);
            assert!(close(a, b), "len={len}: {a} vs {b}");
        }
    }

    #[test]
    fn single_element_receptor_is_one_run() {
        let rec = frame_with_runs(&[(Element::C, 2 * TILE + 7)], 17);
        let rf = RunFrame::from_frame(&rec);
        assert_eq!(rf.runs().len(), 1);
        let lig = Frame::from_molecule(&synth::synth_ligand("l", 12, 19));
        let t = table();
        assert!(close(lj_naive(&lig, &rec, &t), fused_run(&lig, &rf, &t, None, None)));
    }

    #[test]
    fn all_elements_receptor_one_atom_each() {
        let spec: Vec<(Element, usize)> = Element::ALL.iter().map(|&e| (e, 1)).collect();
        let rec = frame_with_runs(&spec, 23);
        let rf = RunFrame::from_frame(&rec);
        assert_eq!(rf.runs().len(), Element::COUNT);
        assert!(rf.runs().iter().all(|r| r.len == 1));
        let lig = Frame::from_molecule(&synth::synth_ligand("l", 7, 29));
        let t = table();
        assert!(close(lj_naive(&lig, &rec, &t), fused_run(&lig, &rf, &t, None, None)));
        let a = fused_run(&lig, &rf, &t, Some(4.0), Some(1.0));
        let want = lj_naive(&lig, &rec, &t)
            + coulomb_naive(&lig, &rec, 4.0)
            + hbond_naive(&lig, &rec, 1.0);
        assert!(close(want, a), "{want} vs {a}");
    }

    #[test]
    fn empty_frames_score_zero() {
        let t = table();
        let empty = Frame::from_parts(&[], &[], &[]);
        let rf = RunFrame::from_frame(&empty);
        assert!(rf.is_empty());
        assert!(rf.runs().is_empty());
        let one = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.1]);
        assert_eq!(fused_run(&one, &rf, &t, None, None), 0.0);
        assert_eq!(fused_run(&one, &rf, &t, Some(4.0), Some(1.0)), 0.0);
        let one_rf = RunFrame::from_frame(&one);
        assert_eq!(fused_run(&empty, &one_rf, &t, None, None), 0.0);
    }

    #[test]
    fn fused_matches_separate_terms_for_every_model() {
        let (lig, rec) = synth_frames(900, 24, 31);
        let rf = RunFrame::from_frame(&rec);
        let t = table();
        let lj = lj_naive(&lig, &rec, &t);
        // LJ only.
        assert!(close(lj, fused_run(&lig, &rf, &t, None, None)));
        // LJ + Coulomb.
        let ljc = lj + coulomb_naive(&lig, &rec, 4.0);
        assert!(close(ljc, fused_run(&lig, &rf, &t, Some(4.0), None)));
        // Full.
        let full = ljc + hbond_naive(&lig, &rec, 1.0);
        let got = fused_run(&lig, &rf, &t, Some(4.0), Some(1.0));
        assert!(close(full, got), "{full} vs {got}");
    }

    #[test]
    fn fused_zero_hbond_depth_is_inert() {
        let (lig, rec) = synth_frames(400, 12, 37);
        let rf = RunFrame::from_frame(&rec);
        let t = table();
        let a = fused_run(&lig, &rf, &t, Some(4.0), None);
        let b = fused_run(&lig, &rf, &t, Some(4.0), Some(0.0));
        assert_eq!(a.to_bits(), b.to_bits(), "zero well depth must be bit-inert");
    }

    #[test]
    fn fused_is_deterministic() {
        let (lig, rec) = synth_frames(700, 20, 41);
        let rf = RunFrame::from_frame(&rec);
        let t = table();
        let a = fused_run(&lig, &rf, &t, Some(4.0), Some(1.0));
        let b = fused_run(&lig, &rf, &t, Some(4.0), Some(1.0));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    #[should_panic]
    fn fused_rejects_non_positive_dielectric() {
        let (lig, rec) = synth_frames(10, 3, 43);
        let rf = RunFrame::from_frame(&rec);
        fused_run(&lig, &rf, &table(), Some(0.0), None);
    }

    #[test]
    #[should_panic]
    fn fused_rejects_negative_hbond_depth() {
        let (lig, rec) = synth_frames(10, 3, 47);
        let rf = RunFrame::from_frame(&rec);
        fused_run(&lig, &rf, &table(), None, Some(-1.0));
    }
}
