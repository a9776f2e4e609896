//! Lennard-Jones kernels over flattened structure-of-arrays layouts.
//!
//! The kernels operate on a [`Frame`] — receptor atoms flattened into
//! coordinate and element-index arrays — so the hot loop touches dense
//! memory only. [`lj_naive`] is the ligand-outer/receptor-inner all-pairs
//! loop, the reference every other kernel is compared with;
//! [`lj_naive_cutoff`] adds a spherical cutoff.
//!
//! Both pay a per-pair **indexed gather** `table.at(le, rec.elem[j])` in
//! the innermost loop. The two loads depend on `rec.elem[j]`, so the
//! compiler cannot hoist them or prove them contiguous, and the loop does
//! not autovectorize — every pair serializes behind two data-dependent
//! table reads. The [`crate::run`] module removes that gather structurally
//! (permute the receptor into element runs once, hoist `(σ², 4ε)` per
//! run); these scalar kernels remain as the reference and as the ablation
//! baseline.
//!
//! Distances are clamped below by [`MIN_DIST_SQ`] so overlapping atoms
//! produce a large-but-finite repulsion instead of `inf`, which keeps the
//! metaheuristics' score comparisons total.
//!
//! All scalar kernels share one summation discipline: a per-ligand-atom
//! accumulator flushed into the running total, so each kernel's order is
//! fixed and documented (the per-kernel bit-identity policy, DESIGN §7).

use crate::lanes::Lane;
use vsmath::Vec3;
use vsmol::{Element, LjTable, Molecule};

/// Squared-distance clamp: pairs closer than 0.5 Å are treated as 0.5 Å.
pub const MIN_DIST_SQ: f64 = 0.25;

/// Receptor tile size of [`crate::run::fused_run`], in atoms: each element
/// run is swept in blocks of this many atoms, so a block stays
/// cache-resident while every ligand atom consumes it (the CPU analog of
/// the paper's CUDA shared-memory tiling, §5). 512 atoms × 32 B ≈ 16 KB,
/// matching both an L1 slice and the 16–48 KB shared-memory budget of the
/// paper's GPUs (Tables 2–3).
pub const TILE: usize = 512;

/// A molecule flattened for kernel consumption.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    /// `Element::index()` per atom.
    pub elem: Vec<u8>,
    /// Partial charge per atom (used by the Coulomb kernel).
    pub charge: Vec<f64>,
}

impl Frame {
    pub fn from_molecule(mol: &Molecule) -> Frame {
        let n = mol.len();
        let mut f = Frame {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
            elem: Vec::with_capacity(n),
            charge: Vec::with_capacity(n),
        };
        for a in mol.atoms() {
            f.x.push(a.position.x);
            f.y.push(a.position.y);
            f.z.push(a.position.z);
            f.elem.push(a.element.index() as u8);
            f.charge.push(a.charge);
        }
        f
    }

    /// Build directly from parallel arrays (used for transformed ligands).
    pub fn from_parts(positions: &[Vec3], elements: &[Element], charges: &[f64]) -> Frame {
        assert_eq!(positions.len(), elements.len());
        assert_eq!(positions.len(), charges.len());
        Frame {
            x: positions.iter().map(|p| p.x).collect(),
            y: positions.iter().map(|p| p.y).collect(),
            z: positions.iter().map(|p| p.z).collect(),
            elem: elements.iter().map(|e| e.index() as u8).collect(),
            charge: charges.to_vec(),
        }
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Flattened `(σ², 4ε)` lookup: `idx = lig_elem * Element::COUNT + rec_elem`.
#[derive(Debug, Clone)]
pub struct PairTable {
    sigma_sq: Vec<f64>,
    four_eps: Vec<f64>,
}

impl PairTable {
    pub fn new(table: &LjTable) -> PairTable {
        let n = Element::COUNT;
        let mut sigma_sq = vec![0.0; n * n];
        let mut four_eps = vec![0.0; n * n];
        for a in Element::ALL {
            for b in Element::ALL {
                let (s2, e4) = table.pair(a, b);
                sigma_sq[a.index() * n + b.index()] = s2;
                four_eps[a.index() * n + b.index()] = e4;
            }
        }
        PairTable { sigma_sq, four_eps }
    }

    #[inline]
    fn at(&self, lig_elem: u8, rec_elem: u8) -> (f64, f64) {
        let k = lig_elem as usize * Element::COUNT + rec_elem as usize;
        (self.sigma_sq[k], self.four_eps[k])
    }

    /// Public `(σ², 4ε)` lookup by element indices.
    #[inline]
    pub fn lookup(&self, lig_elem: u8, rec_elem: u8) -> (f64, f64) {
        self.at(lig_elem, rec_elem)
    }
}

/// `r_sq` raised to [`MIN_DIST_SQ`], the clamp of every pair term; a NaN
/// compares false and stays.
#[inline(always)]
pub(crate) fn clamped<V: Lane>(r_sq: V) -> V {
    let floor = V::splat(MIN_DIST_SQ);
    r_sq.select_lt(floor, floor, r_sq)
}

/// `4ε(q⁶ − q³)` from `q = σ²/r²`.
#[inline(always)]
pub(crate) fn lj_from_q<V: Lane>(four_eps: f64, q: V) -> V {
    let s6 = q * q * q;
    V::splat(four_eps) * (s6 * s6 - s6)
}

/// LJ pair energy from `(σ², 4ε)` at the [`clamped`] squared distance `r2`,
/// `q` by a division of its own. Written over [`Lane`]: [`lj_pair`] and the
/// grid build's lanes are this one formula.
#[inline(always)]
pub(crate) fn lj_at<V: Lane>(sigma_sq: f64, four_eps: f64, r2: V) -> V {
    lj_from_q(four_eps, V::splat(sigma_sq) / r2)
}

/// LJ pair energy from `(σ², 4ε)` at squared distance `r_sq` (clamped).
#[inline(always)]
pub fn lj_pair(sigma_sq: f64, four_eps: f64, r_sq: f64) -> f64 {
    lj_at(sigma_sq, four_eps, clamped(r_sq))
}

/// Naive all-pairs kernel: for each ligand atom, stream all receptor atoms.
pub fn lj_naive(lig: &Frame, rec: &Frame, table: &PairTable) -> f64 {
    let mut total = 0.0;
    for i in 0..lig.len() {
        let (lx, ly, lz, le) = (lig.x[i], lig.y[i], lig.z[i], lig.elem[i]);
        let mut acc = 0.0;
        for j in 0..rec.len() {
            let dx = lx - rec.x[j];
            let dy = ly - rec.y[j];
            let dz = lz - rec.z[j];
            let r_sq = dx * dx + dy * dy + dz * dz;
            let (s2, e4) = table.at(le, rec.elem[j]);
            acc += lj_pair(s2, e4, r_sq);
        }
        total += acc;
    }
    total
}

/// Naive kernel with a spherical cutoff: pairs beyond `cutoff` contribute
/// nothing. The reference for grid-accelerated cutoff scoring (which
/// visits pairs in grid-cell order, so agreement is within summation
/// slack, not bitwise). Shares the per-ligand-atom accumulator discipline
/// of [`lj_naive`].
pub fn lj_naive_cutoff(lig: &Frame, rec: &Frame, table: &PairTable, cutoff: f64) -> f64 {
    let c2 = cutoff * cutoff;
    let mut total = 0.0;
    for i in 0..lig.len() {
        let (lx, ly, lz, le) = (lig.x[i], lig.y[i], lig.z[i], lig.elem[i]);
        let mut acc = 0.0;
        for j in 0..rec.len() {
            let dx = lx - rec.x[j];
            let dy = ly - rec.y[j];
            let dz = lz - rec.z[j];
            let r_sq = dx * dx + dy * dy + dz * dz;
            if r_sq <= c2 {
                let (s2, e4) = table.at(le, rec.elem[j]);
                acc += lj_pair(s2, e4, r_sq);
            }
        }
        total += acc;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmath::RngStream;
    use vsmol::{synth, Atom, LjParams};

    fn frames(n_rec: usize, n_lig: usize, seed: u64) -> (Frame, Frame, PairTable) {
        let rec = synth::synth_receptor("r", n_rec, seed);
        let lig = synth::synth_ligand("l", n_lig, seed + 1);
        let table = PairTable::new(&LjTable::standard());
        (Frame::from_molecule(&lig), Frame::from_molecule(&rec), table)
    }

    #[test]
    fn single_pair_matches_reference() {
        let table = PairTable::new(&LjTable::standard());
        let lig = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        let rec = Frame::from_parts(&[Vec3::new(4.0, 0.0, 0.0)], &[Element::O], &[0.0]);
        let got = lj_naive(&lig, &rec, &table);
        let want = LjParams::combine(LjParams::of(Element::C), LjParams::of(Element::O))
            .energy_at_sq(16.0);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn empty_frames_score_zero() {
        let table = PairTable::new(&LjTable::standard());
        let empty = Frame::from_parts(&[], &[], &[]);
        let one = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        assert_eq!(lj_naive(&empty, &one, &table), 0.0);
        assert_eq!(lj_naive(&one, &empty, &table), 0.0);
        assert_eq!(lj_naive(&empty, &empty, &table), 0.0);
    }

    #[test]
    fn overlapping_atoms_finite_and_repulsive() {
        let table = PairTable::new(&LjTable::standard());
        let lig = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        let rec = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        let e = lj_naive(&lig, &rec, &table);
        assert!(e.is_finite());
        assert!(e > 1e3, "overlap must be strongly repulsive, got {e}");
    }

    #[test]
    fn clamp_kicks_in_below_threshold() {
        let table = PairTable::new(&LjTable::standard());
        let (s2, e4) = (9.0, 1.0);
        assert_eq!(lj_pair(s2, e4, 0.0), lj_pair(s2, e4, MIN_DIST_SQ));
        assert_eq!(lj_pair(s2, e4, 0.1), lj_pair(s2, e4, MIN_DIST_SQ));
        assert_ne!(lj_pair(s2, e4, 0.3), lj_pair(s2, e4, MIN_DIST_SQ));
        let _ = table;
    }

    #[test]
    fn cutoff_inf_matches_all_pairs() {
        let (lig, rec, table) = frames(400, 12, 17);
        let a = lj_naive(&lig, &rec, &table);
        let b = lj_naive_cutoff(&lig, &rec, &table, 1e9);
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
    }

    #[test]
    fn cutoff_zero_scores_nothing_at_distance() {
        let table = PairTable::new(&LjTable::standard());
        let lig = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        let rec = Frame::from_parts(&[Vec3::new(5.0, 0.0, 0.0)], &[Element::C], &[0.0]);
        assert_eq!(lj_naive_cutoff(&lig, &rec, &table, 1.0), 0.0);
    }

    #[test]
    fn cutoff_approximation_converges() {
        // Larger cutoffs approach the all-pairs score monotonically-ish.
        let (lig, rec, table) = frames(800, 20, 23);
        let full = lj_naive(&lig, &rec, &table);
        let e8 = lj_naive_cutoff(&lig, &rec, &table, 8.0);
        let e16 = lj_naive_cutoff(&lig, &rec, &table, 16.0);
        assert!((e16 - full).abs() < (e8 - full).abs() + 1e-9);
    }

    #[test]
    fn frame_from_molecule_roundtrip() {
        let m = vsmol::Molecule::new(
            "m",
            vec![
                Atom::with_charge(Vec3::new(1.0, 2.0, 3.0), Element::N, -0.3),
                Atom::with_charge(Vec3::new(-1.0, 0.0, 0.5), Element::C, 0.1),
            ],
        );
        let f = Frame::from_molecule(&m);
        assert_eq!(f.len(), 2);
        assert_eq!(f.x, vec![1.0, -1.0]);
        assert_eq!(f.elem, vec![Element::N.index() as u8, Element::C.index() as u8]);
        assert_eq!(f.charge, vec![-0.3, 0.1]);
    }

    #[test]
    fn score_is_rotation_invariant_for_symmetric_system() {
        // Rotating BOTH frames together must not change the score.
        let mut rng = RngStream::from_seed(31);
        let rot = rng.rotation();
        let lig_m = synth::synth_ligand("l", 8, 3);
        let rec_m = synth::synth_receptor("r", 200, 4);
        let table = PairTable::new(&LjTable::standard());
        let tf = vsmath::RigidTransform::from_rotation(rot);
        let a = lj_naive(&Frame::from_molecule(&lig_m), &Frame::from_molecule(&rec_m), &table);
        let b = lj_naive(
            &Frame::from_molecule(&lig_m.transformed(&tf)),
            &Frame::from_molecule(&rec_m.transformed(&tf)),
            &table,
        );
        assert!((a - b).abs() < 1e-6 * a.abs().max(1.0), "{a} vs {b}");
    }
}
