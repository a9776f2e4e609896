//! Coulomb (electrostatic) term.
//!
//! The paper's baseline scoring function is Lennard-Jones only (§3.1), but
//! §2.1 identifies Coulomb as the other relevant non-bonded potential and
//! §6 calls richer scoring functions future work. This module implements
//! the standard docking form with a distance-dependent dielectric
//! `ε(r) = ε_scale · r`, giving pair energies `k·qᵢqⱼ / (ε_scale·r²)` —
//! conveniently sqrt-free, like the LJ kernel.

use crate::lanes::Lane;
use crate::lj::{Frame, MIN_DIST_SQ};

/// Coulomb constant in kcal·Å/(mol·e²).
pub const COULOMB_K: f64 = 332.0636;

/// Default dielectric scale for the distance-dependent dielectric.
pub const DEFAULT_DIELECTRIC: f64 = 4.0;

/// Pair energy with distance-dependent dielectric at squared distance
/// `r_sq` (clamped like the LJ kernel).
#[inline(always)]
pub fn coulomb_pair(qi: f64, qj: f64, r_sq: f64, dielectric_scale: f64) -> f64 {
    let r2 = if r_sq < MIN_DIST_SQ { MIN_DIST_SQ } else { r_sq };
    COULOMB_K * qi * qj / (dielectric_scale * r2)
}

/// Electrostatic potential per unit charge of a source with `kq = k·q`
/// under the distance-dependent dielectric, at squared distance `r_sq`:
/// `k·q / (ε_scale · max(r², MIN_DIST_SQ))` — what a potential grid stores.
/// Written over [`Lane`] for the grid build. Its clamp is a `max`, which
/// replaces a NaN distance by the floor where [`coulomb_pair`]'s keeps it.
#[inline(always)]
pub(crate) fn potential_at<V: Lane>(kq: f64, dielectric_scale: f64, r_sq: V) -> V {
    let floor = V::splat(MIN_DIST_SQ);
    V::splat(kq) / (V::splat(dielectric_scale) * floor.select_lt(r_sq, r_sq, floor))
}

/// All-pairs electrostatic energy between two frames.
pub fn coulomb_naive(lig: &Frame, rec: &Frame, dielectric_scale: f64) -> f64 {
    assert!(dielectric_scale > 0.0, "dielectric scale must be positive");
    let mut total = 0.0;
    for i in 0..lig.len() {
        let (lx, ly, lz, qi) = (lig.x[i], lig.y[i], lig.z[i], lig.charge[i]);
        if qi == 0.0 {
            continue;
        }
        let mut acc = 0.0;
        for j in 0..rec.len() {
            let dx = lx - rec.x[j];
            let dy = ly - rec.y[j];
            let dz = lz - rec.z[j];
            let r_sq = dx * dx + dy * dy + dz * dz;
            acc += coulomb_pair(qi, rec.charge[j], r_sq, dielectric_scale);
        }
        total += acc;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmath::Vec3;
    use vsmol::Element;

    fn point_frame(p: Vec3, q: f64) -> Frame {
        Frame::from_parts(&[p], &[Element::C], &[q])
    }

    #[test]
    fn opposite_charges_attract() {
        let a = point_frame(Vec3::ZERO, 1.0);
        let b = point_frame(Vec3::new(3.0, 0.0, 0.0), -1.0);
        assert!(coulomb_naive(&a, &b, DEFAULT_DIELECTRIC) < 0.0);
    }

    #[test]
    fn like_charges_repel() {
        let a = point_frame(Vec3::ZERO, 0.5);
        let b = point_frame(Vec3::new(3.0, 0.0, 0.0), 0.5);
        assert!(coulomb_naive(&a, &b, DEFAULT_DIELECTRIC) > 0.0);
    }

    #[test]
    fn energy_magnitude_matches_formula() {
        let a = point_frame(Vec3::ZERO, 1.0);
        let b = point_frame(Vec3::new(2.0, 0.0, 0.0), 1.0);
        let got = coulomb_naive(&a, &b, 4.0);
        let want = COULOMB_K * 1.0 * 1.0 / (4.0 * 4.0);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn neutral_atoms_contribute_nothing() {
        let a = point_frame(Vec3::ZERO, 0.0);
        let b = point_frame(Vec3::new(1.0, 0.0, 0.0), 5.0);
        assert_eq!(coulomb_naive(&a, &b, 4.0), 0.0);
    }

    #[test]
    fn decays_with_distance() {
        let a = point_frame(Vec3::ZERO, 1.0);
        let near = point_frame(Vec3::new(2.0, 0.0, 0.0), 1.0);
        let far = point_frame(Vec3::new(8.0, 0.0, 0.0), 1.0);
        assert!(
            coulomb_naive(&a, &near, 4.0) > coulomb_naive(&a, &far, 4.0),
            "1/r² decay violated"
        );
    }

    #[test]
    fn overlap_is_finite() {
        let a = point_frame(Vec3::ZERO, 1.0);
        let b = point_frame(Vec3::ZERO, 1.0);
        let e = coulomb_naive(&a, &b, 4.0);
        assert!(e.is_finite());
        assert_eq!(e, COULOMB_K / (4.0 * MIN_DIST_SQ));
    }

    #[test]
    #[should_panic]
    fn zero_dielectric_panics() {
        let a = point_frame(Vec3::ZERO, 1.0);
        coulomb_naive(&a, &a, 0.0);
    }
}
