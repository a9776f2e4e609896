//! Hydrogen-bond term — a scoring-function extension (§6: "many other
//! types of scoring functions still to be explored").
//!
//! Crystal structures carry no hydrogens, so the standard
//! heavy-atom-geometry approximation is used: donor/acceptor-capable
//! heteroatom pairs (N, O) interact through a 10–12 potential
//!
//! ```text
//! E_hb(r) = ε_hb [5 (σ_hb/r)¹² − 6 (σ_hb/r)¹⁰]
//! ```
//!
//! with its minimum of exactly `−ε_hb` at `r = σ_hb ≈ 2.9 Å` — the
//! canonical N/O···N/O hydrogen-bond distance. The 10–12 form is the
//! classic AutoDock/ECEPP hydrogen-bond function.

use crate::lanes::Lane;
use crate::lj::{clamped, Frame};
use vsmol::Element;

/// Equilibrium heavy-atom H-bond distance, Å.
pub const HB_SIGMA: f64 = 2.9;

/// Default well depth, kcal/mol.
pub const HB_EPSILON: f64 = 1.0;

/// Whether an element can participate in (heavy-atom) hydrogen bonding.
#[inline]
pub fn is_hbond_capable(e: Element) -> bool {
    matches!(e, Element::N | Element::O)
}

/// [`is_hbond_capable`] by dense element index ([`Element::index`]) — the
/// form the frame kernels use. Because capability is an element property,
/// it is constant over an element run, which is what lets the fused run
/// kernel gate whole runs instead of testing every pair.
#[inline]
pub fn is_hbond_capable_idx(elem: u8) -> bool {
    elem == Element::N.index() as u8 || elem == Element::O.index() as u8
}

/// `σ_hb²`.
pub(crate) const HB_SIGMA_SQ: f64 = HB_SIGMA * HB_SIGMA;

/// `ε_hb (5q⁶ − 6q⁵)` from `q = (σ_hb/r)²`.
#[inline(always)]
pub(crate) fn hbond_from_q<V: Lane>(epsilon: f64, q: V) -> V {
    let q5 = q * q * q * q * q;
    V::splat(epsilon) * (V::splat(5.0) * q5 * q - V::splat(6.0) * q5)
}

/// 10–12 pair energy for a well depth `epsilon` at the
/// [`clamped`](crate::lj::clamped) squared distance `r2`, `q` by a division
/// of its own. Written over [`Lane`]: [`hbond_pair`] and the grid build's
/// lanes are this one formula.
#[inline(always)]
pub(crate) fn hbond_at<V: Lane>(epsilon: f64, r2: V) -> V {
    hbond_from_q(epsilon, V::splat(HB_SIGMA_SQ) / r2)
}

/// 10–12 pair energy at squared distance `r_sq` (clamped like the LJ
/// kernel), for a well depth `epsilon`.
#[inline]
pub fn hbond_pair(epsilon: f64, r_sq: f64) -> f64 {
    hbond_at(epsilon, clamped(r_sq))
}

/// All-pairs hydrogen-bond energy between two frames; only N/O pairs
/// contribute.
pub fn hbond_naive(lig: &Frame, rec: &Frame, epsilon: f64) -> f64 {
    assert!(epsilon >= 0.0, "well depth must be non-negative");
    if epsilon == 0.0 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..lig.len() {
        if !is_hbond_capable_idx(lig.elem[i]) {
            continue;
        }
        let (lx, ly, lz) = (lig.x[i], lig.y[i], lig.z[i]);
        for j in 0..rec.len() {
            if !is_hbond_capable_idx(rec.elem[j]) {
                continue;
            }
            let dx = lx - rec.x[j];
            let dy = ly - rec.y[j];
            let dz = lz - rec.z[j];
            total += hbond_pair(epsilon, dx * dx + dy * dy + dz * dz);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lj::MIN_DIST_SQ;
    use vsmath::Vec3;

    #[test]
    fn minimum_at_sigma_with_depth_epsilon() {
        let e = hbond_pair(1.0, HB_SIGMA * HB_SIGMA);
        assert!((e + 1.0).abs() < 1e-12, "minimum should be -eps: {e}");
        // Neighborhood is higher.
        assert!(hbond_pair(1.0, (HB_SIGMA * 1.1).powi(2)) > e);
        assert!(hbond_pair(1.0, (HB_SIGMA * 0.9).powi(2)) > e);
    }

    #[test]
    fn repulsive_at_short_range_attractive_at_medium() {
        assert!(hbond_pair(1.0, (HB_SIGMA * 0.7).powi(2)) > 0.0);
        assert!(hbond_pair(1.0, (HB_SIGMA * 1.3).powi(2)) < 0.0);
    }

    #[test]
    fn decays_to_zero() {
        assert!(hbond_pair(1.0, (HB_SIGMA * 10.0).powi(2)).abs() < 1e-6);
    }

    #[test]
    fn clamped_core_is_finite() {
        let e = hbond_pair(1.0, 0.0);
        assert!(e.is_finite());
        assert_eq!(e, hbond_pair(1.0, MIN_DIST_SQ));
    }

    #[test]
    fn capability_set() {
        assert!(is_hbond_capable(Element::N));
        assert!(is_hbond_capable(Element::O));
        assert!(!is_hbond_capable(Element::C));
        assert!(!is_hbond_capable(Element::S));
        assert!(!is_hbond_capable(Element::H));
    }

    fn frame_of(specs: &[(Vec3, Element)]) -> Frame {
        let pos: Vec<Vec3> = specs.iter().map(|(p, _)| *p).collect();
        let el: Vec<Element> = specs.iter().map(|(_, e)| *e).collect();
        let q = vec![0.0; specs.len()];
        Frame::from_parts(&pos, &el, &q)
    }

    #[test]
    fn only_no_pairs_contribute() {
        let lig = frame_of(&[(Vec3::ZERO, Element::C)]);
        let rec = frame_of(&[(Vec3::new(HB_SIGMA, 0.0, 0.0), Element::O)]);
        assert_eq!(hbond_naive(&lig, &rec, 1.0), 0.0, "carbon never H-bonds");

        let lig2 = frame_of(&[(Vec3::ZERO, Element::N)]);
        let e = hbond_naive(&lig2, &rec, 1.0);
        assert!((e + 1.0).abs() < 1e-12, "N···O at sigma: {e}");
    }

    #[test]
    fn energy_scales_with_epsilon() {
        let lig = frame_of(&[(Vec3::ZERO, Element::O)]);
        let rec = frame_of(&[(Vec3::new(3.2, 0.0, 0.0), Element::N)]);
        let e1 = hbond_naive(&lig, &rec, 1.0);
        let e2 = hbond_naive(&lig, &rec, 2.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-12);
        assert_eq!(hbond_naive(&lig, &rec, 0.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_epsilon_panics() {
        let f = frame_of(&[(Vec3::ZERO, Element::O)]);
        hbond_naive(&f, &f, -1.0);
    }
}
