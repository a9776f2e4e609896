//! Analytic gradients of the scoring function.
//!
//! AutoDock's Lamarckian genetic algorithm (the paper's reference \[24\])
//! improves individuals with gradient-informed local search; this module
//! supplies the gradients: the net force and torque the receptor exerts on
//! a posed rigid ligand. The `metaheur::ImproveStrategy::Lamarckian`
//! improver descends them.
//!
//! Derivatives (all in squared-distance form, matching the kernels):
//!
//! - LJ: `E = 4ε[(σ²/r²)⁶ − (σ²/r²)³]`, so
//!   `dE/dr² = −3·4ε·s6·(2·s6 − 1)/r²` with `s6 = (σ²/r²)³`;
//! - Coulomb (distance-dependent dielectric): `E = k q q′/(ε_s r²)`, so
//!   `dE/dr² = −k q q′/(ε_s r⁴)`.
//!
//! Inside the clamped core (`r² < MIN_DIST_SQ`) the energy is constant, so
//! the gradient is zero — local search escapes clashes by the stochastic
//! moves instead of exploding gradients.

use crate::coulomb::COULOMB_K;
use crate::lj::{Frame, PairTable, MIN_DIST_SQ};
use crate::run::RunFrame;
use vsmath::Vec3;

/// Net generalized force on a rigid ligand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidGradient {
    /// Net force (negative energy gradient w.r.t. translation).
    pub force: Vec3,
    /// Net torque about the ligand centroid.
    pub torque: Vec3,
}

impl RigidGradient {
    pub const ZERO: RigidGradient = RigidGradient { force: Vec3::ZERO, torque: Vec3::ZERO };
}

/// LJ pair-energy derivative w.r.t. squared distance.
#[inline]
fn lj_de_dr2(sigma_sq: f64, four_eps: f64, r_sq: f64) -> f64 {
    if r_sq < MIN_DIST_SQ {
        return 0.0;
    }
    let q = sigma_sq / r_sq;
    let s6 = q * q * q;
    -3.0 * four_eps * s6 * (2.0 * s6 - 1.0) / r_sq
}

/// Coulomb (distance-dependent dielectric) derivative w.r.t. squared
/// distance; zero inside the clamp.
#[inline]
fn coulomb_de_dr2(qi: f64, qj: f64, r_sq: f64, dielectric_scale: f64) -> f64 {
    if r_sq < MIN_DIST_SQ {
        return 0.0;
    }
    -COULOMB_K * qi * qj / (dielectric_scale * r_sq * r_sq)
}

/// Net force and torque (about `center`) on the posed ligand frame `lig`
/// from receptor frame `rec`, under LJ plus (optionally) Coulomb.
///
/// `lig` must already be in receptor space (pose applied).
pub fn rigid_gradient(
    lig: &Frame,
    rec: &Frame,
    table: &PairTable,
    center: Vec3,
    dielectric: Option<f64>,
) -> RigidGradient {
    let mut force = Vec3::ZERO;
    let mut torque = Vec3::ZERO;
    for i in 0..lig.len() {
        let p = Vec3::new(lig.x[i], lig.y[i], lig.z[i]);
        let le = lig.elem[i];
        let qi = lig.charge[i];
        let mut f_atom = Vec3::ZERO;
        for j in 0..rec.len() {
            let d = p - Vec3::new(rec.x[j], rec.y[j], rec.z[j]);
            let r_sq = d.norm_sq();
            let (s2, e4) = table.lookup(le, rec.elem[j]);
            let mut de_dr2 = lj_de_dr2(s2, e4, r_sq);
            if let Some(eps) = dielectric {
                de_dr2 += coulomb_de_dr2(qi, rec.charge[j], r_sq, eps);
            }
            // F = −∇E = −dE/dr² · 2 d.
            f_atom -= d * (2.0 * de_dr2);
        }
        force += f_atom;
        torque += (p - center).cross(f_atom);
    }
    RigidGradient { force, torque }
}

/// [`rigid_gradient`] over the element-run receptor layout: `(σ², 4ε)`
/// hoist out per (ligand atom × run) instead of a per-pair table gather.
/// Same force field, different (still deterministic) summation order; the
/// net force/torque agrees with [`rigid_gradient`] to floating-point
/// reassociation slack.
pub fn rigid_gradient_run(
    lig: &Frame,
    rec: &RunFrame,
    table: &PairTable,
    center: Vec3,
    dielectric: Option<f64>,
) -> RigidGradient {
    let rf = rec.frame();
    let mut force = Vec3::ZERO;
    let mut torque = Vec3::ZERO;
    for i in 0..lig.len() {
        let p = Vec3::new(lig.x[i], lig.y[i], lig.z[i]);
        let le = lig.elem[i];
        let qi = lig.charge[i];
        let mut f_atom = Vec3::ZERO;
        for run in rec.runs() {
            let (s2, e4) = table.lookup(le, run.elem);
            for j in run.start..run.start + run.len {
                let d = p - Vec3::new(rf.x[j], rf.y[j], rf.z[j]);
                let r_sq = d.norm_sq();
                let mut de_dr2 = lj_de_dr2(s2, e4, r_sq);
                if let Some(eps) = dielectric {
                    de_dr2 += coulomb_de_dr2(qi, rf.charge[j], r_sq, eps);
                }
                f_atom -= d * (2.0 * de_dr2);
            }
        }
        force += f_atom;
        torque += (p - center).cross(f_atom);
    }
    RigidGradient { force, torque }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coulomb::coulomb_naive;
    use crate::lj::{lj_naive, lj_pair};
    use vsmath::{Quat, RigidTransform, RngStream};
    use vsmol::{synth, Element, LjTable, Molecule};

    fn frames() -> (Molecule, Frame, PairTable) {
        let rec = synth::synth_receptor("r", 300, 1);
        let rec_frame = Frame::from_molecule(&rec);
        (rec, rec_frame, PairTable::new(&LjTable::standard()))
    }

    fn posed_ligand(lig: &Molecule, pose: &RigidTransform) -> Frame {
        Frame::from_molecule(&lig.centered().transformed(pose))
    }

    /// Finite-difference check of the force against the energy.
    #[test]
    fn force_matches_finite_difference() {
        let (_, rec_frame, table) = frames();
        let lig = synth::synth_ligand("l", 8, 2);
        let mut rng = RngStream::from_seed(3);
        for trial in 0..5 {
            let pose = RigidTransform::new(rng.rotation(), rng.unit_vector() * 19.0);
            let lf = posed_ligand(&lig, &pose);
            let g = rigid_gradient(&lf, &rec_frame, &table, pose.translation, None);

            let h = 1e-6;
            for (axis, fa) in [(Vec3::X, g.force.x), (Vec3::Y, g.force.y), (Vec3::Z, g.force.z)] {
                let ep = lj_naive(
                    &posed_ligand(
                        &lig,
                        &RigidTransform::new(pose.rotation, pose.translation + axis * h),
                    ),
                    &rec_frame,
                    &table,
                );
                let em = lj_naive(
                    &posed_ligand(
                        &lig,
                        &RigidTransform::new(pose.rotation, pose.translation - axis * h),
                    ),
                    &rec_frame,
                    &table,
                );
                let numeric = -(ep - em) / (2.0 * h);
                let scale = numeric.abs().max(fa.abs()).max(1e-3);
                assert!(
                    (numeric - fa).abs() / scale < 1e-3,
                    "trial {trial}: force {fa} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn torque_matches_finite_difference() {
        let (_, rec_frame, table) = frames();
        let lig = synth::synth_ligand("l", 8, 2);
        let mut rng = RngStream::from_seed(4);
        let pose = RigidTransform::new(rng.rotation(), rng.unit_vector() * 19.5);
        let lf = posed_ligand(&lig, &pose);
        let g = rigid_gradient(&lf, &rec_frame, &table, pose.translation, None);

        let h = 1e-6;
        for (axis, ta) in [(Vec3::X, g.torque.x), (Vec3::Y, g.torque.y), (Vec3::Z, g.torque.z)] {
            let rot = |angle: f64| {
                RigidTransform::new(
                    (Quat::from_axis_angle(axis, angle) * pose.rotation).renormalize(),
                    pose.translation,
                )
            };
            let ep = lj_naive(&posed_ligand(&lig, &rot(h)), &rec_frame, &table);
            let em = lj_naive(&posed_ligand(&lig, &rot(-h)), &rec_frame, &table);
            let numeric = -(ep - em) / (2.0 * h);
            let scale = numeric.abs().max(ta.abs()).max(1e-3);
            assert!((numeric - ta).abs() / scale < 1e-3, "torque {ta} vs numeric {numeric}");
        }
    }

    #[test]
    fn coulomb_gradient_matches_finite_difference() {
        let (_, rec_frame, table) = frames();
        let lig = synth::synth_ligand("l", 6, 5);
        let mut rng = RngStream::from_seed(6);
        let pose = RigidTransform::new(rng.rotation(), rng.unit_vector() * 20.0);
        let lf = posed_ligand(&lig, &pose);
        let g = rigid_gradient(&lf, &rec_frame, &table, pose.translation, Some(4.0));

        let energy = |p: &RigidTransform| {
            let f = posed_ligand(&lig, p);
            lj_naive(&f, &rec_frame, &table) + coulomb_naive(&f, &rec_frame, 4.0)
        };
        let h = 1e-6;
        let ep = energy(&RigidTransform::new(pose.rotation, pose.translation + Vec3::X * h));
        let em = energy(&RigidTransform::new(pose.rotation, pose.translation - Vec3::X * h));
        let numeric = -(ep - em) / (2.0 * h);
        let scale = numeric.abs().max(g.force.x.abs()).max(1e-3);
        assert!((numeric - g.force.x).abs() / scale < 1e-3, "{numeric} vs {}", g.force.x);
    }

    #[test]
    fn run_gradient_matches_gather_gradient() {
        let (_, rec_frame, table) = frames();
        let runs = RunFrame::from_frame(&rec_frame);
        let lig = synth::synth_ligand("l", 8, 2);
        let mut rng = RngStream::from_seed(7);
        for trial in 0..5 {
            let pose = RigidTransform::new(rng.rotation(), rng.unit_vector() * 19.0);
            let lf = posed_ligand(&lig, &pose);
            for dielectric in [None, Some(4.0)] {
                let a = rigid_gradient(&lf, &rec_frame, &table, pose.translation, dielectric);
                let b = rigid_gradient_run(&lf, &runs, &table, pose.translation, dielectric);
                let scale = a.force.norm().max(1e-6);
                assert!(
                    (a.force - b.force).norm() / scale < 1e-9,
                    "trial {trial}: force {:?} vs {:?}",
                    a.force,
                    b.force
                );
                let tscale = a.torque.norm().max(1e-6);
                assert!(
                    (a.torque - b.torque).norm() / tscale < 1e-9,
                    "trial {trial}: torque {:?} vs {:?}",
                    a.torque,
                    b.torque
                );
            }
        }
    }

    #[test]
    fn gradient_zero_inside_clamp() {
        assert_eq!(lj_de_dr2(9.0, 1.0, 0.1), 0.0);
        assert_eq!(coulomb_de_dr2(1.0, 1.0, 0.1, 4.0), 0.0);
        // And continuity outside: tiny but nonzero just above the clamp.
        assert_ne!(lj_de_dr2(9.0, 1.0, MIN_DIST_SQ + 1e-6), 0.0);
    }

    #[test]
    fn attractive_pair_pulls_together() {
        // Two carbons at r > r_min attract: force on the ligand atom points
        // toward the receptor atom.
        let table = PairTable::new(&LjTable::standard());
        let lig = Frame::from_parts(&[Vec3::new(5.0, 0.0, 0.0)], &[Element::C], &[0.0]);
        let rec = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        let g = rigid_gradient(&lig, &rec, &table, Vec3::new(5.0, 0.0, 0.0), None);
        assert!(g.force.x < 0.0, "attraction should pull toward origin: {:?}", g.force);
    }

    #[test]
    fn repulsive_pair_pushes_apart() {
        let table = PairTable::new(&LjTable::standard());
        let p = LjTable::standard().pair(Element::C, Element::C).0.sqrt(); // σ
        let lig = Frame::from_parts(&[Vec3::new(p * 0.9, 0.0, 0.0)], &[Element::C], &[0.0]);
        let rec = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        let g = rigid_gradient(&lig, &rec, &table, Vec3::new(p * 0.9, 0.0, 0.0), None);
        assert!(g.force.x > 0.0, "repulsion should push away: {:?}", g.force);
    }

    #[test]
    fn force_at_minimum_is_zero() {
        let table = PairTable::new(&LjTable::standard());
        let sigma = LjTable::standard().pair(Element::C, Element::C).0.sqrt();
        let r_min = 2f64.powf(1.0 / 6.0) * sigma;
        let lig = Frame::from_parts(&[Vec3::new(r_min, 0.0, 0.0)], &[Element::C], &[0.0]);
        let rec = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        let g = rigid_gradient(&lig, &rec, &table, Vec3::new(r_min, 0.0, 0.0), None);
        assert!(g.force.norm() < 1e-10, "force at minimum: {:?}", g.force);
        let _ = lj_pair; // keep reference import alive
    }

    #[test]
    fn single_centered_atom_has_no_torque() {
        let table = PairTable::new(&LjTable::standard());
        let c = Vec3::new(4.0, 0.0, 0.0);
        let lig = Frame::from_parts(&[c], &[Element::C], &[0.0]);
        let rec = Frame::from_parts(&[Vec3::ZERO], &[Element::C], &[0.0]);
        let g = rigid_gradient(&lig, &rec, &table, c, None);
        assert!(g.torque.norm() < 1e-12);
    }
}
