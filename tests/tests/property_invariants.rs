//! Property-based tests (proptest) on the core data structures and
//! invariants across the workspace.

use proptest::prelude::*;
use vsched::{equal_split, percent_factors, proportional_split};
use vsmath::{Quat, RigidTransform, RngStream, SpatialGrid, Vec3};
use vsmol::{Atom, Element, LjTable, Molecule};
use vsscore::lj::{lj_naive, Frame, PairTable};
use vsscore::run::{fused_run, RunFrame};

fn arb_vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_quat() -> impl Strategy<Value = Quat> {
    (arb_vec3(1.0), -3.1..3.1f64).prop_map(|(axis, angle)| {
        Quat::from_axis_angle(if axis.norm() < 1e-6 { Vec3::X } else { axis }, angle)
    })
}

fn arb_element() -> impl Strategy<Value = Element> {
    (0..Element::COUNT).prop_map(|i| Element::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- geometry ----

    #[test]
    fn rotation_preserves_length(q in arb_quat(), v in arb_vec3(100.0)) {
        prop_assert!((q.rotate(v).norm() - v.norm()).abs() < 1e-8);
    }

    #[test]
    fn rotation_roundtrip(q in arb_quat(), v in arb_vec3(100.0)) {
        let back = q.conjugate().rotate(q.rotate(v));
        prop_assert!((back - v).max_abs_component() < 1e-8);
    }

    #[test]
    fn quat_composition_associative_on_vectors(
        a in arb_quat(), b in arb_quat(), v in arb_vec3(10.0)
    ) {
        let lhs = (a * b).rotate(v);
        let rhs = a.rotate(b.rotate(v));
        prop_assert!((lhs - rhs).max_abs_component() < 1e-8);
    }

    #[test]
    fn transform_inverse_roundtrip(
        q in arb_quat(), t in arb_vec3(50.0), p in arb_vec3(50.0)
    ) {
        let tf = RigidTransform::new(q, t);
        let back = tf.inverse().apply(tf.apply(p));
        prop_assert!((back - p).max_abs_component() < 1e-7);
    }

    #[test]
    fn transform_preserves_distances(
        q in arb_quat(), t in arb_vec3(50.0), a in arb_vec3(20.0), b in arb_vec3(20.0)
    ) {
        let tf = RigidTransform::new(q, t);
        prop_assert!((tf.apply(a).dist(tf.apply(b)) - a.dist(b)).abs() < 1e-8);
    }

    // ---- spatial grid vs brute force ----

    #[test]
    fn grid_query_matches_brute_force(
        pts in proptest::collection::vec(arb_vec3(15.0), 1..80),
        q in arb_vec3(20.0),
        r in 0.1..8.0f64,
        cell in 0.5..5.0f64,
    ) {
        let grid = SpatialGrid::build(&pts, cell);
        let mut got = grid.within(q, r);
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist_sq(q) <= r * r)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    // ---- RNG streams ----

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>(), id in any::<u64>()) {
        let mut a = RngStream::derive(seed, id);
        let mut b = RngStream::derive(seed, id);
        for _ in 0..8 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn rng_uniform_range_respects_bounds(seed in any::<u64>(), lo in -100.0..0.0f64, width in 0.001..100.0f64) {
        let mut r = RngStream::from_seed(seed);
        let hi = lo + width;
        for _ in 0..16 {
            let x = r.uniform_range(lo, hi);
            prop_assert!(x >= lo && x < hi);
        }
    }

    // ---- scoring ----

    /// The tiled kernel is [`fused_run`]: it sweeps each element run of the
    /// receptor in `TILE`-atom blocks.
    #[test]
    fn tiled_kernel_matches_naive(
        rec_pts in proptest::collection::vec((arb_vec3(20.0), arb_element()), 1..200),
        lig_pts in proptest::collection::vec((arb_vec3(20.0), arb_element()), 1..20),
    ) {
        let table = PairTable::new(&LjTable::standard());
        let to_frame = |pts: &[(Vec3, Element)]| {
            let mol = Molecule::new(
                "m",
                pts.iter().map(|(p, e)| Atom::new(*p, *e)).collect(),
            );
            Frame::from_molecule(&mol)
        };
        let rec = to_frame(&rec_pts);
        let lig = to_frame(&lig_pts);
        let a = lj_naive(&lig, &rec, &table);
        let b = fused_run(&lig, &RunFrame::from_frame(&rec), &table, None, None);
        prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{} vs {}", a, b);
    }

    #[test]
    fn lj_energy_is_finite_everywhere(
        a in arb_element(), b in arb_element(), r_sq in 0.0..1e6f64
    ) {
        let t = LjTable::standard();
        let (s2, e4) = t.pair(a, b);
        let e = vsscore::lj::lj_pair(s2, e4, r_sq);
        prop_assert!(e.is_finite());
    }

    // ---- partitioning ----

    #[test]
    fn equal_split_conserves_items(items in 0u64..1_000_000, n in 1usize..32) {
        let s = equal_split(items, n);
        prop_assert_eq!(s.iter().sum::<u64>(), items);
        let max = *s.iter().max().unwrap();
        let min = *s.iter().min().unwrap();
        prop_assert!(max - min <= 1, "equal split uneven: {:?}", s);
    }

    #[test]
    fn proportional_split_conserves_items(
        items in 0u64..1_000_000,
        weights in proptest::collection::vec(0.001..100.0f64, 1..16),
    ) {
        let s = proportional_split(items, &weights);
        prop_assert_eq!(s.iter().sum::<u64>(), items);
        // Each share within 1 of the exact proportional value.
        let total: f64 = weights.iter().sum();
        for (share, w) in s.iter().zip(&weights) {
            let exact = items as f64 * w / total;
            prop_assert!((*share as f64 - exact).abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn percent_factors_normalized(
        times in proptest::collection::vec(0.001..1000.0f64, 1..16),
    ) {
        let p = percent_factors(&times);
        prop_assert!(p.iter().all(|&x| x > 0.0 && x <= 1.0 + 1e-12));
        prop_assert!(p.iter().any(|&x| (x - 1.0).abs() < 1e-12), "slowest must be 1.0");
    }

    // ---- conformations ----

    #[test]
    fn perturbation_bounded(
        seed in any::<u64>(),
        shift in 0.0..5.0f64,
        angle in 0.0..1.5f64,
    ) {
        let mut rng = RngStream::from_seed(seed);
        let spot = vsmol::Spot {
            id: 0,
            center: Vec3::ZERO,
            normal: Vec3::Z,
            radius: 10.0,
            anchor_atom: 0,
        };
        let c = vsmol::Conformation::random_at(&spot, &mut rng);
        let p = c.perturbed(shift, angle, &mut rng);
        prop_assert!(c.translation_distance(&p) <= shift + 1e-9);
        prop_assert!(c.rotation_distance(&p) <= angle + 1e-9);
    }

    #[test]
    fn clamped_conformations_stay_in_spot(
        seed in any::<u64>(), tx in -100.0..100.0f64, ty in -100.0..100.0f64
    ) {
        let mut rng = RngStream::from_seed(seed);
        let spot = vsmol::Spot {
            id: 0,
            center: Vec3::new(5.0, 5.0, 5.0),
            normal: Vec3::Z,
            radius: 3.0,
            anchor_atom: 0,
        };
        let c = vsmol::Conformation::new(
            RigidTransform::new(rng.rotation(), Vec3::new(tx, ty, 0.0)),
            0,
        );
        let clamped = c.clamped_to(&spot);
        prop_assert!(clamped.pose.translation.dist(spot.center) <= spot.radius + 1e-9);
    }
}
