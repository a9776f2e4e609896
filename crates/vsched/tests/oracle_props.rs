//! Property-based tests for the learned cost oracle's numerics
//! (DESIGN.md §15): fits are deterministic (same observation order →
//! bit-identical coefficients), predictions converge to a synthetic
//! device's true throughput, and the cold-start prior reproduces today's
//! frozen Equation 1 split *exactly* — bitwise — when no observations
//! exist.

use gpusim::KernelClass;
use proptest::prelude::*;
use vsched::{proportional_split, shares_from_times, CostOracle};

const PS: KernelClass = KernelClass::PairSweep;

fn arb_times(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.001f64..100.0, n..n + 1)
}

/// Observation streams: `(device, units, seconds)` with positive finite
/// measurements over a 3-device node.
fn arb_observations() -> impl Strategy<Value = Vec<(usize, f64, f64)>> {
    proptest::collection::vec((0usize..3, 1.0f64..1e6, 0.001f64..1e3), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fits_are_deterministic(obs in arb_observations(), times in arb_times(3)) {
        // Same observation order must produce bit-identical coefficients —
        // the determinism contract the service's cross-campaign sharing
        // relies on.
        let mut a = CostOracle::new(3);
        let mut b = CostOracle::new(3);
        let units = vec![1000.0; 3];
        a.observe_warmup(PS, &times, &units);
        b.observe_warmup(PS, &times, &units);
        for &(d, u, s) in &obs {
            let ua = a.observe(d, PS, u, s);
            let ub = b.observe(d, PS, u, s);
            prop_assert_eq!(ua.predicted.to_bits(), ub.predicted.to_bits());
            prop_assert_eq!(ua.residual.to_bits(), ub.residual.to_bits());
            prop_assert_eq!(ua.refit, ub.refit);
        }
        let wa = a.seed_weights(PS).unwrap();
        let wb = b.seed_weights(PS).unwrap();
        for (x, y) in wa.iter().zip(&wb) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "coefficients diverged");
        }
        for (((da, ca), fa), ((db, cb), fb)) in a.fits().iter().zip(b.fits().iter()) {
            prop_assert_eq!((da, ca), (db, cb));
            prop_assert_eq!(fa.rate.to_bits(), fb.rate.to_bits());
            prop_assert_eq!(fa.observations, fb.observations);
            prop_assert_eq!(fa.refits, fb.refits);
        }
    }

    #[test]
    fn predictions_converge_to_true_throughput(
        rate in 1.0f64..1e6,
        units in 100.0f64..1e5,
        prior_rate in 1.0f64..1e6,
    ) {
        // A synthetic device with constant true throughput `rate`: after N
        // noise-free observations the decayed fit must predict within 1%,
        // regardless of how wrong the warm-up prior was.
        let mut o = CostOracle::new(1);
        o.observe_warmup(PS, &[1.0], &[prior_rate]);
        // decay 0.25 halves prior error every ~2.4 obs; drift detection
        // snaps large errors immediately. 40 observations is plenty.
        for _ in 0..40 {
            o.observe(0, PS, units, units / rate);
        }
        let predicted = o.predict_seconds(0, PS, units).unwrap();
        let truth = units / rate;
        prop_assert!(
            (predicted - truth).abs() <= 0.01 * truth,
            "predicted {predicted} vs true {truth} (prior rate {prior_rate})"
        );
    }

    #[test]
    fn cold_start_split_is_exactly_equation_one(
        times in arb_times(4),
        items in 1u64..2_000_000,
    ) {
        // Acceptance criterion: with zero observations the oracle's split
        // equals today's `warmup_times` + `proportional_split` output
        // exactly. The weights are required to be bit-identical, so the
        // integer split over them is identical too.
        let mut o = CostOracle::new(4);
        o.observe_warmup(PS, &times, &[1000.0; 4]);
        let w = o.seed_weights(PS).unwrap();
        let frozen = shares_from_times(&times);
        for (a, b) in w.iter().zip(&frozen) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "cold-start weight drifted from Eq. 1");
        }
        prop_assert_eq!(proportional_split(items, &w), proportional_split(items, &frozen));
    }

    #[test]
    fn rates_stay_finite_and_positive(obs in arb_observations()) {
        let mut o = CostOracle::new(3);
        for &(d, u, s) in &obs {
            let up = o.observe(d, PS, u, s);
            prop_assert!(up.predicted.is_finite() && up.predicted > 0.0);
            prop_assert!(up.residual.is_finite());
        }
        for (_, f) in o.fits() {
            prop_assert!(f.rate.is_finite() && f.rate > 0.0, "rate {}", f.rate);
        }
    }
}
