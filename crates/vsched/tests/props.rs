//! Property-based tests for the partition functions and the work-stealing
//! drain: every split must conserve work exactly and stay within one item
//! of the ideal shares, for arbitrary item counts and weight vectors —
//! including the degenerate weight vectors `proportional_split` survives
//! instead of aborting — and every drain must claim each seeded index
//! exactly once.

use gpusim::{catalog, SimDevice, WorkProfile};
use proptest::prelude::*;
use std::sync::Arc;
use vsched::{drain_deques, equal_split, proportional_split, seed_deques, StealConfig};
use vstrace::Trace;

fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn equal_split_conserves_items(items in 0u64..2_000_000, n in 1usize..64) {
        let s = equal_split(items, n);
        prop_assert_eq!(s.len(), n);
        prop_assert_eq!(s.iter().sum::<u64>(), items);
    }

    #[test]
    fn equal_split_shares_differ_by_at_most_one(items in 0u64..2_000_000, n in 1usize..64) {
        let s = equal_split(items, n);
        let (min, max) = (s.iter().min().unwrap(), s.iter().max().unwrap());
        prop_assert!(max - min <= 1, "{s:?}");
    }

    #[test]
    fn proportional_split_conserves_items(items in 0u64..2_000_000, w in arb_weights()) {
        let s = proportional_split(items, &w);
        prop_assert_eq!(s.len(), w.len());
        prop_assert_eq!(s.iter().sum::<u64>(), items);
    }

    #[test]
    fn proportional_split_within_one_of_exact(items in 0u64..1_000_000, w in arb_weights()) {
        // Largest-remainder rounding: each share is the floor or ceiling of
        // its exact proportional value — never further than one item off.
        let s = proportional_split(items, &w);
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            for (i, (&share, &wi)) in s.iter().zip(&w).enumerate() {
                let exact = items as f64 * wi / total;
                prop_assert!(
                    (share as f64 - exact).abs() <= 1.0,
                    "device {i}: share {share} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn proportional_split_is_deterministic(items in 0u64..1_000_000, w in arb_weights()) {
        prop_assert_eq!(proportional_split(items, &w), proportional_split(items, &w));
    }

    #[test]
    fn degenerate_weights_fall_back_to_equal(
        items in 0u64..1_000_000,
        w in proptest::collection::vec(-100.0f64..=0.0, 1..12),
    ) {
        // All weights non-positive: clamping leaves nothing, so the split
        // must be exactly the equal fallback — never a panic.
        let s = proportional_split(items, &w);
        prop_assert_eq!(s, equal_split(items, w.len()));
    }

    #[test]
    fn negative_weights_behave_as_zero(
        items in 0u64..1_000_000,
        w in proptest::collection::vec(-50.0f64..50.0, 1..12),
    ) {
        let clamped: Vec<f64> = w.iter().map(|x| x.max(0.0)).collect();
        prop_assert_eq!(proportional_split(items, &w), proportional_split(items, &clamped));
    }

    #[test]
    fn zero_weight_devices_get_nothing(items in 0u64..1_000_000, w in arb_weights()) {
        let s = proportional_split(items, &w);
        if w.iter().any(|&x| x > 0.0) {
            for (&share, &wi) in s.iter().zip(&w) {
                if wi == 0.0 {
                    prop_assert_eq!(share, 0, "zero-weight device must be seeded empty");
                }
            }
        }
    }

    #[test]
    fn drain_claims_every_seeded_item_exactly_once(
        items in 0u64..20_000,
        lanes in proptest::collection::vec((0.0f64..10.0, 1.0f64..8.0), 1..5),
        min_chunk in 0u32..64,
        divisor in 1u64..5,
    ) {
        // Alternate a fast and a slow card; a slowdown set after seeding is
        // the stale-weights straggler the thieves exist for.
        let devices: Vec<Arc<SimDevice>> = lanes
            .iter()
            .enumerate()
            .map(|(i, &(_, slowdown))| {
                let spec =
                    if i % 2 == 0 { catalog::tesla_k40c() } else { catalog::geforce_gtx_580() };
                let dev = SimDevice::new(i, spec);
                dev.set_slowdown(slowdown);
                Arc::new(dev)
            })
            .collect();
        let weights: Vec<f64> = lanes.iter().map(|&(w, _)| w).collect();
        let mut deques = seed_deques(items, &weights);
        let cfg = StealConfig { divisor, min_chunk };
        let (claims, stats) = drain_deques(
            &devices,
            &mut deques,
            &cfg,
            WorkProfile::pairs(4_800),
            None,
            &Trace::disabled(),
        );
        prop_assert!(deques.iter().all(|q| q.is_empty()), "{deques:?}");
        // The claims tile [0, items) exactly once.
        let mut ranges: Vec<(u32, u32)> = claims.iter().map(|c| (c.lo, c.hi)).collect();
        ranges.sort_unstable();
        let mut next = 0u32;
        for (lo, hi) in ranges {
            prop_assert_eq!(lo, next, "gap or overlap at {}", lo);
            prop_assert!(hi > lo, "empty claim at {}", lo);
            next = hi;
        }
        prop_assert_eq!(u64::from(next), items, "tail lost");
        // What the device clocks were charged adds up to the batch.
        let charged: u64 = devices.iter().map(|d| d.stats().items).sum();
        prop_assert_eq!(charged, items);
        prop_assert_eq!(stats.chunks, claims.len() as u64);
        prop_assert!(stats.steals <= stats.chunks, "{:?}", stats);
    }
}
