//! Property-based tests for the metaheuristic engines.

use metaheur::{
    pso, run, tabu, Combine, EndCondition, ImproveStrategy, MetaheuristicParams, SelectStrategy,
    SyntheticEvaluator,
};
use proptest::prelude::*;
use vsmath::Vec3;
use vsmol::Spot;

fn spots(n: usize) -> Vec<Spot> {
    (0..n)
        .map(|i| Spot {
            id: i,
            center: Vec3::new(14.0 * i as f64, 0.0, 0.0),
            normal: Vec3::Z,
            radius: 5.0,
            anchor_atom: 0,
        })
        .collect()
}

fn evaluator(sp: &[Spot]) -> SyntheticEvaluator {
    SyntheticEvaluator::new(sp.iter().map(|s| s.center).collect())
}

fn arb_improve() -> impl Strategy<Value = ImproveStrategy> {
    prop_oneof![
        Just(ImproveStrategy::None),
        (1usize..5).prop_map(|steps| ImproveStrategy::HillClimb { steps }),
        (1usize..4, 0.1..3.0f64, 0.5..0.99f64).prop_map(|(steps, t0, cooling)| {
            ImproveStrategy::SimulatedAnnealing { steps, t0, cooling }
        }),
        (1usize..3, 0.05..1.0f64, 0.01..0.3f64).prop_map(|(steps, s, a)| {
            ImproveStrategy::Lamarckian { steps, step_size: s, angle_step: a }
        }),
        (1usize..3, 1usize..4)
            .prop_map(|(steps, neighbors)| ImproveStrategy::Tabu { steps, neighbors }),
    ]
}

fn arb_params() -> impl Strategy<Value = MetaheuristicParams> {
    (
        2usize..24,  // population
        1usize..16,  // offspring
        0.0..1.0f64, // improve fraction
        arb_improve(),
        0.0..1.0f64, // mutation prob
        1usize..6,   // generations
        prop_oneof![
            (0.01..1.0f64).prop_map(|f| SelectStrategy::TruncationBest { fraction: f }),
            (1usize..5).prop_map(|k| SelectStrategy::Tournament { k }),
        ],
        any::<bool>(), // swarm: one offspring per particle
    )
        .prop_map(|(pop, off, frac, improve, mut_p, gens, select, swarm)| {
            MetaheuristicParams {
                name: "prop".into(),
                population_per_spot: pop,
                select,
                offspring_per_spot: if swarm { pop } else { off },
                combine: if swarm { Combine::Swarm } else { Combine::Crossover },
                improve_fraction: frac,
                improve,
                mutation_prob: mut_p,
                max_shift: 1.0,
                max_angle: 0.4,
                end: EndCondition::Generations(gens),
                single_pass: false,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eval_count_always_matches_prediction(
        params in arb_params(),
        n_spots in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sp = spots(n_spots);
        let mut ev = evaluator(&sp);
        let r = run(&params, &sp, &mut ev, seed);
        prop_assert_eq!(r.evaluations, params.evals_per_spot() * n_spots as u64);
        prop_assert_eq!(ev.evaluations, r.evaluations);
        prop_assert_eq!(r.batch_trace.iter().sum::<u64>(), r.evaluations);
    }

    #[test]
    fn best_history_never_regresses(
        params in arb_params(),
        seed in any::<u64>(),
    ) {
        let sp = spots(2);
        let mut ev = evaluator(&sp);
        let r = run(&params, &sp, &mut ev, seed);
        for w in r.best_history.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12, "regression: {:?}", r.best_history);
        }
    }

    #[test]
    fn best_per_spot_within_bounds(
        params in arb_params(),
        n_spots in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sp = spots(n_spots);
        let mut ev = evaluator(&sp);
        let r = run(&params, &sp, &mut ev, seed);
        prop_assert_eq!(r.best_per_spot.len(), n_spots);
        for (i, c) in r.best_per_spot.iter().enumerate() {
            prop_assert_eq!(c.spot_id, i);
            prop_assert!(c.pose.translation.dist(sp[i].center) <= sp[i].radius + 1e-9);
            prop_assert!(c.is_scored());
        }
    }

    #[test]
    fn engine_is_seed_deterministic(params in arb_params(), seed in any::<u64>()) {
        let sp = spots(2);
        let mut e1 = evaluator(&sp);
        let mut e2 = evaluator(&sp);
        let a = run(&params, &sp, &mut e1, seed);
        let b = run(&params, &sp, &mut e2, seed);
        prop_assert_eq!(a.best.score.to_bits(), b.best.score.to_bits());
        prop_assert_eq!(a.batch_trace, b.batch_trace);
    }

    #[test]
    fn pso_eval_accounting_any_config(
        swarm in 2usize..32,
        iterations in 1usize..20,
        seed in any::<u64>(),
    ) {
        let sp = spots(2);
        let params = pso(swarm, iterations);
        let mut ev = evaluator(&sp);
        let r = run(&params, &sp, &mut ev, seed);
        prop_assert_eq!(r.evaluations, (swarm * (1 + iterations)) as u64 * 2);
        prop_assert_eq!(r.evaluations, params.evals_per_spot() * 2);
        for w in r.best_history.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn tabu_eval_accounting_any_config(
        iterations in 1usize..20,
        neighbors in 1usize..12,
        seed in any::<u64>(),
    ) {
        let sp = spots(2);
        let params = tabu(iterations, neighbors);
        let mut ev = evaluator(&sp);
        let r = run(&params, &sp, &mut ev, seed);
        prop_assert_eq!(r.evaluations, (1 + iterations * neighbors) as u64 * 2);
        prop_assert_eq!(r.evaluations, params.evals_per_spot() * 2);
        // The walkers hand back their best poses: never worse than the start.
        prop_assert!(r.best.score <= r.best_history[0]);
    }
}
