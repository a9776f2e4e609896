//! Analytic scoring-batch traces.
//!
//! The engine in `metaheur` batches every scoring request across spots and
//! is deterministic in its batch *sizes*: with a fixed-generation end
//! condition, the batch stream depends only on the parameters and the spot
//! count — never on the scores. [`synthetic_trace`] computes that stream
//! directly; `tests` prove it equal to the engine's recorded
//! [`metaheur::RunResult::batch_trace`]. The experiment harness replays
//! these traces under every scheduling strategy (`vsched::schedule_trace`)
//! to produce Tables 6–9 without recomputing identical searches.

use metaheur::params::{improved_count, ImproveStrategy, MetaheuristicParams};

/// The exact scoring-batch stream `metaheur::run` emits for `params` over
/// `n_spots` spots (fixed-generation end conditions only).
///
/// # Panics
/// Panics for convergence-based end conditions, whose batch count is
/// score-dependent — record a real trace for those.
pub fn synthetic_trace(params: &MetaheuristicParams, n_spots: usize) -> Vec<u64> {
    assert!(n_spots > 0, "need at least one spot");
    assert!(
        matches!(params.end, metaheur::EndCondition::Generations(_)) || params.single_pass,
        "analytic traces require a fixed generation count"
    );
    let spots = n_spots as u64;
    let mut trace = vec![params.population_per_spot as u64 * spots];
    // One batch per local-search lap: a tabu step scores every neighbor of
    // every walker at once, every other lap one conformation per element.
    let (steps, per_element) = match params.improve {
        ImproveStrategy::Tabu { steps, neighbors } => (steps, neighbors as u64),
        other => (other.evals_per_element(), 1),
    };

    if params.single_pass {
        let improved = improved_count(params.population_per_spot, params.improve_fraction) as u64
            * spots
            * per_element;
        if improved > 0 {
            trace.extend(std::iter::repeat_n(improved, steps));
        }
        return trace;
    }

    let offspring = params.offspring_per_spot as u64 * spots;
    let improved = improved_count(params.offspring_per_spot, params.improve_fraction) as u64
        * spots
        * per_element;
    for _ in 0..params.end.max_generations() {
        trace.push(offspring);
        if improved > 0 {
            trace.extend(std::iter::repeat_n(improved, steps));
        }
    }
    trace
}

/// Total conformations in a trace.
pub fn trace_items(trace: &[u64]) -> u64 {
    trace.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaheur::SyntheticEvaluator;
    use vsmath::Vec3;
    use vsmol::Spot;

    fn spots(n: usize) -> Vec<Spot> {
        (0..n)
            .map(|i| Spot {
                id: i,
                center: Vec3::new(15.0 * i as f64, 0.0, 0.0),
                normal: Vec3::Z,
                radius: 5.0,
                anchor_atom: 0,
            })
            .collect()
    }

    fn engine_trace(params: &metaheur::MetaheuristicParams, n_spots: usize) -> Vec<u64> {
        let sp = spots(n_spots);
        let mut ev = SyntheticEvaluator::new(sp.iter().map(|s| s.center).collect());
        let r = metaheur::run(params, &sp, &mut ev, 77);
        assert_eq!(ev.evaluations, r.evaluations);
        r.batch_trace
    }

    #[test]
    fn matches_engine_for_all_paper_metaheuristics() {
        for scale in [0.05, 0.2] {
            for params in metaheur::paper_suite(scale) {
                for n_spots in [1usize, 3, 8] {
                    let analytic = synthetic_trace(&params, n_spots);
                    let recorded = engine_trace(&params, n_spots);
                    assert_eq!(analytic, recorded, "{} scale {scale} spots {n_spots}", params.name);
                }
            }
        }
    }

    #[test]
    fn matches_engine_for_the_extension_sets() {
        for params in [metaheur::pso(12, 5), metaheur::tabu(6, 4), metaheur::memetic(3, 2, 5)] {
            for n_spots in [1usize, 3] {
                let analytic = synthetic_trace(&params, n_spots);
                assert_eq!(analytic, engine_trace(&params, n_spots), "{}", params.name);
                assert_eq!(trace_items(&analytic), params.evals_per_spot() * n_spots as u64);
            }
        }
    }

    #[test]
    fn matches_engine_with_partial_improvement_rounding() {
        // Fractional improve counts exercise the rounding rule.
        let params = metaheur::MetaheuristicParams {
            improve_fraction: 0.37,
            improve: metaheur::ImproveStrategy::HillClimb { steps: 3 },
            ..metaheur::m1(0.1)
        };
        assert_eq!(synthetic_trace(&params, 5), engine_trace(&params, 5));
    }

    #[test]
    fn trace_total_matches_evals_per_spot() {
        for params in metaheur::paper_suite(0.3) {
            let n = 4;
            assert_eq!(
                trace_items(&synthetic_trace(&params, n)),
                params.evals_per_spot() * n as u64,
                "{}",
                params.name
            );
        }
    }

    #[test]
    fn m4_trace_shape() {
        let p = metaheur::m4(0.1);
        let t = synthetic_trace(&p, 2);
        // init + one batch per LS step, all of size 1024×2.
        let steps = p.improve.evals_per_element();
        assert_eq!(t.len(), 1 + steps);
        assert!(t.iter().all(|&b| b == 2048));
    }

    #[test]
    fn m1_trace_shape() {
        let p = metaheur::m1(1.0);
        let t = synthetic_trace(&p, 3);
        assert_eq!(t.len(), 1 + 32); // init + 32 generations, no LS batches
        assert!(t.iter().all(|&b| b == 64 * 3));
    }

    #[test]
    #[should_panic]
    fn convergence_end_is_rejected() {
        let p = metaheur::MetaheuristicParams {
            end: metaheur::EndCondition::Convergence { patience: 2, max: 10 },
            ..metaheur::m1(0.1)
        };
        synthetic_trace(&p, 2);
    }

    #[test]
    #[should_panic]
    fn zero_spots_rejected() {
        synthetic_trace(&metaheur::m1(0.1), 0);
    }
}
