//! The paper's four benchmark metaheuristics (Table 4).
//!
//! Table 4 fixes population sizes and the selected/improved percentages;
//! it does not publish generation counts or local-search lengths. Those
//! free parameters are chosen here so the *relative* scoring workloads of
//! M1–M4 match the relative execution times of the paper's Tables 6–9
//! (M2/M1 ≈ 1.6, M3/M1 ≈ 0.5, M4/M1 ≈ 50; the paper's M3 being cheaper
//! than M1 despite its local search indicates a convergence-driven end
//! condition — reproduced here with per-metaheuristic generation budgets).
//! See EXPERIMENTS.md for the derivation.
//!
//! Beside them, the other §2.2 families as parameter sets of the same
//! template: [`pso`] (a swarm `Combine`), [`tabu`] (a tabu `Improve` over
//! one walker) and [`memetic`] (M1 with that `Improve`).

use crate::params::{Combine, EndCondition, ImproveStrategy, MetaheuristicParams, SelectStrategy};

/// Shared move sizes for the docking search space.
const MAX_SHIFT: f64 = 1.2;
const MAX_ANGLE: f64 = 0.5;

fn scale_count(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

/// M1 — a genetic algorithm: population 64/spot, parents from the best,
/// no local search (Table 4 row 1).
pub fn m1(scale: f64) -> MetaheuristicParams {
    MetaheuristicParams {
        name: "M1".into(),
        population_per_spot: 64,
        select: SelectStrategy::TruncationBest { fraction: 1.0 },
        offspring_per_spot: 64,
        combine: Combine::Crossover,
        improve_fraction: 0.0,
        improve: ImproveStrategy::None,
        mutation_prob: 0.25,
        max_shift: MAX_SHIFT,
        max_angle: MAX_ANGLE,
        end: EndCondition::Generations(scale_count(32, scale)),
        single_pass: false,
    }
}

/// M2 — evolutionary with scatter-search character: same reference set as
/// M1, every generated element improved by intensive local search
/// (Table 4 row 2).
pub fn m2(scale: f64) -> MetaheuristicParams {
    MetaheuristicParams {
        name: "M2".into(),
        population_per_spot: 64,
        select: SelectStrategy::TruncationBest { fraction: 1.0 },
        offspring_per_spot: 64,
        combine: Combine::Crossover,
        improve_fraction: 1.0,
        improve: ImproveStrategy::HillClimb { steps: 2 },
        mutation_prob: 0.25,
        max_shift: MAX_SHIFT,
        max_angle: MAX_ANGLE,
        end: EndCondition::Generations(scale_count(17, scale)),
        single_pass: false,
    }
}

/// M3 — like M2 but with a less intensive improvement: only 20% of new
/// elements are locally searched (Table 4 row 3).
pub fn m3(scale: f64) -> MetaheuristicParams {
    MetaheuristicParams {
        name: "M3".into(),
        population_per_spot: 64,
        select: SelectStrategy::TruncationBest { fraction: 1.0 },
        offspring_per_spot: 64,
        combine: Combine::Crossover,
        improve_fraction: 0.2,
        improve: ImproveStrategy::HillClimb { steps: 2 },
        mutation_prob: 0.25,
        max_shift: MAX_SHIFT,
        max_angle: MAX_ANGLE,
        end: EndCondition::Generations(scale_count(11, scale)),
        single_pass: false,
    }
}

/// M4 — a neighborhood metaheuristic: one pass of deep local search over a
/// large initial set of 1024 conformations per spot; no selection after
/// improving (Table 4 row 4).
pub fn m4(scale: f64) -> MetaheuristicParams {
    MetaheuristicParams {
        name: "M4".into(),
        population_per_spot: 1024,
        select: SelectStrategy::TruncationBest { fraction: 1.0 },
        offspring_per_spot: 0,
        combine: Combine::Crossover,
        improve_fraction: 1.0,
        improve: ImproveStrategy::HillClimb { steps: scale_count(103, scale) },
        mutation_prob: 0.0,
        max_shift: MAX_SHIFT,
        max_angle: MAX_ANGLE,
        end: EndCondition::Generations(0),
        single_pass: true,
    }
}

/// The full Table 4 suite at a workload scale (1.0 = the calibrated
/// paper-shaped workload; smaller values shrink generation counts and
/// local-search depth proportionally for quick runs).
pub fn paper_suite(scale: f64) -> Vec<MetaheuristicParams> {
    vec![m1(scale), m2(scale), m3(scale), m4(scale)]
}

/// PSO — the distributed family of §2.2: a swarm of `swarm` particles per
/// spot flown for `iterations` velocity steps, `swarm·(1 + iterations)`
/// evaluations per spot.
pub fn pso(swarm: usize, iterations: usize) -> MetaheuristicParams {
    MetaheuristicParams {
        name: "PSO".into(),
        population_per_spot: swarm,
        select: SelectStrategy::TruncationBest { fraction: 1.0 },
        offspring_per_spot: swarm,
        combine: Combine::Swarm,
        improve_fraction: 0.0,
        improve: ImproveStrategy::None,
        mutation_prob: 0.0,
        // The speed clamps: 1.5 Å and 0.5 rad per step.
        max_shift: 1.5,
        max_angle: MAX_ANGLE,
        end: EndCondition::Generations(iterations),
        single_pass: false,
    }
}

/// Tabu search — the neighborhood family of §2.2: one walker per spot from
/// a random pose, `iterations` steps of `neighbors` candidates each, so
/// `1 + iterations·neighbors` evaluations per spot.
pub fn tabu(iterations: usize, neighbors: usize) -> MetaheuristicParams {
    MetaheuristicParams {
        name: "Tabu".into(),
        population_per_spot: 1,
        offspring_per_spot: 0,
        improve_fraction: 1.0,
        improve: ImproveStrategy::Tabu { steps: iterations, neighbors },
        mutation_prob: 0.0,
        end: EndCondition::Generations(0),
        single_pass: true,
        ..m1(1.0)
    }
}

/// GA+Tabu, the memetic hybrid: M1's genetic algorithm for `generations`
/// generations, each generation's best offspring refined by `steps` tabu
/// steps of `neighbors` candidates before `Include`.
pub fn memetic(generations: usize, steps: usize, neighbors: usize) -> MetaheuristicParams {
    MetaheuristicParams {
        name: "GA+Tabu".into(),
        // One of M1's 64 offspring.
        improve_fraction: 1.0 / 64.0,
        improve: ImproveStrategy::Tabu { steps, neighbors },
        end: EndCondition::Generations(generations),
        ..m1(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_populations() {
        assert_eq!(m1(1.0).population_per_spot, 64);
        assert_eq!(m2(1.0).population_per_spot, 64);
        assert_eq!(m3(1.0).population_per_spot, 64);
        assert_eq!(m4(1.0).population_per_spot, 1024);
    }

    #[test]
    fn table4_improved_fractions() {
        assert_eq!(m1(1.0).improve_fraction, 0.0);
        assert_eq!(m2(1.0).improve_fraction, 1.0);
        assert_eq!(m3(1.0).improve_fraction, 0.2);
        assert_eq!(m4(1.0).improve_fraction, 1.0);
    }

    #[test]
    fn m4_is_single_pass() {
        assert!(m4(1.0).single_pass);
        assert!(!m1(1.0).single_pass);
        assert!(!m2(1.0).single_pass);
        assert!(!m3(1.0).single_pass);
    }

    #[test]
    fn all_configs_valid() {
        for p in paper_suite(1.0) {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
        for p in paper_suite(0.1) {
            p.validate().unwrap_or_else(|e| panic!("{} (scaled): {e}", p.name));
        }
    }

    #[test]
    fn workload_ratios_match_paper_tables() {
        // Paper Table 6 (Jupiter, 2BSM, OpenMP column): M1 269.45 s,
        // M2 436.36 s, M3 136.71 s, M4 13557.29 s.
        let e1 = m1(1.0).evals_per_spot() as f64;
        let e2 = m2(1.0).evals_per_spot() as f64;
        let e3 = m3(1.0).evals_per_spot() as f64;
        let e4 = m4(1.0).evals_per_spot() as f64;
        let check = |got: f64, want: f64, tag: &str| {
            assert!(
                (got / want - 1.0).abs() < 0.15,
                "{tag}: workload ratio {got:.3} vs paper {want:.3}"
            );
        };
        check(e2 / e1, 436.36 / 269.45, "M2/M1");
        check(e3 / e1, 136.71 / 269.45, "M3/M1");
        check(e4 / e1, 13557.29 / 269.45, "M4/M1");
    }

    #[test]
    fn scaling_shrinks_workload_proportionally() {
        let full = m4(1.0).evals_per_spot() as f64;
        let quarter = m4(0.25).evals_per_spot() as f64;
        assert!((quarter / full - 0.25).abs() < 0.05, "{quarter}/{full}");
    }

    #[test]
    fn tiny_scale_still_runs() {
        for p in paper_suite(0.001) {
            assert!(p.evals_per_spot() > 0);
            p.validate().unwrap();
        }
    }

    #[test]
    fn extension_sets_keep_their_loops_budgets() {
        assert_eq!(pso(24, 30).evals_per_spot(), 24 * (1 + 30));
        assert_eq!(tabu(40, 8).evals_per_spot(), 1 + 40 * 8);
        assert_eq!(memetic(3, 10, 8).evals_per_spot(), 64 + 3 * (64 + 10 * 8));
        for p in [pso(24, 30), tabu(40, 8), memetic(3, 10, 8)] {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn suite_names() {
        let names: Vec<String> = paper_suite(1.0).into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["M1", "M2", "M3", "M4"]);
    }
}
