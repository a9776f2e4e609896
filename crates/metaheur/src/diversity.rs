//! Population-diversity metrics.
//!
//! Population metaheuristics live or die by diversity: once the reference
//! set collapses around one basin, Combine produces clones and the search
//! degenerates to local polishing. These metrics quantify that collapse;
//! the engine records [`translation_diversity`] per generation
//! (`RunResult::diversity_history`), the signal for whether exploration
//! knobs (mutation, move sizes) are too small.

use vsmol::Conformation;

/// Mean pairwise translation distance within a population (Å).
/// 0.0 for populations of fewer than two members.
pub fn translation_diversity(pop: &[Conformation]) -> f64 {
    if pop.len() < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut count = 0u64;
    for i in 0..pop.len() {
        for j in (i + 1)..pop.len() {
            sum += pop[i].translation_distance(&pop[j]);
            count += 1;
        }
    }
    sum / count as f64
}

/// Mean pairwise rotation angle within a population (radians).
pub fn rotation_diversity(pop: &[Conformation]) -> f64 {
    if pop.len() < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut count = 0u64;
    for i in 0..pop.len() {
        for j in (i + 1)..pop.len() {
            sum += pop[i].rotation_distance(&pop[j]);
            count += 1;
        }
    }
    sum / count as f64
}

/// Score spread: standard deviation of the population's scores (NaN scores
/// excluded). A near-zero spread plus low translation diversity signals
/// convergence.
pub fn score_spread(pop: &[Conformation]) -> f64 {
    let scores: Vec<f64> = pop.iter().map(|c| c.score).filter(|s| s.is_finite()).collect();
    if scores.len() < 2 {
        return 0.0;
    }
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    (scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / scores.len() as f64).sqrt()
}

/// Convergence verdict from the three metrics against thresholds tuned for
/// docking pose spaces (Å-scale translations).
pub fn is_converged(pop: &[Conformation]) -> bool {
    translation_diversity(pop) < 0.25 && rotation_diversity(pop) < 0.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmath::{RigidTransform, RngStream, Vec3};

    fn conf(t: Vec3, score: f64) -> Conformation {
        let mut c = Conformation::new(RigidTransform::from_translation(t), 0);
        c.score = score;
        c
    }

    #[test]
    fn identical_population_has_zero_diversity() {
        let pop = vec![conf(Vec3::X, -1.0); 5];
        assert_eq!(translation_diversity(&pop), 0.0);
        assert_eq!(rotation_diversity(&pop), 0.0);
        assert_eq!(score_spread(&pop), 0.0);
        assert!(is_converged(&pop));
    }

    #[test]
    fn spread_population_is_diverse() {
        let mut rng = RngStream::from_seed(3);
        let pop: Vec<Conformation> = (0..10)
            .map(|i| {
                let mut c =
                    Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(5.0)), 0);
                c.score = -(i as f64);
                c
            })
            .collect();
        assert!(translation_diversity(&pop) > 1.0);
        assert!(rotation_diversity(&pop) > 0.5);
        assert!(score_spread(&pop) > 1.0);
        assert!(!is_converged(&pop));
    }

    #[test]
    fn two_point_translation_diversity_is_distance() {
        let pop = vec![conf(Vec3::ZERO, 0.0), conf(Vec3::new(3.0, 4.0, 0.0), 0.0)];
        assert!((translation_diversity(&pop) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_populations() {
        assert_eq!(translation_diversity(&[]), 0.0);
        assert_eq!(score_spread(&[conf(Vec3::ZERO, 1.0)]), 0.0);
        // NaN scores are excluded from the spread.
        let pop = vec![
            Conformation::new(RigidTransform::IDENTITY, 0), // NaN score
            conf(Vec3::ZERO, 1.0),
            conf(Vec3::ZERO, 3.0),
        ];
        assert_eq!(score_spread(&pop), 1.0);
    }

    #[test]
    fn ga_reduces_diversity_over_time() {
        // An elitist GA on a single-basin landscape must contract its
        // population around the optimum.
        use crate::evaluator::SyntheticEvaluator;
        let spot =
            vsmol::Spot { id: 0, center: Vec3::ZERO, normal: Vec3::Z, radius: 5.0, anchor_atom: 0 };
        let mut rng = RngStream::from_seed(5);
        let initial: Vec<Conformation> =
            (0..32).map(|_| Conformation::random_at(&spot, &mut rng)).collect();
        let initial_div = translation_diversity(&initial);

        let params = crate::MetaheuristicParams { mutation_prob: 0.05, ..crate::m1(0.6) };
        let mut ev = SyntheticEvaluator::new(vec![Vec3::new(1.0, 0.5, 0.0)]);
        let r = crate::run(&params, &[spot], &mut ev, 5);
        let final_div = translation_diversity(&r.best_per_spot);
        // best_per_spot is one element — use the spread of the best over
        // start instead: the search moved close to the optimum.
        assert!(final_div == 0.0);
        assert!(initial_div > 2.0, "initial spread {initial_div}");
        assert!(r.best.pose.translation.dist(Vec3::new(1.0, 0.5, 0.0)) < initial_div);
    }
}
