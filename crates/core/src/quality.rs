//! Solution-quality experiments (real scoring, host compute).
//!
//! Tables 6–9 measure *time*; the abstract also claims "a cooperative
//! scheduling of jobs optimizes the quality of the solution". This module
//! measures quality: best binding score found per algorithm at a fixed
//! evaluation budget, across the Algorithm 1 suite and the extension
//! parameter sets (Lamarckian, PSO, Tabu), plus the cooperative-vs-
//! independent comparison ([`cooperative_search`]).

use crate::screen::VirtualScreen;
use metaheur::{BatchEvaluator, CpuEvaluator, ImproveStrategy, MetaheuristicParams};
use serde::{Deserialize, Serialize};
use vsmol::{conformation::score_cmp, Conformation, Dataset, Spot};
use vsscore::Exec;

/// One algorithm's quality measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityRow {
    pub algorithm: String,
    pub evaluations: u64,
    pub best_score: f64,
    /// Number of distinct binding-site clusters among per-spot bests
    /// (2 Å RMSD cutoff).
    pub clusters: usize,
}

/// Compare algorithm families on one dataset at comparable budgets.
///
/// `scale` scales every engine's budget (1.0 ≈ the M2 workload); `threads`
/// sets host scoring parallelism.
pub fn quality_comparison(
    dataset: Dataset,
    max_spots: usize,
    scale: f64,
    threads: usize,
    seed: u64,
) -> Vec<QualityRow> {
    let screen = VirtualScreen::builder(dataset).max_spots(max_spots).seed(seed).build();
    let spots = screen.spots().to_vec();
    // Lamarckian variant of M2 (gradient-informed local search).
    let lam = MetaheuristicParams {
        name: "M2+Lamarckian".into(),
        improve: ImproveStrategy::Lamarckian { steps: 1, step_size: 0.3, angle_step: 0.08 },
        ..metaheur::m2(scale)
    };
    // PSO (distributed) and Tabu (neighborhood), budgeted near the M2
    // workload.
    let m2_evals = metaheur::m2(scale).evals_per_spot();
    let pso = metaheur::pso(64, ((m2_evals / 64).saturating_sub(1)).max(1) as usize);
    let tabu = metaheur::tabu(((m2_evals.saturating_sub(1)) / 16).max(1) as usize, 16);

    // Every family through the Algorithm 1 engine.
    metaheur::paper_suite(scale)
        .into_iter()
        .chain([lam, pso, tabu])
        .map(|params| {
            let mut ev = CpuEvaluator::new((*screen.scorer()).clone(), Exec::Pool(threads));
            let r = metaheur::run(&params, &spots, &mut ev, seed);
            row_from(&screen, &params.name, r)
        })
        .collect()
}

/// Outcome of a cooperative multi-job search.
#[derive(Debug, Clone)]
pub struct CoopResult {
    /// Best score found by any job.
    pub best_score: f64,
    /// Incumbent best per spot after the final epoch.
    pub best_per_spot: Vec<Conformation>,
    /// Best score after each epoch.
    pub epoch_history: Vec<f64>,
    /// Total scoring evaluations across all jobs and epochs.
    pub evaluations: u64,
}

/// Run `n_jobs` independent executions of `params` for `epochs` rounds,
/// sharing the per-spot incumbent bests between rounds as warm-start seeds
/// ([`metaheur::run_seeded`]) — cooperation makes the independent
/// executions exchange incumbents instead of only reducing at the end
/// (§3.3). `make_evaluator` supplies a fresh evaluator per (job, epoch).
pub fn cooperative_search<E: BatchEvaluator>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    mut make_evaluator: impl FnMut() -> E,
    n_jobs: usize,
    epochs: usize,
    seed: u64,
) -> CoopResult {
    assert!(n_jobs > 0 && epochs > 0, "need at least one job and one epoch");
    let mut incumbents: Vec<Conformation> = Vec::new();
    let mut epoch_history = Vec::with_capacity(epochs);
    let mut evaluations = 0;
    for epoch in 0..epochs {
        let seeds = incumbents.clone();
        for job in 0..n_jobs {
            let job_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((epoch * n_jobs + job) as u64 + 1);
            let r = metaheur::run_seeded(params, spots, &mut make_evaluator(), job_seed, &seeds);
            evaluations += r.evaluations;
            if incumbents.is_empty() {
                incumbents = r.best_per_spot;
                continue;
            }
            for (slot, found) in incumbents.iter_mut().zip(&r.best_per_spot) {
                if score_cmp(found, slot).is_lt() {
                    *slot = *found;
                }
            }
        }
        epoch_history.push(incumbents.iter().map(|c| c.score).fold(f64::INFINITY, f64::min));
    }
    CoopResult {
        best_score: incumbents.iter().map(|c| c.score).fold(f64::INFINITY, f64::min),
        best_per_spot: incumbents,
        epoch_history,
        evaluations,
    }
}

fn row_from(screen: &VirtualScreen, name: &str, r: metaheur::RunResult) -> QualityRow {
    let mut ranked = r.best_per_spot.clone();
    ranked.sort_by(vsmol::conformation::score_cmp);
    let clusters = vsmol::rmsd::cluster_poses(screen.ligand(), &ranked, 2.0).len();
    QualityRow {
        algorithm: name.to_string(),
        evaluations: r.evaluations,
        best_score: r.best.score,
        clusters,
    }
}

/// Render a quality table.
pub fn render_quality(dataset: Dataset, rows: &[QualityRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "Solution quality, PDB:{} (real Lennard-Jones scoring)", dataset.pdb_id());
    let _ = writeln!(
        s,
        "{:<16} {:>12} {:>12} {:>10}",
        "algorithm", "evaluations", "best score", "clusters"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<16} {:>12} {:>12.2} {:>10}",
            r.algorithm, r.evaluations, r.best_score, r.clusters
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_all_families() {
        let rows = quality_comparison(Dataset::TwoBsm, 3, 0.03, 4, 17);
        let names: Vec<&str> = rows.iter().map(|r| r.algorithm.as_str()).collect();
        for want in ["M1", "M2", "M3", "M4", "M2+Lamarckian", "PSO", "Tabu"] {
            assert!(names.contains(&want), "missing {want}: {names:?}");
        }
        for r in &rows {
            assert!(r.best_score.is_finite());
            assert!(
                r.best_score < 0.0,
                "{}: {} not a favorable binding",
                r.algorithm,
                r.best_score
            );
            assert!(r.clusters >= 1 && r.clusters <= 3);
            assert!(r.evaluations > 0);
        }
    }

    #[test]
    fn bigger_budget_no_worse() {
        let small = quality_comparison(Dataset::TwoBsm, 2, 0.02, 4, 5);
        let large = quality_comparison(Dataset::TwoBsm, 2, 0.06, 4, 5);
        let best = |rows: &[QualityRow], n: &str| {
            rows.iter().find(|r| r.algorithm == n).unwrap().best_score
        };
        assert!(best(&large, "M1") <= best(&small, "M1") + 1e-9);
    }

    #[test]
    fn render_contains_rows() {
        let rows = quality_comparison(Dataset::TwoBsm, 2, 0.02, 4, 2);
        let s = render_quality(Dataset::TwoBsm, &rows);
        assert!(s.contains("PSO") && s.contains("Tabu"));
    }
}
