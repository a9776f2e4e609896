//! Output checks. Any failure counts against the operations attempted and
//! fails the run.

use crate::workloads::{CampaignCfg, LibraryCfg, LibraryOutcome};
use vscluster::CampaignReport;
use vsmol::{Conformation, Molecule};
use vsscore::{Kernel, Scorer, ScorerOptions};

/// Exact kernels agree with the naive reference within this relative
/// error (DESIGN §7).
const EXACT_REL_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations attempted: evaluations or jobs.
    pub attempted: u64,
    /// Failed checks, lost or rejected jobs and non-finite scores.
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn new(attempted: u64) -> Checks {
        Checks { attempted: attempted.max(1), failed: 0, messages: Vec::new() }
    }

    pub fn fail(&mut self, count: u64, message: String) {
        self.failed += count.max(1);
        self.messages.push(message);
    }

    fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, message());
        }
    }

    /// Evaluations equal the budget; every spot is ranked exactly once;
    /// ranked scores are finite and sorted; the best is the first.
    pub fn outcome(
        &mut self,
        ranked: &[Conformation],
        best: &Conformation,
        evaluations: u64,
        budget: u64,
        spots: usize,
    ) {
        self.require(evaluations == budget, || {
            format!("{evaluations} evaluations, budget is {budget}")
        });
        let mut ids: Vec<usize> = ranked.iter().map(|c| c.spot_id).collect();
        ids.sort_unstable();
        self.require(ids == (0..spots).collect::<Vec<_>>(), || {
            format!("ranked spot ids {ids:?} are not 0..{spots} once each")
        });
        let non_finite = ranked.iter().filter(|c| !c.score.is_finite()).count() as u64;
        if non_finite > 0 {
            self.fail(non_finite, format!("{non_finite} non-finite ranked scores"));
        }
        self.require(ranked.windows(2).all(|w| w[0].score <= w[1].score), || {
            "ranking is not sorted best-first".to_string()
        });
        self.require(
            ranked.first().is_some_and(|r| r.score.to_bits() == best.score.to_bits()),
            || "best pose is not the head of the ranking".to_string(),
        );
    }

    /// The best pose, scored again by a `Kernel::Naive` scorer, agrees
    /// with the search kernel's score.
    pub fn rescore(
        &mut self,
        receptor: &Molecule,
        ligand: &Molecule,
        best: &Conformation,
        kernel: Kernel,
    ) {
        let naive = Scorer::new(
            receptor,
            ligand,
            ScorerOptions { kernel: Kernel::Naive, ..Default::default() },
        )
        .score(&best.pose);
        if let Err(why) = agrees(kernel, ligand.len(), best.score, naive) {
            self.fail(1, format!("{}: {why}", ligand.name));
        }
    }

    /// Every ligand ranked exactly once, best-first, each within the grid
    /// budget of its naive re-score; evaluations equal the budget.
    pub fn library(
        &mut self,
        out: &LibraryOutcome,
        receptor: &Molecule,
        ligands: &[Molecule],
        cfg: &LibraryCfg,
    ) {
        self.require(out.evaluations == cfg.budget(), || {
            format!("{} evaluations, budget is {}", out.evaluations, cfg.budget())
        });
        let mut ids: Vec<usize> = out.hits.iter().map(|h| h.ligand).collect();
        ids.sort_unstable();
        self.require(ids == (0..ligands.len()).collect::<Vec<_>>(), || {
            format!("ranked ligands {ids:?} are not 0..{} once each", ligands.len())
        });
        let non_finite = out.hits.iter().filter(|h| !h.best.score.is_finite()).count() as u64;
        if non_finite > 0 {
            self.fail(non_finite, format!("{non_finite} non-finite ligand scores"));
        }
        self.require(out.hits.windows(2).all(|w| w[0].best.score <= w[1].best.score), || {
            "library ranking is not sorted best-first".to_string()
        });
        for h in &out.hits {
            self.rescore(receptor, &ligands[h.ligand], &h.best, cfg.kernel);
        }
    }

    /// No job lost, none rejected, the job count as configured.
    pub fn campaign(&mut self, report: &CampaignReport, cfg: &CampaignCfg) {
        self.require(report.total_jobs == cfg.jobs(), || {
            format!("{} jobs admitted, traffic holds {}", report.total_jobs, cfg.jobs())
        });
        let lost = report.total_jobs.saturating_sub(report.completed_jobs) as u64;
        if lost > 0 {
            self.fail(lost, format!("{lost} jobs not completed"));
        }
        if report.campaigns_rejected > 0 {
            self.fail(
                report.campaigns_rejected as u64,
                format!("{} campaigns rejected", report.campaigns_rejected),
            );
        }
        let percentiles = [report.queue_p50_s, report.queue_p99_s, report.interactive_p99_s];
        self.require(percentiles.iter().all(|p| p.is_finite() && *p >= 0.0), || {
            format!("queue latency percentiles {percentiles:?}")
        });
    }

    pub fn virtual_time(&mut self, vt: f64) {
        self.require(vt.is_finite() && vt > 0.0, || format!("virtual time {vt}"));
    }
}

/// Whether `search`, the score the search kernel gave a pose, agrees with
/// `naive`, the reference score of the same pose: within 1e-9 relative for
/// the exact kernels, within the DESIGN §11 budget
/// `0.3·|exact| + n_lig·(0.25 + 0.75·h²)` for the grid on a non-clashing
/// pose, and "still repulsive" on a clashing one.
pub fn agrees(kernel: Kernel, ligand_atoms: usize, search: f64, naive: f64) -> Result<(), String> {
    let (tolerance, what) = match kernel {
        Kernel::Grid { .. } if naive > 0.0 => {
            return if search > 0.0 {
                Ok(())
            } else {
                Err(format!("grid scored a clash (naive {naive}) as {search}"))
            };
        }
        Kernel::Grid { spacing } => (
            0.3 * naive.abs() + ligand_atoms as f64 * (0.25 + 0.75 * spacing * spacing),
            "the grid accuracy budget",
        ),
        _ => (EXACT_REL_TOL * naive.abs().max(1.0), "1e-9 relative"),
    };
    if (search - naive).abs() <= tolerance {
        Ok(())
    } else {
        Err(format!("search score {search} vs naive {naive}: outside {what} ({tolerance})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmath::RigidTransform;

    fn conf(spot_id: usize, score: f64) -> Conformation {
        Conformation { pose: RigidTransform::IDENTITY, spot_id, score }
    }

    #[test]
    fn a_clean_outcome_passes_and_each_defect_is_counted() {
        let ranked = vec![conf(1, -3.0), conf(0, -2.0), conf(2, 0.5)];
        let mut ok = Checks::new(100);
        ok.outcome(&ranked, &ranked[0], 100, 100, 3);
        assert_eq!((ok.failed, ok.attempted), (0, 100));

        let mut bad = Checks::new(100);
        bad.outcome(&ranked, &ranked[1], 99, 100, 3); // budget, best
        assert_eq!(bad.failed, 2, "{:?}", bad.messages);

        let broken = vec![conf(0, -1.0), conf(0, f64::NAN), conf(2, f64::INFINITY)];
        let mut bad = Checks::new(100);
        bad.outcome(&broken, &broken[0], 100, 100, 3); // ids, 2 non-finite, unsorted
        assert_eq!(bad.failed, 4, "{:?}", bad.messages);
    }

    #[test]
    fn agreement_rules_per_kernel() {
        assert!(agrees(Kernel::Fused, 45, -10.0, -10.0 - 5e-9).is_ok());
        assert!(agrees(Kernel::Fused, 45, -10.0, -10.1).is_err());
        let grid = Kernel::Grid { spacing: 0.75 };
        // 10 atoms: budget 0.3·20 + 10·(0.25 + 0.421875) = 12.71875.
        assert!(agrees(grid, 10, -8.0, -20.0).is_ok());
        assert!(agrees(grid, 10, -7.0, -20.0).is_err());
        assert!(agrees(grid, 10, 3.0, 900.0).is_ok(), "a clash stays repulsive");
        assert!(agrees(grid, 10, -3.0, 900.0).is_err());
    }
}
