//! # vscreen — metaheuristic-based virtual screening for heterogeneous systems
//!
//! The top-level engine reproducing Imbernón, Cecilia & Giménez,
//! *Enhancing Metaheuristic-based Virtual Screening Methods on Massively
//! Parallel and Heterogeneous Systems* (PMAM'16): BINDSURF-style
//! whole-surface virtual screening driven by the parameterized
//! metaheuristic template, scheduled across heterogeneous
//! multicore + multi-GPU nodes.
//!
//! ## Quickstart
//!
//! ```
//! use vscreen::prelude::*;
//!
//! // Synthetic benchmark compounds with the paper's atom counts (Table 5);
//! // real PDB files load through vsmol::pdb::parse.
//! let screen = VirtualScreen::builder(Dataset::TwoBsm)
//!     .max_spots(4)
//!     .seed(42)
//!     .build();
//!
//! // Run the M3 metaheuristic on the simulated Hertz node with the
//! // paper's heterogeneity-aware scheduling.
//! let node = platform::hertz();
//! let params = metaheur::m3(0.05);
//! let outcome = screen.run(RunSpec::on_node(&params, &node, Strategy::HeterogeneousSplit {
//!     warmup: WarmupConfig::default(),
//! }));
//! assert!(outcome.best.is_scored());
//! println!("best score {:.2} at spot {} in {:.3} virtual s",
//!          outcome.best.score, outcome.best.spot_id, outcome.virtual_time);
//! ```
//!
//! ## Crate map
//!
//! - [`platform`] — the paper's two experimental systems as simulated
//!   nodes: Jupiter (12-core Xeon + 4×GTX 590 + 2×Tesla C2075) and Hertz
//!   (4-core Xeon + Tesla K40c + GTX 580);
//! - [`screen`] — the [`screen::VirtualScreen`] pipeline: surface spot
//!   detection → scorer preparation → metaheuristic execution;
//! - [`trace`] — analytic scoring-batch traces (proven equal to the
//!   engine's recorded traces) used to replay workloads under every
//!   scheduling strategy;
//! - [`experiment`] — the reproduction harness for the paper's Tables 6–9.
#![forbid(unsafe_code)]

pub mod ablation;
pub mod experiment;
pub mod library;
pub mod platform;
pub mod quality;
pub mod report;
pub mod scaling;
pub mod screen;
pub mod trace;

pub use screen::{RunSpec, ScreenOutcome, VirtualScreen, VirtualScreenBuilder};

/// Convenient single-import surface for downstream code and examples.
pub mod prelude {
    pub use crate::ablation;
    pub use crate::experiment::{self, ExperimentScale};
    pub use crate::library::{screen_library, LibraryRanking};
    pub use crate::platform;
    pub use crate::quality;
    pub use crate::scaling;
    pub use crate::screen::{RunSpec, ScreenOutcome, VirtualScreen, VirtualScreenBuilder};
    pub use crate::trace::synthetic_trace;
    pub use metaheur::{self, EngineExec, MetaheuristicParams};
    pub use vsched::{Strategy, WarmupConfig};
    pub use vsmol::{Dataset, Molecule};
}

/// [`quality::cooperative_search`] on a synthetic landscape (these tests
/// kept their names when the function moved here from `vsched::cooperative`).
#[cfg(test)]
mod cooperative {
    mod tests {
        use crate::quality::cooperative_search;
        use metaheur::{m1, SyntheticEvaluator};
        use vsmath::Vec3;
        use vsmol::Spot;

        fn coop_spots(n: usize) -> Vec<Spot> {
            (0..n)
                .map(|i| Spot {
                    id: i,
                    center: Vec3::new(12.0 * i as f64, 0.0, 0.0),
                    normal: Vec3::Z,
                    radius: 5.0,
                    anchor_atom: 0,
                })
                .collect()
        }

        #[test]
        fn cooperative_history_is_monotone() {
            let sp = coop_spots(3);
            let optima: Vec<Vec3> =
                sp.iter().map(|s| s.center + Vec3::new(1.0, 0.5, 0.0)).collect();
            let ev = || SyntheticEvaluator::new(optima.clone());
            let r = cooperative_search(&m1(0.2), &sp, ev, 3, 4, 99);
            for w in r.epoch_history.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "incumbent regressed: {:?}", r.epoch_history);
            }
            assert_eq!(r.best_per_spot.len(), 3);
        }

        #[test]
        fn cooperation_beats_independent_runs_at_equal_budget() {
            // 3 jobs × 2 epochs WITH incumbent sharing vs 6 independent jobs
            // (1 epoch: nothing is ever shared). Same width, same evaluation
            // budget; sharing lets second-epoch jobs refine the incumbents,
            // so it must not be worse.
            let sp = coop_spots(2);
            let optima: Vec<Vec3> =
                sp.iter().map(|s| s.center + Vec3::new(1.5, 1.0, 0.0)).collect();
            let ev = || SyntheticEvaluator::new(optima.clone());
            let coop = cooperative_search(&m1(0.2), &sp, ev, 3, 2, 7);
            let indep = cooperative_search(&m1(0.2), &sp, ev, 6, 1, 7);
            assert_eq!(coop.evaluations, indep.evaluations, "budgets must match");
            assert!(
                coop.best_score <= indep.best_score + 1e-9,
                "cooperative {} vs independent {}",
                coop.best_score,
                indep.best_score
            );
        }

        #[test]
        fn evaluations_accumulate_across_jobs() {
            let sp = coop_spots(1);
            let p = m1(0.1);
            let r = cooperative_search(
                &p,
                &sp,
                || SyntheticEvaluator::new(vec![sp[0].center]),
                2,
                3,
                1,
            );
            assert_eq!(r.evaluations, p.evals_per_spot() * 2 * 3);
        }

        #[test]
        #[should_panic]
        fn zero_jobs_panics() {
            let sp = coop_spots(1);
            let ev = || SyntheticEvaluator::new(vec![Vec3::ZERO]);
            cooperative_search(&m1(0.1), &sp, ev, 0, 1, 1);
        }
    }
}
