//! Compare the paper's four metaheuristics (Table 4) on solution quality
//! versus computational budget, plus the extension operators (tournament
//! selection, simulated annealing, Lamarckian) and the PSO, Tabu and
//! memetic parameter sets beyond the paper's suite.
//!
//! Run with: `cargo run --release -p vs-examples --example metaheuristic_comparison`

use metaheur::{ImproveStrategy, MetaheuristicParams, SelectStrategy};
use vscreen::prelude::*;

fn main() {
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(6).seed(4).build();
    println!(
        "dataset 2BSM: {} spots, {} pairs/eval\n",
        screen.spots().len(),
        screen.pairs_per_eval()
    );

    println!("{:<22} {:>12} {:>8} {:>12}", "metaheuristic", "evaluations", "gens", "best score");

    let scale = 0.15;
    for params in metaheur::paper_suite(scale) {
        let out = screen.run(RunSpec::cpu(&params, 8));
        println!(
            "{:<22} {:>12} {:>8} {:>12.2}",
            params.name, out.evaluations, out.generations_run, out.best.score
        );
    }

    // Extensions beyond Table 4, all on the same template: tournament
    // selection, simulated annealing and Lamarckian (gradient) improvement
    // on the M2 skeleton, and the other §2.2 families — PSO (a swarm
    // Combine), Tabu (a tabu Improve) and GA+Tabu (M1 with that Improve).
    let tournament = MetaheuristicParams {
        name: "M2+tournament".into(),
        select: SelectStrategy::Tournament { k: 3 },
        ..metaheur::m2(scale)
    };
    let annealing = MetaheuristicParams {
        name: "M2+annealing".into(),
        improve: ImproveStrategy::SimulatedAnnealing { steps: 2, t0: 2.0, cooling: 0.85 },
        ..metaheur::m2(scale)
    };
    let lamarckian = MetaheuristicParams {
        name: "M2+Lamarckian".into(),
        improve: ImproveStrategy::Lamarckian { steps: 1, step_size: 0.3, angle_step: 0.08 },
        ..metaheur::m2(scale)
    };
    let extensions = [
        tournament,
        annealing,
        lamarckian,
        metaheur::pso(64, 30),
        metaheur::tabu(60, 16),
        metaheur::memetic(5, 10, 16),
    ];
    for params in extensions {
        let out = screen.run(RunSpec::cpu(&params, 8));
        println!(
            "{:<22} {:>12} {:>8} {:>12.2}",
            params.name, out.evaluations, out.generations_run, out.best.score
        );
    }

    println!("\n(M4 burns ~50x M1's budget on pure local search — the paper's");
    println!(" extreme case; it reaches the best GPU speed-ups in Tables 6-9)");
}
