//! Regenerate every table and figure of the paper's evaluation.
//!
//! Usage:
//!   cargo run --release -p vs-bench --bin tables -- all
//!   cargo run --release -p vs-bench --bin tables -- table6 table8
//!   cargo run --release -p vs-bench --bin tables -- figure1 eq1
//!   cargo run --release -p vs-bench --bin tables -- all --scale quick
//!
//! Tables 6–9 report virtual times from the gpusim cost model; the shape
//! (who wins, by roughly what factor) reproduces the paper — see
//! EXPERIMENTS.md for the paper-vs-measured record.

use std::process::ExitCode;
use vsched::{percent_factors, warmup_times};
use vscreen::experiment::{hertz_table, jupiter_table, render_table, ExperimentScale};
use vscreen::prelude::*;

/// Every target `main` runs, besides `all`.
const TARGETS: &str = "table1 table2 table3 table4 table5 table6 table7 table8 table9 figure1 eq1 \
                       energy ablation distribution quality cooperative scaling timeline json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::Full;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("quick") => ExperimentScale::Quick,
                    Some("full") => ExperimentScale::Full,
                    v => match v
                        .ok_or("--scale needs a value".to_string())
                        .and_then(vs_bench::parse_scale)
                    {
                        Ok(f) => ExperimentScale::Custom(f),
                        Err(e) => {
                            eprintln!("tables: {e} (--scale takes quick|full|<factor>)");
                            return ExitCode::FAILURE;
                        }
                    },
                };
            }
            t if t == "all" || TARGETS.split_whitespace().any(|k| k == t) => {
                targets.push(t.to_string())
            }
            other => {
                eprintln!("tables: unknown target {other:?} (targets: all {TARGETS})");
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = (1..=9).map(|i| format!("table{i}")).collect();
        targets.push("figure1".into());
        targets.push("eq1".into());
        targets.push("energy".into());
        targets.push("ablation".into());
        targets.push("scaling".into());
        targets.push("timeline".into());
    }

    for t in &targets {
        match t.as_str() {
            "table1" => println!("{}", vs_bench::render_table1()),
            "table2" => println!("{}", vs_bench::render_table2()),
            "table3" => println!("{}", vs_bench::render_table3()),
            "table4" => println!("{}", vs_bench::render_table4()),
            "table5" => println!("{}", vs_bench::render_table5()),
            "table6" => {
                println!("Table 6:");
                println!("{}", render_table(&jupiter_table(Dataset::TwoBsm, scale)));
            }
            "table7" => {
                println!("Table 7:");
                println!("{}", render_table(&jupiter_table(Dataset::TwoBxg, scale)));
            }
            "table8" => {
                println!("Table 8:");
                println!("{}", render_table(&hertz_table(Dataset::TwoBsm, scale)));
            }
            "table9" => {
                println!("Table 9:");
                println!("{}", render_table(&hertz_table(Dataset::TwoBxg, scale)));
            }
            "figure1" => figure1(),
            "eq1" => eq1(),
            "energy" => energy(),
            "ablation" => ablation(),
            "distribution" => distribution(),
            "quality" => quality(),
            "cooperative" => cooperative(),
            "scaling" => scaling(),
            "timeline" => timeline(),
            "json" => {
                let report = vscreen::report::full_report(scale);
                let path = std::path::Path::new("reproduction_report.json");
                std::fs::write(path, vscreen::report::to_json(&report)).expect("write report");
                println!("machine-readable report written to {}", path.display());
            }
            other => unreachable!("target {other:?} is not in TARGETS"),
        }
    }
    ExitCode::SUCCESS
}

/// Figure 1 analog: dock the 2BSM ligand and emit the bound pose as PDB.
fn figure1() {
    println!("Figure 1: receptor-ligand binding (best docked pose, PDB format)");
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(6).seed(1).build();
    let params = metaheur::m2(0.1);
    let out = screen.run(RunSpec::cpu(&params, 8));
    println!(
        "best pose: score {:.2} at spot {} ({} evaluations)",
        out.best.score, out.best.spot_id, out.evaluations
    );
    let pdb = screen.pose_pdb(&out.best);
    let path = std::path::Path::new("figure1_pose.pdb");
    std::fs::write(path, &pdb).expect("write pose");
    let complex_path = std::path::Path::new("figure1_complex.pdb");
    std::fs::write(complex_path, screen.complex_pdb(&out.best)).expect("write complex");
    println!(
        "pose written to {} ({} atoms); full receptor+ligand complex to {}",
        path.display(),
        screen.ligand().len(),
        complex_path.display()
    );
    for line in pdb.lines().take(5) {
        println!("  {line}");
    }
    println!();
}

/// Energy-to-solution experiment (paper §1 energy discussion, Table 1
/// perf/watt row).
fn energy() {
    use vscreen::ablation::{energy_table, render_energy_table};
    for d in Dataset::ALL {
        let rows = energy_table(d);
        println!("{}", render_energy_table(d, &rows));
    }
}

/// Ablations: warm-up length and dynamic-queue chunk size (DESIGN.md §6).
fn ablation() {
    use vscreen::ablation::{chunk_sweep, warmup_sweep};
    println!("Ablation: warm-up length (Hertz, M1, 2BSM; gain = hom/het makespan)");
    println!("{:>12} {:>14} {:>8}", "iterations", "het time (s)", "gain");
    for p in warmup_sweep(Dataset::TwoBsm, &[1, 2, 5, 8, 10, 16, 25, 33]) {
        println!("{:>12} {:>14.4} {:>8.3}", p.iterations, p.het_makespan, p.gain);
    }
    println!("\nAblation: dynamic-queue chunk size (Hertz, M1, 2BSM)");
    println!("{:>8} {:>14} {:>10}", "chunk", "makespan (s)", "vs het");
    for p in chunk_sweep(Dataset::TwoBsm, &[8, 32, 128, 512, 1024, 2048]) {
        println!("{:>8} {:>14.4} {:>10.3}", p.chunk, p.makespan, p.vs_heterogeneous);
    }
    println!();
}

/// Execution timelines: why the heterogeneous algorithm wins on Hertz —
/// the homogeneous split leaves the K40c idle while the GTX 580 finishes.
fn timeline() {
    use gpusim::{Timeline, WorkProfile};
    use vsched::{schedule_trace_with, ReplayOptions};
    let node = platform::hertz();
    let n_spots = vscreen::experiment::spot_count(Dataset::TwoBsm);
    let pairs = (Dataset::TwoBsm.ligand_atoms() * Dataset::TwoBsm.receptor_atoms()) as u64;
    let trace = vscreen::trace::synthetic_trace(&metaheur::m1(1.0), n_spots);
    for strat in [
        Strategy::HomogeneousSplit,
        Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
    ] {
        let tl = Timeline::new();
        let report = schedule_trace_with(
            node.cpu(),
            node.gpus(),
            &trace,
            WorkProfile::pairs(pairs),
            strat,
            ReplayOptions { timeline: Some(&tl), ..Default::default() },
        );
        println!("{} (makespan {:.4}s):", report.strategy_label, report.makespan);
        print!("{}", tl.render(64));
        println!();
    }
}

/// GPU-count scaling sweep (§5 scalability claim).
fn scaling() {
    use vscreen::scaling::{gpu_scaling, render_scaling};
    for d in Dataset::ALL {
        println!("{}", render_scaling(d, &gpu_scaling(d, &metaheur::m1(1.0))));
    }
}

/// Solution-quality comparison across algorithm families (real scoring).
fn quality() {
    use vscreen::quality::{quality_comparison, render_quality};
    let rows = quality_comparison(Dataset::TwoBsm, 6, 0.15, 8, 2016);
    println!("{}", render_quality(Dataset::TwoBsm, &rows));
}

/// Cooperative vs independent job scheduling at equal budget (abstract: "a
/// cooperative scheduling of jobs optimizes the quality of the solution").
fn cooperative() {
    use vscreen::quality::cooperative_search;
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(4).seed(3).build();
    let spots = screen.spots().to_vec();
    let scorer = screen.scorer();
    let params = metaheur::m1(0.1);
    let pooled = || metaheur::CpuEvaluator::new((*scorer).clone(), vsscore::Exec::Pool(8));
    let coop = cooperative_search(&params, &spots, pooled, 3, 2, 41);
    let indep = cooperative_search(&params, &spots, pooled, 6, 1, 41);
    println!("Cooperative vs independent jobs (equal budget of {} evaluations):", coop.evaluations);
    println!("  3 jobs x 2 epochs, incumbent sharing: best {:.2}", coop.best_score);
    println!("  6 jobs x 1 epoch, fully independent:  best {:.2}", indep.best_score);
    println!("  epoch history (cooperative): {:?}", coop.epoch_history);
    println!();
}

/// Score distribution over the protein surface (BINDSURF's spot-discovery
/// analysis, §2.1).
fn distribution() {
    println!("Score distribution over the 2BSM surface (best score per spot)");
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(24).seed(3).build();
    let params = metaheur::m1(0.1);
    let out = screen.run(RunSpec::cpu(&params, 8));
    let h = out.score_histogram(8).expect("scored spots");
    print!("{}", h.render(40));
    println!();
}

/// Equation 1 demo: the warm-up phase and Percent factors on Hertz.
fn eq1() {
    println!("Equation 1: Percent = t_actualGPU / t_slowestGPU (warm-up on Hertz)");
    let node = platform::hertz();
    let pairs = (Dataset::TwoBsm.ligand_atoms() * Dataset::TwoBsm.receptor_atoms()) as u64;
    let times =
        warmup_times(node.gpus(), gpusim::WorkProfile::pairs(pairs), WarmupConfig::default());
    for (i, (t, p)) in times.iter().zip(percent_factors(&times)).enumerate() {
        println!("  GPU {i} {:<18} warm-up {:.5}s  Percent = {:.3}", node.properties(i).name, t, p);
    }
    println!();
}
