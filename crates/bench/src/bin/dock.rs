//! `dock` — command-line virtual screening.
//!
//! Docks a ligand (or a whole SDF library) against a receptor over its
//! detected surface spots, on a simulated heterogeneous node.
//!
//! ```text
//! dock --receptor rec.pdb --ligand lig.sdf \
//!      [--meta m1|m2|m3|m4] [--scale 0.2] [--spots 16] \
//!      [--node hertz|jupiter] [--strategy cpu|hom|het|dynamic|steal|oracle] \
//!      [--kernel fused|grid|cells|naive] \
//!      [--exec lockstep|pipelined|pipelined:4] \
//!      [--threads 8] [--seed 42] [--out pose.pdb] [--complex complex.pdb]
//! ```
//!
//! Without `--receptor`/`--ligand`, the built-in 2BSM benchmark compounds
//! are used (Table 5 atom counts).

use std::process::ExitCode;
use vscreen::prelude::*;

struct Args {
    receptor: Option<String>,
    ligand: Option<String>,
    meta: String,
    scale: f64,
    spots: usize,
    node: String,
    strategy: String,
    kernel: String,
    exec: Option<EngineExec>,
    threads: usize,
    seed: u64,
    out: Option<String>,
    complex: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        receptor: None,
        ligand: None,
        meta: "m2".into(),
        scale: 0.2,
        spots: 16,
        node: "hertz".into(),
        strategy: "het".into(),
        kernel: "fused".into(),
        exec: None,
        threads: 8,
        seed: 2016,
        out: None,
        complex: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--receptor" => args.receptor = Some(val("--receptor")?),
            "--ligand" => args.ligand = Some(val("--ligand")?),
            "--meta" => args.meta = val("--meta")?.to_lowercase(),
            "--scale" => args.scale = vs_bench::parse_scale(&val("--scale")?)?,
            "--spots" => {
                args.spots = val("--spots")?.parse().map_err(|e| format!("--spots: {e}"))?
            }
            "--node" => args.node = val("--node")?.to_lowercase(),
            "--strategy" => args.strategy = val("--strategy")?.to_lowercase(),
            "--kernel" => args.kernel = val("--kernel")?.to_lowercase(),
            "--exec" => args.exec = Some(val("--exec")?.to_lowercase().parse()?),
            "--threads" => {
                args.threads = val("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = Some(val("--out")?),
            "--complex" => args.complex = Some(val("--complex")?),
            "--help" | "-h" => {
                return Err("usage: dock [--receptor rec.pdb] [--ligand lig.{pdb,sdf}] \
                            [--meta m1..m4] [--scale F] [--spots N] [--node hertz|jupiter] \
                            [--strategy cpu|hom|het|dynamic|steal|oracle] \
                            [--kernel fused|grid|cells|naive] \
                            [--exec lockstep|pipelined[:depth]] [--threads N] \
                            [--seed N] [--out pose.pdb] [--complex complex.pdb]"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn load_molecule(path: &str, what: &str) -> Result<Molecule, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{what} {path}: {e}"))?;
    if path.ends_with(".sdf") || path.ends_with(".mol") {
        let mols = vsmol::sdf::parse(&text, what).map_err(|e| format!("{path}: {e}"))?;
        mols.into_iter().next().ok_or_else(|| format!("{path}: empty SDF"))
    } else {
        // PDB: prefer the structured parse so HETATM-only ligand files and
        // full complexes both work.
        let s = vsmol::pdb::parse_structure(&text, what).map_err(|e| format!("{path}: {e}"))?;
        let protein = s.protein();
        if what == "receptor" {
            if !protein.is_empty() {
                Ok(protein)
            } else {
                vsmol::pdb::parse(&text, what).map_err(|e| format!("{path}: {e}"))
            }
        } else {
            s.ligands().into_iter().next().filter(|m| !m.is_empty()).map(Ok).unwrap_or_else(|| {
                vsmol::pdb::parse(&text, what).map_err(|e| format!("{path}: {e}"))
            })
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dock: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    let (receptor, ligand) = match (&args.receptor, &args.ligand) {
        (Some(r), Some(l)) => (load_molecule(r, "receptor")?, load_molecule(l, "ligand")?),
        (None, None) => {
            eprintln!("dock: no input files; using the built-in 2BSM benchmark compounds");
            (Dataset::TwoBsm.receptor(), Dataset::TwoBsm.ligand())
        }
        _ => return Err("provide both --receptor and --ligand, or neither".into()),
    };

    let params = match args.meta.as_str() {
        "m1" => metaheur::m1(args.scale),
        "m2" => metaheur::m2(args.scale),
        "m3" => metaheur::m3(args.scale),
        "m4" => metaheur::m4(args.scale),
        other => return Err(format!("unknown metaheuristic {other:?} (m1..m4)")),
    };

    // Kernel selection: `fused` is the exact default; `grid` trades
    // bounded accuracy for O(ligand) evaluations, `cells` for an exact
    // 12 Å cutoff. The scheduler prices each in its own cost regime.
    let kernel = match args.kernel.as_str() {
        "fused" => vsscore::Kernel::Fused,
        "grid" => vsscore::Kernel::Grid { spacing: vsscore::GridOptions::default().spacing },
        "cells" => vsscore::Kernel::CellList { cutoff: vsscore::GridOptions::default().cutoff },
        "naive" => vsscore::Kernel::Naive,
        other => return Err(format!("unknown kernel {other:?} (fused|grid|cells|naive)")),
    };

    let screen = VirtualScreen::from_molecules(receptor, ligand)
        .max_spots(args.spots)
        .seed(args.seed)
        .scorer_options(vsscore::ScorerOptions { kernel, ..Default::default() })
        .build();
    eprintln!(
        "dock: receptor {} atoms, ligand {} atoms, {} spots, {} ({} evals/spot), {} kernel",
        screen.receptor().len(),
        screen.ligand().len(),
        screen.spots().len(),
        params.name,
        params.evals_per_spot(),
        args.kernel
    );

    let node = match args.node.as_str() {
        "hertz" => platform::hertz(),
        "jupiter" => platform::jupiter(),
        other => return Err(format!("unknown node {other:?} (hertz|jupiter)")),
    };
    let strategy = match args.strategy.as_str() {
        "cpu" => Strategy::CpuOnly,
        "hom" => Strategy::HomogeneousSplit,
        "het" => Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() },
        "dynamic" => Strategy::DynamicQueue { chunk: 512 },
        "steal" => Strategy::WorkSteal { warmup: WarmupConfig::default(), divisor: 2 },
        "oracle" => Strategy::Oracle { warmup: WarmupConfig::default(), divisor: 2 },
        other => {
            return Err(format!("unknown strategy {other:?} (cpu|hom|het|dynamic|steal|oracle)"))
        }
    };

    // `--exec` selects the engine execution mode (DESIGN.md §12): without
    // it the classic uncharged loop runs; `lockstep` charges host costs;
    // `pipelined[:depth]` overlaps variation with device scoring.
    let mut spec = RunSpec::on_node(&params, &node, strategy);
    if let Some(exec) = args.exec {
        spec = spec.exec(exec);
    }
    let outcome = screen.run(spec);

    println!(
        "best score {:.3} at spot {} ({} evaluations, {:.4} virtual s on {} / {})",
        outcome.best.score,
        outcome.best.spot_id,
        outcome.evaluations,
        outcome.virtual_time,
        node.name(),
        strategy.label()
    );
    println!("spot ranking:");
    for (rank, c) in outcome.ranked.iter().take(10).enumerate() {
        println!("  #{:<2} spot {:>3}  {:>10.3}", rank + 1, c.spot_id, c.score);
    }

    if let Some(path) = &args.out {
        std::fs::write(path, screen.pose_pdb(&outcome.best)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("dock: best pose written to {path}");
    }
    if let Some(path) = &args.complex {
        std::fs::write(path, screen.complex_pdb(&outcome.best))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("dock: receptor+ligand complex written to {path}");
    }
    Ok(())
}
