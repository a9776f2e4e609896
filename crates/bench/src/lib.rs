//! # vs-bench — reproduction harness
//!
//! Three kinds of binary:
//!
//! - `tables` (`src/bin/tables.rs`) regenerates every table and figure of
//!   the paper's evaluation: `cargo run -p vs-bench --release --bin tables
//!   -- all`;
//! - `dock` is the command-line screen over the whole stack;
//! - the snapshot binaries write one JSON cell each: the deterministic
//!   `sched_snapshot`, `pipeline_snapshot`, `campaign_snapshot` and
//!   `grid_accuracy` (pinned byte for byte by `scripts/ci.sh`), and the
//!   wall-time `bench_snapshot` (`BENCH_scoring.json`). Host wall time
//!   with statistics is measured by `perfbench/`.
//!
//! This library half hosts the table renderers for Tables 1–5 (static
//! hardware/parameter/dataset tables) and the `--scale` parser, shared by
//! the binaries and tests.
#![forbid(unsafe_code)]

use gpusim::{catalog, DeviceSpec, GpuGeneration};
use std::fmt::Write;
use vsmol::Dataset;

/// Parse a `--scale` factor, which multiplies the calibrated workload: a
/// finite number greater than zero. `inf` would ask for `usize::MAX`
/// generations, and NaN, zero or a negative factor would be rounded up to
/// one generation without a word, so all are refused.
pub fn parse_scale(s: &str) -> Result<f64, String> {
    let f: f64 = s.parse().map_err(|e| format!("--scale {s:?}: {e}"))?;
    if f.is_finite() && f > 0.0 {
        Ok(f)
    } else {
        Err(format!("--scale {s:?}: must be a finite number greater than zero"))
    }
}

/// Table 1: CUDA summary by generation.
pub fn render_table1() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: CUDA summary by generation");
    let _ =
        writeln!(s, "{:<46} {:>8} {:>8} {:>8} {:>8}", "", "Tesla", "Fermi", "Kepler", "Maxwell");
    let infos: Vec<_> = GpuGeneration::ALL.iter().map(|g| g.info()).collect();
    let row = |label: &str, vals: Vec<String>| -> String {
        format!("{:<46} {:>8} {:>8} {:>8} {:>8}\n", label, vals[0], vals[1], vals[2], vals[3])
    };
    s.push_str(&row("Starting year", infos.iter().map(|i| i.starting_year.to_string()).collect()));
    s.push_str(&row(
        "Multiprocessors per die (up to)",
        infos.iter().map(|i| i.max_multiprocessors.to_string()).collect(),
    ));
    s.push_str(&row(
        "Cores per multiprocessor",
        infos.iter().map(|i| i.cores_per_multiprocessor.to_string()).collect(),
    ));
    s.push_str(&row(
        "Total number of cores (up to)",
        GpuGeneration::ALL.iter().map(|g| g.max_total_cores().to_string()).collect(),
    ));
    s.push_str(&row(
        "Shared memory size (max KB)",
        infos.iter().map(|i| i.max_shared_memory_kb.to_string()).collect(),
    ));
    s.push_str(&row(
        "CUDA Compute Capabilities",
        infos.iter().map(|i| format!("{}.x", i.ccc_major)).collect(),
    ));
    s.push_str(&row(
        "Peak single-precision GFLOPS",
        infos.iter().map(|i| i.peak_sp_gflops.to_string()).collect(),
    ));
    s.push_str(&row(
        "Performance per watt (normalized)",
        infos.iter().map(|i| i.perf_per_watt.to_string()).collect(),
    ));
    s
}

fn render_device_block(s: &mut String, d: &DeviceSpec) {
    let _ = writeln!(
        s,
        "  {:<22} year {}  lanes {:>5} @ {:>6.0} MHz  mem {:>6} MB @ {:>6.1} GB/s  CCC {}",
        d.name,
        d.year,
        d.lanes(),
        d.clock_mhz,
        d.memory_mb,
        d.memory_bandwidth_gbs,
        d.ccc_string()
    );
}

/// Table 2: the Jupiter system.
pub fn render_table2() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 2: Hardware resources on Jupiter");
    render_device_block(&mut s, &catalog::xeon_e5_2620_dual());
    for _ in 0..4 {
        render_device_block(&mut s, &catalog::geforce_gtx_590());
    }
    for _ in 0..2 {
        render_device_block(&mut s, &catalog::tesla_c2075());
    }
    s
}

/// Table 3: the Hertz system.
pub fn render_table3() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 3: Hardware resources on Hertz");
    render_device_block(&mut s, &catalog::xeon_e3_1220());
    render_device_block(&mut s, &catalog::tesla_k40c());
    render_device_block(&mut s, &catalog::geforce_gtx_580());
    s
}

/// Table 4: algorithm parameters for the four metaheuristics.
pub fn render_table4() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 4: Algorithm parameters for the four metaheuristics");
    let _ = writeln!(
        s,
        "{:<6} {:>18} {:>14} {:>14} {:>16}",
        "Meta", "Initial pop (S)", "% selected", "% improved", "evals/spot(full)"
    );
    for p in metaheur::paper_suite(1.0) {
        let sel = match p.select {
            metaheur::SelectStrategy::TruncationBest { fraction } => {
                if p.single_pass {
                    "n/a".to_string()
                } else {
                    format!("{:.0}%", fraction * 100.0)
                }
            }
            metaheur::SelectStrategy::Tournament { k } => format!("tourn-{k}"),
        };
        let _ = writeln!(
            s,
            "{:<6} {:>15}*spots {:>14} {:>13.0}% {:>16}",
            p.name,
            p.population_per_spot,
            sel,
            p.improve_fraction * 100.0,
            p.evals_per_spot()
        );
    }
    s
}

/// Table 5: atom counts of the benchmark compounds.
pub fn render_table5() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5: Number of atoms of the benchmark compounds");
    let _ = writeln!(s, "{:<18} {:>8}", "Compound", "Atoms");
    for d in Dataset::ALL {
        let _ = writeln!(s, "{:<18} {:>8}", format!("{} Receptor", d.pdb_id()), d.receptor_atoms());
        let _ = writeln!(s, "{:<18} {:>8}", format!("{} Ligand", d.pdb_id()), d.ligand_atoms());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_generations() {
        let t = render_table1();
        for g in ["Tesla", "Fermi", "Kepler", "Maxwell", "2880", "672"] {
            assert!(t.contains(g), "missing {g}:\n{t}");
        }
    }

    #[test]
    fn table2_lists_jupiter_hardware() {
        let t = render_table2();
        assert!(t.contains("Xeon E5-2620"));
        assert_eq!(t.matches("GeForce GTX 590").count(), 4);
        assert_eq!(t.matches("Tesla C2075").count(), 2);
    }

    #[test]
    fn table3_lists_hertz_hardware() {
        let t = render_table3();
        assert!(t.contains("Xeon E3-1220"));
        assert!(t.contains("Tesla K40c"));
        assert!(t.contains("GeForce GTX 580"));
    }

    #[test]
    fn table4_has_paper_populations() {
        let t = render_table4();
        assert!(t.contains("M1"));
        assert!(t.contains("M4"));
        assert!(t.contains("1024"));
        assert!(t.contains("64"));
        assert!(t.contains("20%"));
    }

    #[test]
    fn table5_matches_paper_counts() {
        let t = render_table5();
        for v in ["3264", "45", "8609", "32"] {
            assert!(t.contains(v), "missing {v}");
        }
    }
}
