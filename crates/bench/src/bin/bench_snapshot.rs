//! Scoring-kernel performance snapshot: kernel → poses/sec at the paper's
//! Table 5 complex sizes, written as `BENCH_scoring.json`.
//!
//! A change to the scoring hot path reruns the snapshot and records the
//! headline speedups in CHANGES.md, so kernel regressions are visible as
//! numbers, not vibes.
//!
//! Usage:
//!   cargo run --release -p vs-bench --bin bench_snapshot -- [OUT.json]
//!
//! Defaults to `BENCH_scoring.json` in the current directory.

use std::time::Instant;
use vsmath::{RigidTransform, RngStream};
use vsmol::synth;
use vsscore::scorer::{Kernel, ScorerOptions, ScoringModel};
use vsscore::{Exec, PoseScratch, ScoreBatch, Scorer};

/// Table 5 complexes: (receptor atoms, ligand atoms).
const COMPLEXES: [(usize, usize); 2] = [(3264, 45), (8609, 32)];

const MODELS: [(&str, ScoringModel); 2] = [
    ("lj", ScoringModel::LennardJones),
    ("full", ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 }),
];

const KERNELS: [(&str, Kernel); 4] = [
    ("naive", Kernel::Naive),
    ("fused", Kernel::Fused),
    ("cells", Kernel::CellList { cutoff: 12.0 }),
    ("grid", Kernel::Grid { spacing: 0.75 }),
];

/// Seconds of measured scoring per (complex, model, kernel) cell.
const MEASURE_SECS: f64 = 0.4;

fn poses_per_sec(scorer: &Scorer, poses: &[RigidTransform]) -> f64 {
    let mut scratch = PoseScratch::new();
    let mut out = vec![0.0; poses.len()];
    // Warm-up: bind the scratch, fault pages, settle the clock.
    scorer.score_batch(ScoreBatch::Poses { poses, out: &mut out }, &mut scratch, Exec::Serial);
    let start = Instant::now();
    let mut batches = 0u64;
    loop {
        scorer.score_batch(ScoreBatch::Poses { poses, out: &mut out }, &mut scratch, Exec::Serial);
        batches += 1;
        if start.elapsed().as_secs_f64() >= MEASURE_SECS {
            break;
        }
    }
    std::hint::black_box(&out);
    (batches * poses.len() as u64) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_scoring.json".to_string());
    let mut rng = RngStream::from_seed(5);
    let poses: Vec<RigidTransform> =
        (0..16).map(|_| RigidTransform::new(rng.rotation(), rng.in_ball(30.0))).collect();

    let mut complex_blocks = Vec::new();
    let mut speedup_line = String::new();
    for (n_rec, n_lig) in COMPLEXES {
        let rec = synth::synth_receptor("r", n_rec, 3);
        let lig = synth::synth_ligand("l", n_lig, 7);
        let mut model_blocks = Vec::new();
        for (mlabel, model) in MODELS {
            let mut cells = Vec::new();
            let mut naive_pps = 0.0;
            let mut fused_pps = 0.0;
            let mut grid_pps = 0.0;
            for (klabel, kernel) in KERNELS {
                let scorer = Scorer::new(&rec, &lig, ScorerOptions { model, kernel });
                let pps = poses_per_sec(&scorer, &poses);
                eprintln!("{n_rec}x{n_lig} {mlabel:>4} {klabel:>5}: {pps:>10.1} poses/s");
                if klabel == "naive" {
                    naive_pps = pps;
                }
                if klabel == "fused" {
                    fused_pps = pps;
                }
                if klabel == "grid" {
                    grid_pps = pps;
                }
                cells.push(format!("\"{klabel}\": {pps:.1}"));
            }
            let fused_over_naive = fused_pps / naive_pps;
            let grid_over_fused = grid_pps / fused_pps;
            eprintln!(
                "{n_rec}x{n_lig} {mlabel:>4} fused/naive: {fused_over_naive:.2}x, \
                 grid/fused: {grid_over_fused:.2}x"
            );
            speedup_line.push_str(&format!(
                "{n_rec}x{n_lig}/{mlabel}: fused {fused_over_naive:.2}x, grid {grid_over_fused:.2}x; "
            ));
            model_blocks.push(format!(
                "      \"{mlabel}\": {{ {}, \"fused_over_naive\": {fused_over_naive:.3}, \"grid_over_fused\": {grid_over_fused:.3} }}",
                cells.join(", ")
            ));
        }
        complex_blocks.push(format!(
            "    {{\n      \"receptor_atoms\": {n_rec},\n      \"ligand_atoms\": {n_lig},\n{}\n    }}",
            model_blocks.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"scoring\",\n  \"units\": \"poses_per_sec\",\n  \"poses_per_batch\": 16,\n  \"complexes\": [\n{}\n  ]\n}}\n",
        complex_blocks.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");
    eprintln!("summary: {speedup_line}");
}
