//! Pipelined-engine performance snapshot: device idle fraction and
//! makespan, charged lockstep vs the stage pipeline at depths {1, 2, 4},
//! on the Hertz node's GPUs under dynamic distribution, written as
//! `BENCH_pipeline.json`.
//!
//! Both modes charge one host cost model (`metaheur::HostCosts`), so the
//! comparison isolates exactly what the pipeline changes: whether host
//! variation/selection overlaps device scoring or serializes with it. Virtual times are
//! deterministic, so the snapshot doubles as a regression gate — the best
//! pipelined depth must cut the device idle fraction by at least 25%
//! relative to lockstep without regressing the makespan, and every mode
//! must land on the bit-identical best pose.
//!
//! Usage:
//!   cargo run --release -p vs-bench --bin pipeline_snapshot -- [OUT.json]
//!
//! Defaults to `BENCH_pipeline.json` in the current directory.

use metaheur::{run_exec, EngineExec};
use std::sync::Arc;
use vsched::{DeviceEvaluator, Strategy};
use vscreen::platform;
use vsmol::Dataset;
use vsscore::{Kernel, ScorerOptions};
use vstrace::Trace;

const SPOTS: usize = 32;
const SEED: u64 = 2016;

struct ModeStats {
    label: String,
    makespan_s: f64,
    idle_frac: f64,
    best_bits: u64,
    evaluations: u64,
    batches: usize,
}

fn run_mode(screen: &vscreen::VirtualScreen, label: &str, exec: EngineExec) -> ModeStats {
    let params = metaheur::m2(0.2);
    let node = platform::hertz();
    // The paper's deployment: the host orchestrates (variation, selection,
    // batch marshalling) while the node's GPUs score, fed dynamically.
    let devices = node.gpus().to_vec();
    let strategy = Strategy::DynamicQueue { chunk: 256 };
    let trace = Trace::new();
    let mut ev =
        DeviceEvaluator::new(devices.clone(), screen.scorer(), strategy).with_trace(trace.clone());
    let run = run_exec(&params, screen.spots(), &mut ev, SEED, &[], &trace, exec);
    let makespan = ev.makespan();

    // steal_report-style cross-check: the trace's per-device busy + idle
    // totals must stay within each device's own clock, and no clock can
    // outrun the makespan — the trace and the simulated hardware agree.
    let snap = trace.snapshot();
    let (mut busy_total, mut idle_total) = (0.0, 0.0);
    for dev in &devices {
        let busy = snap.device_busy_s(dev.id() as u32);
        let idle = snap.device_idle_s(dev.id() as u32);
        let clock = dev.clock();
        assert!(busy > 0.0, "{label}: device {} never scored", dev.id());
        assert!(
            busy + idle <= clock + 1e-9,
            "{label}: device {} trace busy {busy:.6}s + idle {idle:.6}s exceeds its clock {clock:.6}s",
            dev.id()
        );
        assert!(
            clock <= makespan + 1e-9,
            "{label}: device {} clock {clock:.6}s exceeds makespan {makespan:.6}s",
            dev.id()
        );
        eprintln!(
            "  [{label}] dev {}: busy {busy:.4}s idle {idle:.4}s clock {clock:.4}s",
            dev.id()
        );
        busy_total += busy;
        idle_total += idle;
    }
    // Idle fraction in the `vstrace::text_summary` sense: the share of
    // accounted device time spent stalled on a host release rather than
    // scoring — the cost of the per-generation barrier.
    let idle_frac = idle_total / (busy_total + idle_total);

    ModeStats {
        label: label.to_string(),
        makespan_s: makespan,
        idle_frac,
        best_bits: run.best.score.to_bits(),
        evaluations: run.evaluations,
        batches: run.batch_trace.len(),
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let screen = Arc::new(
        vscreen::VirtualScreen::builder(Dataset::TwoBsm)
            .max_spots(SPOTS)
            .seed(7)
            .scorer_options(ScorerOptions { kernel: Kernel::Fused, ..Default::default() })
            .build(),
    );
    eprintln!(
        "pipeline_snapshot: 2BSM, {} spots, M2 (scale 0.2), hertz GPUs under dynamic queue",
        screen.spots().len()
    );

    let mut stats = vec![run_mode(&screen, "lockstep", EngineExec::Lockstep)];
    for depth in [1usize, 2, 4] {
        stats.push(run_mode(
            &screen,
            &format!("pipelined:{depth}"),
            EngineExec::Pipelined { depth },
        ));
    }
    for s in &stats {
        eprintln!(
            "{:>12}: makespan {:.5}s  idle {:.1}%  ({} evals in {} batches)",
            s.label,
            s.makespan_s,
            100.0 * s.idle_frac,
            s.evaluations,
            s.batches
        );
    }

    // The pipeline must not change the search: bit-identical best pose and
    // evaluation count in every mode.
    let lock = &stats[0];
    for s in &stats[1..] {
        assert_eq!(lock.best_bits, s.best_bits, "{}: best pose moved", s.label);
        assert_eq!(lock.evaluations, s.evaluations, "{}: evaluation count moved", s.label);
    }

    // Regression gates: the best pipelined depth must cut device idle time
    // by >= 25% relative to charged lockstep, with makespan no worse.
    let best = stats[1..]
        .iter()
        .min_by(|a, b| a.idle_frac.total_cmp(&b.idle_frac))
        .expect("pipelined modes");
    let idle_drop = 1.0 - best.idle_frac / lock.idle_frac;
    eprintln!(
        "best pipelined ({}) idle {:.1}% vs lockstep {:.1}% — relative drop {:.1}%",
        best.label,
        100.0 * best.idle_frac,
        100.0 * lock.idle_frac,
        100.0 * idle_drop
    );
    assert!(
        idle_drop >= 0.25,
        "pipelining only cut device idle by {:.1}% (< 25%): {:.4} -> {:.4}",
        100.0 * idle_drop,
        lock.idle_frac,
        best.idle_frac
    );
    assert!(
        best.makespan_s <= lock.makespan_s * (1.0 + 1e-9),
        "pipelined makespan {:.6}s regressed past lockstep {:.6}s",
        best.makespan_s,
        lock.makespan_s
    );

    let mode_blocks: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "    {{\n      \"mode\": \"{}\",\n      \"makespan_s\": {:.6},\n      \"device_idle_frac\": {:.4},\n      \"evaluations\": {},\n      \"batches\": {}\n    }}",
                s.label, s.makespan_s, s.idle_frac, s.evaluations, s.batches
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"units\": \"virtual_seconds\",\n  \"node\": \"hertz\",\n  \"dataset\": \"2BSM\",\n  \"meta\": \"M2\",\n  \"spots\": {},\n  \"idle_drop_rel\": {:.4},\n  \"modes\": [\n{}\n  ]\n}}\n",
        screen.spots().len(),
        idle_drop,
        mode_blocks.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");
}
