//! Watch the work-stealing node runtime absorb a mid-run GPU fault.
//!
//! Builds a heterogeneous Hertz node (4-core Xeon host + Tesla K40c +
//! GeForce GTX 580) whose three lanes all pull from the stealing runtime,
//! runs the warm-up so Equation 1 fixes the deque weights, then degrades
//! the GTX 580 4x *after* the weights froze. The healthy lanes steal the
//! stranded chunks; every steal lands on the trace as a `JobMigrated`
//! instant event.
//!
//! Writes `steal_trace.json` (chrome-trace JSON; open in
//! <https://ui.perfetto.dev>) to the current directory or the directory
//! given as the first argument.
//!
//! The example validates its own output: per-device busy totals in the
//! event stream are checked against both the `gpusim::Timeline` segments
//! and the simulated device clocks, and the exported JSON must parse back
//! and contain the steal events.
//!
//! Run with: `cargo run --release -p vs-examples --example runtime_steal`

use metaheur::BatchEvaluator;
use std::sync::Arc;
use vscreen::prelude::*;
use vsmath::{RigidTransform, RngStream};
use vstrace::json::{parse, Value};
use vstrace::{chrome_trace_json, Event, Trace};

fn confs(n: usize, rng: &mut RngStream) -> Vec<vsmol::Conformation> {
    (0..n)
        .map(|_| {
            vsmol::Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(25.0)), 0)
        })
        .collect()
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let node = platform::hertz();
    let receptor = vsmol::synth::synth_receptor("rec", 400, 11);
    let ligand = vsmol::synth::synth_ligand("lig", 12, 12);
    let scorer = Arc::new(vsscore::Scorer::new(&receptor, &ligand, Default::default()));

    // The whole node steals: host CPU lane plus both GPUs.
    let mut devices = vec![node.cpu().clone()];
    devices.extend(node.gpus().iter().cloned());
    let warmup = WarmupConfig::default();
    let trace = Trace::new();
    // The timeline carries the trace so every recorded segment also lands
    // on the event stream as a DeviceBusy.
    let timeline = Arc::new(gpusim::Timeline::new().with_trace(trace.clone()));
    let mut eval = vsched::DeviceEvaluator::new(
        devices.clone(),
        scorer,
        Strategy::WorkSteal { warmup, divisor: 2 },
    )
    .with_timeline(timeline.clone())
    .with_trace(trace.clone());

    let mut rng = RngStream::from_seed(2016);

    // Warm-up generations: Equation 1 measures the lanes and freezes the
    // deque weights.
    for _ in 0..warmup.iterations {
        eval.evaluate(&mut confs(2048, &mut rng));
    }
    println!("warm-up done: Eq. 1 weights {:?}", eval.weights());

    // The GTX 580 degrades 4x after its weight froze — thermal throttling
    // mid-campaign. Its seeded deque share is now 4x too large.
    let victim = &node.gpus()[1];
    victim.set_slowdown(4.0);
    println!("injected 4x slowdown on {}", victim.name());

    // Big post-fault generations: plenty of occupancy-floor chunks for the
    // healthy lanes to steal.
    for _ in 0..6 {
        eval.evaluate(&mut confs(16 * 1024, &mut rng));
    }

    let stats = eval.steal_stats();
    println!(
        "runtime claimed {} chunks, {} of them steals ({} conformations migrated)",
        stats.chunks, stats.steals, stats.stolen_items
    );
    assert!(stats.steals > 0, "a 4x straggler lane must trigger steals");

    // -- Self-validation ---------------------------------------------------

    let data = trace.snapshot();
    assert_eq!(data.dropped, 0, "records past the trace cap not kept");

    // Busy totals must agree three ways: event stream, timeline segments,
    // device clocks.
    let lanes = timeline.device_stats();
    for dev in &devices {
        let clock = dev.clock();
        let from_events = data.device_busy_s(dev.id() as u32);
        let from_timeline =
            lanes.iter().find(|l| l.device == dev.id()).map(|l| l.busy_s).unwrap_or_default();
        assert!(
            (from_events - clock).abs() <= 1e-9 * clock.max(1.0),
            "{}: events {} != clock {}",
            dev.name(),
            from_events,
            clock
        );
        assert!(
            (from_timeline - clock).abs() <= 1e-9 * clock.max(1.0),
            "{}: timeline {} != clock {}",
            dev.name(),
            from_timeline,
            clock
        );
        println!(
            "  {:<22} busy {:>9.4} vs (events = timeline = clock, {} items)",
            dev.name(),
            clock,
            dev.stats().items
        );
    }

    // The steals are on the trace, between real lanes of this node.
    let steals: Vec<(u32, u32)> = data
        .payloads()
        .into_iter()
        .filter_map(|e| match e {
            Event::JobMigrated { from_node, to_node, .. } => Some((from_node, to_node)),
            _ => None,
        })
        .collect();
    let ids: Vec<u32> = devices.iter().map(|d| d.id() as u32).collect();
    assert_eq!(steals.len() as u64, stats.steals);
    for &(from, to) in &steals {
        assert!(ids.contains(&from) && ids.contains(&to) && from != to);
    }

    // Export, parse back, confirm the steal events survived serialization.
    let json = chrome_trace_json(&data);
    let doc = parse(&json).expect("exported chrome trace must be valid JSON");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
    let exported_steals = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("JobMigrated"))
        .count();
    assert_eq!(exported_steals, steals.len(), "steal events lost in export");

    let json_path = format!("{out_dir}/steal_trace.json");
    std::fs::write(&json_path, &json).expect("write steal_trace.json");
    println!(
        "\nwrote {json_path} ({} events, {} JobMigrated) — makespan {:.4} virtual s",
        data.len(),
        exported_steals,
        eval.makespan()
    );
}
