//! End-to-end observability contracts: trace determinism across same-seed
//! runs, zero overhead events from a disabled sink, and agreement between
//! the exported chrome trace and the simulated device clocks.

use gpusim::{SimDevice, SimNode};
use std::sync::Arc;
use vscreen::prelude::*;
use vstrace::json::{parse, Value};
use vstrace::{chrome_trace_json, text_summary, Event, Trace, BATCH_TRACK};

/// Same seed ⇒ identical event payload streams (the wall-clock stamps are
/// stripped by `payloads()` — they are the only nondeterministic fields).
#[test]
fn same_seed_produces_identical_event_payloads() {
    let run = || {
        let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(3).seed(11).build();
        let spots = screen.spots().to_vec();
        let trace = Trace::new();
        let mut ev = metaheur::CpuEvaluator::new((*screen.scorer()).clone(), vsscore::Exec::Serial)
            .with_trace(trace.clone());
        let r = metaheur::run_traced(&metaheur::m1(0.03), &spots, &mut ev, 11, &trace);
        (r.best.score, trace.snapshot().payloads())
    };
    let (best_a, payloads_a) = run();
    let (best_b, payloads_b) = run();
    assert_eq!(best_a.to_bits(), best_b.to_bits());
    assert!(!payloads_a.is_empty());
    assert_eq!(payloads_a, payloads_b);
    // The stream carries the engine's structure: spans plus one
    // GenerationDone per generation.
    assert!(payloads_a.iter().any(|e| matches!(e, Event::SpanBegin { name: "initialize" })));
    assert!(payloads_a.iter().any(|e| matches!(e, Event::GenerationDone { .. })));
}

/// A disabled sink must record nothing anywhere in the stack — engine,
/// evaluator, device scheduler.
#[test]
fn disabled_sink_records_zero_events_end_to_end() {
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(2).seed(5).build();
    let node = platform::hertz();
    let trace = Trace::disabled();
    let p = metaheur::m1(0.03);
    let out = screen.run(RunSpec::on_node(&p, &node, Strategy::HomogeneousSplit).traced(&trace));
    assert!(out.best.is_scored());
    assert!(trace.snapshot().is_empty(), "disabled sink must stay empty");
}

/// The exported chrome trace's per-device busy totals agree with the
/// simulated device clocks, and the document parses back — for the GPU
/// split and for the CPU-only baseline, over the devices each one drives.
#[test]
fn exported_trace_agrees_with_device_clocks() {
    let node = platform::hertz();
    trace_agrees_with_clocks(&node, Strategy::HomogeneousSplit, node.gpus());
    trace_agrees_with_clocks(&node, Strategy::CpuOnly, std::slice::from_ref(node.cpu()));
}

fn trace_agrees_with_clocks(node: &SimNode, strategy: Strategy, lanes: &[Arc<SimDevice>]) {
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(2).seed(5).build();
    let trace = Trace::new();
    let p = metaheur::m1(0.03);
    let out = screen.run(RunSpec::on_node(&p, node, strategy).traced(&trace));
    let data = trace.snapshot();
    assert_eq!(data.dropped, 0);

    let doc = parse(&chrome_trace_json(&data)).expect("valid chrome trace JSON");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
    for dev in lanes {
        let clock = dev.clock();
        assert!(clock > 0.0, "{}: device {} never ran", strategy.label(), dev.id());
        assert!((data.device_busy_s(dev.id() as u32) - clock).abs() <= 1e-9 * clock.max(1.0));
        let busy_us: f64 = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some("busy")
                    && e.get("tid").and_then(Value::as_num) == Some(dev.id() as f64)
            })
            .filter_map(|e| e.get("dur").and_then(Value::as_num))
            .sum();
        assert!(
            (busy_us / 1e6 - clock).abs() <= 1e-6 * clock.max(1.0),
            "{}: device {}: {} vs {}",
            strategy.label(),
            dev.id(),
            busy_us / 1e6,
            clock
        );
    }
    // Makespan in the stream matches the run outcome.
    let max_vt = data
        .events()
        .filter_map(|s| match s.event {
            Event::DeviceBusy { vt_end, .. } => Some(vt_end),
            _ => None,
        })
        .fold(0.0f64, f64::max);
    assert!((max_vt - out.virtual_time).abs() <= 1e-9 * out.virtual_time.max(1.0));

    // Every record is kept, so the batch stream counts every evaluation.
    let batched: u64 = data
        .events()
        .filter_map(|s| match s.event {
            Event::BatchScored { device: BATCH_TRACK, items, .. } => Some(items),
            _ => None,
        })
        .sum();
    assert_eq!(batched, out.evaluations, "{}", strategy.label());

    // The text summary renders the same numbers.
    let summary = text_summary(&data);
    assert!(summary.contains("virtual makespan"));
    for dev in lanes {
        assert!(summary.contains(dev.name()), "{}: {summary}", strategy.label());
    }
}

/// A learned-oracle run narrates its cost model: `ModelUpdated` events on
/// the stream, the re-seed counter, and a "cost model" section in the
/// text summary — all deterministic across same-seed runs.
#[test]
fn oracle_run_reports_cost_model_in_summary() {
    let run = || {
        let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(2).seed(5).build();
        let node = platform::hertz();
        let trace = Trace::new();
        let p = metaheur::m1(0.1);
        let warmup = vsched::WarmupConfig { iterations: 1, ..Default::default() };
        let strategy = Strategy::Oracle { warmup, divisor: 2 };
        let out = screen.run(RunSpec::on_node(&p, &node, strategy).traced(&trace));
        (out.best.score, trace.snapshot())
    };
    let (best_a, data_a) = run();
    let (best_b, data_b) = run();
    // Oracle re-seeding changes schedules, never scores or event payloads.
    assert_eq!(best_a.to_bits(), best_b.to_bits());
    assert_eq!(data_a.payloads(), data_b.payloads());

    let updates =
        data_a.payloads().into_iter().filter(|e| matches!(e, Event::ModelUpdated { .. })).count();
    assert!(updates > 0, "post-warm-up batches must emit ModelUpdated events");

    let summary = text_summary(&data_a);
    assert!(
        summary.contains("cost model (learned oracle):"),
        "summary must carry the cost-model section:\n{summary}"
    );
    assert!(summary.contains("pair-sweep"), "fits are keyed by kernel class:\n{summary}");
    assert!(summary.contains("re-seeds"), "re-seed count belongs in the section:\n{summary}");
}
