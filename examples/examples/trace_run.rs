//! Produce a structured trace of a Table-7-style run: the 2BSM screening
//! workload on the heterogeneous Hertz node (Tesla K40c + GeForce GTX 580)
//! under the warm-up-based heterogeneous split, instrumented with
//! `vstrace`.
//!
//! Writes two artifacts to the current directory (or the directory given
//! as the first argument):
//!
//! - `trace.json` — chrome-trace JSON; open in `chrome://tracing` or
//!   <https://ui.perfetto.dev>;
//! - `trace_summary.txt` — the plain-text summary (per-device
//!   utilization, makespan breakdown, batch-size histogram).
//!
//! The example validates its own output: the exported JSON is parsed back
//! with `vstrace::json::parse` and the per-device busy totals are checked
//! against the simulated device clocks.
//!
//! Run with: `cargo run --release -p vs-examples --example trace_run`

use vscreen::prelude::*;
use vstrace::json::{parse, Value};
use vstrace::{chrome_trace_json, text_summary, Trace};

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let node = platform::hertz();
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(6).seed(42).build();
    let params = metaheur::m1(0.2);
    let strategy = Strategy::HeterogeneousSplit {
        warmup: WarmupConfig { iterations: 2, ..Default::default() },
    };

    println!(
        "tracing {} on node {} ({} spots, {} pairs/eval)",
        params.name,
        node.name(),
        screen.spots().len(),
        screen.pairs_per_eval()
    );

    let trace = Trace::new();
    let out = screen.run(RunSpec::on_node(&params, &node, strategy).traced(&trace));
    println!(
        "run done: best {:.2}, {} evaluations, {:.4} virtual s",
        out.best.score, out.evaluations, out.virtual_time
    );

    let data = trace.snapshot();
    assert!(data.dropped == 0, "{} records past the trace cap not kept", data.dropped);

    // Busy totals from the event stream must agree with the device clocks.
    for dev in node.gpus() {
        let busy = data.device_busy_s(dev.id() as u32);
        let clock = dev.clock();
        assert!(
            (busy - clock).abs() <= 1e-9 * clock.max(1.0),
            "device {} busy {} != clock {}",
            dev.id(),
            busy,
            clock
        );
    }

    // Export, then parse the JSON back and re-check the busy totals from
    // the serialized document — what scripts/trace_report.sh relies on.
    let json = chrome_trace_json(&data);
    let doc = parse(&json).expect("exported chrome trace must be valid JSON");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
    for dev in node.gpus() {
        let busy_us: f64 = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some("busy")
                    && e.get("tid").and_then(Value::as_num) == Some(dev.id() as f64)
            })
            .filter_map(|e| e.get("dur").and_then(Value::as_num))
            .sum();
        let clock_us = dev.clock() * 1e6;
        assert!(
            (busy_us - clock_us).abs() <= 1e-3 * clock_us.max(1.0),
            "device {} exported busy {busy_us} us != clock {clock_us} us",
            dev.id()
        );
        println!(
            "  {:<16} busy {:>10.1} us in trace.json (clock {:>10.1} us) ok",
            dev.name(),
            busy_us,
            clock_us
        );
    }

    let json_path = format!("{out_dir}/trace.json");
    let summary_path = format!("{out_dir}/trace_summary.txt");
    std::fs::write(&json_path, &json).expect("write trace.json");
    let summary = text_summary(&data);
    std::fs::write(&summary_path, &summary).expect("write trace_summary.txt");

    println!("\n{summary}");
    println!("wrote {json_path} ({} events) and {summary_path}", data.len());
}
