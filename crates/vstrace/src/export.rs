//! Chrome-trace (Trace Event Format) exporter.
//!
//! The output loads in `chrome://tracing` and <https://ui.perfetto.dev>.
//! Two synthetic processes separate the clock domains:
//!
//! - **pid 0 — wall clock**: spans (`B`/`E` pairs), counters (`C`) and
//!   instant annotations (`i`) stamped with monotonic wall time, on the one
//!   row of the thread that recorded them;
//! - **pid 1 — virtual device time**: `DeviceBusy`/`DeviceIdle`/
//!   `BatchScored` complete events (`X`) stamped with the gpusim virtual
//!   clock, one timeline row per device.
//!
//! All timestamps are microseconds (the format's unit). The document is
//! re-parseable with [`crate::json::parse`], which is what the
//! well-formedness tests and the `trace_run` example do.

use crate::event::Event;
use crate::json::escape;
use crate::sink::TraceData;
use std::fmt::Write;

const WALL_PID: u32 = 0;
const VIRTUAL_PID: u32 = 1;
/// The one wall-clock row: a trace records from one thread.
const WALL_TID: u32 = 0;
/// Track id used for whole-evaluator batch events ([`Event::BatchScored`]
/// with `device == u32::MAX`).
pub const BATCH_TRACK: u32 = u32::MAX;

/// JSON-safe number rendering (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn push_event(out: &mut String, fields: &str) {
    out.push_str("    {");
    out.push_str(fields);
    out.push_str("},\n");
}

/// Serialize a snapshot to a chrome-trace JSON document.
pub fn chrome_trace_json(data: &TraceData) -> String {
    let mut out = String::with_capacity(256 + data.len() * 96);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");

    // Metadata: name the two clock-domain processes and every track.
    push_event(
        &mut out,
        &format!(
            "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {WALL_PID}, \"tid\": 0, \
             \"args\": {{\"name\": \"wall clock (host)\"}}"
        ),
    );
    push_event(
        &mut out,
        &format!(
            "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {VIRTUAL_PID}, \"tid\": 0, \
             \"args\": {{\"name\": \"virtual device time\"}}"
        ),
    );
    push_event(
        &mut out,
        &format!(
            "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \
             \"args\": {{\"name\": \"recording thread\"}}"
        ),
    );
    let mut tracks: Vec<(u32, String)> =
        data.track_names.iter().map(|(id, name)| (*id, name.clone())).collect();
    tracks.sort_by_key(|(id, _)| *id);
    for (id, name) in &tracks {
        push_event(
            &mut out,
            &format!(
                "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {VIRTUAL_PID}, \"tid\": {id}, \
                 \"args\": {{\"name\": \"{}\"}}",
                escape(name)
            ),
        );
    }
    if data
        .events()
        .any(|s| matches!(s.event, Event::BatchScored { device, .. } if device == BATCH_TRACK))
        && !data.track_names.contains_key(&BATCH_TRACK)
    {
        push_event(
            &mut out,
            &format!(
                "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {VIRTUAL_PID}, \
                 \"tid\": {BATCH_TRACK}, \"args\": {{\"name\": \"batch stream\"}}"
            ),
        );
    }

    for s in data.events() {
        let wall_us = s.mono_ns as f64 / 1e3;
        match s.event {
            Event::SpanBegin { name } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"{}\", \"ph\": \"B\", \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \
                     \"ts\": {}",
                    escape(name),
                    num(wall_us)
                ),
            ),
            Event::SpanEnd { name } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"{}\", \"ph\": \"E\", \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \
                     \"ts\": {}",
                    escape(name),
                    num(wall_us)
                ),
            ),
            Event::Counter { name, value } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"{}\", \"ph\": \"C\", \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \
                     \"ts\": {}, \"args\": {{\"value\": {}}}",
                    escape(name),
                    num(wall_us),
                    num(value)
                ),
            ),
            Event::DeviceBusy { device, vt_start, vt_end, kernel_s, transfer_s, items } => {
                push_event(
                    &mut out,
                    &format!(
                        "\"name\": \"busy\", \"ph\": \"X\", \"pid\": {VIRTUAL_PID}, \
                         \"tid\": {device}, \"ts\": {}, \"dur\": {}, \"args\": {{\
                         \"items\": {items}, \"kernel_us\": {}, \"transfer_us\": {}}}",
                        num(vt_start * 1e6),
                        num((vt_end - vt_start) * 1e6),
                        num(kernel_s * 1e6),
                        num(transfer_s * 1e6)
                    ),
                )
            }
            Event::DeviceIdle { device, vt_start, vt_end } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"idle\", \"ph\": \"X\", \"pid\": {VIRTUAL_PID}, \
                     \"tid\": {device}, \"ts\": {}, \"dur\": {}",
                    num(vt_start * 1e6),
                    num((vt_end - vt_start) * 1e6)
                ),
            ),
            Event::BatchScored { device, items, pairs_per_item, vt_start, vt_end } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"batch\", \"ph\": \"X\", \"pid\": {VIRTUAL_PID}, \
                         \"tid\": {device}, \"ts\": {}, \"dur\": {}, \"args\": {{\
                         \"items\": {items}, \"pairs_per_item\": {pairs_per_item}}}",
                    num(vt_start * 1e6),
                    num((vt_end - vt_start) * 1e6)
                ),
            ),
            Event::WarmupSample { device, iteration, seconds } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"WarmupSample\", \"ph\": \"i\", \"s\": \"t\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"device\": {device}, \"iteration\": {iteration}, \"seconds\": {}}}",
                    num(wall_us),
                    num(seconds)
                ),
            ),
            Event::PartitionDecision { device, share, weight } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"PartitionDecision\", \"ph\": \"i\", \"s\": \"t\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"device\": {device}, \"share\": {}, \"weight\": {}}}",
                    num(wall_us),
                    num(share),
                    num(weight)
                ),
            ),
            Event::GenerationDone { generation, best_score, evaluations } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"GenerationDone\", \"ph\": \"i\", \"s\": \"t\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"generation\": {generation}, \"best_score\": {}, \
                     \"evaluations\": {evaluations}}}",
                    num(wall_us),
                    num(best_score)
                ),
            ),
            Event::GridBuilt { nodes, grids, bytes, terms, build_s, cached } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"GridBuilt\", \"ph\": \"i\", \"s\": \"t\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"nodes\": {nodes}, \"grids\": {grids}, \"bytes\": {bytes}, \
                     \"terms\": {terms}, \"build_s\": {}, \"cached\": {cached}}}",
                    num(wall_us),
                    num(build_s)
                ),
            ),
            Event::JobMigrated { job, from_node, to_node } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"JobMigrated\", \"ph\": \"i\", \"s\": \"g\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"job\": {job}, \"from_node\": {from_node}, \"to_node\": {to_node}}}",
                    num(wall_us)
                ),
            ),
            Event::FaultInjected { node, slowdown } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"FaultInjected\", \"ph\": \"i\", \"s\": \"g\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"node\": {node}, \"slowdown\": {}}}",
                    num(wall_us),
                    num(slowdown)
                ),
            ),
            Event::JobAdmitted { campaign, jobs, interactive, vt } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"JobAdmitted\", \"ph\": \"i\", \"s\": \"g\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"campaign\": {campaign}, \"jobs\": {jobs}, \
                     \"interactive\": {interactive}, \"vt\": {}}}",
                    num(wall_us),
                    num(vt)
                ),
            ),
            Event::JobRejected { campaign, jobs, queued, capacity, vt } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"JobRejected\", \"ph\": \"i\", \"s\": \"g\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"campaign\": {campaign}, \"jobs\": {jobs}, \"queued\": {queued}, \
                     \"capacity\": {capacity}, \"vt\": {}}}",
                    num(wall_us),
                    num(vt)
                ),
            ),
            Event::CacheHit { campaign, ligand, vt } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"CacheHit\", \"ph\": \"i\", \"s\": \"t\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"campaign\": {campaign}, \"ligand\": {ligand}, \"vt\": {}}}",
                    num(wall_us),
                    num(vt)
                ),
            ),
            Event::NodeJoined { node, vt } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"NodeJoined\", \"ph\": \"i\", \"s\": \"g\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"node\": {node}, \"vt\": {}}}",
                    num(wall_us),
                    num(vt)
                ),
            ),
            Event::NodeLeft { node, vt, requeued } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"NodeLeft\", \"ph\": \"i\", \"s\": \"g\", \
                     \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                     \"node\": {node}, \"vt\": {}, \"requeued\": {requeued}}}",
                    num(wall_us),
                    num(vt)
                ),
            ),
            Event::StageDepth { stage, depth } => push_event(
                &mut out,
                &format!(
                    "\"name\": \"depth:{}\", \"ph\": \"C\", \"pid\": {WALL_PID}, \
                     \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\"value\": {depth}}}",
                    escape(stage),
                    num(wall_us)
                ),
            ),
            Event::ModelUpdated { device, class, predicted, observed, residual, refit } => {
                push_event(
                    &mut out,
                    &format!(
                        "\"name\": \"ModelUpdated\", \"ph\": \"i\", \"s\": \"t\", \
                         \"pid\": {WALL_PID}, \"tid\": {WALL_TID}, \"ts\": {}, \"args\": {{\
                         \"device\": {device}, \"class\": {class}, \"predicted\": {}, \
                         \"observed\": {}, \"residual\": {}, \"refit\": {refit}}}",
                        num(wall_us),
                        num(predicted),
                        num(observed),
                        num(residual)
                    ),
                )
            }
        }
    }

    // Drop the trailing comma from the last event line.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    let _ = write!(out, "  ],\n  \"droppedEvents\": {}\n}}\n", data.dropped);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::Trace;

    fn sample_trace() -> Trace {
        let t = Trace::new();
        t.set_track_name(0, "Tesla K40c");
        t.set_track_name(1, "GeForce GTX 580");
        {
            let _g = t.span("run \"quoted\"");
            t.counter("best", -7.25);
            t.emit(Event::WarmupSample { device: 0, iteration: 1, seconds: 0.003 });
            t.emit(Event::PartitionDecision { device: 0, share: 0.7, weight: 1.4 });
        }
        t.emit(Event::DeviceBusy {
            device: 0,
            vt_start: 0.0,
            vt_end: 0.002,
            kernel_s: 0.0015,
            transfer_s: 0.0004,
            items: 64,
        });
        t.emit(Event::DeviceIdle { device: 1, vt_start: 0.0, vt_end: 0.001 });
        t.emit(Event::BatchScored {
            device: BATCH_TRACK,
            items: 64,
            pairs_per_item: 1000,
            vt_start: 0.0,
            vt_end: 0.002,
        });
        t.emit(Event::GenerationDone { generation: 0, best_score: -7.25, evaluations: 64 });
        t.emit(Event::JobMigrated { job: 3, from_node: 0, to_node: 1 });
        t.emit(Event::FaultInjected { node: 0, slowdown: 2.0 });
        t.emit(Event::JobAdmitted { campaign: 0, jobs: 12, interactive: false, vt: 0.0 });
        t.emit(Event::JobRejected { campaign: 1, jobs: 3, queued: 12, capacity: 12, vt: 0.001 });
        t.emit(Event::CacheHit { campaign: 2, ligand: 7, vt: 0.002 });
        t.emit(Event::NodeJoined { node: 2, vt: 0.003 });
        t.emit(Event::NodeLeft { node: 0, vt: 0.004, requeued: 1 });
        t.emit(Event::ModelUpdated {
            device: 0,
            class: 0,
            predicted: 0.002,
            observed: 0.0024,
            residual: 0.2,
            refit: false,
        });
        t
    }

    #[test]
    fn export_parses_back_and_has_every_event() {
        let t = sample_trace();
        let data = t.snapshot();
        let json = chrome_trace_json(&data);
        let doc = parse(&json).expect("exporter must emit valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
        // Every element is an object with name/ph and numeric pid/tid.
        for e in events {
            let obj = e.as_obj().expect("event is an object");
            assert!(obj.contains_key("name") && obj.contains_key("ph"), "bad event: {obj:?}");
            assert!(e.get("pid").and_then(Value::as_num).is_some());
            assert!(e.get("tid").and_then(Value::as_num).is_some());
        }
        // Non-metadata events carry the recorded payloads.
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
        for expect in [
            "busy",
            "idle",
            "batch",
            "WarmupSample",
            "PartitionDecision",
            "GenerationDone",
            "JobMigrated",
            "FaultInjected",
            "JobAdmitted",
            "JobRejected",
            "CacheHit",
            "NodeJoined",
            "NodeLeft",
            "ModelUpdated",
            "best",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
    }

    #[test]
    fn busy_durations_survive_the_roundtrip() {
        let t = sample_trace();
        let data = t.snapshot();
        let doc = parse(&chrome_trace_json(&data)).unwrap();
        let busy_us: f64 = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some("busy")
                    && e.get("tid").and_then(Value::as_num) == Some(0.0)
            })
            .filter_map(|e| e.get("dur").and_then(Value::as_num))
            .sum();
        assert!((busy_us / 1e6 - data.device_busy_s(0)).abs() < 1e-12);
    }

    #[test]
    fn track_names_are_escaped_metadata() {
        let t = Trace::new();
        t.set_track_name(7, "odd \"name\"\n");
        t.counter("x", 1.0);
        let json = chrome_trace_json(&t.snapshot());
        let doc = parse(&json).expect("escaped names keep the JSON valid");
        let found = doc.get("traceEvents").and_then(Value::as_arr).unwrap().iter().any(|e| {
            e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str)
                == Some("odd \"name\"\n")
        });
        assert!(found);
    }

    #[test]
    fn empty_trace_exports_metadata_only() {
        let t = Trace::new();
        let json = chrome_trace_json(&t.snapshot());
        let doc = parse(&json).unwrap();
        assert!(doc.get("traceEvents").and_then(Value::as_arr).is_some());
    }
}
