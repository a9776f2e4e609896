//! Plain-text run summary.
//!
//! Aggregates a [`TraceData`] snapshot into the numbers the paper's
//! evaluation revolves around: per-device busy/idle/utilization with the
//! kernel vs. PCIe-transfer split, the makespan breakdown, a batch-size
//! histogram ([`vsmath::Histogram`]) and wall-clock span totals.

use crate::event::Event;
use crate::sink::TraceData;
use std::collections::BTreeMap;
use std::fmt::Write;
use vsmath::Histogram;

#[derive(Debug, Default, Clone, Copy)]
struct ModelAgg {
    observations: u64,
    refits: u64,
    last_residual: f64,
}

/// Human label for the stable kernel-class ordinal carried by
/// `Event::ModelUpdated` (`gpusim::KernelClass::ordinal`; vstrace stays
/// independent of gpusim, so the mapping is repeated here).
fn class_label(class: u32) -> &'static str {
    match class {
        0 => "pair-sweep",
        1 => "grid-interp",
        2 => "shell-pairs",
        _ => "unknown",
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct DeviceAgg {
    busy_s: f64,
    kernel_s: f64,
    transfer_s: f64,
    idle_s: f64,
    batches: u64,
    items: u64,
    last_end: f64,
}

/// Render the text summary of a snapshot.
pub fn text_summary(data: &TraceData) -> String {
    let mut devices: BTreeMap<u32, DeviceAgg> = BTreeMap::new();
    let mut batch_sizes: Vec<f64> = Vec::new();
    let mut spans: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    let mut open_spans: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut stages: BTreeMap<&'static str, (u64, u32)> = BTreeMap::new();
    let mut generations = 0u64;
    let mut best_score = f64::INFINITY;
    let mut evaluations = 0u64;
    let mut migrations = 0u64;
    let mut faults = 0u64;
    let mut admitted = 0u64;
    let mut admitted_jobs = 0u64;
    let mut rejected = 0u64;
    let mut cache_hits = 0u64;
    let mut node_joins = 0u64;
    let mut node_leaves = 0u64;
    let mut requeued = 0u64;
    let mut grid_builds = 0u64;
    let mut grid_cached = 0u64;
    let mut grid_slabs = 0u64;
    let mut grid_build_s = 0.0f64;
    let mut grid_bytes = 0u64;
    let mut grid_terms = 0u64;
    let mut model: BTreeMap<(u32, u32), ModelAgg> = BTreeMap::new();
    let mut reseeds = 0u64;

    for s in data.events() {
        match s.event {
            Event::DeviceBusy { device, vt_start, vt_end, kernel_s, transfer_s, items } => {
                let d = devices.entry(device).or_default();
                d.busy_s += vt_end - vt_start;
                d.kernel_s += kernel_s;
                d.transfer_s += transfer_s;
                d.batches += 1;
                d.items += items;
                d.last_end = d.last_end.max(vt_end);
                batch_sizes.push(items as f64);
            }
            Event::DeviceIdle { device, vt_start, vt_end } => {
                let d = devices.entry(device).or_default();
                d.idle_s += vt_end - vt_start;
                d.last_end = d.last_end.max(vt_end);
            }
            Event::BatchScored { items, .. } => batch_sizes.push(items as f64),
            Event::SpanBegin { name } => {
                open_spans.entry(name).or_default().push(s.mono_ns);
            }
            Event::SpanEnd { name } => {
                if let Some(begin) = open_spans.get_mut(name).and_then(Vec::pop) {
                    let e = spans.entry(name).or_insert((0, 0.0));
                    e.0 += 1;
                    e.1 += s.mono_ns.saturating_sub(begin) as f64 / 1e9;
                }
            }
            Event::GenerationDone { best_score: b, evaluations: e, .. } => {
                generations += 1;
                best_score = best_score.min(b);
                evaluations = evaluations.max(e);
            }
            Event::StageDepth { stage, depth } => {
                let e = stages.entry(stage).or_insert((0, 0));
                e.0 += 1;
                e.1 = e.1.max(depth);
            }
            Event::JobMigrated { .. } => migrations += 1,
            Event::FaultInjected { .. } => faults += 1,
            Event::JobAdmitted { jobs, .. } => {
                admitted += 1;
                admitted_jobs += u64::from(jobs);
            }
            Event::JobRejected { .. } => rejected += 1,
            Event::CacheHit { .. } => cache_hits += 1,
            Event::NodeJoined { .. } => node_joins += 1,
            Event::NodeLeft { requeued: r, .. } => {
                node_leaves += 1;
                requeued += u64::from(r);
            }
            Event::ModelUpdated { device, class, residual, refit, .. } => {
                let m = model.entry((device, class)).or_default();
                m.observations += 1;
                m.refits += u64::from(refit);
                m.last_residual = residual;
            }
            Event::Counter { name: "oracle_reseed", value } => {
                // The oracle emits its cumulative re-seed count; keep the max.
                reseeds = reseeds.max(value as u64);
            }
            Event::Counter { name: "grid_slabs_built", value } => grid_slabs += value as u64,
            Event::GridBuilt { bytes, terms, build_s, cached, .. } => {
                grid_builds += 1;
                grid_terms += terms;
                grid_cached += u64::from(cached);
                grid_build_s += build_s;
                grid_bytes = grid_bytes.max(bytes);
            }
            _ => {}
        }
    }

    let makespan = devices.values().map(|d| d.last_end).fold(0.0f64, f64::max);
    let mut out = String::new();
    let _ = writeln!(out, "vstrace summary: {} events", data.len());
    if data.dropped > 0 {
        let _ = writeln!(out, "  ({} records past the cap not kept)", data.dropped);
    }

    if !devices.is_empty() {
        let _ = writeln!(out, "\nvirtual makespan: {makespan:.6} s");
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>10} {:>10} {:>8} {:>9} {:>8}",
            "device",
            "busy (s)",
            "kernel",
            "transfer",
            "idle (s)",
            "util %",
            "idle frac",
            "batches"
        );
        for (id, d) in &devices {
            let label = data.track_names.get(id).cloned().unwrap_or_else(|| format!("device {id}"));
            // Idle: prefer explicit DeviceIdle events, else makespan - busy.
            let idle = if d.idle_s > 0.0 { d.idle_s } else { (makespan - d.busy_s).max(0.0) };
            let util = if makespan > 0.0 { 100.0 * d.busy_s / makespan } else { 0.0 };
            // Fraction of the device's own span spent idle — the
            // pipelined-engine acceptance metric (DESIGN.md §12).
            let span = d.busy_s + idle;
            let idle_frac = if span > 0.0 { idle / span } else { 0.0 };
            let _ = writeln!(
                out,
                "{label:<24} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>8.2} {:>9.3} {:>8}",
                d.busy_s, d.kernel_s, d.transfer_s, idle, util, idle_frac, d.batches
            );
        }
        let kernel: f64 = devices.values().map(|d| d.kernel_s).sum();
        let transfer: f64 = devices.values().map(|d| d.transfer_s).sum();
        let busy: f64 = devices.values().map(|d| d.busy_s).sum();
        let overhead = (busy - kernel - transfer).max(0.0);
        if busy > 0.0 {
            let _ = writeln!(
                out,
                "makespan breakdown (busy time): kernel {:.1}%, PCIe transfer {:.1}%, launch/other {:.1}%",
                100.0 * kernel / busy,
                100.0 * transfer / busy,
                100.0 * overhead / busy
            );
        }
    }

    if !batch_sizes.is_empty() {
        if let Some(h) = Histogram::auto(&batch_sizes, 8.min(batch_sizes.len())) {
            let _ = writeln!(out, "\nbatch sizes ({} batches):", batch_sizes.len());
            let _ = write!(out, "{}", h.render(40));
        }
    }

    if generations > 0 {
        let _ = writeln!(
            out,
            "\nsearch: {generations} generations, best score {best_score:.3}, {evaluations} evaluations"
        );
    }
    if faults + migrations > 0 {
        let _ = writeln!(out, "cluster: {faults} faults injected, {migrations} jobs migrated");
    }
    if admitted + rejected + cache_hits + node_joins + node_leaves > 0 {
        let _ = writeln!(
            out,
            "campaign service: {admitted} campaigns admitted ({admitted_jobs} jobs), \
             {rejected} rejected, {cache_hits} cache hits"
        );
        if node_joins + node_leaves > 0 {
            let _ = writeln!(
                out,
                "  elastic fleet: {node_joins} joins, {node_leaves} leaves \
                 ({requeued} jobs requeued)"
            );
        }
    }
    if grid_builds > 0 {
        let _ = writeln!(
            out,
            "potential grids: {grid_builds} requests ({grid_cached} cache hits), \
             {grid_slabs} slabs built in {grid_build_s:.3} s, {:.1} MiB largest field, \
             {grid_terms} pair terms",
            grid_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    if !model.is_empty() || reseeds > 0 {
        let total: u64 = model.values().map(|m| m.observations).sum();
        let _ = writeln!(
            out,
            "\ncost model (learned oracle): {total} observations, {reseeds} re-seeds"
        );
        let _ = writeln!(
            out,
            "{:<24} {:<12} {:>12} {:>8} {:>14}",
            "device", "class", "observations", "refits", "last residual"
        );
        for ((device, class), m) in &model {
            let label =
                data.track_names.get(device).cloned().unwrap_or_else(|| format!("device {device}"));
            let _ = writeln!(
                out,
                "{label:<24} {:<12} {:>12} {:>8} {:>14.4}",
                class_label(*class),
                m.observations,
                m.refits,
                m.last_residual
            );
        }
    }

    if !stages.is_empty() {
        let _ = writeln!(out, "\nstage queues (pipelined engine):");
        let _ = writeln!(out, "{:<24} {:>8} {:>10}", "stage", "steps", "max depth");
        for (name, (steps, max_depth)) in &stages {
            let _ = writeln!(out, "{name:<24} {steps:>8} {max_depth:>10}");
        }
    }

    if !spans.is_empty() {
        let _ = writeln!(out, "\nwall-clock spans:");
        let _ = writeln!(out, "{:<24} {:>8} {:>14}", "span", "count", "total (s)");
        for (name, (count, total)) in &spans {
            let _ = writeln!(out, "{name:<24} {count:>8} {total:>14.6}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    #[test]
    fn summary_reports_utilization_and_histogram() {
        let t = Trace::new();
        t.set_track_name(0, "K40c");
        t.set_track_name(1, "GTX580");
        for (dev, end, items) in [(0u32, 1.0f64, 64u64), (1, 0.5, 32), (0, 2.0, 64)] {
            t.emit(Event::DeviceBusy {
                device: dev,
                vt_start: end - 0.5,
                vt_end: end,
                kernel_s: 0.4,
                transfer_s: 0.05,
                items,
            });
        }
        {
            let _g = t.span("generation");
        }
        t.emit(Event::GenerationDone { generation: 0, best_score: -4.5, evaluations: 160 });
        let s = text_summary(&t.snapshot());
        assert!(s.contains("K40c"), "{s}");
        assert!(s.contains("GTX580"), "{s}");
        assert!(s.contains("virtual makespan: 2.0"), "{s}");
        // K40c: busy 1.0s over makespan 2.0s = 50% utilization.
        assert!(s.contains("50.00"), "{s}");
        assert!(s.contains("batch sizes (3 batches)"), "{s}");
        assert!(s.contains("generation"), "{s}");
        assert!(s.contains("best score -4.500"), "{s}");
        assert!(s.contains("makespan breakdown"), "{s}");
    }

    #[test]
    fn summary_reports_idle_fraction_and_stage_depths() {
        let t = Trace::new();
        t.set_track_name(0, "K40c");
        t.emit(Event::DeviceBusy {
            device: 0,
            vt_start: 0.0,
            vt_end: 3.0,
            kernel_s: 2.5,
            transfer_s: 0.2,
            items: 128,
        });
        t.emit(Event::DeviceIdle { device: 0, vt_start: 3.0, vt_end: 4.0 });
        t.emit(Event::StageDepth { stage: "vary", depth: 2 });
        t.emit(Event::StageDepth { stage: "vary", depth: 3 });
        let s = text_summary(&t.snapshot());
        assert!(s.contains("idle frac"), "{s}");
        // idle 1.0 over span busy 3.0 + idle 1.0 = 0.250.
        assert!(s.contains("0.250"), "{s}");
        assert!(s.contains("stage queues"), "{s}");
        assert!(s.contains("vary"), "{s}");
        assert!(s.contains("2"), "{s}"); // 2 steps, max depth 3
    }

    #[test]
    fn summary_reports_campaign_service_section() {
        let t = Trace::new();
        t.emit(Event::JobAdmitted { campaign: 0, jobs: 10, interactive: false, vt: 0.0 });
        t.emit(Event::JobAdmitted { campaign: 1, jobs: 2, interactive: true, vt: 0.5 });
        t.emit(Event::JobRejected { campaign: 2, jobs: 5, queued: 12, capacity: 12, vt: 0.6 });
        t.emit(Event::CacheHit { campaign: 3, ligand: 1, vt: 0.7 });
        t.emit(Event::NodeJoined { node: 4, vt: 0.8 });
        t.emit(Event::NodeLeft { node: 0, vt: 0.9, requeued: 3 });
        let s = text_summary(&t.snapshot());
        assert!(s.contains("2 campaigns admitted (12 jobs)"), "{s}");
        assert!(s.contains("1 rejected"), "{s}");
        assert!(s.contains("1 cache hits"), "{s}");
        assert!(s.contains("1 joins, 1 leaves (3 jobs requeued)"), "{s}");
    }

    #[test]
    fn summary_reports_cost_model_section() {
        let t = Trace::new();
        t.set_track_name(0, "K40c");
        for (obs, refit) in [(1.05f64, false), (4.2, true), (0.01, false)] {
            t.emit(Event::ModelUpdated {
                device: 0,
                class: 0,
                predicted: 1.0,
                observed: obs,
                residual: obs - 1.0,
                refit,
            });
        }
        t.emit(Event::ModelUpdated {
            device: 1,
            class: 1,
            predicted: 2.0,
            observed: 2.0,
            residual: 0.0,
            refit: false,
        });
        t.emit(Event::Counter { name: "oracle_reseed", value: 5.0 });
        let s = text_summary(&t.snapshot());
        assert!(s.contains("cost model (learned oracle): 4 observations, 5 re-seeds"), "{s}");
        assert!(s.contains("pair-sweep"), "{s}");
        assert!(s.contains("grid-interp"), "{s}");
        assert!(s.contains("K40c"), "{s}");
        // Last residual for (K40c, pair-sweep) is the final event's -0.99.
        assert!(s.contains("-0.9900"), "{s}");
        // One drift refit recorded.
        let line = s.lines().find(|l| l.contains("pair-sweep")).unwrap();
        assert!(line.contains('1'), "{line}");
    }

    #[test]
    fn grid_line_counts_requests_hits_and_slabs_built() {
        let t = Trace::new();
        let mib = 1 << 20;
        // Three scorers over one receptor: C+N built, C+N+O builds only O,
        // C+N again builds nothing.
        for (grids, built, build_s) in [(2u32, 2.0, 0.25), (3, 1.0, 0.125), (2, 0.0, 0.0)] {
            let (bytes, cached) = (u64::from(grids) * mib, built == 0.0);
            let terms = 1000 * built as u64;
            t.emit(Event::GridBuilt { nodes: 1 << 18, grids, bytes, terms, build_s, cached });
            if !cached {
                t.emit(Event::Counter { name: "grid_slabs_built", value: built });
            }
        }
        let s = text_summary(&t.snapshot());
        let want = "potential grids: 3 requests (1 cache hits), 3 slabs built in 0.375 s, \
                    3.0 MiB largest field, 3000 pair terms";
        assert!(s.contains(want), "{s}");
    }

    #[test]
    fn empty_snapshot_summarizes_without_panicking() {
        let s = text_summary(&Trace::new().snapshot());
        assert!(s.contains("0 events"));
    }
}
