//! Execution timelines — Gantt-style records of what each device ran when.
//!
//! The schedulers in `vsched` are judged by makespans, but *why* a schedule
//! is slow (idle gaps, imbalance, launch storms) is easiest to see on a
//! timeline. [`Timeline`] collects per-device execution segments and
//! renders an ASCII Gantt chart; `vsched` replays and evaluators record
//! into one via [`Timeline::record`].
//!
//! Busy/idle accounting goes through one shared segment-merging pass
//! ([`Timeline::device_stats`]) that [`Timeline::idle_time`],
//! [`Timeline::utilization`] and [`Timeline::render`] all consume. A
//! timeline can also carry a [`vstrace::Trace`] ([`Timeline::with_trace`]):
//! every recorded segment then emits a `DeviceBusy` event with the kernel
//! vs. PCIe-transfer split, and [`Timeline::from_events`] rebuilds a
//! timeline from such a trace — so the Gantt view can source from `vstrace`
//! instead of live recording.

use crate::cost::WorkBatch;
use crate::device::SimDevice;
use serde::{Deserialize, Serialize};
// DETERMINISM: raw std mutex — gpusim state is host-side simulation bookkeeping outside the modeled sync surface (no facade in this crate).
use std::sync::Mutex;
use vstrace::{Event, Trace, TraceData};

/// One executed segment on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    pub device: usize,
    pub device_name: String,
    /// Virtual start/end times, seconds.
    pub start: f64,
    pub end: f64,
    pub items: u64,
}

/// Per-device busy/idle aggregate over `[0, makespan]` — the product of
/// the single segment-merging pass shared by [`Timeline::idle_time`],
/// [`Timeline::utilization`] and [`Timeline::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    pub device: usize,
    pub device_name: String,
    /// Sum of segment durations.
    pub busy_s: f64,
    /// Leading gap + inter-segment gaps + tail up to the makespan.
    pub idle_s: f64,
}

/// A thread-safe collection of execution segments.
#[derive(Debug, Default)]
pub struct Timeline {
    segments: Mutex<Vec<Segment>>,
    trace: Trace,
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Emit a `DeviceBusy` trace event (with the kernel/transfer split)
    /// for every segment recorded from here on.
    pub fn with_trace(mut self, trace: Trace) -> Timeline {
        self.trace = trace;
        self
    }

    /// Rebuild a timeline from the `DeviceBusy` events of a trace
    /// snapshot. Device names come from the snapshot's track names where
    /// set.
    pub fn from_events(data: &TraceData) -> Timeline {
        let tl = Timeline::new();
        {
            // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
            let mut segs = tl.segments.lock().expect("timeline mutex poisoned");
            for s in data.events() {
                if let Event::DeviceBusy { device, vt_start, vt_end, items, .. } = s.event {
                    let device_name = data
                        .track_names
                        .get(&device)
                        .cloned()
                        .unwrap_or_else(|| format!("device {device}"));
                    segs.push(Segment {
                        device: device as usize,
                        device_name,
                        start: vt_start,
                        end: vt_end,
                        items,
                    });
                }
            }
        }
        tl
    }

    /// Execute `batch` on `dev` and record the segment.
    pub fn record(&self, dev: &SimDevice, batch: &WorkBatch) -> f64 {
        let start = dev.clock();
        let dt = dev.execute(batch);
        if self.trace.is_enabled() {
            let (kernel_s, transfer_s) = dev.time_breakdown(batch);
            self.trace.emit(Event::DeviceBusy {
                device: dev.id() as u32,
                vt_start: start,
                vt_end: start + dt,
                kernel_s,
                transfer_s,
                items: batch.items,
            });
        }
        // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
        self.segments.lock().expect("timeline mutex poisoned").push(Segment {
            device: dev.id(),
            device_name: dev.spec().name.clone(),
            start,
            end: start + dt,
            items: batch.items,
        });
        dt
    }

    /// All segments, ordered by (device, start).
    pub fn segments(&self) -> Vec<Segment> {
        // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
        let mut v = self.segments.lock().expect("timeline mutex poisoned").clone();
        v.sort_by(|a, b| a.device.cmp(&b.device).then(a.start.partial_cmp(&b.start).unwrap()));
        v
    }

    pub fn is_empty(&self) -> bool {
        // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
        self.segments.lock().expect("timeline mutex poisoned").is_empty()
    }

    /// Latest segment end over all devices.
    pub fn makespan(&self) -> f64 {
        self.segments
            .lock()
            // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
            .expect("timeline mutex poisoned")
            .iter()
            .map(|s| s.end)
            .fold(0.0, f64::max)
    }

    /// The single merging pass over the sorted segments: per-device busy
    /// and idle within `[0, makespan]`, ordered by device id.
    pub fn device_stats(&self) -> Vec<LaneStats> {
        let segs = self.segments();
        let horizon = segs.iter().map(|s| s.end).fold(0.0f64, f64::max);
        let mut lanes: Vec<LaneStats> = Vec::new();
        let mut last_end = 0.0f64;
        for s in &segs {
            if lanes.last().map(|l| l.device) != Some(s.device) {
                // Close the previous lane's tail, open a new lane with its
                // leading gap.
                if let Some(prev) = lanes.last_mut() {
                    prev.idle_s += (horizon - last_end).max(0.0);
                }
                lanes.push(LaneStats {
                    device: s.device,
                    device_name: s.device_name.clone(),
                    busy_s: 0.0,
                    idle_s: s.start.max(0.0),
                });
            } else {
                // PANICS: the `else` branch runs only after a lane was pushed for this device.
                lanes.last_mut().expect("lane exists").idle_s += (s.start - last_end).max(0.0);
            }
            // PANICS: a lane for this device was pushed by one of the branches above.
            lanes.last_mut().expect("lane exists").busy_s += s.end - s.start;
            last_end = s.end;
        }
        if let Some(prev) = lanes.last_mut() {
            prev.idle_s += (horizon - last_end).max(0.0);
        }
        lanes
    }

    /// Total idle time of a device within `[0, makespan]`: gaps between its
    /// segments plus the tail after its last segment.
    pub fn idle_time(&self, device: usize) -> f64 {
        self.device_stats()
            .iter()
            .find(|l| l.device == device)
            .map(|l| l.idle_s)
            .unwrap_or_else(|| self.makespan())
    }

    /// Fraction of `[0, makespan]` the device spent busy; 0 for unknown
    /// devices or an empty timeline.
    pub fn utilization(&self, device: usize) -> f64 {
        let horizon = self.makespan();
        if horizon <= 0.0 {
            return 0.0;
        }
        self.device_stats()
            .iter()
            .find(|l| l.device == device)
            .map(|l| l.busy_s / horizon)
            .unwrap_or(0.0)
    }

    /// ASCII Gantt chart: one row per device, `width` columns spanning
    /// `[0, makespan]`; `#` marks busy columns.
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write;
        let segs = self.segments();
        let lanes = self.device_stats();
        let horizon = segs.iter().map(|s| s.end).fold(0.0f64, f64::max);
        if segs.is_empty() || horizon <= 0.0 {
            return String::from("(empty timeline)\n");
        }

        let mut out = String::new();
        for lane in &lanes {
            let mut row = vec![b'.'; width];
            for s in segs.iter().filter(|s| s.device == lane.device) {
                let a = ((s.start / horizon) * width as f64) as usize;
                let b = (((s.end / horizon) * width as f64).ceil() as usize).min(width);
                for c in row.iter_mut().take(b).skip(a.min(width.saturating_sub(1))) {
                    *c = b'#';
                }
            }
            let _ = writeln!(
                out,
                "dev {:<2} {:<20} |{}| idle {:5.1}%",
                lane.device,
                lane.device_name,
                // PANICS: the row buffer is assembled from ASCII bytes only.
                String::from_utf8(row).expect("ascii"),
                100.0 * lane.idle_s / horizon
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn devices() -> (SimDevice, SimDevice) {
        (SimDevice::new(0, catalog::tesla_k40c()), SimDevice::new(1, catalog::geforce_gtx_580()))
    }

    #[test]
    fn record_captures_segments_in_order() {
        let (a, _) = devices();
        let tl = Timeline::new();
        tl.record(&a, &WorkBatch::conformations(100, 1000));
        tl.record(&a, &WorkBatch::conformations(200, 1000));
        let segs = tl.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].items, 100);
        assert!((segs[0].end - segs[1].start).abs() < 1e-15, "segments must be contiguous");
        assert!((tl.makespan() - a.clock()).abs() < 1e-15);
    }

    #[test]
    fn idle_time_accounts_gaps_and_tail() {
        let (a, b) = devices();
        let tl = Timeline::new();
        // Device 0 works twice as much as device 1.
        tl.record(&a, &WorkBatch::conformations(100_000, 10_000));
        tl.record(&b, &WorkBatch::conformations(100_000, 2_500));
        let horizon = tl.makespan();
        assert_eq!(tl.idle_time(0), 0.0);
        let idle1 = tl.idle_time(1);
        assert!(idle1 > 0.0 && idle1 < horizon);
        // Busy + idle = horizon for every device.
        let busy1: f64 =
            tl.segments().iter().filter(|s| s.device == 1).map(|s| s.end - s.start).sum();
        assert!((busy1 + idle1 - horizon).abs() < 1e-12);
    }

    #[test]
    fn unknown_device_is_fully_idle() {
        let (a, _) = devices();
        let tl = Timeline::new();
        tl.record(&a, &WorkBatch::conformations(10, 10));
        assert_eq!(tl.idle_time(99), tl.makespan());
        assert_eq!(tl.utilization(99), 0.0);
    }

    #[test]
    fn utilization_agrees_with_idle_time() {
        let (a, b) = devices();
        let tl = Timeline::new();
        tl.record(&a, &WorkBatch::conformations(100_000, 10_000));
        tl.record(&b, &WorkBatch::conformations(100_000, 2_500));
        let horizon = tl.makespan();
        for d in [0usize, 1] {
            let util = tl.utilization(d);
            assert!((0.0..=1.0).contains(&util));
            assert!(
                (util - (1.0 - tl.idle_time(d) / horizon)).abs() < 1e-12,
                "busy and idle shares must add to 1 for device {d}"
            );
        }
        assert!((tl.utilization(0) - 1.0).abs() < 1e-12, "busiest device is never idle");
    }

    #[test]
    fn render_shape() {
        let (a, b) = devices();
        let tl = Timeline::new();
        tl.record(&a, &WorkBatch::conformations(1000, 1000));
        tl.record(&b, &WorkBatch::conformations(1000, 1000));
        let s = tl.render(40);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
        assert!(s.contains("K40c"));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        let tl = Timeline::new();
        assert!(tl.is_empty());
        assert!(tl.render(40).contains("empty"));
        assert_eq!(tl.makespan(), 0.0);
        assert_eq!(tl.utilization(0), 0.0);
    }

    #[test]
    fn traced_timeline_roundtrips_through_events() {
        let (a, b) = devices();
        let trace = Trace::new();
        let tl = Timeline::new().with_trace(trace.clone());
        tl.record(&a, &WorkBatch::conformations(500, 2000));
        tl.record(&b, &WorkBatch::conformations(300, 2000));
        tl.record(&a, &WorkBatch::conformations(200, 2000));

        let data = trace.snapshot();
        assert_eq!(data.len(), 3, "one DeviceBusy per recorded segment");
        // Busy totals agree between the live timeline and the trace.
        for lane in tl.device_stats() {
            let traced = data.device_busy_s(lane.device as u32);
            assert!(
                (lane.busy_s - traced).abs() < 1e-12,
                "device {} busy {} vs traced {traced}",
                lane.device,
                lane.busy_s
            );
        }
        // And the rebuilt timeline reproduces makespan and idle accounting.
        let rebuilt = Timeline::from_events(&data);
        assert!((rebuilt.makespan() - tl.makespan()).abs() < 1e-12);
        for d in [0usize, 1] {
            assert!((rebuilt.idle_time(d) - tl.idle_time(d)).abs() < 1e-12);
        }
        // Kernel + transfer never exceed the recorded busy time.
        for s in data.events() {
            if let Event::DeviceBusy { vt_start, vt_end, kernel_s, transfer_s, .. } = s.event {
                assert!(kernel_s + transfer_s <= vt_end - vt_start + 1e-12);
            }
        }
    }

    #[test]
    fn untraced_timeline_emits_nothing() {
        let (a, _) = devices();
        let trace = Trace::disabled();
        let tl = Timeline::new().with_trace(trace.clone());
        tl.record(&a, &WorkBatch::conformations(10, 10));
        assert!(trace.snapshot().is_empty());
    }
}
