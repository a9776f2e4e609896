//! The [`Trace`] handle and its sink.
//!
//! `Trace` is a cheap-clone handle threaded through the hot paths. A
//! disabled handle ([`Trace::disabled`]) carries no sink: every `emit`,
//! `span` and `counter` call reduces to an `Option` check that the
//! optimizer folds away, so instrumented code costs nothing when tracing
//! is off (the overhead contract, DESIGN.md "Observability").
//!
//! An enabled handle records into one `Recorder` per trace: an emit is
//! a lock, a clock read and a push. The first [`MAX_RECORDS`] records are
//! kept and later ones are only counted, so a snapshot is every record of
//! a run or says exactly how many it lacks. One thread records: the
//! library's emits all come from the thread that drives a run, and the
//! payload order is the determinism contract, so an emit from a second
//! thread fails a debug assertion. The lock is there only because a
//! `Trace` travels inside `Send + Sync` owners.

use crate::event::{Event, Stamped};
use std::collections::BTreeMap;
// DETERMINISM: vstrace is the sanctioned base layer; one lock keeps a `Trace` `Send + Sync`, and debug builds check the writer's thread id.
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// Records one trace keeps (about 14 MiB); later emits are counted in
/// [`TraceData::dropped`] and not stored.
pub const MAX_RECORDS: usize = 1 << 18;

struct Sink {
    epoch: Instant,
    rec: Mutex<Recorder>,
}

/// Everything one trace has recorded.
#[derive(Default)]
struct Recorder {
    events: Vec<Stamped>,
    track_names: BTreeMap<u32, String>,
    /// Emits past [`MAX_RECORDS`].
    dropped: u64,
    /// The thread of the first emit (checked in debug builds only).
    writer: Option<ThreadId>,
}

impl Sink {
    /// The recorder. A panic never leaves it half-updated (a push either
    /// happened or not), so a poisoned lock is taken as it is.
    fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.rec.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn emit(&self, event: Event) {
        let mut rec = self.lock();
        if cfg!(debug_assertions) {
            let me = thread::current().id();
            let writer = *rec.writer.get_or_insert(me);
            debug_assert_eq!(writer, me, "a trace records from one thread only");
        }
        if rec.events.len() < MAX_RECORDS {
            let mono_ns = self.epoch.elapsed().as_nanos() as u64;
            rec.events.push(Stamped { mono_ns, event });
        } else {
            rec.dropped += 1;
        }
    }
}

/// Handle to a trace sink; clone freely, pass by value or reference.
#[derive(Clone)]
pub struct Trace {
    inner: Option<Arc<Sink>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(s) => write!(f, "Trace(enabled, {} records)", s.lock().events.len()),
            None => write!(f, "Trace(disabled)"),
        }
    }
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::disabled()
    }
}

impl Trace {
    /// An enabled trace keeping up to [`MAX_RECORDS`] records.
    pub fn new() -> Trace {
        Trace {
            inner: Some(Arc::new(Sink {
                // DETERMINISM: the epoch is the one sanctioned wall-clock read; everything downstream is relative to it.
                epoch: Instant::now(),
                rec: Mutex::new(Recorder::default()),
            })),
        }
    }

    /// The no-op handle: records nothing, costs an `Option` check.
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds since this trace's epoch; `0.0` on a disabled handle.
    ///
    /// This is the sanctioned clock edge for deterministic crates: code
    /// that wants to *report* wall time (grid build cost, span lengths)
    /// takes a clock closure from its caller and the caller passes this,
    /// so `Instant::now()` never appears outside vstrace itself.
    pub fn now_s(&self) -> f64 {
        // DETERMINISM: the trace epoch is the one sanctioned wall-clock read; disabled handles return a constant.
        self.inner.as_ref().map_or(0.0, |s| s.epoch.elapsed().as_secs_f64())
    }

    /// Record one event (no-op when disabled).
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.inner {
            sink.emit(event);
        }
    }

    /// Record a sampled scalar (no-op when disabled).
    #[inline]
    pub fn counter(&self, name: &'static str, value: f64) {
        self.emit(Event::Counter { name, value });
    }

    /// Open a named wall-clock span; the end event is recorded when the
    /// returned guard drops. The guard owns a handle clone, so it does not
    /// borrow the trace (hot paths can keep mutating `self` underneath it).
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.emit(Event::SpanBegin { name });
        SpanGuard { trace: self.clone(), name }
    }

    /// Attach a human-readable name to a device/node track id (cold path;
    /// exporters use it to label timeline rows).
    pub fn set_track_name(&self, track: u32, name: &str) {
        if let Some(sink) = &self.inner {
            sink.lock().track_names.insert(track, name.to_string());
        }
    }

    /// Snapshot everything recorded so far. Returns an empty snapshot for
    /// a disabled trace.
    pub fn snapshot(&self) -> TraceData {
        let Some(sink) = &self.inner else {
            return TraceData { records: Vec::new(), track_names: BTreeMap::new(), dropped: 0 };
        };
        let rec = sink.lock();
        TraceData {
            records: rec.events.clone(),
            track_names: rec.track_names.clone(),
            dropped: rec.dropped,
        }
    }
}

/// RAII guard closing a span (see [`Trace::span`]).
pub struct SpanGuard {
    trace: Trace,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.trace.emit(Event::SpanEnd { name: self.name });
    }
}

/// A snapshot of a trace: the records in emission order plus track
/// metadata.
#[derive(Debug, Clone)]
pub struct TraceData {
    records: Vec<Stamped>,
    /// Device/node track id → display name.
    pub track_names: BTreeMap<u32, String>,
    /// Records emitted past [`MAX_RECORDS`] and not kept.
    pub dropped: u64,
}

impl TraceData {
    /// All kept events in emission order.
    pub fn events(&self) -> impl Iterator<Item = &Stamped> {
        self.records.iter()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The event payloads only (wall-clock stamps stripped) — the
    /// deterministic projection of the stream.
    pub fn payloads(&self) -> Vec<Event> {
        self.events().map(|s| s.event).collect()
    }

    /// Total modeled busy seconds for one device track, summed over
    /// [`Event::DeviceBusy`] events.
    pub fn device_busy_s(&self, device: u32) -> f64 {
        self.events()
            .filter_map(|s| match s.event {
                Event::DeviceBusy { device: d, vt_start, vt_end, .. } if d == device => {
                    Some(vt_end - vt_start)
                }
                _ => None,
            })
            .sum()
    }

    /// Total modeled idle seconds for one device track, summed over
    /// [`Event::DeviceIdle`] events — time the device spent waiting on a
    /// host release rather than scoring.
    pub fn device_idle_s(&self, device: u32) -> f64 {
        self.events()
            .filter_map(|s| match s.event {
                Event::DeviceIdle { device: d, vt_start, vt_end } if d == device => {
                    Some(vt_end - vt_start)
                }
                _ => None,
            })
            .sum()
    }

    /// Device ids appearing in busy/idle events, ascending.
    pub fn devices(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .events()
            .filter_map(|s| match s.event {
                Event::DeviceBusy { device, .. } | Event::DeviceIdle { device, .. } => Some(device),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        t.emit(Event::FaultInjected { node: 0, slowdown: 2.0 });
        t.counter("x", 1.0);
        {
            let _g = t.span("work");
        }
        t.set_track_name(0, "gpu");
        let snap = t.snapshot();
        assert!(snap.is_empty(), "disabled sink must record zero events");
        assert_eq!(snap.len(), 0);
        assert!(snap.track_names.is_empty());
    }

    #[test]
    fn span_guard_emits_begin_and_end() {
        let t = Trace::new();
        {
            let _g = t.span("outer");
            t.counter("inside", 3.0);
        }
        let p = t.snapshot().payloads();
        assert_eq!(
            p,
            vec![
                Event::SpanBegin { name: "outer" },
                Event::Counter { name: "inside", value: 3.0 },
                Event::SpanEnd { name: "outer" },
            ]
        );
    }

    #[test]
    fn wall_stamps_are_monotonic_per_thread() {
        let t = Trace::new();
        for i in 0..100 {
            t.counter("i", i as f64);
        }
        let snap = t.snapshot();
        let stamps: Vec<u64> = snap.events().map(|s| s.mono_ns).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Below the cap every record is kept, in emission order.
    #[test]
    fn every_record_under_the_cap_is_kept() {
        let t = Trace::new();
        for i in 0..(1u32 << 14) + 1 {
            t.counter("i", f64::from(i));
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), (1 << 14) + 1);
        assert_eq!(snap.dropped, 0);
        assert!(snap
            .payloads()
            .iter()
            .enumerate()
            .all(|(i, e)| *e == Event::Counter { name: "i", value: i as f64 }));
    }

    #[test]
    fn records_past_the_cap_are_counted_not_stored() {
        let t = Trace::new();
        for i in 0..MAX_RECORDS + 5 {
            t.counter("i", i as f64);
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), MAX_RECORDS);
        assert_eq!(snap.dropped, 5);
        let last = snap.events().last().map(|s| s.event);
        assert_eq!(last, Some(Event::Counter { name: "i", value: (MAX_RECORDS - 1) as f64 }));
        let summary = crate::text_summary(&snap);
        assert!(summary.contains("(5 records past the cap not kept)"), "{summary}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a trace records from one thread only")]
    fn an_emit_from_a_second_thread_fails_in_debug_builds() {
        let t = Trace::new();
        t.counter("first", 0.0);
        let t2 = t.clone();
        if let Err(panic) = std::thread::spawn(move || t2.counter("second", 1.0)).join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn device_busy_helper_sums_per_device() {
        let t = Trace::new();
        t.emit(Event::DeviceBusy {
            device: 0,
            vt_start: 0.0,
            vt_end: 1.5,
            kernel_s: 1.0,
            transfer_s: 0.5,
            items: 10,
        });
        t.emit(Event::DeviceBusy {
            device: 1,
            vt_start: 0.0,
            vt_end: 0.5,
            kernel_s: 0.4,
            transfer_s: 0.1,
            items: 4,
        });
        t.emit(Event::DeviceBusy {
            device: 0,
            vt_start: 2.0,
            vt_end: 2.5,
            kernel_s: 0.4,
            transfer_s: 0.1,
            items: 4,
        });
        let snap = t.snapshot();
        assert!((snap.device_busy_s(0) - 2.0).abs() < 1e-12);
        assert!((snap.device_busy_s(1) - 0.5).abs() < 1e-12);
        assert_eq!(snap.devices(), vec![0, 1]);
    }
}
