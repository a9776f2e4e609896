//! # vstrace — structured run observability
//!
//! The paper's whole argument rests on *measured* per-device behaviour:
//! warm-up times, Percent splits (Eq. 1), per-device busy/idle and
//! makespan (Tables 6–9). This crate is the instrumentation spine that
//! makes one run visible end to end:
//!
//! - a typed [`event::Event`] model (`BatchScored`, `DeviceBusy/Idle`,
//!   `WarmupSample`, `PartitionDecision`, `GenerationDone`, `JobMigrated`,
//!   `FaultInjected`, plus spans and counters);
//! - one **recorder** per trace ([`sink`]) behind a cheap-clone [`Trace`]
//!   handle: it keeps the first [`MAX_RECORDS`] records of the one thread
//!   that emits and counts the rest, and a disabled handle
//!   ([`Trace::disabled`]) compiles every call site down to an `Option`
//!   check, so instrumented hot paths cost nothing when tracing is off;
//! - exporters: [`export::chrome_trace_json`] (loadable in
//!   `chrome://tracing` / Perfetto) and [`summary::text_summary`]
//!   (per-device utilization %, makespan breakdown, batch-size histogram
//!   via `vsmath::Histogram`);
//! - a minimal validating JSON parser ([`json`]) so tests and
//!   the `trace_run` example can parse exported traces back (the
//!   workspace's offline `serde` shim cannot).
//!
//! Events carry **virtual** (simulated-device) times in their payloads and
//! wall-clock stamps only in the [`event::Stamped`] wrapper: two runs with
//! the same seed produce identical payload streams
//! ([`sink::TraceData::payloads`]) — the determinism contract.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod json;
pub mod sink;
pub mod summary;

pub use event::{Event, Stamped};
pub use export::{chrome_trace_json, BATCH_TRACK};
pub use sink::{SpanGuard, Trace, TraceData, MAX_RECORDS};
pub use summary::text_summary;
