//! # vsched — heterogeneity-aware scheduling
//!
//! The paper's contribution (§3): distribute the conformations of a
//! metaheuristic-based virtual screen across a heterogeneous
//! multicore + multi-GPU node so the slowest device no longer determines
//! execution time.
//!
//! - [`partition`] — equal splits (the *homogeneous algorithm*,
//!   Algorithm 2) and proportional splits;
//! - [`warmup`] — the run-time performance-monitoring phase: 5–10
//!   metaheuristic iterations per device establish performance
//!   differences, reduced to `Percent = t_device / t_slowest` (Equation 1,
//!   the *heterogeneous algorithm*);
//! - [`strategy`] — the scheduling strategies the experiments compare:
//!   CPU-only (OpenMP baseline), homogeneous split, heterogeneous split,
//!   fixed-chunk and guided work queues, work stealing, learned oracle;
//! - [`policy`] — the one interpreter of those strategies (DESIGN.md
//!   §10): [`Policy::plan`] turns the next batch into per-device claims,
//!   charges them to the virtual clocks and keeps the warm-up / Equation 1
//!   / oracle state. Everything below either replays a plan or charges it
//!   to a live node and scores the batch;
//! - [`replay`] — plan a recorded metaheuristic batch trace onto a
//!   simulated node and report per-device virtual times and makespan (the
//!   mechanism behind Tables 6–9), optionally with fault phases, an event
//!   sink, a caller-owned oracle and a timeline ([`ReplayOptions`]);
//! - [`runtime`] — the node runtime: the claim type, the charge to a
//!   device clock, the work-stealing drain over per-device index ranges
//!   that the policy's deque modes claim from, and the release of a
//!   streamed batch (a simulated device is a clock, not a thread, so the
//!   crate starts none);
//! - [`oracle`] — the online learned cost model (DESIGN.md §15):
//!   per-(device, kernel-class) exponentially-decayed throughput fits that
//!   turn the one-shot Equation 1 warm-up into a cold-start prior and
//!   re-price devices from live batch telemetry, with drift detection;
//! - [`executor`] — the real-compute path: a
//!   [`metaheur::BatchEvaluator`] whose charge plans each batch with the
//!   policy and checks the claims, and whose host scorer scores it on
//!   `vsscore`'s shared persistent pool (inside the engine's host job, or
//!   as one `min(devices, host threads)` job from `evaluate`), for every
//!   strategy — the CPU-only baseline is its one-lane case over the host
//!   CPU.

#![forbid(unsafe_code)]

pub mod executor;
pub mod oracle;
pub mod partition;
pub mod policy;
pub mod replay;
pub mod runtime;
pub mod strategy;
pub mod warmup;

pub use executor::DeviceEvaluator;
pub use oracle::{CostOracle, FitSnapshot, ModelUpdate};
pub use partition::{equal_split, proportional_split};
pub use policy::Policy;
pub use replay::{schedule_trace, schedule_trace_with, ReplayOptions, ScheduleReport};
pub use runtime::{drain_deques, seed_deques, work_profile, Claim, StealConfig, StealStats};
pub use strategy::Strategy;
pub use warmup::{percent_factors, shares_from_times, warmup_times, WarmupConfig};
