//! # vscluster — multi-node cluster extension
//!
//! The paper's future work (§6): "it could be convenient to adapt our
//! virtual screening method to more complex systems comprising several
//! computational nodes working together with the message-passing paradigm,
//! and each node with several computational components".
//!
//! This crate implements that extension over the simulated substrate as a
//! **multi-tenant campaign service**:
//!
//! - [`service`] — the single submission API:
//!   [`Service::submit`] takes a
//!   [`Campaign`] (library screen, fault-injected
//!   screen, or L×R cross-docking matrix — the three shapes that used to
//!   be separate entry points),
//!   [`Service::drain`] runs the bounded queue
//!   to quiescence and returns one unified
//!   [`CampaignReport`] with queue-latency
//!   percentiles and fleet utilization. Admission control rejects when the
//!   queue is full (an interactive-only reserve keeps re-docks
//!   responsive), classes drain weighted-fair, duplicates are served from
//!   a keyed results cache, and nodes may join/leave mid-campaign;
//! - `cost` (private) — the service's cost model: a job's virtual compute
//!   time is one replay of its batch trace on a node's devices, memoized
//!   per distinct node spec;
//! - [`admission`] — the service's bookkeeping (bounded admission gate,
//!   exactly-once completion board, publish-once results cache), owned
//!   and driven by the service's one thread;
//! - [`traffic`] — deterministic bursty traffic generation for service
//!   studies;
//! - [`net`] — a latency/bandwidth message-cost model (the MPI analog);
//! - [`cluster`] — [`cluster::SimCluster`]: the node pool the service
//!   runs over;
//! - [`library`] — synthetic ligand-library generation;
//! - [`faults`] / [`crossdock`] — degradation plans and receptor targets
//!   consumed by the corresponding campaign kinds.
#![forbid(unsafe_code)]

pub mod admission;
pub mod cluster;
mod cost;
pub mod crossdock;
pub mod faults;
pub mod library;
pub mod net;
pub mod service;
pub mod traffic;

pub use admission::{AdmissionGate, CacheKey, CachedResult, CompletionBoard, ResultsCache};
pub use cluster::SimCluster;
pub use crossdock::ReceptorTarget;
pub use faults::FaultPlan;
pub use library::{synthetic_library, LigandJob};
pub use net::NetModel;
pub use service::{
    Campaign, CampaignKind, CampaignReport, CampaignStats, JobHandle, JobOutcome, Priority,
    ScalePlan, Service, ServiceConfig,
};
pub use traffic::{bursty_traffic, TrafficConfig};
