//! The typed event model.
//!
//! Every observable fact about a run is one of these variants. Payloads
//! carry *virtual* (simulated) times and deterministic quantities only;
//! the wall-clock stamp lives in the [`Stamped`] wrapper so that two runs
//! with the same seed produce identical event streams modulo wall-clock
//! fields (the determinism contract, tested in `tests/`).
//!
//! Events are `Copy` (no heap payloads), so recording one is a push of a
//! fixed-size record; human-readable names for device/node tracks are
//! attached out of band via [`crate::Trace::set_track_name`].

/// One structured observation. All times are seconds of *virtual* device
/// time unless the field name says otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A batch of poses was scored end to end (submitter's view).
    BatchScored {
        /// Submitting evaluator's device id, or `u32::MAX` for "all".
        device: u32,
        items: u64,
        pairs_per_item: u64,
        vt_start: f64,
        vt_end: f64,
    },
    /// A device executed work for `[vt_start, vt_end]`, split into modeled
    /// kernel time and PCIe transfer time (`kernel_s + transfer_s` may be
    /// less than the busy interval when launch overhead is charged).
    DeviceBusy {
        device: u32,
        vt_start: f64,
        vt_end: f64,
        kernel_s: f64,
        transfer_s: f64,
        items: u64,
    },
    /// A device sat idle for `[vt_start, vt_end]` (barrier wait, straggler).
    DeviceIdle { device: u32, vt_start: f64, vt_end: f64 },
    /// One warm-up iteration measurement (Eq. 1 input).
    WarmupSample { device: u32, iteration: u32, seconds: f64 },
    /// The scheduler fixed a device's share of the workload.
    PartitionDecision { device: u32, share: f64, weight: f64 },
    /// A metaheuristic generation finished.
    GenerationDone { generation: u32, best_score: f64, evaluations: u64 },
    /// A scorer's potential grids were requested from the slab cache:
    /// `grids` slabs of `nodes` nodes, `bytes` in all, are what that scorer
    /// holds; `cached` says no slab had to be built for it, `terms` counts
    /// the pair terms (receptor atom × lattice node × slab) the build for
    /// it added, and `build_s` is the wall-clock spent building — like
    /// [`Stamped::mono_ns`], excluded from the determinism contract.
    GridBuilt { nodes: u64, grids: u32, bytes: u64, terms: u64, build_s: f64, cached: bool },
    /// A cluster job ran on a different node than the static plan intended.
    JobMigrated { job: u32, from_node: u32, to_node: u32 },
    /// A node was degraded by the fault plan.
    FaultInjected { node: u32, slowdown: f64 },
    /// The campaign service admitted a submission into the bounded queue
    /// (`vscluster::service`). `vt` is the virtual arrival time; `jobs` the
    /// per-ligand fan-out the campaign expands into.
    JobAdmitted { campaign: u32, jobs: u32, interactive: bool, vt: f64 },
    /// Admission control turned a submission away: the bounded queue held
    /// `queued` of `capacity` jobs at the campaign's arrival — backpressure
    /// made observable.
    JobRejected { campaign: u32, jobs: u32, queued: u32, capacity: u32, vt: f64 },
    /// A per-ligand job was served from the results cache instead of the
    /// device fleet: a duplicate `(receptor, ligand, seed, kernel)` key.
    CacheHit { campaign: u32, ligand: u32, vt: f64 },
    /// An elastic scale-up event: a node joined the campaign service
    /// mid-run and became eligible for dispatch at `vt`.
    NodeJoined { node: u32, vt: f64 },
    /// An elastic scale-down event: a node left at `vt`; `requeued` counts
    /// the in-flight jobs that were aborted and returned to the queue.
    NodeLeft { node: u32, vt: f64, requeued: u32 },
    /// Begin of a named wall-clock span (paired with [`Event::SpanEnd`]).
    SpanBegin { name: &'static str },
    /// End of the innermost open span with the same name.
    SpanEnd { name: &'static str },
    /// A sampled scalar (rendered as a counter track in chrome-trace).
    Counter { name: &'static str, value: f64 },
    /// Occupancy of one stage queue in the pipelined engine, sampled when
    /// the stage steps (`metaheur::pipeline`). `depth` is the number of
    /// tokens the step found queued; the ring's `4·depth` admission bound
    /// bounds it.
    StageDepth { stage: &'static str, depth: u32 },
    /// The learned cost oracle ingested one observation (`vsched::oracle`,
    /// DESIGN.md §15): device `device` ran a `class` batch (stable kernel
    /// ordinal: 0 pair-sweep, 1 grid-interp, 2 shell-pairs) in `observed`
    /// virtual seconds against a `predicted` estimate; `residual` is the
    /// relative error and `refit` marks a drift-triggered model reset.
    ModelUpdated {
        device: u32,
        class: u32,
        predicted: f64,
        observed: f64,
        residual: f64,
        refit: bool,
    },
}

impl Event {
    /// Short kind label used by exporters and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::BatchScored { .. } => "BatchScored",
            Event::DeviceBusy { .. } => "DeviceBusy",
            Event::DeviceIdle { .. } => "DeviceIdle",
            Event::WarmupSample { .. } => "WarmupSample",
            Event::PartitionDecision { .. } => "PartitionDecision",
            Event::GenerationDone { .. } => "GenerationDone",
            Event::GridBuilt { .. } => "GridBuilt",
            Event::JobMigrated { .. } => "JobMigrated",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::JobAdmitted { .. } => "JobAdmitted",
            Event::JobRejected { .. } => "JobRejected",
            Event::CacheHit { .. } => "CacheHit",
            Event::NodeJoined { .. } => "NodeJoined",
            Event::NodeLeft { .. } => "NodeLeft",
            Event::SpanBegin { .. } => "SpanBegin",
            Event::SpanEnd { .. } => "SpanEnd",
            Event::Counter { .. } => "Counter",
            Event::StageDepth { .. } => "StageDepth",
            Event::ModelUpdated { .. } => "ModelUpdated",
        }
    }
}

/// An event plus its wall-clock stamp: monotonic nanoseconds since the
/// trace was created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamped {
    /// Monotonic wall-clock nanoseconds since [`crate::Trace::new`].
    /// Excluded from the determinism contract.
    pub mono_ns: u64,
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_are_distinct() {
        let evs = [
            Event::BatchScored {
                device: 0,
                items: 1,
                pairs_per_item: 1,
                vt_start: 0.0,
                vt_end: 1.0,
            },
            Event::DeviceBusy {
                device: 0,
                vt_start: 0.0,
                vt_end: 1.0,
                kernel_s: 0.5,
                transfer_s: 0.5,
                items: 1,
            },
            Event::DeviceIdle { device: 0, vt_start: 0.0, vt_end: 1.0 },
            Event::WarmupSample { device: 0, iteration: 0, seconds: 0.1 },
            Event::PartitionDecision { device: 0, share: 0.5, weight: 1.0 },
            Event::GenerationDone { generation: 0, best_score: -1.0, evaluations: 64 },
            Event::GridBuilt {
                nodes: 1,
                grids: 1,
                bytes: 4,
                terms: 9,
                build_s: 0.1,
                cached: false,
            },
            Event::JobMigrated { job: 0, from_node: 0, to_node: 1 },
            Event::FaultInjected { node: 0, slowdown: 2.0 },
            Event::JobAdmitted { campaign: 0, jobs: 4, interactive: true, vt: 0.0 },
            Event::JobRejected { campaign: 1, jobs: 4, queued: 8, capacity: 8, vt: 0.0 },
            Event::CacheHit { campaign: 0, ligand: 2, vt: 0.1 },
            Event::NodeJoined { node: 2, vt: 0.5 },
            Event::NodeLeft { node: 1, vt: 0.7, requeued: 3 },
            Event::SpanBegin { name: "x" },
            Event::SpanEnd { name: "x" },
            Event::Counter { name: "x", value: 1.0 },
            Event::StageDepth { stage: "x", depth: 1 },
            Event::ModelUpdated {
                device: 0,
                class: 0,
                predicted: 1.0,
                observed: 1.2,
                residual: 0.2,
                refit: false,
            },
        ];
        let mut kinds: Vec<&str> = evs.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), evs.len());
    }
}
