//! The multi-tenant campaign service: one submission API over the whole
//! cluster.
//!
//! Earlier revisions exposed three parallel entry points —
//! `screen_library`, `screen_library_faulty`, `schedule_cross_docking` —
//! each with its own report type and its own scheduling loop. This module
//! collapses them onto a single deterministic virtual-time service:
//!
//! ```text
//! Service::submit(Campaign) -> JobHandle        (admission control)
//! Service::drain()          -> CampaignReport   (run to quiescence)
//! ```
//!
//! A [`Campaign`] is one tenant's request — a plain library screen, a
//! fault-injected screen, or an L×R cross-docking matrix — tagged with a
//! [`Priority`] class and a virtual arrival time. The service expands each
//! admitted campaign into per-ligand jobs, holds them in a bounded queue
//! guarded by [`crate::admission::AdmissionGate`] (backpressure: a full
//! queue rejects, with an interactive-only reserve so re-docks stay
//! responsive under bulk load), drains them weighted-fair across priority
//! classes onto the earliest-free node, and serves duplicate work from a
//! keyed [`crate::admission::ResultsCache`]. Nodes may join or leave
//! mid-campaign via [`ScalePlan`]; a leaving node's unfinished jobs are
//! requeued and complete elsewhere (generalizing the fault path's
//! straggler story to planned elasticity).
//!
//! Everything runs in virtual time: the same submissions with the same
//! seeds produce a bit-identical [`CampaignReport`].

use crate::admission::{AdmissionGate, CacheKey, CachedResult, CompletionBoard, ResultsCache};
use crate::clocks::Clocks;
use crate::cluster::SimCluster;
use crate::cost::{Costs, JobShape, Run};
use crate::crossdock::ReceptorTarget;
use crate::faults::FaultPlan;
use crate::library::LigandJob;
use crate::net::NetModel;
use gpusim::SimNode;
use metaheur::MetaheuristicParams;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vsched::{CostOracle, Strategy};
use vsmath::fnv1a;
use vstrace::{Event, Trace};

/// Serialized result payload per job (best pose + score + provenance).
pub(crate) const RESULT_BYTES: u64 = 256;

/// Priority class of a submission. The drain loop serves classes
/// weighted-fair (see [`ServiceConfig::interactive_weight`]); admission
/// reserves headroom for `Interactive` so a re-dock is never starved by a
/// bulk sweep occupying the whole queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Latency-sensitive: a medicinal chemist re-docking a handful of
    /// analogs and waiting for the answer.
    Interactive,
    /// Throughput-oriented: a library sweep that cares about makespan.
    Bulk,
}

/// What a campaign actually computes.
#[derive(Debug, Clone)]
pub enum CampaignKind {
    /// Screen a ligand library against one receptor.
    Library { receptor_atoms: usize, n_spots: usize, jobs: Vec<LigandJob> },
    /// Library screen under a degradation plan (the fault-injection study
    /// that used to live behind `screen_library_faulty`).
    Faulty {
        receptor_atoms: usize,
        n_spots: usize,
        jobs: Vec<LigandJob>,
        faults: FaultPlan,
        /// `true`: jobs flow to the node with the earliest *observed*
        /// finish time. `false`: jobs are pinned up front by a static plan
        /// built from nominal (healthy) costs.
        dynamic: bool,
        /// `Some(g)`: each degraded node's fault lives inside the node —
        /// GPU lane `g` slows after warm-up — and costs come from the
        /// intra-node faulty replay ([`vsched::ReplayOptions::phases`]).
        gpu_victim: Option<usize>,
    },
    /// Every (ligand, receptor) pair of an L×R selectivity matrix.
    CrossDock { receptors: Vec<ReceptorTarget>, ligands: Vec<LigandJob> },
}

/// One tenant submission: what to compute, at what priority, arriving when.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub kind: CampaignKind,
    pub strategy: Strategy,
    pub priority: Priority,
    /// RNG seed of the search trajectories — part of the cache key: the
    /// same work with the same seed is the same result.
    pub seed: u64,
    /// Virtual arrival time of the submission (clamped to the service
    /// clock at [`Service::submit`]).
    pub arrival_vt: f64,
}

impl Campaign {
    /// A plain library screen (the old `SimCluster::screen_library`).
    pub fn library(
        receptor_atoms: usize,
        n_spots: usize,
        jobs: Vec<LigandJob>,
        strategy: Strategy,
    ) -> Campaign {
        Campaign {
            kind: CampaignKind::Library { receptor_atoms, n_spots, jobs },
            strategy,
            priority: Priority::Bulk,
            seed: 0,
            arrival_vt: 0.0,
        }
    }

    /// A fault-injected screen (the old `screen_library_faulty`): static
    /// nominal-plan assignment by default, node-level degradation.
    pub fn faulty(
        receptor_atoms: usize,
        n_spots: usize,
        jobs: Vec<LigandJob>,
        strategy: Strategy,
        faults: FaultPlan,
    ) -> Campaign {
        Campaign {
            kind: CampaignKind::Faulty {
                receptor_atoms,
                n_spots,
                jobs,
                faults,
                dynamic: false,
                gpu_victim: None,
            },
            strategy,
            priority: Priority::Bulk,
            seed: 0,
            arrival_vt: 0.0,
        }
    }

    /// An L×R cross-docking matrix (the old `schedule_cross_docking`).
    pub fn cross_dock(
        receptors: Vec<ReceptorTarget>,
        ligands: Vec<LigandJob>,
        strategy: Strategy,
    ) -> Campaign {
        Campaign {
            kind: CampaignKind::CrossDock { receptors, ligands },
            strategy,
            priority: Priority::Bulk,
            seed: 0,
            arrival_vt: 0.0,
        }
    }

    /// Submit at interactive priority (weighted-fair boost + admission
    /// reserve).
    pub fn interactive(mut self) -> Campaign {
        self.priority = Priority::Interactive;
        self
    }

    /// Set the search seed (cache-key component).
    pub fn seed(mut self, seed: u64) -> Campaign {
        self.seed = seed;
        self
    }

    /// Arrive at virtual time `vt` instead of immediately.
    pub fn at(mut self, vt: f64) -> Campaign {
        assert!(vt.is_finite() && vt >= 0.0, "arrival time must be finite and non-negative");
        self.arrival_vt = vt;
        self
    }

    /// (Faulty campaigns) assign by observed finish times instead of the
    /// static nominal plan.
    ///
    /// # Panics
    /// Panics when called on a non-faulty campaign.
    pub fn dynamic(mut self, dyn_assign: bool) -> Campaign {
        match &mut self.kind {
            CampaignKind::Faulty { dynamic, .. } => *dynamic = dyn_assign,
            _ => panic!("dynamic assignment toggle only applies to faulty campaigns"),
        }
        self
    }

    /// (Faulty campaigns) model each degraded node's fault as GPU lane `g`
    /// slowing mid-run.
    ///
    /// # Panics
    /// Panics when called on a non-faulty campaign.
    pub fn gpu_victim(mut self, g: usize) -> Campaign {
        match &mut self.kind {
            CampaignKind::Faulty { gpu_victim, .. } => *gpu_victim = Some(g),
            _ => panic!("gpu_victim only applies to faulty campaigns"),
        }
        self
    }

    /// Number of per-ligand jobs this campaign expands into.
    pub fn job_count(&self) -> usize {
        match &self.kind {
            CampaignKind::Library { jobs, .. } | CampaignKind::Faulty { jobs, .. } => jobs.len(),
            CampaignKind::CrossDock { receptors, ligands } => receptors.len() * ligands.len(),
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Bounded queue size in per-ligand jobs; a campaign whose cold jobs
    /// do not fit is rejected whole (backpressure).
    pub queue_capacity: usize,
    /// Slots only interactive submissions may claim.
    pub interactive_reserve: usize,
    /// Weighted-fair drain weight of the interactive class.
    pub interactive_weight: f64,
    /// Weighted-fair drain weight of the bulk class.
    pub bulk_weight: f64,
    /// Results-cache entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 256,
            interactive_reserve: 32,
            interactive_weight: 4.0,
            bulk_weight: 1.0,
            cache_capacity: 1024,
        }
    }
}

/// Planned elasticity: nodes joining and leaving at virtual times.
#[derive(Debug, Clone, Default)]
pub struct ScalePlan {
    joins: Vec<(f64, SimNode)>,
    leaves: Vec<(f64, usize)>,
}

impl ScalePlan {
    pub fn new() -> ScalePlan {
        ScalePlan::default()
    }

    /// A new node joins the fleet at `vt` (it gets the next node id).
    pub fn join_at(mut self, vt: f64, node: SimNode) -> ScalePlan {
        assert!(vt.is_finite() && vt >= 0.0, "join time must be finite and non-negative");
        self.joins.push((vt, node));
        self
    }

    /// Node `node` leaves the fleet at `vt`; its unfinished jobs requeue.
    pub fn leave_at(mut self, vt: f64, node: usize) -> ScalePlan {
        assert!(vt.is_finite() && vt >= 0.0, "leave time must be finite and non-negative");
        self.leaves.push((vt, node));
        self
    }
}

/// Ticket returned by [`Service::submit`]; redeem with
/// [`Service::outcome`] after a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHandle(usize);

/// Per-campaign result summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Last completion minus arrival, seconds of virtual time.
    pub turnaround_s: f64,
    /// Jobs the campaign expanded into.
    pub jobs: usize,
    /// Jobs completed (device-executed + cache-served).
    pub completed: usize,
    /// Jobs served from the results cache.
    pub cache_hits: usize,
    /// Conformation evaluations actually executed on the fleet.
    pub device_evals: u64,
}

/// State of one submission as seen through its [`JobHandle`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Not yet drained.
    Pending,
    /// Admission control turned the campaign away: the queue held `queued`
    /// of `capacity` jobs at arrival.
    Rejected { queued: usize, capacity: usize },
    /// The campaign ran to completion.
    Completed(CampaignStats),
}

/// Aggregate outcome of one [`Service::drain`]: every report the old
/// per-entry-point types carried (`ClusterReport`, `FaultReport`,
/// `CrossDockReport`), unified and extended with queue-latency percentiles
/// and fleet utilization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Drain-window duration: last completion minus drain start, seconds.
    pub makespan: f64,
    /// Per-node busy time (compute + its communication) this drain,
    /// indexed by node id (including joined and departed nodes).
    pub node_times: Vec<f64>,
    /// `assignment[j]` = node that completed expanded job `j` (submission
    /// order across campaigns), or `usize::MAX` for a cache hit.
    pub assignment: Vec<usize>,
    /// Total time spent moving data (all nodes).
    pub comm_time: f64,
    /// The same completed work run serially on node 0's spec (for the
    /// speed-up claim).
    pub single_node_time: f64,
    /// Expanded jobs across admitted campaigns (cache hits included).
    pub total_jobs: usize,
    /// Jobs completed this drain.
    pub completed_jobs: usize,
    /// Campaigns admitted this drain.
    pub campaigns_admitted: usize,
    /// Campaigns rejected by admission control this drain.
    pub campaigns_rejected: usize,
    /// Jobs served from the results cache.
    pub cache_hits: usize,
    /// Conformation evaluations executed on the fleet (cache hits cost 0).
    pub device_evals: u64,
    /// Compute seconds lost to aborted in-flight jobs on leaving nodes.
    pub wasted_s: f64,
    /// Queue-latency percentiles (admission → dispatch), all classes.
    pub queue_p50_s: f64,
    pub queue_p95_s: f64,
    pub queue_p99_s: f64,
    /// p99 queue latency of the interactive class alone — the number the
    /// admission reserve and weighted-fair drain exist to bound.
    pub interactive_p99_s: f64,
    /// Useful busy time over alive node-time in the drain window.
    pub utilization: f64,
    /// Elastic fleet events this drain.
    pub node_joins: usize,
    pub node_leaves: usize,
    /// Jobs requeued off leaving nodes.
    pub requeued_jobs: usize,
}

impl CampaignReport {
    /// Cluster speed-up over running the completed work on node 0.
    pub fn speedup(&self) -> f64 {
        self.single_node_time / self.makespan
    }

    /// Fraction of total node busy time attributable to communication.
    pub fn comm_fraction(&self) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            self.comm_time / (self.node_times.iter().sum::<f64>() + f64::EPSILON)
        }
    }
}

/// One per-ligand job of a drain, indexed by its global id in the
/// service's job table. Queues and node schedules hold only that id, so a
/// job is written once at expansion and never moved.
#[derive(Debug, Clone, Copy)]
struct Job {
    /// [`CacheKey::receptor`]; the key's seed and strategy words are its
    /// campaign's ([`CampaignState::key`]).
    receptor_key: u64,
    /// [`CacheKey::ligand`].
    ligand_key: u64,
    /// Earliest dispatchable time (moves forward on requeue).
    arrival_eff: f64,
    /// Scatter payload of the ligand.
    bytes: u64,
    /// Place in its class's FIFO, counted across the class's unpinned and
    /// pinned queues (set when the job is queued).
    seq: u64,
    campaign: u32,
    /// Index within the campaign's expansion (for migration events).
    slot: u32,
    /// Interned id of what its cost depends on ([`Costs::job`]): its
    /// shape, pair interactions and evaluation count.
    shape: u32,
    /// The ligand's id in its campaign (cache-hit events).
    ligand: u32,
    interactive: bool,
    /// Occupies an admission-gate slot until first dispatch; a cache hit
    /// never does.
    counted_in_gate: bool,
    /// Latency was already sampled at a first (later aborted) dispatch.
    latency_sampled: bool,
}

impl Job {
    /// Class queue index: `[interactive, bulk]`.
    fn class(&self) -> usize {
        if self.interactive {
            0
        } else {
            1
        }
    }
}

/// One job booked on a node. Its communication time is not kept: it is
/// a pure function of the job's bytes ([`comm_s`]).
#[derive(Debug)]
struct Dispatch {
    /// Global id of the dispatched job.
    job: u32,
    start: f64,
    end: f64,
    compute: f64,
}

/// One priority class's FIFO of queued job ids, split by pin: the
/// unpinned jobs, and per node the jobs a static plan pinned to it. Each
/// queue is in `seq` order, so the oldest job a node may run is the older
/// of two queue heads.
#[derive(Default)]
struct ClassQueue {
    unpinned: VecDeque<u32>,
    /// By node id; grown when a job is first pinned to a node.
    pinned: Vec<VecDeque<u32>>,
}

struct NodeState {
    /// GPU lanes of the node.
    gpus: usize,
    alive: bool,
    alive_from: f64,
    /// Busy (comm + compute) this drain.
    busy_s: f64,
    /// Alive span this drain (accumulated at leave / drain end).
    span_s: f64,
    sched: Vec<Dispatch>,
}

impl NodeState {
    fn new(node: &SimNode, vt: f64) -> NodeState {
        NodeState {
            gpus: node.gpus().len(),
            alive: true,
            alive_from: vt,
            busy_s: 0.0,
            span_s: 0.0,
            sched: Vec::new(),
        }
    }
}

struct CampaignState {
    campaign: Campaign,
    /// [`CacheKey::kernel`]: the campaign's strategy fingerprint.
    kernel: u64,
    /// Virtual time the campaign was admitted, its jobs' submission time
    /// for latency accounting.
    admitted_vt: f64,
    stats: CampaignStats,
    last_completion: f64,
    rejected: Option<(usize, usize)>,
    drained: bool,
    /// Static nominal plan (faulty campaigns): node per expansion slot.
    planned: Vec<usize>,
    /// Actual completing node per expansion slot (`usize::MAX` = cache).
    actual: Vec<usize>,
}

impl CampaignState {
    /// Job `jb`'s cache key: its own receptor and ligand words, the
    /// campaign's seed and strategy.
    fn key(&self, jb: &Job) -> CacheKey {
        CacheKey {
            receptor: jb.receptor_key,
            ligand: jb.ligand_key,
            seed: self.campaign.seed,
            kernel: self.kernel,
        }
    }
}

/// The campaign service: bounded admission, weighted-fair virtual-time
/// dispatch, results caching, elastic fleet.
///
/// ```
/// use vscluster::{Campaign, NetModel, Service, SimCluster, synthetic_library};
/// use vsched::Strategy;
///
/// let cluster = SimCluster::uniform(2, NetModel::infiniband(), vscreen::platform::hertz);
/// let mut svc = Service::new(cluster, Default::default());
/// let jobs = synthetic_library(8, &metaheur::m3(0.5), 1);
/// svc.submit(Campaign::library(3264, 16, jobs, Strategy::HomogeneousSplit));
/// let report = svc.drain();
/// assert!(report.speedup() > 1.5); // two nodes nearly halve the campaign
/// ```
pub struct Service {
    nodes: Vec<NodeState>,
    initial_nodes: usize,
    net: NetModel,
    config: ServiceConfig,
    trace: Trace,
    gate: AdmissionGate,
    cache: ResultsCache,
    campaigns: Vec<CampaignState>,
    /// Handles submitted since the last drain.
    pending: Vec<usize>,
    /// Scale events not yet consumed by a drain.
    scale_joins: Vec<(f64, SimNode)>,
    scale_leaves: Vec<(f64, usize)>,
    /// This drain's jobs, by global id (cache hits included).
    jobs: Vec<Job>,
    /// Class queues of job ids: `[interactive, bulk]`.
    queues: [ClassQueue; 2],
    /// Next `Job::seq`.
    next_seq: u64,
    /// When each node is next free, by node id (`+∞` for a dead node),
    /// with the earliest-free node at hand.
    clocks: Clocks,
    /// Weighted-fair served cost per class.
    served: [f64; 2],
    /// Service virtual clock (persists across drains).
    now: f64,
    costs: Costs,
}

impl Service {
    /// Stand the service up over a node pool.
    pub fn new(cluster: SimCluster, config: ServiceConfig) -> Service {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(
            config.interactive_weight > 0.0 && config.bulk_weight > 0.0,
            "class weights must be positive"
        );
        let net = cluster.net();
        let nodes: Vec<NodeState> =
            cluster.nodes().iter().map(|n| NodeState::new(n, 0.0)).collect();
        let mut costs = Costs::default();
        for n in cluster.nodes() {
            costs.add_node(n);
        }
        Service {
            initial_nodes: nodes.len(),
            nodes,
            net,
            gate: AdmissionGate::new(config.queue_capacity, config.interactive_reserve),
            cache: ResultsCache::new(config.cache_capacity),
            config,
            trace: Trace::disabled(),
            campaigns: Vec::new(),
            pending: Vec::new(),
            scale_joins: Vec::new(),
            scale_leaves: Vec::new(),
            jobs: Vec::new(),
            queues: Default::default(),
            next_seq: 0,
            clocks: Clocks::new(vec![0.0; cluster.nodes().len()]),
            served: [0.0, 0.0],
            now: 0.0,
            costs,
        }
    }

    /// Attach a trace: admission/backpressure, cache hits, fleet
    /// elasticity, fault injections, and job migrations all become events.
    pub fn traced(mut self, trace: &Trace) -> Service {
        self.trace = trace.clone();
        self
    }

    /// Register planned scale-up/down events; consumed by the next drain.
    pub fn scale(&mut self, plan: ScalePlan) {
        self.scale_joins.extend(plan.joins);
        self.scale_leaves.extend(plan.leaves);
    }

    /// Node ids currently alive.
    pub fn alive_nodes(&self) -> Vec<usize> {
        self.nodes.iter().enumerate().filter(|(_, n)| n.alive).map(|(i, _)| i).collect()
    }

    /// The service's virtual clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Node `ni`'s learned-cost oracle, present once any
    /// `Strategy::Oracle` campaign has executed there. Dashboards and
    /// tests peek at its fits; campaigns submitted later start warm from
    /// the same instance.
    pub fn node_oracle(&self, ni: usize) -> Option<&CostOracle> {
        self.costs.oracle(ni)
    }

    /// Submit one campaign. Validation panics early; admission control
    /// itself is evaluated at the campaign's arrival time during
    /// [`Service::drain`] (queue occupancy only exists there).
    pub fn submit(&mut self, campaign: Campaign) -> JobHandle {
        self.validate(&campaign);
        let handle = self.campaigns.len();
        let jobs = campaign.job_count();
        self.campaigns.push(CampaignState {
            kernel: campaign.strategy.fingerprint(),
            admitted_vt: 0.0,
            campaign,
            stats: CampaignStats {
                turnaround_s: 0.0,
                jobs,
                completed: 0,
                cache_hits: 0,
                device_evals: 0,
            },
            last_completion: 0.0,
            rejected: None,
            drained: false,
            planned: Vec::new(),
            actual: Vec::new(),
        });
        self.pending.push(handle);
        JobHandle(handle)
    }

    /// Outcome of a prior submission.
    pub fn outcome(&self, handle: JobHandle) -> JobOutcome {
        let state = &self.campaigns[handle.0];
        if let Some((queued, capacity)) = state.rejected {
            JobOutcome::Rejected { queued, capacity }
        } else if state.drained {
            JobOutcome::Completed(state.stats.clone())
        } else {
            JobOutcome::Pending
        }
    }

    fn validate(&self, campaign: &Campaign) {
        assert!(campaign.arrival_vt.is_finite(), "arrival time must be finite");
        match &campaign.kind {
            CampaignKind::Library { receptor_atoms, n_spots, .. } => {
                assert!(*n_spots > 0 && *receptor_atoms > 0, "degenerate screening problem");
            }
            CampaignKind::Faulty { receptor_atoms, n_spots, faults, gpu_victim, .. } => {
                assert!(*n_spots > 0 && *receptor_atoms > 0, "degenerate screening problem");
                assert_eq!(faults.slowdowns.len(), self.initial_nodes, "fault plan size mismatch");
                assert!(faults.slowdowns.iter().all(|&f| f >= 1.0), "factors must be ≥ 1");
                if let Some(g) = gpu_victim {
                    assert!(
                        self.nodes.iter().filter(|n| n.alive).all(|n| *g < n.gpus),
                        "gpu_victim {g} out of range for some node"
                    );
                    assert!(
                        faults.slowdowns.iter().all(|f| f.is_finite()),
                        "gpu_victim needs finite factors (the lane keeps executing, slowly)"
                    );
                }
            }
            CampaignKind::CrossDock { receptors, ligands } => {
                assert!(!receptors.is_empty() && !ligands.is_empty(), "empty campaign");
                assert!(
                    receptors.iter().all(|r| r.atoms > 0 && r.n_spots > 0),
                    "degenerate receptor target"
                );
            }
        }
    }

    /// Run every pending submission and scale event to quiescence and
    /// report on the drain window. Deterministic: same submissions, same
    /// seeds, bit-identical report.
    pub fn drain(&mut self) -> CampaignReport {
        let t0 = self.now;

        // Drain-window accounting reset; alive spans restart at the
        // window edge.
        for n in self.nodes.iter_mut() {
            n.busy_s = 0.0;
            n.span_s = 0.0;
            if n.alive {
                n.alive_from = t0;
            }
        }
        // Size the job table, the completion board, the results cache, the
        // unpinned queues and the latency samples for everything that can
        // possibly run, so none of them regrows. A class queue never holds
        // more than its class's jobs; a job samples its latency once, and
        // the bulk vector later takes in the interactive samples too.
        let pending: Vec<usize> = std::mem::take(&mut self.pending);
        let total_possible: usize = pending.iter().map(|&h| self.campaigns[h].stats.jobs).sum();
        let interactive_possible: usize = pending
            .iter()
            .map(|&h| &self.campaigns[h])
            .filter(|state| state.campaign.priority == Priority::Interactive)
            .map(|state| state.stats.jobs)
            .sum();
        assert!(u32::try_from(total_possible).is_ok(), "a drain's jobs are counted in u32 ids");
        self.jobs = Vec::with_capacity(total_possible);
        self.cache.reserve(total_possible);
        self.queues[0].unpinned.reserve(interactive_possible);
        self.queues[1].unpinned.reserve(total_possible - interactive_possible);
        let mut agg = DrainAgg {
            board: CompletionBoard::new(total_possible),
            assignment: Vec::with_capacity(total_possible),
            t_end: t0,
            latency: [Vec::with_capacity(interactive_possible), Vec::with_capacity(total_possible)],
            ..DrainAgg::default()
        };

        // Merge events: joins(0) < leaves(1) < submissions(2) at equal vt.
        enum Ev {
            Join(SimNode),
            Leave(usize),
            Submit(usize),
        }
        let mut events: Vec<(f64, u8, usize, Ev)> = Vec::new();
        for (seq, (vt, node)) in std::mem::take(&mut self.scale_joins).into_iter().enumerate() {
            events.push((vt.max(t0), 0, seq, Ev::Join(node)));
        }
        for (seq, (vt, id)) in std::mem::take(&mut self.scale_leaves).into_iter().enumerate() {
            events.push((vt.max(t0), 1, seq, Ev::Leave(id)));
        }
        for (seq, &h) in pending.iter().enumerate() {
            let vt = self.campaigns[h].campaign.arrival_vt.max(t0);
            events.push((vt, 2, seq, Ev::Submit(h)));
        }
        events.sort_by(|a, b| {
            // PANICS: every event time is validated finite at submission.
            a.0.partial_cmp(&b.0)
                .expect("finite event times")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });

        for (vt, _, _, ev) in events {
            agg.t_end = agg.t_end.max(vt);
            self.advance(vt, &mut agg);
            self.commit(vt, &mut agg);
            match ev {
                Ev::Join(node) => {
                    let id = self.nodes.len();
                    self.costs.add_node(&node);
                    self.nodes.push(NodeState::new(&node, vt));
                    self.clocks.push(vt);
                    agg.node_joins += 1;
                    self.trace.emit(Event::NodeJoined { node: id as u32, vt });
                }
                Ev::Leave(id) => self.leave(id, vt, &mut agg),
                Ev::Submit(h) => self.admit(h, vt, &mut agg),
            }
        }

        // Run the remaining queue dry.
        self.advance(f64::INFINITY, &mut agg);
        self.commit(f64::INFINITY, &mut agg);
        let t_end = agg.t_end;

        // Close out alive spans and the clock.
        for n in self.nodes.iter_mut() {
            if n.alive {
                n.span_s += (t_end - n.alive_from).max(0.0);
            }
        }
        self.now = t_end;

        // Seal campaign stats; emit migration events for dynamic faulty
        // campaigns (actual vs the static nominal plan).
        for &h in &pending {
            let state = &mut self.campaigns[h];
            if state.rejected.is_some() {
                continue;
            }
            state.drained = true;
            state.stats.turnaround_s =
                (state.last_completion - state.campaign.arrival_vt.max(t0)).max(0.0);
            let migrations: Vec<(u32, u32, u32)> = if self.trace.is_enabled()
                && matches!(state.campaign.kind, CampaignKind::Faulty { dynamic: true, .. })
            {
                state
                    .actual
                    .iter()
                    .zip(&state.planned)
                    .enumerate()
                    .filter(|(_, (&to, &from))| to != from && to != usize::MAX)
                    .map(|(slot, (&to, &from))| (slot as u32, from as u32, to as u32))
                    .collect()
            } else {
                Vec::new()
            };
            for (job, from_node, to_node) in migrations {
                self.trace.emit(Event::JobMigrated { job, from_node, to_node });
            }
        }

        // `[interactive, bulk]`; the bulk samples then take in the rest.
        let [mut inter, mut all_lat] = std::mem::take(&mut agg.latency);
        let interactive_p99_s = percentile(&mut inter, 99.0);
        all_lat.append(&mut inter);

        let busy: f64 = self.nodes.iter().map(|n| n.busy_s).sum();
        let span: f64 = self.nodes.iter().map(|n| n.span_s).sum();
        CampaignReport {
            makespan: t_end - t0,
            node_times: self.nodes.iter().map(|n| n.busy_s).collect(),
            assignment: agg.assignment,
            comm_time: agg.comm_time,
            single_node_time: agg.single_node_time,
            total_jobs: agg.total_jobs,
            completed_jobs: agg.completed_jobs,
            campaigns_admitted: agg.admitted,
            campaigns_rejected: agg.rejected,
            cache_hits: agg.cache_hits,
            device_evals: agg.device_evals,
            wasted_s: agg.wasted_s,
            queue_p50_s: percentile(&mut all_lat, 50.0),
            queue_p95_s: percentile(&mut all_lat, 95.0),
            queue_p99_s: percentile(&mut all_lat, 99.0),
            interactive_p99_s,
            utilization: if span > 0.0 { busy / span } else { 1.0 },
            node_joins: agg.node_joins,
            node_leaves: agg.node_leaves,
            requeued_jobs: agg.requeued,
        }
    }

    /// Admission: expand the campaign, serve duplicates from the cache,
    /// reserve queue slots for the cold remainder or reject whole.
    fn admit(&mut self, h: usize, vt: f64, agg: &mut DrainAgg) {
        let campaign = &self.campaigns[h].campaign;
        let interactive = campaign.priority == Priority::Interactive;
        // Static faulty campaigns pin each job to its nominal-plan node;
        // dynamic ones keep the plan only to report migrations against.
        let (is_faulty, dynamic) = match campaign.kind {
            CampaignKind::Faulty { dynamic, .. } => (true, dynamic),
            _ => (false, true),
        };
        let first = self.jobs.len();
        Service::expand(&mut self.costs, h, campaign, vt, &mut self.jobs);
        let total = self.jobs.len() - first;

        // A job whose result the cache holds ready is a hit: it completes
        // now and never takes a queue slot.
        let mut cold = 0;
        let state = &self.campaigns[h];
        for jb in &mut self.jobs[first..] {
            jb.counted_in_gate = self.cache.lookup(&state.key(jb), vt).is_none();
            cold += usize::from(jb.counted_in_gate);
        }

        if cold > 0 && !self.gate.try_admit(cold, interactive) {
            let queued = self.gate.occupancy();
            self.trace.emit(Event::JobRejected {
                campaign: h as u32,
                jobs: total as u32,
                queued: queued as u32,
                capacity: self.gate.capacity() as u32,
                vt,
            });
            self.campaigns[h].rejected = Some((queued, self.gate.capacity()));
            agg.rejected += 1;
            // The rejected jobs' global ids are simply never used (the
            // board stays incomplete there, and no assignment slots were
            // appended).
            self.jobs.truncate(first);
            return;
        }

        self.trace.emit(Event::JobAdmitted {
            campaign: h as u32,
            jobs: total as u32,
            interactive,
            vt,
        });
        if let CampaignKind::Faulty { faults, .. } = &self.campaigns[h].campaign.kind {
            for (ni, &f) in faults.slowdowns.iter().enumerate() {
                if f > 1.0 {
                    self.trace.emit(Event::FaultInjected { node: ni as u32, slowdown: f });
                }
            }
        }
        agg.admitted += 1;
        self.campaigns[h].admitted_vt = vt;
        agg.total_jobs += total;
        agg.assignment.resize(agg.assignment.len() + total, usize::MAX);

        // Duplicates complete in cache-hit time: one result gather, zero
        // device evaluations, no queue slot.
        for (g, jb) in self.jobs.iter().enumerate().skip(first) {
            if jb.counted_in_gate {
                continue;
            }
            let done_at = vt + self.net.transfer_time(RESULT_BYTES);
            if agg.board.try_complete(g) {
                let state = &mut self.campaigns[h];
                state.stats.completed += 1;
                state.stats.cache_hits += 1;
                state.last_completion = state.last_completion.max(done_at);
                agg.completed_jobs += 1;
                agg.cache_hits += 1;
                agg.t_end = agg.t_end.max(done_at);
                self.trace.emit(Event::CacheHit { campaign: h as u32, ligand: jb.ligand, vt });
            }
        }

        let cold: Vec<u32> = (first..self.jobs.len())
            .filter(|&g| self.jobs[g].counted_in_gate)
            .map(|g| g as u32)
            .collect();
        let plan = if is_faulty { self.plan_static(&cold) } else { Vec::new() };
        if is_faulty {
            let mut planned = vec![usize::MAX; total];
            for (&g, &node) in cold.iter().zip(&plan) {
                planned[self.jobs[g as usize].slot as usize] = node;
            }
            let state = &mut self.campaigns[h];
            state.planned = planned;
            state.actual = vec![usize::MAX; total];
        }
        for (i, g) in cold.into_iter().enumerate() {
            self.enqueue(g, plan.get(i).copied().filter(|_| !dynamic));
        }
    }

    /// Expand a campaign into per-ligand jobs appended to `jobs`,
    /// LPT-ordered by workload volume (so the earliest-free dispatch
    /// reproduces the old longest-first assignment), with the receptor
    /// and ligand words of their cache keys; a job's index in `jobs` is
    /// its global id.
    fn expand<'c>(
        costs: &mut Costs,
        h: usize,
        campaign: &'c Campaign,
        vt: f64,
        jobs: &mut Vec<Job>,
    ) {
        let interactive = campaign.priority == Priority::Interactive;
        let words = |ws: &[u64]| fnv1a(ws.iter().flat_map(|w| w.to_le_bytes()));
        // A job whose params equal the previous job's reuses their shape
        // id, fingerprint and evaluations per spot without computing them
        // again. `PartialEq` merges only params that are equal field by
        // field up to the sign of a zero, which the fingerprint folds and
        // `synthetic_trace`, the one cost input read from them, cannot
        // tell apart.
        let mut last: Option<(&MetaheuristicParams, u32, u64, u64)> = None;
        let mut raw: Vec<Job> = Vec::with_capacity(campaign.job_count());
        // Longest-processing-time-first on one packed key per job: the
        // complemented volume above the index, so keys are distinct and
        // sort like a stable sort on descending volume, equal volumes in
        // submission order.
        let mut order: Vec<u128> = Vec::with_capacity(campaign.job_count());
        let mut push =
            |job: &'c LigandJob, receptor: u64, receptor_atoms: usize, n_spots: usize| {
                let (shape, fp, evals) = match last {
                    Some((params, shape, fp, evals)) if *params == job.params => (shape, fp, evals),
                    _ => (
                        costs.shape(&job.params, campaign.strategy),
                        job.params.fingerprint(),
                        job.params.evals_per_spot(),
                    ),
                };
                last = Some((&job.params, shape, fp, evals));
                let shape = JobShape {
                    shape,
                    n_spots,
                    pairs: job.pairs_per_eval(receptor_atoms),
                    items: evals * n_spots as u64,
                };
                order.push(u128::from(!(shape.items * shape.pairs)) << 32 | raw.len() as u128);
                let ligand = words(&[job.id as u64, job.ligand_atoms as u64, job.bytes, fp, evals]);
                raw.push(Job {
                    receptor_key: receptor,
                    ligand_key: ligand,
                    arrival_eff: vt,
                    bytes: job.bytes,
                    seq: 0,
                    campaign: h as u32,
                    slot: 0,
                    shape: costs.job(shape),
                    ligand: job.id as u32,
                    interactive,
                    counted_in_gate: true,
                    latency_sampled: false,
                });
            };
        match &campaign.kind {
            CampaignKind::Library { receptor_atoms, n_spots, jobs }
            | CampaignKind::Faulty { receptor_atoms, n_spots, jobs, .. } => {
                let receptor = words(&[*receptor_atoms as u64, *n_spots as u64, 0]);
                for job in jobs {
                    push(job, receptor, *receptor_atoms, *n_spots);
                }
            }
            CampaignKind::CrossDock { receptors, ligands } => {
                let hashes: Vec<u64> = receptors
                    .iter()
                    .map(|r| words(&[r.atoms as u64, r.n_spots as u64, fnv1a(r.name.bytes())]))
                    .collect();
                for lig in ligands {
                    for (rec, &receptor) in receptors.iter().zip(&hashes) {
                        push(lig, receptor, rec.atoms, rec.n_spots);
                    }
                }
            }
        }
        order.sort_unstable();
        jobs.extend(
            order
                .iter()
                .enumerate()
                .map(|(slot, &key)| Job { slot: slot as u32, ..raw[key as u32 as usize] }),
        );
    }

    /// The static nominal plan: balance LPT-ordered jobs by *healthy* cost
    /// estimates over the currently alive nodes, blind to degradation.
    fn plan_static(&mut self, cold: &[u32]) -> Vec<usize> {
        let alive = self.alive_nodes();
        assert!(!alive.is_empty(), "no alive nodes to plan over");
        // Planned loads by place in `alive`; each job goes to the least
        // loaded, the lowest place on a tie.
        let mut planned_t = Clocks::new(vec![0.0; alive.len()]);
        let mut plan = Vec::with_capacity(cold.len());
        for &g in cold {
            // PANICS: `alive` is non-empty.
            let (k, load) = planned_t.earliest().expect("non-empty");
            let cost = self.costs.cost(Some(alive[k]), self.jobs[g as usize].shape, Run::Plan);
            planned_t.set(k, load + cost);
            plan.push(alive[k]);
        }
        plan
    }

    /// Queue job `g` at the back of its class: in node `pin`'s pinned
    /// queue when it has one, else in the unpinned queue.
    fn enqueue(&mut self, g: u32, pin: Option<usize>) {
        let jb = &mut self.jobs[g as usize];
        jb.seq = self.next_seq;
        self.next_seq += 1;
        let queue = &mut self.queues[jb.class()];
        match pin {
            None => queue.unpinned.push_back(g),
            Some(ni) => {
                if queue.pinned.len() <= ni {
                    queue.pinned.resize_with(ni + 1, VecDeque::new);
                }
                queue.pinned[ni].push_back(g);
            }
        }
    }

    /// Dispatch queued work onto free nodes up to virtual time `until`:
    /// each job goes to the first node, in `(free_vt, id)` order, that has
    /// an eligible job. That is the earliest-free node, the root of the
    /// clocks' tree, unless every job left is pinned elsewhere; only then
    /// are the others walked in order.
    fn advance(&mut self, until: f64, agg: &mut DrainAgg) {
        // Node clocks are finite or `+∞`, so total_cmp matches numeric
        // order; on equal clocks the tree and the stable sort keep the
        // lower id.
        while let Some((first, _)) = self.clocks.earliest().filter(|&(_, c)| c < until) {
            let picked = self.pick(first).map(|p| (first, p)).or_else(|| {
                let mut rest: Vec<(usize, f64)> =
                    self.free_nodes(until).filter(|&(ni, _)| ni != first).collect();
                rest.sort_by(|a, b| a.1.total_cmp(&b.1));
                rest.into_iter().find_map(|(ni, _)| self.pick(ni).map(|p| (ni, p)))
            });
            let Some((ni, (class, g))) = picked else {
                break;
            };
            self.dispatch(ni, class, g, agg);
        }
    }

    /// `(id, free_vt)` of each alive node free before `until`, by id.
    fn free_nodes(&self, until: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.clocks.values().iter().copied().enumerate().filter(move |&(_, c)| c < until)
    }

    /// Weighted-fair class selection, then FIFO within the class: take the
    /// oldest job node `ni` may run (unpinned or pinned to it) of the
    /// class with the smallest served-cost/weight (ties go to
    /// interactive) out of its queue.
    fn pick(&mut self, ni: usize) -> Option<(usize, u32)> {
        let norm = [
            self.served[0] / self.config.interactive_weight,
            self.served[1] / self.config.bulk_weight,
        ];
        let order: [usize; 2] = if norm[1] < norm[0] { [1, 0] } else { [0, 1] };
        let jobs = &self.jobs;
        let head = |queue: &VecDeque<u32>| queue.front().map(|&g| jobs[g as usize].seq);
        for class in order {
            let ClassQueue { unpinned, pinned } = &mut self.queues[class];
            let queue = match pinned.get_mut(ni) {
                Some(mine) if head(mine).is_some_and(|s| head(unpinned).is_none_or(|u| s < u)) => {
                    mine
                }
                _ => unpinned,
            };
            if let Some(g) = queue.pop_front() {
                return Some((class, g));
            }
        }
        None
    }

    fn dispatch(&mut self, ni: usize, class: usize, g: u32, agg: &mut DrainAgg) {
        let jb = &mut self.jobs[g as usize];
        let start = self.clocks.values()[ni].max(jb.arrival_eff);
        let comm = comm_s(&self.net, jb.bytes);
        let state = &self.campaigns[jb.campaign as usize];
        let (factor, victim) = match &state.campaign.kind {
            // Fault plans index the initial fleet; joined nodes are
            // healthy by construction.
            CampaignKind::Faulty { faults, gpu_victim, .. } => {
                let f = if ni < faults.slowdowns.len() { faults.factor(ni) } else { 1.0 };
                (f, *gpu_victim)
            }
            _ => (1.0, None),
        };
        let run = Run::Execute { factor, victim, trace: &self.trace };
        let compute = self.costs.cost(Some(ni), jb.shape, run);
        let end = start + comm + compute;
        if !jb.latency_sampled {
            agg.latency[class].push(start - state.admitted_vt);
            jb.latency_sampled = true;
        }
        if jb.counted_in_gate {
            self.gate.release(1);
            jb.counted_in_gate = false;
        }
        self.served[class] += comm + compute;
        self.clocks.set(ni, end);
        self.nodes[ni].sched.push(Dispatch { job: g, start, end, compute });
    }

    /// Commit dispatches finished by `vt`: exactly-once completion, cache
    /// publication, busy/comm accounting, report aggregation.
    fn commit(&mut self, vt: f64, agg: &mut DrainAgg) {
        for ni in 0..self.nodes.len() {
            // A dispatch starts no earlier than the node's previous one
            // ends, so a node's finished dispatches are a prefix of its
            // schedule; they leave it and the booked rest moves up.
            let sched = &self.nodes[ni].sched;
            let done = sched.partition_point(|d| d.end <= vt);
            debug_assert!(sched[done..].iter().all(|d| d.end > vt), "schedule out of order");
            if done == 0 {
                continue;
            }
            let mut sched = std::mem::take(&mut self.nodes[ni].sched);
            for d in sched.drain(..done) {
                let g = d.job as usize;
                if !agg.board.try_complete(g) {
                    continue; // late duplicate delivery of a requeued job
                }
                let jb = &self.jobs[g];
                let items = self.costs.job_shape(jb.shape).items;
                self.nodes[ni].busy_s += d.end - d.start;
                agg.comm_time += comm_s(&self.net, jb.bytes);
                agg.completed_jobs += 1;
                agg.device_evals += items;
                agg.t_end = agg.t_end.max(d.end);
                agg.assignment[g] = ni;
                let state = &mut self.campaigns[jb.campaign as usize];
                let key = state.key(jb);
                self.cache.publish(key, CachedResult { compute_s: d.compute, ready_vt: d.end });
                agg.single_node_time += self.costs.cost(None, jb.shape, Run::Plan);
                state.stats.completed += 1;
                state.stats.device_evals += items;
                state.last_completion = state.last_completion.max(d.end);
                if let Some(actual) = state.actual.get_mut(jb.slot as usize) {
                    *actual = ni;
                }
            }
            self.nodes[ni].sched = sched;
        }
    }

    /// Node `id` leaves: in-flight and future-booked jobs are aborted and
    /// requeued, and jobs still queued with a pin to it are unpinned (their
    /// node is gone); partially-executed work is counted as waste.
    fn leave(&mut self, id: usize, vt: f64, agg: &mut DrainAgg) {
        assert!(
            id < self.nodes.len() && self.nodes[id].alive,
            "leave of unknown or dead node {id}"
        );
        assert!(
            self.nodes.iter().enumerate().any(|(i, n)| n.alive && i != id),
            "cannot scale the fleet to zero nodes"
        );
        let t0_span = self.nodes[id].alive_from;
        let aborted: Vec<Dispatch> = std::mem::take(&mut self.nodes[id].sched);
        let requeued = aborted.len();
        for d in aborted {
            if d.start < vt {
                // The straddling job's partial execution is lost; it is
                // waste, not useful busy time.
                agg.wasted_s += (vt - d.start).min(d.end - d.start);
            }
            self.jobs[d.job as usize].arrival_eff = vt;
            self.enqueue(d.job, None);
            agg.requeued += 1;
        }
        // The jobs pinned to it join the unpinned ones at their places.
        for queue in &mut self.queues {
            let pinned = queue.pinned.get_mut(id).map(std::mem::take).unwrap_or_default();
            if pinned.is_empty() {
                continue;
            }
            for &g in &pinned {
                self.jobs[g as usize].arrival_eff = vt;
            }
            let mut merged: Vec<u32> = queue.unpinned.drain(..).chain(pinned).collect();
            merged.sort_unstable_by_key(|&g| self.jobs[g as usize].seq);
            queue.unpinned = merged.into();
        }
        let node = &mut self.nodes[id];
        node.alive = false;
        node.span_s += (vt - t0_span.max(0.0)).max(0.0);
        self.clocks.set(id, f64::INFINITY);
        agg.node_leaves += 1;
        self.trace.emit(Event::NodeLeft { node: id as u32, vt, requeued: requeued as u32 });
    }
}

/// Time to move a job's `bytes` of payload out and its result back.
fn comm_s(net: &NetModel, bytes: u64) -> f64 {
    net.transfer_time(bytes) + net.transfer_time(RESULT_BYTES)
}

/// Per-drain aggregation scratchpad.
#[derive(Default)]
struct DrainAgg {
    /// Completion latch per global id.
    board: CompletionBoard,
    /// Completing node per global id of the admitted campaigns.
    assignment: Vec<usize>,
    /// Last completion so far.
    t_end: f64,
    comm_time: f64,
    single_node_time: f64,
    total_jobs: usize,
    completed_jobs: usize,
    admitted: usize,
    rejected: usize,
    cache_hits: usize,
    device_evals: u64,
    wasted_s: f64,
    node_joins: usize,
    node_leaves: usize,
    requeued: usize,
    /// Queue-latency samples per class: `[interactive, bulk]`.
    latency: [Vec<f64>; 2],
}

/// Nearest-rank percentile of a sample, found by selection (the sample is
/// reordered). Latencies are differences of finite non-negative times,
/// never `-0.0` or NaN, so `total_cmp` is numeric order and the selected
/// value has the bits a full sort would put at that rank.
fn percentile(sample: &mut [f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sample.len() as f64).ceil() as usize;
    let (_, &mut value, _) =
        sample.select_nth_unstable_by(rank.saturating_sub(1).min(sample.len() - 1), f64::total_cmp);
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::synthetic_library;
    use vscreen::platform;

    fn jobs(n: usize) -> Vec<LigandJob> {
        synthetic_library(n, &metaheur::m1(0.2), 3)
    }

    fn service(n: usize) -> Service {
        Service::new(
            SimCluster::uniform(n, NetModel::infiniband(), platform::hertz),
            ServiceConfig::default(),
        )
    }

    fn screen(n_nodes: usize, n_jobs: usize) -> CampaignReport {
        let mut svc = service(n_nodes);
        svc.submit(Campaign::library(3264, 16, jobs(n_jobs), Strategy::HomogeneousSplit));
        svc.drain()
    }

    #[test]
    fn job_and_dispatch_records_stay_slim() {
        // A drained job is one `Job` in the table and, per dispatch, one
        // `Dispatch` in a node's schedule.
        let (job, dispatch) = (std::mem::size_of::<Job>(), std::mem::size_of::<Dispatch>());
        assert!(job <= 64, "Job is {job} bytes");
        assert!(dispatch <= 32, "Dispatch is {dispatch} bytes");
    }

    #[test]
    fn all_jobs_assigned_to_valid_nodes() {
        let r = screen(3, 20);
        assert_eq!(r.assignment.len(), 20);
        assert!(r.assignment.iter().all(|&n| n < 3));
        assert_eq!(r.completed_jobs, 20);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn two_nodes_speed_up_meaningfully() {
        let r = screen(2, 24);
        let s = r.speedup();
        assert!(s > 1.5, "2-node speedup only {s}");
        assert!(s <= 2.01, "superlinear speedup is a bug: {s}");
    }

    #[test]
    fn scaling_improves_with_more_nodes() {
        let s2 = screen(2, 32).speedup();
        let s4 = screen(4, 32).speedup();
        assert!(s4 > s2, "4 nodes {s4} should beat 2 nodes {s2}");
        assert!(s4 <= 4.01);
    }

    #[test]
    fn single_node_service_matches_baseline() {
        let r = screen(1, 10);
        // Only comm overhead separates the 1-node service from the
        // no-cluster baseline.
        assert!(r.makespan >= r.single_node_time);
        assert!((r.makespan - r.single_node_time - r.comm_time).abs() < 1e-9);
    }

    #[test]
    fn slow_network_increases_comm_share() {
        let run = |net: NetModel| {
            let mut svc = Service::new(
                SimCluster::uniform(2, net, platform::hertz),
                ServiceConfig::default(),
            );
            svc.submit(Campaign::library(3264, 16, jobs(16), Strategy::HomogeneousSplit));
            svc.drain()
        };
        let fast = run(NetModel::infiniband());
        let slow = run(NetModel::gigabit_ethernet());
        assert!(slow.comm_time > fast.comm_time);
        assert!(slow.comm_fraction() > fast.comm_fraction());
    }

    #[test]
    fn heterogeneous_cluster_balances_by_finish_time() {
        // One Hertz + one Jupiter: Jupiter's bigger GPU pool should absorb
        // more jobs.
        let cluster =
            SimCluster::new(vec![platform::hertz(), platform::jupiter()], NetModel::infiniband());
        let mut svc = Service::new(cluster, ServiceConfig::default());
        svc.submit(Campaign::library(3264, 16, jobs(30), Strategy::HomogeneousSplit));
        let r = svc.drain();
        let to_jupiter = r.assignment.iter().filter(|&&n| n == 1).count();
        assert!(to_jupiter >= 15, "Jupiter took only {to_jupiter}/30 jobs");
        let imb = (r.node_times[0] - r.node_times[1]).abs() / r.makespan;
        assert!(imb < 0.35, "node imbalance {imb}");
    }

    #[test]
    fn deterministic_reports() {
        let a = screen(3, 12);
        let b = screen(3, 12);
        assert_eq!(a, b, "same submissions must produce bit-identical reports");
    }

    #[test]
    fn utilization_high_when_backlogged() {
        let r = screen(2, 24);
        assert!(r.utilization > 0.9, "backlogged fleet should stay busy: {}", r.utilization);
        assert!(r.utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn admission_rejects_over_capacity_and_reserve_protects_interactive() {
        let cluster = SimCluster::uniform(1, NetModel::infiniband(), platform::hertz);
        let mut svc = Service::new(
            cluster,
            ServiceConfig { queue_capacity: 10, interactive_reserve: 4, ..Default::default() },
        );
        let big = svc.submit(Campaign::library(3264, 16, jobs(6), Strategy::HomogeneousSplit));
        // Second bulk campaign exceeds capacity - reserve (6 slots).
        let bulk = svc.submit(Campaign::library(3264, 16, jobs(4), Strategy::HomogeneousSplit));
        // Interactive fits in the reserve.
        let inter = svc
            .submit(Campaign::library(3264, 16, jobs(4), Strategy::HomogeneousSplit).interactive());
        let r = svc.drain();
        assert_eq!(r.campaigns_admitted, 2);
        assert_eq!(r.campaigns_rejected, 1);
        assert!(matches!(svc.outcome(big), JobOutcome::Completed(_)));
        assert!(matches!(svc.outcome(bulk), JobOutcome::Rejected { queued: 6, capacity: 10 }));
        assert!(matches!(svc.outcome(inter), JobOutcome::Completed(_)));
        assert_eq!(r.completed_jobs, 10);
    }

    #[test]
    fn staggered_arrivals_report_queue_latency() {
        let mut svc = service(1);
        svc.submit(Campaign::library(3264, 16, jobs(8), Strategy::HomogeneousSplit));
        svc.submit(Campaign::library(3264, 16, jobs(8), Strategy::HomogeneousSplit).at(1e-6));
        let r = svc.drain();
        // The second campaign's jobs waited behind the first: nonzero tail.
        assert!(r.queue_p99_s > 0.0);
        assert!(r.queue_p50_s <= r.queue_p95_s && r.queue_p95_s <= r.queue_p99_s);
    }

    #[test]
    fn interactive_class_outruns_bulk_under_contention() {
        let mut svc = service(1);
        // A heavy bulk backlog, then an interactive re-dock arriving after
        // the backlog is queued.
        svc.submit(Campaign::library(3264, 16, jobs(24), Strategy::HomogeneousSplit));
        let h = svc.submit(
            Campaign::library(3264, 16, jobs(2), Strategy::HomogeneousSplit)
                .interactive()
                .at(1e-6)
                .seed(9),
        );
        let r = svc.drain();
        let stats = match svc.outcome(h) {
            JobOutcome::Completed(s) => s,
            o => panic!("interactive campaign should complete: {o:?}"),
        };
        // Weighted-fair drain must not make the re-dock wait for the whole
        // bulk sweep.
        assert!(
            stats.turnaround_s < r.makespan / 2.0,
            "interactive turnaround {} vs makespan {}",
            stats.turnaround_s,
            r.makespan
        );
        assert!(r.interactive_p99_s <= r.queue_p99_s);
    }

    #[test]
    fn duplicate_submission_served_from_cache() {
        let mut svc = service(2);
        let lib = jobs(10);
        svc.submit(Campaign::library(3264, 16, lib.clone(), Strategy::HomogeneousSplit).seed(7));
        let cold = svc.drain();
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.device_evals > 0);

        let h = svc.submit(Campaign::library(3264, 16, lib, Strategy::HomogeneousSplit).seed(7));
        let warm = svc.drain();
        assert_eq!(warm.cache_hits, 10, "every duplicate job must hit the cache");
        assert_eq!(warm.device_evals, 0, "cache hits run zero device evaluations");
        assert!(warm.makespan < cold.makespan / 100.0);
        match svc.outcome(h) {
            JobOutcome::Completed(s) => {
                assert_eq!(s.cache_hits, 10);
                assert_eq!(s.device_evals, 0);
            }
            o => panic!("duplicate campaign should complete: {o:?}"),
        }
    }

    #[test]
    fn changed_params_miss_the_cache_and_equal_ones_hit_it() {
        let mut svc = service(2);
        let params = metaheur::m3(1.0);
        let library = |params: &MetaheuristicParams| {
            let jobs = synthetic_library(24, params, 5);
            Campaign::library(3264, 16, jobs, Strategy::HomogeneousSplit).seed(11)
        };
        svc.submit(library(&params));
        assert_eq!(svc.drain().cache_hits, 0);
        // Name and evaluations per spot unchanged: only the moves differ.
        let moved = MetaheuristicParams {
            mutation_prob: params.mutation_prob / 2.0,
            max_shift: params.max_shift * 2.0,
            ..params.clone()
        };
        assert_eq!((&moved.name, moved.evals_per_spot()), (&params.name, params.evals_per_spot()));
        svc.submit(library(&moved));
        let r = svc.drain();
        assert_eq!(r.cache_hits, 0, "changed params are different work");
        assert!(r.device_evals > 0);
        svc.submit(library(&params.clone()));
        let r = svc.drain();
        assert_eq!(r.cache_hits, 24, "an equal resubmission is the same work");
        assert_eq!(r.device_evals, 0);
    }

    #[test]
    fn different_seed_misses_cache() {
        let mut svc = service(2);
        let lib = jobs(6);
        svc.submit(Campaign::library(3264, 16, lib.clone(), Strategy::HomogeneousSplit).seed(1));
        svc.drain();
        svc.submit(Campaign::library(3264, 16, lib, Strategy::HomogeneousSplit).seed(2));
        let r = svc.drain();
        assert_eq!(r.cache_hits, 0, "a different seed is different work");
        assert!(r.device_evals > 0);
    }

    #[test]
    fn node_join_mid_campaign_shortens_makespan() {
        let base = screen(1, 16);
        let mut svc = service(1);
        svc.scale(ScalePlan::new().join_at(base.makespan * 0.25, platform::hertz()));
        svc.submit(Campaign::library(3264, 16, jobs(16), Strategy::HomogeneousSplit));
        let r = svc.drain();
        assert_eq!(r.node_joins, 1);
        assert!(r.makespan < base.makespan, "{} vs {}", r.makespan, base.makespan);
        assert!(r.assignment.contains(&1), "joined node must take work");
    }

    #[test]
    fn node_leave_requeues_without_losing_jobs() {
        let base = screen(2, 16);
        let mut svc = service(2);
        svc.scale(ScalePlan::new().leave_at(base.makespan * 0.3, 1));
        svc.submit(Campaign::library(3264, 16, jobs(16), Strategy::HomogeneousSplit));
        let r = svc.drain();
        assert_eq!(r.node_leaves, 1);
        assert!(r.requeued_jobs > 0, "departing node must shed queued work");
        assert_eq!(r.completed_jobs, 16, "no job may be lost on node leave");
        // Everything after the leave lands on the survivor.
        assert!(r.makespan > base.makespan);
        assert!(r.wasted_s >= 0.0);
    }

    #[test]
    fn elastic_events_are_traced() {
        let trace = Trace::new();
        let base = screen(2, 12);
        let mut svc = service(2).traced(&trace);
        svc.scale(
            ScalePlan::new()
                .join_at(base.makespan * 0.2, platform::hertz())
                .leave_at(base.makespan * 0.4, 0),
        );
        svc.submit(Campaign::library(3264, 16, jobs(12), Strategy::HomogeneousSplit));
        svc.drain();
        let data = trace.snapshot();
        let kinds: Vec<&str> = data.payloads().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"JobAdmitted"));
        assert!(kinds.contains(&"NodeJoined"));
        assert!(kinds.contains(&"NodeLeft"));
    }

    #[test]
    fn virtual_clock_persists_across_drains() {
        let mut svc = service(1);
        svc.submit(Campaign::library(3264, 16, jobs(4), Strategy::HomogeneousSplit));
        let a = svc.drain();
        assert!(svc.now() > 0.0);
        svc.submit(Campaign::library(3264, 16, jobs(4), Strategy::HomogeneousSplit).seed(5));
        let b = svc.drain();
        assert!((svc.now() - (a.makespan + b.makespan)).abs() < 1e-9);
    }

    #[test]
    fn one_replay_per_spec_and_job_shape() {
        // `campaign_burst`'s traffic, join and leave at two smaller sizes.
        // Every campaign runs M1 on one receptor with 16 spots, so its job
        // shapes differ only in pairs; the fleet is one spec, Hertz.
        for (sweeps, jobs, bursts) in [(4, 40, 8), (8, 80, 16)] {
            let cfg = crate::TrafficConfig {
                horizon_s: 0.3,
                bulk_campaigns: sweeps,
                bulk_jobs: jobs,
                bursts,
                burst_size: 3,
                interactive_jobs: 2,
                duplicate_fraction: 0.25,
                scale: 1.0,
                ..Default::default()
            };
            let traffic = crate::bursty_traffic(&cfg, 2016);
            let mut shapes: Vec<u64> = Vec::new();
            for c in &traffic {
                let CampaignKind::Library { receptor_atoms, jobs, .. } = &c.kind else {
                    panic!("bursty traffic is library screens");
                };
                shapes.extend(jobs.iter().map(|j| j.pairs_per_eval(*receptor_atoms)));
            }
            shapes.sort_unstable();
            shapes.dedup();
            let capacity = 2 * (sweeps * jobs + bursts * 3 * 2);
            let mut svc = Service::new(
                SimCluster::uniform(4, NetModel::infiniband(), platform::hertz),
                ServiceConfig {
                    queue_capacity: capacity,
                    cache_capacity: capacity,
                    ..Default::default()
                },
            );
            svc.scale(ScalePlan::new().join_at(0.05, platform::hertz()).leave_at(0.18, 1));
            for c in traffic {
                svc.submit(c);
            }
            let r = svc.drain();
            assert_eq!(r.completed_jobs, r.total_jobs);
            assert!(r.cache_hits > 0 && r.requeued_jobs > 0, "hits and requeues both run");
            assert_eq!(
                svc.costs.replays,
                shapes.len() as u64,
                "{} jobs: one replay per distinct (spec, shape)",
                r.total_jobs
            );
        }
    }

    #[test]
    #[should_panic]
    fn zero_spots_panics() {
        let mut svc = service(1);
        svc.submit(Campaign::library(3264, 0, jobs(1), Strategy::HomogeneousSplit));
    }

    #[test]
    #[should_panic]
    fn scaling_to_zero_nodes_panics() {
        let mut svc = service(1);
        svc.scale(ScalePlan::new().leave_at(0.0, 0));
        svc.submit(Campaign::library(3264, 16, jobs(2), Strategy::HomogeneousSplit));
        svc.drain();
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut xs = [4.0, 2.0, 1.0, 3.0];
        assert_eq!(percentile(&mut xs, 50.0), 2.0);
        assert_eq!(percentile(&mut xs, 99.0), 4.0);
        assert_eq!(percentile(&mut xs, 1.0), 1.0);
        assert_eq!(percentile(&mut [], 99.0), 0.0);
    }

    // ---- fault-injected campaigns (ported from the old entry point) ----

    fn faulty_jobs() -> Vec<LigandJob> {
        synthetic_library(24, &metaheur::m1(0.3), 5)
    }

    fn run_faulty(campaign: Campaign) -> CampaignReport {
        let mut svc = service(3);
        svc.submit(campaign);
        svc.drain()
    }

    fn faulty(plan: &FaultPlan) -> Campaign {
        Campaign::faulty(3264, 16, faulty_jobs(), Strategy::HomogeneousSplit, plan.clone())
    }

    #[test]
    fn healthy_static_equals_dynamic() {
        let plan = FaultPlan::healthy(3);
        let d = run_faulty(faulty(&plan).dynamic(true));
        let s = run_faulty(faulty(&plan));
        assert!((d.makespan - s.makespan).abs() / d.makespan < 1e-9);
    }

    #[test]
    fn dynamic_absorbs_straggler() {
        let plan = FaultPlan::straggler(3, 1, 4.0);
        let dynamic = run_faulty(faulty(&plan).dynamic(true));
        let static_ = run_faulty(faulty(&plan));
        assert!(
            dynamic.makespan < static_.makespan / 1.5,
            "dynamic {} should absorb the 4x straggler vs static {}",
            dynamic.makespan,
            static_.makespan
        );
        // The degraded node got fewer jobs under dynamic scheduling.
        let count = |r: &CampaignReport| r.assignment.iter().filter(|&&n| n == 1).count();
        assert!(count(&dynamic) < count(&static_));
    }

    #[test]
    fn static_makespan_scales_with_straggler_factor() {
        let m = |f: f64| run_faulty(faulty(&FaultPlan::straggler(3, 0, f))).makespan;
        let healthy = m(1.0);
        let slow = m(3.0);
        assert!((slow / healthy - 3.0).abs() < 0.5, "static suffers ~3x: {}", slow / healthy);
    }

    #[test]
    fn dead_node_starved_by_dynamic() {
        let plan = FaultPlan::straggler(3, 2, 1e6);
        let r = run_faulty(faulty(&plan).dynamic(true));
        let to_dead = r.assignment.iter().filter(|&&n| n == 2).count();
        // LPT gives the dead node at most its first pick before its clock
        // explodes past everyone else.
        assert!(to_dead <= 1, "dead node got {to_dead} jobs");
        assert_eq!(r.completed_jobs, 24, "all jobs still complete under faults");
    }

    #[test]
    fn traced_straggler_emits_fault_and_migration_events() {
        let plan = FaultPlan::straggler(3, 1, 4.0);
        let trace = Trace::new();
        let mut svc = service(3).traced(&trace);
        svc.submit(faulty(&plan).dynamic(true));
        let traced = svc.drain();
        let data = trace.snapshot();
        let faults_seen: Vec<_> = data
            .payloads()
            .into_iter()
            .filter_map(|e| match e {
                Event::FaultInjected { node, slowdown } => Some((node, slowdown)),
                _ => None,
            })
            .collect();
        assert_eq!(faults_seen, vec![(1, 4.0)]);
        let migrations =
            data.payloads().into_iter().filter(|e| matches!(e, Event::JobMigrated { .. })).count();
        assert!(migrations > 0, "4x straggler under dynamic scheduling must move jobs");
        // Tracing must not perturb the schedule itself.
        let plain = run_faulty(faulty(&plan).dynamic(true));
        assert_eq!(traced.assignment, plain.assignment);
        assert_eq!(traced.makespan, plain.makespan);
    }

    #[test]
    fn untraced_run_emits_nothing() {
        let trace = Trace::disabled();
        let mut svc = service(3).traced(&trace);
        svc.submit(faulty(&FaultPlan::straggler(3, 1, 4.0)).dynamic(true));
        svc.drain();
        assert!(trace.snapshot().is_empty());
    }

    /// Intra-node fault-model campaigns: generations big enough (128 spots
    /// × population) that the degraded node's deques hold many
    /// occupancy-floor chunks — granularity for lane steals.
    fn intra(plan: &FaultPlan, strategy: Strategy) -> Campaign {
        Campaign::faulty(3264, 128, faulty_jobs(), strategy, plan.clone()).gpu_victim(1)
    }

    fn worksteal() -> Strategy {
        Strategy::WorkSteal { warmup: vsched::WarmupConfig::default(), divisor: 2 }
    }

    #[test]
    fn gpu_victim_worksteal_steals_inside_degraded_node() {
        let plan = FaultPlan::straggler(3, 1, 4.0);
        let trace = Trace::new();
        let mut svc = service(3).traced(&trace);
        // Static node assignment: every JobMigrated on the trace is an
        // *intra-node* device-lane steal, not a node-level migration.
        svc.submit(intra(&plan, worksteal()));
        svc.drain();
        let data = trace.snapshot();
        let steals =
            data.payloads().into_iter().filter(|e| matches!(e, Event::JobMigrated { .. })).count();
        assert!(steals > 0, "degraded lane must shed chunks to the healthy lanes");
    }

    #[test]
    fn gpu_victim_worksteal_beats_frozen_split() {
        // With the fault inside the node, the runtime's steals absorb what
        // the frozen Percent split cannot.
        let plan = FaultPlan::straggler(3, 1, 4.0);
        let frozen = run_faulty(intra(
            &plan,
            Strategy::HeterogeneousSplit { warmup: vsched::WarmupConfig::default() },
        ));
        let stealing = run_faulty(intra(&plan, worksteal()));
        assert!(
            stealing.makespan < frozen.makespan,
            "steals must absorb the lane fault: {} vs {}",
            stealing.makespan,
            frozen.makespan
        );
    }

    #[test]
    fn gpu_victim_healthy_matches_node_level_model() {
        // With every factor 1.0 the two fault models agree: no lane is
        // degraded, so the intra-node replay reduces to the nominal one.
        let plan = FaultPlan::healthy(3);
        let node_level = run_faulty(faulty(&plan));
        let intra_r = run_faulty(faulty(&plan).gpu_victim(1));
        assert!((node_level.makespan - intra_r.makespan).abs() < 1e-12 * node_level.makespan);
        assert_eq!(node_level.assignment, intra_r.assignment);
    }

    #[test]
    fn leave_unpins_jobs_planned_onto_the_leaving_node() {
        // A static plan pins every job up front; the jobs planned onto a
        // node that leaves before running them must run elsewhere.
        let plan = FaultPlan::healthy(3);
        let base = run_faulty(faulty(&plan));
        let mut svc = service(3);
        svc.scale(ScalePlan::new().leave_at(base.makespan * 0.3, 0));
        let h = svc.submit(faulty(&plan));
        let r = svc.drain();
        assert_eq!(r.completed_jobs, 24, "no pinned job may be stranded");
        match svc.outcome(h) {
            JobOutcome::Completed(s) => assert_eq!(s.completed, s.jobs),
            o => panic!("static campaign should complete: {o:?}"),
        }
    }

    #[test]
    #[should_panic]
    fn gpu_victim_out_of_range_panics() {
        let mut svc = service(3);
        svc.submit(faulty(&FaultPlan::healthy(3)).gpu_victim(9));
    }

    #[test]
    #[should_panic]
    fn gpu_victim_infinite_factor_panics() {
        let mut svc = service(3);
        let plan = FaultPlan { slowdowns: vec![1.0, f64::INFINITY, 1.0] };
        svc.submit(faulty(&plan).gpu_victim(0));
    }

    #[test]
    #[should_panic]
    fn plan_size_mismatch_panics() {
        let mut svc = service(3);
        svc.submit(faulty(&FaultPlan::healthy(2)).dynamic(true));
    }

    // ---- cross-docking campaigns (ported from the old entry point) ----

    fn targets() -> Vec<ReceptorTarget> {
        vec![
            ReceptorTarget { name: "target".into(), atoms: 3264, n_spots: 16 },
            ReceptorTarget { name: "off-target".into(), atoms: 8609, n_spots: 24 },
        ]
    }

    #[test]
    fn full_matrix_is_assigned() {
        let mut svc = service(3);
        let ligands = synthetic_library(6, &metaheur::m1(0.2), 2);
        svc.submit(Campaign::cross_dock(targets(), ligands, Strategy::HomogeneousSplit));
        let r = svc.drain();
        assert_eq!(r.total_jobs, 12);
        assert_eq!(r.completed_jobs, 12);
        assert!(r.assignment.iter().all(|&n| n < 3));
    }

    #[test]
    fn more_nodes_shorten_cross_docking() {
        let run = |n: usize| {
            let mut svc = service(n);
            let ligands = synthetic_library(8, &metaheur::m1(0.2), 3);
            svc.submit(Campaign::cross_dock(targets(), ligands, Strategy::HomogeneousSplit));
            svc.drain().makespan
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(t4 < t1 / 2.5, "{t4} vs {t1}");
    }

    #[test]
    fn cross_dock_receptors_never_alias_in_cache() {
        // The same ligand against two receptors is two distinct results;
        // resubmitting against only one target must hit only that half.
        let ligands = synthetic_library(4, &metaheur::m1(0.2), 5);
        let mut svc = service(2);
        svc.submit(
            Campaign::cross_dock(targets(), ligands.clone(), Strategy::HomogeneousSplit).seed(3),
        );
        svc.drain();
        let one_target = vec![targets().remove(0)];
        svc.submit(Campaign::cross_dock(one_target, ligands, Strategy::HomogeneousSplit).seed(3));
        let r = svc.drain();
        assert_eq!(r.cache_hits, 4, "the shared target's results must be reused");
        assert_eq!(r.device_evals, 0);
    }

    #[test]
    #[should_panic]
    fn empty_receptors_panic() {
        let mut svc = service(1);
        let ligands = synthetic_library(1, &metaheur::m1(0.1), 1);
        svc.submit(Campaign::cross_dock(vec![], ligands, Strategy::HomogeneousSplit));
    }

    // ---- learned-oracle campaigns (cross-tenant warm sharing) ----

    fn oracle() -> Strategy {
        // m1(0.2) expands to ~7 batches per job; warm-up must finish
        // inside one replay for the first job to install the prior.
        let warmup = vsched::WarmupConfig { iterations: 2, items_per_iteration: 64 };
        Strategy::Oracle { warmup, divisor: 2 }
    }

    /// A second tenant with ligands the results cache has never seen, so
    /// its jobs really execute (the only reuse channel is the oracle).
    fn tenant2() -> Campaign {
        Campaign::library(3264, 16, synthetic_library(8, &metaheur::m1(0.2), 7), oracle())
    }

    #[test]
    fn oracle_campaigns_are_deterministic() {
        let run = || {
            let mut svc = service(2);
            svc.submit(Campaign::library(3264, 16, jobs(8), oracle()));
            let first = svc.drain();
            svc.submit(tenant2());
            (first, svc.drain())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "shared-oracle drains must stay bit-identical per submission order");
    }

    #[test]
    fn second_tenant_starts_warm_from_shared_oracle() {
        // Cold: tenant 2 alone pays the equal-split warm-up on Hertz's
        // strongly heterogeneous lanes for every job.
        let mut cold_svc = service(1);
        cold_svc.submit(tenant2());
        let cold = cold_svc.drain().makespan;
        // Warm: tenant 1 trains node 0's shared oracle first, so tenant
        // 2's replays skip warm-up and seed the learned split directly.
        let mut warm_svc = service(1);
        warm_svc.submit(Campaign::library(3264, 16, jobs(8), oracle()));
        warm_svc.drain();
        let before: u64 = warm_svc
            .node_oracle(0)
            .expect("tenant 1 must have instantiated the node oracle")
            .fits()
            .iter()
            .map(|(_, f)| f.observations)
            .sum();
        assert!(before > 0, "tenant 1 must leave fitted observations behind");
        warm_svc.submit(tenant2());
        let warm = warm_svc.drain().makespan;
        let after: u64 =
            warm_svc.node_oracle(0).unwrap().fits().iter().map(|(_, f)| f.observations).sum();
        assert!(after > before, "tenant 2 must keep feeding the shared model");
        assert!(warm < cold, "warm-started tenant must beat the cold one: {warm} vs {cold}");
    }
}
