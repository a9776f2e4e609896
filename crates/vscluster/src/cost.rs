//! The campaign service's cost model: a per-ligand job's virtual compute
//! time is the replay of its batch trace on one node's devices.
//!
//! [`Costs::cost`] is the one entry point and holds the one replay. A cost
//! depends on the node's devices and the job's inputs, not on which fleet
//! slot the node fills, so replays are memoized per distinct node spec: a
//! replay resets its devices first, and equal specs replay equally.

use crate::admission::WordHasher;
use gpusim::{CostModel, DeviceSpec, SimNode, WorkProfile};
use metaheur::MetaheuristicParams;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use vsched::{schedule_trace_with, CostOracle, ReplayOptions, Strategy};
use vscreen::trace::synthetic_trace;
use vstrace::Trace;

/// What a job's cost depends on, besides the node: its `(params,
/// strategy)` shape, the spots its search covers and the pair
/// interactions of one conformation evaluation. Interned by
/// [`Costs::job`]; the id indexes the cost table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct JobShape {
    /// Id of the job's `(params, strategy)` pair ([`Costs::shape`]).
    pub shape: u32,
    pub n_spots: usize,
    /// Receptor atoms × ligand atoms.
    pub pairs: u64,
    /// Conformation evaluations the job runs: the params' evaluations
    /// per spot × `n_spots`, so equal for equal `(shape, n_spots)`.
    pub items: u64,
}

/// What a cost is asked for.
pub(crate) enum Run<'a> {
    /// A healthy, untraced estimate (the static plan, the single-node
    /// baseline). A learned strategy plans on a copy of the node's oracle,
    /// so planning never moves its fits.
    Plan,
    /// An actual run under the campaign's fault context: the node runs
    /// `factor` slower, in GPU lane `victim` only when one is named. A
    /// learned strategy feeds the node's oracle. Learned runs and
    /// lane-fault runs emit their events into `trace`.
    Execute { factor: f64, victim: Option<usize>, trace: &'a Trace },
}

/// The shapes, node specs, cost table and learned oracles every cost is
/// computed from.
#[derive(Default)]
pub(crate) struct Costs {
    /// Shape ids by the fingerprints of their `(params, strategy)`.
    shape_ids: BTreeMap<(u64, u64), u32>,
    shapes: Vec<(MetaheuristicParams, Strategy)>,
    /// Interned job shapes; a job id indexes it.
    jobs: Vec<JobShape>,
    /// Job ids by shape, probed once per expanded job.
    job_ids: HashMap<JobShape, u32, BuildHasherDefault<WordHasher>>,
    /// One node of each distinct spec, to replay on; a spec id indexes it.
    specs: Vec<SimNode>,
    /// Spec id of each fleet node, by node id.
    spec_of_node: Vec<u32>,
    /// `healthy[spec][job]`: the job's cost on the spec with no fault and
    /// no learned fits — a fixed strategy's healthy replay, a learned one
    /// planned on a fresh oracle. Rows grow as jobs are first costed.
    healthy: Vec<Vec<Option<f64>>>,
    /// `(spec, job, factor bits, victim)` → an untraced lane-fault replay.
    lanes: BTreeMap<(u32, u32, u64, usize), f64>,
    /// One learned oracle per node, lent to every `Strategy::Oracle` run
    /// there: tenant N+1 starts warm from tenant N's fits. Fits consume
    /// only virtual-time measurements, so drains stay bit-identical per
    /// submission order.
    oracles: BTreeMap<usize, CostOracle>,
    /// Replays run so far.
    #[cfg(test)]
    pub replays: u64,
}

impl Costs {
    /// Register the next fleet node (node ids count up from 0).
    pub fn add_node(&mut self, node: &SimNode) {
        // Two nodes share a spec when their devices' ids, specs and cost
        // models are equal in order. `PartialEq` merges float fields that
        // differ only in the sign of a zero; a replay tells those apart
        // only through a zero clock or bandwidth, which no device has.
        fn devices(n: &SimNode) -> impl Iterator<Item = (usize, &DeviceSpec, &CostModel)> {
            std::iter::once(n.cpu()).chain(n.gpus()).map(|d| (d.id(), d.spec(), d.model()))
        }
        let id = match self.specs.iter().position(|s| devices(s).eq(devices(node))) {
            Some(id) => id,
            None => {
                self.specs.push(node.clone());
                self.specs.len() - 1
            }
        };
        self.spec_of_node.push(id as u32);
    }

    /// Intern a job's `(params, strategy)` pair by their fingerprints
    /// ([`MetaheuristicParams::fingerprint`], [`Strategy::fingerprint`]):
    /// pairs equal under `PartialEq`, so up to the sign of a zero, share
    /// an id.
    pub fn shape(&mut self, params: &MetaheuristicParams, strategy: Strategy) -> u32 {
        let next = self.shapes.len() as u32;
        let key = (params.fingerprint(), strategy.fingerprint());
        let id = *self.shape_ids.entry(key).or_insert(next);
        if id == next {
            self.shapes.push((params.clone(), strategy));
        }
        id
    }

    /// Intern a job shape; the id is what [`Costs::cost`] takes.
    pub fn job(&mut self, shape: JobShape) -> u32 {
        let next = self.jobs.len() as u32;
        let id = *self.job_ids.entry(shape).or_insert(next);
        if id == next {
            self.jobs.push(shape);
        }
        id
    }

    /// The shape of job `id`.
    pub fn job_shape(&self, id: u32) -> &JobShape {
        &self.jobs[id as usize]
    }

    /// Node `ni`'s learned oracle, once a learned run has executed there.
    pub fn oracle(&self, ni: usize) -> Option<&CostOracle> {
        self.oracles.get(&ni)
    }

    /// Virtual compute time of job `job` on node `node`, or on the
    /// single-node baseline (node 0's spec, planned on a fresh oracle) for
    /// `None`.
    ///
    /// What depends only on the spec and the job is replayed once and kept
    /// in the cost table: a fixed strategy's healthy cost, which a uniform
    /// node fault scales, and a learned strategy planned on a fresh
    /// oracle. A lane fault is replayed and kept unless its events are
    /// traced. A learned strategy's cost on a node's own fits depends on
    /// them, so it is replayed every time.
    pub fn cost(&mut self, node: Option<usize>, job: u32, run: Run<'_>) -> f64 {
        let shape = self.jobs[job as usize];
        let (params, strategy) = &self.shapes[shape.shape as usize];
        let learns = strategy.learns();
        let (factor, victim, trace) = match run {
            Run::Plan => (1.0, None, None),
            Run::Execute { factor, victim, trace } => {
                (factor, victim.filter(|_| factor != 1.0), Some(trace))
            }
        };
        // A fixed strategy's node-level fault scales its healthy cost;
        // every other fault is replayed, and those runs emit events.
        let (scale, factor) =
            if learns || victim.is_some() { (1.0, factor) } else { (factor, 1.0) };
        let events = match trace {
            Some(t) if learns || victim.is_some() => t.clone(),
            _ => Trace::disabled(),
        };
        let spec = self.spec_of_node[node.unwrap_or(0)];
        let (s, j) = (spec as usize, job as usize);
        let healthy = if learns {
            trace.is_none() && node.is_none_or(|ni| !self.oracles.contains_key(&ni))
        } else {
            victim.is_none()
        };
        let lane = victim
            .filter(|_| !learns && !events.is_enabled())
            .map(|g| (spec, job, factor.to_bits(), g));
        if healthy {
            if let Some(c) = self.healthy.get(s).and_then(|row| row.get(j)).copied().flatten() {
                return c * scale;
            }
        } else if let Some(c) = lane.and_then(|key| self.lanes.get(&key)) {
            return c * scale;
        }

        let spec_node = &self.specs[s];
        let n_gpus = spec_node.gpus().len();
        // A degraded GPU keeps its nominal speed through the warm-up (its
        // Eq. 1 weight or oracle prior is measured healthy) and slows at
        // its end; a learned run's uniform fault slows every GPU from the
        // first batch.
        let phases: Vec<(usize, Vec<f64>)> = match victim {
            _ if factor == 1.0 => Vec::new(),
            None => vec![(0, vec![factor; n_gpus])],
            Some(g) => {
                let mut slowdowns = vec![1.0; n_gpus];
                slowdowns[g] = factor;
                vec![(strategy.warmup().map_or(0, |w| w.batches()), slowdowns)]
            }
        };
        let mut copy;
        let oracle = match (learns, node, run) {
            (false, ..) => None,
            (true, Some(ni), Run::Execute { .. }) => {
                Some(self.oracles.entry(ni).or_insert_with(|| CostOracle::new(n_gpus)))
            }
            (true, Some(ni), Run::Plan) => {
                copy = self.oracles.get(&ni).cloned().unwrap_or_else(|| CostOracle::new(n_gpus));
                Some(&mut copy)
            }
            (true, None, _) => {
                copy = CostOracle::new(n_gpus);
                Some(&mut copy)
            }
        };
        let c = schedule_trace_with(
            spec_node.cpu(),
            spec_node.gpus(),
            &synthetic_trace(params, shape.n_spots),
            WorkProfile::pairs(shape.pairs),
            *strategy,
            ReplayOptions { phases: &phases, events, oracle, timeline: None },
        )
        .makespan;
        #[cfg(test)]
        {
            self.replays += 1;
        }
        if healthy {
            if self.healthy.len() <= s {
                self.healthy.resize_with(s + 1, Vec::new);
            }
            let row = &mut self.healthy[s];
            if row.len() <= j {
                row.resize(j + 1, None);
            }
            row[j] = Some(c);
        } else if let Some(key) = lane {
            self.lanes.insert(key, c);
        }
        c * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsched::WarmupConfig;
    use vscreen::platform;

    /// A cost model over `nodes`, and one job under `strategy`.
    fn costs(nodes: &[SimNode], strategy: Strategy) -> (Costs, u32) {
        let mut costs = Costs::default();
        for n in nodes {
            costs.add_node(n);
        }
        let params = metaheur::m1(0.2);
        let shape = costs.shape(&params, strategy);
        let items = params.evals_per_spot() * 16;
        let job = costs.job(JobShape { shape, n_spots: 16, pairs: 45 * 3264, items });
        (costs, job)
    }

    /// Costs kept: cost-table entries and lane-fault entries.
    fn memoized(c: &Costs) -> usize {
        c.healthy.iter().flatten().filter(|e| e.is_some()).count() + c.lanes.len()
    }

    fn warmup() -> WarmupConfig {
        // Ends inside one job's replay, so a learned run installs a prior.
        WarmupConfig { iterations: 2, items_per_iteration: 64 }
    }

    #[test]
    fn shapes_share_an_id_exactly_when_params_and_strategy_are_equal() {
        // Few values per field, zeros of both signs among them, so equal
        // and nearly equal pairs are both common.
        let mut rng = vsmath::RngStream::derive(2016, 13);
        let strategies = [
            Strategy::HomogeneousSplit,
            Strategy::DynamicQueue { chunk: 32 },
            Strategy::WorkSteal { warmup: warmup(), divisor: 2 },
            Strategy::Oracle { warmup: warmup(), divisor: 2 },
        ];
        let real = [0.0, -0.0, 0.25];
        let mut c = Costs::default();
        let mut seen: Vec<(MetaheuristicParams, Strategy, u32)> = Vec::new();
        for _ in 0..300 {
            let params = MetaheuristicParams {
                population_per_spot: [32, 33][rng.index(2)],
                mutation_prob: real[rng.index(3)],
                max_shift: real[rng.index(3)],
                improve_fraction: real[rng.index(3)],
                ..metaheur::m1(0.2)
            };
            let strategy = strategies[rng.index(strategies.len())];
            let id = c.shape(&params, strategy);
            seen.push((params, strategy, id));
        }
        let mut signed_zero_merges = 0;
        for (i, (p, s, id)) in seen.iter().enumerate() {
            assert_eq!(c.shapes[*id as usize], (p.clone(), *s), "an id holds its pair");
            for (q, t, other) in &seen[i + 1..] {
                let equal = p == q && s == t;
                assert_eq!(id == other, equal, "{p:?} {s:?} vs {q:?} {t:?}");
                let bits = |p: &MetaheuristicParams| p.mutation_prob.to_bits();
                signed_zero_merges += usize::from(equal && bits(p) != bits(q));
            }
        }
        assert!(signed_zero_merges > 0, "-0.0 and +0.0 must meet and merge");
    }

    #[test]
    fn oracle_planning_peek_does_not_mutate_shared_fits() {
        // The static plan peeks at node 0 on a copy of its oracle and the
        // single-node baseline on a fresh one; only actual runs train.
        let oracle = Strategy::Oracle { warmup: warmup(), divisor: 2 };
        let (mut c, job) = costs(&[platform::hertz()], oracle);
        let trace = Trace::disabled();
        c.cost(Some(0), job, Run::Execute { factor: 1.0, victim: None, trace: &trace });
        let trained = c.oracle(0).expect("an actual run instantiates the node oracle").fits();
        assert!(trained.iter().any(|(_, f)| f.observations > 0));
        c.cost(Some(0), job, Run::Plan);
        c.cost(None, job, Run::Plan);
        assert_eq!(c.oracle(0).unwrap().fits(), trained, "planning must never ingest");
        // Only the baseline, on a fresh oracle, is kept: runs and peeks on
        // the node's fits depend on them.
        assert_eq!(memoized(&c), 1);
        assert_eq!(c.replays, 3);
    }

    #[test]
    fn learned_baseline_replays_once_per_spec_and_shape() {
        // However many jobs commit, the baseline of each (spec, shape) is
        // one replay on a fresh oracle; runs on the node's fits replay.
        let oracle = Strategy::Oracle { warmup: warmup(), divisor: 2 };
        let (mut c, job) = costs(&[platform::hertz(), platform::jupiter()], oracle);
        let params = metaheur::m1(0.2);
        let shape = c.shape(&params, oracle);
        let items = params.evals_per_spot() * 16;
        let other = c.job(JobShape { shape, n_spots: 16, pairs: 30 * 3264, items });
        let trace = Trace::disabled();
        let baseline = c.cost(None, job, Run::Plan);
        let mut executed = 0;
        for _ in 0..5 {
            for (ni, j) in [(0, job), (1, job), (1, other)] {
                c.cost(Some(ni), j, Run::Execute { factor: 1.0, victim: None, trace: &trace });
                executed += 1;
                assert_eq!(c.cost(None, job, Run::Plan), baseline, "a fresh oracle is one input");
                c.cost(None, other, Run::Plan);
            }
        }
        assert_eq!(c.replays, executed + 2, "one baseline replay per shape on node 0's spec");
        assert_eq!(memoized(&c), 2);
    }

    #[test]
    fn nodes_of_one_spec_share_one_memo_entry() {
        let nodes = [platform::hertz(), platform::jupiter(), platform::hertz()];
        let (mut c, job) = costs(&nodes, Strategy::HomogeneousSplit);
        let hertz = c.cost(Some(0), job, Run::Plan);
        assert_eq!(c.cost(Some(2), job, Run::Plan), hertz);
        assert_eq!(c.cost(None, job, Run::Plan), hertz, "the baseline is node 0's spec");
        assert_eq!(memoized(&c), 1);
        let jupiter = c.cost(Some(1), job, Run::Plan);
        assert_ne!(jupiter, hertz);
        assert_eq!(memoized(&c), 2, "Jupiter is a spec of its own");
    }

    #[test]
    fn traced_lane_fault_replays_every_call_and_untraced_is_memoized() {
        let steal = Strategy::WorkSteal { warmup: warmup(), divisor: 2 };
        let (mut c, job) = costs(&[platform::hertz()], steal);
        let trace = Trace::new();
        let lane = |trace| Run::Execute { factor: 4.0, victim: Some(1), trace };
        let first = c.cost(Some(0), job, lane(&trace));
        let events = trace.snapshot().payloads().len();
        assert!(events > 0, "a traced lane-fault run emits its events");
        assert_eq!(c.cost(Some(0), job, lane(&trace)), first);
        assert_eq!(trace.snapshot().payloads().len(), 2 * events, "replayed, not memoized");
        assert_eq!(memoized(&c), 0);

        let silent = Trace::disabled();
        assert_eq!(c.cost(Some(0), job, lane(&silent)), first, "tracing moves no cost");
        assert_eq!(memoized(&c), 1);
        assert_eq!(c.cost(Some(0), job, lane(&silent)), first);
        assert_eq!(memoized(&c), 1, "an untraced lane-fault run is memoized");
        assert!(c.cost(Some(0), job, Run::Plan) < first, "the fault costs time");
    }
}
