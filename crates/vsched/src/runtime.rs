//! The node runtime: what every execution path on a node — static Percent
//! splits, warm-up batches, self-scheduled chunks and the work-stealing
//! mode — shares below the strategy interpreter: the claim type, the
//! charge to a device clock, the release of a streamed batch and the
//! work-stealing drain.
//!
//! # Architecture
//!
//! A node separates *scheduling* (which device claims which chunk, decided
//! in virtual time) from *scoring* (the real numeric computation):
//!
//! 1. **Claiming** runs on the submitting thread, in
//!    [`crate::policy::Policy::plan`]: it resolves the strategy into
//!    [`Claim`]s and charges each one to the claiming device's clock as it
//!    is made. For the work-stealing modes the claims come from
//!    [`drain_deques`]: [`seed_deques`] gives each device a contiguous
//!    index range (its *deque*) proportional to the Equation 1 warm-up
//!    weights; the drain loop then repeatedly lets the device with the
//!    *smallest virtual clock* claim next (ties broken by device index): it
//!    pops a guided-size chunk from the front of its own range
//!    (`remaining / divisor`, floor-clamped — see [`StealConfig`]), or, if
//!    its range is empty, steals half the tail of the most-loaded victim's
//!    range, emitting a [`vstrace::Event::JobMigrated`] per steal. So the
//!    entire claim order is a deterministic function of (batch, weights,
//!    cost model, active slowdowns).
//! 2. **Scoring** runs on the workspace's one host worker team,
//!    `vsscore`'s shared persistent pool, and never sees a claim: the whole
//!    batch is scored, whoever was charged for which part of it. The
//!    engine scores each spot's share of a submission inside its one host
//!    job per step ([`metaheur::HostScorer`]); a plain
//!    `DeviceEvaluator::evaluate` scores the batch as one
//!    [`vsscore::Exec::Pool`] job. Each conformation is scored alone by the
//!    serial kernel, so results are bit-identical to the serial path no
//!    matter which device claimed what or which host thread computed it.
//!
//! # Host threads are not devices
//!
//! A simulated device is a clock and a cost model; the scores are computed
//! for real on host threads, and nothing observable depends on which. So
//! the team's size follows from the host, not from the simulated node. The
//! engine's host job runs on `vsscore::host_threads()` threads, as its
//! variation did before scoring joined it; `evaluate` alone keeps
//! `min(devices, host threads)` (the paper's one-host-thread-per-GPU
//! structure as its ceiling). Either way the submitting thread is one of
//! them, and nobody is handed a share of a batch: the threads claim its
//! chunks as they get to them. Equation 1's 58 : 42 split describes the
//! simulated GPUs and would only unbalance identical host cores.
//!
//! Claiming is the submitting thread's alone, so a deque is a plain
//! `Range<u32>`: the owner advances its `start`, a thief retreats its
//! `end`. One thread making every claim in virtual-time order is what
//! makes makespans and traces exactly reproducible (DESIGN.md §10
//! determinism contract). The host threads meet only in the pool, whose
//! claim/park protocol is model-checked where it lives, in
//! `vsscore::pool`.

use crate::partition::proportional_split;
use gpusim::{KernelClass, SimDevice, Timeline, WorkProfile};
use std::ops::Range;
use std::sync::Arc;
use vsscore::Scorer;
use vstrace::{Event, Trace};

/// Chunk-sizing knobs for the work-stealing drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealConfig {
    /// Guided self-scheduling divisor: an owner's claim takes
    /// `remaining_own / divisor` items (clamped below by the floor).
    pub divisor: u64,
    /// Lower bound on chunk size. `0` (the default) selects each device's
    /// occupancy floor — [`gpusim::DeviceSpec::saturation_items`] — so no
    /// claim launches a machine-starving kernel. When the remaining deque
    /// is shorter than twice the floor the claim takes everything,
    /// avoiding a sub-saturated tail launch.
    pub min_chunk: u32,
}

impl Default for StealConfig {
    fn default() -> StealConfig {
        StealConfig { divisor: 2, min_chunk: 0 }
    }
}

/// What the drain did, for tests, benches and the `runtime_steal` example.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Total chunks claimed (own pops + steals).
    pub chunks: u64,
    /// Chunks claimed from another device's deque.
    pub steals: u64,
    /// Items moved by those steals.
    pub stolen_items: u64,
}

impl StealStats {
    pub fn merge(&mut self, other: StealStats) {
        self.chunks += other.chunks;
        self.steals += other.steals;
        self.stolen_items += other.stolen_items;
    }
}

/// One resolved claim of a plan: `device` is charged for `[lo, hi)`;
/// `stolen_from` names the victim deque when the claim was a steal.
/// `device` is who was *charged* in virtual time, not who computes: the
/// range is scored on whichever host threads the pool gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    pub device: usize,
    pub lo: u32,
    pub hi: u32,
    pub stolen_from: Option<usize>,
}

impl Claim {
    pub fn items(&self) -> u64 {
        u64::from(self.hi - self.lo)
    }
}

/// The chunk an owner claims from its own deque: guided self-scheduling
/// (`len / divisor`), clamped below by `floor`, merging short tails
/// (`len < 2 × floor`) into one claim so the last launch still saturates
/// the device.
fn chunk_size(len: u32, divisor: u64, floor: u32) -> u32 {
    debug_assert!(len > 0);
    if len < floor.saturating_mul(2) {
        len
    } else {
        let guided = (u64::from(len) / divisor.max(1)) as u32;
        guided.max(floor).min(len)
    }
}

fn floor_for(dev: &SimDevice, cfg: &StealConfig) -> u32 {
    let floor =
        if cfg.min_chunk == 0 { dev.spec().saturation_items() } else { u64::from(cfg.min_chunk) };
    floor.clamp(1, u64::from(u32::MAX)) as u32
}

/// The cost-model regime a scorer's kernel runs in: dense kernels sweep
/// ligand × receptor *pairs*, [`vsscore::Kernel::Grid`] interpolates per
/// *ligand atom*, and [`vsscore::Kernel::CellList`] visits only the
/// *shell pairs* inside its cutoff. The scheduler must price batches in
/// the kernel's own unit — charging a grid job by pair count would
/// mispredict it by orders of magnitude and wreck the Eq. 1 splits.
pub fn work_profile(scorer: &Scorer) -> WorkProfile {
    let class = match scorer.options().kernel {
        vsscore::Kernel::Grid { .. } => KernelClass::GridInterp,
        vsscore::Kernel::CellList { .. } => KernelClass::ShellPairs,
        _ => KernelClass::PairSweep,
    };
    WorkProfile::new(scorer.work_units_per_eval(), class)
}

/// The device that is free first: smallest virtual clock, ties to the
/// lowest index.
pub(crate) fn earliest(devices: &[Arc<SimDevice>]) -> usize {
    let mut who = 0usize;
    let mut best = f64::INFINITY;
    for (i, d) in devices.iter().enumerate() {
        let c = d.clock();
        if c < best {
            best = c;
            who = i;
        }
    }
    who
}

/// Charge one claimed chunk to `dev`'s virtual clock (through the
/// timeline when one is attached, so Gantt segments are recorded) and
/// emit the `DeviceBusy` trace event when tracing without a timeline —
/// an attached *traced* timeline emits `DeviceBusy` itself.
pub(crate) fn charge(
    dev: &SimDevice,
    items: u64,
    profile: WorkProfile,
    timeline: Option<&Timeline>,
    trace: &Trace,
) {
    let batch = profile.batch(items);
    match timeline {
        Some(tl) => {
            tl.record(dev, &batch);
        }
        None if trace.is_enabled() => {
            let vt_start = dev.clock();
            dev.execute(&batch);
            let (kernel_s, transfer_s) = dev.time_breakdown(&batch);
            trace.emit(Event::DeviceBusy {
                device: dev.id() as u32,
                vt_start,
                vt_end: dev.clock(),
                kernel_s,
                transfer_s,
                items,
            });
        }
        None => {
            dev.execute(&batch);
        }
    }
}

/// Contiguous per-device deques proportional to `weights`, tiling
/// `[0, items)` in device order — the work-stealing modes' per-batch
/// seeding step.
pub fn seed_deques(items: u64, weights: &[f64]) -> Vec<Range<u32>> {
    let mut offset = 0u32;
    proportional_split(items, weights)
        .iter()
        .map(|&share| {
            let lo = offset;
            offset += share as u32;
            lo..offset
        })
        .collect()
}

/// Drain seeded per-device deques in virtual-time order, charging every
/// claim to the claiming device's clock as it happens — the claim source
/// of the work-stealing modes of [`crate::policy::Policy::plan`]. Every
/// deque is empty on return, and the claims tile what they held.
///
/// # Panics
/// Panics if `devices` and `deques` lengths differ or are empty.
pub fn drain_deques(
    devices: &[Arc<SimDevice>],
    deques: &mut [Range<u32>],
    cfg: &StealConfig,
    profile: WorkProfile,
    timeline: Option<&Timeline>,
    trace: &Trace,
) -> (Vec<Claim>, StealStats) {
    assert_eq!(devices.len(), deques.len(), "one deque per device");
    assert!(!devices.is_empty(), "drain needs devices");
    let mut claims = Vec::new();
    let mut stats = StealStats::default();
    while deques.iter().any(|q| !q.is_empty()) {
        // Devices with empty deques stay eligible — they steal.
        let who = earliest(devices);
        let floor = floor_for(&devices[who], cfg);
        let claim = if !deques[who].is_empty() {
            // Owner end: a guided-size chunk from the front.
            let own = &mut deques[who];
            let lo = own.start;
            own.start += chunk_size(own.end - own.start, cfg.divisor, floor);
            Claim { device: who, lo, hi: own.start, stolen_from: None }
        } else {
            // Thief end: half the tail of the most-loaded victim, ties to
            // the lowest index. `who` holds nothing and some deque does, so
            // the victim is another device.
            let victim =
                (0..deques.len())
                    .fold(who, |v, i| if deques[i].len() > deques[v].len() { i } else { v });
            let tail = &mut deques[victim];
            let hi = tail.end;
            tail.end -= chunk_size(tail.end - tail.start, 2, floor);
            Claim { device: who, lo: tail.end, hi, stolen_from: Some(victim) }
        };
        let items = claim.items();
        stats.chunks += 1;
        if let Some(victim) = claim.stolen_from {
            stats.steals += 1;
            stats.stolen_items += items;
            if trace.is_enabled() {
                trace.emit(Event::JobMigrated {
                    job: (stats.chunks - 1) as u32,
                    from_node: devices[victim].id() as u32,
                    to_node: devices[claim.device].id() as u32,
                });
            }
        }
        charge(&devices[claim.device], items, profile, timeline, trace);
        claims.push(claim);
    }
    (claims, stats)
}

/// The overall virtual execution time so far (slowest device).
pub(crate) fn makespan(devices: &[Arc<SimDevice>]) -> f64 {
    devices.iter().map(|d| d.clock()).fold(0.0, f64::max)
}

/// Advance every device clock to at least `vt`, emitting a `DeviceIdle`
/// span for each device that was waiting. This is how a streamed batch's
/// host-side release time (the generational engine's variation/selection
/// work) charges the devices: a batch submitted at `vt` cannot start
/// before `vt`, and any gap since the device's last work is genuine
/// idleness the pipelined engine exists to remove.
pub(crate) fn release_until(devices: &[Arc<SimDevice>], trace: &Trace, vt: f64) {
    for dev in devices {
        let clock = dev.clock();
        if clock < vt {
            trace.emit(Event::DeviceIdle { device: dev.id() as u32, vt_start: clock, vt_end: vt });
            dev.sync_to(vt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::catalog;
    use vsmath::{RigidTransform, RngStream};
    use vsmol::{synth, Conformation};
    use vsscore::{Exec, PoseScratch, ScoreBatch};

    fn scorer() -> Arc<Scorer> {
        let rec = synth::synth_receptor("r", 400, 1);
        let lig = synth::synth_ligand("l", 12, 2);
        Arc::new(Scorer::new(&rec, &lig, Default::default()))
    }

    fn hertz_devices() -> Vec<Arc<SimDevice>> {
        vec![
            Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
            Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
        ]
    }

    fn confs(n: usize, seed: u64) -> Vec<Conformation> {
        let mut rng = RngStream::from_seed(seed);
        (0..n)
            .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(25.0)), 0))
            .collect()
    }

    /// Score a planned batch as a node does: its claims must tile it, and
    /// they never reach the scorer — the batch is one pool job on two host
    /// threads, whoever was charged for which part.
    fn score(sc: &Scorer, confs: &mut [Conformation], claims: &[Claim]) {
        let mut ranges: Vec<(u32, u32)> = claims.iter().map(|c| (c.lo, c.hi)).collect();
        ranges.sort_unstable();
        let end = ranges.iter().fold(0, |end, &(lo, hi)| {
            assert_eq!(lo, end, "claims must tile the batch: {claims:?}");
            hi
        });
        assert_eq!(end as usize, confs.len(), "claims must tile the batch: {claims:?}");
        sc.score_batch(ScoreBatch::Confs(confs), &mut PoseScratch::new(), Exec::Pool(2));
    }

    /// Seed deques by `weights`, drain them, and score the claims.
    fn steal(
        devices: &[Arc<SimDevice>],
        sc: &Scorer,
        timeline: Option<&Timeline>,
        confs: &mut [Conformation],
        weights: &[f64],
        cfg: &StealConfig,
    ) -> StealStats {
        let mut deques = seed_deques(confs.len() as u64, weights);
        let (claims, stats) =
            drain_deques(devices, &mut deques, cfg, work_profile(sc), timeline, &Trace::disabled());
        score(sc, confs, &claims);
        stats
    }

    fn serial_scores(sc: &Scorer, confs: &[Conformation]) -> Vec<f64> {
        let mut b = confs.to_vec();
        let mut scratch = vsscore::PoseScratch::new();
        sc.score_batch(ScoreBatch::Confs(&mut b), &mut scratch, Exec::Serial);
        b.iter().map(|c| c.score).collect()
    }

    #[test]
    fn chunk_size_guided_floor_and_tail_merge() {
        // Guided: len/divisor when comfortably above the floor.
        assert_eq!(chunk_size(4000, 2, 960), 2000);
        // Floor clamp.
        assert_eq!(chunk_size(2100, 4, 960), 960);
        // Tail merge: below 2x floor the claim takes everything, so the
        // last launch still saturates the device.
        assert_eq!(chunk_size(1919, 2, 960), 1919);
        assert_eq!(chunk_size(5, 2, 1), 2);
        assert_eq!(chunk_size(1, 2, 1), 1);
    }

    #[test]
    fn drain_healthy_matches_seeded_shares_with_whole_chunks() {
        // At paper-scale generation sizes (items < 2x the occupancy floor
        // per deque) the healthy drain claims each deque in one chunk:
        // identical device assignment — and virtual time — to the static
        // Percent split, so work stealing costs nothing when nothing
        // goes wrong.
        let devs = hertz_devices();
        let mut deques = [0..1229, 1229..2048];
        let (claims, stats) = drain_deques(
            &devs,
            &mut deques,
            &StealConfig::default(),
            WorkProfile::pairs(146_880),
            None,
            &Trace::disabled(),
        );
        assert_eq!(stats.steals, 0, "healthy paper-scale batch must not steal");
        assert_eq!(claims.len(), 2);
        assert_eq!(claims[0], Claim { device: 0, lo: 0, hi: 1229, stolen_from: None });
        assert_eq!(claims[1], Claim { device: 1, lo: 1229, hi: 2048, stolen_from: None });
        assert_eq!(devs[0].stats().items, 1229);
        assert_eq!(devs[1].stats().items, 819);
    }

    #[test]
    fn drain_steals_from_straggler() {
        // Device 1 degrades 8x after seeding (stale weights): its first
        // guided claim inflates its clock, and device 0 — done with its
        // own deque — steals the victim's tail.
        let devs = hertz_devices();
        devs[1].set_slowdown(8.0);
        let mut deques = [0..12_000, 12_000..20_000];
        let trace = Trace::new();
        let (claims, stats) = drain_deques(
            &devs,
            &mut deques,
            &StealConfig::default(),
            WorkProfile::pairs(146_880),
            None,
            &trace,
        );
        assert!(stats.steals > 0, "straggler tail must be stolen: {stats:?}");
        assert!(
            claims.iter().any(|c| c.device == 0 && c.stolen_from == Some(1)),
            "healthy device must steal from the straggler: {claims:?}"
        );
        // Every steal produced a JobMigrated event.
        let data = trace.snapshot();
        let migrations =
            data.events().filter(|s| matches!(s.event, Event::JobMigrated { .. })).count() as u64;
        assert_eq!(migrations, stats.steals);
        // All 20k items were claimed exactly once.
        let mut ranges: Vec<(u32, u32)> = claims.iter().map(|c| (c.lo, c.hi)).collect();
        ranges.sort_unstable();
        let mut next = 0;
        for (lo, hi) in ranges {
            assert_eq!(lo, next);
            next = hi;
        }
        assert_eq!(next, 20_000);
    }

    #[test]
    fn drain_is_deterministic() {
        let run = || {
            let devs = hertz_devices();
            devs[1].set_slowdown(4.0);
            let mut deques = [0..9_000, 9_000..16_000];
            let (claims, stats) = drain_deques(
                &devs,
                &mut deques,
                &StealConfig::default(),
                WorkProfile::pairs(4_800),
                None,
                &Trace::disabled(),
            );
            (claims, stats, devs[0].clock(), devs[1].clock())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "claim sequence must be reproducible");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2.to_bits(), b.2.to_bits());
        assert_eq!(a.3.to_bits(), b.3.to_bits());
    }

    #[test]
    fn run_shares_scores_bit_identical_to_serial() {
        let sc = scorer();
        let mut c = confs(50, 3);
        let want = serial_scores(&sc, &c);
        let shares = [
            Claim { device: 0, lo: 0, hi: 30, stolen_from: None },
            Claim { device: 1, lo: 30, hi: 50, stolen_from: None },
        ];
        score(&sc, &mut c, &shares);
        for (got, want) in c.iter().zip(&want) {
            assert_eq!(got.score.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn run_steal_scores_bit_identical_to_serial() {
        let sc = scorer();
        let devs = hertz_devices();
        // Small min_chunk forces many chunks and (with a straggler) steals
        // — the scores must not care.
        devs[1].set_slowdown(6.0);
        let mut c = confs(257, 7);
        let want = serial_scores(&sc, &c);
        let cfg = StealConfig { divisor: 2, min_chunk: 8 };
        let stats = steal(&devs, &sc, None, &mut c, &[1.0, 1.0], &cfg);
        assert!(stats.chunks >= 2);
        assert!(stats.steals > 0, "expected steals with a 6x straggler: {stats:?}");
        for (i, (got, want)) in c.iter().zip(&want).enumerate() {
            assert_eq!(got.score.to_bits(), want.to_bits(), "conf {i}");
        }
    }

    #[test]
    fn zero_weight_device_is_seeded_empty_but_can_steal() {
        let sc = scorer();
        let devs = hertz_devices();
        let mut c = confs(64, 9);
        let cfg = StealConfig { divisor: 2, min_chunk: 4 };
        let stats = steal(&devs, &sc, None, &mut c, &[0.0, 1.0], &cfg);
        assert!(c.iter().all(|x| x.is_scored()));
        // Device 0 starts empty; anything it executed was stolen.
        let d0 = devs[0].stats().items;
        assert!(stats.stolen_items >= d0, "{stats:?} vs device 0 items {d0}");
    }

    #[test]
    fn timeline_records_steal_claims() {
        let sc = scorer();
        let devs = hertz_devices();
        let tl = Timeline::new();
        let mut c = confs(120, 4);
        let cfg = StealConfig { divisor: 2, min_chunk: 16 };
        let stats = steal(&devs, &sc, Some(&tl), &mut c, &[1.0, 1.0], &cfg);
        assert_eq!(tl.segments().len() as u64, stats.chunks, "one Gantt segment per claim");
        let recorded: u64 = tl.segments().iter().map(|s| s.items).sum();
        assert_eq!(recorded, 120);
        assert!((tl.makespan() - makespan(&devs)).abs() < 1e-15);
    }
}
