//! Differential test of the two execution substrates (ROADMAP item 4's
//! gate): the real-compute [`DeviceEvaluator`] and the analytic replay run
//! the same [`vsched::Policy`], so for every strategy — healthy or with a
//! GPU slowing 4x mid-run, the CPU-only baseline's one host-CPU lane
//! included — they must agree on every virtual number bit-for-bit:
//! per-lane clocks, kernel launches, steals, and oracle re-seeds. And
//! whatever a plan looks like, the scores of the live path are the serial
//! path's: every conformation of a batch is scored, bit-identically, at
//! every batch size.

use gpusim::{catalog, SimDevice, SimNode};
use metaheur::BatchEvaluator;
use std::sync::Arc;
use vsched::{
    schedule_trace_with, work_profile, CostOracle, DeviceEvaluator, ReplayOptions, Strategy,
    WarmupConfig,
};
use vsmath::{RigidTransform, RngStream};
use vsmol::{synth, Conformation};
use vsscore::{Exec, PoseScratch, ScoreBatch, Scorer};
use vstrace::{Event, Trace};

/// The device sets of `vscreen::platform::{hertz, jupiter}` (that crate
/// sits above this one).
fn nodes() -> [SimNode; 2] {
    let fermi = catalog::geforce_gtx_590;
    [
        SimNode::new(
            "Hertz",
            catalog::xeon_e3_1220(),
            vec![catalog::tesla_k40c(), catalog::geforce_gtx_580()],
        ),
        SimNode::new(
            "Jupiter",
            catalog::xeon_e5_2620_dual(),
            vec![
                fermi(),
                fermi(),
                fermi(),
                fermi(),
                catalog::tesla_c2075(),
                catalog::tesla_c2075(),
            ],
        ),
    ]
}

fn strategies(warmup_batches: usize) -> [Strategy; 8] {
    let warmup = WarmupConfig { iterations: warmup_batches, ..Default::default() };
    [
        Strategy::CpuOnly,
        Strategy::HomogeneousSplit,
        Strategy::HeterogeneousSplit { warmup },
        Strategy::DynamicQueue { chunk: 64 },
        Strategy::DynamicQueue { chunk: 512 },
        Strategy::GuidedQueue { divisor: 2 },
        Strategy::WorkSteal { warmup, divisor: 2 },
        Strategy::Oracle { warmup, divisor: 2 },
    ]
}

/// Batch sizes on both sides of the GPUs' occupancy floors, so the deque
/// modes see whole-share claims, guided chunks and steals.
const BATCHES: [usize; 10] = [2048, 777, 4096, 8192, 2048, 16_384, 100, 8192, 4096, 2048];

/// The lanes `strategy` drives on `node`: the host CPU alone for the
/// OpenMP baseline (what the replay plans it on), the GPUs otherwise.
fn lanes(node: &SimNode, strategy: Strategy) -> Vec<Arc<SimDevice>> {
    match strategy {
        Strategy::CpuOnly => vec![node.cpu().clone()],
        _ => node.gpus().to_vec(),
    }
}

/// Virtual outcome of one run: per-lane clock bits and launch counts,
/// steals, oracle re-seeds.
#[derive(Debug, PartialEq)]
struct Outcome {
    clocks: Vec<u64>,
    launches: Vec<u64>,
    steals: u64,
    reseeds: u64,
}

fn outcome(devices: &[Arc<SimDevice>], steals: u64, reseeds: u64) -> Outcome {
    Outcome {
        clocks: devices.iter().map(|d| d.clock().to_bits()).collect(),
        launches: devices.iter().map(|d| d.stats().batches).collect(),
        steals,
        reseeds,
    }
}

/// `n` random poses, their scores the NaN `Conformation::new` leaves: the
/// sentinel an item no claim reached would keep.
fn unscored(rng: &mut RngStream, n: usize) -> Vec<Conformation> {
    (0..n)
        .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(25.0)), 0))
        .collect()
}

/// Real scoring through the evaluator; the last GPU slows 4x before batch
/// `slow_at`.
fn live(
    node: &SimNode,
    scorer: &Arc<Scorer>,
    strategy: Strategy,
    slow_at: Option<usize>,
) -> Outcome {
    let gpus = node.gpus();
    node.reset();
    let lanes = lanes(node, strategy);
    let mut ev = DeviceEvaluator::new(lanes.clone(), Arc::clone(scorer), strategy);
    let mut rng = RngStream::from_seed(2016);
    for (bi, &n) in BATCHES.iter().enumerate() {
        if slow_at == Some(bi) {
            gpus[gpus.len() - 1].set_slowdown(4.0);
        }
        let mut confs = unscored(&mut rng, n);
        ev.evaluate(&mut confs);
        assert!(confs.iter().all(Conformation::is_scored), "{}: unscored", strategy.label());
    }
    outcome(&lanes, ev.steal_stats().steals, ev.oracle().map_or(0, CostOracle::reseeds))
}

/// The same batch sizes, cost regime and fault through the replay.
fn replayed(
    node: &SimNode,
    scorer: &Scorer,
    strategy: Strategy,
    slow_at: Option<usize>,
) -> Outcome {
    let gpus = node.gpus();
    let mut factors = vec![1.0; gpus.len()];
    factors[gpus.len() - 1] = 4.0;
    let phases: Vec<(usize, Vec<f64>)> = slow_at.map(|k| (k, factors)).into_iter().collect();
    let trace: Vec<u64> = BATCHES.iter().map(|&n| n as u64).collect();
    let events = Trace::new();
    let mut oracle = CostOracle::new(gpus.len());
    schedule_trace_with(
        node.cpu(),
        gpus,
        &trace,
        work_profile(scorer),
        strategy,
        ReplayOptions {
            phases: &phases,
            events: events.clone(),
            oracle: Some(&mut oracle),
            timeline: None,
        },
    );
    let steals = events
        .snapshot()
        .payloads()
        .into_iter()
        .filter(|e| matches!(e, Event::JobMigrated { .. }))
        .count();
    outcome(&lanes(node, strategy), steals as u64, oracle.reseeds())
}

#[test]
fn live_and_replayed_virtual_numbers_are_bit_equal() {
    // A tiny complex keeps host scoring cheap; the schedule depends only
    // on batch sizes and the per-conformation unit count.
    let receptor = synth::synth_receptor("r", 24, 1);
    let ligand = synth::synth_ligand("l", 4, 2);
    let scorer = Arc::new(Scorer::new(&receptor, &ligand, Default::default()));
    let mut total_steals = 0;
    for node in nodes() {
        for strategy in strategies(3) {
            for slow_at in [None, Some(5)] {
                let on_devices = live(&node, &scorer, strategy, slow_at);
                let on_paper = replayed(&node, &scorer, strategy, slow_at);
                assert_eq!(
                    on_devices,
                    on_paper,
                    "{} on {}, slowdown at {slow_at:?}: live (left) vs replay (right)",
                    strategy.label(),
                    node.name()
                );
                total_steals += on_devices.steals;
                if strategy == (Strategy::DynamicQueue { chunk: 64 }) {
                    // One launch per chunk on both substrates, not one
                    // coalesced launch per device per batch.
                    let chunks: u64 = BATCHES.iter().map(|&n| n.div_ceil(64) as u64).sum();
                    assert_eq!(on_devices.launches.iter().sum::<u64>(), chunks);
                }
            }
        }
    }
    assert!(total_steals > 0, "the slowed runs must exercise the steal path");
}

#[test]
fn every_planned_batch_is_scored_exactly_like_serial() {
    // The claims of a plan reach every conformation: two warm-up batches
    // and a steady one per strategy, at sizes where a share is empty, a
    // single item, or straddles a GPU's occupancy floor.
    let receptor = synth::synth_receptor("r", 24, 1);
    let ligand = synth::synth_ligand("l", 4, 2);
    let scorer = Arc::new(Scorer::new(&receptor, &ligand, Default::default()));
    let mut scratch = PoseScratch::new();
    let mut rng = RngStream::from_seed(24);
    for node in nodes() {
        let gpus = node.gpus();
        let floor = gpus[0].spec().saturation_items() as usize;
        for strategy in strategies(2) {
            for n in [1, 2, 3, floor - 1, floor, floor + 1, 4097] {
                node.reset();
                let mut ev =
                    DeviceEvaluator::new(lanes(&node, strategy), Arc::clone(&scorer), strategy);
                for batch in 0..3 {
                    let mut confs = unscored(&mut rng, n);
                    let mut serial = confs.clone();
                    scorer.score_batch(ScoreBatch::Confs(&mut serial), &mut scratch, Exec::Serial);
                    ev.evaluate(&mut confs);
                    for (i, (got, want)) in confs.iter().zip(&serial).enumerate() {
                        assert!(!want.score.is_nan());
                        assert_eq!(
                            got.score.to_bits(),
                            want.score.to_bits(),
                            "{} on {}, batch {batch} of {n}: conformation {i}",
                            strategy.label(),
                            node.name()
                        );
                    }
                }
            }
        }
    }
}
