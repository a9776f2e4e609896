//! Acceptance tests for the work-stealing node runtime (ISSUE 5): the
//! virtual-time makespan claims checked on the real Hertz platform model,
//! and the determinism contract checked with real scoring compute through
//! the full `VirtualScreen` pipeline.

use gpusim::WorkProfile;
use vsched::{schedule_trace_with, ReplayOptions};
use vscreen::prelude::*;
use vstrace::{Event, Trace};

const PAIRS: u64 = 45 * 3264; // 2BSM ligand x receptor pair interactions

/// Generation batches far above the GPUs' occupancy floors (K40c 960,
/// GTX 580 768 warps' worth of items) so deques split into many chunks
/// and steals have granularity to work with.
fn big_trace() -> Vec<u64> {
    std::iter::repeat_n(16 * 1024, 24).collect()
}

fn worksteal() -> Strategy {
    Strategy::WorkSteal { warmup: WarmupConfig::default(), divisor: 2 }
}

fn percent_split() -> Strategy {
    Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() }
}

/// Acceptance: with one GPU degrading 4x *after* the warm-up froze its
/// Eq. 1 weight, the stealing runtime must finish at least 1.3x faster
/// than the frozen Percent split.
#[test]
fn straggler_makespan_recovers_by_at_least_1_3x() {
    let node = platform::hertz();
    let phases = [(WarmupConfig::default().iterations + 2, vec![1.0, 4.0])];
    let run = |strategy| {
        schedule_trace_with(
            node.cpu(),
            node.gpus(),
            &big_trace(),
            WorkProfile::pairs(PAIRS),
            strategy,
            ReplayOptions { phases: &phases, ..Default::default() },
        )
        .makespan
    };
    let frozen = run(percent_split());
    let stealing = run(worksteal());
    let gain = frozen / stealing;
    assert!(gain >= 1.3, "steal gain only {gain:.3}: {stealing} vs frozen {frozen}");
}

/// Acceptance: on a healthy node the stealing runtime is no worse than 5%
/// off the static Percent split (it is typically *faster*: the drain
/// reclaims the warm-up's equal-split imbalance).
#[test]
fn healthy_makespan_within_five_percent_of_percent_split() {
    let node = platform::hertz();
    let run = |strategy| {
        vsched::schedule_trace(node.cpu(), node.gpus(), &big_trace(), PAIRS, strategy).makespan
    };
    let split = run(percent_split());
    let stealing = run(worksteal());
    let ratio = stealing / split;
    assert!(ratio <= 1.05, "healthy stealing {ratio:.3}x the Percent split");
    assert!(ratio >= 0.5, "implausible speedup {ratio:.3} — accounting bug?");
}

/// Acceptance: steals are observable — the degraded lane emits
/// `JobMigrated` events naming real device ids of the node.
#[test]
fn steals_surface_as_job_migrated_events() {
    let node = platform::hertz();
    let events = Trace::new();
    let phases = [(WarmupConfig::default().iterations, vec![1.0, 4.0])];
    schedule_trace_with(
        node.cpu(),
        node.gpus(),
        &big_trace(),
        WorkProfile::pairs(PAIRS),
        worksteal(),
        ReplayOptions { phases: &phases, events: events.clone(), ..Default::default() },
    );
    let ids: Vec<u32> = node.gpus().iter().map(|g| g.id() as u32).collect();
    let steals: Vec<(u32, u32)> = events
        .snapshot()
        .payloads()
        .into_iter()
        .filter_map(|e| match e {
            Event::JobMigrated { from_node, to_node, .. } => Some((from_node, to_node)),
            _ => None,
        })
        .collect();
    assert!(!steals.is_empty(), "4x lane fault must trigger steals");
    for (from, to) in steals {
        assert_ne!(from, to);
        assert!(ids.contains(&from) && ids.contains(&to), "steal {from}->{to} not on this node");
    }
}

/// Acceptance: real compute through the full pipeline — the work-stealing
/// schedule returns bit-identical results to the serial CPU path for the
/// same seed.
#[test]
fn work_steal_bit_identical_to_serial() {
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(3).seed(77).build();
    let params = metaheur::m1(0.03);
    let node = platform::hertz();
    let serial = screen.run(RunSpec::on_node(&params, &node, Strategy::CpuOnly));
    let stealing = screen.run(RunSpec::on_node(&params, &node, worksteal()));
    assert_eq!(serial.best.score.to_bits(), stealing.best.score.to_bits());
    assert_eq!(serial.best.pose, stealing.best.pose);
    assert_eq!(serial.evaluations, stealing.evaluations);
}

/// The runtime schedules the *whole* node: under WorkSteal the host CPU
/// is a first-class lane in the steal pool, not just a dispatcher.
#[test]
fn work_steal_charges_the_cpu_lane() {
    let screen = VirtualScreen::builder(Dataset::TwoBsm).max_spots(3).seed(78).build();
    let params = metaheur::m1(0.03);
    let node = platform::hertz();
    screen.run(RunSpec::on_node(&params, &node, worksteal()));
    assert!(node.cpu().clock() > 0.0, "CPU lane never claimed a chunk");
    for g in node.gpus() {
        assert!(g.clock() > 0.0, "GPU lane {} never claimed a chunk", g.name());
    }
}
