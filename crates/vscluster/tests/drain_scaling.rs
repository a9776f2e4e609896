//! The linear-drain guard: `Service::drain` over `bursty_traffic` at N and
//! at 4N bulk jobs (4N = 100,000) must take at most 4^1.3 times as long.
//! A drain that moves the backlog on every dispatch scales as about
//! 4^2.3, so the bound sits between the two with room for host noise.
//! The same bound holds a mostly pinned drain, whose bulk sweeps are
//! static faulty screens: a drain that scans past the jobs pinned to
//! other nodes is quadratic there, because the slow node's jobs pile up
//! at the front of the queue.
//!
//! The fleet guard holds the other axis: the same `campaign_burst`-shaped
//! traffic drained on 512 nodes may take at most twice as long as on 32.
//! A drain that scans every node clock per dispatch took about 3x there.
//!
//! Wall time, so release mode only and `#[ignore]`d in the default suite:
//!
//! ```text
//! cargo test --release -p vscluster --test drain_scaling -- --ignored --test-threads=1
//! ```

use std::time::Instant;
use vscluster::{
    bursty_traffic, Campaign, CampaignKind, FaultPlan, NetModel, Priority, ScalePlan, Service,
    ServiceConfig, SimCluster, TrafficConfig,
};
use vscreen::platform;

/// Bulk sweeps of the traffic mix; the interactive bursts stay fixed.
const SWEEPS: usize = 25;

/// Nodes of the fleet.
const NODES: usize = 32;

/// A bulk sweep as a static faulty screen: every job is pinned to its
/// nominal-plan node, and node 1 runs twice as slow as planned.
fn pinned(c: Campaign) -> Campaign {
    match c.kind {
        CampaignKind::Library { receptor_atoms, n_spots, jobs } if c.priority == Priority::Bulk => {
            let faults = FaultPlan::straggler(NODES, 1, 2.0);
            Campaign::faulty(receptor_atoms, n_spots, jobs, c.strategy, faults)
                .seed(c.seed)
                .at(c.arrival_vt)
        }
        _ => c,
    }
}

/// One drain's time, in seconds, of `traffic` on `nodes` Hertz nodes
/// scaled by `plan`, each campaign submitted through `map`.
fn drain_s(
    nodes: usize,
    traffic: &TrafficConfig,
    plan: &ScalePlan,
    map: fn(Campaign) -> Campaign,
) -> f64 {
    let t = traffic;
    let capacity =
        2 * (t.bulk_campaigns * t.bulk_jobs + t.bursts * t.burst_size * t.interactive_jobs);
    let cluster = SimCluster::uniform(nodes, NetModel::infiniband(), platform::hertz);
    let config =
        ServiceConfig { queue_capacity: capacity, cache_capacity: capacity, ..Default::default() };
    let mut svc = Service::new(cluster, config);
    svc.scale(plan.clone());
    for c in bursty_traffic(traffic, 2016) {
        svc.submit(map(c));
    }
    let t0 = Instant::now();
    let report = svc.drain();
    let s = t0.elapsed().as_secs_f64();
    assert_eq!(report.campaigns_rejected, 0);
    assert_eq!(report.completed_jobs, report.total_jobs);
    s
}

/// Best of five times of a `small` and a `large` drain. Each is drained
/// once untimed first, so every timed drain reuses the heap an earlier
/// drain left: a size's first drain would otherwise be the only one that
/// faults in fresh pages for its tables. The timed drains alternate, so a
/// slow spell of the host falls on both sizes.
fn best_of_five(small: impl Fn() -> f64, large: impl Fn() -> f64) -> (f64, f64) {
    small();
    large();
    (0..5).fold((f64::INFINITY, f64::INFINITY), |(s, l), _| (s.min(small()), l.min(large())))
}

/// The bursty mix with `sweeps` bulk sweeps of `jobs` jobs and `bursts`
/// bursts of three two-job interactive re-docks.
fn traffic(sweeps: usize, jobs: usize, bursts: usize) -> TrafficConfig {
    TrafficConfig {
        horizon_s: 0.3,
        bulk_campaigns: sweeps,
        bulk_jobs: jobs,
        bursts,
        burst_size: 3,
        interactive_jobs: 2,
        duplicate_fraction: 0.25,
        scale: 1.0,
        ..TrafficConfig::default()
    }
}

/// Drain at 25,000 and at 100,000 bulk jobs; fail past the 4^1.3 bound.
fn assert_linear(what: &str, pin: bool) {
    let n = 25_000;
    let map = if pin { pinned } else { std::convert::identity };
    let drain = |bulk_jobs: usize| {
        drain_s(NODES, &traffic(SWEEPS, bulk_jobs / SWEEPS, 25), &ScalePlan::new(), map)
    };
    let (small, large) = best_of_five(|| drain(n), || drain(4 * n));
    let ratio = large / small;
    let bound = 4f64.powf(1.3);
    eprintln!(
        "{what} drain: {small:.4} s at {n} bulk jobs, {large:.4} s at {}: ratio {ratio:.2} \
         (exponent {:.2}), bound {bound:.2}",
        4 * n,
        ratio.log(4.0)
    );
    assert!(ratio <= bound, "drain time grew {ratio:.2}x for 4x the jobs (bound {bound:.2})");
}

#[test]
#[ignore = "wall time: run in release mode"]
fn drain_scales_linearly() {
    assert_linear("unpinned", false);
}

#[test]
#[ignore = "wall time: run in release mode"]
fn pinned_drain_scales_linearly() {
    assert_linear("mostly pinned", true);
}

#[test]
#[ignore = "wall time: run in release mode"]
fn drain_scales_with_the_fleet() {
    // `campaign_burst`: 30 sweeps of 600 jobs, 60 bursts, a join and a
    // leave.
    let plan = ScalePlan::new().join_at(0.05, platform::hertz()).leave_at(0.18, 1);
    let drain = |nodes| drain_s(nodes, &traffic(30, 600, 60), &plan, std::convert::identity);
    let (small, large) = best_of_five(|| drain(32), || drain(512));
    let ratio = large / small;
    eprintln!("fleet drain: {small:.4} s on 32 nodes, {large:.4} s on 512: ratio {ratio:.2}");
    assert!(ratio <= 2.0, "drain time grew {ratio:.2}x for 16x the nodes (bound 2)");
}
