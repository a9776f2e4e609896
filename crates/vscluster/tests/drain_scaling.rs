//! The linear-drain guard: `Service::drain` over `bursty_traffic` at N and
//! at 4N bulk jobs (4N = 100,000) must take at most 4^1.3 times as long.
//! A drain that moves the backlog on every dispatch scales as about
//! 4^2.3, so the bound sits between the two with room for host noise.
//!
//! Wall time, so release mode only and `#[ignore]`d in the default suite:
//!
//! ```text
//! cargo test --release -p vscluster --test drain_scaling -- --ignored
//! ```

use std::time::Instant;
use vscluster::{bursty_traffic, NetModel, Service, ServiceConfig, SimCluster, TrafficConfig};
use vscreen::platform;

/// Bulk sweeps of the traffic mix; the interactive bursts stay fixed.
const SWEEPS: usize = 25;

/// Best of three drain times, in seconds, at `bulk_jobs` bulk jobs.
fn best_drain_s(bulk_jobs: usize) -> f64 {
    let cfg = TrafficConfig {
        horizon_s: 0.3,
        bulk_campaigns: SWEEPS,
        bulk_jobs: bulk_jobs / SWEEPS,
        bursts: 25,
        burst_size: 3,
        interactive_jobs: 2,
        duplicate_fraction: 0.25,
        scale: 1.0,
        ..TrafficConfig::default()
    };
    let capacity = 2 * (bulk_jobs + cfg.bursts * cfg.burst_size * cfg.interactive_jobs);
    (0..3)
        .map(|_| {
            let cluster = SimCluster::uniform(32, NetModel::infiniband(), platform::hertz);
            let config = ServiceConfig {
                queue_capacity: capacity,
                cache_capacity: capacity,
                ..ServiceConfig::default()
            };
            let mut svc = Service::new(cluster, config);
            for c in bursty_traffic(&cfg, 2016) {
                svc.submit(c);
            }
            let t0 = Instant::now();
            let report = svc.drain();
            let s = t0.elapsed().as_secs_f64();
            assert_eq!(report.campaigns_rejected, 0);
            assert_eq!(report.completed_jobs, report.total_jobs);
            s
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "wall time: run in release mode"]
fn drain_scales_linearly() {
    let n = 25_000;
    let small = best_drain_s(n);
    let large = best_drain_s(4 * n);
    let ratio = large / small;
    let bound = 4f64.powf(1.3);
    eprintln!(
        "drain: {small:.4} s at {n} bulk jobs, {large:.4} s at {}: ratio {ratio:.2} \
         (exponent {:.2}), bound {bound:.2}",
        4 * n,
        ratio.log(4.0)
    );
    assert!(ratio <= bound, "drain time grew {ratio:.2}x for 4x the jobs (bound {bound:.2})");
}
