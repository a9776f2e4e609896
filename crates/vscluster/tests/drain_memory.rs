//! What a drained job costs in memory (DESIGN §13): submitting and
//! draining `campaign_burst`'s traffic in a fresh process may take at most
//! `FAULTS_PER_1000_JOBS` minor page faults per thousand jobs and grow
//! resident memory by at most `RSS_BYTES_PER_JOB` bytes a job. The job
//! table, the results cache, the completion board and the node schedules
//! are the drain's per-job memory; fatter records or a second copy of
//! each cache key show here before they show in wall time.
//!
//! The test measures the whole process, so it is a test binary of its own
//! that no other test shares. Run it in release mode:
//!
//! ```text
//! cargo test --release -p vscluster --test drain_memory -- --ignored
//! ```

use vscluster::{
    bursty_traffic, NetModel, ScalePlan, Service, ServiceConfig, SimCluster, TrafficConfig,
};
use vscreen::platform;

/// Minor faults per thousand jobs, over submit and drain. A job record of
/// 64 bytes, a dispatch of 32 and a cache that holds each entry once read
/// 54.5; 88-byte jobs, 40-byte dispatches and a cache map beside a FIFO
/// of keys read 72.5.
const FAULTS_PER_1000_JOBS: f64 = 64.0;

/// Resident-memory growth per job, bytes, over submit and drain: 215 with
/// the slim records, 289 with the fat ones.
const RSS_BYTES_PER_JOB: f64 = 255.0;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with(field)).expect("the field");
    let kb = line[field.len()..].trim().trim_end_matches("kB").trim();
    kb.parse::<u64>().expect("a count of kB") * 1024
}

/// Minor faults of this process so far: field 10 of `/proc/self/stat`,
/// counted after the parenthesised command name.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let after = &stat[stat.rfind(')').expect("the command name") + 1..];
    // Fields 3 onward; `minflt` is field 10.
    after.split_whitespace().nth(7).expect("minflt").parse().expect("a count")
}

/// Why the measurement cannot hold on this host, if it cannot.
fn unmeasurable() -> Option<&'static str> {
    if !cfg!(target_os = "linux") {
        return Some("resident memory and faults are read from Linux's /proc");
    }
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    if thp.is_ok_and(|mode| mode.contains("[always]")) {
        return Some("transparent huge pages are [always]: a large table's first write maps 2 MiB");
    }
    None
}

#[test]
#[ignore = "run in release mode: measures this process's resident memory and page faults"]
fn a_drained_job_stays_within_its_fault_and_byte_budget() {
    if let Some(why) = unmeasurable() {
        eprintln!("skipped: {why}");
        return;
    }
    // `campaign_burst`: 30 sweeps of 600 jobs and 60 bursts of three
    // two-job re-docks on 32 Hertz nodes, a join at 0.05 and a leave at
    // 0.18.
    let traffic = TrafficConfig {
        horizon_s: 0.3,
        bulk_campaigns: 30,
        bulk_jobs: 600,
        bursts: 60,
        burst_size: 3,
        interactive_jobs: 2,
        duplicate_fraction: 0.25,
        scale: 1.0,
        ..TrafficConfig::default()
    };
    let jobs = traffic.bulk_campaigns * traffic.bulk_jobs
        + traffic.bursts * traffic.burst_size * traffic.interactive_jobs;
    let cluster = SimCluster::uniform(32, NetModel::infiniband(), platform::hertz);
    let config =
        ServiceConfig { queue_capacity: 2 * jobs, cache_capacity: 2 * jobs, ..Default::default() };
    let mut svc = Service::new(cluster, config);
    svc.scale(ScalePlan::new().join_at(0.05, platform::hertz()).leave_at(0.18, 1));
    let campaigns = bursty_traffic(&traffic, 2016);

    let (rss, faults) = (status_bytes("VmRSS:"), minor_faults());
    for c in campaigns {
        svc.submit(c);
    }
    let report = svc.drain();
    let grown = status_bytes("VmRSS:").saturating_sub(rss);
    let faulted = minor_faults() - faults;

    assert_eq!(report.campaigns_rejected, 0);
    assert_eq!((report.total_jobs, report.completed_jobs), (jobs, jobs));
    let per_1000 = faulted as f64 * 1000.0 / jobs as f64;
    let per_job = grown as f64 / jobs as f64;
    eprintln!(
        "{jobs} jobs: {faulted} minor faults ({per_1000:.1} per 1000 jobs), resident grew \
         {grown} bytes ({per_job:.0} a job)"
    );
    assert!(
        per_1000 <= FAULTS_PER_1000_JOBS,
        "{per_1000:.1} minor faults per 1000 jobs (bound {FAULTS_PER_1000_JOBS})"
    );
    assert!(
        per_job <= RSS_BYTES_PER_JOB,
        "resident memory grew {per_job:.0} bytes a job (bound {RSS_BYTES_PER_JOB})"
    );
}
