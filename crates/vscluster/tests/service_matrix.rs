//! The recorded service matrix: 5 campaign kinds × 3 strategies × 3 fleet
//! scenarios, one line per cell in `service_matrix.expected` — a tag, the
//! 64-bit FNV-1a hash of the cell's dump (every `CampaignReport` field of
//! both drains by bits, then every handle's `JobOutcome`) and the hash of
//! the traced rerun's event payloads.
//!
//! The kinds are a library screen, a static faulty screen (every job
//! pinned to its nominal-plan node), a dynamic faulty screen, a faulty
//! screen whose fault lives in GPU lane 1 (`gpu_victim`) and a 2 × 6
//! cross-docking matrix. The strategies are `HomogeneousSplit`, `WorkSteal`
//! and `Oracle`. The scenarios are a steady fleet, a fleet that gains a
//! node and loses one mid-drain, and a queue small enough that a bulk
//! campaign is rejected. Each cell also re-submits an interactive campaign
//! and, in a second drain, the main campaign with their own seeds, so the
//! results cache serves hits; the second drain's fresh campaign runs on
//! the oracles the first drain trained.
//!
//! The file was recorded from the service before its drain loop was made
//! linear in the number of jobs (DESIGN.md §13), which changed no cell.
//! `gpu_victim/steal/elastic` and `gpu_victim/oracle/elastic` were
//! re-recorded when a leaving node stopped stranding the jobs its static
//! plan had pinned to it. A deliberate behaviour change re-records the
//! cells it names, and says which, from the table this test prints when
//! it fails.

use std::fmt::Write;
use vsched::{Strategy, WarmupConfig};
use vscluster::{
    synthetic_library, Campaign, CampaignReport, FaultPlan, JobHandle, JobOutcome, LigandJob,
    NetModel, ReceptorTarget, ScalePlan, Service, ServiceConfig, SimCluster,
};
use vscreen::platform;
use vsmath::fnv1a;
use vstrace::Trace;

const EXPECTED: &str = include_str!("service_matrix.expected");

const KINDS: [&str; 5] = ["library", "static_faulty", "dynamic_faulty", "gpu_victim", "cross_dock"];
const SCENARIOS: [&str; 3] = ["steady", "elastic", "reject"];

fn strategies() -> [(&'static str, Strategy); 3] {
    // Short enough that the warm-up ends inside one job's replay; with the
    // default one a job here is all warm-up, an equal split.
    let warmup = WarmupConfig { iterations: 2, items_per_iteration: 64 };
    [
        ("hom", Strategy::HomogeneousSplit),
        ("steal", Strategy::WorkSteal { warmup, divisor: 2 }),
        ("oracle", Strategy::Oracle { warmup, divisor: 2 }),
    ]
}

/// Two Hertz nodes around a Jupiter: the static plan, the fault and the
/// earliest-free pick all see unequal nodes.
fn fleet() -> SimCluster {
    SimCluster::new(
        vec![platform::hertz(), platform::jupiter(), platform::hertz()],
        NetModel::infiniband(),
    )
}

fn library(n: usize, seed: u64) -> Vec<LigandJob> {
    synthetic_library(n, &metaheur::m1(0.2), seed)
}

/// The cell's main campaign: twelve jobs of `kind`, bulk, seed 7.
fn main_campaign(kind: &str, strategy: Strategy) -> Campaign {
    let plan = FaultPlan::straggler(3, 1, 3.0);
    let c = match kind {
        "library" => Campaign::library(3264, 16, library(12, 5), strategy),
        "static_faulty" => Campaign::faulty(3264, 16, library(12, 5), strategy, plan),
        "dynamic_faulty" => {
            Campaign::faulty(3264, 16, library(12, 5), strategy, plan).dynamic(true)
        }
        "gpu_victim" => Campaign::faulty(3264, 16, library(12, 5), strategy, plan).gpu_victim(1),
        "cross_dock" => {
            let receptors = vec![
                ReceptorTarget { name: "target".into(), atoms: 3264, n_spots: 16 },
                ReceptorTarget { name: "off-target".into(), atoms: 8609, n_spots: 8 },
            ];
            Campaign::cross_dock(receptors, library(6, 5), strategy)
        }
        _ => unreachable!("unknown kind {kind}"),
    };
    c.seed(7)
}

/// The interactive re-dock: submitted once, then again verbatim later.
fn redock(strategy: Strategy, at: f64) -> Campaign {
    Campaign::library(3264, 16, library(3, 21), strategy).interactive().seed(21).at(at)
}

/// Virtual makespan of the main campaign alone on the steady fleet: the
/// clock every scenario's arrival, join and leave times are fractions of.
fn probe(kind: &str, strategy: Strategy) -> f64 {
    let mut svc = Service::new(fleet(), ServiceConfig::default());
    svc.submit(main_campaign(kind, strategy));
    svc.drain().makespan
}

/// Both drains of one cell, and the outcome of every handle.
fn run_cell(
    kind: &str,
    strategy: Strategy,
    scenario: &str,
    m: f64,
    trace: &Trace,
) -> (Vec<CampaignReport>, Vec<JobOutcome>) {
    let config = match scenario {
        // Bulk may hold 12 of 16 slots, so the second bulk campaign finds
        // the queue full; eight cache entries force evictions.
        "reject" => ServiceConfig {
            queue_capacity: 16,
            interactive_reserve: 4,
            cache_capacity: 8,
            ..ServiceConfig::default()
        },
        _ => ServiceConfig::default(),
    };
    let mut svc = Service::new(fleet(), config).traced(trace);
    if scenario == "elastic" {
        svc.scale(ScalePlan::new().join_at(0.2 * m, platform::jupiter()).leave_at(0.45 * m, 0));
    }
    let mut handles: Vec<JobHandle> = vec![
        svc.submit(main_campaign(kind, strategy)),
        svc.submit(redock(strategy, 0.1 * m)),
        svc.submit(Campaign::library(3264, 16, library(6, 33), strategy).seed(33).at(0.15 * m)),
        svc.submit(redock(strategy, 0.7 * m)),
    ];
    let first = svc.drain();
    handles.push(svc.submit(main_campaign(kind, strategy)));
    handles.push(svc.submit(
        Campaign::library(3264, 16, library(4, 44), strategy).seed(44).at(svc.now() + 0.05 * m),
    ));
    let second = svc.drain();
    let outcomes = handles.into_iter().map(|h| svc.outcome(h)).collect();
    (vec![first, second], outcomes)
}

fn bits(out: &mut String, xs: &[f64]) {
    for x in xs {
        write!(out, "{:016x},", x.to_bits()).unwrap();
    }
    out.push('|');
}

fn dump_report(out: &mut String, r: &CampaignReport) {
    // Destructured so that a new field fails to compile until it is dumped.
    let CampaignReport {
        makespan,
        node_times,
        assignment,
        comm_time,
        single_node_time,
        total_jobs,
        completed_jobs,
        campaigns_admitted,
        campaigns_rejected,
        cache_hits,
        device_evals,
        wasted_s,
        queue_p50_s,
        queue_p95_s,
        queue_p99_s,
        interactive_p99_s,
        utilization,
        node_joins,
        node_leaves,
        requeued_jobs,
    } = r;
    bits(out, &[*makespan, *comm_time, *single_node_time, *wasted_s]);
    bits(out, &[*queue_p50_s, *queue_p95_s, *queue_p99_s, *interactive_p99_s, *utilization]);
    bits(out, node_times);
    write!(
        out,
        "{assignment:?}|{total_jobs}|{completed_jobs}|{campaigns_admitted}|{campaigns_rejected}|\
         {cache_hits}|{device_evals}|{node_joins}|{node_leaves}|{requeued_jobs}|"
    )
    .unwrap();
}

fn dump_outcome(out: &mut String, o: &JobOutcome) {
    match o {
        JobOutcome::Pending => out.push_str("pending|"),
        JobOutcome::Rejected { queued, capacity } => {
            write!(out, "rejected {queued}/{capacity}|").unwrap()
        }
        JobOutcome::Completed(s) => {
            write!(
                out,
                "completed {} {} {} {}|",
                s.jobs, s.completed, s.cache_hits, s.device_evals
            )
            .unwrap();
            bits(out, &[s.turnaround_s]);
        }
    }
}

/// The whole matrix as the expected file spells it: `tag hash hash` per
/// line.
fn matrix() -> String {
    let mut table = String::new();
    for kind in KINDS {
        for (name, strategy) in strategies() {
            let m = probe(kind, strategy);
            for scenario in SCENARIOS {
                let (reports, outcomes) = run_cell(kind, strategy, scenario, m, &Trace::disabled());
                let trace = Trace::new();
                let traced = run_cell(kind, strategy, scenario, m, &trace);
                let tag = format!("{kind}/{name}/{scenario}");
                // Tracing turns the lane-fault replays' memo off; it must
                // not move the schedule.
                assert_eq!((&reports, &outcomes), (&traced.0, &traced.1), "{tag}: traced run");
                let mut dump = String::new();
                for r in &reports {
                    dump_report(&mut dump, r);
                }
                for o in &outcomes {
                    dump_outcome(&mut dump, o);
                }
                let events = format!("{:?}", trace.snapshot().payloads());
                let (report_hash, trace_hash) = (fnv1a(dump.bytes()), fnv1a(events.bytes()));
                writeln!(table, "{tag} {report_hash:016x} {trace_hash:016x}").unwrap();
            }
        }
    }
    table
}

#[test]
fn service_matrix_matches_the_recorded_cells() {
    let fresh = matrix();
    let moved: Vec<&str> = fresh
        .lines()
        .zip(EXPECTED.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, _)| a.split(' ').next().unwrap())
        .collect();
    assert!(
        moved.is_empty() && fresh.lines().count() == EXPECTED.lines().count(),
        "{} cell(s) moved against service_matrix.expected: {moved:?}\nfresh table:\n{fresh}",
        moved.len()
    );
}

#[test]
fn every_admitted_job_completes_in_its_drain() {
    let mut short = Vec::new();
    for kind in KINDS {
        for (name, strategy) in strategies() {
            let m = probe(kind, strategy);
            for scenario in SCENARIOS {
                let (reports, _) = run_cell(kind, strategy, scenario, m, &Trace::disabled());
                for (drain, r) in reports.iter().enumerate() {
                    if r.completed_jobs != r.total_jobs {
                        short.push(format!(
                            "{kind}/{name}/{scenario} drain {drain}: {} of {}",
                            r.completed_jobs, r.total_jobs
                        ));
                    }
                }
            }
        }
    }
    assert!(short.is_empty(), "admitted jobs left incomplete: {short:#?}");
}
