//! Heterogeneous-scheduler performance snapshot: static Percent split vs
//! the work-stealing node runtime vs the learned cost oracle on the Hertz
//! model — healthy, with a 4x mid-run straggler, and with a drift
//! scenario (4x slowdown that later recovers) — written as
//! `BENCH_sched.json`.
//!
//! Virtual-time makespans from the trace replay are deterministic, so the
//! snapshot doubles as a regression gate: the straggler gain must stay at
//! least 1.3x, the healthy overhead within 5% of the frozen split, the
//! oracle's drift makespan strictly under the frozen Percent split with
//! less steal traffic than pure work-stealing, and a repeated oracle run
//! bit-identical (re-seeding changes schedules, never determinism).
//!
//! Usage:
//!   cargo run --release -p vs-bench --bin sched_snapshot -- [OUT.json]
//!
//! Defaults to `BENCH_sched.json` in the current directory.

use gpusim::WorkProfile;
use vsched::{schedule_trace_with, ReplayOptions, Strategy, WarmupConfig};
use vscreen::platform;
use vstrace::{Event, Trace};

/// 2BSM pair interactions per conformation (Table 5).
const PAIRS: u64 = 45 * 3264;

/// A slowdown timeline: at batch index `.0`, GPU lane slowdowns `.1`.
type Phases = Vec<(usize, Vec<f64>)>;

/// Generations far above the GPUs' occupancy floors so the deques split
/// into many steals' worth of chunks.
const GENERATIONS: usize = 24;
const ITEMS_PER_GENERATION: u64 = 16 * 1024;

/// Replay one strategy through a slowdown timeline; returns the
/// virtual-time makespan and the intra-node steal count (`JobMigrated`
/// events on the device lanes).
fn run(strategy: Strategy, phases: &[(usize, Vec<f64>)]) -> (f64, usize) {
    let node = platform::hertz();
    let trace: Vec<u64> = std::iter::repeat_n(ITEMS_PER_GENERATION, GENERATIONS).collect();
    let events = Trace::new();
    let makespan = schedule_trace_with(
        node.cpu(),
        node.gpus(),
        &trace,
        WorkProfile::pairs(PAIRS),
        strategy,
        ReplayOptions { phases, events: events.clone(), ..Default::default() },
    )
    .makespan;
    let steals = events
        .snapshot()
        .payloads()
        .into_iter()
        .filter(|e| matches!(e, Event::JobMigrated { .. }))
        .count();
    (makespan, steals)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_sched.json".to_string());
    let percent = Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() };
    let steal = Strategy::WorkSteal { warmup: WarmupConfig::default(), divisor: 2 };
    let oracle = Strategy::Oracle { warmup: WarmupConfig::default(), divisor: 2 };
    let onset = WarmupConfig::default().iterations + 2;

    // Slowdown timelines, applied to the GPU lanes [K40c, GTX 580]:
    // healthy never degrades, the straggler stays degraded to the end, and
    // the drift scenario recovers 8 generations after onset — the case a
    // frozen split can never re-price but the online oracle re-fits twice.
    let scenarios: [(&str, Phases); 3] = [
        ("healthy", vec![]),
        ("straggler_4x", vec![(onset, vec![1.0, 4.0])]),
        ("drift_4x_recover", vec![(onset, vec![1.0, 4.0]), (onset + 8, vec![1.0, 1.0])]),
    ];

    let mut scenario_blocks = Vec::new();
    let mut table = Vec::new();
    for (label, phases) in &scenarios {
        let (t_percent, _) = run(percent, phases);
        let (t_steal, steal_steals) = run(steal, phases);
        let (t_oracle, oracle_steals) = run(oracle, phases);
        let gain = t_percent / t_steal;
        let oracle_gain = t_percent / t_oracle;
        eprintln!(
            "{label:>16}: percent {t_percent:.5}s  worksteal {t_steal:.5}s ({steal_steals} steals)  \
             oracle {t_oracle:.5}s ({oracle_steals} steals)"
        );
        table.push((*label, gain, oracle_gain, t_oracle, oracle_steals, steal_steals));
        scenario_blocks.push(format!(
            "    {{\n      \"scenario\": \"{label}\",\n      \"percent_split_s\": {t_percent:.6},\n      \"work_steal_s\": {t_steal:.6},\n      \"oracle_s\": {t_oracle:.6},\n      \"steal_gain\": {gain:.3},\n      \"oracle_gain\": {oracle_gain:.3},\n      \"work_steal_migrations\": {steal_steals},\n      \"oracle_migrations\": {oracle_steals}\n    }}"
        ));
    }

    // Regression gates: the acceptance bars of the stealing runtime and
    // the learned oracle.
    let find = |l: &str| table.iter().find(|(label, ..)| *label == l).unwrap();
    let &(_, healthy_gain, healthy_oracle_gain, ..) = find("healthy");
    let &(_, straggler_gain, ..) = find("straggler_4x");
    let &(_, _, drift_oracle_gain, t_drift_oracle, drift_oracle_steals, drift_steal_steals) =
        find("drift_4x_recover");
    assert!(
        healthy_gain >= 1.0 / 1.05,
        "healthy work stealing regressed past 5% of the Percent split: gain {healthy_gain:.3}"
    );
    assert!(
        straggler_gain >= 1.3,
        "straggler steal gain {straggler_gain:.3} below the 1.3x acceptance bar"
    );
    assert!(
        healthy_oracle_gain >= 1.0 / 1.05,
        "healthy oracle regressed past 5% of the Percent split: gain {healthy_oracle_gain:.3}"
    );
    assert!(
        drift_oracle_gain > 1.0,
        "oracle must strictly beat the frozen Percent split under drift: gain {drift_oracle_gain:.3}"
    );
    assert!(
        drift_oracle_steals < drift_steal_steals,
        "oracle re-seeding must cut steal traffic under drift: {drift_oracle_steals} vs {drift_steal_steals}"
    );
    let (_, drift_phases) = &scenarios[2];
    let (t_again, steals_again) = run(oracle, drift_phases);
    assert!(
        t_again.to_bits() == t_drift_oracle.to_bits() && steals_again == drift_oracle_steals,
        "oracle drift replay must be bit-identical across runs"
    );

    let json = format!(
        "{{\n  \"bench\": \"scheduler\",\n  \"units\": \"virtual_seconds\",\n  \"node\": \"hertz\",\n  \"generations\": {GENERATIONS},\n  \"items_per_generation\": {ITEMS_PER_GENERATION},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        scenario_blocks.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");
}
