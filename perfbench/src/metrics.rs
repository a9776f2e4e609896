//! The metric tables: every name the benchmark prints, with its unit, its
//! time domain and direction. `BENCHMARK.json` is generated from these
//! tables (`perf schema`) and a test keeps the two equal.
//!
//! Two time domains are kept apart. **Host** numbers are wall or CPU time
//! of the Rust code on this machine, and noisy. **Virtual** numbers are
//! modelled node seconds from `gpusim`; they are exact, carry the unit
//! `virtual_s`, and a change that only makes the host faster must leave
//! every one of them bit-identical.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which statistic of a metric's samples a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The best sample: the least time, the highest rate. The work of a
    /// timed region is fixed and the machine's interference only ever adds
    /// to it, so the best of many short single-threaded regions estimates
    /// the program's own cost, where the median mostly tracks how busy the
    /// host was. (Multi-threaded regions never reach their undisturbed
    /// time during the host's slow spells; see [`Stat::for_workload`].)
    Best,
    Median,
}

impl Stat {
    pub fn as_str(self) -> &'static str {
        match self {
            Stat::Best => "best",
            Stat::Median => "median",
        }
    }

    /// The statistic a workload reports for a metric declared with
    /// `self`. A calibrated workload (`calib`) reports the median where an
    /// uncalibrated one reports the best sample: bringing a sample to
    /// reference speed can overshoot as well as undershoot, and the
    /// median is indifferent to either.
    pub fn for_workload(self, calibrated: bool) -> Stat {
        if calibrated {
            Stat::Median
        } else {
            self
        }
    }

    /// The reported value of `samples` and its spread as a share of that
    /// value: for [`Stat::Best`] the distance from the best sample to the
    /// quartile on its side (small when the undisturbed time was met
    /// often), for [`Stat::Median`] the interquartile range.
    pub fn of(self, better: Better, samples: &[f64]) -> (f64, f64) {
        let (lo, hi) = crate::stats::min_max(samples);
        let [q1, q2, q3] = crate::stats::quartiles(samples);
        let (value, distance) = match (self, better) {
            (Stat::Best, Better::Lower) => (lo, (q1 - lo).max(0.0)),
            (Stat::Best, Better::Higher) => (hi, (hi - q3).max(0.0)),
            (Stat::Median, _) => (q2, q3 - q1),
        };
        (value, if value == 0.0 { 0.0 } else { distance / value.abs() })
    }
}

/// A host-domain end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub stat: Stat,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, stat: Stat::Best, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, stat: Stat::Best, bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: Better::Lower, stat: Stat::Best, bound: 0.25 },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        stat: Stat::Best,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        stat: Stat::Median,
        bound: 0.10,
    },
];

/// End-to-end results that must repeat exactly: compared for equality,
/// never against a bound.
pub const EXACT: [Exact; 4] = [
    Exact { name: "virtual_makespan_s", unit: "virtual_s", domain: "virtual" },
    Exact { name: "interactive_p99_virtual_s", unit: "virtual_s", domain: "virtual" },
    Exact { name: "best_bits", unit: "bits", domain: "exact" },
    Exact { name: "evaluations", unit: "count", domain: "exact" },
];

#[derive(Debug, Clone, Copy)]
pub struct Exact {
    pub name: &'static str,
    pub unit: &'static str,
    pub domain: &'static str,
}

/// A per-layer metric from the traced run. `0` means the workload does not
/// exercise the call.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

pub const PER_LAYER: [PerLayer; 66] = [
    lo("vsmol.synth_s", "s"),
    lo("vsmol.detect_spots_s", "s"),
    lo("vsmol.detect_spots_calls", "count"),
    hi("vsmol.pdb_parse_atoms_per_s", "1/s"),
    hi("vsmol.sdf_parse_atoms_per_s", "1/s"),
    lo("vsscore.scorer_build_s", "s"),
    lo("vsscore.scorer_build_calls", "count"),
    hi("vsscore.grid_cache_hit_frac", "ratio"),
    lo("vsscore.grid_bytes", "bytes"),
    lo("vsscore.serial_us_per_eval", "us"),
    lo("vsscore.pool_us_per_eval", "us"),
    lo("vsscore.cells_us_per_eval", "us"),
    lo("vsscore.pairs_per_eval", "count"),
    lo("metaheur.run_s", "s"),
    lo("metaheur.evaluate_s", "s"),
    lo("metaheur.evaluate_calls", "count"),
    hi("metaheur.batch_items_p50", "count"),
    lo("metaheur.evaluate_p50_ms", "ms"),
    lo("metaheur.evaluate_p99_ms", "ms"),
    lo("metaheur.generations", "count"),
    lo("metaheur.engine_self_s", "s"),
    hi("metaheur.scoring_stage_busy_frac", "ratio"),
    lo("metaheur.engine_only_us_per_eval", "us"),
    lo("metaheur.cpu_evaluator_us_per_eval", "us"),
    lo("vsched.device_us_per_eval", "us"),
    lo("vsched.dispatch_us_per_eval", "us"),
    lo("vsched.evaluator_new_s", "s"),
    lo("vsched.evaluator_new_calls", "count"),
    lo("vsched.steals", "count"),
    lo("vsched.oracle_reseeds", "count"),
    lo("vsched.replay_us_per_batch", "us"),
    lo("gpusim.virtual_makespan_s", "virtual_s"),
    lo("gpusim.device_idle_frac", "ratio"),
    lo("gpusim.device_busy_virtual_s", "virtual_s"),
    lo("gpusim.cost_ns_per_call", "ns"),
    lo("vscluster.setup_s", "s"),
    lo("vscluster.submit_s", "s"),
    lo("vscluster.drain_s", "s"),
    lo("vscluster.drain_us_per_job", "us"),
    lo("vscluster.drain_scaling_exp", "ratio"),
    hi("vscluster.cache_hits", "count"),
    lo("vscluster.requeued_jobs", "count"),
    hi("vscluster.utilization", "ratio"),
    lo("vscluster.queue_p50_virtual_s", "virtual_s"),
    lo("vscluster.queue_p99_virtual_s", "virtual_s"),
    lo("vscluster.interactive_p99_virtual_s", "virtual_s"),
    lo("vstrace.overhead_frac", "ratio"),
    lo("vstrace.events", "count"),
    lo("vstrace.dropped", "count"),
    lo("vstrace.export_s", "s"),
    lo("vstrace.emit_ns_per_event", "ns"),
    lo("vscreen.build_s", "s"),
    lo("vscreen.run_s", "s"),
    lo("vscreen.run_overhead_s", "s"),
    lo("self.vsmol_s", "s"),
    lo("self.vsscore_s", "s"),
    lo("self.metaheur_s", "s"),
    lo("self.vsched_s", "s"),
    lo("self.vscluster_s", "s"),
    lo("self.harness_s", "s"),
    hi("trace.closure_frac", "ratio"),
    lo("trace.harness_overhead_frac", "ratio"),
    lo("trace.traced_wall_s", "s"),
    lo("trace.reference_wall_s", "s"),
    lo("trace.spans", "count"),
    lo("trace.failed_frac", "ratio"),
];

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
    "run",
];

pub const PATHS: [&str; 1] = ["perfbench"];

/// Seconds one run measures for; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 24;

/// Why each workload exists, in one line.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::DockPairs => {
            "Paper configuration (2BSM, fused O(N*M) kernel, M2, Eq. 1 split): the pair kernel is >=99% of host time, so only kernel work may move it"
        }
        Workload::DockGrid => {
            "O(ligand) grid kernel on 2BXG, oracle strategy, pipelined engine: host time moves to dispatch, engine and cost model; grid build lands in setup_s"
        }
        Workload::LibraryGrid => {
            "32 varied ligands against one receptor: per-ligand scorer builds, grid-cache hits and misses and evaluator spawns dominate, so construction cost shows"
        }
        Workload::CampaignBurst => {
            "Bursty multi-tenant traffic through vscluster::Service on 32 nodes: pure control plane, zero scoring, super-linear drain cost"
        }
    }
}

/// The content of `BENCHMARK.json`.
pub fn schema() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(why(*w)))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// [`schema`] laid out one entry per line, as committed.
pub fn schema_text() -> String {
    let Json::Obj(fields) = schema() else { unreachable!("schema is an object") };
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let last = i + 1 == fields.len();
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str(if last { "  ]\n" } else { "  ],\n" });
            }
            other => {
                let comma = if last { "" } else { "," };
                out.push_str(&format!("  \"{key}\": {}{comma}\n", other.render()));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(Workload::ALL.iter().all(|w| why(*w).len() <= 200 && !why(*w).contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn reported_statistic_and_its_spread() {
        let times = [5.0, 4.0, 4.1, 6.0, 4.2, 7.0, 4.05];
        let (best, spread) = Stat::Best.of(Better::Lower, &times);
        assert_eq!(best, 4.0);
        assert!((spread - 0.0125).abs() < 1e-12, "q1 is 4.05: {spread}");
        let rates = [10.0, 9.0, 9.9, 5.0];
        let (best, spread) = Stat::Best.of(Better::Higher, &rates);
        assert_eq!(best, 10.0);
        assert!((spread - 0.0025).abs() < 1e-12, "q3 is 9.975: {spread}");
        let (median, spread) = Stat::Median.of(Better::Lower, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((median, spread), (4.0, 1.0));
        assert_eq!(Stat::Best.of(Better::Lower, &[3.0]), (3.0, 0.0));
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, schema_text(), "regenerate with `perf schema > BENCHMARK.json`");
        let parsed = vstrace::json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = parsed.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert!(committed.len() < 64 * 1024);
    }
}
