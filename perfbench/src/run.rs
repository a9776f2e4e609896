//! `perf run`: the single-threaded parent. It spawns itself once per
//! repetition (`perf rep …`), strictly one child at a time, so every
//! repetition pays a cold set-up; pools the repetitions' samples and
//! reports each metric's statistic (`metrics::Stat`) with n, median, min
//! and max; prints every metric by name with its unit and domain; writes a result
//! file that records environment and identity; and ends with the one-line
//! JSON summary the benchmark driver reads.

use crate::json::{self, Json};
use crate::metrics::{Stat, END_TO_END, EXACT, PER_LAYER, RUN_SECONDS};
use crate::stats;
use crate::workloads::{config, describe, Workload};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use vstrace::json::Value;

/// Fewest repetitions (cold set-ups) of a run.
const MIN_REPS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Empty means all four.
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Keep starting repetitions until this much time has passed.
    pub seconds: f64,
    /// Exactly this many repetitions instead of a time budget.
    pub reps: Option<usize>,
    pub traced: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs {
            workloads: Vec::new(),
            seed: 2016,
            seconds: RUN_SECONDS as f64,
            reps: None,
            traced: false,
            smoke: false,
            out: None,
        }
    }
}

/// `<target dir>/perf`, next to the directory the executable was built in.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/perf"));
    exe.parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perf")
}

/// Run one child to completion and parse the JSON object on its last
/// stdout line. The child's stderr passes through.
fn child(w: Workload, args: &RunArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["rep", "--workload", w.name(), "--seed", &args.seed.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition of {} ended with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("repetition printed nothing")?;
    vstrace::json::parse(line).map_err(|e| format!("repetition output: {e}"))
}

/// One workload's share of a result file, plus what the summary line needs.
struct Outcome {
    file_entry: Json,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` for the driver's summary line.
    summary: Vec<(&'static str, &'static str, f64)>,
}

fn messages(reps: &[Value]) -> Vec<String> {
    let mut all = Vec::new();
    for r in reps {
        for msg in json::arr(r, "messages").unwrap_or(&[]) {
            all.extend(msg.as_str().map(str::to_string));
        }
    }
    all
}

fn counts(reps: &[Value]) -> Result<(u64, u64), String> {
    let mut totals = (0, 0);
    for r in reps {
        totals.0 += json::num(r, "attempted")? as u64;
        totals.1 += json::num(r, "failed")? as u64;
    }
    Ok(totals)
}

fn end_to_end(w: Workload, args: &RunArgs) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut reps: Vec<Value> = Vec::new();
    loop {
        reps.push(child(w, args)?);
        let done = match args.reps {
            Some(n) => reps.len() >= n.max(1),
            None => reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= args.seconds,
        };
        if done {
            break;
        }
    }

    // One sample per repetition, or one per run of the timed region.
    let per_rep = |key: &str| -> Result<Vec<f64>, String> {
        reps.iter().map(|r| json::num(r, key)).collect()
    };
    let per_region = |key: &str| -> Result<Vec<f64>, String> {
        let mut all = Vec::new();
        for r in &reps {
            for v in json::arr(r, key)? {
                all.push(v.as_num().ok_or_else(|| format!("{key} holds a non-number"))?);
            }
        }
        Ok(all)
    };
    let ops = json::num(&reps[0], "ops")?;
    let calibrated = reps[0].get("calibrated") == Some(&Value::Bool(true));
    // Host times at reference speed: measured seconds times the machine's
    // speed while they were measured (1 for an uncalibrated workload).
    let scaled = |values: Vec<f64>, speeds: Vec<f64>| -> Vec<f64> {
        values.iter().zip(speeds).map(|(v, s)| v * s).collect()
    };
    let samples = |name: &str| -> Result<Vec<f64>, String> {
        Ok(match name {
            "setup_s" => scaled(per_rep(name)?, per_rep("setup_speed")?),
            "wall_s" | "cpu_s" => scaled(per_region(name)?, per_region("speed")?),
            "ops_per_s" => scaled(per_region("wall_s")?, per_region("speed")?)
                .iter()
                .map(|w| ops / w)
                .collect(),
            other => per_rep(other)?,
        })
    };

    let (attempted, mut failed) = counts(&reps)?;
    let mut notes = messages(&reps);

    // Everything that is not host time must repeat exactly.
    let mut exact = Vec::new();
    for e in EXACT {
        let first = reps[0].get(e.name).cloned().unwrap_or(Value::Null);
        if reps.iter().any(|r| r.get(e.name).unwrap_or(&Value::Null) != &first) {
            failed += 1;
            notes.push(format!("{} differs between repetitions of one set", e.name));
        }
        exact.push((e, first));
    }

    println!(
        "{} seed={} reps={} (one op = one {}{})",
        w.name(),
        args.seed,
        reps.len(),
        w.op(),
        if calibrated { "; host times at reference speed" } else { "" }
    );
    let mut fields = Vec::new();
    let mut summary = Vec::new();
    for m in END_TO_END {
        let v = samples(m.name)?;
        let stat = m.stat.for_workload(calibrated);
        let (value, spread) = stat.of(m.better, &v);
        let (med, (lo, hi)) = (stats::median(&v), stats::min_max(&v));
        println!(
            "  {:<28} {:<10} host     {:<14.6} {} of n={} (median {:.6} min {:.6} max {:.6}; {} is better, bound {:.0}%)",
            m.name,
            m.unit,
            value,
            stat.as_str(),
            v.len(),
            med,
            lo,
            hi,
            m.better.as_str(),
            m.bound * 100.0
        );
        fields.push((
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("domain", Json::str("host")),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
                ("stat", Json::str(stat.as_str())),
                ("at_reference_speed", Json::Bool(calibrated && m.stat == Stat::Best)),
                ("value", Json::Num(value)),
                ("spread", Json::Num(spread)),
                ("median", Json::Num(med)),
                ("min", Json::Num(lo)),
                ("max", Json::Num(hi)),
                ("n", Json::Int(v.len() as u64)),
                ("values", Json::nums(&v)),
            ]),
        ));
        summary.push((m.name, m.unit, value));
    }
    let mut exact_fields = Vec::new();
    for (e, value) in exact {
        let (shown, stored) = match &value {
            Value::Num(n) => (format!("{n}"), Json::Num(*n)),
            Value::Str(s) => (s.clone(), Json::str(s.clone())),
            _ => ("n/a".to_string(), Json::Null),
        };
        println!(
            "  {:<28} {:<10} {:<8} {shown} (identical in every repetition)",
            e.name, e.unit, e.domain
        );
        exact_fields.push((e.name, stored));
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<28} {:<10} -        {failed_frac} ({failed} of {attempted})",
        "failed_frac", "ratio"
    );
    for note in &notes {
        println!("  FAILED: {note}");
    }

    let file_entry = Json::obj([
        ("name", Json::str(w.name())),
        ("sizes", Json::str(describe(&config(w, args.smoke)))),
        ("op", Json::str(w.op())),
        ("reps", Json::Int(reps.len() as u64)),
        ("end_to_end", Json::obj(fields)),
        ("calibrated", Json::Bool(calibrated)),
        (
            "as_measured",
            Json::obj([
                ("setup_s", Json::nums(&per_rep("setup_s")?)),
                ("setup_speed", Json::nums(&per_rep("setup_speed")?)),
                ("wall_s", Json::nums(&per_region("wall_s")?)),
                ("cpu_s", Json::nums(&per_region("cpu_s")?)),
                ("speed", Json::nums(&per_region("speed")?)),
            ]),
        ),
        ("exact", Json::obj(exact_fields)),
        ("failed_frac", Json::Num(failed_frac)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("messages", Json::Arr(notes.into_iter().map(Json::str).collect())),
    ]);
    Ok(Outcome { file_entry, attempted, failed, summary })
}

fn per_layer(w: Workload, args: &RunArgs) -> Result<Outcome, String> {
    let rep = child(w, args)?;
    let layers = rep.get("layers").ok_or("traced repetition without layers")?;
    let (attempted, failed) = counts(std::slice::from_ref(&rep))?;
    let notes = messages(std::slice::from_ref(&rep));

    println!(
        "{} seed={} traced (0 = the workload does not exercise the call)",
        w.name(),
        args.seed
    );
    let mut fields = Vec::new();
    let mut summary = Vec::new();
    for m in PER_LAYER {
        let value = json::num(layers, m.name)?;
        let note = rep.get("notes").and_then(|n| n.get(m.name)).and_then(Value::as_str);
        let domain = if m.unit == "virtual_s" { "virtual" } else { "host" };
        println!(
            "  {:<36} {:<10} {:<8} {:<16.6} {}",
            m.name,
            m.unit,
            domain,
            value,
            note.unwrap_or("")
        );
        fields.push((
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("domain", Json::str(domain)),
                ("value", Json::Num(value)),
                ("note", note.map_or(Json::Null, Json::str)),
            ]),
        ));
        summary.push((m.name, m.unit, value));
    }
    for note in &notes {
        println!("  FAILED: {note}");
    }
    let file_entry = Json::obj([
        ("name", Json::str(w.name())),
        ("sizes", Json::str(describe(&config(w, args.smoke)))),
        ("per_layer", Json::obj(fields)),
        ("trace_file", rep.get("trace_file").and_then(Value::as_str).map_or(Json::Null, Json::str)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("messages", Json::Arr(notes.into_iter().map(Json::str).collect())),
    ]);
    Ok(Outcome { file_entry, attempted, failed, summary })
}

/// The commit checked out in the working directory, read from `.git`
/// there and nowhere above it.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| head.clone(), |c| c.trim().to_string()),
        None => head,
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("rustc", Json::str(rustc_version())),
        ("git_commit", Json::str(git_commit())),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// The driver's summary: one JSON object on one line.
fn summary_line(outcome: &Outcome) -> String {
    let metrics = outcome.summary.iter().map(|(name, unit, value)| {
        (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

pub fn run(args: &RunArgs) -> Result<bool, String> {
    let workloads =
        if args.workloads.is_empty() { Workload::ALL.to_vec() } else { args.workloads.clone() };
    let mut entries = Vec::new();
    let mut lines = Vec::new();
    let mut clean = true;
    for &w in &workloads {
        let outcome = if args.traced { per_layer(w, args)? } else { end_to_end(w, args)? };
        clean &= outcome.failed == 0;
        lines.push(summary_line(&outcome));
        entries.push(outcome.file_entry);
    }

    let set = match workloads.as_slice() {
        [one] => one.name(),
        _ => "all",
    };
    let path = args.out.clone().unwrap_or_else(|| {
        let kind = if args.traced { "traced" } else { "e2e" };
        output_dir().join(format!("{set}-seed{}-{kind}.json", args.seed))
    });
    let doc = Json::obj([
        ("schema", Json::str("vs-perf/1")),
        ("env", environment()),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("reps_requested", args.reps.map_or(Json::Null, |r| Json::Int(r as u64))),
        ("smoke", Json::Bool(args.smoke)),
        ("traced", Json::Bool(args.traced)),
        ("workloads", Json::Arr(entries)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    for line in lines {
        println!("{line}");
    }
    Ok(clean)
}
