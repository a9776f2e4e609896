//! `perf` — the layered end-to-end benchmark of this repository.
//!
//! ```text
//! perf run [--workload W] [--seed N] [--seconds S | --reps R]
//!          [--trace 0|1 | --traced] [--smoke] [--out FILE]
//! perf compare A.json B.json
//! perf table FILE.json...
//! perf schema
//! ```
//!
//! `run` prints every metric by name with its unit and domain, checks the
//! outputs, writes a result file under `<target dir>/perf/` and ends with
//! one JSON line for the benchmark driver. Without `--trace 1` it measures
//! the end-to-end metrics with tracing off, over repetitions that each run
//! in a fresh child process; with it, one child makes the traced passes
//! that yield the per-layer metrics and writes
//! `<target dir>/perf/<workload>.trace.json` in chrome-trace form.
//! See `README.md` beside `Cargo.toml` for the glossary.

mod calib;
mod checks;
mod compare;
#[cfg(test)]
mod equivalence;
mod json;
mod metrics;
mod procfs;
mod run;
mod spans;
mod stack;
mod stats;
mod traced;
mod workloads;

use json::Json;
use run::RunArgs;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: perf run [--workload W] [--seed N] [--seconds S | --reps R] \
                     [--trace 0|1 | --traced] [--smoke] [--out FILE]\n       \
                     perf compare A.json B.json\n       perf table FILE.json...\n       perf schema";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workloads.push(Workload::parse(value()?)?),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--reps" => out.reps = Some(value()?.parse().map_err(|e| format!("--reps: {e}"))?),
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => out.traced = true,
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(value()?.into()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(out)
}

/// One repetition in this process; prints one JSON line.
fn rep(args: &RunArgs) -> Result<(), String> {
    let [w] = args.workloads[..] else {
        return Err("rep needs exactly one --workload".to_string());
    };
    let line = if args.traced {
        let t = traced::run(w, args.seed, args.smoke);
        let dir = run::output_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", w.name()));
        std::fs::write(&path, t.recorder.chrome_trace(w.name(), 0).render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Int(args.seed)),
            ("traced", Json::Bool(true)),
            ("layers", Json::obj(t.layers.iter().map(|(k, v)| (k, Json::Num(v))))),
            ("notes", Json::obj(t.layers.notes.iter().map(|(k, v)| (*k, Json::str(v.clone()))))),
            ("trace_file", Json::str(path.display().to_string())),
            ("attempted", Json::Int(t.checks.attempted)),
            ("failed", Json::Int(t.checks.failed)),
            ("messages", Json::Arr(t.checks.messages.into_iter().map(Json::str).collect())),
        ])
    } else {
        let r = workloads::rep(w, args.seed, args.smoke);
        Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Int(args.seed)),
            ("traced", Json::Bool(false)),
            ("setup_s", Json::Num(r.setup_s)),
            ("wall_s", Json::nums(&r.wall_s)),
            ("cpu_s", Json::nums(&r.cpu_s)),
            ("calibrated", Json::Bool(r.calibrated)),
            ("setup_speed", Json::Num(r.setup_speed)),
            ("speed", Json::nums(&r.speed)),
            ("ops", Json::Int(r.ops)),
            ("peak_rss_mb", Json::Num(r.peak_rss_mb)),
            ("virtual_makespan_s", Json::Num(r.virtual_makespan_s)),
            (
                "interactive_p99_virtual_s",
                r.interactive_p99_virtual_s.map_or(Json::Null, Json::Num),
            ),
            ("best_bits", Json::str(format!("{:#018x}", r.best_bits))),
            ("evaluations", Json::Int(r.evaluations)),
            ("attempted", Json::Int(r.checks.attempted)),
            ("failed", Json::Int(r.checks.failed)),
            ("messages", Json::Arr(r.checks.messages.into_iter().map(Json::str).collect())),
        ])
    };
    println!("{}", line.render());
    Ok(())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" | "rep" => {
            let parsed = parse_run(rest)?;
            if cfg!(debug_assertions) {
                return Err("built with debug_assertions: measure a --release build".to_string());
            }
            if command == "rep" {
                rep(&parsed).map(|()| true)
            } else {
                run::run(&parsed)
            }
        }
        "compare" => match rest {
            [a, b] => compare::compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        "table" if !rest.is_empty() => compare::table(rest).map(|()| true),
        "schema" => {
            print!("{}", metrics::schema_text());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
