//! `perf compare A.json B.json`: per workload and end-to-end metric, the
//! two reported values with their spreads, the change, the bound and a verdict.
//! Virtual-time and other exact results are compared for equality. Any
//! regression makes the exit code non-zero. `perf table` renders result
//! files as the markdown baseline table.

use crate::json;
use crate::metrics::{Better, END_TO_END, EXACT};
use vstrace::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows, and by more than the runs scatter.
    Regressed,
    /// The run-to-run spread is wider than the bound (or than the change),
    /// so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Direction-aware worsening of `b` against `a` as a share of `a`:
/// positive when `b` is worse.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `worse` is the worsening of the second set's value, `noise` the wider
/// of the two sets' spreads, both as shares of the value.
pub fn verdict(worse: f64, noise: f64, bound: f64) -> Verdict {
    if worse > bound {
        if worse > noise {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = vstrace::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match json::text(&doc, "schema") {
        Ok("vs-perf/1") => Ok(doc),
        _ => Err(format!("{path}: not a vs-perf/1 result file")),
    }
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    json::arr(doc, "workloads").ok()?.iter().find(|w| json::text(w, "name") == Ok(name))
}

/// Reported value and spread (`metrics::Stat::of`) of one end-to-end metric.
fn value_spread(entry: &Value, metric: &str) -> Result<(f64, f64), String> {
    let m = entry
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .ok_or_else(|| format!("no end-to-end metric {metric}"))?;
    Ok((json::num(m, "value")?, json::num(m, "spread")?))
}

/// Compare two result files; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut regressed = 0;
    let mut unresolved = 0;
    let mut compared = 0;
    println!(
        "{:<15} {:<26} {:>13} {:>7} {:>13} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A value", "A sprd", "B value", "B sprd", "worse", "bound"
    );
    for wa in json::arr(&a, "workloads")? {
        let name = json::text(wa, "name")?;
        let Some(wb) = workload(&b, name) else { continue };
        if wa.get("end_to_end").is_none() || wb.get("end_to_end").is_none() {
            continue;
        }
        compared += 1;
        for m in END_TO_END {
            let ((ma, sa), (mb, sb)) = (value_spread(wa, m.name)?, value_spread(wb, m.name)?);
            let worse = worsening(m.better, ma, mb);
            let v = verdict(worse, sa.max(sb), m.bound);
            regressed += usize::from(v == Verdict::Regressed);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{:<15} {:<26} {:>13.6} {:>6.1}% {:>13.6} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                name,
                format!("{} ({})", m.name, m.unit),
                ma,
                sa * 100.0,
                mb,
                sb * 100.0,
                worse * 100.0,
                m.bound * 100.0,
                v.as_str()
            );
        }
        for key in EXACT.map(|e| e.name) {
            let (va, vb) = (
                wa.get("exact").and_then(|e| e.get(key)),
                wb.get("exact").and_then(|e| e.get(key)),
            );
            let same = va == vb;
            regressed += usize::from(!same);
            println!(
                "{:<15} {:<26} {:>60}  {}",
                name,
                format!("{key} (exact)"),
                if same { "equal".to_string() } else { format!("{va:?} != {vb:?}") },
                if same { "ok" } else { "regressed" }
            );
        }
        let (fa, fb) = (json::num(wa, "failed_frac")?, json::num(wb, "failed_frac")?);
        let clean = fa == 0.0 && fb == 0.0;
        regressed += usize::from(!clean);
        println!(
            "{:<15} {:<26} {:>13} {:>7} {:>13} {:>31}  {}",
            name,
            "failed_frac (ratio)",
            fa,
            "",
            fb,
            "",
            if clean { "ok" } else { "regressed" }
        );
    }
    if compared == 0 {
        return Err("the two files share no workload with end-to-end results".to_string());
    }
    println!("{compared} workloads compared: {regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

/// Render result files as markdown: one end-to-end table and, where a
/// file holds a traced run, one per-layer table.
pub fn table(paths: &[String]) -> Result<(), String> {
    let docs: Vec<Value> = paths.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let env = |doc: &Value, key: &str| {
        doc.get("env").and_then(|e| e.get(key)).map_or("?".to_string(), |v| match v {
            Value::Num(n) => format!("{n}"),
            Value::Str(s) => s.clone(),
            _ => "?".to_string(),
        })
    };
    for doc in &docs {
        println!(
            "<!-- seed {} · {} cores · {} · commit {} · {} build -->",
            json::num(doc, "seed")?,
            env(doc, "nproc"),
            env(doc, "rustc"),
            env(doc, "git_commit"),
            env(doc, "profile")
        );
    }
    println!("\n| workload | metric | unit | domain | value | stat | median | min | max | n |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for w in docs.iter().flat_map(|d| json::arr(d, "workloads").unwrap_or(&[])) {
        let Some(e2e) = w.get("end_to_end") else { continue };
        let name = json::text(w, "name")?;
        for m in END_TO_END {
            let v = e2e.get(m.name).ok_or_else(|| format!("{name}: no {}", m.name))?;
            println!(
                "| `{name}` | `{}` | {} | host | {:.6} | {} | {:.6} | {:.6} | {:.6} | {} |",
                m.name,
                m.unit,
                json::num(v, "value")?,
                json::text(v, "stat")?,
                json::num(v, "median")?,
                json::num(v, "min")?,
                json::num(v, "max")?,
                json::num(v, "n")?
            );
        }
        for e in EXACT {
            let shown = match w.get("exact").and_then(|x| x.get(e.name)) {
                Some(Value::Num(n)) => format!("{n}"),
                Some(Value::Str(s)) => s.clone(),
                _ => continue,
            };
            println!(
                "| `{name}` | `{}` | {} | {} | {shown} | exact | | | | |",
                e.name, e.unit, e.domain
            );
        }
        println!(
            "| `{name}` | `failed_frac` | ratio | - | {} | | | | | |",
            json::num(w, "failed_frac")?
        );
    }
    let traced: Vec<&Value> = docs
        .iter()
        .flat_map(|d| json::arr(d, "workloads").unwrap_or(&[]))
        .filter(|w| w.get("per_layer").is_some())
        .collect();
    if !traced.is_empty() {
        let names: Vec<&str> =
            traced.iter().map(|w| json::text(w, "name").unwrap_or("?")).collect();
        println!("\n| per-layer metric | unit | {} |", names.join(" | "));
        println!("|---|---|{}", "---|".repeat(names.len()));
        for m in crate::metrics::PER_LAYER {
            let cells: Vec<String> = traced
                .iter()
                .map(|w| {
                    w.get("per_layer")
                        .and_then(|p| p.get(m.name))
                        .and_then(|v| json::num(v, "value").ok())
                        .map_or("?".to_string(), |v| format!("{v:.6}"))
                })
                .collect();
            println!("| `{}` | {} | {} |", m.name, m.unit, cells.join(" | "));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.03, 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.03, 0.10), Verdict::Ok, "an improvement is not a regression");
        assert_eq!(verdict(0.15, 0.03, 0.10), Verdict::Regressed);
        assert_eq!(verdict(0.15, 0.20, 0.10), Verdict::Unresolved, "worse, but inside the noise");
        assert_eq!(verdict(0.02, 0.20, 0.10), Verdict::Unresolved, "spread wider than the bound");
        assert_eq!(verdict(0.50, 0.20, 0.10), Verdict::Regressed, "far outside the noise");
    }
}
