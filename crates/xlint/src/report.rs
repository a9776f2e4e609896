//! Violations, the machine-readable report, and its JSON encoding.
//!
//! The JSON is hand-rolled (no serde dependency in the linter) and stable:
//! CI redirects `xlint --json` into `target/XLINT_REPORT.json` and greps
//! scalar fields, so every scalar is emitted on its own line.

use std::fmt;
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Model-check coverage of one sync-facade-using module.
#[derive(Debug, Clone)]
pub struct ModuleCoverage {
    /// Repo-relative module path.
    pub module: String,
    /// The facade it imports (e.g. `vsscore::sync`).
    pub facade: String,
    /// `model_*` tests that reach a function defined in this module.
    pub tests: Vec<String>,
}

/// The full analysis result.
#[derive(Debug, Default)]
pub struct Report {
    pub files: usize,
    pub rules: usize,
    /// `SAFETY:`/`PANICS:`/`DETERMINISM:` waiver comments seen in scanned
    /// files — tracked so bench trajectory tooling can watch waiver creep.
    pub waivers: usize,
    pub violations: Vec<Violation>,
    pub coverage: Vec<ModuleCoverage>,
}

impl Report {
    pub fn coverage_covered(&self) -> usize {
        self.coverage.iter().filter(|m| !m.tests.is_empty()).count()
    }

    /// The one-line summary: `N files, M rules, K waivers, coverage X/Y
    /// modules`.
    pub fn summary(&self) -> String {
        format!(
            "{} files, {} rules, {} waivers, coverage {}/{} modules",
            self.files,
            self.rules,
            self.waivers,
            self.coverage_covered(),
            self.coverage.len()
        )
    }

    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"files\": {},\n", self.files));
        s.push_str(&format!("  \"rules\": {},\n", self.rules));
        s.push_str(&format!("  \"waivers\": {},\n", self.waivers));
        s.push_str(&format!("  \"violation_count\": {},\n", self.violations.len()));
        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&v.file.to_string_lossy().replace('\\', "/")),
                v.line,
                json_str(v.rule),
                json_str(&v.message)
            ));
        }
        s.push_str(if self.violations.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"coverage\": {\n");
        s.push_str(&format!("    \"covered\": {},\n", self.coverage_covered()));
        s.push_str(&format!("    \"total\": {},\n", self.coverage.len()));
        s.push_str("    \"modules\": [");
        for (i, m) in self.coverage.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let tests: Vec<String> = m.tests.iter().map(|t| json_str(t)).collect();
            s.push_str(&format!(
                "\n      {{\"module\": {}, \"facade\": {}, \"tests\": [{}]}}",
                json_str(&m.module),
                json_str(&m.facade),
                tests.join(", ")
            ));
        }
        s.push_str(if self.coverage.is_empty() { "]\n" } else { "\n    ]\n" });
        s.push_str("  },\n");
        s.push_str(&format!("  \"summary\": {}\n", json_str(&self.summary())));
        s.push_str("}\n");
        s
    }
}

/// Minimal JSON string encoder (control chars, quotes, backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_format() {
        let mut r = Report { files: 3, rules: 7, waivers: 2, ..Default::default() };
        r.coverage.push(ModuleCoverage {
            module: "crates/a/src/x.rs".into(),
            facade: "a::sync".into(),
            tests: vec!["model_x".into()],
        });
        r.coverage.push(ModuleCoverage {
            module: "crates/b/src/y.rs".into(),
            facade: "b::sync".into(),
            tests: vec![],
        });
        assert_eq!(r.summary(), "3 files, 7 rules, 2 waivers, coverage 1/2 modules");
    }

    #[test]
    fn json_escapes_and_scalar_lines() {
        let r = Report {
            files: 1,
            rules: 7,
            waivers: 0,
            violations: vec![Violation {
                file: PathBuf::from("a\\b.rs"),
                line: 7,
                rule: "no-panic",
                message: "has \"quotes\" and\nnewline".into(),
            }],
            coverage: vec![],
        };
        let j = r.to_json();
        assert!(j.contains("\"violation_count\": 1,\n"), "{j}");
        assert!(j.contains("\\\"quotes\\\""), "{j}");
        assert!(j.contains("\\n"), "{j}");
        assert!(j.contains("a/b.rs"), "backslash paths normalized: {j}");
        assert!(j.contains("\"covered\": 0,\n"), "{j}");
    }
}
