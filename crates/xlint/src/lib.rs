//! `xlint` — workspace static-analysis suite for repo invariants that
//! `rustc`/`clippy` flags cannot express (DESIGN.md §14).
//!
//! A token-tree lexer ([`lexer`]) feeds seven rules, gated per file by a
//! policy class ([`policy`]):
//!
//! | rule | deterministic-lib | host-tool | test |
//! |---------------------|---|---|---|
//! | `unsafe-safety`     | ✓ | ✓ | ✓ |
//! | `relaxed-ordering`  | ✓ | ✓ | ✓ |
//! | `no-panic`          | ✓ | ✓ | — |
//! | `crate-attrs`       | ✓ | ✓ | ✓ |
//! | `determinism`       | ✓ | — | — |
//! | `lock-order`        | ✓ | — | — |
//! | `model-coverage`    | ✓ | — | — |
//!
//! Violations print as `path:line: rule: message`; `--json` emits the full
//! [`report::Report`] including the model-coverage table that CI persists
//! to `target/XLINT_REPORT.json` and guards against regression.

#![forbid(unsafe_code)]

pub mod basic;
pub mod coverage;
pub mod determinism;
pub mod graph;
pub mod lexer;
pub mod lockorder;
pub mod policy;
pub mod report;
pub mod scope;

use std::path::{Path, PathBuf};

use policy::{collect_files, Class, FileEntry};
use report::{Report, Violation};

/// Number of rules the suite enforces (the `M rules` summary figure).
pub const RULE_COUNT: usize = 7;

/// Lint the workspace rooted at `root`.
pub fn run(root: &Path) -> Report {
    let (entries, io_errors) = collect_files(root);
    analyze(entries, io_errors)
}

/// Lint an in-memory file set. Public so tests can lint synthetic
/// workspaces (golden files, seeded mutations) without touching disk.
pub fn analyze(entries: Vec<FileEntry>, io_errors: Vec<(PathBuf, String)>) -> Report {
    let mut report = Report { files: entries.len(), rules: RULE_COUNT, ..Default::default() };
    for (rel, err) in io_errors {
        report.violations.push(Violation {
            file: rel,
            line: 1,
            rule: "io",
            message: format!("unreadable: {err}"),
        });
    }

    // Lex once; everything downstream shares the token stream.
    let lexed: Vec<lexer::SourceFile> = entries.iter().map(|e| lexer::lex(&e.src)).collect();
    let in_test: Vec<Vec<bool>> = entries
        .iter()
        .zip(&lexed)
        .map(|(e, sf)| {
            if e.class == Class::Test {
                vec![true; sf.lines.len()]
            } else {
                scope::test_scope(sf)
            }
        })
        .collect();

    report.waivers = lexed.iter().map(|sf| scope::count_waivers(&sf.lines)).sum();

    // Rules 1–3 per file.
    for ((e, sf), scope) in entries.iter().zip(&lexed).zip(&in_test) {
        report.violations.extend(basic::scan_file(e, &sf.lines, scope));
    }

    // Rule 4 per crate `src/` tree.
    let mut crate_keys: Vec<String> = Vec::new();
    for e in &entries {
        let rel = e.rel.to_string_lossy().replace('\\', "/");
        if let Some(pos) = rel.find("/src/") {
            let key = rel[..pos].to_string();
            if !crate_keys.contains(&key) {
                crate_keys.push(key);
            }
        }
    }
    for key in &crate_keys {
        let group: Vec<(&Path, &[lexer::LexedLine])> = entries
            .iter()
            .zip(&lexed)
            .filter(|(e, _)| {
                let rel = e.rel.to_string_lossy().replace('\\', "/");
                rel.starts_with(&format!("{key}/src/"))
            })
            .map(|(e, sf)| (e.rel.as_path(), sf.lines.as_slice()))
            .collect();
        report.violations.extend(basic::check_crate_attrs(Path::new(key), &group));
    }

    // Determinism pass: deterministic-lib production code only. Hash-typed
    // binding names are pooled across those crates so a field declared in
    // one module is recognized when a sibling module iterates it.
    let mut hash_bindings: Vec<String> = entries
        .iter()
        .zip(&lexed)
        .filter(|(e, _)| e.class == Class::DeterministicLib)
        .flat_map(|(_, sf)| determinism::hash_bindings(sf))
        .collect();
    hash_bindings.sort();
    hash_bindings.dedup();
    for ((e, sf), scope) in entries.iter().zip(&lexed).zip(&in_test) {
        if e.class == Class::DeterministicLib {
            report.violations.extend(determinism::check(e, sf, scope, &hash_bindings));
        }
    }

    // Structural facts for the whole workspace (coverage BFS spans it)…
    let facts: Vec<graph::FileFacts> = entries
        .iter()
        .zip(&lexed)
        .zip(&in_test)
        .enumerate()
        .map(|(i, ((e, sf), scope))| graph::file_facts(i, &e.crate_name, sf, scope))
        .collect();

    // …but lock-order polices the deterministic crates.
    let det: Vec<(&Path, &graph::FileFacts)> = entries
        .iter()
        .zip(&facts)
        .filter(|(e, _)| e.class == Class::DeterministicLib)
        .map(|(e, f)| (e.rel.as_path(), f))
        .collect();
    report.violations.extend(lockorder::check(&det));

    let (coverage, cov_violations) = coverage::check(&entries, &facts);
    report.coverage = coverage;
    report.violations.extend(cov_violations);

    report.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Convenience for tests: lint a synthetic workspace given
/// `(repo-relative path, source)` pairs. Classes are inferred exactly as
/// [`policy::collect_files`] would from the paths.
pub fn lint_sources(files: &[(&str, &str)]) -> Report {
    let entries: Vec<FileEntry> = files
        .iter()
        .map(|(rel, src)| {
            let rel_str = rel.replace('\\', "/");
            let crate_name = rel_str
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or_else(|| rel_str.split('/').next().unwrap_or("workspace"))
                .to_string();
            let class = if rel_str.starts_with("examples/")
                || rel_str.starts_with("tests/")
                || rel_str.contains("/tests/")
            {
                Class::Test
            } else if ["xlint", "vscheck", "bench"].contains(&crate_name.as_str()) {
                Class::HostTool
            } else {
                Class::DeterministicLib
            };
            FileEntry {
                rel: PathBuf::from(&rel_str),
                src: src.to_string(),
                crate_name,
                class,
                is_facade: rel_str.ends_with("/src/sync.rs"),
                is_bin: rel_str.contains("/src/bin/") || rel_str.ends_with("/src/main.rs"),
            }
        })
        .collect();
    analyze(entries, Vec::new())
}
