//! The `model-coverage` pass: every production module that imports a sync
//! facade (`crate::sync` / `vscheck::sync`) holds concurrency logic the
//! model checker is supposed to exercise, so each must be reachable from
//! at least one `model_*` test somewhere in the workspace.
//!
//! Reachability is breadth-first over the name-resolved call graph
//! starting at every function whose name starts with `model_`; a module
//! is covered when the walk reaches any function defined in it (or when
//! it defines a model test itself). Calls resolve by name only, so the
//! walk stays inside the test's own crate: a model suite exercises the
//! facade of its crate, and a same-named function in another crate is
//! not what it calls. The resulting table is part of the report — CI
//! persists it to `target/XLINT_REPORT.json` and requires every module
//! in it to be covered.

use std::collections::BTreeMap;

use crate::graph::FileFacts;
use crate::policy::{Class, FileEntry};
use crate::report::{ModuleCoverage, Violation};

/// Compute the coverage table and the violations for uncovered modules.
/// `facts[i]` describes `entries[i]`.
pub fn check(entries: &[FileEntry], facts: &[FileFacts]) -> (Vec<ModuleCoverage>, Vec<Violation>) {
    // Global fn table + name index (same shape as the lock-order pass).
    let mut fn_offset = Vec::with_capacity(facts.len());
    let mut fn_file = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut total = 0usize;
    for (fi, f) in facts.iter().enumerate() {
        fn_offset.push(total);
        for (i, d) in f.fns.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(total + i);
            fn_file.push(fi);
        }
        total += f.fns.len();
    }
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (fi, f) in facts.iter().enumerate() {
        for c in &f.calls {
            if let Some(targets) = by_name.get(c.callee.as_str()) {
                callees[fn_offset[fi] + c.caller].extend(targets.iter().copied());
            }
        }
    }

    // BFS from each model_ test within its crate; remember which tests
    // reach which file.
    let mut reached_by: Vec<Vec<String>> = vec![Vec::new(); entries.len()];
    for (fi, f) in facts.iter().enumerate() {
        let own_crate = &entries[fi].crate_name;
        for (i, d) in f.fns.iter().enumerate() {
            if !d.name.starts_with("model_") {
                continue;
            }
            let mut seen = vec![false; total];
            let mut queue = vec![fn_offset[fi] + i];
            seen[fn_offset[fi] + i] = true;
            while let Some(g) = queue.pop() {
                let file = fn_file[g];
                if !reached_by[file].contains(&d.name) {
                    reached_by[file].push(d.name.clone());
                }
                for &c in &callees[g] {
                    if !seen[c] && entries[fn_file[c]].crate_name == *own_crate {
                        seen[c] = true;
                        queue.push(c);
                    }
                }
            }
        }
    }

    let mut coverage = Vec::new();
    let mut violations = Vec::new();
    for (fi, e) in entries.iter().enumerate() {
        // Facade modules themselves are the seam, not a subject; only the
        // deterministic crates owe model coverage (tests and harnesses
        // import facades to *drive* the subjects, not to be driven).
        if facts[fi].facade_imports.is_empty() || e.is_facade || e.class != Class::DeterministicLib
        {
            continue;
        }
        let module = e.rel.to_string_lossy().replace('\\', "/");
        let mut tests = reached_by[fi].clone();
        tests.sort();
        tests.truncate(8); // keep the report readable
        if tests.is_empty() {
            violations.push(Violation {
                file: e.rel.clone(),
                line: 1,
                rule: "model-coverage",
                message: format!(
                    "module imports `{}` but no `model_*` test reaches it: add a model suite \
                     or drive it from an existing one",
                    facts[fi].facade_imports.join("`, `")
                ),
            });
        }
        coverage.push(ModuleCoverage {
            module,
            facade: facts[fi].facade_imports.join(", "),
            tests,
        });
    }
    (coverage, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::file_facts;
    use crate::lexer::lex;
    use crate::policy::Class;
    use crate::scope::test_scope;
    use std::path::PathBuf;

    /// Check `(path, source)` files, each in the crate its
    /// `crates/<name>/` path names.
    fn run(files: &[(&str, &str)]) -> (Vec<ModuleCoverage>, Vec<Violation>) {
        let mut entries = Vec::new();
        let mut facts = Vec::new();
        for (i, (rel, src)) in files.iter().enumerate() {
            let crate_name = rel.split('/').nth(1).unwrap_or("demo");
            let sf = lex(src);
            let in_test = test_scope(&sf);
            facts.push(file_facts(i, crate_name, &sf, &in_test));
            entries.push(FileEntry {
                rel: PathBuf::from(rel),
                src: src.to_string(),
                crate_name: crate_name.into(),
                class: Class::DeterministicLib,
                is_facade: rel.ends_with("/src/sync.rs"),
                is_bin: false,
            });
        }
        check(&entries, &facts)
    }

    #[test]
    fn module_with_local_model_test_is_covered() {
        let (cov, v) = run(&[(
            "crates/demo/src/queue.rs",
            "use crate::sync::Mutex;\nfn push(&self) {}\n#[cfg(all(test, feature = \"vscheck-model\"))]\nmod model {\n    fn model_queue() { push(); }\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(cov.len(), 1);
        assert_eq!(cov[0].tests, ["model_queue"]);
    }

    #[test]
    fn module_reached_cross_file_is_covered() {
        let (cov, v) = run(&[
            (
                "crates/demo/src/runtime.rs",
                "use crate::sync::Condvar;\npub fn tick(&self) { self.step(); }\npub fn step(&self) {}\n",
            ),
            (
                "crates/demo/src/executor.rs",
                "pub fn drive(&self) { tick(); }\n#[cfg(test)]\nmod model {\n    fn model_exec() { drive(); }\n}\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
        let runtime = cov.iter().find(|m| m.module.ends_with("runtime.rs")).unwrap();
        assert_eq!(runtime.tests, ["model_exec"]);
    }

    #[test]
    fn same_named_function_in_another_crate_does_not_cover() {
        // `model_channel` in `chan` calls its own `enqueue`; `deque` also
        // defines an `enqueue`, which name-only resolution would join to it.
        let (cov, v) = run(&[
            (
                "crates/chan/src/channel.rs",
                "use crate::sync::Mutex;\npub fn enqueue(&self) {}\n#[cfg(test)]\nmod model {\n    fn model_channel() { enqueue(); }\n}\n",
            ),
            ("crates/deque/src/deque.rs", "use crate::sync::Mutex;\npub fn enqueue(&self) {}\n"),
        ]);
        let deque = cov.iter().find(|m| m.module.ends_with("deque.rs")).unwrap();
        assert!(deque.tests.is_empty(), "{deque:?}");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].file.ends_with("deque.rs"), "{v:?}");
        let channel = cov.iter().find(|m| m.module.ends_with("channel.rs")).unwrap();
        assert_eq!(channel.tests, ["model_channel"]);
    }

    #[test]
    fn uncovered_facade_user_flagged() {
        let (cov, v) =
            run(&[("crates/demo/src/orphan.rs", "use crate::sync::Mutex;\nfn lonely(&self) {}\n")]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "model-coverage");
        assert!(cov[0].tests.is_empty());
    }

    #[test]
    fn facade_itself_and_non_importers_not_in_table() {
        let (cov, v) = run(&[
            ("crates/demo/src/sync.rs", "pub use std::sync::Mutex;\n"),
            ("crates/demo/src/math.rs", "pub fn add(a: u32, b: u32) -> u32 { a + b }\n"),
        ]);
        assert!(cov.is_empty(), "{cov:?}");
        assert!(v.is_empty(), "{v:?}");
    }
}
