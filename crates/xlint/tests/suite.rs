//! End-to-end suite over [`xlint::lint_sources`]: a golden clean
//! workspace, a golden dirty workspace whose full violation listing is
//! pinned, and one seeded mutation per rule proving each pass catches its
//! violation class. The mutations are the suite's self-test: if a pass
//! regresses into silence, the corresponding test here fails rather than
//! the workspace silently rotting.

use xlint::lint_sources;
use xlint::report::Report;

/// Crate root with the attribute rule 4 wants for an unsafe-free crate.
const LIB: &str = "//! Demo crate.\n#![forbid(unsafe_code)]\n\npub mod core;\npub mod sync;\n";

/// The reviewed sync facade (exempt from the raw-`std::sync` ban).
const SYNC: &str = "//! Reviewed sync facade.\npub use std::sync::{Mutex, MutexGuard};\n";

/// A module that satisfies all seven rules: facade import, one lock
/// order, Release/Acquire atomics, and a `model_` test reaching it.
const CORE: &str = "\
//! Core module.
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Core {
    a: Mutex<u32>,
    b: Mutex<u32>,
    seq: AtomicU64,
}

impl Core {
    pub fn run(&self) -> u32 {
        let g = self.a.lock();
        let h = self.b.lock();
        self.seq.store(1, Ordering::Release);
        *g + *h
    }

    pub fn observe(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_core() {
        let c = super::make();
        c.run();
        c.observe();
    }
}
";

fn lint(lib: &str, core: &str) -> Report {
    lint_sources(&[
        ("crates/det/src/lib.rs", lib),
        ("crates/det/src/sync.rs", SYNC),
        ("crates/det/src/core.rs", core),
    ])
}

fn rules(r: &Report) -> Vec<&str> {
    r.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn clean_workspace_is_clean() {
    let r = lint(LIB, CORE);
    assert!(r.violations.is_empty(), "{:#?}", r.violations);
    assert_eq!(r.files, 3);
    assert_eq!(r.coverage.len(), 1, "{:?}", r.coverage);
    assert!(r.coverage[0].module.ends_with("core.rs"), "{:?}", r.coverage);
    assert_eq!(r.coverage[0].tests, ["model_core"], "{:?}", r.coverage);
    assert_eq!(r.summary(), "3 files, 7 rules, 0 waivers, coverage 1/1 modules");
}

#[test]
fn json_report_has_greppable_coverage_scalars() {
    let json = lint(LIB, CORE).to_json();
    // ci.sh greps these scalars off their own lines; keep them there.
    assert!(json.contains("\"covered\": 1,"), "{json}");
    assert!(json.contains("\"total\": 1,"), "{json}");
    assert!(json.contains("\"violation_count\": 0,"), "{json}");
}

/// Golden dirty workspace: every pass fires at a pinned `path:line`.
#[test]
fn golden_dirty_listing() {
    let lib = "//! Demo crate.\n\npub mod core;\npub mod sync;\n";
    let core = "\
//! Core module.
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Core {
    a: Mutex<u32>,
    b: Mutex<u32>,
    seq: AtomicU64,
    tally: AtomicU64,
}

impl Core {
    pub fn run(&self) -> u32 {
        let t0 = std::time::Instant::now();
        let g = self.a.lock();
        let h = self.b.lock();
        self.seq.store(1, Ordering::Release);
        self.tally.fetch_add(1, Ordering::Relaxed);
        *g + *h
    }

    pub fn rev(&self) -> u32 {
        let h = self.b.lock();
        let g = self.a.lock();
        *g + *h
    }

    pub fn boom(&self) -> u32 {
        self.maybe().unwrap()
    }

    pub fn raw(p: *const u32) -> u32 {
        unsafe { *p }
    }
}
";
    let r = lint(lib, core);
    let got: Vec<String> = r
        .violations
        .iter()
        .map(|v| format!("{}:{}: {}", v.file.display(), v.line, v.rule))
        .collect();
    assert_eq!(
        got,
        [
            "crates/det/src/core.rs:1: model-coverage",
            "crates/det/src/core.rs:14: determinism",
            "crates/det/src/core.rs:16: lock-order",
            "crates/det/src/core.rs:18: relaxed-ordering",
            "crates/det/src/core.rs:24: lock-order",
            "crates/det/src/core.rs:29: no-panic",
            "crates/det/src/core.rs:33: unsafe-safety",
            "crates/det/src/lib.rs:1: crate-attrs",
        ],
        "{:#?}",
        r.violations
    );
}

// --- One seeded mutation per rule -----------------------------------

#[test]
fn mutation_unsafe_without_safety_comment_is_caught() {
    let core = CORE.replace(
        "    pub fn observe(",
        "    pub fn raw(p: *const u32) -> u32 {\n        unsafe { *p }\n    }\n\n    pub fn observe(",
    );
    assert!(rules(&lint(LIB, &core)).contains(&"unsafe-safety"));
}

#[test]
fn mutation_relaxed_ordering_is_caught() {
    let core = CORE.replace("Ordering::Release", "Ordering::Relaxed");
    assert!(rules(&lint(LIB, &core)).contains(&"relaxed-ordering"));
}

#[test]
fn mutation_unwrap_in_library_code_is_caught() {
    let core = CORE.replace("*g + *h", "self.maybe().unwrap()");
    assert!(rules(&lint(LIB, &core)).contains(&"no-panic"));
}

#[test]
fn mutation_missing_crate_attr_is_caught() {
    let lib = LIB.replace("#![forbid(unsafe_code)]\n", "");
    assert!(rules(&lint(&lib, CORE)).contains(&"crate-attrs"));
}

#[test]
fn mutation_os_clock_is_caught() {
    let core = CORE.replace(
        "        let g = self.a.lock();",
        "        let t0 = std::time::Instant::now();\n        let g = self.a.lock();",
    );
    assert!(rules(&lint(LIB, &core)).contains(&"determinism"));
}

#[test]
fn mutation_cross_file_hash_iteration_is_caught() {
    // The field is declared in core.rs but iterated in other.rs: binding
    // names must pool across the deterministic crates for this to fire.
    let core = CORE.replace(
        "    seq: AtomicU64,",
        "    seq: AtomicU64,\n    pub names: std::collections::HashMap<u32, u32>,",
    );
    let other = "//! Other module.\n\
                 pub fn dump(c: &crate::core::Core) -> u32 {\n\
                 \x20   let mut n = 0;\n\
                 \x20   for (k, v) in c.names.iter() {\n\
                 \x20       n += k + v;\n\
                 \x20   }\n\
                 \x20   n\n\
                 }\n";
    let r = lint_sources(&[
        ("crates/det/src/lib.rs", LIB),
        ("crates/det/src/sync.rs", SYNC),
        ("crates/det/src/core.rs", &core),
        ("crates/det/src/other.rs", other),
    ]);
    let hit = r
        .violations
        .iter()
        .any(|v| v.rule == "determinism" && v.file.ends_with("other.rs") && v.line == 4);
    assert!(hit, "{:#?}", r.violations);
}

#[test]
fn mutation_lock_inversion_is_caught() {
    let core = CORE.replace(
        "    pub fn observe(",
        "    pub fn rev(&self) -> u32 {\n        let h = self.b.lock();\n        let g = self.a.lock();\n        *g + *h\n    }\n\n    pub fn observe(",
    );
    let r = lint(LIB, &core);
    assert!(rules(&r).contains(&"lock-order"), "{:#?}", r.violations);
}

#[test]
fn mutation_unreached_facade_module_is_caught() {
    let core = CORE.replace("fn model_core", "fn exercise_core");
    let r = lint(LIB, &core);
    assert!(rules(&r).contains(&"model-coverage"), "{:#?}", r.violations);
    assert_eq!(r.summary(), "3 files, 7 rules, 0 waivers, coverage 0/1 modules");
}

// --- Waivers ---------------------------------------------------------

#[test]
fn determinism_waiver_suppresses_and_is_counted() {
    let core = CORE.replace(
        "        let g = self.a.lock();",
        "        // DETERMINISM: timing is reporting-only here.\n        let t0 = std::time::Instant::now();\n        let g = self.a.lock();",
    );
    let r = lint(LIB, &core);
    assert!(r.violations.is_empty(), "{:#?}", r.violations);
    assert_eq!(r.waivers, 1);
}

#[test]
fn panics_waiver_suppresses_unwrap() {
    let core = CORE.replace(
        "*g + *h",
        "// PANICS: both guards are live, the sum cannot overflow u32 here.\n        self.maybe().unwrap()",
    );
    let r = lint(LIB, &core);
    assert!(r.violations.is_empty(), "{:#?}", r.violations);
}
