//! Policy classes and workspace file discovery.
//!
//! Every scanned file belongs to exactly one policy class, which decides
//! the rule set applied to it (DESIGN.md §14):
//!
//! - **`deterministic-lib`** — library crates whose outputs feed the
//!   bit-identity contracts (goldens, per-seed `CampaignReport`s,
//!   lockstep-vs-pipelined equality). All seven rules apply, including the
//!   determinism pass (no wall clock, no hash-order iteration, no raw
//!   `std::thread`/`std::sync` outside the reviewed sync facades).
//! - **`host-tool`** — binaries and harnesses that *measure* the system
//!   (bench, the model checker, this linter). Wall clocks and hash maps
//!   are their job; the determinism pass skips them, the safety rules
//!   still apply.
//! - **`test`** — integration tests and examples. Crate-attr and SAFETY
//!   rules apply; `no-panic` is exempt (asserting via unwrap is idiomatic
//!   test code), as is the determinism pass.

use std::path::{Path, PathBuf};

/// Per-file rule policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    DeterministicLib,
    HostTool,
    Test,
}

impl Class {
    pub fn as_str(self) -> &'static str {
        match self {
            Class::DeterministicLib => "deterministic-lib",
            Class::HostTool => "host-tool",
            Class::Test => "test",
        }
    }
}

/// Crates whose `src/` is host-tool class: they observe the system rather
/// than compute results, so wall clocks and hash iteration are their job.
/// Everything else under `crates/` is deterministic-lib.
const HOST_TOOL_CRATES: &[&str] = &["xlint", "vscheck", "bench"];

/// One file queued for analysis.
#[derive(Debug)]
pub struct FileEntry {
    /// Repo-relative path with `/` separators (used in reports/allowlists).
    pub rel: PathBuf,
    pub src: String,
    /// Owning crate name (directory name under `crates/`, or `examples`/
    /// `tests` for the workspace-level members).
    pub crate_name: String,
    pub class: Class,
    /// True for `src/sync.rs` facade modules: the reviewed home for raw
    /// `std::sync`/`std::thread` in deterministic crates.
    pub is_facade: bool,
    /// True for binary roots (`src/main.rs`, `src/bin/*`): exempt from
    /// `no-panic`.
    pub is_bin: bool,
}

fn rust_files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn push_root(
    out: &mut Vec<FileEntry>,
    io_errors: &mut Vec<(PathBuf, String)>,
    repo: &Path,
    dir: &Path,
    crate_name: &str,
    class: Class,
) {
    for abs in rust_files_under(dir) {
        let rel = abs.strip_prefix(repo).unwrap_or(&abs).to_path_buf();
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        match std::fs::read_to_string(&abs) {
            Ok(src) => out.push(FileEntry {
                is_facade: rel_str.ends_with("/src/sync.rs"),
                is_bin: rel_str.contains("/src/bin/") || rel_str.ends_with("/src/main.rs"),
                rel,
                src,
                crate_name: crate_name.to_string(),
                class,
            }),
            Err(e) => io_errors.push((rel, e.to_string())),
        }
    }
}

/// Discover every scan root in the workspace. Returns the file list plus
/// unreadable paths (reported as `io` violations by the caller).
///
/// Roots and their classes:
/// - `crates/<name>/src` → the crate's class (host-tool for
///   [`HOST_TOOL_CRATES`], deterministic-lib otherwise);
/// - `crates/<name>/tests` → test;
/// - `examples/` (both `src/` and the example binaries) → test;
/// - `tests/` (the workspace acceptance-test member) → test.
///
/// `shims/` is deliberately unscanned: it vendors minimal stand-ins for
/// external crates and follows upstream idiom, not repo policy.
pub fn collect_files(repo: &Path) -> (Vec<FileEntry>, Vec<(PathBuf, String)>) {
    let mut files = Vec::new();
    let mut io_errors = Vec::new();
    let crates_dir = repo.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map(|rd| rd.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect())
        .unwrap_or_default();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir.file_name().unwrap_or_default().to_string_lossy().to_string();
        let class = if HOST_TOOL_CRATES.contains(&name.as_str()) {
            Class::HostTool
        } else {
            Class::DeterministicLib
        };
        push_root(&mut files, &mut io_errors, repo, &dir.join("src"), &name, class);
        push_root(&mut files, &mut io_errors, repo, &dir.join("tests"), &name, Class::Test);
    }
    for member in ["examples", "tests"] {
        let dir = repo.join(member);
        if dir.is_dir() {
            push_root(&mut files, &mut io_errors, repo, &dir, member, Class::Test);
        }
    }
    (files, io_errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_match_design_doc() {
        assert_eq!(Class::DeterministicLib.as_str(), "deterministic-lib");
        assert_eq!(Class::HostTool.as_str(), "host-tool");
        assert_eq!(Class::Test.as_str(), "test");
    }

    #[test]
    fn host_tool_set_is_the_harness_crates() {
        for c in ["xlint", "vscheck", "bench"] {
            assert!(HOST_TOOL_CRATES.contains(&c));
        }
        assert!(!HOST_TOOL_CRATES.contains(&"vsscore"));
    }
}
