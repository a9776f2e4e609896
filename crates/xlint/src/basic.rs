//! The four v1 rules — `unsafe-safety`, `relaxed-ordering`, `no-panic`,
//! `crate-attrs` — ported onto the token-tree lexer and policy classes.
//! Their observable behavior is unchanged from the line-based linter; the
//! test-scope resolution underneath them is now attribute-driven instead
//! of brace-counting.

use std::path::Path;

use crate::lexer::LexedLine;
use crate::policy::{Class, FileEntry};
use crate::report::Violation;
use crate::scope::{comment_window_has, PANICS_WINDOW, SAFETY_WINDOW};

/// Module paths (relative to the repo root) where `Ordering::Relaxed` is
/// permitted. Keep this list short and reviewed: each entry is a lock-free
/// hot path whose orderings are argued in its module docs.
const RELAXED_ALLOWLIST: &[&str] = &[
    "crates/vsscore/src/scorer.rs",
    "crates/vscheck/", // model checker: orderings collapse to SeqCst under the model
];

/// Position of `needle` in `hay` as a standalone word (no identifier
/// characters adjacent on either side), if any.
pub fn has_word(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let ok_before =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let ok_after =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if ok_before && ok_after {
            return Some(start);
        }
        from = end;
    }
    None
}

/// Rules 1–3 on one file. `lines`/`in_test` come from the shared lex so
/// the file is tokenized once across all passes.
pub fn scan_file(entry: &FileEntry, lines: &[LexedLine], in_test: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    let rel_str = entry.rel.to_string_lossy().replace('\\', "/");
    let relaxed_ok = RELAXED_ALLOWLIST.iter().any(|p| {
        if p.ends_with('/') {
            rel_str.starts_with(p)
        } else {
            rel_str == *p
        }
    });

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = &line.code;

        // Rule 1: unsafe needs SAFETY. `unsafe fn` declarations are exempt
        // (deny(unsafe_op_in_unsafe_fn) pushes the obligation onto inner
        // blocks); `unsafe impl` and `unsafe {` are not.
        if let Some(pos) = has_word(code, "unsafe") {
            let after = code[pos + "unsafe".len()..].trim_start();
            let is_fn_decl = after.starts_with("fn ") || after.starts_with("extern ");
            if !is_fn_decl && !comment_window_has(lines, idx, SAFETY_WINDOW, "SAFETY:") {
                out.push(Violation {
                    file: entry.rel.clone(),
                    line: lineno,
                    rule: "unsafe-safety",
                    message: format!(
                        "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines"
                    ),
                });
            }
        }

        // Rule 2: Relaxed only in allowlisted lock-free modules.
        if !relaxed_ok && code.contains("Ordering::Relaxed") {
            out.push(Violation {
                file: entry.rel.clone(),
                line: lineno,
                rule: "relaxed-ordering",
                message: "`Ordering::Relaxed` outside allowlisted lock-free modules \
                          (see RELAXED_ALLOWLIST in xlint)"
                    .into(),
            });
        }

        // Rule 3: no unwrap/expect in library code outside tests without a
        // PANICS waiver. `.expect(` counts only when the argument is a
        // string literal, so user-defined `Result`-returning methods that
        // happen to be named `expect` (e.g. a parser's `expect(b'{')?`)
        // are not misflagged. Binary entry points and the `test` policy
        // class are exempt.
        if !entry.is_bin && entry.class != Class::Test && !in_test[idx] {
            for pat in [".unwrap()", ".expect("] {
                let hit = if pat == ".unwrap()" {
                    code.contains(pat)
                } else {
                    code.match_indices(pat).any(|(pos, _)| {
                        let arg = code[pos + pat.len()..].trim_start();
                        arg.starts_with('"') || arg.starts_with("r\"")
                    })
                };
                if hit && !comment_window_has(lines, idx, PANICS_WINDOW, "PANICS:") {
                    out.push(Violation {
                        file: entry.rel.clone(),
                        line: lineno,
                        rule: "no-panic",
                        message: format!(
                            "`{pat}` in library code without a `// PANICS:` waiver within \
                             {PANICS_WINDOW} lines"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Rule 4: crate-level attribute coverage, over one crate's `src/` files.
/// Crates whose sources contain no `unsafe` must declare
/// `#![forbid(unsafe_code)]`; crates that do use `unsafe` must declare
/// `#![deny(unsafe_op_in_unsafe_fn)]`. Integration-test directories are
/// separate compilation units and are not considered here.
pub fn check_crate_attrs(crate_rel: &Path, files: &[(&Path, &[LexedLine])]) -> Vec<Violation> {
    let mut out = Vec::new();
    let uses_unsafe =
        files.iter().any(|(_, lines)| lines.iter().any(|l| has_word(&l.code, "unsafe").is_some()));
    let root = files
        .iter()
        .find(|(p, _)| p.ends_with("src/lib.rs"))
        .or_else(|| files.iter().find(|(p, _)| p.ends_with("src/main.rs")));
    let Some((root_path, root_lines)) = root else { return out };
    let root_code: String = root_lines.iter().map(|l| l.code.clone() + "\n").collect();
    let want =
        if uses_unsafe { "#![deny(unsafe_op_in_unsafe_fn)]" } else { "#![forbid(unsafe_code)]" };
    if !root_code.contains(want) {
        out.push(Violation {
            file: root_path.to_path_buf(),
            line: 1,
            rule: "crate-attrs",
            message: format!(
                "crate `{}` {} `unsafe`: missing `{want}`",
                crate_rel.file_name().unwrap_or_default().to_string_lossy(),
                if uses_unsafe { "uses" } else { "has no" },
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_scope;
    use std::path::PathBuf;

    fn entry(rel: &str, class: Class, src: &str) -> FileEntry {
        FileEntry {
            rel: PathBuf::from(rel),
            src: src.to_string(),
            crate_name: "demo".into(),
            class,
            is_facade: rel.ends_with("/src/sync.rs"),
            is_bin: rel.contains("/src/bin/") || rel.ends_with("/src/main.rs"),
        }
    }

    fn lint_at(rel: &str, class: Class, src: &str) -> Vec<Violation> {
        let e = entry(rel, class, src);
        let sf = lex(&e.src);
        let in_test = test_scope(&sf);
        scan_file(&e, &sf.lines, &in_test)
    }

    fn lint(src: &str) -> Vec<Violation> {
        lint_at("crates/demo/src/lib.rs", Class::DeterministicLib, src)
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let v = lint("fn f() {\n    unsafe { noop() }\n}\n");
        assert!(v.iter().any(|v| v.rule == "unsafe-safety" && v.line == 2), "{v:?}");
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let v = lint("fn f() {\n    // SAFETY: proven above.\n    unsafe { noop() }\n}\n");
        assert!(v.iter().all(|v| v.rule != "unsafe-safety"), "{v:?}");
    }

    #[test]
    fn unsafe_fn_declaration_exempt_but_impl_not() {
        let v = lint("unsafe fn raw() {}\nunsafe impl Send for X {}\n");
        assert!(v.iter().all(|v| v.line != 1), "{v:?}");
        assert!(v.iter().any(|v| v.rule == "unsafe-safety" && v.line == 2), "{v:?}");
    }

    #[test]
    fn unsafe_inside_string_or_ident_ignored() {
        let v = lint("fn f() { let s = \"unsafe block\"; forbid(unsafe_code); }\n");
        assert!(v.iter().all(|v| v.rule != "unsafe-safety"), "{v:?}");
    }

    #[test]
    fn relaxed_flagged_outside_allowlist() {
        let v = lint("fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n");
        assert!(v.iter().any(|v| v.rule == "relaxed-ordering"), "{v:?}");
    }

    #[test]
    fn relaxed_allowed_in_allowlisted_file_and_prefix() {
        for path in ["crates/vsscore/src/scorer.rs", "crates/vscheck/src/sched.rs"] {
            let v = lint_at(
                path,
                Class::DeterministicLib,
                "fn f(a: &A) { a.load(Ordering::Relaxed); }\n",
            );
            assert!(v.iter().all(|v| v.rule != "relaxed-ordering"), "{path}: {v:?}");
        }
    }

    #[test]
    fn unwrap_without_waiver_flagged() {
        let v = lint("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
        assert!(v.iter().any(|v| v.rule == "no-panic"), "{v:?}");
    }

    #[test]
    fn unwrap_with_panics_waiver_passes() {
        let v = lint(
            "fn f(x: Option<u32>) -> u32 {\n    // PANICS: x is Some by construction.\n    x.unwrap()\n}\n",
        );
        assert!(v.iter().all(|v| v.rule != "no-panic"), "{v:?}");
    }

    #[test]
    fn expect_in_cfg_test_mod_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper(x: Option<u32>) -> u32 { x.expect(\"set\") }\n}\nfn lib(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = lint(src);
        assert!(v.iter().all(|v| v.line != 3), "{v:?}");
        assert!(v.iter().any(|v| v.rule == "no-panic" && v.line == 5), "{v:?}");
    }

    #[test]
    fn cfg_all_test_feature_mod_exempt() {
        let src = "#[cfg(all(test, feature = \"m\"))]\nmod model {\n    fn h(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        let v = lint(src);
        assert!(v.iter().all(|v| v.rule != "no-panic"), "{v:?}");
    }

    #[test]
    fn user_defined_expect_method_not_flagged() {
        // A parser's own `expect(byte)` helper is not Option/Result::expect.
        let v = lint("fn object(&mut self) -> Result<V, String> { self.expect(b'{')?; todo!() }\n");
        assert!(v.iter().all(|v| v.rule != "no-panic"), "{v:?}");
    }

    #[test]
    fn bin_sources_exempt_from_no_panic() {
        let v = lint_at(
            "crates/demo/src/bin/tool.rs",
            Class::HostTool,
            "fn main() { std::fs::read(\"x\").unwrap(); }\n",
        );
        assert!(v.iter().all(|v| v.rule != "no-panic"), "{v:?}");
    }

    #[test]
    fn test_class_exempt_from_no_panic_but_not_unsafe() {
        let src = "fn check() { x.unwrap();\n    unsafe { noop() }\n}\n";
        let v = lint_at("crates/demo/tests/it.rs", Class::Test, src);
        assert!(v.iter().all(|v| v.rule != "no-panic"), "{v:?}");
        assert!(v.iter().any(|v| v.rule == "unsafe-safety"), "{v:?}");
    }

    fn attrs(files: &[(&str, &str)]) -> Vec<Violation> {
        let lexed: Vec<(PathBuf, Vec<LexedLine>)> =
            files.iter().map(|(p, s)| (PathBuf::from(p), lex(s).lines)).collect();
        let refs: Vec<(&Path, &[LexedLine])> =
            lexed.iter().map(|(p, l)| (p.as_path(), l.as_slice())).collect();
        check_crate_attrs(Path::new("crates/demo"), &refs)
    }

    #[test]
    fn crate_attr_forbid_required_without_unsafe() {
        let v = attrs(&[("crates/demo/src/lib.rs", "fn f() {}\n")]);
        assert!(v.iter().any(|v| v.rule == "crate-attrs" && v.message.contains("forbid")), "{v:?}");
        let v = attrs(&[("crates/demo/src/lib.rs", "#![forbid(unsafe_code)]\nfn f() {}\n")]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crate_attr_deny_required_with_unsafe() {
        let v =
            attrs(&[("crates/demo/src/lib.rs", "// SAFETY: demo\nunsafe impl Send for X {}\n")]);
        assert!(
            v.iter().any(|v| v.rule == "crate-attrs" && v.message.contains("unsafe_op")),
            "{v:?}"
        );
    }

    #[test]
    fn forbid_attr_in_comment_does_not_count() {
        let v = attrs(&[("crates/demo/src/lib.rs", "// #![forbid(unsafe_code)]\nfn f() {}\n")]);
        assert!(v.iter().any(|v| v.rule == "crate-attrs"), "{v:?}");
    }
}
