//! Structural analysis shared by the lock-order and model-coverage passes:
//! function extraction, a name-resolved intra-workspace call graph and
//! lock acquisition sites with guard scopes.
//!
//! Resolution is by *name*, deliberately over-approximate: a method call
//! `.evaluate(…)` is an edge to every workspace function named `evaluate`.
//! For coverage that errs toward "covered" only when a same-named function
//! really exists somewhere the model suites exercise; for lock-order it
//! errs toward more held-lock edges, i.e. false *positives*, which the
//! zero-violation baseline keeps honest. Turbofish calls (`f::<T>(…)`) are
//! not resolved — none exist on workspace-internal functions today.
//!
//! The one carve-out is [`UNRESOLVED_NAMES`]: ubiquitous std method and
//! trait names (`push`, `len`, `clone`, `drop`, …) are never resolved,
//! because name-only resolution would connect `Vec::push` to every
//! workspace `push` — and `drop(guard)` to every `impl Drop` — welding
//! unrelated locks into one fake cycle. Locks taken *inside* a workspace
//! fn with such a name are still seen when that fn's own body is scanned;
//! only the incoming call edge is cut.

use crate::lexer::{SourceFile, TokKind};

/// Rust keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "mut", "ref", "move",
    "box", "dyn", "impl", "where", "unsafe", "else", "fn", "use", "pub", "crate", "super", "Self",
    "self", "break", "continue", "yield",
];

/// Std prelude/collection/trait names excluded from call-graph edges (see
/// module docs). A same-named *workspace* helper loses its incoming edges
/// — the documented price of name-only resolution staying usable.
const UNRESOLVED_NAMES: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "borrow",
    "borrow_mut",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "drop",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "filter",
    "find",
    "first",
    "flat_map",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "min",
    "ne",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "pop_back",
    "pop_front",
    "position",
    "push",
    "push_back",
    "push_front",
    "remove",
    "replace",
    "retain",
    "rev",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "starts_with",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_from",
    "try_into",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "wait",
    "zip",
];

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Index of the owning file in the scan list.
    pub file: usize,
    pub line: usize,
    /// Token range of the body `{ … }`, inclusive of both braces.
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// A call site inside some function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: String,
    pub tok: usize,
    /// Local index into this file's [`FileFacts::fns`].
    pub caller: usize,
    /// True when the site is in test scope. The coverage pass follows
    /// these edges (model tests *are* test code); lock-order does not.
    pub in_test: bool,
}

/// A lock acquisition (`….lock()`) with the token index where its guard
/// provably dies.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Crate-qualified lock identity, e.g. `vsscore/state` or
    /// `vsscore/grid_cache()` (last segment of the receiver chain).
    pub lock: String,
    pub tok: usize,
    pub line: usize,
    /// Guard scope end (token index): the statement's `;` for a temporary
    /// guard, the enclosing block's `}` for a `let`-bound guard.
    pub scope_end: usize,
    pub caller: usize,
}

/// Per-file structural facts, token-indexed into that file's stream.
#[derive(Debug, Default)]
pub struct FileFacts {
    pub fns: Vec<FnDef>,
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
    /// Sync facades imported outside test scope, as `owner::sync` strings.
    pub facade_imports: Vec<String>,
}

/// Extract structural facts from one lexed file. `skip_line[i]` (0-based)
/// marks test-scoped lines: lock sites there are dropped (lock-order
/// polices production code), call sites are kept but flagged, and
/// function *definitions* are always collected (model tests live in test
/// scope and must enter the call graph).
pub fn file_facts(
    file_idx: usize,
    crate_name: &str,
    sf: &SourceFile,
    skip_line: &[bool],
) -> FileFacts {
    let mut facts = FileFacts::default();
    let toks = &sf.tokens;
    let skip = |line: usize| line >= 1 && skip_line.get(line - 1).copied().unwrap_or(false);

    // Innermost enclosing `{` open-token index per token (MAX at top level).
    let mut encl_open = vec![usize::MAX; toks.len()];
    {
        let mut stack: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            encl_open[i] = stack.last().copied().unwrap_or(usize::MAX);
            if t.kind == TokKind::Open && t.text == "{" && sf.matching(i).is_some() {
                stack.push(i);
            } else if t.kind == TokKind::Close && t.text == "}" {
                if let Some(&top) = stack.last() {
                    if sf.matching(top) == Some(i) {
                        stack.pop();
                    }
                }
            }
        }
    }

    // --- Function definitions ---------------------------------------
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        // `fn` in a fn-pointer type (`fn(…) -> …`) has no name ident.
        {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Open if toks[j].text == "{" => {
                        if let Some(c) = sf.matching(j) {
                            body = Some((j, c));
                        }
                        break;
                    }
                    TokKind::Open => {
                        j = sf.matching(j).map_or(j + 1, |c| c + 1);
                        continue;
                    }
                    TokKind::Punct if toks[j].text == ";" => break,
                    _ => {}
                }
                j += 1;
            }
            facts.fns.push(FnDef { name, file: file_idx, line, body });
        }
        i += 1;
    }

    // --- `use …::sync…;` facade imports (production scope only) ------
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("use") && !skip(toks[i].line) {
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct(';') {
                if toks[j].is_ident("sync")
                    && j >= 3
                    && toks[j - 1].is_punct(':')
                    && toks[j - 2].is_punct(':')
                    && toks[j - 3].kind == TokKind::Ident
                {
                    let owner = match toks[j - 3].text.as_str() {
                        "crate" => crate_name.to_string(),
                        // `std::sync` / `core::sync` are not facades.
                        "std" | "core" | "alloc" => {
                            j += 1;
                            continue;
                        }
                        other => other.to_string(),
                    };
                    let facade = format!("{owner}::sync");
                    if !facts.facade_imports.contains(&facade) {
                        facts.facade_imports.push(facade);
                    }
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }

    // --- Call and lock sites -----------------------------------------
    for k in 0..toks.len() {
        if toks[k].kind != TokKind::Ident {
            continue;
        }
        let in_test = skip(toks[k].line);
        let followed_by_paren =
            toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Open && t.text == "(");
        if !followed_by_paren {
            continue;
        }
        let name = toks[k].text.as_str();
        // Macro invocation `name!(…)` never reaches here (the `!` sits
        // between name and paren), but `matches!`-style idents preceding
        // `!` are filtered anyway:
        if k > 0 && toks[k - 1].is_punct('!') {
            continue;
        }
        // Skip the definition itself.
        if k > 0 && toks[k - 1].is_ident("fn") {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let line = toks[k].line;
        if name == "lock" && k > 0 && toks[k - 1].is_punct('.') {
            if !in_test {
                let (chain_start, identity) = receiver_chain(sf, k - 2);
                let lock = format!("{crate_name}/{identity}");
                let scope_end = guard_scope_end(sf, &encl_open, chain_start, k);
                facts.locks.push(LockSite { lock, tok: k, line, scope_end, caller: usize::MAX });
            }
            continue;
        }
        if UNRESOLVED_NAMES.contains(&name) {
            continue;
        }
        facts.calls.push(CallSite {
            callee: name.to_string(),
            tok: k,
            caller: usize::MAX,
            in_test,
        });
    }

    // Attribute calls/locks to the innermost enclosing fn body.
    let owner_of = |tok: usize| -> usize {
        let mut best = usize::MAX;
        let mut best_span = usize::MAX;
        for (f, d) in facts.fns.iter().enumerate() {
            if let Some((b, e)) = d.body {
                if b < tok && tok < e && e - b < best_span {
                    best = f;
                    best_span = e - b;
                }
            }
        }
        best
    };
    for c in &mut facts.calls {
        c.caller = owner_of(c.tok);
    }
    facts.calls.retain(|c| c.caller != usize::MAX);
    for l in &mut facts.locks {
        l.caller = owner_of(l.tok);
    }
    facts.locks.retain(|l| l.caller != usize::MAX);
    facts
}

/// Walk a receiver chain backwards from token `r` (the token just before
/// the `.` of a method call). Returns the chain's first token index and
/// the lock identity — the last chain segment, with `()` appended for a
/// call segment (`grid_cache().lock()` → `grid_cache()`).
/// `self.shared.state.lock()` → `state`; `self.done[job].lock()` → `done`.
fn receiver_chain(sf: &SourceFile, mut r: usize) -> (usize, String) {
    let toks = &sf.tokens;
    let mut identity: Option<String> = None;
    let mut start = r;
    loop {
        if r >= toks.len() {
            break;
        }
        match toks[r].kind {
            TokKind::Close => {
                let Some(open) = sf.matching(r) else { break };
                if toks[r].text == ")" && open > 0 && toks[open - 1].kind == TokKind::Ident {
                    // Call segment `name(…)`.
                    if identity.is_none() {
                        identity = Some(format!("{}()", toks[open - 1].text));
                    }
                    start = open - 1;
                    r = open - 1;
                } else if toks[r].text == "]" {
                    // Index segment — transparent, keep walking.
                    if open == 0 {
                        break;
                    }
                    start = open;
                    r = open - 1;
                    continue;
                } else {
                    break;
                }
            }
            TokKind::Ident => {
                if identity.is_none() && toks[r].text != "self" {
                    identity = Some(toks[r].text.clone());
                }
                start = r;
            }
            _ => break,
        }
        // Extend over `.` or `::` to the left.
        if r >= 1 && toks[r - 1].is_punct('.') && r >= 2 {
            r -= 2;
        } else if r >= 2 && toks[r - 1].is_punct(':') && toks[r - 2].is_punct(':') && r >= 3 {
            r -= 3;
        } else {
            break;
        }
    }
    (start, identity.unwrap_or_else(|| "<expr>".into()))
}

/// Where does the guard acquired at token `lock_tok` die?
/// The guard lives to the end of the enclosing block only when the
/// statement `let`-binds the guard itself — i.e. nothing but `.unwrap()`,
/// `.expect(…)` or `?` follows `.lock(…)` before the `;`. A projection
/// (`let x = m.lock().unwrap().field;`) or a plain temporary dies at the
/// statement's `;`. Conservative fallback: end of enclosing block.
fn guard_scope_end(
    sf: &SourceFile,
    encl_open: &[usize],
    chain_start: usize,
    lock_tok: usize,
) -> usize {
    let toks = &sf.tokens;
    let my_block = encl_open.get(lock_tok).copied().unwrap_or(usize::MAX);
    let block_close = if my_block == usize::MAX {
        toks.len().saturating_sub(1)
    } else {
        sf.matching(my_block).unwrap_or(toks.len().saturating_sub(1))
    };
    // Statement prefix: scan back from the chain start to the previous `;`
    // or block boundary at the same nesting level.
    let mut has_let = false;
    let mut guard_name: Option<&str> = None;
    let mut b = chain_start;
    while b > 0 {
        b -= 1;
        if encl_open.get(b).copied() != Some(my_block).filter(|&m| m != usize::MAX)
            && encl_open.get(b).copied().unwrap_or(usize::MAX) != my_block
        {
            // Left our nesting level (inside a sub-group is fine to skip).
            if b == my_block {
                break;
            }
            continue;
        }
        if toks[b].is_punct(';') || (toks[b].kind == TokKind::Open && toks[b].text == "{") {
            break;
        }
        if toks[b].is_ident("let") {
            has_let = true;
            let mut j = b + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            guard_name = toks.get(j).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str());
            break;
        }
    }
    // The binding is the guard only if `.lock(…)` is the whole initializer
    // modulo `.unwrap()` / `.expect(…)` / `?`.
    let binds_guard = has_let && {
        let mut f = toks
            .get(lock_tok + 1)
            .filter(|t| t.kind == TokKind::Open)
            .and_then(|_| sf.matching(lock_tok + 1))
            .map_or(toks.len(), |c| c + 1);
        loop {
            match toks.get(f) {
                Some(t) if t.is_punct(';') => break true,
                Some(t) if t.is_punct('?') => f += 1,
                Some(t)
                    if t.is_punct('.')
                        && toks.get(f + 1).is_some_and(|m| {
                            m.is_ident("unwrap")
                                || m.is_ident("expect")
                                || m.is_ident("unwrap_or_else")
                        }) =>
                {
                    match toks.get(f + 2).and_then(|_| sf.matching(f + 2)) {
                        Some(c) => f = c + 1,
                        None => break false,
                    }
                }
                _ => break false,
            }
        }
    };
    if binds_guard {
        // An explicit `drop(name)` kills the guard before the block ends.
        if let Some(name) = guard_name {
            let mut d = lock_tok;
            while d + 3 <= block_close {
                if toks[d].is_ident("drop")
                    && toks[d + 1].kind == TokKind::Open
                    && toks[d + 1].text == "("
                    && toks[d + 2].is_ident(name)
                    && toks[d + 3].is_punct(')')
                {
                    return d + 3;
                }
                d += 1;
            }
        }
        return block_close;
    }
    // Temporary or projected binding: next `;` at this nesting level.
    let mut f = lock_tok;
    while f < toks.len() {
        if toks[f].is_punct(';') && encl_open[f] == my_block {
            return f;
        }
        if f == block_close {
            break;
        }
        f += 1;
    }
    block_close
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn facts(src: &str) -> FileFacts {
        let sf = lex(src);
        let skip = vec![false; sf.lines.len()];
        file_facts(0, "demo", &sf, &skip)
    }

    #[test]
    fn functions_and_calls_extracted() {
        let f = facts("fn a() { b(); c.d(); }\nfn b() {}\n");
        let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let callees: Vec<&str> = f.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["b", "d"]);
        assert_eq!(f.calls[0].caller, 0);
    }

    #[test]
    fn fn_pointer_type_is_not_a_definition() {
        let f = facts("fn a(cb: fn(u32) -> u32) { cb(1); }\n");
        assert_eq!(f.fns.len(), 1);
    }

    #[test]
    fn lock_receivers_resolve_to_field_names() {
        let f = facts(
            "fn a(&self) {\n    let g = self.shared.state.lock().unwrap();\n    grid_cache().lock();\n}\n",
        );
        let locks: Vec<&str> = f.locks.iter().map(|l| l.lock.as_str()).collect();
        assert_eq!(locks, ["demo/state", "demo/grid_cache()"]);
    }

    #[test]
    fn let_guard_scopes_to_block_and_temporary_to_statement() {
        let src = "fn a(&self) {\n    let g = self.a.lock().unwrap();\n    self.b.lock().unwrap().push(1);\n    self.c.lock();\n}\n";
        let f = facts(src);
        assert_eq!(f.locks.len(), 3);
        let sf = lex(src);
        // let-bound guard: scope runs to the closing brace (last token).
        let a = &f.locks[0];
        assert_eq!(sf.tokens[a.scope_end].text, "}");
        // temporary: scope ends at its own `;`, before the c lock.
        let b = &f.locks[1];
        assert_eq!(sf.tokens[b.scope_end].text, ";");
        assert!(b.scope_end < f.locks[2].tok);
    }

    #[test]
    fn std_method_names_are_not_call_edges() {
        let f = facts("fn a(&self) { self.v.push(1); drop(self.g); helper(); }\n");
        let callees: Vec<&str> = f.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["helper"]);
    }

    #[test]
    fn drop_narrows_let_guard_scope() {
        let src = "fn a(&self) { let g = self.x.lock().unwrap(); drop(g); self.y.lock(); }\n";
        let f = facts(src);
        assert_eq!(f.locks.len(), 2);
        assert!(f.locks[0].scope_end < f.locks[1].tok, "guard dies at drop(g)");
    }

    #[test]
    fn unwrap_or_else_binds_the_guard() {
        let src = "fn a(&self) {\n    let g = self.x.lock().unwrap_or_else(|e| e.into_inner());\n    self.y.lock();\n}\n";
        let f = facts(src);
        assert!(f.locks[0].scope_end > f.locks[1].tok, "guard lives past the y lock");
    }

    #[test]
    fn projected_let_binding_is_not_a_guard() {
        // `let x = m.lock().expect("…").field;` binds the projection, not
        // the guard — the guard dies at the statement.
        let src = "fn a(&self) {\n    let s = self.state.lock().expect(\"poisoned\").slowdown;\n    self.other.lock();\n}\n";
        let f = facts(src);
        let sf = lex(src);
        assert_eq!(sf.tokens[f.locks[0].scope_end].text, ";");
        assert!(f.locks[0].scope_end < f.locks[1].tok);
    }

    #[test]
    fn indexed_receiver_skips_the_index() {
        let f = facts("fn a(&self) { self.done[job].lock(); }\n");
        let locks: Vec<&str> = f.locks.iter().map(|l| l.lock.as_str()).collect();
        assert_eq!(locks, ["demo/done"]);
    }

    #[test]
    fn facade_imports_found_and_std_sync_excluded() {
        let f =
            facts("use crate::sync::Mutex;\nuse std::sync::Arc;\nuse vscheck::sync::Condvar;\n");
        assert_eq!(f.facade_imports, ["demo::sync", "vscheck::sync"]);
    }

    #[test]
    fn test_scope_keeps_calls_but_drops_lock_sites() {
        let src = "fn model_x() { target(); m.lock(); }\n";
        let sf = lex(src);
        let skip = vec![true; sf.lines.len()];
        let f = file_facts(0, "demo", &sf, &skip);
        assert_eq!(f.fns.len(), 1, "defs always collected");
        assert_eq!(f.calls.len(), 1, "coverage still follows test-scope calls");
        assert!(f.calls[0].in_test);
        assert!(f.locks.is_empty(), "lock-order skips test scope");
    }
}
