//! `panic-in-task-path`: panics reachable from closures submitted to
//! `ve_sched::Executor`.
//!
//! **Contract.** Executor tasks run on worker threads behind
//! `catch_unwind`; a panic there marks the task failed and (PR 2) keeps the
//! counters consistent — but the *work is silently lost* and, for
//! `submit_with_handle`, the panic re-raises on the joining thread far from
//! its cause. Task closures must surface failure as typed errors through
//! `TaskHandle`, so every `unwrap`/`expect`/`panic!` reachable from a submit
//! site is a latent dropped-iteration bug.
//!
//! **Analysis.** Roots are the argument spans of every `Executor` submit
//! method (`SUBMIT_METHODS`): `.submit(…)`, `.submit_with_handle(…)`,
//! `.submit_retryable(…)` and the `_labeled` form of each, the forms the
//! session engine uses. The direct closure text is scanned for panic
//! markers and slice indexing; calls out of the closure are resolved through
//! a workspace-wide `fn`-name index (same-crate definitions preferred) and
//! traversed to a fixed depth. Name-based resolution overshoots homonyms, so
//! common std method names are stoplisted and slice indexing is only checked
//! in the direct closure, where there is no ambiguity about what runs.

use crate::engine::{Finding, RULE_PANIC_IN_TASK_PATH};
use crate::lexer::TokenKind;
use crate::rules::{method_call, KEYWORDS};
use crate::workspace::{SourceFile, WorkspaceModel};
use std::collections::{BTreeMap, BTreeSet};

/// Every `ve_sched::Executor` method that takes a task closure.
const SUBMIT_METHODS: &[&str] = &[
    "submit",
    "submit_labeled",
    "submit_with_handle",
    "submit_with_handle_labeled",
    "submit_retryable",
    "submit_retryable_labeled",
];

/// Traversal depth cap: submit-site closure = depth 0.
const MAX_DEPTH: usize = 16;

/// Method/function names never resolved through the index: overwhelmingly
/// std inherent/trait methods whose workspace homonyms (if any) would make
/// the taint wildly imprecise.
const STOPLIST: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_sub",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "concat",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "default",
    "drain",
    "drop",
    "entry",
    "enumerate",
    "eq",
    "err",
    "exp",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "from",
    "from_bits",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_finite",
    "is_nan",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "or_insert",
    "or_insert_with",
    "partial_cmp",
    "peek",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "recv",
    "remove",
    "repeat",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_sub",
    "send",
    "signum",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "sqrt",
    "starts_with",
    "sum",
    "swap",
    "take",
    "to_bits",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "wrapping_add",
    "write",
    "zip",
];

/// Panic-marker macros (`name!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `Qualifier::method(…)` calls whose qualifier is a std type are std
/// constructors/associated fns (`Arc::new`, `Vec::with_capacity`), not
/// workspace functions — resolving them by bare name would alias them onto
/// unrelated workspace `fn new`s.
const STD_QUALIFIERS: &[&str] = &[
    "Arc",
    "AtomicBool",
    "AtomicU64",
    "AtomicUsize",
    "BTreeMap",
    "BTreeSet",
    "Box",
    "Cell",
    "Condvar",
    "Cow",
    "Duration",
    "HashMap",
    "HashSet",
    "Instant",
    "Mutex",
    "Option",
    "Ordering",
    "Path",
    "PathBuf",
    "Rc",
    "RefCell",
    "Result",
    "RwLock",
    "String",
    "SystemTime",
    "Vec",
    "VecDeque",
    "char",
    "f32",
    "f64",
    "i32",
    "i64",
    "str",
    "thread",
    "u32",
    "u64",
    "usize",
];

/// One `fn` definition: where its body lives.
struct FnDef {
    file: usize,
    /// Code-index span of the body, `{` ..= `}` inclusive.
    body: (usize, usize),
}

/// A marker occurrence to report.
struct Marker {
    file: usize,
    line: u32,
    col: u32,
    what: String,
}

pub fn check(ws: &WorkspaceModel) -> Vec<Finding> {
    let index = build_fn_index(ws);
    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, u32, u32)> = BTreeSet::new();

    for (fi, file) in ws.files.iter().enumerate() {
        for ci in 0..file.code.len() {
            let submit = SUBMIT_METHODS
                .iter()
                .find_map(|m| method_call(file, ci, m).map(|open| (*m, open)));
            let Some((method, open)) = submit else {
                continue;
            };
            let root_tok = file.ct(ci + 1).expect("pattern matched");
            if file.is_test_line(root_tok.line) {
                continue;
            }
            let close = file.matching_close(open);
            let root = format!("{}:{}", file.rel_path, root_tok.line);

            // Walk the call graph out of the submit-argument span.
            let mut markers: Vec<Marker> = Vec::new();
            let mut visited: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut frontier: Vec<(usize, (usize, usize), Vec<String>)> =
                vec![(fi, (open, close), Vec::new())];
            let mut depth = 0usize;
            while !frontier.is_empty() && depth <= MAX_DEPTH {
                let mut next = Vec::new();
                for (sfi, span, chain) in frontier {
                    let sf = &ws.files[sfi];
                    let mut callees = BTreeSet::new();
                    scan_span(
                        sf,
                        sfi,
                        span,
                        depth == 0,
                        &chain,
                        &mut markers,
                        &mut callees,
                    );
                    for callee in callees {
                        let defs = resolve(&index, ws, &callee, &sf.crate_name);
                        for def in defs {
                            if visited.insert((def.file, def.body.0)) {
                                let mut chain = chain.clone();
                                chain.push(callee.clone());
                                next.push((def.file, def.body, chain));
                            }
                        }
                    }
                }
                frontier = next;
                depth += 1;
            }

            for m in markers {
                let mf = &ws.files[m.file];
                if !reported.insert((mf.rel_path.clone(), m.line, m.col)) {
                    continue;
                }
                out.push(Finding::new(
                    RULE_PANIC_IN_TASK_PATH,
                    mf,
                    m.line,
                    m.col,
                    format!(
                        "{} reachable from executor `.{method}(…)` at {root}: task \
                         closures run behind `catch_unwind` — a panic here silently drops \
                         the task's work; surface failure as a typed error through \
                         `TaskHandle` instead",
                        m.what,
                    ),
                ));
            }
        }
    }
    out
}

/// Scans one code-index span for panic markers and callees.
fn scan_span(
    file: &SourceFile,
    fi: usize,
    span: (usize, usize),
    direct: bool,
    chain: &[String],
    markers: &mut Vec<Marker>,
    callees: &mut BTreeSet<String>,
) {
    let via = if chain.is_empty() {
        String::new()
    } else {
        format!(" (via `{}`)", chain.join("` → `"))
    };
    for ci in span.0..=span.1.min(file.code.len().saturating_sub(1)) {
        let Some(tok) = file.ct(ci) else { break };
        if file.is_test_line(tok.line) {
            continue;
        }
        // `.unwrap(` / `.expect(`.
        for m in ["unwrap", "expect"] {
            if method_call(file, ci, m).is_some() {
                let t = file.ct(ci + 1).expect("matched");
                markers.push(Marker {
                    file: fi,
                    line: t.line,
                    col: t.col,
                    what: format!("`.{m}()`{via}"),
                });
            }
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
        if tok.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&tok.text.as_str())
            && file.ct(ci + 1).is_some_and(|t| t.is_punct('!'))
        {
            markers.push(Marker {
                file: fi,
                line: tok.line,
                col: tok.col,
                what: format!("`{}!`{via}", tok.text),
            });
        }
        // Slice indexing `expr[i]` — only in the direct closure, where
        // name-resolution ambiguity cannot have routed us somewhere wrong.
        if direct && tok.is_punct('[') {
            let prev = ci.checked_sub(1).and_then(|p| file.ct(p));
            let is_index = prev.is_some_and(|p| {
                (p.kind == TokenKind::Ident && !KEYWORDS.contains(&p.text.as_str()))
                    || p.is_punct(')')
                    || p.is_punct(']')
            });
            if is_index {
                markers.push(Marker {
                    file: fi,
                    line: tok.line,
                    col: tok.col,
                    what: "slice indexing (panics out of bounds)".to_string(),
                });
            }
        }
        // Callees: `name(` that is not a keyword, macro, or definition.
        if tok.kind == TokenKind::Ident
            && file.ct(ci + 1).is_some_and(|t| t.is_punct('('))
            && !KEYWORDS.contains(&tok.text.as_str())
            && !STOPLIST.contains(&tok.text.as_str())
            && !["unwrap", "expect"].contains(&tok.text.as_str())
        {
            // Not a definition site (`fn name(`), and not a std associated
            // fn (`Arc::new(`).
            let is_def = ci
                .checked_sub(1)
                .and_then(|p| file.ct(p))
                .is_some_and(|p| p.is_ident("fn"));
            let std_qualified = ci >= 3
                && file.ct(ci - 1).is_some_and(|t| t.is_punct(':'))
                && file.ct(ci - 2).is_some_and(|t| t.is_punct(':'))
                && file
                    .ct(ci - 3)
                    .is_some_and(|t| STD_QUALIFIERS.contains(&t.text.as_str()));
            if !is_def && !std_qualified {
                callees.insert(tok.text.clone());
            }
        }
    }
}

/// Workspace-wide `fn` index: name → definitions.
fn build_fn_index(ws: &WorkspaceModel) -> BTreeMap<String, Vec<FnDef>> {
    let mut index: BTreeMap<String, Vec<FnDef>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let mut ci = 0usize;
        while ci + 1 < file.code.len() {
            if !file.ct(ci).is_some_and(|t| t.is_ident("fn")) {
                ci += 1;
                continue;
            }
            let Some(name_tok) = file.ct(ci + 1) else {
                break;
            };
            if name_tok.kind != TokenKind::Ident {
                ci += 1;
                continue;
            }
            // Body = first `{` after the signature (`;` means no body).
            let mut j = ci + 2;
            let mut body = None;
            while let Some(t) = file.ct(j) {
                if t.is_punct(';') {
                    break;
                }
                if t.is_punct('{') {
                    body = Some((j, file.matching_close(j)));
                    break;
                }
                j += 1;
            }
            if let Some(body) = body {
                index
                    .entry(name_tok.text.clone())
                    .or_default()
                    .push(FnDef { file: fi, body });
                ci = body.0 + 1; // Nested fns inside the body still get found.
            } else {
                ci = j + 1;
            }
        }
    }
    index
}

/// Resolves a callee name: definitions in the caller's crate if any exist,
/// otherwise every definition in the workspace.
fn resolve<'i>(
    index: &'i BTreeMap<String, Vec<FnDef>>,
    ws: &WorkspaceModel,
    name: &str,
    caller_crate: &str,
) -> Vec<&'i FnDef> {
    let Some(defs) = index.get(name) else {
        return Vec::new();
    };
    let same_crate: Vec<&FnDef> = defs
        .iter()
        .filter(|d| ws.files[d.file].crate_name == caller_crate)
        .collect();
    if same_crate.is_empty() {
        defs.iter().collect()
    } else {
        same_crate
    }
}
