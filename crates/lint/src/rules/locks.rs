//! `lock-discipline`: a static lock-order graph over the repository's known
//! mutexes, plus lock-across-wait and recursive-acquisition checks.
//!
//! **Contract.** The executor's PR 2 deadlock class was exactly this: a
//! panic path that kept the queue lock across a wait. With a fixed, small
//! set of long-lived locks we can enforce discipline statically:
//!
//! * a **total order** between lock classes — acquiring B while holding A
//!   creates the edge A→B; a cycle in the edge set is a potential deadlock;
//! * **no blocking wait while holding an unrelated lock** — `wait*`/`join`
//!   with a guard live (condvar waits naming the guard they atomically
//!   release are fine);
//! * **no re-acquisition of a class already held** (std mutexes are not
//!   reentrant — that is self-deadlock, or at best UB-adjacent).
//!
//! **Lock classes** are keyed by `(crate, receiver identifier)` — the field
//! name right before `.lock()`/`.read()`/`.write()`. That is deliberately
//! name-based: the repo's guards live in fields with stable, distinctive
//! names, and the table below is the registry a new lock must be added to.
//!
//! **Guard lifetimes** are approximated lexically: a `let`-bound guard lives
//! to the end of its enclosing block (or an explicit `drop(g)`); a guard in
//! an expression statement lives to the end of that statement.

use crate::engine::{Finding, RULE_LOCK_DISCIPLINE};
use crate::lexer::TokenKind;
use crate::rules::method_call;
use crate::workspace::{SourceFile, WorkspaceModel};
use std::collections::{BTreeMap, BTreeSet};

/// The lock registry: `(crate, receiver ident, class name)`.
const LOCK_CLASSES: &[(&str, &str, &str)] = &[
    ("ve-sched", "state", "executor.queue"),
    ("ve-sched", "result", "executor.task_handle"),
    ("ve-sched", "injected", "fault.injected"),
    ("ve-storage", "inner", "storage.inner"),
    ("vocalexplore", "registry", "model_registry"),
    ("vocalexplore", "warm", "mm.warm"),
    ("vocalexplore", "stats", "mm.stats"),
    ("vocalexplore", "gpu_seconds", "fm.gpu_seconds"),
    ("ve-vidsim", "rng", "oracle.rng"),
    ("ve-obs", "ledger", "obs.ledger"),
    ("ve-obs", "timings", "obs.timings"),
    ("ve-report", "findings", "report.findings"),
];

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];
const WAIT_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "wait_idle",
    "join",
];

/// A live guard during the linear scan of one file.
struct Guard {
    class: &'static str,
    /// Binding name, if `let`-bound.
    name: Option<String>,
    /// Code-index of the acquisition (for wait-arg self-exemption).
    acquired_at: usize,
    /// Code-index past which the guard is dead.
    end: usize,
    line: u32,
}

/// One observed "acquired B while holding A" edge.
struct Edge {
    file: usize,
    line: u32,
    col: u32,
}

pub fn check(ws: &WorkspaceModel) -> Vec<Finding> {
    let mut out = Vec::new();
    // held-class → acquired-class → first site observed.
    let mut edges: BTreeMap<(&'static str, &'static str), Edge> = BTreeMap::new();

    for (fi, file) in ws.files.iter().enumerate() {
        let classes: Vec<(&str, &'static str)> = LOCK_CLASSES
            .iter()
            .filter(|(c, _, _)| *c == file.crate_name)
            .map(|&(_, recv, class)| (recv, class))
            .collect();
        if classes.is_empty() {
            continue;
        }
        scan_file(file, fi, &classes, &mut edges, &mut out);
    }

    // Cycle detection over the edge set.
    report_cycles(ws, &edges, &mut out);
    out
}

fn scan_file(
    file: &SourceFile,
    fi: usize,
    classes: &[(&str, &'static str)],
    edges: &mut BTreeMap<(&'static str, &'static str), Edge>,
    out: &mut Vec<Finding>,
) {
    let mut held: Vec<Guard> = Vec::new();
    for ci in 0..file.code.len() {
        held.retain(|g| g.end >= ci);
        let Some(tok) = file.ct(ci) else { break };
        if file.is_test_line(tok.line) {
            continue;
        }

        // `drop(g)` releases a named guard early.
        if tok.is_ident("drop") && file.ct(ci + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(arg) = file.ct(ci + 2) {
                if arg.kind == TokenKind::Ident {
                    held.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
                }
            }
            continue;
        }

        // Acquisition: `<recv> . lock|read|write (` for a registered recv.
        if tok.kind == TokenKind::Ident {
            if let Some(&(_, class)) = classes.iter().find(|(r, _)| tok.is_ident(r)) {
                if let Some(m) = ACQUIRE_METHODS
                    .iter()
                    .find_map(|m| method_call(file, ci + 1, m).map(|_| *m))
                {
                    for g in &held {
                        if g.class == class {
                            out.push(Finding::new(
                                RULE_LOCK_DISCIPLINE,
                                file,
                                tok.line,
                                tok.col,
                                format!(
                                    "re-acquisition of lock class `{class}` (already held \
                                     since line {}): std locks are not reentrant — this is \
                                     self-deadlock",
                                    g.line
                                ),
                            ));
                        } else {
                            edges.entry((g.class, class)).or_insert(Edge {
                                file: fi,
                                line: tok.line,
                                col: tok.col,
                            });
                        }
                    }
                    let (name, end) = guard_lifetime(file, ci);
                    held.push(Guard {
                        class,
                        name,
                        acquired_at: ci,
                        end,
                        line: tok.line,
                    });
                    let _ = m;
                    continue;
                }
            }
        }

        // Blocking wait while holding a lock the wait does not release.
        if let Some((m, open)) = WAIT_METHODS
            .iter()
            .find_map(|m| method_call(file, ci, m).map(|open| (*m, open)))
        {
            let close = file.matching_close(open);
            // `Vec::join(", ")` is string joining, not thread joining.
            if m == "join"
                && (open + 1..close)
                    .filter_map(|j| file.ct(j))
                    .any(|t| t.kind == TokenKind::StrLit)
            {
                continue;
            }
            let args: BTreeSet<&str> = (open + 1..close)
                .filter_map(|j| file.ct(j))
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            let offenders: Vec<&Guard> = held
                .iter()
                .filter(|g| {
                    // A condvar wait atomically releases the guard it is
                    // passed; a guard acquired inside the arg list is the
                    // same thing spelled inline.
                    let named = g.name.as_deref().is_some_and(|n| args.contains(n));
                    let inline = g.acquired_at > open && g.acquired_at < close;
                    !named && !inline
                })
                .collect();
            if let Some(g) = offenders.first() {
                let t = file.ct(ci + 1).expect("matched");
                out.push(Finding::new(
                    RULE_LOCK_DISCIPLINE,
                    file,
                    t.line,
                    t.col,
                    format!(
                        "blocking `.{m}(…)` while holding lock class `{}` (acquired line \
                         {}): waits must not pin unrelated locks — the PR 2 executor \
                         deadlock was exactly this shape",
                        g.class, g.line
                    ),
                ));
            }
        }
    }
}

/// Lifetime of the guard acquired at code-index `ci` (the receiver token):
/// binding name if `let`-bound, and the code-index its lifetime ends at.
fn guard_lifetime(file: &SourceFile, ci: usize) -> (Option<String>, usize) {
    // Walk back over the field chain (`self . inner . state`) to see whether
    // the acquisition is the RHS of a `let`.
    let mut j = ci;
    while j >= 2
        && file.ct(j - 1).is_some_and(|t| t.is_punct('.'))
        && file.ct(j - 2).is_some_and(|t| t.kind == TokenKind::Ident)
    {
        j -= 2;
    }
    let let_name = if j >= 2 && file.ct(j - 1).is_some_and(|t| t.is_punct('=')) {
        let name_tok = file.ct(j - 2);
        let is_let = (j >= 3 && file.ct(j - 3).is_some_and(|t| t.is_ident("let")))
            || (j >= 4
                && file.ct(j - 3).is_some_and(|t| t.is_ident("mut"))
                && file.ct(j - 4).is_some_and(|t| t.is_ident("let")));
        match name_tok {
            Some(t) if is_let && t.kind == TokenKind::Ident => Some(t.text.clone()),
            _ => None,
        }
    } else {
        None
    };

    if let_name.is_some() {
        // Lives to the end of the enclosing block.
        let mut depth = 0i64;
        let mut k = ci;
        while let Some(t) = file.ct(k) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return (let_name, k);
                }
            }
            k += 1;
        }
        (let_name, file.code.len())
    } else {
        // Transient: lives to the end of the statement.
        let mut depth = 0i64;
        let mut k = ci;
        while let Some(t) = file.ct(k) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return (None, k);
                    }
                }
                ";" if depth == 0 => return (None, k),
                _ => {}
            }
            k += 1;
        }
        (None, file.code.len())
    }
}

/// DFS over the held→acquired edge set; every elementary cycle is reported
/// once at the site of its lexicographically first edge.
fn report_cycles(
    ws: &WorkspaceModel,
    edges: &BTreeMap<(&'static str, &'static str), Edge>,
    out: &mut Vec<Finding>,
) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for &(a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut seen_cycles: BTreeSet<Vec<&str>> = BTreeSet::new();

    for &start in &nodes {
        // DFS looking for a path back to `start`.
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            for &next in adj.get(node).into_iter().flatten() {
                if next == start {
                    // Normalize: rotate so the smallest node leads.
                    let mut cycle = path.clone();
                    let min_pos = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, n)| **n)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min_pos);
                    if !seen_cycles.insert(cycle.clone()) {
                        continue;
                    }
                    let (a, b) = (cycle[0], cycle[(1).min(cycle.len() - 1)]);
                    let site = edges
                        .get(&lookup(edges, a, b))
                        .expect("edge exists by construction");
                    let file = &ws.files[site.file];
                    let mut order = cycle.join("` → `");
                    order.push_str("` → `");
                    order.push_str(cycle[0]);
                    out.push(Finding::new(
                        RULE_LOCK_DISCIPLINE,
                        file,
                        site.line,
                        site.col,
                        format!(
                            "lock-order cycle `{order}`: two threads taking these locks \
                             in opposing orders can deadlock — pick one global order and \
                             restructure this acquisition"
                        ),
                    ));
                } else if !path.contains(&next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
}

/// Finds the concrete `'static` key for edge (a, b).
fn lookup(
    edges: &BTreeMap<(&'static str, &'static str), Edge>,
    a: &str,
    b: &str,
) -> (&'static str, &'static str) {
    edges
        .keys()
        .copied()
        .find(|&(x, y)| x == a && y == b)
        .expect("edge exists by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::load_workspace;
    use std::path::Path;

    /// A registration may only outlive its lock by mistake: every
    /// `LOCK_CLASSES` entry must still be acquired (`.lock()`, `.read()` or
    /// `.write()` on its receiver) in non-test code of its crate.
    #[test]
    fn every_registered_lock_is_acquired_in_non_test_code() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = load_workspace(&root).expect("workspace loads");
        for &(krate, recv, class) in LOCK_CLASSES {
            let acquired = ws.files.iter().filter(|f| f.crate_name == krate).any(|f| {
                (0..f.code.len()).any(|ci| {
                    f.ct(ci)
                        .is_some_and(|t| t.is_ident(recv) && !f.is_test_line(t.line))
                        && ACQUIRE_METHODS
                            .iter()
                            .any(|m| method_call(f, ci + 1, m).is_some())
                })
            });
            assert!(
                acquired,
                "lock class `{class}` (`{recv}` in {krate}) is registered but never \
                 acquired outside tests"
            );
        }
    }
}
