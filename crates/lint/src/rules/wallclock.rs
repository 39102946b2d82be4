//! `wall-clock-in-logic`: `Instant::now` / `SystemTime::now` outside the
//! scheduler's latency measurement (`ve-sched`) and the benchmark harness
//! (`ve-bench`).
//!
//! **Contract.** Selection, training, and storage state are pure functions
//! of their inputs (ROADMAP determinism invariant); a wall-clock read in any
//! of those paths makes behavior a function of *when* the code ran. The
//! session engine's latency timers in `vocalexplore` are legitimate —
//! measurement is the product there — and carry `ve-lint: allow` annotations
//! saying so, which keeps every wall-clock read in the repo explicitly
//! accounted for.

use crate::engine::{Finding, RULE_WALL_CLOCK, WALL_CLOCK_EXEMPT_CRATES, WALL_CLOCK_EXEMPT_FILES};
use crate::rules::is_path_pair;
use crate::workspace::WorkspaceModel;

pub fn check(ws: &WorkspaceModel) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if WALL_CLOCK_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        // File-scoped exemption: `ve-obs`'s timing plane is sanctioned
        // measurement, but its event plane (every other file of the crate)
        // must stay wall-clock-free.
        if WALL_CLOCK_EXEMPT_FILES.contains(&file.rel_path.as_str()) {
            continue;
        }
        for ci in 0..file.code.len() {
            for ty in ["Instant", "SystemTime"] {
                if !is_path_pair(file, ci, ty, "now") {
                    continue;
                }
                let tok = file.ct(ci).expect("pattern matched");
                if file.is_test_line(tok.line) {
                    continue;
                }
                out.push(Finding::new(
                    RULE_WALL_CLOCK,
                    file,
                    tok.line,
                    tok.col,
                    format!(
                        "`{ty}::now()` in crate `{}`: wall-clock reads belong to `ve-sched` \
                         latency measurement or `ve-bench`; logic must be a pure function of \
                         its inputs (annotate if this site *is* measurement)",
                        file.crate_name
                    ),
                ));
            }
        }
    }
    out
}
