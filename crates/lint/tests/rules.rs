//! Fixture tests: every rule must demonstrably fire on a minimal violation
//! and stay silent on the documented exemptions — suppression annotations,
//! exempt crates, blessed files, `#[cfg(test)]` code, and the baseline.
//!
//! Fixtures are built straight from source text via `SourceFile::from_source`
//! (the analysis is lexical, so fixtures need not compile), assembled into a
//! `WorkspaceModel`, and pushed through the same `analyze` entry point the
//! CLI uses.

use std::path::Path;
use ve_lint::workspace::load_workspace;
use ve_lint::{
    analyze, parse_baseline, render_baseline, BaselineEntry, Report, SourceFile, WorkspaceModel,
};
use ve_obs::json::Json;

/// Builds a workspace model from `(crate_name, rel_path, source)` fixtures.
fn ws(files: &[(&str, &str, &str)]) -> WorkspaceModel {
    WorkspaceModel {
        files: files
            .iter()
            .map(|(c, p, s)| SourceFile::from_source(c, p, s))
            .collect(),
    }
}

/// Analyzes fixtures with an empty baseline.
fn run(files: &[(&str, &str, &str)]) -> Report {
    analyze(&ws(files), &[])
}

/// The rule names of the active findings, in report order.
fn active_rules(report: &Report) -> Vec<&str> {
    report.active.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- iteration

#[test]
fn iteration_fires_on_hashmap_field_keys() {
    let src = "struct S { index: std::collections::HashMap<u64, u64> }\n\
               impl S {\n\
                   fn bad(&self) -> Vec<u64> {\n\
                       self.index.keys().copied().collect()\n\
                   }\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["nondeterministic-iteration"]);
    assert_eq!(report.active[0].line, 4);
}

#[test]
fn iteration_fires_on_let_binding_for_loop() {
    let src = "fn bad() {\n\
                   let mut seen = std::collections::HashMap::new();\n\
                   seen.insert(1u64, 2u64);\n\
                   for (k, v) in &seen {\n\
                       use_it(k, v);\n\
                   }\n\
               }\n";
    let report = run(&[("ve-storage", "crates/storage/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["nondeterministic-iteration"]);
}

#[test]
fn iteration_fires_on_reference_param_binding() {
    let src = "pub fn bad(m: &std::collections::HashMap<u64, f64>) -> Vec<u64> {\n\
                   m.keys().copied().collect()\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["nondeterministic-iteration"]);
}

#[test]
fn iteration_fires_on_map_returning_fn_call_site() {
    let src = "fn windows() -> std::collections::HashMap<u64, u64> {\n\
                   make()\n\
               }\n\
               fn bad() -> usize {\n\
                   windows().iter().count()\n\
               }\n";
    let report = run(&[("ve-ml", "crates/ml/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["nondeterministic-iteration"]);
    assert_eq!(report.active[0].line, 5);
}

#[test]
fn iteration_passes_through_lock_guards() {
    let src = "struct M { warm: Mutex<std::collections::HashMap<u64, u64>> }\n\
               impl M {\n\
                   fn bad(&self) -> Vec<u64> {\n\
                       self.warm.lock().keys().copied().collect()\n\
                   }\n\
               }\n";
    let report = run(&[("vocalexplore", "src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["nondeterministic-iteration"]);
}

#[test]
fn iteration_silent_when_statement_sorts_or_collects_ordered() {
    let src = "struct S { index: std::collections::HashMap<u64, u64> }\n\
               impl S {\n\
                   fn sorted(&self) -> std::collections::BTreeMap<u64, u64> {\n\
                       self.index.iter().map(|(k, v)| (*k, *v)).collect::<std::collections::BTreeMap<_, _>>()\n\
                   }\n\
                   fn sorted_after(&self) -> Vec<u64> {\n\
                       let mut keys: Vec<u64> = self.index.keys().copied().collect();\n\
                       keys.sort();\n\
                       keys\n\
                   }\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn iteration_silent_outside_determinism_critical_crates() {
    let src = "struct S { index: std::collections::HashMap<u64, u64> }\n\
               impl S {\n\
                   fn fine(&self) -> Vec<u64> {\n\
                       self.index.keys().copied().collect()\n\
                   }\n\
               }\n";
    let report = run(&[("ve-features", "crates/features/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn iteration_silent_in_cfg_test_code() {
    let src = "fn live() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t() {\n\
                       let m = std::collections::HashMap::new();\n\
                       for (k, v) in &m {\n\
                           check(k, v);\n\
                       }\n\
                   }\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn test_declared_bindings_do_not_taint_production_code() {
    // A HashSet binding named `clusters` declared in test code must not make
    // production uses of an unrelated Vec named `clusters` match the rule.
    let src = "fn live(clusters: &[Vec<usize>]) -> usize {\n\
                   clusters.iter().map(|c| c.len()).sum::<usize>()\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t() {\n\
                       let clusters: std::collections::HashSet<usize> = make();\n\
                   }\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

// -------------------------------------------------------------- suppression

#[test]
fn suppression_on_preceding_line_silences() {
    let src = "struct S { index: std::collections::HashMap<u64, u64> }\n\
               impl S {\n\
                   fn counted(&self) -> usize {\n\
                       // ve-lint: allow(nondeterministic-iteration) -- count is order-insensitive\n\
                       self.index.values().count()\n\
                   }\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
    assert_eq!(report.suppressed, 1);
}

#[test]
fn suppression_trailing_on_same_line_silences() {
    let src = "struct S { index: std::collections::HashMap<u64, u64> }\n\
               impl S {\n\
                   fn counted(&self) -> usize {\n\
                       self.index.values().count() // ve-lint: allow(nondeterministic-iteration) -- count is order-insensitive\n\
                   }\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
    assert_eq!(report.suppressed, 1);
}

#[test]
fn suppression_for_the_wrong_rule_does_not_silence() {
    let src = "struct S { index: std::collections::HashMap<u64, u64> }\n\
               impl S {\n\
                   fn counted(&self) -> usize {\n\
                       // ve-lint: allow(wall-clock-in-logic) -- wrong rule\n\
                       self.index.values().count()\n\
                   }\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["nondeterministic-iteration"]);
}

#[test]
fn suppression_without_reason_is_malformed_and_does_not_silence() {
    let src = "fn bad(xs: &[f64]) -> f64 {\n\
                   // ve-lint: allow(float-reduction-order)\n\
                   xs.iter().sum::<f64>()\n\
               }\n";
    let report = run(&[("ve-ml", "crates/ml/src/fx.rs", src)]);
    let mut rules = active_rules(&report);
    rules.sort_unstable();
    assert_eq!(rules, ["float-reduction-order", "malformed-suppression"]);
}

#[test]
fn suppression_naming_unknown_rule_is_malformed() {
    let src = "fn fine() {} // ve-lint: allow(made-up-rule) -- because\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["malformed-suppression"]);
    assert!(report.active[0].message.contains("made-up-rule"));
}

#[test]
fn doc_comments_describing_the_syntax_are_not_annotations() {
    let src = "/// Write `ve-lint: allow(rule)` to suppress — this doc line is prose.\n\
               //! ve-lint: allow(also-prose)\n\
               fn fine() {}\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

// --------------------------------------------------------------- wall clock

#[test]
fn wall_clock_fires_outside_exempt_crates() {
    let src = "fn decide() -> bool {\n\
                   std::time::Instant::now().elapsed().as_secs() > 1\n\
               }\n";
    let report = run(&[("ve-ml", "crates/ml/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["wall-clock-in-logic"]);
    assert!(report.active[0].message.contains("Instant::now"));
}

#[test]
fn wall_clock_silent_in_sched_and_bench() {
    let src = "fn measure() -> std::time::Instant {\n\
                   std::time::Instant::now()\n\
               }\n\
               fn stamp() -> std::time::SystemTime {\n\
                   std::time::SystemTime::now()\n\
               }\n";
    for c in ["ve-sched", "ve-bench"] {
        let report = run(&[(c, "crates/x/src/fx.rs", src)]);
        assert!(report.is_clean(), "{c}: {}", report.render_human());
    }
}

#[test]
fn wall_clock_fires_in_obs_event_plane_files() {
    // The ve-obs event plane must stay wall-clock-free: event content and
    // order are part of the determinism contract. Only the timing plane
    // (timing.rs) may read the clock.
    let src = "pub fn record_stamp() -> u64 {\n\
                   std::time::Instant::now().elapsed().as_micros() as u64\n\
               }\n";
    let report = run(&[("ve-obs", "crates/obs/src/event.rs", src)]);
    assert_eq!(active_rules(&report), ["wall-clock-in-logic"]);
    assert!(report.active[0].message.contains("Instant::now"));
}

#[test]
fn wall_clock_silent_in_obs_timing_plane_file() {
    // Identical source, but in the sanctioned timing-plane file.
    let src = "pub fn record_stamp() -> u64 {\n\
                   std::time::Instant::now().elapsed().as_micros() as u64\n\
               }\n";
    let report = run(&[("ve-obs", "crates/obs/src/timing.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn wall_clock_fires_in_report_crate() {
    // ve-report is a gate over *recorded* artifacts; it must never time
    // anything itself, so it is deliberately absent from the exempt list.
    let src = "pub fn stamp() -> u64 {\n\
                   std::time::Instant::now().elapsed().as_micros() as u64\n\
               }\n";
    let report = run(&[("ve-report", "crates/report/src/lib.rs", src)]);
    assert_eq!(active_rules(&report), ["wall-clock-in-logic"]);
    assert!(report.active[0].message.contains("Instant::now"));
}

#[test]
fn wall_clock_suppressible_with_reason() {
    let src = "fn timer() -> std::time::Instant {\n\
                   // ve-lint: allow(wall-clock-in-logic) -- measurement is the product here\n\
                   std::time::Instant::now()\n\
               }\n";
    let report = run(&[("vocalexplore", "src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
    assert_eq!(report.suppressed, 1);
}

// --------------------------------------------------------------- panic path

/// Every `Executor` submit form, up to and including the task closure's
/// parameter list: each panic-path fixture is run through all of them.
const SUBMIT_FORMS: &[&str] = &[
    "submit(Priority::Normal, move ||",
    "submit_labeled(Priority::Normal, TaskLabel::new(\"t\", 1), move ||",
    "submit_with_handle(Priority::Normal, move ||",
    "submit_with_handle_labeled(Priority::Normal, TaskLabel::new(\"t\", 1), move ||",
    "submit_retryable(Priority::Normal, policy, move |attempt|",
    "submit_retryable_labeled(Priority::Normal, TaskLabel::new(\"t\", 1), policy, move |attempt|",
];

#[test]
fn panic_path_fires_on_unwrap_in_submitted_closure() {
    for submit in SUBMIT_FORMS {
        let src = format!(
            "fn go(ex: &Executor) {{\n\
                 ex.{submit} {{\n\
                     let v = compute().unwrap();\n\
                     store(v);\n\
                 }});\n\
             }}\n"
        );
        let report = run(&[("vocalexplore", "src/fx.rs", src.as_str())]);
        assert_eq!(active_rules(&report), ["panic-in-task-path"], "{submit}");
        assert_eq!(report.active[0].line, 3, "{submit}");
        assert!(report.active[0].message.contains(".unwrap()"), "{submit}");
    }
}

#[test]
fn panic_path_follows_calls_out_of_the_closure() {
    for submit in SUBMIT_FORMS {
        let src = format!(
            "fn helper(x: Option<u64>) -> u64 {{\n\
                 x.expect(\"x must be set\")\n\
             }}\n\
             fn go(ex: &Executor) {{\n\
                 ex.{submit} helper(input()));\n\
             }}\n"
        );
        let report = run(&[("vocalexplore", "src/fx.rs", src.as_str())]);
        assert_eq!(active_rules(&report), ["panic-in-task-path"], "{submit}");
        assert_eq!(
            report.active[0].line, 2,
            "marker is at the callee's expect: {submit}"
        );
        assert!(
            report.active[0].message.contains("via `helper`"),
            "message names the call chain: {}",
            report.active[0].message
        );
    }
}

#[test]
fn panic_path_flags_slice_indexing_in_direct_closure() {
    for submit in SUBMIT_FORMS {
        let src = format!(
            "fn go(ex: &Executor, xs: Vec<f64>) {{\n\
                 ex.{submit} {{\n\
                     let first = xs[0];\n\
                     store(first);\n\
                 }});\n\
             }}\n"
        );
        let report = run(&[("vocalexplore", "src/fx.rs", src.as_str())]);
        assert_eq!(active_rules(&report), ["panic-in-task-path"], "{submit}");
        assert!(
            report.active[0].message.contains("slice indexing"),
            "{submit}"
        );
    }
}

#[test]
fn panic_path_fires_on_panic_macro() {
    for submit in SUBMIT_FORMS {
        let src = format!(
            "fn go(ex: &Executor) {{\n\
                 ex.{submit} panic!(\"boom\"));\n\
             }}\n"
        );
        let report = run(&[("vocalexplore", "src/fx.rs", src.as_str())]);
        assert_eq!(active_rules(&report), ["panic-in-task-path"], "{submit}");
        assert!(report.active[0].message.contains("`panic!`"), "{submit}");
    }
}

#[test]
fn panic_path_silent_for_panic_free_closure_and_test_code() {
    for submit in SUBMIT_FORMS {
        let src = format!(
            "fn go(ex: &Executor) {{\n\
                 ex.{submit} {{\n\
                     if let Some(v) = compute() {{\n\
                         store(v);\n\
                     }}\n\
                 }});\n\
             }}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
                 fn t(ex: &Executor) {{\n\
                     ex.{submit} panic!(\"fine in tests\"));\n\
                 }}\n\
             }}\n"
        );
        let report = run(&[("vocalexplore", "src/fx.rs", src.as_str())]);
        assert!(report.is_clean(), "{submit}: {}", report.render_human());
    }
}

#[test]
fn panic_path_suppressible_at_the_marker_line() {
    for submit in SUBMIT_FORMS {
        let src = format!(
            "fn go(ex: &Executor) {{\n\
                 ex.{submit} {{\n\
                     // ve-lint: allow(panic-in-task-path) -- invariant: compute is total here\n\
                     let v = compute().unwrap();\n\
                     store(v);\n\
                 }});\n\
             }}\n"
        );
        let report = run(&[("vocalexplore", "src/fx.rs", src.as_str())]);
        assert!(report.is_clean(), "{submit}: {}", report.render_human());
        assert_eq!(report.suppressed, 1, "{submit}");
    }
}

// ------------------------------------------------------------ lock discipline

#[test]
fn lock_discipline_fires_on_recursive_acquisition() {
    let src = "impl M {\n\
                   fn bad(&self) {\n\
                       let a = self.warm.lock();\n\
                       let b = self.warm.lock();\n\
                       use_both(a, b);\n\
                   }\n\
               }\n";
    let report = run(&[("vocalexplore", "src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["lock-discipline"]);
    assert!(report.active[0].message.contains("re-acquisition"));
}

#[test]
fn lock_discipline_knows_the_report_findings_lock() {
    // The sentinel's findings log is registered as `report.findings`, so
    // misuse inside ve-report is caught like any other tracked lock.
    let src = "impl Sentinel {\n\
                   fn bad(&self) {\n\
                       let a = self.findings.lock();\n\
                       let b = self.findings.lock();\n\
                       use_both(a, b);\n\
                   }\n\
               }\n";
    let report = run(&[("ve-report", "crates/report/src/lib.rs", src)]);
    assert_eq!(active_rules(&report), ["lock-discipline"]);
    assert!(report.active[0].message.contains("report.findings"));
}

#[test]
fn lock_discipline_fires_on_wait_while_holding_unrelated_lock() {
    let src = "impl M {\n\
                   fn bad(&self) {\n\
                       let g = self.stats.lock();\n\
                       self.handle.join();\n\
                       use_it(g);\n\
                   }\n\
               }\n";
    let report = run(&[("vocalexplore", "src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["lock-discipline"]);
    assert!(report.active[0].message.contains("blocking `.join(…)`"));
}

#[test]
fn lock_discipline_exempts_condvar_wait_on_its_own_guard() {
    let src = "impl Executor {\n\
                   fn wait_loop(&self) {\n\
                       let mut g = self.state.lock();\n\
                       while !g.done {\n\
                           self.cv.wait(&mut g);\n\
                       }\n\
                   }\n\
               }\n";
    let report = run(&[("ve-sched", "crates/sched/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn lock_discipline_drop_releases_the_guard() {
    let src = "impl M {\n\
                   fn fine(&self) {\n\
                       let g = self.warm.lock();\n\
                       use_it(&g);\n\
                       drop(g);\n\
                       let h = self.warm.lock();\n\
                       use_it(&h);\n\
                   }\n\
               }\n";
    let report = run(&[("vocalexplore", "src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn lock_discipline_string_join_is_not_a_wait() {
    let src = "impl M {\n\
                   fn fine(&self, parts: &[String]) -> String {\n\
                       let g = self.warm.lock();\n\
                       let s = parts.join(\", \");\n\
                       format_it(&g, s)\n\
                   }\n\
               }\n";
    let report = run(&[("vocalexplore", "src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn lock_discipline_detects_order_cycles() {
    let src = "impl M {\n\
                   fn a(&self) {\n\
                       let x = self.warm.lock();\n\
                       let y = self.stats.lock();\n\
                       use_both(x, y);\n\
                   }\n\
               }\n\
               impl M {\n\
                   fn b(&self) {\n\
                       let y = self.stats.lock();\n\
                       let x = self.warm.lock();\n\
                       use_both(x, y);\n\
                   }\n\
               }\n";
    let report = run(&[("vocalexplore", "src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["lock-discipline"]);
    let msg = &report.active[0].message;
    assert!(
        msg.contains("lock-order cycle") && msg.contains("mm.warm") && msg.contains("mm.stats"),
        "cycle names both classes: {msg}"
    );
}

#[test]
fn lock_discipline_consistent_order_is_clean() {
    let src = "impl M {\n\
                   fn a(&self) {\n\
                       let x = self.warm.lock();\n\
                       let y = self.stats.lock();\n\
                       use_both(x, y);\n\
                   }\n\
                   fn b(&self) {\n\
                       let x = self.warm.lock();\n\
                       let y = self.stats.lock();\n\
                       use_both(x, y);\n\
                   }\n\
               }\n";
    let report = run(&[("vocalexplore", "src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

// ------------------------------------------------------------- float order

#[test]
fn float_order_fires_on_untyped_sum() {
    let src = "fn total(xs: &[f64]) -> f64 {\n\
                   xs.iter().sum()\n\
               }\n";
    let report = run(&[("ve-ml", "crates/ml/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["float-reduction-order"]);
    assert!(report.active[0].message.contains("untyped"));
}

#[test]
fn float_order_fires_on_float_turbofish_and_float_fold() {
    let src = "fn total(xs: &[f64]) -> f64 {\n\
                   xs.iter().sum::<f64>()\n\
               }\n\
               fn folded(xs: &[f32]) -> f32 {\n\
                   xs.iter().fold(0.0, |a, b| a + b)\n\
               }\n";
    let report = run(&[("ve-al", "crates/al/src/fx.rs", src)]);
    assert_eq!(
        active_rules(&report),
        ["float-reduction-order", "float-reduction-order"]
    );
}

#[test]
fn float_order_integer_reductions_pass() {
    let src = "fn count(xs: &[Vec<u8>]) -> usize {\n\
                   xs.iter().map(|v| v.len()).sum::<usize>()\n\
               }\n\
               fn folded(xs: &[usize]) -> usize {\n\
                   xs.iter().fold(0usize, |a, b| a + b)\n\
               }\n\
               fn bits(xs: &[u64]) -> u64 {\n\
                   xs.iter().copied().fold(0, |a, b| a | b)\n\
               }\n";
    let report = run(&[("ve-ml", "crates/ml/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn float_order_non_literal_fold_accumulator_must_be_annotated() {
    let src = "fn folded(xs: &[f64], init: f64) -> f64 {\n\
                   xs.iter().fold(init, |a, b| a + b)\n\
               }\n";
    let report = run(&[("ve-ml", "crates/ml/src/fx.rs", src)]);
    assert_eq!(active_rules(&report), ["float-reduction-order"]);
    assert!(report.active[0].message.contains("non-literal accumulator"));
}

#[test]
fn float_order_blessed_kernel_files_are_exempt() {
    let src = "fn kernel(xs: &[f32]) -> f32 {\n\
                   xs.iter().sum::<f32>()\n\
               }\n";
    let report = run(&[("ve-ml", "crates/ml/src/block.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn float_order_silent_outside_determinism_critical_crates() {
    let src = "fn total(xs: &[f64]) -> f64 {\n\
                   xs.iter().sum()\n\
               }\n";
    let report = run(&[("ve-bench", "crates/bench/src/fx.rs", src)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

// ---------------------------------------------------------- executor bypass

#[test]
fn executor_bypass_fires_on_raw_spawn_and_builder() {
    let src = "fn go() {\n\
                   std::thread::spawn(|| work());\n\
                   let b = std::thread::Builder::new();\n\
               }\n";
    let report = run(&[("ve-storage", "crates/storage/src/fx.rs", src)]);
    assert_eq!(
        active_rules(&report),
        ["executor-bypass", "executor-bypass"]
    );
}

#[test]
fn executor_bypass_silent_in_sched_and_in_tests() {
    let sched = "fn worker() {\n\
                     std::thread::spawn(|| run());\n\
                 }\n";
    let report = run(&[("ve-sched", "crates/sched/src/fx.rs", sched)]);
    assert!(report.is_clean(), "{}", report.render_human());

    let tests_only = "fn live() {}\n\
                      #[cfg(test)]\n\
                      mod tests {\n\
                          fn t() {\n\
                              std::thread::spawn(|| hammer());\n\
                          }\n\
                      }\n";
    let report = run(&[("ve-storage", "crates/storage/src/fx.rs", tests_only)]);
    assert!(report.is_clean(), "{}", report.render_human());
}

// ----------------------------------------------------------------- baseline

#[test]
fn baseline_grandfathers_matching_findings() {
    let src = "fn total(xs: &[f64]) -> f64 {\n\
                   xs.iter().sum::<f64>()\n\
               }\n";
    let baseline = vec![BaselineEntry {
        rule: "float-reduction-order".to_string(),
        path: "crates/ml/src/fx.rs".to_string(),
        snippet: "xs.iter().sum::<f64>()".to_string(),
    }];
    let report = analyze(&ws(&[("ve-ml", "crates/ml/src/fx.rs", src)]), &baseline);
    assert!(report.is_clean(), "{}", report.render_human());
    assert_eq!(report.grandfathered, 1);
}

#[test]
fn one_baseline_entry_covers_repeated_identical_lines() {
    let src = "fn a(xs: &[f64]) -> f64 {\n\
                   xs.iter().sum::<f64>()\n\
               }\n\
               fn b(xs: &[f64]) -> f64 {\n\
                   xs.iter().sum::<f64>()\n\
               }\n";
    let baseline = vec![BaselineEntry {
        rule: "float-reduction-order".to_string(),
        path: "crates/ml/src/fx.rs".to_string(),
        snippet: "xs.iter().sum::<f64>()".to_string(),
    }];
    let report = analyze(&ws(&[("ve-ml", "crates/ml/src/fx.rs", src)]), &baseline);
    assert!(report.is_clean(), "{}", report.render_human());
    assert_eq!(report.grandfathered, 2);
}

#[test]
fn stale_baseline_entries_fail_the_gate() {
    let src = "fn fine() {}\n";
    let baseline = vec![BaselineEntry {
        rule: "float-reduction-order".to_string(),
        path: "crates/ml/src/fx.rs".to_string(),
        snippet: "this line was fixed and no longer exists".to_string(),
    }];
    let report = analyze(&ws(&[("ve-ml", "crates/ml/src/fx.rs", src)]), &baseline);
    assert!(!report.is_clean());
    assert_eq!(report.stale_baseline.len(), 1);
    assert!(report.render_human().contains("stale-baseline"));
}

#[test]
fn baseline_round_trips_through_render_and_parse() {
    let src = "fn total(xs: &[f64]) -> f64 {\n\
                   xs.iter().sum::<f64>()\n\
               }\n";
    let model = ws(&[("ve-ml", "crates/ml/src/fx.rs", src)]);
    let findings = ve_lint::unsuppressed_findings(&model);
    assert_eq!(findings.len(), 1);
    let rendered = render_baseline(&findings);
    let parsed = parse_baseline(&rendered).expect("rendered baseline parses");
    let report = analyze(&model, &parsed);
    assert!(report.is_clean(), "{}", report.render_human());
    assert_eq!(report.grandfathered, 1);
}

#[test]
fn malformed_suppressions_cannot_be_baselined() {
    let src = "fn fine() {} // ve-lint: allow(float-reduction-order)\n";
    let baseline = vec![BaselineEntry {
        rule: "malformed-suppression".to_string(),
        path: "crates/ml/src/fx.rs".to_string(),
        snippet: "fn fine() {} // ve-lint: allow(float-reduction-order)".to_string(),
    }];
    let report = analyze(&ws(&[("ve-ml", "crates/ml/src/fx.rs", src)]), &baseline);
    // The malformed finding stays active AND the entry it "matches" is stale:
    // the baseline cannot launder annotation-grammar errors.
    assert_eq!(active_rules(&report), ["malformed-suppression"]);
    assert_eq!(report.stale_baseline.len(), 1);
}

#[test]
fn garbled_baseline_is_a_parse_error() {
    assert!(parse_baseline("not a tab separated line\n").is_err());
    assert!(parse_baseline("# comment\n\nrule\tpath\tsnippet\n").is_ok());
}

// ------------------------------------------------------------------ output

#[test]
fn json_output_escapes_and_carries_counts() {
    let src = "fn total(xs: &[f64]) -> f64 {\n\
                   xs.iter().fold(0.0, |a, b| a + \"q\\\"uote\".len() as f64 + b)\n\
               }\n";
    let report = run(&[("ve-ml", "crates/ml/src/fx.rs", src)]);
    let json = report.render_json();
    assert!(json.contains("\"rule\": \"float-reduction-order\""));
    assert!(json.contains("\\\""), "quotes in snippets are escaped");
    assert!(json.contains("\"files_scanned\": 1"));
    let doc = ve_obs::json::parse(&json).expect("`--json` output is valid JSON");
    let snippet = doc.path("findings.0.snippet").and_then(Json::as_str);
    assert_eq!(snippet, Some(report.active[0].snippet.as_str()));
}

// ---------------------------------------------------------- the real gate

/// The repository must pass its own gate: this is the same analysis the CI
/// step runs, so plain `cargo test` catches a regression even before CI.
#[test]
fn repository_passes_its_own_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let model = load_workspace(&root).expect("workspace loads");
    assert!(
        model.files.len() > 50,
        "workspace discovery found the crates"
    );
    let baseline_text = std::fs::read_to_string(root.join("ve-lint.baseline")).unwrap_or_default();
    let baseline = parse_baseline(&baseline_text).expect("committed baseline parses");
    let report = analyze(&model, &baseline);
    assert!(
        report.is_clean(),
        "ve-lint gate failed on the repository itself:\n{}",
        report.render_human()
    );
}
