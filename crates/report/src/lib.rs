//! `ve-report` — the perf-regression sentinel.
//!
//! The five committed `BENCH_*.json` artifacts carry the paper's headline
//! claims (Serial > VE-partial > VE-full, incremental selection ~20× ahead
//! of from-scratch, flat warm-start cost).
//! This crate turns each claim into a machine-checked expectation: a
//! checked-in `BENCH_contract.json` declares per-metric direction and
//! tolerance ([`contract`]), and [`Sentinel::check`] evaluates a fresh
//! quick-bench run against the committed baselines under those rules. CI
//! runs `ve-report --check` as a hard gate, like `ve-lint`.
//!
//! Std-only and single-threaded by policy: the gate must build offline and
//! must never be the thing that breaks the build, and all concurrency in
//! this repository flows through `ve_sched::Executor` — which a gate binary
//! has no business spinning up. The findings log behind
//! [`Sentinel`] is a plain mutex (`report.findings` in `ve-lint`'s lock
//! registry) so the sentinel stays `Sync` for embedders.

pub mod contract;

pub use contract::{parse_contract, Contract, Rule, RuleKind, Source, CONTRACT_SCHEMA};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use ve_obs::json::{parse, Json};

/// Parsed artifacts by file name. Absent entries (file not on disk) become
/// violations for the rules that need them — a bench that stopped emitting
/// its artifact is itself a regression.
pub type Artifacts = BTreeMap<String, Json>;

/// One broken expectation. `subject` names the artifact and metric; the
/// message states observed vs allowed and quotes the rule's reason.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub artifact: String,
    pub subject: String,
    pub message: String,
}

/// Outcome of one contract evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Rules evaluated to a verdict (pass or violation).
    pub checked: usize,
    /// Rules skipped, with why (quick-mode mismatch, allowed-missing metric).
    pub skipped: Vec<String>,
    pub violations: Vec<Violation>,
    /// Per-rule findings log, in contract order.
    pub log: Vec<String>,
}

impl CheckReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for line in &self.log {
            let _ = writeln!(out, "  {line}");
        }
        for skip in &self.skipped {
            let _ = writeln!(out, "  skip {skip}");
        }
        for v in &self.violations {
            let _ = writeln!(out, "VIOLATION {} — {}", v.subject, v.message);
        }
        let _ = writeln!(
            out,
            "ve-report: {} — {} rule(s) checked, {} skipped, {} violation(s)",
            if self.is_clean() { "PASS" } else { "FAIL" },
            self.checked,
            self.skipped.len(),
            self.violations.len()
        );
        out
    }

    pub fn render_json(&self) -> String {
        let violations = self.violations.iter().map(|v| {
            Json::obj([
                ("artifact", Json::str(&v.artifact)),
                ("message", Json::str(&v.message)),
                ("subject", Json::str(&v.subject)),
            ])
        });
        Json::obj([
            ("checked", Json::usize(self.checked)),
            ("clean", Json::Bool(self.is_clean())),
            ("schema", Json::str("vocalexplore/report_check/v1")),
            ("skipped", self.skipped.iter().map(Json::str).collect()),
            ("violations", violations.collect()),
        ])
        .render()
    }
}

/// The sentinel: evaluates a [`Contract`] over fresh and baseline artifact
/// sets, accumulating a findings log behind a mutex so concurrent embedders
/// (none today; the binary is single-threaded by policy) stay safe.
#[derive(Default)]
pub struct Sentinel {
    findings: Mutex<Vec<String>>,
}

impl Sentinel {
    pub fn new() -> Self {
        Self::default()
    }

    fn note(&self, line: String) {
        self.findings
            .lock()
            .expect("report.findings poisoned")
            .push(line);
    }

    /// Evaluates every rule. `fresh` is the just-run bench output; for the
    /// self-check mode (`ve-report --check` with no directories) both maps
    /// are the committed artifacts and every ratio is exactly 1.
    pub fn check(
        &self,
        contract: &Contract,
        fresh: &Artifacts,
        baseline: &Artifacts,
    ) -> CheckReport {
        let mut report = CheckReport::default();
        self.check_schemas(contract, fresh, "fresh", &mut report);
        if fresh != baseline {
            self.check_schemas(contract, baseline, "baseline", &mut report);
        }
        for rule in &contract.rules {
            self.check_rule(rule, fresh, baseline, &mut report);
        }
        report.log = self
            .findings
            .lock()
            .expect("report.findings poisoned")
            .clone();
        report
    }

    /// Every referenced artifact present in a set must carry a
    /// `vocalexplore/...` schema marker — the writer contract of
    /// `ve_bench::emit`.
    fn check_schemas(
        &self,
        contract: &Contract,
        artifacts: &Artifacts,
        which: &str,
        report: &mut CheckReport,
    ) {
        for name in contract.artifacts() {
            if let Some(doc) = artifacts.get(&name) {
                match doc.get("schema").and_then(Json::as_str) {
                    Some(s) if s.starts_with("vocalexplore/") => {
                        self.note(format!("ok schema {which} {name} ({s})"));
                    }
                    other => report.violations.push(Violation {
                        artifact: name.clone(),
                        subject: format!("{name} :: schema"),
                        message: format!(
                            "{which} artifact schema marker is {other:?}; every bench artifact \
                             must declare a `vocalexplore/...` schema"
                        ),
                    }),
                }
            }
        }
    }

    fn check_rule(
        &self,
        rule: &Rule,
        fresh: &Artifacts,
        baseline: &Artifacts,
        report: &mut CheckReport,
    ) {
        let subject = rule.subject();
        let violate = |report: &mut CheckReport, message: String| {
            report.violations.push(Violation {
                artifact: rule.artifact.clone(),
                subject: subject.clone(),
                message: format!("{message} ({})", rule.reason),
            });
        };
        // Which document(s) the rule reads.
        let doc_for = |source: Source| -> Option<&Json> {
            match source {
                Source::Fresh => fresh.get(&rule.artifact),
                Source::Baseline => baseline.get(&rule.artifact),
            }
        };
        // A metric read that distinguishes "absent/null" from "present".
        let read = |doc: &Json, metric: &str| -> Option<f64> {
            doc.path(metric)
                .filter(|v| !v.is_null())
                .and_then(Json::as_f64)
        };

        match &rule.kind {
            RuleKind::Min(bound) | RuleKind::Max(bound) => {
                let source = rule.source;
                let Some(doc) = doc_for(source) else {
                    report.checked += 1;
                    violate(report, format!("{:?} artifact file is missing", source));
                    return;
                };
                let Some(value) = read(doc, &rule.metric) else {
                    if rule.allow_missing {
                        report
                            .skipped
                            .push(format!("{subject}: metric absent/null (allowed)"));
                    } else {
                        report.checked += 1;
                        violate(report, "metric is missing or null".to_string());
                    }
                    return;
                };
                report.checked += 1;
                let ok = match rule.kind {
                    RuleKind::Min(_) => value >= *bound,
                    _ => value <= *bound,
                };
                if ok {
                    self.note(format!(
                        "ok {} {} = {value} vs {bound}",
                        rule.kind.name(),
                        subject
                    ));
                } else {
                    let dir = if matches!(rule.kind, RuleKind::Min(_)) {
                        "<"
                    } else {
                        ">"
                    };
                    violate(report, format!("value {value} {dir} allowed {bound}"));
                }
            }
            RuleKind::RatioMax(bound) | RuleKind::RatioMin(bound) => {
                let (Some(fresh_doc), Some(base_doc)) =
                    (fresh.get(&rule.artifact), baseline.get(&rule.artifact))
                else {
                    report.checked += 1;
                    violate(report, "artifact file is missing".to_string());
                    return;
                };
                // Like-for-like only: a quick fresh run against a full-mode
                // baseline says nothing about regression.
                let fresh_quick = fresh_doc.get("quick").and_then(Json::as_bool);
                let base_quick = base_doc.get("quick").and_then(Json::as_bool);
                if fresh_quick != base_quick {
                    report.skipped.push(format!(
                        "{subject}: quick modes differ (fresh {fresh_quick:?} vs baseline {base_quick:?})"
                    ));
                    return;
                }
                let (fresh_v, base_v) =
                    match (read(fresh_doc, &rule.metric), read(base_doc, &rule.metric)) {
                        (Some(f), Some(b)) => (f, b),
                        _ if rule.allow_missing => {
                            report
                                .skipped
                                .push(format!("{subject}: metric absent/null (allowed)"));
                            return;
                        }
                        _ => {
                            report.checked += 1;
                            violate(report, "metric is missing or null".to_string());
                            return;
                        }
                    };
                if base_v <= 0.0 {
                    report.skipped.push(format!(
                        "{subject}: baseline {base_v} is not a usable divisor"
                    ));
                    return;
                }
                report.checked += 1;
                let ratio = fresh_v / base_v;
                let ok = match rule.kind {
                    RuleKind::RatioMax(_) => ratio <= *bound,
                    _ => ratio >= *bound,
                };
                if ok {
                    self.note(format!(
                        "ok {} {} = {fresh_v} / {base_v} = {ratio:.4} vs {bound}",
                        rule.kind.name(),
                        subject
                    ));
                } else {
                    let dir = if matches!(rule.kind, RuleKind::RatioMax(_)) {
                        ">"
                    } else {
                        "<"
                    };
                    violate(
                        report,
                        format!(
                            "fresh {fresh_v} / baseline {base_v} = {ratio:.4} {dir} allowed {bound}"
                        ),
                    );
                }
            }
            RuleKind::OrderDesc(metrics) | RuleKind::OrderLe(metrics) => {
                let Some(doc) = fresh.get(&rule.artifact) else {
                    report.checked += 1;
                    violate(report, "fresh artifact file is missing".to_string());
                    return;
                };
                let mut values = Vec::new();
                for metric in metrics {
                    match read(doc, metric) {
                        Some(v) => values.push((metric, v)),
                        None if rule.allow_missing => {
                            report
                                .skipped
                                .push(format!("{subject}: `{metric}` absent/null (allowed)"));
                            return;
                        }
                        None => {
                            report.checked += 1;
                            violate(report, format!("`{metric}` is missing or null"));
                            return;
                        }
                    }
                }
                report.checked += 1;
                let strict = matches!(rule.kind, RuleKind::OrderDesc(_));
                for pair in values.windows(2) {
                    let ((a_name, a), (b_name, b)) = (&pair[0], &pair[1]);
                    let (broken, relation) = if strict {
                        (a <= b, "must stay strictly above")
                    } else {
                        (a > b, "must not exceed")
                    };
                    if broken {
                        violate(
                            report,
                            format!("`{a_name}` = {a} {relation} `{b_name}` = {b}"),
                        );
                        return;
                    }
                }
                self.note(format!("ok {} {subject}", rule.kind.name()));
            }
        }
    }
}

/// Loads every artifact the contract references from `dir`. Files that do
/// not exist are simply absent (the checker turns that into a violation for
/// the rules that need them); files that exist but do not parse are hard
/// errors.
pub fn load_artifacts(dir: &Path, contract: &Contract) -> Result<Artifacts, String> {
    let mut artifacts = Artifacts::new();
    for name in contract.artifacts() {
        let path = dir.join(&name);
        if !path.is_file() {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        artifacts.insert(name, doc);
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract(rules: &str) -> Contract {
        parse_contract(&format!(
            "{{\"schema\": \"{CONTRACT_SCHEMA}\", \"rules\": [{rules}]}}"
        ))
        .unwrap()
    }

    fn artifacts(name: &str, body: &str) -> Artifacts {
        let mut a = Artifacts::new();
        a.insert(name.to_string(), parse(body).unwrap());
        a
    }

    #[test]
    fn min_rule_passes_and_fails_naming_the_metric() {
        let c = contract(
            r#"{"artifact": "BENCH_training.json", "kind": "min", "metric": "warm_accuracy",
                "value": 0.7, "reason": "warm training must stay accurate"}"#,
        );
        let good = artifacts(
            "BENCH_training.json",
            r#"{"schema": "vocalexplore/bench_training/v2", "warm_accuracy": 0.9}"#,
        );
        let report = Sentinel::new().check(&c, &good, &good);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.checked, 1);

        let bad = artifacts(
            "BENCH_training.json",
            r#"{"schema": "vocalexplore/bench_training/v2", "warm_accuracy": 0.1}"#,
        );
        let report = Sentinel::new().check(&c, &bad, &bad);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert!(v.subject.contains("warm_accuracy"), "{}", v.subject);
        assert!(v.message.contains("0.1"), "{}", v.message);
        assert!(v.message.contains("warm training must stay accurate"));
    }

    #[test]
    fn ratio_rule_compares_fresh_to_baseline_like_for_like() {
        let c = contract(
            r#"{"artifact": "BENCH_latency.json", "kind": "ratio_max",
                "metric": "strategies.ve_full.m", "value": 1.3,
                "reason": "lower-is-better visible latency"}"#,
        );
        let base = artifacts(
            "BENCH_latency.json",
            r#"{"schema": "vocalexplore/bench_latency/v2", "quick": true,
                "strategies": {"ve_full": {"m": 0.725}}}"#,
        );
        let ok_fresh = artifacts(
            "BENCH_latency.json",
            r#"{"schema": "vocalexplore/bench_latency/v2", "quick": true,
                "strategies": {"ve_full": {"m": 0.9}}}"#,
        );
        assert!(Sentinel::new().check(&c, &ok_fresh, &base).is_clean());

        let slow_fresh = artifacts(
            "BENCH_latency.json",
            r#"{"schema": "vocalexplore/bench_latency/v2", "quick": true,
                "strategies": {"ve_full": {"m": 1.5}}}"#,
        );
        let report = Sentinel::new().check(&c, &slow_fresh, &base);
        assert_eq!(report.violations.len(), 1);
        assert!(
            report.violations[0].message.contains("2.0"),
            "{}",
            report.violations[0].message
        );

        // Quick-mode mismatch: skipped, not checked.
        let full_fresh = artifacts(
            "BENCH_latency.json",
            r#"{"schema": "vocalexplore/bench_latency/v2", "quick": false,
                "strategies": {"ve_full": {"m": 9.9}}}"#,
        );
        let report = Sentinel::new().check(&c, &full_fresh, &base);
        assert!(report.is_clean());
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].contains("quick modes differ"));
    }

    #[test]
    fn order_rule_enforces_strict_descent() {
        let c = contract(
            r#"{"artifact": "BENCH_latency.json", "kind": "order_desc",
                "metrics": ["s.serial", "s.partial", "s.full"],
                "reason": "the headline ordering"}"#,
        );
        let good = artifacts(
            "BENCH_latency.json",
            r#"{"schema": "vocalexplore/bench_latency/v2",
                "s": {"serial": 2.4, "partial": 1.2, "full": 0.7}}"#,
        );
        assert!(Sentinel::new().check(&c, &good, &good).is_clean());
        let inverted = artifacts(
            "BENCH_latency.json",
            r#"{"schema": "vocalexplore/bench_latency/v2",
                "s": {"serial": 2.4, "partial": 1.2, "full": 1.2}}"#,
        );
        let report = Sentinel::new().check(&c, &inverted, &inverted);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].message.contains("s.partial"));
        assert!(report.violations[0].message.contains("s.full"));
    }

    #[test]
    fn order_le_rule_allows_ties_and_fails_naming_the_metric() {
        let c = contract(
            r#"{"artifact": "BENCH_obs.json", "kind": "order_le",
                "metrics": ["h.min_us", "h.p50_us", "h.p99_us", "h.max_us"],
                "reason": "histogram summaries are ordered"}"#,
        );
        // p99 == max is a tie, not a violation.
        let good = artifacts(
            "BENCH_obs.json",
            r#"{"schema": "vocalexplore/bench_obs/v1",
                "h": {"min_us": 3, "p50_us": 40, "p99_us": 90, "max_us": 90}}"#,
        );
        let report = Sentinel::new().check(&c, &good, &good);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.checked, 1);

        let inverted = artifacts(
            "BENCH_obs.json",
            r#"{"schema": "vocalexplore/bench_obs/v1",
                "h": {"min_us": 3, "p50_us": 95, "p99_us": 90, "max_us": 90}}"#,
        );
        let report = Sentinel::new().check(&c, &inverted, &inverted);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert!(v.message.contains("h.p50_us"), "{}", v.message);
        assert!(v.message.contains("h.p99_us"), "{}", v.message);
        assert!(v.message.contains("histogram summaries are ordered"));
    }

    #[test]
    fn missing_artifact_and_missing_metric_are_violations_unless_allowed() {
        let c = contract(
            r#"{"artifact": "BENCH_x.json", "kind": "min", "metric": "m", "value": 1,
                "reason": "r"},
               {"artifact": "BENCH_x.json", "kind": "min", "metric": "absent", "value": 1,
                "allow_missing": true, "reason": "r"}"#,
        );
        let empty = Artifacts::new();
        let report = Sentinel::new().check(&c, &empty, &empty);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);

        let present = artifacts(
            "BENCH_x.json",
            r#"{"schema": "vocalexplore/bench_x/v1", "m": 2, "absent": null}"#,
        );
        let report = Sentinel::new().check(&c, &present, &present);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn schema_marker_is_required_on_referenced_artifacts() {
        let c = contract(
            r#"{"artifact": "BENCH_x.json", "kind": "min", "metric": "m", "value": 1,
                "reason": "r"}"#,
        );
        let unmarked = artifacts("BENCH_x.json", r#"{"m": 2}"#);
        let report = Sentinel::new().check(&c, &unmarked, &unmarked);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].subject.contains("schema"));
    }

    #[test]
    fn reports_render_deterministically() {
        let c = contract(
            r#"{"artifact": "BENCH_x.json", "kind": "max", "metric": "m", "value": 1,
                "reason": "r"}"#,
        );
        let a = artifacts(
            "BENCH_x.json",
            r#"{"schema": "vocalexplore/bench_x/v1", "m": 5}"#,
        );
        let r1 = Sentinel::new().check(&c, &a, &a);
        let r2 = Sentinel::new().check(&c, &a, &a);
        assert_eq!(r1.render_human(), r2.render_human());
        assert_eq!(r1.render_json(), r2.render_json());
        assert!(r1.render_json().contains("\"clean\": false"));
        assert!(r1.render_human().contains("FAIL"));
    }

    #[test]
    fn violation_reasons_with_control_characters_stay_valid_json() {
        let c = contract(
            r#"{"artifact": "BENCH_x.json", "kind": "max", "metric": "m", "value": 1,
                "reason": "line one\nline two \u0001 end"}"#,
        );
        let perturbed = artifacts(
            "BENCH_x.json",
            r#"{"schema": "vocalexplore/bench_x/v1", "m": 5}"#,
        );
        let text = Sentinel::new()
            .check(&c, &perturbed, &perturbed)
            .render_json();
        assert!(text.contains("line one\\nline two \\u0001 end"), "{text}");
        let doc = parse(&text).expect("`--json` output is valid JSON");
        let message = doc.path("violations.0.message").and_then(Json::as_str);
        let verbatim = message.is_some_and(|m| m.ends_with("(line one\nline two \u{1} end)"));
        assert!(verbatim, "{message:?}");
    }
}
