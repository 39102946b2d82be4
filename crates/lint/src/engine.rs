//! The rule engine: findings, suppression annotations, the committed
//! baseline, and the policy table that scopes each rule to the crates whose
//! contracts it enforces.
//!
//! # Suppression syntax
//!
//! ```text
//! // ve-lint: allow(rule-name) -- reason the site is safe
//! // ve-lint: allow(rule-a, rule-b) -- one reason for both
//! ```
//!
//! A suppression covers **its own line and the next line**, so both the
//! trailing form (`stmt; // ve-lint: allow(…) -- …`) and the preceding-line
//! form work. The ` -- reason` is mandatory: an annotation without a reason
//! (or naming an unknown rule) is itself reported as `malformed-suppression`
//! and fails the gate — a suppression must document *why* the contract holds.
//!
//! # Baseline
//!
//! `ve-lint.baseline` at the workspace root grandfathers findings that
//! predate a rule (tab-separated `rule`, `path`, `trimmed source line`).
//! A finding matching an entry is reported only as a count; an entry that no
//! longer matches any finding is **stale and fails the gate**, so the
//! baseline can only shrink — suppressions cannot rot silently.

use crate::workspace::{SourceFile, WorkspaceModel};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use ve_obs::json::Json;

/// Rule identifiers, in the order they are documented in ROADMAP.md.
pub const RULE_NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";
pub const RULE_WALL_CLOCK: &str = "wall-clock-in-logic";
pub const RULE_PANIC_IN_TASK_PATH: &str = "panic-in-task-path";
pub const RULE_LOCK_DISCIPLINE: &str = "lock-discipline";
pub const RULE_FLOAT_REDUCTION_ORDER: &str = "float-reduction-order";
pub const RULE_EXECUTOR_BYPASS: &str = "executor-bypass";
pub const RULE_MALFORMED_SUPPRESSION: &str = "malformed-suppression";

/// Every rule a suppression may name.
pub const ALL_RULES: &[&str] = &[
    RULE_NONDETERMINISTIC_ITERATION,
    RULE_WALL_CLOCK,
    RULE_PANIC_IN_TASK_PATH,
    RULE_LOCK_DISCIPLINE,
    RULE_FLOAT_REDUCTION_ORDER,
    RULE_EXECUTOR_BYPASS,
];

/// Crates whose selection/storage state must be a pure function of inputs
/// (ROADMAP "bit-identical at any worker/thread count"). Rules
/// `nondeterministic-iteration` and `float-reduction-order` apply here.
pub const DETERMINISM_CRITICAL_CRATES: &[&str] =
    &["ve-al", "ve-ml", "ve-obs", "ve-storage", "vocalexplore"];

/// Crates allowed to read wall-clock time: the scheduler measures latency,
/// the bench crate measures everything.
pub const WALL_CLOCK_EXEMPT_CRATES: &[&str] = &["ve-sched", "ve-bench"];

/// Individual files allowed to read wall-clock time inside otherwise
/// determinism-critical crates. `ve-obs` is two-plane by contract: its
/// timing plane (`timing.rs`) *is* wall-clock measurement, while its event
/// plane must stay a pure function of inputs — so the exemption is scoped to
/// the one file rather than the crate.
pub const WALL_CLOCK_EXEMPT_FILES: &[&str] = &["crates/obs/src/timing.rs"];

/// Crates allowed to create threads: `ve-sched` owns the executor and the
/// data-parallel pool; everything else must submit work to them.
pub const SPAWN_EXEMPT_CRATES: &[&str] = &["ve-sched"];

/// Files whose float reductions are the blessed, chunk-stable kernels
/// (`FeatureBlock` and the scalar kernels it is built on). Every other float
/// reduction in a determinism-critical crate must be annotated or baselined.
pub const FLOAT_BLESSED_FILES: &[&str] = &["crates/ml/src/block.rs", "crates/ml/src/tensor.rs"];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub crate_name: String,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// Trimmed text of the offending line (the baseline matches on this).
    pub snippet: String,
}

impl Finding {
    pub fn new(
        rule: &'static str,
        file: &SourceFile,
        line: u32,
        col: u32,
        message: String,
    ) -> Self {
        Self {
            rule,
            crate_name: file.crate_name.clone(),
            path: file.rel_path.clone(),
            line,
            col,
            message,
            snippet: file.line_text(line).to_string(),
        }
    }
}

/// One parsed suppression annotation.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rules: Vec<String>,
    /// Lines the annotation covers (its own and the next).
    pub lines: [u32; 2],
}

/// Suppressions and annotation errors extracted from one file's comments.
pub fn parse_suppressions(file: &SourceFile) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut malformed = Vec::new();
    for tok in &file.tokens {
        if !tok.is_comment() {
            continue;
        }
        // Doc comments (`///`, `//!`, `/**`, `/*!`) are prose *about* the
        // syntax, not annotations — only plain comments suppress.
        if tok.text.starts_with("///")
            || tok.text.starts_with("//!")
            || tok.text.starts_with("/**")
            || tok.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = tok.text.find("ve-lint:") else {
            continue;
        };
        let rest = tok.text[at + "ve-lint:".len()..].trim_start();
        // The annotation's effect starts at the line the comment *ends* on
        // (a multi-line block comment covers the code right after it).
        let end_line = tok.line + tok.text.matches('\n').count() as u32;
        let mut fail = |why: &str| {
            malformed.push(Finding::new(
                RULE_MALFORMED_SUPPRESSION,
                file,
                tok.line,
                tok.col,
                format!("unusable ve-lint annotation ({why}); expected `ve-lint: allow(<rule>) -- <reason>`"),
            ));
        };
        let Some(rest) = rest.strip_prefix("allow") else {
            fail("only `allow(…)` is recognized");
            continue;
        };
        let rest = rest.trim_start();
        let Some(open) = rest.strip_prefix('(') else {
            fail("missing `(` after allow");
            continue;
        };
        let Some(close) = open.find(')') else {
            fail("missing `)`");
            continue;
        };
        let rules: Vec<String> = open[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            fail("no rule named");
            continue;
        }
        if let Some(bad) = rules.iter().find(|r| !ALL_RULES.contains(&r.as_str())) {
            fail(&format!("unknown rule `{bad}`"));
            continue;
        }
        let reason = open[close + 1..].trim_start();
        let reason = reason.strip_prefix("--").map(str::trim).unwrap_or("");
        // Block comments may close with `*/` after the reason.
        let reason = reason.trim_end_matches("*/").trim();
        if reason.is_empty() {
            fail("missing ` -- <reason>`: a suppression must say why the contract holds");
            continue;
        }
        sups.push(Suppression {
            rules,
            lines: [end_line, end_line + 1],
        });
    }
    (sups, malformed)
}

/// One baseline entry: `rule \t path \t trimmed source line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    pub rule: String,
    pub path: String,
    pub snippet: String,
}

/// Parses the baseline file format (tab-separated, `#` comments).
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (Some(rule), Some(path), Some(snippet)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "baseline line {} is not `rule<TAB>path<TAB>snippet`: {line:?}",
                i + 1
            ));
        };
        entries.push(BaselineEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            snippet: snippet.to_string(),
        });
    }
    Ok(entries)
}

/// Renders findings in the baseline file format.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut entries: BTreeSet<(String, String, String)> = BTreeSet::new();
    for f in findings {
        entries.insert((f.rule.to_string(), f.path.clone(), f.snippet.clone()));
    }
    let mut out = String::from(
        "# ve-lint baseline: findings grandfathered before their rule landed.\n\
         # Format: rule<TAB>path<TAB>trimmed source line. An entry that no longer\n\
         # matches any finding is STALE and fails the gate — remove it.\n",
    );
    for (rule, path, snippet) in entries {
        let _ = writeln!(out, "{rule}\t{path}\t{snippet}");
    }
    out
}

/// The gate's complete result.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed, non-baselined findings: these fail the gate.
    pub active: Vec<Finding>,
    /// Findings silenced by an in-source annotation.
    pub suppressed: usize,
    /// Findings matched by the baseline.
    pub grandfathered: usize,
    /// Baseline entries that matched nothing: these fail the gate too.
    pub stale_baseline: Vec<BaselineEntry>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.active.is_empty() && self.stale_baseline.is_empty()
    }

    /// Human-readable rendering.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.active {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}\n    {}",
                f.path, f.line, f.col, f.rule, f.message, f.snippet
            );
        }
        for e in &self.stale_baseline {
            let _ = writeln!(
                out,
                "{}: [stale-baseline] entry for rule `{}` no longer matches anything \
                 (fixed or moved?) — remove it:\n    {}",
                e.path, e.rule, e.snippet
            );
        }
        let _ = writeln!(
            out,
            "ve-lint: {} file(s), {} finding(s), {} suppressed, {} baselined, {} stale baseline entr{}",
            self.files_scanned,
            self.active.len(),
            self.suppressed,
            self.grandfathered,
            self.stale_baseline.len(),
            if self.stale_baseline.len() == 1 { "y" } else { "ies" },
        );
        out
    }

    /// JSON rendering (see `ve_obs::json`).
    pub fn render_json(&self) -> String {
        let findings = self.active.iter().map(|f| {
            Json::obj([
                ("rule", Json::str(f.rule)),
                ("crate", Json::str(&f.crate_name)),
                ("path", Json::str(&f.path)),
                ("line", Json::u64(u64::from(f.line))),
                ("col", Json::u64(u64::from(f.col))),
                ("message", Json::str(&f.message)),
                ("snippet", Json::str(&f.snippet)),
            ])
        });
        let stale = self.stale_baseline.iter().map(|e| {
            Json::obj([
                ("rule", Json::str(&e.rule)),
                ("path", Json::str(&e.path)),
                ("snippet", Json::str(&e.snippet)),
            ])
        });
        Json::obj([
            ("findings", findings.collect()),
            ("stale_baseline", stale.collect()),
            ("files_scanned", Json::usize(self.files_scanned)),
            ("suppressed", Json::usize(self.suppressed)),
            ("grandfathered", Json::usize(self.grandfathered)),
        ])
        .render()
    }
}

/// Runs every rule over the workspace, applies suppressions and the
/// baseline, and returns the gate result plus (optionally, for
/// `--write-baseline`) the raw unsuppressed findings.
pub fn analyze(ws: &WorkspaceModel, baseline: &[BaselineEntry]) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    let mut malformed: Vec<Finding> = Vec::new();
    let mut suppressions: BTreeMap<&str, Vec<Suppression>> = BTreeMap::new();
    for file in &ws.files {
        let (sups, bad) = parse_suppressions(file);
        suppressions.insert(file.rel_path.as_str(), sups);
        malformed.extend(bad);
    }

    raw.extend(crate::rules::iteration::check(ws));
    raw.extend(crate::rules::wallclock::check(ws));
    raw.extend(crate::rules::panic_path::check(ws));
    raw.extend(crate::rules::locks::check(ws));
    raw.extend(crate::rules::float_order::check(ws));
    raw.extend(crate::rules::executor_bypass::check(ws));

    let mut report = Report {
        files_scanned: ws.files.len(),
        ..Report::default()
    };
    let mut unsuppressed: Vec<Finding> = Vec::new();
    for f in raw {
        let covered = suppressions
            .get(f.path.as_str())
            .into_iter()
            .flatten()
            .any(|s| s.lines.contains(&f.line) && s.rules.iter().any(|r| r == f.rule));
        if covered {
            report.suppressed += 1;
        } else {
            unsuppressed.push(f);
        }
    }
    // Baseline matching: an entry may cover several findings (e.g. the same
    // line content repeated); an entry covering none is stale.
    let mut matched: Vec<bool> = vec![false; baseline.len()];
    for f in &unsuppressed {
        let mut hit = false;
        for (i, e) in baseline.iter().enumerate() {
            if e.rule == f.rule && e.path == f.path && e.snippet == f.snippet {
                matched[i] = true;
                hit = true;
            }
        }
        if hit {
            report.grandfathered += 1;
        } else {
            report.active.push(f.clone());
        }
    }
    // Malformed suppressions are never themselves suppressible or baselined.
    report.active.extend(malformed);
    report
        .stale_baseline
        .extend(baseline.iter().zip(&matched).filter_map(
            |(e, &m)| {
                if m {
                    None
                } else {
                    Some(e.clone())
                }
            },
        ));
    report
        .active
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report
}

/// `analyze` without a baseline, returning raw unsuppressed findings — the
/// input to `--write-baseline`.
pub fn unsuppressed_findings(ws: &WorkspaceModel) -> Vec<Finding> {
    let report = analyze(ws, &[]);
    report.active
}
