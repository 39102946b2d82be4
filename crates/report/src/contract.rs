//! The regression contract: `BENCH_contract.json` declares, per committed
//! bench artifact, which metrics carry the paper's claims and how much they
//! are allowed to move.
//!
//! Rule kinds:
//!
//! * `min` / `max` — absolute bound on one metric. `source` picks which
//!   document the value is read from: `"fresh"` (default — the just-run
//!   bench output) or `"baseline"` (the committed artifact itself, for
//!   claims only full-mode runs produce, e.g. the ~20× incremental-selection
//!   speedup at 20k candidates).
//! * `ratio_max` / `ratio_min` — bound on `fresh / baseline` for one
//!   metric (lower-is-better latencies use `ratio_max`). Ratio rules are
//!   only meaningful like-for-like, so they are skipped when the two
//!   documents' `quick` flags differ.
//! * `order_desc` — the listed metrics (all read from fresh) must be
//!   strictly decreasing: the Serial > VE-partial > VE-full headline.
//! * `order_le` — the listed metrics (all read from fresh) must be
//!   non-decreasing: a histogram's `min ≤ p50 ≤ p99 ≤ max`, where ties
//!   are normal (p99 often equals max).
//!
//! `allow_missing: true` skips a rule whose metric is absent or null —
//! quick-mode artifacts legitimately omit some sections.

use ve_obs::json::{parse, Json};

pub const CONTRACT_SCHEMA: &str = "vocalexplore/bench_contract/v1";

/// Which document an absolute `min`/`max` bound reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Fresh,
    Baseline,
}

#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    Min(f64),
    Max(f64),
    RatioMax(f64),
    RatioMin(f64),
    OrderDesc(Vec<String>),
    OrderLe(Vec<String>),
}

impl RuleKind {
    pub fn name(&self) -> &'static str {
        match self {
            RuleKind::Min(_) => "min",
            RuleKind::Max(_) => "max",
            RuleKind::RatioMax(_) => "ratio_max",
            RuleKind::RatioMin(_) => "ratio_min",
            RuleKind::OrderDesc(_) => "order_desc",
            RuleKind::OrderLe(_) => "order_le",
        }
    }
}

/// One contract rule over one artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Artifact file name, e.g. `BENCH_training.json`.
    pub artifact: String,
    /// Dotted metric path (empty for `order_desc`/`order_le`, which carry
    /// their own metric list).
    pub metric: String,
    pub kind: RuleKind,
    pub source: Source,
    /// Skip (don't fail) when the metric is absent or null.
    pub allow_missing: bool,
    /// Why this bound exists — printed with every violation.
    pub reason: String,
}

impl Rule {
    /// `artifact :: metric` (or the order list) — how reports name the rule.
    pub fn subject(&self) -> String {
        match &self.kind {
            RuleKind::OrderDesc(metrics) => format!("{} :: {}", self.artifact, metrics.join(" > ")),
            RuleKind::OrderLe(metrics) => format!("{} :: {}", self.artifact, metrics.join(" <= ")),
            _ => format!("{} :: {}", self.artifact, self.metric),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub rules: Vec<Rule>,
}

impl Contract {
    /// Artifact names the contract references, deduplicated, sorted.
    pub fn artifacts(&self) -> Vec<String> {
        let mut names: Vec<String> = self.rules.iter().map(|r| r.artifact.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// Parses `BENCH_contract.json` text into a [`Contract`], validating the
/// schema marker and every rule's shape.
pub fn parse_contract(text: &str) -> Result<Contract, String> {
    let doc = parse(text).map_err(|e| format!("contract: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("contract: missing `schema`")?;
    if schema != CONTRACT_SCHEMA {
        return Err(format!(
            "contract: schema `{schema}` (expected `{CONTRACT_SCHEMA}`)"
        ));
    }
    let raw_rules = doc
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("contract: missing `rules` array")?;
    let mut rules = Vec::new();
    for (i, raw) in raw_rules.iter().enumerate() {
        rules.push(parse_rule(raw).map_err(|e| format!("contract rule {i}: {e}"))?);
    }
    if rules.is_empty() {
        return Err("contract: no rules — an empty gate guards nothing".to_string());
    }
    Ok(Contract { rules })
}

fn parse_rule(raw: &Json) -> Result<Rule, String> {
    let artifact = raw
        .get("artifact")
        .and_then(Json::as_str)
        .ok_or("missing `artifact`")?
        .to_string();
    let kind_name = raw
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing `kind`")?;
    let reason = raw
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("missing `reason` — every bound must say why it exists")?
        .to_string();
    let value = || {
        raw.get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`{kind_name}` needs a numeric `value`"))
    };
    let metric = || {
        raw.get("metric")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("`{kind_name}` needs a `metric` path"))
    };
    let (kind, metric) = match kind_name {
        "min" => (RuleKind::Min(value()?), metric()?),
        "max" => (RuleKind::Max(value()?), metric()?),
        "ratio_max" => (RuleKind::RatioMax(value()?), metric()?),
        "ratio_min" => (RuleKind::RatioMin(value()?), metric()?),
        "order_desc" | "order_le" => {
            let metrics = raw
                .get("metrics")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("`{kind_name}` needs a `metrics` array"))?
                .iter()
                .map(|m| {
                    m.as_str()
                        .map(str::to_string)
                        .ok_or("`metrics` entries must be strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            if metrics.len() < 2 {
                return Err(format!("`{kind_name}` needs at least two metrics"));
            }
            let kind = if kind_name == "order_le" {
                RuleKind::OrderLe(metrics)
            } else {
                RuleKind::OrderDesc(metrics)
            };
            (kind, String::new())
        }
        other => return Err(format!("unknown rule kind `{other}`")),
    };
    let source = match raw.get("source").and_then(Json::as_str) {
        None | Some("fresh") => Source::Fresh,
        Some("baseline") => Source::Baseline,
        Some(other) => return Err(format!("unknown source `{other}`")),
    };
    if source == Source::Baseline && matches!(kind, RuleKind::RatioMax(_) | RuleKind::RatioMin(_)) {
        return Err(
            "ratio rules always compare fresh against baseline; `source` is not applicable"
                .to_string(),
        );
    }
    let allow_missing = raw
        .get("allow_missing")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    Ok(Rule {
        artifact,
        metric,
        kind,
        source,
        allow_missing,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(rules: &str) -> String {
        format!("{{\"schema\": \"{CONTRACT_SCHEMA}\", \"rules\": [{rules}]}}")
    }

    #[test]
    fn parses_every_rule_kind() {
        let text = wrap(
            r#"
            {"artifact": "BENCH_training.json", "kind": "min", "metric": "warm_accuracy",
             "value": 0.4, "reason": "warm training must stay accurate"},
            {"artifact": "BENCH_latency.json", "kind": "ratio_max",
             "metric": "strategies.ve_full.measured_median_visible_secs",
             "value": 1.3, "reason": "ve_full p50 visible latency, lower-is-better"},
            {"artifact": "BENCH_latency.json", "kind": "order_desc",
             "metrics": ["strategies.serial.m", "strategies.ve_partial.m", "strategies.ve_full.m"],
             "reason": "the headline ordering"},
            {"artifact": "BENCH_acquisition.json", "kind": "min", "source": "baseline",
             "metric": "median_ns.coreset.20000", "value": 100.0, "allow_missing": true,
             "reason": "committed full-mode 20k-pool timing"}
        "#,
        );
        let contract = parse_contract(&text).unwrap();
        assert_eq!(contract.rules.len(), 4);
        assert_eq!(contract.rules[0].kind, RuleKind::Min(0.4));
        assert_eq!(contract.rules[0].source, Source::Fresh);
        assert_eq!(contract.rules[3].source, Source::Baseline);
        assert!(contract.rules[3].allow_missing);
        assert!(matches!(contract.rules[2].kind, RuleKind::OrderDesc(ref m) if m.len() == 3));
        assert_eq!(
            contract.artifacts(),
            vec![
                "BENCH_acquisition.json",
                "BENCH_latency.json",
                "BENCH_training.json"
            ]
        );
    }

    #[test]
    fn parses_order_le_rules() {
        let text = wrap(
            r#"
            {"artifact": "BENCH_obs.json", "kind": "order_le",
             "metrics": ["phases.select.min_us", "phases.select.p50_us",
                         "phases.select.p99_us", "phases.select.max_us"],
             "reason": "histogram summaries are ordered"}
        "#,
        );
        let rule = &parse_contract(&text).unwrap().rules[0];
        assert!(matches!(rule.kind, RuleKind::OrderLe(ref m) if m.len() == 4));
        assert_eq!(rule.kind.name(), "order_le");
        assert!(rule.metric.is_empty());
        assert_eq!(
            rule.subject(),
            "BENCH_obs.json :: phases.select.min_us <= phases.select.p50_us <= \
             phases.select.p99_us <= phases.select.max_us"
        );
        let one =
            wrap(r#"{"artifact": "a.json", "kind": "order_le", "metrics": ["m"], "reason": "r"}"#);
        assert!(parse_contract(&one).unwrap_err().contains("order_le"));
        let none = wrap(r#"{"artifact": "a.json", "kind": "order_le", "reason": "r"}"#);
        assert!(parse_contract(&none).unwrap_err().contains("metrics"));
    }

    #[test]
    fn rejects_rules_without_reasons_or_with_bad_kinds() {
        let no_reason = wrap(r#"{"artifact": "a.json", "kind": "min", "metric": "m", "value": 1}"#);
        assert!(parse_contract(&no_reason).unwrap_err().contains("reason"));
        let bad_kind = wrap(
            r#"{"artifact": "a.json", "kind": "approx", "metric": "m", "value": 1, "reason": "r"}"#,
        );
        assert!(parse_contract(&bad_kind).unwrap_err().contains("approx"));
        let ratio_baseline = wrap(
            r#"{"artifact": "a.json", "kind": "ratio_max", "metric": "m", "value": 1,
                "source": "baseline", "reason": "r"}"#,
        );
        assert!(parse_contract(&ratio_baseline).is_err());
        assert!(parse_contract("{\"schema\": \"wrong\", \"rules\": []}").is_err());
    }
}
