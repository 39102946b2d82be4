//! The sentinel gating contract, exercised the same way `ve-lint`'s
//! `repository_passes_its_own_gate` does: the checked-in contract and
//! artifacts must pass, and a perturbed artifact must fail **naming the
//! violated metric** — the property CI relies on.

use std::path::{Path, PathBuf};
use ve_obs::json::{parse, Json};
use ve_report::{load_artifacts, parse_contract, Artifacts, Sentinel};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn load_repo() -> (ve_report::Contract, Artifacts) {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCH_contract.json"))
        .expect("checked-in BENCH_contract.json");
    let contract = parse_contract(&text).expect("contract parses");
    let artifacts = load_artifacts(&root, &contract).expect("committed artifacts parse");
    (contract, artifacts)
}

#[test]
fn repository_passes_its_own_gate() {
    let (contract, artifacts) = load_repo();
    // Self-check mode: fresh == baseline == the committed artifacts, every
    // ratio is exactly 1. This is what `ve-report --check` does from a clean
    // checkout, and it must be green.
    let report = Sentinel::new().check(&contract, &artifacts, &artifacts);
    assert!(
        report.is_clean(),
        "committed artifacts violate the committed contract:\n{}",
        report.render_human()
    );
    assert!(report.checked > 0, "the gate must actually check something");
}

/// `render(parse(file)) == file` for every emitted artifact; the contract is
/// hand-edited input, not an emitted artifact.
#[test]
fn committed_artifacts_are_fixed_points_of_the_json_layer() {
    let root = repo_root();
    let mut checked = 0;
    for entry in std::fs::read_dir(&root).expect("repo root lists") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") || name == "BENCH_contract.json"
        {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&name)).unwrap();
        let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            doc.render() == text,
            "{name} is not in `ve_obs::json`'s layout"
        );
        checked += 1;
    }
    assert!(checked >= 7, "only {checked} artifacts found");
}

#[test]
fn contract_references_every_committed_artifact_family() {
    let (contract, artifacts) = load_repo();
    for name in [
        "BENCH_acquisition.json",
        "BENCH_latency.json",
        "BENCH_obs.json",
        "BENCH_selection.json",
        "BENCH_training.json",
    ] {
        assert!(
            contract.artifacts().contains(&name.to_string()),
            "contract has no rule over {name}"
        );
        assert!(artifacts.contains_key(name), "{name} missing from repo");
    }
}

#[test]
fn perturbed_artifact_fails_naming_the_metric() {
    let (contract, artifacts) = load_repo();
    // Drop warm-started training's held-out accuracy to 0.5 in the fresh set
    // only (string surgery on the one line inside the `warm` variant).
    let mut fresh = artifacts.clone();
    let doc = std::fs::read_to_string(repo_root().join("BENCH_training.json")).unwrap();
    let committed = parse(&doc)
        .unwrap()
        .path("variants.warm.holdout_accuracy")
        .and_then(Json::as_f64)
        .expect("committed artifact carries variants.warm.holdout_accuracy");
    let warm = doc.find("\"warm\": {").expect("warm variant section");
    let needle = format!("\"holdout_accuracy\": {committed:.4}");
    assert!(
        doc[warm..].contains(&needle),
        "artifact format drifted: {needle}"
    );
    let perturbed = format!(
        "{}{}",
        &doc[..warm],
        doc[warm..].replacen(&needle, "\"holdout_accuracy\": 0.5000", 1)
    );
    fresh.insert(
        "BENCH_training.json".to_string(),
        parse(&perturbed).unwrap(),
    );

    let report = Sentinel::new().check(&contract, &fresh, &artifacts);
    assert!(
        !report.is_clean(),
        "a collapsed warm accuracy must trip the gate"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.subject.contains("variants.warm.holdout_accuracy")),
        "the violation must name the metric:\n{}",
        report.render_human()
    );
}

#[test]
fn latency_regression_against_baseline_fails_the_ratio_rule() {
    let (contract, artifacts) = load_repo();
    let doc = std::fs::read_to_string(repo_root().join("BENCH_latency.json")).unwrap();
    // Multiply ve_full's measured median by 10 in the fresh set (string
    // surgery on the one line inside the ve_full section).
    let fresh_doc = parse(&doc).unwrap();
    let committed = fresh_doc
        .path("strategies.ve_full.measured_median_visible_secs")
        .and_then(Json::as_f64)
        .expect("committed ve_full median");
    let needle = format!("\"measured_median_visible_secs\": {committed:.3}");
    assert!(doc.contains(&needle), "artifact format drifted: {needle}");
    let perturbed = doc.replace(
        &needle,
        &format!("\"measured_median_visible_secs\": {:.3}", committed * 10.0),
    );
    let mut fresh = artifacts.clone();
    fresh.insert("BENCH_latency.json".to_string(), parse(&perturbed).unwrap());

    let report = Sentinel::new().check(&contract, &fresh, &artifacts);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.subject.contains("measured_median_visible_secs")
                && v.message.contains("baseline")),
        "a 10x visible-latency regression must trip the fresh/baseline ratio rule:\n{}",
        report.render_human()
    );
}

#[test]
fn histogram_quantile_above_its_max_fails_the_order_rule() {
    let (contract, artifacts) = load_repo();
    let doc = std::fs::read_to_string(repo_root().join("BENCH_obs.json")).unwrap();
    let committed = parse(&doc).unwrap();
    let read = |metric: &str| {
        committed
            .path(metric)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("committed artifact carries {metric}"))
    };
    let (p50, max) = (read("phases.select.p50_us"), read("phases.select.max_us"));
    // Raise select's p50 above its max in the fresh set (string surgery on
    // the one line inside the `select` section).
    let phases = doc.find("\"phases\": {").expect("phases section");
    let select = phases + doc[phases..].find("\"select\": {").expect("select phase");
    let needle = format!("\"p50_us\": {p50}");
    assert!(
        doc[select..].contains(&needle),
        "artifact format drifted: {needle}"
    );
    let perturbed = format!(
        "{}{}",
        &doc[..select],
        doc[select..].replacen(&needle, &format!("\"p50_us\": {}", max + 1.0), 1)
    );
    let mut fresh = artifacts.clone();
    fresh.insert("BENCH_obs.json".to_string(), parse(&perturbed).unwrap());

    let report = Sentinel::new().check(&contract, &fresh, &artifacts);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.subject.contains("phases.select.p50_us")
                && v.message.contains("phases.select.p50_us")),
        "a p50 above its max must trip the order_le rule naming the metric:\n{}",
        report.render_human()
    );
}

#[test]
fn missing_fresh_artifact_fails_the_gate() {
    let (contract, artifacts) = load_repo();
    let mut fresh = artifacts.clone();
    fresh.remove("BENCH_obs.json");
    let report = Sentinel::new().check(&contract, &fresh, &artifacts);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.artifact == "BENCH_obs.json" && v.message.contains("missing")),
        "a bench that stopped emitting its artifact must fail:\n{}",
        report.render_human()
    );
}
