//! Observability benchmark: writes `BENCH_obs.json`, a Chrome trace
//! (`BENCH_obs_trace.json`) loadable in Perfetto / `chrome://tracing`, and —
//! because the run absorbs an injected fault storm — a post-mortem
//! diagnostic bundle (`BENCH_obs_bundle.json`).
//!
//! Runs one instrumented, measured `VeFull` session under a
//! deterministic fault plan (transient training failures that force retries,
//! plus a low rate of permanent row-inference faults that degrade served
//! predictions) and exports what the two `ve-obs` planes saw:
//!
//! * **event plane** — deterministic event counts per kind (these are a pure
//!   function of the config, so diffs in this section of the artifact are
//!   behavior changes, not noise);
//! * **timing plane** — per-phase wall-clock histograms (p50/p99 in µs) for
//!   the session-thread phases (`select`, `visible`, `think`, `spill`) and
//!   the executor task kinds (`infer`, `train`, `eager`), plus the
//!   executor's queue-wait and depth high-water counters;
//! * **anomaly section** — phase outliers, queue-wait spikes, and retry
//!   storms (`detect_session_anomalies`), which also land in the Chrome
//!   trace as `instant` markers on the track where they happened.
//!
//! The Chrome trace is structurally validated before it is written —
//! per-track monotonic timestamps, balanced `B`/`E` pairs, at least one
//! complete span for every required phase, and at least one anomaly instant
//! — so CI fails loudly instead of committing a trace Perfetto cannot load.
//! Whenever the session recorded any degradation (the fault plan guarantees
//! it), the flight-recorder diagnostic bundle is emitted alongside.
//!
//! ```text
//! cargo run --release -p ve-bench --bin bench_obs [-- --quick]
//! ```

use std::collections::BTreeMap;
use ve_bench::emit::Artifact;
use ve_obs::json::Json;
use ve_obs::{
    annotate_trace, AnomalyConfig, ChromeTrace, EventKind, Histogram, PhaseTiming, TaskTiming,
};
use ve_sched::fault::{FaultPlan, FaultRule, FaultSite};
use vocalexplore::prelude::*;

/// One per-phase row of the artifact: a histogram summarised to the fields
/// worth diffing.
fn histogram_value(h: &Histogram) -> Json {
    Json::obj([
        ("count", Json::u64(h.total())),
        ("p50_us", Json::u64(h.p50())),
        ("p99_us", Json::u64(h.p99())),
        ("min_us", Json::u64(h.min())),
        ("max_us", Json::u64(h.max())),
    ])
}

fn build_trace(timings: &[TaskTiming], phases: &[PhaseTiming]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.name_track(0, 0, "session");
    let mut workers: Vec<usize> = timings.iter().map(|t| t.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in workers {
        trace.name_track(0, 1 + w as u64, &format!("worker-{w}"));
    }
    for p in phases {
        trace.add_phase(p);
    }
    for t in timings {
        trace.add_task(t);
    }
    trace
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, iterations, time_scale) = if quick {
        (0.08, 6, 2e-2)
    } else {
        (0.15, 12, 1e-2)
    };
    // The fault storm: training fails its first attempts often enough that
    // some iteration re-runs training twice (a retry storm for the anomaly
    // annotator), but always succeeds within the 3-attempt retry budget; a
    // permanent row-inference rate high enough to exhaust the in-task retry
    // loop (0.7³ ≈ 0.34 per row) degrades some served predictions so the
    // diagnostic-bundle path runs on every benchmark invocation.
    let faults = FaultPlan::new(23)
        .with_rule(FaultSite::Training, FaultRule::transient(0.8, 2))
        .with_rule(FaultSite::RowInference, FaultRule::permanent(0.7));
    let mut cfg = SessionConfig::new(DatasetName::Deer, scale, 42)
        .with_iterations(iterations)
        .with_eval_every(10_000);
    cfg.system = cfg
        .system
        .with_strategy(SchedulerStrategy::VeFull)
        .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
        // Pin an index-backed acquisition so the artifact exercises the
        // acquisition-index ingest instrumentation.
        .with_sampling(SamplingPolicy::Fixed(AcquisitionKind::Coreset))
        .with_extra_candidates(5)
        .with_time_scale(time_scale)
        .with_fault_plan(faults);
    cfg.system.t_user = 4.0;
    cfg.system.train.epochs = 40;
    assert!(cfg.system.observability, "observability defaults on");

    let outcome = SessionRunner::new(cfg).run_measured();
    assert_eq!(outcome.executor.pending(), 0, "executor failed to drain");
    assert!(
        !outcome.events.is_empty() && !outcome.timings.is_empty() && !outcome.phases.is_empty(),
        "both planes must have recorded"
    );

    // Event plane: deterministic counts per kind.
    let mut event_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (_, e) in &outcome.events {
        *event_counts.entry(e.kind()).or_insert(0) += 1;
    }

    // Timing plane: per-phase histograms. Session-thread phases observe
    // their duration; executor tasks observe run time, and queue wait goes
    // into one shared histogram (it measures scheduler pressure, not the
    // task itself).
    let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut observe = |name: &str, v: u64| {
        hists
            .entry(name.to_string())
            .or_insert_with(Histogram::with_default_bounds)
            .observe(v);
    };
    for p in &outcome.phases {
        observe(p.phase, p.dur_us);
    }
    for t in &outcome.timings {
        observe(t.label.kind, t.run_us());
        observe("queue_wait", t.queue_wait_us());
    }

    // Anomaly section: the fault plan makes at least a retry storm certain.
    let anomaly_cfg = AnomalyConfig::default();
    let anomalies = detect_session_anomalies(&outcome, &anomaly_cfg);
    assert!(
        !anomalies.is_empty(),
        "the injected fault storm must surface at least one anomaly"
    );
    let mut anomaly_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for a in &anomalies {
        *anomaly_counts.entry(a.kind.label()).or_insert(0) += 1;
    }

    // Chrome trace with anomaly instants, validated before it is written.
    let mut trace = build_trace(&outcome.timings, &outcome.phases);
    annotate_trace(&mut trace, &anomalies);
    let required = [
        "select", "visible", "think", "spill", "infer", "train", "eager",
    ];
    let stats = trace
        .validate(&required)
        .expect("trace must be structurally valid");
    assert!(
        stats.instants >= 1,
        "annotated trace must carry the anomaly instants"
    );
    eprintln!(
        "bench_obs: {} events, {} tasks, {} phase spans, {} degradations, {} anomalies; \
         trace has {} spans + {} instants on {} tracks",
        outcome.events.len(),
        outcome.timings.len(),
        outcome.phases.len(),
        outcome.degradations.len(),
        anomalies.len(),
        stats.spans,
        stats.instants,
        stats.tracks
    );

    Artifact::new("vocalexplore/bench_obs/v1", quick)
        .field("strategy", Json::str("ve_full"))
        .field("iterations", Json::usize(iterations))
        .field(
            "events",
            Json::obj([
                ("total", Json::usize(outcome.events.len())),
                (
                    "by_kind",
                    Json::obj(event_counts.iter().map(|(k, v)| (*k, Json::u64(*v)))),
                ),
            ]),
        )
        .field(
            "phases",
            Json::obj(hists.iter().map(|(k, h)| (k.clone(), histogram_value(h)))),
        )
        .field(
            "executor",
            Json::obj([
                ("submitted", Json::u64(outcome.executor.submitted)),
                ("retried", Json::u64(outcome.executor.retried)),
                ("queue_wait_us", Json::u64(outcome.executor.queue_wait_us)),
                (
                    "depth_hwm",
                    Json::Arr(outcome.executor.depth_hwm.map(Json::u64).to_vec()),
                ),
            ]),
        )
        .field("degradations", Json::usize(outcome.degradations.len()))
        .field(
            "anomalies",
            Json::obj(anomaly_counts.iter().map(|(k, v)| (*k, Json::u64(*v)))),
        )
        .field(
            "trace",
            Json::obj([
                ("tracks", Json::usize(stats.tracks)),
                ("spans", Json::usize(stats.spans)),
                ("instants", Json::usize(stats.instants)),
            ]),
        )
        .write("BENCH_obs.json");
    std::fs::write("BENCH_obs_trace.json", trace.render_json())
        .expect("write BENCH_obs_trace.json");

    // Post-mortem path: any degradation triggers the flight-recorder dump.
    if !outcome.degradations.is_empty() {
        let bundle = DiagnosticBundle::from_outcome(&outcome, 64, &anomaly_cfg);
        std::fs::write("BENCH_obs_bundle.json", bundle.render_json())
            .expect("write BENCH_obs_bundle.json");
        eprintln!(
            "bench_obs: wrote BENCH_obs_bundle.json ({} degradations, last {} events)",
            outcome.degradations.len(),
            bundle.last_events.len()
        );
    }
}
