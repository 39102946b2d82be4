//! The benchmark's metrics: their definitions, and how each is computed
//! from a [`Run`].
//!
//! The tables below are the single list of what a run reports. Each
//! per-layer entry names the end-to-end metric, and the workload, it is
//! expected to move; `BENCHMARK.json` repeats the names, units and
//! directions (a self-test keeps the two in step).

use crate::session::{SessionOut, ITERATIONS};
use crate::stats::{mean, median, peak_rss_mb, percentile, quartiles};
use crate::trace::{self_times_ns, Tracer};
use crate::Run;
use std::collections::BTreeMap;

/// One metric's definition.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What the metric is; for a per-layer metric, the end-to-end metric
    /// and workload it should move.
    pub note: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        note,
    }
}

/// Reported by untraced runs (`--trace 0`).
#[rustfmt::skip]
pub const END_TO_END: &[MetricSpec] = &[
    spec("explore_p50_ms", "ms", "lower", "visible computed latency per Explore"),
    spec("session_s", "s", "lower", "one whole session, visible plus background work"),
    spec("setup_s", "s", "lower", "VocalExplore::new plus add_video of the corpus"),
    spec("session_gpu_modeled_s", "gpu_s", "lower", "modeled GPU seconds per session"),
    spec("final_macro_f1", "f1", "higher", "held-out macro F1 of the final model"),
    spec("peak_rss_mb", "MiB", "lower", "VmHWM of the run's process"),
];

const TRAIN: &str = "session_s on lazy/eager-deer, explore_* on bandit-k20skew";
const SELECT: &str = "explore_* on eager-deer (most) and lazy-deer";

/// Reported by traced runs (`--trace 1`).
#[rustfmt::skip]
pub const PER_LAYER: &[MetricSpec] = &[
    spec("alm.select_ms_p50", "ms", "lower", SELECT),
    spec("alm.select_ms_p99", "ms", "lower", SELECT),
    spec("alm.select_ms_total", "ms", "lower", SELECT),
    spec("alm.select_visible_share", "ratio", "lower", "explore_*; larger on eager-deer than on lazy-deer"),
    spec("alm.lazy_videos_extracted", "count", "lower", "explore_p50_ms and visible GPU on lazy-deer"),
    spec("alm.lazy_gpu_modeled_s", "gpu_s", "lower", "explore_p50_ms and visible GPU on lazy-deer"),
    spec("acquisition_index.rows", "count", "lower", "explore_p99_ms on eager-deer"),
    spec("acquisition_index.unmasked_rows", "count", "lower", "explore_p99_ms on eager-deer"),
    spec("acquisition_index.videos", "count", "lower", "explore_p99_ms on eager-deer"),
    spec("acquisition_index.sketch_built", "ratio", "lower", "explore_p99_ms on eager-deer"),
    spec("prob_cache.hit_rows", "count", "higher", "explore_p50_ms on eager-deer"),
    spec("prob_cache.miss_rows", "count", "lower", "explore_p50_ms on eager-deer"),
    spec("prob_cache.invalidations", "count", "lower", "explore_p50_ms on eager-deer"),
    spec("prob_cache.probe_rows", "count", "lower", "base of prob_cache.hit_ratio"),
    spec("prob_cache.hit_ratio", "ratio", "higher", "explore_p50_ms on eager-deer"),
    spec("model_manager.infer_ms_p50", "ms", "lower", "explore_p50_ms on all workloads"),
    spec("model_manager.infer_ms_p99", "ms", "lower", "explore_p50_ms on all workloads"),
    spec("model_manager.pending_ms_p50", "ms", "lower", TRAIN),
    spec("model_manager.pending_ms_p99", "ms", "lower", TRAIN),
    spec("model_manager.pending_ms_total", "ms", "lower", TRAIN),
    spec("model_manager.trains", "count", "lower", TRAIN),
    spec("model_manager.cold_trains", "count", "lower", TRAIN),
    spec("model_manager.warm_trains", "count", "higher", TRAIN),
    spec("bandit.evaluations", "count", "lower", "explore_* on bandit-k20skew; 0 elsewhere"),
    spec("bandit.converged_at", "iteration", "lower", "explore_* on bandit-k20skew; 0 elsewhere"),
    spec("bandit.active_extractors_final", "count", "lower", "explore_* on bandit-k20skew; flat elsewhere"),
    spec("feature_manager.eager_task_ms_p50", "ms", "lower", "session_s on eager-deer"),
    spec("feature_manager.eager_task_ms_total", "ms", "lower", "session_s on eager-deer"),
    spec("feature_manager.eager_videos", "count", "lower", "session_s and session_gpu_modeled_s on eager-deer"),
    spec("feature_manager.gpu_modeled_s", "gpu_s", "lower", "session_gpu_modeled_s on all workloads"),
    spec("sched.queue_wait_ms_p50", "ms", "lower", "session_s on eager-deer"),
    spec("sched.queue_wait_ms_p99", "ms", "lower", "session_s on eager-deer"),
    spec("sched.barrier_ms_total", "ms", "lower", "session_s on eager-deer"),
    spec("sched.tasks_submitted", "count", "lower", "session_s on eager-deer"),
    spec("sched.tasks_failed", "count", "lower", "session_s on eager-deer"),
    spec("storage.add_label_us_p50", "us", "lower", "session_s on all workloads (expected flat)"),
    spec("system.add_video_us_p50", "us", "lower", "setup_s on all workloads"),
    spec("system.explore_ms_p99", "ms", "lower", "tail of explore_p50_ms's calls; too noisy here to bound"),
    spec("system.explore_self_ms_total", "ms", "lower", "explore_* on all workloads (facade residual)"),
    spec("system.explore_gpu_modeled_s", "gpu_s", "lower", "session_gpu_modeled_s; visible share of it"),
    spec("system.ops_failed_ratio", "ratio", "lower", "every metric on every workload; 0 expected"),
    spec("obs.events", "count", "lower", "session_s on all workloads"),
    spec("obs.overhead_ratio", "ratio", "lower", "session_s on all workloads"),
    spec("obs.overhead_ratio_iqr", "ratio", "lower", "noise of obs.overhead_ratio"),
    spec("trace.overhead_ratio", "ratio", "lower", "none: cost of this benchmark's tracing"),
    spec("trace.overhead_ratio_iqr", "ratio", "lower", "noise of trace.overhead_ratio"),
];

/// Span-derived per-layer timings: `(span name, scale from ms, metrics)`.
/// A `_p50`/`_p99` metric pools every call of the run; any other is the
/// per-session total.
#[rustfmt::skip]
const SPAN_METRICS: &[(&str, f64, &[&str])] = &[
    ("explore", 1.0, &["system.explore_ms_p99"]),
    ("sample_segments", 1.0, &["alm.select_ms_p50", "alm.select_ms_p99", "alm.select_ms_total"]),
    ("predict_batch", 1.0, &["model_manager.infer_ms_p50", "model_manager.infer_ms_p99"]),
    ("process_pending_work", 1.0, &["model_manager.pending_ms_p50", "model_manager.pending_ms_p99", "model_manager.pending_ms_total"]),
    ("eager_task", 1.0, &["feature_manager.eager_task_ms_p50", "feature_manager.eager_task_ms_total"]),
    ("sched_queue_wait", 1.0, &["sched.queue_wait_ms_p50", "sched.queue_wait_ms_p99"]),
    ("wait_idle", 1.0, &["sched.barrier_ms_total"]),
    ("add_label", 1e3, &["storage.add_label_us_p50"]),
    ("add_video", 1e3, &["system.add_video_us_p50"]),
];

/// Reads one counter from a finished session.
type Counter = fn(&SessionOut) -> f64;

/// Per-session counters, reported as their mean over the deterministic
/// sessions of the run.
#[rustfmt::skip]
const COUNTER_METRICS: &[(&str, Counter)] = &[
    ("alm.lazy_videos_extracted", |s| s.lazy_videos as f64),
    ("alm.lazy_gpu_modeled_s", |s| gpu(s.lazy_gpu_s)),
    ("acquisition_index.rows", |s| s.index.as_ref().map_or(0.0, |i| i.rows as f64)),
    ("acquisition_index.unmasked_rows", |s| s.index.as_ref().map_or(0.0, |i| i.unmasked_rows as f64)),
    ("acquisition_index.videos", |s| s.index.as_ref().map_or(0.0, |i| i.videos as f64)),
    ("acquisition_index.sketch_built", |s| s.index.as_ref().map_or(0.0, |i| f64::from(u8::from(i.sketch_built)))),
    ("prob_cache.hit_rows", |s| s.cache.hit_rows as f64),
    ("prob_cache.miss_rows", |s| s.cache.miss_rows as f64),
    ("prob_cache.invalidations", |s| s.cache.invalidations as f64),
    ("prob_cache.probe_rows", |s| (s.cache.hit_rows + s.cache.miss_rows) as f64),
    ("model_manager.trains", |s| (s.training.cold_trains + s.training.warm_trains) as f64),
    ("model_manager.cold_trains", |s| s.training.cold_trains as f64),
    ("model_manager.warm_trains", |s| s.training.warm_trains as f64),
    ("bandit.evaluations", |s| s.evaluations as f64),
    ("bandit.converged_at", |s| s.converged_at as f64),
    ("bandit.active_extractors_final", |s| s.active_extractors_final as f64),
    ("feature_manager.eager_videos", |s| s.eager_videos as f64),
    ("feature_manager.gpu_modeled_s", |s| gpu(s.gpu_session_s)),
    ("sched.tasks_submitted", |s| s.tasks_submitted as f64),
    ("sched.tasks_failed", |s| s.tasks_failed as f64),
    ("system.explore_gpu_modeled_s", |s| gpu(s.gpu_visible_s) / ITERATIONS as f64),
    ("obs.events", |s| s.obs_events as f64),
];

/// One reported value.
pub struct Metric {
    pub spec: &'static MetricSpec,
    pub value: f64,
    /// Samples the value summarises.
    pub samples: usize,
}

/// Collects computed values and checks them against a table.
struct Sheet {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Sheet {
    fn new() -> Self {
        Self {
            values: BTreeMap::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        let clash = self.values.insert(name, (value, samples));
        assert!(clash.is_none(), "metric {name} computed twice");
    }

    /// The values in `table` order; every table entry must be present and
    /// every value finite.
    fn finish(mut self, table: &'static [MetricSpec]) -> Result<Vec<Metric>, String> {
        let out = table
            .iter()
            .map(|spec| {
                let (value, samples) = self
                    .values
                    .remove(spec.name)
                    .ok_or_else(|| format!("metric {} was not computed", spec.name))?;
                if !value.is_finite() {
                    return Err(format!("metric {} is {value}", spec.name));
                }
                Ok(Metric {
                    spec,
                    value,
                    samples,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        match self.values.keys().next() {
            Some(extra) => Err(format!("metric {extra} is not in the table")),
            None => Ok(out),
        }
    }
}

/// Modeled GPU seconds are sums of fixed per-clip costs whose addition
/// order can vary with executor scheduling; rounding to a microsecond keeps
/// them exactly repeatable.
fn gpu(seconds: f64) -> f64 {
    (seconds * 1e6).round() / 1e6
}

/// Number of recorded spans called `name`.
pub fn span_count(tracer: &Tracer, name: &str) -> usize {
    tracer.spans().iter().filter(|s| s.name == name).count()
}

fn durations_ms(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Sum that is `+0.0`, not `-0.0`, for no samples.
fn total(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |sum, x| sum + x)
}

fn iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    q3 - q1
}

pub fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let mut sheet = Sheet::new();
    let pooled = |f: fn(&SessionOut) -> &[f64]| -> Vec<f64> {
        run.sessions.iter().flat_map(f).copied().collect()
    };
    let explore = pooled(|s| &s.explore_ms);
    let setup = pooled(|s| &s.setup_s);
    let session: Vec<f64> = run.sessions.iter().map(|s| s.session_s).collect();
    let det = run.measured();
    let gpu_session: Vec<f64> = det.iter().map(|s| gpu(s.gpu_session_s)).collect();
    let f1: Vec<f64> = det.iter().map(|s| s.final_macro_f1).collect();
    sheet.put("explore_p50_ms", percentile(&explore, 0.5)?, explore.len());
    sheet.put("session_s", median(&session), session.len());
    sheet.put("setup_s", median(&setup), setup.len());
    sheet.put("session_gpu_modeled_s", gpu(mean(&gpu_session)), det.len());
    sheet.put("final_macro_f1", mean(&f1), det.len());
    sheet.put("peak_rss_mb", peak_rss_mb()?, 1);
    sheet.finish(END_TO_END)
}

pub fn per_layer(run: &Run) -> Result<Vec<Metric>, String> {
    let mut sheet = Sheet::new();
    let tracer = &run.tracer;
    let sessions = run.sessions.len();

    for &(span, scale, names) in SPAN_METRICS {
        let samples: Vec<f64> = durations_ms(tracer, span)
            .iter()
            .map(|d| d * scale)
            .collect();
        for &name in names {
            let value = match (samples.is_empty(), &name[name.len() - 4..]) {
                // The workload never makes this call.
                (true, _) => 0.0,
                (false, "_p50") => percentile(&samples, 0.5)?,
                (false, "_p99") => percentile(&samples, 0.99)?,
                _ => total(&samples) / sessions as f64,
            };
            sheet.put(name, value, samples.len());
        }
    }
    let visible_ms = total(&durations_ms(tracer, "explore"));
    let select_ms = total(&durations_ms(tracer, "sample_segments"));
    sheet.put("alm.select_visible_share", select_ms / visible_ms, sessions);
    let explore_self_ns: u64 = tracer
        .spans()
        .iter()
        .zip(self_times_ns(tracer.spans()))
        .filter(|(s, _)| s.name == "explore")
        .map(|(_, ns)| ns)
        .sum();
    let explore_self_ms = explore_self_ns as f64 / 1e6 / sessions as f64;
    sheet.put("system.explore_self_ms_total", explore_self_ms, sessions);

    let det = run.measured();
    for &(name, f) in COUNTER_METRICS {
        let value = mean(&det.iter().map(f).collect::<Vec<f64>>());
        let value = if name.ends_with("gpu_modeled_s") {
            gpu(value)
        } else {
            value
        };
        sheet.put(name, value, det.len());
    }
    let hits: u64 = det.iter().map(|s| s.cache.hit_rows).sum();
    let probes: u64 = det
        .iter()
        .map(|s| s.cache.hit_rows + s.cache.miss_rows)
        .sum();
    let hit_ratio = if probes == 0 {
        0.0
    } else {
        hits as f64 / probes as f64
    };
    sheet.put("prob_cache.hit_ratio", hit_ratio, probes as usize);
    let attempted: u64 = run.sessions.iter().map(SessionOut::attempted_ops).sum();
    let failed: u64 = run.sessions.iter().map(SessionOut::failed_ops).sum();
    let failed_ratio = failed as f64 / attempted as f64;
    sheet.put("system.ops_failed_ratio", failed_ratio, attempted as usize);

    let pairs = run.obs_ratios.len();
    if pairs < 2 {
        return Err(format!("{pairs} overhead pairs measured; need at least 2"));
    }
    sheet.put("obs.overhead_ratio", median(&run.obs_ratios), pairs);
    sheet.put("obs.overhead_ratio_iqr", iqr(&run.obs_ratios), pairs);
    sheet.put("trace.overhead_ratio", median(&run.trace_ratios), pairs);
    sheet.put("trace.overhead_ratio_iqr", iqr(&run.trace_ratios), pairs);
    sheet.finish(PER_LAYER)
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let (name, unit) = (m.spec.name, m.spec.unit);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics of these tables, with the
    /// same units and directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                spec.name, spec.unit, spec.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\": ").count();
        let workloads = crate::session::WORKLOADS.len();
        assert_eq!(names, workloads + END_TO_END.len() + PER_LAYER.len());
        for w in crate::session::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)));
        }
    }

    #[test]
    fn metric_names_are_unique_and_tabled() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for name in SPAN_METRICS
            .iter()
            .flat_map(|(_, _, names)| names.iter())
            .chain(COUNTER_METRICS.iter().map(|(name, _)| name))
        {
            assert!(PER_LAYER.iter().any(|s| s.name == *name), "{name}");
        }
    }

    #[test]
    fn sheet_requires_exactly_the_table() {
        static TABLE: [MetricSpec; 2] = [spec("a", "ms", "lower", ""), spec("b", "s", "lower", "")];
        let mut sheet = Sheet::new();
        sheet.put("a", 1.5, 3);
        assert!(sheet.finish(&TABLE).is_err(), "b missing");
        let mut sheet = Sheet::new();
        sheet.put("a", 1.5, 3);
        sheet.put("b", 2.0, 1);
        sheet.put("c", 2.0, 1);
        assert!(sheet.finish(&TABLE).is_err(), "c not in the table");
        let mut sheet = Sheet::new();
        sheet.put("a", f64::NAN, 3);
        sheet.put("b", 2.0, 1);
        assert!(sheet.finish(&TABLE).is_err(), "NaN refused");
        let mut sheet = Sheet::new();
        sheet.put("b", 2.0, 1);
        sheet.put("a", 1.5, 3);
        let metrics = sheet.finish(&TABLE).unwrap();
        let names: Vec<&str> = metrics.iter().map(|m| m.spec.name).collect();
        assert_eq!(names, ["a", "b"], "table order");
    }

    #[test]
    fn result_line_shape() {
        static X: MetricSpec = spec("x_ms", "ms", "lower", "");
        let m = [Metric {
            spec: &X,
            value: 1.25,
            samples: 4,
        }];
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(total(&[]).to_string(), "0");
    }
}
