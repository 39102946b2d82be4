//! Machine-readable scheduler-latency benchmark: writes `BENCH_latency.json`.
//!
//! Runs one measured labeling session per scheduling strategy
//! (`SessionRunner::run_measured`: real `ve_sched::Executor` threads, scaled
//! wall-clock task costs) and records the *measured* median visible latency per iteration
//! next to the analytic model's prediction — the paper's Figure 6 with real
//! concurrency instead of a formula:
//!
//! ```text
//! cargo run --release -p ve-bench --bin bench_latency [-- --quick]
//! ```
//!
//! `--quick` runs fewer iterations on a smaller corpus with a shorter think
//! time (CI keeps the JSON fresh with it); the default setting runs the
//! paper-shaped session (`B = 5`, `T_user = 10 s`, bandit feature selection).
//! The binary asserts the Figure 6 ordering (Serial > VE-partial > VE-full)
//! on the measured medians before writing the artifact.
//!
//! `strategies.<s>.candidate_rows` comes from an inline twin of each
//! session that samples with Cluster-Margin from the first call. It counts
//! the calls that returned the ALM prefetch's prepared picks
//! (`pools_served`, a name kept from when the prefetch prepared only the
//! margin pool), the predicted rows behind those picks (`hit_rows`), the
//! rows the other calls scored themselves (`miss_rows`), the share of the
//! two that was served (`served_share`), and the prefetches dropped unused
//! (`invalidations`).

use ve_bench::emit::Artifact;
use ve_obs::json::Json;
use vocalexplore::prelude::*;
use vocalexplore::{ProbCacheStats, TrainingStats};

struct StrategyRow {
    name: &'static str,
    measured_median_visible_secs: f64,
    modeled_median_visible_secs: f64,
    total_measured_visible_secs: f64,
    total_spill_wall_secs: f64,
    tasks_submitted: u64,
    tasks_failed: u64,
    /// Paper-notation per-phase wall totals from the `ve-obs` timing plane:
    /// selection (`T_s`), feature extraction (`T_f`), model training
    /// (`T_m`), and inference (`T_i`) seconds. The lazy strategies extract
    /// inside selection, so their `T_f` lands in `T_s` and their eager group
    /// is empty (zero).
    phase_secs: [f64; 4],
    /// Cold fits versus warm fine-tunes (`warm-start/v1`) over the session.
    training: TrainingStats,
    /// Candidate probability rows served from the ALM's prefetch versus
    /// scored during selection, and the calls that returned the prepared
    /// picks, in the Cluster-Margin twin of the session.
    candidate_rows: ProbCacheStats,
}

/// Sums the timing plane into `[T_s, T_f, T_m, T_i]` seconds: the `select`
/// session phase plus the run time of the `eager`, `train`, and `infer`
/// executor task groups.
fn phase_breakdown(outcome: &SessionOutcome) -> [f64; 4] {
    let t_s: u64 = outcome
        .phases
        .iter()
        .filter(|p| p.phase == "select")
        .map(|p| p.dur_us)
        .sum();
    let task_total = |kind: &str| -> u64 {
        outcome
            .timings
            .iter()
            .filter(|t| t.label.kind == kind)
            .map(|t| t.run_us())
            .sum()
    };
    [
        t_s as f64 / 1e6,
        task_total("eager") as f64 / 1e6,
        task_total("train") as f64 / 1e6,
        task_total("infer") as f64 / 1e6,
    ]
}

/// The prefetch counters plus `served_share`, the fraction of probability
/// rows served from the prefetch (0 when no selection scored any), and
/// `pools_served`, the calls that returned the prefetch's prepared picks.
fn candidate_rows_json(rows: &ProbCacheStats) -> Json {
    let probed = rows.hit_rows + rows.miss_rows;
    let served_share = if probed == 0 {
        0.0
    } else {
        rows.hit_rows as f64 / probed as f64
    };
    Json::obj([
        ("hit_rows", Json::u64(rows.hit_rows)),
        ("miss_rows", Json::u64(rows.miss_rows)),
        ("invalidations", Json::u64(rows.invalidations)),
        ("served_share", Json::f64(served_share, 4)),
        ("pools_served", Json::u64(rows.pools_served)),
    ])
}

fn run_strategy(strategy: SchedulerStrategy, quick: bool) -> StrategyRow {
    // The coarser quick-mode time scale widens the wall-clock gap between
    // strategies so the ordering assertion stays robust on loaded CI runners
    // (the real, unscaled in-process compute does not shrink with the scale).
    let (scale, iterations, time_scale) = if quick {
        (0.08, 6, 2e-2)
    } else {
        (0.15, 12, 1e-2)
    };
    let mut cfg = SessionConfig::new(DatasetName::Deer, scale, 42)
        .with_iterations(iterations)
        .with_eval_every(10_000); // latency benchmark: skip per-iteration F1
    cfg.system = cfg
        .system
        .with_strategy(strategy)
        .with_time_scale(time_scale);
    if quick {
        // Smaller session: fixed feature (no bandit CV), short think time.
        cfg.system = cfg
            .system
            .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
            .with_extra_candidates(5);
        cfg.system.t_user = 4.0;
        cfg.system.train.epochs = 40;
    }
    // The measured session samples with VE-sample, which the quick profile
    // never moves off Random, so its selections score no candidates. The
    // prefetch counters come from the same session with Cluster-Margin from
    // the first call, run inline: they are deterministic and equal between
    // `run` and `run_measured`.
    let mut active = cfg.clone();
    active.system = active
        .system
        .with_sampling(SamplingPolicy::Fixed(AcquisitionKind::ClusterMargin));
    let candidate_rows = SessionRunner::new(active).run().prob_cache;
    let outcome = SessionRunner::new(cfg).run_measured();
    let measured_median = outcome.median_measured_visible().expect("measured run");
    let total_measured = outcome.total_measured_visible().expect("measured run");
    let total_spill = outcome.total_spill_wall().expect("measured run");
    eprintln!(
        "{:<12} measured median {:>7.2}s  modeled {:>7.2}s  ({} tasks, {} failed, spill {:.2}s wall)",
        strategy.to_string(),
        measured_median,
        outcome.median_modeled_visible(),
        outcome.executor.submitted,
        outcome.executor.failed,
        total_spill,
    );
    assert_eq!(outcome.executor.pending(), 0, "executor failed to drain");
    StrategyRow {
        name: match strategy {
            SchedulerStrategy::Serial => "serial",
            SchedulerStrategy::VePartial => "ve_partial",
            SchedulerStrategy::VeFull => "ve_full",
        },
        measured_median_visible_secs: measured_median,
        modeled_median_visible_secs: outcome.median_modeled_visible(),
        total_measured_visible_secs: total_measured,
        total_spill_wall_secs: total_spill,
        tasks_submitted: outcome.executor.submitted,
        tasks_failed: outcome.executor.failed,
        phase_secs: phase_breakdown(&outcome),
        training: outcome.training,
        candidate_rows,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rows: Vec<StrategyRow> = SchedulerStrategy::all()
        .into_iter()
        .map(|s| run_strategy(s, quick))
        .collect();

    // Figure 6 must hold on the measured numbers before the artifact is
    // worth committing.
    assert!(
        rows[0].measured_median_visible_secs > rows[1].measured_median_visible_secs
            && rows[1].measured_median_visible_secs > rows[2].measured_median_visible_secs,
        "measured ordering Serial > VE-partial > VE-full violated: {:.2} / {:.2} / {:.2}",
        rows[0].measured_median_visible_secs,
        rows[1].measured_median_visible_secs,
        rows[2].measured_median_visible_secs,
    );

    let strategies = Json::obj(rows.iter().map(|r| {
        (
            r.name,
            Json::obj([
                (
                    "measured_median_visible_secs",
                    Json::f64(r.measured_median_visible_secs, 3),
                ),
                (
                    "modeled_median_visible_secs",
                    Json::f64(r.modeled_median_visible_secs, 3),
                ),
                (
                    "total_measured_visible_secs",
                    Json::f64(r.total_measured_visible_secs, 3),
                ),
                (
                    "total_spill_wall_secs",
                    Json::f64(r.total_spill_wall_secs, 3),
                ),
                ("tasks_submitted", Json::u64(r.tasks_submitted)),
                ("tasks_failed", Json::u64(r.tasks_failed)),
                (
                    "phases",
                    Json::obj([
                        ("t_s_secs", Json::f64(r.phase_secs[0], 3)),
                        ("t_f_secs", Json::f64(r.phase_secs[1], 3)),
                        ("t_m_secs", Json::f64(r.phase_secs[2], 3)),
                        ("t_i_secs", Json::f64(r.phase_secs[3], 3)),
                    ]),
                ),
                (
                    "training",
                    Json::obj([
                        ("cold_trains", Json::u64(r.training.cold_trains)),
                        ("warm_trains", Json::u64(r.training.warm_trains)),
                    ]),
                ),
                ("candidate_rows", candidate_rows_json(&r.candidate_rows)),
            ]),
        )
    }));
    Artifact::new("vocalexplore/bench_latency/v4", quick)
        .field("strategies", strategies)
        .write("BENCH_latency.json");
}
