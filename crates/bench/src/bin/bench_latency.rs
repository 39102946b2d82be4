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

use ve_bench::emit::Artifact;
use ve_obs::json::Json;
use vocalexplore::prelude::*;

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
            ]),
        )
    }));
    Artifact::new("vocalexplore/bench_latency/v2", quick)
        .field("strategies", strategies)
        .write("BENCH_latency.json");
}
