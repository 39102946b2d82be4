//! Scheduling strategies and their per-iteration visible-latency accounting.
//!
//! Section 4 derives the user-visible latency of one `Explore` iteration for
//! each strategy (with `B` segments per batch, `X` extra feature extractions
//! when active learning needs a candidate pool, and `k` features still under
//! evaluation):
//!
//! | strategy     | random sampling                  | active learning                        |
//! |--------------|----------------------------------|----------------------------------------|
//! | Serial       | `B(Ts + Tf + Ti) + Tm + k·Te`    | `(B+X)·Tf + B(Ts + Ti) + Tm + k·Te`    |
//! | `VE-partial` | `B(Ts + Tf + Ti)`                | `(B+X)·Tf + B(Ts + Ti)`                |
//! | `VE-full`    | `B(Ts + Ti)`                     | `B(Ts + Ti)`                           |
//!
//! `VE-partial` makes training and feature evaluation asynchronous;
//! `VE-full` additionally hides feature extraction behind eager background
//! extraction, so only sample selection and inference remain visible.

/// The scheduling strategies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerStrategy {
    /// Everything runs synchronously inside the API call.
    Serial,
    /// Model training and feature evaluation are asynchronous.
    VePartial,
    /// `VE-partial` plus eager background feature extraction.
    VeFull,
}

impl SchedulerStrategy {
    /// The three strategies the paper evaluates, in increasing order of
    /// optimization.
    pub fn all() -> [SchedulerStrategy; 3] {
        [
            SchedulerStrategy::Serial,
            SchedulerStrategy::VePartial,
            SchedulerStrategy::VeFull,
        ]
    }

    /// Display name used in experiment output.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedulerStrategy::Serial => "Serial",
            SchedulerStrategy::VePartial => "VE-partial",
            SchedulerStrategy::VeFull => "VE-full",
        }
    }
}

impl std::fmt::Display for SchedulerStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-task costs for one iteration (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationCosts {
    /// Batch size `B` (segments labeled per iteration).
    pub batch_size: usize,
    /// Sample-selection cost per segment (`T_s`).
    pub t_select: f64,
    /// Feature-extraction cost per *video that still needs features* (`T_f`).
    pub t_extract: f64,
    /// Number of sampled videos whose features are not yet extracted; under
    /// `VE-full` this is zero because eager extraction already covered them.
    pub videos_needing_extraction: usize,
    /// Extra videos `X` that must be processed before active learning can
    /// choose a batch (zero under random sampling and under `VE-full`).
    pub extra_candidates: usize,
    /// Inference cost per segment (`T_i`).
    pub t_infer: f64,
    /// Model-training cost (`T_m`).
    pub t_train: f64,
    /// Feature-evaluation cost per candidate feature (`T_e`).
    pub t_eval: f64,
    /// Number of candidate features still being evaluated (`k`).
    pub features_under_evaluation: usize,
    /// Seconds the user spends labeling each segment (`T_user`).
    pub t_user: f64,
}

impl IterationCosts {
    /// Convenience constructor with the paper's defaults (`B = 5`,
    /// `T_user = 10 s`) and everything else zeroed.
    pub fn with_defaults() -> Self {
        Self {
            batch_size: 5,
            t_select: 0.0,
            t_extract: 0.0,
            videos_needing_extraction: 0,
            extra_candidates: 0,
            t_infer: 0.0,
            t_train: 0.0,
            t_eval: 0.0,
            features_under_evaluation: 0,
            t_user: 10.0,
        }
    }
}

/// The latency breakdown of one iteration under a given strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationLatency {
    /// Latency the user perceives before the batch is shown
    /// (`T_visible = T_total − B·T_user`).
    pub visible_secs: f64,
    /// Work executed in the background during labeling time.
    pub background_secs: f64,
    /// Labeling time (`B · T_user`).
    pub labeling_secs: f64,
}

impl IterationLatency {
    /// Total elapsed time of the iteration.
    pub fn total_secs(&self) -> f64 {
        self.visible_secs + self.labeling_secs
    }

    /// Whether the background work fits inside the labeling window (if not,
    /// the surplus spills into later iterations rather than into visible
    /// latency, because background tasks never block the API).
    pub fn background_fits(&self) -> bool {
        self.background_secs <= self.labeling_secs
    }
}

/// Computes the visible/background latency split of one iteration.
pub fn iteration_latency(strategy: SchedulerStrategy, costs: &IterationCosts) -> IterationLatency {
    let b = costs.batch_size as f64;
    let k = costs.features_under_evaluation as f64;
    let select_and_infer = b * (costs.t_select + costs.t_infer);
    let extraction =
        (costs.videos_needing_extraction + costs.extra_candidates) as f64 * costs.t_extract;
    let train_and_eval = costs.t_train + k * costs.t_eval;

    let (visible, background) = match strategy {
        SchedulerStrategy::Serial => (select_and_infer + extraction + train_and_eval, 0.0),
        SchedulerStrategy::VePartial => (select_and_infer + extraction, train_and_eval),
        SchedulerStrategy::VeFull => {
            // Feature extraction for the sampled (and candidate) videos has
            // already happened eagerly in the background; what remains
            // visible is selection + inference. The extraction work itself is
            // accounted as background.
            (select_and_infer, extraction + train_and_eval)
        }
    };
    IterationLatency {
        visible_secs: visible,
        background_secs: background,
        labeling_secs: b * costs.t_user,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(extraction_videos: usize, extra: usize) -> IterationCosts {
        IterationCosts {
            batch_size: 5,
            t_select: 0.01,
            t_extract: 0.3,
            videos_needing_extraction: extraction_videos,
            extra_candidates: extra,
            t_infer: 0.02,
            t_train: 2.0,
            t_eval: 1.0,
            features_under_evaluation: 5,
            t_user: 10.0,
        }
    }

    #[test]
    fn serial_matches_paper_formula_random() {
        // T_serial(random) = B(Ts + Tf + Ti) + Tm + k·Te with one extraction
        // per sampled video.
        let c = costs(5, 0);
        let lat = iteration_latency(SchedulerStrategy::Serial, &c);
        let expected = 5.0 * (0.01 + 0.02) + 5.0 * 0.3 + 2.0 + 5.0 * 1.0;
        assert!((lat.visible_secs - expected).abs() < 1e-9);
        assert_eq!(lat.background_secs, 0.0);
        assert_eq!(lat.labeling_secs, 50.0);
    }

    #[test]
    fn serial_matches_paper_formula_active() {
        // T_serial(active) = (B+X)Tf + B(Ts + Ti) + Tm + k·Te.
        let c = costs(5, 50);
        let lat = iteration_latency(SchedulerStrategy::Serial, &c);
        let expected = 55.0 * 0.3 + 5.0 * (0.01 + 0.02) + 2.0 + 5.0;
        assert!((lat.visible_secs - expected).abs() < 1e-9);
    }

    #[test]
    fn ve_partial_hides_training_and_evaluation() {
        let c = costs(5, 0);
        let lat = iteration_latency(SchedulerStrategy::VePartial, &c);
        let expected_visible = 5.0 * (0.01 + 0.02) + 5.0 * 0.3;
        assert!((lat.visible_secs - expected_visible).abs() < 1e-9);
        assert!((lat.background_secs - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ve_full_visible_latency_is_select_plus_infer_only() {
        let c = costs(5, 50);
        let lat = iteration_latency(SchedulerStrategy::VeFull, &c);
        let expected_visible = 5.0 * (0.01 + 0.02);
        assert!((lat.visible_secs - expected_visible).abs() < 1e-9);
        // The extraction and training work did not disappear; it moved to the
        // background.
        assert!(lat.background_secs > 10.0);
    }

    #[test]
    fn strategies_are_strictly_ordered_by_visible_latency() {
        let c = costs(5, 10);
        let serial = iteration_latency(SchedulerStrategy::Serial, &c).visible_secs;
        let partial = iteration_latency(SchedulerStrategy::VePartial, &c).visible_secs;
        let full = iteration_latency(SchedulerStrategy::VeFull, &c).visible_secs;
        assert!(serial > partial && partial > full);
    }

    #[test]
    fn ve_full_visible_latency_is_about_one_second_with_paper_costs() {
        // With B = 5, per-segment selection+inference of ~0.2 s, VE-full's
        // visible latency lands near the ~1 s/iteration the paper reports.
        let c = IterationCosts {
            batch_size: 5,
            t_select: 0.05,
            t_infer: 0.15,
            ..IterationCosts::with_defaults()
        };
        let lat = iteration_latency(SchedulerStrategy::VeFull, &c);
        assert!((lat.visible_secs - 1.0).abs() < 0.2, "{}", lat.visible_secs);
    }

    #[test]
    fn background_fit_check() {
        let mut c = costs(5, 0);
        c.t_train = 100.0;
        let lat = iteration_latency(SchedulerStrategy::VePartial, &c);
        assert!(!lat.background_fits());
        c.t_train = 2.0;
        let lat = iteration_latency(SchedulerStrategy::VePartial, &c);
        assert!(lat.background_fits());
        assert!((lat.total_secs() - (lat.visible_secs + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn display_names() {
        assert_eq!(SchedulerStrategy::VeFull.to_string(), "VE-full");
        assert_eq!(SchedulerStrategy::all().len(), 3);
    }
}
