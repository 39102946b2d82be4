//! System configuration.

use ve_al::VeSampleConfig;
use ve_bandit::RisingBanditConfig;
use ve_features::ExtractorId;
use ve_ml::TrainConfig;
use ve_sched::fault::FaultPlan;
use ve_sched::{RetryPolicy, SchedulerStrategy};
use ve_vidsim::{Dataset, DatasetName, TaskKind};

/// How the ALM chooses the acquisition function.
#[derive(Debug, Clone, Copy)]
pub enum SamplingPolicy {
    /// Always use the given acquisition function (the fixed baselines of
    /// Figure 3: Random, Coreset, Cluster-Margin).
    Fixed(ve_al::AcquisitionKind),
    /// The `VE-sample` policy: start with Random, switch to the configured
    /// active-learning function when the label distribution is skewed.
    VeSample(VeSampleConfig),
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy::VeSample(VeSampleConfig::default())
    }
}

/// How the ALM chooses the feature extractor.
#[derive(Debug, Clone, Copy)]
pub enum FeatureSelectionPolicy {
    /// Always use one extractor (the per-feature baselines of Figure 4).
    /// (The "Concat" baseline of Figure 4 — concatenating every candidate
    /// extractor — is reproduced directly by the `fig4` experiment binary
    /// because it is not a mode the interactive system itself offers.)
    Fixed(ExtractorId),
    /// The rising-bandit selection of Section 3.2 (`VE-select`).
    Bandit(RisingBanditConfig),
}

impl Default for FeatureSelectionPolicy {
    fn default() -> Self {
        FeatureSelectionPolicy::Bandit(RisingBanditConfig::default())
    }
}

/// Preprocessing performed before the first `Explore` call (only the
/// baselines use this; VOCALExplore itself never preprocesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreprocessPolicy {
    /// No preprocessing (pay-as-you-go).
    #[default]
    None,
    /// Extract the active feature(s) from every video up front
    /// (`Coreset-PP` and `VE-lazy (PP)` in Figures 2 and 8).
    AllVideos,
}

/// Latency cost model for the in-process tasks.
///
/// Feature-extraction costs come from Table 3 throughputs; the remaining
/// tasks run in-process here but took seconds on the paper's hardware
/// (512/768-dimensional features, PyTorch linear probes), so their simulated
/// costs are modeled explicitly rather than measured from this crate's much
/// smaller in-process versions. The defaults approximate the prototype's
/// reported behaviour: sample selection and inference are cheap
/// (sub-100 ms per segment), training grows linearly with the number of
/// labels, and feature evaluation costs three short training runs (3-fold
/// CV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds per sample-selection task (`T_s`).
    pub select_secs: f64,
    /// Model-inference seconds per segment (`T_i`): serving a batch of `B`
    /// segments costs `B · T_i` (one task sleeping the sum).
    pub infer_secs: f64,
    /// Fixed component of model training (`T_m`).
    pub train_base_secs: f64,
    /// Per-label component of model training.
    pub train_per_label_secs: f64,
    /// Seconds per feature-evaluation task (`T_e`), per candidate feature.
    pub eval_secs: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            select_secs: 0.05,
            infer_secs: 0.15,
            train_base_secs: 1.0,
            train_per_label_secs: 0.01,
            eval_secs: 2.0,
        }
    }
}

impl CostModel {
    /// Training cost for a given number of labels.
    pub fn train_secs(&self, labels: usize) -> f64 {
        self.train_base_secs + self.train_per_label_secs * labels as f64
    }
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct VocalExploreConfig {
    /// Dataset the corpus belongs to (drives the simulated feature
    /// extractors' signal profiles).
    pub dataset: DatasetName,
    /// Number of classes in the label vocabulary.
    pub num_classes: usize,
    /// Single- or multi-label task.
    pub task: TaskKind,
    /// Acquisition-function policy.
    pub sampling: SamplingPolicy,
    /// Feature-selection policy.
    pub feature_selection: FeatureSelectionPolicy,
    /// Scheduling strategy (Serial / VE-partial / VE-full).
    pub strategy: SchedulerStrategy,
    /// Preprocessing policy (baselines only).
    pub preprocess: PreprocessPolicy,
    /// Extra videos `X` processed when active learning needs a candidate
    /// pool and eager extraction is not available (VE-lazy variants).
    pub extra_candidates_x: usize,
    /// Maximum candidate windows an active selection considers per call.
    /// When the unlabeled pool exceeds this, the ALM's acquisition index
    /// reduces it with a deterministic cluster sketch (round-robin across
    /// feature-space clusters) instead of the old random shuffle-truncate,
    /// so per-call work stays bounded without dropping whole regions.
    pub candidate_cap: usize,
    /// Minimum number of labels before predictions are returned (the
    /// prototype waits for 5).
    pub min_labels_for_predictions: usize,
    /// Embedding dimensionality of the simulated extractors.
    pub feature_dim: usize,
    /// Training hyperparameters for the linear models.
    pub train: TrainConfig,
    /// Latency cost model.
    pub costs: CostModel,
    /// Simulated seconds the user takes to label one segment (`T_user`).
    pub t_user: f64,
    /// RNG seed for sampling and simulation.
    pub seed: u64,
    /// Worker threads for the data-parallel compute kernels (distance scans,
    /// batch inference, CV folds). `0` uses the host's available
    /// parallelism; `1` forces single-threaded execution. Results are
    /// bit-identical at any setting — the knob trades wall-clock only.
    ///
    /// **Process-wide:** applied via `ve_sched::parallel::set_parallelism`
    /// when a [`crate::VocalExplore`] is constructed, so the most recently
    /// constructed system's setting governs all systems in the process.
    pub compute_threads: usize,
    /// Worker threads of the `ve_sched::Executor` a measured session run
    /// (`SessionRunner::run_measured`) submits its tasks to. The paper's
    /// evaluation runs two extraction tasks concurrently on the GPU, hence
    /// the default of 2. Unlike `compute_threads` this knob changes *when*
    /// tasks complete (and therefore measured latency), never *what* they
    /// compute.
    pub executor_workers: usize,
    /// Real seconds per simulated second for a measured session run
    /// (`SessionRunner::run_measured`): modeled task costs (GPU extraction, training,
    /// user think time, ...) are slept for `cost * time_scale` wall-clock
    /// seconds on the thread executing the task, so wall-clock measurements
    /// divided by `time_scale` are comparable to the paper's latency axes.
    /// `SessionRunner::run` and the facade's own calls ignore this knob.
    pub time_scale: f64,
    /// Deterministic fault-injection plan for chaos testing. `None` (the
    /// default) disables injection entirely; a plan makes feature
    /// extraction, training, and inference fail as a pure function of
    /// `(plan.seed, site, key, attempt)` — bit-identical at any worker or
    /// thread count.
    pub fault_plan: Option<FaultPlan>,
    /// Retry budget and virtual-time backoff applied to faultable
    /// operations (extraction, training, inference). Every operation numbers
    /// its attempts from zero, so its outcome under a fault plan does not
    /// depend on which executor runs it.
    pub retry: RetryPolicy,
    /// Whether the `ve-obs` sinks (deterministic event ledger, executor
    /// timing plane) record. Defaults on; turning it off
    /// reduces per-event cost to one relaxed atomic load. Degradations are
    /// recorded regardless — they are program state, not telemetry.
    pub observability: bool,
}

impl VocalExploreConfig {
    /// A configuration with the paper's defaults for the given dataset
    /// characteristics.
    pub fn new(dataset: DatasetName, num_classes: usize, task: TaskKind, seed: u64) -> Self {
        Self {
            dataset,
            num_classes,
            task,
            sampling: SamplingPolicy::default(),
            feature_selection: FeatureSelectionPolicy::default(),
            strategy: SchedulerStrategy::VeFull,
            preprocess: PreprocessPolicy::None,
            extra_candidates_x: 50,
            candidate_cap: 2_000,
            min_labels_for_predictions: 5,
            feature_dim: ve_features::simulator::DEFAULT_SIM_DIM,
            train: TrainConfig::default(),
            costs: CostModel::default(),
            t_user: 10.0,
            seed,
            compute_threads: 0,
            executor_workers: 2,
            time_scale: 2e-3,
            fault_plan: None,
            retry: RetryPolicy::new(3, 0.05, 2.0),
            observability: true,
        }
    }

    /// Convenience constructor reading the dataset's characteristics.
    pub fn for_dataset(dataset: &Dataset, seed: u64) -> Self {
        Self::new(
            dataset.spec.name,
            dataset.vocabulary.len(),
            dataset.spec.task,
            seed,
        )
    }

    /// Overrides the sampling policy.
    pub fn with_sampling(mut self, sampling: SamplingPolicy) -> Self {
        self.sampling = sampling;
        self
    }

    /// Overrides the feature-selection policy.
    pub fn with_feature_selection(mut self, policy: FeatureSelectionPolicy) -> Self {
        self.feature_selection = policy;
        self
    }

    /// Overrides the scheduling strategy.
    pub fn with_strategy(mut self, strategy: SchedulerStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the preprocessing policy.
    pub fn with_preprocess(mut self, preprocess: PreprocessPolicy) -> Self {
        self.preprocess = preprocess;
        self
    }

    /// Overrides `X`, the number of extra candidate videos processed for
    /// active learning under the lazy strategies.
    pub fn with_extra_candidates(mut self, x: usize) -> Self {
        self.extra_candidates_x = x;
        self
    }

    /// Overrides the candidate-window cap of active selections.
    ///
    /// # Panics
    /// Panics if `cap == 0` (selection needs at least one candidate).
    pub fn with_candidate_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "candidate cap must be positive");
        self.candidate_cap = cap;
        self
    }

    /// Overrides the data-parallel worker count (`0` = host parallelism,
    /// `1` = single-threaded determinism audits).
    pub fn with_compute_threads(mut self, threads: usize) -> Self {
        self.compute_threads = threads;
        self
    }

    /// Overrides the executor worker count of a measured session run.
    ///
    /// # Panics
    /// Panics if `workers == 0` (the executor needs at least one thread).
    pub fn with_executor_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one executor worker");
        self.executor_workers = workers;
        self
    }

    /// Installs a deterministic fault-injection plan (chaos testing).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the retry budget / backoff for faultable operations.
    ///
    /// # Panics
    /// Panics if `retry.max_attempts == 0`.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.max_attempts > 0, "need at least one attempt");
        self.retry = retry;
        self
    }

    /// Enables or disables the observability sinks (event ledger, executor
    /// timing plane). Selection, training, and degradation behavior
    /// are bit-identical either way.
    pub fn with_observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Overrides the simulated-to-real time scale of a measured session run.
    ///
    /// # Panics
    /// Panics if the scale is not positive and finite.
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "time scale must be positive and finite"
        );
        self.time_scale = scale;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ve_vidsim::DatasetName;

    #[test]
    fn defaults_match_paper_settings() {
        let cfg = VocalExploreConfig::new(DatasetName::Deer, 9, TaskKind::SingleLabel, 0);
        assert_eq!(cfg.min_labels_for_predictions, 5);
        assert_eq!(cfg.t_user, 10.0);
        assert_eq!(cfg.strategy, SchedulerStrategy::VeFull);
        assert!(matches!(cfg.sampling, SamplingPolicy::VeSample(_)));
        assert!(matches!(
            cfg.feature_selection,
            FeatureSelectionPolicy::Bandit(_)
        ));
        assert_eq!(cfg.preprocess, PreprocessPolicy::None);
    }

    #[test]
    fn builder_overrides() {
        let cfg = VocalExploreConfig::new(DatasetName::K20, 20, TaskKind::SingleLabel, 1)
            .with_strategy(SchedulerStrategy::Serial)
            .with_sampling(SamplingPolicy::Fixed(ve_al::AcquisitionKind::Coreset))
            .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::Mvit))
            .with_preprocess(PreprocessPolicy::AllVideos)
            .with_extra_candidates(10);
        assert_eq!(cfg.strategy, SchedulerStrategy::Serial);
        assert_eq!(cfg.extra_candidates_x, 10);
        assert_eq!(cfg.preprocess, PreprocessPolicy::AllVideos);
    }

    #[test]
    fn for_dataset_reads_characteristics() {
        let ds = Dataset::scaled(DatasetName::Bdd, 0.1, 3);
        let cfg = VocalExploreConfig::for_dataset(&ds, 3);
        assert_eq!(cfg.num_classes, 6);
        assert_eq!(cfg.task, TaskKind::MultiLabel);
        assert_eq!(cfg.dataset, DatasetName::Bdd);
    }

    #[test]
    fn async_engine_knobs_default_and_override() {
        let cfg = VocalExploreConfig::new(DatasetName::Deer, 9, TaskKind::SingleLabel, 0);
        assert_eq!(
            cfg.executor_workers, 2,
            "paper runs two concurrent GPU tasks"
        );
        assert!(cfg.time_scale > 0.0);
        let cfg = cfg.with_executor_workers(4).with_time_scale(1e-4);
        assert_eq!(cfg.executor_workers, 4);
        assert_eq!(cfg.time_scale, 1e-4);
    }

    #[test]
    #[should_panic(expected = "at least one executor worker")]
    fn rejects_zero_executor_workers() {
        let _ = VocalExploreConfig::new(DatasetName::Deer, 9, TaskKind::SingleLabel, 0)
            .with_executor_workers(0);
    }

    #[test]
    fn fault_knobs_default_off_and_override() {
        use ve_sched::fault::FaultRule;
        let cfg = VocalExploreConfig::new(DatasetName::Deer, 9, TaskKind::SingleLabel, 0);
        assert!(cfg.fault_plan.is_none(), "no faults unless asked for");
        assert_eq!(cfg.retry.max_attempts, 3);
        let plan = FaultPlan::uniform(7, FaultRule::transient(0.5, 2));
        let cfg = cfg
            .with_fault_plan(plan.clone())
            .with_retry(RetryPolicy::new(5, 0.1, 2.0));
        assert_eq!(cfg.fault_plan, Some(plan));
        assert_eq!(cfg.retry.max_attempts, 5);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn rejects_zero_retry_attempts() {
        let mut retry = RetryPolicy::none();
        retry.max_attempts = 0;
        let _ = VocalExploreConfig::new(DatasetName::Deer, 9, TaskKind::SingleLabel, 0)
            .with_retry(retry);
    }

    #[test]
    fn observability_knob_defaults_on_and_overrides() {
        let cfg = VocalExploreConfig::new(DatasetName::Deer, 9, TaskKind::SingleLabel, 0);
        assert!(cfg.observability, "sinks default on");
        let cfg = cfg.with_observability(false);
        assert!(!cfg.observability);
    }

    #[test]
    fn cost_model_training_scales_with_labels() {
        let costs = CostModel::default();
        assert!(costs.train_secs(100) > costs.train_secs(10));
        assert!((costs.train_secs(0) - costs.train_base_secs).abs() < 1e-12);
    }
}
