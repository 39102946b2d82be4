//! Integration tests exercising interactions between the substrate crates
//! directly (without the `VocalExplore` facade): feature simulation feeding
//! the ML stack, acquisition functions over simulated embeddings, the rising
//! bandit fed by real cross-validation scores, and the scheduler cost model
//! driven by Table 3 throughputs.

use ve_al::{cluster_margin_selection, coreset_selection, ClusterMarginConfig};
use ve_bandit::{BanditEvent, RisingBandit, RisingBanditConfig};
use ve_features::{ExtractorId, FeatureSimulator};
use ve_ml::{cross_validate, CrossValConfig};
use ve_sched::{iteration_latency, IterationCosts, SchedulerStrategy};
use ve_stats::SkewDetector;
use ve_vidsim::{Dataset, DatasetName, GroundTruthOracle, Oracle, TimeRange};

/// Build an oracle-labeled feature matrix for one extractor.
fn labeled_features(
    dataset: &Dataset,
    sim: &FeatureSimulator,
    extractor: ExtractorId,
    n: usize,
) -> (Vec<Vec<f32>>, Vec<usize>) {
    let oracle = GroundTruthOracle::new(dataset.spec.task);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for clip in dataset.train.videos().iter().take(n) {
        let range = TimeRange::new(0.0, 1.0);
        let labels = oracle.label(&dataset.train, clip.id, &range);
        if let Some(&c) = labels.first() {
            xs.push(sim.extract(extractor, clip, &range).data);
            ys.push(c);
        }
    }
    (xs, ys)
}

#[test]
fn bandit_driven_by_real_cv_scores_prefers_informative_extractors() {
    let dataset = Dataset::scaled(DatasetName::Deer, 0.2, 31);
    let sim = FeatureSimulator::new(DatasetName::Deer, 9, 31);
    let mut bandit = RisingBandit::new(ExtractorId::all().to_vec(), RisingBanditConfig::default());
    let cv_cfg = CrossValConfig::default();

    let mut selected = None;
    for step in 1..=40usize {
        // Growing labeled set: 10 more labeled windows per step.
        let n = 10 + step * 5;
        let scores: Vec<(ExtractorId, f64)> = bandit
            .active_arms()
            .into_iter()
            .filter_map(|e| {
                let (xs, ys) = labeled_features(&dataset, &sim, e, n);
                cross_validate(&xs, &ys, 9, &cv_cfg).map(|s| (e, s))
            })
            .collect();
        if let BanditEvent::Selected(arm) = bandit.observe(&scores) {
            selected = Some(arm);
            break;
        }
    }
    let selected = selected.or_else(|| bandit.selected());
    assert!(
        matches!(selected, Some(ExtractorId::R3d) | Some(ExtractorId::Mvit)),
        "bandit fed by real CV scores should pick a video model on Deer, got {selected:?}"
    );
    // The random feature must not have survived.
    assert!(!bandit.active_arms().contains(&ExtractorId::Random));
}

#[test]
fn acquisition_functions_operate_on_simulated_embeddings() {
    let dataset = Dataset::scaled(DatasetName::K20Skew, 0.2, 33);
    let sim = FeatureSimulator::new(DatasetName::K20Skew, 20, 33);
    let candidates: Vec<Vec<f32>> = dataset
        .train
        .videos()
        .iter()
        .take(120)
        .map(|clip| {
            sim.extract(ExtractorId::Mvit, clip, &TimeRange::new(0.0, 1.0))
                .data
        })
        .collect();

    let candidate_block = ve_ml::FeatureBlock::from_nested(&candidates);
    let coreset = coreset_selection(&candidate_block, &ve_ml::FeatureBlock::empty(64), 10);
    assert_eq!(coreset.len(), 10);
    // Coreset picks should span many different videos' embeddings (diversity):
    let unique: std::collections::HashSet<_> = coreset.iter().collect();
    assert_eq!(unique.len(), 10);

    let all_rows: Vec<usize> = (0..candidate_block.rows()).collect();
    let cm = cluster_margin_selection(
        &candidate_block,
        &all_rows,
        &ve_ml::FeatureBlock::empty(0),
        10,
        &ClusterMarginConfig::default(),
    );
    assert_eq!(cm.len(), 10);
}

#[test]
fn skew_detector_fires_on_oracle_labels_from_a_skewed_corpus() {
    let dataset = Dataset::scaled(DatasetName::Deer, 0.2, 35);
    let oracle = GroundTruthOracle::new(dataset.spec.task);
    let mut counts = vec![0u64; dataset.vocabulary.len()];
    let mut detector = SkewDetector::default();
    let mut fired_at = None;
    for (i, clip) in dataset.train.videos().iter().take(60).enumerate() {
        let labels = oracle.label(&dataset.train, clip.id, &TimeRange::new(0.0, 1.0));
        for c in labels {
            counts[c] += 1;
        }
        if detector.observe(&counts) && fired_at.is_none() {
            fired_at = Some(i + 1);
        }
    }
    let fired_at = fired_at.expect("Deer labels must be detected as skewed within 60 labels");
    assert!(fired_at >= 10, "the detector must respect its warm-up");
}

#[test]
fn scheduler_cost_model_uses_table3_throughputs() {
    let dataset = Dataset::scaled(DatasetName::Deer, 0.05, 37);
    let sim = FeatureSimulator::new(DatasetName::Deer, 9, 37);
    let clip = &dataset.train.videos()[0];
    let t_extract = sim.extraction_seconds(ExtractorId::Mvit, clip);
    assert!(
        (t_extract - 1.0 / 2.93).abs() < 1e-9,
        "MViT Table 3 throughput"
    );

    let costs = IterationCosts {
        batch_size: 5,
        t_select: 0.05,
        t_extract,
        videos_needing_extraction: 5,
        extra_candidates: 0,
        t_infer: 0.15,
        t_train: 2.0,
        t_eval: 2.0,
        features_under_evaluation: 5,
        t_user: 10.0,
    };
    let serial = iteration_latency(SchedulerStrategy::Serial, &costs);
    let full = iteration_latency(SchedulerStrategy::VeFull, &costs);
    // Serial pays extraction + training + evaluation visibly; VE-full pays
    // only selection + inference (B * (Ts + Ti) = 1 second).
    assert!(serial.visible_secs > 10.0);
    assert!((full.visible_secs - 1.0).abs() < 1e-9);
    assert!(full.background_secs > 0.0);
}

#[test]
fn per_dataset_feature_quality_ordering_holds_end_to_end() {
    // The CV score ordering on real simulated embeddings must match the
    // profile ordering for pairs whose Figure 4 quality gap is large enough
    // to be observable at ~150 labels. BDD is deliberately excluded: its
    // best-vs-video-model gap (0.62 vs 0.48) is the smallest in the paper —
    // Table 4 reports feature-selection correctness of only 0.50–0.69 there
    // — so a strict ordering assertion at unit-test label budgets is
    // statistical noise by design; BDD's ordering is asserted at the profile
    // level (`ve-features`' tests) instead. Bears stands in as the
    // image-transformer-friendly dataset, where the informative extractor
    // must beat the randomized-weights arm the bandit is meant to eliminate.
    let cases = [
        (DatasetName::Deer, ExtractorId::R3d, ExtractorId::Clip),
        (DatasetName::K20Skew, ExtractorId::Mvit, ExtractorId::R3d),
        (
            DatasetName::Bears,
            ExtractorId::ClipPooled,
            ExtractorId::Random,
        ),
    ];
    for (ds_name, better, worse) in cases {
        let dataset = Dataset::scaled(ds_name, 0.3, 39);
        let sim = FeatureSimulator::new(ds_name, dataset.vocabulary.len(), 39);
        let oracle = GroundTruthOracle::new(dataset.spec.task);
        let take = 150.min(dataset.train.len());
        let score = |e: ExtractorId| -> f64 {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for clip in dataset.train.videos().iter().take(take) {
                let range = TimeRange::new(0.0, 1.0);
                let labels = oracle.label(&dataset.train, clip.id, &range);
                if let Some(&c) = labels.first() {
                    xs.push(sim.extract(e, clip, &range).data);
                    ys.push(c);
                }
            }
            cross_validate(
                &xs,
                &ys,
                dataset.vocabulary.len(),
                &CrossValConfig::default(),
            )
            .unwrap_or(0.0)
        };
        let s_better = score(better);
        let s_worse = score(worse);
        assert!(
            s_better > s_worse,
            "{better} ({s_better:.3}) should beat {worse} ({s_worse:.3}) on {ds_name}"
        );
    }
}
