//! Cross-crate integration tests: the full VOCALExplore pipeline from
//! synthetic corpus generation through exploration, labeling, model training,
//! and prediction — exercised through the public API only.

use vocalexplore::prelude::*;
use vocalexplore::{FeatureSelectionPolicy, SamplingPolicy};

fn build_system(dataset: &Dataset, seed: u64) -> VocalExplore {
    let config = VocalExploreConfig::for_dataset(dataset, seed)
        .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
        .with_extra_candidates(5);
    let mut system = VocalExplore::new(config);
    for clip in dataset.train.videos() {
        system.add_video(clip.clone());
    }
    system
}

#[test]
fn explore_label_predict_loop_improves_over_iterations() {
    let dataset = Dataset::scaled(DatasetName::Deer, 0.1, 11);
    let mut system = build_system(&dataset, 11);
    let oracle = GroundTruthOracle::new(dataset.spec.task);

    let mut first_batch_had_predictions = false;
    for iteration in 0..8 {
        let batch = system.explore(5, 1.0, None);
        assert_eq!(
            batch.len(),
            5,
            "iteration {iteration} returned a short batch"
        );
        if iteration == 0 {
            first_batch_had_predictions = batch.segments.iter().any(|s| !s.predictions.is_empty());
        }
        for seg in &batch.segments {
            let classes = oracle.label(&dataset.train, seg.vid, &seg.range);
            system.add_label(seg.vid, seg.range, classes);
        }
    }
    assert!(
        !first_batch_had_predictions,
        "no predictions should exist before any labels are collected"
    );
    assert_eq!(system.label_count(), 40);

    // After 40 labels the system must return full probability distributions.
    let batch = system.explore(5, 1.0, None);
    let with_preds = batch
        .segments
        .iter()
        .filter(|s| !s.predictions.is_empty())
        .count();
    assert!(
        with_preds > 0,
        "predictions must be attached after labeling"
    );
    for seg in batch.segments.iter().filter(|s| !s.predictions.is_empty()) {
        assert_eq!(seg.predictions.len(), dataset.vocabulary.len());
        let total: f32 = seg.predictions.iter().map(|p| p.probability).sum();
        assert!(
            (total - 1.0).abs() < 1e-3,
            "single-label predictions must sum to 1"
        );
    }
}

#[test]
fn watch_and_targeted_explore_work_through_the_public_api() {
    let dataset = Dataset::scaled(DatasetName::Deer, 0.1, 13);
    let mut system = build_system(&dataset, 13);
    let oracle = GroundTruthOracle::new(dataset.spec.task);

    // Label a few batches first so a model exists.
    for _ in 0..5 {
        let batch = system.explore(5, 1.0, None);
        for seg in &batch.segments {
            let classes = oracle.label(&dataset.train, seg.vid, &seg.range);
            system.add_label(seg.vid, seg.range, classes);
        }
    }

    // Watch a specific window of a specific video.
    let vid = dataset.train.videos()[0].id;
    let stream = system.watch(vid, 2.0, 6.0, 1.0);
    assert_eq!(stream.len(), 4);
    assert!(stream.segments.iter().all(|s| s.vid == vid));

    // Targeted exploration for one class uses the rare-class sampler.
    let batch = system.explore(5, 1.0, Some(1));
    assert_eq!(batch.acquisition, Some(AcquisitionKind::Uncertainty));
    assert_eq!(batch.len(), 5);
}

#[test]
fn multilabel_dataset_end_to_end() {
    let dataset = Dataset::scaled(DatasetName::Bdd, 0.3, 17);
    let config = VocalExploreConfig::for_dataset(&dataset, 17)
        .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::Clip))
        .with_extra_candidates(5);
    let mut system = VocalExplore::new(config);
    for clip in dataset.train.videos() {
        system.add_video(clip.clone());
    }
    let oracle = GroundTruthOracle::new(dataset.spec.task);
    for _ in 0..6 {
        let batch = system.explore(5, 1.5, None);
        for seg in &batch.segments {
            let classes = oracle.label(&dataset.train, seg.vid, &seg.range);
            system.add_label(seg.vid, seg.range, classes);
        }
    }
    let batch = system.explore(5, 1.5, None);
    let seg = batch
        .segments
        .iter()
        .find(|s| !s.predictions.is_empty())
        .expect("multi-label predictions should be available");
    // Multi-label probabilities are independent sigmoids, not a distribution.
    assert_eq!(seg.predictions.len(), 6);
    assert!(seg
        .predictions
        .iter()
        .all(|p| (0.0..=1.0).contains(&p.probability)));
}

#[test]
fn ve_sample_switches_only_on_skewed_datasets() {
    // Uniform K20: should stay on Random sampling. Skewed Deer: should switch.
    let run = |name: DatasetName, seed: u64| {
        let dataset = Dataset::scaled(name, 0.1, seed);
        let config = VocalExploreConfig::for_dataset(&dataset, seed)
            .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::Mvit))
            .with_sampling(SamplingPolicy::default())
            .with_extra_candidates(5);
        let mut system = VocalExplore::new(config);
        for clip in dataset.train.videos() {
            system.add_video(clip.clone());
        }
        let oracle = GroundTruthOracle::new(dataset.spec.task);
        for _ in 0..10 {
            let batch = system.explore(5, 1.0, None);
            for seg in &batch.segments {
                let classes = oracle.label(&dataset.train, seg.vid, &seg.range);
                system.add_label(seg.vid, seg.range, classes);
            }
        }
        system.current_acquisition()
    };
    assert_eq!(
        run(DatasetName::Deer, 3),
        AcquisitionKind::ClusterMargin,
        "Deer labels are skewed; VE-sample must switch"
    );
    assert_eq!(
        run(DatasetName::K20, 3),
        AcquisitionKind::Random,
        "uniform K20 labels must not trigger the switch"
    );
}
