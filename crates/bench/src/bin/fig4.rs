//! Figure 4 — macro F1 per feature extractor (and Concat) per dataset.
//!
//! For every dataset, trains models on labels collected with
//! `VE-sample (CM)` sampling while holding the feature extractor fixed, and
//! reports the final macro F1 for each extractor plus the concatenation of
//! all extractors. The headline findings to reproduce: the best feature
//! varies across datasets (video models on Deer, MViT on K20 (skew) and
//! Charades, CLIP variants on BDD), the Random feature is always worst, and
//! Concat does not beat the best single feature. Concat is scored by the
//! session harness's own held-out evaluator ([`held_out_f1`]).
//!
//! ```text
//! cargo run --release -p ve-bench --bin fig4 [-- --full]
//! ```

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ve_al::VeSampleConfig;
use ve_bench::{print_header, print_row, run_averaged, with_fixed_feature, with_sampling, Profile};
use ve_features::FeatureSimulator;
use ve_ml::{StandardScaler, TrainConfig, TrainedModel};
use ve_vidsim::{Dataset, TimeRange};
use vocalexplore::harness::held_out_f1;
use vocalexplore::model_manager::{task_targets, FittedModel};
use vocalexplore::prelude::*;
use vocalexplore::SamplingPolicy;

fn main() {
    let profile = Profile::from_args();
    println!(
        "Figure 4: F1 per feature extractor (VE-sample (CM) sampling), {} iterations x {} seeds\n",
        profile.iterations, profile.seeds
    );

    let mut widths = vec![12usize];
    widths.extend(std::iter::repeat_n(9, 6));
    let extractor_names: Vec<String> = ExtractorId::all().iter().map(|e| e.to_string()).collect();
    let mut header = vec!["Dataset"];
    header.extend(extractor_names.iter().map(|s| s.as_str()));
    header.push("Concat");
    print_header(&header, &widths);

    for dataset in DatasetName::all() {
        let mut cells = vec![dataset.to_string()];
        let mut best = (String::new(), f64::MIN);
        for extractor in ExtractorId::all() {
            let outcome = run_averaged(&profile, dataset, |cfg| {
                let cfg = with_sampling(
                    cfg,
                    SamplingPolicy::VeSample(VeSampleConfig::cluster_margin()),
                );
                with_fixed_feature(cfg, extractor)
            });
            if outcome.final_f1 > best.1 {
                best = (extractor.to_string(), outcome.final_f1);
            }
            cells.push(format!("{:.3}", outcome.final_f1));
        }
        cells.push(format!("{:.3}", concat_f1(&profile, dataset)));
        print_row(&cells, &widths);
        println!(
            "  -> best single feature on {dataset}: {} (F1 {:.3})",
            best.0, best.1
        );
    }
    println!(
        "\nExpected shape: R3D/MViT lead on Deer, MViT leads on K20 (skew) and Charades, the CLIP\n\
         variants lead on BDD, Random is always worst, and Concat does not beat the best single\n\
         feature."
    );
}

/// The "Concat" baseline: every candidate extractor's embedding concatenated
/// into one long feature vector, trained on the same labeling budget
/// (`iterations × 5` random labeled windows) and evaluated on the held-out
/// set. Averaged over the profile's seeds.
fn concat_f1(profile: &Profile, dataset: DatasetName) -> f64 {
    let mut scores = Vec::new();
    for seed in 0..profile.seeds {
        let seed = seed * 101 + 7;
        let cfg = profile.session(dataset, seed);
        let ds = Dataset::scaled(dataset, cfg.scale, seed);
        let sim = FeatureSimulator::new(dataset, ds.vocabulary.len(), seed);
        let oracle = GroundTruthOracle::new(ds.spec.task);
        let budget = profile.iterations * 5;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut videos: Vec<usize> = (0..ds.train.len()).collect();
        videos.shuffle(&mut rng);

        let mut feats = Vec::new();
        let mut targets = task_targets(ds.spec.task);
        for &vi in videos.iter().take(budget) {
            let clip = &ds.train.videos()[vi];
            let range = TimeRange::new(0.0, cfg.clip_len.min(clip.duration));
            let classes = oracle.label(&ds.train, clip.id, &range);
            let fv = sim.extract_concat(clip, &range);
            if targets.push(&classes) {
                feats.push(fv.data);
            }
        }
        if feats.len() < 10 {
            continue;
        }
        let (scaled, scaler) = StandardScaler::fit_transform(&feats);
        let train_cfg = TrainConfig {
            epochs: profile.epochs,
            ..TrainConfig::default()
        };
        let Some(model) = TrainedModel::fit(&scaled, &targets, ds.vocabulary.len(), &train_cfg)
        else {
            continue;
        };
        let fitted = FittedModel { scaler, model };
        let score = held_out_f1(
            &fitted,
            &ds.eval,
            ds.spec.task,
            cfg.clip_len,
            |clip, range| sim.extract_concat(clip, range).data,
        )
        .unwrap_or(0.0);
        scores.push(score);
    }
    ve_stats::mean(&scores)
}
