//! Figure 8 — model quality and latency of the VE scheduling variants.
//!
//! Compares, on Deer, K20, and K20 (skew):
//! * `VE-lazy (PP)` — feature + acquisition selection as in Section 3 but
//!   with all candidate features extracted from all videos up front,
//! * `VE-lazy (X)` for `X ∈ {10, 50, 100}` — incremental extraction of `X`
//!   candidate videos whenever active learning needs them,
//! * `VE-full` — the Task Scheduler's optimizations as the session engine
//!   runs them: training and feature evaluation deferred until after the
//!   user labels the batch, plus eager background extraction.
//!
//! Expected shape: VE-full matches or exceeds the F1 of the lazy variants at a
//! fraction of the cumulative visible latency (about one second per step);
//! larger `X` improves F1 on K20 (skew) but costs more visible latency.
//!
//! ```text
//! cargo run --release -p ve-bench --bin fig8 [-- --full]
//! ```

use ve_bench::{print_header, print_row, run_averaged, with_system, Profile};
use vocalexplore::prelude::*;
use vocalexplore::PreprocessPolicy;

fn main() {
    let profile = Profile::from_args();
    println!(
        "Figure 8: scheduling variants, {} Explore steps x {} seeds (T_user = 10 s)\n",
        profile.iterations, profile.seeds
    );

    for dataset in [DatasetName::Deer, DatasetName::K20, DatasetName::K20Skew] {
        println!("--- {dataset} ---");
        let widths = [16, 9, 22, 18];
        print_header(
            &["Variant", "F1", "cum. visible latency", "per-step latency"],
            &widths,
        );

        let mut rows: Vec<(String, ve_bench::AveragedOutcome)> = Vec::new();
        // VE-lazy (PP): serial schedule + preprocess all candidate features.
        rows.push((
            "VE-lazy (PP)".to_string(),
            run_averaged(&profile, dataset, |cfg| {
                with_system(cfg, |s| {
                    s.with_strategy(SchedulerStrategy::Serial)
                        .with_preprocess(PreprocessPolicy::AllVideos)
                })
            }),
        ));
        // VE-lazy (X): VE-partial schedule, incremental extraction of X videos.
        for x in [10usize, 50, 100] {
            rows.push((
                format!("VE-lazy (X={x})"),
                run_averaged(&profile, dataset, |cfg| {
                    with_system(cfg, |s| {
                        s.with_strategy(SchedulerStrategy::VePartial)
                            .with_extra_candidates(x)
                    })
                }),
            ));
        }
        // VE-full.
        rows.push((
            "VE-full".to_string(),
            run_averaged(&profile, dataset, |cfg| {
                with_system(cfg, |s| {
                    s.with_strategy(SchedulerStrategy::VeFull)
                        .with_extra_candidates(0)
                })
            }),
        ));

        for (name, outcome) in rows {
            print_row(
                &[
                    name,
                    format!("{:.3}", outcome.final_f1),
                    format!("{:.0} s", outcome.cumulative_visible_latency),
                    format!(
                        "{:.2} s",
                        outcome.cumulative_visible_latency / profile.iterations as f64
                    ),
                ],
                &widths,
            );
        }
        println!();
    }
}
