//! Computed-time benchmark of the VOCALExplore `Explore` loop.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lazy-deer --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client thread plays a user with zero think time against the Table-1
//! API (see `session.rs`). A run pools several sessions whose seeds derive
//! from `--seed`, keeps going until `--seconds` have passed and enough calls
//! were measured for every reported percentile, then re-runs sessions to
//! check determinism. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records a span per call and reports the per-layer metrics derived from
//! them, written out to `perfbench/out/spans-<workload>.json`. The last
//! stdout line is the JSON result; the process exits non-zero when a
//! correctness check fails.

mod metrics;
mod session;
mod stats;
mod trace;

use session::{run_session, session_seed, SessionOut, SessionSpec, Shape, Workload, WORKLOADS};
use std::time::{Duration, Instant};
use trace::Tracer;
use ve_sched::Executor;

/// Sessions every run measures at least; the deterministic metrics are
/// means over exactly these, so they repeat exactly for a seed.
const MIN_SESSIONS: usize = 10;
/// Calls a traced run must measure so that ten lie beyond each per-layer
/// p99.
const P99_SAMPLES: usize = 1000;
/// Sessions repeated with observability off and untraced in a traced run,
/// for the overhead ratios and their noise.
const OVERHEAD_PAIRS: usize = 3;
/// Measurement stops here even when short of samples (the percentile
/// helper then refuses and the run fails), keeping the run bounded.
const HARD_CAP: Duration = Duration::from_secs(140);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one run measured.
pub struct Run {
    pub workload: Workload,
    pub sessions: Vec<SessionOut>,
    pub tracer: Tracer,
    /// Observability on over off, per paired session (traced runs).
    pub obs_ratios: Vec<f64>,
    /// Traced over untraced session time, per paired session (traced runs).
    pub trace_ratios: Vec<f64>,
    pub violations: Vec<String>,
}

impl Run {
    /// The sessions the deterministic metrics are taken over.
    pub fn measured(&self) -> &[SessionOut] {
        &self.sessions[..MIN_SESSIONS.min(self.sessions.len())]
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = measure(&args);
    let report = if args.trace {
        metrics::per_layer(&run)
    } else {
        metrics::end_to_end(&run)
    };
    let metrics = match report {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}.json", run.workload.name));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::spans_json(run.tracer.spans())));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            run.tracer.spans().len(),
            path.display()
        );
    }
    let attempted: u64 = run.sessions.iter().map(SessionOut::attempted_ops).sum();
    let failed: u64 = run.sessions.iter().map(SessionOut::failed_ops).sum();
    for v in &run.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    let correct = run.violations.is_empty();
    for m in &metrics {
        let spec = m.spec;
        println!(
            "{:<38} {:>20} {:<9} n={:<8} {} is better; {}",
            spec.name, m.value, spec.unit, m.samples, spec.better, spec.note
        );
    }
    println!(
        "{}",
        metrics::result_json(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Runs the measured sessions (with the overhead pairs of a traced run),
/// then the determinism repeat, and collects every failed check.
fn measure(args: &Args) -> Run {
    let wl = args.workload;
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2);
    let executor = (wl.shape == Shape::Eager).then(|| Executor::new(threads));
    let spec = |index: usize, compute_threads: usize, observability: bool| SessionSpec {
        workload: wl,
        seed: session_seed(args.seed, index as u64),
        index: index as u32,
        compute_threads,
        observability,
        executor: executor.as_ref(),
    };
    let mut tracer = Tracer::new(args.trace);
    let mut untraced = Tracer::new(false);
    let mut sessions: Vec<SessionOut> = Vec::new();
    // Traced runs pair each of the first sessions with untraced
    // observability-on and -off repeats of the same seed, run right after
    // it so that drift in machine speed cancels, and alternating which of
    // the two goes first.
    let mut pairs: Vec<(SessionOut, SessionOut)> = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    loop {
        let i = sessions.len();
        sessions.push(run_session(&spec(i, threads, true), &mut tracer));
        if args.trace && i < OVERHEAD_PAIRS {
            let on_first = i.is_multiple_of(2);
            let first = run_session(&spec(i, threads, on_first), &mut untraced);
            let second = run_session(&spec(i, threads, !on_first), &mut untraced);
            pairs.push(if on_first {
                (first, second)
            } else {
                (second, first)
            });
        }
        let elapsed = started.elapsed();
        // `predict_batch` is the rarest call with a per-layer p99.
        let samples_ok =
            !args.trace || metrics::span_count(&tracer, "predict_batch") >= P99_SAMPLES;
        let done = sessions.len() >= MIN_SESSIONS && samples_ok && elapsed >= budget;
        if done || elapsed >= HARD_CAP {
            break;
        }
    }
    eprintln!(
        "perfbench: {} {} sessions in {:.1} s",
        sessions.len(),
        wl.name,
        started.elapsed().as_secs_f64()
    );

    let mut violations: Vec<String> = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        violations.extend(s.violations.iter().map(|v| format!("session {i}: {v}")));
    }
    let mut same = |what: &str, reference: &SessionOut, other: &SessionOut| {
        if other.label_digest != reference.label_digest {
            violations.push(format!("label digest differs {what}"));
        }
        if other.final_macro_f1 != reference.final_macro_f1 {
            violations.push(format!("final macro F1 differs {what}"));
        }
    };

    // The same seed at one compute thread must label identically.
    let single = run_session(&spec(0, 1, true), &mut untraced);
    same("at compute_threads 1", &sessions[0], &single);

    // In the serial shape the untraced repeat calls `explore()`, so this
    // also proves the traced decomposition equivalent to the call users
    // make.
    let (mut obs_ratios, mut trace_ratios) = (Vec::new(), Vec::new());
    for ((on, off), traced) in pairs.iter().zip(&sessions) {
        same("between traced and untraced", traced, on);
        same("with observability off", on, off);
        obs_ratios.push(on.session_s / off.session_s);
        trace_ratios.push(traced.session_s / on.session_s);
    }
    if sessions.len() < MIN_SESSIONS {
        violations.push(format!(
            "only {} sessions fit in {} s",
            sessions.len(),
            HARD_CAP.as_secs()
        ));
    }
    Run {
        workload: wl,
        sessions,
        tracer,
        obs_ratios,
        trace_ratios,
        violations,
    }
}
