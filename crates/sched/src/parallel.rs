//! Data-parallel helpers for the compute hot paths.
//!
//! The acquisition kernels, batch inference, and cross-validation rounds are
//! embarrassingly parallel scans. This module provides two entry points that
//! fan such scans out across scoped worker threads — the same worker-count
//! knob the Task Scheduler's executor uses: [`par_chunks_mut`] for a scan
//! writing one output slot per item, and [`par_map_tasks`] for a few coarse
//! tasks.
//!
//! **One rule decides inline against fan-out.** Every call states its total
//! work in multiply-adds, and it fans out only when more than one worker is
//! configured and that work reaches [`MIN_PARALLEL_WORK`]. Callers estimate
//! their work; none of them decides.
//!
//! Results are **bit-identical regardless of thread count**: every helper
//! computes per-item outputs independently (no reduction ever crosses a
//! chunk edge) and collects them in item order. Setting the parallelism to
//! 1 (`set_parallelism(1)`) therefore changes scheduling, not output, and
//! is the supported configuration for single-threaded determinism audits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Configured worker count; 0 means "use the host's available parallelism".
static PARALLELISM: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of worker threads data-parallel helpers may use.
/// `0` restores the default (host parallelism). Thread count never affects
/// results, only wall-clock time.
pub fn set_parallelism(threads: usize) {
    PARALLELISM.store(threads, Ordering::Relaxed);
}

/// Serializes test code that mutates the process-global parallelism setting.
/// Tests (in this crate or downstream crates sharing a test binary) that call
/// [`set_parallelism`] must hold this guard for their whole body, otherwise
/// concurrently running tests race on the global and assert flakily.
#[doc(hidden)]
pub fn test_parallelism_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The host's available parallelism, read on first use. Asking the OS
/// again on every helper call is not free: on Linux
/// `std::thread::available_parallelism` reads cgroup files each time.
static HOST_PARALLELISM: OnceLock<usize> = OnceLock::new();

/// The effective worker count data-parallel helpers will use: the
/// configured count, or the host's (read once) while it is 0.
pub fn parallelism() -> usize {
    match PARALLELISM.load(Ordering::Relaxed) {
        0 => *HOST_PARALLELISM.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }),
        n => n,
    }
}

/// Multiply-adds a call must reach before it fans out; below it the call
/// runs inline, since opening a thread scope would cost more than it saves.
/// The constant sits in the break-even band measured on a shared 2-vCPU
/// host (release build; medians of 301 alternating runs, inline against two
/// threads, ranges over five probe runs):
///
/// * one-vs-all scan over 64-dim rows: at 2¹⁹ multiply-adds 90–145 µs
///   inline against 107–147 µs fanned; at 2²⁰ 189–304 against 186–247 µs;
///   at 2²¹ 437–592 against 347–547 µs (fan-out won four runs of five);
/// * `TrainedModel::predict_proba_rows` (rows × dim × classes): at
///   600 × 64 × 20 (768k) 143–209 µs inline against 119–267 µs fanned
///   (each side won some runs); at 2,000 × 64 × 9 (1.15M) 285–402 against
///   231–404 µs and at 512 × 512 × 4 (2²⁰) 182–295 against 166–251 µs
///   (fan-out won four of five).
///
/// A 20k-value argmax (one compare per value) took 27–28 µs as a plain
/// scan against 41–48 µs split into five chunks over two threads.
pub const MIN_PARALLEL_WORK: usize = 1 << 20;

/// Whether a call costing `work` multiply-adds in total fans out.
fn fans_out(work: usize) -> bool {
    parallelism() > 1 && work >= MIN_PARALLEL_WORK
}

/// Runs `f` over disjoint consecutive chunks of `out`, passing each chunk its
/// starting index. `work` is the call's total multiply-adds: below
/// [`MIN_PARALLEL_WORK`] (or with one worker) `f` runs once, inline, over
/// all of `out`; otherwise `out` splits into one chunk per worker, each on
/// its own thread. Output is identical either way because every invocation
/// writes only its own chunk.
pub fn par_chunks_mut<T, F>(out: &mut [T], work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() || !fans_out(work) {
        f(0, out);
        return;
    }
    let chunk = out.len().div_ceil(parallelism());
    std::thread::scope(|scope| {
        let mut offset = 0;
        for piece in out.chunks_mut(chunk) {
            let start = offset;
            offset += piece.len();
            let f = &f;
            scope.spawn(move || f(start, piece));
        }
    });
}

/// Maps `f` over `0..n` with **one task per index**, collecting results in
/// index order. It is meant for a handful of coarse-grained tasks, such as
/// the (extractor, fold) models of `ve_ml`'s cross-validation round. `work`
/// is the call's total multiply-adds: below [`MIN_PARALLEL_WORK`] (or with
/// one worker) every task runs inline, in index order.
///
/// Otherwise at most `parallelism()` workers run, the calling thread among
/// them, so a fan-out spawns `threads − 1` threads. Workers take the next
/// index from a shared counter, so a slow item never leaves a worker idle
/// behind a fixed share. Results are reassembled in index order, so output
/// is independent of scheduling.
pub fn par_map_tasks<R, F>(n: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = parallelism().min(n);
    if threads <= 1 || !fans_out(work) {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut place = |done: Vec<(usize, R)>| {
            for (i, r) in done {
                slots[i] = Some(r);
            }
        };
        place(work());
        for h in handles {
            // ve-lint: allow(panic-in-task-path) -- join only fails if a pool worker already panicked; re-raising preserves the original panic
            place(h.join().expect("parallel task worker panicked"));
        }
    });
    // The shared counter hands out every index in 0..n exactly once, so
    // every slot is filled.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_starts_at_the_work_threshold() {
        let _guard = test_parallelism_guard();
        set_parallelism(4);
        assert!(!fans_out(MIN_PARALLEL_WORK - 1));
        assert!(fans_out(MIN_PARALLEL_WORK));
        assert!(
            fans_out(usize::MAX.saturating_mul(2)),
            "a saturated estimate fans out"
        );
        assert!(!fans_out(0));
        set_parallelism(1);
        assert!(!fans_out(usize::MAX), "one worker never fans out");
        set_parallelism(0);
    }

    #[test]
    fn par_chunks_mut_writes_every_slot() {
        let _guard = test_parallelism_guard();
        set_parallelism(4);
        for work in [0, MIN_PARALLEL_WORK] {
            let mut out = vec![0usize; 5_000];
            par_chunks_mut(&mut out, work, |start, piece| {
                for (k, v) in piece.iter_mut().enumerate() {
                    *v = start + k;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i), "work {work}");
        }
        set_parallelism(0);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Per-element outputs are computed independently, so the collected
        // vector must be bit-identical for 1 vs many threads even for
        // floating-point work.
        let run = || {
            let mut out = vec![0.0f32; 40_000];
            par_chunks_mut(&mut out, MIN_PARALLEL_WORK, |start, piece| {
                for (k, v) in piece.iter_mut().enumerate() {
                    *v = ((start + k) as f32).sin();
                }
            });
            out
        };
        let _guard = test_parallelism_guard();
        set_parallelism(1);
        let single = run();
        set_parallelism(8);
        let multi = run();
        set_parallelism(0);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&single), bits(&multi));
    }

    #[test]
    fn small_inputs_run_inline() {
        let _guard = test_parallelism_guard();
        set_parallelism(4);
        let caller = std::thread::current().id();
        let below = MIN_PARALLEL_WORK - 1;
        let mut ids = vec![None; 5_000];
        par_chunks_mut(&mut ids, below, |_, piece| {
            piece.fill(Some(std::thread::current().id()));
        });
        assert!(ids.iter().all(|&id| id == Some(caller)));
        let ids = par_map_tasks(10, below, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        set_parallelism(0);
    }

    #[test]
    fn par_map_tasks_respects_worker_cap_and_order() {
        let _guard = test_parallelism_guard();
        set_parallelism(2);
        let peak = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let live = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let out = {
            let (peak, live) = (peak.clone(), live.clone());
            par_map_tasks(10, MIN_PARALLEL_WORK, move |i| {
                let now = live.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                peak.fetch_max(now, std::sync::atomic::Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                live.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                i * 3
            })
        };
        set_parallelism(0);
        assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
        assert!(
            peak.load(std::sync::atomic::Ordering::SeqCst) <= 2,
            "configured cap of 2 workers exceeded: {}",
            peak.load(std::sync::atomic::Ordering::SeqCst)
        );
    }

    #[test]
    fn par_map_tasks_runs_a_share_on_the_calling_thread() {
        // Two items that each wait (up to a timeout) for the other to start
        // must run on two threads at once; with a cap of two workers and one
        // spawned thread, the caller is one of them.
        let _guard = test_parallelism_guard();
        set_parallelism(2);
        let started = std::sync::Mutex::new(Vec::new());
        let ids = par_map_tasks(2, MIN_PARALLEL_WORK, |_| {
            let id = std::thread::current().id();
            started.lock().expect("test lock").push(id);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while started.lock().expect("test lock").len() < 2
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            id
        });
        set_parallelism(0);
        assert_ne!(ids[0], ids[1], "the two items must overlap");
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn par_map_tasks_is_identical_at_any_thread_count_under_uneven_work() {
        // Item costs vary, so the dynamic handout assigns indices to workers
        // differently from run to run; the output must not change.
        let run = || {
            par_map_tasks(23, MIN_PARALLEL_WORK, |i| {
                std::thread::sleep(std::time::Duration::from_micros((i as u64 * 7919) % 900));
                (i as f64).sqrt().to_bits()
            })
        };
        let _guard = test_parallelism_guard();
        set_parallelism(1);
        let single = run();
        for threads in [2, 3, 4, 8] {
            set_parallelism(threads);
            assert_eq!(run(), single, "{threads} threads");
        }
        set_parallelism(0);
        assert_eq!(
            par_map_tasks(0, MIN_PARALLEL_WORK, |i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn host_parallelism_is_read_once_and_overridable() {
        let _guard = test_parallelism_guard();
        set_parallelism(0);
        let host = parallelism();
        assert_eq!(HOST_PARALLELISM.get(), Some(&host), "cached on first use");
        let fresh = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(host, fresh);
        set_parallelism(3);
        assert_eq!(parallelism(), 3, "an explicit setting overrides the host");
        set_parallelism(0);
        assert_eq!(parallelism(), host);
    }

    #[test]
    fn parallelism_round_trip() {
        let _guard = test_parallelism_guard();
        set_parallelism(3);
        assert_eq!(parallelism(), 3);
        set_parallelism(0);
        assert!(parallelism() >= 1);
    }
}
