//! Data-parallel helpers for the compute hot paths.
//!
//! The acquisition kernels, batch inference, and cross-validation rounds are
//! embarrassingly parallel scans. This module provides a small
//! `par_chunks`-style API that fans such scans out across scoped worker
//! threads — the same worker-count knob the Task Scheduler's executor uses —
//! while guaranteeing **bit-identical results regardless of thread count**:
//! every helper computes per-item outputs independently (no reduction ever
//! crosses a chunk edge) and collects them in item order on the calling
//! thread.
//!
//! Setting the parallelism to 1 (`set_parallelism(1)`) therefore changes
//! scheduling, not output, and is the supported configuration for
//! single-threaded determinism audits.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The effective worker count data-parallel helpers will use.
pub fn parallelism() -> usize {
    match PARALLELISM.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Minimum number of items per chunk before fan-out is worthwhile; scans
/// smaller than `2 * MIN_CHUNK` run inline on the caller.
const MIN_CHUNK: usize = 256;

/// Chunk size for helpers whose per-element outputs are independent of chunk
/// boundaries ([`par_chunks_mut`], [`par_map`]): one chunk per worker, so a
/// scan costs at most `threads` thread spawns. Unlike [`chunk_size`] this may
/// vary with the configured parallelism — that is safe here because no
/// reduction crosses chunk edges, so results are identical regardless.
fn spread_chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1)).max(MIN_CHUNK)
}

/// Runs `f` over disjoint consecutive chunks of `out`, passing each chunk its
/// starting index. Chunks run in parallel when the scan is large enough and
/// more than one worker is configured; output is deterministic either way
/// because every invocation writes only its own chunk.
pub fn par_chunks_mut<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = out.len();
    let threads = parallelism();
    if threads <= 1 || n < 2 * MIN_CHUNK {
        f(0, out);
        return;
    }
    let chunk = spread_chunk_size(n, threads);
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

/// Maps `f` over `0..n`, collecting results in index order. Parallel for
/// large `n`, inline otherwise; the result vector is identical in both cases.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = parallelism();
    if threads <= 1 || n < 2 * MIN_CHUNK {
        return (0..n).map(f).collect();
    }
    let chunk = spread_chunk_size(n, threads);
    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(n)))
        .collect();
    let mut pieces: Vec<Vec<R>> = Vec::with_capacity(bounds.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(s, e)| {
                let f = &f;
                scope.spawn(move || (s..e).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            // ve-lint: allow(panic-in-task-path) -- join only fails if a pool worker already panicked; re-raising preserves the original panic
            pieces.push(h.join().expect("parallel map worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for p in pieces {
        out.extend(p);
    }
    out
}

/// Maps `f` over `0..n` with **one task per index**, collecting results in
/// index order. Unlike [`par_map`] this fans out even for tiny `n` — it is
/// meant for a handful of coarse-grained tasks where each item is worth a
/// thread by itself: the (extractor, fold) models of `ve_ml`'s
/// cross-validation round and the fixed-size chunks of `ve_ml`'s chunked
/// argmax scans.
///
/// At most `parallelism()` workers run, the calling thread among them, so a
/// fan-out spawns `threads − 1` threads. Workers take the next index from a
/// shared counter, so a slow item never leaves a worker idle behind a fixed
/// share. Results are reassembled in index order, so output is independent
/// of scheduling.
pub fn par_map_tasks<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = parallelism().min(n);
    if threads <= 1 {
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
    fn par_map_matches_sequential() {
        let n = 10_000;
        let expected: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(31)).collect();
        let got = par_map(n, |i| (i as u64).wrapping_mul(31));
        assert_eq!(got, expected);
    }

    #[test]
    fn par_chunks_mut_writes_every_slot() {
        let mut out = vec![0usize; 5_000];
        par_chunks_mut(&mut out, |start, piece| {
            for (k, v) in piece.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Per-element outputs are computed independently, so the collected
        // vector must be bit-identical for 1 vs many threads even for
        // floating-point work.
        let n = 40_000;
        let run = || par_map(n, |i| (i as f32).sin());
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
        let out = par_map(10, |i| i * 2);
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
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
            par_map_tasks(10, move |i| {
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
        let ids = par_map_tasks(2, |_| {
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
            par_map_tasks(23, |i| {
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
        assert_eq!(par_map_tasks(0, |i| i), Vec::<usize>::new());
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
