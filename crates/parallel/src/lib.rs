//! # pinpoint-parallel
//!
//! Scoped-thread fan-out for independent jobs, shared by every layer that
//! fans work out: the figure sweeps (Figs. 5–7 and the extension
//! experiments) run many fully independent simulated training profiles,
//! and the trace store decodes independent chunks concurrently. This crate
//! spreads such job lists across OS threads with [`std::thread::scope`] —
//! no external thread-pool dependency — while keeping results
//! **deterministic**: output order is always input order, and each job's
//! work is unaffected by which worker ran it, so a sweep (or a chunk
//! decode) produces bit-identical results at any thread count.
//!
//! Downstream code usually reaches this crate through the
//! `pinpoint_core::parallel` re-export.
//!
//! Thread-count resolution, in priority order:
//!
//! 1. an explicit count passed by the caller (`--threads N` on the CLIs
//!    lands here via [`set_global_threads`]);
//! 2. the `PINPOINT_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide thread-count override; 0 means "not set".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets a process-wide thread-count override (the CLI `--threads` flag).
///
/// Passing 0 clears the override.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Resolves the worker-thread count for fan-out helpers.
///
/// Returns the [`set_global_threads`] override if set, else a positive
/// `PINPOINT_THREADS` value, else the machine's available parallelism
/// (falling back to 1). Always at least 1.
pub fn configured_threads() -> usize {
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Ok(v) = std::env::var("PINPOINT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over every item on up to `threads` scoped worker threads and
/// returns the results **in input order**.
///
/// Jobs are handed out through a shared counter, so long jobs don't stall
/// the queue behind them; result slots are fixed per input index, so the
/// output is identical for every `threads` value. `threads <= 1` (or a
/// single item) degrades to a plain sequential map with no thread spawn.
///
/// # Panics
///
/// A panicking job propagates the panic to the caller (via scope join).
pub fn map_ordered<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = jobs[i].lock().unwrap().take().expect("job taken once");
                let result = f(item);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

/// Fallible [`map_ordered`]: runs every job, then returns the first error
/// **in input order** (not completion order), so failures are as
/// deterministic as successes.
///
/// # Errors
///
/// Returns the error of the earliest-indexed failing job.
pub fn try_map_ordered<T, R, E, F>(items: Vec<T>, threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> Result<R, E> + Sync,
{
    map_ordered(items, threads, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_is_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = map_ordered(items.clone(), threads, |x| {
                // stagger finish times so completion order differs from
                // input order on real multi-core hosts
                if x % 3 == 0 {
                    std::thread::yield_now();
                }
                x * x
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ordered(empty, 4, |x| x).is_empty());
        assert_eq!(map_ordered(vec![7], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn try_map_reports_the_earliest_error() {
        let items: Vec<u32> = (0..20).collect();
        for threads in [1, 4] {
            let err = try_map_ordered(
                items.clone(),
                threads,
                |x| {
                    if x >= 5 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            )
            .unwrap_err();
            assert_eq!(err, 5, "threads={threads}");
        }
        let ok = try_map_ordered(items, 4, Ok::<u32, ()>).unwrap();
        assert_eq!(ok.len(), 20);
    }

    #[test]
    fn configured_threads_respects_the_global_override() {
        set_global_threads(3);
        assert_eq!(configured_threads(), 3);
        set_global_threads(0);
        assert!(configured_threads() >= 1);
    }
}
