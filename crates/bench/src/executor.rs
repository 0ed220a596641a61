//! Deterministic parallel job execution for the benchmark harness.
//!
//! Every point of the paper's evaluation grid — one (server backend,
//! inactive load, request rate) tuple — is a fully independent
//! simulation world, so the sweep is embarrassingly parallel. This
//! module fans jobs out over a small scoped worker pool and hands the
//! results back **in input order**, so callers that merge in canonical
//! key order produce byte-identical output at any worker count.
//!
//! Worker count resolution (first hit wins):
//!
//! 1. an explicit `--jobs N` CLI value,
//! 2. the `BENCH_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `jobs = 1` is the escape hatch: the items run serially on the caller
//! thread, exactly as the pre-executor harness did.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The environment variable consulted when no `--jobs` flag is given.
pub const JOBS_ENV: &str = "BENCH_JOBS";

/// Resolves the worker count: CLI flag, then [`JOBS_ENV`], then the
/// machine's available parallelism. Always at least 1. A [`JOBS_ENV`]
/// that is set, not empty and not a number is a usage error: it is
/// named, and the process exits 2 (see [`crate::flag_value`]).
pub fn effective_jobs(cli: Option<usize>) -> usize {
    if let Some(n) = cli {
        return n.max(1);
    }
    if let Some(v) = std::env::var_os(JOBS_ENV).filter(|v| !v.is_empty()) {
        return crate::flag_value::<usize>(JOBS_ENV, Some(v.to_string_lossy().trim())).max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over every item on up to `jobs` worker threads and returns
/// the results **in item order**, independent of completion order.
///
/// Scheduling is a shared atomic cursor: workers claim the next
/// unclaimed index, so long and short jobs interleave without static
/// partitioning skew. With `jobs <= 1` (or a single item) everything
/// runs inline on the caller thread — no pool, no locks — which is the
/// byte-identical serial path.
///
/// A panic in any job propagates to the caller after the scope joins,
/// matching the serial path's fail-fast behaviour.
pub fn run_jobs<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let gathered: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    let workers = jobs.min(items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                gathered
                    .lock()
                    .expect("invariant: a poisoned lock means a job already panicked")
                    .extend(local);
            });
        }
    });
    let mut out = gathered
        .into_inner()
        .expect("invariant: all workers joined before the scope returned");
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        // Uneven work so completion order differs from input order.
        let f = |&x: &u64| {
            let mut acc = x;
            for _ in 0..((x % 7) * 1000) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        let serial = run_jobs(1, &items, f);
        for jobs in [2, 4, 16, 200] {
            let parallel = run_jobs(jobs, &items, f);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(run_jobs(8, &none, |&x| x).is_empty());
        assert_eq!(run_jobs(8, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn cli_flag_wins_and_floors_at_one() {
        assert_eq!(effective_jobs(Some(3)), 3);
        assert_eq!(effective_jobs(Some(0)), 1);
        // No CLI value: whatever the fallback chain yields, it is >= 1.
        assert!(effective_jobs(None) >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_jobs(4, &[1u32, 2, 3, 4, 5, 6], |&x| {
                assert!(x != 4, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }
}
