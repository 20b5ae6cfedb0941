//! Deterministic parallel grid runner for the experiment binaries.
//!
//! Every figure or table iterates a grid of independent simulation
//! cells — (workload × scheduler config), (bucket count × variant), and so
//! on. Each cell builds its own [`simt_core::Gpu`], so cells share nothing
//! and can run on a thread pool. Results are reassembled in **submission
//! order**, which makes the rendered tables and CSV byte-identical to a
//! serial run at any thread count.
//!
//! The worker count is `--jobs <n>` (parsed by [`crate::Opts::parse_with`])
//! or else [`std::thread::available_parallelism`], resolved once per
//! process.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolved worker count; 0 means "not yet resolved".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count (the `--jobs` flag; also used by tests).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The worker count grids run at (resolving it on first use).
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism().map_or(1, usize::from);
            JOBS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Map `f` over `items` on the configured thread pool; `f` receives
/// `(index, &item)`. Results come back in input order regardless of the
/// worker count or completion order.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(jobs(), items, f)
}

/// [`parallel_map`] at an explicit worker count (determinism tests compare
/// 1/2/8-thread output directly).
///
/// # Panics
///
/// Propagates a panic from any cell (matching the serial behavior of the
/// `.expect("run")` idiom the binaries use).
pub fn parallel_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                done.lock().expect("grid result sink").push((i, r));
            });
        }
    });
    let mut v = done.into_inner().expect("grid result sink");
    assert_eq!(v.len(), n, "every cell reports exactly once");
    v.sort_unstable_by_key(|&(i, _)| i);
    v.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map_with(1, &items, |i, &x| i * 1000 + x * x);
        for workers in [2, 3, 8, 64] {
            let par = parallel_map_with(workers, &items, |i, &x| i * 1000 + x * x);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_with(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map_with(8, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn set_jobs_floors_at_one() {
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(4);
        assert_eq!(jobs(), 4);
    }
}
