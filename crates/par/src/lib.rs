//! # equinox-par
//!
//! A std-only parallel runtime for the experiment pipelines: scoped
//! worker threads over per-worker work-stealing deques, with results
//! collected **by index** so every caller is deterministic regardless
//! of the thread count or the stealing schedule.
//!
//! The workspace deliberately has zero external dependencies (the
//! offline-green build), so this is the in-tree substitute for rayon's
//! `par_iter().map().collect()` shape, specialised to the coarse-grained
//! tasks the drivers actually run (per-figure jobs, per-design-point
//! evaluations, per-load simulations, whole training runs).
//!
//! ## Determinism contract
//!
//! [`parallel_map`] returns exactly `items.iter().map(f)` in input
//! order. Scheduling decides only *when* each task runs, never what it
//! computes or where its result lands; a task sees one owned item and
//! writes one result slot. Callers keep byte-identical artifacts at any
//! thread count as long as `f` itself is a pure function of its item.
//!
//! ## Sizing
//!
//! The worker count comes from, in priority order: a process-wide
//! override ([`set_thread_override`], used by tests and the determinism
//! golden), the `EQUINOX_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. A count of 1 short-circuits
//! to a serial in-order loop on the calling thread — exactly the
//! pre-parallel behavior. Each [`parallel_map`] call spawns its own
//! scoped workers (capped at the item count), so nested calls compose
//! without a shared-pool deadlock; nesting multiplies the worker bound,
//! which is fine for the two-level figure sweeps.
//!
//! ## Work stealing
//!
//! Items are dealt to per-worker deques in contiguous index blocks.
//! A worker drains its own deque front-to-back (ascending index, good
//! locality) and, when empty, steals from the *back* of the next
//! non-empty victim's deque, minimising contention with the victim's
//! own front-end pops. Tasks never enqueue new tasks, so a worker that
//! finds every deque empty can exit: no condvar parking needed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequent [`parallel_map`]
/// call in this process (`None` restores the environment-driven
/// default). Used by the determinism golden test to compare thread
/// counts within one process without mutating the environment.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count a [`parallel_map`] call will use before capping at
/// the item count: the [`set_thread_override`] value if set, else a
/// positive integer parsed from `EQUINOX_THREADS`, else
/// [`std::thread::available_parallelism`] (1 if unknown).
pub fn thread_count() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("EQUINOX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to [`thread_count`] workers, returning
/// the results in input order (see the module docs for the determinism
/// contract).
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once every worker has
/// stopped (the scoped join surfaces it).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(thread_count(), items, f)
}

/// [`parallel_map`] with an explicit worker bound, bypassing
/// [`thread_count`]. `threads <= 1` runs serially on the calling
/// thread in input order.
///
/// # Panics
///
/// Propagates panics from `f` like [`parallel_map`].
pub fn parallel_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = threads.min(n);

    // One owned slot per item and one result slot per index: a task is
    // "claimed" by taking the item out of its slot, and its result can
    // only land at the same index, which is what makes the collection
    // order-independent of the schedule.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    // Deal contiguous index blocks to the worker deques.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = n * w / workers;
            let hi = n * (w + 1) / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();

    std::thread::scope(|s| {
        for w in 0..workers {
            let (slots, results, deques, f) = (&slots, &results, &deques, &f);
            s.spawn(move || loop {
                // Own deque first (front: ascending index), then steal
                // from the back of the next victims in ring order.
                let mut job = deques[w].lock().expect("worker panicked").pop_front();
                if job.is_none() {
                    for off in 1..workers {
                        let v = (w + off) % workers;
                        job = deques[v].lock().expect("worker panicked").pop_back();
                        if job.is_some() {
                            break;
                        }
                    }
                }
                let Some(i) = job else { return };
                let item = slots[i]
                    .lock()
                    .expect("worker panicked")
                    .take()
                    .expect("every index is dealt exactly once");
                let r = f(item);
                *results[i].lock().expect("worker panicked") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every task ran to completion")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn matches_serial_map_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map_with(threads, items.clone(), |x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn uneven_tasks_are_stolen_and_still_ordered() {
        // Front-loaded heavy tasks force the later workers to steal.
        let items: Vec<usize> = (0..64).collect();
        let got = parallel_map_with(4, items, |i| {
            let spins = if i < 4 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            (i, acc)
        });
        for (idx, (i, _)) in got.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let out = parallel_map_with(8, (0..1000).collect::<Vec<u32>>(), |x| {
            ran.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(parallel_map_with(4, Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(parallel_map_with(4, vec![7u8], |x| x + 1), vec![8]);
    }

    #[test]
    fn override_takes_priority() {
        set_thread_override(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_override(None);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn nested_calls_compose() {
        let out = parallel_map_with(2, vec![0u64, 1, 2], |i| {
            parallel_map_with(2, (0..10u64).collect(), move |j| i * 100 + j)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![45, 1045, 2045]);
    }

    #[test]
    fn panic_in_task_propagates() {
        let r = std::panic::catch_unwind(|| {
            parallel_map_with(4, (0..16).collect::<Vec<u32>>(), |x| {
                assert!(x != 9, "boom");
                x
            })
        });
        assert!(r.is_err());
    }
}
