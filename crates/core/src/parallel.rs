//! Parallel experiment sweeps: a campaign's independent curves fanned
//! out over the available cores with deterministic result ordering.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` in parallel on `threads` workers (`0` = one
/// per available core) — the calling thread and `threads - 1` scoped
/// ones, so `f` may borrow from the environment — preserving input
/// order in the output, which is identical for every thread count; the
/// sweep determinism tests rely on that.
///
/// # Panics
///
/// If `f` panics on any item, the first panic is re-raised on the
/// calling thread with the item index and the original message attached
/// (other workers stop taking new work).
pub fn parallel_map_with_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with_state(items, threads, || (), |(), item| f(item))
}

/// [`parallel_map_with_threads`] with per-worker state: each worker
/// starts from `init()` and lends it to every `f` call it makes, in the
/// order it makes them, dropping it when the work runs out. Which items
/// share a worker depends on timing, so the state may make work cheaper
/// but must never change a result.
pub(crate) fn parallel_map_with_state<T, R, S, I, F>(
    items: Vec<T>,
    threads: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        threads
    }
    .min(items.len().max(1));
    let expected = items.len();
    let work: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(expected));
    // Worker panics are caught (never raised while a lock is held, so
    // the mutexes cannot be poisoned); the first one is recorded here
    // and re-raised with context after the scope joins.
    let failed = AtomicBool::new(false);
    let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let worker = || {
        let mut state = init();
        loop {
            if failed.load(Ordering::Relaxed) {
                break; // a sibling already panicked; stop early
            }
            let next = work.lock().expect("work queue lock").pop();
            let Some((idx, item)) = next else { break };
            match catch_unwind(AssertUnwindSafe(|| f(&mut state, item))) {
                Ok(out) => results.lock().expect("results lock").push((idx, out)),
                Err(payload) => {
                    failed.store(true, Ordering::Relaxed);
                    let mut slot = first_panic.lock().expect("panic slot lock");
                    if slot.is_none() {
                        *slot = Some((idx, payload));
                    }
                    break;
                }
            }
        }
    };
    // The caller is the last worker: one thread asks for no spawn at
    // all, and nobody sits parked in a join while the others work.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });
    if let Some((idx, payload)) = first_panic.into_inner().expect("panic slot lock") {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        panic!("parallel_map_with_threads: worker panicked on item {idx}: {msg}");
    }
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(idx, _)| *idx);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map_with_threads((0..100).collect(), 0, |x: i32| x * x);
        let expect: Vec<i32> = (0..100).map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn borrows_environment() {
        let offset = 7;
        let out = parallel_map_with_threads(vec![1, 2, 3], 0, |x: i32| x + offset);
        assert_eq!(out, vec![8, 9, 10]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map_with_threads(Vec::<i32>::new(), 0, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let one = parallel_map_with_threads((0..64).collect(), 1, |x: u64| x.pow(3));
        let many = parallel_map_with_threads((0..64).collect(), 8, |x: u64| x.pow(3));
        assert_eq!(one, many);
    }

    #[test]
    fn one_thread_is_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = parallel_map_with_threads(vec![(); 4], 1, |()| std::thread::current().id());
        assert_eq!(ran_on, [caller; 4]);
    }

    #[test]
    fn worker_panic_propagates_with_context() {
        // One thread: the panicking worker is the caller itself.
        for threads in [1, 2] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                parallel_map_with_threads((0..8).collect(), threads, |x: i32| {
                    assert!(x != 5, "item five is cursed");
                    x
                })
            }))
            .expect_err("must propagate the worker panic");
            let msg = caught
                .downcast_ref::<String>()
                .cloned()
                .expect("string payload");
            assert!(msg.contains("worker panicked on item 5"), "{msg}");
            assert!(msg.contains("item five is cursed"), "{msg}");
        }
    }
}
