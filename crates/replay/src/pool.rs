//! A minimal scoped worker pool: the one pool behind the pipeline's alarm
//! replay and the replay farm.
//!
//! The pool owns no queue and no policy: callers hand it a *source* — a
//! closure that either produces the next runnable task (possibly blocking
//! until one exists) or reports that the work is drained — and the pool
//! simply keeps `workers` threads pulling from it. Scheduling decisions
//! (span order, fleet fairness) live entirely in the source, which keeps
//! this primitive reusable across very different consumers: the
//! pipeline's alarm phase feeds it checkpoint groups through an atomic
//! cursor, and the farm feeds it a round-robin scheduler behind a condvar.

/// A unit of pooled work.
pub type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Runs `workers` threads, each repeatedly pulling a task from `next` and
/// executing it, until `next` returns `None`. Returns once every worker has
/// observed the drain and every pulled task has finished.
///
/// `next` is shared by all workers concurrently, so it must serialize its
/// own state (atomics, a mutex). It may block until a task becomes
/// runnable; a `None` is permanent for the worker that sees it, so the
/// source must only report drained when no further tasks will ever appear.
/// With `workers <= 1` the tasks run inline on the calling thread.
pub fn drain<'env, F>(workers: usize, next: &F)
where
    F: Fn() -> Option<Task<'env>> + Sync,
{
    if workers <= 1 {
        while let Some(task) = next() {
            task();
        }
        return;
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || {
                while let Some(task) = next() {
                    task();
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn drains_every_task_once() {
        for workers in [1, 2, 5] {
            let next_idx = AtomicUsize::new(0);
            let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            let hits_ref = &hits;
            drain(workers, &|| {
                let k = next_idx.fetch_add(1, Ordering::Relaxed);
                (k < hits_ref.len()).then(|| {
                    Box::new(move || {
                        hits_ref[k].fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "workers={workers}");
        }
    }

    #[test]
    fn inline_mode_preserves_order() {
        let order = Mutex::new(Vec::new());
        let next_idx = AtomicUsize::new(0);
        let order_ref = &order;
        drain(1, &|| {
            let k = next_idx.fetch_add(1, Ordering::Relaxed);
            (k < 4).then(|| Box::new(move || order_ref.lock().unwrap().push(k)) as Task<'_>)
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }
}
