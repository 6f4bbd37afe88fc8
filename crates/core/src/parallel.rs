//! A minimal deterministic worker pool (std::thread only, no external
//! dependencies).
//!
//! [`map`] fans a slice of independent work items out over N OS threads
//! and returns the outputs *in input order*, so callers see exactly what a
//! serial `iter().map().collect()` would have produced — the scheduling
//! nondeterminism stays internal. [`Lab::run_batch`](crate::Lab::run_batch)
//! builds on this, and the ablation exhibits use it directly for sweeps
//! whose knobs live outside [`Experiment`](crate::Experiment) (prefetch
//! distance, arbitration policy, buffer depth, victim buffers).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Applies `f` to every item on up to `jobs` worker threads and returns the
/// results in input order. `f` receives `(worker_index, item)`.
///
/// With `jobs <= 1` (or one item) everything runs inline on the caller's
/// thread — no pool, no channels — so a single-job "parallel" run is
/// *literally* the serial path.
///
/// # Panics
///
/// Re-raises the first panic raised by `f` (scoped threads propagate on
/// join), matching serial behaviour.
pub fn map<T: Sync, U: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(usize, &T) -> U + Sync,
) -> Vec<U> {
    map_observed(items, jobs, f, |_, _| {})
}

/// [`map`] plus a completion observer: `observe(index, &result)` runs on the
/// *caller's* thread as each result arrives (in arrival order, which is
/// nondeterministic under parallelism). The returned vector is still in
/// input order.
///
/// This is the hook the checkpoint journal hangs off: results can be
/// persisted the moment they exist, instead of only after the whole batch —
/// exactly what makes a SIGTERM mid-batch survivable.
///
/// # Panics
///
/// As [`map`]; additionally re-raises panics from `observe`.
pub fn map_observed<T: Sync, U: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(usize, &T) -> U + Sync,
    mut observe: impl FnMut(usize, &U),
) -> Vec<U> {
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let u = f(0, item);
                observe(i, &u);
                u
            })
            .collect();
    }
    let next = &AtomicUsize::new(0);
    let f = &f;
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    let mut results: Vec<(usize, U)> = std::thread::scope(|scope| {
        for worker in 0..jobs {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // A failed send means the receiver side panicked; the scope
                // is about to propagate that anyway.
                let _ = tx.send((i, f(worker, &items[i])));
            });
        }
        drop(tx);
        rx.into_iter()
            .map(|(i, u)| {
                observe(i, &u);
                (i, u)
            })
            .collect()
    });
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, u)| u).collect()
}

type PoolJob = Box<dyn FnOnce(usize) + Send + 'static>;

/// A persistent worker pool for long-lived callers (the serve daemon),
/// complementing the scoped, batch-shaped [`map`]/[`map_observed`].
///
/// Jobs are closures pulled from one shared queue by `jobs` OS threads
/// (work-stealing in the only sense that matters here: an idle worker
/// takes the next job regardless of who submitted it). Each job receives
/// its worker index. Dropping the pool closes the queue and joins every
/// worker after in-flight jobs finish; a panicking job is caught and
/// dropped so one bad cell cannot take a worker (or the daemon) down.
pub struct Pool {
    tx: Option<mpsc::Sender<PoolJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Pool {
        let jobs = jobs.max(1);
        let (tx, rx) = mpsc::channel::<PoolJob>();
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let workers = (0..jobs)
            .map(|worker| {
                let rx = std::sync::Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Holding the receiver lock only while popping keeps the
                    // queue available to the other workers during the job.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => return,
                    };
                    match job {
                        Ok(job) => {
                            let _ = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| job(worker)),
                            );
                        }
                        Err(_) => return, // queue closed: pool dropped
                    }
                })
            })
            .collect();
        Pool { tx: Some(tx), workers }
    }

    /// Queues one job; an idle worker picks it up in submission order.
    pub fn submit(&self, job: impl FnOnce(usize) + Send + 'static) {
        if let Some(tx) = &self.tx {
            // A closed queue means the pool is mid-drop; the job is dropped,
            // which callers observe through their own completion signals.
            let _ = tx.send(Box::new(job));
        }
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map(&items, 8, |_, &x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let items = [1, 2, 3];
        let out = map(&items, 1, |worker, &x| {
            assert_eq!(worker, 0);
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = map(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = map(&items, 16, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out, items);
    }

    #[test]
    fn worker_indices_stay_in_range() {
        let items: Vec<u32> = (0..64).collect();
        let workers = map(&items, 4, |worker, _| worker);
        assert!(workers.iter().all(|&w| w < 4));
    }

    #[test]
    fn observer_sees_every_result_once_on_the_caller_thread() {
        let items: Vec<u64> = (0..64).collect();
        let caller = std::thread::current().id();
        let mut seen = vec![0u32; items.len()];
        let out = map_observed(
            &items,
            8,
            |_, &x| x + 1,
            |i, &u| {
                assert_eq!(std::thread::current().id(), caller);
                assert_eq!(u, items[i] + 1);
                seen[i] += 1;
            },
        );
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn observer_runs_inline_on_single_job() {
        let mut order = Vec::new();
        let _ = map_observed(&[10, 20, 30], 1, |_, &x| x, |i, _| order.push(i));
        assert_eq!(order, vec![0, 1, 2], "serial path observes in input order");
    }

    #[test]
    fn pool_runs_every_job_and_survives_panics() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let pool = Pool::new(4);
        assert_eq!(pool.jobs(), 4);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=64u64 {
            let sum = Arc::clone(&sum);
            pool.submit(move |_worker| {
                if i == 13 {
                    panic!("one bad job");
                }
                sum.fetch_add(i, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers after the queue drains
        let expected: u64 = (1..=64).sum::<u64>() - 13;
        assert_eq!(sum.load(Ordering::SeqCst), expected, "panicking job is isolated");
    }

    #[test]
    // The scope re-raises with its own message ("a scoped thread panicked"),
    // so we can only assert that the panic surfaces, not its payload.
    #[should_panic]
    fn worker_panics_propagate() {
        let items = [1, 2, 3, 4];
        let _ = map(&items, 2, |_, &x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
