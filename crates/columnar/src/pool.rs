//! Persistent work-stealing worker pool for morsel-driven execution.
//!
//! Before this module every parallel join spawned fresh scoped threads and
//! tore them down again — operator-at-a-time fan-out, paying thread spawn
//! and join latency per operator. The [`WorkerPool`] is the morsel-driven
//! replacement: a process-wide set of workers created **once** (sized by the
//! cgroup-aware [`crate::exec::default_parallelism`] probe, so
//! `S2RDF_THREADS` is honored), with one deque per worker, task stealing
//! between them, and graceful shutdown. Joins, pipelines and AQE re-splits
//! all submit batches of morsel-sized tasks to the same pool, so a query
//! touches the thread machinery zero times after startup — the same reason
//! Spark reuses executor JVMs across stages instead of forking per stage.
//!
//! Execution model of [`WorkerPool::run`]:
//!
//! * Tasks are distributed round-robin over the per-worker deques; each
//!   worker pops its own queue front-first and steals from the *back* of
//!   other queues when its own runs dry (classic work stealing — stolen
//!   tasks are the coldest ones).
//! * The **caller participates**: while its batch is in flight it executes
//!   queued tasks like any worker instead of blocking, so `run` makes
//!   progress even on a 1-core box, under pool shutdown, or when every
//!   worker is busy with another query's batch.
//! * Borrowed closures are safe: `run` does not return until every task of
//!   the batch has completed (a per-batch completion latch), so tasks may
//!   capture `&'env` references even though the worker threads outlive the
//!   call. Task panics are caught, the batch still drains, and the first
//!   panic payload is re-raised on the caller.
//! * A pool built with `workers <= 1` spawns **no threads** and runs every
//!   batch inline on the caller, in submission order — the exact serial
//!   execution `S2RDF_THREADS=1` promises.
//!
//! Always-on stats (plain relaxed atomics — reading them is one load each)
//! feed `Explain`/`--profile`: tasks executed, steals, the high-water queue
//! depth, and per-worker busy microseconds. When the metrics registry is
//! enabled they are mirrored as `columnar.pool.{workers,tasks,steals,
//! queue_depth}`.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use crate::{metric_counter, metric_gauge};

/// A lifetime-erased task. The `usize` argument is the executing worker's
/// slot (the caller helps under the last slot).
type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// One deque per worker slot (including the caller-helper slot).
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs pushed but not yet taken from any queue.
    pending: AtomicUsize,
    /// Pairs with `wake`: workers re-check `pending`/`shutdown` under this
    /// lock before parking, and pushers notify under it, so wakeups cannot
    /// be lost between the check and the wait.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    // Always-on stats.
    tasks: AtomicU64,
    steals: AtomicU64,
    max_queue_depth: AtomicU64,
    busy_micros: Vec<AtomicU64>,
}

impl Shared {
    /// Takes one job, preferring `home`'s queue front and stealing from the
    /// back of the others. Returns the job and whether it was stolen.
    fn take(&self, home: usize) -> Option<(Job, bool)> {
        if let Some(job) = self.queues[home].lock().unwrap().pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some((job, false));
        }
        let n = self.queues.len();
        for d in 1..n {
            let victim = (home + d) % n;
            if let Some(job) = self.queues[victim].lock().unwrap().pop_back() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Some((job, true));
            }
        }
        None
    }

    /// Runs one taken job under the busy/steal/task accounting.
    fn execute(&self, job: Job, slot: usize, stolen: bool) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        metric_counter!("columnar.pool.tasks").inc();
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
            metric_counter!("columnar.pool.steals").inc();
        }
        let started = Instant::now();
        job(slot);
        self.busy_micros[slot].fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
}

/// Completion latch for one [`WorkerPool::run`] batch.
struct Batch {
    remaining: AtomicUsize,
    done: Mutex<bool>,
    cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn task_finished(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.done.lock().unwrap();
            *done = true;
            self.cv.notify_all();
        }
    }
}

/// Sendable pointer to one task's result slot. Slots are disjoint per task
/// and the batch latch guarantees all writes complete before `run` reads
/// them back.
struct SendPtr<T>(*mut Option<T>);
unsafe impl<T: Send> Send for SendPtr<T> {}

/// Point-in-time snapshot of a pool's activity counters (monotonic except
/// `workers`; diff two snapshots to attribute activity to one query).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Cached parallelism the pool was built with — probed exactly once at
    /// construction, never re-probed on hot paths.
    pub workers: usize,
    /// Tasks executed (probe morsels, write chunks — one per `run` task).
    pub tasks: u64,
    /// Tasks taken from another worker's queue.
    pub steals: u64,
    /// High-water mark of any single queue's depth at push time.
    pub max_queue_depth: u64,
    /// Busy microseconds per worker slot; the last slot is the
    /// caller-helper.
    pub busy_micros: Vec<u64>,
}

impl PoolStats {
    /// Total busy time across all worker slots.
    pub fn total_busy_micros(&self) -> u64 {
        self.busy_micros.iter().sum()
    }
}

/// A persistent work-stealing thread pool. See the module docs for the
/// execution model.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Round-robin start offset so consecutive small batches spread across
    /// different queues.
    rr: AtomicUsize,
}

impl WorkerPool {
    /// Builds a pool with `workers` execution slots. `workers - 1` threads
    /// are spawned — the caller of [`WorkerPool::run`] is the remaining
    /// slot — so `workers <= 1` spawns nothing and executes inline.
    pub fn with_workers(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            busy_micros: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        });
        metric_gauge!("columnar.pool.workers").set(workers as u64);
        let handles = (0..workers.saturating_sub(1))
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("s2rdf-worker-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            handles: Mutex::new(handles),
            rr: AtomicUsize::new(0),
        }
    }

    /// The cached parallelism (number of execution slots). This is the
    /// once-probed value hot paths should use instead of re-calling
    /// [`crate::exec::default_parallelism`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
            busy_micros: self
                .shared
                .busy_micros
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Executes every task and returns their results in task order. Tasks
    /// may borrow from the caller's stack: `run` only returns once the
    /// whole batch has completed. If any task panicked, the first payload
    /// is re-raised here after the batch drains.
    pub fn run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce(usize) -> T + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let helper = self.workers - 1;
        // Serial pool, trivial batch, or post-shutdown: run inline in
        // submission order (still counted as pool tasks).
        if self.workers <= 1 || n == 1 || self.shared.shutdown.load(Ordering::Acquire) {
            return tasks
                .into_iter()
                .map(|f| {
                    self.shared.tasks.fetch_add(1, Ordering::Relaxed);
                    metric_counter!("columnar.pool.tasks").inc();
                    let started = Instant::now();
                    let out = f(helper);
                    self.shared.busy_micros[helper]
                        .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
                    out
                })
                .collect();
        }

        let batch = Arc::new(Batch {
            remaining: AtomicUsize::new(n),
            done: Mutex::new(false),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();

        // Wrap each task: run under catch_unwind, write its disjoint result
        // slot, tick the latch. Then erase the borrow lifetime — sound
        // because this function blocks on the latch before touching
        // `results` or returning.
        let jobs: Vec<Job> = tasks
            .into_iter()
            .zip(results.iter_mut())
            .map(|(f, slot)| {
                let slot = SendPtr(slot as *mut Option<T>);
                let batch = Arc::clone(&batch);
                let job: Box<dyn FnOnce(usize) + Send + 'env> = Box::new(move |wid| {
                    let slot = slot;
                    match panic::catch_unwind(AssertUnwindSafe(|| f(wid))) {
                        Ok(v) => unsafe { *slot.0 = Some(v) },
                        Err(p) => {
                            let mut first = batch.panic.lock().unwrap();
                            if first.is_none() {
                                *first = Some(p);
                            }
                        }
                    }
                    batch.task_finished();
                });
                // SAFETY: only the trait object's lifetime bound changes;
                // the latch wait below outlives every job execution.
                unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce(usize) + Send + 'env>,
                        Box<dyn FnOnce(usize) + Send + 'static>,
                    >(job)
                }
            })
            .collect();

        // Distribute round-robin, then wake everyone. `pending` is raised
        // *before* each push so it is always an upper bound on queued jobs
        // and the matching decrement in `take` can never underflow.
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for (i, job) in jobs.into_iter().enumerate() {
            let q = (start + i) % self.workers;
            self.shared.pending.fetch_add(1, Ordering::AcqRel);
            let mut queue = self.shared.queues[q].lock().unwrap();
            queue.push_back(job);
            let depth = queue.len() as u64;
            drop(queue);
            self.shared
                .max_queue_depth
                .fetch_max(depth, Ordering::Relaxed);
            metric_gauge!("columnar.pool.queue_depth").set_max(depth);
        }
        {
            let _g = self.shared.sleep.lock().unwrap();
            self.shared.wake.notify_all();
        }

        // Work-help until our batch completes. Helping may execute tasks
        // of *other* in-flight batches — that is work conservation, not a
        // bug; their own latches account for them.
        loop {
            if *batch.done.lock().unwrap() {
                break;
            }
            if let Some((job, _)) = self.shared.take(helper) {
                self.shared.tasks.fetch_add(1, Ordering::Relaxed);
                metric_counter!("columnar.pool.tasks").inc();
                let started = Instant::now();
                job(helper);
                self.shared.busy_micros[helper]
                    .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            } else {
                let mut done = batch.done.lock().unwrap();
                while !*done {
                    done = batch.cv.wait(done).unwrap();
                }
                break;
            }
        }

        if let Some(p) = batch.panic.lock().unwrap().take() {
            panic::resume_unwind(p);
        }
        results
            .into_iter()
            .map(|r| r.expect("pool task completed without a result"))
            .collect()
    }

    /// Stops the workers and joins them. Idempotent: a second call (or a
    /// call racing `Drop`) is a no-op, and [`WorkerPool::run`] keeps
    /// working afterwards by executing inline on the caller.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.sleep.lock().unwrap();
            self.shared.wake.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    loop {
        if let Some((job, stolen)) = shared.take(id) {
            shared.execute(job, id, stolen);
            continue;
        }
        let guard = shared.sleep.lock().unwrap();
        // Drain before exiting: pending jobs must still run on shutdown so
        // in-flight `run` latches always release.
        if shared.pending.load(Ordering::Acquire) > 0 {
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let _g = shared.wake.wait(guard).unwrap();
    }
}

/// The process-wide pool, built on first use with
/// [`crate::exec::default_parallelism`] slots (so `S2RDF_THREADS` and the
/// cgroup quota are honored) — the probe runs exactly once, here.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::with_workers(crate::exec::default_parallelism()))
}

thread_local! {
    static OVERRIDE: std::cell::Cell<Option<&'static WorkerPool>> =
        const { std::cell::Cell::new(None) };
}

/// The pool execution paths should submit to: the thread's override if one
/// is active (tests pinning a specific pool size), else the global pool.
pub fn current() -> &'static WorkerPool {
    OVERRIDE.with(|c| c.get()).unwrap_or_else(global)
}

/// Runs `f` with every [`current`] call on this thread resolving to `pool`
/// — how tests and benches pin execution to a specific pool (e.g. a leaked
/// 1-worker pool to prove serial equivalence). Restores the previous
/// override on exit, including across panics.
pub fn with_pool<R>(pool: &'static WorkerPool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<&'static WorkerPool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(pool))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_returns_results_in_task_order() {
        let pool = WorkerPool::with_workers(4);
        let out = pool.run((0..100).map(|i| move |_w: usize| i * 2).collect());
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(pool.stats().tasks, 100);
    }

    #[test]
    fn borrowed_captures_are_sound() {
        let pool = WorkerPool::with_workers(3);
        let data: Vec<u64> = (0..1000).collect();
        let chunks: Vec<&[u64]> = data.chunks(97).collect();
        let sums = pool.run(
            chunks
                .iter()
                .map(|&c| move |_w: usize| c.iter().sum::<u64>())
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn single_worker_runs_inline_in_order() {
        let pool = WorkerPool::with_workers(1);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let ids = pool.run(
            (0..16)
                .map(|i| {
                    let order = &order;
                    move |_w: usize| {
                        order.lock().unwrap().push(i);
                        std::thread::current().id()
                    }
                })
                .collect(),
        );
        assert!(ids.iter().all(|&id| id == caller));
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::with_workers(2);
        let out: Vec<u32> = pool.run(Vec::<fn(usize) -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::with_workers(3);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                (0..8)
                    .map(|i| {
                        move |_w: usize| {
                            if i == 5 {
                                panic!("task 5 exploded");
                            }
                            i
                        }
                    })
                    .collect(),
            )
        }));
        assert!(r.is_err());
        // The pool is still healthy.
        let out = pool.run((0..8).map(|i| move |_w: usize| i + 1).collect());
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn shutdown_is_idempotent_and_inline_after() {
        let pool = WorkerPool::with_workers(4);
        let counter = AtomicUsize::new(0);
        pool.run(
            (0..32)
                .map(|_| {
                    let counter = &counter;
                    move |_w: usize| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .collect(),
        );
        pool.shutdown();
        pool.shutdown();
        // Still usable: inline execution.
        pool.run(
            (0..8)
                .map(|_| {
                    let counter = &counter;
                    move |_w: usize| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .collect(),
        );
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn override_scopes_and_restores() {
        static OUTER: OnceLock<WorkerPool> = OnceLock::new();
        let outer = OUTER.get_or_init(|| WorkerPool::with_workers(1));
        assert_eq!(current().workers(), global().workers());
        with_pool(outer, || {
            assert_eq!(current().workers(), 1);
        });
        assert_eq!(current().workers(), global().workers());
    }
}
