//! The persistent pool: long-lived workers shared across queries and
//! sessions.
//!
//! [`PersistentPool`] keeps `threads` workers alive for the life of the
//! pool, parked on a condvar when idle, so no operator pays a thread
//! spawn:
//!
//! * **jobs** — the unit the pool schedules is a *runner*: one slot of
//!   one batch. A batch at DOP `d` enqueues `d - 1` runners (the
//!   submitting thread is slot 0) and each runner drains the batch's
//!   `TaskCursors`. Morsels are balanced across runners there; the
//!   pool itself only hands runners to workers.
//! * **one job queue** — a FIFO guarded by the mutex the idle condvar
//!   uses, so enqueue, take, park and shutdown are all ordered by one
//!   lock: a worker parks only after seeing the queue empty under it,
//!   and an enqueue under it is seen by every worker before it parks or
//!   exits. Jobs from concurrent queries interleave in arrival order.
//! * **panic capture** — a panicking task aborts its runner and is
//!   reported as [`PoolError::TaskPanicked`] to the submitting query
//!   only; other queries sharing the pool are unaffected and the workers
//!   stay alive.
//! * **graceful shutdown** — [`PersistentPool::shutdown`] (also run on
//!   drop, idempotently) lets workers finish every queued job before
//!   they exit; batches submitted after shutdown run inline on the
//!   submitting thread so nothing deadlocks.
//!
//! One constraint, by design: a task must not block on a nested batch
//! join (a batch joined from inside a pool worker can idle-wait on
//! runners that have no free worker). The engine never nests — parallel
//! operators submit batches from the session thread only.

use crate::pool::{PoolError, TaskCursors};
use dqo_obs::{names, Counter, Gauge, MetricsRegistry, MetricsSnapshot};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use crate::admission::AdmissionController;

/// Degree of parallelism used when none is configured: the `DQO_THREADS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. CI runs the test suite under a
/// `DQO_THREADS={1, 4}` matrix so both the serial and the parallel
/// planner paths are exercised regardless of runner hardware.
pub fn default_threads() -> usize {
    match std::env::var("DQO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Turn a panic payload into a printable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}

/// A batch whose task closure and cursors are *borrowed* from the
/// submitting stack frame, plus the completion state its runners and its
/// waiter share. Soundness contract: the lifetimes are erased to
/// `'static` on submission, and [`BorrowedJoin`] (returned to the
/// submitter) blocks in `wait`/`Drop` until every runner has finished —
/// so the borrow outlives all uses even if the submitter unwinds.
struct BorrowedBatch {
    status: Mutex<BatchStatus>,
    done: Condvar,
    cursors: &'static TaskCursors,
    f: &'static (dyn Fn(usize, usize) + Sync),
}

struct BatchStatus {
    /// Runners not yet finished.
    pending: usize,
    /// First captured panic message, if any task panicked.
    panic: Option<String>,
}

impl BorrowedBatch {
    /// `runners` runners are done: finished (optionally with a captured
    /// panic), or never enqueued because the pool had shut down.
    fn finish(&self, runners: usize, panicked: Option<String>) {
        let mut s = self.status.lock().expect("batch status");
        s.pending -= runners;
        if s.panic.is_none() {
            s.panic = panicked;
        }
        drop(s);
        self.done.notify_all();
    }

    /// Block until every runner is done.
    fn wait(&self) -> MutexGuard<'_, BatchStatus> {
        let mut s = self.status.lock().expect("batch status");
        while s.pending > 0 {
            s = self.done.wait(s).expect("batch status");
        }
        s
    }
}

/// One schedulable unit: a runner slot of some batch.
struct Job {
    batch: Arc<BorrowedBatch>,
    slot: usize,
}

impl Job {
    /// Execute this runner to completion, capturing any task panic into
    /// the batch so the join reports it to the submitting query only.
    fn run(self) {
        let batch = &self.batch;
        let result = catch_unwind(AssertUnwindSafe(|| batch.cursors.drain(self.slot, batch.f)));
        batch.finish(1, result.err().map(panic_message));
    }
}

/// Blocking join handle for a borrowed batch (crate-internal: the public
/// morsel APIs wrap it). Drop blocks until all runners finished — the
/// guard that makes the lifetime erasure in [`BorrowedBatch`] sound.
pub(crate) struct BorrowedJoin {
    batch: Arc<BorrowedBatch>,
}

impl BorrowedJoin {
    /// Block until every runner finished; the first captured panic is
    /// taken and surfaced as an error.
    pub(crate) fn wait(&self) -> Result<(), PoolError> {
        match self.batch.wait().panic.take() {
            Some(msg) => Err(PoolError::TaskPanicked(msg)),
            None => Ok(()),
        }
    }
}

impl Drop for BorrowedJoin {
    fn drop(&mut self) {
        drop(self.batch.wait());
    }
}

/// Everything the workers and submitters coordinate on, under one lock.
struct PoolState {
    /// Runner jobs waiting for a worker, in arrival order.
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Scheduler counters shared with the workers (handles into the pool's
/// [`MetricsRegistry`]; incrementing is one relaxed atomic op).
struct PoolMetrics {
    /// Runner jobs executed.
    jobs: Counter,
    /// Times a worker parked on the idle condvar.
    parks: Counter,
    /// Morsel batches completed (reported by [`crate::ThreadPool`]).
    batches: Counter,
    /// Tasks executed across all batches.
    batch_tasks: Counter,
    /// Tasks a runner slot claimed outside its own block.
    batch_steals: Counter,
    /// Refreshed from the job queue at snapshot time.
    queue_depth: Gauge,
}

impl PoolMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        PoolMetrics {
            jobs: registry.counter(names::POOL_JOBS),
            parks: registry.counter(names::POOL_PARKS),
            batches: registry.counter(names::POOL_BATCHES),
            batch_tasks: registry.counter(names::POOL_BATCH_TASKS),
            batch_steals: registry.counter(names::POOL_BATCH_STEALS),
            queue_depth: registry.gauge(names::POOL_QUEUE_DEPTH),
        }
    }
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled (under `state`) when jobs arrive or shutdown begins.
    cv: Condvar,
    /// Scheduler counters (jobs, parks, batch totals).
    metrics: PoolMetrics,
}

fn worker_loop(shared: &PoolShared) {
    let mut state = shared.state.lock().expect("pool state");
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            shared.metrics.jobs.inc();
            job.run();
            state = shared.state.lock().expect("pool state");
        } else if state.shutdown {
            // The queue is empty under the lock and enqueue refuses once
            // `shutdown` is set, so no job can be abandoned by exiting.
            return;
        } else {
            shared.metrics.parks.inc();
            state = shared.cv.wait(state).expect("pool state");
        }
    }
}

/// A persistent pool of `threads` workers shared across queries and
/// sessions, with an embedded [`AdmissionController`] for the engine's
/// shared-pool mode. See the module docs for the scheduling structure.
pub struct PersistentPool {
    shared: Arc<PoolShared>,
    admission: AdmissionController,
    threads: usize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The pool's own metrics registry: scheduler counters plus the
    /// embedded admission controller's, under the canonical `dqo_*` names.
    registry: Arc<MetricsRegistry>,
}

impl PersistentPool {
    /// A pool with `threads` workers (clamped to at least 1) and a
    /// generous default admission cap (`max(64, 4 × threads)` in-flight
    /// queries) so admission only binds when explicitly configured down.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        PersistentPool::with_admission(threads, (threads * 4).max(64))
    }

    /// A pool with `threads` workers admitting at most `max_inflight`
    /// concurrent queries (FIFO beyond that; see [`AdmissionController`]).
    pub fn with_admission(threads: usize, max_inflight: usize) -> Self {
        let threads = threads.max(1);
        let registry = Arc::new(MetricsRegistry::new());
        registry.gauge(names::POOL_WORKERS).set(threads as u64);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            metrics: PoolMetrics::new(&registry),
        });
        let workers = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dqo-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        PersistentPool {
            shared,
            admission: AdmissionController::with_registry(max_inflight, threads, &registry),
            threads,
            workers: Mutex::new(workers),
            registry,
        }
    }

    /// The process-wide shared pool every [`crate::ThreadPool`] handle
    /// uses unless given a dedicated pool. Sized at
    /// `max(2, default_threads())` so cross-thread dispatch is exercised
    /// even on single-core machines; created lazily, lives for the process.
    pub fn global() -> Arc<PersistentPool> {
        static GLOBAL: OnceLock<Arc<PersistentPool>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(PersistentPool::new(default_threads().max(2)))))
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's admission controller (used by `Engine`'s shared-pool
    /// mode to bound in-flight queries and clamp per-query DOP).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The pool's metrics registry (scheduler + admission counters).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time snapshot of the pool's metrics, with the queue
    /// depth gauge refreshed from the live job queue first.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let queued = self.shared.state.lock().expect("pool state").queue.len();
        self.shared.metrics.queue_depth.set(queued as u64);
        self.registry.snapshot()
    }

    /// Fold one completed morsel batch into the scheduler counters
    /// (called by [`crate::ThreadPool`] after a batch drains).
    pub(crate) fn record_batch(&self, tasks: u64, steals: u64) {
        self.shared.metrics.batches.inc();
        self.shared.metrics.batch_tasks.add(tasks);
        self.shared.metrics.batch_steals.add(steals);
    }

    /// Append jobs to the queue and wake one parked worker per job.
    /// Returns `false` — enqueuing nothing — if the pool has shut down.
    fn enqueue(&self, jobs: impl Iterator<Item = Job>) -> bool {
        let mut state = self.shared.state.lock().expect("pool state");
        if state.shutdown {
            return false;
        }
        for job in jobs {
            state.queue.push_back(job);
            self.shared.cv.notify_one();
        }
        true
    }

    /// Enqueue runner `slots` of a batch whose cursors and closure are
    /// borrowed from the caller's stack.
    ///
    /// # Safety
    ///
    /// The caller must keep `cursors` and `f` alive until the returned
    /// [`BorrowedJoin`] reports completion — which its `Drop` guarantees
    /// by blocking, so holding the join on the same stack frame as the
    /// borrows is sufficient.
    pub(crate) unsafe fn spawn_borrowed(
        &self,
        cursors: &TaskCursors,
        f: &(dyn Fn(usize, usize) + Sync),
        slots: std::ops::Range<usize>,
    ) -> BorrowedJoin {
        let n = slots.len();
        // Erase the lifetimes (plain and trait-object alike), made sound
        // by BorrowedJoin's blocking Drop.
        let cursors: &'static TaskCursors = &*(cursors as *const TaskCursors);
        let f: &'static (dyn Fn(usize, usize) + Sync) = std::mem::transmute(f);
        let batch = Arc::new(BorrowedBatch {
            status: Mutex::new(BatchStatus {
                pending: n,
                panic: None,
            }),
            done: Condvar::new(),
            cursors,
            f,
        });
        let jobs = slots.map(|slot| Job {
            batch: Arc::clone(&batch),
            slot,
        });
        if !self.enqueue(jobs) {
            // Pool already shut down: nothing enqueued; the caller's own
            // drain (slot 0) claims and runs every task.
            batch.finish(n, None);
        }
        BorrowedJoin { batch }
    }

    /// Ask the workers to exit once the queue is drained, and join
    /// them. Idempotent: later calls (including the one from `Drop`) are
    /// no-ops. Batches submitted after shutdown run inline on the
    /// submitting thread.
    pub fn shutdown(&self) {
        self.shared.state.lock().expect("pool state").shutdown = true;
        self.shared.cv.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker handles"));
        for h in handles {
            // A worker that somehow died still must not poison shutdown.
            let _ = h.join();
        }
    }
}

impl Drop for PersistentPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for PersistentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPool")
            .field("threads", &self.threads)
            .field("inflight", &self.admission.inflight())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    /// Run `tasks` counting tasks at `dop` on `pool`; the number that ran.
    fn count_batch(pool: &Arc<PersistentPool>, dop: usize, tasks: usize) -> usize {
        let ran = AtomicUsize::new(0);
        ThreadPool::with_pool(dop, Arc::clone(pool))
            .map_tasks(tasks, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        ran.load(Ordering::Relaxed)
    }

    #[test]
    fn concurrent_batches_from_many_threads_share_one_pool() {
        let pool = Arc::new(PersistentPool::new(2));
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        total.fetch_add(count_batch(&pool, 2, 40), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 10 * 40);
    }

    #[test]
    fn task_panic_surfaces_as_err_and_pool_survives() {
        let pool = Arc::new(PersistentPool::new(2));
        let err = ThreadPool::with_pool(2, Arc::clone(&pool))
            .map_tasks(64, |t| {
                if t == 13 {
                    panic!("boom at task 13");
                }
            })
            .unwrap_err();
        assert!(matches!(err, PoolError::TaskPanicked(ref m) if m.contains("boom")));
        // The pool keeps serving other queries.
        assert_eq!(count_batch(&pool, 2, 32), 32);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let pool = Arc::new(PersistentPool::new(2));
        assert_eq!(count_batch(&pool, 2, 100), 100);
        pool.shutdown();
        pool.shutdown(); // second call is a no-op

        // A batch after shutdown runs inline on the submitting thread
        // rather than deadlocking on workers that are gone.
        let me = std::thread::current().id();
        let threads = ThreadPool::with_pool(4, Arc::clone(&pool))
            .map_tasks(10, |_| std::thread::current().id())
            .unwrap();
        assert!(threads.iter().all(|&t| t == me));
        drop(pool); // Drop after explicit shutdown is fine too.
    }

    #[test]
    fn shutdown_racing_a_batch_never_abandons_jobs() {
        // A job enqueued just before shutdown must still be run by a
        // worker before it exits, or the batch's join deadlocks.
        for _ in 0..50 {
            let pool = Arc::new(PersistentPool::new(1));
            let p2 = Arc::clone(&pool);
            let submitter = std::thread::spawn(move || count_batch(&p2, 2, 16));
            pool.shutdown();
            assert_eq!(submitter.join().unwrap(), 16);
        }
    }

    #[test]
    fn dop_larger_than_pool_still_completes() {
        let pool = Arc::new(PersistentPool::new(1));
        assert_eq!(count_batch(&pool, 8, 200), 200);
    }

    #[test]
    fn queue_depth_observability() {
        let pool = Arc::new(PersistentPool::new(1));
        let depth = |pool: &PersistentPool| {
            pool.metrics_snapshot()
                .gauge(names::POOL_QUEUE_DEPTH)
                .unwrap()
        };
        assert_eq!(depth(&pool), 0);
        // Occupy the only worker: both tasks of a DOP-2 batch report in
        // and then hold their thread until the main thread joins the gate.
        let gate = Barrier::new(3);
        let (started, running) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                ThreadPool::with_pool(2, Arc::clone(&pool))
                    .map_tasks(2, |_| {
                        started.send(()).unwrap();
                        gate.wait();
                    })
                    .unwrap();
            });
            running.recv().unwrap();
            running.recv().unwrap();
            // With the worker held, a second batch's runner job can only
            // wait in the queue, where the gauge must see it.
            let queued = scope.spawn(|| count_batch(&pool, 2, 4));
            while depth(&pool) == 0 {
                std::thread::yield_now();
            }
            assert_eq!(depth(&pool), 1);
            gate.wait();
            assert_eq!(queued.join().unwrap(), 4);
        });
        assert_eq!(depth(&pool), 0, "drained pool reports an empty queue");
    }

    #[test]
    fn metrics_snapshot_counts_jobs_and_admissions() {
        let pool = Arc::new(PersistentPool::with_admission(2, 2));
        let permit = pool.admission().admit(2);
        drop(permit);
        let p2 = pool.admission().admit(2);
        drop(p2);
        assert_eq!(count_batch(&pool, 2, 64), 64);
        let snap = pool.metrics_snapshot();
        assert_eq!(snap.gauge(names::POOL_WORKERS), Some(2));
        assert_eq!(snap.counter(names::POOL_JOBS), Some(1));
        let admitted = snap.counter(names::ADMISSION_ADMITTED).unwrap();
        assert_eq!(admitted, 2);
        let (wait_count, _) = snap
            .histogram_count_sum(names::ADMISSION_WAIT_SECONDS)
            .unwrap();
        assert_eq!(
            wait_count, admitted,
            "every admission records exactly one wait"
        );
        assert_eq!(snap.gauge(names::ADMISSION_INFLIGHT), Some(0));
        assert_eq!(snap.gauge(names::POOL_QUEUE_DEPTH), Some(0));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(PersistentPool::global().threads() >= 2);
    }
}
