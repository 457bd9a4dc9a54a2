//! Morsel-batch scheduling over the persistent pool.
//!
//! [`ThreadPool`] is a cheap *dispatch handle*: a degree of parallelism
//! plus a reference to a long-lived [`PersistentPool`] (the process-wide
//! shared pool by default, or a dedicated/session-shared one via
//! [`ThreadPool::with_pool`]). Each parallel operator invocation runs a
//! fixed batch of tasks (morsel or partition indices) at that DOP.
//! Batch-internal scheduling is one atomic range cursor per runner slot
//! (`TaskCursors`): the task list is cut into one contiguous block per
//! slot, a slot claims from its own block with a `fetch_add`, and once
//! that is empty it claims from the other slots' blocks the same way —
//! so a slow block is finished by whoever is idle, a runner's tasks stay
//! contiguous while it is not, and no claim takes a lock.
//!
//! Runner slots `1..dop` are enqueued as jobs on the persistent pool's
//! parked workers, the submitting thread drains slot 0 itself (so a
//! batch always makes progress even on a saturated pool), and every API
//! returns `Result` — a panicking task is captured and surfaced as
//! [`PoolError::TaskPanicked`] to the submitting query only, leaving the
//! pool workers alive for everyone else. What a batch pays is one queue
//! push and one wakeup per extra slot, which is the per-worker dispatch
//! term in `dqo-core`'s cost model.

use crate::persistent::{panic_message, PersistentPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Scheduler failure surfaced to the submitting query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A task panicked; the panic was captured on the worker, the batch
    /// was aborted, and the pool stays healthy.
    TaskPanicked(String),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::TaskPanicked(msg) => write!(f, "parallel task panicked: {msg}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<PoolError> for dqo_exec::ExecError {
    fn from(e: PoolError) -> Self {
        dqo_exec::ExecError::Scheduler(e.to_string())
    }
}

/// Per-handle batch observation: how many batches this [`ThreadPool`]
/// handle dispatched, how many morsel/partition tasks they executed, and
/// how many tasks a runner slot claimed from a sibling's block. The
/// executor attaches one per `Exchange` node (via
/// [`ThreadPool::with_obs`]) so per-operator morsel/steal counts land in
/// the query's plan metrics.
#[derive(Debug, Default)]
pub struct BatchObs {
    batches: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
}

impl BatchObs {
    /// Batches dispatched.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Morsel/partition tasks executed across all batches.
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Tasks a runner slot claimed outside its own block.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

/// Degree-of-parallelism handle onto a persistent pool: owns the batch
/// configuration and runs morsel batches. Cheap to create and clone.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    dop: usize,
    pool: Arc<PersistentPool>,
    obs: Option<Arc<BatchObs>>,
}

impl ThreadPool {
    /// A handle running batches at DOP `threads` (clamped to at least 1)
    /// on the process-wide shared [`PersistentPool`].
    pub fn new(threads: usize) -> Self {
        ThreadPool::with_pool(threads, PersistentPool::global())
    }

    /// A handle running batches at DOP `threads` on a specific pool —
    /// the engine's shared-pool mode and benchmarks use this to control
    /// pool sizing explicitly.
    pub fn with_pool(threads: usize, pool: Arc<PersistentPool>) -> Self {
        ThreadPool {
            dop: threads.max(1),
            pool,
            obs: None,
        }
    }

    /// Attach a batch-observation sink: every batch this handle runs
    /// reports its task and steal counts into `obs` (and clones of the
    /// handle share the sink).
    pub fn with_obs(mut self, obs: Arc<BatchObs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Configured degree of parallelism.
    pub fn threads(&self) -> usize {
        self.dop
    }

    /// Run `f` once per task index in `0..tasks` across up to `dop`
    /// runner slots. `f(slot, task)` must be safe to call concurrently
    /// from distinct slots; every task runs exactly once. Blocks until
    /// the batch is done. With one slot (or one task) everything runs
    /// inline on the caller thread — the serial fast path never touches
    /// the pool.
    fn run_batch<F: Fn(usize, usize) + Sync>(&self, tasks: usize, f: F) -> Result<(), PoolError> {
        if tasks == 0 {
            return Ok(());
        }
        let workers = self.dop.min(tasks);
        if workers == 1 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                for t in 0..tasks {
                    f(0, t);
                }
            }))
            .map_err(|p| PoolError::TaskPanicked(panic_message(p)));
            if result.is_ok() {
                self.record_batch(tasks as u64, 0);
            }
            return result;
        }
        let cursors = TaskCursors::split(workers, tasks);
        // Slots 1..workers go to the pool; slot 0 is the caller thread,
        // so a dop-n batch occupies at most n-1 pool workers and always
        // progresses even when the pool is saturated by other queries.
        //
        // SAFETY: `join` blocks (in `wait` and, on unwind, in its Drop)
        // until every pool runner has finished, so the borrows of
        // `cursors` and `f` outlive all uses.
        let join = unsafe { self.pool.spawn_borrowed(&cursors, &f, 1..workers) };
        let caller = catch_unwind(AssertUnwindSafe(|| cursors.drain(0, &f)));
        let runners = join.wait();
        let result = match caller {
            Err(p) => Err(PoolError::TaskPanicked(panic_message(p))),
            Ok(()) => runners,
        };
        if result.is_ok() {
            self.record_batch(tasks as u64, cursors.steals.load(Ordering::Relaxed));
        }
        result
    }

    /// Fold one completed batch into the handle's observation sink (if
    /// attached) and the pool's process-level batch counters.
    fn record_batch(&self, tasks: u64, steals: u64) {
        if let Some(obs) = &self.obs {
            obs.batches.fetch_add(1, Ordering::Relaxed);
            obs.tasks.fetch_add(tasks, Ordering::Relaxed);
            obs.steals.fetch_add(steals, Ordering::Relaxed);
        }
        self.pool.record_batch(tasks, steals);
    }

    /// Map task indices `0..tasks` through `f`, results in task order —
    /// parallel output is deterministic regardless of which worker ran
    /// which task.
    pub fn map_tasks<T, F>(&self, tasks: usize, f: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        self.run_batch(tasks, |_, t| {
            // Run the task before taking the slot lock so a panicking
            // task cannot poison its result slot.
            let v = f(t);
            *slots[t].lock().expect("result slot") = Some(v);
        })?;
        Ok(slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot")
                    .expect("every task ran")
            })
            .collect())
    }

    /// Fold task indices `0..tasks` into **per-slot** states: each runner
    /// slot lazily creates one state with `init` and folds every task it
    /// executes into it with `step`. Returns the states of slots that ran
    /// at least one task, in slot order.
    ///
    /// Which tasks land in which state depends on scheduling, so this is
    /// only deterministic downstream if the caller's merge of the states
    /// is insensitive to that split — true for decomposable aggregates
    /// ([`dqo_exec::aggregate::Aggregator::IS_DECOMPOSABLE`]), which is
    /// why the optimiser only parallelises those.
    pub fn fold_tasks<S, I, F>(&self, tasks: usize, init: I, step: F) -> Result<Vec<S>, PoolError>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) + Sync,
    {
        let workers = self.dop.min(tasks.max(1));
        let states: Vec<Mutex<Option<S>>> = (0..workers).map(|_| Mutex::new(None)).collect();
        self.run_batch(tasks, |w, t| {
            // Uncontended: slot `w` is the only one touching state `w`
            // while the batch runs; the Mutex just proves it to the
            // compiler.
            let mut slot = states[w].lock().expect("worker state");
            step(slot.get_or_insert_with(&init), t);
        })?;
        Ok(states
            .into_iter()
            .filter_map(|s| s.into_inner().expect("worker state"))
            .collect())
    }
}

/// [`ThreadPool::map_tasks`] on `pool`, else every task in order on the
/// caller thread: results in task order either way. The sort kernels, the
/// gather and the executor's collect sink choose pool or caller here and
/// nowhere else (the HG/SPHG fold does it over per-worker states, in
/// [`crate::grouping`]).
pub fn map_tasks<T, F>(pool: Option<&ThreadPool>, tasks: usize, f: F) -> Result<Vec<T>, PoolError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match pool {
        Some(pool) => pool.map_tasks(tasks, f),
        None => Ok((0..tasks).map(f).collect()),
    }
}

/// The task-claim state of one batch (shared by the persistent pool's
/// runner jobs and the submitting thread): one contiguous block of task
/// indices per runner slot, each behind an atomic cursor.
pub(crate) struct TaskCursors {
    blocks: Vec<Block>,
    /// Tasks claimed by a slot other than the block's own.
    steals: AtomicU64,
}

/// The unclaimed tasks `next..end` of one slot's block.
struct Block {
    next: AtomicUsize,
    end: usize,
}

impl Block {
    /// Claim the block's next task, if any is left.
    fn claim(&self) -> Option<usize> {
        // Relaxed: the cursor hands out indices and publishes no data —
        // what a task reads was written before the batch was enqueued,
        // and what it writes is read after the join, both under a mutex.
        // Each drain overshoots `end` at most once per block, so the
        // cursor cannot wrap.
        let t = self.next.fetch_add(1, Ordering::Relaxed);
        (t < self.end).then_some(t)
    }
}

impl TaskCursors {
    /// Cut `0..tasks` into `slots` contiguous blocks of near-equal size.
    pub(crate) fn split(slots: usize, tasks: usize) -> Self {
        TaskCursors {
            blocks: (0..slots)
                .map(|w| Block {
                    next: AtomicUsize::new(w * tasks / slots),
                    end: (w + 1) * tasks / slots,
                })
                .collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Runner loop: empty the slot's own block, then each other block in
    /// turn. Blocks only shrink, so one pass leaves nothing unclaimed.
    pub(crate) fn drain<F: Fn(usize, usize) + ?Sized>(&self, slot: usize, f: &F) {
        let n = self.blocks.len();
        for offset in 0..n {
            let block = &self.blocks[(slot + offset) % n];
            let mut claimed = 0;
            while let Some(t) = block.claim() {
                claimed += 1;
                f(slot, t);
            }
            if offset > 0 {
                self.steals.fetch_add(claimed, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::morsels;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_tasks_runs_each_exactly_once_in_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.map_tasks(100, |t| t * 2).unwrap();
            assert_eq!(out, (0..100).map(|t| t * 2).collect::<Vec<_>>());
            assert_eq!(map_tasks(Some(&pool), 100, |t| t * 2).unwrap(), out);
        }
        let out = map_tasks(None, 100, |t| t * 2).unwrap();
        assert_eq!(out, (0..100).map(|t| t * 2).collect::<Vec<_>>());
        assert!(map_tasks(None, 0, |t| t).unwrap().is_empty());
    }

    #[test]
    fn fold_tasks_partitions_all_rows() {
        let pool = ThreadPool::new(4);
        let ms = morsels(10_000, 128);
        let counts = pool
            .fold_tasks(ms.len(), || 0usize, |acc, t| *acc += ms[t].len())
            .unwrap();
        assert!(counts.len() <= 4);
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn every_task_runs_despite_stealing() {
        let ran = AtomicUsize::new(0);
        ThreadPool::new(8)
            .map_tasks(1_000, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn a_slow_block_is_finished_by_the_idle_slot() {
        // Block 0 (tasks 0..50) is ~100x slower than block 1, and its
        // first task does not return before block 1 is done — so slot 1
        // is idle while most of block 0 is still unclaimed.
        const TASKS: usize = 100;
        let fast_done = (Mutex::new(0usize), std::sync::Condvar::new());
        let obs = Arc::new(BatchObs::default());
        let pool = ThreadPool::with_pool(2, Arc::new(PersistentPool::new(1)));
        let per_slot = pool
            .with_obs(Arc::clone(&obs))
            .fold_tasks(TASKS, Vec::new, |ran: &mut Vec<usize>, t| {
                let (done, cv) = &fast_done;
                if t >= TASKS / 2 {
                    *done.lock().unwrap() += 1;
                    cv.notify_all();
                } else if t == 0 {
                    let guard = done.lock().unwrap();
                    drop(cv.wait_while(guard, |d| *d < TASKS / 2).unwrap());
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                ran.push(t);
            })
            .unwrap();
        let mut all: Vec<usize> = per_slot.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..TASKS).collect::<Vec<_>>(), "each task ran once");
        assert!(
            obs.steals() > 0,
            "the idle slot claimed from the slow block"
        );
    }

    #[test]
    fn zero_tasks_and_zero_rows() {
        let pool = ThreadPool::new(4);
        assert!(pool.map_tasks(0, |t| t).unwrap().is_empty());
        assert!(pool.fold_tasks(0, || 0usize, |_, _| {}).unwrap().is_empty());
    }

    #[test]
    fn pool_configuration() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert_eq!(ThreadPool::new(6).threads(), 6);
    }

    #[test]
    fn dedicated_pool_handle() {
        let pool = Arc::new(PersistentPool::new(2));
        let tp = ThreadPool::with_pool(4, Arc::clone(&pool));
        assert_eq!(tp.threads(), 4);
        let out = tp.map_tasks(50, |t| t + 1).unwrap();
        assert_eq!(out[49], 50);
    }

    #[test]
    fn batch_obs_counts_every_task() {
        let obs = Arc::new(BatchObs::default());
        let pool = ThreadPool::new(4).with_obs(Arc::clone(&obs));
        pool.map_tasks(100, |t| t).unwrap();
        pool.map_tasks(79, |t| t).unwrap();
        assert_eq!(obs.batches(), 2);
        assert_eq!(obs.tasks(), 100 + 79);
        // Steals are scheduling-dependent; the counter just must not
        // exceed the work available.
        assert!(obs.steals() <= obs.tasks());
        // A handle without a sink records nothing extra (and still works).
        let plain = ThreadPool::new(2);
        plain.map_tasks(10, |t| t).unwrap();
        assert_eq!(obs.batches(), 2);
    }

    #[test]
    fn panics_surface_as_err_serial_and_parallel() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let err = pool
                .map_tasks(100, |t| {
                    if t == 37 {
                        panic!("task 37 exploded");
                    }
                    t
                })
                .unwrap_err();
            assert!(
                matches!(err, PoolError::TaskPanicked(ref m) if m.contains("exploded")),
                "threads={threads}: {err}"
            );
            // The same handle keeps working after a failed batch.
            assert_eq!(pool.map_tasks(10, |t| t).unwrap().len(), 10);
        }
    }
}
