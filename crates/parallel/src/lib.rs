//! # dqo-parallel — morsel-driven execution for DQO
//!
//! Every kernel here is one loop that takes `pool: Option<&ThreadPool>`:
//! with a pool its tasks run on the pool's workers, without one they run
//! in order on the caller thread, which is the serial operator. Running a
//! granule on one worker or on n is a parameter of its loop, not a second
//! operator, so the paper's molecule-level wins (SPHG/SPHJ, algorithmic
//! views) reach every core through the same code. The runtime is in the
//! morsel-driven style (Leis et al., SIGMOD 2014), built for serving
//! many sessions at once:
//!
//! * [`morsel`] — cache-sized row ranges, the unit of parallel work;
//! * [`persistent`] — the [`PersistentPool`]: long-lived workers parked
//!   on a condvar over one job queue that interleaves runner jobs from
//!   multiple queries, a blocking join per batch, panic capture, and
//!   graceful shutdown on drop;
//! * [`admission`] — the [`AdmissionController`]: bounded in-flight
//!   queries with a FIFO overflow queue and a per-query DOP clamp under
//!   load, so a shared pool degrades gracefully instead of
//!   oversubscribing;
//! * [`pool`] — the [`ThreadPool`] dispatch handle (a DOP plus a pool)
//!   with the batch APIs; inside a batch each runner claims
//!   morsels from its own contiguous block through an atomic cursor,
//!   then from the other runners' blocks. [`map_tasks`] runs a task list
//!   on a pool or, with none, on the caller thread;
//! * [`grouping`] — the one grouping loop, every organelle a sink of it:
//!   thread-local aggregation with the plan's molecules (the HG
//!   table/hash pair, the dense SPH array, BSG's sorted array, OG's runs)
//!   and a deterministic merge or stitch, or — with no pool — one fold on
//!   the caller thread; a task's rows come from a loader, so a piece can
//!   be narrowed by a filter and read through a selection inside the
//!   task that aggregates it;
//! * [`join`] — OJ's merge loop over key-run-aligned partitions that tile
//!   both inputs, and BSJ's probe of a sorted build side by morsels;
//! * [`sort`] + [`merge_path`] — the sort granule: run formation (pdqsort
//!   or LSB radix, the plan's molecule), one run per worker, followed by
//!   a Merge Path multi-way merge whose per-worker output ranges are
//!   disjoint, contiguous and deterministic; top-n builds on it, SOG is
//!   the sort feeding OG's fold and SOJ the sorts feeding OJ's loop,
//!   covering the paper's sort-based operator family.
//!
//! Algorithmic Views are built by these same kernels: `dqo-core` sorts a
//! sorted projection with [`parallel_argsort`] and groups a materialised
//! grouping with [`parallel_grouping`]; the SPH index and the projection's
//! gather are single passes it runs on the caller thread.
//!
//! Everything is **deterministic by construction**: per-morsel outputs
//! are concatenated in morsel order and per-worker partials merge
//! through order-insensitive decomposable aggregates, so results are
//! identical across runs, thread counts, and admission-clamped DOPs.
//! Every kernel returns [`dqo_exec::pipeline::PipelineStats`] so
//! blocking behaviour stays measurable (a pool adds its merge breakers),
//! and every scheduling API returns `Result` — a worker panic is
//! captured and surfaced to the submitting query only.
//!
//! The optimiser decides *when* to parallelise: `dqo-core` extends the
//! Table 2 cost model with per-batch dispatch and merge terms (much
//! smaller than PR 1's per-spawn startup, now that workers are
//! persistent) and only wraps an operator in an `Exchange` plan node
//! when the input is large enough that the overhead pays for itself.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod grouping;
pub mod join;
pub mod merge_path;
pub mod morsel;
pub mod persistent;
pub mod pool;
pub mod sort;

pub use admission::{AdmissionController, AdmissionPermit};
pub use grouping::{
    merge_ascending, parallel_grouping, parallel_grouping_tasks, Fold, GroupingStrategy, Kept,
    Probed, Rows, Scratch, Sink,
};
pub use join::{parallel_binary_search_join, parallel_order_join};
pub use morsel::{morsels, morsels_within, Morsel, DEFAULT_MORSEL_ROWS};
pub use persistent::{default_threads, PersistentPool};
pub use pool::{map_tasks, BatchObs, PoolError, ThreadPool};
pub use sort::{
    parallel_argsort, parallel_sog, parallel_sort_index, parallel_sort_merge_join, parallel_top_n,
};
