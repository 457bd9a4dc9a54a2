//! # dqo-parallel — morsel-driven parallel execution for DQO
//!
//! The serial engine executes every plan on one thread, capping the
//! paper's molecule-level wins (SPHG/SPHJ, algorithmic views) at a single
//! core. This crate adds the missing parallel runtime in the
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
//!   with the morsel batch APIs; inside a batch each runner claims
//!   morsels from its own contiguous block through an atomic cursor,
//!   then from the other runners' blocks;
//! * [`grouping`] — the one HG/SPHG loop: thread-local aggregation with
//!   the plan's molecules (the HG table/hash pair, the dense SPH array)
//!   and a deterministic sorted merge, or — with no pool — one fold on
//!   the caller thread, which is serial HG/SPHG; a task's rows come from
//!   a loader, so a piece can be narrowed by a filter and read through a
//!   selection inside the task that aggregates it;
//! * [`sort`] + [`merge_path`] — the parallel sort subsystem: per-worker
//!   run formation (pdqsort or LSB radix, the serial molecule decision)
//!   followed by a Merge Path multi-way merge whose per-worker output
//!   ranges are disjoint, contiguous and deterministic; parallel SOG
//!   (run aggregation with deterministic boundary stitching) and
//!   parallel SOJ (range-partitioned merge join) build on it, completing
//!   parallel coverage of the paper's sort-based operator family;
//! * [`av_build`] — offline Algorithmic-View build kernels: a
//!   partitioned bit-identical SPH-index CSR build and a
//!   range-partitioned relation gather, so `dqo-core` can materialise
//!   every AV kind through the shared pool.
//!
//! Everything is **deterministic by construction**: per-morsel outputs
//! are concatenated in morsel order and per-worker partials merge
//! through order-insensitive decomposable aggregates, so results are
//! identical across runs, thread counts, and admission-clamped DOPs.
//! Parallel operators return [`dqo_exec::pipeline::PipelineStats`] so
//! blocking behaviour stays measurable exactly as in the serial engine,
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
pub mod av_build;
pub mod grouping;
pub mod merge_path;
pub mod morsel;
pub mod persistent;
pub mod pool;
pub mod sort;

pub use admission::{AdmissionController, AdmissionPermit};
pub use av_build::{parallel_gather, parallel_sph_index_build};
pub use grouping::{
    parallel_grouping, parallel_grouping_tasks, GroupingStrategy, Rows, Scratch, Sink,
};
pub use morsel::{morsels, morsels_within, Morsel, DEFAULT_MORSEL_ROWS};
pub use persistent::{default_threads, PersistentPool};
pub use pool::{BatchObs, PoolError, ThreadPool};
pub use sort::{
    parallel_argsort, parallel_sog, parallel_sort_index, parallel_sort_merge_join, parallel_top_n,
};
