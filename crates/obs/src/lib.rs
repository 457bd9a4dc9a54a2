//! # dqo-obs — end-to-end observability for the DQO engine
//!
//! The paper's core move is replacing opaque operators with *measurable*
//! sub-operator molecules — §1 argues by counting pipeline breakers and
//! Table 2 is a per-molecule cost model. This crate supplies the
//! measurement substrate the rest of the engine wires into:
//!
//! * [`trace`] — per-query **phase spans** ([`QueryProfile`]): parse,
//!   bind, optimise, admission wait and execute, each with a monotonic
//!   start offset and duration, assembled by a [`TraceBuilder`] that is
//!   threaded from the SQL front-end through the engine;
//! * [`metrics`] — a **process-wide registry** ([`MetricsRegistry`]) of
//!   hand-rolled atomic [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s (no dependencies — the environment is shims-only),
//!   with deterministic-order [`MetricsSnapshot`]s exposable as JSON or
//!   Prometheus text.
//!
//! Everything here is designed to be **cheap and bit-identity-safe**:
//! recording is a handful of relaxed atomic operations, never a lock on
//! a hot path, and nothing observes or perturbs query results.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, DURATION_BUCKETS};
pub use trace::{Phase, PhaseSpan, QueryProfile, TraceBuilder};

/// Canonical metric names, so producers and consumers never drift.
pub mod names {
    /// Runner jobs executed by pool workers (counter).
    pub const POOL_JOBS: &str = "dqo_pool_jobs_total";
    /// Times a pool worker parked on the idle condvar (counter).
    pub const POOL_PARKS: &str = "dqo_pool_parks_total";
    /// Runner jobs in the pool's job queue at snapshot time (gauge).
    pub const POOL_QUEUE_DEPTH: &str = "dqo_pool_queue_depth";
    /// Pool worker count (gauge).
    pub const POOL_WORKERS: &str = "dqo_pool_workers";
    /// Morsel batches dispatched through the pool (counter).
    pub const POOL_BATCHES: &str = "dqo_pool_batches_total";
    /// Morsel/partition tasks executed across all batches (counter).
    pub const POOL_BATCH_TASKS: &str = "dqo_pool_batch_tasks_total";
    /// Tasks a runner slot claimed from another slot's block (counter).
    pub const POOL_BATCH_STEALS: &str = "dqo_pool_batch_steals_total";
    /// Queries (and AV builds) admitted by the controller (counter).
    pub const ADMISSION_ADMITTED: &str = "dqo_admission_admitted_total";
    /// Time spent blocked in the FIFO admission queue (histogram, s).
    pub const ADMISSION_WAIT_SECONDS: &str = "dqo_admission_wait_seconds";
    /// Queries currently admitted and running (gauge).
    pub const ADMISSION_INFLIGHT: &str = "dqo_admission_inflight";
    /// Queries waiting in the FIFO overflow queue right now (gauge).
    pub const ADMISSION_QUEUED: &str = "dqo_admission_queued";
    /// High-water mark of concurrently admitted queries (gauge).
    pub const ADMISSION_PEAK_INFLIGHT: &str = "dqo_admission_peak_inflight";
    /// Queries executed by the engine (counter).
    pub const ENGINE_QUERIES: &str = "dqo_engine_queries_total";
    /// Optimiser (plan enumeration) time per query (histogram, s).
    pub const OPTIMISE_SECONDS: &str = "dqo_optimise_seconds";
    /// Execution wall time per query, admission excluded (histogram, s).
    pub const EXEC_SECONDS: &str = "dqo_exec_seconds";
    /// Bytes of column data executions copied into new buffers (counter).
    pub const EXEC_BYTES_MATERIALISED: &str = "dqo_exec_bytes_materialised_total";
    /// Algorithmic views materialised (counter).
    pub const AV_BUILDS: &str = "dqo_av_builds_total";
    /// Bytes across all materialised AV artifacts (counter).
    pub const AV_BUILD_BYTES: &str = "dqo_av_build_bytes_total";
    /// AV build wall time, admission excluded (histogram, s).
    pub const AV_BUILD_SECONDS: &str = "dqo_av_build_seconds";
    /// Prepared executions served from the plan cache (counter).
    pub const PLAN_CACHE_HITS: &str = "dqo_plan_cache_hits_total";
    /// Prepared executions that had to plan cold (counter).
    pub const PLAN_CACHE_MISSES: &str = "dqo_plan_cache_misses_total";
    /// Cached plans dropped — LRU capacity or stale generation (counter).
    pub const PLAN_CACHE_EVICTIONS: &str = "dqo_plan_cache_evictions_total";
    /// Plans currently resident in the cache (gauge).
    pub const PLAN_CACHE_ENTRIES: &str = "dqo_plan_cache_entries";
    /// Connections accepted by the serving front-end (counter).
    pub const SERVER_CONNECTIONS: &str = "dqo_server_connections_total";
    /// Connections currently open, high-water across merges (gauge).
    pub const SERVER_ACTIVE_CONNECTIONS: &str = "dqo_server_active_connections";
    /// Malformed or out-of-protocol client frames (counter).
    pub const SERVER_PROTOCOL_ERRORS: &str = "dqo_server_protocol_errors_total";
    /// QUERY/EXECUTE frames answered with a result set (counter).
    pub const SERVER_QUERIES: &str = "dqo_server_queries_total";
    /// Incremental AV maintenance merges applied on append (counter).
    pub const AV_DELTA_MERGES: &str = "dqo_av_delta_merges_total";
    /// Maintenance falls back to a full artifact rebuild (counter).
    pub const AV_DELTA_REBUILDS: &str = "dqo_av_delta_rebuilds_total";
    /// Delta rows folded into maintained artifacts (counter).
    pub const AV_DELTA_ROWS: &str = "dqo_av_delta_rows_total";
    /// Wall time of one AV's maintenance step on append (histogram, s).
    pub const AV_DELTA_SECONDS: &str = "dqo_av_delta_seconds";
    /// Logical groups interned in the session's optimiser memo (gauge).
    pub const OPT_GROUPS: &str = "dqo_opt_groups";
    /// Retained physical candidates across memo winner tables (gauge).
    pub const OPT_GROUP_EXPRS: &str = "dqo_opt_group_exprs";
    /// Optimiser rule applications that produced candidates (counter).
    pub const OPT_RULES_FIRED: &str = "dqo_opt_rules_fired_total";
    /// Group explorations answered from a memo winner table (counter).
    pub const OPT_WINNER_HITS: &str = "dqo_opt_winner_hits_total";
    /// Feedback corrections folded into row estimates, once per filter
    /// group per search (counter).
    pub const OPT_FEEDBACK_APPLIED: &str = "dqo_opt_feedback_applied_total";
    /// Selectivity corrections learned from executed plans (counter).
    pub const OPT_FEEDBACK_CORRECTIONS: &str = "dqo_opt_feedback_corrections_total";
    /// Partitions pruned away at plan time across executed
    /// `PartitionedScan` nodes (counter).
    pub const PART_PRUNED: &str = "dqo_part_pruned_total";
    /// Partitions actually scanned by executed `PartitionedScan` nodes
    /// (counter).
    pub const PART_SCANNED: &str = "dqo_part_scanned_total";
    /// Total partitions of the tables behind executed `PartitionedScan`
    /// nodes — `pruned + scanned` (counter).
    pub const PART_TOTAL: &str = "dqo_part_total";

    /// Every canonical metric name, in the order documented in
    /// `docs/METRICS.md`. Doc-sync tests iterate this so a new metric
    /// cannot ship without a docs entry (and vice versa).
    pub const ALL: &[&str] = &[
        POOL_JOBS,
        POOL_PARKS,
        POOL_QUEUE_DEPTH,
        POOL_WORKERS,
        POOL_BATCHES,
        POOL_BATCH_TASKS,
        POOL_BATCH_STEALS,
        ADMISSION_ADMITTED,
        ADMISSION_WAIT_SECONDS,
        ADMISSION_INFLIGHT,
        ADMISSION_QUEUED,
        ADMISSION_PEAK_INFLIGHT,
        ENGINE_QUERIES,
        OPTIMISE_SECONDS,
        EXEC_SECONDS,
        EXEC_BYTES_MATERIALISED,
        AV_BUILDS,
        AV_BUILD_BYTES,
        AV_BUILD_SECONDS,
        PLAN_CACHE_HITS,
        PLAN_CACHE_MISSES,
        PLAN_CACHE_EVICTIONS,
        PLAN_CACHE_ENTRIES,
        SERVER_CONNECTIONS,
        SERVER_ACTIVE_CONNECTIONS,
        SERVER_PROTOCOL_ERRORS,
        SERVER_QUERIES,
        AV_DELTA_MERGES,
        AV_DELTA_REBUILDS,
        AV_DELTA_ROWS,
        AV_DELTA_SECONDS,
        OPT_GROUPS,
        OPT_GROUP_EXPRS,
        OPT_RULES_FIRED,
        OPT_WINNER_HITS,
        OPT_FEEDBACK_APPLIED,
        OPT_FEEDBACK_CORRECTIONS,
        PART_PRUNED,
        PART_SCANNED,
        PART_TOTAL,
    ];
}
