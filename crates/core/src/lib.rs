//! # dqo-core — Deep Query Optimisation
//!
//! The paper's primary contribution, implemented end to end:
//!
//! * [`catalog`] — tables plus the exact statistics DQO feeds on
//!   (sortedness, density, distinct counts per key column);
//! * [`cost`] — the Table 2 cost model (tuple-operation based) and its
//!   parallel extension;
//! * [`optimizer`] — the public optimiser API: **one** property-annotated
//!   optimiser that is SQO or DQO depending on how much of the property
//!   vector it is allowed to see (§4.3: SQO tracks sortedness only; DQO
//!   adds density and friends), with sort enforcers, implementation
//!   choice at the organelle level and molecule decisions below it;
//! * [`memo`] — the Cascades-style memo behind it, scratch for one search:
//!   groups keyed by logical subtree, each group's derived rows, per-group
//!   winner tables, and uniform implementation / enforcer / parallel-twin
//!   rule application;
//! * [`property_builder`] — the one row derivation: each memo group's
//!   rows are derived once and read by the coster, `EXPLAIN ANALYZE` and
//!   the feedback recorder alike;
//! * [`feedback`] — adaptive cardinality feedback: per-(table,
//!   predicate-shape) selectivity corrections learned from executed
//!   plans' est-vs-actual deltas, consumed by the memo's coster;
//! * [`executor`] — runs the chosen `PhysicalPlan` on `dqo-exec`,
//!   returning results plus pipeline statistics; the one executor, also
//!   for Figure 3's deep grouping plans once lowered
//!   (`dqo_plan::DeepPlan::lower`);
//! * [`av`] — **Algorithmic Views** (§3): precomputed granules (sorted
//!   projections, SPH join indexes, materialised groupings) the
//!   optimiser can substitute at zero build cost. One lifecycle: a pure
//!   *build* from a table snapshot ([`av::materialise_av`]), one
//!   *publish* ([`av::AvCatalog::publish`]), a pure *maintain*
//!   ([`av_delta`]);
//! * [`avsp`] — the **Algorithmic View Selection Problem**: exhaustive,
//!   greedy and knapsack solvers choosing which AVs to materialise under a
//!   space budget for a given workload;
//! * [`av_build`] — the offline AV build service: builds and publishes
//!   an AVSP solution on the shared persistent pool, admission-controlled
//!   and optionally in the background, with per-build stats (the measured
//!   wall time beside `plan_av`'s Table 2 estimate);
//! * [`av_delta`] — incremental AV maintenance on the write path:
//!   appends delta-merge groupings, merge their sorted delta into sorted
//!   projections and patch SPH indexes (or fall back to rebuilds),
//!   keeping every maintained artifact bit-identical to a from-scratch
//!   build and publishing it the way a build does;
//! * [`plan_cache`] — the plan store, the one bounded structure that
//!   outlives a statement: prepared statements keyed on their *shape*
//!   (rebound per execution, valid per DDL generation), ad-hoc ones on
//!   their logical plan, compared structurally (served while their
//!   statistics / AV / feedback stamp is current);
//! * [`adaptive`] — runtime-adaptive AVs (§6): a cracking-style index
//!   whose optimisation decisions are delegated to query time.
//!
//! The crate re-exports an [`Engine`] facade for end-to-end use
//! (register tables → optimise → execute).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod av;
pub mod av_build;
pub mod av_delta;
pub mod avsp;
pub mod catalog;
pub mod cost;
pub mod engine;
pub mod error;
pub mod executor;
pub mod feedback;
mod join_memo;
pub mod memo;
pub mod optimizer;
pub mod partition_prune;
pub mod plan_cache;
pub mod profile;
pub mod property_builder;
mod rules;

pub use av_build::{AvBuildHandle, AvBuildStats, AvBuilder};
pub use av_delta::{DeltaAction, MaintenanceOutcome, MaintenanceReport, ViewMaintainer};
pub use catalog::{Catalog, RowDelta, SortedPrefix};
pub use cost::{CostModel, TupleCostModel};
pub use engine::{Engine, InsertReport, PreparedPlan};
pub use error::CoreError;
pub use executor::{execute, ExecOutput};
pub use feedback::FeedbackStore;
pub use memo::{Memo, MemoOptimizer, MemoStamp, MemoStats};
pub use optimizer::{optimize, OptimizerMode, PlannedQuery};
pub use partition_prune::prune_partitions;
pub use plan_cache::{plan_shape, PlanCache};
pub use profile::PlanRuntime;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, CoreError>;
