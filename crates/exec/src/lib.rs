//! # dqo-exec — the execution engine underneath Deep Query Optimisation
//!
//! This crate implements, from scratch, every algorithm the paper's
//! evaluation uses:
//!
//! * the five **grouping** variants of §4.1 — hash-based ([`grouping::hg`]),
//!   static-perfect-hash-based ([`grouping::sphg`]), order-based
//!   ([`grouping::og`]), sort-&-order-based ([`grouping::sog`]) and binary
//!   -search-based ([`grouping::bsg`]);
//! * their five **join** counterparts of §4.3/Table 2 ([`join`]);
//! * the **aggregate** machinery (COUNT and SUM "computed on the fly",
//!   §4.1, plus MIN/MAX/AVG as extensions) in [`aggregate`];
//! * [`sort`] utilities (argsort and the comparison and radix sort
//!   molecules);
//! * pipeline-breaker accounting in [`pipeline`].
//!
//! Each grouping algorithm is generic over the [`aggregate::Aggregator`]
//! and — where meaningful — over the hash-table or sort *molecule*, so
//! the DQO optimiser can treat sub-operator choices as plan decisions
//! rather than compile-time constants. Every complete Figure 3 deep plan
//! runs through these kernels (`dqo_plan::DeepPlan::lower`).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod composite;
pub mod error;
pub mod grouping;
pub mod join;
pub mod pipeline;
pub mod sort;

pub use aggregate::{Aggregator, CountSum, FullAgg};
pub use composite::KeyPacker;
pub use error::ExecError;
pub use grouping::{GroupedResult, GroupingAlgorithm};
pub use join::JoinAlgorithm;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, ExecError>;
