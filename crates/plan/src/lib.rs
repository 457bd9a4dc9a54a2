//! # dqo-plan — plan representation across the physiological continuum
//!
//! The paper's Figure 3 depicts a *continuum* from a purely logical
//! operator to a concrete "physical" implementation, traversed by repeated
//! **unnesting**. This crate provides the vocabulary for every point on
//! that continuum:
//!
//! * [`logical`] — the classical logical algebra (scan, filter, join,
//!   group-by, project, sort): the left end of the continuum;
//! * [`granule`] — the granularity ladder of Table 1 (cell, organelle,
//!   macro-molecule, molecule, atom);
//! * [`algorithms`] — the named implementation choices at each granularity
//!   (grouping/join organelles, hash-table/hash-function/loop/sort
//!   molecules);
//! * [`deep`] — deep plans: trees whose nodes sit at *any* granularity,
//!   plus the unnesting rules that expand a node into its finer-grained
//!   alternatives (the arrows of Figure 3) and the lowering of a complete
//!   one to a physical grouping;
//! * [`physical`] — the fully decided plan the executor runs;
//! * [`properties`] — plan properties (§2.2): sortedness, density,
//!   distinct counts, partitioning — the DP state DQO refuses to discard;
//! * [`expr`] — predicates and aggregate expressions.
//!
//! The optimiser (crate `dqo-core`) performs the actual search over this
//! vocabulary; the executor maps it onto `dqo-exec` implementations.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algorithms;
pub mod deep;
pub mod expr;
pub mod granule;
pub mod logical;
pub mod physical;
pub mod properties;

pub use algorithms::{
    GroupingAlgorithm, HashFnMolecule, JoinAlgorithm, LoopMolecule, SortMolecule, TableMolecule,
};
pub use deep::{DeepPlan, Granule};
pub use expr::{like_match, AggExpr, AggFunc, CmpOp, Predicate};
pub use granule::Granularity;
pub use logical::LogicalPlan;
pub use physical::PhysicalPlan;
pub use properties::PlanProps;
