//! # dqo-hashtable — the "molecule" substrate
//!
//! Table 1 of the paper places *"any subcomponent of an index, e.g. … hash
//! function used, particular probing implementation"* at the **molecule**
//! granularity, optimised today by developers and — under DQO — by the query
//! optimiser. Citing Richter et al.'s seven-dimensional analysis of hashing
//! \[17\], the paper stresses that "a hash table has many different dimensions
//! which influence performance dramatically".
//!
//! This crate materialises those dimensions as interchangeable components:
//!
//! * [`hash_fn`] — hash functions over `u32` keys: [`Murmur3Finalizer`]
//!   (the paper's HG uses exactly this), [`Fibonacci`] multiplicative
//!   hashing, and [`Identity`];
//! * [`chaining`] — a chained table with per-node heap allocations,
//!   mirroring the memory behaviour of C++ `std::unordered_map` (the
//!   paper's HG baseline);
//! * [`linear_probing`] — open addressing with linear probing. Its
//!   [`first_seen`] pass numbers a column's distinct keys in first-seen
//!   order: HJ's slot map in `dqo-exec`, and the distinct count and dense
//!   key codes of a sparse column in `dqo-storage`;
//! * [`robin_hood`] — open addressing with Robin-Hood displacement.
//!
//! The two open-addressing tables share one layout: a `(key, group id)`
//! probe array at load ≤ 1/8 beside one dense array of states in
//! first-seen order, so they differ only in their probe scheme.
//!
//! These are the three hashing tables a plan's `TableMolecule` can name;
//! the static-perfect-hash and sorted-array molecules are the SPHG and BSG
//! kernels' own arrays in `dqo-exec`. All tables implement [`GroupTable`],
//! the narrow upsert-oriented interface the grouping operators need, so
//! the DQO optimiser can treat the table kind as a plan decision.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod chaining;
mod groups;
pub mod hash_fn;
pub mod linear_probing;
pub mod robin_hood;
pub mod table;

pub use chaining::ChainingTable;
pub use hash_fn::{Fibonacci, HashFn, Identity, Murmur3Finalizer};
pub use linear_probing::{first_seen, LinearProbingTable};
pub use robin_hood::RobinHoodTable;
pub use table::GroupTable;
