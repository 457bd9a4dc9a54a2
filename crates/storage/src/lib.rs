//! # dqo-storage — columnar storage substrate for Deep Query Optimisation
//!
//! This crate provides the in-memory data substrate that every experiment in
//! the DQO reproduction runs on:
//!
//! * typed [`Column`]s and [`Relation`]s with a simple [`Schema`], each
//!   column in an append-only shared buffer that an INSERT extends in
//!   place ([`Column::concat`]),
//! * data properties ([`Sortedness`], [`Density`]) — the *plan properties*
//!   of the paper's §2.2 as they manifest on stored data,
//! * exact property detection ([`DataProps::compute`]) and its O(delta)
//!   twin for appends and merges ([`DataProps::fold`]),
//! * the paper's four benchmark datasets and foreign-key join inputs in
//!   [`datagen`],
//! * [`dictionary`] compression (dense dictionary codes are the paper's
//!   natural candidate for static perfect hashing), and its twin for
//!   sparse `u32` keys, order-preserving dense [`KeyCodes`].
//!
//! The design goal is faithfulness to the paper's experimental setup
//! (§4.1: 100M uniformly distributed `u32` grouping keys, with the
//! sortedness × density cross product) while remaining a reusable library.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod column;
pub mod csv;
pub mod datagen;
pub mod dictionary;
pub mod error;
pub mod key_codes;
pub mod partition;
pub mod properties;
pub mod relation;
pub mod schema;
pub mod selection;
pub mod value;
mod values;

pub use column::{Column, RowId};
pub use datagen::{DatasetSpec, ForeignKeySpec};
pub use dictionary::Dictionary;
pub use error::StorageError;
pub use key_codes::KeyCodes;
pub use partition::{
    PartitionMeta, PartitionScheme, PartitionSpec, PartitionedRelation, Partitioning,
};
pub use properties::{DataProps, Density, Seam, Sortedness, MIN_RUN};
pub use relation::{AppendedRelation, Relation};
pub use schema::{Field, Schema};
pub use selection::{
    mask_and, mask_range, narrow_rows, search_ranges, Blocks, Masked, Piece, Selection, SetBits,
    BLOCK_ROWS, SPARSE_BLOCK_ROWS,
};
pub use value::{DataType, Value};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, StorageError>;
