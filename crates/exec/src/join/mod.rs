//! The join algorithm family — §4.3, Table 2.
//!
//! *"For the physical implementations of the joins, we assume the
//! algorithmic counterparts of our grouping implementations."* A join is a
//! co-group with two inputs (the paper's footnote 1), so each grouping
//! variant has a join twin:
//!
//! | Grouping | Join | Module | Cost (Table 2) |
//! |---|---|---|---|
//! | HG | HJ | [`index`] (hashed slot map) | `4·(|R|+|S|)` |
//! | OG | OJ | [`oj`] | `|R|+|S|` (both inputs sorted) |
//! | SOG | SOJ | [`soj`] | `|R|log|R| + |S|log|S| + |R|+|S|` |
//! | SPHG | SPHJ | [`index`] (identity slot map) | `|R|+|S|` (dense build domain) |
//! | BSG | BSJ | [`bsj`] | `(|R|+|S|)·log₂(#groups)` |
//!
//! HJ and SPHJ build one [`JoinIndex`] and probe it; they differ only in
//! how the index maps a key to its slot, as HG and SPHG differ only in
//! their tables. All joins are equi-joins on `u32` key columns and produce
//! row-index pairs; the executor gathers payload columns afterwards.

pub mod bsj;
pub mod index;
pub mod oj;
pub mod soj;

use crate::Result;
pub use dqo_plan::JoinAlgorithm;
pub use index::{JoinIndex, WithPosting};

/// The output of an equi-join: matching row-index pairs into the left and
/// right inputs, plus the output-order plan property.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinResult {
    /// Row indices into the left input.
    pub left_rows: Vec<u32>,
    /// Row indices into the right input (parallel to `left_rows`).
    pub right_rows: Vec<u32>,
    /// Whether output pairs are ordered by ascending join key.
    pub sorted_by_key: bool,
}

impl JoinResult {
    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.left_rows.len()
    }

    /// True if the join produced nothing.
    pub fn is_empty(&self) -> bool {
        self.left_rows.is_empty()
    }

    /// Normalise to (left, right) pairs sorted lexicographically — for
    /// result comparison in tests and oracles.
    pub fn normalised_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self
            .left_rows
            .iter()
            .copied()
            .zip(self.right_rows.iter().copied())
            .collect();
        pairs.sort_unstable();
        pairs
    }
}

/// Side information for join variants (catalog statistics).
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinHints {
    /// Min key of the build (left) side, for SPHJ.
    pub build_min: Option<u32>,
    /// Max key of the build (left) side, for SPHJ.
    pub build_max: Option<u32>,
}

/// Dispatch a join variant on two key columns.
pub fn execute_join(
    algo: JoinAlgorithm,
    left_keys: &[u32],
    right_keys: &[u32],
    hints: &JoinHints,
) -> Result<JoinResult> {
    match algo {
        JoinAlgorithm::HashBased => Ok(JoinIndex::hashed(left_keys).probe(right_keys)),
        JoinAlgorithm::OrderBased => oj::merge_join(left_keys, right_keys),
        JoinAlgorithm::SortOrderBased => Ok(soj::sort_merge_join(left_keys, right_keys)),
        JoinAlgorithm::StaticPerfectHash => {
            let (min, max) = match (hints.build_min, hints.build_max) {
                (Some(lo), Some(hi)) => (lo, hi),
                // An empty build side matches nothing over any domain.
                _ => min_max(left_keys).unwrap_or((0, 0)),
            };
            Ok(JoinIndex::identity(left_keys, min, max)?.probe(right_keys))
        }
        JoinAlgorithm::BinarySearch => Ok(bsj::binary_search_join(left_keys, right_keys)),
    }
}

fn min_max(keys: &[u32]) -> Option<(u32, u32)> {
    let mut it = keys.iter();
    let &first = it.next()?;
    let mut lo = first;
    let mut hi = first;
    for &k in it {
        lo = lo.min(k);
        hi = hi.max(k);
    }
    Some((lo, hi))
}

/// Naive nested-loop join — the test oracle every variant is checked
/// against (quadratic; tests only).
pub fn nested_loop_oracle(left_keys: &[u32], right_keys: &[u32]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, &lk) in left_keys.iter().enumerate() {
        for (j, &rk) in right_keys.iter().enumerate() {
            if lk == rk {
                out.push((i as u32, j as u32));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_agree_on_sorted_dense_inputs() {
        let left: Vec<u32> = vec![0, 1, 2, 3, 4];
        let right: Vec<u32> = vec![0, 0, 2, 2, 4, 9];
        let oracle = nested_loop_oracle(&left, &right);
        for algo in JoinAlgorithm::all() {
            let r = execute_join(algo, &left, &right, &JoinHints::default()).unwrap();
            assert_eq!(r.normalised_pairs(), oracle, "{algo} disagrees");
        }
    }

    #[test]
    fn join_result_helpers() {
        let r = JoinResult {
            left_rows: vec![1, 0],
            right_rows: vec![5, 6],
            sorted_by_key: false,
        };
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.normalised_pairs(), vec![(0, 6), (1, 5)]);
    }

    #[test]
    fn empty_inputs() {
        let hints = JoinHints {
            build_min: Some(0),
            build_max: Some(1),
        };
        for algo in JoinAlgorithm::all() {
            for hints in [JoinHints::default(), hints] {
                for (left, right) in [(&[][..], &[][..]), (&[], &[1]), (&[1], &[])] {
                    let r = execute_join(algo, left, right, &hints).unwrap();
                    assert!(r.is_empty(), "{algo} {left:?} {right:?}");
                }
            }
        }
    }
}
