//! Sort & Order-based Join (SOJ) — sort both inputs, then merge.
//!
//! Table 2: `|R|·log|R| + |S|·log|S| + |R| + |S|`. The sorts operate on
//! (key, original-row) pairs so the emitted indices refer to the *original*
//! input positions, and the merge is OJ's ([`crate::join::oj::merge`]).
//! When one input is already sorted the optimiser plans a partial SOJ
//! (a sort enforcer on the unsorted side, then OJ) — that asymmetry is
//! what makes Figure 5's R-unsorted/S-sorted cell 2.8× instead of 4×.
//!
//! The sorted views use the **canonical total order** (key, row): equal
//! keys come out in input order. That makes the output pair order a pure
//! function of the inputs — the contract the morsel-parallel SOJ
//! (`dqo-parallel::sort`) reproduces bit-for-bit at any DOP.

use crate::join::oj::merge;
use crate::join::JoinResult;

/// Sort-merge join over arbitrarily ordered inputs.
pub fn sort_merge_join(left_keys: &[u32], right_keys: &[u32]) -> JoinResult {
    let (left, right) = (sorted_view(left_keys), sorted_view(right_keys));
    merge(&left[..], 0..left.len(), &right[..], 0..right.len())
}

/// `keys` as `(key, row)` pairs in the canonical total order.
pub fn sorted_view(keys: &[u32]) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = keys.iter().copied().zip(0..).collect();
    // Tuple order = (key, row): a total order, so the "unstable" sort is
    // effectively stable and the view is canonical for any sort algorithm.
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::nested_loop_oracle;

    #[test]
    fn matches_oracle_on_unsorted_inputs() {
        let left = [9u32, 2, 5, 2];
        let right = [5u32, 2, 9, 9, 7];
        let r = sort_merge_join(&left, &right);
        assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
        assert!(r.sorted_by_key);
    }

    #[test]
    fn indices_refer_to_original_positions() {
        let left = [30u32, 10];
        let right = [10u32, 30];
        let r = sort_merge_join(&left, &right);
        // key 10: left row 1 ↔ right row 0; key 30: left row 0 ↔ right row 1.
        assert_eq!(r.normalised_pairs(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn duplicates_cross_product() {
        let r = sort_merge_join(&[4u32, 4, 4], &[4u32, 4]);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn empty_inputs() {
        assert!(sort_merge_join(&[], &[]).is_empty());
        assert!(sort_merge_join(&[1], &[]).is_empty());
    }
}
