//! Binary Search Join (BSJ) — the join twin of BSG.
//!
//! The build side is sorted into a (key, row) array in the canonical total
//! order — equal keys in row order, as every sort granule emits them; every
//! probe is a binary search over it. Table 2 charges `(|R|+|S|)·log₂(#groups)`:
//! logarithmic per tuple on both sides, which — like BSG — wins against
//! hash joins only when the distinct-key count is tiny.

use crate::join::soj::sorted_view;
use crate::join::JoinResult;
use std::ops::Range;

/// Binary-search join: sort `left_keys`, probe with `right_keys`.
pub fn binary_search_join(left_keys: &[u32], right_keys: &[u32]) -> JoinResult {
    probe(&sorted_view(left_keys), right_keys, 0..right_keys.len())
}

/// The probes of `right_keys` at `rows` into the sorted `(key, row)` view
/// `build`: each finds its key's run by two binary searches and pairs
/// with the run's rows, probe by probe.
pub fn probe(build: &[(u32, u32)], right_keys: &[u32], rows: Range<usize>) -> JoinResult {
    let mut out = JoinResult::default();
    for j in rows {
        let k = right_keys[j];
        let lo = build.partition_point(|&(bk, _)| bk < k);
        let hi = lo + build[lo..].partition_point(|&(bk, _)| bk <= k);
        for &(_, li) in &build[lo..hi] {
            out.left_rows.push(li);
            out.right_rows.push(j as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::nested_loop_oracle;

    #[test]
    fn matches_oracle() {
        let left = [8u32, 1, 5, 5];
        let right = [5u32, 8, 2, 5];
        let r = binary_search_join(&left, &right);
        assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
    }

    #[test]
    fn duplicate_runs() {
        let r = binary_search_join(&[2u32, 2], &[2u32, 2, 2]);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn sparse_keys() {
        let left = [4_000_000_000u32, 10];
        let right = [10u32, 4_000_000_000, 11];
        let r = binary_search_join(&left, &right);
        assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
    }

    #[test]
    fn no_matches_and_empty() {
        assert!(binary_search_join(&[1, 2], &[3]).is_empty());
        assert!(binary_search_join(&[], &[]).is_empty());
        assert!(binary_search_join(&[], &[1]).is_empty());
    }
}
