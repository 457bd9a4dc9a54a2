//! Binary Search-based Grouping (BSG) — §4.1.
//!
//! *"We store a mapping from grouping key to aggregate data inside a sorted
//! array. This allows us to perform binary search to lookup a group by its
//! key."*
//!
//! The probe cost is `O(log #groups)` per tuple (Table 2: `|R|·log₂ g`),
//! which is why BSG grows logarithmically with the group count in
//! Figure 4 (sorted-sparse) yet **beats HG for very small group counts**
//! (≤ ~14 in the paper's zoom-in): a 4-deep binary search over an L1-resident
//! array is cheaper than a hash + pointer chase.
//!
//! Building the sorted array assumes the key set is known — consistent with
//! §4.1's "we always assume the number of distinct values to be known".
//! [`binary_search_grouping_discover`] removes that assumption by paying an
//! extra sort+dedup pass (documented deviation, for end-to-end use).

use crate::aggregate::Aggregator;
use crate::grouping::GroupedResult;

/// BSG with a known key set (the paper's setting).
///
/// Keys not present in `known_keys` are aggregated too: the sorted array is
/// extended on first miss, keeping the operator total. With correct
/// statistics the extension path never runs.
pub fn binary_search_grouping<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    known_keys: &[u32],
) -> GroupedResult<A::State> {
    debug_assert_eq!(keys.len(), values.len());
    let mut sorted_keys: Vec<u32> = known_keys.to_vec();
    sorted_keys.sort_unstable();
    sorted_keys.dedup();
    run_bsg(keys, values, agg, sorted_keys)
}

/// BSG without prior knowledge: discover the key set with a sort+dedup
/// pass first (costs an extra `O(n log n)`, shown in the E9 ablation).
pub fn binary_search_grouping_discover<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
) -> GroupedResult<A::State> {
    let mut sorted_keys = keys.to_vec();
    sorted_keys.sort_unstable();
    sorted_keys.dedup();
    run_bsg(keys, values, agg, sorted_keys)
}

fn run_bsg<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    mut sorted_keys: Vec<u32>,
) -> GroupedResult<A::State> {
    let mut states: Vec<A::State> = vec![A::State::default(); sorted_keys.len()];
    let mut occupied = vec![false; sorted_keys.len()];
    for (&k, &v) in keys.iter().zip(values) {
        match sorted_keys.binary_search(&k) {
            Ok(i) => {
                occupied[i] = true;
                agg.update(&mut states[i], v);
            }
            Err(i) => {
                // Statistics were wrong; stay total (documented fallback).
                sorted_keys.insert(i, k);
                let mut st = A::State::default();
                agg.update(&mut st, v);
                states.insert(i, st);
                occupied.insert(i, true);
            }
        }
    }
    // Drop pre-declared keys that never occurred.
    let mut keys_out = Vec::with_capacity(sorted_keys.len());
    let mut states_out = Vec::with_capacity(sorted_keys.len());
    for ((k, s), occ) in sorted_keys.into_iter().zip(states).zip(occupied) {
        if occ {
            keys_out.push(k);
            states_out.push(s);
        }
    }
    GroupedResult {
        keys: keys_out,
        states: states_out,
        sorted_by_key: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountSum;

    #[test]
    fn groups_with_known_keys() {
        let keys = [10u32, 30, 10, 20, 30, 30];
        let vals = [1u32; 6];
        let r = binary_search_grouping(&keys, &vals, CountSum, &[10, 20, 30]);
        assert!(r.sorted_by_key);
        assert_eq!(r.keys, vec![10, 20, 30]);
        assert_eq!(
            r.states.iter().map(|s| s.count).collect::<Vec<_>>(),
            vec![2, 1, 3]
        );
    }

    #[test]
    fn unknown_key_fallback_stays_total() {
        let keys = [10u32, 99, 10];
        let vals = [1u32, 2, 3];
        let r = binary_search_grouping(&keys, &vals, CountSum, &[10]);
        assert_eq!(r.keys, vec![10, 99]);
        assert_eq!(r.states[0].sum, 4);
        assert_eq!(r.states[1].sum, 2);
    }

    #[test]
    fn declared_but_absent_keys_produce_no_groups() {
        let keys = [5u32, 5];
        let vals = [1u32, 1];
        let r = binary_search_grouping(&keys, &vals, CountSum, &[1, 5, 9]);
        assert_eq!(r.keys, vec![5]);
    }

    #[test]
    fn discovery_matches_known_keys_path() {
        let keys: Vec<u32> = (0..1000).map(|i| (i * 31) % 17).collect();
        let vals: Vec<u32> = (0..1000).map(|i| i % 5).collect();
        let known: Vec<u32> = (0..17).collect();
        let a = binary_search_grouping(&keys, &vals, CountSum, &known);
        let b = binary_search_grouping_discover(&keys, &vals, CountSum);
        assert_eq!(a, b);
    }

    #[test]
    fn known_keys_deduplicated_and_sorted_internally() {
        let keys = [2u32, 1];
        let vals = [1u32, 1];
        let r = binary_search_grouping(&keys, &vals, CountSum, &[2, 1, 2, 1, 1]);
        assert_eq!(r.keys, vec![1, 2]);
    }

    #[test]
    fn empty_inputs() {
        let r = binary_search_grouping(&[], &[], CountSum, &[]);
        assert!(r.is_empty());
        let r = binary_search_grouping_discover::<CountSum>(&[], &[], CountSum);
        assert!(r.is_empty());
    }

    #[test]
    fn sparse_domain_works() {
        // BSG's raison d'être: sparse keys where SPH is inapplicable.
        let keys = [4_000_000_000u32, 7, 4_000_000_000];
        let vals = [1u32, 2, 3];
        let r = binary_search_grouping(&keys, &vals, CountSum, &[7, 4_000_000_000]);
        assert_eq!(r.keys, vec![7, 4_000_000_000]);
        assert_eq!(r.states[1].sum, 4);
    }
}
