//! Sort & Order-based Grouping (SOG) — §4.1.
//!
//! *"We do not require that the input data is partitioned by the grouping
//! key. Therefore, we first sort the data then we apply OG."*
//!
//! Figure 4's shapes fall out of the sort: on already-sorted input SOG
//! pays an unnecessary re-sort (slower than OG); on unsorted-dense input
//! with few distinct values the pattern-defeating sort finishes quickly
//! (the "steep rise until ~500 groups, then modest increase" the paper
//! reports). Which sort runs is the plan's [`SortMolecule`].

use crate::aggregate::Aggregator;
use crate::grouping::GroupedResult;
use crate::sort::{radix_sort_pairs_by_key, sort_pairs_by_key};
use dqo_plan::SortMolecule;

/// Sort a copy of the input by key with `sort`, then aggregate runs (OG
/// core).
pub fn sort_order_grouping<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    sort: SortMolecule,
) -> GroupedResult<A::State> {
    debug_assert_eq!(keys.len(), values.len());
    // Materialise (key, value) pairs — the sort must keep them aligned.
    let mut pairs: Vec<(u32, u32)> = keys.iter().copied().zip(values.iter().copied()).collect();
    match sort {
        SortMolecule::Comparison => sort_pairs_by_key(&mut pairs),
        SortMolecule::Radix => radix_sort_pairs_by_key(&mut pairs),
    }

    // OG core over the now-sorted pairs; the precondition holds by
    // construction so no partitioning check is needed.
    let mut keys_out: Vec<u32> = Vec::new();
    let mut states: Vec<A::State> = Vec::new();
    let mut i = 0usize;
    while i < pairs.len() {
        let run_key = pairs[i].0;
        let mut state = A::State::default();
        while i < pairs.len() && pairs[i].0 == run_key {
            agg.update(&mut state, pairs[i].1);
            i += 1;
        }
        keys_out.push(run_key);
        states.push(state);
    }
    GroupedResult {
        keys: keys_out,
        states,
        sorted_by_key: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountSum;

    const SORTS: [SortMolecule; 2] = [SortMolecule::Comparison, SortMolecule::Radix];

    #[test]
    fn groups_unsorted_input() {
        let keys = [3u32, 1, 3, 2, 1, 3];
        let vals = [30u32, 10, 31, 20, 11, 32];
        for sort in SORTS {
            let r = sort_order_grouping(&keys, &vals, CountSum, sort);
            assert!(r.sorted_by_key);
            assert_eq!(r.keys, vec![1, 2, 3]);
            assert_eq!(
                r.states
                    .iter()
                    .map(|s| (s.count, s.sum))
                    .collect::<Vec<_>>(),
                vec![(2, 21), (1, 20), (3, 93)],
                "{sort}"
            );
        }
    }

    #[test]
    fn values_stay_aligned_with_keys_through_sort() {
        let keys = [9u32, 1, 9];
        let vals = [100u32, 7, 200];
        for sort in SORTS {
            let r = sort_order_grouping(&keys, &vals, CountSum, sort);
            assert_eq!(r.keys, vec![1, 9]);
            assert_eq!(r.states[0].sum, 7);
            assert_eq!(r.states[1].sum, 300);
        }
    }

    #[test]
    fn empty_input() {
        for sort in SORTS {
            assert!(sort_order_grouping(&[], &[], CountSum, sort).is_empty());
        }
    }

    #[test]
    fn already_sorted_input_still_correct() {
        let keys = [1u32, 1, 2, 3];
        let r = sort_order_grouping(&keys, &keys, CountSum, SortMolecule::Comparison);
        assert_eq!(r.keys, vec![1, 2, 3]);
        assert_eq!(r.states[0].count, 2);
    }
}
