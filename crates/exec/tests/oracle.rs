//! Cross-variant property tests: all grouping algorithms agree with a
//! BTreeMap oracle, all joins agree with the nested-loop oracle, under
//! arbitrary inputs satisfying each variant's precondition.

use dqo_exec::aggregate::{CountSum, CountSumState};
use dqo_exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
use dqo_exec::join::{execute_join, nested_loop_oracle, JoinAlgorithm, JoinHints};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn grouping_oracle(keys: &[u32], values: &[u32]) -> Vec<(u32, u64, u64)> {
    let mut m: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (&k, &v) in keys.iter().zip(values) {
        let e = m.entry(k).or_insert((0, 0));
        e.0 += 1;
        e.1 += u64::from(v);
    }
    m.into_iter().map(|(k, (c, s))| (k, c, s)).collect()
}

fn triples(mut r: dqo_exec::GroupedResult<CountSumState>) -> Vec<(u32, u64, u64)> {
    r.sort_by_key();
    r.keys
        .iter()
        .zip(&r.states)
        .map(|(&k, s)| (k, s.count, s.sum))
        .collect()
}

proptest! {
    // --- Grouping variants without preconditions ---

    #[test]
    fn hg_matches_oracle(
        rows in proptest::collection::vec((any::<u32>(), 0u32..1000), 0..800)
    ) {
        let (keys, vals): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
        let r = execute_grouping(
            GroupingAlgorithm::HashBased, &keys, &vals, CountSum, &GroupingHints::default(),
        ).unwrap();
        prop_assert_eq!(triples(r), grouping_oracle(&keys, &vals));
    }

    #[test]
    fn sog_matches_oracle(
        rows in proptest::collection::vec((any::<u32>(), 0u32..1000), 0..800)
    ) {
        let (keys, vals): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
        let r = execute_grouping(
            GroupingAlgorithm::SortOrderBased, &keys, &vals, CountSum, &GroupingHints::default(),
        ).unwrap();
        prop_assert!(r.sorted_by_key);
        prop_assert_eq!(triples(r), grouping_oracle(&keys, &vals));
    }

    #[test]
    fn bsg_discovery_matches_oracle(
        rows in proptest::collection::vec((any::<u32>(), 0u32..1000), 0..800)
    ) {
        let (keys, vals): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
        let r = execute_grouping(
            GroupingAlgorithm::BinarySearch, &keys, &vals, CountSum, &GroupingHints::default(),
        ).unwrap();
        prop_assert_eq!(triples(r), grouping_oracle(&keys, &vals));
    }

    // --- Variants with preconditions: inputs constructed to satisfy them ---

    #[test]
    fn og_matches_oracle_on_sorted_input(
        rows in proptest::collection::vec((0u32..100, 0u32..1000), 0..800)
    ) {
        let mut rows = rows;
        rows.sort_unstable_by_key(|r| r.0);
        let (keys, vals): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
        let r = execute_grouping(
            GroupingAlgorithm::OrderBased, &keys, &vals, CountSum, &GroupingHints::default(),
        ).unwrap();
        prop_assert_eq!(triples(r), grouping_oracle(&keys, &vals));
    }

    #[test]
    fn sphg_matches_oracle_on_dense_domain(
        rows in proptest::collection::vec((0u32..64, 0u32..1000), 1..800)
    ) {
        let (keys, vals): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
        let hints = GroupingHints { min: Some(0), max: Some(63), ..Default::default() };
        let r = execute_grouping(
            GroupingAlgorithm::StaticPerfectHash, &keys, &vals, CountSum, &hints,
        ).unwrap();
        prop_assert!(r.sorted_by_key);
        prop_assert_eq!(triples(r), grouping_oracle(&keys, &vals));
    }

    #[test]
    fn all_variants_agree_pairwise_on_friendly_input(
        rows in proptest::collection::vec((0u32..32, 0u32..100), 1..400)
    ) {
        // Sorted + dense input satisfies every precondition at once.
        let mut rows = rows;
        rows.sort_unstable_by_key(|r| r.0);
        let (keys, vals): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
        let hints = GroupingHints {
            min: Some(0),
            max: Some(31),
            distinct: Some(32),
            known_keys: Some((0..32).collect()),
        };
        let reference = grouping_oracle(&keys, &vals);
        for algo in GroupingAlgorithm::all() {
            let r = execute_grouping(algo, &keys, &vals, CountSum, &hints).unwrap();
            prop_assert_eq!(triples(r), reference.clone(), "{} disagrees", algo);
        }
    }

    // --- Joins ---

    #[test]
    fn hj_matches_nested_loop(
        left in proptest::collection::vec(0u32..50, 0..200),
        right in proptest::collection::vec(0u32..50, 0..200),
    ) {
        let r = execute_join(JoinAlgorithm::HashBased, &left, &right, &JoinHints::default()).unwrap();
        prop_assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
    }

    #[test]
    fn soj_matches_nested_loop(
        left in proptest::collection::vec(any::<u32>(), 0..200),
        right in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let r = execute_join(JoinAlgorithm::SortOrderBased, &left, &right, &JoinHints::default()).unwrap();
        prop_assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
    }

    #[test]
    fn bsj_matches_nested_loop(
        left in proptest::collection::vec(0u32..100, 0..200),
        right in proptest::collection::vec(0u32..100, 0..200),
    ) {
        let r = execute_join(JoinAlgorithm::BinarySearch, &left, &right, &JoinHints::default()).unwrap();
        prop_assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
    }

    #[test]
    fn oj_matches_nested_loop_on_sorted_inputs(
        mut left in proptest::collection::vec(0u32..100, 0..200),
        mut right in proptest::collection::vec(0u32..100, 0..200),
    ) {
        left.sort_unstable();
        right.sort_unstable();
        let r = execute_join(JoinAlgorithm::OrderBased, &left, &right, &JoinHints::default()).unwrap();
        prop_assert!(r.sorted_by_key);
        prop_assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
    }

    #[test]
    fn sphj_matches_nested_loop_on_dense_build(
        left in proptest::collection::vec(0u32..64, 1..200),
        right in proptest::collection::vec(0u32..128, 0..200),
    ) {
        let hints = JoinHints { build_min: Some(0), build_max: Some(63) };
        let r = execute_join(JoinAlgorithm::StaticPerfectHash, &left, &right, &hints).unwrap();
        prop_assert_eq!(r.normalised_pairs(), nested_loop_oracle(&left, &right));
    }

    #[test]
    fn fk_join_cardinality_invariant(
        s_rows in proptest::collection::vec(0u32..30, 0..300)
    ) {
        // PK ⋈ FK: output cardinality equals |S| for every variant.
        let left: Vec<u32> = (0..30).collect();
        let hints = JoinHints { build_min: Some(0), build_max: Some(29) };
        for algo in [JoinAlgorithm::HashBased, JoinAlgorithm::SortOrderBased,
                     JoinAlgorithm::StaticPerfectHash, JoinAlgorithm::BinarySearch] {
            let r = execute_join(algo, &left, &s_rows, &hints).unwrap();
            prop_assert_eq!(r.len(), s_rows.len(), "{}", algo);
        }
    }
}
