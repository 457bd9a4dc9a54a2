//! Property tests: every table implementation agrees with a `BTreeMap`
//! oracle under arbitrary upsert workloads (within each table's domain
//! precondition).

use dqo_hashtable::hash_fn::{Fibonacci, Identity, Murmur3Finalizer};
use dqo_hashtable::{ChainingTable, GroupTable, LinearProbingTable, RobinHoodTable};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Run the counting workload on any table and return sorted (key, count).
fn run_table<T: GroupTable<u64>>(mut table: T, keys: &[u32]) -> Vec<(u32, u64)> {
    for &k in keys {
        *table.upsert_with(k, || 0) += 1;
    }
    assert_eq!(
        table.len(),
        keys.iter().collect::<std::collections::HashSet<_>>().len()
    );
    let mut out = table.drain();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

fn oracle(keys: &[u32]) -> Vec<(u32, u64)> {
    let mut m: BTreeMap<u32, u64> = BTreeMap::new();
    for &k in keys {
        *m.entry(k).or_insert(0) += 1;
    }
    m.into_iter().collect()
}

proptest! {
    #[test]
    fn chaining_murmur_matches_oracle(keys in proptest::collection::vec(any::<u32>(), 0..2000)) {
        prop_assert_eq!(run_table(ChainingTable::new(), &keys), oracle(&keys));
    }

    #[test]
    fn chaining_identity_matches_oracle(keys in proptest::collection::vec(0u32..512, 0..2000)) {
        let t: ChainingTable<u64, Identity> = ChainingTable::with_capacity_and_hasher(4, Identity);
        prop_assert_eq!(run_table(t, &keys), oracle(&keys));
    }

    #[test]
    fn linear_probing_matches_oracle(keys in proptest::collection::vec(any::<u32>(), 0..2000)) {
        prop_assert_eq!(run_table(LinearProbingTable::new(), &keys), oracle(&keys));
    }

    #[test]
    fn linear_probing_fibonacci_matches_oracle(keys in proptest::collection::vec(0u32..100, 0..2000)) {
        let t: LinearProbingTable<u64, Fibonacci> =
            LinearProbingTable::with_capacity_and_hasher(4, Fibonacci);
        prop_assert_eq!(run_table(t, &keys), oracle(&keys));
    }

    #[test]
    fn robin_hood_matches_oracle(keys in proptest::collection::vec(any::<u32>(), 0..2000)) {
        prop_assert_eq!(run_table(RobinHoodTable::new(), &keys), oracle(&keys));
    }

    #[test]
    fn robin_hood_identity_collisions_match_oracle(
        keys in proptest::collection::vec(0u32..64, 0..1000)
    ) {
        let t: RobinHoodTable<u64, Identity> =
            RobinHoodTable::with_capacity_and_hasher(4, Identity);
        prop_assert_eq!(run_table(t, &keys), oracle(&keys));
    }

    #[test]
    fn murmur3_is_injective_on_samples(a in any::<u32>(), b in any::<u32>()) {
        // fmix64 is bijective on u64, hence injective on u32 inputs.
        prop_assume!(a != b);
        let h = Murmur3Finalizer;
        use dqo_hashtable::HashFn;
        prop_assert_ne!(h.hash(a), h.hash(b));
    }
}
