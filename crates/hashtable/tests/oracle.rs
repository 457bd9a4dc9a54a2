//! Property tests: every table implementation agrees with a `BTreeMap`
//! oracle under arbitrary upsert workloads (within each table's domain
//! precondition), plus deterministic edge-key cases for the
//! open-addressing tables under every hash function.

use dqo_hashtable::hash_fn::{Fibonacci, HashFn, Identity, Murmur3Finalizer};
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
        let t: LinearProbingTable<u64, Fibonacci> = LinearProbingTable::with_hasher(Fibonacci);
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
        let t: RobinHoodTable<u64, Identity> = RobinHoodTable::with_hasher(Identity);
        prop_assert_eq!(run_table(t, &keys), oracle(&keys));
    }

    #[test]
    fn murmur3_is_injective_on_samples(a in any::<u32>(), b in any::<u32>()) {
        // fmix64 is bijective on u64, hence injective on u32 inputs.
        prop_assume!(a != b);
        let h = Murmur3Finalizer;
        prop_assert_ne!(h.hash(a), h.hash(b));
    }
}

/// The keys an open-addressing table must not trip over, each upserted
/// twice: the empty-slot marker `u32::MAX` (first, while the table is at
/// its starting size), `0`, 1 024 keys sharing their low 12 bits, and
/// 20 000 more distinct keys — enough to double the probe array well over
/// ten times from its starting size.
fn edge_keys() -> Vec<u32> {
    let mut keys = vec![u32::MAX, 0];
    keys.extend((1..=1_024u32).map(|i| i << 12));
    keys.extend((0..20_000u32).map(|i| i.wrapping_mul(2_654_435_761) | 1));
    let again = keys.clone();
    keys.extend(again.iter().rev());
    keys
}

/// Upsert `keys` into `table` and compare `len`, `get` (of every key and
/// of absent ones) and `drain` with the oracle; `drain` must also list the
/// keys in first-seen order.
fn check_edge_keys<T: GroupTable<u64>>(mut table: T, what: &str) {
    let keys = edge_keys();
    let mut expect: BTreeMap<u32, u64> = BTreeMap::new();
    let mut first_seen = Vec::new();
    for &k in &keys {
        *table.upsert_with(k, || 0) += 1;
        let n = expect.entry(k).or_insert(0);
        if *n == 0 {
            first_seen.push(k);
        }
        *n += 1;
    }
    assert_eq!(table.len(), expect.len(), "{what}: len");
    for (&k, &n) in &expect {
        assert_eq!(table.get(k), Some(&n), "{what}: get({k})");
    }
    for absent in [2u32, 4, 1 << 12 | 2, u32::MAX - 1] {
        assert!(!expect.contains_key(&absent));
        assert_eq!(table.get(absent), None, "{what}: get({absent})");
    }
    let drained = table.drain();
    let order: Vec<u32> = drained.iter().map(|&(k, _)| k).collect();
    assert_eq!(order, first_seen, "{what}: drain order");
    let mut drained = drained;
    drained.sort_unstable_by_key(|&(k, _)| k);
    assert_eq!(
        drained,
        expect.into_iter().collect::<Vec<_>>(),
        "{what}: drain"
    );
}

fn check_open_addressing<H: HashFn>(hash: H) {
    let name = hash.name();
    check_edge_keys(
        LinearProbingTable::with_hasher(hash),
        &format!("linear probing, {name}"),
    );
    check_edge_keys(
        RobinHoodTable::with_hasher(hash),
        &format!("robin hood, {name}"),
    );
}

#[test]
fn open_addressing_edge_keys_match_oracle_under_murmur3() {
    check_open_addressing(Murmur3Finalizer);
}

#[test]
fn open_addressing_edge_keys_match_oracle_under_fibonacci() {
    check_open_addressing(Fibonacci);
}

#[test]
fn open_addressing_edge_keys_match_oracle_under_identity() {
    check_open_addressing(Identity);
}
