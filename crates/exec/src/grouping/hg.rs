//! Hash-based Grouping (HG) — §4.1.
//!
//! *"We use `std::unordered_map` as the underlying hash table and the
//! Murmur3 finaliser as hash function. Every input element is inserted
//! individually into the hash table."*
//!
//! [`hash_grouping_chaining`] reproduces that configuration via
//! `dqo-hashtable`'s chained table (per-node allocations ⇒ the cache-miss
//! growth visible in Figure 4). [`hash_grouping`] is generic over any
//! [`GroupTable`] so the DQO molecule ablation (E9) can swap the table
//! implementation and hash function without touching the operator.
//!
//! The open-addressing molecules a plan names for sparse and dense keys
//! (linear probing, Robin Hood) keep a `(key, group id)` probe array at
//! load ≤ 1/8 beside one dense state array indexed by group id, the
//! layout SPHG aggregates into. Both start small and double, so no call
//! site sizes them. At 1 024 sparse keys a row finds its key in the home
//! slot 92–94 % of the time under any of the three hashes (73–77 % at load
//! 1/2); see `dqo_hashtable::linear_probing`.

use crate::aggregate::Aggregator;
use crate::grouping::GroupedResult;
use dqo_hashtable::{
    ChainingTable, Fibonacci, GroupTable, Identity, LinearProbingTable, Murmur3Finalizer,
    RobinHoodTable,
};
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{HashFnMolecule, TableMolecule};

/// Hash grouping over any key→state table — the operator is one loop; the
/// *table* is the DQO decision.
pub fn hash_grouping<A, T>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    mut table: T,
) -> GroupedResult<A::State>
where
    A: Aggregator,
    T: GroupTable<A::State>,
{
    debug_assert_eq!(keys.len(), values.len());
    for (&k, &v) in keys.iter().zip(values) {
        let state = table.upsert_with(k, A::State::default);
        agg.update(state, v);
    }
    let (keys_out, states) = table.drain().into_iter().unzip();
    GroupedResult {
        keys: keys_out,
        states,
        sorted_by_key: false,
    }
}

/// The paper's HG: chaining table + Murmur3 finaliser, individual inserts.
pub fn hash_grouping_chaining<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    capacity: usize,
) -> GroupedResult<A::State> {
    hash_grouping(keys, values, agg, ChainingTable::with_capacity(capacity))
}

/// The backing-table molecule of HG: what the optimiser decides beneath
/// the organelle, for serial and parallel execution alike — each of the
/// three hashing tables under each hash function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HgTable {
    /// Chained buckets (the paper's configuration, with Murmur3).
    Chaining(HashFnMolecule),
    /// Open addressing, linear probing.
    LinearProbing(HashFnMolecule),
    /// Open addressing, Robin-Hood displacement.
    RobinHood(HashFnMolecule),
}

impl Default for HgTable {
    /// The paper's HG: chaining + Murmur3.
    fn default() -> Self {
        HgTable::Chaining(HashFnMolecule::Murmur3)
    }
}

/// A computation generic in the concrete table type: [`HgTable::run`]
/// resolves the molecule to a table factory once and hands it over.
pub trait WithTable<V> {
    /// What the computation returns.
    type Out;
    /// Run with `make` building fresh, empty tables of the chosen type.
    fn run<T: GroupTable<V> + Send>(self, make: impl Fn() -> T + Sync) -> Self::Out;
}

impl HgTable {
    /// Every table × hash pair, the paper's chaining + Murmur3 first.
    pub const ALL: [HgTable; 9] = {
        use HashFnMolecule::{Fibonacci as Fib, Identity as Id, Murmur3 as Mur};
        use HgTable::{Chaining as Ch, LinearProbing as Lp, RobinHood as Rh};
        [
            Ch(Mur),
            Ch(Fib),
            Ch(Id),
            Lp(Mur),
            Lp(Fib),
            Lp(Id),
            Rh(Mur),
            Rh(Fib),
            Rh(Id),
        ]
    };

    /// The HG table a plan's `{table=…, hash=…}` molecules name. A missing
    /// hash is Murmur3; a table that is not a hashing one (HG never
    /// carries one) is the paper's chaining.
    pub fn of(molecules: GroupingMolecules) -> HgTable {
        let hash = molecules.hash.unwrap_or(HashFnMolecule::Murmur3);
        match molecules.table {
            Some(TableMolecule::LinearProbing) => HgTable::LinearProbing(hash),
            Some(TableMolecule::RobinHood) => HgTable::RobinHood(hash),
            _ => HgTable::Chaining(hash),
        }
    }

    /// Run `user` with a factory for this molecule's tables; each starts
    /// empty and grows with its keys.
    pub fn run<V: Send, U: WithTable<V>>(self, user: U) -> U::Out {
        use HashFnMolecule::{Fibonacci as Fib, Identity as Id, Murmur3 as Mur};
        use HgTable::{Chaining as Ch, LinearProbing as Lp, RobinHood as Rh};
        match self {
            Ch(Mur) => user.run(ChainingTable::new),
            Ch(Fib) => user.run(|| ChainingTable::with_hasher(Fibonacci)),
            Ch(Id) => user.run(|| ChainingTable::with_hasher(Identity)),
            Lp(Mur) => user.run(|| LinearProbingTable::with_hasher(Murmur3Finalizer)),
            Lp(Fib) => user.run(|| LinearProbingTable::with_hasher(Fibonacci)),
            Lp(Id) => user.run(|| LinearProbingTable::with_hasher(Identity)),
            Rh(Mur) => user.run(|| RobinHoodTable::with_hasher(Murmur3Finalizer)),
            Rh(Fib) => user.run(|| RobinHoodTable::with_hasher(Fibonacci)),
            Rh(Id) => user.run(|| RobinHoodTable::with_hasher(Identity)),
        }
    }
}

/// HG over the table molecule `table` — the serial kernel behind a plan's
/// `{table=…, hash=…}` annotation.
pub fn hash_grouping_with<A: Aggregator>(
    keys: &[u32],
    values: &[u32],
    agg: A,
    table: HgTable,
) -> GroupedResult<A::State> {
    struct Serial<'a, A>(&'a [u32], &'a [u32], A);
    impl<A: Aggregator> WithTable<A::State> for Serial<'_, A> {
        type Out = GroupedResult<A::State>;
        fn run<T: GroupTable<A::State> + Send>(self, make: impl Fn() -> T + Sync) -> Self::Out {
            hash_grouping(self.0, self.1, self.2, make())
        }
    }
    table.run(Serial(keys, values, agg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{CountSum, FullAgg};

    fn sorted_triples(r: GroupedResult<crate::aggregate::CountSumState>) -> Vec<(u32, u64, u64)> {
        let mut r = r;
        r.sort_by_key();
        r.keys
            .iter()
            .zip(&r.states)
            .map(|(&k, s)| (k, s.count, s.sum))
            .collect()
    }

    #[test]
    fn counts_and_sums() {
        let keys = [5u32, 3, 5, 5, 3];
        let vals = [10u32, 20, 30, 40, 50];
        let r = hash_grouping_chaining(&keys, &vals, CountSum, 4);
        assert_eq!(sorted_triples(r), vec![(3, 2, 70), (5, 3, 80)]);
    }

    #[test]
    fn output_not_claimed_sorted() {
        let r = hash_grouping_chaining(&[2u32, 1], &[0, 0], CountSum, 2);
        assert!(!r.sorted_by_key);
    }

    #[test]
    fn empty_input() {
        let r = hash_grouping_chaining(&[], &[], CountSum, 0);
        assert!(r.is_empty());
    }

    #[test]
    fn single_group_many_rows() {
        let keys = vec![7u32; 10_000];
        let vals = vec![1u32; 10_000];
        let r = hash_grouping_chaining(&keys, &vals, CountSum, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.states[0].count, 10_000);
        assert_eq!(r.states[0].sum, 10_000);
    }

    #[test]
    fn table_variants_agree() {
        let keys: Vec<u32> = (0..5_000).map(|i| (i * 7919) % 257).collect();
        let vals: Vec<u32> = (0..5_000).map(|i| i % 100).collect();
        let a = sorted_triples(hash_grouping_chaining(&keys, &vals, CountSum, 257));
        for table in HgTable::ALL {
            let b = sorted_triples(hash_grouping_with(&keys, &vals, CountSum, table));
            assert_eq!(a, b, "{table:?}");
        }
    }

    #[test]
    fn full_aggregate_via_hg() {
        let keys = [1u32, 1, 2];
        let vals = [4u32, 6, 9];
        let mut r = hash_grouping_chaining(&keys, &vals, FullAgg, 2);
        r.sort_by_key();
        let s1 = &r.states[0];
        assert_eq!((s1.count, s1.sum, s1.min, s1.max), (2, 10, 4, 6));
        assert_eq!(s1.avg(), Some(5.0));
    }

    #[test]
    fn keys_sharing_their_low_bits_group_correctly_under_every_molecule() {
        // 1 024 keys, all multiples of 4 096: the shape that piled into one
        // probe run when Fibonacci's low product bits picked the bucket.
        // Beside them `u32::MAX`, the open-addressing tables' empty-slot
        // marker, as a real key.
        let keys: Vec<u32> = (0..50_000u32)
            .map(|i| match i % 97 {
                0 => u32::MAX,
                _ => (i * 7 % 1_024) << 12,
            })
            .collect();
        let vals: Vec<u32> = (0..50_000).map(|i| i % 100).collect();
        let mut oracle = std::collections::BTreeMap::<u32, (u64, u64)>::new();
        for (&k, &v) in keys.iter().zip(&vals) {
            let e = oracle.entry(k).or_default();
            *e = (e.0 + 1, e.1 + u64::from(v));
        }
        let oracle: Vec<(u32, u64, u64)> =
            oracle.into_iter().map(|(k, (c, s))| (k, c, s)).collect();
        assert_eq!(oracle.len(), 1_025);
        for table in HgTable::ALL {
            let r = hash_grouping_with(&keys, &vals, CountSum, table);
            assert_eq!(sorted_triples(r), oracle, "{table:?}");
        }
    }
}
