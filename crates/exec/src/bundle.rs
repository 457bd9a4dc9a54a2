//! Producer/consumer bundles — the Figure 2 formulation.
//!
//! The paper rewrites grouping as two physiological lines of code:
//!
//! ```text
//! 1. R → partitionBy(groupingKey) ⇒ R_partitions
//! 2. R_partitions ⇒ aggregate(...) ⇒ R'
//! ```
//!
//! where `⇒` *"denotes that an operation provides a bundle of independent
//! producers"*: partitioning a 42-group input yields 42 independent
//! producers, each semantically delivering the tuples of one group — with
//! **no** commitment to a physical implementation and no shoehorning of the
//! result into a single relation.
//!
//! [`Bundle`] is that abstraction. [`partition_by`] produces one
//! [`GroupProducer`] per group; [`aggregate_bundle`] folds each producer
//! independently (serially here; [`aggregate_bundle_parallel`] demonstrates
//! that the independence makes parallelism a drop-in molecule choice — one
//! of the implicit decisions Figure 1's textbook pseudo-code forecloses).

use crate::aggregate::Aggregator;
use crate::grouping::GroupedResult;

/// One independent producer: the rows of a single group.
///
/// Physically this is a list of row indices into the partitioned input —
/// one concrete choice among many (hash partitions, ranges, …); consumers
/// only rely on the produce-my-group contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupProducer {
    /// The group key this producer delivers.
    pub key: u32,
    /// Row indices of the group's tuples.
    pub rows: Vec<u32>,
}

impl GroupProducer {
    /// Yield the group's values from the backing columns.
    pub fn values<'a>(&'a self, values: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
        self.rows.iter().map(move |&r| values[r as usize])
    }
}

/// A bundle of independent producers — the `⇒` of Figure 2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bundle {
    /// The independent producers (one per group for `partition_by`).
    pub producers: Vec<GroupProducer>,
}

impl Bundle {
    /// Number of independent producers.
    pub fn len(&self) -> usize {
        self.producers.len()
    }

    /// True if the bundle is empty.
    pub fn is_empty(&self) -> bool {
        self.producers.is_empty()
    }
}

/// Line 1 of Figure 2: `R → partitionBy(groupingKey) ⇒ R_partitions`.
///
/// If the input produces 42 different groups, the bundle holds 42
/// producers. (Implementation: hash partitioning via sort of (key, row)
/// pairs — itself a swappable choice.)
pub fn partition_by(keys: &[u32]) -> Bundle {
    let mut tagged: Vec<(u32, u32)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect();
    tagged.sort_unstable();
    let mut producers: Vec<GroupProducer> = Vec::new();
    for (k, row) in tagged {
        match producers.last_mut() {
            Some(p) if p.key == k => p.rows.push(row),
            _ => producers.push(GroupProducer {
                key: k,
                rows: vec![row],
            }),
        }
    }
    Bundle { producers }
}

/// Line 2 of Figure 2: `R_partitions ⇒ aggregate(...) ⇒ R'`.
///
/// Each producer is aggregated with the same function, independently.
pub fn aggregate_bundle<A: Aggregator>(
    bundle: &Bundle,
    values: &[u32],
    agg: A,
) -> GroupedResult<A::State> {
    let mut keys = Vec::with_capacity(bundle.len());
    let mut states = Vec::with_capacity(bundle.len());
    for p in &bundle.producers {
        let mut state = A::State::default();
        for v in p.values(values) {
            agg.update(&mut state, v);
        }
        keys.push(p.key);
        states.push(state);
    }
    GroupedResult {
        keys,
        states,
        sorted_by_key: true, // partition_by orders producers by key
    }
}

/// The parallel-loop molecule: aggregate producers on worker threads.
///
/// Requires a decomposable aggregate ([`Aggregator::IS_DECOMPOSABLE`]) in
/// general; here each group is aggregated wholly by one worker so even
/// non-decomposable aggregates would be safe — the flag is asserted anyway
/// to model the optimiser's reasoning.
pub fn aggregate_bundle_parallel<A: Aggregator>(
    bundle: &Bundle,
    values: &[u32],
    agg: A,
    workers: usize,
) -> GroupedResult<A::State> {
    assert!(
        A::IS_DECOMPOSABLE,
        "parallel aggregation requires decomposability"
    );
    if bundle.is_empty() {
        return GroupedResult {
            keys: Vec::new(),
            states: Vec::new(),
            sorted_by_key: true,
        };
    }
    let workers = workers.max(1).min(bundle.len().max(1));
    let n = bundle.len();
    let mut states: Vec<A::State> = vec![A::State::default(); n];
    let chunk = n.div_ceil(workers);
    // The scope joins every worker and re-raises a worker's panic here.
    std::thread::scope(|scope| {
        for (pi, si) in bundle.producers.chunks(chunk).zip(states.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (p, s) in pi.iter().zip(si.iter_mut()) {
                    for v in p.values(values) {
                        agg.update(s, v);
                    }
                }
            });
        }
    });
    GroupedResult {
        keys: bundle.producers.iter().map(|p| p.key).collect(),
        states,
        sorted_by_key: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountSum;

    #[test]
    fn partition_by_yields_one_producer_per_group() {
        let keys = [7u32, 3, 7, 3, 3];
        let b = partition_by(&keys);
        assert_eq!(b.len(), 2);
        assert_eq!(b.producers[0].key, 3);
        assert_eq!(b.producers[0].rows, vec![1, 3, 4]);
        assert_eq!(b.producers[1].key, 7);
        assert_eq!(b.producers[1].rows, vec![0, 2]);
    }

    #[test]
    fn figure2_pipeline_equals_direct_grouping() {
        let keys = [2u32, 0, 2, 1, 0, 2];
        let vals = [10u32, 20, 30, 40, 50, 60];
        let bundle = partition_by(&keys);
        let r = aggregate_bundle(&bundle, &vals, CountSum);
        assert_eq!(r.keys, vec![0, 1, 2]);
        assert_eq!(
            r.states
                .iter()
                .map(|s| (s.count, s.sum))
                .collect::<Vec<_>>(),
            vec![(2, 70), (1, 40), (3, 100)]
        );
    }

    #[test]
    fn parallel_aggregation_matches_serial() {
        let keys: Vec<u32> = (0..10_000).map(|i| i % 42).collect(); // 42 groups, as in the paper's example
        let vals: Vec<u32> = (0..10_000).map(|i| i % 97).collect();
        let bundle = partition_by(&keys);
        assert_eq!(bundle.len(), 42);
        let serial = aggregate_bundle(&bundle, &vals, CountSum);
        for workers in [1, 2, 4, 8] {
            let par = aggregate_bundle_parallel(&bundle, &vals, CountSum, workers);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_input() {
        let b = partition_by(&[]);
        assert!(b.is_empty());
        let r = aggregate_bundle(&b, &[], CountSum);
        assert!(r.is_empty());
    }

    #[test]
    fn producer_value_iteration() {
        let p = GroupProducer {
            key: 1,
            rows: vec![0, 2],
        };
        let vals = [10u32, 11, 12];
        assert_eq!(p.values(&vals).collect::<Vec<_>>(), vec![10, 12]);
    }
}
