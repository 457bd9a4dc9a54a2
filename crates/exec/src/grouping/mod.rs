//! The five grouping implementation variants of §4.1.
//!
//! | Paper name | Module | Precondition | Probe cost (Table 2) |
//! |---|---|---|---|
//! | Hash-based Grouping (HG) | [`hg`] | — | `4·|R|` |
//! | Static Perfect Hash-based (SPHG) | [`sphg`] | dense key domain | `|R|` |
//! | Order-based (OG) | [`og`] | input partitioned by key | `|R|` |
//! | Sort & Order-based (SOG) | [`sog`] | — | `|R|·log|R| + |R|` |
//! | Binary Search-based (BSG) | [`bsg`] | known key set | `|R|·log(#groups)` |
//!
//! All variants compute their aggregates **on the fly** and store a mapping
//! from grouping key to aggregate data (§4.1); none materialises the input
//! groups as tuple sets.

pub mod bsg;
pub mod hg;
pub mod og;
pub mod sog;
pub mod sphg;

use crate::aggregate::Aggregator;
use crate::error::ExecError;
use crate::Result;
pub use dqo_plan::GroupingAlgorithm;
use dqo_plan::SortMolecule;

/// The result of a grouping operator: parallel arrays of group keys and
/// final aggregate states, plus the **output-order plan property** that DQO
/// must not discard (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedResult<S> {
    /// Group keys (one entry per distinct key encountered).
    pub keys: Vec<u32>,
    /// Aggregate state for `keys[i]`.
    pub states: Vec<S>,
    /// Whether `keys` is ascending — known for SPHG/OG/BSG, unknown (false)
    /// for black-box hash tables (the §2.1 observation).
    pub sorted_by_key: bool,
}

impl<S> GroupedResult<S> {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no groups.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sort groups by key (normalisation for comparisons and tests).
    pub fn sort_by_key(&mut self) {
        if self.sorted_by_key {
            return;
        }
        let mut idx: Vec<usize> = (0..self.keys.len()).collect();
        idx.sort_unstable_by_key(|&i| self.keys[i]);
        self.keys = idx.iter().map(|&i| self.keys[i]).collect();
        let mut states_opt: Vec<Option<S>> = self.states.drain(..).map(Some).collect();
        self.states = idx
            .iter()
            .map(|&i| states_opt[i].take().expect("permutation visits once"))
            .collect();
        self.sorted_by_key = true;
    }

    /// Lookup one group's state (binary search if sorted, linear otherwise).
    pub fn get(&self, key: u32) -> Option<&S> {
        if self.sorted_by_key {
            let i = self.keys.binary_search(&key).ok()?;
            Some(&self.states[i])
        } else {
            let i = self.keys.iter().position(|&k| k == key)?;
            Some(&self.states[i])
        }
    }
}

/// Side information a variant may need; produced by the catalog/optimiser
/// (the paper "always assume\[s\] the number of distinct values to be known",
/// §4.1).
#[derive(Debug, Clone, Default)]
pub struct GroupingHints {
    /// Minimum key (for SPHG's array base).
    pub min: Option<u32>,
    /// Maximum key (for SPHG's array length).
    pub max: Option<u32>,
    /// Exact distinct count (table pre-sizing).
    pub distinct: Option<u64>,
    /// The known key set (for BSG's pre-built sorted array).
    pub known_keys: Option<Vec<u32>>,
}

/// Dispatch a grouping variant by name — the entry point the plan executor
/// uses once the optimiser has decided the algorithm.
pub fn execute_grouping<A: Aggregator>(
    algo: GroupingAlgorithm,
    keys: &[u32],
    values: &[u32],
    agg: A,
    hints: &GroupingHints,
) -> Result<GroupedResult<A::State>> {
    check_lengths(keys, values)?;
    match algo {
        GroupingAlgorithm::HashBased => {
            let cap = hints.distinct.unwrap_or(16) as usize;
            Ok(hg::hash_grouping_chaining(keys, values, agg, cap))
        }
        GroupingAlgorithm::StaticPerfectHash => {
            let (min, max) = domain_of(keys, hints);
            sphg::sph_grouping(keys, values, agg, min, max)
        }
        GroupingAlgorithm::OrderBased => og::order_grouping(keys, values, agg),
        GroupingAlgorithm::SortOrderBased => Ok(sog::sort_order_grouping(
            keys,
            values,
            agg,
            SortMolecule::Comparison,
        )),
        GroupingAlgorithm::BinarySearch => match &hints.known_keys {
            Some(known) => Ok(bsg::binary_search_grouping(keys, values, agg, known)),
            None => Ok(bsg::binary_search_grouping_discover(keys, values, agg)),
        },
    }
}

fn check_lengths(keys: &[u32], values: &[u32]) -> Result<()> {
    if keys.len() != values.len() {
        return Err(ExecError::LengthMismatch {
            keys: keys.len(),
            values: values.len(),
        });
    }
    Ok(())
}

fn domain_of(keys: &[u32], hints: &GroupingHints) -> (u32, u32) {
    match (hints.min, hints.max) {
        (Some(lo), Some(hi)) => (lo, hi),
        _ => {
            let mut lo = u32::MAX;
            let mut hi = 0u32;
            for &k in keys {
                lo = lo.min(k);
                hi = hi.max(k);
            }
            if keys.is_empty() {
                (0, 0)
            } else {
                (lo, hi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CountSum;

    #[test]
    fn grouped_result_sort_and_get() {
        let mut r = GroupedResult {
            keys: vec![3, 1, 2],
            states: vec!["c", "a", "b"],
            sorted_by_key: false,
        };
        assert_eq!(r.get(1), Some(&"a"));
        r.sort_by_key();
        assert_eq!(r.keys, vec![1, 2, 3]);
        assert_eq!(r.states, vec!["a", "b", "c"]);
        assert_eq!(r.get(3), Some(&"c"));
        assert_eq!(r.get(9), None);
    }

    #[test]
    fn dispatch_rejects_length_mismatch() {
        let r = execute_grouping(
            GroupingAlgorithm::HashBased,
            &[1, 2],
            &[1],
            CountSum,
            &GroupingHints::default(),
        );
        assert!(matches!(r, Err(ExecError::LengthMismatch { .. })));
    }

    #[test]
    fn dispatch_all_variants_agree_on_dense_sorted_input() {
        let keys: Vec<u32> = vec![0, 0, 1, 1, 1, 2];
        let vals = keys.clone();
        let hints = GroupingHints {
            min: Some(0),
            max: Some(2),
            distinct: Some(3),
            known_keys: Some(vec![0, 1, 2]),
        };
        let mut reference: Option<Vec<(u32, u64, u64)>> = None;
        for algo in GroupingAlgorithm::all() {
            let mut r = execute_grouping(algo, &keys, &vals, CountSum, &hints).unwrap();
            r.sort_by_key();
            let triples: Vec<(u32, u64, u64)> = r
                .keys
                .iter()
                .zip(&r.states)
                .map(|(&k, s)| (k, s.count, s.sum))
                .collect();
            match &reference {
                None => reference = Some(triples),
                Some(expect) => assert_eq!(&triples, expect, "{algo} disagrees"),
            }
        }
        assert_eq!(reference.unwrap(), vec![(0, 2, 0), (1, 3, 3), (2, 1, 2)]);
    }
}
