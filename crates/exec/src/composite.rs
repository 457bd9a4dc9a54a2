//! Composite (multi-column) grouping keys.
//!
//! The sub-operator kernels in this crate all work on a single `u32` key
//! column — the paper's packed-value domain. A multi-column `GROUP BY`
//! reuses every one of them by **packing** the key tuple into one `u32`
//! code with a mixed-radix encoding: per column `i`, the normalised value
//! `kᵢ - minᵢ` is multiplied by the product of the spans of all later
//! columns. Packing is
//!
//! * **order-preserving** — packed codes compare exactly like the key
//!   tuples under lexicographic order, so sort-based kernels (SOG, the
//!   Merge Path parallel sort) and the deterministic parallel merges keep
//!   their total order;
//! * **density-preserving** — if every component domain is dense, the
//!   packed domain is a subset of `[0, Π spanᵢ)`, exactly the shape SPH
//!   arrays want (dictionary-coded `Str` columns are dense `0..n` by
//!   construction, §2.1);
//! * **fallible** — when `Π spanᵢ` exceeds the `u32` domain,
//!   [`KeyPacker::fit`] returns `None` and callers fall back to the
//!   row-wise [`rowwise_group`] kernel.

use crate::aggregate::Aggregator;
use crate::grouping::GroupedResult;
use std::collections::BTreeMap;

/// A fitted mixed-radix packing of `k` key columns into one `u32` code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPacker {
    /// Per-column minimum (subtracted before scaling).
    mins: Vec<u32>,
    /// Per-column span (`max - min + 1`).
    spans: Vec<u64>,
    /// Per-column stride (product of later spans; last stride is 1).
    strides: Vec<u64>,
}

impl KeyPacker {
    /// Fit a packer to the given key columns (all the same length).
    /// Returns `None` when the packed domain `Π (maxᵢ - minᵢ + 1)` does
    /// not fit the `u32` code space — the caller's signal to take the
    /// row-wise fallback.
    pub fn fit(columns: &[&[u32]]) -> Option<KeyPacker> {
        assert!(
            !columns.is_empty(),
            "composite key needs at least one column"
        );
        let rows = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "key columns must have equal lengths"
        );
        let mut mins = Vec::with_capacity(columns.len());
        let mut spans = Vec::with_capacity(columns.len());
        for col in columns {
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            for &v in *col {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if rows == 0 {
                (lo, hi) = (0, 0);
            }
            mins.push(lo);
            spans.push(u64::from(hi) - u64::from(lo) + 1);
        }
        // Strides right-to-left; bail out as soon as the product leaves
        // the u32 domain (checked in u128 so no intermediate overflow).
        let mut strides = vec![1u64; columns.len()];
        let mut product: u128 = spans[columns.len() - 1] as u128;
        for i in (0..columns.len() - 1).rev() {
            strides[i] = u64::try_from(product).ok()?;
            product *= spans[i] as u128;
        }
        if product > u128::from(u32::MAX) + 1 {
            return None;
        }
        Some(KeyPacker {
            mins,
            spans,
            strides,
        })
    }

    /// Number of key columns.
    pub fn width(&self) -> usize {
        self.mins.len()
    }

    /// Size of the packed domain (`Π spanᵢ`, ≤ 2³²).
    pub fn domain(&self) -> u64 {
        self.spans.iter().product()
    }

    /// Pack the key columns into one code column. The columns must be the
    /// ones the packer was fitted to (same mins/spans).
    pub fn pack(&self, columns: &[&[u32]]) -> Vec<u32> {
        assert_eq!(columns.len(), self.width());
        let rows = columns.first().map_or(0, |c| c.len());
        let mut out = vec![0u64; rows];
        for ((col, &min), &stride) in columns.iter().zip(&self.mins).zip(&self.strides) {
            for (acc, &v) in out.iter_mut().zip(*col) {
                *acc += u64::from(v - min) * stride;
            }
        }
        out.into_iter()
            .map(|v| u32::try_from(v).expect("fitted domain is within u32"))
            .collect()
    }

    /// Unpack one code back into its key tuple.
    pub fn unpack(&self, code: u32) -> Vec<u32> {
        let mut rest = u64::from(code);
        let mut out = Vec::with_capacity(self.width());
        for (&stride, &min) in self.strides.iter().zip(&self.mins) {
            let digit = rest / stride;
            rest %= stride;
            out.push(u32::try_from(digit).expect("digit < span ≤ u32") + min);
        }
        out
    }

    /// Unpack a code column into per-key-column vectors (column-major):
    /// column `i`'s digit is `code / strideᵢ mod spanᵢ`.
    pub fn unpack_columns(&self, codes: &[u32]) -> Vec<Vec<u32>> {
        let digits = self.strides.iter().zip(&self.spans).zip(&self.mins);
        digits
            .map(|((&stride, &span), &min)| {
                let digit = |code: u32| u64::from(code) / stride % span;
                codes.iter().map(|&c| digit(c) as u32 + min).collect()
            })
            .collect()
    }
}

/// Row-wise composite grouping — the graceful fallback when the packed
/// domain exceeds `u32`. Groups by the raw key tuple via a `BTreeMap`, so
/// the output is in ascending lexicographic tuple order: the **same
/// order** the packed kernels produce after their sorted merges, which
/// keeps serial, parallel-fallback and oracle paths bit-identical.
///
/// Returns the per-key-column output vectors plus the aggregate states.
pub fn rowwise_group<A: Aggregator>(
    key_columns: &[&[u32]],
    values: &[u32],
    agg: A,
) -> (Vec<Vec<u32>>, Vec<A::State>) {
    assert!(!key_columns.is_empty());
    let rows = key_columns[0].len();
    assert!(key_columns.iter().all(|c| c.len() == rows));
    assert_eq!(values.len(), rows);
    let mut groups: BTreeMap<Vec<u32>, A::State> = BTreeMap::new();
    let mut tuple = vec![0u32; key_columns.len()];
    for row in 0..rows {
        for (t, col) in tuple.iter_mut().zip(key_columns) {
            *t = col[row];
        }
        // Probe before insert: the tuple is only cloned the first time a
        // group appears, not once per row.
        match groups.get_mut(&tuple) {
            Some(state) => agg.update(state, values[row]),
            None => agg.update(groups.entry(tuple.clone()).or_default(), values[row]),
        }
    }
    let mut cols = vec![Vec::with_capacity(groups.len()); key_columns.len()];
    let mut states = Vec::with_capacity(groups.len());
    for (key, state) in groups {
        for (col, v) in cols.iter_mut().zip(key) {
            col.push(v);
        }
        states.push(state);
    }
    (cols, states)
}

/// Normalise a packed [`GroupedResult`] into per-key-column vectors plus
/// states, sorted ascending by packed code — the canonical composite
/// grouping output shape shared by the packed and row-wise paths.
pub fn unpack_grouped<S>(
    packer: &KeyPacker,
    mut result: GroupedResult<S>,
) -> (Vec<Vec<u32>>, Vec<S>) {
    result.sort_by_key();
    (packer.unpack_columns(&result.keys), result.states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{CountSum, FullAgg};
    use crate::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};

    #[test]
    fn pack_roundtrips_tuples() {
        let a: Vec<u32> = vec![3, 4, 3, 5];
        let b: Vec<u32> = vec![10, 10, 20, 30];
        let packer = KeyPacker::fit(&[&a, &b]).unwrap();
        let codes = packer.pack(&[&a, &b]);
        for (i, &code) in codes.iter().enumerate() {
            assert_eq!(packer.unpack(code), vec![a[i], b[i]]);
        }
        let cols = packer.unpack_columns(&codes);
        assert_eq!(cols[0], a);
        assert_eq!(cols[1], b);
    }

    #[test]
    fn packing_preserves_lexicographic_order() {
        let a: Vec<u32> = vec![1, 1, 2, 2, 0];
        let b: Vec<u32> = vec![9, 0, 0, 9, 5];
        let packer = KeyPacker::fit(&[&a, &b]).unwrap();
        let codes = packer.pack(&[&a, &b]);
        for i in 0..a.len() {
            for j in 0..a.len() {
                assert_eq!(
                    codes[i].cmp(&codes[j]),
                    (a[i], b[i]).cmp(&(a[j], b[j])),
                    "rows {i} vs {j}"
                );
            }
        }
    }

    #[test]
    fn dense_components_pack_densely() {
        // Two dense columns 0..4 × 0..3: packed domain is exactly 12.
        let a: Vec<u32> = (0..24).map(|i| i % 4).collect();
        let b: Vec<u32> = (0..24).map(|i| i % 3).collect();
        let packer = KeyPacker::fit(&[&a, &b]).unwrap();
        assert_eq!(packer.domain(), 12);
        let codes = packer.pack(&[&a, &b]);
        assert!(codes.iter().all(|&c| c < 12));
    }

    #[test]
    fn oversized_domains_refuse_to_fit() {
        let a: Vec<u32> = vec![0, u32::MAX];
        let b: Vec<u32> = vec![0, 2];
        assert!(KeyPacker::fit(&[&a, &b]).is_none());
        // A single max-range column still fits (span = 2^32 exactly).
        assert!(KeyPacker::fit(&[&a]).is_some());
    }

    #[test]
    fn empty_and_single_row_inputs() {
        let empty: Vec<u32> = vec![];
        let packer = KeyPacker::fit(&[&empty, &empty]).unwrap();
        assert!(packer.pack(&[&empty, &empty]).is_empty());
        let one = vec![7u32];
        let two = vec![9u32];
        let packer = KeyPacker::fit(&[&one, &two]).unwrap();
        let codes = packer.pack(&[&one, &two]);
        assert_eq!(packer.unpack(codes[0]), vec![7, 9]);
    }

    #[test]
    fn rowwise_matches_packed_kernel() {
        // Deterministic pseudo-random tuples over a packable domain.
        let mut x = 0x2545_F491u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let a: Vec<u32> = (0..500).map(|_| (next() % 7) as u32).collect();
        let b: Vec<u32> = (0..500).map(|_| (next() % 11) as u32 + 100).collect();
        let vals: Vec<u32> = (0..500).map(|_| (next() % 1000) as u32).collect();

        let packer = KeyPacker::fit(&[&a, &b]).unwrap();
        let packed = packer.pack(&[&a, &b]);
        let result = execute_grouping(
            GroupingAlgorithm::SortOrderBased,
            &packed,
            &vals,
            FullAgg,
            &GroupingHints::default(),
        )
        .unwrap();
        let (packed_cols, packed_states) = unpack_grouped(&packer, result);
        let (row_cols, row_states) = rowwise_group(&[&a, &b], &vals, FullAgg);
        assert_eq!(packed_cols, row_cols);
        assert_eq!(packed_states.len(), row_states.len());
        for (p, r) in packed_states.iter().zip(&row_states) {
            assert_eq!(
                (p.count, p.sum, p.min, p.max),
                (r.count, r.sum, r.min, r.max)
            );
        }
    }

    #[test]
    fn rowwise_group_orders_lexicographically() {
        let a = vec![2u32, 1, 2, 1];
        let b = vec![0u32, 5, 0, 3];
        let v = vec![1u32, 2, 3, 4];
        let (cols, states) = rowwise_group(&[&a, &b], &v, CountSum);
        assert_eq!(cols[0], vec![1, 1, 2]);
        assert_eq!(cols[1], vec![3, 5, 0]);
        let counts: Vec<u64> = states.iter().map(|s| s.count).collect();
        assert_eq!(counts, vec![1, 1, 2]);
        assert_eq!(states[2].sum, 4); // rows (2,0): values 1 + 3
    }
}
