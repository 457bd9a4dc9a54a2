//! Partitioned base tables — range / hash partitioning on one `u32` column.
//!
//! A [`PartitionedRelation`] keeps the table's rows in one flat
//! [`Relation`] (so every existing operator works unchanged) plus a
//! [`Partitioning`] that maps each partition to a set of row ranges in the
//! flat relation, with a per-partition data generation clock for append
//! tracking.
//!
//! Routing is a pure function of the [`PartitionSpec`]: a row with
//! partition-column value `v` always lives in partition
//! [`PartitionSpec::route`]`(v)`. Plan-time pruning relies on exactly this
//! spec-level guarantee — a partition can be skipped for a predicate that
//! its *spec interval* cannot satisfy, regardless of what was appended
//! since the plan was cached — so pruning decisions never read the
//! partition's observed data.
//!
//! At registration the flat relation is rebuilt **partition-major** (one
//! contiguous range per partition, original row order preserved within a
//! partition). Appends land at the flat tail and are routed per row, so a
//! partition's row set becomes a list of ranges; only touched partitions'
//! data generations move.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::value::DataType;
use crate::Result;

/// How rows are routed to partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Range partitioning. `bounds` are strictly ascending *exclusive
    /// upper* bounds: partition `i < bounds.len()` covers
    /// `[bounds[i-1], bounds[i])` (with an implicit lower bound of `0` for
    /// partition 0) and a final partition covers `[bounds.last(),
    /// u32::MAX]`. Empty `bounds` means a single partition over the whole
    /// domain.
    Range {
        /// Exclusive upper bounds, strictly ascending.
        bounds: Vec<u32>,
    },
    /// Hash partitioning into `parts` buckets via a deterministic
    /// multiplicative hash.
    Hash {
        /// Number of buckets (>= 1).
        parts: usize,
    },
}

/// A partitioning specification: the routed column plus the scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Name of the routed column (must be a plain `u32` column).
    pub column: String,
    /// The routing scheme.
    pub scheme: PartitionScheme,
}

impl PartitionSpec {
    /// Range partitioning of `column` with the given exclusive upper
    /// bounds.
    pub fn range(column: impl Into<String>, bounds: Vec<u32>) -> Self {
        PartitionSpec {
            column: column.into(),
            scheme: PartitionScheme::Range { bounds },
        }
    }

    /// Hash partitioning of `column` into `parts` buckets.
    pub fn hash(column: impl Into<String>, parts: usize) -> Self {
        PartitionSpec {
            column: column.into(),
            scheme: PartitionScheme::Hash { parts },
        }
    }

    /// Number of partitions the scheme produces.
    pub fn part_count(&self) -> usize {
        match &self.scheme {
            PartitionScheme::Range { bounds } => bounds.len() + 1,
            PartitionScheme::Hash { parts } => *parts,
        }
    }

    /// Validate the spec in isolation (bounds ascending, bucket count).
    pub fn validate(&self) -> Result<()> {
        match &self.scheme {
            PartitionScheme::Range { bounds } => {
                if !bounds.windows(2).all(|w| w[0] < w[1]) {
                    return Err(StorageError::InvalidDatasetSpec(format!(
                        "range partition bounds must be strictly ascending: {bounds:?}"
                    )));
                }
                Ok(())
            }
            PartitionScheme::Hash { parts } => {
                if *parts == 0 {
                    return Err(StorageError::InvalidDatasetSpec(
                        "hash partitioning needs at least one bucket".into(),
                    ));
                }
                Ok(())
            }
        }
    }

    /// The partition a value routes to. Pure and total: the same value
    /// always routes to the same partition.
    pub fn route(&self, v: u32) -> usize {
        match &self.scheme {
            PartitionScheme::Range { bounds } => bounds.partition_point(|&b| b <= v),
            PartitionScheme::Hash { parts } => {
                // Fibonacci multiplicative hash — deterministic and cheap;
                // the shift spreads low-entropy (dense) keys across buckets.
                ((v.wrapping_mul(0x9E37_79B9) >> 15) as usize) % parts
            }
        }
    }

    /// The spec-level value interval `[lo, hi)` of range partition `i`
    /// (as `u64` so `u32::MAX` is representable exclusively). `None` for
    /// hash partitions, whose buckets have no contiguous interval.
    pub fn range_interval(&self, i: usize) -> Option<(u64, u64)> {
        match &self.scheme {
            PartitionScheme::Range { bounds } => {
                if i > bounds.len() {
                    return None;
                }
                let lo = if i == 0 { 0 } else { u64::from(bounds[i - 1]) };
                let hi = if i == bounds.len() {
                    u64::from(u32::MAX) + 1
                } else {
                    u64::from(bounds[i])
                };
                Some((lo, hi))
            }
            PartitionScheme::Hash { .. } => None,
        }
    }
}

/// One partition's physical placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMeta {
    /// Half-open row ranges in the flat relation, ascending and disjoint.
    pub ranges: Vec<(usize, usize)>,
    /// Bumps whenever an append touches this partition.
    pub data_generation: u64,
}

impl PartitionMeta {
    /// Number of rows in the partition.
    pub fn rows(&self) -> usize {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }
}

/// The full partition map of one table: spec + per-partition placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    spec: PartitionSpec,
    parts: Vec<PartitionMeta>,
}

impl Partitioning {
    /// The spec rows are routed by.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Per-partition placement, indexed by partition id.
    pub fn parts(&self) -> &[PartitionMeta] {
        &self.parts
    }

    /// Number of partitions.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Route every row of `col` and build the partition map from scratch
    /// (row order is taken as-is; ranges may be scattered).
    pub fn build(spec: PartitionSpec, col: &[u32]) -> Result<Partitioning> {
        spec.validate()?;
        let n = spec.part_count();
        let mut ranges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (row, &v) in col.iter().enumerate() {
            push_row(&mut ranges[spec.route(v)], row);
        }
        let parts = ranges
            .into_iter()
            .map(|ranges| PartitionMeta {
                ranges,
                data_generation: 0,
            })
            .collect();
        Ok(Partitioning { spec, parts })
    }

    /// Extend the map for rows appended at the flat tail
    /// (`col[old_rows..]`). Only partitions that received rows get their
    /// ranges extended and data generation bumped.
    pub fn extend_for_append(&self, col: &[u32], old_rows: usize) -> Partitioning {
        let mut parts = self.parts.clone();
        let mut touched = vec![false; parts.len()];
        for (off, &v) in col[old_rows..].iter().enumerate() {
            let p = self.spec.route(v);
            push_row(&mut parts[p].ranges, old_rows + off);
            touched[p] = true;
        }
        for (meta, touched) in parts.iter_mut().zip(touched) {
            if touched {
                meta.data_generation += 1;
            }
        }
        Partitioning {
            spec: self.spec.clone(),
            parts,
        }
    }

    /// The surviving partitions' row ranges in **flat row order** (sorted
    /// by start), one segment per per-partition range, adjacent ranges
    /// left unmerged. Scanning these in order yields rows in the same
    /// relative order as the flat relation — the bit-identity anchor for
    /// partitioned scans, which select exactly these ranges — and the
    /// parallel runtime seeds one sort run / morsel block per segment, so
    /// parallel work never crosses a partition boundary even when
    /// surviving partitions happen to be contiguous.
    pub fn flat_order_segments(&self, parts: &[usize]) -> Vec<(usize, usize)> {
        let mut ranges: Vec<(usize, usize)> = parts
            .iter()
            .filter_map(|&p| self.parts.get(p))
            .flat_map(|m| m.ranges.iter().copied())
            .collect();
        ranges.sort_unstable();
        ranges
    }

    /// Total rows across the given partitions.
    pub fn rows_in(&self, parts: &[usize]) -> usize {
        parts
            .iter()
            .filter_map(|&p| self.parts.get(p))
            .map(|m| m.rows())
            .sum()
    }

    /// Set every partition's data generation to `generation` — used when
    /// a full re-route invalidates all per-partition snapshots at once.
    pub fn with_data_generations(mut self, generation: u64) -> Partitioning {
        for meta in &mut self.parts {
            meta.data_generation = generation;
        }
        self
    }

    /// A deterministic fingerprint of the given partitions' data
    /// generations (FNV-1a over `(partition id, generation)` pairs).
    /// Distinct survivor sets or moved generations yield distinct
    /// fingerprints with overwhelming probability — the partition-level
    /// analogue of the table's data-generation clock, used to stamp
    /// feedback corrections so appends to *pruned* partitions don't
    /// invalidate them.
    pub fn generation_fingerprint(&self, parts: &[usize]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for &p in parts {
            mix(p as u64);
            mix(self.parts.get(p).map_or(0, |m| m.data_generation));
        }
        h
    }
}

/// Append `row` to a run list, extending the last range when contiguous.
fn push_row(ranges: &mut Vec<(usize, usize)>, row: usize) {
    match ranges.last_mut() {
        Some(last) if last.1 == row => last.1 = row + 1,
        _ => ranges.push((row, row + 1)),
    }
}

/// A relation stored partition-major with its partition map.
#[derive(Debug, Clone)]
pub struct PartitionedRelation {
    flat: Relation,
    partitioning: Partitioning,
}

impl PartitionedRelation {
    /// Partition `rel` by `spec`, rebuilding the flat relation
    /// partition-major (partition 0's rows first, each partition keeping
    /// its rows in original relative order).
    ///
    /// The partition column must be a plain `u32` column — dictionary
    /// codes carry no value order, so range bounds over them would be
    /// meaningless.
    pub fn new(rel: Relation, spec: PartitionSpec) -> Result<PartitionedRelation> {
        spec.validate()?;
        let col = partition_column(&rel, &spec.column)?;
        let n = spec.part_count();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (row, &v) in col.iter().enumerate() {
            buckets[spec.route(v)].push(row);
        }
        let order: Vec<usize> = buckets.into_iter().flatten().collect();
        let identity = order.iter().enumerate().all(|(i, &r)| i == r);
        let flat = if identity { rel } else { rel.gather(&order) };
        let flat_col = partition_column(&flat, &spec.column)?;
        let partitioning = Partitioning::build(spec.clone(), flat_col)?;
        // Partition-major construction: sanity-check one contiguous range
        // per non-empty partition.
        debug_assert!(partitioning.parts().iter().all(|m| m.ranges.len() <= 1));
        let flat = flat.clone();
        Ok(PartitionedRelation { flat, partitioning })
    }

    /// The flat relation (all partitions concatenated in placement
    /// order).
    pub fn flat(&self) -> &Relation {
        &self.flat
    }

    /// The partition map.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }
}

/// Borrow the partition column as `&[u32]`, rejecting non-`U32` columns.
pub(crate) fn partition_column<'a>(rel: &'a Relation, name: &str) -> Result<&'a [u32]> {
    let col = rel.column(name)?;
    if col.data_type() != DataType::U32 {
        return Err(StorageError::TypeMismatch {
            expected: DataType::U32,
            found: col.data_type(),
        });
    }
    col.as_u32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::Value;
    use crate::Column;

    fn rel(keys: Vec<u32>, payload: Vec<u32>) -> Relation {
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("p", DataType::U32),
        ])
        .unwrap();
        Relation::new(schema, vec![Column::U32(keys), Column::U32(payload)]).unwrap()
    }

    #[test]
    fn range_routing_matches_intervals() {
        let spec = PartitionSpec::range("k", vec![10, 20]);
        assert_eq!(spec.part_count(), 3);
        assert_eq!(spec.route(0), 0);
        assert_eq!(spec.route(9), 0);
        assert_eq!(spec.route(10), 1);
        assert_eq!(spec.route(19), 1);
        assert_eq!(spec.route(20), 2);
        assert_eq!(spec.route(u32::MAX), 2);
        assert_eq!(spec.range_interval(0), Some((0, 10)));
        assert_eq!(spec.range_interval(1), Some((10, 20)));
        assert_eq!(spec.range_interval(2), Some((20, u64::from(u32::MAX) + 1)));
        assert_eq!(spec.range_interval(3), None);
        // Every value lands inside its partition's spec interval.
        for v in [0u32, 5, 10, 15, 20, 1000, u32::MAX] {
            let (lo, hi) = spec.range_interval(spec.route(v)).unwrap();
            assert!(u64::from(v) >= lo && u64::from(v) < hi);
        }
    }

    #[test]
    fn hash_routing_is_deterministic_and_in_bounds() {
        let spec = PartitionSpec::hash("k", 7);
        for v in 0..1000u32 {
            let p = spec.route(v);
            assert!(p < 7);
            assert_eq!(p, spec.route(v));
        }
        // Dense keys actually spread across buckets.
        let mut seen = std::collections::HashSet::new();
        for v in 0..100u32 {
            seen.insert(spec.route(v));
        }
        assert!(seen.len() > 1);
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(PartitionSpec::range("k", vec![5, 5]).validate().is_err());
        assert!(PartitionSpec::range("k", vec![9, 3]).validate().is_err());
        assert!(PartitionSpec::hash("k", 0).validate().is_err());
        assert!(PartitionSpec::range("k", vec![]).validate().is_ok());
        assert!(PartitionSpec::hash("k", 1).validate().is_ok());
    }

    #[test]
    fn partition_major_construction_preserves_multiset_and_intra_order() {
        let r = rel(vec![25, 3, 17, 8, 99, 12], vec![0, 1, 2, 3, 4, 5]);
        let pr = PartitionedRelation::new(r, PartitionSpec::range("k", vec![10, 20])).unwrap();
        let keys = pr.flat().column("k").unwrap().as_u32().unwrap();
        // Partition-major: [3, 8] ++ [17, 12] ++ [25, 99], original order
        // kept inside each partition.
        assert_eq!(keys, &[3, 8, 17, 12, 25, 99]);
        let pay = pr.flat().column("p").unwrap().as_u32().unwrap();
        assert_eq!(pay, &[1, 3, 2, 5, 0, 4]);
        let parts = pr.partitioning().parts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].ranges, vec![(0, 2)]);
        assert_eq!(parts[1].ranges, vec![(2, 4)]);
        assert_eq!(parts[2].ranges, vec![(4, 6)]);
        assert!(parts.iter().all(|m| m.rows() == 2));
        assert!(parts.iter().all(|m| m.data_generation == 0));
    }

    #[test]
    fn empty_and_single_row_partitions() {
        let r = rel(vec![50, 51], vec![0, 1]);
        let pr = PartitionedRelation::new(r, PartitionSpec::range("k", vec![10, 50, 51])).unwrap();
        let parts = pr.partitioning().parts();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].rows(), 0); // [0, 10): empty
        assert_eq!(parts[1].rows(), 0); // [10, 50): empty
        assert_eq!(parts[2].rows(), 1); // [50, 51): single row
        assert_eq!(parts[3].rows(), 1); // [51, MAX]
        assert!(parts[0].ranges.is_empty());
    }

    #[test]
    fn non_u32_partition_column_rejected() {
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap();
        let r = Relation::new(schema, vec![Column::Str(vec![0, 1])]).unwrap();
        assert!(PartitionedRelation::new(r, PartitionSpec::range("s", vec![1])).is_err());
        let r2 = rel(vec![1], vec![2]);
        assert!(PartitionedRelation::new(r2, PartitionSpec::hash("missing", 2)).is_err());
    }

    #[test]
    fn extend_for_append_routes_tail_and_bumps_touched_generations() {
        let r = rel(vec![5, 15, 25], vec![0, 1, 2]);
        let pr = PartitionedRelation::new(r, PartitionSpec::range("k", vec![10, 20])).unwrap();
        let base = pr.partitioning().clone();
        // Append two rows: one into partition 0, one into partition 2.
        let appended = pr
            .flat()
            .append_rows(&[
                vec![Value::U32(7), Value::U32(3)],
                vec![Value::U32(30), Value::U32(4)],
            ])
            .unwrap();
        let col = appended.combined.column("k").unwrap().as_u32().unwrap();
        let next = base.extend_for_append(col, 3);
        assert_eq!(next.parts()[0].ranges, vec![(0, 1), (3, 4)]);
        assert_eq!(next.parts()[1].ranges, vec![(1, 2)]);
        assert_eq!(next.parts()[2].ranges, vec![(2, 3), (4, 5)]);
        assert_eq!(next.parts()[0].data_generation, 1);
        assert_eq!(next.parts()[1].data_generation, 0);
        assert_eq!(next.parts()[2].data_generation, 1);
        assert_eq!(next.parts()[0].rows(), 2);
        assert_eq!(next.parts()[2].rows(), 2);
        // Untouched partition keeps its old meta verbatim.
        assert_eq!(next.parts()[1], base.parts()[1]);
    }

    #[test]
    fn flat_order_segments_sort_without_merging() {
        let r = rel(vec![5, 15, 25], vec![0, 1, 2]);
        let pr = PartitionedRelation::new(r, PartitionSpec::range("k", vec![10, 20])).unwrap();
        let p = pr.partitioning();
        assert_eq!(
            p.flat_order_segments(&[0, 1, 2]),
            vec![(0, 1), (1, 2), (2, 3)]
        );
        assert_eq!(p.flat_order_segments(&[2, 0]), vec![(0, 1), (2, 3)]);
        assert_eq!(p.flat_order_segments(&[1]), vec![(1, 2)]);
        assert_eq!(p.flat_order_segments(&[]), Vec::<(usize, usize)>::new());
        assert_eq!(p.rows_in(&[0, 2]), 2);
    }

    #[test]
    fn generation_fingerprint_distinguishes_sets_and_generations() {
        let r = rel(vec![5, 15, 25], vec![0, 1, 2]);
        let pr = PartitionedRelation::new(r, PartitionSpec::range("k", vec![10, 20])).unwrap();
        let p = pr.partitioning();
        let f01 = p.generation_fingerprint(&[0, 1]);
        let f02 = p.generation_fingerprint(&[0, 2]);
        let f012 = p.generation_fingerprint(&[0, 1, 2]);
        assert_ne!(f01, f02);
        assert_ne!(f01, f012);
        // An append to partition 0 moves every fingerprint containing it …
        let appended = pr
            .flat()
            .append_rows(&[vec![Value::U32(1), Value::U32(9)]])
            .unwrap();
        let col = appended.combined.column("k").unwrap().as_u32().unwrap();
        let next = p.extend_for_append(col, 3);
        assert_ne!(next.generation_fingerprint(&[0, 1]), f01);
        // … but not the fingerprint of untouched partitions.
        assert_eq!(
            next.generation_fingerprint(&[1, 2]),
            p.generation_fingerprint(&[1, 2])
        );
    }

    #[test]
    fn hash_partitioning_covers_all_rows_exactly_once() {
        let keys: Vec<u32> = (0..500).map(|i| i * 7 % 101).collect();
        let pay: Vec<u32> = (0..500).collect();
        let r = rel(keys.clone(), pay);
        let pr = PartitionedRelation::new(r, PartitionSpec::hash("k", 16)).unwrap();
        let p = pr.partitioning();
        assert_eq!(p.rows_in(&(0..16).collect::<Vec<_>>()), 500);
        let segments = p.flat_order_segments(&(0..16).collect::<Vec<_>>());
        assert!(segments.windows(2).all(|w| w[0].1 == w[1].0), "tiling");
        assert_eq!((segments[0].0, segments[segments.len() - 1].1), (0, 500));
        // Multiset preserved.
        let mut orig = keys;
        let mut flat: Vec<u32> = pr.flat().column("k").unwrap().as_u32().unwrap().to_vec();
        orig.sort_unstable();
        flat.sort_unstable();
        assert_eq!(orig, flat);
        // Every flat row sits in the partition its value routes to.
        let flat_keys = pr.flat().column("k").unwrap().as_u32().unwrap();
        for (part, meta) in p.parts().iter().enumerate() {
            for &(s, e) in &meta.ranges {
                for &v in &flat_keys[s..e] {
                    assert_eq!(p.spec().route(v), part);
                }
            }
        }
    }

    #[test]
    fn single_partition_is_identity() {
        let r = rel(vec![9, 1, 5], vec![0, 1, 2]);
        let pr = PartitionedRelation::new(r.clone(), PartitionSpec::range("k", vec![])).unwrap();
        assert_eq!(pr.flat().column("k").unwrap(), r.column("k").unwrap());
        assert_eq!(pr.partitioning().part_count(), 1);
        assert_eq!(pr.partitioning().parts()[0].ranges, vec![(0, 3)]);
    }
}
