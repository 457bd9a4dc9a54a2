//! Dataset generators for the paper's experiments.
//!
//! §4.1: *"The datasets consist of 100 million 4 byte unsigned integer
//! values representing the grouping key. Each dataset is uniformly
//! distributed and has two properties, sortedness and density. Taking all
//! combination of those properties, we end up with four different
//! datasets."*
//!
//! [`DatasetSpec`] reproduces exactly that cross product at any scale, and
//! [`ForeignKeySpec`] builds the R ⋈ S inputs of §4.3 (S carries a foreign
//! key into R, so the join output size equals |S|). A Zipf generator is
//! provided as an extension for skew experiments.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::schema::{Field, Schema};
use crate::value::DataType;
use crate::Column;
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Specification of one Figure-4 dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Number of rows (the paper uses 100,000,000).
    pub rows: usize,
    /// Number of distinct grouping keys (the paper sweeps 1..=40,000).
    pub groups: usize,
    /// Sorted ascending vs shuffled.
    pub sorted: bool,
    /// Dense key domain `[0, groups)` vs keys spread over the `u32` range.
    pub dense: bool,
    /// RNG seed — generation is fully deterministic.
    pub seed: u64,
}

impl DatasetSpec {
    /// A spec with the paper's defaults (unsorted, dense) at a given scale.
    pub fn new(rows: usize, groups: usize) -> Self {
        DatasetSpec {
            rows,
            groups,
            sorted: false,
            dense: true,
            seed: 0x5EED,
        }
    }

    /// Builder: set sortedness.
    pub fn sorted(mut self, sorted: bool) -> Self {
        self.sorted = sorted;
        self
    }

    /// Builder: set density.
    pub fn dense(mut self, dense: bool) -> Self {
        self.dense = dense;
        self
    }

    /// Builder: set seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generate the raw key column.
    ///
    /// Guarantees:
    /// * exactly `min(groups, rows)` distinct values occur (every group is
    ///   seeded once before uniform filling), so catalogs carry the exact
    ///   distinct counts the paper assumes known;
    /// * `dense` ⇒ the occurring values are exactly `0..distinct`;
    /// * `sorted` ⇒ ascending; otherwise uniformly shuffled.
    pub fn generate(&self) -> Result<Vec<u32>> {
        if self.groups == 0 && self.rows > 0 {
            return Err(StorageError::InvalidDatasetSpec(
                "groups must be > 0 when rows > 0".into(),
            ));
        }
        if self.rows == 0 {
            return Ok(Vec::new());
        }
        let groups = self.groups.min(self.rows);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let domain: Vec<u32> = if self.dense {
            (0..groups as u32).collect()
        } else {
            sparse_domain(groups, &mut rng)
        };
        let mut data = Vec::with_capacity(self.rows);
        // Seed every group once to make the distinct count exact …
        data.extend_from_slice(&domain);
        // … then fill uniformly, matching the paper's uniform distribution.
        for _ in groups..self.rows {
            let g = rng.random_range(0..groups);
            data.push(domain[g]);
        }
        if self.sorted {
            data.sort_unstable();
        } else {
            data.shuffle(&mut rng);
        }
        Ok(data)
    }

    /// Generate as a single-column relation named `key`.
    pub fn relation(&self) -> Result<Relation> {
        Ok(Relation::single_u32("key", self.generate()?))
    }
}

/// `n` distinct keys spread (quasi-)uniformly over the full `u32` range —
/// the paper's "sparse" domain. Keys are strictly increasing with random
/// jitter so the domain is reproducibly sparse and never accidentally dense.
fn sparse_domain(n: usize, rng: &mut StdRng) -> Vec<u32> {
    debug_assert!(n > 0);
    // Leave headroom so jitter cannot collide across steps: step >= 2.
    let step = ((u64::from(u32::MAX) / n as u64).max(2)) as u32;
    let mut keys = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let base = (i * u64::from(step)) as u32;
        let jitter = rng.random_range(0..step / 2 + 1);
        keys.push(base + jitter);
    }
    keys
}

/// Specification of the §4.3 join inputs.
///
/// `R(id u32 primary key, a u32 grouping attribute)` and
/// `S(r_id u32 foreign key into R.id, payload u32)`. The foreign-key
/// constraint makes the join output size exactly `|S|` (90,000 in the
/// paper). `R.a` has `groups` distinct values (20,000 in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKeySpec {
    /// |R| — the paper leaves this unstated; 25,000 reproduces Figure 5's
    /// factors (see EXPERIMENTS.md).
    pub r_rows: usize,
    /// |S| (= join output size under the FK constraint; paper: 90,000).
    pub s_rows: usize,
    /// Distinct values of the grouping attribute `R.a` (paper: 20,000).
    pub groups: usize,
    /// Is `R.id` sorted?
    pub r_sorted: bool,
    /// Is `S.r_id` sorted?
    pub s_sorted: bool,
    /// Dense key domains (ids `0..|R|`, groups `0..groups`) vs sparse.
    pub dense: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForeignKeySpec {
    /// The Figure-5 configuration.
    fn default() -> Self {
        ForeignKeySpec {
            r_rows: 25_000,
            s_rows: 90_000,
            groups: 20_000,
            r_sorted: true,
            s_sorted: true,
            dense: true,
            seed: 0xF16_5EED,
        }
    }
}

impl ForeignKeySpec {
    /// Generate `(R, S)`.
    pub fn generate(&self) -> Result<(Relation, Relation)> {
        if self.groups > self.r_rows {
            return Err(StorageError::InvalidDatasetSpec(format!(
                "groups ({}) cannot exceed |R| ({})",
                self.groups, self.r_rows
            )));
        }
        if self.r_rows == 0 && self.s_rows > 0 {
            return Err(StorageError::InvalidDatasetSpec(
                "S references R; R cannot be empty while S is not".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        // R.id: primary key, dense 0..|R| or sparse distinct keys.
        let mut ids: Vec<u32> = if self.dense {
            (0..self.r_rows as u32).collect()
        } else if self.r_rows == 0 {
            Vec::new()
        } else {
            sparse_domain(self.r_rows, &mut rng)
        };
        // R.a: grouping attribute with `groups` distinct values; keep it
        // aligned with ids before any shuffle so the pair stays consistent.
        let a_spec = DatasetSpec {
            rows: self.r_rows,
            groups: self.groups.max(1),
            sorted: true, // positionally correlated with sorted ids
            dense: self.dense,
            seed: self.seed ^ 0xA,
        };
        let mut a_vals = if self.r_rows == 0 {
            Vec::new()
        } else {
            a_spec.generate()?
        };

        if !self.r_sorted && self.r_rows > 1 {
            // Shuffle rows of R (id and a move together).
            let mut perm: Vec<usize> = (0..self.r_rows).collect();
            perm.shuffle(&mut rng);
            ids = perm.iter().map(|&i| ids[i]).collect();
            a_vals = perm.iter().map(|&i| a_vals[i]).collect();
        }

        // S.r_id: uniform draws from R.id — every S row matches exactly one
        // R row, so |R ⋈ S| = |S|.
        let mut r_id: Vec<u32> = (0..self.s_rows)
            .map(|_| ids[rng.random_range(0..self.r_rows.max(1))])
            .collect();
        if self.s_sorted {
            r_id.sort_unstable();
        }
        let payload: Vec<u32> = (0..self.s_rows)
            .map(|_| rng.random_range(0..1000))
            .collect();

        let r_schema = Schema::new(vec![
            Field::new("id", DataType::U32),
            Field::new("a", DataType::U32),
        ])?;
        let s_schema = Schema::new(vec![
            Field::new("r_id", DataType::U32),
            Field::new("payload", DataType::U32),
        ])?;
        let r = Relation::new(r_schema, vec![Column::U32(ids), Column::U32(a_vals)])?;
        let s = Relation::new(s_schema, vec![Column::U32(r_id), Column::U32(payload)])?;
        Ok((r, s))
    }
}

/// Zipf-distributed keys over a dense domain `[0, groups)` — an extension
/// beyond the paper's uniform datasets, used by the skew ablation.
///
/// Uses the classic inverse-CDF method over precomputed cumulative weights
/// (exact, O(groups) setup, O(log groups) per draw).
pub fn zipf_keys(rows: usize, groups: usize, exponent: f64, seed: u64) -> Vec<u32> {
    if rows == 0 || groups == 0 {
        return Vec::new();
    }
    let mut cdf = Vec::with_capacity(groups);
    let mut acc = 0.0f64;
    for k in 1..=groups {
        acc += 1.0 / (k as f64).powf(exponent);
        cdf.push(acc);
    }
    let total = acc;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let u: f64 = rng.random_range(0.0..total);
            // First index with cdf[i] >= u.
            let idx = cdf.partition_point(|&c| c < u);
            idx.min(groups - 1) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataProps;

    #[test]
    fn dense_sorted_dataset_properties() {
        let spec = DatasetSpec::new(10_000, 100).sorted(true).dense(true);
        let data = spec.generate().unwrap();
        let stats = DataProps::compute(&data);
        assert_eq!(stats.rows, 10_000);
        assert_eq!(stats.distinct, 100);
        assert_eq!((stats.min, stats.max), (0, 99));
        assert!(stats.sortedness.is_sorted());
        assert!(stats.density.is_dense());
    }

    #[test]
    fn dense_unsorted_dataset_properties() {
        let spec = DatasetSpec::new(10_000, 100).sorted(false).dense(true);
        let data = spec.generate().unwrap();
        let stats = DataProps::compute(&data);
        assert_eq!(stats.distinct, 100);
        assert!(stats.density.is_dense());
        assert!(!stats.sortedness.is_sorted());
    }

    #[test]
    fn sparse_dataset_is_sparse() {
        let spec = DatasetSpec::new(10_000, 100).sorted(false).dense(false);
        let data = spec.generate().unwrap();
        let stats = DataProps::compute(&data);
        assert_eq!(stats.distinct, 100);
        assert!(!stats.density.is_dense());
        // Keys really are spread out: max far beyond group count.
        assert!(stats.max > 1_000_000);
    }

    #[test]
    fn sparse_sorted_dataset() {
        let spec = DatasetSpec::new(5_000, 50).sorted(true).dense(false);
        let data = spec.generate().unwrap();
        let stats = DataProps::compute(&data);
        assert!(stats.sortedness.is_sorted());
        assert!(!stats.density.is_dense());
        assert_eq!(stats.distinct, 50);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::new(1_000, 10).seed(7);
        assert_eq!(spec.generate().unwrap(), spec.generate().unwrap());
        let other = DatasetSpec::new(1_000, 10).seed(8);
        assert_ne!(spec.generate().unwrap(), other.generate().unwrap());
    }

    #[test]
    fn groups_capped_at_rows() {
        let spec = DatasetSpec::new(5, 100);
        let data = spec.generate().unwrap();
        assert_eq!(data.len(), 5);
        assert_eq!(DataProps::compute(&data).distinct, 5);
    }

    #[test]
    fn zero_rows_ok_zero_groups_err() {
        assert!(DatasetSpec::new(0, 10).generate().unwrap().is_empty());
        assert!(DatasetSpec::new(10, 0).generate().is_err());
    }

    #[test]
    fn single_group() {
        let data = DatasetSpec::new(100, 1).generate().unwrap();
        assert!(data.iter().all(|&v| v == 0));
    }

    #[test]
    fn fk_join_output_size_is_s() {
        let spec = ForeignKeySpec {
            r_rows: 100,
            s_rows: 500,
            groups: 20,
            ..Default::default()
        };
        let (r, s) = spec.generate().unwrap();
        assert_eq!(r.rows(), 100);
        assert_eq!(s.rows(), 500);
        // Every S.r_id exists in R.id exactly once → join output = |S|.
        let ids: std::collections::HashSet<u32> = r
            .column("id")
            .unwrap()
            .as_u32()
            .unwrap()
            .iter()
            .copied()
            .collect();
        assert_eq!(ids.len(), 100); // PK
        for &fk in s.column("r_id").unwrap().as_u32().unwrap() {
            assert!(ids.contains(&fk));
        }
    }

    #[test]
    fn fk_sortedness_flags_respected() {
        let spec = ForeignKeySpec {
            r_rows: 200,
            s_rows: 300,
            groups: 10,
            r_sorted: false,
            s_sorted: true,
            ..Default::default()
        };
        let (r, s) = spec.generate().unwrap();
        let r_ids = r.column("id").unwrap().as_u32().unwrap();
        let s_ids = s.column("r_id").unwrap().as_u32().unwrap();
        assert!(!DataProps::compute(r_ids).sortedness.is_sorted());
        assert!(DataProps::compute(s_ids).sortedness.is_sorted());
    }

    #[test]
    fn fk_dense_ids_are_dense() {
        let (r, _) = ForeignKeySpec {
            r_rows: 50,
            s_rows: 10,
            groups: 5,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let stats = DataProps::compute(r.column("id").unwrap().as_u32().unwrap());
        assert!(stats.density.is_dense());
        assert_eq!(stats.distinct, 50);
    }

    #[test]
    fn fk_groups_exceeding_r_rejected() {
        let spec = ForeignKeySpec {
            r_rows: 10,
            s_rows: 10,
            groups: 20,
            ..Default::default()
        };
        assert!(spec.generate().is_err());
    }

    #[test]
    fn zipf_is_skewed_toward_small_keys() {
        let keys = zipf_keys(50_000, 100, 1.2, 42);
        assert_eq!(keys.len(), 50_000);
        let zero = keys.iter().filter(|&&k| k == 0).count();
        let tail = keys.iter().filter(|&&k| k == 99).count();
        assert!(
            zero > tail * 5,
            "zipf head ({zero}) should dominate tail ({tail})"
        );
        assert!(keys.iter().all(|&k| k < 100));
    }

    #[test]
    fn zipf_edge_cases() {
        assert!(zipf_keys(0, 10, 1.0, 1).is_empty());
        assert!(zipf_keys(10, 0, 1.0, 1).is_empty());
        let one_group = zipf_keys(10, 1, 1.0, 1);
        assert!(one_group.iter().all(|&k| k == 0));
    }
}
