//! Data properties: the physical/statistical facts about stored data that
//! Deep Query Optimisation exploits.
//!
//! §2.2 of the paper: *"in DQO, an 'interesting order' is just one tiny
//! special case. Other cases include … sparse vs dense, clustered,
//! partitioned, correlated, compressed, layout …"*. This module models the
//! two properties the paper's evaluation exercises — [`Sortedness`] and
//! [`Density`] — plus the distinct count ("we always assume the number of
//! distinct values to be known", §4.1), in a form shared by the data layer
//! and the optimiser. [`DataProps::compute`] derives them exactly from a
//! real column, so catalogs built from generated data carry truthful
//! statistics; [`DataProps::fold`] keeps them exact as rows arrive, at the
//! cost of the new rows rather than the column.

use dqo_hashtable::{first_seen, Fibonacci, GroupTable, LinearProbingTable};
use std::fmt;

/// The average number of rows per distinct key from which a column's
/// repeats pay for reading it by key rather than by row. HG and SPHG fold
/// runs of an ascending key, not rows, from runs this long on: over 1 Mi
/// sorted keys on a 2-core x86 box, SPHG and linear-probing HG fold runs of
/// one row 10–14 % slower than rows, break even at two to four rows, and
/// are 10–40 % faster from eight rows on. And the catalog keeps dense codes
/// ([`crate::KeyCodes`]) for an unsorted sparse key that repeats this often.
pub const MIN_RUN: u64 = 8;

/// The first-seen numbering of a column's keys (see [`first_seen`]).
pub(crate) type FirstSeen = (LinearProbingTable<u32, Fibonacci>, Vec<u32>);

/// Sort order of a key column.
///
/// The paper's model treats sortedness as a property of an *input* (Figure 4
/// datasets are "sorted" or "unsorted"); we additionally distinguish the
/// direction so order-based operators can verify their precondition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sortedness {
    /// Non-decreasing.
    Ascending,
    /// Non-increasing.
    Descending,
    /// No usable order.
    Unsorted,
}

impl Sortedness {
    /// True if any usable order is present.
    pub fn is_sorted(self) -> bool {
        !matches!(self, Sortedness::Unsorted)
    }

    /// The meet of two sortedness facts (used when merging partitions:
    /// the result is only sorted if both inputs agree on a direction).
    pub fn meet(self, other: Sortedness) -> Sortedness {
        if self == other {
            self
        } else {
            Sortedness::Unsorted
        }
    }
}

impl fmt::Display for Sortedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Sortedness::Ascending => "sorted(asc)",
            Sortedness::Descending => "sorted(desc)",
            Sortedness::Unsorted => "unsorted",
        };
        f.write_str(s)
    }
}

/// Density of a key domain.
///
/// §2.1: a static perfect hash (SPH) "is only applicable if the key domain of
/// the grouping key is (relatively) dense". We call a `u32` key column with
/// `d` distinct values over the value range `[min, max]` **dense** when
/// `d == max - min + 1` (every value in the range occurs — the SPH is then
/// *minimal*), and more generally record the fill factor so the optimiser
/// can decide whether a non-minimal SPH is still worthwhile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Density {
    /// Every key in `[min, max]` occurs; SPH over `max - min + 1` slots is
    /// minimal and perfect.
    Dense,
    /// Keys are spread over a domain larger than the distinct count.
    /// `fill` = distinct / (max - min + 1) ∈ (0, 1].
    Sparse {
        /// Fraction of the key range that is populated.
        fill: f64,
    },
    /// Unknown (no statistics).
    Unknown,
}

impl Density {
    /// Strict paper semantics: only exactly-dense domains admit SPH.
    pub fn is_dense(self) -> bool {
        matches!(self, Density::Dense)
    }
}

impl Eq for Density {}

impl fmt::Display for Density {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Density::Dense => f.write_str("dense"),
            Density::Sparse { fill } => write!(f, "sparse(fill={fill:.3})"),
            Density::Unknown => f.write_str("unknown-density"),
        }
    }
}

/// The bundle of data properties for one key column of one relation,
/// as consumed by the optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataProps {
    /// Sort order of the column.
    pub sortedness: Sortedness,
    /// Density of the key domain.
    pub density: Density,
    /// Exact number of distinct keys (the paper assumes this is known).
    pub distinct: u64,
    /// Minimum key value (valid when `distinct > 0`).
    pub min: u32,
    /// Maximum key value (valid when `distinct > 0`).
    pub max: u32,
    /// Number of rows.
    pub rows: u64,
}

impl DataProps {
    /// Properties of an empty column.
    pub fn empty() -> Self {
        DataProps {
            sortedness: Sortedness::Ascending, // vacuously sorted
            density: Density::Dense,           // vacuously dense
            distinct: 0,
            min: 0,
            max: 0,
            rows: 0,
        }
    }

    /// Exact properties of a `u32` key column: one pass for order and
    /// range, one for the distinct count — O(n) time and O(range/8) or
    /// O(n) space depending on the key range.
    pub fn compute(data: &[u32]) -> Self {
        Self::compute_numbered(data).0
    }

    /// [`DataProps::compute`], and the first-seen numbering of the keys
    /// when the distinct count came from one: a key range too wide for a
    /// bitmap is counted by [`first_seen`].
    pub(crate) fn compute_numbered(data: &[u32]) -> (Self, Option<FirstSeen>) {
        let Some(&first) = data.first() else {
            return (DataProps::empty(), None);
        };
        let (mut min, mut max) = (first, first);
        let (mut asc, mut desc) = (true, true);
        for w in data.windows(2) {
            asc &= w[0] <= w[1];
            desc &= w[0] >= w[1];
        }
        for &v in data {
            min = min.min(v);
            max = max.max(v);
        }
        let (distinct, numbered) = exact_distinct(data, min, max);
        let rows = data.len() as u64;
        let props = DataProps::from_parts(asc, desc, distinct, min, max, rows);
        (props, numbered)
    }

    /// Exact properties of this column after it gained `delta`'s values
    /// while its own rows kept their relative order — `seam` says where
    /// the delta rows landed. O(delta): the old column is read only next
    /// to the insertion points.
    ///
    /// Rows add and min/max fold. The distinct count is exact whenever no
    /// delta key falls inside a *sparse* old range: a dense range already
    /// holds every key in `[min, max]`, and keys outside it are new. Only
    /// then — a delta key inside a sparse range, which may or may not be
    /// new — does exactness need the whole column, and `None` says so
    /// (the caller runs [`DataProps::compute`]). Sortedness follows
    /// `compute`'s rules: an unsorted old column stays unsorted, and a
    /// sorted one stays sorted in a direction only if every pair the
    /// delta made adjacent agrees with it (a constant column is both
    /// ascending and descending, as in `compute`).
    pub fn fold(self, delta: &[u32], seam: Seam<'_>) -> Option<Self> {
        debug_assert_eq!(
            seam.old.len() as u64,
            self.rows,
            "seam is the folded column"
        );
        if self.rows == 0 {
            return Some(DataProps::compute(delta));
        }
        let inside = |v: &u32| (self.min..=self.max).contains(v);
        if !self.density.is_dense() && delta.iter().any(inside) {
            return None;
        }
        let (mut asc, mut desc) = match self.sortedness {
            Sortedness::Ascending => (true, self.min == self.max),
            Sortedness::Descending => (false, true),
            Sortedness::Unsorted => (false, false),
        };
        let slot = |j: usize| seam.at.map_or(seam.old.len(), |at| at[j]);
        for (j, &v) in delta.iter().enumerate() {
            if !(asc || desc) {
                break;
            }
            let p = slot(j);
            let prev = match j.checked_sub(1) {
                Some(i) if slot(i) == p => Some(delta[i]),
                _ => p.checked_sub(1).and_then(|i| seam.old.get(i).copied()),
            };
            let next = if j + 1 < delta.len() && slot(j + 1) == p {
                None
            } else {
                seam.old.get(p).copied()
            };
            for (a, b) in prev.map(|a| (a, v)).into_iter().chain(next.map(|b| (v, b))) {
                asc &= a <= b;
                desc &= a >= b;
            }
        }
        let new: Vec<u32> = delta.iter().copied().filter(|v| !inside(v)).collect();
        let gained = DataProps::compute(&new);
        let (min, max) = if new.is_empty() {
            (self.min, self.max)
        } else {
            (self.min.min(gained.min), self.max.max(gained.max))
        };
        let rows = self.rows + delta.len() as u64;
        Some(DataProps::from_parts(
            asc,
            desc,
            self.distinct + gained.distinct,
            min,
            max,
            rows,
        ))
    }

    /// The properties of a non-empty column from its order flags (every
    /// adjacent pair non-decreasing / non-increasing), distinct count,
    /// range and length — the one place sortedness and density are
    /// decided, for [`DataProps::compute`] and [`DataProps::fold`] alike.
    fn from_parts(asc: bool, desc: bool, distinct: u64, min: u32, max: u32, rows: u64) -> Self {
        let sortedness = if asc {
            Sortedness::Ascending
        } else if desc {
            Sortedness::Descending
        } else {
            Sortedness::Unsorted
        };
        let domain = u64::from(max) - u64::from(min) + 1;
        let density = if distinct == domain {
            Density::Dense
        } else {
            Density::Sparse {
                fill: distinct as f64 / domain as f64,
            }
        };
        DataProps {
            sortedness,
            density,
            distinct,
            min,
            max,
            rows,
        }
    }

    /// Size of the SPH domain (`max - min + 1`), i.e. the array length a
    /// static perfect hash over this column needs. `None` for empty columns.
    pub fn sph_domain(&self) -> Option<u64> {
        if self.rows == 0 {
            None
        } else {
            Some(u64::from(self.max) - u64::from(self.min) + 1)
        }
    }
}

impl Eq for DataProps {}

/// Where a delta's rows landed in a column whose old rows kept their
/// relative order (see [`DataProps::fold`]).
#[derive(Debug, Clone, Copy)]
pub struct Seam<'a> {
    /// The column before the delta arrived.
    pub old: &'a [u32],
    /// Delta row `j` sits right after the first `at[j]` old rows
    /// (non-decreasing in `j`); `None` when every delta row follows all
    /// old rows — an append.
    pub at: Option<&'a [usize]>,
}

/// Exact distinct count. Uses a bitmap when the value range is small
/// relative to n (cheap, cache-friendly), a first-seen numbering of the
/// keys otherwise, which it hands back.
fn exact_distinct(data: &[u32], min: u32, max: u32) -> (u64, Option<FirstSeen>) {
    let domain = u64::from(max) - u64::from(min) + 1;
    // Bitmap costs domain/8 bytes; the numbering 4 bytes per row plus a
    // probe array of 64–128 bytes per distinct key. Prefer the bitmap
    // while it is within 8x of the data size.
    if domain <= (data.len() as u64).saturating_mul(64).max(1 << 16) {
        let mut bits = vec![0u64; domain.div_ceil(64) as usize];
        let mut count = 0u64;
        for &v in data {
            let off = (v - min) as u64;
            let (word, bit) = ((off / 64) as usize, off % 64);
            let mask = 1u64 << bit;
            if bits[word] & mask == 0 {
                bits[word] |= mask;
                count += 1;
            }
        }
        (count, None)
    } else {
        let (map, ids) = first_seen(data);
        (map.len() as u64, Some((map, ids)))
    }
}

impl fmt::Display for DataProps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} (distinct={}, range=[{}, {}], rows={})",
            self.sortedness, self.density, self.distinct, self.min, self.max, self.rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sortedness_meet() {
        use Sortedness::*;
        assert_eq!(Ascending.meet(Ascending), Ascending);
        assert_eq!(Ascending.meet(Descending), Unsorted);
        assert_eq!(Unsorted.meet(Ascending), Unsorted);
        assert_eq!(Descending.meet(Descending), Descending);
    }

    #[test]
    fn sortedness_predicates() {
        assert!(Sortedness::Ascending.is_sorted());
        assert!(Sortedness::Descending.is_sorted());
        assert!(!Sortedness::Unsorted.is_sorted());
    }

    #[test]
    fn only_exactly_dense_domains_are_dense() {
        assert!(Density::Dense.is_dense());
        assert!(!Density::Sparse { fill: 0.99 }.is_dense());
    }

    #[test]
    fn sph_domain_of_empty_is_none() {
        assert_eq!(DataProps::empty().sph_domain(), None);
    }

    #[test]
    fn sph_domain_of_range() {
        let p = DataProps {
            sortedness: Sortedness::Unsorted,
            density: Density::Dense,
            distinct: 10,
            min: 5,
            max: 14,
            rows: 100,
        };
        assert_eq!(p.sph_domain(), Some(10));
    }

    #[test]
    fn sph_domain_handles_full_u32_range() {
        let p = DataProps {
            sortedness: Sortedness::Unsorted,
            density: Density::Sparse { fill: 1e-9 },
            distinct: 2,
            min: 0,
            max: u32::MAX,
            rows: 2,
        };
        assert_eq!(p.sph_domain(), Some(1u64 << 32));
    }

    #[test]
    fn compute_empty() {
        assert_eq!(DataProps::compute(&[]), DataProps::empty());
    }

    #[test]
    fn compute_single_value() {
        let p = DataProps::compute(&[42]);
        assert_eq!((p.rows, p.distinct), (1, 1));
        assert_eq!((p.min, p.max), (42, 42));
        assert_eq!(p.sortedness, Sortedness::Ascending); // also descending; asc wins
        assert_eq!(p.density, Density::Dense);
    }

    #[test]
    fn compute_sortedness() {
        let order = |d: &[u32]| DataProps::compute(d).sortedness;
        assert_eq!(order(&[1, 2, 2, 3]), Sortedness::Ascending);
        assert_eq!(order(&[3, 2, 2, 1]), Sortedness::Descending);
        assert_eq!(order(&[1, 3, 2]), Sortedness::Unsorted);
    }

    #[test]
    fn compute_density() {
        // 5..=9 fully populated.
        let p = DataProps::compute(&[7, 5, 9, 6, 8, 7]);
        assert_eq!(p.distinct, 5);
        assert_eq!(p.density, Density::Dense);
        // range 0..=9, distinct 2 → fill 0.2
        match DataProps::compute(&[0, 9, 0, 9]).density {
            Density::Sparse { fill } => assert!((fill - 0.2).abs() < 1e-12),
            other => panic!("expected sparse, got {other:?}"),
        }
    }

    #[test]
    fn compute_distinct_on_wide_and_narrow_ranges() {
        // Wide range forces the hash-set path.
        let wide: Vec<u32> = (0..1000).map(|i| i * 4_000_000).collect();
        assert_eq!(DataProps::compute(&wide).distinct, 1000);
        let narrow: Vec<u32> = (0..10_000).map(|i| i % 7).collect();
        let p = DataProps::compute(&narrow);
        assert_eq!(p.distinct, 7);
        assert_eq!(p.density, Density::Dense);
    }

    #[test]
    fn compute_bundle() {
        let p = DataProps::compute(&[2, 1, 3]);
        assert_eq!((p.rows, p.distinct), (3, 3));
        assert_eq!(p.sortedness, Sortedness::Unsorted);
        assert!(p.density.is_dense());
        assert_eq!(p.sph_domain(), Some(3));
    }

    #[test]
    fn compute_boundary_values() {
        let p = DataProps::compute(&[u32::MAX, 0]);
        assert_eq!((p.min, p.max), (0, u32::MAX));
        assert_eq!(p.distinct, 2);
        match p.density {
            Density::Sparse { fill } => assert!(fill > 0.0 && fill < 1e-9),
            other => panic!("expected sparse, got {other:?}"),
        }
    }

    fn appended(old: &[u32], delta: &[u32]) -> Option<DataProps> {
        DataProps::compute(old).fold(delta, Seam { old, at: None })
    }

    #[test]
    fn fold_of_an_append_is_compute_of_the_concatenation() {
        let cases: [(&[u32], &[u32]); 8] = [
            (&[], &[4, 2]),
            (&[5], &[3]), // compute(&[5, 3]) is descending
            (&[5, 5], &[5]),
            (&[5, 5], &[6]),
            (&[1, 2, 3], &[3, 9]),
            (&[3, 2, 1], &[0, 0]),
            (&[0, 1, 2], &[1]),
            (&[0, 1, 2], &[]),
        ];
        for (old, delta) in cases {
            let whole = [old, delta].concat();
            let want = Some(DataProps::compute(&whole));
            assert_eq!(appended(old, delta), want, "{old:?} ++ {delta:?}");
        }
    }

    #[test]
    fn fold_needs_the_column_only_for_keys_inside_a_sparse_range() {
        assert_eq!(appended(&[0, 10], &[5]), None);
        assert_eq!(appended(&[0, 10], &[10]), None);
        let widened = appended(&[0, 10], &[11, u32::MAX]).unwrap();
        assert_eq!(widened, DataProps::compute(&[0, 10, 11, u32::MAX]));
    }

    #[test]
    fn fold_of_a_merge_reads_the_insertion_points() {
        let old = [1, 2, 3, 4];
        let props = DataProps::compute(&old);
        let merged = |delta: &[u32], at: &[usize]| {
            let seam = Seam {
                old: &old,
                at: Some(at),
            };
            props.fold(delta, seam).unwrap()
        };
        assert_eq!(
            merged(&[0, 3, 5], &[0, 3, 4]),
            DataProps::compute(&[0, 1, 2, 3, 3, 4, 5])
        );
        assert_eq!(merged(&[9], &[0]), DataProps::compute(&[9, 1, 2, 3, 4]));
    }

    #[test]
    fn display_is_informative() {
        let p = DataProps {
            sortedness: Sortedness::Ascending,
            density: Density::Dense,
            distinct: 3,
            min: 0,
            max: 2,
            rows: 9,
        };
        let s = p.to_string();
        assert!(s.contains("sorted(asc)"));
        assert!(s.contains("dense"));
        assert!(s.contains("distinct=3"));
    }
}
