//! Plan properties — §2.2 of the paper.
//!
//! *"DQO plan properties have similarities to interesting orders in
//! sort-based operators. However, in DQO, an 'interesting order' is just
//! one tiny special case. Other cases include … sparse vs dense, clustered,
//! partitioned, correlated, compressed, layout …"*
//!
//! [`PlanProps`] is the property vector attached to every (sub-)plan; the
//! DP optimisers key their memo tables on it, exactly as System R keyed on
//! interesting orders. The **shallow projection** ([`PlanProps::shallow`])
//! forgets everything a shallow optimiser would not track (density,
//! distinct counts, partitioning) — running the same DP over projected
//! properties *is* SQO, which makes the SQO/DQO comparison an ablation of
//! the property vector rather than two separate optimisers.

use dqo_storage::{DataProps, Density, Sortedness};
use std::fmt;

/// The property vector of a (sub-)plan output, keyed on its primary key
/// column (join key upstream of a join, grouping key upstream of a
/// group-by).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanProps {
    /// Sort order of the key column.
    pub sortedness: Sortedness,
    /// Equal keys contiguous (weaker than sorted; what OG actually needs).
    pub partitioned: bool,
    /// Density of the key domain.
    pub density: Density,
    /// Exact distinct count of the key, if known.
    pub distinct: Option<u64>,
    /// Key range, if known (SPH array bounds).
    pub key_range: Option<(u32, u32)>,
    /// Estimated output cardinality.
    pub rows: u64,
}

impl PlanProps {
    /// Properties of a base-table key column, from catalog statistics.
    pub fn from_data(props: &DataProps) -> Self {
        PlanProps {
            sortedness: props.sortedness,
            partitioned: props.sortedness.is_sorted(),
            density: props.density,
            distinct: Some(props.distinct),
            key_range: (props.rows > 0).then_some((props.min, props.max)),
            rows: props.rows,
        }
    }

    /// Unknown-everything properties for a given cardinality.
    pub fn unknown(rows: u64) -> Self {
        PlanProps {
            sortedness: Sortedness::Unsorted,
            partitioned: false,
            density: Density::Unknown,
            distinct: None,
            key_range: None,
            rows,
        }
    }

    /// The *shallow* projection: what an SQO optimiser tracks. §4.3:
    /// *"SQO only considers data sortedness as in traditional dynamic
    /// programming"* — density, distinct counts, ranges and partitioning
    /// are forgotten (set to unknown/false).
    pub fn shallow(&self) -> Self {
        PlanProps {
            sortedness: self.sortedness,
            partitioned: self.sortedness.is_sorted(),
            density: Density::Unknown,
            distinct: self.distinct, // cardinalities are classic statistics
            key_range: None,
            rows: self.rows,
        }
    }

    /// Is the key column usable for a static perfect hash?
    pub fn admits_sph(&self) -> bool {
        self.density.is_dense() && self.key_range.is_some()
    }

    /// DP memo key: the facts that differentiate property states. Rows
    /// are not part of the key (identical for all plans of one relation
    /// set).
    pub fn memo_key(&self) -> PropKey {
        PropKey {
            sorted: self.sortedness.is_sorted(),
            partitioned: self.partitioned,
            dense: self.density.is_dense(),
        }
    }
}

impl fmt::Display for PlanProps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}, {}{}{}, rows={}]",
            self.sortedness,
            if self.partitioned {
                "partitioned"
            } else {
                "unpartitioned"
            },
            self.density,
            match self.distinct {
                Some(d) => format!(", distinct={d}"),
                None => String::new(),
            },
            match self.key_range {
                Some((lo, hi)) => format!(", range=[{lo},{hi}]"),
                None => String::new(),
            },
            self.rows
        )
    }
}

/// The discrete part of the property vector — the DP memo key dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropKey {
    /// Key sorted?
    pub sorted: bool,
    /// Key partitioned?
    pub partitioned: bool,
    /// Domain dense?
    pub dense: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_sorted(rows: u64) -> PlanProps {
        PlanProps {
            sortedness: Sortedness::Ascending,
            partitioned: true,
            density: Density::Dense,
            distinct: Some(10),
            key_range: Some((0, 9)),
            rows,
        }
    }

    #[test]
    fn from_data_bridges_storage_stats() {
        let dp = DataProps {
            sortedness: Sortedness::Ascending,
            density: Density::Dense,
            distinct: 5,
            min: 0,
            max: 4,
            rows: 50,
        };
        let p = PlanProps::from_data(&dp);
        assert!(p.partitioned);
        assert!(p.admits_sph());
        assert_eq!(p.key_range, Some((0, 4)));
        assert_eq!(p.rows, 50);
    }

    #[test]
    fn shallow_projection_forgets_density() {
        let p = dense_sorted(100);
        let s = p.shallow();
        assert!(p.admits_sph());
        assert!(!s.admits_sph()); // SQO can never choose SPH
        assert_eq!(s.sortedness, Sortedness::Ascending); // order survives
        assert_eq!(s.rows, 100);
    }

    #[test]
    fn memo_key_dimensions() {
        let a = dense_sorted(10).memo_key();
        assert_eq!(
            a,
            PropKey {
                sorted: true,
                partitioned: true,
                dense: true
            }
        );
        let b = PlanProps::unknown(10).memo_key();
        assert_eq!(
            b,
            PropKey {
                sorted: false,
                partitioned: false,
                dense: false
            }
        );
        assert_ne!(a, b);
    }

    #[test]
    fn display_is_informative() {
        let s = dense_sorted(42).to_string();
        assert!(s.contains("sorted(asc)"));
        assert!(s.contains("dense"));
        assert!(s.contains("rows=42"));
    }
}
