//! The named implementation alternatives at each granularity — the
//! *decisions* DQO makes. This is plan-side vocabulary only; `dqo-exec`
//! holds the code each name denotes, and `dqo-core` does the mapping.

use crate::granule::Granularity;
use std::fmt;

/// Organelle-level grouping implementations (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupingImpl {
    /// HG — hash-based grouping.
    Hg,
    /// SPHG — static perfect hash-based grouping (dense domains).
    Sphg,
    /// OG — order-based grouping (partitioned input).
    Og,
    /// SOG — sort & order-based grouping.
    Sog,
    /// BSG — binary-search-based grouping.
    Bsg,
}

impl GroupingImpl {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            GroupingImpl::Hg => "HG",
            GroupingImpl::Sphg => "SPHG",
            GroupingImpl::Og => "OG",
            GroupingImpl::Sog => "SOG",
            GroupingImpl::Bsg => "BSG",
        }
    }

    /// Needs the input partitioned/sorted by the grouping key.
    pub fn requires_sorted_input(self) -> bool {
        matches!(self, GroupingImpl::Og)
    }

    /// Needs a dense key domain.
    pub fn requires_dense_domain(self) -> bool {
        matches!(self, GroupingImpl::Sphg)
    }

    /// Output is sorted by group key.
    pub fn produces_sorted_output(self) -> bool {
        matches!(
            self,
            GroupingImpl::Sphg | GroupingImpl::Sog | GroupingImpl::Bsg
        )
    }

    /// All variants.
    pub fn all() -> [GroupingImpl; 5] {
        [
            GroupingImpl::Hg,
            GroupingImpl::Sphg,
            GroupingImpl::Og,
            GroupingImpl::Sog,
            GroupingImpl::Bsg,
        ]
    }
}

impl fmt::Display for GroupingImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Organelle-level join implementations (§4.3, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinImpl {
    /// HJ — hash join.
    Hj,
    /// OJ — merge join (both inputs sorted).
    Oj,
    /// SOJ — sort-merge join (sorting whichever inputs need it).
    Soj,
    /// SPHJ — static perfect hash join (dense build domain).
    Sphj,
    /// BSJ — binary-search join.
    Bsj,
}

impl JoinImpl {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            JoinImpl::Hj => "HJ",
            JoinImpl::Oj => "OJ",
            JoinImpl::Soj => "SOJ",
            JoinImpl::Sphj => "SPHJ",
            JoinImpl::Bsj => "BSJ",
        }
    }

    /// Needs both inputs sorted by the join key.
    pub fn requires_sorted_inputs(self) -> bool {
        matches!(self, JoinImpl::Oj)
    }

    /// Needs a dense build-side key domain.
    pub fn requires_dense_domain(self) -> bool {
        matches!(self, JoinImpl::Sphj)
    }

    /// Output ordered by join key.
    pub fn produces_sorted_output(self) -> bool {
        matches!(self, JoinImpl::Oj | JoinImpl::Soj)
    }

    /// All variants.
    pub fn all() -> [JoinImpl; 5] {
        [
            JoinImpl::Hj,
            JoinImpl::Oj,
            JoinImpl::Soj,
            JoinImpl::Sphj,
            JoinImpl::Bsj,
        ]
    }
}

impl fmt::Display for JoinImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Macro-molecule: which index structure backs a hash-style operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableMolecule {
    /// Chained buckets, per-node allocation (`std::unordered_map` shape).
    Chaining,
    /// Open addressing, linear probing.
    LinearProbing,
    /// Open addressing, Robin-Hood displacement.
    RobinHood,
    /// Static perfect hash array (dense domains).
    StaticPerfectHash,
    /// Sorted array with binary-search probes.
    SortedArray,
}

impl TableMolecule {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TableMolecule::Chaining => "chaining",
            TableMolecule::LinearProbing => "linear-probing",
            TableMolecule::RobinHood => "robin-hood",
            TableMolecule::StaticPerfectHash => "sph",
            TableMolecule::SortedArray => "sorted-array",
        }
    }

    /// Whether the molecule needs a hash function at all.
    pub fn uses_hash_function(self) -> bool {
        matches!(
            self,
            TableMolecule::Chaining | TableMolecule::LinearProbing | TableMolecule::RobinHood
        )
    }
}

impl fmt::Display for TableMolecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Molecule: hash function choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashFnMolecule {
    /// Murmur3 64-bit finaliser (the paper's HG choice).
    Murmur3,
    /// Fibonacci/multiplicative hashing.
    Fibonacci,
    /// Identity (keys already uniform).
    Identity,
}

impl fmt::Display for HashFnMolecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HashFnMolecule::Murmur3 => "murmur3",
            HashFnMolecule::Fibonacci => "fibonacci",
            HashFnMolecule::Identity => "identity",
        })
    }
}

/// Molecule: loop execution strategy — the paper's Figure 3(e) shows a
/// *parallel* load as one unnesting alternative where Figure 1's textbook
/// code silently assumed *serial* inserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopMolecule {
    /// One thread, in input order (the implicit textbook default).
    Serial,
    /// Partition-parallel workers (requires decomposable aggregates).
    Parallel,
}

impl fmt::Display for LoopMolecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoopMolecule::Serial => "serial",
            LoopMolecule::Parallel => "parallel",
        })
    }
}

/// Molecule: sort implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortMolecule {
    /// Pattern-defeating comparison sort.
    Comparison,
    /// LSB radix sort (4×8-bit passes).
    Radix,
}

impl fmt::Display for SortMolecule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SortMolecule::Comparison => "pdqsort",
            SortMolecule::Radix => "radix",
        })
    }
}

/// The granularity at which each vocabulary item sits — used by the deep
/// plan printer and the depth-capped enumerator.
pub fn granularity_of_table(_: TableMolecule) -> Granularity {
    Granularity::MacroMolecule
}

/// Hash functions are molecule-level decisions.
pub fn granularity_of_hash(_: HashFnMolecule) -> Granularity {
    Granularity::Molecule
}

/// Loop strategy is a molecule-level decision.
pub fn granularity_of_loop(_: LoopMolecule) -> Granularity {
    Granularity::Molecule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_metadata() {
        assert_eq!(GroupingImpl::Hg.abbrev(), "HG");
        assert!(GroupingImpl::Og.requires_sorted_input());
        assert!(GroupingImpl::Sphg.requires_dense_domain());
        assert!(GroupingImpl::Sog.produces_sorted_output());
        assert!(!GroupingImpl::Hg.produces_sorted_output());
        assert_eq!(GroupingImpl::all().len(), 5);
    }

    #[test]
    fn join_metadata() {
        assert!(JoinImpl::Oj.requires_sorted_inputs());
        assert!(!JoinImpl::Soj.requires_sorted_inputs());
        assert!(JoinImpl::Sphj.requires_dense_domain());
        assert!(JoinImpl::Oj.produces_sorted_output());
        assert_eq!(JoinImpl::all().len(), 5);
    }

    #[test]
    fn molecule_metadata() {
        assert!(TableMolecule::Chaining.uses_hash_function());
        assert!(!TableMolecule::StaticPerfectHash.uses_hash_function());
        assert!(!TableMolecule::SortedArray.uses_hash_function());
        assert_eq!(TableMolecule::StaticPerfectHash.to_string(), "sph");
    }

    #[test]
    fn granularity_assignments() {
        assert_eq!(
            granularity_of_table(TableMolecule::Chaining),
            Granularity::MacroMolecule
        );
        assert_eq!(
            granularity_of_hash(HashFnMolecule::Murmur3),
            Granularity::Molecule
        );
        assert_eq!(
            granularity_of_loop(LoopMolecule::Parallel),
            Granularity::Molecule
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(HashFnMolecule::Murmur3.to_string(), "murmur3");
        assert_eq!(LoopMolecule::Serial.to_string(), "serial");
        assert_eq!(SortMolecule::Radix.to_string(), "radix");
        assert_eq!(JoinImpl::Sphj.to_string(), "SPHJ");
    }
}
