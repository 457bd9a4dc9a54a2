//! The named implementation alternatives at each granularity — the
//! *decisions* DQO makes. Each decision is defined once, here: the
//! optimiser chooses among these names, EXPLAIN prints them, and the
//! `dqo-exec` / `dqo-parallel` kernels dispatch on the same types.

use std::fmt;

/// Organelle-level grouping implementations (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupingAlgorithm {
    /// HG — hash table (chaining + Murmur3 unless molecules say otherwise).
    HashBased,
    /// SPHG — array indexed by `key - min`; dense domains only.
    StaticPerfectHash,
    /// OG — one sequential pass; input must be partitioned by key.
    OrderBased,
    /// SOG — sort a copy, then OG.
    SortOrderBased,
    /// BSG — sorted key array + binary-search probes.
    BinarySearch,
}

impl GroupingAlgorithm {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            GroupingAlgorithm::HashBased => "HG",
            GroupingAlgorithm::StaticPerfectHash => "SPHG",
            GroupingAlgorithm::OrderBased => "OG",
            GroupingAlgorithm::SortOrderBased => "SOG",
            GroupingAlgorithm::BinarySearch => "BSG",
        }
    }

    /// Full name as in §4.1.
    pub fn name(self) -> &'static str {
        match self {
            GroupingAlgorithm::HashBased => "Hash-based Grouping",
            GroupingAlgorithm::StaticPerfectHash => "Static Perfect Hash-based Grouping",
            GroupingAlgorithm::OrderBased => "Order-based Grouping",
            GroupingAlgorithm::SortOrderBased => "Sort & Order-based Grouping",
            GroupingAlgorithm::BinarySearch => "Binary Search-based Grouping",
        }
    }

    /// Requires the input partitioned (e.g. sorted) by the grouping key.
    pub fn requires_partitioned_input(self) -> bool {
        matches!(self, GroupingAlgorithm::OrderBased)
    }

    /// Produces output sorted by group key (a plan property; §2.2).
    pub fn produces_sorted_output(self) -> bool {
        matches!(
            self,
            GroupingAlgorithm::StaticPerfectHash
                | GroupingAlgorithm::SortOrderBased
                | GroupingAlgorithm::BinarySearch
        )
    }

    /// All five variants, in the paper's presentation order.
    pub fn all() -> [GroupingAlgorithm; 5] {
        [
            GroupingAlgorithm::HashBased,
            GroupingAlgorithm::StaticPerfectHash,
            GroupingAlgorithm::OrderBased,
            GroupingAlgorithm::SortOrderBased,
            GroupingAlgorithm::BinarySearch,
        ]
    }
}

impl fmt::Display for GroupingAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Organelle-level join implementations (§4.3, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// HJ — hash join (build left, probe right).
    HashBased,
    /// OJ — merge join; both inputs must be sorted by the join key.
    OrderBased,
    /// SOJ — sort both inputs, then merge.
    SortOrderBased,
    /// SPHJ — static-perfect-hash join; build side domain must be dense.
    StaticPerfectHash,
    /// BSJ — binary-search join over the sorted build-key array.
    BinarySearch,
}

impl JoinAlgorithm {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            JoinAlgorithm::HashBased => "HJ",
            JoinAlgorithm::OrderBased => "OJ",
            JoinAlgorithm::SortOrderBased => "SOJ",
            JoinAlgorithm::StaticPerfectHash => "SPHJ",
            JoinAlgorithm::BinarySearch => "BSJ",
        }
    }

    /// Requires both inputs sorted by the join key.
    pub fn requires_sorted_inputs(self) -> bool {
        matches!(self, JoinAlgorithm::OrderBased)
    }

    /// Output ordered by join key.
    pub fn produces_sorted_output(self) -> bool {
        matches!(
            self,
            JoinAlgorithm::OrderBased | JoinAlgorithm::SortOrderBased
        )
    }

    /// All five variants.
    pub fn all() -> [JoinAlgorithm; 5] {
        [
            JoinAlgorithm::HashBased,
            JoinAlgorithm::OrderBased,
            JoinAlgorithm::SortOrderBased,
            JoinAlgorithm::StaticPerfectHash,
            JoinAlgorithm::BinarySearch,
        ]
    }
}

impl fmt::Display for JoinAlgorithm {
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

/// Molecule: sort implementation — for the serial sort enforcer and for
/// each run of the parallel sort alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortMolecule {
    /// Pattern-defeating comparison sort.
    Comparison,
    /// LSB radix sort (4×8-bit passes; stable, so ties keep row order).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_metadata() {
        use GroupingAlgorithm::*;
        assert_eq!(HashBased.abbrev(), "HG");
        assert!(OrderBased.requires_partitioned_input());
        assert!(SortOrderBased.produces_sorted_output());
        assert!(StaticPerfectHash.produces_sorted_output());
        assert!(!HashBased.produces_sorted_output());
        assert_eq!(GroupingAlgorithm::all().len(), 5);
    }

    #[test]
    fn join_metadata() {
        use JoinAlgorithm::*;
        assert_eq!(HashBased.abbrev(), "HJ");
        assert!(OrderBased.requires_sorted_inputs());
        assert!(!SortOrderBased.requires_sorted_inputs());
        assert!(OrderBased.produces_sorted_output());
        assert!(SortOrderBased.produces_sorted_output());
        assert!(!HashBased.produces_sorted_output());
        assert_eq!(JoinAlgorithm::all().len(), 5);
    }

    #[test]
    fn molecule_metadata() {
        assert!(TableMolecule::Chaining.uses_hash_function());
        assert!(!TableMolecule::StaticPerfectHash.uses_hash_function());
        assert!(!TableMolecule::SortedArray.uses_hash_function());
        assert_eq!(TableMolecule::StaticPerfectHash.to_string(), "sph");
    }

    #[test]
    fn display_names() {
        assert_eq!(HashFnMolecule::Murmur3.to_string(), "murmur3");
        assert_eq!(LoopMolecule::Serial.to_string(), "serial");
        assert_eq!(SortMolecule::Radix.to_string(), "radix");
        assert_eq!(SortMolecule::Comparison.to_string(), "pdqsort");
        assert_eq!(JoinAlgorithm::StaticPerfectHash.to_string(), "SPHJ");
        assert_eq!(GroupingAlgorithm::BinarySearch.to_string(), "BSG");
    }
}
