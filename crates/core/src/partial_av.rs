//! Partial Algorithmic Views — §6 of the paper.
//!
//! *"Rather than fully materialising parts of a deep query plan into an
//! AV, or, if we pick the other extreme, not materialising it at all,
//! there is an interesting middle-ground: It makes sense to partially
//! optimise an AV offline and leave some flexibility for DQO at query
//! time. Which portions should be left up for DQO at query time?"*
//!
//! A [`PartialAv`] freezes a prefix of the deep plan's decisions offline
//! (e.g. "use an index-based partition with a chaining table") and names
//! the decisions left **open** for query time (e.g. the hash function and
//! the load loop). [`PartialAv::complete`] closes the open decisions
//! against the observed input properties — the optimiser work that
//! remains per query, which [`PartialAv::query_time_decisions`] quantifies
//! for the offline-vs-query-time trade-off ablation (E8).

use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{HashFnMolecule, LoopMolecule, PlanProps, TableMolecule};
use std::fmt;

/// A decision deliberately left open for query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpenDecision {
    /// Which index structure backs the operator.
    TableKind,
    /// Which hash function the table uses.
    HashFunction,
    /// Serial vs parallel load loop.
    LoadLoop,
}

impl fmt::Display for OpenDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpenDecision::TableKind => "table-kind",
            OpenDecision::HashFunction => "hash-function",
            OpenDecision::LoadLoop => "load-loop",
        })
    }
}

/// A partially optimised grouping granule: some molecule decisions frozen
/// offline, the rest open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialAv {
    /// Human-readable name.
    pub name: String,
    /// Decisions already made offline (`None` fields are open).
    pub frozen: GroupingMolecules,
    /// The open decisions, in the order they will be closed.
    pub open: Vec<OpenDecision>,
}

impl PartialAv {
    /// A fully open partial AV (everything decided at query time — the
    /// "not materialising at all" extreme).
    pub fn fully_open(name: impl Into<String>) -> Self {
        PartialAv {
            name: name.into(),
            frozen: GroupingMolecules::default(),
            open: vec![
                OpenDecision::TableKind,
                OpenDecision::HashFunction,
                OpenDecision::LoadLoop,
            ],
        }
    }

    /// A fully frozen partial AV (the "fully materialised" extreme).
    pub fn fully_frozen(name: impl Into<String>, molecules: GroupingMolecules) -> Self {
        PartialAv {
            name: name.into(),
            frozen: molecules,
            open: Vec::new(),
        }
    }

    /// Freeze one decision offline, removing it from the open set.
    pub fn freeze(mut self, decision: OpenDecision, molecules: &GroupingMolecules) -> Self {
        match decision {
            OpenDecision::TableKind => self.frozen.table = molecules.table,
            OpenDecision::HashFunction => self.frozen.hash = molecules.hash,
            OpenDecision::LoadLoop => self.frozen.load_loop = molecules.load_loop,
        }
        self.open.retain(|d| *d != decision);
        self
    }

    /// Number of decisions that must still be made per query — the
    /// query-time optimisation effort this AV leaves behind.
    pub fn query_time_decisions(&self) -> usize {
        self.open.len()
    }

    /// Close the open decisions against observed input properties, without
    /// overriding anything frozen. The closing rules are the DQO defaults:
    ///
    /// * table kind: SPH on dense domains, sorted-array for tiny distinct
    ///   counts, otherwise chaining;
    /// * hash function: identity when keys are uniform over a dense
    ///   domain (hashing adds nothing), else Murmur3;
    /// * load loop: parallel for large inputs, serial otherwise.
    pub fn complete(&self, props: &PlanProps) -> GroupingMolecules {
        let mut m = self.frozen;
        for d in &self.open {
            match d {
                OpenDecision::TableKind => {
                    m.table = Some(if props.admits_sph() {
                        TableMolecule::StaticPerfectHash
                    } else if props.distinct.is_some_and(|d| d <= 16) {
                        TableMolecule::SortedArray
                    } else {
                        TableMolecule::Chaining
                    });
                }
                OpenDecision::HashFunction => {
                    let table = m.table.unwrap_or(TableMolecule::Chaining);
                    m.hash = table.uses_hash_function().then(|| {
                        if props.admits_sph() {
                            HashFnMolecule::Identity
                        } else {
                            HashFnMolecule::Murmur3
                        }
                    });
                }
                OpenDecision::LoadLoop => {
                    m.load_loop = Some(if props.rows >= 1_000_000 {
                        LoopMolecule::Parallel
                    } else {
                        LoopMolecule::Serial
                    });
                }
            }
        }
        m
    }
}

impl fmt::Display for PartialAv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let open: Vec<String> = self.open.iter().map(|d| d.to_string()).collect();
        write!(
            f,
            "PartialAV[{}: frozen={{table:{:?}, hash:{:?}, loop:{:?}}}, open={{{}}}]",
            self.name,
            self.frozen.table,
            self.frozen.hash,
            self.frozen.load_loop,
            open.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_storage::{Density, Sortedness};

    fn dense_props(rows: u64, distinct: u64) -> PlanProps {
        PlanProps {
            sortedness: Sortedness::Unsorted,
            partitioned: false,
            density: Density::Dense,
            distinct: Some(distinct),
            key_range: Some((0, distinct.max(1) as u32 - 1)),
            rows,
        }
    }

    #[test]
    fn fully_open_decides_everything_at_query_time() {
        let pav = PartialAv::fully_open("g");
        assert_eq!(pav.query_time_decisions(), 3);
        let m = pav.complete(&dense_props(100, 50));
        assert_eq!(m.table, Some(TableMolecule::StaticPerfectHash));
        assert_eq!(m.hash, None); // SPH needs no hash
        assert_eq!(m.load_loop, Some(LoopMolecule::Serial));
    }

    #[test]
    fn fully_frozen_ignores_properties() {
        let frozen = GroupingMolecules {
            table: Some(TableMolecule::Chaining),
            hash: Some(HashFnMolecule::Fibonacci),
            load_loop: Some(LoopMolecule::Serial),
        };
        let pav = PartialAv::fully_frozen("g", frozen);
        assert_eq!(pav.query_time_decisions(), 0);
        // Even on a dense domain, the frozen chaining choice stays —
        // that's the cost of freezing too much offline.
        let m = pav.complete(&dense_props(100, 50));
        assert_eq!(m, frozen);
    }

    #[test]
    fn freezing_reduces_query_time_work_monotonically() {
        let defaults = GroupingMolecules {
            table: Some(TableMolecule::RobinHood),
            hash: Some(HashFnMolecule::Murmur3),
            load_loop: Some(LoopMolecule::Serial),
        };
        let mut pav = PartialAv::fully_open("g");
        let mut last = pav.query_time_decisions();
        for d in [
            OpenDecision::TableKind,
            OpenDecision::HashFunction,
            OpenDecision::LoadLoop,
        ] {
            pav = pav.freeze(d, &defaults);
            assert_eq!(pav.query_time_decisions(), last - 1);
            last -= 1;
        }
        assert_eq!(pav.frozen, defaults);
    }

    #[test]
    fn open_table_kind_adapts_to_distinct_count() {
        let pav = PartialAv::fully_open("g");
        let tiny = PlanProps {
            density: Density::Unknown,
            key_range: None,
            ..dense_props(1_000, 8)
        };
        assert_eq!(pav.complete(&tiny).table, Some(TableMolecule::SortedArray));
        let sparse_many = PlanProps {
            density: Density::Sparse { fill: 0.001 },
            key_range: None,
            ..dense_props(1_000, 500)
        };
        assert_eq!(
            pav.complete(&sparse_many).table,
            Some(TableMolecule::Chaining)
        );
    }

    #[test]
    fn parallel_loop_for_large_inputs() {
        let pav = PartialAv::fully_open("g");
        let big = dense_props(10_000_000, 100);
        assert_eq!(pav.complete(&big).load_loop, Some(LoopMolecule::Parallel));
    }

    #[test]
    fn frozen_decisions_survive_completion() {
        let pav = PartialAv::fully_open("g").freeze(
            OpenDecision::TableKind,
            &GroupingMolecules {
                table: Some(TableMolecule::LinearProbing),
                ..Default::default()
            },
        );
        // Dense domain would suggest SPH, but table kind is frozen.
        let m = pav.complete(&dense_props(100, 50));
        assert_eq!(m.table, Some(TableMolecule::LinearProbing));
        // Hash function is still open and adapts (identity on dense).
        assert_eq!(m.hash, Some(HashFnMolecule::Identity));
    }

    #[test]
    fn display_names_open_decisions() {
        let pav = PartialAv::fully_open("grouping-av");
        let s = pav.to_string();
        assert!(s.contains("grouping-av"));
        assert!(s.contains("table-kind"));
        assert!(s.contains("hash-function"));
    }
}
