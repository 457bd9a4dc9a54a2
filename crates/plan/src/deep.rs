//! Deep plans and unnesting — the machinery of Figure 3.
//!
//! A [`DeepPlan`] is a tree whose nodes ([`Granule`]) may sit at *any*
//! granularity: a closed logical γ, the intermediate physiological
//! `partitionBy ⇒ aggregate` pair of Figure 2, or fully decided
//! macro-molecule/molecule choices (which index? which hash function?
//! serial or parallel load?).
//!
//! [`DeepPlan::unnest_root`] yields the alternative one-step expansions of
//! the root — the arrows of Figure 3, *including* the options the figure
//! shows being discarded. [`enumerate_grouping_plans`] drives unnesting to
//! fixpoint and returns every complete deep grouping plan; the textbook
//! hash-based grouping of Figure 1 is exactly one of them
//! ([`DeepPlan::equivalent_grouping_algorithm`] recovers the §4.1 names), which
//! is the paper's point: *"hash-based grouping is just one of many special
//! cases in a partition-based grouping algorithm."*

use crate::algorithms::{
    GroupingAlgorithm, HashFnMolecule, LoopMolecule, SortMolecule, TableMolecule,
};
use crate::granule::Granularity;
use std::fmt;

/// One node of a deep plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Granule {
    /// Figure 3(a): the unopened logical grouping operator γ.
    LogicalGroupBy,
    /// Figure 3(b) line 1: `R → partitionBy(key) ⇒ partitions`.
    PartitionBy,
    /// Figure 3(b) line 2: aggregate each producer of the bundle,
    /// independently (Γ over a bundle).
    AggregateBundle {
        /// How the per-partition aggregation loop runs.
        agg_loop: Option<LoopMolecule>,
    },
    /// Partitioning realised by bulk-loading an index (Figure 3(c)'s
    /// `bulkload` + `index scan` pair): the index type, its hash function
    /// and the load loop are still-open finer decisions.
    IndexBuild {
        /// Which index structure (macro-molecule).
        table: Option<TableMolecule>,
        /// Which hash function (molecule) — only for hashing tables.
        hash: Option<HashFnMolecule>,
        /// Serial or parallel load loop (molecule).
        load_loop: Option<LoopMolecule>,
    },
    /// Scanning the built index to emit partitions.
    IndexScan,
    /// Partitioning realised by sorting (the "sort-based …" branch
    /// Figure 3 discards at the first unnest).
    SortPartition {
        /// Which sort implementation (molecule).
        molecule: Option<SortMolecule>,
    },
    /// Input already partitioned: pass through (what OG exploits).
    PassThroughPartition,
    /// The input producer (stands for the subplan feeding the operator).
    Input,
}

impl Granule {
    /// The granularity this node sits at.
    pub fn granularity(&self) -> Granularity {
        match self {
            Granule::LogicalGroupBy => Granularity::Organelle,
            Granule::PartitionBy
            | Granule::AggregateBundle { agg_loop: None }
            | Granule::IndexScan
            | Granule::PassThroughPartition => Granularity::MacroMolecule,
            Granule::IndexBuild { table: None, .. } | Granule::SortPartition { molecule: None } => {
                Granularity::MacroMolecule
            }
            Granule::IndexBuild { .. }
            | Granule::SortPartition { .. }
            | Granule::AggregateBundle { .. } => Granularity::Molecule,
            Granule::Input => Granularity::Organelle,
        }
    }

    /// Whether every decision in this node is made.
    pub fn is_decided(&self) -> bool {
        match self {
            Granule::LogicalGroupBy | Granule::PartitionBy => false,
            Granule::AggregateBundle { agg_loop } => agg_loop.is_some(),
            Granule::IndexBuild {
                table,
                hash,
                load_loop,
            } => match table {
                None => false,
                Some(t) => load_loop.is_some() && (!t.uses_hash_function() || hash.is_some()),
            },
            Granule::SortPartition { molecule } => molecule.is_some(),
            Granule::IndexScan | Granule::PassThroughPartition | Granule::Input => true,
        }
    }
}

/// A deep plan tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeepPlan {
    /// This node.
    pub granule: Granule,
    /// Children (producers feeding this node).
    pub children: Vec<DeepPlan>,
}

impl DeepPlan {
    /// Leaf constructor.
    pub fn leaf(granule: Granule) -> Self {
        DeepPlan {
            granule,
            children: Vec::new(),
        }
    }

    /// Node constructor.
    pub fn node(granule: Granule, children: Vec<DeepPlan>) -> Self {
        DeepPlan { granule, children }
    }

    /// The Figure 3(a) starting point: a closed logical γ over an input.
    pub fn logical_grouping() -> Self {
        DeepPlan::node(
            Granule::LogicalGroupBy,
            vec![DeepPlan::leaf(Granule::Input)],
        )
    }

    /// Whether the whole tree is fully decided (no open choices).
    pub fn is_complete(&self) -> bool {
        self.granule.is_decided() && self.children.iter().all(DeepPlan::is_complete)
    }

    /// Number of decisions still open in the tree.
    pub fn open_decisions(&self) -> usize {
        usize::from(!self.granule.is_decided())
            + self
                .children
                .iter()
                .map(DeepPlan::open_decisions)
                .sum::<usize>()
    }

    /// The finest granularity present in the tree — the plan's *depth* on
    /// the physicality axis of Figure 3.
    pub fn physicality(&self) -> Granularity {
        let mine = self.granule.granularity();
        self.children
            .iter()
            .map(DeepPlan::physicality)
            .fold(mine, |a, b| a.max(b))
    }

    /// One-step unnesting of the **root** granule: all alternative
    /// expansions, leaving children untouched (the optimiser recurses).
    pub fn unnest_root(&self) -> Vec<DeepPlan> {
        match &self.granule {
            // Fig 3(a) → Fig 3(b): γ becomes partitionBy ⇒ aggregate-bundle.
            Granule::LogicalGroupBy => vec![DeepPlan::node(
                Granule::AggregateBundle { agg_loop: None },
                vec![DeepPlan::node(Granule::PartitionBy, self.children.clone())],
            )],
            // partitionBy → {index-based, sort-based, pass-through}.
            Granule::PartitionBy => {
                let index_based = DeepPlan::node(
                    Granule::IndexScan,
                    vec![DeepPlan::node(
                        Granule::IndexBuild {
                            table: None,
                            hash: None,
                            load_loop: None,
                        },
                        self.children.clone(),
                    )],
                );
                let sort_based = DeepPlan::node(
                    Granule::SortPartition { molecule: None },
                    self.children.clone(),
                );
                let pass_through =
                    DeepPlan::node(Granule::PassThroughPartition, self.children.clone());
                vec![index_based, sort_based, pass_through]
            }
            // Index choice, then hash function, then load loop.
            Granule::IndexBuild {
                table: None,
                hash,
                load_loop,
            } => [
                TableMolecule::Chaining,
                TableMolecule::LinearProbing,
                TableMolecule::RobinHood,
                TableMolecule::StaticPerfectHash,
                TableMolecule::SortedArray,
            ]
            .into_iter()
            .map(|t| {
                DeepPlan::node(
                    Granule::IndexBuild {
                        table: Some(t),
                        hash: *hash,
                        load_loop: *load_loop,
                    },
                    self.children.clone(),
                )
            })
            .collect(),
            Granule::IndexBuild {
                table: Some(t),
                hash: None,
                load_loop,
            } if t.uses_hash_function() => [
                HashFnMolecule::Murmur3,
                HashFnMolecule::Fibonacci,
                HashFnMolecule::Identity,
            ]
            .into_iter()
            .map(|h| {
                DeepPlan::node(
                    Granule::IndexBuild {
                        table: Some(*t),
                        hash: Some(h),
                        load_loop: *load_loop,
                    },
                    self.children.clone(),
                )
            })
            .collect(),
            Granule::IndexBuild {
                table: Some(t),
                hash,
                load_loop: None,
            } if !t.uses_hash_function() || hash.is_some() => {
                [LoopMolecule::Serial, LoopMolecule::Parallel]
                    .into_iter()
                    .map(|l| {
                        DeepPlan::node(
                            Granule::IndexBuild {
                                table: Some(*t),
                                hash: *hash,
                                load_loop: Some(l),
                            },
                            self.children.clone(),
                        )
                    })
                    .collect()
            }
            // Sort molecule choice.
            Granule::SortPartition { molecule: None } => {
                [SortMolecule::Comparison, SortMolecule::Radix]
                    .into_iter()
                    .map(|m| {
                        DeepPlan::node(
                            Granule::SortPartition { molecule: Some(m) },
                            self.children.clone(),
                        )
                    })
                    .collect()
            }
            // Aggregation loop choice.
            Granule::AggregateBundle { agg_loop: None } => {
                [LoopMolecule::Serial, LoopMolecule::Parallel]
                    .into_iter()
                    .map(|l| {
                        DeepPlan::node(
                            Granule::AggregateBundle { agg_loop: Some(l) },
                            self.children.clone(),
                        )
                    })
                    .collect()
            }
            // Decided nodes don't unnest further.
            _ => Vec::new(),
        }
    }

    /// If this complete deep plan coincides with one of §4.1's named
    /// "physical operators", name it. Figure 3(d) (chaining + Murmur3 +
    /// serial) is HG; Figure 3(e) (SPH + parallel load) is the SPHG
    /// refinement; the sort branch is SOG; pass-through is OG; a
    /// sorted-array index is BSG.
    pub fn equivalent_grouping_algorithm(&self) -> Option<GroupingAlgorithm> {
        // Expect AggregateBundle at the root of a grouping deep plan.
        let Granule::AggregateBundle { .. } = self.granule else {
            return None;
        };
        let part = self.children.first()?;
        match &part.granule {
            Granule::PassThroughPartition => Some(GroupingAlgorithm::OrderBased),
            Granule::SortPartition { .. } => Some(GroupingAlgorithm::SortOrderBased),
            Granule::IndexScan => {
                let build = part.children.first()?;
                match &build.granule {
                    Granule::IndexBuild { table: Some(t), .. } => Some(match t {
                        TableMolecule::Chaining
                        | TableMolecule::LinearProbing
                        | TableMolecule::RobinHood => GroupingAlgorithm::HashBased,
                        TableMolecule::StaticPerfectHash => GroupingAlgorithm::StaticPerfectHash,
                        TableMolecule::SortedArray => GroupingAlgorithm::BinarySearch,
                    }),
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// Enumerate every complete deep grouping plan reachable from Figure 3(a)
/// by exhaustive unnesting — the full DQO search space for one γ.
pub fn enumerate_grouping_plans() -> Vec<DeepPlan> {
    let mut complete = Vec::new();
    let mut frontier = vec![DeepPlan::logical_grouping()];
    while let Some(plan) = frontier.pop() {
        if plan.is_complete() {
            complete.push(plan);
            continue;
        }
        frontier.extend(unnest_anywhere(&plan));
    }
    complete.sort_by_key(|p| format!("{p}"));
    complete.dedup();
    complete
}

/// Expand the first undecided node found (pre-order); returns one plan per
/// alternative. Expanding one node at a time keeps the enumeration a tree.
fn unnest_anywhere(plan: &DeepPlan) -> Vec<DeepPlan> {
    if !plan.granule.is_decided() {
        return plan.unnest_root();
    }
    for (i, child) in plan.children.iter().enumerate() {
        let expansions = unnest_anywhere(child);
        if !expansions.is_empty() {
            return expansions
                .into_iter()
                .map(|e| {
                    let mut p = plan.clone();
                    p.children[i] = e;
                    p
                })
                .collect();
        }
    }
    Vec::new()
}

impl fmt::Display for DeepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &DeepPlan, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            let pad = "  ".repeat(depth);
            let label = match &p.granule {
                Granule::LogicalGroupBy => "γ (logical group-by)".to_string(),
                Granule::PartitionBy => "partitionBy ⇒".to_string(),
                Granule::AggregateBundle { agg_loop } => match agg_loop {
                    Some(l) => format!("aggregate-bundle [{l} loop]"),
                    None => "aggregate-bundle".to_string(),
                },
                Granule::IndexBuild {
                    table,
                    hash,
                    load_loop,
                } => {
                    let t = table.map_or("?".to_string(), |t| t.to_string());
                    let h = hash.map_or(String::new(), |h| format!(", hash={h}"));
                    let l = load_loop.map_or(String::new(), |l| format!(", load={l}"));
                    format!("bulkload index [{t}{h}{l}]")
                }
                Granule::IndexScan => "index scan ⇒".to_string(),
                Granule::SortPartition { molecule } => match molecule {
                    Some(m) => format!("sort-partition [{m}]"),
                    None => "sort-partition".to_string(),
                },
                Granule::PassThroughPartition => "pass-through (already partitioned)".to_string(),
                Granule::Input => "input".to_string(),
            };
            writeln!(f, "{pad}{label}  @{}", p.granule.granularity())?;
            for c in &p.children {
                go(c, f, depth + 1)?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3a_is_open() {
        let p = DeepPlan::logical_grouping();
        assert!(!p.is_complete());
        assert_eq!(p.open_decisions(), 1);
        assert_eq!(p.physicality(), Granularity::Organelle);
    }

    #[test]
    fn first_unnest_reaches_figure3b() {
        let p = DeepPlan::logical_grouping();
        let expansions = p.unnest_root();
        assert_eq!(expansions.len(), 1);
        let fig3b = &expansions[0];
        assert!(matches!(
            fig3b.granule,
            Granule::AggregateBundle { agg_loop: None }
        ));
        assert!(matches!(fig3b.children[0].granule, Granule::PartitionBy));
    }

    #[test]
    fn partition_by_has_three_branches() {
        let p = DeepPlan::node(Granule::PartitionBy, vec![DeepPlan::leaf(Granule::Input)]);
        let alts = p.unnest_root();
        assert_eq!(alts.len(), 3); // index-based, sort-based, pass-through
    }

    #[test]
    fn enumeration_counts_the_search_space() {
        let plans = enumerate_grouping_plans();
        // Branches per partitioning choice:
        //   index: chaining/linear/robin-hood (3 tables × 3 hashes × 2 loads)
        //        + sph/sorted-array          (2 tables × 2 loads)       = 22
        //   sort: 2 molecules                                           = 2
        //   pass-through                                                = 1
        // each × 2 aggregation-loop choices                             = 50
        assert_eq!(plans.len(), 50);
        assert!(plans.iter().all(DeepPlan::is_complete));
        assert!(plans
            .iter()
            .all(|p| p.physicality() == Granularity::Molecule));
    }

    #[test]
    fn figure3d_textbook_hg_is_one_special_case() {
        // chaining + murmur3 + serial load + serial aggregation ≡ Figure 1.
        let plans = enumerate_grouping_plans();
        let hg_like: Vec<&DeepPlan> = plans
            .iter()
            .filter(|p| {
                p.equivalent_grouping_algorithm() == Some(GroupingAlgorithm::HashBased)
                    && format!("{p}").contains("chaining, hash=murmur3, load=serial")
                    && matches!(
                        p.granule,
                        Granule::AggregateBundle {
                            agg_loop: Some(LoopMolecule::Serial)
                        }
                    )
            })
            .collect();
        assert_eq!(hg_like.len(), 1, "exactly one textbook HG plan");
    }

    #[test]
    fn figure3e_sph_parallel_exists() {
        let plans = enumerate_grouping_plans();
        assert!(plans.iter().any(|p| {
            p.equivalent_grouping_algorithm() == Some(GroupingAlgorithm::StaticPerfectHash)
                && format!("{p}").contains("load=parallel")
        }));
    }

    #[test]
    fn every_named_variant_appears_in_the_space() {
        let plans = enumerate_grouping_plans();
        for variant in GroupingAlgorithm::all() {
            assert!(
                plans
                    .iter()
                    .any(|p| p.equivalent_grouping_algorithm() == Some(variant)),
                "{variant} missing from enumerated space"
            );
        }
    }

    #[test]
    fn display_renders_depths() {
        let p = DeepPlan::logical_grouping();
        let s = p.to_string();
        assert!(s.contains("γ (logical group-by)"));
        assert!(s.contains("@organelle"));
    }

    #[test]
    fn decidedness_of_index_build() {
        let undecided = Granule::IndexBuild {
            table: Some(TableMolecule::Chaining),
            hash: None,
            load_loop: Some(LoopMolecule::Serial),
        };
        assert!(!undecided.is_decided()); // chaining needs a hash fn
        let decided_sph = Granule::IndexBuild {
            table: Some(TableMolecule::StaticPerfectHash),
            hash: None,
            load_loop: Some(LoopMolecule::Serial),
        };
        assert!(decided_sph.is_decided()); // SPH needs no hash fn
    }
}
