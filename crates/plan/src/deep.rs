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
//! fixpoint and returns every complete deep grouping plan.
//!
//! There is no second engine for these plans: [`DeepPlan::lower`] maps
//! each complete one to a physical grouping — a §4.1 organelle, its
//! [`GroupingMolecules`] and a loop — which the executor runs like any
//! optimiser-produced `GroupBy`. The textbook hash-based grouping of
//! Figure 1 lowers to exactly HG's developer defaults, which is the
//! paper's point: *"hash-based grouping is just one of many special cases
//! in a partition-based grouping algorithm."*

use crate::algorithms::{
    GroupingAlgorithm, HashFnMolecule, LoopMolecule, SortMolecule, TableMolecule,
};
use crate::granule::Granularity;
use crate::physical::GroupingMolecules;
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

    /// Lower a complete deep grouping plan to the physical grouping that
    /// runs it; `None` for an incomplete plan or one not rooted at an
    /// aggregate bundle.
    ///
    /// * index build over chaining / linear probing / Robin-Hood → HG
    ///   `{table, hash}` (Figure 3(d) is HG's developer defaults);
    /// * index build over the static perfect hash → SPHG;
    /// * index build over a sorted array → BSG;
    /// * sort-partition `[m]` → SOG `{sort=m}`;
    /// * pass-through → OG.
    ///
    /// The loop is `Parallel` when either the load or the aggregation
    /// loop is; the caller states it by wrapping the `GroupBy` in an
    /// `Exchange`, the plan's only statement of parallelism.
    pub fn lower(&self) -> Option<(GroupingAlgorithm, GroupingMolecules, LoopMolecule)> {
        if !self.is_complete() {
            return None;
        }
        let Granule::AggregateBundle {
            agg_loop: Some(agg_loop),
        } = self.granule
        else {
            return None;
        };
        let part = self.children.first()?;
        let (algo, molecules, load_loop) = match &part.granule {
            Granule::PassThroughPartition => (
                GroupingAlgorithm::OrderBased,
                GroupingMolecules::default(),
                LoopMolecule::Serial,
            ),
            Granule::SortPartition { molecule } => (
                GroupingAlgorithm::SortOrderBased,
                GroupingMolecules {
                    sort: *molecule,
                    ..GroupingMolecules::default()
                },
                LoopMolecule::Serial,
            ),
            Granule::IndexScan => {
                let Granule::IndexBuild {
                    table: Some(table),
                    hash,
                    load_loop: Some(load_loop),
                } = part.children.first()?.granule
                else {
                    return None;
                };
                let algo = match table {
                    TableMolecule::Chaining
                    | TableMolecule::LinearProbing
                    | TableMolecule::RobinHood => GroupingAlgorithm::HashBased,
                    TableMolecule::StaticPerfectHash => GroupingAlgorithm::StaticPerfectHash,
                    TableMolecule::SortedArray => GroupingAlgorithm::BinarySearch,
                };
                let molecules = GroupingMolecules {
                    table: Some(table),
                    hash,
                    ..GroupingMolecules::default()
                };
                (algo, molecules, load_loop)
            }
            _ => return None,
        };
        let lp = if [agg_loop, load_loop].contains(&LoopMolecule::Parallel) {
            LoopMolecule::Parallel
        } else {
            LoopMolecule::Serial
        };
        Some((algo, molecules, lp))
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
        // chaining + murmur3 + serial load + serial aggregation ≡ Figure 1,
        // and it lowers to exactly HG's developer defaults.
        let textbook = (
            GroupingAlgorithm::HashBased,
            GroupingMolecules::defaults_for(GroupingAlgorithm::HashBased),
            LoopMolecule::Serial,
        );
        let plans = enumerate_grouping_plans();
        let hg_like: Vec<&DeepPlan> = plans
            .iter()
            .filter(|p| p.lower() == Some(textbook))
            .collect();
        assert_eq!(hg_like.len(), 1, "exactly one textbook HG plan");
        let text = hg_like[0].to_string();
        assert!(
            text.contains("chaining, hash=murmur3, load=serial"),
            "{text}"
        );
        assert!(text.contains("aggregate-bundle [serial loop]"), "{text}");
    }

    #[test]
    fn figure3e_sph_parallel_lowers_to_parallel_sphg() {
        let plans = enumerate_grouping_plans();
        assert!(plans.iter().any(|p| {
            format!("{p}").contains("sph, load=parallel")
                && p.lower()
                    == Some((
                        GroupingAlgorithm::StaticPerfectHash,
                        GroupingMolecules::defaults_for(GroupingAlgorithm::StaticPerfectHash),
                        LoopMolecule::Parallel,
                    ))
        }));
    }

    #[test]
    fn every_complete_plan_lowers_and_covers_every_organelle() {
        let plans = enumerate_grouping_plans();
        let mut per_algo = std::collections::HashMap::new();
        for p in &plans {
            let (algo, molecules, lp) = p.lower().unwrap_or_else(|| panic!("{p}"));
            *per_algo.entry(algo).or_insert(0) += 1;
            // Either loop being parallel makes the lowered grouping parallel.
            assert_eq!(
                lp == LoopMolecule::Parallel,
                p.to_string().contains("parallel"),
                "{p}"
            );
            // Exactly the granules SOG and HG need are decided, and SOG
            // keeps the plan's sort molecule.
            assert_eq!(
                molecules.sort.is_some(),
                algo == GroupingAlgorithm::SortOrderBased
            );
            if let Some(s) = molecules.sort {
                assert!(p.to_string().contains(&format!("sort-partition [{s}]")));
            }
            assert_eq!(
                molecules.hash.is_some(),
                algo == GroupingAlgorithm::HashBased
            );
        }
        // 3 tables × 3 hashes × 2 loads × 2 agg loops, then 2 × 2 each
        // for SPH, sorted array and the sort molecules, 2 for pass-through.
        let expected = [
            (GroupingAlgorithm::HashBased, 36),
            (GroupingAlgorithm::StaticPerfectHash, 4),
            (GroupingAlgorithm::OrderBased, 2),
            (GroupingAlgorithm::SortOrderBased, 4),
            (GroupingAlgorithm::BinarySearch, 4),
        ];
        for (algo, n) in expected {
            assert_eq!(per_algo.get(&algo), Some(&n), "{algo}");
        }
    }

    #[test]
    fn incomplete_plans_do_not_lower() {
        assert_eq!(DeepPlan::logical_grouping().lower(), None);
        let fig3b = DeepPlan::logical_grouping().unnest_root().remove(0);
        assert_eq!(fig3b.lower(), None);
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
