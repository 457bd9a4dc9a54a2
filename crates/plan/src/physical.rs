//! Physical plans: every decision made, ready to execute.
//!
//! A [`PhysicalPlan`] is what the optimiser hands the executor: operators
//! annotated with the chosen organelle ([`JoinAlgorithm`]/[`GroupingAlgorithm`]) and
//! — when DQO went deeper — the molecule choices underneath
//! ([`GroupingMolecules`]). A shallow plan simply leaves the molecule
//! fields at their developer defaults, which is precisely SQO's behaviour
//! per Table 1.

use crate::algorithms::{
    GroupingAlgorithm, HashFnMolecule, JoinAlgorithm, SortMolecule, TableMolecule,
};
use crate::expr::{AggExpr, Predicate};
use std::fmt;

/// Molecule-level decisions inside a grouping operator — the leaf
/// decisions of a complete Figure 3 deep plan
/// ([`crate::deep::DeepPlan::lower`]). `None` means "the developer
/// default" (what SQO ships with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupingMolecules {
    /// Backing table.
    pub table: Option<TableMolecule>,
    /// Hash function (hash-based tables only).
    pub hash: Option<HashFnMolecule>,
    /// Sort behind SOG; `None` is pdqsort.
    pub sort: Option<SortMolecule>,
    /// SPHG reads the key through the catalog's dense order-preserving
    /// codes of its column (`dqo_storage::KeyCodes`) instead of its
    /// values, and decodes the groups it emits.
    pub codes: bool,
}

impl GroupingMolecules {
    /// The developer defaults behind each §4.1 name — what a shallow
    /// optimiser implicitly picks when it names the organelle.
    pub fn defaults_for(algo: GroupingAlgorithm) -> Self {
        let (table, hash) = match algo {
            GroupingAlgorithm::HashBased => {
                (Some(TableMolecule::Chaining), Some(HashFnMolecule::Murmur3))
            }
            GroupingAlgorithm::StaticPerfectHash => (Some(TableMolecule::StaticPerfectHash), None),
            GroupingAlgorithm::BinarySearch => (Some(TableMolecule::SortedArray), None),
            GroupingAlgorithm::OrderBased | GroupingAlgorithm::SortOrderBased => (None, None),
        };
        GroupingMolecules {
            table,
            hash,
            ..GroupingMolecules::default()
        }
    }
}

/// A fully decided physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Base-table scan.
    Scan {
        /// Catalog table name.
        table: String,
    },
    /// Scan of a partitioned base table restricted to the surviving
    /// partitions. `parts` holds the surviving partition ids ascending;
    /// `total` the table's partition count, so `parts.len() < total`
    /// means the pruning rule dropped partitions. Rows are emitted in
    /// **flat row order** (the partition-major placement order), keeping
    /// results bit-identical to a plain `Scan` of the same table.
    PartitionedScan {
        /// Catalog table name.
        table: String,
        /// Surviving partition ids, ascending.
        parts: Vec<usize>,
        /// The table's total partition count.
        total: usize,
    },
    /// Selection.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate.
        predicate: Predicate,
    },
    /// Sort enforcer.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort key.
        key: String,
        /// Sort implementation molecule.
        molecule: SortMolecule,
    },
    /// Equi-join with a decided implementation.
    Join {
        /// Left (build) input.
        left: Box<PhysicalPlan>,
        /// Right (probe) input.
        right: Box<PhysicalPlan>,
        /// Join key on the left.
        left_key: String,
        /// Join key on the right.
        right_key: String,
        /// Chosen join organelle.
        algo: JoinAlgorithm,
    },
    /// Grouping with a decided implementation and molecules. Multi-column
    /// keys run on the `u32` packed composite-key domain when the
    /// per-column dictionary/range widths allow, with a row-wise fallback
    /// otherwise (an executor decision; the plan only records the keys).
    GroupBy {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping key columns (at least one).
        keys: Vec<String>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
        /// Chosen grouping organelle.
        algo: GroupingAlgorithm,
        /// Molecule decisions beneath it.
        molecules: GroupingMolecules,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Columns to keep.
        columns: Vec<String>,
    },
    /// Keep only the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Row cap.
        n: u64,
    },
    /// Morsel-driven parallel execution of the operator below at a given
    /// degree of parallelism — the plan's only statement of parallelism,
    /// attached when the DOP-aware cost model says the startup + merge
    /// overhead pays off. The executor hands the pool to the child, whose
    /// one `dqo-parallel` loop runs its tasks there: a filter's loader, a
    /// sort, any of the five joins or five groupings. An operator with no
    /// loop of its own (a scan, a projection, a limit) ignores it.
    Exchange {
        /// The operator to parallelise.
        input: Box<PhysicalPlan>,
        /// Worker count chosen by the optimiser (≥ 2 in planned trees).
        dop: usize,
    },
}

impl PhysicalPlan {
    /// Children of this node.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::PartitionedScan { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::GroupBy { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Exchange { input, .. } => vec![input],
            PhysicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Operator count.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// The algorithm abbreviations used, pre-order — handy for asserting a
    /// plan's shape in tests ("SPHJ then SPHG").
    pub fn algo_signature(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        self.collect_signature(&mut out);
        out
    }

    fn collect_signature(&self, out: &mut Vec<&'static str>) {
        match self {
            PhysicalPlan::Join { algo, .. } => out.push(algo.abbrev()),
            PhysicalPlan::GroupBy { algo, .. } => out.push(algo.abbrev()),
            PhysicalPlan::Sort { .. } => out.push("SORT"),
            _ => {}
        }
        for c in self.children() {
            c.collect_signature(out);
        }
    }

    /// The plan's nodes in pre-order (self, then children left-to-right)
    /// — the numbering shared by [`PhysicalPlan::explain`] lines and
    /// per-operator runtime metrics, so index `i` in an
    /// `EXPLAIN ANALYZE` metrics vector describes the `i`-th rendered
    /// operator.
    pub fn preorder(&self) -> Vec<&PhysicalPlan> {
        let mut out = Vec::with_capacity(self.node_count());
        self.collect_preorder(&mut out);
        out
    }

    fn collect_preorder<'a>(&'a self, out: &mut Vec<&'a PhysicalPlan>) {
        out.push(self);
        for c in self.children() {
            c.collect_preorder(out);
        }
    }

    /// Indented EXPLAIN rendering, molecule annotations included.
    pub fn explain(&self) -> String {
        self.explain_annotated(&|_, _| None)
    }

    /// [`PhysicalPlan::explain`] with a per-node suffix: `annot` is called
    /// with each node's pre-order index and the node, and whatever it
    /// returns is appended to that node's line. This is how
    /// `EXPLAIN ANALYZE` attaches actual rows / wall time / cardinality
    /// deltas to the same tree the plain EXPLAIN renders.
    pub fn explain_annotated(
        &self,
        annot: &dyn Fn(usize, &PhysicalPlan) -> Option<String>,
    ) -> String {
        let mut s = String::new();
        let mut next_id = 0usize;
        self.explain_into(&mut s, 0, &mut next_id, annot);
        s
    }

    fn explain_into(
        &self,
        out: &mut String,
        depth: usize,
        next_id: &mut usize,
        annot: &dyn Fn(usize, &PhysicalPlan) -> Option<String>,
    ) {
        let id = *next_id;
        *next_id += 1;
        let pad = "  ".repeat(depth);
        let line = match self {
            PhysicalPlan::Scan { table } => format!("Scan {table}"),
            PhysicalPlan::PartitionedScan {
                table,
                parts,
                total,
            } => {
                if parts.len() == *total {
                    format!("PartitionedScan {table} parts={}/{total}", parts.len())
                } else {
                    let list: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                    format!(
                        "PartitionedScan {table} parts={}/{total} [{}]",
                        parts.len(),
                        list.join(",")
                    )
                }
            }
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysicalPlan::Sort { key, molecule, .. } => format!("Sort by {key} [{molecule}]"),
            PhysicalPlan::Join {
                left_key,
                right_key,
                algo,
                ..
            } => format!("{algo} on {left_key} = {right_key}"),
            PhysicalPlan::GroupBy {
                keys,
                algo,
                molecules,
                aggs,
                ..
            } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                let mut mol = Vec::new();
                if let Some(t) = molecules.table {
                    mol.push(format!("table={t}"));
                }
                if let Some(h) = molecules.hash {
                    mol.push(format!("hash={h}"));
                }
                if let Some(s) = molecules.sort {
                    mol.push(format!("sort={s}"));
                }
                if molecules.codes {
                    mol.push("key=codes".to_owned());
                }
                let mol = if mol.is_empty() {
                    String::new()
                } else {
                    format!(" {{{}}}", mol.join(", "))
                };
                format!("{algo} γ[{}]{mol} {}", keys.join(","), aggs.join(", "))
            }
            PhysicalPlan::Project { columns, .. } => format!("Project {}", columns.join(", ")),
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
            PhysicalPlan::Exchange { dop, .. } => format!("Exchange dop={dop}"),
        };
        out.push_str(&pad);
        out.push_str(&line);
        if let Some(extra) = annot(id, self) {
            out.push(' ');
            out.push_str(&extra);
        }
        out.push('\n');
        for c in self.children() {
            c.explain_into(out, depth + 1, next_id, annot);
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.explain().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphj_sphg_plan() -> PhysicalPlan {
        PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Join {
                left: Box::new(PhysicalPlan::Scan { table: "R".into() }),
                right: Box::new(PhysicalPlan::Scan { table: "S".into() }),
                left_key: "id".into(),
                right_key: "r_id".into(),
                algo: JoinAlgorithm::StaticPerfectHash,
            }),
            keys: vec!["a".into()],
            aggs: vec![AggExpr::count_star("count")],
            algo: GroupingAlgorithm::StaticPerfectHash,
            molecules: GroupingMolecules::defaults_for(GroupingAlgorithm::StaticPerfectHash),
        }
    }

    #[test]
    fn signature_reflects_choices() {
        assert_eq!(sphj_sphg_plan().algo_signature(), vec!["SPHG", "SPHJ"]);
    }

    #[test]
    fn hg_defaults_match_the_paper() {
        let m = GroupingMolecules::defaults_for(GroupingAlgorithm::HashBased);
        assert_eq!(m.table, Some(TableMolecule::Chaining));
        assert_eq!(m.hash, Some(HashFnMolecule::Murmur3));
    }

    #[test]
    fn sph_defaults_need_no_hash_function() {
        let m = GroupingMolecules::defaults_for(GroupingAlgorithm::StaticPerfectHash);
        assert_eq!(m.table, Some(TableMolecule::StaticPerfectHash));
        assert_eq!(m.hash, None);
    }

    #[test]
    fn explain_shows_molecules() {
        let plan = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            keys: vec!["k".into()],
            aggs: vec![AggExpr::count_star("n")],
            algo: GroupingAlgorithm::HashBased,
            molecules: GroupingMolecules::defaults_for(GroupingAlgorithm::HashBased),
        };
        let text = plan.explain();
        assert!(text.contains("HG γ[k]"));
        assert!(text.contains("table=chaining"));
        assert!(text.contains("hash=murmur3"));
    }

    #[test]
    fn explain_names_the_sort_molecule_only_when_decided() {
        let sog = |molecules| PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            keys: vec!["k".into()],
            aggs: vec![AggExpr::count_star("n")],
            algo: GroupingAlgorithm::SortOrderBased,
            molecules,
        };
        let default = GroupingMolecules::defaults_for(GroupingAlgorithm::SortOrderBased);
        assert!(!sog(default).explain().contains('{'));
        let radix = GroupingMolecules {
            sort: Some(SortMolecule::Radix),
            ..default
        };
        assert!(sog(radix).explain().starts_with("SOG γ[k] {sort=radix} "));
    }

    #[test]
    fn explain_names_a_coded_key() {
        let plan = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            keys: vec!["k".into()],
            aggs: vec![AggExpr::count_star("n")],
            algo: GroupingAlgorithm::StaticPerfectHash,
            molecules: GroupingMolecules {
                codes: true,
                ..GroupingMolecules::defaults_for(GroupingAlgorithm::StaticPerfectHash)
            },
        };
        assert!(plan
            .explain()
            .starts_with("SPHG γ[k] {table=sph, key=codes} COUNT(*)"));
    }

    #[test]
    fn explain_renders_composite_keys() {
        let plan = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            keys: vec!["k".into(), "s".into()],
            aggs: vec![AggExpr::count_star("n")],
            algo: GroupingAlgorithm::StaticPerfectHash,
            molecules: GroupingMolecules::defaults_for(GroupingAlgorithm::StaticPerfectHash),
        };
        assert!(plan.explain().contains("SPHG γ[k,s]"));
    }

    #[test]
    fn node_count() {
        assert_eq!(sphj_sphg_plan().node_count(), 4);
    }

    #[test]
    fn preorder_matches_explain_line_order() {
        let plan = PhysicalPlan::Exchange {
            input: Box::new(sphj_sphg_plan()),
            dop: 2,
        };
        let nodes = plan.preorder();
        assert_eq!(nodes.len(), plan.node_count());
        assert!(matches!(nodes[0], PhysicalPlan::Exchange { .. }));
        assert!(matches!(nodes[1], PhysicalPlan::GroupBy { .. }));
        assert!(matches!(nodes[2], PhysicalPlan::Join { .. }));
        assert!(matches!(nodes[3], PhysicalPlan::Scan { .. }));
        assert!(matches!(nodes[4], PhysicalPlan::Scan { .. }));
        // The annotated renderer hands out the same ids: annotating node i
        // with its index must land on line i.
        let text = plan.explain_annotated(&|id, _| Some(format!("#{id}")));
        for (i, line) in text.lines().enumerate() {
            assert!(line.ends_with(&format!("#{i}")), "line {i}: {line}");
        }
    }

    #[test]
    fn partitioned_scan_explain_elides_full_survivor_lists() {
        let pruned = PhysicalPlan::PartitionedScan {
            table: "t".into(),
            parts: vec![0, 2],
            total: 4,
        };
        assert_eq!(
            pruned.explain().trim_end(),
            "PartitionedScan t parts=2/4 [0,2]"
        );
        let full = PhysicalPlan::PartitionedScan {
            table: "t".into(),
            parts: vec![0, 1, 2, 3],
            total: 4,
        };
        assert_eq!(full.explain().trim_end(), "PartitionedScan t parts=4/4");
        assert!(full.children().is_empty());
        assert!(full.algo_signature().is_empty());
    }

    #[test]
    fn explain_annotated_with_no_annotations_is_plain_explain() {
        let plan = sphj_sphg_plan();
        assert_eq!(plan.explain_annotated(&|_, _| None), plan.explain());
    }

    #[test]
    fn exchange_is_transparent_to_signatures_but_visible_in_explain() {
        let plan = PhysicalPlan::Exchange {
            input: Box::new(sphj_sphg_plan()),
            dop: 4,
        };
        // The DOP annotation must not change the algorithmic signature …
        assert_eq!(plan.algo_signature(), vec!["SPHG", "SPHJ"]);
        assert_eq!(plan.node_count(), 5);
        // … but must show up in EXPLAIN output.
        assert!(plan.explain().contains("Exchange dop=4"));
    }
}
