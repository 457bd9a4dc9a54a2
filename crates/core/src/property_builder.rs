//! Row estimation: the one derivation of how many rows an operator emits.
//!
//! Rows are a property of the memo *group*, not of a candidate plan:
//! every physical alternative of one logical subtree emits the same rows.
//! `PropertyBuilder::derive` computes them from the operator, its
//! inputs' rows and the base tables beneath each input, and three
//! consumers read that one number:
//!
//! 1. the memo (`crate::memo`), which derives each group's rows once per
//!    search and hands them to the rules (`crate::rules`) that cost its
//!    candidates;
//! 2. `EXPLAIN ANALYZE`'s estimated-cardinality column
//!    ([`crate::profile::estimate_rows`]), a fold of `derive` over the
//!    physical tree;
//! 3. the adaptive-feedback recorder ([`crate::feedback::FeedbackStore`]),
//!    which folds without feedback so the factors it stores are relative
//!    to the base estimate and never compound.
//!
//! The estimators are textbook: a conjunct's selectivity comes from *its
//! own* column's statistics, resolved through the tables beneath (joins
//! included); joins assume uniform containment; a grouping emits the
//! product of its key distincts, capped by its input. A filter directly
//! over a base scan applies its selectivity to the table's rows and is
//! capped by the rows of the partitions that can hold its matches:
//! partition pruning removes only rows the predicate rejects, so the
//! survivors must not be filtered by the full selectivity a second time.
//! That target — the base table and its surviving partitions — is the
//! same whatever the plan scans: a pruned or unpruned partitioned scan,
//! or a sorted projection's hidden relation (a reordered copy of the
//! table).
//!
//! With a [`FeedbackStore`], a filter's selectivity is multiplied by any
//! learned correction for its `(table, predicate shape)` — validated
//! against the surviving partitions' statistics version — and every
//! application is counted for the `dqo_opt_feedback_applied_total`
//! metric.

use crate::av::rows_source;
use crate::catalog::Catalog;
use crate::feedback::FeedbackStore;
use crate::Result;
use dqo_plan::expr::Predicate;
use dqo_plan::{CmpOp, PhysicalPlan, PlanProps};
use dqo_storage::DataProps;
use std::cell::Cell;

/// Derives row estimates, optionally correcting filter selectivities with
/// adaptive feedback. See the module docs.
pub struct PropertyBuilder<'a> {
    catalog: &'a Catalog,
    feedback: Option<&'a FeedbackStore>,
    applied: Cell<u64>,
}

/// A base table and, on a partitioned table, a subset of its partitions.
pub(crate) type ScanTarget<'p> = (&'p str, Option<&'p [usize]>);

/// One operator as [`PropertyBuilder::derive`] sees it.
#[derive(Clone, Copy)]
pub(crate) enum RowOp<'p> {
    /// A base-table scan of the given partitions.
    Scan(ScanTarget<'p>),
    /// A selection; directly over a base scan, with that table and the
    /// partitions that can hold matches ([`PropertyBuilder::survivors`]).
    Filter(&'p Predicate, Option<ScanTarget<'p>>),
    /// An equi-join on (left key, right key).
    Join(&'p str, &'p str),
    /// A grouping on its keys.
    GroupBy(&'p [String]),
    /// A row cap.
    Limit(u64),
    /// Sort, Project and Exchange: rows pass through.
    Pass,
}

/// One input of an operator: its rows and the base tables beneath it,
/// which resolve the operator's columns to catalog statistics.
pub(crate) struct Input<'p> {
    pub rows: u64,
    pub tables: Vec<&'p str>,
}

impl<'a> PropertyBuilder<'a> {
    /// A builder over `catalog`; with `feedback`, learned selectivity
    /// corrections are folded into filter estimates.
    pub fn new(catalog: &'a Catalog, feedback: Option<&'a FeedbackStore>) -> Self {
        PropertyBuilder {
            catalog,
            feedback,
            applied: Cell::new(0),
        }
    }

    /// Drain the applied-corrections counter (returns the count and
    /// resets it to zero).
    pub fn take_applied(&self) -> u64 {
        self.applied.replace(0)
    }

    /// Base-table column properties for `table`, as seen through `focus`
    /// (the column the parent will consume this output by). Unprojected —
    /// the caller applies the optimiser mode's visibility.
    pub fn scan_props(&self, table: &str, focus: Option<&str>) -> Result<PlanProps> {
        let entry = self.catalog.get(table)?;
        Ok(match focus.and_then(|col| entry.column_props.get(col)) {
            Some(p) => PlanProps::from_data(p),
            None => PlanProps::unknown(entry.relation.rows() as u64),
        })
    }

    /// The output rows of `op` over `inputs` — the one row derivation
    /// (see the module docs). A table or column missing from the catalog
    /// degrades to an unknown statistic instead of failing.
    pub(crate) fn derive(&self, op: RowOp<'_>, inputs: &[Input<'_>]) -> u64 {
        let rows = |i: usize| inputs[i].rows;
        let stats = |i: usize, column: &str| {
            let tables: &[&str] = &inputs[i].tables;
            self.catalog.resolve_column(tables.iter().copied(), column)
        };
        let distinct = |i: usize, column: &str| stats(i, column).map(|p| p.distinct);
        match op {
            RowOp::Scan((table, parts)) => match (parts, self.catalog.partitioning_of(table)) {
                (Some(parts), Some(p)) => p.rows_in(parts) as u64,
                _ => self.table_rows(table),
            },
            RowOp::Filter(predicate, scan) => {
                let sel = estimate_selectivity(predicate, &|column| stats(0, column));
                // Over a base scan the selectivity (times any correction)
                // applies to the whole table, capped by the partitions
                // that can hold matches; anywhere else, to the input.
                let (base, cap, sel) = match scan {
                    Some(target @ (table, _)) => (
                        self.table_rows(table),
                        self.derive(RowOp::Scan(target), &[]),
                        sel * self.correction(predicate, target),
                    ),
                    None => (rows(0), rows(0), sel),
                };
                (((base as f64) * sel.min(1.0)).ceil() as u64).min(cap)
            }
            RowOp::Join(left_key, right_key) => estimate_join_rows(
                rows(0),
                rows(1),
                distinct(0, left_key),
                distinct(1, right_key),
            ),
            RowOp::GroupBy(keys) => keys
                .iter()
                .fold(1u64, |groups, key| {
                    groups.saturating_mul(distinct(0, key).unwrap_or(rows(0)).max(1))
                })
                .min(rows(0)),
            RowOp::Limit(n) => rows(0).min(n),
            RowOp::Pass => rows(0),
        }
    }

    /// Estimated output rows of every node of a physical plan, pre-order:
    /// `derive` folded over the tree, so the numbers are the ones the
    /// memo costed the plan with.
    pub fn estimate_rows(&self, plan: &PhysicalPlan) -> Vec<u64> {
        let mut out = Vec::with_capacity(plan.node_count());
        self.fold(plan, &mut out);
        out
    }

    /// Derive `plan`'s rows into `out` (pre-order); returns them with the
    /// base tables beneath `plan`.
    fn fold<'p>(&self, plan: &'p PhysicalPlan, out: &mut Vec<u64>) -> Input<'p> {
        let idx = out.len();
        out.push(0);
        let inputs: Vec<Input<'p>> = plan
            .children()
            .into_iter()
            .map(|c| self.fold(c, out))
            .collect();
        // A sorted projection's hidden relation reads its base table's rows.
        let scanned = |table: &'p str| rows_source(table).unwrap_or(table);
        let target;
        let op = match plan {
            PhysicalPlan::Scan { table } => RowOp::Scan((scanned(table), None)),
            PhysicalPlan::PartitionedScan { table, parts, .. } => RowOp::Scan((table, Some(parts))),
            PhysicalPlan::Filter { input, predicate } => {
                target = self.filter_target(input, predicate);
                let scan = target
                    .as_ref()
                    .map(|(table, parts)| (*table, parts.as_deref()));
                RowOp::Filter(predicate, scan)
            }
            PhysicalPlan::Join {
                left_key,
                right_key,
                ..
            } => RowOp::Join(left_key, right_key),
            PhysicalPlan::GroupBy { keys, .. } => RowOp::GroupBy(keys),
            PhysicalPlan::Limit { n, .. } => RowOp::Limit(*n),
            PhysicalPlan::Sort { .. }
            | PhysicalPlan::Project { .. }
            | PhysicalPlan::Exchange { .. } => RowOp::Pass,
        };
        let rows = self.derive(op, &inputs);
        out[idx] = rows;
        let tables = match plan {
            PhysicalPlan::Scan { table } | PhysicalPlan::PartitionedScan { table, .. } => {
                vec![scanned(table)]
            }
            _ => inputs.into_iter().flat_map(|input| input.tables).collect(),
        };
        Input { rows, tables }
    }

    /// The partitions of `table` that can hold rows matching `predicate`
    /// (`None` for a flat table). Pruning is sound, so a filter's matches
    /// lie in these whether or not its plan prunes: they cap the filter's
    /// rows and version its feedback corrections.
    pub(crate) fn survivors(&self, table: &str, predicate: &Predicate) -> Option<Vec<usize>> {
        let p = self.catalog.partitioning_of(table)?;
        Some(crate::partition_prune::prune_partitions(
            p.spec(),
            predicate,
        ))
    }

    /// The target of a physical filter by `predicate` over `input` — the
    /// one the memo derived the filter's group from: the base table whose
    /// rows `input` scans, and its [`survivors`](Self::survivors). `None`
    /// when `input` is not a scan of a base table's rows.
    pub(crate) fn filter_target<'p>(
        &self,
        input: &'p PhysicalPlan,
        predicate: &Predicate,
    ) -> Option<(&'p str, Option<Vec<usize>>)> {
        let table = match input {
            PhysicalPlan::Scan { table } | PhysicalPlan::PartitionedScan { table, .. } => {
                rows_source(table)?
            }
            _ => return None,
        };
        Some((table, self.survivors(table, predicate)))
    }

    /// The learned selectivity correction for `predicate` over `target`
    /// (1 when there is none), counted when applied. Its validity is
    /// checked against the target partitions' statistics version
    /// ([`Catalog::stats_version_for`]), so a correction learned over a
    /// partitioned table keeps applying across appends to partitions that
    /// cannot hold matches and stops when the survivors' data changes.
    fn correction(&self, predicate: &Predicate, (table, parts): ScanTarget) -> f64 {
        // An empty store is one atomic load: no shape is rendered and no
        // lock taken on the search path until something was learned.
        let feedback = self.feedback.filter(|store| !store.is_empty());
        let factor = feedback.and_then(|store| {
            let version = self.catalog.stats_version_for(table, parts)?;
            store.correction(table, &predicate.shape(), version)
        });
        if factor.is_some() {
            self.applied.set(self.applied.get() + 1);
        }
        factor.unwrap_or(1.0)
    }

    /// A table's rows (0 when unknown).
    fn table_rows(&self, table: &str) -> u64 {
        self.catalog
            .get(table)
            .map_or(0, |entry| entry.relation.rows() as u64)
    }
}

/// Join cardinality under the uniform containment assumption:
/// `|L ⋈ R| = |L|·|R| / max(d_L, d_R)` — with a PK on one side this yields
/// exactly the FK-side cardinality (the paper's 90,000).
fn estimate_join_rows(l: u64, r: u64, d_l: Option<u64>, d_r: Option<u64>) -> u64 {
    let d = d_l.unwrap_or(l).max(d_r.unwrap_or(r)).max(1);
    (((l as f64) * (r as f64)) / d as f64).round() as u64
}

/// Textbook selectivity of a predicate; every comparison reads the
/// statistics of its own column through `stats` (`None` when unknown).
fn estimate_selectivity(pred: &Predicate, stats: &dyn Fn(&str) -> Option<DataProps>) -> f64 {
    match pred {
        Predicate::And(ps) => ps.iter().map(|p| estimate_selectivity(p, stats)).product(),
        // Prefix matches sit between equality and a half-open range; with
        // no per-string histogram we charge a flat fraction that shrinks
        // with the prefix length (each extra character filters harder).
        Predicate::Prefix { prefix, .. } => match prefix.len() {
            0 => 1.0,
            1 => 0.25,
            _ => 0.1,
        },
        // General wildcard patterns are unanchored; charge by how much
        // literal text the pattern pins down (a contains-match with a
        // long needle filters about as hard as a long prefix).
        Predicate::Like { pattern, .. } => {
            match pattern.chars().filter(|&c| c != '%' && c != '_').count() {
                0 => 1.0,
                1 => 0.5,
                _ => 0.2,
            }
        }
        Predicate::Compare { column, op, value } => {
            let stats = stats(column);
            let distinct = stats.map_or(10, |s| s.distinct).max(1) as f64;
            match op {
                CmpOp::Eq => 1.0 / distinct,
                CmpOp::Ne => 1.0 - 1.0 / distinct,
                // Uniform over the column's range when it is known.
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    match (
                        stats.filter(|s| s.rows > 0 && s.max > s.min),
                        value.as_u32(),
                    ) {
                        (Some(s), Some(v)) => {
                            let frac =
                                f64::from(v.saturating_sub(s.min)) / f64::from(s.max - s.min);
                            let frac = frac.clamp(0.0, 1.0);
                            match op {
                                CmpOp::Lt | CmpOp::Le => frac,
                                _ => 1.0 - frac,
                            }
                        }
                        _ => 1.0 / 3.0,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_plan::expr::AggExpr;
    use dqo_plan::physical::GroupingMolecules;
    use dqo_plan::{GroupingImpl, JoinImpl};
    use dqo_storage::datagen::DatasetSpec;
    use dqo_storage::{Column, DataType, Field, Relation, Schema};

    fn catalog_10k_100() -> Catalog {
        let cat = Catalog::new();
        let rel = DatasetSpec::new(10_000, 100)
            .dense(true)
            .relation()
            .unwrap();
        cat.register("t", rel);
        cat
    }

    fn scan() -> Box<PhysicalPlan> {
        Box::new(PhysicalPlan::Scan { table: "t".into() })
    }

    fn filter(predicate: Predicate) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: scan(),
            predicate,
        }
    }

    fn estimate(plan: &PhysicalPlan, cat: &Catalog) -> Vec<u64> {
        PropertyBuilder::new(cat, None).estimate_rows(plan)
    }

    #[test]
    fn estimates_follow_the_textbook_rules() {
        let cat = catalog_10k_100();
        assert_eq!(estimate(&scan(), &cat), vec![10_000]);
        // Eq filter on a 100-distinct key → 1/100 selectivity.
        let filt = filter(Predicate::cmp("key", CmpOp::Eq, 5u32));
        assert_eq!(estimate(&filt, &cat), vec![100, 10_000]);
        // Ranges are uniform over [min, max].
        let lt = filter(Predicate::cmp("key", CmpOp::Lt, 50u32));
        assert_eq!(estimate(&lt, &cat), vec![5_051, 10_000]);
        // Grouping on the key → distinct count, capped by its input.
        let gb = PhysicalPlan::GroupBy {
            input: Box::new(filt),
            keys: vec!["key".into()],
            aggs: vec![AggExpr::count_star("n")],
            algo: GroupingImpl::Hg,
            molecules: GroupingMolecules::default(),
        };
        assert_eq!(estimate(&gb, &cat), vec![100, 100, 10_000]);
        // Exchange is cardinality-transparent.
        let ex = PhysicalPlan::Exchange {
            input: Box::new(gb),
            dop: 4,
        };
        assert_eq!(estimate(&ex, &cat), vec![100, 100, 100, 10_000]);
    }

    #[test]
    fn join_estimate_uses_uniform_containment() {
        // PK side distinct = |R| → output = |S|; unknown distincts fall
        // back to the larger side.
        assert_eq!(
            estimate_join_rows(25_000, 90_000, Some(25_000), Some(20_000)),
            90_000
        );
        assert_eq!(estimate_join_rows(10, 10, None, None), 10);
        let cat = catalog_10k_100();
        let join = PhysicalPlan::Join {
            left: scan(),
            right: scan(),
            left_key: "key".into(),
            right_key: "key".into(),
            algo: JoinImpl::Hj,
        };
        // |L⋈R| = 10 000·10 000 / max(100, 100) = 1 000 000.
        assert_eq!(estimate(&join, &cat), vec![1_000_000, 10_000, 10_000]);
    }

    #[test]
    fn each_conjunct_reads_its_own_column_even_above_a_join() {
        // t(key: 10 distinct, val: unique over 0..1000); u(id: unique).
        let cat = Catalog::new();
        let rel = Relation::new(
            Schema::new(vec![
                Field::new("key", DataType::U32),
                Field::new("val", DataType::U32),
            ])
            .unwrap(),
            vec![
                Column::U32((0..1_000).map(|i| i % 10).collect()),
                Column::U32((0..1_000).collect()),
            ],
        )
        .unwrap();
        cat.register("t", rel);
        cat.register("u", Relation::single_u32("id", (0..10).collect()));
        let pred = Predicate::And(vec![
            Predicate::cmp("key", CmpOp::Eq, 3u32),
            Predicate::cmp("val", CmpOp::Lt, 100u32),
        ]);
        // 1/10 from key's distincts × ~1/10 from val's range.
        let over_scan = filter(pred.clone());
        assert_eq!(estimate(&over_scan, &cat)[0], 11);
        let over_join = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Join {
                left: Box::new(PhysicalPlan::Scan { table: "u".into() }),
                right: scan(),
                left_key: "id".into(),
                right_key: "key".into(),
                algo: JoinImpl::Hj,
            }),
            predicate: pred,
        };
        assert_eq!(estimate(&over_join, &cat), vec![11, 1_000, 10, 1_000]);
    }

    #[test]
    fn unknown_tables_degrade_instead_of_failing() {
        let cat = Catalog::new();
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Scan {
                table: "nope".into(),
            }),
            n: 7,
        };
        assert_eq!(estimate(&plan, &cat), vec![0, 0]);
    }

    #[test]
    fn feedback_corrects_the_estimate_and_counts_applications() {
        let cat = catalog_10k_100();
        let store = FeedbackStore::new();
        let pred = Predicate::cmp("key", CmpOp::Eq, 5u32);
        let plan = filter(pred.clone());
        let version = cat.table_stats_version("t").unwrap();
        store.record("t", &pred.shape(), 50.0, version);
        assert_eq!(estimate(&plan, &cat), vec![100, 10_000]);
        let fed = PropertyBuilder::new(&cat, Some(&store));
        assert_eq!(fed.estimate_rows(&plan), vec![5_000, 10_000]);
        assert_eq!(fed.take_applied(), 1);
        assert_eq!(fed.take_applied(), 0);
        // A filter over anything but a base scan has no stats owner: no
        // correction, no count.
        let over_limit = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Limit {
                input: scan(),
                n: 10_000,
            }),
            predicate: pred,
        };
        assert_eq!(fed.estimate_rows(&over_limit)[0], 100);
        assert_eq!(fed.take_applied(), 0);
    }

    #[test]
    fn stale_stats_version_disables_the_correction() {
        let cat = catalog_10k_100();
        let store = FeedbackStore::new();
        let pred = Predicate::cmp("key", CmpOp::Eq, 5u32);
        store.record(
            "t",
            &pred.shape(),
            50.0,
            cat.table_stats_version("t").unwrap(),
        );
        // New data snapshot: the stamp no longer matches.
        let rel = DatasetSpec::new(10_000, 100)
            .dense(true)
            .relation()
            .unwrap();
        cat.replace_data("t", rel).unwrap();
        let fed = PropertyBuilder::new(&cat, Some(&store));
        assert_eq!(fed.estimate_rows(&filter(pred)), vec![100, 10_000]);
        assert_eq!(fed.take_applied(), 0);
    }
}
