//! Derived-property construction for the optimiser memo.
//!
//! The [`PropertyBuilder`] is the one place where logical properties —
//! row counts, distinct counts, density, selectivities — are derived,
//! shared by three consumers that previously each had a private copy of
//! the arithmetic:
//!
//! 1. the memo's rules (`crate::rules`) when costing candidates,
//! 2. `EXPLAIN ANALYZE`'s estimated-cardinality column
//!    ([`crate::profile::estimate_rows`]), and
//! 3. the adaptive-feedback recorder ([`crate::feedback::FeedbackStore`]),
//!    which needs the *base* (feedback-free) estimates to compute
//!    correction factors without compounding.
//!
//! When constructed with a [`FeedbackStore`], selectivity estimates are
//! multiplied by any learned correction for the predicate's `(table,
//! shape)` — validated against the table's current statistics version —
//! and the number of corrections applied is counted for the
//! `dqo_opt_feedback_applied_total` metric.

use crate::catalog::Catalog;
use crate::feedback::FeedbackStore;
use crate::optimizer::{estimate_join_rows, estimate_selectivity};
use crate::Result;
use dqo_plan::expr::Predicate;
use dqo_plan::{LogicalPlan, PhysicalPlan, PlanProps};
use dqo_storage::Density;
use std::cell::Cell;

/// Derives logical plan properties, optionally correcting selectivities
/// with adaptive feedback. See the module docs.
pub struct PropertyBuilder<'a> {
    catalog: &'a Catalog,
    feedback: Option<&'a FeedbackStore>,
    applied: Cell<u64>,
}

impl<'a> PropertyBuilder<'a> {
    /// A feedback-free builder: estimates are the textbook rules only.
    pub fn new(catalog: &'a Catalog) -> Self {
        PropertyBuilder {
            catalog,
            feedback: None,
            applied: Cell::new(0),
        }
    }

    /// A builder that folds learned selectivity corrections into its
    /// estimates.
    pub fn with_feedback(catalog: &'a Catalog, feedback: Option<&'a FeedbackStore>) -> Self {
        PropertyBuilder {
            catalog,
            feedback,
            applied: Cell::new(0),
        }
    }

    /// How many feedback corrections have been applied so far.
    pub fn applied(&self) -> u64 {
        self.applied.get()
    }

    /// Drain the applied-corrections counter (returns the count and
    /// resets it to zero).
    pub fn take_applied(&self) -> u64 {
        self.applied.replace(0)
    }

    /// Base-table scan properties for `table`, as seen through `focus`
    /// (the column the parent will consume this output by). Unprojected —
    /// the caller applies the optimiser mode's visibility.
    pub fn scan_props(&self, table: &str, focus: Option<&str>) -> Result<PlanProps> {
        let entry = self.catalog.get(table)?;
        let rows = entry.relation.rows() as u64;
        Ok(match focus {
            Some(col) => match entry.column_props.get(col) {
                Some(p) => PlanProps::from_data(p),
                None => PlanProps::unknown(rows),
            },
            None => PlanProps::unknown(rows),
        })
    }

    /// Predicate selectivity against `props`, corrected by feedback when
    /// a valid correction exists for `(table, predicate shape)`.
    pub fn selectivity(
        &self,
        predicate: &Predicate,
        props: &PlanProps,
        table: Option<&str>,
    ) -> f64 {
        self.selectivity_for(predicate, props, table, None)
    }

    /// [`PropertyBuilder::selectivity`] for a scan restricted to the
    /// given partitions: the correction's validity is checked against the
    /// *survivors'* statistics version (see
    /// [`Catalog::stats_version_for`]), so corrections learned over a
    /// pruned scan keep applying across appends to pruned-away partitions
    /// and stop applying when the survivor set or its data changes.
    pub fn selectivity_for(
        &self,
        predicate: &Predicate,
        props: &PlanProps,
        table: Option<&str>,
        parts: Option<&[usize]>,
    ) -> f64 {
        let base = estimate_selectivity(predicate, props);
        // An empty store is one atomic load: no shape is rendered and no
        // lock taken on the search path until something was learned.
        let feedback = self.feedback.filter(|store| !store.is_empty());
        if let (Some(store), Some(table)) = (feedback, table) {
            if let Some(version) = self.catalog.stats_version_for(table, parts) {
                if let Some(factor) = store.correction(table, &predicate.shape(), version) {
                    self.applied.set(self.applied.get() + 1);
                    return (base * factor).clamp(0.0, 1.0);
                }
            }
        }
        base
    }

    /// Filter output properties: rows scaled by `selectivity`, density
    /// and key range degraded (filtering punches holes into a dense
    /// domain), distinct count scaled and clamped. Unprojected.
    pub fn derive_filter(&self, input: PlanProps, selectivity: f64) -> PlanProps {
        let out_rows = ((input.rows as f64) * selectivity).ceil() as u64;
        let mut props = input;
        props.rows = out_rows;
        props.density = Density::Unknown;
        props.key_range = None;
        props.distinct = props.distinct.map(|d| {
            (((d as f64) * selectivity).ceil() as u64)
                .max(1)
                .min(out_rows.max(1))
        });
        props
    }

    /// Estimated output cardinality for every node of a physical plan,
    /// pre-order, using the optimiser's own estimation rules
    /// (uniform-containment joins, textbook predicate selectivities with
    /// any feedback corrections, distinct-count grouping). A table or
    /// column missing from the catalog degrades that node's estimate to a
    /// pass-through instead of failing.
    pub fn estimate_rows(&self, plan: &PhysicalPlan) -> Vec<u64> {
        let mut out = Vec::with_capacity(plan.node_count());
        self.est_node(plan, &mut out);
        out
    }

    fn est_node(&self, plan: &PhysicalPlan, out: &mut Vec<u64>) -> u64 {
        let idx = out.len();
        out.push(0);
        let rows = match plan {
            PhysicalPlan::Scan { table } => self
                .catalog
                .get(table)
                .map(|t| t.relation.rows() as u64)
                .unwrap_or(0),
            // Post-pruning estimate: the survivors' observed rowcounts,
            // not the whole table's — this is what `explain_analyze`
            // compares actual rows against.
            PhysicalPlan::PartitionedScan { table, parts, .. } => {
                match self.catalog.partitioning_of(table) {
                    Some(p) => p.rows_in(parts) as u64,
                    None => self
                        .catalog
                        .get(table)
                        .map(|t| t.relation.rows() as u64)
                        .unwrap_or(0),
                }
            }
            PhysicalPlan::Filter { input, predicate } => {
                let child = self.est_node(input, out);
                let props = predicate
                    .columns()
                    .first()
                    .and_then(|col| column_props_below(input, col, self.catalog))
                    .unwrap_or_else(|| PlanProps::unknown(child));
                let (table, parts) =
                    scan_target_below(input).map_or((None, None), |(t, p)| (Some(t), p));
                let sel = self.selectivity_for(predicate, &props, table, parts);
                ((child as f64) * sel).ceil() as u64
            }
            PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Exchange { input, .. } => self.est_node(input, out),
            PhysicalPlan::Limit { input, n } => self.est_node(input, out).min(*n),
            PhysicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                let l = self.est_node(left, out);
                let r = self.est_node(right, out);
                let d_l = column_props_below(left, left_key, self.catalog).and_then(|p| p.distinct);
                let d_r =
                    column_props_below(right, right_key, self.catalog).and_then(|p| p.distinct);
                estimate_join_rows(l, r, d_l, d_r)
            }
            PhysicalPlan::GroupBy { input, keys, .. } => {
                let child = self.est_node(input, out);
                // Output rows = distinct key combinations; assume key
                // independence (product of per-column distincts) and cap
                // by the input cardinality.
                let mut groups: u64 = 1;
                for key in keys {
                    let d = column_props_below(input, key, self.catalog)
                        .and_then(|p| p.distinct)
                        .unwrap_or(child);
                    groups = groups.saturating_mul(d.max(1));
                }
                groups.min(child)
            }
        };
        out[idx] = rows;
        rows
    }
}

/// Resolve a column's base-table statistics by walking down the
/// single-child spine beneath `plan` to its `Scan`. Joins and missing
/// columns yield `None` (the estimate falls back to unknown props).
pub(crate) fn column_props_below(
    plan: &PhysicalPlan,
    column: &str,
    catalog: &Catalog,
) -> Option<PlanProps> {
    match plan {
        PhysicalPlan::Scan { table } | PhysicalPlan::PartitionedScan { table, .. } => catalog
            .column_props(table, column)
            .ok()
            .map(|d| PlanProps::from_data(&d)),
        PhysicalPlan::Join { .. } => None,
        _ => plan
            .children()
            .first()
            .and_then(|c| column_props_below(c, column, catalog)),
    }
}

/// The single base scan beneath a physical plan: its table plus, for a
/// partitioned scan, the surviving partition set (the stats owner a
/// filter's learned corrections are keyed and versioned by). `None` once
/// a join makes ownership ambiguous.
pub(crate) fn scan_target_below(plan: &PhysicalPlan) -> Option<(&str, Option<&[usize]>)> {
    match plan {
        PhysicalPlan::Scan { table } => Some((table, None)),
        PhysicalPlan::PartitionedScan { table, parts, .. } => Some((table, Some(parts))),
        PhysicalPlan::Join { .. } => None,
        _ => plan.children().first().and_then(|c| scan_target_below(c)),
    }
}

/// The single base table beneath a logical plan (the stats owner a
/// filter's learned corrections are keyed by).
pub(crate) fn logical_base_table(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::Scan { table } => Some(table),
        LogicalPlan::Join { .. } => None,
        _ => plan.children().first().and_then(|c| logical_base_table(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_plan::expr::CmpOp;
    use dqo_storage::datagen::DatasetSpec;

    fn catalog_10k_100() -> Catalog {
        let cat = Catalog::new();
        let rel = DatasetSpec::new(10_000, 100)
            .dense(true)
            .relation()
            .unwrap();
        cat.register("t", rel);
        cat
    }

    #[test]
    fn feedback_scales_selectivity_and_counts_applications() {
        let cat = catalog_10k_100();
        let store = FeedbackStore::new();
        let version = cat.table_stats_version("t").unwrap();
        let pred = Predicate::cmp("key", CmpOp::Eq, 5u32);
        store.record("t", &pred.shape(), 50.0, version);

        let props = PlanProps {
            distinct: Some(100),
            ..PlanProps::unknown(10_000)
        };
        let base = PropertyBuilder::new(&cat);
        assert!((base.selectivity(&pred, &props, Some("t")) - 0.01).abs() < 1e-12);
        assert_eq!(base.applied(), 0);

        let fed = PropertyBuilder::with_feedback(&cat, Some(&store));
        assert!((fed.selectivity(&pred, &props, Some("t")) - 0.5).abs() < 1e-12);
        assert_eq!(fed.applied(), 1);
        // Unknown table: no correction, no count.
        assert!((fed.selectivity(&pred, &props, None) - 0.01).abs() < 1e-12);
        assert_eq!(fed.take_applied(), 1);
        assert_eq!(fed.applied(), 0);
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
        let props = PlanProps {
            distinct: Some(100),
            ..PlanProps::unknown(10_000)
        };
        let fed = PropertyBuilder::with_feedback(&cat, Some(&store));
        assert!((fed.selectivity(&pred, &props, Some("t")) - 0.01).abs() < 1e-12);
        assert_eq!(fed.applied(), 0);
    }

    #[test]
    fn corrected_estimates_flow_into_estimate_rows() {
        let cat = catalog_10k_100();
        let store = FeedbackStore::new();
        let pred = Predicate::cmp("key", CmpOp::Eq, 5u32);
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
            predicate: pred.clone(),
        };
        let base = PropertyBuilder::new(&cat).estimate_rows(&plan);
        assert_eq!(base, vec![100, 10_000]);
        store.record(
            "t",
            &pred.shape(),
            50.0,
            cat.table_stats_version("t").unwrap(),
        );
        let fed = PropertyBuilder::with_feedback(&cat, Some(&store)).estimate_rows(&plan);
        assert_eq!(fed, vec![5_000, 10_000]);
    }

    #[test]
    fn derive_filter_matches_the_dp_arithmetic() {
        let cat = catalog_10k_100();
        let pb = PropertyBuilder::new(&cat);
        let input = PlanProps {
            distinct: Some(100),
            ..PlanProps::unknown(10_000)
        };
        let out = pb.derive_filter(input, 0.01);
        assert_eq!(out.rows, 100);
        assert_eq!(out.distinct, Some(1));
        assert_eq!(out.density, Density::Unknown);
        assert_eq!(out.key_range, None);
    }
}
