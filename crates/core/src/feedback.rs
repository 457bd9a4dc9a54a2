//! Adaptive cardinality feedback — closing the loop §6 leaves open.
//!
//! `EXPLAIN ANALYZE` (PR 6) already measures, for every executed plan
//! node, estimated-vs-actual rows; until now the signal stopped at the
//! terminal. The [`FeedbackStore`] persists it where the optimiser can
//! eat it: per **(table, predicate shape)** selectivity *correction
//! factors*, derived from a [`PlanRuntime`]
//! whenever a filter's actual selectivity deviates from the textbook
//! estimate by at least [`DEVIATION_THRESHOLD`]×.
//!
//! Corrections are stamped with the table's **statistics version** (the
//! `(registration generation, data generation)` pair — or, for a filter
//! over a pruned partitioned scan, the *surviving partitions'* version
//! from [`Catalog::stats_version_for`]): a correction learned against
//! one snapshot of the data is never applied to another.
//! The memo's coster ([`crate::property_builder::PropertyBuilder`])
//! multiplies the stored factor into the base estimate; recording always
//! compares actuals against the *uncorrected* base estimate, so factors
//! converge instead of compounding.
//!
//! The store has an **epoch** clock that bumps whenever a correction is
//! added or materially changed — part of the [`MemoStamp`] the plan store
//! puts on ad-hoc plans, so a learned correction outdates them and the
//! next search of the same statement re-costs with corrected
//! cardinalities. Prepared statements' stored plans are deliberately
//! *not* outdated by the epoch: they keep their bit-identical rebind
//! guarantee and pick up corrections on their next cold plan (DDL-clock
//! movement), keeping PR 7's serving semantics intact.
//!
//! [`MemoStamp`]: crate::memo::MemoStamp

use crate::catalog::Catalog;
use crate::profile::PlanRuntime;
use crate::property_builder::PropertyBuilder;
use dqo_plan::PhysicalPlan;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Minimum estimated-vs-actual selectivity deviation (as a ratio, larger
/// side over smaller) before a correction is recorded. Well-estimated
/// predicates never enter the store, so plans over uniform data are
/// bit-identical with feedback enabled or disabled.
pub const DEVIATION_THRESHOLD: f64 = 4.0;

/// One learned selectivity correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correction {
    /// Multiply the base selectivity estimate by this factor.
    pub factor: f64,
    /// The table's `(generation, data_generation)` when learned; the
    /// correction only applies while this is still current.
    pub stats_version: (u64, u64),
}

/// A concurrent store of per-(table, predicate-shape) selectivity
/// corrections. See the module docs for the data flow.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    /// table → predicate shape → correction (nested so a lookup borrows
    /// both strings).
    corrections: Mutex<HashMap<String, HashMap<String, Correction>>>,
    /// Number of stored corrections, so the optimiser's per-filter lookup
    /// can skip the mutex while the store is empty. Written under the
    /// mutex with `Release` before the epoch's `Release` bump; a planner
    /// that `Acquire`-loads an epoch therefore sees at least the count
    /// that epoch was bumped for.
    len: AtomicUsize,
    /// Bumps whenever a correction is added or materially changed.
    epoch: AtomicU64,
}

impl FeedbackStore {
    /// An empty store.
    pub fn new() -> Self {
        FeedbackStore::default()
    }

    /// The store's change clock (see module docs).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of stored corrections (one atomic load).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether no corrections are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a correction for `(table, shape)`. Returns `true` (and
    /// bumps the epoch) when the entry is new or its factor materially
    /// changed; re-recording the same factor is a no-op so steady-state
    /// serving does not churn the memo.
    pub fn record(&self, table: &str, shape: &str, factor: f64, stats_version: (u64, u64)) -> bool {
        if !factor.is_finite() || factor <= 0.0 {
            return false;
        }
        let factor = factor.clamp(1e-6, 1e6);
        let mut map = self.corrections.lock();
        let changed = match map.get(table).and_then(|shapes| shapes.get(shape)) {
            Some(existing) if existing.stats_version == stats_version => {
                (existing.factor / factor - 1.0).abs() > 0.01
            }
            _ => true,
        };
        if changed {
            let correction = Correction {
                factor,
                stats_version,
            };
            let shapes = map.entry(table.to_owned()).or_default();
            if shapes.insert(shape.to_owned(), correction).is_none() {
                self.len.fetch_add(1, Ordering::Release);
            }
            self.epoch.fetch_add(1, Ordering::Release);
        }
        changed
    }

    /// The correction factor for `(table, shape)`, if one was learned
    /// against the table's *current* statistics version.
    pub fn correction(&self, table: &str, shape: &str, stats_version: (u64, u64)) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let map = self.corrections.lock();
        map.get(table)?
            .get(shape)
            .filter(|c| c.stats_version == stats_version)
            .map(|c| c.factor)
    }

    /// Drop every correction (the epoch bumps once if anything was
    /// stored).
    pub fn clear(&self) {
        let mut map = self.corrections.lock();
        if !map.is_empty() {
            map.clear();
            self.len.store(0, Ordering::Release);
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }

    /// Mine an executed plan's runtime profile for mis-estimated filters
    /// and record corrections. `runtime` is the traced per-node metrics
    /// in plan pre-order; estimates are recomputed *without* feedback so
    /// stored factors are always relative to the base estimate (no
    /// compounding). Returns how many corrections were recorded or
    /// updated.
    pub fn observe_runtime(
        &self,
        plan: &PhysicalPlan,
        runtime: &PlanRuntime,
        catalog: &Catalog,
    ) -> usize {
        if runtime.is_empty() {
            return 0;
        }
        let base_est = PropertyBuilder::new(catalog).estimate_rows(plan);
        let mut nodes = Vec::new();
        preorder(plan, &mut nodes);
        let mut recorded = 0;
        for (idx, node) in nodes.iter().enumerate() {
            let PhysicalPlan::Filter { input, predicate } = node else {
                continue;
            };
            // In pre-order the filter's input subtree starts right after
            // the filter itself.
            let (Some(&est_out), Some(&est_in)) = (base_est.get(idx), base_est.get(idx + 1)) else {
                continue;
            };
            let (Some(act_out), Some(act_in)) = (
                runtime.node(idx).map(|m| m.rows_out),
                runtime.node(idx + 1).map(|m| m.rows_out),
            ) else {
                continue;
            };
            if est_in == 0 || act_in == 0 {
                continue;
            }
            let Some((table, parts)) = crate::property_builder::scan_target_below(input) else {
                continue; // multi-table input: no single stats owner
            };
            let est_sel = (est_out.max(1) as f64) / (est_in as f64);
            let act_sel = (act_out.max(1) as f64) / (act_in as f64);
            let factor = act_sel / est_sel;
            let deviation = factor.max(1.0 / factor);
            if deviation < DEVIATION_THRESHOLD {
                continue;
            }
            // Partitioned scans stamp the *survivors'* stats version, so
            // appends to pruned-away partitions don't invalidate (or
            // wrongly validate) the correction.
            let Some(stats_version) = catalog.stats_version_for(table, parts) else {
                continue;
            };
            if self.record(table, &predicate.shape(), factor, stats_version) {
                recorded += 1;
            }
        }
        recorded
    }
}

/// Flatten a physical plan to pre-order node references (the order
/// [`PlanRuntime`] and estimate vectors are indexed in).
fn preorder<'a>(plan: &'a PhysicalPlan, out: &mut Vec<&'a PhysicalPlan>) {
    out.push(plan);
    for child in plan.children() {
        preorder(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup_respect_stats_version() {
        let store = FeedbackStore::new();
        assert_eq!(store.epoch(), 0);
        assert!(store.record("t", "key = ?", 25.0, (3, 1)));
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.correction("t", "key = ?", (3, 1)), Some(25.0));
        // Wrong stats version: the correction is invisible.
        assert_eq!(store.correction("t", "key = ?", (3, 2)), None);
        assert_eq!(store.correction("t", "key = ?", (4, 0)), None);
        // Unknown shape or table: nothing.
        assert_eq!(store.correction("t", "key < ?", (3, 1)), None);
        assert_eq!(store.correction("u", "key = ?", (3, 1)), None);
    }

    #[test]
    fn rerecording_same_factor_does_not_churn_the_epoch() {
        let store = FeedbackStore::new();
        assert!(store.record("t", "key = ?", 25.0, (3, 1)));
        let e = store.epoch();
        assert!(!store.record("t", "key = ?", 25.1, (3, 1)), "within 1%");
        assert_eq!(store.epoch(), e);
        assert!(
            store.record("t", "key = ?", 50.0, (3, 1)),
            "material change"
        );
        assert!(store.epoch() > e);
        // A new stats version always re-records (fresh snapshot).
        assert!(store.record("t", "key = ?", 50.0, (3, 2)));
    }

    #[test]
    fn degenerate_factors_are_rejected_and_clamped() {
        let store = FeedbackStore::new();
        assert!(!store.record("t", "s", 0.0, (0, 0)));
        assert!(!store.record("t", "s", -3.0, (0, 0)));
        assert!(!store.record("t", "s", f64::NAN, (0, 0)));
        assert!(!store.record("t", "s", f64::INFINITY, (0, 0)));
        assert!(store.is_empty());
        assert!(store.record("t", "s", 1e12, (0, 0)));
        assert_eq!(store.correction("t", "s", (0, 0)), Some(1e6));
        store.clear();
        assert!(store.is_empty());
    }
}
