//! A prepared-statement plan cache: optimise a query *shape* once, reuse
//! the physical plan across executions with different parameter values.
//!
//! At high QPS the optimiser's per-query enumeration becomes the hot
//! path (the ROADMAP's memo item); for the prepared-statement serving
//! path this cache removes it entirely. Entries are keyed on
//!
//! * the **normalised plan shape** — the logical tree rendered with every
//!   comparison constant masked out (plus the session's optimiser mode,
//!   property model and the admission-granted DOP, folded into the key
//!   string by the engine), and
//! * the **catalog registration generation** — the existing DDL clock:
//!   every table registration or drop (including hidden `__av::`
//!   relations, so AV materialisation and invalidation count) bumps it,
//!   which makes every cached plan from before the change unreachable.
//!
//! A hit does **not** execute the cached plan verbatim: its filter
//! constants are the *previous* execution's parameters. The cache
//! structurally rebinds the fresh logical plan's predicates into the
//! cached physical tree (the optimiser copies logical `Filter` predicates
//! into physical `Filter` nodes unchanged, so the preorder filter
//! sequences correspond one to one). If the shapes do not line up — an
//! AV rewrite swallowed the filter, say — the lookup reports a miss and
//! the engine plans cold; correctness never depends on a hit.
//!
//! Capacity is bounded with LRU eviction; stale generations are swept on
//! insert. Hit/miss/eviction counters and an entry gauge live in the
//! engine's metrics registry under the canonical `dqo_plan_cache_*`
//! names.

use crate::catalog::Catalog;
use crate::optimizer::PlannedQuery;
use crate::partition_prune::prune_partitions;
use dqo_obs::{names, Counter, Gauge, MetricsRegistry};
use dqo_plan::expr::Predicate;
use dqo_plan::{LogicalPlan, PhysicalPlan};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Default maximum number of cached plans per engine session.
pub const DEFAULT_CAPACITY: usize = 128;

/// A bounded, generation-invalidated cache of optimised plans. See the
/// module docs for keying and rebinding semantics.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    entries: Gauge,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<(String, u64), Entry>,
    /// Recency clock for LRU eviction.
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    planned: Arc<PlannedQuery>,
    last_used: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans, metrics in `registry`.
    pub fn new(capacity: usize, registry: &MetricsRegistry) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: registry.counter(names::PLAN_CACHE_HITS),
            misses: registry.counter(names::PLAN_CACHE_MISSES),
            evictions: registry.counter(names::PLAN_CACHE_EVICTIONS),
            entries: registry.gauge(names::PLAN_CACHE_ENTRIES),
        }
    }

    /// Re-register the metric handles in `registry` (used when a session
    /// moves to an isolated registry after construction).
    pub fn rebind_metrics(&mut self, registry: &MetricsRegistry) {
        self.hits = registry.counter(names::PLAN_CACHE_HITS);
        self.misses = registry.counter(names::PLAN_CACHE_MISSES);
        self.evictions = registry.counter(names::PLAN_CACHE_EVICTIONS);
        self.entries = registry.gauge(names::PLAN_CACHE_ENTRIES);
    }

    /// Look up `key` at `generation` and rebind `fresh`'s predicates into
    /// the cached physical plan. Counts a hit only when the rebind
    /// succeeds; a missing entry *or* a failed rebind is a miss (the
    /// caller plans cold either way).
    ///
    /// `catalog`/`pruning` drive **re-pruning on rebind**: a cached plan
    /// that pruned a partitioned scan did so against the *previous*
    /// execution's constants, so serving it verbatim would scan the wrong
    /// survivor set. The rebind recomputes the survivors from the fresh
    /// predicate (see `rebind_node`); partition specs only change via
    /// re-registration, which moves the DDL clock and makes the entry
    /// unreachable, so the spec consulted here is always the one the plan
    /// was built against.
    pub fn lookup(
        &self,
        key: &str,
        generation: u64,
        fresh: &LogicalPlan,
        catalog: &Catalog,
        pruning: bool,
    ) -> Option<PlannedQuery> {
        let cached = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&(key.to_owned(), generation)) {
                Some(entry) => {
                    entry.last_used = tick;
                    Some(Arc::clone(&entry.planned))
                }
                None => None,
            }
        };
        let rebound = cached.and_then(|planned| {
            rebind_plan(&planned.plan, fresh, catalog, pruning).map(|plan| PlannedQuery {
                plan,
                ..(*planned).clone()
            })
        });
        match &rebound {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        rebound
    }

    /// Insert a freshly optimised plan for `key` at `generation`. Sweeps
    /// entries from older generations (the DDL clock only moves forward,
    /// so they can never hit again) and LRU-evicts beyond capacity.
    pub fn insert(&self, key: String, generation: u64, planned: &PlannedQuery) {
        let mut inner = self.inner.lock();
        let stale: Vec<(String, u64)> = inner
            .map
            .keys()
            .filter(|(_, g)| *g != generation)
            .cloned()
            .collect();
        for k in stale {
            inner.map.remove(&k);
            self.evictions.inc();
        }
        while inner.map.len() >= self.capacity {
            let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.map.remove(&lru);
            self.evictions.inc();
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            (key, generation),
            Entry {
                planned: Arc::new(planned.clone()),
                last_used: tick,
            },
        );
        self.entries.set(inner.map.len() as u64);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counted as evictions).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let n = inner.map.len();
        inner.map.clear();
        self.evictions.add(n as u64);
        self.entries.set(0);
    }
}

/// Render a logical plan's *shape*: the tree with every comparison
/// constant masked as `?`. LIKE prefixes and LIMIT counts stay — they are
/// plan constants (they shape candidate enumeration), and the prepared
/// path never parameterises them. Delegates to [`LogicalPlan::shape`] —
/// the same renderer the optimiser memo uses, so the cache and the memo
/// can never disagree about what "the same statement" means.
pub fn plan_shape(plan: &LogicalPlan) -> String {
    plan.shape()
}

/// A predicate with comparison constants masked (`k < ?`), conjuncts in
/// order (see [`Predicate::shape`]).
fn predicate_shape(p: &Predicate) -> String {
    p.shape()
}

/// Rebind `fresh`'s filter predicates into a cached physical plan. The
/// optimiser copies each logical `Filter` predicate verbatim into exactly
/// one physical `Filter` node (possibly under an `Exchange`), so the
/// preorder filter sequences correspond one to one — when they do not
/// (e.g. an AV rewrite absorbed the filter), returns `None` and the
/// caller plans cold.
fn rebind_plan(
    cached: &PhysicalPlan,
    fresh: &LogicalPlan,
    catalog: &Catalog,
    pruning: bool,
) -> Option<PhysicalPlan> {
    let mut predicates = Vec::new();
    collect_predicates(fresh, &mut predicates);
    let mut next = 0usize;
    let cx = RebindCx {
        predicates: &predicates,
        catalog,
        pruning,
    };
    let rebound = rebind_node(cached, &cx, &mut next)?;
    (next == predicates.len()).then_some(rebound)
}

struct RebindCx<'a> {
    predicates: &'a [&'a Predicate],
    catalog: &'a Catalog,
    pruning: bool,
}

fn collect_predicates<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a Predicate>) {
    if let LogicalPlan::Filter { predicate, .. } = plan {
        out.push(predicate);
    }
    for child in plan.children() {
        collect_predicates(child, out);
    }
}

fn rebind_node(plan: &PhysicalPlan, cx: &RebindCx<'_>, next: &mut usize) -> Option<PhysicalPlan> {
    match plan {
        PhysicalPlan::Filter { input, predicate } => {
            let fresh = cx.predicates.get(*next)?;
            if predicate_shape(predicate) != predicate_shape(fresh) {
                return None;
            }
            *next += 1;
            // Re-prune a partitioned scan directly beneath this filter
            // against the *fresh* constants — the cached survivor set was
            // computed for the previous execution's values.
            let input = match input.as_ref() {
                PhysicalPlan::PartitionedScan { table, total, .. } => {
                    let partitioning = cx.catalog.partitioning_of(table)?;
                    if partitioning.part_count() != *total {
                        return None;
                    }
                    let parts = if cx.pruning {
                        prune_partitions(partitioning.spec(), fresh)
                    } else {
                        (0..*total).collect()
                    };
                    PhysicalPlan::PartitionedScan {
                        table: table.clone(),
                        parts,
                        total: *total,
                    }
                }
                other => rebind_node(other, cx, next)?,
            };
            Some(PhysicalPlan::Filter {
                input: Box::new(input),
                predicate: (*fresh).clone(),
            })
        }
        PhysicalPlan::Scan { .. } => Some(plan.clone()),
        // An unpruned partitioned scan is constant-independent; a pruned
        // one *not* governed by a filter above (handled there) cannot be
        // revalidated — refuse the hit and let the engine plan cold.
        PhysicalPlan::PartitionedScan { parts, total, .. } => {
            (parts.len() == *total).then(|| plan.clone())
        }
        PhysicalPlan::Sort {
            input,
            key,
            molecule,
        } => Some(PhysicalPlan::Sort {
            input: Box::new(rebind_node(input, cx, next)?),
            key: key.clone(),
            molecule: *molecule,
        }),
        PhysicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            algo,
        } => Some(PhysicalPlan::Join {
            left: Box::new(rebind_node(left, cx, next)?),
            right: Box::new(rebind_node(right, cx, next)?),
            left_key: left_key.clone(),
            right_key: right_key.clone(),
            algo: *algo,
        }),
        PhysicalPlan::GroupBy {
            input,
            keys,
            aggs,
            algo,
            molecules,
        } => Some(PhysicalPlan::GroupBy {
            input: Box::new(rebind_node(input, cx, next)?),
            keys: keys.clone(),
            aggs: aggs.clone(),
            algo: *algo,
            molecules: *molecules,
        }),
        PhysicalPlan::Project { input, columns } => Some(PhysicalPlan::Project {
            input: Box::new(rebind_node(input, cx, next)?),
            columns: columns.clone(),
        }),
        PhysicalPlan::Limit { input, n } => Some(PhysicalPlan::Limit {
            input: Box::new(rebind_node(input, cx, next)?),
            n: *n,
        }),
        PhysicalPlan::Exchange { input, dop } => Some(PhysicalPlan::Exchange {
            input: Box::new(rebind_node(input, cx, next)?),
            dop: *dop,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::cost::TupleCostModel;
    use crate::optimizer::{optimize_full_dop, OptimizerMode, PropertyModel};
    use dqo_plan::expr::AggExpr;
    use dqo_plan::CmpOp;
    use dqo_storage::datagen::DatasetSpec;
    use dqo_storage::Value;

    fn filtered_group(value: u32) -> Arc<LogicalPlan> {
        LogicalPlan::group_by(
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("key", CmpOp::Lt, value),
            ),
            "key",
            vec![AggExpr::count_star("n")],
        )
    }

    fn plan(catalog: &Catalog, logical: &LogicalPlan) -> PlannedQuery {
        optimize_full_dop(
            logical,
            catalog,
            OptimizerMode::Deep,
            &TupleCostModel,
            None,
            PropertyModel::AttributeStrict,
            1,
        )
        .unwrap()
    }

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(10_000, 64).dense(true).relation().unwrap(),
        );
        cat
    }

    #[test]
    fn shapes_mask_constants_but_not_structure() {
        let a = plan_shape(&filtered_group(5));
        let b = plan_shape(&filtered_group(500));
        assert_eq!(a, b, "constants must not affect the shape");
        assert!(a.contains("key < ?"), "{a}");
        // Different structure → different shape.
        let other = plan_shape(&LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![AggExpr::count_star("n")],
        ));
        assert_ne!(a, other);
        // LIKE prefixes and LIMIT are part of the shape.
        let like_a = plan_shape(&LogicalPlan::filter(
            LogicalPlan::scan("t"),
            Predicate::prefix("s", "ab"),
        ));
        let like_b = plan_shape(&LogicalPlan::filter(
            LogicalPlan::scan("t"),
            Predicate::prefix("s", "zz"),
        ));
        assert_ne!(like_a, like_b);
    }

    #[test]
    fn hit_rebinds_fresh_constants() {
        let cat = catalog();
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(8, &registry);
        let cold = plan(&cat, &filtered_group(5));
        let shape = plan_shape(&filtered_group(5));
        cache.insert(shape.clone(), 1, &cold);

        let fresh = filtered_group(42);
        let hit = cache.lookup(&shape, 1, &fresh, &cat, true).expect("hit");
        let text = hit.plan.explain();
        assert!(text.contains("key < 42"), "{text}");
        assert!(!text.contains("key < 5"), "{text}");
        assert_eq!(hit.est_cost, cold.est_cost);
        assert!(
            cache.lookup(&shape, 2, &fresh, &cat, true).is_none(),
            "stale generation"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::PLAN_CACHE_HITS), Some(1));
        assert_eq!(snap.counter(names::PLAN_CACHE_MISSES), Some(1));
    }

    #[test]
    fn mismatched_filter_shape_is_a_miss() {
        let cat = catalog();
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(8, &registry);
        let cold = plan(&cat, &filtered_group(5));
        let shape = plan_shape(&filtered_group(5));
        cache.insert(shape.clone(), 1, &cold);
        // Same key string claimed, but the fresh plan's predicate uses a
        // different operator: the structural check must refuse to serve.
        let fresh = LogicalPlan::group_by(
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("key", CmpOp::Ge, 42u32),
            ),
            "key",
            vec![AggExpr::count_star("n")],
        );
        assert!(cache.lookup(&shape, 1, &fresh, &cat, true).is_none());
        assert_eq!(
            registry.snapshot().counter(names::PLAN_CACHE_MISSES),
            Some(1)
        );
    }

    #[test]
    fn insert_sweeps_stale_generations_and_lru_evicts() {
        let cat = catalog();
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(2, &registry);
        let cold = plan(&cat, &filtered_group(5));
        cache.insert("a".into(), 1, &cold);
        cache.insert("b".into(), 1, &cold);
        assert_eq!(cache.len(), 2);
        // Touch "a" so "b" is the LRU victim.
        let _ = cache.lookup("a", 1, &filtered_group(9), &cat, true);
        cache.insert("c".into(), 1, &cold);
        assert_eq!(cache.len(), 2);
        assert!(cache
            .lookup("b", 1, &filtered_group(9), &cat, true)
            .is_none());
        assert!(cache
            .lookup("a", 1, &filtered_group(9), &cat, true)
            .is_some());
        // A new generation sweeps everything from the old one.
        cache.insert("d".into(), 2, &cold);
        assert_eq!(cache.len(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::PLAN_CACHE_EVICTIONS), Some(3));
        assert_eq!(snap.gauge(names::PLAN_CACHE_ENTRIES), Some(1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(
            registry.snapshot().counter(names::PLAN_CACHE_EVICTIONS),
            Some(4)
        );
    }

    #[test]
    fn rebind_reaches_filters_under_exchange() {
        // Force a parallel plan so the Filter sits beneath an Exchange;
        // the rebind must still find and replace it.
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(300_000, 512)
                .dense(true)
                .relation()
                .unwrap(),
        );
        let cold = optimize_full_dop(
            &filtered_group(5),
            &cat,
            OptimizerMode::Deep,
            &TupleCostModel,
            None,
            PropertyModel::AttributeStrict,
            4,
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(8, &registry);
        cache.insert("k".into(), 1, &cold);
        let hit = cache
            .lookup("k", 1, &filtered_group(77), &cat, true)
            .expect("hit");
        let text = hit.plan.explain();
        assert!(text.contains("key < 77"), "{text}");
    }

    #[test]
    fn conjunction_values_rebind_positionally() {
        let cat = catalog();
        let with_values = |a: u32, b: u32| {
            LogicalPlan::project(
                LogicalPlan::filter(
                    LogicalPlan::scan("t"),
                    Predicate::And(vec![
                        Predicate::cmp("key", CmpOp::Ge, a),
                        Predicate::cmp("key", CmpOp::Lt, b),
                    ]),
                ),
                vec!["key".into()],
            )
        };
        let cold = plan(&cat, &with_values(1, 5));
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(8, &registry);
        cache.insert("k".into(), 1, &cold);
        let hit = cache
            .lookup("k", 1, &with_values(30, 60), &cat, true)
            .expect("hit");
        let text = hit.plan.explain();
        assert!(text.contains("key >= 30 AND key < 60"), "{text}");
    }

    #[test]
    fn string_comparison_shapes_mask_the_constant() {
        let p = Predicate::Compare {
            column: "s".into(),
            op: CmpOp::Eq,
            value: Value::Str("x".into()),
        };
        assert_eq!(predicate_shape(&p), "s = ?");
    }
}
