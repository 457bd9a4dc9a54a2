//! The plan store: the one thing the engine keeps between statements.
//!
//! A search's [memo](crate::memo) is scratch and dies with the search;
//! what survives is the chosen plan, here, for both entry paths:
//!
//! * A **prepared** statement is keyed on its *normalised shape* — the
//!   logical tree rendered with every comparison constant masked out
//!   ([`plan_shape`], computed and hashed once at `PREPARE`) — plus the
//!   session knobs and the admission-granted DOP (`Knobs`). Its entry is
//!   valid for one **catalog registration generation** (the DDL clock:
//!   every table registration or drop, hidden `__av::` relations
//!   included, moves it). It is admitted on first execution, and a hit
//!   does **not** execute the stored plan verbatim — its filter constants
//!   are the *previous* execution's parameters — but structurally rebinds
//!   the fresh logical plan's predicates into the stored physical tree
//!   (the optimiser copies logical `Filter` predicates into physical
//!   `Filter` nodes unchanged, so the preorder filter sequences
//!   correspond one to one). If the shapes do not line up — an AV rewrite
//!   swallowed the filter, say — the lookup reports a miss and the engine
//!   searches; correctness never depends on a hit. An INSERT moves no DDL
//!   clock but can break a column's order that the plan relies on (a
//!   sort elided, OG, OJ): a hit is served only while every sorted column
//!   of the base tables the plan scans keeps the order the catalog gave
//!   it at planning. A sorted projection needs no such check: the
//!   executor shows its readers its rows in key order.
//! * An **ad-hoc** statement is keyed on its logical plan itself, hashed
//!   and compared structurally with its literals and their types (as the
//!   memo tells groups apart; nothing is rendered), plus the same knobs.
//!   Its entry carries the [`MemoStamp`] — statistics clock, AV clock,
//!   feedback epoch — read before the search that produced it, and is
//!   served only while that stamp is current: a served plan is the plan a
//!   search would return now. It is admitted on its **second** sighting
//!   (a fixed-size, direct-mapped ghost array of key hashes remembers the
//!   first), so a stream of never-repeating statements costs one search
//!   each and evicts nothing, while statements that do repeat live here.
//!
//! Capacity is bounded with LRU eviction; an entry whose generation or
//! stamp has moved is replaced when its statement is next planned.
//! Hit/miss/eviction counters and an entry gauge live in the engine's
//! metrics registry under the canonical `dqo_plan_cache_*` names.

use crate::catalog::Catalog;
use crate::memo::MemoStamp;
use crate::optimizer::{OptimizerMode, PlannedQuery};
use crate::partition_prune::prune_partitions;
use dqo_obs::{names, Counter, Gauge, MetricsRegistry};
use dqo_plan::expr::Predicate;
use dqo_plan::{LogicalPlan, PhysicalPlan};
use dqo_storage::Sortedness;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default maximum number of stored plans per engine session.
pub const DEFAULT_CAPACITY: usize = 128;

/// Slots in the ghost array of once-seen ad-hoc key hashes. A repeating
/// statement is admitted if fewer than about this many other first
/// sightings fall between two of its own.
const GHOST_SLOTS: usize = 1024;

/// Everything besides the statement and the catalog that changes the
/// optimiser's answer: the session knobs and the granted DOP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Knobs {
    /// Shallow or deep optimisation.
    pub(crate) mode: OptimizerMode,
    /// Degree of parallelism the plan is for.
    pub(crate) dop: usize,
    /// Whether plan-time partition pruning is on.
    pub(crate) pruning: bool,
}

/// What an entry was planned under; it is served only to a lookup that
/// presents the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Validity {
    /// Prepared statements: the catalog's DDL clock.
    Generation(u64),
    /// Ad-hoc statements: the three clocks a search's costs depend on.
    Stamp(MemoStamp),
}

/// A statement's identity in the store: a prepared statement's masked
/// shape, or an ad-hoc statement's logical plan itself — borrowed for a
/// lookup, owned once stored — plus the knobs it was planned under.
#[derive(Debug, Clone)]
pub(crate) struct StoreKey<'a> {
    statement: Statement<'a>,
    knobs: Knobs,
    hash: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum Statement<'a> {
    /// The masked shape, rendered and hashed once at `PREPARE`.
    Prepared(Arc<str>),
    /// The logical plan, compared structurally: literals and their types
    /// included, nothing rendered.
    Adhoc(Cow<'a, LogicalPlan>),
}

/// SipHash of a key text — what `Engine::prepare` precomputes.
pub(crate) fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

impl<'a> StoreKey<'a> {
    /// The key of a prepared statement whose shape hashed to `shape_hash`
    /// (see [`text_hash`]) at `PREPARE`.
    pub(crate) fn prepared(shape: &Arc<str>, shape_hash: u64, knobs: Knobs) -> Self {
        StoreKey::new(Statement::Prepared(Arc::clone(shape)), shape_hash, knobs)
    }

    /// The key of an ad-hoc statement: the logical plan's structural hash.
    pub(crate) fn adhoc(logical: &'a LogicalPlan, knobs: Knobs) -> Self {
        let mut h = DefaultHasher::new();
        logical.hash(&mut h);
        StoreKey::new(Statement::Adhoc(Cow::Borrowed(logical)), h.finish(), knobs)
    }

    fn new(statement: Statement<'a>, statement_hash: u64, knobs: Knobs) -> Self {
        let prepared = matches!(statement, Statement::Prepared(_));
        let mut h = DefaultHasher::new();
        (statement_hash, prepared, knobs).hash(&mut h);
        StoreKey {
            statement,
            knobs,
            hash: h.finish(),
        }
    }

    fn is_prepared(&self) -> bool {
        matches!(self.statement, Statement::Prepared(_))
    }

    /// The key as an entry keeps it: an ad-hoc plan copied (its root node;
    /// the subtrees are shared).
    fn into_owned(self) -> StoreKey<'static> {
        let statement = match self.statement {
            Statement::Prepared(shape) => Statement::Prepared(shape),
            Statement::Adhoc(plan) => Statement::Adhoc(Cow::Owned(plan.into_owned())),
        };
        StoreKey {
            statement,
            knobs: self.knobs,
            hash: self.hash,
        }
    }

    /// Full identity, not just equal hashes. (`Arc` equality is by
    /// pointer first, which is what a prepared statement's key hits.)
    fn same(&self, other: &StoreKey<'_>) -> bool {
        self.hash == other.hash && self.knobs == other.knobs && self.statement == other.statement
    }
}

/// The outcome of [`PlanCache::lookup`].
#[derive(Debug)]
pub(crate) enum Lookup {
    /// A plan ready to execute.
    Hit(PlannedQuery),
    /// Search; store the result only if `admit`.
    Miss {
        /// Whether the statement has earned a place in the store.
        admit: bool,
    },
}

/// A bounded store of optimised plans. See the module docs for keying,
/// validity, admission and rebinding semantics.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    entries: Gauge,
}

#[derive(Debug)]
struct Inner {
    /// Keyed on [`StoreKey::hash`]; an entry is only served to the
    /// [same](StoreKey::same) key, so a hash collision is a miss.
    map: HashMap<u64, Entry>,
    /// Key hashes of ad-hoc statements seen once and not admitted,
    /// direct-mapped.
    ghosts: Box<[u64]>,
    /// Recency clock for LRU eviction.
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    key: StoreKey<'static>,
    valid: Validity,
    planned: Arc<PlannedQuery>,
    /// For a prepared entry: every sorted column of each base table its
    /// plan scans, with its order at planning (see [`kept_order`]).
    orders: Arc<[Order]>,
    last_used: u64,
}

/// A base table and its sorted columns, each with the order the catalog
/// gave it.
pub(crate) type Order = (String, Vec<(String, Sortedness)>);

/// The sorted columns of the base tables `logical` reads, as `catalog`
/// has them before the search that plans it — a superset of the orders
/// its plan may rely on, since an elided sort leaves no node behind. A
/// sorted projection the plan scans instead needs none: the executor
/// keeps its rows in key order.
pub(crate) fn orders(logical: &LogicalPlan, catalog: &Catalog) -> Arc<[Order]> {
    let mut out: Vec<Order> = Vec::new();
    for table in logical.tables() {
        let Ok(entry) = catalog.stored(table) else {
            continue;
        };
        let sorted = (entry.column_props.iter())
            .filter(|(_, props)| props.sortedness.is_sorted())
            .map(|(column, props)| (column.clone(), props.sortedness));
        let sorted: Vec<_> = sorted.collect();
        if !sorted.is_empty() && out.iter().all(|(t, _)| t != table) {
            out.push((table.to_owned(), sorted));
        }
    }
    out.into()
}

/// Whether every column of `orders` still has its order in `catalog`:
/// one catalog lookup per table, nothing allocated.
fn kept_order(orders: &[Order], catalog: &Catalog) -> bool {
    orders.iter().all(|(table, columns)| {
        catalog.stored(table).is_ok_and(|entry| {
            (columns.iter()).all(|(column, order)| {
                entry.column_props.get(column).map(|p| p.sortedness) == Some(*order)
            })
        })
    })
}

impl PlanCache {
    /// A store holding at most `capacity` plans, metrics in `registry`.
    pub fn new(capacity: usize, registry: &MetricsRegistry) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                ghosts: vec![0; GHOST_SLOTS].into(),
                tick: 0,
            }),
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

    /// Find the plan stored for `key` and still valid under `valid`.
    ///
    /// A prepared hit rebinds `fresh`'s predicates into the stored
    /// physical plan and counts only when the rebind succeeds and the
    /// scanned base tables' sorted columns kept their order; a missing
    /// or outdated entry, a broken order *or* a failed rebind is a miss (the caller
    /// searches either way). `catalog` and the key's pruning knob drive
    /// **re-pruning on rebind**: a stored plan that pruned a partitioned
    /// scan did so against the *previous* execution's constants, so
    /// serving it verbatim would scan the wrong survivor set. The rebind
    /// recomputes the survivors from the fresh predicate (see
    /// `rebind_node`); partition specs only change via re-registration,
    /// which moves the DDL clock and outdates the entry, so the spec
    /// consulted here is always the one the plan was built against.
    ///
    /// An ad-hoc hit is the stored plan itself. An ad-hoc miss also says
    /// whether this is the statement's second sighting.
    pub(crate) fn lookup(
        &self,
        key: &StoreKey<'_>,
        valid: Validity,
        fresh: &LogicalPlan,
        catalog: &Catalog,
    ) -> Lookup {
        let (stored, admit) = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key.hash).filter(|e| e.key.same(key)) {
                Some(entry) if entry.valid == valid => {
                    entry.last_used = tick;
                    let stored = (Arc::clone(&entry.planned), Arc::clone(&entry.orders));
                    (Some(stored), true)
                }
                // Outdated: known to repeat, replace at once.
                Some(_) => (None, true),
                None => {
                    let slot = &mut inner.ghosts[key.hash as usize % GHOST_SLOTS];
                    let seen = key.is_prepared() || *slot == key.hash;
                    if !key.is_prepared() {
                        *slot = key.hash;
                    }
                    (None, seen)
                }
            }
        };
        let stored = stored.filter(|(_, orders)| kept_order(orders, catalog));
        let plan = stored.and_then(|(planned, _)| {
            let plan = if key.is_prepared() {
                rebind_plan(&planned.plan, fresh, catalog, key.knobs.pruning)?
            } else {
                planned.plan.clone()
            };
            Some(PlannedQuery { plan, ..*planned })
        });
        match plan {
            Some(planned) => {
                self.hits.inc();
                Lookup::Hit(planned)
            }
            None => {
                self.misses.inc();
                Lookup::Miss { admit }
            }
        }
    }

    /// Store a freshly optimised plan for `key`, valid under `valid`,
    /// replacing the key's previous entry or LRU-evicting beyond capacity.
    /// A hit is served only while the base-table columns of `orders` keep
    /// their order (see [`orders`]; a prepared statement's, read before
    /// its search — an ad-hoc entry's stamp already moves with any
    /// statistic).
    pub(crate) fn insert(
        &self,
        key: StoreKey<'_>,
        valid: Validity,
        planned: &PlannedQuery,
        orders: Arc<[Order]>,
    ) {
        let key = key.into_owned();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let hash = key.hash;
        let entry = Entry {
            key,
            valid,
            planned: Arc::new(planned.clone()),
            orders,
            last_used: inner.tick,
        };
        if inner.map.insert(hash, entry).is_some() {
            self.evictions.inc();
        }
        while inner.map.len() > self.capacity {
            let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            inner.map.remove(&lru);
            self.evictions.inc();
        }
        self.entries.set(inner.map.len() as u64);
    }

    /// Number of stored plans.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the store is empty.
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
/// path never parameterises them. Delegates to [`LogicalPlan::shape`].
pub fn plan_shape(plan: &LogicalPlan) -> String {
    plan.shape()
}

/// Whether two predicates have the same structure and differ at most in
/// their comparison constants — what [`Predicate::shape`] equality says of
/// a template and its bound copy, decided without rendering either side.
fn same_shape(a: &Predicate, b: &Predicate) -> bool {
    match (a, b) {
        (
            Predicate::Compare { column, op, .. },
            Predicate::Compare {
                column: other_column,
                op: other_op,
                ..
            },
        ) => column == other_column && op == other_op,
        (Predicate::And(ps), Predicate::And(qs)) => {
            ps.len() == qs.len() && ps.iter().zip(qs).all(|(p, q)| same_shape(p, q))
        }
        (Predicate::Compare { .. }, _) | (Predicate::And(_), _) => false,
        _ => a == b,
    }
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
            if !same_shape(predicate, fresh) {
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
    use crate::optimizer::{optimize_in, PropertyModel, SearchContext};
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

    fn plan_at(catalog: &Catalog, logical: &LogicalPlan, dop: usize) -> PlannedQuery {
        let ctx = SearchContext {
            pmodel: PropertyModel::AttributeStrict,
            dop,
            ..SearchContext::new(OptimizerMode::Deep)
        };
        optimize_in(logical, catalog, &ctx).unwrap()
    }

    fn plan(catalog: &Catalog, logical: &LogicalPlan) -> PlannedQuery {
        plan_at(catalog, logical, 1)
    }

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(10_000, 64).dense(true).relation().unwrap(),
        );
        cat
    }

    const KNOBS: Knobs = Knobs {
        mode: OptimizerMode::Deep,
        dop: 1,
        pruning: true,
    };

    /// A prepared key as `Engine::prepare` + `Engine::planned` build it.
    fn prepared_key(shape: &str) -> StoreKey<'static> {
        StoreKey::prepared(&shape.into(), text_hash(shape), KNOBS)
    }

    fn generation(g: u64) -> Validity {
        Validity::Generation(g)
    }

    fn stamp(stats_generation: u64) -> Validity {
        Validity::Stamp(MemoStamp {
            stats_generation,
            av_generation: 0,
            feedback_epoch: 0,
        })
    }

    fn hit(lookup: Lookup) -> Option<PlannedQuery> {
        match lookup {
            Lookup::Hit(planned) => Some(planned),
            Lookup::Miss { .. } => None,
        }
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
    fn structural_shape_check_agrees_with_rendered_shapes() {
        let str_eq = |v: &str| Predicate::Compare {
            column: "s".into(),
            op: CmpOp::Eq,
            value: Value::Str(v.into()),
        };
        assert_eq!(str_eq("x").shape(), "s = ?");
        let preds = [
            Predicate::cmp("key", CmpOp::Lt, 5u32),
            Predicate::cmp("key", CmpOp::Lt, 99u32),
            Predicate::cmp("key", CmpOp::Ge, 5u32),
            Predicate::cmp("val", CmpOp::Lt, 5u32),
            str_eq("x"),
            str_eq("y"),
            Predicate::prefix("s", "ab"),
            Predicate::prefix("s", "zz"),
            Predicate::And(vec![
                Predicate::cmp("key", CmpOp::Ge, 1u32),
                Predicate::cmp("key", CmpOp::Lt, 5u32),
            ]),
            Predicate::And(vec![
                Predicate::cmp("key", CmpOp::Ge, 30u32),
                Predicate::cmp("key", CmpOp::Lt, 60u32),
            ]),
        ];
        for a in &preds {
            for b in &preds {
                assert_eq!(same_shape(a, b), a.shape() == b.shape(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn prepared_hit_rebinds_fresh_constants() {
        let cat = catalog();
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(8, &registry);
        let cold = plan(&cat, &filtered_group(5));
        let key = prepared_key(&plan_shape(&filtered_group(5)));
        // A prepared statement is admitted on its first execution.
        assert!(matches!(
            cache.lookup(&key, generation(1), &filtered_group(5), &cat),
            Lookup::Miss { admit: true }
        ));
        cache.insert(key.clone(), generation(1), &cold, Arc::from([]));

        let fresh = filtered_group(42);
        let served = hit(cache.lookup(&key, generation(1), &fresh, &cat)).expect("hit");
        let text = served.plan.explain();
        assert!(text.contains("key < 42"), "{text}");
        assert!(!text.contains("key < 5"), "{text}");
        assert_eq!(served.est_cost, cold.est_cost);
        assert!(
            hit(cache.lookup(&key, generation(2), &fresh, &cat)).is_none(),
            "outdated generation"
        );
        // Same shape under other knobs is another statement.
        let shape = plan_shape(&filtered_group(5));
        let parallel = StoreKey::prepared(
            &shape.as_str().into(),
            text_hash(&shape),
            Knobs { dop: 4, ..KNOBS },
        );
        assert!(hit(cache.lookup(&parallel, generation(1), &fresh, &cat)).is_none());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::PLAN_CACHE_HITS), Some(1));
        assert_eq!(snap.counter(names::PLAN_CACHE_MISSES), Some(3));
    }

    #[test]
    fn mismatched_filter_shape_is_a_miss() {
        let cat = catalog();
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(8, &registry);
        let cold = plan(&cat, &filtered_group(5));
        let key = prepared_key(&plan_shape(&filtered_group(5)));
        cache.insert(key.clone(), generation(1), &cold, Arc::from([]));
        // Same key claimed, but the fresh plan's predicate uses a
        // different operator: the structural check must refuse to serve.
        let fresh = LogicalPlan::group_by(
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("key", CmpOp::Ge, 42u32),
            ),
            "key",
            vec![AggExpr::count_star("n")],
        );
        assert!(hit(cache.lookup(&key, generation(1), &fresh, &cat)).is_none());
        assert_eq!(
            registry.snapshot().counter(names::PLAN_CACHE_MISSES),
            Some(1)
        );
    }

    #[test]
    fn adhoc_is_admitted_on_second_sighting_and_served_while_its_stamp_holds() {
        let cat = catalog();
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(8, &registry);
        let q = filtered_group(5);
        let cold = plan(&cat, &q);
        let key = || StoreKey::adhoc(&q, KNOBS);
        assert!(matches!(
            cache.lookup(&key(), stamp(1), &q, &cat),
            Lookup::Miss { admit: false }
        ));
        assert!(cache.is_empty(), "a first sighting leaves no entry");
        assert!(matches!(
            cache.lookup(&key(), stamp(1), &q, &cat),
            Lookup::Miss { admit: true }
        ));
        cache.insert(key(), stamp(1), &cold, Arc::from([]));
        let served = hit(cache.lookup(&key(), stamp(1), &q, &cat)).expect("hit");
        assert_eq!(served.plan.explain(), cold.plan.explain());
        assert_eq!(served.est_cost.to_bits(), cold.est_cost.to_bits());
        // Another literal is another statement; so is the prepared key
        // with the same text.
        let other = filtered_group(6);
        assert!(
            hit(cache.lookup(&StoreKey::adhoc(&other, KNOBS), stamp(1), &other, &cat)).is_none()
        );
        let same_text = prepared_key(&q.to_string());
        assert!(hit(cache.lookup(&same_text, stamp(1), &q, &cat)).is_none());
        // A moved stamp outdates the entry; the statement is known to
        // repeat, so it is re-admitted at once and replaces the old plan.
        assert!(matches!(
            cache.lookup(&key(), stamp(2), &q, &cat),
            Lookup::Miss { admit: true }
        ));
        cache.insert(key(), stamp(2), &cold, Arc::from([]));
        assert_eq!(cache.len(), 1);
        assert!(hit(cache.lookup(&key(), stamp(2), &q, &cat)).is_some());
    }

    #[test]
    fn adhoc_keys_keep_a_literals_type() {
        let lt = |v: Value| {
            LogicalPlan::group_by(
                LogicalPlan::filter(LogicalPlan::scan("t"), Predicate::cmp("key", CmpOp::Lt, v)),
                "key",
                vec![AggExpr::count_star("n")],
            )
        };
        let (a, b) = (lt(Value::U32(5)), lt(Value::I64(5)));
        assert_eq!(a.to_string(), b.to_string(), "the two render alike");
        let (ka, kb) = (StoreKey::adhoc(&a, KNOBS), StoreKey::adhoc(&b, KNOBS));
        assert!(!ka.same(&kb) && !kb.same(&ka));
        assert!(ka.same(&StoreKey::adhoc(&lt(Value::U32(5)), KNOBS)));
        // Stored under one, the plan is not served to the other.
        let cat = catalog();
        let cache = PlanCache::new(8, &MetricsRegistry::new());
        cache.insert(ka, stamp(1), &plan(&cat, &a), Arc::from([]));
        assert!(hit(cache.lookup(&kb, stamp(1), &b, &cat)).is_none());
        assert!(hit(cache.lookup(&StoreKey::adhoc(&a, KNOBS), stamp(1), &a, &cat)).is_some());
    }

    #[test]
    fn insert_lru_evicts_beyond_capacity() {
        let cat = catalog();
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(2, &registry);
        let cold = plan(&cat, &filtered_group(5));
        let (a, b, c) = (prepared_key("a"), prepared_key("b"), prepared_key("c"));
        cache.insert(a.clone(), generation(1), &cold, Arc::from([]));
        cache.insert(b.clone(), generation(1), &cold, Arc::from([]));
        assert_eq!(cache.len(), 2);
        // Touch "a" so "b" is the LRU victim.
        let fresh = filtered_group(9);
        assert!(hit(cache.lookup(&a, generation(1), &fresh, &cat)).is_some());
        cache.insert(c, generation(1), &cold, Arc::from([]));
        assert_eq!(cache.len(), 2);
        assert!(hit(cache.lookup(&b, generation(1), &fresh, &cat)).is_none());
        assert!(hit(cache.lookup(&a, generation(1), &fresh, &cat)).is_some());
        // Re-planning a key after DDL replaces its entry in place.
        cache.insert(a.clone(), generation(2), &cold, Arc::from([]));
        assert_eq!(cache.len(), 2);
        assert!(hit(cache.lookup(&a, generation(2), &fresh, &cat)).is_some());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::PLAN_CACHE_EVICTIONS), Some(2));
        assert_eq!(snap.gauge(names::PLAN_CACHE_ENTRIES), Some(2));
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
        let cold = plan_at(&cat, &filtered_group(5), 4);
        let registry = MetricsRegistry::new();
        let cache = PlanCache::new(8, &registry);
        let key = prepared_key("k");
        cache.insert(key.clone(), generation(1), &cold, Arc::from([]));
        let served =
            hit(cache.lookup(&key, generation(1), &filtered_group(77), &cat)).expect("hit");
        let text = served.plan.explain();
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
        let key = prepared_key("k");
        cache.insert(key.clone(), generation(1), &cold, Arc::from([]));
        let served =
            hit(cache.lookup(&key, generation(1), &with_values(30, 60), &cat)).expect("hit");
        let text = served.plan.explain();
        assert!(text.contains("key >= 30 AND key < 60"), "{text}");
    }
}
