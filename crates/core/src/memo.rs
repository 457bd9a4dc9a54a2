//! The optimiser memo: groups, group expressions, derived rows and
//! per-group winner tables — **scratch for one search**.
//!
//! Each logical subtree is interned into a [`Group`] — an equivalence
//! class holding the representative logical expression (children
//! referenced by [`GroupId`], so shared subtrees share groups), its
//! **rows** — derived once, by [`PropertyBuilder`], from its children's
//! rows, and stamped on every candidate the group holds — and a
//! **winner table**: the pruned candidate set per `(focus column,
//! optimiser mode, property model, granted DOP)` — one cheapest
//! [`Candidate`] per interesting property class.
//!
//! Group *identity* is the fully rendered logical subtree **including
//! constants**: costs depend on predicate selectivities, so two subtrees
//! differing only in a literal are distinct groups.
//!
//! A memo lives as long as the search that built it (Cascades' memo, as
//! optd keeps it): the engine and [`crate::optimizer::optimize`]
//! build one per call and drop it with the answer, so its size is
//! O(plan), never O(history). What persists between statements is the
//! chosen plan, in the engine's [plan store](crate::plan_cache); the
//! [`MemoStamp`] defined here is the validity stamp that store puts on
//! the plans of ad-hoc statements. Callers that plan several related
//! trees in a row (mid-query re-optimisation) may keep one memo across
//! those calls to share winner tables and rows; they own its staleness
//! and must keep the feedback store fixed.
//!
//! Rule application lives in `crate::rules`: implementation rules
//! (Scan → AV-backed scan, GroupBy → {HG, SPHG, OG, SOG, BSG, composite},
//! Join → {HJ, SPHJ, OJ, SOJ, BSJ}), enforcer rules (Sort) and
//! parallel-twin rules (`Exchange{dop}`) — fired in the same order the
//! DP enumerated, feeding the same pruning, so winning plans are
//! bit-identical to the pre-memo optimiser.

use crate::av::AvCatalog;
use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::error::CoreError;
use crate::feedback::FeedbackStore;
use crate::optimizer::{
    candidate_order, Candidate, OptimizerMode, PlannedQuery, PropertyModel, SearchContext,
};
use crate::property_builder::{Input, PropertyBuilder, RowOp};
use crate::Result;
use dqo_plan::LogicalPlan;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Index of a [`Group`] within its [`Memo`].
pub type GroupId = usize;

/// The facts a search's costs were derived from, as three clocks. Any
/// component moving means a plan chosen under the old stamp may no longer
/// be the plan a fresh search would return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStamp {
    /// [`Catalog::stats_generation`] — moves on any statistics change.
    pub stats_generation: u64,
    /// [`AvCatalog::generation`] — moves on any AV (de)registration.
    pub av_generation: u64,
    /// [`FeedbackStore::epoch`] — moves on any learned correction.
    pub feedback_epoch: u64,
}

impl MemoStamp {
    /// The current stamp for a catalog + optional AV catalog + optional
    /// feedback store.
    pub fn current(
        catalog: &Catalog,
        avs: Option<&AvCatalog>,
        feedback: Option<&FeedbackStore>,
    ) -> Self {
        MemoStamp {
            stats_generation: catalog.stats_generation(),
            av_generation: avs.map(AvCatalog::generation).unwrap_or(0),
            feedback_epoch: feedback.map(FeedbackStore::epoch).unwrap_or(0),
        }
    }
}

/// Counters the memo keeps about its own operation, surfaced as
/// `dqo_opt_*` metrics by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Total rule applications that produced at least one candidate.
    pub rules_fired: u64,
    /// Winner-table lookups answered from the memo without re-deriving.
    pub winner_hits: u64,
    /// Feedback corrections folded into filter groups' row estimates.
    pub feedback_applied: u64,
}

/// Key of one winner-table entry: the physical context a candidate set
/// was derived under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WinnerKey {
    /// The column the parent consumes this output by (drives which base
    /// properties a scan exposes and which orders are interesting).
    focus: Option<String>,
    mode: OptimizerMode,
    pmodel: PropertyModel,
    dop: usize,
    /// Whether plan-time partition pruning was enabled — pruned and
    /// unpruned winners are different physical plans.
    pruning: bool,
}

/// One equivalence class of logical plans. See the module docs.
#[derive(Debug)]
pub struct Group {
    logical: Arc<LogicalPlan>,
    children: Vec<GroupId>,
    derived: Option<Derived>,
    winners: HashMap<WinnerKey, Arc<Vec<Candidate>>>,
}

/// What a group derives once per search, whatever its candidates.
#[derive(Debug, Clone)]
pub(crate) struct Derived {
    /// The group's output rows.
    pub rows: u64,
    /// For a filter directly over a partitioned scan: the partitions that
    /// can hold its matches, which the pruning rule scans.
    pub survivors: Option<Vec<usize>>,
}

impl Group {
    /// The representative logical expression.
    pub fn logical(&self) -> &Arc<LogicalPlan> {
        &self.logical
    }

    /// Child groups, in operator order.
    pub fn children(&self) -> &[GroupId] {
        &self.children
    }

    /// Number of retained physical candidates across all winner tables.
    pub fn candidate_count(&self) -> usize {
        self.winners.values().map(|w| w.len()).sum()
    }
}

/// The memo proper: interned groups plus operational statistics.
#[derive(Debug, Default)]
pub struct Memo {
    groups: Vec<Group>,
    index: HashMap<String, GroupId>,
    stats: MemoStats,
    rule_counts: BTreeMap<&'static str, u64>,
}

impl Memo {
    /// An empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// Intern a logical subtree (children first), returning its group.
    /// Re-interning an already known subtree returns the existing group.
    pub fn intern(&mut self, node: &Arc<LogicalPlan>) -> GroupId {
        let identity = format!("{node}");
        if let Some(&gid) = self.index.get(&identity) {
            return gid;
        }
        let children = node
            .children()
            .into_iter()
            .map(|c| self.intern(c))
            .collect();
        let gid = self.groups.len();
        self.groups.push(Group {
            logical: Arc::clone(node),
            children,
            derived: None,
            winners: HashMap::new(),
        });
        self.index.insert(identity, gid);
        gid
    }

    /// Intern from a borrowed root (clones one node; children stay
    /// shared `Arc`s).
    pub fn intern_root(&mut self, node: &LogicalPlan) -> GroupId {
        let identity = format!("{node}");
        if let Some(&gid) = self.index.get(&identity) {
            return gid;
        }
        self.intern(&Arc::new(node.clone()))
    }

    /// The group at `gid`. Panics on an invalid id (memo ids are only
    /// produced by [`Memo::intern`]).
    pub fn group(&self, gid: GroupId) -> &Group {
        &self.groups[gid]
    }

    /// Look up the group a logical subtree was interned into.
    pub fn find(&self, node: &LogicalPlan) -> Option<GroupId> {
        self.index.get(&format!("{node}")).copied()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Retained physical candidates across all groups' winner tables —
    /// the memo's "group expressions" gauge.
    pub fn candidate_count(&self) -> usize {
        self.groups.iter().map(Group::candidate_count).sum()
    }

    /// Operational counters, cumulative over the memo's lifetime.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Per-rule firing counts, in rule-name order.
    pub fn rule_counts(&self) -> Vec<(&'static str, u64)> {
        self.rule_counts.iter().map(|(k, v)| (*k, *v)).collect()
    }
}

/// The rule-application engine: explores groups of a [`Memo`] under one
/// optimisation context (catalog, cost model, AVs, mode, property model,
/// DOP, feedback), memoising each group's pruned candidate set in its
/// winner table.
pub struct MemoOptimizer<'a> {
    pub(crate) memo: &'a mut Memo,
    pub(crate) catalog: &'a Catalog,
    pub(crate) mode: OptimizerMode,
    pub(crate) model: &'a dyn CostModel,
    pub(crate) avs: Option<&'a AvCatalog>,
    pub(crate) pmodel: PropertyModel,
    pub(crate) dop: usize,
    pub(crate) pruning: bool,
    pub(crate) props: PropertyBuilder<'a>,
}

impl<'a> MemoOptimizer<'a> {
    /// Bind a memo to an optimisation context.
    pub fn new(memo: &'a mut Memo, catalog: &'a Catalog, ctx: &SearchContext<'a>) -> Self {
        MemoOptimizer {
            memo,
            catalog,
            mode: ctx.mode,
            model: ctx.model,
            avs: ctx.avs,
            pmodel: ctx.pmodel,
            dop: ctx.dop.max(1),
            pruning: ctx.pruning,
            props: PropertyBuilder::new(catalog, ctx.feedback),
        }
    }

    /// Optimise a logical plan: intern it, explore its group, return the
    /// cheapest candidate as the final answer.
    pub fn optimize(&mut self, logical: &LogicalPlan) -> Result<PlannedQuery> {
        let mode = self.mode;
        let best = self
            .candidates(logical)?
            .into_iter()
            .min_by(candidate_order)
            .ok_or_else(|| CoreError::NoPlanFound(format!("{logical}")))?;
        Ok(PlannedQuery {
            plan: best.plan,
            est_cost: best.cost,
            props: best.props,
            mode,
        })
    }

    /// The full pruned candidate set of a logical plan's root group.
    pub fn candidates(&mut self, logical: &LogicalPlan) -> Result<Vec<Candidate>> {
        let gid = self.memo.intern_root(logical);
        let cands = self.explore(gid, None)?;
        let out = cands.as_ref().clone();
        self.memo.stats.feedback_applied += self.props.take_applied();
        Ok(out)
    }

    /// Explore one group under a focus column: answer from the winner
    /// table when present, otherwise fire the group's rules and memoise
    /// the pruned result.
    pub(crate) fn explore(
        &mut self,
        gid: GroupId,
        focus: Option<&str>,
    ) -> Result<Arc<Vec<Candidate>>> {
        let key = WinnerKey {
            focus: focus.map(str::to_owned),
            mode: self.mode,
            pmodel: self.pmodel,
            dop: self.dop,
            pruning: self.pruning,
        };
        if let Some(winners) = self.memo.groups[gid].winners.get(&key) {
            self.memo.stats.winner_hits += 1;
            return Ok(Arc::clone(winners));
        }
        let derived = self.derive(gid);
        let cands = crate::rules::apply(self, gid, focus, &derived)?;
        debug_assert!(cands.iter().all(|c| c.props.rows == derived.rows));
        let cands = Arc::new(cands);
        self.memo.groups[gid]
            .winners
            .insert(key, Arc::clone(&cands));
        Ok(cands)
    }

    /// The group's [`Derived`] properties, computed once from its
    /// children's rows by [`PropertyBuilder::derive`]: the rows every
    /// candidate of the group carries and `EXPLAIN ANALYZE` shows for the
    /// chosen one.
    fn derive(&mut self, gid: GroupId) -> Derived {
        if let Some(derived) = &self.memo.groups[gid].derived {
            return derived.clone();
        }
        let node = Arc::clone(&self.memo.groups[gid].logical);
        let mut inputs = Vec::new();
        for (i, child) in node.children().into_iter().enumerate() {
            let kid = self.memo.groups[gid].children[i];
            inputs.push(Input {
                rows: self.derive(kid).rows,
                tables: child.tables(),
            });
        }
        let mut survivors = None;
        let op = match node.as_ref() {
            LogicalPlan::Scan { table } => RowOp::Scan((table, None)),
            LogicalPlan::Filter { input, predicate } => match input.as_ref() {
                LogicalPlan::Scan { table } => {
                    survivors = self.props.survivors(table, predicate);
                    RowOp::Filter(predicate, Some((table, survivors.as_deref())))
                }
                _ => RowOp::Filter(predicate, None),
            },
            LogicalPlan::Join {
                left_key,
                right_key,
                ..
            } => RowOp::Join(left_key, right_key),
            LogicalPlan::GroupBy { keys, .. } => RowOp::GroupBy(keys),
            LogicalPlan::Limit { n, .. } => RowOp::Limit(*n),
            LogicalPlan::Sort { .. } | LogicalPlan::Project { .. } => RowOp::Pass,
        };
        let rows = self.props.derive(op, &inputs);
        let derived = Derived { rows, survivors };
        self.memo.groups[gid].derived = Some(derived.clone());
        derived
    }

    /// Record one rule application that produced candidates.
    pub(crate) fn fire(&mut self, rule: &'static str) {
        self.memo.stats.rules_fired += 1;
        *self.memo.rule_counts.entry(rule).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_plan::expr::AggExpr;
    use dqo_storage::datagen::DatasetSpec;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(10_000, 100)
                .dense(true)
                .relation()
                .unwrap(),
        );
        cat
    }

    fn query() -> Arc<LogicalPlan> {
        LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![AggExpr::count_star("n")],
        )
    }

    fn optimize_in(memo: &mut Memo, cat: &Catalog, q: &LogicalPlan) -> PlannedQuery {
        let ctx = SearchContext {
            pmodel: PropertyModel::AttributeStrict,
            ..SearchContext::new(OptimizerMode::Deep)
        };
        crate::optimizer::optimize_in(memo, q, cat, &ctx).unwrap()
    }

    #[test]
    fn shared_subtrees_share_groups() {
        let mut memo = Memo::new();
        let gb = query();
        let sort = LogicalPlan::sort(LogicalPlan::scan("t"), "key");
        let g1 = memo.intern(&gb);
        let g2 = memo.intern(&sort);
        assert_ne!(g1, g2);
        // GroupBy, Sort and ONE shared Scan group.
        assert_eq!(memo.group_count(), 3);
        assert_eq!(memo.group(g1).children(), memo.group(g2).children());
        // Identities keep constants; shapes (the prepared key) mask them.
        let f30 = LogicalPlan::filter(
            LogicalPlan::scan("t"),
            dqo_plan::expr::Predicate::cmp("key", dqo_plan::CmpOp::Lt, 30u32),
        );
        let f70 = LogicalPlan::filter(
            LogicalPlan::scan("t"),
            dqo_plan::expr::Predicate::cmp("key", dqo_plan::CmpOp::Lt, 70u32),
        );
        let gf30 = memo.intern(&f30);
        let gf70 = memo.intern(&f70);
        assert_ne!(gf30, gf70, "different constants are different groups");
        assert_eq!(f30.shape(), f70.shape());
        assert_eq!(memo.intern(&f30), gf30, "re-interning is idempotent");
    }

    #[test]
    fn repeated_optimisation_answers_from_winner_tables() {
        let cat = catalog();
        let mut memo = Memo::new();
        let q = query();
        let first = optimize_in(&mut memo, &cat, &q);
        let fired = memo.stats().rules_fired;
        assert!(fired > 0);
        assert_eq!(memo.stats().winner_hits, 0);
        let second = optimize_in(&mut memo, &cat, &q);
        assert_eq!(first.plan.explain(), second.plan.explain());
        assert_eq!(first.est_cost.to_bits(), second.est_cost.to_bits());
        assert!(memo.stats().winner_hits > 0, "second run must be memoised");
        assert_eq!(
            memo.stats().rules_fired,
            fired,
            "no rule re-fires on a warm memo"
        );
    }

    #[test]
    fn stamp_moves_with_every_statistics_change() {
        let cat = catalog();
        let stamp = MemoStamp::current(&cat, None, None);
        assert_eq!(stamp, MemoStamp::current(&cat, None, None));
        cat.register(
            "u",
            DatasetSpec::new(100, 10).dense(true).relation().unwrap(),
        );
        let registered = MemoStamp::current(&cat, None, None);
        assert_ne!(stamp, registered);
        // Appends move the statistics clock without moving the DDL clock.
        let ddl = cat.current_generation();
        let rel = (*cat.get("u").unwrap().relation).clone();
        cat.replace_data("u", rel).unwrap();
        assert_eq!(cat.current_generation(), ddl);
        assert_ne!(registered, MemoStamp::current(&cat, None, None));
    }

    #[test]
    fn rule_counts_name_the_fired_rules() {
        let cat = catalog();
        let mut memo = Memo::new();
        optimize_in(&mut memo, &cat, &query());
        let counts = memo.rule_counts();
        let names: Vec<&str> = counts.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"scan-impl"), "{names:?}");
        assert!(names.contains(&"group-by-impl"), "{names:?}");
        assert!(counts.iter().all(|&(_, c)| c > 0));
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, memo.stats().rules_fired);
    }
}
