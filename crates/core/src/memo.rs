//! The optimiser memo: groups, their candidates, derived rows and
//! per-group winner tables — **scratch for one search**.
//!
//! Each logical subtree is interned into a [`Group`] — an equivalence
//! class holding the representative logical expression (children
//! referenced by [`GroupId`], so shared subtrees share groups), its
//! **rows** — derived once, by [`PropertyBuilder`], from its children's
//! rows, and stamped on every candidate the group holds — its
//! **entries**, and a **winner table**: the pruned candidate set per focus
//! column — one cheapest `Candidate` per interesting property class.
//! Everything else a candidate set depends on (mode, property model, DOP,
//! pruning, AVs, feedback) is the search's [`SearchContext`], fixed for
//! the memo's life.
//!
//! A candidate is a *choice*, not a plan: one physical operator whose
//! inputs are `Choice`s — a group id and an entry of that group — with
//! its cumulative cost, its properties and its cached tie-break rank.
//! A group's entries are every candidate built in it: its rules' output,
//! kept by its winner tables or pruned, plus the sort enforcers and pruned
//! scans a parent built over them. Entries are never removed, so a choice
//! stays valid for the memo's life, and `Memo::plan` materialises the one
//! [`PhysicalPlan`] a search returns from its root's winner.
//!
//! Group *identity* is structural: the logical operator with its typed
//! constants (a `u32` 5 and an `i64` 5 differ) and its child groups,
//! compared by equality. Costs depend on predicate selectivities, so two
//! subtrees differing only in a literal are distinct groups.
//!
//! A memo serves one search (Cascades' memo, as optd keeps it): a
//! [`MemoOptimizer`] creates its own, no caller can hand it one, and it
//! is dropped with the answer, so its size is O(plan), never O(history).
//! What persists between statements is the chosen plan, in the engine's
//! [plan store](crate::plan_cache); the [`MemoStamp`] defined here is the
//! validity stamp that store puts on the plans of ad-hoc statements.
//!
//! Rule application lives in `crate::rules`: implementation rules
//! (Scan → AV-backed scan, GroupBy → {HG, SPHG, OG, SOG, BSG} or a grouping AV,
//! Join → {HJ, SPHJ, OJ, SOJ, BSJ}), the Sort enforcer and the one
//! parallel-twin rule (`Exchange{dop}`), feeding interesting-property
//! pruning (`Memo::prune`).

use crate::av::AvCatalog;
use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::error::CoreError;
use crate::feedback::FeedbackStore;
use crate::optimizer::{Candidate, Op, OptimizerMode, PlannedQuery, PropertyModel, SearchContext};
use crate::property_builder::{Input, PropertyBuilder, RowOp};
use crate::Result;
use dqo_plan::expr::{AggExpr, Predicate};
use dqo_plan::properties::PropKey;
use dqo_plan::{LogicalPlan, PhysicalPlan, SortMolecule};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Index of a [`Group`] within its [`Memo`].
pub type GroupId = usize;

/// A column name interned in one memo ([`Memo::column`]): what sort
/// enforcers, output orders and winner tables name a column by.
pub(crate) type ColId = u32;

/// One candidate of the memo: entry `entry` of group `group`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Choice {
    pub group: GroupId,
    pub entry: u32,
}

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
    /// Candidates the rules built before pruning: implementations, sort
    /// enforcers and parallel twins (the kept ones are
    /// [`Memo::candidate_count`]).
    pub candidates_built: u64,
    /// Winner-table lookups answered from the memo without re-deriving.
    pub winner_hits: u64,
    /// Feedback corrections folded into filter groups' row estimates.
    pub feedback_applied: u64,
}

/// One equivalence class of logical plans. See the module docs.
#[derive(Debug)]
pub struct Group {
    logical: Arc<LogicalPlan>,
    children: Vec<GroupId>,
    /// The next group whose identity hashes alike, if any.
    collision: Option<GroupId>,
    derived: Option<Derived>,
    entries: Vec<Candidate>,
    /// The pruned candidate set per focus column.
    winners: Vec<(Option<ColId>, Vec<Choice>)>,
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
        self.winners.iter().map(|(_, w)| w.len()).sum()
    }
}

/// A logical operator without its inputs: the part of a group's identity
/// its own node contributes, constants typed.
#[derive(PartialEq, Eq, Hash)]
enum Operator<'a> {
    Scan(&'a str),
    Filter(&'a Predicate),
    Join(&'a str, &'a str),
    GroupBy(&'a [String], &'a [AggExpr]),
    Project(&'a [String]),
    Sort(&'a str),
    Limit(u64),
}

impl<'a> Operator<'a> {
    fn of(node: &'a LogicalPlan) -> Self {
        match node {
            LogicalPlan::Scan { table } => Operator::Scan(table),
            LogicalPlan::Filter { predicate, .. } => Operator::Filter(predicate),
            LogicalPlan::Join {
                left_key,
                right_key,
                ..
            } => Operator::Join(left_key, right_key),
            LogicalPlan::GroupBy { keys, aggs, .. } => Operator::GroupBy(keys, aggs),
            LogicalPlan::Project { columns, .. } => Operator::Project(columns),
            LogicalPlan::Sort { key, .. } => Operator::Sort(key),
            LogicalPlan::Limit { n, .. } => Operator::Limit(*n),
        }
    }
}

/// The memo proper: interned groups plus operational statistics.
#[derive(Debug, Default)]
pub struct Memo {
    groups: Vec<Group>,
    /// Identity hash → the newest group with it (older ones chain through
    /// [`Group::collision`]).
    index: HashMap<u64, GroupId>,
    columns: Vec<Box<str>>,
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
        self.intern_with(node, || Arc::clone(node))
    }

    /// Intern from a borrowed root (clones the root node only when it is
    /// new; children stay shared `Arc`s).
    pub fn intern_root(&mut self, node: &LogicalPlan) -> GroupId {
        self.intern_with(node, || Arc::new(node.clone()))
    }

    /// The group of `node` — its operator and its children's groups —
    /// found by equality, or a new one holding `owned()`.
    fn intern_with(
        &mut self,
        node: &LogicalPlan,
        owned: impl FnOnce() -> Arc<LogicalPlan>,
    ) -> GroupId {
        let children: Vec<GroupId> = node
            .children()
            .into_iter()
            .map(|c| self.intern(c))
            .collect();
        let operator = Operator::of(node);
        let mut h = DefaultHasher::new();
        (&operator, &children).hash(&mut h);
        let hash = h.finish();
        let mut probe = self.index.get(&hash).copied();
        while let Some(gid) = probe {
            let group = &self.groups[gid];
            if group.children == children && Operator::of(&group.logical) == operator {
                return gid;
            }
            probe = group.collision;
        }
        let gid = self.groups.len();
        let collision = self.index.insert(hash, gid);
        self.groups.push(Group {
            logical: owned(),
            children,
            collision,
            derived: None,
            entries: Vec::new(),
            winners: Vec::new(),
        });
        gid
    }

    /// The group at `gid`. Panics on an invalid id (memo ids are only
    /// produced by [`Memo::intern`]).
    pub fn group(&self, gid: GroupId) -> &Group {
        &self.groups[gid]
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

    /// The id of column `name`, interned on first sight.
    pub(crate) fn column(&mut self, name: &str) -> ColId {
        match self.columns.iter().position(|c| **c == *name) {
            Some(id) => id as ColId,
            None => {
                self.columns.push(name.into());
                (self.columns.len() - 1) as ColId
            }
        }
    }

    /// The candidate `choice` names.
    pub(crate) fn candidate(&self, choice: Choice) -> &Candidate {
        &self.groups[choice.group].entries[choice.entry as usize]
    }

    /// Store `candidate` as an entry of group `gid`, its rank summed from
    /// its inputs'.
    pub(crate) fn push(&mut self, gid: GroupId, mut candidate: Candidate) -> Choice {
        candidate.rank = candidate.op.rank()
            + candidate
                .inputs
                .iter()
                .flatten()
                .map(|&i| self.candidate(i).rank)
                .sum::<u32>();
        let entries = &mut self.groups[gid].entries;
        entries.push(candidate);
        Choice {
            group: gid,
            entry: (entries.len() - 1) as u32,
        }
    }

    /// Materialise the physical plan `choice` stands for: its operator
    /// over its inputs' plans, with the columns, predicate and constants
    /// of its group's logical node.
    pub(crate) fn plan(&self, choice: Choice) -> PhysicalPlan {
        let group = &self.groups[choice.group];
        let c = self.candidate(choice);
        let input = |i: usize| {
            let child = c.inputs[i].expect("operator input");
            Box::new(self.plan(child))
        };
        let node = match (&c.op, group.logical.as_ref()) {
            (Op::Scan, LogicalPlan::Scan { table }) => PhysicalPlan::Scan {
                table: table.clone(),
            },
            (Op::AvScan(table), _) => PhysicalPlan::Scan {
                table: table.clone(),
            },
            (Op::PartitionedScan { parts, total }, LogicalPlan::Scan { table }) => {
                PhysicalPlan::PartitionedScan {
                    table: table.clone(),
                    parts: parts.clone(),
                    total: *total,
                }
            }
            (Op::Filter, LogicalPlan::Filter { predicate, .. }) => PhysicalPlan::Filter {
                input: input(0),
                predicate: predicate.clone(),
            },
            (Op::Sort(key), _) => PhysicalPlan::Sort {
                input: input(0),
                key: self.columns[*key as usize].to_string(),
                molecule: SortMolecule::Comparison,
            },
            (
                Op::Join(algo),
                LogicalPlan::Join {
                    left_key,
                    right_key,
                    ..
                },
            ) => PhysicalPlan::Join {
                left: input(0),
                right: input(1),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
                algo: *algo,
            },
            (Op::GroupBy(algo, molecules), LogicalPlan::GroupBy { keys, aggs, .. }) => {
                PhysicalPlan::GroupBy {
                    input: input(0),
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    algo: *algo,
                    molecules: *molecules,
                }
            }
            (Op::Project, LogicalPlan::Project { columns, .. }) => PhysicalPlan::Project {
                input: input(0),
                columns: columns.clone(),
            },
            (Op::Limit, LogicalPlan::Limit { n, .. }) => PhysicalPlan::Limit {
                input: input(0),
                n: *n,
            },
            (op, logical) => unreachable!("{op:?} cannot implement {logical}"),
        };
        match c.dop {
            1 => node,
            dop => PhysicalPlan::Exchange {
                input: Box::new(node),
                dop,
            },
        }
    }

    /// Total order on candidates: cost first, then the order-based
    /// preference rank, then the rendered plan (full determinism; only an
    /// exact tie of both renders).
    pub(crate) fn order(&self, a: Choice, b: Choice) -> Ordering {
        let (x, y) = (self.candidate(a), self.candidate(b));
        x.cost
            .total_cmp(&y.cost)
            .then(x.rank.cmp(&y.rank))
            .then_with(|| self.plan(a).explain().cmp(&self.plan(b).explain()))
    }

    /// Interesting-property pruning: keep the cheapest candidate per
    /// property class, cheapest first; exact cost ties break toward
    /// order-based implementations (the paper's both-sorted cell: "the
    /// order-based implementations achieve the cheapest plans").
    pub(crate) fn prune(&self, cands: impl IntoIterator<Item = Choice>) -> Vec<Choice> {
        let class = |k: PropKey| {
            usize::from(k.sorted) | usize::from(k.partitioned) << 1 | usize::from(k.dense) << 2
        };
        let mut best: [Option<Choice>; 8] = [None; 8];
        for c in cands {
            let slot = &mut best[class(self.candidate(c).props.memo_key())];
            match *slot {
                Some(kept) if self.order(kept, c) != Ordering::Greater => {}
                _ => *slot = Some(c),
            }
        }
        let mut out: Vec<Choice> = best.into_iter().flatten().collect();
        out.sort_by(|&a, &b| self.order(a, b));
        out
    }
}

/// One search: explores the groups of its own [`Memo`] under one
/// [`SearchContext`] (catalog, cost model, AVs, mode, property model,
/// DOP, feedback), memoising each group's pruned candidate set in its
/// winner table.
pub struct MemoOptimizer<'a> {
    pub(crate) memo: Memo,
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
    /// Start a search under `ctx`, in a memo of its own.
    pub fn new(catalog: &'a Catalog, ctx: &SearchContext<'a>) -> Self {
        MemoOptimizer {
            memo: Memo::new(),
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

    /// The search's memo: its groups, candidates and counters so far.
    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// Optimise a logical plan: intern it, explore its group, return the
    /// cheapest candidate, materialised, as the final answer.
    pub fn optimize(&mut self, logical: &LogicalPlan) -> Result<PlannedQuery> {
        let best = self.root(logical)?.into_iter().next();
        let best = best.ok_or_else(|| CoreError::NoPlanFound(format!("{logical}")))?;
        Ok(self.planned(best))
    }

    /// The full pruned candidate set of a logical plan's root group, each
    /// materialised, cheapest first.
    pub fn candidates(&mut self, logical: &LogicalPlan) -> Result<Vec<PlannedQuery>> {
        let root = self.root(logical)?;
        Ok(root.into_iter().map(|c| self.planned(c)).collect())
    }

    /// Intern and explore the root; its winners, cheapest first.
    fn root(&mut self, logical: &LogicalPlan) -> Result<Vec<Choice>> {
        let gid = self.memo.intern_root(logical);
        let cands = self.explore(gid, None)?;
        self.memo.stats.feedback_applied += self.props.take_applied();
        Ok(cands)
    }

    fn planned(&self, choice: Choice) -> PlannedQuery {
        let c = self.memo.candidate(choice);
        PlannedQuery {
            plan: self.memo.plan(choice),
            est_cost: c.cost,
            props: c.props,
            mode: self.mode,
        }
    }

    /// Explore one group under a focus column: answer from the winner
    /// table when present, otherwise fire the group's rules and memoise
    /// the pruned result.
    pub(crate) fn explore(&mut self, gid: GroupId, focus: Option<&str>) -> Result<Vec<Choice>> {
        let key = focus.map(|f| self.memo.column(f));
        if let Some((_, winners)) = self.memo.groups[gid]
            .winners
            .iter()
            .find(|(k, _)| *k == key)
        {
            self.memo.stats.winner_hits += 1;
            return Ok(winners.clone());
        }
        let derived = self.derive(gid);
        let cands = crate::rules::apply(self, gid, focus, &derived)?;
        debug_assert!(cands
            .iter()
            .all(|&c| self.memo.candidate(c).props.rows == derived.rows));
        self.memo.groups[gid].winners.push((key, cands.clone()));
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

    /// Store a candidate a rule built for group `gid`, counting it as
    /// built.
    pub(crate) fn build(&mut self, gid: GroupId, candidate: Candidate) -> Choice {
        self.memo.stats.candidates_built += 1;
        self.memo.push(gid, candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_plan::PlanProps;
    use dqo_storage::datagen::DatasetSpec;
    use dqo_storage::Sortedness;

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

    /// One finished search of `q`.
    fn search<'a>(cat: &'a Catalog, q: &LogicalPlan) -> MemoOptimizer<'a> {
        let ctx = SearchContext {
            pmodel: PropertyModel::AttributeStrict,
            ..SearchContext::new(OptimizerMode::Deep)
        };
        let mut search = MemoOptimizer::new(cat, &ctx);
        search.optimize(q).unwrap();
        search
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
    fn a_subtree_reached_twice_interns_to_one_group() {
        // Two separately built (not pointer-shared) copies of one filter.
        let filter = || {
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("key", dqo_plan::CmpOp::Lt, 30u32),
            )
        };
        let join = LogicalPlan::join(filter(), filter(), "key", "key");
        let mut memo = Memo::new();
        let gid = memo.intern(&join);
        // Scan, Filter and Join: both join inputs are one group.
        assert_eq!(memo.group_count(), 3);
        let kids = memo.group(gid).children().to_vec();
        assert_eq!(kids[0], kids[1]);
        assert_eq!(memo.intern_root(&join), gid);
        assert_eq!(memo.intern(&filter()), kids[0]);
        assert_eq!(memo.group_count(), 3);
    }

    #[test]
    fn constants_differing_in_value_or_type_get_distinct_groups() {
        let lt = |v: dqo_storage::Value| {
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("key", dqo_plan::CmpOp::Lt, v),
            )
        };
        use dqo_storage::Value;
        let fives = [Value::U32(5), Value::U64(5), Value::I64(5), Value::F64(5.0)];
        // They all render alike, which is why identity is not a rendering.
        assert!(fives
            .iter()
            .all(|v| lt(v.clone()).to_string() == lt(Value::U32(5)).to_string()));
        let mut memo = Memo::new();
        let mut gids: Vec<GroupId> = fives.iter().map(|v| memo.intern(&lt(v.clone()))).collect();
        gids.push(memo.intern(&lt(Value::U32(6))));
        let mut distinct = gids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 5, "{gids:?}");
        // One shared Scan group beneath the five filters.
        assert_eq!(memo.group_count(), 6);
        assert_eq!(memo.intern(&lt(Value::I64(5))), gids[2]);
    }

    #[test]
    fn an_exact_cost_tie_resolves_by_rank_then_by_rendered_plan() {
        use dqo_plan::physical::GroupingMolecules;
        use dqo_plan::GroupingAlgorithm::{HashBased, OrderBased};
        let mut memo = Memo::new();
        let gb = memo.intern(&query());
        let scan = memo.group(gb).children()[0];
        let props = PlanProps::unknown(100);
        let input = memo.push(scan, Candidate::new(Op::Scan, &[], 0.0, props, None));
        let grouping = |algo| {
            let op = Op::GroupBy(algo, GroupingMolecules::defaults_for(algo));
            Candidate::new(op, &[input], 7.0, props, None)
        };
        let hg = memo.push(gb, grouping(HashBased));
        let og = memo.push(gb, grouping(OrderBased));
        assert_eq!(memo.candidate(hg).rank, 3);
        assert_eq!(memo.candidate(og).rank, 0);
        assert_eq!(memo.prune([hg, og]), vec![og], "rank breaks the cost tie");
        assert_eq!(memo.prune([og, hg]), vec![og]);
        // Equal cost and rank: the rendered plans decide.
        let b = memo.push(
            gb,
            Candidate::new(Op::AvScan("b".into()), &[], 7.0, props, None),
        );
        let a = memo.push(
            gb,
            Candidate::new(Op::AvScan("a".into()), &[], 7.0, props, None),
        );
        assert_eq!(memo.order(a, b), Ordering::Less);
        assert_eq!(memo.prune([b, a]), vec![a]);
        assert_eq!(memo.plan(a).explain(), "Scan a\n");
        // The tie order sits under cost: a cheaper HG wins.
        let cheap = memo.push(
            gb,
            Candidate {
                cost: 6.0,
                ..grouping(HashBased)
            },
        );
        assert_eq!(memo.prune([og, a, cheap]), vec![cheap]);
    }

    #[test]
    fn pruning_keeps_cheapest_per_property_class() {
        let mut memo = Memo::new();
        let scan = memo.intern(&LogicalPlan::scan("t"));
        let mut add = |cost: f64, sorted: bool| {
            let props = PlanProps {
                sortedness: if sorted {
                    Sortedness::Ascending
                } else {
                    Sortedness::Unsorted
                },
                partitioned: sorted,
                ..PlanProps::unknown(10)
            };
            memo.push(scan, Candidate::new(Op::Scan, &[], cost, props, None))
        };
        let cands = [add(5.0, false), add(3.0, false), add(9.0, true)];
        let pruned = memo.prune(cands);
        // One per property class, cheapest first; sorted survives despite
        // its higher cost.
        let costs: Vec<f64> = pruned.iter().map(|&c| memo.candidate(c).cost).collect();
        assert_eq!(costs, [3.0, 9.0]);
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
        let old = cat.get("u").unwrap();
        cat.replace_data("u", &old, Arc::clone(&old.relation), None)
            .unwrap();
        assert_eq!(cat.current_generation(), ddl);
        assert_ne!(registered, MemoStamp::current(&cat, None, None));
    }

    #[test]
    fn rule_counts_name_the_fired_rules() {
        let cat = catalog();
        let search = search(&cat, &query());
        let memo = search.memo();
        let counts = memo.rule_counts();
        let names: Vec<&str> = counts.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"scan-impl"), "{names:?}");
        assert!(names.contains(&"group-by-impl"), "{names:?}");
        assert!(counts.iter().all(|&(_, c)| c > 0));
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, memo.stats().rules_fired);
    }
}
