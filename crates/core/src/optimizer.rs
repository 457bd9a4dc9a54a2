//! The property-annotated dynamic program — SQO and DQO in one optimiser.
//!
//! §2.2: plan properties *"can be considered and handled very similarly to
//! how interesting properties are handled in dynamic programming. If any
//! subcomponent in DQO produces an output with such a property, we must
//! not discard that information."*
//!
//! The DP enumerates, bottom-up, a set of candidates per logical node
//! — each a *choice*: one physical operator, the memo entries its inputs
//! are, its cumulative cost and its [`PlanProps`] — and prunes to the
//! cheapest candidate per property class (the classic interesting-order
//! pruning, generalised to the full property vector). A candidate never
//! holds a plan tree: the search materialises one [`PhysicalPlan`], the
//! root's winner, when it ends.
//! Sort *enforcers* are injected as alternatives wherever an order-based
//! implementation would otherwise be inapplicable, which is how partial
//! sort-merge plans ("sort only R") arise.
//!
//! **SQO vs DQO is a projection, not a second optimiser** (§4.3: "SQO only
//! considers data sortedness as in traditional dynamic programming"):
//! in [`OptimizerMode::Shallow`] every property vector is passed through
//! [`PlanProps::shallow`], which forgets density and key ranges — so the
//! SPH-based implementations simply never qualify. Running the *same* DP
//! under both modes yields Figure 5's improvement factors.
//!
//! The enumeration itself lives in the memo engine ([`crate::memo`] +
//! `crate::rules`): every entry point below starts one search, which
//! interns the query into a [`crate::memo::Memo`] of its own and fires
//! the uniform rule set. This file keeps the public API and the candidate
//! vocabulary; pruning and the tie-break order live with the memo entries
//! they compare, and row estimates come from
//! [`crate::property_builder::PropertyBuilder`], once per memo group.

use crate::av::AvCatalog;
use crate::catalog::Catalog;
use crate::cost::{CostModel, TupleCostModel};
use crate::feedback::FeedbackStore;
use crate::memo::{Choice, ColId, MemoOptimizer};
use crate::Result;
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{GroupingAlgorithm, JoinAlgorithm, LogicalPlan, PhysicalPlan, PlanProps};

/// Shallow (SQO) vs deep (DQO) optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizerMode {
    /// Track sortedness only — classical dynamic programming.
    Shallow,
    /// Track the full §2.2 property vector (density, distinct, ranges).
    #[default]
    Deep,
}

impl OptimizerMode {
    /// Apply the mode's property visibility.
    pub(crate) fn project(self, props: PlanProps) -> PlanProps {
        match self {
            OptimizerMode::Shallow => props.shallow(),
            OptimizerMode::Deep => props,
        }
    }
}

impl std::fmt::Display for OptimizerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptimizerMode::Shallow => "SQO",
            OptimizerMode::Deep => "DQO",
        })
    }
}

/// How sortedness propagates through operators.
///
/// The paper's §4.3 arithmetic treats sortedness as a property of the
/// *stream*: an order-based join's output counts as "sorted" input for a
/// downstream order-based grouping even though it is ordered by the join
/// key, not the grouping key (its generated data is clustered, so the two
/// coincide). [`PropertyModel::PaperStream`] reproduces that model — and
/// with it Figure 5's exact factors. [`PropertyModel::AttributeStrict`]
/// tracks *which column* an intermediate is sorted by and only lets
/// order-based operators consume matching orders; it is the sound default
/// for the general engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PropertyModel {
    /// The paper's stream-level boolean sortedness (Figure 5 semantics).
    PaperStream,
    /// Attribute-level sort tracking (sound on arbitrary data).
    #[default]
    AttributeStrict,
}

/// One enumerated alternative, stored as an entry of a memo group: an
/// operator over the memo entries it reads, priced and described.
/// [`crate::memo::Memo::plan`] turns it into the [`PhysicalPlan`] it
/// stands for; nothing else builds a tree.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    /// The physical operator, without its inputs.
    pub op: Op,
    /// The entries the operator reads, in operator order.
    pub inputs: [Option<Choice>; 2],
    /// Workers the operator runs on: above 1 it runs under an
    /// [`PhysicalPlan::Exchange`] of that DOP.
    pub dop: usize,
    /// Estimated cumulative cost (cost-model units).
    pub cost: f64,
    /// Output plan properties (stream-level, per the paper's model).
    pub props: PlanProps,
    /// Which column the output is ordered by, when known — consulted only
    /// under [`PropertyModel::AttributeStrict`].
    pub sort_col: Option<ColId>,
    /// The tree's order-based preference rank ([`Op::rank`] summed over
    /// the tree), cached so an exact cost tie needs no walk.
    pub rank: u32,
}

impl Candidate {
    /// A serial candidate of `op` over `inputs` (at most two); its rank is
    /// set when the memo stores it.
    pub(crate) fn new(
        op: Op,
        inputs: &[Choice],
        cost: f64,
        props: PlanProps,
        sort_col: Option<ColId>,
    ) -> Self {
        Candidate {
            op,
            inputs: [inputs.first().copied(), inputs.get(1).copied()],
            dop: 1,
            cost,
            props,
            sort_col,
            rank: 0,
        }
    }
}

/// A physical operator with its inputs left out. The operator's columns,
/// predicate and constants are those of its group's logical node, which
/// the memo keeps; a variant carries only what the physical choice adds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// The group's base-table scan.
    Scan,
    /// A scan of an AV relation in the group's place: a sorted projection
    /// or a materialised grouping.
    AvScan(String),
    /// The group's partitioned base table, restricted to `parts`.
    PartitionedScan {
        /// Surviving partition ids, ascending.
        parts: Vec<usize>,
        /// The table's partition count.
        total: usize,
    },
    /// The group's filter.
    Filter,
    /// A sort enforcer on a column.
    Sort(ColId),
    /// The group's join, by the named organelle.
    Join(JoinAlgorithm),
    /// The group's grouping, by the named organelle and molecules.
    GroupBy(GroupingAlgorithm, GroupingMolecules),
    /// The group's projection.
    Project,
    /// The group's row cap.
    Limit,
}

impl Op {
    /// Preference rank of the operator (lower = preferred on cost ties):
    /// order-based organelles first, then SPH, binary search, hash,
    /// monolithic sort variants; a sort enforcer counts 1.
    pub(crate) fn rank(&self) -> u32 {
        match self {
            Op::Join(algo) => match algo {
                JoinAlgorithm::OrderBased => 0,
                JoinAlgorithm::StaticPerfectHash => 1,
                JoinAlgorithm::BinarySearch => 2,
                JoinAlgorithm::HashBased => 3,
                JoinAlgorithm::SortOrderBased => 4,
            },
            Op::GroupBy(algo, _) => match algo {
                GroupingAlgorithm::OrderBased => 0,
                GroupingAlgorithm::StaticPerfectHash => 1,
                GroupingAlgorithm::BinarySearch => 2,
                GroupingAlgorithm::HashBased => 3,
                GroupingAlgorithm::SortOrderBased => 4,
            },
            Op::Sort(_) => 1,
            _ => 0,
        }
    }
}

/// The optimiser's final answer.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The chosen physical plan.
    pub plan: PhysicalPlan,
    /// Its estimated cost.
    pub est_cost: f64,
    /// Its output properties.
    pub props: PlanProps,
    /// The mode that produced it.
    pub mode: OptimizerMode,
}

/// Everything a search reads besides the query and the catalog. Build
/// one with [`SearchContext::new`] (the paper's defaults) and override
/// fields with struct-update syntax.
#[derive(Clone, Copy)]
pub struct SearchContext<'a> {
    /// Shallow (SQO) or deep (DQO) property visibility.
    pub mode: OptimizerMode,
    /// The cost model candidates are priced with.
    pub model: &'a dyn CostModel,
    /// Registered Algorithmic Views (§3): an applicable AV becomes a
    /// zero-build-cost leaf alternative.
    pub avs: Option<&'a AvCatalog>,
    /// How sortedness propagates through operators.
    pub pmodel: PropertyModel,
    /// Granted degree of parallelism: above 1 the search also enumerates,
    /// for every parallelisable organelle, an
    /// [`PhysicalPlan::Exchange`]-wrapped twin costed with the parallel
    /// extension of the cost model — so plans only go parallel when the
    /// dispatch + merge overhead pays.
    pub dop: usize,
    /// Learned selectivity corrections applied to estimates.
    pub feedback: Option<&'a FeedbackStore>,
    /// Whether the partition-pruning rule fires.
    pub pruning: bool,
}

impl SearchContext<'_> {
    /// The paper's configuration under `mode`: Table 2 cost model, no
    /// AVs, stream property model (reproduces Figure 5 verbatim), serial
    /// plans, no feedback, pruning as the `DQO_PRUNE` environment says.
    pub fn new(mode: OptimizerMode) -> Self {
        SearchContext {
            mode,
            model: &TupleCostModel,
            avs: None,
            pmodel: PropertyModel::PaperStream,
            dop: 1,
            feedback: None,
            pruning: crate::partition_prune::prune_default(),
        }
    }
}

/// Optimise `logical` against `catalog` under the paper's defaults
/// ([`SearchContext::new`]).
pub fn optimize(
    logical: &LogicalPlan,
    catalog: &Catalog,
    mode: OptimizerMode,
) -> Result<PlannedQuery> {
    optimize_in(logical, catalog, &SearchContext::new(mode))
}

/// The general entry point: search for `logical`'s cheapest plan under
/// `ctx`. The search builds its own memo and drops it with the answer;
/// a caller that wants the search's counters drives a
/// [`MemoOptimizer`] and reads [`MemoOptimizer::memo`] afterwards.
pub fn optimize_in(
    logical: &LogicalPlan,
    catalog: &Catalog,
    ctx: &SearchContext<'_>,
) -> Result<PlannedQuery> {
    MemoOptimizer::new(catalog, ctx).optimize(logical)
}

/// Expose the full (pruned) candidate set of the root under `ctx`, each
/// materialised as a plan, cheapest first — used by tests and the
/// depth-ablation experiment.
pub fn enumerate_candidates(
    logical: &LogicalPlan,
    catalog: &Catalog,
    ctx: &SearchContext<'_>,
) -> Result<Vec<PlannedQuery>> {
    MemoOptimizer::new(catalog, ctx).candidates(logical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use dqo_plan::expr::AggExpr;
    use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};

    fn fig4_catalog(sorted: bool, dense: bool) -> Catalog {
        let cat = Catalog::new();
        let rel = DatasetSpec::new(10_000, 100)
            .sorted(sorted)
            .dense(dense)
            .relation()
            .unwrap();
        cat.register("t", rel);
        cat
    }

    fn grouping_query() -> std::sync::Arc<LogicalPlan> {
        LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![AggExpr::count_star("n")],
        )
    }

    #[test]
    fn dqo_picks_og_on_sorted_input() {
        let cat = fig4_catalog(true, false);
        let planned = optimize(&grouping_query(), &cat, OptimizerMode::Deep).unwrap();
        assert_eq!(planned.plan.algo_signature(), vec!["OG"]);
        assert_eq!(planned.est_cost, 10_000.0);
    }

    #[test]
    fn dqo_picks_sphg_on_unsorted_dense_input() {
        let cat = fig4_catalog(false, true);
        let planned = optimize(&grouping_query(), &cat, OptimizerMode::Deep).unwrap();
        assert_eq!(planned.plan.algo_signature(), vec!["SPHG"]);
        assert_eq!(planned.est_cost, 10_000.0);
    }

    #[test]
    fn sqo_cannot_see_density() {
        let cat = fig4_catalog(false, true);
        let planned = optimize(&grouping_query(), &cat, OptimizerMode::Shallow).unwrap();
        // SPHG is invisible; with 100 groups BSG costs |R|·log₂100 ≈ 6.6|R|
        // > HG's 4|R|, and sort+OG costs even more → HG wins.
        assert_eq!(planned.plan.algo_signature(), vec!["HG"]);
        assert_eq!(planned.est_cost, 40_000.0);
    }

    #[test]
    fn sqo_picks_bsg_for_tiny_group_counts() {
        // The E2 crossover is visible to SQO too (BSG needs only the
        // distinct count): log₂(8) = 3 < 4.
        let cat = Catalog::new();
        cat.register(
            "t",
            DatasetSpec::new(10_000, 8).dense(false).relation().unwrap(),
        );
        let planned = optimize(&grouping_query(), &cat, OptimizerMode::Shallow).unwrap();
        assert_eq!(planned.plan.algo_signature(), vec!["BSG"]);
    }

    #[test]
    fn dqo_never_worse_than_sqo() {
        for sorted in [true, false] {
            for dense in [true, false] {
                let cat = fig4_catalog(sorted, dense);
                let q = grouping_query();
                let deep = optimize(&q, &cat, OptimizerMode::Deep).unwrap();
                let shallow = optimize(&q, &cat, OptimizerMode::Shallow).unwrap();
                assert!(
                    deep.est_cost <= shallow.est_cost,
                    "DQO ({}) worse than SQO ({}) at sorted={sorted} dense={dense}",
                    deep.est_cost,
                    shallow.est_cost
                );
            }
        }
    }

    #[test]
    fn figure5_configuration_produces_sphj_sphg_plan() {
        let cat = Catalog::new();
        let (r, s) = ForeignKeySpec {
            r_sorted: false,
            s_sorted: false,
            ..Default::default()
        }
        .generate()
        .unwrap();
        cat.register("R", r);
        cat.register("S", s);
        let q = dqo_plan::logical::example_query_4_3();
        let deep = optimize(&q, &cat, OptimizerMode::Deep).unwrap();
        assert_eq!(deep.plan.algo_signature(), vec!["SPHG", "SPHJ"]);
        let shallow = optimize(&q, &cat, OptimizerMode::Shallow).unwrap();
        assert_eq!(shallow.plan.algo_signature(), vec!["HG", "HJ"]);
        let factor = shallow.est_cost / deep.est_cost;
        assert!((factor - 4.0).abs() < 0.05, "factor = {factor}");
    }

    #[test]
    fn both_sorted_prefers_order_based_regardless_of_density() {
        let cat = Catalog::new();
        let (r, s) = ForeignKeySpec::default().generate().unwrap(); // both sorted, dense
        cat.register("R", r);
        cat.register("S", s);
        let q = dqo_plan::logical::example_query_4_3();
        let deep = optimize(&q, &cat, OptimizerMode::Deep).unwrap();
        let shallow = optimize(&q, &cat, OptimizerMode::Shallow).unwrap();
        assert_eq!(deep.plan.algo_signature(), vec!["OG", "OJ"]);
        assert_eq!(shallow.plan.algo_signature(), vec!["OG", "OJ"]);
        assert!((deep.est_cost - shallow.est_cost).abs() < 1e-9); // 1×
    }

    #[test]
    fn partial_sort_plan_beats_full_resort() {
        // R unsorted, S sorted: SQO should sort only R then merge-join.
        let cat = Catalog::new();
        let (r, s) = ForeignKeySpec {
            r_sorted: false,
            s_sorted: true,
            ..Default::default()
        }
        .generate()
        .unwrap();
        cat.register("R", r);
        cat.register("S", s);
        let q = dqo_plan::logical::example_query_4_3();
        let shallow = optimize(&q, &cat, OptimizerMode::Shallow).unwrap();
        assert_eq!(shallow.plan.algo_signature(), vec!["OG", "OJ", "SORT"]);
        // DQO beats the partial-sort plan with SPH: the 2.8× cell.
        let deep = optimize(&q, &cat, OptimizerMode::Deep).unwrap();
        assert_eq!(deep.plan.algo_signature(), vec!["SPHG", "SPHJ"]);
        let factor = shallow.est_cost / deep.est_cost;
        assert!((factor - 2.78).abs() < 0.02, "factor = {factor}");
    }

    #[test]
    fn no_plan_error_for_unknown_table() {
        let cat = Catalog::new();
        let q = grouping_query();
        assert!(matches!(
            optimize(&q, &cat, OptimizerMode::Deep),
            Err(CoreError::UnknownTable(_))
        ));
    }

    #[test]
    fn parallel_sort_enforcer_chosen_above_break_even() {
        // An ORDER BY over an unsorted table: below the parallel-sort
        // break-even the planner keeps the serial enforcer; well above
        // it, the DOP-aware DP wraps the Sort in an Exchange.
        let plan_for = |rows: usize, dop: usize| {
            let cat = Catalog::new();
            cat.register(
                "t",
                DatasetSpec::new(rows, 64)
                    .sorted(false)
                    .dense(false)
                    .relation()
                    .unwrap(),
            );
            let q = LogicalPlan::sort(LogicalPlan::scan("t"), "key");
            let ctx = SearchContext {
                dop,
                ..SearchContext::new(OptimizerMode::Deep)
            };
            optimize_in(&q, &cat, &ctx).unwrap()
        };
        let small = plan_for(2_000, 4);
        assert!(
            !small.plan.explain().contains("Exchange"),
            "below break-even must stay serial: {}",
            small.plan.explain()
        );
        let large = plan_for(200_000, 4);
        assert!(
            large.plan.explain().contains("Exchange dop=4"),
            "above break-even must parallelise: {}",
            large.plan.explain()
        );
        assert_eq!(large.plan.algo_signature(), vec!["SORT"]);
        assert!(large.est_cost < plan_for(200_000, 1).est_cost);
    }

    #[test]
    fn dop_aware_hash_vs_sort_choice_is_real() {
        // The Figure-5 R-unsorted/S-sorted cell at scale. At dop = 1
        // SQO plans the partial-sort molecule (SORT(R) + OJ + OG beats
        // HJ + HG, the paper's 2.8×-cell arithmetic). At dop = 4 the
        // DOP-aware search weighs the parallel twins of both families,
        // and every organelle of both divides: the sort enforcer, OJ and
        // OG as much as HJ and HG. The partial-sort molecule still wins,
        // each of its three operators under its own `Exchange`:
        //
        //   parallel sort of R = 100 000·log₂100 000 / 4 + 100 000 / 4
        //                        + 2·(1 000 + 4·2 500)        ≈ 462 241
        //   OJ twin = (100 000 + 360 000) / 4 + 1 000 + 4·2 500
        //             + 100 000                               = 226 000
        //   OG twin = 360 000 / 4 + 1 000 + 4·2 500 + 4·20 000 = 181 000
        //
        // ≈ 869 241, against 1 022 000 for the parallel hash plan (HJ
        // twin 4·(100 000 + 360 000) / 4 + 111 000 = 571 000, HG twin
        // 4·360 000 / 4 + 91 000 = 451 000).
        let cat = Catalog::new();
        let (r, s) = ForeignKeySpec {
            r_rows: 100_000,
            s_rows: 360_000,
            groups: 20_000,
            r_sorted: false,
            s_sorted: true,
            dense: true,
            seed: 3,
        }
        .generate()
        .unwrap();
        cat.register("R", r);
        cat.register("S", s);
        let q = dqo_plan::logical::example_query_4_3();
        let plan_at = |dop| {
            let ctx = SearchContext {
                dop,
                ..SearchContext::new(OptimizerMode::Shallow)
            };
            optimize_in(&q, &cat, &ctx).unwrap()
        };
        let serial = plan_at(1);
        assert_eq!(serial.plan.algo_signature(), vec!["OG", "OJ", "SORT"]);
        assert!(!serial.plan.explain().contains("Exchange"));
        let par = plan_at(4);
        assert_eq!(par.plan.algo_signature(), vec!["OG", "OJ", "SORT"]);
        assert_eq!(
            par.plan.explain().matches("Exchange dop=4").count(),
            3,
            "plan: {}",
            par.plan.explain()
        );
        let model = TupleCostModel;
        let (r, s, groups) = (100_000.0, 360_000.0, 20_000.0);
        let par_sort_plan = model.parallel_sort(r, 4)
            + model.parallel_join(JoinAlgorithm::OrderBased, r, s, r, 4)
            + model.parallel_grouping(GroupingAlgorithm::OrderBased, s, groups, 4);
        assert!(
            (par.est_cost - par_sort_plan).abs() < 1e-6,
            "{}",
            par.est_cost
        );
        assert!((par_sort_plan - 869_241.0).abs() < 1.0);
        // The flip back to hash is gone because OJ and OG now divide: the
        // parallel hash plan costs more than the parallel partial sort.
        let par_hash_plan = model.parallel_join(JoinAlgorithm::HashBased, r, s, r, 4)
            + model.parallel_grouping(GroupingAlgorithm::HashBased, s, groups, 4);
        assert_eq!(par_hash_plan, 1_022_000.0);
        assert!(par.est_cost < par_hash_plan);
        assert!(par.est_cost < serial.est_cost);
    }
}
