//! Mid-query reoptimisation — §6 of the paper:
//!
//! *"As with shallow query plans, the literature on reoptimisation (during
//! query time) as well as adaptivity should be revisited in the light of
//! DQO."*
//!
//! [`execute_adaptively`] runs a `GROUP BY` query in two stages: it
//! executes the grouping's *input* sub-plan first, then derives **observed
//! properties** from the materialised intermediate (exact sortedness,
//! density, distinct count — no estimates) and re-runs the deep optimiser
//! for the remaining grouping step against those observed facts. When the
//! intermediate turns out sorted or dense in ways the static model could
//! not prove, the grouping implementation is upgraded (e.g. HG → OG or
//! SPHG) *after* the pipeline breaker that materialised it — the cheapest
//! possible reoptimisation point.
//!
//! All three planning calls (static comparison plan, input sub-plan,
//! re-grouped remainder) share **one memo**, private to this call: the
//! input sub-plan's groups and winner tables are built once and answered
//! from the memo thereafter, and stage 3 only pays for the two new
//! groups over the observed intermediate — registering that brand-new
//! table cannot invalidate any existing group, so nothing is cleared.

use crate::catalog::Catalog;
use crate::executor::{execute, ExecOutput};
use crate::memo::Memo;
use crate::optimizer::{optimize_in, OptimizerMode, PlannedQuery, PropertyModel, SearchContext};
use crate::Result;
use dqo_plan::{LogicalPlan, PhysicalPlan};

/// What reoptimisation observed and decided.
#[derive(Debug, Clone)]
pub struct ReoptReport {
    /// The grouping algorithm the static plan chose.
    pub static_choice: Vec<&'static str>,
    /// The grouping algorithm chosen against observed properties.
    pub adaptive_choice: Vec<&'static str>,
    /// Whether reoptimisation changed the plan.
    pub changed: bool,
    /// Observed properties of the intermediate (display form).
    pub observed: String,
    /// Groups added when re-planning the grouping over the observed
    /// intermediate — the only optimisation work stage 3 pays for now
    /// that the stages share a memo (zero for non-grouping fallbacks).
    pub regroup_groups_added: usize,
    /// Winner-table lookups answered from the shared memo across all
    /// planning stages.
    pub memo_winner_hits: u64,
}

/// Plan `logical` inside the shared reoptimisation memo (serial DOP, no
/// AVs, strict property model — the reopt configuration).
fn plan_shared(
    memo: &mut Memo,
    logical: &LogicalPlan,
    catalog: &Catalog,
    mode: OptimizerMode,
) -> Result<PlannedQuery> {
    let ctx = SearchContext {
        pmodel: PropertyModel::AttributeStrict,
        ..SearchContext::new(mode)
    };
    optimize_in(memo, logical, catalog, &ctx)
}

/// Execute `GroupBy(input)` adaptively: run `input`, observe, re-plan the
/// grouping, run it. Non-grouping roots fall back to static execution.
pub fn execute_adaptively(
    logical: &LogicalPlan,
    catalog: &Catalog,
    mode: OptimizerMode,
) -> Result<(ExecOutput, ReoptReport)> {
    let mut memo = Memo::new();

    let LogicalPlan::GroupBy { input, keys, aggs } = logical else {
        let planned = plan_shared(&mut memo, logical, catalog, mode)?;
        let out = execute(&planned.plan, catalog)?;
        let sig = planned.plan.algo_signature();
        return Ok((
            out,
            ReoptReport {
                static_choice: sig.clone(),
                adaptive_choice: sig,
                changed: false,
                observed: "(no reoptimisation point)".into(),
                regroup_groups_added: 0,
                memo_winner_hits: memo.stats().winner_hits,
            },
        ));
    };

    // The static plan for comparison. This also interns and explores the
    // input sub-plan's groups — stage 1 reads them back from the memo.
    let static_planned = plan_shared(&mut memo, logical, catalog, mode)?;
    let static_grouping: Vec<&'static str> = static_planned
        .plan
        .algo_signature()
        .into_iter()
        .take(1)
        .collect();

    // Stage 1: plan + execute the input sub-plan.
    let input_planned = plan_shared(&mut memo, input, catalog, mode)?;
    let intermediate = execute(&input_planned.plan, catalog)?;

    // Stage 2: register the materialised intermediate; its registration
    // computes *exact* observed statistics (sortedness, density, distinct)
    // for every key column — estimates are now facts.
    let tmp = "__reopt::intermediate";
    catalog.register(tmp, intermediate.relation.clone());
    let observed = keys
        .iter()
        .map(|key| {
            catalog
                .column_props(tmp, key)
                .map(|p| p.to_string())
                .unwrap_or_else(|_| "(key column missing)".into())
        })
        .collect::<Vec<_>>()
        .join("; ");

    // Stage 3: re-plan **only** the remaining grouping group against the
    // observed table. A brand-new table invalidates nothing the memo
    // holds: the join/scan winner tables from the static plan stay warm
    // and only the grouping is re-costed.
    let groups_before = memo.group_count();
    let regroup = LogicalPlan::group_by_multi(LogicalPlan::scan(tmp), keys.clone(), aggs.clone());
    let replanned = plan_shared(&mut memo, &regroup, catalog, mode)?;
    let regroup_groups_added = memo.group_count() - groups_before;
    let out = execute(&replanned.plan, catalog);
    catalog.drop_table(tmp);
    let mut out = out?;
    // Account the stage-1 pipeline work too.
    out.pipeline.merge(&intermediate.pipeline);

    let adaptive_grouping: Vec<&'static str> = replanned
        .plan
        .algo_signature()
        .into_iter()
        .take(1)
        .collect();
    let changed = adaptive_grouping != static_grouping
        || !same_grouping_molecules(&static_planned.plan, &replanned.plan);
    Ok((
        out,
        ReoptReport {
            static_choice: static_grouping,
            adaptive_choice: adaptive_grouping,
            changed,
            observed,
            regroup_groups_added,
            memo_winner_hits: memo.stats().winner_hits,
        },
    ))
}

fn grouping_molecules(plan: &PhysicalPlan) -> Option<dqo_plan::physical::GroupingMolecules> {
    match plan {
        PhysicalPlan::GroupBy { molecules, .. } => Some(*molecules),
        _ => plan.children().first().and_then(|c| grouping_molecules(c)),
    }
}

fn same_grouping_molecules(a: &PhysicalPlan, b: &PhysicalPlan) -> bool {
    grouping_molecules(a) == grouping_molecules(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{naive_eval, sorted_rows};
    use dqo_plan::expr::AggExpr;
    use dqo_storage::datagen::ForeignKeySpec;
    use dqo_storage::{Column, DataType, Field, Relation, Schema};

    /// R with id ⇄ a perfectly correlated and sorted, S sorted: the merge
    /// join output *is* sorted by `a`, but the strict static model cannot
    /// prove it (it only knows the stream is ordered by `id`).
    fn correlated_catalog() -> Catalog {
        let catalog = Catalog::new();
        let n = 2_000u32;
        let r = Relation::new(
            Schema::new(vec![
                Field::new("id", DataType::U32),
                Field::new("a", DataType::U32),
            ])
            .unwrap(),
            vec![
                Column::U32((0..n).collect()),
                Column::U32((0..n).map(|i| i / 10).collect()), // sorted, dense-ish
            ],
        )
        .unwrap();
        let s_keys: Vec<u32> = (0..6_000u32).map(|i| i % n).collect();
        let mut s_sorted = s_keys;
        s_sorted.sort_unstable();
        let s = Relation::single_u32("r_id", s_sorted);
        catalog.register("r", r);
        catalog.register("s", s);
        catalog
    }

    fn join_group_query() -> std::sync::Arc<LogicalPlan> {
        LogicalPlan::group_by(
            LogicalPlan::join(LogicalPlan::scan("r"), LogicalPlan::scan("s"), "id", "r_id"),
            "a",
            vec![AggExpr::count_star("n")],
        )
    }

    #[test]
    fn reopt_upgrades_grouping_on_observed_order() {
        let catalog = correlated_catalog();
        let q = join_group_query();
        let (out, report) = execute_adaptively(&q, &catalog, OptimizerMode::Deep).unwrap();
        // Statically, the strict model cannot use OG on `a` after a join
        // on `id`; adaptively, the observed intermediate is provably
        // sorted (correlation) or dense → a cheaper grouping is picked.
        assert!(
            report.changed,
            "expected an upgrade; static {:?} adaptive {:?} observed {}",
            report.static_choice, report.adaptive_choice, report.observed
        );
        assert!(matches!(report.adaptive_choice[0], "OG" | "SPHG"));
        // And the result is still correct.
        let naive = naive_eval(&q, &catalog).unwrap();
        assert_eq!(sorted_rows(&out.relation), sorted_rows(&naive));
        // The stages shared one memo: planning the input sub-plan reused
        // winner tables the static plan built, and re-planning after the
        // pipeline breaker only added the two groups over the observed
        // intermediate (Scan + GroupBy) instead of re-running the full
        // dynamic program.
        assert!(
            report.memo_winner_hits > 0,
            "input planning must hit the static plan's winner tables"
        );
        assert_eq!(
            report.regroup_groups_added, 2,
            "stage 3 must only intern the observed Scan and the GroupBy"
        );
    }

    #[test]
    fn reopt_is_correct_on_uncorrelated_data() {
        let catalog = Catalog::new();
        let (r, s) = ForeignKeySpec {
            r_rows: 500,
            s_rows: 1_500,
            groups: 60,
            r_sorted: false,
            s_sorted: false,
            dense: true,
            seed: 3,
        }
        .generate()
        .unwrap();
        catalog.register("r", r);
        catalog.register("s", s);
        let q = join_group_query();
        let naive = naive_eval(&q, &catalog).unwrap();
        let (out, _) = execute_adaptively(&q, &catalog, OptimizerMode::Deep).unwrap();
        assert_eq!(sorted_rows(&out.relation), sorted_rows(&naive));
        // The temp table is cleaned up.
        assert!(catalog.get("__reopt::intermediate").is_err());
    }

    #[test]
    fn non_grouping_roots_fall_back_to_static() {
        let catalog = Catalog::new();
        catalog.register("t", Relation::single_u32("key", vec![3, 1, 2]));
        let q = LogicalPlan::sort(LogicalPlan::scan("t"), "key");
        let (out, report) = execute_adaptively(&q, &catalog, OptimizerMode::Deep).unwrap();
        assert!(!report.changed);
        assert_eq!(
            out.relation.column("key").unwrap().as_u32().unwrap(),
            &[1, 2, 3]
        );
    }
}
