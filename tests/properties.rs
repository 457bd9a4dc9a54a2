//! Workspace-level property tests: randomised end-to-end agreement between
//! the optimised executor and the naive evaluator, DQO dominance, and SQL
//! robustness.

use dqo::core::executor::{naive_eval, sorted_rows};
use dqo::core::optimizer::{
    optimize_in, OptimizerMode, PlannedQuery, PropertyModel, SearchContext,
};
use dqo::core::{execute, Catalog};
use dqo::plan::expr::AggExpr;
use dqo::plan::LogicalPlan;
use dqo::storage::Relation;
use proptest::prelude::*;

/// Optimise under the sound attribute-strict property model.
fn optimize_strict(q: &LogicalPlan, catalog: &Catalog, mode: OptimizerMode) -> PlannedQuery {
    let ctx = SearchContext {
        pmodel: PropertyModel::AttributeStrict,
        ..SearchContext::new(mode)
    };
    optimize_in(q, catalog, &ctx).unwrap()
}

/// Build a two-column relation r(id, a) and one-column fk side s(r_id)
/// from arbitrary data, with ids deduplicated to keep the PK property.
fn tables(ids: Vec<u32>, a_vals: Vec<u32>, fk_choices: Vec<u8>) -> (Relation, Relation) {
    use dqo::storage::{Column, DataType, Field, Schema};
    let mut ids: Vec<u32> = ids;
    ids.sort_unstable();
    ids.dedup();
    let n = ids.len().max(1);
    if ids.is_empty() {
        ids.push(0);
    }
    let a: Vec<u32> = (0..ids.len())
        .map(|i| a_vals.get(i).copied().unwrap_or(0) % 16)
        .collect();
    let r = Relation::new(
        Schema::new(vec![
            Field::new("id", DataType::U32),
            Field::new("a", DataType::U32),
        ])
        .unwrap(),
        vec![Column::U32(ids.clone()), Column::U32(a)],
    )
    .unwrap();
    let fk: Vec<u32> = fk_choices.iter().map(|&c| ids[(c as usize) % n]).collect();
    let s = Relation::single_u32("r_id", fk);
    (r, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grouping_executor_matches_naive_on_arbitrary_data(
        keys in proptest::collection::vec(0u32..64, 1..500)
    ) {
        let catalog = Catalog::new();
        catalog.register("t", Relation::single_u32("key", keys));
        let q = LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![AggExpr::count_star("n"), AggExpr::on(dqo::plan::AggFunc::Sum, "key", "s")],
        );
        let naive = naive_eval(&q, &catalog).unwrap();
        for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
            let planned = optimize_strict(&q, &catalog, mode);
            let out = execute(&planned.plan, &catalog).unwrap();
            prop_assert_eq!(sorted_rows(&out.relation), sorted_rows(&naive));
        }
    }

    #[test]
    fn join_group_matches_naive_on_arbitrary_fk_data(
        ids in proptest::collection::vec(any::<u32>(), 1..60),
        a_vals in proptest::collection::vec(any::<u32>(), 0..60),
        fks in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let (r, s) = tables(ids, a_vals, fks);
        let catalog = Catalog::new();
        catalog.register("r", r);
        catalog.register("s", s);
        let q = LogicalPlan::group_by(
            LogicalPlan::join(LogicalPlan::scan("r"), LogicalPlan::scan("s"), "id", "r_id"),
            "a",
            vec![AggExpr::count_star("n")],
        );
        let naive = naive_eval(&q, &catalog).unwrap();
        for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
            let planned = optimize_strict(&q, &catalog, mode);
            let out = execute(&planned.plan, &catalog).unwrap();
            prop_assert_eq!(
                sorted_rows(&out.relation),
                sorted_rows(&naive),
                "{} plan {:?}", mode, planned.plan.algo_signature()
            );
        }
    }

    #[test]
    fn dqo_cost_never_exceeds_sqo_cost(
        keys in proptest::collection::vec(0u32..1024, 1..800)
    ) {
        let catalog = Catalog::new();
        catalog.register("t", Relation::single_u32("key", keys));
        let q = LogicalPlan::group_by(
            LogicalPlan::scan("t"), "key", vec![AggExpr::count_star("n")],
        );
        let deep = optimize_strict(&q, &catalog, OptimizerMode::Deep);
        let shallow = optimize_strict(&q, &catalog, OptimizerMode::Shallow);
        prop_assert!(deep.est_cost <= shallow.est_cost + 1e-9);
    }

    #[test]
    fn sql_parser_never_panics(input in "\\PC{0,120}") {
        // Arbitrary printable garbage: must return Ok or Err, not panic.
        let _ = dqo::sql::parse(&input);
    }

    #[test]
    fn sql_roundtrip_group_by(groups in 1u32..50, rows in 1usize..300) {
        let keys: Vec<u32> = (0..rows).map(|i| i as u32 % groups).collect();
        let db = dqo::Dqo::new();
        db.register_table("t", Relation::single_u32("key", keys));
        let r = db.sql("SELECT key, COUNT(*) AS n FROM t GROUP BY key").unwrap();
        prop_assert_eq!(r.output.relation.rows() as u32, groups.min(rows as u32));
        let counts = r.output.relation.column("n").unwrap().as_u64().unwrap();
        prop_assert_eq!(counts.iter().sum::<u64>(), rows as u64);
    }
}
