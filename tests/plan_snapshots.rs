//! Golden plan snapshots: the optimiser's chosen plan (EXPLAIN tree +
//! estimated cost) for a corpus of queries, pinned at DOP 1 and 4 — and,
//! over the same corpus, the contract that `Exchange` is a plan's only
//! statement of parallelism and that every one it states really runs.
//!
//! Any change to enumeration order, costing, property derivation or the
//! memo that moves a winning plan shows up here as a readable diff. To
//! regenerate after an *intentional* optimiser change:
//!
//! ```text
//! DQO_UPDATE_SNAPSHOTS=1 cargo test --test plan_snapshots
//! git diff tests/snapshots/plans.txt   # review every moved plan!
//! ```

use dqo::core::catalog::Catalog;
use dqo::core::executor::{execute_with, ExecContext};
use dqo::core::optimizer::{
    optimize_in, OptimizerMode, PlannedQuery, PropertyModel, SearchContext,
};
use dqo::plan::expr::{AggExpr, CmpOp, Predicate};
use dqo::plan::{LogicalPlan, PhysicalPlan};
use dqo::storage::datagen::{DatasetSpec, ForeignKeySpec};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/plans.txt");

fn corpus_catalog() -> Catalog {
    let cat = Catalog::new();
    for (name, sorted, dense) in [
        ("t_ud", false, true),
        ("t_us", false, false),
        ("t_sd", true, true),
        ("t_ss", true, false),
    ] {
        cat.register(
            name,
            DatasetSpec::new(10_000, 100)
                .sorted(sorted)
                .dense(dense)
                .relation()
                .unwrap(),
        );
    }
    cat.register(
        "big",
        DatasetSpec::new(300_000, 512)
            .dense(true)
            .relation()
            .unwrap(),
    );
    let (r, s) = ForeignKeySpec::default().generate().unwrap();
    cat.register("R", r);
    cat.register("S", s);
    // An 8-way range-partitioned twin of `big` (bounds every 64 keys):
    // partitioned-scan plans, pruned and unpruned, pin here too.
    let part_base = DatasetSpec::new(200_000, 512)
        .dense(true)
        .relation()
        .unwrap();
    cat.register_partitioned(
        "part",
        dqo::storage::PartitionedRelation::new(
            part_base,
            dqo::storage::PartitionSpec::range("key", (1..8).map(|i| i * 64).collect()),
        )
        .unwrap(),
    );
    cat
}

fn corpus_queries() -> Vec<(&'static str, Arc<LogicalPlan>)> {
    let count = || vec![AggExpr::count_star("n")];
    let q43 = dqo::plan::logical::example_query_4_3;
    vec![
        (
            "group-by unsorted dense",
            LogicalPlan::group_by(LogicalPlan::scan("t_ud"), "key", count()),
        ),
        (
            "group-by unsorted sparse",
            LogicalPlan::group_by(LogicalPlan::scan("t_us"), "key", count()),
        ),
        (
            "group-by sorted dense",
            LogicalPlan::group_by(LogicalPlan::scan("t_sd"), "key", count()),
        ),
        (
            "group-by sorted sparse",
            LogicalPlan::group_by(LogicalPlan::scan("t_ss"), "key", count()),
        ),
        (
            "sort unsorted",
            LogicalPlan::sort(LogicalPlan::scan("t_ud"), "key"),
        ),
        (
            "sort already-sorted",
            LogicalPlan::sort(LogicalPlan::scan("t_sd"), "key"),
        ),
        (
            "filter-lt then sort",
            LogicalPlan::sort(
                LogicalPlan::filter(
                    LogicalPlan::scan("t_ud"),
                    Predicate::cmp("key", CmpOp::Lt, 30u32),
                ),
                "key",
            ),
        ),
        (
            "filter-eq then group-by",
            LogicalPlan::group_by(
                LogicalPlan::filter(
                    LogicalPlan::scan("t_ud"),
                    Predicate::cmp("key", CmpOp::Eq, 5u32),
                ),
                "key",
                count(),
            ),
        ),
        (
            "project and limit over group-by",
            LogicalPlan::limit(
                LogicalPlan::project(
                    LogicalPlan::group_by(LogicalPlan::scan("t_ud"), "key", count()),
                    vec!["key".into()],
                ),
                7,
            ),
        ),
        ("join-group (example 4.3)", q43()),
        ("sort over join-group", LogicalPlan::sort(q43(), "a")),
        (
            "filtered probe side join-group",
            LogicalPlan::group_by(
                LogicalPlan::join(
                    LogicalPlan::scan("R"),
                    LogicalPlan::filter(
                        LogicalPlan::scan("S"),
                        Predicate::cmp("payload", CmpOp::Lt, 500u32),
                    ),
                    "id",
                    "r_id",
                ),
                "a",
                count(),
            ),
        ),
        (
            "composite group-by",
            LogicalPlan::group_by_multi(
                LogicalPlan::scan("R"),
                vec!["id".into(), "a".into()],
                count(),
            ),
        ),
        (
            "large group-by",
            LogicalPlan::group_by(LogicalPlan::scan("big"), "key", count()),
        ),
        (
            "large filter then group-by",
            LogicalPlan::group_by(
                LogicalPlan::filter(
                    LogicalPlan::scan("big"),
                    Predicate::cmp("key", CmpOp::Lt, 400u32),
                ),
                "key",
                count(),
            ),
        ),
        (
            "large sort",
            LogicalPlan::sort(LogicalPlan::scan("big"), "key"),
        ),
        (
            "partitioned group-by (unpruned)",
            LogicalPlan::group_by(LogicalPlan::scan("part"), "key", count()),
        ),
        (
            "partitioned pruned filter then group-by",
            LogicalPlan::group_by(
                LogicalPlan::filter(
                    LogicalPlan::scan("part"),
                    Predicate::cmp("key", CmpOp::Lt, 100u32),
                ),
                "key",
                count(),
            ),
        ),
        (
            "partitioned pruned sort",
            LogicalPlan::sort(
                LogicalPlan::filter(
                    LogicalPlan::scan("part"),
                    Predicate::cmp("key", CmpOp::Ge, 448u32),
                ),
                "key",
            ),
        ),
    ]
}

fn plan(cat: &Catalog, q: &LogicalPlan, dop: usize) -> PlannedQuery {
    let ctx = SearchContext {
        pmodel: PropertyModel::AttributeStrict,
        dop,
        ..SearchContext::new(OptimizerMode::Deep)
    };
    optimize_in(q, cat, &ctx).unwrap()
}

fn render_snapshot() -> String {
    let cat = corpus_catalog();
    let mut out = String::new();
    for (name, q) in corpus_queries() {
        for dop in [1usize, 4] {
            let planned = plan(&cat, &q, dop);
            writeln!(out, "== {name} | dop={dop} | cost={}", planned.est_cost).unwrap();
            out.push_str(planned.plan.explain().trim_end());
            out.push_str("\n\n");
        }
    }
    out
}

#[test]
fn plans_match_golden_snapshots() {
    let actual = render_snapshot();
    if std::env::var("DQO_UPDATE_SNAPSHOTS").as_deref() == Ok("1") {
        std::fs::write(GOLDEN_PATH, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with DQO_UPDATE_SNAPSHOTS=1 to create it");
    assert_eq!(
        actual, golden,
        "winning plans moved; if intentional, regenerate with \
         DQO_UPDATE_SNAPSHOTS=1 and review the diff"
    );
}

#[test]
fn explain_names_parallelism_only_on_exchange_lines() {
    let cat = corpus_catalog();
    for (name, q) in corpus_queries() {
        for dop in [1usize, 4] {
            let planned = plan(&cat, &q, dop);
            let text = planned.plan.explain();
            for line in text.lines() {
                assert!(
                    !line.contains("parallel") || line.trim_start().starts_with("Exchange dop="),
                    "{name} dop={dop}: parallelism named off an Exchange line:\n{text}"
                );
            }
            for node in planned.plan.preorder() {
                if let PhysicalPlan::Exchange { input, .. } = node {
                    assert!(
                        matches!(
                            **input,
                            PhysicalPlan::Filter { .. }
                                | PhysicalPlan::Sort { .. }
                                | PhysicalPlan::Join { .. }
                                | PhysicalPlan::GroupBy { .. }
                        ),
                        "{name} dop={dop}: Exchange over an operator with no loop of its own:\n{text}"
                    );
                }
            }
        }
    }
}

/// Every `Exchange` of a traced run dispatched morsels whenever its input
/// produced rows: a plan never states a parallelism its run lacked.
#[test]
fn every_exchange_in_the_corpus_dispatches_morsels() {
    let cat = corpus_catalog();
    let traced = ExecContext {
        collect_metrics: true,
        ..ExecContext::default()
    };
    for (name, q) in corpus_queries() {
        let plan = plan(&cat, &q, 4).plan;
        let (_, nodes) = execute_with(&plan, &cat, &traced).unwrap();
        for (i, node) in plan.preorder().into_iter().enumerate() {
            if matches!(node, PhysicalPlan::Exchange { .. }) && nodes[i + 1].rows_out > 0 {
                assert!(
                    nodes[i].morsels > 0,
                    "{name}: an Exchange ran serially:\n{}",
                    plan.explain()
                );
            }
        }
    }
}
