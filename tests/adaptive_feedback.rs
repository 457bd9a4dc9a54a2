//! End-to-end adaptive cardinality feedback: a traced execution whose
//! filter mis-estimates by ≥ 10× records a selectivity correction, the
//! next optimisation of the same predicate shape produces the corrected
//! row estimate, and the corrected estimate flips the plan to a better
//! one — while results stay bit-identical throughout.

use dqo::core::executor::{naive_eval, sorted_rows};
use dqo::core::profile::estimate_rows;
use dqo::core::Engine;
use dqo::obs::names;
use dqo::plan::expr::{AggExpr, CmpOp, Predicate};
use dqo::plan::LogicalPlan;
use dqo::{MetricsRegistry, Relation};
use std::sync::Arc;

/// 300 000 rows over 512 distinct keys, but wildly skewed: key 0 holds
/// all rows except one straggler per other key. The uniform estimate for
/// `key = 0` is 300 000 / 512 ≈ 586 rows; the truth is 299 489.
fn skewed_relation() -> Relation {
    let mut keys = vec![0u32; 299_489];
    keys.extend(1..512u32);
    Relation::single_u32("key", keys)
}

fn skewed_query() -> Arc<LogicalPlan> {
    LogicalPlan::group_by(
        LogicalPlan::filter(
            LogicalPlan::scan("t"),
            Predicate::cmp("key", CmpOp::Eq, 0u32),
        ),
        "key",
        vec![AggExpr::count_star("n")],
    )
}

/// The estimated output rows of the plan's Filter node (pre-order).
fn filter_estimate(engine: &Engine, plan: &dqo::plan::PhysicalPlan) -> u64 {
    let est = estimate_rows(plan, engine.catalog(), Some(engine.feedback()));
    plan.preorder()
        .into_iter()
        .zip(&est)
        .find(|(n, _)| matches!(n, dqo::plan::PhysicalPlan::Filter { .. }))
        .map(|(_, e)| *e)
        .expect("plan has a filter")
}

#[test]
fn misestimated_filter_learns_a_correction_and_improves_the_plan() {
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::new()
        .with_threads(4)
        .with_tracing(true)
        .with_metrics_registry(Arc::clone(&registry));
    engine.register_table("t", skewed_relation());
    let q = skewed_query();
    let naive = naive_eval(&q, engine.catalog()).unwrap();

    // Cold: the uniform model expects ~586 rows out of the filter, so
    // the grouping above it stays serial (the scan+filter below still
    // parallelises on input size — that estimate is accurate).
    let before = engine.plan(&q).unwrap();
    let est_before = filter_estimate(&engine, &before.plan);
    assert!(
        est_before < 1_000,
        "uniform estimate must be tiny, got {est_before}"
    );
    assert!(engine.feedback().is_empty());
    assert!(
        before.plan.explain().starts_with("OG γ[key] {load=serial}"),
        "the mis-estimated grouping must stay serial:\n{}",
        before.plan.explain()
    );

    // Execute traced: actual ≈ 299 489 rows, a ≥ 10× deviation — one
    // correction lands in the feedback store.
    let r1 = engine.query(&q).unwrap();
    assert_eq!(sorted_rows(&r1.output.relation), sorted_rows(&naive));
    assert_eq!(engine.feedback().len(), 1, "one correction for key = ?");
    let epoch = engine.feedback().epoch();
    assert!(epoch >= 1);

    // Re-plan the same shape: the corrected estimate is within 2× of the
    // truth (vs 500× off before) and the plan changed for the better —
    // the grouping now parallelises over the actually-large stream.
    let after = engine.plan(&q).unwrap();
    let est_after = filter_estimate(&engine, &after.plan);
    assert!(
        est_after >= est_before * 10,
        "corrected estimate must move ≥10×: {est_before} → {est_after}"
    );
    assert!(
        (149_000..=600_000).contains(&est_after),
        "corrected estimate must be near the 299 489 truth, got {est_after}"
    );
    assert_ne!(
        before.plan.explain(),
        after.plan.explain(),
        "the corrected cardinality must change the winning plan"
    );
    assert!(
        after.plan.explain().starts_with("Exchange dop=4")
            && after.plan.explain().contains("load=parallel"),
        "the truly-large grouping should now parallelise:\n{}",
        after.plan.explain()
    );

    // The improved plan still answers correctly, and steady state does
    // not churn: re-executing re-derives the same factor (no epoch bump,
    // no plan flapping).
    let r2 = engine.query(&q).unwrap();
    assert_eq!(sorted_rows(&r2.output.relation), sorted_rows(&naive));
    assert_eq!(engine.feedback().epoch(), epoch, "steady state is quiet");
    let again = engine.plan(&q).unwrap();
    assert_eq!(again.plan.explain(), after.plan.explain());

    // The loop is visible in the metrics.
    let snap = registry.snapshot();
    assert!(snap.counter(names::OPT_FEEDBACK_CORRECTIONS).unwrap_or(0) >= 1);
    assert!(snap.counter(names::OPT_FEEDBACK_APPLIED).unwrap_or(0) >= 1);
    assert!(snap.counter(names::OPT_RULES_FIRED).unwrap_or(0) > 0);
    assert!(snap.gauge(names::OPT_GROUPS).unwrap_or(0) > 0);
}

/// Corrections learned over a **pruned partitioned scan** are stamped
/// with the surviving partitions' stats version: an append into a
/// pruned-away partition leaves the correction live (the survivors'
/// snapshot is unchanged), while an append into a surviving partition
/// invalidates it — the estimate falls back to the uniform base until
/// the shape is relearned.
#[test]
fn partition_stamped_corrections_survive_appends_to_pruned_partitions() {
    use dqo::storage::{PartitionSpec, PartitionedRelation, Value};

    // Partition 0 holds the skewed mass (keys < 512), partition 1 a
    // small uniform tail (keys 512..1024). `key = 0` prunes to p0 only.
    let mut keys = vec![0u32; 299_489];
    keys.extend(1..512u32);
    keys.extend((0..1_000).map(|i| 512 + (i % 512)));
    let pr = PartitionedRelation::new(
        Relation::single_u32("key", keys),
        PartitionSpec::range("key", vec![512]),
    )
    .unwrap();

    let engine = Engine::new().with_threads(4).with_tracing(true);
    engine.register_table_partitioned("t", pr);
    let q = skewed_query();
    let explain = engine.plan(&q).unwrap().plan.explain();
    assert!(explain.contains("parts=1/2"), "plan must prune:\n{explain}");

    // Learn: traced execution of the wildly mis-estimated `key = 0`.
    let est_base = filter_estimate(&engine, &engine.plan(&q).unwrap().plan);
    engine.query(&q).unwrap();
    assert_eq!(engine.feedback().len(), 1);
    let est_corrected = filter_estimate(&engine, &engine.plan(&q).unwrap().plan);
    assert!(
        est_corrected >= est_base * 10,
        "correction must lift the estimate: {est_base} → {est_corrected}"
    );

    // The corrected estimate is the table's rows times the corrected
    // selectivity (1 over the key's distinct count, times the learned
    // factor), capped by the survivor p0's rows.
    let shape = Predicate::cmp("key", CmpOp::Eq, 0u32).shape();
    let corrected_estimate = || {
        let catalog = engine.catalog();
        let entry = catalog.get("t").unwrap();
        let version = catalog.stats_version_for("t", Some(&[0])).unwrap();
        let factor = engine
            .feedback()
            .correction("t", &shape, version)
            .expect("the correction is live");
        let sel = 1.0 / entry.column_props["key"].distinct as f64 * factor;
        let survivors = entry.partitioning.as_ref().unwrap().rows_in(&[0]) as u64;
        ((entry.relation.rows() as f64 * sel).ceil() as u64).min(survivors)
    };
    assert_eq!(est_corrected, corrected_estimate());

    // Append into the pruned-away partition 1: the survivors' snapshot
    // is untouched, so the correction keeps applying — to the table's
    // rows, one more than before.
    engine.insert("t", &[vec![Value::U32(700)]]).unwrap();
    let est_after_pruned_append = filter_estimate(&engine, &engine.plan(&q).unwrap().plan);
    assert_eq!(
        est_after_pruned_append,
        corrected_estimate(),
        "append to a pruned-away partition must not invalidate the correction"
    );

    // Append into surviving partition 0: the stamp is stale — the
    // estimate reverts to the uniform base until relearned.
    engine.insert("t", &[vec![Value::U32(5)]]).unwrap();
    let est_after_survivor_append = filter_estimate(&engine, &engine.plan(&q).unwrap().plan);
    assert!(
        est_after_survivor_append < est_corrected / 10,
        "append to a surviving partition must invalidate the correction: \
         {est_corrected} → {est_after_survivor_append}"
    );

    // Relearning closes the loop again.
    engine.query(&q).unwrap();
    let est_relearned = filter_estimate(&engine, &engine.plan(&q).unwrap().plan);
    assert!(
        est_relearned >= est_base * 10,
        "re-execution must relearn the correction, got {est_relearned}"
    );
}

#[test]
fn well_estimated_workloads_never_enter_the_store() {
    // Uniform data: estimates are accurate, so feedback stays empty and
    // plans are identical to a feedback-free session — the "no behaviour
    // change except where feedback demonstrably improves" guarantee.
    let engine = Engine::new().with_threads(4).with_tracing(true);
    engine.register_table(
        "t",
        dqo::storage::datagen::DatasetSpec::new(100_000, 256)
            .dense(true)
            .relation()
            .unwrap(),
    );
    let q = skewed_query();
    let before = engine.plan(&q).unwrap();
    engine.query(&q).unwrap();
    assert!(
        engine.feedback().is_empty(),
        "a well-estimated filter must not record a correction"
    );
    assert_eq!(
        engine.plan(&q).unwrap().plan.explain(),
        before.plan.explain()
    );
}
