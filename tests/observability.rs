//! End-to-end observability: the phase-timed query trace, the annotated
//! EXPLAIN ANALYZE tree and the engine-wide metrics registry, exercised
//! through the public `Dqo` facade the way an operator would use them.
//!
//! Three contracts are pinned here: (a) EXPLAIN ANALYZE annotates every
//! operator of a parallel plan with estimated vs actual cardinality,
//! wall time and parallel-runtime detail; (b) instrumentation is
//! invisible to results — traced and untraced runs are bit-identical at
//! every DOP; (c) the registry stays consistent under real concurrency
//! (admission wait observations match admissions, gauges return to
//! idle).

use dqo::core::executor::sorted_rows;
use dqo::obs::names;
use dqo::storage::datagen::DatasetSpec;
use dqo::storage::{Column, DataType, Field, Schema, Value};
use dqo::{Dqo, Engine, MetricsRegistry, PersistentPool, Phase};
use std::sync::Arc;

fn grouping_table(seed: u64) -> dqo::Relation {
    DatasetSpec::new(300_000, 512)
        .sorted(false)
        .dense(true)
        .seed(seed)
        .relation()
        .unwrap()
}

const SQL: &str = "SELECT key, COUNT(*) AS n, SUM(key) AS s FROM t \
                   WHERE key < 400 GROUP BY key";

fn run_sorted(db: &Dqo, sql: &str) -> Vec<Vec<Value>> {
    sorted_rows(&db.sql(sql).expect("query runs").output.relation)
}

#[test]
fn explain_analyze_annotates_every_operator_of_a_parallel_plan() {
    let db = Dqo::with_engine(Engine::new().with_threads(4).with_tracing(true));
    db.register_table("t", grouping_table(42));
    let text = db.explain_analyze(SQL).expect("explain analyze runs");

    // Header: the full phase-timed lifecycle, parse through execute.
    assert!(text.contains("phases: "), "missing phase header:\n{text}");
    for phase in [
        "parse=",
        "bind=",
        "optimise=",
        "admission-wait=",
        "execute=",
    ] {
        assert!(text.contains(phase), "missing {phase} in header:\n{text}");
    }
    assert!(text.contains("actual rows:"), "{text}");
    assert!(text.contains("wall time:"), "{text}");

    // Every operator line carries est/act/Δ/wall — a filtered grouping
    // plan has at least scan + filter + group-by.
    let annotated: Vec<&str> = text.lines().filter(|l| l.contains("est=")).collect();
    assert!(
        annotated.len() >= 3,
        "expected ≥3 annotated operators, got {}:\n{text}",
        annotated.len()
    );
    for line in &annotated {
        for field in ["act=", "Δ=", "wall="] {
            assert!(line.contains(field), "missing {field} on line {line:?}");
        }
    }

    // The Exchange subtree reports its parallel runtime: the clamped
    // DOP and the morsel/steal counts from the batch that ran it.
    assert!(text.contains("dop=4"), "missing parallel detail:\n{text}");
    assert!(text.contains("morsels="), "{text}");
    assert!(text.contains("steals="), "{text}");
}

/// A comparison on a column the catalog knows ascends is answered by
/// binary search, and EXPLAIN ANALYZE says so on the filter's line — a
/// plan node or a filter fused into the grouping alike. `<>` is never
/// searched, and a shuffled copy of the same rows is scanned.
#[test]
fn explain_analyze_shows_the_conjuncts_a_filter_searched() {
    let table = |sorted| {
        DatasetSpec::new(300_000, 512)
            .sorted(sorted)
            .dense(true)
            .seed(9)
            .relation()
            .unwrap()
    };
    let two = "SELECT key, COUNT(*) AS n FROM t WHERE key < 400 AND key <> 7 GROUP BY key";
    for threads in [1, 4] {
        for (sorted, sql, shown) in [
            (true, SQL, Some("search=1/1")),
            (true, two, Some("search=1/2")),
            (false, SQL, None),
        ] {
            let db = Dqo::with_engine(Engine::new().with_threads(threads).with_tracing(true));
            db.register_table("t", table(sorted));
            let text = db.explain_analyze(sql).expect("explain analyze runs");
            let filter = text
                .lines()
                .find(|l| l.trim_start().starts_with("Filter"))
                .unwrap_or_else(|| panic!("no filter line:\n{text}"));
            match shown {
                Some(shown) => assert!(filter.contains(shown), "{shown}:\n{text}"),
                None => assert!(!text.contains("search="), "shuffled:\n{text}"),
            }
        }
    }
}

/// The narrowing kernel tests 64-row blocks and EXPLAIN ANALYZE shows on
/// the filter's line how many of them no row passed and how many every
/// row passed (`full=`, the blocks a grouping folds whole): on a
/// clustered, unsorted column most blocks of an equality hold no match
/// and the blocks inside its one run are full, and a filter every row
/// passes skips none and finds every block full.
#[test]
fn explain_analyze_shows_the_blocks_a_filter_skipped() {
    let rows = 300_000u32;
    let key: Vec<u32> = (0..rows).map(|i| (i / 1_000) * 37 % 512).collect();
    let rel = dqo::Relation::new(
        Schema::new(vec![Field::new("key", DataType::U32)]).unwrap(),
        vec![Column::U32(key)],
    )
    .unwrap();
    let skipped = |text: &str| -> (u64, u64, u64) {
        let filter = text
            .lines()
            .find(|l| l.trim_start().starts_with("Filter"))
            .unwrap_or_else(|| panic!("no filter line:\n{text}"));
        let field = |name: &str| {
            filter
                .split([' ', ')'])
                .find_map(|f| f.strip_prefix(name))
                .unwrap_or_else(|| panic!("no {name} on the filter:\n{text}"))
        };
        let (k, n) = field("skipped=").split_once('/').expect("k/n");
        let full: u64 = field("full=").parse().unwrap();
        (k.parse().unwrap(), n.parse().unwrap(), full)
    };
    let tested = u64::from(rows).div_ceil(64);
    for threads in [1, 4] {
        let db = Dqo::with_engine(Engine::new().with_threads(threads).with_tracing(true));
        db.register_table("t", rel.clone());
        let one = "SELECT key, COUNT(*) AS n FROM t WHERE key = 37 GROUP BY key";
        let text = db.explain_analyze(one).expect("explain analyze runs");
        let (k, n, full) = skipped(&text);
        assert!(k > 0 && k < n, "clustered, threads={threads}:\n{text}");
        // Morsels cut at multiples of 64 rows: every row is in one block.
        assert_eq!(n, tested, "threads={threads}:\n{text}");
        // Key 37 is rows 1 000..2 000: the blocks from 1 024 to 1 984.
        assert_eq!(full, 15, "threads={threads}:\n{text}");
        let all = "SELECT key, COUNT(*) AS n FROM t WHERE key < 1000 GROUP BY key";
        let text = db.explain_analyze(all).expect("explain analyze runs");
        assert_eq!(
            skipped(&text),
            (0, tested, tested),
            "all pass, threads={threads}:\n{text}"
        );
    }
}

#[test]
fn an_exchange_over_a_composite_grouping_dispatches_morsels() {
    // Columns `a` and `b` each take the values {0, 100 000}: four groups,
    // but the product of the two value spans (≈ 1.0 × 10¹⁰) leaves the
    // `u32` code domain, so the key tuples cannot pack and the executor
    // groups them with its serial row-wise kernel. No plan may then
    // claim an `Exchange` over that grouping.
    let rows = 300_000u32;
    let value = |bit: u32| (0..rows).map(move |i| ((i >> bit) & 1) * 100_000);
    let rel = dqo::Relation::new(
        Schema::new(vec![
            Field::new("a", DataType::U32),
            Field::new("b", DataType::U32),
        ])
        .unwrap(),
        vec![
            Column::U32(value(0).collect()),
            Column::U32(value(1).collect()),
        ],
    )
    .unwrap();
    let db = Dqo::with_engine(Engine::new().with_threads(4).with_tracing(true));
    db.register_table("t", rel);
    let result = db
        .sql("SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b")
        .expect("query runs");
    assert_eq!(result.output.relation.rows(), 4);
    let plan = &result.planned.plan;
    let nodes = &result.ops.nodes;
    for (i, node) in plan.preorder().into_iter().enumerate() {
        if matches!(node, dqo::plan::PhysicalPlan::Exchange { .. }) && nodes[i + 1].rows_out > 0 {
            assert!(
                nodes[i].morsels > 0,
                "an Exchange ran serially:\n{}",
                plan.explain()
            );
        }
    }
}

#[test]
fn plain_explain_is_untouched_by_instrumentation() {
    let db = Dqo::with_engine(Engine::new().with_threads(4).with_tracing(true));
    db.register_table("t", grouping_table(42));
    let plain = db.explain(SQL).expect("explain runs");
    for field in ["est=", "act=", "Δ=", "phases:"] {
        assert!(
            !plain.contains(field),
            "plain EXPLAIN leaked runtime annotation {field}:\n{plain}"
        );
    }
}

#[test]
fn tracing_is_invisible_to_results_at_every_dop() {
    for dop in [1usize, 2, 8] {
        let traced = Dqo::with_engine(Engine::new().with_threads(dop).with_tracing(true));
        let plain = Dqo::with_engine(Engine::new().with_threads(dop).with_tracing(false));
        traced.register_table("t", grouping_table(7));
        plain.register_table("t", grouping_table(7));

        let a = traced.sql(SQL).expect("traced query");
        let b = plain.sql(SQL).expect("untraced query");
        assert_eq!(
            sorted_rows(&a.output.relation),
            sorted_rows(&b.output.relation),
            "dop={dop}: instrumentation changed the result"
        );

        // The traced run carries the full profile and per-operator
        // runtime; the untraced run carries neither — but both always
        // report the admission-wait/execution wall split.
        for phase in [Phase::Parse, Phase::Optimise, Phase::Execute] {
            assert!(a.profile.has_phase(phase), "dop={dop}: missing {phase}");
        }
        assert!(!a.ops.is_empty(), "dop={dop}: no operator metrics");
        assert!(b.profile.spans.is_empty(), "dop={dop}: untraced spans");
        assert!(b.ops.is_empty(), "dop={dop}: untraced operator metrics");
        assert_eq!(a.wall, a.queue_wait + a.exec_wall);
        assert_eq!(b.wall, b.queue_wait + b.exec_wall);
    }
}

#[test]
fn shared_pool_metrics_stay_consistent_under_concurrency() {
    const SESSIONS: usize = 4;
    const QUERIES_PER_SESSION: usize = 3;

    let pool = Arc::new(PersistentPool::with_admission(4, 2));
    let engine_registry = Arc::new(MetricsRegistry::new());
    std::thread::scope(|scope| {
        for i in 0..SESSIONS {
            let pool = Arc::clone(&pool);
            let registry = Arc::clone(&engine_registry);
            scope.spawn(move || {
                let db = Dqo::with_engine(
                    Engine::with_shared_pool(pool).with_metrics_registry(registry),
                );
                db.register_table("t", grouping_table(100 + i as u64));
                for _ in 0..QUERIES_PER_SESSION {
                    run_sorted(&db, SQL);
                }
            });
        }
    });

    let total = (SESSIONS * QUERIES_PER_SESSION) as u64;
    let snap = pool.metrics_snapshot();

    // Admission accounting: one admit and exactly one wait observation
    // per query, and all permits released.
    let admitted = snap.counter(names::ADMISSION_ADMITTED).unwrap();
    assert_eq!(admitted, total);
    let (wait_count, wait_sum) = snap
        .histogram_count_sum(names::ADMISSION_WAIT_SECONDS)
        .unwrap();
    assert_eq!(
        wait_count, admitted,
        "wait observations must match admissions"
    );
    assert!(wait_sum >= 0.0);
    assert_eq!(snap.gauge(names::ADMISSION_INFLIGHT), Some(0));
    assert_eq!(snap.gauge(names::ADMISSION_QUEUED), Some(0));

    // The pool actually ran parallel work and is idle again.
    assert!(snap.counter(names::POOL_JOBS).unwrap() > 0);
    assert_eq!(snap.gauge(names::POOL_QUEUE_DEPTH), Some(0));
    assert_eq!(snap.gauge(names::POOL_WORKERS), Some(4));

    // Engine-side accounting in the isolated registry: every query was
    // counted, and the optimise/execute histograms saw each one.
    let engine_snap = engine_registry.snapshot();
    assert_eq!(engine_snap.counter(names::ENGINE_QUERIES).unwrap(), total);
    let (opt_count, _) = engine_snap
        .histogram_count_sum(names::OPTIMISE_SECONDS)
        .unwrap();
    let (exec_count, _) = engine_snap
        .histogram_count_sum(names::EXEC_SECONDS)
        .unwrap();
    assert_eq!(opt_count, total);
    assert_eq!(exec_count, total);
}

#[test]
fn metrics_exposition_formats_cover_the_registry() {
    let db = Dqo::with_engine(
        Engine::new()
            .with_threads(2)
            .with_metrics_registry(Arc::new(MetricsRegistry::new())),
    );
    db.register_table("t", grouping_table(9));
    db.sql(SQL).expect("query runs");

    let snap = db.metrics();
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    for name in [
        names::ENGINE_QUERIES,
        names::OPTIMISE_SECONDS,
        names::EXEC_SECONDS,
    ] {
        assert!(json.contains(name), "JSON exposition missing {name}");
        assert!(prom.contains(name), "Prometheus exposition missing {name}");
    }
    assert!(
        prom.contains("# TYPE"),
        "Prometheus exposition lacks TYPE lines"
    );
}

#[test]
fn bytes_materialised_shows_copies_were_removed_not_moved() {
    use dqo::core::executor::{execute_with, ExecContext};
    let traced = ExecContext {
        collect_metrics: true,
        ..ExecContext::default()
    };
    use dqo::plan::physical::GroupingMolecules;
    use dqo::plan::{AggExpr, AggFunc, CmpOp, GroupingAlgorithm, PhysicalPlan, Predicate};
    use dqo::storage::{PartitionSpec, PartitionedRelation};

    let cat = dqo::Catalog::new();
    cat.register("t", grouping_table(3));
    let spec = PartitionSpec::range("key", vec![128, 256, 384]);
    cat.register_partitioned(
        "p",
        PartitionedRelation::new(grouping_table(3), spec).unwrap(),
    );
    let filter = |input: PhysicalPlan| PhysicalPlan::Filter {
        input: Box::new(input),
        predicate: Predicate::cmp("key", CmpOp::Lt, 200u32),
    };
    let scan = || PhysicalPlan::Scan { table: "t".into() };

    // Scan, pruned partitioned scan, filter, project and limit narrow a
    // view and copy nothing: only the root pays, for the rows it returns.
    let pruned = PhysicalPlan::PartitionedScan {
        table: "p".into(),
        parts: vec![0, 1],
        total: 4,
    };
    for source in [scan(), pruned] {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(filter(source)),
                columns: vec!["key".into()],
            }),
            n: 1_000,
        };
        let (out, nodes) = execute_with(&plan, &cat, &traced).unwrap();
        assert_eq!(nodes.len(), 4);
        for (node, m) in plan.preorder().iter().zip(&nodes) {
            assert_eq!(m.bytes_materialised, 0, "{}", node.explain());
        }
        assert_eq!(out.relation.rows(), 1_000);
        assert_eq!(out.bytes_materialised, 4 * 1_000, "the root's one column");
    }

    // A serial HG/SPHG reads the row ranges of a pruned scan (partitions 0
    // and 2: two ranges) in place, piece by piece; the grouped result is
    // fresh, so the root takes it as it is.
    for algo in [
        GroupingAlgorithm::HashBased,
        GroupingAlgorithm::StaticPerfectHash,
    ] {
        let plan = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::PartitionedScan {
                table: "p".into(),
                parts: vec![0, 2],
                total: 4,
            }),
            keys: vec!["key".into()],
            aggs: vec![AggExpr::count_star("n")],
            algo,
            molecules: GroupingMolecules::defaults_for(algo),
        };
        let (out, _) = execute_with(&plan, &cat, &traced).unwrap();
        assert_eq!(
            out.relation.rows(),
            256,
            "{algo:?}: keys 0..128 and 256..384"
        );
        assert_eq!(out.bytes_materialised, 0, "{algo:?}");
    }

    // filter → group: at any DOP the filter is fused into the grouping's
    // loader, which narrows each piece into row ids; the fold reads the
    // key and value columns at them, so nothing is copied — and the
    // grouped result reaches the root without another copy.
    let survivors = {
        let (out, _) = execute_with(&filter(scan()), &cat, &traced).unwrap();
        out.relation.rows() as u64
    };
    assert!(
        survivors > 100_000,
        "the predicate keeps ~200/512 of 300k rows"
    );
    for (dop, algo) in [
        (1, GroupingAlgorithm::StaticPerfectHash),
        (1, GroupingAlgorithm::HashBased),
        (4, GroupingAlgorithm::StaticPerfectHash),
        (4, GroupingAlgorithm::HashBased),
    ] {
        let group = PhysicalPlan::GroupBy {
            input: Box::new(filter(scan())),
            keys: vec!["key".into()],
            aggs: vec![
                AggExpr::count_star("n"),
                AggExpr::on(AggFunc::Sum, "key", "s"),
            ],
            algo,
            molecules: GroupingMolecules::defaults_for(algo),
        };
        let plan = match dop {
            1 => group,
            _ => PhysicalPlan::Exchange {
                input: Box::new(group),
                dop,
            },
        };
        let (out, nodes) = execute_with(&plan, &cat, &traced).unwrap();
        let total: u64 = nodes.iter().map(|m| m.bytes_materialised).sum();
        assert_eq!(
            out.bytes_materialised, total,
            "dop={dop}: root copies nothing"
        );
        assert_eq!(total, 0, "dop={dop} {algo:?}: the grouping gathers nothing");
        for (node, m) in plan.preorder().iter().zip(&nodes) {
            assert_eq!(m.bytes_materialised, 0, "{}", node.explain());
        }
        // The filter's row count survives fusion, and EXPLAIN ANALYZE
        // prints it on the absorbed Filter's line.
        let filter_at = nodes.len() - 2;
        assert_eq!(nodes[filter_at].rows_out, survivors, "dop={dop}");
        let runtime = dqo::PlanRuntime { nodes };
        let text = dqo::core::profile::render_annotated(&plan, &cat, &runtime, None);
        let line = text.lines().find(|l| l.contains("Filter")).unwrap();
        assert!(line.contains(&format!("act={survivors} ")), "{text}");
    }

    // filter → SPHJ → group: the grouping probes the join inside its own
    // loader and reads its key (build side) and its SUM's input (probe
    // side) at each match's rows, so nothing is copied — yet the absorbed
    // nodes still report. The SPHJ reports the pairs its probe found (the probe-side
    // conjunct `payload < 500` ran first), the filter its survivors, each
    // `Exchange` its DOP and the pieces it dispatched.
    let (r, s) = dqo::storage::datagen::ForeignKeySpec {
        r_rows: 50_000,
        s_rows: 200_000,
        groups: 500,
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 11,
    }
    .generate()
    .unwrap();
    cat.register("r", r);
    cat.register("s", s);
    let join = || PhysicalPlan::Join {
        left: Box::new(PhysicalPlan::Scan { table: "r".into() }),
        right: Box::new(PhysicalPlan::Scan { table: "s".into() }),
        left_key: "id".into(),
        right_key: "r_id".into(),
        algo: dqo::plan::JoinAlgorithm::StaticPerfectHash,
    };
    let over_join = |predicate: Predicate, input: PhysicalPlan| PhysicalPlan::Filter {
        input: Box::new(input),
        predicate,
    };
    let probe_side = || Predicate::cmp("payload", CmpOp::Lt, 500u32);
    let both = || Predicate::And(vec![probe_side(), Predicate::cmp("a", CmpOp::Lt, 200u32)]);
    let rows = |plan: &PhysicalPlan| execute_with(plan, &cat, &traced).unwrap().0.relation.rows();
    let pairs = rows(&over_join(probe_side(), join())) as u64;
    let survivors = rows(&over_join(both(), join())) as u64;
    assert!(
        pairs > survivors && survivors > 0,
        "{pairs} pairs, {survivors} survivors"
    );
    let exchange = |dop: usize, input: PhysicalPlan| match dop {
        1 => input,
        _ => PhysicalPlan::Exchange {
            input: Box::new(input),
            dop,
        },
    };
    let group = |input: PhysicalPlan| PhysicalPlan::GroupBy {
        input: Box::new(input),
        keys: vec!["a".into()],
        aggs: vec![
            AggExpr::count_star("n"),
            AggExpr::on(AggFunc::Sum, "payload", "s"),
        ],
        algo: GroupingAlgorithm::StaticPerfectHash,
        molecules: GroupingMolecules::defaults_for(GroupingAlgorithm::StaticPerfectHash),
    };
    // A Project between the grouping and the filter keeps them apart: the
    // unfused reference.
    let unfused = group(PhysicalPlan::Project {
        input: Box::new(over_join(both(), join())),
        columns: vec!["a".into(), "payload".into()],
    });
    let expect = execute_with(&unfused, &cat, &traced).unwrap().0.relation;
    for dop in [1, 4] {
        let plan = exchange(
            dop,
            group(exchange(dop, over_join(both(), exchange(dop, join())))),
        );
        let (out, nodes) = execute_with(&plan, &cat, &traced).unwrap();
        assert_eq!(
            sorted_rows(&out.relation),
            sorted_rows(&expect),
            "dop={dop}"
        );
        let total: u64 = nodes.iter().map(|m| m.bytes_materialised).sum();
        assert_eq!(out.bytes_materialised, total, "dop={dop}");
        assert_eq!(total, 0, "dop={dop}: the fused join gathers nothing");
        for (node, m) in plan.preorder().iter().zip(&nodes) {
            let line = node.explain();
            match node {
                PhysicalPlan::Join { .. } => assert_eq!(m.rows_out, pairs, "{line}"),
                PhysicalPlan::Filter { .. } => assert_eq!(m.rows_out, survivors, "{line}"),
                PhysicalPlan::Exchange { .. } => {
                    assert_eq!(m.dop, Some(dop), "{line}");
                    assert!(m.morsels > 0, "{line}");
                }
                _ => {}
            }
            assert!(m.wall > std::time::Duration::ZERO, "dop={dop}: {line}");
            assert_eq!(m.bytes_materialised, 0, "dop={dop}: {line}");
        }
    }

    // Shallow mode's §4.3 plan, HG over HJ: the grouping probes the HJ's
    // hashed index inside its loader exactly as it probes an SPHJ's, so
    // the HJ copies nothing, and EXPLAIN ANALYZE still shows its pairs.
    let in_order = |rel: &dqo::storage::Relation| -> Vec<Vec<Value>> {
        (0..rel.rows()).map(|r| rel.row(r).unwrap()).collect()
    };
    let fk = dqo::Catalog::new();
    let (r, s) = dqo::storage::datagen::ForeignKeySpec {
        r_rows: 20_000,
        s_rows: 100_000,
        groups: 300,
        r_sorted: false,
        s_sorted: false,
        dense: false,
        seed: 5,
    }
    .generate()
    .unwrap();
    fk.register("R", r);
    fk.register("S", s);
    let query = dqo::plan::logical::example_query_4_3();
    let shallow = dqo::core::optimizer::optimize(&query, &fk, dqo::OptimizerMode::Shallow)
        .unwrap()
        .plan;
    assert_eq!(shallow.algo_signature(), vec!["HG", "HJ"]);
    let PhysicalPlan::GroupBy {
        input: hj,
        keys,
        aggs,
        algo,
        molecules,
    } = &shallow
    else {
        panic!("{}", shallow.explain());
    };
    let pairs = execute_with(hj, &fk, &traced).unwrap().0.relation.rows() as u64;
    // HG over `input` at `dop`, the HJ beneath an `Exchange` of its own.
    let hg = |dop: usize, input: fn(PhysicalPlan, &[String]) -> PhysicalPlan| {
        let join = exchange(dop, (**hj).clone());
        exchange(
            dop,
            PhysicalPlan::GroupBy {
                input: Box::new(input(join, keys)),
                keys: keys.clone(),
                aggs: aggs.clone(),
                algo: *algo,
                molecules: *molecules,
            },
        )
    };
    for dop in [1, 4] {
        // The Project keeps the unfused reference apart, as above.
        let unfused = hg(dop, |join, keys| PhysicalPlan::Project {
            input: Box::new(join),
            columns: keys.to_vec(),
        });
        let expect = in_order(&execute_with(&unfused, &fk, &traced).unwrap().0.relation);
        let plan = hg(dop, |join, _| join);
        let (out, nodes) = execute_with(&plan, &fk, &traced).unwrap();
        assert_eq!(
            in_order(&out.relation),
            expect,
            "dop={dop}: the unfused answer, in order"
        );
        let join_at = plan
            .preorder()
            .iter()
            .position(|node| matches!(node, PhysicalPlan::Join { .. }))
            .unwrap();
        assert_eq!(nodes[join_at].bytes_materialised, 0, "dop={dop}");
        assert_eq!(
            out.bytes_materialised, 0,
            "dop={dop}: HG over HJ copies nothing"
        );
        assert_eq!(nodes[join_at].rows_out, pairs, "dop={dop}");
        let runtime = dqo::PlanRuntime { nodes };
        let text = dqo::core::profile::render_annotated(&plan, &fk, &runtime, None);
        let line = text.lines().find(|l| l.contains("HJ ")).unwrap();
        assert!(line.contains(&format!("act={pairs} ")), "dop={dop}: {text}");
    }

    // A join no grouping fused hands on its pairs of row ids: at the root,
    // under ORDER BY and under ORDER BY … LIMIT, at DOP 1 and 4, every join
    // copies nothing but its key scratch — the build keys an HJ/SPHJ
    // indexes, both keys an OJ/SOJ/BSJ reads — read through the rows each
    // filter kept; a sort reads its key through the join's rows; and the
    // root copies exactly its output columns.
    let (r, s) = dqo::storage::datagen::ForeignKeySpec {
        r_rows: 20_000,
        s_rows: 100_000,
        groups: 300,
        r_sorted: true,
        s_sorted: true,
        dense: true,
        seed: 13,
    }
    .generate()
    .unwrap();
    let sorted = dqo::Catalog::new();
    sorted.register("r", r);
    sorted.register("s", s);
    // `<>` leaves row ids even on r's ascending columns, which a search
    // would cut into one dense run.
    let side = |table: &str, column: &str, op: CmpOp, v: u32| PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::Scan {
            table: table.into(),
        }),
        predicate: Predicate::cmp(column, op, v),
    };
    let count = |plan: &PhysicalPlan| {
        execute_with(plan, &sorted, &traced)
            .unwrap()
            .0
            .relation
            .rows()
    };
    let (build, probe) = (
        side("r", "a", CmpOp::Ne, 7),
        side("s", "payload", CmpOp::Lt, 500),
    );
    let (build_rows, probe_rows) = (count(&build) as u64, count(&probe) as u64);
    let mut reference = None;
    for algo in [
        dqo::plan::JoinAlgorithm::HashBased,
        dqo::plan::JoinAlgorithm::StaticPerfectHash,
        dqo::plan::JoinAlgorithm::OrderBased,
        dqo::plan::JoinAlgorithm::SortOrderBased,
        dqo::plan::JoinAlgorithm::BinarySearch,
    ] {
        let scratch = match algo {
            dqo::plan::JoinAlgorithm::HashBased | dqo::plan::JoinAlgorithm::StaticPerfectHash => {
                4 * build_rows
            }
            _ => 4 * (build_rows + probe_rows),
        };
        for dop in [1, 4] {
            let join = exchange(
                dop,
                PhysicalPlan::Join {
                    left: Box::new(build.clone()),
                    right: Box::new(probe.clone()),
                    left_key: "id".into(),
                    right_key: "r_id".into(),
                    algo,
                },
            );
            let sort = || {
                exchange(
                    dop,
                    PhysicalPlan::Sort {
                        input: Box::new(join.clone()),
                        key: "payload".into(),
                        molecule: dqo::plan::SortMolecule::Comparison,
                    },
                )
            };
            let top = PhysicalPlan::Limit {
                input: Box::new(sort()),
                n: 100,
            };
            for plan in [join.clone(), sort(), top] {
                let ctx = format!("{algo:?} dop={dop}\n{}", plan.explain());
                let (out, nodes) = execute_with(&plan, &sorted, &traced).unwrap();
                let rel = &out.relation;
                let rows = reference.get_or_insert_with(|| sorted_rows(rel)).len() as u64;
                assert!(rows > 10_000, "{ctx}");
                match plan {
                    PhysicalPlan::Limit { .. } => assert_eq!(rel.rows(), 100, "{ctx}"),
                    _ => assert_eq!(sorted_rows(rel), *reference.as_ref().unwrap(), "{ctx}"),
                }
                for (node, m) in plan.preorder().iter().zip(&nodes) {
                    let expect = match node {
                        PhysicalPlan::Join { .. } => scratch,
                        PhysicalPlan::Sort { .. } => 4 * rows,
                        _ => 0,
                    };
                    assert_eq!(m.bytes_materialised, expect, "{}\n{ctx}", node.explain());
                }
                let nodes: u64 = nodes.iter().map(|m| m.bytes_materialised).sum();
                let root = out.bytes_materialised - nodes;
                assert_eq!(root, rel.byte_size() as u64, "the root's output: {ctx}");
            }
        }
    }

    // Through the engine: EXPLAIN ANALYZE renders the numbers and the
    // registry counter carries the per-query total — for a statement whose
    // sort reads its key through the rows a filter kept (a grouping there
    // would copy nothing).
    const SQL: &str = "SELECT key FROM t WHERE key < 400 ORDER BY key";
    let registry = Arc::new(MetricsRegistry::new());
    let db = Dqo::with_engine(
        Engine::new()
            .with_threads(4)
            .with_tracing(true)
            .with_metrics_registry(Arc::clone(&registry)),
    );
    db.register_table("t", grouping_table(3));
    let result = db.sql(SQL).expect("query runs");
    let text = db.explain_analyze(SQL).expect("explain analyze runs");
    assert!(text.contains("materialised: "), "{text}");
    assert!(text.contains("bytes="), "{text}");
    assert!(result.output.bytes_materialised > 0);
    assert_eq!(
        db.metrics().counter(names::EXEC_BYTES_MATERIALISED),
        Some(2 * result.output.bytes_materialised),
        "two executions of the same statement"
    );
}

/// The count guard of the join memo: serve.scan's join statement run 50
/// times over unchanged tables builds `r.id`'s index once and carries
/// the one build column the plan above reads, `a`, once — every later
/// run probes the memo, and answers as the first. One INSERT into the
/// build table publishes a new snapshot with an empty memo, so the next
/// run builds and carries exactly once more. EXPLAIN ANALYZE names where
/// the index came from and what it carries.
#[test]
fn a_join_index_is_built_once_per_table_snapshot() {
    let (r, s) = dqo::storage::datagen::ForeignKeySpec {
        r_rows: 20_000,
        s_rows: 20_000,
        groups: 256,
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 11,
    }
    .generate()
    .unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::new()
        .with_threads(1)
        .with_metrics_registry(Arc::clone(&registry));
    let db = Dqo::with_engine(engine);
    db.register_table("r", r);
    db.register_table("s", s);
    let sql = "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id WHERE payload < 500 \
               GROUP BY a ORDER BY a";
    let counts = || {
        let snap = registry.snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        [
            count(names::JOIN_INDEX_BUILDS),
            count(names::JOIN_CARRIED_COLUMNS),
        ]
    };
    let first = run_sorted(&db, sql);
    let plan = db.sql(sql).unwrap().planned.plan.explain();
    assert!(plan.contains("SPHJ on id = r_id"), "{plan}");
    for _ in 1..50 {
        assert_eq!(run_sorted(&db, sql), first);
    }
    assert_eq!(counts(), [1, 1], "51 runs on one snapshot");
    let text = db.explain_analyze(sql).unwrap();
    let join = text.lines().find(|l| l.contains("SPHJ")).unwrap();
    assert!(join.contains("index=memo carried=a"), "{text}");

    let id = db.engine().catalog().get("r").unwrap().relation.rows() as u32;
    let row = vec![Value::U32(id), Value::U32(3)];
    db.engine().insert("r", &[row]).unwrap();
    let after = run_sorted(&db, sql);
    assert_eq!(counts(), [2, 2], "one more of each after an INSERT");
    for _ in 0..5 {
        assert_eq!(run_sorted(&db, sql), after);
    }
    assert_eq!(counts(), [2, 2]);
}

/// EXPLAIN ANALYZE names an SPH-index AV as the join's index when one
/// answers: the AV comes before the build table's memo.
#[test]
fn explain_analyze_names_where_a_join_index_came_from() {
    use dqo::core::av::{AvKind, AvSignature};
    let db = Dqo::with_engine(Engine::new().with_threads(1).with_tracing(true));
    let keys = DatasetSpec::new(50_000, 256).seed(3).relation().unwrap();
    db.register_table("t", keys);
    let dim = |n: u32| Column::U32((0..n).map(|i| i * 3 % 256).collect());
    let schema = Schema::new(vec![
        Field::new("k", DataType::U32),
        Field::new("w", DataType::U32),
    ])
    .unwrap();
    db.register_table(
        "d",
        dqo::Relation::new(schema, vec![dim(64), dim(64)]).unwrap(),
    );
    let sph = AvSignature::new("t", "key", AvKind::SphIndex);
    db.engine().av_builder().build_batch(&[sph]).unwrap();
    let sql = "SELECT w, COUNT(*) AS n FROM t JOIN d ON t.key = d.k WHERE w < 100 \
               GROUP BY w ORDER BY w";
    let text = db.explain_analyze(sql).unwrap();
    let join = text.lines().find(|l| l.contains("SPHJ on key = k"));
    assert!(join.is_some_and(|l| l.contains("index=av")), "{text}");
}
