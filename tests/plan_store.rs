//! The plan store's contract. A search's memo is scratch; the store is the
//! only optimiser state an engine keeps between statements, so it has to be
//!
//! * **bounded** — any number of never-repeating statements leaves at most
//!   `DEFAULT_CAPACITY` plans and a memo the size of one search;
//! * **scan-resistant** — a hot set interleaved with never-repeating
//!   statements is served from the store, and the scan evicts nothing;
//! * **exact** — the plan a statement executes is the plan a cold search
//!   over the engine's current catalog, AVs and feedback returns, whatever
//!   moved since the plan was stored;
//! * **concurrent** — threads sharing one engine get the serial answers
//!   and lose no count.
//!
//! The cold search is a fresh [`MemoOptimizer`] search, handed the
//! engine's own feedback store so the comparison still holds after a
//! correction is learned.

use dqo::core::av::{AvKind, AvSignature};
use dqo::core::executor::sorted_rows;
use dqo::core::memo::MemoOptimizer;
use dqo::core::optimizer::{PlannedQuery, PropertyModel, SearchContext};
use dqo::core::plan_cache::DEFAULT_CAPACITY;
use dqo::core::Engine;
use dqo::obs::{names, MetricsRegistry};
use dqo::plan::expr::{AggExpr, CmpOp, Predicate};
use dqo::plan::LogicalPlan;
use dqo::storage::{
    Column, DataType, Field, PartitionSpec, PartitionedRelation, Relation, Schema, Value,
};
use std::sync::Arc;

const DOMAIN: u32 = 64;

/// xorshift64 — deterministic, seedable, no external crates.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// t(key dense in 0..DOMAIN, v in 0..1000), every key present.
fn table(rows: usize, seed: u64) -> Relation {
    let mut state = seed | 1;
    let mut keys: Vec<u32> = (0..DOMAIN).collect();
    let mut vals: Vec<u32> = (0..DOMAIN).map(|k| k * 7).collect();
    while keys.len() < rows {
        keys.push(next(&mut state) as u32 % DOMAIN);
        vals.push(next(&mut state) as u32 % 1_000);
    }
    Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("v", DataType::U32),
        ])
        .unwrap(),
        vec![Column::U32(keys), Column::U32(vals)],
    )
    .unwrap()
}

fn engine(rows: usize) -> (Engine, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::new()
        .with_tracing(false)
        .with_metrics_registry(Arc::clone(&registry));
    engine.register_table("t", table(rows, 42));
    (engine, registry)
}

/// `SELECT key, COUNT(*) FROM t WHERE key < k AND v < bound GROUP BY key`:
/// `bound` is the literal that makes a statement novel.
fn counted(k: u32, bound: u32) -> Arc<LogicalPlan> {
    LogicalPlan::group_by(
        LogicalPlan::filter(
            LogicalPlan::scan("t"),
            Predicate::And(vec![
                Predicate::cmp("key", CmpOp::Lt, k),
                Predicate::cmp("v", CmpOp::Lt, bound),
            ]),
        ),
        "key",
        vec![AggExpr::count_star("n")],
    )
}

/// A statement no other call with a different `id` produces.
fn novel(id: u32) -> Arc<LogicalPlan> {
    counted(1 + id % DOMAIN, 1_000_000 + id)
}

/// One of 16 statements that keep coming back.
fn hot(i: usize) -> Arc<LogicalPlan> {
    counted(4 * (i as u32 % 16) + 4, 500)
}

/// `SELECT key, v FROM t WHERE key >= lo`, the prepared shape.
fn ranged(lo: u32) -> Arc<LogicalPlan> {
    LogicalPlan::project(
        LogicalPlan::filter(LogicalPlan::scan("t"), Predicate::cmp("key", CmpOp::Ge, lo)),
        vec!["key".into(), "v".into()],
    )
}

fn rules_fired(engine: &Engine) -> u64 {
    engine.memo_stats().0.rules_fired
}

/// What a search that shares nothing with the engine's store returns now.
fn cold_search(engine: &Engine, q: &LogicalPlan) -> (PlannedQuery, usize) {
    let ctx = SearchContext {
        avs: Some(engine.avs()),
        pmodel: PropertyModel::default(),
        dop: engine.threads(),
        feedback: Some(engine.feedback()),
        ..SearchContext::new(engine.mode())
    };
    let mut search = MemoOptimizer::new(engine.catalog(), &ctx);
    let planned = search.optimize(q).expect("plans");
    (planned, search.memo().group_count())
}

#[test]
fn bounded_under_statements_that_never_repeat() {
    let (engine, registry) = engine(256);
    let mut rows = 0usize;
    for id in 0..50_000u32 {
        rows += engine.query(&novel(id)).unwrap().output.relation.rows();
        if id % 10_000 == 0 {
            assert!(engine.plan_cache().len() <= DEFAULT_CAPACITY);
        }
    }
    assert!(rows > 0);
    // Nothing repeated, so nothing was admitted — let alone kept.
    assert_eq!(engine.plan_cache().len(), 0);
    let snap = registry.snapshot();
    assert_eq!(snap.counter(names::PLAN_CACHE_HITS).unwrap_or(0), 0);
    assert_eq!(snap.counter(names::PLAN_CACHE_EVICTIONS).unwrap_or(0), 0);
    // The memo the engine reports is the last search's, not history's.
    let (_, groups) = cold_search(&engine, &novel(49_999));
    assert!(groups < 10, "a three-operator plan has a handful of groups");
    assert_eq!(engine.memo_stats().1, groups);
    assert_eq!(snap.gauge(names::OPT_GROUPS), Some(groups as u64));
}

#[test]
fn hot_set_survives_a_scan_and_prepared_entries_are_never_evicted() {
    let (engine, registry) = engine(256);
    // Four prepared statements (one shape at four DOPs would be one key
    // each; here four shapes), admitted on their first execution.
    let prepared: Vec<_> = (0..4u64)
        .map(|n| {
            let template = LogicalPlan::limit(ranged(0), 10 + n);
            (engine.prepare(&template), n)
        })
        .collect();
    let run_prepared = |lo: u32| {
        for (stmt, n) in &prepared {
            let bound = LogicalPlan::limit(ranged(lo), 10 + n);
            engine.execute_prepared(stmt, &bound).unwrap();
        }
    };
    run_prepared(1);
    let after_prepare = rules_fired(&engine);
    run_prepared(2);
    assert_eq!(rules_fired(&engine), after_prepare, "prepared repeats hit");

    // 1 hot : 3 novel. The ghost array is direct-mapped, so a first
    // sighting that lands on a hot statement's slot between two of its
    // sightings costs that statement one more search; admission is never
    // earlier than the second sighting and, for the typical statement,
    // exactly there.
    const ROUNDS: usize = 16 * 12;
    let mut sightings = [0usize; 16];
    let mut served_from = [0usize; 16];
    let mut id = 0u32;
    for round in 0..ROUNDS {
        let i = round % 16;
        sightings[i] += 1;
        let before = rules_fired(&engine);
        engine.query(&hot(i)).unwrap();
        let searched = rules_fired(&engine) > before;
        if searched {
            assert_eq!(served_from[i], 0, "hot statement {i} fell out of the store");
        } else if served_from[i] == 0 {
            served_from[i] = sightings[i];
        }
        for _ in 0..3 {
            let before = rules_fired(&engine);
            engine.query(&novel(id)).unwrap();
            assert!(rules_fired(&engine) > before, "a novel statement searches");
            id += 1;
        }
    }
    assert!(
        served_from.iter().all(|&at| at >= 3),
        "admission needs a second sighting: {served_from:?}"
    );
    let mut sorted = served_from;
    sorted.sort_unstable();
    assert_eq!(sorted[8], 3, "typically served from the third sighting on");
    assert!(
        sorted[15] <= 7,
        "every hot statement gets in: {served_from:?}"
    );

    // The scan displaced nothing: the store holds the hot set and the
    // prepared statements, which still hit.
    assert_eq!(engine.plan_cache().len(), 16 + prepared.len());
    let before = rules_fired(&engine);
    run_prepared(3);
    assert_eq!(rules_fired(&engine), before, "prepared entries survived");
    let snap = registry.snapshot();
    assert_eq!(snap.counter(names::PLAN_CACHE_EVICTIONS).unwrap_or(0), 0);
}

/// The statement shapes of the exactness fuzz, over `t` and (where the
/// layout has one) its materialised AVs.
fn fuzzed(state: &mut u64) -> Arc<LogicalPlan> {
    let k = 1 + next(state) as u32 % DOMAIN;
    let bound = next(state) as u32 % 1_200;
    match next(state) % 5 {
        0 => counted(k, bound),
        1 => ranged(k - 1),
        2 => LogicalPlan::limit(LogicalPlan::sort(ranged(k - 1), "key"), 5),
        3 => LogicalPlan::group_by(
            LogicalPlan::filter(
                LogicalPlan::scan("t"),
                Predicate::cmp("key", CmpOp::Eq, k - 1),
            ),
            "key",
            vec![AggExpr::count_star("n")],
        ),
        // No literal at all: the AV-backed grouping, repeated often.
        _ => LogicalPlan::group_by(
            LogicalPlan::scan("t"),
            "key",
            vec![AggExpr::count_star("n")],
        ),
    }
}

fn assert_same_plan(got: &PlannedQuery, want: &PlannedQuery, ctx: &str) {
    assert_eq!(got.plan.explain(), want.plan.explain(), "{ctx}");
    assert_eq!(got.est_cost.to_bits(), want.est_cost.to_bits(), "{ctx}");
}

/// Every statement, three times over (search, search + admit, served):
/// the executed plan is the cold plan each time.
fn assert_exact(engine: &Engine, statements: &[Arc<LogicalPlan>], ctx: &str) {
    for pass in 0..3 {
        for (i, q) in statements.iter().enumerate() {
            // Cold first: with tracing on, executing may itself learn a
            // correction, which a search made afterwards would see.
            let (want, _) = cold_search(engine, q);
            let got = engine.query(q).unwrap();
            assert_same_plan(
                &got.planned,
                &want,
                &format!("{ctx}: statement {i} pass {pass}"),
            );
        }
    }
}

const AV_KINDS: [AvKind; 3] = [
    AvKind::SortedProjection,
    AvKind::SphIndex,
    AvKind::MaterialisedGrouping,
];

#[test]
fn served_plans_equal_cold_plans_across_every_clock() {
    for layout in ["flat", "partitioned", "av-backed"] {
        let engine = Engine::new().with_tracing(true);
        let register = |seed: u64| {
            let rel = table(4_000, seed);
            if layout == "partitioned" {
                let spec = PartitionSpec::range("key", vec![16, 32, 48]);
                engine
                    .register_table_partitioned("t", PartitionedRelation::new(rel, spec).unwrap());
            } else {
                engine.register_table("t", rel);
            }
        };
        let materialise = || {
            let sigs: Vec<AvSignature> = AV_KINDS
                .iter()
                .map(|&kind| AvSignature::new("t", "key", kind))
                .collect();
            engine.av_builder().build_batch(&sigs).expect("AV build");
        };
        register(7);
        if layout == "av-backed" {
            materialise();
        }
        let mut state = 0x9e37_79b9_7f4a_7c15 ^ layout.len() as u64;
        let statements: Vec<_> = (0..24).map(|_| fuzzed(&mut state)).collect();
        let hits = || engine.metrics().counter(names::PLAN_CACHE_HITS);

        assert_exact(&engine, &statements, &format!("{layout}: fresh"));
        assert!(
            engine.plan_cache().len() >= 12,
            "{layout}: repeats are stored"
        );

        // An INSERT moves the statistics clock (and maintains the AVs).
        let rows: Vec<Vec<Value>> = (0..40u32)
            .map(|i| vec![Value::U32(i % 8), Value::U32(i)])
            .collect();
        engine.insert("t", &rows).unwrap();
        assert_exact(&engine, &statements, &format!("{layout}: after INSERT"));

        // A learned correction moves the feedback epoch and changes what
        // a cold search costs; the store must follow.
        let version = engine.catalog().table_stats_version("t").unwrap();
        let probe = counted(DOMAIN, 600);
        let before = cold_search(&engine, &probe).0.est_cost;
        assert!(engine
            .feedback()
            .record("t", "key < ? AND v < ?", 0.05, version));
        if layout == "flat" {
            let after = cold_search(&engine, &probe).0.est_cost;
            assert_ne!(before.to_bits(), after.to_bits(), "correction is live");
        }
        assert_exact(&engine, &statements, &format!("{layout}: after feedback"));

        // AV materialisation, then invalidation by re-registration.
        materialise();
        assert_exact(&engine, &statements, &format!("{layout}: AVs built"));
        register(8);
        assert!(engine.avs().signatures().is_empty());
        assert_exact(&engine, &statements, &format!("{layout}: AVs dropped"));

        assert!(hits() > Some(0), "{layout}: the store did serve");
    }
}

#[test]
fn four_threads_get_the_serial_answers_and_no_count_is_lost() {
    const THREADS: usize = 4;
    const OPS: usize = 2_000;
    // Both engines see the same statements; `shared` from four threads.
    let (serial, _) = engine(256);
    let (shared, _) = engine(256);
    let template = ranged(0);
    type Answer = Vec<Vec<Value>>;
    let run = |engine: &Engine, stmt: &dqo::core::PreparedPlan, t: usize, j: usize| -> Answer {
        let result = match j % 4 {
            0 => engine.query(&hot(j / 4 + t)),
            1 => engine.execute_prepared(stmt, &ranged((j + t) as u32 % DOMAIN)),
            _ => engine.query(&novel((t * OPS + j) as u32)),
        };
        sorted_rows(&result.expect("runs").output.relation)
    };
    // Warm both: the hot set twice (admitted), the prepared shape once.
    let warm = |engine: &Engine| {
        let stmt = engine.prepare(&template);
        for _ in 0..2 {
            for i in 0..16 {
                engine.query(&hot(i)).unwrap();
            }
        }
        engine.execute_prepared(&stmt, &ranged(1)).unwrap();
        stmt
    };
    let serial_stmt = warm(&serial);
    let shared_stmt = warm(&shared);
    let (serial_warm, shared_warm) = (rules_fired(&serial), rules_fired(&shared));
    assert_eq!(serial_warm, shared_warm);

    // The reference: one thread, and the per-search counts summed as the
    // searches happen. Only novel statements may search.
    let mut expected: Vec<Vec<Answer>> = Vec::new();
    let mut per_search_sum = 0u64;
    for t in 0..THREADS {
        let mut answers = Vec::with_capacity(OPS);
        for j in 0..OPS {
            let before = rules_fired(&serial);
            answers.push(run(&serial, &serial_stmt, t, j));
            let fired = rules_fired(&serial) - before;
            if j % 4 < 2 {
                assert_eq!(fired, 0, "hot and prepared statements are served");
            } else {
                assert!(fired > 0, "novel statements search");
                per_search_sum += fired;
            }
        }
        expected.push(answers);
    }

    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (shared, stmt, barrier) = (&shared, &shared_stmt, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    (0..OPS)
                        .map(|j| run(shared, stmt, t, j))
                        .collect::<Vec<Answer>>()
                })
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let answers = handle.join().expect("worker thread");
            for (j, (got, want)) in answers.iter().zip(&expected[t]).enumerate() {
                assert_eq!(got, want, "thread {t} op {j}");
            }
        }
    });
    assert_eq!(
        rules_fired(&shared) - shared_warm,
        per_search_sum,
        "cumulative rules_fired is the sum of the per-search counts"
    );
    assert_eq!(shared.plan_cache().len(), 16 + 1);
}
