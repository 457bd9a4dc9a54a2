//! Randomised differential query harness over the widened SQL surface:
//! random schemas (u32 + dictionary-encoded `Str` columns), random tables,
//! and random queries mixing string predicates (`=`, `<`, `>`, prefix
//! `LIKE`) with single- and multi-column `GROUP BY`. Every query must
//! agree, bit-identically in sorted canonical form, across
//!
//! * the naive reference evaluator (`naive_eval`),
//! * the planned engine at DOP 1, 2 and 8,
//! * explicitly `Exchange`-wrapped physical plans at DOP 2 and 8 (so the
//!   parallel kernels run even below the optimiser's break-even), and
//! * an AV-backed engine (AVSP-selected views materialised first).
//!
//! Seeds are pinned: the proptest shim derives a deterministic per-test
//! RNG from the test name, so any failure reproduces exactly across runs
//! and machines (failing cases are printed as generated). The case count
//! is bounded and overridable via `QUERY_FUZZ_CASES` for the CI matrix.

use dqo::core::av::{AvKind, AvSignature};
use dqo::core::avsp::{Solver, WorkloadQuery};
use dqo::core::executor::{execute, naive_eval, sorted_rows};
use dqo::core::memo::Memo;
use dqo::core::optimizer::{enumerate_candidates, optimize_in, OptimizerMode, SearchContext};
use dqo::core::profile::estimate_rows;
use dqo::core::{prune_partitions, Catalog};
use dqo::plan::expr::{AggExpr, CmpOp, Predicate};
use dqo::plan::{LogicalPlan, PhysicalPlan};
use dqo::storage::{
    Column, DataType, Dictionary, Field, PartitionSpec, PartitionedRelation, Relation, Schema,
    Value,
};
use dqo::{Dqo, Engine};
use proptest::prelude::*;
use std::sync::Arc;

/// A compact word pool with heavy prefix sharing — the interesting shape
/// for dictionary predicates and prefix LIKE.
const WORDS: &[&str] = &[
    "alpha", "alps", "beta", "bravo", "brim", "charlie", "chart", "delta", "deep", "echo",
];

const PREFIXES: &[&str] = &["a", "al", "b", "br", "ch", "de", "e", "zzz", ""];

/// General LIKE shapes beyond the prefix fast path: contains, anchored
/// both ends, `_` single-char wildcards, and patterns that force the
/// matcher to backtrack over the shared-prefix word pool.
const LIKE_PATTERNS: &[&str] = &[
    "%a%", "a%a", "b_a%", "%t_", "_e%", "%lp%", "%o", "c_a%", "%e_%", "____",
];

fn fuzz_cases() -> u32 {
    std::env::var("QUERY_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
}

/// Build a table t(k, v, s): `k` a small-domain u32 key, `v` a u32
/// payload, `s` a dictionary-encoded string. Both dictionary encodings
/// are exercised (first-occurrence and order-preserving).
fn build_table(raw: &[(u32, u32, u8)], k_groups: u32, sorted_dict: bool) -> Relation {
    let k: Vec<u32> = raw.iter().map(|(a, _, _)| a % k_groups).collect();
    let v: Vec<u32> = raw.iter().map(|(_, b, _)| b % 1_000).collect();
    let strings: Vec<&str> = raw
        .iter()
        .map(|(_, _, c)| WORDS[*c as usize % WORDS.len()])
        .collect();
    let (dict, codes) = if sorted_dict {
        Dictionary::encode_all_sorted(&strings)
    } else {
        Dictionary::encode_all(&strings)
    };
    Relation::new(
        Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("v", DataType::U32),
            Field::new("s", DataType::Str),
        ])
        .unwrap(),
        vec![Column::U32(k), Column::U32(v), Column::Str(codes)],
    )
    .unwrap()
    .with_dictionary("s", Arc::new(dict))
    .unwrap()
}

/// Assemble a random query over t(k, v, s) from the generator's raw
/// draws. Aggregate aliases deliberately avoid the canonical
/// "count"/"sum" names so materialised-grouping AVs (whose artifacts
/// carry an extra column) never match — the AV leg then exercises the
/// schema-preserving kinds (sorted projections, SPH indexes).
fn build_query(shape: u8, preds: &[(u8, u8)], aggs_pick: u8, order: bool) -> String {
    let (keys, group): (&str, &str) = match shape % 7 {
        0 => ("k", "k"),
        1 => ("s", "s"),
        2 => ("s, k", "s, k"),
        3 => ("k, s", "k, s"),
        4 => ("k, s", ""),
        // SELECT a subset / reordering of the grouping keys: the binder
        // must project the grouped output down to the selected columns.
        5 => ("k", "s, k"),
        _ => ("s, k", "k, s"),
    };
    let mut sql = String::from("SELECT ");
    sql.push_str(keys);
    if !group.is_empty() {
        let agg_list: &str = match aggs_pick % 4 {
            0 => ", COUNT(*) AS n",
            1 => ", COUNT(*) AS n, SUM(v) AS t",
            2 => ", MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n",
            _ => ", AVG(v) AS m, COUNT(*) AS n",
        };
        sql.push_str(agg_list);
    }
    sql.push_str(" FROM t");
    sql.push_str(&where_clause(preds));
    if !group.is_empty() {
        sql.push_str(" GROUP BY ");
        sql.push_str(group);
        if order {
            sql.push_str(" ORDER BY ");
            sql.push_str(group.split(',').next().unwrap().trim());
        }
    }
    sql
}

/// ` WHERE …` over t(k, v, s) from the generator's raw predicate draws
/// (empty for none).
fn where_clause(preds: &[(u8, u8)]) -> String {
    let conjuncts: Vec<String> = preds
        .iter()
        .map(|&(kind, param)| {
            let word = WORDS[param as usize % WORDS.len()];
            match kind % 6 {
                0 => format!("k < {}", param % 40),
                1 => format!("s = '{word}'"),
                2 => format!("s < '{word}'"),
                3 => format!("s > '{word}'"),
                4 => format!("s LIKE '{}%'", PREFIXES[param as usize % PREFIXES.len()]),
                _ => format!(
                    "s LIKE '{}'",
                    LIKE_PATTERNS[param as usize % LIKE_PATTERNS.len()]
                ),
            }
        })
        .collect();
    if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    }
}

/// Recursively wrap every parallelisable operator in `Exchange{dop}` —
/// forcing the parallel twins to run regardless of the cost model's
/// break-even, which is what a differential harness wants on small
/// random tables.
fn parallelise(plan: &PhysicalPlan, dop: usize) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Scan { .. } | PhysicalPlan::PartitionedScan { .. } => plan.clone(),
        PhysicalPlan::Filter { input, predicate } => PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(parallelise(input, dop)),
                predicate: predicate.clone(),
            }),
            dop,
        },
        PhysicalPlan::Sort {
            input,
            key,
            molecule,
        } => PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(parallelise(input, dop)),
                key: key.clone(),
                molecule: *molecule,
            }),
            dop,
        },
        PhysicalPlan::GroupBy {
            input,
            keys,
            aggs,
            algo,
            molecules,
        } => PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::GroupBy {
                input: Box::new(parallelise(input, dop)),
                keys: keys.clone(),
                aggs: aggs.clone(),
                algo: *algo,
                molecules: *molecules,
            }),
            dop,
        },
        PhysicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            algo,
        } => PhysicalPlan::Exchange {
            input: Box::new(PhysicalPlan::Join {
                left: Box::new(parallelise(left, dop)),
                right: Box::new(parallelise(right, dop)),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
                algo: *algo,
            }),
            dop,
        },
        PhysicalPlan::Project { input, columns } => PhysicalPlan::Project {
            input: Box::new(parallelise(input, dop)),
            columns: columns.clone(),
        },
        PhysicalPlan::Limit { input, n } => PhysicalPlan::Limit {
            input: Box::new(parallelise(input, dop)),
            n: *n,
        },
        PhysicalPlan::Exchange { input, .. } => parallelise(input, dop),
    }
}

fn check_differential(rel: Relation, sql: &str) -> std::result::Result<(), String> {
    // Reference: the naive evaluator over the bound logical plan.
    let reference_db = Dqo::with_engine(Engine::new().with_threads(1));
    reference_db.register_table("t", rel.clone());
    let logical = reference_db
        .compile(sql)
        .map_err(|e| format!("compile {sql}: {e}"))?;
    let naive = naive_eval(&logical, reference_db.engine().catalog())
        .map_err(|e| format!("naive {sql}: {e}"))?;
    let expect = sorted_rows(&naive);

    // Planned engine at DOP 1 / 2 / 8.
    for threads in [1usize, 2, 8] {
        let db = Dqo::with_engine(Engine::new().with_threads(threads));
        db.register_table("t", rel.clone());
        let out = db
            .sql(sql)
            .map_err(|e| format!("threads={threads} {sql}: {e}"))?;
        if sorted_rows(&out.output.relation) != expect {
            return Err(format!(
                "threads={threads} diverges from naive for {sql}\nplan:\n{}",
                out.planned.plan.explain()
            ));
        }
    }

    // Forced-parallel physical plans at DOP 2 / 8 (below break-even the
    // optimiser would stay serial; wrap its serial plan explicitly).
    let planned = reference_db
        .engine()
        .plan(&logical)
        .map_err(|e| format!("plan {sql}: {e}"))?;
    for dop in [2usize, 8] {
        let wrapped = parallelise(&planned.plan, dop);
        let out = execute(&wrapped, reference_db.engine().catalog())
            .map_err(|e| format!("forced dop={dop} {sql}: {e}"))?;
        if sorted_rows(&out.relation) != expect {
            return Err(format!(
                "forced Exchange dop={dop} diverges for {sql}\nplan:\n{}",
                wrapped.explain()
            ));
        }
    }

    // AV-backed: select + materialise views for this very query, then
    // re-run. Plans may now scan sorted projections / probe SPH indexes.
    let av_db = Dqo::with_engine(Engine::new().with_threads(2));
    av_db.register_table("t", rel);
    av_db
        .engine()
        .select_and_materialise_avs(
            &[WorkloadQuery::new(Arc::clone(&logical), 10.0)],
            usize::MAX,
            Solver::Greedy,
        )
        .map_err(|e| format!("avsp {sql}: {e}"))?;
    let out = av_db
        .sql(sql)
        .map_err(|e| format!("av-backed {sql}: {e}"))?;
    if sorted_rows(&out.output.relation) != expect {
        return Err(format!(
            "AV-backed plan diverges for {sql}\nplan:\n{}",
            out.planned.plan.explain()
        ));
    }
    Ok(())
}

/// One interleaved op: `(is_insert, rows, shape, preds, aggs_pick, order)`.
/// Inserts splice the raw draws through the same `(k, v, s)` mapping as
/// [`build_table`]; queries go through [`build_query`].
type RwOp = (bool, Vec<(u32, u32, u8)>, u8, Vec<(u8, u8)>, u8, bool);

/// Send one multi-row parameterised INSERT (u32 and Str `?` params) to
/// `db`, blocking on any background AV rebuild it triggered.
fn apply_insert(
    db: &Dqo,
    rows: &[(u32, u32, u8)],
    k_groups: u32,
) -> std::result::Result<(), String> {
    let mut sql = String::from("INSERT INTO t VALUES ");
    let mut params = Vec::with_capacity(rows.len() * 3);
    for (i, (a, b, c)) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str("(?, ?, ?)");
        params.push(Value::U32(a % k_groups));
        params.push(Value::U32(b % 1_000));
        params.push(Value::Str(WORDS[*c as usize % WORDS.len()].to_string()));
    }
    let mut report = db
        .insert(&sql, &params)
        .map_err(|e| format!("{sql}: {e}"))?;
    report
        .wait_for_rebuilds()
        .map_err(|e| format!("rebuild after {sql}: {e}"))?;
    Ok(())
}

/// The mixed read/write differential: one identical insert/query op
/// sequence applied to the naive reference (DOP 1), the planned engine
/// at DOP 2 and 8, and an AV-backed engine whose views were
/// materialised *before* the writes — so every insert exercises the
/// delta maintenance of all three AV kinds mid-workload. Every query in
/// the interleaving must agree with the naive evaluator over the
/// reference engine's live catalog.
fn check_mixed_rw(
    raw: &[(u32, u32, u8)],
    k_groups: u32,
    sorted_dict: bool,
    ops: &[RwOp],
) -> std::result::Result<(), String> {
    let rel = build_table(raw, k_groups, sorted_dict);
    let reference_db = Dqo::with_engine(Engine::new().with_threads(1));
    reference_db.register_table("t", rel.clone());
    let parallel_dbs: Vec<(usize, Dqo)> = [2usize, 8]
        .into_iter()
        .map(|threads| {
            let db = Dqo::with_engine(Engine::new().with_threads(threads));
            db.register_table("t", rel.clone());
            (threads, db)
        })
        .collect();

    // AV-backed engine: all three kinds on `k`, built before any write.
    let av_db = Dqo::with_engine(Engine::new().with_threads(2));
    av_db.register_table("t", rel);
    let builder = av_db.engine().av_builder();
    for kind in [
        AvKind::SortedProjection,
        AvKind::SphIndex,
        AvKind::MaterialisedGrouping,
    ] {
        builder
            .build(&AvSignature::new("t", "k", kind))
            .map_err(|e| format!("AV build {kind}: {e}"))?;
    }

    for (op_idx, (is_insert, rows, shape, preds, aggs_pick, order)) in ops.iter().enumerate() {
        if *is_insert {
            apply_insert(&reference_db, rows, k_groups)?;
            for (_, db) in &parallel_dbs {
                apply_insert(db, rows, k_groups)?;
            }
            apply_insert(&av_db, rows, k_groups)?;
            continue;
        }
        let sql = build_query(*shape, preds, *aggs_pick, *order);
        let logical = reference_db
            .compile(&sql)
            .map_err(|e| format!("op {op_idx} compile {sql}: {e}"))?;
        let naive = naive_eval(&logical, reference_db.engine().catalog())
            .map_err(|e| format!("op {op_idx} naive {sql}: {e}"))?;
        let expect = sorted_rows(&naive);
        for (threads, db) in &parallel_dbs {
            let out = db
                .sql(&sql)
                .map_err(|e| format!("op {op_idx} threads={threads} {sql}: {e}"))?;
            if sorted_rows(&out.output.relation) != expect {
                return Err(format!(
                    "op {op_idx} threads={threads} diverges after writes for {sql}\nplan:\n{}",
                    out.planned.plan.explain()
                ));
            }
        }
        let out = av_db
            .sql(&sql)
            .map_err(|e| format!("op {op_idx} av-backed {sql}: {e}"))?;
        if sorted_rows(&out.output.relation) != expect {
            return Err(format!(
                "op {op_idx} AV-backed diverges after writes for {sql}\nplan:\n{}",
                out.planned.plan.explain()
            ));
        }
    }
    Ok(())
}

/// A random partitioning of t: range or hash, 1–16 parts, on the key or
/// the payload column.
fn partition_spec(k_groups: u32, scheme_pick: u8, parts_pick: u8, on_v: bool) -> PartitionSpec {
    let parts = [1usize, 2, 3, 5, 16][parts_pick as usize % 5];
    let (column, domain) = if on_v {
        ("v", 1_000u32)
    } else {
        ("k", k_groups)
    };
    if scheme_pick.is_multiple_of(2) {
        let mut bounds: Vec<u32> = (1..parts)
            .map(|i| (u64::from(domain) * i as u64 / parts as u64) as u32)
            .collect();
        bounds.dedup();
        PartitionSpec::range(column, bounds)
    } else {
        PartitionSpec::hash(column, parts)
    }
}

/// The partitioned arm: re-lay the same random table under a random
/// partitioning (range or hash, 1–16 parts, on the key or the payload
/// column) and require
///
/// * **naive agreement** — the partitioned engine matches the naive
///   evaluator over its own flat layout at DOP 1/2/8, and
/// * **pruning soundness** — an identically partitioned engine with
///   pruning disabled returns the same result: a partition may be
///   pruned only if scanning it anyway changes nothing. Queries without
///   a GROUP BY are compared byte-for-byte (scan/filter pipelines emit
///   flat row order); grouped queries in sorted canonical form.
fn check_partitioned(
    raw: &[(u32, u32, u8)],
    k_groups: u32,
    sorted_dict: bool,
    scheme_pick: u8,
    parts_pick: u8,
    on_v: bool,
    sql: &str,
) -> std::result::Result<(), String> {
    let rel = build_table(raw, k_groups, sorted_dict);
    let spec = partition_spec(k_groups, scheme_pick, parts_pick, on_v);
    let pr = PartitionedRelation::new(rel, spec.clone())
        .map_err(|e| format!("partition {spec:?}: {e}"))?;

    let flat_db = Dqo::with_engine(Engine::new().with_threads(1));
    flat_db.register_table("t", pr.flat().clone());
    let logical = flat_db
        .compile(sql)
        .map_err(|e| format!("compile {sql}: {e}"))?;
    let naive = naive_eval(&logical, flat_db.engine().catalog())
        .map_err(|e| format!("naive {sql}: {e}"))?;
    let expect = sorted_rows(&naive);

    let grouped = sql.contains("GROUP BY");
    for threads in [1usize, 2, 8] {
        let on = Dqo::with_engine(Engine::new().with_threads(threads));
        on.register_table_partitioned("t", pr.clone());
        let out_on = on
            .sql(sql)
            .map_err(|e| format!("threads={threads} {spec:?} {sql}: {e}"))?;
        if sorted_rows(&out_on.output.relation) != expect {
            return Err(format!(
                "partitioned threads={threads} {spec:?} diverges from naive for {sql}\nplan:\n{}",
                out_on.planned.plan.explain()
            ));
        }

        let off = Dqo::with_engine(Engine::new().with_threads(threads).with_pruning(false));
        off.register_table_partitioned("t", pr.clone());
        let out_off = off
            .sql(sql)
            .map_err(|e| format!("pruning-off threads={threads} {spec:?} {sql}: {e}"))?;
        let (a, b) = (&out_on.output.relation, &out_off.output.relation);
        let sound = if grouped {
            sorted_rows(a) == sorted_rows(b)
        } else {
            a.rows() == b.rows()
                && (0..a.schema().width()).all(|c| {
                    format!("{:?}", a.column_at(c).unwrap())
                        == format!("{:?}", b.column_at(c).unwrap())
                })
        };
        if !sound {
            return Err(format!(
                "pruning unsound at threads={threads} {spec:?} for {sql}\npruned plan:\n{}\nfull plan:\n{}",
                out_on.planned.plan.explain(),
                out_off.planned.plan.explain()
            ));
        }
    }
    Ok(())
}

/// The rows `EXPLAIN ANALYZE` shows for `s`'s chosen plan under `ctx`.
fn shown_rows(s: &LogicalPlan, catalog: &Catalog, ctx: &SearchContext) -> Result<u64, String> {
    let planned =
        optimize_in(&mut Memo::new(), s, catalog, ctx).map_err(|e| format!("optimise {s}: {e}"))?;
    Ok(estimate_rows(&planned.plan, catalog, ctx.feedback)[0])
}

/// The one-estimate invariant: for every subtree of `logical` rooted at
/// a Filter, Join, GroupBy or Limit, every candidate the memo keeps is
/// costed with the rows `EXPLAIN ANALYZE` shows for the chosen plan, and
/// would show them if chosen itself — in both optimiser modes, with
/// `ctx`'s AVs and feedback.
fn check_one_estimate(
    logical: &LogicalPlan,
    catalog: &Catalog,
    ctx: &SearchContext,
) -> Result<(), String> {
    let mut stack = vec![logical];
    while let Some(s) = stack.pop() {
        stack.extend(s.children().into_iter().map(|c| c.as_ref()));
        if !matches!(
            s,
            LogicalPlan::Filter { .. }
                | LogicalPlan::Join { .. }
                | LogicalPlan::GroupBy { .. }
                | LogicalPlan::Limit { .. }
        ) {
            continue;
        }
        for mode in [OptimizerMode::Deep, OptimizerMode::Shallow] {
            let ctx = SearchContext { mode, ..*ctx };
            let shown = shown_rows(s, catalog, &ctx)?;
            let cands = enumerate_candidates(s, catalog, &ctx)
                .map_err(|e| format!("enumerate {s}: {e}"))?;
            for c in cands {
                let own = estimate_rows(&c.plan, catalog, ctx.feedback)[0];
                if c.props.rows != shown || own != shown {
                    return Err(format!(
                        "{mode} costs {s} at {} rows, shows {shown} for the chosen plan \
                         and {own} for the candidate:\n{}",
                        c.props.rows,
                        c.plan.explain()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The one-estimate arm's statement over t (flat, or under a random
/// partitioning) and u(uk, w): a [`build_query`] statement, or a grouped
/// join of t with u, optionally capped by a LIMIT. With a `learned`
/// factor, sorted projections of t on `k` and `v` are built first and
/// every filter over t carries that correction, stamped as the recorder
/// stamps it.
fn check_estimates(
    raw: &[(u32, u32, u8)],
    k_groups: u32,
    sorted_dict: bool,
    layout: (u8, u8, u8),
    learned: Option<f64>,
    sql: &str,
) -> Result<(), String> {
    let rel = build_table(raw, k_groups, sorted_dict);
    let db = Dqo::with_engine(Engine::new().with_threads(1));
    let (flat_pick, scheme_pick, parts_pick) = layout;
    if flat_pick.is_multiple_of(3) {
        db.register_table("t", rel);
    } else {
        let spec = partition_spec(k_groups, scheme_pick, parts_pick, flat_pick % 3 == 2);
        let pr = PartitionedRelation::new(rel, spec.clone())
            .map_err(|e| format!("partition {spec:?}: {e}"))?;
        db.register_table_partitioned("t", pr);
    }
    let uk: Vec<u32> = (0..2 * k_groups).collect();
    let w: Vec<u32> = uk.iter().map(|k| k % 3).collect();
    db.register_table(
        "u",
        Relation::new(
            Schema::new(vec![
                Field::new("uk", DataType::U32),
                Field::new("w", DataType::U32),
            ])
            .unwrap(),
            vec![Column::U32(uk), Column::U32(w)],
        )
        .unwrap(),
    );
    let engine = db.engine();
    let catalog = engine.catalog();
    let logical = db.compile(sql).map_err(|e| format!("compile {sql}: {e}"))?;
    if let Some(factor) = learned {
        for column in ["k", "v"] {
            engine
                .av_builder()
                .build(&AvSignature::new("t", column, AvKind::SortedProjection))
                .map_err(|e| format!("AV build on {column}: {e}"))?;
        }
        let mut stack = vec![logical.as_ref()];
        while let Some(node) = stack.pop() {
            stack.extend(node.children().into_iter().map(|c| c.as_ref()));
            if let LogicalPlan::Filter { input, predicate } = node {
                if let LogicalPlan::Scan { table } = input.as_ref() {
                    let survivors = catalog
                        .partitioning_of(table)
                        .map(|p| prune_partitions(p.spec(), predicate));
                    let version = catalog.stats_version_for(table, survivors.as_deref());
                    engine
                        .feedback()
                        .record(table, &predicate.shape(), factor, version.unwrap());
                }
            }
        }
    }
    let ctx = SearchContext {
        avs: Some(engine.avs()),
        feedback: Some(engine.feedback()),
        ..SearchContext::new(OptimizerMode::Deep)
    };
    check_one_estimate(&logical, catalog, &ctx).map_err(|e| format!("{sql}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn random_statements_are_costed_at_the_rows_explain_shows(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..400),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        layout in (any::<u8>(), any::<u8>(), any::<u8>()),
        shape in any::<u8>(),
        preds in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        aggs_pick in any::<u8>(),
        order in any::<bool>(),
        join_pick in any::<u8>(),
        limit in any::<u8>(),
        learn_pick in any::<u8>(),
    ) {
        let learned = [None, Some(0.1), Some(0.5), Some(3.0), Some(20.0)][learn_pick as usize % 5];
        let mut sql = match join_pick % 4 {
            0 => format!("SELECT k, COUNT(*) AS n FROM t JOIN u ON k = uk{} GROUP BY k", where_clause(&preds)),
            1 => format!("SELECT w, COUNT(*) AS n FROM t JOIN u ON k = uk{} GROUP BY w", where_clause(&preds)),
            _ => build_query(shape, &preds, aggs_pick, order),
        };
        if limit % 2 == 1 {
            sql.push_str(&format!(" LIMIT {}", limit / 2));
        }
        check_estimates(&raw, k_groups, sorted_dict, layout, learned, &sql)?;
    }

    #[test]
    fn random_queries_agree_across_naive_parallel_and_av_plans(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..400),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        shape in any::<u8>(),
        preds in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        aggs_pick in any::<u8>(),
        order in any::<bool>(),
    ) {
        let rel = build_table(&raw, k_groups, sorted_dict);
        let sql = build_query(shape, &preds, aggs_pick, order);
        check_differential(rel, &sql)?;
    }

    #[test]
    fn random_partitionings_agree_with_naive_and_prune_soundly(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..400),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        scheme_pick in any::<u8>(),
        parts_pick in any::<u8>(),
        on_v in any::<bool>(),
        shape in any::<u8>(),
        preds in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        aggs_pick in any::<u8>(),
        order in any::<bool>(),
    ) {
        let sql = build_query(shape, &preds, aggs_pick, order);
        check_partitioned(&raw, k_groups, sorted_dict, scheme_pick, parts_pick, on_v, &sql)?;
    }

    #[test]
    fn random_insert_query_interleavings_agree(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 1..200),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        ops in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 1..12),
                any::<u8>(),
                proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
                any::<u8>(),
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        check_mixed_rw(&raw, k_groups, sorted_dict, &ops)?;
    }
}

/// The acceptance-criteria query, pinned: a multi-column GROUP BY with a
/// string predicate runs parser → optimiser → `Exchange{dop}` and returns
/// identical results across serial, DOP {1,2,8} and AV-backed plans.
#[test]
fn acceptance_multi_column_group_by_with_string_predicate() {
    let raw: Vec<(u32, u32, u8)> = (0..120_000u32)
        .map(|i| {
            (
                i.wrapping_mul(2654435761),
                i.wrapping_mul(40503),
                (i % 251) as u8,
            )
        })
        .collect();
    let rel = build_table(&raw, 16, false);
    let sql = "SELECT s, k, COUNT(*) AS n, SUM(v) AS t FROM t \
               WHERE s LIKE 'b%' AND k < 12 GROUP BY s, k";

    let serial_db = Dqo::with_engine(Engine::new().with_threads(1));
    serial_db.register_table("t", rel.clone());
    let logical = serial_db.compile(sql).unwrap();
    let naive = sorted_rows(&naive_eval(&logical, serial_db.engine().catalog()).unwrap());
    let serial = serial_db.sql(sql).unwrap();
    assert_eq!(sorted_rows(&serial.output.relation), naive);
    assert!(!serial.planned.plan.explain().contains("Exchange"));

    for threads in [2usize, 8] {
        let db = Dqo::with_engine(Engine::new().with_threads(threads));
        db.register_table("t", rel.clone());
        let out = db.sql(sql).unwrap();
        assert!(
            out.planned.plan.explain().contains("Exchange"),
            "120k rows at dop {threads} must parallelise:\n{}",
            out.planned.plan.explain()
        );
        assert_eq!(
            sorted_rows(&out.output.relation),
            naive,
            "threads={threads}"
        );
        // The grouped output decodes its string keys.
        let first = out.output.relation.value_at(0, "s").unwrap();
        assert!(
            matches!(first, Value::Str(ref s) if s.starts_with('b')),
            "{first:?}"
        );
    }

    let av_db = Dqo::with_engine(Engine::new().with_threads(2));
    av_db.register_table("t", rel);
    av_db
        .engine()
        .select_and_materialise_avs(
            &[WorkloadQuery::new(Arc::clone(&logical), 10.0)],
            usize::MAX,
            Solver::Greedy,
        )
        .unwrap();
    let out = av_db.sql(sql).unwrap();
    assert_eq!(sorted_rows(&out.output.relation), naive, "AV-backed");
}

/// Composite materialised-grouping AVs answer the canonical
/// `(keys…, count, sum-of-first-key)` query shape by scan.
#[test]
fn composite_grouping_av_answers_canonical_shape() {
    let raw: Vec<(u32, u32, u8)> = (0..50_000u32)
        .map(|i| (i.wrapping_mul(48271), i, (i % 97) as u8))
        .collect();
    // Two u32 keys so SUM over the first key is expressible in SQL.
    let k: Vec<u32> = raw.iter().map(|(a, _, _)| a % 8).collect();
    let v: Vec<u32> = raw.iter().map(|(_, b, _)| b % 5).collect();
    let rel = Relation::new(
        Schema::new(vec![
            Field::new("a", DataType::U32),
            Field::new("b", DataType::U32),
        ])
        .unwrap(),
        vec![Column::U32(k), Column::U32(v)],
    )
    .unwrap();
    let sql = "SELECT a, b, COUNT(*) AS count, SUM(a) AS sum FROM t GROUP BY a, b";

    let plain = Dqo::with_engine(Engine::new().with_threads(1));
    plain.register_table("t", rel.clone());
    let logical = plain.compile(sql).unwrap();
    let expect = sorted_rows(&plain.sql(sql).unwrap().output.relation);

    let av_db = Dqo::with_engine(Engine::new().with_threads(1));
    av_db.register_table("t", rel);
    av_db
        .engine()
        .select_and_materialise_avs(
            &[WorkloadQuery::new(logical, 100.0)],
            usize::MAX,
            Solver::Greedy,
        )
        .unwrap();
    // The composite AV is registered under the canonical a+b name…
    assert!(av_db
        .engine()
        .avs()
        .lookup("t", "a+b", dqo::core::av::AvKind::MaterialisedGrouping)
        .is_some());
    // …the planner answers the query by scanning it…
    let out = av_db.sql(sql).unwrap();
    assert!(
        out.planned
            .plan
            .explain()
            .contains("__av::materialised-grouping::t::a+b"),
        "plan must scan the composite AV:\n{}",
        out.planned.plan.explain()
    );
    // …and the answers are identical.
    assert_eq!(sorted_rows(&out.output.relation), expect);
}

/// t(key: 100 distinct, val: unique) over 100 000 rows, flat or range
/// partitioned on `key` every 10 keys; u(id: unique over t's keys,
/// grp: 10 distinct).
fn estimate_catalog(partitioned: bool) -> Catalog {
    let rel = Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("val", DataType::U32),
        ])
        .unwrap(),
        vec![
            Column::U32((0..100_000).map(|i| i % 100).collect()),
            Column::U32((0..100_000).collect()),
        ],
    )
    .unwrap();
    let cat = Catalog::new();
    if partitioned {
        let spec = PartitionSpec::range("key", (1..10).map(|i| i * 10).collect());
        cat.register_partitioned("t", PartitionedRelation::new(rel, spec).unwrap());
    } else {
        cat.register("t", rel);
    }
    let u = Relation::new(
        Schema::new(vec![
            Field::new("id", DataType::U32),
            Field::new("grp", DataType::U32),
        ])
        .unwrap(),
        vec![
            Column::U32((0..100).collect()),
            Column::U32((0..100).map(|i| i % 10).collect()),
        ],
    )
    .unwrap();
    cat.register("u", u);
    cat
}

fn filtered(predicate: Predicate) -> Arc<LogicalPlan> {
    LogicalPlan::filter(LogicalPlan::scan("t"), predicate)
}

fn grouped(input: Arc<LogicalPlan>, key: &str) -> Arc<LogicalPlan> {
    LogicalPlan::group_by(input, key, vec![AggExpr::count_star("n")])
}

/// Check the invariant on `q` and return the rows shown for its root.
fn one_estimate(q: &LogicalPlan, cat: &Catalog) -> u64 {
    let ctx = SearchContext::new(OptimizerMode::Deep);
    check_one_estimate(q, cat, &ctx).unwrap();
    shown_rows(q, cat, &ctx).unwrap()
}

/// `WHERE val < 1000 GROUP BY key`: the filter is priced with `val`'s
/// statistics, not those of the grouping key it is explored under.
#[test]
fn estimate_of_a_filter_under_another_focus_column() {
    let cat = estimate_catalog(false);
    let filter = filtered(Predicate::cmp("val", CmpOp::Lt, 1_000u32));
    assert_eq!(
        one_estimate(&grouped(Arc::clone(&filter), "key"), &cat),
        100
    );
    assert_eq!(one_estimate(&filter, &cat), 1_001);
}

/// `WHERE key = 5 AND val < 1000`: each conjunct reads its own column.
#[test]
fn estimate_of_an_and_over_two_columns() {
    let cat = estimate_catalog(false);
    let q = filtered(Predicate::And(vec![
        Predicate::cmp("key", CmpOp::Eq, 5u32),
        Predicate::cmp("val", CmpOp::Lt, 1_000u32),
    ]));
    // 10 rows qualify: 1/100 × ~1/100 of 100 000, rounded up.
    assert_eq!(one_estimate(&q, &cat), 11);
}

/// `t JOIN u ON key = id GROUP BY grp`: the grouping key resolves through
/// the join to u's statistics.
#[test]
fn estimate_of_a_group_by_over_a_join() {
    let cat = estimate_catalog(false);
    let join = LogicalPlan::join(LogicalPlan::scan("t"), LogicalPlan::scan("u"), "key", "id");
    assert_eq!(one_estimate(&join, &cat), 100_000);
    assert_eq!(one_estimate(&grouped(join, "grp"), &cat), 10);
}

/// `WHERE key = 5 GROUP BY val`: 100 000 distinct values, but only 1 000
/// rows reach the grouping.
#[test]
fn estimate_of_a_group_count_above_its_filtered_input() {
    let cat = estimate_catalog(false);
    let filter = filtered(Predicate::cmp("key", CmpOp::Eq, 5u32));
    assert_eq!(one_estimate(&grouped(filter, "val"), &cat), 1_000);
}

/// `WHERE key < 20` over ten range partitions: two survive, and every
/// one of their 20 000 rows qualifies — pruning is not counted twice.
#[test]
fn estimate_of_a_filter_over_a_pruned_scan() {
    let cat = estimate_catalog(true);
    let q = filtered(Predicate::cmp("key", CmpOp::Lt, 20u32));
    let shown = one_estimate(&q, &cat);
    assert!(
        (13_334..=30_000).contains(&shown),
        "shown {shown} vs 20 000 actual"
    );
    let limited = LogicalPlan::limit(grouped(q, "key"), 5);
    assert_eq!(one_estimate(&limited, &cat), 5);
}

/// `WHERE key < 20 AND val < 50000 GROUP BY val` with a sorted projection
/// on `val` and a learned 4× correction for the filter: a candidate that
/// filters the projection's hidden relation shows the rows the memo
/// derived from t — the correction keyed on t and, over ten range
/// partitions on `key`, the cap of the two that can hold matches.
#[test]
fn estimate_of_a_filter_over_a_sorted_projection_with_feedback() {
    let rel = Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("val", DataType::U32),
        ])
        .unwrap(),
        vec![
            Column::U32((0..100_000).map(|i| i % 100).collect()),
            Column::U32((0..100_000).map(|i| i * 7_919 % 100_000).collect()),
        ],
    )
    .unwrap();
    let predicate = Predicate::And(vec![
        Predicate::cmp("key", CmpOp::Lt, 20u32),
        Predicate::cmp("val", CmpOp::Lt, 50_000u32),
    ]);
    let q = grouped(filtered(predicate.clone()), "val");
    for (partitioned, expect) in [(false, 40_405), (true, 20_000)] {
        let engine = Engine::new();
        let survivors: Option<&[usize]> = if partitioned {
            let spec = PartitionSpec::range("key", (1..10).map(|i| i * 10).collect());
            engine.register_table_partitioned(
                "t",
                PartitionedRelation::new(rel.clone(), spec).unwrap(),
            );
            Some(&[0, 1])
        } else {
            engine.register_table("t", rel.clone());
            None
        };
        engine
            .av_builder()
            .build(&AvSignature::new("t", "val", AvKind::SortedProjection))
            .unwrap();
        let version = engine.catalog().stats_version_for("t", survivors).unwrap();
        engine
            .feedback()
            .record("t", &predicate.shape(), 4.0, version);
        let ctx = SearchContext {
            avs: Some(engine.avs()),
            feedback: Some(engine.feedback()),
            ..SearchContext::new(OptimizerMode::Deep)
        };
        check_one_estimate(&q, engine.catalog(), &ctx).unwrap();
        // 20/99 × 50 000/99 999 × 4 of 100 000 rows; over partitions,
        // capped by the two survivors' 20 000.
        let shown = shown_rows(&filtered(predicate.clone()), engine.catalog(), &ctx).unwrap();
        assert_eq!(shown, expect, "partitioned={partitioned}");
        // The plan the memo prices for the grouping's sorted input.
        let over_projection = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: AvSignature::new("t", "val", AvKind::SortedProjection).av_table_name(),
            }),
            predicate: predicate.clone(),
        };
        let est = estimate_rows(&over_projection, engine.catalog(), ctx.feedback);
        assert_eq!(est, vec![expect, 100_000], "partitioned={partitioned}");
    }
}
