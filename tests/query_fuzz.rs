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
//! * an AV-backed engine (AVSP-selected views materialised first), whose
//!   plans never read key codes over an AV relation.
//!
//! Besides small-domain keys, tables draw unsorted sparse keys that
//! repeat — `0` and `u32::MAX` among them — which the catalog codes, so
//! SPHG runs over the codes.
//!
//! Seeds are pinned: the proptest shim derives a deterministic per-test
//! RNG from the test name, so any failure reproduces exactly across runs
//! and machines (failing cases are printed as generated). The case count
//! is bounded and overridable via `QUERY_FUZZ_CASES` for the CI matrix.

use dqo::core::av::{AvKind, AvSignature};
use dqo::core::avsp::{Solver, WorkloadQuery};
use dqo::core::executor::{execute, execute_with, naive_eval, sorted_rows, ExecContext};
use dqo::core::optimizer::{enumerate_candidates, optimize_in, OptimizerMode, SearchContext};
use dqo::core::profile::estimate_rows;
use dqo::core::{prune_partitions, Catalog};
use dqo::plan::expr::{AggExpr, CmpOp, Predicate};
use dqo::plan::{LogicalPlan, PhysicalPlan};
use dqo::storage::{
    Column, DataProps, DataType, Dictionary, Field, KeyCodes, PartitionSpec, PartitionedRelation,
    Relation, Schema, Sortedness, Value,
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
    keyed_table(raw, |a| a % k_groups, sorted_dict)
}

/// [`build_table`] with `k`'s `k_groups` keys spread over the `u32` range
/// by [`spread`]: unsorted, sparse, and — over enough rows — repeated,
/// the columns the catalog codes.
fn sparse_table(raw: &[(u32, u32, u8)], k_groups: u32, sorted_dict: bool) -> Relation {
    keyed_table(raw, |a| spread(a % k_groups), sorted_dict)
}

/// Key 1 becomes `u32::MAX`, every other odd key is scattered over the
/// `u32` range, even keys (`0` among them) stay.
fn spread(k: u32) -> u32 {
    match k {
        1 => u32::MAX,
        _ if k % 2 == 1 => k.wrapping_mul(2_654_435_761),
        _ => k,
    }
}

fn keyed_table(raw: &[(u32, u32, u8)], key: impl Fn(u32) -> u32, sorted_dict: bool) -> Relation {
    let k: Vec<u32> = raw.iter().map(|(a, _, _)| key(*a)).collect();
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
/// draws. Three aggregate picks use the aliases a materialised grouping
/// stores (`count`, `sum`), so the AV leg checks grouping-AV answers too:
/// `COUNT(*) AS count, SUM(k) AS sum` over a bare scan grouped by `k`
/// first is the one list a grouping on those keys answers, and the other
/// two must be grouped from the base table all the same.
fn build_query(shape: u8, preds: &[(u8, u8)], aggs_pick: u8, order: bool) -> String {
    query_with(shape, &where_clause(preds), aggs_pick, order)
}

/// [`build_query`]'s statement shapes under a given ` WHERE …` clause.
fn query_with(shape: u8, where_sql: &str, aggs_pick: u8, order: bool) -> String {
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
        let agg_list: &str = match aggs_pick % 7 {
            0 => ", COUNT(*) AS n",
            1 => ", COUNT(*) AS n, SUM(v) AS t",
            2 => ", MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n",
            3 => ", AVG(v) AS m, COUNT(*) AS n",
            4 => ", COUNT(*) AS count",
            5 => ", COUNT(*) AS count, SUM(v) AS sum",
            _ => ", COUNT(*) AS count, SUM(k) AS sum",
        };
        sql.push_str(agg_list);
    }
    sql.push_str(" FROM t");
    sql.push_str(where_sql);
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

/// Whether a grouping in `plan` reads key codes over an AV relation.
fn codes_over_av_scan(plan: &PhysicalPlan) -> bool {
    fn scans_av(plan: &PhysicalPlan) -> bool {
        match plan {
            PhysicalPlan::Scan { table } | PhysicalPlan::PartitionedScan { table, .. } => {
                table.starts_with("__av::")
            }
            _ => plan.children().into_iter().any(scans_av),
        }
    }
    match plan {
        PhysicalPlan::GroupBy {
            input, molecules, ..
        } if molecules.codes && scans_av(input) => true,
        _ => plan.children().into_iter().any(codes_over_av_scan),
    }
}

/// `sql` over `t = rel` agrees with the naive evaluator at DOP 1, 2 and 8,
/// under forced `Exchange` at DOP 2 and 8, and with AVSP's views for it
/// materialised. Returns the serial plan's EXPLAIN.
fn check_differential(rel: Relation, sql: &str) -> std::result::Result<String, String> {
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
    if codes_over_av_scan(&out.planned.plan) {
        return Err(format!(
            "AV-backed plan reads key codes over an AV relation for {sql}\nplan:\n{}",
            out.planned.plan.explain()
        ));
    }
    Ok(planned.plan.explain())
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
    stats_exact(db).map_err(|e| format!("after {sql}: {e}"))
}

/// Every statistic `db`'s catalog holds — for `t` and for each hidden
/// `__av::` relation — equals `DataProps::compute` over its column, and
/// every column's key codes equal `KeyCodes::build` over it. A sorted
/// projection whose INSERTs left a tail behind its sorted prefix has its
/// statistics over its rows in key order: every row by `(key tuple, row
/// id)`, the prefix merged with the stably sorted tail.
fn stats_exact(db: &Dqo) -> std::result::Result<(), String> {
    let catalog = db.engine().catalog();
    for name in catalog.table_names() {
        let entry = catalog.stored(&name).map_err(|e| e.to_string())?;
        let order = entry.sorted_prefix.as_ref().map(|prefix| {
            let rel = &entry.relation;
            let key: Vec<&[u32]> = (prefix.key.iter())
                .map(|k| rel.column(k).unwrap().as_u32().unwrap())
                .collect();
            let tuple = |row: u32| key.iter().map(|c| c[row as usize]).collect::<Vec<u32>>();
            let mut order: Vec<u32> = (0..rel.rows() as u32).collect();
            order.sort_by_key(|&row| (tuple(row), row));
            order
        });
        for field in entry.relation.schema().fields() {
            let column = entry
                .relation
                .column(&field.name)
                .map_err(|e| e.to_string())?;
            let Ok(data) = column.as_u32() else {
                continue;
            };
            let want = match &order {
                Some(order) => {
                    let keyed: Vec<u32> = order.iter().map(|&row| data[row as usize]).collect();
                    DataProps::compute(&keyed)
                }
                None => DataProps::compute(data),
            };
            if entry.column_props.get(&field.name) != Some(&want) {
                return Err(format!(
                    "statistics of {name}.{} are {:?}, compute says {want:?}",
                    field.name,
                    entry.column_props.get(&field.name)
                ));
            }
            let codes = entry.key_codes.get(&field.name);
            if codes.is_some_and(|c| **c != KeyCodes::build(data)) {
                return Err(format!(
                    "key codes of {name}.{} differ from a rebuild",
                    field.name
                ));
            }
        }
    }
    Ok(())
}

/// The mixed read/write differential: one identical insert/query op
/// sequence applied to the naive reference (DOP 1), the planned engine
/// at DOP 2 and 8, and an AV-backed engine whose views were
/// materialised *before* the writes — so every insert exercises the
/// delta maintenance of all three AV kinds mid-workload. Every query in
/// the interleaving must agree with the naive evaluator over the
/// reference engine's live catalog, and after every insert each
/// engine's statistics (of `t` and of every hidden `__av::` relation)
/// must equal `DataProps::compute` over their columns.
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
/// * **pruning soundness** — an engine over the flat table at the same
///   DOP returns the same result: a partition may be pruned only if
///   scanning it anyway changes nothing. Queries without a GROUP BY are
///   compared byte-for-byte (scan/filter pipelines emit flat row order);
///   grouped queries in sorted canonical form.
fn check_partitioned(
    rel: Relation,
    k_groups: u32,
    scheme_pick: u8,
    parts_pick: u8,
    on_v: bool,
    sql: &str,
) -> std::result::Result<(), String> {
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

        let flat = Dqo::with_engine(Engine::new().with_threads(threads));
        flat.register_table("t", pr.flat().clone());
        let out_flat = flat
            .sql(sql)
            .map_err(|e| format!("flat threads={threads} {spec:?} {sql}: {e}"))?;
        let (a, b) = (&out_on.output.relation, &out_flat.output.relation);
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
                "pruning unsound at threads={threads} {spec:?} for {sql}\npruned plan:\n{}\nflat plan:\n{}",
                out_on.planned.plan.explain(),
                out_flat.planned.plan.explain()
            ));
        }
    }
    Ok(())
}

/// u(uk, w) over t's key domain: `2 * k_groups` rows whose join key `uk`
/// is unique (`0..2g`) or, with `repeats`, takes each of `0..g` twice — so
/// a join index built on it has the one-array layout or the CSR one. With
/// `sparse`, every odd key is spread over the `u32` range (key 1 becomes
/// `u32::MAX`): the build domain is no longer dense, so the memo plans HJ
/// where it planned SPHJ, and the even keys still meet t's.
fn build_u(k_groups: u32, repeats: bool, sparse: bool) -> Relation {
    let uk: Vec<u32> = (0..2 * k_groups)
        .map(|i| if repeats { i % k_groups } else { i })
        .map(|k| if sparse { spread(k) } else { k })
        .collect();
    let w: Vec<u32> = uk.iter().map(|k| k % 3).collect();
    Relation::new(
        Schema::new(vec![
            Field::new("uk", DataType::U32),
            Field::new("w", DataType::U32),
        ])
        .unwrap(),
        vec![Column::U32(uk), Column::U32(w)],
    )
    .unwrap()
}

/// A grouped join of t and u, built on either side, grouped by a column
/// of either side, under conjuncts on either side.
fn join_query(
    build_on_t: bool,
    group_pick: u8,
    preds: &[(u8, u8)],
    aggs_pick: u8,
    order: bool,
) -> String {
    let key = ["k", "v", "s", "uk", "w"][group_pick as usize % 5];
    let aggs = match aggs_pick % 3 {
        0 => "COUNT(*) AS n",
        1 => "COUNT(*) AS n, SUM(v) AS t",
        _ => "MIN(w) AS lo, COUNT(*) AS n",
    };
    let mut sql = format!("SELECT {key}, {aggs}{}", join_from(build_on_t, preds));
    sql.push_str(&format!(" GROUP BY {key}"));
    if order {
        sql.push_str(&format!(" ORDER BY {key}"));
    }
    sql
}

/// An ungrouped join of t and u — a materialised join, built on either
/// side, under conjuncts on either side — ordered by `k` and cut to one of
/// a few sizes when `order`. Its rows that tie on `k` are equal (`w` is
/// `uk % 3`, and `uk = k`), so a cut keeps the same rows whichever order
/// the join emits its pairs in.
fn join_rows_query(build_on_t: bool, preds: &[(u8, u8)], order: bool, limit_pick: u8) -> String {
    let mut sql = format!("SELECT k, w{}", join_from(build_on_t, preds));
    if order {
        sql.push_str(" ORDER BY k");
        if let Some(n) =
            [None, Some(0), Some(1), Some(3), Some(17), Some(100)][limit_pick as usize % 6]
        {
            sql.push_str(&format!(" LIMIT {n}"));
        }
    }
    sql
}

/// ` FROM` t joined with u, built on t or on u, and a `WHERE` of
/// conjuncts on either side.
fn join_from(build_on_t: bool, preds: &[(u8, u8)]) -> String {
    let mut sql = match build_on_t {
        true => " FROM t JOIN u ON k = uk".to_string(),
        false => " FROM u JOIN t ON uk = k".to_string(),
    };
    let conjuncts: Vec<String> = preds
        .iter()
        .map(|&(kind, param)| match kind % 6 {
            0 => format!("k < {}", param % 40),
            1 => format!("v < {}", param % 60),
            2 => format!("s LIKE '{}%'", PREFIXES[param as usize % PREFIXES.len()]),
            3 => format!("w < {}", param % 4),
            4 => format!("uk >= {}", param % 30),
            _ => format!("s > '{}'", WORDS[param as usize % WORDS.len()]),
        })
        .collect();
    if !conjuncts.is_empty() {
        sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
    }
    sql
}

/// A third table z(zk, zv) for joins under joins: `zk` over `0..g`, each
/// key once or, with `repeats`, twice; `zv` is `zk % 5`, so rows that tie
/// on a join key are equal.
fn build_z(k_groups: u32, repeats: bool) -> Relation {
    let zk: Vec<u32> = (0..k_groups * (1 + u32::from(repeats)))
        .map(|i| i % k_groups)
        .collect();
    let zv: Vec<u32> = zk.iter().map(|k| k % 5).collect();
    Relation::new(
        Schema::new(vec![
            Field::new("zk", DataType::U32),
            Field::new("zv", DataType::U32),
        ])
        .unwrap(),
        vec![Column::U32(zk), Column::U32(zv)],
    )
    .unwrap()
}

/// A join of t, u and z — z joined on u's key or t's — under a conjunct
/// on every table, picked by `preds`. Grouped (`group_pick` < 4) by a key
/// of t, of u, of z, or by one of each; else ungrouped, ordered by `k` and
/// cut to one of a few sizes. The ungrouped rows that tie on `k` are
/// equal, so a cut keeps the same rows whichever order the joins emit.
fn three_way_query(z_on_u: bool, preds: [(u8, u8); 3], group_pick: u8, limit_pick: u8) -> String {
    let on = if z_on_u { "uk" } else { "k" };
    let [(tk, tp), (uk, up), (zk, zp)] = preds;
    let conjuncts = [
        match tk % 3 {
            0 => format!("k < {}", tp % 40),
            1 => format!("v < {}", tp % 60),
            _ => format!("s LIKE '{}%'", PREFIXES[tp as usize % PREFIXES.len()]),
        },
        match uk % 2 {
            0 => format!("w < {}", up % 4),
            _ => format!("uk >= {}", up % 30),
        },
        match zk % 2 {
            0 => format!("zv < {}", zp % 6),
            _ => format!("zk <> {}", zp % 20),
        },
    ];
    let from = format!(
        " FROM t JOIN u ON k = uk JOIN z ON {on} = zk WHERE {}",
        conjuncts.join(" AND ")
    );
    let keys = ["k", "w", "zv", "v, w, zv"];
    match keys.get(group_pick as usize % 5) {
        Some(keys) => format!("SELECT {keys}, COUNT(*) AS n{from} GROUP BY {keys}"),
        None => {
            let limit = [None, Some(0), Some(1), Some(3), Some(17), Some(100)];
            match limit[limit_pick as usize % 6] {
                Some(n) => format!("SELECT k, w, zv{from} ORDER BY k LIMIT {n}"),
                None => format!("SELECT k, w, zv{from} ORDER BY k"),
            }
        }
    }
}

/// `sql` over t and u agrees with the naive evaluator — row for row when
/// `in_order`, as sorted rows otherwise — in the planned engine at DOP 1,
/// 2 and 8, under forced `Exchange` at DOP 2 and 8, and with SPH-index
/// AVs on the join keys that are dense (an SPH index spans its key's
/// whole range). Returns the serial plan's EXPLAIN.
fn check_join_and_top_n(
    t: &Relation,
    u: &Relation,
    sql: &str,
    in_order: bool,
) -> Result<String, String> {
    check_joins(&[("t", t, "k"), ("u", u, "uk")], sql, in_order)
}

/// [`check_join_and_top_n`] over any tables, each `(name, relation, join
/// key)`; the SPH-index AVs go on the join keys. Every join node of the
/// serial plan and of the forced-`Exchange` plans copies at most its key
/// scratch (see [`join_copies_only_keys`]).
fn check_joins(
    tables: &[(&str, &Relation, &str)],
    sql: &str,
    in_order: bool,
) -> Result<String, String> {
    let engine = |threads: usize| {
        let db = Dqo::with_engine(Engine::new().with_threads(threads));
        for (name, rel, _) in tables {
            db.register_table(*name, (*rel).clone());
        }
        db
    };
    let rows = |rel: &Relation| match in_order {
        true => (0..rel.rows()).map(|r| rel.row(r).unwrap()).collect(),
        false => sorted_rows(rel),
    };
    let reference = engine(1);
    let logical = reference
        .compile(sql)
        .map_err(|e| format!("compile {sql}: {e}"))?;
    let expect = rows(
        &naive_eval(&logical, reference.engine().catalog())
            .map_err(|e| format!("naive {sql}: {e}"))?,
    );
    for threads in [1usize, 2, 8] {
        let out = engine(threads)
            .sql(sql)
            .map_err(|e| format!("threads={threads} {sql}: {e}"))?;
        if rows(&out.output.relation) != expect {
            return Err(format!(
                "threads={threads} diverges from naive for {sql}\nplan:\n{}",
                out.planned.plan.explain()
            ));
        }
    }
    let planned = reference
        .engine()
        .plan(&logical)
        .map_err(|e| format!("plan {sql}: {e}"))?;
    let catalog = reference.engine().catalog();
    join_copies_only_keys(&planned.plan, catalog)?;
    for dop in [2usize, 8] {
        let wrapped = parallelise(&planned.plan, dop);
        let out = execute(&wrapped, catalog).map_err(|e| format!("forced dop={dop} {sql}: {e}"))?;
        if rows(&out.relation) != expect {
            return Err(format!(
                "forced Exchange dop={dop} diverges for {sql}\nplan:\n{}",
                wrapped.explain()
            ));
        }
        join_copies_only_keys(&wrapped, catalog)?;
    }
    let av_db = engine(2);
    for &(table, rel, key) in tables {
        let keys = rel.column(key).and_then(Column::as_u32).unwrap();
        let lo = keys.iter().min().unwrap_or(&0);
        if keys.iter().any(|k| k - lo > 1 << 16) {
            continue;
        }
        av_db
            .engine()
            .av_builder()
            .build(&AvSignature::new(table, key, AvKind::SphIndex))
            .map_err(|e| format!("SPH index on {table}.{key}: {e}"))?;
    }
    let out = av_db
        .sql(sql)
        .map_err(|e| format!("av-backed {sql}: {e}"))?;
    if rows(&out.output.relation) != expect {
        return Err(format!(
            "SPH-index AV plan diverges for {sql}\nplan:\n{}",
            out.planned.plan.explain()
        ));
    }
    Ok(planned.plan.explain())
}

/// No join output is gathered: every join node of `plan` copies at most
/// its key scratch — the `u32` keys of the rows its two inputs hand it —
/// and the root copies at most its output.
fn join_copies_only_keys(plan: &PhysicalPlan, catalog: &Catalog) -> Result<(), String> {
    let traced = ExecContext {
        collect_metrics: true,
        ..ExecContext::default()
    };
    let (out, nodes) = execute_with(plan, catalog, &traced).map_err(|e| e.to_string())?;
    let pre = plan.preorder();
    let rows_of = |child: &PhysicalPlan| {
        let at = pre.iter().position(|p| std::ptr::eq(*p, child)).unwrap();
        nodes[at].rows_out
    };
    for (node, m) in pre.iter().zip(&nodes) {
        if let PhysicalPlan::Join { left, right, .. } = node {
            let scratch = 4 * (rows_of(left) + rows_of(right));
            if m.bytes_materialised > scratch {
                return Err(format!(
                    "join copied {} bytes, key scratch is {scratch}\n{}",
                    m.bytes_materialised,
                    plan.explain()
                ));
            }
        }
    }
    let root = out.bytes_materialised - nodes.iter().map(|m| m.bytes_materialised).sum::<u64>();
    match root <= out.relation.byte_size() as u64 {
        true => Ok(()),
        false => Err(format!("the root copied {root} bytes\n{}", plan.explain())),
    }
}

/// Whether an EXPLAIN shows an HJ, and whether a single-key HG/SPHG fuses
/// one: only `Exchange`s and a `Filter` between the grouping and the HJ.
fn hj_planned_and_fused(explain: &str) -> (bool, bool) {
    let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
    let hj = |l: &&str| l.starts_with("HJ ");
    let fused = lines.iter().enumerate().any(|(i, l)| {
        let single_key = l
            .split_once('[')
            .and_then(|(_, rest)| rest.split_once(']'))
            .is_some_and(|(keys, _)| !keys.contains(','));
        (l.starts_with("HG ") || l.starts_with("SPHG "))
            && single_key
            && lines[i + 1..]
                .iter()
                .find(|l| !l.starts_with("Exchange") && !l.starts_with("Filter"))
                .is_some_and(hj)
    });
    (lines.iter().any(hj), fused)
}

/// The rows `EXPLAIN ANALYZE` shows for `s`'s chosen plan under `ctx`.
fn shown_rows(s: &LogicalPlan, catalog: &Catalog, ctx: &SearchContext) -> Result<u64, String> {
    let planned = optimize_in(s, catalog, ctx).map_err(|e| format!("optimise {s}: {e}"))?;
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

/// Comparisons the sorted arm draws on `k`, in SQL.
const CMP_OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// ` WHERE …` for the sorted arm, and the column of each conjunct a
/// search could answer — a `u32` comparison other than `<>`. They are
/// comparisons on the ascending `k` under every operator, against the
/// domain's edges `0` and `u32::MAX` or a key in or just past
/// `0..k_groups`, mixed with leaves a search answers only on ascending
/// data, if ever — a comparison on `v` (unsorted unless the table is
/// tiny), `<>`, a `LIKE`.
fn sorted_where(preds: &[(u8, u8)], k_groups: u32) -> (String, Vec<&'static str>) {
    let mut searchable = Vec::new();
    let conjuncts: Vec<String> = preds
        .iter()
        .map(|&(kind, param)| match kind % 5 {
            0..=2 => {
                let op = CMP_OPS[(kind / 5) as usize % CMP_OPS.len()];
                let lit = match param % 8 {
                    0 => 0,
                    1 => u32::MAX,
                    _ => u32::from(param / 8) % (k_groups + 2),
                };
                if op != "<>" {
                    searchable.push("k");
                }
                format!("k {op} {lit}")
            }
            3 => {
                searchable.push("v");
                format!("v < {}", u32::from(param) * 4)
            }
            _ => format!("s LIKE '{}%'", PREFIXES[param as usize % PREFIXES.len()]),
        })
        .collect();
    (format!(" WHERE {}", conjuncts.join(" AND ")), searchable)
}

/// The sorted arm: t's rows ordered by `k` — an ascending key with
/// duplicate runs — flat, or range-partitioned on `k` so the flat order
/// still ascends. `sql` must agree with the naive evaluator in the planned
/// engine at DOP 1, 2 and 8 and under forced `Exchange` at DOP 2 and 8,
/// and each run's filters must have answered by search exactly the
/// `searchable` conjuncts whose column the catalog calls ascending — no
/// `<>` among them.
fn check_sorted(
    raw: &[(u32, u32, u8)],
    k_groups: u32,
    sorted_dict: bool,
    parts: Option<u8>,
    sql: &str,
    searchable: &[&str],
) -> Result<(), String> {
    let mut raw = raw.to_vec();
    raw.sort_by_key(|&(a, _, _)| a % k_groups);
    let rel = build_table(&raw, k_groups, sorted_dict);
    let engine = |threads: usize| {
        let db = Dqo::with_engine(Engine::new().with_threads(threads));
        match parts {
            None => db.register_table("t", rel.clone()),
            Some(parts_pick) => {
                let spec = partition_spec(k_groups, 0, parts_pick, false);
                let pr = PartitionedRelation::new(rel.clone(), spec).unwrap();
                db.register_table_partitioned("t", pr)
            }
        };
        db
    };
    let reference = engine(1);
    let catalog = reference.engine().catalog();
    let ascends = |column| {
        catalog
            .column_props("t", column)
            .is_ok_and(|p| p.sortedness == Sortedness::Ascending)
    };
    if !ascends("k") {
        return Err("k does not ascend over the flat order".into());
    }
    let searchable = searchable.iter().filter(|&&c| ascends(c)).count();
    let logical = reference
        .compile(sql)
        .map_err(|e| format!("compile {sql}: {e}"))?;
    let expect =
        sorted_rows(&naive_eval(&logical, catalog).map_err(|e| format!("naive {sql}: {e}"))?);
    for threads in [1usize, 2, 8] {
        let out = engine(threads)
            .sql(sql)
            .map_err(|e| format!("threads={threads} {sql}: {e}"))?;
        if sorted_rows(&out.output.relation) != expect {
            return Err(format!(
                "threads={threads} diverges from naive for {sql}\nplan:\n{}",
                out.planned.plan.explain()
            ));
        }
    }
    let planned = reference
        .engine()
        .plan(&logical)
        .map_err(|e| format!("plan {sql}: {e}"))?;
    let traced = ExecContext {
        collect_metrics: true,
        ..ExecContext::default()
    };
    for dop in [1usize, 2, 8] {
        let plan = match dop {
            1 => planned.plan.clone(),
            _ => parallelise(&planned.plan, dop),
        };
        let (out, nodes) = execute_with(&plan, catalog, &traced)
            .map_err(|e| format!("forced dop={dop} {sql}: {e}"))?;
        if sorted_rows(&out.relation) != expect {
            return Err(format!(
                "forced Exchange dop={dop} diverges for {sql}\nplan:\n{}",
                plan.explain()
            ));
        }
        let searched: usize = plan
            .preorder()
            .iter()
            .zip(&nodes)
            .filter(|(node, _)| matches!(node, PhysicalPlan::Filter { .. }))
            .filter_map(|(_, m)| m.searched.map(|(n, _)| n))
            .sum();
        if searched != searchable {
            return Err(format!(
                "dop={dop} searched {searched} conjuncts of {sql}, {searchable} searchable\nplan:\n{}",
                plan.explain()
            ));
        }
    }
    Ok(())
}

proptest! {
    // Its cases are small and cheap; a wrong bound shows only when the
    // literal hits a key the table holds.
    #![proptest_config(ProptestConfig::with_cases(4 * fuzz_cases()))]

    #[test]
    fn sorted_inputs_agree_with_naive_when_filters_search(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..400),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        parts_pick in any::<u8>(),
        shape in any::<u8>(),
        preds in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..4),
        aggs_pick in any::<u8>(),
        order in any::<bool>(),
    ) {
        let (where_sql, searchable) = sorted_where(&preds, k_groups);
        let sql = query_with(shape, &where_sql, aggs_pick, order);
        let parts = (parts_pick % 3 != 0).then_some(parts_pick / 3);
        check_sorted(&raw, k_groups, sorted_dict, parts, &sql, &searchable)?;
    }
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
    fn sparse_repeated_keys_agree_through_codes(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..400),
        k_groups in 2u32..24,
        sorted_dict in any::<bool>(),
        scheme_pick in any::<u8>(),
        parts_pick in any::<u8>(),
        shape in any::<u8>(),
        preds in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        aggs_pick in any::<u8>(),
        order in any::<bool>(),
    ) {
        let rel = sparse_table(&raw, k_groups, sorted_dict);
        let sql = build_query(shape, &preds, aggs_pick, order);
        check_differential(rel.clone(), &sql)?;
        check_partitioned(rel, k_groups, scheme_pick, parts_pick, false, &sql)?;
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
        let rel = build_table(&raw, k_groups, sorted_dict);
        check_partitioned(rel, k_groups, scheme_pick, parts_pick, on_v, &sql)?;
    }

    #[test]
    fn random_join_and_top_n_queries_agree(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..400),
        k_groups in 1u32..24,
        v_mod in 1u32..60,
        sorted_dict in any::<bool>(),
        repeats in any::<bool>(),
        sparse in any::<bool>(),
        build_on_t in any::<bool>(),
        group_pick in any::<u8>(),
        preds in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        aggs_pick in any::<u8>(),
        order in any::<bool>(),
        limit_pick in any::<u8>(),
    ) {
        // `v` over a small domain, so an ORDER BY v has ties to break.
        let raw: Vec<(u32, u32, u8)> = raw.iter().map(|&(a, b, c)| (a, b % v_mod, c)).collect();
        let t = build_table(&raw, k_groups, sorted_dict);
        let u = build_u(k_groups, repeats, sparse);
        let sql = join_query(build_on_t, group_pick, &preds, aggs_pick, order);
        check_join_and_top_n(&t, &u, &sql, order)?;
        // The naive nested loop emits pairs build row by build row, the
        // engine's joins probe row by probe row: compare sorted rows.
        let rows = join_rows_query(build_on_t, &preds, order, limit_pick);
        check_join_and_top_n(&t, &u, &rows, false)?;
        let n = [0, 1, 3, 17, 100, 1_000][limit_pick as usize % 6];
        let top = format!("SELECT k, v FROM t{} ORDER BY v LIMIT {n}", where_clause(&preds));
        check_join_and_top_n(&t, &u, &top, true)?;
    }

    #[test]
    fn random_three_table_joins_agree(
        raw in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..300),
        k_groups in 1u32..24,
        sorted_dict in any::<bool>(),
        u_repeats in any::<bool>(),
        z_repeats in any::<bool>(),
        z_on_u in any::<bool>(),
        on_t in (any::<u8>(), any::<u8>()),
        on_u in (any::<u8>(), any::<u8>()),
        on_z in (any::<u8>(), any::<u8>()),
        group_pick in any::<u8>(),
        limit_pick in any::<u8>(),
    ) {
        let t = build_table(&raw, k_groups, sorted_dict);
        let (u, z) = (build_u(k_groups, u_repeats, false), build_z(k_groups, z_repeats));
        let sql = three_way_query(z_on_u, [on_t, on_u, on_z], group_pick, limit_pick);
        check_joins(&[("t", &t, "k"), ("u", &u, "uk"), ("z", &z, "zk")], &sql, false)?;
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

/// HJ is reached, and fused: over a sparse-key u, grouped joins of t and
/// u plan HJ, and some single-key HG/SPHG runs it inside its loader. Each
/// case is checked as `random_join_and_top_n_queries_agree` checks its own.
#[test]
fn sparse_join_keys_plan_hj_and_fuse_it() {
    let raw: Vec<(u32, u32, u8)> = (0..600u32)
        .map(|i| (i * 7 % 97, i * 13 % 50, i as u8))
        .collect();
    let t = build_table(&raw, 20, false);
    let (mut planned, mut fused) = (0, 0);
    for repeats in [false, true] {
        let u = build_u(20, repeats, true);
        for build_on_t in [false, true] {
            for group_pick in 0..5 {
                for preds in [&[][..], &[(1, 30)], &[(3, 2), (0, 15)]] {
                    let sql = join_query(build_on_t, group_pick, preds, group_pick, false);
                    let explain = check_join_and_top_n(&t, &u, &sql, false).unwrap();
                    let (hj, under_grouping) = hj_planned_and_fused(&explain);
                    planned += usize::from(hj);
                    fused += usize::from(under_grouping);
                }
            }
        }
    }
    assert!(planned > 0, "no case planned HJ");
    assert!(
        fused > 0,
        "no case fused an HJ under HG/SPHG ({planned} planned HJ)"
    );
}

/// Joins under joins, pinned: every three-table family returns rows, and
/// some plan fuses into a grouping's loader a join one of whose sides is
/// itself a join — a view of several tables. Each case is checked as
/// `random_three_table_joins_agree` checks its own.
#[test]
fn three_table_joins_return_rows_and_fuse_over_joined_views() {
    let raw: Vec<(u32, u32, u8)> = (0..600u32)
        .map(|i| (i * 7 % 97, i * 13 % 50, i as u8))
        .collect();
    let t = build_table(&raw, 20, false);
    let mut fused = 0;
    for repeats in [false, true] {
        let (u, z) = (build_u(20, repeats, false), build_z(20, repeats));
        let tables = [("t", &t, "k"), ("u", &u, "uk"), ("z", &z, "zk")];
        let db = Dqo::new();
        for (name, rel, _) in tables {
            db.register_table(name, rel.clone());
        }
        for z_on_u in [false, true] {
            for group_pick in 0..5 {
                let sql = three_way_query(z_on_u, [(0, 39), (0, 3), (0, 5)], group_pick, 0);
                let explain = check_joins(&tables, &sql, false).unwrap();
                assert!(db.sql(&sql).unwrap().output.relation.rows() > 0, "{sql}");
                let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
                let join = |l: &&str| l.starts_with("HJ ") || l.starts_with("SPHJ ");
                let grouping = lines
                    .iter()
                    .position(|l| l.starts_with("HG ") || l.starts_with("SPHG "));
                let below = grouping.map(|at| &lines[at + 1..]).unwrap_or_default();
                let skip = |l: &&&str| l.starts_with("Exchange") || l.starts_with("Filter");
                let mut below = below.iter().skip_while(skip);
                if below.next().is_some_and(join) && below.any(join) {
                    fused += 1;
                }
            }
        }
    }
    assert!(fused > 0, "no grouping fused a join over a joined view");
}

/// Codes are read: over sparse keys that repeat, some plan groups by SPHG
/// over the codes, and some groups a fused join on a coded key — on
/// either side of it. Each case is checked as the fuzzers check theirs.
#[test]
fn repeated_sparse_keys_plan_sphg_over_codes_and_fuse_joins() {
    let coded = |explain: &str| {
        let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
        let fused = lines.iter().enumerate().any(|(i, l)| {
            l.contains("key=codes")
                && lines[i + 1..]
                    .iter()
                    .find(|l| !l.starts_with("Exchange") && !l.starts_with("Filter"))
                    .is_some_and(|l| l.starts_with("HJ ") || l.starts_with("SPHJ "))
        });
        (explain.contains("key=codes"), fused)
    };
    // `v` over 0..40 meets u's unique join keys.
    let raw: Vec<(u32, u32, u8)> = (0..600u32)
        .map(|i| (i * 7 % 97, i * 13 % 40, i as u8))
        .collect();
    let t = sparse_table(&raw, 20, false);
    let mut grouped = 0;
    for preds in [&[][..], &[(0, 15)], &[(1, 30), (4, 2)]] {
        for aggs_pick in 0..4 {
            let sql = build_query(0, preds, aggs_pick, true);
            let explain = check_differential(t.clone(), &sql).unwrap();
            grouped += usize::from(coded(&explain).0);
        }
    }
    assert!(grouped > 0, "no plan grouped over codes");
    let u = build_u(20, false, false);
    let mut fused = 0;
    for from in ["u JOIN t ON uk = v", "t JOIN u ON v = uk"] {
        for aggs in ["COUNT(*) AS n, SUM(v) AS s", "SUM(k) AS s, MAX(k) AS hi"] {
            for filter in ["", " WHERE w < 2"] {
                let sql = format!("SELECT k, {aggs} FROM {from}{filter} GROUP BY k ORDER BY k");
                let explain = check_join_and_top_n(&t, &u, &sql, true).unwrap();
                fused += usize::from(coded(&explain).1);
            }
        }
    }
    assert!(fused > 0, "no plan grouped a fused join over codes");
}

/// The fold's two states crossed with every loader shape, pinned: COUNT
/// alone, COUNT and SUM, AVG (folded into COUNT/SUM states) and MIN/MAX
/// (the full state), each over a whole range piece, narrowed row ids, a
/// coded key, a fused SPHJ on unique build keys (key on the build side,
/// values on the probe side) and a fused HJ on repeated build keys (a CSR
/// index) under a build-side conjunct (key on the probe side, values on
/// the build side). Each case is checked as the fuzzers check theirs, and
/// each plan must group with HG/SPHG over the shape it names.
#[test]
fn aggregate_states_agree_over_every_loader_shape() {
    let raw: Vec<(u32, u32, u8)> = (0..600u32)
        .map(|i| (i * 7 % 97, i * 13 % 50, i as u8))
        .collect();
    let (dense, sparse) = (build_table(&raw, 20, false), sparse_table(&raw, 20, false));
    let grouped = |explain: &str| {
        let top = explain.lines().map(str::trim_start).find(|l| {
            !l.starts_with("Exchange") && !l.starts_with("Project") && !l.starts_with("Sort")
        });
        top.is_some_and(|l| l.starts_with("HG ") || l.starts_with("SPHG "))
    };
    let fused_sphj = |explain: &str| {
        let lines: Vec<&str> = explain.lines().map(str::trim_start).collect();
        lines.iter().enumerate().any(|(i, l)| {
            (l.starts_with("HG ") || l.starts_with("SPHG "))
                && lines[i + 1..]
                    .iter()
                    .find(|l| !l.starts_with("Exchange") && !l.starts_with("Filter"))
                    .is_some_and(|l| l.starts_with("SPHJ "))
        })
    };
    let states = |col: &str| {
        [
            "COUNT(*) AS n".to_string(),
            format!("COUNT(*) AS n, SUM({col}) AS t"),
            format!("AVG({col}) AS m"),
            format!("MIN({col}) AS lo, MAX({col}) AS hi"),
        ]
    };
    for aggs in states("v") {
        for (shape, t, filter) in [
            ("range", &dense, ""),
            ("ids", &dense, " WHERE k < 15 AND s > 'beta'"),
            ("codes", &sparse, " WHERE s > 'beta'"),
        ] {
            let sql = format!("SELECT k, {aggs} FROM t{filter} GROUP BY k");
            let explain = check_differential(t.clone(), &sql).unwrap();
            assert!(grouped(&explain), "{shape}: {sql}\n{explain}");
            assert_eq!(explain.contains("key=codes"), shape == "codes", "{explain}");
        }
        let u = build_u(20, false, false);
        let sql = format!("SELECT w, {aggs} FROM u JOIN t ON uk = k GROUP BY w");
        let explain = check_join_and_top_n(&dense, &u, &sql, false).unwrap();
        assert!(fused_sphj(&explain), "unique SPHJ: {sql}\n{explain}");
    }
    for aggs in states("w") {
        let u = build_u(20, true, true);
        let sql = format!("SELECT k, {aggs} FROM u JOIN t ON uk = k WHERE w < 2 GROUP BY k");
        let explain = check_join_and_top_n(&sparse, &u, &sql, false).unwrap();
        assert!(hj_planned_and_fused(&explain).1, "CSR HJ: {sql}\n{explain}");
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

/// A materialised grouping answers only the query it stores. Over
/// t(key u32, val u32, city Str), a grouping AV on `key`, one on `city`
/// and one on `key+city` each get aggregate lists around their own
/// `COUNT(*) AS count, SUM(first key) AS sum`: the own list scans the
/// view, every other list groups the base table, and every answer equals
/// the naive evaluator's in rows and width.
#[test]
fn grouping_av_answers_only_the_query_it_stores() {
    let keys: Vec<u32> = (0..3_000u32).map(|i| i.wrapping_mul(48271) % 12).collect();
    let vals: Vec<u32> = (0..3_000u32).map(|i| i * 7 % 1_000).collect();
    let cities: Vec<&str> = (0..3_000).map(|i| WORDS[i * 3 % WORDS.len()]).collect();
    let (dict, codes) = Dictionary::encode_all(&cities);
    let rel = Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("val", DataType::U32),
            Field::new("city", DataType::Str),
        ])
        .unwrap(),
        vec![Column::U32(keys), Column::U32(vals), Column::Str(codes)],
    )
    .unwrap()
    .with_dictionary("city", Arc::new(dict))
    .unwrap();
    // (view keys, the query the view stores, queries it must not answer);
    // SUM over a `Str` key is not SQL, so a `Str` view stores none.
    let cases: [(&[&str], Option<&str>, &[&str]); 3] = [
        (
            &["key"],
            Some("SELECT key, COUNT(*) AS count, SUM(key) AS sum FROM t GROUP BY key"),
            &[
                "SELECT key, COUNT(*) AS count, SUM(val) AS sum FROM t GROUP BY key",
                "SELECT key, COUNT(*) AS count FROM t GROUP BY key",
                "SELECT key, SUM(key) AS sum, COUNT(*) AS count FROM t GROUP BY key",
                "SELECT key, SUM(key) AS sum FROM t GROUP BY key",
            ],
        ),
        (
            &["city"],
            None,
            &["SELECT city, COUNT(*) AS count FROM t GROUP BY city"],
        ),
        (
            &["key", "city"],
            Some("SELECT key, city, COUNT(*) AS count, SUM(key) AS sum FROM t GROUP BY key, city"),
            &[
                "SELECT key, city, COUNT(*) AS count FROM t GROUP BY key, city",
                "SELECT key, city, COUNT(*) AS count, SUM(val) AS sum FROM t GROUP BY key, city",
            ],
        ),
    ];
    for (keys, own, others) in cases {
        let keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        let sig = AvSignature::composite("t", &keys, AvKind::MaterialisedGrouping);
        let db = Dqo::with_engine(Engine::new().with_threads(1));
        db.register_table("t", rel.clone());
        db.engine().av_builder().build(&sig).unwrap();
        for sql in own.iter().chain(others) {
            let naive = naive_eval(&db.compile(sql).unwrap(), db.engine().catalog()).unwrap();
            let out = db.sql(sql).unwrap();
            let explain = out.planned.plan.explain();
            assert_eq!(
                explain.contains(&sig.av_table_name()),
                own == Some(*sql),
                "{sql}:\n{explain}"
            );
            let got = &out.output.relation;
            assert_eq!(got.schema().width(), naive.schema().width(), "{sql}");
            assert_eq!(sorted_rows(got), sorted_rows(&naive), "{sql}\n{explain}");
        }
    }
    // The single-key view keeps its hidden name.
    let sig = AvSignature::new("t", "key", AvKind::MaterialisedGrouping);
    assert_eq!(sig.av_table_name(), "__av::materialised-grouping::t::key");
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

/// Comparisons the loader folds or recodes: on a sparse key the catalog
/// codes, a one-sided bound compares codes with the bound's rank, and two
/// bounds on one column — coded or not — are one compare. Bounds below,
/// at, between and above the keys, crossed and at the `u32` edges, under
/// SPHG over the codes, HG and OG; each case is checked as the fuzzers
/// check theirs, AV-backed plans included.
#[test]
fn coded_and_two_sided_ranges_agree_with_naive() {
    let raw: Vec<(u32, u32, u8)> = (0..900u32)
        .map(|i| (i * 7 % 97, i * 13 % 1_000, i as u8))
        .collect();
    let (dense, sparse) = (build_table(&raw, 20, false), sparse_table(&raw, 20, false));
    let keys = [spread(3), spread(4), spread(7), spread(10)];
    let bounds: Vec<u32> = [0, 1, spread(3) + 1, u32::MAX]
        .into_iter()
        .chain(keys)
        .collect();
    let mut clauses = Vec::new();
    for &b in &bounds {
        for op in ["<", "<=", ">", ">=", "="] {
            clauses.push(format!(" WHERE k {op} {b}"));
        }
    }
    for (lo, hi) in [
        (keys[0], keys[2]),
        (keys[2], keys[0]),
        (0, u32::MAX),
        (keys[1], keys[1]),
    ] {
        clauses.push(format!(" WHERE k >= {lo} AND k < {hi}"));
        clauses.push(format!(" WHERE k > {lo} AND v < 500 AND k <= {hi}"));
    }
    for (lo, hi) in [(100, 400), (400, 100), (0, 0), (999, 1_000)] {
        clauses.push(format!(" WHERE v >= {lo} AND v < {hi}"));
    }
    for (t, name) in [(&sparse, "sparse"), (&dense, "dense")] {
        for clause in &clauses {
            for aggs in ["COUNT(*) AS n, SUM(v) AS s", "MIN(v) AS lo, MAX(v) AS hi"] {
                let sql = format!("SELECT k, {aggs} FROM t{clause} GROUP BY k ORDER BY k");
                check_differential(t.clone(), &sql).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }
}
