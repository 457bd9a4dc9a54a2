//! Partition-equivalence oracle: a `PartitionedRelation` registered
//! behind a table name must answer every query **bit-identically** to
//! the flat `Relation` it stores — across partitioning scheme
//! (range/hash), partition counts 1/3/16, DOP 1/2/8 and Zipf-skewed key
//! distributions, including empty and single-row partitions. Plan-time
//! pruning must be invisible in results (sound) and visible in metrics
//! (`dqo_part_*`), and prepared statements must re-prune on rebind.
//!
//! The flat reference is always the partitioned table's **own** flat
//! relation (`pr.flat().clone()`): `PartitionedRelation::new` re-lays
//! rows partition-major, so the original pre-partitioning row order is
//! not the contract — flat-row-order emission over the rebuilt layout
//! is.

use std::sync::Arc;

use dqo::core::executor::sorted_rows;
use dqo::core::{prune_partitions, Engine};
use dqo::obs::names;
use dqo::storage::datagen::{zipf_keys, DatasetSpec};
use dqo::storage::{Column, DataType, Field, PartitionSpec, PartitionedRelation, Schema};
use dqo::{Dqo, MetricsRegistry, Relation, Value};

const DOPS: [usize; 3] = [1, 2, 8];

/// t(key, val): `key` u32 over `0..domain` (Zipf-skewed when
/// `exponent > 0`), `val` a deterministic xorshift stream.
fn part_table(rows: usize, domain: u32, exponent: f64, seed: u64) -> Relation {
    let keys = if exponent > 0.0 {
        zipf_keys(rows, domain as usize, exponent, seed)
    } else {
        DatasetSpec::new(rows, domain as usize)
            .sorted(false)
            .dense(true)
            .seed(seed)
            .generate()
            .unwrap()
    };
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let vals: Vec<u32> = (0..rows).map(|_| (next() % 10_000) as u32).collect();
    Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("val", DataType::U32),
        ])
        .unwrap(),
        vec![Column::U32(keys), Column::U32(vals)],
    )
    .unwrap()
}

/// Evenly spaced exclusive upper bounds giving `parts` range partitions
/// over `0..domain`.
fn range_bounds(parts: usize, domain: u32) -> Vec<u32> {
    (1..parts)
        .map(|i| (domain as u64 * i as u64 / parts as u64) as u32)
        .collect()
}

fn db_with_partitioned(pr: &PartitionedRelation, dop: usize) -> Dqo {
    let mut db = Dqo::new();
    db.engine_mut().set_threads(dop);
    db.register_table_partitioned("t", pr.clone());
    db
}

fn db_with_flat(flat: &Relation, dop: usize) -> Dqo {
    let mut db = Dqo::new();
    db.engine_mut().set_threads(dop);
    db.register_table("t", flat.clone());
    db
}

fn run_sorted(db: &Dqo, sql: &str) -> Vec<Vec<Value>> {
    sorted_rows(&db.sql(sql).expect("query runs").output.relation)
}

/// Column-for-column bit-level equality via the raw buffer debug form.
fn assert_relations_identical(a: &Relation, b: &Relation, ctx: &str) {
    assert_eq!(a.rows(), b.rows(), "{ctx}");
    for c in 0..a.schema().width() {
        assert_eq!(
            format!("{:?}", a.column_at(c).unwrap()),
            format!("{:?}", b.column_at(c).unwrap()),
            "{ctx} column={c}"
        );
    }
}

/// Order-preserving queries (scan/filter pipelines emit flat row
/// order): compared byte-for-byte, unsorted.
const FILTER_SQLS: [&str; 4] = [
    "SELECT key, val FROM t WHERE key < 300",
    "SELECT key, val FROM t WHERE key >= 500 AND key < 700",
    "SELECT val FROM t WHERE key = 123",
    "SELECT key, val FROM t WHERE key <> 42",
];

/// Aggregating queries: compared in sorted canonical form (algorithm
/// choice may legitimately differ between the flat and partitioned
/// sides — post-pruning cardinalities feed the cost model).
const AGG_SQLS: [&str; 3] = [
    "SELECT key, COUNT(*) AS n, SUM(val) AS s, MIN(val) AS lo, MAX(val) AS hi \
     FROM t GROUP BY key",
    "SELECT key, COUNT(*) AS n FROM t WHERE key < 250 GROUP BY key",
    "SELECT key, SUM(val) AS s FROM t WHERE key >= 800 GROUP BY key ORDER BY key",
];

#[test]
fn partitioned_matches_flat_across_schemes_counts_dops_and_skew() {
    const DOMAIN: u32 = 1_000;
    for exponent in [0.0f64, 1.2] {
        let base = part_table(40_000, DOMAIN, exponent, 0xD1);
        for parts in [1usize, 3, 16] {
            let specs = [
                PartitionSpec::range("key", range_bounds(parts, DOMAIN)),
                PartitionSpec::hash("key", parts),
            ];
            for spec in specs {
                let pr = PartitionedRelation::new(base.clone(), spec.clone()).unwrap();
                let flat = pr.flat().clone();
                for dop in DOPS {
                    let part_db = db_with_partitioned(&pr, dop);
                    let flat_db = db_with_flat(&flat, dop);
                    for sql in FILTER_SQLS {
                        let ctx = format!(
                            "exponent={exponent} parts={parts} spec={spec:?} dop={dop} {sql}"
                        );
                        assert_relations_identical(
                            &part_db.sql(sql).unwrap().output.relation,
                            &flat_db.sql(sql).unwrap().output.relation,
                            &ctx,
                        );
                    }
                    for sql in AGG_SQLS {
                        assert_eq!(
                            run_sorted(&part_db, sql),
                            run_sorted(&flat_db, sql),
                            "exponent={exponent} parts={parts} spec={spec:?} dop={dop} {sql}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_and_single_row_partitions_match_flat() {
    // Range bounds at 10 and 20 with data clustered in [50, 1000) plus a
    // single outlier at 15: partition 0 is empty, partition 1 holds
    // exactly one row. Hash over 16 parts of a 5-row table leaves most
    // partitions empty.
    let mut skewed = part_table(20_000, 950, 0.0, 7);
    {
        // Shift keys into [50, 1000) and plant the single outlier.
        let mut keys = skewed.column("key").unwrap().as_u32().unwrap().to_vec();
        for v in &mut keys {
            *v += 50;
        }
        keys[123] = 15;
        let vals = skewed.column("val").unwrap().clone();
        skewed = Relation::new(skewed.schema().clone(), vec![Column::U32(keys), vals]).unwrap();
    }
    let tiny = part_table(5, 40, 0.0, 3);
    let cases = [
        (
            "empty+single-row range",
            skewed,
            PartitionSpec::range("key", vec![10, 20, 500]),
        ),
        ("mostly-empty hash", tiny, PartitionSpec::hash("key", 16)),
    ];
    for (name, rel, spec) in cases {
        let pr = PartitionedRelation::new(rel, spec).unwrap();
        let flat = pr.flat().clone();
        for dop in DOPS {
            let part_db = db_with_partitioned(&pr, dop);
            let flat_db = db_with_flat(&flat, dop);
            for sql in FILTER_SQLS {
                assert_relations_identical(
                    &part_db.sql(sql).unwrap().output.relation,
                    &flat_db.sql(sql).unwrap().output.relation,
                    &format!("{name} dop={dop} {sql}"),
                );
            }
            for sql in AGG_SQLS {
                assert_eq!(
                    run_sorted(&part_db, sql),
                    run_sorted(&flat_db, sql),
                    "{name} dop={dop} {sql}"
                );
            }
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical_at_every_dop() {
    // Determinism leg of the oracle: the same partitioned query at the
    // same DOP re-executes byte-for-byte, morsel steals and partition
    // seeding notwithstanding.
    let pr = PartitionedRelation::new(
        part_table(60_000, 512, 1.1, 0xC0),
        PartitionSpec::range("key", range_bounds(16, 512)),
    )
    .unwrap();
    for dop in DOPS {
        let db = db_with_partitioned(&pr, dop);
        for sql in [FILTER_SQLS[0], AGG_SQLS[0]] {
            let first = db.sql(sql).unwrap().output.relation;
            for run in 0..3 {
                let again = db.sql(sql).unwrap().output.relation;
                assert_relations_identical(&again, &first, &format!("dop={dop} run={run} {sql}"));
            }
        }
    }
}

/// The pinned majority-prune scenario of the acceptance gate: 16 range
/// partitions, a predicate binding only the bottom two — 14 of 16
/// pruned (≥ half), asserted through `dqo_part_pruned_total` on an
/// isolated registry, with results still bit-identical to flat.
#[test]
fn majority_pruned_scan_is_counted_and_bit_identical() {
    const DOMAIN: u32 = 1_600;
    let spec = PartitionSpec::range("key", range_bounds(16, DOMAIN));
    let pr = PartitionedRelation::new(part_table(50_000, DOMAIN, 0.9, 0xAC), spec).unwrap();
    let flat = pr.flat().clone();
    let sql = "SELECT key, val FROM t WHERE key < 200";
    for dop in DOPS {
        let registry = Arc::new(MetricsRegistry::new());
        // Pruning forced on: this test pins the pruning observables and
        // must hold even on the DQO_PRUNE=off CI parity leg.
        let mut engine = Engine::new()
            .with_pruning(true)
            .with_metrics_registry(Arc::clone(&registry));
        engine.set_threads(dop);
        engine.register_table_partitioned("t", pr.clone());
        let part_db = Dqo::with_engine(engine);

        let explain = part_db.explain(sql).unwrap();
        assert!(explain.contains("parts=2/16"), "dop={dop} plan: {explain}");

        let out = part_db.sql(sql).unwrap().output.relation;
        assert_relations_identical(
            &out,
            &db_with_flat(&flat, dop).sql(sql).unwrap().output.relation,
            &format!("dop={dop}"),
        );

        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::PART_PRUNED).unwrap(), 14, "dop={dop}");
        assert_eq!(snap.counter(names::PART_SCANNED).unwrap(), 2, "dop={dop}");
        assert_eq!(snap.counter(names::PART_TOTAL).unwrap(), 16, "dop={dop}");
    }
}

#[test]
fn pruning_disabled_parity() {
    // `set_pruning(false)` (the programmatic face of DQO_PRUNE=off):
    // every partition is scanned — the pruned counter stays at zero and
    // the plan keeps all parts — yet results stay bit-identical to both
    // the pruning engine and the flat table.
    const DOMAIN: u32 = 1_600;
    let spec = PartitionSpec::range("key", range_bounds(16, DOMAIN));
    let pr = PartitionedRelation::new(part_table(50_000, DOMAIN, 0.9, 0xAC), spec).unwrap();
    let flat = pr.flat().clone();
    for dop in [1usize, 4] {
        let registry = Arc::new(MetricsRegistry::new());
        let mut engine = Engine::new().with_metrics_registry(Arc::clone(&registry));
        engine.set_threads(dop);
        engine.set_pruning(false);
        engine.register_table_partitioned("t", pr.clone());
        let off_db = Dqo::with_engine(engine);

        let mut on_db = db_with_partitioned(&pr, dop);
        on_db.engine_mut().set_pruning(true);
        let flat_db = db_with_flat(&flat, dop);
        for sql in FILTER_SQLS {
            let off = off_db.sql(sql).unwrap().output.relation;
            assert_relations_identical(
                &off,
                &on_db.sql(sql).unwrap().output.relation,
                &format!("off-vs-on dop={dop} {sql}"),
            );
            assert_relations_identical(
                &off,
                &flat_db.sql(sql).unwrap().output.relation,
                &format!("off-vs-flat dop={dop} {sql}"),
            );
        }
        let explain = off_db
            .explain("SELECT key, val FROM t WHERE key < 200")
            .unwrap();
        assert!(explain.contains("parts=16/16"), "dop={dop} plan: {explain}");
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::PART_PRUNED).unwrap(), 0, "dop={dop}");
    }
}

#[test]
fn prepared_statements_reprune_on_rebind() {
    // A cached prepared plan pruned for one constant must not leak its
    // survivor set into an execution with a wider constant: the
    // plan-cache rebind re-prunes against the fresh predicate.
    const DOMAIN: u32 = 1_600;
    let spec = PartitionSpec::range("key", range_bounds(16, DOMAIN));
    let pr = PartitionedRelation::new(part_table(50_000, DOMAIN, 0.0, 0x5E), spec).unwrap();
    let flat = pr.flat().clone();
    let mut part_db = db_with_partitioned(&pr, 4);
    part_db.engine_mut().set_pruning(true);
    let flat_db = db_with_flat(&flat, 4);
    let stmt = part_db
        .prepare("SELECT key, val FROM t WHERE key < ?")
        .unwrap();
    let flat_stmt = flat_db
        .prepare("SELECT key, val FROM t WHERE key < ?")
        .unwrap();
    // Narrow first (14/16 pruned), then wide (nothing prunable), then
    // narrow again — each rebind against the same cached plan.
    for bound in [200u32, 1_600, 90] {
        let params = [Value::U32(bound)];
        let got = part_db
            .execute_prepared(&stmt, &params)
            .unwrap()
            .output
            .relation;
        let want = flat_db
            .execute_prepared(&flat_stmt, &params)
            .unwrap()
            .output
            .relation;
        assert_relations_identical(&got, &want, &format!("bound={bound}"));
    }
    // The wide execution really saw every row.
    let all = part_db
        .execute_prepared(&stmt, &[Value::U32(1_600)])
        .unwrap()
        .output
        .relation;
    assert_eq!(all.rows(), flat.rows());
}

/// Runs `sql` traced over 16 range partitions of uniform keys and checks
/// that the filter over the pruned scan counts pruning once: its selectivity
/// applies to the whole table, capped by the survivors, so `est=` lands
/// within 1.5× of `act=` and the execution teaches the feedback store
/// nothing. (Skewed keys would trip the uniform estimator on their own.)
fn assert_pruned_filter_estimate(sql: &str, parts: &str) {
    const DOMAIN: u32 = 1_600;
    let spec = PartitionSpec::range("key", range_bounds(16, DOMAIN));
    let pr = PartitionedRelation::new(part_table(50_000, DOMAIN, 0.0, 0xAC), spec).unwrap();
    let annotation = |line: &str, key: &str| -> u64 {
        let at = line
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {line}"))
            + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    for dop in [1usize, 4] {
        let mut engine = Engine::new().with_pruning(true).with_tracing(true);
        engine.set_threads(dop);
        engine.register_table_partitioned("t", pr.clone());
        let db = Dqo::with_engine(engine);
        let analyzed = db.explain_analyze(sql).unwrap();
        assert!(analyzed.contains(parts), "dop={dop} plan:\n{analyzed}");
        let filter = analyzed
            .lines()
            .find(|l| l.contains("Filter"))
            .unwrap_or_else(|| panic!("no Filter line in:\n{analyzed}"));
        let (est, act) = (annotation(filter, "est="), annotation(filter, "act="));
        assert!(
            est.max(act) as f64 <= 1.5 * est.min(act) as f64,
            "dop={dop} {sql}: est={est} act={act}"
        );
        assert_eq!(
            db.engine().feedback().len(),
            0,
            "dop={dop} {sql}: a well-estimated filter learns no correction"
        );
    }
}

#[test]
fn majority_pruned_filter_counts_pruning_once() {
    assert_pruned_filter_estimate("SELECT key, val FROM t WHERE key < 200", "parts=2/16");
}

#[test]
fn boundary_straddling_filter_counts_pruning_once() {
    assert_pruned_filter_estimate("SELECT key, val FROM t WHERE key < 250", "parts=3/16");
}

#[test]
fn explain_analyze_reports_post_pruning_estimate() {
    // Satellite fix pin: the est-vs-actual annotation on a pruned
    // PartitionedScan uses the **post-pruning** row estimate — exact
    // per-partition counts — so est equals act on the scan node.
    const DOMAIN: u32 = 1_600;
    let spec = PartitionSpec::range("key", range_bounds(16, DOMAIN));
    let base = part_table(50_000, DOMAIN, 1.0, 0x77);
    let pr = PartitionedRelation::new(base, spec.clone()).unwrap();
    let keys = pr.flat().column("key").unwrap().as_u32().unwrap();
    let predicate_rows = keys.iter().filter(|&&v| v < 150).count();
    // Survivors are exactly the partitions the pruning oracle keeps;
    // their row total is the scan's expected cardinality.
    let survivors = {
        let filter = dqo::plan::Predicate::cmp("key", dqo::plan::CmpOp::Lt, Value::U32(150));
        prune_partitions(pr.partitioning().spec(), &filter)
    };
    let scan_rows = pr.partitioning().rows_in(&survivors);
    assert!(
        scan_rows > predicate_rows,
        "survivors hold more than the match set"
    );

    let mut db = db_with_partitioned(&pr, 1);
    db.engine_mut().set_pruning(true);
    let analyzed = db
        .explain_analyze("SELECT key, val FROM t WHERE key < 150")
        .unwrap();
    let scan_line = analyzed
        .lines()
        .find(|l| l.contains("PartitionedScan"))
        .unwrap_or_else(|| panic!("no PartitionedScan line in:\n{analyzed}"));
    assert!(
        scan_line.contains(&format!("est={scan_rows}")),
        "scan line should carry the post-pruning estimate {scan_rows}: {scan_line}"
    );
    assert!(
        scan_line.contains(&format!("act={scan_rows}")),
        "scan emits exactly the surviving rows: {scan_line}"
    );
}
