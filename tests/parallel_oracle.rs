//! Parallel-vs-serial oracle: the morsel-driven runtime must produce
//! results identical (in sorted canonical form) to the serial engine for
//! groupings, joins and filters — across datagen seeds, key skews and
//! thread counts 1/2/8 — and identical output byte-for-byte across
//! repeated runs of the same query at the same thread count.

use dqo::core::av::{materialise_av, plan_av, AvArtifact, AvKind, AvSignature};
use dqo::core::avsp::{self, Solver, WorkloadQuery};
use dqo::core::catalog::TableEntry;
use dqo::core::executor::sorted_rows;
use dqo::exec::aggregate::CountSum;
use dqo::exec::grouping::hg::{hash_grouping_chaining, HgTable};
use dqo::exec::grouping::sog::sort_order_grouping;
use dqo::exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
use dqo::exec::join::soj::sort_merge_join;
use dqo::exec::join::{execute_join, JoinAlgorithm, JoinHints, JoinIndex};
use dqo::exec::sort::argsort;
use dqo::parallel::{
    parallel_argsort, parallel_grouping, parallel_sog, parallel_sort_merge_join, GroupingStrategy,
    ThreadPool,
};
use dqo::plan::SortMolecule;
use dqo::storage::datagen::{zipf_keys, DatasetSpec, ForeignKeySpec};
use dqo::storage::Value;
use dqo::{Dqo, OptimizerMode};
use std::collections::BTreeMap;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn db_with_table(rows: usize, groups: usize, seed: u64, threads: usize) -> Dqo {
    let mut db = Dqo::new();
    db.engine_mut().set_threads(threads);
    db.register_table(
        "t",
        DatasetSpec::new(rows, groups)
            .sorted(false)
            .dense(true)
            .seed(seed)
            .relation()
            .unwrap(),
    );
    db
}

fn run_sorted(db: &Dqo, sql: &str) -> Vec<Vec<Value>> {
    sorted_rows(&db.sql(sql).expect("query runs").output.relation)
}

#[test]
fn grouping_matches_serial_across_seeds_and_threads() {
    let sql = "SELECT key, COUNT(*) AS n, SUM(key) AS s, MIN(key) AS lo, MAX(key) AS hi \
               FROM t GROUP BY key";
    for seed in [1u64, 0xBEEF, 42] {
        let reference = run_sorted(&db_with_table(200_000, 256, seed, 1), sql);
        for threads in THREAD_COUNTS {
            let db = db_with_table(200_000, 256, seed, threads);
            if threads > 1 {
                // Sanity: at this scale the optimiser really goes parallel.
                let planned = db.explain(sql).unwrap();
                assert!(planned.contains("Exchange"), "plan: {planned}");
            }
            assert_eq!(
                run_sorted(&db, sql),
                reference,
                "seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn grouping_matches_serial_under_skew() {
    // Zipf-skewed keys: the heavy head lands in few morsels' groups, the
    // exact case where naive static splits would misbalance — results
    // must still be identical.
    for exponent in [0.8f64, 1.2] {
        let keys = zipf_keys(150_000, 128, exponent, 7);
        let reference = {
            let mut r = execute_grouping(
                GroupingAlgorithm::HashBased,
                &keys,
                &keys,
                CountSum,
                &GroupingHints::default(),
            )
            .unwrap();
            r.sort_by_key();
            r
        };
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let sph = GroupingStrategy::StaticPerfectHash { min: 0, max: 127 };
            for strategy in HgTable::ALL
                .map(GroupingStrategy::Hash)
                .into_iter()
                .chain([sph])
            {
                let (par, _) = parallel_grouping(
                    Some(&pool),
                    &keys,
                    &keys,
                    CountSum,
                    strategy,
                    &[0, keys.len()],
                    4096,
                )
                .unwrap();
                assert_eq!(
                    par, reference,
                    "threads={threads} exponent={exponent} {strategy:?}"
                );
            }
        }
    }
}

#[test]
fn join_query_matches_serial_across_seeds_and_threads() {
    let sql = "SELECT a, COUNT(*) AS count FROM r JOIN s ON r.id = s.r_id GROUP BY a";
    for seed in [3u64, 77] {
        let mut results = Vec::new();
        for threads in THREAD_COUNTS {
            let mut db = Dqo::new();
            db.engine_mut().set_threads(threads);
            let (r, s) = ForeignKeySpec {
                r_rows: 60_000,
                s_rows: 180_000,
                groups: 5_000,
                r_sorted: false,
                s_sorted: false,
                dense: true,
                seed,
            }
            .generate()
            .unwrap();
            db.register_table("r", r);
            db.register_table("s", s);
            results.push(run_sorted(&db, sql));
        }
        assert_eq!(results[0], results[1], "seed={seed} threads 1 vs 2");
        assert_eq!(results[0], results[2], "seed={seed} threads 1 vs 8");
    }
}

#[test]
fn join_kernels_match_serial_under_skew() {
    // Skewed probes of a dense build side, and of the same keys spread
    // over the u32 range (`u32::MAX` included), where only the hashed
    // slot map applies. A materialised HJ or SPHJ under `Exchange` emits
    // the serial HJ's pairs, in order, at every DOP.
    use dqo::core::executor::execute;
    use dqo::plan::PhysicalPlan;
    use dqo::storage::{Column, DataType, Field, Relation, Schema};
    let table = |key: &str, keys: &[u32]| {
        let schema = Schema::new(vec![
            Field::new(key, DataType::U32),
            Field::new(format!("{key}_row"), DataType::U32),
        ])
        .unwrap();
        let rows = (0..keys.len() as u32).collect();
        Relation::new(schema, vec![Column::U32(keys.to_vec()), Column::U32(rows)]).unwrap()
    };
    let spread = |k: u32| k.wrapping_mul(2_654_435_761) | u32::from(k == 7).wrapping_neg();
    let dense: Vec<u32> = (0..2_000).collect();
    let sparse: Vec<u32> = dense.iter().map(|&k| spread(k)).collect();
    for exponent in [0.5f64, 1.5] {
        let right = zipf_keys(120_000, 2_000, exponent, 11);
        let sparse_right: Vec<u32> = right.iter().map(|&k| spread(k)).collect();
        let cases = [
            (&dense, &right, dqo::plan::JoinAlgorithm::StaticPerfectHash),
            (&dense, &right, dqo::plan::JoinAlgorithm::HashBased),
            (&sparse, &sparse_right, dqo::plan::JoinAlgorithm::HashBased),
        ];
        for (left, right, algo) in cases {
            let serial =
                execute_join(JoinAlgorithm::HashBased, left, right, &JoinHints::default()).unwrap();
            assert_eq!(
                serial.len(),
                right.len(),
                "exponent={exponent}: one pair per probe"
            );
            // The serial pairs, gathered: each build row's key and row id,
            // then its probe row's.
            let expect: Vec<Vec<Value>> = serial
                .left_rows
                .iter()
                .zip(&serial.right_rows)
                .map(|(&l, &r)| {
                    let (l, r) = (l as usize, r as usize);
                    [left[l], l as u32, right[r], r as u32]
                        .map(Value::U32)
                        .to_vec()
                })
                .collect();
            let cat = dqo::Catalog::new();
            cat.register("b", table("bk", left));
            cat.register("p", table("pk", right));
            let join = PhysicalPlan::Join {
                left: Box::new(PhysicalPlan::Scan { table: "b".into() }),
                right: Box::new(PhysicalPlan::Scan { table: "p".into() }),
                left_key: "bk".into(),
                right_key: "pk".into(),
                algo,
            };
            for dop in THREAD_COUNTS {
                let plan = PhysicalPlan::Exchange {
                    input: Box::new(join.clone()),
                    dop,
                };
                let out = execute(&plan, &cat).unwrap().relation;
                let rows: Vec<Vec<Value>> = (0..out.rows()).map(|i| out.row(i).unwrap()).collect();
                assert!(rows == expect, "{algo:?} dop={dop} exponent={exponent}");
            }
        }
    }
}

#[test]
fn parallel_sort_bit_identical_to_stable_argsort() {
    // The sort subsystem's determinism contract: the merged output is
    // *the* stable sorted permutation — equal keys in input order —
    // regardless of DOP, run count or steal order, for both molecules.
    for seed in [2u64, 0xFEED] {
        for exponent in [0.0f64, 1.2] {
            let keys = if exponent == 0.0 {
                DatasetSpec::new(120_000, 200)
                    .sorted(false)
                    .dense(true)
                    .seed(seed)
                    .generate()
                    .unwrap()
            } else {
                zipf_keys(120_000, 200, exponent, seed)
            };
            let reference = argsort(&keys);
            for threads in THREAD_COUNTS {
                for molecule in [SortMolecule::Comparison, SortMolecule::Radix] {
                    let pool = ThreadPool::new(threads);
                    let (par, _) = parallel_argsort(Some(&pool), &keys, molecule, &[]).unwrap();
                    assert_eq!(
                        par, reference,
                        "seed={seed} exponent={exponent} threads={threads} {molecule:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn sog_bit_identical_across_dop_seeds_and_skew() {
    for seed in [4u64, 99] {
        for exponent in [0.6f64, 1.4] {
            let keys = zipf_keys(150_000, 300, exponent, seed);
            let vals = zipf_keys(150_000, 1_000, 0.9, seed + 1);
            let serial = sort_order_grouping(&keys, &vals, CountSum, SortMolecule::Comparison);
            for threads in THREAD_COUNTS {
                let pool = ThreadPool::new(threads);
                let (par, _) = parallel_sog(
                    Some(&pool),
                    &keys,
                    &vals,
                    CountSum,
                    SortMolecule::Comparison,
                    &[],
                )
                .unwrap();
                // Full structural equality, not sorted-set equality: keys,
                // states and the sortedness property all match.
                assert_eq!(
                    par, serial,
                    "seed={seed} exponent={exponent} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn soj_bit_identical_across_dop_seeds_and_skew() {
    for seed in [8u64, 31] {
        for exponent in [0.5f64, 1.5] {
            let left: Vec<u32> = zipf_keys(30_000, 800, 0.8, seed);
            let right = zipf_keys(90_000, 1_000, exponent, seed + 5);
            let serial = sort_merge_join(&left, &right);
            for threads in THREAD_COUNTS {
                let pool = ThreadPool::new(threads);
                let (par, _) = parallel_sort_merge_join(
                    Some(&pool),
                    &left,
                    &right,
                    SortMolecule::Comparison,
                    &[],
                )
                .unwrap();
                // Bit-identical emission order, not just the same pair set.
                assert_eq!(
                    par.left_rows, serial.left_rows,
                    "seed={seed} exponent={exponent} threads={threads}"
                );
                assert_eq!(par.right_rows, serial.right_rows);
                assert!(par.sorted_by_key);
            }
        }
    }
}

#[test]
fn sort_based_exchange_plans_match_serial_execution() {
    use dqo::plan::physical::GroupingMolecules;
    use dqo::plan::{GroupingAlgorithm, JoinAlgorithm, PhysicalPlan};

    // Physical plans pinned to the sort-based organelles, serial vs
    // Exchange-wrapped: the executor's parallel SOG/SOJ/sort dispatch
    // must reproduce the serial output relations exactly.
    let cat = dqo::Catalog::new();
    let (r, s) = ForeignKeySpec {
        r_rows: 4_000,
        s_rows: 12_000,
        groups: 150,
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 17,
    }
    .generate()
    .unwrap();
    cat.register("R", r);
    cat.register("S", s);

    let soj = PhysicalPlan::Join {
        left: Box::new(PhysicalPlan::Scan { table: "R".into() }),
        right: Box::new(PhysicalPlan::Scan { table: "S".into() }),
        left_key: "id".into(),
        right_key: "r_id".into(),
        algo: JoinAlgorithm::SortOrderBased,
    };
    let sog = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Scan { table: "S".into() }),
        keys: vec!["r_id".into()],
        aggs: vec![dqo::plan::AggExpr::count_star("n")],
        algo: GroupingAlgorithm::SortOrderBased,
        molecules: GroupingMolecules::defaults_for(GroupingAlgorithm::SortOrderBased),
    };
    for plan in [soj, sog] {
        let serial = dqo::core::executor::execute(&plan, &cat).unwrap();
        for dop in [2, 8] {
            let wrapped = PhysicalPlan::Exchange {
                input: Box::new(plan.clone()),
                dop,
            };
            let par = dqo::core::executor::execute(&wrapped, &cat).unwrap();
            // Row-for-row identical (both emit in ascending key order).
            assert_eq!(par.relation.rows(), serial.relation.rows());
            for col in 0..serial.relation.schema().width() {
                assert_eq!(
                    format!("{:?}", par.relation.column_at(col).unwrap()),
                    format!("{:?}", serial.relation.column_at(col).unwrap()),
                    "dop={dop} column={col}"
                );
            }
        }
    }
}

/// Column-for-column bit-level equality via the raw buffer debug form.
fn assert_relations_identical(a: &dqo::Relation, b: &dqo::Relation, ctx: &str) {
    assert_eq!(a.rows(), b.rows(), "{ctx}");
    for c in 0..a.schema().width() {
        assert_eq!(
            format!("{:?}", a.column_at(c).unwrap()),
            format!("{:?}", b.column_at(c).unwrap()),
            "{ctx} column={c}"
        );
    }
}

/// Compare an AV artifact against the reference.
fn assert_artifacts_identical(par: AvArtifact, serial: AvArtifact, ctx: &str) {
    match (par, serial) {
        (AvArtifact::SortedProjection(p, at), AvArtifact::SortedProjection(s, _)) => {
            assert_eq!(at, p.rows(), "{ctx}: a build leaves no tail");
            assert_relations_identical(&p, &s, ctx)
        }
        (AvArtifact::MaterialisedGrouping(p), AvArtifact::MaterialisedGrouping(s)) => {
            assert_relations_identical(&p, &s, ctx)
        }
        (AvArtifact::SphIndex(p), AvArtifact::SphIndex(s)) => assert_eq!(p, s, "{ctx}"),
        other => panic!("{ctx}: artifact kinds diverged: {other:?}"),
    }
}

/// `sig`'s artifact over `entry` and its byte size, built from
/// `dqo-exec`'s kernels alone, never through `materialise_av`: `argsort`
/// then `Relation::gather`, `JoinIndex::identity`, `hash_grouping_chaining`
/// then `sort_by_key`. A composite key sorts its tuples (ties by row) and
/// groups them in a `BTreeMap`, summing the first key column.
fn reference_artifact(entry: &TableEntry, sig: &AvSignature) -> (AvArtifact, usize) {
    use dqo::storage::{Column, DataType, Field, Relation, Schema};
    let base = &entry.relation;
    let names = sig.key_columns();
    let cols: Vec<&[u32]> = names
        .iter()
        .map(|n| base.column(n).unwrap().as_u32().unwrap())
        .collect();
    let planned = plan_av(entry, sig).unwrap().byte_size;
    let tuple = |row: usize| cols.iter().map(|c| c[row]).collect::<Vec<u32>>();
    let artifact = match (sig.kind, &cols[..]) {
        (AvKind::SortedProjection, [keys]) => {
            AvArtifact::SortedProjection(Arc::new(base.gather(&argsort(keys))), base.rows())
        }
        (AvKind::SortedProjection, _) => {
            let mut order: Vec<u32> = (0..base.rows() as u32).collect();
            order.sort_by_key(|&row| tuple(row as usize));
            AvArtifact::SortedProjection(Arc::new(base.gather(&order)), base.rows())
        }
        (AvKind::SphIndex, [keys]) => {
            let props = entry.column_props[&sig.column];
            let index = JoinIndex::identity(keys, props.min, props.max).unwrap();
            let bytes = index.byte_size();
            return (AvArtifact::SphIndex(Arc::new(index)), bytes);
        }
        (AvKind::MaterialisedGrouping, [keys]) => {
            let mut g = hash_grouping_chaining(keys, keys, CountSum, keys.len().min(1 << 20));
            g.sort_by_key();
            let schema = Schema::new(vec![
                Field::new(&sig.column, DataType::U32),
                Field::new("count", DataType::U64),
                Field::new("sum", DataType::U64),
            ])
            .unwrap();
            let counts = g.states.iter().map(|s| s.count).collect();
            let sums = g.states.iter().map(|s| s.sum).collect();
            let columns = vec![Column::U32(g.keys), Column::U64(counts), Column::U64(sums)];
            AvArtifact::MaterialisedGrouping(Arc::new(Relation::new(schema, columns).unwrap()))
        }
        (AvKind::MaterialisedGrouping, _) => {
            let mut groups: BTreeMap<Vec<u32>, (u64, u64)> = BTreeMap::new();
            for (row, &first) in cols[0].iter().enumerate() {
                let group = groups.entry(tuple(row)).or_default();
                group.0 += 1;
                group.1 += u64::from(first);
            }
            let mut fields = Vec::new();
            let mut columns = Vec::new();
            for (i, name) in names.iter().enumerate() {
                let data: Vec<u32> = groups.keys().map(|k| k[i]).collect();
                let dtype = base.schema().field(name).unwrap().data_type;
                fields.push(Field::new(*name, dtype));
                columns.push(match dtype {
                    DataType::Str => Column::Str(data),
                    _ => Column::U32(data),
                });
            }
            fields.push(Field::new("count", DataType::U64));
            fields.push(Field::new("sum", DataType::U64));
            columns.push(Column::U64(groups.values().map(|g| g.0).collect()));
            columns.push(Column::U64(groups.values().map(|g| g.1).collect()));
            let rel = Relation::new(Schema::new(fields).unwrap(), columns).unwrap();
            AvArtifact::MaterialisedGrouping(Arc::new(rel))
        }
        (kind, _) => panic!("no composite {kind}"),
    };
    (artifact, planned)
}

/// Build `sig` over `entry` with no pool and on pools of 1, 2 and 8
/// workers, and check every build against [`reference_artifact`].
fn check_av_builds(entry: &TableEntry, sig: &AvSignature, ctx: &str) {
    let (expect, bytes) = reference_artifact(entry, sig);
    let pools = THREAD_COUNTS.map(ThreadPool::new);
    for leg in std::iter::once(None).chain(pools.iter().map(Some)) {
        let av = materialise_av(entry, sig, leg).unwrap();
        let ctx = format!("{ctx} threads={:?}", leg.map(ThreadPool::threads));
        assert_eq!(av.byte_size, bytes, "{ctx}");
        assert_artifacts_identical(av.artifact.unwrap(), expect.clone(), &ctx);
    }
}

const AV_KINDS: [AvKind; 3] = [
    AvKind::SortedProjection,
    AvKind::SphIndex,
    AvKind::MaterialisedGrouping,
];

#[test]
fn av_builds_bit_identical_across_dop_seeds_and_skew() {
    // The offline-AV story meets the parallel runtime: every AV kind,
    // built with no pool and through pools of 2 and 8 workers, must equal
    // the reference built from `dqo-exec`'s kernels bit for bit — across
    // datagen seeds and Zipf-skewed key columns (where morsel partials
    // and sort runs are maximally unbalanced). `wide` holds the same
    // keys spread over `u32`, so its grouping runs HG, whose one table on
    // the caller thread drains unsorted.
    for seed in [11u64, 0xAB] {
        for exponent in [0.0f64, 0.9, 1.4] {
            let keys = if exponent == 0.0 {
                DatasetSpec::new(60_000, 256)
                    .sorted(false)
                    .dense(true)
                    .seed(seed)
                    .generate()
                    .unwrap()
            } else {
                zipf_keys(60_000, 256, exponent, seed)
            };
            let payload: Vec<u32> = (0..keys.len() as u32).rev().collect();
            let wide: Vec<u32> = keys.iter().map(|k| k.wrapping_mul(0x9E37_79B1)).collect();
            let schema = dqo::storage::Schema::new(vec![
                dqo::storage::Field::new("key", dqo::storage::DataType::U32),
                dqo::storage::Field::new("val", dqo::storage::DataType::U32),
                dqo::storage::Field::new("wide", dqo::storage::DataType::U32),
            ])
            .unwrap();
            let rel = dqo::Relation::new(
                schema,
                vec![
                    dqo::storage::Column::U32(keys),
                    dqo::storage::Column::U32(payload),
                    dqo::storage::Column::U32(wide),
                ],
            )
            .unwrap();
            let entry = dqo::Catalog::new().register("t", rel);
            for kind in AV_KINDS {
                let sig = AvSignature::new("t", "key", kind);
                check_av_builds(
                    &entry,
                    &sig,
                    &format!("seed={seed} exponent={exponent} {kind}"),
                );
            }
            for kind in [AvKind::SortedProjection, AvKind::MaterialisedGrouping] {
                let sig = AvSignature::new("t", "wide", kind);
                let ctx = format!("seed={seed} exponent={exponent} wide {kind}");
                check_av_builds(&entry, &sig, &ctx);
            }
        }
    }
}

#[test]
fn av_builds_handle_degenerate_columns_at_every_dop() {
    // Empty and single-row key columns carry degenerate min/max stats;
    // all three kinds must still produce well-formed artifacts, with and
    // without a pool, identical to the reference.
    for data in [vec![], vec![7u32]] {
        let cat = dqo::Catalog::new();
        let entry = cat.register("t", dqo::Relation::single_u32("key", data.clone()));
        for kind in AV_KINDS {
            let sig = AvSignature::new("t", "key", kind);
            check_av_builds(&entry, &sig, &format!("rows={} kind={kind}", data.len()));
        }
    }
}

#[test]
fn background_av_builds_hold_the_admission_bound_under_query_load() {
    // Offline builds and live queries multiplex one pool: with a
    // max_inflight=2 controller, builds (one slot at a time) plus two
    // query sessions must never push the peak past the bound — and the
    // artifacts they leave behind must serve correct answers.
    let pool = std::sync::Arc::new(dqo::PersistentPool::with_admission(2, 2));
    let engine = dqo::Engine::with_shared_pool(std::sync::Arc::clone(&pool));
    engine.register_table(
        "t",
        DatasetSpec::new(150_000, 128)
            .sorted(false)
            .dense(true)
            .seed(5)
            .relation()
            .unwrap(),
    );
    // The canonical (count, sum) shape — the one a materialised-grouping
    // AV can answer outright, so the solver has something to select.
    let q = dqo::LogicalPlan::group_by(
        dqo::LogicalPlan::scan("t"),
        "key",
        vec![
            dqo::plan::AggExpr::count_star("count"),
            dqo::plan::AggExpr::on(dqo::plan::AggFunc::Sum, "key", "sum"),
        ],
    );
    let workload = vec![WorkloadQuery::new(q.clone(), 10.0)];
    let solution = avsp::solve(&workload, engine.catalog(), usize::MAX, Solver::Greedy).unwrap();
    assert!(!solution.selected.is_empty());

    let reference = sorted_rows(&engine.query(&q).unwrap().output.relation);
    let handle = engine.materialise_avs_background(&solution).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..5 {
                    let r = engine.query(&q).unwrap();
                    assert_eq!(sorted_rows(&r.output.relation), reference);
                }
            });
        }
    });
    let stats = handle.wait().unwrap();
    assert_eq!(stats.len(), solution.selected.len());
    assert!(
        pool.admission().peak_inflight() <= 2,
        "admission bound violated: peak={}",
        pool.admission().peak_inflight()
    );
    assert_eq!(pool.admission().inflight(), 0);
    // Queries keep agreeing with the reference once the AVs serve them.
    let via_avs = engine.query(&q).unwrap();
    assert_eq!(sorted_rows(&via_avs.output.relation), reference);
}

#[test]
fn filter_matches_serial_across_threads() {
    let sql = "SELECT key FROM t WHERE key < 100";
    let reference = run_sorted(&db_with_table(150_000, 1_000, 5, 1), sql);
    for threads in THREAD_COUNTS {
        let db = db_with_table(150_000, 1_000, 5, threads);
        assert_eq!(run_sorted(&db, sql), reference, "threads={threads}");
    }
}

#[test]
fn parallel_execution_is_deterministic_across_repeated_runs() {
    let sql = "SELECT key, COUNT(*) AS n, SUM(key) AS s FROM t GROUP BY key";
    let db = db_with_table(250_000, 512, 21, 8);
    let first = db.sql(sql).unwrap().output.relation;
    for run in 0..4 {
        let again = db.sql(sql).unwrap().output.relation;
        assert_eq!(again.rows(), first.rows(), "run={run}");
        // Byte-identical, not just set-equal: compare columns in order.
        for col in ["key", "n", "s"] {
            assert_eq!(
                format!("{:?}", again.column(col).unwrap()),
                format!("{:?}", first.column(col).unwrap()),
                "run={run} column={col}"
            );
        }
    }
}

#[test]
fn shallow_mode_parallelises_too() {
    // SQO cannot see density (no SPHG/SPHJ) but the DOP annotation is
    // orthogonal: parallel HG must kick in on large inputs and agree.
    let sql = "SELECT key, COUNT(*) AS n FROM t GROUP BY key";
    let mut serial_db = db_with_table(200_000, 300, 13, 1);
    serial_db.set_mode(OptimizerMode::Shallow);
    let reference = run_sorted(&serial_db, sql);
    let mut par_db = db_with_table(200_000, 300, 13, 4);
    par_db.set_mode(OptimizerMode::Shallow);
    let explain = par_db.explain(sql).unwrap();
    assert!(explain.contains("Exchange"), "plan: {explain}");
    assert!(explain.contains("HG"), "plan: {explain}");
    assert_eq!(run_sorted(&par_db, sql), reference);
}

// ---------------------------------------------------------------------------
// The widened SQL surface: string predicates + multi-column grouping
// ---------------------------------------------------------------------------

/// Build m(key, val, cat): `key` u32 (optionally Zipf-skewed), `val` u32,
/// `cat` a dictionary-encoded string with shared prefixes.
fn mixed_relation(rows: usize, groups: usize, seed: u64, exponent: f64) -> dqo::Relation {
    use dqo::storage::{Column, DataType, Dictionary, Field, Relation, Schema};
    const CATS: [&str; 8] = [
        "alpha", "alps", "beta", "bravo", "brim", "charlie", "delta", "deep",
    ];
    let keys = if exponent > 0.0 {
        zipf_keys(rows, groups, exponent, seed)
    } else {
        DatasetSpec::new(rows, groups)
            .sorted(false)
            .dense(true)
            .seed(seed)
            .generate()
            .unwrap()
    };
    // A cheap deterministic stream decorrelated from the key column.
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let vals: Vec<u32> = (0..rows).map(|_| (next() % 10_000) as u32).collect();
    let cats: Vec<&str> = (0..rows)
        .map(|_| CATS[(next() % CATS.len() as u64) as usize])
        .collect();
    let (dict, codes) = Dictionary::encode_all(&cats);
    Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("val", DataType::U32),
            Field::new("cat", DataType::Str),
        ])
        .unwrap(),
        vec![Column::U32(keys), Column::U32(vals), Column::Str(codes)],
    )
    .unwrap()
    .with_dictionary("cat", std::sync::Arc::new(dict))
    .unwrap()
}

fn mixed_db(rows: usize, groups: usize, seed: u64, exponent: f64, threads: usize) -> Dqo {
    let mut db = Dqo::new();
    db.engine_mut().set_threads(threads);
    db.register_table("m", mixed_relation(rows, groups, seed, exponent));
    db
}

#[test]
fn str_filters_and_multi_column_grouping_match_serial_across_threads() {
    // String predicates (=, </>, prefix LIKE) and one- and two-column
    // groupings over a mixed u32/Str table: bit-identical to the serial
    // engine at every DOP, across seeds and Zipf skews.
    let sqls = [
        "SELECT cat, key, COUNT(*) AS n, SUM(val) AS s FROM m GROUP BY cat, key",
        "SELECT key, cat, COUNT(*) AS n, MIN(val) AS lo, MAX(val) AS hi FROM m \
         WHERE cat LIKE 'b%' GROUP BY key, cat",
        "SELECT cat, COUNT(*) AS n FROM m WHERE cat >= 'beta' AND key < 100 GROUP BY cat",
        "SELECT key, COUNT(*) AS n FROM m WHERE cat = 'charlie' GROUP BY key",
    ];
    for seed in [9u64, 0xFEED] {
        for exponent in [0.0f64, 1.2] {
            for sql in sqls {
                let reference = run_sorted(&mixed_db(120_000, 256, seed, exponent, 1), sql);
                for threads in THREAD_COUNTS {
                    let db = mixed_db(120_000, 256, seed, exponent, threads);
                    assert_eq!(
                        run_sorted(&db, sql),
                        reference,
                        "seed={seed} exponent={exponent} threads={threads} {sql}"
                    );
                }
            }
        }
    }
    // Sanity: at this scale the two-column grouping really goes parallel.
    let explain = mixed_db(120_000, 256, 9, 0.0, 4).explain(sqls[0]).unwrap();
    assert!(explain.contains("Exchange"), "plan: {explain}");
    assert!(explain.contains("γ[cat,key]"), "plan: {explain}");
}

#[test]
fn multi_column_grouping_kernels_bit_identical_across_dop() {
    use dqo::plan::physical::GroupingMolecules;
    use dqo::plan::{GroupingAlgorithm, PhysicalPlan};

    // Pinned physical plans for each composite-capable organelle,
    // Exchange-wrapped at every DOP: the packed parallel kernels must
    // reproduce the serial output relation byte for byte (both sides
    // normalise to ascending packed order).
    let cat = dqo::Catalog::new();
    cat.register("m", mixed_relation(80_000, 64, 23, 1.1));
    let group_by = |algo| PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Scan { table: "m".into() }),
        keys: vec!["cat".into(), "key".into()],
        aggs: vec![
            dqo::plan::AggExpr::count_star("n"),
            dqo::plan::AggExpr::on(dqo::plan::AggFunc::Sum, "val", "s"),
        ],
        algo,
        molecules: GroupingMolecules::defaults_for(algo),
    };
    for algo in [
        GroupingAlgorithm::HashBased,
        GroupingAlgorithm::StaticPerfectHash,
        GroupingAlgorithm::SortOrderBased,
    ] {
        let serial = dqo::core::executor::execute(&group_by(algo), &cat).unwrap();
        for dop in THREAD_COUNTS {
            let wrapped = PhysicalPlan::Exchange {
                input: Box::new(group_by(algo)),
                dop,
            };
            let par = dqo::core::executor::execute(&wrapped, &cat).unwrap();
            assert_relations_identical(
                &par.relation,
                &serial.relation,
                &format!("{algo:?} dop={dop}"),
            );
        }
    }
}

#[test]
fn parallel_hg_runs_every_planned_molecule_pair() {
    use dqo::plan::physical::GroupingMolecules;
    use dqo::plan::{GroupingAlgorithm, HashFnMolecule, PhysicalPlan, TableMolecule};

    // The plan names a (table, hash) molecule pair for HG; serial and
    // morsel-parallel execution must both run it, and whichever pair it
    // is, the key-ordered merge makes the parallel output one relation:
    // equal to the serial groups, and byte-identical across pairs and DOPs.
    let cat = dqo::Catalog::new();
    cat.register(
        "t",
        DatasetSpec::new(90_000, 700)
            .sorted(false)
            .dense(false)
            .seed(5)
            .relation()
            .unwrap(),
    );
    let group_by = |table, hash| PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Scan { table: "t".into() }),
        keys: vec!["key".into()],
        aggs: vec![
            dqo::plan::AggExpr::count_star("n"),
            dqo::plan::AggExpr::on(dqo::plan::AggFunc::Sum, "key", "s"),
        ],
        algo: GroupingAlgorithm::HashBased,
        molecules: GroupingMolecules {
            table: Some(table),
            hash: Some(hash),
            ..GroupingMolecules::default()
        },
    };
    let mut first: Option<dqo::Relation> = None;
    for table in [
        TableMolecule::Chaining,
        TableMolecule::LinearProbing,
        TableMolecule::RobinHood,
    ] {
        for hash in [
            HashFnMolecule::Murmur3,
            HashFnMolecule::Fibonacci,
            HashFnMolecule::Identity,
        ] {
            let serial = dqo::core::executor::execute(&group_by(table, hash), &cat).unwrap();
            for dop in THREAD_COUNTS {
                let wrapped = PhysicalPlan::Exchange {
                    input: Box::new(group_by(table, hash)),
                    dop,
                };
                let par = dqo::core::executor::execute(&wrapped, &cat).unwrap();
                let what = format!("{table:?}/{hash:?} dop={dop}");
                assert_eq!(
                    sorted_rows(&par.relation),
                    sorted_rows(&serial.relation),
                    "{what}"
                );
                let reference = first.get_or_insert_with(|| par.relation.clone());
                assert_relations_identical(&par.relation, reference, &what);
            }
        }
    }
}

/// Figure 3 has one executor: each of the 50 complete deep grouping plans
/// lowers to a `GroupBy` over a `Scan` and runs through `execute`, serially
/// and under `Exchange dop=2`. On sorted dense input every plan equals a
/// `BTreeMap` reference. On unsorted input every plan but pass-through
/// does, and pass-through (OG) returns its typed precondition error.
/// Empty input gives empty groups.
#[test]
fn every_deep_grouping_plan_runs_through_execute() {
    use dqo::core::CoreError;
    use dqo::exec::ExecError;
    use dqo::plan::deep::enumerate_grouping_plans;
    use dqo::plan::{AggExpr, AggFunc, GroupingAlgorithm, PhysicalPlan};
    use std::collections::BTreeMap;

    let reference = |keys: &[u32]| -> Vec<Vec<Value>> {
        let mut groups: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for &k in keys {
            let g = groups.entry(k).or_default();
            g.0 += 1;
            g.1 += u64::from(k);
        }
        groups
            .into_iter()
            .map(|(k, (n, s))| vec![Value::U32(k), Value::U64(n), Value::U64(s)])
            .collect()
    };
    let cat = dqo::Catalog::new();
    let mut inputs = Vec::new();
    for (name, sorted) in [("sorted", true), ("unsorted", false)] {
        let keys = DatasetSpec::new(3_000, 40)
            .sorted(sorted)
            .dense(true)
            .generate()
            .unwrap();
        inputs.push((name, sorted, reference(&keys)));
        cat.register(name, dqo::Relation::single_u32("key", keys));
    }
    cat.register("empty", dqo::Relation::single_u32("key", vec![]));
    inputs.push(("empty", true, Vec::new()));

    let plans = enumerate_grouping_plans();
    assert_eq!(plans.len(), 50);
    for plan in &plans {
        let (algo, molecules, _) = plan.lower().unwrap_or_else(|| panic!("{plan}"));
        for (name, sorted, expected) in &inputs {
            let group_by = PhysicalPlan::GroupBy {
                input: Box::new(PhysicalPlan::Scan {
                    table: name.to_string(),
                }),
                keys: vec!["key".into()],
                aggs: vec![
                    AggExpr::count_star("n"),
                    AggExpr::on(AggFunc::Sum, "key", "s"),
                ],
                algo,
                molecules,
            };
            let exchange = PhysicalPlan::Exchange {
                input: Box::new(group_by.clone()),
                dop: 2,
            };
            let violates = !sorted && algo == GroupingAlgorithm::OrderBased;
            for physical in [group_by, exchange] {
                let what = format!("{name} input:\n{physical}\nlowered from:\n{plan}");
                match dqo::core::executor::execute(&physical, &cat) {
                    Ok(out) if !violates => {
                        assert_eq!(sorted_rows(&out.relation), *expected, "{what}")
                    }
                    Err(CoreError::Exec(ExecError::PreconditionViolated { .. })) if violates => {}
                    other => panic!("{what}\ngot {:?}", other.map(|o| o.relation.rows())),
                }
            }
        }
    }
}

#[test]
fn multi_column_grouping_degenerate_tables_match_across_threads() {
    use dqo::storage::{Column, DataType, Dictionary, Field, Relation, Schema};

    let make = |keys: Vec<u32>, cats: Vec<&str>| {
        let (dict, codes) = Dictionary::encode_all(&cats);
        Relation::new(
            Schema::new(vec![
                Field::new("key", DataType::U32),
                Field::new("cat", DataType::Str),
            ])
            .unwrap(),
            vec![Column::U32(keys), Column::Str(codes)],
        )
        .unwrap()
        .with_dictionary("cat", std::sync::Arc::new(dict))
        .unwrap()
    };
    let tables = [
        ("empty", make(vec![], vec![])),
        ("single-row", make(vec![7], vec!["only"])),
        ("all-equal", make(vec![5; 1000], vec!["same"; 1000])),
    ];
    let sqls = [
        "SELECT cat, key, COUNT(*) AS n FROM m GROUP BY cat, key",
        "SELECT key, COUNT(*) AS n FROM m WHERE cat LIKE 's%' GROUP BY key",
    ];
    for (name, rel) in &tables {
        for sql in sqls {
            let mut reference: Option<Vec<Vec<Value>>> = None;
            for threads in THREAD_COUNTS {
                let mut db = Dqo::new();
                db.engine_mut().set_threads(threads);
                db.register_table("m", rel.clone());
                let rows = run_sorted(&db, sql);
                match &reference {
                    None => reference = Some(rows),
                    Some(expect) => {
                        assert_eq!(&rows, expect, "{name} threads={threads} {sql}")
                    }
                }
            }
        }
    }
}

#[test]
fn composite_av_builds_bit_identical_across_dop() {
    // Composite-key AVs (sorted projection + materialised grouping over
    // `cat+key`), built with and without a pool, equal the reference bit
    // for bit — including degenerate bases.
    let keys: Vec<String> = vec!["cat".into(), "key".into()];
    for (name, rel) in [
        ("mixed", mixed_relation(60_000, 64, 31, 1.2)),
        ("empty", mixed_relation(0, 1, 1, 0.0)),
        ("single-row", mixed_relation(1, 1, 2, 0.0)),
    ] {
        for kind in [AvKind::SortedProjection, AvKind::MaterialisedGrouping] {
            let sig = AvSignature::composite("m", &keys, kind);
            let entry = dqo::Catalog::new().register("m", rel.clone());
            check_av_builds(&entry, &sig, &format!("{name} {kind}"));
        }
    }
    // Composite SPH join indexes are rejected at planning time.
    let entry = dqo::Catalog::new().register("m", mixed_relation(100, 4, 1, 0.0));
    let sig = AvSignature::composite("m", &keys, AvKind::SphIndex);
    assert!(dqo::core::av::plan_av(&entry, &sig).is_err());
}

/// A table of `(key, row)`: each key beside its row id, so a join's
/// output names the rows it paired.
fn keyed(key: &str, keys: &[u32]) -> dqo::Relation {
    use dqo::storage::{Column, DataType, Field, Relation, Schema};
    let schema = Schema::new(vec![
        Field::new(key, DataType::U32),
        Field::new(format!("{key}_row"), DataType::U32),
    ])
    .unwrap();
    let rows = (0..keys.len() as u32).collect();
    Relation::new(schema, vec![Column::U32(keys.to_vec()), Column::U32(rows)]).unwrap()
}

/// `plan` under `Exchange dop`, executed traced: its rows in order, and
/// whether the Exchange dispatched morsels. A precondition failure comes
/// back as the kernel's typed error.
fn on_pool(
    plan: &dqo::plan::PhysicalPlan,
    dop: usize,
    cat: &dqo::Catalog,
) -> Result<(Vec<Vec<Value>>, bool), dqo::core::CoreError> {
    use dqo::core::executor::{execute_with, ExecContext};
    let wrapped = dqo::plan::PhysicalPlan::Exchange {
        input: Box::new(plan.clone()),
        dop,
    };
    let traced = ExecContext {
        collect_metrics: true,
        ..ExecContext::default()
    };
    let (out, nodes) = execute_with(&wrapped, cat, &traced)?;
    let rows = (0..out.relation.rows())
        .map(|i| out.relation.row(i).unwrap())
        .collect();
    Ok((rows, nodes[0].morsels > 0))
}

/// The `u32` column `name` of `plan`'s output, in order.
fn column_of(plan: &dqo::plan::PhysicalPlan, name: &str, cat: &dqo::Catalog) -> Vec<u32> {
    let out = dqo::core::executor::execute(plan, cat).unwrap().relation;
    out.column(name).unwrap().as_u32().unwrap().to_vec()
}

fn is_precondition<T>(r: &Result<T, dqo::core::CoreError>, organelle: &str) -> bool {
    use dqo::core::CoreError;
    use dqo::exec::ExecError;
    matches!(
        r,
        Err(CoreError::Exec(ExecError::PreconditionViolated { algorithm, .. })) if *algorithm == organelle
    )
}

/// Ascending keys over three morsels and a bit: runs of 70 000 rows, so
/// that a key run crosses every piece boundary; runs of 7; one group.
fn ascending_inputs() -> Vec<(&'static str, Vec<u32>)> {
    let n = 3 * dqo::parallel::DEFAULT_MORSEL_ROWS as u32 + 1_000;
    vec![
        ("straddling", (0..n).map(|i| i / 70_000 * 3).collect()),
        ("short runs", (0..n).map(|i| i / 7 * 2 + 5).collect()),
        ("one group", vec![42; n as usize]),
        ("one row", vec![9]),
        ("empty", vec![]),
    ]
}

/// OG and BSG under `Exchange dop=1/2/8` fold their pieces on the pool,
/// and their output is `order_grouping`'s and
/// `binary_search_grouping_discover`'s, group for group and in order — over
/// key runs that cross every piece boundary, one giant group, a pruned
/// partitioned scan whose pieces stop at partition bounds, one row and
/// none. OG over an input not partitioned by key fails with its typed
/// error at every DOP, also when the one key that reappears does so only
/// across pieces.
#[test]
fn og_and_bsg_on_the_pool_equal_their_serial_kernels() {
    use dqo::exec::aggregate::FullAgg;
    use dqo::exec::grouping::bsg::binary_search_grouping_discover;
    use dqo::exec::grouping::og::order_grouping;
    use dqo::plan::physical::GroupingMolecules;
    use dqo::plan::{AggExpr, AggFunc, GroupingAlgorithm, PhysicalPlan};
    use dqo::storage::{PartitionSpec, PartitionedRelation};

    let cat = dqo::Catalog::new();
    let scan = |table: &str| PhysicalPlan::Scan {
        table: table.into(),
    };
    let mut inputs: Vec<(String, PhysicalPlan)> = Vec::new();
    for (name, keys) in ascending_inputs() {
        cat.register(name, keyed("key", &keys));
        inputs.push((name.into(), scan(name)));
    }
    // Six range partitions of the short runs; the scan keeps 1, 2 and 4.
    let (_, short) = ascending_inputs().swap_remove(1);
    let spec = PartitionSpec::range("key", (1..6).map(|i| i * 10_000).collect());
    cat.register_partitioned(
        "parted",
        PartitionedRelation::new(keyed("key", &short), spec).unwrap(),
    );
    let parted = PhysicalPlan::PartitionedScan {
        table: "parted".into(),
        parts: vec![1, 2, 4],
        total: 6,
    };
    inputs.push(("partitioned".into(), parted));

    let group_by = |input: &PhysicalPlan, algo| PhysicalPlan::GroupBy {
        input: Box::new(input.clone()),
        keys: vec!["key".into()],
        aggs: vec![
            AggExpr::count_star("n"),
            AggExpr::on(AggFunc::Sum, "key_row", "s"),
            AggExpr::on(AggFunc::Max, "key_row", "hi"),
        ],
        algo,
        molecules: GroupingMolecules::defaults_for(algo),
    };
    for (name, input) in &inputs {
        let keys = column_of(input, "key", &cat);
        let values = column_of(input, "key_row", &cat);
        let og = order_grouping(&keys, &values, FullAgg).unwrap();
        let bsg = binary_search_grouping_discover(&keys, &values, FullAgg);
        for (algo, serial) in [
            (GroupingAlgorithm::OrderBased, og),
            (GroupingAlgorithm::BinarySearch, bsg),
        ] {
            let expect: Vec<Vec<Value>> = (serial.keys.iter().zip(&serial.states))
                .map(|(&k, s)| {
                    vec![
                        Value::U32(k),
                        Value::U64(s.count),
                        Value::U64(s.sum),
                        Value::U32(s.max),
                    ]
                })
                .collect();
            for dop in THREAD_COUNTS {
                let (rows, pooled) = on_pool(&group_by(input, algo), dop, &cat).unwrap();
                assert!(rows == expect, "{algo:?} over {name} at dop={dop}");
                assert!(
                    pooled || keys.is_empty(),
                    "{algo:?} over {name} at dop={dop}"
                );
            }
        }
    }

    // Not partitioned by key: every key in every piece, and ascending keys
    // whose last row repeats the first key, three pieces away.
    let n = 3 * dqo::parallel::DEFAULT_MORSEL_ROWS as u32 + 1_000;
    let mut last_is_first: Vec<u32> = (0..n).map(|i| i / 7 + 1).collect();
    last_is_first[n as usize - 1] = 1;
    let cyclic: Vec<u32> = (0..n).map(|i| i % 1_000).collect();
    for (name, keys) in [("cyclic", cyclic), ("last is first", last_is_first)] {
        cat.register(name, keyed("key", &keys));
        let serial = order_grouping(&keys, &keys, FullAgg);
        assert!(serial.is_err(), "{name}");
        for dop in THREAD_COUNTS {
            let r = on_pool(
                &group_by(&scan(name), GroupingAlgorithm::OrderBased),
                dop,
                &cat,
            );
            assert!(
                is_precondition(&r, "OG"),
                "{name} dop={dop}: {:?}",
                r.map(|_| ())
            );
        }
    }
}

/// The pairs of a nested-loop join, outer row by outer row and each
/// outer row's inner rows in row order, as `(outer, inner)` row ids. The
/// inner rows of a key come from a map, so it shares no code with the
/// engine's merge or probe: OJ over ascending sides emits its pairs in
/// this order with the left side outer, BSJ with the probe side outer.
fn nested_loop(outer: &[u32], inner: &[u32]) -> Vec<(u32, u32)> {
    let mut rows: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (r, &k) in (0..).zip(inner) {
        rows.entry(k).or_default().push(r);
    }
    let matches = |k| rows.get(k).into_iter().flatten();
    (0..)
        .zip(outer)
        .flat_map(|(o, k)| matches(k).map(move |&r| (o, r)))
        .collect()
}

/// OJ and BSJ under `Exchange dop=1/2/8` run their loops on the pool, and
/// their output pairs are `merge_join`'s and `binary_search_join`'s, in
/// order, and a nested-loop join's — over a build key run that spans
/// every partition cut (to the end of the build side, too), a probe
/// key run that crosses every morsel boundary, a partitioned build side,
/// one row and none; BSJ also over unsorted sides. OJ over a side that
/// does not ascend fails with its typed error at every DOP, also when the
/// rows out of order sit above the build side's last key, where no
/// partition's key range reaches.
#[test]
fn oj_and_bsj_on_the_pool_equal_their_serial_kernels() {
    use dqo::exec::join::bsj::binary_search_join;
    use dqo::exec::join::oj::merge_join;
    use dqo::plan::{JoinAlgorithm, PhysicalPlan};
    use dqo::storage::{PartitionSpec, PartitionedRelation};

    let n = 3 * dqo::parallel::DEFAULT_MORSEL_ROWS as u32 + 1_000;
    let runs_of_three: Vec<u32> = (0..60_000).map(|i| i / 3).collect();
    let probe_runs: Vec<u32> = (0..n).map(|i| i / 70_000 * 5_000).collect();
    let mut giant = vec![7u32; 50_000];
    giant.extend([8, 9]);
    let mut giant_last = vec![1u32, 2];
    giant_last.extend([7; 50_000]);
    let unsorted_build: Vec<u32> = (0..3_000u32)
        .map(|i| i.wrapping_mul(7_919) % 1_000)
        .collect();
    let unsorted_probe: Vec<u32> = (0..n).map(|i| i.wrapping_mul(31) % 1_200).collect();
    let cases: Vec<(&str, Vec<u32>, Vec<u32>, bool)> = vec![
        ("probe runs", runs_of_three.clone(), probe_runs, true),
        ("giant build run", giant, vec![1, 7, 7, 9, 10], true),
        (
            "giant last build run",
            giant_last,
            vec![1, 7, 7, 9, 10],
            true,
        ),
        ("giant probe run", vec![3, 7, 8], vec![7; n as usize], true),
        ("one row", vec![4], vec![4], true),
        ("empty build", vec![], vec![1, 2], true),
        ("empty probe", vec![1, 2], vec![], true),
        ("unsorted", unsorted_build, unsorted_probe, false),
    ];
    let scan = |table: &str| {
        Box::new(PhysicalPlan::Scan {
            table: table.into(),
        })
    };
    let join = |left: Box<PhysicalPlan>, right: &str, algo| PhysicalPlan::Join {
        left,
        right: scan(right),
        left_key: "bk".into(),
        right_key: "pk".into(),
        algo,
    };
    let cat = dqo::Catalog::new();
    let mut plans = Vec::new();
    for (name, left, right, sorted) in cases {
        let (b, p) = (format!("{name} b"), format!("{name} p"));
        cat.register(&b, keyed("bk", &left));
        cat.register(&p, keyed("pk", &right));
        plans.push((name.to_string(), scan(&b), p, sorted));
    }
    // The build side in four range partitions, scanning 0, 2 and 3.
    let spec = PartitionSpec::range("bk", vec![5_000, 10_000, 15_000]);
    let parted = PartitionedRelation::new(keyed("bk", &runs_of_three), spec).unwrap();
    cat.register_partitioned("parted b", parted);
    let parted = Box::new(PhysicalPlan::PartitionedScan {
        table: "parted b".into(),
        parts: vec![0, 2, 3],
        total: 4,
    });
    plans.push(("partitioned".into(), parted, "probe runs p".into(), true));

    for (name, build, probe, sorted) in &plans {
        let (left, right) = (
            column_of(build, "bk", &cat),
            column_of(&scan(probe), "pk", &cat),
        );
        let (left_rows, right_rows) = (
            column_of(build, "bk_row", &cat),
            column_of(&scan(probe), "pk_row", &cat),
        );
        let mut legs = vec![(
            JoinAlgorithm::BinarySearch,
            binary_search_join(&left, &right),
        )];
        if *sorted {
            legs.push((
                JoinAlgorithm::OrderBased,
                merge_join(&left, &right).unwrap(),
            ));
        }
        for (algo, serial) in legs {
            let pairs = (serial.left_rows.iter().copied()).zip(serial.right_rows.iter().copied());
            let reference = match algo {
                JoinAlgorithm::OrderBased => nested_loop(&left, &right),
                _ => (nested_loop(&right, &left).into_iter())
                    .map(|(r, l)| (l, r))
                    .collect(),
            };
            assert!(pairs.eq(reference), "{algo:?} over {name}: serial order");
            let expect: Vec<Vec<Value>> = (serial.left_rows.iter().zip(&serial.right_rows))
                .map(|(&l, &r)| {
                    let (l, r) = (l as usize, r as usize);
                    [left[l], left_rows[l], right[r], right_rows[r]]
                        .map(Value::U32)
                        .to_vec()
                })
                .collect();
            for dop in THREAD_COUNTS {
                let (rows, pooled) = on_pool(&join(build.clone(), probe, algo), dop, &cat).unwrap();
                assert!(rows == expect, "{algo:?} over {name} at dop={dop}");
                assert!(
                    pooled || left.is_empty() || right.is_empty(),
                    "{algo:?} over {name} at dop={dop}"
                );
            }
        }
    }

    // Not ascending: a build side out of order, and a probe side whose last
    // two rows swap above the build side's last key.
    let mut swapped: Vec<u32> = (0..100_000).collect();
    swapped.swap(99_998, 99_999);
    let unsorted: Vec<u32> = (0..40_000u32).map(|i| (40_000 - i) / 2).collect();
    let steps: Vec<u32> = (0..4_000).map(|i| i / 2 * 10).collect();
    for (name, left, right) in [
        ("build out of order", unsorted, steps.clone()),
        ("probe out of order past the build", steps, swapped),
    ] {
        assert!(merge_join(&left, &right).is_err(), "{name}");
        let (b, p) = (format!("{name} b"), format!("{name} p"));
        cat.register(&b, keyed("bk", &left));
        cat.register(&p, keyed("pk", &right));
        for dop in THREAD_COUNTS {
            let r = on_pool(&join(scan(&b), &p, JoinAlgorithm::OrderBased), dop, &cat);
            assert!(
                is_precondition(&r, "OJ"),
                "{name} dop={dop}: {:?}",
                r.map(|_| ())
            );
        }
    }
}

/// A join index memoised on its build table's entry answers as one built
/// for the query at every DOP, over a probe side of several morsels: for
/// unique dense and repeated build keys under SPHJ and sparse ones under
/// HJ, at DOP 1, 2 and 8, the join under build- and probe-side
/// conjuncts with a projection of build and probe columns, and under an
/// SPHG grouping on a build column each equal, row for row, the
/// same plan over a build side that is not a whole scan, a second run
/// (which reads the memo) and the plan at DOP 1, which equals
/// `naive_eval` as sorted rows — before and
/// after appends of new and of repeated keys to the build table, and
/// after a re-registration.
#[test]
fn memoised_join_indexes_match_per_query_builds_at_every_dop() {
    use dqo::core::executor::{execute_with, naive_eval, ExecContext};
    use dqo::parallel::DEFAULT_MORSEL_ROWS;
    use dqo::plan::physical::GroupingMolecules;
    use dqo::plan::{
        AggExpr, AggFunc, CmpOp, GroupingAlgorithm, LogicalPlan, PhysicalPlan, Predicate,
    };
    use dqo::storage::{Column, DataType, Field, Relation, Schema};
    const BUILD: u32 = 48;
    const PROBE: u32 = DEFAULT_MORSEL_ROWS as u32 + 4_000;
    let relation = |names: [&str; 2], a: Vec<u32>, b: Vec<u32>| {
        let fields = names
            .iter()
            .map(|n| Field::new(*n, DataType::U32))
            .collect();
        Relation::new(
            Schema::new(fields).unwrap(),
            vec![Column::U32(a), Column::U32(b)],
        )
        .unwrap()
    };
    let both = Predicate::And(vec![
        Predicate::cmp("g", CmpOp::Lt, 60u32),
        Predicate::cmp("y", CmpOp::Ge, 250u32),
    ]);
    let aggs = vec![
        AggExpr::count_star("n"),
        AggExpr::on(AggFunc::Sum, "y", "s"),
    ];
    let columns = vec!["g".to_string(), "y".to_string()];
    let logical = LogicalPlan::join(LogicalPlan::scan("b"), LogicalPlan::scan("p"), "id", "fk");
    let filtered = LogicalPlan::filter(logical, both.clone());
    let logicals = [
        LogicalPlan::project(Arc::clone(&filtered), columns.clone()),
        LogicalPlan::group_by(filtered, "g", aggs.clone()),
    ];
    // The two plans over `left ⋈ p` under `algo` at `dop`.
    let plans = |left: PhysicalPlan, algo: JoinAlgorithm, dop: usize| {
        let exchange = |plan: PhysicalPlan| match dop {
            1 => plan,
            _ => PhysicalPlan::Exchange {
                input: Box::new(plan),
                dop,
            },
        };
        let join = exchange(PhysicalPlan::Join {
            left: Box::new(left),
            right: Box::new(PhysicalPlan::Scan { table: "p".into() }),
            left_key: "id".into(),
            right_key: "fk".into(),
            algo,
        });
        let filter = || {
            Box::new(PhysicalPlan::Filter {
                input: Box::new(join.clone()),
                predicate: both.clone(),
            })
        };
        let sph = GroupingAlgorithm::StaticPerfectHash;
        [
            exchange(PhysicalPlan::Project {
                input: filter(),
                columns: columns.clone(),
            }),
            exchange(PhysicalPlan::GroupBy {
                input: filter(),
                keys: vec!["g".into()],
                aggs: aggs.clone(),
                algo: sph,
                molecules: GroupingMolecules::defaults_for(sph),
            }),
        ]
    };
    let traced = ExecContext {
        collect_metrics: true,
        ..ExecContext::default()
    };
    let shapes = [
        ("dense", JoinAlgorithm::StaticPerfectHash),
        ("repeated", JoinAlgorithm::StaticPerfectHash),
        ("sparse", JoinAlgorithm::HashBased),
    ];
    for (shape, algo) in shapes {
        let key = |i: u32| match shape {
            "dense" => i,
            "repeated" => i / 4,
            _ => i.wrapping_mul(2_654_435_761),
        };
        // `b(id, g)` over keys `from..to` in a scrambled row order; `p(fk,
        // y)` probes keys of the first `BUILD + 8` indexes, some held by
        // no row until the appends.
        let build = |from: u32, to: u32| {
            let ids = (0..to - from).map(|r| key(from + r * 7_919 % (to - from)));
            let ids: Vec<u32> = ids.collect();
            let g = ids.iter().map(|&k| k.wrapping_mul(31) % 97).collect();
            relation(["id", "g"], ids, g)
        };
        let fk = (0..PROBE).map(|i| key(i.wrapping_mul(40_503) % (BUILD + 8)));
        let y = (0..PROBE).map(|i| i * 13 % 1_000);
        let cat = dqo::Catalog::new();
        cat.register("b", build(0, BUILD));
        cat.register("p", relation(["fk", "y"], fk.collect(), y.collect()));
        let append = |rows: Relation| {
            let from = cat.get("b").unwrap();
            let cells: Vec<Vec<Value>> = (0..rows.rows()).map(|r| rows.row(r).unwrap()).collect();
            let grown = from.relation.append_rows(&cells).unwrap();
            cat.replace_data("b", &from, grown.combined, None).unwrap();
        };
        for step in ["registered", "appended", "re-registered"] {
            match step {
                "appended" => {
                    append(build(BUILD, BUILD + 8));
                    append(build(0, 24));
                }
                "re-registered" => {
                    cat.register("b", build(4, BUILD + 8));
                }
                _ => {}
            }
            let naive = logicals
                .each_ref()
                .map(|l| sorted_rows(&naive_eval(l, &cat).unwrap()));
            let same = |a: &Relation, b: &Relation, ctx: &str| {
                assert_eq!(a.schema(), b.schema(), "{ctx}");
                for c in 0..a.schema().width() {
                    assert!(
                        a.column_at(c).unwrap() == b.column_at(c).unwrap(),
                        "{ctx}: {c}"
                    );
                }
            };
            let run = |plan: &PhysicalPlan| {
                let (out, nodes) = execute_with(plan, &cat, &traced).unwrap();
                let from = nodes.iter().find_map(|m| m.index.as_ref().map(|i| i.0));
                (out.relation, from.unwrap())
            };
            let mut serial = Vec::new();
            for dop in THREAD_COUNTS {
                let whole = PhysicalPlan::Scan { table: "b".into() };
                let limited = PhysicalPlan::Limit {
                    input: Box::new(whole.clone()),
                    n: u64::MAX,
                };
                let pairs = plans(whole, algo, dop)
                    .into_iter()
                    .zip(plans(limited, algo, dop));
                for (i, (memo, built)) in pairs.enumerate() {
                    let ctx = format!("{shape} {algo:?} dop={dop} {step}: plan {i}");
                    let (out, from) = run(&memo);
                    assert_eq!(from, "memo", "{ctx}");
                    let (want, from) = run(&built);
                    assert_eq!(from, "built", "{ctx}");
                    same(&out, &want, &ctx);
                    assert!(out.rows() > 0, "{ctx}");
                    match dop {
                        1 => {
                            same(&run(&memo).0, &out, &ctx);
                            assert_eq!(sorted_rows(&out), naive[i], "{ctx}");
                            serial.push(out);
                        }
                        _ => same(&out, &serial[i], &ctx),
                    }
                }
            }
        }
    }
}

/// A fused filter hands the grouping fold block masks: an empty block
/// skipped, a full one folded whole, a mixed one at its set bits. Pinned
/// plans over a table whose length is no multiple of 64 — filter → SPHG,
/// HG, BSG and OG (the filter on a scattered column, OG's key ascending),
/// SPHG over a sparse key's codes under a coded one- and two-sided range,
/// SPHG under a two-sided range, filter → SPHJ → SPHG, and SPHG over
/// pruned partitions whose segments start mid-block — at DOP 1, 2 and 8
/// and selectivities 0, 1/64, 1/8, 7/8 and 1: every answer equals
/// `naive_eval`'s.
#[test]
fn masked_loaders_match_the_oracle_at_every_selectivity_and_dop() {
    use dqo::core::executor::{execute, naive_eval};
    use dqo::core::Catalog;
    use dqo::plan::physical::GroupingMolecules;
    use dqo::plan::{
        AggExpr, AggFunc, CmpOp, GroupingAlgorithm as G, JoinAlgorithm as J, LogicalPlan,
        PhysicalPlan, Predicate,
    };
    use dqo::storage::{Column, DataType, Field, PartitionSpec, PartitionedRelation, Schema};
    let rows = 20_000u32 + 37;
    let hash = |i: u32, m: u32| i.wrapping_mul(2_654_435_761) % m;
    // `key` dense and scattered over 0..256, `k` ascending, `v` scattered
    // over 0..1024, `sk` sparse and scattered: 40 keys, each ~500 times.
    let columns = vec![
        Column::U32((0..rows).map(|i| hash(i, 256)).collect()),
        Column::U32((0..rows).map(|i| i / 97).collect()),
        Column::U32((0..rows).map(|i| hash(i ^ 0x5bd1, 1024)).collect()),
        Column::U32((0..rows).map(|i| 1_000_003 * hash(i, 40) + 7).collect()),
    ];
    let names = ["key", "k", "v", "sk"];
    let schema = Schema::new(names.map(|n| Field::new(n, DataType::U32)).to_vec()).unwrap();
    let t = dqo::Relation::new(schema, columns).unwrap();
    let cat = Catalog::new();
    cat.register("t", t.clone());
    assert!(cat.stored("t").unwrap().key_codes.contains_key("sk"));
    // Partitions 1 and 2 hold keys 37..150: two segments, each starting
    // at a row no multiple of 64.
    let spec = PartitionSpec::range("key", vec![37, 101, 150, 203]);
    cat.register_partitioned("p", PartitionedRelation::new(t, spec).unwrap());
    let (r, s) = ForeignKeySpec {
        r_rows: 3_001,
        s_rows: 9_037,
        groups: 300,
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 11,
    }
    .generate()
    .unwrap();
    cat.register("r", r);
    cat.register("s", s);
    let aggs = |value: &str| {
        vec![
            AggExpr::count_star("n"),
            AggExpr::on(AggFunc::Sum, value, "s"),
            AggExpr::on(AggFunc::Max, value, "hi"),
        ]
    };
    let scan = |table: &str| {
        Box::new(PhysicalPlan::Scan {
            table: table.into(),
        })
    };
    let lt = |column: &str, b: u32| Predicate::cmp(column, CmpOp::Lt, b);
    let between = |column: &str, lo: u32, hi: u32| {
        Predicate::And(vec![
            Predicate::cmp(column, CmpOp::Ge, lo),
            Predicate::cmp(column, CmpOp::Lt, hi),
        ])
    };
    let sk = |eighths: u32| 1_000_003 * (40 * eighths / 8) + 7;
    let join = || PhysicalPlan::Join {
        left: scan("r"),
        right: scan("s"),
        left_key: "id".into(),
        right_key: "r_id".into(),
        algo: J::StaticPerfectHash,
    };
    let pruned = || PhysicalPlan::PartitionedScan {
        table: "p".into(),
        parts: vec![1, 2],
        total: 5,
    };
    let (t_rows, r_s) = (
        || LogicalPlan::scan("t"),
        || LogicalPlan::join(LogicalPlan::scan("r"), LogicalPlan::scan("s"), "id", "r_id"),
    );
    let p_rows = || LogicalPlan::filter(LogicalPlan::scan("t"), between("key", 37, 150));
    for (share, v, payload) in [
        ("0", 0, 0),
        ("1/64", 16, 16),
        ("1/8", 128, 125),
        ("7/8", 896, 875),
        ("1", 1024, 1000),
    ] {
        let eighths = v / 128;
        let sph = G::StaticPerfectHash;
        // (input, its rows for the oracle, predicate, key, value, algo, codes)
        let mut cases = vec![];
        for algo in [sph, G::HashBased, G::BinarySearch] {
            cases.push((*scan("t"), t_rows(), lt("v", v), "key", "v", algo, false));
        }
        cases.push((
            *scan("t"),
            t_rows(),
            lt("v", v),
            "k",
            "v",
            G::OrderBased,
            false,
        ));
        for predicate in [lt("sk", sk(eighths)), between("sk", sk(1), sk(eighths + 1))] {
            cases.push((*scan("t"), t_rows(), predicate, "sk", "v", sph, true));
        }
        let two = between("v", 1024 - v, 1024 - v / 2);
        cases.push((*scan("t"), t_rows(), two, "key", "v", sph, false));
        cases.push((pruned(), p_rows(), lt("v", v), "key", "v", sph, false));
        cases.push((
            join(),
            r_s(),
            lt("payload", payload),
            "a",
            "payload",
            sph,
            false,
        ));
        for (input, rows, predicate, key, value, algo, codes) in cases {
            let logical = LogicalPlan::filter(rows, predicate.clone());
            let oracle = sorted_rows(
                &naive_eval(&LogicalPlan::group_by(logical, key, aggs(value)), &cat).unwrap(),
            );
            for dop in THREAD_COUNTS {
                let what = format!("{algo:?} γ[{key}] over {predicate} ({share}) dop={dop}");
                let filter = PhysicalPlan::Filter {
                    input: Box::new(input.clone()),
                    predicate: predicate.clone(),
                };
                let (filter, group) = match dop {
                    1 => (filter, None),
                    _ => (
                        PhysicalPlan::Exchange {
                            input: Box::new(filter),
                            dop,
                        },
                        Some(dop),
                    ),
                };
                let plan = PhysicalPlan::GroupBy {
                    input: Box::new(filter),
                    keys: vec![key.into()],
                    aggs: aggs(value),
                    algo,
                    molecules: GroupingMolecules {
                        codes,
                        ..GroupingMolecules::defaults_for(algo)
                    },
                };
                let plan = match group {
                    Some(dop) => PhysicalPlan::Exchange {
                        input: Box::new(plan),
                        dop,
                    },
                    None => plan,
                };
                let out = execute(&plan, &cat).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(sorted_rows(&out.relation), oracle, "{what}");
            }
        }
    }
}
