//! Cross-crate integration: SQL → optimiser (both modes) → executor, all
//! checked against the naive reference evaluator.

use dqo::core::executor::{naive_eval, sorted_rows};
use dqo::storage::datagen::{DatasetSpec, ForeignKeySpec};
use dqo::{Dqo, OptimizerMode};

fn check_both_modes(db: &mut Dqo, sql: &str) {
    let logical = db.compile(sql).expect("compiles");
    let naive = naive_eval(&logical, db.engine().catalog()).expect("naive eval");
    for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
        db.set_mode(mode);
        let result = db.sql(sql).expect("runs");
        assert_eq!(
            sorted_rows(&result.output.relation),
            sorted_rows(&naive),
            "{mode} disagrees with naive on: {sql} (plan {:?})",
            result.planned.plan.algo_signature()
        );
    }
}

#[test]
fn grouping_queries_on_all_dataset_shapes() {
    for sorted in [true, false] {
        for dense in [true, false] {
            let mut db = Dqo::new();
            db.register_table(
                "t",
                DatasetSpec::new(5_000, 64)
                    .sorted(sorted)
                    .dense(dense)
                    .relation()
                    .unwrap(),
            );
            check_both_modes(
                &mut db,
                "SELECT key, COUNT(*) AS n, SUM(key) AS s, MIN(key) AS lo, MAX(key) AS hi \
                 FROM t GROUP BY key",
            );
        }
    }
}

#[test]
fn the_papers_example_query_on_all_shapes() {
    for r_sorted in [true, false] {
        for s_sorted in [true, false] {
            for dense in [true, false] {
                let mut db = Dqo::new();
                let (r, s) = ForeignKeySpec {
                    r_rows: 400,
                    s_rows: 1_200,
                    groups: 50,
                    r_sorted,
                    s_sorted,
                    dense,
                    seed: 7,
                }
                .generate()
                .unwrap();
                db.register_table("r", r);
                db.register_table("s", s);
                check_both_modes(
                    &mut db,
                    "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id GROUP BY a",
                );
            }
        }
    }
}

#[test]
fn filters_joins_order_by_combined() {
    let mut db = Dqo::new();
    let (r, s) = ForeignKeySpec {
        r_rows: 300,
        s_rows: 900,
        groups: 40,
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 99,
    }
    .generate()
    .unwrap();
    db.register_table("r", r);
    db.register_table("s", s);
    check_both_modes(
        &mut db,
        "SELECT a, COUNT(*) AS n, SUM(payload) AS p FROM r JOIN s ON r.id = s.r_id \
         WHERE payload < 700 GROUP BY a ORDER BY a",
    );
    // ORDER BY is respected.
    let result = db
        .sql(
            "SELECT a, COUNT(*) AS n, SUM(payload) AS p FROM r JOIN s ON r.id = s.r_id \
             WHERE payload < 700 GROUP BY a ORDER BY a",
        )
        .unwrap();
    let keys = result
        .output
        .relation
        .column("a")
        .unwrap()
        .as_u32()
        .unwrap();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn projection_only_queries() {
    let mut db = Dqo::new();
    db.register_table("t", DatasetSpec::new(1_000, 20).relation().unwrap());
    check_both_modes(&mut db, "SELECT key FROM t WHERE key >= 10");
}

#[test]
fn deep_never_costs_more_than_shallow_across_many_configs() {
    for seed in 0..5u64 {
        for dense in [true, false] {
            for r_sorted in [true, false] {
                let db = {
                    let db = Dqo::new();
                    let (r, s) = ForeignKeySpec {
                        r_rows: 500,
                        s_rows: 2_000,
                        groups: 100,
                        r_sorted,
                        s_sorted: seed % 2 == 0,
                        dense,
                        seed,
                    }
                    .generate()
                    .unwrap();
                    db.register_table("r", r);
                    db.register_table("s", s);
                    db
                };
                let q = db
                    .compile("SELECT a, COUNT(*) FROM r JOIN s ON r.id = s.r_id GROUP BY a")
                    .unwrap();
                let deep =
                    dqo::core::optimizer::optimize(&q, db.engine().catalog(), OptimizerMode::Deep)
                        .unwrap();
                let shallow = dqo::core::optimizer::optimize(
                    &q,
                    db.engine().catalog(),
                    OptimizerMode::Shallow,
                )
                .unwrap();
                assert!(
                    deep.est_cost <= shallow.est_cost + 1e-9,
                    "DQO must never be worse (seed={seed}, dense={dense})"
                );
            }
        }
    }
}

#[test]
fn result_correctness_with_avs_materialised() {
    use dqo::core::avsp::{Solver, WorkloadQuery};
    let db = Dqo::new();
    db.register_table(
        "t",
        DatasetSpec::new(20_000, 500)
            .sorted(false)
            .dense(true)
            .relation()
            .unwrap(),
    );
    let sql = "SELECT key, COUNT(*) AS count, SUM(key) AS sum FROM t GROUP BY key";
    let q = db.compile(sql).unwrap();
    let naive = naive_eval(&q, db.engine().catalog()).unwrap();

    let workload = vec![WorkloadQuery::new(q.clone(), 50.0)];
    let solution = db
        .engine()
        .select_and_materialise_avs(&workload, usize::MAX, Solver::Greedy)
        .unwrap();
    assert!(solution.benefit > 0.0);

    let result = db.sql(sql).unwrap();
    assert_eq!(sorted_rows(&result.output.relation), sorted_rows(&naive));
}

#[test]
fn three_table_join_chain() {
    use dqo::storage::{Column, DataType, Field, Relation, Schema};
    let mut db = Dqo::new();
    // a(id, g) ⋈ b(a_id, c_id) ⋈ c(id2, w): a 3-table chain through b.
    let a = Relation::new(
        Schema::new(vec![
            Field::new("id", DataType::U32),
            Field::new("g", DataType::U32),
        ])
        .unwrap(),
        vec![
            Column::U32((0..50).collect()),
            Column::U32((0..50).map(|i| i % 5).collect()),
        ],
    )
    .unwrap();
    let b = Relation::new(
        Schema::new(vec![
            Field::new("a_id", DataType::U32),
            Field::new("c_id", DataType::U32),
        ])
        .unwrap(),
        vec![
            Column::U32((0..200).map(|i| i % 50).collect()),
            Column::U32((0..200).map(|i| (i * 7) % 20).collect()),
        ],
    )
    .unwrap();
    let c = Relation::new(
        Schema::new(vec![
            Field::new("id2", DataType::U32),
            Field::new("w", DataType::U32),
        ])
        .unwrap(),
        vec![
            Column::U32((0..20).collect()),
            Column::U32((0..20).map(|i| i * 10).collect()),
        ],
    )
    .unwrap();
    db.register_table("a", a);
    db.register_table("b", b);
    db.register_table("c", c);
    check_both_modes(
        &mut db,
        "SELECT g, COUNT(*) AS n, SUM(w) AS total FROM a \
         JOIN b ON a.id = b.a_id JOIN c ON b.c_id = c.id2 GROUP BY g",
    );
}

#[test]
fn explain_shows_molecules_in_deep_mode_only() {
    let mut db = Dqo::new();
    db.register_table(
        "t",
        DatasetSpec::new(3_000, 1_000)
            .sorted(false)
            .dense(false)
            .relation()
            .unwrap(),
    );
    // Sparse + many groups → HG in both modes, but deep mode refines the
    // table/hash molecules away from the developer defaults.
    let sql = "SELECT key, COUNT(*) FROM t GROUP BY key";
    let deep = db.explain(sql).unwrap();
    assert!(deep.contains("HG"), "{deep}");
    assert!(
        deep.contains("table=robin-hood") || deep.contains("table=linear-probing"),
        "deep mode should refine molecules: {deep}"
    );
    db.set_mode(OptimizerMode::Shallow);
    let shallow = db.explain(sql).unwrap();
    assert!(
        shallow.contains("table=chaining") && shallow.contains("hash=murmur3"),
        "shallow mode ships developer defaults: {shallow}"
    );
}

#[test]
fn limit_caps_output_rows() {
    let mut db = Dqo::new();
    db.register_table("t", DatasetSpec::new(1_000, 100).relation().unwrap());
    check_both_modes(
        &mut db,
        "SELECT key, COUNT(*) AS n FROM t GROUP BY key ORDER BY key LIMIT 7",
    );
    let r = db
        .sql("SELECT key, COUNT(*) AS n FROM t GROUP BY key ORDER BY key LIMIT 7")
        .unwrap();
    assert_eq!(r.output.relation.rows(), 7);
    // With ORDER BY first, LIMIT keeps the smallest keys.
    let keys = r.output.relation.column("key").unwrap().as_u32().unwrap();
    assert_eq!(keys, &[0, 1, 2, 3, 4, 5, 6]);
}

#[test]
fn order_by_is_free_when_grouping_output_is_sorted() {
    let mut db = Dqo::new();
    db.register_table(
        "t",
        DatasetSpec::new(10_000, 200)
            .sorted(false)
            .dense(true)
            .relation()
            .unwrap(),
    );
    let sql = "SELECT key, COUNT(*) AS n FROM t GROUP BY key ORDER BY key";
    // Deep mode: SPHG emits ascending keys → no Sort operator needed.
    let deep = db.sql(sql).unwrap();
    assert_eq!(deep.planned.plan.algo_signature(), vec!["SPHG"]);
    // Shallow mode: HG output is unordered → the plan must pay a Sort
    // (or switch to a sorted-output variant; either way order holds).
    db.set_mode(OptimizerMode::Shallow);
    let shallow = db.sql(sql).unwrap();
    let keys = shallow
        .output
        .relation
        .column("key")
        .unwrap()
        .as_u32()
        .unwrap();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    assert!(deep.planned.est_cost < shallow.planned.est_cost);
}

#[test]
fn csv_to_sql_end_to_end() {
    let dir = std::env::temp_dir().join("dqo_e2e_csv");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("orders.csv");
    std::fs::write(
        &path,
        "customer,amount\nalice,10\nbob,20\nalice,30\ncarol,5\nbob,1\n",
    )
    .unwrap();
    let db = Dqo::new();
    db.load_csv("orders", &path).unwrap();
    // `customer` is a dictionary-encoded Str column: dense codes → in deep
    // mode the grouping can use static perfect hashing over the codes,
    // exactly the §2.1 dictionary-compression argument.
    let r = db
        .sql("SELECT customer, COUNT(*) AS n, SUM(amount) AS total FROM orders GROUP BY customer")
        .unwrap();
    assert_eq!(r.output.relation.rows(), 3);
    assert_eq!(r.planned.plan.algo_signature(), vec!["SPHG"]);
    let totals = r.output.relation.column("total").unwrap().as_u64().unwrap();
    assert_eq!(totals.iter().sum::<u64>(), 66);
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_analyze_reports_measurements() {
    let db = Dqo::new();
    db.register_table(
        "t",
        DatasetSpec::new(2_000, 50)
            .sorted(false)
            .dense(true)
            .relation()
            .unwrap(),
    );
    let text = db
        .explain_analyze("SELECT key, COUNT(*) AS n FROM t GROUP BY key")
        .unwrap();
    assert!(text.contains("actual rows: 50"), "{text}");
    assert!(text.contains("wall time:"));
    assert!(text.contains("pipeline:"));
    assert!(text.contains("SPHG"));
}
