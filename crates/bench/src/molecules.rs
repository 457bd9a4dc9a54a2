//! E9: the **hash-table molecule ablation** (Table 1's molecule row,
//! Richter et al. \[17\]): the same HG organelle over every table × hash
//! pair a plan can name — the dimensions a deep optimiser could decide per
//! query. Each runs on two key shapes: dense keys `0..groups`, and sparse
//! keys spread over the `u32` range (the shape of spine's `group.us`).
//! The static perfect hash runs on the dense shape only.
//!
//! A second table times the layer above the table: HG (linear probing,
//! identity) and SPHG over the dense keys under a fused `Filter key < ?`
//! that keeps 1/8, 2/8, 4/8 and 8/8 of the keys, run as a physical plan
//! through `dqo_core::executor::execute` at DOP 1 — the loader that
//! narrows each piece and the fold that reads keys and values at the
//! surviving rows — reported as input rows per second. Then SPHG over the
//! sparse keys' catalog codes (`{key=codes}`, spine's `group.us`) under
//! the same filter, which compares the codes with the bound's rank; SPHG
//! under `Filter key >= ? AND key < ?` keeping 1/8 of the dense keys
//! (spine's `pruned.p`), one compare per row; SPHG on `r.a` over a fused
//! SPHJ `r ⋈ s` on `r.id = s.r_id` whose probe side `s` is filtered by
//! `payload < ?` keeping 1/8–8/8 (spine's `join.r_s`, with `|r| = |s| =
//! rows / 4`, its rate counting the `|r| + |s|` rows the join reads); and
//! SPHG under `Filter s = ?` on a dictionary-coded column
//! that keeps 1/8 of the rows, clustered in runs of 1 000 rows or
//! shuffled: the string equality runs as one code compare, and the
//! narrowing kernel skips the 64-row blocks no row passes.
//!
//! ```text
//! cargo run -p dqo-bench --release -- molecules [--rows 5000000 --groups 10000]
//! ```

use crate::report::Table;
use crate::Args;
use dqo_core::{execute, Catalog};
use dqo_exec::aggregate::CountSum;
use dqo_exec::grouping::hg::{hash_grouping_with, HgTable};
use dqo_exec::grouping::sphg::sph_grouping;
use dqo_plan::expr::{AggExpr, AggFunc, CmpOp, Predicate};
use dqo_plan::physical::GroupingMolecules;
use dqo_plan::{GroupingAlgorithm, HashFnMolecule, JoinAlgorithm, PhysicalPlan, TableMolecule};
use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};
use dqo_storage::{Column, DataType, Dictionary, Field, Relation, Schema};
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn main(args: &Args) -> Result<(), String> {
    let rows = args.count("--rows", 5_000_000)?;
    let groups = args.count("--groups", 10_000)?;
    let reps = args.count("--reps", 3)?;
    if groups > rows {
        return Err(format!("--groups {groups} exceeds --rows {rows}"));
    }

    let shape = |dense: bool| {
        DatasetSpec::new(rows, groups)
            .sorted(false)
            .dense(dense)
            .generate()
            .map_err(|e| e.to_string())
    };
    let (dense, sparse) = (shape(true)?, shape(false)?);

    eprintln!(
        "molecule ablation: {rows} unsorted rows, {groups} dense or sparse groups, best of {reps}"
    );
    let time = |f: &dyn Fn() -> usize| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let n = f();
            assert_eq!(n, groups);
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        format!("{best:.1}")
    };

    let mut table = Table::new(&["table molecule", "hash molecule", "dense ms", "sparse ms"]);
    for hg in HgTable::ALL {
        let (molecule, hash) = match hg {
            HgTable::Chaining(h) => (TableMolecule::Chaining, h),
            HgTable::LinearProbing(h) => (TableMolecule::LinearProbing, h),
            HgTable::RobinHood(h) => (TableMolecule::RobinHood, h),
        };
        let run = |keys: &[u32]| time(&|| hash_grouping_with(keys, keys, CountSum, hg).len());
        table.row(vec![
            molecule.to_string(),
            hash.to_string(),
            run(&dense),
            run(&sparse),
        ]);
    }
    table.row(vec![
        TableMolecule::StaticPerfectHash.to_string(),
        "(structural)".into(),
        time(&|| {
            sph_grouping(&dense, &dense, CountSum, 0, groups as u32 - 1)
                .expect("dense")
                .len()
        }),
        "-".into(),
    ]);
    let loader = loader_table(dense, sparse, groups, reps)?;
    for table in [table, loader] {
        args.emit(&table);
        println!();
    }
    println!(
        "Same organelle (hash grouping), different molecules — the spread is\n\
         what Table 1 hands to the DQO optimiser instead of the developer.\n\
         Chaining + murmur3 is the paper's HG."
    );
    Ok(())
}

/// HG and SPHG over a fused filter on `keys` (dense over `0..groups`) that
/// keeps 1/8 to 8/8 of the keys, SPHG over the codes of `sparse` under the
/// same filter, SPHG under a two-sided range, SPHG over a filtered fused
/// join, then SPHG over a string equality that keeps 1/8 of the rows,
/// clustered or shuffled, through the executor at DOP 1: input rows per
/// second, best of `reps`.
fn loader_table(
    keys: Vec<u32>,
    sparse: Vec<u32>,
    groups: usize,
    reps: usize,
) -> Result<Table, String> {
    let rows = keys.len();
    let values = (0..rows as u32).map(|i| i.wrapping_mul(2_654_435_761) >> 22);
    // Eight strings: in runs of 1 000 rows, or one row's string drawn by
    // its hash.
    let coded = |eighth: &dyn Fn(u32) -> u32| {
        let strings: Vec<String> = (0..rows as u32)
            .map(|i| format!("s{}", eighth(i)))
            .collect();
        Dictionary::encode_all(&strings)
    };
    let (clustered, clustered_codes) = coded(&|i| i / 1_000 % 8);
    let (shuffled, shuffled_codes) = coded(&|i| i.wrapping_mul(2_654_435_761) >> 29);
    let schema = Schema::new(vec![
        Field::new("key", DataType::U32),
        Field::new("v", DataType::U32),
        Field::new("clustered", DataType::Str),
        Field::new("shuffled", DataType::Str),
    ])
    .expect("schema");
    let columns = vec![
        Column::U32(keys),
        Column::U32(values.collect()),
        Column::Str(clustered_codes),
        Column::Str(shuffled_codes),
    ];
    let relation = Relation::new(schema, columns)
        .and_then(|r| r.with_dictionary("clustered", Arc::new(clustered)))
        .and_then(|r| r.with_dictionary("shuffled", Arc::new(shuffled)))
        .expect("relation");
    let catalog = Catalog::new();
    catalog.register("t", relation);
    let mut distinct = sparse.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let u = Relation::new(
        Schema::new(vec![
            Field::new("key", DataType::U32),
            Field::new("v", DataType::U32),
        ])
        .expect("schema"),
        vec![
            Column::U32(sparse),
            Column::U32((0..rows as u32).map(|i| i % 1_000).collect()),
        ],
    )
    .expect("relation");
    catalog.register("u", u);
    let (r, s) = ForeignKeySpec {
        r_rows: (rows / 4).max(1),
        s_rows: rows / 4,
        groups: groups.min((rows / 4).max(1)),
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 30,
    }
    .generate()
    .map_err(|e| e.to_string())?;
    // The join reads |r| + |s| rows.
    let join_rows = r.rows() + s.rows();
    catalog.register("r", r);
    catalog.register("s", s);

    let hg = GroupingMolecules {
        table: Some(TableMolecule::LinearProbing),
        hash: Some(HashFnMolecule::Identity),
        ..GroupingMolecules::default()
    };
    let sph = GroupingAlgorithm::StaticPerfectHash;
    let scan = |table: &str| {
        Box::new(PhysicalPlan::Scan {
            table: table.into(),
        })
    };
    let over = |table, predicate, algo, molecules| PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Filter {
            input: scan(table),
            predicate,
        }),
        keys: vec!["key".into()],
        aggs: vec![
            AggExpr::count_star("n"),
            AggExpr::on(AggFunc::Sum, "v", "s"),
        ],
        algo,
        molecules,
    };
    let group = |predicate, algo, molecules| over("t", predicate, algo, molecules);
    // The plan's input rows per second, best of `reps`; each run's groups
    // checked.
    let rate_of = |input: usize, plan: &PhysicalPlan, expected: &dyn Fn(usize) -> bool| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let out = execute(plan, &catalog).expect("loader plan");
            best = best.min(t.elapsed().as_secs_f64());
            assert!(expected(out.relation.rows()));
        }
        format!("{:.1}", input as f64 / best / 1e6)
    };
    let rate =
        |plan: &PhysicalPlan, expected: &dyn Fn(usize) -> bool| rate_of(rows, plan, expected);
    let mut table = Table::new(&["loader", "kept", "M rows/s"]);
    for (algo, molecules) in [
        (GroupingAlgorithm::HashBased, hg),
        (sph, GroupingMolecules::defaults_for(sph)),
    ] {
        for eighths in [1, 2, 4, 8] {
            let kept = groups * eighths / 8;
            let predicate = Predicate::cmp("key", CmpOp::Lt, kept as u32);
            table.row(vec![
                format!("{algo} γ[key] over Filter key < ?"),
                format!("{eighths}/8"),
                rate(&group(predicate, algo, molecules), &|n| n == kept),
            ]);
        }
    }
    let codes = GroupingMolecules {
        codes: true,
        ..GroupingMolecules::defaults_for(sph)
    };
    for eighths in [1, 2, 4, 8] {
        let bound = distinct.get(distinct.len() * eighths / 8).copied();
        let kept = distinct.len() * eighths / 8;
        let predicate = Predicate::cmp("key", CmpOp::Lt, bound.unwrap_or(u32::MAX));
        table.row(vec![
            format!("{sph} γ[key] {{key=codes}} over Filter key < ? (sparse)"),
            format!("{eighths}/8"),
            rate(&over("u", predicate, sph, codes), &|n| n == kept),
        ]);
    }
    let range = |op, eighths: usize| Predicate::cmp("key", op, (groups * eighths / 16) as u32);
    let predicate = Predicate::And(vec![range(CmpOp::Ge, 4), range(CmpOp::Lt, 6)]);
    table.row(vec![
        format!("{sph} γ[key] over Filter key >= ? AND key < ?"),
        "1/8".into(),
        rate(
            &group(predicate, sph, GroupingMolecules::defaults_for(sph)),
            &|n| n == groups * 6 / 16 - groups * 4 / 16,
        ),
    ]);
    for eighths in [1, 2, 4, 8] {
        let join = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Join {
                    left: scan("r"),
                    right: scan("s"),
                    left_key: "id".into(),
                    right_key: "r_id".into(),
                    algo: JoinAlgorithm::StaticPerfectHash,
                }),
                predicate: Predicate::cmp("payload", CmpOp::Lt, (1_000 * eighths / 8) as u32),
            }),
            keys: vec!["a".into()],
            aggs: vec![AggExpr::count_star("n")],
            algo: sph,
            molecules: GroupingMolecules::defaults_for(sph),
        };
        table.row(vec![
            format!("{sph} γ[a] over Filter payload < ? over SPHJ r ⋈ s"),
            format!("{eighths}/8"),
            rate_of(join_rows, &join, &|n| n <= groups),
        ]);
    }
    for column in ["clustered", "shuffled"] {
        let predicate = Predicate::cmp(column, CmpOp::Eq, "s3");
        table.row(vec![
            format!("{sph} γ[key] over Filter s = ? ({column})"),
            "1/8".into(),
            rate(
                &group(predicate, sph, GroupingMolecules::defaults_for(sph)),
                &|n| n <= groups,
            ),
        ]);
    }
    Ok(table)
}
