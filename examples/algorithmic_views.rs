//! Algorithmic Views in action (§3 and §6 of the paper):
//!
//! 1. AVSP — give the engine a workload and a space budget and let it
//!    decide which granules to precompute (sorted projections, SPH join
//!    indexes, materialised groupings);
//! 2. runtime-adaptive AVs — a cracking column that *becomes* an index as
//!    queries touch it;
//! 3. maintained AVs — INSERTs into a table with all three kinds: the
//!    sorted projection takes each batch into its tail in place and merges
//!    the tail into its sorted prefix once the tail outgrows √rows, and
//!    every answer equals an engine's without views.
//!
//! Run with: `cargo run --release --example algorithmic_views`

use dqo::core::adaptive::CrackedColumn;
use dqo::core::av::{AvArtifact, AvKind, AvSignature};
use dqo::core::avsp::{Solver, WorkloadQuery};
use dqo::storage::datagen::DatasetSpec;
use dqo::storage::{Column, DataType, Field, Relation, Schema, Value};
use dqo::Dqo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. AVSP -----------------------------------------------------------
    let db = Dqo::new();
    db.register_table(
        "events",
        DatasetSpec::new(200_000, 5_000)
            .sorted(false)
            .dense(true)
            .relation()?,
    );
    db.register_table(
        "codes",
        DatasetSpec::new(50_000, 256)
            .sorted(false)
            .dense(true)
            .relation()?,
    );

    let hot =
        db.compile("SELECT key, COUNT(*) AS count, SUM(key) AS sum FROM events GROUP BY key")?;
    let cold =
        db.compile("SELECT key, COUNT(*) AS count, SUM(key) AS sum FROM codes GROUP BY key")?;
    let workload = vec![
        WorkloadQuery::new(hot.clone(), 100.0), // hot query
        WorkloadQuery::new(cold, 1.0),          // rare query
    ];

    println!("=== AVSP: which granules should we precompute? ===\n");
    let before = db.engine().plan(&hot)?.est_cost;
    for budget in [64 * 1024, 1 << 20, 1 << 24] {
        let db2 = Dqo::new(); // fresh engine per budget
        db2.register_table(
            "events",
            DatasetSpec::new(200_000, 5_000)
                .sorted(false)
                .dense(true)
                .relation()?,
        );
        db2.register_table(
            "codes",
            DatasetSpec::new(50_000, 256)
                .sorted(false)
                .dense(true)
                .relation()?,
        );
        let solution =
            db2.engine()
                .select_and_materialise_avs(&workload, budget, Solver::Greedy)?;
        let names: Vec<String> = solution
            .selected
            .iter()
            .map(|av| av.signature.to_string())
            .collect();
        println!(
            "budget {:>9} B → {} views, {:>9} B used, workload benefit {:>12.0}, offline build cost {:>10.0}",
            budget,
            solution.selected.len(),
            solution.bytes,
            solution.benefit,
            solution.build_cost
        );
        for n in names {
            println!("    {n}");
        }
        let after = db2.engine().plan(&hot)?.est_cost;
        println!("    hot-query planned cost: {before:.0} → {after:.0}\n");
    }

    // --- 2. Adaptive AV: database cracking ---------------------------------
    println!("=== Adaptive AV: a column that becomes an index as it is queried ===\n");
    let data = DatasetSpec::new(1_000_000, 100_000)
        .sorted(false)
        .dense(true)
        .generate()?;
    let mut cracked = CrackedColumn::new(data);
    for (i, (lo, hi)) in [
        (10_000, 20_000),
        (12_000, 18_000),
        (14_000, 16_000),
        (14_500, 15_500),
    ]
    .into_iter()
    .enumerate()
    {
        let work_before = cracked.crack_work(lo) + cracked.crack_work(hi);
        let (count, _, stats) = cracked.range_query(lo, hi);
        println!(
            "query {}: range [{lo}, {hi})  → {count} rows; cracking work this query: {work_before} entries; cracks now: {}",
            i + 1,
            stats.cracks
        );
    }
    println!("\nEach query pays less cracking work than the last — the continuous\nnot/slightly/fully-indexed spectrum of §6.");

    // --- 3. Maintained AVs: INSERTs ----------------------------------------
    println!("\n=== Maintained AVs: 16-row INSERTs into a table with all three ===\n");
    let orders = || -> Result<Relation, Box<dyn std::error::Error>> {
        let keys = DatasetSpec::new(20_000, 500)
            .sorted(false)
            .dense(true)
            .generate()?;
        let vals = (0..keys.len() as u32).collect();
        let fields = ["key", "val"].map(|name| Field::new(name, DataType::U32));
        let columns = vec![Column::U32(keys), Column::U32(vals)];
        Ok(Relation::new(Schema::new(fields.to_vec())?, columns)?)
    };
    let (with_views, without) = (Dqo::new(), Dqo::new());
    with_views.register_table("orders", orders()?);
    without.register_table("orders", orders()?);
    let sigs = [
        AvKind::SortedProjection,
        AvKind::SphIndex,
        AvKind::MaterialisedGrouping,
    ]
    .map(|kind| AvSignature::new("orders", "key", kind));
    with_views.engine().av_builder().build_batch(&sigs)?;
    let reads = [
        "SELECT key, COUNT(*) AS count, SUM(key) AS sum FROM orders GROUP BY key ORDER BY key",
        "SELECT key, COUNT(*) AS n FROM orders WHERE key < 100 GROUP BY key ORDER BY key",
        "SELECT key, val FROM orders WHERE key < 3 ORDER BY key",
        "SELECT key, val FROM orders ORDER BY key LIMIT 40",
    ];
    let insert = format!(
        "INSERT INTO orders VALUES {}",
        vec!["(?, ?)"; 16].join(", ")
    );
    let mut merges = 0;
    for batch in 0..12u32 {
        let params: Vec<Value> = (0..16u32)
            .flat_map(|i| {
                let key = (batch * 16 + i).wrapping_mul(2_654_435_761) % 500;
                [Value::U32(key), Value::U32(batch)]
            })
            .collect();
        let report = with_views.insert(&insert, &params)?;
        without.insert(&insert, &params)?;
        let av = with_views
            .engine()
            .avs()
            .get(&sigs[0])
            .ok_or("projection dropped")?;
        let Some(AvArtifact::SortedProjection(rows, prefix)) = av.artifact.as_ref() else {
            return Err("the sorted projection lost its rows".into());
        };
        let tail = rows.rows() - prefix;
        merges += usize::from(tail == 0);
        for sql in reads {
            let (got, want) = (with_views.sql(sql)?, without.sql(sql)?);
            if format!("{:?}", got.output.relation) != format!("{:?}", want.output.relation) {
                return Err(
                    format!("batch {batch}: `{sql}` differs from the AV-free engine").into(),
                );
            }
        }
        println!(
            "INSERT {:>2}: {:>6} bytes copied, projection tail {tail:>3} of {} rows",
            batch + 1,
            report.bytes_copied,
            rows.rows()
        );
    }
    if merges == 0 {
        return Err("no INSERT merged the projection's tail".into());
    }
    println!("\nEvery answer equals the AV-free engine's; the tail merged {merges} time(s).");
    Ok(())
}
