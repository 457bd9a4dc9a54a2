//! Algorithmic Views in action (§3 and §6 of the paper):
//!
//! 1. AVSP — give the engine a workload and a space budget and let it
//!    decide which granules to precompute (sorted projections, SPH join
//!    indexes, materialised groupings);
//! 2. runtime-adaptive AVs — a cracking column that *becomes* an index as
//!    queries touch it.
//!
//! Run with: `cargo run --release --example algorithmic_views`

use dqo::core::adaptive::CrackedColumn;
use dqo::core::avsp::{Solver, WorkloadQuery};
use dqo::storage::datagen::DatasetSpec;
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
    Ok(())
}
