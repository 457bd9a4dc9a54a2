//! Quickstart: register a table, run SQL, and watch the optimiser pick a
//! different physical implementation depending on the data's properties —
//! the paper's core claim in thirty lines.
//!
//! Run with: `cargo run --release --example quickstart`

use dqo::plan::physical::GroupingMolecules;
use dqo::plan::{AggExpr, GroupingAlgorithm, LoopMolecule, PhysicalPlan};
use dqo::storage::datagen::DatasetSpec;
use dqo::{Dqo, OptimizerMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Dqo::new();

    // Four tables: every combination of the paper's two data properties.
    for (name, sorted, dense) in [
        ("sorted_dense", true, true),
        ("sorted_sparse", true, false),
        ("unsorted_dense", false, true),
        ("unsorted_sparse", false, false),
    ] {
        let rel = DatasetSpec::new(100_000, 1_000)
            .sorted(sorted)
            .dense(dense)
            .relation()?;
        db.register_table(name, rel);
    }

    println!("=== The same query, optimised deeply, on four data shapes ===\n");
    for name in [
        "sorted_dense",
        "sorted_sparse",
        "unsorted_dense",
        "unsorted_sparse",
    ] {
        let sql = format!("SELECT key, COUNT(*) AS n, SUM(key) AS s FROM {name} GROUP BY key");
        println!("--- {name} ---");
        println!("{}\n", db.explain(&sql)?);
    }

    println!("=== SQO vs DQO on the unsorted-dense table ===\n");
    let sql = "SELECT key, COUNT(*) AS n FROM unsorted_dense GROUP BY key";
    for mode in [OptimizerMode::Shallow, OptimizerMode::Deep] {
        db.set_mode(mode);
        let result = db.sql(sql)?;
        println!(
            "{mode}: plan = {:?}, estimated cost = {:.0}, wall = {:?}, groups = {}",
            result.planned.plan.algo_signature(),
            result.planned.est_cost,
            result.wall,
            result.output.relation.rows()
        );
    }

    println!("\n=== Figure 3: unnesting the logical γ into the deep-plan space ===\n");
    let fig3a = dqo::plan::deep::DeepPlan::logical_grouping();
    println!("Figure 3(a), the closed logical operator:\n{fig3a}");
    let all = dqo::plan::deep::enumerate_grouping_plans();
    println!(
        "Exhaustive unnesting reaches {} complete deep plans; the textbook\n\
         hash-based grouping of Figure 1 is just one of them:",
        all.len()
    );
    let textbook = (
        GroupingAlgorithm::HashBased,
        GroupingMolecules::defaults_for(GroupingAlgorithm::HashBased),
        LoopMolecule::Serial,
    );
    let hg = all
        .iter()
        .find(|p| p.lower() == Some(textbook))
        .expect("textbook HG is in the space");
    println!("{hg}");
    // Every complete deep plan lowers to a physical grouping the one
    // executor runs; this one is exactly HG with its developer defaults.
    let (algo, molecules, _) = textbook;
    let lowered = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::Scan {
            table: "unsorted_dense".into(),
        }),
        keys: vec!["key".into()],
        aggs: vec![AggExpr::count_star("n")],
        algo,
        molecules,
    };
    println!("It lowers to:\n{}", lowered.explain());
    Ok(())
}
