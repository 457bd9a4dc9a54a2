//! E7: the **AVSP ablation** — sweep the materialisation budget and watch
//! which algorithmic views each solver selects and how much workload cost
//! they remove (§3's offline-vs-query-time trade-off made measurable).
//!
//! ```text
//! cargo run -p dqo-bench --release -- avsp
//! ```

use crate::report::Table;
use crate::Args;
use dqo_core::avsp::{solve, Solver, WorkloadQuery};
use dqo_core::Catalog;
use dqo_plan::expr::AggExpr;
use dqo_plan::{AggFunc, LogicalPlan};
use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};

pub(crate) fn main(args: &Args) -> Result<(), String> {
    let catalog = Catalog::new();
    catalog.register(
        "events",
        DatasetSpec::new(500_000, 10_000)
            .sorted(false)
            .dense(true)
            .relation()
            .expect("spec"),
    );
    catalog.register(
        "codes",
        DatasetSpec::new(100_000, 512)
            .sorted(false)
            .dense(true)
            .relation()
            .expect("spec"),
    );
    let (r, s) = ForeignKeySpec {
        r_rows: 25_000,
        s_rows: 90_000,
        groups: 20_000,
        r_sorted: false,
        s_sorted: false,
        dense: true,
        ..Default::default()
    }
    .generate()
    .expect("spec");
    catalog.register("r", r);
    catalog.register("s", s);

    let count_sum = |table: &str| {
        LogicalPlan::group_by(
            LogicalPlan::scan(table),
            "key",
            vec![
                AggExpr::count_star("count"),
                AggExpr::on(AggFunc::Sum, "key", "sum"),
            ],
        )
    };
    let workload = vec![
        WorkloadQuery::new(count_sum("events"), 100.0),
        WorkloadQuery::new(count_sum("codes"), 5.0),
        WorkloadQuery::new(
            LogicalPlan::group_by(
                LogicalPlan::join(LogicalPlan::scan("r"), LogicalPlan::scan("s"), "id", "r_id"),
                "a",
                vec![AggExpr::count_star("count")],
            ),
            20.0,
        ),
    ];

    println!("AVSP ablation: 3-query workload (weights 100 / 5 / 20)\n");
    let mut table = Table::new(&[
        "budget",
        "solver",
        "#views",
        "bytes used",
        "benefit",
        "build cost",
        "selected",
    ]);
    for budget in [64 << 10, 1 << 20, 4 << 20, 64 << 20] {
        for (solver, name) in [
            (Solver::Greedy, "greedy"),
            (Solver::Knapsack, "knapsack"),
            (Solver::Exhaustive, "exhaustive"),
        ] {
            let sol = solve(&workload, &catalog, budget, solver).expect("solves");
            let names: Vec<String> = sol
                .selected
                .iter()
                .map(|a| format!("{}:{}", a.signature.kind, a.signature.table))
                .collect();
            table.row(vec![
                format!("{budget}"),
                name.into(),
                sol.selected.len().to_string(),
                sol.bytes.to_string(),
                format!("{:.0}", sol.benefit),
                format!("{:.0}", sol.build_cost),
                names.join(" "),
            ]);
        }
    }
    args.emit(&table);
    Ok(())
}
