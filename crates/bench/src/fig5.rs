//! Regenerates **Figure 5**: DQO-over-SQO improvement factors for the
//! estimated plan costs of the §4.3 query, per input configuration —
//! optionally also executing both plans (E6).
//!
//! ```text
//! cargo run -p dqo-bench --release -- fig5
//! cargo run -p dqo-bench --release -- fig5 --execute --scale 4
//! ```

use crate::report::Table;
use crate::Args;
use dqo_core::executor::sorted_rows;
use dqo_core::optimizer::{optimize, OptimizerMode};
use dqo_core::{execute, Catalog};
use dqo_storage::datagen::ForeignKeySpec;
use std::time::Instant;

/// One cell of the Figure 5 grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Cell {
    /// R sorted?
    pub r_sorted: bool,
    /// S sorted?
    pub s_sorted: bool,
    /// Dense key domains?
    pub dense: bool,
    /// SQO plan signature.
    pub sqo_plan: Vec<&'static str>,
    /// DQO plan signature.
    pub dqo_plan: Vec<&'static str>,
    /// SQO estimated cost.
    pub sqo_cost: f64,
    /// DQO estimated cost.
    pub dqo_cost: f64,
    /// Measured SQO wall-clock (ms), when executed.
    pub sqo_ms: Option<f64>,
    /// Measured DQO wall-clock (ms), when executed.
    pub dqo_ms: Option<f64>,
}

impl Fig5Cell {
    /// Estimated-cost improvement factor (the number Figure 5 prints).
    pub fn factor(&self) -> f64 {
        self.sqo_cost / self.dqo_cost
    }

    /// Measured improvement factor, when executed.
    pub fn measured_factor(&self) -> Option<f64> {
        Some(self.sqo_ms? / self.dqo_ms?.max(1e-9))
    }

    /// Row label as in the paper's grid.
    pub fn label(&self) -> String {
        format!(
            "R{} S{}",
            if self.r_sorted { "sorted" } else { "unsorted" },
            if self.s_sorted { "sorted" } else { "unsorted" }
        )
    }
}

/// The paper's Figure 5 values for comparison in reports.
pub fn paper_factor(r_sorted: bool, s_sorted: bool, dense: bool) -> f64 {
    if !dense {
        return 1.0;
    }
    match (r_sorted, s_sorted) {
        (true, true) => 1.0,
        (true, false) => 4.0,
        (false, true) => 2.8,
        (false, false) => 4.0,
    }
}

/// `(|R|, |S|, #groups)` of the Figure 5 instance at `scale`: 25,000,
/// 90,000 and 20,000 at scale 1.
pub fn sizes(scale: f64) -> (usize, usize, usize) {
    let at = |n: f64| (n * scale) as usize;
    (at(25_000.0), at(90_000.0), at(20_000.0))
}

/// Run the full grid at the paper's sizes (scaled by `scale`).
pub fn run(scale: f64, execute_plans: bool) -> Result<Vec<Fig5Cell>, String> {
    let mut out = Vec::new();
    for dense in [false, true] {
        for (r_sorted, s_sorted) in [(true, true), (true, false), (false, true), (false, false)] {
            out.push(run_cell(r_sorted, s_sorted, dense, scale, execute_plans)?);
        }
    }
    Ok(out)
}

/// Run one cell.
pub fn run_cell(
    r_sorted: bool,
    s_sorted: bool,
    dense: bool,
    scale: f64,
    execute_plans: bool,
) -> Result<Fig5Cell, String> {
    let catalog = Catalog::new();
    let (r_rows, s_rows, groups) = sizes(scale);
    let (r, s) = ForeignKeySpec {
        r_rows,
        s_rows,
        groups,
        r_sorted,
        s_sorted,
        dense,
        ..Default::default()
    }
    .generate()
    .map_err(|e| e.to_string())?;
    catalog.register("R", r);
    catalog.register("S", s);
    let q = dqo_plan::logical::example_query_4_3();
    let sqo = optimize(&q, &catalog, OptimizerMode::Shallow).map_err(|e| e.to_string())?;
    let dqo = optimize(&q, &catalog, OptimizerMode::Deep).map_err(|e| e.to_string())?;

    let (mut sqo_ms, mut dqo_ms) = (None, None);
    if execute_plans {
        let t = Instant::now();
        let a = execute(&sqo.plan, &catalog).map_err(|e| e.to_string())?;
        sqo_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let b = execute(&dqo.plan, &catalog).map_err(|e| e.to_string())?;
        dqo_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            sorted_rows(&a.relation),
            sorted_rows(&b.relation),
            "SQO and DQO plans must agree"
        );
    }
    Ok(Fig5Cell {
        r_sorted,
        s_sorted,
        dense,
        sqo_plan: sqo.plan.algo_signature(),
        dqo_plan: dqo.plan.algo_signature(),
        sqo_cost: sqo.est_cost,
        dqo_cost: dqo.est_cost,
        sqo_ms,
        dqo_ms,
    })
}

/// Print the grid with the paper's factor beside each estimated one (and
/// the measured one under `--execute`).
pub(crate) fn main(args: &Args) -> Result<(), String> {
    let scale: f64 = args.value("--scale")?.unwrap_or(1.0);
    let execute = args.flag("--execute");
    let (r_rows, s_rows, groups) = sizes(scale);
    if !scale.is_finite() || groups == 0 {
        return Err(format!(
            "invalid value {scale} for --scale: must be finite and leave at least one group"
        ));
    }

    let executing = if execute {
        ", executing both plans"
    } else {
        ""
    };
    eprintln!("Figure 5: |R| = {r_rows}, |S| = {s_rows}, {groups} groups{executing}");

    let mut header = vec![
        "inputs", "density", "SQO plan", "DQO plan", "SQO cost", "DQO cost", "factor", "paper",
    ];
    if execute {
        header.extend(["SQO ms", "DQO ms", "measured"]);
    }
    let mut table = Table::new(&header);
    for cell in run(scale, execute)? {
        let mut row = vec![
            cell.label(),
            if cell.dense { "dense" } else { "sparse" }.into(),
            format!("{:?}", cell.sqo_plan),
            format!("{:?}", cell.dqo_plan),
            format!("{:.0}", cell.sqo_cost),
            format!("{:.0}", cell.dqo_cost),
            format!("{:.1}x", cell.factor()),
            format!(
                "{}x",
                paper_factor(cell.r_sorted, cell.s_sorted, cell.dense)
            ),
        ];
        if let (Some(sqo_ms), Some(dqo_ms), Some(measured)) =
            (cell.sqo_ms, cell.dqo_ms, cell.measured_factor())
        {
            row.extend([
                format!("{sqo_ms:.1}"),
                format!("{dqo_ms:.1}"),
                format!("{measured:.1}x"),
            ]);
        }
        table.row(row);
    }
    args.emit(&table);
    println!(
        "\nPaper grid (Figure 5): sparse column all 1x; dense column 1x / 4x / 2.8x / 4x\n\
         for (Rs,Ss) / (Rs,Su) / (Ru,Ss) / (Ru,Su)."
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_reproduces_the_paper_exactly() {
        for cell in run(1.0, false).unwrap() {
            let expected = paper_factor(cell.r_sorted, cell.s_sorted, cell.dense);
            let got = cell.factor();
            assert!(
                (got - expected).abs() < 0.03,
                "{} dense={}: paper {expected}, got {got:.2}",
                cell.label(),
                cell.dense
            );
        }
    }

    #[test]
    fn execution_mode_measures_and_verifies() {
        let cell = run_cell(false, false, true, 0.05, true).unwrap();
        assert!(cell.sqo_ms.is_some());
        assert!(cell.dqo_ms.is_some());
        assert!(cell.measured_factor().unwrap() > 0.0);
    }

    #[test]
    fn paper_factors_table() {
        assert_eq!(paper_factor(true, true, true), 1.0);
        assert_eq!(paper_factor(true, false, true), 4.0);
        assert_eq!(paper_factor(false, true, true), 2.8);
        assert_eq!(paper_factor(false, false, false), 1.0);
    }
}
