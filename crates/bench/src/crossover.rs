//! Regenerates the **Figure 4 zoom-in** (unsorted & sparse): BSG
//! outperforms HG for up to ~14 groups, then loses — "another optimisation
//! dimension in which the number of distinct values should be considered."
//!
//! ```text
//! cargo run -p dqo-bench --release -- crossover [--rows 10000000]
//! ```

use crate::fig4::{measure_cell, DatasetShape};
use crate::report::Table;
use crate::Args;
use dqo_exec::grouping::GroupingAlgorithm::{BinarySearch, HashBased};

pub(crate) fn main(args: &Args) -> Result<(), String> {
    let rows = args.count("--rows", 10_000_000)?;
    let reps = args.count("--reps", 3)?;
    let shape = DatasetShape {
        sorted: false,
        dense: false,
    };

    eprintln!("Figure 4 zoom-in: unsorted/sparse, {rows} rows, best of {reps}");
    let mut table = Table::new(&["#groups", "HG ms", "BSG ms", "winner"]);
    let mut crossover_at: Option<usize> = None;
    let mut prev_bsg_won = true;
    for groups in [1usize, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 64, 128] {
        let cell = measure_cell(shape, rows, groups, reps, &[HashBased, BinarySearch])?;
        let (hg, bsg) = (cell[0].millis, cell[1].millis);
        let bsg_wins = bsg < hg;
        if prev_bsg_won && !bsg_wins && crossover_at.is_none() {
            crossover_at = Some(groups);
        }
        prev_bsg_won = bsg_wins;
        table.row(vec![
            groups.to_string(),
            format!("{hg:.1}"),
            format!("{bsg:.1}"),
            if bsg_wins { "BSG" } else { "HG" }.into(),
        ]);
    }
    args.emit(&table);
    match crossover_at {
        Some(g) => println!(
            "\nMeasured crossover: HG takes over at ~{g} groups (paper: above 14;\n\
             Table 2 model: above 16, since log2(g) < 4 ⇔ g < 16)."
        ),
        None => println!("\nNo crossover in the sweep — increase --rows to amplify cache effects."),
    }
    Ok(())
}
