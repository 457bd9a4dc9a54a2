//! A miniature Figure 4: run all five grouping implementations on the four
//! dataset shapes and print measured runtimes, so you can see the paper's
//! crossovers on your own machine in seconds.
//!
//! Run with: `cargo run --release --example grouping_explorer [rows] [groups]`

use dqo::exec::aggregate::CountSum;
use dqo::exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
use dqo::storage::datagen::DatasetSpec;
use dqo::storage::DataProps;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let rows: usize = args
        .get(1)
        .map_or(2_000_000, |s| s.parse().unwrap_or(2_000_000));
    let groups: usize = args.get(2).map_or(10_000, |s| s.parse().unwrap_or(10_000));

    println!("rows = {rows}, groups = {groups} (release build recommended)\n");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "dataset", "HG", "SPHG", "OG", "SOG", "BSG"
    );

    for (name, sorted, dense) in [
        ("sorted/dense", true, true),
        ("sorted/sparse", true, false),
        ("unsorted/dense", false, true),
        ("unsorted/sparse", false, false),
    ] {
        let keys = DatasetSpec::new(rows, groups)
            .sorted(sorted)
            .dense(dense)
            .generate()?;
        let props = DataProps::compute(&keys);
        let mut known: Vec<u32> = keys.clone();
        known.sort_unstable();
        known.dedup();
        let hints = GroupingHints {
            min: Some(props.min),
            max: Some(props.max),
            distinct: Some(props.distinct),
            known_keys: Some(known),
        };

        let mut cells: Vec<String> = Vec::new();
        for algo in GroupingAlgorithm::all() {
            // Respect the paper's applicability rules: SPHG needs density,
            // OG needs sortedness.
            let applicable = (!algo.requires_dense_domain() || props.density.is_dense())
                && (!algo.requires_partitioned_input() || props.sortedness.is_sorted());
            if !applicable {
                cells.push("n/a".to_string());
                continue;
            }
            let start = Instant::now();
            let result = execute_grouping(algo, &keys, &keys, CountSum, &hints)?;
            let elapsed = start.elapsed();
            assert_eq!(result.len(), groups.min(rows));
            cells.push(format!("{:.1} ms", elapsed.as_secs_f64() * 1e3));
        }
        println!(
            "{:<18} {:>12} {:>12} {:>12} {:>12} {:>12}",
            name, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }

    println!(
        "\nExpected shapes (paper Figure 4): OG/SPHG fastest and flat; HG ~4x\n\
         slower growing with groups; SOG pays the sort; BSG grows as log(groups)\n\
         and only wins for very small group counts."
    );
    Ok(())
}
