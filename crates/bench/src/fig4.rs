//! Regenerates **Figure 4**: grouping runtime vs number of groups for the
//! four dataset shapes — the five grouping variants over each shape across
//! a sweep of group counts, measuring wall-clock.
//!
//! ```text
//! cargo run -p dqo-bench --release -- fig4            # 10M rows
//! cargo run -p dqo-bench --release -- fig4 --full     # the paper's 100M rows
//! cargo run -p dqo-bench --release -- fig4 --rows 1000000 --csv
//! ```

use crate::report::Table;
use crate::Args;
use dqo_exec::aggregate::CountSum;
use dqo_exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
use dqo_storage::datagen::DatasetSpec;
use dqo_storage::DataProps;
use std::time::Instant;

/// One of the four dataset shapes (the plots of Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetShape {
    /// Sorted ascending?
    pub sorted: bool,
    /// Dense key domain?
    pub dense: bool,
}

impl DatasetShape {
    /// The four shapes in the paper's plot order (row-major: sorted row
    /// first, sparse column first).
    pub fn all() -> [DatasetShape; 4] {
        [(true, false), (true, true), (false, false), (false, true)]
            .map(|(sorted, dense)| DatasetShape { sorted, dense })
    }

    /// Display label.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            if self.sorted { "sorted" } else { "unsorted" },
            if self.dense { "dense" } else { "sparse" }
        )
    }

    /// Which algorithms Figure 4 plots for this shape. The paper shows
    /// SPHG only on dense plots (inapplicable on sparse) and plots BSG on
    /// sparse plots in SPHG's stead; OG only where the input is sorted.
    pub fn algorithms(&self) -> Vec<GroupingAlgorithm> {
        let mut algos = vec![GroupingAlgorithm::HashBased];
        if self.dense {
            algos.push(GroupingAlgorithm::StaticPerfectHash);
        } else {
            algos.push(GroupingAlgorithm::BinarySearch);
        }
        if self.sorted {
            algos.push(GroupingAlgorithm::OrderBased);
        }
        algos.push(GroupingAlgorithm::SortOrderBased);
        algos
    }
}

/// One measured point of a Figure 4 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Point {
    /// Dataset shape.
    pub shape: DatasetShape,
    /// Algorithm.
    pub algorithm: GroupingAlgorithm,
    /// Number of distinct groups.
    pub groups: usize,
    /// Best-of-`reps` runtime in milliseconds.
    pub millis: f64,
}

/// The paper's sweep: group counts from 1 to 40,000.
pub fn paper_group_sweep() -> Vec<usize> {
    vec![
        1, 10, 100, 500, 1_000, 5_000, 10_000, 20_000, 30_000, 40_000,
    ]
}

/// Measure one (shape, groups) cell for each of `algorithms`, best of
/// `reps` runs each.
pub fn measure_cell(
    shape: DatasetShape,
    rows: usize,
    groups: usize,
    reps: usize,
    algorithms: &[GroupingAlgorithm],
) -> Result<Vec<Fig4Point>, String> {
    let keys = DatasetSpec::new(rows, groups)
        .sorted(shape.sorted)
        .dense(shape.dense)
        .generate()
        .map_err(|e| e.to_string())?;
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
    algorithms
        .iter()
        .map(|&algorithm| {
            let mut best = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let start = Instant::now();
                let result = execute_grouping(algorithm, &keys, &keys, CountSum, &hints)
                    .map_err(|e| e.to_string())?;
                let dt = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(result.len(), groups.min(rows));
                best = best.min(dt);
            }
            Ok(Fig4Point {
                shape,
                algorithm,
                groups,
                millis: best,
            })
        })
        .collect()
}

/// Run the full Figure 4 grid: every shape's [`DatasetShape::algorithms`].
pub fn run(rows: usize, sweep: &[usize], reps: usize) -> Result<Vec<Fig4Point>, String> {
    let mut out = Vec::new();
    for shape in DatasetShape::all() {
        let algorithms = shape.algorithms();
        for &groups in sweep {
            out.extend(measure_cell(shape, rows, groups, reps, &algorithms)?);
        }
    }
    Ok(out)
}

/// Print one runtime table per shape, then the shape checks.
pub(crate) fn main(args: &Args) -> Result<(), String> {
    let rows = if args.flag("--full") {
        100_000_000
    } else {
        args.count("--rows", 10_000_000)?
    };
    let reps = args.count("--reps", 2)?;
    let sweep = paper_group_sweep();

    eprintln!("Figure 4: {rows} rows, sweep {sweep:?}, best of {reps} runs");
    let points = run(rows, &sweep, reps)?;

    for shape in DatasetShape::all() {
        let algos = shape.algorithms();
        let mut header: Vec<&str> = vec!["#groups"];
        header.extend(algos.iter().map(|a| a.abbrev()));
        let mut table = Table::new(&header);
        for &groups in &sweep {
            let mut row = vec![groups.to_string()];
            for algo in &algos {
                let p = points
                    .iter()
                    .find(|p| p.shape == shape && p.algorithm == *algo && p.groups == groups)
                    .expect("measured");
                row.push(format!("{:.1}", p.millis));
            }
            table.row(row);
        }
        println!("\n=== {} (runtime in ms) ===", shape.label());
        args.emit(&table);
    }

    println!("\n=== shape verification against the paper's prose ===");
    for finding in verify_shapes(&points) {
        println!("  {finding}");
    }
    Ok(())
}

/// Shape checks on measured data — the assertions the paper's prose makes
/// about Figure 4, used by the harness's `--verify` mode and by tests.
pub fn verify_shapes(points: &[Fig4Point]) -> Vec<String> {
    let mut findings = Vec::new();
    let get = |sorted: bool, dense: bool, algo: GroupingAlgorithm, groups: usize| -> Option<f64> {
        points
            .iter()
            .find(|p| {
                p.shape.sorted == sorted
                    && p.shape.dense == dense
                    && p.algorithm == algo
                    && p.groups == groups
            })
            .map(|p| p.millis)
    };
    let max_groups = points.iter().map(|p| p.groups).max().unwrap_or(0);
    use GroupingAlgorithm::*;

    // Sorted & dense: OG and SPHG clearly beat HG.
    if let (Some(og), Some(sphg), Some(hg)) = (
        get(true, true, OrderBased, max_groups),
        get(true, true, StaticPerfectHash, max_groups),
        get(true, true, HashBased, max_groups),
    ) {
        if og * 2.0 < hg && sphg * 2.0 < hg {
            findings.push("sorted/dense: OG and SPHG beat HG (paper: >4x) ✓".into());
        } else {
            findings.push(format!(
                "sorted/dense: expected OG ({og:.1} ms) and SPHG ({sphg:.1} ms) well under HG ({hg:.1} ms) ✗"
            ));
        }
    }
    // Sorted: SOG pays for the unnecessary re-sort relative to OG.
    // Compared on the sweep mean — at small scales the re-sort of already
    // sorted data is nearly free at large group counts, so a single point
    // is noisy; the paper's 100M-row scale shows the gap everywhere.
    let mean = |sorted: bool, dense: bool, algo: GroupingAlgorithm| -> Option<f64> {
        let vals: Vec<f64> = points
            .iter()
            .filter(|p| p.shape.sorted == sorted && p.shape.dense == dense && p.algorithm == algo)
            .map(|p| p.millis)
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
    };
    if let (Some(og), Some(sog)) = (
        mean(true, true, OrderBased),
        mean(true, true, SortOrderBased),
    ) {
        findings.push(if sog > og {
            "sorted/dense: SOG slower than OG on average (unnecessary re-sort) ✓".into()
        } else {
            format!("sorted/dense: SOG mean ({sog:.1} ms) should exceed OG mean ({og:.1} ms) ✗")
        });
    }
    // Unsorted & dense: SPHG beats HG.
    if let (Some(sphg), Some(hg)) = (
        get(false, true, StaticPerfectHash, max_groups),
        get(false, true, HashBased, max_groups),
    ) {
        findings.push(if sphg < hg {
            "unsorted/dense: SPHG fastest (unaffected by sortedness) ✓".into()
        } else {
            format!("unsorted/dense: SPHG ({sphg:.1} ms) should beat HG ({hg:.1} ms) ✗")
        });
    }
    // Unsorted & sparse: BSG's cost grows with groups; HG wins at scale.
    if let (Some(bsg_small), Some(bsg_big), Some(hg_big)) = (
        get(false, false, BinarySearch, 1),
        get(false, false, BinarySearch, max_groups),
        get(false, false, HashBased, max_groups),
    ) {
        findings.push(if bsg_small < bsg_big && hg_big < bsg_big {
            "unsorted/sparse: BSG grows with log(groups); HG wins for many groups ✓".into()
        } else {
            format!(
                "unsorted/sparse: expected BSG({max_groups}) ({bsg_big:.1} ms) > BSG(1) ({bsg_small:.1} ms) and > HG ({hg_big:.1} ms) ✗"
            )
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_algorithm_sets() {
        let shapes = DatasetShape::all();
        assert_eq!(shapes.len(), 4);
        let sorted_dense = DatasetShape {
            sorted: true,
            dense: true,
        };
        let algos = sorted_dense.algorithms();
        assert!(algos.contains(&GroupingAlgorithm::StaticPerfectHash));
        assert!(algos.contains(&GroupingAlgorithm::OrderBased));
        assert!(!algos.contains(&GroupingAlgorithm::BinarySearch));
        let unsorted_sparse = DatasetShape {
            sorted: false,
            dense: false,
        };
        let algos = unsorted_sparse.algorithms();
        assert!(algos.contains(&GroupingAlgorithm::BinarySearch));
        assert!(!algos.contains(&GroupingAlgorithm::StaticPerfectHash));
        assert!(!algos.contains(&GroupingAlgorithm::OrderBased));
    }

    #[test]
    fn measure_cell_produces_points() {
        let shape = DatasetShape {
            sorted: false,
            dense: true,
        };
        let points = measure_cell(shape, 10_000, 50, 1, &shape.algorithms()).unwrap();
        assert_eq!(points.len(), shape.algorithms().len());
        assert!(points.iter().all(|p| p.millis >= 0.0));
        assert!(points.iter().all(|p| p.groups == 50));
    }

    #[test]
    fn full_run_small() {
        let points = run(5_000, &[1, 10], 1).unwrap();
        // 2 sorted shapes × 4 algos + 2 unsorted shapes × 3 algos (no OG),
        // per sweep point.
        assert_eq!(points.len(), (2 * 4 + 2 * 3) * 2);
    }
}
