//! Independent optimality check: the DP's chosen cost for the §4.3 query
//! shape must equal the minimum over an exhaustively enumerated plan
//! space, computed here directly from the Table 2 formulas (no optimiser
//! code involved). This guards against pruning bugs — if the DP's
//! interesting-property pruning ever discarded a state it needed, this
//! brute force would find a cheaper plan.

use dqo_core::cost::{CostModel, TupleCostModel};
use dqo_core::optimizer::{optimize, OptimizerMode};
use dqo_core::Catalog;
use dqo_plan::{GroupingAlgorithm, JoinAlgorithm};
use dqo_storage::datagen::ForeignKeySpec;

/// Brute-force the §4.3 plan space under the paper's stream model:
/// (sort-R?, sort-S?) × join impl × (sort-join-output?) × grouping impl.
#[allow(clippy::too_many_arguments)] // mirrors the experiment's parameter grid
fn brute_force_cost(
    r_rows: f64,
    s_rows: f64,
    join_rows: f64,
    groups: f64,
    r_sorted: bool,
    s_sorted: bool,
    dense: bool,
    deep: bool,
) -> f64 {
    let m = TupleCostModel;
    let mut best = f64::INFINITY;
    for sort_r in [false, true] {
        for sort_s in [false, true] {
            let r_ordered = r_sorted || sort_r;
            let s_ordered = s_sorted || sort_s;
            let mut cost_base = 0.0;
            if sort_r {
                cost_base += m.sort(r_rows);
            }
            if sort_s {
                cost_base += m.sort(s_rows);
            }
            for join in JoinAlgorithm::all() {
                let applicable = match join {
                    JoinAlgorithm::OrderBased => r_ordered && s_ordered,
                    JoinAlgorithm::StaticPerfectHash => dense && deep,
                    _ => true,
                };
                if !applicable {
                    continue;
                }
                let join_cost = m.join(join, r_rows, s_rows, r_rows);
                let join_out_sorted = join.produces_sorted_output();
                for sort_j in [false, true] {
                    let group_in_sorted = join_out_sorted || sort_j;
                    let sort_j_cost = if sort_j { m.sort(join_rows) } else { 0.0 };
                    for grouping in GroupingAlgorithm::all() {
                        let applicable = match grouping {
                            GroupingAlgorithm::OrderBased => group_in_sorted,
                            GroupingAlgorithm::StaticPerfectHash => dense && deep,
                            _ => true,
                        };
                        if !applicable {
                            continue;
                        }
                        let total = cost_base
                            + join_cost
                            + sort_j_cost
                            + m.grouping(grouping, join_rows, groups);
                        best = best.min(total);
                    }
                }
            }
        }
    }
    best
}

#[test]
fn dp_matches_brute_force_on_every_figure5_cell() {
    for dense in [true, false] {
        for r_sorted in [true, false] {
            for s_sorted in [true, false] {
                let catalog = Catalog::new();
                let (r, s) = ForeignKeySpec {
                    r_sorted,
                    s_sorted,
                    dense,
                    ..Default::default()
                }
                .generate()
                .unwrap();
                catalog.register("R", r);
                catalog.register("S", s);
                let q = dqo_plan::logical::example_query_4_3();
                for (mode, deep) in [(OptimizerMode::Shallow, false), (OptimizerMode::Deep, true)] {
                    let planned = optimize(&q, &catalog, mode).unwrap();
                    let expected = brute_force_cost(
                        25_000.0, 90_000.0, 90_000.0, 20_000.0, r_sorted, s_sorted, dense, deep,
                    );
                    assert!(
                        (planned.est_cost - expected).abs() < 1e-6,
                        "{mode} r_sorted={r_sorted} s_sorted={s_sorted} dense={dense}: \
                         DP {} vs brute force {expected} (plan {:?})",
                        planned.est_cost,
                        planned.plan.algo_signature()
                    );
                }
            }
        }
    }
}

#[test]
fn dp_matches_brute_force_across_sizes() {
    for (r_rows, s_rows, groups) in [(1_000usize, 5_000usize, 100usize), (10_000, 10_000, 2_000)] {
        let catalog = Catalog::new();
        let (r, s) = ForeignKeySpec {
            r_rows,
            s_rows,
            groups,
            r_sorted: false,
            s_sorted: true,
            dense: true,
            seed: 11,
        }
        .generate()
        .unwrap();
        catalog.register("R", r);
        catalog.register("S", s);
        let q = dqo_plan::logical::example_query_4_3();
        let planned = optimize(&q, &catalog, OptimizerMode::Deep).unwrap();
        let expected = brute_force_cost(
            r_rows as f64,
            s_rows as f64,
            s_rows as f64, // FK join output = |S|
            groups as f64,
            false,
            true,
            true,
            true,
        );
        assert!(
            (planned.est_cost - expected).abs() < 1e-6,
            "sizes ({r_rows},{s_rows},{groups}): DP {} vs brute force {expected}",
            planned.est_cost
        );
    }
}
