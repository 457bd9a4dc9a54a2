//! Regenerates **Table 2**: the cost models for the grouping and join
//! algorithm families, evaluated symbolically and at the Figure 5 sizes.
//!
//! ```text
//! cargo run -p dqo-bench --release -- table2
//! ```

use crate::report::Table;
use crate::Args;
use dqo_core::cost::{CostModel, TupleCostModel};
use dqo_plan::{GroupingAlgorithm, JoinAlgorithm};

pub(crate) fn main(args: &Args) -> Result<(), String> {
    let m = TupleCostModel;
    // The Figure 5 instance: |R| = 25,000 (join build), |S| = 90,000,
    // grouping input 90,000 (the join output), 20,000 groups.
    let (r, s, j, g) = (25_000.0, 90_000.0, 90_000.0, 20_000.0);

    let grouping_formula = |a: GroupingAlgorithm| match a {
        GroupingAlgorithm::HashBased => "4·|R|",
        GroupingAlgorithm::OrderBased => "|R|",
        GroupingAlgorithm::SortOrderBased => "|R|·log2(|R|) + |R|",
        GroupingAlgorithm::StaticPerfectHash => "|R|",
        GroupingAlgorithm::BinarySearch => "|R|·log2(#groups)",
    };
    let join_formula = |a: JoinAlgorithm| match a {
        JoinAlgorithm::HashBased => "4·(|R|+|S|)",
        JoinAlgorithm::OrderBased => "|R|+|S|",
        JoinAlgorithm::SortOrderBased => "|R|·log2(|R|) + |S|·log2(|S|) + |R|+|S|",
        JoinAlgorithm::StaticPerfectHash => "|R|+|S|",
        JoinAlgorithm::BinarySearch => "(|R|+|S|)·log2(#groups)",
    };

    println!("Table 2: cost models (evaluated at |R|=25k, |S|=90k, |J|=90k, g=20k)\n");
    use {GroupingAlgorithm as G, JoinAlgorithm as J};
    #[rustfmt::skip]
    let families = [
        ("hash-based", G::HashBased, J::HashBased),
        ("order-based", G::OrderBased, J::OrderBased),
        ("sort & order-based", G::SortOrderBased, J::SortOrderBased),
        ("static perfect hash", G::StaticPerfectHash, J::StaticPerfectHash),
        ("binary search-based", G::BinarySearch, J::BinarySearch),
    ];
    let mut grouping = Table::new(&["family", "grouping", "formula", "cost at |J|=90k"]);
    for (family, algo, _) in families {
        grouping.row(vec![
            family.to_string(),
            algo.abbrev().to_string(),
            grouping_formula(algo).to_string(),
            format!("{:.0}", m.grouping(algo, j, g)),
        ]);
    }
    let mut join = Table::new(&["family", "join", "formula", "cost at |R|=25k,|S|=90k"]);
    for (family, _, algo) in families {
        join.row(vec![
            family.to_string(),
            algo.abbrev().to_string(),
            join_formula(algo).to_string(),
            format!("{:.0}", m.join(algo, r, s, r)),
        ]);
    }
    args.emit(&grouping);
    println!();
    args.emit(&join);
    println!(
        "\nIdentity check: Sort(R) + Sort(S) + OJ = {:.0} equals SOJ = {:.0}",
        m.sort(r) + m.sort(s) + m.join(JoinAlgorithm::OrderBased, r, s, r),
        m.join(JoinAlgorithm::SortOrderBased, r, s, r)
    );
    Ok(())
}
