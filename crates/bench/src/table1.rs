//! Regenerates **Table 1**: the granularity ladder — biology analogy,
//! query-optimisation concept, typical LoC, and who optimises each level
//! under SQO vs DQO.
//!
//! ```text
//! cargo run -p dqo-bench --release -- table1
//! ```

use crate::report::Table;
use crate::Args;
use dqo_plan::granule::{Granularity, OptimisedBy};

fn who(o: OptimisedBy) -> &'static str {
    match o {
        OptimisedBy::QueryOptimiser => "query optimiser",
        OptimisedBy::Developer => "developer",
        OptimisedBy::Compiler => "compiler",
    }
}

pub(crate) fn main(args: &Args) -> Result<(), String> {
    let mut table = Table::new(&[
        "biology",
        "query optimisation",
        "typical LoC",
        "SQO optimises via",
        "DQO optimises via",
    ]);
    for g in Granularity::all() {
        table.row(vec![
            g.biology_analogue().to_string(),
            g.qo_concept().chars().take(60).collect(),
            format!("~{}", g.typical_loc()),
            who(g.optimised_by_sqo()).to_string(),
            who(g.optimised_by_dqo()).to_string(),
        ]);
    }
    println!("Table 1: granularity concepts in biology vs query optimisation\n");
    args.emit(&table);
    println!(
        "\nDQO's proposal, in one row-diff: macro-molecules and molecules move\n\
         from 'developer' to 'query optimiser'."
    );
    Ok(())
}
