//! E9: the **hash-table molecule ablation** (Table 1's molecule row,
//! Richter et al. \[17\]): the same HG organelle over different table
//! implementations and hash functions — the dimensions a deep optimiser
//! could decide per query.
//!
//! ```text
//! cargo run -p dqo-bench --release --bin molecules [-- --rows 5000000 --groups 10000]
//! ```

use dqo_bench::report::Table;
use dqo_bench::Args;
use dqo_exec::aggregate::CountSum;
use dqo_exec::grouping::hg::{
    hash_grouping_chaining, hash_grouping_linear, hash_grouping_robin_hood,
};
use dqo_exec::grouping::sphg::sph_grouping;
use dqo_hashtable::hash_fn::{Fibonacci, Identity, Murmur3Finalizer};
use dqo_storage::datagen::DatasetSpec;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let rows: usize = args.value("--rows").unwrap_or(5_000_000);
    let groups: usize = args.value("--groups").unwrap_or(10_000);
    let reps: usize = args.value("--reps").unwrap_or(3);

    let keys = DatasetSpec::new(rows, groups)
        .sorted(false)
        .dense(true)
        .generate()
        .expect("spec");

    eprintln!("molecule ablation: {rows} unsorted dense rows, {groups} groups, best of {reps}");
    let time = |f: &dyn Fn() -> usize| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let n = f();
            assert_eq!(n, groups);
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    };

    let mut table = Table::new(&["table molecule", "hash molecule", "ms"]);
    let cap = groups;
    let cells: Vec<(&str, &str, f64)> = vec![
        (
            "chaining (paper HG)",
            "murmur3",
            time(&|| hash_grouping_chaining(&keys, &keys, CountSum, cap).len()),
        ),
        (
            "linear-probing",
            "murmur3",
            time(&|| hash_grouping_linear(&keys, &keys, CountSum, cap, Murmur3Finalizer).len()),
        ),
        (
            "linear-probing",
            "fibonacci",
            time(&|| hash_grouping_linear(&keys, &keys, CountSum, cap, Fibonacci).len()),
        ),
        (
            "linear-probing",
            "identity",
            time(&|| hash_grouping_linear(&keys, &keys, CountSum, cap, Identity).len()),
        ),
        (
            "robin-hood",
            "murmur3",
            time(&|| hash_grouping_robin_hood(&keys, &keys, CountSum, cap, Murmur3Finalizer).len()),
        ),
        (
            "robin-hood",
            "fibonacci",
            time(&|| hash_grouping_robin_hood(&keys, &keys, CountSum, cap, Fibonacci).len()),
        ),
        (
            "static perfect hash",
            "(structural)",
            time(&|| {
                sph_grouping(&keys, &keys, CountSum, 0, groups as u32 - 1)
                    .expect("dense")
                    .len()
            }),
        ),
    ];
    for (t, h, ms) in cells {
        table.row(vec![t.into(), h.into(), format!("{ms:.1}")]);
    }
    if args.flag("--csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }
    println!(
        "\nSame organelle (hash grouping), different molecules — the spread is\n\
         what Table 1 hands to the DQO optimiser instead of the developer."
    );
}
