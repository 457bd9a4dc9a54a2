//! E9: the **hash-table molecule ablation** (Table 1's molecule row,
//! Richter et al. \[17\]): the same HG organelle over every table × hash
//! pair a plan can name — the dimensions a deep optimiser could decide per
//! query. Each runs on two key shapes: dense keys `0..groups`, and sparse
//! keys spread over the `u32` range (the shape of spine's `group.us`).
//! The static perfect hash runs on the dense shape only.
//!
//! ```text
//! cargo run -p dqo-bench --release --bin molecules [-- --rows 5000000 --groups 10000]
//! ```

use dqo_bench::report::Table;
use dqo_bench::Args;
use dqo_exec::aggregate::CountSum;
use dqo_exec::grouping::hg::{hash_grouping_with, HgTable};
use dqo_exec::grouping::sphg::sph_grouping;
use dqo_plan::TableMolecule;
use dqo_storage::datagen::DatasetSpec;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let rows: usize = args.value("--rows").unwrap_or(5_000_000);
    let groups: usize = args.value("--groups").unwrap_or(10_000);
    let reps: usize = args.value("--reps").unwrap_or(3);

    let shape = |dense: bool| {
        DatasetSpec::new(rows, groups)
            .sorted(false)
            .dense(dense)
            .generate()
            .expect("spec")
    };
    let (dense, sparse) = (shape(true), shape(false));

    eprintln!(
        "molecule ablation: {rows} unsorted rows, {groups} dense or sparse groups, best of {reps}"
    );
    let time = |f: &dyn Fn() -> usize| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let n = f();
            assert_eq!(n, groups);
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        format!("{best:.1}")
    };

    let mut table = Table::new(&["table molecule", "hash molecule", "dense ms", "sparse ms"]);
    for hg in HgTable::ALL {
        let (molecule, hash) = match hg {
            HgTable::Chaining(h) => (TableMolecule::Chaining, h),
            HgTable::LinearProbing(h) => (TableMolecule::LinearProbing, h),
            HgTable::RobinHood(h) => (TableMolecule::RobinHood, h),
        };
        let run = |keys: &[u32]| time(&|| hash_grouping_with(keys, keys, CountSum, hg).len());
        table.row(vec![
            molecule.to_string(),
            hash.to_string(),
            run(&dense),
            run(&sparse),
        ]);
    }
    table.row(vec![
        TableMolecule::StaticPerfectHash.to_string(),
        "(structural)".into(),
        time(&|| {
            sph_grouping(&dense, &dense, CountSum, 0, groups as u32 - 1)
                .expect("dense")
                .len()
        }),
        "-".into(),
    ]);
    if args.flag("--csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }
    println!(
        "\nSame organelle (hash grouping), different molecules — the spread is\n\
         what Table 1 hands to the DQO optimiser instead of the developer.\n\
         Chaining + murmur3 is the paper's HG."
    );
}
