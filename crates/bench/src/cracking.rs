//! Adaptive-AV convergence (extension; §6): issue a sequence of random
//! range queries against a cracking column and report how the per-query
//! cracking work decays — the "not, slightly, or fully indexed" continuum
//! becoming measurable.
//!
//! ```text
//! cargo run -p dqo-bench --release -- cracking [--rows 10000000 --queries 64]
//! ```

use crate::report::Table;
use crate::Args;
use dqo_core::adaptive::CrackedColumn;
use dqo_storage::datagen::DatasetSpec;
use std::time::Instant;

pub(crate) fn main(args: &Args) -> Result<(), String> {
    let rows = args.count("--rows", 10_000_000)?;
    let queries = args.count("--queries", 64)?;
    let domain: u32 = 1_000_000;

    let data = DatasetSpec::new(rows, domain as usize)
        .sorted(false)
        .dense(true)
        .generate()
        .map_err(|e| e.to_string())?;
    let mut cracked = CrackedColumn::new(data);

    eprintln!("cracking convergence: {rows} rows, {queries} random range queries");
    let mut table = Table::new(&["query #", "crack work (entries)", "query ms", "cracks"]);
    // Deterministic pseudo-random query bounds.
    let mut state = 0x9E37_79B9u32;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state % domain
    };
    let mut full_scan_equiv = 0.0f64;
    for q in 0..queries {
        let a = next();
        let b = next();
        let (lo, hi) = if a < b {
            (a, b)
        } else {
            (b, a.saturating_add(1))
        };
        let work = cracked.crack_work(lo) + cracked.crack_work(hi);
        let t = Instant::now();
        let (_, _, stats) = cracked.range_query(lo, hi);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if q == 0 {
            full_scan_equiv = ms.max(1e-9);
        }
        // Print a logarithmically thinning subset of rows.
        if q < 8 || q % 8 == 0 {
            table.row(vec![
                (q + 1).to_string(),
                work.to_string(),
                format!("{ms:.2}"),
                stats.cracks.to_string(),
            ]);
        }
    }
    args.emit(&table);
    println!(
        "\nFirst query partitions ~the whole column (cost ≈ a full scan);\n\
         later queries touch only the residual unsorted segments. Final state:\n\
         {} cracks over {} rows (first-query time {:.2} ms).",
        cracked.crack_count(),
        rows,
        full_scan_equiv
    );
    Ok(())
}
