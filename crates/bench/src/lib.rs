//! # dqo-bench — the harness that regenerates every table and figure of
//! *The Case for Deep Query Optimisation*.
//!
//! One binary, `dqo-bench`, whose first argument names the artefact:
//!
//! ```text
//! cargo run -p dqo-bench --release -- fig5 --execute
//! ```
//!
//! | Paper artefact | Artefact |
//! |---|---|
//! | Figure 4 (grouping runtime vs #groups, 4 datasets) | `fig4` |
//! | Figure 4 zoom-in (BSG beats HG ≤ ~14 groups) | `crossover` |
//! | Figure 5 (DQO/SQO improvement factors) | `fig5` |
//! | Table 1 (granularity ladder) | `table1` |
//! | Table 2 (cost models) | `table2` |
//! | AVSP ablation (E7) | `avsp` |
//! | Unnest-depth / optimisation-time ablation (E8) | `depth_ablation` |
//! | Hash-table molecule ablation (E9) | `molecules` |
//! | Adaptive-AV convergence (cracking; extension, §6) | `cracking` |
//! | A served statement against its hand-fused floor (not in the paper) | `layers` |
//!
//! Serving, concurrency and scaling are measured by the `spine` package
//! at the repository root (`BENCHMARK.json` is its contract), not here.
//!
//! Every artefact prints the same rows/series the paper reports, and its
//! tables as CSV under `--csv`. Dataset sizes default to laptop scale;
//! `fig4 --full` switches to the paper's 100M rows. A flag the artefact
//! does not take, or a size that does not parse or is zero, is an error.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod avsp;
mod cracking;
mod crossover;
mod depth_ablation;
pub mod fig4;
pub mod fig5;
pub mod floor;
mod layers;
mod molecules;
pub mod report;
mod table1;
mod table2;

use report::Table;
use std::num::NonZeroUsize;

/// One paper artefact: the name that selects it, what it reproduces, the
/// flags it takes besides `--csv` (`"--rows <n>"` takes a value, `"--full"`
/// does not) and the function that computes and prints it.
type Artefact = (&'static str, &'static str, &'static [&'static str], Main);
type Main = fn(&Args) -> Result<(), String>;

/// Every artefact, in the order the usage text lists them.
#[rustfmt::skip]
const ARTEFACTS: &[Artefact] = &[
    ("table1", "Table 1 granularity ladder", &[], table1::main),
    ("table2", "Table 2 cost models", &[], table2::main),
    ("fig4", "Figure 4 grouping sweep", &["--rows <n>", "--reps <n>", "--full"], fig4::main),
    ("crossover", "Figure 4 zoom-in: BSG vs HG", &["--rows <n>", "--reps <n>"], crossover::main),
    ("fig5", "Figure 5 DQO/SQO factors", &["--scale <x>", "--execute"], fig5::main),
    ("avsp", "AV selection ablation", &[], avsp::main),
    ("depth_ablation", "unnest depth vs optimisation time", &[], depth_ablation::main),
    ("molecules", "hash-table molecules", &["--rows <n>", "--groups <n>", "--reps <n>"], molecules::main),
    ("cracking", "adaptive-AV convergence", &["--rows <n>", "--queries <n>"], cracking::main),
    ("layers", "served statement vs hand-fused floor", &["--rows <n>", "--reps <n>", "--json <file>"], layers::main),
];

/// Run the artefact that `argv` (the process arguments after the program
/// name) names, with the flags that follow it. An unknown artefact, a flag
/// it does not take, or a value that does not parse is an error naming the
/// offending word.
pub fn run(argv: &[String]) -> Result<(), String> {
    let Some((name, raw)) = argv.split_first() else {
        return Err(format!("no artefact given\n{}", usage()));
    };
    let &(name, _, flags, main) = ARTEFACTS
        .iter()
        .find(|a| a.0 == name)
        .ok_or_else(|| format!("unknown artefact {name:?}\n{}", usage()))?;
    main(&Args::parse(name, flags, raw)?)
}

/// The usage text: one line per artefact with its flags.
fn usage() -> String {
    let mut out = String::from("usage: dqo-bench <artefact> [--csv] [flags], artefact one of:\n");
    for (name, about, flags, _) in ARTEFACTS {
        let line = format!("{name} {}", flags.join(" "));
        out.push_str(&format!("  {:<45} {about}\n", line.trim_end()));
    }
    out
}

/// The flags an artefact was given, checked against its row of
/// [`ARTEFACTS`].
#[derive(Debug, Clone)]
pub(crate) struct Args {
    /// Each flag given, with its value for a flag that takes one.
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Check `raw` against artefact `name`'s `flags` and `--csv`: every
    /// word is one of them, and a flag that takes a value is followed by one.
    fn parse(name: &str, flags: &[&str], raw: &[String]) -> Result<Args, String> {
        let known = [&["--csv"], flags].concat();
        let mut given = Vec::new();
        let mut words = raw.iter();
        while let Some(word) = words.next() {
            let spec = known
                .iter()
                .find(|spec| spec.split(' ').next() == Some(word))
                .ok_or_else(|| {
                    let known = known.join(" ");
                    format!("{name} does not take {word:?}; it takes {known}")
                })?;
            let value = if spec.contains(' ') {
                let value = words
                    .next()
                    .ok_or_else(|| format!("missing value for {word}"))?;
                Some(value.clone())
            } else {
                None
            };
            given.push((word.clone(), value));
        }
        Ok(Args { given })
    }

    /// Boolean flag presence (`--full`).
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// Value of `--key <value>`, parsed; one that does not parse is an
    /// error naming the flag, so a run is never labelled with a size it
    /// did not use.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some((_, Some(raw))) = self.given.iter().find(|(flag, _)| flag == name) else {
            return Ok(None);
        };
        raw.parse()
            .map(Some)
            .map_err(|_| format!("invalid value {raw:?} for {name}"))
    }

    /// A count flag (`--rows`, `--groups`, `--reps`, `--queries`), or
    /// `default` when absent; zero is an error like any unparsable value.
    pub fn count(&self, name: &str, default: usize) -> Result<usize, String> {
        Ok(self
            .value::<NonZeroUsize>(name)?
            .map_or(default, NonZeroUsize::get))
    }

    /// Print `table` as CSV under `--csv`, else as aligned text.
    pub fn emit(&self, table: &Table) {
        if self.flag("--csv") {
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.to_text());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(name: &str, raw: &[&str]) -> Result<Args, String> {
        let (_, _, flags, _) = ARTEFACTS.iter().find(|a| a.0 == name).unwrap();
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(name, flags, &raw)
    }

    #[test]
    fn args_parse_flags_and_values() {
        let a = args("fig4", &["--csv", "--rows", "1000"]).unwrap();
        assert!(a.flag("--csv"));
        assert!(!a.flag("--full"));
        assert_eq!(a.value::<usize>("--rows"), Ok(Some(1000)));
        assert_eq!(a.value::<usize>("--reps"), Ok(None));
        for bad in ["1e6", "1_000_000", "0"] {
            let a = args("fig4", &["--rows", bad]).unwrap();
            let err = a.count("--rows", 1).unwrap_err();
            assert!(err.contains("--rows") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = args("fig4", &["--csv", "--rows"]).unwrap_err();
        assert_eq!(err, "missing value for --rows");
    }
}
