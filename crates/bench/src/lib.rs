//! # dqo-bench — the harness that regenerates every table and figure of
//! *The Case for Deep Query Optimisation*.
//!
//! | Paper artefact | Binary |
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
//!
//! Serving, concurrency and scaling are measured by the `spine` package
//! at the repository root (`BENCHMARK.json` is its contract), not here.
//!
//! Binaries print the same rows/series the paper reports, plus `--csv`.
//! Dataset sizes default to laptop scale; `--full` switches to the paper's
//! 100M rows.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod fig4;
pub mod fig5;
pub mod report;

/// Parse `--key value` style arguments (plus boolean flags) very simply.
#[derive(Debug, Clone, Default)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Capture the process arguments.
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// For tests.
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Boolean flag presence (`--csv`).
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// Value of `--key <value>`, parsed; a flag given without a value, or
    /// with one that does not parse, ends the process with an error naming
    /// the flag, so a run is never labelled with a size it did not use.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_value(name).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// [`Args::value`] with the error cases returned instead of fatal.
    fn try_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(idx) = self.raw.iter().position(|a| a == name) else {
            return Ok(None);
        };
        let raw = self
            .raw
            .get(idx + 1)
            .ok_or_else(|| format!("missing value for {name}"))?;
        raw.parse()
            .map(Some)
            .map_err(|_| format!("invalid value {raw:?} for {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_values() {
        let a = Args::from_vec(vec!["--csv".into(), "--rows".into(), "1000".into()]);
        assert!(a.flag("--csv"));
        assert!(!a.flag("--full"));
        assert_eq!(a.value::<usize>("--rows"), Some(1000));
        assert_eq!(a.value::<usize>("--groups"), None);
        for bad in ["1e6", "1_000_000"] {
            let a = Args::from_vec(vec!["--rows".into(), bad.into()]);
            let err = a.try_value::<usize>("--rows").unwrap_err();
            assert!(err.contains("--rows") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        let a = Args::from_vec(vec!["--csv".into(), "--rows".into()]);
        let err = a.try_value::<usize>("--rows").unwrap_err();
        assert_eq!(err, "missing value for --rows");
    }
}
