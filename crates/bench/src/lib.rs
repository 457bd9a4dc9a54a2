//! # dqo-bench — the harness that regenerates every table and figure of
//! *The Case for Deep Query Optimisation*.
//!
//! | Paper artefact | Binary | Criterion bench |
//! |---|---|---|
//! | Figure 4 (grouping runtime vs #groups, 4 datasets) | `fig4` | `fig4_grouping` |
//! | Figure 4 zoom-in (BSG beats HG ≤ ~14 groups) | `crossover` | `crossover_bsg_hg` |
//! | Figure 5 (DQO/SQO improvement factors) | `fig5` | `fig5_dqo_dp` |
//! | Table 1 (granularity ladder) | `table1` | — |
//! | Table 2 (cost models) | `table2` | — |
//! | AVSP ablation (E7) | `avsp` | `avsp_selection` |
//! | Unnest-depth / optimisation-time ablation (E8) | `depth_ablation` | `opt_time` |
//! | Hash-table molecule ablation (E9) | `molecules` | `hashtable_molecules` |
//! | Parallel scaling (morsel-driven HJ/SPHG) | `scaling` | `scaling` |
//! | Parallel sort subsystem (SORT/SOG/SOJ + queue pressure) | `sort_scaling` | — |
//! | Inter-query concurrency (shared pool + admission) | `concurrency` | — |
//! | Network serving (socket clients, prepared statements, plan cache) | `serving` | — |
//! | Mixed read/write serving (INSERT + incremental AV maintenance) | `mixed_rw` | — |
//! | Offline AV builds (per-kind speedup + queue pressure) | `av_build` | — |
//!
//! Binaries print the same rows/series the paper reports, plus `--csv`.
//! Dataset sizes default to laptop scale; `--full` switches to the paper's
//! 100M rows.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod av_build;
pub mod concurrency;
pub mod fig4;
pub mod fig5;
pub mod mixed_rw;
pub mod report;
pub mod scaling;
pub mod serving;
pub mod sort_scaling;

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

    /// Value of `--key <value>`, parsed.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let idx = self.raw.iter().position(|a| a == name)?;
        self.raw.get(idx + 1)?.parse().ok()
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
    }

    #[test]
    fn missing_value_is_none() {
        let a = Args::from_vec(vec!["--rows".into()]);
        assert_eq!(a.value::<usize>("--rows"), None);
    }
}
