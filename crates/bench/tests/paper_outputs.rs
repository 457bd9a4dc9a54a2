//! Golden outputs of the paper-reproduction binaries. `table1`, `table2`
//! (text and `--csv`), `fig5` (planning only, default scale) and `avsp`
//! print the paper's predictions — the granularity ladder, the cost
//! formulas and their values, the SQO/DQO plan choices and improvement
//! factors, and the views each AVSP solver selects with their build
//! costs — so a change that moves one of them shows up here as a
//! readable diff. To regenerate after an *intentional* change:
//!
//! ```text
//! DQO_UPDATE_SNAPSHOTS=1 cargo test -p dqo-bench --test paper_outputs
//! git diff crates/bench/tests/snapshots/   # review every moved number!
//! ```

use std::process::Command;

const SNAPSHOTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots");

/// Run the binary at `exe` with `args` and compare its stdout to the
/// golden file `golden` (or rewrite the file under
/// `DQO_UPDATE_SNAPSHOTS=1`).
fn check(exe: &str, args: &[&str], golden: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("utf-8 output");
    let path = format!("{SNAPSHOTS}/{golden}");
    if std::env::var("DQO_UPDATE_SNAPSHOTS").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing — run with DQO_UPDATE_SNAPSHOTS=1 to create it")
    });
    assert_eq!(
        actual, expect,
        "{golden} moved; if intentional, regenerate with DQO_UPDATE_SNAPSHOTS=1 and review the diff"
    );
}

#[test]
fn table1_matches_golden() {
    check(env!("CARGO_BIN_EXE_table1"), &[], "table1.txt");
}

#[test]
fn table2_matches_golden_as_text_and_csv() {
    check(env!("CARGO_BIN_EXE_table2"), &[], "table2.txt");
    check(env!("CARGO_BIN_EXE_table2"), &["--csv"], "table2.csv");
}

#[test]
fn fig5_planning_matches_golden() {
    check(env!("CARGO_BIN_EXE_fig5"), &[], "fig5.txt");
}

#[test]
fn avsp_matches_golden() {
    check(env!("CARGO_BIN_EXE_avsp"), &[], "avsp.txt");
}
