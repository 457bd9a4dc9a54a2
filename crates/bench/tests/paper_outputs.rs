//! Golden outputs of the paper artefacts of `dqo-bench`. `table1`, `table2`
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

//!
//! The usage errors are pinned too: an unknown artefact, a flag the
//! artefact does not take and a size it cannot run at each exit 2 with a
//! message naming the offending word.

use std::process::{Command, Output};

const SNAPSHOTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots");

/// Run `dqo-bench` with `args` (the artefact first).
fn dqo_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dqo-bench"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run dqo-bench: {e}"))
}

/// Run `dqo-bench` with `args` and compare its stdout to the golden file
/// `golden` (or rewrite the file under `DQO_UPDATE_SNAPSHOTS=1`).
fn check(args: &[&str], golden: &str) {
    let out = dqo_bench(args);
    assert!(
        out.status.success(),
        "dqo-bench {args:?} failed: {}",
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
    check(&["table1"], "table1.txt");
}

#[test]
fn table2_matches_golden_as_text_and_csv() {
    check(&["table2"], "table2.txt");
    check(&["table2", "--csv"], "table2.csv");
}

#[test]
fn fig5_planning_matches_golden() {
    check(&["fig5"], "fig5.txt");
}

#[test]
fn avsp_matches_golden() {
    check(&["avsp"], "avsp.txt");
}

/// `args` exits 2 without output, and its stderr names every word of
/// `named`.
fn rejects(args: &[&str], named: &[&str]) {
    let out = dqo_bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "dqo-bench {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "dqo-bench {args:?} printed output");
    for word in named {
        assert!(stderr.contains(word), "dqo-bench {args:?}: {stderr}");
    }
}

#[test]
fn an_unknown_artefact_is_rejected_with_the_valid_names() {
    rejects(&["nosuch"], &["nosuch", "table1", "fig4", "cracking"]);
    rejects(&[], &["table1", "fig5"]);
}

#[test]
fn a_flag_the_artefact_does_not_take_is_rejected() {
    rejects(&["table1", "--cvs"], &["table1", "--cvs"]);
    rejects(&["fig4", "--row", "1000000"], &["fig4", "--row"]);
    rejects(&["fig4", "1000000"], &["fig4", "1000000"]);
}

#[test]
fn a_size_the_artefact_cannot_run_at_is_rejected() {
    rejects(&["molecules", "--groups", "0"], &["--groups"]);
    rejects(&["molecules", "--rows", "0"], &["--rows"]);
    rejects(&["layers", "--reps", "0"], &["--reps"]);
    rejects(&["layers", "--json"], &["--json"]);
    rejects(&["crossover", "--reps", "0"], &["--reps"]);
    rejects(&["fig5", "--scale", "0"], &["--scale"]);
    rejects(&["fig5", "--scale", "-1"], &["--scale"]);
}
