//! `dqo-bench <artefact> [flags]`: regenerate one of the paper's tables
//! or figures; see the `dqo_bench` crate docs for the artefacts. A usage
//! error exits 2 with a message naming the offending word.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dqo_bench::run(&argv) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
