//! `spine` — the one benchmark. It drives a `dqo-server` on loopback from
//! two closed-loop client connections in this process, over four seeded
//! workloads, checks every answer, and prints every metric by name and
//! unit. `README.md` beside this package has the tables and the rules.
//!
//! ```text
//! spine [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!             [--scale full|smoke] [--out FILE] [--trace-out FILE]
//! spine run --all [--seed N] [--seconds S] [--repeat N] [--out FILE]
//! spine trace <workload> [...]        # run --workload <workload> --trace 1
//! spine compare <a.json> <b.json> [--benchmark BENCHMARK.json]
//! ```
//!
//! The last line of a single run's standard output is the result object
//! the acceptance driver reads; the line before it is the full report.

mod compare;
mod json;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::process::{Command, ExitCode};
use workloads::{Scale, Workload, CLIENTS};

/// Seed of the committed trajectory point (the paper's CIDR date).
const DEFAULT_SEED: u64 = 20_200_112;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

/// The end-to-end metrics, as `BENCHMARK.json` declares them.
const END_TO_END: [(&str, &str); 5] = [
    ("qps", "ops/s"),
    ("read_p50_us", "us"),
    ("worst_class_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    repeat: u64,
    out: Option<String>,
    trace_out: Option<String>,
    benchmark: String,
    files: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        repeat: 1,
        out: None,
        trace_out: None,
        benchmark: "BENCHMARK.json".into(),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: not a number: {v}"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--all" => o.all = true,
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)?.max(1),
            "--repeat" => o.repeat = number(value()?)?.max(1),
            "--trace" => o.trace = number(value()?)? != 0,
            "--scale" => {
                o.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale: full or smoke, not {other}")),
                }
            }
            "--out" => o.out = Some(value()?),
            "--trace-out" => o.trace_out = Some(value()?),
            "--benchmark" => o.benchmark = value()?,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => o.files.push(file.to_owned()),
        }
    }
    Ok(o)
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// The object the acceptance driver reads off the last line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.clone()),
    ])
    .render()
}

fn report_head(workload: Workload, o: &Options) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::str(workload.name())),
        ("trace", Json::Num(f64::from(u8::from(o.trace)))),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds as f64)),
        (
            "scale",
            Json::str(match o.scale {
                Scale::Full => "full",
                Scale::Smoke => "smoke",
            }),
        ),
    ]
}

/// One untraced run: the end-to-end metrics. Returns the report and the
/// result line.
fn measured_run(workload: Workload, o: &Options) -> (Json, String, bool) {
    let out = run::run(workload, o.seed, o.seconds, o.scale);
    let values = [
        out.qps(),
        out.read_p50_us,
        out.worst_class_p50_us,
        out.peak_rss_mb,
        out.setup_s(),
    ];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();

    println!(
        "{}  seed {}  {} clients (closed loop)  {} timed ops in {:.3} s ({:.1} ops/s overall)",
        workload.name(),
        o.seed,
        CLIENTS,
        out.ops_timed,
        out.wall_s,
        out.ops_timed as f64 / out.wall_s
    );
    for &(name, value, unit) in &metrics {
        println!("  {name:<22} {value:>14.4} {unit}");
    }
    println!(
        "  {:<22} {:>14.4} us   ({} read samples; diagnostic, not gated)",
        "read_p99_us", out.read_p99_us, out.read_samples
    );
    println!("  class                     samples      p50_us      p99_us");
    for (name, samples, p50, p99) in &out.classes {
        println!("  {name:<22} {samples:>10} {p50:>11.1} {p99:>11.1}");
    }
    println!(
        "  ops {}  attempted {}  failed {}  reply_hash {:016x}  inputs {:016x}",
        out.ops_timed, out.attempted, out.failed, out.reply_hash, out.input_fingerprint
    );
    for note in &out.notes {
        println!("  FAILED CHECK: {note}");
    }

    let correct = out.failed == 0;
    let metrics = metrics_json(&metrics);
    let mut report = report_head(workload, o);
    report.extend([
        ("ops", Json::Num(out.ops_timed as f64)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("correct", Json::Bool(correct)),
        ("metrics", metrics.clone()),
        (
            "diagnostics",
            Json::obj([
                ("wall_s", Json::Num(out.wall_s)),
                (
                    "round_qps",
                    Json::Arr(out.round_qps.iter().map(|&q| Json::Num(q)).collect()),
                ),
                (
                    "setup_runs_s",
                    Json::Arr(out.setup_runs_s.iter().map(|&s| Json::Num(s)).collect()),
                ),
                ("read_samples", Json::Num(out.read_samples as f64)),
                ("read_p99_us", Json::Num(out.read_p99_us)),
                (
                    "classes",
                    Json::Arr(
                        out.classes
                            .iter()
                            .map(|(name, samples, p50, p99)| {
                                Json::obj([
                                    ("name", Json::str(name.as_str())),
                                    ("samples", Json::Num(*samples as f64)),
                                    ("p50_us", Json::Num(*p50)),
                                    ("p99_us", Json::Num(*p99)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("reply_hash", Json::str(format!("{:016x}", out.reply_hash))),
                (
                    "input_fingerprint",
                    Json::str(format!("{:016x}", out.input_fingerprint)),
                ),
                (
                    "notes",
                    Json::Arr(out.notes.iter().map(Json::str).collect()),
                ),
            ]),
        ),
    ]);
    let line = result_line(correct, out.attempted, out.failed, &metrics);
    (Json::obj(report), line, correct)
}

/// One traced run: the per-layer metrics and where an op's time went.
fn traced_run(workload: Workload, o: &Options) -> (Json, String, bool) {
    let traced = trace::trace(workload, o.seed, o.seconds, o.scale);
    println!(
        "{}  seed {}  traced: {} ops replayed over the socket, in-process, and with DQO_OBS=off",
        workload.name(),
        o.seed,
        traced.ops
    );
    for &(name, value, unit) in &traced.metrics {
        println!("  {name:<30} {value:>16.4} {unit}");
    }
    for table in traced
        .diagnostics
        .get("shares")
        .map(Json::as_arr)
        .unwrap_or_default()
    {
        println!(
            "  {} ops: {} replayed, socket p50 {:.1} us; self time per op and share of socket time",
            table.get("ops").and_then(Json::as_str).unwrap_or("?"),
            table.get("count").and_then(Json::as_f64).unwrap_or(0.0),
            table
                .get("socket_p50_us")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        for layer in table.get("layers").map(Json::as_arr).unwrap_or_default() {
            println!(
                "    {:<26} {:>12.2} us {:>7.1} %",
                layer.get("layer").and_then(Json::as_str).unwrap_or("?"),
                layer
                    .get("self_us_per_op")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                100.0 * layer.get("share").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    for plan in traced
        .diagnostics
        .get("plans")
        .map(Json::as_arr)
        .unwrap_or_default()
    {
        println!(
            "  plan for: {}",
            plan.get("statement").and_then(Json::as_str).unwrap_or("?")
        );
        for line in plan
            .get("plan")
            .and_then(Json::as_str)
            .unwrap_or("")
            .lines()
        {
            println!("    {line}");
        }
    }
    let mut correct = true;
    if let Some(path) = &o.trace_out {
        if let Err(e) = std::fs::write(path, trace::spans_jsonl(&traced.spans)) {
            eprintln!("cannot write {path}: {e}");
            correct = false;
        }
    }
    let metrics = metrics_json(&traced.metrics);
    let mut report = report_head(workload, o);
    report.extend([
        ("ops", Json::Num(traced.ops as f64)),
        ("attempted", Json::Num(traced.ops as f64)),
        ("failed", Json::Num(0.0)),
        ("correct", Json::Bool(correct)),
        ("metrics", metrics.clone()),
        ("diagnostics", traced.diagnostics),
    ]);
    // A traced replay panics on any failed call; reaching here, every
    // replayed op succeeded. Answers are checked by the untraced run.
    let line = result_line(correct, traced.ops as u64, 0, &metrics);
    (Json::obj(report), line, correct)
}

fn single(o: &Options) -> ExitCode {
    let Some(workload) = o.workload.as_deref().and_then(Workload::parse) else {
        eprintln!(
            "--workload must be one of: {}",
            Workload::ALL.map(Workload::name).join(", ")
        );
        return ExitCode::from(2);
    };
    let (report, line, correct) = if o.trace {
        traced_run(workload, o)
    } else {
        measured_run(workload, o)
    };
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, report.render() + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", report.render());
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What a committed result is stamped with.
fn stamp(o: &Options) -> Json {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DQO_"))
        .map(|(k, v)| (k, Json::str(v)))
        .collect();
    Json::obj([
        ("commit", Json::str(commit)),
        ("nproc", Json::Num(nproc as f64)),
        ("clients", Json::Num(CLIENTS as f64)),
        ("loop", Json::str("closed")),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds as f64)),
        (
            "ops",
            Json::obj(
                Workload::ALL
                    .map(|w| (w.name(), Json::Num(w.total_ops(o.seconds, o.scale) as f64))),
            ),
        ),
        ("env", Json::Obj(env)),
    ])
}

/// `run --all`: every workload in a process of its own (so `VmHWM` is
/// per workload), untraced then traced, `--repeat` seeds in a row.
fn all(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut reports = Vec::new();
    let mut clean = true;
    for seed in o.seed..o.seed + o.repeat {
        for workload in Workload::ALL {
            for trace in ["0", "1"] {
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", workload.name(), "--trace", trace]);
                cmd.args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &o.seconds.to_string(),
                ]);
                if o.scale == Scale::Smoke {
                    cmd.args(["--scale", "smoke"]);
                }
                // `output` waits for the child to end.
                let output = match cmd.output() {
                    Ok(output) => output,
                    Err(e) => {
                        eprintln!("cannot start {}: {e}", exe.display());
                        return ExitCode::from(1);
                    }
                };
                let stdout = String::from_utf8_lossy(&output.stdout);
                let lines: Vec<&str> = stdout.lines().collect();
                let (human, tail) = lines.split_at(lines.len().saturating_sub(2));
                human.iter().for_each(|l| println!("{l}"));
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                clean &= output.status.success();
                match tail {
                    [report, _result] => reports.push((*report).to_owned()),
                    _ => {
                        eprintln!("{} (trace {trace}) printed no report", workload.name());
                        clean = false;
                    }
                }
            }
        }
    }
    if let Some(path) = &o.out {
        let doc = format!(
            "{{\"stamp\":{},\n\"runs\":[\n{}\n]}}\n",
            stamp(o).render(),
            reports.join(",\n")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one run failed its checks");
        ExitCode::from(1)
    }
}

fn compare_files(o: &Options) -> ExitCode {
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let [a, b] = o.files.as_slice() else {
        eprintln!("usage: spine compare <a.json> <b.json> [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let verdict = load(&o.benchmark)
        .and_then(|bench| Ok((bench, load(a)?, load(b)?)))
        .and_then(|(bench, a, b)| compare::compare(&bench, &a, &b));
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let mut options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match command {
        "compare" => compare_files(&options),
        "trace" => {
            options.trace = true;
            options.workload = options.files.first().cloned().or(options.workload);
            single(&options)
        }
        _ if options.all => all(&options),
        _ => single(&options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn smoke(workload: Workload, trace: bool) -> Options {
        let mut o = parse_options(&[]).unwrap();
        o.workload = Some(workload.name().into());
        o.scale = Scale::Smoke;
        o.trace = trace;
        o.seconds = 1;
        o
    }

    /// The result line has exactly the contract's keys and names exactly
    /// the metrics `BENCHMARK.json` declares for that mode.
    fn check_result_line(line: &str, declared: &[(String, String)]) {
        let result = Json::parse(line).expect("result line parses");
        let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let printed: Vec<(String, String)> = result
            .get("metrics")
            .unwrap()
            .as_obj()
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has no value"
                );
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(printed, declared);
    }

    #[test]
    fn benchmark_json_names_this_binary() {
        let bench = benchmark_json();
        let workloads: Vec<String> = names(bench.get("workloads").unwrap())
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
        let declared = names(bench.get("end_to_end").unwrap());
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared, ours);
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        assert!(compare::gates(&bench)
            .unwrap()
            .iter()
            .all(|g| g.bound <= 0.25));
    }

    #[test]
    fn smoke_runs_of_all_four_workloads_and_their_traces_pass() {
        let began = Instant::now();
        let bench = benchmark_json();
        let end_to_end = names(bench.get("end_to_end").unwrap());
        let per_layer = names(bench.get("per_layer").unwrap());
        for workload in Workload::ALL {
            let (report, line, correct) = measured_run(workload, &smoke(workload, false));
            assert!(
                correct,
                "{} failed its checks: {}",
                workload.name(),
                report.render()
            );
            check_result_line(&line, &end_to_end);
            let (_, line, correct) = traced_run(workload, &smoke(workload, true));
            assert!(correct);
            check_result_line(&line, &per_layer);
        }
        assert!(
            began.elapsed().as_secs() < 10,
            "smoke took {:?}",
            began.elapsed()
        );
    }

    #[test]
    fn same_seed_same_replies() {
        let o = smoke(Workload::ServeTiny, false);
        let a = run::run(Workload::ServeTiny, o.seed, 1, Scale::Smoke);
        let b = run::run(Workload::ServeTiny, o.seed, 1, Scale::Smoke);
        let c = run::run(Workload::ServeTiny, o.seed + 1, 1, Scale::Smoke);
        assert_eq!((a.failed, b.failed, c.failed), (0, 0, 0));
        assert_eq!(a.ops_timed, b.ops_timed);
        assert_eq!(a.reply_hash, b.reply_hash);
        assert_ne!(a.reply_hash, c.reply_hash);
    }

    #[test]
    fn options_parse_the_driver_form() {
        let args: Vec<String> = "--workload serve.tiny --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.workload.as_deref(), Some("serve.tiny"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3, true));
        assert!(parse_options(&["--seed".into()]).is_err());
        assert!(parse_options(&["--bogus".into()]).is_err());
    }
}
