//! `layers`: a served statement against its hand-fused floor (see
//! [`crate::floor`]). The served number is the statement run through
//! [`Engine::execute_prepared`] as a server runs it — prepared once, its
//! parameter bound per run, the plan store and the table's join memo warm
//! — and the floor is the best of the hand loops that compute the same
//! answer, asserted equal to it. The tracked number is served ÷ floor:
//! how far the engine's layers sit above the loop a query compiler would
//! emit.
//!
//! The statement is spine's `join.r_s` on spine-shaped tables (`r` and `s`
//! of `rows / 4` rows each, [`GROUPS`] values of `a`, dense keys, unsorted):
//!
//! ```text
//! SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id WHERE payload < ?
//! GROUP BY a ORDER BY a
//! ```
//!
//! at `payload < ?` keeping 1/8, 2/8, 4/8 and 8/8 of `s`, on one thread
//! and at DOP 2 (a session on a shared two-worker pool, as spine's server
//! builds it); the floor is one thread. Each time is the median of
//! `--reps` runs after five warm-ups, printed beside the fastest run. At
//! each selectivity the served runs come in one block, one thread and
//! DOP 2 alternating, and the floor's two loops in a block of their own
//! after it, so no floor run follows a served run on the shared pool. A
//! DOP 2 ratio is no speed-up claim on a box of two cores or fewer, and
//! the table says so.
//!
//! ```text
//! cargo run -p dqo-bench --release -- layers [--rows 1000000] [--json FILE]
//! ```
//!
//! `--json FILE` also writes the rows as JSON, stamped like spine's
//! trajectory points: the commit (`git rev-parse HEAD` of the working
//! directory), the paths `git status --porcelain` lists as changed
//! against it, the core count, the configuration and the `DQO_*`
//! environment.

use crate::floor::{groups, JoinRs};
use crate::report::Table;
use crate::Args;
use dqo_core::Engine;
use dqo_parallel::PersistentPool;
use dqo_sql::{PreparedQuery, SchemaProvider};
use dqo_storage::datagen::ForeignKeySpec;
use dqo_storage::{Schema, Value};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// spine's `join.r_s` statement.
const JOIN_R_S: &str = "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id \
                        WHERE payload < ? GROUP BY a ORDER BY a";

/// spine's `join.r_s` group count: the distinct values of `a`.
const GROUPS: usize = 1_024;

/// Warm-up runs before the timed ones: the first plans and builds the
/// join index and carries `a`.
const WARM: usize = 5;

struct Schemas<'a>(&'a dqo_core::Catalog);

impl SchemaProvider for Schemas<'_> {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        self.0.get(table).ok().map(|e| e.relation.schema().clone())
    }
}

/// One measured cell: selectivity, DOP and each side's median and
/// fastest run in µs.
struct Point {
    eighths: u32,
    dop: usize,
    served: Spread,
    floor: Spread,
}

/// The median and the fastest of a side's timed runs, in µs.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
}

pub(crate) fn main(args: &Args) -> Result<(), String> {
    let rows = args.count("--rows", 1_000_000)?;
    let reps = args.count("--reps", 31)?;
    let json: Option<String> = args.value("--json")?;
    let side = (rows / 4).max(1);
    let (r, s) = ForeignKeySpec {
        r_rows: side,
        s_rows: side,
        groups: GROUPS.min(side),
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: 30,
    }
    .generate()
    .map_err(|e| e.to_string())?;
    let column = |rel: &dqo_storage::Relation, name: &str| -> Result<Vec<u32>, String> {
        let col = rel.column(name).map_err(|e| e.to_string())?;
        Ok(col.as_u32().map_err(|e| e.to_string())?.to_vec())
    };
    let floor = JoinRs::new(
        column(&s, "payload")?,
        column(&s, "r_id")?,
        &column(&r, "id")?,
        &column(&r, "a")?,
    );
    let one = Engine::new().with_threads(1);
    let two = Engine::with_shared_pool(Arc::new(PersistentPool::with_admission(2, 2)));
    for engine in [&one, &two] {
        engine.register_table("r", r.clone());
        engine.register_table("s", s.clone());
    }
    let prepared =
        PreparedQuery::prepare(JOIN_R_S, &Schemas(one.catalog())).map_err(|e| e.to_string())?;
    // The plan store key: the statement's shape, the same for both
    // engines.
    let plan = one.prepare(prepared.template());
    eprintln!(
        "layers: join.r_s over |r| = |s| = {side}, {} groups, median of {reps} after {WARM} warm-ups",
        floor.groups
    );

    let mut points = Vec::new();
    for eighths in [1u32, 2, 4, 8] {
        let bound = 1_000 * eighths / 8;
        // The answer as `(a, n)` rows, checked against the floor's.
        let answer = |counts: &[u64]| -> Vec<Vec<Value>> {
            (groups(counts).into_iter())
                .map(|(g, n)| vec![Value::U32(g), Value::U64(n)])
                .collect()
        };
        let expected = answer(&floor.branchy(bound));
        assert_eq!(answer(&floor.branch_free(bound)), expected);
        let served = |engine: &Engine| -> Result<f64, String> {
            let t = Instant::now();
            let logical = prepared
                .bind_params(&[Value::U32(bound)])
                .map_err(|e| e.to_string())?;
            let out = engine
                .execute_prepared(&plan, &logical)
                .map_err(|e| e.to_string())?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            let got = dqo_core::executor::sorted_rows(&out.output.relation);
            assert_eq!(got, expected, "served join.r_s at {eighths}/8");
            Ok(us)
        };
        let hand = |f: &dyn Fn(u32) -> Vec<u64>| {
            let t = Instant::now();
            let counts = f(bound);
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(answer(&counts), expected, "floor at {eighths}/8");
            us
        };
        let [one_us, two_us] = timed(reps, || Ok([served(&one)?, served(&two)?]))?;
        let [branchy, branch_free] = timed(reps, || {
            Ok([hand(&|b| floor.branchy(b)), hand(&|b| floor.branch_free(b))])
        })?;
        let floor_us = Spread {
            median: branchy.median.min(branch_free.median),
            min: branchy.min.min(branch_free.min),
        };
        for (dop, served_us) in [(1, one_us), (2, two_us)] {
            points.push(Point {
                eighths,
                dop,
                served: served_us,
                floor: floor_us,
            });
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut table = Table::new(&[
        "statement",
        "kept",
        "dop",
        "served µs",
        "served min",
        "floor µs",
        "floor min",
        "served ÷ floor",
    ]);
    for p in &points {
        table.row(vec![
            "join.r_s".into(),
            format!("{}/8", p.eighths),
            p.dop.to_string(),
            format!("{:.0}", p.served.median),
            format!("{:.0}", p.served.min),
            format!("{:.0}", p.floor.median),
            format!("{:.0}", p.floor.min),
            format!("{:.2}", p.served.median / p.floor.median),
        ]);
    }
    args.emit(&table);
    println!(
        "\nThe floor runs on one thread. DOP 2 ran on {nproc} core(s): with two or fewer,\n\
         its ratio is no valid parallel speed-up."
    );
    if let Some(path) = json {
        let config = format!(
            "{{\"rows\":{rows},\"r_rows\":{side},\"s_rows\":{side},\"groups\":{},\"reps\":{reps},\
             \"warm\":{WARM},\"seed\":30}}",
            floor.groups
        );
        let body = points
            .iter()
            .map(|p| {
                format!(
                    "{{\"statement\":\"join.r_s\",\"kept_eighths\":{},\"dop\":{},\
                     \"served_us\":{:.1},\"served_min_us\":{:.1},\"floor_us\":{:.1},\
                     \"floor_min_us\":{:.1},\"served_over_floor\":{:.3}}}",
                    p.eighths,
                    p.dop,
                    p.served.median,
                    p.served.min,
                    p.floor.median,
                    p.floor.min,
                    p.served.median / p.floor.median
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let out = format!(
            "{{\"stamp\":{},\n\"config\":{config},\n\"rows\":[\n{body}\n]}}\n",
            stamp(nproc)
        );
        std::fs::write(&path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// `WARM + reps` rounds of `round`, each timing `N` runs in µs: the
/// median and the fastest of each run's last `reps` times.
fn timed<const N: usize>(
    reps: usize,
    mut round: impl FnMut() -> Result<[f64; N], String>,
) -> Result<[Spread; N], String> {
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for rep in 0..WARM + reps {
        let us = round()?;
        if rep >= WARM {
            times.iter_mut().zip(us).for_each(|(t, us)| t.push(us));
        }
    }
    Ok(times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        Spread {
            median: t[t.len() / 2],
            min: t[0],
        }
    }))
}

/// The commit, the paths changed against it, the core count and the
/// `DQO_*` environment, as a JSON object.
fn stamp(nproc: usize) -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let commit = git(&["rev-parse", "HEAD"]).map_or("unknown".into(), |c| c.trim().to_owned());
    let changed: Vec<String> = git(&["status", "--porcelain"])
        .unwrap_or_default()
        .lines()
        .map(|l| quoted(l.get(3..).unwrap_or(l)))
        .collect();
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DQO_"))
        .map(|(k, v)| format!("{}:{}", quoted(&k), quoted(&v)))
        .collect();
    format!(
        "{{\"commit\":{},\"changed\":[{}],\"nproc\":{nproc},\"env\":{{{}}}}}",
        quoted(&commit),
        changed.join(","),
        env.join(",")
    )
}

/// `s` as a JSON string.
fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
