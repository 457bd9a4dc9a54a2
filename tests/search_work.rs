//! The search's choice and its work, pinned: for the three `adhoc.novel`
//! statement templates over tables shaped like that workload's, and for
//! `serve.scan`'s `join.r_s`, at DOP 1 and DOP 2, the chosen plan and the
//! exact counts of memo groups, candidates built, candidates kept and
//! rules fired in one cold search.
//!
//! A plan that moves is a behaviour change; a count that moves is a
//! change in what the optimiser does to reach the same plan (a rule that
//! builds more, a twin that is no longer skipped), and either should be
//! a decision, not an accident.

use dqo::core::Engine;
use dqo::storage::datagen::ForeignKeySpec;
use dqo::Dqo;

/// What one cold search did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    groups: usize,
    built: u64,
    kept: usize,
    rules: u64,
}

/// `r` (ids sorted and dense) and `s` over them, registered in a fresh
/// engine planning at `dop`.
fn session(spec: ForeignKeySpec, dop: usize) -> Dqo {
    let db = Dqo::with_engine(Engine::new().with_threads(dop).with_tracing(false));
    let (r, s) = spec.generate().expect("groups do not exceed |R|");
    db.register_table("r", r);
    db.register_table("s", s);
    db
}

/// `adhoc.novel`'s tables: 250 sorted, dense `r` rows, 900 `s` rows, 50
/// groups.
fn adhoc(dop: usize) -> Dqo {
    session(
        ForeignKeySpec {
            r_rows: 250,
            s_rows: 900,
            groups: 50,
            r_sorted: true,
            s_sorted: false,
            dense: true,
            seed: 7,
        },
        dop,
    )
}

/// `serve.scan`'s FK pair: 250 k unsorted rows each side, 1 024 groups.
fn serve(dop: usize) -> Dqo {
    session(
        ForeignKeySpec {
            r_rows: 250_000,
            s_rows: 250_000,
            groups: 1024,
            r_sorted: false,
            s_sorted: false,
            dense: true,
            seed: 7,
        },
        dop,
    )
}

/// Plan `sql` once in `db`'s fresh engine: the plan's EXPLAIN and the
/// search's work.
fn search(db: &Dqo, sql: &str) -> (String, Work) {
    let logical = db.compile(sql).expect("compiles");
    let planned = db.engine().plan(&logical).expect("plans");
    let (stats, groups, kept) = db.engine().memo_stats();
    let work = Work {
        groups,
        built: stats.candidates_built,
        kept,
        rules: stats.rules_fired,
    };
    (planned.plan.explain(), work)
}

const JOIN: &str = "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id \
                    WHERE payload < 500 AND r_id < 1000007 GROUP BY a ORDER BY a";
const GROUP: &str = "SELECT r_id, COUNT(*) AS n, SUM(payload) AS t FROM s \
                     WHERE payload >= 500 AND r_id < 1000008 GROUP BY r_id ORDER BY r_id";
const SCAN: &str = "SELECT id, a FROM r WHERE a < 25 AND id < 1000009 ORDER BY id";
const JOIN_R_S: &str = "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id \
                        WHERE payload < 500 GROUP BY a ORDER BY a";

fn check(db: fn(usize) -> Dqo, sql: &str, dop: usize, plan: &str, work: Work) {
    let (explain, done) = search(&db(dop), sql);
    assert_eq!(explain, plan, "plan of {sql} at DOP {dop}");
    assert_eq!(done, work, "work of {sql} at DOP {dop}");
}

/// One search at DOP 1 and one at DOP 2: the same plan, and the same
/// work, because at these sizes every parallel twin costs more than its
/// serial candidate, so none is built.
fn check_serial_at_both(db: fn(usize) -> Dqo, sql: &str, plan: &str, work: Work) {
    for dop in [1, 2] {
        check(db, sql, dop, plan, work);
    }
}

#[test]
fn adhoc_join_template() {
    check_serial_at_both(
        adhoc,
        JOIN,
        "SPHG γ[a] {table=sph} COUNT(*) AS n\n\
         \x20 Filter payload < 500 AND r_id < 1000007\n\
         \x20   SPHJ on id = r_id\n\
         \x20     Scan r\n\
         \x20     Scan s\n",
        Work {
            groups: 6,
            built: 35,
            kept: 9,
            rules: 36,
        },
    );
}

#[test]
fn adhoc_group_template() {
    check_serial_at_both(
        adhoc,
        GROUP,
        "BSG γ[r_id] {table=sorted-array} COUNT(*) AS n, SUM(payload) AS t\n\
         \x20 Filter payload >= 500 AND r_id < 1000008\n\
         \x20   Scan s\n",
        Work {
            groups: 4,
            built: 11,
            kept: 5,
            rules: 12,
        },
    );
}

#[test]
fn adhoc_scan_template() {
    // The sort is elided (`r` is sorted on `id`), so the Sort group keeps
    // its input's candidate: four kept from three built.
    check_serial_at_both(
        adhoc,
        SCAN,
        "Project id, a\n\
         \x20 Filter a < 25 AND id < 1000009\n\
         \x20   Scan r\n",
        Work {
            groups: 4,
            built: 3,
            kept: 4,
            rules: 4,
        },
    );
}

#[test]
fn serve_join_r_s() {
    check(
        serve,
        JOIN_R_S,
        1,
        "SPHG γ[a] {table=sph} COUNT(*) AS n\n\
         \x20 Filter payload < 500\n\
         \x20   SPHJ on id = r_id\n\
         \x20     Scan r\n\
         \x20     Scan s\n",
        Work {
            groups: 6,
            built: 44,
            kept: 9,
            rules: 45,
        },
    );
    // At 250 k rows a side the twins pay for themselves: the plan runs at
    // DOP 2. Every filter, sort, join and grouping candidate may have a
    // twin, OG, BSG, OJ and BSJ included; one that cannot win is not built.
    check(
        serve,
        JOIN_R_S,
        2,
        "Exchange dop=2\n\
         \x20 SPHG γ[a] {table=sph} COUNT(*) AS n\n\
         \x20   Exchange dop=2\n\
         \x20     Filter payload < 500\n\
         \x20       Exchange dop=2\n\
         \x20         SPHJ on id = r_id\n\
         \x20           Scan r\n\
         \x20           Scan s\n",
        Work {
            groups: 6,
            built: 147,
            kept: 9,
            rules: 148,
        },
    );
}
