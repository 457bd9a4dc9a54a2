//! SQL-text fuzzer: README- and spine-shaped statements, mutated at the
//! token level — a token dropped, duplicated, swapped with another, or
//! replaced by an edge literal (`4294967296`, `-1`,
//! `LIMIT 18446744073709551615`, an empty string, a lone `?`, …) — must
//! come back from `Dqo::sql` and from `Dqo::prepare` (which runs
//! `PreparedQuery::prepare`) as `Ok` or as a typed error, never as a
//! panic. A statement that prepares is also executed with edge values in
//! its parameters.
//!
//! The mutations are drawn from a fixed-seed generator over a fixed case
//! count, so a failure reproduces exactly: the panicking statement is
//! printed.

use dqo::storage::{Column, DataType, Dictionary, Field, Relation, Schema};
use dqo::{Dqo, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Mutated statements per run.
const CASES: usize = 100_000;

/// The README's statements over t(id, k, v, s) and u(t_id, w), and the
/// benchmark's over p(key, val), r(id, a) and s(r_id, payload).
const STATEMENTS: &[&str] = &[
    "SELECT k FROM t",
    "SELECT k AS key, v FROM t WHERE k < 40 AND v >= 3 AND k <> 7",
    "SELECT s FROM t WHERE s = 'beta' AND s >= 'alpha' AND s <> 'bravo'",
    "SELECT k FROM t WHERE s LIKE 'br%'",
    "SELECT k FROM t WHERE s LIKE 'b_ta'",
    "SELECT k, COUNT(*) AS n, SUM(v) AS total, MIN(v), MAX(v), AVG(v) FROM t GROUP BY k",
    "SELECT s, k, COUNT(*) AS n FROM t GROUP BY s, k ORDER BY s ASC",
    "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k LIMIT 10",
    "SELECT id, v FROM t ORDER BY id LIMIT 100",
    "SELECT k, w FROM t JOIN u ON t.id = u.t_id WHERE w < 9",
    "SELECT k, COUNT(*) AS n FROM t INNER JOIN u ON t.id = u.t_id GROUP BY k ORDER BY k",
    "SELECT key, COUNT(*) AS n, SUM(val) AS s FROM p WHERE key < ? GROUP BY key ORDER BY key",
    "SELECT key, COUNT(*) AS n, SUM(val) AS s FROM p WHERE key >= ? AND key < ? GROUP BY key",
    "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id WHERE payload < ? GROUP BY a ORDER BY a",
    "SELECT r_id, COUNT(*) AS n, SUM(payload) AS t FROM s GROUP BY r_id",
    "SELECT id, a FROM r WHERE a < ? ORDER BY id LIMIT 100",
    "SELECT id, a FROM r WHERE a < ? AND id < ? ORDER BY id",
];

/// Tokens a substitution draws from: edge literals first.
const EDGES: &[&str] = &[
    "4294967296",
    "4294967295",
    "-1",
    "0",
    "18446744073709551615",
    "LIMIT 18446744073709551615",
    "LIMIT 0",
    "''",
    "'%'",
    "'_'",
    "?",
    "*",
    "(",
    ")",
    ",",
    ".",
    ";",
    "=",
    "<>",
    "AND",
    "JOIN",
    "GROUP BY",
    "ORDER BY",
    "COUNT(*)",
    "SUM(",
    "AS",
];

/// The values a prepared statement's parameters are bound to.
const PARAMS: &[Value] = &[Value::U32(0), Value::U32(u32::MAX), Value::U64(u64::MAX)];

/// `columns` over `rows` rows of small `u32` values.
fn table(columns: &[&str], rows: u32) -> Relation {
    let fields = columns
        .iter()
        .map(|n| Field::new(*n, DataType::U32))
        .collect();
    let data = (0..columns.len() as u32)
        .map(|c| Column::U32((0..rows).map(|i| (i * (c + 7)) % 40).collect()))
        .collect();
    Relation::new(Schema::new(fields).unwrap(), data).unwrap()
}

/// The tables the statements read, a few dozen rows each.
fn db() -> Dqo {
    let db = Dqo::new();
    let (dict, codes) = Dictionary::encode_all(&["alpha", "beta", "bravo"]);
    let t = table(&["id", "k", "v"], 48);
    let mut fields = t.schema().fields().to_vec();
    fields.push(Field::new("s", DataType::Str));
    let mut columns: Vec<Column> = (0..3).map(|i| t.column_at(i).unwrap().clone()).collect();
    columns.push(Column::Str(
        (0..48).map(|i| codes[i % codes.len()]).collect(),
    ));
    let t = Relation::new(Schema::new(fields).unwrap(), columns)
        .unwrap()
        .with_dictionary("s", Arc::new(dict))
        .unwrap();
    db.register_table("t", t);
    db.register_table("u", table(&["t_id", "w"], 40));
    db.register_table("p", table(&["key", "val"], 64));
    db.register_table("r", table(&["id", "a"], 40));
    db.register_table("s", table(&["r_id", "payload"], 64));
    db
}

/// `text` split into tokens: quoted strings, words and numbers, the
/// two-character comparisons, and single punctuation characters.
fn tokens(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let start = i;
        i += 1;
        if c.is_whitespace() {
            continue;
        }
        if c == '\'' {
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            i = (i + 1).min(chars.len());
        } else if c.is_alphanumeric() || c == '_' {
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
        } else if matches!((c, chars.get(i)), ('<', Some('=' | '>')) | ('>', Some('='))) {
            i += 1;
        }
        out.push(chars[start..i].iter().collect());
    }
    out
}

/// A fixed-seed xorshift generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }
}

/// One to three token-level mutations of `text`.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut toks = tokens(text);
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(toks.len());
        match rng.below(4) {
            0 if !toks.is_empty() => {
                toks.remove(at);
            }
            1 if !toks.is_empty() => toks.insert(at, toks[at].clone()),
            2 => {
                let other = rng.below(toks.len());
                if at < toks.len() {
                    toks.swap(at, other);
                }
            }
            _ => {
                let edge = EDGES[rng.below(EDGES.len())].to_string();
                match at < toks.len() && rng.below(2) == 0 {
                    true => toks[at] = edge,
                    false => toks.insert(at.min(toks.len()), edge),
                }
            }
        }
    }
    toks.join(" ")
}

/// Literals a `?` becomes for `Dqo::sql`.
const INLINED: &[&str] = &["0", "20", "4294967295", "4294967296", "-1"];

/// Run `text` through `Dqo::sql`, each `?` inlined as an edge literal, and
/// through `Dqo::prepare` — and, when it prepares, through
/// `Dqo::execute_prepared` with edge parameters — and report a panic as an
/// error naming the statement.
fn survives(db: &Dqo, text: &str, rng: &mut Rng) -> Result<(), String> {
    let inlined: String = text
        .split('?')
        .map(str::to_owned)
        .reduce(|a, b| a + INLINED[rng.below(INLINED.len())] + &b)
        .unwrap_or_default();
    let run = || {
        let _ = db.sql(&inlined);
        if let Ok(stmt) = db.prepare(text) {
            let params: Vec<Value> = (0..stmt.param_count())
                .map(|_| PARAMS[rng.below(PARAMS.len())].clone())
                .collect();
            let _ = db.execute_prepared(&stmt, &params);
        }
    };
    catch_unwind(AssertUnwindSafe(run)).map_err(|_| format!("panicked on: {text} / {inlined}"))
}

#[test]
fn the_base_statements_run() {
    let db = db();
    for text in STATEMENTS {
        let stmt = db.prepare(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let params = vec![Value::U32(20); stmt.param_count()];
        db.execute_prepared(&stmt, &params)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
    }
}

#[test]
fn mutated_statements_return_ok_or_a_typed_error() {
    let db = db();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut panics = Vec::new();
    for case in 0..CASES {
        let text = mutate(STATEMENTS[case % STATEMENTS.len()], &mut rng);
        if let Err(panic) = survives(&db, &text, &mut rng) {
            panics.push(panic);
        }
    }
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
}

#[test]
fn edge_literals_at_every_position_return_ok_or_a_typed_error() {
    let db = db();
    let mut rng = Rng(7);
    let mut panics = Vec::new();
    for text in STATEMENTS {
        let toks = tokens(text);
        for at in 0..=toks.len() {
            for edge in EDGES {
                for replace in [false, true] {
                    let mut toks = toks.clone();
                    match replace && at < toks.len() {
                        true => toks[at] = edge.to_string(),
                        false => toks.insert(at, edge.to_string()),
                    }
                    if let Err(panic) = survives(&db, &toks.join(" "), &mut rng) {
                        panics.push(panic);
                    }
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
}
