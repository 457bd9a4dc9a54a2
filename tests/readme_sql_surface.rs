//! Keeps the README's "SQL surface" section honest: every statement it
//! lists as supported must parse and bind, every statement it lists as
//! unsupported must be rejected with a typed `SqlError` — so the lists
//! cannot drift from the parser and binder again.

use dqo::storage::{Column, DataType, Dictionary, Field, Relation, Schema};
use dqo::{Dqo, DqoError};
use std::sync::Arc;

/// The statements of the fenced `sql` block that follows `marker`.
fn listed(marker: &str) -> Vec<String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md must exist");
    let after = readme
        .split_once(marker)
        .unwrap_or_else(|| panic!("README.md lost its {marker} marker"))
        .1;
    let block = after
        .split_once("```sql\n")
        .and_then(|(_, rest)| rest.split_once("```"))
        .unwrap_or_else(|| panic!("no sql block after {marker}"))
        .0;
    let statements: Vec<String> = block.lines().map(str::to_owned).collect();
    assert!(statements.len() >= 5, "{marker}: suspiciously short list");
    statements
}

/// The schema the README's lists are written against.
fn db() -> Dqo {
    let db = Dqo::new();
    let (dict, codes) = Dictionary::encode_all(&["alpha", "beta", "bravo"]);
    let t = Relation::new(
        Schema::new(vec![
            Field::new("id", DataType::U32),
            Field::new("k", DataType::U32),
            Field::new("v", DataType::U32),
            Field::new("s", DataType::Str),
        ])
        .unwrap(),
        vec![
            Column::U32(vec![1, 2, 3]),
            Column::U32(vec![1, 1, 2]),
            Column::U32(vec![5, 6, 7]),
            Column::Str(codes),
        ],
    )
    .unwrap()
    .with_dictionary("s", Arc::new(dict))
    .unwrap();
    let u = Relation::new(
        Schema::new(vec![
            Field::new("t_id", DataType::U32),
            Field::new("w", DataType::U32),
        ])
        .unwrap(),
        vec![Column::U32(vec![1, 2]), Column::U32(vec![9, 8])],
    )
    .unwrap();
    db.register_table("t", t);
    db.register_table("u", u);
    db
}

#[test]
fn every_construct_listed_as_supported_binds_and_runs() {
    let db = db();
    for sql in listed("<!-- sql-surface:supported -->") {
        db.compile(&sql)
            .unwrap_or_else(|e| panic!("README lists as supported, but: {sql}\n  {e}"));
        db.sql(&sql)
            .unwrap_or_else(|e| panic!("binds but does not execute: {sql}\n  {e}"));
    }
}

#[test]
fn every_construct_listed_as_unsupported_is_a_typed_error() {
    let db = db();
    for sql in listed("<!-- sql-surface:unsupported -->") {
        match db.compile(&sql) {
            Err(DqoError::Sql(_)) => {}
            Ok(_) => panic!("README lists as unsupported, but it binds: {sql}"),
            Err(other) => panic!("{sql}: expected a SqlError, got {other:?}"),
        }
    }
}
