//! The four workloads: their tables, statement classes and seeded op
//! streams. Everything here is a pure function of `(workload, seed,
//! scale)`; the engine only ever sees what this module generates.
//!
//! Why these four (the one-line versions live in `BENCHMARK.json`):
//!
//! * `serve.scan` — prepared statements over 1 M-row tables; the time is
//!   executor + kernels + copies between operators.
//! * `serve.tiny` — the same statements over 1 000-row tables; kernels do
//!   almost nothing, the time is wire, bind, admission, plan-cache rebind.
//!   It is the bypass workload for any storage or kernel change.
//! * `adhoc.novel` — unprepared SQL whose literals never repeat; lexer,
//!   parser, binder and a cold memo search per statement, memo growing.
//! * `mixed.insert_read` — 16-row INSERTs beside prepared reads on a
//!   table with all three AV kinds; appends, delta maintenance and
//!   readers racing writers.

use crate::stats::{Fnv, Rng};
use dqo_core::av::{AvKind, AvSignature};
use dqo_storage::datagen::{DatasetSpec, ForeignKeySpec};
use dqo_storage::partition::{PartitionSpec, PartitionedRelation};
use dqo_storage::{Column, DataType, Dictionary, Field, Relation, Schema, Value};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeScan,
    ServeTiny,
    AdhocNovel,
    MixedInsertRead,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every committed number is measured at.
    Full,
    /// Small tables and a few hundred ops: the in-package tests.
    Smoke,
}

/// Closed-loop client connections. Callers that wait for a reply before
/// sending the next request — prepared-statement applications — form a
/// closed loop; two of them match the two cores of the reference box.
pub const CLIENTS: usize = 2;

/// Share of each op stream that runs untimed before measurement starts
/// (caches fill, lazy set-up finishes). `adhoc.novel` has none: cold
/// planning is what it measures.
const WARMUP_SHARE: f64 = 0.05;

/// Rows per INSERT statement on `mixed.insert_read`.
pub const INSERT_ROWS: usize = 16;
/// Every fifth op of a `mixed.insert_read` client is an INSERT (20 %).
const INSERT_EVERY: u64 = 5;
/// Distinct `city` values of `mixed.insert_read`'s table.
const CITIES: u32 = 8;
/// `adhoc.novel`: statements in the hot set, and one op in four draws
/// from it.
const HOT_SET: usize = 16;
const HOT_EVERY: u64 = 4;

/// The four selectivities `?` bounds cycle over, as (numerator, 8).
const SELECTIVITY_EIGHTHS: [u32; 4] = [1, 2, 4, 8];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeScan,
        Workload::ServeTiny,
        Workload::AdhocNovel,
        Workload::MixedInsertRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeScan => "serve.scan",
            Workload::ServeTiny => "serve.tiny",
            Workload::AdhocNovel => "adhoc.novel",
            Workload::MixedInsertRead => "mixed.insert_read",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Frozen op counts: operations (both clients together, warm-up
    /// included) per second of `--seconds`. Calibrated once so the timed
    /// phase takes about `--seconds` on the 2-core reference box at the
    /// commit that introduced the benchmark, then frozen: every later
    /// commit does the same work, so only equal counts are compared. On
    /// `adhoc.novel` that matters doubly — latency rises with statements
    /// seen.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Workload::ServeScan => 340,
            Workload::ServeTiny => 66_000,
            Workload::AdhocNovel => 1_800,
            Workload::MixedInsertRead => 360,
        }
    }

    /// Total ops of one run (all clients, warm-up included).
    pub fn total_ops(self, seconds: u64, scale: Scale) -> u64 {
        match scale {
            Scale::Full => self.ops_per_second() * seconds,
            Scale::Smoke => 240,
        }
    }

    pub fn warmup_ops(self, per_client: u64) -> u64 {
        match self {
            Workload::AdhocNovel => 0,
            _ => (per_client as f64 * WARMUP_SHARE).ceil() as u64,
        }
    }
}

/// A table as the engine receives it.
#[derive(Debug, Clone)]
pub enum TableData {
    Flat(Relation),
    Partitioned(PartitionedRelation),
}

impl TableData {
    pub fn flat(&self) -> &Relation {
        match self {
            TableData::Flat(rel) => rel,
            TableData::Partitioned(p) => p.flat(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Table {
    pub name: &'static str,
    pub data: TableData,
}

/// One statement class: SQL with `?` placeholders.
#[derive(Debug, Clone)]
pub struct Template {
    pub sql: String,
    /// Base-table rows the statement reads (for rows/s).
    pub input_rows: u64,
}

/// A template with concrete parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    pub template: usize,
    pub params: Vec<Value>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Index into [`Spec::classes`].
    pub class: usize,
    pub action: Action,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// EXECUTE of a prepared statement: index into [`Spec::variants`].
    Execute { variant: usize },
    /// QUERY with SQL text, literals spliced in. `hot` indexes
    /// [`Spec::variants`] when the statement comes from the hot set.
    Query { sql: String, hot: Option<usize> },
    /// INSERT of [`INSERT_ROWS`] rows with these keys; `params` are the
    /// `(key, city)` cells in placeholder order.
    Insert { keys: Vec<u32>, params: Vec<Value> },
}

/// The kernel microbench inputs of a traced run: the workload's own key
/// columns, so kernel rows/s are measured on the data the statements see.
#[derive(Debug, Clone)]
pub struct KernelInputs {
    /// Unsorted dense grouping keys.
    pub group_keys: Arc<Column>,
    /// The same domain, ascending (OG needs key-partitioned input).
    pub group_keys_sorted: Arc<Column>,
    /// Build and probe side of the workload's join.
    pub join_left: Arc<Column>,
    pub join_right: Arc<Column>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub tables: Vec<Table>,
    pub avs: Vec<AvSignature>,
    pub templates: Vec<Template>,
    pub variants: Vec<Variant>,
    /// Latency classes: one per template, plus workload-specific extras.
    pub classes: Vec<String>,
    pub insert_sql: Option<String>,
    /// `mixed.insert_read`: the `(k, w)` rows of the dimension table `d`,
    /// which decide whether an inserted key shows in the join's count.
    pub join_dim: Vec<(u32, u32)>,
    pub kernels: KernelInputs,
    /// Table (with a dense `u32` key column) the insert probe of a traced
    /// run appends to.
    pub insert_probe: (&'static str, &'static str),
    groups: u32,
}

struct Sizes {
    rows: usize,
    groups: usize,
    r_rows: usize,
    s_rows: usize,
}

impl Spec {
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> Spec {
        match workload {
            Workload::ServeScan => {
                let sizes = match scale {
                    Scale::Full => Sizes {
                        rows: 1_000_000,
                        groups: 1024,
                        r_rows: 250_000,
                        s_rows: 250_000,
                    },
                    Scale::Smoke => Sizes {
                        rows: 20_000,
                        groups: 256,
                        r_rows: 2_000,
                        s_rows: 8_000,
                    },
                };
                serve(workload, seed, &sizes)
            }
            Workload::ServeTiny => serve(
                workload,
                seed,
                &Sizes {
                    rows: 1_000,
                    groups: 64,
                    r_rows: 250,
                    s_rows: 1_000,
                },
            ),
            Workload::AdhocNovel => adhoc(seed),
            Workload::MixedInsertRead => mixed(
                seed,
                match scale {
                    Scale::Full => 1_000_000,
                    Scale::Smoke => 20_000,
                },
            ),
        }
    }

    pub fn is_read(&self, class: usize) -> bool {
        self.classes[class] != "insert"
    }

    /// The statement template a latency class reads through (`None` for
    /// the INSERT class).
    pub fn template_of(&self, class: usize) -> Option<usize> {
        match self.workload {
            _ if !self.is_read(class) => None,
            // Two classes (novel, hot) per template.
            Workload::AdhocNovel => Some(class / 2),
            _ => Some(class),
        }
    }

    /// SQL text of a statement with its literals spliced in.
    pub fn render(&self, template: usize, params: &[Value]) -> String {
        let mut params = params.iter();
        let mut out = String::new();
        for c in self.templates[template].sql.chars() {
            if c != '?' {
                out.push(c);
                continue;
            }
            match params.next() {
                Some(Value::Str(s)) => {
                    out.push('\'');
                    out.push_str(s);
                    out.push('\'');
                }
                Some(Value::U32(v)) => out.push_str(&v.to_string()),
                other => panic!("no literal for placeholder: {other:?}"),
            }
        }
        out
    }

    /// The rows an INSERT op appends: `(key, city)` per key.
    pub fn insert_rows(keys: &[u32]) -> Vec<Vec<Value>> {
        keys.iter()
            .map(|&k| vec![Value::U32(k), Value::Str(city_of(k))])
            .collect()
    }

    /// Whether a row inserted with `key` is counted by read `variant`'s
    /// total (the sum of its count column) on `mixed.insert_read`.
    pub fn counts_inserted_key(&self, variant: usize, key: u32) -> bool {
        let v = &self.variants[variant];
        match (v.template, v.params.first()) {
            (0, _) => true,
            (1, Some(Value::U32(bound))) => key < *bound,
            (2, Some(Value::Str(city))) => city_of(key) == *city,
            (3, Some(Value::U32(bound))) => {
                self.join_dim.iter().any(|&(k, w)| k == key && w < *bound)
            }
            other => panic!("mixed.insert_read has no read shape {other:?}"),
        }
    }

    /// A digest of every generated input: tables, statements, variants.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for t in &self.tables {
            h.bytes(t.name.as_bytes());
            let rel = t.data.flat();
            for idx in 0..rel.schema().width() {
                let col = rel.column_at(idx).expect("index within schema width");
                for &v in col
                    .as_u32()
                    .expect("generated tables hold u32 and str columns")
                {
                    h.bytes(&v.to_le_bytes());
                }
                if let Ok(Some(dict)) = rel.dictionary_at(idx) {
                    for code in dict.code_domain() {
                        h.bytes(dict.decode(code).expect("code in domain").as_bytes());
                    }
                }
            }
        }
        for t in &self.templates {
            h.bytes(t.sql.as_bytes());
        }
        for v in &self.variants {
            h.bytes(format!("{v:?}").as_bytes());
        }
        h.0
    }
}

fn city_of(key: u32) -> String {
    format!("c{}", key % CITIES)
}

fn two_u32(names: [&str; 2], a: Vec<u32>, b: Vec<u32>) -> Relation {
    let schema = Schema::new(vec![
        Field::new(names[0], DataType::U32),
        Field::new(names[1], DataType::U32),
    ])
    .expect("distinct column names");
    Relation::new(schema, vec![Column::U32(a), Column::U32(b)]).expect("equal-length columns")
}

fn random_column(rows: usize, below: u64, rng: &mut Rng) -> Vec<u32> {
    (0..rows).map(|_| rng.below(below) as u32).collect()
}

fn key_column(rel: &Relation, name: &str) -> Arc<Column> {
    rel.column_arc(name).expect("generated column")
}

fn sorted_copy(col: &Column) -> Arc<Column> {
    let mut v = col.as_u32().expect("u32 key column").to_vec();
    v.sort_unstable();
    Arc::new(Column::U32(v))
}

/// `key < ?` bounds at the four selectivities over this column's domain.
fn key_bounds(keys: &[u32]) -> Vec<u32> {
    let mut distinct = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    SELECTIVITY_EIGHTHS
        .iter()
        .map(
            |&eighths| match distinct.get(distinct.len() * eighths as usize / 8) {
                Some(&k) => k,
                None => u32::MAX,
            },
        )
        .collect()
}

/// `serve.scan` and `serve.tiny`: the paper's four Fig-4 shapes, an FK
/// pair and a 16-way range-partitioned copy; seven statement classes.
fn serve(workload: Workload, seed: u64, sizes: &Sizes) -> Spec {
    let mut tables = Vec::new();
    let mut templates = Vec::new();
    let mut variants = Vec::new();
    let mut classes = Vec::new();
    let rows = sizes.rows as u64;

    // filter → group → order on each shape.
    let shapes = [
        ("sd", true, true),
        ("ss", true, false),
        ("ud", false, true),
        ("us", false, false),
    ];
    for (i, (name, sorted, dense)) in shapes.into_iter().enumerate() {
        let keys = DatasetSpec::new(sizes.rows, sizes.groups)
            .sorted(sorted)
            .dense(dense)
            .seed(Rng::fork(seed, 10 + i as u64).next_u64())
            .generate()
            .expect("rows and groups are positive");
        let bounds = key_bounds(&keys);
        let vals = random_column(sizes.rows, 1000, &mut Rng::fork(seed, 20 + i as u64));
        tables.push(Table {
            name,
            data: TableData::Flat(two_u32(["key", "val"], keys, vals)),
        });
        templates.push(Template {
            sql: format!(
                "SELECT key, COUNT(*) AS n, SUM(val) AS s FROM {name} WHERE key < ? \
                 GROUP BY key ORDER BY key"
            ),
            input_rows: rows,
        });
        classes.push(format!("group.{name}"));
        for bound in bounds {
            variants.push(Variant {
                template: i,
                params: vec![Value::U32(bound)],
            });
        }
    }

    // join → group over an FK pair (the paper's §4.3 query with a filter).
    let (r, s) = ForeignKeySpec {
        r_rows: sizes.r_rows,
        s_rows: sizes.s_rows,
        groups: sizes.groups.min(sizes.r_rows),
        r_sorted: false,
        s_sorted: false,
        dense: true,
        seed: Rng::fork(seed, 30).next_u64(),
    }
    .generate()
    .expect("groups do not exceed |R|");
    templates.push(Template {
        sql: "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id WHERE payload < ? \
              GROUP BY a ORDER BY a"
            .into(),
        input_rows: (sizes.r_rows + sizes.s_rows) as u64,
    });
    classes.push("join.r_s".into());
    for eighths in SELECTIVITY_EIGHTHS {
        variants.push(Variant {
            template: 4,
            params: vec![Value::U32(1000 * eighths / 8)],
        });
    }

    // pruned scan → group: the predicate keeps 2 of 16 range partitions
    // of a table twice the size, so the class costs about what the
    // others do.
    let p_keys = DatasetSpec::new(2 * sizes.rows, sizes.groups)
        .seed(Rng::fork(seed, 14).next_u64())
        .generate()
        .expect("rows and groups are positive");
    let p_vals = random_column(2 * sizes.rows, 1000, &mut Rng::fork(seed, 24));
    let step = (sizes.groups / 16) as u32;
    let spec = PartitionSpec::range("key", (1..16).map(|i| i * step).collect());
    let p = PartitionedRelation::new(two_u32(["key", "val"], p_keys, p_vals), spec)
        .expect("ascending bounds on a u32 column");
    templates.push(Template {
        sql: "SELECT key, COUNT(*) AS n, SUM(val) AS s FROM p WHERE key >= ? AND key < ? \
              GROUP BY key ORDER BY key"
            .into(),
        input_rows: 2 * rows,
    });
    classes.push("pruned.p".into());
    for first in [1u32, 5, 9, 13] {
        variants.push(Variant {
            template: 5,
            params: vec![Value::U32(first * step), Value::U32((first + 2) * step)],
        });
    }

    // filter → order → limit; `id` is unique, so the answer is determined.
    templates.push(Template {
        sql: "SELECT id, a FROM r WHERE a < ? ORDER BY id LIMIT 100".into(),
        input_rows: sizes.r_rows as u64,
    });
    classes.push("top.r".into());
    let a_groups = sizes.groups.min(sizes.r_rows) as u32;
    for eighths in SELECTIVITY_EIGHTHS {
        variants.push(Variant {
            template: 6,
            params: vec![Value::U32(a_groups * eighths / 8)],
        });
    }

    let kernels = KernelInputs {
        group_keys: key_column(tables[2].data.flat(), "key"),
        group_keys_sorted: key_column(tables[0].data.flat(), "key"),
        join_left: key_column(&r, "id"),
        join_right: key_column(&s, "r_id"),
    };
    tables.push(Table {
        name: "r",
        data: TableData::Flat(r),
    });
    tables.push(Table {
        name: "s",
        data: TableData::Flat(s),
    });
    tables.push(Table {
        name: "p",
        data: TableData::Partitioned(p),
    });
    Spec {
        workload,
        tables,
        avs: Vec::new(),
        templates,
        variants,
        classes,
        insert_sql: None,
        join_dim: Vec::new(),
        kernels,
        insert_probe: ("ud", "key"),
        groups: sizes.groups as u32,
    }
}

/// `adhoc.novel`: tables so small that executing costs less than one cold
/// plan; three templates whose literals never repeat, and a hot set.
fn adhoc(seed: u64) -> Spec {
    const R_ROWS: usize = 250;
    const S_ROWS: usize = 900;
    const GROUPS: usize = 50;
    let (r, s) = ForeignKeySpec {
        r_rows: R_ROWS,
        s_rows: S_ROWS,
        groups: GROUPS,
        r_sorted: true,
        s_sorted: false,
        dense: true,
        seed: Rng::fork(seed, 40).next_u64(),
    }
    .generate()
    .expect("groups do not exceed |R|");
    // Each statement carries one in-domain literal (it sets the
    // selectivity) and one literal above the column's domain that is
    // unique to the op (it makes the statement text, and so the memo
    // group, novel without changing the answer's shape).
    let templates = vec![
        Template {
            sql: "SELECT a, COUNT(*) AS n FROM r JOIN s ON r.id = s.r_id \
                  WHERE payload < ? AND r_id < ? GROUP BY a ORDER BY a"
                .into(),
            input_rows: (R_ROWS + S_ROWS) as u64,
        },
        Template {
            sql: "SELECT r_id, COUNT(*) AS n, SUM(payload) AS t FROM s \
                  WHERE payload >= ? AND r_id < ? GROUP BY r_id ORDER BY r_id"
                .into(),
            input_rows: S_ROWS as u64,
        },
        Template {
            sql: "SELECT id, a FROM r WHERE a < ? AND id < ? ORDER BY id".into(),
            input_rows: R_ROWS as u64,
        },
    ];
    let mut rng = Rng::fork(seed, 41);
    let variants = (0..HOT_SET)
        .map(|i| {
            let template = i % templates.len();
            Variant {
                template,
                params: adhoc_params(template, 1_000_000 + i as u32, &mut rng),
            }
        })
        .collect();
    let classes = ["join", "group", "scan"]
        .iter()
        .flat_map(|t| [format!("{t}.novel"), format!("{t}.hot")])
        .collect();
    let kernels = KernelInputs {
        group_keys: key_column(&s, "r_id"),
        group_keys_sorted: sorted_copy(&key_column(&s, "r_id")),
        join_left: key_column(&r, "id"),
        join_right: key_column(&s, "r_id"),
    };
    Spec {
        workload: Workload::AdhocNovel,
        tables: vec![
            Table {
                name: "r",
                data: TableData::Flat(r),
            },
            Table {
                name: "s",
                data: TableData::Flat(s),
            },
        ],
        avs: Vec::new(),
        templates,
        variants,
        classes,
        insert_sql: None,
        join_dim: Vec::new(),
        kernels,
        insert_probe: ("s", "r_id"),
        groups: GROUPS as u32,
    }
}

/// The in-domain literal keeps the predicate between a tenth and nine
/// tenths selective. Nearer the edges the row estimate is a handful of
/// rows, an actual count of zero is 4× off, and the engine records a
/// selectivity correction — which empties the session memo. Whether and
/// when a seed draws such a literal would then decide how large the memo
/// grows, and runs of different seeds would not compare.
fn adhoc_params(template: usize, unique: u32, rng: &mut Rng) -> Vec<Value> {
    let in_domain = match template {
        0 | 1 => 100 + rng.below(800) as u32,
        _ => 5 + rng.below(40) as u32,
    };
    vec![Value::U32(in_domain), Value::U32(unique)]
}

/// `mixed.insert_read`: `t(key, city)` with all three AV kinds on `key`,
/// a small dimension table `d(k, w)` so one read shape probes the
/// maintained SPH index, four read shapes and the INSERT.
fn mixed(seed: u64, rows: usize) -> Spec {
    const GROUPS: usize = 1024;
    const DIM_ROWS: usize = 64;
    let keys = DatasetSpec::new(rows, GROUPS)
        .sorted(false)
        .dense(true)
        .seed(Rng::fork(seed, 50).next_u64())
        .generate()
        .expect("rows and groups are positive");
    let cities: Vec<String> = keys.iter().map(|&k| city_of(k)).collect();
    let (dict, codes) = Dictionary::encode_all(&cities);
    let schema = Schema::new(vec![
        Field::new("key", DataType::U32),
        Field::new("city", DataType::Str),
    ])
    .expect("distinct column names");
    let t = Relation::new(schema, vec![Column::U32(keys), Column::Str(codes)])
        .expect("equal-length columns")
        .with_dictionary("city", Arc::new(dict))
        .expect("city is a Str column");

    let mut rng = Rng::fork(seed, 51);
    let mut dim_keys: Vec<u32> = (0..GROUPS as u32).collect();
    rng.shuffle(&mut dim_keys);
    dim_keys.truncate(DIM_ROWS);
    let dim: Vec<(u32, u32)> = dim_keys
        .into_iter()
        .map(|k| (k, rng.below(1000) as u32))
        .collect();
    let d = two_u32(
        ["k", "w"],
        dim.iter().map(|&(k, _)| k).collect(),
        dim.iter().map(|&(_, w)| w).collect(),
    );

    let rows = rows as u64;
    let templates = vec![
        // Answerable from the materialised grouping (aliases as the AV's).
        Template {
            sql: "SELECT key, COUNT(*) AS count, SUM(key) AS sum FROM t GROUP BY key ORDER BY key"
                .into(),
            input_rows: rows,
        },
        Template {
            sql: "SELECT key, COUNT(*) AS n FROM t WHERE key < ? GROUP BY key ORDER BY key".into(),
            input_rows: rows,
        },
        Template {
            sql: "SELECT key, COUNT(*) AS n FROM t WHERE city = ? GROUP BY key ORDER BY key".into(),
            input_rows: rows,
        },
        // Builds on `t`, so the SPH index on `t.key` answers the join.
        Template {
            sql: "SELECT w, COUNT(*) AS n FROM t JOIN d ON t.key = d.k WHERE w < ? \
                  GROUP BY w ORDER BY w"
                .into(),
            input_rows: rows + DIM_ROWS as u64,
        },
    ];
    let mut variants = vec![Variant {
        template: 0,
        params: Vec::new(),
    }];
    for eighths in SELECTIVITY_EIGHTHS {
        variants.push(Variant {
            template: 1,
            params: vec![Value::U32(GROUPS as u32 * eighths / 8)],
        });
    }
    for c in [0u32, 3, 5, 6] {
        variants.push(Variant {
            template: 2,
            params: vec![Value::Str(city_of(c))],
        });
    }
    for eighths in SELECTIVITY_EIGHTHS {
        variants.push(Variant {
            template: 3,
            params: vec![Value::U32(1000 * eighths / 8)],
        });
    }
    let kernels = KernelInputs {
        group_keys: key_column(&t, "key"),
        group_keys_sorted: sorted_copy(&key_column(&t, "key")),
        join_left: key_column(&t, "key"),
        join_right: key_column(&d, "k"),
    };
    let avs = [
        AvKind::SortedProjection,
        AvKind::SphIndex,
        AvKind::MaterialisedGrouping,
    ]
    .map(|kind| AvSignature::new("t", "key", kind))
    .to_vec();
    Spec {
        workload: Workload::MixedInsertRead,
        tables: vec![
            Table {
                name: "t",
                data: TableData::Flat(t),
            },
            Table {
                name: "d",
                data: TableData::Flat(d),
            },
        ],
        avs,
        templates,
        variants,
        classes: ["all.av", "filter.key", "filter.city", "join.d", "insert"]
            .map(String::from)
            .to_vec(),
        insert_sql: Some(format!(
            "INSERT INTO t VALUES {}",
            vec!["(?, ?)"; INSERT_ROWS].join(", ")
        )),
        join_dim: dim,
        kernels,
        insert_probe: ("t", "key"),
        groups: GROUPS as u32,
    }
}

/// One client's op stream: a pure function of `(spec, seed, client)`,
/// generated lazily so a 400 000-op run holds no op list in memory.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    client: u64,
    index: u64,
    /// Seeded order the prepared variants cycle in, so every variant gets
    /// exactly its share of the ops.
    order: Vec<usize>,
}

impl Stream {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> Stream {
        let mut rng = Rng::fork(seed, 100 + client as u64);
        let mut order: Vec<usize> = (0..spec.variants.len()).collect();
        rng.shuffle(&mut order);
        Stream {
            rng,
            client: client as u64,
            index: 0,
            order,
        }
    }

    pub fn next_op(&mut self, spec: &Spec) -> Op {
        let i = self.index;
        self.index += 1;
        match spec.workload {
            Workload::ServeScan | Workload::ServeTiny => self.cycle(spec, i),
            Workload::MixedInsertRead => {
                if i % INSERT_EVERY == INSERT_EVERY - 1 {
                    let groups = u64::from(spec.groups);
                    let keys: Vec<u32> = (0..INSERT_ROWS)
                        .map(|_| self.rng.below(groups) as u32)
                        .collect();
                    let params = Spec::insert_rows(&keys).into_iter().flatten().collect();
                    Op {
                        class: spec.classes.len() - 1,
                        action: Action::Insert { keys, params },
                    }
                } else {
                    self.cycle(spec, i - i / INSERT_EVERY)
                }
            }
            Workload::AdhocNovel => {
                if self.rng.below(HOT_EVERY) == 0 {
                    let hot = self.rng.below(spec.variants.len() as u64) as usize;
                    let v = &spec.variants[hot];
                    Op {
                        class: v.template * 2 + 1,
                        action: Action::Query {
                            sql: spec.render(v.template, &v.params),
                            hot: Some(hot),
                        },
                    }
                } else {
                    let template = self.rng.below(spec.templates.len() as u64) as usize;
                    // Above every column's domain and every hot-set
                    // literal; distinct per (client, op).
                    let unique = 2_000_000 + (self.client << 28) as u32 + i as u32;
                    let params = adhoc_params(template, unique, &mut self.rng);
                    Op {
                        class: template * 2,
                        action: Action::Query {
                            sql: spec.render(template, &params),
                            hot: None,
                        },
                    }
                }
            }
        }
    }

    fn cycle(&self, spec: &Spec, nth: u64) -> Op {
        let variant = self.order[(nth % self.order.len() as u64) as usize];
        Op {
            class: spec.variants[variant].template,
            action: Action::Execute { variant },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(spec: &Spec, seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut s = Stream::new(spec, seed, client);
        (0..n).map(|_| s.next_op(spec)).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = Spec::build(w, 7, Scale::Smoke);
            let b = Spec::build(w, 7, Scale::Smoke);
            let c = Spec::build(w, 8, Scale::Smoke);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", w.name());
            for client in 0..CLIENTS {
                assert_eq!(head(&a, 7, client, 200), head(&b, 7, client, 200));
                assert_ne!(head(&a, 7, client, 200), head(&a, 8, client, 200));
            }
            assert_ne!(head(&a, 7, 0, 200), head(&a, 7, 1, 200));
        }
    }

    #[test]
    fn names_round_trip_and_counts_are_frozen() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(w.total_ops(10, Scale::Full), w.ops_per_second() * 10);
        }
        assert_eq!(Workload::parse("serve"), None);
        assert_eq!(Workload::AdhocNovel.warmup_ops(1000), 0);
        assert_eq!(Workload::ServeTiny.warmup_ops(1000), 50);
    }

    #[test]
    fn serve_cycles_every_variant_equally() {
        let spec = Spec::build(Workload::ServeTiny, 3, Scale::Smoke);
        assert_eq!(spec.templates.len(), 7);
        assert_eq!(spec.variants.len(), 28);
        let mut seen = vec![0usize; spec.variants.len()];
        for op in head(&spec, 3, 0, 28 * 5) {
            match op.action {
                Action::Execute { variant } => seen[variant] += 1,
                other => panic!("serve streams only execute, got {other:?}"),
            }
        }
        assert!(seen.iter().all(|&n| n == 5));
    }

    #[test]
    fn adhoc_novel_statements_never_repeat_and_a_quarter_is_hot() {
        let spec = Spec::build(Workload::AdhocNovel, 5, Scale::Smoke);
        let mut texts = std::collections::HashSet::new();
        let (mut hot_ops, mut novel_ops) = (0, 0);
        for client in 0..CLIENTS {
            for op in head(&spec, 5, client, 4000) {
                let Action::Query { sql, hot } = op.action else {
                    panic!("adhoc streams only query");
                };
                if hot.is_some() {
                    hot_ops += 1;
                } else {
                    novel_ops += 1;
                    assert!(texts.insert(sql));
                }
            }
        }
        let share = hot_ops as f64 / (hot_ops + novel_ops) as f64;
        assert!((0.22..0.28).contains(&share), "hot share {share}");
    }

    #[test]
    fn mixed_inserts_are_every_fifth_op_and_render_splices_literals() {
        let spec = Spec::build(Workload::MixedInsertRead, 9, Scale::Smoke);
        let ops = head(&spec, 9, 0, 100);
        let inserts = ops
            .iter()
            .filter(|op| matches!(op.action, Action::Insert { .. }))
            .count();
        assert_eq!(inserts, 20);
        assert!(!spec.is_read(spec.classes.len() - 1));
        assert_eq!(
            spec.render(2, &[Value::Str("c3".into())]),
            "SELECT key, COUNT(*) AS n FROM t WHERE city = 'c3' GROUP BY key ORDER BY key"
        );
        // variant 0 counts every key; the city shape only its own.
        assert!(spec.counts_inserted_key(0, 11));
        let city3 = spec
            .variants
            .iter()
            .position(|v| v.params == vec![Value::Str("c3".into())])
            .unwrap();
        assert!(spec.counts_inserted_key(city3, 11));
        assert!(!spec.counts_inserted_key(city3, 12));
    }
}
