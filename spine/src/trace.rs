//! The traced run: where the time of an op goes, layer by layer.
//!
//! The head of client 0's op stream is replayed three times, slice by
//! slice in turns — over the socket with one client (client-observed
//! latency per op), in-process on this thread with a span around every
//! call into a layer's public functions, and over the socket against a
//! server built with `DQO_OBS=off`. What the
//! in-process spans do not cover is the transport: socket, syscalls and
//! the hand-off between threads. Microbenchmarks over the workload's own
//! statements and key columns give the layer numbers an op does not pass
//! through. End-to-end metrics never come from here.
//!
//! Spans are recorded around calls from this package only; spans inside
//! the crates are a later change.

use crate::json::Json;
use crate::run::{empty_served_engine, register, served_engine, Rig, Schemas, Session};
use crate::stats::median;
use crate::workloads::{Action, Op, Scale, Spec, Stream, Workload, CLIENTS, INSERT_ROWS};
use dqo_core::Engine;
use dqo_exec::aggregate::CountSum;
use dqo_exec::grouping::{execute_grouping, GroupingAlgorithm, GroupingHints};
use dqo_exec::join::{execute_join, JoinAlgorithm, JoinHints};
use dqo_obs::Phase;
use dqo_server::protocol::{
    decode_client_frame, decode_server_frame, encode_client_frame, encode_server_frame,
    ClientFrame, ServerFrame,
};
use dqo_server::WireResult;
use dqo_sql::PreparedQuery;
use dqo_storage::{Relation, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of one client's op stream a traced replay covers. On
/// `adhoc.novel` it is the whole stream (up to [`HEAD_MAX_OPS`]): planning
/// cost there rises with the statements the memo has seen, so a short
/// head would understate it.
fn head_share(workload: Workload) -> f64 {
    match workload {
        Workload::AdhocNovel => 1.0,
        _ => 0.15,
    }
}
/// Upper bound on replayed ops, so the span list stays in memory.
const HEAD_MAX_OPS: u64 = 16_000;
/// The head is replayed in this many slices, the three replays taking
/// turns.
const REPLAY_SLICES: usize = 10;
/// Repeats of each microbenchmark; the median is reported.
const MICRO_REPEATS: usize = 3;
/// Inserts timed at each table size by the insert probe.
const PROBE_INSERTS: usize = 8;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span list; written out only when `--trace-out` asks.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op_id: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let op_id = self.spans[parent as usize].op_id;
        let span = self.open(name, op_id, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Children the callee timed itself (`QueryResult` phases): laid end
    /// to end from the parent's start, in the order they ran.
    pub fn nested(&mut self, parent: u32, parts: &[(&'static str, Duration)]) {
        let op_id = self.spans[parent as usize].op_id;
        let mut at = self.spans[parent as usize].start_ns;
        for &(name, d) in parts {
            let end_ns = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                op_id,
                parent: Some(parent),
                start_ns: at,
                end_ns,
            });
            at = end_ns;
        }
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once, and a child
/// is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// A statement prepared on the in-process engine, as a server connection
/// would hold it.
struct Prepared {
    query: PreparedQuery,
    plan: dqo_core::PreparedPlan,
}

fn prepare_all(engine: &Engine, spec: &Spec) -> Vec<Prepared> {
    spec.templates
        .iter()
        .map(|t| {
            let query = PreparedQuery::prepare(&t.sql, &Schemas(engine))
                .expect("generated statements prepare");
            let plan = engine.prepare(query.template());
            Prepared { query, plan }
        })
        .collect()
}

/// What the in-process replay learned about one read op beyond spans.
struct ReadFacts {
    class: usize,
    exec: Duration,
    queue_wait: Duration,
    est_cost: f64,
    reply_bytes: usize,
    cache_hit: Option<bool>,
}

/// Handle one op the way a server connection does, on this thread, with
/// a span around every facade call. Returns the root span.
fn replay_op(
    rec: &mut Recorder,
    engine: &Engine,
    prepared: &[Prepared],
    spec: &Spec,
    op: &Op,
    op_id: u32,
    facts: &mut Vec<ReadFacts>,
) -> u32 {
    let request = match &op.action {
        Action::Execute { variant } => ClientFrame::Execute {
            stmt_id: spec.variants[*variant].template as u32 + 1,
            params: spec.variants[*variant].params.clone(),
        },
        Action::Query { sql, .. } => ClientFrame::Query { sql: sql.clone() },
        Action::Insert { params, .. } => ClientFrame::Insert {
            sql: spec.insert_sql.clone().expect("workload with inserts"),
            params: params.clone(),
        },
    };
    let root = rec.open("op", op_id, None);
    let bytes = rec.time("client.encode", root, || {
        encode_client_frame(&request).expect("generated frames encode")
    });
    let frame = rec.time("server.decode", root, || {
        decode_client_frame(&bytes[4..]).expect("own frame decodes")
    });
    let reply = match frame {
        ClientFrame::Execute { stmt_id, params } => {
            let p = &prepared[stmt_id as usize - 1];
            let logical = rec.time("sql.bind_params", root, || {
                p.query.bind_params(&params).expect("generated params bind")
            });
            let before = engine.memo_stats().0;
            let span = rec.open("core.execute_prepared", op_id, Some(root));
            let result = engine
                .execute_prepared(&p.plan, &logical)
                .expect("generated statements execute");
            rec.close(span);
            let after = engine.memo_stats().0;
            // A plan-cache hit never touches the memo.
            let hit =
                (before.rules_fired, before.winner_hits) == (after.rules_fired, after.winner_hits);
            Some((span, result, Some(hit)))
        }
        ClientFrame::Query { sql } => {
            let logical = rec.time("sql.compile", root, || {
                dqo_sql::compile(&sql, &Schemas(engine)).expect("generated statements compile")
            });
            let span = rec.open("core.query", op_id, Some(root));
            let result = engine.query(&logical).expect("generated statements run");
            rec.close(span);
            Some((span, result, None))
        }
        ClientFrame::Insert { .. } => {
            // The server parses and binds the INSERT text here; neither
            // call is part of the facade, so that time lands in the
            // remainder. The rows are what binding would produce.
            let Action::Insert { keys, .. } = &op.action else {
                unreachable!("frame kind follows op kind");
            };
            let rows = Spec::insert_rows(keys);
            let span = rec.open("storage.insert", op_id, Some(root));
            let mut report = engine.insert("t", &rows).expect("generated rows append");
            rec.close(span);
            let maintain: Duration = report.maintenance.outcomes.iter().map(|o| o.wall).sum();
            // Maintenance runs last inside `Engine::insert`.
            let end = rec.spans[span as usize].end_ns;
            rec.spans.push(Span {
                name: "core.av_delta.maintain",
                op_id,
                parent: Some(span),
                start_ns: end.saturating_sub(maintain.as_nanos() as u64),
                end_ns: end,
            });
            // Keys stay inside the dense domain, so nothing rebuilds in
            // the background; if a later engine decides otherwise, its
            // builder threads still end before the run does.
            report.wait_for_rebuilds().expect("background rebuild");
            None
        }
        other => unreachable!("replay never sends {other:?}"),
    };
    let out = match reply {
        Some((span, result, cache_hit)) => {
            rec.nested(
                span,
                &[
                    ("parallel.admission", result.queue_wait),
                    ("core.optimizer", result.profile.phase(Phase::Optimise)),
                    ("core.executor", result.exec_wall),
                ],
            );
            let wire = rec.time("server.result_build", root, || {
                WireResult::from_relation(&result.output.relation)
            });
            facts.push(ReadFacts {
                class: op.class,
                exec: result.exec_wall,
                queue_wait: result.queue_wait,
                est_cost: result.planned.est_cost,
                reply_bytes: 0,
                cache_hit,
            });
            ServerFrame::ResultSet(wire)
        }
        None => ServerFrame::RowsAffected {
            rows: INSERT_ROWS as u64,
        },
    };
    let bytes = rec.time("server.encode", root, || encode_server_frame(&out));
    if let (ServerFrame::ResultSet(_), Some(f)) = (&out, facts.last_mut()) {
        f.reply_bytes = bytes.len();
    }
    rec.time("client.decode", root, || {
        black_box(decode_server_frame(&bytes[4..]).expect("own frame decodes"))
    });
    rec.close(root);
    root
}

/// Client-observed latency (µs) of each op of `ops` on one connection.
fn socket_replay(session: &mut Session, spec: &Spec, ops: &[Op]) -> Vec<f64> {
    ops.iter()
        .map(|op| {
            let began = Instant::now();
            black_box(session.send(spec, op).expect("replayed op"));
            began.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let began = Instant::now();
    black_box(f());
    began.elapsed().as_secs_f64() * 1e6
}

fn median_of(repeats: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..repeats).map(|_| f()).collect::<Vec<f64>>())
}

/// `sql.*` and `core.optimizer.*` over the workload's own statements.
fn frontend_micro(spec: &Spec, metrics: &mut Vec<(&'static str, f64, &'static str)>) {
    let engine = served_engine(spec);
    let prepared = prepare_all(&engine, spec);
    let (mut compile, mut bind, mut cache_hit) = (Vec::new(), Vec::new(), Vec::new());
    for v in &spec.variants {
        let sql = spec.render(v.template, &v.params);
        compile.push(median_of(MICRO_REPEATS, || {
            time_us(|| dqo_sql::compile(&sql, &Schemas(&engine)).expect("compiles"))
        }));
        let p = &prepared[v.template];
        bind.push(median_of(MICRO_REPEATS, || {
            time_us(|| p.query.bind_params(&v.params).expect("binds"))
        }));
        // The first execution plans cold and fills the plan cache; the
        // second is a hit: lookup plus rebind to the new constants.
        let logical = p.query.bind_params(&v.params).expect("binds");
        engine
            .execute_prepared(&p.plan, &logical)
            .expect("executes");
        let hit = engine
            .execute_prepared(&p.plan, &logical)
            .expect("executes");
        cache_hit.push(hit.profile.phase(Phase::Optimise).as_secs_f64() * 1e6);
    }
    let (mut cold, mut memo) = (Vec::new(), Vec::new());
    for t in 0..spec.templates.len() {
        let Some(v) = spec.variants.iter().find(|v| v.template == t) else {
            continue;
        };
        let fresh = Engine::new();
        register(&fresh, spec);
        let sql = spec.render(t, &v.params);
        let logical = dqo_sql::compile(&sql, &Schemas(&fresh)).expect("compiles");
        cold.push(time_us(|| fresh.plan(&logical).expect("plans")));
        memo.push(median_of(MICRO_REPEATS, || {
            time_us(|| fresh.plan(&logical).expect("plans"))
        }));
    }
    metrics.push(("sql.compile_us", median(&compile), "us"));
    metrics.push(("sql.bind_params_us", median(&bind), "us"));
    metrics.push(("core.optimizer.cold_us", median(&cold), "us"));
    metrics.push(("core.optimizer.memo_us", median(&memo), "us"));
    metrics.push(("core.optimizer.cache_hit_us", median(&cache_hit), "us"));
}

const GROUPINGS: [(&str, GroupingAlgorithm); 5] = [
    ("exec.group.HG.rows_per_s", GroupingAlgorithm::HashBased),
    (
        "exec.group.SPHG.rows_per_s",
        GroupingAlgorithm::StaticPerfectHash,
    ),
    ("exec.group.OG.rows_per_s", GroupingAlgorithm::OrderBased),
    (
        "exec.group.SOG.rows_per_s",
        GroupingAlgorithm::SortOrderBased,
    ),
    ("exec.group.BSG.rows_per_s", GroupingAlgorithm::BinarySearch),
];

const JOINS: [(&str, JoinAlgorithm); 5] = [
    ("exec.join.HJ.rows_per_s", JoinAlgorithm::HashBased),
    ("exec.join.OJ.rows_per_s", JoinAlgorithm::OrderBased),
    ("exec.join.SOJ.rows_per_s", JoinAlgorithm::SortOrderBased),
    (
        "exec.join.SPHJ.rows_per_s",
        JoinAlgorithm::StaticPerfectHash,
    ),
    ("exec.join.BSJ.rows_per_s", JoinAlgorithm::BinarySearch),
];

/// Every grouping and join kernel on the workload's own key columns.
fn kernel_micro(spec: &Spec, metrics: &mut Vec<(&'static str, f64, &'static str)>) {
    let k = &spec.kernels;
    let unsorted = k.group_keys.as_u32().expect("u32 keys");
    let sorted = k.group_keys_sorted.as_u32().expect("u32 keys");
    let distinct = {
        let mut d = sorted.to_vec();
        d.dedup();
        d.len() as u64
    };
    let hints = GroupingHints {
        distinct: Some(distinct),
        ..GroupingHints::default()
    };
    for (name, algo) in GROUPINGS {
        // OG needs its input partitioned by key; the rest take the
        // column as the statements see it.
        let keys = if algo.requires_partitioned_input() {
            sorted
        } else {
            unsorted
        };
        let us = median_of(MICRO_REPEATS, || {
            time_us(|| execute_grouping(algo, keys, keys, CountSum, &hints).expect("kernel runs"))
        });
        metrics.push((name, keys.len() as f64 / (us / 1e6), "rows/s"));
    }
    let left = k.join_left.as_u32().expect("u32 keys");
    let right = k.join_right.as_u32().expect("u32 keys");
    let (mut left_sorted, mut right_sorted) = (left.to_vec(), right.to_vec());
    left_sorted.sort_unstable();
    right_sorted.sort_unstable();
    for (name, algo) in JOINS {
        let (l, r) = if algo.requires_sorted_inputs() {
            (left_sorted.as_slice(), right_sorted.as_slice())
        } else {
            (left, right)
        };
        let us = median_of(MICRO_REPEATS, || {
            time_us(|| execute_join(algo, l, r, &JoinHints::default()).expect("kernel runs"))
        });
        metrics.push((name, (l.len() + r.len()) as f64 / (us / 1e6), "rows/s"));
    }
}

fn head_rows(rel: &Relation, rows: usize) -> Relation {
    rel.gather(&(0..rows).collect::<Vec<usize>>())
}

/// INSERT cost against table size: 16-row appends into the workload's
/// main table at a quarter, half and all of its rows, with all three AV
/// kinds on its key column so maintenance is part of every append.
fn insert_probe(spec: &Spec, seed: u64, metrics: &mut Vec<(&'static str, f64, &'static str)>) {
    use dqo_core::av::{AvKind, AvSignature};
    let (table, key) = spec.insert_probe;
    let full = spec
        .tables
        .iter()
        .find(|t| t.name == table)
        .expect("probe table is one of the workload's")
        .data
        .flat();
    let mut rng = crate::stats::Rng::fork(seed, 200);
    let mut at_size = Vec::new();
    for rows in [full.rows() / 4, full.rows() / 2, full.rows()] {
        let engine = empty_served_engine();
        engine.register_table("t", head_rows(full, rows));
        for kind in [
            AvKind::SortedProjection,
            AvKind::SphIndex,
            AvKind::MaterialisedGrouping,
        ] {
            engine
                .av_builder()
                .build(&AvSignature::new("t", key, kind))
                .expect("AV builds on a dense key column");
        }
        let (mut wall, mut maintain) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_INSERTS {
            // Rows the table already holds, drawn again: keys stay inside
            // its key domain, so the SPH index is patched, not rebuilt.
            let batch: Vec<Vec<Value>> = (0..INSERT_ROWS)
                .map(|_| {
                    full.row(rng.below(rows as u64) as usize)
                        .expect("row in range")
                })
                .collect();
            let began = Instant::now();
            let mut report = engine.insert("t", &batch).expect("probe rows append");
            wall.push(began.elapsed().as_secs_f64() * 1e3);
            let inline: Duration = report.maintenance.outcomes.iter().map(|o| o.wall).sum();
            maintain.push(inline.as_secs_f64() * 1e3);
            report.wait_for_rebuilds().expect("background rebuild");
        }
        at_size.push((rows, median(&wall), median(&maintain)));
    }
    let (small_rows, small_ms, _) = at_size[0];
    let (full_rows, full_ms, full_maintain_ms) = at_size[2];
    let mrows = (full_rows - small_rows) as f64 / 1e6;
    metrics.push(("storage.insert_ms", full_ms, "ms"));
    metrics.push(("core.av_delta.maintain_ms", full_maintain_ms, "ms"));
    metrics.push((
        "storage.insert_ms_per_mrow",
        (full_ms - small_ms) / mrows,
        "ms",
    ));
}

/// Where the socket time went: self time per layer, summed over ops,
/// against the summed socket latency — one table for reads, one for
/// writes. What no span covers is `server.transport`.
fn share_tables(
    spec: &Spec,
    ops: &[Op],
    spans: &[Span],
    selfs: &[u64],
    socket_us: &[f64],
) -> Vec<Json> {
    let mut tables = Vec::new();
    for (kind, want_read) in [("read", true), ("write", false)] {
        let picked: Vec<f64> = (0..ops.len())
            .filter(|&i| spec.is_read(ops[i].class) == want_read)
            .map(|i| socket_us[i])
            .collect();
        if picked.is_empty() {
            continue;
        }
        let socket_total: f64 = picked.iter().sum();
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            if spec.is_read(ops[s.op_id as usize].class) != want_read {
                continue;
            }
            match by_layer.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, total)) => *total += *self_ns as f64 / 1e3,
                None => by_layer.push((s.name, *self_ns as f64 / 1e3)),
            }
        }
        let attributed: f64 = by_layer.iter().map(|(_, us)| us).sum();
        by_layer.push(("server.transport", socket_total - attributed));
        by_layer.sort_by(|a, b| b.1.total_cmp(&a.1));
        let layers = by_layer.iter().map(|(name, us)| {
            Json::obj([
                ("layer", Json::str(*name)),
                ("self_us_per_op", Json::Num(us / picked.len() as f64)),
                ("share", Json::Num(us / socket_total)),
            ])
        });
        tables.push(Json::obj([
            ("ops", Json::str(kind)),
            ("count", Json::Num(picked.len() as f64)),
            ("socket_p50_us", Json::Num(median(&picked))),
            ("layers", Json::Arr(layers.collect())),
        ]));
    }
    tables
}

/// Cost-model calibration: measured ns per predicted tuple-op, per class;
/// a flat ratio across classes means plan choices can be trusted.
fn calibration(
    spec: &Spec,
    facts: &[ReadFacts],
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
) -> Vec<Json> {
    let mut class_ratio = Vec::new();
    let mut rows = Vec::new();
    for (c, name) in spec.classes.iter().enumerate() {
        let ratios: Vec<f64> = facts
            .iter()
            .filter(|f| f.class == c && f.est_cost > 0.0)
            .map(|f| f.exec.as_nanos() as f64 / f.est_cost)
            .collect();
        if !ratios.is_empty() {
            let m = median(&ratios);
            class_ratio.push(m);
            rows.push(Json::obj([
                ("class", Json::str(name.as_str())),
                ("ns_per_tuple_op", Json::Num(m)),
            ]));
        }
    }
    let lo = class_ratio.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = class_ratio.iter().copied().fold(0.0, f64::max);
    let spread = if lo > 0.0 && lo.is_finite() {
        hi / lo
    } else {
        0.0
    };
    metrics.push(("core.cost.ns_per_tuple_op", median(&class_ratio), "ns"));
    metrics.push(("core.cost.calibration_spread", spread, "ratio"));
    rows
}

/// Which plan each class got (first variant), so a kernel number can be
/// read against the algorithm the planner actually picked.
fn chosen_plans(spec: &Spec) -> Vec<Json> {
    let planner = served_engine(spec);
    (0..spec.templates.len())
        .filter_map(|t| {
            let v = spec.variants.iter().find(|v| v.template == t)?;
            let sql = spec.render(t, &v.params);
            let logical = dqo_sql::compile(&sql, &Schemas(&planner)).ok()?;
            let planned = planner.plan(&logical).ok()?;
            Some(Json::obj([
                ("statement", Json::str(sql)),
                ("est_cost", Json::Num(planned.est_cost)),
                ("plan", Json::str(planned.plan.explain())),
            ]))
        })
        .collect()
}

/// The traced run's result: the per-layer metrics plus the share table
/// and plan choices for the report.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub diagnostics: Json,
    pub spans: Vec<Span>,
    pub ops: usize,
}

pub fn trace(workload: Workload, seed: u64, seconds: u64, scale: Scale) -> Traced {
    let per_client = workload.total_ops(seconds, scale) / CLIENTS as u64;
    let head = ((per_client as f64 * head_share(workload)) as u64).clamp(1, HEAD_MAX_OPS);
    let warm_ops = workload.warmup_ops(per_client).min(head);

    // Two served rigs, one of them built with observability off; the
    // engine reads `DQO_OBS` when it is constructed. No other thread of
    // this process exists yet when the variable is set, and the threads
    // the first rig starts never touch the environment.
    let obs_before = std::env::var("DQO_OBS").ok();
    std::env::set_var("DQO_OBS", "off");
    let rig_off = Rig::build(workload, seed, scale);
    match obs_before {
        Some(v) => std::env::set_var("DQO_OBS", v),
        None => std::env::remove_var("DQO_OBS"),
    }
    let rig = Rig::build(workload, seed, scale);
    let spec = rig.spec.clone();
    let mut stream = Stream::new(&spec, seed, 0);
    let warm: Vec<Op> = (0..warm_ops).map(|_| stream.next_op(&spec)).collect();
    let ops: Vec<Op> = (0..head).map(|_| stream.next_op(&spec)).collect();

    // The in-process twin of the served engine, on this thread.
    let engine = served_engine(&spec);
    let prepared = if workload == Workload::AdhocNovel {
        Vec::new()
    } else {
        prepare_all(&engine, &spec)
    };
    let mut session = Session::open(rig.addr(), &spec).expect("connect to own server");
    let mut session_off = Session::open(rig_off.addr(), &spec).expect("connect to own server");
    let mut facts = Vec::new();
    let mut scratch = Recorder::new();
    socket_replay(&mut session, &spec, &warm);
    socket_replay(&mut session_off, &spec, &warm);
    for op in &warm {
        replay_op(&mut scratch, &engine, &prepared, &spec, op, 0, &mut facts);
    }
    facts.clear();
    drop(scratch);

    // The three replays take turns, a slice of the head at a time, so a
    // slow spell of the box falls on all three and not on one of them.
    let mut rec = Recorder::new();
    let (mut socket_us, mut socket_off_us, mut roots) = (Vec::new(), Vec::new(), Vec::new());
    for slice in ops.chunks(ops.len().div_ceil(REPLAY_SLICES)) {
        socket_us.extend(socket_replay(&mut session, &spec, slice));
        for op in slice {
            let op_id = roots.len() as u32;
            roots.push(replay_op(
                &mut rec, &engine, &prepared, &spec, op, op_id, &mut facts,
            ));
        }
        socket_off_us.extend(socket_replay(&mut session_off, &spec, slice));
    }
    let memo_groups = engine.memo_stats().1;
    let _ = session.client.close();
    let _ = session_off.client.close();
    drop((rig, rig_off, engine));

    let selfs = self_times(&rec.spans);
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let shares = share_tables(&spec, &ops, &rec.spans, &selfs, &socket_us);

    // Per-op medians of the server-side spans.
    let span_median = |name: &str| {
        median(
            &rec.spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, ns)| *ns as f64 / 1e3)
                .collect::<Vec<f64>>(),
        )
    };
    let transport: Vec<f64> = roots
        .iter()
        .enumerate()
        .filter(|(i, _)| spec.is_read(ops[*i].class))
        .map(|(i, &root)| {
            let s = &rec.spans[root as usize];
            socket_us[i] - (s.end_ns - s.start_ns) as f64 / 1e3
        })
        .collect();
    metrics.push(("server.decode_us", span_median("server.decode"), "us"));
    metrics.push((
        "server.result_build_us",
        span_median("server.result_build"),
        "us",
    ));
    metrics.push(("server.encode_us", span_median("server.encode"), "us"));
    let reply_bytes: Vec<f64> = facts.iter().map(|f| f.reply_bytes as f64).collect();
    metrics.push(("server.reply_bytes", median(&reply_bytes), "bytes"));
    metrics.push(("server.transport_us", median(&transport), "us"));

    frontend_micro(&spec, &mut metrics);
    metrics.push(("core.memo.groups", memo_groups as f64, "count"));
    let executes: Vec<bool> = facts.iter().filter_map(|f| f.cache_hit).collect();
    let hits = executes.iter().filter(|&&hit| hit).count();
    metrics.push((
        "core.plan_cache.hit_ratio",
        if executes.is_empty() {
            0.0
        } else {
            hits as f64 / executes.len() as f64
        },
        "ratio",
    ));

    let exec_us: Vec<f64> = facts.iter().map(|f| f.exec.as_secs_f64() * 1e6).collect();
    let rows_per_s: Vec<f64> = facts
        .iter()
        .map(|f| {
            let template = spec.template_of(f.class).expect("reads have a template");
            spec.templates[template].input_rows as f64 / f.exec.as_secs_f64().max(1e-9)
        })
        .collect();
    metrics.push(("core.executor.exec_us", median(&exec_us), "us"));
    metrics.push(("core.executor.rows_per_s", median(&rows_per_s), "rows/s"));
    kernel_micro(&spec, &mut metrics);
    let waits: Vec<f64> = facts
        .iter()
        .map(|f| f.queue_wait.as_secs_f64() * 1e6)
        .collect();
    metrics.push(("parallel.queue_wait_us", median(&waits), "us"));
    insert_probe(&spec, seed, &mut metrics);

    let calibration = calibration(&spec, &facts, &mut metrics);
    let on: f64 = socket_us.iter().sum();
    let off: f64 = socket_off_us.iter().sum();
    metrics.push(("obs.overhead_share", 1.0 - off / on, "ratio"));

    Traced {
        metrics,
        diagnostics: Json::obj([
            ("replayed_ops", Json::Num(ops.len() as f64)),
            ("spans", Json::Num(rec.spans.len() as f64)),
            ("shares", Json::Arr(shares)),
            ("calibration", Json::Arr(calibration)),
            ("plans", Json::Arr(chosen_plans(&spec))),
        ]),
        ops: ops.len(),
        spans: rec.spans,
    }
}

/// The span list as JSON lines, one span per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("id", Json::Num(i as f64)),
            ("name", Json::str(s.name)),
            ("op_id", Json::Num(f64::from(s.op_id))),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 30),  // child
            span(Some(0), 20, 50),  // overlaps the first: union is 10..50
            span(Some(0), 90, 120), // clipped to the parent: 90..100
            span(Some(1), 12, 18),  // grandchild only reduces its parent
            span(None, 200, 200),   // empty span
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6, 0]);
    }

    #[test]
    fn recorder_nests_callee_timed_phases_end_to_end() {
        let mut rec = Recorder::new();
        let root = rec.open("op", 7, None);
        let inner = rec.time("inner", root, || 41 + 1);
        assert_eq!(inner, 42);
        rec.close(root);
        rec.spans[root as usize].start_ns = 1_000;
        rec.spans[root as usize].end_ns = 2_000;
        rec.nested(
            root,
            &[
                ("a", Duration::from_nanos(100)),
                ("b", Duration::from_nanos(300)),
            ],
        );
        let a = &rec.spans[2];
        let b = &rec.spans[3];
        assert_eq!(
            (a.start_ns, a.end_ns, a.parent, a.op_id),
            (1_000, 1_100, Some(root), 7)
        );
        assert_eq!((b.start_ns, b.end_ns), (1_100, 1_400));
        assert_eq!(rec.spans[1].op_id, 7);
    }
}
