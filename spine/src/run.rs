//! The measured run: build the rig (tables, engine, server, oracle),
//! drive it with closed-loop socket clients, check every answer, and
//! turn the samples into the end-to-end metrics.

use crate::stats::{median, percentile, Fnv};
use crate::workloads::{Action, Op, Scale, Spec, Stream, TableData, Workload, CLIENTS};
use dqo_core::Engine;
use dqo_parallel::PersistentPool;
use dqo_server::{
    Client, ClientError, Server, ServerHandle, StatementHandle, WireData, WireResult,
};
use dqo_sql::SchemaProvider;
use dqo_storage::{Relation, Schema};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The rig is built at least this many times per run and `setup_s` is
/// the median, so one slow page-fault storm does not decide it. A set-up
/// of milliseconds (`adhoc.novel`) is repeated until a second has been
/// spent on it, or the upper count is reached.
const SETUP_REPEATS: usize = 3;
const SETUP_REPEATS_MAX: usize = 25;
const SETUP_SPEND_S: f64 = 1.0;
/// `adhoc.novel` re-evaluates one novel reply in this many on the oracle.
const ADHOC_SAMPLE_EVERY: u64 = 64;
/// A latency class needs this many samples to compete for the worst
/// class p50 (at `--scale smoke` a class can be nearly empty).
const MIN_CLASS_SAMPLES: usize = 20;
/// The timed phase is cut into this many rounds of equal op count and
/// `qps` is the median round's rate: a stall of a second or two on a
/// shared box then moves two rounds, not the result.
const ROUNDS: u64 = 20;

/// Table schemas out of an engine's catalog, for `dqo_sql`.
pub struct Schemas<'a>(pub &'a Engine);

impl SchemaProvider for Schemas<'_> {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        let entry = self.0.catalog().get(table).ok()?;
        Some(entry.relation.schema().clone())
    }
}

/// The server-side engine as every workload configures it: a shared pool
/// of two workers admitting two queries, `DQO_*` left to the environment.
pub fn empty_served_engine() -> Arc<Engine> {
    let pool = Arc::new(PersistentPool::with_admission(CLIENTS, CLIENTS));
    Arc::new(Engine::with_shared_pool(pool))
}

/// [`empty_served_engine`] with the workload's tables and AVs.
pub fn served_engine(spec: &Spec) -> Arc<Engine> {
    let engine = empty_served_engine();
    register(&engine, spec);
    for sig in &spec.avs {
        engine
            .av_builder()
            .build(sig)
            .expect("AV builds on a generated table");
    }
    engine
}

pub fn register(engine: &Engine, spec: &Spec) {
    for table in &spec.tables {
        match &table.data {
            TableData::Flat(rel) => engine.register_table(table.name, rel.clone()),
            TableData::Partitioned(p) => engine.register_table_partitioned(table.name, p.clone()),
        }
    }
}

/// Run one statement on an engine through the plain (unprepared) path.
pub fn answer(engine: &Engine, sql: &str) -> Result<WireResult, String> {
    let logical = dqo_sql::compile(sql, &Schemas(engine)).map_err(|e| e.to_string())?;
    let result = engine.query(&logical).map_err(|e| e.to_string())?;
    Ok(WireResult::from_relation(&result.output.relation))
}

/// Everything a run talks to. Dropping it stops the server.
pub struct Rig {
    pub spec: Spec,
    pub engine: Arc<Engine>,
    /// Serial in-process oracle over the same tables, no AVs.
    pub oracle: Engine,
    /// The oracle's reply per [`Spec::variants`] entry, computed before
    /// any client connects, and its [`hash_reply`].
    pub expected: Vec<WireResult>,
    expected_hash: Vec<u64>,
    server: ServerHandle,
}

impl Rig {
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> Rig {
        let spec = Spec::build(workload, seed, scale);
        let engine = served_engine(&spec);
        let oracle = Engine::new().with_threads(1);
        register(&oracle, &spec);
        let expected: Vec<WireResult> = spec
            .variants
            .iter()
            .map(|v| {
                answer(&oracle, &spec.render(v.template, &v.params))
                    .expect("generated statements run on the oracle")
            })
            .collect();
        let expected_hash = expected.iter().map(hash_reply).collect();
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind loopback");
        Rig {
            spec,
            engine,
            oracle,
            expected,
            expected_hash,
            server,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Sum of a reply's count column (`n` or `count`).
fn reply_total(reply: &WireResult) -> Option<u64> {
    match reply.column("n").or_else(|| reply.column("count"))? {
        WireData::U64(counts) => Some(counts.iter().sum()),
        _ => None,
    }
}

pub fn hash_reply(reply: &WireResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(reply.rows);
    for col in &reply.columns {
        h.bytes(col.name.as_bytes());
        match &col.data {
            WireData::U32(v) => v.iter().for_each(|x| h.u64(u64::from(*x))),
            WireData::U64(v) => v.iter().for_each(|x| h.u64(*x)),
            WireData::I64(v) => v.iter().for_each(|x| h.u64(*x as u64)),
            WireData::F64(v) => v.iter().for_each(|x| h.u64(x.to_bits())),
            WireData::Bool(v) => v.iter().for_each(|x| h.u64(u64::from(*x))),
            WireData::Str(v) => v.iter().for_each(|x| h.bytes(x.as_bytes())),
        }
    }
    h.0
}

/// Rows of `mixed.insert_read` inserts, per read variant, that have been
/// sent (`started`) and acknowledged (`acked`). A read's total must lie
/// between the acknowledged count before it was sent and the started
/// count after its reply arrived.
struct InsertLedger {
    started: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    acked_rows: AtomicU64,
}

impl InsertLedger {
    fn new(variants: usize) -> Self {
        InsertLedger {
            started: (0..variants).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..variants).map(|_| AtomicU64::new(0)).collect(),
            acked_rows: AtomicU64::new(0),
        }
    }
}

/// What one client thread brings back.
struct ClientReport {
    /// Timed latencies in µs, per class.
    latencies: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// When the timed phase started and each round ended, with the timed
    /// ops done by then.
    marks: Vec<(Instant, u64)>,
    reply_hash: Fnv,
    /// `adhoc.novel`: sampled novel statements with their reply hashes.
    samples: Vec<(String, u64)>,
}

/// A connected client with the workload's statements prepared.
pub struct Session {
    pub client: Client,
    pub statements: Vec<StatementHandle>,
}

impl Session {
    pub fn open(addr: SocketAddr, spec: &Spec) -> Result<Session, ClientError> {
        let mut client = Client::connect(addr)?;
        let mut statements = Vec::new();
        if spec.workload != Workload::AdhocNovel {
            for t in &spec.templates {
                statements.push(client.prepare(&t.sql)?);
            }
        }
        Ok(Session { client, statements })
    }

    /// Send one op and wait for its reply. `Ok(None)` is an acknowledged
    /// INSERT.
    pub fn send(&mut self, spec: &Spec, op: &Op) -> Result<Option<WireResult>, ClientError> {
        match &op.action {
            Action::Execute { variant } => {
                let v = &spec.variants[*variant];
                self.client
                    .execute(self.statements[v.template], &v.params)
                    .map(Some)
            }
            Action::Query { sql, .. } => self.client.query(sql).map(Some),
            Action::Insert { keys, params } => {
                let sql = spec.insert_sql.as_deref().expect("workload with inserts");
                let rows = self.client.insert(sql, params)?;
                if rows == keys.len() as u64 {
                    Ok(None)
                } else {
                    Err(ClientError::Unexpected {
                        got: "ROWS_AFFECTED with the wrong row count",
                    })
                }
            }
        }
    }
}

/// One closed-loop client: connect, prepare, warm up, meet the others at
/// the barrier, then run the timed ops back to back.
fn client_loop(
    rig: &Rig,
    ledger: &InsertLedger,
    seed: u64,
    client_idx: usize,
    warmup: u64,
    timed: u64,
    barrier: &Barrier,
) -> ClientReport {
    let spec = &rig.spec;
    let mut report = ClientReport {
        latencies: vec![Vec::new(); spec.classes.len()],
        attempted: 0,
        failed: 0,
        marks: Vec::new(),
        reply_hash: Fnv::default(),
        samples: Vec::new(),
    };
    let mut session = Session::open(rig.addr(), spec).ok();
    let mut stream = Stream::new(spec, seed, client_idx);
    for i in 0..warmup + timed {
        if i == warmup {
            barrier.wait();
            report.marks.push((Instant::now(), 0));
        }
        let op = stream.next_op(spec);
        // Per-variant rows this insert adds, published before it is sent.
        let adds: Vec<u64> = match &op.action {
            Action::Insert { keys, .. } => (0..spec.variants.len())
                .map(|v| {
                    keys.iter()
                        .filter(|&&k| spec.counts_inserted_key(v, k))
                        .count() as u64
                })
                .collect(),
            _ => Vec::new(),
        };
        for (v, n) in adds.iter().enumerate() {
            ledger.started[v].fetch_add(*n, Ordering::SeqCst);
        }
        let floor = match &op.action {
            Action::Execute { variant } if spec.workload == Workload::MixedInsertRead => {
                Some(ledger.acked[*variant].load(Ordering::SeqCst))
            }
            _ => None,
        };
        let began = Instant::now();
        let reply = match session.as_mut() {
            Some(s) => s.send(spec, &op),
            None => Err(ClientError::Unexpected {
                got: "no connection",
            }),
        };
        let latency = began.elapsed();
        let ok = match (&reply, &op.action) {
            (Err(_), _) => false,
            (Ok(None), Action::Insert { keys, .. }) => {
                for (v, n) in adds.iter().enumerate() {
                    ledger.acked[v].fetch_add(*n, Ordering::SeqCst);
                }
                ledger
                    .acked_rows
                    .fetch_add(keys.len() as u64, Ordering::SeqCst);
                true
            }
            (Ok(Some(reply)), Action::Execute { variant }) => match floor {
                // The table moves under the reads: bound the total.
                Some(floor) => {
                    let ceiling = ledger.started[*variant].load(Ordering::SeqCst);
                    let base = reply_total(&rig.expected[*variant]).expect("count column");
                    reply_total(reply).is_some_and(|t| (base + floor..=base + ceiling).contains(&t))
                }
                None => {
                    // An equal reply has the expected reply's hash; at
                    // 60 000 ops/s hashing each one again would cost the
                    // client a twentieth of its time.
                    let equal = *reply == rig.expected[*variant];
                    let hash = if equal {
                        rig.expected_hash[*variant]
                    } else {
                        0
                    };
                    report.reply_hash.u64(hash);
                    equal
                }
            },
            (Ok(Some(reply)), Action::Query { sql, hot }) => {
                let hash = hash_reply(reply);
                report.reply_hash.u64(hash);
                match hot {
                    Some(hot) => *reply == rig.expected[*hot],
                    None => {
                        if i % ADHOC_SAMPLE_EVERY == 0 {
                            report.samples.push((sql.clone(), hash));
                        }
                        true
                    }
                }
            }
            _ => false,
        };
        if matches!(reply, Err(ClientError::Io(_) | ClientError::Protocol(_))) {
            // The connection is gone; every remaining op fails unsent.
            session = None;
        }
        if i >= warmup {
            report.attempted += 1;
            report.failed += u64::from(!ok);
            report.latencies[op.class].push(latency.as_secs_f64() * 1e6);
            let done = i - warmup + 1;
            let rounds = ROUNDS.min(timed);
            if done * rounds / timed > (done - 1) * rounds / timed {
                report.marks.push((Instant::now(), done));
            }
        } else if !ok {
            // A wrong answer during warm-up still fails the run.
            report.attempted += 1;
            report.failed += 1;
        }
    }
    if timed == 0 {
        barrier.wait();
    }
    if let Some(s) = session {
        let _ = s.client.close();
    }
    report
}

/// The numbers one run produces, before they are named as metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub ops_timed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Ops per second of each round of the timed phase.
    pub round_qps: Vec<f64>,
    pub setup_runs_s: Vec<f64>,
    /// Per class: name, samples, p50, p99 (µs).
    pub classes: Vec<(String, usize, f64, f64)>,
    pub read_samples: usize,
    pub read_p50_us: f64,
    pub read_p99_us: f64,
    pub worst_class_p50_us: f64,
    pub peak_rss_mb: f64,
    /// Order-sensitive digest of every reply (0 on `mixed.insert_read`,
    /// whose replies depend on how the clients interleave).
    pub reply_hash: u64,
    pub input_fingerprint: u64,
    /// Check failures in words, for the human reading the output.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn qps(&self) -> f64 {
        median(&self.round_qps)
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.setup_runs_s)
    }
}

/// Run the clients against a built rig; `on_ready` fires when warm-up is
/// over.
fn drive(
    rig: &Rig,
    ledger: &InsertLedger,
    seed: u64,
    warmup: u64,
    timed: u64,
    on_ready: impl FnOnce(),
) -> Vec<ClientReport> {
    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(rig, ledger, seed, c, warmup, timed, barrier))
            })
            .collect();
        barrier.wait();
        on_ready();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Ops per second of each round, all clients together: a client's rate
/// in a round is the ops it did between two of its marks over the time
/// between them.
fn round_rates(reports: &[ClientReport]) -> Vec<f64> {
    let rounds = reports
        .iter()
        .map(|r| r.marks.len().saturating_sub(1))
        .min();
    (0..rounds.unwrap_or(0))
        .map(|k| {
            reports
                .iter()
                .map(|r| {
                    let ((t0, n0), (t1, n1)) = (r.marks[k], r.marks[k + 1]);
                    (n1 - n0) as f64 / (t1 - t0).as_secs_f64().max(1e-9)
                })
                .sum()
        })
        .collect()
}

pub fn run(workload: Workload, seed: u64, seconds: u64, scale: Scale) -> Outcome {
    let per_client = workload.total_ops(seconds, scale) / CLIENTS as u64;
    let warmup = workload.warmup_ops(per_client);
    let timed = per_client - warmup;

    // Set-up is everything before the first timed op: generation,
    // registration, AV builds, oracle answers, server start, connect,
    // prepare, warm-up. The last build is the one that gets measured on.
    let mut setup_runs_s: Vec<f64> = Vec::new();
    while setup_runs_s.len() + 1 < SETUP_REPEATS
        || (setup_runs_s.len() + 1 < SETUP_REPEATS_MAX
            && setup_runs_s.iter().sum::<f64>() < SETUP_SPEND_S)
    {
        let began = Instant::now();
        let rig = Rig::build(workload, seed, scale);
        let ledger = InsertLedger::new(rig.spec.variants.len());
        drive(&rig, &ledger, seed, warmup, 0, || {
            setup_runs_s.push(began.elapsed().as_secs_f64())
        });
    }
    let began = Instant::now();
    let rig = Rig::build(workload, seed, scale);
    let ledger = InsertLedger::new(rig.spec.variants.len());
    let reports = drive(&rig, &ledger, seed, warmup, timed, || {
        setup_runs_s.push(began.elapsed().as_secs_f64())
    });
    let marks = || reports.iter().flat_map(|r| &r.marks).map(|&(at, _)| at);
    let wall_s = match (marks().min(), marks().max()) {
        (Some(first), Some(last)) => (last - first).as_secs_f64(),
        _ => 0.0,
    };

    let spec = &rig.spec;
    let mut notes = Vec::new();
    let mut attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reports.iter().map(|r| r.failed).sum();
    if failed > 0 {
        notes.push(format!(
            "{failed} ops failed or answered wrongly while driving"
        ));
    }

    // adhoc.novel: the sampled novel replies, re-evaluated serially.
    for (sql, hash) in reports.iter().flat_map(|r| &r.samples) {
        attempted += 1;
        if answer(&rig.oracle, sql).map(|r| hash_reply(&r)) != Ok(*hash) {
            failed += 1;
            notes.push(format!("oracle disagrees on: {sql}"));
        }
    }
    if workload == Workload::MixedInsertRead {
        let acked = ledger.acked_rows.load(Ordering::SeqCst);
        for problem in mixed_final_checks(&rig, acked) {
            attempted += 1;
            failed += 1;
            notes.push(problem);
        }
    }

    let mut classes = Vec::new();
    let mut reads = Vec::new();
    let mut worst_class_p50_us = 0.0f64;
    for (c, name) in spec.classes.iter().enumerate() {
        let mut lat: Vec<f64> = reports
            .iter()
            .flat_map(|r| r.latencies[c].iter().copied())
            .collect();
        lat.sort_by(f64::total_cmp);
        let p50 = percentile(&lat, 50.0);
        if lat.len() >= MIN_CLASS_SAMPLES {
            worst_class_p50_us = worst_class_p50_us.max(p50);
        }
        classes.push((name.clone(), lat.len(), p50, percentile(&lat, 99.0)));
        if spec.is_read(c) {
            reads.extend(lat);
        }
    }
    reads.sort_by(f64::total_cmp);
    let mut reply_hash = Fnv::default();
    if workload != Workload::MixedInsertRead {
        reports.iter().for_each(|r| reply_hash.u64(r.reply_hash.0));
    } else {
        reply_hash.0 = 0;
    }
    Outcome {
        ops_timed: timed * CLIENTS as u64,
        attempted,
        failed,
        wall_s,
        round_qps: round_rates(&reports),
        setup_runs_s,
        classes,
        read_samples: reads.len(),
        read_p50_us: percentile(&reads, 50.0),
        read_p99_us: percentile(&reads, 99.0),
        worst_class_p50_us,
        peak_rss_mb: peak_rss_mb(),
        reply_hash: reply_hash.0,
        input_fingerprint: spec.fingerprint(),
        notes,
    }
}

fn relations_equal(a: &Relation, b: &Relation) -> bool {
    a.schema() == b.schema()
        && (0..a.schema().width()).all(|i| a.column_at(i).ok() == b.column_at(i).ok())
}

/// After the timed phase of `mixed.insert_read`: every acknowledged row
/// is counted, each maintained AV equals a from-scratch rebuild, and
/// every read shape answers the same over the socket, on a rebuilt
/// engine and on the AV-less serial oracle.
fn mixed_final_checks(rig: &Rig, acked_rows: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let spec = &rig.spec;
    let final_t = Arc::clone(
        &rig.engine
            .catalog()
            .get("t")
            .expect("t is registered")
            .relation,
    );
    let seed_rows = spec.tables[0].data.flat().rows() as u64;
    if final_t.rows() as u64 != seed_rows + acked_rows {
        problems.push(format!(
            "t holds {} rows, expected {seed_rows} seed + {acked_rows} acknowledged",
            final_t.rows()
        ));
    }

    let rebuilt = Engine::new().with_threads(1);
    let plain = Engine::new().with_threads(1);
    for engine in [&rebuilt, &plain] {
        engine.register_table("t", (*final_t).clone());
        engine.register_table("d", spec.tables[1].data.flat().clone());
    }
    for sig in &spec.avs {
        if let Err(e) = rebuilt.av_builder().build(sig) {
            problems.push(format!("rebuild of {sig} failed: {e}"));
        }
        // The SPH index has no relation to compare; the join shape below
        // is answered through it on both engines.
        let name = sig.av_table_name();
        if let Ok(fresh) = rebuilt.catalog().get(&name) {
            match rig.engine.catalog().get(&name) {
                Ok(kept) if relations_equal(&kept.relation, &fresh.relation) => {}
                Ok(_) => problems.push(format!("maintained {sig} differs from a rebuild")),
                Err(_) => problems.push(format!("maintained {sig} is missing")),
            }
        }
    }

    let mut session = match Session::open(rig.addr(), spec) {
        Ok(s) => s,
        Err(e) => {
            problems.push(format!("checker could not connect: {e}"));
            return problems;
        }
    };
    for (v, variant) in spec.variants.iter().enumerate() {
        let sql = spec.render(variant.template, &variant.params);
        let op = Op {
            class: variant.template,
            action: Action::Execute { variant: v },
        };
        let served = session.send(spec, &op).ok().flatten();
        let want = answer(&plain, &sql).ok();
        if served.is_none() || served != want || answer(&rebuilt, &sql).ok() != want {
            problems.push(format!("final answers disagree on: {sql}"));
        }
        if v == 0 && served.as_ref().and_then(reply_total) != Some(seed_rows + acked_rows) {
            problems.push("final grouped count is not seed rows + acknowledged inserts".into());
        }
    }
    let _ = session.client.close();
    problems
}

/// `VmHWM` of this process in MiB: the peak resident set, which is why
/// `run --all` gives every workload a process of its own.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
