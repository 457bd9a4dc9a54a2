//! The serving front-end: a std-thread-per-connection TCP acceptor in
//! front of one shared [`Engine`] session.
//!
//! Concurrency stays where it already lives: connection threads only
//! parse, bind and encode — every query passes the shared pool's
//! admission controller inside [`Engine::query`] /
//! [`Engine::execute_prepared`], so the pool remains the unit of
//! parallelism and `max_inflight` bounds execution regardless of how
//! many connections are open. No async runtime is involved.
//!
//! A connection dying mid-query cannot poison anything: the in-flight
//! query runs to completion on the engine (releasing its admission
//! permit as always), the write of the result fails, and the connection
//! thread exits. Other connections and the pool are unaffected.

use crate::protocol::{
    decode_client_frame, encode_server_frame, ClientFrame, ErrorCode, ServerFrame, WireResult,
    CLOSE_SESSION, MAX_FRAME, PROTOCOL_VERSION,
};
use dqo_core::{Engine, PreparedPlan};
use dqo_obs::{names, Counter, Gauge, MetricsRegistry};
use dqo_sql::{PreparedQuery, SchemaProvider, SqlError};
use dqo_storage::Schema;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocking connection reads wake up to check for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server identification string sent in WELCOME frames.
const SERVER_NAME: &str = concat!("dqo-server/", env!("CARGO_PKG_VERSION"));

/// SQL front-end glue: resolve table schemas against the engine's
/// catalog.
struct CatalogSchemas<'a>(&'a dqo_core::Catalog);

impl SchemaProvider for CatalogSchemas<'_> {
    fn table_schema(&self, table: &str) -> Option<Schema> {
        self.0.get(table).ok().map(|e| e.relation.schema().clone())
    }
}

/// Server-side observability handles (see `docs/METRICS.md`).
struct ServerObs {
    connections: Counter,
    active: Gauge,
    active_count: AtomicU64,
    protocol_errors: Counter,
    queries: Counter,
}

impl ServerObs {
    fn new(registry: &MetricsRegistry) -> Self {
        ServerObs {
            connections: registry.counter(names::SERVER_CONNECTIONS),
            active: registry.gauge(names::SERVER_ACTIVE_CONNECTIONS),
            active_count: AtomicU64::new(0),
            protocol_errors: registry.counter(names::SERVER_PROTOCOL_ERRORS),
            queries: registry.counter(names::SERVER_QUERIES),
        }
    }

    fn connection_opened(&self) {
        self.connections.inc();
        self.active
            .set(self.active_count.fetch_add(1, Ordering::Relaxed) + 1);
    }

    fn connection_closed(&self) {
        self.active
            .set(self.active_count.fetch_sub(1, Ordering::Relaxed) - 1);
    }
}

/// A running server bound to a local address. Dropping the handle shuts
/// the server down gracefully (see [`ServerHandle::shutdown`]).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let every connection thread
    /// finish its in-flight request (they poll the stop flag between
    /// frames, every 50 ms), and join them all.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut self.connections.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_join();
        }
    }
}

/// The serving front-end. See the module docs for the threading model.
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `engine`.
    /// Metrics go to the process-global registry.
    pub fn start(engine: Arc<Engine>, addr: &str) -> io::Result<ServerHandle> {
        Server::start_with_registry(engine, addr, MetricsRegistry::global())
    }

    /// [`Server::start`] with server metrics (connections, protocol
    /// errors, queries) in an explicit registry — tests and benches pair
    /// this with [`Engine::with_metrics_registry`] on the same registry.
    pub fn start_with_registry(
        engine: Arc<Engine>,
        addr: &str,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let obs = Arc::new(ServerObs::new(&registry));

        let acceptor = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let engine = Arc::clone(&engine);
                    let stop = Arc::clone(&stop);
                    let obs = Arc::clone(&obs);
                    let handle = std::thread::spawn(move || {
                        obs.connection_opened();
                        let mut conn = Connection::new(engine, stream, stop, obs);
                        conn.run();
                        conn.obs.connection_closed();
                    });
                    connections.lock().push(handle);
                }
            })
        };

        Ok(ServerHandle {
            addr,
            stop,
            acceptor: Some(acceptor),
            connections,
        })
    }
}

/// One client connection: handshake, then a frame loop over the
/// per-connection prepared-statement registry.
struct Connection {
    engine: Arc<Engine>,
    stream: TcpStream,
    stop: Arc<AtomicBool>,
    obs: Arc<ServerObs>,
    statements: HashMap<u32, (PreparedQuery, PreparedPlan)>,
    next_stmt_id: u32,
}

impl Connection {
    fn new(
        engine: Arc<Engine>,
        stream: TcpStream,
        stop: Arc<AtomicBool>,
        obs: Arc<ServerObs>,
    ) -> Self {
        Connection {
            engine,
            stream,
            stop,
            obs,
            statements: HashMap::new(),
            next_stmt_id: 1,
        }
    }

    fn run(&mut self) {
        if self.stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return;
        }
        // The handshake: the first frame must be HELLO.
        match self.read_body() {
            Ok(Some(body)) => match decode_client_frame(&body) {
                Ok(ClientFrame::Hello { version, client: _ }) => {
                    if version == 0 {
                        self.obs.protocol_errors.inc();
                        let _ = self.send(&ServerFrame::Error {
                            code: ErrorCode::UnsupportedVersion,
                            message: "protocol version 0 is invalid".into(),
                        });
                        return;
                    }
                    let negotiated = version.min(PROTOCOL_VERSION);
                    if self
                        .send(&ServerFrame::Welcome {
                            version: negotiated,
                            server: SERVER_NAME.into(),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Ok(_) => {
                    self.obs.protocol_errors.inc();
                    let _ = self.send(&ServerFrame::Error {
                        code: ErrorCode::Protocol,
                        message: "first frame must be HELLO".into(),
                    });
                    return;
                }
                Err(e) => {
                    self.obs.protocol_errors.inc();
                    let _ = self.send(&ServerFrame::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    });
                    return;
                }
            },
            _ => return,
        }
        // The session loop.
        while let Ok(Some(body)) = self.read_body() {
            let reply = match decode_client_frame(&body) {
                Ok(frame) => match self.dispatch(frame) {
                    Dispatch::Reply(reply) => reply,
                    Dispatch::CloseSession => {
                        let _ = self.send(&ServerFrame::Ok);
                        return;
                    }
                },
                Err(e) => {
                    self.obs.protocol_errors.inc();
                    ServerFrame::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    }
                }
            };
            if self.send(&reply).is_err() {
                return;
            }
        }
    }

    fn dispatch(&mut self, frame: ClientFrame) -> Dispatch {
        match frame {
            ClientFrame::Hello { .. } => {
                self.obs.protocol_errors.inc();
                Dispatch::Reply(ServerFrame::Error {
                    code: ErrorCode::Protocol,
                    message: "HELLO after handshake".into(),
                })
            }
            ClientFrame::Query { sql } => {
                self.obs.queries.inc();
                Dispatch::Reply(self.run_query(&sql))
            }
            ClientFrame::Prepare { sql } => Dispatch::Reply(self.run_prepare(&sql)),
            ClientFrame::Execute { stmt_id, params } => {
                self.obs.queries.inc();
                Dispatch::Reply(self.run_execute(stmt_id, &params))
            }
            ClientFrame::Close { stmt_id } if stmt_id == CLOSE_SESSION => Dispatch::CloseSession,
            ClientFrame::Close { stmt_id } => {
                // Idempotent: closing an unknown statement is a no-op.
                self.statements.remove(&stmt_id);
                Dispatch::Reply(ServerFrame::Ok)
            }
            ClientFrame::Insert { sql, params } => {
                self.obs.queries.inc();
                Dispatch::Reply(self.run_insert(&sql, &params))
            }
        }
    }

    fn run_query(&self, sql: &str) -> ServerFrame {
        let logical = match dqo_sql::compile(sql, &CatalogSchemas(self.engine.catalog())) {
            Ok(logical) => logical,
            Err(e) => return sql_error(&e),
        };
        match self.engine.query(&logical) {
            Ok(result) => {
                ServerFrame::ResultSet(WireResult::from_relation(&result.output.relation))
            }
            Err(e) => ServerFrame::Error {
                code: ErrorCode::Engine,
                message: e.to_string(),
            },
        }
    }

    fn run_prepare(&mut self, sql: &str) -> ServerFrame {
        let prepared = match PreparedQuery::prepare(sql, &CatalogSchemas(self.engine.catalog())) {
            Ok(prepared) => prepared,
            Err(e) => return sql_error(&e),
        };
        let params = prepared.param_count() as u16;
        let plan = self.engine.prepare(prepared.template());
        let stmt_id = self.next_stmt_id;
        self.next_stmt_id = self.next_stmt_id.wrapping_add(1);
        self.statements.insert(stmt_id, (prepared, plan));
        ServerFrame::StmtReady { stmt_id, params }
    }

    fn run_execute(&self, stmt_id: u32, params: &[dqo_storage::Value]) -> ServerFrame {
        let Some((prepared, plan)) = self.statements.get(&stmt_id) else {
            return ServerFrame::Error {
                code: ErrorCode::UnknownStatement,
                message: format!("statement {stmt_id} was never prepared on this session"),
            };
        };
        let logical = match prepared.bind_params(params) {
            Ok(logical) => logical,
            Err(e) => return sql_error(&e),
        };
        match self.engine.execute_prepared(plan, &logical) {
            Ok(result) => {
                ServerFrame::ResultSet(WireResult::from_relation(&result.output.relation))
            }
            Err(e) => ServerFrame::Error {
                code: ErrorCode::Engine,
                message: e.to_string(),
            },
        }
    }

    fn run_insert(&self, sql: &str, params: &[dqo_storage::Value]) -> ServerFrame {
        let stmt = match dqo_sql::parse_statement(sql) {
            Ok(dqo_sql::Statement::Insert(stmt)) => stmt,
            Ok(dqo_sql::Statement::Select(_)) => {
                return ServerFrame::Error {
                    code: ErrorCode::Sql,
                    message: "INSERT frame carried a SELECT statement (use QUERY)".into(),
                }
            }
            Err(e) => return sql_error(&e),
        };
        let rows = match dqo_sql::bind_insert(&stmt, &CatalogSchemas(self.engine.catalog()), params)
        {
            Ok(rows) => rows,
            Err(e) => return sql_error(&e),
        };
        match self.engine.insert(&stmt.table, &rows) {
            // Background AV rebuilds (an SPH index whose key domain grew)
            // finish on the builder's own threads; the client only waits
            // for the base table and the views maintained inline.
            Ok(report) => ServerFrame::RowsAffected {
                rows: report.rows_inserted,
            },
            Err(e) => ServerFrame::Error {
                code: ErrorCode::Engine,
                message: e.to_string(),
            },
        }
    }

    fn send(&mut self, frame: &ServerFrame) -> io::Result<()> {
        let bytes = encode_server_frame(frame);
        self.stream.write_all(&bytes)?;
        self.stream.flush()
    }

    /// Read one frame body, polling the stop flag on read timeouts.
    /// Returns `Ok(None)` on clean EOF or shutdown.
    fn read_body(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut len_bytes = [0u8; 4];
        if !self.read_exact_polling(&mut len_bytes, true)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(len_bytes);
        if len == 0 || len > MAX_FRAME {
            self.obs.protocol_errors.inc();
            let _ = self.send(&ServerFrame::Error {
                code: ErrorCode::Protocol,
                message: format!("frame length {len} outside 1..={MAX_FRAME}"),
            });
            return Ok(None);
        }
        let mut body = vec![0u8; len as usize];
        if !self.read_exact_polling(&mut body, false)? {
            return Ok(None);
        }
        Ok(Some(body))
    }

    /// `read_exact` that wakes every [`POLL_INTERVAL`] to honour
    /// shutdown. `at_boundary` marks reads starting a new frame, where
    /// EOF and shutdown are clean exits rather than truncation.
    fn read_exact_polling(&mut self, buf: &mut [u8], at_boundary: bool) -> io::Result<bool> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    return if at_boundary && filled == 0 {
                        Ok(false)
                    } else {
                        Err(io::ErrorKind::UnexpectedEof.into())
                    };
                }
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

enum Dispatch {
    Reply(ServerFrame),
    CloseSession,
}

/// Map a front-end error to its wire code: parameter arity/type
/// mismatches get their own code so clients can distinguish a bad bind
/// call from a bad statement.
fn sql_error(e: &SqlError) -> ServerFrame {
    let code = match e {
        SqlError::ParamCount { .. } | SqlError::ParamType { .. } => ErrorCode::ParamMismatch,
        _ => ErrorCode::Sql,
    };
    ServerFrame::Error {
        code,
        message: e.to_string(),
    }
}
