//! The wire protocol: length-prefixed binary frames, little-endian.
//!
//! Layout of every frame, in both directions:
//!
//! ```text
//! [body_len: u32 LE][opcode: u8][payload: body_len - 1 bytes]
//! ```
//!
//! `body_len` counts the opcode byte plus the payload, so a valid frame
//! always has `body_len >= 1`; bodies above [`MAX_FRAME`] bytes are
//! rejected before allocation (hostile-length protection). Strings are
//! `[len: u32 LE][UTF-8 bytes]`. The full format, including the session
//! state machine and error-code semantics, is specified in
//! `docs/PROTOCOL.md`; [`wire_constants`] keeps that document honest.
//!
//! The codec is pure functions over byte buffers — no sockets — so the
//! decode paths can be hardened against truncation and corruption: any
//! input either decodes or returns a typed [`ProtocolError`], never
//! panics.

use dqo_storage::{DataType, Relation, Value};
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version this build speaks. The server answers HELLO with
/// `min(client_version, PROTOCOL_VERSION)`; version 0 is invalid.
pub const PROTOCOL_VERSION: u16 = 1;

/// Maximum frame body (opcode + payload) in bytes. A length prefix above
/// this is a protocol error, rejected before any allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// HELLO (client → server): `{version: u16, client: String}`. Must be
/// the first frame on a connection.
pub const OP_HELLO: u8 = 0x01;
/// QUERY (client → server): `{sql: String}` — one-shot parse/plan/run.
pub const OP_QUERY: u8 = 0x02;
/// PREPARE (client → server): `{sql: String}` — parse and bind once.
pub const OP_PREPARE: u8 = 0x03;
/// EXECUTE (client → server): `{stmt_id: u32, params}` — run a prepared
/// statement with the given parameter values.
pub const OP_EXECUTE: u8 = 0x04;
/// CLOSE (client → server): `{stmt_id: u32}`; [`CLOSE_SESSION`] ends the
/// whole session.
pub const OP_CLOSE: u8 = 0x05;
/// INSERT (client → server): `{sql: String, params}` — an
/// `INSERT INTO … VALUES …` statement, with `?` placeholders spliced
/// from the tagged parameter list (same encoding as EXECUTE).
pub const OP_INSERT: u8 = 0x06;
/// WELCOME (server → client): `{version: u16, server: String}`.
pub const OP_WELCOME: u8 = 0x81;
/// RESULT_SET (server → client): a typed, column-major relation.
pub const OP_RESULT_SET: u8 = 0x82;
/// ERROR (server → client): `{code: u16, message: String}`.
pub const OP_ERROR: u8 = 0x83;
/// STMT_READY (server → client): `{stmt_id: u32, params: u16}`.
pub const OP_STMT_READY: u8 = 0x84;
/// OK (server → client): empty acknowledgement (CLOSE).
pub const OP_OK: u8 = 0x85;
/// ROWS_AFFECTED (server → client): `{rows: u64}` — an INSERT landed.
pub const OP_ROWS_AFFECTED: u8 = 0x86;

/// `stmt_id` sentinel in CLOSE meaning "close the session".
pub const CLOSE_SESSION: u32 = 0xFFFF_FFFF;

/// Parameter tag: a `u32` value (`[tag][u32 LE]`).
pub const PARAM_U32: u8 = 1;
/// Parameter tag: a string value (`[tag][String]`).
pub const PARAM_STR: u8 = 2;

/// Column type code for `u32` (values ship as `u32 LE`).
pub const TYPE_U32: u8 = 1;
/// Column type code for `u64` (values ship as `u64 LE`).
pub const TYPE_U64: u8 = 2;
/// Column type code for `i64` (values ship as `i64 LE`).
pub const TYPE_I64: u8 = 3;
/// Column type code for `f64` (values ship as IEEE-754 bits, LE).
pub const TYPE_F64: u8 = 4;
/// Column type code for `bool` (values ship as one byte, 0 or 1).
pub const TYPE_BOOL: u8 = 5;
/// Column type code for strings (values ship dictionary-decoded, one
/// `String` per row).
pub const TYPE_STR: u8 = 6;

/// Error codes carried by ERROR frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame, bad opcode, handshake violation.
    Protocol = 1,
    /// The SQL front-end rejected the statement (lex/parse/bind).
    Sql = 2,
    /// The engine failed to optimise or execute.
    Engine = 3,
    /// EXECUTE/CLOSE named a statement id this session never prepared.
    UnknownStatement = 4,
    /// Parameter count or type did not match the prepared statement.
    ParamMismatch = 5,
    /// The client asked for protocol version 0.
    UnsupportedVersion = 6,
}

impl ErrorCode {
    /// The wire value.
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Decode a wire value, if it names a known code.
    pub fn from_code(code: u16) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Sql,
            3 => ErrorCode::Engine,
            4 => ErrorCode::UnknownStatement,
            5 => ErrorCode::ParamMismatch,
            6 => ErrorCode::UnsupportedVersion,
            _ => return None,
        })
    }
}

/// Every named wire constant with its value — the single source the
/// `docs/PROTOCOL.md` constants table is tested against.
pub fn wire_constants() -> Vec<(&'static str, u64)> {
    vec![
        ("PROTOCOL_VERSION", u64::from(PROTOCOL_VERSION)),
        ("MAX_FRAME", u64::from(MAX_FRAME)),
        ("OP_HELLO", u64::from(OP_HELLO)),
        ("OP_QUERY", u64::from(OP_QUERY)),
        ("OP_PREPARE", u64::from(OP_PREPARE)),
        ("OP_EXECUTE", u64::from(OP_EXECUTE)),
        ("OP_CLOSE", u64::from(OP_CLOSE)),
        ("OP_INSERT", u64::from(OP_INSERT)),
        ("OP_WELCOME", u64::from(OP_WELCOME)),
        ("OP_RESULT_SET", u64::from(OP_RESULT_SET)),
        ("OP_ERROR", u64::from(OP_ERROR)),
        ("OP_STMT_READY", u64::from(OP_STMT_READY)),
        ("OP_OK", u64::from(OP_OK)),
        ("OP_ROWS_AFFECTED", u64::from(OP_ROWS_AFFECTED)),
        ("CLOSE_SESSION", u64::from(CLOSE_SESSION)),
        ("PARAM_U32", u64::from(PARAM_U32)),
        ("PARAM_STR", u64::from(PARAM_STR)),
        ("TYPE_U32", u64::from(TYPE_U32)),
        ("TYPE_U64", u64::from(TYPE_U64)),
        ("TYPE_I64", u64::from(TYPE_I64)),
        ("TYPE_F64", u64::from(TYPE_F64)),
        ("TYPE_BOOL", u64::from(TYPE_BOOL)),
        ("TYPE_STR", u64::from(TYPE_STR)),
        ("ERR_PROTOCOL", u64::from(ErrorCode::Protocol.code())),
        ("ERR_SQL", u64::from(ErrorCode::Sql.code())),
        ("ERR_ENGINE", u64::from(ErrorCode::Engine.code())),
        (
            "ERR_UNKNOWN_STATEMENT",
            u64::from(ErrorCode::UnknownStatement.code()),
        ),
        (
            "ERR_PARAM_MISMATCH",
            u64::from(ErrorCode::ParamMismatch.code()),
        ),
        (
            "ERR_UNSUPPORTED_VERSION",
            u64::from(ErrorCode::UnsupportedVersion.code()),
        ),
    ]
}

/// A decode failure: the buffer is untrusted (it came off a socket), so
/// every malformed input maps to one of these instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The buffer ended before the field being read.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// Bytes remained after a complete frame body.
    TrailingBytes {
        /// How many.
        extra: usize,
    },
    /// An opcode this side does not accept.
    BadOpcode(u8),
    /// A declared length exceeding [`MAX_FRAME`] (or an empty body).
    BadLength(u32),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An unknown parameter tag.
    BadParamTag(u8),
    /// An unknown column type code.
    BadTypeCode(u8),
    /// A boolean byte that was neither 0 nor 1.
    BadBool(u8),
    /// An unknown error code in an ERROR frame.
    BadErrorCode(u16),
    /// A parameter [`Value`] variant the wire cannot carry.
    UnsupportedParam(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { what } => write!(f, "truncated frame while reading {what}"),
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after frame body")
            }
            ProtocolError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtocolError::BadLength(len) => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME}")
            }
            ProtocolError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            ProtocolError::BadParamTag(tag) => write!(f, "unknown parameter tag {tag}"),
            ProtocolError::BadTypeCode(code) => write!(f, "unknown column type code {code}"),
            ProtocolError::BadBool(b) => write!(f, "boolean byte {b} is neither 0 nor 1"),
            ProtocolError::BadErrorCode(code) => write!(f, "unknown error code {code}"),
            ProtocolError::UnsupportedParam(what) => {
                write!(f, "parameter type {what} cannot be sent on the wire")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A frame the client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Handshake: protocol version and a client identification string.
    Hello {
        /// Highest protocol version the client speaks.
        version: u16,
        /// Free-form client name (diagnostics only).
        client: String,
    },
    /// One-shot SQL query.
    Query {
        /// The statement text.
        sql: String,
    },
    /// Prepare a statement (may contain `?` placeholders).
    Prepare {
        /// The statement text.
        sql: String,
    },
    /// Execute a prepared statement.
    Execute {
        /// Id from STMT_READY.
        stmt_id: u32,
        /// Positional parameter values, `?0` first.
        params: Vec<Value>,
    },
    /// Close a statement, or the session via [`CLOSE_SESSION`].
    Close {
        /// Statement id, or [`CLOSE_SESSION`].
        stmt_id: u32,
    },
    /// An `INSERT INTO … VALUES …` mutation.
    Insert {
        /// The statement text (may contain `?` placeholders).
        sql: String,
        /// Positional parameter values, `?0` first.
        params: Vec<Value>,
    },
}

/// A frame the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Handshake reply: the negotiated version and a server string.
    Welcome {
        /// `min(client_version, PROTOCOL_VERSION)`.
        version: u16,
        /// Free-form server name (diagnostics only).
        server: String,
    },
    /// A query result.
    ResultSet(WireResult),
    /// A typed failure; the session stays usable.
    Error {
        /// See [`ErrorCode`].
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// PREPARE succeeded.
    StmtReady {
        /// Id to pass to EXECUTE/CLOSE.
        stmt_id: u32,
        /// Number of `?` placeholders in the statement.
        params: u16,
    },
    /// Empty acknowledgement (CLOSE).
    Ok,
    /// An INSERT landed: how many rows it appended.
    RowsAffected {
        /// Rows appended by the statement.
        rows: u64,
    },
}

/// A result set as it travels on the wire: named, typed, column-major.
/// `Str` columns are dictionary-decoded server-side — one owned `String`
/// per row — so the client needs no dictionary state.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// The columns, in schema order.
    pub columns: Vec<WireColumn>,
    /// Row count (every column has exactly this many values).
    pub rows: u64,
}

/// One named column of a [`WireResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireColumn {
    /// Column name.
    pub name: String,
    /// The values.
    pub data: WireData,
}

/// Column values by type.
#[derive(Debug, Clone, PartialEq)]
pub enum WireData {
    /// `u32` values.
    U32(Vec<u32>),
    /// `u64` values.
    U64(Vec<u64>),
    /// `i64` values.
    I64(Vec<i64>),
    /// `f64` values (compared bit-exactly via their encoding).
    F64(Vec<f64>),
    /// `bool` values.
    Bool(Vec<bool>),
    /// Dictionary-decoded strings.
    Str(Vec<String>),
}

impl WireData {
    fn type_code(&self) -> u8 {
        match self {
            WireData::U32(_) => TYPE_U32,
            WireData::U64(_) => TYPE_U64,
            WireData::I64(_) => TYPE_I64,
            WireData::F64(_) => TYPE_F64,
            WireData::Bool(_) => TYPE_BOOL,
            WireData::Str(_) => TYPE_STR,
        }
    }

    fn len(&self) -> usize {
        match self {
            WireData::U32(v) => v.len(),
            WireData::U64(v) => v.len(),
            WireData::I64(v) => v.len(),
            WireData::F64(v) => v.len(),
            WireData::Bool(v) => v.len(),
            WireData::Str(v) => v.len(),
        }
    }
}

impl WireResult {
    /// Encode a relation for the wire. Infallible: a well-formed
    /// [`Relation`] (checked at construction) always encodes; `Str`
    /// columns without an attached dictionary render their raw codes as
    /// decimal strings.
    pub fn from_relation(rel: &Relation) -> WireResult {
        let mut columns = Vec::with_capacity(rel.schema().width());
        for (idx, field) in rel.schema().fields().iter().enumerate() {
            let col = rel.column_at(idx).expect("schema width checked");
            let data = match field.data_type {
                DataType::U32 => WireData::U32(col.as_u32().expect("typed column").to_vec()),
                DataType::U64 => WireData::U64(col.as_u64().expect("typed column").to_vec()),
                DataType::I64 => WireData::I64(col.as_i64().expect("typed column").to_vec()),
                DataType::F64 => WireData::F64(col.as_f64().expect("typed column").to_vec()),
                DataType::Bool => WireData::Bool(col.as_bool().expect("typed column").to_vec()),
                DataType::Str => {
                    let codes = col.as_u32().expect("str column stores codes");
                    let dict = rel.dictionary_at(idx).expect("index in range");
                    WireData::Str(
                        codes
                            .iter()
                            .map(|&code| match dict {
                                Some(d) => d.decode(code).map(str::to_owned).unwrap_or_else(|_| {
                                    format!("<code {code} outside dictionary>")
                                }),
                                None => code.to_string(),
                            })
                            .collect(),
                    )
                }
            };
            columns.push(WireColumn {
                name: field.name.clone(),
                data,
            });
        }
        WireResult {
            columns,
            rows: rel.rows() as u64,
        }
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&WireData> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .map(|c| &c.data)
    }
}

// ---------------------------------------------------------------------------
// Byte-level reader/writer
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtocolError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn string(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        let len = self.u32(what)? as usize;
        // A hostile string length cannot exceed its frame: bound it by
        // the bytes actually present before allocating.
        if self.buf.len() - self.pos < len {
            return Err(ProtocolError::Truncated { what });
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(ProtocolError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Wrap a frame body in the length prefix.
fn finish_frame(body: Vec<u8>) -> Vec<u8> {
    debug_assert!(!body.is_empty() && body.len() as u64 <= u64::from(MAX_FRAME));
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

// ---------------------------------------------------------------------------
// Client-frame codec
// ---------------------------------------------------------------------------

/// Encode a client frame, length prefix included.
pub fn encode_client_frame(frame: &ClientFrame) -> Result<Vec<u8>, ProtocolError> {
    let mut body = Vec::new();
    match frame {
        ClientFrame::Hello { version, client } => {
            body.push(OP_HELLO);
            body.extend_from_slice(&version.to_le_bytes());
            put_string(&mut body, client);
        }
        ClientFrame::Query { sql } => {
            body.push(OP_QUERY);
            put_string(&mut body, sql);
        }
        ClientFrame::Prepare { sql } => {
            body.push(OP_PREPARE);
            put_string(&mut body, sql);
        }
        ClientFrame::Execute { stmt_id, params } => {
            body.push(OP_EXECUTE);
            body.extend_from_slice(&stmt_id.to_le_bytes());
            put_params(&mut body, params)?;
        }
        ClientFrame::Close { stmt_id } => {
            body.push(OP_CLOSE);
            body.extend_from_slice(&stmt_id.to_le_bytes());
        }
        ClientFrame::Insert { sql, params } => {
            body.push(OP_INSERT);
            put_string(&mut body, sql);
            put_params(&mut body, params)?;
        }
    }
    Ok(finish_frame(body))
}

/// Encode a tagged parameter list: `[n: u16]` then `n` tagged values
/// (shared by EXECUTE and INSERT).
fn put_params(body: &mut Vec<u8>, params: &[Value]) -> Result<(), ProtocolError> {
    body.extend_from_slice(&(params.len() as u16).to_le_bytes());
    for p in params {
        match p {
            Value::U32(v) => {
                body.push(PARAM_U32);
                body.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                body.push(PARAM_STR);
                put_string(body, s);
            }
            Value::U64(_) => return Err(ProtocolError::UnsupportedParam("u64")),
            Value::I64(_) => return Err(ProtocolError::UnsupportedParam("i64")),
            Value::F64(_) => return Err(ProtocolError::UnsupportedParam("f64")),
            Value::Bool(_) => return Err(ProtocolError::UnsupportedParam("bool")),
        }
    }
    Ok(())
}

/// Decode a tagged parameter list (see [`put_params`]).
fn take_params(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<Value>, ProtocolError> {
    let count = r.u16(what)?;
    let mut params = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let tag = r.u8("param_tag")?;
        params.push(match tag {
            PARAM_U32 => Value::U32(r.u32("param_u32")?),
            PARAM_STR => Value::Str(r.string("param_str")?),
            other => return Err(ProtocolError::BadParamTag(other)),
        });
    }
    Ok(params)
}

/// Decode a client frame body (opcode + payload, no length prefix).
pub fn decode_client_frame(body: &[u8]) -> Result<ClientFrame, ProtocolError> {
    let mut r = Reader::new(body);
    let opcode = r.u8("opcode")?;
    let frame = match opcode {
        OP_HELLO => ClientFrame::Hello {
            version: r.u16("hello.version")?,
            client: r.string("hello.client")?,
        },
        OP_QUERY => ClientFrame::Query {
            sql: r.string("query.sql")?,
        },
        OP_PREPARE => ClientFrame::Prepare {
            sql: r.string("prepare.sql")?,
        },
        OP_EXECUTE => {
            let stmt_id = r.u32("execute.stmt_id")?;
            let params = take_params(&mut r, "execute.param_count")?;
            ClientFrame::Execute { stmt_id, params }
        }
        OP_CLOSE => ClientFrame::Close {
            stmt_id: r.u32("close.stmt_id")?,
        },
        OP_INSERT => {
            let sql = r.string("insert.sql")?;
            let params = take_params(&mut r, "insert.param_count")?;
            ClientFrame::Insert { sql, params }
        }
        other => return Err(ProtocolError::BadOpcode(other)),
    };
    r.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Server-frame codec
// ---------------------------------------------------------------------------

/// Encode a server frame, length prefix included.
pub fn encode_server_frame(frame: &ServerFrame) -> Vec<u8> {
    let mut body = Vec::new();
    match frame {
        ServerFrame::Welcome { version, server } => {
            body.push(OP_WELCOME);
            body.extend_from_slice(&version.to_le_bytes());
            put_string(&mut body, server);
        }
        ServerFrame::ResultSet(result) => {
            body.push(OP_RESULT_SET);
            body.extend_from_slice(&(result.columns.len() as u16).to_le_bytes());
            for col in &result.columns {
                put_string(&mut body, &col.name);
                body.push(col.data.type_code());
            }
            body.extend_from_slice(&result.rows.to_le_bytes());
            for col in &result.columns {
                debug_assert_eq!(col.data.len() as u64, result.rows);
                match &col.data {
                    WireData::U32(v) => {
                        for x in v {
                            body.extend_from_slice(&x.to_le_bytes());
                        }
                    }
                    WireData::U64(v) => {
                        for x in v {
                            body.extend_from_slice(&x.to_le_bytes());
                        }
                    }
                    WireData::I64(v) => {
                        for x in v {
                            body.extend_from_slice(&x.to_le_bytes());
                        }
                    }
                    WireData::F64(v) => {
                        for x in v {
                            body.extend_from_slice(&x.to_bits().to_le_bytes());
                        }
                    }
                    WireData::Bool(v) => {
                        for x in v {
                            body.push(u8::from(*x));
                        }
                    }
                    WireData::Str(v) => {
                        for s in v {
                            put_string(&mut body, s);
                        }
                    }
                }
            }
        }
        ServerFrame::Error { code, message } => {
            body.push(OP_ERROR);
            body.extend_from_slice(&code.code().to_le_bytes());
            put_string(&mut body, message);
        }
        ServerFrame::StmtReady { stmt_id, params } => {
            body.push(OP_STMT_READY);
            body.extend_from_slice(&stmt_id.to_le_bytes());
            body.extend_from_slice(&params.to_le_bytes());
        }
        ServerFrame::Ok => body.push(OP_OK),
        ServerFrame::RowsAffected { rows } => {
            body.push(OP_ROWS_AFFECTED);
            body.extend_from_slice(&rows.to_le_bytes());
        }
    }
    finish_frame(body)
}

/// Decode a server frame body (opcode + payload, no length prefix).
pub fn decode_server_frame(body: &[u8]) -> Result<ServerFrame, ProtocolError> {
    let mut r = Reader::new(body);
    let opcode = r.u8("opcode")?;
    let frame = match opcode {
        OP_WELCOME => ServerFrame::Welcome {
            version: r.u16("welcome.version")?,
            server: r.string("welcome.server")?,
        },
        OP_RESULT_SET => {
            let cols = r.u16("result.cols")?;
            let mut headers = Vec::with_capacity(cols as usize);
            for _ in 0..cols {
                let name = r.string("result.column_name")?;
                let code = r.u8("result.type_code")?;
                headers.push((name, code));
            }
            let rows = r.u64("result.rows")?;
            // Each value is at least one byte on the wire: a claimed row
            // count the remaining buffer cannot possibly hold is rejected
            // here, before any per-column allocation.
            let remaining = (body.len() - r.pos) as u64;
            if cols > 0 && rows > remaining {
                return Err(ProtocolError::Truncated {
                    what: "result.values",
                });
            }
            let mut columns = Vec::with_capacity(headers.len());
            for (name, code) in headers {
                let n = rows as usize;
                let data = match code {
                    TYPE_U32 => {
                        let mut v = Vec::with_capacity(n);
                        for _ in 0..n {
                            v.push(r.u32("result.u32")?);
                        }
                        WireData::U32(v)
                    }
                    TYPE_U64 => {
                        let mut v = Vec::with_capacity(n);
                        for _ in 0..n {
                            v.push(r.u64("result.u64")?);
                        }
                        WireData::U64(v)
                    }
                    TYPE_I64 => {
                        let mut v = Vec::with_capacity(n);
                        for _ in 0..n {
                            v.push(r.u64("result.i64")? as i64);
                        }
                        WireData::I64(v)
                    }
                    TYPE_F64 => {
                        let mut v = Vec::with_capacity(n);
                        for _ in 0..n {
                            v.push(f64::from_bits(r.u64("result.f64")?));
                        }
                        WireData::F64(v)
                    }
                    TYPE_BOOL => {
                        let mut v = Vec::with_capacity(n);
                        for _ in 0..n {
                            match r.u8("result.bool")? {
                                0 => v.push(false),
                                1 => v.push(true),
                                other => return Err(ProtocolError::BadBool(other)),
                            }
                        }
                        WireData::Bool(v)
                    }
                    TYPE_STR => {
                        let mut v = Vec::with_capacity(n);
                        for _ in 0..n {
                            v.push(r.string("result.str")?);
                        }
                        WireData::Str(v)
                    }
                    other => return Err(ProtocolError::BadTypeCode(other)),
                };
                columns.push(WireColumn { name, data });
            }
            ServerFrame::ResultSet(WireResult { columns, rows })
        }
        OP_ERROR => {
            let raw = r.u16("error.code")?;
            let code = ErrorCode::from_code(raw).ok_or(ProtocolError::BadErrorCode(raw))?;
            ServerFrame::Error {
                code,
                message: r.string("error.message")?,
            }
        }
        OP_STMT_READY => ServerFrame::StmtReady {
            stmt_id: r.u32("stmt_ready.stmt_id")?,
            params: r.u16("stmt_ready.params")?,
        },
        OP_OK => ServerFrame::Ok,
        OP_ROWS_AFFECTED => ServerFrame::RowsAffected {
            rows: r.u64("rows_affected.rows")?,
        },
        other => return Err(ProtocolError::BadOpcode(other)),
    };
    r.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------------

/// Read one frame body off a stream. Returns `Ok(None)` on clean EOF at
/// a frame boundary; a length prefix outside `1..=MAX_FRAME` is an
/// `InvalidData` error *before* any allocation.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match stream.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::BadLength(len).to_string(),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Write one already-encoded frame (length prefix included) to a stream.
pub fn write_frame(stream: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    stream.write_all(frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqo_storage::{Column, Dictionary, Field, Schema};
    use std::sync::Arc;

    fn sample_result() -> WireResult {
        WireResult {
            columns: vec![
                WireColumn {
                    name: "key".into(),
                    data: WireData::U32(vec![1, 2, u32::MAX]),
                },
                WireColumn {
                    name: "n".into(),
                    data: WireData::U64(vec![10, 20, u64::MAX]),
                },
                WireColumn {
                    name: "delta".into(),
                    data: WireData::I64(vec![-5, 0, i64::MIN]),
                },
                WireColumn {
                    name: "avg".into(),
                    data: WireData::F64(vec![0.5, f64::NEG_INFINITY, f64::NAN]),
                },
                WireColumn {
                    name: "flag".into(),
                    data: WireData::Bool(vec![true, false, true]),
                },
                WireColumn {
                    name: "city".into(),
                    data: WireData::Str(vec!["ber".into(), "".into(), "münchen".into()]),
                },
            ],
            rows: 3,
        }
    }

    fn client_frames() -> Vec<ClientFrame> {
        vec![
            ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                client: "test".into(),
            },
            ClientFrame::Query {
                sql: "SELECT key FROM t".into(),
            },
            ClientFrame::Prepare {
                sql: "SELECT key FROM t WHERE key < ?".into(),
            },
            ClientFrame::Execute {
                stmt_id: 7,
                params: vec![Value::U32(42), Value::Str("ber".into())],
            },
            ClientFrame::Execute {
                stmt_id: 0,
                params: vec![],
            },
            ClientFrame::Close { stmt_id: 7 },
            ClientFrame::Close {
                stmt_id: CLOSE_SESSION,
            },
            ClientFrame::Insert {
                sql: "INSERT INTO t VALUES (1), (?)".into(),
                params: vec![Value::U32(9), Value::Str("ber".into())],
            },
            ClientFrame::Insert {
                sql: "INSERT INTO t VALUES (2)".into(),
                params: vec![],
            },
        ]
    }

    fn server_frames() -> Vec<ServerFrame> {
        vec![
            ServerFrame::Welcome {
                version: 1,
                server: "dqo-server".into(),
            },
            ServerFrame::ResultSet(sample_result()),
            ServerFrame::ResultSet(WireResult {
                columns: vec![],
                rows: 0,
            }),
            ServerFrame::Error {
                code: ErrorCode::Sql,
                message: "unknown table 'nope'".into(),
            },
            ServerFrame::StmtReady {
                stmt_id: 3,
                params: 2,
            },
            ServerFrame::Ok,
            ServerFrame::RowsAffected { rows: u64::MAX },
            ServerFrame::RowsAffected { rows: 0 },
        ]
    }

    #[test]
    fn client_frames_roundtrip() {
        for frame in client_frames() {
            let bytes = encode_client_frame(&frame).unwrap();
            let back = decode_client_frame(&bytes[4..]).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn server_frames_roundtrip() {
        for frame in server_frames() {
            let bytes = encode_server_frame(&frame);
            let back = decode_server_frame(&bytes[4..]).unwrap();
            match (&back, &frame) {
                // NaN != NaN under PartialEq; compare re-encodings instead.
                (ServerFrame::ResultSet(_), ServerFrame::ResultSet(_)) => {
                    assert_eq!(encode_server_frame(&back), bytes);
                }
                _ => assert_eq!(back, frame),
            }
        }
    }

    /// Every truncation point of every frame decodes to a typed error —
    /// never a panic.
    #[test]
    fn every_truncation_point_is_a_typed_error() {
        for frame in client_frames() {
            let bytes = encode_client_frame(&frame).unwrap();
            for cut in 0..bytes.len() - 4 {
                assert!(
                    decode_client_frame(&bytes[4..4 + cut]).is_err(),
                    "client cut at {cut} must error"
                );
            }
        }
        for frame in server_frames() {
            let bytes = encode_server_frame(&frame);
            for cut in 0..bytes.len() - 4 {
                assert!(
                    decode_server_frame(&bytes[4..4 + cut]).is_err(),
                    "server cut at {cut} must error"
                );
            }
        }
    }

    /// Flipping any single byte either decodes (undetectable data
    /// corruption) or errors cleanly; trailing garbage always errors.
    #[test]
    fn corruption_decodes_or_errors_cleanly() {
        for frame in server_frames() {
            let bytes = encode_server_frame(&frame);
            for i in 4..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 0xFF;
                let _ = decode_server_frame(&corrupt[4..]);
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(matches!(
                decode_server_frame(&trailing[4..]),
                Err(ProtocolError::TrailingBytes { extra: 1 })
            ));
        }
    }

    #[test]
    fn hostile_lengths_rejected_before_allocation() {
        // Frame length prefix above the cap.
        let mut frame = (MAX_FRAME + 1).to_le_bytes().to_vec();
        frame.push(OP_OK);
        let err = read_frame(&mut frame.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Zero-length body.
        let zero = 0u32.to_le_bytes().to_vec();
        assert!(read_frame(&mut zero.as_slice()).is_err());
        // A string claiming more bytes than its frame holds.
        let mut body = vec![OP_QUERY];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(b"abc");
        assert!(matches!(
            decode_client_frame(&body),
            Err(ProtocolError::Truncated { .. })
        ));
        // A result set claiming ~2^64 rows in a tiny frame.
        let mut body = vec![OP_RESULT_SET];
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'k');
        body.push(TYPE_U64);
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_server_frame(&body),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_opcodes_tags_and_codes_are_typed_errors() {
        assert!(matches!(
            decode_client_frame(&[0x7F]),
            Err(ProtocolError::BadOpcode(0x7F))
        ));
        assert!(matches!(
            decode_server_frame(&[0x02]),
            Err(ProtocolError::BadOpcode(0x02))
        ));
        // Bad parameter tag.
        let mut body = vec![OP_EXECUTE];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(99);
        assert!(matches!(
            decode_client_frame(&body),
            Err(ProtocolError::BadParamTag(99))
        ));
        // Bad bool byte.
        let mut body = vec![OP_RESULT_SET];
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'b');
        body.push(TYPE_BOOL);
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(7);
        assert!(matches!(
            decode_server_frame(&body),
            Err(ProtocolError::BadBool(7))
        ));
        // Unsupported param value client-side.
        assert!(matches!(
            encode_client_frame(&ClientFrame::Execute {
                stmt_id: 0,
                params: vec![Value::F64(0.5)],
            }),
            Err(ProtocolError::UnsupportedParam("f64"))
        ));
    }

    #[test]
    fn relation_encoding_decodes_strings_via_dictionary() {
        let (dict, codes) = Dictionary::encode_all(&["x", "y", "x"]);
        let schema = Schema::new(vec![
            Field::new("s", DataType::Str),
            Field::new("n", DataType::U64),
        ])
        .unwrap();
        let rel = Relation::new(schema, vec![Column::Str(codes), Column::U64(vec![1, 2, 3])])
            .unwrap()
            .with_dictionary("s", Arc::new(dict))
            .unwrap();
        let wire = WireResult::from_relation(&rel);
        assert_eq!(wire.rows, 3);
        assert_eq!(
            wire.column("s"),
            Some(&WireData::Str(vec!["x".into(), "y".into(), "x".into()]))
        );
        assert_eq!(wire.column("n"), Some(&WireData::U64(vec![1, 2, 3])));
        // And it survives the wire.
        let bytes = encode_server_frame(&ServerFrame::ResultSet(wire.clone()));
        let back = decode_server_frame(&bytes[4..]).unwrap();
        assert_eq!(back, ServerFrame::ResultSet(wire));
    }

    #[test]
    fn stream_framing_roundtrips_and_eof_is_none() {
        let a = encode_server_frame(&ServerFrame::Ok);
        let b = encode_server_frame(&ServerFrame::StmtReady {
            stmt_id: 1,
            params: 0,
        });
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut cursor = stream.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), a[4..].to_vec());
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b[4..].to_vec());
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn wire_constants_are_unique() {
        let consts = wire_constants();
        let mut names: Vec<&str> = consts.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), consts.len(), "duplicate constant names");
    }
}
