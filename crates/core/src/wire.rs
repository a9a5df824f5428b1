//! The `CGB1` wire codec — the only frame format on the TCP path:
//! versioned, correlation-id-stamped frames carrying
//! [`Request`]/[`Response`] bodies in a compact tag-based binary encoding.
//!
//! # Frame layout
//!
//! Every frame rides inside the `len ‖ payload` transport framing (see
//! `service::write_frame`) and starts with a 4-byte magic:
//!
//! ```text
//! +----------------+------+-------------------+----------------+
//! | C9 47 42 31    | kind | correlation (u64) | body ...       |
//! | "ÉGB1" magic   | u8   | little-endian     | kind-specific  |
//! +----------------+------+-------------------+----------------+
//! ```
//!
//! The magic's first byte `0xC9` followed by ASCII `G` is deliberately
//! invalid UTF-8, so no text protocol's first frame can be mistaken for
//! one. A peer whose first frame lacks the magic, or whose `Hello` carries
//! another version, is answered with one `Response::Error` frame naming
//! the expected magic and version, and disconnected.
//!
//! # Frame kinds
//!
//! * `0` **Hello** — client → server handshake, the first frame on every
//!   connection (body: one protocol-version byte).
//! * `1` **HelloAck** — server → client handshake accept (body: the
//!   server's protocol version byte). The client treats anything else as
//!   a typed error.
//! * `2` **Request** — body: metadata flags + optional trace context and
//!   tenant identity + a tag-encoded [`Request`].
//! * `3` **Response** — body: a tag-encoded [`Response`]. The correlation
//!   id echoes the request's, so a pipelining client can keep many
//!   requests in flight on one socket and demux replies out of order.
//!
//! # Body encoding
//!
//! Tag-based enums (one leading byte per variant), little-endian
//! fixed-width scalars, `u32`-length-prefixed strings and byte slices, and
//! observation vectors written as raw element runs (`i64`/`f32` × count)
//! that decode with a single `memcpy` instead of a JSON number parse per
//! element. Decoding reads borrowed `&[u8]`/`&str` views out of the frame
//! buffer ([`WireReader`]) and copies only at the owned
//! `Request`/`Response` construction edge; encoding appends into a
//! caller-owned scratch buffer reused across frames (no per-frame `Vec`
//! churn).

use cg_telemetry::TraceContext;

use crate::budget::{BudgetKind, BudgetViolation, ResourceBudget};
use crate::session::SessionSnapshot;
use crate::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, ProgramGraph,
    RewardSpaceInfo,
};
use cg_llvm::observation::{EdgeKind, GraphNode, NodeKind};

use crate::service::{Request, Response};

/// The frame magic: `0xC9 'G' 'B' '1'`. Invalid UTF-8 by construction (a
/// `0xC9` lead byte must be followed by a continuation byte, `'G'` is not),
/// so a text frame can never pass for a `CGB1` frame.
pub const WIRE_MAGIC: [u8; 4] = [0xC9, b'G', b'B', b'1'];

/// Protocol version carried in Hello/HelloAck bodies.
pub const WIRE_VERSION: u8 = 1;

const KIND_HELLO: u8 = 0;
const KIND_HELLO_ACK: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_RESPONSE: u8 = 3;

/// Fixed frame header: magic + kind byte + correlation id.
const HEADER_LEN: usize = 4 + 1 + 8;

/// A binary-codec decode failure. Carried in-band back to the peer as a
/// typed `Response::Error`, never a dropped connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// Whether a received frame starts with the `CGB1` magic.
pub fn is_binary_frame(frame: &[u8]) -> bool {
    frame.len() >= 4 && frame[..4] == WIRE_MAGIC
}

// ---------------------------------------------------------------------------
// Zero-copy reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a received frame, yielding borrowed views
/// (`&'a str`, `&'a [u8]`) into the frame buffer — decoding copies nothing
/// until an owned `Request`/`Response` is constructed from the views.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a frame (or frame body) for decoding.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return err(format!(
                "truncated frame: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed byte slice, borrowed from the frame.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the frame.
    fn str(&mut self) -> Result<&'a str, WireError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|e| WireError(format!("invalid UTF-8 in string: {e}")))
    }

    /// A raw `i64` run: count-prefixed, one `memcpy`-friendly pass.
    /// A width-tagged `i64` run: count, a width byte (1|2|4|8), then the
    /// values as sign-extended little-endian integers of that width. Most
    /// feature vectors (instruction counts, Autophase) are small counts, so
    /// narrowing beats a fixed 8-byte lane by 4x on typical payloads.
    fn i64_run(&mut self) -> Result<Vec<i64>, WireError> {
        let n = self.u32()? as usize;
        let width = self.u8()? as usize;
        if !matches!(width, 1 | 2 | 4 | 8) {
            return err(format!("bad int run width {width}"));
        }
        let raw = self.take(
            n.checked_mul(width)
                .ok_or(WireError("run overflow".into()))?,
        )?;
        Ok(raw
            .chunks_exact(width)
            .map(|c| match width {
                1 => c[0] as i8 as i64,
                2 => i16::from_le_bytes(c.try_into().unwrap()) as i64,
                4 => i32::from_le_bytes(c.try_into().unwrap()) as i64,
                _ => i64::from_le_bytes(c.try_into().unwrap()),
            })
            .collect())
    }

    /// A raw `f32` run.
    fn f32_run(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(4).ok_or(WireError("run overflow".into()))?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// A count-prefixed run of `u64`-encoded action indices.
    fn action_run(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(8).ok_or(WireError("run overflow".into()))?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
            .collect())
    }

    fn str_list(&mut self) -> Result<Vec<String>, WireError> {
        let n = self.u32()? as usize;
        // Cap the pre-allocation by what the frame could possibly hold (one
        // length prefix per entry) so a hostile count cannot OOM the server.
        let mut out = Vec::with_capacity(n.min(self.remaining() / 4 + 1));
        for _ in 0..n {
            out.push(self.str()?.to_owned());
        }
        Ok(out)
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => err(format!("bad option tag {t}")),
        }
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => err(format!("bad bool {t}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer primitives (append into a reusable scratch buffer)
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

fn put_i64_run(buf: &mut Vec<u8>, v: &[i64]) {
    put_u32(buf, v.len() as u32);
    // Narrowest width that fits every value; see `WireReader::i64_run`.
    let width: u8 = v
        .iter()
        .map(|&x| {
            if i64::from(x as i8) == x {
                1
            } else if i64::from(x as i16) == x {
                2
            } else if i64::from(x as i32) == x {
                4
            } else {
                8
            }
        })
        .max()
        .unwrap_or(1);
    buf.push(width);
    buf.reserve(v.len() * width as usize);
    for x in v {
        buf.extend_from_slice(&x.to_le_bytes()[..width as usize]);
    }
}

fn put_f32_run(buf: &mut Vec<u8>, v: &[f32]) {
    put_u32(buf, v.len() as u32);
    buf.reserve(v.len() * 4);
    for x in v {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_action_run(buf: &mut Vec<u8>, v: &[usize]) {
    put_u32(buf, v.len() as u32);
    buf.reserve(v.len() * 8);
    for x in v {
        buf.extend_from_slice(&(*x as u64).to_le_bytes());
    }
}

fn put_str_list(buf: &mut Vec<u8>, v: &[String]) {
    put_u32(buf, v.len() as u32);
    for s in v {
        put_str(buf, s);
    }
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_u64(buf, x);
        }
    }
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn header(buf: &mut Vec<u8>, kind: u8, corr: u64) {
    buf.clear();
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.push(kind);
    put_u64(buf, corr);
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// A decoded frame header with its borrowed body.
pub enum Frame<'a> {
    /// Client negotiation probe.
    Hello {
        /// Peer protocol version.
        version: u8,
    },
    /// Server negotiation accept.
    HelloAck {
        /// Peer protocol version.
        version: u8,
    },
    /// A request body, not yet decoded.
    Request {
        /// Correlation id to echo in the response frame.
        corr: u64,
        /// Tag-encoded request body.
        body: &'a [u8],
    },
    /// A response body, not yet decoded.
    Response {
        /// The request's correlation id.
        corr: u64,
        /// Tag-encoded response body.
        body: &'a [u8],
    },
}

/// Splits a binary frame into its kind, correlation id, and body.
///
/// # Errors
/// [`WireError`] when the magic, kind, or header length is invalid.
pub fn decode_frame(frame: &[u8]) -> Result<Frame<'_>, WireError> {
    if !is_binary_frame(frame) {
        return err("not a CGB1 frame");
    }
    if frame.len() < HEADER_LEN {
        return err("truncated frame header");
    }
    let kind = frame[4];
    let corr = u64::from_le_bytes(frame[5..13].try_into().unwrap());
    let body = &frame[HEADER_LEN..];
    match kind {
        KIND_HELLO => Ok(Frame::Hello {
            version: body.first().copied().unwrap_or(0),
        }),
        KIND_HELLO_ACK => Ok(Frame::HelloAck {
            version: body.first().copied().unwrap_or(0),
        }),
        KIND_REQUEST => Ok(Frame::Request { corr, body }),
        KIND_RESPONSE => Ok(Frame::Response { corr, body }),
        k => err(format!("unknown frame kind {k}")),
    }
}

/// Encodes a negotiation Hello into `buf` (cleared first).
pub fn encode_hello(buf: &mut Vec<u8>) {
    header(buf, KIND_HELLO, 0);
    buf.push(WIRE_VERSION);
}

/// Encodes a negotiation HelloAck into `buf` (cleared first).
pub fn encode_hello_ack(buf: &mut Vec<u8>) {
    header(buf, KIND_HELLO_ACK, 0);
    buf.push(WIRE_VERSION);
}

// ---------------------------------------------------------------------------
// Request bodies
// ---------------------------------------------------------------------------

const REQ_PING: u8 = 0;
const REQ_GET_SPACES: u8 = 1;
const REQ_START_SESSION: u8 = 2;
const REQ_STEP: u8 = 3;
const REQ_FORK: u8 = 4;
const REQ_END_SESSION: u8 = 5;
const REQ_RESTORE_SESSION: u8 = 6;
const REQ_EXPORT_STATE: u8 = 7;
const REQ_CONFIGURE: u8 = 8;
const REQ_SHUTDOWN: u8 = 9;
const REQ_RESUME: u8 = 10;

/// Request metadata flag: a trace context follows.
const META_TRACE: u8 = 1;
/// Request metadata flag: a tenant identity follows.
const META_TENANT: u8 = 2;

/// A decoded binary request frame: the request plus the natively-carried
/// transport metadata.
pub struct RequestFrame {
    /// Correlation id to echo in the response.
    pub corr: u64,
    /// The request.
    pub req: Request,
    /// The caller's trace context, if stamped.
    pub ctx: Option<TraceContext>,
    /// The caller's tenant identity, if stamped.
    pub tenant: Option<String>,
}

/// Encodes a request frame into `buf` (cleared first), stamping the given
/// trace context and tenant identity natively into the metadata section.
pub fn encode_request_frame(
    buf: &mut Vec<u8>,
    corr: u64,
    req: &Request,
    ctx: Option<TraceContext>,
    tenant: Option<&str>,
) {
    let timer = cg_telemetry::Timer::start();
    header(buf, KIND_REQUEST, corr);
    let mut flags = 0u8;
    if ctx.is_some() {
        flags |= META_TRACE;
    }
    if tenant.is_some() {
        flags |= META_TENANT;
    }
    buf.push(flags);
    if let Some(ctx) = ctx {
        put_u64(buf, ctx.trace_id);
        put_u64(buf, ctx.span_id);
    }
    if let Some(tenant) = tenant {
        put_str(buf, tenant);
    }
    match req {
        Request::Ping => buf.push(REQ_PING),
        Request::GetSpaces => buf.push(REQ_GET_SPACES),
        Request::StartSession {
            benchmark,
            action_space,
        } => {
            buf.push(REQ_START_SESSION);
            put_str(buf, benchmark);
            put_u64(buf, *action_space as u64);
        }
        Request::Step {
            session_id,
            actions,
            observation_spaces,
        } => {
            buf.push(REQ_STEP);
            put_u64(buf, *session_id);
            put_action_run(buf, actions);
            put_str_list(buf, observation_spaces);
        }
        Request::Fork { session_id } => {
            buf.push(REQ_FORK);
            put_u64(buf, *session_id);
        }
        Request::EndSession { session_id } => {
            buf.push(REQ_END_SESSION);
            put_u64(buf, *session_id);
        }
        Request::RestoreSession {
            benchmark,
            action_space,
            actions,
            state,
        } => {
            buf.push(REQ_RESTORE_SESSION);
            put_str(buf, benchmark);
            put_u64(buf, *action_space as u64);
            put_action_run(buf, actions);
            put_bytes(buf, state.to_bytes());
        }
        Request::Resume {
            benchmark,
            action_space,
            actions,
        } => {
            buf.push(REQ_RESUME);
            put_str(buf, benchmark);
            put_u64(buf, *action_space as u64);
            put_action_run(buf, actions);
        }
        Request::ExportState { session_id } => {
            buf.push(REQ_EXPORT_STATE);
            put_u64(buf, *session_id);
        }
        Request::Configure { budget } => {
            buf.push(REQ_CONFIGURE);
            put_budget(buf, budget);
        }
        Request::Shutdown => buf.push(REQ_SHUTDOWN),
    }
    cg_telemetry::global()
        .wire
        .encode_wall
        .record_duration(timer.elapsed());
}

/// Decodes a request frame body (the part after the frame header).
///
/// # Errors
/// [`WireError`] on any malformed or truncated body; the server answers it
/// in band as a typed `Response::Error`.
pub fn decode_request_body(corr: u64, body: &[u8]) -> Result<RequestFrame, WireError> {
    let timer = cg_telemetry::Timer::start();
    let mut r = WireReader::new(body);
    let flags = r.u8()?;
    let ctx = if flags & META_TRACE != 0 {
        Some(TraceContext {
            trace_id: r.u64()?,
            span_id: r.u64()?,
        })
    } else {
        None
    };
    let tenant = if flags & META_TENANT != 0 {
        Some(r.str()?.to_owned())
    } else {
        None
    };
    let req = match r.u8()? {
        REQ_PING => Request::Ping,
        REQ_GET_SPACES => Request::GetSpaces,
        REQ_START_SESSION => Request::StartSession {
            benchmark: r.str()?.to_owned(),
            action_space: r.u64()? as usize,
        },
        REQ_STEP => Request::Step {
            session_id: r.u64()?,
            actions: r.action_run()?,
            observation_spaces: r.str_list()?,
        },
        REQ_FORK => Request::Fork {
            session_id: r.u64()?,
        },
        REQ_END_SESSION => Request::EndSession {
            session_id: r.u64()?,
        },
        REQ_RESTORE_SESSION => Request::RestoreSession {
            benchmark: r.str()?.to_owned(),
            action_space: r.u64()? as usize,
            actions: r.action_run()?,
            state: SessionSnapshot::from_bytes(r.bytes()?.to_owned()),
        },
        REQ_RESUME => Request::Resume {
            benchmark: r.str()?.to_owned(),
            action_space: r.u64()? as usize,
            actions: r.action_run()?,
        },
        REQ_EXPORT_STATE => Request::ExportState {
            session_id: r.u64()?,
        },
        REQ_CONFIGURE => Request::Configure {
            budget: read_budget(&mut r)?,
        },
        REQ_SHUTDOWN => Request::Shutdown,
        t => return err(format!("unknown request tag {t}")),
    };
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after request", r.remaining()));
    }
    cg_telemetry::global()
        .wire
        .decode_wall
        .record_duration(timer.elapsed());
    Ok(RequestFrame {
        corr,
        req,
        ctx,
        tenant,
    })
}

// ---------------------------------------------------------------------------
// Response bodies
// ---------------------------------------------------------------------------

const RESP_PONG: u8 = 0;
const RESP_SPACES: u8 = 1;
const RESP_SESSION_STARTED: u8 = 2;
const RESP_STEPPED: u8 = 3;
const RESP_FORKED: u8 = 4;
const RESP_OK: u8 = 5;
const RESP_STATE: u8 = 6;
const RESP_BUDGET: u8 = 7;
const RESP_OVERLOADED: u8 = 8;
const RESP_ERROR: u8 = 9;
const RESP_FATAL: u8 = 10;
const RESP_RESUMED: u8 = 11;

const OBS_TEXT: u8 = 0;
const OBS_INT_VECTOR: u8 = 1;
const OBS_FLOAT_VECTOR: u8 = 2;
const OBS_SCALAR: u8 = 3;
const OBS_GRAPH: u8 = 4;
const OBS_BYTES: u8 = 5;

/// Encodes a response frame into `buf` (cleared first), echoing the
/// request's correlation id.
pub fn encode_response_frame(buf: &mut Vec<u8>, corr: u64, resp: &Response) {
    let timer = cg_telemetry::Timer::start();
    header(buf, KIND_RESPONSE, corr);
    match resp {
        Response::Pong => buf.push(RESP_PONG),
        Response::Spaces {
            action_spaces,
            observation_spaces,
            reward_spaces,
        } => {
            buf.push(RESP_SPACES);
            put_u32(buf, action_spaces.len() as u32);
            for s in action_spaces {
                put_str(buf, &s.name);
                put_str_list(buf, &s.actions);
            }
            put_u32(buf, observation_spaces.len() as u32);
            for s in observation_spaces {
                put_str(buf, &s.name);
                buf.push(obs_kind_tag(s.kind));
                put_bool(buf, s.deterministic);
                put_bool(buf, s.platform_dependent);
            }
            put_u32(buf, reward_spaces.len() as u32);
            for s in reward_spaces {
                put_str(buf, &s.name);
                put_str(buf, &s.metric);
                put_f64(buf, s.sign);
                match &s.baseline {
                    None => buf.push(0),
                    Some(b) => {
                        buf.push(1);
                        put_str(buf, b);
                    }
                }
                put_bool(buf, s.deterministic);
            }
        }
        Response::SessionStarted { session_id } => {
            buf.push(RESP_SESSION_STARTED);
            put_u64(buf, *session_id);
        }
        Response::Stepped {
            end_of_episode,
            changed,
            observations,
        } => {
            buf.push(RESP_STEPPED);
            put_bool(buf, *end_of_episode);
            put_bool(buf, *changed);
            put_u32(buf, observations.len() as u32);
            for obs in observations {
                put_observation(buf, obs);
            }
        }
        Response::Forked { session_id } => {
            buf.push(RESP_FORKED);
            put_u64(buf, *session_id);
        }
        Response::Resumed { session_id, depth } => {
            buf.push(RESP_RESUMED);
            put_u64(buf, *session_id);
            put_u64(buf, *depth as u64);
        }
        Response::Ok => buf.push(RESP_OK),
        Response::State { state } => {
            buf.push(RESP_STATE);
            match state {
                None => buf.push(0),
                Some(s) => {
                    buf.push(1);
                    put_bytes(buf, s.to_bytes());
                }
            }
        }
        Response::Budget(v) => {
            buf.push(RESP_BUDGET);
            buf.push(match v.kind {
                BudgetKind::Wall => 0,
                BudgetKind::Growth => 1,
            });
            put_u64(buf, v.limit);
            put_u64(buf, v.observed);
            put_str(buf, &v.detail);
        }
        Response::Overloaded {
            retry_after_ms,
            reason,
        } => {
            buf.push(RESP_OVERLOADED);
            put_u64(buf, *retry_after_ms);
            put_str(buf, reason);
        }
        Response::Error(e) => {
            buf.push(RESP_ERROR);
            put_str(buf, e);
        }
        Response::Fatal(e) => {
            buf.push(RESP_FATAL);
            put_str(buf, e);
        }
    }
    cg_telemetry::global()
        .wire
        .encode_wall
        .record_duration(timer.elapsed());
}

/// Decodes a response frame body (the part after the frame header).
///
/// # Errors
/// [`WireError`] on any malformed or truncated body.
pub fn decode_response_body(body: &[u8]) -> Result<Response, WireError> {
    let timer = cg_telemetry::Timer::start();
    let mut r = WireReader::new(body);
    let resp = match r.u8()? {
        RESP_PONG => Response::Pong,
        RESP_SPACES => {
            let n = r.u32()? as usize;
            let mut action_spaces = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                action_spaces.push(ActionSpaceInfo {
                    name: r.str()?.to_owned(),
                    actions: r.str_list()?,
                });
            }
            let n = r.u32()? as usize;
            let mut observation_spaces = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                observation_spaces.push(ObservationSpaceInfo {
                    name: r.str()?.to_owned(),
                    kind: obs_kind_from_tag(r.u8()?)?,
                    deterministic: r.bool()?,
                    platform_dependent: r.bool()?,
                });
            }
            let n = r.u32()? as usize;
            let mut reward_spaces = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                reward_spaces.push(RewardSpaceInfo {
                    name: r.str()?.to_owned(),
                    metric: r.str()?.to_owned(),
                    sign: r.f64()?,
                    baseline: match r.u8()? {
                        0 => None,
                        1 => Some(r.str()?.to_owned()),
                        t => return err(format!("bad option tag {t}")),
                    },
                    deterministic: r.bool()?,
                });
            }
            Response::Spaces {
                action_spaces,
                observation_spaces,
                reward_spaces,
            }
        }
        RESP_SESSION_STARTED => Response::SessionStarted {
            session_id: r.u64()?,
        },
        RESP_STEPPED => {
            let end_of_episode = r.bool()?;
            let changed = r.bool()?;
            let n = r.u32()? as usize;
            let mut observations = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                observations.push(read_observation(&mut r)?);
            }
            Response::Stepped {
                end_of_episode,
                changed,
                observations,
            }
        }
        RESP_FORKED => Response::Forked {
            session_id: r.u64()?,
        },
        RESP_RESUMED => Response::Resumed {
            session_id: r.u64()?,
            depth: r.u64()? as usize,
        },
        RESP_OK => Response::Ok,
        RESP_STATE => Response::State {
            state: match r.u8()? {
                0 => None,
                1 => Some(SessionSnapshot::from_bytes(r.bytes()?.to_owned())),
                t => return err(format!("bad option tag {t}")),
            },
        },
        RESP_BUDGET => Response::Budget(BudgetViolation {
            kind: match r.u8()? {
                0 => BudgetKind::Wall,
                1 => BudgetKind::Growth,
                t => return err(format!("bad budget kind {t}")),
            },
            limit: r.u64()?,
            observed: r.u64()?,
            detail: r.str()?.to_owned(),
        }),
        RESP_OVERLOADED => Response::Overloaded {
            retry_after_ms: r.u64()?,
            reason: r.str()?.to_owned(),
        },
        RESP_ERROR => Response::Error(r.str()?.to_owned()),
        RESP_FATAL => Response::Fatal(r.str()?.to_owned()),
        t => return err(format!("unknown response tag {t}")),
    };
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after response", r.remaining()));
    }
    cg_telemetry::global()
        .wire
        .decode_wall
        .record_duration(timer.elapsed());
    Ok(resp)
}

fn obs_kind_tag(kind: ObservationKind) -> u8 {
    match kind {
        ObservationKind::Text => OBS_TEXT,
        ObservationKind::IntVector => OBS_INT_VECTOR,
        ObservationKind::FloatVector => OBS_FLOAT_VECTOR,
        ObservationKind::Scalar => OBS_SCALAR,
        ObservationKind::Graph => OBS_GRAPH,
        ObservationKind::Bytes => OBS_BYTES,
    }
}

fn obs_kind_from_tag(tag: u8) -> Result<ObservationKind, WireError> {
    Ok(match tag {
        OBS_TEXT => ObservationKind::Text,
        OBS_INT_VECTOR => ObservationKind::IntVector,
        OBS_FLOAT_VECTOR => ObservationKind::FloatVector,
        OBS_SCALAR => ObservationKind::Scalar,
        OBS_GRAPH => ObservationKind::Graph,
        OBS_BYTES => ObservationKind::Bytes,
        t => return err(format!("unknown observation kind {t}")),
    })
}

fn put_observation(buf: &mut Vec<u8>, obs: &Observation) {
    match obs {
        Observation::Text(t) => {
            buf.push(OBS_TEXT);
            put_str(buf, t);
        }
        Observation::IntVector(v) => {
            buf.push(OBS_INT_VECTOR);
            put_i64_run(buf, v);
        }
        Observation::FloatVector(v) => {
            buf.push(OBS_FLOAT_VECTOR);
            put_f32_run(buf, v);
        }
        Observation::Scalar(x) => {
            buf.push(OBS_SCALAR);
            put_f64(buf, *x);
        }
        Observation::Graph(g) => {
            buf.push(OBS_GRAPH);
            put_graph(buf, g);
        }
        Observation::Bytes(b) => {
            buf.push(OBS_BYTES);
            put_bytes(buf, b);
        }
    }
}

fn read_observation(r: &mut WireReader<'_>) -> Result<Observation, WireError> {
    Ok(match r.u8()? {
        OBS_TEXT => Observation::Text(r.str()?.to_owned()),
        OBS_INT_VECTOR => Observation::IntVector(r.i64_run()?),
        OBS_FLOAT_VECTOR => Observation::FloatVector(r.f32_run()?),
        OBS_SCALAR => Observation::Scalar(r.f64()?),
        OBS_GRAPH => Observation::Graph(read_graph(r)?),
        OBS_BYTES => Observation::Bytes(r.bytes()?.to_owned()),
        t => return err(format!("unknown observation tag {t}")),
    })
}

/// ProGraML graphs are encoded natively (5 bytes per edge on graphs under
/// 64k nodes, a tag byte plus label per node) rather than as embedded JSON:
/// graphs are the bulkiest routinely-shipped observation, and the JSON form
/// spends ~5× the bytes on key names and quoted edge kinds. Edge endpoints
/// are width-tagged — 2-byte indices when the node count fits `u16`, 4-byte
/// otherwise — since per-function graphs rarely clear a few thousand nodes.
fn put_graph(buf: &mut Vec<u8>, g: &ProgramGraph) {
    put_u32(buf, g.nodes.len() as u32);
    for n in &g.nodes {
        buf.push(match n.kind {
            NodeKind::Instruction => 0,
            NodeKind::Variable => 1,
            NodeKind::Constant => 2,
            NodeKind::Function => 3,
        });
        put_str(buf, &n.label);
        put_u32(buf, n.opcode);
    }
    put_u32(buf, g.edges.len() as u32);
    let wide = g.nodes.len() > usize::from(u16::MAX);
    let width: u8 = if wide { 4 } else { 2 };
    buf.push(width);
    buf.reserve(g.edges.len() * (2 * width as usize + 1));
    for (src, dst, kind) in &g.edges {
        if wide {
            put_u32(buf, *src);
            put_u32(buf, *dst);
        } else {
            buf.extend_from_slice(&(*src as u16).to_le_bytes());
            buf.extend_from_slice(&(*dst as u16).to_le_bytes());
        }
        buf.push(match kind {
            EdgeKind::Control => 0,
            EdgeKind::Data => 1,
            EdgeKind::Call => 2,
        });
    }
}

fn read_graph(r: &mut WireReader<'_>) -> Result<ProgramGraph, WireError> {
    let n = r.u32()? as usize;
    let mut nodes = Vec::with_capacity(n.min(r.remaining() / 6 + 1));
    for _ in 0..n {
        let kind = match r.u8()? {
            0 => NodeKind::Instruction,
            1 => NodeKind::Variable,
            2 => NodeKind::Constant,
            3 => NodeKind::Function,
            t => return err(format!("unknown node kind {t}")),
        };
        nodes.push(GraphNode {
            kind,
            label: r.str()?.to_owned(),
            opcode: r.u32()?,
        });
    }
    let n = r.u32()? as usize;
    let width = r.u8()?;
    if !matches!(width, 2 | 4) {
        return err(format!("bad edge index width {width}"));
    }
    let mut edges = Vec::with_capacity(n.min(r.remaining() / 5 + 1));
    for _ in 0..n {
        let (src, dst) = if width == 4 {
            (r.u32()?, r.u32()?)
        } else {
            (r.u16()?.into(), r.u16()?.into())
        };
        let kind = match r.u8()? {
            0 => EdgeKind::Control,
            1 => EdgeKind::Data,
            2 => EdgeKind::Call,
            t => return err(format!("unknown edge kind {t}")),
        };
        edges.push((src, dst, kind));
    }
    Ok(ProgramGraph { nodes, edges })
}

fn put_budget(buf: &mut Vec<u8>, b: &ResourceBudget) {
    put_opt_u64(buf, b.step_wall_us);
    put_opt_u64(buf, b.max_state_size);
    match b.max_growth {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_f64(buf, x);
        }
    }
    put_opt_u64(buf, b.interp_fuel);
}

fn read_budget(r: &mut WireReader<'_>) -> Result<ResourceBudget, WireError> {
    Ok(ResourceBudget {
        step_wall_us: r.opt_u64()?,
        max_state_size: r.opt_u64()?,
        max_growth: match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            t => return err(format!("bad option tag {t}")),
        },
        interp_fuel: r.opt_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use serde::Serialize as _;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::GetSpaces,
            Request::StartSession {
                benchmark: "benchmark://cbench-v1/crc32".into(),
                action_space: 1,
            },
            Request::Step {
                session_id: 42,
                actions: vec![0, 7, usize::MAX],
                observation_spaces: vec!["Autophase".into(), "Ir".into()],
            },
            Request::Fork { session_id: 3 },
            Request::EndSession { session_id: 9 },
            Request::RestoreSession {
                benchmark: "b".into(),
                action_space: 0,
                actions: vec![1, 2, 3],
                state: SessionSnapshot::from_bytes(vec![0, 1, 255, 128]),
            },
            Request::Resume {
                benchmark: "b".into(),
                action_space: 1,
                actions: vec![4, 0, 4],
            },
            Request::ExportState { session_id: 11 },
            Request::Configure {
                budget: ResourceBudget {
                    step_wall_us: Some(1000),
                    max_state_size: None,
                    max_growth: Some(1.5),
                    interp_fuel: Some(u64::MAX),
                },
            },
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Spaces {
                action_spaces: vec![ActionSpaceInfo {
                    name: "PassPipeline".into(),
                    actions: vec!["mem2reg".into(), "gvn".into()],
                }],
                observation_spaces: vec![ObservationSpaceInfo {
                    name: "Autophase".into(),
                    kind: ObservationKind::IntVector,
                    deterministic: true,
                    platform_dependent: false,
                }],
                reward_spaces: vec![RewardSpaceInfo {
                    name: "IrInstructionCountOz".into(),
                    metric: "IrInstructionCount".into(),
                    sign: 1.0,
                    baseline: Some("IrInstructionCountOz".into()),
                    deterministic: true,
                }],
            },
            Response::SessionStarted { session_id: 17 },
            Response::Stepped {
                end_of_episode: true,
                changed: false,
                observations: vec![
                    Observation::Text("define i32 @f()\n  ret, \"quoted\"".into()),
                    Observation::IntVector(vec![i64::MIN, -1, 0, 1, i64::MAX]),
                    Observation::FloatVector(vec![0.103_174_6, -7.25, f32::MAX]),
                    Observation::Scalar(487.0),
                    Observation::Graph(ProgramGraph {
                        nodes: vec![
                            GraphNode {
                                kind: NodeKind::Instruction,
                                label: "add".into(),
                                opcode: 13,
                            },
                            GraphNode {
                                kind: NodeKind::Variable,
                                label: "%x".into(),
                                opcode: 0,
                            },
                        ],
                        edges: vec![(0, 1, EdgeKind::Data), (1, 0, EdgeKind::Control)],
                    }),
                    Observation::Bytes(vec![0, 255, 128, 7]),
                ],
            },
            Response::Forked { session_id: 5 },
            Response::Resumed {
                session_id: 12,
                depth: 20,
            },
            Response::Ok,
            Response::State { state: None },
            Response::State {
                state: Some(SessionSnapshot::from_bytes(vec![9, 8, 7])),
            },
            Response::Budget(BudgetViolation {
                kind: BudgetKind::Growth,
                limit: 25,
                observed: 30,
                detail: "state grew".into(),
            }),
            Response::Overloaded {
                retry_after_ms: 100,
                reason: "connection cap 1 reached".into(),
            },
            Response::Error("no session 3".into()),
            Response::Fatal("session 3 panicked".into()),
        ]
    }

    fn req_roundtrip(req: &Request, ctx: Option<TraceContext>, tenant: Option<&str>) {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 77, req, ctx, tenant);
        assert!(is_binary_frame(&buf));
        let Frame::Request { corr, body } = decode_frame(&buf).unwrap() else {
            panic!("not a request frame");
        };
        assert_eq!(corr, 77);
        let decoded = decode_request_body(corr, body).unwrap();
        assert_eq!(decoded.ctx, ctx);
        assert_eq!(decoded.tenant.as_deref(), tenant);
        // Request has no PartialEq: compare through `to_value()`.
        assert_eq!(
            serde_json::to_string(&decoded.req.to_value()).unwrap(),
            serde_json::to_string(&req.to_value()).unwrap(),
        );
    }

    #[test]
    fn request_roundtrip_all_variants() {
        for req in &sample_requests() {
            req_roundtrip(req, None, None);
            req_roundtrip(
                req,
                Some(TraceContext {
                    trace_id: u64::MAX,
                    span_id: 12345,
                }),
                Some("tenant-a"),
            );
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        let mut buf = Vec::new();
        for resp in &sample_responses() {
            encode_response_frame(&mut buf, u64::MAX, resp);
            let Frame::Response { corr, body } = decode_frame(&buf).unwrap() else {
                panic!("not a response frame");
            };
            assert_eq!(corr, u64::MAX);
            let decoded = decode_response_body(body).unwrap();
            assert_eq!(
                serde_json::to_string(&decoded.to_value()).unwrap(),
                serde_json::to_string(&resp.to_value()).unwrap(),
            );
        }
    }

    /// The wire codec and the serde derives (stdb records, CLI `--json`
    /// output) describe the same value space: a response decoded from its
    /// frame equals, through `to_value()`, the one serde round-trips.
    #[test]
    fn cross_codec_agreement() {
        let mut buf = Vec::new();
        for resp in &sample_responses() {
            encode_response_frame(&mut buf, 0, resp);
            let Frame::Response { body, .. } = decode_frame(&buf).unwrap() else {
                panic!("not a response frame");
            };
            let from_binary = decode_response_body(body).unwrap();
            let json = serde_json::to_vec(resp).unwrap();
            let from_json: Response = serde_json::from_slice(&json).unwrap();
            assert_eq!(
                serde_json::to_string(&from_binary.to_value()).unwrap(),
                serde_json::to_string(&from_json.to_value()).unwrap(),
            );
        }
    }

    #[test]
    fn hello_frames_roundtrip() {
        let mut buf = Vec::new();
        encode_hello(&mut buf);
        assert!(matches!(
            decode_frame(&buf).unwrap(),
            Frame::Hello {
                version: WIRE_VERSION
            }
        ));
        encode_hello_ack(&mut buf);
        assert!(matches!(
            decode_frame(&buf).unwrap(),
            Frame::HelloAck {
                version: WIRE_VERSION
            }
        ));
    }

    #[test]
    fn magic_is_invalid_utf8() {
        // No text frame can pass for a CGB1 frame, and vice versa.
        let mut buf = Vec::new();
        encode_hello(&mut buf);
        assert!(std::str::from_utf8(&buf).is_err());
        assert!(!is_binary_frame(b"{\"ping\"}"));
        assert!(!is_binary_frame(b""));
    }

    #[test]
    fn truncated_and_corrupt_frames_are_typed_errors() {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, 1, &sample_requests()[3], None, None);
        for cut in [0, 3, 5, HEADER_LEN, buf.len() - 1] {
            let sliced = &buf[..cut];
            if is_binary_frame(sliced) {
                let ok = match decode_frame(sliced) {
                    Ok(Frame::Request { corr, body }) => decode_request_body(corr, body).is_ok(),
                    Ok(_) => true,
                    Err(_) => false,
                };
                assert!(!ok, "cut at {cut} must not decode");
            }
        }
        // Unknown tags are errors, not panics.
        let mut bad = buf.clone();
        let at = bad.len() - 1;
        bad[HEADER_LEN] = 0; // no metadata flags
        bad[at] = 250;
        assert!(decode_frame(&bad).is_ok());
        let mut evil = Vec::new();
        header(&mut evil, KIND_RESPONSE, 0);
        evil.push(250);
        let Frame::Response { body, .. } = decode_frame(&evil).unwrap() else {
            panic!();
        };
        assert!(decode_response_body(body).is_err());
    }

    #[test]
    fn encode_reuses_scratch_without_growth() {
        let mut buf = Vec::new();
        encode_response_frame(&mut buf, 1, &sample_responses()[3]);
        let cap = buf.capacity();
        for corr in 0..100u64 {
            encode_response_frame(&mut buf, corr, &sample_responses()[3]);
        }
        assert_eq!(buf.capacity(), cap, "scratch must be reused, not regrown");
    }

    // ------------------------------------------------------------------
    // Property tests: encode→decode identity over arbitrary values,
    // compared through `to_value()`, and agreement with the serde derives.
    // ------------------------------------------------------------------

    fn arb_string(rng: &mut TestRng) -> String {
        let len = rng.below(20) as usize;
        (0..len)
            .map(|_| {
                // Mix ASCII with multi-byte chars and escape-hostile ones.
                match rng.below(6) {
                    0 => '\n',
                    1 => '"',
                    2 => '\\',
                    3 => 'λ',
                    _ => (b'a' + rng.below(26) as u8) as char,
                }
            })
            .collect()
    }

    fn arb_observation(rng: &mut TestRng) -> Observation {
        match rng.below(6) {
            0 => Observation::Text(arb_string(rng)),
            1 => {
                Observation::IntVector((0..rng.below(80)).map(|_| rng.next_u64() as i64).collect())
            }
            2 => Observation::FloatVector(
                (0..rng.below(80))
                    .map(|_| f32::from_bits(rng.next_u64() as u32))
                    .filter(|f| f.is_finite())
                    .collect(),
            ),
            3 => Observation::Scalar((rng.next_u64() as i64 as f64) / 7.0),
            4 => {
                let nodes: Vec<GraphNode> = (0..rng.below(12))
                    .map(|_| GraphNode {
                        kind: match rng.below(4) {
                            0 => NodeKind::Instruction,
                            1 => NodeKind::Variable,
                            2 => NodeKind::Constant,
                            _ => NodeKind::Function,
                        },
                        label: arb_string(rng),
                        opcode: rng.below(70) as u32,
                    })
                    .collect();
                let n = nodes.len().max(1) as u64;
                let edges = (0..rng.below(20))
                    .map(|_| {
                        (
                            rng.below(n) as u32,
                            rng.below(n) as u32,
                            match rng.below(3) {
                                0 => EdgeKind::Control,
                                1 => EdgeKind::Data,
                                _ => EdgeKind::Call,
                            },
                        )
                    })
                    .collect();
                Observation::Graph(ProgramGraph { nodes, edges })
            }
            _ => Observation::Bytes((0..rng.below(64)).map(|_| rng.next_u64() as u8).collect()),
        }
    }

    fn arb_request(rng: &mut TestRng) -> Request {
        match rng.below(11) {
            0 => Request::Ping,
            1 => Request::GetSpaces,
            2 => Request::StartSession {
                benchmark: arb_string(rng),
                action_space: rng.below(4) as usize,
            },
            3 => Request::Step {
                session_id: rng.next_u64(),
                actions: (0..rng.below(16))
                    .map(|_| rng.below(1 << 20) as usize)
                    .collect(),
                observation_spaces: (0..rng.below(4)).map(|_| arb_string(rng)).collect(),
            },
            4 => Request::Fork {
                session_id: rng.next_u64(),
            },
            5 => Request::EndSession {
                session_id: rng.next_u64(),
            },
            6 => Request::RestoreSession {
                benchmark: arb_string(rng),
                action_space: rng.below(4) as usize,
                actions: (0..rng.below(16))
                    .map(|_| rng.below(1 << 20) as usize)
                    .collect(),
                state: SessionSnapshot::from_bytes(
                    (0..rng.below(128)).map(|_| rng.next_u64() as u8).collect(),
                ),
            },
            7 => Request::ExportState {
                session_id: rng.next_u64(),
            },
            8 => Request::Configure {
                budget: ResourceBudget {
                    step_wall_us: (rng.below(2) == 1).then(|| rng.next_u64()),
                    max_state_size: (rng.below(2) == 1).then(|| rng.next_u64()),
                    max_growth: (rng.below(2) == 1).then(|| rng.below(1000) as f64 / 8.0),
                    interp_fuel: (rng.below(2) == 1).then(|| rng.next_u64()),
                },
            },
            9 => Request::Resume {
                benchmark: arb_string(rng),
                action_space: rng.below(4) as usize,
                actions: (0..rng.below(16))
                    .map(|_| rng.below(1 << 20) as usize)
                    .collect(),
            },
            _ => Request::Shutdown,
        }
    }

    fn arb_response(rng: &mut TestRng) -> Response {
        match rng.below(12) {
            0 => Response::Pong,
            1 => Response::SessionStarted {
                session_id: rng.next_u64(),
            },
            2 => Response::Stepped {
                end_of_episode: rng.below(2) == 1,
                changed: rng.below(2) == 1,
                observations: (0..rng.below(4)).map(|_| arb_observation(rng)).collect(),
            },
            3 => Response::Forked {
                session_id: rng.next_u64(),
            },
            4 => Response::Ok,
            5 => Response::State {
                state: (rng.below(2) == 1)
                    .then(|| (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect())
                    .map(SessionSnapshot::from_bytes),
            },
            6 => Response::Budget(BudgetViolation {
                kind: if rng.below(2) == 1 {
                    BudgetKind::Wall
                } else {
                    BudgetKind::Growth
                },
                limit: rng.next_u64(),
                observed: rng.next_u64(),
                detail: arb_string(rng),
            }),
            7 => Response::Overloaded {
                retry_after_ms: rng.next_u64(),
                reason: arb_string(rng),
            },
            8 => Response::Error(arb_string(rng)),
            9 => Response::Fatal(arb_string(rng)),
            10 => Response::Resumed {
                session_id: rng.next_u64(),
                depth: rng.below(1 << 20) as usize,
            },
            _ => Response::Spaces {
                action_spaces: (0..rng.below(3))
                    .map(|_| ActionSpaceInfo {
                        name: arb_string(rng),
                        actions: (0..rng.below(6)).map(|_| arb_string(rng)).collect(),
                    })
                    .collect(),
                observation_spaces: (0..rng.below(3))
                    .map(|_| ObservationSpaceInfo {
                        name: arb_string(rng),
                        kind: obs_kind_from_tag(rng.below(6) as u8).unwrap(),
                        deterministic: rng.below(2) == 1,
                        platform_dependent: rng.below(2) == 1,
                    })
                    .collect(),
                reward_spaces: (0..rng.below(3))
                    .map(|_| RewardSpaceInfo {
                        name: arb_string(rng),
                        metric: arb_string(rng),
                        sign: if rng.below(2) == 1 { 1.0 } else { -1.0 },
                        baseline: (rng.below(2) == 1).then(|| arb_string(rng)),
                        deterministic: rng.below(2) == 1,
                    })
                    .collect(),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn prop_request_binary_roundtrip_and_json_agreement(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let req = arb_request(&mut rng);
            let ctx = (rng.below(2) == 1).then(|| TraceContext {
                trace_id: rng.next_u64(),
                span_id: rng.next_u64(),
            });
            let tenant = (rng.below(2) == 1).then(|| arb_string(&mut rng));
            let mut buf = Vec::new();
            encode_request_frame(&mut buf, seed, &req, ctx, tenant.as_deref());
            let Frame::Request { corr, body } = decode_frame(&buf).unwrap() else {
                panic!("not a request frame");
            };
            prop_assert_eq!(corr, seed);
            let decoded = decode_request_body(corr, body).unwrap();
            prop_assert_eq!(decoded.ctx, ctx);
            prop_assert_eq!(decoded.tenant, tenant);
            // Binary round trip, compared through `to_value()`.
            let via_binary = serde_json::to_string(&decoded.req.to_value()).unwrap();
            let direct = serde_json::to_string(&req.to_value()).unwrap();
            prop_assert_eq!(via_binary, direct);
            // The serde derives describe the same value.
            let via_json: Request =
                serde_json::from_slice(&serde_json::to_vec(&req).unwrap()).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&via_json.to_value()).unwrap(),
                serde_json::to_string(&req.to_value()).unwrap()
            );
        }

        #[test]
        fn prop_response_binary_roundtrip_and_json_agreement(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let resp = arb_response(&mut rng);
            let mut buf = Vec::new();
            encode_response_frame(&mut buf, seed ^ 0xABCD, &resp);
            let Frame::Response { corr, body } = decode_frame(&buf).unwrap() else {
                panic!("not a response frame");
            };
            prop_assert_eq!(corr, seed ^ 0xABCD);
            let decoded = decode_response_body(body).unwrap();
            // Binary round trip, compared through `to_value()`.
            let via_binary = serde_json::to_string(&decoded.to_value()).unwrap();
            let direct = serde_json::to_string(&resp.to_value()).unwrap();
            prop_assert_eq!(via_binary, direct);
            // The serde derives describe the same value.
            let via_json: Response =
                serde_json::from_slice(&serde_json::to_vec(&resp).unwrap()).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&via_json.to_value()).unwrap(),
                serde_json::to_string(&resp.to_value()).unwrap()
            );
        }

        #[test]
        fn prop_decoder_never_panics_on_corrupt_bytes(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let resp = arb_response(&mut rng);
            let mut buf = Vec::new();
            encode_response_frame(&mut buf, 1, &resp);
            // Flip a few bytes and truncate: the decoder must return a typed
            // error or a (different) value — never panic or overrun.
            for _ in 0..4 {
                let at = rng.below(buf.len() as u64) as usize;
                buf[at] ^= rng.next_u64() as u8;
            }
            let cut = rng.below(buf.len() as u64 + 1) as usize;
            let sliced = &buf[..cut];
            if let Ok(Frame::Response { body, .. }) = decode_frame(sliced) {
                let _ = decode_response_body(body);
            }
            if let Ok(Frame::Request { corr, body }) = decode_frame(sliced) {
                let _ = decode_request_body(corr, body);
            }
        }
    }
}
