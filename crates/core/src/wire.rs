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
//! A body is its variant's tag byte, then its fields in declaration order
//! (see `protocol.rs`), each written by its type's `Field` impl:
//! little-endian fixed-width scalars, `u32`-length-prefixed strings, byte
//! slices and vectors, and a `0`/`1` byte before an optional value. Integer
//! observations are width-tagged runs (the narrowest of 1, 2, 4 or 8 bytes
//! that fits every element, decoded element by element), and ProGraML
//! graphs carry width-tagged edge endpoints. Decoding reads borrowed
//! `&[u8]`/`&str` views out of the frame buffer ([`WireReader`]) and copies
//! only into the owned values it returns; encoding appends into a
//! caller-owned scratch buffer reused across frames.

use std::sync::Arc;

use cg_llvm::observation::{EdgeKind, GraphNode, NodeKind};
use cg_telemetry::TraceContext;

use crate::budget::{BudgetKind, BudgetViolation, ResourceBudget};
use crate::service::{Request, Response};
use crate::session::SessionSnapshot;
use crate::space::{
    ActionSpaceInfo, Observation, ObservationKind, ObservationSpaceInfo, ProgramGraph,
    RewardSpaceInfo,
};

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

    /// A length-prefixed byte slice, borrowed from the frame.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = u32::read(self)? as usize;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the frame.
    fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).or_else(|e| err(format!("invalid UTF-8 in string: {e}")))
    }

    /// A count, and a vector to decode that many elements into. Its
    /// pre-allocation is capped at what the rest of the frame could hold
    /// at `width` bytes an element, so a hostile count cannot OOM the
    /// server.
    fn vec_for<T>(&mut self, width: usize) -> Result<(usize, Vec<T>), WireError> {
        let n = u32::read(self)? as usize;
        Ok((n, Vec::with_capacity(n.min(self.remaining() / width + 1))))
    }
}

fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    (v.len() as u32).put(buf);
    buf.extend_from_slice(v);
}

/// A value with a `CGB1` encoding. The request and response codecs are
/// built from these, one impl per field type.
pub(crate) trait Field: Sized {
    /// Appends the encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Reads one value.
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

macro_rules! le_field {
    ($($T:ty),*) => {$(
        impl Field for $T {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let raw = r.take(std::mem::size_of::<$T>())?;
                Ok(<$T>::from_le_bytes(raw.try_into().expect("took its size")))
            }
        }
    )*};
}

le_field!(u8, u16, u32, u64, f32, f64);

impl Field for usize {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(u64::read(r)? as usize)
    }
}

impl Field for bool {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::read(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => err(format!("bad bool {t}")),
        }
    }
}

impl Field for String {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str().map(str::to_owned)
    }
}

/// The same bytes as a `String`: sharing is not on the wire, and a decoded
/// label is a fresh allocation.
impl Field for Arc<str> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str().map(Arc::from)
    }
}

impl<T: Field> Field for Vec<T> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for x in self {
            x.put(buf);
        }
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // No more memory up front than the frame's own remaining bytes.
        let (n, mut out) = r.vec_for(std::mem::size_of::<T>().max(1))?;
        for _ in 0..n {
            out.push(T::read(r)?);
        }
        Ok(out)
    }
}

impl<T: Field> Field for Option<T> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(x) => {
                buf.push(1);
                x.put(buf);
            }
        }
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::read(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r)?)),
            t => err(format!("bad option tag {t}")),
        }
    }
}

impl Field for SessionSnapshot {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.to_bytes());
    }
    #[inline]
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SessionSnapshot::from_bytes(r.bytes()?.to_owned()))
    }
}

/// `Field` for a struct: its fields in order.
macro_rules! record {
    ($($T:ident { $($f:ident),* })*) => {$(
        impl Field for $T {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$f.put(buf);)*
            }
            #[inline]
            fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok($T { $($f: Field::read(r)?),* })
            }
        }

        #[cfg(test)]
        impl tests::Arb for $T {
            fn arb(rng: &mut proptest::TestRng) -> Self {
                $T { $($f: tests::Arb::arb(rng)),* }
            }
        }
    )*};
}

record! {
    ActionSpaceInfo { name, actions }
    ObservationSpaceInfo { name, kind, deterministic, platform_dependent }
    RewardSpaceInfo { name, metric, sign, baseline, deterministic }
    ResourceBudget { wall_us, max_state_size, max_growth, interp_fuel }
    BudgetViolation { kind, limit, observed, detail }
    GraphNode { kind, label, opcode }
    TraceContext { trace_id, span_id }
}

/// `Field` for a fieldless enum: one tag byte.
macro_rules! tags {
    ($($T:ident { $($V:ident = $tag:literal),* })*) => {$(
        impl Field for $T {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.push(match self { $($T::$V => $tag),* });
            }
            #[inline]
            fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                match u8::read(r)? {
                    $($tag => Ok($T::$V),)*
                    t => err(format!("unknown {} tag {t}", stringify!($T))),
                }
            }
        }

        #[cfg(test)]
        impl tests::Arb for $T {
            fn arb(rng: &mut proptest::TestRng) -> Self {
                let all = [$($T::$V),*];
                all[rng.below(all.len() as u64) as usize]
            }
        }
    )*};
}

tags! {
    ObservationKind { Text = 0, IntVector = 1, FloatVector = 2, Scalar = 3, Graph = 4, Bytes = 5 }
    BudgetKind { Wall = 0, Growth = 1 }
    NodeKind { Instruction = 0, Variable = 1, Constant = 2, Function = 3 }
    EdgeKind { Control = 0, Data = 1, Call = 2 }
}

/// Integer vectors are width-tagged runs: a count, a width byte (1, 2, 4
/// or 8), then the values as sign-extended little-endian integers of that
/// width. Most feature vectors (instruction counts, Autophase) are small
/// counts, so narrowing beats a fixed 8-byte lane by 4x on typical
/// payloads.
impl Field for Observation {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Observation::Text(t) => {
                buf.push(0);
                t.put(buf);
            }
            Observation::IntVector(v) => {
                buf.push(1);
                (v.len() as u32).put(buf);
                let width = v.iter().map(|&x| int_width(x)).max().unwrap_or(1);
                buf.push(width as u8);
                buf.reserve(v.len() * width);
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes()[..width]);
                }
            }
            Observation::FloatVector(v) => {
                buf.push(2);
                v.put(buf);
            }
            Observation::Scalar(x) => {
                buf.push(3);
                x.put(buf);
            }
            Observation::Graph(g) => {
                buf.push(4);
                g.put(buf);
            }
            Observation::Bytes(b) => {
                buf.push(5);
                put_bytes(buf, b);
            }
        }
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::read(r)? {
            0 => Observation::Text(String::read(r)?),
            1 => {
                let n = u32::read(r)? as usize;
                let width = u8::read(r)? as usize;
                if !matches!(width, 1 | 2 | 4 | 8) {
                    return err(format!("bad int run width {width}"));
                }
                let len = n.checked_mul(width);
                let raw = r.take(len.ok_or(WireError("run overflow".into()))?)?;
                let run = raw.chunks_exact(width).map(|x| match *x {
                    [a] => i64::from(a as i8),
                    [a, b] => i64::from(i16::from_le_bytes([a, b])),
                    [a, b, c, d] => i64::from(i32::from_le_bytes([a, b, c, d])),
                    _ => i64::from_le_bytes(x.try_into().expect("an 8-byte chunk")),
                });
                Observation::IntVector(run.collect())
            }
            2 => Observation::FloatVector(Vec::read(r)?),
            3 => Observation::Scalar(f64::read(r)?),
            4 => Observation::Graph(ProgramGraph::read(r)?),
            5 => Observation::Bytes(r.bytes()?.to_owned()),
            t => return err(format!("unknown observation tag {t}")),
        })
    }
}

/// The narrowest of 1, 2, 4 and 8 bytes that holds `x` sign-extended.
fn int_width(x: i64) -> usize {
    if i64::from(x as i8) == x {
        1
    } else if i64::from(x as i16) == x {
        2
    } else if i64::from(x as i32) == x {
        4
    } else {
        8
    }
}

/// ProGraML graphs are encoded natively (5 bytes per edge on graphs under
/// 64k nodes, a tag byte plus label per node) rather than as embedded JSON:
/// graphs are the bulkiest routinely-shipped observation, and the JSON form
/// spends ~5× the bytes on key names and quoted edge kinds. Edge endpoints
/// are width-tagged — 2-byte indices when the node count fits `u16`, 4-byte
/// otherwise — since per-function graphs rarely clear a few thousand nodes.
/// Every endpoint names one of the graph's nodes: the decoder refuses a
/// graph with an edge past its node list.
impl Field for ProgramGraph {
    fn put(&self, buf: &mut Vec<u8>) {
        self.nodes.put(buf);
        (self.edges.len() as u32).put(buf);
        let wide = self.nodes.len() > usize::from(u16::MAX);
        buf.push(if wide { 4 } else { 2 });
        buf.reserve(self.edges.len() * if wide { 9 } else { 5 });
        for (src, dst, kind) in &self.edges {
            debug_assert!(
                (*src as usize) < self.nodes.len() && (*dst as usize) < self.nodes.len(),
                "edge ({src}, {dst}) past {} nodes",
                self.nodes.len()
            );
            if wide {
                src.put(buf);
                dst.put(buf);
            } else {
                (*src as u16).put(buf);
                (*dst as u16).put(buf);
            }
            kind.put(buf);
        }
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nodes: Vec<GraphNode> = Vec::read(r)?;
        let (n, mut edges) = r.vec_for(5)?;
        let width = u8::read(r)?;
        if !matches!(width, 2 | 4) {
            return err(format!("bad edge index width {width}"));
        }
        for _ in 0..n {
            let (src, dst) = if width == 4 {
                (u32::read(r)?, u32::read(r)?)
            } else {
                (u16::read(r)?.into(), u16::read(r)?.into())
            };
            if src.max(dst) as usize >= nodes.len() {
                return err(format!(
                    "edge ({src}, {dst}) past the graph's {} nodes",
                    nodes.len()
                ));
            }
            edges.push((src, dst, EdgeKind::read(r)?));
        }
        Ok(ProgramGraph { nodes, edges })
    }
}

fn header(buf: &mut Vec<u8>, kind: u8, corr: u64) {
    buf.clear();
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.push(kind);
    corr.put(buf);
}

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
        ctx.put(buf);
    }
    if let Some(tenant) = tenant {
        put_bytes(buf, tenant.as_bytes());
    }
    req.put(buf);
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
    let flags = u8::read(&mut r)?;
    let ctx = (flags & META_TRACE != 0)
        .then(|| TraceContext::read(&mut r))
        .transpose()?;
    let tenant = (flags & META_TENANT != 0)
        .then(|| String::read(&mut r))
        .transpose()?;
    let req = Request::read(&mut r)?;
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

/// Encodes a response frame into `buf` (cleared first), echoing the
/// request's correlation id.
pub fn encode_response_frame(buf: &mut Vec<u8>, corr: u64, resp: &Response) {
    let timer = cg_telemetry::Timer::start();
    header(buf, KIND_RESPONSE, corr);
    resp.put(buf);
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
    let resp = Response::read(&mut r)?;
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after response", r.remaining()));
    }
    cg_telemetry::global()
        .wire
        .decode_wall
        .record_duration(timer.elapsed());
    Ok(resp)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeSet;

    /// A random value of a protocol field type, for the property tests.
    /// `protocol!`, `record!` and `tags!` derive it for what they declare;
    /// the leaves, `Observation` and the types with an invariant are
    /// written here.
    pub(crate) trait Arb {
        fn arb(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_bits {
        ($($T:ty),*) => {$(
            impl Arb for $T {
                fn arb(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $T
                }
            }
        )*};
    }

    arb_bits!(u8, u32, u64, usize);

    impl Arb for i64 {
        /// Every magnitude, so integer runs take every width.
        fn arb(rng: &mut TestRng) -> Self {
            (rng.next_u64() as i64) >> rng.below(64)
        }
    }

    impl Arb for bool {
        fn arb(rng: &mut TestRng) -> Self {
            rng.below(2) == 1
        }
    }

    /// Finite, so that a decoded value equals the encoded one.
    impl Arb for f32 {
        fn arb(rng: &mut TestRng) -> Self {
            Some(f32::from_bits(rng.next_u64() as u32))
                .filter(|f| f.is_finite())
                .unwrap_or(0.5)
        }
    }

    /// Finite, so that a decoded value equals the encoded one.
    impl Arb for f64 {
        fn arb(rng: &mut TestRng) -> Self {
            (rng.next_u64() as i64 as f64) / 7.0
        }
    }

    impl Arb for String {
        /// ASCII mixed with multi-byte and escape-hostile characters.
        fn arb(rng: &mut TestRng) -> Self {
            (0..rng.below(20))
                .map(|_| match rng.below(6) {
                    0 => '\n',
                    1 => '"',
                    2 => '\\',
                    3 => 'λ',
                    _ => (b'a' + rng.below(26) as u8) as char,
                })
                .collect()
        }
    }

    impl Arb for Arc<str> {
        fn arb(rng: &mut TestRng) -> Self {
            String::arb(rng).into()
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb(rng: &mut TestRng) -> Self {
            (0..rng.below(6)).map(|_| T::arb(rng)).collect()
        }
    }

    impl<T: Arb> Arb for Option<T> {
        fn arb(rng: &mut TestRng) -> Self {
            (rng.below(2) == 1).then(|| T::arb(rng))
        }
    }

    impl Arb for SessionSnapshot {
        fn arb(rng: &mut TestRng) -> Self {
            SessionSnapshot::from_bytes(Arb::arb(rng))
        }
    }

    impl Arb for Observation {
        fn arb(rng: &mut TestRng) -> Self {
            match rng.below(6) {
                0 => Observation::Text(Arb::arb(rng)),
                1 => Observation::IntVector(Arb::arb(rng)),
                2 => Observation::FloatVector(Arb::arb(rng)),
                3 => Observation::Scalar(Arb::arb(rng)),
                4 => Observation::Graph(Arb::arb(rng)),
                _ => Observation::Bytes(Arb::arb(rng)),
            }
        }
    }

    /// Every edge joins two of the graph's nodes.
    impl Arb for ProgramGraph {
        fn arb(rng: &mut TestRng) -> Self {
            let nodes: Vec<GraphNode> = Arb::arb(rng);
            let n = nodes.len() as u64;
            let edges = (0..if n == 0 { 0 } else { rng.below(20) })
                .map(|_| (rng.below(n) as u32, rng.below(n) as u32, EdgeKind::arb(rng)))
                .collect();
            ProgramGraph { nodes, edges }
        }
    }

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
                    wall_us: Some(1000),
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

    #[test]
    fn samples_cover_every_declared_kind() {
        fn kinds<'a>(kinds: impl Iterator<Item = &'a str>) -> BTreeSet<&'a str> {
            kinds.collect()
        }
        assert_eq!(
            kinds(sample_requests().iter().map(Request::kind)),
            kinds(Request::DECLARED.iter().map(|(kind, _)| *kind)),
        );
        assert_eq!(
            kinds(sample_responses().iter().map(Response::kind)),
            kinds(Response::DECLARED.iter().map(|(kind, _)| *kind)),
        );
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
        assert_eq!(&decoded.req, req);
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
            assert_eq!(&decode_response_body(body).unwrap(), resp);
        }
    }

    /// The `CGB1` bytes of every sample request, bare and then with a
    /// trace context and a tenant.
    const GOLDEN_REQUESTS: &[&str] = &[
        "c9474231024d000000000000000000",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d6100",
        "c9474231024d000000000000000001",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d6101",
        "c9474231024d0000000000000000021b00000062656e63686d61726b3a2f2f6362656e63682d76312f63726333320100000000000000",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d61021b00000062656e63686d61726b3a2f2f6362656e63682d76312f63726333320100000000000000",
        "c9474231024d0000000000000000032a000000000000000300000000000000000000000700000000000000ffffffffffffffff02000000090000004175746f7068617365020000004972",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d61032a000000000000000300000000000000000000000700000000000000ffffffffffffffff02000000090000004175746f7068617365020000004972",
        "c9474231024d0000000000000000040300000000000000",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d61040300000000000000",
        "c9474231024d0000000000000000050900000000000000",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d61050900000000000000",
        "c9474231024d0000000000000000060100000062000000000000000003000000010000000000000002000000000000000300000000000000040000000001ff80",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d61060100000062000000000000000003000000010000000000000002000000000000000300000000000000040000000001ff80",
        "c9474231024d00000000000000000a0100000062010000000000000003000000040000000000000000000000000000000400000000000000",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d610a0100000062010000000000000003000000040000000000000000000000000000000400000000000000",
        "c9474231024d0000000000000000070b00000000000000",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d61070b00000000000000",
        "c9474231024d00000000000000000801e8030000000000000001000000000000f83f01ffffffffffffffff",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d610801e8030000000000000001000000000000f83f01ffffffffffffffff",
        "c9474231024d000000000000000009",
        "c9474231024d0000000000000003ffffffffffffffff39300000000000000800000074656e616e742d6109",
    ];

    /// The `CGB1` bytes of every sample response.
    const GOLDEN_RESPONSES: &[&str] = &[
        "c947423103ffffffffffffffff00",
        "c947423103ffffffffffffffff01010000000c00000050617373506970656c696e6502000000070000006d656d327265670300000067766e01000000090000004175746f706861736501010001000000140000004972496e737472756374696f6e436f756e744f7a120000004972496e737472756374696f6e436f756e74000000000000f03f01140000004972496e737472756374696f6e436f756e744f7a01",
        "c947423103ffffffffffffffff021100000000000000",
        "c947423103ffffffffffffffff03010006000000001f000000646566696e652069333220406628290a20207265742c202271756f746564220105000000080000000000000080ffffffffffffffff00000000000000000100000000000000ffffffffffffff7f0203000000344dd33d0000e8c0ffff7f7f030000000000707e40040200000000030000006164640d0000000102000000257800000000020000000200000100010100000000050400000000ff8007",
        "c947423103ffffffffffffffff040500000000000000",
        "c947423103ffffffffffffffff0b0c000000000000001400000000000000",
        "c947423103ffffffffffffffff05",
        "c947423103ffffffffffffffff0600",
        "c947423103ffffffffffffffff060103000000090807",
        "c947423103ffffffffffffffff070119000000000000001e000000000000000a00000073746174652067726577",
        "c947423103ffffffffffffffff08640000000000000018000000636f6e6e656374696f6e2063617020312072656163686564",
        "c947423103ffffffffffffffff090c0000006e6f2073657373696f6e2033",
        "c947423103ffffffffffffffff0a1200000073657373696f6e20332070616e69636b6564",
    ];

    /// The samples encode to exactly these bytes. They change only with a
    /// new `WIRE_VERSION`: a peer of this version decodes them as they are.
    #[test]
    fn sample_frames_match_their_golden_bytes() {
        fn hex(frame: &[u8]) -> String {
            frame.iter().map(|b| format!("{b:02x}")).collect()
        }
        let ctx = Some(TraceContext {
            trace_id: u64::MAX,
            span_id: 12345,
        });
        let mut buf = Vec::new();
        let mut requests = Vec::new();
        for req in &sample_requests() {
            encode_request_frame(&mut buf, 77, req, None, None);
            requests.push(hex(&buf));
            encode_request_frame(&mut buf, 77, req, ctx, Some("tenant-a"));
            requests.push(hex(&buf));
        }
        assert_eq!(requests, GOLDEN_REQUESTS);
        let mut responses = Vec::new();
        for resp in &sample_responses() {
            encode_response_frame(&mut buf, u64::MAX, resp);
            responses.push(hex(&buf));
        }
        assert_eq!(responses, GOLDEN_RESPONSES);
        assert_eq!((WIRE_MAGIC, WIRE_VERSION), ([0xC9, b'G', b'B', b'1'], 1));
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

    /// A graph whose edge names a node it does not have is a typed error,
    /// not a graph that panics the client that indexes it.
    #[test]
    fn graph_edges_past_the_node_list_are_refused() {
        let node = |label: &str| GraphNode {
            kind: NodeKind::Variable,
            label: label.into(),
            opcode: 0,
        };
        let graph = |edges| {
            Observation::Graph(ProgramGraph {
                nodes: vec![node("%0"), node("%1")],
                edges,
            })
        };
        let mut buf = Vec::new();
        graph(vec![(0, 1, EdgeKind::Data)]).put(&mut buf);
        // The last edge's target is the third byte from the end (u16 LE,
        // then the kind byte); point it at node 2.
        let at = buf.len() - 3;
        assert_eq!(buf[at..], [1, 0, 1]);
        buf[at] = 2;
        let e = Observation::read(&mut WireReader::new(&buf)).unwrap_err();
        assert!(e.0.contains("edge (0, 2) past the graph's 2 nodes"), "{e}");
        buf[at] = 1;
        assert_eq!(
            Observation::read(&mut WireReader::new(&buf)).unwrap(),
            graph(vec![(0, 1, EdgeKind::Data)])
        );
    }

    /// stdb observation records are this JSON, so a store written before
    /// labels were shared opens unchanged: the sample graph's JSON is
    /// pinned, and reads back equal.
    #[test]
    fn sample_graph_json_is_pinned() {
        const PINNED: &str = r#"{"Graph":{"nodes":[{"kind":"Instruction","label":"add","opcode":13},{"kind":"Variable","label":"%x","opcode":0}],"edges":[[0,1,"Data"],[1,0,"Control"]]}}"#;
        let Response::Stepped { observations, .. } = &sample_responses()[3] else {
            panic!("sample 3 is a step reply");
        };
        let graph = &observations[4];
        assert!(matches!(graph, Observation::Graph(_)));
        assert_eq!(serde_json::to_string(graph).unwrap(), PINNED);
        assert_eq!(&serde_json::from_str::<Observation>(PINNED).unwrap(), graph);
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn prop_request_binary_roundtrip(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let req = Request::arb(&mut rng);
            let ctx = Option::<TraceContext>::arb(&mut rng);
            let tenant = Option::<String>::arb(&mut rng);
            let mut buf = Vec::new();
            encode_request_frame(&mut buf, seed, &req, ctx, tenant.as_deref());
            let Frame::Request { corr, body } = decode_frame(&buf).unwrap() else {
                panic!("not a request frame");
            };
            prop_assert_eq!(corr, seed);
            let decoded = decode_request_body(corr, body).unwrap();
            prop_assert_eq!(decoded.ctx, ctx);
            prop_assert_eq!(decoded.tenant, tenant);
            prop_assert_eq!(decoded.req, req);
        }

        #[test]
        fn prop_response_binary_roundtrip(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let resp = Response::arb(&mut rng);
            let mut buf = Vec::new();
            encode_response_frame(&mut buf, seed ^ 0xABCD, &resp);
            let Frame::Response { corr, body } = decode_frame(&buf).unwrap() else {
                panic!("not a response frame");
            };
            prop_assert_eq!(corr, seed ^ 0xABCD);
            prop_assert_eq!(decode_response_body(body).unwrap(), resp);
        }

        #[test]
        fn prop_decoder_never_panics_on_corrupt_bytes(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let resp = Response::arb(&mut rng);
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
