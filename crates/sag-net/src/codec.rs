//! The SAG wire codec: length-prefixed, CRC-checked binary frames carrying
//! the service's [`Request`]/[`Response`] enums.
//!
//! ## Framing
//!
//! Every message travels in one frame, mirroring the WAL record layout
//! (`sag-wal` proved the idiom under crash injection):
//!
//! ```text
//! Frame   := len:u32le crc:u32le payload[len]
//! ```
//!
//! `crc` is the [`sag_wal::crc32`] of the payload. `len` is bounded by
//! [`MAX_FRAME`]; an oversized length is rejected *before* any allocation,
//! so a corrupt or hostile peer cannot make the server reserve gigabytes.
//!
//! A client connection opens with a 6-byte handshake — [`MAGIC`]
//! (`"SAGN"`, little-endian) then [`VERSION`] as `u16le` — letting the
//! server tell protocol peers apart from stray HTTP requests (anything
//! starting with `"GET "` is served the plaintext metrics page instead).
//!
//! ## Payloads
//!
//! All integers little-endian; `f64` as IEEE-754 bits via
//! [`f64::to_bits`], so utilities round-trip **bitwise** — the loopback
//! integration test compares decoded [`CycleResult`]s with `==`, not with
//! an epsilon. Strings are `u16le` length + UTF-8 bytes; longer error text
//! is cut at a char boundary to fit. Alerts use the 9-byte shape of
//! [`sag_sim::binary`] (person references are not serialized; the game
//! consumes only time, type and ground truth).
//!
//! Since protocol version 2 every request travels inside an idempotency
//! envelope — `request_id:u64le tenant:str` — and every reply echoes the
//! id of the request it answers. Ids are per-tenant, client-assigned,
//! monotonically increasing from 1 (0 is the untagged sentinel); a
//! redelivered id is answered from the server's dedup window instead of
//! re-applied, and the echoed id lets a client discard duplicate replies
//! its own retries provoked. Replies to frames that never decoded far
//! enough to carry an id echo id 0.
//!
//! ```text
//! Request  := id:u64 tenant:str body
//! body     := 1 tenant:str flags:u8 [day:u32] [budget:f64]   (OpenDay)
//!           | 2 session:u64 day:u32 secs:u32 type:u16 att:u8 (PushAlert)
//!           | 3 session:u64                                  (FinishDay)
//! Reply    := id:u64 answer
//! answer   := 1 session:u64 tenant:str                       (DayOpened)
//!           | 2 session:u64 outcome                          (Decision)
//!           | 3 session:u64 tenant:str result                (DayClosed)
//!           | 4 code:u8 ...                                  (WireError)
//! ```
//!
//! Decoding is **total**: truncated, oversized, corrupt or trailing bytes
//! yield a structured [`CodecError`], never a panic — the property tests
//! drive arbitrary mutations through the decoder to hold that line.

use bytes::{BufMut, Bytes, BytesMut};
use sag_core::sse::{SseSolveStats, SseTotals};
use sag_core::{AlertOutcome, CycleResult, SignalingScheme};
use sag_service::{Request, Response, ServiceError, SessionId, TenantId};
use sag_sim::{Alert, AlertTypeId, TimeOfDay};
use sag_wal::crc32;
use std::fmt;
use std::io::{Read, Write};

/// Handshake magic: `"SAGN"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SAGN");

/// Wire protocol version carried in the handshake. Version 2 added the
/// idempotency envelope (request ids on every request, echoed on every
/// reply); version 3 dropped the wall-clock solve time and the always-zero
/// warm-start, pruning and ε counters from every encoded outcome. Peers of
/// any other version are refused with a structured `BadRequest`.
pub const VERSION: u16 = 3;

/// Hard ceiling on one frame's payload length (16 MiB, matching the WAL's
/// record bound). Checked before allocating.
pub const MAX_FRAME: usize = 1 << 24;

/// Why a payload (or frame) could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A frame announced a payload longer than [`MAX_FRAME`].
    Oversized {
        /// The announced payload length.
        len: usize,
    },
    /// The payload bytes do not hash to the frame's CRC.
    Corrupt {
        /// CRC carried by the frame header.
        expected: u32,
        /// CRC of the payload actually received.
        actual: u32,
    },
    /// The handshake did not start with [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a protocol version this build does not.
    BadVersion(u16),
    /// Unknown request/response discriminant.
    UnknownKind(u8),
    /// Unknown error-code discriminant inside an error reply.
    UnknownErrorCode(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The payload decoded cleanly but left unread bytes behind — a codec
    /// drift between peers, surfaced loudly instead of ignored.
    TrailingBytes(usize),
    /// A reply echoed a request id *ahead* of the oldest in-flight request
    /// — the server answered something this client never sent. Replies
    /// behind the expected id are skipped as redeliveries; ahead means the
    /// streams have desynchronised, which no retry can repair.
    BadReplyId {
        /// The id the reply carried.
        got: u64,
        /// The oldest id the client was still waiting on.
        expected: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame payload is truncated"),
            CodecError::Oversized { len } => {
                write!(f, "frame announces {len} bytes (max {MAX_FRAME})")
            }
            CodecError::Corrupt { expected, actual } => {
                write!(
                    f,
                    "frame CRC mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
            CodecError::BadMagic(m) => write!(f, "bad handshake magic {m:#010x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            CodecError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            CodecError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete message")
            }
            CodecError::BadReplyId { got, expected } => {
                write!(
                    f,
                    "reply for request id {got} while still waiting on {expected}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Transport-level failure: an I/O error, a deadline expiring, or a
/// structured codec error.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed.
    Io(std::io::Error),
    /// A configured connect/read/write deadline expired before the peer
    /// responded.
    Timeout {
        /// Which operation timed out (`"connect"`, `"read"`, `"write"`).
        op: &'static str,
    },
    /// The bytes arrived but do not parse.
    Codec(CodecError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Timeout { op } => write!(f, "{op} timed out"),
            NetError::Codec(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Timeout { .. } => None,
            NetError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        // With `SO_RCVTIMEO`/`SO_SNDTIMEO` armed, an expired deadline
        // surfaces as `WouldBlock` (Unix) or `TimedOut` (Windows; also
        // `connect_timeout`). Both mean the same thing to a caller: the
        // peer did not answer in time, and the request is retryable.
        match e.kind() {
            std::io::ErrorKind::WouldBlock => NetError::Timeout { op: "read" },
            std::io::ErrorKind::TimedOut => NetError::Timeout { op: "read" },
            _ => NetError::Io(e),
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// A [`ServiceError`] flattened for the wire.
///
/// Engine and WAL causes carry rich structured payloads in-process; on the
/// wire they travel as their rendered messages — a remote client can match
/// the *category* exactly (and retry on [`Overloaded`](Self::Overloaded))
/// but debugging detail stays human-readable text.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The request named a tenant the service has never registered.
    UnknownTenant(String),
    /// The request named a session that is not open.
    UnknownSession(u64),
    /// The tenant's inbound queue is full; the request was shed before
    /// touching session state and can be retried once the backlog drains.
    Overloaded {
        /// Tenant whose queue is full.
        tenant: String,
        /// Requests already pending for the tenant.
        pending: u64,
        /// The configured bound that would have been exceeded.
        limit: u64,
    },
    /// The engine rejected the operation, or the server could not frame
    /// its reply (the message says which).
    Engine(String),
    /// The durability layer rejected the operation (nothing was applied).
    Wal(String),
    /// The server could not decode the request frame.
    BadRequest(String),
    /// The request id was applied so long ago its cached reply fell out of
    /// the server's dedup window. Nothing was re-applied; a client whose
    /// ids are assigned by [`crate::Client`] never sees this.
    Stale {
        /// The duplicate id the server refused to re-apply.
        request_id: u64,
        /// The highest id the server has applied for this tenant.
        last_applied: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            WireError::UnknownSession(s) => write!(f, "no open session session#{s}"),
            WireError::Overloaded {
                tenant,
                pending,
                limit,
            } => write!(
                f,
                "tenant {tenant} overloaded: {pending} requests pending (limit {limit}); retry later"
            ),
            WireError::Engine(m) => write!(f, "engine error: {m}"),
            WireError::Wal(m) => write!(f, "durability error: {m}"),
            WireError::BadRequest(m) => write!(f, "bad request: {m}"),
            WireError::Stale {
                request_id,
                last_applied,
            } => write!(
                f,
                "request id {request_id} fell out of the dedup window (last applied {last_applied})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<&ServiceError> for WireError {
    fn from(e: &ServiceError) -> Self {
        match e {
            ServiceError::UnknownTenant(t) => WireError::UnknownTenant(t.as_str().to_owned()),
            // A duplicate registration cannot reach the wire (registration
            // happens at build time), but the mapping must stay total.
            ServiceError::DuplicateTenant(t) => {
                WireError::BadRequest(format!("tenant {t} is already registered"))
            }
            ServiceError::UnknownSession(s) => WireError::UnknownSession(s.raw()),
            ServiceError::Overloaded {
                tenant,
                pending,
                limit,
            } => WireError::Overloaded {
                tenant: tenant.as_str().to_owned(),
                pending: *pending as u64,
                limit: *limit as u64,
            },
            ServiceError::Engine(e) => WireError::Engine(e.to_string()),
            ServiceError::Wal(e) => WireError::Wal(e.to_string()),
            // `ServiceError` is `#[non_exhaustive]`: future categories fall
            // back to their rendered message rather than failing to encode.
            other => WireError::BadRequest(other.to_string()),
        }
    }
}

/// A server reply as decoded by a client: the service's answer or a
/// structured wire error.
pub type Reply = Result<Response, WireError>;

// --- checked little-endian reader -------------------------------------------

/// Cursor over a payload with bounds-checked reads ([`bytes`]' `get_*`
/// panic on underflow; a network decoder must not).
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Decoding must consume the payload exactly.
    fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Write `s` behind its `u16le` length. Tenant ids arrive through that
/// prefix, so only composed error text can be longer; it is cut at the
/// last char boundary within `u16::MAX` bytes.
fn put_str(buf: &mut BytesMut, s: &str) {
    let mut len = s.len().min(usize::from(u16::MAX));
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    buf.put_u16_le(len as u16);
    buf.put_slice(&s.as_bytes()[..len]);
}

// --- requests ---------------------------------------------------------------

const REQ_OPEN_DAY: u8 = 1;
const REQ_PUSH_ALERT: u8 = 2;
const REQ_FINISH_DAY: u8 = 3;

const OPEN_HAS_DAY: u8 = 1 << 0;
const OPEN_HAS_BUDGET: u8 = 1 << 1;

/// Encode a request payload inside its idempotency envelope (framing is
/// [`write_frame`]'s job). `request_id` is the per-tenant monotonically
/// increasing id the reply will echo; `tenant` is the tenant the id is
/// scoped to (for `OpenDay` it must match the body's tenant).
#[must_use]
pub fn encode_request(request_id: u64, tenant: &TenantId, request: &Request) -> Bytes {
    let mut buf = BytesMut::with_capacity(48);
    buf.put_u64_le(request_id);
    put_str(&mut buf, tenant.as_str());
    match request {
        Request::OpenDay {
            tenant,
            budget,
            day,
        } => {
            buf.put_u8(REQ_OPEN_DAY);
            put_str(&mut buf, tenant.as_str());
            let mut flags = 0u8;
            if day.is_some() {
                flags |= OPEN_HAS_DAY;
            }
            if budget.is_some() {
                flags |= OPEN_HAS_BUDGET;
            }
            buf.put_u8(flags);
            if let Some(day) = day {
                buf.put_u32_le(*day);
            }
            if let Some(budget) = budget {
                buf.put_u64_le(budget.to_bits());
            }
        }
        Request::PushAlert { session, alert } => {
            buf.put_u8(REQ_PUSH_ALERT);
            buf.put_u64_le(session.raw());
            buf.put_u32_le(alert.day);
            buf.put_u32_le(alert.time.seconds());
            buf.put_u16_le(alert.type_id.0);
            buf.put_u8(u8::from(alert.is_attack));
        }
        Request::FinishDay { session } => {
            buf.put_u8(REQ_FINISH_DAY);
            buf.put_u64_le(session.raw());
        }
    }
    buf.freeze()
}

/// Decode a request payload into `(request_id, envelope tenant, request)`.
///
/// # Errors
///
/// Structured [`CodecError`] on any malformed input; never panics.
pub fn decode_request(payload: &[u8]) -> Result<(u64, TenantId, Request), CodecError> {
    let mut r = Reader::new(payload);
    let request_id = r.u64()?;
    let envelope_tenant = TenantId::from(r.str()?);
    let request = match r.u8()? {
        REQ_OPEN_DAY => {
            let tenant = TenantId::from(r.str()?);
            let flags = r.u8()?;
            let day = if flags & OPEN_HAS_DAY != 0 {
                Some(r.u32()?)
            } else {
                None
            };
            let budget = if flags & OPEN_HAS_BUDGET != 0 {
                Some(r.f64()?)
            } else {
                None
            };
            Request::OpenDay {
                tenant,
                budget,
                day,
            }
        }
        REQ_PUSH_ALERT => {
            let session = SessionId::from_raw(r.u64()?);
            let day = r.u32()?;
            let seconds = r.u32()?;
            let type_id = AlertTypeId(r.u16()?);
            let is_attack = r.u8()? != 0;
            Request::PushAlert {
                session,
                alert: Alert {
                    day,
                    time: TimeOfDay::from_seconds(seconds),
                    type_id,
                    employee: None,
                    patient: None,
                    is_attack,
                },
            }
        }
        REQ_FINISH_DAY => Request::FinishDay {
            session: SessionId::from_raw(r.u64()?),
        },
        kind => return Err(CodecError::UnknownKind(kind)),
    };
    r.finish()?;
    Ok((request_id, envelope_tenant, request))
}

// --- replies ----------------------------------------------------------------

const REP_DAY_OPENED: u8 = 1;
const REP_DECISION: u8 = 2;
const REP_DAY_CLOSED: u8 = 3;
const REP_ERROR: u8 = 4;

const ERR_UNKNOWN_TENANT: u8 = 1;
const ERR_UNKNOWN_SESSION: u8 = 2;
const ERR_OVERLOADED: u8 = 3;
const ERR_ENGINE: u8 = 4;
const ERR_WAL: u8 = 5;
const ERR_BAD_REQUEST: u8 = 6;
const ERR_STALE: u8 = 7;

const OUTCOME_DETERRED: u8 = 1 << 0;
const OUTCOME_APPLIED: u8 = 1 << 1;

fn put_outcome(buf: &mut BytesMut, o: &AlertOutcome) {
    buf.put_u64_le(o.index as u64);
    buf.put_u32_le(o.day);
    buf.put_u32_le(o.time.seconds());
    buf.put_u16_le(o.type_id.0);
    for v in [
        o.ossp_utility,
        o.online_sse_utility,
        o.offline_sse_utility,
        o.ossp_attacker_utility,
        o.online_attacker_utility,
        o.ossp_scheme.p1,
        o.ossp_scheme.q1,
        o.ossp_scheme.p0,
        o.ossp_scheme.q0,
    ] {
        buf.put_u64_le(v.to_bits());
    }
    let mut flags = 0u8;
    if o.ossp_deterred {
        flags |= OUTCOME_DETERRED;
    }
    if o.ossp_applied {
        flags |= OUTCOME_APPLIED;
    }
    buf.put_u8(flags);
    for v in [
        o.coverage_ossp,
        o.coverage_online,
        o.budget_after_ossp,
        o.budget_after_online,
    ] {
        buf.put_u64_le(v.to_bits());
    }
    buf.put_u16_le(o.best_response.0);
    buf.put_u32_le(o.sse_stats.lp_solves);
    buf.put_u32_le(o.sse_stats.pivots);
    buf.put_u8(u8::from(o.sse_stats.fast_path));
}

fn read_outcome(r: &mut Reader<'_>) -> Result<AlertOutcome, CodecError> {
    let index = r.u64()? as usize;
    let day = r.u32()?;
    let time = TimeOfDay::from_seconds(r.u32()?);
    let type_id = AlertTypeId(r.u16()?);
    let ossp_utility = r.f64()?;
    let online_sse_utility = r.f64()?;
    let offline_sse_utility = r.f64()?;
    let ossp_attacker_utility = r.f64()?;
    let online_attacker_utility = r.f64()?;
    let ossp_scheme = SignalingScheme {
        p1: r.f64()?,
        q1: r.f64()?,
        p0: r.f64()?,
        q0: r.f64()?,
    };
    let flags = r.u8()?;
    let coverage_ossp = r.f64()?;
    let coverage_online = r.f64()?;
    let budget_after_ossp = r.f64()?;
    let budget_after_online = r.f64()?;
    let best_response = AlertTypeId(r.u16()?);
    let sse_stats = SseSolveStats {
        lp_solves: r.u32()?,
        pivots: r.u32()?,
        fast_path: r.u8()? != 0,
    };
    Ok(AlertOutcome {
        index,
        day,
        time,
        type_id,
        ossp_utility,
        online_sse_utility,
        offline_sse_utility,
        ossp_attacker_utility,
        online_attacker_utility,
        ossp_scheme,
        ossp_deterred: flags & OUTCOME_DETERRED != 0,
        ossp_applied: flags & OUTCOME_APPLIED != 0,
        coverage_ossp,
        coverage_online,
        best_response,
        budget_after_ossp,
        budget_after_online,
        sse_stats,
    })
}

fn put_result(buf: &mut BytesMut, result: &CycleResult) {
    buf.put_u32_le(result.day);
    buf.put_u32_le(result.outcomes.len() as u32);
    for o in &result.outcomes {
        put_outcome(buf, o);
    }
    buf.put_u64_le(result.offline_auditor_utility.to_bits());
    buf.put_u64_le(result.offline_attacker_utility.to_bits());
    buf.put_u32_le(result.offline_coverage.len() as u32);
    for c in &result.offline_coverage {
        buf.put_u64_le(c.to_bits());
    }
    let t = &result.sse_totals;
    for v in [
        t.solves,
        t.lp_solves,
        t.warm_attempts,
        t.warm_hits,
        t.pivots,
        t.fast_path_solves,
        t.pruned_lps,
        t.eps_skipped_lps,
    ] {
        buf.put_u64_le(v);
    }
    buf.put_u64_le(result.certified_eps_loss.to_bits());
}

fn read_result(r: &mut Reader<'_>) -> Result<CycleResult, CodecError> {
    let day = r.u32()?;
    let n = r.u32()? as usize;
    // Bound pre-allocation by what the frame can actually hold (an outcome
    // is > 100 bytes) so a corrupt count cannot reserve gigabytes.
    let mut outcomes = Vec::with_capacity(n.min(r.remaining() / 100 + 1));
    for _ in 0..n {
        outcomes.push(read_outcome(r)?);
    }
    let offline_auditor_utility = r.f64()?;
    let offline_attacker_utility = r.f64()?;
    let n = r.u32()? as usize;
    if r.remaining() < n * 8 {
        return Err(CodecError::Truncated);
    }
    let mut offline_coverage = Vec::with_capacity(n);
    for _ in 0..n {
        offline_coverage.push(r.f64()?);
    }
    let sse_totals = SseTotals {
        solves: r.u64()?,
        lp_solves: r.u64()?,
        warm_attempts: r.u64()?,
        warm_hits: r.u64()?,
        pivots: r.u64()?,
        fast_path_solves: r.u64()?,
        pruned_lps: r.u64()?,
        eps_skipped_lps: r.u64()?,
    };
    let certified_eps_loss = r.f64()?;
    Ok(CycleResult {
        day,
        outcomes,
        offline_auditor_utility,
        offline_attacker_utility,
        offline_coverage,
        sse_totals,
        certified_eps_loss,
    })
}

/// [`encode_reply`], with a payload longer than `max_frame` replaced by a
/// [`WireError::Engine`] reply that names its size. The server encodes
/// every reply through this with [`MAX_FRAME`], so an over-cap reply (a
/// `DayClosed` for a day of roughly 100k alerts or more) reaches the client
/// as a served, non-retryable error instead of a frame every client
/// rejects. The request itself was applied.
#[must_use]
pub fn encode_reply_capped(request_id: u64, reply: &Reply, max_frame: usize) -> Bytes {
    let payload = encode_reply(request_id, reply);
    if payload.len() <= max_frame {
        return payload;
    }
    let error = WireError::Engine(format!(
        "the reply encodes to {} bytes, over the {max_frame}-byte frame cap; \
         the request was applied",
        payload.len()
    ));
    encode_reply(request_id, &Err(error))
}

/// Encode a server reply payload, echoing the id of the request it
/// answers (0 for replies to frames that never carried a decodable id).
#[must_use]
pub fn encode_reply(request_id: u64, reply: &Reply) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u64_le(request_id);
    match reply {
        Ok(Response::DayOpened { session, tenant }) => {
            buf.put_u8(REP_DAY_OPENED);
            buf.put_u64_le(session.raw());
            put_str(&mut buf, tenant.as_str());
        }
        Ok(Response::Decision { session, outcome }) => {
            buf.put_u8(REP_DECISION);
            buf.put_u64_le(session.raw());
            put_outcome(&mut buf, outcome);
        }
        Ok(Response::DayClosed {
            session,
            tenant,
            result,
        }) => {
            buf.put_u8(REP_DAY_CLOSED);
            buf.put_u64_le(session.raw());
            put_str(&mut buf, tenant.as_str());
            put_result(&mut buf, result);
        }
        Err(e) => {
            buf.put_u8(REP_ERROR);
            match e {
                WireError::UnknownTenant(t) => {
                    buf.put_u8(ERR_UNKNOWN_TENANT);
                    put_str(&mut buf, t);
                }
                WireError::UnknownSession(s) => {
                    buf.put_u8(ERR_UNKNOWN_SESSION);
                    buf.put_u64_le(*s);
                }
                WireError::Overloaded {
                    tenant,
                    pending,
                    limit,
                } => {
                    buf.put_u8(ERR_OVERLOADED);
                    put_str(&mut buf, tenant);
                    buf.put_u64_le(*pending);
                    buf.put_u64_le(*limit);
                }
                WireError::Engine(m) => {
                    buf.put_u8(ERR_ENGINE);
                    put_str(&mut buf, m);
                }
                WireError::Wal(m) => {
                    buf.put_u8(ERR_WAL);
                    put_str(&mut buf, m);
                }
                WireError::BadRequest(m) => {
                    buf.put_u8(ERR_BAD_REQUEST);
                    put_str(&mut buf, m);
                }
                WireError::Stale {
                    request_id,
                    last_applied,
                } => {
                    buf.put_u8(ERR_STALE);
                    buf.put_u64_le(*request_id);
                    buf.put_u64_le(*last_applied);
                }
            }
        }
    }
    buf.freeze()
}

/// Decode a server reply payload into `(echoed request id, reply)`.
///
/// # Errors
///
/// Structured [`CodecError`] on any malformed input; never panics.
pub fn decode_reply(payload: &[u8]) -> Result<(u64, Reply), CodecError> {
    let mut r = Reader::new(payload);
    let request_id = r.u64()?;
    let reply = match r.u8()? {
        REP_DAY_OPENED => {
            let session = SessionId::from_raw(r.u64()?);
            let tenant = TenantId::from(r.str()?);
            Ok(Response::DayOpened { session, tenant })
        }
        REP_DECISION => {
            let session = SessionId::from_raw(r.u64()?);
            let outcome = read_outcome(&mut r)?;
            Ok(Response::Decision { session, outcome })
        }
        REP_DAY_CLOSED => {
            let session = SessionId::from_raw(r.u64()?);
            let tenant = TenantId::from(r.str()?);
            let result = read_result(&mut r)?;
            Ok(Response::DayClosed {
                session,
                tenant,
                result,
            })
        }
        REP_ERROR => Err(match r.u8()? {
            ERR_UNKNOWN_TENANT => WireError::UnknownTenant(r.str()?.to_owned()),
            ERR_UNKNOWN_SESSION => WireError::UnknownSession(r.u64()?),
            ERR_OVERLOADED => WireError::Overloaded {
                tenant: r.str()?.to_owned(),
                pending: r.u64()?,
                limit: r.u64()?,
            },
            ERR_ENGINE => WireError::Engine(r.str()?.to_owned()),
            ERR_WAL => WireError::Wal(r.str()?.to_owned()),
            ERR_BAD_REQUEST => WireError::BadRequest(r.str()?.to_owned()),
            ERR_STALE => WireError::Stale {
                request_id: r.u64()?,
                last_applied: r.u64()?,
            },
            code => return Err(CodecError::UnknownErrorCode(code)),
        }),
        kind => return Err(CodecError::UnknownKind(kind)),
    };
    r.finish()?;
    Ok((request_id, reply))
}

// --- frame I/O --------------------------------------------------------------

/// Write one frame (`len + crc + payload`) to `w`.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidInput`], with nothing written, for a
/// payload longer than [`MAX_FRAME`] (every reader would reject it as
/// [`CodecError::Oversized`]); otherwise propagates socket errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "a {}-byte payload exceeds the {MAX_FRAME}-byte frame cap",
                payload.len()
            ),
        ));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Read one frame from `r`, verifying length bound and CRC.
///
/// Returns `Ok(None)` on clean EOF *at a frame boundary* (the peer closed
/// between messages); EOF mid-frame is a [`CodecError::Truncated`].
///
/// # Errors
///
/// [`NetError::Io`] on socket failure, [`NetError::Codec`] on oversized or
/// corrupt frames.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, NetError> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(CodecError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let expected = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(CodecError::Oversized { len }.into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::Codec(CodecError::Truncated)
        } else {
            NetError::Io(e)
        }
    })?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(CodecError::Corrupt { expected, actual }.into());
    }
    Ok(Some(payload))
}

/// Does `buf` start with a whole frame (header and payload), so that
/// [`read_frame`] over a reader holding these bytes returns without
/// touching the socket?
pub(crate) fn starts_with_whole_frame(buf: &[u8]) -> bool {
    let Some((header, payload)) = buf.split_first_chunk::<8>() else {
        return false;
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    payload.len() >= len
}

/// Write the 6-byte client handshake.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_handshake(w: &mut impl Write) -> std::io::Result<()> {
    let mut hs = [0u8; 6];
    hs[..4].copy_from_slice(&MAGIC.to_le_bytes());
    hs[4..].copy_from_slice(&VERSION.to_le_bytes());
    w.write_all(&hs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_alert() -> Alert {
        Alert {
            day: 3,
            time: TimeOfDay::from_seconds(47_113),
            type_id: AlertTypeId(5),
            employee: None,
            patient: None,
            is_attack: true,
        }
    }

    #[test]
    fn request_payloads_round_trip() {
        let requests = [
            Request::OpenDay {
                tenant: TenantId::from("icu"),
                budget: Some(4.25),
                day: None,
            },
            Request::OpenDay {
                tenant: TenantId::from("clinic"),
                budget: None,
                day: Some(17),
            },
            Request::PushAlert {
                session: SessionId::from_raw(9),
                alert: sample_alert(),
            },
            Request::FinishDay {
                session: SessionId::from_raw(u64::MAX),
            },
        ];
        for (i, request) in requests.into_iter().enumerate() {
            let id = i as u64 + 1;
            let tenant = TenantId::from("icu");
            let bytes = encode_request(id, &tenant, &request);
            let (back_id, back_tenant, back) = decode_request(&bytes).unwrap();
            assert_eq!(back_id, id);
            assert_eq!(back_tenant, tenant);
            assert_eq!(back, request);
        }
    }

    #[test]
    fn truncated_request_is_structured_not_a_panic() {
        let bytes = encode_request(
            3,
            &TenantId::from("icu"),
            &Request::FinishDay {
                session: SessionId::from_raw(1),
            },
        );
        for cut in 0..bytes.len() {
            match decode_request(&bytes[..cut]) {
                Err(CodecError::Truncated) | Err(CodecError::UnknownKind(_)) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn frames_round_trip_and_reject_corruption() {
        let payload = encode_request(
            7,
            &TenantId::from("icu"),
            &Request::FinishDay {
                session: SessionId::from_raw(7),
            },
        );
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let back = read_frame(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(back, payload.as_ref());

        // Flip one payload bit: the CRC must catch it.
        let mut corrupt = wire.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        match read_frame(&mut corrupt.as_slice()) {
            Err(NetError::Codec(CodecError::Corrupt { .. })) => {}
            other => panic!("unexpected {other:?}"),
        }

        // Clean EOF between frames is not an error.
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn reply_envelope_echoes_the_request_id() {
        let replies: [Reply; 3] = [
            Ok(Response::DayOpened {
                session: SessionId::from_raw(4),
                tenant: TenantId::from("icu"),
            }),
            Err(WireError::Stale {
                request_id: 9,
                last_applied: 512,
            }),
            Err(WireError::BadRequest("nope".to_owned())),
        ];
        for (i, reply) in replies.into_iter().enumerate() {
            let id = i as u64 * 17;
            let bytes = encode_reply(id, &reply);
            let (back_id, back) = decode_reply(&bytes).unwrap();
            assert_eq!(back_id, id);
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn over_cap_replies_become_a_served_error_and_are_never_written() {
        let closed: Reply = Ok(Response::DayClosed {
            session: SessionId::from_raw(3),
            tenant: TenantId::from("icu"),
            result: CycleResult {
                day: 7,
                outcomes: Vec::new(),
                offline_auditor_utility: -1.0,
                offline_attacker_utility: 2.0,
                offline_coverage: vec![0.25; 256],
                sse_totals: SseTotals::default(),
                certified_eps_loss: 0.0,
            },
        });
        let full = encode_reply(11, &closed);
        assert!(full.len() > 2048);
        // Under the cap the reply passes through untouched.
        assert_eq!(encode_reply_capped(11, &closed, full.len()), full);
        // Over it, the client gets a non-retryable error naming the size,
        // under the same request id.
        let capped = encode_reply_capped(11, &closed, 1024);
        assert!(capped.len() <= 1024);
        match decode_reply(&capped).unwrap() {
            (11, Err(WireError::Engine(message))) => {
                assert!(message.contains(&full.len().to_string()), "{message}");
                assert!(message.contains("1024-byte frame cap"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The frame writer refuses an over-cap payload and writes nothing.
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(wire.is_empty());
        write_frame(&mut wire, &full).unwrap();
        assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap().unwrap(),
            &full[..]
        );
    }

    #[test]
    fn over_long_text_is_cut_at_a_char_boundary() {
        // 2-byte chars put `u16::MAX` inside a char, so the cut falls one
        // byte short of it.
        let message = "é".repeat(40_000);
        let bytes = encode_reply(5, &Err(WireError::BadRequest(message.clone())));
        match decode_reply(&bytes).unwrap() {
            (5, Err(WireError::BadRequest(cut))) => {
                assert_eq!(cut.len(), usize::from(u16::MAX) - 1);
                assert!(message.starts_with(&cut));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut wire.as_slice()) {
            Err(NetError::Codec(CodecError::Oversized { len })) => {
                assert_eq!(len, u32::MAX as usize);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_frame_is_whole_only_once_its_last_byte_is_buffered() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"").unwrap();
        for cut in 0..11 {
            assert!(!starts_with_whole_frame(&wire[..cut]), "cut at {cut}");
        }
        assert!(starts_with_whole_frame(&wire[..11]));
        assert!(starts_with_whole_frame(&wire[11..]));
        assert!(!starts_with_whole_frame(&wire[12..]));
    }
}
