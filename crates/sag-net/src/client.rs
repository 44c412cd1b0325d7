//! A blocking, retrying client for the SAG wire protocol.
//!
//! [`Client`] is bound to one tenant and assigns every request a
//! monotonically increasing id (starting at 1). Combined with the server's
//! per-tenant dedup window, that makes the call style —
//! [`open_day`](Client::open_day), [`push_alert`](Client::push_alert),
//! [`finish_day`](Client::finish_day) — **exactly-once**: a transport
//! failure after the request was sent is ambiguous (did the server apply
//! it?), and the client resolves the ambiguity by reconnecting and
//! re-sending the *same id*. If the first copy was applied, the server
//! replays its cached reply instead of applying it twice.
//!
//! Every socket operation runs under a deadline from [`ClientConfig`]
//! (connect/read/write), so a dead or wedged peer surfaces as
//! [`NetError::Timeout`] instead of hanging forever. Retries follow
//! [`RetryPolicy`]: capped exponential backoff with deterministic seeded
//! jitter, also honouring a served [`WireError::Overloaded`] as
//! "retry later".
//!
//! The pipelined style — [`send`](Client::send) then [`recv`](Client::recv)
//! — keeps many requests in flight on one connection and does *not* retry;
//! the caller matches replies by the echoed request id.

use crate::codec::{
    decode_reply, encode_request, read_frame, write_frame, write_handshake, CodecError, NetError,
    Reply, WireError,
};
use sag_core::{AlertOutcome, CycleResult};
use sag_service::{Request, Response, SessionId, TenantId};
use sag_sim::Alert;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How a [`Client`] retries a failed call: up to
/// [`max_attempts`](RetryPolicy::max_attempts) total tries, sleeping a
/// capped exponential backoff between them.
///
/// The sleep before retry `n` (1-based) is `base_delay * 2^(n-1)` capped at
/// `max_delay`, scaled by a jitter factor in `[0.5, 1.0)` drawn from a
/// deterministic splitmix64 stream seeded with
/// [`jitter_seed`](RetryPolicy::jitter_seed) — runs with the same seed back
/// off identically, which keeps chaos tests and benches reproducible while
/// still de-synchronising distinct clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (minimum 1; 1 means no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(1),
            jitter_seed: 0x517e_ed05,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — every failure surfaces immediately.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// Deadlines and retry behaviour for a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection. Must be non-zero.
    pub connect_timeout: Duration,
    /// Deadline for any single blocking read. Must be non-zero.
    pub read_timeout: Duration,
    /// Deadline for any single blocking write. Must be non-zero.
    pub write_timeout: Duration,
    /// How calls retry after transport failures or shed replies.
    pub retry: RetryPolicy,
    /// Whether a transport failure mid-call may tear down the connection
    /// and redial. With `false`, only served [`WireError::Overloaded`]
    /// replies are retried (on the live connection).
    pub reconnect: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(3),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            reconnect: true,
        }
    }
}

/// Counters a [`Client`] keeps about its own resilience behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Attempts beyond the first, across all calls (transport retries plus
    /// [`WireError::Overloaded`] backoffs).
    pub retries: u64,
    /// Connections established after the first one.
    pub reconnects: u64,
    /// Replies skipped because their echoed id was older than the request
    /// being waited on — duplicated or already-answered deliveries.
    pub duplicates_skipped: u64,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A blocking connection to a [`crate::Server`], bound to one tenant.
pub struct Client {
    addr: SocketAddr,
    tenant: TenantId,
    config: ClientConfig,
    conn: Option<Conn>,
    next_id: u64,
    jitter: u64,
    connected_once: bool,
    stats: ClientStats,
}

impl Client {
    /// Connect with [`ClientConfig::default`] and perform the handshake.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connect/socket failure, [`NetError::Timeout`]
    /// when the connect deadline expires.
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: impl Into<TenantId>,
    ) -> Result<Client, NetError> {
        Client::connect_with(addr, tenant, ClientConfig::default())
    }

    /// Connect with explicit deadlines and retry policy.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connect/socket failure, [`NetError::Timeout`]
    /// when the connect deadline expires.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        tenant: impl Into<TenantId>,
        config: ClientConfig,
    ) -> Result<Client, NetError> {
        let mut client = Client {
            addr: resolve(addr)?,
            tenant: tenant.into(),
            jitter: config.retry.jitter_seed,
            config,
            conn: None,
            next_id: 1,
            connected_once: false,
            stats: ClientStats::default(),
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// The tenant every request from this client is enveloped with.
    #[must_use]
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Resilience counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The id the next [`call`](Client::call)/[`send`](Client::send) will
    /// be tagged with.
    #[must_use]
    pub fn next_request_id(&self) -> u64 {
        self.next_id
    }

    /// Drop the current connection (if any) and dial `addr` instead,
    /// **preserving the request-id sequence**. This is how a client follows
    /// a crashed server to its restarted address: recovery rebuilds the
    /// server's dedup window from the WAL, so a client that restarted its
    /// ids at 1 would collide with its own pre-crash history.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Timeout`] when the new address cannot
    /// be reached.
    pub fn redial(&mut self, addr: impl ToSocketAddrs) -> Result<(), NetError> {
        self.addr = resolve(addr)?;
        self.conn = None;
        self.ensure_conn()?;
        Ok(())
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn, NetError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
                .map_err(|e| timeout_or_io(e, "connect"))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.config.read_timeout))?;
            stream.set_write_timeout(Some(self.config.write_timeout))?;
            let read_half = stream.try_clone()?;
            let mut writer = BufWriter::new(stream);
            write_handshake(&mut writer).map_err(|e| timeout_or_io(e, "write"))?;
            writer.flush().map_err(|e| timeout_or_io(e, "write"))?;
            if self.connected_once {
                self.stats.reconnects += 1;
            }
            self.connected_once = true;
            self.conn = Some(Conn {
                reader: BufReader::new(read_half),
                writer,
            });
        }
        Ok(self.conn.as_mut().expect("connection was just established"))
    }

    /// Send one request without waiting for its reply (pipelining),
    /// returning the id it was tagged with. Does **not** retry.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Timeout`] on socket failure.
    pub fn send(&mut self, request: &Request) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_tagged(id, request)?;
        Ok(id)
    }

    /// Send one request under an explicit id without waiting for its reply.
    /// Re-sending an id the server already applied yields its cached reply
    /// instead of a second application — this is the exactly-once lever.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Timeout`] on socket failure.
    pub fn send_tagged(&mut self, request_id: u64, request: &Request) -> Result<(), NetError> {
        let payload = encode_request(request_id, &self.tenant, request);
        let conn = self.ensure_conn()?;
        write_frame(&mut conn.writer, &payload).map_err(|e| timeout_or_io(e, "write"))?;
        conn.writer.flush().map_err(|e| timeout_or_io(e, "write"))?;
        Ok(())
    }

    /// Receive the next reply with its echoed request id, in server order.
    ///
    /// # Errors
    ///
    /// [`NetError`] when the connection dies, a deadline expires, or the
    /// frame is malformed; a clean server-side close surfaces as
    /// [`CodecError::Truncated`].
    pub fn recv(&mut self) -> Result<(u64, Reply), NetError> {
        let conn = self.ensure_conn()?;
        match read_frame(&mut conn.reader)? {
            Some(payload) => Ok(decode_reply(&payload)?),
            None => Err(CodecError::Truncated.into()),
        }
    }

    /// Send one request and block for its reply, retrying per the
    /// configured [`RetryPolicy`] until the outcome is unambiguous.
    ///
    /// Transport failures (I/O, timeout, truncated or corrupt reply) tear
    /// the connection down, redial, and re-send the **same id**; served
    /// [`WireError::Overloaded`] replies back off and re-send on the live
    /// connection. Either way the server's dedup window guarantees the
    /// request is applied at most once.
    ///
    /// # Errors
    ///
    /// [`NetError`] when every attempt failed (a *served* error travels
    /// inside the `Ok` as [`Reply`]'s `Err` arm).
    pub fn call(&mut self, request: &Request) -> Result<Reply, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.call_tagged(id, request)
    }

    /// [`call`](Client::call) under an explicit request id.
    ///
    /// # Errors
    ///
    /// [`NetError`] when every attempt failed.
    pub fn call_tagged(&mut self, request_id: u64, request: &Request) -> Result<Reply, NetError> {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(request_id, request) {
                Ok(reply) => {
                    if matches!(reply, Err(WireError::Overloaded { .. })) && attempt < max_attempts
                    {
                        self.stats.retries += 1;
                        std::thread::sleep(self.backoff(attempt));
                        continue;
                    }
                    return Ok(reply);
                }
                Err(e) if transport_retryable(&e) => {
                    // The failure is ambiguous: the request may or may not
                    // have been applied. Drop the stream either way; if
                    // retries remain, redial and re-send the same id.
                    self.conn = None;
                    if self.config.reconnect && attempt < max_attempts {
                        self.stats.retries += 1;
                        std::thread::sleep(self.backoff(attempt));
                        continue;
                    }
                    return Err(e);
                }
                Err(e) => {
                    if matches!(e, NetError::Codec(CodecError::Oversized { .. })) {
                        // The oversized payload was never read, so the
                        // stream's framing is lost: the next call redials.
                        self.conn = None;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One send+receive attempt, skipping replies to older requests.
    fn attempt(&mut self, request_id: u64, request: &Request) -> Result<Reply, NetError> {
        self.send_tagged(request_id, request)?;
        loop {
            let (echoed, reply) = self.recv()?;
            if echoed == request_id {
                return Ok(reply);
            }
            if echoed < request_id {
                // A redelivered or already-abandoned reply (e.g. the server
                // answered both copies of a duplicated frame). Skip it.
                self.stats.duplicates_skipped += 1;
                continue;
            }
            return Err(CodecError::BadReplyId {
                got: echoed,
                expected: request_id,
            }
            .into());
        }
    }

    fn backoff(&mut self, attempt: u32) -> Duration {
        let policy = &self.config.retry;
        let exp = attempt.saturating_sub(1).min(16);
        let base = policy
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(policy.max_delay);
        // 53 uniform bits -> fraction in [0, 1), scaled into [0.5, 1.0).
        let frac = (splitmix(&mut self.jitter) >> 11) as f64 / (1u64 << 53) as f64;
        base.mul_f64(0.5 + 0.5 * frac)
    }

    /// Open an audit day for this client's tenant; returns the
    /// server-minted session id.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a service-side error reply.
    pub fn open_day(
        &mut self,
        budget: Option<f64>,
        day: Option<u32>,
    ) -> Result<SessionId, ClientError> {
        let reply = self.call(&Request::OpenDay {
            tenant: self.tenant.clone(),
            budget,
            day,
        })?;
        match reply {
            Ok(Response::DayOpened { session, .. }) => Ok(session),
            Ok(other) => Err(ClientError::UnexpectedReply(reply_kind(&other))),
            Err(e) => Err(ClientError::Service(e)),
        }
    }

    /// Push one alert into an open session; returns the warning decision.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a service-side error reply.
    pub fn push_alert(
        &mut self,
        session: SessionId,
        alert: &Alert,
    ) -> Result<AlertOutcome, ClientError> {
        let reply = self.call(&Request::PushAlert {
            session,
            alert: *alert,
        })?;
        match reply {
            Ok(Response::Decision { outcome, .. }) => Ok(outcome),
            Ok(other) => Err(ClientError::UnexpectedReply(reply_kind(&other))),
            Err(e) => Err(ClientError::Service(e)),
        }
    }

    /// Close an open session; returns the full day result.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a service-side error reply.
    pub fn finish_day(&mut self, session: SessionId) -> Result<CycleResult, ClientError> {
        let reply = self.call(&Request::FinishDay { session })?;
        match reply {
            Ok(Response::DayClosed { result, .. }) => Ok(result),
            Ok(other) => Err(ClientError::UnexpectedReply(reply_kind(&other))),
            Err(e) => Err(ClientError::Service(e)),
        }
    }
}

/// Is this transport failure worth a reconnect-and-resend? Codec errors
/// beyond truncation/corruption mean the peers disagree about the protocol
/// itself — retrying cannot fix that.
fn transport_retryable(e: &NetError) -> bool {
    match e {
        NetError::Io(_) | NetError::Timeout { .. } => true,
        NetError::Codec(CodecError::Truncated) | NetError::Codec(CodecError::Corrupt { .. }) => {
            true
        }
        NetError::Codec(_) => false,
    }
}

fn timeout_or_io(e: std::io::Error, op: &'static str) -> NetError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout { op },
        _ => NetError::Io(e),
    }
}

fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr, NetError> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        NetError::Io(std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        ))
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn reply_kind(response: &Response) -> &'static str {
    match response {
        Response::DayOpened { .. } => "DayOpened",
        Response::Decision { .. } => "Decision",
        Response::DayClosed { .. } => "DayClosed",
    }
}

/// Failure of a typed client call.
#[derive(Debug)]
pub enum ClientError {
    /// The connection or codec failed (after exhausting retries).
    Net(NetError),
    /// The server answered with a structured error.
    Service(WireError),
    /// The server answered a different response kind than the request
    /// implies — a protocol bug, not an operational error.
    UnexpectedReply(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Net(e) => write!(f, "{e}"),
            ClientError::Service(e) => write!(f, "{e}"),
            ClientError::UnexpectedReply(kind) => {
                write!(f, "protocol violation: unexpected {kind} reply")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Net(e) => Some(e),
            ClientError::Service(e) => Some(e),
            ClientError::UnexpectedReply(_) => None,
        }
    }
}

impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        ClientError::Net(e)
    }
}

/// Fetch one plaintext page from the server's HTTP side door, under the
/// default [`ClientConfig`] deadlines.
fn http_get(addr: impl ToSocketAddrs, path: &str) -> Result<String, NetError> {
    let config = ClientConfig::default();
    let mut stream = TcpStream::connect_timeout(&resolve(addr)?, config.connect_timeout)
        .map_err(|e| timeout_or_io(e, "connect"))?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .map_err(|e| timeout_or_io(e, "write"))?;
    stream.flush().map_err(|e| timeout_or_io(e, "write"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| NetError::Codec(CodecError::BadUtf8))?;
    match text.split_once("\r\n\r\n") {
        Some((_headers, body)) => Ok(body.to_owned()),
        None => Err(CodecError::Truncated.into()),
    }
}

/// Fetch the plaintext metrics page from a server address over HTTP.
/// Deadline-guarded: a wedged server surfaces as [`NetError::Timeout`]
/// instead of hanging the caller forever.
///
/// # Errors
///
/// [`NetError::Io`] / [`NetError::Timeout`] on socket failure,
/// [`CodecError::Truncated`] when the response carries no body.
pub fn fetch_metrics(addr: impl ToSocketAddrs) -> Result<String, NetError> {
    http_get(addr, "/metrics")
}

/// Probe the server's `/healthz` endpoint; `Ok("ok\n")` means the server
/// is accepting connections and answering. Deadline-guarded like
/// [`fetch_metrics`].
///
/// # Errors
///
/// [`NetError::Io`] / [`NetError::Timeout`] when the server is not (yet)
/// reachable.
pub fn fetch_health(addr: impl ToSocketAddrs) -> Result<String, NetError> {
    http_get(addr, "/healthz")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_request, encode_reply, MAX_FRAME};
    use std::net::TcpListener;

    /// Accept one connection, skip its handshake, and read one request,
    /// returning the stream and the request's id.
    fn accept_request(listener: &TcpListener) -> (TcpStream, u64) {
        let (mut stream, _) = listener.accept().unwrap();
        let mut handshake = [0u8; 6];
        stream.read_exact(&mut handshake).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let (request_id, _, _) = decode_request(&payload).unwrap();
        (stream, request_id)
    }

    #[test]
    fn an_oversized_reply_drops_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: announce a frame over the cap and keep the
            // socket open, so only the client can end this stream.
            let (mut first, _) = accept_request(&listener);
            let mut header = [0u8; 8];
            header[..4].copy_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
            first.write_all(&header).unwrap();
            // Second connection: a well-formed reply.
            let (mut second, id) = accept_request(&listener);
            let reply = encode_reply(id, &Err(WireError::UnknownSession(7)));
            write_frame(&mut second, &reply).unwrap();
            drop(first);
        });

        let mut client = Client::connect(addr, "icu").unwrap();
        let close = Request::FinishDay {
            session: SessionId::from_raw(7),
        };
        match client.call(&close) {
            Err(NetError::Codec(CodecError::Oversized { len })) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("unexpected {other:?}"),
        }
        // The next call runs on a fresh connection straight away: no
        // transport failure, no retry.
        let reply = client.call(&close).unwrap();
        assert_eq!(reply, Err(WireError::UnknownSession(7)));
        let stats = client.stats();
        assert_eq!((stats.reconnects, stats.retries), (1, 0));
        server.join().unwrap();
    }
}
