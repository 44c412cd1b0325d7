//! The threaded TCP server fronting one [`AuditService`] — or a whole
//! [`ClusterService`] of them behind one listener.
//!
//! ## Threading model
//!
//! An **acceptor** thread hands each connection to a thread of its own,
//! and that thread serves the connection's requests from start to finish:
//! it reads them, admits them, serves them and writes the replies, with no
//! hand-off to any other thread. Each shard is one [`AuditService`] behind
//! a `Mutex`; a connection thread holds its request's shard lock only
//! while [`AuditService::handle_tagged`] runs and the session bookkeeping
//! around it is done, so connections on different shards never wait on
//! each other and connections on one shard take turns request by request.
//! The unsharded [`Server::start`] is the one-shard case of
//! [`Server::start_cluster`]: same acceptor, same connection threads, one
//! lock.
//!
//! Shards never share state — each has its own engines, counters, and (when
//! durable) WAL directory — so the only cross-shard artifacts are the
//! session ids on the wire, which carry their shard in the low bits
//! (`cluster = local × N + shard`). Connection threads route session
//! requests by that residue without any lookup and translate ids at the
//! shard boundary, so each shard still sees its own dense local sequence.
//!
//! ## Backpressure and shedding
//!
//! A connection thread reads ahead: it blocks for one frame, takes every
//! further whole frame already in its read buffer, and admits the batch in
//! arrival order before serving any of it. Admission has two bounds:
//!
//! 1. **Per-tenant quota** — each tenant's [`TenantGauge`] counts admitted
//!    but unserved requests; at [`ServerConfig::tenant_pending_limit`]
//!    the request is shed with a structured [`WireError::Overloaded`]
//!    reply. One tenant flooding the server cannot starve the others past
//!    its quota.
//! 2. **Per-shard bound** — at most [`ServerConfig::queue_capacity`]
//!    requests may be admitted on one shard and not yet served, across all
//!    connections; beyond that the request is shed the same way.
//!    `sag_queue_depth` reports that count, summed over shards.
//!
//! Admission never blocks, so a flood sheds instead of wedging a socket.
//! Nothing about shedding touches session state: a shed request can be
//! retried verbatim once the backlog drains.
//!
//! ## Reply ordering
//!
//! A batch is answered in arrival order, a shed request's reply in its
//! place, so pipelined clients see responses in the order they asked.
//! Each reply is written and flushed before the next request is served:
//! no reply waits behind later requests' work, such as a durable shard's
//! fsync.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops the acceptor, shuts down every open socket
//! and joins every connection thread. A connection thread first finishes
//! the batch it has read: every admitted request is served, and released
//! from its gauges, even when its reply can no longer be written. Such a
//! request was applied, so the client's retry under the same id is
//! answered from the dedup window. A request cut off mid-frame was never
//! read and is not applied.
//!
//! ## The metrics endpoint
//!
//! The same listener serves observability: a connection whose first bytes
//! are `"GET "` gets an HTTP/1.0 plaintext page rendered from the live
//! counters ([`NetMetrics::render`]) and is closed — `curl
//! http://host:port/metrics` works against the protocol port, no second
//! listener, no HTTP stack. Under a cluster the page **aggregates**: the
//! service counters are the field-wise sum over every shard's sink
//! ([`CountersSnapshot::sum`]), so the quiescent identity
//! (`requests == opens + alerts + closes + errors`) holds cluster-wide on
//! the one page a probe scrapes.

use crate::codec::{
    decode_request, encode_reply, encode_reply_capped, read_frame, starts_with_whole_frame,
    write_frame, NetError, Reply, WireError, MAGIC, MAX_FRAME, VERSION,
};
use crate::metrics::{NetMetrics, TenantGauge};
use bytes::Bytes;
use sag_cluster::{ClusterService, ShardRouter};
use sag_service::{
    AuditService, CountersSnapshot, Handled, Request, Response, ServiceCounters, TenantId,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-shard bound on requests admitted and not yet served, over all
    /// connections. A request beyond it is shed with
    /// [`WireError::Overloaded`]; admission never blocks.
    pub queue_capacity: usize,
    /// Per-tenant bound on admitted-but-unserved requests; beyond it the
    /// tenant's requests are shed with [`WireError::Overloaded`].
    pub tenant_pending_limit: usize,
    /// Test-only fault injection: sleep this long under the shard lock
    /// before serving each request, so shedding tests can fill the bounds
    /// deterministically on fast machines. `None` (the default) in
    /// production.
    pub handle_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 1024,
            tenant_pending_limit: 64,
            handle_delay: None,
        }
    }
}

/// A request admitted on its shard and not yet served.
struct Admitted {
    /// The idempotency envelope: the client-assigned request id…
    request_id: u64,
    /// …and the tenant it is scoped to.
    tenant: TenantId,
    request: Request,
    /// The owning shard.
    shard: usize,
    /// The admission gauge charged for this request, released when served.
    gauge: Option<Arc<TenantGauge>>,
}

/// State shared by every thread of one server.
struct Shared {
    config: ServerConfig,
    net: Arc<NetMetrics>,
    /// Routes requests to shards; `ShardRouter::new(1)` (the identity
    /// translation) for an unsharded server.
    router: ShardRouter,
    /// The shard services, indexed by shard.
    shards: Vec<Mutex<AuditService>>,
    /// One counter sink per shard; the metrics page serves their sum.
    counters: Vec<Arc<ServiceCounters>>,
    /// Open session (cluster id) → the tenant gauge its requests are
    /// charged to. Written under the owning shard's lock (insert on
    /// `DayOpened`, remove on `DayClosed`); read at admission. Keyed by
    /// *cluster* ids, which are unique across shards, so one map serves
    /// all of them.
    session_gauges: Mutex<HashMap<u64, Arc<TenantGauge>>>,
    shutdown: AtomicBool,
    /// A clone of every open socket, by connection number, so shutdown can
    /// unblock the threads parked on them. Each thread removes its own
    /// entry when it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    /// The cluster-wide service snapshot: field-wise sum over every shard.
    fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot::sum(self.counters.iter().map(|c| c.snapshot()))
    }

    fn session_gauges(&self) -> MutexGuard<'_, HashMap<u64, Arc<TenantGauge>>> {
        self.session_gauges
            .lock()
            .expect("session gauge map poisoned")
    }

    /// The connection registry. Every update to it is a single insert or
    /// remove, so it stays valid even if a thread panicked holding it —
    /// and shutdown, which runs in `Drop`, must not panic.
    fn conns(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running SAG network server. Dropping it shuts it down.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Returns the handles of the connection threads still running when it
    /// stops.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` and start serving `service` on background threads; the
    /// metrics page reads the service's own [`ServiceCounters`].
    ///
    /// This is exactly [`Server::start_cluster`] with one shard: the
    /// session-id translation at shard count 1 is the identity, so the
    /// wire behavior is byte-for-byte the pre-cluster server's.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(
        service: AuditService,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::start_shards(ShardRouter::new(1), vec![service], addr, config)
    }

    /// Bind `addr` and serve a whole [`ClusterService`] behind one
    /// listener: one thread per connection as usual, each taking the lock
    /// of the shard that owns its request. Connection threads route every
    /// request with the cluster's [`ShardRouter`]; `/metrics` and
    /// `/healthz` aggregate across shards, summing every shard's own
    /// [`ServiceCounters`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start_cluster(
        cluster: ClusterService,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let (router, shards) = cluster.into_shards();
        Server::start_shards(router, shards, addr, config)
    }

    fn start_shards(
        router: ShardRouter,
        shards: Vec<AuditService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let counters = shards
            .iter()
            .map(|shard| shard.counters().clone())
            .collect();
        let net = Arc::new(NetMetrics::new(shards.len()));
        // Pre-register every tenant so the metrics page lists all of them
        // from the first scrape, served traffic or not.
        for shard in &shards {
            for tenant in shard.tenants() {
                let _ = net.tenant_gauge(tenant);
            }
        }
        let shared = Arc::new(Shared {
            config,
            net,
            router,
            shards: shards.into_iter().map(Mutex::new).collect(),
            counters,
            session_gauges: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });

        let acceptor = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("sag-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };

        Ok(Server {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The number of shards serving behind this listener (1 when started
    /// with [`Server::start`]).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shared.router.num_shards()
    }

    /// The cluster-wide service snapshot: the field-wise sum over every
    /// shard's live counters. On a one-shard server this is exactly the
    /// service's own snapshot.
    #[must_use]
    pub fn counters_snapshot(&self) -> CountersSnapshot {
        self.shared.snapshot()
    }

    /// The live per-shard counter sinks (shared with the service hot
    /// paths), indexed by shard.
    #[must_use]
    pub fn shard_counters(&self) -> &[Arc<ServiceCounters>] {
        &self.shared.counters
    }

    /// The live transport metrics.
    #[must_use]
    pub fn net_metrics(&self) -> &Arc<NetMetrics> {
        &self.shared.net
    }

    /// The configuration the server was started with.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Render the metrics page exactly as the endpoint serves it
    /// (aggregated across shards).
    #[must_use]
    pub fn render_metrics(&self) -> String {
        self.shared.net.render(&self.shared.snapshot())
    }

    /// Stop accepting, unblock every connection, serve what was already
    /// admitted, and join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept`.
        let _ = TcpStream::connect(self.local_addr);
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        // Once the acceptor has stopped, every connection thread is
        // registered: unblock them all, then join them.
        let conn_threads = acceptor.join().unwrap_or_default();
        for stream in self.shared.conns().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in conn_threads {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections until shutdown, each on a thread of its own; return
/// the handles of the connection threads still running.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Join the threads of connections that ended since the last accept.
        let (ended, running): (Vec<_>, Vec<_>) = std::mem::take(&mut conn_threads)
            .into_iter()
            .partition(JoinHandle::is_finished);
        conn_threads = running;
        for handle in ended {
            let _ = handle.join();
        }
        // Register the socket before its thread starts, so a shutdown that
        // has stopped this loop can reach every thread it will join.
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        shared.conns().insert(id, registered);
        let conn_shared = shared.clone();
        let spawned = thread::Builder::new()
            .name("sag-conn".into())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                conn_shared.conns().remove(&id);
            });
        match spawned {
            Ok(handle) => conn_threads.push(handle),
            Err(_) => drop(shared.conns().remove(&id)),
        }
    }
    conn_threads
}

/// Dispatch one accepted connection: protocol handshake or metrics scrape.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Replies are single buffered frames; leaving Nagle on would hold each
    // one hostage to the peer's delayed ACK (~40ms per round trip).
    let _ = stream.set_nodelay(true);
    let mut first = [0u8; 4];
    if stream.read_exact(&mut first).is_err() {
        return;
    }
    if &first == b"GET " {
        serve_http(&mut stream, shared);
        return;
    }
    if first != MAGIC.to_le_bytes() {
        // Not our protocol and not HTTP: close without a word.
        return;
    }
    let mut version = [0u8; 2];
    if stream.read_exact(&mut version).is_err() {
        return;
    }
    let version = u16::from_le_bytes(version);
    if version != VERSION {
        let reply: Reply = Err(WireError::BadRequest(format!(
            "unsupported protocol version {version} (server speaks {VERSION})"
        )));
        let _ = write_frame(&mut stream, &encode_reply(0, &reply));
        return;
    }
    shared
        .net
        .connections_opened
        .fetch_add(1, Ordering::Relaxed);
    serve_protocol(stream, shared);
    shared
        .net
        .connections_closed
        .fetch_add(1, Ordering::Relaxed);
}

/// Serve one plaintext HTTP request (`GET ` already consumed) and close.
///
/// Two paths exist: `/healthz` answers a bare 200 `ok` the moment the
/// listener is accepting — what a readiness probe polls instead of
/// sleeping — and everything else serves the metrics page.
fn serve_http(stream: &mut TcpStream, shared: &Shared) {
    // Read the rest of the request line; one read is plenty for the
    // scrapers and probes we serve, and only the path matters.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut scratch = [0u8; 512];
    let n = stream.read(&mut scratch).unwrap_or(0);
    let line = String::from_utf8_lossy(&scratch[..n]);
    let path = line.split_whitespace().next().unwrap_or("");
    let body = if path == "/healthz" {
        "ok\n".to_owned()
    } else {
        shared.net.scrapes.fetch_add(1, Ordering::Relaxed);
        shared.net.render(&shared.snapshot())
    };
    let header = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Serve one protocol connection batch by batch until the peer hangs up,
/// the socket fails, or the server shuts down.
fn serve_protocol(stream: TcpStream, shared: &Shared) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // Buffer so header + payload leave as one packet per frame.
    let mut writer = BufWriter::new(write_half);
    let mut batch = Vec::new();
    let (mut reading, mut writing) = (true, true);
    while reading && writing && !shared.shutdown.load(Ordering::SeqCst) {
        // Block for one frame, then take every whole frame buffered behind
        // it: admitting them together is what lets a pipelining tenant
        // reach its quota and shed.
        loop {
            match read_frame(&mut reader) {
                Ok(Some(payload)) => batch.push(admit(&payload, shared)),
                // Clean close, socket death, or a timeout.
                Ok(None) | Err(NetError::Io(_)) | Err(NetError::Timeout { .. }) => {
                    reading = false;
                }
                Err(NetError::Codec(_)) => {
                    // A torn, oversized or CRC-corrupt frame: the stream
                    // offset can no longer be trusted, so any reply might
                    // answer bytes the client never sent. Answer what came
                    // before it and close — the client sees a dead
                    // transport and safely retries under the same request
                    // id.
                    shared.net.decode_errors.fetch_add(1, Ordering::Relaxed);
                    reading = false;
                }
            }
            if !reading || !starts_with_whole_frame(reader.buffer()) {
                break;
            }
        }
        for admission in batch.drain(..) {
            let reply = match admission {
                Ok(admitted) => serve(admitted, shared),
                Err(refusal) => refusal,
            };
            // Once a write fails the rest of the batch is still served, so
            // nothing admitted stays charged to a gauge; its replies drop.
            writing = writing && write_reply(&mut writer, &reply, &shared.net).is_ok();
        }
    }
    if let Ok(stream) = writer.into_inner() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Write and flush one reply frame.
fn write_reply(
    writer: &mut BufWriter<TcpStream>,
    reply: &[u8],
    net: &NetMetrics,
) -> std::io::Result<()> {
    write_frame(writer, reply)?;
    // Count before the flush makes the frame visible to the peer, so a
    // client that scrapes metrics right after its last reply never reads a
    // counter lagging behind it.
    net.frames_out.fetch_add(1, Ordering::Relaxed);
    writer.flush()
}

/// Decode one frame and admit it against its tenant's quota and its
/// shard's bound. A frame that is refused — undecodable, mismatched or
/// shed — gets its encoded error reply as the `Err`.
fn admit(payload: &[u8], shared: &Shared) -> Result<Admitted, Bytes> {
    let refuse = |request_id: u64, error: WireError| Err(encode_reply(request_id, &Err(error)));
    shared.net.frames_in.fetch_add(1, Ordering::Relaxed);
    let (request_id, envelope_tenant, request) = match decode_request(payload) {
        Ok(decoded) => decoded,
        Err(e) => {
            // The frame checksummed, so the stream is still in sync and
            // this is a genuine client bug, not line noise: answer the bad
            // payload structurally and keep serving.
            shared.net.decode_errors.fetch_add(1, Ordering::Relaxed);
            return refuse(0, WireError::BadRequest(e.to_string()));
        }
    };
    if let Request::OpenDay { tenant, .. } = &request {
        if *tenant != envelope_tenant {
            return refuse(
                request_id,
                WireError::BadRequest(format!(
                    "envelope tenant {envelope_tenant} does not match OpenDay tenant {tenant}"
                )),
            );
        }
    }

    let config = &shared.config;
    let gauge: Option<Arc<TenantGauge>> = match &request {
        Request::OpenDay { tenant, .. } => Some(shared.net.tenant_gauge(tenant)),
        Request::PushAlert { session, .. } | Request::FinishDay { session } => {
            shared.session_gauges().get(&session.raw()).cloned()
        }
    };
    if let Some(gauge) = &gauge {
        if let Err(pending) = gauge.try_admit(config.tenant_pending_limit) {
            shared.net.shed.fetch_add(1, Ordering::Relaxed);
            return refuse(
                request_id,
                WireError::Overloaded {
                    tenant: gauge.tenant().as_str().to_owned(),
                    pending: pending as u64,
                    limit: config.tenant_pending_limit as u64,
                },
            );
        }
    }
    // Route to the owning shard: OpenDay by tenant hash, session requests
    // by the shard encoded in the session id itself.
    let shard = shared.router.shard_for_request(&request);
    if !shared.net.try_enqueue(shard, config.queue_capacity) {
        shared.net.shed.fetch_add(1, Ordering::Relaxed);
        let tenant = gauge
            .as_ref()
            .map_or("", |g| g.tenant().as_str())
            .to_owned();
        if let Some(gauge) = &gauge {
            gauge.release();
        }
        return refuse(
            request_id,
            WireError::Overloaded {
                tenant,
                pending: config.queue_capacity as u64,
                limit: config.queue_capacity as u64,
            },
        );
    }
    Ok(Admitted {
        request_id,
        tenant: envelope_tenant,
        request,
        shard,
        gauge,
    })
}

/// Serve one admitted request under its shard's lock, release its
/// admission, and encode the reply.
///
/// [`ShardRouter::handle_tagged`] gives the shard local session ids and
/// translates its response or error back to cluster ids before anything
/// touches the gauge maps or the wire — so every id a client ever sees is
/// a cluster id. At one shard both translations are the identity.
fn serve(admitted: Admitted, shared: &Shared) -> Bytes {
    let Admitted {
        request_id,
        tenant,
        request,
        shard,
        gauge,
    } = admitted;
    let reply: Reply = {
        let mut service = shared.shards[shard].lock().expect("shard service poisoned");
        if let Some(delay) = shared.config.handle_delay {
            thread::sleep(delay);
        }
        match shared
            .router
            .handle_tagged(&mut service, shard, &tenant, request_id, request)
        {
            Handled::Applied(result) => {
                match &result {
                    Ok(Response::DayOpened { session, tenant }) => {
                        let gauge = gauge
                            .clone()
                            .unwrap_or_else(|| shared.net.tenant_gauge(tenant));
                        shared.session_gauges().insert(session.raw(), gauge);
                    }
                    Ok(Response::Decision { outcome, .. }) => {
                        if let Some(gauge) = &gauge {
                            gauge.record_decision(outcome.ossp_utility);
                        }
                    }
                    Ok(Response::DayClosed { session, .. }) => {
                        shared.session_gauges().remove(&session.raw());
                    }
                    Err(_) => {}
                }
                result.map_err(|e| WireError::from(&e))
            }
            Handled::Replayed(response) => {
                // Nothing was re-applied, so no per-tenant decision stats —
                // but a replayed DayOpened must (re-)register the session's
                // gauge: after a crash+recover the map starts empty, and the
                // session is live again.
                if let Response::DayOpened { session, tenant } = &response {
                    let gauge = shared.net.tenant_gauge(tenant);
                    shared.session_gauges().insert(session.raw(), gauge);
                }
                Ok(response)
            }
            Handled::Stale {
                request_id,
                last_applied,
            } => Err(WireError::Stale {
                request_id,
                last_applied,
            }),
        }
    };
    shared.net.dequeue(shard);
    if let Some(gauge) = &gauge {
        gauge.release();
    }
    encode_reply_capped(request_id, &reply, MAX_FRAME)
}
