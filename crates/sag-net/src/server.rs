//! The threaded TCP server fronting one [`AuditService`] — or a whole
//! [`ClusterService`] of them behind one listener.
//!
//! ## Threading model
//!
//! A service owns per-tenant engines behind `&mut self`, so exactly one
//! **service thread per shard** drives [`AuditService::handle`], consuming
//! jobs from its own *bounded* [`std::sync::mpsc::sync_channel`]. The
//! unsharded [`Server::start`] is literally the one-shard special case of
//! [`Server::start_cluster`]: same acceptor, same readers, one queue, one
//! service thread. Everything in front of the queues is allowed to be
//! many: an **acceptor** thread hands each connection to its own
//! **reader** thread (decodes frames, admits against quotas, routes to the
//! owning shard's queue via the [`ShardRouter`], enqueues) paired with a
//! **writer** thread (sends replies back in request order).
//!
//! Shards never share state — each has its own engines, counters, and (when
//! durable) WAL directory — so the only cross-shard artifacts are the
//! session ids on the wire, which carry their shard in the low bits
//! (`cluster = local × N + shard`). Readers route session requests by that
//! residue without any lookup; service threads translate ids at the
//! boundary, so each shard still sees its own dense local sequence.
//!
//! ## Backpressure and shedding
//!
//! Admission happens on the reader thread, *before* the queue:
//!
//! 1. **Per-tenant quota** — each tenant's [`TenantGauge`] counts admitted
//!    but unanswered requests; at [`ServerConfig::tenant_pending_limit`]
//!    the request is shed with a structured
//!    [`WireError::Overloaded`] reply. One tenant flooding its
//!    queue cannot starve the others past its quota.
//! 2. **Global bound** — the job queue itself is bounded
//!    ([`ServerConfig::queue_capacity`]); `try_send` never blocks the
//!    reader, so a full queue sheds instead of wedging the socket.
//!
//! A shed reply travels through the same ordered reply path as a served
//! one, so pipelined clients see responses in the order they asked.
//! Nothing about shedding touches session state: a shed request can be
//! retried verbatim once the backlog drains.
//!
//! ## Reply ordering
//!
//! The reader gives every admitted (or shed) request a one-shot channel
//! and queues the receiving half to the writer in arrival order; the
//! writer blocks on the *oldest* outstanding reply. Pipelining costs the
//! client nothing and replies can never reorder.
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
    decode_request, encode_reply, encode_reply_capped, read_frame, write_frame, NetError, Reply,
    WireError, MAGIC, MAX_FRAME, VERSION,
};
use crate::metrics::{NetMetrics, TenantGauge};
use bytes::Bytes;
use sag_cluster::{ClusterService, ShardRouter};
use sag_service::{
    AuditService, CountersSnapshot, Handled, Request, Response, ServiceCounters, TenantId,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Capacity of the global bounded job queue in front of the service
    /// thread. A full queue sheds (never blocks the readers).
    pub queue_capacity: usize,
    /// Per-tenant bound on admitted-but-unanswered requests; beyond it the
    /// tenant's requests are shed with [`WireError::Overloaded`].
    pub tenant_pending_limit: usize,
    /// Test-only fault injection: sleep this long before serving each job,
    /// so shedding tests can fill queues deterministically on fast
    /// machines. `None` (the default) in production.
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

/// One unit of work for the service thread.
struct Job {
    /// The idempotency envelope: the client-assigned request id…
    request_id: u64,
    /// …and the tenant it is scoped to.
    tenant: TenantId,
    request: Request,
    /// One-shot reply path back to the connection's writer thread.
    reply: Sender<Bytes>,
    /// The admission gauge charged for this request, released when served.
    gauge: Option<Arc<TenantGauge>>,
}

/// State shared by every thread of one server.
struct Shared {
    net: Arc<NetMetrics>,
    /// Routes requests to shards; `ShardRouter::new(1)` (the identity
    /// translation) for an unsharded server.
    router: ShardRouter,
    /// One counter sink per shard; the metrics page serves their sum.
    counters: Vec<Arc<ServiceCounters>>,
    /// Open session (cluster id) → the tenant gauge its requests are
    /// charged to. Written only by the owning shard's service thread
    /// (insert on `DayOpened`, remove on `DayClosed`); read by connection
    /// readers at admission. Keyed by *cluster* ids, which are unique
    /// across shards, so one map serves all of them.
    session_gauges: Mutex<HashMap<u64, Arc<TenantGauge>>>,
    shutdown: AtomicBool,
    /// Clones of every live protocol socket, so shutdown can unblock the
    /// reader threads parked in `read_frame`.
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    /// The cluster-wide service snapshot: field-wise sum over every shard.
    fn snapshot(&self) -> CountersSnapshot {
        let shards: Vec<CountersSnapshot> = self.counters.iter().map(|c| c.snapshot()).collect();
        CountersSnapshot::sum(&shards)
    }
}

/// A running SAG network server. Dropping it shuts it down.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    config: ServerConfig,
    acceptor: Option<JoinHandle<()>>,
    services: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` and start serving `service` on background threads.
    ///
    /// Installs a fresh [`ServiceCounters`] on the service unless one is
    /// already present (the existing sink keeps counting).
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
    /// listener: one reader/writer pair per connection as usual, plus one
    /// service thread *per shard*, each consuming its own bounded queue.
    /// Readers route every request to its owning shard with the cluster's
    /// [`ShardRouter`]; `/metrics` and `/healthz` aggregate across shards.
    ///
    /// Installs a fresh [`ServiceCounters`] on any shard that lacks one
    /// (shards built via `ClusterBuilder::counters()` keep their sinks).
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
        mut shards: Vec<AuditService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let counters: Vec<Arc<ServiceCounters>> = shards
            .iter_mut()
            .map(|shard| match shard.counters() {
                Some(existing) => existing.clone(),
                None => {
                    let fresh = Arc::new(ServiceCounters::new());
                    shard.set_counters(fresh.clone());
                    fresh
                }
            })
            .collect();
        let shared = Arc::new(Shared {
            net: Arc::new(NetMetrics::new()),
            router,
            counters,
            session_gauges: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        // Pre-register every tenant so the metrics page lists all of them
        // from the first scrape, served traffic or not.
        for shard in &shards {
            for tenant in shard.tenants() {
                let _ = shared.net.tenant_gauge(tenant);
            }
        }

        // One bounded queue and one service thread per shard. Each queue
        // gets the full configured capacity: the global bound scales with
        // the fleet the way the worker pools and WAL directories do.
        let mut job_txs = Vec::with_capacity(shards.len());
        let mut services = Vec::with_capacity(shards.len());
        for (shard_index, shard) in shards.into_iter().enumerate() {
            let (job_tx, job_rx) = sync_channel::<Job>(config.queue_capacity);
            job_txs.push(job_tx);
            let shared = shared.clone();
            let delay = config.handle_delay;
            services.push(
                thread::Builder::new()
                    .name(format!("sag-service-{shard_index}"))
                    .spawn(move || service_loop(shard, shard_index, &job_rx, &shared, delay))?,
            );
        }

        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = shared.clone();
            let config = config.clone();
            let conn_threads = conn_threads.clone();
            thread::Builder::new()
                .name("sag-acceptor".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let shared = shared.clone();
                        let config = config.clone();
                        let job_txs = job_txs.clone();
                        let handle = thread::Builder::new()
                            .name("sag-conn".into())
                            .spawn(move || handle_connection(stream, &shared, &config, &job_txs));
                        if let Ok(handle) = handle {
                            conn_threads
                                .lock()
                                .expect("connection registry poisoned")
                                .push(handle);
                        }
                    }
                    // Dropping the master `job_txs` here lets the service
                    // threads exit once the last connection hangs up.
                })?
        };

        Ok(Server {
            local_addr,
            shared,
            config,
            acceptor: Some(acceptor),
            services,
            conn_threads,
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
        &self.config
    }

    /// Render the metrics page exactly as the endpoint serves it
    /// (aggregated across shards).
    #[must_use]
    pub fn render_metrics(&self) -> String {
        self.shared.net.render(&self.shared.snapshot())
    }

    /// Stop accepting, unblock and drain every connection, serve what was
    /// already admitted, and join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Unblock reader threads parked on their sockets; admitted jobs
        // still get served and written back before the writers exit.
        for stream in self
            .shared
            .conns
            .lock()
            .expect("connection registry poisoned")
            .iter()
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = std::mem::take(
            &mut *self
                .conn_threads
                .lock()
                .expect("connection registry poisoned"),
        );
        for handle in handles {
            let _ = handle.join();
        }
        // All job senders are gone now; the service threads drain and exit.
        for handle in self.services.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The single thread that owns one [`AuditService`] shard.
///
/// Jobs arrive in cluster form; the shard sees local session ids
/// ([`ShardRouter::to_local`]) and its responses and errors are translated
/// back ([`ShardRouter::to_cluster`]) before anything touches the gauge
/// maps or the wire — so every id a client or a reader ever sees is a
/// cluster id. At one shard both translations are the identity.
fn service_loop(
    mut service: AuditService,
    shard_index: usize,
    jobs: &Receiver<Job>,
    shared: &Shared,
    delay: Option<Duration>,
) {
    let router = shared.router;
    for job in jobs {
        shared.net.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if let Some(delay) = delay {
            thread::sleep(delay);
        }
        let request = router.to_local(job.request);
        let reply: Reply = match service.handle_tagged(&job.tenant, job.request_id, request) {
            Handled::Applied(result) => {
                let result = result
                    .map(|response| router.to_cluster(response, shard_index))
                    .map_err(|e| router.to_cluster_error(e, shard_index));
                match &result {
                    Ok(Response::DayOpened { session, tenant }) => {
                        let gauge = job
                            .gauge
                            .clone()
                            .unwrap_or_else(|| shared.net.tenant_gauge(tenant));
                        shared
                            .session_gauges
                            .lock()
                            .expect("session gauge map poisoned")
                            .insert(session.raw(), gauge);
                    }
                    Ok(Response::Decision { outcome, .. }) => {
                        if let Some(gauge) = &job.gauge {
                            gauge.record_decision(outcome.ossp_utility);
                        }
                    }
                    Ok(Response::DayClosed { session, .. }) => {
                        shared
                            .session_gauges
                            .lock()
                            .expect("session gauge map poisoned")
                            .remove(&session.raw());
                    }
                    Err(_) => {}
                }
                result.map_err(|e| WireError::from(&e))
            }
            Handled::Replayed(response) => {
                let response = router.to_cluster(response, shard_index);
                // Nothing was re-applied, so no per-tenant decision stats —
                // but a replayed DayOpened must (re-)register the session's
                // gauge: after a crash+recover the map starts empty, and the
                // session is live again.
                if let Response::DayOpened { session, tenant } = &response {
                    let gauge = shared.net.tenant_gauge(tenant);
                    shared
                        .session_gauges
                        .lock()
                        .expect("session gauge map poisoned")
                        .insert(session.raw(), gauge);
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
        };
        if let Some(gauge) = &job.gauge {
            gauge.release();
        }
        // A dead connection just drops its replies; nothing to do here.
        let _ = job
            .reply
            .send(encode_reply_capped(job.request_id, &reply, MAX_FRAME));
    }
}

/// Dispatch one accepted connection: protocol handshake or metrics scrape.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    config: &ServerConfig,
    job_txs: &[SyncSender<Job>],
) {
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
    if let Ok(registered) = stream.try_clone() {
        shared
            .conns
            .lock()
            .expect("connection registry poisoned")
            .push(registered);
    }
    serve_protocol(stream, shared, config, job_txs);
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

/// Reader half of one protocol connection (spawns its paired writer).
fn serve_protocol(
    stream: TcpStream,
    shared: &Shared,
    config: &ServerConfig,
    job_txs: &[SyncSender<Job>],
) {
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    // FIFO of one-shot reply receivers: arrival order in, reply order out.
    let (slot_tx, slot_rx) = std::sync::mpsc::channel::<Receiver<Bytes>>();
    let writer = {
        let net = shared.net.clone();
        thread::Builder::new()
            .name("sag-conn-writer".into())
            .spawn(move || {
                // Buffer so header + payload leave as one packet per frame.
                let mut writer = std::io::BufWriter::new(write_stream);
                for slot in slot_rx {
                    let Ok(bytes) = slot.recv() else { continue };
                    if write_frame(&mut writer, &bytes).is_err() {
                        break;
                    }
                    // Count before the flush makes the frame visible to the
                    // peer, so a client that scrapes metrics right after its
                    // last reply never reads a counter lagging behind it.
                    net.frames_out.fetch_add(1, Ordering::Relaxed);
                    if writer.flush().is_err() {
                        break;
                    }
                }
                if let Ok(stream) = writer.into_inner() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            })
    };

    let mut stream = stream;
    let reply_now = |request_id: u64, reply: &Reply| {
        let (tx, rx) = std::sync::mpsc::channel();
        let _ = tx.send(encode_reply(request_id, reply));
        let _ = slot_tx.send(rx);
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            // Clean close, socket death, or a timeout.
            Ok(None) | Err(NetError::Io(_)) | Err(NetError::Timeout { .. }) => break,
            Err(NetError::Codec(_)) => {
                // A torn, oversized or CRC-corrupt frame: the stream offset
                // can no longer be trusted, so any reply might answer bytes
                // the client never sent. Close without one — the client
                // sees a dead transport and safely retries under the same
                // request id.
                shared.net.decode_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        };
        shared.net.frames_in.fetch_add(1, Ordering::Relaxed);
        let (request_id, envelope_tenant, request) = match decode_request(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                // The frame checksummed, so the stream is still in sync and
                // this is a genuine client bug, not line noise: answer the
                // bad payload structurally and keep serving.
                shared.net.decode_errors.fetch_add(1, Ordering::Relaxed);
                reply_now(0, &Err(WireError::BadRequest(e.to_string())));
                continue;
            }
        };
        if let Request::OpenDay { tenant, .. } = &request {
            if *tenant != envelope_tenant {
                reply_now(
                    request_id,
                    &Err(WireError::BadRequest(format!(
                        "envelope tenant {envelope_tenant} does not match OpenDay tenant {tenant}"
                    ))),
                );
                continue;
            }
        }

        let gauge: Option<Arc<TenantGauge>> = match &request {
            Request::OpenDay { tenant, .. } => Some(shared.net.tenant_gauge(tenant)),
            Request::PushAlert { session, .. } | Request::FinishDay { session } => shared
                .session_gauges
                .lock()
                .expect("session gauge map poisoned")
                .get(&session.raw())
                .cloned(),
        };
        if let Some(gauge) = &gauge {
            if let Err(pending) = gauge.try_admit(config.tenant_pending_limit) {
                shared.net.shed.fetch_add(1, Ordering::Relaxed);
                reply_now(
                    request_id,
                    &Err(WireError::Overloaded {
                        tenant: gauge.tenant().as_str().to_owned(),
                        pending: pending as u64,
                        limit: config.tenant_pending_limit as u64,
                    }),
                );
                continue;
            }
        }
        // Route to the owning shard: OpenDay by tenant hash, session
        // requests by the shard encoded in the session id itself.
        let shard = shared.router.shard_for_request(&request);
        let (tx, rx) = std::sync::mpsc::channel();
        let job = Job {
            request_id,
            tenant: envelope_tenant,
            request,
            reply: tx,
            gauge: gauge.clone(),
        };
        match job_txs[shard].try_send(job) {
            Ok(()) => {
                shared.net.queue_depth.fetch_add(1, Ordering::Relaxed);
                let _ = slot_tx.send(rx);
            }
            Err(TrySendError::Full(_)) => {
                if let Some(gauge) = &gauge {
                    gauge.release();
                }
                shared.net.shed.fetch_add(1, Ordering::Relaxed);
                let tenant = gauge
                    .as_ref()
                    .map_or("", |g| g.tenant().as_str())
                    .to_owned();
                reply_now(
                    request_id,
                    &Err(WireError::Overloaded {
                        tenant,
                        pending: config.queue_capacity as u64,
                        limit: config.queue_capacity as u64,
                    }),
                );
            }
            // The server is shutting down; stop reading.
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    drop(slot_tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
}
