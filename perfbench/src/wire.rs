//! The load generator: one thread, one connection, a closed loop of
//! tenant-days in flight.
//!
//! Each of [`CONCURRENCY`] callers drives one tenant-day — `OpenDay`, the
//! day's alerts in order, `FinishDay` — sending its next request only after
//! the previous reply arrived, then takes the next tenant-day of the pool.
//! All callers share the connection, so up to [`CONCURRENCY`] requests are
//! pipelined; the server answers in request order, and the generator
//! matches each reply to the oldest request in flight.

use crate::check::{same_outcome, same_result};
use crate::stats::median_f64;
use crate::trace;
use crate::workload::PoolEntry;
use sag_net::codec::{decode_reply, encode_request, read_frame, write_frame};
use sag_net::{NetError, Server};
use sag_service::{Request, Response, SessionId};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Tenant-days in flight.
pub const CONCURRENCY: usize = 8;

/// Unrecorded lead-in before each measured window.
pub const WARMUP: Duration = Duration::from_secs(1);

/// How long the generator waits on one reply before declaring the server
/// wedged.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// What one pass over the wire measured.
///
/// The window is cut into slices of about a second, and every figure is
/// kept per slice. A pass reports the median over slices: a host stall
/// that spans less than half the window does not move it, while a slower
/// program slows most slices and shows.
#[derive(Debug, Default)]
pub struct PassStats {
    /// Round trips of `PushAlert` requests sent in the window, ns, by the
    /// slice they were sent in.
    pub decision_ns: Vec<Vec<u64>>,
    /// Decisions received in each slice.
    pub decisions_per_slice: Vec<u64>,
    /// Length of one slice, seconds.
    pub slice_s: f64,
    /// Round trips of `OpenDay` requests sent in the window, ns, by slice.
    pub open_ns: Vec<Vec<u64>>,
    /// Round trips of `FinishDay` requests sent in the window, ns, by slice.
    pub close_ns: Vec<Vec<u64>>,
    /// Requests answered in the pass, warm-up included.
    pub attempted: u64,
    /// Of those: refused, failed, or answered differently from the
    /// in-process replay.
    pub failed: u64,
    /// First failure, rendered.
    pub first_failure: Option<String>,
    /// Server queue depth sampled at each reply (traced passes only).
    pub queue_depth: Vec<usize>,
}

impl PassStats {
    /// Decisions per second, median over slices.
    #[must_use]
    pub fn alerts_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .decisions_per_slice
            .iter()
            .map(|&n| n as f64 / self.slice_s)
            .collect();
        median_f64(&rates)
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(message);
        }
    }
}

/// How a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    /// The measured window, after [`WARMUP`].
    pub window: Duration,
    /// Record spans (into the installed tracer) and sample queue depth.
    pub traced: bool,
    /// Fault injection for the smoke tests: flip a bit of the n-th decision
    /// received (0-based) before checking it.
    pub corrupt_decision: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    Push(usize),
    Close,
}

impl Kind {
    fn span_name(self) -> &'static str {
        match self {
            Kind::Open => "wire.open",
            Kind::Push(_) => "wire.push",
            Kind::Close => "wire.close",
        }
    }
}

struct InFlight {
    slot: usize,
    kind: Kind,
    request_id: u64,
    sent: Instant,
    span: Option<u32>,
}

/// One caller: the pool entry it drives and that day's session.
#[derive(Clone, Copy)]
struct Slot {
    entry: usize,
    session: SessionId,
}

/// The generator: a connection plus the per-tenant request-id counters and
/// pool cursor, which persist across passes on the same server.
pub struct Generator<'p> {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    frame: Vec<u8>,
    pool: &'p [PoolEntry],
    next_id: Vec<u64>,
    cursor: usize,
    decisions_seen: u64,
}

impl<'p> Generator<'p> {
    /// Drive `pool` over `stream` (handshake already sent).
    ///
    /// # Errors
    ///
    /// Socket configuration failures.
    pub fn new(stream: TcpStream, pool: &'p [PoolEntry]) -> Result<Self, String> {
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("set_read_timeout failed: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone failed: {e}"))?;
        Ok(Generator {
            reader: BufReader::new(stream),
            writer,
            frame: Vec::with_capacity(256),
            pool,
            next_id: vec![1; pool.len()],
            cursor: 0,
            decisions_seen: 0,
        })
    }

    /// Run one pass: [`WARMUP`] unrecorded, then the measured window; stop
    /// sending when the window closes and drain the replies in flight.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures that leave the connection unusable
    /// (a refused request or a wrong answer is counted, not returned).
    pub fn run_pass(&mut self, server: &Server, config: &PassConfig) -> Result<PassStats, String> {
        let window_start = Instant::now() + WARMUP;
        let window_end = window_start + config.window;
        let slices = (config.window.as_secs_f64().round() as usize).max(1);
        let slice_s = config.window.as_secs_f64() / slices as f64;
        let slice_of = |t: Instant| {
            let offset = t.saturating_duration_since(window_start).as_secs_f64();
            ((offset / slice_s) as usize).min(slices - 1)
        };
        let mut stats = PassStats {
            decision_ns: vec![Vec::new(); slices],
            decisions_per_slice: vec![0; slices],
            open_ns: vec![Vec::new(); slices],
            close_ns: vec![Vec::new(); slices],
            slice_s,
            ..PassStats::default()
        };
        let idle = Slot {
            entry: 0,
            session: SessionId::from_raw(0),
        };
        let mut slots = vec![idle; CONCURRENCY];
        let mut in_flight = VecDeque::with_capacity(CONCURRENCY);
        // Callers join one by one, a fraction of a day apart, so their days
        // (all of similar length) do not open and close in lockstep.
        let alerts: usize = self.pool.iter().map(|e| e.day.len()).sum();
        let stagger = (alerts / self.pool.len() / CONCURRENCY) as u64;
        let mut started = 0;
        let mut decisions = 0u64;
        loop {
            while started < CONCURRENCY
                && decisions >= started as u64 * stagger
                && Instant::now() < window_end
            {
                slots[started].entry = self.next_entry();
                self.send_request(started, &slots, Kind::Open, &mut in_flight, config)?;
                started += 1;
            }
            let Some(front) = in_flight.pop_front() else {
                break;
            };
            let payload = match read_frame(&mut self.reader) {
                Ok(Some(payload)) => payload,
                Ok(None) => return Err("server closed the connection".to_owned()),
                Err(NetError::Timeout { .. }) => {
                    return Err(format!("no reply within {READ_TIMEOUT:?}"))
                }
                Err(e) => return Err(format!("reply read failed: {e}")),
            };
            let received = Instant::now();
            let (request_id, reply) =
                decode_reply(&payload).map_err(|e| format!("reply decode failed: {e}"))?;
            if let Some(span) = front.span {
                let decoded = Instant::now();
                trace::record("client.decode", received, decoded, Some(span));
                trace::close(span, decoded);
            }
            if config.traced {
                // The server raises the gauge just after queueing a job, so
                // the service thread can take the job first and the gauge
                // reads -1, wrapped, for a moment: the queue is empty then.
                let depth = server.net_metrics().queue_depth() as isize;
                stats.queue_depth.push(depth.max(0) as usize);
            }
            if request_id != front.request_id {
                return Err(format!(
                    "reply for request {request_id} while waiting on {}",
                    front.request_id
                ));
            }
            stats.attempted += 1;
            let sampled = front.sent >= window_start;
            let elapsed = received.duration_since(front.sent).as_nanos() as u64;
            let pool = self.pool;
            let entry = &pool[slots[front.slot].entry];
            let next = match (front.kind, reply) {
                (Kind::Open, Ok(Response::DayOpened { session, .. })) => {
                    if sampled {
                        stats.open_ns[slice_of(front.sent)].push(elapsed);
                    }
                    slots[front.slot].session = session;
                    Some(if entry.day.is_empty() {
                        Kind::Close
                    } else {
                        Kind::Push(0)
                    })
                }
                (Kind::Push(index), Ok(Response::Decision { mut outcome, .. })) => {
                    if config.corrupt_decision == Some(self.decisions_seen) {
                        outcome.ossp_utility = f64::from_bits(outcome.ossp_utility.to_bits() ^ 1);
                    }
                    self.decisions_seen += 1;
                    decisions += 1;
                    if sampled {
                        stats.decision_ns[slice_of(front.sent)].push(elapsed);
                    }
                    if received >= window_start && received < window_end {
                        stats.decisions_per_slice[slice_of(received)] += 1;
                    }
                    if !same_outcome(&outcome, &entry.expected.outcomes[index]) {
                        stats.fail(format!(
                            "{}: decision {index} differs from the in-process replay",
                            entry.tenant
                        ));
                    }
                    Some(if index + 1 < entry.day.len() {
                        Kind::Push(index + 1)
                    } else {
                        Kind::Close
                    })
                }
                (Kind::Close, Ok(Response::DayClosed { result, .. })) => {
                    if sampled {
                        stats.close_ns[slice_of(front.sent)].push(elapsed);
                    }
                    if result.len() != entry.day.len() || !same_result(&result, &entry.expected) {
                        stats.fail(format!(
                            "{}: closed day ({} outcomes for {} alerts) differs from the in-process replay",
                            entry.tenant,
                            result.len(),
                            entry.day.len()
                        ));
                    }
                    None
                }
                (kind, Err(e)) => {
                    stats.fail(format!("{}: {kind:?} refused: {e}", entry.tenant));
                    None
                }
                (kind, Ok(_)) => {
                    stats.fail(format!("{}: {kind:?} answered out of kind", entry.tenant));
                    None
                }
            };
            if received >= window_end {
                continue;
            }
            let kind = next.unwrap_or_else(|| {
                slots[front.slot].entry = self.next_entry();
                Kind::Open
            });
            self.send_request(front.slot, &slots, kind, &mut in_flight, config)?;
        }
        Ok(stats)
    }

    /// The next tenant-day of the pool, round robin.
    fn next_entry(&mut self) -> usize {
        let entry = self.cursor;
        self.cursor = (self.cursor + 1) % self.pool.len();
        entry
    }

    /// Encode and send `slot`'s next request.
    fn send_request(
        &mut self,
        slot: usize,
        slots: &[Slot],
        kind: Kind,
        in_flight: &mut VecDeque<InFlight>,
        config: &PassConfig,
    ) -> Result<(), String> {
        let Slot { entry, session } = slots[slot];
        let pool = self.pool;
        let day = &pool[entry];
        let request = match kind {
            Kind::Open => day.open_request(),
            Kind::Push(index) => Request::PushAlert {
                session,
                alert: day.day.alerts()[index],
            },
            Kind::Close => Request::FinishDay { session },
        };
        let request_id = self.next_id[entry];
        self.next_id[entry] += 1;
        let sent = Instant::now();
        self.frame.clear();
        let payload = encode_request(request_id, &day.tenant, &request);
        write_frame(&mut self.frame, &payload).map_err(|e| format!("frame write failed: {e}"))?;
        let encoded = Instant::now();
        self.writer
            .write_all(&self.frame)
            .map_err(|e| format!("socket write failed: {e}"))?;
        let span = if config.traced {
            trace::open(kind.span_name(), sent)
        } else {
            None
        };
        if span.is_some() {
            trace::record("client.encode", sent, encoded, span);
        }
        in_flight.push_back(InFlight {
            slot,
            kind,
            request_id,
            sent,
            span,
        });
        Ok(())
    }
}
