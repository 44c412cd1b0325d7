//! # sag-net — the network front door of the SAG workspace
//!
//! [`sag_service::AuditService`] multiplexes any number of tenants'
//! audit cycles behind a typed in-process API. This crate puts that API on
//! a socket: a threaded TCP [`Server`] speaking a length-prefixed,
//! CRC-checked binary [`codec`] for the service's
//! [`Request`](sag_service::Request)/[`Response`](sag_service::Response)
//! enums, a blocking [`Client`], and live observability.
//!
//! Three properties define the design:
//!
//! * **Bounded everywhere.** Every shard bounds the requests admitted on
//!   it and not yet served, and every tenant has an admission quota; when
//!   either fills, the request is *shed* with a structured
//!   [`WireError::Overloaded`] reply instead of blocking the socket or
//!   growing a queue — see [`server`] for the policy.
//! * **Bitwise-faithful transport.** `f64`s travel as IEEE-754 bits, so a
//!   [`CycleResult`](sag_core::CycleResult) decoded off the wire compares
//!   `==` to one computed in-process (the loopback integration test holds
//!   exactly this).
//! * **Lock-free observability.** The service hot path updates
//!   [`sag_service::ServiceCounters`]; the transport updates
//!   [`NetMetrics`]. `curl http://host:port/` against the protocol port
//!   renders both as plaintext — same listener, no HTTP stack.
//!
//! ```no_run
//! use sag_core::EngineBuilder;
//! use sag_net::{Client, ClientConfig, RetryPolicy, Server, ServerConfig};
//! use sag_service::AuditService;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = AuditService::builder()
//!     .tenant("icu", EngineBuilder::paper_multi_type())
//!     .build()?;
//! let server = Server::start(service, "127.0.0.1:0", ServerConfig::default())?;
//!
//! // Deadlines + retries are explicit: this client gives up on a wedged
//! // server after 2s per read and resolves ambiguous failures by
//! // re-sending the same request id (the server dedups).
//! let config = ClientConfig {
//!     read_timeout: Duration::from_secs(2),
//!     retry: RetryPolicy { max_attempts: 4, ..RetryPolicy::default() },
//!     ..ClientConfig::default()
//! };
//! let mut client = Client::connect_with(server.local_addr(), "icu", config)?;
//! let session = client.open_day(None, None)?;
//! // ... push alerts, then:
//! let result = client.finish_day(session)?;
//! # let _ = result;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod codec;
pub mod metrics;
pub mod server;

pub use chaos::{ChaosPlan, ChaosProxy, Direction, Fault, RandomChaos};
pub use client::{
    fetch_health, fetch_metrics, Client, ClientConfig, ClientError, ClientStats, RetryPolicy,
};
pub use codec::{CodecError, NetError, Reply, WireError, MAGIC, MAX_FRAME, VERSION};
pub use metrics::{parse_metric, NetMetrics, TenantGauge};
pub use server::{Server, ServerConfig};
