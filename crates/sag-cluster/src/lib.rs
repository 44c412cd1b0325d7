//! # sag-cluster — horizontal tenant sharding for the SAG audit service
//!
//! The paper's online signaling scheme is per-tenant-independent by
//! construction: each tenant's audit game solves against its own history,
//! budget and alert stream. This crate exploits that to scale the
//! [`sag_service::AuditService`] front door horizontally:
//!
//! * [`ShardRouter`] — a stateless consistent hash placing every
//!   [`sag_service::TenantId`] on exactly one of N shards, plus the
//!   session-id bijection (`cluster = local × N + shard`) that lets shards
//!   mint ids without coordinating.
//! * [`ClusterBuilder`] / [`ClusterService`] — N fully independent
//!   `AuditService` shards (own engines, own worker pool, own counters,
//!   own WAL directory) behind the same typed
//!   [`Request`](sag_service::Request)/[`Response`](sag_service::Response)
//!   API as the unsharded service.
//!
//! Because shards never share state, per-tenant results are
//! **bitwise-identical regardless of shard count** — the registry-wide
//! suites in `sag-scenarios` replay every scenario at 1/2/4/8 shards
//! against the unsharded control — and recovery is **shard-local**: one
//! shard's crash is recovered from `<dir>/shard-<i>` with
//! [`ClusterBuilder::recover_shard`] while every other shard keeps serving.
//!
//! The network front door lives in `sag-net`: `Server::start_cluster` puts
//! each shard behind its own lock on one listener, where every connection
//! thread serves its requests on the owning shard, with `/metrics` and
//! `/healthz` aggregating across shards.

#![forbid(unsafe_code)]

mod cluster;
mod router;

pub use cluster::{shard_wal_dir, ClusterBuilder, ClusterService};
pub use router::ShardRouter;
