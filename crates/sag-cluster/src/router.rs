//! Deterministic tenant → shard assignment and the session-id arithmetic
//! that lets N independent shards mint ids without coordinating.
//!
//! ## Tenant placement
//!
//! A [`ShardRouter`] hashes the tenant id's bytes with FNV-1a and reduces
//! modulo the shard count. The map is **total** (every tenant id lands on
//! exactly one shard) and **deterministic** (a pure function of the id
//! string and the shard count), so any process that knows the shard count —
//! a fresh router after a restart, the load generator on the other side of
//! a socket — computes the same placement with no shared state.
//!
//! ## Session-id translation
//!
//! Each shard's [`sag_service::AuditService`] mints its own dense local
//! session ids starting at 0. The cluster-visible id interleaves them:
//!
//! ```text
//! cluster_id = local_id * num_shards + shard_index
//! shard      = cluster_id % num_shards
//! local_id   = cluster_id / num_shards
//! ```
//!
//! The encoding is a bijection, so cluster ids never collide across shards,
//! the owning shard is recoverable from the id alone (no routing table),
//! and — because WAL recovery rebuilds each shard's local id sequence
//! exactly — a cluster id stays valid across a crash and
//! `recover_from` of its shard. With one shard the translation is the
//! identity, so a 1-shard cluster is bitwise the unsharded service.

use sag_service::{AuditService, Handled, Request, Response, ServiceError, SessionId, TenantId};

/// FNV-1a over the tenant id's UTF-8 bytes: tiny, dependency-free, and
/// stable across platforms and releases (the placement is part of the WAL
/// directory layout, so it must never drift).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Pure tenant → shard placement plus the cluster/local session-id
/// bijection. `Copy`, stateless, and cheap enough to keep per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards (clamped to at least 1).
    #[must_use]
    pub fn new(shards: usize) -> ShardRouter {
        ShardRouter {
            shards: shards.max(1),
        }
    }

    /// How many shards this router spreads tenants across.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns `tenant` — total and deterministic.
    #[must_use]
    pub fn shard_for(&self, tenant: &TenantId) -> usize {
        (fnv1a(tenant.as_str().as_bytes()) % self.shards as u64) as usize
    }

    /// The shard that minted the cluster-form `session` id.
    #[must_use]
    pub fn shard_for_session(&self, session: SessionId) -> usize {
        (session.raw() % self.shards as u64) as usize
    }

    /// The shard a request must be served by: `OpenDay` goes to its
    /// tenant's shard, session-scoped commands go to the shard encoded in
    /// the session id (which, for ids the cluster minted, is the same
    /// shard — a tenant's sessions always live where the tenant does).
    #[must_use]
    pub fn shard_for_request(&self, request: &Request) -> usize {
        match request {
            Request::OpenDay { tenant, .. } => self.shard_for(tenant),
            Request::PushAlert { session, .. } | Request::FinishDay { session } => {
                self.shard_for_session(*session)
            }
        }
    }

    /// Encode a shard-local session id as its cluster-visible form.
    #[must_use]
    pub fn to_cluster_session(&self, local: SessionId, shard: usize) -> SessionId {
        SessionId::from_raw(local.raw() * self.shards as u64 + shard as u64)
    }

    /// Decode a cluster-visible session id to the owning shard's local id.
    #[must_use]
    pub fn to_local_session(&self, cluster: SessionId) -> SessionId {
        SessionId::from_raw(cluster.raw() / self.shards as u64)
    }

    /// Rewrite a request's session ids from cluster form to the local form
    /// the owning shard understands. Must only be handed to the shard
    /// [`shard_for_request`](Self::shard_for_request) names: translating
    /// for any other shard would alias an unrelated local id.
    #[must_use]
    pub fn to_local(&self, request: Request) -> Request {
        match request {
            open @ Request::OpenDay { .. } => open,
            Request::PushAlert { session, alert } => Request::PushAlert {
                session: self.to_local_session(session),
                alert,
            },
            Request::FinishDay { session } => Request::FinishDay {
                session: self.to_local_session(session),
            },
        }
    }

    /// Rewrite a response's session ids from `shard`'s local form to the
    /// cluster-visible form clients hold.
    #[must_use]
    pub fn to_cluster(&self, response: Response, shard: usize) -> Response {
        match response {
            Response::DayOpened { session, tenant } => Response::DayOpened {
                session: self.to_cluster_session(session, shard),
                tenant,
            },
            Response::Decision { session, outcome } => Response::Decision {
                session: self.to_cluster_session(session, shard),
                outcome,
            },
            Response::DayClosed {
                session,
                tenant,
                result,
            } => Response::DayClosed {
                session: self.to_cluster_session(session, shard),
                tenant,
                result,
            },
        }
    }

    /// Rewrite the session id inside a shard's error to cluster form, so a
    /// rejected request echoes the id the caller actually sent.
    #[must_use]
    pub fn to_cluster_error(&self, error: ServiceError, shard: usize) -> ServiceError {
        match error {
            ServiceError::UnknownSession(session) => {
                ServiceError::UnknownSession(self.to_cluster_session(session, shard))
            }
            other => other,
        }
    }

    /// Serve a cluster-form tagged request on `service`, the shard
    /// [`shard_for_request`](Self::shard_for_request) names: translate it
    /// to local ids ([`to_local`](Self::to_local)), call
    /// [`AuditService::handle_tagged`], and translate the applied or
    /// replayed response, or the error, back to cluster form. Both front
    /// doors, `ClusterService` and the `sag-net` server, serve through it.
    pub fn handle_tagged(
        &self,
        service: &mut AuditService,
        shard: usize,
        tenant: &TenantId,
        request_id: u64,
        request: Request,
    ) -> Handled {
        match service.handle_tagged(tenant, request_id, self.to_local(request)) {
            Handled::Applied(result) => Handled::Applied(
                result
                    .map(|response| self.to_cluster(response, shard))
                    .map_err(|error| self.to_cluster_error(error, shard)),
            ),
            Handled::Replayed(response) => Handled::Replayed(self.to_cluster(response, shard)),
            stale @ Handled::Stale { .. } => stale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_total_and_deterministic() {
        for shards in [1usize, 2, 3, 4, 8, 16] {
            let router = ShardRouter::new(shards);
            for t in 0..200 {
                let tenant = TenantId::new(format!("tenant-{t}"));
                let first = router.shard_for(&tenant);
                assert!(first < shards, "{tenant} escaped the ring");
                assert_eq!(first, router.shard_for(&tenant), "placement drifted");
                assert_eq!(first, ShardRouter::new(shards).shard_for(&tenant));
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let router = ShardRouter::new(0);
        assert_eq!(router.num_shards(), 1);
        assert_eq!(router.shard_for(&TenantId::from("t")), 0);
    }

    #[test]
    fn session_translation_is_a_bijection() {
        for shards in [1usize, 2, 4, 8] {
            let router = ShardRouter::new(shards);
            let mut seen = std::collections::HashSet::new();
            for shard in 0..shards {
                for local in 0..64u64 {
                    let cluster = router.to_cluster_session(SessionId::from_raw(local), shard);
                    assert!(seen.insert(cluster.raw()), "cluster ids collided");
                    assert_eq!(router.shard_for_session(cluster), shard);
                    assert_eq!(router.to_local_session(cluster).raw(), local);
                }
            }
        }
    }

    #[test]
    fn one_shard_translation_is_the_identity() {
        let router = ShardRouter::new(1);
        for raw in [0u64, 1, 7, 1 << 40] {
            let id = SessionId::from_raw(raw);
            assert_eq!(router.to_cluster_session(id, 0), id);
            assert_eq!(router.to_local_session(id), id);
        }
    }

    #[test]
    fn request_routing_follows_the_encoded_shard() {
        let router = ShardRouter::new(4);
        let request = Request::FinishDay {
            session: SessionId::from_raw(4 * 5 + 3),
        };
        assert_eq!(router.shard_for_request(&request), 3);
        match router.to_local(request) {
            Request::FinishDay { session } => assert_eq!(session.raw(), 5),
            other => panic!("translation changed the variant: {other:?}"),
        }
    }
}
