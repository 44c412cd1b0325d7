//! Per-tenant duplicate suppression for the tagged command API.
//!
//! A networked client resolves an *ambiguous* failure (request sent, reply
//! lost) by re-sending the same request under the same id. The service must
//! therefore be able to tell "new command" from "redelivery of one I
//! already applied" — and answer the latter with the *original* response,
//! bitwise, instead of applying it twice. The crate-private `DedupWindow` is
//! that memory: a bounded ring of `(request_id, Response)` pairs per tenant plus the
//! highest id ever applied.
//!
//! Ids are assigned by the client, per tenant, monotonically increasing
//! from 1; id 0 is the untagged sentinel (in-process callers that need no
//! exactly-once contract). Only **successful** responses enter the window:
//! an errored request applied nothing, so re-executing it is safe — and
//! necessary, since a transient failure (a full disk failing a WAL append)
//! must stay retryable rather than replaying the stale error forever.

use crate::error::ServiceError;
use crate::request::Response;
use std::collections::VecDeque;

/// Each tenant's dedup window, in responses; the bound is fixed. Deep
/// enough to cover every plausible in-flight pipeline; small enough that a
/// thousand tenants cost trivial memory.
pub const DEFAULT_DEDUP_WINDOW: usize = 256;

/// The outcome of [`crate::AuditService::handle_tagged`]: what the service
/// did with a tagged request.
#[derive(Debug)]
pub enum Handled {
    /// First delivery: the command was applied (or rejected) normally.
    Applied(Result<Response, ServiceError>),
    /// Duplicate delivery: the cached response from the first application,
    /// replayed bitwise. Nothing was re-applied.
    Replayed(Response),
    /// Duplicate delivery of a request applied so long ago its cached
    /// response fell out of the window. Nothing was re-applied, but the
    /// original response is gone — a correctly backing-off client never
    /// sees this.
    Stale {
        /// The duplicate's id.
        request_id: u64,
        /// The highest id this tenant has had applied.
        last_applied: u64,
    },
}

/// What a window lookup found for an incoming id.
#[derive(Debug)]
pub(crate) enum Lookup {
    /// Never seen: apply it.
    New,
    /// Applied before, response still cached.
    Replayed(Response),
    /// Applied before, response evicted.
    Stale {
        /// The highest id this tenant has had applied.
        last_applied: u64,
    },
}

/// One tenant's dedup memory. See the module docs for the contract.
#[derive(Debug, Default)]
pub(crate) struct DedupWindow {
    /// Highest request id successfully applied for this tenant.
    last_applied: u64,
    /// Cached `(id, response)` pairs, oldest first; the service keeps at
    /// most [`DEFAULT_DEDUP_WINDOW`] of them.
    entries: VecDeque<(u64, Response)>,
}

impl DedupWindow {
    /// Classify an incoming id against this window.
    pub(crate) fn lookup(&self, request_id: u64) -> Lookup {
        if let Some((_, response)) = self.entries.iter().find(|(id, _)| *id == request_id) {
            return Lookup::Replayed(response.clone());
        }
        if request_id <= self.last_applied {
            return Lookup::Stale {
                last_applied: self.last_applied,
            };
        }
        Lookup::New
    }

    /// Record a successfully applied response, evicting the oldest entry
    /// beyond `capacity`. The service always passes
    /// [`DEFAULT_DEDUP_WINDOW`]; the argument is kept so the unit tests can
    /// exercise eviction with a small window.
    pub(crate) fn record(&mut self, request_id: u64, response: Response, capacity: usize) {
        self.last_applied = self.last_applied.max(request_id);
        self.entries.push_back((request_id, response));
        while self.entries.len() > capacity.max(1) {
            self.entries.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionId;
    use crate::TenantId;

    fn opened(session: u64) -> Response {
        Response::DayOpened {
            session: SessionId::from_raw(session),
            tenant: TenantId::from("t"),
        }
    }

    #[test]
    fn lookup_distinguishes_new_replayed_and_stale() {
        let mut window = DedupWindow::default();
        assert!(matches!(window.lookup(1), Lookup::New));
        window.record(1, opened(10), 2);
        window.record(2, opened(11), 2);
        assert!(matches!(window.lookup(3), Lookup::New));
        match window.lookup(1) {
            Lookup::Replayed(Response::DayOpened { session, .. }) => {
                assert_eq!(session, SessionId::from_raw(10));
            }
            other => panic!("expected a replay, got {other:?}"),
        }
        // A third record evicts id 1; its redelivery is now stale.
        window.record(3, opened(12), 2);
        assert!(
            matches!(window.lookup(1), Lookup::Stale { last_applied: 3 }),
            "evicted id must classify stale"
        );
        assert!(matches!(window.lookup(3), Lookup::Replayed(_)));
    }

    #[test]
    fn capacity_is_enforced_and_never_below_one() {
        let mut window = DedupWindow::default();
        for id in 1..=10 {
            window.record(id, opened(id), 0);
        }
        assert_eq!(window.last_applied, 10);
        assert!(matches!(window.lookup(10), Lookup::Replayed(_)));
        assert!(matches!(window.lookup(9), Lookup::Stale { .. }));
    }
}
