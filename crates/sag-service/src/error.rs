//! Structured service-level errors.

use crate::service::TenantId;
use crate::session::SessionId;
use sag_core::SagError;
use std::fmt;

/// Why a service request could not be served.
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm, so
/// the taxonomy can grow (quotas, auth, backpressure) without a breaking
/// release. Engine-level causes stay fully structured through the wrapped
/// [`SagError`] — configuration problems carry their
/// [`sag_core::ConfigError`] all the way up to the front door.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The request named a tenant the service has never registered.
    UnknownTenant(TenantId),
    /// [`crate::ServiceBuilder`] was given the same tenant id twice.
    DuplicateTenant(TenantId),
    /// The request named a session that is not open (never opened, already
    /// finished, or checked out to a caller).
    UnknownSession(SessionId),
    /// The tenant's inbound queue is full: the request was shed *before*
    /// touching any session state and can be retried once the backlog
    /// drains. Raised by transports in front of the service (the `sag-net`
    /// server's bounded per-tenant queues), never by the in-process paths —
    /// it lives in this taxonomy so the wire codec and the facade error
    /// carry shedding as a structured, matchable variant.
    Overloaded {
        /// The tenant whose queue is full.
        tenant: TenantId,
        /// Requests already queued or in flight for the tenant.
        pending: usize,
        /// The configured per-tenant bound the request would have exceeded.
        limit: usize,
    },
    /// The engine rejected the operation; the payload says exactly why.
    Engine(SagError),
    /// The durability layer failed: the mutation was **not** logged and
    /// therefore was not applied — log-before-acknowledge means a WAL
    /// failure rejects the request instead of silently dropping
    /// durability. Carries the structured [`sag_wal::WalError`].
    Wal(sag_wal::WalError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTenant(tenant) => write!(f, "unknown tenant {tenant}"),
            ServiceError::DuplicateTenant(tenant) => {
                write!(f, "tenant {tenant} is already registered")
            }
            ServiceError::UnknownSession(session) => write!(f, "no open session {session}"),
            ServiceError::Overloaded {
                tenant,
                pending,
                limit,
            } => write!(
                f,
                "tenant {tenant} overloaded: {pending} requests pending (limit {limit}); retry later"
            ),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Wal(e) => write!(f, "durability error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            ServiceError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sag_wal::WalError> for ServiceError {
    fn from(e: sag_wal::WalError) -> Self {
        ServiceError::Wal(e)
    }
}

impl From<SagError> for ServiceError {
    fn from(e: SagError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<sag_core::ConfigError> for ServiceError {
    fn from(e: sag_core::ConfigError) -> Self {
        ServiceError::Engine(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_core::ConfigError;

    #[test]
    fn display_names_the_cause() {
        let err = ServiceError::UnknownTenant(TenantId::from("icu"));
        assert!(err.to_string().contains("icu"), "{err}");
        let err = ServiceError::Engine(ConfigError::EmptyPayoffTable.into());
        assert!(err.to_string().contains("payoff table"), "{err}");
    }

    #[test]
    fn engine_errors_chain_their_source() {
        use std::error::Error as _;
        let err: ServiceError = SagError::NoFeasibleType.into();
        assert!(err.source().is_some());
        assert!(ServiceError::UnknownSession(SessionId(0))
            .source()
            .is_none());
    }
}
