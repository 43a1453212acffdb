//! Service-level errors: everything that can go wrong between "a request
//! arrived" and "a plan (or refusal) went back".

use std::fmt;

use p2_core::P2Error;

/// Why a plan request failed. `Clone + PartialEq` so one synthesis failure
/// can fan out to every coalesced waiter and tests can assert on exact
/// variants.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The underlying pipeline rejected or failed the experiment.
    Pipeline(P2Error),
    /// The admission queue was full; the request was refused *before* any
    /// work was queued. Back off and retry.
    Overloaded {
        /// Queue depth observed at refusal.
        queue_depth: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
    /// The planner is shutting down; queued and future requests drain with
    /// this error.
    ShuttingDown,
    /// The persistent store failed (I/O or a corrupt/incompatible record).
    Store(String),
    /// A wire message could not be parsed or validated.
    Protocol(String),
    /// The request exceeds an admission limit (see
    /// [`MAX_PROGRAM_SIZE`](crate::MAX_PROGRAM_SIZE)); it was refused before
    /// any work was queued.
    Limit(String),
    /// The synthesis batch serving the request panicked. The planner drops
    /// the batch's search tables and keeps serving, so the same request can
    /// be sent again.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ServiceError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "planner overloaded: {queue_depth} queued requests at capacity {capacity}"
            ),
            ServiceError::ShuttingDown => write!(f, "planner is shutting down"),
            ServiceError::Store(msg) => write!(f, "plan store error: {msg}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Limit(msg) => write!(f, "request over a limit: {msg}"),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<P2Error> for ServiceError {
    fn from(error: P2Error) -> Self {
        ServiceError::Pipeline(error)
    }
}
