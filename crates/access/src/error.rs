//! Errors surfaced by the restricted access interface.

use std::fmt;
use wnw_graph::NodeId;

/// Errors a sampler can hit while talking to the (simulated) social network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// The node id is not a user of the network.
    UnknownNode(NodeId),
    /// The query budget configured for this session is exhausted.
    ///
    /// Experiments use this to stop samplers exactly at a query-cost grid
    /// point; callers are expected to treat it as a normal termination signal.
    BudgetExhausted {
        /// The budget that was configured.
        budget: u64,
    },
    /// The requested attribute is not exposed by the network.
    UnknownAttribute(String),
    /// The backend answered with a `429`: too many requests. Raised by a
    /// [`FaultyNetwork`](crate::FaultyNetwork)'s rate-limit bursts; a
    /// [`ResilientNetwork`](crate::ResilientNetwork) waits out the hint and
    /// retries.
    RateLimited {
        /// How many simulated seconds the caller would have to wait.
        retry_after_secs: u64,
    },
    /// A transient failure — the remote end hiccuped (connection reset,
    /// 5xx, timeout). Retrying the same call may well succeed; a
    /// [`ResilientNetwork`](crate::ResilientNetwork) does exactly that.
    Transient {
        /// What kind of transient failure was observed.
        kind: TransientKind,
    },
    /// The backend is (currently) unreachable: retries were exhausted or a
    /// circuit breaker is open. Callers should degrade — stop the failing
    /// walker, keep the partial result — rather than retry further.
    Unavailable {
        /// Human-readable reason ("retries exhausted", "circuit open", ...).
        reason: UnavailableReason,
    },
}

/// The flavor of a [`AccessError::Transient`] failure, mirroring what a real
/// crawler sees from a flaky HTTP endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransientKind {
    /// The request errored outright (connection reset, 502/503-style).
    Error,
    /// The request timed out after stalling for the carried number of
    /// simulated seconds.
    Timeout {
        /// Simulated seconds the call stalled before timing out.
        stalled_secs: u64,
    },
    /// The endpoint is flapping: a burst of consecutive errors.
    Flap,
}

/// Why a backend is reported [`AccessError::Unavailable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnavailableReason {
    /// The retry policy's attempt cap was reached without a success.
    RetriesExhausted,
    /// The circuit breaker is open; the call was failed fast.
    CircuitOpen,
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::UnknownNode(v) => write!(f, "unknown node {v}"),
            AccessError::BudgetExhausted { budget } => {
                write!(f, "query budget of {budget} exhausted")
            }
            AccessError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            AccessError::RateLimited { retry_after_secs } => {
                write!(f, "rate limited; retry after {retry_after_secs}s")
            }
            AccessError::Transient { kind } => match kind {
                TransientKind::Error => write!(f, "transient error (remote hiccup)"),
                TransientKind::Timeout { stalled_secs } => {
                    write!(f, "transient timeout after {stalled_secs}s stall")
                }
                TransientKind::Flap => write!(f, "transient error (endpoint flapping)"),
            },
            AccessError::Unavailable { reason } => match reason {
                UnavailableReason::RetriesExhausted => {
                    write!(f, "backend unavailable: retries exhausted")
                }
                UnavailableReason::CircuitOpen => {
                    write!(f, "backend unavailable: circuit breaker open")
                }
            },
        }
    }
}

impl AccessError {
    /// Whether a retry of the same call could plausibly succeed. This is
    /// what a [`ResilientNetwork`](crate::ResilientNetwork) retries;
    /// everything else propagates immediately.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            AccessError::Transient { .. } | AccessError::RateLimited { .. }
        )
    }

    /// Whether this error should *degrade* the failing walker (stop it,
    /// keep the samples it produced) instead of failing the whole job —
    /// the same treatment budget exhaustion gets.
    pub fn is_degradation(&self) -> bool {
        matches!(
            self,
            AccessError::Transient { .. }
                | AccessError::Unavailable { .. }
                | AccessError::RateLimited { .. }
        )
    }
}

impl std::error::Error for AccessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(AccessError::UnknownNode(NodeId(3))
            .to_string()
            .contains('3'));
        assert!(AccessError::BudgetExhausted { budget: 100 }
            .to_string()
            .contains("100"));
        assert!(AccessError::UnknownAttribute("stars".into())
            .to_string()
            .contains("stars"));
        assert!(AccessError::RateLimited {
            retry_after_secs: 60
        }
        .to_string()
        .contains("60"));
        assert!(AccessError::Transient {
            kind: TransientKind::Timeout { stalled_secs: 30 }
        }
        .to_string()
        .contains("30"));
        assert!(AccessError::Unavailable {
            reason: UnavailableReason::CircuitOpen
        }
        .to_string()
        .contains("circuit"));
    }

    #[test]
    fn retry_and_degradation_taxonomy() {
        let transient = AccessError::Transient {
            kind: TransientKind::Error,
        };
        let rate_limited = AccessError::RateLimited {
            retry_after_secs: 900,
        };
        let unavailable = AccessError::Unavailable {
            reason: UnavailableReason::RetriesExhausted,
        };
        assert!(transient.is_retryable() && transient.is_degradation());
        assert!(rate_limited.is_retryable() && rate_limited.is_degradation());
        assert!(!unavailable.is_retryable() && unavailable.is_degradation());
        for fatal in [
            AccessError::UnknownNode(NodeId(1)),
            AccessError::UnknownAttribute("x".into()),
            AccessError::BudgetExhausted { budget: 5 },
        ] {
            assert!(!fatal.is_retryable());
            assert!(!fatal.is_degradation());
        }
    }
}
