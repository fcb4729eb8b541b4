//! # wnw-access
//!
//! The restricted access layer of the reproduction of *"Walk, Not Wait"*
//! (Nazi et al., VLDB 2015).
//!
//! The whole premise of the paper is that a third party can only see an
//! online social network through a **local-neighborhood query interface**:
//! given a user `v`, the service returns `N(v)` — and every such access
//! counts against a query budget (rate limits, API quotas). This crate makes
//! that constraint explicit in the type system:
//!
//! * [`SocialNetwork`] — the only view samplers get of a graph: `neighbors`,
//!   `degree`, and per-node attribute reads, all of which are metered;
//! * [`QueryCounter`] — unique-node query accounting (the paper's query-cost
//!   measure) plus raw API-call counts;
//! * [`SimulatedOsn`] — wraps a [`wnw_graph::Graph`] behind the interface:
//!   each query answers the node's full neighbor list and is metered by a
//!   [`QueryCounter`];
//! * [`QueryBudget`] / [`AccessError`] — hard budget enforcement so
//!   experiments can ask "what does each sampler deliver for X queries?";
//! * [`CachedNetwork`] — a sharded, lock-striped neighbor cache any number
//!   of concurrent walkers can share, with exact unique-node accounting
//!   under contention;
//! * [`MeteredNetwork`] — an independent per-walker metering and budget view
//!   over a shared network (how the engine gives each walker its own
//!   deterministic budget share), which also charges its first visits to a
//!   job-wide ledger [`QueryCounter`], so a job's query cost is the union of
//!   its walkers' visited sets;
//! * [`ThreadedNetwork`] — the `Send + Sync` marker the concurrent engine
//!   requires of a network handle shared across worker threads;
//! * [`FaultyNetwork`] — seeded, deterministic fault injection (transient
//!   errors, timeout stalls, rate-limit bursts, flaps, blackout nodes) over
//!   any network, for chaos testing;
//! * [`ResilientNetwork`] — bounded retries with decorrelated-jitter
//!   backoff on a simulated clock, honored `Retry-After` hints, and a
//!   per-backend circuit breaker, with [`ResilienceStats`] counters the
//!   service layer surfaces.
//!
//! Samplers in `wnw-mcmc` and `wnw-core` are written against the trait, so
//! swapping a simulated graph for a live crawler is a matter of implementing
//! [`SocialNetwork`] once — the caching, metering, and concurrency layers
//! compose on top unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cached;
pub mod counter;
pub mod error;
pub mod fault;
pub mod interface;
pub mod metered;
pub mod resilient;
pub mod simulated;
pub mod sync;

pub use cached::CachedNetwork;
pub use counter::{QueryBudget, QueryCounter, QueryStats};
pub use error::{AccessError, TransientKind, UnavailableReason};
pub use fault::{FaultInjector, FaultProfile, FaultStats, FaultyNetwork};
pub use interface::{SocialNetwork, ThreadedNetwork};
pub use metered::MeteredNetwork;
pub use resilient::{ResilienceMonitor, ResilienceStats, ResilientNetwork, RetryPolicy};
pub use simulated::SimulatedOsn;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AccessError>;
