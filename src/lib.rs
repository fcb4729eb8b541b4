//! # walk-not-wait
//!
//! Facade crate of the reproduction of *"Walk, Not Wait: Faster Sampling
//! Over Online Social Networks"* (Nazi, Zhou, Thirumuruganathan, Zhang, Das —
//! VLDB 2015).
//!
//! The workspace implements the paper's contribution — the **WALK-ESTIMATE**
//! sampler — together with every substrate it needs: a graph store and
//! generators, the restricted local-neighborhood access interface with query
//! accounting, the traditional random-walk baselines (SRW / MHRW with
//! Geweke-monitored burn-in), aggregate estimators and bias measurement, and
//! an experiment harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! This crate simply re-exports the member crates under short names so
//! examples and downstream users can depend on a single package:
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `wnw-graph` | CSR graph, generators, metrics, I/O |
//! | [`access`] | `wnw-access` | restricted OSN interface, budgets, caching, fault injection |
//! | [`mcmc`] | `wnw-mcmc` | SRW/MHRW, convergence, rejection sampling, burn-in baselines |
//! | [`core`] | `wnw-core` | WALK-ESTIMATE (the paper's contribution) |
//! | [`runtime`] | `wnw-runtime` | persistent round-barrier worker pool (zero-spawn rounds) |
//! | [`engine`] | `wnw-engine` | concurrent, cache-sharing sampling engine |
//! | [`service`] | `wnw-service` | multi-job sampling service: scheduling, streaming, metrics |
//! | [`gateway`] | `wnw-gateway` | std-only HTTP/1.1 streaming frontend over the service |
//! | [`loadgen`] | `wnw-loadgen` | deterministic open-loop load generator with SLO scoring |
//! | [`telemetry`] | `wnw-telemetry` | quantile histograms, lifecycle tracing, Prometheus exposition |
//! | [`analytics`] | `wnw-analytics` | Lambert W, statistics, estimators, bias |
//! | [`experiments`] | `wnw-experiments` | per-figure reproduction drivers |
//!
//! ## Quickstart
//!
//! ```
//! use walk_not_wait::prelude::*;
//!
//! // A stand-in for the online social network: only `neighbors(v)` is
//! // observable, and every distinct node fetched counts as one query.
//! let graph = wnw_graph::generators::random::barabasi_albert(500, 5, 1).unwrap();
//! let osn = SimulatedOsn::new(graph);
//!
//! // WALK-ESTIMATE as a drop-in replacement for a Metropolis-Hastings walk:
//! // same (uniform) target distribution, far fewer queries per sample.
//! let mut sampler = WalkEstimateSampler::new(
//!     osn.clone(),
//!     RandomWalkKind::MetropolisHastings,
//!     WalkEstimateConfig::default(),
//!     42,
//! );
//! let run = collect_samples(&mut sampler, 20).unwrap();
//! assert_eq!(run.len(), 20);
//! println!("20 samples for {} queries", osn.query_cost());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wnw_access as access;
pub use wnw_analytics as analytics;
pub use wnw_core as core;
pub use wnw_engine as engine;
pub use wnw_experiments as experiments;
pub use wnw_gateway as gateway;
pub use wnw_graph as graph;
pub use wnw_loadgen as loadgen;
pub use wnw_mcmc as mcmc;
pub use wnw_runtime as runtime;
pub use wnw_service as service;
pub use wnw_telemetry as telemetry;

/// The most commonly used items, for `use walk_not_wait::prelude::*`.
pub mod prelude {
    pub use wnw_access::{
        CachedNetwork, MeteredNetwork, QueryBudget, SimulatedOsn, SocialNetwork, ThreadedNetwork,
    };
    pub use wnw_analytics::aggregates::{
        estimate_average, relative_error, SampleValue, WeightingScheme,
    };
    pub use wnw_core::{
        WalkEstimateConfig, WalkEstimateSampler, WalkEstimateVariant, WalkLengthPolicy,
    };
    pub use wnw_engine::{
        Engine, HistoryPolicy, HistoryStore, HistoryStoreStats, JobReport, SampleJob, SamplerSpec,
    };
    pub use wnw_gateway::{GatewayConfig, GatewayServer};
    pub use wnw_graph::{Graph, GraphBuilder, NodeId};
    pub use wnw_mcmc::{
        collect_samples, RandomWalkKind, Sampler, ScalingFactorPolicy, TargetDistribution,
    };
    pub use wnw_runtime::{PoolStats, WorkerPool};
    pub use wnw_service::{
        AdmissionError, JobOutcome, JobRegistry, JobStatus, Priority, SampleEvent, SampleRequest,
        SamplingService, ServiceMetricsSnapshot,
    };
    pub use wnw_telemetry::{Histogram, HistogramSnapshot, TraceEvent, TraceEventKind, TraceLog};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let graph = crate::graph::generators::classic::cycle(12);
        let osn = SimulatedOsn::new(graph);
        let mut sampler = WalkEstimateSampler::new(
            osn,
            RandomWalkKind::Simple,
            WalkEstimateConfig::default().with_crawl_depth(1),
            7,
        )
        .with_diameter_estimate(6);
        let run = collect_samples(&mut sampler, 3).unwrap();
        assert_eq!(run.len(), 3);
    }
}
