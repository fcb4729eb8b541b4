//! Seeded, deterministic fault injection for any [`SocialNetwork`].
//!
//! Real OSN endpoints fail: connections reset, gateways time out, `429`s
//! arrive in bursts, and whole endpoints flap (Sections 1.1 and 6.3.1 of
//! the paper motivate exactly this hostility). [`FaultyNetwork`] wraps any
//! network with a [`FaultInjector`] whose schedule is a **pure function of
//! `(seed, node, per-node call index)`** via SplitMix64, so the same seed
//! produces the same fault sequence at any thread count or interleaving.
//!
//! The schedule is shaped as an *initial run* of faults per node: a node
//! faults for its first `k` calls (capped by
//! [`FaultProfile::max_faults_per_node`]) and then passes, with the run
//! position resetting on every clean call. Keeping the cap at or below a
//! retry policy's attempt budget makes every top-level fetch outcome a pure
//! function of the node alone — a
//! [`ResilientNetwork`](crate::ResilientNetwork) absorbs the run and
//! returns the true neighbor list — which is what keeps sample multisets
//! thread-count-invariant under injection. *Blackout* nodes ignore the cap
//! and fail every call, deterministically exhausting any retry budget (the
//! knob chaos scenarios use to force a circuit-breaker trip).
//!
//! Only neighbor fetches are faulted: attribute reads model parsing a
//! profile page already retrieved, and the paper charges (and so this crate
//! faults) only the queries that hit the server.

use crate::counter::QueryStats;
use crate::error::{AccessError, TransientKind};
use crate::interface::SocialNetwork;
use crate::sync::lock;
use crate::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wnw_graph::NodeId;

/// SplitMix64 — the same mixer the loadgen scenario planner derives seeds
/// with; a full-avalanche hash good enough for schedule decisions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from `(seed, node, index, salt)`.
fn uniform(seed: u64, v: NodeId, index: u64, salt: u64) -> f64 {
    let mut x = splitmix64(seed ^ salt);
    x = splitmix64(x ^ u64::from(v.0));
    x = splitmix64(x ^ index);
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_BLACKOUT: u64 = 0xB1AC_0001;
const SALT_TRANSIENT: u64 = 0x7E57_0002;
const SALT_STALL: u64 = 0x57A1_0003;
const SALT_RATE: u64 = 0x4A7E_0004;
const SALT_FLAP: u64 = 0xF1A9_0005;

/// Per-call fault probabilities and magnitudes for a [`FaultInjector`].
///
/// Each probability is evaluated independently per `(node, run position)`;
/// the first matching type in the order *rate limit → stall → flap →
/// transient* wins. All-zero means injection is off and the wrapper is a
/// transparent pass-through.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a call fails with a plain transient error (reset / 5xx).
    pub transient_error: f64,
    /// Probability a call stalls on the simulated clock and times out.
    pub stall: f64,
    /// Simulated seconds a stalled call loses before timing out.
    pub stall_secs: u64,
    /// Probability a call is answered with a `429`-style rate-limit burst.
    pub rate_limit: f64,
    /// The `Retry-After` carried by injected rate limits, in simulated
    /// seconds.
    pub retry_after_secs: u64,
    /// Probability a call lands in an error flap (a short burst of
    /// consecutive errors reported as [`TransientKind::Flap`]).
    pub flap: f64,
    /// Fraction of nodes that are blacked out: every call to such a node
    /// fails, deterministically exhausting any bounded retry policy.
    pub blackout_fraction: f64,
    /// Hard cap on consecutive injected faults per node (blackout nodes
    /// excepted). Keep this at or below the retry policy's attempt budget
    /// and every non-blackout fetch eventually succeeds — the invariant
    /// behind thread-count-invariant sample multisets under injection.
    pub max_faults_per_node: u64,
}

impl FaultProfile {
    /// Injection disabled: every probability zero.
    pub const OFF: FaultProfile = FaultProfile {
        transient_error: 0.0,
        stall: 0.0,
        stall_secs: 0,
        rate_limit: 0.0,
        retry_after_secs: 0,
        flap: 0.0,
        blackout_fraction: 0.0,
        max_faults_per_node: 0,
    };

    /// The chaos testbed profile: ≥ 5 % transient errors, stalls,
    /// rate-limit bursts, flaps, and a sliver of blacked-out nodes to force
    /// a breaker trip. `max_faults_per_node` is 2, inside the default
    /// retry policy's 3-retry budget.
    pub fn chaos() -> FaultProfile {
        FaultProfile {
            transient_error: 0.06,
            stall: 0.02,
            stall_secs: 30,
            rate_limit: 0.02,
            retry_after_secs: 5,
            flap: 0.01,
            blackout_fraction: 0.002,
            max_faults_per_node: 2,
        }
    }

    /// Whether this profile injects nothing.
    pub fn is_off(&self) -> bool {
        self.transient_error <= 0.0
            && self.stall <= 0.0
            && self.rate_limit <= 0.0
            && self.flap <= 0.0
            && self.blackout_fraction <= 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::OFF
    }
}

/// Counts of injected faults, by type, plus the simulated seconds lost to
/// stalls. All counters are totals since construction (or the last
/// [`FaultInjector::reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Calls that passed through un-faulted.
    pub calls_passed: u64,
    /// Plain transient errors injected.
    pub transient_errors: u64,
    /// Timeout stalls injected.
    pub stalls: u64,
    /// Simulated seconds lost to injected stalls.
    pub stalled_secs: u64,
    /// Rate-limit bursts injected.
    pub rate_limits: u64,
    /// Flap-burst errors injected.
    pub flaps: u64,
    /// Calls to blacked-out nodes (each one an injected failure).
    pub blackout_hits: u64,
}

impl FaultStats {
    /// Total faults injected, across every type.
    pub fn total_injected(&self) -> u64 {
        self.transient_errors + self.stalls + self.rate_limits + self.flaps + self.blackout_hits
    }
}

/// The seeded fault schedule and its accounting.
///
/// `decide(node, index)` is pure; the injector's only mutable state is the
/// per-node run position (reset on every clean call) and the stat
/// counters, so the injected-fault sequence per node is identical for a
/// given seed whatever the thread interleaving.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    profile: FaultProfile,
    /// Position within the node's current fault run; reset on a clean call.
    run_position: Mutex<HashMap<NodeId, u64>>,
    clock_secs: AtomicU64,
    calls_passed: AtomicU64,
    transient_errors: AtomicU64,
    stalls: AtomicU64,
    stalled_secs: AtomicU64,
    rate_limits: AtomicU64,
    flaps: AtomicU64,
    blackout_hits: AtomicU64,
}

impl FaultInjector {
    /// A seeded injector over `profile`.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultInjector {
            seed,
            profile,
            run_position: Mutex::new(HashMap::new()),
            clock_secs: AtomicU64::new(0),
            calls_passed: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            stalled_secs: AtomicU64::new(0),
            rate_limits: AtomicU64::new(0),
            flaps: AtomicU64::new(0),
            blackout_hits: AtomicU64::new(0),
        }
    }

    /// The configured profile.
    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// The injection seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `v` is blacked out under this seed and profile.
    pub fn is_blackout(&self, v: NodeId) -> bool {
        self.profile.blackout_fraction > 0.0
            && uniform(self.seed, v, 0, SALT_BLACKOUT) < self.profile.blackout_fraction
    }

    /// The pure schedule: the fault (if any) for the call at `index` of a
    /// node's fault run. Exposed so tests can enumerate the schedule
    /// without driving a network.
    pub fn decide(&self, v: NodeId, index: u64) -> Option<AccessError> {
        if self.is_blackout(v) {
            return Some(AccessError::Transient {
                kind: TransientKind::Error,
            });
        }
        if self.profile.is_off() || index >= self.profile.max_faults_per_node {
            return None;
        }
        let p = |salt, prob| prob > 0.0 && uniform(self.seed, v, index, salt) < prob;
        if p(SALT_RATE, self.profile.rate_limit) {
            return Some(AccessError::RateLimited {
                retry_after_secs: self.profile.retry_after_secs.max(1),
            });
        }
        if p(SALT_STALL, self.profile.stall) {
            return Some(AccessError::Transient {
                kind: TransientKind::Timeout {
                    stalled_secs: self.profile.stall_secs.max(1),
                },
            });
        }
        if p(SALT_FLAP, self.profile.flap) {
            return Some(AccessError::Transient {
                kind: TransientKind::Flap,
            });
        }
        if p(SALT_TRANSIENT, self.profile.transient_error) {
            return Some(AccessError::Transient {
                kind: TransientKind::Error,
            });
        }
        None
    }

    /// Advances the node's run position and returns the injected fault, if
    /// the schedule has one, recording it in the stats.
    pub fn next_fault(&self, v: NodeId) -> Option<AccessError> {
        if self.profile.is_off() {
            self.calls_passed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let index = {
            let mut runs = lock(&self.run_position);
            *runs.entry(v).or_insert(0)
        };
        let fault = self.decide(v, index);
        match &fault {
            Some(err) => {
                let mut runs = lock(&self.run_position);
                *runs.entry(v).or_insert(0) += 1;
                match err {
                    AccessError::RateLimited { .. } => {
                        self.rate_limits.fetch_add(1, Ordering::Relaxed);
                    }
                    AccessError::Transient {
                        kind: TransientKind::Timeout { stalled_secs },
                    } => {
                        self.stalls.fetch_add(1, Ordering::Relaxed);
                        self.stalled_secs
                            .fetch_add(*stalled_secs, Ordering::Relaxed);
                        self.clock_secs.fetch_add(*stalled_secs, Ordering::Relaxed);
                    }
                    AccessError::Transient {
                        kind: TransientKind::Flap,
                    } => {
                        self.flaps.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        if self.is_blackout(v) {
                            self.blackout_hits.fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.transient_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            None => {
                lock(&self.run_position).insert(v, 0);
                self.calls_passed.fetch_add(1, Ordering::Relaxed);
            }
        }
        fault
    }

    /// Simulated seconds lost to injected stalls so far.
    pub fn clock_secs(&self) -> u64 {
        self.clock_secs.load(Ordering::Relaxed)
    }

    /// A snapshot of every fault counter.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            calls_passed: self.calls_passed.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            stalled_secs: self.stalled_secs.load(Ordering::Relaxed),
            rate_limits: self.rate_limits.load(Ordering::Relaxed),
            flaps: self.flaps.load(Ordering::Relaxed),
            blackout_hits: self.blackout_hits.load(Ordering::Relaxed),
        }
    }

    /// Clears the run positions and counters (seed and profile stay).
    pub fn reset(&self) {
        lock(&self.run_position).clear();
        self.clock_secs.store(0, Ordering::Relaxed);
        self.calls_passed.store(0, Ordering::Relaxed);
        self.transient_errors.store(0, Ordering::Relaxed);
        self.stalls.store(0, Ordering::Relaxed);
        self.stalled_secs.store(0, Ordering::Relaxed);
        self.rate_limits.store(0, Ordering::Relaxed);
        self.flaps.store(0, Ordering::Relaxed);
        self.blackout_hits.store(0, Ordering::Relaxed);
    }
}

/// A [`SocialNetwork`] adapter injecting seeded faults into neighbor
/// fetches. Cloning shares the injector (and the wrapped network, which is
/// cloned alongside).
#[derive(Debug, Clone)]
pub struct FaultyNetwork<N> {
    inner: N,
    injector: Arc<FaultInjector>,
}

impl<N: SocialNetwork> FaultyNetwork<N> {
    /// Wraps `inner` with a fresh injector.
    pub fn new(inner: N, seed: u64, profile: FaultProfile) -> Self {
        FaultyNetwork {
            inner,
            injector: Arc::new(FaultInjector::new(seed, profile)),
        }
    }

    /// The shared injector (schedule inspection and stats).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// A snapshot of the injected-fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// The wrapped network.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<N: SocialNetwork> SocialNetwork for FaultyNetwork<N> {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        if let Some(fault) = self.injector.next_fault(v) {
            return Err(fault);
        }
        self.inner.neighbors(v)
    }

    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        // Attribute reads parse an already-retrieved page; they are neither
        // charged nor faulted.
        self.inner.attribute(name, v)
    }

    fn seed_node(&self) -> NodeId {
        self.inner.seed_node()
    }

    fn query_stats(&self) -> QueryStats {
        self.inner.query_stats()
    }

    fn reset_counters(&self) {
        self.inner.reset_counters();
        self.injector.reset();
    }

    fn node_count_hint(&self) -> Option<usize> {
        self.inner.node_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedOsn;
    use wnw_graph::generators::classic::cycle;
    use wnw_graph::generators::random::barabasi_albert;

    fn chaos_net(seed: u64) -> FaultyNetwork<SimulatedOsn> {
        let graph = barabasi_albert(200, 3, 7).unwrap();
        FaultyNetwork::new(SimulatedOsn::new(graph), seed, FaultProfile::chaos())
    }

    #[test]
    fn off_profile_is_a_transparent_pass_through() {
        let osn = SimulatedOsn::new(cycle(6));
        let direct = osn.neighbors(NodeId(0)).unwrap();
        let faulty = FaultyNetwork::new(SimulatedOsn::new(cycle(6)), 42, FaultProfile::OFF);
        assert_eq!(faulty.neighbors(NodeId(0)).unwrap(), direct);
        assert!(FaultProfile::OFF.is_off());
        assert_eq!(faulty.fault_stats().total_injected(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultInjector::new(0xFA11, FaultProfile::chaos());
        let b = FaultInjector::new(0xFA11, FaultProfile::chaos());
        for v in 0..500u32 {
            for i in 0..4u64 {
                assert_eq!(a.decide(NodeId(v), i), b.decide(NodeId(v), i));
            }
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = FaultInjector::new(1, FaultProfile::chaos());
        let b = FaultInjector::new(2, FaultProfile::chaos());
        let differs =
            (0..2000u32).any(|v| (0..2).any(|i| a.decide(NodeId(v), i) != b.decide(NodeId(v), i)));
        assert!(differs, "schedules for different seeds never diverged");
    }

    #[test]
    fn chaos_profile_injects_at_least_five_percent() {
        let inj = FaultInjector::new(0xC4A05, FaultProfile::chaos());
        let mut faults = 0usize;
        let total = 5_000;
        for v in 0..total {
            if inj.decide(NodeId(v as u32), 0).is_some() {
                faults += 1;
            }
        }
        let rate = faults as f64 / total as f64;
        assert!(rate >= 0.05, "first-call fault rate {rate} below 5%");
        assert!(rate < 0.5, "first-call fault rate {rate} implausibly high");
    }

    #[test]
    fn fault_runs_are_capped_for_non_blackout_nodes() {
        let inj = FaultInjector::new(9, FaultProfile::chaos());
        let cap = FaultProfile::chaos().max_faults_per_node;
        for v in 0..1000u32 {
            if !inj.is_blackout(NodeId(v)) {
                assert_eq!(inj.decide(NodeId(v), cap), None);
            } else {
                assert!(inj.decide(NodeId(v), cap).is_some());
                assert!(inj.decide(NodeId(v), cap + 100).is_some());
            }
        }
    }

    #[test]
    fn run_position_resets_on_clean_calls() {
        // A profile that faults only at run position 0 with certainty has
        // period-1 behaviour: fault, pass, fault, pass...
        let profile = FaultProfile {
            transient_error: 1.0,
            max_faults_per_node: 1,
            ..FaultProfile::OFF
        };
        let net = FaultyNetwork::new(SimulatedOsn::new(cycle(5)), 3, profile);
        assert!(net.neighbors(NodeId(0)).is_err());
        assert!(net.neighbors(NodeId(0)).is_ok());
        assert!(net.neighbors(NodeId(0)).is_err());
        assert!(net.neighbors(NodeId(0)).is_ok());
        let stats = net.fault_stats();
        assert_eq!(stats.transient_errors, 2);
        assert_eq!(stats.calls_passed, 2);
    }

    #[test]
    fn stalls_advance_the_simulated_clock() {
        let profile = FaultProfile {
            stall: 1.0,
            stall_secs: 30,
            max_faults_per_node: 1,
            ..FaultProfile::OFF
        };
        let net = FaultyNetwork::new(SimulatedOsn::new(cycle(5)), 3, profile);
        let err = net.neighbors(NodeId(1)).unwrap_err();
        assert_eq!(
            err,
            AccessError::Transient {
                kind: TransientKind::Timeout { stalled_secs: 30 }
            }
        );
        assert_eq!(net.injector().clock_secs(), 30);
        assert_eq!(net.fault_stats().stalled_secs, 30);
    }

    #[test]
    fn injected_sequence_is_identical_across_runs_and_threads() {
        let sequence = |seed: u64| -> Vec<(u32, Option<AccessError>)> {
            let net = chaos_net(seed);
            (0..200u32)
                .flat_map(|v| {
                    // Drive each node until its run passes, mirroring what a
                    // retry layer does.
                    let mut out = Vec::new();
                    for _ in 0..5 {
                        let fault = net.injector().next_fault(NodeId(v));
                        let done = fault.is_none();
                        out.push((v, fault));
                        if done {
                            break;
                        }
                    }
                    out
                })
                .collect()
        };
        assert_eq!(sequence(0xAB), sequence(0xAB));
        assert_ne!(sequence(0xAB), sequence(0xCD));
    }

    #[test]
    fn reset_clears_stats_but_keeps_the_schedule() {
        let net = chaos_net(5);
        for v in 0..100u32 {
            let _ = net.neighbors(NodeId(v));
        }
        let before = net.fault_stats();
        assert!(before.total_injected() > 0);
        net.reset_counters();
        assert_eq!(net.fault_stats(), FaultStats::default());
        // Schedule is still the same pure function.
        assert_eq!(
            net.injector().decide(NodeId(7), 0),
            FaultInjector::new(5, FaultProfile::chaos()).decide(NodeId(7), 0)
        );
    }
}
