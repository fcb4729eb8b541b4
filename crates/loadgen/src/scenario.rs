//! Scenario specs: everything a load run needs, expanded into a
//! deterministic per-request plan before any socket is opened.
//!
//! A [`Scenario`] bundles the arrival process, the Zipf start-node skew,
//! the priority / history-policy / client-behaviour mixes, and the SLO the
//! run is judged against. [`Scenario::plan`] expands it into a
//! [`WorkPlan`] — one [`PlannedRequest`] per arrival, each with its own
//! derived seed, start node, and scripted client behaviour — so a rerun
//! with the same seed submits the *identical* job multiset
//! ([`WorkPlan::fingerprint`] pins that in tests and in the emitted
//! report).

use crate::arrival::ArrivalProcess;
use crate::slo::Slo;
use rand::rngs::StdRng;
use rand::zipf::Zipf;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Probability mix over request priorities. Weights need not sum to one;
/// they are normalised when drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityMix {
    /// Weight of `"low"` priority requests.
    pub low: f64,
    /// Weight of `"normal"` priority requests.
    pub normal: f64,
    /// Weight of `"high"` priority requests.
    pub high: f64,
}

impl PriorityMix {
    /// Everything at normal priority.
    pub const NORMAL_ONLY: PriorityMix = PriorityMix {
        low: 0.0,
        normal: 1.0,
        high: 0.0,
    };

    fn draw(&self, rng: &mut StdRng) -> &'static str {
        let total = self.low + self.normal + self.high;
        assert!(total > 0.0, "priority mix must have positive total weight");
        let u = rng.gen::<f64>() * total;
        if u < self.low {
            "low"
        } else if u < self.low + self.normal {
            "normal"
        } else {
            "high"
        }
    }
}

/// Probability mix over cross-job history policies (see `wnw-service`):
/// `isolated` jobs touch no shared history, `shared_read` jobs reuse
/// published walks without contributing, `shared_publish` jobs do both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryMix {
    /// Weight of `"isolated"` requests.
    pub isolated: f64,
    /// Weight of `"shared_read"` requests.
    pub shared_read: f64,
    /// Weight of `"shared_publish"` requests.
    pub shared_publish: f64,
}

impl HistoryMix {
    /// Everything isolated — no shared-history traffic at all.
    pub const ISOLATED_ONLY: HistoryMix = HistoryMix {
        isolated: 1.0,
        shared_read: 0.0,
        shared_publish: 0.0,
    };

    fn draw(&self, rng: &mut StdRng) -> &'static str {
        let total = self.isolated + self.shared_read + self.shared_publish;
        assert!(total > 0.0, "history mix must have positive total weight");
        let u = rng.gen::<f64>() * total;
        if u < self.isolated {
            "isolated"
        } else if u < self.isolated + self.shared_read {
            "shared_read"
        } else {
            "shared_publish"
        }
    }
}

/// A scripted slow reader: after every `every_events` stream events the
/// client sleeps for `pause` before reading on. The pause happens purely
/// client-side, between socket reads, so it exercises the server's
/// write-timeout / backpressure path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallProfile {
    /// Events read between deliberate stalls.
    pub every_events: usize,
    /// Length of each stall.
    pub pause: Duration,
}

/// One fully scripted request of a [`WorkPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedRequest {
    /// Position in the plan (also the dispatch order).
    pub index: usize,
    /// Offset from run start at which the request is dispatched.
    pub at: Duration,
    /// `samples` field of the submitted job.
    pub samples: usize,
    /// `walkers` field of the submitted job.
    pub walkers: usize,
    /// Per-job walk seed, derived from the scenario seed and `index`.
    pub seed: u64,
    /// Optional per-job query budget.
    pub budget: Option<u64>,
    /// Zipf-drawn start node (rank 1 maps to node 0 — in the Barabási–
    /// Albert testbed graphs the low ids are the oldest, best-connected
    /// "celebrity" nodes, so skew lands where a real OSN's would).
    pub start_node: u32,
    /// `"low"` / `"normal"` / `"high"`.
    pub priority: &'static str,
    /// `"isolated"` / `"shared_read"` / `"shared_publish"`.
    pub history_policy: &'static str,
    /// `Some(k)`: the client cancels the job (HTTP `DELETE`) after reading
    /// `k` stream events, then keeps reading until the terminal event.
    pub cancel_after_events: Option<usize>,
    /// `Some`: the client is a deliberate slow reader with this profile.
    pub stall: Option<StallProfile>,
}

/// A scenario expanded into its deterministic request list.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkPlan {
    /// The scripted requests, sorted by dispatch offset.
    pub requests: Vec<PlannedRequest>,
}

impl WorkPlan {
    /// Order-independent FNV-1a digest of the request multiset (every
    /// field of every request). Two runs of the same seeded scenario must
    /// produce the same fingerprint; the driver records it in the report
    /// so reproducibility is checkable from the bench artifact alone.
    pub fn fingerprint(&self) -> u64 {
        let mut lines: Vec<String> = self
            .requests
            .iter()
            .map(|r| {
                format!(
                    "{}us|s{}|w{}|seed{}|b{:?}|n{}|{}|{}|c{:?}|st{:?}",
                    r.at.as_micros(),
                    r.samples,
                    r.walkers,
                    r.seed,
                    r.budget,
                    r.start_node,
                    r.priority,
                    r.history_policy,
                    r.cancel_after_events,
                    r.stall.map(|s| (s.every_events, s.pause.as_micros())),
                )
            })
            .collect();
        lines.sort_unstable();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for line in &lines {
            for byte in line.as_bytes() {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash ^= 0x0a;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// A complete load scenario: workload shape plus the SLO it must meet.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name, used in the report and the bench JSON.
    pub name: &'static str,
    /// Master seed: arrivals, attribute draws, and per-job seeds all
    /// derive from it.
    pub seed: u64,
    /// Length of the offered-load window (the run itself lasts until the
    /// last stream drains).
    pub duration: Duration,
    /// Arrival process over the window.
    pub arrivals: ArrivalProcess,
    /// Start-node universe: ranks are drawn over `[1, nodes]`. Must not
    /// exceed the testbed graph size.
    pub nodes: usize,
    /// Zipf skew exponent for start-node draws (`0` = uniform).
    pub zipf_s: f64,
    /// Samples requested per job.
    pub samples_per_job: usize,
    /// Walkers per job.
    pub walkers: usize,
    /// Per-job query budget (refunded on cancel).
    pub budget: Option<u64>,
    /// Priority mix.
    pub priority_mix: PriorityMix,
    /// History-policy mix.
    pub history_mix: HistoryMix,
    /// Fraction of requests the client cancels mid-stream.
    pub cancel_rate: f64,
    /// Fraction of requests served to a deliberate slow reader.
    pub slow_reader_fraction: f64,
    /// Stall profile applied to the slow readers.
    pub stall: StallProfile,
    /// The SLO this scenario is judged against.
    pub slo: Slo,
}

impl Scenario {
    /// Expands the scenario into its deterministic [`WorkPlan`].
    pub fn plan(&self) -> WorkPlan {
        assert!(self.nodes > 0, "scenario needs a non-empty node universe");
        assert!(self.samples_per_job > 0, "jobs must request samples");
        let arrivals = self.arrivals.schedule(self.duration, self.seed);
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
        let zipf = Zipf::new(self.nodes, self.zipf_s);
        let requests = arrivals
            .into_iter()
            .enumerate()
            .map(|(index, at)| {
                let start_node = (zipf.sample(&mut rng) - 1) as u32;
                let priority = self.priority_mix.draw(&mut rng);
                let history_policy = self.history_mix.draw(&mut rng);
                let cancel = rng.gen::<f64>() < self.cancel_rate;
                let slow = rng.gen::<f64>() < self.slow_reader_fraction;
                let cancel_after_events = cancel.then(|| 1 + rng.gen_range(0..2usize));
                PlannedRequest {
                    index,
                    at,
                    samples: if cancel {
                        CANCELLED_JOB_SAMPLES
                    } else {
                        self.samples_per_job
                    },
                    walkers: self.walkers,
                    seed: derive_seed(self.seed, index as u64),
                    budget: self.budget,
                    start_node,
                    priority,
                    history_policy,
                    cancel_after_events,
                    stall: slow.then_some(self.stall),
                }
            })
            .collect();
        WorkPlan { requests }
    }
}

/// SplitMix64 step: decorrelates per-job seeds from the scenario seed.
fn derive_seed(scenario_seed: u64, index: u64) -> u64 {
    let mut z =
        scenario_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scale of a preset run: `Smoke` keeps CI fast; `Full` offers the load
/// the README baseline numbers were measured at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sub-second windows, small graphs — CI-friendly.
    Smoke,
    /// The measured-baseline configuration.
    Full,
}

impl Scale {
    /// The scale a bench or example runs at: `Smoke` when the
    /// `WNW_BENCH_SMOKE` environment variable is set, `Full` otherwise.
    pub fn from_env() -> Self {
        if std::env::var_os("WNW_BENCH_SMOKE").is_some() {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    fn window(&self, smoke: f64, full: f64) -> Duration {
        Duration::from_secs_f64(match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        })
    }

    fn rate(&self, smoke: f64, full: f64) -> f64 {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }

    /// Node universe the presets draw start nodes from (the testbed graph
    /// is built to exactly this size).
    pub fn nodes(&self) -> usize {
        match self {
            Scale::Smoke => 512,
            Scale::Full => 2_000,
        }
    }
}

/// Samples a job asks for when its client scripts a cancel, in place of
/// the scenario's [`samples_per_job`](Scenario::samples_per_job). A
/// preset-sized job ends about half a millisecond after its first event,
/// so most `DELETE`s sent after one or two events would lose the race to
/// the job's end; a job this long is still running when its `DELETE`
/// lands, so the cancel path runs on every scripted cancel.
pub const CANCELLED_JOB_SAMPLES: usize = 1_000;

/// Default stall profile for the presets' slow readers.
const PRESET_STALL: StallProfile = StallProfile {
    every_events: 2,
    pause: Duration::from_millis(40),
};

/// `steady` — a well-provisioned service under smooth Poisson load: mild
/// start-node skew, normal priority, no misbehaving clients. The "is the
/// service healthy at all" scenario; its SLO is the strictest.
pub fn steady(scale: Scale) -> Scenario {
    Scenario {
        name: "steady",
        seed: 0x57EA_D711,
        duration: scale.window(1.5, 5.0),
        arrivals: ArrivalProcess::Poisson {
            rps: scale.rate(24.0, 60.0),
        },
        nodes: scale.nodes(),
        zipf_s: 0.8,
        samples_per_job: 4,
        walkers: 2,
        budget: Some(1_000_000),
        priority_mix: PriorityMix::NORMAL_ONLY,
        history_mix: HistoryMix {
            isolated: 0.5,
            shared_read: 0.0,
            shared_publish: 0.5,
        },
        cancel_rate: 0.0,
        slow_reader_fraction: 0.0,
        stall: PRESET_STALL,
        slo: Slo {
            min_throughput_rps: scale.rate(6.0, 20.0),
            max_shed_rate: 0.05,
            max_queue_wait_p99_ms: 2_000.0,
            max_e2e_p99_ms: 4_000.0,
            max_ttfs_p99_ms: 3_000.0,
            max_degraded_rate: None,
            max_lost_jobs: None,
        },
    }
}

/// `burst` — an on/off square wave whose bursts offer ~6× the trough
/// rate, with a high-priority slice. Load shedding is *expected*; the SLO
/// bounds how much, and how badly the queue-wait tail degrades.
pub fn burst(scale: Scale) -> Scenario {
    Scenario {
        name: "burst",
        seed: 0xB0B5_7001,
        duration: scale.window(1.6, 6.0),
        arrivals: ArrivalProcess::OnOff {
            on_rps: scale.rate(60.0, 150.0),
            off_rps: scale.rate(10.0, 25.0),
            period: Duration::from_millis(800),
            duty: 0.3,
        },
        nodes: scale.nodes(),
        zipf_s: 0.8,
        samples_per_job: 4,
        walkers: 2,
        budget: Some(1_000_000),
        priority_mix: PriorityMix {
            low: 0.2,
            normal: 0.6,
            high: 0.2,
        },
        history_mix: HistoryMix {
            isolated: 0.5,
            shared_read: 0.0,
            shared_publish: 0.5,
        },
        cancel_rate: 0.0,
        slow_reader_fraction: 0.0,
        stall: PRESET_STALL,
        slo: Slo {
            min_throughput_rps: scale.rate(5.0, 15.0),
            max_shed_rate: 0.6,
            max_queue_wait_p99_ms: 3_000.0,
            max_e2e_p99_ms: 5_000.0,
            max_ttfs_p99_ms: 4_000.0,
            max_degraded_rate: None,
            max_lost_jobs: None,
        },
    }
}

/// `hot_key` — strong Zipf skew (`s = 1.4`) with every job publishing to
/// the shared walk history. Most jobs start on a handful of celebrity
/// nodes, so cross-job history reuse should show real savings — the
/// acceptance check asserts they are nonzero.
pub fn hot_key(scale: Scale) -> Scenario {
    Scenario {
        name: "hot_key",
        seed: 0x407C_0DE5,
        duration: scale.window(1.5, 5.0),
        arrivals: ArrivalProcess::Poisson {
            rps: scale.rate(24.0, 60.0),
        },
        nodes: scale.nodes(),
        zipf_s: 1.4,
        samples_per_job: 4,
        walkers: 2,
        budget: Some(1_000_000),
        priority_mix: PriorityMix::NORMAL_ONLY,
        history_mix: HistoryMix {
            isolated: 0.0,
            shared_read: 0.2,
            shared_publish: 0.8,
        },
        cancel_rate: 0.0,
        slow_reader_fraction: 0.0,
        stall: PRESET_STALL,
        slo: Slo {
            min_throughput_rps: scale.rate(6.0, 20.0),
            max_shed_rate: 0.05,
            max_queue_wait_p99_ms: 2_000.0,
            max_e2e_p99_ms: 4_000.0,
            max_ttfs_p99_ms: 3_000.0,
            max_degraded_rate: None,
            max_lost_jobs: None,
        },
    }
}

/// `churn` — misbehaving clients: a third of requests cancel mid-stream,
/// a fifth read deliberately slowly. Exercises the cancel/refund path and
/// the gateway's tolerance of stalled readers; the SLO checks the
/// well-behaved majority still gets its first sample promptly.
pub fn churn(scale: Scale) -> Scenario {
    Scenario {
        name: "churn",
        seed: 0xC4B2_0123,
        duration: scale.window(1.5, 5.0),
        arrivals: ArrivalProcess::Poisson {
            rps: scale.rate(20.0, 45.0),
        },
        nodes: scale.nodes(),
        zipf_s: 1.1,
        samples_per_job: 6,
        walkers: 2,
        budget: Some(1_000_000),
        priority_mix: PriorityMix {
            low: 0.3,
            normal: 0.6,
            high: 0.1,
        },
        history_mix: HistoryMix {
            isolated: 0.4,
            shared_read: 0.2,
            shared_publish: 0.4,
        },
        cancel_rate: 0.35,
        slow_reader_fraction: 0.2,
        stall: PRESET_STALL,
        slo: Slo {
            min_throughput_rps: scale.rate(3.0, 8.0),
            max_shed_rate: 0.25,
            max_queue_wait_p99_ms: 3_000.0,
            max_e2e_p99_ms: 5_000.0,
            max_ttfs_p99_ms: 4_000.0,
            max_degraded_rate: None,
            max_lost_jobs: None,
        },
    }
}

/// `chaos` — steady-shaped load meant for a **fault-injected** testbed
/// (see `testbed::run_scenario_chaos`): the workload itself is smooth so
/// every anomaly in the report is attributable to the injected faults and
/// the resilience layer's response, not to overload. Its SLO is the only
/// one with the gated resilience objectives armed: a bounded fraction of
/// jobs may finish degraded, and **zero** accepted jobs may be lost.
///
/// Deliberately *not* part of [`presets`]: `BENCH_service_load.json`
/// measures the fault-free service, `BENCH_fault_resilience.json`
/// measures graceful degradation, and mixing the two would let chaos
/// noise move the baseline numbers.
pub fn chaos(scale: Scale) -> Scenario {
    Scenario {
        name: "chaos",
        seed: 0xC4A0_5BAD,
        duration: scale.window(1.5, 5.0),
        arrivals: ArrivalProcess::Poisson {
            rps: scale.rate(20.0, 50.0),
        },
        nodes: scale.nodes(),
        zipf_s: 0.8,
        samples_per_job: 4,
        walkers: 2,
        budget: Some(1_000_000),
        priority_mix: PriorityMix::NORMAL_ONLY,
        history_mix: HistoryMix {
            isolated: 0.5,
            shared_read: 0.0,
            shared_publish: 0.5,
        },
        cancel_rate: 0.0,
        slow_reader_fraction: 0.0,
        stall: PRESET_STALL,
        slo: Slo {
            // Latency bounds stay loose: chaos scores *degradation*, and
            // backoff waits are simulated-clock, not wall-clock.
            min_throughput_rps: scale.rate(4.0, 12.0),
            max_shed_rate: 0.25,
            max_queue_wait_p99_ms: 3_000.0,
            max_e2e_p99_ms: 5_000.0,
            max_ttfs_p99_ms: 4_000.0,
            // The scored objectives: faults may cost completeness on a
            // bounded slice of jobs, but never an entire job. Full-scale
            // chaos weather degrades ~35% of jobs (a walker that walks
            // into the blacked-out node, or through an open-breaker
            // window, ends early); the bound leaves margin above that,
            // and would still catch a hub blackout or a stuck breaker
            // (both degrade ~100%).
            max_degraded_rate: Some(0.45),
            max_lost_jobs: Some(0),
        },
    }
}

/// All four named presets at the given scale, in suite order. The
/// [`chaos`] scenario is intentionally excluded — it runs against the
/// fault-injected testbed and reports into its own bench artifact.
pub fn presets(scale: Scale) -> Vec<Scenario> {
    vec![steady(scale), burst(scale), hot_key(scale), churn(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_fingerprints_match() {
        for scenario in presets(Scale::Smoke) {
            let a = scenario.plan();
            let b = scenario.plan();
            assert_eq!(
                a, b,
                "{}: rerun must produce the identical plan",
                scenario.name
            );
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert!(!a.requests.is_empty(), "{}: empty plan", scenario.name);
        }
    }

    #[test]
    fn fingerprint_is_order_independent_but_content_sensitive() {
        let plan = steady(Scale::Smoke).plan();
        let mut shuffled = plan.clone();
        shuffled.requests.reverse();
        assert_eq!(plan.fingerprint(), shuffled.fingerprint());
        let mut mutated = plan.clone();
        mutated.requests[0].samples += 1;
        assert_ne!(plan.fingerprint(), mutated.fingerprint());
    }

    #[test]
    fn hot_key_concentrates_starts_and_respects_the_universe() {
        let scenario = hot_key(Scale::Smoke);
        let plan = scenario.plan();
        let n = plan.requests.len() as f64;
        let head = plan.requests.iter().filter(|r| r.start_node < 5).count() as f64;
        assert!(
            head / n > 0.35,
            "Zipf s=1.4 should put >35% of starts on the top-5 nodes, got {}",
            head / n
        );
        assert!(plan
            .requests
            .iter()
            .all(|r| (r.start_node as usize) < scenario.nodes));
    }

    #[test]
    fn chaos_arms_the_resilience_objectives_but_stays_out_of_the_presets() {
        let scenario = chaos(Scale::Smoke);
        assert!(scenario.slo.max_degraded_rate.is_some());
        assert_eq!(scenario.slo.max_lost_jobs, Some(0));
        assert!(!scenario.plan().requests.is_empty());
        assert!(
            presets(Scale::Smoke).iter().all(|s| s.name != "chaos"),
            "chaos must not leak into the fault-free preset suite"
        );
        assert_eq!(presets(Scale::Smoke).len(), 4);
    }

    #[test]
    fn churn_scripts_cancels_and_slow_readers() {
        let plan = churn(Scale::Smoke).plan();
        let cancels = plan
            .requests
            .iter()
            .filter(|r| r.cancel_after_events.is_some())
            .count();
        let slow = plan.requests.iter().filter(|r| r.stall.is_some()).count();
        assert!(cancels > 0, "churn must script some cancels");
        assert!(slow > 0, "churn must script some slow readers");
        // A job scripted to be cancelled runs long enough for its DELETE.
        for r in &plan.requests {
            let expected = if r.cancel_after_events.is_some() {
                CANCELLED_JOB_SAMPLES
            } else {
                6
            };
            assert_eq!(r.samples, expected);
        }
    }
}
