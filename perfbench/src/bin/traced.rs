//! The traced run: the same workload and seed as the gated run, with
//! untraced and traced rounds alternating, then probes of the inner layers.
//! It prints the per-layer metrics (see the package README for what each
//! one should move) and writes the recorded spans as JSON lines under the
//! build directory.
//!
//! This is the only target that names inner types (`SocialNetwork`,
//! `CachedNetwork`, `JobDriver`, `WorkerPool`), so a change to those can
//! break the traced run but never the gated one.

use perfbench::runner::{self, Options, Round};
use perfbench::spans::{self, Span, SpanLog};
use perfbench::util::{self, median, nproc};
use perfbench::workload::Plan;
use perfbench::{report, Args, MIN_ROUNDS};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wnw_access::cached::CachedNetwork;
use wnw_access::interface::SocialNetwork;
use wnw_access::{QueryStats, Result as AccessResult, SimulatedOsn};
use wnw_engine::{Engine, JobDriver, SampleJob};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::{Graph, NodeId};
use wnw_runtime::WorkerPool;

/// `(start, end, node)` of every `neighbors` call a [`Recorded`] saw.
type CallLog = Arc<Mutex<Vec<(Instant, Instant, u32)>>>;

/// The benchmark's recording wrapper: one `(start, end, node)` entry per
/// `neighbors` call made through it. Around `SimulatedOsn`, the only
/// boundary below the service the benchmark can wrap, it times the
/// backend; around a shared `CachedNetwork` its log length counts every
/// walker lookup, cache hits included.
#[derive(Clone)]
struct Recorded<N> {
    inner: N,
    calls: CallLog,
}

impl<N> Recorded<N> {
    fn new(inner: N, calls: &CallLog) -> Self {
        Recorded {
            inner,
            calls: Arc::clone(calls),
        }
    }
}

impl<N: SocialNetwork> SocialNetwork for Recorded<N> {
    fn neighbors(&self, v: NodeId) -> AccessResult<Vec<NodeId>> {
        let start = Instant::now();
        let result = self.inner.neighbors(v);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("call log lock")
            .push((start, end, v.0));
        result
    }
    fn attribute(&self, name: &str, v: NodeId) -> AccessResult<f64> {
        self.inner.attribute(name, v)
    }
    fn seed_node(&self) -> NodeId {
        self.inner.seed_node()
    }
    fn query_stats(&self) -> QueryStats {
        self.inner.query_stats()
    }
    fn reset_counters(&self) {
        self.inner.reset_counters()
    }
    fn node_count_hint(&self) -> Option<usize> {
        self.inner.node_count_hint()
    }
}

/// A traced round and what its backend wrapper recorded.
struct Traced {
    round: Round,
    spans: Vec<Span>,
    /// Backend calls inside the timed window: (start, end, node).
    backend: Vec<(Instant, Instant, u32)>,
}

fn traced_round(plan: &Plan, epoch: Instant) -> Result<Traced, String> {
    let log = SpanLog::new(epoch);
    let calls = CallLog::default();
    let opts = Options {
        spans: Some(&log),
        fetch_traces: true,
        check_oracle: false,
    };
    let round = runner::run_round(plan, nproc(), |osn| Recorded::new(osn, &calls), &opts)?;
    let end = round.window_start + std::time::Duration::from_secs_f64(round.window_s);
    let backend: Vec<_> = std::mem::take(&mut *calls.lock().expect("call log lock"))
        .into_iter()
        .filter(|&(s, _, _)| s >= round.window_start && s <= end)
        .collect();
    let mut spans = log.take();
    spans.extend(backend.iter().map(|&(s, e, _)| Span {
        name: "backend",
        job: usize::MAX,
        start_ns: s.saturating_duration_since(epoch).as_nanos() as u64,
        end_ns: e.saturating_duration_since(epoch).as_nanos() as u64,
    }));
    Ok(Traced {
        round,
        spans,
        backend,
    })
}

/// The SampleJob the service builds from a plan job's submit body.
fn sample_job(body: &str) -> Result<SampleJob, String> {
    let doc = wnw_gateway::json::parse(body).map_err(|e| e.to_string())?;
    Ok(wnw_gateway::wire::sample_request_from_json(&doc)?.job)
}

/// The leading plan jobs that ask for about `samples` samples in total.
fn probe_jobs(plan: &Plan, samples: u64) -> Result<Vec<SampleJob>, String> {
    let mut total = 0;
    plan.jobs
        .iter()
        .take_while(|j| {
            let more = total < samples;
            total += j.samples;
            more
        })
        .map(|j| sample_job(&j.body()))
        .collect()
}

/// Engine probe: the plan's leading jobs through `Engine::run` at width
/// `nproc` over one shared `CachedNetwork`, in ms per sample.
fn engine_ms_per_sample(graph: &Graph, jobs: &[SampleJob]) -> Result<f64, String> {
    let shared = Arc::new(CachedNetwork::new(SimulatedOsn::new(graph.clone())));
    let engine = Engine::with_threads(nproc());
    let started = Instant::now();
    let mut samples = 0;
    for job in jobs {
        samples += engine.run(&shared, job).map_err(|e| e.to_string())?.len();
    }
    Ok(started.elapsed().as_secs_f64() * 1e3 / samples as f64)
}

/// Lookup probe: the same jobs stepped round by round over a recorded view
/// of one shared cache; every walker `neighbors` call per sample.
fn lookups_per_sample(graph: &Graph, jobs: &[SampleJob]) -> f64 {
    let shared = Arc::new(CachedNetwork::new(SimulatedOsn::new(graph.clone())));
    let calls = CallLog::default();
    let recorded = Recorded::new(shared, &calls);
    let pool = WorkerPool::new(nproc());
    let mut samples = 0;
    for job in jobs {
        let mut driver = JobDriver::new(recorded.clone(), job);
        while !driver.is_done() && !driver.poisoned() {
            driver.step_round(&pool);
        }
        samples += driver.samples_collected();
    }
    let lookups = calls.lock().expect("call log lock").len();
    lookups as f64 / samples as f64
}

/// Graph probe: replays the recorded backend node sequence through
/// `Graph::neighbors` and through `SimulatedOsn::neighbors`, ns per call.
fn replay_ns(graph: &Graph, nodes: &[u32]) -> (f64, f64) {
    if nodes.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let reps = (200_000 / nodes.len()).max(1);
    let time = |f: &dyn Fn(NodeId) -> usize| {
        let started = Instant::now();
        let mut acc = 0usize;
        for _ in 0..reps {
            for &v in nodes {
                acc = acc.wrapping_add(f(std::hint::black_box(NodeId(v))));
            }
        }
        std::hint::black_box(acc);
        started.elapsed().as_nanos() as f64 / (reps * nodes.len()) as f64
    };
    let graph_ns = median(
        &(0..5)
            .map(|_| time(&|v| graph.neighbors(v).len()))
            .collect::<Vec<_>>(),
    );
    let osn = SimulatedOsn::new(graph.clone());
    let osn_ns = median(
        &(0..5)
            .map(|_| time(&|v| osn.neighbors(v).map_or(0, |l| l.len())))
            .collect::<Vec<_>>(),
    );
    (graph_ns, osn_ns)
}

fn p50_us(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.map(|s| s * 1e6).collect::<Vec<_>>())
}

/// Server stage times of one job from its `/v1/jobs/{id}/trace`:
/// time to first sample (µs), rounds up to and including the one that
/// landed it, and the intervals between round stamps (µs).
fn server_stages(trace: &perfbench::json::Value) -> Option<(f64, f64, Vec<f64>)> {
    let events = trace.as_array()?;
    let at = |label: &str| {
        events
            .iter()
            .find(|e| e.str_at("event").ok() == Some(label))
            .and_then(|e| e.u64_at("at_us").ok())
    };
    let submitted = at("submitted")?;
    let first_sample = at("sample_published")?;
    let mut stamps: Vec<u64> = at("first_round").into_iter().collect();
    stamps.extend(
        events
            .iter()
            .filter(|e| e.str_at("event").ok() == Some("round_completed"))
            .filter_map(|e| e.u64_at("at_us").ok()),
    );
    // The round that lands the first sample is recorded after it is
    // published, so count the completed rounds before it, plus that one.
    let rounds_to_first = 1 + events
        .iter()
        .filter(|e| e.str_at("event").ok() == Some("round_completed"))
        .filter_map(|e| e.u64_at("at_us").ok())
        .filter(|&t| t < first_sample)
        .count();
    let intervals = stamps.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    Some((
        (first_sample - submitted) as f64,
        rounds_to_first as f64,
        intervals,
    ))
}

/// Per-layer metrics of one traced round.
fn layer_metrics(t: &Traced) -> Vec<(&'static str, f64)> {
    let r = &t.round;
    let samples = report::samples(r) as f64;
    let jobs = &r.jobs;
    let mut overhead = Vec::new();
    let mut share = Vec::new();
    let mut to_first = Vec::new();
    let mut intervals = Vec::new();
    for (job, trace) in jobs.iter().zip(&r.traces) {
        if let Some((server_ttfs_us, rounds, gaps)) = trace.as_ref().and_then(server_stages) {
            let over = job.ttfs_s * 1e6 - server_ttfs_us;
            overhead.push(over);
            share.push(over / (job.ttfs_s * 1e6));
            to_first.push(rounds);
            intervals.extend(gaps);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let done = |f: fn(&runner::Done) -> f64| {
        jobs.iter()
            .filter_map(|j| j.done.as_ref().map(f))
            .collect::<Vec<_>>()
    };
    let backend_busy: f64 = t
        .backend
        .iter()
        .map(|(s, e, _)| (*e - *s).as_secs_f64())
        .sum();
    let dispatched = report::delta(r, "worker_pool.rounds_dispatched");
    vec![
        (
            "gateway.submit_rtt_p50_us",
            p50_us(jobs.iter().map(|j| j.submit_rtt_s)),
        ),
        (
            "gateway.wire_bytes_per_sample",
            jobs.iter().map(|j| j.stream_bytes as f64).sum::<f64>() / samples,
        ),
        ("gateway.ttfs_overhead_p50_us", median(&overhead)),
        ("gateway.ttfs_share", median(&share)),
        (
            "gateway.delivery_lag_p50_us",
            median(
                &jobs
                    .iter()
                    .filter_map(|j| {
                        j.done
                            .as_ref()
                            .map(|d| j.latency_s * 1e6 - d.latency_ms * 1e3)
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "gateway.non_2xx",
            jobs.iter().filter(|j| j.non_2xx.is_some()).count() as f64,
        ),
        (
            "service.queue_wait_p50_us",
            median(&done(|d| d.queue_wait_ms * 1e3)),
        ),
        ("service.rounds_per_job", mean(&done(|d| d.rounds as f64))),
        ("service.rounds_to_first_sample", mean(&to_first)),
        ("service.round_p50_us", median(&intervals)),
        ("service.jobs_rejected", report::delta(r, "jobs_rejected")),
        (
            "runtime.wakeups_per_round",
            report::delta(r, "worker_pool.worker_wakeups") / dispatched,
        ),
        ("runtime.rounds_dispatched", dispatched),
        (
            "core.attempts_per_sample",
            jobs.iter().map(|j| j.attempts as f64).sum::<f64>() / samples,
        ),
        (
            "access.cache_hit_ratio",
            report::delta(r, "pool.cache_hits") / report::delta(r, "pool.api_calls"),
        ),
        ("access.backend_calls", t.backend.len() as f64),
        (
            "access.backend_ns_per_call",
            backend_busy * 1e9 / t.backend.len() as f64,
        ),
        ("access.backend_busy_share", backend_busy / r.window_s),
        ("access.history_hits", report::delta(r, "history.hits")),
    ]
}

fn traced(args: &Args) -> Result<(String, bool), String> {
    let plan = Plan::new(args.workload, args.seed, 0);
    let epoch = Instant::now();
    let mut calibration = vec![util::host_calibration_ms()];
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    while untraced.len() < MIN_ROUNDS - 1
        || traced.len() < MIN_ROUNDS - 1
        || epoch.elapsed().as_secs_f64() < args.seconds
    {
        if untraced.len() <= traced.len() {
            untraced.push(perfbench::untraced_round(&plan, untraced.is_empty())?);
        } else {
            traced.push(traced_round(&plan, epoch)?);
        }
    }

    let (n, m, graph_seed) = plan.graph;
    let graph = barabasi_albert(n, m, graph_seed).map_err(|e| e.to_string())?;
    let jobs = probe_jobs(&plan, 400)?;
    let engine_ms = engine_ms_per_sample(&graph, &jobs)?;
    let lookups = lookups_per_sample(&graph, &jobs);
    let replay: Vec<u32> = traced
        .last()
        .map(|t| t.backend.iter().map(|c| c.2).collect())
        .unwrap_or_default();
    let (graph_ns, osn_ns) = replay_ns(&graph, &replay);
    calibration.push(util::host_calibration_ms());

    // Medians over traced rounds of each per-round layer metric.
    let per_round: Vec<_> = traced.iter().map(layer_metrics).collect();
    let mut metrics: Vec<(String, f64, &'static str)> = per_round[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let values: Vec<f64> = per_round.iter().map(|m| m[i].1).collect();
            (name.to_string(), median(&values), unit_of(name))
        })
        .collect();
    let all_setup: Vec<_> = untraced
        .iter()
        .chain(traced.iter().map(|t| &t.round))
        .map(|r| r.setup)
        .collect();
    let setup =
        |f: fn(&runner::SetupTimes) -> f64| median(&all_setup.iter().map(f).collect::<Vec<_>>());
    let sps = |rounds: &mut dyn Iterator<Item = &Round>| {
        median(
            &rounds
                .map(|r| report::samples(r) as f64 / r.window_s)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = sps(&mut untraced.iter()) / sps(&mut traced.iter().map(|t| &t.round));
    for (name, value) in [
        ("engine.ms_per_sample", engine_ms),
        ("core.lookups_per_sample", lookups),
        ("graph.neighbors_ns_per_call", graph_ns),
        ("access.osn_overhead_ns_per_call", osn_ns - graph_ns),
        ("setup.graph_s", setup(|s| s.graph_s)),
        ("setup.service_s", setup(|s| s.service_s)),
        ("setup.gateway_s", setup(|s| s.gateway_s)),
        ("setup.warmup_s", setup(|s| s.warmup_s)),
        ("host.calibration_ms", median(&calibration)),
        ("bench.trace_overhead_ratio", overhead),
    ] {
        metrics.push((name.to_string(), value, unit_of(name)));
    }

    // Client self times, from the spans: what a job spent outside submit,
    // stream open and event reads (connection set-up, parsing).
    let all_spans: Vec<Span> = traced
        .iter()
        .flat_map(|t| t.spans.iter().copied())
        .collect();
    let job_self = spans::self_times_ns(&all_spans, "job", &["submit", "stream_open", "event"]);
    println!(
        "# client job self time p50 = {:.1} us",
        median(&job_self) / 1e3
    );
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench-spans")
        .join(format!("{}-{}.jsonl", args.workload.name(), args.seed));
    match spans::write_jsonl(&path, &all_spans) {
        Ok(()) => println!("# {} spans written to {}", all_spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }

    let mut rounds = untraced;
    rounds.extend(traced.into_iter().map(|t| t.round));
    Ok(perfbench::finish(&rounds, Some(metrics)))
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("ns_per_call") {
        "ns"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") || name.contains(".ms_per_") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("bytes") {
        "B"
    } else if name.contains("ratio") || name.contains("share") {
        "ratio"
    } else {
        "count"
    }
}

fn main() {
    perfbench::main_with(|args| {
        if !args.trace {
            return Err("the untraced run is the `perfbench` binary".into());
        }
        traced(args)
    });
}
