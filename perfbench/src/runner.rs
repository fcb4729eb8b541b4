//! One round of a workload: build the graph, the service and the gateway,
//! warm up, then drive the timed jobs through loopback HTTP from a closed
//! loop of `nproc` clients, each holding at most one connection.

use crate::http::{self, Conn};
use crate::json::{self, Value};
use crate::spans::SpanLog;
use crate::util;
use crate::workload::{JobSpec, Plan};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use wnw_access::interface::ThreadedNetwork;
use wnw_access::SimulatedOsn;
use wnw_gateway::{GatewayConfig, GatewayServer};
use wnw_graph::generators::random::barabasi_albert;
use wnw_service::SamplingService;

/// The `done` event of a job, as streamed.
#[derive(Debug, Clone, Default)]
pub struct Done {
    pub status: String,
    pub samples: u64,
    pub query_cost: u64,
    pub rounds: u64,
    pub latency_ms: f64,
    pub queue_wait_ms: f64,
}

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// Index in the plan's timed jobs.
    pub index: usize,
    pub job_id: u64,
    /// First non-2xx status seen, if any.
    pub non_2xx: Option<u16>,
    pub error: Option<String>,
    /// POST sent → `202` read, seconds.
    pub submit_rtt_s: f64,
    /// POST sent → first `sample` line read.
    pub ttfs_s: f64,
    /// POST sent → `done` line read.
    pub latency_s: f64,
    /// Sampled node ids in arrival order.
    pub nodes: Vec<u32>,
    /// Sum of the `attempts` fields of the `sample` events.
    pub attempts: u64,
    /// Response bytes of the stream (head, chunk framing and payload).
    pub stream_bytes: u64,
    pub done: Option<Done>,
}

impl JobResult {
    /// The failure rule: shed or non-2xx, a stream error, a non-`completed`
    /// status, or fewer samples than requested.
    pub fn failure(&self, spec: &JobSpec) -> Option<String> {
        if let Some(status) = self.non_2xx {
            return Some(format!("HTTP {status}"));
        }
        if let Some(err) = &self.error {
            return Some(err.clone());
        }
        let Some(done) = &self.done else {
            return Some("stream ended without a done event".into());
        };
        if done.status != "completed" {
            return Some(format!("status {}", done.status));
        }
        if done.samples != spec.samples || self.nodes.len() as u64 != spec.samples {
            return Some(format!(
                "{} samples streamed, done says {}, requested {}",
                self.nodes.len(),
                done.samples,
                spec.samples
            ));
        }
        None
    }
}

/// Set-up stage durations, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub graph_s: f64,
    pub service_s: f64,
    pub gateway_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.graph_s + self.service_s + self.gateway_s + self.warmup_s
    }
}

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    /// The plan the round ran.
    pub plan: Plan,
    pub setup: SetupTimes,
    /// Timed window: first POST of the closed loop → last `done` read.
    pub window_s: f64,
    pub window_start: Instant,
    /// Process CPU over the timed window, seconds.
    pub cpu_s: f64,
    /// `VmHWM` at the end of the timed window, MiB.
    pub peak_rss_mb: f64,
    pub jobs: Vec<JobResult>,
    /// Failures of warm-up jobs (which must all succeed too).
    pub warmup_failures: Vec<String>,
    /// `/v1/metrics` before and after the timed window.
    pub metrics_before: Value,
    pub metrics_after: Value,
    /// `/v1/jobs/{id}/trace` per timed job, when asked for.
    pub traces: Vec<Option<Value>>,
    /// 1 − relative error of the mean-degree estimate from every sample.
    pub estimate_accuracy: f64,
    /// Oracle mismatches (plan index, message), when asked for.
    pub oracle_mismatches: Vec<String>,
}

/// What a round should do beyond the timed loop.
pub struct Options<'a> {
    /// Client spans go here (traced run only).
    pub spans: Option<&'a SpanLog>,
    /// Fetch every timed job's server trace after the window.
    pub fetch_traces: bool,
    /// Check the plan's oracle jobs against a direct engine run.
    pub check_oracle: bool,
}

/// Runs one job: POST on a fresh connection, then GET its stream on the
/// same connection (the server closes it after the stream).
pub fn run_job(addr: SocketAddr, index: usize, body: &[u8], spans: Option<&SpanLog>) -> JobResult {
    let mut result = JobResult {
        index,
        ..JobResult::default()
    };
    let started = Instant::now();
    if let Err(err) = drive_job(addr, body, started, &mut result, spans) {
        result.error = Some(err);
    }
    if let Some(log) = spans {
        log.record("job", index, started, Instant::now());
    }
    result
}

fn drive_job(
    addr: SocketAddr,
    body: &[u8],
    started: Instant,
    r: &mut JobResult,
    spans: Option<&SpanLog>,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut conn = Conn::connect(addr).map_err(io)?;
    conn.send("POST", "/v1/jobs", Some(body), false)
        .map_err(io)?;
    let head = conn.read_head().map_err(io)?;
    let reply = conn.read_body(&head).map_err(io)?;
    let submitted = Instant::now();
    r.submit_rtt_s = (submitted - started).as_secs_f64();
    if let Some(log) = spans {
        log.record("submit", r.index, started, submitted);
    }
    if !(200..300).contains(&head.status) {
        r.non_2xx = Some(head.status);
        return Ok(());
    }
    let reply = json::parse(&reply)?;
    r.job_id = reply.u64_at("job_id")?;
    let path = reply.str_at("stream")?.to_string();

    conn.send("GET", &path, None, true).map_err(io)?;
    let before = conn.bytes_read;
    let head = conn.read_head().map_err(io)?;
    if let Some(log) = spans {
        log.record("stream_open", r.index, submitted, Instant::now());
    }
    if !(200..300).contains(&head.status) {
        r.non_2xx = Some(head.status);
        return Ok(());
    }
    if !head.chunked {
        return Err("stream response is not chunked".into());
    }
    let mut chunk = Vec::new();
    let mut pending = Vec::new();
    let mut last = Instant::now();
    while conn.read_chunk(&mut chunk).map_err(io)? {
        pending.extend_from_slice(&chunk);
        while let Some(end) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=end).collect();
            let now = Instant::now();
            let event = json::parse(&line)?;
            match event.str_at("event")? {
                "sample" => {
                    if r.nodes.is_empty() {
                        r.ttfs_s = (now - started).as_secs_f64();
                    }
                    r.nodes
                        .push(u32::try_from(event.u64_at("node")?).map_err(|e| e.to_string())?);
                    r.attempts += event.u64_at("attempts")?;
                }
                "done" => {
                    r.latency_s = (now - started).as_secs_f64();
                    r.done = Some(Done {
                        status: event.str_at("status")?.to_string(),
                        samples: event.u64_at("samples")?,
                        query_cost: event.u64_at("query_cost")?,
                        rounds: event.u64_at("rounds")?,
                        latency_ms: event.f64_at("latency_ms")?,
                        queue_wait_ms: event.f64_at("queue_wait_ms")?,
                    });
                }
                _ => {}
            }
            if let Some(log) = spans {
                log.record("event", r.index, last, now);
            }
            last = now;
        }
    }
    if !pending.is_empty() {
        return Err("stream ended mid-line".into());
    }
    r.stream_bytes = conn.bytes_read - before;
    Ok(())
}

/// Fetches `/v1/metrics` as JSON.
pub fn fetch_metrics(addr: SocketAddr) -> Result<Value, String> {
    let (status, body) = http::get(addr, "/v1/metrics").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/v1/metrics answered {status}"));
    }
    json::parse(&body)
}

/// Builds everything, runs the warm-up and the timed closed loop, and
/// tears down. `wrap` turns the simulated network into the backend the
/// service is built over (identity in the gated run).
pub fn run_round<N, F>(
    plan: &Plan,
    clients: usize,
    wrap: F,
    opts: &Options,
) -> Result<Round, String>
where
    N: ThreadedNetwork + 'static,
    F: FnOnce(SimulatedOsn) -> N,
{
    let t0 = Instant::now();
    let (n, m, graph_seed) = plan.graph;
    let graph = barabasi_albert(n, m, graph_seed).map_err(|e| e.to_string())?;
    let osn = SimulatedOsn::new(graph);
    let t1 = Instant::now();
    // A handle on the same network for the checks after the window.
    let truth = osn.clone();
    let backend = wrap(osn);
    let t1b = Instant::now();
    let service = SamplingService::builder(backend).build();
    let t2 = Instant::now();
    let server = GatewayServer::bind_with(service, "127.0.0.1:0", GatewayConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let t3 = Instant::now();
    let warmup_failures: Vec<String> = plan
        .warmup
        .iter()
        .enumerate()
        .filter_map(|(i, spec)| {
            run_job(addr, i, spec.body().as_bytes(), None)
                .failure(spec)
                .map(|f| format!("warm-up job {i}: {f}"))
        })
        .collect();
    let t4 = Instant::now();
    let setup = SetupTimes {
        graph_s: (t1 - t0).as_secs_f64(),
        service_s: (t2 - t1b).as_secs_f64(),
        gateway_s: (t3 - t2).as_secs_f64(),
        warmup_s: (t4 - t3).as_secs_f64(),
    };

    let metrics_before = fetch_metrics(addr)?;
    let bodies: Vec<Vec<u8>> = plan.jobs.iter().map(|j| j.body().into_bytes()).collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(bodies.len()));
    let cpu0 = util::process_cpu_s();
    let w0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(i) else { break };
                let r = run_job(addr, i, body, opts.spans);
                results.lock().expect("results lock").push(r);
            });
        }
    });
    let window_s = w0.elapsed().as_secs_f64();
    let cpu_s = util::process_cpu_s() - cpu0;
    let peak_rss_mb = util::peak_rss_mb();
    let metrics_after = fetch_metrics(addr)?;
    let mut jobs = results.into_inner().expect("results lock");
    jobs.sort_by_key(|r| r.index);

    let traces = if opts.fetch_traces {
        jobs.iter()
            .map(|r| {
                let (status, body) =
                    http::get(addr, &format!("/v1/jobs/{}/trace", r.job_id)).ok()?;
                (status == 200).then(|| json::parse(&body).ok()).flatten()
            })
            .collect()
    } else {
        Vec::new()
    };
    drop(server);

    let graph = truth.ground_truth();
    let estimate_accuracy = crate::gate::estimate_accuracy(graph, &jobs);
    let oracle_mismatches = if opts.check_oracle {
        crate::gate::oracle_mismatches(&truth, plan, &jobs)
    } else {
        Vec::new()
    };
    Ok(Round {
        plan: plan.clone(),
        setup,
        window_s,
        window_start: w0,
        cpu_s,
        peak_rss_mb,
        jobs,
        warmup_failures,
        metrics_before,
        metrics_after,
        traces,
        estimate_accuracy,
        oracle_mismatches,
    })
}
