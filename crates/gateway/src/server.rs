//! The gateway server: a readiness loop over non-blocking sockets,
//! routing requests over one [`SamplingService`].
//!
//! Concurrency model: `io_threads` (default 2) readiness loops share one
//! non-blocking `TcpListener` and step every connection they own through
//! its [`Conn`] state machine — accumulate request bytes, route, buffer
//! NDJSON stream events, write on writability. No thread ever blocks on a
//! socket, so the thread count bounds *CPU* concurrency only: thousands
//! of slow or idle streaming clients cost two threads, not thousands.
//! Work that can block or compute (job submission, metrics snapshots,
//! trace replays) is handed to a small task pool of `workers` threads
//! whose replies re-arm the waiting connection.
//!
//! Load shedding happens at `max_connections`: a connection beyond the
//! cap is answered `503`, half-closed, and linger-drained so the client
//! reads the status instead of a connection reset — the same
//! shed-don't-queue philosophy as the service's admission control.
//!
//! Client disconnects during a stream surface as write errors or write
//! stalls; the connection drops its claimed
//! [`SampleStream`](wnw_service::SampleStream), which is the service's
//! consumer-hang-up signal: the scheduler cancels the job at the next
//! delivery and refunds its unused budget.

use crate::conn::{Conn, ConnLimits, Step};
use crate::http::{
    error_bytes, is_idle_timeout, json_bytes, response_bytes, Request, RequestParser,
};
use crate::json::{self, Json};
use crate::wire;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wnw_access::interface::ThreadedNetwork;
use wnw_service::{
    AdmissionError, ClaimError, JobId, JobRegistry, SamplingService, ServiceMetricsSnapshot,
};

/// Tuning knobs of a [`GatewayServer`].
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Task-pool threads for blocking work (job submission, metrics and
    /// trace snapshots). Streaming clients do NOT occupy these — they
    /// live on the I/O threads. Default 4.
    pub workers: usize,
    /// Connections accepted per readiness tick per I/O thread (an accept
    /// burst bound, not a queue depth). Default 64.
    pub backlog: usize,
    /// Readiness-loop threads carrying every connection. Default 2.
    pub io_threads: usize,
    /// Open connections beyond which new arrivals are shed with `503`.
    /// Default 1024.
    pub max_connections: usize,
    /// Largest accepted request body. Default 64 KiB.
    pub max_body_bytes: usize,
    /// Whole-request deadline (a stalled partial request gets `408`) and
    /// keep-alive idle reap timeout. Default 5 s.
    pub read_timeout: Duration,
    /// How long a connection's pending bytes may make zero write progress
    /// before the peer counts as wedged (dropping the connection cancels
    /// and refunds a streamed job). Default 5 s.
    pub write_timeout: Duration,
    /// How long a submitted job's stream may sit unclaimed before the
    /// gateway reaps it (cancelling the job and refunding its budget, via
    /// [`JobRegistry::sweep_unclaimed`]). Bounds the memory and query
    /// budget a fire-and-forget submitter can burn. Default 60 s.
    pub claim_ttl: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            backlog: 64,
            io_threads: 2,
            max_connections: 1024,
            max_body_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            claim_ttl: Duration::from_secs(60),
        }
    }
}

/// Shared state of all gateway threads.
struct State<N: ThreadedNetwork + 'static> {
    service: SamplingService<N>,
    registry: JobRegistry,
    config: GatewayConfig,
    shutdown: AtomicBool,
    /// Open connections across all I/O threads (shed gate).
    connections: AtomicUsize,
    /// When the gateway came up — `/healthz` reports the uptime.
    started: Instant,
}

/// A blocking unit of work dispatched to the task pool; it delivers its
/// response bytes through the channel captured inside.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// An HTTP/1.1 frontend over a [`SamplingService`], bound to a loopback (or
/// any TCP) address.
///
/// | Route | Meaning |
/// |---|---|
/// | `POST /v1/jobs` | submit a sampling request (JSON body) |
/// | `GET /v1/jobs/{id}/stream` | chunked NDJSON event stream of the job |
/// | `DELETE /v1/jobs/{id}` | cooperative cancel |
/// | `GET /v1/metrics` | service metrics snapshot (JSON) |
/// | `GET /v1/metrics/prometheus` | Prometheus text exposition of the same snapshot |
/// | `GET /v1/jobs/{id}/trace` | the job's lifecycle trace events (JSON array) |
/// | `GET /healthz` | liveness probe (`status` `ok`/`degraded`, `version`, `uptime_seconds`, breaker + fault counts when a resilience monitor is attached) |
///
/// See the [crate docs](crate) for the wire format and a walkthrough.
#[derive(Debug)]
pub struct GatewayServer<N: ThreadedNetwork + 'static> {
    addr: SocketAddr,
    /// `None` only transiently inside [`shutdown`](Self::shutdown), after
    /// the threads are joined (defuses the `Drop` teardown).
    state: Option<Arc<State<N>>>,
    io_threads: Vec<JoinHandle<()>>,
    task_threads: Vec<JoinHandle<()>>,
}

// Manual Debug for State would drag N: Debug bounds around; the server's
// Debug only needs the address.
impl<N: ThreadedNetwork + 'static> std::fmt::Debug for State<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("State")
            .field("registry_len", &self.registry.len())
            .finish_non_exhaustive()
    }
}

impl<N: ThreadedNetwork + 'static> GatewayServer<N> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts serving `service` with the default configuration.
    pub fn bind(service: SamplingService<N>, addr: &str) -> io::Result<Self> {
        Self::bind_with(service, addr, GatewayConfig::default())
    }

    /// Binds `addr` with an explicit configuration.
    pub fn bind_with(
        service: SamplingService<N>,
        addr: &str,
        config: GatewayConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let state = Arc::new(State {
            service,
            registry: JobRegistry::default(),
            config,
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            started: Instant::now(),
        });

        let (task_tx, task_rx) = std::sync::mpsc::channel::<Task>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let task_threads = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&task_rx);
                std::thread::Builder::new()
                    .name(format!("wnw-gateway-task-{i}"))
                    .spawn(move || task_loop(rx))
                    .expect("spawn gateway task worker")
            })
            .collect();
        let io_threads = (0..config.io_threads.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let state = Arc::clone(&state);
                let tasks = task_tx.clone();
                std::thread::Builder::new()
                    .name(format!("wnw-gateway-io-{i}"))
                    .spawn(move || io_loop(listener, state, tasks))
                    .expect("spawn gateway io thread")
            })
            .collect();
        // The I/O threads hold the only task senders: once they exit, the
        // task workers drain the queue and exit too.
        drop(task_tx);

        Ok(GatewayServer {
            addr,
            state: Some(state),
            io_threads,
            task_threads,
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the underlying service's metrics.
    pub fn metrics(&self) -> ServiceMetricsSnapshot {
        self.state
            .as_ref()
            .expect("state present until shutdown")
            .service
            .metrics()
    }

    /// Stops accepting, cancels every registered job so in-flight streams
    /// reach their `Done` event promptly, drains the I/O and task
    /// threads, shuts the service down, and returns its final metrics
    /// snapshot.
    pub fn shutdown(mut self) -> ServiceMetricsSnapshot {
        self.stop_threads();
        let state = self.state.take().expect("shutdown runs once");
        match Arc::try_unwrap(state) {
            Ok(state) => state.service.shutdown(),
            // All threads were joined, so this Arc is unique; if that ever
            // stops holding, the service still drains when the last clone
            // drops — return the best snapshot available.
            Err(state) => state.service.metrics(),
        }
    }

    fn stop_threads(&mut self) {
        let Some(state) = self.state.as_ref() else {
            return;
        };
        state.shutdown.store(true, Ordering::SeqCst);
        // Streams buffered by connections end once their jobs go terminal.
        state.registry.cancel_all();
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
        // The I/O threads held the task senders; the workers now drain
        // whatever was queued and exit.
        for handle in self.task_threads.drain(..) {
            let _ = handle.join();
        }
        // A task worker may have been mid-submit when the first
        // cancel_all ran, registering its job just after. Every thread is
        // joined now, so the registry is quiescent; cancel again so the
        // service drain never waits on a straggler running to completion.
        state.registry.cancel_all();
    }
}

impl<N: ThreadedNetwork + 'static> Drop for GatewayServer<N> {
    /// Dropping the server tears the HTTP threads down and drains the
    /// service like [`shutdown`](Self::shutdown), discarding the snapshot.
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn task_loop(rx: Arc<Mutex<Receiver<Task>>>) {
    loop {
        let task = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        match task {
            // A panicking handler drops its reply sender, which the waiting
            // connection answers with 500 + close; this thread lives on.
            Ok(task) => {
                let _ = catch_unwind(AssertUnwindSafe(task));
            }
            Err(_) => return, // every sender gone: shutdown.
        }
    }
}

/// Idle backoff bounds of a readiness loop: sleep briefly when a tick
/// moved nothing, doubling up to the cap so an idle gateway costs ~nothing
/// while a busy one spins flat out.
const MIN_IDLE_SLEEP: Duration = Duration::from_micros(100);
const MAX_IDLE_SLEEP: Duration = Duration::from_millis(2);
/// Steps one connection may take back-to-back in a tick before yielding
/// to its neighbours (fairness under pipelining).
const MAX_STEPS_PER_TICK: usize = 8;

fn io_loop<N: ThreadedNetwork + 'static>(
    listener: Arc<TcpListener>,
    state: Arc<State<N>>,
    tasks: Sender<Task>,
) {
    let parser = RequestParser::new(state.config.max_body_bytes);
    let limits = ConnLimits::for_config(&state.config);
    let mut conns: Vec<Conn<TcpStream>> = Vec::new();
    let mut idle_sleep = MIN_IDLE_SLEEP;
    while !state.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        let mut progressed = false;

        // Accept a bounded burst of new connections.
        for _ in 0..state.config.backlog.max(1) {
            match listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let mut conn = Conn::new(stream, parser, limits, now);
                    let open = state.connections.fetch_add(1, Ordering::SeqCst);
                    if open >= state.config.max_connections {
                        conn.shed(now);
                    }
                    conns.push(conn);
                }
                Err(e) if is_idle_timeout(&e) => break,
                Err(_) => break,
            }
        }

        // Step every connection; remove the finished ones.
        let mut i = 0;
        while i < conns.len() {
            let mut done = false;
            for _ in 0..MAX_STEPS_PER_TICK {
                match conns[i].step(now, &state.registry) {
                    Step::Route(request) => {
                        progressed = true;
                        route(&state, &tasks, &mut conns[i], &request, now);
                    }
                    Step::Progress => progressed = true,
                    Step::Idle => break,
                    Step::Done => {
                        done = true;
                        break;
                    }
                }
            }
            if done {
                conns.swap_remove(i);
                state.connections.fetch_sub(1, Ordering::SeqCst);
            } else {
                i += 1;
            }
        }

        if progressed {
            idle_sleep = MIN_IDLE_SLEEP;
        } else {
            std::thread::sleep(idle_sleep);
            idle_sleep = (idle_sleep * 2).min(MAX_IDLE_SLEEP);
        }
    }
    // Shutdown: dropping the connections drops their claimed streams (the
    // hang-up signal for any job the registry cancel missed).
    state.connections.fetch_sub(conns.len(), Ordering::SeqCst);
}

/// Routes one parsed request on the I/O thread. Cheap lookups answer
/// inline; anything that can block is dispatched to the task pool and the
/// connection parks in its waiting state.
fn route<N: ThreadedNetwork + 'static>(
    state: &Arc<State<N>>,
    tasks: &Sender<Task>,
    conn: &mut Conn<TcpStream>,
    request: &Request,
    now: Instant,
) {
    // During shutdown, answer the in-flight request but stop reusing the
    // connection so the I/O loop can exit.
    let keep_alive = request.keep_alive() && !state.shutdown.load(Ordering::SeqCst);
    let close = !keep_alive;
    let segments = request.path_segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            conn.push_response(now, json_bytes(200, &health_json(state), close), keep_alive);
        }
        ("GET", ["v1", "metrics"]) => {
            let state = Arc::clone(state);
            dispatch(tasks, conn, keep_alive, move || {
                json_bytes(200, &wire::metrics_to_json(&state.service.metrics()), close)
            });
        }
        ("GET", ["v1", "metrics", "prometheus"]) => {
            let state = Arc::clone(state);
            dispatch(tasks, conn, keep_alive, move || {
                let body = wire::metrics_to_prometheus(&state.service.metrics());
                response_bytes(200, "text/plain; version=0.0.4", body.as_bytes(), close)
            });
        }
        ("GET", ["v1", "jobs", id, "trace"]) => {
            let state = Arc::clone(state);
            let id = id.to_string();
            dispatch(tasks, conn, keep_alive, move || {
                let events = parse_id(&id).map_or_else(Vec::new, |id| state.service.trace_of(id));
                if events.is_empty() {
                    // Unknown job, tracing off, or the ring evicted it.
                    error_bytes(404, "no trace for job", close)
                } else {
                    let body = Json::Arr(events.iter().map(wire::trace_event_to_json).collect());
                    json_bytes(200, &body, close)
                }
            });
        }
        ("POST", ["v1", "jobs"]) => {
            let state = Arc::clone(state);
            let body = request.body.clone();
            dispatch(tasks, conn, keep_alive, move || {
                submit_response(&state, &body, close)
            });
        }
        // Claiming is a cheap registry lookup, and the stream must attach
        // to this connection's state machine — always inline. Stream
        // responses (and their claim errors, as before) close the
        // connection.
        ("GET", ["v1", "jobs", id, "stream"]) => match parse_id(id)
            .ok_or(ClaimError::Unknown)
            .and_then(|id| state.registry.claim_stream(id).map(|s| (s, id)))
        {
            Ok((stream, id)) => conn.begin_stream(stream, id),
            Err(ClaimError::Unknown) => {
                conn.push_response(now, error_bytes(404, "unknown job", true), false);
            }
            Err(ClaimError::AlreadyClaimed) => {
                conn.push_response(now, error_bytes(409, "stream already claimed", true), false);
            }
        },
        ("DELETE", ["v1", "jobs", id]) => match parse_id(id) {
            Some(id) if state.registry.cancel(id) => {
                let body = Json::obj(vec![
                    ("job_id", Json::UInt(id.0)),
                    ("cancelled", Json::Bool(true)),
                ]);
                conn.push_response(now, json_bytes(200, &body, close), keep_alive);
            }
            _ => conn.push_response(now, error_bytes(404, "unknown job", close), keep_alive),
        },
        // Known paths under the wrong method get a 405, unknown paths 404.
        (_, ["healthz"])
        | (_, ["v1", "metrics"])
        | (_, ["v1", "metrics", "prometheus"])
        | (_, ["v1", "jobs"])
        | (_, ["v1", "jobs", _, "stream"])
        | (_, ["v1", "jobs", _, "trace"])
        | (_, ["v1", "jobs", _]) => {
            conn.push_response(
                now,
                error_bytes(405, "method not allowed", close),
                keep_alive,
            );
        }
        _ => conn.push_response(now, error_bytes(404, "no such route", close), keep_alive),
    }
}

/// Parks `conn` and runs `work` on the task pool; the reply re-arms the
/// connection. If `work` panics or the pool is gone (shutdown), the
/// dropped sender surfaces as `500` + close on the next step.
fn dispatch<F>(tasks: &Sender<Task>, conn: &mut Conn<TcpStream>, keep_alive: bool, work: F)
where
    F: FnOnce() -> Vec<u8> + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
    conn.begin_wait(rx, keep_alive);
    let task: Task = Box::new(move || {
        // The connection may have died while we computed; nothing to do.
        let _ = tx.send(work());
    });
    let _ = tasks.send(task);
}

/// The `/healthz` body. With a resilience monitor attached, an open
/// circuit breaker downgrades the probe to "degraded" (still 200: the
/// gateway is alive and serving, the backend is shedding) and the body
/// carries the breaker and fault counts a prober needs to alert on.
/// Without a monitor the original three-field shape is kept.
fn health_json<N: ThreadedNetwork + 'static>(state: &State<N>) -> Json {
    let resilience = state.service.resilience().map(|m| m.stats());
    let degraded = resilience.is_some_and(|s| s.breaker_open);
    let mut fields = vec![
        (
            "status",
            Json::str(if degraded { "degraded" } else { "ok" }),
        ),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "uptime_seconds",
            Json::UInt(state.started.elapsed().as_secs()),
        ),
    ];
    if let Some(stats) = resilience {
        fields.push(("breaker_open", Json::Bool(stats.breaker_open)));
        fields.push(("breaker_opened", Json::UInt(stats.breaker_opened)));
        fields.push(("breaker_fast_fails", Json::UInt(stats.breaker_fast_fails)));
        fields.push(("faults_seen", Json::UInt(stats.faults_seen)));
        fields.push(("retries_exhausted", Json::UInt(stats.retries_exhausted)));
    }
    Json::obj(fields)
}

/// `POST /v1/jobs` on the task pool: sweep, parse, submit, register,
/// answer `202` with the id.
fn submit_response<N: ThreadedNetwork + 'static>(
    state: &State<N>,
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    // Reap fire-and-forget jobs whose streams were never claimed: they are
    // still burning query budget and buffering events. Sweeping on every
    // submission bounds the unclaimed population by the submission rate
    // within one TTL window.
    state.registry.sweep_unclaimed(state.config.claim_ttl);
    let request = match std::str::from_utf8(body)
        .map_err(|_| "request body is not UTF-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
        .and_then(|json| wire::sample_request_from_json(&json))
    {
        Ok(sample_request) => sample_request,
        Err(message) => return error_bytes(400, &message, close),
    };
    match state.service.submit(request) {
        Ok(ticket) => {
            let id = state.registry.register(ticket);
            let body = Json::obj(vec![
                ("job_id", Json::UInt(id.0)),
                ("stream", Json::Str(format!("/v1/jobs/{}/stream", id.0))),
            ]);
            json_bytes(202, &body, close)
        }
        Err(err @ AdmissionError::Invalid(_)) => error_bytes(400, &err.to_string(), close),
        Err(err @ (AdmissionError::Saturated { .. } | AdmissionError::ShuttingDown)) => {
            error_bytes(503, &err.to_string(), close)
        }
    }
}

fn parse_id(text: &str) -> Option<JobId> {
    text.parse::<u64>().ok().map(JobId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::io::{Read, Write};
    use wnw_access::SimulatedOsn;
    use wnw_graph::generators::random::barabasi_albert;

    fn server() -> GatewayServer<SimulatedOsn> {
        let osn = SimulatedOsn::new(barabasi_albert(400, 3, 5).unwrap());
        let service = SamplingService::builder(osn).pool_threads(1).build();
        GatewayServer::bind(service, "127.0.0.1:0").expect("bind loopback")
    }

    #[test]
    fn a_panicking_task_does_not_kill_its_worker() {
        let (tasks, rx) = std::sync::mpsc::channel::<Task>();
        let worker = std::thread::spawn(move || task_loop(Arc::new(Mutex::new(rx))));
        let (reply, replies) = std::sync::mpsc::channel();
        tasks.send(Box::new(|| panic!("handler bug"))).unwrap();
        tasks
            .send(Box::new(move || reply.send("next").unwrap()))
            .unwrap();
        let next = replies.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            next,
            Ok("next"),
            "the one worker ran the task after the panic"
        );
        drop(tasks);
        worker.join().expect("the worker exits cleanly at shutdown");
    }

    #[test]
    fn health_metrics_and_unknown_routes() {
        let server = server();
        let addr = server.local_addr();
        let health = client::get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200);
        let health = health.json().unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            health.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(health.get("uptime_seconds").unwrap().as_u64().is_some());
        assert!(
            health.get("breaker_open").is_none(),
            "without a resilience monitor the probe keeps its three-field shape"
        );

        let metrics = client::get(addr, "/v1/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        let doc = metrics.json().unwrap();
        assert_eq!(doc.get("jobs_submitted").unwrap().as_u64(), Some(0));
        assert!(doc.get("shared_cache_savings").is_some());
        assert!(doc.get("max_queue_wait_ms").is_some());
        assert!(doc.get("pool").unwrap().get("unique_nodes").is_some());

        assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
        assert_eq!(
            client::get(addr, "/v1/jobs/xyz/stream").unwrap().status,
            404
        );
        assert_eq!(client::delete(addr, "/v1/jobs/99").unwrap().status, 404);
        assert_eq!(client::get(addr, "/v1/jobs/99/trace").unwrap().status, 404);
        // Wrong method on a known path.
        assert_eq!(client::delete(addr, "/healthz").unwrap().status, 405);
        assert_eq!(client::get(addr, "/v1/jobs").unwrap().status, 405);
        assert_eq!(
            client::delete(addr, "/v1/metrics/prometheus")
                .unwrap()
                .status,
            405
        );
        assert_eq!(
            client::delete(addr, "/v1/jobs/1/trace").unwrap().status,
            405
        );
        server.shutdown();
    }

    #[test]
    fn healthz_reports_degraded_while_the_breaker_is_open() {
        use wnw_access::interface::SocialNetwork;
        use wnw_access::{FaultProfile, FaultyNetwork, ResilientNetwork, RetryPolicy};
        use wnw_graph::NodeId;

        let faulty = FaultyNetwork::new(
            SimulatedOsn::new(barabasi_albert(200, 3, 5).unwrap()),
            7,
            FaultProfile {
                blackout_fraction: 1.0,
                ..FaultProfile::OFF
            },
        );
        let policy = RetryPolicy {
            breaker_threshold: 1,
            breaker_cooldown_secs: 1 << 40,
            ..RetryPolicy::DEFAULT
        };
        let resilient = ResilientNetwork::new(faulty, policy, 7);
        let monitor = resilient.monitor();
        // Trip the breaker before the gateway comes up: every node is
        // blacked out, so the first failed attempt crosses threshold 1.
        assert!(resilient.neighbors(NodeId(0)).is_err());
        assert!(monitor.breaker_open());

        let service = SamplingService::builder(resilient)
            .pool_threads(1)
            .resilience(monitor)
            .build();
        let server = GatewayServer::bind(service, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let health = client::get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200, "degraded is alive, not down");
        let health = health.json().unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(health.get("breaker_open").unwrap().as_bool(), Some(true));
        assert_eq!(health.get("breaker_opened").unwrap().as_u64(), Some(1));
        assert!(health.get("faults_seen").unwrap().as_u64().unwrap() >= 1);
        assert!(health.get("retries_exhausted").unwrap().as_u64().is_some());
        assert!(health.get("breaker_fast_fails").unwrap().as_u64().is_some());
        server.shutdown();
    }

    #[test]
    fn prometheus_scrape_validates_and_trace_replays_a_job() {
        let server = server();
        let addr = server.local_addr();

        // Run one job to completion so the histograms have mass.
        let body = json::parse(r#"{"samples": 5, "seed": 21, "walkers": 2}"#).unwrap();
        let accepted = client::post(addr, "/v1/jobs", &body)
            .unwrap()
            .json()
            .unwrap();
        let id = accepted.get("job_id").unwrap().as_u64().unwrap();
        let path = accepted
            .get("stream")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let done = client::open_stream(addr, &path)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.get("event").unwrap().as_str() == Some("done"))
            .expect("done event");
        assert_eq!(done.get("status").unwrap().as_str(), Some("completed"));

        let scrape = client::get(addr, "/v1/metrics/prometheus").unwrap();
        assert_eq!(scrape.status, 200);
        assert!(scrape
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")));
        let text = String::from_utf8(scrape.body.clone()).unwrap();
        let stats = wnw_telemetry::prometheus::validate(&text).expect("scrape validates");
        assert!(stats.series >= 20, "got only {} series", stats.series);
        assert_eq!(stats.histograms, 6);
        assert!(text.contains("wnw_jobs_completed_total 1"));
        assert!(text.contains("wnw_queue_wait_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("wnw_job_latency_us_count 1"));
        assert!(text.contains("wnw_time_to_first_sample_us_count 1"));

        // The finished job's trace replays its whole life.
        let trace = client::get(addr, &format!("/v1/jobs/{id}/trace")).unwrap();
        assert_eq!(trace.status, 200);
        let Json::Arr(events) = trace.json().unwrap() else {
            panic!("trace body must be a JSON array");
        };
        let labels: Vec<String> = events
            .iter()
            .map(|e| e.get("event").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(labels.first().map(String::as_str), Some("submitted"));
        assert_eq!(labels.last().map(String::as_str), Some("finished"));
        assert!(labels.iter().any(|l| l == "first_round"));
        assert!(labels.iter().any(|l| l == "sample_published"));
        let at: Vec<u64> = events
            .iter()
            .map(|e| e.get("at_us").unwrap().as_u64().unwrap())
            .collect();
        assert!(at.windows(2).all(|w| w[0] <= w[1]), "monotone timestamps");
        server.shutdown();
    }

    #[test]
    fn submit_stream_and_delete_lifecycle() {
        let server = server();
        let addr = server.local_addr();
        let body =
            json::parse(r#"{"samples": 6, "seed": 11, "walkers": 2, "diameter_estimate": 4}"#)
                .unwrap();
        let resp = client::post(addr, "/v1/jobs", &body).unwrap();
        assert_eq!(resp.status, 202);
        let doc = resp.json().unwrap();
        let id = doc.get("job_id").unwrap().as_u64().unwrap();
        let path = doc.get("stream").unwrap().as_str().unwrap().to_string();
        assert_eq!(path, format!("/v1/jobs/{id}/stream"));

        let mut samples = 0;
        let mut done = None;
        for line in client::open_stream(addr, &path).unwrap() {
            let event = line.unwrap();
            match event.get("event").unwrap().as_str().unwrap() {
                "sample" => samples += 1,
                "done" => done = Some(event.clone()),
                _ => {}
            }
        }
        assert_eq!(samples, 6);
        let done = done.expect("stream ends with done");
        assert_eq!(done.get("status").unwrap().as_str(), Some("completed"));
        assert_eq!(done.get("samples").unwrap().as_u64(), Some(6));

        // The registry entry is gone once the stream was served.
        assert_eq!(
            client::get(addr, &path).unwrap().status,
            404,
            "served streams are discarded"
        );
        let metrics = server.shutdown();
        assert_eq!(metrics.jobs_completed, 1);
        assert_eq!(metrics.samples_delivered, 6);
    }

    #[test]
    fn second_stream_claim_conflicts() {
        let server = server();
        let addr = server.local_addr();
        // A large job keeps the first stream open while we try the second.
        let body = json::parse(r#"{"samples": 100000, "seed": 3, "walkers": 2}"#).unwrap();
        let id = client::post(addr, "/v1/jobs", &body)
            .unwrap()
            .json()
            .unwrap()
            .get("job_id")
            .unwrap()
            .as_u64()
            .unwrap();
        let path = format!("/v1/jobs/{id}/stream");
        let mut first = client::open_stream(addr, &path).unwrap();
        assert!(first.next().is_some(), "first claim streams events");
        let second = client::get(addr, &path).unwrap();
        assert_eq!(second.status, 409, "stream is single-consumer");
        drop(first);
        server.shutdown();
    }

    #[test]
    fn invalid_bodies_are_rejected_with_400() {
        let server = server();
        let addr = server.local_addr();
        let resp = client::post(addr, "/v1/jobs", &Json::str("not an object")).unwrap();
        assert_eq!(resp.status, 400);
        let resp = client::post(addr, "/v1/jobs", &json::parse(r#"{"seed": 1}"#).unwrap()).unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp
            .json()
            .unwrap()
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("samples"));
        // Zero samples passes wire parsing but fails service admission.
        let resp = client::post(
            addr,
            "/v1/jobs",
            &json::parse(r#"{"samples": 0, "seed": 1}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(resp.status, 400);
        let metrics = server.shutdown();
        assert_eq!(metrics.jobs_rejected, 1);
        assert_eq!(metrics.jobs_submitted, 0);
    }

    #[test]
    fn oversized_walkers_and_diameters_are_rejected_with_400() {
        let server = server();
        let addr = server.local_addr();
        for (body, field) in [
            (
                r#"{"samples": 5, "seed": 1, "walkers": 1000000000000}"#,
                "walkers",
            ),
            (
                r#"{"samples": 5, "seed": 1, "diameter_estimate": 400}"#,
                "diameter_estimate",
            ),
            (
                r#"{"samples": 5, "seed": 1, "diameter_estimate": 18446744073709551615}"#,
                "diameter_estimate",
            ),
        ] {
            let resp = client::post(addr, "/v1/jobs", &json::parse(body).unwrap()).unwrap();
            assert_eq!(resp.status, 400, "{body}");
            let error = resp.json().unwrap();
            let error = error.get("error").unwrap().as_str().unwrap().to_string();
            assert!(error.contains(field), "{body}: {error}");
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.jobs_rejected, 3);
        assert_eq!(metrics.jobs_submitted, 0);
    }

    #[test]
    fn delete_cancels_a_registered_job() {
        let server = server();
        let addr = server.local_addr();
        let body = json::parse(r#"{"samples": 1000000, "seed": 9, "walkers": 2}"#).unwrap();
        let id = client::post(addr, "/v1/jobs", &body)
            .unwrap()
            .json()
            .unwrap()
            .get("job_id")
            .unwrap()
            .as_u64()
            .unwrap();
        let resp = client::delete(addr, &format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.json().unwrap().get("cancelled").unwrap().as_bool(),
            Some(true)
        );
        // The stream is still claimable and ends with a cancelled outcome.
        let done = client::open_stream(addr, &format!("/v1/jobs/{id}/stream"))
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.get("event").unwrap().as_str() == Some("done"))
            .expect("done event");
        assert_eq!(done.get("status").unwrap().as_str(), Some("cancelled"));
        let metrics = server.shutdown();
        assert_eq!(metrics.jobs_cancelled, 1);
    }

    #[test]
    fn fire_and_forget_jobs_are_reaped_after_the_claim_ttl() {
        let osn = SimulatedOsn::new(barabasi_albert(400, 3, 5).unwrap());
        let service = SamplingService::builder(osn).pool_threads(1).build();
        let config = GatewayConfig {
            claim_ttl: Duration::ZERO,
            ..GatewayConfig::default()
        };
        let server = GatewayServer::bind_with(service, "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();

        // Fire-and-forget: submit a huge job and never open its stream.
        let abandoned = json::parse(r#"{"samples": 1000000, "seed": 4, "walkers": 2}"#).unwrap();
        let id = client::post(addr, "/v1/jobs", &abandoned)
            .unwrap()
            .json()
            .unwrap()
            .get("job_id")
            .unwrap()
            .as_u64()
            .unwrap();
        // The next submission sweeps it (TTL zero): the job is cancelled
        // and its registry entry is gone.
        let small = json::parse(r#"{"samples": 3, "seed": 5, "walkers": 2}"#).unwrap();
        let resp = client::post(addr, "/v1/jobs", &small).unwrap();
        assert_eq!(resp.status, 202);
        let small_path = resp
            .json()
            .unwrap()
            .get("stream")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(
            client::get(addr, &format!("/v1/jobs/{id}/stream"))
                .unwrap()
                .status,
            404,
            "the reaped job's entry must be gone"
        );
        // The swept job released its slot: the small one completes.
        let done = client::open_stream(addr, &small_path)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.get("event").unwrap().as_str() == Some("done"))
            .unwrap();
        assert_eq!(done.get("status").unwrap().as_str(), Some("completed"));
        let metrics = server.shutdown();
        assert_eq!(metrics.jobs_cancelled, 1, "abandoned job was cancelled");
        assert_eq!(metrics.jobs_completed, 1);
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let server = server();
        let addr = server.local_addr();
        let mut conn = client::Connection::connect(addr).unwrap();
        for _ in 0..3 {
            let resp = conn.get("/healthz").unwrap();
            assert_eq!(resp.status, 200);
        }
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn shed_connections_receive_the_503_even_mid_request_body() {
        let osn = SimulatedOsn::new(barabasi_albert(200, 3, 5).unwrap());
        let service = SamplingService::builder(osn).pool_threads(1).build();
        let config = GatewayConfig {
            max_connections: 1,
            ..GatewayConfig::default()
        };
        let server = GatewayServer::bind_with(service, "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        // Occupy the only slot with a keep-alive connection.
        let mut held = client::Connection::connect(addr).unwrap();
        assert_eq!(held.get("/healthz").unwrap().status, 200);

        // The next client is shed — and must read the 503 even though it
        // is still mid-request-body when the gateway decides.
        let mut shed = std::net::TcpStream::connect(addr).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        shed.write_all(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 60\r\n\r\n{\"samples\"")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        shed.write_all(b": 5, \"seed\": 1, \"walkers\": 2, \"budget\": 123456789}")
            .unwrap();
        let mut response = String::new();
        shed.read_to_string(&mut response)
            .expect("a clean 503, not a connection reset");
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "got: {response}"
        );
        assert!(response.contains("gateway at capacity"));

        drop(held);
        server.shutdown();
    }

    #[test]
    fn stalled_partial_requests_get_408_by_the_whole_request_deadline() {
        let osn = SimulatedOsn::new(barabasi_albert(200, 3, 5).unwrap());
        let service = SamplingService::builder(osn).pool_threads(1).build();
        let config = GatewayConfig {
            read_timeout: Duration::from_millis(300),
            ..GatewayConfig::default()
        };
        let server = GatewayServer::bind_with(service, "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();

        let mut stalled = std::net::TcpStream::connect(addr).unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let started = Instant::now();
        stalled.write_all(b"GET /healthz HTT").unwrap();
        // Keep trickling bytes slower than the old per-read timeout would
        // ever notice: the whole-request deadline must still fire.
        std::thread::sleep(Duration::from_millis(150));
        let _ = stalled.write_all(b"P");
        let mut response = String::new();
        stalled.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "got: {response}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "reaped by the request deadline, not per-read timeouts"
        );
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = server();
        let addr = server.local_addr();
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        let first = response.find("HTTP/1.1 200 OK").expect("first response");
        let second = response[first + 1..]
            .find("HTTP/1.1 200 OK")
            .expect("second response");
        let healthz = response.find("\"status\":\"ok\"").expect("healthz body");
        let metrics = response.find("jobs_submitted").expect("metrics body");
        assert!(healthz < metrics, "responses keep request order");
        assert!(second > 0);
        server.shutdown();
    }
}
