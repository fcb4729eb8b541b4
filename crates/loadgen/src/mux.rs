//! The load harness: **one** client thread runs every scripted request as
//! a state machine over non-blocking sockets.
//!
//! Each [`Client`] walks the same stages a person at a terminal would —
//! connect and `POST` the job at its scheduled offset, decode the
//! `202`/`503`, connect and `GET` the stream, decode its events — but no
//! stage ever blocks on the server: a pass reads whatever each socket has
//! ready, feeds it to that exchange's
//! [`ResponseDecoder`](wnw_gateway::http::ResponseDecoder), and acts on
//! the events it completes. A scripted cancel sends its `DELETE` on its
//! own connection while the stream keeps being read; a scripted stall
//! leaves the stream's socket unread until its resume time, so the
//! server's write backpressure is what absorbs it. The harness costs one
//! thread however many requests are in flight, which keeps the gateway —
//! not the load generator — the system under test on a small machine.
//!
//! Every pass first starts every client whose offset has come, then reads.
//! Clients due together are therefore all connected, with their requests
//! written, before any of their sockets is read — which is what lets the
//! stream tiers claim every stream was concurrently open.

use crate::driver::Observation;
use crate::scenario::{PlannedRequest, StallProfile};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use wnw_gateway::client::request_bytes;
use wnw_gateway::http::{ResponseDecoder, ResponseEvent};
use wnw_gateway::json::{self, Json};

/// Diameter estimate submitted with every job: keeps burn-in, and with
/// it each job's life, short — load runs stress the *service*, not the
/// walk length.
pub(crate) const DIAMETER_ESTIMATE: u64 = 4;

/// Stream-open attempts of a scripted request before it is recorded as a
/// stream error (the open itself can be shed by the accept loop under
/// burst load), and the pause before each retry.
const STREAM_OPEN_ATTEMPTS: usize = 3;
const STREAM_RETRY_PAUSE: Duration = Duration::from_millis(15);

/// Attempts per TCP connect, with a doubling pause from 20 ms between
/// them. Loopback connects complete in the kernel handshake, so a
/// connect only blocks the harness when it fails.
const CONNECT_ATTEMPTS: u32 = 3;
/// Connects per burst between pauses, so the server's accept queue gets a
/// chance to drain instead of dropping SYNs under a 10k sweep.
const CONNECT_BATCH: usize = 64;
/// Pause between connect bursts.
const CONNECT_PAUSE: Duration = Duration::from_micros(500);

/// Hard ceiling on a run past its last scheduled start; clients still
/// unfinished at the deadline score as stream errors (and lost jobs).
const RUN_TIMEOUT: Duration = Duration::from_secs(300);
/// Idle backoff bounds: a pass that moves no bytes sleeps, starting short
/// (a stream's next event is usually a round away) and doubling up to the
/// cap — on a small box the server's threads need the core more than a
/// spinning client does.
const MIN_IDLE_SLEEP: Duration = Duration::from_micros(25);
const MAX_IDLE_SLEEP: Duration = Duration::from_micros(100);
/// Read size per `read` call, and reads per socket per pass.
const READ_CHUNK: usize = 16 * 1024;
const READS_PER_PASS: usize = 4;

/// One request/response exchange on its own `Connection: close` socket.
struct Exchange {
    sock: TcpStream,
    decoder: ResponseDecoder,
}

impl Exchange {
    /// Connects and writes `request`. A request of a few hundred bytes
    /// into an empty send buffer cannot stall, so it is written before the
    /// socket turns non-blocking.
    fn open(addr: SocketAddr, request: &[u8]) -> io::Result<Exchange> {
        let mut sock = connect(addr)?;
        sock.set_nodelay(true)?;
        sock.write_all(request)?;
        sock.set_nonblocking(true)?;
        Ok(Exchange {
            sock,
            decoder: ResponseDecoder::new(),
        })
    }

    /// Feeds the decoder whatever the socket has ready; returns whether
    /// anything arrived. A read error ends the connection like a close
    /// does: the decoder then reports a response cut short as
    /// `DecodeError::Truncated`.
    fn pump(&mut self) -> bool {
        let mut scratch = [0u8; READ_CHUNK];
        let mut moved = false;
        for _ in 0..READS_PER_PASS {
            match self.sock.read(&mut scratch) {
                Ok(n) if n > 0 => {
                    self.decoder.feed(&scratch[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Ok(_) | Err(_) => {
                    self.decoder.feed_eof();
                    return true;
                }
            }
        }
        moved
    }

    /// Reads and drops the response; true once it has ended, cleanly or
    /// not.
    fn discard(&mut self) -> bool {
        self.pump();
        loop {
            match self.decoder.next_event() {
                Ok(Some(ResponseEvent::End { .. })) | Err(_) => return true,
                Ok(Some(_)) => {}
                Ok(None) => return false,
            }
        }
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(sock) => return Ok(sock),
            Err(e) if attempt + 1 >= CONNECT_ATTEMPTS => return Err(e),
            Err(_) => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(10 << attempt));
            }
        }
    }
}

enum Stage {
    /// Waiting for the scheduled offset.
    Pending,
    /// `POST /v1/jobs` in flight; the status once its head arrived.
    Submitting { ex: Exchange, status: Option<u16> },
    /// Waiting to retry the stream open.
    RetryOpen { at: Instant },
    /// The stream `GET` in flight; whether its `200` head arrived.
    Streaming { ex: Exchange, head: bool },
    /// Finished, whatever the outcome.
    Done,
}

/// One scripted client.
pub(crate) struct Client {
    /// Start offset from the run's start.
    at: Duration,
    /// The `POST /v1/jobs` body to submit first; `None` when the stream
    /// path is known up front.
    submit: Option<Json>,
    stream_path: String,
    cancel_after_events: Option<usize>,
    stall: Option<StallProfile>,
    open_attempts_left: usize,
    stage: Stage,
    /// The `DELETE` exchange, while its response is outstanding.
    cancel: Option<Exchange>,
    cancel_sent: bool,
    /// A scripted stall leaves the stream unread until then.
    resume_at: Option<Instant>,
    /// When the client started: every latency is measured from here.
    t0: Instant,
    /// What the client saw.
    pub(crate) obs: Observation,
    /// The stream's `GET` was written.
    pub(crate) opened: bool,
    /// NDJSON events received.
    pub(crate) events: u64,
    /// Start → the stream's chunk terminator (ms).
    pub(crate) ended_ms: Option<f64>,
}

impl Client {
    fn new(at: Duration, submit: Option<Json>, stream_path: String, attempts: usize) -> Self {
        Client {
            at,
            submit,
            stream_path,
            cancel_after_events: None,
            stall: None,
            open_attempts_left: attempts,
            stage: Stage::Pending,
            cancel: None,
            cancel_sent: false,
            resume_at: None,
            t0: Instant::now(),
            obs: Observation::default(),
            opened: false,
            events: 0,
            ended_ms: None,
        }
    }

    /// A client that submits `request`'s job at its offset, streams it,
    /// and cancels or stalls as scripted.
    pub(crate) fn scripted(request: &PlannedRequest) -> Self {
        let mut body = vec![
            ("samples", Json::UInt(request.samples as u64)),
            ("seed", Json::UInt(request.seed)),
            ("walkers", Json::UInt(request.walkers as u64)),
            ("diameter_estimate", Json::UInt(DIAMETER_ESTIMATE)),
            ("start_node", Json::UInt(u64::from(request.start_node))),
            ("priority", Json::str(request.priority)),
            ("history_policy", Json::str(request.history_policy)),
        ];
        if let Some(budget) = request.budget {
            body.push(("budget", Json::UInt(budget)));
        }
        Client {
            cancel_after_events: request.cancel_after_events,
            stall: request.stall,
            ..Client::new(
                request.at,
                Some(Json::obj(body)),
                String::new(),
                STREAM_OPEN_ATTEMPTS,
            )
        }
    }

    /// A client that opens the already-submitted stream at `path` as soon
    /// as the run starts, in one attempt, and reads it to the end.
    pub(crate) fn stream(path: String) -> Self {
        Client::new(Duration::ZERO, None, path, 1)
    }

    fn finished(&self) -> bool {
        matches!(self.stage, Stage::Done) && self.cancel.is_none()
    }

    /// Gives up on whatever is still in flight at the run deadline.
    fn abandon(&mut self) {
        match self.stage {
            Stage::Done => {}
            Stage::Pending | Stage::Submitting { .. } => self.obs.submit_error = true,
            Stage::RetryOpen { .. } | Stage::Streaming { .. } => self.obs.stream_error = true,
        }
        self.stage = Stage::Done;
        self.cancel = None;
    }

    fn ms_since_start(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1_000.0
    }

    fn start(&mut self, addr: SocketAddr) {
        self.t0 = Instant::now();
        let Some(body) = &self.submit else {
            return self.open_stream(addr);
        };
        let request = request_bytes(
            "POST",
            "/v1/jobs",
            addr,
            Some(body.encode().as_bytes()),
            true,
        );
        self.stage = match Exchange::open(addr, &request) {
            Ok(ex) => Stage::Submitting { ex, status: None },
            Err(_) => {
                self.obs.submit_error = true;
                Stage::Done
            }
        };
    }

    fn open_stream(&mut self, addr: SocketAddr) {
        self.open_attempts_left -= 1;
        let request = request_bytes("GET", &self.stream_path, addr, None, true);
        match Exchange::open(addr, &request) {
            Ok(ex) => {
                self.opened = true;
                self.stage = Stage::Streaming { ex, head: false };
            }
            Err(_) => self.open_failed(),
        }
    }

    /// The stream could not be opened (connect failure, non-`200`, or a
    /// close before the head): retry while attempts remain.
    fn open_failed(&mut self) {
        self.stage = if self.open_attempts_left > 0 {
            Stage::RetryOpen {
                at: Instant::now() + STREAM_RETRY_PAUSE,
            }
        } else {
            self.obs.stream_error = true;
            Stage::Done
        };
    }

    /// One visit of a pass; returns whether any bytes moved.
    fn step(&mut self, addr: SocketAddr, now: Instant) -> bool {
        let mut moved = false;
        // The cancel's response only has to arrive; its content is not
        // scored.
        if self.cancel.as_mut().is_some_and(Exchange::discard) {
            self.cancel = None;
            moved = true;
        }
        match &self.stage {
            Stage::Submitting { .. } => moved |= self.step_submit(addr),
            Stage::RetryOpen { at } if now >= *at => {
                self.open_stream(addr);
                moved = true;
            }
            Stage::Streaming { .. } if self.resume_at.is_none_or(|t| now >= t) => {
                self.resume_at = None;
                moved |= self.step_stream(addr);
            }
            _ => {}
        }
        moved
    }

    fn step_submit(&mut self, addr: SocketAddr) -> bool {
        let Stage::Submitting { ex, status } = &mut self.stage else {
            return false;
        };
        let moved = ex.pump();
        loop {
            match ex.decoder.next_event() {
                Ok(None) => return moved,
                Ok(Some(ResponseEvent::Head(head))) => *status = Some(head.status),
                Ok(Some(ResponseEvent::Line(_))) => {}
                Ok(Some(ResponseEvent::End { body })) => {
                    let status = *status;
                    self.submitted(addr, status, &body);
                    return true;
                }
                Err(_) => {
                    self.obs.submit_error = true;
                    self.stage = Stage::Done;
                    return true;
                }
            }
        }
    }

    /// The submit's response is complete: open the stream of an accepted
    /// job, or record the shed / failure.
    fn submitted(&mut self, addr: SocketAddr, status: Option<u16>, body: &[u8]) {
        self.stage = Stage::Done;
        match status {
            Some(202) => {}
            Some(503) => {
                self.obs.shed = true;
                return;
            }
            _ => {
                self.obs.submit_error = true;
                return;
            }
        }
        let path = std::str::from_utf8(body)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .and_then(|doc| doc.get("stream").and_then(Json::as_str).map(String::from));
        match path {
            Some(path) => {
                self.stream_path = path;
                self.open_stream(addr);
            }
            None => self.obs.submit_error = true,
        }
    }

    fn step_stream(&mut self, addr: SocketAddr) -> bool {
        let Stage::Streaming { ex, .. } = &mut self.stage else {
            return false;
        };
        let moved = ex.pump();
        loop {
            let Stage::Streaming { ex, head } = &mut self.stage else {
                return true;
            };
            match ex.decoder.next_event() {
                Ok(None) => return moved,
                Ok(Some(ResponseEvent::Head(h))) if h.status == 200 => *head = true,
                Ok(Some(ResponseEvent::Head(_))) => {
                    self.open_failed();
                    return true;
                }
                Ok(Some(ResponseEvent::Line(line))) => {
                    if !self.on_event(addr, &line) {
                        return true;
                    }
                }
                Ok(Some(ResponseEvent::End { .. })) => {
                    self.ended_ms = Some(self.ms_since_start());
                    if self.obs.status.is_none() {
                        // Drained without a terminal event — a server bug
                        // from the client's point of view.
                        self.obs.stream_error = true;
                    }
                    self.stage = Stage::Done;
                    return true;
                }
                // Broken before its `200` head, the open failed; after
                // it, the stream did.
                Err(_) if !*head => {
                    self.open_failed();
                    return true;
                }
                Err(_) => {
                    self.obs.stream_error = true;
                    self.stage = Stage::Done;
                    return true;
                }
            }
        }
    }

    /// Scores one NDJSON event; returns whether to keep reading now
    /// (false after an error or when a scripted stall begins).
    fn on_event(&mut self, addr: SocketAddr, line: &str) -> bool {
        let Ok(event) = json::parse(line) else {
            self.obs.stream_error = true;
            self.stage = Stage::Done;
            return false;
        };
        self.events += 1;
        match event.get("event").and_then(Json::as_str) {
            Some("sample") => {
                self.obs.samples += 1;
                if self.obs.ttfs_ms.is_none() {
                    self.obs.ttfs_ms = Some(self.ms_since_start());
                }
            }
            Some("done") => {
                self.obs.status = event.get("status").and_then(Json::as_str).map(String::from);
                self.obs.degraded = event
                    .get("degraded")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                self.obs.queue_wait_ms = event.get("queue_wait_ms").and_then(Json::as_f64);
                self.obs.e2e_ms = Some(self.ms_since_start());
            }
            _ => {}
        }
        let seen = self.events as usize;
        if let Some(after) = self.cancel_after_events {
            if !self.cancel_sent && seen >= after {
                self.cancel_sent = true;
                // Cooperative cancel; the stream still ends with `done`.
                // `/v1/jobs/{id}/stream` minus the suffix is the job.
                let job = self
                    .stream_path
                    .strip_suffix("/stream")
                    .unwrap_or(&self.stream_path);
                self.cancel =
                    Exchange::open(addr, &request_bytes("DELETE", job, addr, None, true)).ok();
            }
        }
        if let Some(stall) = self.stall {
            if seen.is_multiple_of(stall.every_events.max(1)) {
                self.resume_at = Some(Instant::now() + stall.pause);
                return false;
            }
        }
        true
    }
}

/// Runs `clients` against the gateway at `addr` until every one has
/// finished, and returns the run's wall clock (start until the last
/// client finished). Clients must be in start-offset order.
pub(crate) fn run(addr: SocketAddr, clients: &mut [Client]) -> Duration {
    debug_assert!(clients.windows(2).all(|w| w[0].at <= w[1].at));
    let started = Instant::now();
    let last_start = clients.last().map_or(Duration::ZERO, |c| c.at);
    let deadline = started + last_start + RUN_TIMEOUT;
    let mut next_start = 0;
    let mut idle_sleep = MIN_IDLE_SLEEP;
    loop {
        // Start every client whose offset has come before reading any
        // socket, pacing connect bursts.
        let mut started_now = 0;
        while let Some(client) = clients.get_mut(next_start) {
            if started + client.at > Instant::now() {
                break;
            }
            client.start(addr);
            next_start += 1;
            started_now += 1;
            if started_now % CONNECT_BATCH == 0 {
                std::thread::sleep(CONNECT_PAUSE);
            }
        }

        let now = Instant::now();
        if now >= deadline {
            for client in clients.iter_mut() {
                client.abandon();
            }
            break;
        }
        let mut moved = false;
        let mut active = next_start < clients.len();
        for client in clients[..next_start].iter_mut() {
            if !client.finished() {
                active = true;
                moved |= client.step(addr, now);
            }
        }
        if !active {
            break;
        }
        if moved {
            idle_sleep = MIN_IDLE_SLEEP;
        } else {
            let until_next = clients.get(next_start).map_or(idle_sleep, |c| {
                (started + c.at).saturating_duration_since(now)
            });
            std::thread::sleep(until_next.min(idle_sleep));
            idle_sleep = (idle_sleep * 2).min(MAX_IDLE_SLEEP);
        }
    }
    started.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that cannot be opened is retried, then scored as a stream
    /// error with no terminal event.
    #[test]
    fn unknown_stream_is_retried_then_scored_as_a_stream_error() {
        let server = crate::testbed::launch_streams(4).expect("streams testbed");
        let mut clients = vec![Client {
            open_attempts_left: STREAM_OPEN_ATTEMPTS,
            ..Client::stream("/v1/jobs/424242/stream".to_string())
        }];
        run(server.local_addr(), &mut clients);
        server.shutdown();

        let client = &clients[0];
        assert!(client.opened, "the GET was written");
        assert_eq!(client.open_attempts_left, 0, "every attempt was used");
        assert!(client.obs.stream_error);
        assert!(client.obs.status.is_none() && client.ended_ms.is_none());
    }
}
