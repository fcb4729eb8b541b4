//! Per-connection state machine of the readiness-driven gateway.
//!
//! A [`Conn`] owns one non-blocking socket and advances through explicit
//! states — reading a request, waiting on the task pool, streaming NDJSON
//! events, closing — one bounded [`step`](Conn::step) at a time. A step
//! never blocks: reads and writes stop at `WouldBlock`, stream events are
//! pulled with [`SampleStream::poll_next`], and every deadline (whole-
//! request, keep-alive idle, write stall) is checked against a caller-
//! supplied `now`. That makes thousands of slow clients cheap (the I/O
//! loop just steps each connection) and the machine fully unit-testable
//! with a scripted [`Transport`] and a synthetic clock.
//!
//! Hang-up handling matches the old blocking gateway: a fatal write error
//! or a write stall while streaming drops the claimed [`SampleStream`]
//! (the scheduler's cancel-and-refund signal) and discards the registry
//! entry.

use crate::http::{
    self, error_bytes, is_idle_timeout, Parse, Request, RequestError, RequestParser,
    CHUNK_TERMINATOR,
};
use crate::server::GatewayConfig;
use crate::wire;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};
use wnw_service::{JobId, JobRegistry, SampleStream, StreamPoll};

/// The byte-level socket operations a [`Conn`] needs. Implemented by
/// non-blocking [`TcpStream`]s in production and by scripted fakes in the
/// unit battery.
pub trait Transport {
    /// Non-blocking read; `WouldBlock` when nothing is buffered.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Non-blocking write; may accept a prefix.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Half-close: FIN the write side so the peer sees a clean end of
    /// response while we linger-drain its remaining bytes.
    fn shutdown_write(&mut self) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(self, buf)
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

/// Deadlines and buffer bounds of a connection.
#[derive(Debug, Clone, Copy)]
pub struct ConnLimits {
    /// Whole-request deadline: a client that trickles a partial request
    /// gets `408` and the connection back after this long. Doubles as the
    /// keep-alive idle reap timeout.
    pub read_timeout: Duration,
    /// A non-empty write buffer making zero progress for this long means
    /// the peer is wedged: the connection is dropped (cancelling and
    /// refunding a streamed job).
    pub write_timeout: Duration,
    /// How long a closing connection drains the peer's remaining bytes
    /// after the half-close, so a shed `503` is not clobbered by a RST.
    pub linger: Duration,
    /// Pause draining stream events once this many response bytes are
    /// buffered (write backpressure towards slow readers).
    pub high_water: usize,
    /// Stop reading once this many request bytes are buffered (bounds a
    /// pipelining client).
    pub read_cap: usize,
}

impl ConnLimits {
    /// The limits implied by a gateway configuration.
    pub fn for_config(config: &GatewayConfig) -> Self {
        ConnLimits {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            linger: Duration::from_secs(2),
            high_water: 256 * 1024,
            read_cap: http::MAX_HEADER_BYTES + config.max_body_bytes,
        }
    }
}

/// What one [`Conn::step`] accomplished.
#[derive(Debug)]
pub enum Step {
    /// Nothing to do; poll again after a pause.
    Idle,
    /// Bytes moved or state advanced; worth stepping again soon.
    Progress,
    /// A complete request is ready — route it, then keep stepping.
    Route(Request),
    /// The connection is finished; drop it.
    Done,
}

enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// A response is being computed on the task pool.
    Waiting {
        rx: Receiver<Vec<u8>>,
        keep_alive: bool,
    },
    /// Draining a claimed job stream as chunked NDJSON.
    Streaming { stream: SampleStream, id: JobId },
    /// Flushing the tail, then half-close and linger-drain.
    Closing {
        shutdown_sent: bool,
        linger_until: Option<Instant>,
    },
    /// Terminal.
    Closed,
}

/// One gateway connection as an explicit state machine.
pub struct Conn<T: Transport> {
    transport: T,
    parser: RequestParser,
    limits: ConnLimits,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already written; the buffer is compacted when
    /// it fully drains.
    write_pos: usize,
    state: ConnState,
    /// When the currently-buffered partial request started arriving — the
    /// whole-request deadline anchors here, not at each read call.
    request_started: Option<Instant>,
    /// Last read progress or response queue — the keep-alive idle clock.
    last_activity: Instant,
    /// Last write progress (or empty buffer) — the write-stall clock.
    last_write_progress: Instant,
}

impl<T: Transport> Conn<T> {
    /// Wraps a freshly accepted (already non-blocking) transport.
    pub fn new(transport: T, parser: RequestParser, limits: ConnLimits, now: Instant) -> Self {
        Conn {
            transport,
            parser,
            limits,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            state: ConnState::Reading,
            request_started: None,
            last_activity: now,
            last_write_progress: now,
        }
    }

    /// Queues a complete response. `keep_alive` keeps the connection
    /// parsing further requests; otherwise it flushes and closes cleanly.
    pub fn push_response(&mut self, now: Instant, bytes: Vec<u8>, keep_alive: bool) {
        self.write_buf.extend_from_slice(&bytes);
        self.last_activity = now;
        self.state = if keep_alive {
            ConnState::Reading
        } else {
            ConnState::Closing {
                shutdown_sent: false,
                linger_until: None,
            }
        };
    }

    /// Starts streaming a claimed job: queues the chunked response head
    /// and switches to event draining. Streaming responses always close.
    pub fn begin_stream(&mut self, stream: SampleStream, id: JobId) {
        self.write_buf
            .extend_from_slice(&http::chunked_head(200, "application/x-ndjson"));
        self.state = ConnState::Streaming { stream, id };
    }

    /// Parks the connection until the task pool delivers the response
    /// bytes on `rx` (a dropped sender reads as `500` + close).
    pub fn begin_wait(&mut self, rx: Receiver<Vec<u8>>, keep_alive: bool) {
        self.state = ConnState::Waiting { rx, keep_alive };
    }

    /// Sheds this connection: queue `503`, then flush + half-close +
    /// linger so even a client mid-request-body reads the status instead
    /// of a connection reset.
    pub fn shed(&mut self, now: Instant) {
        self.push_response(
            now,
            error_bytes(503, "gateway at capacity; retry later", true),
            false,
        );
    }

    /// Advances the connection by one bounded, non-blocking step.
    pub fn step(&mut self, now: Instant, registry: &JobRegistry) -> Step {
        if matches!(self.state, ConnState::Closed) {
            return Step::Done;
        }
        // Pending bytes always go out first, whatever the state.
        let mut progressed = match self.flush(now) {
            Ok(p) => p,
            Err(()) => {
                self.hang_up(registry);
                return Step::Done;
            }
        };
        // Write stall: a peer that stopped reading long enough ago is
        // dead for our purposes — drop it (cancelling a streamed job).
        if self.write_pos < self.write_buf.len()
            && now.duration_since(self.last_write_progress) >= self.limits.write_timeout
        {
            self.hang_up(registry);
            return Step::Done;
        }
        match self.state {
            ConnState::Closed => Step::Done,
            ConnState::Closing { .. } => self.step_closing(now, progressed),
            ConnState::Waiting { .. } => self.step_waiting(now, progressed),
            ConnState::Streaming { .. } => {
                let drained = self.drain_stream(registry);
                progressed |= drained;
                match self.flush(now) {
                    Ok(p) => progressed |= p,
                    Err(()) => {
                        self.hang_up(registry);
                        return Step::Done;
                    }
                }
                if progressed {
                    Step::Progress
                } else {
                    Step::Idle
                }
            }
            ConnState::Reading => self.step_reading(now, progressed),
        }
    }

    /// Whether the connection reached its terminal state.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, ConnState::Closed)
    }

    /// Drops the connection as a peer hang-up. A claimed stream is
    /// released (the scheduler's cancel-and-refund signal) and its
    /// registry entry discarded.
    fn hang_up(&mut self, registry: &JobRegistry) {
        if let ConnState::Streaming { id, .. } =
            std::mem::replace(&mut self.state, ConnState::Closed)
        {
            registry.discard(id);
        }
    }

    /// Writes as much of the buffer as the transport accepts. `Err` means
    /// the peer is gone.
    fn flush(&mut self, now: Instant) -> Result<bool, ()> {
        let mut progressed = false;
        while self.write_pos < self.write_buf.len() {
            match self.transport.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_write_progress = now;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_idle_timeout(&e) => break,
                Err(_) => return Err(()),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
            // With nothing pending the stall clock idles at "now".
            self.last_write_progress = now;
        }
        Ok(progressed)
    }

    /// Pulls buffered stream events into the write buffer (up to the high
    /// water mark); on the stream's end, discards the registry entry and
    /// queues the terminating chunk.
    fn drain_stream(&mut self, registry: &JobRegistry) -> bool {
        let ConnState::Streaming { stream, id } = &mut self.state else {
            unreachable!("drain_stream is only called while streaming");
        };
        let id = *id;
        let mut progressed = false;
        let mut finished = false;
        while self.write_buf.len() - self.write_pos < self.limits.high_water {
            match stream.poll_next() {
                StreamPoll::Event(event) => {
                    http::encode_chunk(&mut self.write_buf, &wire::event_line(&event));
                    progressed = true;
                }
                StreamPoll::Empty => break,
                StreamPoll::Finished => {
                    finished = true;
                    break;
                }
            }
        }
        if finished {
            // Discard before the terminal chunk: a client observing the
            // end of the stream must find the entry gone (404, not 409).
            registry.discard(id);
            self.write_buf.extend_from_slice(CHUNK_TERMINATOR);
            self.state = ConnState::Closing {
                shutdown_sent: false,
                linger_until: None,
            };
            progressed = true;
        }
        progressed
    }

    fn step_reading(&mut self, now: Instant, mut progressed: bool) -> Step {
        let mut eof = false;
        let mut tmp = [0u8; 8 * 1024];
        for _ in 0..4 {
            if self.read_buf.len() >= self.limits.read_cap {
                break;
            }
            match self.transport.read(&mut tmp) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&tmp[..n]);
                    self.last_activity = now;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_idle_timeout(&e) => break,
                Err(_) => {
                    self.state = ConnState::Closed;
                    return Step::Done;
                }
            }
        }
        if !self.read_buf.is_empty() && self.request_started.is_none() {
            self.request_started = Some(now);
        }
        match self.parser.parse(&self.read_buf) {
            Ok(Parse::Complete { request, consumed }) => {
                self.read_buf.drain(..consumed);
                // A pipelined follow-up is already "arriving".
                self.request_started = (!self.read_buf.is_empty()).then_some(now);
                self.last_activity = now;
                return Step::Route(request);
            }
            Ok(Parse::Incomplete) => {
                if !eof {
                    if let Some(started) = self.request_started {
                        if now.duration_since(started) >= self.limits.read_timeout {
                            // The whole-request deadline: a stalled
                            // partial request no longer leaks the
                            // connection one read-timeout at a time.
                            self.push_response(
                                now,
                                error_bytes(408, "request timed out", true),
                                false,
                            );
                            return Step::Progress;
                        }
                    } else if now.duration_since(self.last_activity) >= self.limits.read_timeout {
                        // Idle keep-alive connection: reap it quietly.
                        self.state = ConnState::Closed;
                        return Step::Done;
                    }
                }
            }
            Err(RequestError::Malformed(message)) => {
                self.push_response(now, error_bytes(400, message, true), false);
                return Step::Progress;
            }
            Err(RequestError::TooLarge(message)) => {
                self.push_response(now, error_bytes(413, message, true), false);
                return Step::Progress;
            }
        }
        if eof {
            // Clean close between requests, or a half request the client
            // abandoned: either way, flush anything pending and be done.
            if self.write_pos < self.write_buf.len() {
                self.state = ConnState::Closing {
                    shutdown_sent: false,
                    linger_until: None,
                };
                return Step::Progress;
            }
            self.state = ConnState::Closed;
            return Step::Done;
        }
        if progressed {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    fn step_waiting(&mut self, now: Instant, progressed: bool) -> Step {
        let (result, keep_alive) = {
            let ConnState::Waiting { rx, keep_alive } = &self.state else {
                unreachable!("step_waiting is only called while waiting");
            };
            (rx.try_recv(), *keep_alive)
        };
        match result {
            Ok(bytes) => {
                self.push_response(now, bytes, keep_alive);
                Step::Progress
            }
            Err(TryRecvError::Empty) => {
                if progressed {
                    Step::Progress
                } else {
                    Step::Idle
                }
            }
            Err(TryRecvError::Disconnected) => {
                // The handler panicked, or the task pool is gone (shutdown
                // mid-request).
                self.push_response(now, error_bytes(500, "handler failed", true), false);
                Step::Progress
            }
        }
    }

    fn step_closing(&mut self, now: Instant, progressed: bool) -> Step {
        // The tail must go out before the half-close.
        if self.write_pos < self.write_buf.len() {
            return if progressed {
                Step::Progress
            } else {
                Step::Idle
            };
        }
        let (shutdown_sent, linger_until) = match &self.state {
            ConnState::Closing {
                shutdown_sent,
                linger_until,
            } => (*shutdown_sent, *linger_until),
            _ => unreachable!("step_closing is only called while closing"),
        };
        let deadline = if shutdown_sent {
            linger_until.unwrap_or(now)
        } else {
            let _ = self.transport.shutdown_write();
            let deadline = now + self.limits.linger;
            self.state = ConnState::Closing {
                shutdown_sent: true,
                linger_until: Some(deadline),
            };
            deadline
        };
        // Linger-drain: absorb whatever the peer was still sending so its
        // kernel does not answer our response with a RST before the
        // client reads it (the shed-503 guarantee).
        let mut tmp = [0u8; 4 * 1024];
        for _ in 0..8 {
            match self.transport.read(&mut tmp) {
                Ok(0) => {
                    self.state = ConnState::Closed;
                    return Step::Done;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_idle_timeout(&e) => break,
                Err(_) => {
                    self.state = ConnState::Closed;
                    return Step::Done;
                }
            }
        }
        if now >= deadline {
            self.state = ConnState::Closed;
            return Step::Done;
        }
        if progressed {
            Step::Progress
        } else {
            Step::Idle
        }
    }

    #[cfg(test)]
    fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::VecDeque;
    use wnw_access::SimulatedOsn;
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_service::{ClaimError, SamplingService};

    #[derive(Clone, Copy)]
    enum WriteMode {
        /// Accept everything.
        Accept,
        /// Accept at most N bytes per call (a nearly-full kernel buffer).
        Trickle(usize),
        /// Accept nothing (`WouldBlock`, a full kernel buffer).
        Block,
        /// Fail hard (peer reset).
        Fail,
    }

    /// A scripted transport: reads pop from a queue (empty queue reads as
    /// `WouldBlock`, an empty chunk as EOF), writes follow `write_mode`.
    struct FakeTransport {
        reads: VecDeque<Vec<u8>>,
        written: Vec<u8>,
        write_mode: WriteMode,
        shutdowns: usize,
    }

    impl FakeTransport {
        fn new() -> Self {
            FakeTransport {
                reads: VecDeque::new(),
                written: Vec::new(),
                write_mode: WriteMode::Accept,
                shutdowns: 0,
            }
        }

        fn written_text(&self) -> String {
            String::from_utf8_lossy(&self.written).into_owned()
        }
    }

    impl Transport for FakeTransport {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                None => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                Some(bytes) => {
                    assert!(bytes.len() <= buf.len(), "scripted read fits the buffer");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }

        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.write_mode {
                WriteMode::Accept => {
                    self.written.extend_from_slice(buf);
                    Ok(buf.len())
                }
                WriteMode::Trickle(n) => {
                    let n = n.min(buf.len());
                    if n == 0 {
                        return Err(io::Error::from(io::ErrorKind::WouldBlock));
                    }
                    self.written.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                WriteMode::Block => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                WriteMode::Fail => Err(io::Error::from(io::ErrorKind::BrokenPipe)),
            }
        }

        fn shutdown_write(&mut self) -> io::Result<()> {
            self.shutdowns += 1;
            Ok(())
        }
    }

    fn limits() -> ConnLimits {
        ConnLimits {
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_millis(100),
            linger: Duration::from_secs(1),
            high_water: 64 * 1024,
            read_cap: 128 * 1024,
        }
    }

    fn conn(now: Instant) -> Conn<FakeTransport> {
        Conn::new(
            FakeTransport::new(),
            RequestParser::new(64 * 1024),
            limits(),
            now,
        )
    }

    fn service() -> SamplingService<SimulatedOsn> {
        let osn = SimulatedOsn::new(barabasi_albert(300, 3, 5).unwrap());
        SamplingService::builder(osn).pool_threads(1).build()
    }

    /// Claims the stream of a freshly submitted long-running job.
    fn claimed_job(
        service: &SamplingService<SimulatedOsn>,
        registry: &JobRegistry,
    ) -> (JobId, SampleStream) {
        let body =
            json::parse(r#"{"samples": 1000000, "seed": 3, "walkers": 2, "budget": 100000000}"#)
                .unwrap();
        let request = wire::sample_request_from_json(&body).unwrap();
        let ticket = service.submit(request).expect("admitted");
        let id = registry.register(ticket);
        let stream = registry.claim_stream(id).expect("first claim");
        (id, stream)
    }

    #[test]
    fn requests_arriving_in_arbitrary_fragments_route_once() {
        let registry = JobRegistry::default();
        let full = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"seed\":42}";
        // Table of fragmentations: byte-at-a-time, halves, and one shot.
        for cuts in [
            vec![1usize; full.len()],
            vec![30, full.len() - 30],
            vec![full.len()],
        ] {
            let t0 = Instant::now();
            let mut c = conn(t0);
            let mut offset = 0;
            for cut in cuts {
                c.transport_mut()
                    .reads
                    .push_back(full[offset..offset + cut].to_vec());
                offset += cut;
            }
            let mut routed = Vec::new();
            loop {
                match c.step(t0, &registry) {
                    Step::Route(request) => routed.push(request),
                    Step::Idle => break,
                    Step::Progress => {}
                    Step::Done => panic!("connection must stay open"),
                }
            }
            assert_eq!(routed.len(), 1);
            assert_eq!(routed[0].method, "POST");
            assert_eq!(routed[0].body, b"{\"seed\":42}");
        }
    }

    #[test]
    fn pipelined_requests_route_in_order_with_ordered_responses() {
        let registry = JobRegistry::default();
        let t0 = Instant::now();
        let mut c = conn(t0);
        c.transport_mut()
            .reads
            .push_back(b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/metrics HTTP/1.1\r\n\r\n".to_vec());
        let mut paths = Vec::new();
        loop {
            match c.step(t0, &registry) {
                Step::Route(request) => {
                    paths.push(request.path.clone());
                    // Respond inline, as the I/O loop would.
                    let body = format!("answered {}", request.path);
                    c.push_response(
                        t0,
                        http::response_bytes(200, "text/plain", body.as_bytes(), false),
                        true,
                    );
                }
                Step::Idle => break,
                Step::Progress => {}
                Step::Done => panic!("keep-alive connection must stay open"),
            }
        }
        assert_eq!(paths, vec!["/healthz", "/v1/metrics"]);
        let written = c.transport_mut().written_text();
        let first = written.find("answered /healthz").expect("first response");
        let second = written.find("answered /v1/metrics").expect("second");
        assert!(first < second, "responses keep request order");
    }

    #[test]
    fn write_backpressure_trickles_the_response_out() {
        let registry = JobRegistry::default();
        let t0 = Instant::now();
        let mut c = conn(t0);
        let response = http::response_bytes(200, "text/plain", &[b'x'; 4096], true);
        let total = response.len();
        c.push_response(t0, response, false);
        // A full kernel buffer: nothing moves, but within the write
        // timeout nothing dies either.
        c.transport_mut().write_mode = WriteMode::Block;
        assert!(matches!(
            c.step(t0 + Duration::from_millis(10), &registry),
            Step::Idle
        ));
        assert!(!c.is_closed());
        // The buffer drains a few bytes per readiness tick.
        c.transport_mut().write_mode = WriteMode::Trickle(1000);
        let mut now = t0 + Duration::from_millis(20);
        for _ in 0..(total / 1000 + 2) {
            now += Duration::from_millis(1);
            if matches!(c.step(now, &registry), Step::Done) {
                break;
            }
        }
        assert_eq!(c.transport_mut().written.len(), total, "fully flushed");
        assert_eq!(c.transport_mut().shutdowns, 1, "clean half-close");
    }

    #[test]
    fn mid_stream_disconnect_cancels_the_job_and_discards_the_entry() {
        let service = service();
        let registry = JobRegistry::default();
        let (id, stream) = claimed_job(&service, &registry);
        let t0 = Instant::now();
        let mut c = conn(t0);
        c.begin_stream(stream, id);
        // The peer reset: the first flush fails hard.
        c.transport_mut().write_mode = WriteMode::Fail;
        assert!(matches!(c.step(t0, &registry), Step::Done));
        assert!(c.is_closed());
        assert!(
            matches!(registry.claim_stream(id), Err(ClaimError::Unknown)),
            "registry entry is discarded on hang-up"
        );
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_cancelled, 1, "dropped stream cancels the job");
        assert!(metrics.budget_refunded > 0, "unused budget is refunded");
    }

    #[test]
    fn write_stall_past_the_timeout_cancels_a_streamed_job() {
        let service = service();
        let registry = JobRegistry::default();
        let (id, stream) = claimed_job(&service, &registry);
        let t0 = Instant::now();
        let mut c = conn(t0);
        c.begin_stream(stream, id);
        // The peer stops reading entirely; the head cannot even go out.
        c.transport_mut().write_mode = WriteMode::Block;
        assert!(
            !matches!(c.step(t0, &registry), Step::Done),
            "within the timeout the peer is just slow"
        );
        let later = t0 + limits().write_timeout + Duration::from_millis(1);
        assert!(matches!(c.step(later, &registry), Step::Done));
        assert!(matches!(
            registry.claim_stream(id),
            Err(ClaimError::Unknown)
        ));
        let metrics = service.shutdown();
        assert_eq!(metrics.jobs_cancelled, 1);
    }

    #[test]
    fn streaming_drains_events_and_ends_with_the_terminator() {
        let service = service();
        let registry = JobRegistry::default();
        let body = json::parse(r#"{"samples": 4, "seed": 7, "walkers": 2}"#).unwrap();
        let ticket = service
            .submit(wire::sample_request_from_json(&body).unwrap())
            .unwrap();
        let id = registry.register(ticket);
        let stream = registry.claim_stream(id).unwrap();
        let t0 = Instant::now();
        let mut c = conn(t0);
        c.begin_stream(stream, id);
        let deadline = Instant::now() + Duration::from_secs(30);
        while !c.is_closed() {
            assert!(Instant::now() < deadline, "stream must finish");
            // EOF from the client after our half-close ends the linger.
            if c.transport_mut().shutdowns > 0 {
                c.transport_mut().reads.push_back(Vec::new());
            }
            c.step(Instant::now(), &registry);
            std::thread::sleep(Duration::from_millis(1));
        }
        let written = c.transport_mut().written_text();
        assert!(written.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(written.contains("Transfer-Encoding: chunked\r\n"));
        assert!(written.contains("\"event\":\"done\""));
        assert!(written.ends_with("0\r\n\r\n"), "terminating chunk present");
        assert_eq!(written.matches("\"event\":\"sample\"").count(), 4);
        assert!(
            matches!(registry.claim_stream(id), Err(ClaimError::Unknown)),
            "served entry discarded before the terminator"
        );
        service.shutdown();
    }

    #[test]
    fn partial_request_hits_the_whole_request_deadline_with_408() {
        let registry = JobRegistry::default();
        let t0 = Instant::now();
        let mut c = conn(t0);
        c.transport_mut()
            .reads
            .push_back(b"GET /healthz HT".to_vec());
        assert!(matches!(c.step(t0, &registry), Step::Progress));
        // Trickling one more byte does NOT reset the deadline.
        c.transport_mut().reads.push_back(b"T".to_vec());
        let mid = t0 + Duration::from_millis(60);
        c.step(mid, &registry);
        let late = t0 + limits().read_timeout + Duration::from_millis(1);
        c.step(late, &registry); // deadline fires, 408 queued
        c.step(late, &registry); // next tick flushes it
        let written = c.transport_mut().written_text();
        assert!(
            written.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "got: {written}"
        );
        // EOF after the half-close finishes the connection.
        c.transport_mut().reads.push_back(Vec::new());
        while !c.is_closed() {
            c.step(late + Duration::from_millis(1), &registry);
        }
    }

    #[test]
    fn idle_keep_alive_connections_are_reaped_quietly() {
        let registry = JobRegistry::default();
        let t0 = Instant::now();
        let mut c = conn(t0);
        assert!(matches!(c.step(t0, &registry), Step::Idle));
        let late = t0 + limits().read_timeout + Duration::from_millis(1);
        assert!(matches!(c.step(late, &registry), Step::Done));
        assert!(c.transport_mut().written.is_empty(), "no 408 for idleness");
    }

    #[test]
    fn shed_mid_request_body_still_delivers_the_503() {
        let registry = JobRegistry::default();
        let t0 = Instant::now();
        let mut c = conn(t0);
        // The client is mid-body when the gateway sheds it.
        c.transport_mut()
            .reads
            .push_back(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"par".to_vec());
        c.shed(t0);
        c.step(t0, &registry);
        let written = c.transport_mut().written_text();
        assert!(
            written.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "got: {written}"
        );
        assert!(written.contains("gateway at capacity"));
        assert_eq!(c.transport_mut().shutdowns, 1, "half-close, not a drop");
        // The rest of the body arrives during the linger and is drained;
        // then the client closes and so do we.
        c.transport_mut().reads.push_back(vec![b'x'; 395]);
        c.transport_mut().reads.push_back(Vec::new());
        let mut now = t0;
        while !c.is_closed() {
            now += Duration::from_millis(1);
            c.step(now, &registry);
        }
    }

    #[test]
    fn malformed_and_oversized_requests_close_with_an_error() {
        let registry = JobRegistry::default();
        for (bytes, status) in [
            (&b"GARBAGE\r\n\r\n"[..], "400 Bad Request"),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
                "413 Content Too Large",
            ),
        ] {
            let t0 = Instant::now();
            let mut c = conn(t0);
            c.transport_mut().reads.push_back(bytes.to_vec());
            c.step(t0, &registry);
            c.step(t0, &registry);
            let written = c.transport_mut().written_text();
            assert!(
                written.starts_with(&format!("HTTP/1.1 {status}")),
                "expected {status}, got: {written}"
            );
        }
    }

    #[test]
    fn task_pool_replies_resume_the_connection() {
        let registry = JobRegistry::default();
        let t0 = Instant::now();
        let mut c = conn(t0);
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        c.begin_wait(rx, true);
        assert!(matches!(c.step(t0, &registry), Step::Idle), "still waiting");
        tx.send(http::response_bytes(200, "text/plain", b"done", false))
            .unwrap();
        assert!(matches!(c.step(t0, &registry), Step::Progress));
        c.step(t0, &registry);
        assert!(c
            .transport_mut()
            .written_text()
            .starts_with("HTTP/1.1 200 OK"));
        assert!(!c.is_closed(), "keep-alive resumes reading");

        // A dropped sender (task pool shut down) turns into 500 + close.
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
        drop(tx);
        c.begin_wait(rx, true);
        c.step(t0, &registry);
        c.step(t0, &registry);
        assert!(c
            .transport_mut()
            .written_text()
            .contains("500 Internal Server Error"));
    }
}
