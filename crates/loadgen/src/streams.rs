//! The `gateway_streams` tiers: thousands of concurrent NDJSON streams
//! held open against a **two-I/O-thread** gateway.
//!
//! A tier runs on the same one-thread multiplexer as the preset
//! scenarios, in three phases:
//!
//! 1. **Submit.** Every job is posted over a handful of keep-alive
//!    connections ([`SUBMIT_CONNECTIONS`]); the testbed's long claim TTL
//!    (see [`crate::testbed::launch_streams`]) guarantees none of the
//!    accepted-but-not-yet-claimed jobs get reaped mid-sweep.
//! 2. **Open.** Every stream is due at the multiplexer's start, so its
//!    first pass connects each one and writes its `GET` *before any
//!    stream is read*: all of them are concurrently open — the tier's
//!    concurrency claim holds by construction, not by racing.
//! 3. **Drain.** The multiplexer loops over the open sockets, reading
//!    whatever is ready, until every stream has delivered its chunk
//!    terminator (or the run deadline expires, which scores as loss).
//!
//! Time-to-first-sample is measured per stream from *its* `GET` hitting
//! the wire to its first `sample` line, so the open sweep itself is part
//! of the burst the tail quantiles describe.
//!
//! Loopback streams are double-billed against the process fd limit (the
//! client end and the server's accepted end live in the same process),
//! so tiers are clamped to [`max_open_streams`] and the report records
//! both the requested and the actually-opened width.

use crate::mux::{self, Client, DIAMETER_ESTIMATE};
use crate::report::{LatencySummary, ServerSummary};
use crate::scenario::Scale;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;
use wnw_gateway::client::Connection;
use wnw_gateway::json::Json;

/// I/O threads the streams testbed pins the gateway to — the headline
/// claim is "thousands of streams on two I/O threads", so the tier
/// reports carry this number and the bench verdict depends on it.
pub const IO_THREADS: usize = 2;

/// Keep-alive connections the submit sweep round-robins over.
pub const SUBMIT_CONNECTIONS: usize = 4;

/// Samples each tier job requests: enough that every stream sees a real
/// event sequence (samples, progress, done), small enough that the tier
/// stresses connection concurrency rather than sampling throughput.
const SAMPLES_PER_JOB: u64 = 4;
/// Walkers per tier job — two keeps each job's round fan-out trivial.
const WALKERS_PER_JOB: u64 = 2;

/// Descriptors reserved for everything that is not a stream: stdio, the
/// listener, submit connections, the metrics scrape, and test-runner
/// incidentals.
const FD_SLACK: usize = 128;

/// Streams one tier can hold open at once. Each loopback stream costs
/// **two** descriptors in this process (client end + the server's
/// accepted end), so the budget is half the soft `RLIMIT_NOFILE` minus
/// a slack reserve for everything else. Falls back to a conservative
/// floor when `/proc/self/limits` is unreadable (non-Linux).
pub fn max_open_streams() -> usize {
    let soft = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                let field = line
                    .strip_prefix("Max open files")?
                    .split_whitespace()
                    .next()?;
                if field == "unlimited" {
                    Some(1 << 20)
                } else {
                    field.parse::<usize>().ok()
                }
            })
        })
        .unwrap_or(1_024);
    (soft.saturating_sub(FD_SLACK) / 2).max(16)
}

/// Concurrency tiers per scale: the CI smoke tier, and the full ladder
/// whose 1 000-stream rung is the bench's acceptance bar (10 000 is
/// clamped by [`max_open_streams`] where the fd limit demands).
pub fn tiers(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![100],
        Scale::Full => vec![100, 1_000, 10_000],
    }
}

/// Everything measured about one concurrency tier.
#[derive(Debug, Clone)]
pub struct StreamsTierReport {
    /// Streams the tier asked for.
    pub requested: usize,
    /// Jobs the gateway accepted (`202`).
    pub submitted: usize,
    /// Submits shed with `503` (a clean tier has none — admission is
    /// sized to the tier).
    pub shed: usize,
    /// Submits that failed any other way.
    pub submit_errors: usize,
    /// Streams concurrently open before the drain began — every one of
    /// these sockets was connected, and its `GET` written, before any
    /// stream was read.
    pub opened: usize,
    /// Streams that delivered their terminator with a `completed` done
    /// event.
    pub completed: usize,
    /// Streams that errored (connect failure, malformed framing, early
    /// close, drain deadline).
    pub stream_errors: usize,
    /// Accepted jobs whose client never saw a `done` event — the count
    /// the readiness loop must keep at zero.
    pub lost: usize,
    /// Sample events delivered across all streams.
    pub samples: u64,
    /// All events delivered across all streams.
    pub events: u64,
    /// Submit start → last stream drained, seconds.
    pub wall_clock_s: f64,
    /// `events / wall_clock_s`.
    pub events_per_sec: f64,
    /// Stream-open → first `sample` line, per stream (ms).
    pub ttfs_ms: LatencySummary,
    /// Stream-open → chunk terminator, per stream (ms).
    pub stream_done_ms: LatencySummary,
    /// Server-side cross-check scraped after the drain.
    pub server: ServerSummary,
}

impl StreamsTierReport {
    /// A clean tier: every opened stream ran to completion, nothing was
    /// shed, errored, or lost.
    pub fn clean(&self) -> bool {
        self.opened > 0
            && self.shed == 0
            && self.submit_errors == 0
            && self.stream_errors == 0
            && self.lost == 0
            && self.completed == self.opened
    }

    /// The tier as its bench JSON row.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requested", Json::UInt(self.requested as u64)),
            ("submitted", Json::UInt(self.submitted as u64)),
            ("shed", Json::UInt(self.shed as u64)),
            ("submit_errors", Json::UInt(self.submit_errors as u64)),
            ("opened", Json::UInt(self.opened as u64)),
            ("completed", Json::UInt(self.completed as u64)),
            ("stream_errors", Json::UInt(self.stream_errors as u64)),
            ("lost", Json::UInt(self.lost as u64)),
            ("samples", Json::UInt(self.samples)),
            ("events", Json::UInt(self.events)),
            ("wall_clock_s", Json::Num(round3(self.wall_clock_s))),
            ("events_per_sec", Json::Num(round3(self.events_per_sec))),
            ("ttfs_ms", self.ttfs_ms.to_json()),
            ("stream_done_ms", self.stream_done_ms.to_json()),
            ("clean", Json::Bool(self.clean())),
            ("server", self.server.to_json()),
        ])
    }
}

fn round3(v: f64) -> f64 {
    (v * 1_000.0).round() / 1_000.0
}

/// Runs every tier of `scale`, each against its own fresh two-I/O-thread
/// testbed.
pub fn run_streams_suite(scale: Scale) -> io::Result<Vec<StreamsTierReport>> {
    tiers(scale)
        .into_iter()
        .map(|tier| {
            let server = crate::testbed::launch_streams(tier)?;
            let report = run_tier(server.local_addr(), tier);
            server.shutdown();
            report
        })
        .collect()
}

/// The suite verdict: every tier clean, and — at full scale — at least
/// one tier held ≥ 1 000 streams concurrently open to completion.
pub fn suite_pass(scale: Scale, reports: &[StreamsTierReport]) -> bool {
    let all_clean = reports.iter().all(StreamsTierReport::clean);
    match scale {
        Scale::Smoke => all_clean,
        Scale::Full => all_clean && reports.iter().any(|r| r.opened >= 1_000),
    }
}

/// The suite serialised as the `BENCH_gateway_streams.json` document.
pub fn streams_suite_json(scale: Scale, reports: &[StreamsTierReport]) -> String {
    let mode = match scale {
        Scale::Smoke => "smoke",
        Scale::Full => "full",
    };
    Json::obj(vec![
        ("benchmark", Json::str("gateway_streams")),
        ("mode", Json::str(mode)),
        ("io_threads", Json::UInt(IO_THREADS as u64)),
        ("pass", Json::Bool(suite_pass(scale, reports))),
        (
            "tiers",
            Json::Arr(reports.iter().map(StreamsTierReport::to_json).collect()),
        ),
    ])
    .encode()
}

/// Runs one tier against the gateway at `addr`: submit sweep, open
/// sweep, multiplexed drain, server scrape.
pub fn run_tier(addr: SocketAddr, requested: usize) -> io::Result<StreamsTierReport> {
    let started = Instant::now();
    let attempt = requested.min(max_open_streams());

    let submit = submit_jobs(addr, attempt)?;
    let mut streams: Vec<Client> = submit.paths.iter().cloned().map(Client::stream).collect();
    mux::run(addr, &mut streams);

    let wall_clock_s = started.elapsed().as_secs_f64();
    let completed = streams
        .iter()
        .filter(|s| s.ended_ms.is_some() && s.obs.status.as_deref() == Some("completed"))
        .count();
    // Lost = accepted by the gateway, but its client never saw a done
    // event (connect failures included: their jobs were accepted too).
    let lost = streams.iter().filter(|s| s.obs.status.is_none()).count();
    let events: u64 = streams.iter().map(|s| s.events).sum();

    Ok(StreamsTierReport {
        requested,
        submitted: submit.paths.len(),
        shed: submit.shed,
        submit_errors: submit.errors,
        opened: streams.iter().filter(|s| s.opened).count(),
        completed,
        stream_errors: streams.iter().filter(|s| s.obs.stream_error).count(),
        lost,
        samples: streams.iter().map(|s| s.obs.samples).sum(),
        events,
        wall_clock_s,
        events_per_sec: if wall_clock_s > 0.0 {
            events as f64 / wall_clock_s
        } else {
            0.0
        },
        ttfs_ms: LatencySummary::from_ms(streams.iter().filter_map(|s| s.obs.ttfs_ms).collect()),
        stream_done_ms: LatencySummary::from_ms(
            streams.iter().filter_map(|s| s.ended_ms).collect(),
        ),
        server: crate::driver::scrape_server(addr)?,
    })
}

struct SubmitOutcome {
    paths: Vec<String>,
    shed: usize,
    errors: usize,
}

/// Posts `count` jobs over [`SUBMIT_CONNECTIONS`] keep-alive
/// connections and collects their stream paths.
fn submit_jobs(addr: SocketAddr, count: usize) -> io::Result<SubmitOutcome> {
    let mut conns: Vec<Connection> = (0..SUBMIT_CONNECTIONS)
        .map(|_| Connection::connect(addr))
        .collect::<io::Result<_>>()?;
    let mut outcome = SubmitOutcome {
        paths: Vec::with_capacity(count),
        shed: 0,
        errors: 0,
    };
    for i in 0..count {
        let body = Json::obj(vec![
            ("samples", Json::UInt(SAMPLES_PER_JOB)),
            ("seed", Json::UInt(0xC0FF_EE00 + i as u64)),
            ("walkers", Json::UInt(WALKERS_PER_JOB)),
            ("diameter_estimate", Json::UInt(DIAMETER_ESTIMATE)),
        ]);
        let conn = &mut conns[i % SUBMIT_CONNECTIONS];
        match conn.post("/v1/jobs", &body) {
            Ok(response) if response.status == 202 => {
                match response
                    .json()
                    .ok()
                    .and_then(|doc| doc.get("stream").and_then(Json::as_str).map(String::from))
                {
                    Some(path) => outcome.paths.push(path),
                    None => outcome.errors += 1,
                }
            }
            Ok(response) if response.status == 503 => outcome.shed += 1,
            Ok(_) => outcome.errors += 1,
            Err(_) => {
                outcome.errors += 1;
                // A broken submit connection takes its successors with it
                // unless replaced.
                *conn = Connection::connect(addr)?;
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_gateway::json;

    /// A small real tier over loopback: every stream opened before the
    /// drain, every one completed, nothing shed or lost.
    #[test]
    fn small_tier_runs_clean_on_the_streams_testbed() {
        let tier = 32;
        let server = crate::testbed::launch_streams(tier).expect("streams testbed");
        let report = run_tier(server.local_addr(), tier).expect("tier run");
        server.shutdown();

        assert!(
            report.clean(),
            "tier must run clean: {:?}",
            (
                report.shed,
                report.submit_errors,
                report.stream_errors,
                report.lost,
                report.completed,
                report.opened,
            )
        );
        assert_eq!(report.opened, tier);
        assert_eq!(report.samples, tier as u64 * SAMPLES_PER_JOB);
        assert_eq!(report.ttfs_ms.count, tier);
        assert_eq!(report.server.jobs_completed, tier as u64);
        assert_eq!(report.server.jobs_cancelled, 0);
    }

    #[test]
    fn fd_budget_is_sane_and_suite_json_carries_the_verdict() {
        assert!(max_open_streams() >= 16);
        let report = StreamsTierReport {
            requested: 1_000,
            submitted: 1_000,
            shed: 0,
            submit_errors: 0,
            opened: 1_000,
            completed: 1_000,
            stream_errors: 0,
            lost: 0,
            samples: 4_000,
            events: 6_000,
            wall_clock_s: 2.0,
            events_per_sec: 3_000.0,
            ttfs_ms: LatencySummary::from_ms(vec![1.0, 2.0, 3.0]),
            stream_done_ms: LatencySummary::from_ms(vec![2.0, 3.0, 4.0]),
            server: ServerSummary::default(),
        };
        assert!(report.clean());
        assert!(suite_pass(Scale::Full, std::slice::from_ref(&report)));

        let doc = json::parse(&streams_suite_json(
            Scale::Full,
            std::slice::from_ref(&report),
        ))
        .unwrap();
        assert_eq!(
            doc.get("benchmark").unwrap().as_str(),
            Some("gateway_streams")
        );
        assert_eq!(doc.get("io_threads").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("pass").unwrap().as_bool(), Some(true));

        // Full scale demands a ≥ 1 000-stream tier; a clean small tier
        // alone is not enough.
        let small = StreamsTierReport {
            requested: 100,
            submitted: 100,
            opened: 100,
            completed: 100,
            ..report
        };
        assert!(small.clean());
        assert!(!suite_pass(Scale::Full, std::slice::from_ref(&small)));
        assert!(suite_pass(Scale::Smoke, std::slice::from_ref(&small)));
    }
}
