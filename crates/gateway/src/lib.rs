//! # wnw-gateway — an HTTP/1.1 streaming frontend over the sampling service
//!
//! The paper's promise only pays off in production when remote clients can
//! submit sampling jobs and consume results **over the wire**. This crate
//! is that serving edge: a dependency-free HTTP/1.1 server (std's
//! non-blocking `TcpListener`/`TcpStream` driven by a hand-rolled
//! readiness loop — it builds and tests fully offline on loopback) in
//! front of a [`SamplingService`](wnw_service::SamplingService). A couple
//! of I/O threads step every connection through an explicit state machine
//! ([`conn`]), so thousands of concurrent slow stream consumers cost
//! buffers, not threads; blocking work runs on a small task pool (see
//! [`server`]). The crate carries its own small substrates since the
//! workspace has no serde or mio: an incremental request parser and its
//! client-side twin, an incremental response decoder ([`http`]), a tiny
//! JSON codec ([`json`]), the wire mapping for the service's
//! request/event/metrics types ([`wire`]), and a minimal blocking client
//! over that decoder ([`client`]) used by the integration tests and
//! `examples/http_gateway.rs`. The load generator drives the same decoder
//! from its non-blocking multiplexer.
//!
//! ## Endpoints
//!
//! | Method + path | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | submit a sampling request (JSON body) → `202` with `job_id` |
//! | `GET /v1/jobs/{id}/stream` | chunked NDJSON stream of `sample`/`progress`/`done` events |
//! | `DELETE /v1/jobs/{id}` | cooperative cancel (stream still delivers `done`) |
//! | `GET /v1/metrics` | service metrics snapshot, incl. `shared_cache_savings`, queue waits, the cross-job `history` reuse counters, and the latency histograms |
//! | `GET /v1/metrics/prometheus` | the same snapshot as Prometheus text exposition (`wnw_*` series, see [`wire::metrics_to_prometheus`]) |
//! | `GET /v1/jobs/{id}/trace` | the job's lifecycle trace as a JSON array (404 once evicted or with telemetry off) |
//! | `GET /healthz` | liveness probe: `status`, `version`, `uptime_seconds` |
//!
//! The submit body's optional `"history_policy"` field
//! (`"isolated"` (default) \| `"shared_read"` \| `"shared_publish"`) plugs a
//! job into the service's cross-job
//! [`HistoryStore`](wnw_service::HistoryStore), and `"reuse_correction"`
//! (`"reweighted"` (default) \| `"raw"`) picks the bias-correction mode for
//! reused walk counts — see [`wire`] for the full body schema.
//!
//! Streaming is the service's own [`SampleStream`](wnw_service::SampleStream)
//! carried over chunked transfer encoding: every event is flushed as one
//! NDJSON line the moment the scheduler lands it, so clients see samples
//! early instead of waiting for job completion. A client that disconnects
//! mid-stream hangs up on the stream, which cancels the job at the next
//! round boundary and refunds its unused budget — rate-limited query
//! budget is the scarce resource the paper optimizes, so abandoned jobs
//! must not keep spending it.
//!
//! ```
//! use wnw_access::SimulatedOsn;
//! use wnw_gateway::json::Json;
//! use wnw_gateway::{client, GatewayServer};
//! use wnw_graph::generators::random::barabasi_albert;
//! use wnw_service::SamplingService;
//!
//! let osn = SimulatedOsn::new(barabasi_albert(400, 3, 7).unwrap());
//! let service = SamplingService::builder(osn).pool_threads(2).build();
//! let server = GatewayServer::bind(service, "127.0.0.1:0").unwrap();
//! let addr = server.local_addr();
//!
//! // Submit a job and stream its samples back as NDJSON events.
//! let body = Json::obj(vec![
//!     ("samples", Json::UInt(8)),
//!     ("seed", Json::UInt(42)),
//!     ("diameter_estimate", Json::UInt(5)),
//! ]);
//! let accepted = client::post(addr, "/v1/jobs", &body).unwrap().json().unwrap();
//! let stream_path = accepted.get("stream").unwrap().as_str().unwrap().to_string();
//! let events: Vec<_> = client::open_stream(addr, &stream_path)
//!     .unwrap()
//!     .collect::<Result<_, _>>()
//!     .unwrap();
//! let samples = events
//!     .iter()
//!     .filter(|e| e.get("event").unwrap().as_str() == Some("sample"))
//!     .count();
//! assert_eq!(samples, 8);
//! let metrics = server.shutdown();
//! assert_eq!(metrics.jobs_completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod http;
pub mod json;
pub mod server;
pub mod wire;

pub use json::Json;
pub use server::{GatewayConfig, GatewayServer};
