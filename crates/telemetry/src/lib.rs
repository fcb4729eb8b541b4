//! # wnw-telemetry — distribution-level observability for the sampling stack
//!
//! The service layer's counters answer *how much*; they cannot answer *how
//! bad the tail is* or *why a slow job was slow*. This crate is the
//! std-only observability substrate the engine, service, and gateway report
//! through:
//!
//! * [`Histogram`] — a lock-free, fixed-footprint log-bucketed (HDR-style,
//!   two sub-buckets per power-of-two octave) atomic histogram over `u64`
//!   values. `record` is a handful of relaxed atomic adds; quantile
//!   estimates are within one bucket (≤ 25 % relative error) of the exact
//!   order statistic.
//! * [`Metric`] — one row of a metrics table: JSON key, Prometheus family,
//!   help text and typed [`MetricValue`], so a component declares each
//!   metric once and every renderer loops over the same rows.
//! * [`TraceLog`] — a bounded, lock-striped ring buffer of per-job
//!   lifecycle [`TraceEvent`]s, each stamped with a monotonic timestamp, so
//!   a slow job's life (`Submitted` → `Admitted` → rounds → `Finished`) can
//!   be replayed after the fact.
//! * [`prometheus`] — hand-rolled Prometheus text exposition (format
//!   0.0.4): `# TYPE` lines, cumulative `_bucket`/`_sum`/`_count` series,
//!   plus a grammar [`validator`](prometheus::validate) the integration
//!   tests machine-check scrapes with.
//!
//! ## Metric naming
//!
//! The service's metrics — their JSON keys, `wnw_*` Prometheus families
//! and help texts — are listed once, in
//! [`ServiceMetricsSnapshot::table`](../wnw_service/metrics/struct.ServiceMetricsSnapshot.html#method.table)
//! in `wnw-service`. The gateway's `GET /v1/metrics` and
//! `GET /v1/metrics/prometheus` both render that table.
//!
//! ```
//! use wnw_telemetry::Histogram;
//!
//! let h = Histogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! let snap = h.snapshot();
//! assert_eq!(snap.count, 1000);
//! let p50 = snap.quantile(0.5);
//! assert!((p50 as f64 - 500.0).abs() / 500.0 <= 0.25, "p50 was {p50}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod metric;
pub mod prometheus;
pub mod trace;

pub use histogram::{
    bucket_bounds, bucket_index, saturating_micros, Histogram, HistogramSnapshot, BUCKET_COUNT,
};
pub use metric::{Metric, MetricValue};
pub use trace::{TraceEvent, TraceEventKind, TraceLog, DEFAULT_TRACE_CAPACITY};
