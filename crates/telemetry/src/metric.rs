//! The row type of a metrics table.
//!
//! A component that exposes metrics lists each one once as a [`Metric`]:
//! its JSON key, its Prometheus family, its help text and its typed value.
//! Renderers loop over those rows; [`Exposition::metrics`] writes the
//! Prometheus text, and a JSON frontend nests the dotted keys. The service's
//! table is
//! [`ServiceMetricsSnapshot::table`](../../wnw_service/metrics/struct.ServiceMetricsSnapshot.html#method.table)
//! in `wnw-service`.
//!
//! [`Exposition::metrics`]: crate::prometheus::Exposition::metrics

use crate::histogram::HistogramSnapshot;
use std::time::Duration;

/// A metric's value, typed by how it renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue<'a> {
    /// A lifetime total: a JSON integer, a Prometheus `counter`.
    Counter(u64),
    /// A level that can fall: a JSON integer, a Prometheus `gauge`.
    Gauge(u64),
    /// A yes/no state: a JSON boolean, a Prometheus `gauge` of 1 or 0.
    Flag(bool),
    /// A duration as fractional milliseconds. JSON only: a row holding one
    /// has no Prometheus family.
    Millis(Duration),
    /// A distribution: a JSON summary object, a Prometheus `histogram`.
    Histogram(&'a HistogramSnapshot),
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric<'a> {
    /// The JSON key. A dotted path (`pool.api_calls`) places the value in
    /// a nested object; rows of one object are listed next to each other.
    pub key: &'static str,
    /// The Prometheus family name, or `None` for a JSON-only value.
    pub family: Option<&'static str>,
    /// What the value means; the family's `# HELP` text.
    pub help: &'static str,
    /// The current value.
    pub value: MetricValue<'a>,
}
