//! In-memory spans recorded by the traced run around its own calls into
//! each layer, written out as JSON lines when the run ends.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One span: a layer boundary crossed by job `job` (its plan index) or, for
/// `job == usize::MAX`, by no job the client can name (backend calls).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one round, relative to a common epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(&self, name: &'static str, job: usize, start: Instant, end: Instant) {
        let span = Span {
            name,
            job,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log lock"))
    }
}

/// Self time of each parent span: its duration minus the part of it that
/// the spans of `children` (same job, any of the child names) cover.
pub fn self_times_ns(spans: &[Span], parent: &str, children: &[&str]) -> Vec<f64> {
    let mut by_job: std::collections::BTreeMap<usize, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| children.contains(&s.name)) {
        by_job
            .entry(s.job)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|p| {
            let mut covered = 0;
            let mut reach = p.start_ns;
            let mut kids = by_job.get(&p.job).cloned().unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(p.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (p.duration_ns() - covered) as f64
        })
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let job = if s.job == usize::MAX {
            "null".to_string()
        } else {
            s.job.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"job\":{job},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let span = |name, job, start_ns, end_ns| Span {
            name,
            job,
            start_ns,
            end_ns,
        };
        let spans = [
            span("job", 0, 0, 100),
            span("submit", 0, 0, 30),
            span("event", 0, 20, 50), // overlaps submit by 10
            span("event", 1, 0, 100), // another job: ignored
        ];
        assert_eq!(
            self_times_ns(&spans, "job", &["submit", "event"]),
            vec![50.0]
        );
    }
}
