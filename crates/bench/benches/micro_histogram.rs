//! Micro-benchmark: the telemetry substrate's hot-path cost.
//!
//! Two questions decide whether `wnw-telemetry` may sit on the scheduler's
//! hot path:
//!
//! 1. what does one `Histogram::record` / `quantile` cost in isolation
//!    (a handful of relaxed atomics vs a 128-bucket scan), and
//! 2. what does the *whole* telemetry layer — trace log, per-round timing,
//!    job histograms — add to a real `SamplingService` workload, measured
//!    as wall-clock per identical run with telemetry on vs off (the design
//!    budget is ≤ 5 % overhead).
//!
//! Besides the criterion-shim console output, the bench writes
//! `BENCH_telemetry.json` at the repo root (record/quantile ns plus the
//! on-vs-off overhead) so the perf trajectory has durable data points. Set
//! `WNW_BENCH_SMOKE=1` for a fast CI-sized run, which writes the report
//! under `target/` instead.

use criterion::{criterion_group, Criterion};
use std::time::{Duration, Instant};
use wnw_access::SimulatedOsn;
use wnw_engine::SampleJob;
use wnw_graph::generators::random::barabasi_albert;
use wnw_loadgen::{write_report, Scale};
use wnw_mcmc::RandomWalkKind;
use wnw_service::{SampleRequest, SamplingService};
use wnw_telemetry::Histogram;

fn smoke() -> bool {
    Scale::from_env() == Scale::Smoke
}

/// A deterministic latency-shaped value stream (xorshift, bounded to keep
/// bucket churn realistic) so record cost is not a constant-bucket artifact.
fn values(n: usize) -> Vec<u64> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 1_000_000
        })
        .collect()
}

/// Median of `samples` timed batches, as ns per operation.
fn median_ns_per_op(samples: usize, ops: usize, mut run_batch: impl FnMut()) -> f64 {
    run_batch(); // warm
    let mut per_sample: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            run_batch();
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_sample.sort_by(f64::total_cmp);
    per_sample[per_sample.len() / 2]
}

/// One identical service workload; returns its wall-clock. `telemetry`
/// toggles the trace log and per-round timing.
fn service_run(telemetry: bool, jobs: usize, samples: usize) -> Duration {
    let osn = SimulatedOsn::new(barabasi_albert(2_000, 3, 11).expect("valid BA parameters"));
    let service = SamplingService::builder(osn)
        .pool_threads(2)
        .telemetry(telemetry)
        .build();
    let started = Instant::now();
    let tickets: Vec<_> = (0..jobs)
        .map(|i| {
            let job = SampleJob::walk_estimate(RandomWalkKind::Simple, samples, 500 + i as u64)
                .with_walkers(3)
                .with_diameter_estimate(5);
            service.submit(SampleRequest::new(job)).expect("admitted")
        })
        .collect();
    for ticket in tickets {
        ticket.stream.wait().expect("outcome");
    }
    let elapsed = started.elapsed();
    service.shutdown();
    elapsed
}

struct Results {
    record_ns: f64,
    record_contended_ns: f64,
    quantile_ns: f64,
    on_ms: f64,
    off_ms: f64,
}

impl Results {
    /// Telemetry-on overhead over off, in percent (negative = within noise).
    fn overhead_pct(&self) -> f64 {
        (self.on_ms / self.off_ms - 1.0) * 100.0
    }
}

fn measure_all() -> Results {
    let (samples, ops) = if smoke() { (5, 20_000) } else { (15, 200_000) };
    let stream = values(ops);

    let hist = Histogram::new();
    let record_ns = median_ns_per_op(samples, ops, || {
        for &v in &stream {
            hist.record(v);
        }
    });

    // Contended: 4 threads hammering one histogram — the shared-metrics
    // shape the service uses.
    let shared = Histogram::new();
    let threads = 4;
    let record_contended_ns = median_ns_per_op(samples, ops * threads, || {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for &v in &stream {
                        shared.record(v);
                    }
                });
            }
        });
    });

    let quantile_ops = if smoke() { 2_000 } else { 20_000 };
    let snap = hist.snapshot();
    let mut sink = 0u64;
    let quantile_ns = median_ns_per_op(samples, quantile_ops, || {
        for i in 0..quantile_ops {
            sink = sink.wrapping_add(snap.quantile(i as f64 / quantile_ops as f64));
        }
    });
    assert!(sink > 0, "quantiles were computed");

    // Interleave on/off runs so machine drift cancels; keep the medians.
    let (runs, jobs, job_samples) = if smoke() { (3, 2, 30) } else { (7, 4, 150) };
    let mut on: Vec<f64> = Vec::new();
    let mut off: Vec<f64> = Vec::new();
    for _ in 0..runs {
        on.push(service_run(true, jobs, job_samples).as_secs_f64() * 1e3);
        off.push(service_run(false, jobs, job_samples).as_secs_f64() * 1e3);
    }
    on.sort_by(f64::total_cmp);
    off.sort_by(f64::total_cmp);
    Results {
        record_ns,
        record_contended_ns,
        quantile_ns,
        on_ms: on[on.len() / 2],
        off_ms: off[off.len() / 2],
    }
}

fn report_json(r: &Results) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"telemetry\",\n");
    out.push_str(
        "  \"description\": \"telemetry hot-path cost: Histogram::record/quantile ns \
         (single-thread and 4-thread contended), and wall-clock of an identical \
         SamplingService workload with telemetry on vs off (median of interleaved runs)\",\n",
    );
    out.push_str(&format!("  \"smoke\": {},\n", smoke()));
    out.push_str(&format!("  \"record_ns\": {:.2},\n", r.record_ns));
    out.push_str(&format!(
        "  \"record_contended_ns\": {:.2},\n",
        r.record_contended_ns
    ));
    out.push_str(&format!("  \"quantile_ns\": {:.2},\n", r.quantile_ns));
    out.push_str(&format!("  \"service_telemetry_on_ms\": {:.2},\n", r.on_ms));
    out.push_str(&format!(
        "  \"service_telemetry_off_ms\": {:.2},\n",
        r.off_ms
    ));
    out.push_str(&format!(
        "  \"telemetry_overhead_pct\": {:.2},\n",
        r.overhead_pct()
    ));
    out.push_str("  \"overhead_budget_pct\": 5.0\n");
    out.push_str("}\n");
    out
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_histogram");
    let (sample_size, time) = if smoke() {
        (20, Duration::from_millis(200))
    } else {
        (60, Duration::from_secs(1))
    };
    group.sample_size(sample_size).measurement_time(time);
    let stream = values(4_096);
    let hist = Histogram::new();
    let mut i = 0usize;
    group.bench_function("record", |b| {
        b.iter(|| {
            hist.record(stream[i % stream.len()]);
            i += 1;
        })
    });
    for &v in &stream {
        hist.record(v);
    }
    let snap = hist.snapshot();
    let mut q = 0usize;
    group.bench_function("quantile", |b| {
        b.iter(|| {
            let quantile = snap.quantile((q % 1000) as f64 / 1000.0);
            q += 1;
            quantile
        })
    });
    group.finish();
}

criterion_group!(benches, bench_histogram);

fn main() {
    benches();
    let results = measure_all();
    eprintln!("telemetry hot path:");
    eprintln!("  record            {:>10.2} ns/op", results.record_ns);
    eprintln!(
        "  record (4 thr)    {:>10.2} ns/op",
        results.record_contended_ns
    );
    eprintln!("  quantile          {:>10.2} ns/op", results.quantile_ns);
    eprintln!(
        "  service run       on {:.2} ms / off {:.2} ms  -> overhead {:+.2}% (budget 5%)",
        results.on_ms,
        results.off_ms,
        results.overhead_pct()
    );
    write_report(
        Scale::from_env(),
        "BENCH_telemetry.json",
        &report_json(&results),
    );
}
