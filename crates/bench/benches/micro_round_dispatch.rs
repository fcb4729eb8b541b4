//! Micro-benchmark: per-round dispatch cost — scoped `thread::spawn` vs the
//! persistent `WorkerPool`.
//!
//! Before `wnw-runtime`, every engine round (and every `scatter_map` call)
//! spawned and joined fresh OS threads through `std::thread::scope`; the
//! pool replaces that with workers spawned once and woken per round. This
//! bench isolates exactly that difference: the same synthetic round — a
//! fixed batch of walkers, each doing a few dozen nanoseconds of RNG mixing
//! so dispatch overhead dominates — executed by (a) the old scoped-spawn
//! dispatch, reconstructed here verbatim, and (b) a persistent pool, at
//! widths 1/2/4/8.
//!
//! Besides the criterion-shim console output, the bench writes
//! `BENCH_round_dispatch.json` at the repo root (median ns/round per width
//! and the pool-over-scoped speedup) so the perf trajectory has durable
//! data points. Set `WNW_BENCH_SMOKE=1` for a fast CI-sized run, which
//! writes the report under `target/` instead.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::time::{Duration, Instant};
use wnw_loadgen::{write_report, Scale};
use wnw_runtime::WorkerPool;

/// Parallelism widths compared (1 = the inline fast path on both sides).
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Walkers per round — the live-walker batch a mid-size job dispatches.
const WALKERS: usize = 8;

fn smoke() -> bool {
    Scale::from_env() == Scale::Smoke
}

/// A few dozen nanoseconds of xorshift mixing — a stand-in for one walker's
/// draw, deliberately tiny so the measured time is the dispatch itself.
fn draw(state: &mut u64) {
    let mut x = *state | 1;
    for _ in 0..32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    *state = x;
}

/// The dispatch the engine used before the persistent pool: partition the
/// live walkers round-robin over `width` buckets and spawn one scoped
/// thread per bucket — every round (inline at width 1, as before).
fn scoped_round(width: usize, walkers: &mut [u64]) {
    let width = width.clamp(1, walkers.len());
    if width == 1 {
        for walker in walkers {
            draw(walker);
        }
        return;
    }
    let mut buckets: Vec<Vec<&mut u64>> = (0..width).map(|_| Vec::new()).collect();
    for (i, walker) in walkers.iter_mut().enumerate() {
        buckets[i % width].push(walker);
    }
    std::thread::scope(|scope| {
        for bucket in buckets {
            scope.spawn(move || {
                for walker in bucket {
                    draw(walker);
                }
            });
        }
    });
}

/// The persistent-pool dispatch: same batch, same barrier, parked workers.
fn pool_round(pool: &WorkerPool, walkers: &mut [u64]) {
    pool.round(walkers, draw);
}

/// Median wall-clock nanoseconds per round over `samples` timed batches of
/// `rounds` rounds each.
fn median_ns_per_round(samples: usize, rounds: usize, mut run_round: impl FnMut()) -> f64 {
    // One untimed batch to warm caches (and page the pool's workers in).
    for _ in 0..rounds.min(16) {
        run_round();
    }
    let mut per_sample: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..rounds {
                run_round();
            }
            started.elapsed().as_nanos() as f64 / rounds as f64
        })
        .collect();
    per_sample.sort_by(f64::total_cmp);
    per_sample[per_sample.len() / 2]
}

/// One width's measurements.
struct WidthResult {
    width: usize,
    scoped_ns: f64,
    pool_ns: f64,
}

impl WidthResult {
    fn speedup(&self) -> f64 {
        self.scoped_ns / self.pool_ns.max(1.0)
    }
}

fn measure_all() -> Vec<WidthResult> {
    let (samples, rounds) = if smoke() { (3, 60) } else { (9, 400) };
    WIDTHS
        .iter()
        .map(|&width| {
            let mut walkers: Vec<u64> = (1..=WALKERS as u64).collect();
            let scoped_ns =
                median_ns_per_round(samples, rounds, || scoped_round(width, &mut walkers));
            let pool = WorkerPool::new(width);
            let pool_ns = median_ns_per_round(samples, rounds, || pool_round(&pool, &mut walkers));
            WidthResult {
                width,
                scoped_ns,
                pool_ns,
            }
        })
        .collect()
}

fn report_json(results: &[WidthResult]) -> String {
    let (samples, rounds) = if smoke() { (3, 60) } else { (9, 400) };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"round_dispatch\",\n");
    out.push_str(
        "  \"description\": \"per-round dispatch cost of one engine round (8 walkers, \
         trivial draws): scoped thread::spawn per round vs persistent WorkerPool; \
         median wall-clock ns per round\",\n",
    );
    out.push_str(&format!("  \"walkers_per_round\": {WALKERS},\n"));
    out.push_str(&format!("  \"rounds_per_sample\": {rounds},\n"));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"smoke\": {},\n", smoke()));
    out.push_str("  \"widths\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"width\": {}, \"scoped_spawn_ns_per_round\": {:.1}, \
             \"worker_pool_ns_per_round\": {:.1}, \"pool_speedup\": {:.2}}}{}\n",
            r.width,
            r.scoped_ns,
            r.pool_ns,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn bench_round_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_dispatch");
    let (sample_size, time) = if smoke() {
        (20, Duration::from_millis(200))
    } else {
        (60, Duration::from_secs(1))
    };
    group.sample_size(sample_size).measurement_time(time);
    for &width in &WIDTHS {
        let mut walkers: Vec<u64> = (1..=WALKERS as u64).collect();
        group.bench_with_input(
            BenchmarkId::new("scoped_spawn", width),
            &width,
            |b, &width| b.iter(|| scoped_round(width, &mut walkers)),
        );
        let pool = WorkerPool::new(width);
        let mut walkers: Vec<u64> = (1..=WALKERS as u64).collect();
        group.bench_with_input(BenchmarkId::new("worker_pool", width), &width, |b, _| {
            b.iter(|| pool_round(&pool, &mut walkers))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_round_dispatch);

fn main() {
    benches();
    let results = measure_all();
    eprintln!("round dispatch, median ns/round ({WALKERS} walkers):");
    for r in &results {
        eprintln!(
            "  width {}: scoped {:>12.1}  pool {:>12.1}  speedup {:.2}x",
            r.width,
            r.scoped_ns,
            r.pool_ns,
            r.speedup()
        );
    }
    write_report(
        Scale::from_env(),
        "BENCH_round_dispatch.json",
        &report_json(&results),
    );
}
