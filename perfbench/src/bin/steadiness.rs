//! Steadiness evidence: runs the gated binary for every workload `--runs`
//! times in two sets — back to back (all runs of one workload, then the
//! next) and interleaved (one run of each workload in turn) — with seeds
//! `--seed`, `--seed + 1`, … in both sets. For each end-to-end metric it
//! reports each set's median and quartiles, the quartile spread as a share
//! of the median, and the gap between the two sets' medians, each against
//! the metric's bound in `BENCHMARK.json`.
//!
//! ```text
//! perfbench-steadiness --runs 10 --seconds 55 --seed 1 [--workloads crawl,hotspot] > STEADINESS.json
//! ```
//!
//! Run it from the repository root: it reads the bounds, and by default the
//! workloads, from `BENCHMARK.json` there.

use perfbench::json::{self, Value};
use perfbench::util::{self, median, quartiles};
use perfbench::workload::Workload;
use std::collections::BTreeMap;
use std::process::Command;

/// One run's end-to-end metrics, by name.
type Metrics = BTreeMap<String, f64>;
/// Median, first quartile, third quartile, and (q3 − q1) ÷ median.
type Summary = (f64, f64, f64, f64);

struct Opts {
    runs: usize,
    seconds: String,
    seed: u64,
    workloads: Vec<Workload>,
}

fn parse() -> Result<Opts, String> {
    let mut opts = Opts {
        runs: 10,
        seconds: "10".into(),
        seed: 1,
        workloads: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => opts.runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => opts.seconds = value,
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workloads" => {
                opts.workloads = value
                    .split(',')
                    .map(|w| Workload::parse(w).ok_or_else(|| format!("unknown workload `{w}`")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = gated_workloads()?;
    }
    Ok(opts)
}

/// The workloads `BENCHMARK.json` gates.
fn gated_workloads() -> Result<Vec<Workload>, String> {
    benchmark_json()?
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .map(|w| {
            let name = w.str_at("name")?;
            Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect()
}

fn benchmark_json() -> Result<Value, String> {
    let text = std::fs::read("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json::parse(&text)
}

/// One gated run's metrics, by name.
fn run_once(
    exe: &std::path::Path,
    w: Workload,
    seed: u64,
    seconds: &str,
) -> Result<Metrics, String> {
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result =
        json::parse(last.as_bytes()).map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
    if !out.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} seed {seed} failed: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return Err("result has no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.f64_at("value").ok()?)))
        .collect())
}

/// `(name, bound, better)` of each end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64, String)>, String> {
    benchmark_json()?
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            Ok((
                m.str_at("name")?.to_string(),
                m.f64_at("bound")?,
                m.str_at("better")?.to_string(),
            ))
        })
        .collect()
}

fn summary(values: &[f64]) -> Summary {
    let med = median(values);
    let (q1, q3) = quartiles(values);
    (med, q1, q3, (q3 - q1) / med)
}

fn main() {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    let bounds = bounds()?;
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("perfbench");
    // set name -> workload -> runs
    let mut sets: Vec<(&str, BTreeMap<&str, Vec<Metrics>>)> = Vec::new();
    let mut calibration = Vec::new();
    let mut order: Vec<(&str, Workload, u64)> = Vec::new();
    for &w in &opts.workloads {
        for r in 0..opts.runs {
            order.push(("back_to_back", w, opts.seed + r as u64));
        }
    }
    for r in 0..opts.runs {
        for &w in &opts.workloads {
            order.push(("interleaved", w, opts.seed + r as u64));
        }
    }
    for (set, w, seed) in order {
        calibration.push(util::host_calibration_ms());
        let metrics = run_once(&exe, w, seed, &opts.seconds)?;
        eprintln!(
            "{set} {} seed {seed}: samples_per_s {:.1}",
            w.name(),
            metrics.get("samples_per_s").copied().unwrap_or(f64::NAN)
        );
        match sets.iter_mut().find(|(name, _)| *name == set) {
            Some((_, by_w)) => by_w.entry(w.name()).or_default().push(metrics),
            None => sets.push((set, BTreeMap::from([(w.name(), vec![metrics])]))),
        }
    }

    let (cal_med, cal_q1, cal_q3, _) = summary(&calibration);
    let mut out = format!(
        "{{\n  \"nproc\": {},\n  \"runs_per_set\": {},\n  \"seconds\": {},\n  \"seeds\": [{}, {}],\n  \"host.calibration_ms\": {{\"median\": {cal_med:.3}, \"q1\": {cal_q1:.3}, \"q3\": {cal_q3:.3}}},\n  \"workloads\": {{",
        util::nproc(),
        opts.runs,
        opts.seconds,
        opts.seed,
        opts.seed + opts.runs as u64 - 1
    );
    let mut all_ok = true;
    for (wi, &w) in opts.workloads.iter().enumerate() {
        out += &format!(
            "{}\n    \"{}\": {{",
            if wi > 0 { "," } else { "" },
            w.name()
        );
        for (mi, (name, bound, better)) in bounds.iter().enumerate() {
            let per_set: Vec<(&str, Summary)> = sets
                .iter()
                .map(|(set, by_w)| {
                    let values: Vec<f64> = by_w[w.name()]
                        .iter()
                        .map(|m| m.get(name).copied().unwrap_or(f64::NAN))
                        .collect();
                    (*set, summary(&values))
                })
                .collect();
            out += &format!(
                "{}\n      \"{name}\": {{\"bound\": {bound}",
                if mi > 0 { "," } else { "" }
            );
            for (set, (med, q1, q3, spread)) in &per_set {
                all_ok &= *spread <= *bound;
                let runs: Vec<String> = sets
                    .iter()
                    .find(|(name, _)| name == set)
                    .map(|(_, by_w)| {
                        by_w[w.name()]
                            .iter()
                            .map(|m| format!("{:.6}", m.get(name).copied().unwrap_or(f64::NAN)))
                            .collect()
                    })
                    .unwrap_or_default();
                out += &format!(
                    ", \"{set}\": {{\"median\": {med:.6}, \"q1\": {q1:.6}, \"q3\": {q3:.6}, \"spread\": {spread:.4}, \"spread_within_third_of_bound\": {}, \"runs\": [{}]}}",
                    *spread <= bound / 3.0,
                    runs.join(", ")
                );
            }
            let (a, b) = (per_set[0].1 .0, per_set[1].1 .0);
            // Positive gap = the interleaved set is worse.
            let gap = if better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let ok = gap <= *bound;
            all_ok &= ok;
            out += &format!(", \"median_gap\": {gap:.4}, \"gap_within_bound\": {ok}");
            out += "}";
        }
        out += "\n    }";
    }
    out += &format!("\n  }},\n  \"all_within_bounds\": {all_ok}\n}}");
    println!("{out}");
    Ok(())
}
