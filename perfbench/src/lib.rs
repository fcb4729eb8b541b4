//! End-to-end benchmark of the sampling gateway. See `README.md` for the
//! workloads, the metrics and how to run each mode.
//!
//! The gated binary (`perfbench`) names only the graph generators,
//! `SimulatedOsn::new`, the service builder, `GatewayServer::bind_with`
//! and the HTTP routes in its timed part; the check after the first round
//! also runs `Engine::run` on the same jobs. The traced binary
//! (`perfbench-traced`) adds probes that name inner types, so a change to
//! those can break only the traced run.

pub mod gate;
pub mod http;
pub mod json;
pub mod report;
pub mod runner;
pub mod spans;
pub mod util;
pub mod workload;

use runner::{Options, Round};
use std::time::Instant;
use workload::{Plan, Workload};

/// Rounds every run makes at least, so medians and the count-equality
/// check have something to work on.
pub const MIN_ROUNDS: usize = 3;

/// Command-line arguments shared by the binaries.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> [--trace 0|1]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload `{value}` (crawl|hotspot|tiny_jobs)")
                    })?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// One untraced round of the plan; `oracle` also checks the oracle jobs.
pub fn untraced_round(plan: &Plan, oracle: bool) -> Result<Round, String> {
    let opts = Options {
        spans: None,
        fetch_traces: false,
        check_oracle: oracle,
    };
    runner::run_round(plan, util::nproc(), |osn| osn, &opts)
}

/// Runs the gated benchmark and returns its result line and whether the
/// gate passed. It makes rounds for `--seconds`: another round starts only
/// while the longest round so far still fits in the time left, so the run
/// ends within `--seconds` once [`MIN_ROUNDS`] are done. The wall-clock
/// metrics are medians over rounds, which a faster or slower host does not
/// bias by changing the round count.
///
/// Rounds 0 and 1 run draw 0 of the seed's jobs, so the counts can be
/// checked to repeat; every later round runs a fresh draw.
pub fn gated(args: &Args) -> Result<(String, bool), String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut longest = 0.0f64;
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() + longest <= args.seconds {
        let began = Instant::now();
        let draw = rounds.len().saturating_sub(1) as u64;
        let plan = Plan::new(args.workload, args.seed, draw);
        rounds.push(untraced_round(&plan, rounds.is_empty())?);
        longest = longest.max(began.elapsed().as_secs_f64());
    }
    Ok(finish(&rounds, None))
}

/// Gates `rounds`, prints the human-readable summary to stdout, and builds
/// the result line from the end-to-end metrics (or from `per_layer`, when
/// given).
pub fn finish(
    rounds: &[Round],
    per_layer: Option<Vec<(String, f64, &'static str)>>,
) -> (String, bool) {
    let problems = report::gate(rounds);
    for p in &problems {
        eprintln!("gate: {p}");
    }
    let (attempted, failed) = report::attempted_failed(rounds);
    let e2e = report::end_to_end(rounds);
    println!(
        "# {} rounds of {} timed jobs over {} draw(s), tail = p{:.2} of each round's jobs, nproc = {}",
        rounds.len(),
        rounds[0].plan.jobs.len(),
        rounds.last().map_or(0, |r| r.plan.draw + 1),
        util::tail_percentile(rounds[0].plan.jobs.len()),
        util::nproc()
    );
    let per_round: Vec<_> = rounds.iter().map(report::round_metrics).collect();
    for key in report::WALL_CLOCK
        .iter()
        .chain(&["cpu_ms_per_sample", "setup_s"])
    {
        let values: Vec<String> = per_round.iter().map(|m| format!("{:.3}", m[key])).collect();
        println!("# per round {key}: {}", values.join(" "));
    }
    let order = report::by_throughput(rounds);
    for (label, r) in [("best", order[order.len() - 1]), ("worst", order[0])] {
        let values: Vec<String> = report::WALL_CLOCK
            .iter()
            .map(|key| format!("{key} {:.3}", per_round[r][key]))
            .collect();
        println!("# {label} round ({r}): {}", values.join(", "));
    }
    for (name, unit) in report::END_TO_END {
        println!("# {name} = {} {unit}", report::number(e2e[name]));
    }
    let metrics = per_layer.unwrap_or_else(|| {
        report::END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), e2e[name], unit))
            .collect()
    });
    let correct = problems.is_empty();
    (
        report::result_line(correct, attempted, failed, &metrics),
        correct,
    )
}

/// Shared `main` body: parse, run, print the result line last, and exit 0
/// only for a correct run.
pub fn main_with(run: impl FnOnce(&Args) -> Result<(String, bool), String>) {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    }
}
