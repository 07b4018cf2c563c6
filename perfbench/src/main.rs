//! `tm-perfbench`: the end-to-end and per-layer benchmark of the
//! tm-modelcheck workspace. See `README.md` beside this package.
//!
//! ```text
//! tm-perfbench --workload paper-warm|cold-scale|budget-churn --seed N
//!              --seconds S --trace 0|1 [--serve-bin PATH] [--work-dir DIR]
//! ```
//!
//! The last stdout line is the result object; the line before it is a
//! report with the seed, host, tail percentile, deterministic counts and
//! (traced runs) the layer self-time table.

#[macro_use]
mod inputs;
mod check;
mod host;
mod layers;
mod probe;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use tm_service::wire::Json;

use crate::inputs::Inputs;
use crate::workloads::{Config, Outcome};

const WORKLOADS: [&str; 3] = ["paper-warm", "cold-scale", "budget-churn"];

/// The tail percentile is the highest of these with at least
/// [`TAIL_BEYOND`] samples above it at the run's sample count.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: String,
    config: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => config.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--serve-bin" => config.serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => config.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    if !config.seconds.is_finite() || config.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args { workload, config })
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Every [`TAIL_LADDER`] percentile of `values` (nearest rank), with
/// the count of samples beyond it.
fn ladder(values: &[f64]) -> Vec<(f64, f64, usize)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Vec::new();
    }
    TAIL_LADDER
        .into_iter()
        .map(|pct| {
            let rank = ((pct / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            (pct, sorted[rank - 1], sorted.len() - rank)
        })
        .collect()
}

/// The tail: (percentile, value, samples beyond it) for the highest
/// [`TAIL_LADDER`] percentile with at least [`TAIL_BEYOND`] samples
/// beyond it; the median when none has.
fn tail(values: &[f64]) -> (f64, f64, usize) {
    ladder(values)
        .into_iter()
        .rfind(|&(_, _, beyond)| beyond >= TAIL_BEYOND)
        .unwrap_or((50.0, median(values), values.len() / 2))
}

fn num(value: f64) -> Json {
    Json::Num(if value.is_finite() { value } else { 0.0 })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_owned(), num(value)),
        ("unit".to_owned(), Json::Str(unit.to_owned())),
    ])
}

/// The wall-clock figures as measured: set-up, verdicts per second, p50
/// and tail latency.
fn raw_times(out: &Outcome) -> [f64; 4] {
    [
        median(&out.setup_s),
        out.verdicts as f64 / out.window_s,
        median(&out.latencies_ms),
        tail(&out.latencies_ms).1,
    ]
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Times are on
/// host-given CPU time: each measured wall time is scaled by the share
/// of wanted CPU time the host did not steal over its period (the
/// set-up, the window, or the latency's one-second slice).
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let ok = out.tally.attempted - out.tally.failed;
    let [setup, rate, ..] = raw_times(out);
    vec![
        ("setup_s", setup * (1.0 - out.setup_stolen), "s"),
        ("queries_per_s", rate / (1.0 - out.window_stolen), "1/s"),
        ("latency_p50_ms", median(&out.given_latencies_ms), "ms"),
        ("latency_tail_ms", tail(&out.given_latencies_ms).1, "ms"),
        (
            "ok_ratio",
            ok as f64 / out.tally.attempted.max(1) as f64,
            "ratio",
        ),
        ("peak_rss_mb", out.peak_rss_mb, "MiB"),
        (
            "artifact_peak_mb",
            out.artifact_peak_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
    ]
}

fn report(args: &Args, out: &Outcome) -> Json {
    let (tail_pct, _, tail_beyond) = tail(&out.given_latencies_ms);
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    let counts = out
        .counts
        .iter()
        .map(|(name, value)| ((*name).to_owned(), Json::Num(*value as f64)))
        .collect();
    let mut members = vec![
        ("workload".to_owned(), Json::Str(args.workload.clone())),
        ("seed".to_owned(), Json::Num(args.config.seed as f64)),
        ("seconds".to_owned(), num(args.config.seconds)),
        ("trace".to_owned(), Json::Bool(args.config.trace)),
        ("nproc".to_owned(), Json::Num(host as f64)),
        ("pool_size".to_owned(), Json::Num(out.pool_size as f64)),
        ("clients".to_owned(), Json::Num(out.clients as f64)),
        (
            "latency_samples".to_owned(),
            Json::Num(out.latencies_ms.len() as f64),
        ),
        ("latency_tail_percentile".to_owned(), num(tail_pct)),
        (
            "latency_tail_beyond".to_owned(),
            Json::Num(tail_beyond as f64),
        ),
        (
            "latency_ladder_ms".to_owned(),
            Json::Arr(
                ladder(&out.given_latencies_ms)
                    .into_iter()
                    .map(|(pct, value, beyond)| {
                        Json::Arr(vec![num(pct), num(value), Json::Num(beyond as f64)])
                    })
                    .collect(),
            ),
        ),
        (
            "setup_s_each".to_owned(),
            Json::Arr(out.setup_s.iter().map(|&s| num(s)).collect()),
        ),
        ("window_s".to_owned(), num(out.window_s)),
        ("setup_stolen_share".to_owned(), num(out.setup_stolen)),
        ("window_stolen_share".to_owned(), num(out.window_stolen)),
        (
            "raw_wall_clock".to_owned(),
            Json::Obj(
                [
                    "setup_s",
                    "queries_per_s",
                    "latency_p50_ms",
                    "latency_tail_ms",
                ]
                .into_iter()
                .zip(raw_times(out))
                .map(|(name, value)| (name.to_owned(), num(value)))
                .collect(),
            ),
        ),
        ("verdicts".to_owned(), Json::Num(out.verdicts as f64)),
        ("counts".to_owned(), Json::Obj(counts)),
        (
            "errors".to_owned(),
            Json::Arr(
                out.tally
                    .errors
                    .iter()
                    .map(|e| Json::Str(e.clone()))
                    .collect(),
            ),
        ),
    ];
    if let Some(traced) = &out.traced {
        members.push(("traced".to_owned(), traced.report()));
    }
    Json::Obj(vec![("report".to_owned(), Json::Obj(members))])
}

/// The traced run's self-time table, for a reader of stderr.
fn print_layer_table(workload: &str, out: &Outcome) {
    let Some(traced) = &out.traced else { return };
    let wall = traced.traced.wall_ns.max(1) as f64;
    eprintln!(
        "{workload}: layer self time over {} traced requests ({:.1} ms of request time)",
        traced.traced.requests,
        wall / 1e6
    );
    for row in traced.self_times() {
        eprintln!(
            "  {:<24} {:>10.2} ms  {:>5.1}%  (base: {} calls/events)",
            row.layer,
            row.ns as f64 / 1e6,
            100.0 * row.ns as f64 / wall,
            row.count
        );
    }
    eprintln!(
        "  engines + store below tm-service: {:.1}%",
        100.0 * traced.engine_share()
    );
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let inputs = Inputs::load()?;
    let out = match args.workload.as_str() {
        "paper-warm" => workloads::paper_warm(&inputs, &args.config)?,
        "cold-scale" => workloads::cold_scale(&inputs, &args.config)?,
        _ => workloads::budget_churn(&inputs, &args.config)?,
    };
    for error in &out.tally.errors {
        eprintln!("failed: {error}");
    }
    let mut correct = out.tally.failed == 0 && out.tally.attempted > 0;
    let metrics: Vec<(&str, f64, &str)> = match &out.traced {
        Some(traced) => {
            for (property, states) in probe::PAPER_SPEC_STATES {
                let measured = traced
                    .probes
                    .spec_states
                    .iter()
                    .find(|(p, _)| *p == property);
                if measured.is_some_and(|(_, n)| *n != states as u64) {
                    eprintln!(
                        "failed: {property} specification has {measured:?} states, not {states}"
                    );
                    correct = false;
                }
            }
            print_layer_table(&args.workload, &out);
            traced.metrics()
        }
        None => end_to_end(&out),
    };
    println!("{}", report(&args, &out));
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        (
            "attempted".to_owned(),
            Json::Num(out.tally.attempted as f64),
        ),
        ("failed".to_owned(), Json::Num(out.tally.failed as f64)),
        (
            "metrics".to_owned(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| (name.to_owned(), metric(value, unit)))
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tm-perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 90.0, 10));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 1980.0, 20));
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail(&[3.0, 1.0, 2.0]).0, 50.0);
    }
}
