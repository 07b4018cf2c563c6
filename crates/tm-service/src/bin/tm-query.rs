//! `tm-query` — CLI client for a running `tm-serve` daemon.
//!
//! ```bash
//! tm-query --addr HOST:PORT [--json] QUERY...   # answer a batch
//! tm-query --addr HOST:PORT --trace QUERY...    # + per-query phase trace
//! tm-query --addr HOST:PORT --stats             # print service counters
//! tm-query --addr HOST:PORT --metrics           # fetch + summarize /metrics
//! tm-query --addr HOST:PORT --profile [--seconds N]  # folded-stack profile
//! tm-query --addr HOST:PORT --events [--cursor N]    # lifecycle event journal
//! tm-query --addr HOST:PORT --shutdown          # stop the daemon
//! ```
//!
//! Each `QUERY` is the shorthand `tm[+cm]:property:n:k`, e.g.
//! `dstm+aggressive:of:2:1` or `TL2:ss:2:2` (properties: `ss`, `op`,
//! `of`, `lf`, `wf`). Results print as an aligned table; `--json` dumps
//! the raw response body, `--verdicts` prints one stable
//! `name:property:n:k verdict [witness]` line per query (for diffing
//! runs against each other). Exits non-zero on connection errors,
//! non-200 responses, or malformed queries. Against a daemon with a
//! persistent store (`tm-serve --store-dir`), the batch footer adds a
//! `store:` line with the promote/demote and hit/miss counters.
//!
//! Observability knobs:
//!
//! * `--trace` — ask the server for per-query phase traces and print a
//!   phase-breakdown table after the results. Exits non-zero if the
//!   server answered without traces;
//! * `--metrics` — fetch `GET /metrics`, check it parses as Prometheus
//!   text, and print a one-line-per-series summary (`--json` prints the
//!   raw exposition instead);
//! * `--require NAME` (repeatable, with `--metrics`) — exit non-zero
//!   unless series `NAME` is present, for CI assertions;
//! * `--profile` — fetch `GET /v1/profile?seconds=N` (`--seconds`,
//!   default 1) and print the folded stacks the server's sampling
//!   profiler collected over that window — flamegraph-ready, one
//!   `thread;frame;... count` line per stack;
//! * `--events` — fetch `GET /v1/events?cursor=N` (`--cursor`, default
//!   0: the oldest retained event) and print the server's lifecycle
//!   journal — build/evict/demote/promote/abort/admission-wait events
//!   with request ids — plus the `next_cursor` to tail from;
//! * `--request-id ID` — ship `X-Request-Id: ID` so the server's log
//!   line and response echo it.
//!
//! Retry knobs:
//!
//! * `--retries N` — retry transport failures and retryable HTTP
//!   statuses (429/503/504) up to N times with exponential backoff and
//!   seeded jitter, honoring server `Retry-After` hints;
//! * `--backoff-seed S` — jitter seed (default 0), so CI runs are
//!   reproducible;
//! * `--deadline-ms MS` — whole-batch deadline shipped in the request;
//!   the server sheds queries past it as `aborted: deadline`.

use std::process::ExitCode;
use std::time::Duration;

use tm_obs::Phase;
use tm_service::client::{is_retryable_status, Backoff};
use tm_service::wire::{decode_results, encode_batch_request_traced};
use tm_service::{http_request_with_id, QueryOutcome, QuerySpec};

fn usage() -> &'static str {
    "usage: tm-query --addr HOST:PORT [--json | --verdicts] [--trace] [--retries N] \
     [--backoff-seed S] [--deadline-ms MS] [--request-id ID] QUERY...\n       \
     tm-query --addr HOST:PORT --stats | --shutdown | --metrics [--require NAME]... \
     | --profile [--seconds N] | --events [--cursor N]\n       \
     QUERY = tm[+cm]:property:n:k (e.g. dstm+aggressive:of:2:1, TL2:ss:2:2)"
}

struct Retry {
    attempts: u64,
    backoff: Backoff,
    request_id: Option<String>,
}

/// Sends one request, retrying retryable failures per the policy.
fn request(
    retry: &mut Retry,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut attempt = 0u32;
    loop {
        let outcome =
            http_request_with_id(addr, method, path, body, retry.request_id.as_deref());
        let (retryable, retry_after) = match &outcome {
            // Transport errors (refused, reset, timeout) are retryable:
            // the daemon may still be starting or mid-drain.
            Err(_) => (true, None),
            Ok((status, _, retry_after)) => (is_retryable_status(*status), *retry_after),
        };
        if !retryable || u64::from(attempt) >= retry.attempts {
            return outcome.map(|(status, body, _)| (status, body));
        }
        let delay = retry.backoff.delay_ms(attempt, retry_after);
        eprintln!(
            "tm-query: attempt {} failed ({}), retrying in {delay} ms",
            attempt + 1,
            match &outcome {
                Err(e) => e.clone(),
                Ok((status, _, _)) => format!("HTTP {status}"),
            }
        );
        std::thread::sleep(Duration::from_millis(delay));
        attempt += 1;
    }
}

fn run() -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut json = false;
    let mut verdicts = false;
    let mut stats = false;
    let mut shutdown = false;
    let mut metrics = false;
    let mut profile = false;
    let mut seconds = 1u64;
    let mut events = false;
    let mut cursor = 0u64;
    let mut trace = false;
    let mut required_series: Vec<String> = Vec::new();
    let mut request_id: Option<String> = None;
    let mut retries = 0u64;
    let mut backoff_seed = 0u64;
    let mut deadline_ms: Option<u64> = None;
    let mut queries = Vec::new();
    let mut args = std::env::args().skip(1);
    let value_of = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(value_of(&mut args, "--addr")?),
            "--json" => json = true,
            "--verdicts" => verdicts = true,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            "--metrics" => metrics = true,
            "--profile" => profile = true,
            "--seconds" => {
                seconds = value_of(&mut args, "--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--events" => events = true,
            "--cursor" => {
                cursor = value_of(&mut args, "--cursor")?
                    .parse()
                    .map_err(|e| format!("bad --cursor: {e}"))?
            }
            "--trace" => trace = true,
            "--require" => required_series.push(value_of(&mut args, "--require")?),
            "--request-id" => request_id = Some(value_of(&mut args, "--request-id")?),
            "--retries" => {
                retries = value_of(&mut args, "--retries")?
                    .parse()
                    .map_err(|e| format!("bad --retries: {e}"))?
            }
            "--backoff-seed" => {
                backoff_seed = value_of(&mut args, "--backoff-seed")?
                    .parse()
                    .map_err(|e| format!("bad --backoff-seed: {e}"))?
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    value_of(&mut args, "--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("bad --deadline-ms: {e}"))?,
                )
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            query => queries.push(QuerySpec::parse(query)?),
        }
    }
    let addr = addr.ok_or_else(|| format!("--addr is required\n{}", usage()))?;
    let mut retry = Retry {
        attempts: retries,
        backoff: Backoff::new(backoff_seed),
        request_id,
    };

    if stats {
        let (status, body) = request(&mut retry, &addr, "GET", "/v1/stats", None)?;
        println!("{body}");
        return check(status);
    }
    if metrics {
        let (status, body) = request(&mut retry, &addr, "GET", "/metrics", None)?;
        check(status)?;
        return print_metrics(&body, json, &required_series);
    }
    if profile {
        let path = format!("/v1/profile?seconds={seconds}");
        let (status, body) = request(&mut retry, &addr, "GET", &path, None)?;
        check(status)?;
        if body.trim().is_empty() {
            eprintln!("tm-query: the profile window caught no samples (is the server idle?)");
        }
        print!("{body}");
        return Ok(());
    }
    if events {
        let path = format!("/v1/events?cursor={cursor}");
        let (status, body) = request(&mut retry, &addr, "GET", &path, None)?;
        println!("{body}");
        return check(status);
    }
    if shutdown {
        let (status, body) = request(&mut retry, &addr, "POST", "/v1/shutdown", None)?;
        println!("{body}");
        return check(status);
    }
    if queries.is_empty() {
        return Err(format!("nothing to do\n{}", usage()));
    }

    let body = encode_batch_request_traced(&queries, deadline_ms, trace);
    let (status, body) = request(&mut retry, &addr, "POST", "/v1/batch", Some(&body))?;
    check(status).map_err(|e| format!("{e}: {body}"))?;
    if json {
        println!("{body}");
        return Ok(());
    }
    let (results, stats) = decode_results(&body).map_err(|e| e.to_string())?;
    if trace {
        let missing: Vec<&str> = results
            .iter()
            .filter(|r| r.trace.is_none())
            .map(|r| r.name.as_str())
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "trace requested but the server answered without one for: {}",
                missing.join(", ")
            ));
        }
    }
    if verdicts {
        for result in &results {
            let (verdict, witness) = describe(&result.outcome);
            let witness = if witness.is_empty() {
                String::new()
            } else {
                format!(" {witness}")
            };
            println!(
                "{}:{}:{}:{} {verdict}{witness}",
                result.name, result.spec.property, result.spec.threads, result.spec.vars
            );
        }
        return Ok(());
    }
    let mut table = tm_checker::Table::new(
        format!("tm-serve @ {addr}"),
        ["TM", "property", "(n,k)", "verdict", "states", "artifact", "counterexample"],
    );
    for result in &results {
        let (verdict, witness) = describe(&result.outcome);
        let artifact = if result.rebuilt {
            "rebuilt"
        } else if result.cached {
            "cached"
        } else {
            "built"
        };
        table.push_row([
            result.name.clone(),
            result.spec.property.to_string(),
            format!("({},{})", result.spec.threads, result.spec.vars),
            verdict,
            result.states.to_string(),
            artifact.to_owned(),
            witness,
        ]);
    }
    println!("{table}");
    println!(
        "service: {} queries, {} hits, {} builds ({} rebuilds), {} aborted, {} evictions, \
         {} tracked bytes (peak {})",
        stats.queries,
        stats.cache_hits,
        stats.artifact_builds,
        stats.artifact_rebuilds,
        stats.aborted_queries,
        stats.evictions,
        stats.tracked_bytes,
        stats.peak_tracked_bytes
    );
    // The storage-tier line appears only when the server has a store
    // (any store counter or file implies one).
    if stats.store_files > 0
        || stats.store_hits + stats.store_misses + stats.store_saves + stats.store_corrupt > 0
    {
        println!(
            "store: {} promotes, {} demotes, {} hits, {} misses, {} saves, {} corrupt, \
             {} files ({} bytes)",
            stats.store_promotes,
            stats.store_demotes,
            stats.store_hits,
            stats.store_misses,
            stats.store_saves,
            stats.store_corrupt,
            stats.store_files,
            stats.store_bytes
        );
    }
    if trace {
        print_trace_table(&results);
    }
    Ok(())
}

/// Prints the per-query phase breakdown, one row per (query, phase)
/// with nonzero time, plus a per-query total and drop count.
fn print_trace_table(results: &[tm_service::QueryResult]) {
    let mut table = tm_checker::Table::new(
        "phase breakdown".to_owned(),
        ["TM", "property", "(n,k)", "phase", "ms", "events"],
    );
    for result in results {
        let Some(trace) = &result.trace else { continue };
        for phase in Phase::ALL {
            let ns = trace.phase_ns[phase as usize];
            if ns == 0 {
                continue;
            }
            let events = trace.events.iter().filter(|e| e.phase == phase).count();
            table.push_row([
                result.name.clone(),
                result.spec.property.to_string(),
                format!("({},{})", result.spec.threads, result.spec.vars),
                phase.name().to_owned(),
                format!("{:.3}", ns as f64 / 1e6),
                events.to_string(),
            ]);
        }
        table.push_row([
            result.name.clone(),
            result.spec.property.to_string(),
            format!("({},{})", result.spec.threads, result.spec.vars),
            "total".to_owned(),
            format!("{:.3}", trace.total_ns() as f64 / 1e6),
            if trace.dropped_events > 0 {
                format!("{} (+{} dropped)", trace.events.len(), trace.dropped_events)
            } else {
                trace.events.len().to_string()
            },
        ]);
    }
    println!("{table}");
}

/// Validates and prints a `/metrics` exposition: parse (histogram
/// invariants included), assert every `--require` series exists, then
/// dump raw (`--json`) or one aligned `name{labels} value` line per
/// sample — histogram buckets are summarized by their `_sum`/`_count`
/// lines (the raw dump keeps them).
fn print_metrics(body: &str, json: bool, required: &[String]) -> Result<(), String> {
    let exposition =
        tm_obs::text::parse_prometheus(body).map_err(|e| format!("bad /metrics exposition: {e}"))?;
    let missing: Vec<&str> = required
        .iter()
        .map(String::as_str)
        .filter(|name| !exposition.has_series(name))
        .collect();
    if !missing.is_empty() {
        return Err(format!("missing required series: {}", missing.join(", ")));
    }
    if json {
        print!("{body}");
        return Ok(());
    }
    let mut table = tm_checker::Table::new(
        format!("{} samples, {} series types", exposition.samples.len(), exposition.types.len()),
        ["series", "value"],
    );
    for sample in &exposition.samples {
        if sample.name.ends_with("_bucket") {
            continue;
        }
        let name = if sample.labels.is_empty() {
            sample.name.clone()
        } else {
            let labels: Vec<String> =
                sample.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            format!("{}{{{}}}", sample.name, labels.join(","))
        };
        table.push_row([name, format!("{}", sample.value)]);
    }
    println!("{table}");
    Ok(())
}

fn describe(outcome: &QueryOutcome) -> (String, String) {
    match outcome {
        QueryOutcome::Verified => ("Y".to_owned(), String::new()),
        QueryOutcome::SafetyViolation { word } => ("N".to_owned(), word.clone()),
        QueryOutcome::LivenessViolation { notation, .. } => ("N".to_owned(), notation.clone()),
        QueryOutcome::Aborted { reason } => (format!("aborted:{reason}"), String::new()),
    }
}

fn check(status: u16) -> Result<(), String> {
    if status == 200 {
        Ok(())
    } else {
        Err(format!("server answered HTTP {status}"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tm-query: {message}");
            ExitCode::from(2)
        }
    }
}
