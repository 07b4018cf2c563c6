//! `tm-serve` — the verification daemon: binds a TCP address, serves the
//! HTTP/JSON endpoint over an in-process [`tm_service::Service`], and
//! exits cleanly on `POST /v1/shutdown`.
//!
//! ```bash
//! tm-serve [--addr 127.0.0.1:0] [--mem-budget BYTES[k|m|g]]
//!          [--max-states N] [--port-file PATH] [--max-inflight N]
//!          [--query-deadline-ms MS] [--batch-deadline-ms MS]
//!          [--store-dir PATH] [--store-cap BYTES[k|m|g]] [--profile]
//! ```
//!
//! With port 0 the OS picks an ephemeral port; the bound address is
//! printed on the first stdout line (and written to `--port-file` if
//! given) so scripts can discover it. The memory budget defaults to the
//! `TM_SERVICE_MEM_BUDGET` environment variable; `--mem-budget`
//! overrides it. Each query runs on the connection thread that received
//! it.
//!
//! Persistence (flags override the `TM_STORE_DIR` and `TM_STORE_CAP`
//! environment variables): `--store-dir` keeps compiled artifacts in a
//! content-addressed on-disk store — budget evictions demote to disk
//! instead of discarding, re-queries promote the verified copy back
//! instead of rebuilding, and a restarted daemon warm-starts from the
//! directory with zero rebuilds. `--store-cap` bounds the directory's
//! bytes with the store's own LRU.
//!
//! Robustness knobs (flags override the `TM_SERVICE_MAX_INFLIGHT`,
//! `TM_SERVICE_QUERY_DEADLINE_MS`, and `TM_SERVICE_BATCH_DEADLINE_MS`
//! environment variables; 0 disables): `--max-inflight` bounds
//! concurrently admitted batches (excess answered 429),
//! `--query-deadline-ms` bounds each query's wall clock,
//! `--batch-deadline-ms` bounds a whole batch — expired work comes back
//! as `aborted` results, never a hung daemon.
//!
//! Observability knobs (environment only; see the crate README's
//! Observability section for the metric and phase inventory):
//!
//! * `GET /metrics` always serves the Prometheus text exposition;
//! * `TM_LOG=json` emits one structured JSON log line per HTTP request
//!   (with its `X-Request-Id`) to stderr;
//! * `TM_SLOW_QUERY_MS=N` logs any query slower than N ms to stderr,
//!   even with `TM_LOG` unset;
//! * `--profile` (or `TM_PROFILE=1`) starts the ~97 Hz sampling
//!   profiler at boot, so the first `GET /v1/profile` scrape already
//!   has history; without it the sampler starts lazily on the first
//!   scrape. `GET /v1/sessions`, `/v1/store`, and `/v1/events` expose
//!   per-session counters, the store's LRU listing, and the lifecycle
//!   event journal.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use tm_service::{parse_mem_budget, serve, Service, ServiceConfig};

fn usage() -> &'static str {
    "usage: tm-serve [--addr HOST:PORT] [--mem-budget BYTES[k|m|g]] \
     [--max-states N] [--port-file PATH] [--max-inflight N] \
     [--query-deadline-ms MS] [--batch-deadline-ms MS] \
     [--store-dir PATH] [--store-cap BYTES[k|m|g]] [--profile]"
}

fn run() -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_owned();
    let mut port_file: Option<String> = None;
    let mut profile = matches!(std::env::var("TM_PROFILE").as_deref(), Ok("1") | Ok("on"));
    let mut config = ServiceConfig::from_env()?;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--port-file" => port_file = Some(value("--port-file")?),
            "--mem-budget" => config.mem_budget = parse_mem_budget(&value("--mem-budget")?)?,
            "--max-inflight" => {
                config.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("bad --max-inflight: {e}"))?;
            }
            "--query-deadline-ms" => {
                let ms: u64 = value("--query-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("bad --query-deadline-ms: {e}"))?;
                config.query_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--batch-deadline-ms" => {
                let ms: u64 = value("--batch-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("bad --batch-deadline-ms: {e}"))?;
                config.batch_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-states" => {
                config.max_states = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("bad --max-states: {e}"))?;
            }
            "--store-dir" => {
                let dir = value("--store-dir")?;
                config.store_dir = (!dir.is_empty()).then(|| dir.into());
            }
            "--store-cap" => {
                config.store_cap =
                    parse_mem_budget(&value("--store-cap")?)?.map(|bytes| bytes as u64);
            }
            "--profile" => profile = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }

    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "tm-serve listening on {local} (budget={}, max-states={}, store={})",
        config
            .mem_budget
            .map_or("unbounded".to_owned(), |b| format!("{b} bytes")),
        config.max_states,
        config
            .store_dir
            .as_deref()
            .map_or("none".to_owned(), |dir| dir.display().to_string()),
    );
    std::io::stdout().flush().ok();
    if let Some(path) = port_file {
        std::fs::write(&path, local.to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    if profile {
        tm_obs::start_sampler();
    }
    let service = Arc::new(Service::try_new(config)?);
    let served = serve(listener, Arc::clone(&service)).map_err(|e| format!("serve: {e}"))?;
    let stats = service.stats();
    println!(
        "tm-serve shut down cleanly: {} connections, {} queries ({} hits, {} builds, \
         {} rebuilds, {} aborted, {} evictions, peak {} tracked bytes, \
         store {} promotes / {} demotes)",
        served,
        stats.queries,
        stats.cache_hits,
        stats.artifact_builds,
        stats.artifact_rebuilds,
        stats.aborted_queries,
        stats.evictions,
        stats.peak_tracked_bytes,
        stats.store_promotes,
        stats.store_demotes
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tm-serve: {message}");
            ExitCode::from(2)
        }
    }
}
