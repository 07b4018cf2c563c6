//! The three closed-loop workloads. Each sets up (several times, so the
//! set-up time is a median), then sends requests until the window ends.
//! An untraced run measures the whole window; a traced run splits it
//! into an untraced and a traced half and adds the layer probes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tm_service::wire::{self, Json};
use tm_service::{http_request, QueryResult, QuerySpec, Service, ServiceConfig};

use crate::check::Checker;
use crate::host::{CpuTicks, GivenLatencies};
use crate::inputs::{pass_order, Inputs};
use crate::layers::{Counters, LayerTrace, TracedRun};
use crate::probe::{self, nanos, TmKey};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The tight `budget-churn` memory budget: largest + (total − largest)/4
/// of the paper roster's artifacts when the benchmark was defined
/// (1 300 176 B in all, 808 116 B under this budget). Fixed, so a change
/// that enlarges artifacts evicts more instead of getting more room.
pub const CHURN_BUDGET_BYTES: usize = 808_116;

/// Client threads of `budget-churn`.
pub const CHURN_CLIENTS: usize = 2;

/// Pass index of the set-up passes (distinct from the timed passes).
const SETUP_PASS: u64 = u64::MAX;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub work_dir: PathBuf,
}

/// Requests attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = outcome {
            self.fail(error);
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for error in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(error);
            }
        }
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Share of wanted CPU time the host stole during set-up and during
    /// the timed window.
    pub setup_stolen: f64,
    pub window_stolen: f64,
    /// Per successful request of the timed window, as measured and on
    /// host-given time.
    pub latencies_ms: Vec<f64>,
    pub given_latencies_ms: Vec<f64>,
    pub verdicts: u64,
    pub window_s: f64,
    pub tally: Tally,
    pub peak_rss_mb: f64,
    pub artifact_peak_bytes: u64,
    pub pool_size: usize,
    pub clients: usize,
    /// Deterministic work counts of single-client set-up passes.
    pub counts: Vec<(&'static str, u64)>,
    pub traced: Option<TracedRun>,
}

/// One closed-loop phase: latencies, verdicts and layer sums.
struct Phase {
    latencies_ms: Vec<f64>,
    given: GivenLatencies,
    verdicts: u64,
    tally: Tally,
    layers: LayerTrace,
}

impl Phase {
    fn new(traced: bool) -> Phase {
        Phase {
            latencies_ms: Vec::new(),
            given: GivenLatencies::new(),
            verdicts: 0,
            tally: Tally::default(),
            layers: LayerTrace {
                untraced: !traced,
                ..LayerTrace::default()
            },
        }
    }

    /// Records one request's results.
    fn answered(
        &mut self,
        results: &[QueryResult],
        elapsed: Duration,
        checker: &Checker,
        step_ns: &BTreeMap<TmKey, u64>,
    ) {
        let mut outcome = Ok(());
        for result in results {
            if let Err(error) = checker.check(result) {
                outcome = Err(error);
            }
            self.layers.query(result, step_ns);
        }
        if outcome.is_ok() {
            self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            self.given.record(elapsed.as_secs_f64() * 1e3);
            self.verdicts += results.len() as u64;
            self.layers.request(nanos(elapsed));
        }
        self.tally.record(outcome);
    }

    /// Closes the phase's last latency slice.
    fn end(mut self) -> Phase {
        self.given.close_slice();
        self
    }

    fn merge(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.given.given_ms.extend(other.given.given_ms);
        self.verdicts += other.verdicts;
        self.tally.merge(other.tally);
        self.layers.merge(&other.layers);
    }
}

/// The window's phase deadlines: one untraced phase, or an untraced
/// and a traced half.
fn phases(cfg: &Config) -> Vec<(bool, Duration)> {
    let window = Duration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        vec![(false, window / 2), (true, window / 2)]
    } else {
        vec![(false, window)]
    }
}

fn in_process_metrics() -> String {
    tm_obs::global().render_prometheus()
}

/// VmHWM of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn submit_one(service: &Service, spec: &QuerySpec, traced: bool) -> Vec<QueryResult> {
    service.submit_traced(std::slice::from_ref(spec), None, traced)
}

/// `paper-warm`: one client, one query per request, to a warm unbounded
/// in-process service.
pub fn paper_warm(inputs: &Inputs, cfg: &Config) -> Result<Outcome, String> {
    let checker = Checker::new(&inputs.expected);
    let queries = &inputs.paper;
    let mut out = Outcome {
        clients: 1,
        ..Outcome::default()
    };
    let mut warm = None;
    let mut one_pass = Vec::new();
    let ticks = CpuTicks::now();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let service = Service::new(ServiceConfig::default());
        let results: Vec<QueryResult> = pass_order(cfg.seed, SETUP_PASS, queries.len())
            .into_iter()
            .flat_map(|i| submit_one(&service, &queries[i], false))
            .collect();
        out.setup_s.push(started.elapsed().as_secs_f64());
        for result in &results {
            out.tally.record(checker.check(result));
        }
        if rep == 0 {
            let stats = service.stats();
            out.counts = pass_counts(&results, stats.artifact_builds, stats.cache_hits);
            one_pass = results;
        }
        warm = Some(service);
    }
    out.setup_stolen = CpuTicks::now().stolen_since(ticks);
    let service = warm.expect("at least one set-up");
    let probes = cfg
        .trace
        .then(|| probe::run(queries, &one_pass, &checker.counterexamples()));
    let step_ns = probes
        .as_ref()
        .map(|p| p.step_ns.clone())
        .unwrap_or_default();

    let mut pass = 0u64;
    let mut halves = Vec::new();
    let window = Instant::now();
    let window_ticks = CpuTicks::now();
    for (traced, length) in phases(cfg) {
        let before = Counters::read(&service.stats(), &in_process_metrics());
        if traced {
            tm_obs::start_sampler();
        }
        let until = Instant::now() + length;
        let mut phase = Phase::new(traced);
        'passes: loop {
            for i in pass_order(cfg.seed, pass, queries.len()) {
                if Instant::now() >= until {
                    break 'passes;
                }
                let started = Instant::now();
                let results = submit_one(&service, &queries[i], traced);
                phase.answered(&results, started.elapsed(), &checker, &step_ns);
            }
            pass += 1;
        }
        if traced {
            tm_obs::stop_sampler();
        }
        let after = Counters::read(&service.stats(), &in_process_metrics());
        halves.push((phase.end(), before, after));
    }
    out.window_s = window.elapsed().as_secs_f64();
    out.window_stolen = CpuTicks::now().stolen_since(window_ticks);
    let stats = service.stats();
    out.pool_size = stats.pool_size;
    out.artifact_peak_bytes = stats.peak_tracked_bytes as u64;
    out.peak_rss_mb = peak_rss_mb("self");
    finish(&mut out, halves, probes, &one_pass);
    Ok(out)
}

/// Folds the phases into the outcome (and the traced run, if any).
fn finish(
    out: &mut Outcome,
    halves: Vec<(Phase, Counters, Counters)>,
    probes: Option<probe::Probes>,
    one_pass: &[QueryResult],
) {
    let mut untraced = LayerTrace::default();
    let mut traced_half = None;
    for (phase, before, after) in halves {
        out.latencies_ms.extend_from_slice(&phase.latencies_ms);
        out.given_latencies_ms
            .extend_from_slice(&phase.given.given_ms);
        out.verdicts += phase.verdicts;
        out.tally.merge(phase.tally);
        if phase.layers.untraced {
            untraced.merge(&phase.layers);
        } else {
            traced_half = Some((phase.layers, before, after));
        }
    }
    if let Some(p) = &probes {
        out.counts
            .push(("probe.tm_states", p.tm_states.values().sum()));
        for (property, states) in &p.spec_states {
            let name = match property {
                tm_lang::SafetyProperty::StrictSerializability => "probe.ss_states",
                tm_lang::SafetyProperty::Opacity => "probe.op_states",
            };
            out.counts.push((name, *states));
        }
        out.counts.push(("probe.run_states", p.run_states));
        out.counts.push(("probe.edges", p.edges));
        out.counts.push(("probe.graph_bytes", p.graph_bytes));
    }
    if let (Some((traced, before, after)), Some(probes)) = (traced_half, probes) {
        out.traced = Some(TracedRun {
            untraced,
            traced,
            before,
            after,
            probes,
            pass_product_states: one_pass
                .iter()
                .filter(|r| matches!(r.spec.property, tm_service::PropertyKind::Safety(_)))
                .map(|r| r.states as u64)
                .sum(),
        });
    }
}

/// Deterministic counts of one single-client pass.
fn pass_counts(results: &[QueryResult], builds: u64, hits: u64) -> Vec<(&'static str, u64)> {
    let states = |safety: bool| {
        results
            .iter()
            .filter(|r| matches!(r.spec.property, tm_service::PropertyKind::Safety(_)) == safety)
            .map(|r| r.states as u64)
            .sum::<u64>()
    };
    vec![
        ("setup_pass.builds", builds),
        ("setup_pass.cache_hits", hits),
        ("setup_pass.product_states", states(true)),
        ("setup_pass.run_states", states(false)),
    ]
}

/// `cold-scale`: every request builds a fresh service and asks it the
/// whole larger-instance roster.
pub fn cold_scale(inputs: &Inputs, cfg: &Config) -> Result<Outcome, String> {
    let checker = Checker::new(&inputs.expected);
    let queries = &inputs.cold_scale;
    let mut out = Outcome {
        clients: 1,
        ..Outcome::default()
    };
    let request = |pass: u64, traced: bool| {
        let batch: Vec<QuerySpec> = pass_order(cfg.seed, pass, queries.len())
            .into_iter()
            .map(|i| queries[i].clone())
            .collect();
        let started = Instant::now();
        let service = Service::new(ServiceConfig::default());
        let results = service.submit_traced(&batch, None, traced);
        let stats = service.stats();
        drop(service);
        (results, started.elapsed(), stats)
    };
    let mut one_pass = Vec::new();
    let ticks = CpuTicks::now();
    for rep in 0..SETUP_REPS {
        let (results, elapsed, stats) = request(SETUP_PASS, false);
        out.setup_s.push(elapsed.as_secs_f64());
        for result in &results {
            out.tally.record(checker.check(result));
        }
        if rep == 0 {
            out.counts = pass_counts(&results, stats.artifact_builds, stats.cache_hits);
            out.counts.push((
                "setup_pass.peak_tracked_bytes",
                stats.peak_tracked_bytes as u64,
            ));
            out.pool_size = stats.pool_size;
            one_pass = results;
        }
    }
    out.setup_stolen = CpuTicks::now().stolen_since(ticks);
    let probes = cfg
        .trace
        .then(|| probe::run(queries, &one_pass, &checker.counterexamples()));
    let step_ns = probes
        .as_ref()
        .map(|p| p.step_ns.clone())
        .unwrap_or_default();

    let mut pass = 0u64;
    let mut halves = Vec::new();
    let window = Instant::now();
    let window_ticks = CpuTicks::now();
    for (traced, length) in phases(cfg) {
        let metrics_before = in_process_metrics();
        if traced {
            tm_obs::start_sampler();
        }
        let until = Instant::now() + length;
        let mut phase = Phase::new(traced);
        let (mut batch_ns, mut store_bytes) = (0, 0);
        while Instant::now() < until {
            let (results, elapsed, stats) = request(pass, traced);
            pass += 1;
            batch_ns += stats.batch_ns;
            store_bytes = stats.store_bytes;
            out.artifact_peak_bytes = out.artifact_peak_bytes.max(stats.peak_tracked_bytes as u64);
            phase.answered(&results, elapsed, &checker, &step_ns);
        }
        if traced {
            tm_obs::stop_sampler();
        }
        // Each request's service starts from zero: its counters are
        // summed per request instead of differenced.
        let before = Counters::read(&Default::default(), &metrics_before);
        let mut after = Counters::read(&Default::default(), &in_process_metrics());
        after.batch_ns = batch_ns;
        after.store_bytes = store_bytes;
        halves.push((phase.end(), before, after));
    }
    out.window_s = window.elapsed().as_secs_f64();
    out.window_stolen = CpuTicks::now().stolen_since(window_ticks);
    out.peak_rss_mb = peak_rss_mb("self");
    finish(&mut out, halves, probes, &one_pass);
    Ok(out)
}

/// A `tm-serve` daemon started by the benchmark; dropped means killed
/// and reaped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(bin: &Path, work: &Path, store: &Path) -> Result<Daemon, String> {
        let port_file = work.join("addr");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--store-dir")
            .arg(store)
            .arg("--mem-budget")
            .arg(CHURN_BUDGET_BYTES.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.trim().parse::<std::net::SocketAddr>().is_ok() {
                    daemon.addr = text.trim().to_owned();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("tm-serve exited at start: {status}"));
            }
            if Instant::now() > deadline {
                return Err("tm-serve did not publish its address".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn get(&self, path: &str) -> Result<String, String> {
        match http_request(&self.addr, "GET", path, None)? {
            (200, body) => Ok(body),
            (status, _) => Err(format!("GET {path}: HTTP {status}")),
        }
    }

    fn counters(&self) -> Result<(Counters, Json), String> {
        let stats = Json::parse(&self.get("/v1/stats")?).map_err(|e| e.to_string())?;
        let metrics = self.get("/metrics")?;
        Ok((Counters::from_json(&stats, &metrics), stats))
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks for a clean shutdown and reaps the process.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = http_request(&self.addr, "POST", "/v1/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("tm-serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!("tm-serve did not shut down ({asked:?})"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One HTTP request carrying one query.
fn post_one(
    addr: &str,
    spec: &QuerySpec,
    traced: bool,
) -> Result<(Vec<QueryResult>, Duration), String> {
    let body = wire::encode_batch_request_traced(std::slice::from_ref(spec), None, traced);
    let started = Instant::now();
    let (status, reply) = http_request(addr, "POST", "/v1/batch", Some(&body))?;
    let elapsed = started.elapsed();
    if !(200..300).contains(&status) {
        return Err(format!("{spec}: HTTP {status}"));
    }
    let (results, _) = wire::decode_results(&reply).map_err(|e| format!("{spec}: {e}"))?;
    if results.len() != 1 {
        return Err(format!("{spec}: {} results for one query", results.len()));
    }
    Ok((results, elapsed))
}

/// One single-client pass over the roster in the set-up order.
fn serial_pass(
    daemon: &Daemon,
    queries: &[QuerySpec],
    seed: u64,
    checker: &Checker,
    tally: &mut Tally,
) -> Vec<QueryResult> {
    let mut all = Vec::new();
    for i in pass_order(seed, SETUP_PASS, queries.len()) {
        match post_one(&daemon.addr, &queries[i], false) {
            Ok((results, _)) => {
                for result in &results {
                    tally.record(checker.check(result));
                }
                all.extend(results);
            }
            Err(error) => {
                tally.attempted += 1;
                tally.fail(error);
            }
        }
    }
    all
}

/// `budget-churn`: two clients over loopback HTTP to a `tm-serve`
/// daemon with a store directory and a tight memory budget.
pub fn budget_churn(inputs: &Inputs, cfg: &Config) -> Result<Outcome, String> {
    let bin = cfg
        .serve_bin
        .as_deref()
        .ok_or("budget-churn needs --serve-bin (the tm-serve daemon)")?;
    let checker = Checker::new(&inputs.expected);
    let queries = &inputs.paper;
    let work = cfg.work_dir.join("budget-churn");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let store = work.join("store");
    let mut out = Outcome {
        clients: CHURN_CLIENTS,
        ..Outcome::default()
    };

    // Fill the store: a cold daemon answers the roster once.
    let daemon = Daemon::start(bin, &work, &store)?;
    let one_pass = serial_pass(&daemon, queries, cfg.seed, &checker, &mut out.tally);
    daemon.shutdown()?;

    // Set-up: boot with a store warm-start, then the warm-up pass.
    let mut live = None;
    let ticks = CpuTicks::now();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let daemon = Daemon::start(bin, &work, &store)?;
        let (before, stats0) = daemon.counters()?;
        serial_pass(&daemon, queries, cfg.seed, &checker, &mut out.tally);
        out.setup_s.push(started.elapsed().as_secs_f64());
        let (after, stats1) = daemon.counters()?;
        if rep == 0 {
            let delta = |key: &str| {
                let read = |s: &Json| s.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                read(&stats1).saturating_sub(read(&stats0))
            };
            out.counts = vec![
                ("warmup_pass.builds", delta("artifact_builds")),
                ("warmup_pass.rebuilds", delta("artifact_rebuilds")),
                ("warmup_pass.cache_hits", delta("cache_hits")),
                ("warmup_pass.evictions", after.evictions - before.evictions),
                ("warmup_pass.promotes", after.promotes - before.promotes),
                ("warmup_pass.demotes", after.demotes - before.demotes),
            ];
            out.pool_size = stats1
                .get("pool_size")
                .and_then(Json::as_usize)
                .unwrap_or(0);
        }
        if rep + 1 < SETUP_REPS {
            daemon.shutdown()?;
        } else {
            live = Some(daemon);
        }
    }
    out.setup_stolen = CpuTicks::now().stolen_since(ticks);
    let daemon = live.expect("at least one set-up");
    let probes = cfg
        .trace
        .then(|| probe::run(queries, &one_pass, &checker.counterexamples()));
    let step_ns = probes
        .as_ref()
        .map(|p| p.step_ns.clone())
        .unwrap_or_default();

    let mut halves = Vec::new();
    let window = Instant::now();
    let window_ticks = CpuTicks::now();
    let mut first_pass = 0u64;
    for (traced, length) in phases(cfg) {
        let (before, _) = daemon.counters()?;
        let until = Instant::now() + length;
        let phase = std::thread::scope(|scope| {
            // The daemon's sampler starts on the first /v1/profile call
            // and keeps running; the call itself sleeps one second.
            let sampler = traced.then(|| scope.spawn(|| daemon.get("/v1/profile?seconds=1")));
            let clients: Vec<_> = (0..CHURN_CLIENTS)
                .map(|client| {
                    let (checker, step_ns, addr) = (&checker, &step_ns, daemon.addr.as_str());
                    scope.spawn(move || {
                        let mut phase = Phase::new(traced);
                        let mut pass = first_pass;
                        'passes: loop {
                            let mut order = pass_order(cfg.seed, pass, queries.len());
                            order.rotate_left(client * queries.len() / CHURN_CLIENTS);
                            for i in order {
                                if Instant::now() >= until {
                                    break 'passes;
                                }
                                match post_one(addr, &queries[i], traced) {
                                    Ok((results, elapsed)) => {
                                        phase.answered(&results, elapsed, checker, step_ns)
                                    }
                                    Err(error) => phase.tally.record(Err(error)),
                                }
                            }
                            pass += 1;
                        }
                        (phase.end(), pass)
                    })
                })
                .collect();
            let mut merged = Phase::new(traced);
            let mut last_pass = first_pass;
            for client in clients {
                let (phase, pass) = client.join().expect("a client thread panicked");
                merged.merge(phase);
                last_pass = last_pass.max(pass);
            }
            if let Some(sampler) = sampler {
                let _ = sampler.join().expect("the sampler call panicked");
            }
            (merged, last_pass)
        });
        let (phase, last_pass) = phase;
        first_pass = last_pass + 1;
        let (after, _) = daemon.counters()?;
        halves.push((phase.end(), before, after));
    }
    out.window_s = window.elapsed().as_secs_f64();
    out.window_stolen = CpuTicks::now().stolen_since(window_ticks);
    let (_, stats) = daemon.counters()?;
    out.artifact_peak_bytes = stats
        .get("peak_tracked_bytes")
        .and_then(Json::as_usize)
        .unwrap_or(0) as u64;
    out.peak_rss_mb = daemon.peak_rss_mb();
    daemon.shutdown()?;
    finish(&mut out, halves, probes, &one_pass);
    Ok(out)
}
