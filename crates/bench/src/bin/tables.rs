//! Regenerates every table of the paper in one run, printing measured
//! numbers next to the paper's. Used to fill EXPERIMENTS.md.
//!
//! ```bash
//! cargo run --release -p tm-bench --bin tables
//! ```
//!
//! All verdict-producing sections run through [`tm_checker::Verifier`]
//! sessions — one per instance size — so every compiled artifact (the
//! deterministic specifications of Table 2, the run graph of each
//! Table 3 TM) is **built exactly once per (n, k)**; the binary asserts
//! this on the sessions' build counters. Verdicts, counterexamples, and
//! lassos are identical to the one-shot entry points.
//!
//! Environment gates:
//!
//! * `TM_BENCH_LIVENESS_ONLY=1` — regenerate only the liveness sections
//!   (and `BENCH_liveness.json`); the safety tables and inclusion benches
//!   dominate a full run.
//! * `TM_BENCH_SMOKE=1` — CI mode: the paper tables and the build-once
//!   assertions only; no A/B measurements, no `BENCH_*.json` rewrites.
//! * `TM_BENCH_SERVICE_ONLY=1` — regenerate only the tm-service batch
//!   baseline (`BENCH_service.json`).
//!
//! Perf trajectory (`TM_BENCH_TREND`): every `BENCH_*.json` carries a
//! `history` array of timestamped headline records (host cpus, the
//! section's headline numbers); a regeneration parses the previous file
//! and carries its last [`TREND_HISTORY_KEEP`] records over.
//! `TM_BENCH_TREND=record` appends this run's record;
//! `TM_BENCH_TREND=check` appends **and** compares it against the
//! previous record, exiting nonzero when a headline metric is worse by
//! more than `TM_BENCH_TREND_TOLERANCE` (a fraction; default
//! [`DEFAULT_TREND_TOLERANCE`] — generous, because CI records and
//! checks across unrelated 1-cpu hosts). Unset, the run rewrites the
//! measurement sections but leaves `history` untouched.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use tm_algorithms::{MostGeneralSource, TmAlgorithm, TwoPhaseTm};
use tm_automata::{check_inclusion_otf, Dfa, QueryBudget, SpecCache};
use tm_bench::validation::{check_equivalence_antichain, determinize, minimize, NondetSpec};
use tm_bench::{
    liveness_property_tag, liveness_roster, table2_cases, table2_roster, table3_check_session,
    table3_names, MAX_STATES,
};
use tm_checker::{Artifact, ArtifactKey, Outcome, Table, Verifier};
use tm_lang::{LivenessProperty, SafetyProperty, Statement};
use tm_service::wire::{encode_phases, JsonError};
use tm_service::Json;
use tm_spec::{spec_alphabet, DetSpec, QuotientSpec};

fn env_flag(name: &str) -> bool {
    std::env::var(name).as_deref() == Ok("1")
}

/// Default `TM_BENCH_TREND_TOLERANCE`: a metric may be up to 150% worse
/// than the previous history record before `check` mode fails. Wide on
/// purpose — the committed baseline and the CI checker are unrelated
/// hosts — while still catching order-of-magnitude regressions.
const DEFAULT_TREND_TOLERANCE: f64 = 1.5;

/// How many previous history records a regeneration keeps (plus the one
/// it may append), so the trajectory files stay reviewable.
const TREND_HISTORY_KEEP: usize = 30;

/// Set once any `check`-mode comparison regresses; `main` turns it into
/// a nonzero exit after every requested section has reported.
static TREND_REGRESSED: AtomicBool = AtomicBool::new(false);

#[derive(Clone, Copy, PartialEq)]
enum TrendMode {
    Off,
    Record,
    Check,
}

fn trend_mode() -> TrendMode {
    match std::env::var("TM_BENCH_TREND").as_deref() {
        Ok("record") => TrendMode::Record,
        Ok("check") => TrendMode::Check,
        _ => TrendMode::Off,
    }
}

/// A headline number of one bench section, trended across runs.
struct Metric {
    name: &'static str,
    value: f64,
    /// Direction: wall-clock metrics regress upward, throughput
    /// metrics regress downward.
    lower_is_better: bool,
}

impl Metric {
    fn nanos(name: &'static str, d: Duration) -> Metric {
        Metric { name, value: d.as_nanos() as f64, lower_is_better: true }
    }

    fn rate(name: &'static str, value: f64) -> Metric {
        Metric { name, value: round_to(value, 3), lower_is_better: false }
    }
}

/// The members of a JSON object, in writing order.
type Members = Vec<(String, Json)>;

/// Object members from `(key, value)` pairs.
fn members_of<const N: usize>(members: [(&str, Json); N]) -> Members {
    members.map(|(key, value)| (key.to_owned(), value)).into()
}

/// A JSON object from `(key, value)` pairs.
fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members_of(members))
}

/// A count.
fn int(n: impl TryInto<u64>) -> Json {
    Json::Num(n.try_into().unwrap_or(u64::MAX) as f64)
}

/// A wall time in nanoseconds.
fn ns(d: Duration) -> Json {
    Json::Num(d.as_nanos() as f64)
}

/// A string.
fn text(s: &str) -> Json {
    Json::Str(s.to_owned())
}

/// `x` rounded to `places` decimals.
fn round_to(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// A ratio, written to `places` decimals.
fn ratio(x: f64, places: i32) -> Json {
    Json::Num(round_to(x, places))
}

fn exit_if_regressed() {
    if TREND_REGRESSED.load(Ordering::Relaxed) {
        eprintln!("TM_BENCH_TREND=check: headline metrics regressed beyond tolerance");
        std::process::exit(1);
    }
}

fn main() {
    let liveness_only = env_flag("TM_BENCH_LIVENESS_ONLY");
    let smoke = env_flag("TM_BENCH_SMOKE");
    if env_flag("TM_BENCH_SERVICE_ONLY") {
        bench_service();
        exit_if_regressed();
        return;
    }
    if !liveness_only {
        table1();
        // The full deterministic specifications at (2, 2): Theorem 3
        // checks them, and Table 2 quotes their sizes.
        let specs: Vec<(SafetyProperty, Dfa<Statement>)> = SafetyProperty::all()
            .into_iter()
            .map(|property| (property, DetSpec::new(property, 2, 2).to_dfa(MAX_STATES).0))
            .collect();
        table2(&specs);
        theorem3(&specs);
        if !smoke {
            let (scaling, lazy_total) = bench_otf_scaling();
            let phases = bench_safety_phases();
            write_bench_json(
                scaling,
                phases,
                &[Metric::nanos("scaling_lazy_total_ns", lazy_total)],
            );
        }
    }

    // Liveness: everything below shares one session per (n, k), so each
    // TM's run graph is compiled exactly once per instance size.
    let mut session21 = Verifier::new(2, 1);
    table3(&mut session21);
    assert_eq!(
        session21.builds(),
        4,
        "Table 3 must build each of its four run graphs exactly once"
    );
    if smoke {
        // CI smoke: pin the build-once contract on the full roster at the
        // next instance size, then stop (no JSON rewrites).
        let _ = bench_liveness_session(&[(3, 1)]);
        println!("smoke mode: A/B benches and BENCH json regeneration skipped");
        return;
    }
    let (liveness_cases, liveness_speedup, liveness_phases, liveness_total) =
        bench_liveness_baseline(&mut session21);
    assert_eq!(
        session21.builds(),
        12,
        "the (2,1) session must build each roster run graph exactly once"
    );
    let session_rows = bench_liveness_session(&[(3, 1), (2, 2), (3, 2)]);
    write_liveness_json(
        liveness_cases,
        liveness_speedup,
        session_rows,
        liveness_phases,
        &[
            Metric::nanos("session_total_ns", liveness_total),
            Metric::rate("overall_speedup", liveness_speedup),
        ],
    );
    if !liveness_only {
        bench_service();
    }
    exit_if_regressed();
}

fn table1() {
    // Table 1 rows are reproduced programmatically (and asserted) in
    // `examples/table1_runs.rs` / `tests/table1_and_figures.rs`; here we
    // only point at them to keep this binary focused on measurements.
    println!("Table 1: see `cargo run --release --example table1_runs`\n");
}

/// Table 2 through one default (2, 2) session: each property's
/// specification is interned lazily once, shared by all five TMs. The
/// header quotes the full specification size from `specs` (the paper's
/// figure) next to the normal-form keys the session touched
/// (`tm_spec::QuotientSpec`). The "states" column
/// still comes from the materialized most-general NFAs (the paper's full
/// "Size" figure — the on-the-fly check would stop early on the
/// violating TM).
fn table2(specs: &[(SafetyProperty, Dfa<Statement>)]) {
    let mut verifier = Verifier::new(2, 2).max_states(MAX_STATES);
    let cases = table2_cases();
    let roster = table2_roster();
    for (property, spec) in specs {
        let property = *property;
        let mut rows = Vec::new();
        let mut touched = 0;
        for (case, (name, nfa, paper_states)) in cases.iter().zip(&roster) {
            let verdict = case.check_session(&mut verifier, property);
            let check_time = verdict.stats.search_time;
            touched = verdict.stats.spec_states;
            let (verdict, cx) = match verdict.outcome {
                Outcome::Verified => ("Y".to_owned(), String::new()),
                Outcome::Counterexample(w) => ("N".to_owned(), w.to_string()),
                other => panic!("{name} {property}: {other:?}"),
            };
            rows.push([
                name.clone(),
                nfa.num_states().to_string(),
                paper_states.to_string(),
                verdict,
                format!("{check_time:.2?}"),
                cx,
            ]);
        }
        let mut table = Table::new(
            format!(
                "Table 2 — L(A) ⊆ L(Σᵈ_{}) (spec: {} states, {} keys touched)",
                property.short_name(),
                spec.num_states(),
                touched
            ),
            ["TM", "states", "paper", "verdict", "time", "counterexample"],
        );
        for row in rows {
            table.push_row(row);
        }
        println!("{table}");
    }
    assert_eq!(
        verifier.builds(),
        SafetyProperty::all().len(),
        "Table 2 must build each specification exactly once"
    );
}

/// Theorem 3 through the validation toolkit (`tm_bench::validation`):
/// the antichain equivalence of each nondeterministic specification with
/// the deterministic one, next to the size of the minimized subset
/// automaton. The "time" column is the equivalence check; the line under
/// the table is the whole section.
fn theorem3(specs: &[(SafetyProperty, Dfa<Statement>)]) {
    let section = Instant::now();
    let mut table = Table::new(
        "Theorem 3 — L(Σ) = L(Σᵈ) via antichains (2 threads, 2 variables)",
        [
            "property",
            "nondet states",
            "paper",
            "det states",
            "paper",
            "minimized",
            "equivalent",
            "time",
        ],
    );
    for (property, det) in specs {
        let nondet = NondetSpec::new(*property, 2, 2).to_nfa(MAX_STATES);
        let minimized = minimize(&determinize(&nondet.nfa, spec_alphabet(2, 2)));
        let start = Instant::now();
        let verdict = check_equivalence_antichain(&nondet.nfa, &det.to_nfa());
        let elapsed = start.elapsed();
        let (paper_nd, paper_d) = match property {
            SafetyProperty::StrictSerializability => ("12345", "3520"),
            SafetyProperty::Opacity => ("9202", "2272"),
        };
        table.push_row([
            property.short_name().to_owned(),
            nondet.num_states().to_string(),
            paper_nd.to_owned(),
            det.num_states().to_string(),
            paper_d.to_owned(),
            minimized.num_states().to_string(),
            verdict.holds().to_string(),
            format!("{elapsed:.2?}"),
        ]);
    }
    println!("{table}");
    println!(
        "Theorem 3 section (nondet specs, subset construction, minimization, equivalence): {:.2?}\n",
        section.elapsed()
    );
}

/// Table 3 through the shared (2, 1) session: each TM's run graph is
/// compiled on its OF query and answers LF and WF from cache.
fn table3(verifier: &mut Verifier) {
    let mut table = Table::new(
        "Table 3 — liveness model checking (2 threads, 1 variable)",
        ["TM algorithm", "OF", "LF", "WF", "loop (OF or LF counterexample)"],
    );
    for name in table3_names() {
        let of = table3_check_session(verifier, name, LivenessProperty::ObstructionFreedom);
        let lf = table3_check_session(verifier, name, LivenessProperty::LivelockFreedom);
        let wf = table3_check_session(verifier, name, LivenessProperty::WaitFreedom);
        let lasso = of
            .lasso()
            .or(lf.lasso())
            .map(|l| l.cycle_notation())
            .unwrap_or_default();
        table.push_row([
            name.to_owned(),
            yn(of.holds()),
            yn(lf.holds()),
            yn(wf.holds()),
            lasso,
        ]);
    }
    println!("{table}");
    println!("paper: seq N/N, 2PL N/N, dstm+aggressive Y/N, TL2+polite N/N; WF all N");
}

fn yn(b: bool) -> String {
    if b { "Y".to_owned() } else { "N".to_owned() }
}

/// Best-of-`runs` wall-clock time of `f`.
fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .min()
        .expect("runs > 0")
}

/// Scaling rows for the on-the-fly product engine: 2PL (and DSTM where
/// the product stays tractable) against π_ss at (2,2) → (4,2), both
/// sides explored lazily, over the specification system the session
/// uses (`QuotientSpec`). Eagerly determinizing the (3,3)/(4,2)
/// specifications does not terminate in reasonable time, which is
/// exactly the point of on-the-fly exploration.
fn bench_otf_scaling() -> (Vec<Json>, Duration) {
    let mut rows = Vec::new();
    let mut lazy_total = Duration::ZERO;
    let mut table = Table::new(
        "Scaling — on-the-fly product engine, π_ss",
        ["TM", "(n,k)", "product", "TM states", "lazy"],
    );
    // (n, k, heavy → single timed run)
    for (n, k, heavy) in [
        (2usize, 2usize, false),
        (3, 2, true),
        (3, 3, true),
        (4, 2, true),
    ] {
        let spec = QuotientSpec::new(SafetyProperty::StrictSerializability, n, k);
        let letters = spec_alphabet(n, k);
        let alphabet = tm_automata::Alphabet::from_letters(&letters);
        let runs = if heavy { 1 } else { 3 };

        let mut measure = |tm: &dyn ErasedTm, name: &str| {
            let (lazy, product, impl_states) = tm.time_lazy(&alphabet, &spec, &letters, runs);
            lazy_total += lazy;
            table.push_row([
                name.to_owned(),
                format!("({n},{k})"),
                product.to_string(),
                impl_states.to_string(),
                format!("{lazy:.2?}"),
            ]);
            rows.push(obj([
                ("tm", text(name)),
                ("property", text("ss")),
                ("threads", int(n)),
                ("vars", int(k)),
                ("product_states", int(product)),
                ("impl_states", int(impl_states)),
                ("lazy_ns", ns(lazy)),
            ]));
        };

        measure(&TwoPhaseTm::new(n, k), "2PL");
        if (n, k) == (2, 2) || (n, k) == (3, 2) {
            measure(&tm_algorithms::DstmTm::new(n, k), "dstm");
        }
    }
    println!("{table}");
    (rows, lazy_total)
}

/// Object-safe timing shim over concrete TM types.
trait ErasedTm {
    /// Best-of-`runs` lazy (both sides on the fly, fresh spec cache per
    /// run) check; returns the wall time plus product/impl state counts.
    fn time_lazy(
        &self,
        alphabet: &tm_automata::Alphabet<Statement>,
        spec: &QuotientSpec,
        letters: &[Statement],
        runs: usize,
    ) -> (Duration, usize, usize);
}

impl<A: TmAlgorithm> ErasedTm for A {
    fn time_lazy(
        &self,
        alphabet: &tm_automata::Alphabet<Statement>,
        spec: &QuotientSpec,
        letters: &[Statement],
        runs: usize,
    ) -> (Duration, usize, usize) {
        let source = MostGeneralSource::new(self, alphabet.clone());
        let mut counts = (0, 0);
        let best = best_of(runs.max(1), || {
            let mut cache = SpecCache::new(spec, letters.to_vec());
            let (result, stats) =
                check_inclusion_otf(&source, &mut cache, &QueryBudget::unlimited())
                    .expect("bench query within bounds");
            counts = (result.product_states(), stats.impl_states);
        });
        (best, counts.0, counts.1)
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a `history` record holds, written next to it as `history_unit`.
const HISTORY_UNIT: &str = "perf trajectory: one record per TM_BENCH_TREND=record|check run, \
    oldest first, last 30 kept across regenerations; metrics are this file's headline numbers, \
    compared against the latest record by TM_BENCH_TREND=check under TM_BENCH_TREND_TOLERANCE \
    (suffix _ns: lower is better; rates: higher is better)";

/// The `history` records of the `BENCH_*.json` at `path` (none if there
/// is no such file).
fn previous_history(path: &Path) -> Result<Vec<Json>, JsonError> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    let doc = Json::parse(&text)?;
    Ok(doc.get("history").and_then(Json::as_arr).map_or_else(Vec::new, <[Json]>::to_vec))
}

/// One history record: when the run happened, where, and the section's
/// headline numbers.
fn trend_record(metrics: &[Metric]) -> Json {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let values = metrics
        .iter()
        .map(|m| (m.name.to_owned(), Json::Num(m.value)))
        .collect();
    obj([
        ("recorded_at_unix", int(now)),
        ("host_cpus", int(host_cpus())),
        ("metrics", Json::Obj(values)),
    ])
}

/// `check` mode: each headline metric may be worse than the previous
/// record's by at most `TM_BENCH_TREND_TOLERANCE` (a fraction of the
/// old value); anything beyond flags the run for a nonzero exit.
fn check_trend(path: &Path, previous: Option<&Json>, metrics: &[Metric]) {
    let path = path.display();
    let tolerance = std::env::var("TM_BENCH_TREND_TOLERANCE")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(DEFAULT_TREND_TOLERANCE);
    let Some(record) = previous else {
        println!("{path}: no history record to check against (run TM_BENCH_TREND=record first)");
        return;
    };
    for metric in metrics {
        let Some(old) = record
            .get("metrics")
            .and_then(|m| m.get(metric.name))
            .and_then(Json::as_f64)
            .filter(|old| *old > 0.0)
        else {
            println!("{path}: no previous {} to check against", metric.name);
            continue;
        };
        let worse = if metric.lower_is_better {
            metric.value / old
        } else {
            old / metric.value
        };
        if worse > 1.0 + tolerance {
            eprintln!(
                "{path}: {} regressed to {worse:.2}x of the previous record, beyond the \
                 {:.0}% tolerance (was {old:.0}, now {:.0})",
                metric.name,
                tolerance * 100.0,
                metric.value
            );
            TREND_REGRESSED.store(true, Ordering::Relaxed);
        } else {
            println!(
                "{path}: {} ok at {worse:.2}x of the previous record (tolerance {:.0}%)",
                metric.name,
                tolerance * 100.0
            );
        }
    }
}

/// Writes a regenerated `BENCH_*.json`: `members`, then the perf
/// trajectory carried over from the file at `path` (see the module docs
/// for the `TM_BENCH_TREND` modes).
fn write_with_history(path: &Path, mut members: Members, metrics: &[Metric], mode: TrendMode) {
    let mut records = previous_history(path).unwrap_or_else(|error| {
        eprintln!("{}: previous history unreadable ({error})", path.display());
        // `check` cannot pass without the record it compares against.
        if mode == TrendMode::Check {
            TREND_REGRESSED.store(true, Ordering::Relaxed);
        }
        Vec::new()
    });
    if records.len() > TREND_HISTORY_KEEP {
        records.drain(..records.len() - TREND_HISTORY_KEEP);
    }
    if mode == TrendMode::Check {
        check_trend(path, records.last(), metrics);
    }
    if mode != TrendMode::Off {
        records.push(trend_record(metrics));
    }
    members.push(("history_unit".to_owned(), text(HISTORY_UNIT)));
    members.push(("history".to_owned(), Json::Arr(records)));
    match std::fs::write(path, render(&members)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// A document with one member per line and, in a non-empty array
/// member, one element per line; every other value is written compact.
fn render(members: &[(String, Json)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        out.push_str(&Json::Str(key.clone()).to_string());
        out.push_str(": ");
        match value {
            Json::Arr(items) if !items.is_empty() => {
                for (j, item) in items.iter().enumerate() {
                    out.push_str(if j == 0 { "[\n    " } else { ",\n    " });
                    out.push_str(&item.to_string());
                }
                out.push_str("\n  ]");
            }
            _ => out.push_str(&value.to_string()),
        }
    }
    out.push_str("\n}\n");
    out
}

/// Per-query engine-phase breakdown of the Table 2 safety roster at
/// (2, 2) — where each query spends its time (spec interning, BFS
/// levels), from a `tm_obs` recorder around each query of a fresh
/// session. The `phases` section of `BENCH_inclusion.json`.
fn bench_safety_phases() -> Vec<Json> {
    let mut rows = Vec::new();
    let mut verifier = Verifier::new(2, 2).max_states(MAX_STATES);
    let cases = table2_cases();
    let roster = table2_roster();
    for property in SafetyProperty::all() {
        for (case, (name, _, _)) in cases.iter().zip(&roster) {
            let (verdict, record) =
                tm_obs::with_recorder(false, || case.check_session(&mut verifier, property));
            rows.push(obj([
                ("tm", text(name)),
                ("property", text(property.short_name())),
                ("cached_spec", Json::Bool(verdict.stats.artifact_cached)),
                ("phase_ns", encode_phases(&record.phase_ns)),
            ]));
        }
    }
    rows
}

/// The (2, 1) liveness A/B, restructured around the session: the seed
/// reference checker (one-shot: explore + cloned filtered subgraphs) vs
/// a query against the session's cached compiled run graph (search only;
/// the one-time graph build is recorded per TM alongside). The rows
/// become the `cases` section of `BENCH_liveness.json`; the per-query
/// phase breakdowns (from a `tm_obs` recorder around the last measured
/// query) its `phases` section.
fn bench_liveness_baseline(verifier: &mut Verifier) -> (Vec<Json>, f64, Vec<Json>, Duration) {
    let mut cases = Vec::new();
    let mut phases = Vec::new();
    let mut table = Table::new(
        "Liveness A/B — seed one-shot (cloned subgraphs) vs session query (cached CSR), (2,1), best of 3",
        ["TM", "property", "verdict", "states", "reference", "session", "graph build", "speedup"],
    );
    let (mut total_reference, mut total_session) = (Duration::ZERO, Duration::ZERO);
    let mut total_builds = Duration::ZERO;
    for case in liveness_roster(2, 1) {
        // Prime the session (builds the graph unless an earlier section
        // already did), so the timed queries measure pure search.
        let _ = case.check_session(verifier, LivenessProperty::ObstructionFreedom);
        let build = verifier
            .artifact(&ArtifactKey::run_graph(case.name.as_str(), 2, 1))
            .map(Artifact::build_time)
            .expect("graph cached by the priming query");
        // Count every graph's one-time build — including the four that
        // Table 3 already paid — so the aggregate speedup is honest.
        total_builds += build;
        for property in LivenessProperty::all() {
            let mut measured = None;
            let session = best_of(3, || {
                measured = Some(tm_obs::with_recorder(false, || {
                    case.check_session(verifier, property)
                }));
            });
            let reference = best_of(3, || case.check_reference(property));
            let (verdict, record) = measured.expect("measured at least once");
            let states = verdict.stats.states_explored;
            total_reference += reference;
            total_session += session;
            let speedup = reference.as_secs_f64() / session.as_secs_f64();
            table.push_row([
                case.name.clone(),
                liveness_property_tag(property).to_owned(),
                yn(verdict.holds()),
                states.to_string(),
                format!("{reference:.2?}"),
                format!("{session:.2?}"),
                format!("{build:.2?}"),
                format!("{speedup:.2}x"),
            ]);
            cases.push(obj([
                ("tm", text(&case.name)),
                ("property", text(liveness_property_tag(property))),
                ("tm_states", int(states)),
                ("holds", Json::Bool(verdict.holds())),
                ("reference_ns", ns(reference)),
                ("session_ns", ns(session)),
                ("graph_build_ns", ns(build)),
                ("speedup", ratio(speedup, 3)),
            ]));
            phases.push(obj([
                ("tm", text(&case.name)),
                ("property", text(liveness_property_tag(property))),
                ("phase_ns", encode_phases(&record.phase_ns)),
            ]));
        }
    }
    println!("{table}");
    // Overall: what the full roster costs the session (all builds, paid
    // once each, plus every search) against the one-shot reference.
    let session_total = total_session + total_builds;
    let overall = total_reference.as_secs_f64() / session_total.as_secs_f64();
    println!("overall (2,1) session speedup (builds amortized): {overall:.2}x\n");
    (cases, overall, phases, session_total)
}

/// The build-once-answer-three section: the full TM × manager roster at
/// each size, one session per size — each TM pays one graph build and
/// three property searches. `oneshot_est_ns` is what three one-shot
/// checks would pay (three builds); the `speedup_est` column is the
/// session's wall-clock cut.
fn bench_liveness_session(sizes: &[(usize, usize)]) -> Vec<Json> {
    let mut rows = Vec::new();
    let mut table = Table::new(
        "Liveness sessions — build once, answer OF+LF+WF",
        [
            "TM", "(n,k)", "verdicts", "states", "build", "searches", "session", "vs one-shot",
        ],
    );
    for &(n, k) in sizes {
        let mut verifier = Verifier::new(n, k);
        let roster = liveness_roster(n, k);
        let roster_len = roster.len();
        for case in roster {
            let mut searches = Duration::ZERO;
            let mut search_ns = Vec::new();
            let mut verdicts = Vec::new();
            let mut states = 0;
            for property in LivenessProperty::all() {
                let verdict = case.check_session(&mut verifier, property);
                searches += verdict.stats.search_time;
                states = verdict.stats.states_explored;
                search_ns.push(ns(verdict.stats.search_time));
                verdicts.push(yn(verdict.holds()));
            }
            let build = verifier
                .artifact(&ArtifactKey::run_graph(case.name.as_str(), n, k))
                .map(Artifact::build_time)
                .expect("graph cached by the first query");
            let session = build + searches;
            let oneshot_est = build * 3 + searches;
            let speedup = oneshot_est.as_secs_f64() / session.as_secs_f64();
            table.push_row([
                case.name.clone(),
                format!("({n},{k})"),
                verdicts.join("/"),
                states.to_string(),
                format!("{build:.2?}"),
                format!("{searches:.2?}"),
                format!("{session:.2?}"),
                format!("{speedup:.2}x"),
            ]);
            let [of_ns, lf_ns, wf_ns]: [Json; 3] =
                search_ns.try_into().expect("one search per liveness property");
            rows.push(obj([
                ("tm", text(&case.name)),
                ("threads", int(n)),
                ("vars", int(k)),
                ("tm_states", int(states)),
                ("verdicts", text(&verdicts.join("/"))),
                ("graph_build_ns", ns(build)),
                ("of_search_ns", of_ns),
                ("lf_search_ns", lf_ns),
                ("wf_search_ns", wf_ns),
                ("session_ns", ns(session)),
                ("oneshot_est_ns", ns(oneshot_est)),
                ("speedup_est", ratio(speedup, 3)),
            ]));
        }
        assert_eq!(
            verifier.builds(),
            roster_len,
            "the ({n},{k}) session must build each roster run graph exactly once"
        );
    }
    println!("{table}");
    rows
}

/// The tm-service batch baseline: the full Table 2 + Table 3 roster
/// (22 queries) submitted twice — cold (every artifact builds) and warm
/// (cache hits, or rebuilds under eviction) — at an **unbounded** budget
/// and at a **tight** one (the largest artifact plus a quarter of the
/// rest: smaller than the artifact total, so the roster cannot be
/// answered without evicting). Verdicts are asserted identical across
/// budgets; throughput, hit/rebuild rates, evictions, and the peak
/// tracked bytes become `BENCH_service.json`. A persistence pass runs
/// the roster through the content-addressed artifact store: cold
/// write-through, a restarted warm-started service (zero builds), and
/// promote-instead-of-rebuild under the tight budget.
fn bench_service() {
    use tm_service::{table2_batch, table3_batch, Service, ServiceConfig};

    let mut batch = table3_batch();
    batch.extend(table2_batch());
    let config = |mem_budget| ServiceConfig {
        mem_budget,
        max_states: MAX_STATES,
        ..ServiceConfig::default()
    };

    // Unbounded pass: ground-truth verdicts and the artifact ledger the
    // tight budget is derived from.
    let unbounded = Service::new(config(None));
    let start = Instant::now();
    let reference = unbounded.submit(&batch);
    let unbounded_cold = start.elapsed();
    let start = Instant::now();
    let _ = unbounded.submit(&batch);
    let unbounded_warm = start.elapsed();
    let ledger = unbounded.ledger();
    let total: usize = ledger.iter().map(|(_, bytes)| bytes).sum();
    let largest: usize = ledger.iter().map(|(_, bytes)| *bytes).max().unwrap_or(0);
    let tight = largest + (total - largest) / 4;
    assert!(tight < total, "the tight budget must force eviction");

    let budgeted = Service::new(config(Some(tight)));
    let start = Instant::now();
    let cold_results = budgeted.submit(&batch);
    let tight_cold = start.elapsed();
    let start = Instant::now();
    let warm_results = budgeted.submit(&batch);
    let tight_warm = start.elapsed();
    let stats = budgeted.stats();
    assert!(
        stats.peak_tracked_bytes <= tight,
        "peak {} exceeds the {tight}-byte budget",
        stats.peak_tracked_bytes
    );
    for (run, name) in [(&cold_results, "cold"), (&warm_results, "warm")] {
        for (a, b) in run.iter().zip(&reference) {
            assert_eq!(
                (a.holds, &a.outcome),
                (b.holds, &b.outcome),
                "budgeted {name} verdict must match unbounded: {}",
                a.spec
            );
        }
    }

    let qps = |d: Duration| batch.len() as f64 / d.as_secs_f64();
    let mut table = Table::new(
        format!(
            "Service batches — Table 2 + Table 3 roster ({} queries, \
             artifacts total {total} B, largest {largest} B)",
            batch.len()
        ),
        ["budget", "cold", "warm", "cold q/s", "builds", "rebuilds", "evictions", "peak B"],
    );
    let mut rows = Vec::new();
    for (budget, cold, warm, stats) in [
        (None, unbounded_cold, unbounded_warm, unbounded.stats()),
        (Some(tight), tight_cold, tight_warm, stats),
    ] {
        table.push_row([
            budget.map_or("unbounded".to_owned(), |b: usize| format!("{b} B")),
            format!("{cold:.2?}"),
            format!("{warm:.2?}"),
            format!("{:.1}", qps(cold)),
            stats.artifact_builds.to_string(),
            stats.artifact_rebuilds.to_string(),
            stats.evictions.to_string(),
            stats.peak_tracked_bytes.to_string(),
        ]);
        rows.push(obj([
            ("budget_bytes", budget.map_or(Json::Null, int)),
            ("cold_ns", ns(cold)),
            ("warm_ns", ns(warm)),
            ("cold_qps", ratio(qps(cold), 3)),
            ("warm_qps", ratio(qps(warm), 3)),
            ("artifact_builds", int(stats.artifact_builds)),
            ("artifact_rebuilds", int(stats.artifact_rebuilds)),
            ("cache_hits", int(stats.cache_hits)),
            ("evictions", int(stats.evictions)),
            ("peak_tracked_bytes", int(stats.peak_tracked_bytes)),
            ("tracked_bytes", int(stats.tracked_bytes)),
        ]));
    }
    println!("{table}");

    // Profiler overhead: the same warm roster (unbounded budget, every
    // artifact cached) with and without the ~97 Hz sampling profiler.
    // Phase timers always run, so their frame push/pop is paid by both
    // sides; the sampler adds one reader thread, which must stay within
    // a 5% envelope.
    let obs_service = Service::new(config(None));
    let _ = obs_service.submit(&batch);
    let sampler_off = best_of(5, || obs_service.submit(&batch));
    tm_obs::start_sampler();
    let sampler_on = best_of(5, || obs_service.submit(&batch));
    tm_obs::stop_sampler();
    let profiler_overhead = sampler_on.as_secs_f64() / sampler_off.as_secs_f64() - 1.0;
    println!(
        "Profiler — warm roster best of 5: sampler off {sampler_off:.2?}, running \
         {sampler_on:.2?} ({:+.1}% overhead, target ≤ 5%)\n",
        profiler_overhead * 100.0
    );

    // Concurrency: the same fixed amount of warm work — 8 batch
    // submissions of the roster — pushed through one shared service by
    // 1 vs 4 in-flight submitters (the `&self` API: no global service
    // mutex, per-session locking, pinned artifacts). On a single-core
    // host the two rates are expected to tie; on multi-core hosts the
    // multi-inflight rate should not be below the single-inflight one.
    let concurrent = std::sync::Arc::new(Service::new(config(None)));
    let warm_reference = concurrent.submit(&batch);
    const TOTAL_BATCHES: usize = 8;
    let mut conc_table = Table::new(
        format!(
            "Service concurrency — {TOTAL_BATCHES} warm batch submissions of the roster, \
             shared service"
        ),
        ["inflight", "elapsed", "q/s"],
    );
    let mut conc_rows = Vec::new();
    let mut conc4_qps = 0.0;
    for inflight in [1usize, 4] {
        let per_thread = TOTAL_BATCHES / inflight;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..inflight {
                let service = std::sync::Arc::clone(&concurrent);
                let (batch, reference) = (&batch, &warm_reference);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        let results = service.submit(batch);
                        for (a, b) in results.iter().zip(reference) {
                            assert_eq!(
                                (a.holds, &a.outcome),
                                (b.holds, &b.outcome),
                                "concurrent verdict must match warm reference: {}",
                                a.spec
                            );
                        }
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        let queries = (TOTAL_BATCHES * batch.len()) as f64;
        let conc_qps = queries / elapsed.as_secs_f64();
        if inflight == 4 {
            conc4_qps = conc_qps;
        }
        conc_table.push_row([
            inflight.to_string(),
            format!("{elapsed:.2?}"),
            format!("{conc_qps:.1}"),
        ]);
        conc_rows.push(obj([
            ("inflight", int(inflight)),
            ("batches", int(TOTAL_BATCHES)),
            ("elapsed_ns", ns(elapsed)),
            ("qps", ratio(conc_qps, 3)),
        ]));
    }
    println!("{conc_table}");

    // Persistence: the same roster through the content-addressed
    // artifact store. A cold service write-throughs every build; a
    // "restarted daemon" warm-starts over the same directory and must
    // answer with zero builds; a tight-budget service over its own
    // directory demotes evictions to disk and, on re-submission,
    // promotes them back instead of rebuilding (compare its warm pass
    // against the storeless tight budget's rebuild-based one above).
    let store_dir = std::env::temp_dir().join(format!("tm-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_config = |mem_budget, dir: &std::path::Path| ServiceConfig {
        mem_budget,
        max_states: MAX_STATES,
        store_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    };
    let cold_store = Service::try_new(store_config(None, &store_dir)).expect("store opens");
    let start = Instant::now();
    let cold_store_results = cold_store.submit(&batch);
    let store_cold = start.elapsed();
    let cold_store_stats = cold_store.stats();
    drop(cold_store);

    let start = Instant::now();
    let warm_store = Service::try_new(store_config(None, &store_dir)).expect("store opens");
    let warm_boot = start.elapsed();
    let start = Instant::now();
    let warm_store_results = warm_store.submit(&batch);
    let store_warm = start.elapsed();
    let warm_store_stats = warm_store.stats();
    assert_eq!(
        warm_store_stats.artifact_builds, 0,
        "a warm-started service answers the roster with zero builds"
    );

    let demote_dir =
        std::env::temp_dir().join(format!("tm-bench-store-demote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&demote_dir);
    let demote_service =
        Service::try_new(store_config(Some(tight), &demote_dir)).expect("store opens");
    let _ = demote_service.submit(&batch);
    let start = Instant::now();
    let promote_results = demote_service.submit(&batch);
    let promote_warm = start.elapsed();
    let demote_stats = demote_service.stats();
    assert_eq!(
        demote_stats.artifact_rebuilds, 0,
        "with a store, every would-be rebuild is a promote"
    );
    assert!(demote_stats.store_promotes > 0, "the tight budget must promote");
    for (run, name) in [
        (&cold_store_results, "store cold"),
        (&warm_store_results, "store warm"),
        (&promote_results, "store promote"),
    ] {
        for (a, b) in run.iter().zip(&reference) {
            assert_eq!(
                (a.holds, &a.outcome),
                (b.holds, &b.outcome),
                "{name} verdict must match unbounded: {}",
                a.spec
            );
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&demote_dir);

    let mut store_table = Table::new(
        format!(
            "Service persistence — same roster through the artifact store \
             ({} B on disk, {} files)",
            warm_store_stats.store_bytes, warm_store_stats.store_files
        ),
        ["pass", "elapsed", "builds", "saves", "hits", "promotes", "demotes"],
    );
    for (pass, elapsed, stats) in [
        ("cold + write-through", store_cold, &cold_store_stats),
        ("warm-started batch", store_warm, &warm_store_stats),
        ("tight budget, promote", promote_warm, &demote_stats),
    ] {
        store_table.push_row([
            pass.to_owned(),
            format!("{elapsed:.2?}"),
            stats.artifact_builds.to_string(),
            stats.store_saves.to_string(),
            stats.store_hits.to_string(),
            stats.store_promotes.to_string(),
            stats.store_demotes.to_string(),
        ]);
    }
    println!("{store_table}");
    println!(
        "Warm boot (store open + install of {} artifacts): {warm_boot:.2?}; \
         tight-budget warm pass: {promote_warm:.2?} promoting vs {tight_warm:.2?} \
         rebuilding without a store\n",
        warm_store_stats.store_hits
    );

    let members = [
        ("benchmark", text("service-batch")),
        (
            "unit",
            text(
                "wall clock per 22-query batch (Table 2 safety at (2,2) + Table 3 liveness at \
                 (2,1)); cold = fresh service (every artifact builds), warm = same service \
                 re-submitted (cache hits at an unbounded budget, rebuilds of evicted artifacts \
                 at the tight one); tight budget = largest artifact + (total - largest)/4, so \
                 the roster cannot be held resident at once; concurrency = 8 warm submissions \
                 of the roster through one shared service at 1 vs 4 in-flight submitter threads",
            ),
        ),
        ("host_cpus", int(host_cpus())),
        ("queries_per_batch", int(batch.len())),
        ("artifact_total_bytes", int(total)),
        ("largest_artifact_bytes", int(largest)),
        ("budgets", Json::Arr(rows)),
        ("concurrency", Json::Arr(conc_rows)),
        (
            "persistence_unit",
            text(
                "same roster through the content-addressed artifact store (tm-store): \
                 store_cold_ns = fresh service writing every built artifact through to disk, \
                 warm_boot_ns = restarted service opening the store and installing every \
                 artifact at construction, store_warm_ns = that restarted service answering \
                 the full roster with zero builds, promote_warm_ns = a tight-budget service \
                 re-answering the roster by promoting demoted artifacts from disk instead of \
                 rebuilding (compare the tight budget row's rebuild-based warm_ns)",
            ),
        ),
        (
            "persistence",
            obj([
                ("store_cold_ns", ns(store_cold)),
                ("warm_boot_ns", ns(warm_boot)),
                ("store_warm_ns", ns(store_warm)),
                ("promote_warm_ns", ns(promote_warm)),
                ("store_bytes", int(warm_store_stats.store_bytes)),
                ("store_files", int(warm_store_stats.store_files)),
                ("cold_saves", int(cold_store_stats.store_saves)),
                ("warm_hits", int(warm_store_stats.store_hits)),
                ("promotes", int(demote_stats.store_promotes)),
                ("demotes", int(demote_stats.store_demotes)),
            ]),
        ),
        (
            "instrumentation_unit",
            text(
                "best-of-5 warm roster through an unbounded-budget service (tm-obs phase timers \
                 always on) without the sampling profiler (sampler_off_warm_ns) and with the ~97 Hz \
                 sampler running (sampler_on_warm_ns); profiler_overhead_ratio = \
                 sampler_on/sampler_off - 1, target <= 0.05",
            ),
        ),
        (
            "instrumentation",
            obj([
                ("sampler_off_warm_ns", ns(sampler_off)),
                ("sampler_on_warm_ns", ns(sampler_on)),
                ("profiler_overhead_ratio", ratio(profiler_overhead, 4)),
            ]),
        ),
    ];
    write_with_history(
        Path::new("BENCH_service.json"),
        members_of(members),
        &[
            Metric::nanos("cold_ns", unbounded_cold),
            Metric::nanos("warm_ns", unbounded_warm),
            Metric::rate("concurrent4_qps", conc4_qps),
        ],
        trend_mode(),
    );
}

/// Writes `BENCH_liveness.json`: the (2,1) session-vs-reference baseline
/// (with the aggregate speedup over the full roster) plus the
/// build-once-answer-three session rows and the per-query phase
/// breakdowns.
fn write_liveness_json(
    cases: Vec<Json>,
    overall_speedup: f64,
    session: Vec<Json>,
    phases: Vec<Json>,
    metrics: &[Metric],
) {
    let members = [
        ("benchmark", text("liveness-session-vs-reference")),
        ("instance", obj([("threads", int(2u8)), ("vars", int(1u8))])),
        (
            "unit",
            text(
                "best-of-3 wall clock; reference = seed one-shot (cloned filtered subgraphs), \
                 session = query against the session-cached compiled run graph (search only; \
                 graph_build_ns is paid once per TM)",
            ),
        ),
        ("host_cpus", int(host_cpus())),
        ("overall_speedup", ratio(overall_speedup, 3)),
        ("cases", Json::Arr(cases)),
        (
            "session_unit",
            text(
                "build once, answer OF+LF+WF: single-run wall clock per property search; \
                 oneshot_est_ns = 3*graph_build_ns + searches (what \
                 three one-shot checks would pay)",
            ),
        ),
        ("session", Json::Arr(session)),
        (
            "phases_unit",
            text(
                "tm-obs engine-phase totals (a tm_obs::with_recorder record, nanoseconds, \
                 nonzero only) of the final measured run of each (2,1) query; phases nest, so \
                 they do not sum to wall time",
            ),
        ),
        ("phases", Json::Arr(phases)),
    ];
    write_with_history(Path::new("BENCH_liveness.json"), members_of(members), metrics, trend_mode());
}

/// Writes `BENCH_inclusion.json`: the on-the-fly scaling rows and the
/// per-query phase breakdowns of Table 2.
fn write_bench_json(scaling: Vec<Json>, phases: Vec<Json>, metrics: &[Metric]) {
    let members = [
        ("benchmark", text("inclusion-otf")),
        ("instance", obj([("threads", int(2u8)), ("vars", int(2u8))])),
        (
            "scaling_unit",
            text("best wall clock; lazy = both sides on the fly"),
        ),
        ("host_cpus", int(host_cpus())),
        ("scaling", Json::Arr(scaling)),
        (
            "phases_unit",
            text(
                "tm-obs engine-phase totals (a tm_obs::with_recorder record, nanoseconds, \
                 nonzero only) per Table 2 query through a fresh (2,2) session; cached_spec = \
                 false on each property's first query (which pays spec_intern); phases nest, \
                 so they do not sum to wall time",
            ),
        ),
        ("phases", Json::Arr(phases)),
    ];
    write_with_history(Path::new("BENCH_inclusion.json"), members_of(members), metrics, trend_mode());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `metrics.<name>` values of a file's history records, oldest
    /// first.
    fn history_values(path: &Path, name: &str) -> Vec<f64> {
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get("history")
            .and_then(Json::as_arr)
            .expect("a history array")
            .iter()
            .map(|record| {
                record
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(Json::as_f64)
                    .expect("the recorded metric")
            })
            .collect()
    }

    #[test]
    fn record_mode_appends_history_by_value_and_keeps_the_last_records() {
        let dir = std::env::temp_dir().join(format!("tm-bench-tables-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let body = || members_of([("benchmark", text("test")), ("rows", Json::Arr(vec![]))]);

        // Two regenerations in record mode: both records read back.
        for value in [7.0, 11.5] {
            write_with_history(&path, body(), &[Metric::rate("rate", value)], TrendMode::Record);
        }
        assert_eq!(history_values(&path, "rate"), [7.0, 11.5]);
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("test"));
        assert_eq!(doc.get("history_unit").and_then(Json::as_str), Some(HISTORY_UNIT));
        assert!(HISTORY_UNIT.contains(&format!("last {TREND_HISTORY_KEEP} kept")));

        // Off mode rewrites the body and leaves the history as it was.
        write_with_history(&path, body(), &[Metric::rate("rate", 1.0)], TrendMode::Off);
        assert_eq!(history_values(&path, "rate"), [7.0, 11.5]);

        // A longer history keeps its last TREND_HISTORY_KEEP records,
        // then gains this run's.
        let old: Vec<Json> = (0..TREND_HISTORY_KEEP + 5)
            .map(|i| obj([("metrics", obj([("rate", int(i))]))]))
            .collect();
        let mut long = body();
        long.push(("history".to_owned(), Json::Arr(old)));
        std::fs::write(&path, render(&long)).unwrap();
        write_with_history(&path, body(), &[Metric::rate("rate", 99.0)], TrendMode::Record);
        let values = history_values(&path, "rate");
        assert_eq!(values.len(), TREND_HISTORY_KEEP + 1);
        assert_eq!(values[0], 5.0);
        assert_eq!(values[TREND_HISTORY_KEEP - 1], (TREND_HISTORY_KEEP + 4) as f64);
        assert_eq!(values[TREND_HISTORY_KEEP], 99.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_puts_one_array_element_per_line() {
        let doc = members_of([
            ("a", Json::Arr(vec![int(1u8), obj([("b", Json::Null)])])),
            ("c", Json::Arr(vec![])),
        ]);
        assert_eq!(render(&doc), "{\n  \"a\": [\n    1,\n    {\"b\":null}\n  ],\n  \"c\": []\n}\n");
    }

    #[test]
    fn committed_bench_files_parse_and_carry_a_history() {
        for file in ["BENCH_inclusion.json", "BENCH_liveness.json", "BENCH_service.json"] {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
            let doc = Json::parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|error| panic!("{file}: {error}"));
            let history = doc.get("history").and_then(Json::as_arr);
            assert!(history.is_some(), "{file}: no history array");
            assert_eq!(previous_history(&path).unwrap().as_slice(), history.unwrap(), "{file}");
        }
    }
}
