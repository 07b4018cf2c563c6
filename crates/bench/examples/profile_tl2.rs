//! Profiles the TL2 (3, 2) liveness queries with the in-repo ~97 Hz
//! sampling profiler: registers the calling thread as the session
//! thread, runs OF + LF + WF through a fresh [`Verifier`] session, and
//! prints the folded stacks of the window — the same format
//! `GET /v1/profile` serves, ready for `flamegraph.pl` or speedscope.
//!
//! ```bash
//! cargo run --release -p tm-bench --example profile_tl2
//! ```
//!
//! The interesting line is the session thread inside
//! `run_graph_build`: the run-graph compilation of the first query folds
//! as `session-0;run_graph_build` — the build cost discussed in
//! `crates/bench/NOTES.md`.

use std::time::Instant;

use tm_bench::liveness_roster;
use tm_checker::Verifier;
use tm_lang::LivenessProperty;
use tm_obs::{profile_snapshot, register_thread, start_sampler, stop_sampler, ThreadKind};

fn main() {
    let _session = register_thread(ThreadKind::Session);
    let case = liveness_roster(3, 2)
        .into_iter()
        .find(|case| case.name.starts_with("TL2"))
        .expect("TL2 is in the (3,2) roster");
    println!("profiling {} at (3, 2)", case.name);

    start_sampler();
    let before = profile_snapshot();
    let start = Instant::now();
    let mut verifier = Verifier::new(3, 2);
    for property in LivenessProperty::all() {
        let query_start = Instant::now();
        let verdict = case.check_session(&mut verifier, property);
        println!(
            "  {property}: {} (cached artifact: {}, {:.2?})",
            if verdict.holds() { "Y" } else { "N" },
            verdict.stats.artifact_cached,
            query_start.elapsed()
        );
    }
    let elapsed = start.elapsed();
    let folded = profile_snapshot().folded_since(&before);
    stop_sampler();

    println!("\nfolded stacks over {elapsed:.2?} of work (count = ~10.3 ms samples):");
    print!("{folded}");
}
