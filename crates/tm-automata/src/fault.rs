//! Deterministic fault injection:
//! `TM_FAULT=<site>:<nth>[:delay_ms][:panic]`.
//!
//! A *fault point* is a named call site (`fault::fault_point("build")`)
//! that normally does nothing. When a fault plan is installed — from the
//! `TM_FAULT` environment variable at process start, or programmatically
//! in tests — the plan's site counts its hits, and exactly the `nth` hit
//! (1-based) first sleeps `delay_ms` milliseconds (default 0), then fails
//! with [`EngineError::FaultInjected`] — or, with the `panic` flavor,
//! panics instead of returning, modeling a crashed worker rather than a
//! clean failure (RAII cleanup is all that runs; the robustness suites
//! use this to prove guards don't leak). Every other hit, every other
//! site, and every hit after the `nth` passes untouched.
//!
//! Firing exactly once makes chaos testing deterministic: a retried
//! operation succeeds on its second attempt, and the conformance suites
//! assert the retried run is bit-identical to a fault-free one.
//!
//! Registered sites across the workspace:
//!
//! | site       | where it fires                                      |
//! |------------|-----------------------------------------------------|
//! | `build`    | tm-service artifact build (spec or run graph)       |
//! | `evict`    | tm-service budget-ledger charge settle / eviction   |
//! | `encode`   | tm-service wire encoding of a batch response        |
//! | `store`    | tm-store artifact save (before the atomic rename —  |
//! |            | a mid-write crash) and artifact load (a poisoned    |
//! |            | read; the service falls back to rebuild)            |

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::budget::EngineError;

/// One installed fault: fail the `nth` hit of `site`, after `delay_ms` —
/// by error return, or by panic when `panic` is set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// The fault-point name this plan arms.
    pub site: String,
    /// Which hit fires, 1-based.
    pub nth: u64,
    /// Milliseconds to sleep before failing (models a slow failure).
    pub delay_ms: u64,
    /// Fire by panicking instead of returning an error (models a
    /// crashed thread; only RAII cleanup runs).
    pub panic: bool,
}

impl FaultPlan {
    /// Parses `<site>:<nth>[:delay_ms][:panic]` (the `TM_FAULT`
    /// format). The `delay_ms` field may be omitted when `panic` is
    /// given: `build:1:panic` ≡ `build:1:0:panic`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut parts = spec.split(':');
        let site = parts.next().unwrap_or("").trim();
        if site.is_empty() {
            return Err(format!("TM_FAULT {spec:?}: empty site"));
        }
        let nth = parts
            .next()
            .ok_or_else(|| format!("TM_FAULT {spec:?}: missing <nth>"))?
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("TM_FAULT {spec:?}: bad <nth>: {e}"))?;
        if nth == 0 {
            return Err(format!("TM_FAULT {spec:?}: <nth> is 1-based"));
        }
        let mut delay_ms = 0;
        let mut panic = false;
        match parts.next().map(str::trim) {
            None => {}
            Some("panic") => panic = true,
            Some(ms) => {
                delay_ms = ms
                    .parse::<u64>()
                    .map_err(|e| format!("TM_FAULT {spec:?}: bad delay_ms: {e}"))?;
                match parts.next().map(str::trim) {
                    None => {}
                    Some("panic") => panic = true,
                    Some(other) => {
                        return Err(format!("TM_FAULT {spec:?}: unexpected field {other:?}"));
                    }
                }
            }
        }
        if parts.next().is_some() {
            return Err(format!("TM_FAULT {spec:?}: too many fields"));
        }
        Ok(FaultPlan {
            site: site.to_owned(),
            nth,
            delay_ms,
            panic,
        })
    }
}

struct FaultState {
    plan: Option<FaultPlan>,
    /// Hits of the armed site so far.
    hits: u64,
    /// Whether `TM_FAULT` has been consulted.
    env_loaded: bool,
}

/// Fast path: `false` means no plan is armed and [`fault_point`] is a
/// single atomic load — but only once [`ENV_LOADED`] says `TM_FAULT` has
/// been consulted, otherwise the first hit must take the slow path to
/// arm an environment-provided plan.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Mirrors `FaultState::env_loaded` for the lock-free fast path.
static ENV_LOADED: AtomicBool = AtomicBool::new(false);

static STATE: Mutex<FaultState> = Mutex::new(FaultState {
    plan: None,
    hits: 0,
    env_loaded: false,
});

fn lock_state() -> std::sync::MutexGuard<'static, FaultState> {
    let mut state = STATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if !state.env_loaded {
        state.env_loaded = true;
        if let Ok(spec) = std::env::var("TM_FAULT") {
            if !spec.trim().is_empty() {
                match FaultPlan::parse(&spec) {
                    Ok(plan) => {
                        state.plan = Some(plan);
                        ARMED.store(true, Ordering::Release);
                    }
                    Err(message) => eprintln!("ignoring {message}"),
                }
            }
        }
        ENV_LOADED.store(true, Ordering::Release);
    }
    state
}

/// Installs `plan`, replacing any armed plan and resetting the hit
/// counter. Tests drive chaos scenarios through this; production arms
/// plans via `TM_FAULT` instead.
pub fn install_fault(plan: FaultPlan) {
    let mut state = lock_state();
    state.plan = Some(plan);
    state.hits = 0;
    ARMED.store(true, Ordering::Release);
}

/// Disarms fault injection and resets the hit counter. `TM_FAULT` is not
/// re-read.
pub fn clear_fault() {
    let mut state = lock_state();
    state.plan = None;
    state.hits = 0;
    ARMED.store(false, Ordering::Release);
}

/// A named fault point. Returns `Err(EngineError::FaultInjected)` on
/// exactly the armed plan's `nth` hit of its site (after sleeping the
/// plan's delay) — or panics there instead if the plan has the `panic`
/// flavor — and `Ok(())` otherwise.
pub fn fault_point(site: &str) -> Result<(), EngineError> {
    if ENV_LOADED.load(Ordering::Acquire) && !ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    let (delay_ms, panic) = {
        let mut state = lock_state();
        let Some(plan) = &state.plan else {
            return Ok(());
        };
        if plan.site != site {
            return Ok(());
        }
        state.hits += 1;
        let plan = state.plan.as_ref().expect("checked above");
        if state.hits != plan.nth {
            return Ok(());
        }
        (plan.delay_ms, plan.panic)
    };
    if delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(delay_ms));
    }
    if panic {
        panic!("injected panic fault at site {site:?}");
    }
    Err(EngineError::FaultInjected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_format() {
        assert_eq!(
            FaultPlan::parse("build:2"),
            Ok(FaultPlan {
                site: "build".into(),
                nth: 2,
                delay_ms: 0,
                panic: false
            })
        );
        assert_eq!(
            FaultPlan::parse("evict:1:250"),
            Ok(FaultPlan {
                site: "evict".into(),
                nth: 1,
                delay_ms: 250,
                panic: false
            })
        );
        assert_eq!(
            FaultPlan::parse("encode:1:panic"),
            Ok(FaultPlan {
                site: "encode".into(),
                nth: 1,
                delay_ms: 0,
                panic: true
            })
        );
        assert_eq!(
            FaultPlan::parse("build:3:40:panic"),
            Ok(FaultPlan {
                site: "build".into(),
                nth: 3,
                delay_ms: 40,
                panic: true
            })
        );
        for bad in [
            "",
            ":1",
            "build",
            "build:0",
            "build:x",
            "build:1:y",
            "a:1:2:3",
            "a:1:panic:2",
            "a:1:2:panic:x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?}");
        }
    }

    // The firing behavior of the global plan is exercised by the chaos
    // conformance suite in tm-service, which serializes installs; firing
    // tests here would race other tm-automata tests sharing the process.
}
