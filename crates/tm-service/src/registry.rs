//! The session registry: one lazily created [`Verifier`] per instance
//! size `(n, k)`.
//!
//! A `Verifier` owns per-instance artifact caches, so a service facing
//! queries at many instance sizes needs one per size. Every query runs
//! on the thread that submitted it.
//!
//! Concurrency: the map itself sits behind an `RwLock` whose critical
//! sections only *resolve or create* sessions — never run queries — and
//! each session sits behind its own `Mutex`, so batches touching
//! different instance sizes overlap while queries on one session
//! serialize (which is also what makes artifact builds single-flight
//! per key). Lock hierarchy: registry → session → budget ledger; the
//! registry lock is never held while a session lock is being waited on
//! with the ledger held.
//!
//! Each session also carries its serving counters: handles into the
//! service's metrics registry, resolved once when the session is
//! created. They sit beside the `Verifier`, outside its mutex, so
//! reading them never waits on a running query.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

use tm_checker::Verifier;
use tm_obs::{Counter, Histogram, Registry, Unit};

/// One `(n, k)` session: the lockable [`Verifier`] (see
/// [`lock_session`]) and its per-session series in the service's
/// metrics registry, each labelled `threads`, `vars`.
pub struct Session {
    verifier: Mutex<Verifier>,
    /// Threads `n` of the session.
    pub threads: usize,
    /// Variables `k` of the session.
    pub vars: usize,
    /// `tm_artifact_builds_total`: artifact builds (first-time and
    /// rebuilds) that left the artifact resident.
    pub builds: Counter,
    /// `tm_artifact_rebuilds_total`: builds that re-created an evicted
    /// artifact.
    pub rebuilds: Counter,
    /// `tm_store_promotes_total`: artifacts promoted from the
    /// persistent store instead of rebuilt.
    pub promotes: Counter,
    /// `tm_session_lock_wait_seconds`: time each query waited for the
    /// session lock (its count is the number of acquisitions).
    pub lock_wait: Histogram,
}

impl Session {
    fn new(verifier: Verifier, threads: usize, vars: usize, metrics: &Registry) -> Self {
        let (n, k) = (threads.to_string(), vars.to_string());
        let labels = [("threads", n.as_str()), ("vars", k.as_str())];
        let counter = |name: &str, help: &str| metrics.counter(name, help, &labels);
        Session {
            verifier: Mutex::new(verifier),
            threads,
            vars,
            builds: counter(
                "tm_artifact_builds_total",
                "Artifact builds (first-time and rebuilds), by session",
            ),
            rebuilds: counter(
                "tm_artifact_rebuilds_total",
                "Builds that re-created an evicted artifact, by session",
            ),
            promotes: counter(
                "tm_store_promotes_total",
                "Artifacts promoted from the persistent store instead of rebuilt, by session",
            ),
            lock_wait: metrics.histogram(
                "tm_session_lock_wait_seconds",
                "Time queries waited for the session lock, by session",
                &labels,
                Unit::Nanos,
            ),
        }
    }
}

/// A shared, independently lockable session (see [`lock_session`]).
pub type SharedSession = Arc<Session>;

/// Locks one session, recovering from a poisoned mutex (a panicked
/// query — e.g. an injected panic fault — must not wedge every later
/// query on the same instance size; sessions hold no invariants a
/// completed query can break mid-update, artifacts are rebuilt on
/// demand).
pub fn lock_session(session: &Session) -> MutexGuard<'_, Verifier> {
    session.verifier.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Registry of per-instance-size sessions.
pub struct SessionRegistry {
    sessions: RwLock<HashMap<(usize, usize), SharedSession>>,
    metrics: Arc<Registry>,
    max_states: usize,
    query_deadline: Option<Duration>,
}

impl SessionRegistry {
    /// Creates a registry whose sessions bound every state space at
    /// `max_states`. Each session's series are registered in `metrics`
    /// when the session is created.
    pub fn new(max_states: usize, metrics: Arc<Registry>) -> Self {
        SessionRegistry {
            sessions: RwLock::new(HashMap::new()),
            metrics,
            max_states,
            query_deadline: None,
        }
    }

    /// Sets the per-query wall-clock deadline every session created
    /// from here on runs under (`None` = no deadline). Sessions already
    /// created keep their deadline, so configure this before the first
    /// [`SessionRegistry::session`] call.
    pub fn query_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.query_deadline = deadline;
        self
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<(usize, usize), SharedSession>> {
        self.sessions.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The session for instance size `(threads, vars)`, created on first
    /// use. Only resolves the `Arc` — callers lock the session
    /// themselves ([`lock_session`]), so two batches on different
    /// instance sizes run their queries concurrently.
    pub fn session(&self, threads: usize, vars: usize) -> SharedSession {
        if let Some(session) = self.read().get(&(threads, vars)) {
            return Arc::clone(session);
        }
        let mut sessions = self.sessions.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        let session = sessions.entry((threads, vars)).or_insert_with(|| {
            let mut verifier = Verifier::new(threads, vars).max_states(self.max_states);
            if let Some(deadline) = self.query_deadline {
                verifier = verifier.deadline(deadline);
            }
            Arc::new(Session::new(verifier, threads, vars, &self.metrics))
        });
        Arc::clone(session)
    }

    /// Every session, sorted by instance size. Takes no session lock.
    pub fn sessions(&self) -> Vec<SharedSession> {
        let mut sessions: Vec<SharedSession> = self.read().values().cloned().collect();
        sessions.sort_unstable_by_key(|s| (s.threads, s.vars));
        sessions
    }

    /// Sum of every session's estimated artifact heap bytes — the ground
    /// truth the budget ledger approximates. Locks each session briefly
    /// in turn; a snapshot, not an atomic cross-session reading.
    pub fn artifact_heap_bytes(&self) -> usize {
        self.read()
            .values()
            .map(|s| lock_session(s).artifact_heap_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::roster::{run_query, QuerySpec};

    fn registry() -> SessionRegistry {
        SessionRegistry::new(1_000_000, Arc::new(Registry::new()))
    }

    #[test]
    fn sessions_are_created_lazily_and_keyed_by_size() {
        let registry = registry();
        assert!(registry.sessions().is_empty());
        let spec21 = QuerySpec::parse("dstm+aggressive:of:2:1").unwrap();
        let spec22 = QuerySpec::parse("sequential:op:2:2").unwrap();
        assert!(run_query(&mut lock_session(&registry.session(2, 1)), &spec21).holds());
        assert!(run_query(&mut lock_session(&registry.session(2, 2)), &spec22).holds());
        assert_eq!(registry.sessions().len(), 2);
        let sizes: Vec<_> = registry.sessions().iter().map(|s| (s.threads, s.vars)).collect();
        assert_eq!(sizes, vec![(2, 1), (2, 2)]);
        let builds = |s: &Session| lock_session(s).builds();
        assert_eq!(registry.sessions().iter().map(|s| builds(s)).sum::<usize>(), 2);
        assert!(registry.artifact_heap_bytes() > 0);
    }

    #[test]
    fn the_same_arc_is_handed_to_concurrent_resolvers() {
        let registry = Arc::new(registry());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || registry.session(2, 1))
            })
            .collect();
        let sessions: Vec<SharedSession> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(registry.sessions().len(), 1, "one session for one instance size");
        for pair in sessions.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
    }
}
