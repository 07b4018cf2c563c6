//! The artifact memory budget: an LRU ledger over the compiled artifacts
//! a service retains across queries, in the `heap_bytes()` accounting of
//! `tm-automata`.
//!
//! The ledger is deliberately decoupled from the sessions that own the
//! memory: it decides *which* artifact to evict and the service layer
//! performs the eviction ([`tm_checker::Verifier::evict`]). Entries are
//! keyed by the session's own [`ArtifactKey`], the key the persistent
//! store addresses files by too. The invariant it maintains is
//! about *retained* memory: between queries, the sum of tracked artifact
//! bytes never exceeds the budget (provided every single artifact fits —
//! an over-budget artifact is kept and re-evicted as soon as another
//! query needs room, since dropping the artifact a query is actively
//! using would only force an immediate rebuild). During a query, the
//! service pre-evicts with the artifact's last known size
//! ([`MemoryBudget::reserve`]) so rebuilds never hold two generations of
//! large artifacts at once; a first-time build of unknown size is charged
//! and settled immediately after it completes ([`MemoryBudget::charge`]).
//!
//! ## Pinning and the concurrent protocol
//!
//! With per-session locking, several queries are in flight at once, and
//! the ledger must not select an artifact another query is actively
//! using as an eviction victim. Every entry therefore carries a **pin
//! refcount**: [`MemoryBudget::pin`]ned entries are skipped by the
//! eviction scan, and a query holds exactly one pin — on its own
//! artifact — from admission to settle. [`SharedBudget`] wraps the
//! ledger in a `Mutex` + `Condvar` and implements the protocol:
//!
//! 1. **admit** — if the key is charged: touch + pin (a cache hit, no
//!    byte movement, never waits). Otherwise reserve at the size hint
//!    and pin; if the reservation cannot fit even after evicting every
//!    unpinned entry, *wait* for concurrent pins to drain first. The
//!    waiter holds no pins and no other locks, so pin holders always
//!    make progress and admission cannot deadlock.
//! 2. **settle** — unpin first (the query is done; its artifact is fair
//!    game again), then charge the actual size, waiting for room the
//!    same way if the artifact grew while other queries hold pins.
//!    Unpinning *before* waiting is what makes two concurrent settlers
//!    drain each other instead of deadlocking.
//! 3. **abandon** — the failed-build path: unpin and release the
//!    provisional reservation (PR 6's refund), hint preserved.
//!
//! First-time builds reserve 0 bytes (no hint), so cold concurrent
//! batches admit freely and each settle evicts predecessors as real
//! sizes land. Single-flight per key is structural: all queries on one
//! `(n, k)` session serialize on that session's mutex, so the second
//! query for a key finds the artifact the first one built.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};

use tm_checker::ArtifactKey;
use tm_obs::{Counter, Phase, PhaseTimer};

struct Entry {
    bytes: usize,
    last_used: u64,
    /// In-flight queries currently using this artifact; pinned entries
    /// are never eviction victims.
    pins: usize,
}

/// The LRU byte ledger (see the module docs for the retained-memory
/// invariant and the pinning protocol).
///
/// # Examples
///
/// ```
/// use tm_checker::ArtifactKey;
/// use tm_service::MemoryBudget;
///
/// let key = |name: &str| ArtifactKey::run_graph(name, 2, 1);
/// let evictions = tm_obs::Registry::new().counter("tm_evictions_total", "", &[]);
/// let mut budget = MemoryBudget::new(Some(100), evictions);
/// assert!(budget.charge(key("a"), 60).is_empty());
/// // Charging past the limit evicts the least recently used entry.
/// let evicted = budget.charge(key("b"), 60);
/// assert_eq!(evicted, vec![key("a")]);
/// assert_eq!(budget.tracked_bytes(), 60);
/// assert!(budget.peak_bytes() <= 100);
/// ```
pub struct MemoryBudget {
    limit: Option<usize>,
    entries: HashMap<ArtifactKey, Entry>,
    /// Last observed size per key — survives eviction, so a rebuild can
    /// pre-reserve its room.
    hints: HashMap<ArtifactKey, usize>,
    clock: u64,
    tracked: usize,
    peak: usize,
    evictions: Counter,
}

impl MemoryBudget {
    /// Creates a ledger with the given byte limit (`None` = unbounded)
    /// that counts its evictions into `evictions`.
    pub fn new(limit: Option<usize>, evictions: Counter) -> Self {
        MemoryBudget {
            limit,
            entries: HashMap::new(),
            hints: HashMap::new(),
            clock: 0,
            tracked: 0,
            peak: 0,
            evictions,
        }
    }

    /// The configured limit.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Whether `key` is currently charged.
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Marks `key` as just used (moves it to the MRU end).
    pub fn touch(&mut self, key: &ArtifactKey) {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.last_used = self.clock;
        }
    }

    /// Pins `key`: while its pin count is nonzero the entry is never an
    /// eviction victim. No-op if `key` is not charged.
    pub fn pin(&mut self, key: &ArtifactKey) {
        if let Some(entry) = self.entries.get_mut(key) {
            entry.pins += 1;
        }
    }

    /// Drops one pin from `key`. No-op if `key` is not charged (the
    /// entry was released by the failed-build path).
    pub fn unpin(&mut self, key: &ArtifactKey) {
        if let Some(entry) = self.entries.get_mut(key) {
            entry.pins = entry.pins.saturating_sub(1);
        }
    }

    /// Whether `key` is charged and currently pinned.
    pub fn pinned(&self, key: &ArtifactKey) -> bool {
        self.entries.get(key).is_some_and(|e| e.pins > 0)
    }

    /// Number of entries with a nonzero pin count.
    pub fn pinned_entries(&self) -> usize {
        self.entries.values().filter(|e| e.pins > 0).count()
    }

    /// The last observed size of `key`, whether or not it is currently
    /// charged (0 if never charged).
    pub fn hint(&self, key: &ArtifactKey) -> usize {
        self.hints.get(key).copied().unwrap_or(0)
    }

    /// Whether a charge of `key` at `bytes` could settle under the limit
    /// after evicting every *unpinned* entry other than `key` — or, if
    /// not, whether nothing else is pinned (so waiting cannot help and
    /// the over-budget proviso applies). `false` means: wait for a
    /// concurrent pin to drain.
    fn room_for(&self, key: &ArtifactKey, bytes: usize) -> bool {
        let Some(limit) = self.limit else {
            return true;
        };
        let current = self.entries.get(key).map_or(0, |e| e.bytes);
        let needed = self.tracked - current + bytes;
        let evictable: usize = self
            .entries
            .iter()
            .filter(|(k, e)| e.pins == 0 && *k != key)
            .map(|(_, e)| e.bytes)
            .sum();
        needed.saturating_sub(evictable) <= limit
            || !self.entries.iter().any(|(k, e)| e.pins > 0 && k != key)
    }

    /// Makes room for an upcoming (re)build of `key` and charges it
    /// *provisionally* at its last known size: evicts LRU entries until
    /// the tracked total (including the provisional charge) fits the
    /// limit, so two queries racing through the service cannot both
    /// believe the same headroom is theirs. Returns the keys the caller
    /// must now actually drop from their sessions.
    ///
    /// A successful build settles the provisional charge with
    /// [`MemoryBudget::charge`]; a build that fails or aborts **must**
    /// call [`MemoryBudget::release`], or the phantom bytes stay tracked
    /// forever and shrink the budget for every later query.
    pub fn reserve(&mut self, key: &ArtifactKey) -> Vec<ArtifactKey> {
        let hint = self.hint(key);
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                self.tracked = self.tracked - entry.bytes + hint;
                entry.bytes = hint;
                entry.last_used = self.clock;
            }
            None => {
                self.entries.insert(
                    key.clone(),
                    Entry {
                        bytes: hint,
                        last_used: self.clock,
                        pins: 0,
                    },
                );
                self.tracked += hint;
            }
        }
        let evicted = self.evict_while_over(0, Some(key));
        self.peak = self.peak.max(self.tracked);
        evicted
    }

    /// Releases `key`'s charge — the settle path for a build that failed
    /// or aborted after [`MemoryBudget::reserve`]. Returns whether the
    /// key was charged. The size hint survives, so a retry reserves the
    /// same room.
    pub fn release(&mut self, key: &ArtifactKey) -> bool {
        match self.entries.remove(key) {
            Some(entry) => {
                self.tracked -= entry.bytes;
                true
            }
            None => false,
        }
    }

    /// Charges (or re-charges) `key` at `bytes`, marks it most recently
    /// used, and settles the ledger back under the limit by evicting LRU
    /// entries — never `key` itself, never a pinned entry. Returns the
    /// keys the caller must drop.
    pub fn charge(&mut self, key: ArtifactKey, bytes: usize) -> Vec<ArtifactKey> {
        self.clock += 1;
        self.hints.insert(key.clone(), bytes);
        match self.entries.get_mut(&key) {
            Some(entry) => {
                self.tracked = self.tracked - entry.bytes + bytes;
                entry.bytes = bytes;
                entry.last_used = self.clock;
            }
            None => {
                self.entries.insert(
                    key.clone(),
                    Entry {
                        bytes,
                        last_used: self.clock,
                        pins: 0,
                    },
                );
                self.tracked += bytes;
            }
        }
        let evicted = self.evict_while_over(0, Some(&key));
        self.peak = self.peak.max(self.tracked);
        evicted
    }

    /// Evicts LRU entries while `tracked + headroom` exceeds the limit,
    /// never evicting `exclude` or a pinned entry. Stops (leaving the
    /// ledger over budget) when nothing evictable remains.
    fn evict_while_over(&mut self, headroom: usize, exclude: Option<&ArtifactKey>) -> Vec<ArtifactKey> {
        let Some(limit) = self.limit else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while self.tracked + headroom > limit {
            let victim = self
                .entries
                .iter()
                .filter(|(key, entry)| Some(*key) != exclude && entry.pins == 0)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone());
            let Some(victim) = victim else { break };
            let entry = self.entries.remove(&victim).expect("victim is charged");
            self.tracked -= entry.bytes;
            self.evictions.inc();
            evicted.push(victim);
        }
        evicted
    }

    /// Currently tracked bytes.
    pub fn tracked_bytes(&self) -> usize {
        self.tracked
    }

    /// The high-water mark of tracked bytes over the ledger's lifetime,
    /// sampled whenever a charge settles.
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Number of charged artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is charged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The charged artifacts and their byte sizes, sorted by key display
    /// (hash order is not deterministic).
    pub fn ledger(&self) -> Vec<(ArtifactKey, usize)> {
        let mut entries: Vec<(ArtifactKey, usize)> = self
            .entries
            .iter()
            .map(|(key, entry)| (key.clone(), entry.bytes))
            .collect();
        entries.sort_by_cached_key(|(key, _)| key.to_string());
        entries
    }
}

/// The result of [`SharedBudget::admit`].
pub struct Admission {
    /// `true` — a (re)build was reserved and the settle must charge or
    /// release it; `false` — the artifact was already charged (cache
    /// hit).
    pub reserved: bool,
    /// Keys the caller must drop from their owning sessions.
    pub evicted: Vec<ArtifactKey>,
}

/// A [`MemoryBudget`] shared between concurrent queries: a mutex-held
/// ledger plus a condvar signalled whenever bytes or pins are freed, so
/// admissions and settles that cannot fit yet wait for in-flight pins to
/// drain instead of overcommitting the limit (see the module docs for
/// the protocol and its deadlock-freedom argument).
pub struct SharedBudget {
    inner: Mutex<MemoryBudget>,
    freed: Condvar,
}

impl SharedBudget {
    /// Wraps a fresh ledger with the given byte limit, counting its
    /// evictions into `evictions`.
    pub fn new(limit: Option<usize>, evictions: Counter) -> Self {
        SharedBudget {
            inner: Mutex::new(MemoryBudget::new(limit, evictions)),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemoryBudget> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admits one query on `key` and pins it: a cache hit is touched and
    /// pinned immediately; a miss reserves room at the size hint, waiting
    /// for concurrent pins to drain if the reservation cannot fit even
    /// after evicting every unpinned entry. Each successful admit must be
    /// paired with exactly one [`SharedBudget::settle`] or
    /// [`SharedBudget::abandon`].
    pub fn admit(&self, key: &ArtifactKey) -> Admission {
        let mut ledger = self.lock();
        // Lazily started on the first blocked iteration, so the
        // fast path (cache hit, or room available) records nothing.
        let mut wait_span: Option<PhaseTimer> = None;
        loop {
            if ledger.contains(key) {
                ledger.touch(key);
                ledger.pin(key);
                return Admission {
                    reserved: false,
                    evicted: Vec::new(),
                };
            }
            let hint = ledger.hint(key);
            if ledger.room_for(key, hint) {
                let evicted = ledger.reserve(key);
                ledger.pin(key);
                return Admission {
                    reserved: true,
                    evicted,
                };
            }
            wait_span.get_or_insert_with(|| PhaseTimer::start(Phase::BudgetAdmitWait));
            ledger = self.freed.wait(ledger).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Settles one admitted query: unpins `key`, then charges its actual
    /// `bytes`, waiting for concurrent pins to drain if the charge grew
    /// past what fits (unpinning *first* keeps concurrent settlers from
    /// deadlocking on each other). Returns the keys the caller must drop
    /// from their sessions.
    pub fn settle(&self, key: &ArtifactKey, bytes: usize) -> Vec<ArtifactKey> {
        let mut ledger = self.lock();
        ledger.unpin(key);
        let mut wait_span: Option<PhaseTimer> = None;
        while !ledger.room_for(key, bytes) {
            wait_span.get_or_insert_with(|| PhaseTimer::start(Phase::BudgetSettleWait));
            self.freed.notify_all();
            ledger = self.freed.wait(ledger).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        drop(wait_span);
        let evicted = ledger.charge(key.clone(), bytes);
        self.freed.notify_all();
        evicted
    }

    /// Abandons one admitted query — the failed-build / injected-fault
    /// path: unpins `key` and, if the admission reserved a provisional
    /// charge, releases it (the refund; the size hint survives for the
    /// retry).
    pub fn abandon(&self, key: &ArtifactKey, reserved: bool) {
        let mut ledger = self.lock();
        ledger.unpin(key);
        if reserved {
            ledger.release(key);
        }
        self.freed.notify_all();
    }

    /// Whether an eviction decided earlier should still be carried out:
    /// `false` if `key` was re-charged (re-admitted) since the decision,
    /// in which case dropping the artifact would destroy a live entry's
    /// backing memory.
    pub fn should_drop(&self, key: &ArtifactKey) -> bool {
        !self.lock().contains(key)
    }

    /// The configured limit.
    pub fn limit(&self) -> Option<usize> {
        self.lock().limit()
    }

    /// Currently tracked bytes.
    pub fn tracked_bytes(&self) -> usize {
        self.lock().tracked_bytes()
    }

    /// The high-water mark of tracked bytes.
    pub fn peak_bytes(&self) -> usize {
        self.lock().peak_bytes()
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions()
    }

    /// The charged artifacts and their byte sizes, sorted.
    pub fn ledger(&self) -> Vec<(ArtifactKey, usize)> {
        self.lock().ledger()
    }

    /// Number of entries currently pinned by in-flight queries.
    pub fn pinned_entries(&self) -> usize {
        self.lock().pinned_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An eviction counter in a private registry.
    fn evictions() -> Counter {
        tm_obs::Registry::new().counter("tm_evictions_total", "evictions", &[])
    }

    fn graph(name: &str) -> ArtifactKey {
        ArtifactKey::run_graph(name, 2, 1)
    }

    fn spec() -> ArtifactKey {
        ArtifactKey::spec(tm_lang::SafetyProperty::Opacity, 2, 2)
    }

    #[test]
    fn lru_order_decides_the_victim() {
        let mut budget = MemoryBudget::new(Some(100), evictions());
        assert!(budget.charge(graph("a"), 40).is_empty());
        assert!(budget.charge(graph("b"), 40).is_empty());
        // Touching `a` makes `b` the LRU entry.
        budget.touch(&graph("a"));
        let evicted = budget.charge(graph("c"), 40);
        assert_eq!(evicted, vec![graph("b")]);
        assert_eq!(budget.tracked_bytes(), 80);
        assert_eq!(budget.evictions(), 1);
        assert!(budget.contains(&graph("a")) && budget.contains(&graph("c")));
    }

    #[test]
    fn peak_tracks_the_high_water_mark_under_the_limit() {
        let mut budget = MemoryBudget::new(Some(100), evictions());
        budget.charge(graph("a"), 70);
        budget.charge(graph("b"), 60); // evicts a
        budget.charge(spec(), 30);
        assert!(budget.peak_bytes() <= 100);
        assert_eq!(budget.peak_bytes(), 90);
        assert_eq!(budget.tracked_bytes(), 90);
    }

    #[test]
    fn reserve_uses_the_last_known_size() {
        let mut budget = MemoryBudget::new(Some(100), evictions());
        budget.charge(graph("a"), 80);
        budget.charge(graph("b"), 15); // fits alongside
        assert_eq!(budget.tracked_bytes(), 95);
        // `a` was evicted at some point and will be rebuilt: reserving it
        // must clear enough room for its known 80 bytes.
        let dropped = budget.charge(graph("c"), 90); // evicts a and b
        assert_eq!(dropped.len(), 2);
        assert_eq!(budget.hint(&graph("a")), 80);
        let evicted = budget.reserve(&graph("a"));
        assert_eq!(evicted, vec![graph("c")]);
        // The reservation itself is charged at the known 80 bytes.
        assert_eq!(budget.tracked_bytes(), 80);
        budget.charge(graph("a"), 80);
        assert_eq!(budget.tracked_bytes(), 80);
        assert!(budget.tracked_bytes() <= 100);
    }

    #[test]
    fn a_failed_build_releases_its_reservation() {
        let mut budget = MemoryBudget::new(Some(100), evictions());
        budget.charge(graph("a"), 80);
        budget.charge(graph("b"), 15);
        let before = budget.tracked_bytes();
        // A first-time build (no hint) reserves 0 bytes; failing it must
        // leave the ledger exactly as it was.
        assert!(budget.reserve(&graph("new")).is_empty());
        assert!(budget.release(&graph("new")));
        assert_eq!(budget.tracked_bytes(), before);
        assert_eq!(budget.len(), 2);
        // A rebuild reserves the last known size; failing it must give
        // the bytes back instead of tracking a phantom artifact.
        budget.charge(graph("c"), 90); // evicts a and b
        assert_eq!(budget.hint(&graph("a")), 80);
        let evicted = budget.reserve(&graph("a"));
        assert_eq!(evicted, vec![graph("c")]);
        assert_eq!(budget.tracked_bytes(), 80);
        assert!(budget.release(&graph("a")));
        assert_eq!(budget.tracked_bytes(), 0);
        assert!(!budget.release(&graph("a")), "double release is a no-op");
        // The hint survives the release, so a retry reserves real room.
        assert_eq!(budget.hint(&graph("a")), 80);
    }

    #[test]
    fn an_unbounded_ledger_never_evicts() {
        let mut budget = MemoryBudget::new(None, evictions());
        for i in 0..50 {
            assert!(budget.charge(graph(&format!("tm{i}")), 1 << 20).is_empty());
        }
        assert_eq!(budget.len(), 50);
        assert_eq!(budget.evictions(), 0);
        assert_eq!(budget.peak_bytes(), 50 << 20);
    }

    #[test]
    fn the_artifact_in_use_is_never_its_own_victim() {
        let mut budget = MemoryBudget::new(Some(10), evictions());
        // A single over-budget artifact stays charged (evicting it would
        // just force a rebuild for the query that is using it).
        assert!(budget.charge(graph("big"), 50).is_empty());
        assert_eq!(budget.tracked_bytes(), 50);
        // ... but it is the first to go when another query needs room.
        let evicted = budget.charge(graph("next"), 5);
        assert_eq!(evicted, vec![graph("big")]);
        assert_eq!(budget.tracked_bytes(), 5);
    }

    #[test]
    fn recharging_updates_bytes_in_place() {
        let mut budget = MemoryBudget::new(Some(100), evictions());
        budget.charge(spec(), 30);
        // A lazy spec cache grows as later queries touch more rows.
        budget.charge(spec(), 45);
        assert_eq!(budget.tracked_bytes(), 45);
        assert_eq!(budget.len(), 1);
        assert_eq!(budget.ledger(), vec![(spec(), 45)]);
    }

    #[test]
    fn pinned_entries_are_never_eviction_victims() {
        let mut budget = MemoryBudget::new(Some(100), evictions());
        budget.charge(graph("a"), 60);
        budget.charge(graph("b"), 30);
        budget.pin(&graph("a"));
        // `a` is the LRU entry, but pinned: `b` goes instead.
        let evicted = budget.charge(graph("c"), 40);
        assert_eq!(evicted, vec![graph("b")]);
        assert!(budget.contains(&graph("a")));
        assert!(budget.pinned(&graph("a")));
        // Unpinned, `a` is evictable again.
        budget.unpin(&graph("a"));
        assert!(!budget.pinned(&graph("a")));
        let evicted = budget.charge(graph("d"), 60);
        assert!(evicted.contains(&graph("a")), "{evicted:?}");
    }

    #[test]
    fn pins_nest_like_a_refcount() {
        let mut budget = MemoryBudget::new(Some(50), evictions());
        budget.charge(graph("a"), 40);
        budget.pin(&graph("a"));
        budget.pin(&graph("a"));
        budget.unpin(&graph("a"));
        assert!(budget.pinned(&graph("a")), "one pin remains");
        assert_eq!(budget.pinned_entries(), 1);
        // Still protected: the charge below cannot evict `a` and settles
        // over budget (the proviso), rather than destroying a live entry.
        let evicted = budget.charge(graph("b"), 40);
        assert!(evicted.is_empty());
        assert!(budget.contains(&graph("a")));
        budget.unpin(&graph("a"));
        assert_eq!(budget.pinned_entries(), 0);
        // Unpin below zero and unpin of an uncharged key are no-ops.
        budget.unpin(&graph("a"));
        budget.unpin(&graph("ghost"));
    }

    #[test]
    fn shared_admission_waits_for_pins_instead_of_overcommitting() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let budget = Arc::new(SharedBudget::new(Some(100), evictions()));
        // Query 1 holds a pin on a 70-byte artifact.
        let first = budget.admit(&graph("a"));
        assert!(first.reserved);
        // Its hint is 0 (first build), so the reservation fits; settle is
        // deferred — simulate a finished build charging 70 below. First,
        // seed the hint by settling once and re-admitting.
        budget.settle(&graph("a"), 70);
        let first = budget.admit(&graph("a"));
        assert!(!first.reserved, "second admit is a cache hit");

        // Query 2 needs 60 bytes (hint seeded the same way): it cannot
        // fit alongside the pinned 70, so admit must block until query 1
        // settles.
        {
            let mut ledger = budget.lock();
            ledger.hints.insert(graph("b"), 60);
        }
        let blocked = Arc::new(AtomicBool::new(true));
        let admitted = {
            let budget = Arc::clone(&budget);
            let blocked = Arc::clone(&blocked);
            std::thread::spawn(move || {
                let admission = budget.admit(&graph("b"));
                blocked.store(false, Ordering::SeqCst);
                budget.settle(&graph("b"), 60);
                admission.reserved
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            blocked.load(Ordering::SeqCst),
            "admission must wait while the pinned 70 bytes block the 60-byte reservation"
        );
        // Query 1 settles: the pin drains, query 2 gets in, `a` becomes
        // the eviction victim for `b`'s reservation.
        budget.settle(&graph("a"), 70);
        assert!(admitted.join().unwrap(), "query 2 reserved after the wait");
        let peak = budget.peak_bytes();
        assert!(peak <= 100, "peak {peak} exceeded the limit under contention");
        assert!(budget.tracked_bytes() <= 100);
    }

    #[test]
    fn shared_settle_unpins_before_waiting_so_settlers_drain_each_other() {
        // Two queries, each pinned, whose actual sizes together exceed
        // the limit: both settles must complete (one evicts the other),
        // never deadlock.
        let budget = std::sync::Arc::new(SharedBudget::new(Some(100), evictions()));
        let a = budget.admit(&graph("a"));
        let b = budget.admit(&graph("b"));
        assert!(a.reserved && b.reserved);
        let t = {
            let budget = std::sync::Arc::clone(&budget);
            std::thread::spawn(move || budget.settle(&graph("a"), 80))
        };
        let evicted_b = budget.settle(&graph("b"), 80);
        let evicted_a = t.join().unwrap();
        // Exactly one of the two survived; the ledger is under the limit.
        assert_eq!(evicted_a.len() + evicted_b.len(), 1, "{evicted_a:?} {evicted_b:?}");
        assert!(budget.tracked_bytes() <= 100);
        assert!(budget.peak_bytes() <= 100);
    }

    #[test]
    fn shared_abandon_refunds_the_reservation_under_pins() {
        let budget = SharedBudget::new(Some(100), evictions());
        budget.admit(&graph("a"));
        budget.settle(&graph("a"), 40);
        // A rebuild admission reserves at the hint...
        let evicted = budget.ledger();
        assert_eq!(evicted, vec![(graph("a"), 40)]);
        let admission = budget.admit(&graph("b"));
        assert!(admission.reserved);
        // ... and abandoning it (injected fault) refunds the bytes while
        // leaving the concurrent entry alone.
        budget.abandon(&graph("b"), admission.reserved);
        assert_eq!(budget.ledger(), vec![(graph("a"), 40)]);
        assert!(budget.should_drop(&graph("b")));
        assert!(!budget.should_drop(&graph("a")));
    }
}
