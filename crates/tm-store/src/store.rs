//! The on-disk artifact store.
//!
//! One directory, one file per artifact, named by the content-address
//! digest of its key (`<hex64>.tmart`). Writes are atomic — encode to
//! `<digest>.tmp` in the same directory, sync, rename — so a crash at
//! any instant leaves either the old file, the new file, or a stale
//! `.tmp` that the next [`ArtifactStore::open`] sweeps away; never a
//! half-written addressable artifact. Reads verify the full container
//! integrity (and that the embedded key matches the requested digest)
//! before anything is trusted; a file that fails is *quarantined* —
//! renamed to `<name>.quarantined` so it stops being addressable but
//! survives for post-mortem — and reported as corrupt so the caller
//! rebuilds from scratch.
//!
//! The store keeps its own LRU ledger (seeded from file mtimes at
//! open, tracked by access order afterwards) and enforces an optional
//! byte cap by deleting the least-recently-used artifacts
//! after each save. Hits, misses, corruptions, saves, and evictions
//! are counted into the [`StoreCounters`] handles the owner passes in,
//! so the owner's metrics registry is the only place they live.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tm_automata::fault::fault_point;
use tm_obs::{Counter, Phase, PhaseTimer, Registry};

use tm_checker::{Artifact, ArtifactKey};

use crate::codec::{decode_artifact, encode_artifact};
use crate::key::file_name;

/// Extension of addressable artifact files.
const EXT: &str = "tmart";

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file existed but failed integrity verification or decoding;
    /// it has been quarantined.
    Corrupt(&'static str),
    /// An injected fault fired (`TM_FAULT=store:<nth>`).
    Fault,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(why) => write!(f, "corrupt artifact (quarantined): {why}"),
            StoreError::Fault => write!(f, "injected store fault"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Configuration for [`ArtifactStore::open`].
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    /// The store directory; created if absent.
    pub dir: PathBuf,
    /// Byte cap over all addressable files (`None` = unbounded).
    pub cap_bytes: Option<u64>,
}

/// The store's counters: handles into the owner's metrics registry.
#[derive(Clone, Debug)]
pub struct StoreCounters {
    /// Loads that returned a verified artifact.
    pub hits: Counter,
    /// Loads that found no file for the key.
    pub misses: Counter,
    /// Files that failed verification and were quarantined.
    pub corrupt: Counter,
    /// Artifacts written.
    pub saves: Counter,
    /// Files deleted by the byte cap.
    pub evicted: Counter,
}

impl StoreCounters {
    /// Registers the `tm_store_*_total` counter families in `registry`.
    pub fn register(registry: &Registry) -> Self {
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        StoreCounters {
            hits: counter(
                "tm_store_hits_total",
                "Persistent-store loads that returned a verified artifact",
            ),
            misses: counter(
                "tm_store_misses_total",
                "Persistent-store loads that found no file for the key",
            ),
            corrupt: counter(
                "tm_store_corrupt_total",
                "Persistent-store files quarantined as corrupt",
            ),
            saves: counter(
                "tm_store_saves_total",
                "Artifact files written to the persistent store",
            ),
            evicted: counter(
                "tm_store_evictions_total",
                "Persistent-store files deleted by the byte cap",
            ),
        }
    }
}

/// A point-in-time snapshot of the store counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that returned a verified artifact.
    pub hits: u64,
    /// Loads that found no file for the key.
    pub misses: u64,
    /// Files that failed verification and were quarantined.
    pub corrupt: u64,
    /// Artifacts written (re-saves of a key whose file already holds as
    /// many rows are not counted).
    pub saves: u64,
    /// Files deleted by the byte cap.
    pub evicted: u64,
    /// Current addressable bytes on disk (per the ledger).
    pub bytes: u64,
    /// Current addressable file count.
    pub files: u64,
}

struct Entry {
    bytes: u64,
    last_used: u64,
    /// [`Artifact::rows`] of the file's contents, once this process has
    /// written or loaded it (`None` for a file only seen at open).
    rows: Option<usize>,
}

/// One row of the LRU-ordered store listing
/// ([`ArtifactStore::entries`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreEntry {
    /// The addressable file name (`<hex64>.tmart`).
    pub file: String,
    /// Size in bytes per the ledger.
    pub bytes: u64,
    /// Seconds since the file was last written (0 if the file vanished
    /// under a concurrent eviction).
    pub age_secs: u64,
    /// The ledger's LRU clock value at the last access — larger = more
    /// recently used; comparable only within one listing.
    pub last_used: u64,
}

struct Ledger {
    entries: HashMap<String, Entry>,
    /// Monotonic access clock for LRU ordering.
    tick: u64,
}

impl Ledger {
    fn touch(&mut self, name: &str) {
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(name) {
            entry.last_used = self.tick;
        }
    }

    /// Touches `name` after a verified load of `artifact` from it, which
    /// tells the ledger how many rows the file holds.
    fn loaded(&mut self, name: &str, artifact: &Artifact) {
        self.touch(name);
        if let Some(entry) = self.entries.get_mut(name) {
            entry.rows = Some(artifact.rows());
        }
    }

    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }
}

/// The persistent content-addressed artifact store. All operations are
/// safe to call from multiple threads; the ledger is internally locked
/// and file writes are atomic.
pub struct ArtifactStore {
    dir: PathBuf,
    cap_bytes: Option<u64>,
    ledger: Mutex<Ledger>,
    counters: StoreCounters,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store at `config.dir`. Scans the
    /// directory: stale `.tmp` files from interrupted writes are
    /// deleted, addressable `.tmart` files seed the LRU ledger in
    /// modification-time order (oldest = least recently used). The
    /// store counts into `counters`.
    pub fn open(config: StoreConfig, counters: StoreCounters) -> Result<ArtifactStore, StoreError> {
        std::fs::create_dir_all(&config.dir)?;
        let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(&config.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                // Leftover from a write interrupted before its rename.
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if !name.ends_with(&format!(".{EXT}")) {
                continue;
            }
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((name.to_owned(), meta.len(), mtime));
        }
        found.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut ledger = Ledger {
            entries: HashMap::new(),
            tick: 0,
        };
        for (name, bytes, _) in found {
            ledger.tick += 1;
            let last_used = ledger.tick;
            ledger.entries.insert(
                name,
                Entry {
                    bytes,
                    last_used,
                    rows: None,
                },
            );
        }
        Ok(ArtifactStore {
            dir: config.dir,
            cap_bytes: config.cap_bytes,
            ledger: Mutex::new(ledger),
            counters,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Saves `artifact` under `key`, encoding it in place (nothing is
    /// copied before the encode). Content-addressed: if the digest is
    /// already present, the entry is only touched in the LRU — unless
    /// this process wrote or loaded that file and it holds fewer
    /// [`Artifact::rows`] than `artifact` (a specification that later
    /// queries grew), which is then rewritten. The write is atomic (temp
    /// file + rename) and runs the `store` fault point *before* the
    /// rename, so an injected fault models a crash mid-write: the
    /// addressable store is unchanged and only a `.tmp` remains.
    pub fn save(&self, key: &ArtifactKey, artifact: &Artifact) -> Result<(), StoreError> {
        let name = file_name(key);
        let rows = artifact.rows();
        {
            let mut ledger = self.lock_ledger();
            if let Some(entry) = ledger.entries.get(&name) {
                if entry.rows.is_none_or(|stored| stored >= rows) {
                    ledger.touch(&name);
                    return Ok(());
                }
            }
        }
        let mut timer = PhaseTimer::start(Phase::StoreSave);
        let image = encode_artifact(key, artifact);
        timer.set_value(image.len() as u64);
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!("{name}.tmp"));
        let write_result = (|| -> Result<(), StoreError> {
            std::fs::write(&tmp_path, &image)?;
            // A crash between here and the rename must leave the store
            // unchanged — that is exactly what the fault point models.
            fault_point("store").map_err(|_| StoreError::Fault)?;
            std::fs::rename(&tmp_path, &final_path)?;
            Ok(())
        })();
        if write_result.is_err() {
            let _ = std::fs::remove_file(&tmp_path);
            return write_result;
        }
        self.counters.saves.inc();
        let over_cap = {
            let mut ledger = self.lock_ledger();
            ledger.tick += 1;
            let last_used = ledger.tick;
            ledger.entries.insert(
                name,
                Entry {
                    bytes: image.len() as u64,
                    last_used,
                    rows: Some(rows),
                },
            );
            self.collect_over_cap(&mut ledger)
        };
        self.delete_evicted(over_cap);
        Ok(())
    }

    /// Loads the artifact stored under `key`. `Ok(None)` when no file
    /// exists for the digest; `Err(Corrupt)` (after quarantining the
    /// file) when one exists but fails verification; `Err(Fault)` when
    /// the injected `store` fault fires (a poisoned read — the caller
    /// treats it like a miss and rebuilds).
    pub fn load(&self, key: &ArtifactKey) -> Result<Option<Artifact>, StoreError> {
        let name = file_name(key);
        let path = self.dir.join(&name);
        if !path.exists() {
            self.counters.misses.inc();
            return Ok(None);
        }
        fault_point("store").map_err(|_| StoreError::Fault)?;
        let mut timer = PhaseTimer::start(Phase::StoreLoad);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // Raced with an eviction: a plain miss.
                self.counters.misses.inc();
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        timer.set_value(bytes.len() as u64);
        match decode_artifact(&bytes).and_then(|(stored_key, artifact)| {
            if stored_key == *key {
                Ok(artifact)
            } else {
                Err("file content addresses a different key")
            }
        }) {
            Ok(artifact) => {
                self.counters.hits.inc();
                self.lock_ledger().loaded(&name, &artifact);
                Ok(Some(artifact))
            }
            Err(why) => {
                self.quarantine(&name);
                Err(StoreError::Corrupt(why))
            }
        }
    }

    /// The addressable files currently on disk, least recently used
    /// first (warm-start iterates this and promotes what it can).
    pub fn files(&self) -> Vec<PathBuf> {
        let ledger = self.lock_ledger();
        let mut names: Vec<(&String, u64)> = ledger
            .entries
            .iter()
            .map(|(name, entry)| (name, entry.last_used))
            .collect();
        names.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(b.0)));
        names
            .into_iter()
            .map(|(name, _)| self.dir.join(name))
            .collect()
    }

    /// An LRU-ordered listing of the addressable files (least recently
    /// used first, like [`ArtifactStore::files`]) with their ledger
    /// sizes and on-disk ages — what `GET /v1/store` serves. The age is
    /// read from the file mtime at call time; a file deleted by a
    /// concurrent eviction reports an age of 0 rather than failing the
    /// listing.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let listed: Vec<(String, u64, u64)> = {
            let ledger = self.lock_ledger();
            let mut rows: Vec<(&String, &Entry)> = ledger.entries.iter().collect();
            rows.sort_by(|a, b| a.1.last_used.cmp(&b.1.last_used).then_with(|| a.0.cmp(b.0)));
            rows.into_iter()
                .map(|(name, entry)| (name.clone(), entry.bytes, entry.last_used))
                .collect()
        };
        listed
            .into_iter()
            .map(|(name, bytes, last_used)| {
                let age_secs = std::fs::metadata(self.dir.join(&name))
                    .and_then(|meta| meta.modified())
                    .ok()
                    .and_then(|mtime| mtime.elapsed().ok())
                    .map(|age| age.as_secs())
                    .unwrap_or(0);
                StoreEntry {
                    file: name,
                    bytes,
                    age_secs,
                    last_used,
                }
            })
            .collect()
    }

    /// Loads and verifies an arbitrary store file (warm-start path,
    /// where the key is not known up front — it is read out of the
    /// file and re-verified against the content address). Quarantines
    /// on corruption exactly like [`ArtifactStore::load`].
    pub fn load_path(&self, path: &Path) -> Result<(ArtifactKey, Artifact), StoreError> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or(StoreError::Corrupt("unrepresentable file name"))?
            .to_owned();
        fault_point("store").map_err(|_| StoreError::Fault)?;
        let mut timer = PhaseTimer::start(Phase::StoreLoad);
        let bytes = std::fs::read(path)?;
        timer.set_value(bytes.len() as u64);
        match decode_artifact(&bytes).and_then(|(key, artifact)| {
            if file_name(&key) == name {
                Ok((key, artifact))
            } else {
                Err("file name does not match content address")
            }
        }) {
            Ok(result) => {
                self.counters.hits.inc();
                self.lock_ledger().loaded(&name, &result.1);
                Ok(result)
            }
            Err(why) => {
                self.quarantine(&name);
                Err(StoreError::Corrupt(why))
            }
        }
    }

    /// Point-in-time counters plus the current ledger totals.
    pub fn stats(&self) -> StoreStats {
        let (bytes, files) = {
            let ledger = self.lock_ledger();
            (ledger.total_bytes(), ledger.entries.len() as u64)
        };
        StoreStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            corrupt: self.counters.corrupt.get(),
            saves: self.counters.saves.get(),
            evicted: self.counters.evicted.get(),
            bytes,
            files,
        }
    }

    fn lock_ledger(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Renames a failed file out of the addressable namespace and drops
    /// it from the ledger.
    fn quarantine(&self, name: &str) {
        self.counters.corrupt.inc();
        let from = self.dir.join(name);
        let to = self.dir.join(format!("{name}.quarantined"));
        if std::fs::rename(&from, &to).is_err() {
            // Rename failed (permissions, races): delete rather than
            // risk re-reading the bad file forever.
            let _ = std::fs::remove_file(&from);
        }
        self.lock_ledger().entries.remove(name);
    }

    /// Removes least-recently-used ledger entries until the byte cap
    /// holds; returns the file names to delete (done outside the lock).
    fn collect_over_cap(&self, ledger: &mut Ledger) -> Vec<String> {
        let mut victims = Vec::new();
        while self.cap_bytes.is_some_and(|cap| ledger.total_bytes() > cap) {
            let Some(name) = ledger
                .entries
                .iter()
                .min_by_key(|(name, entry)| (entry.last_used, (*name).clone()))
                .map(|(name, _)| name.clone())
            else {
                break;
            };
            ledger.entries.remove(&name);
            victims.push(name);
        }
        victims
    }

    fn delete_evicted(&self, names: Vec<String>) {
        for name in names {
            let _ = std::fs::remove_file(self.dir.join(&name));
            self.counters.evicted.inc();
        }
    }
}
