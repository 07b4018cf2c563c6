//! # tm-store — persistent content-addressed artifact store
//!
//! Compiled verification artifacts — TM run graphs
//! ([`tm_automata::CompiledRunGraph`]) and interned lazy-specification
//! rows ([`tm_automata::SpecCache`] contents), held by a session as one
//! [`tm_checker::Artifact`] — are expensive to build and
//! entirely deterministic: the same engine at the same version,
//! given the same TM, contention manager, property, and instance size
//! `(n, k)`, always builds bit-identical CSR arrays. This crate
//! persists them so a restarted `tm-serve` answers its warm roster
//! with **zero rebuilds**, and so the in-memory budget can *demote*
//! cold artifacts to disk instead of discarding them.
//!
//! Layers, bottom up:
//!
//! * [`sha256`] — a std-only SHA-256 (the workspace builds offline;
//!   see the shims policy in the workspace manifest);
//! * the content address ([`digest`], [`file_name`]) — SHA-256 over a
//!   canonical length-prefixed encoding of the artifact's
//!   [`tm_checker::ArtifactKey`] (kind, `n`, `k`, then the TM name of a
//!   run graph or the property of a specification) plus the format and
//!   engine versions, so any incompatible change silently retires old
//!   files. The key is the one the `Verifier` session and the service's
//!   memory budget use; there is no store-side key type;
//! * the `.tmart` container (`format`) — magic, versions, a
//!   checksummed section table, per-section checksums; any single-bit
//!   corruption or truncation anywhere in a file is detected;
//! * the codecs (`codec`) — fixed-width little-endian encodings of
//!   the resident [`tm_checker::Artifact`], written straight from the
//!   session's copy, with every id range-checked and every decoded
//!   structure re-validated through the `from_parts` constructors in
//!   `tm-automata`: `CompiledRunGraph::from_parts`, which also
//!   recomputes the per-label class masks the file does not store, and
//!   `SpecCache::from_parts` against the specification source rebuilt
//!   from the key, after `Artifact::spec_from_parts` has checked that
//!   every stored specification state is in the quotient's normal form;
//! * [`ArtifactStore`] — the directory: atomic temp-file + rename
//!   writes (a specification file is rewritten when its cache has grown
//!   more rows), whole-file reads, quarantine of corrupt files, an LRU
//!   byte cap, and counters for the service metrics.
//!
//! Trust model: nothing read from disk is believed until the
//! container checksums pass, the embedded key re-digests to the
//! content address, and the structural validators accept the decoded
//! arrays. A file failing any of those is renamed to
//! `*.quarantined` and the caller rebuilds — a corrupt store can cost
//! time, never correctness.
//!
//! Fault injection: `TM_FAULT=store:<nth>` arms the `store` site,
//! which fires inside save (before the atomic rename — a crash
//! mid-write) and load (a poisoned read). See [`tm_automata::fault`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod format;
mod key;
pub mod sha256;
mod store;

pub use codec::Reader;
pub use format::{FormatError, SectionWriter, Sections, MAGIC};
pub use key::{digest, file_name, ENGINE_VERSION, FORMAT_VERSION};
pub use store::{ArtifactStore, StoreConfig, StoreCounters, StoreEntry, StoreError, StoreStats};

// Re-exported for integration tests and the service layer, which
// encode/decode images without going through a directory.
pub use codec::{decode_artifact, encode_artifact};
