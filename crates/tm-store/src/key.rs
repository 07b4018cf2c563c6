//! Content-address keys.
//!
//! Every artifact in the store is addressed by the SHA-256 digest of a
//! canonical, length-prefixed encoding of *what was built*: the artifact
//! kind, the TM name (with its contention-manager suffix, `"dstm"` or
//! `"dstm+aggressive"`) for run graphs, the property for specification
//! artifacts, and the `(threads, vars)` instance size — plus the store
//! format version and the engine version, so a format change or an
//! engine change silently invalidates every old file (they simply stop
//! being addressed; the store's LRU reclaims them).
//!
//! The digest is also embedded in the file itself and re-verified on
//! load, so a renamed or cross-copied file can never impersonate a
//! different key.

use crate::sha256::{sha256, to_hex};

/// Bumped whenever the on-disk byte format changes incompatibly.
/// Version 2 stores run graphs as two edge columns (`u32` target, `u16`
/// label id) without per-edge sources or masks, and drops the key's
/// specification-mode field.
pub const FORMAT_VERSION: u32 = 2;

/// Bumped whenever compiled-artifact *semantics* change — anything that
/// could make a previously stored artifact differ from what the current
/// engine would build (exploration order, CSR layout conventions,
/// specification encoding).
pub const ENGINE_VERSION: u32 = 1;

/// What kind of artifact a key addresses. The discriminants are part of
/// the on-disk format.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StoreKind {
    /// A compiled TM run graph (`CompiledRunGraph<RunLabel>`) plus its
    /// build metadata.
    RunGraph,
    /// The interned rows of a lazily stepped deterministic specification
    /// (`SpecCache` contents).
    LazySpec,
}

impl StoreKind {
    /// The on-disk tag.
    pub fn as_tag(self) -> u32 {
        match self {
            StoreKind::RunGraph => 1,
            StoreKind::LazySpec => 2,
        }
    }

    /// Inverse of [`StoreKind::as_tag`]; `None` for every other tag.
    /// (Tags 3 and 4 once named compiled NFA/DFA formats that nothing
    /// wrote; they stay unassigned.)
    pub fn from_tag(tag: u32) -> Option<StoreKind> {
        match tag {
            1 => Some(StoreKind::RunGraph),
            2 => Some(StoreKind::LazySpec),
            _ => None,
        }
    }

    /// Short human-readable name (logs, stats).
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::RunGraph => "run_graph",
            StoreKind::LazySpec => "lazy_spec",
        }
    }
}

/// The full identity of a stored artifact. Fields that don't apply to a
/// kind are empty strings (`tm` for specification artifacts, `property`
/// for run graphs); the kind tag keeps the encodings disjoint
/// regardless.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StoreKey {
    /// Artifact kind.
    pub kind: StoreKind,
    /// TM name with contention-manager suffix (`"TL2"`,
    /// `"dstm+aggressive"`, …); empty for specification artifacts.
    pub tm: String,
    /// Safety-property short name (`"ss"` / `"op"`); empty for run
    /// graphs.
    pub property: String,
    /// Number of threads `n`.
    pub threads: u32,
    /// Number of shared variables `k`.
    pub vars: u32,
}

impl StoreKey {
    /// Key for a compiled run graph of `tm` at instance size `(n, k)`.
    pub fn run_graph(tm: &str, threads: usize, vars: usize) -> StoreKey {
        StoreKey {
            kind: StoreKind::RunGraph,
            tm: tm.to_owned(),
            property: String::new(),
            threads: threads as u32,
            vars: vars as u32,
        }
    }

    /// Key for the interned rows of a lazily stepped specification.
    pub fn lazy_spec(property: &str, threads: usize, vars: usize) -> StoreKey {
        StoreKey {
            kind: StoreKind::LazySpec,
            tm: String::new(),
            property: property.to_owned(),
            threads: threads as u32,
            vars: vars as u32,
        }
    }

    /// Canonical byte encoding of the key itself (no versions). Each
    /// string is length-prefixed, so distinct field values can never
    /// collide by concatenation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.tm.len() + self.property.len());
        out.extend_from_slice(&self.kind.as_tag().to_le_bytes());
        out.extend_from_slice(&self.threads.to_le_bytes());
        out.extend_from_slice(&self.vars.to_le_bytes());
        for field in [&self.tm, &self.property] {
            out.extend_from_slice(&(field.len() as u32).to_le_bytes());
            out.extend_from_slice(field.as_bytes());
        }
        out
    }

    /// Parses the canonical encoding back into a key.
    pub fn decode(bytes: &[u8]) -> Result<StoreKey, &'static str> {
        let mut reader = crate::codec::Reader::new(bytes);
        let kind =
            StoreKind::from_tag(reader.u32()?).ok_or("store key: unknown artifact kind tag")?;
        let threads = reader.u32()?;
        let vars = reader.u32()?;
        let mut strings = [const { String::new() }; 2];
        for slot in &mut strings {
            let len = reader.u32()? as usize;
            let raw = reader.bytes(len)?;
            *slot = std::str::from_utf8(raw)
                .map_err(|_| "store key: non-UTF-8 string field")?
                .to_owned();
        }
        if !reader.is_empty() {
            return Err("store key: trailing bytes");
        }
        let [tm, property] = strings;
        Ok(StoreKey {
            kind,
            tm,
            property,
            threads,
            vars,
        })
    }

    /// The content-address digest: SHA-256 over a domain-separation tag,
    /// the format and engine versions, and the canonical key encoding.
    pub fn digest(&self) -> [u8; 32] {
        let mut input = Vec::with_capacity(64);
        input.extend_from_slice(b"tm-store");
        input.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        input.extend_from_slice(&ENGINE_VERSION.to_le_bytes());
        input.extend_from_slice(&self.encode());
        sha256(&input)
    }

    /// The file name under the store directory: 64 hex digits plus the
    /// `.tmart` extension.
    pub fn file_name(&self) -> String {
        let mut name = to_hex(&self.digest());
        name.push_str(".tmart");
        name
    }

    /// Human-readable description (logs, error messages).
    pub fn describe(&self) -> String {
        match self.kind {
            StoreKind::RunGraph => {
                format!("run_graph {}:{}:{}", self.tm, self.threads, self.vars)
            }
            StoreKind::LazySpec => format!(
                "lazy_spec {}:{}:{}",
                self.property, self.threads, self.vars
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encoding_round_trips() {
        let keys = [
            StoreKey::run_graph("dstm+aggressive", 2, 2),
            StoreKey::run_graph("TL2", 3, 1),
            StoreKey::lazy_spec("ss", 2, 2),
            StoreKey::lazy_spec("op", 1, 1),
        ];
        for key in &keys {
            assert_eq!(&StoreKey::decode(&key.encode()).unwrap(), key);
        }
    }

    #[test]
    fn distinct_keys_distinct_digests() {
        let keys = [
            StoreKey::run_graph("dstm", 2, 2),
            StoreKey::run_graph("dstm", 2, 1),
            StoreKey::run_graph("dstm", 1, 2),
            StoreKey::run_graph("dstm+aggressive", 2, 2),
            StoreKey::lazy_spec("ss", 2, 2),
            StoreKey::lazy_spec("op", 2, 2),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.digest(), b.digest(), "{a:?} vs {b:?}");
            }
        }
    }

    /// Pins the digest function byte-for-byte: if this changes, every
    /// existing store file silently stops being addressed, which must be
    /// a deliberate FORMAT_VERSION / ENGINE_VERSION bump, not an
    /// accident.
    #[test]
    fn digest_is_byte_stable() {
        let key = StoreKey::run_graph("TL2", 2, 2);
        // Hard-coded pin computed at FORMAT_VERSION=2 / ENGINE_VERSION=1.
        assert_eq!(
            key.file_name(),
            "0ddc475c532013714735899d7d5ebc9264bae25b7083996056e1b7fe0627d439.tmart"
        );
        // Field separation: moving a character between fields changes
        // the digest (length prefixes prevent concatenation collisions).
        let mut a = StoreKey::lazy_spec("s", 2, 2);
        a.tm = "s".to_owned();
        let b = StoreKey::lazy_spec("ss", 2, 2);
        assert_ne!(a.digest(), b.digest());
    }
}
