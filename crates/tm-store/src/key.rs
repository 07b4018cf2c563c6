//! Content-address keys.
//!
//! Every artifact in the store is addressed by the SHA-256 digest of a
//! canonical, length-prefixed encoding of its [`ArtifactKey`] — the
//! same key the `Verifier` session and the service's memory budget use:
//! the artifact kind, the `(threads, vars)` instance size, the TM name
//! (with its contention-manager suffix, `"dstm"` or `"dstm+aggressive"`)
//! for run graphs and the property's short name for specification
//! artifacts — plus the store format version and the engine version, so
//! a format change or an engine change silently invalidates every old
//! file (they simply stop being addressed; the store's LRU reclaims
//! them).
//!
//! The digest is also embedded in the file itself and re-verified on
//! load, so a renamed or cross-copied file can never impersonate a
//! different key.

use tm_checker::{ArtifactKey, ArtifactKind};
use tm_lang::SafetyProperty;

use crate::codec::Reader;
use crate::format::FormatError;
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

/// The on-disk kind tag of a run graph. Tags are part of the format;
/// 3 and 4 once named compiled NFA/DFA formats that nothing wrote, and
/// stay unassigned.
pub(crate) const TAG_RUN_GRAPH: u32 = 1;

/// The on-disk kind tag of a lazy specification's interned rows.
pub(crate) const TAG_SPEC: u32 = 2;

/// The on-disk kind tag of `kind`.
pub(crate) fn kind_tag(kind: &ArtifactKind) -> u32 {
    match kind {
        ArtifactKind::RunGraph(_) => TAG_RUN_GRAPH,
        ArtifactKind::Spec(_) => TAG_SPEC,
    }
}

/// Canonical byte encoding of `key` (no versions): the kind tag, `n`
/// and `k` as `u32`, then two length-prefixed strings — the TM name of a
/// run graph and the property short name of a specification, each empty
/// for the other kind. The length prefixes keep distinct keys from
/// colliding by concatenation.
pub(crate) fn encode_key(key: &ArtifactKey) -> Vec<u8> {
    let (tm, property) = match &key.kind {
        ArtifactKind::RunGraph(name) => (name.as_str(), ""),
        ArtifactKind::Spec(property) => ("", property.short_name()),
    };
    let mut out = Vec::with_capacity(20 + tm.len() + property.len());
    out.extend_from_slice(&kind_tag(&key.kind).to_le_bytes());
    out.extend_from_slice(&(key.threads as u32).to_le_bytes());
    out.extend_from_slice(&(key.vars as u32).to_le_bytes());
    for field in [tm, property] {
        out.extend_from_slice(&(field.len() as u32).to_le_bytes());
        out.extend_from_slice(field.as_bytes());
    }
    out
}

/// Parses [`encode_key`]'s encoding back into a key, rejecting unknown
/// kind tags and property names and a string set for the wrong kind.
pub(crate) fn decode_key(bytes: &[u8]) -> Result<ArtifactKey, FormatError> {
    let mut reader = Reader::new(bytes);
    let tag = reader.u32()?;
    let threads = reader.u32()? as usize;
    let vars = reader.u32()? as usize;
    let mut strings = [""; 2];
    for slot in &mut strings {
        let len = reader.u32()? as usize;
        *slot = std::str::from_utf8(reader.bytes(len)?)
            .map_err(|_| "store key: non-UTF-8 string field")?;
    }
    reader.finish()?;
    let kind = match (tag, strings) {
        (TAG_RUN_GRAPH, [tm, ""]) => ArtifactKind::RunGraph(tm.to_owned()),
        (TAG_SPEC, ["", code]) => ArtifactKind::Spec(
            SafetyProperty::all()
                .into_iter()
                .find(|property| property.short_name() == code)
                .ok_or("store key: unknown property")?,
        ),
        (TAG_RUN_GRAPH | TAG_SPEC, _) => return Err("store key: field set for the wrong kind"),
        _ => return Err("store key: unknown artifact kind tag"),
    };
    Ok(ArtifactKey {
        threads,
        vars,
        kind,
    })
}

/// The content-address digest of `key`: SHA-256 over a
/// domain-separation tag, the format and engine versions, and the
/// canonical key encoding.
pub fn digest(key: &ArtifactKey) -> [u8; 32] {
    let mut input = Vec::with_capacity(64);
    input.extend_from_slice(b"tm-store");
    input.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    input.extend_from_slice(&ENGINE_VERSION.to_le_bytes());
    input.extend_from_slice(&encode_key(key));
    sha256(&input)
}

/// The file name of `key` under the store directory: 64 hex digits plus
/// the `.tmart` extension.
pub fn file_name(key: &ArtifactKey) -> String {
    let mut name = to_hex(&digest(key));
    name.push_str(".tmart");
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encoding_round_trips() {
        let keys = [
            ArtifactKey::run_graph("dstm+aggressive", 2, 2),
            ArtifactKey::run_graph("TL2", 3, 1),
            ArtifactKey::spec(SafetyProperty::StrictSerializability, 2, 2),
            ArtifactKey::spec(SafetyProperty::Opacity, 1, 1),
        ];
        for key in &keys {
            assert_eq!(&decode_key(&encode_key(key)).unwrap(), key);
        }
    }

    #[test]
    fn malformed_keys_are_rejected() {
        let raw = |tag: u32, tm: &str, property: &str| {
            let mut out = Vec::new();
            for word in [tag, 2, 2] {
                out.extend_from_slice(&word.to_le_bytes());
            }
            for field in [tm, property] {
                out.extend_from_slice(&(field.len() as u32).to_le_bytes());
                out.extend_from_slice(field.as_bytes());
            }
            out
        };
        let wrong_field = Err("store key: field set for the wrong kind");
        assert_eq!(
            decode_key(&raw(3, "", "")),
            Err("store key: unknown artifact kind tag")
        );
        assert_eq!(
            decode_key(&raw(2, "", "xx")),
            Err("store key: unknown property")
        );
        assert_eq!(decode_key(&raw(2, "dstm", "op")), wrong_field);
        assert_eq!(decode_key(&raw(1, "dstm", "op")), wrong_field);
        let mut trailing = raw(1, "dstm", "");
        trailing.push(0);
        assert!(decode_key(&trailing).is_err());
    }

    #[test]
    fn distinct_keys_distinct_digests() {
        let keys = [
            ArtifactKey::run_graph("dstm", 2, 2),
            ArtifactKey::run_graph("dstm", 2, 1),
            ArtifactKey::run_graph("dstm", 1, 2),
            ArtifactKey::run_graph("dstm+aggressive", 2, 2),
            ArtifactKey::spec(SafetyProperty::StrictSerializability, 2, 2),
            ArtifactKey::spec(SafetyProperty::Opacity, 2, 2),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(digest(a), digest(b), "{a:?} vs {b:?}");
            }
        }
    }

    /// Pins the digest function byte-for-byte: if this changes, every
    /// existing store file silently stops being addressed, which must be
    /// a deliberate FORMAT_VERSION / ENGINE_VERSION bump, not an
    /// accident.
    #[test]
    fn digest_is_byte_stable() {
        // Hard-coded pins computed at FORMAT_VERSION=2 / ENGINE_VERSION=1,
        // one per kind: files written by earlier builds of this format
        // are still found.
        assert_eq!(
            file_name(&ArtifactKey::run_graph("TL2", 2, 2)),
            "0ddc475c532013714735899d7d5ebc9264bae25b7083996056e1b7fe0627d439.tmart"
        );
        assert_eq!(
            file_name(&ArtifactKey::spec(SafetyProperty::Opacity, 2, 2)),
            "d2d8b216a850a99d461ceb53ab088b335285681c240eee8d897c7c3d7b6116c2.tmart"
        );
        // A run graph named like a property is not that property's spec:
        // the kind tag and the string's slot both differ.
        assert_ne!(
            digest(&ArtifactKey::run_graph("op", 2, 2)),
            digest(&ArtifactKey::spec(SafetyProperty::Opacity, 2, 2))
        );
    }
}
