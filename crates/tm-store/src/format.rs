//! The `.tmart` container format.
//!
//! A stable little-endian layout, one artifact per file:
//!
//! ```text
//! magic            b"TMARTSTO"                           8 bytes
//! format_version   u32 LE                                4 bytes
//! engine_version   u32 LE                                4 bytes
//! kind             u32 LE (1 run graph, 2 lazy spec)     4 bytes
//! section_count    u32 LE                                4 bytes
//! digest           key content-address                  32 bytes
//! section table    per section:
//!                    tag       u32 LE
//!                    len       u64 LE
//!                    checksum  u64 LE  (sha256(payload)[..8])
//! header_checksum  u64 LE over all preceding bytes       8 bytes
//! payloads         section payloads, concatenated in
//!                  table order, no padding
//! ```
//!
//! Integrity: each payload is covered by its section checksum; the
//! fixed header and the section table (including every section
//! checksum) are covered by the header checksum; the parser also
//! demands the file length match the table exactly. A flip of any
//! single bit anywhere in the file therefore fails verification —
//! payload bits break a section checksum, header/table bits break the
//! header checksum, and checksum bits themselves stop matching.
//! Corruption is reported as [`FormatError`]; the store quarantines
//! the file and the caller rebuilds.

use crate::key::{ENGINE_VERSION, FORMAT_VERSION, TAG_RUN_GRAPH, TAG_SPEC};
use crate::sha256::checksum64;

/// File magic: "TM ARTifact STOre".
pub const MAGIC: [u8; 8] = *b"TMARTSTO";

/// Why a file failed to parse. The messages are stable enough to log
/// and assert on in tests.
pub type FormatError = &'static str;

/// Builds a `.tmart` image section by section.
pub struct SectionWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl Default for SectionWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SectionWriter {
    /// An empty writer.
    pub fn new() -> SectionWriter {
        SectionWriter {
            sections: Vec::new(),
        }
    }

    /// Appends a section. Tags must be unique within a file; the order
    /// of calls is the on-disk order.
    pub fn section(&mut self, tag: u32, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(t, _)| *t != tag),
            "duplicate section tag {tag}"
        );
        self.sections.push((tag, payload));
    }

    /// Serializes the container: header, checksummed section table,
    /// payloads.
    pub fn finish(self, kind: u32, digest: [u8; 32]) -> Vec<u8> {
        let table_len = self.sections.len() * (4 + 8 + 8);
        let header_len = MAGIC.len() + 4 + 4 + 4 + 4 + 32 + table_len;
        let payload_len: usize = self.sections.iter().map(|(_, p)| p.len()).sum();
        let mut out = Vec::with_capacity(header_len + 8 + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&ENGINE_VERSION.to_le_bytes());
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&digest);
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&checksum64(payload).to_le_bytes());
        }
        out.extend_from_slice(&checksum64(&out).to_le_bytes());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A parsed, integrity-verified `.tmart` image borrowing the file
/// bytes.
#[derive(Debug)]
pub struct Sections<'a> {
    /// The artifact kind tag declared by the header (1 run graph, 2 lazy
    /// spec).
    pub kind: u32,
    /// The content-address digest embedded in the header.
    pub digest: [u8; 32],
    entries: Vec<(u32, &'a [u8])>,
}

impl<'a> Sections<'a> {
    /// Parses and fully verifies a container image: magic, versions,
    /// header checksum, exact total length, and every section checksum.
    pub fn parse(bytes: &'a [u8]) -> Result<Sections<'a>, FormatError> {
        let fixed = MAGIC.len() + 4 + 4 + 4 + 4 + 32;
        if bytes.len() < fixed {
            return Err("file shorter than the fixed header");
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err("bad magic");
        }
        let word =
            |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        if word(8) != FORMAT_VERSION {
            return Err("format version mismatch");
        }
        if word(12) != ENGINE_VERSION {
            return Err("engine version mismatch");
        }
        let kind = word(16);
        if !matches!(kind, TAG_RUN_GRAPH | TAG_SPEC) {
            return Err("unknown artifact kind tag");
        }
        let section_count = word(20) as usize;
        let mut digest = [0u8; 32];
        digest.copy_from_slice(&bytes[24..56]);
        let table_len = section_count
            .checked_mul(4 + 8 + 8)
            .ok_or("section table overflow")?;
        let header_len = fixed
            .checked_add(table_len)
            .ok_or("section table overflow")?;
        if bytes.len() < header_len + 8 {
            return Err("file truncated inside the section table");
        }
        let stored_header_sum = u64::from_le_bytes(
            bytes[header_len..header_len + 8]
                .try_into()
                .expect("8 bytes"),
        );
        if checksum64(&bytes[..header_len]) != stored_header_sum {
            return Err("header checksum mismatch");
        }
        // The header is now trusted; walk the table and carve payloads.
        let mut entries = Vec::with_capacity(section_count);
        let mut offset = header_len + 8;
        for i in 0..section_count {
            let at = fixed + i * (4 + 8 + 8);
            let tag = word(at);
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let sum = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().expect("8 bytes"));
            let len = usize::try_from(len).map_err(|_| "section length overflow")?;
            let end = offset.checked_add(len).ok_or("section length overflow")?;
            if end > bytes.len() {
                return Err("file truncated inside a section payload");
            }
            let payload = &bytes[offset..end];
            if checksum64(payload) != sum {
                return Err("section checksum mismatch");
            }
            if entries.iter().any(|(t, _)| *t == tag) {
                return Err("duplicate section tag");
            }
            entries.push((tag, payload));
            offset = end;
        }
        if offset != bytes.len() {
            return Err("trailing bytes after the last section");
        }
        Ok(Sections {
            kind,
            digest,
            entries,
        })
    }

    /// The payload of the section tagged `tag`.
    pub fn get(&self, tag: u32) -> Result<&'a [u8], FormatError> {
        self.entries
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or("missing required section")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut writer = SectionWriter::new();
        writer.section(1, b"first payload".to_vec());
        writer.section(2, vec![]);
        writer.section(7, vec![0xAB; 100]);
        writer.finish(TAG_RUN_GRAPH, [0x5A; 32])
    }

    #[test]
    fn round_trip() {
        let image = sample();
        let sections = Sections::parse(&image).unwrap();
        assert_eq!(sections.kind, TAG_RUN_GRAPH);
        assert_eq!(sections.digest, [0x5A; 32]);
        assert_eq!(sections.get(1).unwrap(), b"first payload");
        assert_eq!(sections.get(2).unwrap(), b"");
        assert_eq!(sections.get(7).unwrap(), &[0xAB; 100][..]);
        assert!(sections.get(3).is_err());
    }

    /// Every single-bit flip anywhere in the image must be rejected —
    /// this is the integrity contract the store's quarantine path relies
    /// on.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let image = sample();
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut corrupt = image.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Sections::parse(&corrupt).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let image = sample();
        for len in 0..image.len() {
            assert!(
                Sections::parse(&image[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut image = sample();
        image.push(0);
        assert_eq!(
            Sections::parse(&image).unwrap_err(),
            "trailing bytes after the last section"
        );
    }
}
