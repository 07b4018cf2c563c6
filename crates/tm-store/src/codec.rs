//! Binary codecs for the artifact payload sections.
//!
//! Everything is little-endian and fixed-width. Domain values are
//! encoded structurally (no `Debug`/string round-trips): a
//! [`RunLabel`] is 7 bytes, a [`DetState`] 64 bytes. Decoders never
//! trust lengths or ids — array lengths are bounds-checked against the
//! remaining payload *before* allocation, and every id is range-checked
//! before the panicking constructors
//! ([`VarId::new`] / [`ThreadId::new`]) run. Structural validity of
//! the decoded CSR data is then enforced by the `from_parts`
//! constructors in `tm-automata`, so a file that passes the checksum
//! layer but carries nonsense still comes back as a clean
//! [`FormatError`], never a panic or an inconsistent artifact.
//!
//! A run graph is stored as four sections: its labels, its CSR row
//! offsets (`u32`), and one `u32` target and one `u16` label id per
//! edge. The per-label class masks are not stored: loading recomputes
//! them with [`RunLabel::class`], as the build does. A specification's
//! source is not stored either: loading rebuilds it from the key.

use std::time::Duration;

use tm_algorithms::{Action, ExtCommand, RunLabel};
use tm_automata::{CompiledRunGraph, RunGraphParts};
use tm_checker::{Artifact, ArtifactKey, ArtifactKind};
use tm_lang::{Command, ThreadId, VarId};
use tm_spec::{DetPhase, DetState, DetThread};

use crate::format::{FormatError, SectionWriter, Sections};
use crate::key::{decode_key, digest, encode_key, kind_tag};

/// Maximum id value representable in the workspace's `IdSet` universe;
/// decoders reject anything at or above it before calling the
/// panicking `VarId::new` / `ThreadId::new`.
const MAX_IDS: u8 = 16;

// ---------------------------------------------------------------------------
// Primitive reader

/// A bounds-checked little-endian cursor over a payload slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    /// Consumes `len` raw bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], FormatError> {
        if len > self.bytes.len() {
            return Err("payload truncated");
        }
        let (head, tail) = self.bytes.split_at(len);
        self.bytes = tail;
        Ok(head)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.bytes(1)?[0])
    }

    /// Consumes a `u16` LE.
    pub fn u16(&mut self) -> Result<u16, FormatError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Consumes a `u32` LE.
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Consumes a `u64` LE.
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Demands the payload be fully consumed.
    pub fn finish(&self) -> Result<(), FormatError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err("trailing bytes in section payload")
        }
    }

    /// A length prefix for elements of `elem_size` bytes, verified to
    /// fit the remaining payload before any allocation happens.
    fn checked_len(&mut self, elem_size: usize) -> Result<usize, FormatError> {
        let count = self.u32()? as usize;
        if count
            .checked_mul(elem_size)
            .is_none_or(|total| total > self.bytes.len())
        {
            return Err("array length exceeds payload");
        }
        Ok(count)
    }
}

// ---------------------------------------------------------------------------
// Arrays

fn encode_u32s(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + values.len() * 4);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_u32s(payload: &[u8]) -> Result<Vec<u32>, FormatError> {
    let mut reader = Reader::new(payload);
    let count = reader.checked_len(4)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(reader.u32()?);
    }
    reader.finish()?;
    Ok(out)
}

fn encode_u16s(values: &[u16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + values.len() * 2);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_u16s(payload: &[u8]) -> Result<Vec<u16>, FormatError> {
    let mut reader = Reader::new(payload);
    let count = reader.checked_len(2)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(reader.u16()?);
    }
    reader.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Domain values

fn var_u8(var: VarId) -> u8 {
    var.index() as u8
}

fn decode_var(byte: u8) -> Result<VarId, FormatError> {
    if byte >= MAX_IDS {
        return Err("variable id out of range");
    }
    Ok(VarId::new(byte as usize))
}

fn decode_thread(byte: u8) -> Result<ThreadId, FormatError> {
    if byte >= MAX_IDS {
        return Err("thread id out of range");
    }
    Ok(ThreadId::new(byte as usize))
}

fn command_bytes(command: Command) -> (u8, u8) {
    match command {
        Command::Read(v) => (0, var_u8(v)),
        Command::Write(v) => (1, var_u8(v)),
        Command::Commit => (2, 0),
    }
}

fn decode_command(tag: u8, var: u8) -> Result<Command, FormatError> {
    match tag {
        0 => Ok(Command::Read(decode_var(var)?)),
        1 => Ok(Command::Write(decode_var(var)?)),
        2 if var == 0 => Ok(Command::Commit),
        _ => Err("bad command encoding"),
    }
}

fn ext_command_bytes(ext: ExtCommand) -> (u8, u8, u8) {
    match ext {
        ExtCommand::Base(c) => {
            let (tag, var) = command_bytes(c);
            (0, tag, var)
        }
        ExtCommand::RLock(v) => (1, var_u8(v), 0),
        ExtCommand::WLock(v) => (2, var_u8(v), 0),
        ExtCommand::Own(v) => (3, var_u8(v), 0),
        ExtCommand::Validate => (4, 0, 0),
        ExtCommand::Lock(v) => (5, var_u8(v), 0),
        ExtCommand::RValidate => (6, 0, 0),
        ExtCommand::ChkLock => (7, 0, 0),
    }
}

fn decode_ext_command(tag: u8, b0: u8, b1: u8) -> Result<ExtCommand, FormatError> {
    match (tag, b0, b1) {
        (0, tag, var) => Ok(ExtCommand::Base(decode_command(tag, var)?)),
        (1, v, 0) => Ok(ExtCommand::RLock(decode_var(v)?)),
        (2, v, 0) => Ok(ExtCommand::WLock(decode_var(v)?)),
        (3, v, 0) => Ok(ExtCommand::Own(decode_var(v)?)),
        (4, 0, 0) => Ok(ExtCommand::Validate),
        (5, v, 0) => Ok(ExtCommand::Lock(decode_var(v)?)),
        (6, 0, 0) => Ok(ExtCommand::RValidate),
        (7, 0, 0) => Ok(ExtCommand::ChkLock),
        _ => Err("bad extended-command encoding"),
    }
}

/// `RunLabel` → 7 bytes:
/// `[thread, cmd tag, cmd var, action tag, ext tag, ext b0, ext b1]`.
fn encode_run_label(out: &mut Vec<u8>, label: RunLabel) {
    let (cmd_tag, cmd_var) = command_bytes(label.command);
    let (action_tag, ext) = match label.action {
        Action::Internal(d) => (0u8, ext_command_bytes(d)),
        Action::Complete(d) => (1, ext_command_bytes(d)),
        Action::Abort => (2, (0, 0, 0)),
    };
    out.extend_from_slice(&[
        var_u8_thread(label.thread),
        cmd_tag,
        cmd_var,
        action_tag,
        ext.0,
        ext.1,
        ext.2,
    ]);
}

fn var_u8_thread(thread: ThreadId) -> u8 {
    thread.index() as u8
}

fn decode_run_label(reader: &mut Reader) -> Result<RunLabel, FormatError> {
    let raw = reader.bytes(7)?;
    let thread = decode_thread(raw[0])?;
    let command = decode_command(raw[1], raw[2])?;
    let action = match raw[3] {
        0 => Action::Internal(decode_ext_command(raw[4], raw[5], raw[6])?),
        1 => Action::Complete(decode_ext_command(raw[4], raw[5], raw[6])?),
        2 if raw[4] == 0 && raw[5] == 0 && raw[6] == 0 => Action::Abort,
        _ => return Err("bad action encoding"),
    };
    Ok(RunLabel {
        thread,
        command,
        action,
    })
}

fn encode_run_labels(labels: &[RunLabel]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + labels.len() * 7);
    out.extend_from_slice(&(labels.len() as u32).to_le_bytes());
    for &label in labels {
        encode_run_label(&mut out, label);
    }
    out
}

fn decode_run_labels(payload: &[u8]) -> Result<Vec<RunLabel>, FormatError> {
    let mut reader = Reader::new(payload);
    let count = reader.checked_len(7)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decode_run_label(&mut reader)?);
    }
    reader.finish()?;
    Ok(out)
}

/// `DetThread` → 16 bytes:
/// `[phase, valid, rs u16, ws u16, prs u16, pws u16, wp u16, sp u16, 0, 0]`
/// (sets serialized through `IdSet::bits`). A `DetState` is its four
/// thread records back to back, 64 bytes.
fn encode_det_state(out: &mut Vec<u8>, state: &DetState) {
    for thread in &state.0 {
        out.push(match thread.phase {
            DetPhase::Finished => 0,
            DetPhase::Started => 1,
            DetPhase::Pending => 2,
        });
        out.push(thread.valid as u8);
        for bits in [
            thread.rs.bits(),
            thread.ws.bits(),
            thread.prs.bits(),
            thread.pws.bits(),
            thread.wp.bits(),
            thread.sp.bits(),
        ] {
            out.extend_from_slice(&bits.to_le_bytes());
        }
        out.extend_from_slice(&[0, 0]);
    }
}

fn decode_det_state(reader: &mut Reader) -> Result<DetState, FormatError> {
    let mut state = DetState::default();
    for thread in &mut state.0 {
        let phase = match reader.u8()? {
            0 => DetPhase::Finished,
            1 => DetPhase::Started,
            2 => DetPhase::Pending,
            _ => return Err("bad thread phase"),
        };
        let valid = match reader.u8()? {
            0 => false,
            1 => true,
            _ => return Err("bad validity flag"),
        };
        *thread = DetThread {
            phase,
            valid,
            rs: tm_lang::VarSet::from_bits(reader.u16()?),
            ws: tm_lang::VarSet::from_bits(reader.u16()?),
            prs: tm_lang::VarSet::from_bits(reader.u16()?),
            pws: tm_lang::VarSet::from_bits(reader.u16()?),
            wp: tm_lang::ThreadSet::from_bits(reader.u16()?),
            sp: tm_lang::ThreadSet::from_bits(reader.u16()?),
        };
        if reader.bytes(2)? != [0, 0] {
            return Err("nonzero thread-record padding");
        }
    }
    Ok(state)
}

fn encode_det_states(states: &[DetState]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + states.len() * 64);
    out.extend_from_slice(&(states.len() as u32).to_le_bytes());
    for state in states {
        encode_det_state(&mut out, state);
    }
    out
}

fn decode_det_states(payload: &[u8]) -> Result<Vec<DetState>, FormatError> {
    let mut reader = Reader::new(payload);
    let count = reader.checked_len(64)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decode_det_state(&mut reader)?);
    }
    reader.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Artifacts

/// Section tags. `KEY`/`META` are shared across kinds; tags ≥ 3 are
/// kind-specific.
const SEC_KEY: u32 = 1;
const SEC_META: u32 = 2;

const SEC_RG_LABELS: u32 = 3;
const SEC_RG_ROW_START: u32 = 4;
const SEC_RG_EDGE_TARGET: u32 = 5;
const SEC_RG_EDGE_LABEL: u32 = 6;

const SEC_SPEC_STATES: u32 = 3;
const SEC_SPEC_PRESENT: u32 = 4;
const SEC_SPEC_ROWS: u32 = 5;

/// Serializes `artifact` under `key` into a complete `.tmart` file
/// image (header, checksums, payloads), reading the artifact in place.
///
/// # Panics
///
/// If `key.kind` disagrees with the artifact's kind.
pub fn encode_artifact(key: &ArtifactKey, artifact: &Artifact) -> Vec<u8> {
    let mut writer = SectionWriter::new();
    writer.section(SEC_KEY, encode_key(key));
    let build_ns = u64::try_from(artifact.build_time().as_nanos()).unwrap_or(u64::MAX);
    match (&key.kind, artifact) {
        (ArtifactKind::RunGraph(_), Artifact::RunGraph { graph, states, .. }) => {
            let mut meta = Vec::with_capacity(16);
            meta.extend_from_slice(&(*states as u64).to_le_bytes());
            meta.extend_from_slice(&build_ns.to_le_bytes());
            writer.section(SEC_META, meta);
            let (labels, row_start, edge_target, edge_label) = graph.parts();
            writer.section(SEC_RG_LABELS, encode_run_labels(labels));
            writer.section(SEC_RG_ROW_START, encode_u32s(row_start));
            writer.section(SEC_RG_EDGE_TARGET, encode_u32s(edge_target));
            writer.section(SEC_RG_EDGE_LABEL, encode_u16s(edge_label));
        }
        (ArtifactKind::Spec(_), Artifact::Spec { cache, .. }) => {
            let (states, rows) = cache.parts();
            writer.section(SEC_META, build_ns.to_le_bytes().to_vec());
            writer.section(SEC_SPEC_STATES, encode_det_states(states));
            let mut present = Vec::with_capacity(4 + rows.len().div_ceil(8));
            present.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            present.resize(4 + rows.len().div_ceil(8), 0);
            for (i, row) in rows.iter().enumerate() {
                if row.is_some() {
                    present[4 + i / 8] |= 1 << (i % 8);
                }
            }
            writer.section(SEC_SPEC_PRESENT, present);
            // Rows are uniform-width; record the width once, then the
            // present rows back to back in index order.
            let width = rows
                .iter()
                .flatten()
                .map(|row| row.len())
                .next()
                .unwrap_or(0);
            let mut payload = Vec::with_capacity(4 + rows.iter().flatten().count() * width * 4);
            payload.extend_from_slice(&(width as u32).to_le_bytes());
            for row in rows.iter().flatten() {
                debug_assert_eq!(row.len(), width, "spec rows must be uniform-width");
                for &entry in row.iter() {
                    payload.extend_from_slice(&entry.to_le_bytes());
                }
            }
            writer.section(SEC_SPEC_ROWS, payload);
        }
        _ => panic!("store key / artifact kind mismatch"),
    }
    writer.finish(kind_tag(&key.kind), digest(key))
}

/// Parses, verifies, and decodes a `.tmart` file image. Checks the
/// container checksums, then that the embedded key re-digests to the
/// embedded content address (so a renamed or tampered-key file cannot
/// impersonate another artifact), then rebuilds the artifact through
/// the validating constructors: `CompiledRunGraph::from_parts` for a
/// run graph, and [`Artifact::spec_from_parts`] — `SpecCache::from_parts`
/// against the specification source of the key — for interned
/// specification rows.
pub fn decode_artifact(bytes: &[u8]) -> Result<(ArtifactKey, Artifact), FormatError> {
    let sections = Sections::parse(bytes)?;
    let key = decode_key(sections.get(SEC_KEY)?)?;
    if kind_tag(&key.kind) != sections.kind {
        return Err("key kind disagrees with header kind");
    }
    if digest(&key) != sections.digest {
        return Err("embedded key does not match content address");
    }
    let artifact = match key.kind {
        ArtifactKind::RunGraph(_) => {
            let mut meta = Reader::new(sections.get(SEC_META)?);
            let states = usize::try_from(meta.u64()?).map_err(|_| "states overflow")?;
            let build_time = Duration::from_nanos(meta.u64()?);
            meta.finish()?;
            let parts = RunGraphParts {
                labels: decode_run_labels(sections.get(SEC_RG_LABELS)?)?,
                row_start: decode_u32s(sections.get(SEC_RG_ROW_START)?)?,
                edge_target: decode_u32s(sections.get(SEC_RG_EDGE_TARGET)?)?,
                edge_label: decode_u16s(sections.get(SEC_RG_EDGE_LABEL)?)?,
            };
            Artifact::RunGraph {
                graph: CompiledRunGraph::from_parts(parts, |label| label.class())?,
                states,
                build_time,
            }
        }
        ArtifactKind::Spec(property) => {
            let mut meta = Reader::new(sections.get(SEC_META)?);
            let build_time = Duration::from_nanos(meta.u64()?);
            meta.finish()?;
            let states = decode_det_states(sections.get(SEC_SPEC_STATES)?)?;
            let mut present = Reader::new(sections.get(SEC_SPEC_PRESENT)?);
            let count = present.u32()? as usize;
            if count != states.len() {
                return Err("row bitmap length disagrees with state count");
            }
            let bitmap = present.bytes(count.div_ceil(8))?;
            present.finish()?;
            if !count.is_multiple_of(8) && bitmap[count / 8] >> (count % 8) != 0 {
                return Err("nonzero bits past the end of the row bitmap");
            }
            let mut rows_reader = Reader::new(sections.get(SEC_SPEC_ROWS)?);
            let width = rows_reader.u32()? as usize;
            let mut rows = Vec::with_capacity(count);
            for i in 0..count {
                if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                    let mut row = Vec::with_capacity(width);
                    for _ in 0..width {
                        row.push(rows_reader.u32()?);
                    }
                    rows.push(Some(row.into_boxed_slice()));
                } else {
                    rows.push(None);
                }
            }
            rows_reader.finish()?;
            Artifact::spec_from_parts(property, key.threads, key.vars, states, rows, build_time)?
        }
    };
    Ok((key, artifact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_lang::{ThreadSet, VarSet};

    fn labels() -> Vec<RunLabel> {
        let v0 = VarId::new(0);
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        vec![
            RunLabel {
                thread: t0,
                command: Command::Read(v0),
                action: Action::Complete(ExtCommand::Base(Command::Read(v0))),
            },
            RunLabel {
                thread: t1,
                command: Command::Write(v0),
                action: Action::Internal(ExtCommand::Own(v0)),
            },
            RunLabel {
                thread: t1,
                command: Command::Commit,
                action: Action::Abort,
            },
            RunLabel {
                thread: t0,
                command: Command::Commit,
                action: Action::Internal(ExtCommand::ChkLock),
            },
        ]
    }

    #[test]
    fn run_labels_round_trip() {
        let original = labels();
        let encoded = encode_run_labels(&original);
        assert_eq!(decode_run_labels(&encoded).unwrap(), original);
    }

    #[test]
    fn det_states_round_trip() {
        let mut state = DetState::default();
        state.0[0].phase = DetPhase::Started;
        state.0[0].rs = VarSet::from_bits(0b101);
        state.0[0].wp = ThreadSet::from_bits(0b0110);
        state.0[2].phase = DetPhase::Pending;
        state.0[2].valid = false;
        state.0[2].ws = VarSet::from_bits(0xFFFF);
        let original = vec![DetState::default(), state];
        let encoded = encode_det_states(&original);
        assert_eq!(decode_det_states(&encoded).unwrap(), original);
    }

    #[test]
    fn out_of_range_ids_are_rejected_not_panicked() {
        // thread byte 16 in a run label
        let mut encoded = encode_run_labels(&labels());
        encoded[4] = 16;
        assert!(decode_run_labels(&encoded).is_err());
        // oversized array length prefix must not allocate or panic
        let bogus = 0xFFFF_FFFFu32.to_le_bytes().to_vec();
        assert_eq!(decode_u32s(&bogus).unwrap_err(), "array length exceeds payload");
    }
}
