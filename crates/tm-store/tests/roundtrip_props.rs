//! Property tests for the artifact codecs: serialize → deserialize is
//! the identity on randomly generated compiled artifacts, digests are
//! byte-stable, and every single-bit corruption of an encoded file is
//! detected and rejected.

use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use tm_algorithms::{Action, ExtCommand, RunLabel};
use tm_automata::{CompiledRunGraph, DeterministicTransitionSystem, RunGraphParts, NO_STATE};
use tm_checker::{Artifact, ArtifactKey};
use tm_lang::{Command, SafetyProperty, ThreadId, ThreadSet, VarId, VarSet};
use tm_spec::{spec_alphabet, DetPhase, DetSpec, DetState};
use tm_store::{decode_artifact, encode_artifact};

/// A fixed universe of distinct run labels to draw edge labels from.
fn label_universe() -> Vec<RunLabel> {
    let v0 = VarId::new(0);
    let v1 = VarId::new(1);
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    vec![
        RunLabel {
            thread: t0,
            command: Command::Read(v0),
            action: Action::Complete(ExtCommand::Base(Command::Read(v0))),
        },
        RunLabel {
            thread: t0,
            command: Command::Write(v1),
            action: Action::Internal(ExtCommand::Own(v1)),
        },
        RunLabel {
            thread: t0,
            command: Command::Commit,
            action: Action::Complete(ExtCommand::Base(Command::Commit)),
        },
        RunLabel {
            thread: t1,
            command: Command::Read(v1),
            action: Action::Internal(ExtCommand::RLock(v1)),
        },
        RunLabel {
            thread: t1,
            command: Command::Commit,
            action: Action::Internal(ExtCommand::Validate),
        },
        RunLabel {
            thread: t1,
            command: Command::Write(v0),
            action: Action::Abort,
        },
        RunLabel {
            thread: t1,
            command: Command::Commit,
            action: Action::Internal(ExtCommand::ChkLock),
        },
        RunLabel {
            thread: t0,
            command: Command::Read(v1),
            action: Action::Internal(ExtCommand::RValidate),
        },
    ]
}

/// Builds a random run-graph CSR over the label universe.
fn random_run_graph(num_states: usize, edge_picks: &[(u32, u32)]) -> CompiledRunGraph<RunLabel> {
    let labels = label_universe();
    let mut row_start = vec![0u32];
    let mut edge_target = Vec::new();
    let mut edge_label = Vec::new();
    let per_state = (edge_picks.len() / num_states).max(1);
    for (i, &(target, label)) in edge_picks.iter().enumerate() {
        let from = (i / per_state).min(num_states - 1);
        while row_start.len() <= from {
            row_start.push(edge_target.len() as u32);
        }
        edge_target.push(target % num_states as u32);
        edge_label.push((label as usize % labels.len()) as u16);
    }
    while row_start.len() <= num_states {
        row_start.push(edge_target.len() as u32);
    }
    CompiledRunGraph::from_parts(
        RunGraphParts {
            labels,
            row_start,
            edge_target,
            edge_label,
        },
        |label| label.class(),
    )
    .expect("generated CSR must be valid")
}

proptest! {
    #[test]
    fn run_graph_round_trips(
        input in (
            (1usize..10, vec((0u32..64, 0u32..64), 0..36)),
            (0u64..u64::MAX, 0u64..1 << 40),
        )
    ) {
        let ((num_states, edge_picks), (_seed, build_ns)) = input;
        let key = ArtifactKey::run_graph("prop+tm", 2, 2);
        let artifact = Artifact::RunGraph {
            graph: random_run_graph(num_states, &edge_picks),
            states: num_states,
            build_time: Duration::from_nanos(build_ns),
        };
        let image = encode_artifact(&key, &artifact);
        let (decoded_key, decoded) = decode_artifact(&image).expect("fresh image must decode");
        prop_assert_eq!(decoded_key, key);
        let (
            Artifact::RunGraph { graph, states, build_time },
            Artifact::RunGraph { graph: decoded, states: decoded_states, build_time: decoded_time },
        ) = (&artifact, &decoded) else { panic!("wrong artifact kind") };
        prop_assert_eq!(decoded.parts(), graph.parts());
        prop_assert_eq!(decoded.heap_bytes(), graph.heap_bytes());
        prop_assert_eq!(decoded_states, states);
        prop_assert_eq!(decoded_time, build_time);
    }

    #[test]
    fn lazy_spec_round_trips(
        input in (
            1usize..12,
            vec((0u32..3, 0u16..u16::MAX, 0u16..16), 1..12),
            vec(0u32..1000, 0..60),
        )
    ) {
        let (num_states, thread_picks, row_entries) = input;
        // Interned states as `SpecCache::from_parts` accepts them: the
        // specification's initial state first, then distinct random ones.
        let spec = DetSpec::new(SafetyProperty::Opacity, 2, 2);
        let width = spec_alphabet(2, 2).len();
        let mut states = vec![spec.initial()];
        for i in 0..num_states {
            let mut state = DetState::default();
            for (t, &(phase, var_bits, thread_bits)) in
                thread_picks.iter().cycle().skip(i).take(4).enumerate()
            {
                state.0[t].phase = match phase {
                    0 => DetPhase::Finished,
                    1 => DetPhase::Started,
                    _ => DetPhase::Pending,
                };
                state.0[t].valid = var_bits % 2 == 0;
                state.0[t].rs = VarSet::from_bits(var_bits);
                state.0[t].ws = VarSet::from_bits(var_bits.rotate_left(3));
                state.0[t].prs = VarSet::from_bits(var_bits.rotate_left(7));
                state.0[t].pws = VarSet::from_bits(var_bits.rotate_left(11));
                state.0[t].wp = ThreadSet::from_bits(thread_bits & 0xF);
                state.0[t].sp = ThreadSet::from_bits(thread_bits.rotate_left(2) & 0xF);
            }
            if !states.contains(&state) {
                states.push(state);
            }
        }
        let num_states = states.len();
        // Random present/absent successor rows of uniform width.
        let mut rows: Vec<Option<Box<[u32]>>> = Vec::with_capacity(num_states);
        let mut cursor = row_entries.iter().cycle();
        for i in 0..num_states {
            if i % 3 == 2 {
                rows.push(None);
            } else {
                let row: Vec<u32> = (0..width)
                    .map(|_| {
                        let v = *cursor.next().unwrap_or(&0);
                        if v % 5 == 0 { NO_STATE } else { v % num_states as u32 }
                    })
                    .collect();
                rows.push(Some(row.into_boxed_slice()));
            }
        }
        let key = ArtifactKey::spec(SafetyProperty::Opacity, 2, 2);
        let artifact = Artifact::spec_from_parts(
            SafetyProperty::Opacity,
            2,
            2,
            states.clone(),
            rows.clone(),
            Duration::from_nanos(12_345),
        )
        .expect("generated tables are structurally valid");
        let image = encode_artifact(&key, &artifact);
        let (decoded_key, decoded) = decode_artifact(&image).expect("fresh image must decode");
        prop_assert_eq!(decoded_key, key);
        let Artifact::Spec { cache, build_time } = decoded else { panic!("wrong artifact kind") };
        prop_assert_eq!(cache.parts(), (&states[..], &rows));
        prop_assert_eq!(build_time, Duration::from_nanos(12_345));
    }

    /// Encoding is deterministic (same artifact → bit-identical file,
    /// the property the content-addressed dedup relies on), and every
    /// single-bit flip of the file is rejected by the loader.
    #[test]
    fn encoding_is_stable_and_corruption_is_always_detected(
        input in (1usize..5, vec((0u32..64, 0u32..64), 0..10))
    ) {
        let (num_states, edge_picks) = input;
        let key = ArtifactKey::run_graph("prop+tm", 2, 2);
        let artifact = Artifact::RunGraph {
            graph: random_run_graph(num_states, &edge_picks),
            states: num_states,
            build_time: Duration::from_nanos(7),
        };
        let image = encode_artifact(&key, &artifact);
        prop_assert_eq!(&encode_artifact(&key, &artifact), &image);
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut corrupt = image.clone();
                corrupt[byte] ^= 1 << bit;
                prop_assert!(
                    decode_artifact(&corrupt).is_err(),
                    "flip of byte {} bit {} went undetected",
                    byte,
                    bit
                );
            }
        }
    }
}
