//! Packed hashing of TM states.
//!
//! Every explored TM state is hashed at least once when it is interned,
//! and the derived `Hash` of a fixed-array state feeds the hasher one
//! field element at a time (about 45 writes for a TL2 state). The state
//! types instead pack their fields into a few `u64` words and hash those:
//! per-thread variable sets as 16-bit lanes (one word per set kind for
//! [`MAX_THREADS`] threads), per-thread pending commands as 8-bit lanes,
//! per-thread status codes as 2-bit lanes.
//!
//! The packing is lossless — distinct states give distinct words — so the
//! hash stays consistent with the derived `Eq` and no bucket collapses
//! two states that a richer hash would have kept apart.
//!
//! Each word passes through [`spread`], a bijection, on its way to the
//! hasher. The workspace's FxHash ends in a multiply, which only carries
//! bits upward, and hash tables take their probe index from the low bits;
//! without the spread, the lanes of threads 2 and 3 (high bits of each
//! word) would barely reach the index and whole runs of states would
//! share a bucket.

use std::hash::Hasher;

use tm_lang::{Command, VarSet};

use crate::algorithm::MAX_THREADS;

/// Packs one `width`-bit lane per thread, thread `i` at bits
/// `width * i ..`.
pub(crate) fn lanes(width: u32, values: impl IntoIterator<Item = u64>) -> u64 {
    debug_assert!(width as usize * MAX_THREADS <= 64);
    values.into_iter().enumerate().fold(0, |word, (i, value)| {
        debug_assert!(
            value >> width == 0,
            "lane value {value} wider than {width} bits"
        );
        word | value << (width * i as u32)
    })
}

/// Feeds packed `words` to `state`, each through [`spread`].
pub(crate) fn write_words<H: Hasher>(words: &[u64], state: &mut H) {
    for &word in words {
        state.write_u64(spread(word));
    }
}

/// An odd multiplier (the 64-bit golden ratio), invertible mod 2^64.
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// A bijection on `u64` (xorshift, odd multiply, xorshift — each step
/// invertible) whose low bits depend on every input bit.
fn spread(word: u64) -> u64 {
    let x = (word ^ word >> 32).wrapping_mul(SPREAD);
    x ^ x >> 32
}

/// One word holding every thread's variable set (16-bit lanes).
pub(crate) fn sets(sets: &[VarSet; MAX_THREADS]) -> u64 {
    lanes(16, sets.iter().map(|s| u64::from(s.bits())))
}

/// The per-thread pending commands in 8-bit lanes (bits `0..32`).
pub(crate) fn pending(pending: &[Option<Command>; MAX_THREADS]) -> u64 {
    lanes(8, pending.iter().map(|&c| command_code(c)))
}

/// A dense code for an optional command: `0` for none, then reads,
/// writes and commit (`1 + v`, `17 + v`, `33`; variables are below 16).
fn command_code(c: Option<Command>) -> u64 {
    match c {
        None => 0,
        Some(Command::Read(v)) => 1 + v.index() as u64,
        Some(Command::Write(v)) => 17 + v.index() as u64,
        Some(Command::Commit) => 33,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tm_lang::VarId;

    /// Variable counts the single-field packing tests run at: the
    /// service's largest query size (`MAX_QUERY_VARS` = 8 variables) and
    /// the [`VarId`] limit of 16.
    pub(crate) const BOUNDARY_VARS: [usize; 2] = [8, 16];

    /// Every command over `vars` variables, plus "none".
    pub(crate) fn all_pending(vars: usize) -> impl Iterator<Item = Option<Command>> {
        std::iter::once(None).chain(Command::all(vars).map(Some))
    }

    /// Asserts that the single-field `variants` of a base state pack to
    /// words whose differences from `base` are non-empty and pairwise
    /// disjoint across fields: no two packed fields share a bit. Each
    /// variant is tagged with the field it perturbs; variants of the same
    /// field may overlap (they are values of one lane).
    pub(crate) fn assert_fields_disjoint<const N: usize>(
        base: [u64; N],
        variants: &[(String, [u64; N])],
    ) {
        let mut masks: Vec<(String, [u64; N])> = Vec::new();
        for (field, words) in variants {
            let diff: [u64; N] = std::array::from_fn(|i| words[i] ^ base[i]);
            assert!(
                diff.iter().any(|&d| d != 0),
                "field {field} does not show in the packing"
            );
            match masks.iter_mut().find(|(f, _)| f == field) {
                Some((_, mask)) => (0..N).for_each(|i| mask[i] |= diff[i]),
                None => masks.push((field.clone(), diff)),
            }
        }
        for (a, (fa, ma)) in masks.iter().enumerate() {
            for (fb, mb) in &masks[a + 1..] {
                assert!(
                    (0..N).all(|i| ma[i] & mb[i] == 0),
                    "packed fields {fa} and {fb} overlap"
                );
            }
        }
    }

    #[test]
    fn spread_is_a_bijection() {
        // Inverse: the 32-bit xorshift is an involution, and the odd
        // multiplier has an inverse mod 2^64 (Newton's iteration).
        let mut inverse = SPREAD;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(SPREAD.wrapping_mul(inverse)));
        }
        assert_eq!(SPREAD.wrapping_mul(inverse), 1);
        let unspread = |y: u64| {
            let x = (y ^ y >> 32).wrapping_mul(inverse);
            x ^ x >> 32
        };
        let mut word = 1u64;
        for i in 0..10_000u64 {
            word = word.rotate_left(7) ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d);
            assert_eq!(unspread(spread(word)), word);
        }
        for bit in 0..64 {
            assert_eq!(unspread(spread(1 << bit)), 1 << bit);
        }
    }

    #[test]
    fn command_codes_are_distinct_and_fit_their_lane() {
        let codes: Vec<u64> = all_pending(16).map(command_code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len());
        assert!(codes.iter().all(|&c| c < 1 << 8));
    }

    #[test]
    fn set_lanes_keep_every_thread_and_variable_apart() {
        let mut seen = Vec::new();
        for t in 0..MAX_THREADS {
            for v in 0..16 {
                let mut s = [VarSet::new(); MAX_THREADS];
                s[t].insert(VarId::new(v));
                seen.push(sets(&s));
            }
        }
        // One distinct bit per (thread, variable).
        assert!(seen.iter().all(|w| w.count_ones() == 1));
        assert_eq!(seen.iter().fold(0, |acc, w| acc | w), u64::MAX);
    }
}
