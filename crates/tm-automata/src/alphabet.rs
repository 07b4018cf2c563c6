//! Label interning: a bijection between automaton labels and dense
//! [`LetterId`]s.
//!
//! Every checker in this workspace ultimately compares labels drawn from
//! a small finite alphabet (the statement alphabet `Ŝ` has `n·(2k + 2)`
//! letters). Hashing and cloning those labels inside inclusion-check
//! inner loops is pure overhead: interning them once up front turns every
//! later label operation into `u32` arithmetic: [`crate::CompiledNfa`]
//! indexes its transition arrays and [`crate::SpecCache`] its letter rows
//! directly by letter id.

use std::hash::Hash;

use crate::fxhash::FxHashMap;

/// Dense index of a letter within an [`Alphabet`].
pub type LetterId = u32;

/// An order-preserving interner mapping labels to dense `u32` ids.
///
/// Ids are assigned in first-intern order, so an alphabet built from a
/// [`crate::Dfa`]'s letters assigns exactly the DFA's letter indices —
/// the property the index-based inclusion check relies on.
///
/// # Examples
///
/// ```
/// use tm_automata::Alphabet;
/// let mut alphabet = Alphabet::new();
/// let a = alphabet.intern(&'a');
/// let b = alphabet.intern(&'b');
/// assert_eq!(alphabet.intern(&'a'), a);
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(alphabet.letter(b), &'b');
/// ```
#[derive(Clone, Debug, Default)]
pub struct Alphabet<L> {
    letters: Vec<L>,
    index: FxHashMap<L, LetterId>,
}

impl<L: Clone + Eq + Hash> Alphabet<L> {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Alphabet {
            letters: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Interns every label of `letters` in order.
    pub fn from_letters<'a, I: IntoIterator<Item = &'a L>>(letters: I) -> Self
    where
        L: 'a,
    {
        let mut alphabet = Alphabet::new();
        for letter in letters {
            alphabet.intern(letter);
        }
        alphabet
    }

    /// The id of `letter`, interning it if new (cloning only then).
    ///
    /// # Panics
    ///
    /// Panics if the alphabet would exceed `u32::MAX - 1` letters — the
    /// last `u32` value is reserved so no id can collide with the
    /// [`crate::EPSILON`] sentinel.
    pub fn intern(&mut self, letter: &L) -> LetterId {
        if let Some(&id) = self.index.get(letter) {
            return id;
        }
        let id = LetterId::try_from(self.letters.len()).expect("alphabet exceeds u32 letters");
        assert_ne!(id, u32::MAX, "alphabet exhausts u32 letter ids");
        self.letters.push(letter.clone());
        self.index.insert(letter.clone(), id);
        id
    }

    /// The id of `letter`, or `None` if it was never interned.
    pub fn get(&self, letter: &L) -> Option<LetterId> {
        self.index.get(letter).copied()
    }
}

impl<L> Alphabet<L> {
    /// The label behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn letter(&self, id: LetterId) -> &L {
        &self.letters[id as usize]
    }

    /// All letters in id order.
    pub fn letters(&self) -> &[L] {
        &self.letters
    }

    /// Number of interned letters.
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// `true` if no letter was interned yet.
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut alphabet = Alphabet::new();
        let ids: Vec<LetterId> = ["x", "y", "x", "z", "y"]
            .iter()
            .map(|l| alphabet.intern(l))
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(alphabet.len(), 3);
        assert_eq!(alphabet.letters(), &["x", "y", "z"]);
    }

    #[test]
    fn from_letters_preserves_order() {
        let alphabet = Alphabet::from_letters(&['c', 'a', 'b']);
        assert_eq!(alphabet.get(&'c'), Some(0));
        assert_eq!(alphabet.get(&'b'), Some(2));
        assert_eq!(alphabet.get(&'z'), None);
        assert!(!alphabet.is_empty());
    }

    #[test]
    fn letter_round_trips() {
        let mut alphabet = Alphabet::new();
        let id = alphabet.intern(&42u64);
        assert_eq!(*alphabet.letter(id), 42);
    }
}
