//! A growable bitset used to represent sets of automaton states.

use std::fmt;

/// A fixed-capacity set of `usize` indices, backed by a word array.
///
/// Used for NFA frontier sets and for the antichain algorithm, where
/// subset tests between state sets must be fast.
///
/// # Examples
///
/// ```
/// use tm_automata::BitSet;
/// let mut a = BitSet::new(100);
/// a.insert(3);
/// a.insert(77);
/// let mut b = a.clone();
/// b.insert(50);
/// assert!(a.is_subset(&b));
/// assert!(!b.is_subset(&a));
/// assert_eq!(b.len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `index`; returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "bitset index out of range");
        let (w, b) = (index / 64, index % 64);
        let added = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        added
    }

    /// Removes `index`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity` — the same contract (and message) as
    /// [`BitSet::insert`]. (Previously this panicked only when the word
    /// index overflowed, with a raw slice-indexing message.)
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "bitset index out of range");
        let (w, b) = (index / 64, index % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Tests membership. Unlike the mutators, this is a total query:
    /// indices at or beyond the capacity are simply not members (`false`),
    /// so callers may probe with ids from a larger space.
    pub fn contains(&self, index: usize) -> bool {
        let (w, b) = (index / 64, index % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `true` if every element of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// The backing words, least-significant index first — the fast path
    /// for bulk bitwise work such as antichain subsumption, where subset
    /// tests run directly on `u64`s without the per-call capacity
    /// assertion of [`BitSet::is_subset`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`BitSet`], produced by [`BitSet::iter`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            if self.word_index >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_index];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * 64 + bit)
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set whose capacity is one past the largest
    /// index (or 0 for an empty iterator).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let capacity = items.iter().max().map_or(0, |&m| m + 1);
        let mut set = BitSet::new(capacity);
        for i in items {
            set.insert(i);
        }
        set
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn subset_across_words() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        a.insert(5);
        a.insert(150);
        b.insert(5);
        b.insert(150);
        b.insert(199);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn iter_order_is_ascending() {
        let mut a = BitSet::new(70);
        a.insert(65);
        a.insert(2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 65]);
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [3usize, 9, 9, 1].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(7);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        BitSet::new(8).insert(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_remove_panics_like_insert() {
        // `remove` shares `insert`'s contract; before, it only panicked
        // on word-index overflow with a slice-indexing message.
        BitSet::new(8).remove(8);
    }

    #[test]
    fn contains_is_total() {
        let mut s = BitSet::new(8);
        s.insert(3);
        assert!(!s.contains(8));
        assert!(!s.contains(1_000_000));
    }

    #[test]
    fn words_expose_backing_storage() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.words(), &[1, 1, 2]);
    }

    /// The `words()` prefix contract the antichain subsumption relies on:
    /// same-capacity sets expose word arrays of identical length
    /// (`capacity.div_ceil(64)`), so `zip`-based subset tests compare
    /// every word and never silently truncate.
    #[test]
    fn words_length_is_capacity_words() {
        for capacity in [0usize, 1, 63, 64, 65, 128, 130, 200] {
            let s = BitSet::new(capacity);
            assert_eq!(s.words().len(), capacity.div_ceil(64), "cap {capacity}");
            let t = BitSet::new(capacity);
            assert_eq!(s.words().len(), t.words().len(), "cap {capacity}");
        }
    }

    /// Bits at or beyond the capacity are never set — mutators reject
    /// out-of-range indices — so raw word-level subset tests (`a & !b`)
    /// are exact: no stale high bits can leak into the comparison.
    #[test]
    fn words_padding_bits_stay_zero() {
        let mut s = BitSet::new(70);
        for i in 0..70 {
            s.insert(i);
        }
        for i in (0..70).step_by(3) {
            s.remove(i);
        }
        for i in 0..70 {
            s.insert(i);
        }
        // All 70 bits set, bits 70..128 zero.
        assert_eq!(s.words(), &[u64::MAX, (1 << 6) - 1]);
        assert_eq!(s.len(), 70);
    }

    /// Word-level subsumption (the antichain's `subset_words`) agrees
    /// with `is_subset` on same-capacity sets — including across word
    /// boundaries.
    #[test]
    fn word_level_subset_matches_is_subset() {
        let subset_words =
            |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(&x, &y)| x & !y == 0);
        let build = |indices: &[usize]| {
            let mut s = BitSet::new(150);
            for &i in indices {
                s.insert(i);
            }
            s
        };
        let sets = [
            build(&[]),
            build(&[0]),
            build(&[63, 64]),
            build(&[5, 64, 149]),
            build(&[5, 63, 64, 100, 149]),
            build(&[149]),
        ];
        for a in &sets {
            for b in &sets {
                assert_eq!(
                    subset_words(a.words(), b.words()),
                    a.is_subset(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn boundary_indices_round_trip() {
        let mut s = BitSet::new(65);
        assert!(s.insert(64));
        assert!(s.contains(64));
        assert!(s.remove(64));
        assert!(!s.contains(64));
        assert!(!s.remove(64));
        // One past the boundary: total query, panicking mutators.
        assert!(!s.contains(65));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_remove_far_beyond_words_panics() {
        // Far past the word array, not just past the capacity: the range
        // check fires before any slice access.
        BitSet::new(8).remove(1_000_000);
    }

    #[test]
    fn debug_format() {
        let mut s = BitSet::new(8);
        s.insert(1);
        s.insert(4);
        assert_eq!(format!("{s:?}"), "{1, 4}");
    }
}
