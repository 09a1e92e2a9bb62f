//! Dense fixed-universe bit sets.
//!
//! [`DenseBitSet`] holds liveness sets; [`BitMatrix`] holds the rows of
//! the Pentagon baseline's fact table. Keeping them here (rather than
//! pulling in an external crate) keeps the workspace dependency-light.

/// A set of `usize` elements drawn from a fixed universe `0..len`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// Creates an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// Creates a full set over the universe `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for (i, w) in s.words.iter_mut().enumerate() {
            let lo = i * 64;
            let n = len.saturating_sub(lo).min(64);
            *w = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        }
        s
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Tests membership.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "{i} outside universe {}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "{i} outside universe {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let was = *w & bit != 0;
        *w |= bit;
        !was
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "{i} outside universe {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let was = *w & bit != 0;
        *w &= !bit;
        was
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &DenseBitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// In-place intersection; returns `true` if `self` changed.
    pub fn intersect_with(&mut self, other: &DenseBitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `true` if `self` and `other` share an element. Unlike
    /// `intersect_with` on a clone, it allocates nothing and stops at the
    /// first shared word.
    pub fn intersects(&self, other: &DenseBitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// In-place difference (`self \ other`); returns `true` if changed.
    pub fn difference_with(&mut self, other: &DenseBitSet) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & !b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates over set elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, word_idx: 0, bits: self.words.first().copied().unwrap_or(0) }
    }
}

/// A matrix of fixed-width bit rows over one contiguous `u64` arena:
/// `rows` sets drawn from one universe `0..universe`, all sharing a
/// single allocation instead of one per set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    universe: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-empty matrix of `rows` sets over the universe `0..universe`.
    pub fn new(rows: usize, universe: usize) -> Self {
        let words_per_row = universe.div_ceil(64);
        Self { rows, universe, words_per_row, words: vec![0; words_per_row * rows] }
    }

    /// The word of row `r` that holds element `i`, and `i`'s bit in it.
    #[inline]
    fn slot(&self, r: usize, i: usize) -> (usize, u64) {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        assert!(i < self.universe, "{i} outside universe {}", self.universe);
        (r * self.words_per_row + i / 64, 1u64 << (i % 64))
    }

    /// Inserts element `i` into row `r`; returns `true` if newly inserted.
    #[inline]
    pub fn insert(&mut self, r: usize, i: usize) -> bool {
        let (w, bit) = self.slot(r, i);
        let was = self.words[w] & bit != 0;
        self.words[w] |= bit;
        !was
    }

    /// Tests membership of element `i` in row `r`.
    #[inline]
    pub fn contains(&self, r: usize, i: usize) -> bool {
        let (w, bit) = self.slot(r, i);
        self.words[w] & bit != 0
    }
}

/// Iterator over the elements of a [`DenseBitSet`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a DenseBitSet,
    word_idx: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word_idx * 64 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a DenseBitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = DenseBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn full_has_everything_and_nothing_more() {
        for n in [0usize, 1, 63, 64, 65, 128, 200] {
            let s = DenseBitSet::full(n);
            assert_eq!(s.count(), n, "universe {n}");
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn set_algebra() {
        let mut a = DenseBitSet::new(100);
        let mut b = DenseBitSet::new(100);
        for i in [1usize, 5, 64, 70] {
            a.insert(i);
        }
        for i in [5usize, 64, 99] {
            b.insert(i);
        }
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 64, 70, 99]);
        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5, 64]);
        let mut d = a.clone();
        assert!(d.difference_with(&b));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 70]);
        assert!(!a.union_with(&i), "union with subset must not change the set");
    }

    #[test]
    fn intersects_sees_one_shared_element_in_any_word() {
        for n in [0usize, 1, 63, 64, 65, 130, 256] {
            let (mut a, mut b) = (DenseBitSet::new(n), DenseBitSet::new(n));
            assert!(!a.intersects(&b), "empty sets over {n}");
            if n == 0 {
                continue;
            }
            a.insert(n - 1);
            assert!(!a.intersects(&b) && !b.intersects(&a), "one side empty over {n}");
            b.insert(0);
            assert_eq!(a.intersects(&b), n == 1, "disjoint unless n = 1 ({n})");
            b.insert(n - 1);
            assert!(a.intersects(&b) && b.intersects(&a), "last element shared over {n}");
        }
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn intersects_rejects_another_universe() {
        DenseBitSet::new(64).intersects(&DenseBitSet::new(65));
    }

    #[test]
    fn bit_matrix_rows_are_independent_sets() {
        let mut m = BitMatrix::new(3, 130);
        assert!(m.insert(0, 0));
        assert!(m.insert(0, 129));
        assert!(!m.insert(0, 0), "re-insert reports no change");
        assert!(m.insert(2, 64));
        assert!(m.contains(0, 0) && m.contains(0, 129) && m.contains(2, 64));
        assert!(!m.contains(1, 0) && !m.contains(0, 64));
        assert!((0..130).all(|i| !m.contains(1, i)), "row 1 stays empty");
        assert_eq!((0..130).filter(|&i| m.contains(2, i)).collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    fn iter_on_empty() {
        let s = DenseBitSet::new(0);
        assert_eq!(s.iter().count(), 0);
        let s = DenseBitSet::new(64);
        assert_eq!(s.iter().count(), 0);
    }

    proptest! {
        #[test]
        fn matches_reference_impl(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..300)) {
            let mut s = DenseBitSet::new(200);
            let mut reference = std::collections::BTreeSet::new();
            for (i, add) in ops {
                if add {
                    prop_assert_eq!(s.insert(i), reference.insert(i));
                } else {
                    prop_assert_eq!(s.remove(i), reference.remove(&i));
                }
            }
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), reference.into_iter().collect::<Vec<_>>());
        }

        #[test]
        fn union_intersection_laws(xs in proptest::collection::btree_set(0usize..128, 0..60),
                                   ys in proptest::collection::btree_set(0usize..128, 0..60)) {
            let mut a = DenseBitSet::new(128);
            let mut b = DenseBitSet::new(128);
            xs.iter().for_each(|&i| { a.insert(i); });
            ys.iter().for_each(|&i| { b.insert(i); });
            let mut u = a.clone();
            u.union_with(&b);
            let mut i = a.clone();
            i.intersect_with(&b);
            // |A∪B| + |A∩B| = |A| + |B|
            prop_assert_eq!(u.count() + i.count(), a.count() + b.count());
            // A∩B ⊆ A ⊆ A∪B
            for e in i.iter() { prop_assert!(a.contains(e)); }
            for e in a.iter() { prop_assert!(u.contains(e)); }
        }

        #[test]
        fn intersects_is_a_nonempty_intersection(n in 0usize..260,
                                                 xs in proptest::collection::vec(0usize..260, 0..12),
                                                 ys in proptest::collection::vec(0usize..260, 0..12)) {
            // Universes of 0 to 5 words; elements outside one are dropped,
            // so either set may be empty.
            let (mut a, mut b) = (DenseBitSet::new(n), DenseBitSet::new(n));
            xs.iter().filter(|&&i| i < n).for_each(|&i| { a.insert(i); });
            ys.iter().filter(|&&i| i < n).for_each(|&i| { b.insert(i); });
            let mut i = a.clone();
            i.intersect_with(&b);
            prop_assert_eq!(a.intersects(&b), !i.is_empty());
            prop_assert_eq!(b.intersects(&a), !i.is_empty());
        }
    }
}
