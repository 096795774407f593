//! `SegVec`: a persistent, segment-shared vector — the copy-on-write
//! storage primitive behind delta epochs.
//!
//! A [`SegVec<T>`] is a two-level trie. Elements live in *leaves* of
//! [`SEG_SIZE`] (64) elements, each behind an [`Arc`]; leaf handles are
//! grouped into *chunks* of 64, each chunk table also behind an `Arc`; the
//! top level is a plain `Vec` of chunk handles. One chunk therefore covers
//! [`CHUNK_SIZE`] (4,096) elements.
//!
//! Cloning a `SegVec` copies only the top level: one refcount bump per
//! chunk, so `n / 4096` handles (about 50 for a 206,640-node column)
//! instead of one per leaf. Mutating an element copies **at most one chunk
//! table (64 leaf handles) and the one leaf it lives in** (via
//! [`Arc::make_mut`]), leaving every other chunk and leaf pointer-shared
//! with the clones. Two consecutive epochs of a graph built on `SegVec`
//! storage therefore share all state a maintenance batch did not touch, and
//! publishing the next epoch costs O(touched + n / 4096) handle operations,
//! not O(n / 64).
//!
//! ## COW invariants
//!
//! 1. **Clone is shallow**: `clone()` never copies elements or leaf
//!    handles, only chunk handles.
//! 2. **Mutation is localized**: a write through [`SegVec::get_mut`] or
//!    [`SegVec::push`] deep-copies at most one chunk table and one leaf,
//!    and each only when it is shared (`Arc` refcount > 1).
//! 3. **Sharing is observable**: [`SegVec::shared_segments_with`] counts
//!    positionally pointer-equal *leaves*, so tests can assert that a
//!    representation change really shares instead of re-copying.
//! 4. **Representation never leaks into answers**: iteration order and
//!    element values are identical to a flat `Vec<T>` with the same
//!    contents; equality compares contents, never pointers.
//!
//! Bulk construction ([`FromIterator`], [`Extend`], growing
//! [`SegVec::resize`]) fills whole leaves before wrapping them in their
//! `Arc`s, so it pays one `Arc::make_mut` per leaf, not two per element. Loaders that
//! build a whole column should stage it in a plain `Vec` and collect it
//! once rather than calling `push` per element.
//!
//! This module is in the `dkindex-analyze` `panic-path` and
//! `nondeterministic-iter` scopes: every accessor is `Option`-returning
//! (no indexing, no `unwrap`), and iteration follows declared element
//! order only.

use std::fmt;
use std::sync::Arc;

/// log2 of [`SEG_SIZE`].
const SEG_SHIFT: usize = 6;
/// Elements per leaf. 64 keeps a leaf within a cache line or two for small
/// `T`, so a write copies little; the chunk level above keeps the clone
/// cost from growing with the leaf count.
pub const SEG_SIZE: usize = 1 << SEG_SHIFT;
const SEG_MASK: usize = SEG_SIZE - 1;

/// log2 of the leaves per chunk.
const CHUNK_LEAVES_SHIFT: usize = 6;
/// Leaf handles per chunk table.
const CHUNK_LEAVES: usize = 1 << CHUNK_LEAVES_SHIFT;
const CHUNK_LEAVES_MASK: usize = CHUNK_LEAVES - 1;
/// log2 of [`CHUNK_SIZE`].
const CHUNK_SHIFT: usize = SEG_SHIFT + CHUNK_LEAVES_SHIFT;
/// Elements per chunk (64 leaves of 64): the unit a clone copies one handle
/// for.
pub const CHUNK_SIZE: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK_SIZE - 1;

type Leaf<T> = Arc<Vec<T>>;
type Chunk<T> = Arc<Vec<Leaf<T>>>;

/// A two-level chunked vector whose chunks and leaves are `Arc`-shared
/// between clones and copied on write. See the module docs for the COW
/// invariants.
pub struct SegVec<T> {
    /// Every chunk except the last holds exactly [`CHUNK_LEAVES`] leaves,
    /// and every leaf except the very last holds exactly [`SEG_SIZE`]
    /// elements, so element `i` sits at
    /// `chunks[i >> CHUNK_SHIFT][(i >> SEG_SHIFT) & CHUNK_LEAVES_MASK][i & SEG_MASK]`.
    chunks: Vec<Chunk<T>>,
    len: usize,
}

impl<T> SegVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        SegVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`, or `None` when out of range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        self.chunks
            .get(index >> CHUNK_SHIFT)?
            .get((index >> SEG_SHIFT) & CHUNK_LEAVES_MASK)?
            .get(index & SEG_MASK)
    }

    /// Iterate the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .flat_map(|leaf| leaf.iter())
    }

    /// Number of leaves (64-element segments) currently backing the
    /// vector.
    pub fn segment_count(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.len()).sum()
    }

    /// Count of leaves positionally pointer-shared with `other` — the
    /// structural-sharing census used by the delta-epoch tests and the
    /// publish counters. A leaf counts when slot `i` of both vectors is the
    /// **same allocation** (`Arc::ptr_eq`), i.e. neither side copied it
    /// since they diverged. A chunk shared whole counts all its leaves
    /// without visiting them.
    pub fn shared_segments_with(&self, other: &SegVec<T>) -> usize {
        self.chunks
            .iter()
            .zip(other.chunks.iter())
            .map(|(a, b)| {
                if Arc::ptr_eq(a, b) {
                    a.len()
                } else {
                    a.iter()
                        .zip(b.iter())
                        .filter(|(x, y)| Arc::ptr_eq(x, y))
                        .count()
                }
            })
            .sum()
    }
}

impl<T: Clone> SegVec<T> {
    /// Mutable access to the element at `index`, or `None` when out of
    /// range. Copies the containing chunk table and leaf first when they
    /// are shared with another `SegVec` (COW invariant 2); everything else
    /// stays shared.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        let chunk = Arc::make_mut(self.chunks.get_mut(index >> CHUNK_SHIFT)?);
        let leaf = Arc::make_mut(chunk.get_mut((index >> SEG_SHIFT) & CHUNK_LEAVES_MASK)?);
        leaf.get_mut(index & SEG_MASK)
    }

    /// Append an element, copying at most the trailing chunk table and
    /// leaf.
    pub fn push(&mut self, value: T) {
        if self.len & CHUNK_MASK == 0 {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK_LEAVES)));
        }
        let Some(chunk) = self.chunks.last_mut() else {
            return;
        };
        let chunk = Arc::make_mut(chunk);
        if self.len & SEG_MASK == 0 {
            chunk.push(Arc::new(Vec::with_capacity(SEG_SIZE)));
        }
        if let Some(leaf) = chunk.last_mut() {
            Arc::make_mut(leaf).push(value);
            self.len += 1;
        }
    }

    /// Grow or shrink to exactly `new_len` elements, filling new slots with
    /// clones of `value`. Growing fills whole leaves (see [`Extend`]);
    /// shrinking copies at most the new trailing chunk table and leaf.
    pub fn resize(&mut self, new_len: usize, value: T) {
        if new_len >= self.len {
            self.extend(std::iter::repeat_n(value, new_len - self.len));
            return;
        }
        self.chunks.truncate(new_len.div_ceil(CHUNK_SIZE));
        // Leaves kept in a partial last chunk; 0 when it stays full.
        let tail_leaves = (new_len & CHUNK_MASK).div_ceil(SEG_SIZE);
        if tail_leaves != 0 {
            if let Some(chunk) = self.chunks.last_mut() {
                if chunk.len() > tail_leaves {
                    Arc::make_mut(chunk).truncate(tail_leaves);
                }
                let keep = new_len & SEG_MASK;
                if keep != 0 {
                    if let Some(leaf) = Arc::make_mut(chunk).last_mut() {
                        Arc::make_mut(leaf).truncate(keep);
                    }
                }
            }
        }
        self.len = new_len;
    }
}

/// Shallow clone: one refcount bump per chunk, zero element copies
/// (COW invariant 1). Written by hand so `SegVec<T>: Clone` holds without
/// requiring `T: Clone`.
impl<T> Clone for SegVec<T> {
    fn clone(&self) -> Self {
        SegVec {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for SegVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> FromIterator<T> for SegVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SegVec::new();
        v.extend(iter);
        v
    }
}

/// The next up-to-[`SEG_SIZE`] items of `iter` as a leaf, or `None` once
/// `iter` is exhausted.
fn next_leaf<T>(iter: &mut impl Iterator<Item = T>) -> Option<Vec<T>> {
    let first = iter.next()?;
    let mut leaf = Vec::with_capacity(SEG_SIZE);
    leaf.push(first);
    leaf.extend(iter.by_ref().take(SEG_SIZE - 1));
    Some(leaf)
}

/// Bulk append: tops up the trailing leaf in place, then builds whole
/// leaves before wrapping each in its `Arc` — one `Arc::make_mut` per leaf,
/// none per element. Nothing is unshared once `iter` runs dry.
impl<T: Clone> Extend<T> for SegVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut iter = iter.into_iter().fuse();
        // 1. Fill the partial trailing leaf.
        if self.len & SEG_MASK != 0 {
            let Some(first) = iter.next() else {
                return;
            };
            let room = SEG_SIZE - (self.len & SEG_MASK);
            let leaf = self
                .chunks
                .last_mut()
                .and_then(|chunk| Arc::make_mut(chunk).last_mut())
                .map(Arc::make_mut);
            if let Some(leaf) = leaf {
                let before = leaf.len();
                leaf.push(first);
                leaf.extend(iter.by_ref().take(room - 1));
                self.len += leaf.len() - before;
            }
        }
        // 2. Append whole leaves, opening a fresh chunk every 64.
        while let Some(leaf) = next_leaf(&mut iter) {
            if self.len & CHUNK_MASK == 0 {
                self.chunks.push(Arc::new(Vec::with_capacity(CHUNK_LEAVES)));
            }
            let Some(chunk) = self.chunks.last_mut() else {
                return;
            };
            self.len += leaf.len();
            Arc::make_mut(chunk).push(Arc::new(leaf));
        }
    }
}

/// Content equality — representation (leaf and chunk boundaries, sharing)
/// never participates (COW invariant 4).
impl<T: PartialEq> PartialEq for SegVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for SegVec<T> {}

/// `Debug` as a flat element list, hiding the segmentation.
impl<T: fmt::Debug> fmt::Debug for SegVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> SegVec<usize> {
        (0..n).collect()
    }

    /// Same contents as `filled(n)`, grown one `push` at a time.
    fn pushed(n: usize) -> SegVec<usize> {
        let mut v = SegVec::new();
        for i in 0..n {
            v.push(i);
        }
        v
    }

    #[test]
    fn push_get_len_round_trip() {
        let v = filled(3 * SEG_SIZE + 7);
        assert_eq!(v.len(), 3 * SEG_SIZE + 7);
        assert_eq!(v.segment_count(), 4);
        for i in 0..v.len() {
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(v.len()), None);
    }

    #[test]
    fn bulk_and_pushed_layouts_agree_across_chunks() {
        for n in [
            0,
            1,
            SEG_SIZE,
            CHUNK_SIZE - 1,
            CHUNK_SIZE,
            CHUNK_SIZE + 1,
            2 * CHUNK_SIZE + 65,
        ] {
            let (bulk, one_by_one) = (filled(n), pushed(n));
            assert_eq!(bulk, one_by_one, "n = {n}");
            assert_eq!(bulk.segment_count(), n.div_ceil(SEG_SIZE), "n = {n}");
            assert_eq!(one_by_one.segment_count(), n.div_ceil(SEG_SIZE), "n = {n}");
            assert_eq!(bulk.chunks.len(), n.div_ceil(CHUNK_SIZE), "n = {n}");
            for i in [0, n / 2, n.saturating_sub(1)] {
                if i < n {
                    assert_eq!(bulk.get(i), Some(&i));
                }
            }
        }
    }

    #[test]
    fn extend_tops_up_partial_leaf_and_chunk() {
        let mut v = filled(CHUNK_SIZE - SEG_SIZE - 3);
        v.extend(CHUNK_SIZE - SEG_SIZE - 3..2 * CHUNK_SIZE + 1);
        assert_eq!(v, filled(2 * CHUNK_SIZE + 1));
        assert_eq!(v.chunks.len(), 3);
        assert!(v
            .chunks
            .iter()
            .rev()
            .skip(1)
            .all(|c| c.len() == CHUNK_LEAVES));
    }

    #[test]
    fn iter_matches_index_order() {
        let v = filled(CHUNK_SIZE + 2 * SEG_SIZE + 1);
        let collected: Vec<usize> = v.iter().copied().collect();
        let expected: Vec<usize> = (0..v.len()).collect();
        assert_eq!(collected, expected);
    }

    #[test]
    fn clone_shares_every_segment() {
        let v = filled(2 * CHUNK_SIZE + 5 * SEG_SIZE);
        let w = v.clone();
        assert_eq!(w.shared_segments_with(&v), v.segment_count());
        assert_eq!(v, w);
    }

    #[test]
    fn mutation_copies_only_the_touched_segment() {
        let v = filled(2 * CHUNK_SIZE);
        let mut w = v.clone();
        *w.get_mut(CHUNK_SIZE + SEG_SIZE + 3).unwrap() = 999;
        // Exactly one leaf diverged, and only its chunk table was copied.
        assert_eq!(w.shared_segments_with(&v), v.segment_count() - 1);
        assert!(Arc::ptr_eq(&w.chunks[0], &v.chunks[0]));
        assert!(!Arc::ptr_eq(&w.chunks[1], &v.chunks[1]));
        // The original is untouched.
        assert_eq!(
            v.get(CHUNK_SIZE + SEG_SIZE + 3),
            Some(&(CHUNK_SIZE + SEG_SIZE + 3))
        );
        assert_eq!(w.get(CHUNK_SIZE + SEG_SIZE + 3), Some(&999));
    }

    #[test]
    fn push_after_clone_copies_only_the_tail_segment() {
        let v = filled(2 * SEG_SIZE + 5);
        let mut w = v.clone();
        w.push(12345);
        assert_eq!(w.shared_segments_with(&v), v.segment_count() - 1);
        assert_eq!(v.len(), 2 * SEG_SIZE + 5);
        assert_eq!(w.len(), 2 * SEG_SIZE + 6);
    }

    #[test]
    fn push_on_a_full_boundary_allocates_a_fresh_segment() {
        let v = filled(SEG_SIZE);
        let mut w = v.clone();
        w.push(777);
        // The old leaf stays fully shared; only the new one is unshared.
        assert_eq!(w.shared_segments_with(&v), 1);
        assert_eq!(w.segment_count(), 2);
    }

    #[test]
    fn push_on_a_chunk_boundary_leaves_the_old_chunk_shared() {
        let v = filled(CHUNK_SIZE);
        let mut w = v.clone();
        w.push(777);
        assert!(Arc::ptr_eq(&w.chunks[0], &v.chunks[0]));
        assert_eq!(w.shared_segments_with(&v), CHUNK_LEAVES);
        assert_eq!(w.segment_count(), CHUNK_LEAVES + 1);
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let mut v = filled(10);
        v.resize(SEG_SIZE + 2, 42);
        assert_eq!(v.len(), SEG_SIZE + 2);
        assert_eq!(v.get(10), Some(&42));
        assert_eq!(v.get(SEG_SIZE + 1), Some(&42));
        v.resize(5, 0);
        assert_eq!(v.len(), 5);
        assert_eq!(v.get(4), Some(&4));
        assert_eq!(v.get(5), None);
        v.resize(SEG_SIZE, 1);
        assert_eq!(v.len(), SEG_SIZE);
        assert_eq!(v.get(5), Some(&1));
    }

    #[test]
    fn resize_to_segment_boundary_truncates_cleanly() {
        let mut v = filled(2 * SEG_SIZE + 9);
        v.resize(SEG_SIZE, 0);
        assert_eq!(v.len(), SEG_SIZE);
        assert_eq!(v.segment_count(), 1);
        assert_eq!(v.get(SEG_SIZE - 1), Some(&(SEG_SIZE - 1)));
    }

    #[test]
    fn resize_across_chunks_matches_a_flat_vec() {
        for new_len in [
            0,
            1,
            SEG_SIZE,
            CHUNK_SIZE,
            CHUNK_SIZE + 1,
            CHUNK_SIZE + SEG_SIZE + 7,
        ] {
            let original = filled(2 * CHUNK_SIZE + 3);
            let mut v = original.clone();
            v.resize(new_len, 0);
            assert_eq!(v, filled(new_len), "new_len = {new_len}");
            assert_eq!(v.segment_count(), new_len.div_ceil(SEG_SIZE));
            // Shrinking never writes into the other snapshot.
            assert_eq!(original, filled(2 * CHUNK_SIZE + 3));
            v.push(usize::MAX);
            assert_eq!(v.get(new_len), Some(&usize::MAX));
        }
    }

    #[test]
    fn equality_ignores_segmentation_history() {
        let pushed = filled(SEG_SIZE + 3);
        let mut resized: SegVec<usize> = SegVec::new();
        resized.resize(SEG_SIZE + 3, 0);
        for i in 0..resized.len() {
            *resized.get_mut(i).unwrap() = i;
        }
        assert_eq!(pushed, resized);
    }

    #[test]
    fn get_mut_out_of_range_is_none() {
        let mut v = filled(3);
        assert!(v.get_mut(3).is_none());
        assert!(v.get_mut(usize::MAX).is_none());
    }

    #[test]
    fn debug_prints_flat_contents() {
        let v: SegVec<u32> = [1u32, 2, 3].into_iter().collect();
        assert_eq!(format!("{v:?}"), "[1, 2, 3]");
    }
}
