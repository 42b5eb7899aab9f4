//! A join cursor over `base ∪ delta − tombstones`.
//!
//! [`MergeCursor`] walks the *merged view* of a mutated relation — the
//! frozen base [`Trie`], a small delta trie of pending inserts, and a
//! sorted tombstone set of pending deletes — while presenting the exact
//! [`JoinCursor`] surface the join engines drive. LFTJ and CTJ therefore
//! run unmodified over mutated relations: the drivers monomorphize over
//! the cursor type and never learn a delta exists.
//!
//! Mechanics: at each level the merged key is the **minimum** over the
//! sides open at that level; `open` descends only the sides positioned at
//! the merged key and narrows the tombstone row range by binary search on
//! the parent column. Tombstones are suppressed at the **leaf level
//! only**: an inner node whose entire subtree is tombstoned still appears
//! (a *phantom* node), which can cost wasted probes but never wrong
//! tuples — the drivers already tolerate `open` returning `false` at any
//! depth. With the delta in normal form (`inserts ∩ base = ∅`,
//! `tombstones ⊆ base`), a leaf value belongs to exactly one side, so the
//! suppression check only ever applies to base-side values.

use crate::{AccessKind, JoinCursor, Relation, Tally, Trie, TrieCursor, Value, WORD_BYTES};

/// A [`JoinCursor`] over `base ∪ delta − tombstones`.
///
/// Either side may be absent: `base = None` models a relation created
/// purely by inserts (no frozen trie yet), `delta = None` an unmutated
/// relation. With both absent the view is empty (`open` returns `false`).
///
/// # Example
///
/// ```
/// use triejax_relation::{JoinCursor, MergeCursor, NoTally, Relation, Trie};
///
/// let base = Trie::build(&Relation::from_pairs(vec![(1, 2), (3, 4)]));
/// let delta = Trie::build(&Relation::from_pairs(vec![(1, 9)]));
/// let tomb = Relation::from_pairs(vec![(3, 4)]);
/// let mut cur = MergeCursor::new(Some(&base), Some(&delta), &tomb);
/// assert!(cur.open(&mut NoTally)); // merged roots: [1] — 3's subtree is all-tombstoned
/// assert_eq!(cur.key(), 1);
/// assert!(cur.open(&mut NoTally));
/// assert_eq!(cur.key(), 2);
/// assert!(cur.next(&mut NoTally));
/// assert_eq!(cur.key(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct MergeCursor<'a> {
    arity: usize,
    base: Option<TrieCursor<'a>>,
    delta: Option<TrieCursor<'a>>,
    /// Pending deletes, sorted row-major, in the same column order as the
    /// tries. Always a subset of the base relation (normal form).
    tomb: &'a Relation,
    frames: Vec<MergeFrame>,
}

/// Per-open-level state: which sides hold a frame at this level, and the
/// tombstone rows whose prefix matches the path above it.
#[derive(Debug, Clone, Copy)]
struct MergeFrame {
    base_open: bool,
    delta_open: bool,
    tomb_lo: usize,
    tomb_hi: usize,
}

impl<'a> MergeCursor<'a> {
    /// Creates a cursor above the root of the merged view.
    ///
    /// # Panics
    ///
    /// Panics when the present sides and `tombstones` disagree on arity.
    pub fn new(base: Option<&'a Trie>, delta: Option<&'a Trie>, tombstones: &'a Relation) -> Self {
        let arity = tombstones.arity();
        if let Some(b) = base {
            assert_eq!(b.arity(), arity, "base/tombstone arity mismatch");
        }
        if let Some(d) = delta {
            assert_eq!(d.arity(), arity, "delta/tombstone arity mismatch");
        }
        MergeCursor {
            arity,
            base: base.map(TrieCursor::new),
            delta: delta.map(TrieCursor::new),
            tomb: tombstones,
            frames: Vec::with_capacity(arity),
        }
    }

    /// Key of the base side at the current level, when it is open there
    /// and not ended.
    fn base_key(&self) -> Option<Value> {
        let f = self.frames.last()?;
        match &self.base {
            Some(c) if f.base_open && !c.at_end() => Some(c.key()),
            _ => None,
        }
    }

    /// Key of the delta side at the current level, when it is open there
    /// and not ended.
    fn delta_key(&self) -> Option<Value> {
        let f = self.frames.last()?;
        match &self.delta {
            Some(c) if f.delta_open && !c.at_end() => Some(c.key()),
            _ => None,
        }
    }

    /// Pops the current frame and ascends every side that was open at it.
    fn pop_level(&mut self) {
        let f = self.frames.pop().expect("cursor is above the root");
        if f.base_open {
            self.base.as_mut().expect("flagged side exists").up();
        }
        if f.delta_open {
            self.delta.as_mut().expect("flagged side exists").up();
        }
    }

    /// `true` when `v` appears in the final tombstone column within the
    /// current leaf frame's row range. One counted probe per midpoint
    /// read, mirroring the trie-side binary searches.
    fn tombstoned<T: Tally>(&self, f: &MergeFrame, v: Value, counter: &mut T) -> bool {
        let col = self.arity - 1;
        let (mut lo, mut hi) = (f.tomb_lo, f.tomb_hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            counter.record(AccessKind::IndexRead, WORD_BYTES);
            let tv = self.tomb.tuple(mid)[col];
            if tv < v {
                lo = mid + 1;
            } else if tv > v {
                hi = mid;
            } else {
                return true;
            }
        }
        false
    }

    /// Narrows the parent frame's tombstone row range to rows whose
    /// column `col` equals `k`. Rows in the parent range share the path
    /// prefix above `col`, so that column is sorted within the range.
    fn narrow_tomb<T: Tally>(
        &self,
        parent: &MergeFrame,
        col: usize,
        k: Value,
        counter: &mut T,
    ) -> (usize, usize) {
        let mut probe = |lo: usize, hi: usize, below: Value| {
            // First row index in [lo, hi) whose column value is >= below.
            let (mut lo, mut hi) = (lo, hi);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                counter.record(AccessKind::IndexRead, WORD_BYTES);
                if self.tomb.tuple(mid)[col] < below {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        if parent.tomb_lo >= parent.tomb_hi {
            return (parent.tomb_lo, parent.tomb_lo);
        }
        let lo = probe(parent.tomb_lo, parent.tomb_hi, k);
        let hi = probe(lo, parent.tomb_hi, k + 1);
        (lo, hi)
    }

    /// At the leaf level, skips base-side values present in the tombstone
    /// set until an admissible value (or the end of the level) is
    /// reached. Returns `false` when the level is exhausted. Delta-side
    /// values are never tombstoned (normal form), and at the leaf a value
    /// belongs to exactly one side, so only strict base-minimum values
    /// need the membership check.
    fn settle_leaf<T: Tally>(&mut self, counter: &mut T) -> bool {
        debug_assert_eq!(self.frames.len(), self.arity, "settle applies at the leaf");
        loop {
            let f = *self.frames.last().expect("leaf frame");
            let (bk, dk) = (self.base_key(), self.delta_key());
            match (bk, dk) {
                (None, None) => return false,
                (Some(b), dk) if dk.is_none_or(|d| b < d) => {
                    if self.tombstoned(&f, b, counter) {
                        let side = self.base.as_mut().expect("base key implies base side");
                        side.next(counter);
                        continue;
                    }
                    return true;
                }
                _ => return true, // minimum comes from the delta side
            }
        }
    }
}

impl<'a> JoinCursor for MergeCursor<'a> {
    fn depth(&self) -> usize {
        self.frames.len()
    }

    fn at_end(&self) -> bool {
        assert!(!self.frames.is_empty(), "cursor is above the root");
        self.base_key().is_none() && self.delta_key().is_none()
    }

    fn key(&self) -> Value {
        assert!(!self.frames.is_empty(), "cursor is above the root");
        match (self.base_key(), self.delta_key()) {
            (Some(b), Some(d)) => b.min(d),
            (Some(b), None) => b,
            (None, Some(d)) => d,
            (None, None) => panic!("cursor is at end"),
        }
    }

    fn open<T: Tally>(&mut self, counter: &mut T) -> bool {
        let d = self.frames.len();
        assert!(d < self.arity, "cannot open past the leaf level");
        let (desc_base, desc_delta, tomb_lo, tomb_hi) = if d == 0 {
            (
                self.base.is_some(),
                self.delta.is_some(),
                0,
                self.tomb.len(),
            )
        } else {
            let f = *self.frames.last().expect("non-empty frames");
            let k = self.key(); // panics on an ended level, like TrieCursor
            let desc_base = self.base_key() == Some(k);
            let desc_delta = self.delta_key() == Some(k);
            let (lo, hi) = self.narrow_tomb(&f, d - 1, k, counter);
            (desc_base, desc_delta, lo, hi)
        };
        let base_open = desc_base && self.base.as_mut().expect("descending side").open(counter);
        let delta_open = desc_delta && self.delta.as_mut().expect("descending side").open(counter);
        if !base_open && !delta_open {
            return false;
        }
        self.frames.push(MergeFrame {
            base_open,
            delta_open,
            tomb_lo,
            tomb_hi,
        });
        if self.frames.len() == self.arity && !self.settle_leaf(counter) {
            // Every admissible leaf value under this node is tombstoned
            // (a phantom node): undo the descent and report it empty.
            self.pop_level();
            return false;
        }
        true
    }

    fn open_root_range<T: Tally>(
        &mut self,
        min: Value,
        sup: Option<Value>,
        counter: &mut T,
    ) -> bool {
        assert!(
            self.frames.is_empty(),
            "root range opens from above the root"
        );
        let base_open = self
            .base
            .as_mut()
            .is_some_and(|c| c.open_root_range(min, sup, counter));
        let delta_open = self
            .delta
            .as_mut()
            .is_some_and(|c| c.open_root_range(min, sup, counter));
        if !base_open && !delta_open {
            return false;
        }
        self.frames.push(MergeFrame {
            base_open,
            delta_open,
            tomb_lo: 0,
            tomb_hi: self.tomb.len(),
        });
        if self.arity == 1 && !self.settle_leaf(counter) {
            self.pop_level();
            return false;
        }
        true
    }

    fn open_range<T: Tally>(&mut self, min: Value, sup: Option<Value>, counter: &mut T) -> bool {
        let d = self.frames.len();
        if d == 0 {
            return self.open_root_range(min, sup, counter);
        }
        assert!(d < self.arity, "cannot open past the leaf level");
        let f = *self.frames.last().expect("non-empty frames");
        let k = self.key(); // panics on an ended level, like TrieCursor
        let desc_base = self.base_key() == Some(k);
        let desc_delta = self.delta_key() == Some(k);
        let (tomb_lo, tomb_hi) = self.narrow_tomb(&f, d - 1, k, counter);
        let base_open = desc_base
            && self
                .base
                .as_mut()
                .expect("descending side")
                .open_range(min, sup, counter);
        let delta_open = desc_delta
            && self
                .delta
                .as_mut()
                .expect("descending side")
                .open_range(min, sup, counter);
        if !base_open && !delta_open {
            return false;
        }
        self.frames.push(MergeFrame {
            base_open,
            delta_open,
            tomb_lo,
            tomb_hi,
        });
        if self.frames.len() == self.arity && !self.settle_leaf(counter) {
            self.pop_level();
            return false;
        }
        true
    }

    fn clamp_sup<T: Tally>(&mut self, sup: Value, counter: &mut T) {
        assert!(!self.frames.is_empty(), "clamp applies to an open level");
        let f = *self.frames.last().expect("non-empty frames");
        assert!(
            self.key() < sup,
            "split boundary must lie beyond the current key"
        );
        // Individual sides may sit at or past the boundary (the merged
        // key is the minimum over sides), so the clamp is lenient per
        // side: such a side simply ends in place.
        if f.base_open {
            self.base
                .as_mut()
                .expect("flagged side exists")
                .clamp_sup_lenient(sup, counter);
        }
        if f.delta_open {
            self.delta
                .as_mut()
                .expect("flagged side exists")
                .clamp_sup_lenient(sup, counter);
        }
    }

    fn up(&mut self) {
        self.pop_level();
    }

    fn next<T: Tally>(&mut self, counter: &mut T) -> bool {
        let k = self.key(); // panics above root / at end, like TrieCursor
        let f = *self.frames.last().expect("non-empty frames");
        if f.base_open {
            if let Some(c) = self.base.as_mut() {
                if !c.at_end() && c.key() == k {
                    c.next(counter);
                }
            }
        }
        if f.delta_open {
            if let Some(c) = self.delta.as_mut() {
                if !c.at_end() && c.key() == k {
                    c.next(counter);
                }
            }
        }
        if self.frames.len() == self.arity {
            self.settle_leaf(counter)
        } else {
            !self.at_end()
        }
    }

    fn seek<T: Tally>(&mut self, v: Value, counter: &mut T) -> bool {
        assert!(!self.frames.is_empty(), "cursor is above the root");
        assert!(!self.at_end(), "cursor is already at end");
        let f = *self.frames.last().expect("non-empty frames");
        if f.base_open {
            if let Some(c) = self.base.as_mut() {
                if !c.at_end() && c.key() < v {
                    c.seek(v, counter);
                }
            }
        }
        if f.delta_open {
            if let Some(c) = self.delta.as_mut() {
                if !c.at_end() && c.key() < v {
                    c.seek(v, counter);
                }
            }
        }
        if self.frames.len() == self.arity {
            self.settle_leaf(counter)
        } else {
            !self.at_end()
        }
    }

    fn fresh(&self) -> Self {
        MergeCursor {
            arity: self.arity,
            base: self.base.as_ref().map(|c| TrieCursor::new(c.trie())),
            delta: self.delta.as_ref().map(|c| TrieCursor::new(c.trie())),
            tomb: self.tomb,
            frames: Vec::with_capacity(self.arity),
        }
    }

    fn unvisited(&self) -> usize {
        assert!(
            !self.frames.is_empty(),
            "split hooks apply to an open level"
        );
        let f = self.frames.last().expect("non-empty frames");
        // When the last merge frame flags a side open, that side's own
        // deepest frame sits at the same depth (descent flags are
        // monotone: a side that drops out never re-enters deeper), so the
        // side's deepest-level tail is exactly its share of the merged
        // tail.
        let tail = |c: &Option<TrieCursor<'_>>, open: bool| -> usize {
            match c {
                Some(c) if open => c.unvisited(),
                _ => 0,
            }
        };
        tail(&self.base, f.base_open) + tail(&self.delta, f.delta_open)
    }

    fn split_boundary(&self) -> Value {
        let depth = self.frames.len();
        assert!(depth >= 1, "split hooks apply to an open level");
        let f = self.frames.last().expect("non-empty frames");
        let tail = |c: &Option<TrieCursor<'_>>, open: bool| -> usize {
            match c {
                Some(c) if open => c.unvisited(),
                _ => 0,
            }
        };
        let base_tail = tail(&self.base, f.base_open);
        let delta_tail = tail(&self.delta, f.delta_open);
        assert!(base_tail + delta_tail >= 1, "no unvisited tail to split");
        // Cut the longer side's tail in half; the boundary is strictly
        // greater than that side's current key, hence than the merged
        // key. Boundaries need not exist on the other side — donated
        // tails cover contiguous value ranges, not members.
        let donor = if base_tail >= delta_tail {
            self.base.as_ref().expect("non-zero tail")
        } else {
            self.delta.as_ref().expect("non-zero tail")
        };
        donor.split_boundary()
    }

    fn tail_contains<T: Tally>(&self, boundary: Value, counter: &mut T) -> bool {
        assert!(
            !self.frames.is_empty(),
            "split hooks apply to an open level"
        );
        let f = self.frames.last().expect("non-empty frames");
        let side = |c: &Option<TrieCursor<'_>>, open: bool, counter: &mut T| -> bool {
            match c {
                Some(c) if open => c.tail_contains(boundary, counter),
                _ => false,
            }
        };
        // Probe both sides unconditionally so the tally does not depend
        // on which side answers first.
        let in_base = side(&self.base, f.base_open, counter);
        let in_delta = side(&self.delta, f.delta_open, counter);
        in_base || in_delta
    }

    fn cache_pos(&self) -> u32 {
        // Positions are meaningless across a merged view; replay descends
        // by value (see `reopen_at`).
        0
    }

    fn reopen_at<T: Tally>(&mut self, _pos: u32, v: Value, counter: &mut T) {
        let opened = self.open(counter);
        debug_assert!(opened, "replayed value must exist in the merged view");
        let found = self.seek(v, counter);
        debug_assert!(
            found && self.key() == v,
            "replayed value must exist in the merged view"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessCounter, RelationDelta};

    /// Enumerates the merged view by exhaustively walking the cursor.
    fn enumerate(cur: &mut MergeCursor<'_>) -> Vec<Vec<Value>> {
        fn walk(
            cur: &mut MergeCursor<'_>,
            arity: usize,
            row: &mut Vec<Value>,
            out: &mut Vec<Vec<Value>>,
        ) {
            let mut c = AccessCounter::default();
            if !cur.open(&mut c) {
                return;
            }
            loop {
                row.push(cur.key());
                if cur.depth() == arity {
                    out.push(row.clone());
                } else {
                    walk(cur, arity, row, out);
                }
                row.pop();
                if !cur.next(&mut c) {
                    break;
                }
            }
            cur.up();
        }
        let arity = cur.arity;
        let mut out = Vec::new();
        walk(cur, arity, &mut Vec::new(), &mut out);
        out
    }

    fn merged_rows(rel: &Relation) -> Vec<Vec<Value>> {
        rel.iter().map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn enumeration_equals_the_merged_relation() {
        let base_rel = Relation::from_pairs(vec![(1, 2), (1, 5), (3, 4), (7, 1), (7, 9)]);
        let delta = RelationDelta::empty(2).unwrap().apply_batch(
            &base_rel,
            &Relation::from_pairs(vec![(1, 3), (2, 2), (9, 9)]),
            &Relation::from_pairs(vec![(1, 5), (3, 4)]),
        );
        let base = Trie::build(&base_rel);
        let dtrie = Trie::build(delta.inserts());
        let mut cur = MergeCursor::new(Some(&base), Some(&dtrie), delta.tombstones());
        assert_eq!(
            enumerate(&mut cur),
            merged_rows(&delta.merge_into(&base_rel))
        );
    }

    #[test]
    fn delta_only_and_empty_delta_sides() {
        let rel = Relation::from_pairs(vec![(1, 2), (3, 4)]);
        let trie = Trie::build(&rel);
        let none = Relation::new(2).unwrap();
        // Empty delta: the merged view is the base.
        let mut cur = MergeCursor::new(Some(&trie), None, &none);
        assert_eq!(enumerate(&mut cur), merged_rows(&rel));
        // Delta only (no base trie): the merged view is the delta.
        let mut cur = MergeCursor::new(None, Some(&trie), &none);
        assert_eq!(enumerate(&mut cur), merged_rows(&rel));
        // Neither side: empty view, open refuses.
        let mut cur = MergeCursor::new(None, None, &none);
        assert!(!cur.open(&mut AccessCounter::default()));
        assert_eq!(cur.depth(), 0);
    }

    #[test]
    fn fully_tombstoned_subtree_is_a_phantom() {
        // 3's entire subtree is deleted: the root key 3 still shows (a
        // phantom), but open() under it reports false and the cursor
        // recovers above it.
        let base_rel = Relation::from_pairs(vec![(1, 2), (3, 4), (3, 5)]);
        let base = Trie::build(&base_rel);
        let tomb = Relation::from_pairs(vec![(3, 4), (3, 5)]);
        let mut cur = MergeCursor::new(Some(&base), None, &tomb);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        assert!(cur.seek(3, &mut c));
        assert_eq!(cur.key(), 3);
        assert!(!cur.open(&mut c), "all children tombstoned");
        assert_eq!(cur.depth(), 1, "failed open leaves the cursor in place");
        assert_eq!(cur.key(), 3);
    }

    #[test]
    fn seek_skips_tombstoned_leaves() {
        let base_rel = Relation::from_pairs(vec![(1, 2), (1, 4), (1, 6)]);
        let base = Trie::build(&base_rel);
        let tomb = Relation::from_pairs(vec![(1, 4)]);
        let mut cur = MergeCursor::new(Some(&base), None, &tomb);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        assert!(cur.open(&mut c));
        assert_eq!(cur.key(), 2);
        assert!(cur.seek(3, &mut c), "lub of 3 skips the tombstoned 4");
        assert_eq!(cur.key(), 6);
    }

    #[test]
    fn root_range_and_clamp_respect_side_skew() {
        // Base roots [1, 3]; delta roots [5, 7, 9].
        let base_rel = Relation::from_pairs(vec![(1, 1), (3, 3)]);
        let delta_rel = Relation::from_pairs(vec![(5, 5), (7, 7), (9, 9)]);
        let base = Trie::build(&base_rel);
        let dtrie = Trie::build(&delta_rel);
        let none = Relation::new(2).unwrap();
        let mut cur = MergeCursor::new(Some(&base), Some(&dtrie), &none);
        let mut c = AccessCounter::default();
        assert!(cur.open_root_range(0, None, &mut c));
        assert_eq!(cur.key(), 1);
        // unvisited: base 1 (the 3), delta 3 (5/7/9 minus the current? no
        // — delta is positioned at 5, so 7 and 9 remain) = 1 + 2 = 3.
        assert_eq!(cur.unvisited(), 3);
        // Clamp at 5: the base keeps [1, 3], the delta side ends.
        cur.clamp_sup(5, &mut c);
        assert_eq!(cur.key(), 1);
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 3);
        assert!(!cur.next(&mut c), "5/7/9 were clamped away");
        // The handed-off range opens on a fresh cursor.
        let mut tail = cur.fresh();
        assert!(tail.open_root_range(5, None, &mut c));
        assert_eq!(tail.key(), 5);
        assert!(tail.next(&mut c));
        assert_eq!(tail.key(), 7);
    }

    #[test]
    fn split_boundary_comes_from_the_longer_side() {
        let base_rel = Relation::from_pairs(vec![(1, 1)]);
        let delta_rel = Relation::from_pairs(vec![(2, 2), (4, 4), (6, 6), (8, 8)]);
        let base = Trie::build(&base_rel);
        let dtrie = Trie::build(&delta_rel);
        let none = Relation::new(2).unwrap();
        let mut cur = MergeCursor::new(Some(&base), Some(&dtrie), &none);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        assert_eq!(cur.key(), 1);
        // Base tail 0, delta tail 3 (positioned at 2; 4/6/8 remain).
        assert_eq!(cur.unvisited(), 3);
        let boundary = cur.split_boundary();
        // Delta donor: values[0 + 1 + 3/2] = values[2] = 6.
        assert_eq!(boundary, 6);
        assert!(boundary > cur.key());
    }

    #[test]
    fn deep_split_hooks_cover_both_sides_of_the_merge() {
        // Children of 1: base [2, 6], delta [4, 8].
        let base_rel = Relation::from_pairs(vec![(1, 2), (1, 6)]);
        let delta_rel = Relation::from_pairs(vec![(1, 4), (1, 8)]);
        let base = Trie::build(&base_rel);
        let dtrie = Trie::build(&delta_rel);
        let none = Relation::new(2).unwrap();
        let mut cur = MergeCursor::new(Some(&base), Some(&dtrie), &none);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        assert!(cur.open(&mut c));
        assert_eq!((cur.depth(), cur.key()), (2, 2));
        // Base tail 1 (the 6), delta tail 1 (the 8).
        assert_eq!(cur.unvisited(), 2);
        // Equal tails: the base wins the tie; boundary = base values[1] = 6.
        assert_eq!(cur.split_boundary(), 6);
        let before = c.index_reads;
        assert!(cur.tail_contains(6, &mut c));
        assert!(c.index_reads > before, "deep validation probes are tallied");
        assert!(!cur.tail_contains(9, &mut c));
        // Donor half: clamp the child level below 6 → only 2 and 4 remain.
        cur.clamp_sup(6, &mut c);
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 4);
        assert!(!cur.next(&mut c), "6 and 8 were donated");
        // Donee half: re-descend under the prefix into [6, ∞).
        let mut donee = cur.fresh();
        assert!(donee.open(&mut c));
        assert!(donee.open_range(6, None, &mut c));
        assert_eq!((donee.depth(), donee.key()), (2, 6));
        assert!(donee.next(&mut c));
        assert_eq!(donee.key(), 8);
        assert!(!donee.next(&mut c));
    }

    #[test]
    fn open_range_skips_tombstoned_leaves() {
        // Children of 1 in the merged view: base [2, 6, 8] minus tomb (1,6).
        let base_rel = Relation::from_pairs(vec![(1, 2), (1, 6), (1, 8)]);
        let base = Trie::build(&base_rel);
        let tomb = Relation::from_pairs(vec![(1, 6)]);
        let mut cur = MergeCursor::new(Some(&base), None, &tomb);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        assert!(cur.open_range(3, None, &mut c));
        assert_eq!(cur.key(), 8, "tombstoned 6 is settled past");
        assert!(!cur.next(&mut c));
        // A window holding only tombstoned values is a phantom: the
        // descent is undone.
        let mut phantom = cur.fresh();
        assert!(phantom.open(&mut c));
        assert!(!phantom.open_range(3, Some(7), &mut c));
        assert_eq!(phantom.depth(), 1);
    }

    #[test]
    fn merged_levels_have_no_sibling_slice() {
        // A merged level is the union of two arrays minus tombstones: no
        // single slice holds it, so the engines keep driving the cursor.
        let base = Trie::build(&Relation::from_pairs(vec![(1, 2), (1, 6)]));
        let none = Relation::new(2).unwrap();
        let mut cur = MergeCursor::new(Some(&base), None, &none);
        let mut c = AccessCounter::default();
        assert!(cur.sibling_slice().is_none());
        assert!(cur.open(&mut c) && cur.open(&mut c));
        assert!(cur.sibling_slice().is_none(), "not even over a lone side");
        let mut plain = TrieCursor::new(&base);
        assert!(plain.open(&mut c) && plain.open(&mut c));
        assert_eq!(JoinCursor::sibling_slice(&plain), Some(&[2, 6][..]));
    }

    #[test]
    fn reopen_at_descends_by_value() {
        let base_rel = Relation::from_pairs(vec![(1, 2), (3, 4), (5, 6)]);
        let base = Trie::build(&base_rel);
        let delta_rel = Relation::from_pairs(vec![(4, 4)]);
        let dtrie = Trie::build(&delta_rel);
        let tomb = Relation::from_pairs(vec![(3, 4)]);
        let mut cur = MergeCursor::new(Some(&base), Some(&dtrie), &tomb);
        let mut c = AccessCounter::default();
        cur.reopen_at(0, 4, &mut c);
        assert_eq!((cur.depth(), cur.key()), (1, 4));
        cur.reopen_at(0, 4, &mut c);
        assert_eq!((cur.depth(), cur.key()), (2, 4));
    }

    #[test]
    fn unary_views_suppress_at_the_root() {
        let base_rel = Relation::from_tuples(1, vec![vec![1u32], vec![2], vec![3]]).unwrap();
        let base = Trie::build(&base_rel);
        let tomb = Relation::from_tuples(1, vec![vec![2u32]]).unwrap();
        let mut cur = MergeCursor::new(Some(&base), None, &tomb);
        assert_eq!(enumerate(&mut cur), vec![vec![1], vec![3]]);
        // A root range that holds only the tombstoned value refuses.
        let mut cur = MergeCursor::new(Some(&base), None, &tomb);
        let mut c = AccessCounter::default();
        assert!(!cur.open_root_range(2, Some(3), &mut c));
        assert_eq!(cur.depth(), 0);
    }
}
