use crate::{AccessKind, Tally, Trie, TrieLevel, Value, WORD_BYTES};

/// A LeapFrog-TrieJoin cursor over a [`Trie`] (Veldhuizen, ICDT'14).
///
/// The cursor is positioned on a node of one trie level (or "above the
/// root"). [`open`](Self::open) descends to the first child,
/// [`up`](Self::up) ascends, [`next`](Self::next) advances to the following
/// sibling, and [`seek`](Self::seek) performs the lowest-upper-bound search
/// that the paper's LUB hardware unit implements with binary search.
///
/// Every value or child-range word fetched from the trie is reported to the
/// caller's [`Tally`]. With [`crate::Counting`] (an [`crate::AccessCounter`])
/// that is how the software engines reproduce the paper's memory-access
/// comparison (Figure 17); with [`crate::NoTally`] the instrumentation
/// compiles away entirely and the cursor runs at full speed.
///
/// # Example
///
/// ```
/// use triejax_relation::{AccessCounter, Relation, Trie, TrieCursor};
///
/// let trie = Trie::build(&Relation::from_pairs(vec![(1, 2), (1, 5), (3, 4)]));
/// let mut cur = TrieCursor::new(&trie);
/// let mut c = AccessCounter::default();
/// cur.open(&mut c);
/// assert_eq!(cur.key(), 1);
/// assert!(cur.seek(2, &mut c)); // lowest upper bound of 2 is 3
/// assert_eq!(cur.key(), 3);
/// cur.open(&mut c);
/// assert_eq!(cur.key(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct TrieCursor<'a> {
    trie: &'a Trie,
    /// Per-depth level views, computed once at construction. The views are
    /// `Copy` borrows into the trie's flat word buffer; `open` reads the
    /// child range from one and cuts the next frame's slice from another.
    levels: Vec<TrieLevel<'a>>,
    /// The trie's root directory (empty when it has none).
    root_dir: &'a [u32],
    /// The trie's leaf bitmaps and words per parent node (`0` when it has
    /// none).
    leaf_bits: &'a [u64],
    leaf_words: usize,
    /// One frame per open level.
    frames: Vec<Frame<'a>>,
}

/// One open level. The frame holds the sibling slice itself, so every
/// per-probe operation (`key`, `next`, `seek`) is one index into `sib`
/// and the slice's own bounds check is the at-end check.
#[derive(Debug, Clone, Copy)]
struct Frame<'a> {
    /// The level's value array cut at the end of the sibling range
    /// (`values()[..hi]`), so `pos` stays an absolute level index.
    sib: &'a [Value],
    /// First sibling; `lo <= pos <= sib.len()`.
    lo: usize,
    pos: usize,
}

impl<'a> TrieCursor<'a> {
    /// Creates a cursor positioned above the root of `trie`.
    pub fn new(trie: &'a Trie) -> Self {
        let (leaf_bits, leaf_words) = trie.leaf_bits();
        TrieCursor {
            trie,
            levels: (0..trie.arity()).map(|i| trie.level(i)).collect(),
            root_dir: trie.root_dir(),
            leaf_bits,
            leaf_words,
            frames: Vec::with_capacity(trie.arity()),
        }
    }

    /// The trie this cursor walks.
    pub fn trie(&self) -> &'a Trie {
        self.trie
    }

    /// Current depth: number of open levels (0 = above root).
    #[inline]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// `true` once the cursor stepped past the last sibling of the current
    /// level.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root.
    #[inline]
    pub fn at_end(&self) -> bool {
        let f = self.top();
        f.pos >= f.sib.len()
    }

    /// Value of the current node.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or at the end of a level.
    #[inline]
    pub fn key(&self) -> Value {
        let f = self.top();
        f.sib[f.pos]
    }

    /// Index of the current node within its level's value array.
    ///
    /// The PJR cache stores these indexes alongside values so cached entries
    /// can be re-expanded by Midwife (paper §3.5).
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or at the end of a level.
    #[inline]
    pub fn pos(&self) -> usize {
        let f = self.top();
        assert!(f.pos < f.sib.len(), "cursor is at end");
        f.pos
    }

    /// Sibling range `[lo, hi)` of the current level.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root.
    pub fn sibling_range(&self) -> (usize, usize) {
        let f = self.top();
        (f.lo, f.sib.len())
    }

    /// The current key followed by its unvisited siblings (empty once the
    /// level has ended): what a leapfrog over this level has left to look
    /// at, as one sorted slice.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root.
    #[inline]
    pub fn sibling_slice(&self) -> &'a [Value] {
        let f = self.top();
        &f.sib[f.pos..]
    }

    /// `true` when the trie has leaf bitmaps, so a whole leaf frame can be
    /// handed out by [`sibling_bits`](Self::sibling_bits).
    #[inline]
    pub fn has_leaf_bits(&self) -> bool {
        self.leaf_words > 0
    }

    /// The open leaf level's siblings as a presence bitmap (bit `v` of word
    /// `v / 64` set when `v` is a sibling), when the trie has leaf bitmaps
    /// and the frame is the whole, unvisited child list of its parent —
    /// what [`open`](Self::open) pushes. A frame shrunk by a range open, or
    /// advanced by
    /// [`next`](Self::next)/[`seek`](Self::seek), gets `None`: the bitmap
    /// holds the whole list, so it equals
    /// [`sibling_slice`](Self::sibling_slice) as a set exactly then.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root.
    #[inline]
    pub fn sibling_bits(&self) -> Option<&'a [u64]> {
        let depth = self.frames.len();
        if self.leaf_words == 0 || depth != self.levels.len() {
            return None;
        }
        let f = self.top();
        let (node, (lo, hi)) = match depth.checked_sub(2) {
            Some(up) => {
                let parent = self.frames[up].pos;
                (parent, self.levels[up].child_range(parent))
            }
            None => (0, (0, self.levels[0].len())),
        };
        if f.pos != lo || f.lo != lo || f.sib.len() != hi {
            return None;
        }
        let w = self.leaf_words;
        Some(&self.leaf_bits[node * w..(node + 1) * w])
    }

    #[inline]
    fn top(&self) -> &Frame<'a> {
        self.frames.last().expect("cursor is above the root")
    }

    #[inline]
    fn top_mut(&mut self) -> &mut Frame<'a> {
        self.frames.last_mut().expect("cursor is above the root")
    }

    /// Opens the next level on the sibling range `[lo, hi)`, charging the
    /// fetch of its first value; `false` (nothing pushed) when it is empty.
    #[inline]
    fn push<T: Tally>(&mut self, lo: usize, hi: usize, counter: &mut T) -> bool {
        if lo >= hi {
            return false;
        }
        counter.record(AccessKind::IndexRead, WORD_BYTES);
        let sib = &self.levels[self.frames.len()].values()[..hi];
        self.frames.push(Frame { sib, lo, pos: lo });
        true
    }

    /// Child range of the current node, charging the two child-range words
    /// Midwife reads (`child_starts[pos]` and `child_starts[pos + 1]`).
    #[inline]
    fn child_range<T: Tally>(&self, counter: &mut T) -> (usize, usize) {
        let depth = self.frames.len();
        assert!(depth < self.trie.arity(), "cannot open past the leaf level");
        let f = self.top();
        assert!(f.pos < f.sib.len(), "cannot open an ended level");
        counter.record(AccessKind::IndexRead, 2 * WORD_BYTES);
        self.levels[depth - 1].child_range(f.pos)
    }

    /// Descends to the first child of the current node (or to the first
    /// root-level node when above the root), reading the child-range words.
    ///
    /// Returns `false` if the child range is empty (only possible on an
    /// empty trie at the root).
    ///
    /// # Panics
    ///
    /// Panics when called on a leaf-level node or on an ended level.
    #[inline]
    pub fn open<T: Tally>(&mut self, counter: &mut T) -> bool {
        let (lo, hi) = if self.frames.is_empty() {
            (0, self.levels[0].len())
        } else {
            self.child_range(counter)
        };
        self.push(lo, hi, counter)
    }

    /// Descends to the root level restricted to values in `[min, sup)`
    /// (`sup = None` means unbounded above), reading the bounding child
    /// range and locating the bounds by counted binary search.
    ///
    /// This is the shard-entry operation of the parallel engines: each
    /// root-range shard opens every participating trie's root level
    /// clamped to its slice of the first join variable's domain, so the
    /// subsequent leapfrog never probes outside the shard.
    ///
    /// Returns `false` (leaving the cursor above the root) when no root
    /// value falls inside the range.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not above the root.
    pub fn open_root_range<T: Tally>(
        &mut self,
        min: Value,
        sup: Option<Value>,
        counter: &mut T,
    ) -> bool {
        assert!(
            self.frames.is_empty(),
            "root range opens from above the root"
        );
        let values = self.levels[0].values();
        // An unbounded side needs no probing, so the first shard (min 0)
        // and the last (sup None) pay only for the bound they actually
        // have — and a fully unbounded "range" costs the same as `open`.
        let lo = if min == 0 {
            0
        } else {
            lower_bound(values, 0, values.len(), min, counter)
        };
        let hi = match sup {
            Some(s) => lower_bound(values, lo, values.len(), s, counter),
            None => values.len(),
        };
        self.push(lo, hi, counter)
    }

    /// Descends one level restricted to values in `[min, sup)` (`sup =
    /// None` means unbounded above): the any-depth generalization of
    /// [`open_root_range`](Self::open_root_range). Above the root it *is*
    /// `open_root_range`; on an inner node it reads the child-range words
    /// like [`open`](Self::open) and then locates the bounds by counted
    /// binary search within the child range.
    ///
    /// A resumed run enters its tail this way: it re-binds the tail's
    /// prefix, then opens the tail's level restricted to `[min, sup)`.
    ///
    /// Returns `false` (cursor depth unchanged) when no child value falls
    /// inside the range.
    ///
    /// # Panics
    ///
    /// Panics when called on a leaf-level node or on an ended level.
    pub fn open_range<T: Tally>(
        &mut self,
        min: Value,
        sup: Option<Value>,
        counter: &mut T,
    ) -> bool {
        if self.frames.is_empty() {
            return self.open_root_range(min, sup, counter);
        }
        let (lo, hi) = self.child_range(counter);
        let values = self.levels[self.frames.len()].values();
        let lo = if min == 0 {
            lo
        } else {
            lower_bound(values, lo, hi, min, counter)
        };
        let hi = match sup {
            Some(s) => lower_bound(values, lo, hi, s, counter),
            None => hi,
        };
        self.push(lo, hi, counter)
    }

    /// Ascends one level.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root.
    #[inline]
    pub fn up(&mut self) {
        self.frames.pop().expect("cursor is above the root");
    }

    /// Advances to the next sibling. Returns `false` (and leaves the cursor
    /// `at_end`) when the level is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or already at the end.
    #[inline]
    pub fn next<T: Tally>(&mut self, counter: &mut T) -> bool {
        let f = self.top_mut();
        assert!(f.pos < f.sib.len(), "cursor is already at end");
        f.pos += 1;
        if f.pos < f.sib.len() {
            counter.record(AccessKind::IndexRead, WORD_BYTES);
            true
        } else {
            false
        }
    }

    /// Descends one level directly to an absolute index, without touching
    /// memory.
    ///
    /// This is the cache-hit replay path of Cached TrieJoin: a PJR-cache
    /// entry stores `(value, index)` pairs, so the engine re-opens the level
    /// at the stored index without any child-range read or search. The
    /// pushed frame is a singleton range — during replay the engine never
    /// iterates siblings at the cached level.
    ///
    /// # Panics
    ///
    /// Panics when called on a leaf-level node or with `pos` outside the
    /// level.
    #[inline]
    pub fn open_at(&mut self, pos: usize) {
        let depth = self.frames.len();
        assert!(depth < self.trie.arity(), "cannot open past the leaf level");
        let values = self.levels[depth].values();
        assert!(pos < values.len(), "open_at index outside level");
        let sib = &values[..pos + 1];
        self.frames.push(Frame { sib, lo: pos, pos });
    }

    /// Repositions the cursor at an absolute index of the current level,
    /// without touching memory.
    ///
    /// Used when replaying positions stored in a partial-join-result cache:
    /// the cached entry already holds both the value and its index, so no
    /// probe is needed (paper §3.5).
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or `pos` lies outside the
    /// current sibling range.
    #[inline]
    pub fn jump(&mut self, pos: usize) {
        let f = self.top_mut();
        assert!(
            pos >= f.lo && pos < f.sib.len(),
            "jump target outside sibling range"
        );
        f.pos = pos;
    }

    /// Seeks the lowest upper bound of `v` among the remaining siblings.
    /// Returns `false` when every remaining sibling is smaller than `v`.
    ///
    /// Seeking is forward-only: positions before the current one are never
    /// revisited, as required by LeapFrog TrieJoin. The search itself is
    /// [`seek_in`] over the frame's sibling slice — the sorted-array search
    /// the paper's LUB unit performs, probe for probe under [`crate::Counting`].
    ///
    /// The one exception is an untallied ([`crate::NoTally`]) seek on the
    /// root level of a trie with a root directory: there the lower bound
    /// over the whole root is one table read, clamped into the frame's
    /// `[pos, end]` (so shard-clamped root frames stay exact). Both paths
    /// land on the same position.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or already at the end.
    #[inline]
    pub fn seek<T: Tally>(&mut self, v: Value, counter: &mut T) -> bool {
        let dir = self.root_dir;
        let at_root = self.frames.len() == 1;
        let f = self.top_mut();
        f.pos = if !T::ENABLED && at_root && !dir.is_empty() {
            let lub = dir.get(v as usize).map_or(usize::MAX, |&d| d as usize);
            lub.max(f.pos).min(f.sib.len())
        } else {
            seek_in(f.sib, f.pos, v, counter)
        };
        f.pos < f.sib.len()
    }
}

/// Lowest-upper-bound search in a sorted slice: the first index at or after
/// `pos` whose value is `>= v`, or `values.len()` when every remaining
/// value is smaller. This is [`TrieCursor::seek`] without the cursor — the
/// leaf-level leapfrog kernel runs it on bare sibling slices — so both
/// issue the same probes and tally the same reads.
///
/// Because successive seeks within a level are monotone, the target is
/// usually *near* `pos`, so the search gallops (exponential probe strides
/// from `pos`) before binary-searching the bracketed gap — `O(log d)`
/// probes for a target `d` ahead, instead of `O(log (len - pos))` for a
/// restart-from-`pos` binary search. Every probed word is tallied (one
/// counted probe per value read), keeping Counting-mode figures honest.
///
/// # Panics
///
/// Panics if `pos` is not a valid index (the "already at end" case).
#[inline]
pub fn seek_in<T: Tally>(values: &[Value], pos: usize, v: Value, counter: &mut T) -> usize {
    counter.record(AccessKind::IndexRead, WORD_BYTES);
    if values[pos] >= v {
        return pos;
    }
    // Invariant: values[lo] < v. Gallop until a probe lands >= v (new
    // exclusive upper bracket) or the stride runs off the slice.
    let (mut lo, mut hi) = (pos, values.len());
    let mut step = 1usize;
    while lo + step < values.len() {
        counter.record(AccessKind::IndexRead, WORD_BYTES);
        if values[lo + step] < v {
            lo += step;
            step <<= 1;
        } else {
            hi = lo + step;
            break;
        }
    }
    lower_bound(values, lo + 1, hi, v, counter)
}

/// First index in `values[lo..hi]` whose value is `>= v` (counting one
/// probe per midpoint read, like [`seek_in`]).
#[inline]
pub(crate) fn lower_bound<T: Tally>(
    values: &[Value],
    mut lo: usize,
    mut hi: usize,
    v: Value,
    counter: &mut T,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        counter.record(AccessKind::IndexRead, WORD_BYTES);
        if values[mid] < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessCounter, NoTally, Relation};

    fn trie() -> Trie {
        // Level 0: [1, 3, 7]; children: 1 -> [2, 5], 3 -> [4], 7 -> [1, 9]
        Trie::build(&Relation::from_pairs(vec![
            (1, 2),
            (1, 5),
            (3, 4),
            (7, 1),
            (7, 9),
        ]))
    }

    #[test]
    fn galloping_seek_counts_every_probe() {
        // Single level holding 0..16 so probe sequences are hand-checkable.
        let rel =
            Relation::from_tuples(1, (0..16u32).map(|v| vec![v]).collect::<Vec<_>>()).unwrap();
        let t = Trie::build(&rel);
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        // Seek to the current key: the initial probe answers it.
        let mut c = AccessCounter::default();
        assert!(cur.seek(0, &mut c));
        assert_eq!((cur.key(), c.index_reads), (0, 1));
        // Seek 5 from pos 0: initial probe at 0, gallop probes at 1, 3, 7,
        // binary probes at 5 and 4 — exactly 6 tallied reads.
        let mut c = AccessCounter::default();
        assert!(cur.seek(5, &mut c));
        assert_eq!((cur.key(), c.index_reads), (5, 6));
        // Adjacent seek: initial probe at 5, gallop probe at 6 brackets an
        // empty gap — exactly 2 tallied reads (a restart-from-pos binary
        // search would have paid ~log2(11)).
        let mut c = AccessCounter::default();
        assert!(cur.seek(6, &mut c));
        assert_eq!((cur.key(), c.index_reads), (6, 2));
        // Seek past the end: probes at 6, 7, 9, 13, then binary probe at 15
        // — exactly 5 tallied reads, and the cursor reports exhaustion.
        let mut c = AccessCounter::default();
        assert!(!cur.seek(99, &mut c));
        assert_eq!(c.index_reads, 5);

        // The same four searches on the bare slice: `seek_in` is the seek,
        // so positions and probe counts are the ones checked above.
        let values = t.level(0).values();
        let mut pos = 0;
        for (v, lands, reads) in [(0, 0, 1), (5, 5, 6), (6, 6, 2), (99, 16, 5)] {
            let mut c = AccessCounter::default();
            pos = seek_in(values, pos, v, &mut c);
            assert_eq!((pos, c.index_reads), (lands, reads), "seek_in {v}");
            assert_eq!(c.index_bytes, reads * WORD_BYTES);
        }
    }

    /// Where a cursor stands: at-end flag and unvisited siblings.
    fn stand(cur: &TrieCursor) -> (bool, usize) {
        (cur.at_end(), cur.sibling_slice().len())
    }

    /// Seeks every probe in `0..=max + 2` (capped) plus `u32::MAX` on the
    /// root, from a fresh open and as one ascending sequence, with an
    /// untallied and a tallied cursor: both must land on the same positions.
    fn untallied_root_seeks_match_the_gallop(t: &Trie) {
        let top = t
            .level(0)
            .values()
            .last()
            .map_or(0, |&m| m.saturating_add(2));
        let probes: Vec<Value> = (0..=top.min(1 << 12)).chain([top, Value::MAX]).collect();
        let (mut fast, mut slow) = (TrieCursor::new(t), TrieCursor::new(t));
        let mut c = AccessCounter::default();
        if !slow.open(&mut c) {
            assert!(!fast.open(&mut NoTally));
            return;
        }
        for &v in &probes {
            let (mut f, mut s) = (TrieCursor::new(t), TrieCursor::new(t));
            f.open(&mut NoTally);
            s.open(&mut c);
            assert_eq!(f.seek(v, &mut NoTally), s.seek(v, &mut c), "seek {v}");
            assert_eq!(stand(&f), stand(&s), "seek {v}");
        }
        fast.open(&mut NoTally);
        for &v in &probes {
            if slow.at_end() {
                break;
            }
            assert_eq!(fast.seek(v, &mut NoTally), slow.seek(v, &mut c), "seek {v}");
            assert_eq!(stand(&fast), stand(&slow), "seek {v}");
        }
    }

    #[test]
    fn untallied_root_seeks_land_where_the_gallop_does() {
        let roots =
            |vals: &[Value]| Trie::build(&Relation::from_pairs(vals.iter().map(|&x| (x, 7))));
        // Last root value u32::MAX - 1: too sparse for a directory.
        let huge = roots(&[0, 5, u32::MAX - 1]);
        assert!(huge.root_dir().is_empty());
        // Exactly at the density cap: max + 2 == 2 * len.
        let at_cap = roots(&[0, 3, 4, 6]);
        assert_eq!(at_cap.root_dir().len(), 8);
        // Arity 1, where the root is also the leaf.
        let unary = Trie::build(
            &Relation::from_tuples(
                1,
                (0..40u32).step_by(2).map(|v| vec![v]).collect::<Vec<_>>(),
            )
            .unwrap(),
        );
        assert!(!unary.root_dir().is_empty());
        for t in [
            huge,
            at_cap,
            unary,
            trie(),
            Trie::build(&Relation::new(2).unwrap()),
        ] {
            untallied_root_seeks_match_the_gallop(&t);
        }
    }

    #[test]
    fn untallied_root_seek_respects_a_clamped_frame() {
        // Root 0..20 with a directory; a shard owning [5, 12).
        let t = Trie::build(&Relation::from_pairs((0..20u32).map(|x| (x, x))));
        assert!(!t.root_dir().is_empty());
        let mut cur = TrieCursor::new(&t);
        assert!(cur.open_root_range(5, Some(12), &mut NoTally));
        assert!(
            cur.seek(2, &mut NoTally),
            "behind the frame start stays put"
        );
        assert_eq!(cur.key(), 5);
        assert!(cur.seek(9, &mut NoTally));
        assert_eq!(cur.key(), 9);
        assert!(cur.seek(3, &mut NoTally), "seeks never move backwards");
        assert_eq!(cur.key(), 9);
        assert!(!cur.seek(12, &mut NoTally), "the shard ends before 12");
        assert_eq!(cur.sibling_range(), (5, 12));
    }

    #[test]
    fn open_next_walks_root_level() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        assert_eq!(cur.key(), 1);
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 3);
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 7);
        assert!(!cur.next(&mut c));
        assert!(cur.at_end());
    }

    #[test]
    fn open_descends_into_children() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.next(&mut c); // at 3
        assert!(cur.open(&mut c));
        assert_eq!(cur.depth(), 2);
        assert_eq!(cur.key(), 4);
        assert!(!cur.next(&mut c));
        cur.up();
        assert_eq!(cur.key(), 3);
    }

    #[test]
    fn seek_finds_lowest_upper_bound() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        assert!(cur.seek(2, &mut c));
        assert_eq!(cur.key(), 3);
        assert!(cur.seek(3, &mut c), "seek to the current key stays put");
        assert_eq!(cur.key(), 3);
        assert!(!cur.seek(8, &mut c));
        assert!(cur.at_end());
    }

    #[test]
    fn seek_is_forward_only() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.seek(7, &mut c);
        assert_eq!(cur.key(), 7);
        // Seeking a smaller value must not move backwards.
        assert!(cur.seek(1, &mut c));
        assert_eq!(cur.key(), 7);
    }

    #[test]
    fn seek_within_child_range_is_bounded() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.seek(7, &mut c);
        cur.open(&mut c); // children of 7: [1, 9]
        assert!(cur.seek(2, &mut c));
        assert_eq!(cur.key(), 9);
        let (lo, hi) = cur.sibling_range();
        assert_eq!(hi - lo, 2);
    }

    #[test]
    fn accesses_are_counted() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c); // 1 value read
        assert_eq!(c.index_reads, 1);
        cur.open(&mut c); // 2 child-range words + 1 value read
        assert_eq!(c.index_reads, 3);
        assert_eq!(c.index_bytes, (1 + 2 + 1) * WORD_BYTES);
    }

    #[test]
    fn empty_trie_open_returns_false() {
        let t = Trie::build(&Relation::new(2).unwrap());
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(!cur.open(&mut c));
        assert_eq!(cur.depth(), 0);
    }

    #[test]
    fn open_root_range_clamps_both_bounds() {
        // Root level: [1, 3, 7].
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(cur.open_root_range(2, Some(7), &mut c));
        assert_eq!(cur.key(), 3);
        let (lo, hi) = cur.sibling_range();
        assert_eq!(hi - lo, 1, "only 3 lies in [2, 7)");
        assert!(!cur.next(&mut c));
        cur.up();
        // Unbounded above: [3, inf) holds 3 and 7.
        assert!(cur.open_root_range(3, None, &mut c));
        assert_eq!(cur.key(), 3);
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 7);
        assert!(c.index_reads > 0, "range probes are counted");
    }

    #[test]
    fn open_root_range_rejects_empty_ranges() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(!cur.open_root_range(4, Some(7), &mut c));
        assert_eq!(cur.depth(), 0, "cursor stays above the root");
        assert!(!cur.open_root_range(8, None, &mut c));
        assert!(
            cur.open_root_range(0, None, &mut c),
            "full range still opens"
        );
        assert_eq!(cur.key(), 1);
    }

    #[test]
    #[should_panic(expected = "above the root")]
    fn open_root_range_below_root_panics() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.open_root_range(0, None, &mut c);
    }

    #[test]
    #[should_panic(expected = "above the root")]
    fn key_above_root_panics() {
        let t = trie();
        let cur = TrieCursor::new(&t);
        let _ = cur.key();
    }

    #[test]
    fn open_range_above_the_root_is_open_root_range() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(cur.open_range(3, Some(8), &mut c));
        assert_eq!((cur.depth(), cur.key()), (1, 3));
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 7);
        assert!(
            !cur.next(&mut c),
            "sup is exclusive of nothing here; level ends"
        );
    }

    #[test]
    fn open_range_on_an_inner_level_clamps_and_counts() {
        // Children of 7: [1, 9].
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.seek(7, &mut c);
        let mut c = AccessCounter::default();
        assert!(cur.open_range(2, None, &mut c));
        assert_eq!((cur.depth(), cur.key()), (2, 9));
        // Child-range words, two lower_bound probes over [1, 9], first
        // in-range value: exactly four tallied reads.
        assert_eq!(c.index_reads, 4);
        assert_eq!(c.index_bytes, (2 + 2 + 1) as u64 * WORD_BYTES);
        assert!(!cur.next(&mut c));
    }

    #[test]
    fn open_range_with_an_empty_window_stays_put() {
        // Children of 1: [2, 5].
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        assert!(!cur.open_range(6, Some(9), &mut c));
        assert_eq!((cur.depth(), cur.key()), (1, 1));
    }
}
