//! A join cursor over `base ∪ inserts − tombstones`, served from a
//! *patched view* of the base trie.
//!
//! A [`MergedView`] is built by one co-walk of the frozen base [`Trie`],
//! the sorted pending inserts and the sorted tombstones (all in the same
//! column order). At every **dirty** node — one with an insert or a
//! tombstone somewhere below it — the merged sibling list is materialised
//! once into the view's own per-level buffer, and each key carries a child
//! descriptor that points either at another list in the view or, for a
//! *clean* subtree, straight at the base trie's own child range. Subtrees
//! whose every tuple is tombstoned are dropped while building, so the view
//! has no phantom nodes: whatever `open` can reach has a tuple below it.
//! Build cost is proportional to the sibling lists of the dirty nodes,
//! never to the base; an empty delta builds nothing at all.
//!
//! [`MergeCursor`] then walks two buffers — the base trie and the patch —
//! with exactly [`crate::TrieCursor`]'s frame arithmetic: every open level
//! is one sorted slice, `open` is a descriptor read, `seek` is the same
//! [`seek_in`], and [`JoinCursor::sibling_slice`] is always available, so
//! the engines' leaf-level slice kernel runs over mutated relations too.
//! The cursor issues the probes a `TrieCursor` over the rebuilt relation
//! would and tallies them identically.
//!
//! The delta need not be in normal form for the view to be right (an
//! insert wins over a tombstone of the same tuple, a tombstone naming no
//! base tuple is ignored), but [`crate::RelationDelta`] keeps it so.

use std::sync::Arc;

use crate::cursor::lower_bound;
use crate::{seek_in, AccessKind, JoinCursor, Relation, Tally, Trie, TrieLevel, Value, WORD_BYTES};

/// A sibling range `[lo, hi)` of one level's value array: the view's own
/// buffer for that level when `patched`, the base trie's otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Kids {
    patched: bool,
    lo: u32,
    hi: u32,
}

/// The view's buffers for one level: the merged sibling lists of the dirty
/// nodes above it, back to back, and per key where its children are (empty
/// on the leaf level).
#[derive(Debug, Clone, Default)]
struct PatchLevel {
    values: Vec<Value>,
    kids: Vec<Kids>,
}

/// The patch that turns a base trie into `base ∪ inserts − tombstones`;
/// see the module docs. A view is only meaningful beside the base trie it
/// was built from — [`MergeCursor::over`] pairs them again.
#[derive(Debug, Clone)]
pub struct MergedView {
    root: Kids,
    levels: Vec<PatchLevel>,
}

impl MergedView {
    /// Builds the view of `(base − tombstones) ∪ inserts`. `inserts` and
    /// `tombstones` are sorted rows in the base trie's column order;
    /// `base = None` models a relation that exists only as inserts.
    ///
    /// # Panics
    ///
    /// Panics when the present parts disagree on arity.
    pub fn build(base: Option<&Trie>, inserts: &Relation, tombstones: &Relation) -> MergedView {
        let arity = tombstones.arity();
        assert_eq!(inserts.arity(), arity, "delta/tombstone arity mismatch");
        if let Some(b) = base {
            assert_eq!(b.arity(), arity, "base/tombstone arity mismatch");
        }
        let mut builder = Builder {
            base: base.map_or_else(Vec::new, |t| (0..arity).map(|l| t.level(l)).collect()),
            inserts,
            tombstones,
            levels: vec![PatchLevel::default(); arity],
        };
        let base_root = builder.base.first().map_or(0, |l| l.len());
        // An untouched base is served as it stands; nothing is copied.
        let root = if base.is_some() && inserts.is_empty() && tombstones.is_empty() {
            Kids {
                patched: false,
                lo: 0,
                hi: index(base_root),
            }
        } else {
            builder.merge_node(0, (0, base_root), (0, inserts.len()), (0, tombstones.len()))
        };
        MergedView {
            root,
            levels: builder.levels,
        }
    }

    /// The merged root level as one sorted slice — the key universe shard
    /// planning cuts. `base` is the trie the view was built from.
    pub fn root_values<'v>(&'v self, base: Option<&'v Trie>) -> &'v [Value] {
        let values = match base {
            Some(b) if !self.root.patched => b.level(0).values(),
            _ => &self.levels[0].values,
        };
        &values[self.root.lo as usize..self.root.hi as usize]
    }

    /// Footprint of the patch in bytes (the base trie is not counted).
    pub fn bytes(&self) -> u64 {
        let level = |l: &PatchLevel| {
            std::mem::size_of_val(&l.values[..]) + std::mem::size_of_val(&l.kids[..])
        };
        (std::mem::size_of::<Self>() + self.levels.iter().map(level).sum::<usize>()) as u64
    }
}

/// A position in a view buffer or base level as stored in [`Kids`].
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("level exceeds the u32 index space of a trie")
}

/// End of the run of rows in `rows[from..hi]` whose column `col` is `k`.
fn run_end(rows: &Relation, from: usize, hi: usize, col: usize, k: Value) -> usize {
    (from..hi).find(|&r| rows.tuple(r)[col] != k).unwrap_or(hi)
}

struct Builder<'a> {
    /// The base trie's levels; empty without a base.
    base: Vec<TrieLevel<'a>>,
    inserts: &'a Relation,
    tombstones: &'a Relation,
    levels: Vec<PatchLevel>,
}

impl Builder<'_> {
    /// Materialises the merged sibling list of one dirty node at level
    /// `l`: its base siblings `base`, and the insert and tombstone rows
    /// that share its path. Returns where the list went — empty when the
    /// whole subtree is tombstoned, which makes the caller drop its key.
    fn merge_node(
        &mut self,
        l: usize,
        (mut b, base_hi): (usize, usize),
        (mut i, ins_hi): (usize, usize),
        (mut t, tomb_hi): (usize, usize),
    ) -> Kids {
        let leaf = l + 1 == self.levels.len();
        let lo = self.levels[l].values.len();
        let base = self.base.get(l).copied();
        loop {
            // The next key an insert or a tombstone names. Base keys below
            // it are clean: copied as they stand, their children shared
            // with the base trie.
            let ins_key = (i < ins_hi).then(|| self.inserts.tuple(i)[l]);
            let tomb_key = (t < tomb_hi).then(|| self.tombstones.tuple(t)[l]);
            let dirty = ins_key.into_iter().chain(tomb_key).min();
            if let Some(lvl) = base {
                let clean = |v: &&Value| dirty.is_none_or(|k| **v < k);
                let run = b + lvl.values()[b..base_hi].iter().take_while(clean).count();
                self.levels[l]
                    .values
                    .extend_from_slice(&lvl.values()[b..run]);
                if !leaf {
                    let starts = &lvl.child_starts()[b..=run];
                    self.levels[l].kids.extend(starts.windows(2).map(|w| Kids {
                        patched: false,
                        lo: w[0],
                        hi: w[1],
                    }));
                }
                b = run;
            }
            let Some(k) = dirty else { break };
            let in_base = base.is_some_and(|lvl| b < base_hi && lvl.values()[b] == k);
            let ins_end = run_end(self.inserts, i, ins_hi, l, k);
            let tomb_end = run_end(self.tombstones, t, tomb_hi, l, k);
            // `None` drops the key; `Some` keeps it, with its child
            // descriptor on the inner levels.
            let kids = if leaf {
                // Insert wins; a base value lives unless tombstoned.
                (ins_end > i || (in_base && tomb_end == t)).then_some(None)
            } else {
                let below = match base {
                    Some(lvl) if in_base => lvl.child_range(b),
                    _ => (0, 0),
                };
                let kids = self.merge_node(l + 1, below, (i, ins_end), (t, tomb_end));
                (kids.lo < kids.hi).then_some(Some(kids))
            };
            if let Some(kids) = kids {
                self.levels[l].values.push(k);
                self.levels[l].kids.extend(kids);
            }
            b += usize::from(in_base);
            (i, t) = (ins_end, tomb_end);
        }
        Kids {
            patched: true,
            lo: index(lo),
            hi: index(self.levels[l].values.len()),
        }
    }
}

/// A [`JoinCursor`] over `base ∪ inserts − tombstones`: a
/// [`crate::TrieCursor`]-shaped walk of a base trie and the
/// [`MergedView`] patching it.
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
/// assert_eq!(cur.sibling_slice(), Some(&[1][..]));
/// assert!(cur.open(&mut NoTally));
/// assert_eq!(cur.key(), 2);
/// assert!(cur.next(&mut NoTally));
/// assert_eq!(cur.key(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct MergeCursor<'a> {
    /// The base trie's levels; empty without a base.
    base: Vec<TrieLevel<'a>>,
    view: Arc<MergedView>,
    frames: Vec<Frame>,
}

/// One open level: `values[..hi]` of the buffer `patched` selects is the
/// sibling slice, `pos <= hi` the current node's absolute index in it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    patched: bool,
    hi: usize,
    pos: usize,
}

impl<'a> MergeCursor<'a> {
    /// Builds the merged view of `base`, the inserts in `delta` and
    /// `tombstones` (sorted rows in the tries' column order), and returns
    /// a cursor above its root that owns it. Either side may be absent;
    /// with both absent the view is empty (`open` returns `false`).
    ///
    /// # Panics
    ///
    /// Panics when the present sides and `tombstones` disagree on arity.
    pub fn new(base: Option<&'a Trie>, delta: Option<&Trie>, tombstones: &Relation) -> Self {
        let arity = tombstones.arity();
        let inserts = Relation::from_tuples(arity, delta.map_or_else(Vec::new, Trie::enumerate))
            .expect("delta/tombstone arity mismatch");
        let view = MergedView::build(base, &inserts, tombstones);
        MergeCursor::over(base, Arc::new(view))
    }

    /// A cursor above the root of `view`, which must have been built from
    /// `base` (a view indexes into its base trie; over another trie the
    /// walk is wrong or panics).
    pub fn over(base: Option<&'a Trie>, view: Arc<MergedView>) -> Self {
        let arity = view.levels.len();
        MergeCursor {
            base: base.map_or_else(Vec::new, |t| (0..arity).map(|l| t.level(l)).collect()),
            view,
            frames: Vec::with_capacity(arity),
        }
    }

    /// The deepest open level: its sibling slice (cut at the frame's end,
    /// so positions stay absolute) and the current position.
    #[inline]
    fn top(&self) -> (&[Value], usize) {
        let f = self.frames.last().expect("cursor is above the root");
        (
            &self.values(self.frames.len() - 1, f.patched)[..f.hi],
            f.pos,
        )
    }

    #[inline]
    fn values(&self, level: usize, patched: bool) -> &[Value] {
        if patched {
            &self.view.levels[level].values
        } else {
            self.base[level].values()
        }
    }

    /// Where the current node's children are (the root list when above
    /// the root), charging the two child-range words a trie cursor reads.
    #[inline]
    fn kids<T: Tally>(&self, counter: &mut T) -> Kids {
        let depth = self.frames.len();
        let Some(f) = self.frames.last() else {
            return self.view.root;
        };
        assert!(
            depth < self.view.levels.len(),
            "cannot open past the leaf level"
        );
        assert!(f.pos < f.hi, "cannot open an ended level");
        counter.record(AccessKind::IndexRead, 2 * WORD_BYTES);
        if f.patched {
            self.view.levels[depth - 1].kids[f.pos]
        } else {
            let (lo, hi) = self.base[depth - 1].child_range(f.pos);
            Kids {
                patched: false,
                lo: lo as u32,
                hi: hi as u32,
            }
        }
    }

    /// Opens the next level on `[lo, hi)` of the buffer `patched` selects,
    /// charging the fetch of its first value; `false` when it is empty.
    #[inline]
    fn push<T: Tally>(&mut self, patched: bool, lo: usize, hi: usize, counter: &mut T) -> bool {
        if lo >= hi {
            return false;
        }
        counter.record(AccessKind::IndexRead, WORD_BYTES);
        self.frames.push(Frame {
            patched,
            hi,
            pos: lo,
        });
        true
    }
}

impl JoinCursor for MergeCursor<'_> {
    #[inline]
    fn depth(&self) -> usize {
        self.frames.len()
    }

    #[inline]
    fn at_end(&self) -> bool {
        let f = self.frames.last().expect("cursor is above the root");
        f.pos >= f.hi
    }

    #[inline]
    fn key(&self) -> Value {
        let (sib, pos) = self.top();
        sib[pos]
    }

    #[inline]
    fn open<T: Tally>(&mut self, counter: &mut T) -> bool {
        let kids = self.kids(counter);
        self.push(kids.patched, kids.lo as usize, kids.hi as usize, counter)
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
        let kids = self.view.root;
        let values = self.values(0, kids.patched);
        let (lo, hi) = (kids.lo as usize, kids.hi as usize);
        // An unbounded side needs no probing, as on a plain trie.
        let lo = match min {
            0 => lo,
            _ => lower_bound(values, lo, hi, min, counter),
        };
        let hi = match sup {
            Some(s) => lower_bound(values, lo, hi, s, counter),
            None => hi,
        };
        self.push(kids.patched, lo, hi, counter)
    }

    #[inline]
    fn up(&mut self) {
        self.frames.pop().expect("cursor is above the root");
    }

    #[inline]
    fn next<T: Tally>(&mut self, counter: &mut T) -> bool {
        let f = self.frames.last_mut().expect("cursor is above the root");
        assert!(f.pos < f.hi, "cursor is already at end");
        f.pos += 1;
        if f.pos < f.hi {
            counter.record(AccessKind::IndexRead, WORD_BYTES);
        }
        f.pos < f.hi
    }

    #[inline]
    fn seek<T: Tally>(&mut self, v: Value, counter: &mut T) -> bool {
        let (sib, pos) = self.top();
        let pos = seek_in(sib, pos, v, counter);
        let f = self.frames.last_mut().expect("non-empty frames");
        f.pos = pos;
        pos < f.hi
    }

    fn fresh(&self) -> Self {
        MergeCursor {
            base: self.base.clone(),
            view: Arc::clone(&self.view),
            frames: Vec::with_capacity(self.view.levels.len()),
        }
    }

    #[inline]
    fn sibling_slice(&self) -> Option<&[Value]> {
        let (sib, pos) = self.top();
        Some(&sib[pos..])
    }

    fn cache_pos(&self) -> u32 {
        // Replay descends by value (see `reopen_at`), so no position is
        // recorded.
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
    use crate::{AccessCounter, RelationDelta, TrieCursor};

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
        let arity = cur.view.levels.len();
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
        assert!(!cur.open_root_range(1, None, &mut AccessCounter::default()));
        assert_eq!(cur.depth(), 0);
    }

    #[test]
    fn clean_subtrees_are_shared_and_an_empty_delta_copies_nothing() {
        let base_rel = Relation::from_pairs(vec![(1, 2), (1, 5), (3, 4), (7, 1), (7, 9)]);
        let base = Trie::build(&base_rel);
        let none = Relation::new(2).unwrap();
        let untouched = MergedView::build(Some(&base), &none, &none);
        assert!(untouched.levels.iter().all(|l| l.values.is_empty()));
        assert_eq!(untouched.root_values(Some(&base)), &[1, 3, 7]);

        // One insert under root 3: the root list is copied, 3's children
        // are rebuilt, 1 and 7 point straight into the base trie.
        let view = MergedView::build(Some(&base), &Relation::from_pairs(vec![(3, 8)]), &none);
        assert_eq!(view.levels[0].values, [1, 3, 7]);
        assert_eq!(view.levels[1].values, [4, 8]);
        let shared: Vec<bool> = view.levels[0].kids.iter().map(|k| !k.patched).collect();
        assert_eq!(shared, [true, false, true]);
        assert!(view.bytes() > untouched.bytes());
    }

    #[test]
    fn fully_tombstoned_subtrees_are_dropped() {
        // 3's entire subtree is deleted: no root key 3 remains, so nothing
        // the cursor can open is empty.
        let base_rel = Relation::from_pairs(vec![(1, 2), (3, 4), (3, 5)]);
        let base = Trie::build(&base_rel);
        let tomb = Relation::from_pairs(vec![(3, 4), (3, 5)]);
        let mut cur = MergeCursor::new(Some(&base), None, &tomb);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        assert_eq!(cur.sibling_slice(), Some(&[1][..]));
        assert!(!cur.seek(3, &mut c));
        // Deleting everything leaves a view whose root refuses to open.
        let mut empty = MergeCursor::new(Some(&base), None, &base_rel);
        assert!(!empty.open(&mut c));
        assert_eq!(empty.depth(), 0);
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
        // Base roots [1, 3]; delta roots [5, 7, 9]: one merged level.
        let base_rel = Relation::from_pairs(vec![(1, 1), (3, 3)]);
        let delta_rel = Relation::from_pairs(vec![(5, 5), (7, 7), (9, 9)]);
        let base = Trie::build(&base_rel);
        let dtrie = Trie::build(&delta_rel);
        let none = Relation::new(2).unwrap();
        let mut cur = MergeCursor::new(Some(&base), Some(&dtrie), &none);
        let mut c = AccessCounter::default();
        // Clamped below 5: [1, 3] stay, the inserted roots are cut off.
        assert!(cur.open_root_range(0, Some(5), &mut c));
        assert_eq!(cur.sibling_slice(), Some(&[1, 3][..]));
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 3);
        assert!(!cur.next(&mut c), "5/7/9 were clamped away");
        // The rest of the range opens on a fresh cursor.
        let mut tail = cur.fresh();
        assert!(tail.open_root_range(5, None, &mut c));
        assert_eq!(tail.key(), 5);
        assert!(tail.next(&mut c));
        assert_eq!(tail.key(), 7);
    }

    #[test]
    fn open_root_range_skips_tombstoned_leaves() {
        // The merged root level: base [2, 6, 8] minus the tombstoned 6.
        let base_rel = Relation::from_tuples(1, vec![vec![2], vec![6], vec![8]]).unwrap();
        let base = Trie::build(&base_rel);
        let tomb = Relation::from_tuples(1, vec![vec![6]]).unwrap();
        let mut cur = MergeCursor::new(Some(&base), None, &tomb);
        let mut c = AccessCounter::default();
        assert!(cur.open_root_range(3, None, &mut c));
        assert_eq!(cur.key(), 8, "the tombstoned 6 is not in the level");
        assert!(!cur.next(&mut c));
        // A window holding only the tombstoned value is empty: the
        // cursor stays above the root.
        let mut windowed = cur.fresh();
        assert!(!windowed.open_root_range(3, Some(7), &mut c));
        assert_eq!(windowed.depth(), 0);
    }

    #[test]
    fn merged_levels_are_one_sorted_slice() {
        // Clean and patched levels alike hand the leaf kernel a slice,
        // and an untouched relation tallies exactly like its trie.
        let base = Trie::build(&Relation::from_pairs(vec![(1, 2), (1, 6), (3, 3)]));
        let none = Relation::new(2).unwrap();
        let inserts = Trie::build(&Relation::from_pairs(vec![(1, 4)]));
        let mut cur = MergeCursor::new(Some(&base), Some(&inserts), &none);
        let (mut c, mut plain_c) = (AccessCounter::default(), AccessCounter::default());
        assert!(cur.open(&mut c) && cur.open(&mut c));
        assert_eq!(cur.sibling_slice(), Some(&[2, 4, 6][..]), "patched level");
        cur.up();
        assert!(cur.next(&mut c) && cur.open(&mut c));
        assert_eq!(cur.sibling_slice(), Some(&[3][..]), "base level");

        let mut untouched = MergeCursor::new(Some(&base), None, &none);
        let mut plain = TrieCursor::new(&base);
        let mut c = AccessCounter::default();
        assert!(untouched.open(&mut c) && untouched.open(&mut c) && untouched.seek(5, &mut c));
        assert!(
            plain.open(&mut plain_c) && plain.open(&mut plain_c) && plain.seek(5, &mut plain_c)
        );
        assert_eq!(untouched.sibling_slice(), JoinCursor::sibling_slice(&plain));
        assert_eq!(c, plain_c);
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
    fn unary_views_drop_tombstones_at_build_time() {
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
