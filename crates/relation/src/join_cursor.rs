//! The cursor surface the join engines drive, abstracted over the index
//! behind it.
//!
//! [`JoinCursor`] captures exactly the operations LeapFrog TrieJoin and
//! Cached TrieJoin perform — open/up/next/seek plus the range opens of
//! sharded and resumed runs, the positional replay hooks of the PJR cache
//! and the sibling-slice view the leaf-level kernel runs on.
//! [`crate::TrieCursor`] implements it by plain delegation (so the
//! frozen-trie path monomorphizes to today's code, access tallies
//! included), and
//! [`crate::MergeCursor`] implements it over `base ∪ delta − tombstones`
//! with the same frame arithmetic on a patched view of the base trie,
//! which is how every engine runs unmodified over mutated relations.

use crate::{Tally, TrieCursor, Value};

/// A trie-shaped cursor a join engine can drive.
///
/// The contract mirrors [`TrieCursor`] method for method; see its
/// documentation for the positioning semantics and panics. The extra
/// methods exist for the parallel engines:
///
/// * [`fresh`](Self::fresh) yields an above-the-root cursor over the same
///   underlying data.
/// * [`open_root_range`](Self::open_root_range) /
///   [`open_range`](Self::open_range) open a level restricted to a value
///   range: the root for a shard, an inner level under a re-bound prefix
///   for a resumed run's tail.
/// * [`sibling_slice`](Self::sibling_slice) lets the engines run the last
///   join variable's leapfrog on bare sorted slices instead of through
///   the cursor, for cursors whose open level is one array.
/// * [`has_leaf_bits`](Self::has_leaf_bits) /
///   [`sibling_bits`](Self::sibling_bits) let untallied engines intersect
///   the last join variable's sibling sets as presence bitmaps instead,
///   for cursors whose trie keeps leaf bitmaps.
/// * [`cache_pos`](Self::cache_pos) / [`reopen_at`](Self::reopen_at) are
///   the PJR-cache hooks: a computing driver records the positions a
///   cached entry stores, and a replaying driver re-descends from them.
pub trait JoinCursor {
    /// Current depth: number of open levels (0 = above root).
    fn depth(&self) -> usize;

    /// `true` once the cursor stepped past the last key of the current
    /// level.
    fn at_end(&self) -> bool;

    /// Value of the current node.
    fn key(&self) -> Value;

    /// Descends to the first child of the current node (or the first root
    /// key when above the root). Returns `false` when nothing is there.
    fn open<T: Tally>(&mut self, counter: &mut T) -> bool;

    /// Descends to the root level restricted to values in `[min, sup)`.
    /// Returns `false` (cursor stays above the root) on an empty range.
    fn open_root_range<T: Tally>(
        &mut self,
        min: Value,
        sup: Option<Value>,
        counter: &mut T,
    ) -> bool;

    /// Descends one level restricted to values in `[min, sup)`. Above the
    /// root this is [`open_root_range`](Self::open_root_range); on an
    /// inner node it opens the child level clamped to the window. Returns
    /// `false` (depth unchanged) when no child value falls inside it.
    fn open_range<T: Tally>(&mut self, min: Value, sup: Option<Value>, counter: &mut T) -> bool;

    /// Ascends one level.
    fn up(&mut self);

    /// Advances to the next sibling; `false` when the level is exhausted.
    fn next<T: Tally>(&mut self, counter: &mut T) -> bool;

    /// Seeks the lowest upper bound of `v` among the remaining siblings;
    /// `false` when every remaining sibling is smaller.
    fn seek<T: Tally>(&mut self, v: Value, counter: &mut T) -> bool;

    /// A new cursor above the root of the same underlying data, leaving
    /// `self` undisturbed.
    fn fresh(&self) -> Self
    where
        Self: Sized;

    /// The current key followed by its unvisited siblings on the deepest
    /// open level, when the cursor can hand them out as one sorted slice
    /// (empty once the level has ended). The engines run the last join
    /// variable's leapfrog directly on these slices; a cursor that returns
    /// `None` (the default) is driven through `key`/`seek`/`next` instead.
    fn sibling_slice(&self) -> Option<&[Value]> {
        None
    }

    /// `true` when [`sibling_bits`](Self::sibling_bits) can hand out a
    /// bitmap for a whole leaf frame of this cursor; the engines decide
    /// once per run whether the bitmap kernel is worth trying. `false` by
    /// default.
    fn has_leaf_bits(&self) -> bool {
        false
    }

    /// The deepest open level's unvisited siblings as a presence bitmap
    /// (bit `v` of word `v / 64` set when `v` is one), when the cursor
    /// holds one for exactly that set; `None` (the default) otherwise. See
    /// [`TrieCursor::sibling_bits`].
    fn sibling_bits(&self) -> Option<&[u64]> {
        None
    }

    /// The position token a PJR-cache entry stores for the current node.
    /// For plain tries this is the absolute level index; composite
    /// cursors may return a nominal value and rely on the key during
    /// [`reopen_at`](Self::reopen_at).
    fn cache_pos(&self) -> u32;

    /// Re-descends one level to the node recorded as `(pos, v)` by a
    /// cache entry this same cursor family computed earlier in the run.
    /// Plain tries jump straight to `pos` without touching memory;
    /// composite cursors descend by value.
    fn reopen_at<T: Tally>(&mut self, pos: u32, v: Value, counter: &mut T);
}

impl<'a> JoinCursor for TrieCursor<'a> {
    #[inline]
    fn depth(&self) -> usize {
        TrieCursor::depth(self)
    }

    #[inline]
    fn at_end(&self) -> bool {
        TrieCursor::at_end(self)
    }

    #[inline]
    fn key(&self) -> Value {
        TrieCursor::key(self)
    }

    #[inline]
    fn open<T: Tally>(&mut self, counter: &mut T) -> bool {
        TrieCursor::open(self, counter)
    }

    fn open_root_range<T: Tally>(
        &mut self,
        min: Value,
        sup: Option<Value>,
        counter: &mut T,
    ) -> bool {
        TrieCursor::open_root_range(self, min, sup, counter)
    }

    fn open_range<T: Tally>(&mut self, min: Value, sup: Option<Value>, counter: &mut T) -> bool {
        TrieCursor::open_range(self, min, sup, counter)
    }

    #[inline]
    fn up(&mut self) {
        TrieCursor::up(self)
    }

    #[inline]
    fn next<T: Tally>(&mut self, counter: &mut T) -> bool {
        TrieCursor::next(self, counter)
    }

    #[inline]
    fn seek<T: Tally>(&mut self, v: Value, counter: &mut T) -> bool {
        TrieCursor::seek(self, v, counter)
    }

    fn fresh(&self) -> Self {
        TrieCursor::new(self.trie())
    }

    #[inline]
    fn sibling_slice(&self) -> Option<&[Value]> {
        Some(TrieCursor::sibling_slice(self))
    }

    #[inline]
    fn has_leaf_bits(&self) -> bool {
        TrieCursor::has_leaf_bits(self)
    }

    #[inline]
    fn sibling_bits(&self) -> Option<&[u64]> {
        TrieCursor::sibling_bits(self)
    }

    #[inline]
    fn cache_pos(&self) -> u32 {
        self.pos() as u32
    }

    #[inline]
    fn reopen_at<T: Tally>(&mut self, pos: u32, _v: Value, _counter: &mut T) {
        self.open_at(pos as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessCounter, Relation, Trie};

    fn trie() -> Trie {
        Trie::build(&Relation::from_pairs(vec![
            (1, 2),
            (1, 5),
            (3, 4),
            (7, 1),
            (7, 9),
        ]))
    }

    /// Drives the same walk through the inherent methods and the trait
    /// methods, asserting identical keys *and* identical tallies — the
    /// trait must not perturb the paper's access counting.
    #[test]
    fn trait_dispatch_matches_inherent_counts() {
        let t = trie();

        let mut inherent = TrieCursor::new(&t);
        let mut ci = AccessCounter::default();
        assert!(TrieCursor::open(&mut inherent, &mut ci));
        assert!(TrieCursor::seek(&mut inherent, 2, &mut ci));
        assert!(TrieCursor::open(&mut inherent, &mut ci));
        TrieCursor::up(&mut inherent);
        assert!(TrieCursor::next(&mut inherent, &mut ci));
        let inherent_key = TrieCursor::key(&inherent);

        fn walk<C: JoinCursor>(cur: &mut C, c: &mut AccessCounter) -> Value {
            assert!(cur.open(c));
            assert!(cur.seek(2, c));
            assert!(cur.open(c));
            cur.up();
            assert!(cur.next(c));
            cur.key()
        }
        let mut generic = TrieCursor::new(&t);
        let mut cg = AccessCounter::default();
        let generic_key = walk(&mut generic, &mut cg);

        assert_eq!(inherent_key, generic_key);
        assert_eq!(ci.index_reads, cg.index_reads);
        assert_eq!(ci.index_bytes, cg.index_bytes);
    }

    #[test]
    fn fresh_returns_an_above_root_twin() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(JoinCursor::open(&mut cur, &mut c));
        assert!(JoinCursor::seek(&mut cur, 3, &mut c));
        let mut twin = JoinCursor::fresh(&cur);
        assert_eq!(JoinCursor::depth(&twin), 0);
        assert!(twin.open_root_range(3, Some(8), &mut c));
        assert_eq!(JoinCursor::key(&twin), 3);
        // Original untouched.
        assert_eq!(JoinCursor::key(&cur), 3);
        assert_eq!(JoinCursor::depth(&cur), 1);
    }

    #[test]
    fn reopen_at_replays_a_recorded_position() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(JoinCursor::open(&mut cur, &mut c));
        assert!(JoinCursor::seek(&mut cur, 7, &mut c));
        let pos = JoinCursor::cache_pos(&cur);
        let key = JoinCursor::key(&cur);
        let mut replay = JoinCursor::fresh(&cur);
        let before = c.index_reads;
        replay.reopen_at(pos, key, &mut c);
        assert_eq!(c.index_reads, before, "positional replay is free on tries");
        assert_eq!(JoinCursor::key(&replay), 7);
        assert!(JoinCursor::open(&mut replay, &mut c));
        assert_eq!(JoinCursor::key(&replay), 1);
    }
}
