//! Address-aware trie cursor for the cycle-level simulator.
//!
//! Unlike [`triejax_relation::TrieCursor`], this cursor exposes the *byte
//! address* of every word it touches so the simulator can charge each probe
//! to the memory hierarchy, and it separates state changes from memory
//! charging (the caller owns timing).

use triejax_relation::{Addr, Trie, Value};

/// One open level: sibling index range `[lo, hi)` and position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub lo: u32,
    pub hi: u32,
    pub pos: u32,
}

/// Cursor over one trie, identified externally (the simulator passes the
/// `&Trie` into every call to keep borrows local).
#[derive(Debug, Clone, Default)]
pub(crate) struct SimCursor {
    frames: Vec<Frame>,
}

impl SimCursor {
    #[allow(dead_code)] // kept for parity with TrieCursor's API
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    pub fn at_end(&self) -> bool {
        let f = self.frames.last().expect("cursor above root");
        f.pos >= f.hi
    }

    pub fn key(&self, trie: &Trie) -> Value {
        let f = self.frames.last().expect("cursor above root");
        trie.level(self.frames.len() - 1).values()[f.pos as usize]
    }

    pub fn pos(&self) -> u32 {
        self.frames.last().expect("cursor above root").pos
    }

    /// Address of the value word at `idx` on the current level.
    pub fn value_addr(&self, trie: &Trie, idx: u32) -> Addr {
        trie.level(self.frames.len() - 1)
            .values_span()
            .word(idx as usize)
    }

    /// Child range of the current node, with the two child-range word
    /// addresses the Midwife unit reads.
    pub fn child_range(&self, trie: &Trie) -> ((u32, u32), [Addr; 2]) {
        let depth = self.frames.len() - 1;
        let pos = self.pos() as usize;
        let (lo, hi) = trie.level(depth).child_range(pos);
        let span = trie.level(depth).child_span();
        ((lo as u32, hi as u32), [span.word(pos), span.word(pos + 1)])
    }

    /// Opens the root level (full range). Returns `false` on an empty trie.
    pub fn open_root(&mut self, trie: &Trie) -> bool {
        let n = trie.level(0).len() as u32;
        if n == 0 {
            return false;
        }
        self.frames.push(Frame {
            lo: 0,
            hi: n,
            pos: 0,
        });
        true
    }

    /// Opens a child level with an explicit range (from [`child_range`]).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty — trie nodes always have children.
    pub fn open_child_range(&mut self, lo: u32, hi: u32) {
        assert!(lo < hi, "trie child ranges are never empty");
        self.frames.push(Frame { lo, hi, pos: lo });
    }

    /// Opens a child level directly at a cached absolute index (PJR replay;
    /// no memory touched).
    pub fn open_at(&mut self, pos: u32) {
        self.frames.push(Frame {
            lo: pos,
            hi: pos + 1,
            pos,
        });
    }

    /// Constrains the current level to `[lo, hi)` — static multithreading's
    /// first-attribute partitioning.
    pub fn constrain(&mut self, lo: u32, hi: u32) {
        let f = self.frames.last_mut().expect("cursor above root");
        f.lo = f.lo.max(lo);
        f.hi = f.hi.min(hi);
        f.pos = f.pos.max(f.lo);
    }

    pub fn up(&mut self) {
        self.frames.pop().expect("cursor above root");
    }

    /// Advances one sibling; returns the address of the newly exposed value
    /// word, or `None` at level end.
    pub fn advance(&mut self, trie: &Trie) -> Option<Addr> {
        let depth = self.frames.len() - 1;
        let f = self.frames.last_mut().expect("cursor above root");
        f.pos += 1;
        if f.pos < f.hi {
            Some(trie.level(depth).values_span().word(f.pos as usize))
        } else {
            None
        }
    }

    /// Binary-search seek to the lowest upper bound of `v` among the
    /// remaining siblings (the LUB unit, paper Figure 9). The position is
    /// updated and every probed word address is appended to `probes`.
    /// Returns `false` when the level is exhausted.
    pub fn seek(&mut self, trie: &Trie, v: Value, probes: &mut Vec<Addr>) -> bool {
        let depth = self.frames.len() - 1;
        let level = trie.level(depth);
        let values = level.values();
        let span = level.values_span();
        let f = self.frames.last_mut().expect("cursor above root");
        let (mut lo, mut hi) = (f.pos, f.hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes.push(span.word(mid as usize));
            if values[mid as usize] < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        f.pos = lo;
        f.pos < f.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_relation::{AddressSpace, Relation};

    fn trie() -> Trie {
        let mut t = Trie::build(&Relation::from_pairs(vec![
            (1, 2),
            (1, 5),
            (3, 4),
            (7, 1),
            (7, 9),
        ]));
        t.assign_addresses(&mut AddressSpace::new());
        t
    }

    #[test]
    fn open_and_walk() {
        let t = trie();
        let mut c = SimCursor::default();
        assert!(c.open_root(&t));
        assert_eq!(c.key(&t), 1);
        assert!(c.advance(&t).is_some());
        assert_eq!(c.key(&t), 3);
    }

    #[test]
    fn seek_collects_probe_addresses() {
        let t = trie();
        let mut c = SimCursor::default();
        c.open_root(&t);
        let mut probes = Vec::new();
        assert!(c.seek(&t, 4, &mut probes));
        assert_eq!(c.key(&t), 7);
        assert!(!probes.is_empty());
        let span = t.level(0).values_span();
        for p in &probes {
            assert!(*p >= span.base && *p < span.base + span.bytes);
        }
    }

    #[test]
    fn child_range_returns_both_word_addresses() {
        let t = trie();
        let mut c = SimCursor::default();
        c.open_root(&t);
        let ((lo, hi), addrs) = c.child_range(&t);
        assert_eq!((lo, hi), (0, 2));
        assert_eq!(addrs[1] - addrs[0], 4);
        c.open_child_range(lo, hi);
        assert_eq!(c.key(&t), 2);
    }

    #[test]
    fn constrain_narrows_root() {
        let t = trie();
        let mut c = SimCursor::default();
        c.open_root(&t);
        c.constrain(1, 2);
        assert_eq!(c.key(&t), 3);
        assert!(c.advance(&t).is_none());
    }

    #[test]
    fn open_at_is_a_singleton() {
        let t = trie();
        let mut c = SimCursor::default();
        c.open_root(&t);
        c.advance(&t);
        c.open_at(2); // children of 3 start at index 2 in level 1
        assert_eq!(c.key(&t), 4);
        assert!(c.advance(&t).is_none());
        c.up();
        assert_eq!(c.key(&t), 3);
    }

    #[test]
    fn empty_trie_open_fails() {
        let t = Trie::build(&Relation::new(2).unwrap());
        let mut c = SimCursor::default();
        assert!(!c.open_root(&t));
    }
}
