//! The leapfrog intersection of one join variable — the paper's
//! MatchMaker + LUB pair (§3.3) — in three kernels that find the same
//! values in the same order:
//!
//! * [`Leapfrog`] runs over any [`JoinCursor`]s, at every level.
//! * [`SliceLeapfrog`] runs the same loop, probe for probe, over the
//!   sibling slices of the last variable's members.
//! * [`BitLeapfrog`] ANDs the last variable's leaf bitmaps word by word,
//!   for untallied runs.
//!
//! The two leaf kernels are const-generic over their member count `K`:
//! the paper's patterns join their last variable over a fixed one (Path),
//! two (Cycle) or three (Clique4) atoms, and with `K` a constant the
//! member loops unroll — a plain slice walk at `K = 1`, a two-slice
//! gallop at `K = 2`, a three-word AND at `K = 3`. The driver dispatches
//! on the member count once per leaf visit, for `K` up to
//! [`SLICE_MEMBERS`]; a leaf with more members runs on the cursor loop.

use triejax_relation::{seek_in, AccessKind, JoinCursor, Tally, Value, WORD_BYTES};

use crate::EngineStats;

/// One multi-way leapfrog join over a set of open cursors — the
/// "MatchMaker + LUB" logic of the paper, for a single join variable.
///
/// The member cursors must all be positioned at the start of a level
/// binding the same variable. [`search`](Self::search) aligns them on the
/// smallest common value at-or-after their current positions;
/// [`next`](Self::next) advances past the current match and realigns.
///
/// Work accounting: each alignment attempt counts one `match_op`, each
/// lowest-upper-bound search one `lub_op` (plus its memory probes through
/// the stats' access counter).
#[derive(Debug)]
pub struct Leapfrog {
    /// Indices into the engine's cursor table.
    members: Vec<usize>,
    /// Round-robin pointer for the classic leapfrog loop.
    p: usize,
}

impl Leapfrog {
    /// Creates a leapfrog over the given cursor indices.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<usize>) -> Self {
        assert!(!members.is_empty(), "leapfrog needs at least one member");
        Leapfrog { members, p: 0 }
    }

    /// The member cursor indices.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Aligns all members on the smallest common value at-or-after their
    /// positions. Returns the matched value, or `None` if any member is
    /// exhausted first. Cursors are left positioned on the match.
    ///
    /// Generic over the [`JoinCursor`] implementation, so the same loop
    /// drives plain [`triejax_relation::TrieCursor`]s and the
    /// [`triejax_relation::MergeCursor`]s of mutated relations.
    pub fn search<Cur: JoinCursor, T: Tally>(
        &mut self,
        cursors: &mut [Cur],
        stats: &mut EngineStats<T>,
    ) -> Option<Value> {
        stats.match_ops += 1;
        // Start from the largest current key (the first, among equals);
        // an exhausted member ends the search before any probe.
        let (mut max, mut p) = (0, 0);
        for (i, &m) in self.members.iter().enumerate() {
            if cursors[m].at_end() {
                return None;
            }
            let key = cursors[m].key();
            if i == 0 || key > max {
                (max, p) = (key, i);
            }
        }
        // `agree` counts consecutive cursors known to sit on `max`; a match
        // is confirmed only once all k agree.
        let k = self.members.len();
        let mut agree = 1;
        while agree < k {
            p = if p + 1 == k { 0 } else { p + 1 };
            let cur = &mut cursors[self.members[p]];
            if cur.key() == max {
                agree += 1;
                continue;
            }
            stats.lub_ops += 1;
            if !cur.seek(max, &mut stats.access) {
                return None;
            }
            let key = cur.key();
            if key == max {
                agree += 1;
            } else {
                max = key;
                agree = 1;
            }
        }
        self.p = p;
        Some(max)
    }

    /// Advances past the current match and realigns on the next one.
    pub fn next<Cur: JoinCursor, T: Tally>(
        &mut self,
        cursors: &mut [Cur],
        stats: &mut EngineStats<T>,
    ) -> Option<Value> {
        let first = self.members[self.p];
        if !cursors[first].next(&mut stats.access) {
            return None;
        }
        self.search(cursors, stats)
    }
}

/// Most members a leaf kernel runs over: the driver instantiates
/// [`SliceLeapfrog`] and [`BitLeapfrog`] for `K` in `1..=SLICE_MEMBERS`,
/// and a last level joining more cursors runs on the cursor loop.
pub(crate) const SLICE_MEMBERS: usize = 4;

/// Where a leaf kernel stood on its last match: what a stopped driver
/// keeps to re-create the kernel over the same slices and go on from that
/// match.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LeafAt {
    /// A [`SliceLeapfrog`]'s member offsets and round-robin pointer.
    Slice([usize; SLICE_MEMBERS], usize),
    /// A [`BitLeapfrog`]'s next word and the unvisited bits of the last.
    Bits(usize, u64),
}

/// A leaf kernel as the driver's one leaf loop runs it.
pub(crate) trait LeafKernel {
    /// The first common value.
    fn search<T: Tally>(&mut self, stats: &mut EngineStats<T>) -> Option<Value>;
    /// The next common value, in ascending order.
    fn next<T: Tally>(&mut self, stats: &mut EngineStats<T>) -> Option<Value>;
    /// Where the kernel stands, for [`restore`](Self::restore).
    fn mark(&self) -> LeafAt;
    /// Puts a kernel made over the same slices back at its `mark`.
    fn restore(&mut self, at: LeafAt);
    /// The [`JoinCursor::cache_pos`] tokens of the current match, in
    /// member order: what a PJR-cache entry records.
    fn cache_positions(&self) -> Vec<u32>;
}

/// [`Leapfrog`] for the last join variable, run on the `K` members'
/// sibling slices ([`JoinCursor::sibling_slice`]) instead of through their
/// cursors.
///
/// Below the last variable nothing is opened, so all a match needs from a
/// member is its value array: the kernel keeps one slice and one position
/// per member in fixed local arrays and never touches a cursor frame. It
/// issues exactly the probes of [`Leapfrog::search`]/[`Leapfrog::next`] —
/// the seek is the same [`seek_in`] — and tallies them identically; the
/// cursors themselves stay where the level was opened.
pub(crate) struct SliceLeapfrog<'s, const K: usize> {
    sets: [&'s [Value]; K],
    /// Offsets into `sets`: 0 is where the member's cursor stands.
    pos: [usize; K],
    p: usize,
    /// The members' [`JoinCursor::cache_pos`] at offset 0, when recording.
    base: [u32; K],
}

impl<'s, const K: usize> SliceLeapfrog<'s, K> {
    /// A leapfrog over what `members` have left on their deepest open
    /// level; `None` when there are not exactly `K` of them or one cannot
    /// hand out a slice.
    pub(crate) fn over<Cur: JoinCursor>(cursors: &'s [Cur], members: &[usize]) -> Option<Self> {
        let members: &[usize; K] = members.try_into().ok()?;
        let mut sets = [&[][..]; K];
        for (set, &m) in sets.iter_mut().zip(members) {
            *set = cursors[m].sibling_slice()?;
        }
        Some(SliceLeapfrog {
            sets,
            pos: [0; K],
            p: 0,
            base: [0; K],
        })
    }

    /// Reads where the `members` it was made [`over`](Self::over) stand,
    /// for [`cache_positions`](LeafKernel::cache_positions).
    pub(crate) fn positions_from<Cur: JoinCursor>(&mut self, cursors: &[Cur], members: &[usize]) {
        for (b, &m) in self.base.iter_mut().zip(members) {
            *b = cursors[m].cache_pos();
        }
    }
}

impl<const K: usize> LeafKernel for SliceLeapfrog<'_, K> {
    /// [`Leapfrog::search`] over the slices.
    #[inline]
    fn search<T: Tally>(&mut self, stats: &mut EngineStats<T>) -> Option<Value> {
        stats.match_ops += 1;
        let (mut max, mut p) = (0, 0);
        for i in 0..K {
            let key = *self.sets[i].get(self.pos[i])?;
            if i == 0 || key > max {
                (max, p) = (key, i);
            }
        }
        let mut agree = 1;
        while agree < K {
            p = if p + 1 == K { 0 } else { p + 1 };
            let set = self.sets[p];
            let mut key = set[self.pos[p]];
            if key != max {
                stats.lub_ops += 1;
                self.pos[p] = seek_in(set, self.pos[p], max, &mut stats.access);
                key = *set.get(self.pos[p])?;
            }
            if key == max {
                agree += 1;
            } else {
                max = key;
                agree = 1;
            }
        }
        self.p = p;
        Some(max)
    }

    /// [`Leapfrog::next`] over the slices.
    #[inline]
    fn next<T: Tally>(&mut self, stats: &mut EngineStats<T>) -> Option<Value> {
        let p = self.p;
        self.pos[p] += 1;
        if self.pos[p] >= self.sets[p].len() {
            return None;
        }
        stats.access.record(AccessKind::IndexRead, WORD_BYTES);
        self.search(stats)
    }

    fn mark(&self) -> LeafAt {
        let mut pos = [0; SLICE_MEMBERS];
        pos[..K].copy_from_slice(&self.pos);
        LeafAt::Slice(pos, self.p)
    }

    fn restore(&mut self, at: LeafAt) {
        let LeafAt::Slice(pos, p) = at else {
            unreachable!("a slice kernel resumes from its own mark")
        };
        self.pos.copy_from_slice(&pos[..K]);
        self.p = p;
    }

    fn cache_positions(&self) -> Vec<u32> {
        let at = |(&base, &pos): (&u32, &usize)| base + pos as u32;
        self.base.iter().zip(&self.pos).map(at).collect()
    }
}

/// The last join variable's intersection as word ANDs over the `K`
/// members' presence bitmaps ([`JoinCursor::sibling_bits`]), for untallied
/// runs over tries that keep leaf bitmaps.
///
/// It ANDs the members' words up to the shortest bitmap and walks the set
/// bits in ascending order, so it yields exactly the values
/// [`SliceLeapfrog`] matches, in the same order. It does different work
/// though, and counts it by its own rule: one `match_op` per intersection
/// ([`search`](LeafKernel::search)) plus one per yielded value, and no
/// `lub_ops` — there is no search. It records no memory access; tallied
/// runs keep the sorted-array kernel, which models the paper's LUB unit.
pub(crate) struct BitLeapfrog<'s, const K: usize> {
    sets: [&'s [u64]; K],
    /// Words every member has: the shortest bitmap's length.
    words: usize,
    /// Next word to AND, and the unvisited set bits of the previous one.
    w: usize,
    bits: u64,
}

impl<'s, const K: usize> BitLeapfrog<'s, K> {
    /// A bitmap intersection of what `members` have on their deepest open
    /// level; `None` when there are not exactly `K` of them or one cannot
    /// hand out a bitmap.
    pub(crate) fn over<Cur: JoinCursor>(cursors: &'s [Cur], members: &[usize]) -> Option<Self> {
        let members: &[usize; K] = members.try_into().ok()?;
        let mut sets = [&[][..]; K];
        let mut words = usize::MAX;
        for (set, &m) in sets.iter_mut().zip(members) {
            *set = cursors[m].sibling_bits()?;
            words = words.min(set.len());
        }
        Some(BitLeapfrog {
            sets,
            words,
            w: 0,
            bits: 0,
        })
    }
}

impl<const K: usize> LeafKernel for BitLeapfrog<'_, K> {
    /// The first common value, counting the intersection.
    #[inline]
    fn search<T: Tally>(&mut self, stats: &mut EngineStats<T>) -> Option<Value> {
        stats.match_ops += 1;
        self.next(stats)
    }

    #[inline]
    fn next<T: Tally>(&mut self, stats: &mut EngineStats<T>) -> Option<Value> {
        while self.bits == 0 {
            if self.w >= self.words {
                return None;
            }
            let w = self.w;
            self.bits = self.sets[1..]
                .iter()
                .fold(self.sets[0][w], |acc, s| acc & s[w]);
            self.w += 1;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        stats.match_ops += 1;
        Some(((self.w - 1) * 64 + bit) as Value)
    }

    fn mark(&self) -> LeafAt {
        LeafAt::Bits(self.w, self.bits)
    }

    fn restore(&mut self, at: LeafAt) {
        let LeafAt::Bits(w, bits) = at else {
            unreachable!("a bitmap kernel resumes from its own mark")
        };
        (self.w, self.bits) = (w, bits);
    }

    fn cache_positions(&self) -> Vec<u32> {
        unreachable!("a recording level keeps the sorted kernel")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use triejax_relation::{AccessCounter, Counting, NoTally, Relation, Trie, TrieCursor};

    fn unary(vals: &[Value]) -> Trie {
        Trie::build(
            &Relation::from_tuples(1, vals.iter().map(|&v| vec![v]).collect::<Vec<_>>()).unwrap(),
        )
    }

    /// One match: the value and every member's position token on it.
    type Match = (Value, Vec<u32>);

    /// One side's run: its match sequence and what it tallied.
    type Run = (Vec<Match>, EngineStats<Counting>);

    /// The slice kernel's run over `members`, for `K` of them.
    fn slice_run<const K: usize>(cursors: &[TrieCursor], members: &[usize]) -> Option<Run> {
        SliceLeapfrog::<K>::over(cursors, members).map(|mut lf| {
            let mut stats = EngineStats::<Counting>::default();
            let mut out = Vec::new();
            let mut m = lf.search(&mut stats);
            // With a match, no member is at its end.
            if m.is_some() {
                lf.positions_from(cursors, members);
            }
            while let Some(v) = m {
                out.push((v, lf.cache_positions()));
                m = lf.next(&mut stats);
            }
            (out, stats)
        })
    }

    /// The bitmap kernel's values and tallies over `members`, for `K` of
    /// them, untallied as the driver runs it.
    fn bit_run<const K: usize>(
        cursors: &[TrieCursor],
        members: &[usize],
    ) -> Option<(Vec<Value>, EngineStats<NoTally>)> {
        BitLeapfrog::<K>::over(cursors, members).map(|mut lf| {
            let mut stats = EngineStats::<NoTally>::default();
            let mut out = Vec::new();
            let mut m = lf.search(&mut stats);
            while let Some(v) = m {
                out.push(v);
                m = lf.next(&mut stats);
            }
            (out, stats)
        })
    }

    /// [`slice_run`] instantiated for the member count, as the driver's
    /// leaf dispatch does: `None` above [`SLICE_MEMBERS`].
    fn slice_dispatch(cursors: &[TrieCursor], members: &[usize]) -> Option<Run> {
        match members.len() {
            1 => slice_run::<1>(cursors, members),
            2 => slice_run::<2>(cursors, members),
            3 => slice_run::<3>(cursors, members),
            4 => slice_run::<4>(cursors, members),
            _ => None,
        }
    }

    /// [`bit_run`] instantiated for the member count.
    fn bit_dispatch(
        cursors: &[TrieCursor],
        members: &[usize],
    ) -> Option<(Vec<Value>, EngineStats<NoTally>)> {
        match members.len() {
            1 => bit_run::<1>(cursors, members),
            2 => bit_run::<2>(cursors, members),
            3 => bit_run::<3>(cursors, members),
            4 => bit_run::<4>(cursors, members),
            _ => None,
        }
    }

    /// Cursors over the unary `tries`, each opened on its only level.
    fn opened(tries: &[Trie]) -> Vec<TrieCursor<'_>> {
        let mut cursors: Vec<TrieCursor> = tries.iter().map(TrieCursor::new).collect();
        for c in &mut cursors {
            assert!(c.open(&mut NoTally));
        }
        cursors
    }

    /// Runs the cursor loop and the slice kernel from the same starting
    /// state — member `i` opened and stepped `skips[i]` keys forward, which
    /// exhausts it when that is its whole set — and returns the cursor
    /// loop's run and the kernel's (`None` where the kernel declines).
    fn both_ways(sets: &[&[Value]], skips: &[usize]) -> (Run, Option<Run>) {
        let tries: Vec<Trie> = sets.iter().map(|s| unary(s)).collect();
        let mut cursors = opened(&tries);
        for (c, &skip) in cursors.iter_mut().zip(skips) {
            for _ in 0..skip {
                c.next(&mut NoTally);
            }
        }
        let members: Vec<usize> = (0..sets.len()).collect();
        let sliced = slice_dispatch(&cursors, &members);

        let mut stats = EngineStats::<Counting>::default();
        let mut lf = Leapfrog::new(members);
        let mut out = Vec::new();
        let mut m = lf.search(&mut cursors, &mut stats);
        while let Some(v) = m {
            out.push((v, cursors.iter().map(JoinCursor::cache_pos).collect()));
            m = lf.next(&mut cursors, &mut stats);
        }
        ((out, stats), sliced)
    }

    /// The matches of `sets`, after checking that the slice kernel found
    /// the same ones at the same positions for the same tallies.
    fn run_leapfrog(sets: &[&[Value]]) -> Vec<Value> {
        let (by_cursor, by_slice) = both_ways(sets, &vec![0; sets.len()]);
        assert_eq!(Some(&by_cursor), by_slice.as_ref());
        by_cursor.0.into_iter().map(|(v, _)| v).collect()
    }

    #[test]
    fn slice_kernel_handles_exhausted_and_singleton_members() {
        let a: &[Value] = &[1, 4, 6, 9];
        let b: &[Value] = &[4];
        // First member exhausted, last member exhausted, a singleton set,
        // a singleton remainder: same (non-)matches, same tallies.
        for (sets, skips) in [
            (vec![a, a], vec![4, 0]),
            (vec![a, b, a], vec![0, 0, 4]),
            (vec![a, b], vec![0, 0]),
            (vec![a, a], vec![3, 1]),
        ] {
            let (by_cursor, by_slice) = both_ways(&sets, &skips);
            assert_eq!(Some(&by_cursor), by_slice.as_ref(), "{sets:?} {skips:?}");
        }
        let (exhausted, _) = both_ways(&[a, a], &[4, 0]);
        assert_eq!((exhausted.1.match_ops, exhausted.1.lub_ops), (1, 0));
        assert_eq!(exhausted.1.access, AccessCounter::default());
    }

    #[test]
    fn slice_kernel_declines_more_members_than_it_has_room_for() {
        // The paper's patterns join their last variable over 1 to 3 atoms;
        // the kernels are instantiated up to one more.
        assert_eq!(SLICE_MEMBERS, 4);
        let set: &[Value] = &[1, 2, 3];
        let sets = vec![set; SLICE_MEMBERS + 1];
        let (by_cursor, by_slice) = both_ways(&sets, &vec![0; sets.len()]);
        assert!(by_slice.is_none(), "the drivers keep the cursor loop");
        assert_eq!(by_cursor.0.len(), 3);
        let (_, at_capacity) = both_ways(&sets[1..], &[0; SLICE_MEMBERS]);
        assert_eq!(at_capacity.expect("fits").0.len(), 3);
        // An instance runs over exactly its `K` members, no more or fewer.
        let tries = vec![unary(set); SLICE_MEMBERS + 1];
        let cursors = opened(&tries);
        let all: Vec<usize> = (0..tries.len()).collect();
        assert!(SliceLeapfrog::<SLICE_MEMBERS>::over(&cursors, &all).is_none());
        assert!(BitLeapfrog::<SLICE_MEMBERS>::over(&cursors, &all).is_none());
        assert!(SliceLeapfrog::<3>::over(&cursors, &all[..2]).is_none());
        assert!(BitLeapfrog::<3>::over(&cursors, &all[..2]).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rule of this file: the slice kernel is the cursor loop made
        /// cheaper, so for every `K` it is instantiated for and from any
        /// starting state — including members already part-way through or
        /// past their set, and singleton sets — both find the same matches
        /// at the same positions and tally the same `match_ops`, `lub_ops`
        /// and memory reads.
        #[test]
        fn slice_kernel_equals_the_cursor_loop(
            members in prop::collection::vec(
                (prop::collection::btree_set(0u32..24, 1..12), 0usize..12),
                1..=SLICE_MEMBERS,
            ),
        ) {
            let sets: Vec<Vec<Value>> =
                members.iter().map(|(s, _)| s.iter().copied().collect()).collect();
            let sets: Vec<&[Value]> = sets.iter().map(Vec::as_slice).collect();
            let skips: Vec<usize> =
                members.iter().map(|(s, skip)| *skip.min(&s.len())).collect();
            let (by_cursor, by_slice) = both_ways(&sets, &skips);
            prop_assert_eq!(Some(&by_cursor), by_slice.as_ref());
        }

        /// The bitmap kernel yields exactly the slice kernel's values, in
        /// order, for every `K`, over sets spanning several words.
        #[test]
        fn bit_kernel_yields_the_slice_kernels_values(
            sets in prop::collection::vec(
                prop::collection::btree_set(0u32..128, 2..40),
                1..=SLICE_MEMBERS,
            ),
        ) {
            let tries: Vec<Trie> = sets
                .iter()
                .map(|s| unary(&s.iter().copied().collect::<Vec<_>>()))
                .collect();
            let cursors = opened(&tries);
            let members: Vec<usize> = (0..tries.len()).collect();
            let (bits, _) = bit_dispatch(&cursors, &members).expect("whole leaf frames");
            let (sliced, _) = slice_dispatch(&cursors, &members).expect("fits");
            let sliced: Vec<Value> = sliced.into_iter().map(|(v, _)| v).collect();
            prop_assert_eq!(bits, sliced);
        }
    }

    #[test]
    fn bit_kernel_counts_one_match_per_intersection_and_per_value() {
        // Dense unary tries keep a one-parent leaf bitmap; 70 and 130 put
        // matches past the first word and the sets' bitmaps differ in length.
        let sets: [&[Value]; 4] = [
            &[1, 4, 6, 9, 11, 70, 130],
            &[0, 4, 9, 11, 70, 71, 130],
            &[4, 5, 9, 70, 100],
            &[2, 4, 70, 128, 130],
        ];
        let tries: Vec<Trie> = sets.iter().map(|s| unary(s)).collect();
        let mut cursors = opened(&tries);
        assert!(cursors.iter().all(TrieCursor::has_leaf_bits));
        for (k, expected) in [
            (2, vec![4, 9, 11, 70, 130]),
            (3, vec![4, 9, 70]),
            (4, vec![4, 70]),
        ] {
            let members: Vec<usize> = (0..k).collect();
            let (out, stats) = bit_dispatch(&cursors, &members).expect("whole leaf frames");
            assert_eq!(out, run_leapfrog(&sets[..k]), "K = {k}");
            assert_eq!(out, expected, "K = {k}");
            let ops = (stats.match_ops, stats.lub_ops);
            assert_eq!(ops, (1 + expected.len() as u64, 0), "K = {k}");
        }
        // An advanced member hands out no bitmap: the driver falls back.
        cursors[1].next(&mut NoTally);
        for k in 2..=SLICE_MEMBERS {
            let members: Vec<usize> = (0..k).collect();
            assert!(bit_dispatch(&cursors, &members).is_none(), "K = {k}");
        }
    }

    #[test]
    fn intersects_like_the_lftj_paper_example() {
        // The classic LFTJ example: three sets with sparse overlap.
        let a = [0, 1, 3, 4, 5, 6, 7, 8, 9, 11];
        let b = [0, 2, 6, 7, 8, 9];
        let c = [2, 4, 5, 8, 10];
        assert_eq!(run_leapfrog(&[&a, &b, &c]), vec![8]);
    }

    #[test]
    fn single_member_enumerates_everything() {
        assert_eq!(run_leapfrog(&[&[1, 5, 9]]), vec![1, 5, 9]);
    }

    #[test]
    fn disjoint_sets_yield_nothing() {
        assert_eq!(run_leapfrog(&[&[1, 3, 5], &[2, 4, 6]]), Vec::<Value>::new());
    }

    #[test]
    fn identical_sets_yield_all() {
        assert_eq!(run_leapfrog(&[&[2, 4, 6], &[2, 4, 6]]), vec![2, 4, 6]);
    }

    #[test]
    fn overlapping_sets_yield_intersection() {
        assert_eq!(
            run_leapfrog(&[&[1, 2, 3, 7, 9], &[2, 7, 10], &[2, 3, 7]]),
            vec![2, 7]
        );
    }

    #[test]
    fn counts_lub_and_match_ops() {
        let tries = [unary(&[1, 2, 3]), unary(&[3])];
        let mut cursors: Vec<TrieCursor> = tries.iter().map(TrieCursor::new).collect();
        let mut opens = AccessCounter::default();
        let mut stats = EngineStats::<Counting>::default();
        for c in &mut cursors {
            c.open(&mut opens);
        }
        let mut lf = Leapfrog::new(vec![0, 1]);
        assert_eq!(lf.search(&mut cursors, &mut stats), Some(3));
        assert!(stats.match_ops >= 1);
        assert!(stats.lub_ops >= 1);
        assert!(stats.access.index_reads > 0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_members_panics() {
        let _ = Leapfrog::new(Vec::new());
    }
}
