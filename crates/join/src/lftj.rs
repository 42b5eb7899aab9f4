use std::sync::Arc;

use triejax_exec::{BudgetHandle, RunBudget};
use triejax_query::CompiledQuery;
use triejax_relation::{AccessKind, JoinCursor, NoTally, Tally, TrieCursor, Value, WORD_BYTES};

use crate::cache::{Entry, Looked, Pjr};
use crate::engine::head_order;
use crate::leapfrog::{BitLeapfrog, LeafAt, LeafKernel, SliceLeapfrog, SLICE_MEMBERS};
use crate::parlftj::{settle, BatchRun};
use crate::sink::BatchEmitter;
use crate::viewset::CursorSet;
use crate::{CountSink, EngineStats, JoinError, Leapfrog, ResultSink, TrieJoin};

/// LeapFrog TrieJoin (Veldhuizen, ICDT'14): the worst-case-optimal join
/// that backtracks over trie indexes, materializing *no* intermediate
/// results at the cost of recomputing recurring partial joins (paper §2.2).
///
/// The sequential LFTJ preset of the one trie-join engine: one worker on
/// the calling thread, tries built for the run.
/// [`JoinEngine::execute`](crate::JoinEngine::execute) runs the
/// instrumented kernel (every memory touch counted, as the paper figures
/// require); [`run_tallied`](TrieJoin::run_tallied) exposes the same
/// kernel generic over a [`Tally`], so `run_tallied::<NoTally>` runs with
/// all instrumentation compiled away.
///
/// # Example
///
/// ```
/// use triejax_join::{Catalog, CountSink, JoinEngine, Lftj};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]));
/// let plan = CompiledQuery::compile(&patterns::path3())?;
/// let mut sink = CountSink::default();
/// let stats = Lftj::default().execute(&plan, &catalog, &mut sink)?;
/// assert_eq!(sink.count(), 3);
/// assert_eq!(stats.intermediates, 0); // LFTJ never materializes
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`NoTally`]: triejax_relation::NoTally
pub type Lftj = TrieJoin<false, false>;

/// The match list of a cache entry while its level is being computed.
type Recording = Vec<(Value, Vec<u32>)>;

/// What one depth of the frame stack does with its level.
enum Mode {
    /// Leapfrog over the level's open cursors.
    Leapfrog,
    /// Replay a PJR entry: the entry, and the index of its next item.
    Replay(Entry, usize),
}

/// One depth of the frame stack.
struct Frame {
    /// The depth's member cursors, fixed when the driver is built, and
    /// the leapfrog's position among them.
    lf: Leapfrog,
    mode: Mode,
    /// The entry the level records when its cache lookup missed: the key
    /// and token to publish it under, and its matches so far.
    record: Option<(Vec<Value>, u64, Recording)>,
}

/// Where a frame stack goes on from.
#[derive(Clone, Copy, Debug)]
enum Next {
    /// Enter depth `d`: look its cache spec up, then replay or open it.
    Open(usize),
    /// Visit depth `d`'s bound match: descend, or emit at the last depth.
    Visit(usize),
    /// Move depth `d` on to its next match.
    Advance(usize),
    /// Go on with depth `d`'s leaf kernel from its last match
    /// ([`Stack::mark`]).
    Leaf(usize),
    /// The root range is through.
    Done,
}

/// How a leaf kernel's run over its level ended.
enum Ran {
    /// Past its last match.
    Through,
    /// At a match, with the batch full.
    Stopped(LeafAt),
    /// The budget refused a row.
    Refused,
}

/// The state of a trie join that outlives its cursors: one [`Frame`] per
/// depth and where the stack goes on from, the bindings, the emitter, the
/// budget (`None` when nothing governs the run) and the stats.
pub(crate) struct Stack<T: Tally> {
    frames: Vec<Frame>,
    at: Next,
    /// Where the last depth's leaf kernel stood when the run stopped in it.
    mark: Option<LeafAt>,
    binding: Vec<Value>,
    emitter: BatchEmitter,
    budget: Option<BudgetHandle>,
    stats: EngineStats<T>,
    /// The root range `[min, sup)` the run is in.
    range: (Value, Option<Value>),
}

impl<T: Tally> Stack<T> {
    fn new(plan: &CompiledQuery, budget: Option<BudgetHandle>) -> Result<Self, JoinError> {
        let frame = |d| Frame {
            lf: Leapfrog::new(plan.atoms_at(d).iter().map(|&(a, _)| a).collect()),
            mode: Mode::Leapfrog,
            record: None,
        };
        Ok(Stack {
            frames: (0..plan.arity()).map(frame).collect(),
            at: Next::Done,
            mark: None,
            binding: vec![0; plan.arity()],
            emitter: BatchEmitter::new(head_order(plan)?),
            budget,
            stats: EngineStats::default(),
            range: (0, None),
        })
    }

    /// Points the stack at the root range `[min, sup)` (`None` = unbounded
    /// above).
    fn enter(&mut self, min: Value, sup: Option<Value>) {
        self.range = (min, sup);
        self.at = Next::Open(0);
    }

    /// Polls the budget: `true` once it tripped, never when nothing
    /// governs the run.
    #[inline]
    fn tripped(&mut self) -> bool {
        self.budget.as_mut().is_some_and(|b| b.poll().is_some())
    }

    /// Emits the current binding; `false` when the budget refused the row
    /// (quota exhausted or run cancelled) and the run must end.
    #[inline]
    fn emit(&mut self, sink: &mut dyn ResultSink) -> bool {
        if self.budget.is_some() && !self.charge_row() {
            return false;
        }
        self.emitter.push(&self.binding, sink);
        self.stats.results += 1;
        let bytes = self.binding.len() as u64 * WORD_BYTES;
        self.stats.access.record(AccessKind::ResultWrite, bytes);
        true
    }

    /// Charges the current row to the budget of a governed run. Out of
    /// line and marked cold, so the ungoverned emit is one test and a
    /// branch the hot loops predict.
    #[cold]
    #[inline(never)]
    fn charge_row(&mut self) -> bool {
        self.budget.as_mut().is_some_and(BudgetHandle::charge_row)
    }

    /// Runs the last depth `d` on the leaf kernel `lf`, from the start or
    /// from the match `from` marks: records each match into `record` when
    /// the level records, and emits its row. One loop for both kernels,
    /// whatever the cursors or the PJR store.
    #[inline]
    fn leaf<L: LeafKernel>(
        &mut self,
        lf: &mut L,
        d: usize,
        from: Option<LeafAt>,
        mut record: Option<&mut Recording>,
        sink: &mut dyn ResultSink,
        stop_at: u64,
    ) -> Ran {
        let mut m = match from {
            Some(at) => {
                lf.restore(at);
                Some(self.binding[d])
            }
            None => lf.search(&mut self.stats),
        };
        while let Some(v) = m {
            self.binding[d] = v;
            if self.stats.results >= stop_at {
                return Ran::Stopped(lf.mark());
            }
            if let Some(rows) = record.as_mut() {
                rows.push((v, lf.cache_positions()));
            }
            if !self.emit(sink) {
                return Ran::Refused;
            }
            m = lf.next(&mut self.stats);
        }
        Ran::Through
    }
}

/// The trie-join driver: the Cached TrieJoin control flow of paper
/// Figure 4 — and, without a cache, plain LFTJ — as one loop over an
/// explicit stack of per-depth frames. Each frame holds its depth's
/// members, its leapfrog position, a mode (leapfrog, or replay of a PJR
/// entry at an index) and the entry it records, if any. Every trie join
/// runs it: a one-range run (always [`Lftj`] and [`crate::Ctj`]) as one
/// driver on the calling thread, a pooled run as one driver per worker,
/// reused across that worker's shards, a one-worker stream a batch at a
/// time ([`Resumable`]), and each term of a standing query.
///
/// Since the frames own the whole state of the run, running a range is
/// "enter it, resume until done", and a batch is "resume until `n` rows
/// are out". A stopped driver stands at a match point at any depth —
/// inside a replaying level at its index, inside a recording level with
/// its entry half-built, inside a leaf kernel at its mark — and goes on
/// from there.
///
/// It is generic over the two axes that change its inner loops:
///
/// * `T: Tally` — [`triejax_relation::Counting`] charges every simulated
///   word touch, [`triejax_relation::NoTally`] none.
/// * `Cur: JoinCursor` — the cursors its [`CursorSet`] hands out: plain
///   [`TrieCursor`]s over frozen relations (the default) or
///   [`triejax_relation::MergeCursor`]s over mutated ones
///   (`base ∪ delta − tombstones`).
///
/// and holds two run-time values, so governed and ungoverned runs, LFTJ
/// and CTJ, share one instance per tally and cursor:
///
/// * the PJR store, `Option<Pjr>` — `None` is LFTJ: no level looks a
///   spec up, so none records or publishes. [`Pjr::Local`] is a one-range
///   CTJ run's store, [`Pjr::Shared`] one pooled CTJ worker's view of the
///   cache all workers share. The driver asks whether a store is present
///   once per level open, and which one once per lookup or publish.
/// * the budget, `Option<BudgetHandle>` — `None` when nothing governs the
///   run; a handle polls for deadline/token trips at every root match and
///   charges the row quota at every emission. A governed driver stops
///   early, still flushing what the emitter buffered, so the delivered
///   rows stay an exact stream prefix.
///
/// The root level is clamped to the range `[min, sup)`
/// ([`JoinCursor::open_root_range`]): a shard's contiguous slice of the
/// first variable's domain, so shards emit in the sequential order.
///
/// Cache entries are keyed by `(depth, key bindings)` only, which a valid
/// [`triejax_query::CacheSpec`] makes sound: they replay across ranges,
/// shards and, with the shared store, workers. An entry is published only
/// when its level is through: a level the budget stopped never publishes.
pub(crate) struct Driver<'a, T: Tally, Cur: JoinCursor = TrieCursor<'a>> {
    plan: &'a CompiledQuery,
    cursors: Vec<Cur>,
    /// Whether the last level tries [`BitLeapfrog`] first: an untallied
    /// run whose last variable joins 2..=[`SLICE_MEMBERS`] cursors that all
    /// keep leaf bitmaps (a single member keeps the plain slice walk).
    /// Decided once here, so runs without bitmaps never ask for them.
    bit_leaf: bool,
    cache: Option<Pjr>,
    stack: Stack<T>,
}

impl<'a, T: Tally, Cur: JoinCursor> Driver<'a, T, Cur> {
    /// A driver over `set`'s cursors, caching in `cache`, governed by
    /// `budget` (see the type docs).
    pub(crate) fn new<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        cache: Option<Pjr>,
        budget: Option<BudgetHandle>,
    ) -> Result<Self, JoinError> {
        Ok(Self::over(plan, set, cache, Stack::new(plan, budget)?))
    }

    /// A driver running `stack` on fresh cursors over `set`.
    fn over<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        cache: Option<Pjr>,
        stack: Stack<T>,
    ) -> Self {
        let cursors: Vec<Cur> = (0..plan.atom_plans().len())
            .map(|i| set.cursor(i))
            .collect();
        let bit_leaf = !T::ENABLED
            && stack.frames.last().is_some_and(|f| {
                let m = f.lf.members();
                (2..=SLICE_MEMBERS).contains(&m.len())
                    && m.iter().all(|&a| cursors[a].has_leaf_bits())
            });
        Driver {
            plan,
            cursors,
            bit_leaf,
            cache,
            stack,
        }
    }

    /// Emits tuples straight through to the sink instead of batching —
    /// for sinks that batch themselves (the parallel engines' per-shard
    /// [`crate::ShardSink`]s).
    pub(crate) fn emit_passthrough(&mut self) {
        self.stack.emitter.passthrough();
    }

    /// The stats the driver has accumulated.
    pub(crate) fn stats(&self) -> &EngineStats<T> {
        &self.stack.stats
    }

    /// Runs the full join and returns its stats.
    pub(crate) fn run(mut self, sink: &mut dyn ResultSink) -> EngineStats<T> {
        self.run_range(0, None, sink);
        self.stack.stats
    }

    /// Runs one root-range shard `[min, sup)` (`None` = unbounded above),
    /// keeping the cache and the accumulated stats across calls.
    pub(crate) fn run_range(&mut self, min: Value, sup: Option<Value>, sink: &mut dyn ResultSink) {
        self.stack.enter(min, sup);
        self.resume(sink, u64::MAX);
        self.stack.emitter.flush(sink);
    }

    /// Runs the join on from where the stack stands: through the root
    /// range (`true`), or until `stop_at` rows are out, up to the next
    /// match point at whatever depth (`false`; the stack stands there).
    fn resume(&mut self, sink: &mut dyn ResultSink, stop_at: u64) -> bool {
        let mut at = self.stack.at;
        let done = loop {
            at = match at {
                Next::Open(d) => self.open(d, sink, stop_at),
                Next::Visit(0) if self.stack.tripped() => {
                    // Polling at the root before the (possibly expensive)
                    // subtree visit bounds the overshoot past a deadline
                    // by one root value.
                    self.cancel(0)
                }
                Next::Visit(_) | Next::Leaf(_) if self.stack.stats.results >= stop_at => {
                    break false;
                }
                Next::Visit(d) => self.visit(d, sink),
                Next::Advance(d) => self.advance(d, sink, stop_at),
                Next::Leaf(d) => {
                    let from = self.stack.mark.take();
                    self.leaf_level(d, from, sink, stop_at)
                        .expect("a leaf kernel resumes over the slices it stopped on")
                }
                Next::Done => break true,
            };
        };
        self.stack.at = at;
        done
    }

    /// Enters depth `d`: replays its PJR entry on a cache hit; else opens
    /// the level on every participant (clamped to the range at the root)
    /// and leapfrogs to its first match, recording the matches on a miss.
    fn open(&mut self, d: usize, sink: &mut dyn ResultSink, stop_at: u64) -> Next {
        let stack = &mut self.stack;
        let cached = match &mut self.cache {
            Some(cache) => self.plan.cache_spec_at(d).map(|spec| (cache, spec)),
            None => None,
        };
        if let Some((cache, spec)) = cached {
            let key: Vec<Value> = spec
                .key_depths()
                .iter()
                .map(|&kd| stack.binding[kd])
                .collect();
            // Cache lookup: hash probe over the key words. The store
            // accounts the hit/miss and, on a miss, hands the key back
            // for the publish once the level is through.
            let bytes = key.len() as u64 * WORD_BYTES;
            stack.stats.access.record(AccessKind::Intermediate, bytes);
            match cache.lookup(d, key, &mut stack.stats) {
                Looked::Hit(entry) => {
                    stack.frames[d].mode = Mode::Replay(entry, 0);
                    return self.advance(d, sink, stop_at);
                }
                Looked::Miss(key, token) => {
                    stack.frames[d].record = Some((key, token, Vec::new()));
                }
            }
        }
        let parts = self.plan.atoms_at(d);
        for (i, &(a, lvl)) in parts.iter().enumerate() {
            if lvl > 0 {
                stack.stats.expand_ops += 1;
            }
            let cursor = &mut self.cursors[a];
            if !open_level(cursor, d, stack.range, &mut stack.stats.access) {
                for &(b, _) in &parts[..i] {
                    self.cursors[b].up();
                }
                stack.frames[d].record = None;
                return up_from(d);
            }
        }
        // A last level below the root runs on sibling slices when it can;
        // a one-level plan's root stays on the cursor loop, which polls the
        // budget at the root.
        if d + 1 == self.plan.arity() && d > 0 {
            if let Some(next) = self.leaf_level(d, None, sink, stop_at) {
                return next;
            }
        }
        let m = self.stack.frames[d]
            .lf
            .search(&mut self.cursors, &mut self.stack.stats);
        self.matched(d, m)
    }

    /// Binds depth `d`'s match `m` and visits it, or closes the level when
    /// there is none.
    #[inline]
    fn matched(&mut self, d: usize, m: Option<Value>) -> Next {
        match m {
            Some(v) => {
                self.stack.binding[d] = v;
                Next::Visit(d)
            }
            None => self.close(d),
        }
    }

    /// Visits depth `d`'s bound match: records it when the level records,
    /// then enters the next depth, or emits the row at the last.
    #[inline]
    fn visit(&mut self, d: usize, sink: &mut dyn ResultSink) -> Next {
        let frame = &mut self.stack.frames[d];
        if let Some((_, _, rows)) = frame.record.as_mut() {
            let positions = frame
                .lf
                .members()
                .iter()
                .map(|&a| self.cursors[a].cache_pos());
            rows.push((self.stack.binding[d], positions.collect()));
        }
        if d + 1 < self.plan.arity() {
            Next::Open(d + 1)
        } else if self.stack.emit(sink) {
            Next::Advance(d)
        } else {
            self.cancel(d)
        }
    }

    /// Moves depth `d` on: leapfrogs to its next match, or replays its
    /// entry's next item, re-opening each participating cursor directly at
    /// the stored index (paper Fig. 3, step 5: "read next z from cache").
    #[inline]
    fn advance(&mut self, d: usize, sink: &mut dyn ResultSink, stop_at: u64) -> Next {
        let last = d + 1 == self.plan.arity();
        let Stack { frames, stats, .. } = &mut self.stack;
        let frame = &mut frames[d];
        let m = match &mut frame.mode {
            Mode::Leapfrog => frame.lf.next(&mut self.cursors, stats),
            Mode::Replay(..) if last => return self.replay_last(d, sink, stop_at),
            Mode::Replay(entry, next) => {
                let members = frame.lf.members();
                entry.get(*next).map(|(v, positions)| {
                    if *next > 0 {
                        for &a in members {
                            self.cursors[a].up();
                        }
                    }
                    *next += 1;
                    let bytes = (1 + positions.len()) as u64 * WORD_BYTES;
                    stats.access.record(AccessKind::Intermediate, bytes);
                    for (&a, &pos) in members.iter().zip(positions) {
                        self.cursors[a].reopen_at(pos, *v, &mut stats.access);
                    }
                    *v
                })
            }
        };
        self.matched(d, m)
    }

    /// Replays the last depth `d`'s entry from its index, emitting a row
    /// per item in one loop — up to an item the batch has no room for,
    /// which [`Next::Visit`] emits when the run resumes.
    fn replay_last(&mut self, d: usize, sink: &mut dyn ResultSink, stop_at: u64) -> Next {
        let stack = &mut self.stack;
        let Mode::Replay(entry, mut i) =
            std::mem::replace(&mut stack.frames[d].mode, Mode::Leapfrog)
        else {
            unreachable!("only a replaying level replays")
        };
        let mut refused = false;
        while let Some((v, words)) = entry.get(i).map(|(v, p)| (*v, 1 + p.len())) {
            i += 1;
            let bytes = words as u64 * WORD_BYTES;
            stack.stats.access.record(AccessKind::Intermediate, bytes);
            stack.binding[d] = v;
            if stack.stats.results >= stop_at {
                stack.frames[d].mode = Mode::Replay(entry, i);
                return Next::Visit(d);
            }
            if !stack.emit(sink) {
                refused = true;
                break;
            }
        }
        stack.frames[d].mode = Mode::Replay(entry, i);
        if refused {
            self.cancel(d)
        } else {
            self.close(d)
        }
    }

    /// Closes depth `d` once its level is through, and moves the depth
    /// above on. The level is fully analyzed, so its entry is committed
    /// (paper §3.5): the store keeps it, or finds a sibling worker already
    /// published it (an insert race), and accounts for either.
    fn close(&mut self, d: usize) -> Next {
        let frame = &mut self.stack.frames[d];
        // A replaying level has its last item's cursors open.
        let open = match frame.mode {
            Mode::Leapfrog => true,
            Mode::Replay(_, next) => next > 0 && d + 1 < self.plan.arity(),
        };
        if open {
            for &a in frame.lf.members() {
                self.cursors[a].up();
            }
        }
        frame.mode = Mode::Leapfrog;
        if let Some((key, token, rows)) = frame.record.take() {
            let cache = self.cache.as_mut().expect("only a store records");
            cache.publish(d, key, token, rows, &mut self.stack.stats);
        }
        up_from(d)
    }

    /// Ends the run where the budget cut it: closes every depth from `top`
    /// up and publishes nothing — a truncated match list replayed by an
    /// un-cancelled rerun would silently drop rows.
    #[cold]
    fn cancel(&mut self, top: usize) -> Next {
        for d in (0..=top).rev() {
            self.stack.frames[d].record = None;
            self.close(d);
        }
        Next::Done
    }

    /// Runs the last depth `d` on a leaf kernel ([`leaf`](Self::leaf),
    /// instantiated for the level's member count, one dispatch per visit,
    /// up to [`SLICE_MEMBERS`]). `None` (nothing done) for more members,
    /// or members without a slice form.
    fn leaf_level(
        &mut self,
        d: usize,
        from: Option<LeafAt>,
        sink: &mut dyn ResultSink,
        stop_at: u64,
    ) -> Option<Next> {
        // One arm per `K` in `1..=SLICE_MEMBERS`.
        let ran = match self.stack.frames[d].lf.members().len() {
            1 => self.leaf::<1>(d, from, sink, stop_at),
            2 => self.leaf::<2>(d, from, sink, stop_at),
            3 => self.leaf::<3>(d, from, sink, stop_at),
            4 => self.leaf::<4>(d, from, sink, stop_at),
            _ => None,
        }?;
        Some(match ran {
            Ran::Through => self.close(d),
            Ran::Stopped(at) => {
                self.stack.mark = Some(at);
                Next::Leaf(d)
            }
            Ran::Refused => self.cancel(d),
        })
    }

    /// [`leaf_level`](Self::leaf_level) over exactly `K` members: a
    /// [`SliceLeapfrog`] over their sibling slices, or — for a level that
    /// records nothing, when [`Self::bit_leaf`] allows — a [`BitLeapfrog`]
    /// yielding the same rows as word ANDs.
    fn leaf<const K: usize>(
        &mut self,
        d: usize,
        from: Option<LeafAt>,
        sink: &mut dyn ResultSink,
        stop_at: u64,
    ) -> Option<Ran> {
        let frame = &self.stack.frames[d];
        let members: [usize; K] = frame.lf.members().try_into().ok()?;
        let recording = frame.record.is_some();
        let cursors = &self.cursors;
        // `bit_leaf` already excludes tallied runs and single members; the
        // constant half keeps the bitmap kernel out of those instances.
        if !T::ENABLED && K >= 2 && self.bit_leaf && !recording {
            if let Some(mut lf) = BitLeapfrog::<K>::over(cursors, &members) {
                return Some(self.stack.leaf(&mut lf, d, from, None, sink, stop_at));
            }
        }
        let mut lf = SliceLeapfrog::<K>::over(cursors, &members)?;
        if !recording {
            return Some(self.stack.leaf(&mut lf, d, from, None, sink, stop_at));
        }
        lf.positions_from(cursors, &members);
        let mut record = self.stack.frames[d].record.take();
        let rows = record.as_mut().map(|(_, _, rows)| rows);
        let ran = self.stack.leaf(&mut lf, d, from, rows, sink, stop_at);
        self.stack.frames[d].record = record;
        Some(ran)
    }

    /// Seats fresh cursors on a stopped stack: every depth with open
    /// cursors re-opens its members and seeks them to its bound value —
    /// but a leaf kernel's level is only opened, as its mark counts from
    /// there. Untallied, so the run's stats read as if it never stopped.
    fn reseat(&mut self) {
        let (top, leaf) = match self.stack.at {
            Next::Visit(d) => (d, false),
            Next::Leaf(d) => (d, true),
            _ => return,
        };
        for (d, frame) in self.stack.frames[..=top].iter().enumerate() {
            // A replayed last level has nothing open.
            if matches!(frame.mode, Mode::Replay(..)) && d + 1 == self.plan.arity() {
                continue;
            }
            let v = self.stack.binding[d];
            for &a in frame.lf.members() {
                let cursor = &mut self.cursors[a];
                let seated = open_level(cursor, d, self.stack.range, &mut NoTally)
                    && (leaf && d == top || cursor.seek(v, &mut NoTally) && cursor.key() == v);
                assert!(seated, "a stopped run's bound values are in its cursors");
            }
        }
    }
}

/// Opens `cursor`'s level at depth `d`: the root clamped to `range`, any
/// other level whole.
#[inline]
fn open_level<Cur: JoinCursor, T: Tally>(
    cursor: &mut Cur,
    d: usize,
    (min, sup): (Value, Option<Value>),
    tally: &mut T,
) -> bool {
    match d {
        0 => cursor.open_root_range(min, sup, tally),
        _ => cursor.open(tally),
    }
}

/// Where a stack goes once depth `d` is closed: on with the depth above,
/// or done at the root.
fn up_from(d: usize) -> Next {
    match d {
        0 => Next::Done,
        _ => Next::Advance(d - 1),
    }
}

/// A trie join run a batch of rows at a time on the caller's thread: the
/// engine of a one-worker [`crate::ResultStream`].
///
/// It keeps what outlives a batch: the plan, the cursor set, the root
/// ranges still to enter, the PJR store (local, when the run is CTJ) and
/// the [`Stack`]. The cursors borrow the set, so they live one batch:
/// each [`step`](Self::step) builds a [`Driver`] around the stack, seats
/// its cursors where the stack stopped, and resumes it for exactly `rows`
/// rows.
pub(crate) struct Resumable<T: Tally, S> {
    plan: CompiledQuery,
    set: S,
    /// The root ranges still to enter, the next on top.
    ranges: Vec<(Value, Option<Value>)>,
    /// The run's PJR store and stack between batches (`None` only while
    /// one runs).
    state: Option<(Option<Pjr>, Stack<T>)>,
    /// The budget the run's result is settled against.
    shared: Option<Arc<RunBudget>>,
}

impl<T: Tally, S> Resumable<T, S>
where
    S: for<'s> CursorSet<'s>,
{
    /// A run of `plan` over `set` that visits the root `ranges` in order,
    /// adding to `stats`, caching in `cache` (LFTJ when `None`), governed
    /// by `shared` (ungoverned when `None`) and settled against it.
    ///
    /// # Errors
    ///
    /// [`JoinError::Plan`] for a plan the driver cannot emit.
    pub(crate) fn new(
        plan: CompiledQuery,
        set: S,
        ranges: &[(Value, Option<Value>)],
        stats: EngineStats<T>,
        cache: Option<Pjr>,
        shared: Option<Arc<RunBudget>>,
    ) -> Result<Self, JoinError> {
        let budget = shared.clone().map(BudgetHandle::driving);
        let mut stack = Stack::new(&plan, budget)?;
        stack.stats = stats;
        let mut ranges: Vec<_> = ranges.iter().rev().copied().collect();
        if let Some((min, sup)) = ranges.pop() {
            stack.enter(min, sup);
        }
        Ok(Resumable {
            plan,
            set,
            ranges,
            state: Some((cache, stack)),
            shared,
        })
    }

    /// Appends the next `rows` rows to `out` — fewer when the run ends or
    /// its budget stops it — and returns whether the run has work left.
    /// The driver writes them straight into `out`.
    fn step(&mut self, rows: u64, out: &mut Vec<Value>) -> bool {
        let (cache, stack) = self.state.take().expect("a batch panicked");
        let mut driver = Driver::over(&self.plan, &self.set, cache, stack);
        driver.reseat();
        driver.stack.emitter.collect(std::mem::take(out));
        let stop_at = driver.stack.stats.results + rows;
        // A collecting emitter hands no row to its sink.
        let mut unused = CountSink::default();
        let more = loop {
            if !driver.resume(&mut unused, stop_at) {
                break true;
            }
            // A tripped budget ends the run: no range past the cut starts.
            let tripped = driver.stack.tripped();
            match self.ranges.pop() {
                Some((min, sup)) if !tripped => driver.stack.enter(min, sup),
                _ => break false,
            }
        };
        *out = driver.stack.emitter.take_rows();
        self.state = Some((driver.cache, driver.stack));
        more
    }
}

impl<S> BatchRun for Resumable<NoTally, S>
where
    S: for<'s> CursorSet<'s> + Send,
{
    fn step(&mut self, rows: u64, out: &mut Vec<Value>) -> bool {
        Resumable::step(self, rows, out)
    }

    fn finish(self: Box<Self>) -> Result<EngineStats, JoinError> {
        let stats = self.state.expect("a batch panicked").1.stats;
        settle(stats, self.shared.as_deref()).map(|s| s.to_counting())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::head_slots;
    use crate::viewset::MergeSet;
    use crate::{Catalog, CollectSink, CountSink, DeltaMap, JoinEngine, TrieSet};
    use triejax_query::patterns;
    use triejax_relation::{Counting, NoTally, Relation};

    fn catalog(edges: &[(u32, u32)]) -> Catalog {
        let mut c = Catalog::new();
        c.insert("G", Relation::from_pairs(edges.to_vec()));
        c
    }

    #[test]
    fn path3_on_a_line() {
        // 0 -> 1 -> 2 -> 3: paths of length 2 are (0,1,2) and (1,2,3).
        let c = catalog(&[(0, 1), (1, 2), (2, 3)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut sink = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.into_sorted(), vec![vec![0, 1, 2], vec![1, 2, 3]]);
    }

    #[test]
    fn cycle3_finds_each_rotation() {
        let c = catalog(&[(0, 1), (1, 2), (2, 0)]);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(
            sink.into_sorted(),
            vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]]
        );
    }

    #[test]
    fn clique4_on_k4() {
        // Complete directed graph on 4 vertices: every ordered 4-tuple of
        // distinct vertices forms a clique4 match: 4! = 24.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::clique4()).unwrap();
        let mut sink = CountSink::default();
        Lftj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.count(), 24);
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let c = catalog(&[]);
        let plan = CompiledQuery::compile(&patterns::cycle4()).unwrap();
        let mut sink = CountSink::default();
        let stats = Lftj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.count(), 0);
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn results_are_emitted_in_head_order_for_any_evaluation_order() {
        let c = catalog(&[(0, 1), (1, 2), (2, 3)]);
        let q = patterns::path3();
        let forward = CompiledQuery::compile(&q).unwrap();
        let backward = CompiledQuery::compile_with_order(&q, vec![2, 1, 0]).unwrap();
        let mut s1 = CollectSink::new();
        let mut s2 = CollectSink::new();
        Lftj::new().execute(&forward, &c, &mut s1).unwrap();
        Lftj::new().execute(&backward, &c, &mut s2).unwrap();
        assert_eq!(s1.into_sorted(), s2.into_sorted());
    }

    #[test]
    fn stats_count_work_and_results() {
        let c = catalog(&[(0, 1), (1, 2), (2, 0), (1, 0)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut sink = CountSink::default();
        let stats = Lftj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(stats.results, sink.count());
        assert!(stats.match_ops > 0);
        assert!(stats.access.index_reads > 0);
        assert_eq!(stats.intermediates, 0);
        assert_eq!(stats.access.result_bytes, stats.results * 12);
    }

    #[test]
    fn missing_relation_is_an_error() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut sink = CountSink::default();
        let err = Lftj::new().execute(&plan, &Catalog::new(), &mut sink);
        assert!(err.is_err());
    }

    #[test]
    fn untallied_run_matches_counting_run() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1), (0, 2), (1, 3)];
        // The same graph with ids spread x1000: leaves too sparse for
        // bitmaps, so the untallied run does the counting run's work.
        let spread: Vec<_> = edges.iter().map(|&(a, b)| (a * 1000, b * 1000)).collect();
        for (c, bitmaps) in [(catalog(&edges), true), (catalog(&spread), false)] {
            for q in [patterns::path3(), patterns::cycle3(), patterns::clique4()] {
                let plan = CompiledQuery::compile(&q).unwrap();
                let mut counting = CollectSink::new();
                let cs = Lftj::new()
                    .run_tallied::<Counting>(&plan, &c, &mut counting)
                    .unwrap();
                let mut fast = CollectSink::new();
                let fs = Lftj::new()
                    .run_tallied::<NoTally>(&plan, &c, &mut fast)
                    .unwrap();
                // Tuple-for-tuple identical, including emission order.
                assert_eq!(counting.tuples(), fast.tuples(), "{}", q.name());
                assert_eq!(cs.results, fs.results);
                assert_eq!(cs.expand_ops, fs.expand_ops);
                assert!(cs.memory_accesses() > 0);
                assert_eq!(fs.memory_accesses(), 0);
                // Path3's last variable joins one atom, so only Cycle3 and
                // Clique4 intersect bitmaps; elsewhere the work is the same.
                let bit_leaf = bitmaps && q.name() != "path3";
                assert_eq!(
                    (cs.lub_ops, cs.match_ops) == (fs.lub_ops, fs.match_ops),
                    !bit_leaf,
                    "{}",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn merged_views_run_the_leaf_kernel_and_equal_the_rebuilt_answer() {
        use triejax_relation::RelationDelta;

        // The live_delta shape: Cycle3 over a base with pending inserts
        // (closing 0 -> 1 -> 2 -> 0) and deletes (opening 2 -> 3 -> 4 -> 2).
        let base = Relation::from_pairs(vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)]);
        let delta = RelationDelta::empty(2).unwrap().apply_batch(
            &base,
            &Relation::from_pairs(vec![(2, 0), (5, 3)]),
            &Relation::from_pairs(vec![(4, 2)]),
        );
        let mut c = Catalog::new();
        c.insert("G", base.clone());
        let mut rebuilt = Catalog::new();
        rebuilt.insert("G", delta.merge_into(&base));
        let deltas = DeltaMap::from([("G".to_owned(), delta)]);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();

        // Every level of a merged view is one slice, so the last variable
        // runs on the leaf kernel like over a frozen relation ...
        let set = MergeSet::build(&plan, &c, &deltas).unwrap();
        let mut cursors: Vec<_> = (0..plan.atom_plans().len())
            .map(|i| set.cursor(i))
            .collect();
        for cur in &mut cursors {
            assert!(cur.open(&mut NoTally));
        }
        assert!(SliceLeapfrog::<3>::over(&cursors, &[0, 1, 2]).is_some());

        // ... and answers like the rebuilt relation, row for row, doing
        // the rebuilt run's work to the last tallied read.
        let mut oracle = CollectSink::new();
        let rebuilt_stats = Lftj::new().execute(&plan, &rebuilt, &mut oracle).unwrap();
        // 0-1-2 closed by the insert (2, 0), 3-4-5 by (5, 3); 2-3-4 is gone.
        assert_eq!(oracle.tuples().len(), 6);
        assert_eq!(oracle.tuples()[0], [0, 1, 2]);
        let mut counting = CollectSink::new();
        let stats = Lftj::new()
            .run_tallied_with::<Counting>(&plan, &c, &deltas, &mut counting)
            .unwrap();
        let mut fast = CollectSink::new();
        Lftj::new()
            .run_tallied_with::<NoTally>(&plan, &c, &deltas, &mut fast)
            .unwrap();
        assert_eq!(counting.tuples(), oracle.tuples());
        assert_eq!(fast.tuples(), oracle.tuples());
        assert_eq!(stats.results, 6);
        // Equal in everything but the wall-clock time the builds took.
        let work = |s: EngineStats| EngineStats {
            trie_build_ns: 0,
            ..s
        };
        assert_eq!(work(stats), work(rebuilt_stats));
    }

    /// The LFTJ driver: no cache, governed by `budget`.
    fn lftj_driver<'a>(
        plan: &'a CompiledQuery,
        tries: &'a TrieSet,
        budget: Option<BudgetHandle>,
    ) -> Driver<'a, Counting> {
        Driver::new(plan, tries, None, budget).unwrap()
    }

    #[test]
    fn budgeted_driver_delivers_an_exact_row_limited_prefix() {
        use triejax_exec::CancelReason;

        let c = catalog(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        lftj_driver(&plan, &tries, None).run(&mut full);
        assert!(full.tuples().len() > 2);

        let shared = Arc::new(RunBudget::new().with_row_limit(2));
        let mut capped = CollectSink::new();
        let handle = BudgetHandle::driving(Arc::clone(&shared));
        let stats = lftj_driver(&plan, &tries, Some(handle)).run(&mut capped);
        assert_eq!(capped.tuples(), &full.tuples()[..2]);
        assert_eq!(stats.results, 2);
        assert_eq!(shared.cancelled(), Some(CancelReason::RowLimit));
    }

    #[test]
    fn cancelled_token_stops_a_budgeted_driver_before_any_row() {
        use triejax_exec::CancelToken;

        let c = catalog(&[(0, 1), (1, 2), (2, 3)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let token = CancelToken::new();
        token.cancel();
        let shared = Arc::new(RunBudget::new().with_cancel_token(token));
        let mut sink = CollectSink::new();
        let handle = BudgetHandle::driving(Arc::clone(&shared));
        let stats = lftj_driver(&plan, &tries, Some(handle)).run(&mut sink);
        assert!(sink.tuples().is_empty(), "poll at the first root advance");
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn root_range_driver_partitions_the_result_stream() {
        let c = catalog(&[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        lftj_driver(&plan, &tries, None).run(&mut full);

        // Two shards on one reused driver, as a pool worker runs them.
        let mut driver = lftj_driver(&plan, &tries, None);
        let mut lo = CollectSink::new();
        driver.run_range(0, Some(3), &mut lo);
        let mut hi = CollectSink::new();
        driver.run_range(3, None, &mut hi);

        let mut stitched = lo.tuples().to_vec();
        stitched.extend_from_slice(hi.tuples());
        assert_eq!(stitched, full.tuples());
    }

    /// What a [`Resumable`] run stopped every `k` rows delivered: the rows,
    /// the rows of each batch, where each batch stopped, and the run's
    /// stats and PJR store.
    struct Stepped {
        rows: Vec<Vec<Value>>,
        batches: Vec<usize>,
        stops: Vec<Stop>,
        stats: EngineStats,
        cache: Option<Pjr>,
    }

    /// Where a batch stopped: the depth of the frame stack's top, whether
    /// it stood in a bitmap leaf, and whether a level on the stack was
    /// recording a PJR entry.
    #[derive(Clone, Copy)]
    struct Stop {
        depth: usize,
        bits: bool,
        recording: bool,
    }

    fn stepped<T: Tally, S>(plan: &CompiledQuery, set: S, cache: Option<Pjr>, k: u64) -> Stepped
    where
        S: for<'s> CursorSet<'s>,
    {
        let stats = EngineStats::default();
        let mut run =
            Resumable::<T, _>::new(plan.clone(), set, &[(0, None)], stats, cache, None).unwrap();
        let (mut sink, mut batch) = (CollectSink::new(), Vec::new());
        let (mut batches, mut stops) = (Vec::new(), Vec::new());
        loop {
            batch.clear();
            let more = run.step(k, &mut batch);
            sink.push_rows(&batch, plan.arity());
            batches.push(batch.len() / plan.arity());
            if !more {
                break;
            }
            let (_, stack) = run.state.as_ref().unwrap();
            let (depth, bits) = match stack.at {
                Next::Visit(d) => (d, false),
                Next::Leaf(d) => (d, matches!(stack.mark, Some(LeafAt::Bits(..)))),
                at => panic!("a stopped run stands at a match, not at {at:?}"),
            };
            let recording = stack.frames[..=depth].iter().any(|f| f.record.is_some());
            stops.push(Stop {
                depth,
                bits,
                recording,
            });
        }
        let (cache, stack) = run.state.unwrap();
        Stepped {
            rows: sink.tuples().to_vec(),
            batches,
            stops,
            stats: stack.stats.to_counting(),
            cache,
        }
    }

    /// The rows and stats of one unstopped driver over `set`.
    fn unstopped<'a, T: Tally, S: CursorSet<'a>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        cache: Option<Pjr>,
    ) -> (Vec<Vec<Value>>, EngineStats) {
        let mut sink = CollectSink::new();
        let stats = Driver::<T, _>::new(plan, set, cache, None)
            .unwrap()
            .run(&mut sink);
        (sink.tuples().to_vec(), stats.to_counting())
    }

    /// The sequential order of `plan` over `set`: one unstopped driver.
    fn sequential<'a, S: CursorSet<'a>>(plan: &'a CompiledQuery, set: &'a S) -> Vec<Vec<Value>> {
        let mut sink = CollectSink::new();
        Driver::<NoTally, _>::new(plan, set, None, None)
            .unwrap()
            .run(&mut sink);
        sink.tuples().to_vec()
    }

    /// Asserts that `run` did what the unstopped run `want` did, rows and
    /// stats, in batches of exactly `k` rows but the last.
    fn exact(run: &Stepped, want: &(Vec<Vec<Value>>, EngineStats), k: u64, context: &str) {
        assert_eq!(run.rows, want.0, "{context}");
        assert_eq!(run.stats, want.1, "{context}");
        let (last, full) = run.batches.split_last().unwrap();
        assert!(full.iter().all(|&b| b as u64 == k), "{context}: {full:?}");
        assert!(*last as u64 <= k, "{context}");
    }

    /// A driver stopped after every k rows and resumed from its frame
    /// stack reproduces the unstopped run — its rows in sequential order
    /// and its stats to the last counter — on all five paper patterns,
    /// LFTJ and CTJ, frozen tries and views with a pending delta, with and
    /// without leaf bitmaps. Every batch but the last is exactly k rows,
    /// the stops fall at every depth, inside bitmap leaves and inside
    /// recording levels. (Beyond k = 1..=7, one k ends its first batch
    /// exactly at a root boundary.)
    #[test]
    fn a_driver_stopped_every_k_rows_resumes_in_sequential_order() {
        use triejax_query::patterns::Pattern;
        use triejax_relation::RelationDelta;

        let edges: Vec<(u32, u32)> = (0..9u32)
            .flat_map(|a| (0..9u32).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && (a * 5 + b * 3) % 4 != 0)
            .collect();
        let spread: Vec<_> = edges.iter().map(|&(a, b)| (a * 1000, b * 1000)).collect();
        let (mut bit_leaf_stops, mut recording_stops) = (0, 0);
        for (c, dense) in [(catalog(&edges), true), (catalog(&spread), false)] {
            let base = c.get("G").unwrap();
            let (ins, del) = if dense {
                (vec![(0, 4), (4, 0), (9, 1)], vec![(1, 2), (2, 7)])
            } else {
                (vec![(0, 4000), (9000, 1000)], vec![(1000, 2000)])
            };
            let delta = RelationDelta::empty(2).unwrap().apply_batch(
                base,
                &Relation::from_pairs(ins),
                &Relation::from_pairs(del),
            );
            let deltas = DeltaMap::from([("G".to_owned(), delta)]);
            for pattern in Pattern::PAPER {
                let plan = CompiledQuery::compile(&pattern.query()).unwrap();
                let tries = TrieSet::build(&plan, &c).unwrap();
                let merged = MergeSet::build(&plan, &c, &deltas).unwrap();
                let (frozen_order, merged_order) =
                    (sequential(&plan, &tries), sequential(&plan, &merged));
                assert!(!frozen_order.is_empty() && frozen_order != merged_order);
                let bit_leaf = Driver::<NoTally, _>::new(&plan, &tries, None, None)
                    .unwrap()
                    .bit_leaf;
                // The unstopped runs each stepped run must equal.
                let lftj_full = [
                    unstopped::<NoTally, _>(&plan, &tries, None),
                    unstopped::<Counting, _>(&plan, &tries, None),
                    unstopped::<NoTally, _>(&plan, &merged, None),
                ];
                let ctj_full = [
                    unstopped::<NoTally, _>(&plan, &tries, Some(Pjr::local())),
                    unstopped::<Counting, _>(&plan, &merged, Some(Pjr::local())),
                ];
                // Plus the rows under the first root value: a batch of
                // that many stops at the root.
                let root = head_slots(&plan).unwrap()[0];
                let first_root = frozen_order
                    .iter()
                    .take_while(|r| r[root] == frozen_order[0][root]);
                let mut lftj_stops = std::collections::BTreeSet::new();
                for k in (1..=7u64).chain([first_root.count() as u64]) {
                    let build = || TrieSet::build(&plan, &c).unwrap();
                    let view = || MergeSet::build(&plan, &c, &deltas).unwrap();
                    let context = format!("{pattern} dense={dense} k={k}");
                    let runs = [
                        stepped::<NoTally, _>(&plan, build(), None, k),
                        stepped::<Counting, _>(&plan, build(), None, k),
                        stepped::<NoTally, _>(&plan, view(), None, k),
                    ];
                    assert_eq!(lftj_full[0].0, frozen_order);
                    assert_eq!(lftj_full[2].0, merged_order);
                    for (run, want) in runs.iter().zip(&lftj_full) {
                        exact(run, want, k, &context);
                        lftj_stops.extend(run.stops.iter().map(|s| s.depth));
                    }
                    if bit_leaf {
                        bit_leaf_stops += runs[0].stops.iter().filter(|s| s.bits).count();
                    }
                    let runs = [
                        stepped::<NoTally, _>(&plan, build(), Some(Pjr::local()), k),
                        stepped::<Counting, _>(&plan, view(), Some(Pjr::local()), k),
                    ];
                    assert_eq!(ctj_full[0].0, frozen_order);
                    assert_eq!(ctj_full[1].0, merged_order);
                    for (run, want) in runs.iter().zip(&ctj_full) {
                        exact(run, want, k, &context);
                        recording_stops += run.stops.iter().filter(|s| s.recording).count();
                    }
                }
                let every_depth: std::collections::BTreeSet<usize> = (0..plan.arity()).collect();
                assert_eq!(lftj_stops, every_depth, "{pattern} dense={dense}");
            }
        }
        assert!(
            bit_leaf_stops > 0,
            "some batches stopped inside bitmap leaves"
        );
        assert!(
            recording_stops > 0,
            "some CTJ batches stopped inside a recording level"
        );
    }

    /// A stop inside a recording level never publishes a truncated entry:
    /// after a CTJ run stepped one row at a time, a full run on the same
    /// store — where every lookup hits — replays the sequential rows.
    #[test]
    fn entries_recorded_across_stops_are_whole() {
        use triejax_query::patterns::Pattern;

        let edges: Vec<(u32, u32)> = (0..9u32)
            .flat_map(|a| (0..9u32).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && (a * 5 + b * 3) % 4 != 0)
            .collect();
        let c = catalog(&edges);
        let mut replayed = 0;
        for pattern in Pattern::PAPER {
            let plan = CompiledQuery::compile(&pattern.query()).unwrap();
            let tries = TrieSet::build(&plan, &c).unwrap();
            let want = sequential(&plan, &tries);
            let run = stepped::<NoTally, _>(
                &plan,
                TrieSet::build(&plan, &c).unwrap(),
                Some(Pjr::local()),
                1,
            );
            assert_eq!(run.rows, want, "{pattern}");
            let mut sink = CollectSink::new();
            let stats = Driver::<NoTally, _>::new(&plan, &tries, run.cache, None)
                .unwrap()
                .run(&mut sink);
            assert_eq!(sink.tuples(), want, "{pattern}");
            assert_eq!(stats.cache_misses, 0, "{pattern}: every lookup hits");
            if run.stats.cache_misses > 0 {
                assert!(run.stops.iter().any(|s| s.recording), "{pattern}");
                assert!(stats.cache_hits > 0, "{pattern}");
                replayed += 1;
            }
        }
        assert!(replayed > 0, "some pattern caches");
    }

    /// A budget that trips ends a resumable run at once: a zero deadline or
    /// a pre-fired token before any row, a row limit after exactly its rows
    /// — with the run stopped mid-range, nothing past the cut is resumed.
    #[test]
    fn a_tripped_budget_ends_a_resumable_run() {
        use std::time::Duration;
        use triejax_exec::{CancelReason, CancelToken};

        let c = catalog(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let full = sequential(&plan, &TrieSet::build(&plan, &c).unwrap());
        let token = CancelToken::new();
        token.cancel();
        let budgets = [
            (
                RunBudget::new().with_deadline(Duration::ZERO),
                0,
                CancelReason::Deadline,
            ),
            (
                RunBudget::new().with_cancel_token(token),
                0,
                CancelReason::External,
            ),
            (
                RunBudget::new().with_row_limit(3),
                3,
                CancelReason::RowLimit,
            ),
        ];
        for (budget, rows, reason) in budgets {
            let shared = Arc::new(budget);
            let set = TrieSet::build(&plan, &c).unwrap();
            let stats = EngineStats::default();
            let mut run = Resumable::<NoTally, _>::new(
                plan.clone(),
                set,
                &[(0, None)],
                stats,
                None,
                Some(Arc::clone(&shared)),
            )
            .unwrap();
            let (mut sink, mut batch) = (CollectSink::new(), Vec::new());
            // One row per batch: the limit trips mid-range.
            while run.step(1, &mut batch) {
                sink.push_rows(&batch, 3);
                batch.clear();
            }
            sink.push_rows(&batch, 3);
            assert_eq!(sink.tuples(), &full[..rows], "{reason:?}");
            match Box::new(run).finish() {
                Err(JoinError::Cancelled { reason: r, partial }) => {
                    assert_eq!(r, reason);
                    assert_eq!(partial.results, rows as u64);
                }
                other => panic!("expected {reason:?}, got {other:?}"),
            }
        }
    }
}
