use triejax_exec::Budget;
use triejax_query::CompiledQuery;
use triejax_relation::{AccessKind, JoinCursor, Tally, TrieCursor, Value, WORD_BYTES};

use crate::cache::{Looked, PjrStore};
use crate::engine::{head_order, head_slots};
use crate::leapfrog::{BitLeapfrog, SliceLeapfrog, SLICE_MEMBERS};
use crate::sink::BatchEmitter;
use crate::viewset::CursorSet;
use crate::{EngineStats, JoinError, Leapfrog, ResultSink, TrieJoin};

/// LeapFrog TrieJoin (Veldhuizen, ICDT'14): the worst-case-optimal join
/// that backtracks over trie indexes, materializing *no* intermediate
/// results at the cost of recomputing recurring partial joins (paper §2.2).
///
/// The sequential LFTJ preset of the one trie-join engine: one worker on
/// the calling thread, tries built for the run, no `TRIEJAX_*` variable
/// read. [`JoinEngine::execute`](crate::JoinEngine::execute) runs the
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

/// The stop protocol between a driver's level loops and the run that
/// owns it.
///
/// A *stopping* controller ([`STOPS`](SplitSpawn::STOPS)) ends the run once
/// [`batch_full`](SplitSpawn::batch_full) says so, and the driver hands it
/// every tail the stop left unvisited through
/// [`handoff`](SplitSpawn::handoff), as `(depth, prefix, min, sup)`, so
/// [`Driver::run_tail`] resumes each one.
pub(crate) trait SplitSpawn {
    /// `true` only for a stopping controller; `false` compiles every stop
    /// check out of the driver.
    const STOPS: bool = false;
    /// Whether a run that has emitted `results` rows must stop at its
    /// next stop point (only asked when [`STOPS`](Self::STOPS)).
    fn batch_full(&self, _results: u64) -> bool {
        false
    }
    /// Takes the unvisited tail `[min, sup)` at `depth` under the bound
    /// `prefix` (one value per level above `depth`).
    fn handoff(&mut self, depth: usize, prefix: &[Value], min: Value, sup: Option<Value>);
}

/// The no-op controller of runs that never stop early: the generic
/// drivers monomorphize their stop checks away.
pub(crate) struct NoSplit;

impl SplitSpawn for NoSplit {
    fn handoff(&mut self, _depth: usize, _prefix: &[Value], _min: Value, _sup: Option<Value>) {
        unreachable!("NoSplit never stops a run")
    }
}

/// The trie-join driver: the Cached TrieJoin control flow of paper
/// Figure 4 as recursive backtracking over trie cursors — and, without a
/// cache, plain LFTJ. Every trie join runs it: a one-range run (always
/// [`Lftj`] and [`crate::Ctj`]) as one driver on the calling thread, a
/// pooled run as one driver per worker, reused across that worker's
/// shards, and each term of a standing query.
///
/// It is generic over five axes, each monomorphizing away when unused:
///
/// * `T: Tally` — [`triejax_relation::Counting`] charges every simulated
///   word touch, [`triejax_relation::NoTally`] none.
/// * `P: PjrStore` — the partial-join-result cache.
///   [`crate::cache::NoPjr`] is LFTJ: its `CACHING = false` compiles the
///   spec lookup, the recording and the publish away.
///   [`crate::cache::LocalPjr`] is a one-range CTJ run's store, a
///   [`crate::cache::SharedPjrHandle`] one pooled CTJ worker's view of the
///   cache all workers share.
/// * `B: Budget` — [`triejax_exec::NoBudget`] compiles every cancellation check away;
///   a [`triejax_exec::BudgetHandle`] polls for deadline/token trips at
///   the task's top level and charges the row quota at every emission. A
///   governed driver stops early, still flushing what the emitter
///   buffered, so the delivered rows stay an exact stream prefix.
/// * the [`SplitSpawn`] controller of a run — [`NoSplit`] for runs to the
///   end, a [`BatchStop`] that ends each batch of a [`Resumable`] run.
/// * `Cur: JoinCursor` — the cursors its [`CursorSet`] hands out: plain
///   [`TrieCursor`]s over frozen relations (the default) or
///   [`triejax_relation::MergeCursor`]s over mutated ones
///   (`base ∪ delta − tombstones`).
///
/// The driver restricts one level — `range_depth` — to the value range
/// `[range_min, range_sup)`: the parallel engines give each shard a
/// contiguous slice of the first join variable's domain (`range_depth`
/// 0), and a resumed tail is a slice of an inner level under a bound
/// prefix ([`Driver::run_tail`]), which keeps every shard's emission
/// order identical to the sequential engine's. Entering that level clamps
/// every participating cursor to the range ([`JoinCursor::open_range`]),
/// so the leapfrog never probes outside the shard.
///
/// Cache entries are keyed by `(depth, key bindings)` only — never by the
/// range or the executing worker — which is sound because a valid
/// [`triejax_query::CacheSpec`] guarantees the memoized match list
/// depends on nothing but the key bindings. Partial-join results
/// therefore replay across ranges, across a pooled driver's shards and,
/// with the shared store, across workers. A budget-stopped level never
/// publishes its partially recorded entry.
pub(crate) struct Driver<'a, T: Tally, P: PjrStore, B: Budget, Cur: JoinCursor = TrieCursor<'a>> {
    plan: &'a CompiledQuery,
    cursors: Vec<Cur>,
    binding: Vec<Value>,
    emitter: BatchEmitter,
    /// Per depth: participating cursor indices, preallocated once so the
    /// recursive driver never allocates per node.
    members_at: Vec<Vec<usize>>,
    cache: P,
    /// Level the `[range_min, range_sup)` restriction applies to: 0 for
    /// shards (and sequential runs, where the range is unbounded), the
    /// tail's level for a resumed tail.
    range_depth: usize,
    range_min: Value,
    range_sup: Option<Value>,
    /// Whether the last level tries [`BitLeapfrog`] first: an untallied
    /// run whose last variable joins 2..=[`SLICE_MEMBERS`] cursors that all
    /// keep leaf bitmaps (a single member keeps the plain slice walk).
    /// Decided once here, so runs without bitmaps never ask for them.
    bit_leaf: bool,
    /// Levels on the current path replaying or recording a PJR entry. A
    /// stopping controller may stop the run only while none is: a cached
    /// level cannot resume mid-entry. Kept only for stopping controllers.
    pinned: usize,
    budget: B,
    pub(crate) stats: EngineStats<T>,
}

impl<'a, T: Tally, P: PjrStore, B: Budget, Cur: JoinCursor> Driver<'a, T, P, B, Cur> {
    /// A driver over `set`'s cursors, caching in `cache`, governed by
    /// `budget` (see the type docs).
    pub(crate) fn new<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        cache: P,
        budget: B,
    ) -> Result<Self, JoinError> {
        let cursors: Vec<Cur> = (0..plan.atom_plans().len())
            .map(|i| set.cursor(i))
            .collect();
        let n = plan.arity();
        let members_at: Vec<Vec<usize>> = (0..n)
            .map(|d| plan.atoms_at(d).iter().map(|&(a, _)| a).collect())
            .collect();
        let bit_leaf = !T::ENABLED
            && members_at.last().is_some_and(|m| {
                (2..=SLICE_MEMBERS).contains(&m.len())
                    && m.iter().all(|&a| cursors[a].has_leaf_bits())
            });
        Ok(Driver {
            plan,
            cursors,
            binding: vec![0; n],
            emitter: BatchEmitter::new(head_order(plan)?),
            members_at,
            cache,
            range_depth: 0,
            range_min: 0,
            range_sup: None,
            bit_leaf,
            pinned: 0,
            budget,
            stats: EngineStats::default(),
        })
    }

    /// The parts a [`Resumable`] run keeps between batches.
    fn into_parts(self) -> (P, B, EngineStats<T>) {
        (self.cache, self.budget, self.stats)
    }

    /// Emits tuples straight through to the sink instead of batching —
    /// for sinks that batch themselves (the parallel engines' per-shard
    /// [`crate::ShardSink`]s).
    pub(crate) fn emit_passthrough(&mut self) {
        self.emitter.passthrough();
    }

    /// Runs the full backtracking join and returns its stats.
    pub(crate) fn run(mut self, sink: &mut dyn ResultSink) -> EngineStats<T> {
        self.run_range(0, None, sink);
        self.stats
    }

    /// Runs one root-range shard `[root_min, root_sup)` (`None` =
    /// unbounded above), keeping the cache and the accumulated stats
    /// across calls.
    pub(crate) fn run_range(
        &mut self,
        root_min: Value,
        root_sup: Option<Value>,
        sink: &mut dyn ResultSink,
    ) {
        self.run_tail(0, &[], root_min, root_sup, sink, &mut NoSplit);
    }

    /// Runs one tail: binds `prefix` (the values matched above level
    /// `depth` when the tail was handed off), then joins level `depth`
    /// restricted to `[min, sup)` and everything below it, asking `ctl`
    /// whether to stop at every match point. A root shard is the tail
    /// with an empty prefix.
    ///
    /// The run that handed the tail off held exactly these prefix values
    /// open at every participating cursor, so each rebind seek lands on
    /// its value by construction. The prefix levels are unwound before
    /// returning so a pooled driver can run further shards.
    pub(crate) fn run_tail<C: SplitSpawn>(
        &mut self,
        depth: usize,
        prefix: &[Value],
        min: Value,
        sup: Option<Value>,
        sink: &mut dyn ResultSink,
        ctl: &mut C,
    ) {
        assert_eq!(
            prefix.len(),
            depth,
            "a tail's prefix binds every level above it"
        );
        self.range_depth = depth;
        self.range_min = min;
        self.range_sup = sup;
        for (q, &v) in prefix.iter().enumerate() {
            for &(a, lvl) in self.plan.atoms_at(q) {
                if lvl > 0 {
                    self.stats.expand_ops += 1;
                }
                let opened = self.cursors[a].open(&mut self.stats.access);
                assert!(opened, "a tail's prefix level must be non-empty");
                let found = self.cursors[a].seek(v, &mut self.stats.access);
                assert!(
                    found && self.cursors[a].key() == v,
                    "a tail's prefix value must exist in every participant"
                );
            }
            self.binding[q] = v;
        }
        self.level(depth, sink, ctl);
        self.emitter.flush(sink);
        for q in (0..depth).rev() {
            for &(a, _) in self.plan.atoms_at(q) {
                self.cursors[a].up();
            }
        }
        self.range_depth = 0;
        self.range_min = 0;
        self.range_sup = None;
    }

    /// Emits the current binding; returns `false` when the budget refused
    /// the row (quota exhausted or run cancelled) and the driver must stop.
    fn emit_result(&mut self, sink: &mut dyn ResultSink) -> bool {
        if B::GOVERNED && !self.budget.charge_row() {
            return false;
        }
        self.emitter.push(&self.binding, sink);
        self.stats.results += 1;
        self.stats.access.record(
            AccessKind::ResultWrite,
            self.binding.len() as u64 * WORD_BYTES,
        );
        true
    }

    /// Whether a stopping controller ends the run at this match point.
    #[inline]
    fn stops_here<C: SplitSpawn>(&self, ctl: &C) -> bool {
        C::STOPS && self.pinned == 0 && ctl.batch_full(self.stats.results)
    }

    /// The upper bound of level `d`: the task's own at its ranged level,
    /// none below it.
    fn sup_at(&self, d: usize) -> Option<Value> {
        (d == self.range_depth).then_some(self.range_sup).flatten()
    }

    /// Stops the run at the match `v` of depth `d`, before visiting it:
    /// hands `ctl` every tail the task has left, root-most first — past the
    /// bound value at each level from the task's own down to `d - 1`, then
    /// from `v` on at `d`.
    fn stop<C: SplitSpawn>(&self, d: usize, v: Value, ctl: &mut C) {
        for q in self.range_depth..d {
            let sup = self.sup_at(q);
            let next = self.binding[q].checked_add(1);
            if let Some(min) = next.filter(|&m| sup.is_none_or(|s| m < s)) {
                ctl.handoff(q, &self.binding[..q], min, sup);
            }
        }
        ctl.handoff(d, &self.binding[..d], v, self.sup_at(d));
    }

    /// Returns `false` when the budget or a stopping controller stopped
    /// the run at this level or below; cursors are unwound normally either
    /// way.
    fn level<C: SplitSpawn>(&mut self, d: usize, sink: &mut dyn ResultSink, ctl: &mut C) -> bool {
        let mut record_key = None;
        let spec = if P::CACHING {
            self.plan.cache_spec_at(d)
        } else {
            None
        };
        if let Some(spec) = spec {
            let key: Vec<Value> = spec
                .key_depths()
                .iter()
                .map(|&kd| self.binding[kd])
                .collect();
            // Cache lookup: hash probe over the key words. The store
            // accounts the hit/miss and, on a miss, hands the key back
            // for the publish once the level completes.
            self.stats
                .access
                .record(AccessKind::Intermediate, key.len() as u64 * WORD_BYTES);
            match self.cache.lookup(d, key, &mut self.stats) {
                Looked::Hit(entry) => {
                    self.pinned += usize::from(C::STOPS);
                    let live = self.replay(d, &entry, sink, ctl);
                    self.pinned -= usize::from(C::STOPS);
                    return live;
                }
                Looked::Miss(key, token) => record_key = Some((key, token)),
            }
        }
        self.compute(d, record_key, sink, ctl)
    }

    /// Cache hit: iterate the stored `(value, index)` list, re-opening each
    /// participating cursor directly at the stored index (paper Fig. 3,
    /// step 5: "read next z from cache").
    fn replay<C: SplitSpawn>(
        &mut self,
        d: usize,
        entry: &[(Value, Vec<u32>)],
        sink: &mut dyn ResultSink,
        ctl: &mut C,
    ) -> bool {
        let last = d + 1 == self.plan.arity();
        let parts = self.plan.atoms_at(d);
        for (v, positions) in entry {
            self.stats.access.record(
                AccessKind::Intermediate,
                (1 + positions.len()) as u64 * WORD_BYTES,
            );
            self.binding[d] = *v;
            if last {
                if !self.emit_result(sink) {
                    return false;
                }
            } else {
                for (i, &(a, _)) in parts.iter().enumerate() {
                    self.cursors[a].reopen_at(positions[i], *v, &mut self.stats.access);
                }
                let live = self.level(d + 1, sink, ctl);
                for &(a, _) in parts {
                    self.cursors[a].up();
                }
                if !live {
                    return false;
                }
            }
        }
        true
    }

    /// Runs level `d` on a leaf kernel when it binds the last variable
    /// below the root: a [`SliceLeapfrog`] over the open cursors' sibling
    /// slices, recording each match into `pending` and emitting its row.
    /// The kernel is instantiated for the level's member count, one
    /// dispatch per visit, up to [`SLICE_MEMBERS`]. `None` (nothing done)
    /// for any other level, more members, or members without a slice
    /// form; else whether the level ran to its end (the budget or a stop
    /// may cut it short).
    ///
    /// A level that records nothing runs as a [`BitLeapfrog`] instead when
    /// [`Self::bit_leaf`] allows it and every member hands out a bitmap:
    /// the same rows in the same order, as word ANDs. A recording level
    /// keeps the sorted kernel, whose positions the cache entry stores.
    fn leaf_level<C: SplitSpawn>(
        &mut self,
        d: usize,
        members: &[usize],
        pending: &mut Option<Recording>,
        sink: &mut dyn ResultSink,
        ctl: &mut C,
    ) -> Option<bool> {
        // A one-level plan's root stays on the cursor loop, which polls
        // the budget at the task's top level.
        if d + 1 != self.plan.arity() || d == 0 {
            return None;
        }
        // Out of `self` so the slices can outlive the `&mut self` emits.
        let cursors = std::mem::take(&mut self.cursors);
        // One arm per `K` in `1..=SLICE_MEMBERS`.
        let live = match members.len() {
            1 => self.leaf_kernel::<1, C>(&cursors, d, members, pending, sink, ctl),
            2 => self.leaf_kernel::<2, C>(&cursors, d, members, pending, sink, ctl),
            3 => self.leaf_kernel::<3, C>(&cursors, d, members, pending, sink, ctl),
            4 => self.leaf_kernel::<4, C>(&cursors, d, members, pending, sink, ctl),
            _ => None,
        };
        self.cursors = cursors;
        live
    }

    /// [`leaf_level`](Self::leaf_level) over exactly `K` members.
    fn leaf_kernel<const K: usize, C: SplitSpawn>(
        &mut self,
        cursors: &[Cur],
        d: usize,
        members: &[usize],
        pending: &mut Option<Recording>,
        sink: &mut dyn ResultSink,
        ctl: &mut C,
    ) -> Option<bool> {
        // `bit_leaf` already excludes tallied runs and single members; the
        // constant half keeps the bitmap kernel out of those instances.
        let recording = P::CACHING && pending.is_some();
        let bitmap = if !T::ENABLED && K >= 2 && self.bit_leaf && !recording {
            BitLeapfrog::<K>::over(cursors, members)
        } else {
            None
        };
        if let Some(mut lf) = bitmap {
            let mut m = lf.search(&mut self.stats);
            while let Some(v) = m {
                if self.stops_here(ctl) {
                    self.stop(d, v, ctl);
                    return Some(false);
                }
                self.binding[d] = v;
                if !self.emit_result(sink) {
                    return Some(false);
                }
                m = lf.next(&mut self.stats);
            }
            return Some(true);
        }
        let mut lf = SliceLeapfrog::<K>::over(cursors, members)?;
        let mut m = lf.search(&mut self.stats);
        while let Some(v) = m {
            if self.stops_here(ctl) {
                self.stop(d, v, ctl);
                return Some(false);
            }
            self.binding[d] = v;
            if P::CACHING {
                if let Some(p) = pending.as_mut() {
                    p.push((v, lf.cache_positions(cursors, members)));
                }
            }
            if !self.emit_result(sink) {
                return Some(false);
            }
            m = lf.next(&mut self.stats);
        }
        Some(true)
    }

    /// Leapfrog execution at depth `d`, recording the matches for
    /// insertion into the cache once the level completes when the lookup
    /// handed back a `record_key`.
    fn compute<C: SplitSpawn>(
        &mut self,
        d: usize,
        record_key: Option<(Vec<Value>, u64)>,
        sink: &mut dyn ResultSink,
        ctl: &mut C,
    ) -> bool {
        // Open level d on every participant (clamped to the task's range
        // at its ranged depth, so shards never leapfrog outside their
        // slice).
        let parts = self.plan.atoms_at(d);
        let ranged = d == self.range_depth && (self.range_min > 0 || self.range_sup.is_some());
        for (i, &(a, lvl)) in parts.iter().enumerate() {
            if lvl > 0 {
                self.stats.expand_ops += 1;
            }
            let opened = if ranged {
                self.cursors[a].open_range(self.range_min, self.range_sup, &mut self.stats.access)
            } else {
                self.cursors[a].open(&mut self.stats.access)
            };
            if !opened {
                for &(b, _) in &parts[..i] {
                    self.cursors[b].up();
                }
                return true;
            }
        }

        // A recorded level must observe every one of its matches — a stop
        // inside it would publish a truncated entry whose replays silently
        // drop rows — so it pins the run against stops.
        let pin = C::STOPS && record_key.is_some();
        self.pinned += usize::from(pin);
        let mut pending: Option<Recording> = record_key.as_ref().map(|_| Vec::new());
        // Recycle this depth's member vector: the recursion must not
        // allocate per visited node.
        let mut lf = Leapfrog::new(std::mem::take(&mut self.members_at[d]));
        // A last level that ran on sibling slices skips the cursor loop.
        let sliced = self.leaf_level(d, lf.members(), &mut pending, sink, ctl);
        let mut live = sliced.unwrap_or(true);
        let mut m = match sliced {
            Some(_) => None,
            None => lf.search(&mut self.cursors, &mut self.stats),
        };
        while let Some(v) = m {
            self.binding[d] = v;
            if d == self.range_depth && B::GOVERNED && self.budget.poll().is_some() {
                // Polling at the task's top level before the (possibly
                // expensive) subtree visit bounds the overshoot past a
                // deadline by one value there.
                live = false;
                break;
            }
            if self.stops_here(ctl) {
                self.stop(d, v, ctl);
                live = false;
                break;
            }
            if P::CACHING {
                if let Some(p) = pending.as_mut() {
                    let positions = parts.iter().map(|&(a, _)| self.cursors[a].cache_pos());
                    p.push((v, positions.collect()));
                }
            }
            let descended = if d + 1 == self.plan.arity() {
                self.emit_result(sink)
            } else {
                self.level(d + 1, sink, ctl)
            };
            if !descended {
                live = false;
                break;
            }
            m = lf.next(&mut self.cursors, &mut self.stats);
        }
        self.members_at[d] = lf.into_members();
        for &(a, _) in parts {
            self.cursors[a].up();
        }
        self.pinned -= usize::from(pin);

        // The level is fully analyzed: commit the entry (paper §3.5). The
        // store applies its capacity policy (drop / evict / lose an
        // insert race) and the matching accounting. A budget-stopped
        // level never publishes: its match list is truncated and a replay
        // of it would silently drop rows from an un-cancelled rerun.
        if P::CACHING && live {
            if let (Some((key, token)), Some(p)) = (record_key, pending) {
                self.cache.publish(d, key, token, p, &mut self.stats);
            }
        }
        live
    }
}

/// One unvisited tail of a trie level: `[min, sup)` at `depth`, under the
/// values `prefix` binds at the levels above (a root range when `depth`
/// is 0).
#[derive(Debug)]
struct Tail {
    depth: usize,
    prefix: Vec<Value>,
    min: Value,
    sup: Option<Value>,
}

/// The controller of one batch of a [`Resumable`] run: stops the driver
/// at its first stop point once `stop_at` rows are out,
/// and keeps the run's unvisited tails as a stack, the next to resume on
/// top.
struct BatchStop {
    stop_at: u64,
    tails: Vec<Tail>,
}

impl SplitSpawn for BatchStop {
    const STOPS: bool = true;

    fn batch_full(&self, results: u64) -> bool {
        results >= self.stop_at
    }

    /// A stop hands its tails over root-most first, so the deepest — the
    /// siblings the run stopped among — ends up on top.
    fn handoff(&mut self, depth: usize, prefix: &[Value], min: Value, sup: Option<Value>) {
        self.tails.push(Tail {
            depth,
            prefix: prefix.to_vec(),
            min,
            sup,
        });
    }
}

/// The sink of a driver whose emitter collects: no row ever reaches it.
struct NoSink;

impl ResultSink for NoSink {
    fn push(&mut self, _tuple: &[Value]) {
        unreachable!("a collecting emitter keeps its rows")
    }
}

/// A trie join run a batch of rows at a time on the caller's thread: the
/// engine of a one-worker [`crate::ResultStream`].
///
/// It owns what outlives a batch — the plan, the cursor set, the driver's
/// owned parts (PJR store, budget, accumulated stats) — and the stack of
/// unvisited tails. Each [`step`](Self::step) builds a [`Driver`] over the
/// set and resumes tails deepest-first through [`Driver::run_tail`]
/// until the batch is full. The driver then stops at its next match
/// point at any depth, recording one tail per open level. A stop never
/// fires while a level on the current path replays or records a PJR
/// entry, because a cached level cannot resume mid-entry; there the batch
/// overshoots to the first point past it. The stack's depths increase
/// towards the top, so it holds at most the seeded root ranges plus one
/// tail per level.
pub(crate) struct Resumable<T: Tally, S, P, B> {
    plan: CompiledQuery,
    set: S,
    /// The driver's owned parts between batches (`None` only while one
    /// runs).
    parts: Option<(P, B, EngineStats<T>)>,
    tails: Vec<Tail>,
}

impl<T: Tally, S, P: PjrStore, B: Budget> Resumable<T, S, P, B>
where
    S: for<'s> CursorSet<'s>,
{
    /// A run of `plan` over `set` that visits the root `ranges` in order,
    /// adding to `stats`.
    ///
    /// # Errors
    ///
    /// [`JoinError::Plan`] for a plan the driver cannot emit.
    pub(crate) fn new(
        plan: CompiledQuery,
        set: S,
        ranges: &[(Value, Option<Value>)],
        stats: EngineStats<T>,
        cache: P,
        budget: B,
    ) -> Result<Self, JoinError> {
        head_slots(&plan)?;
        let tails = ranges
            .iter()
            .rev()
            .map(|&(min, sup)| Tail {
                depth: 0,
                prefix: Vec::new(),
                min,
                sup,
            })
            .collect();
        Ok(Resumable {
            plan,
            set,
            parts: Some((cache, budget, stats)),
            tails,
        })
    }

    /// Appends the next `rows` rows to `out` — more when the stop falls
    /// inside a cached level, fewer when the run ends or its budget stops
    /// it — and returns whether the run has rows left. The driver writes
    /// them straight into `out`.
    pub(crate) fn step(&mut self, rows: u64, out: &mut Vec<Value>) -> bool {
        let (cache, budget, stats) = self.parts.take().expect("a batch panicked");
        let mut driver = Driver::new(&self.plan, &self.set, cache, budget)
            .expect("emission plan validated when the run was created");
        driver.stats = stats;
        driver.emitter.collect(std::mem::take(out));
        let mut ctl = BatchStop {
            stop_at: driver.stats.results + rows,
            tails: std::mem::take(&mut self.tails),
        };
        while !ctl.batch_full(driver.stats.results) {
            let Some(t) = ctl.tails.pop() else {
                break;
            };
            driver.run_tail(t.depth, &t.prefix, t.min, t.sup, &mut NoSink, &mut ctl);
            if B::GOVERNED && driver.budget.poll().is_some() {
                // A tripped budget ends the run: nothing past the cut
                // resumes.
                ctl.tails.clear();
            }
        }
        *out = driver.emitter.take_rows();
        self.tails = ctl.tails;
        self.parts = Some(driver.into_parts());
        !self.tails.is_empty()
    }

    /// The run's accumulated stats.
    pub(crate) fn into_stats(self) -> EngineStats<T> {
        self.parts.expect("a batch panicked").2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::NoPjr;
    use crate::viewset::MergeSet;
    use crate::{Catalog, CollectSink, CountSink, DeltaMap, JoinEngine, TrieSet};
    use triejax_exec::NoBudget;
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
    fn lftj_driver<'a, B: Budget>(
        plan: &'a CompiledQuery,
        tries: &'a TrieSet,
        budget: B,
    ) -> Driver<'a, Counting, NoPjr, B> {
        Driver::new(plan, tries, NoPjr, budget).unwrap()
    }

    #[test]
    fn budgeted_driver_delivers_an_exact_row_limited_prefix() {
        use std::sync::Arc;
        use triejax_exec::{BudgetHandle, CancelReason, RunBudget};

        let c = catalog(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        lftj_driver(&plan, &tries, NoBudget).run(&mut full);
        assert!(full.tuples().len() > 2);

        let shared = Arc::new(RunBudget::new().with_row_limit(2));
        let mut capped = CollectSink::new();
        let stats =
            lftj_driver(&plan, &tries, BudgetHandle::driving(Arc::clone(&shared))).run(&mut capped);
        assert_eq!(capped.tuples(), &full.tuples()[..2]);
        assert_eq!(stats.results, 2);
        assert_eq!(shared.cancelled(), Some(CancelReason::RowLimit));
    }

    #[test]
    fn cancelled_token_stops_a_budgeted_driver_before_any_row() {
        use std::sync::Arc;
        use triejax_exec::{BudgetHandle, CancelToken, RunBudget};

        let c = catalog(&[(0, 1), (1, 2), (2, 3)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let token = CancelToken::new();
        token.cancel();
        let shared = Arc::new(RunBudget::new().with_cancel_token(token));
        let mut sink = CollectSink::new();
        let stats =
            lftj_driver(&plan, &tries, BudgetHandle::driving(Arc::clone(&shared))).run(&mut sink);
        assert!(sink.tuples().is_empty(), "poll at the first root advance");
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn root_range_driver_partitions_the_result_stream() {
        let c = catalog(&[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        lftj_driver(&plan, &tries, NoBudget).run(&mut full);

        // Two shards on one reused driver, as a pool worker runs them.
        let mut driver = lftj_driver(&plan, &tries, NoBudget);
        let mut lo = CollectSink::new();
        driver.run_range(0, Some(3), &mut lo);
        let mut hi = CollectSink::new();
        driver.run_range(3, None, &mut hi);

        let mut stitched = lo.tuples().to_vec();
        stitched.extend_from_slice(hi.tuples());
        assert_eq!(stitched, full.tuples());
    }

    /// What a [`Resumable`] run stopped every `k` rows delivered: the rows,
    /// the rows of each batch, and the depth each batch stopped at.
    struct Stepped {
        rows: Vec<Vec<Value>>,
        batches: Vec<usize>,
        stops: Vec<usize>,
        results: u64,
    }

    fn stepped<T: Tally, S, P: PjrStore>(plan: &CompiledQuery, set: S, cache: P, k: u64) -> Stepped
    where
        S: for<'s> CursorSet<'s>,
    {
        let stats = EngineStats::default();
        let mut run =
            Resumable::<T, _, _, _>::new(plan.clone(), set, &[(0, None)], stats, cache, NoBudget)
                .unwrap();
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
            stops.push(run.tails.last().expect("a stopped run has tails").depth);
            let depths: Vec<usize> = run.tails.iter().map(|t| t.depth).collect();
            assert!(depths.windows(2).all(|w| w[0] < w[1]), "{depths:?}");
        }
        Stepped {
            rows: sink.tuples().to_vec(),
            batches,
            stops,
            results: run.into_stats().results,
        }
    }

    /// The sequential order of `plan` over `set`: one unstopped driver.
    fn sequential<'a, S: CursorSet<'a>>(plan: &'a CompiledQuery, set: &'a S) -> Vec<Vec<Value>> {
        let mut sink = CollectSink::new();
        Driver::<NoTally, _, _, _>::new(plan, set, NoPjr, NoBudget)
            .unwrap()
            .run(&mut sink);
        sink.tuples().to_vec()
    }

    /// A driver stopped after every k rows and resumed through its tails
    /// reproduces the sequential order, on all five paper patterns, LFTJ
    /// and CTJ, frozen tries and views with a pending delta, with and
    /// without leaf bitmaps. LFTJ batches are exactly k rows and stop at
    /// every depth; CTJ batches may overshoot, never undershoot. (Beyond
    /// k = 1..=7, one k ends its first batch exactly at a root boundary.)
    #[test]
    fn a_driver_stopped_every_k_rows_resumes_in_sequential_order() {
        use crate::cache::LocalPjr;
        use triejax_query::patterns::Pattern;
        use triejax_relation::RelationDelta;

        let edges: Vec<(u32, u32)> = (0..9u32)
            .flat_map(|a| (0..9u32).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && (a * 5 + b * 3) % 4 != 0)
            .collect();
        let spread: Vec<_> = edges.iter().map(|&(a, b)| (a * 1000, b * 1000)).collect();
        // A tiny store drops most entries at publish: a recording level
        // whose entry is dropped must still not be stopped in.
        let ctj = [None, Some(2)];
        let (mut bit_leaf_stops, mut overshoots) = (0, 0);
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
                let bit_leaf = Driver::<NoTally, _, _, _>::new(&plan, &tries, NoPjr, NoBudget)
                    .unwrap()
                    .bit_leaf;
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
                        (
                            stepped::<NoTally, _, _>(&plan, build(), NoPjr, k),
                            &frozen_order,
                        ),
                        (
                            stepped::<Counting, _, _>(&plan, build(), NoPjr, k),
                            &frozen_order,
                        ),
                        (
                            stepped::<NoTally, _, _>(&plan, view(), NoPjr, k),
                            &merged_order,
                        ),
                    ];
                    for (i, (run, want)) in runs.iter().enumerate() {
                        assert_eq!(&run.rows, *want, "{context} lftj run {i}");
                        assert_eq!(run.results, want.len() as u64);
                        let (last, full) = run.batches.split_last().unwrap();
                        assert!(full.iter().all(|&b| b as u64 == k), "{context}: {full:?}");
                        assert!(*last as u64 <= k);
                        lftj_stops.extend(run.stops.iter().copied());
                    }
                    if bit_leaf {
                        bit_leaf_stops += runs[0].0.stops.len();
                    }
                    for capacity in ctj {
                        let store = || LocalPjr::new(capacity);
                        let runs = [
                            (
                                stepped::<NoTally, _, _>(&plan, build(), store(), k),
                                &frozen_order,
                            ),
                            (
                                stepped::<Counting, _, _>(&plan, view(), store(), k),
                                &merged_order,
                            ),
                        ];
                        for (run, want) in runs {
                            assert_eq!(&run.rows, want, "{context} ctj {capacity:?}");
                            let (_, full) = run.batches.split_last().unwrap();
                            assert!(full.iter().all(|&b| b as u64 >= k), "{context}");
                            overshoots += full.iter().filter(|&&b| b as u64 > k).count();
                        }
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
            overshoots > 0,
            "some CTJ batches ran on through a cached level"
        );
    }

    /// A budget that trips ends a resumable run at once: a zero deadline or
    /// a pre-fired token before any row, a row limit after exactly its rows
    /// — with tails still pending, none is resumed.
    #[test]
    fn a_tripped_budget_ends_a_resumable_run() {
        use std::sync::Arc;
        use std::time::Duration;
        use triejax_exec::{BudgetHandle, CancelReason, CancelToken, RunBudget};

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
            let handle = BudgetHandle::driving(Arc::clone(&shared));
            let stats = EngineStats::default();
            let mut run = Resumable::<NoTally, _, _, _>::new(
                plan.clone(),
                set,
                &[(0, None)],
                stats,
                NoPjr,
                handle,
            )
            .unwrap();
            let (mut sink, mut batch) = (CollectSink::new(), Vec::new());
            // One row per batch: the limit trips while tails are pending.
            while run.step(1, &mut batch) {
                sink.push_rows(&batch, 3);
                batch.clear();
            }
            sink.push_rows(&batch, 3);
            assert_eq!(sink.tuples(), &full[..rows], "{reason:?}");
            assert_eq!(shared.cancelled(), Some(reason));
            assert_eq!(run.into_stats().results, rows as u64);
        }
    }
}
