use triejax_exec::{Budget, NoBudget};
use triejax_query::CompiledQuery;
use triejax_relation::{AccessKind, Counting, JoinCursor, Tally, TrieCursor, Value, WORD_BYTES};

use crate::engine::head_slots;
use crate::leapfrog::SliceLeapfrog;
use crate::shard::{try_split_at, NoSplit, SplitSpawn};
use crate::sink::BatchEmitter;
use crate::viewset::{plan_touches_delta, CursorSet, MergeSet};
use crate::{Catalog, DeltaMap, EngineStats, JoinEngine, JoinError, Leapfrog, ResultSink, TrieSet};

/// LeapFrog TrieJoin (Veldhuizen, ICDT'14): the worst-case-optimal join
/// that backtracks over trie indexes, materializing *no* intermediate
/// results at the cost of recomputing recurring partial joins (paper §2.2).
///
/// [`JoinEngine::execute`] runs the instrumented kernel (every memory
/// touch counted, as the paper figures require); [`Lftj::run_tallied`]
/// exposes the same kernel generic over a [`Tally`], so
/// `run_tallied::<NoTally>` runs with all instrumentation compiled away.
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
#[derive(Debug, Clone, Copy, Default)]
pub struct Lftj {
    _private: (),
}

impl Lftj {
    /// Creates the engine; identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the query with an explicit [`Tally`] choice.
    ///
    /// `run_tallied::<Counting>` is what [`JoinEngine::execute`] calls;
    /// `run_tallied::<triejax_relation::NoTally>` is the zero-overhead
    /// fast path (identical results, no access accounting).
    ///
    /// # Errors
    ///
    /// Returns a [`JoinError`] when the catalog is missing a relation or a
    /// relation's arity mismatches its atom.
    pub fn run_tallied<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        let tries = TrieSet::build(plan, catalog)?;
        let mut driver = Driver::new(plan, &tries)?;
        driver.run(sink);
        Ok(driver.stats)
    }

    /// Runs the query over `catalog` with the pending mutations in
    /// `deltas` folded in: every atom over a mutated relation walks a
    /// [`triejax_relation::MergeCursor`] presenting
    /// `base ∪ inserts − tombstones`, without rebuilding the base trie.
    /// When no atom of the plan touches a non-empty delta this is exactly
    /// [`run_tallied`](Self::run_tallied) — the frozen fast path,
    /// monomorphized to plain trie cursors.
    ///
    /// # Errors
    ///
    /// As [`run_tallied`](Self::run_tallied), plus an arity mismatch
    /// between a delta and its atom.
    pub fn run_tallied_with<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: &DeltaMap,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        if !plan_touches_delta(plan, deltas) {
            return self.run_tallied(plan, catalog, sink);
        }
        let set = MergeSet::build(plan, catalog, deltas)?;
        let mut driver = Driver::<T, NoBudget, _>::new(plan, &set)?;
        driver.run(sink);
        Ok(driver.stats)
    }
}

impl JoinEngine for Lftj {
    fn name(&self) -> &'static str {
        "lftj"
    }

    fn execute(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats, JoinError> {
        self.run_tallied::<Counting>(plan, catalog, sink)
    }
}

/// Shared recursive backtracking driver (also the skeleton CTJ extends and
/// the per-shard worker of the parallel engine).
///
/// The driver optionally restricts one level — `range_depth` — to the
/// value range `[range_min, range_sup)`: the parallel engine gives each
/// seeded shard a contiguous slice of the first join variable's domain
/// (`range_depth` 0), and a sub-root split donee a slice of an inner
/// level under a bound prefix ([`Driver::run_split_at`]), which keeps
/// every shard's emission order identical to the sequential engine's.
/// Shard entry clamps that level of every participating cursor to the
/// range ([`JoinCursor::open_range`]), so the leapfrog never probes
/// outside the shard.
///
/// The driver is additionally generic over a [`Budget`]: the default
/// [`NoBudget`] monomorphizes every cancellation check away, while a
/// [`triejax_exec::BudgetHandle`] makes the root loop poll for
/// deadline/token trips and every emission charge the row quota. A
/// governed driver stops early — `run`/`run_split` still flush whatever
/// the emitter buffered, so the delivered rows stay an exact stream
/// prefix.
///
/// Finally, the driver is generic over the [`JoinCursor`] implementation
/// its [`CursorSet`] hands out: plain [`TrieCursor`]s for frozen
/// relations (the default, monomorphizing to the original code) or
/// [`triejax_relation::MergeCursor`]s when a query runs over mutated
/// relations (`base ∪ delta − tombstones`).
pub(crate) struct Driver<'a, T: Tally, B: Budget = NoBudget, Cur: JoinCursor = TrieCursor<'a>> {
    plan: &'a CompiledQuery,
    cursors: Vec<Cur>,
    binding: Vec<Value>,
    emit: Vec<Value>,
    slots: Vec<usize>,
    emitter: BatchEmitter,
    /// Per depth: participating cursor indices, preallocated once so the
    /// recursive driver never allocates per node.
    members_at: Vec<Vec<usize>>,
    /// Level the `[range_min, range_sup)` restriction applies to: 0 for
    /// seeded shards (and sequential runs, where the range is unbounded),
    /// the donated level for sub-root split donees.
    range_depth: usize,
    range_min: Value,
    range_sup: Option<Value>,
    /// Per level: the upper bound committed splits have clamped it to
    /// (`None` until a split donates a tail there). Reset on level entry.
    sup_at: Vec<Option<Value>>,
    budget: B,
    pub stats: EngineStats<T>,
}

impl<'a, T: Tally, Cur: JoinCursor> Driver<'a, T, NoBudget, Cur> {
    pub(crate) fn new<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
    ) -> Result<Self, JoinError> {
        Self::with_root_range(plan, set, 0, None)
    }

    /// Driver restricted to root-variable values in `[root_min, root_sup)`
    /// (`None` = unbounded above).
    pub(crate) fn with_root_range<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        root_min: Value,
        root_sup: Option<Value>,
    ) -> Result<Self, JoinError> {
        Self::budgeted(plan, set, root_min, root_sup, NoBudget)
    }
}

impl<'a, T: Tally, B: Budget, Cur: JoinCursor> Driver<'a, T, B, Cur> {
    /// Root-ranged driver governed by `budget` (see the type docs).
    pub(crate) fn budgeted<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        root_min: Value,
        root_sup: Option<Value>,
        budget: B,
    ) -> Result<Self, JoinError> {
        let cursors = (0..plan.atom_plans().len())
            .map(|i| set.cursor(i))
            .collect();
        let n = plan.arity();
        let members_at = (0..n)
            .map(|d| plan.atoms_at(d).iter().map(|&(a, _)| a).collect())
            .collect();
        Ok(Driver {
            plan,
            cursors,
            binding: vec![0; n],
            emit: vec![0; n],
            slots: head_slots(plan)?,
            emitter: BatchEmitter::new(n),
            members_at,
            range_depth: 0,
            range_min: root_min,
            range_sup: root_sup,
            sup_at: vec![None; n],
            budget,
            stats: EngineStats::default(),
        })
    }

    /// Emits tuples straight through to the sink instead of batching —
    /// for sinks that batch themselves (the parallel engines' per-shard
    /// [`crate::ShardSink`]s).
    pub(crate) fn emit_passthrough(&mut self) {
        self.emitter.passthrough();
    }

    /// Runs the full backtracking join.
    pub(crate) fn run(&mut self, sink: &mut dyn ResultSink) {
        self.run_split(sink, &mut NoSplit);
    }

    /// Runs the join with a split controller polled at every match point
    /// up to the controller's depth cap: when it reports an idle sibling
    /// worker, the unvisited tail of the current level is carved off into
    /// a new task (see [`try_split_at`]). Sequential callers pass
    /// [`NoSplit`], which monomorphizes the polling away entirely.
    ///
    /// A governed driver (see [`Driver::budgeted`]) may stop early; the
    /// rows already allowed through are flushed either way, so the sink
    /// always holds an exact prefix of the driver's emission order.
    pub(crate) fn run_split<C: SplitSpawn>(&mut self, sink: &mut dyn ResultSink, ctl: &mut C) {
        self.level(0, sink, ctl);
        self.emitter.flush(sink);
    }

    /// Runs a sub-root split task: binds the donated `prefix` (the values
    /// the donor had matched above the split level), then joins the
    /// donated level restricted to `[min, sup)` and everything below it.
    ///
    /// The donor held exactly these prefix values open at every
    /// participating cursor when it handed the tail off, so each rebind
    /// seek lands on its value by construction. The prefix levels are
    /// unwound before returning so a pooled driver can run further tasks.
    pub(crate) fn run_split_at<C: SplitSpawn>(
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
            "split prefix binds every level above the donated one"
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
                assert!(opened, "split prefix level must be non-empty");
                let found = self.cursors[a].seek(v, &mut self.stats.access);
                assert!(
                    found && self.cursors[a].key() == v,
                    "split prefix value must exist in every participant"
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

    /// Opens level `d` on every participating cursor (clamped to
    /// `[range_min, range_sup)` at the ranged depth); on an empty open
    /// closes what was opened and returns `false`.
    fn open_level(&mut self, d: usize) -> bool {
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
                return false;
            }
        }
        true
    }

    fn close_level(&mut self, d: usize) {
        for &(a, _) in self.plan.atoms_at(d) {
            self.cursors[a].up();
        }
    }

    /// Emits the current binding; returns `false` when the budget refused
    /// the row (quota exhausted or run cancelled) and the driver must stop.
    fn emit_result(&mut self, sink: &mut dyn ResultSink) -> bool {
        if B::GOVERNED && !self.budget.charge_row() {
            return false;
        }
        for d in 0..self.binding.len() {
            self.emit[self.slots[d]] = self.binding[d];
        }
        self.emitter.push(&self.emit, sink);
        self.stats.results += 1;
        self.stats
            .access
            .record(AccessKind::ResultWrite, self.emit.len() as u64 * WORD_BYTES);
        true
    }

    /// Runs level `d` as a [`SliceLeapfrog`] over the open cursors'
    /// sibling slices, emitting a row per match, when it binds the last
    /// variable and lies below `split_cap` (so its tail is never donated).
    /// `None` (nothing done) otherwise or when the level has no slice
    /// form; else whether the budget let every row through.
    fn leaf_level(
        &mut self,
        d: usize,
        split_cap: usize,
        members: &[usize],
        sink: &mut dyn ResultSink,
    ) -> Option<bool> {
        if d + 1 != self.plan.arity() || d <= split_cap {
            return None;
        }
        // Out of `self` so the slices can outlive the `&mut self` emits.
        let cursors = std::mem::take(&mut self.cursors);
        let live = SliceLeapfrog::over(&cursors, members).map(|mut lf| {
            let mut m = lf.search(&mut self.stats);
            while let Some(v) = m {
                self.binding[d] = v;
                if !self.emit_result(sink) {
                    return false;
                }
                m = lf.next(&mut self.stats);
            }
            true
        });
        self.cursors = cursors;
        live
    }

    /// Returns `false` when the budget stopped the run at this level or
    /// below; cursors are unwound normally either way.
    fn level<C: SplitSpawn>(&mut self, d: usize, sink: &mut dyn ResultSink, ctl: &mut C) -> bool {
        // Entering a fresh subtree invalidates any split vetoes recorded
        // for this depth and below — they referred to sibling subtrees.
        ctl.level_entered(d);
        self.sup_at[d] = if d == self.range_depth {
            self.range_sup
        } else {
            None
        };
        if !self.open_level(d) {
            return true;
        }
        // Recycle this depth's member vector: the recursion must not
        // allocate per visited node. The ranged level needs no range
        // checks here — `open_level` already clamped the cursors.
        let mut lf = Leapfrog::new(std::mem::take(&mut self.members_at[d]));
        // A last level that ran on sibling slices skips the cursor loop.
        let sliced = self.leaf_level(d, ctl.depth_cap(), lf.members(), sink);
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
            if d <= ctl.depth_cap() {
                // Match-point split poll (paper §3.4 spawn-on-match): the
                // current value v stays with this shard; only values
                // beyond the boundary are handed off.
                let (prefix, _) = self.binding.split_at(d);
                try_split_at(
                    self.plan,
                    &mut self.cursors,
                    &mut self.sup_at[d],
                    d,
                    prefix,
                    ctl,
                    &mut self.stats,
                );
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
        self.close_level(d);
        // A split at this depth opened a continuation lane for the
        // donor's output *after* this subtree; adopt it now so that the
        // stream stays tuple-for-tuple sequential around the handoff.
        if let Some(lane) = ctl.take_switch(d) {
            sink.redirect_lane(lane);
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, CountSink};
    use triejax_query::patterns;
    use triejax_relation::{NoTally, Relation};

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
        let c = catalog(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 1), (0, 2), (1, 3)]);
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
            // Same discrete work, no access accounting.
            assert_eq!(cs.lub_ops, fs.lub_ops);
            assert_eq!(cs.match_ops, fs.match_ops);
            assert_eq!(cs.results, fs.results);
            assert!(cs.memory_accesses() > 0);
            assert_eq!(fs.memory_accesses(), 0);
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
        assert!(SliceLeapfrog::over(&cursors, &[0, 1, 2]).is_some());

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
        assert_eq!(stats, rebuilt_stats);
    }

    #[test]
    fn budgeted_driver_delivers_an_exact_row_limited_prefix() {
        use std::sync::Arc;
        use triejax_exec::{BudgetHandle, CancelReason, RunBudget};

        let c = catalog(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        Driver::<Counting>::new(&plan, &tries)
            .unwrap()
            .run(&mut full);
        assert!(full.tuples().len() > 2);

        let shared = Arc::new(RunBudget::new().with_row_limit(2));
        let mut capped = CollectSink::new();
        let mut driver = Driver::<Counting, BudgetHandle>::budgeted(
            &plan,
            &tries,
            0,
            None,
            BudgetHandle::driving(Arc::clone(&shared)),
        )
        .unwrap();
        driver.run(&mut capped);
        assert_eq!(capped.tuples(), &full.tuples()[..2]);
        assert_eq!(driver.stats.results, 2);
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
        let mut driver = Driver::<Counting, BudgetHandle>::budgeted(
            &plan,
            &tries,
            0,
            None,
            BudgetHandle::driving(Arc::clone(&shared)),
        )
        .unwrap();
        driver.run(&mut sink);
        assert!(sink.tuples().is_empty(), "poll at the first root advance");
        assert_eq!(driver.stats.results, 0);
    }

    #[test]
    fn root_range_driver_partitions_the_result_stream() {
        let c = catalog(&[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        let mut driver = Driver::<Counting>::new(&plan, &tries).unwrap();
        driver.run(&mut full);

        let mut lo = CollectSink::new();
        Driver::<Counting>::with_root_range(&plan, &tries, 0, Some(3))
            .unwrap()
            .run(&mut lo);
        let mut hi = CollectSink::new();
        Driver::<Counting>::with_root_range(&plan, &tries, 3, None)
            .unwrap()
            .run(&mut hi);

        let mut stitched = lo.tuples().to_vec();
        stitched.extend_from_slice(hi.tuples());
        assert_eq!(stitched, full.tuples());
    }
}
