use triejax_exec::{Budget, NoBudget};
use triejax_query::CompiledQuery;
use triejax_relation::{AccessKind, Counting, JoinCursor, Tally, TrieCursor, Value, WORD_BYTES};

use crate::cache::{LocalPjr, Looked, PjrStore};
use crate::engine::head_slots;
use crate::leapfrog::SliceLeapfrog;
use crate::shard::{try_split_at, NoSplit, SplitSpawn};
use crate::sink::BatchEmitter;
use crate::viewset::{plan_touches_delta, CursorSet, MergeSet};
use crate::{Catalog, DeltaMap, EngineStats, JoinEngine, JoinError, Leapfrog, ResultSink, TrieSet};

/// The match list of a cache entry while its level is being computed.
type Recording = Vec<(Value, Vec<u32>)>;

/// Configuration of the software partial-join-result cache.
///
/// Both limits default to unbounded, matching CTJ's use of "the available
/// system memory" (paper §2.2); the hardware PJR cache in `triejax` has its
/// own fixed SRAM geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CtjConfig {
    /// Maximum `(value, indexes)` pairs per cache entry; an entry exceeding
    /// this while being filled is discarded, mirroring the hardware
    /// insertion-buffer overflow rule (paper §3.5).
    pub entry_capacity: Option<usize>,
    /// Maximum number of live cache entries. For sequential [`Ctj`] this
    /// bounds the worker-local store, which *drops* further insertions;
    /// for [`crate::ParCtj`] it is the total capacity of the shared
    /// sharded cache, which *evicts* (FIFO per stripe) to stay within it.
    pub max_entries: Option<usize>,
    /// Cost-based adaptive cache-spec selection (default off, env default
    /// `TRIEJAX_CACHE_ADAPT` for the parallel engine). At plan time a
    /// spec whose estimated per-entry reuse
    /// ([`triejax_query::CompiledQuery::cache_reuse_estimate`]) is below
    /// 2 is dropped — every visit would build a fresh entry. At run time
    /// a surviving depth whose whole probation window of lookups never
    /// hit is demoted (see [`crate::EngineStats::cache_demotions`]).
    /// Either way the depth simply recomputes like plain LFTJ; results
    /// never change.
    pub adaptive: bool,
}

/// Cached TrieJoin (Kalinsky, Etsion, Kimelfeld — EDBT'17): LeapFrog
/// TrieJoin extended with a partial-join-result cache, the algorithm
/// TrieJax implements in hardware (paper Figure 4).
///
/// At every depth with a valid [`triejax_query::CacheSpec`], the engine
/// keys the list of matching `(value, index)` pairs by the bindings of the
/// spec's key depths. A later visit with the same key bindings replays the
/// list instead of recomputing the leapfrog intersection.
///
/// # Example
///
/// ```
/// use triejax_join::{Catalog, CountSink, Ctj, JoinEngine};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// // Two x-parents (0 and 3) share y=1, so the z-list of y=1 is cached
/// // once and replayed once.
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (3, 1), (1, 5), (1, 6)]));
/// let plan = CompiledQuery::compile(&patterns::path3())?;
/// let mut sink = CountSink::default();
/// let stats = Ctj::default().execute(&plan, &catalog, &mut sink)?;
/// assert_eq!(sink.count(), 4);
/// assert_eq!(stats.cache_hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctj {
    config: CtjConfig,
}

impl Ctj {
    /// Engine with unbounded cache; identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit cache configuration.
    pub fn with_config(config: CtjConfig) -> Self {
        Ctj { config }
    }

    /// The active configuration.
    pub fn config(&self) -> CtjConfig {
        self.config
    }

    /// Runs the query with an explicit [`Tally`] choice; see
    /// [`crate::Lftj::run_tallied`] for the counting/fast trade-off.
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
        let store = LocalPjr::with_adaptive(self.config, plan.arity());
        let mut driver = CtjDriver::with_store(plan, &tries, self.config, store)?;
        if self.config.adaptive {
            driver.set_cache_mask(plan_cache_mask(plan, catalog));
        }
        driver.run(sink);
        Ok(driver.stats)
    }

    /// Runs the query with the pending mutations in `deltas` folded in;
    /// see [`crate::Lftj::run_tallied_with`] for the merge semantics and
    /// the frozen fast path. Partial-join-result caching works unchanged
    /// on merged views: entries are keyed by bindings alone, and the
    /// merged relation is just another (virtual) relation instance.
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
        let store = LocalPjr::with_adaptive(self.config, plan.arity());
        let mut driver =
            CtjDriver::<T, LocalPjr, NoBudget, _>::with_store(plan, &set, self.config, store)?;
        if self.config.adaptive {
            driver.set_cache_mask(plan_cache_mask(plan, catalog));
        }
        driver.run(sink);
        Ok(driver.stats)
    }
}

/// Plan-time side of the adaptive cache policy: one flag per depth,
/// `false` where the spec's estimated per-entry reuse is provably below 2
/// — the product of the non-key prefix domains bounds how many visits
/// could ever share an entry, so an estimate of 1 means pure overhead.
/// Depths without a spec (and depths whose estimate is unknown) stay
/// enabled; the run-time demotion policy handles what the estimate
/// cannot see.
pub(crate) fn plan_cache_mask(plan: &CompiledQuery, catalog: &Catalog) -> Vec<bool> {
    let card = |name: &str| catalog.get(name).map(|r| r.len());
    (0..plan.arity())
        .map(|d| plan.cache_reuse_estimate(d, card).is_none_or(|r| r >= 2))
        .collect()
}

impl JoinEngine for Ctj {
    fn name(&self) -> &'static str {
        "ctj"
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

/// The CTJ backtracking driver, shared by the sequential [`Ctj`] engine
/// and the per-worker drivers of [`crate::ParCtj`], generic over the
/// [`PjrStore`] that holds (and accounts for) the partial-join-result
/// cache: sequential CTJ owns a [`LocalPjr`], while every `ParCtj` worker
/// drives a handle onto one [`crate::cache::SharedPjrCache`].
///
/// Cache entries are keyed by `(depth, key bindings)` only — never by the
/// root range or the executing worker — which is sound because a valid
/// [`triejax_query::CacheSpec`] guarantees the memoized match list depends
/// on nothing but the key bindings. Partial-join results therefore replay
/// *across root ranges* (and, with the shared store, across workers).
///
/// Like the LFTJ driver, the CTJ driver is generic over a [`Budget`]:
/// [`NoBudget`] (the default) compiles every governance check away, a
/// [`triejax_exec::BudgetHandle`] polls at root advances, charges rows at
/// emit/replay points, and charges every recorded cache-entry tuple
/// against the intermediate budget. A budget-stopped level never
/// publishes its partially recorded entry.
pub(crate) struct CtjDriver<
    'a,
    T: Tally,
    C: PjrStore = LocalPjr,
    B: Budget = NoBudget,
    Cur: JoinCursor = TrieCursor<'a>,
> {
    plan: &'a CompiledQuery,
    config: CtjConfig,
    cursors: Vec<Cur>,
    binding: Vec<Value>,
    emit: Vec<Value>,
    slots: Vec<usize>,
    emitter: BatchEmitter,
    /// Per depth: participating cursor indices, preallocated once so the
    /// recursive driver never allocates per node.
    members_at: Vec<Vec<usize>>,
    cache: C,
    /// Plan-time adaptive mask: `false` at depths whose cache spec was
    /// dropped by the cost model (all `true` when adaptation is off).
    cache_mask: Vec<bool>,
    /// Level the `[range_min, range_sup)` restriction applies to: 0 for
    /// seeded shards, the donated level for sub-root split donees.
    range_depth: usize,
    range_min: Value,
    range_sup: Option<Value>,
    /// Per level: the upper bound committed splits have clamped it to.
    sup_at: Vec<Option<Value>>,
    budget: B,
    pub(crate) stats: EngineStats<T>,
}

#[cfg(test)]
impl<'a, T: Tally, Cur: JoinCursor> CtjDriver<'a, T, LocalPjr, NoBudget, Cur> {
    /// Driver with a worker-local store (sequential CTJ semantics);
    /// test-only — the engines wire the adaptive store explicitly.
    pub(crate) fn new<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        config: CtjConfig,
    ) -> Result<Self, JoinError> {
        Self::with_store(plan, set, config, LocalPjr::new(config))
    }
}

impl<'a, T: Tally, C: PjrStore, Cur: JoinCursor> CtjDriver<'a, T, C, NoBudget, Cur> {
    /// Driver emitting into `cache` — any [`PjrStore`], in particular one
    /// worker's handle onto the shared sharded cache.
    pub(crate) fn with_store<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        config: CtjConfig,
        cache: C,
    ) -> Result<Self, JoinError> {
        Self::with_store_budget(plan, set, config, cache, NoBudget)
    }
}

impl<'a, T: Tally, C: PjrStore, B: Budget, Cur: JoinCursor> CtjDriver<'a, T, C, B, Cur> {
    /// Driver over an explicit store *and* budget (see the type docs).
    pub(crate) fn with_store_budget<S: CursorSet<'a, Cur = Cur>>(
        plan: &'a CompiledQuery,
        set: &'a S,
        config: CtjConfig,
        cache: C,
        budget: B,
    ) -> Result<Self, JoinError> {
        let cursors = (0..plan.atom_plans().len())
            .map(|i| set.cursor(i))
            .collect();
        let n = plan.arity();
        let members_at = (0..n)
            .map(|d| plan.atoms_at(d).iter().map(|&(a, _)| a).collect())
            .collect();
        Ok(CtjDriver {
            plan,
            config,
            cursors,
            binding: vec![0; n],
            emit: vec![0; n],
            slots: head_slots(plan)?,
            emitter: BatchEmitter::new(n),
            members_at,
            cache,
            cache_mask: vec![true; n],
            range_depth: 0,
            range_min: 0,
            range_sup: None,
            sup_at: vec![None; n],
            budget,
            stats: EngineStats::default(),
        })
    }

    /// Installs the plan-time adaptive mask (see [`plan_cache_mask`]).
    pub(crate) fn set_cache_mask(&mut self, mask: Vec<bool>) {
        debug_assert_eq!(mask.len(), self.plan.arity());
        self.cache_mask = mask;
    }

    /// Emits tuples straight through to the sink instead of batching —
    /// for sinks that batch themselves (the parallel engines' per-shard
    /// [`crate::ShardSink`]s).
    pub(crate) fn emit_passthrough(&mut self) {
        self.emitter.passthrough();
    }

    /// Runs the full join.
    pub(crate) fn run(&mut self, sink: &mut dyn ResultSink) {
        self.run_range(0, None, sink);
    }

    /// Runs one root-range shard `[root_min, root_sup)`, keeping the cache
    /// (and accumulated stats) across calls.
    pub(crate) fn run_range(
        &mut self,
        root_min: Value,
        root_sup: Option<Value>,
        sink: &mut dyn ResultSink,
    ) {
        self.run_range_split(root_min, root_sup, sink, &mut NoSplit);
    }

    /// Like [`run_range`](Self::run_range), with a split controller
    /// polled at the match points of every non-cached level up to the
    /// controller's depth cap (see [`crate::shard::try_split_at`]);
    /// [`NoSplit`] monomorphizes the polling away for the sequential
    /// paths.
    pub(crate) fn run_range_split<S: SplitSpawn>(
        &mut self,
        root_min: Value,
        root_sup: Option<Value>,
        sink: &mut dyn ResultSink,
        ctl: &mut S,
    ) {
        self.run_split_at(0, &[], root_min, root_sup, sink, ctl);
    }

    /// Runs a sub-root split task: binds the donated `prefix`, joins the
    /// donated level restricted to `[min, sup)` and everything below it,
    /// then unwinds the prefix so the pooled driver can run more tasks.
    /// See `Driver::run_split_at` in `lftj.rs` for the protocol; the CTJ
    /// variant keeps its cache across tasks (entries are keyed by
    /// bindings alone, so both halves of a split keep hitting it).
    pub(crate) fn run_split_at<S: SplitSpawn>(
        &mut self,
        depth: usize,
        prefix: &[Value],
        min: Value,
        sup: Option<Value>,
        sink: &mut dyn ResultSink,
        ctl: &mut S,
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

    /// Emits the current binding; returns `false` when the budget refused
    /// the row and the driver must stop.
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

    /// Returns `false` when the budget stopped the run at this level or
    /// below; cursors are unwound normally either way.
    fn level<S: SplitSpawn>(&mut self, d: usize, sink: &mut dyn ResultSink, ctl: &mut S) -> bool {
        // Entering a fresh subtree invalidates any split vetoes recorded
        // for this depth and below — they referred to sibling subtrees.
        ctl.level_entered(d);
        let spec = self
            .plan
            .cache_spec_at(d)
            .filter(|_| self.cache_mask[d] && self.cache.depth_enabled(d));
        let record_key = match spec {
            Some(spec) => {
                let key: Vec<Value> = spec
                    .key_depths()
                    .iter()
                    .map(|&kd| self.binding[kd])
                    .collect();
                // Cache lookup: hash probe over the key words. The store
                // accounts the hit/miss and, on a miss, hands the key
                // back for the publish once the level completes.
                self.stats
                    .access
                    .record(AccessKind::Intermediate, key.len() as u64 * WORD_BYTES);
                match self.cache.lookup(d, key, &mut self.stats) {
                    Looked::Hit(entry) => {
                        return self.replay(d, &entry, sink, ctl);
                    }
                    Looked::Miss(key, token) => Some((key, token)),
                }
            }
            None => None,
        };
        self.compute(d, record_key, sink, ctl)
    }

    /// Cache hit: iterate the stored `(value, index)` list, re-opening each
    /// participating cursor directly at the stored index (paper Fig. 3,
    /// step 5: "read next z from cache").
    fn replay<S: SplitSpawn>(
        &mut self,
        d: usize,
        entry: &[(Value, Vec<u32>)],
        sink: &mut dyn ResultSink,
        ctl: &mut S,
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

    /// Appends the match `v` at `positions` to the entry being recorded,
    /// or drops the entry when it outgrows its capacity. Returns `false`
    /// when the intermediate budget refused the tuple and the driver must
    /// stop (the entry is dropped then too).
    fn record(&mut self, pending: &mut Option<Recording>, v: Value, positions: Vec<u32>) -> bool {
        let Some(p) = pending.as_mut() else {
            return true;
        };
        if self.config.entry_capacity.is_some_and(|cap| p.len() >= cap) {
            // Insertion-buffer overflow: drop the partial entry.
            self.stats.cache_overflows += 1;
            *pending = None;
        } else if B::GOVERNED && !self.budget.charge_intermediates(1) {
            // Memory budget exhausted: the flag is tripped; drop the
            // partial entry and wind down.
            *pending = None;
            return false;
        } else {
            p.push((v, positions));
        }
        true
    }

    /// Runs level `d` as a [`SliceLeapfrog`] over the open cursors'
    /// sibling slices, recording each match into `pending` and emitting
    /// its row, when it binds the last variable and lies below `split_cap`
    /// (so its tail is never donated). `None` (nothing done) otherwise or
    /// when the level has no slice form; else whether the budget let the
    /// level run to its end.
    fn leaf_level(
        &mut self,
        d: usize,
        split_cap: usize,
        members: &[usize],
        pending: &mut Option<Recording>,
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
                if pending.is_some()
                    && !self.record(pending, v, lf.cache_positions(&cursors, members))
                {
                    return false;
                }
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

    /// Standard leapfrog execution at depth `d`, optionally recording the
    /// matches for insertion into the cache once the level completes.
    fn compute<S: SplitSpawn>(
        &mut self,
        d: usize,
        record_key: Option<(Vec<Value>, u64)>,
        sink: &mut dyn ResultSink,
        ctl: &mut S,
    ) -> bool {
        // Open level d on every participant (clamped to the task's range
        // at its ranged depth, so shards never leapfrog outside their
        // slice).
        self.sup_at[d] = if d == self.range_depth {
            self.range_sup
        } else {
            None
        };
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

        // A recorded level must observe every one of its matches —
        // donating its tail would publish a truncated entry whose
        // replays silently drop rows — so split polls are suppressed
        // while recording. (A demoted or mask-dropped spec computes like
        // plain LFTJ and splits freely.)
        let can_split = record_key.is_none();
        let mut pending: Option<Recording> = record_key.as_ref().map(|_| Vec::new());
        // Recycle this depth's member vector (no per-node allocation).
        let mut lf = Leapfrog::new(std::mem::take(&mut self.members_at[d]));
        // A last level that ran on sibling slices skips the cursor loop.
        let sliced = self.leaf_level(d, ctl.depth_cap(), lf.members(), &mut pending, sink);
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
            if can_split && d <= ctl.depth_cap() {
                // Match-point split poll (paper §3.4 spawn-on-match): the
                // current value v stays with this shard. Only reachable
                // outside a cache replay, and a split never moves the
                // cache: entries are keyed by bindings alone, so both
                // halves keep hitting it.
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
            if pending.is_some() {
                let positions = parts
                    .iter()
                    .map(|&(a, _)| self.cursors[a].cache_pos())
                    .collect();
                if !self.record(&mut pending, v, positions) {
                    live = false;
                    break;
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

        // The level is fully analyzed: commit the entry (paper §3.5). The
        // store applies its capacity policy (drop / evict / lose an
        // insert race) and the matching accounting. A budget-stopped
        // level never publishes: its match list is truncated and a replay
        // of it would silently drop rows from an un-cancelled rerun.
        if live {
            if let (Some((key, token)), Some(p)) = (record_key, pending) {
                self.cache.publish(d, key, token, p, &mut self.stats);
            }
        }
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
    use crate::{CollectSink, CountSink, Lftj};
    use triejax_query::patterns::{self, Pattern};
    use triejax_relation::Relation;

    fn catalog(edges: &[(u32, u32)]) -> Catalog {
        let mut c = Catalog::new();
        c.insert("G", Relation::from_pairs(edges.to_vec()));
        c
    }

    /// A small dense-ish graph exercising shared sub-joins.
    fn test_edges() -> Vec<(u32, u32)> {
        vec![
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 1),
            (0, 2),
            (3, 0),
            (1, 3),
            (4, 1),
            (2, 4),
        ]
    }

    #[test]
    fn agrees_with_lftj_on_every_paper_pattern() {
        let c = catalog(&test_edges());
        for p in Pattern::PAPER {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut a = CollectSink::new();
            let mut b = CollectSink::new();
            Lftj::new().execute(&plan, &c, &mut a).unwrap();
            Ctj::new().execute(&plan, &c, &mut b).unwrap();
            assert_eq!(a.into_sorted(), b.into_sorted(), "{p}");
        }
    }

    #[test]
    fn path3_cache_hits_when_y_is_shared() {
        // x-parents 0 and 3 both reach y=1.
        let c = catalog(&[(0, 1), (3, 1), (1, 5), (1, 6)]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut sink = CountSink::default();
        let stats = Ctj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.count(), 4);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        // Two z-values cached for y=1.
        assert_eq!(stats.intermediates, 2);
    }

    #[test]
    fn cycle3_never_touches_the_cache() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CountSink::default();
        let stats = Ctj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.intermediates, 0);
    }

    #[test]
    fn clique4_never_touches_the_cache() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::clique4()).unwrap();
        let mut sink = CountSink::default();
        let stats = Ctj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }

    #[test]
    fn entry_capacity_overflow_discards_but_stays_correct() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let mut unbounded = CollectSink::new();
        let s1 = Ctj::new().execute(&plan, &c, &mut unbounded).unwrap();
        let mut tiny = CollectSink::new();
        let cfg = CtjConfig {
            entry_capacity: Some(1),
            max_entries: None,
            adaptive: false,
        };
        let s2 = Ctj::with_config(cfg).execute(&plan, &c, &mut tiny).unwrap();
        assert_eq!(unbounded.into_sorted(), tiny.into_sorted());
        assert!(s2.cache_overflows > 0);
        assert!(s2.intermediates <= s1.intermediates);
    }

    #[test]
    fn max_entries_zero_disables_caching() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let cfg = CtjConfig {
            entry_capacity: None,
            max_entries: Some(0),
            adaptive: false,
        };
        let mut sink = CountSink::default();
        let stats = Ctj::with_config(cfg).execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(stats.cache_hits, 0);
        let mut reference = CountSink::default();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        assert_eq!(sink.count(), reference.count());
    }

    #[test]
    fn ctj_does_fewer_lub_ops_than_lftj_when_cache_helps() {
        // Heavily shared y values make caching pay off.
        let mut edges = Vec::new();
        for x in 0..20u32 {
            edges.push((x, 100));
        }
        for z in 200..220u32 {
            edges.push((100, z));
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut s1 = CountSink::default();
        let lftj = Lftj::new().execute(&plan, &c, &mut s1).unwrap();
        let mut s2 = CountSink::default();
        let ctj = Ctj::new().execute(&plan, &c, &mut s2).unwrap();
        assert_eq!(s1.count(), s2.count());
        assert!(ctj.cache_hits == 19);
        assert!(
            ctj.match_ops < lftj.match_ops,
            "ctj {} vs lftj {}",
            ctj.match_ops,
            lftj.match_ops
        );
    }

    #[test]
    fn budgeted_ctj_row_limit_is_an_exact_prefix() {
        use std::sync::Arc;
        use triejax_exec::{BudgetHandle, CancelReason, RunBudget};

        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        CtjDriver::<Counting>::new(&plan, &tries, CtjConfig::default())
            .unwrap()
            .run(&mut full);
        assert!(full.tuples().len() > 3);

        let shared = Arc::new(RunBudget::new().with_row_limit(3));
        let mut capped = CollectSink::new();
        let mut driver = CtjDriver::<Counting, LocalPjr, BudgetHandle>::with_store_budget(
            &plan,
            &tries,
            CtjConfig::default(),
            LocalPjr::new(CtjConfig::default()),
            BudgetHandle::driving(Arc::clone(&shared)),
        )
        .unwrap();
        driver.run(&mut capped);
        assert_eq!(capped.tuples(), &full.tuples()[..3]);
        assert_eq!(driver.stats.results, 3);
        assert_eq!(shared.cancelled(), Some(CancelReason::RowLimit));
    }

    #[test]
    fn intermediate_budget_stops_ctj_with_a_prefix() {
        use std::sync::Arc;
        use triejax_exec::{BudgetHandle, CancelReason, RunBudget};

        // Heavily shared y values: lots of cached intermediate tuples.
        let mut edges = Vec::new();
        for x in 0..20u32 {
            edges.push((x, 100));
        }
        for z in 200..220u32 {
            edges.push((100, z));
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        CtjDriver::<Counting>::new(&plan, &tries, CtjConfig::default())
            .unwrap()
            .run(&mut full);

        let shared = Arc::new(RunBudget::new().with_intermediate_limit(5));
        let mut capped = CollectSink::new();
        let mut driver = CtjDriver::<Counting, LocalPjr, BudgetHandle>::with_store_budget(
            &plan,
            &tries,
            CtjConfig::default(),
            LocalPjr::new(CtjConfig::default()),
            BudgetHandle::driving(Arc::clone(&shared)),
        )
        .unwrap();
        driver.run(&mut capped);
        assert_eq!(shared.cancelled(), Some(CancelReason::MemoryBudget));
        assert!(
            full.tuples().starts_with(capped.tuples()),
            "delivered rows must be a prefix"
        );
        assert!(capped.tuples().len() < full.tuples().len());
    }

    #[test]
    fn path4_uses_both_cache_specs() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let mut sink = CountSink::default();
        let stats = Ctj::new().execute(&plan, &c, &mut sink).unwrap();
        assert!(stats.cache_hits > 0, "expected hits on z and w caches");
    }
}
