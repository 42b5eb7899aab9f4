use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use triejax_exec::{BudgetHandle, CancelToken, RunBudget};
use triejax_query::CompiledQuery;
use triejax_relation::{Counting, Tally, Value};

use crate::cache::{Pjr, SharedPjrCache};
use crate::catalog::Served;
use crate::engine::head_slots;
use crate::lftj::{Driver, Resumable};
use crate::options::{Resolved, RunOptions};
use crate::shard::{execute_sharded, plan_shards};
use crate::viewset::{plan_touches_delta, CursorSet, MergeSet};
use crate::{
    Catalog, DeltaMap, EngineStats, JoinEngine, JoinError, ResultSink, TrieCache, TrieSet,
};

/// The trie join: LeapFrog TrieJoin, or Cached TrieJoin when `CTJ` is
/// set, run by one trie-join driver per worker of a
/// [`triejax_exec::WorkerPool`] over root-range shards — or, when the
/// run plans a single range (always at one worker), by one driver on the
/// calling thread.
///
/// The paper's machine is one join engine whose partial-join-result cache
/// is a configuration bit (§3, §3.5), and so is this type: every run knob
/// is a builder below, written once, and each resolves when the query
/// runs (the explicit value, else the default). The four public engines
/// are presets of it — [`Lftj`](crate::Lftj), [`Ctj`](crate::Ctj),
/// [`ParLftj`] and [`ParCtj`](crate::ParCtj) — and the two const
/// parameters choose only the preset's worker default ([`Default`]) and
/// its [`JoinEngine::name`]:
///
/// * `CTJ` — whether the drivers carry a partial-join-result cache.
/// * `POOLED` — whether the default pool is one worker per core. Without
///   it the preset runs one worker: the paper figures' and the tests'
///   oracle.
///
/// Every preset builds its own tries unless given a [`TrieCache`], and a
/// CTJ preset's PJR cache is unbounded.
#[derive(Debug, Clone)]
pub struct TrieJoin<const CTJ: bool, const POOLED: bool> {
    pub(crate) opts: RunOptions,
}

/// Parallel LeapFrog TrieJoin: root-partitioned LFTJ on the shared
/// [`triejax_exec::WorkerPool`] runtime.
///
/// TrieJax gets its throughput from many concurrent join-processing units
/// walking one shared trie, dynamically picking up work instead of being
/// statically partitioned (paper §3.4). The software construction: shard
/// the first join variable's value domain into many more contiguous
/// *root ranges* than there are workers, queue them on a work-stealing
/// pool (`triejax-exec`), and run them on one trie-join driver per worker.
/// Skewed root domains rebalance by stealing; a heavy range is one unit
/// of work among many, not a thread's whole static share.
///
/// Shards emit through [`crate::ShardSink`]s into an order-preserving
/// [`triejax_exec::OrderedMerge`]: batches stream to the caller's sink while later
/// shards are still running, so no shard materializes its full result.
/// Because LFTJ emits root values in ascending order and the shards cover
/// contiguous ascending ranges, the merged stream is **tuple-for-tuple
/// identical** to sequential [`crate::Lftj`] — same tuples, same order.
/// Access *counts* differ slightly (each shard opens the root level
/// clamped to its range), so use [`crate::Lftj`] when reproducing the
/// paper's exact access totals and `ParLftj` when you want wall-clock
/// speed. [`EngineStats::shards`] and [`EngineStats::steals`] report how
/// the run was scheduled.
///
/// # Example
///
/// ```
/// use triejax_join::{Catalog, CollectSink, JoinEngine, Lftj, ParLftj};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0), (1, 0)]));
/// let plan = CompiledQuery::compile(&patterns::cycle3())?;
///
/// let mut seq = CollectSink::new();
/// Lftj::new().execute(&plan, &catalog, &mut seq)?;
/// let mut par = CollectSink::new();
/// ParLftj::with_pool(2).execute(&plan, &catalog, &mut par)?;
/// assert_eq!(seq.tuples(), par.tuples()); // identical, order included
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ParLftj = TrieJoin<false, true>;

impl<const CTJ: bool, const POOLED: bool> Default for TrieJoin<CTJ, POOLED> {
    fn default() -> Self {
        TrieJoin {
            opts: RunOptions {
                ctj: CTJ,
                workers: (!POOLED).then_some(NonZeroUsize::MIN),
                ..RunOptions::default()
            },
        }
    }
}

impl<const CTJ: bool, const POOLED: bool> TrieJoin<CTJ, POOLED> {
    /// The preset's engine; identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// The preset's engine with an explicit pool (worker) count; shard
    /// granularity is still seeded from the plan.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_pool(workers: usize) -> Self {
        let mut engine = Self::default();
        let workers = NonZeroUsize::new(workers).expect("workers must be positive");
        engine.opts.workers = Some(workers);
        engine
    }

    /// Sets an explicit shard count, keeping the pool size (otherwise the
    /// count is seeded from the plan).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_granularity(mut self, shards: usize) -> Self {
        let shards = NonZeroUsize::new(shards).expect("shards must be positive");
        self.opts.granularity = Some(shards);
        self
    }

    /// Caps the run's wall-clock time. A run that outlives the deadline
    /// is cancelled cooperatively: workers stop at their next poll point,
    /// the rows already streamed to the sink stay an exact prefix of the
    /// full result, and the engine returns [`JoinError::Cancelled`]
    /// carrying the partial [`EngineStats`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Caps delivered result rows at `limit`. The sink receives exactly
    /// the first `min(total, limit)` rows of the sequential result stream
    /// and the engine returns [`JoinError::Cancelled`] with
    /// [`triejax_exec::CancelReason::RowLimit`] when the cap actually
    /// truncated the run.
    pub fn with_row_limit(mut self, limit: u64) -> Self {
        self.opts.row_limit = Some(limit);
        self
    }

    /// Ties every run of this engine to `token`: firing it from any
    /// thread cancels the run cooperatively (see
    /// [`with_deadline`](Self::with_deadline) for the delivery contract).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.opts.cancel = Some(token);
        self
    }

    /// Consults (and fills) `cache` before building tries; without it
    /// the engine builds every trie it needs. Share one cache across
    /// engines to amortize trie construction over a query stream; see
    /// [`TrieCache`].
    pub fn with_trie_cache(mut self, cache: Arc<TrieCache>) -> Self {
        self.opts.trie_cache = Some(cache);
        self
    }

    /// Runs the query with an explicit [`Tally`] choice.
    ///
    /// `run_tallied::<Counting>` is what [`JoinEngine::execute`] calls;
    /// `run_tallied::<triejax_relation::NoTally>` is the zero-overhead
    /// fast path (identical results, no access accounting).
    ///
    /// # Errors
    ///
    /// Returns a [`JoinError`] when the catalog is missing a relation, a
    /// relation's arity mismatches its atom, or the plan projects
    /// variables away from the head.
    pub fn run_tallied<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        run_parallel(&self.opts, plan, catalog, None, sink)
    }

    /// Runs the query over `catalog` with the pending mutations in
    /// `deltas` folded in: every atom over a mutated relation walks a
    /// [`triejax_relation::MergeCursor`] presenting
    /// `base ∪ inserts − tombstones`, without rebuilding the base trie.
    /// When no atom of the plan touches a non-empty delta, this is exactly
    /// [`run_tallied`](Self::run_tallied) — the frozen fast path,
    /// monomorphized to plain trie cursors. Partial-join-result caching
    /// works unchanged on merged views: entries are keyed by bindings
    /// alone, and a merged view changes which bindings occur, not what an
    /// entry means.
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
        run_parallel(&self.opts, plan, catalog, Some(deltas), sink)
    }
}

impl<const CTJ: bool, const POOLED: bool> JoinEngine for TrieJoin<CTJ, POOLED> {
    fn name(&self) -> &'static str {
        match (CTJ, POOLED) {
            (false, false) => "lftj",
            (true, false) => "ctj",
            (false, true) => "par-lftj",
            (true, true) => "par-ctj",
        }
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

/// The one engine body, behind every [`TrieJoin`] preset and
/// [`crate::QueryHandle`]: resolves `opts`, builds the query's tries (or
/// merged views, when an atom reads a relation with a pending delta in
/// `deltas`) on the pool, and runs the join over them ([`run_set`]). A
/// governed run that was cut short returns [`JoinError::Cancelled`] with
/// its partial stats.
pub(crate) fn run_parallel<T: Tally>(
    opts: &RunOptions,
    plan: &CompiledQuery,
    catalog: &Catalog,
    deltas: Option<&DeltaMap>,
    sink: &mut dyn ResultSink,
) -> Result<EngineStats<T>, JoinError> {
    let run = opts.resolve();
    // The pool exists before the tries so construction itself runs on it
    // (partitioned builds, or one task per cold trie). build_on times only
    // actual cold-build work, so a query fully served from the cache (or
    // a preloaded store) reports trie_build_ns == 0 exactly.
    let cache = run.trie_cache.as_deref();
    let (mut stats, served) = match deltas.filter(|d| plan_touches_delta(plan, d)) {
        None => {
            let (tries, served) = TrieSet::serve_on(plan, catalog, &run.pool, cache)?;
            (run_set(&run, plan, catalog, &tries, sink)?, served)
        }
        Some(d) => {
            let (set, served) = MergeSet::build_on(plan, catalog, d, &run.pool, cache)?;
            (run_set(&run, plan, catalog, &set, sink)?, served)
        }
    };
    served.stamp(&mut stats);
    settle(stats, run.budget.as_deref())
}

/// A finished run's result: its stats, or [`JoinError::Cancelled`]
/// carrying them when `budget` cut the run short.
pub(crate) fn settle<T: Tally>(
    stats: EngineStats<T>,
    budget: Option<&RunBudget>,
) -> Result<EngineStats<T>, JoinError> {
    match budget.and_then(RunBudget::cancelled) {
        Some(reason) => Err(JoinError::Cancelled {
            reason,
            partial: Box::new(stats.to_counting()),
        }),
        None => Ok(stats),
    }
}

/// The engine body over one cursor set — a [`TrieSet`] for frozen plans,
/// a [`MergeSet`] for delta-touching ones: plans the shards, then runs
/// either one driver on the calling thread or one per pool worker.
fn run_set<'s, T: Tally, S: CursorSet<'s>>(
    run: &Resolved,
    plan: &'s CompiledQuery,
    catalog: &Catalog,
    set: &'s S,
    sink: &mut dyn ResultSink,
) -> Result<EngineStats<T>, JoinError> {
    let ranges = plan_shards(plan, catalog, set, run.pool.workers(), run.granularity);

    // A lone range runs sequentially: one driver on the calling thread,
    // charging the row quota as it emits — for CTJ on a worker-local
    // store, with no stripe locks to pay when nothing is shared.
    if ranges.len() <= 1 {
        let store = run.ctj.then(Pjr::local);
        let budget = run.budget.clone().map(BudgetHandle::driving);
        let mut stats = Driver::new(plan, set, store, budget)?.run(sink);
        stats.shards = 1;
        return Ok(stats);
    }

    // Validate the emission plan up front so shard workers cannot fail.
    head_slots(plan)?;
    // For CTJ, one cache shared by every worker, striped for the workers
    // the run uses (never more than it has ranges), pre-sized from the
    // plan's entry estimate.
    let shared = run.ctj.then(|| {
        let workers = run.pool.workers().min(ranges.len());
        let hint = plan.cache_entries_estimate(|name| catalog.get(name).map(|r| r.len()));
        Arc::new(SharedPjrCache::new(workers, hint))
    });
    // One driver per worker, created on its first shard and reused for
    // the rest; it only polls the budget's flag, as the ordered drain
    // owns the row quota. Addressed by `WorkerCtx::worker`: a slot's
    // mutex is only ever taken by its owning worker during the run.
    let drivers: Vec<Mutex<Option<_>>> =
        (0..run.pool.workers()).map(|_| Mutex::new(None)).collect();
    let new_driver = || {
        let store = shared.clone().map(Pjr::Shared);
        let budget = run.budget.clone().map(BudgetHandle::worker);
        let mut d = Driver::new(plan, set, store, budget)
            .expect("emission plan validated before the parallel phase");
        d.emit_passthrough(); // the ShardSink already batches
        d
    };
    let budget = run.budget.as_deref();
    let pool_stats = execute_sharded(
        &run.pool,
        &ranges,
        plan.arity(),
        sink,
        budget,
        |ctx, min, sup, out| {
            drivers[ctx.worker]
                .lock()
                .expect("worker driver poisoned")
                .get_or_insert_with(&new_driver)
                .run_range(min, sup, out);
        },
    );
    // Cache counters sum cleanly because the shared store already
    // deduplicated insert races (a raced build is a late hit plus a
    // `cache_races` tick, never a second miss).
    let mut stats = EngineStats {
        shards: pool_stats.tasks as u64,
        steals: pool_stats.steals,
        ..EngineStats::default()
    };
    for slot in drivers {
        if let Some(driver) = slot.into_inner().expect("worker driver poisoned") {
            stats.merge(driver.stats());
        }
    }
    Ok(stats)
}

/// A one-worker run, a batch of rows at a time on the caller's thread:
/// what a one-worker [`crate::ResultStream`] pulls. The cursor set behind
/// it is erased.
pub(crate) trait BatchRun: Send {
    /// Appends the next batch of `rows` rows to `out`; `false` once the
    /// run has no rows left.
    fn step(&mut self, rows: u64, out: &mut Vec<Value>) -> bool;

    /// The run's result, as [`run_parallel`] would have returned it.
    fn finish(self: Box<Self>) -> Result<EngineStats, JoinError>;
}

/// The one-worker counterpart of [`run_parallel`] under the resolved
/// `run`: builds the query's cursor set exactly as it does, then hands the
/// join back unstarted, as a [`BatchRun`] over that set.
pub(crate) fn run_batched(
    run: &Resolved,
    plan: CompiledQuery,
    catalog: &Catalog,
    deltas: Option<&DeltaMap>,
) -> Result<Box<dyn BatchRun>, JoinError> {
    let cache = run.trie_cache.as_deref();
    match deltas.filter(|d| plan_touches_delta(&plan, d)) {
        None => {
            let built = TrieSet::serve_on(&plan, catalog, &run.pool, cache)?;
            batched_over(run, plan, catalog, built)
        }
        Some(d) => {
            let built = MergeSet::build_on(&plan, catalog, d, &run.pool, cache)?;
            batched_over(run, plan, catalog, built)
        }
    }
}

/// [`run_batched`] over a built set (with what fetching its tries cost):
/// the planned root ranges, a local store when the run is CTJ, and the
/// run's budget.
fn batched_over<S>(
    run: &Resolved,
    plan: CompiledQuery,
    catalog: &Catalog,
    (set, served): (S, Served),
) -> Result<Box<dyn BatchRun>, JoinError>
where
    S: for<'s> CursorSet<'s> + Send + 'static,
{
    let ranges = plan_shards(&plan, catalog, &set, 1, run.granularity);
    let mut stats = EngineStats {
        shards: ranges.len() as u64,
        ..EngineStats::default()
    };
    served.stamp(&mut stats);
    let store = run.ctj.then(Pjr::local);
    let budget = run.budget.clone();
    Ok(Box::new(Resumable::new(
        plan, set, &ranges, stats, store, budget,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, CountSink, JoinEngine, Lftj, ParCtj};
    use std::time::Duration;
    use triejax_query::patterns::{self, Pattern};
    use triejax_relation::{NoTally, Relation};

    fn catalog(edges: &[(u32, u32)]) -> Catalog {
        let mut c = Catalog::new();
        c.insert("G", Relation::from_pairs(edges.to_vec()));
        c
    }

    fn test_edges() -> Vec<(u32, u32)> {
        let mut edges = vec![
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
            (4, 0),
        ];
        // A larger fringe so the root level has enough values to shard.
        for i in 5..40u32 {
            edges.push((i, (i + 1) % 40));
            edges.push((i, (i * 7 + 3) % 40));
        }
        edges
    }

    #[test]
    fn agrees_with_lftj_in_order_for_every_pool_size() {
        let c = catalog(&test_edges());
        for p in Pattern::ALL {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut reference = CollectSink::new();
            Lftj::new().execute(&plan, &c, &mut reference).unwrap();
            for workers in [1, 2, 3, 7, 64] {
                let mut sink = CollectSink::new();
                let stats = ParLftj::with_pool(workers)
                    .execute(&plan, &c, &mut sink)
                    .unwrap();
                assert_eq!(
                    sink.tuples(),
                    reference.tuples(),
                    "{p} with {workers} workers"
                );
                assert_eq!(stats.results as usize, reference.tuples().len());
                assert!(stats.shards >= 1);
            }
        }
    }

    #[test]
    fn explicit_shard_counts_agree_too() {
        let c = catalog(&test_edges());
        for p in [Pattern::Cycle3, Pattern::Path4] {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut reference = CollectSink::new();
            Lftj::new().execute(&plan, &c, &mut reference).unwrap();
            for shards in [1, 2, 3, 7, 64] {
                let mut sink = CollectSink::new();
                let stats = ParLftj::with_pool(shards)
                    .with_granularity(shards)
                    .execute(&plan, &c, &mut sink)
                    .unwrap();
                assert_eq!(sink.tuples(), reference.tuples(), "{p} x{shards}");
                assert!(
                    (1..=shards as u64).contains(&stats.shards),
                    "{p} x{shards}: reported {} shards",
                    stats.shards
                );
            }
        }
    }

    #[test]
    fn auto_pool_size_agrees_too() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        ParLftj::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
    }

    #[test]
    fn untallied_parallel_run_matches() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle4()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let stats = ParLftj::with_pool(4)
            .run_tallied::<NoTally>(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert_eq!(stats.memory_accesses(), 0);
        assert_eq!(stats.results as usize, reference.tuples().len());
    }

    #[test]
    fn multi_worker_runs_overshard_for_stealing() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CountSink::default();
        let stats = ParLftj::with_pool(4).execute(&plan, &c, &mut sink).unwrap();
        assert!(
            stats.shards > 4,
            "4 workers over a 40-value domain should overshard, got {}",
            stats.shards
        );
    }

    /// Both pooled presets of the engine, each paired with a pattern it
    /// runs.
    fn presets(workers: usize) -> [(Pattern, Box<dyn JoinEngine>); 2] {
        [
            (Pattern::Cycle4, Box::new(ParLftj::with_pool(workers))),
            (Pattern::Path4, Box::new(ParCtj::with_pool(workers))),
        ]
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let c = catalog(&[]);
        for (p, mut engine) in presets(4) {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut sink = CountSink::default();
            let stats = engine.execute(&plan, &c, &mut sink).unwrap();
            assert_eq!(sink.count(), 0, "{}", engine.name());
            assert_eq!(stats.results, 0);
        }
    }

    #[test]
    fn more_shards_than_root_values_is_fine() {
        let c = catalog(&[(0, 1), (1, 0)]);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        ParLftj::with_pool(16)
            .with_granularity(16)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
    }

    #[test]
    fn missing_relation_is_an_error() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let engines: [Box<dyn JoinEngine>; 2] = [Box::new(ParLftj::new()), Box::new(ParCtj::new())];
        for mut engine in engines {
            let mut sink = CountSink::default();
            let err = engine.execute(&plan, &Catalog::new(), &mut sink);
            assert!(err.is_err(), "{}", engine.name());
        }
    }

    #[test]
    fn row_limit_returns_cancelled_with_an_exact_prefix() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        assert!(reference.tuples().len() > 3);
        for workers in [1, 2, 7] {
            let mut sink = CollectSink::new();
            let err = ParLftj::with_pool(workers)
                .with_row_limit(3)
                .execute(&plan, &c, &mut sink)
                .unwrap_err();
            match err {
                JoinError::Cancelled { reason, partial } => {
                    assert_eq!(reason, triejax_exec::CancelReason::RowLimit);
                    assert!(
                        partial.results >= 3,
                        "workers emitted at least the delivered rows"
                    );
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
            assert_eq!(
                sink.tuples(),
                &reference.tuples()[..3],
                "{workers} workers: the delivered rows must be the exact \
                 ordered prefix"
            );
        }
    }

    #[test]
    fn generous_row_limit_never_cancels() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let stats = ParLftj::with_pool(4)
            .with_row_limit(u64::MAX)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert_eq!(stats.results as usize, reference.tuples().len());
    }

    #[test]
    fn pre_fired_token_cancels_before_any_row() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let token = triejax_exec::CancelToken::new();
        token.cancel();
        let mut sink = CollectSink::new();
        let err = ParLftj::with_pool(2)
            .with_cancel_token(token)
            .execute(&plan, &c, &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            JoinError::Cancelled {
                reason: triejax_exec::CancelReason::External,
                ..
            }
        ));
        assert!(sink.tuples().is_empty(), "no rows after a pre-fired token");
    }

    #[test]
    fn elapsed_deadline_cancels_and_keeps_the_prefix_exact() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let err = ParLftj::with_pool(2)
            .with_deadline(Duration::ZERO)
            .execute(&plan, &c, &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            JoinError::Cancelled {
                reason: triejax_exec::CancelReason::Deadline,
                ..
            }
        ));
        let delivered = sink.tuples();
        assert!(
            reference.tuples().starts_with(delivered),
            "whatever was delivered before the deadline is a prefix"
        );
    }

    #[test]
    fn budget_is_none_without_knobs() {
        assert!(ParLftj::with_pool(4).opts.budget().is_none());
        let governed = ParLftj::new().with_row_limit(10).opts.budget();
        assert_eq!(governed.unwrap().row_limit(), Some(10));
    }

    #[test]
    fn projected_plans_error_gracefully() {
        let q = triejax_query::Query::builder("pairs")
            .head(["x", "z"])
            .atom("G", ["x", "y"])
            .atom("G", ["y", "z"])
            .build_projected()
            .unwrap();
        let plan = CompiledQuery::compile(&q).unwrap();
        let c = catalog(&test_edges());
        for (_, mut engine) in presets(2) {
            let mut sink = CountSink::default();
            let err = engine.execute(&plan, &c, &mut sink);
            assert!(
                matches!(err, Err(JoinError::Plan { .. })),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_panics() {
        let _ = ParLftj::new().with_granularity(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_workers_panics() {
        let _ = ParLftj::with_pool(0);
    }
}
