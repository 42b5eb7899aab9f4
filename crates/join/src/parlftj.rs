use std::sync::{Arc, Mutex};

use triejax_exec::{Budget, BudgetHandle, NoBudget, PoolStats, RunBudget};
use triejax_query::CompiledQuery;
use triejax_relation::{NoTally, Tally, Value};

use crate::cache::{LocalPjr, NoPjr, PjrStore, SharedPjrCache};
use crate::catalog::Served;
use crate::engine::head_slots;
use crate::lftj::{Driver, Resumable};
use crate::options::{process_env, Resolved, RunOptions};
use crate::shard::{execute_sharded, plan_shards};
use crate::viewset::{plan_touches_delta, CursorSet, MergeSet};
use crate::{Catalog, DeltaMap, EngineStats, JoinError, ResultSink, TrieSet};

/// Stamps the surface the two parallel presets share onto `$engine` (a
/// struct with one `opts: RunOptions` field): `Default`, every builder and
/// run method, and [`crate::JoinEngine`] under `$name`. `$ctj` says
/// whether the preset's drivers carry the PJR cache. Everything here is
/// written once; the runs all go through [`run_parallel`].
macro_rules! parallel_engine {
    ($engine:ident, $name:literal, ctj: $ctj:literal) => {
        impl Default for $engine {
            fn default() -> Self {
                $engine {
                    opts: $crate::options::RunOptions {
                        ctj: $ctj,
                        ..Default::default()
                    },
                }
            }
        }

        impl $engine {
            /// Engine with the default pool size (the `TRIEJAX_POOL`
            /// environment variable, else one worker per core) and
            /// plan-seeded shard granularity; identical to
            /// `Default::default()`.
            pub fn new() -> Self {
                Self::default()
            }

            /// Engine with an explicit pool (worker) count; shard
            /// granularity is still seeded from the plan.
            ///
            /// # Panics
            ///
            /// Panics if `workers == 0`.
            pub fn with_pool(workers: usize) -> Self {
                let mut engine = Self::default();
                let workers =
                    std::num::NonZeroUsize::new(workers).expect("workers must be positive");
                engine.opts.workers = Some(workers);
                engine
            }

            /// Sets an explicit shard count, keeping the pool size
            /// (otherwise the count is seeded from the plan).
            ///
            /// # Panics
            ///
            /// Panics if `shards == 0`.
            pub fn with_granularity(mut self, shards: usize) -> Self {
                let shards = std::num::NonZeroUsize::new(shards).expect("shards must be positive");
                self.opts.granularity = Some(shards);
                self
            }

            /// Caps the run's wall-clock time. A run that outlives the
            /// deadline is cancelled cooperatively: workers
            /// stop at their next poll point, the rows already streamed to
            /// the sink stay an exact prefix of the full result, and the
            /// engine returns [`crate::JoinError::Cancelled`] carrying the
            /// partial [`crate::EngineStats`].
            pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
                self.opts.deadline = Some(deadline);
                self
            }

            /// Caps delivered result rows at `limit`. The sink receives
            /// exactly the first `min(total, limit)` rows of the
            /// sequential result stream and the engine returns
            /// [`crate::JoinError::Cancelled`] with
            /// [`triejax_exec::CancelReason::RowLimit`] when the cap
            /// actually truncated the run.
            pub fn with_row_limit(mut self, limit: u64) -> Self {
                self.opts.row_limit = Some(limit);
                self
            }

            /// Ties every run of this engine to `token`: firing it from
            /// any thread cancels the run cooperatively (see
            /// [`with_deadline`](Self::with_deadline) for the delivery
            /// contract).
            pub fn with_cancel_token(mut self, token: $crate::CancelToken) -> Self {
                self.opts.cancel = Some(token);
                self
            }

            /// Consults (and fills) `cache` before building tries,
            /// overriding the `TRIEJAX_TRIE_CACHE_MB` process default.
            /// Share one cache across engines to amortize trie
            /// construction over a query stream; see
            /// [`crate::TrieCache`].
            pub fn with_trie_cache(mut self, cache: std::sync::Arc<$crate::TrieCache>) -> Self {
                self.opts.trie_cache = Some(Some(cache));
                self
            }

            /// Disables trie caching for this engine even when
            /// `TRIEJAX_TRIE_CACHE_MB` configures a process-wide cache.
            pub fn without_trie_cache(mut self) -> Self {
                self.opts.trie_cache = Some(None);
                self
            }

            /// Runs the query with an explicit [`crate::Tally`] choice;
            /// see [`crate::Lftj::run_tallied`] for the counting/fast
            /// trade-off. The usual pairing for pure throughput is
            /// [`crate::NoTally`].
            ///
            /// # Errors
            ///
            /// Returns a [`crate::JoinError`] when the catalog is missing
            /// a relation, a relation's arity mismatches its atom, or the
            /// plan projects variables away from the head.
            pub fn run_tallied<T: $crate::Tally>(
                &mut self,
                plan: &triejax_query::CompiledQuery,
                catalog: &$crate::Catalog,
                sink: &mut dyn $crate::ResultSink,
            ) -> Result<$crate::EngineStats<T>, $crate::JoinError> {
                $crate::parlftj::run_parallel(&self.opts, plan, catalog, None, sink)
            }

            /// Runs the query over `catalog` with the pending mutations
            /// in `deltas` folded in: every atom over a mutated relation
            /// walks a [`triejax_relation::MergeCursor`] presenting
            /// `base ∪ inserts − tombstones`, without rebuilding the base
            /// trie. When no atom of the plan touches a non-empty delta,
            /// this is exactly [`run_tallied`](Self::run_tallied) — the
            /// frozen fast path, monomorphized to plain trie cursors.
            /// Cache-spec validity is unaffected: PJR entries are keyed by
            /// bindings alone, and a merged view changes which bindings
            /// occur, not what an entry means.
            ///
            /// # Errors
            ///
            /// As [`run_tallied`](Self::run_tallied), plus an arity
            /// mismatch between a delta and its atom.
            pub fn run_tallied_with<T: $crate::Tally>(
                &mut self,
                plan: &triejax_query::CompiledQuery,
                catalog: &$crate::Catalog,
                deltas: &$crate::DeltaMap,
                sink: &mut dyn $crate::ResultSink,
            ) -> Result<$crate::EngineStats<T>, $crate::JoinError> {
                $crate::parlftj::run_parallel(&self.opts, plan, catalog, Some(deltas), sink)
            }
        }

        impl $crate::JoinEngine for $engine {
            fn name(&self) -> &'static str {
                $name
            }

            fn execute(
                &mut self,
                plan: &triejax_query::CompiledQuery,
                catalog: &$crate::Catalog,
                sink: &mut dyn $crate::ResultSink,
            ) -> Result<$crate::EngineStats, $crate::JoinError> {
                self.run_tallied::<$crate::Counting>(plan, catalog, sink)
            }
        }
    };
}
pub(crate) use parallel_engine;

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
/// `ParLftj` and [`crate::ParCtj`] are two presets of one engine: every
/// builder below is shared, every knob resolves when the query runs (the
/// explicit value, else the pool's or trie cache's `TRIEJAX_*` variable
/// where it has one, else the default), and they differ only in whether
/// the workers' drivers carry a partial-join-result cache.
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
#[derive(Debug, Clone)]
pub struct ParLftj {
    opts: RunOptions,
}

parallel_engine!(ParLftj, "par-lftj", ctj: false);

/// The one parallel engine body, behind both presets and
/// [`crate::QueryHandle`]: resolves `opts`, builds the query's tries (or
/// merged views, when an atom reads a relation with a pending delta in
/// `deltas`) on the pool, and runs the join. A governed run that was cut
/// short returns [`JoinError::Cancelled`] with its partial stats.
pub(crate) fn run_parallel<T: Tally>(
    opts: &RunOptions,
    plan: &CompiledQuery,
    catalog: &Catalog,
    deltas: Option<&DeltaMap>,
    sink: &mut dyn ResultSink,
) -> Result<EngineStats<T>, JoinError> {
    let run = opts.resolve(&process_env);
    let Some(shared) = run.budget.clone() else {
        // Ungoverned: NoBudget compiles every governance check away.
        return run_budgeted(&run, plan, catalog, deltas, sink, NoBudget, NoBudget);
    };
    let driving = BudgetHandle::driving(Arc::clone(&shared));
    let worker = BudgetHandle::worker(Arc::clone(&shared));
    let stats = run_budgeted(&run, plan, catalog, deltas, sink, driving, worker)?;
    settle(stats, Some(&shared))
}

/// A finished run's result: its stats, or [`JoinError::Cancelled`]
/// carrying them when `budget` cut the run short.
fn settle<T: Tally>(
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

/// Builds the cursor set — a [`TrieSet`] for frozen plans (plain trie
/// cursors, the pre-delta code paths), a [`MergeSet`] for delta-touching
/// ones — and runs [`run_set`] over it. `driving` governs the
/// single-shard fast path (it charges the row quota at emit time);
/// `worker` is cloned into every pooled driver (flag polling only — the
/// ordered drain owns the quota in a parallel run).
fn run_budgeted<T: Tally, B: Budget + Clone + Send + Sync>(
    run: &Resolved,
    plan: &CompiledQuery,
    catalog: &Catalog,
    deltas: Option<&DeltaMap>,
    sink: &mut dyn ResultSink,
    driving: B,
    worker: B,
) -> Result<EngineStats<T>, JoinError> {
    // The pool exists before the tries so construction itself runs on it
    // (partitioned builds, or one task per cold trie). build_on times only
    // actual cold-build work, so a query fully served from the cache (or
    // a preloaded store) reports trie_build_ns == 0 exactly.
    let cache = run.trie_cache.as_deref();
    let (mut stats, served) = match deltas.filter(|d| plan_touches_delta(plan, d)) {
        None => {
            let (tries, served) = TrieSet::serve_on(plan, catalog, &run.pool, cache)?;
            let stats = run_set(run, plan, catalog, &tries, sink, driving, worker)?;
            (stats, served)
        }
        Some(d) => {
            let (set, served) = MergeSet::build_on(plan, catalog, d, &run.pool, cache)?;
            let stats = run_set(run, plan, catalog, &set, sink, driving, worker)?;
            (stats, served)
        }
    };
    served.stamp(&mut stats);
    Ok(stats)
}

/// The engine body over one cursor set: plans the shards, then runs
/// either the single-shard fast path on the calling thread or the pool,
/// with the store the run's engine calls for.
fn run_set<'s, T: Tally, B: Budget + Clone + Send + Sync, S: CursorSet<'s>>(
    run: &Resolved,
    plan: &'s CompiledQuery,
    catalog: &Catalog,
    set: &'s S,
    sink: &mut dyn ResultSink,
    driving: B,
    worker: B,
) -> Result<EngineStats<T>, JoinError> {
    let ranges = plan_shards(plan, catalog, set, run.pool.workers(), run.granularity);

    // A lone range runs sequentially: one driver on the calling thread —
    // for CTJ on a worker-local store (no stripe locks to pay when
    // nothing is shared), whose capacity bounds live entries by dropping
    // new inserts rather than evicting.
    if ranges.len() <= 1 {
        let mut stats = match run.ctj {
            None => Driver::new(plan, set, NoPjr, driving)?.run(sink),
            Some(config) => Driver::new(plan, set, LocalPjr::new(config), driving)?.run(sink),
        };
        stats.shards = 1;
        return Ok(stats);
    }

    // Validate the emission plan up front so shard workers cannot fail.
    head_slots(plan)?;
    let (mut stats, pool_stats) = match run.ctj {
        None => run_pooled(run, plan, set, &ranges, sink, &worker, || NoPjr),
        Some(config) => {
            // One cache shared by every worker, striped for the workers
            // the run uses (never more than it has ranges), pre-sized
            // from the plan's entry estimate.
            let workers = run.pool.workers().min(ranges.len());
            let hint = plan.cache_entries_estimate(|name| catalog.get(name).map(|r| r.len()));
            let cache = SharedPjrCache::new(workers, config, hint);
            run_pooled(run, plan, set, &ranges, sink, &worker, || cache.handle())
        }
    };
    stats.shards = pool_stats.tasks as u64;
    stats.steals = pool_stats.steals;
    Ok(stats)
}

/// Runs the planned shards on the pool with one driver per worker —
/// created on the worker's first shard over the store `cache` hands it,
/// reused for the rest — and returns the drivers' summed stats beside the
/// pool's. Cache counters sum cleanly because the shared store already
/// deduplicated insert races (a raced build is a late hit plus a
/// `cache_races` tick, never a second miss).
fn run_pooled<'s, T, B, S, P>(
    run: &Resolved,
    plan: &'s CompiledQuery,
    set: &'s S,
    ranges: &[(Value, Option<Value>)],
    sink: &mut dyn ResultSink,
    worker: &B,
    cache: impl Fn() -> P + Sync,
) -> (EngineStats<T>, PoolStats)
where
    T: Tally,
    B: Budget + Clone + Send + Sync,
    S: CursorSet<'s>,
    P: PjrStore + Send,
{
    // Addressed by `WorkerCtx::worker`: a slot's mutex is only ever taken
    // by its owning worker during the run.
    let drivers: Vec<Mutex<Option<_>>> =
        (0..run.pool.workers()).map(|_| Mutex::new(None)).collect();
    let new_driver = || {
        let mut d = Driver::new(plan, set, cache(), worker.clone())
            .expect("emission plan validated before the parallel phase");
        d.emit_passthrough(); // the ShardSink already batches
        d
    };
    let budget = run.budget.as_deref();
    let pool_stats = execute_sharded(
        &run.pool,
        ranges,
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
    let mut stats = EngineStats::default();
    for slot in drivers {
        if let Some(driver) = slot.into_inner().expect("worker driver poisoned") {
            stats.merge(&driver.stats);
        }
    }
    (stats, pool_stats)
}

/// A one-worker run, a batch of rows at a time on the caller's thread:
/// what a one-worker [`crate::ResultStream`] pulls. The cursor set, PJR
/// store and budget behind it are erased.
pub(crate) trait BatchRun: Send {
    /// Appends the next batch of about `rows` rows to `out` (see
    /// [`Resumable::step`]); `false` once the run has no rows left.
    fn step(&mut self, rows: u64, out: &mut Vec<Value>) -> bool;

    /// The run's result, as [`run_parallel`] would have returned it.
    fn finish(self: Box<Self>) -> Result<EngineStats, JoinError>;
}

/// A [`Resumable`] run plus the budget its result is settled against.
struct Batched<S, P, B> {
    run: Resumable<NoTally, S, P, B>,
    budget: Option<Arc<RunBudget>>,
}

impl<S, P, B> BatchRun for Batched<S, P, B>
where
    S: for<'s> CursorSet<'s> + Send,
    P: PjrStore + Send,
    B: Budget + Send,
{
    fn step(&mut self, rows: u64, out: &mut Vec<Value>) -> bool {
        self.run.step(rows, out)
    }

    fn finish(self: Box<Self>) -> Result<EngineStats, JoinError> {
        settle(self.run.into_stats(), self.budget.as_deref()).map(|s| s.to_counting())
    }
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
/// the planned root ranges, the run's store and budget.
fn batched_over<S>(
    run: &Resolved,
    plan: CompiledQuery,
    catalog: &Catalog,
    (set, served): (S, Served),
) -> Result<Box<dyn BatchRun>, JoinError>
where
    S: for<'s> CursorSet<'s> + Send + 'static,
{
    fn boxed<S, P, B>(
        plan: CompiledQuery,
        set: S,
        ranges: &[(Value, Option<Value>)],
        stats: EngineStats<NoTally>,
        store: P,
        (budget, shared): (B, Option<Arc<RunBudget>>),
    ) -> Result<Box<dyn BatchRun>, JoinError>
    where
        S: for<'s> CursorSet<'s> + Send + 'static,
        P: PjrStore + Send + 'static,
        B: Budget + Send + 'static,
    {
        Ok(Box::new(Batched {
            run: Resumable::new(plan, set, ranges, stats, store, budget)?,
            budget: shared,
        }))
    }
    let ranges = plan_shards(&plan, catalog, &set, 1, run.granularity);
    let mut stats = EngineStats {
        shards: ranges.len() as u64,
        ..EngineStats::default()
    };
    served.stamp(&mut stats);
    let store = run.ctj.map(LocalPjr::new);
    let shared = run.budget.clone();
    let driving = |b: &Arc<RunBudget>| (BudgetHandle::driving(Arc::clone(b)), shared.clone());
    match (store, &run.budget) {
        (None, None) => boxed(plan, set, &ranges, stats, NoPjr, (NoBudget, None)),
        (None, Some(b)) => boxed(plan, set, &ranges, stats, NoPjr, driving(b)),
        (Some(s), None) => boxed(plan, set, &ranges, stats, s, (NoBudget, None)),
        (Some(s), Some(b)) => boxed(plan, set, &ranges, stats, s, driving(b)),
    }
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

    /// Both presets of the engine, each paired with a pattern it runs.
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
