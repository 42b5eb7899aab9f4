use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::time::Duration;

use triejax_exec::{Budget, BudgetHandle, CancelToken, NoBudget, RunBudget};
use triejax_query::CompiledQuery;
use triejax_relation::{Counting, Tally};

use crate::cache::{LocalPjr, SharedPjrCache, SharedPjrHandle};
use crate::ctj::{plan_cache_mask, CtjDriver};
use crate::engine::head_slots;
use crate::shard::{
    can_split, compose_budget, env_split, env_split_depth, execute_sharded, execute_split,
    make_pool, plan_shards,
};
use crate::viewset::{plan_touches_delta, CursorSet, MergeSet};
use crate::{
    Catalog, CtjConfig, DeltaMap, EngineStats, JoinEngine, JoinError, ResultSink, TrieCache,
    TrieSet,
};
use triejax_exec::WorkerPool;

/// Name of the environment variable supplying the default shared-cache
/// capacity (total entries; `0` disables caching) for engines that were
/// not given an explicit [`CtjConfig`]. CI uses it (together with
/// `TRIEJAX_POOL`) to force the eviction and contention paths through the
/// whole test suite.
pub(crate) const CACHE_CAP_ENV: &str = "TRIEJAX_CACHE_CAP";

/// Name of the environment variable supplying the default adaptive-cache
/// choice ([`CtjConfig::adaptive`]) for engines that were not given an
/// explicit config. Accepts the usual on/off spellings.
pub(crate) const CACHE_ADAPT_ENV: &str = "TRIEJAX_CACHE_ADAPT";

/// Parallel Cached TrieJoin: root-partitioned CTJ on the shared
/// [`triejax_exec::WorkerPool`] runtime, with **one partial-join-result
/// cache shared by all workers** — the software analogue of the paper's
/// on-chip PJR cache, which every TrieJax lane reads and writes (§3.5).
///
/// "Flexible Caching in Trie Joins" (Kalinsky et al.) shows the PJR cache
/// is what makes CTJ competitive, and sharing it is where the speedup
/// lives: entries are keyed by the spec's key bindings only — a valid
/// [`triejax_query::CacheSpec`] guarantees the memoized match list
/// depends on nothing else — so an entry built by *any* worker in *any*
/// root range replays for every other worker and range. (The per-worker
/// caches this design replaced structurally capped hits below sequential
/// [`crate::Ctj`]'s; the shared cache restores them — a property the
/// conformance suite asserts.) The cache is lock-striped
/// ([`triejax_exec::Striped`]) with hash-determined stripe selection,
/// bounded by [`CtjConfig::max_entries`] as a *total* capacity with
/// per-stripe FIFO eviction, and insert races resolve first-writer-wins
/// with race-deduped miss accounting (`EngineStats::{cache_evictions,
/// cache_races, cache_contention}` report the churn).
///
/// Engines without an explicit config read the default capacity from the
/// `TRIEJAX_CACHE_CAP` environment variable (unset = unbounded).
///
/// Scheduling and emission are exactly [`crate::ParLftj`]'s: plan-seeded
/// root-range shards on the work-stealing pool, [`crate::ShardSink`]
/// batches through an order-preserving [`triejax_exec::OrderedMerge`].
/// The merged stream is tuple-for-tuple identical to sequential
/// [`crate::Ctj`] (and [`crate::Lftj`]) — same tuples, same order.
///
/// # Example
///
/// ```
/// use triejax_join::{Catalog, CollectSink, Ctj, JoinEngine, ParCtj};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (3, 1), (1, 5), (1, 6)]));
/// let plan = CompiledQuery::compile(&patterns::path3())?;
///
/// let mut seq = CollectSink::new();
/// Ctj::new().execute(&plan, &catalog, &mut seq)?;
/// let mut par = CollectSink::new();
/// ParCtj::with_pool(2).execute(&plan, &catalog, &mut par)?;
/// assert_eq!(seq.tuples(), par.tuples()); // identical, order included
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParCtj {
    /// Explicit worker count; `None` = `TRIEJAX_POOL` or one per core.
    workers: Option<NonZeroUsize>,
    /// Explicit shard count; `None` = seeded from the plan.
    granularity: Option<NonZeroUsize>,
    /// Explicit cache configuration; `None` = unbounded entries with the
    /// shared capacity taken from `TRIEJAX_CACHE_CAP` (if set).
    config: Option<CtjConfig>,
    /// Explicit dynamic-splitting choice; `None` = `TRIEJAX_SPLIT` or off.
    split: Option<bool>,
    /// Explicit sub-root split depth cap; `None` = `TRIEJAX_SPLIT_DEPTH`
    /// or 0 (root-only splits).
    split_depth: Option<usize>,
    /// Explicit wall-clock deadline; `None` = `TRIEJAX_DEADLINE_MS` or none.
    deadline: Option<Duration>,
    /// Explicit result-row cap; `None` = `TRIEJAX_ROW_LIMIT` or none.
    row_limit: Option<u64>,
    /// Cap on charged intermediate tuples (cache entry rows); builder-only.
    intermediate_limit: Option<u64>,
    /// External cancellation token the caller can fire from another thread.
    cancel: Option<CancelToken>,
    /// Cross-query trie cache choice: `None` = the process-wide default
    /// (`TRIEJAX_TRIE_CACHE_MB`), `Some(None)` = explicitly disabled,
    /// `Some(Some(c))` = an explicit cache instance.
    trie_cache: Option<Option<std::sync::Arc<TrieCache>>>,
}

impl ParCtj {
    /// Engine with the default pool size, plan-seeded granularity and the
    /// default cache capacity (`TRIEJAX_CACHE_CAP` or unbounded);
    /// identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit pool (worker) count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_pool(workers: usize) -> Self {
        ParCtj {
            workers: Some(NonZeroUsize::new(workers).expect("workers must be positive")),
            ..Self::default()
        }
    }

    /// Engine with an explicit cache configuration
    /// ([`CtjConfig::max_entries`] is the shared cache's *total*
    /// capacity). An explicit config — even the default unbounded one —
    /// overrides `TRIEJAX_CACHE_CAP`.
    pub fn with_config(config: CtjConfig) -> Self {
        ParCtj {
            config: Some(config),
            ..Self::default()
        }
    }

    /// Sets the cache configuration, keeping the scheduling knobs; see
    /// [`with_config`](Self::with_config).
    pub fn config(mut self, config: CtjConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the shared cache's total entry capacity (`0` disables
    /// caching), keeping the rest of the configuration.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        let mut config = self.config.unwrap_or_default();
        config.max_entries = Some(entries);
        self.config = Some(config);
        self
    }

    /// Sets an explicit shard count, keeping the pool size (otherwise the
    /// count is seeded from the plan).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_granularity(mut self, shards: usize) -> Self {
        self.granularity = Some(NonZeroUsize::new(shards).expect("shards must be positive"));
        self
    }

    /// The configured worker count, or `None` for automatic.
    pub fn workers(&self) -> Option<usize> {
        self.workers.map(NonZeroUsize::get)
    }

    /// The configured shard count, or `None` for plan-seeded.
    pub fn granularity(&self) -> Option<usize> {
        self.granularity.map(NonZeroUsize::get)
    }

    /// Enables or disables dynamic shard splitting, overriding the
    /// `TRIEJAX_SPLIT` environment default; see
    /// [`crate::ParLftj::with_split`] for the full protocol. Splitting
    /// never moves the shared PJR cache: entries are keyed by bindings
    /// alone, so both halves of a split keep hitting the same entries.
    ///
    /// ```
    /// use triejax_join::ParCtj;
    ///
    /// let engine = ParCtj::with_pool(4).with_split(true);
    /// assert_eq!(engine.splitting(), Some(true));
    /// ```
    pub fn with_split(mut self, on: bool) -> Self {
        self.split = Some(on);
        self
    }

    /// The configured splitting choice, or `None` for the `TRIEJAX_SPLIT`
    /// environment default.
    pub fn splitting(&self) -> Option<bool> {
        self.split
    }

    /// Caps how deep dynamic splits may donate work, overriding the
    /// `TRIEJAX_SPLIT_DEPTH` environment default; see
    /// [`crate::ParLftj::with_split_depth`] for the full protocol. One
    /// CTJ-specific rule: a level being recorded into the PJR cache never
    /// donates its tail (the published entry must hold the level's whole
    /// match list), so splits only fire at depths without a live cache
    /// spec.
    pub fn with_split_depth(mut self, depth: usize) -> Self {
        self.split_depth = Some(depth);
        self
    }

    /// The configured split-depth cap, or `None` for the
    /// `TRIEJAX_SPLIT_DEPTH` environment default.
    pub fn split_depth(&self) -> Option<usize> {
        self.split_depth
    }

    /// The split-depth cap this run will use; see
    /// [`crate::ParLftj::effective_split_depth`].
    ///
    /// # Panics
    ///
    /// Panics when `TRIEJAX_SPLIT_DEPTH` is consulted and set to anything
    /// but a non-negative integer or `"max"`.
    pub fn effective_split_depth(&self) -> usize {
        self.split_depth.unwrap_or_else(env_split_depth)
    }

    /// The splitting choice this run will use: the explicit one if set,
    /// otherwise the `TRIEJAX_SPLIT` environment default (off when the
    /// variable is unset); see [`crate::ParLftj::effective_split`].
    ///
    /// # Panics
    ///
    /// Panics when `TRIEJAX_SPLIT` is consulted and set to anything but a
    /// recognised on/off spelling.
    pub fn effective_split(&self) -> bool {
        self.split.unwrap_or_else(env_split)
    }

    /// The cache configuration this run will use: the explicit one if
    /// set, otherwise unbounded entries with `TRIEJAX_CACHE_CAP` (when
    /// present in the environment) as the shared capacity.
    ///
    /// # Panics
    ///
    /// Panics when `TRIEJAX_CACHE_CAP` is consulted and set to anything
    /// but a non-negative integer — an explicitly configured capacity
    /// that silently fell back to unbounded would defeat its purpose
    /// (e.g. CI pinning a tiny capacity to force the eviction paths).
    pub fn effective_config(&self) -> CtjConfig {
        self.config.unwrap_or_else(|| CtjConfig {
            entry_capacity: None,
            max_entries: env_cache_cap(),
            adaptive: env_cache_adapt(),
        })
    }

    /// Enables or disables the cost-based adaptive cache policy
    /// ([`CtjConfig::adaptive`]) on top of the current configuration,
    /// overriding the `TRIEJAX_CACHE_ADAPT` environment default.
    pub fn with_cache_adapt(mut self, on: bool) -> Self {
        let mut config = self.effective_config();
        config.adaptive = on;
        self.config = Some(config);
        self
    }

    /// Caps the run's wall-clock time; see
    /// [`crate::ParLftj::with_deadline`] for the cancellation contract.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps delivered result rows at `limit`; see
    /// [`crate::ParLftj::with_row_limit`] for the exact-prefix contract.
    pub fn with_row_limit(mut self, limit: u64) -> Self {
        self.row_limit = Some(limit);
        self
    }

    /// Caps charged intermediate tuples — for CTJ that is the rows
    /// recorded into partial-join-result cache entries — at `limit`.
    pub fn with_intermediate_limit(mut self, limit: u64) -> Self {
        self.intermediate_limit = Some(limit);
        self
    }

    /// Ties every run of this engine to `token`; see
    /// [`crate::ParLftj::with_cancel_token`].
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Serves and fills trie builds through `cache`, overriding the
    /// `TRIEJAX_TRIE_CACHE_MB` process default; see
    /// [`crate::ParLftj::with_trie_cache`].
    pub fn with_trie_cache(mut self, cache: std::sync::Arc<TrieCache>) -> Self {
        self.trie_cache = Some(Some(cache));
        self
    }

    /// Disables the cross-query trie cache for this engine even when
    /// `TRIEJAX_TRIE_CACHE_MB` enables one process-wide.
    pub fn without_trie_cache(mut self) -> Self {
        self.trie_cache = Some(None);
        self
    }

    /// The trie cache the next run will consult: the explicit choice if
    /// one was made, otherwise the process-wide
    /// [`TrieCache::global`] default.
    ///
    /// # Panics
    ///
    /// Panics when `TRIEJAX_TRIE_CACHE_MB` is consulted (first call
    /// process-wide) and set to anything but a non-negative integer.
    pub fn effective_trie_cache(&self) -> Option<std::sync::Arc<TrieCache>> {
        match &self.trie_cache {
            Some(choice) => choice.clone(),
            None => TrieCache::global(),
        }
    }

    /// The shared [`RunBudget`] the next run will be governed by, or
    /// `None` for an ungoverned run; see
    /// [`crate::ParLftj::effective_budget`].
    ///
    /// # Panics
    ///
    /// Panics when a consulted environment knob (`TRIEJAX_DEADLINE_MS`,
    /// `TRIEJAX_ROW_LIMIT`) is set to anything but a non-negative integer.
    pub fn effective_budget(&self) -> Option<std::sync::Arc<RunBudget>> {
        compose_budget(
            self.deadline,
            self.row_limit,
            self.intermediate_limit,
            self.cancel.as_ref(),
        )
    }

    /// Runs the query with an explicit [`Tally`] choice; see
    /// [`crate::Lftj::run_tallied`] for the counting/fast trade-off.
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
        self.run_tallied_opt(plan, catalog, None, sink)
    }

    /// Runs the query with the pending mutations in `deltas` folded in;
    /// see [`crate::ParLftj::run_tallied_with`] for the merge semantics
    /// and the frozen fast path. Cache-spec validity is unaffected: PJR
    /// entries are keyed by bindings alone, and a merged view changes
    /// which bindings occur, not what an entry means.
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
        self.run_tallied_opt(plan, catalog, Some(deltas), sink)
    }

    /// Shared budget dispatch of [`run_tallied`](Self::run_tallied) and
    /// [`run_tallied_with`](Self::run_tallied_with).
    fn run_tallied_opt<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: Option<&DeltaMap>,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        match self.effective_budget() {
            // Ungoverned: monomorphize with NoBudget — byte-identical to
            // the pre-governance engine.
            None => self
                .run_budgeted::<T, NoBudget>(plan, catalog, deltas, sink, NoBudget, NoBudget, None),
            Some(shared) => {
                let stats = self.run_budgeted::<T, BudgetHandle>(
                    plan,
                    catalog,
                    deltas,
                    sink,
                    BudgetHandle::driving(shared.clone()),
                    BudgetHandle::worker(shared.clone()),
                    Some(&shared),
                )?;
                match shared.cancelled() {
                    Some(reason) => Err(JoinError::Cancelled {
                        reason,
                        partial: Box::new(stats.to_counting()),
                    }),
                    None => Ok(stats),
                }
            }
        }
    }

    /// Cursor-set dispatch, as `ParLftj::run_budgeted`: frozen plans get
    /// a [`TrieSet`], delta-touching plans a [`MergeSet`].
    #[allow(clippy::too_many_arguments)]
    fn run_budgeted<T: Tally, B: Budget + Clone + Send + Sync>(
        &self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: Option<&DeltaMap>,
        sink: &mut dyn ResultSink,
        driving: B,
        worker: B,
        budget: Option<&RunBudget>,
    ) -> Result<EngineStats<T>, JoinError> {
        let pool = make_pool(self.workers);
        let cache = self.effective_trie_cache();
        // build_on times only actual cold-build work internally, so a
        // query fully served from the cache (or a preloaded store) reports
        // trie_build_ns == 0 exactly.
        match deltas.filter(|d| plan_touches_delta(plan, d)) {
            None => {
                let (tries, hits, ns) = TrieSet::build_on(plan, catalog, &pool, cache.as_deref())?;
                self.run_set_budgeted(
                    plan, catalog, &tries, &pool, hits, ns, sink, driving, worker, budget,
                )
            }
            Some(d) => {
                let (set, hits, ns) =
                    MergeSet::build_on(plan, catalog, d, &pool, cache.as_deref())?;
                self.run_set_budgeted(
                    plan, catalog, &set, &pool, hits, ns, sink, driving, worker, budget,
                )
            }
        }
    }

    /// The engine body, generic over the run's [`Budget`] and the
    /// [`CursorSet`] its shard drivers walk; same private contract as
    /// `ParLftj::run_set_budgeted` — `driving` for the sequential fast
    /// path (charges the row quota at emit), `worker` cloned into every
    /// shard driver (flag-only), `budget` polled by drain and task
    /// wrappers.
    #[allow(clippy::too_many_arguments)]
    fn run_set_budgeted<'s, T: Tally, B: Budget + Clone + Send + Sync, S: CursorSet<'s>>(
        &self,
        plan: &'s CompiledQuery,
        catalog: &Catalog,
        set: &'s S,
        pool: &WorkerPool,
        trie_cache_hits: u64,
        trie_build_ns: u64,
        sink: &mut dyn ResultSink,
        driving: B,
        worker: B,
        budget: Option<&RunBudget>,
    ) -> Result<EngineStats<T>, JoinError> {
        // Splitting needs a spare worker to hand work to, plus either a
        // root domain wide enough to carve or permission to split below
        // the root (where a narrow root domain is irrelevant); otherwise
        // fall back to the static schedule (and its sequential
        // single-shard fast path).
        let depth_cap = self.effective_split_depth();
        let split = self.effective_split()
            && pool.workers() > 1
            && (can_split(plan, set) || depth_cap >= 1);
        let ranges = plan_shards(
            plan,
            catalog,
            set,
            pool.workers(),
            self.granularity.map(NonZeroUsize::get),
            split,
        );
        let config = self.effective_config();

        // With splitting on, even a single seeded range spreads itself
        // across the idle pool; without it, a lone range runs
        // sequentially.
        if !split && ranges.len() <= 1 {
            // Single-shard fast path: one driver on a worker-local store
            // (no stripe locks to pay when nothing is shared). The
            // capacity then bounds live entries by dropping new inserts
            // rather than evicting.
            let mut driver = CtjDriver::<T, LocalPjr, B, S::Cur>::with_store_budget(
                plan,
                set,
                config,
                LocalPjr::with_adaptive(config, plan.arity()),
                driving,
            )?;
            if config.adaptive {
                driver.set_cache_mask(plan_cache_mask(plan, catalog));
            }
            driver.run(sink);
            let mut stats = driver.stats;
            stats.shards = 1;
            stats.trie_build_ns = trie_build_ns;
            stats.trie_cache_hits = trie_cache_hits;
            return Ok(stats);
        }

        // Validate the emission plan up front so shard workers cannot fail.
        head_slots(plan)?;
        // With splitting, every configured worker may end up running a
        // spawned shard; without it, a run never uses more workers than
        // it has planned ranges.
        let workers = if split {
            pool.workers()
        } else {
            pool.workers().min(ranges.len())
        };
        // One cache shared by every worker, striped for the worker count,
        // pre-sized from the plan's entry estimate over the catalog.
        let entries_hint = plan.cache_entries_estimate(|name| catalog.get(name).map(|r| r.len()));
        let mut cache = SharedPjrCache::new(workers, config.max_entries, entries_hint);
        if config.adaptive {
            // Probation state is shared: a depth demoted by one worker is
            // demoted for all of them.
            cache = cache.with_adaptive(plan.arity());
        }
        let cache = cache;
        let cache_mask = config.adaptive.then(|| plan_cache_mask(plan, catalog));
        // One lazily-created driver per worker, addressed by
        // `WorkerCtx::worker`; a slot's mutex is only ever taken by its
        // owning worker during the run. Each driver holds its own handle
        // onto the shared cache.
        #[allow(clippy::type_complexity)]
        let worker_drivers: Vec<
            Mutex<Option<CtjDriver<'_, T, SharedPjrHandle<'_>, B, S::Cur>>>,
        > = (0..workers).map(|_| Mutex::new(None)).collect();
        let new_driver = || {
            let mut d =
                CtjDriver::with_store_budget(plan, set, config, cache.handle(), worker.clone())
                    .expect("emission plan validated before the parallel phase");
            if let Some(mask) = &cache_mask {
                d.set_cache_mask(mask.clone());
            }
            d.emit_passthrough(); // the ShardSink already batches
            d
        };
        let pool_stats = if split {
            let (_, pool_stats) = execute_split(
                pool,
                &ranges,
                plan.arity(),
                depth_cap,
                sink,
                budget,
                |ctx, depth, prefix, min, sup, shard_sink, ctl| {
                    let mut slot = worker_drivers[ctx.worker]
                        .lock()
                        .expect("worker driver poisoned");
                    let driver = slot.get_or_insert_with(new_driver);
                    driver.run_split_at(depth, prefix, min, sup, shard_sink, ctl);
                },
            );
            pool_stats
        } else {
            let (_, pool_stats) = execute_sharded(
                pool,
                &ranges,
                plan.arity(),
                sink,
                budget,
                |ctx, _lane, min, sup, shard_sink| {
                    let mut slot = worker_drivers[ctx.worker]
                        .lock()
                        .expect("worker driver poisoned");
                    let driver = slot.get_or_insert_with(new_driver);
                    driver.run_range(min, sup, shard_sink);
                },
            );
            pool_stats
        };

        // Shard join: fold every worker's accumulated stats into the run
        // total. Cache counters sum cleanly because the shared store
        // already deduped insert races (a raced build is a late hit plus
        // a `cache_races` tick, never a second miss).
        let mut stats = EngineStats::<T>::default();
        for slot in worker_drivers {
            if let Some(driver) = slot.into_inner().expect("worker driver poisoned") {
                stats.merge(&driver.stats);
            }
        }
        // Split shards are shards too: count every task the pool ran.
        stats.shards = pool_stats.tasks as u64;
        stats.steals = pool_stats.steals;
        stats.trie_build_ns = trie_build_ns;
        stats.trie_cache_hits = trie_cache_hits;
        Ok(stats)
    }
}

impl JoinEngine for ParCtj {
    fn name(&self) -> &'static str {
        "par-ctj"
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

/// Reads the default adaptive-cache choice from `TRIEJAX_CACHE_ADAPT`.
/// Off when the variable is unset or empty; panics on junk — an
/// explicitly requested policy that silently fell back to "off" would
/// defeat its purpose (e.g. CI pinning the adaptive paths on).
fn env_cache_adapt() -> bool {
    match std::env::var(CACHE_ADAPT_ENV) {
        Err(_) => false,
        Ok(v) => match v.trim() {
            "" => false,
            "1" | "true" | "on" => true,
            "0" | "false" | "off" => false,
            other => panic!("{CACHE_ADAPT_ENV} must be an on/off spelling, got {other:?}"),
        },
    }
}

/// Reads the default shared-cache capacity from `TRIEJAX_CACHE_CAP`.
/// `None` when the variable is unset or empty; panics on junk (see
/// [`ParCtj::effective_config`]). `0` is valid and disables caching.
fn env_cache_cap() -> Option<usize> {
    let v = std::env::var(CACHE_CAP_ENV).ok()?;
    if v.trim().is_empty() {
        // CI matrices pass "" for "no cap"; treat it as unset.
        return None;
    }
    Some(
        v.trim().parse::<usize>().unwrap_or_else(|_| {
            panic!("{CACHE_CAP_ENV} must be a non-negative integer, got {v:?}")
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, CountSink, Ctj, Lftj};
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
        ];
        for i in 5..40u32 {
            edges.push((i, (i + 1) % 40));
            edges.push((i, (i * 7 + 3) % 40));
        }
        edges
    }

    /// Hub graph: many x-parents funnel into one shared y, so caching
    /// pays off and hit counts are exactly predictable.
    fn hub_edges() -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for x in 0..30u32 {
            edges.push((x, 100));
        }
        for z in 200..220u32 {
            edges.push((100, z));
        }
        edges
    }

    #[test]
    fn agrees_with_sequential_ctj_in_order_for_every_pool_size() {
        let c = catalog(&test_edges());
        for p in Pattern::ALL {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut reference = CollectSink::new();
            Ctj::new().execute(&plan, &c, &mut reference).unwrap();
            for workers in [1, 2, 3, 7, 64] {
                let mut sink = CollectSink::new();
                let stats = ParCtj::with_pool(workers)
                    .execute(&plan, &c, &mut sink)
                    .unwrap();
                assert_eq!(
                    sink.tuples(),
                    reference.tuples(),
                    "{p} with {workers} workers"
                );
                assert_eq!(stats.results as usize, reference.tuples().len());
            }
        }
    }

    #[test]
    fn agrees_with_lftj_too() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        ParCtj::with_pool(3).execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
    }

    /// The tentpole invariant: with one cache shared by all workers, the
    /// parallel hit count matches sequential CTJ's — the per-worker
    /// caches this replaced were structurally capped *below* it (each
    /// worker re-missed on entries a sibling had already built).
    #[test]
    fn shared_cache_hits_match_sequential_ctj() {
        let c = catalog(&hub_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut seq_sink = CountSink::default();
        let seq = Ctj::new().execute(&plan, &c, &mut seq_sink).unwrap();
        let mut par_sink = CountSink::default();
        // Explicitly unbounded so a TRIEJAX_CACHE_CAP test environment
        // cannot shrink the cache under this exact-count assertion.
        let par = ParCtj::with_pool(2)
            .config(CtjConfig::default())
            .execute(&plan, &c, &mut par_sink)
            .unwrap();
        assert_eq!(seq_sink.count(), par_sink.count());
        assert!(par.shards > 1, "hub graph must actually shard");
        assert!(
            par.cache_hits >= seq.cache_hits,
            "shared cache must not lose hits to partitioning: par {} < seq {}",
            par.cache_hits,
            seq.cache_hits
        );
        // One lookup per x-parent; misses count unique entry builds, so
        // the books balance exactly even when workers race.
        assert_eq!(par.cache_hits + par.cache_misses, 30);
        assert_eq!(par.cache_misses, 1, "y=100's entry is built exactly once");
        assert_eq!(par.cache_hits, 29);
        assert_eq!(seq.cache_hits, 29);
    }

    #[test]
    fn bounded_caches_stay_correct_in_parallel() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let mut reference = CollectSink::new();
        Ctj::new().execute(&plan, &c, &mut reference).unwrap();
        let cfg = CtjConfig {
            entry_capacity: Some(1),
            max_entries: Some(2),
            adaptive: false,
        };
        let mut sink = CollectSink::new();
        let stats = ParCtj::with_config(cfg)
            .with_granularity(6)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert!(stats.shards > 1);
    }

    #[test]
    fn tiny_shared_capacity_evicts_and_stays_exact() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let mut reference = CollectSink::new();
        Ctj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let stats = ParCtj::with_pool(2)
            .cache_capacity(2)
            .with_granularity(8)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert!(
            stats.cache_evictions > 0,
            "a 2-entry shared cache must churn on path4"
        );
    }

    #[test]
    fn untallied_parallel_run_matches() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut reference = CollectSink::new();
        Ctj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let stats = ParCtj::with_pool(4)
            .run_tallied::<NoTally>(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert_eq!(stats.memory_accesses(), 0);
    }

    #[test]
    fn explicit_granularity_is_respected() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CountSink::default();
        // The static schedule: a dynamic split (TRIEJAX_SPLIT in the CI
        // legs) adds a shard whenever a worker happens to go idle.
        let stats = ParCtj::with_pool(2)
            .with_granularity(5)
            .with_split(false)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(stats.shards, 5);
        assert_eq!(ParCtj::new().with_granularity(5).granularity(), Some(5));
    }

    #[test]
    fn cache_capacity_builder_sets_an_explicit_config() {
        let engine = ParCtj::with_pool(2).cache_capacity(16);
        assert_eq!(engine.effective_config().max_entries, Some(16));
        let engine = ParCtj::with_config(CtjConfig {
            entry_capacity: Some(3),
            max_entries: None,
            adaptive: false,
        })
        .cache_capacity(5);
        let cfg = engine.effective_config();
        assert_eq!(cfg.entry_capacity, Some(3), "other knobs are kept");
        assert_eq!(cfg.max_entries, Some(5));
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let c = catalog(&[]);
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let mut sink = CountSink::default();
        let stats = ParCtj::with_pool(4).execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.count(), 0);
        assert_eq!(stats.results, 0);
    }

    /// A root domain too narrow to ever carve (< 3 values) must not pay
    /// for the splitting machinery: the run falls back to the static
    /// schedule — and for a domain of one value, its sequential
    /// single-shard fast path (worker-local drop-new cache semantics) —
    /// exactly as if splitting were off.
    #[test]
    fn split_on_a_tiny_root_domain_falls_back_to_the_static_schedule() {
        let c = catalog(&[(0, 1), (1, 0)]);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut reference = CollectSink::new();
        let static_stats = ParCtj::with_pool(4)
            .with_split(false)
            .execute(&plan, &c, &mut reference)
            .unwrap();
        let mut sink = CollectSink::new();
        let stats = ParCtj::with_pool(4)
            .with_split(true)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert_eq!(stats.shards, static_stats.shards, "static schedule");
        assert_eq!(stats.splits, 0);

        // One root value: even the static schedule is a single shard, so
        // a split-requested run takes the sequential fast path.
        let c1 = catalog(&[(0, 1)]);
        let plan1 = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut sink1 = CountSink::default();
        let stats1 = ParCtj::with_pool(4)
            .with_split(true)
            .execute(&plan1, &c1, &mut sink1)
            .unwrap();
        assert_eq!(stats1.shards, 1, "sequential fast path");
    }

    #[test]
    fn missing_relation_is_an_error() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut sink = CountSink::default();
        assert!(ParCtj::new()
            .execute(&plan, &Catalog::new(), &mut sink)
            .is_err());
    }

    #[test]
    fn row_limit_returns_cancelled_with_an_exact_prefix() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut reference = CollectSink::new();
        Ctj::new().execute(&plan, &c, &mut reference).unwrap();
        assert!(reference.tuples().len() > 4);
        for workers in [1, 2, 7] {
            for split in [false, true] {
                let mut sink = CollectSink::new();
                let err = ParCtj::with_pool(workers)
                    .with_split(split)
                    .with_row_limit(4)
                    .execute(&plan, &c, &mut sink)
                    .unwrap_err();
                match err {
                    JoinError::Cancelled { reason, partial } => {
                        assert_eq!(reason, triejax_exec::CancelReason::RowLimit);
                        assert!(partial.results >= 4);
                    }
                    other => panic!("expected Cancelled, got {other:?}"),
                }
                assert_eq!(
                    sink.tuples(),
                    &reference.tuples()[..4],
                    "{workers} workers, split={split}: the delivered rows \
                     must be the exact ordered prefix"
                );
            }
        }
    }

    #[test]
    fn intermediate_budget_cancels_with_a_prefix() {
        let c = catalog(&hub_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut reference = CollectSink::new();
        Ctj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        // The hub entry alone holds 20 match rows, so a budget of 5 must
        // trip while it is being recorded.
        let err = ParCtj::with_pool(2)
            .with_intermediate_limit(5)
            .execute(&plan, &c, &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            JoinError::Cancelled {
                reason: triejax_exec::CancelReason::MemoryBudget,
                ..
            }
        ));
        assert!(
            reference.tuples().starts_with(sink.tuples()),
            "delivered rows stay a prefix after a memory-budget trip"
        );
        assert!(sink.tuples().len() < reference.tuples().len());
    }

    #[test]
    fn pre_fired_token_cancels_before_any_row() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let token = triejax_exec::CancelToken::new();
        token.cancel();
        let mut sink = CollectSink::new();
        let err = ParCtj::with_pool(2)
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
        assert!(sink.tuples().is_empty());
    }

    #[test]
    fn generous_budgets_never_cancel() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut reference = CollectSink::new();
        Ctj::new().execute(&plan, &c, &mut reference).unwrap();
        let mut sink = CollectSink::new();
        let stats = ParCtj::with_pool(4)
            .with_row_limit(u64::MAX)
            .with_deadline(Duration::from_secs(3600))
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(sink.tuples(), reference.tuples());
        assert_eq!(stats.results as usize, reference.tuples().len());
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
        let mut sink = CountSink::default();
        let err = ParCtj::with_pool(2).execute(&plan, &c, &mut sink);
        assert!(matches!(err, Err(JoinError::Plan { .. })));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_workers_panics() {
        let _ = ParCtj::with_pool(0);
    }
}
