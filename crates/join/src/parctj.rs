use crate::options::RunOptions;
use crate::parlftj::parallel_engine;
use crate::CtjConfig;

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
/// `ParCtj` is [`crate::ParLftj`] with the cache switched on: the same
/// engine, builders, scheduling and emission — plan-seeded root-range
/// shards on the work-stealing pool, [`crate::ShardSink`] batches through
/// an order-preserving [`triejax_exec::OrderedMerge`]. The merged stream
/// is tuple-for-tuple identical to sequential [`crate::Ctj`] (and
/// [`crate::Lftj`]) — same tuples, same order. The cache capacity below
/// adds to the shared knobs. An unset capacity resolves from
/// `TRIEJAX_CACHE_CAP` when the query runs (unset = unbounded).
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
#[derive(Debug, Clone)]
pub struct ParCtj {
    opts: RunOptions,
}

parallel_engine!(ParCtj, "par-ctj", ctj: true);

impl ParCtj {
    /// Engine with an explicit cache configuration
    /// ([`CtjConfig::max_entries`] is the shared cache's *total*
    /// capacity). An explicit config — even the default unbounded one —
    /// sets the capacity, overriding `TRIEJAX_CACHE_CAP`.
    pub fn with_config(config: CtjConfig) -> Self {
        Self::new().config(config)
    }

    /// Sets the cache configuration, keeping the scheduling knobs; see
    /// [`with_config`](Self::with_config).
    pub fn config(mut self, config: CtjConfig) -> Self {
        self.opts.max_entries = Some(config.max_entries);
        self
    }

    /// Sets the shared cache's total entry capacity (`0` disables
    /// caching).
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.opts.max_entries = Some(Some(entries));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, CollectSink, CountSink, Ctj, JoinEngine, JoinError, Lftj};
    use std::time::Duration;
    use triejax_query::patterns::{self, Pattern};
    use triejax_query::CompiledQuery;
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
            max_entries: Some(2),
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
        let stats = ParCtj::with_pool(2)
            .with_granularity(5)
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(stats.shards, 5);
    }

    #[test]
    fn cache_capacity_builder_sets_an_explicit_config() {
        let unset = |_: &str| None;
        let engine = ParCtj::with_pool(2).cache_capacity(16);
        assert_eq!(engine.opts.cache_config(&unset).max_entries, Some(16));
        let engine = ParCtj::with_config(CtjConfig { max_entries: None }).cache_capacity(5);
        assert_eq!(engine.opts.cache_config(&unset).max_entries, Some(5));
    }

    #[test]
    fn row_limit_returns_cancelled_with_an_exact_prefix() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut reference = CollectSink::new();
        Ctj::new().execute(&plan, &c, &mut reference).unwrap();
        assert!(reference.tuples().len() > 4);
        for workers in [1, 2, 7] {
            let mut sink = CollectSink::new();
            let err = ParCtj::with_pool(workers)
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
                "{workers} workers: the delivered rows must be the exact \
                 ordered prefix"
            );
        }
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
    #[should_panic(expected = "positive")]
    fn zero_workers_panics() {
        let _ = ParCtj::with_pool(0);
    }
}
