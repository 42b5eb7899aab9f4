use triejax_query::CompiledQuery;
use triejax_relation::{Counting, Tally};

use crate::cache::LocalPjr;
use crate::lftj::run_sequential;
use crate::{Catalog, DeltaMap, EngineStats, JoinEngine, JoinError, ResultSink};

/// Configuration of the software partial-join-result cache.
///
/// The capacity defaults to unbounded, matching CTJ's use of "the
/// available system memory" (paper §2.2); the hardware PJR cache in
/// `triejax` has its own fixed SRAM geometry and insertion-buffer
/// overflow rule (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CtjConfig {
    /// Maximum number of live cache entries. For sequential [`Ctj`] this
    /// bounds the worker-local store, which *drops* further insertions;
    /// for [`crate::ParCtj`] it is the total capacity of the shared
    /// sharded cache, which *evicts* (FIFO per stripe) to stay within it.
    pub max_entries: Option<usize>,
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
        self.run(plan, catalog, None, sink)
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
        self.run(plan, catalog, Some(deltas), sink)
    }

    /// The trie-join driver over a worker-local store.
    fn run<T: Tally>(
        &self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: Option<&DeltaMap>,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        run_sequential(plan, catalog, deltas, LocalPjr::new(self.config), sink)
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lftj::Driver;
    use crate::{CollectSink, CountSink, Lftj, TrieSet};
    use triejax_exec::{Budget, NoBudget};
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
    fn max_entries_overflow_discards_but_stays_correct() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let mut unbounded = CollectSink::new();
        let s1 = Ctj::new().execute(&plan, &c, &mut unbounded).unwrap();
        let mut tiny = CollectSink::new();
        let cfg = CtjConfig {
            max_entries: Some(1),
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
            max_entries: Some(0),
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

    /// The CTJ driver: an unbounded worker-local cache, governed by
    /// `budget`.
    fn ctj_driver<'a, B: Budget>(
        plan: &'a CompiledQuery,
        tries: &'a TrieSet,
        budget: B,
    ) -> Driver<'a, Counting, LocalPjr, B> {
        let store = LocalPjr::new(CtjConfig::default());
        Driver::new(plan, tries, store, budget).unwrap()
    }

    #[test]
    fn budgeted_ctj_row_limit_is_an_exact_prefix() {
        use std::sync::Arc;
        use triejax_exec::{BudgetHandle, CancelReason, RunBudget};

        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        ctj_driver(&plan, &tries, NoBudget).run(&mut full);
        assert!(full.tuples().len() > 3);

        let shared = Arc::new(RunBudget::new().with_row_limit(3));
        let mut capped = CollectSink::new();
        let stats =
            ctj_driver(&plan, &tries, BudgetHandle::driving(Arc::clone(&shared))).run(&mut capped);
        assert_eq!(capped.tuples(), &full.tuples()[..3]);
        assert_eq!(stats.results, 3);
        assert_eq!(shared.cancelled(), Some(CancelReason::RowLimit));
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
