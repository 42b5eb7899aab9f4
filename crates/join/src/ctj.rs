use crate::TrieJoin;

/// Cached TrieJoin (Kalinsky, Etsion, Kimelfeld — EDBT'17): LeapFrog
/// TrieJoin extended with a partial-join-result cache, the algorithm
/// TrieJax implements in hardware (paper Figure 4).
///
/// At every depth with a valid [`triejax_query::CacheSpec`], the engine
/// keys the list of matching `(value, index)` pairs by the bindings of the
/// spec's key depths. A later visit with the same key bindings replays the
/// list instead of recomputing the leapfrog intersection.
///
/// The sequential CTJ preset of the one trie-join engine: [`crate::Lftj`]
/// with the cache switched on. Its cache is unbounded, matching CTJ's use
/// of "the available system memory" (paper §2.2). The hardware PJR cache
/// in `triejax` has its own fixed SRAM geometry and insertion-buffer
/// overflow rule (§3.5).
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
pub type Ctj = TrieJoin<true, false>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Pjr;
    use crate::lftj::Driver;
    use crate::{Catalog, CollectSink, CountSink, JoinEngine, Lftj, TrieSet};
    use triejax_exec::BudgetHandle;
    use triejax_query::patterns::{self, Pattern};
    use triejax_query::CompiledQuery;
    use triejax_relation::{Counting, Relation};

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
    fn ctj_driver<'a>(
        plan: &'a CompiledQuery,
        tries: &'a TrieSet,
        budget: Option<BudgetHandle>,
    ) -> Driver<'a, Counting> {
        Driver::new(plan, tries, Some(Pjr::local()), budget).unwrap()
    }

    #[test]
    fn budgeted_ctj_row_limit_is_an_exact_prefix() {
        use std::sync::Arc;
        use triejax_exec::{CancelReason, RunBudget};

        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();

        let mut full = CollectSink::new();
        ctj_driver(&plan, &tries, None).run(&mut full);
        assert!(full.tuples().len() > 3);

        let shared = Arc::new(RunBudget::new().with_row_limit(3));
        let mut capped = CollectSink::new();
        let handle = BudgetHandle::driving(Arc::clone(&shared));
        let stats = ctj_driver(&plan, &tries, Some(handle)).run(&mut capped);
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
