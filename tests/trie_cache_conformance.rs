//! Conformance suite for the **cross-query trie cache** shared by
//! `ParLftj` and `ParCtj`.
//!
//! The trie cache changes *when tries are built* but must never change
//! *what a query produces*: a warm run (every trie served from the
//! cache) has to stay tuple-for-tuple identical — same tuples, same
//! order — to the cold run that filled it, and to the sequential
//! engines that never cache at all. On top of conformance the suite
//! locks in the properties that make the cache safe to share:
//!
//! * **effectiveness** — the warm run actually hits (`trie_cache_hits`
//!   covers every distinct `(relation, perm)` build of the plan);
//! * **freshness** — replacing a relation under the same catalog name
//!   changes its content fingerprint, so the stale trie is unreachable
//!   and the new data is joined, not the cached old one.

use std::sync::Arc;

use triejax_join::{Catalog, CollectSink, JoinEngine, Lftj, ParCtj, ParLftj, TrieCache};
use triejax_query::{patterns::Pattern, CompiledQuery};
use triejax_relation::Relation;

const POOLS: [usize; 3] = [1, 2, 7];

fn catalog_from(edges: Vec<(u32, u32)>) -> Catalog {
    let mut c = Catalog::new();
    c.insert("G", Relation::from_pairs(edges));
    c
}

/// Hub-heavy graph: enough root keys for multi-partition parallel
/// builds, enough results for order mistakes to show.
fn hub_edges() -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 1..160u32 {
        edges.push((0, i));
        edges.push((i, 0));
        edges.push((i, (i * 7) % 160));
    }
    edges
}

fn reference_tuples(plan: &CompiledQuery, catalog: &Catalog) -> Vec<Vec<u32>> {
    let mut sink = CollectSink::new();
    Lftj::new().execute(plan, catalog, &mut sink).expect("runs");
    sink.tuples().to_vec()
}

/// A cold run fills the cache, a warm run serves every build from it,
/// and both are tuple-for-tuple identical to the sequential reference —
/// for both parallel engines, across pool sizes.
#[test]
fn warm_runs_are_identical_to_cold_and_actually_hit() {
    let catalog = catalog_from(hub_edges());
    for pattern in [Pattern::Cycle3, Pattern::Path3] {
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let reference = reference_tuples(&plan, &catalog);
        let distinct_builds = {
            // Count distinct (relation, perm) pairs the plan needs.
            let mut keys: Vec<_> = plan
                .atom_plans()
                .iter()
                .map(|ap| (ap.relation().to_string(), ap.perm().to_vec()))
                .collect();
            keys.sort();
            keys.dedup();
            keys.len() as u64
        };

        for pool in POOLS {
            let cache = Arc::new(TrieCache::unbounded());

            let mut cold = CollectSink::new();
            let cold_stats = ParLftj::with_pool(pool)
                .with_trie_cache(cache.clone())
                .execute(&plan, &catalog, &mut cold)
                .expect("cold run");
            assert_eq!(cold.tuples(), reference, "{pattern}/pool {pool}: cold");
            assert_eq!(cold_stats.trie_cache_hits, 0, "{pattern}/pool {pool}");
            assert_eq!(cache.insertions(), distinct_builds, "{pattern}/pool {pool}");

            let mut warm = CollectSink::new();
            let warm_stats = ParLftj::with_pool(pool)
                .with_trie_cache(cache.clone())
                .execute(&plan, &catalog, &mut warm)
                .expect("warm run");
            assert_eq!(warm.tuples(), reference, "{pattern}/pool {pool}: warm");
            assert_eq!(
                warm_stats.trie_cache_hits, distinct_builds,
                "{pattern}/pool {pool}: every build must be served"
            );
            assert!(warm_stats.trie_build_ns <= cold_stats.trie_build_ns * 100);

            // The *other* engine shares the same cache: its builds are
            // the same keys, so it starts warm.
            let mut ctj = CollectSink::new();
            let ctj_stats = ParCtj::with_pool(pool)
                .with_trie_cache(cache.clone())
                .execute(&plan, &catalog, &mut ctj)
                .expect("parctj warm run");
            assert_eq!(ctj.tuples(), reference, "{pattern}/pool {pool}: parctj");
            assert_eq!(ctj_stats.trie_cache_hits, distinct_builds);
        }
    }
}

/// Replacing a relation under the same catalog name must not serve the
/// stale trie: the fingerprint key makes the old entry unreachable.
#[test]
fn changed_relation_is_rebuilt_not_served_stale() {
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let cache = Arc::new(TrieCache::unbounded());

    let old = catalog_from(vec![(1, 2), (2, 3)]);
    let mut cold = CollectSink::new();
    ParLftj::with_pool(2)
        .with_trie_cache(cache.clone())
        .execute(&plan, &old, &mut cold)
        .expect("cold run");

    // Same name "G", different content: a stale hit would join old edges.
    let new = catalog_from(vec![(10, 20), (20, 30), (30, 40)]);
    let reference = reference_tuples(&plan, &new);
    let mut fresh = CollectSink::new();
    let stats = ParLftj::with_pool(2)
        .with_trie_cache(cache.clone())
        .execute(&plan, &new, &mut fresh)
        .expect("fresh run");
    assert_eq!(fresh.tuples(), reference, "must join the new data");
    assert_eq!(stats.trie_cache_hits, 0, "no stale fingerprint may hit");
    assert!(
        cache.len() > 1,
        "old and new entries coexist under one name"
    );
}
