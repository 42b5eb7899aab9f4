//! Conformance & stress suite for the **shared sharded PJR cache** of
//! `ParCtj`.
//!
//! The shared cache changes *what is reused* but must never change *what
//! is produced*: whatever the pool size, total capacity (and therefore
//! eviction churn), or tally mode, `ParCtj` has to stay tuple-for-tuple
//! identical — same tuples, same order — to sequential `Ctj` and `Lftj`.
//! On top of conformance, the suite locks in the two properties that
//! motivated sharing:
//!
//! * **effectiveness** — with an unbounded shared cache, the parallel hit
//!   count is at least sequential CTJ's (per-worker caches were
//!   structurally capped below it);
//! * **churn-safety** — a 2-entry capacity makes every stripe evict
//!   constantly, and results must remain exact while the eviction
//!   counters prove the path actually ran.

use proptest::prelude::*;
use triejax_join::{
    Catalog, CollectSink, Counting, Ctj, CtjConfig, JoinEngine, Lftj, NoTally, ParCtj,
};
use triejax_query::{
    patterns::{self, Pattern},
    CompiledQuery,
};
use triejax_relation::Relation;

const POOLS: [usize; 3] = [1, 2, 7];

/// The capacity ladder: tiny (constant eviction), a small bounded cache,
/// and unbounded. All explicit, so a `TRIEJAX_CACHE_CAP`
/// test environment cannot change what this suite asserts.
fn capacity_ladder() -> [(&'static str, CtjConfig); 3] {
    let tiny = CtjConfig {
        max_entries: Some(2),
    };
    let bounded = CtjConfig {
        max_entries: Some(64),
    };
    [
        ("tiny", tiny),
        ("bounded", bounded),
        ("unbounded", CtjConfig::default()),
    ]
}

fn catalog_from(edges: Vec<(u32, u32)>) -> Catalog {
    let mut c = Catalog::new();
    c.insert("G", Relation::from_pairs(edges));
    c
}

/// Cubing a uniform sample concentrates mass near zero: low vertex ids
/// become heavy hubs — skewed root domains *and* heavily shared cache
/// keys, the regime the shared cache exists for.
fn power_law(raw: u64, n: u32) -> u32 {
    let u = (raw % 1_000_000) as f64 / 1_000_000.0;
    ((u * u * u) * f64::from(n)) as u32
}

/// Asserts every (pool, capacity, tally) combination of shared-cache
/// `ParCtj` is tuple-for-tuple identical to sequential `Ctj` AND `Lftj`.
fn check_cache_conformance(catalog: &Catalog, pattern: Pattern) {
    let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");

    let mut lftj_sink = CollectSink::new();
    Lftj::new()
        .execute(&plan, catalog, &mut lftj_sink)
        .expect("runs");
    let reference = lftj_sink.tuples();

    let mut ctj_sink = CollectSink::new();
    Ctj::new()
        .execute(&plan, catalog, &mut ctj_sink)
        .expect("runs");
    assert_eq!(ctj_sink.tuples(), reference, "{pattern}: sequential ctj");

    for pool in POOLS {
        for (label, config) in capacity_ladder() {
            for counting in [true, false] {
                let mut engine = ParCtj::with_pool(pool).config(config);
                let mut sink = CollectSink::new();
                let results = if counting {
                    engine
                        .run_tallied::<Counting>(&plan, catalog, &mut sink)
                        .expect("runs")
                        .results
                } else {
                    engine
                        .run_tallied::<NoTally>(&plan, catalog, &mut sink)
                        .expect("runs")
                        .results
                };
                assert_eq!(
                    sink.tuples(),
                    reference,
                    "{pattern}: parctj pool={pool} cap={label} counting={counting}"
                );
                assert_eq!(results as usize, reference.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Uniform random graphs: every pool size, capacity, and tally mode
    /// agrees with the sequential engines, in emission order.
    #[test]
    fn shared_cache_parctj_conforms_on_random_graphs(
        edges in prop::collection::btree_set((0u32..22, 0u32..22), 1..130),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        check_cache_conformance(&catalog, Pattern::PAPER[pattern_idx]);
    }

    /// Power-law graphs: hub-heavy root domains make workers race for the
    /// same hot cache keys while work stealing rebalances the shards —
    /// the adversarial regime for first-writer-wins insert resolution.
    #[test]
    fn shared_cache_parctj_conforms_on_skewed_graphs(
        raw in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000), 20..150),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(a, b)| (power_law(a, 30), (power_law(b, 30) + 1) % 31))
            .filter(|(a, b)| a != b)
            .collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        check_cache_conformance(&catalog, Pattern::PAPER[pattern_idx]);
    }
}

/// A layered funnel: many roots feed few hubs at every cached depth, so
/// partial-join results replay constantly — the repeated-subpattern
/// workload where the PJR cache is the whole ballgame.
fn funnel_edges() -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for x in 0..40u32 {
        edges.push((x, 100 + x % 4)); // 40 roots -> 4 hubs
    }
    for y in 100..104u32 {
        for z in 200..206u32 {
            edges.push((y, z)); // each hub -> 6 mid vertices
        }
    }
    for z in 200..206u32 {
        for w in 300..310u32 {
            edges.push((z, w)); // each mid -> 10 leaves
        }
    }
    edges
}

/// Cache-effectiveness regression: with one cache shared by all workers,
/// the parallel hit count must be **at least** sequential CTJ's. The
/// per-worker caches this design replaced could not satisfy this — each
/// worker re-built entries its siblings already had, so parallel hits
/// were structurally capped below sequential (strictly below, whenever
/// two workers touched the same key).
#[test]
fn shared_cache_hit_count_is_at_least_sequential_ctjs() {
    let catalog = catalog_from(funnel_edges());
    let plan = CompiledQuery::compile(&patterns::path4()).expect("compiles");

    let mut seq_sink = CollectSink::new();
    let seq = Ctj::new()
        .execute(&plan, &catalog, &mut seq_sink)
        .expect("runs");
    assert!(seq.cache_hits > 0, "the workload must exercise the cache");

    for pool in [2, 3, 7] {
        let mut par_sink = CollectSink::new();
        let par = ParCtj::with_pool(pool)
            .config(CtjConfig::default()) // explicitly unbounded
            .execute(&plan, &catalog, &mut par_sink)
            .expect("runs");
        assert_eq!(par_sink.tuples(), seq_sink.tuples());
        assert!(par.shards > 1, "the funnel must actually shard");
        assert!(
            par.cache_hits >= seq.cache_hits,
            "pool={pool}: shared cache lost hits to partitioning: \
             par {} < seq {}",
            par.cache_hits,
            seq.cache_hits
        );
        // Race-deduped accounting keeps the books exact: every cacheable
        // lookup is a hit or a miss, and misses count unique builds, so
        // the totals match the sequential run precisely.
        assert_eq!(
            par.cache_hits + par.cache_misses,
            seq.cache_hits + seq.cache_misses,
            "pool={pool}: lookup totals must match the sequential run"
        );
    }
}

/// With an unbounded shared cache the hit/miss totals are deterministic
/// even under insert races (a race is reclassified, never re-counted), so
/// the two tally modes must report identical cache stats.
#[test]
fn unbounded_shared_cache_stats_are_tally_mode_independent() {
    let catalog = catalog_from(funnel_edges());
    let plan = CompiledQuery::compile(&patterns::path4()).expect("compiles");
    let mut a = CollectSink::new();
    let counting = ParCtj::with_pool(3)
        .config(CtjConfig::default())
        .run_tallied::<Counting>(&plan, &catalog, &mut a)
        .expect("runs");
    let mut b = CollectSink::new();
    let fast = ParCtj::with_pool(3)
        .config(CtjConfig::default())
        .run_tallied::<NoTally>(&plan, &catalog, &mut b)
        .expect("runs");
    assert_eq!(a.tuples(), b.tuples());
    assert_eq!(counting.cache_hits, fast.cache_hits);
    assert_eq!(counting.cache_misses, fast.cache_misses);
    assert_eq!(counting.intermediates, fast.intermediates);
    assert_eq!(fast.memory_accesses(), 0);
}

/// Eviction stress: a 2-entry total capacity makes every stripe evict on
/// nearly every publish. Results must stay exact and the eviction
/// counters must prove the churn path ran — this is the path a
/// happy-path-only suite never touches.
#[test]
fn constant_eviction_keeps_results_exact() {
    // Deterministic scrambled graph: enough distinct cache keys that a
    // 2-entry cache cannot hold even one stripe's working set.
    let mut edges = Vec::new();
    for i in 0..60u32 {
        edges.push((i, (i * 17 + 5) % 60));
        edges.push((i, (i * 31 + 11) % 60));
        edges.push(((i * 13 + 7) % 60, i));
    }
    let catalog = catalog_from(edges);

    for pattern in [Pattern::Path3, Pattern::Path4, Pattern::Cycle4] {
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let mut reference = CollectSink::new();
        Ctj::new()
            .execute(&plan, &catalog, &mut reference)
            .expect("runs");

        for counting in [true, false] {
            let mut engine = ParCtj::with_pool(2).cache_capacity(2).with_granularity(8);
            let mut sink = CollectSink::new();
            let evictions = if counting {
                let stats = engine
                    .run_tallied::<Counting>(&plan, &catalog, &mut sink)
                    .expect("runs");
                assert_eq!(stats.shards, 8, "{pattern}: stress must shard");
                stats.cache_evictions
            } else {
                engine
                    .run_tallied::<NoTally>(&plan, &catalog, &mut sink)
                    .expect("runs")
                    .cache_evictions
            };
            assert_eq!(
                sink.tuples(),
                reference.tuples(),
                "{pattern}: eviction churn changed the result stream"
            );
            assert!(
                evictions > 0,
                "{pattern}: a 2-entry cache must evict on this workload"
            );
        }
    }
}

/// Capacity zero disables caching entirely and must still be exact (and
/// report zero hits — nothing can be stored, so nothing can replay).
#[test]
fn zero_capacity_shared_cache_is_exact_and_hitless() {
    let catalog = catalog_from(funnel_edges());
    let plan = CompiledQuery::compile(&patterns::path4()).expect("compiles");
    let mut reference = CollectSink::new();
    Lftj::new()
        .execute(&plan, &catalog, &mut reference)
        .expect("runs");
    let mut sink = CollectSink::new();
    let stats = ParCtj::with_pool(2)
        .cache_capacity(0)
        .execute(&plan, &catalog, &mut sink)
        .expect("runs");
    assert_eq!(sink.tuples(), reference.tuples());
    assert_eq!(stats.cache_hits, 0);
    assert!(stats.cache_overflows > 0, "builds are dropped, not stored");
}
