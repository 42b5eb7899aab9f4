//! Conformance & stress suite for the **shared sharded PJR cache** of
//! `ParCtj`.
//!
//! The shared cache changes *what is reused* but must never change *what
//! is produced*: whatever the pool size or tally mode, `ParCtj` has to
//! stay tuple-for-tuple identical — same tuples, same order — to
//! sequential `Ctj` and `Lftj`. On top of conformance, the suite locks in
//! the property that motivated sharing — **effectiveness**: the parallel
//! hit count is at least sequential CTJ's (per-worker caches were
//! structurally capped below it).

use proptest::prelude::*;
use triejax_join::{Catalog, CollectSink, Counting, Ctj, JoinEngine, Lftj, NoTally, ParCtj};
use triejax_query::{
    patterns::{self, Pattern},
    CompiledQuery,
};
use triejax_relation::Relation;

const POOLS: [usize; 3] = [1, 2, 7];

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

/// Asserts every (pool, tally) combination of shared-cache `ParCtj` is
/// tuple-for-tuple identical to sequential `Ctj` AND `Lftj`.
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
        for counting in [true, false] {
            let mut engine = ParCtj::with_pool(pool);
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
                "{pattern}: parctj pool={pool} counting={counting}"
            );
            assert_eq!(results as usize, reference.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Uniform random graphs: every pool size and tally mode agrees with
    /// the sequential engines, in emission order.
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

/// The shared cache's hit/miss totals are deterministic even under
/// insert races (a race is reclassified, never re-counted), so the two
/// tally modes must report identical cache stats.
#[test]
fn unbounded_shared_cache_stats_are_tally_mode_independent() {
    let catalog = catalog_from(funnel_edges());
    let plan = CompiledQuery::compile(&patterns::path4()).expect("compiles");
    let mut a = CollectSink::new();
    let counting = ParCtj::with_pool(3)
        .run_tallied::<Counting>(&plan, &catalog, &mut a)
        .expect("runs");
    let mut b = CollectSink::new();
    let fast = ParCtj::with_pool(3)
        .run_tallied::<NoTally>(&plan, &catalog, &mut b)
        .expect("runs");
    assert_eq!(a.tuples(), b.tuples());
    assert_eq!(counting.cache_hits, fast.cache_hits);
    assert_eq!(counting.cache_misses, fast.cache_misses);
    assert_eq!(counting.intermediates, fast.intermediates);
    assert_eq!(fast.memory_accesses(), 0);
}
