//! Persistence round-trip properties: a catalog saved through
//! `triejax-store` and re-opened cold must hold **byte-identical** tries
//! and answer every query **tuple-for-tuple identically** — across pool
//! sizes 1/2/7, on both parallel engines — and the paper's Cycle3/Cycle4 queries must run with *zero*
//! trie-build work after a store preload (the acceptance signal that a
//! cold process serves in O(bytes-read)).

use proptest::prelude::*;
use std::sync::Arc;
use triejax_join::{
    Catalog, CollectSink, Counting, JoinEngine, Lftj, ParCtj, ParLftj, Session, StoredCatalog,
    TrieCache,
};
use triejax_query::{patterns, CompiledQuery, Query};
use triejax_relation::{Relation, Trie};
use triejax_store::StoreError;

const POOL_SIZES: [usize; 3] = [1, 2, 7];

fn catalog_from(edges: Vec<(u32, u32)>) -> Catalog {
    let mut c = Catalog::new();
    c.insert("G", Relation::from_pairs(edges));
    c
}

fn sequential(plan: &CompiledQuery, catalog: &Catalog) -> Vec<Vec<u32>> {
    let mut sink = CollectSink::new();
    Lftj::new().execute(plan, catalog, &mut sink).expect("runs");
    sink.tuples().to_vec()
}

/// Snapshot the catalog + the tries every plan needs, push it through the
/// byte format, and reopen — the cold-process path, minus the filesystem.
fn save_open(session: &Session, plans: &[CompiledQuery]) -> Session {
    let stored = session.snapshot(plans).expect("snapshot");
    let bytes = stored.to_bytes();
    let reopened = StoredCatalog::from_bytes(&bytes).expect("reopen");
    Session::from_stored(reopened)
}

/// Every stored trie must survive the byte format bit-for-bit: same flat
/// word buffer, same offset table, same tuples.
fn assert_tries_byte_identical(stored: &StoredCatalog) {
    let bytes = stored.to_bytes();
    let reopened = StoredCatalog::from_bytes(&bytes).expect("valid bytes");
    assert_eq!(reopened.tries().len(), stored.tries().len());
    for (a, b) in reopened.tries().iter().zip(stored.tries()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.perm, b.perm);
        assert_eq!(a.trie.words(), b.trie.words(), "flat buffers must match");
        assert_eq!(a.trie.level_dims(), b.trie.level_dims());
        assert_eq!(*a.trie, *b.trie);
    }
}

/// Runs `plan` on a store-preloaded cache across every pool size and
/// both engines; each run must be tuple-identical to sequential LFTJ and
/// do zero trie-build work.
fn check_store_served_runs(plan: &CompiledQuery, catalog: &Catalog, stored: &StoredCatalog) {
    let reference = sequential(plan, catalog);
    for pool in POOL_SIZES {
        for ctj in [false, true] {
            // A fresh preloaded cache per run: every trie must come from
            // the store, none from a previous run's build.
            let cache = Arc::new(TrieCache::unbounded());
            cache.preload(stored);
            let mut sink = CollectSink::new();
            let stats = if ctj {
                ParCtj::with_pool(pool)
                    .with_trie_cache(Arc::clone(&cache))
                    .run_tallied::<Counting>(plan, catalog, &mut sink)
                    .expect("runs")
            } else {
                ParLftj::with_pool(pool)
                    .with_trie_cache(Arc::clone(&cache))
                    .run_tallied::<Counting>(plan, catalog, &mut sink)
                    .expect("runs")
            };
            let label = format!("pool={pool} ctj={ctj}");
            assert_eq!(sink.tuples(), reference, "{label}: tuples");
            assert_eq!(
                stats.trie_build_ns, 0,
                "{label}: store-served run must do zero build work"
            );
            assert!(stats.trie_cache_hits > 0, "{label}: no store hits");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random graphs: snapshot → bytes → reopen preserves every trie
    /// bit-for-bit and every query result tuple-for-tuple, for every pool
    /// size and engine.
    #[test]
    fn save_open_is_lossless_on_random_graphs(
        edges in prop::collection::btree_set((0u32..20, 0u32..20), 1..120),
        pattern_idx in 0usize..patterns::Pattern::PAPER.len(),
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        let plan = CompiledQuery::compile(
            &patterns::Pattern::PAPER[pattern_idx].query(),
        ).expect("compiles");

        let session = Session::new(catalog.clone()).with_pool(2);
        let stored = session.snapshot(std::slice::from_ref(&plan)).expect("snapshot");
        assert_tries_byte_identical(&stored);
        check_store_served_runs(&plan, &catalog, &stored);
    }
}

/// The acceptance scenario: a saved catalog re-opened "in a fresh
/// process" (fresh session, fresh cache, nothing but the stored bytes)
/// answers the paper's Cycle3 and Cycle4 queries with zero
/// `Trie::build`/`par_build` work and identical tuples.
#[test]
fn cycle3_cycle4_serve_with_zero_builds_after_reopen() {
    let catalog = catalog_from(
        (0..24u32)
            .flat_map(|i| [(i, (i + 1) % 24), (i, (i + 3) % 24), ((i + 5) % 24, i)])
            .collect(),
    );
    let plans: Vec<CompiledQuery> = [patterns::cycle3(), patterns::cycle4()]
        .iter()
        .map(|q: &Query| CompiledQuery::compile(q).expect("compiles"))
        .collect();

    let producer = Session::new(catalog.clone()).with_pool(4);
    let reopened = save_open(&producer, &plans).with_pool(4);

    for plan in &plans {
        let expect = sequential(plan, &catalog);
        let mut sink = CollectSink::new();
        let stats = reopened.query(plan).run(&mut sink).expect("serves");
        assert_eq!(sink.tuples(), expect, "reopened results must be identical");
        assert_eq!(
            stats.trie_build_ns, 0,
            "a reopened catalog must answer with zero trie builds"
        );
        assert!(stats.trie_cache_hits > 0, "tries must come from the store");
    }
    // Only lookups hit the session cache: zero insertions after reopening
    // beyond the preload, i.e. no query built anything behind our back.
    let preloaded = reopened.trie_cache().insertions();
    assert_eq!(
        preloaded,
        producer.trie_cache().insertions(),
        "reopened cache holds exactly the stored tries"
    );
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues byte-serial FNV-1a, the hash of store format versions 1 and 2.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What an earlier build wrote for `stored` as format `version` (1 or 2):
/// the same payload — without the delta section for version 1 — with every
/// trie keyed by the FNV-1a fingerprint of its relation (arity as a `u64`,
/// then the row words), under an FNV-1a checksum.
fn legacy_file(stored: &StoredCatalog, version: u32) -> Vec<u8> {
    let mut old = StoredCatalog::new();
    for (name, rel) in stored.relations() {
        old.insert_relation(name.clone(), rel.clone());
    }
    for t in stored.tries() {
        let (_, rel) = stored
            .relations()
            .iter()
            .find(|(name, rel)| *name == t.name && rel.fingerprint() == t.fingerprint)
            .expect("every stored trie indexes a stored relation");
        let arity = fnv1a64(FNV_OFFSET, &(rel.arity() as u64).to_le_bytes());
        let legacy = rel
            .values()
            .iter()
            .fold(arity, |h, v| fnv1a64(h, &v.to_le_bytes()));
        old.insert_trie(t.name.clone(), legacy, t.perm.clone(), Arc::clone(&t.trie));
    }
    for (name, delta) in stored.deltas() {
        old.insert_delta(name.clone(), delta.clone());
    }
    let mut payload = old.to_bytes().split_off(28);
    if version == 1 {
        assert!(stored.deltas().is_empty(), "version 1 has no delta section");
        payload.truncate(payload.len() - 8);
    }
    let mut file = b"TJXSTORE".to_vec();
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&fnv1a64(FNV_OFFSET, &payload).to_le_bytes());
    file.extend_from_slice(&payload);
    file
}

/// Files written by earlier builds — version 1, and version 2 with a
/// pending delta — open with their legacy checksums and fingerprints, and
/// Cycle3/Cycle4 over them run with zero trie builds: the reader re-keys
/// their tries to the current fingerprint.
#[test]
fn legacy_files_serve_cycle3_cycle4_with_zero_builds() {
    let catalog = catalog_from(
        (0..24u32)
            .flat_map(|i| [(i, (i + 1) % 24), (i, (i + 3) % 24), ((i + 5) % 24, i)])
            .collect(),
    );
    let plans: Vec<CompiledQuery> = [patterns::cycle3(), patterns::cycle4()]
        .iter()
        .map(|q: &Query| CompiledQuery::compile(q).expect("compiles"))
        .collect();
    for version in [1, 2] {
        let producer = Session::new(catalog.clone()).with_pool(2);
        if version == 2 {
            // A pending delta on a relation the queries do not read, so
            // their tries are the stored ones and nothing else.
            let h = Relation::from_pairs(vec![(1, 2), (2, 3)]);
            let none = Relation::new(2).expect("arity 2");
            producer.apply("H", &h, &none).expect("applies");
        }
        let stored = producer.snapshot(&plans).expect("snapshot");
        let file = legacy_file(&stored, version);
        let reopened = StoredCatalog::from_bytes(&file)
            .unwrap_or_else(|e| panic!("version {version} does not open: {e}"));
        assert_eq!(reopened.deltas(), stored.deltas());
        let reopened = Session::from_stored(reopened).with_pool(2);
        for plan in &plans {
            let mut sink = CollectSink::new();
            let stats = reopened.query(plan).run(&mut sink).expect("serves");
            assert_eq!(
                sink.tuples(),
                sequential(plan, &catalog),
                "version {version}"
            );
            assert_eq!(
                stats.trie_build_ns, 0,
                "version {version}: the re-keyed stored tries serve"
            );
            assert!(stats.trie_cache_hits > 0);
        }
    }
}

/// A checksum-valid file holding a trie filed under a permutation that is
/// not one of its own levels fails when it opens, rather than panicking (or
/// mis-joining) in the middle of a query.
#[test]
fn a_trie_under_a_foreign_perm_fails_at_open() {
    let edges = Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
    let unary = Relation::from_tuples(1, vec![vec![0u32], vec![1], vec![2]]).expect("unary");
    let mut stored = StoredCatalog::new();
    stored.insert_trie(
        "G",
        edges.fingerprint(),
        vec![0, 1],
        Arc::new(Trie::build(&unary)),
    );
    stored.insert_relation("G", edges);
    let path =
        std::env::temp_dir().join(format!("triejax_foreign_perm_{}.tjx", std::process::id()));
    stored.save(&path).expect("save");
    let opened = Session::open(&path);
    std::fs::remove_file(&path).ok();
    let err = opened.expect_err("the file must not open");
    assert!(matches!(err, StoreError::Malformed { .. }), "{err:?}");
}

/// Stale-by-fingerprint: after the base data changes, a preloaded store
/// never serves the old tries — queries rebuild and stay correct.
#[test]
fn changed_data_makes_stored_tries_unreachable() {
    let old = catalog_from((0..12u32).map(|i| (i, (i + 1) % 12)).collect());
    let plan = CompiledQuery::compile(&patterns::cycle3()).expect("compiles");
    let producer = Session::new(old).with_pool(2);
    let stored = producer
        .snapshot(std::slice::from_ref(&plan))
        .expect("snapshot");

    // Same relation name, different content.
    let new_catalog = catalog_from(
        (0..12u32)
            .flat_map(|i| [(i, (i + 1) % 12), (i, (i + 4) % 12)])
            .collect(),
    );
    let cache = Arc::new(TrieCache::unbounded());
    cache.preload(&stored);
    let mut sink = CollectSink::new();
    let stats = ParLftj::with_pool(2)
        .with_trie_cache(Arc::clone(&cache))
        .run_tallied::<Counting>(&plan, &new_catalog, &mut sink)
        .expect("runs");
    assert_eq!(stats.trie_cache_hits, 0, "stale tries must be unreachable");
    assert!(stats.trie_build_ns > 0, "the query rebuilt fresh tries");
    assert_eq!(sink.tuples(), sequential(&plan, &new_catalog));
}

/// A store file on disk round-trips through `save`/`open` exactly like
/// the in-memory byte path, and a flipped bit is caught by the checksum.
#[test]
fn on_disk_round_trip_and_corruption_detection() {
    let catalog = catalog_from((0..10u32).map(|i| (i, (i + 1) % 10)).collect());
    let plan = CompiledQuery::compile(&patterns::cycle3()).expect("compiles");
    let session = Session::new(catalog).with_pool(2);
    let stored = session
        .snapshot(std::slice::from_ref(&plan))
        .expect("snapshot");

    let path = std::env::temp_dir().join(format!("triejax_roundtrip_{}.tjx", std::process::id()));
    stored.save(&path).expect("save");
    let reopened = StoredCatalog::open(&path).expect("open");
    assert_eq!(reopened.to_bytes(), stored.to_bytes());

    // Flip one payload bit on disk: open must fail loudly, not serve junk.
    let mut bytes = std::fs::read(&path).expect("read");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write");
    assert!(
        StoredCatalog::open(&path).is_err(),
        "corruption must be caught"
    );
    std::fs::remove_file(&path).ok();
}

/// Tries built by different pool sizes snapshot to identical bytes — the
/// store inherits `par_build`'s byte-identical guarantee, so baselines
/// produced anywhere gate anywhere.
#[test]
fn snapshots_are_identical_across_pool_sizes() {
    let catalog = catalog_from(
        (0..30u32)
            .flat_map(|i| [(i % 7, i % 11), (i % 11, i % 5)])
            .filter(|(a, b)| a != b)
            .collect(),
    );
    let plan = CompiledQuery::compile(&patterns::clique4()).expect("compiles");
    let mut reference: Option<Vec<u8>> = None;
    for pool in POOL_SIZES {
        let session = Session::new(catalog.clone()).with_pool(pool);
        let bytes = session
            .snapshot(std::slice::from_ref(&plan))
            .expect("snapshot")
            .to_bytes();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(&bytes, r, "pool={pool} produced different bytes"),
        }
    }
}

/// Byte-identity also holds for tries reconstructed through
/// `Trie::from_parts` directly (the layer the store is built on).
#[test]
fn trie_from_parts_round_trips_paper_shapes() {
    for q in [patterns::cycle3(), patterns::cycle4(), patterns::clique4()] {
        let plan = CompiledQuery::compile(&q).expect("compiles");
        let catalog = catalog_from(
            (0..16u32)
                .flat_map(|i| [(i, (i + 1) % 16), (i, (i + 6) % 16)])
                .collect(),
        );
        for ap in plan.atom_plans() {
            let rel = catalog
                .get(ap.relation())
                .expect("exists")
                .permute(ap.perm());
            let trie = Trie::build(&rel);
            let rebuilt = Trie::from_parts(
                trie.words().to_vec(),
                &trie.level_dims(),
                trie.tuple_count(),
            )
            .expect("valid parts");
            assert_eq!(rebuilt, trie);
        }
    }
}
