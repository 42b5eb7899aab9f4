//! Persistence round-trip properties: a catalog saved through
//! `triejax-store` and re-opened cold must hold **byte-identical** tries
//! and answer every query **tuple-for-tuple identically** — across pool
//! sizes 1/2/7, on both parallel engines — and the paper's Cycle3/Cycle4 queries must run with *zero*
//! trie-build work after a store preload (the acceptance signal that a
//! cold process serves from the file it read). A trie body damaged on disk is
//! found by the first query that needs it, which fails with a typed error,
//! while queries that do not need it keep serving.

use proptest::prelude::*;
use std::sync::Arc;
use triejax_join::{
    Catalog, CollectSink, Counting, JoinEngine, JoinError, Lftj, ParCtj, ParLftj, Session,
    StoredCatalog, TrieCache,
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
        let (a, b) = (a.trie().expect("checks"), b.trie().expect("built"));
        assert_eq!(a.words(), b.words(), "flat buffers must match");
        assert_eq!(a.level_dims(), b.level_dims());
        assert_eq!(*a, *b);
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
/// the in-memory byte path, and a flipped bit is caught by a checksum: in
/// the directory when the file opens, in a trie body by
/// [`StoredCatalog::verify`].
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

    // Flip one bit on disk: opening and verifying must fail loudly, not
    // serve junk.
    let clean = std::fs::read(&path).expect("read");
    for at in [30, clean.len() - 1] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        let err = StoredCatalog::open(&path).and_then(|c| c.verify());
        assert!(
            matches!(err, Err(StoreError::ChecksumMismatch { .. })),
            "byte {at}: {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Saving what was opened writes the file it came from, byte for byte,
/// whether no stored trie was touched (their bodies are copied unread) or
/// some were.
#[test]
fn saving_an_opened_store_rewrites_its_bytes() {
    let catalog = catalog_from(
        (0..16u32)
            .flat_map(|i| [(i, (i + 1) % 16), (i, (i + 5) % 16)])
            .collect(),
    );
    let plans: Vec<CompiledQuery> = [patterns::path3(), patterns::cycle4()]
        .iter()
        .map(|q: &Query| CompiledQuery::compile(q).expect("compiles"))
        .collect();
    let file = Session::new(catalog)
        .with_pool(2)
        .snapshot(&plans)
        .expect("snapshot")
        .to_bytes();
    let opened = StoredCatalog::from_bytes(&file).expect("opens");
    assert_eq!(opened.to_bytes(), file, "nothing touched");
    let session = Session::from_stored(opened).with_pool(2);
    assert_eq!(
        session.snapshot(&[]).expect("packages").to_bytes(),
        file,
        "session holding untouched entries"
    );
    let stats = session
        .query(&plans[0])
        .run(&mut CollectSink::new())
        .expect("serves");
    assert_eq!(stats.store_entries_verified, 1, "path3 reads one trie");
    assert_eq!(
        session.snapshot(&[]).expect("packages").to_bytes(),
        file,
        "one entry touched"
    );
    assert_eq!(
        session.snapshot(&plans).expect("packages").to_bytes(),
        file,
        "every needed entry touched"
    );
}

/// A byte flipped inside the transposed trie's body is found by the first
/// query that needs that trie: Path3, which reads only the identity trie,
/// still serves exact rows with zero builds; Cycle4 fails with a typed
/// error, and with the same error again on a second try, and nothing
/// panics or serves the damaged bytes.
#[test]
fn a_damaged_trie_fails_only_the_queries_that_read_it() {
    let catalog = catalog_from(
        (0..24u32)
            .flat_map(|i| [(i, (i + 1) % 24), (i, (i + 3) % 24), ((i + 5) % 24, i)])
            .collect(),
    );
    let path3 = CompiledQuery::compile(&patterns::path3()).expect("compiles");
    let cycle4 = CompiledQuery::compile(&patterns::cycle4()).expect("compiles");
    assert!(path3.atom_plans().iter().all(|ap| ap.perm() == [0, 1]));
    assert!(cycle4.atom_plans().iter().any(|ap| ap.perm() == [1, 0]));
    let stored = Session::new(catalog.clone())
        .snapshot(&[path3.clone(), cycle4.clone()])
        .expect("snapshot");
    let mut file = stored.to_bytes();
    let transposed = stored
        .tries()
        .iter()
        .find(|t| t.perm == [1, 0])
        .expect("cycle4 stores the transposed trie")
        .trie()
        .expect("built");
    let body: Vec<u8> = transposed
        .words()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let at = file
        .windows(body.len())
        .rposition(|w| w == body.as_slice())
        .expect("the body is in the file");
    file[at + body.len() / 2] ^= 0x04;

    let session =
        Session::from_stored(StoredCatalog::from_bytes(&file).expect("opens")).with_pool(2);
    for _ in 0..2 {
        let mut sink = CollectSink::new();
        let stats = session.query(&path3).run(&mut sink).expect("path3 serves");
        assert_eq!(sink.tuples(), sequential(&path3, &catalog));
        assert_eq!(stats.trie_build_ns, 0, "path3 built nothing");
    }
    let first = session
        .query(&cycle4)
        .run(&mut CollectSink::new())
        .expect_err("cycle4 needs the damaged trie");
    assert!(
        matches!(
            first,
            JoinError::Store {
                ref perm,
                error: StoreError::ChecksumMismatch { .. },
                ..
            } if perm == &[1, 0]
        ),
        "{first:?}"
    );
    let again = session
        .query(&cycle4)
        .run(&mut CollectSink::new())
        .expect_err("still damaged");
    assert_eq!(again, first, "the same error again");
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
