//! Streaming-session properties: a [`ResultStream`] must deliver the
//! **exact sequential tuple order** incrementally (equal to a
//! `CollectSink` run of the same plan), truncate to an exact prefix under
//! a row limit, and cancel cooperatively — never hang — when dropped
//! mid-stream. Checked on random graphs across pool sizes and engines.

use proptest::prelude::*;
use triejax_join::Catalog;
use triejax_join::{CancelReason, CollectSink, JoinEngine, JoinError, Lftj, Row, Session};
use triejax_query::{patterns::Pattern, CompiledQuery};
use triejax_relation::{Relation, Trie, TrieCursor};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On any random graph and paper pattern, the pull-based stream
    /// yields exactly the sequential tuple sequence, for every pool size
    /// and on both parallel engines.
    #[test]
    fn streams_equal_sequential_order(
        edges in prop::collection::btree_set((0u32..22, 0u32..22), 1..130),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        let plan = CompiledQuery::compile(&Pattern::PAPER[pattern_idx].query())
            .expect("compiles");
        let reference = sequential(&plan, &catalog);

        for pool in POOL_SIZES {
            let session = Session::new(catalog.clone()).with_pool(pool);
            for ctj in [false, true] {
                let mut handle = session.query(&plan);
                if ctj {
                    handle = handle.with_ctj();
                }
                let mut stream = handle.stream();
                let got: Vec<Row> = stream.by_ref().collect();
                prop_assert_eq!(&got, &reference, "pool={} ctj={}", pool, ctj);
                let stats = stream
                    .outcome()
                    .expect("exhausted stream has an outcome")
                    .as_ref()
                    .expect("clean run");
                prop_assert_eq!(stats.results, reference.len() as u64);
            }
        }
    }

    /// A row limit yields exactly the first `limit` tuples of the
    /// sequential order — a true prefix, never a different subset — for
    /// every pool size.
    #[test]
    fn row_limits_stream_exact_prefixes(
        edges in prop::collection::btree_set((0u32..18, 0u32..18), 1..110),
        limit in 1u64..40,
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        let plan = CompiledQuery::compile(&triejax_query::patterns::cycle3())
            .expect("compiles");
        let reference = sequential(&plan, &catalog);
        let want = &reference[..reference.len().min(limit as usize)];

        for pool in POOL_SIZES {
            let session = Session::new(catalog.clone()).with_pool(pool);
            let stream = session.query(&plan).with_row_limit(limit).stream();
            let got: Vec<Row> = stream.collect();
            prop_assert_eq!(got.as_slice(), want, "pool={}", pool);
        }
    }

    /// Dropping a stream after a partial read cancels the run without
    /// hanging, and the tuples read before the drop are still the exact
    /// sequential prefix, for every pool size.
    #[test]
    fn early_drop_keeps_the_prefix_and_never_hangs(
        edges in prop::collection::btree_set((0u32..22, 0u32..22), 40..130),
        take in 0usize..25,
    ) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let catalog = catalog_from(edges);
        let plan = CompiledQuery::compile(&triejax_query::patterns::path4())
            .expect("compiles");
        let reference = sequential(&plan, &catalog);

        for pool in POOL_SIZES {
            let session = Session::new(catalog.clone()).with_pool(pool);
            let mut stream = session.query(&plan).stream();
            let mut got = Vec::new();
            for _ in 0..take {
                match stream.next() {
                    Some(row) => got.push(row),
                    None => break,
                }
            }
            drop(stream); // must cancel cooperatively, not deadlock
            let want = &reference[..got.len()];
            prop_assert_eq!(got.as_slice(), want, "prefix before drop, pool={}", pool);
        }
    }
}

/// A stream's rows read as slices, equal the sequential engine's
/// `Vec<u32>` tuples, order like them, and convert back into them — also
/// when the head is wider than a row holds inline and the row lives on
/// the heap.
#[test]
fn rows_equal_order_and_round_trip_at_every_width() {
    let catalog = catalog_from((0..30u32).map(|i| (i, (i + 1) % 30)).collect());
    let vars: Vec<String> = (0..=Row::INLINE + 1).map(|i| format!("x{i}")).collect();
    let mut wide = triejax_query::Query::builder("wide_path").head(vars.clone());
    for pair in vars.windows(2) {
        wide = wide.atom("G", pair.to_vec());
    }
    let queries = [
        triejax_query::patterns::path3(),
        wide.build().expect("a path query"),
    ];
    for q in queries {
        let plan = CompiledQuery::compile(&q).expect("compiles");
        let reference = sequential(&plan, &catalog);
        assert_eq!(reference.len(), 30, "{}: one path per start", q.name());
        for pool in POOL_SIZES {
            let session = Session::new(catalog.clone()).with_pool(pool);
            let rows: Vec<Row> = session.query(&plan).stream().collect();
            assert_eq!(rows, reference, "{} pool={pool}", q.name());
            assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "ascending like the tuples"
            );
            for (row, tuple) in rows.into_iter().zip(&reference) {
                assert_eq!(row.len(), plan.arity());
                assert_eq!(&row[..], tuple.as_slice(), "Deref to the values");
                assert_eq!(Vec::from(row), *tuple, "round trip");
            }
        }
    }
}

/// Interleaved concurrent streams on one shared session stay independent:
/// each delivers its own plan's exact sequential order.
#[test]
fn interleaved_streams_on_one_session_stay_independent() {
    let catalog = catalog_from(
        (0..12u32)
            .flat_map(|a| (0..12u32).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect(),
    );
    let cycle = CompiledQuery::compile(&triejax_query::patterns::cycle3()).expect("compiles");
    let path = CompiledQuery::compile(&triejax_query::patterns::path3()).expect("compiles");
    let want_cycle = sequential(&cycle, &catalog);
    let want_path = sequential(&path, &catalog);

    let session = Session::new(catalog).with_pool(4);
    let mut a = session.query(&cycle).stream();
    let mut b = session.query(&path).stream();
    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    // Pull alternately so both producers are live at once.
    loop {
        let ra = a.next();
        let rb = b.next();
        if let Some(r) = ra {
            got_a.push(r);
        }
        if let Some(r) = rb {
            got_b.push(r);
        }
        if got_a.len() == want_cycle.len() && got_b.len() == want_path.len() {
            break;
        }
    }
    assert_eq!(got_a, want_cycle);
    assert_eq!(got_b, want_path);
    assert!(a.next().is_none() && b.next().is_none());
}

/// Sessions seek the root level through a root directory only when the
/// root ids are dense. On ids spread ×1000 no trie has one, and `run()`
/// and `stream()` still deliver the sequential order on every paper
/// pattern and pool size.
#[test]
fn sparse_ids_serve_the_sequential_order() {
    let edges: Vec<(u32, u32)> = (0..14u32)
        .flat_map(|a| (0..14u32).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b && (a * 7 + b) % 3 != 0)
        .map(|(a, b)| (a * 1000, b * 1000))
        .collect();
    let forward = Relation::from_pairs(edges.clone());
    for trie in [
        Trie::build(&forward),
        Trie::build(&forward.permute(&[1, 0])),
    ] {
        assert_eq!(trie.bytes(), trie.words().len() as u64 * 4, "no directory");
    }
    let catalog = catalog_from(edges);
    for pattern in Pattern::PAPER {
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let reference = sequential(&plan, &catalog);
        assert!(!reference.is_empty(), "{pattern:?} has results");
        for pool in [1, 2] {
            let session = Session::new(catalog.clone()).with_pool(pool);
            let mut sink = CollectSink::new();
            session.query(&plan).run(&mut sink).expect("runs");
            assert_eq!(sink.tuples(), &reference[..], "run {pattern:?} pool={pool}");
            let got: Vec<Row> = session.query(&plan).stream().collect();
            assert_eq!(got, reference, "stream {pattern:?} pool={pool}");
        }
    }
}

/// On dense ids every trie keeps leaf bitmaps, so untallied sessions
/// intersect the last variable as word ANDs. `run()` and `stream()` still
/// deliver the sequential order on every paper pattern and pool size, and
/// a row limit still cuts the exact sequential prefix.
#[test]
fn dense_ids_serve_the_sequential_order() {
    let edges: Vec<(u32, u32)> = (0..40u32)
        .flat_map(|a| (0..40u32).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b && (a * 7 + b) % 3 != 0)
        .collect();
    let forward = Relation::from_pairs(edges.clone());
    for trie in [
        Trie::build(&forward),
        Trie::build(&forward.permute(&[1, 0])),
    ] {
        assert!(TrieCursor::new(&trie).has_leaf_bits(), "leaf bitmaps");
    }
    let catalog = catalog_from(edges);
    for pattern in Pattern::PAPER {
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let reference = sequential(&plan, &catalog);
        assert!(!reference.is_empty(), "{pattern:?} has results");
        let limit = reference.len() / 3 + 1;
        for pool in [1, 2] {
            let session = Session::new(catalog.clone()).with_pool(pool);
            let mut sink = CollectSink::new();
            session.query(&plan).run(&mut sink).expect("runs");
            assert_eq!(sink.tuples(), &reference[..], "run {pattern:?} pool={pool}");
            let got: Vec<Row> = session.query(&plan).stream().collect();
            assert_eq!(got, reference, "stream {pattern:?} pool={pool}");
            let mut sink = CollectSink::new();
            let limited = session
                .query(&plan)
                .with_row_limit(limit as u64)
                .run(&mut sink);
            assert!(
                matches!(
                    limited,
                    Err(JoinError::Cancelled {
                        reason: CancelReason::RowLimit,
                        ..
                    })
                ),
                "{pattern:?} stops at the row limit"
            );
            assert_eq!(
                sink.tuples(),
                &reference[..limit],
                "limited run {pattern:?}"
            );
            let got: Vec<Row> = session
                .query(&plan)
                .with_row_limit(limit as u64)
                .stream()
                .collect();
            assert_eq!(got, &reference[..limit], "limited stream {pattern:?}");
        }
    }
}

/// Streams served from a reopened store behave identically to streams on
/// a fresh session — and do zero trie-build work.
#[test]
fn store_served_streams_match_and_skip_builds() {
    let catalog = catalog_from(
        (0..20u32)
            .flat_map(|i| [(i, (i + 1) % 20), (i, (i + 4) % 20), ((i + 9) % 20, i)])
            .collect(),
    );
    let plan = CompiledQuery::compile(&triejax_query::patterns::cycle4()).expect("compiles");
    let reference = sequential(&plan, &catalog);

    let producer = Session::new(catalog).with_pool(4);
    let stored = producer
        .snapshot(std::slice::from_ref(&plan))
        .expect("snapshot");
    let bytes = stored.to_bytes();
    let reopened = triejax_join::StoredCatalog::from_bytes(&bytes).expect("reopen");
    let session = Session::from_stored(reopened).with_pool(4);

    let mut stream = session.query(&plan).stream();
    let got: Vec<Row> = stream.by_ref().collect();
    assert_eq!(got, reference);
    let stats = stream
        .outcome()
        .expect("outcome after exhaustion")
        .as_ref()
        .expect("clean run");
    assert_eq!(stats.trie_build_ns, 0, "store-served stream built nothing");
    assert!(stats.trie_cache_hits > 0);
}
