//! The incremental-maintenance differential battery: a session that has
//! absorbed an arbitrary sequence of insert/delete batches (overlapping
//! the base, re-inserting tombstoned rows, deleting never-present rows)
//! must answer every paper pattern **tuple-for-tuple, in order** like a
//! catalog rebuilt from scratch over the merged view — through every
//! trie engine (sequential LFTJ/CTJ and the pool engines at sizes 1/2/7,
//! both tally modes), and at **every compaction
//! threshold**: eager (ratio 0), the default 0.5, and never (∞) must all
//! produce the same stream.

use std::collections::BTreeSet;

use proptest::prelude::*;
use triejax_join::{
    Catalog, CollectSink, Counting, Ctj, DeltaMap, JoinEngine, Lftj, NoTally, ParCtj, ParLftj, Row,
    Session,
};
use triejax_query::{patterns::Pattern, CompiledQuery};
use triejax_relation::Relation;

const POOL_SIZES: [usize; 3] = [1, 2, 7];

/// Compaction thresholds the battery replays every scenario under: eager,
/// aggressive, the default, lazy, and disabled. The answer must never
/// depend on when (or whether) deltas fold into their base.
const COMPACT_RATIOS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, f64::INFINITY];

type Edge = (u32, u32);

fn relation_of(edges: &BTreeSet<Edge>) -> Relation {
    Relation::from_pairs(edges.iter().copied())
}

/// Ground truth: a fresh catalog over exactly `edges`, queried by the
/// sequential reference engine.
fn rebuilt_reference(edges: &BTreeSet<Edge>, plan: &CompiledQuery) -> Vec<Vec<u32>> {
    let mut catalog = Catalog::new();
    catalog.insert("G", relation_of(edges));
    let mut sink = CollectSink::new();
    Lftj::new()
        .execute(plan, &catalog, &mut sink)
        .expect("runs");
    sink.tuples().to_vec()
}

/// Runs `plan` over `catalog` + `deltas` through every engine and checks
/// each stream against `expect`.
fn check_every_engine(
    catalog: &Catalog,
    deltas: &DeltaMap,
    plan: &CompiledQuery,
    expect: &[Vec<u32>],
    context: &str,
) {
    macro_rules! check_seq {
        ($name:literal, $engine:expr) => {
            for counting in [true, false] {
                let mut sink = CollectSink::new();
                if counting {
                    $engine
                        .run_tallied_with::<Counting>(plan, catalog, deltas, &mut sink)
                        .expect("runs");
                } else {
                    $engine
                        .run_tallied_with::<NoTally>(plan, catalog, deltas, &mut sink)
                        .expect("runs");
                }
                assert_eq!(
                    sink.tuples(),
                    expect,
                    "{context}: {} counting={counting}",
                    $name
                );
            }
        };
    }
    check_seq!("lftj", Lftj::new());
    check_seq!("ctj", Ctj::new());

    for pool in POOL_SIZES {
        for counting in [true, false] {
            let mut sink = CollectSink::new();
            let mut lftj = ParLftj::with_pool(pool);
            if counting {
                lftj.run_tallied_with::<Counting>(plan, catalog, deltas, &mut sink)
                    .expect("runs");
            } else {
                lftj.run_tallied_with::<NoTally>(plan, catalog, deltas, &mut sink)
                    .expect("runs");
            }
            assert_eq!(
                sink.tuples(),
                expect,
                "{context}: parlftj pool={pool} counting={counting}"
            );

            let mut sink = CollectSink::new();
            let mut ctj = ParCtj::with_pool(pool);
            if counting {
                ctj.run_tallied_with::<Counting>(plan, catalog, deltas, &mut sink)
                    .expect("runs");
            } else {
                ctj.run_tallied_with::<NoTally>(plan, catalog, deltas, &mut sink)
                    .expect("runs");
            }
            assert_eq!(
                sink.tuples(),
                expect,
                "{context}: parctj pool={pool} counting={counting}"
            );
        }
    }
}

/// Replays `batches` over a session seeded with `base` at each compaction
/// ratio, mirrors the merged view in plain sets, and checks the query
/// answer after every apply against a from-scratch rebuild.
fn check_scenario(
    base: &BTreeSet<Edge>,
    batches: &[(BTreeSet<Edge>, BTreeSet<Edge>)],
    pattern: Pattern,
) {
    let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
    for ratio in COMPACT_RATIOS {
        let mut catalog = Catalog::new();
        catalog.insert("G", relation_of(base));
        let session = Session::new(catalog).with_pool(2).with_compact_ratio(ratio);

        let mut truth = base.clone();
        for (step, (inserts, deletes)) in batches.iter().enumerate() {
            let epoch = session
                .apply("G", &relation_of(inserts), &relation_of(deletes))
                .expect("apply succeeds");
            assert_eq!(epoch, step as u64 + 1, "one epoch per batch");
            // Deletes first, inserts win: mirror the session's semantics.
            for e in deletes {
                truth.remove(e);
            }
            truth.extend(inserts.iter().copied());

            let expect = rebuilt_reference(&truth, &plan);
            let context = format!("{pattern} ratio={ratio} step={step}");
            check_every_engine(
                &session.catalog(),
                &session.deltas(),
                &plan,
                &expect,
                &context,
            );
            // The serving path (query handles snapshot the epoch) agrees.
            let streamed: Vec<Row> = session.query(&plan).stream().collect();
            assert_eq!(streamed, expect, "{context}: session stream");
        }

        // Explicit compaction after the whole sequence is invisible too.
        session.compact("G");
        assert!(session.deltas().is_empty());
        let expect = rebuilt_reference(&truth, &plan);
        let streamed: Vec<Row> = session.query(&plan).stream().collect();
        assert_eq!(streamed, expect, "{pattern} ratio={ratio}: post-compact");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random base graph × random batch sequence: batches share the base's
    /// vertex domain, so overlapping inserts, no-op deletes, re-inserts of
    /// tombstoned rows and deletes of pending inserts all occur.
    #[test]
    fn mutated_sessions_answer_like_rebuilt_catalogs(
        base in prop::collection::btree_set((0u32..24, 0u32..24), 1..140),
        batches in prop::collection::vec(
            (
                prop::collection::btree_set((0u32..24, 0u32..24), 0..30),
                prop::collection::btree_set((0u32..24, 0u32..24), 0..30),
            ),
            1..4,
        ),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        check_scenario(&base, &batches, Pattern::PAPER[pattern_idx]);
    }
}

/// A deterministic scenario covering every paper pattern with a batch
/// sequence that exercises each normal-form edge: overlap with the base,
/// delete-then-reinsert across batches, delete of a pending insert, and a
/// batch that nets out to nothing.
#[test]
fn handcrafted_batches_cover_all_patterns() {
    let base: BTreeSet<Edge> = (0..10u32)
        .flat_map(|a| [(a, (a + 1) % 10), (a, (a + 3) % 10)])
        .collect();
    let batches: Vec<(BTreeSet<Edge>, BTreeSet<Edge>)> = vec![
        // Overlapping inserts (some already in base) + real deletes.
        (
            [(0, 1), (4, 9), (9, 4)].into_iter().collect(),
            [(1, 2), (2, 5)].into_iter().collect(),
        ),
        // Re-insert a tombstoned row, delete a pending insert.
        (
            [(1, 2)].into_iter().collect(),
            [(4, 9)].into_iter().collect(),
        ),
        // A no-op batch: re-insert live rows, delete absent rows.
        (
            [(0, 1), (1, 2)].into_iter().collect(),
            [(20, 20), (2, 5)].into_iter().collect(),
        ),
    ];
    for pattern in Pattern::PAPER {
        check_scenario(&base, &batches, pattern);
    }
}

/// Empty deltas must be invisible: an empty `DeltaMap` and a map holding
/// an explicitly empty delta both leave every engine on its frozen
/// fast path with the exact base answer.
#[test]
fn empty_deltas_are_invisible_to_every_engine() {
    let base: BTreeSet<Edge> = (0..12u32)
        .flat_map(|a| (0..12u32).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let mut catalog = Catalog::new();
    catalog.insert("G", relation_of(&base));
    let empty_map = DeltaMap::new();
    let mut explicit = DeltaMap::new();
    explicit.insert(
        "G".to_owned(),
        triejax_relation::RelationDelta::empty(2).unwrap(),
    );
    for pattern in Pattern::PAPER {
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let expect = rebuilt_reference(&base, &plan);
        check_every_engine(&catalog, &empty_map, &plan, &expect, "no deltas");
        check_every_engine(&catalog, &explicit, &plan, &expect, "empty delta");
    }
}

/// Delta-only relations (created by `apply`, base trie absent — the
/// frozen base is empty) must answer identically through every engine.
#[test]
fn delta_only_relations_serve_every_engine() {
    let edges: BTreeSet<Edge> = (0..10u32)
        .flat_map(|a| [(a, (a + 1) % 10), (a, (a + 4) % 10), ((a + 2) % 10, a)])
        .collect();
    let session = Session::new(Catalog::new())
        .with_pool(2)
        .with_compact_ratio(f64::INFINITY);
    session
        .apply("G", &relation_of(&edges), &Relation::new(2).unwrap())
        .expect("apply creates the relation");
    assert!(
        session.catalog().get("G").unwrap().is_empty(),
        "all tuples live in the delta"
    );
    for pattern in Pattern::PAPER {
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let expect = rebuilt_reference(&edges, &plan);
        check_every_engine(
            &session.catalog(),
            &session.deltas(),
            &plan,
            &expect,
            "delta-only",
        );
        let streamed: Vec<Row> = session.query(&plan).stream().collect();
        assert_eq!(streamed, expect, "{pattern}: delta-only stream");
    }
}
