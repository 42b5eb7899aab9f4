//! Standing queries: [`Session::watch`] must deliver, per applied batch,
//! **exactly** the set-difference of consecutive full evaluations — in
//! the engine's sequential order — while computing only the semi-naïve
//! delta terms. Subscribers that walk away mid-stream must unregister
//! without ever blocking an apply, and live watchers must coexist with
//! concurrent ad-hoc queries against the same session.

use std::collections::BTreeSet;

use proptest::prelude::*;
use triejax_join::{Catalog, CollectSink, JoinEngine, JoinError, Lftj, Row, Session, WatchUpdate};
use triejax_query::{patterns::Pattern, CompiledQuery, Query};
use triejax_relation::Relation;

type Edge = (u32, u32);

fn relation_of(edges: &BTreeSet<Edge>) -> Relation {
    Relation::from_pairs(edges.iter().copied())
}

/// Full evaluation from scratch: the (expensive) reference the
/// incremental path must never be allowed to diverge from.
fn full_eval(edges: &BTreeSet<Edge>, plan: &CompiledQuery) -> Vec<Vec<u32>> {
    let mut catalog = Catalog::new();
    catalog.insert("G", relation_of(edges));
    let mut sink = CollectSink::new();
    Lftj::new()
        .execute(plan, &catalog, &mut sink)
        .expect("runs");
    sink.tuples().to_vec()
}

/// Replays `batches` against watchers on every paper pattern at once,
/// checking each update against the difference of consecutive full
/// evaluations (order-preserving, so emission order is verified too).
fn check_watch_scenario(
    base: &BTreeSet<Edge>,
    batches: &[(BTreeSet<Edge>, BTreeSet<Edge>)],
    ratio: f64,
) {
    let mut catalog = Catalog::new();
    catalog.insert("G", relation_of(base));
    let session = Session::new(catalog).with_pool(2).with_compact_ratio(ratio);

    let plans: Vec<CompiledQuery> = Pattern::PAPER
        .iter()
        .map(|p| CompiledQuery::compile(&p.query()).expect("compiles"))
        .collect();
    let watches: Vec<_> = plans
        .iter()
        .map(|plan| session.watch(plan).expect("full joins are watchable"))
        .collect();

    let mut truth = base.clone();
    let mut before: Vec<Vec<Vec<u32>>> = plans.iter().map(|p| full_eval(&truth, p)).collect();

    for (step, (inserts, deletes)) in batches.iter().enumerate() {
        let epoch = session
            .apply("G", &relation_of(inserts), &relation_of(deletes))
            .expect("apply succeeds");
        for e in deletes {
            truth.remove(e);
        }
        truth.extend(inserts.iter().copied());

        for ((plan, watch), prev) in plans.iter().zip(&watches).zip(&mut before) {
            let after = full_eval(&truth, plan);
            let prev_set: BTreeSet<&Vec<u32>> = prev.iter().collect();
            let expect: Vec<Vec<u32>> = after
                .iter()
                .filter(|r| !prev_set.contains(r))
                .cloned()
                .collect();
            let update = watch.poll().expect("one update per apply, synchronous");
            assert_eq!(update.epoch, epoch, "step {step}: epoch stamp");
            assert_eq!(
                update.rows, expect,
                "step {step} ratio={ratio}: emissions must equal the \
                 difference of consecutive full evaluations, in order"
            );
            // Nothing already present may ever be re-emitted.
            for row in &update.rows {
                assert!(
                    !prev_set.contains(row),
                    "step {step}: re-emitted existing result {row:?}"
                );
            }
            *prev = after;
        }
    }
    for watch in &watches {
        assert!(watch.poll().is_none(), "exactly one update per apply");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random graphs and batch sequences, all five paper patterns watched
    /// simultaneously: every emission equals the full-evaluation
    /// difference, in sequential order — with compaction disabled and
    /// with eager compaction racing the watchers' view of the base.
    #[test]
    fn emissions_equal_full_evaluation_differences(
        base in prop::collection::btree_set((0u32..20, 0u32..20), 1..100),
        batches in prop::collection::vec(
            (
                prop::collection::btree_set((0u32..20, 0u32..20), 0..25),
                prop::collection::btree_set((0u32..20, 0u32..20), 0..25),
            ),
            1..4,
        ),
        eager in 0u8..2,
    ) {
        let ratio = if eager == 1 { 0.0 } else { f64::INFINITY };
        check_watch_scenario(&base, &batches, ratio);
    }
}

/// The cold-start case: watching before the relation even exists, then
/// creating it through `apply`. The first batch's emissions are the full
/// first result set.
#[test]
fn watch_survives_relation_creation() {
    let session = Session::new(Catalog::new()).with_pool(1);
    let plan = CompiledQuery::compile(&Pattern::Cycle3.query()).expect("compiles");
    let watch = session.watch(&plan).expect("watchable");

    let edges: BTreeSet<Edge> = [(0, 1), (1, 2), (2, 0), (2, 3)].into_iter().collect();
    session
        .apply("G", &relation_of(&edges), &Relation::new(2).unwrap())
        .expect("apply creates G");
    let update = watch.poll().expect("delivered");
    assert_eq!(update.rows, full_eval(&edges, &plan));
}

/// Delete-only batches cannot create results: the update arrives (epoch
/// advances) but carries no rows — without any join work being provable
/// from the outside, at least the contract holds.
#[test]
fn delete_only_batches_emit_empty_updates() {
    let base: BTreeSet<Edge> = (0..8u32)
        .flat_map(|a| (0..8u32).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let mut catalog = Catalog::new();
    catalog.insert("G", relation_of(&base));
    let session = Session::new(catalog).with_pool(1);
    let plan = CompiledQuery::compile(&Pattern::Cycle4.query()).expect("compiles");
    let watch = session.watch(&plan).expect("watchable");
    session
        .apply(
            "G",
            &Relation::new(2).unwrap(),
            &Relation::from_pairs(vec![(0, 1), (3, 4), (7, 2)]),
        )
        .expect("apply");
    let update = watch.poll().expect("delivered");
    assert_eq!(
        update,
        WatchUpdate {
            epoch: 1,
            rows: Vec::new()
        }
    );
}

/// Dropping a subscriber mid-sequence — with an update still undelivered
/// in its channel — must neither hang the in-flight apply nor any later
/// one; remaining watchers keep receiving.
#[test]
fn dropped_subscribers_never_block_applies() {
    let base: BTreeSet<Edge> = [(0, 1), (1, 2)].into_iter().collect();
    let mut catalog = Catalog::new();
    catalog.insert("G", relation_of(&base));
    let session = Session::new(catalog).with_pool(1);
    let plan = CompiledQuery::compile(&Pattern::Cycle3.query()).expect("compiles");

    let doomed = session.watch(&plan).expect("watchable");
    let survivor = session.watch(&plan).expect("watchable");

    // First apply: both get an update; the doomed one never polls its.
    session
        .apply(
            "G",
            &Relation::from_pairs(vec![(2, 0)]),
            &Relation::new(2).unwrap(),
        )
        .expect("apply");
    assert_eq!(survivor.poll().expect("delivered").rows.len(), 3);
    drop(doomed);

    // Later applies proceed and the survivor still hears them.
    session
        .apply(
            "G",
            &Relation::from_pairs(vec![(0, 2), (2, 1), (1, 0)]),
            &Relation::new(2).unwrap(),
        )
        .expect("apply after drop");
    let update = survivor.poll().expect("delivered");
    assert_eq!(update.epoch, 2);
    assert_eq!(update.rows.len(), 3, "the reversed triangle is new");
}

/// A long-lived ad-hoc stream started before an apply keeps its epoch's
/// answer while watchers consume the increments — the two serving paths
/// interleave against one session without disturbing each other.
#[test]
fn watchers_interleave_with_ad_hoc_queries() {
    let base: BTreeSet<Edge> = (0..10u32)
        .flat_map(|a| (0..10u32).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let mut catalog = Catalog::new();
    catalog.insert("G", relation_of(&base));
    let session = Session::new(catalog).with_pool(2);
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");

    let watch = session.watch(&plan).expect("watchable");
    let before = full_eval(&base, &plan);

    // Start streaming at epoch 0, consume a prefix, then mutate.
    let mut stale_stream = session.query(&plan).stream();
    let prefix: Vec<Row> = stale_stream.by_ref().take(4).collect();
    assert_eq!(prefix, before[..4]);

    let mut truth = base.clone();
    truth.extend([(0, 10), (10, 3)]);
    session
        .apply(
            "G",
            &Relation::from_pairs(vec![(0, 10), (10, 3)]),
            &Relation::new(2).unwrap(),
        )
        .expect("apply");

    // The watcher sees exactly the increment …
    let after = full_eval(&truth, &plan);
    let prev: BTreeSet<&Vec<u32>> = before.iter().collect();
    let expect: Vec<Vec<u32>> = after
        .iter()
        .filter(|r| !prev.contains(r))
        .cloned()
        .collect();
    assert!(!expect.is_empty());
    assert_eq!(watch.poll().expect("delivered").rows, expect);

    // … while the pre-apply stream finishes with its epoch-0 answer …
    let rest: Vec<Row> = stale_stream.collect();
    assert_eq!(rest, before[4..]);

    // … and a fresh ad-hoc query serves the new epoch.
    let fresh: Vec<Row> = session.query(&plan).stream().collect();
    assert_eq!(fresh, after);
}

/// Projected queries cannot be watched (the engines emit full joins);
/// the error is a planning error, not a panic at apply time.
#[test]
fn projected_plans_are_rejected_at_watch_time() {
    let mut catalog = Catalog::new();
    catalog.insert("G", Relation::from_pairs(vec![(0, 1)]));
    let session = Session::new(catalog).with_pool(1);
    let q = Query::builder("heads")
        .head(["x"])
        .atom("G", ["x", "y"])
        .build_projected()
        .expect("valid projection");
    let plan = CompiledQuery::compile(&q).expect("compiles");
    assert!(matches!(session.watch(&plan), Err(JoinError::Plan { .. })));
}

/// A watcher whose evaluation fails must hang up, not deliver an update
/// that silently lacks the failed term's rows. Here the query reads `G`
/// and a not-yet-existing `H`; creating `H` through `apply` at the wrong
/// arity makes the term over the new `H` rows unanswerable.
#[test]
fn a_failed_evaluation_ends_the_stream_instead_of_a_partial_update() {
    let mut catalog = Catalog::new();
    catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2)]));
    let session = Session::new(catalog).with_pool(1);
    let q = Query::builder("gh")
        .head(["x", "y", "z"])
        .atom("G", ["x", "y"])
        .atom("H", ["y", "z"])
        .build()
        .expect("valid query");
    let plan = CompiledQuery::compile(&q).expect("compiles");
    let watch = session.watch(&plan).expect("watchable");
    let none = Relation::new(2).unwrap();

    // While `H` does not exist the join is empty, and so is the update.
    session
        .apply("G", &Relation::from_pairs(vec![(2, 3)]), &none)
        .expect("apply");
    assert_eq!(watch.poll().expect("delivered").rows.len(), 0);

    // The apply itself is fine — `H` is a new relation of arity 3 — but
    // the standing query cannot join it as `H(y, z)`.
    let triples = Relation::from_tuples(3, vec![[1u32, 2, 3]]).unwrap();
    session
        .apply("H", &triples, &Relation::new(3).unwrap())
        .expect("creating H succeeds");
    assert!(watch.poll().is_none(), "no partial update");

    // The watcher is gone for good: later batches deliver nothing, and
    // the subscriber sees the hang-up instead of blocking.
    session
        .apply("G", &Relation::from_pairs(vec![(3, 4)]), &none)
        .expect("apply");
    assert!(watch.poll().is_none());
    assert!(watch.recv().is_none(), "the stream hung up");
}

/// Path4 and Cycle4 are the patterns whose per-atom term plans differ
/// most from the watched plan's variable order (the term for the last atom
/// of Path4 runs `z, w, y, x`). Whatever order a term ran in, the update
/// must come out in the watched plan's sequential order — checked against
/// the order-preserving difference of full evaluations over batches that
/// insert, delete, re-insert and (at the default ratio) compact.
#[test]
fn term_orders_never_leak_into_the_update_order() {
    let base: BTreeSet<Edge> = (0..14u32)
        .flat_map(|a| [(a, (a + 1) % 14), (a, (a + 5) % 14), ((a + 3) % 14, a)])
        .collect();
    let batches: Vec<(BTreeSet<Edge>, BTreeSet<Edge>)> = vec![
        ([(13, 2), (2, 9), (9, 13), (4, 4)].into(), [(0, 1)].into()),
        ([(0, 1), (6, 0)].into(), [(13, 2), (5, 6), (7, 8)].into()),
        ([(7, 8), (8, 3), (3, 7), (1, 12)].into(), BTreeSet::new()),
        (
            (0..14u32).map(|a| (a, (a + 7) % 14)).collect(),
            (0..14u32).map(|a| (a, (a + 5) % 14)).collect(),
        ),
        ([(5, 6)].into(), [(4, 4), (2, 9)].into()),
    ];
    let mut catalog = Catalog::new();
    catalog.insert("G", relation_of(&base));
    let session = Session::new(catalog).with_pool(2);
    let mut truth = base.clone();
    for pattern in [Pattern::Path4, Pattern::Cycle4] {
        let plan = CompiledQuery::compile(&pattern.query()).expect("compiles");
        let watch = session.watch(&plan).expect("watchable");
        let mut before = full_eval(&truth, &plan);
        for (step, (inserts, deletes)) in batches.iter().enumerate() {
            session
                .apply("G", &relation_of(inserts), &relation_of(deletes))
                .expect("apply");
            truth.retain(|e| !deletes.contains(e));
            truth.extend(inserts.iter().copied());
            let after = full_eval(&truth, &plan);
            let seen: BTreeSet<&Vec<u32>> = before.iter().collect();
            let expect: Vec<Vec<u32>> = after
                .iter()
                .filter(|r| !seen.contains(r))
                .cloned()
                .collect();
            let update = watch.poll().expect("delivered");
            assert_eq!(update.rows, expect, "{pattern:?} step {step}");
            before = after;
        }
    }
}
