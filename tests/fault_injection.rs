//! Deterministic fault injection against the parallel runtime (compiled
//! only with `--features faults`): injected panics, delays, and failed
//! handoffs at every event class must never hang the ordered drain, never
//! leak a merge lane, and never corrupt shared-cache accounting. A
//! panicked run surfaces its payload to the caller (the pool rethrows
//! after the drain completes), and the very next clean run must be exact
//! — nothing a dying worker did may outlive its run.
//!
//! The fault plan is process-global, and every test here also runs engine
//! code it wants *un*faulted (reference runs, post-fault clean runs). Each
//! test therefore holds [`serial`] for its whole body: no sibling's plan
//! can be installed while it runs, at libtest's default thread count.

#![cfg(feature = "faults")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use triejax_join::faults::{self, FaultAction, FaultEvent, FaultPlan, FaultRule};
use triejax_join::{
    CancelReason, Catalog, CollectSink, CountSink, JoinEngine, JoinError, Lftj, ParCtj, ParLftj,
};
use triejax_query::{patterns::Pattern, CompiledQuery};
use triejax_relation::Relation;

/// One test of this file at a time; see the module docs. A test that
/// failed while holding it must not fail the rest, so poison is ignored.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fires `action` on the first occurrence of `event` on any worker.
fn first(event: FaultEvent, action: FaultAction) -> FaultRule {
    FaultRule {
        worker: None,
        event,
        ordinal: 0,
        action,
    }
}

fn catalog_from(edges: Vec<(u32, u32)>) -> Catalog {
    let mut c = Catalog::new();
    c.insert("G", Relation::from_pairs(edges));
    c
}

/// Hub star (every vertex joined to 0, both ways): enough root-level
/// work for splits, steals, and cache traffic to actually occur.
fn hub_edges() -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 1..220u32 {
        edges.push((0, i));
        edges.push((i, 0));
    }
    edges
}

/// Funnel graph for CTJ cache accounting: 30 parents share one hub whose
/// entry is built once, so lookups are exactly predictable.
fn funnel_edges() -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for x in 0..30u32 {
        edges.push((x, 100));
    }
    for z in 200..220u32 {
        edges.push((100, z));
    }
    edges
}

fn reference_tuples(plan: &CompiledQuery, catalog: &Catalog) -> Vec<Vec<u32>> {
    let mut sink = CollectSink::new();
    Lftj::new().execute(plan, catalog, &mut sink).expect("runs");
    sink.tuples().to_vec()
}

/// Asserts a caught panic payload is ours, not an incidental one.
fn assert_injected(payload: Box<dyn std::any::Any + Send>) {
    let text = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        text.contains("injected fault"),
        "panic was not the injected one: {text:?}"
    );
}

/// A panic injected at each event class the LFTJ runtime passes through:
/// the run either completes exactly (the site was never reached on this
/// schedule — e.g. no steal happened) or surfaces the injected payload —
/// and in both cases the drain terminates and the very next clean run is
/// exact. A hang here is the failure mode this harness exists to catch.
#[test]
fn injected_panics_never_hang_the_drain() {
    let _serial = serial();
    let catalog = catalog_from(hub_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    for event in [
        FaultEvent::TaskStart,
        FaultEvent::Steal,
        FaultEvent::SplitHandoff,
        FaultEvent::MergePush,
    ] {
        for action in [FaultAction::Panic, FaultAction::FailHandoff] {
            let guard = faults::install(FaultPlan::new().rule(first(event, action)));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut sink = CollectSink::new();
                ParLftj::with_pool(4)
                    .with_granularity(1)
                    .with_split(true)
                    .execute(&plan, &catalog, &mut sink)
                    .expect("a faulted run that completes completes cleanly");
                sink
            }));
            drop(guard);
            match outcome {
                Ok(sink) => assert_eq!(
                    sink.tuples(),
                    reference,
                    "{event:?}/{action:?}: untripped run must be exact"
                ),
                Err(payload) => assert_injected(payload),
            }
            // Whatever the dying worker left behind must not outlive its
            // run: the next clean run is exact.
            let mut clean = CollectSink::new();
            ParLftj::with_pool(4)
                .with_granularity(1)
                .with_split(true)
                .execute(&plan, &catalog, &mut clean)
                .expect("clean run");
            assert_eq!(
                clean.tuples(),
                reference,
                "{event:?}/{action:?}: post-fault"
            );
        }
    }
}

/// A worker dying between its cache miss and its insert (panic at the
/// publish site) must not corrupt the shared store: the run surfaces the
/// panic, and a fresh run's books balance exactly — the hub entry is
/// built once and every other lookup hits it.
#[test]
fn cache_insert_panic_leaves_accounting_consistent() {
    let _serial = serial();
    let catalog = catalog_from(funnel_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    let guard =
        faults::install(FaultPlan::new().rule(first(FaultEvent::CacheInsert, FaultAction::Panic)));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut sink = CountSink::default();
        ParCtj::with_pool(2)
            .execute(&plan, &catalog, &mut sink)
            .expect("a faulted run that completes completes cleanly");
    }));
    drop(guard);
    match outcome {
        // Publish always happens on this fixture, so the rule must fire.
        Ok(()) => panic!("the first cache insert must have tripped the fault"),
        Err(payload) => assert_injected(payload),
    }
    let mut sink = CollectSink::new();
    let stats = ParCtj::with_pool(2)
        .execute(&plan, &catalog, &mut sink)
        .expect("clean run");
    assert_eq!(sink.tuples(), reference);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        30,
        "one lookup per parent; races reclassify, they never double-count"
    );
    assert_eq!(stats.cache_misses, 1, "the hub entry is built exactly once");
}

/// Delaying the first publish widens the lookup→insert window so sibling
/// workers race the build. First-writer-wins must keep the run exact and
/// the books balanced: hits + misses still equals the lookup count, with
/// any duplicate build reclassified as a race, not a second miss.
#[test]
fn delayed_cache_insert_keeps_racing_books_balanced() {
    let _serial = serial();
    let catalog = catalog_from(funnel_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    let guard = faults::install(
        FaultPlan::new().rule(first(FaultEvent::CacheInsert, FaultAction::Delay(5))),
    );
    let mut sink = CollectSink::new();
    let stats = ParCtj::with_pool(2)
        .execute(&plan, &catalog, &mut sink)
        .expect("delays never fail a run");
    drop(guard);
    assert_eq!(sink.tuples(), reference);
    assert_eq!(stats.cache_hits + stats.cache_misses, 30);
    assert_eq!(stats.cache_misses, 1);
}

/// The tentpole race: the budget trips while a split handoff is in
/// flight — the new merge lane is open but its task not yet spawned (the
/// injected delay pins the window). The drain must still terminate and
/// deliver the exact ordered prefix.
#[test]
fn budget_trip_during_inflight_handoff_keeps_the_prefix_exact() {
    let _serial = serial();
    let catalog = catalog_from(hub_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    for limit in [1u64, 5, 40] {
        let guard = faults::install(
            FaultPlan::new().rule(first(FaultEvent::SplitHandoff, FaultAction::Delay(3))),
        );
        let mut sink = CollectSink::new();
        let err = ParLftj::with_pool(4)
            .with_granularity(1)
            .with_split(true)
            .with_row_limit(limit)
            .execute(&plan, &catalog, &mut sink)
            .expect_err("limit below total must cancel");
        drop(guard);
        match err {
            JoinError::Cancelled { reason, .. } => {
                assert_eq!(reason, CancelReason::RowLimit, "limit={limit}")
            }
            other => panic!("limit={limit}: wrong error {other:?}"),
        }
        assert_eq!(
            sink.tuples(),
            &reference[..limit as usize],
            "limit={limit}: prefix must survive the in-flight handoff"
        );
    }
}

/// A failed handoff during a deadline-cancelled run: the handoff site
/// closes its freshly opened lane before panicking, so even the
/// combination of an injected handoff failure and a tripping budget
/// leaves no lane for the drain to wait on.
#[test]
fn failed_handoff_under_a_deadline_never_hangs() {
    let _serial = serial();
    let catalog = catalog_from(hub_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let guard = faults::install(
        FaultPlan::new().rule(first(FaultEvent::SplitHandoff, FaultAction::FailHandoff)),
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut sink = CollectSink::new();
        let _ = ParLftj::with_pool(4)
            .with_granularity(1)
            .with_split(true)
            .with_deadline(Duration::from_millis(1))
            .execute(&plan, &catalog, &mut sink);
    }));
    drop(guard);
    if let Err(payload) = outcome {
        assert_injected(payload);
    }
}

/// A handoff failing at depth >= 1: the fixture's root domain is a single
/// value, so the only handoffs a splitting run can attempt are sub-root
/// ones — the window where the tail lane is open (and, uniquely for deep
/// handoffs, the continuation lane about to be) but the task not yet
/// spawned. The injected failure must close the fresh lane before
/// unwinding, so the drain terminates, and the very next clean run must
/// be exact and actually exercise the deep path it just survived.
#[test]
fn failed_deep_handoff_never_hangs_and_recovers_exactly() {
    let _serial = serial();
    use triejax_query::Query;

    let q = Query::builder("deep_fault")
        .head(["x", "y", "z"])
        .atom("R", ["x", "y"])
        .atom("S", ["y", "z"])
        .build()
        .unwrap();
    let plan = CompiledQuery::compile(&q).expect("compiles");
    let mut catalog = Catalog::new();
    catalog.insert(
        "R",
        Relation::from_pairs((0..260u32).map(|y| (0, y)).collect::<Vec<_>>()),
    );
    let mut s: Vec<(u32, u32)> = (0..26_000u32).map(|z| (0, z)).collect();
    for y in 1..260u32 {
        for z in 0..4u32 {
            s.push((y, (y * 31 + z) % 260));
        }
    }
    catalog.insert("S", Relation::from_pairs(s));
    let reference = reference_tuples(&plan, &catalog);

    for action in [FaultAction::Panic, FaultAction::FailHandoff] {
        let guard = faults::install(FaultPlan::new().rule(first(FaultEvent::SplitHandoff, action)));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sink = CollectSink::new();
            ParLftj::with_pool(4)
                .with_granularity(1)
                .with_split(true)
                .with_split_depth(usize::MAX)
                .execute(&plan, &catalog, &mut sink)
                .expect("a faulted run that completes completes cleanly");
            sink
        }));
        drop(guard);
        match outcome {
            Ok(sink) => assert_eq!(
                sink.tuples(),
                reference,
                "{action:?}: untripped run must be exact"
            ),
            Err(payload) => assert_injected(payload),
        }
        let mut clean = CollectSink::new();
        let stats = ParLftj::with_pool(4)
            .with_granularity(1)
            .with_split(true)
            .with_split_depth(usize::MAX)
            .execute(&plan, &catalog, &mut clean)
            .expect("clean run");
        assert_eq!(clean.tuples(), reference, "{action:?}: post-fault");
        assert!(
            stats.deep_splits > 0,
            "{action:?}: the clean run must take the sub-root path \
             (root domain is 1, so every handoff here is deep)"
        );
    }
}

/// A trie build task dying on the pool (panic at the `TrieBuild` site)
/// must surface the injected payload — never hang the run — and leave
/// no half-built trie behind: the shared trie cache stays empty, and
/// the very next clean run over the same cache is exact and fills it
/// normally.
#[test]
fn trie_build_panic_surfaces_and_leaves_the_trie_cache_clean() {
    let _serial = serial();
    use std::sync::Arc;
    use triejax_join::TrieCache;

    let catalog = catalog_from(hub_edges());
    // cycle3 needs two distinct (relation, perm) builds, so the build
    // phase goes through the pool — the panic must be captured by a
    // worker and rethrown after the scope, not swallowed or deadlocked.
    let plan = CompiledQuery::compile(&Pattern::Cycle3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    let cache = Arc::new(TrieCache::unbounded());

    let guard =
        faults::install(FaultPlan::new().rule(first(FaultEvent::TrieBuild, FaultAction::Panic)));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut sink = CollectSink::new();
        let _ = ParLftj::with_pool(4)
            .with_trie_cache(cache.clone())
            .execute(&plan, &catalog, &mut sink);
    }));
    drop(guard);
    match outcome {
        // Every run of this plan builds tries, so the rule always trips.
        Ok(()) => panic!("the first trie build must have tripped the fault"),
        Err(payload) => assert_injected(payload),
    }
    assert_eq!(cache.len(), 0, "a dying build phase must publish nothing");
    assert_eq!(cache.insertions(), 0);

    let mut clean = CollectSink::new();
    let stats = ParLftj::with_pool(4)
        .with_trie_cache(cache.clone())
        .execute(&plan, &catalog, &mut clean)
        .expect("clean run");
    assert_eq!(clean.tuples(), reference, "post-fault run must be exact");
    assert_eq!(stats.trie_cache_hits, 0, "nothing to hit after the wipe");
    assert_eq!(cache.insertions(), 2, "both distinct builds fill the cache");
}

/// Seed-driven sweep: deterministic plans drawn over all six event
/// classes. Every schedule must terminate; completed runs must be exact.
/// A failure replays from its seed alone.
#[test]
fn seeded_fault_sweep_terminates_and_stays_exact() {
    let _serial = serial();
    let catalog = catalog_from(hub_edges());
    let plan = CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles");
    let reference = reference_tuples(&plan, &catalog);
    for seed in 0..12u64 {
        let guard = faults::install(FaultPlan::from_seed(seed, &SWEEP_EVENTS, 4));
        let outcome = catch_unwind(AssertUnwindSafe(|| sweep_run(&plan, &catalog)));
        drop(guard);
        match outcome {
            Ok(sink) => assert_eq!(sink.tuples(), reference, "seed {seed}"),
            Err(payload) => assert_injected(payload),
        }
    }
}

/// The event classes the seeded sweep draws its plans over.
const SWEEP_EVENTS: [FaultEvent; 6] = [
    FaultEvent::TaskStart,
    FaultEvent::Steal,
    FaultEvent::SplitHandoff,
    FaultEvent::CacheInsert,
    FaultEvent::MergePush,
    FaultEvent::TrieBuild,
];

/// One run of the seeded sweep's engine configuration.
fn sweep_run(plan: &CompiledQuery, catalog: &Catalog) -> CollectSink {
    let mut sink = CollectSink::new();
    ParCtj::with_pool(4)
        .with_split(true)
        .with_granularity(1)
        .execute(plan, catalog, &mut sink)
        .expect("a faulted run that completes completes cleanly");
    sink
}

/// Seeds 5 and 10 of the sweep each panic at a worker's third or fourth
/// merge push while delays shift the schedule. When that push was the
/// flush of a sink leaving its lane (at task end, or for a continuation
/// lane after a sub-root split), the lane was never finished and the drain
/// waited forever — about one sweep in thirty. Replays both schedules many
/// times, each under a timeout, so a lost lane fails instead of hanging.
#[test]
fn merge_push_panics_never_hang() {
    let _serial = serial();
    let catalog = std::sync::Arc::new(catalog_from(hub_edges()));
    let plan =
        std::sync::Arc::new(CompiledQuery::compile(&Pattern::Path3.query()).expect("compiles"));
    let reference = reference_tuples(&plan, &catalog);
    for round in 0..200 {
        let seed = [5, 10][round % 2];
        let guard = faults::install(FaultPlan::from_seed(seed, &SWEEP_EVENTS, 4));
        let (tx, rx) = std::sync::mpsc::channel();
        let (plan, catalog) = (plan.clone(), catalog.clone());
        // Joined only when it finishes in time: a hung run cannot be.
        let run = std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| sweep_run(&plan, &catalog)));
            let _ = tx.send(outcome);
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("round {round}, seed {seed}: the faulted run hung"));
        run.join().expect("the run thread catches its own panic");
        drop(guard);
        match outcome {
            Ok(sink) => assert_eq!(sink.tuples(), reference, "round {round}, seed {seed}"),
            Err(payload) => assert_injected(payload),
        }
    }
}

/// A fault at the `DeltaApply` point — fired after the new session state
/// is fully computed but **before** it is swapped in — must leave the
/// session at its prior epoch: same catalog, same deltas, no watcher
/// update. The very next clean apply must succeed (the injected panic may
/// not wedge the apply lock) and deliver exactly its own increment.
#[test]
fn killed_apply_leaves_the_session_at_the_prior_epoch() {
    let _serial = serial();
    use std::sync::Arc;
    use triejax_join::Session;

    let session = Session::new(catalog_from(hub_edges()))
        .with_pool(2)
        .with_compact_ratio(f64::INFINITY);
    let plan = CompiledQuery::compile(&Pattern::Cycle3.query()).expect("compiles");
    let watch = session.watch(&plan).expect("watchable");

    // One clean apply first, so the pre-fault state is non-trivial (a
    // pending delta exists and the epoch is past zero).
    session
        .apply(
            "G",
            &Relation::from_pairs(vec![(221, 222)]),
            &Relation::new(2).unwrap(),
        )
        .expect("clean apply");
    assert!(watch.poll().is_some(), "clean apply notifies");

    let epoch_before = session.epoch();
    let catalog_before = session.catalog();
    let deltas_before = session.deltas();

    let guard =
        faults::install(FaultPlan::new().rule(first(FaultEvent::DeltaApply, FaultAction::Panic)));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        session.apply(
            "G",
            &Relation::from_pairs(vec![(300, 301), (301, 302)]),
            &Relation::from_pairs(vec![(221, 222)]),
        )
    }));
    drop(guard);
    assert_injected(outcome.expect_err("the injected panic surfaces to the caller"));

    // Nothing moved: the epoch, the catalog generation, and the pending
    // deltas are exactly the pre-fault ones, and no update was emitted.
    assert_eq!(session.epoch(), epoch_before);
    assert!(
        Arc::ptr_eq(&session.catalog(), &catalog_before),
        "the catalog generation must be the pre-fault one"
    );
    assert_eq!(*session.deltas(), *deltas_before);
    assert!(watch.poll().is_none(), "a failed apply never notifies");

    // The session is not wedged: the retry lands with the next epoch and
    // the watcher hears exactly this batch.
    let epoch = session
        .apply(
            "G",
            &Relation::from_pairs(vec![(0, 221), (221, 1)]),
            &Relation::new(2).unwrap(),
        )
        .expect("retry succeeds after the injected fault");
    assert_eq!(epoch, epoch_before + 1);
    let update = watch.poll().expect("retry notifies");
    assert_eq!(update.epoch, epoch);
    assert!(
        !update.rows.is_empty(),
        "0→221→1→0 closes a new triangle through the hub"
    );
}
