//! Exact software tallies of the sequential engines on grqc-tiny.
//!
//! The cursor/leapfrog inner loop may be made cheaper, never different:
//! an optimisation of that loop must leave every number below untouched
//! (ARCHITECTURE.md, "an optimisation of this loop may not change a
//! tally"). The pins were captured on the commit before the slice-frame
//! and leaf-kernel rewrite; they are the operations the paper's LUB,
//! Midwife and MatchMaker units would issue for the same query. A budget
//! that never trips changes none of them: governed and ungoverned runs
//! share one driver instance, so each pinned engine also runs governed.

use std::time::Duration;

use triejax_graph::{Dataset, Scale};
use triejax_join::{
    Catalog, CollectSink, CountSink, Ctj, EngineStats, JoinEngine, Lftj, ParCtj, ParLftj, Row,
    Session, TrieJoin,
};
use triejax_query::{patterns::Pattern, CompiledQuery, Query};
use triejax_relation::{Counting, NoTally, Relation, Tally};

/// `[lub_ops, expand_ops, match_ops, results, index_reads, index_bytes]`.
type Pin = [u64; 6];

fn pin<T: Tally>(s: &EngineStats<T>) -> Pin {
    let access = s.access.snapshot();
    [
        s.lub_ops,
        s.expand_ops,
        s.match_ops,
        s.results,
        access.index_reads,
        access.index_bytes,
    ]
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.insert("G", Dataset::GrQc.generate(Scale::Tiny).edge_relation());
    c
}

/// `engine` as pinned (`rows` is `None`), or governed by a budget that
/// never trips on a run of `rows` rows: a one-hour deadline and a row
/// limit above the result count.
fn with_budget<const CTJ: bool, const POOLED: bool>(
    engine: TrieJoin<CTJ, POOLED>,
    rows: Option<u64>,
) -> TrieJoin<CTJ, POOLED> {
    match rows {
        None => engine,
        Some(rows) => engine
            .with_deadline(Duration::from_secs(3600))
            .with_row_limit(rows + 1),
    }
}

/// The pin and the rows of a `Counting` run of `engine`, which must
/// return `Ok`.
fn pinned_run<const CTJ: bool, const POOLED: bool>(
    mut engine: TrieJoin<CTJ, POOLED>,
    plan: &CompiledQuery,
    catalog: &Catalog,
) -> (Pin, Vec<Vec<u32>>) {
    let mut sink = CollectSink::new();
    let stats = engine
        .run_tallied::<Counting>(plan, catalog, &mut sink)
        .unwrap();
    (pin(&stats), sink.tuples().to_vec())
}

/// Per `Pattern::PAPER` entry, in order: the LFTJ pin, then the CTJ pin.
#[rustfmt::skip]
const PINS: [(Pin, Pin); 5] = [
    ([637, 453, 2901, 2346, 6339, 27168], [637, 196, 878, 2346, 4059, 17020]), // Path3
    ([4623, 2716, 16515, 13371, 38753, 165876], [1205, 281, 1263, 13371, 7188, 29876]), // Path4
    ([2045, 706, 946, 171, 8826, 38128], [2045, 706, 946, 171, 8826, 38128]), // Cycle3
    ([12233, 4265, 5656, 1116, 52077, 225368], [9724, 3499, 4881, 1116, 42702, 184804]), // Cycle4
    ([4649, 1219, 1167, 41, 23902, 100484], [4649, 1219, 1167, 41, 23902, 100484]), // Clique4
];

#[test]
fn sequential_counting_tallies_are_pinned() {
    let c = catalog();
    for (p, (lftj_pin, ctj_pin)) in Pattern::PAPER.into_iter().zip(PINS) {
        let plan = CompiledQuery::compile(&p.query()).unwrap();
        let (_, rows) = pinned_run(Lftj::new(), &plan, &c);
        for budget in [None, Some(lftj_pin[3])] {
            let lftj = pinned_run(with_budget(Lftj::new(), budget), &plan, &c);
            let ctj = pinned_run(with_budget(Ctj::new(), budget), &plan, &c);
            let governed = budget.is_some();
            assert_eq!(
                (lftj.0, ctj.0),
                (lftj_pin, ctj_pin),
                "{p} governed={governed}"
            );
            assert!(lftj.1 == rows && ctj.1 == rows, "{p} governed={governed}");
        }
    }
}

#[test]
fn one_worker_pool_and_untallied_runs_do_the_same_operations() {
    let c = catalog();
    let mut wide = Catalog::new();
    let edges = Dataset::GrQc.generate(Scale::Tiny).edge_relation();
    wide.insert(
        "G",
        Relation::from_pairs(edges.iter().map(|t| (t[0] * 1000, t[1] * 1000))),
    );
    for (p, (lftj_pin, ctj_pin)) in Pattern::PAPER.into_iter().zip(PINS) {
        let plan = CompiledQuery::compile(&p.query()).unwrap();
        let pooled = ParLftj::with_pool(1)
            .run_tallied::<Counting>(&plan, &c, &mut CountSink::default())
            .unwrap();
        assert_eq!(pin(&pooled), lftj_pin, "par-lftj pool 1, {p}");
        // The pin counts every entry the one-shard run's worker-local
        // cache records, governed or not.
        let (_, rows) = pinned_run(Ctj::new(), &plan, &c);
        for budget in [None, Some(ctj_pin[3])] {
            let pooled = pinned_run(with_budget(ParCtj::with_pool(1), budget), &plan, &c);
            let governed = budget.is_some();
            assert_eq!(pooled.0, ctj_pin, "par-ctj pool 1, {p} governed={governed}");
            assert!(pooled.1 == rows, "par-ctj pool 1, {p} governed={governed}");
        }

        // NoTally records no access. It expands and emits what the pins
        // say; where leaf bitmaps exist it intersects them instead of
        // leapfrogging, so only on the ids spread x1000 (no bitmap) does
        // it keep every discrete op counter.
        let ops_only = |pin: Pin| [pin[0], pin[1], pin[2], pin[3], 0, 0];
        let rows = |pin: Pin| [pin[1], pin[3]];
        for (catalog, spread) in [(&c, false), (&wide, true)] {
            let lftj = Lftj::new()
                .run_tallied::<NoTally>(&plan, catalog, &mut CountSink::default())
                .unwrap();
            let ctj = Ctj::new()
                .run_tallied::<NoTally>(&plan, catalog, &mut CountSink::default())
                .unwrap();
            assert_eq!(rows(pin(&lftj)), rows(lftj_pin), "untallied lftj, {p}");
            assert_eq!(rows(pin(&ctj)), rows(ctj_pin), "untallied ctj, {p}");
            if spread {
                assert_eq!(pin(&lftj), ops_only(lftj_pin), "spread lftj, {p}");
                assert_eq!(pin(&ctj), ops_only(ctj_pin), "spread ctj, {p}");
            }
            assert_eq!(lftj.memory_accesses() + ctj.memory_accesses(), 0, "{p}");
        }
    }
}

/// LFTJ is CTJ without a cache: where the plan has no cache spec
/// (Cycle3, Clique4) the two engines run the one driver to the same
/// numbers, every `EngineStats` field included but the wall-clock time
/// their trie builds took.
#[test]
fn lftj_and_ctj_agree_in_every_field_without_a_cache_spec() {
    let c = catalog();
    for p in [Pattern::Cycle3, Pattern::Clique4] {
        let plan = CompiledQuery::compile(&p.query()).unwrap();
        assert!(plan.cache_specs().is_empty(), "{p} has no cache spec");
        let lftj = Lftj::new()
            .run_tallied::<Counting>(&plan, &c, &mut CountSink::default())
            .unwrap();
        let ctj = Ctj::new()
            .run_tallied::<Counting>(&plan, &c, &mut CountSink::default())
            .unwrap();
        let work = |s: EngineStats| EngineStats {
            trie_build_ns: 0,
            ..s
        };
        assert_eq!(work(lftj), work(ctj), "{p}");
    }
}

/// A last variable joining five atoms — one more than the leaf kernels
/// are instantiated for — runs on the cursor loop. It serves the
/// sequential rows through `run()` and `stream()`, bitmaps or not, and
/// issues the probes the slice kernel issued for it before the cap was
/// lowered to four members (pinned on that commit).
#[test]
fn a_last_variable_above_the_kernel_cap_keeps_rows_and_tallies() {
    // A path a-b-c-d-e whose five nodes all point at z.
    let query = Query::builder("fan5")
        .head(["a", "b", "c", "d", "e", "z"])
        .atom("G", ["a", "b"])
        .atom("G", ["b", "c"])
        .atom("G", ["c", "d"])
        .atom("G", ["d", "e"])
        .atom("G", ["a", "z"])
        .atom("G", ["b", "z"])
        .atom("G", ["c", "z"])
        .atom("G", ["d", "z"])
        .atom("G", ["e", "z"])
        .build()
        .unwrap();
    let plan = CompiledQuery::compile(&query).unwrap();
    assert_eq!(plan.atoms_at(plan.arity() - 1).len(), 5);
    // Dense ids keep leaf bitmaps; the same graph spread x1000 has none.
    let edges: Vec<(u32, u32)> = (0..12u32)
        .flat_map(|a| (0..12u32).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b && (a * 7 + b) % 3 != 0)
        .collect();
    let lftj_pin: Pin = [621757, 180588, 96740, 26784, 2349262, 10119400];
    for spread in [1, 1000] {
        let mut c = Catalog::new();
        let scaled = edges.iter().map(|&(a, b)| (a * spread, b * spread));
        c.insert("G", Relation::from_pairs(scaled));
        let mut oracle = CollectSink::new();
        let stats = Lftj::new().execute(&plan, &c, &mut oracle).unwrap();
        assert_eq!(pin(&stats), lftj_pin, "lftj, spread x{spread}");
        let pooled = ParLftj::with_pool(1)
            .run_tallied::<Counting>(&plan, &c, &mut CountSink::default())
            .unwrap();
        assert_eq!(pin(&pooled), lftj_pin, "par-lftj pool 1, spread x{spread}");
        for pool in [1, 2] {
            let session = Session::new(c.clone()).with_pool(pool);
            let mut sink = CollectSink::new();
            session.query(&plan).run(&mut sink).unwrap();
            assert_eq!(sink.tuples(), oracle.tuples(), "run, pool {pool}");
            let got: Vec<Row> = session.query(&plan).stream().collect();
            assert_eq!(got, oracle.tuples(), "stream, pool {pool}");
        }
    }
}
