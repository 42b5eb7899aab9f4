//! Property tests for the join engines: agreement against a brute-force
//! nested-loop reference on small random instances, including multi-table
//! catalogs (not just edge self-joins), and stats sanity.

use std::collections::HashMap;

use proptest::prelude::*;
use triejax_join::{
    Catalog, CollectSink, Counting, Ctj, GenericJoin, JoinEngine, Lftj, NoTally, PairwiseHash,
    ParLftj,
};
use triejax_query::{patterns::Pattern, CompiledQuery, Query};
use triejax_relation::{Relation, Value};

/// Brute-force reference: enumerate every assignment of values to
/// variables and test all atoms.
fn nested_loop_reference(q: &Query, catalog: &Catalog) -> Vec<Vec<Value>> {
    // Collect the active domain.
    let mut domain: Vec<Value> = Vec::new();
    for atom in q.atoms() {
        let rel = catalog.get(atom.relation()).expect("present");
        for t in rel.iter() {
            domain.extend_from_slice(t);
        }
    }
    domain.sort_unstable();
    domain.dedup();

    let tuple_sets: HashMap<&str, Vec<&[Value]>> = q
        .atoms()
        .iter()
        .map(|a| {
            (
                a.relation(),
                catalog.get(a.relation()).expect("present").iter().collect(),
            )
        })
        .collect();

    let n = q.num_vars();
    let mut out = Vec::new();
    let mut binding = vec![0u32; n];
    enumerate(q, &tuple_sets, &domain, 0, &mut binding, &mut out);
    out.sort_unstable();
    out
}

fn enumerate(
    q: &Query,
    tuples: &HashMap<&str, Vec<&[Value]>>,
    domain: &[Value],
    var: usize,
    binding: &mut Vec<Value>,
    out: &mut Vec<Vec<Value>>,
) {
    if var == q.num_vars() {
        let ok = q.atoms().iter().all(|a| {
            let want: Vec<Value> = a.vars().iter().map(|&v| binding[v]).collect();
            tuples[a.relation()].contains(&want.as_slice())
        });
        if ok {
            // Head order == variable id order by construction.
            let head: Vec<Value> = q.head().iter().map(|&v| binding[v]).collect();
            out.push(head);
        }
        return;
    }
    for &v in domain {
        binding[var] = v;
        enumerate(q, tuples, domain, var + 1, binding, out);
    }
}

fn arb_edges(max_node: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::btree_set((0..max_node, 0..max_node), 1..max_len)
        .prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Two-relation query: every engine equals the nested-loop reference.
    #[test]
    fn engines_match_brute_force_on_two_relations(
        r_edges in arb_edges(6, 18),
        s_edges in arb_edges(6, 18),
    ) {
        let q = Query::builder("q")
            .head(["x", "y", "z"])
            .atom("R", ["x", "y"])
            .atom("S", ["y", "z"])
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.insert("R", Relation::from_pairs(r_edges));
        catalog.insert("S", Relation::from_pairs(s_edges));
        let plan = CompiledQuery::compile(&q).unwrap();
        let expect = nested_loop_reference(&q, &catalog);

        let engines: Vec<Box<dyn JoinEngine>> = vec![
            Box::new(Lftj::new()),
            Box::new(Ctj::new()),
            Box::new(GenericJoin::new()),
            Box::new(PairwiseHash::new()),
        ];
        for mut e in engines {
            let mut sink = CollectSink::new();
            e.execute(&plan, &catalog, &mut sink).unwrap();
            prop_assert_eq!(sink.into_sorted(), expect.clone(), "{}", e.name());
        }
    }

    /// Three-relation triangle across *distinct* tables.
    #[test]
    fn engines_match_brute_force_on_triangle(
        r_edges in arb_edges(5, 14),
        s_edges in arb_edges(5, 14),
        t_edges in arb_edges(5, 14),
    ) {
        let q = Query::builder("tri")
            .head(["x", "y", "z"])
            .atom("R", ["x", "y"])
            .atom("S", ["y", "z"])
            .atom("T", ["z", "x"])
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.insert("R", Relation::from_pairs(r_edges));
        catalog.insert("S", Relation::from_pairs(s_edges));
        catalog.insert("T", Relation::from_pairs(t_edges));
        let plan = CompiledQuery::compile(&q).unwrap();
        let expect = nested_loop_reference(&q, &catalog);

        let engines: Vec<Box<dyn JoinEngine>> = vec![
            Box::new(Lftj::new()),
            Box::new(Ctj::new()),
            Box::new(GenericJoin::new()),
            Box::new(PairwiseHash::new()),
        ];
        for mut e in engines {
            let mut sink = CollectSink::new();
            e.execute(&plan, &catalog, &mut sink).unwrap();
            prop_assert_eq!(sink.into_sorted(), expect.clone(), "{}", e.name());
        }
    }

    /// The `Counting` and `NoTally` kernels produce identical result sets
    /// (tuple-for-tuple, order included) on arbitrary graphs and every
    /// paper pattern, with identical results and expansions — only the
    /// access accounting differs. Where the untallied run may intersect
    /// leaf bitmaps its `lub_ops`/`match_ops` differ; on the same graph
    /// with ids spread x1000 no leaf has a bitmap and every discrete
    /// operation count is identical.
    #[test]
    fn tally_modes_produce_identical_results(
        edges in arb_edges(14, 90),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        let pattern = Pattern::PAPER[pattern_idx];
        let plan = CompiledQuery::compile(&pattern.query()).unwrap();
        let spread: Vec<_> = edges.iter().map(|&(a, b)| (a * 1000, b * 1000)).collect();
        for (dense, edges) in [(true, edges.clone()), (false, spread)] {
            let mut catalog = Catalog::new();
            catalog.insert("G", Relation::from_pairs(edges));
            let mut counted = CollectSink::new();
            let cs = Lftj::new()
                .run_tallied::<Counting>(&plan, &catalog, &mut counted)
                .unwrap();
            let mut fast = CollectSink::new();
            let fs = Lftj::new()
                .run_tallied::<NoTally>(&plan, &catalog, &mut fast)
                .unwrap();
            prop_assert_eq!(counted.tuples(), fast.tuples(), "lftj {}", pattern);
            prop_assert_eq!(cs.results, fs.results);
            prop_assert_eq!(cs.expand_ops, fs.expand_ops);
            if !dense {
                prop_assert_eq!(cs.lub_ops, fs.lub_ops);
                prop_assert_eq!(cs.match_ops, fs.match_ops);
            }
            prop_assert_eq!(fs.memory_accesses(), 0);
        }
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(edges));

        let mut counted = CollectSink::new();
        let cs = Ctj::new()
            .run_tallied::<Counting>(&plan, &catalog, &mut counted)
            .unwrap();
        let mut fast = CollectSink::new();
        let fs = Ctj::new()
            .run_tallied::<NoTally>(&plan, &catalog, &mut fast)
            .unwrap();
        prop_assert_eq!(counted.tuples(), fast.tuples(), "ctj {}", pattern);
        prop_assert_eq!(cs.cache_hits, fs.cache_hits);
        prop_assert_eq!(cs.intermediates, fs.intermediates);
        prop_assert_eq!(fs.memory_accesses(), 0);

        let mut counted = CollectSink::new();
        let cs = GenericJoin::new()
            .run_tallied::<Counting>(&plan, &catalog, &mut counted)
            .unwrap();
        let mut fast = CollectSink::new();
        let fs = GenericJoin::new()
            .run_tallied::<NoTally>(&plan, &catalog, &mut fast)
            .unwrap();
        prop_assert_eq!(counted.tuples(), fast.tuples(), "generic {}", pattern);
        prop_assert_eq!(cs.intermediates, fs.intermediates);
        prop_assert_eq!(fs.memory_accesses(), 0);
    }

    /// The root-partitioned parallel engine agrees with sequential LFTJ
    /// tuple-for-tuple (order included) for shard counts 1, 2 and 7 on
    /// random graphs, in both tally modes.
    #[test]
    fn parlftj_agrees_with_lftj_across_shard_counts(
        edges in arb_edges(18, 140),
        pattern_idx in 0usize..Pattern::PAPER.len(),
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(edges));
        let pattern = Pattern::PAPER[pattern_idx];
        let plan = CompiledQuery::compile(&pattern.query()).unwrap();

        let mut reference = CollectSink::new();
        Lftj::new().execute(&plan, &catalog, &mut reference).unwrap();

        for shards in [1usize, 2, 7] {
            let mut par = CollectSink::new();
            let stats = ParLftj::with_pool(shards)
                .with_granularity(shards)
                .execute(&plan, &catalog, &mut par)
                .unwrap();
            prop_assert_eq!(
                par.tuples(),
                reference.tuples(),
                "{} with {} shards",
                pattern,
                shards
            );
            prop_assert_eq!(stats.results as usize, reference.tuples().len());

            let mut fast = CollectSink::new();
            let fstats = ParLftj::with_pool(shards)
                .with_granularity(shards)
                .run_tallied::<NoTally>(&plan, &catalog, &mut fast)
                .unwrap();
            prop_assert_eq!(fast.tuples(), reference.tuples(),
                "untallied {} with {} shards", pattern, shards);
            prop_assert_eq!(fstats.memory_accesses(), 0);
        }
    }

    /// Engine statistics are internally consistent on arbitrary inputs.
    #[test]
    fn stats_are_consistent(edges in arb_edges(12, 80)) {
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(edges));
        let plan =
            CompiledQuery::compile(&triejax_query::patterns::cycle4()).unwrap();
        let mut sink = CollectSink::new();
        let stats = Ctj::new().execute(&plan, &catalog, &mut sink).unwrap();
        prop_assert_eq!(stats.results as usize, sink.len());
        prop_assert_eq!(stats.access.result_bytes, stats.results * 16);
        prop_assert!(stats.memory_accesses() >= stats.access.result_writes);
        prop_assert!(stats.cache_hit_rate() >= 0.0 && stats.cache_hit_rate() <= 1.0);
    }
}
