//! Soak: a session under a long `live_delta`-shaped mutation stream must
//! stay the size of its data. 1,000 batches of 64 inserts + 64 deletes
//! keep the graph at constant size while the default compaction ratio
//! replaces the frozen base over and over; with a standing query, one
//! ad-hoc query per batch and one query handle that outlives its epoch per
//! batch, the session's trie cache must plateau — every replaced base's
//! tries and every earlier epoch's views forgotten — and every answer must
//! stay exact.

use std::collections::BTreeSet;

use triejax_join::{Catalog, CollectSink, CountSink, JoinEngine, Lftj, Session};
use triejax_query::{patterns::Pattern, CompiledQuery};
use triejax_relation::Relation;

type Edge = (u32, u32);

const NODES: u32 = 300;
const EDGES: usize = 1_600;
const BATCH: usize = 64;
const BATCHES: usize = 1_000;
const ORACLE_EVERY: usize = 40;

/// xorshift64*: the batches only need to be varied and repeatable.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u32) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        ((self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % u64::from(bound)) as u32
    }

    fn edge(&mut self) -> Edge {
        (self.below(NODES), self.below(NODES))
    }
}

fn full_eval(edges: &BTreeSet<Edge>, plan: &CompiledQuery) -> Vec<Vec<u32>> {
    let mut catalog = Catalog::new();
    catalog.insert("G", Relation::from_pairs(edges.iter().copied()));
    let mut sink = CollectSink::new();
    Lftj::new()
        .execute(plan, &catalog, &mut sink)
        .expect("runs");
    sink.tuples().to_vec()
}

#[test]
fn a_thousand_batches_leave_the_cache_the_size_of_the_data() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    let mut live: BTreeSet<Edge> = BTreeSet::new();
    while live.len() < EDGES {
        live.insert(rng.edge());
    }
    let mut catalog = Catalog::new();
    catalog.insert("G", Relation::from_pairs(live.iter().copied()));
    let session = Session::new(catalog).with_pool(1);
    let plan = CompiledQuery::compile(&Pattern::Cycle3.query()).expect("compiles");
    let watch = session.watch(&plan).expect("watchable");

    let count = |handle: triejax_join::QueryHandle| {
        let mut sink = CountSink::default();
        handle.run(&mut sink).expect("runs");
        sink.count()
    };
    let mut rows = count(session.query(&plan));
    let mut compactions = 0;
    let mut sizes = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        let sampled = batch % ORACLE_EVERY == 0;
        let before = sampled.then(|| full_eval(&live, &plan));

        let victims: Vec<Edge> = live.iter().copied().collect();
        let mut deletes = BTreeSet::new();
        while deletes.len() < BATCH {
            deletes.insert(victims[rng.below(victims.len() as u32) as usize]);
        }
        let mut inserts = BTreeSet::new();
        while inserts.len() < BATCH {
            let e = rng.edge();
            if !live.contains(&e) {
                inserts.insert(e);
            }
        }
        live.retain(|e| !deletes.contains(e));
        live.extend(inserts.iter().copied());

        // A handle of the epoch about to be replaced, run after the fact:
        // it must answer for its own epoch and leave nothing behind.
        let stale = session.query(&plan);
        let pending = !session.deltas().is_empty();
        let epoch = session
            .apply(
                "G",
                &Relation::from_pairs(inserts),
                &Relation::from_pairs(deletes),
            )
            .expect("apply");
        compactions += usize::from(pending && session.deltas().is_empty());
        let update = watch.poll().expect("one update per apply");
        assert_eq!(update.epoch, epoch);
        assert_eq!(count(stale), rows, "batch {batch}: the stale handle");
        rows = count(session.query(&plan));

        if let Some(before) = before {
            let after = full_eval(&live, &plan);
            assert_eq!(rows, after.len() as u64, "batch {batch}: query");
            let seen: BTreeSet<&Vec<u32>> = before.iter().collect();
            let created: Vec<Vec<u32>> = after
                .iter()
                .filter(|r| !seen.contains(r))
                .cloned()
                .collect();
            assert_eq!(update.rows, created, "batch {batch}: update");
        }
        let cache = session.trie_cache();
        sizes.push((cache.bytes(), cache.len()));
    }
    assert!(compactions >= 15, "only {compactions} compactions");

    let peak = |range: std::ops::Range<usize>| {
        let bytes = sizes[range.clone()].iter().map(|s| s.0).max().unwrap();
        let len = sizes[range].iter().map(|s| s.1).max().unwrap();
        (bytes, len)
    };
    let (early_bytes, early_len) = peak(100..500);
    let (late_bytes, late_len) = peak(500..BATCHES);
    assert!(
        late_bytes as f64 <= 1.25 * early_bytes as f64,
        "cache bytes grew from {early_bytes} to {late_bytes}"
    );
    assert!(
        late_len as f64 <= 1.25 * early_len as f64,
        "cache entries grew from {early_len} to {late_len}"
    );
}
