//! Persistence: snapshot a session's tries into a relocatable store
//! file, re-open it cold, and serve the paper's Cycle3/Cycle4 queries
//! with **zero trie builds** — the batch-library-to-serving-system path.
//!
//! The store is keyed by `(relation name, content fingerprint,
//! permutation)`, so a re-opened catalog whose base data changed simply
//! never reaches the stale tries: no invalidation protocol, correctness
//! by construction.
//!
//! Run with: `cargo run --release --example persistence -- [PATH]`
//! (default `triejax_catalog.tjx` in the current directory). Its
//! assertions check the zero-build reopen and that a damaged store is
//! detected; CI runs it on every push.

use triejax_join::{Catalog, CollectSink, Session, StoredCatalog};
use triejax_query::{patterns, CompiledQuery};
use triejax_relation::Relation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "triejax_catalog.tjx".to_string());

    // A ring graph with chords; steps +1, +2 and -4 close both
    // triangles (2 + 2 - 4 = 0) and 4-cycles (1 + 1 + 2 - 4 = 0).
    let n = 40u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + 2) % n), ((i + 4) % n, i)])
        .collect();
    let mut catalog = Catalog::new();
    catalog.insert("G", Relation::from_pairs(edges));

    let plans: Vec<CompiledQuery> = [patterns::cycle3(), patterns::cycle4()]
        .iter()
        .map(CompiledQuery::compile)
        .collect::<Result<_, _>>()?;

    // 1. Producer: build every trie the plans need, snapshot, save.
    let producer = Session::new(catalog).with_pool(4);
    let mut warm = Vec::new();
    for plan in &plans {
        let mut sink = CollectSink::new();
        let stats = producer.query(plan).run(&mut sink)?;
        println!(
            "producer ran {} -> {} tuples ({} ns of trie builds)",
            plan.describe(),
            sink.len(),
            stats.trie_build_ns
        );
        warm.push(sink.tuples().to_vec());
    }
    let stored = producer.snapshot(&plans)?;
    stored.save(&path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "saved {} relation(s) + {} trie(s) to {path} ({bytes} bytes)\n",
        stored.relations().len(),
        stored.tries().len()
    );

    // 2. Consumer: a cold process opens the file — one read, no trie
    // construction; each stored trie is checked by the first query that
    // needs it — and serves the same queries.
    let reopened = Session::open(&path)?;
    for (plan, expect) in plans.iter().zip(&warm) {
        let mut sink = CollectSink::new();
        let stats = reopened.query(plan).run(&mut sink)?;
        assert_eq!(
            sink.tuples(),
            expect.as_slice(),
            "answers must be identical"
        );
        assert_eq!(stats.trie_build_ns, 0, "a cold open must build nothing");
        println!(
            "reopened session served {} tuples with {} store hits ({} checked on first touch \
             in {} ns) and 0 ns of builds",
            sink.len(),
            stats.trie_cache_hits,
            stats.store_entries_verified,
            stats.trie_load_ns
        );
    }

    // 3. Checksums guard every byte. The directory is checked when the
    // file opens: flip a bit in it and the open fails loudly. Each trie
    // body is checked on its first touch: flip a bit in one and the file
    // still opens, but `verify()` — and the first query that needs that
    // trie — fails instead of serving it.
    let raw = std::fs::read(&path)?;
    let corrupt = std::env::temp_dir().join("triejax_corrupt_demo.tjx");
    let mut bad_directory = raw.clone();
    bad_directory[30] ^= 1;
    std::fs::write(&corrupt, &bad_directory)?;
    match StoredCatalog::open(&corrupt) {
        Err(e) => println!("\ncopy with a flipped directory bit rejected at open: {e}"),
        Ok(_) => panic!("a corrupted directory must not open"),
    }
    // The last trie's body ends the file (a frozen catalog stores no
    // deltas after it).
    let mut bad_trie = raw;
    let last = bad_trie.len() - 1;
    bad_trie[last] ^= 1;
    std::fs::write(&corrupt, &bad_trie)?;
    let opened = StoredCatalog::open(&corrupt)?;
    match opened.verify() {
        Err(e) => println!("copy with a flipped trie bit opens, fails verify(): {e}"),
        Ok(()) => panic!("a corrupted trie must not verify"),
    }
    let session = Session::open(&corrupt)?;
    let failed = plans
        .iter()
        .filter_map(|plan| session.query(plan).run(&mut CollectSink::new()).err())
        .inspect(|e| println!("and the first query that needs it fails: {e}"))
        .count();
    assert!(failed > 0, "a query must meet the corrupted trie");
    std::fs::remove_file(&corrupt).ok();
    Ok(())
}
