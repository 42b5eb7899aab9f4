//! Streaming: pull join results through a [`triejax_join::ResultStream`]
//! instead of collecting them — exact sequential order, incrementally,
//! with cooperative cancellation when the consumer stops early.
//!
//! Run with: `cargo run --release --example streaming`

use triejax_join::{Catalog, Row, Session};
use triejax_query::{patterns, CompiledQuery};
use triejax_relation::Relation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A dense graph: every ordered pair of 14 vertices.
    let edges: Vec<(u32, u32)> = (0..14u32)
        .flat_map(|a| (0..14u32).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let mut catalog = Catalog::new();
    catalog.insert("G", Relation::from_pairs(edges));

    let session = Session::new(catalog).with_pool(4);
    let plan = CompiledQuery::compile(&patterns::cycle3())?;

    // 1. Pull the full stream: tuples arrive in the exact order the
    // sequential engine would emit them, while workers run ahead.
    let mut stream = session.query(&plan).stream();
    let mut count = 0usize;
    let mut first = None;
    for tuple in stream.by_ref() {
        if first.is_none() {
            first = Some(tuple.clone());
        }
        count += 1;
    }
    let stats = stream
        .outcome()
        .expect("exhausted stream has an outcome")
        .as_ref()
        .map_err(|e| e.to_string())?;
    println!(
        "streamed {count} triangles (first: {:?}), {} shards across {} workers",
        first.expect("dense graph has triangles"),
        stats.shards,
        session.workers()
    );

    // 2. Stop early: taking 5 rows and dropping the stream cancels the
    // run cooperatively — workers notice the token and park; nothing
    // blocks on a full channel.
    let early: Vec<Row> = session.query(&plan).stream().take(5).collect();
    println!(
        "took {} rows, then dropped the stream — no hang",
        early.len()
    );

    // 3. Or declare the limit up front: the budget trips inside the
    // engine, and the stream still ends with an exact prefix.
    let mut limited = session.query(&plan).with_row_limit(5).stream();
    let prefix: Vec<Row> = limited.by_ref().collect();
    assert_eq!(prefix, early, "both 5-row prefixes are identical");
    println!("row-limited stream returned the same 5-row prefix");

    // 4. Two streams on one session run concurrently against the shared
    // worker pool and trie cache.
    let cycle4 = CompiledQuery::compile(&patterns::cycle4())?;
    let mut a = session.query(&plan).stream();
    let mut b = session.query(&cycle4).stream();
    let (mut triangles, mut squares) = (0usize, 0usize);
    loop {
        match (a.next(), b.next()) {
            (None, None) => break,
            (ta, tb) => {
                triangles += usize::from(ta.is_some());
                squares += usize::from(tb.is_some());
            }
        }
    }
    println!("interleaved pull: {triangles} triangles alongside {squares} 4-cycles");
    Ok(())
}
