//! Quickstart: find every triangle in a small graph, first with the
//! software Cached TrieJoin engine, then on the shared parallel runtime
//! (the pool-based `ParCtj` builder), then on the simulated TrieJax accelerator — and check they all
//! agree, tuple for tuple.
//!
//! Run with: `cargo run --release --example quickstart`

use triejax::{TrieJax, TrieJaxConfig};
use triejax_join::{Catalog, CollectSink, Ctj, JoinEngine, ParCtj};
use triejax_query::{patterns, CompiledQuery};
use triejax_relation::Relation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small directed graph with two triangles: (0,1,2) and (2,3,4).
    let edges = vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 4)];
    let mut catalog = Catalog::new();
    catalog.insert("G", Relation::from_pairs(edges));

    // Table-1 query: cycle3(x,y,z) = G(x,y),G(y,z),G(z,x).
    let query = patterns::cycle3();
    println!("query: {query}");
    let plan = CompiledQuery::compile(&query)?;
    println!("plan:  {}\n", plan.describe());

    // 1. Software Cached TrieJoin (the algorithm TrieJax accelerates).
    let mut software = CollectSink::new();
    let stats = Ctj::new().execute(&plan, &catalog, &mut software)?;
    println!("software CTJ found {} matches:", software.len());
    for t in software.tuples() {
        println!("  (x={}, y={}, z={})", t[0], t[1], t[2]);
    }
    println!(
        "  work: {} leapfrog ops, {} LUB searches, {} bytes touched\n",
        stats.match_ops,
        stats.lub_ops,
        stats.bytes_moved()
    );

    // 2. The same join on the shared parallel runtime: a pool of
    // workers stealing root-range shards, one PJR cache shared by every
    // worker. The merged stream is guaranteed to
    // be tuple-for-tuple identical to the sequential engine — same
    // tuples, same order.
    let mut parallel = CollectSink::new();
    let par_stats = ParCtj::with_pool(2).execute(&plan, &catalog, &mut parallel)?;
    assert_eq!(parallel.tuples(), software.tuples());
    println!(
        "parallel CTJ agrees in order: {} shards, {} stolen\n",
        par_stats.shards, par_stats.steals
    );

    // 3. The TrieJax accelerator (cycle-level simulation).
    let accel = TrieJax::new(TrieJaxConfig::default());
    let mut hardware = CollectSink::new();
    let report = accel.run_with_sink(&plan, &catalog, &mut hardware)?;
    println!("TrieJax simulated run:");
    println!("  results:  {}", report.results);
    println!(
        "  cycles:   {} @2.38GHz ({:.3} us)",
        report.cycles,
        report.runtime_s * 1e6
    );
    println!(
        "  threads:  {} used, {} dynamic spawns",
        report.threads_used, report.spawns
    );
    println!(
        "  energy:   {:.3} uJ ({:.0}% in the memory system)",
        report.energy_j() * 1e6,
        report.energy.memory_fraction() * 100.0
    );

    assert_eq!(software.into_sorted(), hardware.into_sorted());
    println!("\nsoftware and hardware agree on every tuple.");
    Ok(())
}
