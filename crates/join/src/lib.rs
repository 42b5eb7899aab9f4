//! Software join engines for the TrieJax reproduction.
//!
//! Six engines share one interface ([`JoinEngine`]) and one plan format
//! ([`triejax_query::CompiledQuery`]):
//!
//! * [`Lftj`] — LeapFrog TrieJoin (Veldhuizen, ICDT'14): the WCOJ backbone,
//!   zero intermediate results, recomputes recurring partial joins.
//! * [`Ctj`] — Cached TrieJoin (Kalinsky et al., EDBT'17): LFTJ plus a
//!   partial-join-result cache, the algorithm TrieJax implements in
//!   hardware (paper §2.2).
//! * [`GenericJoin`] — the set-intersection WCOJ formulation used by
//!   EmptyHeaded (Aberger et al., SIGMOD'16).
//! * [`PairwiseHash`] — a traditional left-deep binary hash-join plan,
//!   the algorithm class of Q100 and Graphicionado's pattern expansion;
//!   it materializes every intermediate relation.
//! * [`ParLftj`] / [`ParCtj`] — LFTJ and CTJ parallelized on the shared
//!   `triejax-exec` runtime: the first join variable's domain is split
//!   into many contiguous root ranges, scheduled on a work-stealing
//!   worker pool (the software analogue of TrieJax's dynamic
//!   spawn-on-match multithreading, paper §3.4), and emitted through
//!   batched [`ShardSink`]s into an order-preserving merge. `ParCtj`
//!   shares **one sharded partial-join-result cache across all workers**
//!   (lock-striped, unbounded,
//!   first-writer-wins insert races) — the software analogue of the
//!   on-chip PJR cache every TrieJax lane shares, and the reason its hit
//!   counts match sequential CTJ's instead of being capped below them.
//!
//! The four trie engines are presets of **one engine type**, [`TrieJoin`],
//! whose partial-join-result cache is a configuration bit, as in the
//! paper's machine: every builder, run method and [`JoinEngine`] impl is
//! written once, and a preset chooses only its worker default and its
//! name: the sequential presets `Lftj`/`Ctj` run one worker,
//! `ParLftj`/`ParCtj` one per core. Every run goes through one engine
//! body, which runs one **trie-join driver** on the calling thread when
//! the run plans a single root range (always at one worker) and one per
//! pool worker otherwise. The driver is the Cached TrieJoin control flow
//! of paper Figure 4, which with no cache is LFTJ. It is generic over the
//! [`Tally`] and the cursor (frozen trie or merged view of a mutated
//! relation) only; the run's budget and its partial-join-result store are
//! values it holds — no store for LFTJ, a worker-local one for a
//! one-range CTJ run, a handle onto the shared cache for each pooled CTJ
//! worker. Every run knob is a builder with a fixed default, and the
//! crate reads no environment.
//!
//! Engines count their work in [`EngineStats`] (operation counts, memory
//! touches, intermediate results, cache hits, shard/steal scheduling
//! counters), which the harness uses to regenerate the paper's Figures 17
//! and 18 and to drive the baseline performance models.
//!
//! Instrumentation is a compile-time choice through the [`Tally`] trait:
//! [`JoinEngine::execute`] always runs the [`Counting`] kernels (the
//! paper-figure mode), while each engine's `run_tallied::<NoTally>` runs
//! the *same* kernel with every access-accounting call compiled away —
//! the zero-overhead mode for throughput benchmarking.
//!
//! # Example
//!
//! ```
//! use triejax_join::{Catalog, CountSink, Ctj, JoinEngine, Lftj};
//! use triejax_query::{patterns, CompiledQuery};
//! use triejax_relation::Relation;
//!
//! let mut catalog = Catalog::new();
//! catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0), (0, 2)]));
//! let plan = CompiledQuery::compile(&patterns::cycle3())?;
//!
//! let mut count = CountSink::default();
//! Lftj::default().execute(&plan, &catalog, &mut count)?;
//! let mut count2 = CountSink::default();
//! Ctj::default().execute(&plan, &catalog, &mut count2)?;
//! assert_eq!(count.count(), count2.count()); // engines agree
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod catalog;
mod ctj;
mod engine;
mod error;
mod generic;
mod intersect;
mod leapfrog;
mod lftj;
mod options;
mod pairwise;
mod parctj;
mod parlftj;
mod row;
mod session;
mod shard;
mod sink;
mod stats;
mod triecache;
mod viewset;

pub use catalog::{Catalog, TrieSet};
pub use ctj::Ctj;
pub use engine::JoinEngine;
pub use error::JoinError;
pub use generic::GenericJoin;
pub use intersect::intersect_sorted;
pub use leapfrog::Leapfrog;
pub use lftj::Lftj;
pub use pairwise::PairwiseHash;
pub use parctj::ParCtj;
pub use parlftj::{ParLftj, TrieJoin};
pub use row::Row;
pub use session::{QueryHandle, ResultStream, Session, WatchStream, WatchUpdate};
pub use sink::{CollectSink, CountSink, ResultSink, ShardSink};
pub use stats::EngineStats;
pub use triecache::TrieCache;
pub use triejax_exec::{CancelReason, CancelToken, RunBudget};
pub use triejax_relation::{Counting, NoTally, RelationDelta, Tally};
pub use triejax_store::{StoreError, StoredCatalog, StoredTrie};
pub use viewset::DeltaMap;

/// Deterministic fault-injection harness for the parallel runtime,
/// re-exported for integration tests driving the engines through the
/// public API; see [`triejax_exec::faults`]. Compiled only with the
/// `faults` feature.
#[cfg(feature = "faults")]
pub use triejax_exec::faults;
