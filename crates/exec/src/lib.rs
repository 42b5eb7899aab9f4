//! Shared parallel execution runtime for the TrieJax reproduction.
//!
//! TrieJax gets its throughput from many concurrent join-processing units
//! that *dynamically* spawn work on cached sub-joins (paper §3.4) rather
//! than carving the input into static per-thread partitions: a unit that
//! finishes its share of the first-attribute domain immediately picks up
//! outstanding work from the shared pool, so a skewed value domain
//! rebalances instead of straggling. This crate is the software analogue
//! of that execution model, shared by every parallel join engine:
//!
//! * [`WorkerPool`] — a reusable, scoped worker pool. A query's root-value
//!   domain is split into many more contiguous *root ranges* (shards)
//!   than there are workers; each worker owns a shard queue and
//!   **steals** from its siblings once its own queue runs dry, so a heavy
//!   range is one unit of work among many instead of a thread's whole
//!   static share. A second entry point, [`WorkerPool::run_spawning`],
//!   lets running tasks submit new ones through a [`Spawner`].
//! * [`OrderedMerge`] — an order-preserving merge of per-shard *batch*
//!   streams. Workers flush small batches as they are produced (instead of
//!   materializing each shard's full result), and a foreground drainer
//!   forwards them downstream in shard order as soon as every earlier
//!   shard has caught up. Memory is bounded by the out-of-order tail, not
//!   by the result set.
//! * [`Striped`] — lock-striped shared state, the primitive behind
//!   runtime structures *shared by* all workers (TrieJax's on-chip PJR
//!   cache is shared by every lane; its software analogue, the shared
//!   partial-join-result cache of `triejax_join::ParCtj`, stripes its
//!   entries over these lanes). Stripe selection is hash-determined so
//!   every worker finds its siblings' entries; [`suggested_stripes`]
//!   overshards relative to the worker count to keep collisions rare.
//!
//! The pool is deliberately engine-agnostic — it schedules opaque tasks
//! and knows nothing about tries or tuples — so LFTJ, CTJ and any future
//! engine parallelize through the same runtime (see `triejax_join::ParLftj`
//! and `triejax_join::ParCtj`).
//!
//! [`WorkerPool::new`] runs one worker per core
//! ([`std::thread::available_parallelism`]); this crate reads no
//! environment, and neither does `triejax-join`: a worker count is an
//! explicit [`WorkerPool::with_workers`] or this default.
//!
//! Two further layers make the runtime governable and testable:
//!
//! * [`RunBudget`] / [`BudgetHandle`] — cooperative cancellation and
//!   query budgets (deadline, row quota). A kernel holds an
//!   `Option<BudgetHandle>`: `None` when un-governed, else a handle that
//!   polls the shared flag; a tripped budget winds the whole pool run
//!   down cooperatively instead of abandoning merge lanes.
//! * `faults` (tests / `--features faults` only) — a deterministic
//!   fault-injection harness that forces panics and delays at precise
//!   `(worker, event, ordinal)` points, so the no-hang/no-lost-lane
//!   properties above are *tested*, not assumed.
//!
//! # Example
//!
//! ```
//! use triejax_exec::{OrderedMerge, WorkerPool};
//!
//! // Square numbers across a pool, draining batches in task order.
//! let pool = WorkerPool::with_workers(3);
//! let merge = OrderedMerge::new(8);
//! let tasks: Vec<u64> = (0..8).collect();
//! let mut drained = Vec::new();
//! let ((results, stats), ()) = pool.run_with_foreground(
//!     &tasks,
//!     |_ctx, lane, &n| {
//!         merge.push(lane, vec![n * n]);
//!         merge.finish(lane);
//!         n * n
//!     },
//!     || merge.drain(|batch| drained.extend(batch)),
//! );
//! assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]); // task order
//! assert_eq!(drained, results); // merge preserves lane order
//! assert_eq!(stats.tasks, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
#[cfg(any(test, feature = "faults"))]
pub mod faults;
mod merge;
mod pool;
mod split;
mod striped;

pub use budget::{BudgetHandle, CancelReason, CancelToken, RunBudget};
pub use merge::OrderedMerge;
pub use pool::{PoolStats, WorkerCtx, WorkerPool};
pub use split::Spawner;
pub use striped::{suggested_stripes, Striped};
