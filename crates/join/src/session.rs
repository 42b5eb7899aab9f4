//! Streaming query sessions: the serving layer over the parallel engines.
//!
//! A [`Session`] owns what a serving process shares across queries — the
//! catalog, one worker-pool configuration, and one cross-query
//! [`TrieCache`] — and hands out per-query [`QueryHandle`]s that carry
//! their own budgets (row limits, deadlines, shard granularity). A handle
//! either runs synchronously into any [`ResultSink`], or becomes a
//! pull-based [`ResultStream`]: an iterator that delivers tuples in the
//! **exact sequential order** while the join is still running, and whose
//! `Drop` cancels the run cooperatively — walking away from a stream can
//! never hang the pool or leak a runaway query.
//!
//! Sessions open directly from a persistent [`StoredCatalog`]
//! ([`Session::open`]): the stored tries preload the session cache, so the
//! first query of a cold process runs with zero trie builds. The inverse,
//! [`Session::snapshot`], warms the cache with a set of plans and packages
//! catalog + tries (+ any pending deltas) for
//! [`StoredCatalog::save`].
//!
//! # Mutation
//!
//! Sessions are mutable without ever rebuilding a base trie:
//! [`Session::apply`] folds one batch of inserts and deletes into a
//! per-relation [`RelationDelta`] kept beside the frozen base, bumping the
//! session **epoch**. Queries snapshot `(catalog, deltas, epoch)` at
//! [`Session::query`] time, so a long stream keeps reading the state it
//! started from while later batches land. Engines walk mutated relations
//! through [`triejax_relation::MergeCursor`]s over a patched view of the
//! cached base trie (`base ∪ inserts − tombstones`); untouched relations
//! keep their plain trie cursors. When a relation's delta outgrows
//! [`Session::with_compact_ratio`] × its base (or on an explicit
//! [`Session::compact`]), the delta is merged into a fresh frozen base —
//! an O(base) rebuild paid rarely, amortizing to O(batch) per apply — and
//! the session cache forgets every trie and view of the base it replaced
//! ([`TrieCache`] module docs), so its size does not grow with the number
//! of batches.
//!
//! Applies are atomic: the new state is fully computed before it is
//! swapped in, so a panic mid-apply (fault injection, allocation failure)
//! leaves the session at its prior epoch with the old state intact.
//!
//! # Standing queries
//!
//! [`Session::watch`] registers a query for **semi-naïve incremental
//! evaluation**: after every applied batch the subscriber's
//! [`WatchStream`] receives exactly the result tuples that batch *newly
//! created* — computed by joining only the delta-containing atom
//! combinations, each in a variable order that starts from the batch's own
//! rows, never by re-running the full query (see the overlap-term
//! decomposition in ARCHITECTURE.md). A watcher whose evaluation fails is
//! unsubscribed — its stream hangs up — rather than sent a partial update.

use std::num::NonZeroUsize;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use triejax_exec::{CancelToken, NoBudget, WorkerPool};
use triejax_query::{CompiledQuery, VarId};
use triejax_relation::{NoTally, Relation, RelationDelta, Value};
use triejax_store::{StoreError, StoredCatalog};

use crate::cache::NoPjr;
use crate::engine::head_slots;
use crate::lftj::Driver;
use crate::options::{default_pool, process_env, RunOptions};
use crate::parlftj::{run_batched, run_parallel, BatchRun};
use crate::viewset::{AtomSource, MergeSet, ViewMemo};
use crate::{
    Catalog, CollectSink, DeltaMap, EngineStats, JoinError, ResultSink, Row, TrieCache, TrieSet,
};

/// Rows per batch pushed through a pooled stream's channel — same
/// batching the shard sinks use, so streaming adds one copy, not
/// per-tuple signalling.
const STREAM_BATCH_ROWS: usize = 256;

/// Rows a one-worker stream's join emits per refill before it stops:
/// enough to amortize setting the driver up and resuming it, few enough
/// that the batch stays in cache while the consumer reads it.
const INLINE_BATCH_ROWS: u64 = 4096;

/// A session's compaction ratio until [`Session::with_compact_ratio`]
/// replaces it.
const DEFAULT_COMPACT_RATIO: f64 = 0.5;

/// Batches buffered in a stream's channel before the producing engine
/// blocks: bounds the memory between a fast producer and a slow consumer.
const STREAM_CHANNEL_BATCHES: usize = 16;

/// One immutable generation of a session's data: the frozen bases, the
/// pending per-relation deltas, and the epoch that stamps them. Queries
/// clone this (two `Arc` bumps) and keep reading it while later epochs
/// land.
#[derive(Debug, Clone)]
struct SessionState {
    catalog: Arc<Catalog>,
    deltas: Arc<DeltaMap>,
    epoch: u64,
}

/// The interior every clone of a [`Session`] shares.
#[derive(Debug)]
struct Mutable {
    state: RwLock<SessionState>,
    /// Serializes [`Session::apply`]/[`Session::compact`]: the batch
    /// algebra (and watcher notification order) must compose sequentially.
    apply: Mutex<()>,
    watchers: Mutex<Vec<Watcher>>,
}

/// A serving-process context: one catalog, one worker-pool configuration,
/// and one shared cross-query trie cache.
///
/// Concurrent queries are the point — [`Session::query`] borrows nothing
/// mutably, and every [`QueryHandle`]/[`ResultStream`] owns `Arc`s into
/// the shared state, so any number of streams can run at once against the
/// same tries. Clones share the same mutable state: an [`Session::apply`]
/// through one clone advances the epoch every clone observes.
///
/// # Example
///
/// ```
/// use triejax_join::{Catalog, Session};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]));
/// let session = Session::new(catalog).with_pool(2);
/// let plan = CompiledQuery::compile(&patterns::cycle3())?;
///
/// let mut rows = Vec::new();
/// for row in session.query(&plan).stream() {
///     rows.push(row); // arrives incrementally, in sequential order
/// }
/// assert_eq!(rows.len(), 3);
///
/// // Mutate without rebuilding: drop one edge, close a new triangle
/// // through a fresh vertex (0 → 3 → 1 → 0).
/// session.apply(
///     "G",
///     &Relation::from_pairs(vec![(0, 3), (3, 1), (1, 0)]),
///     &Relation::from_pairs(vec![(0, 1)]),
/// )?;
/// assert_eq!(session.query(&plan).stream().count(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    shared: Arc<Mutable>,
    /// The pool configuration every query and snapshot of this session
    /// shares ([`WorkerPool`] is a `Copy` config; each run spawns its
    /// scoped workers from it).
    pool: WorkerPool,
    cache: Arc<TrieCache>,
    /// The compaction ratio: [`DEFAULT_COMPACT_RATIO`], unless
    /// [`Session::with_compact_ratio`] replaced it.
    compact_ratio: f64,
}

impl Session {
    /// Creates a session over `catalog` with the default pool size
    /// (`TRIEJAX_POOL`, else one worker per core) and a fresh unbounded
    /// trie cache.
    pub fn new(catalog: Catalog) -> Self {
        Session::from_parts(catalog, DeltaMap::new(), TrieCache::unbounded())
    }

    fn from_parts(catalog: Catalog, deltas: DeltaMap, cache: TrieCache) -> Self {
        Session {
            shared: Arc::new(Mutable {
                state: RwLock::new(SessionState {
                    catalog: Arc::new(catalog),
                    deltas: Arc::new(deltas),
                    epoch: 0,
                }),
                apply: Mutex::new(()),
                watchers: Mutex::new(Vec::new()),
            }),
            pool: default_pool(&process_env),
            cache: Arc::new(cache),
            compact_ratio: DEFAULT_COMPACT_RATIO,
        }
    }

    /// Opens a session from a saved [`StoredCatalog`] file: the stored
    /// relations become the catalog and every stored trie preloads the
    /// session cache, so queries whose tries were saved run with **zero**
    /// trie builds ([`EngineStats::trie_build_ns`] stays `0`). A stored
    /// trie is checked and decoded by the first query that needs it
    /// ([`EngineStats::trie_load_ns`]); one that fails the check fails
    /// that query, and every later one that needs it, with
    /// [`JoinError::Store`]. The file's delta entries are restored as the
    /// session's pending deltas. Files of store format versions 1–3 open
    /// too (see `triejax-store`).
    ///
    /// # Errors
    ///
    /// Returns the [`StoreError`] if the file cannot be read or fails
    /// validation.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        Ok(Session::from_stored(StoredCatalog::open(path)?))
    }

    /// Builds a session from an already-loaded stored catalog (the
    /// in-memory form of [`Session::open`]). The stored relations move into
    /// the session's catalog; nothing is copied but the pending deltas.
    pub fn from_stored(stored: StoredCatalog) -> Self {
        let mut deltas = DeltaMap::new();
        for (name, delta) in stored.deltas() {
            if !delta.is_empty() {
                deltas.insert(name.clone(), delta.clone());
            }
        }
        let cache = TrieCache::unbounded();
        cache.preload(&stored);
        let mut catalog = Catalog::new();
        for (name, rel) in stored.into_relations() {
            catalog.insert(name, rel);
        }
        Session::from_parts(catalog, deltas, cache)
    }

    /// Sets the worker count shared by every query and snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_pool(mut self, workers: usize) -> Self {
        assert!(workers > 0, "workers must be positive");
        self.pool = WorkerPool::with_workers(workers);
        self
    }

    /// Sets this session's delta-compaction threshold (default `0.5`):
    /// after an apply leaves a relation with `delta.len() > ratio ×
    /// base.len()`, the delta is merged into a fresh frozen base. `0.0`
    /// compacts after every apply; `f64::INFINITY` disables
    /// auto-compaction.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is negative or NaN.
    pub fn with_compact_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 0.0, "compact ratio must be non-negative");
        self.compact_ratio = ratio;
        self
    }

    /// A clone of the current state, taken under the read lock.
    fn state(&self) -> SessionState {
        self.shared
            .state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The current catalog of frozen base relations (pending deltas live
    /// beside it, see [`Session::deltas`]).
    pub fn catalog(&self) -> Arc<Catalog> {
        self.state().catalog
    }

    /// The pending per-relation deltas of the current epoch.
    pub fn deltas(&self) -> Arc<DeltaMap> {
        self.state().deltas
    }

    /// The current epoch: `0` at creation, bumped by every successful
    /// [`Session::apply`] and every compacting [`Session::compact`].
    pub fn epoch(&self) -> u64 {
        self.shared
            .state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .epoch
    }

    /// The shared cross-query trie cache (inspect its hit/insertion
    /// counters to observe store/cache effectiveness).
    pub fn trie_cache(&self) -> &Arc<TrieCache> {
        &self.cache
    }

    /// The worker count this session's queries run with.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Applies one mutation batch to relation `name`: `deletes` first,
    /// then `inserts` (a tuple in both ends up present). The batch folds
    /// into the relation's pending [`RelationDelta`] — the frozen base
    /// trie is **not** rebuilt — and the session epoch advances by one.
    /// Unknown names create a fresh relation of the batch arity.
    ///
    /// The apply is atomic: the new state is fully computed before the
    /// swap, so a panic mid-apply leaves the session at the prior epoch.
    /// After the swap every standing query ([`Session::watch`]) receives
    /// its incremental update for this batch, before `apply` returns.
    ///
    /// When the new delta exceeds the compaction threshold
    /// ([`Session::with_compact_ratio`]) relative to a **non-empty** base,
    /// the delta is merged into a fresh frozen base as part of the same
    /// epoch. Relations created by `apply` (empty base) never
    /// auto-compact; use [`Session::compact`] to promote them.
    ///
    /// Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::ArityMismatch`] when `inserts` and `deletes`
    /// disagree on arity or differ from the existing relation's arity; the
    /// session state is untouched.
    pub fn apply(
        &self,
        name: &str,
        inserts: &Relation,
        deletes: &Relation,
    ) -> Result<u64, JoinError> {
        let _apply = self
            .shared
            .apply
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let state = self.state();
        if inserts.arity() != deletes.arity() {
            return Err(JoinError::ArityMismatch {
                name: name.to_owned(),
                atom_arity: inserts.arity(),
                relation_arity: deletes.arity(),
            });
        }
        let arity = inserts.arity();
        let (no_base, no_delta);
        let (base, created) = match state.catalog.get(name) {
            Some(rel) if rel.arity() != arity => {
                return Err(JoinError::ArityMismatch {
                    name: name.to_owned(),
                    atom_arity: arity,
                    relation_arity: rel.arity(),
                });
            }
            Some(rel) => (rel, false),
            None => {
                no_base = Relation::new(arity).expect("batch relations have nonzero arity");
                (&no_base, true)
            }
        };
        let old_delta = match state.deltas.get(name) {
            Some(d) => d,
            None => {
                no_delta = RelationDelta::empty(arity).expect("batch relations have nonzero arity");
                &no_delta
            }
        };
        let (added, _removed) = old_delta.batch_effects(base, inserts, deletes);
        let new_delta = old_delta.apply_batch(base, inserts, deletes);
        let compact =
            !base.is_empty() && new_delta.len() as f64 > self.compact_ratio * base.len() as f64;

        let new_catalog = if created || compact {
            let mut cat = (*state.catalog).clone();
            if compact {
                cat.insert(name, new_delta.merge_into(base));
            } else {
                cat.insert(name, base.clone());
            }
            Arc::new(cat)
        } else {
            Arc::clone(&state.catalog)
        };
        let new_deltas = {
            let mut dm = (*state.deltas).clone();
            if compact || new_delta.is_empty() {
                dm.remove(name);
            } else {
                dm.insert(name.to_owned(), new_delta.clone());
            }
            Arc::new(dm)
        };
        let epoch = state.epoch + 1;

        // Fault-injection hook: the new state is fully computed but not
        // yet visible — a panic fired here must leave the session (and any
        // subsequent observer) at the prior epoch.
        #[cfg(feature = "faults")]
        crate::faults::fire(crate::faults::FaultEvent::DeltaApply);

        self.swap_state(SessionState {
            catalog: Arc::clone(&new_catalog),
            deltas: new_deltas,
            epoch,
        });
        // Watchers evaluate against the base this batch was applied to;
        // only then may the cache forget it.
        self.notify_watchers(name, base, &new_delta, &added, epoch);
        if compact {
            self.forget_replaced_base(&new_catalog, name);
        }
        Ok(epoch)
    }

    fn swap_state(&self, next: SessionState) {
        *self
            .shared
            .state
            .write()
            .unwrap_or_else(PoisonError::into_inner) = next;
    }

    /// After a compaction made `catalog`'s relation `name` the frozen
    /// base: drops the tries and views of the base it replaced from the
    /// session cache. Queries still running over the old base hold their
    /// own `Arc`s and are not disturbed.
    fn forget_replaced_base(&self, catalog: &Catalog, name: &str) {
        let live = catalog.get(name).expect("compaction stored the new base");
        self.cache.supersede(name, live.fingerprint());
    }

    /// Merges relation `name`'s pending delta into a fresh frozen base,
    /// regardless of the compaction ratio. A no-op (epoch unchanged) when
    /// the relation has no pending delta; otherwise the epoch advances.
    /// Standing queries are **not** notified — compaction never changes
    /// the merged view.
    ///
    /// Returns the (possibly unchanged) epoch.
    pub fn compact(&self, name: &str) -> u64 {
        let _apply = self
            .shared
            .apply
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let state = self.state();
        let Some(delta) = state.deltas.get(name).filter(|d| !d.is_empty()) else {
            return state.epoch;
        };
        let base = state
            .catalog
            .get(name)
            .cloned()
            .unwrap_or_else(|| Relation::new(delta.arity()).expect("delta arity is nonzero"));
        let mut cat = (*state.catalog).clone();
        cat.insert(name, delta.merge_into(&base));
        let catalog = Arc::new(cat);
        let mut dm = (*state.deltas).clone();
        dm.remove(name);
        let epoch = state.epoch + 1;
        self.swap_state(SessionState {
            catalog: Arc::clone(&catalog),
            deltas: Arc::new(dm),
            epoch,
        });
        self.forget_replaced_base(&catalog, name);
        epoch
    }

    /// Registers `plan` as a **standing query**: the returned
    /// [`WatchStream`] receives one [`WatchUpdate`] per subsequent
    /// [`Session::apply`], carrying exactly the result tuples that batch
    /// newly created, in the engine's sequential order.
    ///
    /// Evaluation is semi-naïve: per applied batch only the
    /// delta-containing atom combinations are joined (one term per atom
    /// referencing the mutated relation, planned with that atom's
    /// variables first), never the full query. Deletions cannot create
    /// results, so a delete-only batch yields an empty update. Dropping
    /// the stream unregisters the watcher at the next apply; the session
    /// is never blocked by a slow or gone subscriber. A batch whose
    /// evaluation fails — say it created a relation the query reads at
    /// another arity — ends the stream instead of delivering part of an
    /// update.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::Plan`] for projected plans (standing queries
    /// emit full joins, like the engines themselves).
    pub fn watch(&self, plan: &CompiledQuery) -> Result<WatchStream, JoinError> {
        let slots = head_slots(plan)?;
        let q = plan.query();
        let terms = (0..q.atoms().len())
            .map(|j| CompiledQuery::compile_with_order(q, delta_first_order(plan, j)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| JoinError::Plan {
                detail: format!("standing query could not be planned per atom: {e}"),
            })?;
        let (tx, rx) = channel();
        self.shared
            .watchers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Watcher { terms, slots, tx });
        Ok(WatchStream { rx })
    }

    /// Evaluates every live watcher against the just-applied batch and
    /// sends its update; watchers whose subscriber is gone, or whose
    /// evaluation failed, are dropped (which hangs their stream up).
    /// Runs under the apply lock, so updates arrive in epoch order.
    fn notify_watchers(
        &self,
        name: &str,
        base: &Relation,
        new_delta: &RelationDelta,
        added: &Relation,
        epoch: u64,
    ) {
        let mut watchers = self
            .shared
            .watchers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if watchers.is_empty() {
            return;
        }
        let state = self.state();
        // The state's own copy when the delta is still pending: what a
        // view lookup memoizes in it (fingerprints) then serves the
        // epoch's queries as well.
        let new_delta = state.deltas.get(name).unwrap_or(new_delta);
        watchers.retain(|w| {
            w.evaluate(name, base, new_delta, added, &state, &self.cache)
                .is_ok_and(|rows| w.tx.send(WatchUpdate { epoch, rows }).is_ok())
        });
    }

    /// Creates a query handle over `plan` against a snapshot of this
    /// session's current epoch (catalog + pending deltas); later applies
    /// do not affect the handle or its streams.
    pub fn query(&self, plan: &CompiledQuery) -> QueryHandle {
        let state = self.state();
        QueryHandle {
            plan: plan.clone(),
            catalog: state.catalog,
            deltas: state.deltas,
            opts: RunOptions {
                workers: NonZeroUsize::new(self.pool.workers()),
                trie_cache: Some(Some(Arc::clone(&self.cache))),
                ..RunOptions::default()
            },
        }
    }

    /// Builds (into the session cache) every trie the given plans need,
    /// then packages the catalog plus all cached tries — and any pending
    /// deltas — as a [`StoredCatalog`] ready for [`StoredCatalog::save`].
    /// Entries are emitted in sorted key order, so the same session state
    /// always serializes to the same bytes. A trie the session opened from
    /// a store and no query has touched yet is packaged from its stored
    /// bytes, unread.
    ///
    /// # Errors
    ///
    /// Returns a [`JoinError`] if a plan references a relation the catalog
    /// is missing or whose arity mismatches, or needs a stored trie that
    /// fails its first-touch check.
    pub fn snapshot(&self, plans: &[CompiledQuery]) -> Result<StoredCatalog, JoinError> {
        let state = self.state();
        for plan in plans {
            TrieSet::build_on(plan, &state.catalog, &self.pool, Some(&self.cache))?;
        }
        let mut stored = StoredCatalog::new();
        let mut relations: Vec<_> = state.catalog.iter().collect();
        relations.sort_by_key(|(name, _)| name.to_owned());
        for (name, rel) in relations {
            stored.insert_relation(name, rel.clone());
        }
        let mut entries = self.cache.entries();
        entries.sort_by(|a, b| {
            (&a.name, &a.perm, a.fingerprint).cmp(&(&b.name, &b.perm, b.fingerprint))
        });
        for trie in entries {
            stored.insert_stored_trie(trie);
        }
        let mut deltas: Vec<_> = state.deltas.iter().collect();
        deltas.sort_by_key(|(name, _)| name.to_owned());
        for (name, delta) in deltas {
            stored.insert_delta(name, delta.clone());
        }
        Ok(stored)
    }
}

/// One update of a standing query ([`Session::watch`]): the tuples the
/// batch applied at `epoch` newly added to the query's result, in the
/// engine's sequential order. `rows` is empty when the batch created no
/// results (e.g. a delete-only batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchUpdate {
    /// The epoch whose apply produced this update.
    pub epoch: u64,
    /// The newly-created result tuples, in sequential order.
    pub rows: Vec<Vec<Value>>,
}

/// The subscriber half of a standing query: one [`WatchUpdate`] arrives
/// per [`Session::apply`] (synchronously, before `apply` returns).
/// Dropping the stream unsubscribes; an in-flight apply is unaffected and
/// never blocks on this channel (it is unbounded).
#[derive(Debug)]
pub struct WatchStream {
    rx: Receiver<WatchUpdate>,
}

impl WatchStream {
    /// The next pending update, if one has already been delivered.
    pub fn poll(&self) -> Option<WatchUpdate> {
        self.rx.try_recv().ok()
    }

    /// Blocks for the next update; `None` once every clone of the session
    /// is gone (no further applies can happen).
    pub fn recv(&self) -> Option<WatchUpdate> {
        self.rx.recv().ok()
    }
}

/// The variable order of a standing query's term for atom `atom`: that
/// atom's variables first, so the join starts from the few rows a batch
/// added to it, then always a variable that shares an atom with one
/// already placed (so every later level is an intersection under a bound
/// prefix, not a scan), ties and disconnected remainders in `plan`'s order.
fn delta_first_order(plan: &CompiledQuery, atom: usize) -> Vec<VarId> {
    let atoms = plan.query().atoms();
    let of_atom = |v: &VarId| atoms[atom].vars().contains(v);
    let mut order: Vec<VarId> = plan.order().iter().copied().filter(of_atom).collect();
    while order.len() < plan.arity() {
        let unplaced = || plan.order().iter().copied().filter(|v| !order.contains(v));
        let joins_placed = |v: &VarId| {
            let shares = |a: &triejax_query::Atom| {
                a.vars().contains(v) && a.vars().iter().any(|u| order.contains(u))
            };
            atoms.iter().any(shares)
        };
        let next = unplaced().find(joins_placed).or_else(|| unplaced().next());
        order.push(next.expect("fewer variables placed than the plan has"));
    }
    order
}

/// The session-side half of a standing query: one term plan per atom plus
/// what it takes to evaluate one batch's increment and deliver it.
#[derive(Debug)]
struct Watcher {
    /// `terms[j]` is the query planned [delta-first](delta_first_order)
    /// for atom `j`; all share the query, so atom `i` of any term is atom
    /// `i` of the watched plan.
    terms: Vec<CompiledQuery>,
    /// Evaluation depth → head slot of the *watched* plan, for sorting
    /// concatenated term output back into its sequential (binding-order)
    /// emission order.
    slots: Vec<usize>,
    tx: Sender<WatchUpdate>,
}

impl Watcher {
    /// The increment of one applied batch. With `A` the tuples the batch
    /// added to the mutated relation's merged view and `NEW` that view
    /// after the apply, a result is newly created exactly when it reads a
    /// tuple of `A` at some atom `j` over the relation — so the increment
    /// is the union over those atoms of
    ///
    /// ```text
    /// join(A alone at atom j, NEW at every other atom)
    /// ```
    ///
    /// A result reading `A` at several atoms comes out of several terms;
    /// the final sort brings the copies together and they are dropped.
    /// Removals need no filtering: anything over `NEW` and `A` that reads a
    /// tuple the relation did not hold before is genuinely new.
    ///
    /// `NEW` is `base` patched by `new_delta` — the epoch's own views, from
    /// `cache` when a query already built them and left there for the next
    /// one otherwise — and `A` a patch over nothing, private to this call.
    fn evaluate(
        &self,
        name: &str,
        base: &Relation,
        new_delta: &RelationDelta,
        added: &Relation,
        state: &SessionState,
        cache: &TrieCache,
    ) -> Result<Vec<Vec<Value>>, JoinError> {
        /// The view variant of the batch's own rows.
        const ADDED: u8 = 1;
        let atoms = self.terms[0].query().atoms();
        if added.is_empty() || !atoms.iter().any(|a| a.relation() == name) {
            return Ok(Vec::new());
        }
        let nothing = Relation::new(added.arity()).expect("batch relations have nonzero arity");
        let only_added = RelationDelta::from_parts(added.clone(), nothing.clone())
            .expect("both parts share the batch arity");
        let memo = &mut ViewMemo::new();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (j, term) in self.terms.iter().enumerate() {
            if atoms[j].relation() != name {
                continue;
            }
            let mut sources = Vec::with_capacity(atoms.len());
            for (i, atom) in atoms.iter().enumerate() {
                let rel = atom.relation();
                let (base, delta, variant) = if i == j {
                    (&nothing, Some(&only_added), ADDED)
                } else if rel == name {
                    (base, Some(new_delta), AtomSource::CURRENT)
                } else if let Some(other) = state.catalog.get(rel) {
                    (other, state.deltas.get(rel), AtomSource::CURRENT)
                } else {
                    // A relation the query needs does not exist yet: the
                    // full join is empty, and so is every increment.
                    return Ok(Vec::new());
                };
                sources.push(AtomSource {
                    name: rel,
                    base,
                    delta,
                    variant,
                });
            }
            let (set, ..) = MergeSet::assemble(term, &sources, None, Some(cache), memo)?;
            let mut sink = CollectSink::new();
            Driver::<NoTally, _, _, _>::new(term, &set, NoPjr, NoBudget)?.run(&mut sink);
            rows.extend_from_slice(sink.tuples());
        }
        // Sorting by the watched plan's binding order restores its
        // sequential emission order whatever order each term ran in.
        rows.sort_by(|a, b| {
            self.slots
                .iter()
                .map(|&s| a[s])
                .cmp(self.slots.iter().map(|&s| b[s]))
        });
        rows.dedup();
        Ok(rows)
    }
}

/// One query's configuration against a [`Session`]: the per-query budgets
/// (row limit, deadline, shard granularity, engine) layered
/// over the session's pool and trie cache. Unset knobs resolve as for
/// [`crate::ParLftj`] when the query runs.
///
/// Consume it with [`QueryHandle::stream`] for incremental pull-based
/// delivery, or [`QueryHandle::run`] to drive a sink synchronously.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    plan: CompiledQuery,
    catalog: Arc<Catalog>,
    deltas: Arc<DeltaMap>,
    opts: RunOptions,
}

impl QueryHandle {
    /// Caps delivered rows: the stream (or sink) receives exactly the
    /// first `min(total, limit)` rows of the sequential result order.
    pub fn with_row_limit(mut self, limit: u64) -> Self {
        self.opts.row_limit = Some(limit);
        self
    }

    /// Caps the query's wall-clock time; an overrunning query is
    /// cancelled cooperatively with the delivered rows staying an exact
    /// sequential prefix.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Sets an explicit shard count for this query (the per-query shard
    /// budget; defaults to the plan-seeded granularity).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_granularity(mut self, shards: usize) -> Self {
        self.opts.granularity = Some(NonZeroUsize::new(shards).expect("shards must be positive"));
        self
    }

    /// Runs this query as [`crate::ParCtj`] (the cached-TrieJoin engine)
    /// instead of the default [`crate::ParLftj`]; result tuples and their
    /// order are identical either way.
    pub fn with_ctj(mut self) -> Self {
        self.opts.ctj = true;
        self
    }

    /// Runs the query synchronously on the calling thread, pushing every
    /// result row into `sink` in exact sequential order.
    ///
    /// Sessions serve untallied ([`NoTally`]): the returned stats carry
    /// result, operation, shard and cache counters but no memory-access
    /// counts. For paper figures, run an engine's
    /// [`JoinEngine::execute`](crate::JoinEngine::execute) instead.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`JoinError`]; a budget-terminated run
    /// reports [`JoinError::Cancelled`] with the rows delivered so far
    /// forming an exact prefix.
    pub fn run(&self, sink: &mut dyn ResultSink) -> Result<EngineStats, JoinError> {
        self.execute_into(None, sink)
    }

    /// Starts the query and returns the pull-based stream of its results.
    /// At one worker the join runs on the consumer's thread, a batch of
    /// rows per refill; on a larger pool a producer thread runs it. See
    /// [`ResultStream`] for the delivery and cancellation contract.
    pub fn stream(self) -> ResultStream {
        let arity = self.plan.arity();
        let run = self.opts.resolve(&process_env);
        let (source, outcome) = if run.pool.workers() == 1 {
            match run_batched(&run, self.plan, &self.catalog, Some(&self.deltas)) {
                Ok(join) => (Source::Inline(join), None),
                Err(e) => (Source::Done, Some(Err(e))),
            }
        } else {
            (Source::Producer(Producer::spawn(self)), None)
        };
        ResultStream {
            arity,
            batch: Vec::new(),
            pos: 0,
            source,
            outcome,
        }
    }

    /// Runs the configured engine, tied to `token` when one is given.
    fn execute_into(
        &self,
        token: Option<CancelToken>,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats, JoinError> {
        let opts = RunOptions {
            cancel: token,
            ..self.opts.clone()
        };
        run_parallel::<NoTally>(&opts, &self.plan, &self.catalog, Some(&self.deltas), sink)
            .map(|stats| stats.to_counting())
    }
}

/// A pull-based iterator over one running query's result tuples.
///
/// Delivery contract:
///
/// * **Order** — tuples arrive in the exact sequential engine order
///   (tuple-for-tuple what [`crate::Lftj`] would emit), incrementally
///   while the rest of the join has yet to run. Each is a [`Row`], which
///   holds narrow tuples without a heap allocation.
/// * **Budgets** — a row-limited or deadlined query ends the stream after
///   an exact sequential prefix; [`ResultStream::outcome`] then reports
///   the [`JoinError::Cancelled`] carrying the partial stats.
/// * **Memory** — at one worker the join runs on the consumer's thread
///   and buffers one batch of rows: each refill resumes the join where
///   the last one stopped and stops it again once the batch is full. A
///   stop cannot fall inside a level that replays or records a
///   partial-join-result entry ([`QueryHandle::with_ctj`]), so there the
///   batch grows by the rest of that level's output. On a larger pool a
///   producer thread runs the pool into a bounded channel, which blocks
///   it after a fixed number of batches; but the pool's ordered merge
///   behind it has no backpressure, so shards that finish ahead of the
///   one being drained buffer their whole output until the consumer gets
///   to them.
/// * **Drop** — dropping the stream mid-iteration stops the join: at one
///   worker nothing runs between pulls; on a pool it fires the query's
///   cancel token, disconnects the channel (which immediately unblocks
///   any waiting producer), and joins the engine thread — cooperative
///   cancellation, never a hung pool.
pub struct ResultStream {
    arity: usize,
    /// The batch currently being sliced into rows, and the cursor into it.
    batch: Vec<Value>,
    pos: usize,
    source: Source,
    outcome: Option<Result<EngineStats, JoinError>>,
}

/// Where a [`ResultStream`]'s batches come from.
enum Source {
    /// One worker: the join itself, run a batch per refill.
    Inline(Box<dyn BatchRun>),
    /// A larger pool: the thread running it.
    Producer(Producer),
    /// The run is over and its outcome settled.
    Done,
}

impl std::fmt::Debug for ResultStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStream")
            .field("arity", &self.arity)
            .field("live", &!matches!(self.source, Source::Done))
            .finish_non_exhaustive()
    }
}

impl ResultStream {
    /// Number of values per delivered row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The engine's final result, available once the stream is exhausted
    /// (iteration returned `None`): the run's [`EngineStats`] on success,
    /// or the [`JoinError`] — e.g. `Cancelled` after a row limit truncated
    /// the stream. `None` while tuples may still arrive. As with
    /// [`QueryHandle::run`], the stats carry no memory-access counts; an
    /// engine's [`JoinEngine::execute`](crate::JoinEngine::execute) gives
    /// the paper figures.
    pub fn outcome(&mut self) -> Option<&Result<EngineStats, JoinError>> {
        self.outcome
            .as_ref()
            .filter(|_| self.pos == self.batch.len())
    }

    /// Replaces the spent batch with the next one; `false` once no rows
    /// are left, the outcome then settled.
    fn refill(&mut self) -> bool {
        self.batch.clear();
        self.pos = 0;
        let live = match &mut self.source {
            Source::Inline(join) => join.step(INLINE_BATCH_ROWS, &mut self.batch),
            Source::Producer(producer) => producer.recv().map(|b| self.batch = b).is_some(),
            Source::Done => return false,
        };
        if !live {
            self.outcome = Some(match std::mem::replace(&mut self.source, Source::Done) {
                Source::Inline(join) => join.finish(),
                Source::Producer(mut producer) => producer.join(),
                Source::Done => unreachable!("a settled stream never refills"),
            });
        }
        !self.batch.is_empty()
    }
}

impl Iterator for ResultStream {
    type Item = Row;

    #[inline]
    fn next(&mut self) -> Option<Row> {
        if self.pos == self.batch.len() && !self.refill() {
            return None;
        }
        let row = Row::from(&self.batch[self.pos..self.pos + self.arity]);
        self.pos += self.arity;
        Some(row)
    }
}

/// A pooled stream's producer: the thread running the query into a
/// [`ChannelSink`], the receiving end of its channel, and the token that
/// cancels it.
struct Producer {
    rx: Option<Receiver<Vec<Value>>>,
    cancel: CancelToken,
    worker: Option<JoinHandle<Result<EngineStats, JoinError>>>,
}

impl Producer {
    fn spawn(query: QueryHandle) -> Self {
        let token = CancelToken::new();
        let cancel = token.clone();
        let (tx, rx) = sync_channel::<Vec<Value>>(STREAM_CHANNEL_BATCHES);
        let worker = std::thread::spawn(move || {
            let mut sink = ChannelSink::new(tx, query.plan.arity());
            let result = query.execute_into(Some(token), &mut sink);
            sink.flush();
            result
        });
        Producer {
            rx: Some(rx),
            cancel,
            worker: Some(worker),
        }
    }

    /// The next batch; `None` once the producer finished (or failed).
    fn recv(&self) -> Option<Vec<Value>> {
        self.rx.as_ref()?.recv().ok()
    }

    /// The finished producer's result, re-raising its panic.
    fn join(&mut self) -> Result<EngineStats, JoinError> {
        self.rx = None;
        let handle = self.worker.take().expect("a producer is joined once");
        handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        self.cancel.cancel();
        // Disconnecting the receiver makes any blocked `send` in the
        // producer return an error immediately — the engine thread can
        // never stay wedged on a full channel.
        self.rx = None;
        if let Some(handle) = self.worker.take() {
            // A panicking engine thread must not double-panic in drop;
            // its payload is intentionally discarded here.
            let _ = handle.join();
        }
    }
}

/// The producer-side sink of a pooled [`ResultStream`]: batches rows and
/// sends them through the bounded channel. Once the consumer disconnects,
/// rows are discarded without blocking (the cancel token ends the run at
/// its next poll point).
struct ChannelSink {
    tx: SyncSender<Vec<Value>>,
    buf: Vec<Value>,
    batch_values: usize,
    disconnected: bool,
}

impl ChannelSink {
    fn new(tx: SyncSender<Vec<Value>>, arity: usize) -> Self {
        let batch_values = STREAM_BATCH_ROWS * arity.max(1);
        ChannelSink {
            tx,
            buf: Vec::with_capacity(batch_values),
            batch_values,
            disconnected: false,
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch_values));
        if !self.disconnected && self.tx.send(batch).is_err() {
            self.disconnected = true;
        }
    }
}

impl ResultSink for ChannelSink {
    fn push(&mut self, tuple: &[Value]) {
        if self.disconnected {
            return;
        }
        self.buf.extend_from_slice(tuple);
        if self.buf.len() >= self.batch_values {
            self.flush();
        }
    }

    fn push_rows(&mut self, rows: &[Value], _arity: usize) {
        if self.disconnected {
            return;
        }
        self.buf.extend_from_slice(rows);
        if self.buf.len() >= self.batch_values {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, JoinEngine, Lftj};
    use triejax_exec::CancelReason;
    use triejax_query::patterns;
    use triejax_relation::Relation;

    fn grid_session(workers: usize) -> Session {
        let mut catalog = Catalog::new();
        // Complete directed graph on 12 vertices: plenty of cycles and
        // paths, so every pattern yields a multi-batch result stream.
        catalog.insert(
            "G",
            Relation::from_pairs(
                (0..12u32).flat_map(|a| (0..12u32).filter(move |&b| b != a).map(move |b| (a, b))),
            ),
        );
        Session::new(catalog).with_pool(workers)
    }

    fn sequential_tuples(session: &Session, plan: &CompiledQuery) -> Vec<Vec<Value>> {
        let mut sink = CollectSink::new();
        Lftj::new()
            .run_tallied_with::<triejax_relation::Counting>(
                plan,
                &session.catalog(),
                &session.deltas(),
                &mut sink,
            )
            .unwrap();
        sink.tuples().to_vec()
    }

    #[test]
    fn stream_delivers_exact_sequential_order() {
        let session = grid_session(4);
        for pattern in [patterns::cycle3(), patterns::path4()] {
            let plan = CompiledQuery::compile(&pattern).unwrap();
            let expect = sequential_tuples(&session, &plan);
            let mut stream = session.query(&plan).stream();
            let got: Vec<Row> = stream.by_ref().collect();
            assert_eq!(got, expect, "stream must equal sequential order");
            assert!(stream.outcome().unwrap().is_ok());
        }
    }

    /// At one worker the join runs on the consumer's thread — no producer
    /// thread — and still streams the sequential order in batches, with
    /// the stats a `run()` reports.
    #[test]
    fn one_worker_streams_run_on_the_consumers_thread() {
        let session = grid_session(1);
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let expect = sequential_tuples(&session, &plan);
        assert!(
            expect.len() as u64 > 2 * INLINE_BATCH_ROWS,
            "several batches"
        );
        let mut stream = session.query(&plan).stream();
        assert!(matches!(stream.source, Source::Inline(_)));
        let first = stream.next().unwrap();
        assert_eq!(
            stream.batch.len(),
            INLINE_BATCH_ROWS as usize * plan.arity()
        );
        assert_eq!(first, expect[0]);
        let rest: Vec<Row> = stream.by_ref().collect();
        assert_eq!(rest, expect[1..]);
        let stats = stream.outcome().unwrap().as_ref().unwrap();
        assert_eq!((stats.results, stats.shards), (expect.len() as u64, 1));
        let pooled = grid_session(2).query(&plan).stream();
        assert!(matches!(pooled.source, Source::Producer(_)));
    }

    /// A one-worker stream answers to its budget like `run()` does: a zero
    /// deadline or a pre-fired token ends it before any row, and the
    /// outcome says which.
    #[test]
    fn one_worker_streams_stop_at_a_zero_deadline_or_a_fired_token() {
        let session = grid_session(1);
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut fired = session.query(&plan);
        fired.opts.cancel = Some(token);
        let cases = [
            (
                session.query(&plan).with_deadline(Duration::ZERO),
                CancelReason::Deadline,
            ),
            (fired, CancelReason::External),
        ];
        for (handle, want) in cases {
            let mut stream = handle.stream();
            assert!(matches!(stream.source, Source::Inline(_)));
            assert_eq!(stream.next(), None, "{want:?}: no row");
            match stream.outcome().unwrap() {
                Err(JoinError::Cancelled { reason, partial }) => {
                    assert_eq!(*reason, want);
                    assert_eq!(partial.results, 0);
                }
                other => panic!("expected {want:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_matches_stream() {
        let session = grid_session(2);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CollectSink::new();
        let stats = session.query(&plan).run(&mut sink).unwrap();
        assert!(stats.results > 0);
        let streamed: Vec<Row> = session.query(&plan).stream().collect();
        assert_eq!(streamed, sink.tuples());
    }

    /// A deadline too far away to represent governs nothing: the query
    /// delivers every row and ends `Ok`.
    #[test]
    fn an_unrepresentable_deadline_runs_to_completion() {
        let session = grid_session(2);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let expect = sequential_tuples(&session, &plan);
        let mut sink = CollectSink::new();
        let handle = session.query(&plan).with_deadline(Duration::MAX);
        let stats = handle.run(&mut sink).expect("never cancelled");
        assert_eq!(sink.tuples(), expect);
        assert_eq!(stats.results, expect.len() as u64);
    }

    #[test]
    fn row_limit_truncates_to_exact_prefix() {
        let session = grid_session(3);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let expect = sequential_tuples(&session, &plan);
        assert!(expect.len() > 5);
        let mut stream = session.query(&plan).with_row_limit(5).stream();
        let got: Vec<Row> = stream.by_ref().collect();
        assert_eq!(got, expect[..5], "row limit keeps the sequential prefix");
        match stream.outcome().unwrap() {
            Err(JoinError::Cancelled { reason, .. }) => {
                assert_eq!(*reason, CancelReason::RowLimit)
            }
            other => panic!("expected RowLimit cancellation, got {other:?}"),
        }
    }

    #[test]
    fn dropping_a_stream_mid_run_cancels_without_hanging() {
        let session = grid_session(4);
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let expect = sequential_tuples(&session, &plan);
        // Take a couple of rows, then drop with the engine (very likely)
        // still producing; Drop must cancel and join promptly either way.
        let mut stream = session.query(&plan).stream();
        let first: Vec<_> = stream.by_ref().take(2).collect();
        assert_eq!(first, expect[..2]);
        drop(stream);
        // The session stays fully usable afterwards.
        let again: Vec<Row> = session.query(&plan).stream().collect();
        assert_eq!(again, expect);
    }

    #[test]
    fn concurrent_streams_share_one_session() {
        let session = grid_session(2);
        let c3 = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let p4 = CompiledQuery::compile(&patterns::path4()).unwrap();
        let (e3, e4) = (
            sequential_tuples(&session, &c3),
            sequential_tuples(&session, &p4),
        );
        // Interleave pulls from two live streams against the same session.
        let mut s3 = session.query(&c3).stream();
        let mut s4 = session.query(&p4).stream();
        let (mut g3, mut g4) = (Vec::new(), Vec::new());
        loop {
            let a = s3.next();
            let b = s4.next();
            if let Some(r) = a {
                g3.push(r);
            }
            if let Some(r) = b {
                g4.push(r);
            }
            if s3.outcome().is_some() && s4.outcome().is_some() {
                break;
            }
        }
        g3.extend(s3.by_ref());
        g4.extend(s4.by_ref());
        assert_eq!(g3, e3);
        assert_eq!(g4, e4);
    }

    #[test]
    fn snapshot_then_open_serves_with_zero_builds() {
        let session = grid_session(2);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let expect = sequential_tuples(&session, &plan);
        let stored = session.snapshot(std::slice::from_ref(&plan)).unwrap();
        assert!(!stored.tries().is_empty());

        // A fresh session from the stored bytes (as a cold process would
        // open them) answers with zero trie builds.
        let reopened = Session::from_stored(StoredCatalog::from_bytes(&stored.to_bytes()).unwrap())
            .with_pool(2);
        let mut sink = CollectSink::new();
        let stats = reopened.query(&plan).run(&mut sink).unwrap();
        assert_eq!(sink.tuples(), expect);
        assert_eq!(stats.trie_build_ns, 0, "no build work after preload");
        assert!(stats.trie_cache_hits > 0, "tries came from the store");
    }

    #[test]
    fn snapshot_is_deterministic() {
        let session = grid_session(2);
        let plans = [
            CompiledQuery::compile(&patterns::cycle3()).unwrap(),
            CompiledQuery::compile(&patterns::path3()).unwrap(),
        ];
        let a = session.snapshot(&plans).unwrap().to_bytes();
        let b = session.snapshot(&plans).unwrap().to_bytes();
        assert_eq!(a, b, "same state must serialize to the same bytes");
    }

    /// Granularity 0 used to pass the builder and panic inside the run —
    /// under `stream()` on the producer thread, re-raised by `next()`.
    #[test]
    #[should_panic(expected = "positive")]
    fn zero_granularity_panics_at_the_builder() {
        let session = grid_session(2);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let _ = session.query(&plan).with_granularity(0);
    }

    #[test]
    fn ctj_streams_identically() {
        let session = grid_session(3);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let lftj: Vec<Row> = session.query(&plan).stream().collect();
        let ctj: Vec<Row> = session.query(&plan).with_ctj().stream().collect();
        assert_eq!(lftj, ctj);
    }

    #[test]
    fn schema_errors_surface_through_the_outcome() {
        let session = Session::new(Catalog::new()).with_pool(2);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut stream = session.query(&plan).stream();
        assert_eq!(stream.next(), None, "no rows from a failed query");
        assert!(matches!(
            stream.outcome().unwrap(),
            Err(JoinError::MissingRelation { .. })
        ));
    }

    /// Rebuilds the session's merged view from scratch and runs `plan`
    /// over it sequentially — the ground truth every incremental path
    /// must match.
    fn rebuilt_tuples(session: &Session, plan: &CompiledQuery) -> Vec<Vec<Value>> {
        let mut catalog = Catalog::new();
        let deltas = session.deltas();
        for (name, rel) in session.catalog().iter() {
            match deltas.get(name) {
                Some(d) => catalog.insert(name, d.merge_into(rel)),
                None => catalog.insert(name, rel.clone()),
            }
        }
        let mut sink = CollectSink::new();
        Lftj::new().execute(plan, &catalog, &mut sink).unwrap();
        sink.tuples().to_vec()
    }

    #[test]
    fn apply_advances_the_epoch_and_queries_see_the_batch() {
        let session = grid_session(2).with_compact_ratio(f64::INFINITY);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        assert_eq!(session.epoch(), 0);
        let before: Vec<Row> = session.query(&plan).stream().collect();

        // Grow the graph by a vertex: new triangles appear through 12.
        let inserts = Relation::from_pairs(vec![(0, 12), (12, 1)]);
        let epoch = session
            .apply("G", &inserts, &Relation::new(2).unwrap())
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(session.epoch(), 1);
        assert!(!session.deltas().is_empty(), "delta is pending");

        let after: Vec<Row> = session.query(&plan).stream().collect();
        assert!(after.len() > before.len());
        assert_eq!(after, rebuilt_tuples(&session, &plan));
    }

    #[test]
    fn query_handles_snapshot_the_epoch_they_were_created_at() {
        let session = grid_session(2).with_compact_ratio(f64::INFINITY);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let before: Vec<Row> = session.query(&plan).stream().collect();
        let handle = session.query(&plan);
        session
            .apply(
                "G",
                &Relation::new(2).unwrap(),
                &Relation::from_pairs(vec![(0, 1)]),
            )
            .unwrap();
        // The pre-apply handle still sees epoch 0's result.
        let stale: Vec<Row> = handle.stream().collect();
        assert_eq!(stale, before);
        let fresh: Vec<Row> = session.query(&plan).stream().collect();
        assert!(fresh.len() < before.len());
    }

    #[test]
    fn deletes_apply_first_and_inserts_win() {
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]));
        let session = Session::new(catalog)
            .with_pool(1)
            .with_compact_ratio(f64::INFINITY);
        // Delete and re-insert (0,1) in one batch: it must survive.
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(0, 1)]),
                &Relation::from_pairs(vec![(0, 1), (1, 2)]),
            )
            .unwrap();
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let rows: Vec<Row> = session.query(&plan).stream().collect();
        assert!(rows.is_empty(), "breaking edge (1,2) kills the triangle");
        // Restore it: the triangle is back.
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(1, 2)]),
                &Relation::new(2).unwrap(),
            )
            .unwrap();
        assert!(
            session.deltas().is_empty(),
            "net-zero delta normalizes away"
        );
        assert_eq!(session.query(&plan).stream().count(), 3);
    }

    #[test]
    fn auto_compaction_folds_the_delta_into_the_base() {
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]));
        let session = Session::new(catalog).with_pool(1).with_compact_ratio(0.0);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(0, 3), (3, 1)]),
                &Relation::from_pairs(vec![(0, 1)]),
            )
            .unwrap();
        // Ratio 0 compacts every apply: no pending delta, merged base.
        assert!(session.deltas().is_empty());
        assert_eq!(
            session.catalog().get("G").unwrap(),
            &Relation::from_pairs(vec![(0, 3), (1, 2), (2, 0), (3, 1)])
        );
        // The merged graph is the 4-cycle 0→3→1→2→0: triangle-free.
        assert_eq!(session.query(&plan).stream().count(), 0);
    }

    #[test]
    fn explicit_compact_promotes_and_is_idempotent() {
        let session = grid_session(1).with_compact_ratio(f64::INFINITY);
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(0, 12)]),
                &Relation::new(2).unwrap(),
            )
            .unwrap();
        assert_eq!(session.epoch(), 1);
        assert!(!session.deltas().is_empty());
        assert_eq!(session.compact("G"), 2, "compaction bumps the epoch");
        assert!(session.deltas().is_empty());
        assert_eq!(session.compact("G"), 2, "nothing to compact: no-op");
        assert_eq!(session.compact("missing"), 2);
    }

    #[test]
    fn apply_creates_unknown_relations_at_the_batch_arity() {
        let session = Session::new(Catalog::new())
            .with_pool(1)
            .with_compact_ratio(f64::INFINITY);
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]),
                &Relation::new(2).unwrap(),
            )
            .unwrap();
        assert!(
            session.catalog().get("G").unwrap().is_empty(),
            "base stays empty; tuples live in the delta"
        );
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        assert_eq!(session.query(&plan).stream().count(), 3);
        // Delta-only relations never auto-compact, even at ratio 0 …
        let session = Session::new(Catalog::new())
            .with_pool(1)
            .with_compact_ratio(0.0);
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(0, 1)]),
                &Relation::new(2).unwrap(),
            )
            .unwrap();
        assert!(!session.deltas().is_empty());
        // … but explicit compaction promotes them to a frozen base.
        session.compact("G");
        assert!(session.deltas().is_empty());
        assert_eq!(
            session.catalog().get("G").unwrap(),
            &Relation::from_pairs(vec![(0, 1)])
        );
    }

    #[test]
    fn arity_mismatches_leave_the_session_untouched() {
        let session = grid_session(1);
        let triples = Relation::from_tuples(3, vec![[1, 2, 3]]).unwrap();
        let err = session
            .apply("G", &triples, &Relation::new(3).unwrap())
            .unwrap_err();
        assert!(matches!(err, JoinError::ArityMismatch { .. }));
        let err = session
            .apply("G", &Relation::new(2).unwrap(), &Relation::new(3).unwrap())
            .unwrap_err();
        assert!(matches!(err, JoinError::ArityMismatch { .. }));
        assert_eq!(session.epoch(), 0);
        assert!(session.deltas().is_empty());
    }

    #[test]
    fn watch_emits_exactly_the_new_triangles_in_order() {
        let mut catalog = Catalog::new();
        catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2)]));
        let session = Session::new(catalog)
            .with_pool(1)
            .with_compact_ratio(f64::INFINITY);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let watch = session.watch(&plan).unwrap();

        // Close the triangle: one new result.
        let full_before = sequential_tuples(&session, &plan);
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(2, 0)]),
                &Relation::new(2).unwrap(),
            )
            .unwrap();
        let full_after = sequential_tuples(&session, &plan);
        let update = watch.poll().expect("apply delivers synchronously");
        assert_eq!(update.epoch, 1);
        let expect: Vec<Vec<Value>> = full_after
            .iter()
            .filter(|r| !full_before.contains(r))
            .cloned()
            .collect();
        assert_eq!(update.rows, expect);
        assert_eq!(update.rows.len(), 3, "cycle3 counts each rotation");

        // A delete-only batch cannot create results.
        session
            .apply(
                "G",
                &Relation::new(2).unwrap(),
                &Relation::from_pairs(vec![(1, 2)]),
            )
            .unwrap();
        let update = watch.poll().unwrap();
        assert_eq!(update.epoch, 2);
        assert!(update.rows.is_empty());

        // No-op re-insert of a live tuple: nothing added, nothing emitted.
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(0, 1)]),
                &Relation::new(2).unwrap(),
            )
            .unwrap();
        assert!(watch.poll().unwrap().rows.is_empty());
        assert!(watch.poll().is_none(), "one update per apply");
    }

    #[test]
    fn dropped_watchers_unregister_without_blocking_applies() {
        let session = grid_session(1).with_compact_ratio(f64::INFINITY);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let watch = session.watch(&plan).unwrap();
        drop(watch);
        // The next apply notices the gone subscriber and keeps going.
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(0, 12), (12, 1)]),
                &Relation::new(2).unwrap(),
            )
            .unwrap();
        assert_eq!(session.epoch(), 1);
    }

    #[test]
    fn snapshot_round_trips_pending_deltas() {
        let session = grid_session(2).with_compact_ratio(f64::INFINITY);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        session
            .apply(
                "G",
                &Relation::from_pairs(vec![(0, 12), (12, 1)]),
                &Relation::from_pairs(vec![(0, 1)]),
            )
            .unwrap();
        let expect = sequential_tuples(&session, &plan);

        let stored = session.snapshot(std::slice::from_ref(&plan)).unwrap();
        let reopened = Session::from_stored(StoredCatalog::from_bytes(&stored.to_bytes()).unwrap())
            .with_pool(2);
        assert_eq!(reopened.deltas().len(), 1, "delta survived the store");
        let got: Vec<Row> = reopened.query(&plan).stream().collect();
        assert_eq!(got, expect);
    }
}
