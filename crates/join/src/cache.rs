//! The partial-join-result (PJR) store of the trie-join driver.
//!
//! The driver ([`crate::lftj::Driver`]) holds its store as a value,
//! `Option<Pjr>`: `None` is LFTJ — no level ever looks a spec up, records
//! or publishes — and a [`Pjr`] owns both the entry storage *and* the
//! hit/miss accounting policy:
//!
//! * [`Pjr::Local`] — the single-threaded store of every CTJ run that
//!   plans one root range (sequential [`crate::Ctj`] always does): a plain
//!   `HashMap`, misses counted at lookup, no locks.
//! * [`Pjr::Shared`] — one pooled worker's handle on the
//!   [`SharedPjrCache`] every [`crate::ParCtj`] worker shares, mirroring
//!   the paper's on-chip PJR cache that all TrieJax lanes share (§3.5).
//!   Entries are striped over [`triejax_exec::Striped`] lock lanes by key
//!   hash (hash-determined so every worker finds its siblings' entries)
//!   and `Arc`-shared, and insert races are resolved
//!   **first-writer-wins**: the losing worker discards its duplicate
//!   build and the published entry serves all future replays.
//!
//! Both stores are unbounded, matching CTJ's use of "the available system
//! memory" (paper §2.2): an entry, once published, lives for the run.
//!
//! ## Accounting
//!
//! Cache counters flow through each worker's own [`EngineStats`] (no
//! shared atomics) and are summed at shard join, so the store must keep
//! the sums meaningful:
//!
//! * a lookup ticks exactly one of `cache_hits`/`cache_misses`;
//! * when a publish loses an insert race, the store *reclassifies* the
//!   worker's earlier miss as a late hit (`cache_misses -= 1`,
//!   `cache_hits += 1`) and ticks `cache_races` — so summed
//!   `cache_misses` equals the number of **unique entry builds**, never
//!   double-counting an entry two workers raced to build;
//! * `intermediates` (the Figure 18 metric) is likewise counted only for
//!   the winning, stored build;
//! * waiting on a stripe lock another worker holds ticks
//!   `cache_contention`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use triejax_exec::{suggested_stripes, Striped};
use triejax_relation::{AccessKind, Tally, Value, WORD_BYTES};

use crate::EngineStats;

/// A committed cache entry: matched values and their per-participant trie
/// indexes (atoms in `atoms_at(depth)` order). `Arc` (not `Rc`) so entries
/// can be shared across pool workers.
pub(crate) type Entry = Arc<Vec<(Value, Vec<u32>)>>;

/// A full cache key: the cached depth plus the bindings of the cache
/// spec's key depths.
type Key = (usize, Vec<Value>);

/// Outcome of a cache probe; a miss hands the key back so the driver can
/// publish the computed entry without re-building (or cloning) it, plus a
/// store-specific token (the shared cache's stripe hash; zero for the
/// local store) so the publish need not rehash the key.
pub(crate) enum Looked {
    /// The entry was present; replay it.
    Hit(Entry),
    /// Not present; compute, then [`Pjr::publish`] under this key and
    /// token.
    Miss(Vec<Value>, u64),
}

/// The PJR store of one CTJ driver (see the module docs).
pub(crate) enum Pjr {
    /// A one-range run's own map.
    Local(HashMap<Key, Entry>),
    /// One pooled worker's view of the cache all workers share.
    Shared(Arc<SharedPjrCache>),
}

impl Pjr {
    /// An empty store of a one-range run.
    pub(crate) fn local() -> Self {
        Pjr::Local(HashMap::new())
    }

    /// Probes for `(depth, key)`, ticking `cache_hits` or `cache_misses`.
    pub(crate) fn lookup<T: Tally>(
        &mut self,
        depth: usize,
        key: Vec<Value>,
        stats: &mut EngineStats<T>,
    ) -> Looked {
        let map = match self {
            Pjr::Local(map) => map,
            Pjr::Shared(cache) => return cache.lookup(depth, key, stats),
        };
        let probe = (depth, key);
        if let Some(entry) = map.get(&probe) {
            stats.cache_hits += 1;
            return Looked::Hit(Arc::clone(entry));
        }
        stats.cache_misses += 1;
        Looked::Miss(probe.1, 0)
    }

    /// Commits a fully-computed match list for `(depth, key)` after a
    /// miss (`token` is the one the miss handed back). The shared store
    /// may find a sibling already published it (insert race).
    pub(crate) fn publish<T: Tally>(
        &mut self,
        depth: usize,
        key: Vec<Value>,
        token: u64,
        rows: Vec<(Value, Vec<u32>)>,
        stats: &mut EngineStats<T>,
    ) {
        match self {
            Pjr::Local(map) => {
                record_stored(&rows, stats);
                map.insert((depth, key), Arc::new(rows));
            }
            Pjr::Shared(cache) => cache.publish(depth, key, token, rows, stats),
        }
    }
}

/// Records the storage cost of a newly stored entry (the Figure 18
/// intermediate-results accounting), shared by both stores.
fn record_stored<T: Tally>(rows: &[(Value, Vec<u32>)], stats: &mut EngineStats<T>) {
    let words: u64 = rows.iter().map(|(_, pos)| (1 + pos.len()) as u64).sum();
    stats.intermediates += rows.len() as u64;
    stats
        .access
        .record(AccessKind::Intermediate, words * WORD_BYTES);
}

/// The concurrent PJR cache shared by every [`crate::ParCtj`] worker.
///
/// Entries are binding-keyed and order-independent (a valid
/// [`triejax_query::CacheSpec`] guarantees the match list depends on
/// nothing but the key bindings), so an entry built while one worker
/// explored one root range is sound for every other worker and range —
/// exactly why sharing beats the per-worker caches it replaced, whose hit
/// counts were structurally capped below sequential CTJ's.
///
/// Not exposed outside the crate: entries are only meaningful for the
/// `(plan, catalog)` pair that built them, so sharing a cache *across
/// queries* would be unsound. [`crate::ParCtj`] builds one per run.
pub(crate) struct SharedPjrCache {
    stripes: Striped<HashMap<Key, Entry>>,
}

/// A plan-side entries hint larger than this is a blown-up upper bound
/// (key-domain products multiply whole relation cardinalities), not a
/// credible working-set size — don't reserve memory for it.
const CREDIBLE_HINT_MAX: usize = 1 << 20;

impl SharedPjrCache {
    /// Builds a cache striped for `workers` concurrent workers
    /// ([`suggested_stripes`]), with an optional expected entry-count hint
    /// (from [`triejax_query::CompiledQuery`]'s cache-capacity estimate)
    /// used to pre-size the stripe tables.
    pub(crate) fn new(workers: usize, entries_hint: Option<usize>) -> Self {
        let stripes = suggested_stripes(workers);
        // Pre-size each stripe toward its expected share of the entries —
        // but only when the upper-bound hint is small enough to be a
        // credible working-set estimate.
        let seed = entries_hint
            .filter(|&h| h <= CREDIBLE_HINT_MAX)
            .map_or(0, |h| h / stripes);
        SharedPjrCache {
            stripes: Striped::with_stripes(stripes, || HashMap::with_capacity(seed)),
        }
    }

    fn lookup<T: Tally>(
        &self,
        depth: usize,
        key: Vec<Value>,
        stats: &mut EngineStats<T>,
    ) -> Looked {
        let hash = stripe_hash(depth, &key);
        let (stripe, contended) = self.stripes.lock(hash);
        if contended {
            stats.cache_contention += 1;
        }
        let probe = (depth, key);
        let hit = stripe.get(&probe).map(Arc::clone);
        // Clone the Arc out so the stripe lock is released before the
        // (potentially deep) replay.
        drop(stripe);
        if let Some(entry) = hit {
            stats.cache_hits += 1;
            return Looked::Hit(entry);
        }
        stats.cache_misses += 1;
        // Hand the stripe hash back so the publish need not rehash.
        Looked::Miss(probe.1, hash)
    }

    fn publish<T: Tally>(
        &self,
        depth: usize,
        key: Vec<Value>,
        hash: u64,
        rows: Vec<(Value, Vec<u32>)>,
        stats: &mut EngineStats<T>,
    ) {
        // Fault hook *before* the stripe lock: an injected panic here
        // models a worker dying between its miss and its insert — the
        // entry is simply never published (first-writer-wins means a
        // sibling rebuilds it), and no stripe is left poisoned with a
        // half-inserted entry.
        #[cfg(feature = "faults")]
        triejax_exec::faults::fire(triejax_exec::faults::FaultEvent::CacheInsert);
        let (mut stripe, contended) = self.stripes.lock(hash);
        if contended {
            stats.cache_contention += 1;
        }
        let full_key = (depth, key);
        if stripe.contains_key(&full_key) {
            // Insert race lost: a sibling published this entry between our
            // miss and now. First writer wins — drop the duplicate build,
            // reclassify our earlier miss as a late hit so summed misses
            // count unique entry builds, and record the wasted work.
            stats.cache_misses -= 1;
            stats.cache_hits += 1;
            stats.cache_races += 1;
            return;
        }
        record_stored(&rows, stats);
        stripe.insert(full_key, Arc::new(rows));
    }
}

/// Stable stripe hash. [`DefaultHasher::new`] is fixed-key SipHash, so
/// every worker maps a key to the same stripe — required for cross-worker
/// entry reuse.
fn stripe_hash(depth: usize, key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    depth.hash(&mut h);
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_relation::Counting;

    /// Total live entries across all stripes, once every worker is done.
    fn live_entries(cache: &mut SharedPjrCache) -> usize {
        cache.stripes.iter_mut().map(|s| s.len()).sum()
    }

    fn rows(vals: &[Value]) -> Vec<(Value, Vec<u32>)> {
        vals.iter().map(|&v| (v, vec![0, 1])).collect()
    }

    fn miss_key(store: &mut Pjr, d: usize, k: &[Value], s: &mut EngineStats) -> (Vec<Value>, u64) {
        match store.lookup(d, k.to_vec(), s) {
            Looked::Miss(key, token) => (key, token),
            Looked::Hit(_) => panic!("expected a miss"),
        }
    }

    #[test]
    fn local_counts_misses_at_lookup_and_keeps_every_entry() {
        let mut store = Pjr::local();
        let mut stats = EngineStats::<Counting>::new();
        let (k, t) = miss_key(&mut store, 1, &[7], &mut stats);
        assert_eq!(stats.cache_misses, 1);
        store.publish(1, k, t, rows(&[1, 2]), &mut stats);
        assert_eq!(stats.intermediates, 2);
        let (k, t) = miss_key(&mut store, 1, &[8], &mut stats);
        store.publish(1, k, t, rows(&[3]), &mut stats);
        assert_eq!(stats.intermediates, 3);
        // Both entries are live and hit.
        for key in [7, 8] {
            assert!(matches!(
                store.lookup(1, vec![key], &mut stats),
                Looked::Hit(_)
            ));
        }
        assert_eq!((stats.cache_hits, stats.cache_misses), (2, 2));
        assert_eq!(stats.cache_evictions, 0, "nothing is ever evicted");
    }

    /// The dedupe fix: when two workers race to build the same entry, the
    /// summed stats count ONE miss (unique entry builds), not two — the
    /// loser's miss is reclassified as a late hit plus a race.
    #[test]
    fn insert_race_dedupes_the_shared_miss_count() {
        let cache = Arc::new(SharedPjrCache::new(2, None));
        let mut w0 = Pjr::Shared(Arc::clone(&cache));
        let mut w1 = Pjr::Shared(Arc::clone(&cache));
        let mut s0 = EngineStats::<Counting>::new();
        let mut s1 = EngineStats::<Counting>::new();

        // Both workers probe the same key before either has published —
        // the interleaving that double-counted misses under naive
        // at-lookup accounting.
        let (k0, t0) = miss_key(&mut w0, 2, &[5, 9], &mut s0);
        let (k1, t1) = miss_key(&mut w1, 2, &[5, 9], &mut s1);
        w0.publish(2, k0, t0, rows(&[1, 2, 3]), &mut s0);
        w1.publish(2, k1, t1, rows(&[1, 2, 3]), &mut s1);

        let mut merged = EngineStats::<Counting>::new();
        merged.merge(&s0);
        merged.merge(&s1);
        assert_eq!(merged.cache_misses, 1, "one unique entry build");
        assert_eq!(merged.cache_hits, 1, "the loser's probe became a late hit");
        assert_eq!(merged.cache_races, 1);
        assert_eq!(
            merged.intermediates, 3,
            "the duplicate build must not double-count intermediates"
        );
        // The published entry serves both workers from now on.
        assert!(matches!(w0.lookup(2, vec![5, 9], &mut s0), Looked::Hit(_)));
        assert!(matches!(w1.lookup(2, vec![5, 9], &mut s1), Looked::Hit(_)));
    }

    #[test]
    fn entries_published_by_one_handle_hit_on_another() {
        let cache = Arc::new(SharedPjrCache::new(4, None));
        let mut s = EngineStats::<Counting>::new();
        let mut w0 = Pjr::Shared(Arc::clone(&cache));
        let (k, t) = miss_key(&mut w0, 1, &[3], &mut s);
        w0.publish(1, k, t, rows(&[10, 11]), &mut s);
        let mut w1 = Pjr::Shared(Arc::clone(&cache));
        match w1.lookup(1, vec![3], &mut s) {
            Looked::Hit(entry) => assert_eq!(entry.len(), 2),
            Looked::Miss(..) => panic!("sibling's entry must be visible"),
        }
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn huge_entries_hint_does_not_reserve_memory() {
        // An upper-bound estimate like |G|^2 is not a credible working
        // set; the stripe tables must start small.
        let cache = SharedPjrCache::new(4, Some(200_000_000));
        let (stripe, _) = cache.stripes.lock(0);
        assert_eq!(stripe.capacity(), 0, "blown-up hint must be ignored");
        drop(stripe);
        // A credible hint does pre-size.
        let cache = SharedPjrCache::new(4, Some(16_000));
        let (stripe, _) = cache.stripes.lock(0);
        assert!(stripe.capacity() >= 16_000 / 16);
    }

    /// Hammer one shared cache from several threads; the merged counters
    /// must balance: every lookup is a hit or a miss, misses equal stored
    /// builds.
    #[test]
    fn concurrent_accounting_balances() {
        let cache = Arc::new(SharedPjrCache::new(4, None));
        let stats: Vec<EngineStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let cache = &cache;
                    scope.spawn(move || {
                        let mut s = EngineStats::<Counting>::new();
                        let mut w = Pjr::Shared(Arc::clone(cache));
                        for i in 0..400u32 {
                            let key = vec![(i * 7 + t) % 97];
                            if let Looked::Miss(k, t) = w.lookup(1, key, &mut s) {
                                let v = k[0];
                                w.publish(1, k, t, rows(&[v]), &mut s);
                            }
                        }
                        s
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut merged = EngineStats::<Counting>::new();
        for s in &stats {
            merged.merge(s);
        }
        assert_eq!(merged.cache_hits + merged.cache_misses, 4 * 400);
        assert_eq!(merged.cache_misses, 97, "misses == unique entry builds");
        let mut cache = Arc::into_inner(cache).expect("every handle is dropped");
        assert_eq!(live_entries(&mut cache), 97);
    }
}
