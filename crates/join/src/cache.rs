//! Partial-join-result (PJR) cache stores for the trie-join driver.
//!
//! The driver ([`crate::lftj::Driver`]) is generic over a [`PjrStore`],
//! which owns both the entry storage *and* the hit/miss accounting policy:
//!
//! * [`NoPjr`] — no cache at all: LFTJ. Zero-sized, and its
//!   [`PjrStore::CACHING`] `= false` compiles every lookup, recording and
//!   publish step of the driver away, the way `NoBudget` folds away
//!   governance.
//! * [`LocalPjr`] — the single-threaded store used by sequential
//!   [`crate::Ctj`] (and by `ParCtj`'s one-shard fast path): a plain
//!   `HashMap`, misses counted at lookup, insertions *dropped* once
//!   `max_entries` live entries exist.
//! * [`SharedPjrCache`] — the concurrent store shared by every
//!   [`crate::ParCtj`] worker, mirroring the paper's on-chip PJR cache
//!   that all TrieJax lanes share (§3.5). Entries are striped over
//!   [`triejax_exec::Striped`] lock lanes by key hash (hash-determined so
//!   every worker finds its siblings' entries), `Arc`-shared, bounded by a
//!   configurable total capacity with per-stripe FIFO **eviction** (a
//!   long-running shared cache must churn, not clog), and insert races are
//!   resolved **first-writer-wins**: the losing worker discards its
//!   duplicate build and the published entry serves all future replays.
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
//! * evictions tick `cache_evictions`; waiting on a stripe lock another
//!   worker holds ticks `cache_contention`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use triejax_exec::{suggested_stripes, Striped};
use triejax_relation::{AccessKind, Tally, Value, WORD_BYTES};

use crate::{CtjConfig, EngineStats};

/// A committed cache entry: matched values and their per-participant trie
/// indexes (atoms in `atoms_at(depth)` order). `Arc` (not `Rc`) so entries
/// can be shared across pool workers.
pub(crate) type Entry = Arc<Vec<(Value, Vec<u32>)>>;

/// A full cache key: the cached depth plus the bindings of the cache
/// spec's key depths.
type Key = (usize, Vec<Value>);

/// Outcome of a cache probe; a miss hands the key back so the driver can
/// publish the computed entry without re-building (or cloning) it, plus a
/// store-specific token ([`SharedPjrCache`]'s stripe hash; zero for the
/// local store) so the publish need not rehash the key.
pub(crate) enum Looked {
    /// The entry was present; replay it.
    Hit(Entry),
    /// Not present; compute, then [`PjrStore::publish`] under this key
    /// and token.
    Miss(Vec<Value>, u64),
}

/// Storage + accounting policy for CTJ's partial-join-result cache.
pub(crate) trait PjrStore {
    /// `false` only for [`NoPjr`]: the driver then never looks a spec up,
    /// records or publishes, and the checks compile away.
    const CACHING: bool = true;

    /// Probes for `(depth, key)`, ticking `cache_hits` or `cache_misses`.
    fn lookup<T: Tally>(
        &mut self,
        depth: usize,
        key: Vec<Value>,
        stats: &mut EngineStats<T>,
    ) -> Looked;

    /// Commits a fully-computed match list for `(depth, key)` after a
    /// miss (`token` is the one the miss handed back). Implementations
    /// may drop it (capacity), evict for it, or discover a sibling
    /// already published it (insert race).
    fn publish<T: Tally>(
        &mut self,
        depth: usize,
        key: Vec<Value>,
        token: u64,
        rows: Vec<(Value, Vec<u32>)>,
        stats: &mut EngineStats<T>,
    );
}

/// The store of a run without a PJR cache: plain LFTJ.
pub(crate) struct NoPjr;

impl PjrStore for NoPjr {
    const CACHING: bool = false;

    fn lookup<T: Tally>(&mut self, _: usize, _: Vec<Value>, _: &mut EngineStats<T>) -> Looked {
        unreachable!("a driver without a cache never looks a spec up")
    }

    fn publish<T: Tally>(
        &mut self,
        _: usize,
        _: Vec<Value>,
        _: u64,
        _: Vec<(Value, Vec<u32>)>,
        _: &mut EngineStats<T>,
    ) {
        unreachable!("a driver without a cache never records an entry")
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

/// The worker-local PJR store of sequential [`crate::Ctj`].
///
/// Capacity semantics match CTJ's software description: once
/// [`CtjConfig::max_entries`] live entries exist, further insertions are
/// dropped (counted as `cache_overflows`) — the single-query sequential
/// engine has no churn to survive, so it never evicts.
pub(crate) struct LocalPjr {
    map: HashMap<Key, Entry>,
    max_entries: Option<usize>,
}

impl LocalPjr {
    /// A store bounded as `config` says.
    pub(crate) fn new(config: CtjConfig) -> Self {
        LocalPjr {
            map: HashMap::new(),
            max_entries: config.max_entries,
        }
    }
}

impl PjrStore for LocalPjr {
    fn lookup<T: Tally>(
        &mut self,
        depth: usize,
        key: Vec<Value>,
        stats: &mut EngineStats<T>,
    ) -> Looked {
        let probe = (depth, key);
        if let Some(entry) = self.map.get(&probe) {
            stats.cache_hits += 1;
            return Looked::Hit(Arc::clone(entry));
        }
        stats.cache_misses += 1;
        Looked::Miss(probe.1, 0)
    }

    fn publish<T: Tally>(
        &mut self,
        depth: usize,
        key: Vec<Value>,
        _token: u64,
        rows: Vec<(Value, Vec<u32>)>,
        stats: &mut EngineStats<T>,
    ) {
        if self.max_entries.is_some_and(|max| self.map.len() >= max) {
            stats.cache_overflows += 1;
            return;
        }
        record_stored(&rows, stats);
        self.map.insert((depth, key), Arc::new(rows));
    }
}

/// One lock stripe of the shared cache: entry storage plus the FIFO
/// insertion order that drives eviction. Eviction is the only removal, so
/// every key in `fifo` is live in `map`.
struct PjrStripe {
    map: HashMap<Key, Entry>,
    fifo: VecDeque<Key>,
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
    stripes: Striped<PjrStripe>,
    /// Per-lane live-entry bounds as `(base, extra)`: lane `l` holds at
    /// most `base + 1` entries when `l < extra`, else `base` — so the
    /// lane bounds sum to *exactly* the configured total capacity.
    /// `None` = unbounded; a zero lane bound disables storing there.
    per_lane_cap: Option<(usize, usize)>,
}

/// A plan-side entries hint larger than this is a blown-up upper bound
/// (key-domain products multiply whole relation cardinalities), not a
/// credible working-set size — don't reserve memory for it.
const CREDIBLE_HINT_MAX: usize = 1 << 20;

impl SharedPjrCache {
    /// Builds a cache for `workers` concurrent workers bounded as `config`
    /// says ([`CtjConfig::max_entries`] is the *total* capacity; `None` =
    /// unbounded), with an optional expected entry-count hint (from
    /// [`triejax_query::CompiledQuery`]'s cache-capacity estimate) used to
    /// pre-size the stripe tables.
    ///
    /// The stripe count is [`suggested_stripes`] for the worker count,
    /// reduced so a small capacity is never spread thinner than one entry
    /// per stripe. The capacity divides across the stripes with the
    /// remainder spread one-per-lane, so the per-lane bounds sum to
    /// exactly `capacity` — the total of live entries never exceeds it,
    /// and the full configured budget is usable.
    pub(crate) fn new(workers: usize, config: CtjConfig, entries_hint: Option<usize>) -> Self {
        let capacity = config.max_entries;
        let mut stripes = suggested_stripes(workers);
        if let Some(cap) = capacity {
            stripes = stripes.min(prev_power_of_two(cap.max(1)));
        }
        let per_lane_cap = capacity.map(|cap| (cap / stripes, cap % stripes));
        // Pre-size each stripe toward its expected share of the entries —
        // but only when the upper-bound hint is small enough to be a
        // credible working-set estimate.
        let mut seed = entries_hint
            .filter(|&h| h <= CREDIBLE_HINT_MAX)
            .map_or(0, |h| h / stripes);
        if let Some((base, extra)) = per_lane_cap {
            seed = seed.min(base + usize::from(extra > 0));
        }
        SharedPjrCache {
            stripes: Striped::with_stripes(stripes, || PjrStripe {
                map: HashMap::with_capacity(seed),
                fifo: VecDeque::new(),
            }),
            per_lane_cap,
        }
    }

    /// Number of lock stripes (for tests/diagnostics).
    #[cfg(test)]
    pub(crate) fn stripes(&self) -> usize {
        self.stripes.stripes()
    }

    /// A handle for one worker; each pool worker drives its own
    /// [`crate::lftj::Driver`] through its own handle.
    pub(crate) fn handle(&self) -> SharedPjrHandle<'_> {
        SharedPjrHandle { cache: self }
    }

    /// Total live entries across all stripes (requires exclusive access;
    /// used by tests after a run has joined).
    #[cfg(test)]
    pub(crate) fn len(&mut self) -> usize {
        self.stripes.iter_mut().map(|s| s.map.len()).sum()
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

/// Largest power of two `<= x` (callers guarantee `x >= 1`).
fn prev_power_of_two(x: usize) -> usize {
    1 << (usize::BITS - 1 - x.leading_zeros())
}

/// One worker's view of a [`SharedPjrCache`].
pub(crate) struct SharedPjrHandle<'c> {
    cache: &'c SharedPjrCache,
}

impl PjrStore for SharedPjrHandle<'_> {
    fn lookup<T: Tally>(
        &mut self,
        depth: usize,
        key: Vec<Value>,
        stats: &mut EngineStats<T>,
    ) -> Looked {
        let hash = stripe_hash(depth, &key);
        let (stripe, contended) = self.cache.stripes.lock(hash);
        if contended {
            stats.cache_contention += 1;
        }
        let probe = (depth, key);
        let hit = stripe.map.get(&probe).map(Arc::clone);
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
        &mut self,
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
        let (mut stripe, contended) = self.cache.stripes.lock(hash);
        if contended {
            stats.cache_contention += 1;
        }
        let full_key = (depth, key);
        if stripe.map.contains_key(&full_key) {
            // Insert race lost: a sibling published this entry between our
            // miss and now. First writer wins — drop the duplicate build,
            // reclassify our earlier miss as a late hit so summed misses
            // count unique entry builds, and record the wasted work.
            stats.cache_misses -= 1;
            stats.cache_hits += 1;
            stats.cache_races += 1;
            return;
        }
        let lane_cap = self
            .cache
            .per_lane_cap
            .map(|(base, extra)| base + usize::from(self.cache.stripes.lane(hash) < extra));
        match lane_cap {
            Some(0) => {
                // Capacity 0 disables caching entirely.
                stats.cache_overflows += 1;
            }
            Some(cap) => {
                while stripe.map.len() >= cap {
                    let oldest = stripe
                        .fifo
                        .pop_front()
                        .expect("every live entry is FIFO-tracked");
                    stripe.map.remove(&oldest);
                    stats.cache_evictions += 1;
                }
                record_stored(&rows, stats);
                stripe.fifo.push_back(full_key.clone());
                stripe.map.insert(full_key, Arc::new(rows));
            }
            None => {
                record_stored(&rows, stats);
                stripe.map.insert(full_key, Arc::new(rows));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_relation::Counting;

    /// A shared cache of `capacity` total entries.
    fn shared(workers: usize, capacity: Option<usize>, hint: Option<usize>) -> SharedPjrCache {
        let config = CtjConfig {
            max_entries: capacity,
        };
        SharedPjrCache::new(workers, config, hint)
    }

    fn rows(vals: &[Value]) -> Vec<(Value, Vec<u32>)> {
        vals.iter().map(|&v| (v, vec![0, 1])).collect()
    }

    fn miss_key<S: PjrStore>(
        store: &mut S,
        d: usize,
        k: &[Value],
        s: &mut EngineStats,
    ) -> (Vec<Value>, u64) {
        match store.lookup(d, k.to_vec(), s) {
            Looked::Miss(key, token) => (key, token),
            Looked::Hit(_) => panic!("expected a miss"),
        }
    }

    #[test]
    fn local_counts_misses_at_lookup_and_drops_when_full() {
        let mut store = LocalPjr::new(CtjConfig {
            max_entries: Some(1),
        });
        let mut stats = EngineStats::<Counting>::new();
        let (k, t) = miss_key(&mut store, 1, &[7], &mut stats);
        assert_eq!(stats.cache_misses, 1);
        store.publish(1, k, t, rows(&[1, 2]), &mut stats);
        assert_eq!(stats.intermediates, 2);
        // Second distinct key: the full map drops the insertion.
        let (k, t) = miss_key(&mut store, 1, &[8], &mut stats);
        store.publish(1, k, t, rows(&[3]), &mut stats);
        assert_eq!(stats.cache_overflows, 1);
        assert_eq!(stats.cache_evictions, 0, "local never evicts");
        // The first entry is still live and hits.
        assert!(matches!(
            store.lookup(1, vec![7], &mut stats),
            Looked::Hit(_)
        ));
        assert_eq!(stats.cache_hits, 1);
    }

    /// The dedupe fix: when two workers race to build the same entry, the
    /// summed stats count ONE miss (unique entry builds), not two — the
    /// loser's miss is reclassified as a late hit plus a race.
    #[test]
    fn insert_race_dedupes_the_shared_miss_count() {
        let cache = shared(2, None, None);
        let mut w0 = cache.handle();
        let mut w1 = cache.handle();
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
        let cache = shared(4, None, None);
        let mut s = EngineStats::<Counting>::new();
        let mut w0 = cache.handle();
        let (k, t) = miss_key(&mut w0, 1, &[3], &mut s);
        w0.publish(1, k, t, rows(&[10, 11]), &mut s);
        let mut w1 = cache.handle();
        match w1.lookup(1, vec![3], &mut s) {
            Looked::Hit(entry) => assert_eq!(entry.len(), 2),
            Looked::Miss(..) => panic!("sibling's entry must be visible"),
        }
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn tiny_capacity_evicts_fifo_per_stripe() {
        // Capacity 1 collapses to a single stripe holding one entry.
        let mut cache = shared(4, Some(1), None);
        assert_eq!(cache.stripes(), 1);
        let mut s = EngineStats::<Counting>::new();
        let mut w = cache.handle();
        for v in 0..5u32 {
            let (k, t) = miss_key(&mut w, 1, &[v], &mut s);
            w.publish(1, k, t, rows(&[v]), &mut s);
        }
        assert_eq!(s.cache_evictions, 4, "each insert after the first evicts");
        assert_eq!(cache.len(), 1, "never more live entries than capacity");
        // Only the newest key survives.
        let mut w = cache.handle();
        assert!(matches!(w.lookup(1, vec![4], &mut s), Looked::Hit(_)));
        assert!(matches!(w.lookup(1, vec![0], &mut s), Looked::Miss(..)));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut cache = shared(2, Some(0), None);
        let mut s = EngineStats::<Counting>::new();
        let mut w = cache.handle();
        let (k, t) = miss_key(&mut w, 1, &[9], &mut s);
        w.publish(1, k, t, rows(&[1]), &mut s);
        assert_eq!(s.cache_overflows, 1);
        assert!(matches!(w.lookup(1, vec![9], &mut s), Looked::Miss(..)));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn total_capacity_is_honored_exactly_across_stripes() {
        // 10 does not divide evenly over the stripes: the remainder must
        // be spread so the whole configured budget is usable — no more,
        // no less.
        let mut cache = shared(4, Some(10), None);
        let stripes = cache.stripes();
        assert!(stripes <= 8, "stripe count shrinks to fit the capacity");
        let mut s = EngineStats::<Counting>::new();
        let mut w = cache.handle();
        for v in 0..200u32 {
            let (k, t) = miss_key(&mut w, 1, &[v], &mut s);
            w.publish(1, k, t, rows(&[v]), &mut s);
        }
        assert_eq!(
            cache.len(),
            10,
            "every stripe saturated: live entries must equal the capacity"
        );
        assert!(s.cache_evictions > 0);
    }

    #[test]
    fn huge_entries_hint_does_not_reserve_memory() {
        // An upper-bound estimate like |G|^2 is not a credible working
        // set; the stripe tables must start small.
        let cache = shared(4, None, Some(200_000_000));
        let (stripe, _) = cache.stripes.lock(0);
        assert_eq!(stripe.map.capacity(), 0, "blown-up hint must be ignored");
        drop(stripe);
        // A credible hint does pre-size.
        let cache = shared(4, None, Some(16_000));
        let (stripe, _) = cache.stripes.lock(0);
        assert!(stripe.map.capacity() >= 16_000 / 16);
    }

    /// Hammer one shared cache from several threads; the merged counters
    /// must balance: every lookup is a hit or a miss, misses equal stored
    /// builds (unbounded, so no eviction/overflow re-builds).
    #[test]
    fn concurrent_accounting_balances() {
        let cache = shared(4, None, None);
        let stats: Vec<EngineStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let cache = &cache;
                    scope.spawn(move || {
                        let mut s = EngineStats::<Counting>::new();
                        let mut w = cache.handle();
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
        let mut cache = cache;
        assert_eq!(cache.len(), 97);
    }
}
