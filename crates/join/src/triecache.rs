//! Cross-query trie cache: amortizes `TrieSet` construction over a stream
//! of queries against the same catalog.
//!
//! A [`TrieCache`] is a byte-capacity-bounded, lock-striped map from
//! `(relation name, content fingerprint, column permutation)` to
//! [`Arc<Trie>`]. The parallel engines ([`crate::ParLftj`] /
//! [`crate::ParCtj`]) consult it before building: a warm query's build
//! phase collapses to a handful of lookups. Keying on a *content
//! fingerprint* of the base relation (not just its name) means replacing a
//! relation in the catalog naturally invalidates its cached tries — stale
//! entries can never be served. A [`crate::Session`] goes further and
//! *forgets* them: when a compaction replaces a base relation, the session
//! declares the new generation current, which drops every entry of that
//! relation built from another generation and refuses later publications
//! of one (a query handle that outlived its epoch keeps its own builds to
//! itself), so the cache stays O(relations × orders × base) however many
//! batches land.
//!
//! Beside the tries the cache keeps, per `(relation, permutation)`, the
//! **latest** [`MergedView`] of a mutated relation, identified by the
//! fingerprints of the base, insert and tombstone sets it was built from:
//! queries of one epoch share it, the next epoch's first query replaces it.
//!
//! Insert races follow the shared PJR cache's discipline: first writer
//! wins, the loser discards its duplicate build and adopts the published
//! [`Arc`], and the accounting stays deduplicated (one insertion, one
//! race, no double byte charge). Capacity is enforced in bytes of trie
//! footprint ([`Trie::bytes`]) with per-stripe FIFO eviction; the entry
//! just published is never evicted by its own insert.
//!
//! There is no process-wide instance: an engine consults exactly the
//! cache it was given (`with_trie_cache`), and a [`crate::Session`] owns
//! its own. [`TrieCache::preload`] fills a cache with every trie of a
//! saved catalog, so a cold process serves its first query with zero trie
//! builds.
//!
//! A preloaded entry is a [`StoredTrie`]: until a lookup wants it, it is a
//! window into the store file, charged at its stored size. The first
//! lookup checks and decodes it (its *first touch*, reported as
//! `EngineStats::trie_load_ns`) and files the trie in its place; a body that fails its
//! check stays filed, unserved, and every lookup of it returns the same
//! [`StoreError`].

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use triejax_exec::{suggested_stripes, Striped};
use triejax_relation::{MergedView, Relation, Trie};
use triejax_store::{StoreError, StoredCatalog, StoredTrie};

/// Cache key: relation name, content fingerprint of the *base* relation,
/// and the column permutation the trie is built in.
type TrieKey = (String, u64, Vec<usize>);

/// What a [`MergedView`] was built from: the fingerprints of the base
/// relation, the pending inserts and the tombstones.
pub(crate) type ViewKey = [u64; 3];

/// The merged views and relation generations of a cache; one lock, taken
/// before any stripe lock.
#[derive(Debug, Default)]
struct Views {
    /// The latest view per `(relation name, permutation)`.
    latest: HashMap<(String, Vec<usize>), (ViewKey, Arc<MergedView>)>,
    /// Per relation, the base fingerprint [`TrieCache::supersede`] declared
    /// current; entries of any other are refused.
    live: HashMap<String, u64>,
}

impl Views {
    fn is_stale(&self, name: &str, base_fingerprint: u64) -> bool {
        self.live
            .get(name)
            .is_some_and(|&live| live != base_fingerprint)
    }
}

/// A cached trie: built (or checked) and ready, or a stored window not
/// yet touched — or one whose check failed.
#[derive(Debug, Clone)]
enum Slot {
    Ready(Arc<Trie>),
    Stored(StoredTrie),
}

impl Slot {
    /// The bytes the slot is charged against the capacity: a ready trie's
    /// resident footprint, a stored one's stored size.
    fn bytes(&self) -> u64 {
        match self {
            Slot::Ready(t) => t.bytes(),
            Slot::Stored(t) => t.stored_bytes(),
        }
    }
}

/// First-touch work done by lookups: store entries checked and decoded,
/// and the wall-clock nanoseconds it took.
#[derive(Debug, Default)]
pub(crate) struct TrieLoad {
    pub(crate) entries: u64,
    pub(crate) ns: u64,
}

#[derive(Debug, Default)]
struct TrieStripe {
    map: HashMap<TrieKey, Slot>,
    /// Insertion order within the stripe, for FIFO eviction.
    fifo: VecDeque<TrieKey>,
}

/// A byte-capacity-bounded, lock-striped cross-query cache of built tries.
///
/// See the module docs for semantics. Shareable across threads and
/// engine instances via [`Arc`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use triejax_join::TrieCache;
/// use triejax_relation::{Relation, Trie};
///
/// let cache = TrieCache::with_capacity_mb(64);
/// let rel = Relation::from_pairs(vec![(1, 2), (2, 3)]);
/// let fp = TrieCache::fingerprint(&rel);
/// assert!(cache.lookup("G", fp, &[0, 1])?.is_none()); // cold
/// let built = Arc::new(Trie::build(&rel));
/// cache.insert("G", fp, &[0, 1], Arc::clone(&built));
/// assert!(cache.lookup("G", fp, &[0, 1])?.is_some()); // warm
/// # Ok::<(), triejax_join::StoreError>(())
/// ```
#[derive(Debug)]
pub struct TrieCache {
    stripes: Striped<TrieStripe>,
    views: Mutex<Views>,
    /// Byte bound over all live entries; `None` is unbounded.
    capacity: Option<u64>,
    /// Total bytes of live entries, maintained outside the stripe locks so
    /// capacity can be checked without sweeping.
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    overflows: AtomicU64,
    races: AtomicU64,
}

impl TrieCache {
    /// Creates a cache bounded to `capacity` bytes of trie footprint
    /// (`None` is unbounded). A capacity of `Some(0)` admits nothing.
    pub fn new(capacity: Option<u64>) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        TrieCache {
            stripes: Striped::with_stripes(suggested_stripes(workers), TrieStripe::default),
            views: Mutex::default(),
            capacity,
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            overflows: AtomicU64::new(0),
            races: AtomicU64::new(0),
        }
    }

    /// Creates a cache bounded to `mb` mebibytes of trie footprint.
    pub fn with_capacity_mb(mb: u64) -> Self {
        TrieCache::new(Some(mb.saturating_mul(1024 * 1024)))
    }

    /// Creates an unbounded cache.
    pub fn unbounded() -> Self {
        TrieCache::new(None)
    }

    /// Stable content fingerprint of a base relation: the relation's
    /// memoized [`Relation::fingerprint`], maintained at construction and
    /// mutation time — reading it here is free, so keying a cache (or a
    /// persistent store) never rehashes the full row buffer per query.
    pub fn fingerprint(relation: &Relation) -> u64 {
        relation.fingerprint()
    }

    /// Files every trie of a stored catalog, making them servable under
    /// their saved `(name, fingerprint, perm)` keys. Tries whose base data
    /// has since changed are simply never looked up (stale-by-fingerprint).
    /// A trie not yet checked is filed as it is, and checked by the first
    /// lookup that wants it.
    pub fn preload(&self, stored: &StoredCatalog) {
        for t in stored.tries() {
            let slot = match t.is_checked().then(|| t.trie()) {
                Some(Ok(trie)) => Slot::Ready(trie),
                _ => Slot::Stored(t.clone()),
            };
            self.publish(&t.name, t.fingerprint, &t.perm, slot);
        }
    }

    /// Snapshots every live entry as a [`StoredTrie`] (sweeps the stripes;
    /// order unspecified) — the producer side of a persistent store: run
    /// the queries to warm the cache, then snapshot and save. An entry
    /// preloaded from a store and never looked up is handed back as read,
    /// so saving it copies its stored bytes.
    pub fn entries(&self) -> Vec<StoredTrie> {
        (0..self.stripes.stripes())
            .flat_map(|i| {
                let (stripe, _) = self.stripes.lock(i as u64);
                stripe
                    .map
                    .iter()
                    .map(|((n, fp, perm), slot)| match slot {
                        Slot::Ready(t) => {
                            StoredTrie::new(n.clone(), *fp, perm.clone(), Arc::clone(t))
                        }
                        Slot::Stored(t) => t.clone(),
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Looks up the trie for `(name, fingerprint, perm)`, counting a hit
    /// or a miss. A preloaded entry is checked on its first lookup.
    ///
    /// # Errors
    ///
    /// Returns the [`StoreError`] a preloaded entry failed its check with;
    /// every lookup of that entry returns it again.
    pub fn lookup(
        &self,
        name: &str,
        fingerprint: u64,
        perm: &[usize],
    ) -> Result<Option<Arc<Trie>>, StoreError> {
        self.fetch(name, fingerprint, perm, &mut TrieLoad::default())
    }

    /// [`TrieCache::lookup`], adding any first-touch work to `load`.
    pub(crate) fn fetch(
        &self,
        name: &str,
        fingerprint: u64,
        perm: &[usize],
        load: &mut TrieLoad,
    ) -> Result<Option<Arc<Trie>>, StoreError> {
        let key = (name.to_owned(), fingerprint, perm.to_vec());
        let hash = stripe_hash(&key);
        let (stripe, _) = self.stripes.lock(hash);
        let found = stripe.map.get(&key).cloned();
        drop(stripe);
        let trie = match found {
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Some(Slot::Ready(t)) => t,
            Some(Slot::Stored(stored)) => {
                let first_touch = !stored.is_checked();
                let t0 = std::time::Instant::now();
                let checked = stored.trie();
                if first_touch {
                    load.entries += 1;
                    load.ns += t0.elapsed().as_nanos() as u64;
                }
                let trie = checked?;
                self.settle(&key, hash, &stored, &trie);
                trie
            }
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(trie))
    }

    /// Files the checked `trie` in place of the stored window it came
    /// from, recharging the entry at its resident size.
    fn settle(&self, key: &TrieKey, hash: u64, stored: &StoredTrie, trie: &Arc<Trie>) {
        let (mut stripe, _) = self.stripes.lock(hash);
        let Some(slot) = stripe.map.get_mut(key) else {
            return;
        };
        if !matches!(slot, Slot::Stored(s) if s.same_entry(stored)) {
            return;
        }
        *slot = Slot::Ready(Arc::clone(trie));
        drop(stripe);
        self.bytes.fetch_add(trie.bytes(), Ordering::AcqRel);
        self.bytes
            .fetch_sub(stored.stored_bytes(), Ordering::AcqRel);
        self.enforce_capacity(self.stripes.lane(hash), key);
    }

    /// Publishes a built trie under `(name, fingerprint, perm)` and returns
    /// the canonical [`Arc`] for that key: the given one if this call
    /// published it, the sibling's if another thread won the insert race
    /// (first writer wins, the duplicate build is discarded and counted as
    /// a race, never double-charged against the byte bound).
    ///
    /// An entry larger than the whole capacity is not stored (counted as
    /// an overflow), and neither is one of a relation generation that
    /// a session's compaction retired; the caller still uses the
    /// returned trie for its own query.
    pub fn insert(
        &self,
        name: &str,
        fingerprint: u64,
        perm: &[usize],
        trie: Arc<Trie>,
    ) -> Arc<Trie> {
        match self.publish(name, fingerprint, perm, Slot::Ready(Arc::clone(&trie))) {
            Some(Slot::Ready(existing)) => existing,
            _ => trie,
        }
    }

    /// Files `slot` under `(name, fingerprint, perm)` unless it is too big
    /// or of a retired generation, or the key is taken. Returns the slot
    /// already filed under the key when it was taken (a lost race).
    fn publish(&self, name: &str, fingerprint: u64, perm: &[usize], slot: Slot) -> Option<Slot> {
        let entry_bytes = slot.bytes();
        if self.capacity.is_some_and(|cap| entry_bytes > cap) {
            self.overflows.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        #[cfg(feature = "faults")]
        triejax_exec::faults::fire(triejax_exec::faults::FaultEvent::CacheInsert);
        // Held across the publication so a concurrent `supersede` either
        // sees the entry and drops it or has already marked it stale.
        let views = self.views();
        if views.is_stale(name, fingerprint) {
            return None;
        }
        let key = (name.to_owned(), fingerprint, perm.to_vec());
        let hash = stripe_hash(&key);
        let lane = self.stripes.lane(hash);
        let (mut stripe, _) = self.stripes.lock(hash);
        if let Some(existing) = stripe.map.get(&key) {
            let existing = existing.clone();
            drop(stripe);
            self.races.fetch_add(1, Ordering::Relaxed);
            return Some(existing);
        }
        stripe.fifo.push_back(key.clone());
        stripe.map.insert(key.clone(), slot);
        drop(stripe);
        drop(views);
        self.bytes.fetch_add(entry_bytes, Ordering::AcqRel);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.enforce_capacity(lane, &key);
        None
    }

    fn views(&self) -> MutexGuard<'_, Views> {
        // Every update under this lock is one map operation, so a
        // panicking holder leaves the tables valid.
        self.views.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached merged view of `(name, perm)`, when it was built from
    /// exactly the parts `key` names.
    pub(crate) fn view(&self, name: &str, perm: &[usize], key: ViewKey) -> Option<Arc<MergedView>> {
        let views = self.views();
        let (built_from, view) = views.latest.get(&(name.to_owned(), perm.to_vec()))?;
        (*built_from == key).then(|| Arc::clone(view))
    }

    /// Makes `view` the one cached view of `(name, perm)`, replacing the
    /// previous epoch's. Not stored when its base generation was retired
    /// or it does not fit the byte bound; the caller uses it either way.
    pub(crate) fn publish_view(
        &self,
        name: &str,
        perm: &[usize],
        key: ViewKey,
        view: Arc<MergedView>,
    ) -> Arc<MergedView> {
        let mut views = self.views();
        let slot = (name.to_owned(), perm.to_vec());
        let replaced = views.latest.get(&slot).map_or(0, |(_, old)| old.bytes());
        let bytes = self.bytes() - replaced + view.bytes();
        if views.is_stale(name, key[0]) || self.capacity.is_some_and(|cap| bytes > cap) {
            return view;
        }
        views.latest.insert(slot, (key, Arc::clone(&view)));
        self.bytes.fetch_add(view.bytes(), Ordering::AcqRel);
        self.bytes.fetch_sub(replaced, Ordering::AcqRel);
        view
    }

    /// Declares `live_fingerprint` the current generation of base relation
    /// `name`: every trie and view built from another generation of it is
    /// dropped, and later publications of one are refused. Runs that
    /// already hold such an entry keep their `Arc`; only the cache forgets.
    pub(crate) fn supersede(&self, name: &str, live_fingerprint: u64) {
        let mut views = self.views();
        views.live.insert(name.to_owned(), live_fingerprint);
        let mut freed = 0;
        views.latest.retain(|(n, _), (key, view)| {
            let keep = n != name || key[0] == live_fingerprint;
            freed += if keep { 0 } else { view.bytes() };
            keep
        });
        for lane in 0..self.stripes.stripes() {
            let (mut stripe, _) = self.stripes.lock(lane as u64);
            let TrieStripe { map, fifo } = &mut *stripe;
            fifo.retain(|key| {
                let keep = key.0 != name || key.1 == live_fingerprint;
                if !keep {
                    freed += map.remove(key).map_or(0, |t| t.bytes());
                }
                keep
            });
        }
        self.bytes.fetch_sub(freed, Ordering::AcqRel);
    }

    /// Evicts oldest-first, stripe by stripe starting at `start_lane`,
    /// until total bytes fit the capacity again. The freshly inserted
    /// `protect` key is never evicted by its own insert (it fits the
    /// capacity by itself — larger entries were rejected up front).
    fn enforce_capacity(&self, start_lane: usize, protect: &TrieKey) {
        let Some(cap) = self.capacity else { return };
        let n = self.stripes.stripes();
        loop {
            if self.bytes.load(Ordering::Acquire) <= cap {
                return;
            }
            let mut evicted_any = false;
            for off in 0..n {
                let lane = (start_lane + off) % n;
                let (mut stripe, _) = self.stripes.lock(lane as u64);
                while self.bytes.load(Ordering::Acquire) > cap {
                    let Some(front) = stripe.fifo.front() else {
                        break;
                    };
                    if front == protect {
                        if stripe.fifo.len() <= 1 {
                            break;
                        }
                        stripe.fifo.rotate_left(1);
                        continue;
                    }
                    let victim = stripe.fifo.pop_front().expect("front exists");
                    if let Some(t) = stripe.map.remove(&victim) {
                        self.bytes.fetch_sub(t.bytes(), Ordering::AcqRel);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        evicted_any = true;
                    }
                }
            }
            if !evicted_any {
                // Nothing left to evict anywhere (only protected or empty
                // stripes): the bound cannot be tightened further.
                return;
            }
        }
    }

    /// Total bytes of live entries, tries and merged views.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Acquire)
    }

    /// The byte capacity (`None` is unbounded).
    pub fn capacity_bytes(&self) -> Option<u64> {
        self.capacity
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Unique entries published (races and overflows excluded).
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Entries evicted to fit the byte bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries rejected because they alone exceed the capacity.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Insert races lost to a sibling (first writer wins).
    pub fn races(&self) -> u64 {
        self.races.load(Ordering::Relaxed)
    }

    /// Number of live entries, tries and merged views (sweeps every
    /// stripe).
    pub fn len(&self) -> usize {
        let views = self.views().latest.len();
        let tries = |i| self.stripes.lock(i as u64).0.map.len();
        views + (0..self.stripes.stripes()).map(tries).sum::<usize>()
    }

    /// Returns `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Stripe-selection hash: the std `DefaultHasher` (SipHash with fixed
/// default keys) — deterministic across threads and processes, so every
/// worker maps a key to the same stripe.
fn stripe_hash(key: &TrieKey) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(seed: u32, rows: u32) -> Relation {
        Relation::from_pairs((0..rows).map(|i| (seed.wrapping_mul(31).wrapping_add(i), i)))
    }

    fn arc_trie(r: &Relation) -> Arc<Trie> {
        Arc::new(Trie::build(r))
    }

    #[test]
    fn lookup_after_insert_hits_and_counts() {
        let cache = TrieCache::unbounded();
        let r = rel(1, 8);
        let fp = TrieCache::fingerprint(&r);
        assert!(cache.lookup("G", fp, &[0, 1]).unwrap().is_none());
        let t = cache.insert("G", fp, &[0, 1], arc_trie(&r));
        let got = cache
            .lookup("G", fp, &[0, 1])
            .unwrap()
            .expect("warm lookup hits");
        assert!(Arc::ptr_eq(&t, &got));
        assert_eq!(
            (cache.hits(), cache.misses(), cache.insertions()),
            (1, 1, 1)
        );
        assert_eq!(cache.bytes(), t.bytes());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fingerprint_tracks_content_not_name() {
        let a = rel(1, 8);
        let b = rel(2, 8);
        assert_ne!(TrieCache::fingerprint(&a), TrieCache::fingerprint(&b));
        assert_eq!(
            TrieCache::fingerprint(&a),
            TrieCache::fingerprint(&a.clone())
        );
        // Same name, different content: the stale trie is unreachable.
        let cache = TrieCache::unbounded();
        cache.insert("G", TrieCache::fingerprint(&a), &[0, 1], arc_trie(&a));
        assert!(cache
            .lookup("G", TrieCache::fingerprint(&b), &[0, 1])
            .unwrap()
            .is_none());
    }

    #[test]
    fn distinct_perms_are_distinct_entries() {
        let cache = TrieCache::unbounded();
        let r = rel(3, 8);
        let fp = TrieCache::fingerprint(&r);
        cache.insert("G", fp, &[0, 1], arc_trie(&r));
        assert!(cache.lookup("G", fp, &[1, 0]).unwrap().is_none());
    }

    #[test]
    fn zero_capacity_admits_nothing() {
        let cache = TrieCache::new(Some(0));
        let r = rel(4, 8);
        let fp = TrieCache::fingerprint(&r);
        let t = cache.insert("G", fp, &[0, 1], arc_trie(&r));
        assert_eq!(t.tuple_count(), r.len(), "caller keeps its build");
        assert!(cache.lookup("G", fp, &[0, 1]).unwrap().is_none());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.overflows(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn byte_bound_is_exact_after_every_insert() {
        // A trie's bytes include its root directory, which is sized by the
        // largest root value, and its leaf bitmaps, which exist only for
        // dense leaves: every relation here shares the root 0..16 and has
        // leaves too sparse for bitmaps, so every trie has the same bytes.
        let shaped = |i: u32| Relation::from_pairs((0..16u32).map(|j| (j, 1000 * (i + 1) + j)));
        let one = arc_trie(&shaped(0)).bytes();
        assert!((1..10).all(|i| arc_trie(&shaped(i)).bytes() == one));
        // Room for exactly two entries of this shape.
        let cache = TrieCache::new(Some(2 * one));
        for i in 0..10u32 {
            let ri = shaped(i);
            cache.insert("G", TrieCache::fingerprint(&ri), &[0, 1], arc_trie(&ri));
            assert!(
                cache.bytes() <= 2 * one,
                "insert {i}: {} bytes exceeds bound {}",
                cache.bytes(),
                2 * one
            );
        }
        assert_eq!(cache.evictions(), 8, "each overflowing insert evicts");
        assert_eq!(cache.len(), 2);
        // The newest entry survived its own insert's eviction pass.
        let last = shaped(9);
        assert!(cache
            .lookup("G", TrieCache::fingerprint(&last), &[0, 1])
            .unwrap()
            .is_some());
    }

    #[test]
    fn insert_race_keeps_first_writer_and_accounting_balances() {
        let cache = TrieCache::unbounded();
        let r = rel(5, 32);
        let fp = TrieCache::fingerprint(&r);
        let winners: Vec<Arc<Trie>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.insert("G", fp, &[0, 1], arc_trie(&r))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Everyone adopted the same published Arc.
        assert!(winners.iter().all(|w| Arc::ptr_eq(w, &winners[0])));
        assert_eq!(cache.insertions(), 1);
        assert_eq!(cache.races(), 3);
        assert_eq!(cache.bytes(), winners[0].bytes(), "no double charge");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn preload_and_entries_round_trip_through_a_store() {
        let r = rel(6, 8);
        let fp = TrieCache::fingerprint(&r);
        let producer = TrieCache::unbounded();
        producer.insert("G", fp, &[0, 1], arc_trie(&r));
        producer.insert("G", fp, &[1, 0], arc_trie(&r.permute(&[1, 0])));
        let mut stored = triejax_store::StoredCatalog::new();
        for t in producer.entries() {
            stored.insert_stored_trie(t);
        }
        let stored =
            triejax_store::StoredCatalog::from_bytes(&stored.to_bytes()).expect("round trip");
        let consumer = TrieCache::unbounded();
        consumer.preload(&stored);
        assert_eq!(consumer.len(), 2);
        let got = consumer
            .lookup("G", fp, &[0, 1])
            .unwrap()
            .expect("preload serves");
        assert_eq!(*got, Trie::build(&r));
        assert!(consumer
            .lookup("G", fp.wrapping_add(1), &[0, 1])
            .unwrap()
            .is_none());
    }
}
