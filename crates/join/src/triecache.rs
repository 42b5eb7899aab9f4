//! Cross-query trie cache: amortizes `TrieSet` construction over a stream
//! of queries against the same catalog.
//!
//! A [`TrieCache`] maps `(relation name, content fingerprint, column
//! permutation)` to [`Arc<Trie>`], behind one lock. The parallel engines
//! ([`crate::ParLftj`] / [`crate::ParCtj`]) consult it from the query's
//! calling thread before building and publish to it after the build
//! phase, so a query takes the lock once per distinct `(relation, perm)`
//! and a warm query's build phase collapses to a handful of lookups.
//! Keying on a *content fingerprint* of the base relation (not just its
//! name) means replacing a relation in the catalog naturally invalidates
//! its cached tries — stale entries can never be served. A
//! [`crate::Session`] goes further and *forgets* them: when a compaction
//! replaces a base relation, the session declares the new generation
//! current, which drops every entry of that relation built from another
//! generation and refuses later publications of one (a query handle that
//! outlived its epoch keeps its own builds to itself), so the cache stays
//! O(relations × orders × base) however many batches land. That is the
//! cache's only bound: it keeps what its session uses and evicts nothing.
//!
//! Beside the tries the cache keeps, per `(relation, permutation)`, the
//! **latest** [`MergedView`] of a mutated relation, identified by the
//! fingerprints of the base, insert and tombstone sets it was built from:
//! queries of one epoch share it, the next epoch's first query replaces it.
//!
//! Insert races follow the shared PJR cache's discipline: first writer
//! wins, the loser discards its duplicate build and adopts the published
//! [`Arc`], and the accounting stays deduplicated (one insertion, one
//! race).
//!
//! There is no process-wide instance: an engine consults exactly the
//! cache it was given (`with_trie_cache`), and a [`crate::Session`] owns
//! its own. [`TrieCache::preload`] fills a cache with every trie of a
//! saved catalog, so a cold process serves its first query with zero trie
//! builds.
//!
//! A preloaded entry is a [`StoredTrie`]: until a lookup wants it, it is a
//! window into the store file, counted at its stored size. The first
//! lookup checks and decodes it (its *first touch*, reported as
//! `EngineStats::trie_load_ns`) outside the lock and files the trie in its
//! place; a body that fails its check stays filed, unserved, and every
//! lookup of it returns the same [`StoreError`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use triejax_relation::{MergedView, Trie};
use triejax_store::{StoreError, StoredCatalog, StoredTrie};

/// Cache key: relation name, content fingerprint of the *base* relation,
/// and the column permutation the trie is built in.
type TrieKey = (String, u64, Vec<usize>);

/// What a [`MergedView`] was built from: the fingerprints of the base
/// relation, the pending inserts and the tombstones.
pub(crate) type ViewKey = [u64; 3];

/// A cached trie: built (or checked) and ready, or a stored window not
/// yet touched — or one whose check failed.
#[derive(Debug, Clone)]
enum Slot {
    Ready(Arc<Trie>),
    Stored(StoredTrie),
}

impl Slot {
    /// The bytes the slot holds: a ready trie's resident footprint, a
    /// stored one's stored size.
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

/// Everything a cache holds, behind its one lock.
#[derive(Debug, Default)]
struct Tables {
    tries: HashMap<TrieKey, Slot>,
    /// The latest view per `(relation name, permutation)`.
    views: HashMap<(String, Vec<usize>), (ViewKey, Arc<MergedView>)>,
    /// Per relation, the base fingerprint [`TrieCache::supersede`] declared
    /// current; entries of any other are refused.
    live: HashMap<String, u64>,
    hits: u64,
    misses: u64,
    insertions: u64,
    races: u64,
}

impl Tables {
    fn is_stale(&self, name: &str, base_fingerprint: u64) -> bool {
        self.live
            .get(name)
            .is_some_and(|&live| live != base_fingerprint)
    }
}

/// A cross-query cache of built tries and merged views.
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
/// let cache = TrieCache::unbounded();
/// let rel = Relation::from_pairs(vec![(1, 2), (2, 3)]);
/// let fp = rel.fingerprint();
/// assert!(cache.lookup("G", fp, &[0, 1])?.is_none()); // cold
/// let built = Arc::new(Trie::build(&rel));
/// cache.insert("G", fp, &[0, 1], Arc::clone(&built));
/// assert!(cache.lookup("G", fp, &[0, 1])?.is_some()); // warm
/// # Ok::<(), triejax_join::StoreError>(())
/// ```
#[derive(Debug)]
pub struct TrieCache {
    tables: Mutex<Tables>,
}

impl TrieCache {
    /// Creates an empty cache. It evicts nothing: only
    /// [`Session`](crate::Session)'s compactions drop entries.
    pub fn unbounded() -> Self {
        TrieCache {
            tables: Mutex::default(),
        }
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

    /// Snapshots every trie entry as a [`StoredTrie`] (order unspecified)
    /// — the producer side of a persistent store: run the queries to warm
    /// the cache, then snapshot and save. An entry preloaded from a store
    /// and never looked up is handed back as read, so saving it copies its
    /// stored bytes.
    pub fn entries(&self) -> Vec<StoredTrie> {
        self.tables()
            .tries
            .iter()
            .map(|((n, fp, perm), slot)| match slot {
                Slot::Ready(t) => StoredTrie::new(n.clone(), *fp, perm.clone(), Arc::clone(t)),
                Slot::Stored(t) => t.clone(),
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
        let stored = {
            let mut tables = self.tables();
            match tables.tries.get(&key) {
                None => {
                    tables.misses += 1;
                    return Ok(None);
                }
                Some(Slot::Ready(t)) => {
                    let t = Arc::clone(t);
                    tables.hits += 1;
                    return Ok(Some(t));
                }
                Some(Slot::Stored(stored)) => stored.clone(),
            }
        };
        // The check runs outside the lock: it reads the whole body.
        let first_touch = !stored.is_checked();
        let t0 = std::time::Instant::now();
        let checked = stored.trie();
        if first_touch {
            load.entries += 1;
            load.ns += t0.elapsed().as_nanos() as u64;
        }
        let trie = checked?;
        let mut tables = self.tables();
        if let Some(slot) = tables.tries.get_mut(&key) {
            if matches!(slot, Slot::Stored(s) if s.same_entry(&stored)) {
                *slot = Slot::Ready(Arc::clone(&trie));
            }
        }
        tables.hits += 1;
        Ok(Some(trie))
    }

    /// Publishes a built trie under `(name, fingerprint, perm)` and returns
    /// the canonical [`Arc`] for that key: the given one if this call
    /// published it, the sibling's if another thread won the insert race
    /// (first writer wins, the duplicate build is discarded and counted as
    /// a race).
    ///
    /// An entry of a relation generation that a session's compaction
    /// retired is not stored; the caller still uses the returned trie for
    /// its own query.
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

    /// Files `slot` under `(name, fingerprint, perm)` unless it is of a
    /// retired generation or the key is taken. Returns the slot already
    /// filed under the key when it was taken (a lost race).
    fn publish(&self, name: &str, fingerprint: u64, perm: &[usize], slot: Slot) -> Option<Slot> {
        #[cfg(feature = "faults")]
        triejax_exec::faults::fire(triejax_exec::faults::FaultEvent::CacheInsert);
        let mut guard = self.tables();
        let tables = &mut *guard;
        if tables.is_stale(name, fingerprint) {
            return None;
        }
        let key = (name.to_owned(), fingerprint, perm.to_vec());
        match tables.tries.entry(key) {
            Entry::Occupied(taken) => {
                tables.races += 1;
                Some(taken.get().clone())
            }
            Entry::Vacant(free) => {
                free.insert(slot);
                tables.insertions += 1;
                None
            }
        }
    }

    fn tables(&self) -> MutexGuard<'_, Tables> {
        // Every update under this lock is one map operation or one counter
        // step, so a panicking holder leaves the tables valid.
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached merged view of `(name, perm)`, when it was built from
    /// exactly the parts `key` names.
    pub(crate) fn view(&self, name: &str, perm: &[usize], key: ViewKey) -> Option<Arc<MergedView>> {
        let tables = self.tables();
        let (built_from, view) = tables.views.get(&(name.to_owned(), perm.to_vec()))?;
        (*built_from == key).then(|| Arc::clone(view))
    }

    /// Makes `view` the one cached view of `(name, perm)`, replacing the
    /// previous epoch's. Not stored when its base generation was retired;
    /// the caller uses it either way.
    pub(crate) fn publish_view(
        &self,
        name: &str,
        perm: &[usize],
        key: ViewKey,
        view: Arc<MergedView>,
    ) -> Arc<MergedView> {
        let mut tables = self.tables();
        if !tables.is_stale(name, key[0]) {
            let slot = (name.to_owned(), perm.to_vec());
            tables.views.insert(slot, (key, Arc::clone(&view)));
        }
        view
    }

    /// Declares `live_fingerprint` the current generation of base relation
    /// `name`: every trie and view built from another generation of it is
    /// dropped, and later publications of one are refused. Runs that
    /// already hold such an entry keep their `Arc`; only the cache forgets.
    pub(crate) fn supersede(&self, name: &str, live_fingerprint: u64) {
        let mut tables = self.tables();
        tables.live.insert(name.to_owned(), live_fingerprint);
        tables
            .views
            .retain(|(n, _), (key, _)| n != name || key[0] == live_fingerprint);
        tables
            .tries
            .retain(|(n, fp, _), _| n != name || *fp == live_fingerprint);
    }

    /// Total bytes of live entries, tries and merged views (sums them).
    pub fn bytes(&self) -> u64 {
        let tables = self.tables();
        let tries: u64 = tables.tries.values().map(Slot::bytes).sum();
        tries + tables.views.values().map(|(_, v)| v.bytes()).sum::<u64>()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.tables().hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.tables().misses
    }

    /// Unique entries published (races excluded).
    pub fn insertions(&self) -> u64 {
        self.tables().insertions
    }

    /// Insert races lost to a sibling (first writer wins).
    pub fn races(&self) -> u64 {
        self.tables().races
    }

    /// Number of live entries, tries and merged views.
    pub fn len(&self) -> usize {
        let tables = self.tables();
        tables.tries.len() + tables.views.len()
    }

    /// Returns `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_relation::Relation;

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
        let fp = r.fingerprint();
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
        // Same name, different content: the stale trie is unreachable.
        let (a, b) = (rel(1, 8), rel(2, 8));
        let cache = TrieCache::unbounded();
        cache.insert("G", a.fingerprint(), &[0, 1], arc_trie(&a));
        assert!(cache
            .lookup("G", b.fingerprint(), &[0, 1])
            .unwrap()
            .is_none());
    }

    #[test]
    fn distinct_perms_are_distinct_entries() {
        let cache = TrieCache::unbounded();
        let r = rel(3, 8);
        let fp = r.fingerprint();
        cache.insert("G", fp, &[0, 1], arc_trie(&r));
        assert!(cache.lookup("G", fp, &[1, 0]).unwrap().is_none());
    }

    #[test]
    fn insert_race_keeps_first_writer_and_accounting_balances() {
        let cache = TrieCache::unbounded();
        let r = rel(5, 32);
        let fp = r.fingerprint();
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
        assert_eq!(cache.bytes(), winners[0].bytes(), "no double count");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn preload_and_entries_round_trip_through_a_store() {
        let r = rel(6, 8);
        let fp = r.fingerprint();
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

    /// `bytes()` sums what the cache holds at every step of an entry's
    /// life: built, saved and preloaded, first-touched, joined by a view,
    /// superseded.
    #[test]
    fn bytes_sum_the_entries_held_at_every_step() {
        let (g, h) = (rel(7, 40), rel(8, 12));
        let (fg, fh) = (g.fingerprint(), h.fingerprint());
        let built = [
            ("G", fg, vec![0, 1], arc_trie(&g)),
            ("G", fg, vec![1, 0], arc_trie(&g.permute(&[1, 0]))),
            ("H", fh, vec![0, 1], arc_trie(&h)),
        ];
        let producer = TrieCache::unbounded();
        for (name, fp, perm, trie) in &built {
            producer.insert(name, *fp, perm, Arc::clone(trie));
        }
        let resident = |i: usize| built[i].3.bytes();
        assert_eq!(producer.bytes(), (0..3).map(resident).sum::<u64>());
        assert_eq!(producer.len(), 3);

        let mut saved = StoredCatalog::new();
        for t in producer.entries() {
            saved.insert_stored_trie(t);
        }
        let saved = StoredCatalog::from_bytes(&saved.to_bytes()).expect("round trip");
        let stored = |i: usize| {
            let (name, fp, perm, _) = &built[i];
            let mut saved = saved.tries().iter();
            let t = saved.find(|t| t.name == *name && t.fingerprint == *fp && t.perm == *perm);
            t.expect("saved").stored_bytes()
        };
        assert_ne!(stored(0), resident(0), "the two sizes tell apart");
        let cache = TrieCache::unbounded();
        cache.preload(&saved);
        assert_eq!(cache.bytes(), (0..3).map(stored).sum::<u64>());
        assert_eq!(cache.len(), 3);

        assert!(cache.lookup("G", fg, &[0, 1]).unwrap().is_some());
        assert_eq!(cache.bytes(), resident(0) + stored(1) + stored(2));
        assert_eq!(cache.len(), 3);

        let inserts = Relation::from_pairs(vec![(999, 1)]);
        let none = Relation::new(2).unwrap();
        let view = Arc::new(MergedView::build(Some(&built[0].3), &inserts, &none));
        let key = [fg, inserts.fingerprint(), none.fingerprint()];
        cache.publish_view("G", &[0, 1], key, Arc::clone(&view));
        let held = resident(0) + stored(1) + stored(2) + view.bytes();
        assert_eq!(cache.bytes(), held);
        assert_eq!(cache.len(), 4);

        cache.supersede("G", fg.wrapping_add(1));
        assert_eq!(cache.bytes(), stored(2), "only H is left");
        assert_eq!(cache.len(), 1);
    }
}
