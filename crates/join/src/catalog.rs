use std::collections::HashMap;
use std::sync::Arc;

use triejax_exec::WorkerPool;
use triejax_query::CompiledQuery;
use triejax_relation::{AddressSpace, Relation, Tally, Trie};

use crate::stats::EngineStats;
use crate::triecache::{TrieCache, TrieLoad};
use crate::JoinError;

/// A named collection of base relations (the "database").
///
/// Graph pattern queries typically register a single edge relation `G`, and
/// every atom of a query self-joins it.
///
/// # Example
///
/// ```
/// use triejax_join::Catalog;
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(1, 2), (2, 3)]));
/// assert!(catalog.get("G").is_some());
/// assert_eq!(catalog.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: HashMap<String, Relation>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a relation under `name`.
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations.insert(name.into(), relation);
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Iterates over `(name, relation)` pairs in unspecified order
    /// (snapshotting into a persistent store, listing, diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> + '_ {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Returns `true` when no relations are registered.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// The tries required by one compiled query, deduplicated by
/// `(relation name, column permutation)`.
///
/// Distinct atoms over the same relation and attribute order share one trie
/// (e.g. all three atoms of `cycle3` over `G` use just the `(0,1)`-order and
/// `(1,0)`-order tries). [`TrieSet::for_atom`] maps an atom-plan index to
/// its trie.
#[derive(Debug, Clone)]
pub struct TrieSet {
    /// Shared so the cross-query [`TrieCache`] and every concurrent query
    /// can hold the same built trie without copying it.
    tries: Vec<Arc<Trie>>,
    atom_trie: Vec<usize>,
}

/// One deduplicated trie the plan needs but the cache could not serve.
struct PendingBuild<'a> {
    /// Index into `TrieSet::tries` this build fills.
    slot: usize,
    rel: &'a Relation,
    name: &'a str,
    perm: &'a [usize],
    /// Base-relation fingerprint, present when the built trie should be
    /// published to the cache afterwards.
    fingerprint: Option<u64>,
}

impl TrieSet {
    /// Builds (or reuses) every trie the plan needs from `catalog`,
    /// sequentially on the caller's thread.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::MissingRelation`] or [`JoinError::ArityMismatch`]
    /// when the catalog does not satisfy the query's schema.
    pub fn build(plan: &CompiledQuery, catalog: &Catalog) -> Result<TrieSet, JoinError> {
        let mut keys: HashMap<(String, Vec<usize>), usize> = HashMap::new();
        let mut tries = Vec::new();
        let mut atom_trie = Vec::with_capacity(plan.atom_plans().len());
        for ap in plan.atom_plans() {
            let rel = resolve(catalog, ap.relation(), ap.arity())?;
            let key = (ap.relation().to_owned(), ap.perm().to_vec());
            let idx = match keys.get(&key) {
                Some(&i) => i,
                None => {
                    tries.push(Arc::new(build_in_order(rel, ap.perm(), None)));
                    keys.insert(key, tries.len() - 1);
                    tries.len() - 1
                }
            };
            atom_trie.push(idx);
        }
        Ok(TrieSet { tries, atom_trie })
    }

    /// Builds every trie the plan needs with the cold work scheduled on
    /// `pool`, consulting (and filling) the cross-query `cache` when one
    /// is given. Returns the trie set, the number of tries served from
    /// the cache, and the nanoseconds spent on cold builds — exactly `0`
    /// when every trie was served (the "zero trie builds" acceptance
    /// signal for store-backed serving).
    ///
    /// Each distinct `(relation, perm)` that misses the cache is one unit
    /// of cold work: when several miss, they run as independent pool tasks
    /// (inter-trie parallelism); a single miss instead runs on the caller
    /// with the chunk-parallel permute ([`Relation::permute_on`]) and
    /// partitioned build ([`Trie::par_build`]) so the pool is never idle
    /// either way. Both paths produce tries byte-identical to
    /// [`TrieSet::build`]'s, and cache publication is first-writer-wins:
    /// on a race the sibling's [`Arc`] is adopted and the duplicate build
    /// discarded.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::MissingRelation`] or [`JoinError::ArityMismatch`]
    /// when the catalog does not satisfy the query's schema, and
    /// [`JoinError::Store`] when a trie preloaded from a store fails the
    /// check of its first touch.
    pub fn build_on(
        plan: &CompiledQuery,
        catalog: &Catalog,
        pool: &WorkerPool,
        cache: Option<&TrieCache>,
    ) -> Result<(TrieSet, u64, u64), JoinError> {
        let (set, served) = TrieSet::serve_on(plan, catalog, pool, cache)?;
        Ok((set, served.hits, served.build_ns))
    }

    /// [`TrieSet::build_on`], reporting everything fetching the tries
    /// cost, first touches of store entries included.
    pub(crate) fn serve_on(
        plan: &CompiledQuery,
        catalog: &Catalog,
        pool: &WorkerPool,
        cache: Option<&TrieCache>,
    ) -> Result<(TrieSet, Served), JoinError> {
        let mut keys: HashMap<(String, Vec<usize>), usize> = HashMap::new();
        let mut slots: Vec<Option<Arc<Trie>>> = Vec::new();
        let mut pending: Vec<PendingBuild<'_>> = Vec::new();
        let mut atom_trie = Vec::with_capacity(plan.atom_plans().len());
        let mut fingerprints: HashMap<&str, u64> = HashMap::new();
        let mut served = Served::default();
        for ap in plan.atom_plans() {
            let rel = resolve(catalog, ap.relation(), ap.arity())?;
            let key = (ap.relation().to_owned(), ap.perm().to_vec());
            let idx = match keys.get(&key) {
                Some(&i) => i,
                None => {
                    let i = slots.len();
                    let mut hit = None;
                    let mut fingerprint = None;
                    if let Some(c) = cache {
                        let fp = *fingerprints
                            .entry(ap.relation())
                            .or_insert_with(|| rel.fingerprint());
                        match served.fetch(c, ap.relation(), fp, ap.perm())? {
                            Some(t) => hit = Some(t),
                            None => fingerprint = Some(fp),
                        }
                    }
                    if hit.is_none() {
                        pending.push(PendingBuild {
                            slot: i,
                            rel,
                            name: ap.relation(),
                            perm: ap.perm(),
                            fingerprint,
                        });
                    }
                    slots.push(hit);
                    keys.insert(key, i);
                    i
                }
            };
            atom_trie.push(idx);
        }
        // Cold builds: many misses become independent pool tasks; a lone
        // miss parallelizes *within* the build instead, and so does every
        // miss on a one-worker pool, which has no second thread to give.
        // Only this section is timed, so a fully-served query reports
        // build_ns == 0.
        let build_t0 = (!pending.is_empty()).then(std::time::Instant::now);
        let built: Vec<Trie> = if pending.len() > 1 && pool.workers() > 1 {
            let (tries, _stats) =
                pool.run(&pending, |_ctx, _lane, pb| build_one(pb.rel, pb.perm, None));
            tries
        } else {
            let build = |pb: &PendingBuild<'_>| build_one(pb.rel, pb.perm, Some(pool));
            pending.iter().map(build).collect()
        };
        served.build_ns = build_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        for (pb, trie) in pending.iter().zip(built) {
            let trie = Arc::new(trie);
            let published = match (cache, pb.fingerprint) {
                (Some(c), Some(fp)) => c.insert(pb.name, fp, pb.perm, trie),
                _ => trie,
            };
            slots[pb.slot] = Some(published);
        }
        let tries = slots
            .into_iter()
            .map(|s| s.expect("every slot is served or built"))
            .collect();
        Ok((TrieSet { tries, atom_trie }, served))
    }

    /// The trie backing atom-plan `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn for_atom(&self, i: usize) -> &Trie {
        self.tries[self.atom_trie[i]].as_ref()
    }

    /// The deduplicated tries.
    pub fn tries(&self) -> &[Arc<Trie>] {
        &self.tries
    }

    /// Assigns simulated addresses to every trie (for cycle-level
    /// simulation); returns the total index footprint in bytes.
    ///
    /// Tries shared with a cache (or another query) are copied on write
    /// first, so simulated placement never mutates a cached trie.
    pub fn assign_addresses(&mut self, asp: &mut AddressSpace) -> u64 {
        let mut total = 0;
        for t in &mut self.tries {
            Arc::make_mut(t).assign_addresses(asp);
            total += t.bytes();
        }
        total
    }
}

/// Looks up `name` in the catalog and checks its arity against the atom's.
pub(crate) fn resolve<'a>(
    catalog: &'a Catalog,
    name: &str,
    arity: usize,
) -> Result<&'a Relation, JoinError> {
    let rel = catalog
        .get(name)
        .ok_or_else(|| JoinError::MissingRelation {
            name: name.to_owned(),
        })?;
    if rel.arity() != arity {
        return Err(JoinError::ArityMismatch {
            name: name.to_owned(),
            atom_arity: arity,
            relation_arity: rel.arity(),
        });
    }
    Ok(rel)
}

/// What fetching a query's tries cost: tries served from the trie cache,
/// nanoseconds of cold builds, and the first touches of store entries
/// among the served ones.
#[derive(Debug, Default)]
pub(crate) struct Served {
    pub(crate) hits: u64,
    pub(crate) build_ns: u64,
    pub(crate) load: TrieLoad,
}

impl Served {
    /// Looks `(name, fingerprint, perm)` up in `cache`, counting a hit and
    /// any first touch; a stored entry that fails its check fails the
    /// query.
    pub(crate) fn fetch(
        &mut self,
        cache: &TrieCache,
        name: &str,
        fingerprint: u64,
        perm: &[usize],
    ) -> Result<Option<Arc<Trie>>, JoinError> {
        let found = cache
            .fetch(name, fingerprint, perm, &mut self.load)
            .map_err(|error| JoinError::Store {
                relation: name.to_owned(),
                perm: perm.to_vec(),
                error,
            })?;
        self.hits += u64::from(found.is_some());
        Ok(found)
    }

    /// Records the cost in a run's stats.
    pub(crate) fn stamp<T: Tally>(&self, stats: &mut EngineStats<T>) {
        stats.trie_cache_hits = self.hits;
        stats.trie_build_ns = self.build_ns;
        stats.trie_load_ns = self.load.ns;
        stats.store_entries_verified = self.load.entries;
    }
}

/// One cold trie build: [`build_in_order`], announced to the fault
/// injector.
pub(crate) fn build_one(rel: &Relation, perm: &[usize], pool: Option<&WorkerPool>) -> Trie {
    #[cfg(feature = "faults")]
    triejax_exec::faults::fire(triejax_exec::faults::FaultEvent::TrieBuild);
    build_in_order(rel, perm, pool)
}

/// Builds the trie of `rel` in the attribute order `perm`. The identity
/// order is built in place: a relation is already sorted and
/// duplicate-free, so it is its own trie order and nothing is copied.
/// Any other order is permuted first. With a pool the permute chunk-sorts
/// and the build partitions by root key; without one both run sequentially
/// (the per-task body when many builds already share the pool).
fn build_in_order(rel: &Relation, perm: &[usize], pool: Option<&WorkerPool>) -> Trie {
    let identity = perm.len() == rel.arity() && perm.iter().enumerate().all(|(i, &p)| i == p);
    match (pool, identity) {
        (Some(p), true) => Trie::par_build(rel, p),
        (None, true) => Trie::build(rel),
        (Some(p), false) => Trie::par_build(&rel.permute_on(perm, p), p),
        (None, false) => Trie::build(&rel.permute(perm)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_query::patterns;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert("G", Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1)]));
        c
    }

    #[test]
    fn tries_are_deduplicated_across_atoms() {
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let ts = TrieSet::build(&plan, &catalog()).unwrap();
        // G(x,y) and G(y,z) share the identity-order trie; G(z,x) needs the
        // swapped order: two distinct tries for three atoms.
        assert_eq!(ts.tries().len(), 2);
        assert_eq!(ts.atom_trie, [0, 0, 1]);
        assert!(std::ptr::eq(ts.for_atom(0), ts.for_atom(1)));
    }

    #[test]
    fn missing_relation_errors() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let err = TrieSet::build(&plan, &Catalog::new()).unwrap_err();
        assert!(matches!(err, JoinError::MissingRelation { .. }));
    }

    #[test]
    fn arity_mismatch_errors() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut c = Catalog::new();
        c.insert(
            "G",
            Relation::from_tuples(3, vec![vec![1u32, 2, 3]]).unwrap(),
        );
        let err = TrieSet::build(&plan, &c).unwrap_err();
        assert!(matches!(err, JoinError::ArityMismatch { .. }));
    }

    #[test]
    fn swapped_trie_indexes_reverse_columns() {
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let ts = TrieSet::build(&plan, &catalog()).unwrap();
        // The swapped trie stores (x, z) pairs of G(z, x): reversed edges.
        let rev = ts.for_atom(2);
        assert_eq!(rev.level(0).values(), &[1, 2, 3]);
        assert_eq!(rev.enumerate(), vec![vec![1, 3], vec![2, 1], vec![3, 2]]);
    }

    #[test]
    fn build_on_matches_sequential_build() {
        let pool = WorkerPool::with_workers(4);
        for p in [patterns::cycle3(), patterns::path4(), patterns::clique4()] {
            let plan = CompiledQuery::compile(&p).unwrap();
            let seq = TrieSet::build(&plan, &catalog()).unwrap();
            let (par, hits, build_ns) = TrieSet::build_on(&plan, &catalog(), &pool, None).unwrap();
            assert_eq!(hits, 0, "no cache, no hits");
            assert!(build_ns > 0, "cold builds report nonzero build time");
            assert_eq!(par.atom_trie, seq.atom_trie);
            assert_eq!(par.tries().len(), seq.tries().len());
            for (a, b) in par.tries().iter().zip(seq.tries()) {
                assert_eq!(a, b, "parallel build must be byte-identical");
            }
        }
    }

    #[test]
    fn identity_orders_build_in_place_byte_identically() {
        let rel = Relation::from_tuples(
            3,
            (0..60u32)
                .map(|i| vec![i % 7, i % 5, i % 11])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let pool = WorkerPool::with_workers(3);
        let identity = [0, 1, 2];
        let reference = Trie::build(&rel.permute(&identity));
        assert_eq!(build_one(&rel, &identity, None), reference);
        assert_eq!(build_one(&rel, &identity, Some(&pool)), reference);
        // Other orders still permute first.
        let swapped = [2, 0, 1];
        let reference = Trie::build(&rel.permute(&swapped));
        assert_eq!(build_one(&rel, &swapped, None), reference);
        assert_eq!(build_one(&rel, &swapped, Some(&pool)), reference);
    }

    #[test]
    fn build_on_serves_and_fills_the_cache() {
        let pool = WorkerPool::with_workers(2);
        let cache = TrieCache::unbounded();
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let (cold, hits, _) = TrieSet::build_on(&plan, &catalog(), &pool, Some(&cache)).unwrap();
        assert_eq!(hits, 0);
        assert_eq!(cache.insertions(), 2, "both distinct tries published");
        let (warm, hits, build_ns) =
            TrieSet::build_on(&plan, &catalog(), &pool, Some(&cache)).unwrap();
        assert_eq!(hits, 2, "warm build is all lookups");
        assert_eq!(build_ns, 0, "a fully-served query does zero build work");
        for (a, b) in warm.tries().iter().zip(cold.tries()) {
            assert!(Arc::ptr_eq(a, b), "warm query adopts the cached Arc");
        }
        // A changed relation under the same name misses by fingerprint.
        let mut changed = Catalog::new();
        changed.insert("G", Relation::from_pairs(vec![(9, 8), (8, 7), (7, 9)]));
        let (_, hits, _) = TrieSet::build_on(&plan, &changed, &pool, Some(&cache)).unwrap();
        assert_eq!(hits, 0, "stale tries are unreachable by fingerprint");
    }

    #[test]
    fn build_on_propagates_schema_errors() {
        let pool = WorkerPool::with_workers(2);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let err = TrieSet::build_on(&plan, &Catalog::new(), &pool, None).unwrap_err();
        assert!(matches!(err, JoinError::MissingRelation { .. }));
    }

    #[test]
    fn assign_addresses_returns_footprint() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut ts = TrieSet::build(&plan, &catalog()).unwrap();
        let mut asp = AddressSpace::new();
        let bytes = ts.assign_addresses(&mut asp);
        assert_eq!(bytes, ts.tries().iter().map(|t| t.bytes()).sum::<u64>());
        assert!(asp.used() > 0x1000);
    }
}
