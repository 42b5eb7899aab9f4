//! Cursor factories for the generic join drivers: the frozen
//! [`TrieSet`] path and the delta-merged [`MergeSet`] path behind one
//! [`CursorSet`] trait.
//!
//! Every driver in this crate walks its atoms through the
//! [`JoinCursor`] trait; a `CursorSet` is what hands those cursors out.
//! [`TrieSet`] yields plain [`TrieCursor`]s (so queries over frozen
//! relations monomorphize to exactly the pre-delta code), while
//! [`MergeSet`] yields [`MergeCursor`]s over a [`MergedView`] per mutated
//! relation: the cached base trie plus a patch holding what the delta
//! changed, walked with the frozen cursor's own slice arithmetic.

use std::collections::HashMap;
use std::sync::Arc;

use triejax_exec::WorkerPool;
use triejax_query::CompiledQuery;
use triejax_relation::{
    JoinCursor, MergeCursor, MergedView, Relation, RelationDelta, Trie, TrieCursor, Value,
};

use crate::catalog::{build_one, resolve, Served};
use crate::triecache::TrieCache;
use crate::{Catalog, JoinError, TrieSet};

/// The pending mutations of a catalog, keyed by relation name. Relations
/// without an entry (or with an [empty](RelationDelta::is_empty) one) are
/// served straight from their frozen base tries.
///
/// Every trie engine's `run_tallied_with` accepts one of these next to
/// the frozen [`Catalog`]; [`crate::Session`] maintains one per epoch and
/// threads it through automatically.
pub type DeltaMap = HashMap<String, RelationDelta>;

/// A factory of positioned join cursors, one per atom plan — the
/// abstraction that lets every engine run unmodified over frozen *or*
/// mutated relations.
///
/// The lifetime ties the handed-out cursors to the set: shard workers
/// share one `&'a` set and each builds its own cursors from it.
pub(crate) trait CursorSet<'a>: Sync {
    /// The cursor implementation this set hands out.
    type Cur: JoinCursor + Send + 'a;

    /// A fresh above-the-root cursor over atom plan `atom`'s view.
    fn cursor(&'a self, atom: usize) -> Self::Cur;

    /// The root-level keys of atom `atom`'s view, for shard planning.
    fn root_values(&'a self, atom: usize) -> &'a [Value];
}

impl<'a> CursorSet<'a> for TrieSet {
    type Cur = TrieCursor<'a>;

    fn cursor(&'a self, atom: usize) -> TrieCursor<'a> {
        TrieCursor::new(self.for_atom(atom))
    }

    fn root_values(&'a self, atom: usize) -> &'a [Value] {
        self.for_atom(atom).level(0).values()
    }
}

/// What one atom reads: a base relation under its real name and the delta
/// pending over it. `variant` tells apart different deltas over one
/// relation inside one [`ViewMemo`]: [`CURRENT`](Self::CURRENT) is the
/// relation as the session holds it, whose views are worth sharing through
/// the cache; anything else tags a delta private to one evaluation (the
/// rows a batch added, in a standing query's terms).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AtomSource<'a> {
    pub(crate) name: &'a str,
    pub(crate) base: &'a Relation,
    pub(crate) delta: Option<&'a RelationDelta>,
    pub(crate) variant: u8,
}

impl AtomSource<'_> {
    /// The variant of a relation's current base and pending delta.
    pub(crate) const CURRENT: u8 = 0;
}

/// One `(relation, variant, perm)` view: the frozen base trie (absent for
/// an empty base) and the patch over it.
#[derive(Debug)]
pub(crate) struct PatchedBase {
    base: Option<Arc<Trie>>,
    view: Arc<MergedView>,
}

/// The views already assembled, by `(relation name, variant, column
/// permutation)`: what deduplicates the atoms of one plan like a
/// [`TrieSet`], and lets the terms of one standing-query evaluation share
/// their views.
pub(crate) type ViewMemo = HashMap<(String, u8, Vec<usize>), Arc<PatchedBase>>;

/// The views one compiled query needs to run over mutated relations, one
/// per atom plan (atoms reading the same `(relation, variant, perm)` share
/// theirs).
///
/// Base tries are cached/served under the base relation's fingerprint
/// exactly as in [`TrieSet::build_on`]. A view is built from the base trie
/// and the delta's rows permuted into the atom's column order — work
/// proportional to what the delta touches — and the view of a relation's
/// current state is shared through the cache's latest-view slot, when
/// there is a cache, for as long as base and delta stay what they were.
#[derive(Debug)]
pub(crate) struct MergeSet {
    atom_views: Vec<Arc<PatchedBase>>,
}

impl MergeSet {
    /// Builds every view the plan needs, sequentially on the caller's
    /// thread and without cache consultation.
    pub(crate) fn build(
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: &DeltaMap,
    ) -> Result<MergeSet, JoinError> {
        let sources = current_sources(plan, catalog, deltas)?;
        Self::assemble(plan, &sources, None, None, &mut ViewMemo::new()).map(|(s, _)| s)
    }

    /// Builds every view with cold trie builds parallelized on `pool`,
    /// consulting (and filling) `cache` when one is given. Returns the
    /// set and what it cost: tries served from the cache, nanoseconds
    /// spent building tries and views, and first touches of store entries
    /// (mirroring [`TrieSet::build_on`]).
    pub(crate) fn build_on(
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: &DeltaMap,
        pool: &WorkerPool,
        cache: Option<&TrieCache>,
    ) -> Result<(MergeSet, Served), JoinError> {
        let sources = current_sources(plan, catalog, deltas)?;
        Self::assemble(plan, &sources, Some(pool), cache, &mut ViewMemo::new())
    }

    /// Assembles the set for `plan` whose atom `i` reads `sources[i]`,
    /// reusing and extending `memo`. Base tries go through `cache`, and so
    /// do [`CURRENT`](AtomSource::CURRENT) views; other variants stay
    /// private to the memo (a batch's own rows must not displace the
    /// epoch's view in the cache).
    pub(crate) fn assemble(
        plan: &CompiledQuery,
        sources: &[AtomSource<'_>],
        pool: Option<&WorkerPool>,
        cache: Option<&TrieCache>,
        memo: &mut ViewMemo,
    ) -> Result<(MergeSet, Served), JoinError> {
        let mut atom_views = Vec::with_capacity(sources.len());
        let mut served = Served::default();
        for (ap, src) in plan.atom_plans().iter().zip(sources) {
            let delta = src.delta.filter(|d| !d.is_empty());
            let arities = [Some(src.base.arity()), delta.map(RelationDelta::arity)];
            if let Some(&wrong) = arities.iter().flatten().find(|&&a| a != ap.arity()) {
                return Err(JoinError::ArityMismatch {
                    name: src.name.to_owned(),
                    atom_arity: ap.arity(),
                    relation_arity: wrong,
                });
            }
            let key = (src.name.to_owned(), src.variant, ap.perm().to_vec());
            if let Some(view) = memo.get(&key) {
                atom_views.push(Arc::clone(view));
                continue;
            }
            let perm = ap.perm();
            let base = (!src.base.is_empty())
                .then(|| serve(src, perm, pool, cache, &mut served))
                .transpose()?;
            let shared = cache
                .filter(|_| src.variant == AtomSource::CURRENT)
                .zip(delta)
                .map(|(c, d)| {
                    let parts = [src.base, d.inserts(), d.tombstones()];
                    (c, parts.map(Relation::fingerprint))
                });
            let view = match shared.and_then(|(c, key)| c.view(src.name, perm, key)) {
                Some(view) => view,
                None => {
                    let t0 = std::time::Instant::now();
                    let none = Relation::new(ap.arity()).expect("atom arity is nonzero");
                    let view = Arc::new(match delta {
                        Some(d) => MergedView::build(
                            base.as_deref(),
                            &d.inserts().permute(perm),
                            &d.tombstones().permute(perm),
                        ),
                        None => MergedView::build(base.as_deref(), &none, &none),
                    });
                    served.build_ns += t0.elapsed().as_nanos() as u64;
                    match shared {
                        Some((c, key)) => c.publish_view(src.name, perm, key, view),
                        None => view,
                    }
                }
            };
            let view = Arc::new(PatchedBase { base, view });
            memo.insert(key, Arc::clone(&view));
            atom_views.push(view);
        }
        Ok((MergeSet { atom_views }, served))
    }
}

/// Every atom of `plan` reading the catalog's relation of its name and the
/// delta pending over it, when there is one.
fn current_sources<'a>(
    plan: &'a CompiledQuery,
    catalog: &'a Catalog,
    deltas: &'a DeltaMap,
) -> Result<Vec<AtomSource<'a>>, JoinError> {
    let source = |ap: &'a triejax_query::AtomPlan| {
        Ok(AtomSource {
            name: ap.relation(),
            base: resolve(catalog, ap.relation(), ap.arity())?,
            delta: deltas.get(ap.relation()),
            variant: AtomSource::CURRENT,
        })
    };
    plan.atom_plans().iter().map(source).collect()
}

/// Serves the base trie of `src` in column order `perm` from the cache, or
/// builds it cold and publishes it under `(name, fingerprint, perm)`.
/// Without a cache nothing is hashed.
fn serve(
    src: &AtomSource<'_>,
    perm: &[usize],
    pool: Option<&WorkerPool>,
    cache: Option<&TrieCache>,
    served: &mut Served,
) -> Result<Arc<Trie>, JoinError> {
    if let Some(c) = cache {
        if let Some(t) = served.fetch(c, src.name, src.base.fingerprint(), perm)? {
            return Ok(t);
        }
    }
    let t0 = std::time::Instant::now();
    let built = Arc::new(build_one(src.base, perm, pool));
    served.build_ns += t0.elapsed().as_nanos() as u64;
    Ok(match cache {
        Some(c) => c.insert(src.name, src.base.fingerprint(), perm, built),
        None => built,
    })
}

impl<'a> CursorSet<'a> for MergeSet {
    type Cur = MergeCursor<'a>;

    fn cursor(&'a self, atom: usize) -> MergeCursor<'a> {
        let v = &self.atom_views[atom];
        MergeCursor::over(v.base.as_deref(), Arc::clone(&v.view))
    }

    fn root_values(&'a self, atom: usize) -> &'a [Value] {
        let v = &self.atom_views[atom];
        v.view.root_values(v.base.as_deref())
    }
}

/// `true` when any atom of the plan reads a relation with a non-empty
/// pending delta — the dispatch test between the frozen [`TrieSet`] fast
/// path and the [`MergeSet`] path.
pub(crate) fn plan_touches_delta(plan: &CompiledQuery, deltas: &DeltaMap) -> bool {
    plan.atom_plans()
        .iter()
        .any(|ap| deltas.get(ap.relation()).is_some_and(|d| !d.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_query::patterns;
    use triejax_relation::Counting;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert("G", Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1)]));
        c
    }

    fn delta_map(inserts: Vec<(u32, u32)>, deletes: Vec<(u32, u32)>) -> DeltaMap {
        let base = Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1)]);
        let d = RelationDelta::empty(2).unwrap().apply_batch(
            &base,
            &Relation::from_pairs(inserts),
            &Relation::from_pairs(deletes),
        );
        let mut m = DeltaMap::new();
        m.insert("G".to_owned(), d);
        m
    }

    #[test]
    fn views_are_deduplicated_like_trie_sets() {
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let set = MergeSet::build(&plan, &catalog(), &delta_map(vec![(5, 6)], vec![])).unwrap();
        let [xy, yz, zx] = &set.atom_views[..] else {
            panic!("three atoms");
        };
        assert!(Arc::ptr_eq(xy, yz), "both read the identity order");
        assert!(!Arc::ptr_eq(xy, zx), "the swapped order is its own view");
    }

    #[test]
    fn merged_root_values_union_both_sides() {
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let deltas = delta_map(vec![(0, 9), (5, 6)], vec![(2, 3)]);
        let set = MergeSet::build(&plan, &catalog(), &deltas).unwrap();
        // Inserted roots appear; root 2 lost its only tuple and is gone.
        assert_eq!(set.root_values(0), &[0, 1, 3, 5]);
    }

    #[test]
    fn empty_delta_map_serves_plain_base_views() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let deltas = DeltaMap::new();
        assert!(!plan_touches_delta(&plan, &deltas));
        let set = MergeSet::build(&plan, &catalog(), &deltas).unwrap();
        let mut cur = set.cursor(0);
        let mut c = Counting::default();
        assert!(cur.open(&mut c));
        assert_eq!(cur.key(), 1);
    }

    #[test]
    fn delta_only_views_have_no_base_trie() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut c = Catalog::new();
        c.insert("G", Relation::new(2).unwrap());
        let empty = Relation::new(2).unwrap();
        let d = RelationDelta::empty(2).unwrap().apply_batch(
            &empty,
            &Relation::from_pairs(vec![(4, 7)]),
            &empty,
        );
        let mut deltas = DeltaMap::new();
        deltas.insert("G".to_owned(), d);
        assert!(plan_touches_delta(&plan, &deltas));
        let set = MergeSet::build(&plan, &c, &deltas).unwrap();
        assert!(set.atom_views[0].base.is_none());
        assert_eq!(set.root_values(0), &[4]);
    }

    #[test]
    fn build_on_serves_base_tries_and_the_latest_view_from_the_cache() {
        let pool = WorkerPool::with_workers(2);
        let cache = TrieCache::unbounded();
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let deltas = delta_map(vec![(5, 6)], vec![]);
        let (cold, served) =
            MergeSet::build_on(&plan, &catalog(), &deltas, &pool, Some(&cache)).unwrap();
        assert_eq!(served.hits, 0);
        assert!(served.build_ns > 0);
        // Only the two base orders are tries; each also has its view.
        assert_eq!(cache.insertions(), 2);
        assert_eq!(cache.len(), 4);
        let (warm, served) =
            MergeSet::build_on(&plan, &catalog(), &deltas, &pool, Some(&cache)).unwrap();
        assert_eq!(served.hits, 2, "warm build is all lookups");
        assert_eq!(served.build_ns, 0);
        assert!(Arc::ptr_eq(
            &cold.atom_views[0].view,
            &warm.atom_views[0].view
        ));

        // The next epoch's views replace this one's: nothing accumulates.
        let next = delta_map(vec![(5, 6), (6, 7)], vec![(1, 2)]);
        let (set, served) =
            MergeSet::build_on(&plan, &catalog(), &next, &pool, Some(&cache)).unwrap();
        assert_eq!(served.hits, 2, "the base tries are still the base tries");
        assert!(!Arc::ptr_eq(
            &set.atom_views[0].view,
            &warm.atom_views[0].view
        ));
        assert_eq!((cache.insertions(), cache.len()), (2, 4));
    }

    #[test]
    fn private_views_share_the_memo_not_the_cache() {
        let cache = TrieCache::unbounded();
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let (catalog, deltas) = (catalog(), delta_map(vec![(5, 6)], vec![]));
        let mut sources = current_sources(&plan, &catalog, &deltas).unwrap();
        for src in &mut sources {
            src.variant = 1;
        }
        let memo = &mut ViewMemo::new();
        let (a, ..) = MergeSet::assemble(&plan, &sources, None, Some(&cache), memo).unwrap();
        let (b, ..) = MergeSet::assemble(&plan, &sources, None, Some(&cache), memo).unwrap();
        assert!(Arc::ptr_eq(&a.atom_views[2], &b.atom_views[2]));
        assert_eq!(cache.len(), 2, "base tries only");
    }

    #[test]
    fn a_delta_of_the_wrong_arity_is_an_error_not_a_panic() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let triples = Relation::from_tuples(3, vec![[1u32, 2, 3]]).unwrap();
        let d = RelationDelta::empty(3).unwrap().apply_batch(
            &Relation::new(3).unwrap(),
            &triples,
            &Relation::new(3).unwrap(),
        );
        let deltas = DeltaMap::from([("G".to_owned(), d)]);
        let err = MergeSet::build(&plan, &catalog(), &deltas).unwrap_err();
        assert!(matches!(err, JoinError::ArityMismatch { .. }));
    }

    #[test]
    fn missing_relation_still_errors() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let err = MergeSet::build(&plan, &Catalog::new(), &DeltaMap::new()).unwrap_err();
        assert!(matches!(err, JoinError::MissingRelation { .. }));
    }
}
