use crate::{Query, QueryError, VarId};

/// Execution plan for one body atom: which trie to build (relation name plus
/// column permutation) and which global depth each trie level binds.
///
/// LeapFrog TrieJoin requires every atom's trie attribute order to be
/// consistent with the global variable order; `perm` reorders the stored
/// relation's columns accordingly (paper Figure 2 shows the same table
/// indexed as both `T(z,w)` and `T(w,z)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomPlan {
    atom_index: usize,
    relation: String,
    perm: Vec<usize>,
    var_order: Vec<VarId>,
    depth_of_level: Vec<usize>,
}

impl AtomPlan {
    /// Index of the originating atom in [`Query::atoms`].
    pub fn atom_index(&self) -> usize {
        self.atom_index
    }

    /// Relation (table) name the trie is built from.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Column permutation: trie level `l` stores relation column `perm[l]`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Variable bound at each trie level.
    pub fn var_order(&self) -> &[VarId] {
        &self.var_order
    }

    /// Global evaluation depth of each trie level (strictly increasing).
    pub fn depth_of_level(&self) -> &[usize] {
        &self.depth_of_level
    }

    /// Arity of the atom's trie.
    pub fn arity(&self) -> usize {
        self.perm.len()
    }

    /// `true` if the trie has levels below `level` (its nodes have children
    /// to expand once `level` is matched).
    pub fn continues_below(&self, level: usize) -> bool {
        level + 1 < self.perm.len()
    }
}

/// One CTJ partial-join-result cache specification (paper §2.2.2).
///
/// At evaluation depth [`value_depth`](Self::value_depth), the set of
/// matching values depends only on the bindings at
/// [`key_depths`](Self::key_depths); CTJ therefore memoizes the match list
/// keyed by those bindings. A spec exists only when the key is a *strict*
/// subset of the bound prefix — otherwise every lookup key would be unique
/// and caching useless (cycle3, clique4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSpec {
    key_depths: Vec<usize>,
    value_depth: usize,
}

impl CacheSpec {
    /// Depths (positions in the variable order) whose bound values form the
    /// cache key, in ascending depth order.
    pub fn key_depths(&self) -> &[usize] {
        &self.key_depths
    }

    /// The depth whose match list is cached.
    pub fn value_depth(&self) -> usize {
        self.value_depth
    }
}

/// A compiled conjunctive query: the shared execution plan for every
/// software engine and for the TrieJax simulator.
///
/// # Example
///
/// ```
/// use triejax_query::{patterns, CompiledQuery};
///
/// let plan = CompiledQuery::compile(&patterns::path4())?;
/// assert_eq!(plan.arity(), 4);
/// // Two valid caches: z keyed by {y}, and w keyed by {z}.
/// assert_eq!(plan.cache_specs().len(), 2);
/// assert_eq!(plan.cache_specs()[0].key_depths(), &[1]);
/// assert_eq!(plan.cache_specs()[0].value_depth(), 2);
/// # Ok::<(), triejax_query::QueryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledQuery {
    query: Query,
    order: Vec<VarId>,
    depth_of_var: Vec<usize>,
    atom_plans: Vec<AtomPlan>,
    atoms_at: Vec<Vec<(usize, usize)>>,
    cache_specs: Vec<CacheSpec>,
    cache_at_depth: Vec<Option<usize>>,
}

impl CompiledQuery {
    /// Compiles `query` using its head order as the variable order (the
    /// order used throughout the paper's evaluation).
    ///
    /// For a projected query (see
    /// [`crate::QueryBuilder::build_projected`]) the non-head variables
    /// are appended to the order after the head, so the plan itself is
    /// well-formed; engines that cannot emit projected results reject it
    /// at execution time.
    ///
    /// # Errors
    ///
    /// Propagates [`QueryError::BadVariableOrder`] (impossible from this
    /// entry point) — see [`CompiledQuery::compile_with_order`].
    pub fn compile(query: &Query) -> Result<CompiledQuery, QueryError> {
        let mut order = query.head().to_vec();
        for v in 0..query.num_vars() {
            if !order.contains(&v) {
                order.push(v);
            }
        }
        CompiledQuery::compile_with_order(query, order)
    }

    /// Compiles `query` with an explicit variable order.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::BadVariableOrder`] if `order` is not a
    /// permutation of the query variables.
    pub fn compile_with_order(
        query: &Query,
        order: Vec<VarId>,
    ) -> Result<CompiledQuery, QueryError> {
        let n = query.num_vars();
        if order.len() != n {
            return Err(QueryError::BadVariableOrder);
        }
        let mut depth_of_var = vec![usize::MAX; n];
        for (d, &v) in order.iter().enumerate() {
            if v >= n || depth_of_var[v] != usize::MAX {
                return Err(QueryError::BadVariableOrder);
            }
            depth_of_var[v] = d;
        }

        // Per-atom trie plans: sort each atom's columns by global depth.
        let mut atom_plans = Vec::with_capacity(query.atoms().len());
        for (ai, atom) in query.atoms().iter().enumerate() {
            let mut cols: Vec<usize> = (0..atom.arity()).collect();
            cols.sort_by_key(|&c| depth_of_var[atom.vars()[c]]);
            let var_order: Vec<VarId> = cols.iter().map(|&c| atom.vars()[c]).collect();
            let depth_of_level: Vec<usize> = var_order.iter().map(|&v| depth_of_var[v]).collect();
            atom_plans.push(AtomPlan {
                atom_index: ai,
                relation: atom.relation().to_owned(),
                perm: cols,
                var_order,
                depth_of_level,
            });
        }

        // Participation lists per depth.
        let mut atoms_at: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (pi, plan) in atom_plans.iter().enumerate() {
            for (level, &d) in plan.depth_of_level.iter().enumerate() {
                atoms_at[d].push((pi, level));
            }
        }

        // CTJ cache-spec derivation (paper §2.2.2): the key of depth d is
        // every earlier depth whose variable shares an atom with any
        // variable at depth >= d. A spec is valid iff the key is a strict
        // subset of the bound prefix.
        let mut cache_specs = Vec::new();
        let mut cache_at_depth: Vec<Option<usize>> = vec![None; n];
        for (d, slot) in cache_at_depth.iter_mut().enumerate().skip(1) {
            let mut in_key = vec![false; n];
            for atom in query.atoms() {
                let touches_suffix = atom.vars().iter().any(|&v| depth_of_var[v] >= d);
                if touches_suffix {
                    for &v in atom.vars() {
                        let dv = depth_of_var[v];
                        if dv < d {
                            in_key[dv] = true;
                        }
                    }
                }
            }
            let key_depths: Vec<usize> = (0..d).filter(|&dd| in_key[dd]).collect();
            if key_depths.len() < d {
                *slot = Some(cache_specs.len());
                cache_specs.push(CacheSpec {
                    key_depths,
                    value_depth: d,
                });
            }
        }

        Ok(CompiledQuery {
            query: query.clone(),
            order,
            depth_of_var,
            atom_plans,
            atoms_at,
            cache_specs,
            cache_at_depth,
        })
    }

    /// The source query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Number of join variables (evaluation depths).
    pub fn arity(&self) -> usize {
        self.order.len()
    }

    /// The variable bound at each depth.
    pub fn order(&self) -> &[VarId] {
        &self.order
    }

    /// Depth at which each variable is bound (inverse of [`order`](Self::order)).
    pub fn depth_of_var(&self) -> &[usize] {
        &self.depth_of_var
    }

    /// Per-atom trie plans, in atom order.
    pub fn atom_plans(&self) -> &[AtomPlan] {
        &self.atom_plans
    }

    /// `(atom_plan_index, trie_level)` pairs participating at `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth >= self.arity()`.
    pub fn atoms_at(&self, depth: usize) -> &[(usize, usize)] {
        &self.atoms_at[depth]
    }

    /// All valid CTJ cache specifications, by ascending cached depth.
    pub fn cache_specs(&self) -> &[CacheSpec] {
        &self.cache_specs
    }

    /// The cache spec whose value is cached at `depth`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `depth >= self.arity()`.
    pub fn cache_spec_at(&self, depth: usize) -> Option<&CacheSpec> {
        self.cache_at_depth[depth].map(|i| &self.cache_specs[i])
    }

    /// Upper-bound estimate of the root variable's domain size, given a
    /// way to look up relation cardinalities (typically
    /// `|name| catalog.get(name).map(Relation::len)`).
    ///
    /// Every depth-0 participant's root level holds at most as many
    /// distinct values as its relation holds tuples, so the minimum over
    /// the participants bounds the domain the parallel engines shard.
    /// Returns `None` when no participating relation's cardinality is
    /// known.
    pub fn root_domain_estimate<F>(&self, cardinality: F) -> Option<usize>
    where
        F: Fn(&str) -> Option<usize>,
    {
        self.depth_domain_estimate(0, cardinality)
    }

    /// Upper-bound estimate of the domain of the variable bound at
    /// `depth`: every participating trie level holds at most as many
    /// distinct values as its relation holds tuples, so the minimum over
    /// the participants bounds the domain. Returns `None` when no
    /// participating relation's cardinality is known.
    ///
    /// # Panics
    ///
    /// Panics if `depth >= self.arity()`.
    pub fn depth_domain_estimate<F>(&self, depth: usize, cardinality: F) -> Option<usize>
    where
        F: Fn(&str) -> Option<usize>,
    {
        self.atoms_at(depth)
            .iter()
            .filter_map(|&(a, _)| cardinality(self.atom_plans[a].relation()))
            .min()
    }

    /// Upper-bound estimate of the number of live partial-join-result
    /// cache entries this plan can create: for each [`CacheSpec`], the
    /// distinct key bindings are bounded by the product of the key
    /// depths' domain estimates; the per-spec bounds sum (saturating).
    ///
    /// This is the plan-side capacity hint for the shared sharded PJR
    /// cache of the parallel CTJ engine: an unbounded cache pre-sizes its
    /// stripe tables from it, and operators picking a `--cache-cap` can
    /// compare against it. Returns `None` when the plan has no cache
    /// specs or some participating cardinality is unknown — callers fall
    /// back to not pre-sizing.
    pub fn cache_entries_estimate<F>(&self, cardinality: F) -> Option<usize>
    where
        F: Fn(&str) -> Option<usize>,
    {
        if self.cache_specs.is_empty() {
            return None;
        }
        let mut total = 0usize;
        for spec in &self.cache_specs {
            let mut keys = 1usize;
            for &kd in spec.key_depths() {
                keys = keys.saturating_mul(self.depth_domain_estimate(kd, &cardinality)?);
            }
            total = total.saturating_add(keys);
        }
        Some(total)
    }

    /// Suggested number of root-range shards for a parallel run over
    /// `workers` workers, given the (estimated or exact) root-domain size.
    ///
    /// The plan overshards by 4x so the work-stealing pool can rebalance a
    /// skewed root domain — a shard that turns out to carry the heavy
    /// hitters is one unit of work among many, not a worker's whole static
    /// partition (paper §3.4's dynamic spawn-on-match is the model).
    /// Clamped to the domain size; degenerate domains and single-worker
    /// pools get one shard (the sequential fast path).
    pub fn shard_granularity(&self, root_domain: usize, workers: usize) -> usize {
        const OVERSHARD: usize = 4;
        if workers <= 1 || root_domain <= 1 {
            return 1;
        }
        workers.saturating_mul(OVERSHARD).min(root_domain)
    }

    /// Human-readable plan summary (variable order plus cache specs).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let names: Vec<&str> = self.order.iter().map(|&v| self.query.var_name(v)).collect();
        let _ = write!(s, "order: {}", names.join(" -> "));
        for spec in &self.cache_specs {
            let keys: Vec<&str> = spec
                .key_depths
                .iter()
                .map(|&d| self.query.var_name(self.order[d]))
                .collect();
            let _ = write!(
                s,
                "; cache {} keyed by {{{}}}",
                self.query.var_name(self.order[spec.value_depth]),
                keys.join(",")
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;

    #[test]
    fn path3_cache_is_z_keyed_by_y() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        assert_eq!(plan.cache_specs().len(), 1);
        let spec = &plan.cache_specs()[0];
        assert_eq!(spec.key_depths(), &[1]);
        assert_eq!(spec.value_depth(), 2);
        assert_eq!(plan.cache_spec_at(2), Some(spec));
        assert_eq!(plan.cache_spec_at(1), None);
    }

    #[test]
    fn path4_caches_z_by_y_and_w_by_z() {
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let specs = plan.cache_specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].key_depths(), &[1]);
        assert_eq!(specs[0].value_depth(), 2);
        assert_eq!(specs[1].key_depths(), &[2]);
        assert_eq!(specs[1].value_depth(), 3);
    }

    #[test]
    fn cycle3_and_clique4_have_no_valid_cache() {
        // Matches the paper's §4.4: "for Cycle3 and Clique4 queries there
        // are no valid intermediate result caches".
        for q in [patterns::cycle3(), patterns::clique4()] {
            let plan = CompiledQuery::compile(&q).unwrap();
            assert!(plan.cache_specs().is_empty(), "{}", q.name());
        }
    }

    #[test]
    fn cycle4_caches_w_keyed_by_x_and_z() {
        let plan = CompiledQuery::compile(&patterns::cycle4()).unwrap();
        let specs = plan.cache_specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].key_depths(), &[0, 2]);
        assert_eq!(specs[0].value_depth(), 3);
    }

    #[test]
    fn atom_plans_reorder_columns_to_match_global_order() {
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        // Third atom is G(z,x): global order x(0) < z(2), so the trie must
        // store column 1 (x) first: perm = [1, 0].
        let t = &plan.atom_plans()[2];
        assert_eq!(t.perm(), &[1, 0]);
        assert_eq!(t.depth_of_level(), &[0, 2]);
        assert!(t.continues_below(0));
        assert!(!t.continues_below(1));
    }

    #[test]
    fn atoms_at_lists_participants_per_depth() {
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        // Depth 0 (x): G(x,y) level 0 and G(z,x) reindexed as (x,z) level 0.
        assert_eq!(plan.atoms_at(0), &[(0, 0), (2, 0)]);
        // Depth 1 (y): G(x,y) level 1 and G(y,z) level 0.
        assert_eq!(plan.atoms_at(1), &[(0, 1), (1, 0)]);
        assert_eq!(plan.atoms_at(2), &[(1, 1), (2, 1)]);
    }

    #[test]
    fn every_depth_has_at_least_one_participant() {
        for p in patterns::Pattern::ALL {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            for d in 0..plan.arity() {
                assert!(!plan.atoms_at(d).is_empty(), "{p} depth {d}");
            }
        }
    }

    #[test]
    fn custom_order_is_validated() {
        let q = patterns::path3();
        assert!(CompiledQuery::compile_with_order(&q, vec![0, 1]).is_err());
        assert!(CompiledQuery::compile_with_order(&q, vec![0, 1, 1]).is_err());
        assert!(CompiledQuery::compile_with_order(&q, vec![0, 1, 5]).is_err());
        let plan = CompiledQuery::compile_with_order(&q, vec![2, 1, 0]).unwrap();
        assert_eq!(plan.order(), &[2, 1, 0]);
        assert_eq!(plan.depth_of_var(), &[2, 1, 0]);
    }

    #[test]
    fn reverse_order_changes_cache_structure() {
        // path3 evaluated z -> y -> x caches x keyed by {y}.
        let plan = CompiledQuery::compile_with_order(&patterns::path3(), vec![2, 1, 0]).unwrap();
        assert_eq!(plan.cache_specs().len(), 1);
        assert_eq!(plan.cache_specs()[0].value_depth(), 2);
        assert_eq!(plan.cache_specs()[0].key_depths(), &[1]);
    }

    #[test]
    fn describe_mentions_order_and_caches() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let d = plan.describe();
        assert!(d.contains("x -> y -> z"));
        assert!(d.contains("cache z keyed by {y}"));
    }

    #[test]
    fn projected_query_compiles_with_non_head_vars_appended() {
        use crate::Query;
        let q = Query::builder("pairs")
            .head(["x", "z"])
            .atom("G", ["x", "y"])
            .atom("G", ["y", "z"])
            .build_projected()
            .unwrap();
        assert!(q.is_projection());
        let plan = CompiledQuery::compile(&q).unwrap();
        // Order is head (x, z) then the projected-away y.
        assert_eq!(plan.arity(), 3);
        assert_eq!(plan.order().len(), 3);
        assert_eq!(&plan.order()[..2], q.head());
    }

    #[test]
    fn root_domain_estimate_takes_the_smallest_participant() {
        use std::collections::HashMap;
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        // Every atom scans G; estimate = |G|.
        let cards = HashMap::from([("G".to_string(), 42usize)]);
        let est = plan.root_domain_estimate(|n| cards.get(n).copied());
        assert_eq!(est, Some(42));
        assert_eq!(plan.root_domain_estimate(|_| None), None);

        // Two-relation query: only depth-0 participants count.
        let q = crate::Query::builder("two")
            .head(["x", "y", "z"])
            .atom("R", ["x", "y"])
            .atom("S", ["y", "z"])
            .build()
            .unwrap();
        let plan = CompiledQuery::compile(&q).unwrap();
        let cards = HashMap::from([("R".to_string(), 10usize), ("S".to_string(), 3usize)]);
        // Depth 0 binds x: only R participates, so S's smaller cardinality
        // must not leak into the estimate.
        assert_eq!(
            plan.root_domain_estimate(|n| cards.get(n).copied()),
            Some(10)
        );
    }

    #[test]
    fn cache_entries_estimate_bounds_distinct_keys() {
        use std::collections::HashMap;
        let cards = HashMap::from([("G".to_string(), 42usize)]);
        let card = |n: &str| cards.get(n).copied();

        // path3: one spec keyed by {y}; y's domain is bounded by |G|.
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        assert_eq!(plan.depth_domain_estimate(1, card), Some(42));
        assert_eq!(plan.cache_entries_estimate(card), Some(42));

        // path4: two single-key specs sum.
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        assert_eq!(plan.cache_entries_estimate(card), Some(84));

        // cycle4: one spec keyed by {x, z} — the key domains multiply.
        let plan = CompiledQuery::compile(&patterns::cycle4()).unwrap();
        assert_eq!(plan.cache_entries_estimate(card), Some(42 * 42));

        // No valid specs (cycle3) or unknown cardinalities: no hint.
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        assert_eq!(plan.cache_entries_estimate(card), None);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        assert_eq!(plan.cache_entries_estimate(|_| None), None);

        // Huge cardinalities saturate instead of overflowing.
        let plan = CompiledQuery::compile(&patterns::cycle4()).unwrap();
        assert_eq!(
            plan.cache_entries_estimate(|_| Some(usize::MAX / 2)),
            Some(usize::MAX)
        );
    }

    #[test]
    fn shard_granularity_overshards_and_clamps() {
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        assert_eq!(plan.shard_granularity(1000, 4), 16, "4x oversharding");
        assert_eq!(plan.shard_granularity(10, 4), 10, "clamped to the domain");
        assert_eq!(plan.shard_granularity(1000, 1), 1, "one worker: sequential");
        assert_eq!(plan.shard_granularity(0, 8), 1);
        assert_eq!(plan.shard_granularity(1, 8), 1);
    }

    #[test]
    fn star3_caches_every_leaf_by_hub() {
        // star3(x,a,b,c): each of b and c depends only on x once bound.
        let plan = CompiledQuery::compile(&patterns::star3()).unwrap();
        assert!(!plan.cache_specs().is_empty());
        for spec in plan.cache_specs() {
            assert_eq!(spec.key_depths(), &[0], "keys must be the hub depth");
        }
    }
}
