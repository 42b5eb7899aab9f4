use triejax_exec::{Budget, NoBudget};
use triejax_query::CompiledQuery;
use triejax_relation::{AccessKind, Counting, Tally, Trie, Value, WORD_BYTES};

use crate::engine::head_order;
use crate::intersect::intersect_sorted;
use crate::sink::BatchEmitter;
use crate::viewset::{merged_catalog, plan_touches_delta};
use crate::{Catalog, DeltaMap, EngineStats, JoinEngine, JoinError, ResultSink, TrieSet};

/// Generic Join in the EmptyHeaded style (Aberger et al., SIGMOD'16): a
/// worst-case-optimal join that materializes, per variable, the
/// intersection of all participating candidate sets before descending.
///
/// EmptyHeaded vectorizes these intersections with SIMD; the software model
/// here uses galloping intersections and counts each materialized candidate
/// as an intermediate value (the buffers EmptyHeaded allocates per level).
/// Its memory-access totals therefore land *between* CTJ and the pairwise
/// engines, as in paper Figure 17.
///
/// Candidate buffers are allocated once per depth and reused across every
/// visit, so the kernel does no per-node allocation; with
/// [`triejax_relation::NoTally`] (via [`GenericJoin::run_tallied`]) the
/// access instrumentation also compiles away.
///
/// # Example
///
/// ```
/// use triejax_join::{Catalog, CountSink, GenericJoin, JoinEngine};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]));
/// let plan = CompiledQuery::compile(&patterns::cycle3())?;
/// let mut sink = CountSink::default();
/// GenericJoin::default().execute(&plan, &catalog, &mut sink)?;
/// assert_eq!(sink.count(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GenericJoin {
    _private: (),
}

impl GenericJoin {
    /// Creates the engine; identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the query with an explicit [`Tally`] choice; see
    /// [`crate::Lftj::run_tallied`] for the counting/fast trade-off.
    ///
    /// # Errors
    ///
    /// Returns a [`JoinError`] when the catalog is missing a relation or a
    /// relation's arity mismatches its atom.
    pub fn run_tallied<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        let tries = TrieSet::build(plan, catalog)?;
        let mut driver = GjDriver::budgeted(plan, &tries, NoBudget)?;
        driver.level(0, sink);
        driver.emitter.flush(sink);
        Ok(driver.stats)
    }

    /// Runs the query with the pending mutations in `deltas` folded in.
    /// Generic Join reads raw trie level slices rather than cursors, so a
    /// delta-touching plan materializes each mutated relation's merged
    /// view (`base ∪ inserts − tombstones`) and builds fresh tries over
    /// it — correct but not incremental, the documented trade-off of this
    /// engine. When no atom of the plan touches a non-empty delta this is
    /// exactly [`run_tallied`](Self::run_tallied).
    ///
    /// # Errors
    ///
    /// As [`run_tallied`](Self::run_tallied), plus an arity mismatch
    /// between a delta and its atom (`merge_into` panics on mismatched
    /// arity, so the mismatch is reported before merging).
    pub fn run_tallied_with<T: Tally>(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        deltas: &DeltaMap,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats<T>, JoinError> {
        if !plan_touches_delta(plan, deltas) {
            return self.run_tallied(plan, catalog, sink);
        }
        // Same validation the MergeSet engines perform per atom, so the
        // two delta paths fail identically on malformed input.
        for ap in plan.atom_plans() {
            if let Some(d) = deltas.get(ap.relation()).filter(|d| !d.is_empty()) {
                if d.arity() != ap.arity() {
                    return Err(JoinError::ArityMismatch {
                        name: ap.relation().to_owned(),
                        atom_arity: ap.arity(),
                        relation_arity: d.arity(),
                    });
                }
            }
        }
        let merged = merged_catalog(catalog, deltas);
        self.run_tallied(plan, &merged, sink)
    }
}

impl JoinEngine for GenericJoin {
    fn name(&self) -> &'static str {
        "generic-join"
    }

    fn execute(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats, JoinError> {
        self.run_tallied::<Counting>(plan, catalog, sink)
    }
}

/// The Generic Join backtracking driver, generic over a [`Budget`] like
/// the LFTJ/CTJ drivers: [`NoBudget`] compiles governance away; a
/// [`triejax_exec::BudgetHandle`] polls the root loop, charges rows at
/// emission, and charges every materialized candidate buffer against the
/// intermediate budget.
struct GjDriver<'a, T: Tally, B: Budget = NoBudget> {
    plan: &'a CompiledQuery,
    tries: &'a TrieSet,
    /// Per atom: stack of open ranges, one per bound trie level.
    ranges: Vec<Vec<(usize, usize)>>,
    /// Per depth: reusable candidate buffer (the EmptyHeaded per-level
    /// intersection output), allocated once and recycled across visits.
    candidates: Vec<Vec<Value>>,
    /// Per depth: reusable scratch buffer the multiway intersection
    /// ping-pongs with.
    scratch: Vec<Vec<Value>>,
    /// Per depth: reusable participant-ordering scratch.
    order: Vec<Vec<usize>>,
    /// Per depth: reusable list of atoms whose child range was pushed.
    pushed: Vec<Vec<usize>>,
    /// Per depth: last hit position per participant, the galloping-search
    /// start point (candidates ascend within a level visit, so each
    /// participant's matches are found at monotonically increasing
    /// positions).
    hints: Vec<Vec<usize>>,
    binding: Vec<Value>,
    emitter: BatchEmitter,
    budget: B,
    stats: EngineStats<T>,
}

impl<'a, T: Tally, B: Budget> GjDriver<'a, T, B> {
    fn budgeted(plan: &'a CompiledQuery, tries: &'a TrieSet, budget: B) -> Result<Self, JoinError> {
        Ok(GjDriver {
            plan,
            tries,
            ranges: vec![Vec::new(); plan.atom_plans().len()],
            candidates: vec![Vec::new(); plan.arity()],
            scratch: vec![Vec::new(); plan.arity()],
            order: vec![Vec::new(); plan.arity()],
            pushed: vec![Vec::new(); plan.arity()],
            hints: vec![Vec::new(); plan.arity()],
            binding: vec![0; plan.arity()],
            emitter: BatchEmitter::new(head_order(plan)?),
            budget,
            stats: EngineStats::default(),
        })
    }

    /// Current candidate slice of atom `a` at trie level `lvl`.
    fn slice(&self, a: usize, lvl: usize) -> &'a [Value] {
        let trie: &'a Trie = self.tries.for_atom(a);
        let level = trie.level(lvl);
        let (lo, hi) = if lvl == 0 {
            (0, level.len())
        } else {
            *self.ranges[a].last().expect("parent level must be open")
        };
        &level.values()[lo..hi]
    }

    /// Emits the current binding; returns `false` when the budget refused
    /// the row and the driver must stop.
    fn emit_result(&mut self, sink: &mut dyn ResultSink) -> bool {
        if B::GOVERNED && !self.budget.charge_row() {
            return false;
        }
        self.emitter.push(&self.binding, sink);
        self.stats.results += 1;
        self.stats.access.record(
            AccessKind::ResultWrite,
            self.binding.len() as u64 * WORD_BYTES,
        );
        true
    }

    /// Returns `false` when the budget stopped the run at this level or
    /// below; range stacks are unwound normally either way.
    fn level(&mut self, d: usize, sink: &mut dyn ResultSink) -> bool {
        let parts: &'a [(usize, usize)] = self.plan.atoms_at(d);
        self.stats.match_ops += 1;

        // Candidate set: k-way intersection, smallest slice first, built
        // into this depth's reusable buffer.
        let mut acc = std::mem::take(&mut self.candidates[d]);
        let mut tmp = std::mem::take(&mut self.scratch[d]);
        let mut order = std::mem::take(&mut self.order[d]);
        order.clear();
        order.extend(0..parts.len());
        order.sort_by_key(|&i| self.slice(parts[i].0, parts[i].1).len());
        acc.clear();
        acc.extend_from_slice(self.slice(parts[order[0]].0, parts[order[0]].1));
        self.stats
            .access
            .record(AccessKind::IndexRead, acc.len() as u64 * WORD_BYTES);
        if parts.len() > 1 {
            for &i in &order[1..] {
                let next = self.slice(parts[i].0, parts[i].1);
                intersect_sorted(&acc, next, &mut tmp, &mut self.stats);
                std::mem::swap(&mut acc, &mut tmp);
                if acc.is_empty() {
                    break;
                }
            }
            // EmptyHeaded materializes the per-level candidate buffer.
            self.stats.intermediates += acc.len() as u64;
            self.stats
                .access
                .record(AccessKind::Intermediate, acc.len() as u64 * WORD_BYTES);
        }

        let mut live = true;
        if B::GOVERNED && parts.len() > 1 && !self.budget.charge_intermediates(acc.len() as u64) {
            // Memory budget exhausted by this candidate buffer: wind down
            // without descending into it.
            live = false;
        }
        let last = d + 1 == self.plan.arity();
        let mut pushed = std::mem::take(&mut self.pushed[d]);
        let mut hints = std::mem::take(&mut self.hints[d]);
        hints.clear();
        hints.resize(parts.len(), 0);
        if live {
            for &v in &acc {
                self.binding[d] = v;
                if d == 0 && B::GOVERNED && self.budget.poll().is_some() {
                    // Root-level advance: the budget poll point.
                    live = false;
                    break;
                }
                if last {
                    if !self.emit_result(sink) {
                        live = false;
                        break;
                    }
                    continue;
                }
                // Descend: locate v in every continuing participant and
                // push its child range.
                pushed.clear();
                for (pi, &(a, lvl)) in parts.iter().enumerate() {
                    if !self.plan.atom_plans()[a].continues_below(lvl) {
                        continue;
                    }
                    let level = self.tries.for_atom(a).level(lvl);
                    let (lo, hi) = if lvl == 0 {
                        (0, level.len())
                    } else {
                        *self.ranges[a].last().expect("parent level must be open")
                    };
                    let values = &level.values()[lo..hi];
                    let rel = gallop_search(values, hints[pi], v, &mut self.stats);
                    hints[pi] = rel;
                    let pos = lo + rel;
                    // Midwife-equivalent: read the child range pair.
                    self.stats.expand_ops += 1;
                    self.stats
                        .access
                        .record(AccessKind::IndexRead, 2 * WORD_BYTES);
                    self.ranges[a].push(level.child_range(pos));
                    pushed.push(a);
                }
                let descended = self.level(d + 1, sink);
                for &a in &pushed {
                    self.ranges[a].pop();
                }
                if !descended {
                    live = false;
                    break;
                }
            }
        }
        // Return the buffers (with their grown capacity) for the next
        // visit of this depth.
        self.candidates[d] = acc;
        self.scratch[d] = tmp;
        self.order[d] = order;
        self.pushed[d] = pushed;
        self.hints[d] = hints;
        live
    }
}

/// Galloping (exponential) search for an existing value, starting from a
/// previous hit position rather than restarting at 0: the candidates at one
/// depth ascend, so each participant's matches land at monotonically
/// increasing positions, usually close together. One `lub_op` per search;
/// every probed word is tallied so Counting-mode figures stay honest.
fn gallop_search<T: Tally>(
    values: &[Value],
    hint: usize,
    v: Value,
    stats: &mut EngineStats<T>,
) -> usize {
    stats.lub_ops += 1;
    stats.access.record(AccessKind::IndexRead, WORD_BYTES);
    if values[hint] >= v {
        debug_assert!(values[hint] == v, "value must exist");
        return hint;
    }
    // Invariant: values[lo] < v. Gallop to bracket the target, then binary
    // search the bracketed gap.
    let (mut lo, mut hi) = (hint, values.len());
    let mut step = 1usize;
    while lo + step < values.len() {
        stats.access.record(AccessKind::IndexRead, WORD_BYTES);
        if values[lo + step] < v {
            lo += step;
            step <<= 1;
        } else {
            hi = lo + step;
            break;
        }
    }
    let (mut l, mut h) = (lo + 1, hi);
    while l < h {
        let mid = l + (h - l) / 2;
        stats.access.record(AccessKind::IndexRead, WORD_BYTES);
        if values[mid] < v {
            l = mid + 1;
        } else {
            h = mid;
        }
    }
    debug_assert!(l < values.len() && values[l] == v, "value must exist");
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, CountSink, Lftj};
    use triejax_query::patterns::{self, Pattern};
    use triejax_relation::{NoTally, Relation};

    fn catalog(edges: &[(u32, u32)]) -> Catalog {
        let mut c = Catalog::new();
        c.insert("G", Relation::from_pairs(edges.to_vec()));
        c
    }

    fn test_edges() -> Vec<(u32, u32)> {
        vec![
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 1),
            (0, 2),
            (3, 0),
            (1, 3),
            (4, 1),
            (2, 4),
            (4, 0),
        ]
    }

    #[test]
    fn agrees_with_lftj_on_every_pattern() {
        let c = catalog(&test_edges());
        for p in Pattern::ALL {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut a = CollectSink::new();
            let mut b = CollectSink::new();
            Lftj::new().execute(&plan, &c, &mut a).unwrap();
            GenericJoin::new().execute(&plan, &c, &mut b).unwrap();
            assert_eq!(a.into_sorted(), b.into_sorted(), "{p}");
        }
    }

    #[test]
    fn multiway_intersections_materialize_candidates() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CountSink::default();
        let stats = GenericJoin::new().execute(&plan, &c, &mut sink).unwrap();
        assert!(stats.intermediates > 0);
        assert!(stats.match_ops > 0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let c = catalog(&[]);
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let mut sink = CountSink::default();
        let stats = GenericJoin::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn budgeted_driver_delivers_an_exact_row_limited_prefix() {
        use std::sync::Arc;
        use triejax_exec::{BudgetHandle, CancelReason, RunBudget};

        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut full = CollectSink::new();
        GenericJoin::new().execute(&plan, &c, &mut full).unwrap();
        assert!(full.tuples().len() > 2);

        let tries = TrieSet::build(&plan, &c).unwrap();
        let shared = Arc::new(RunBudget::new().with_row_limit(2));
        let mut capped = CollectSink::new();
        let mut driver = GjDriver::<Counting, BudgetHandle>::budgeted(
            &plan,
            &tries,
            BudgetHandle::driving(Arc::clone(&shared)),
        )
        .unwrap();
        driver.level(0, &mut capped);
        driver.emitter.flush(&mut capped);
        assert_eq!(capped.tuples(), &full.tuples()[..2]);
        assert_eq!(driver.stats.results, 2);
        assert_eq!(shared.cancelled(), Some(CancelReason::RowLimit));
    }

    #[test]
    fn gallop_search_counts_every_probe() {
        // 0..16 so probe sequences are hand-checkable.
        let values: Vec<Value> = (0..16).collect();
        // Hint is the target: the initial probe answers it.
        let mut stats = EngineStats::<Counting>::default();
        assert_eq!(gallop_search(&values, 0, 0, &mut stats), 0);
        assert_eq!((stats.lub_ops, stats.access.index_reads), (1, 1));
        // Cold search for 5: initial probe at 0, gallop probes at 1, 3, 7,
        // binary probes at 5 and 4 — exactly 6 tallied reads.
        let mut stats = EngineStats::<Counting>::default();
        assert_eq!(gallop_search(&values, 0, 5, &mut stats), 5);
        assert_eq!((stats.lub_ops, stats.access.index_reads), (1, 6));
        // Adjacent hint: probes at 5 and 6 only — a restart-from-0 binary
        // search would have paid log2(16).
        let mut stats = EngineStats::<Counting>::default();
        assert_eq!(gallop_search(&values, 5, 6, &mut stats), 6);
        assert_eq!((stats.lub_ops, stats.access.index_reads), (1, 2));
    }

    #[test]
    fn untallied_run_matches_counting_run() {
        let c = catalog(&test_edges());
        for p in [Pattern::Cycle3, Pattern::Path4, Pattern::Clique4] {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut counting = CollectSink::new();
            let cs = GenericJoin::new()
                .run_tallied::<Counting>(&plan, &c, &mut counting)
                .unwrap();
            let mut fast = CollectSink::new();
            let fs = GenericJoin::new()
                .run_tallied::<NoTally>(&plan, &c, &mut fast)
                .unwrap();
            assert_eq!(counting.tuples(), fast.tuples(), "{p}");
            assert_eq!(cs.intermediates, fs.intermediates, "{p}");
            assert_eq!(cs.lub_ops, fs.lub_ops, "{p}");
            assert_eq!(fs.memory_accesses(), 0);
        }
    }
}
