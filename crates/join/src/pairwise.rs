use std::collections::HashMap;

use triejax_query::{CompiledQuery, VarId};
use triejax_relation::{AccessKind, Counting, Tally, Value, WORD_BYTES};

use crate::sink::BatchEmitter;
use crate::{Catalog, EngineStats, JoinEngine, JoinError, ResultSink};

/// Traditional left-deep binary hash-join plan — the join-algorithm class
/// of Q100 and of Graphicionado's message-passing pattern expansion
/// (paper §2.1).
///
/// Atoms are joined in query order; each binary join materializes a full
/// intermediate relation, which is exactly the intermediate-result
/// explosion the AGM bound exposes (paper Figure 18 and Appendix A). All
/// intermediate tuples are counted in [`EngineStats::intermediates`] and
/// their reads/writes in the access counter.
///
/// # Example
///
/// ```
/// use triejax_join::{Catalog, CountSink, JoinEngine, PairwiseHash};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]));
/// let plan = CompiledQuery::compile(&patterns::path4())?;
/// let mut sink = CountSink::default();
/// let stats = PairwiseHash::default().execute(&plan, &catalog, &mut sink)?;
/// assert!(stats.intermediates > 0); // pairwise always materializes
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PairwiseHash {
    _private: (),
}

impl PairwiseHash {
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
        let mut stats = EngineStats::<T>::default();
        let query = plan.query();
        if query.is_projection() {
            return Err(JoinError::Plan {
                detail: "projected heads are not supported; every engine emits full joins".into(),
            });
        }

        // Seed with the first atom's tuples.
        let first = query.atoms().first().expect("validated queries have atoms");
        let rel = catalog
            .get(first.relation())
            .ok_or_else(|| JoinError::MissingRelation {
                name: first.relation().to_owned(),
            })?;
        if rel.arity() != first.arity() {
            return Err(JoinError::ArityMismatch {
                name: first.relation().to_owned(),
                atom_arity: first.arity(),
                relation_arity: rel.arity(),
            });
        }
        let mut schema: Vec<VarId> = first.vars().to_vec();
        let mut rows: Vec<Vec<Value>> = rel.iter().map(|t| t.to_vec()).collect();
        stats
            .access
            .record(AccessKind::IndexRead, rel.payload_bytes());

        for atom in &query.atoms()[1..] {
            let rel = catalog
                .get(atom.relation())
                .ok_or_else(|| JoinError::MissingRelation {
                    name: atom.relation().to_owned(),
                })?;
            if rel.arity() != atom.arity() {
                return Err(JoinError::ArityMismatch {
                    name: atom.relation().to_owned(),
                    atom_arity: atom.arity(),
                    relation_arity: rel.arity(),
                });
            }

            // Shared variables: (position in accumulated schema, position in atom).
            let shared: Vec<(usize, usize)> = schema
                .iter()
                .enumerate()
                .filter_map(|(si, v)| atom.vars().iter().position(|av| av == v).map(|ai| (si, ai)))
                .collect();
            let new_cols: Vec<usize> = (0..atom.arity())
                .filter(|ai| !shared.iter().any(|&(_, a)| a == *ai))
                .collect();

            // Build side: hash the atom's relation on the shared columns.
            let mut table: HashMap<Vec<Value>, Vec<&[Value]>> = HashMap::new();
            stats
                .access
                .record(AccessKind::IndexRead, rel.payload_bytes());
            for t in rel.iter() {
                let key: Vec<Value> = shared.iter().map(|&(_, ai)| t[ai]).collect();
                // Hash-table insertion is intermediate state.
                stats
                    .access
                    .record(AccessKind::Intermediate, t.len() as u64 * WORD_BYTES);
                table.entry(key).or_default().push(t);
            }

            // Probe side: every accumulated row.
            let mut next_rows = Vec::new();
            for row in &rows {
                stats.match_ops += 1;
                stats
                    .access
                    .record(AccessKind::Intermediate, row.len() as u64 * WORD_BYTES);
                let key: Vec<Value> = shared.iter().map(|&(si, _)| row[si]).collect();
                if let Some(matches) = table.get(&key) {
                    for t in matches {
                        let mut out = row.clone();
                        out.extend(new_cols.iter().map(|&ai| t[ai]));
                        stats
                            .access
                            .record(AccessKind::Intermediate, out.len() as u64 * WORD_BYTES);
                        next_rows.push(out);
                    }
                }
            }
            for &ai in &new_cols {
                schema.push(atom.vars()[ai]);
            }
            rows = next_rows;
            // Every materialized tuple of a non-final relation is an
            // intermediate result (the Figure 18 metric).
            if !std::ptr::eq(atom, query.atoms().last().expect("non-empty")) {
                stats.intermediates += rows.len() as u64;
            }
        }

        // Project to head order and emit.
        let head_pos: Vec<usize> = query
            .head()
            .iter()
            .map(|hv| {
                schema
                    .iter()
                    .position(|v| v == hv)
                    .expect("full join covers head")
            })
            .collect();
        let words = head_pos.len() as u64 * WORD_BYTES;
        let mut emitter = BatchEmitter::new(head_pos);
        for row in &rows {
            emitter.push(row, sink);
            stats.results += 1;
            stats.access.record(AccessKind::ResultWrite, words);
        }
        emitter.flush(sink);
        Ok(stats)
    }
}

impl JoinEngine for PairwiseHash {
    fn name(&self) -> &'static str {
        "pairwise-hash"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, CountSink, Lftj};
    use triejax_query::patterns::{self, Pattern};
    use triejax_relation::Relation;

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
            PairwiseHash::new().execute(&plan, &c, &mut b).unwrap();
            assert_eq!(a.into_sorted(), b.into_sorted(), "{p}");
        }
    }

    #[test]
    fn pairwise_materializes_filtered_intermediates() {
        // Star-out graph: many length-2 paths, but no triangles. The
        // pairwise plan still materializes the whole path-2 relation.
        let mut edges = vec![];
        for i in 1..20u32 {
            edges.push((0, i));
            edges.push((i, 100 + i));
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CountSink::default();
        let stats = PairwiseHash::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.count(), 0);
        assert!(stats.intermediates >= 19, "path-2 intermediates exist");
    }

    #[test]
    fn wcoj_vs_pairwise_intermediate_gap() {
        // The Figure 18 premise: CTJ materializes no more intermediates
        // than the pairwise plan on the paper's queries.
        let c = catalog(&test_edges());
        for p in [Pattern::Path4, Pattern::Cycle4, Pattern::Clique4] {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut s1 = CountSink::default();
            let pw = PairwiseHash::new().execute(&plan, &c, &mut s1).unwrap();
            let mut s2 = CountSink::default();
            let ctj = crate::Ctj::new().execute(&plan, &c, &mut s2).unwrap();
            assert!(
                ctj.intermediates <= pw.intermediates,
                "{p}: ctj {} > pairwise {}",
                ctj.intermediates,
                pw.intermediates
            );
        }
    }

    #[test]
    fn single_atom_query_scans() {
        let q = triejax_query::Query::builder("edges")
            .head(["x", "y"])
            .atom("G", ["x", "y"])
            .build()
            .unwrap();
        let plan = CompiledQuery::compile(&q).unwrap();
        let c = catalog(&[(1, 2), (3, 4)]);
        let mut sink = CollectSink::new();
        let stats = PairwiseHash::new().execute(&plan, &c, &mut sink).unwrap();
        assert_eq!(sink.into_sorted(), vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(stats.intermediates, 0);
    }
}
