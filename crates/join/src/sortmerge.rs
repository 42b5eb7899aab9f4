use triejax_query::{CompiledQuery, VarId};
use triejax_relation::{AccessKind, Counting, Tally, Value, WORD_BYTES};

use crate::sink::BatchEmitter;
use crate::{Catalog, EngineStats, JoinEngine, JoinError, ResultSink};

/// Traditional left-deep binary **sort-merge** join plan — the literal
/// operator repertoire of Q100 (Sort, Merge-Join; paper §2.1).
///
/// Each binary join sorts both sides on the shared variables and merges;
/// every intermediate relation is materialized and re-sorted for the next
/// operator, which is exactly why the Q100 model charges per-intermediate
/// sort passes. Sort comparisons are counted as `match_ops` and every
/// moved tuple as intermediate traffic.
///
/// Result sets are identical to [`crate::PairwiseHash`] (and every other
/// engine); only the work profile differs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairwiseSortMerge {
    _private: (),
}

impl PairwiseSortMerge {
    /// Creates the engine; identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One intermediate relation: schema plus row storage.
struct Stage {
    schema: Vec<VarId>,
    rows: Vec<Vec<Value>>,
}

impl PairwiseSortMerge {
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

        let fetch = |name: &str, arity: usize| -> Result<Vec<Vec<Value>>, JoinError> {
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
            Ok(rel.iter().map(|t| t.to_vec()).collect())
        };

        let first = query.atoms().first().expect("validated queries have atoms");
        let mut acc = Stage {
            schema: first.vars().to_vec(),
            rows: fetch(first.relation(), first.arity())?,
        };
        stats.access.record(
            AccessKind::IndexRead,
            (acc.rows.len() * first.arity()) as u64 * WORD_BYTES,
        );

        for atom in &query.atoms()[1..] {
            let mut right = Stage {
                schema: atom.vars().to_vec(),
                rows: fetch(atom.relation(), atom.arity())?,
            };
            stats.access.record(
                AccessKind::IndexRead,
                (right.rows.len() * atom.arity()) as u64 * WORD_BYTES,
            );

            // Shared variables: (left column, right column).
            let shared: Vec<(usize, usize)> = acc
                .schema
                .iter()
                .enumerate()
                .filter_map(|(li, v)| {
                    right
                        .schema
                        .iter()
                        .position(|rv| rv == v)
                        .map(|ri| (li, ri))
                })
                .collect();
            let new_cols: Vec<usize> = (0..right.schema.len())
                .filter(|ri| !shared.iter().any(|&(_, r)| r == *ri))
                .collect();

            // Sort both sides on the join key (a Q100 Sort operator each).
            let lkey =
                |row: &Vec<Value>| -> Vec<Value> { shared.iter().map(|&(l, _)| row[l]).collect() };
            let rkey =
                |row: &Vec<Value>| -> Vec<Value> { shared.iter().map(|&(_, r)| row[r]).collect() };
            sort_counted(&mut acc.rows, &lkey, &mut stats);
            sort_counted(&mut right.rows, &rkey, &mut stats);

            // Merge phase.
            let mut out = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < acc.rows.len() && j < right.rows.len() {
                stats.match_ops += 1;
                let kl = lkey(&acc.rows[i]);
                let kr = rkey(&right.rows[j]);
                match kl.cmp(&kr) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        // Emit the cross product of the equal-key runs.
                        let i_end = acc.rows[i..].iter().take_while(|r| lkey(r) == kl).count() + i;
                        let j_end =
                            right.rows[j..].iter().take_while(|r| rkey(r) == kr).count() + j;
                        for li in i..i_end {
                            for rj in j..j_end {
                                let mut row = acc.rows[li].clone();
                                row.extend(new_cols.iter().map(|&c| right.rows[rj][c]));
                                stats.access.record(
                                    AccessKind::Intermediate,
                                    row.len() as u64 * WORD_BYTES,
                                );
                                out.push(row);
                            }
                        }
                        i = i_end;
                        j = j_end;
                    }
                }
            }
            for &c in &new_cols {
                acc.schema.push(right.schema[c]);
            }
            acc.rows = out;
            if !std::ptr::eq(atom, query.atoms().last().expect("non-empty")) {
                stats.intermediates += acc.rows.len() as u64;
            }
        }

        // Project to head order and emit.
        let head_pos: Vec<usize> = query
            .head()
            .iter()
            .map(|hv| {
                acc.schema
                    .iter()
                    .position(|v| v == hv)
                    .expect("full join covers head")
            })
            .collect();
        let words = head_pos.len() as u64 * WORD_BYTES;
        let mut emitter = BatchEmitter::new(head_pos);
        for row in &acc.rows {
            emitter.push(row, sink);
            stats.results += 1;
            stats.access.record(AccessKind::ResultWrite, words);
        }
        emitter.flush(sink);
        Ok(stats)
    }
}

impl JoinEngine for PairwiseSortMerge {
    fn name(&self) -> &'static str {
        "pairwise-sortmerge"
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

/// Sorts rows by a key extractor, charging `n log n` comparisons as match
/// operations and each row move as intermediate traffic.
fn sort_counted<K: Ord, T: Tally>(
    rows: &mut [Vec<Value>],
    key: &impl Fn(&Vec<Value>) -> K,
    stats: &mut EngineStats<T>,
) {
    let n = rows.len() as u64;
    if n > 1 {
        stats.match_ops += n * (64 - n.leading_zeros() as u64);
        let bytes: u64 = rows.iter().map(|r| r.len() as u64 * WORD_BYTES).sum();
        stats.access.record(AccessKind::Intermediate, bytes);
    }
    rows.sort_by_key(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, CountSink, Lftj, PairwiseHash};
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
            PairwiseSortMerge::new().execute(&plan, &c, &mut b).unwrap();
            assert_eq!(a.into_sorted(), b.into_sorted(), "{p}");
        }
    }

    #[test]
    fn intermediate_counts_match_the_hash_variant() {
        // Same left-deep plan: identical intermediate relation sizes,
        // different operator costs.
        let c = catalog(&test_edges());
        for p in [Pattern::Path4, Pattern::Cycle4, Pattern::Clique4] {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut s1 = CountSink::default();
            let sm = PairwiseSortMerge::new()
                .execute(&plan, &c, &mut s1)
                .unwrap();
            let mut s2 = CountSink::default();
            let hj = PairwiseHash::new().execute(&plan, &c, &mut s2).unwrap();
            assert_eq!(sm.intermediates, hj.intermediates, "{p}");
            assert_eq!(s1.count(), s2.count(), "{p}");
        }
    }

    #[test]
    fn sort_costs_are_charged() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let mut sink = CountSink::default();
        let stats = PairwiseSortMerge::new()
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert!(stats.match_ops > 0);
        assert!(stats.access.intermediate_bytes > 0, "sorts move rows");
    }

    #[test]
    fn empty_side_yields_nothing() {
        let mut c = Catalog::new();
        c.insert("G", Relation::new(2).unwrap());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let mut sink = CountSink::default();
        let stats = PairwiseSortMerge::new()
            .execute(&plan, &c, &mut sink)
            .unwrap();
        assert_eq!(stats.results, 0);
    }
}
