use triejax_query::CompiledQuery;

use crate::{Catalog, EngineStats, JoinError, ResultSink};

/// A join engine: executes a compiled query against a catalog, streaming
/// result tuples (in head-variable order) into a sink and reporting its
/// work in [`EngineStats`].
///
/// Every engine in this crate implements the trait, so harness code can
/// swap algorithms behind one interface:
///
/// ```
/// use triejax_join::{Catalog, CountSink, GenericJoin, JoinEngine, Lftj, PairwiseHash};
/// use triejax_query::{patterns, CompiledQuery};
/// use triejax_relation::Relation;
///
/// let mut catalog = Catalog::new();
/// catalog.insert("G", Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]));
/// let plan = CompiledQuery::compile(&patterns::cycle3())?;
///
/// let engines: Vec<Box<dyn JoinEngine>> = vec![
///     Box::new(Lftj::default()),
///     Box::new(GenericJoin::default()),
///     Box::new(PairwiseHash::default()),
/// ];
/// for mut e in engines {
///     let mut sink = CountSink::default();
///     e.execute(&plan, &catalog, &mut sink)?;
///     assert_eq!(sink.count(), 3); // the one triangle, three rotations
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait JoinEngine {
    /// Short stable identifier, e.g. `"lftj"` or `"ctj"`.
    fn name(&self) -> &'static str;

    /// Runs the query to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`JoinError`] when the catalog is missing a relation or a
    /// relation's arity mismatches its atom.
    fn execute(
        &mut self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<EngineStats, JoinError>;
}

/// Maps evaluation depth to the head slot each bound value belongs to.
///
/// # Errors
///
/// Returns [`JoinError::Plan`] when some order variable has no head slot —
/// a projected query (see `triejax_query::QueryBuilder::build_projected`),
/// which the full-join engines cannot emit.
pub(crate) fn head_slots(plan: &CompiledQuery) -> Result<Vec<usize>, JoinError> {
    let head = plan.query().head();
    plan.order()
        .iter()
        .map(|v| {
            head.iter()
                .position(|h| h == v)
                .ok_or_else(|| JoinError::Plan {
                    detail: format!(
                        "variable {} is projected away from the head; \
                         this engine only emits full joins",
                        plan.query().var_name(*v)
                    ),
                })
        })
        .collect()
}

/// The inverse of [`head_slots`]: for each head slot, the evaluation
/// depth whose bound value it shows — the gather order a driver's
/// [`crate::sink::BatchEmitter`] writes rows in.
///
/// # Errors
///
/// As [`head_slots`].
pub(crate) fn head_order(plan: &CompiledQuery) -> Result<Vec<usize>, JoinError> {
    let slots = head_slots(plan)?;
    let mut order = vec![0; slots.len()];
    for (depth, slot) in slots.into_iter().enumerate() {
        order[slot] = depth;
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_query::patterns;

    #[test]
    fn head_slots_invert_the_order() {
        let q = patterns::path3();
        let plan = CompiledQuery::compile_with_order(&q, vec![2, 0, 1]).unwrap();
        // depth 0 binds z (head slot 2), depth 1 binds x (slot 0), ...
        assert_eq!(head_slots(&plan).unwrap(), vec![2, 0, 1]);
        // ... so slot 0 shows depth 1, slot 1 depth 2, slot 2 depth 0.
        assert_eq!(head_order(&plan).unwrap(), vec![1, 2, 0]);
    }

    #[test]
    fn projected_plans_are_a_plan_error_not_a_panic() {
        let q = triejax_query::Query::builder("pairs")
            .head(["x", "z"])
            .atom("G", ["x", "y"])
            .atom("G", ["y", "z"])
            .build_projected()
            .unwrap();
        let plan = CompiledQuery::compile(&q).unwrap();
        let err = head_slots(&plan).unwrap_err();
        assert!(matches!(err, JoinError::Plan { .. }));
        assert!(err.to_string().contains('y'), "{err}");
    }
}
