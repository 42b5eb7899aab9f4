//! Root-range shard planning and execution, shared by the parallel
//! engines.

use triejax_exec::{CancelReason, OrderedMerge, PoolStats, RunBudget, WorkerCtx, WorkerPool};
use triejax_query::CompiledQuery;
use triejax_relation::Value;

use crate::viewset::CursorSet;
use crate::{Catalog, ResultSink, ShardSink};

/// Plans the contiguous root-value ranges `[min, sup)` a parallel run
/// executes as independent work units.
///
/// The shard count is seeded from the compiled plan: the catalog's
/// relation cardinalities feed [`CompiledQuery::root_domain_estimate`],
/// and [`CompiledQuery::shard_granularity`] overshards relative to the
/// worker count so the work-stealing pool can rebalance skew (callers may
/// force an exact count with `granularity`). Returns a single unbounded
/// range when sharding isn't worthwhile — callers treat that as the
/// sequential fast path.
///
/// Range boundaries are drawn from the *smallest* depth-0 participant's
/// root level: any participant's root values are a superset of the
/// depth-0 matches, and the smallest one balances shards with the least
/// boundary scanning. The first shard starts at the bottom of the domain
/// and the last is unbounded above, so the ranges cover every root value
/// of every participant.
pub(crate) fn plan_shards<'s, S: CursorSet<'s>>(
    plan: &CompiledQuery,
    catalog: &Catalog,
    set: &'s S,
    workers: usize,
    granularity: Option<usize>,
) -> Vec<(Value, Option<Value>)> {
    let root_values = plan
        .atoms_at(0)
        .iter()
        .map(|&(a, _)| set.root_values(a))
        .min_by_key(|v| v.len())
        .expect("every depth has at least one participant");

    let shards = granularity
        .unwrap_or_else(|| {
            let estimate = plan
                .root_domain_estimate(|name| catalog.get(name).map(|r| r.len()))
                .unwrap_or(root_values.len());
            plan.shard_granularity(estimate.min(root_values.len()), workers)
        })
        .clamp(1, root_values.len().max(1));

    if shards <= 1 {
        return vec![(0, None)];
    }

    let mut ranges: Vec<(Value, Option<Value>)> = Vec::with_capacity(shards);
    for i in 0..shards {
        let lo_idx = i * root_values.len() / shards;
        let hi_idx = (i + 1) * root_values.len() / shards;
        if lo_idx == hi_idx {
            continue; // empty shard (more shards than values)
        }
        let min = if ranges.is_empty() {
            0
        } else {
            root_values[lo_idx]
        };
        let sup = if hi_idx == root_values.len() {
            None
        } else {
            Some(root_values[hi_idx])
        };
        ranges.push((min, sup));
    }
    ranges
}

/// Drains the merge into `sink`, enforcing `budget` when one governs the
/// run.
///
/// The foreground drain is the **only** consumer of the row quota in a
/// parallel run: workers emit freely into their merge lanes (their
/// [`triejax_exec::BudgetHandle`]s are flag-only), and the drain charges
/// [`RunBudget::charge_rows`] in exact stream order — so the rows that
/// reach the sink are exactly the first `limit` rows of the sequential
/// result, no matter how lanes interleaved. The cut is *sticky*: once the
/// quota is exhausted or a non-row-limit cancellation is observed, every
/// later batch is discarded but the drain keeps consuming, so producers
/// never block on a full merge and the run winds down instead of hanging.
fn drain_into(
    merge: &OrderedMerge<Vec<Value>>,
    sink: &mut dyn ResultSink,
    arity: usize,
    budget: Option<&RunBudget>,
) {
    match budget {
        None => merge.drain(|batch| sink.push_rows(&batch, arity)),
        Some(b) => {
            let mut cut = false;
            merge.drain(|batch| {
                if cut {
                    return;
                }
                if b.cancelled().is_some_and(|r| r != CancelReason::RowLimit) {
                    cut = true;
                    return;
                }
                let rows = (batch.len() / arity.max(1)) as u64;
                let allowed = b.charge_rows(rows);
                if allowed < rows {
                    cut = true;
                }
                if allowed > 0 {
                    sink.push_rows(&batch[..allowed as usize * arity], arity);
                }
            });
        }
    }
}

/// Runs every planned shard on the pool, streaming batches through an
/// order-preserving merge into `sink` — the execution skeleton every
/// pool-parallel engine shares.
///
/// `work` receives the worker context, the shard's lane, its root range
/// and a ready [`ShardSink`]. The sink is created *before* `work` runs so
/// its `Drop` closes the lane even when the shard body panics, keeping
/// the foreground drain (which runs on the calling thread, so `sink`
/// needs no `Send` bound) from blocking forever. Returns the pool's
/// scheduling stats.
///
/// When `budget` governs the run, the drain enforces it (see
/// [`drain_into`]) and shards claimed after cancellation are dropped
/// without running their driver — the lane still opens and closes, so
/// the drain always terminates.
pub(crate) fn execute_sharded<F>(
    pool: &WorkerPool,
    ranges: &[(Value, Option<Value>)],
    arity: usize,
    sink: &mut dyn ResultSink,
    budget: Option<&RunBudget>,
    work: F,
) -> PoolStats
where
    F: Fn(WorkerCtx, Value, Option<Value>, &mut ShardSink<'_>) + Sync,
{
    let merge = OrderedMerge::new(ranges.len());
    let ((_, pool_stats), ()) = pool.run_with_foreground(
        ranges,
        |ctx, lane, &(min, sup)| {
            let mut shard_sink = ShardSink::new(&merge, lane, arity);
            // Fault hook *after* the sink exists: an injected panic here
            // unwinds through the sink's Drop, which closes the lane, so
            // the drain never waits on a dead shard.
            #[cfg(feature = "faults")]
            triejax_exec::faults::fire(triejax_exec::faults::FaultEvent::TaskStart);
            if budget.is_some_and(|b| b.cancelled().is_some()) {
                // Cancelled while queued: drop the task (the ShardSink
                // Drop closes the lane on the way out).
                return;
            }
            work(ctx, min, sup, &mut shard_sink);
        },
        || drain_into(&merge, sink, arity, budget),
    );
    pool_stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrieSet;
    use triejax_query::patterns;
    use triejax_relation::Relation;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let edges: Vec<(u32, u32)> = (0..40).map(|i| (i, (i + 1) % 40)).collect();
        c.insert("G", Relation::from_pairs(edges));
        c
    }

    #[test]
    fn ranges_cover_the_domain_without_gaps() {
        let c = catalog();
        let plan = triejax_query::CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();
        let ranges = plan_shards(&plan, &c, &tries, 4, None);
        assert!(ranges.len() > 4, "overshards beyond the worker count");
        assert_eq!(ranges[0].0, 0, "first shard starts at the domain bottom");
        assert_eq!(ranges.last().unwrap().1, None, "last shard is unbounded");
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].1, Some(pair[1].0), "contiguous boundaries");
        }
    }

    #[test]
    fn single_worker_gets_the_sequential_range() {
        let c = catalog();
        let plan = triejax_query::CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();
        assert_eq!(plan_shards(&plan, &c, &tries, 1, None), vec![(0, None)]);
    }

    #[test]
    fn explicit_granularity_wins_and_is_clamped() {
        let c = catalog();
        let plan = triejax_query::CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();
        assert_eq!(plan_shards(&plan, &c, &tries, 4, Some(3)).len(), 3);
        // More shards than root values: clamped, never empty ranges.
        let ranges = plan_shards(&plan, &c, &tries, 4, Some(10_000));
        assert_eq!(ranges.len(), 40);
    }
}
