//! Root-range shard planning, execution, and the dynamic split protocol
//! shared by the parallel engines.

use triejax_exec::{
    CancelReason, OrderedMerge, PoolStats, RunBudget, Spawner, WorkerCtx, WorkerPool,
};
use triejax_query::CompiledQuery;
use triejax_relation::{JoinCursor, Tally, Value};

use crate::viewset::CursorSet;
use crate::{Catalog, EngineStats, ResultSink, ShardSink};

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
    split: bool,
) -> Vec<(Value, Option<Value>)> {
    let root_values = planning_root_values(plan, set);

    let shards = granularity
        .unwrap_or_else(|| {
            let estimate = plan
                .root_domain_estimate(|name| catalog.get(name).map(|r| r.len()))
                .unwrap_or(root_values.len());
            let domain = estimate.min(root_values.len());
            // With dynamic splitting the run rebalances itself, so the
            // initial cut is coarse (one shard per worker); without it,
            // 4x oversharding is the only skew absorber.
            if split {
                plan.initial_shard_granularity(domain, workers)
            } else {
                plan.shard_granularity(domain, workers)
            }
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

/// The root level shard planning draws its boundaries from: the
/// *smallest* depth-0 participant's root values (any participant's root
/// values are a superset of the depth-0 matches, and the smallest one
/// balances shards with the least boundary scanning).
fn planning_root_values<'s, S: CursorSet<'s>>(plan: &CompiledQuery, set: &'s S) -> &'s [Value] {
    plan.atoms_at(0)
        .iter()
        .map(|&(a, _)| set.root_values(a))
        .min_by_key(|v| v.len())
        .expect("every depth has at least one participant")
}

/// `true` when a run over these tries could ever split: the planning
/// root level must hold the current value plus a non-empty kept head
/// and a non-empty tail (see [`MIN_SPLIT_TAIL`]). Engines with
/// splitting enabled fall back to the static schedule — and its
/// sequential single-shard fast path — when it cannot, instead of
/// paying for a pool, merge and shared cache that zero splits could
/// ever use.
pub(crate) fn can_split<'s, S: CursorSet<'s>>(plan: &CompiledQuery, set: &'s S) -> bool {
    planning_root_values(plan, set).len() > MIN_SPLIT_TAIL
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

/// The split protocol between a driver's level loops and the runtime.
///
/// A driver running a shard polls [`should_split`](SplitSpawn::should_split)
/// at every advance of a level at or below [`depth_cap`](SplitSpawn::depth_cap)
/// (a cheap atomic poll behind the controller's hysteresis) and, when it
/// reports an unserved idle sibling, computes a tail boundary for its
/// deepest eligible level and calls [`handoff`](SplitSpawn::handoff) to
/// turn the unvisited tail into a new task on a fresh merge lane.
///
/// Sub-root handoffs (depth ≥ 1) also open a *continuation* lane behind
/// the donated tail's lane: the donor keeps emitting rows below the
/// boundary on its current lane, and when it exits the split level it
/// switches to the continuation ([`take_switch`](SplitSpawn::take_switch))
/// so everything it produces *after* the donated subtree drains after the
/// donee — keeping the merged stream tuple-for-tuple sequential.
///
/// A *stopping* controller ([`STOPS`](SplitSpawn::STOPS)) never splits;
/// it ends the run once [`batch_full`](SplitSpawn::batch_full) says so,
/// and the driver hands it every tail the stop left unvisited through
/// [`handoff`](SplitSpawn::handoff) — the same `(depth, prefix, min,
/// sup)` a split donates, so [`crate::lftj::Driver::run_split_at`]
/// resumes each one.
pub(crate) trait SplitSpawn {
    /// `true` only for a stopping controller; `false` compiles every stop
    /// check out of the driver.
    const STOPS: bool = false;
    /// Whether a run that has emitted `results` rows must stop at its
    /// next stop point (only asked when [`STOPS`](Self::STOPS)).
    fn batch_full(&self, _results: u64) -> bool {
        false
    }
    /// Cheap poll: is handing work off worthwhile right now? Takes `&mut`
    /// so controllers can apply hysteresis (cooldowns, handoff ceilings).
    fn should_split(&mut self) -> bool;
    /// This shard's split generation (0 for an initial shard, parent + 1
    /// for a split shard) — recorded as `EngineStats::split_depth`.
    fn generation(&self) -> u64;
    /// Deepest trie level allowed to split (`0` = root only).
    fn depth_cap(&self) -> usize {
        0
    }
    /// Hands the tail `[min, sup)` at `depth` under the bound `prefix`
    /// (one value per level above `depth`) off as a new task whose
    /// results drain immediately after this shard's current output.
    fn handoff(&mut self, depth: usize, prefix: &[Value], min: Value, sup: Option<Value>);
    /// Records that the tail `[boundary, sup)` at `depth` failed
    /// validation (some participant has no value in it). A level's `sup`
    /// only shrinks, so every later candidate at or above this boundary
    /// is doomed too and is skipped without re-probing
    /// ([`vetoed`](Self::vetoed)); *lower* candidates stay allowed — a
    /// different donor can legitimately propose one that validates.
    fn veto_at(&mut self, _depth: usize, _boundary: Value) {}
    /// `true` when a previously failed boundary at `depth` already covers
    /// `boundary`, so validation would probe the same doomed tail again.
    fn vetoed(&self, _depth: usize, _boundary: Value) -> bool {
        false
    }
    /// Hook invoked when the driver enters level `depth` under a new
    /// prefix: vetoes recorded at this depth or deeper belong to the
    /// previous subtree and are dropped.
    fn level_entered(&mut self, _depth: usize) {}
    /// Called when the driver exits level `depth`: when a sub-root split
    /// at that depth opened a continuation lane, returns it so the driver
    /// can redirect its sink ([`crate::ResultSink::redirect_lane`])
    /// before producing anything that must drain after the donee.
    fn take_switch(&mut self, _depth: usize) -> Option<usize> {
        None
    }
}

/// The sequential no-op controller: never splits, so the generic drivers
/// monomorphize their level loops down to the pre-split code.
pub(crate) struct NoSplit;

impl SplitSpawn for NoSplit {
    #[inline]
    fn should_split(&mut self) -> bool {
        false
    }
    fn generation(&self) -> u64 {
        0
    }
    fn handoff(&mut self, _depth: usize, _prefix: &[Value], _min: Value, _sup: Option<Value>) {
        unreachable!("NoSplit never offers a handoff")
    }
}

/// Smallest number of unvisited root values a shard must still hold to
/// split: one for the tail and one to keep, so neither side is empty.
const MIN_SPLIT_TAIL: usize = 2;

/// One splitting step of a driver's loop over level `depth`: polls `ctl`,
/// and when an idle sibling is reported, carves the far half of the
/// *unvisited* siblings of that level off into a handed-off tail task,
/// clamping the live cursors and the level's `sup` so this shard never
/// walks into the range it gave away.
///
/// Must be called with every depth-`depth` participant cursor positioned
/// on the current match at that level (exactly the state of the drivers'
/// level loops), with `prefix` holding the values bound at the levels
/// above.
///
/// The boundary is the midpoint of the unvisited siblings of the
/// participant with the *fewest* of them — that participant bounds the
/// remaining intersection most tightly, so its midpoint best balances
/// the halves ([`JoinCursor::split_boundary`]). Before committing, the
/// tail `[boundary, sup)` is validated *in place* against every
/// participant of the level (a counted [`JoinCursor::tail_contains`]
/// binary search over the participant's already-clamped sibling range,
/// so instrumented runs charge the validation probes exactly like the
/// clamp searches, at every depth): a match must appear in all of them,
/// so if any participant has no sibling in the tail, the tail joins to
/// nothing and the split is skipped. A failed boundary is
/// [vetoed](SplitSpawn::veto_at): the level's `sup` only shrinks while
/// the prefix is bound, so any candidate at or above it stays doomed and
/// is skipped without re-probing — while a lower candidate (a different
/// donor's midpoint after the cursors advance) is still attempted.
pub(crate) fn try_split_at<T: Tally, C: SplitSpawn, Cur: JoinCursor>(
    plan: &CompiledQuery,
    cursors: &mut [Cur],
    sup: &mut Option<Value>,
    depth: usize,
    prefix: &[Value],
    ctl: &mut C,
    stats: &mut EngineStats<T>,
) {
    debug_assert_eq!(prefix.len(), depth, "one bound value per level above");
    if !ctl.should_split() {
        return;
    }
    let parts = plan.atoms_at(depth);
    let (donor, remaining) = parts
        .iter()
        .map(|&(a, _)| (a, cursors[a].unvisited()))
        .min_by_key(|&(_, r)| r)
        .expect("every depth has at least one participant");
    if remaining < MIN_SPLIT_TAIL {
        return;
    }
    let boundary = cursors[donor].split_boundary();
    debug_assert!(boundary > cursors[donor].key());
    if ctl.vetoed(depth, boundary) {
        return;
    }
    for &(a, _) in parts {
        if !cursors[a].tail_contains(boundary, &mut stats.access) {
            ctl.veto_at(depth, boundary);
            return;
        }
    }
    let old_sup = *sup;
    for &(a, _) in parts {
        cursors[a].clamp_sup(boundary, &mut stats.access);
    }
    *sup = Some(boundary);
    ctl.handoff(depth, prefix, boundary, old_sup);
    stats.splits += 1;
    if depth > 0 {
        stats.deep_splits += 1;
    }
    stats.split_depth = stats.split_depth.max(ctl.generation() + 1);
}

/// One unit of work of a splitting run: a trie-level range plus the merge
/// lane its results stream into, the prefix binding the levels above it,
/// and its split generation. Initial shards are root ranges (`depth` 0,
/// empty prefix); sub-root handoffs carry the donor's bound prefix so the
/// donee can re-descend to the donated level.
pub(crate) struct SplitTask {
    lane: usize,
    depth: usize,
    prefix: Vec<Value>,
    min: Value,
    sup: Option<Value>,
    gen: u64,
}

/// Number of `should_split` polls suppressed after each committed
/// handoff. Splitting reacts to a *persistently* idle sibling; without a
/// cooldown, a many-core run observing one idle worker would shed a
/// cascade of slivers before the first donee even starts (handoff churn).
const SPLIT_COOLDOWN_POLLS: u32 = 16;

/// Hard ceiling on handoffs per task: a shard that already shed this many
/// tails stops splitting for the rest of its life. Together with the
/// cooldown this bounds the lane/spawn overhead a single skewed subtree
/// can generate.
const SPLIT_HANDOFF_CEILING: u32 = 64;

/// The controller handed to a driver running one [`SplitTask`]: wires
/// [`SplitSpawn::handoff`] to a fresh merge lane (inserted right after
/// this task's current one, keeping the drain order equal to sequential
/// order) and a [`Spawner::spawn`] onto the pool.
///
/// For sub-root handoffs it also maintains the *continuation* protocol:
/// each first handoff at a depth opens a second lane right behind the
/// donated tail's, and [`take_switch`](SplitSpawn::take_switch) hands it
/// to the driver when it exits that level, so rows the donor produces
/// after the donated subtree drain after the donee's. The pending stack
/// holds at most one continuation per depth, strictly increasing — a
/// deeper pending is always consumed (at its level's exit) before control
/// returns to a shallower level.
pub(crate) struct SplitHandle<'r> {
    spawner: &'r Spawner<'r, SplitTask>,
    merge: &'r OrderedMerge<Vec<Value>>,
    lane: usize,
    gen: u64,
    depth_cap: usize,
    /// Per-depth lowest boundary whose tail failed validation; candidates
    /// at or above it are skipped without re-probing (see
    /// [`SplitSpawn::veto_at`]). Cleared on subtree entry.
    vetoes: Vec<Option<Value>>,
    /// Continuation lanes not yet adopted: `(depth, lane)`, depths
    /// strictly increasing. Unconsumed entries (panic, cancellation) are
    /// finished on drop so the drain never waits on them.
    pending: Vec<(usize, usize)>,
    /// Remaining polls to suppress after the last handoff.
    cooldown: u32,
    /// Handoffs committed by this task so far.
    handoffs: u32,
}

impl<'r> SplitHandle<'r> {
    fn new(
        spawner: &'r Spawner<'r, SplitTask>,
        merge: &'r OrderedMerge<Vec<Value>>,
        lane: usize,
        gen: u64,
        depth_cap: usize,
    ) -> Self {
        SplitHandle {
            spawner,
            merge,
            lane,
            gen,
            depth_cap,
            vetoes: Vec::new(),
            pending: Vec::new(),
            cooldown: 0,
            handoffs: 0,
        }
    }
}

impl SplitSpawn for SplitHandle<'_> {
    #[inline]
    fn should_split(&mut self) -> bool {
        if self.handoffs >= SPLIT_HANDOFF_CEILING {
            return false;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        self.spawner.should_split()
    }

    fn generation(&self) -> u64 {
        self.gen
    }

    fn depth_cap(&self) -> usize {
        self.depth_cap
    }

    fn handoff(&mut self, depth: usize, prefix: &[Value], min: Value, sup: Option<Value>) {
        let lane = self.merge.open_lane_after(self.lane);
        // Fault window: the tail lane is open but the task not yet
        // spawned (and for sub-root handoffs the continuation lane not
        // yet opened). An injected failure here must close the fresh lane
        // before unwinding — otherwise the drain waits forever on a shard
        // that will never run. This is exactly the invariant the fault
        // harness probes, at the root and at depth.
        #[cfg(feature = "faults")]
        match triejax_exec::faults::on_event(triejax_exec::faults::FaultEvent::SplitHandoff) {
            Some(
                triejax_exec::faults::FaultAction::Panic
                | triejax_exec::faults::FaultAction::FailHandoff,
            ) => {
                self.merge.finish(lane);
                panic!(
                    "injected fault: SplitHandoff on worker {}",
                    triejax_exec::faults::current_worker()
                );
            }
            Some(triejax_exec::faults::FaultAction::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            _ => {}
        }
        if depth > 0 {
            // First handoff at this depth in this subtree: open the
            // continuation lane right behind the tail's. A repeat split
            // at the same depth reuses the pending continuation — the new
            // tail slots between the donor's lane and the previous tail,
            // which is exactly sequential order (the new boundary is
            // lower).
            let top = self.pending.last().map(|&(d, _)| d);
            debug_assert!(
                top.is_none_or(|d| d <= depth),
                "deeper continuations are consumed before shallower splits"
            );
            if top != Some(depth) {
                let cont = self.merge.open_lane_after(lane);
                self.pending.push((depth, cont));
            }
        }
        self.spawner.spawn(SplitTask {
            lane,
            depth,
            prefix: prefix.to_vec(),
            min,
            sup,
            gen: self.gen + 1,
        });
        self.cooldown = SPLIT_COOLDOWN_POLLS;
        self.handoffs += 1;
    }

    fn veto_at(&mut self, depth: usize, boundary: Value) {
        if self.vetoes.len() <= depth {
            self.vetoes.resize(depth + 1, None);
        }
        let slot = &mut self.vetoes[depth];
        *slot = Some(slot.map_or(boundary, |v| v.min(boundary)));
    }

    fn vetoed(&self, depth: usize, boundary: Value) -> bool {
        self.vetoes
            .get(depth)
            .copied()
            .flatten()
            .is_some_and(|v| boundary >= v)
    }

    fn level_entered(&mut self, depth: usize) {
        // A new subtree at `depth`: vetoes at this depth and deeper were
        // judged against the previous prefix and no longer apply.
        if self.vetoes.len() > depth {
            self.vetoes.truncate(depth);
        }
    }

    fn take_switch(&mut self, depth: usize) -> Option<usize> {
        match self.pending.last() {
            Some(&(d, cont)) if d == depth => {
                self.pending.pop();
                self.lane = cont;
                Some(cont)
            }
            _ => None,
        }
    }
}

impl Drop for SplitHandle<'_> {
    fn drop(&mut self) {
        // Continuations the driver never adopted (panic or cancellation
        // unwound past the level exit): close them so the foreground
        // drain, which visits every opened lane in order, terminates.
        for &(_, lane) in &self.pending {
            self.merge.finish(lane);
        }
    }
}

/// Runs the planned shards with dynamic splitting enabled: the pool's
/// spawning entry point plus mid-run merge lanes. `work` receives the
/// worker context, the task's depth and prefix, its level range, its
/// [`ShardSink`] and a [`SplitHandle`] (capped at `depth_cap`) to thread
/// into the driver's level loops; the streamed tuples stay in exact
/// submission order through the merge. Returns the pool's scheduling
/// stats.
pub(crate) fn execute_split<F>(
    pool: &WorkerPool,
    ranges: &[(Value, Option<Value>)],
    arity: usize,
    depth_cap: usize,
    sink: &mut dyn ResultSink,
    budget: Option<&RunBudget>,
    work: F,
) -> PoolStats
where
    F: Fn(
            WorkerCtx,
            usize,
            &[Value],
            Value,
            Option<Value>,
            &mut ShardSink<'_>,
            &mut SplitHandle<'_>,
        ) + Sync,
{
    let merge = OrderedMerge::new(ranges.len());
    let seeds: Vec<SplitTask> = ranges
        .iter()
        .enumerate()
        .map(|(lane, &(min, sup))| SplitTask {
            lane,
            depth: 0,
            prefix: Vec::new(),
            min,
            sup,
            gen: 0,
        })
        .collect();
    let ((_, pool_stats), ()) = pool.run_spawning(
        seeds,
        |ctx, spawner, task| {
            let mut shard_sink = ShardSink::new(&merge, task.lane, arity);
            #[cfg(feature = "faults")]
            triejax_exec::faults::fire(triejax_exec::faults::FaultEvent::TaskStart);
            if budget.is_some_and(|b| b.cancelled().is_some()) {
                return;
            }
            let mut handle = SplitHandle::new(spawner, &merge, task.lane, task.gen, depth_cap);
            work(
                ctx,
                task.depth,
                &task.prefix,
                task.min,
                task.sup,
                &mut shard_sink,
                &mut handle,
            );
        },
        || drain_into(&merge, sink, arity, budget),
    );
    pool_stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrieSet;
    use triejax_query::{patterns, Query};
    use triejax_relation::{Counting, Relation, TrieCursor};

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
        let ranges = plan_shards(&plan, &c, &tries, 4, None, false);
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
        assert_eq!(
            plan_shards(&plan, &c, &tries, 1, None, false),
            vec![(0, None)]
        );
    }

    /// With splitting on, the initial cut is coarse — one shard per
    /// worker, the run rebalances itself — instead of 4x oversharded.
    #[test]
    fn splitting_runs_start_with_one_shard_per_worker() {
        let c = catalog();
        let plan = triejax_query::CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();
        let ranges = plan_shards(&plan, &c, &tries, 4, None, true);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, None);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].1, Some(pair[1].0), "contiguous boundaries");
        }
    }

    /// Controller that always claims an idle sibling exists and records
    /// the offered handoffs — the driver-side protocol under a microscope.
    #[derive(Default)]
    struct Recorder {
        offers: Vec<(usize, Vec<Value>, Value, Option<Value>)>,
        veto: Option<(usize, Value)>,
    }

    impl SplitSpawn for Recorder {
        fn should_split(&mut self) -> bool {
            true
        }
        fn generation(&self) -> u64 {
            0
        }
        fn depth_cap(&self) -> usize {
            usize::MAX
        }
        fn handoff(&mut self, depth: usize, prefix: &[Value], min: Value, sup: Option<Value>) {
            self.offers.push((depth, prefix.to_vec(), min, sup));
        }
        fn veto_at(&mut self, depth: usize, boundary: Value) {
            let floor = match self.veto {
                Some((d, v)) if d == depth => v.min(boundary),
                _ => boundary,
            };
            self.veto = Some((depth, floor));
        }
        fn vetoed(&self, depth: usize, boundary: Value) -> bool {
            self.veto.is_some_and(|(d, v)| d == depth && boundary >= v)
        }
    }

    /// `ans(x, y) :- R(x, y), S(x, y)` — two depth-0 participants over
    /// *different* relations, so donor choice and tail validation both
    /// have real work to do. `compile` binds the head order, so `x` is
    /// the root variable.
    fn two_rel_fixture(
        r_roots: &[u32],
        s_roots: &[u32],
    ) -> (CompiledQuery, Catalog, crate::TrieSet) {
        let q = Query::builder("split_math")
            .head(["x", "y"])
            .atom("R", ["x", "y"])
            .atom("S", ["x", "y"])
            .build()
            .unwrap();
        let plan = CompiledQuery::compile(&q).unwrap();
        let mut c = Catalog::new();
        c.insert(
            "R",
            Relation::from_pairs(r_roots.iter().map(|&x| (x, 1)).collect::<Vec<_>>()),
        );
        c.insert(
            "S",
            Relation::from_pairs(s_roots.iter().map(|&x| (x, 1)).collect::<Vec<_>>()),
        );
        let tries = crate::TrieSet::build(&plan, &c).unwrap();
        (plan, c, tries)
    }

    /// Opens every depth-0 participant at the bottom of the root range —
    /// the drivers' root-loop state at the first common match.
    fn root_cursors<'a>(
        plan: &CompiledQuery,
        tries: &'a crate::TrieSet,
        sup: Option<Value>,
        stats: &mut EngineStats<Counting>,
    ) -> Vec<TrieCursor<'a>> {
        (0..plan.atoms_at(0).len())
            .map(|a| {
                let mut c = TrieCursor::new(tries.for_atom(a));
                assert!(c.open_root_range(0, sup, &mut stats.access));
                c
            })
            .collect()
    }

    #[test]
    fn split_hands_off_the_far_half_and_clamps_the_donor() {
        // Donor is S (fewest unvisited siblings): positioned on 0 with
        // {4, 8} remaining, the midpoint boundary is 8.
        let (plan, _c, tries) = two_rel_fixture(&[0, 1, 2, 3, 4, 5, 6, 7, 8], &[0, 4, 8]);
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, None, &mut stats);
        let mut root_sup = None;
        let mut ctl = Recorder::default();
        try_split_at(
            &plan,
            &mut cursors,
            &mut root_sup,
            0,
            &[],
            &mut ctl,
            &mut stats,
        );
        assert_eq!(
            ctl.offers,
            vec![(0, vec![], 8, None)],
            "tail = far half, open above"
        );
        assert_eq!(root_sup, Some(8), "parent's range shrank to [0, 8)");
        assert_eq!(stats.splits, 1);
        assert_eq!(stats.deep_splits, 0, "a root handoff is not a deep split");
        assert_eq!(stats.split_depth, 1);
        // Both cursors were clamped below the boundary: S now ends at 4,
        // R at 7.
        let s = &mut cursors[1];
        assert!(s.next(&mut stats.access));
        assert_eq!(s.key(), 4);
        assert!(!s.next(&mut stats.access), "8 was handed away");
    }

    #[test]
    fn single_spare_value_is_too_small_to_split() {
        // S has one unvisited sibling: a split would leave the parent or
        // the tail empty, so the offer must not happen.
        let (plan, _c, tries) = two_rel_fixture(&[0, 1, 2, 3, 4], &[0, 4]);
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, None, &mut stats);
        let mut root_sup = None;
        let mut ctl = Recorder::default();
        try_split_at(
            &plan,
            &mut cursors,
            &mut root_sup,
            0,
            &[],
            &mut ctl,
            &mut stats,
        );
        assert!(ctl.offers.is_empty());
        assert_eq!(root_sup, None, "range untouched");
        assert_eq!(stats.splits, 0);
    }

    #[test]
    fn empty_tail_in_any_participant_skips_the_split() {
        // Donor S offers boundary 20, but R has no root value >= 20: the
        // tail joins to nothing, so no task is spawned and the parent
        // keeps its range.
        let (plan, _c, tries) = two_rel_fixture(&[0, 1, 2, 3, 4, 5], &[0, 10, 20]);
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, None, &mut stats);
        let mut root_sup = None;
        let mut ctl = Recorder::default();
        try_split_at(
            &plan,
            &mut cursors,
            &mut root_sup,
            0,
            &[],
            &mut ctl,
            &mut stats,
        );
        assert!(ctl.offers.is_empty(), "empty tail must be rejected");
        assert_eq!(root_sup, None);
        assert_eq!(stats.splits, 0);
        // The failed boundary is vetoed: re-attempting the same (or any
        // higher) candidate skips the validation probes entirely.
        assert!(ctl.vetoed(0, 20) && ctl.vetoed(0, 21));
        assert!(!ctl.vetoed(0, 19), "lower candidates stay allowed");
        let probes = stats.memory_accesses();
        try_split_at(
            &plan,
            &mut cursors,
            &mut root_sup,
            0,
            &[],
            &mut ctl,
            &mut stats,
        );
        assert!(ctl.offers.is_empty() && stats.splits == 0);
        assert_eq!(
            stats.memory_accesses(),
            probes,
            "a vetoed candidate must not re-probe"
        );
    }

    /// A vetoed boundary must not kill splitting for good: after the
    /// cursors advance, a *different* donor can propose a lower boundary
    /// whose tail validates — and the shard still rebalances.
    #[test]
    fn lower_boundary_from_another_donor_splits_after_a_veto() {
        // At root match 0: R is the min-remaining donor, proposes 5000,
        // and S (nothing >= 5000) vetoes it. At root match 50: S is the
        // donor, proposes 70 < 5000, and both participants have root
        // values in [70, None) — the split must happen.
        let (plan, _c, tries) = two_rel_fixture(
            &[0, 50, 80, 5000, 6000, 7000],
            &[0, 1, 2, 3, 4, 50, 60, 70, 80],
        );
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, None, &mut stats);
        let mut root_sup = None;
        let mut ctl = Recorder::default();
        try_split_at(
            &plan,
            &mut cursors,
            &mut root_sup,
            0,
            &[],
            &mut ctl,
            &mut stats,
        );
        assert!(ctl.offers.is_empty() && ctl.vetoed(0, 5000), "5000 vetoed");
        // Advance every cursor to the next common root match, 50.
        for c in &mut cursors {
            assert!(c.seek(50, &mut stats.access));
            assert_eq!(c.key(), 50);
        }
        try_split_at(
            &plan,
            &mut cursors,
            &mut root_sup,
            0,
            &[],
            &mut ctl,
            &mut stats,
        );
        assert_eq!(
            ctl.offers,
            vec![(0, vec![], 70, None)],
            "the lower boundary splits"
        );
        assert_eq!(root_sup, Some(70));
        assert_eq!(stats.splits, 1);
    }

    /// The validation probes are real simulated traffic and must be
    /// charged like the clamp probes: a committed split records strictly
    /// more index reads than positioning the cursors did.
    #[test]
    fn split_validation_probes_are_counted() {
        let (plan, _c, tries) = two_rel_fixture(&[0, 1, 2, 3, 4, 5, 6, 7, 8], &[0, 4, 8]);
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, None, &mut stats);
        let mut root_sup = None;
        let mut ctl = Recorder::default();
        let before = stats.memory_accesses();
        try_split_at(
            &plan,
            &mut cursors,
            &mut root_sup,
            0,
            &[],
            &mut ctl,
            &mut stats,
        );
        assert_eq!(stats.splits, 1);
        assert!(
            stats.memory_accesses() > before,
            "validation + clamp searches must be tallied"
        );
    }

    /// Same shape as [`two_rel_fixture`] but with a single root value, so
    /// the only splittable level is the child level: `ans(x, y) :- R(x, y),
    /// S(x, y)` with every tuple under `x = 0`.
    fn deep_fixture(r_kids: &[u32], s_kids: &[u32]) -> (CompiledQuery, Catalog, crate::TrieSet) {
        let q = Query::builder("deep_split_math")
            .head(["x", "y"])
            .atom("R", ["x", "y"])
            .atom("S", ["x", "y"])
            .build()
            .unwrap();
        let plan = CompiledQuery::compile(&q).unwrap();
        let mut c = Catalog::new();
        c.insert(
            "R",
            Relation::from_pairs(r_kids.iter().map(|&y| (0, y)).collect::<Vec<_>>()),
        );
        c.insert(
            "S",
            Relation::from_pairs(s_kids.iter().map(|&y| (0, y)).collect::<Vec<_>>()),
        );
        let tries = crate::TrieSet::build(&plan, &c).unwrap();
        (plan, c, tries)
    }

    #[test]
    fn deep_split_hands_off_the_subtree_tail_with_its_prefix() {
        // Root domain is {0}: nothing to carve at depth 0. Under it, the
        // donor is S (positioned on 0 with {4, 8} unvisited), so the
        // depth-1 midpoint boundary is 8 and the offer must carry the
        // bound prefix [0] for the donee to re-descend.
        let (plan, _c, tries) = deep_fixture(&[0, 1, 2, 3, 4, 5, 6, 7, 8], &[0, 4, 8]);
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, None, &mut stats);
        for c in cursors.iter_mut() {
            assert_eq!(c.key(), 0);
            assert!(c.open(&mut stats.access));
        }
        let mut sup = None;
        let mut ctl = Recorder::default();
        try_split_at(&plan, &mut cursors, &mut sup, 1, &[0], &mut ctl, &mut stats);
        assert_eq!(
            ctl.offers,
            vec![(1, vec![0], 8, None)],
            "tail = far half of the children, tagged with the prefix"
        );
        assert_eq!(sup, Some(8), "child range shrank to [0, 8)");
        assert_eq!(stats.splits, 1);
        assert_eq!(stats.deep_splits, 1, "a sub-root handoff is a deep split");
        assert_eq!(stats.split_depth, 1);
        // Donor S was clamped below the boundary at the child level.
        let s = &mut cursors[1];
        assert!(s.next(&mut stats.access));
        assert_eq!(s.key(), 4);
        assert!(!s.next(&mut stats.access), "8 was handed away");
    }

    #[test]
    fn deep_split_validation_probes_are_counted() {
        // Satellite of the root-level probe test: the tail-validation
        // binary searches at depth 1 are charged exactly like the clamp
        // searches at the root.
        let (plan, _c, tries) = deep_fixture(&[0, 1, 2, 3, 4, 5, 6, 7, 8], &[0, 4, 8]);
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, None, &mut stats);
        for c in cursors.iter_mut() {
            assert!(c.open(&mut stats.access));
        }
        let mut sup = None;
        let mut ctl = Recorder::default();
        let before = stats.memory_accesses();
        try_split_at(&plan, &mut cursors, &mut sup, 1, &[0], &mut ctl, &mut stats);
        assert_eq!(stats.splits, 1);
        assert!(
            stats.memory_accesses() > before,
            "deep validation + clamp searches must be tallied"
        );
    }

    #[test]
    fn deep_empty_tail_vetoes_at_its_own_depth() {
        // S's midpoint lands at 20, but R has no child >= 20: the split
        // is rejected and the veto is recorded at depth 1 — not at the
        // root, where lower boundaries must stay probe-able.
        let (plan, _c, tries) = deep_fixture(&[0, 1, 2, 3, 4, 5], &[0, 10, 20]);
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, None, &mut stats);
        for c in cursors.iter_mut() {
            assert!(c.open(&mut stats.access));
        }
        let mut sup = None;
        let mut ctl = Recorder::default();
        try_split_at(&plan, &mut cursors, &mut sup, 1, &[0], &mut ctl, &mut stats);
        assert!(ctl.offers.is_empty(), "empty deep tail must be rejected");
        assert_eq!(sup, None);
        assert_eq!(stats.splits, 0);
        assert!(ctl.vetoed(1, 20) && ctl.vetoed(1, 25));
        assert!(
            !ctl.vetoed(0, 20),
            "the veto is scoped to the donated depth"
        );
    }

    #[test]
    fn bounded_shards_hand_off_within_their_own_sup() {
        // A shard already bounded above splits strictly inside [0, 7):
        // the tail inherits the parent's old sup.
        let (plan, _c, tries) = two_rel_fixture(&[0, 1, 2, 3, 4, 5, 6], &[0, 2, 4, 6]);
        let mut stats = EngineStats::<Counting>::default();
        let mut cursors = root_cursors(&plan, &tries, Some(7), &mut stats);
        let mut root_sup = Some(7);
        let mut ctl = Recorder::default();
        try_split_at(
            &plan,
            &mut cursors,
            &mut root_sup,
            0,
            &[],
            &mut ctl,
            &mut stats,
        );
        assert_eq!(
            ctl.offers,
            vec![(0, vec![], 4, Some(7))],
            "tail ends at the old sup"
        );
        assert_eq!(root_sup, Some(4));
    }

    #[test]
    fn explicit_granularity_wins_and_is_clamped() {
        let c = catalog();
        let plan = triejax_query::CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let tries = TrieSet::build(&plan, &c).unwrap();
        assert_eq!(plan_shards(&plan, &c, &tries, 4, Some(3), false).len(), 3);
        // More shards than root values: clamped, never empty ranges.
        let ranges = plan_shards(&plan, &c, &tries, 4, Some(10_000), false);
        assert_eq!(ranges.len(), 40);
    }
}
