use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use triejax_exec::OrderedMerge;
use triejax_relation::Value;

/// Consumer of join results.
///
/// Engines emit each result tuple in the *head* variable order of the
/// query, independently of the evaluation order, so different engines (and
/// different variable orders) produce comparable streams.
pub trait ResultSink {
    /// Receives one result tuple.
    fn push(&mut self, tuple: &[Value]);

    /// Receives a batch of result tuples, in stream order — the
    /// convenience flavour for callers whose tuples are not stored
    /// contiguously. The engines' own hot paths emit through
    /// [`push_rows`](Self::push_rows) (flat storage) or plain
    /// [`push`](Self::push); override this only if batch callers matter
    /// for your sink.
    ///
    /// The default forwards tuple-by-tuple to [`push`](Self::push).
    fn push_batch(&mut self, tuples: &[&[Value]]) {
        for t in tuples {
            self.push(t);
        }
    }

    /// Receives a batch of `arity`-wide tuples stored contiguously — the
    /// allocation-free bulk path the drivers' emit buffers and the
    /// parallel merge drain use (their batches are flat row storage
    /// already, so no per-flush vector of slice refs is needed). **This
    /// is the override that matters for throughput.**
    ///
    /// The default forwards tuple-by-tuple to [`push`](Self::push).
    fn push_rows(&mut self, rows: &[Value], arity: usize) {
        for t in rows.chunks_exact(arity.max(1)) {
            self.push(t);
        }
    }
}

/// Counts results without storing them — the usual sink for benchmarks,
/// where result sets can be large.
///
/// # Example
///
/// ```
/// use triejax_join::{CountSink, ResultSink};
///
/// let mut sink = CountSink::default();
/// sink.push(&[1, 2, 3]);
/// sink.push(&[4, 5, 6]);
/// assert_eq!(sink.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountSink {
    count: u64,
}

impl CountSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuples received.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl ResultSink for CountSink {
    fn push(&mut self, _tuple: &[Value]) {
        self.count += 1;
    }

    fn push_batch(&mut self, tuples: &[&[Value]]) {
        self.count += tuples.len() as u64;
    }

    fn push_rows(&mut self, rows: &[Value], arity: usize) {
        self.count += (rows.len() / arity.max(1)) as u64;
    }
}

/// Collects all results; used by tests that compare engines tuple-by-tuple.
///
/// [`CollectSink::into_sorted`] returns the tuples in lexicographic order so
/// engines with different emission orders can be compared directly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollectSink {
    tuples: Vec<Vec<Value>>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected tuples in emission order.
    pub fn tuples(&self) -> &[Vec<Value>] {
        &self.tuples
    }

    /// Consumes the sink, returning tuples sorted lexicographically.
    pub fn into_sorted(mut self) -> Vec<Vec<Value>> {
        self.tuples.sort_unstable();
        self.tuples
    }

    /// Number of tuples received.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Returns `true` when no tuples were received.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

impl ResultSink for CollectSink {
    fn push(&mut self, tuple: &[Value]) {
        self.tuples.push(tuple.to_vec());
    }

    fn push_batch(&mut self, tuples: &[&[Value]]) {
        self.tuples.reserve(tuples.len());
        self.tuples.extend(tuples.iter().map(|t| t.to_vec()));
    }

    fn push_rows(&mut self, rows: &[Value], arity: usize) {
        let arity = arity.max(1);
        self.tuples.reserve(rows.len() / arity);
        self.tuples
            .extend(rows.chunks_exact(arity).map(<[Value]>::to_vec));
    }
}

/// Per-shard sink of the parallel engines: buffers a worker's result rows
/// into fixed-size batches and flushes them to an [`OrderedMerge`] lane,
/// so the foreground drainer can forward results downstream *while later
/// shards are still running* — no shard ever materializes its full result.
///
/// Dropping the sink flushes the final partial batch and closes the lane
/// (so a panicking shard still unblocks the drainer);
/// [`finish`](Self::finish) does the same explicitly.
///
/// # Example
///
/// ```
/// use triejax_exec::OrderedMerge;
/// use triejax_join::{ResultSink, ShardSink};
///
/// let merge = OrderedMerge::new(2);
/// // Shard 1 completes first; its rows wait for shard 0.
/// ShardSink::new(&merge, 1, 2).push(&[9, 9]);
/// ShardSink::new(&merge, 0, 2).push(&[1, 1]);
/// let mut rows = Vec::new();
/// merge.drain(|batch| rows.extend(batch));
/// assert_eq!(rows, vec![1, 1, 9, 9]);
/// ```
#[derive(Debug)]
pub struct ShardSink<'m> {
    merge: &'m OrderedMerge<Vec<Value>>,
    lane: usize,
    arity: usize,
    /// Flush threshold in values (rows x arity).
    batch_values: usize,
    buf: Vec<Value>,
}

impl<'m> ShardSink<'m> {
    /// Rows per batch unless overridden: large enough to amortize the
    /// merge lock, small enough to keep the drainer streaming.
    pub const DEFAULT_BATCH_ROWS: usize = 256;

    /// Sink feeding `lane` of `merge` with `arity`-wide tuples.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0`.
    pub fn new(merge: &'m OrderedMerge<Vec<Value>>, lane: usize, arity: usize) -> Self {
        Self::with_batch_rows(merge, lane, arity, Self::DEFAULT_BATCH_ROWS)
    }

    /// Sink with an explicit batch size in rows.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0` or `batch_rows == 0`.
    fn with_batch_rows(
        merge: &'m OrderedMerge<Vec<Value>>,
        lane: usize,
        arity: usize,
        batch_rows: usize,
    ) -> Self {
        assert!(arity > 0, "tuples must have at least one column");
        assert!(batch_rows > 0, "batches must hold at least one row");
        ShardSink {
            merge,
            lane,
            arity,
            batch_values: batch_rows * arity,
            buf: Vec::with_capacity(batch_rows * arity),
        }
    }

    /// Flushes any buffered rows and closes the lane (equivalent to
    /// dropping the sink, made explicit for readability at call sites).
    pub fn finish(self) {}

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch_values));
            self.merge.push(self.lane, batch);
        }
    }
}

impl ResultSink for ShardSink<'_> {
    fn push(&mut self, tuple: &[Value]) {
        debug_assert_eq!(tuple.len(), self.arity);
        self.buf.extend_from_slice(tuple);
        if self.buf.len() >= self.batch_values {
            self.flush();
        }
    }

    /// Bulk path: append the whole batch, then check the threshold once
    /// (a flushed batch may exceed the configured size — it's a target,
    /// not a bound — in exchange for no per-tuple bookkeeping).
    fn push_batch(&mut self, tuples: &[&[Value]]) {
        self.buf.reserve(tuples.len() * self.arity);
        for t in tuples {
            debug_assert_eq!(t.len(), self.arity);
            self.buf.extend_from_slice(t);
        }
        if self.buf.len() >= self.batch_values {
            self.flush();
        }
    }

    fn push_rows(&mut self, rows: &[Value], arity: usize) {
        debug_assert_eq!(arity, self.arity);
        debug_assert_eq!(rows.len() % self.arity, 0);
        self.buf.extend_from_slice(rows);
        if self.buf.len() >= self.batch_values {
            self.flush();
        }
    }
}

impl Drop for ShardSink<'_> {
    fn drop(&mut self) {
        // When the shard body panicked, only the lane close matters (it
        // unblocks the drainer); flushing would hand the truncated
        // mid-shard buffer downstream as if it were valid output. A flush
        // that panics itself still closes the lane before unwinding on.
        let flushed =
            (!std::thread::panicking()).then(|| catch_unwind(AssertUnwindSafe(|| self.flush())));
        self.merge.finish(self.lane);
        if let Some(Err(payload)) = flushed {
            resume_unwind(payload);
        }
    }
}

/// Driver-side emission helper: writes each result row in head order,
/// gathering the driver's binding through `order`, and forwards the rows
/// to the sink in batches through [`ResultSink::push_rows`], taking the
/// virtual call out of the per-tuple path. Drivers must
/// [`flush`](Self::flush) before returning.
///
/// Two other modes. [`passthrough`](Self::passthrough) hands every row
/// straight to `sink.push`: the parallel engines use it because their
/// drivers already write into a [`ShardSink`] that batches, and a second
/// same-sized buffer in front of it would just copy every row twice.
/// [`collect`](Self::collect) keeps every row for the owner to
/// [take](Self::take_rows): a one-worker stream's refill, whose buffer is
/// the batch its consumer reads.
#[derive(Debug)]
pub(crate) struct BatchEmitter {
    /// Head slot → the binding depth whose value it shows.
    order: Vec<usize>,
    /// Flush threshold in values; [`PASSTHROUGH`] and [`COLLECT`] mark
    /// the other two modes.
    batch_values: usize,
    rows: Vec<Value>,
}

/// [`BatchEmitter::batch_values`] of the passthrough mode.
const PASSTHROUGH: usize = 0;
/// [`BatchEmitter::batch_values`] of the collecting mode: never reached.
const COLLECT: usize = usize::MAX;

impl BatchEmitter {
    pub(crate) fn new(order: Vec<usize>) -> Self {
        let batch_values = ShardSink::DEFAULT_BATCH_ROWS * order.len().max(1);
        BatchEmitter {
            order,
            batch_values,
            rows: Vec::new(),
        }
    }

    /// Switches to passthrough: every tuple goes straight to `sink.push`.
    pub(crate) fn passthrough(&mut self) {
        debug_assert!(self.rows.is_empty(), "switch modes before emitting");
        self.batch_values = PASSTHROUGH;
    }

    /// Switches to collecting into `rows`: nothing reaches a sink, and
    /// [`take_rows`](Self::take_rows) hands the rows back.
    pub(crate) fn collect(&mut self, rows: Vec<Value>) {
        debug_assert!(self.rows.is_empty(), "switch modes before emitting");
        self.batch_values = COLLECT;
        self.rows = rows;
    }

    /// The rows collected so far, leaving the buffer empty.
    pub(crate) fn take_rows(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.rows)
    }

    /// Emits the row `binding` shows in head order.
    #[inline]
    pub(crate) fn push(&mut self, binding: &[Value], sink: &mut dyn ResultSink) {
        self.rows.extend(self.order.iter().map(|&d| binding[d]));
        if self.batch_values == PASSTHROUGH {
            sink.push(&self.rows);
            self.rows.clear();
        } else if self.rows.len() >= self.batch_values {
            self.flush(sink);
        }
    }

    pub(crate) fn flush(&mut self, sink: &mut dyn ResultSink) {
        if self.rows.is_empty() || self.batch_values == COLLECT {
            return;
        }
        sink.push_rows(&self.rows, self.order.len());
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_batch_defaults_and_overrides_agree() {
        let rows: Vec<&[Value]> = vec![&[1, 2], &[3, 4], &[5, 6]];
        let mut count = CountSink::new();
        count.push_batch(&rows);
        assert_eq!(count.count(), 3);
        let mut collect = CollectSink::new();
        collect.push_batch(&rows);
        assert_eq!(collect.tuples(), &[vec![1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn shard_sink_batches_and_preserves_lane_order() {
        let merge = OrderedMerge::new(2);
        {
            let mut late = ShardSink::with_batch_rows(&merge, 1, 2, 2);
            late.push(&[7, 8]);
            late.push(&[9, 10]); // second row triggers a mid-stream flush
            late.push(&[11, 12]);
            late.finish();
            let mut early = ShardSink::new(&merge, 0, 2);
            early.push(&[1, 2]);
            // Dropped without finish(): the Drop impl flushes and closes.
        }
        let mut rows: Vec<Value> = Vec::new();
        merge.drain(|batch| rows.extend(batch));
        assert_eq!(rows, vec![1, 2, 7, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn panicking_shard_closes_its_lane_without_flushing_partial_rows() {
        let merge = OrderedMerge::new(1);
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let mut sink = ShardSink::new(&merge, 0, 2);
                sink.push(&[1, 2]);
                panic!("shard died mid-run");
            })
            .join()
        });
        assert!(result.is_err());
        let mut rows: Vec<Value> = Vec::new();
        merge.drain(|b| rows.extend(b)); // lane was closed: no hang...
        assert!(rows.is_empty(), "...and no truncated output leaked");
    }

    #[test]
    fn push_rows_default_and_overrides_agree() {
        let rows: &[Value] = &[1, 2, 3, 4, 5, 6];
        let mut count = CountSink::new();
        count.push_rows(rows, 2);
        assert_eq!(count.count(), 3);
        let mut collect = CollectSink::new();
        collect.push_rows(rows, 3);
        assert_eq!(collect.tuples(), &[vec![1, 2, 3], vec![4, 5, 6]]);
        let merge = OrderedMerge::new(1);
        ShardSink::new(&merge, 0, 2).push_rows(rows, 2);
        let mut drained: Vec<Value> = Vec::new();
        merge.drain(|batch| drained.extend(batch));
        assert_eq!(drained, rows);
    }

    #[test]
    fn passthrough_emitter_skips_buffering() {
        let mut emitter = BatchEmitter::new(vec![0, 1]);
        emitter.passthrough();
        let mut sink = CollectSink::new();
        emitter.push(&[1, 2], &mut sink);
        assert_eq!(sink.len(), 1, "no buffering in passthrough mode");
        emitter.flush(&mut sink); // nothing pending
        assert_eq!(sink.tuples(), &[vec![1, 2]]);
    }

    #[test]
    fn batch_emitter_flushes_complete_rows() {
        let mut emitter = BatchEmitter::new(vec![0, 1, 2]);
        let mut sink = CollectSink::new();
        emitter.push(&[1, 2, 3], &mut sink);
        emitter.push(&[4, 5, 6], &mut sink);
        assert!(sink.is_empty(), "buffered until flushed");
        emitter.flush(&mut sink);
        assert_eq!(sink.tuples(), &[vec![1, 2, 3], vec![4, 5, 6]]);
        emitter.flush(&mut sink); // empty flush is a no-op
        assert_eq!(sink.len(), 2);
    }

    /// Rows come out in head order whatever order the binding is in, and a
    /// collecting emitter keeps them from the sink for its owner.
    #[test]
    fn emitters_gather_head_order_and_collect_for_their_owner() {
        let mut emitter = BatchEmitter::new(vec![2, 0, 1]);
        emitter.collect(vec![9]);
        let mut sink = CollectSink::new();
        emitter.push(&[1, 2, 3], &mut sink);
        emitter.flush(&mut sink);
        assert!(sink.is_empty(), "collected rows never reach the sink");
        assert_eq!(emitter.take_rows(), vec![9, 3, 1, 2]);
        assert!(emitter.take_rows().is_empty());
    }

    /// Drains `merge` on its own thread: the rows, or `None` when the drain
    /// is still blocked after a few seconds on a lane nobody finished.
    #[cfg(feature = "faults")]
    fn drain_within(merge: std::sync::Arc<OrderedMerge<Vec<Value>>>) -> Option<Vec<Value>> {
        let (tx, rx) = std::sync::mpsc::channel();
        // Joined only when it finishes in time: a blocked drain cannot be.
        let drainer = std::thread::spawn(move || {
            let mut rows = Vec::new();
            merge.drain(|b| rows.extend(b));
            let _ = tx.send(rows);
        });
        let rows = rx.recv_timeout(std::time::Duration::from_secs(5)).ok()?;
        drainer.join().expect("the drain does not panic");
        Some(rows)
    }

    /// A final flush that panics inside the merge push still closes the
    /// lane, so the drain ends.
    #[cfg(feature = "faults")]
    #[test]
    fn a_panicking_final_flush_still_closes_the_lane() {
        use crate::faults::{self, FaultAction, FaultEvent, FaultPlan, FaultRule};
        use std::sync::Arc;

        // A worker id no pool uses, so sibling tests' pushes never match.
        const ME: usize = 7_919;
        faults::set_worker(ME);
        let merge = Arc::new(OrderedMerge::new(1));
        let guard = faults::install(FaultPlan::new().rule(FaultRule {
            worker: Some(ME),
            event: FaultEvent::MergePush,
            ordinal: 0,
            action: FaultAction::Panic,
        }));
        let dropped = catch_unwind(AssertUnwindSafe(|| {
            ShardSink::new(&merge, 0, 1).push(&[1]);
        }));
        drop(guard);
        faults::set_worker(faults::NOT_A_WORKER);
        assert!(dropped.is_err(), "the final flush panicked");
        assert_eq!(drain_within(merge), Some(vec![]), "drop closed the lane");
    }

    #[test]
    fn collect_sink_sorts() {
        let mut s = CollectSink::new();
        s.push(&[3, 1]);
        s.push(&[1, 2]);
        s.push(&[1, 1]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.into_sorted(), vec![vec![1, 1], vec![1, 2], vec![3, 1]]);
    }
}
