use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// An order-preserving merge of per-lane batch streams.
///
/// `lanes` producers (one per shard, addressed by the shard's submission
/// index) concurrently [`push`](Self::push) batches and eventually
/// [`finish`](Self::finish) their lane; a single consumer
/// [`drain`](Self::drain)s the batches *in lane order*. A batch from lane
/// `k` is handed to the consumer as soon as every lane `< k` has finished
/// and been drained — batches are forwarded while later shards are still
/// running, so the merge buffers only the out-of-order tail instead of
/// materializing every shard's full output.
///
/// The consumer runs on whatever thread calls `drain` (for the join
/// engines: the caller's thread, so the downstream sink needs no `Send`
/// bound).
///
/// # Example
///
/// ```
/// use triejax_exec::OrderedMerge;
///
/// let merge: OrderedMerge<Vec<u32>> = OrderedMerge::new(2);
/// // Lane 1 finishes first; its batch waits for lane 0.
/// merge.push(1, vec![3, 4]);
/// merge.finish(1);
/// merge.push(0, vec![1, 2]);
/// merge.finish(0);
/// let mut out = Vec::new();
/// merge.drain(|batch| out.extend(batch));
/// assert_eq!(out, vec![1, 2, 3, 4]);
/// ```
#[derive(Debug)]
pub struct OrderedMerge<B> {
    state: Mutex<MergeState<B>>,
    ready: Condvar,
}

#[derive(Debug)]
struct MergeState<B> {
    /// Per lane (indexed by lane id): batches pushed but not yet drained.
    pending: Vec<VecDeque<B>>,
    /// Per lane id: no further pushes will arrive.
    finished: Vec<bool>,
    /// The first lane not yet fully drained.
    next: usize,
}

impl<B> OrderedMerge<B> {
    /// Creates a merge over `lanes` producer lanes, drained in id order.
    pub fn new(lanes: usize) -> Self {
        OrderedMerge {
            state: Mutex::new(MergeState {
                pending: (0..lanes).map(|_| VecDeque::new()).collect(),
                finished: vec![false; lanes],
                next: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Number of producer lanes.
    pub fn lanes(&self) -> usize {
        self.state.lock().expect("merge poisoned").pending.len()
    }

    /// Appends a batch to `lane`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or already finished.
    pub fn push(&self, lane: usize, batch: B) {
        // Fault hook before the lock: an injected panic here unwinds
        // with the merge state untouched and unpoisoned, so the
        // producer's RAII lane cleanup (and every other lane) proceeds.
        #[cfg(any(test, feature = "faults"))]
        crate::faults::fire(crate::faults::FaultEvent::MergePush);
        let mut s = self.state.lock().expect("merge poisoned");
        assert!(!s.finished[lane], "push to a finished lane");
        s.pending[lane].push_back(batch);
        if s.next == lane {
            self.ready.notify_one();
        }
    }

    /// Marks `lane` complete: no further [`push`](Self::push)es.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or already finished.
    pub fn finish(&self, lane: usize) {
        let mut s = self.state.lock().expect("merge poisoned");
        assert!(!s.finished[lane], "lane finished twice");
        s.finished[lane] = true;
        if s.next == lane {
            self.ready.notify_one();
        }
    }

    /// Consumes every batch in lane order, blocking until all lanes have
    /// finished and been drained.
    ///
    /// `consume` runs with the merge unlocked, so producers are never
    /// blocked by downstream work.
    pub fn drain(&self, mut consume: impl FnMut(B)) {
        let mut s = self.state.lock().expect("merge poisoned");
        loop {
            let lane = s.next;
            if lane == s.pending.len() {
                return;
            }
            if let Some(batch) = s.pending[lane].pop_front() {
                drop(s);
                consume(batch);
                s = self.state.lock().expect("merge poisoned");
            } else if s.finished[lane] {
                s.next += 1;
            } else {
                s = self.ready.wait(s).expect("merge poisoned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkerPool;

    #[test]
    fn zero_lanes_drains_immediately() {
        let merge: OrderedMerge<Vec<u32>> = OrderedMerge::new(0);
        let mut n = 0;
        merge.drain(|_| n += 1);
        assert_eq!(n, 0);
        assert_eq!(merge.lanes(), 0);
    }

    #[test]
    fn empty_lanes_are_skipped() {
        let merge: OrderedMerge<&'static str> = OrderedMerge::new(3);
        merge.finish(0);
        merge.push(1, "a");
        merge.finish(1);
        merge.finish(2);
        let mut out = Vec::new();
        merge.drain(|b| out.push(b));
        assert_eq!(out, vec!["a"]);
    }

    #[test]
    fn multiple_batches_per_lane_keep_their_order() {
        let merge: OrderedMerge<u32> = OrderedMerge::new(2);
        merge.push(1, 30);
        merge.push(0, 10);
        merge.push(0, 11);
        merge.push(1, 31);
        merge.finish(0);
        merge.finish(1);
        let mut out = Vec::new();
        merge.drain(|b| out.push(b));
        assert_eq!(out, vec![10, 11, 30, 31]);
    }

    #[test]
    #[should_panic(expected = "finished lane")]
    fn push_after_finish_panics() {
        let merge: OrderedMerge<u32> = OrderedMerge::new(1);
        merge.finish(0);
        merge.push(0, 1);
    }

    /// Concurrent producers + a blocking foreground drainer: the canonical
    /// engine topology. Every batch arrives downstream in lane order even
    /// though lanes complete in arbitrary order.
    #[test]
    fn pool_producers_stream_through_in_lane_order() {
        let pool = WorkerPool::with_workers(3);
        let merge: OrderedMerge<Vec<usize>> = OrderedMerge::new(20);
        let tasks: Vec<usize> = (0..20).collect();
        let mut drained: Vec<usize> = Vec::new();
        let (_, ()) = pool.run_with_foreground(
            &tasks,
            |_ctx, lane, &t| {
                merge.push(lane, vec![t * 2]);
                merge.push(lane, vec![t * 2 + 1]);
                merge.finish(lane);
            },
            || merge.drain(|batch| drained.extend(batch)),
        );
        assert_eq!(drained, (0..40).collect::<Vec<_>>());
    }
}
