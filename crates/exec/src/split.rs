use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Shared scheduling state of one [`crate::WorkerPool::run_spawning`]
/// invocation: per-worker queues plus the counters that make dynamic task
/// submission terminate correctly.
///
/// The counter protocol: a task is *pending* from submission until a
/// worker claims it and *running* from claim until completion. A claim
/// increments `running` **before** decrementing `pending`, and a spawn
/// increments `pending` **before** enqueueing, so `pending + running`
/// never transiently undercounts live work — which makes
/// "`pending == 0 && running == 0`" a sound termination test even while
/// tasks are being handed between queues and workers.
pub(crate) struct SpawnState<T> {
    /// Per-worker task queues: the owner pops from the front, siblings
    /// steal from the back.
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Tasks submitted but not yet claimed by a worker.
    pending: AtomicUsize,
    /// Tasks claimed and currently executing.
    running: AtomicUsize,
    /// Tasks submitted through [`Spawner::spawn`] (seeds excluded).
    spawned: AtomicU64,
    /// Tasks obtained by stealing from a sibling's queue.
    steals: AtomicU64,
    /// Parking lot for idle workers; `spawn` and the final completion
    /// notify through it. Checking the counters and entering the wait
    /// both happen under `gate`, so a wakeup can never be missed.
    gate: Mutex<()>,
    bell: Condvar,
}

impl<T> SpawnState<T> {
    /// State for `workers` workers, seeded round-robin with `seeds`.
    pub(crate) fn new(workers: usize, seeds: Vec<T>) -> Self {
        let queues: Vec<Mutex<VecDeque<T>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let pending = seeds.len();
        for (i, task) in seeds.into_iter().enumerate() {
            queues[i % workers]
                .lock()
                .expect("queue poisoned")
                .push_back(task);
        }
        SpawnState {
            queues,
            pending: AtomicUsize::new(pending),
            running: AtomicUsize::new(0),
            spawned: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            gate: Mutex::new(()),
            bell: Condvar::new(),
        }
    }

    /// Claims a task for `worker`: own queue front first, then sibling
    /// backs. On success the task is accounted as running.
    pub(crate) fn claim(&self, worker: usize) -> Option<T> {
        let n = self.queues.len();
        let mut task = self.queues[worker]
            .lock()
            .expect("queue poisoned")
            .pop_front();
        if task.is_none() {
            // Fault hook *before* any victim pop: a worker injected to
            // die here holds no task, so pending/running stay accurate
            // and the survivors drain every queue (no hang, no lost
            // lane).
            #[cfg(any(test, feature = "faults"))]
            crate::faults::fire(crate::faults::FaultEvent::Steal);
            for k in 1..n {
                let victim = (worker + k) % n;
                let stolen = self.queues[victim]
                    .lock()
                    .expect("queue poisoned")
                    .pop_back();
                if stolen.is_some() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    task = stolen;
                    break;
                }
            }
        }
        let task = task?;
        // running before pending: `pending + running` must never dip
        // below the number of live tasks (see the struct docs).
        self.running.fetch_add(1, Ordering::SeqCst);
        self.pending.fetch_sub(1, Ordering::SeqCst);
        Some(task)
    }

    /// Marks a claimed task complete; wakes every parked worker when it
    /// was the last live task so they can observe termination.
    pub(crate) fn complete(&self) {
        if self.running.fetch_sub(1, Ordering::SeqCst) == 1
            && self.pending.load(Ordering::SeqCst) == 0
        {
            let _gate = self.gate.lock().expect("gate poisoned");
            self.bell.notify_all();
        }
    }

    /// Parks until work may be available again. Returns `false` when the
    /// run has terminated (no pending or running task anywhere).
    pub(crate) fn wait_for_work(&self) -> bool {
        let mut gate = self.gate.lock().expect("gate poisoned");
        loop {
            if self.pending.load(Ordering::SeqCst) > 0 {
                return true;
            }
            if self.running.load(Ordering::SeqCst) == 0 {
                return false;
            }
            gate = self.bell.wait(gate).expect("gate poisoned");
        }
    }

    pub(crate) fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::SeqCst)
    }

    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::SeqCst)
    }
}

/// Handle through which a running task submits new tasks to its own pool
/// run. Every task invoked by [`crate::WorkerPool::run_spawning`] receives
/// one.
pub struct Spawner<'s, T> {
    state: &'s SpawnState<T>,
    worker: usize,
}

impl<'s, T> Spawner<'s, T> {
    pub(crate) fn new(state: &'s SpawnState<T>, worker: usize) -> Self {
        Spawner { state, worker }
    }

    /// Submits a new task to this run. The task lands on the spawning
    /// worker's own queue, where an idle sibling steals it; a parked
    /// worker is woken.
    pub fn spawn(&self, task: T) {
        self.state.spawned.fetch_add(1, Ordering::Relaxed);
        // pending before enqueue: the task must be counted before it can
        // be claimed (see the SpawnState docs).
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        self.state.queues[self.worker]
            .lock()
            .expect("queue poisoned")
            .push_back(task);
        let _gate = self.state.gate.lock().expect("gate poisoned");
        self.state.bell.notify_one();
    }
}

impl<T> std::fmt::Debug for Spawner<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spawner")
            .field("worker", &self.worker)
            .finish()
    }
}
