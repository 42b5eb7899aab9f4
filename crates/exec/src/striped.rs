use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// Lock-striped shared state: one value of `T` per *stripe*, each behind
/// its own [`Mutex`], addressed by a caller-supplied hash.
///
/// This is the concurrency primitive behind shared runtime caches (most
/// prominently the shared partial-join-result cache of
/// `triejax_join::ParCtj`): instead of one global lock that every worker
/// serializes on, state is partitioned into many independent lanes, so two
/// workers collide only when their keys hash to the same stripe. The
/// stripe count is rounded up to a power of two so lane selection is a
/// mask, not a division.
///
/// Stripe selection is **hash-determined, never worker-determined**: a
/// worker must find the entries its siblings published, so the same key
/// has to map to the same stripe no matter which worker asks. Worker
/// identity matters only for sizing — [`suggested_stripes`] overshards
/// relative to the worker count so collisions stay rare — and for
/// attributing the contention that [`lock`](Striped::lock) reports.
///
/// # Example
///
/// ```
/// use triejax_exec::Striped;
///
/// let counters: Striped<u64> = Striped::with_stripes(4, || 0);
/// let (mut lane, contended) = counters.lock(0x9e3779b97f4a7c15);
/// *lane += 1;
/// assert!(!contended); // nobody else held the stripe
/// drop(lane);
/// assert_eq!(*counters.lock(0x9e3779b97f4a7c15).0, 1);
/// ```
#[derive(Debug)]
pub struct Striped<T> {
    lanes: Box<[Mutex<T>]>,
}

impl<T> Striped<T> {
    /// Creates a striped value with `stripes` lanes (rounded up to the
    /// next power of two, minimum 1), each initialized by `init`.
    pub fn with_stripes(stripes: usize, mut init: impl FnMut() -> T) -> Self {
        let n = stripes.max(1).next_power_of_two();
        Striped {
            lanes: (0..n).map(|_| Mutex::new(init())).collect(),
        }
    }

    /// The stripe index owning `hash`.
    fn lane(&self, hash: u64) -> usize {
        (hash & (self.lanes.len() as u64 - 1)) as usize
    }

    /// Locks the stripe owning `hash`; the boolean reports whether the
    /// lock was *contended* — another thread held it when we arrived, so
    /// the acquisition had to wait. Callers surface that as a contention
    /// counter (e.g. `EngineStats::cache_contention`).
    ///
    /// Poisoning is recovered from, not propagated: a sibling worker
    /// that panicked while holding a stripe must not cascade its failure
    /// into every survivor (the pool already captures and re-throws the
    /// original panic). Callers keep stripe values panic-consistent by
    /// ordering their mutations so any intermediate state is valid —
    /// see the shared PJR cache's publish path.
    pub fn lock(&self, hash: u64) -> (MutexGuard<'_, T>, bool) {
        let lane = &self.lanes[self.lane(hash)];
        match lane.try_lock() {
            Ok(guard) => (guard, false),
            Err(TryLockError::WouldBlock) => {
                (lane.lock().unwrap_or_else(PoisonError::into_inner), true)
            }
            Err(TryLockError::Poisoned(poisoned)) => (poisoned.into_inner(), false),
        }
    }

    /// Iterates over every stripe's value. Requires `&mut self`, which
    /// proves no worker still holds a lane — the teardown/inspection path
    /// once a parallel run has joined. Stripes poisoned by a panicked
    /// worker are recovered, matching [`lock`](Self::lock).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.lanes
            .iter_mut()
            .map(|m| m.get_mut().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Suggested stripe count for `workers` concurrent workers: 4x the worker
/// count (rounded up to a power of two, capped at 256) so that even with
/// every worker inside the structure at once, the probability of two of
/// them needing the same stripe stays low.
pub fn suggested_stripes(workers: usize) -> usize {
    workers
        .max(1)
        .saturating_mul(4)
        .next_power_of_two()
        .min(256)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_count_rounds_up_to_a_power_of_two() {
        let stripes = |n| Striped::with_stripes(n, || 0u32).lanes.len();
        assert_eq!(stripes(1), 1);
        assert_eq!(stripes(3), 4);
        assert_eq!(stripes(8), 8);
        assert_eq!(stripes(0), 1);
    }

    #[test]
    fn lane_selection_is_stable_and_in_range() {
        let s: Striped<()> = Striped::with_stripes(8, || ());
        for h in [0u64, 1, 7, 8, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            let lane = s.lane(h);
            assert!(lane < s.lanes.len());
            assert_eq!(lane, s.lane(h), "same hash, same lane");
        }
        // With a power-of-two lane count the mask uses the low bits.
        assert_ne!(s.lane(0), s.lane(1));
    }

    #[test]
    fn uncontended_lock_reports_no_contention() {
        let s = Striped::with_stripes(2, || 41u32);
        let (mut g, contended) = s.lock(5);
        assert!(!contended);
        *g += 1;
        drop(g);
        let (g, _) = s.lock(5);
        assert_eq!(*g, 42);
    }

    #[test]
    fn contended_lock_is_detected() {
        let s = Striped::with_stripes(1, || 0u64);
        let hits = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        let (mut g, contended) = s.lock(0);
                        *g += 1;
                        if contended {
                            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let mut s = s;
        assert_eq!(s.iter_mut().map(|v| *v).sum::<u64>(), 2000);
        // Contention is scheduling-dependent; on a single hammered stripe
        // at least the total must be consistent (no assertion on > 0).
    }

    #[test]
    fn iter_mut_visits_every_stripe() {
        let mut s = Striped::with_stripes(4, || 1u32);
        for v in s.iter_mut() {
            *v += 1;
        }
        let total: u32 = s.iter_mut().map(|v| *v).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn suggested_stripes_overshards_and_caps() {
        assert_eq!(suggested_stripes(1), 4);
        assert_eq!(suggested_stripes(2), 8);
        assert_eq!(suggested_stripes(3), 16, "rounds 12 up to a power of two");
        assert_eq!(suggested_stripes(0), 4, "degenerate worker counts clamp");
        assert_eq!(suggested_stripes(1_000_000), 256, "capped");
    }
}
