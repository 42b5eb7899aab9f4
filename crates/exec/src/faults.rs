//! Deterministic fault injection for the parallel runtime.
//!
//! Compiled only under `cfg(test)` or the `faults` cargo feature, this
//! module lets tests force panics and delays at precise points of a pool
//! run: an installed [`FaultPlan`] matches runtime events by `(worker,
//! event, ordinal)` and fires each matching rule exactly once. Plans can be written out explicitly or derived from
//! a seed ([`FaultPlan::from_seed`]), so a failing schedule replays
//! exactly from its seed alone.
//!
//! The instrumented sites (see [`FaultEvent`]) call [`fire`], which
//! applies the matched action in place; [`on_event`] only reports the
//! match. With no plan installed every hook is a single mutex-guarded
//! `Option` check, and in non-test builds without the `faults` feature
//! the hooks do not exist at all.
//!
//! Installation is process-global and serialized: [`install`] holds a
//! static lock for the lifetime of the returned [`FaultGuard`], so
//! concurrently running tests cannot see each other's plans.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A runtime event at which a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultEvent {
    /// A worker begins executing a claimed task.
    TaskStart,
    /// A worker steals a task from a sibling's queue.
    Steal,
    /// A worker is about to publish a computed entry into a shared cache.
    CacheInsert,
    /// A producer is about to push a batch into an ordered merge lane.
    MergePush,
    /// A trie build is about to run (one per distinct `(relation, perm)`
    /// build of a `TrieSet`, fired before any partition task starts).
    TrieBuild,
    /// A session mutation batch is about to commit: fired after the new
    /// delta state is fully computed, before it is swapped in. A panic
    /// here must leave the session at its prior epoch (apply atomicity).
    DeltaApply,
}

/// What happens when a rule matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Panic at the event site (the payload contains
    /// `"injected fault"`).
    Panic,
    /// Sleep for the given number of milliseconds — widens race windows
    /// deterministically.
    Delay(u64),
}

/// One injection rule: fire `action` on the `ordinal`-th occurrence
/// (0-based, counted per `(worker, event)`) of `event`, optionally
/// restricted to one worker. Each rule fires at most once per install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Restrict to this worker id; `None` matches any worker.
    pub worker: Option<usize>,
    /// The event to intercept.
    pub event: FaultEvent,
    /// Which occurrence (0-based) of `event` on the matched worker fires
    /// the rule.
    pub ordinal: u64,
    /// The injected behaviour.
    pub action: FaultAction,
}

/// A set of [`FaultRule`]s to install for one test run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one rule (builder-style).
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Derives a small plan deterministically from `seed`: one to three
    /// rules drawn over `events`, early ordinals, and the given worker
    /// count (or any-worker). The same seed always yields the same plan,
    /// so a failure found by a seed sweep replays from the seed alone.
    pub fn from_seed(seed: u64, events: &[FaultEvent], workers: usize) -> Self {
        assert!(!events.is_empty(), "need at least one candidate event");
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || splitmix64(&mut state);
        let rules = 1 + (next() % 3) as usize;
        let mut plan = FaultPlan::new();
        for _ in 0..rules {
            let event = events[(next() % events.len() as u64) as usize];
            let worker = if workers > 0 && next() % 2 == 0 {
                Some((next() % workers as u64) as usize)
            } else {
                None
            };
            // Two draws in three panic, one delays.
            let action = match next() % 3 {
                1 => FaultAction::Delay(1 + next() % 8),
                _ => FaultAction::Panic,
            };
            plan = plan.rule(FaultRule {
                worker,
                event,
                ordinal: next() % 4,
                action,
            });
        }
        plan
    }

    /// The plan's rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

/// `splitmix64` step — the standard seed-expansion permutation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The installed plan plus its runtime state: per-`(worker, event)`
/// occurrence counters and a once-latch per rule.
#[derive(Debug)]
struct Active {
    plan: FaultPlan,
    counts: Mutex<HashMap<(usize, FaultEvent), u64>>,
    fired: Vec<AtomicBool>,
}

static ACTIVE: Mutex<Option<Arc<Active>>> = Mutex::new(None);
static SERIAL: Mutex<()> = Mutex::new(());

std::thread_local! {
    /// The pool worker id of the current thread; [`NOT_A_WORKER`] on
    /// threads that never ran a pool task (e.g. the foreground drain).
    static WORKER: std::cell::Cell<usize> = const { std::cell::Cell::new(NOT_A_WORKER) };
}

/// Worker id reported for threads outside any pool run.
pub const NOT_A_WORKER: usize = usize::MAX;

/// Records the current thread's pool worker id for fault matching; the
/// pool calls this when a worker thread starts.
pub fn set_worker(id: usize) {
    WORKER.with(|w| w.set(id));
}

/// The current thread's recorded worker id.
pub fn current_worker() -> usize {
    WORKER.with(std::cell::Cell::get)
}

/// Keeps an installed [`FaultPlan`] active; dropping it uninstalls the
/// plan and releases the global serialization lock.
#[derive(Debug)]
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *ACTIVE.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Installs `plan` process-wide until the returned guard is dropped.
/// Blocks while another plan is installed (tests self-serialize).
pub fn install(plan: FaultPlan) -> FaultGuard {
    let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let fired = plan.rules.iter().map(|_| AtomicBool::new(false)).collect();
    *ACTIVE.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(Active {
        plan,
        counts: Mutex::new(HashMap::new()),
        fired,
    }));
    FaultGuard { _serial: serial }
}

/// Reports `event` on the current thread and returns the matched action,
/// if any, consuming the matching rule's once-latch. Sites go through
/// [`fire`], which applies it.
pub fn on_event(event: FaultEvent) -> Option<FaultAction> {
    let active = ACTIVE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    let worker = current_worker();
    let seen = {
        let mut counts = active.counts.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = counts.entry((worker, event)).or_insert(0);
        let seen = *slot;
        *slot += 1;
        seen
    };
    for (i, rule) in active.plan.rules.iter().enumerate() {
        if rule.event == event
            && rule.ordinal == seen
            && rule.worker.is_none_or(|w| w == worker)
            && !active.fired[i].swap(true, Ordering::SeqCst)
        {
            return Some(rule.action);
        }
    }
    None
}

/// Reports `event` and applies the matched action in place: `Panic`
/// panics (payload contains `"injected fault"`), `Delay` sleeps.
pub fn fire(event: FaultEvent) {
    match on_event(event) {
        Some(FaultAction::Panic) => {
            panic!("injected fault: {event:?} on worker {}", current_worker());
        }
        Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_means_no_action() {
        let _guard = install(FaultPlan::new());
        assert_eq!(on_event(FaultEvent::TaskStart), None);
        fire(FaultEvent::MergePush); // must be a no-op, not a panic
    }

    #[test]
    fn ordinal_and_worker_matching_fires_exactly_once() {
        let _guard = install(FaultPlan::new().rule(FaultRule {
            worker: Some(3),
            event: FaultEvent::CacheInsert,
            ordinal: 1,
            action: FaultAction::Delay(0),
        }));
        set_worker(3);
        assert_eq!(on_event(FaultEvent::CacheInsert), None, "ordinal 0");
        assert_eq!(
            on_event(FaultEvent::CacheInsert),
            Some(FaultAction::Delay(0)),
            "ordinal 1 fires"
        );
        assert_eq!(on_event(FaultEvent::CacheInsert), None, "once-latch");
        set_worker(NOT_A_WORKER);
    }

    #[test]
    fn other_workers_do_not_match_a_pinned_rule() {
        let _guard = install(FaultPlan::new().rule(FaultRule {
            worker: Some(7),
            event: FaultEvent::Steal,
            ordinal: 0,
            action: FaultAction::Panic,
        }));
        set_worker(2);
        assert_eq!(on_event(FaultEvent::Steal), None);
        set_worker(NOT_A_WORKER);
    }

    #[test]
    fn fire_panics_with_a_recognizable_payload() {
        let _guard = install(FaultPlan::new().rule(FaultRule {
            worker: None,
            event: FaultEvent::TaskStart,
            ordinal: 0,
            action: FaultAction::Panic,
        }));
        let err = std::panic::catch_unwind(|| fire(FaultEvent::TaskStart))
            .expect_err("the rule must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "got: {msg}");
    }

    #[test]
    fn seeded_plans_replay_exactly() {
        let events = [
            FaultEvent::TaskStart,
            FaultEvent::Steal,
            FaultEvent::MergePush,
        ];
        for seed in 0..50u64 {
            let a = FaultPlan::from_seed(seed, &events, 4);
            let b = FaultPlan::from_seed(seed, &events, 4);
            assert_eq!(a.rules(), b.rules(), "seed {seed} must replay");
            assert!(!a.rules().is_empty());
        }
    }

    #[test]
    fn dropping_the_guard_uninstalls_the_plan() {
        {
            let _guard = install(FaultPlan::new().rule(FaultRule {
                worker: None,
                event: FaultEvent::MergePush,
                ordinal: 0,
                action: FaultAction::Panic,
            }));
        }
        // Fresh guard: the old plan must be gone, not latent.
        let _guard = install(FaultPlan::new());
        assert_eq!(on_event(FaultEvent::MergePush), None);
    }
}
