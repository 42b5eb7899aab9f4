//! Query governance: cancellation, deadlines and result-row quotas,
//! cheaply pollable from every worker of a parallel run.
//!
//! A [`RunBudget`] is the shared governance state of one query run:
//! a sticky cancellation flag (first tripped reason wins), an optional
//! wall-clock deadline and an optional result-row quota. It is shared as
//! an `Arc` by every pool task and the merge drain, and polled at the
//! natural boundaries of every engine loop.
//!
//! An engine holds its budget as a value, `Option<BudgetHandle>`: `None`
//! when nothing governs the run, so an ungoverned run pays one branch per
//! check and touches no shared state. A governed run holds a
//! [`BudgetHandle`], whose hot path is a single atomic load with a
//! periodic deadline/external refresh.
//!
//! # Example
//!
//! ```
//! use triejax_exec::{BudgetHandle, CancelReason, RunBudget};
//! use std::sync::Arc;
//!
//! let budget = Arc::new(RunBudget::new().with_row_limit(2));
//! let mut handle = BudgetHandle::driving(budget.clone());
//! assert!(handle.charge_row()); // row 1
//! assert!(handle.charge_row()); // row 2: quota exhausted, flag trips
//! assert!(!handle.charge_row()); // row 3 is refused
//! assert_eq!(budget.cancelled(), Some(CancelReason::RowLimit));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a run was cancelled. Carried in the budget's sticky flag and
/// surfaced by the engines in their cancellation error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CancelReason {
    /// The caller cancelled through a [`CancelToken`].
    External,
    /// The wall-clock deadline passed.
    Deadline,
    /// The result-row quota was reached.
    RowLimit,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CancelReason::External => "cancelled by the caller",
            CancelReason::Deadline => "wall-clock deadline passed",
            CancelReason::RowLimit => "result-row limit reached",
        };
        f.write_str(s)
    }
}

/// Flag encoding: 0 = live, otherwise a [`CancelReason`].
const LIVE: u8 = 0;

fn encode(reason: CancelReason) -> u8 {
    match reason {
        CancelReason::External => 1,
        CancelReason::Deadline => 2,
        CancelReason::RowLimit => 3,
    }
}

fn decode(flag: u8) -> Option<CancelReason> {
    match flag {
        LIVE => None,
        1 => Some(CancelReason::External),
        2 => Some(CancelReason::Deadline),
        3 => Some(CancelReason::RowLimit),
        _ => unreachable!("the flag only ever holds `encode`'s values"),
    }
}

/// A cloneable handle through which a caller cancels a running query from
/// another thread. Pass a clone to the engine builder
/// (`with_cancel_token`) and call [`cancel`](Self::cancel) at any time;
/// every worker observes the request at its next poll point.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

/// Shared governance state of one query run: a sticky cancellation flag
/// plus the configured limits. Constructed by the engine from its builder
/// knobs, shared as an `Arc` with every worker and the foreground drain.
///
/// The flag is *first-wins*: once any limit trips (or the caller
/// cancels), later trips cannot overwrite the recorded reason.
#[derive(Debug, Default)]
pub struct RunBudget {
    flag: AtomicU8,
    deadline: Option<Instant>,
    row_limit: Option<u64>,
    produced: AtomicU64,
    external: Option<CancelToken>,
}

impl RunBudget {
    /// An unrestricted budget (no deadline, no quotas, no token). Useful
    /// as a base for the `with_*` builders.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag when `duration` has elapsed from now. A deadline
    /// too far away for an [`Instant`] to hold never trips.
    #[must_use]
    pub fn with_deadline(mut self, duration: Duration) -> Self {
        self.deadline = Instant::now().checked_add(duration);
        self
    }

    /// Caps delivered result rows at `limit`; the `limit`-th row trips
    /// the flag so the rest of the run winds down cooperatively.
    #[must_use]
    pub fn with_row_limit(mut self, limit: u64) -> Self {
        self.row_limit = Some(limit);
        self
    }

    /// Ties the budget to an external [`CancelToken`].
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.external = Some(token);
        self
    }

    /// The configured row quota, if any.
    pub fn row_limit(&self) -> Option<u64> {
        self.row_limit
    }

    /// The recorded cancellation reason, if the run has been cancelled.
    /// A single atomic load — cheap enough for per-batch checks.
    pub fn cancelled(&self) -> Option<CancelReason> {
        decode(self.flag.load(Ordering::Acquire))
    }

    /// Trips the flag with `reason`; the first recorded reason wins.
    pub fn cancel(&self, reason: CancelReason) {
        let _ =
            self.flag
                .compare_exchange(LIVE, encode(reason), Ordering::AcqRel, Ordering::Acquire);
    }

    /// Full poll: re-checks the external token and the wall-clock
    /// deadline (the two conditions a worker cannot observe through the
    /// flag alone), then reports the flag. Costs an `Instant::now()` when
    /// a deadline is set, so workers rate-limit it behind the flag-only
    /// fast path (see [`BudgetHandle`]).
    pub fn refresh(&self) -> Option<CancelReason> {
        if let Some(reason) = self.cancelled() {
            return Some(reason);
        }
        if self
            .external
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            self.cancel(CancelReason::External);
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.cancel(CancelReason::Deadline);
        }
        self.cancelled()
    }

    /// Charges `n` result rows against the quota and returns how many of
    /// them may actually be delivered (always `n` when no quota is set
    /// and the run is live). The charge that crosses the quota trips the
    /// flag with [`CancelReason::RowLimit`] — *after* granting the rows
    /// up to the limit, so a single consumer charging in stream order
    /// delivers exactly `limit` rows.
    pub fn charge_rows(&self, n: u64) -> u64 {
        if self
            .cancelled()
            .is_some_and(|r| r != CancelReason::RowLimit)
        {
            return 0;
        }
        let Some(limit) = self.row_limit else {
            return if self.cancelled().is_some() { 0 } else { n };
        };
        if n == 0 {
            return 0;
        }
        let prev = self.produced.fetch_add(n, Ordering::AcqRel);
        let allowed = limit.saturating_sub(prev).min(n);
        if prev + n >= limit {
            self.cancel(CancelReason::RowLimit);
        }
        allowed
    }
}

/// How often (in polls) a [`BudgetHandle`] pays for a full
/// [`RunBudget::refresh`] instead of the flag-only fast check.
const REFRESH_PERIOD: u32 = 64;

/// A worker's view of a shared [`RunBudget`]: polls are a single atomic
/// flag load, with a deadline/token refresh every `REFRESH_PERIOD`-th
/// call so `Instant::now()` stays off the hot path.
///
/// Two row-charging modes exist because the parallel engines enforce the
/// row quota at the ordered *drain* (the only place where "the first N
/// rows" is meaningful), while the sequential fast path enforces it at
/// the emit point:
///
/// * [`driving`](Self::driving) — emits straight into the caller's sink,
///   so [`charge_row`](Self::charge_row) draws from the shared quota.
/// * [`worker`](Self::worker) — emits into a merge lane that the drain
///   will re-order and cap, so `charge_row` only checks the flag (the
///   drain owns the quota; a worker drawing from it out of stream order
///   would punch holes in the delivered prefix).
#[derive(Debug, Clone)]
pub struct BudgetHandle {
    budget: Arc<RunBudget>,
    countdown: u32,
    charges_quota: bool,
}

impl BudgetHandle {
    /// Handle for a kernel emitting directly into the final sink (the
    /// sequential path): rows drawn from the shared quota at emit time.
    pub fn driving(budget: Arc<RunBudget>) -> Self {
        BudgetHandle {
            budget,
            countdown: 0,
            charges_quota: true,
        }
    }

    /// Handle for a kernel emitting into an ordered-merge lane: the
    /// foreground drain enforces the quota, the worker only honours the
    /// flag.
    pub fn worker(budget: Arc<RunBudget>) -> Self {
        BudgetHandle {
            budget,
            countdown: 0,
            charges_quota: false,
        }
    }

    /// Polls for cancellation: the flag, and every `REFRESH_PERIOD`-th
    /// call the deadline and the token too. Cheap enough for a
    /// per-root-value check.
    #[inline]
    pub fn poll(&mut self) -> Option<CancelReason> {
        if let Some(reason) = self.budget.cancelled() {
            return Some(reason);
        }
        if self.countdown == 0 {
            self.countdown = REFRESH_PERIOD;
            return self.budget.refresh();
        }
        self.countdown -= 1;
        None
    }

    /// Charges one result row; `false` means the row (and everything
    /// after it) must not be emitted.
    #[inline]
    pub fn charge_row(&mut self) -> bool {
        if self.charges_quota {
            self.budget.charge_rows(1) == 1
        } else {
            self.budget.cancelled().is_none()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_budget_is_live_and_unlimited() {
        let b = RunBudget::new();
        assert_eq!(b.cancelled(), None);
        assert_eq!(b.charge_rows(1_000_000), 1_000_000);
        assert_eq!(b.refresh(), None);
    }

    #[test]
    fn first_cancellation_reason_wins() {
        let b = RunBudget::new();
        b.cancel(CancelReason::Deadline);
        b.cancel(CancelReason::External);
        assert_eq!(b.cancelled(), Some(CancelReason::Deadline));
    }

    #[test]
    fn row_quota_grants_exactly_the_limit_and_trips_at_the_crossing() {
        let b = RunBudget::new().with_row_limit(5);
        assert_eq!(b.charge_rows(3), 3);
        assert_eq!(b.cancelled(), None, "under quota: still live");
        assert_eq!(b.charge_rows(3), 2, "the crossing grants only the rest");
        assert_eq!(b.cancelled(), Some(CancelReason::RowLimit));
        assert_eq!(b.charge_rows(1), 0, "nothing after the quota");
    }

    #[test]
    fn row_quota_of_zero_delivers_nothing() {
        let b = RunBudget::new().with_row_limit(0);
        assert_eq!(b.charge_rows(4), 0);
        assert_eq!(b.cancelled(), Some(CancelReason::RowLimit));
    }

    #[test]
    fn non_row_cancellation_stops_row_grants() {
        let b = RunBudget::new().with_row_limit(10);
        b.cancel(CancelReason::External);
        assert_eq!(b.charge_rows(4), 0);
    }

    #[test]
    fn external_token_trips_on_refresh() {
        let token = CancelToken::new();
        let b = RunBudget::new().with_cancel_token(token.clone());
        assert_eq!(b.refresh(), None);
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.refresh(), Some(CancelReason::External));
        assert_eq!(b.cancelled(), Some(CancelReason::External));
    }

    #[test]
    fn elapsed_deadline_trips_on_refresh() {
        let b = RunBudget::new().with_deadline(Duration::from_millis(0));
        // A zero deadline is already in the past by the time we poll.
        assert_eq!(b.refresh(), Some(CancelReason::Deadline));
    }

    #[test]
    fn an_unrepresentable_deadline_never_trips() {
        let b = RunBudget::new().with_deadline(Duration::MAX);
        assert_eq!(b.refresh(), None);
        assert_eq!(b.cancelled(), None);
    }

    #[test]
    fn handle_fast_path_sees_the_flag_immediately() {
        let shared = Arc::new(RunBudget::new());
        let mut h = BudgetHandle::worker(shared.clone());
        assert_eq!(h.poll(), None);
        shared.cancel(CancelReason::External);
        assert_eq!(h.poll(), Some(CancelReason::External));
        assert!(!h.charge_row(), "worker mode refuses rows once cancelled");
    }

    #[test]
    fn handle_refresh_notices_a_deadline_within_the_period() {
        let shared = Arc::new(RunBudget::new().with_deadline(Duration::from_millis(0)));
        let mut h = BudgetHandle::worker(shared);
        let mut tripped = None;
        for _ in 0..=(REFRESH_PERIOD * 2) {
            if let Some(r) = h.poll() {
                tripped = Some(r);
                break;
            }
        }
        assert_eq!(tripped, Some(CancelReason::Deadline));
    }

    #[test]
    fn driving_handle_draws_from_the_shared_quota() {
        let shared = Arc::new(RunBudget::new().with_row_limit(2));
        let mut a = BudgetHandle::driving(shared.clone());
        let mut b = BudgetHandle::driving(shared.clone());
        assert!(a.charge_row());
        assert!(b.charge_row());
        assert!(!a.charge_row());
        assert_eq!(shared.cancelled(), Some(CancelReason::RowLimit));
    }

    #[test]
    fn worker_handle_never_consumes_quota() {
        let shared = Arc::new(RunBudget::new().with_row_limit(3));
        let mut w = BudgetHandle::worker(shared.clone());
        for _ in 0..100 {
            assert!(w.charge_row(), "workers emit freely until the flag trips");
        }
        assert_eq!(shared.charge_rows(3), 3, "the drain still owns all 3 rows");
    }

    const REASONS: [CancelReason; 3] = [
        CancelReason::External,
        CancelReason::Deadline,
        CancelReason::RowLimit,
    ];

    #[test]
    fn reasons_display_distinctly() {
        let rendered: std::collections::BTreeSet<String> =
            REASONS.iter().map(ToString::to_string).collect();
        assert_eq!(rendered.len(), REASONS.len());
    }

    #[test]
    fn every_reason_round_trips_through_the_flag() {
        for reason in REASONS {
            assert_ne!(encode(reason), LIVE, "{reason:?} must not read as live");
            assert_eq!(decode(encode(reason)), Some(reason));
        }
        assert_eq!(decode(LIVE), None);
    }
}
