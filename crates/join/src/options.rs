//! Run configuration: every knob of the trie-join engine.
//!
//! Every knob is a builder value or a fixed default, and a run resolves
//! them from nothing else: [`RunOptions::resolve`] reads no environment
//! and no process-wide state. An unset pool is one worker per core and
//! an unset trie cache is none; a CTJ run's PJR cache is unbounded.

use std::num::NonZeroUsize;
use std::sync::Arc;

use triejax_exec::{CancelToken, RunBudget, WorkerPool};

use crate::TrieCache;

/// Every knob of one trie-join run, as the caller set it (`None` = not
/// set: the default applies at run time).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunOptions {
    /// Worker count; unset = one per core.
    pub(crate) workers: Option<NonZeroUsize>,
    /// Shard count; unset = seeded from the plan's root-domain estimate.
    pub(crate) granularity: Option<NonZeroUsize>,
    /// Wall-clock deadline; unset = none.
    pub(crate) deadline: Option<std::time::Duration>,
    /// Result-row cap; unset = none.
    pub(crate) row_limit: Option<u64>,
    /// External cancellation token; unset = none.
    pub(crate) cancel: Option<CancelToken>,
    /// Cross-query trie cache; unset = none.
    pub(crate) trie_cache: Option<Arc<TrieCache>>,
    /// `true` runs CTJ; `false` runs LFTJ.
    pub(crate) ctj: bool,
}

/// A [`RunOptions`] with every knob filled in.
pub(crate) struct Resolved {
    pub(crate) pool: WorkerPool,
    pub(crate) granularity: Option<usize>,
    /// `None` when nothing governs the run: its drivers then hold no
    /// budget handle.
    pub(crate) budget: Option<Arc<RunBudget>>,
    pub(crate) trie_cache: Option<Arc<TrieCache>>,
    /// Whether the run carries a PJR cache (CTJ).
    pub(crate) ctj: bool,
}

impl RunOptions {
    /// Fills every unset knob with its default.
    pub(crate) fn resolve(&self) -> Resolved {
        Resolved {
            budget: self.budget(),
            pool: self
                .workers
                .map_or_else(WorkerPool::new, |w| WorkerPool::with_workers(w.get())),
            granularity: self.granularity.map(NonZeroUsize::get),
            trie_cache: self.trie_cache.clone(),
            ctj: self.ctj,
        }
    }

    /// The shared [`RunBudget`] of the run, `None` when nothing governs it.
    pub(crate) fn budget(&self) -> Option<Arc<RunBudget>> {
        if self.deadline.is_none() && self.row_limit.is_none() && self.cancel.is_none() {
            return None;
        }
        let mut budget = RunBudget::new();
        if let Some(d) = self.deadline {
            budget = budget.with_deadline(d);
        }
        if let Some(l) = self.row_limit {
            budget = budget.with_row_limit(l);
        }
        if let Some(t) = &self.cancel {
            budget = budget.with_cancel_token(t.clone());
        }
        Some(Arc::new(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctj() -> RunOptions {
        RunOptions {
            ctj: true,
            ..RunOptions::default()
        }
    }

    /// The four presets of the trie-join engine. The sequential presets
    /// run one worker, so one planned range; the pooled presets one
    /// worker per core. None has a trie cache, and both CTJ presets an
    /// unbounded PJR cache.
    #[test]
    fn presets_resolve_their_own_defaults() {
        use crate::shard::plan_shards;
        use crate::{Catalog, Ctj, JoinEngine, Lftj, ParCtj, ParLftj, TrieSet};
        use triejax_query::{patterns, CompiledQuery};
        use triejax_relation::Relation;

        let mut catalog = Catalog::new();
        let edges = (0..40u32).map(|i| (i, (i * 7 + 3) % 40));
        catalog.insert("G", Relation::from_pairs(edges));
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let tries = TrieSet::build(&plan, &catalog).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let presets = [
            (Lftj::new().name(), Lftj::new().opts),
            (Ctj::new().name(), Ctj::new().opts),
            (ParLftj::new().name(), ParLftj::new().opts),
            (ParCtj::new().name(), ParCtj::new().opts),
        ];
        // (name, CTJ, workers)
        let want = [
            ("lftj", false, 1),
            ("ctj", true, 1),
            ("par-lftj", false, cores),
            ("par-ctj", true, cores),
        ];
        for ((name, opts), want) in presets.into_iter().zip(want) {
            let run = opts.resolve();
            let workers = run.pool.workers();
            assert_eq!((name, run.ctj, workers), want);
            if workers == 1 {
                let ranges = plan_shards(&plan, &catalog, &tries, workers, run.granularity);
                assert_eq!(ranges.len(), 1, "{name}: one worker plans one range");
            }
            assert!(run.trie_cache.is_none(), "{name}");
            assert!(run.budget.is_none(), "{name}");
        }
    }

    #[test]
    fn defaults_apply_when_neither_knob_nor_variable_is_set() {
        let run = ctj().resolve();
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(run.pool.workers(), cores, "one worker per core");
        assert!(run.budget.is_none(), "ungoverned");
        assert!(run.trie_cache.is_none(), "no trie cache");
        assert!(run.ctj, "a PJR cache");
        assert!(!RunOptions::default().resolve().ctj, "LFTJ");
    }
}
