//! Run configuration: every knob of the parallel engines, and the one
//! place `triejax-join` reads the environment.
//!
//! Every knob resolves the same way, independently of the others and
//! when a query runs: the explicit builder value, else its `TRIEJAX_*`
//! variable, else the built-in default. A variable that is set to
//! anything unparsable panics instead of falling back — a configured
//! knob that silently reverted to its default would defeat its purpose
//! (CI pins `TRIEJAX_POOL=2` or a tiny `TRIEJAX_CACHE_CAP` precisely to
//! force those paths through the whole suite). Unset and blank are the
//! same. One knob is process-wide rather than per run: the default trie
//! cache ([`TrieCache::global`], built once per process).

use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use triejax_exec::{CancelToken, RunBudget, WorkerPool};

use crate::{CtjConfig, TrieCache};

/// Environment variable supplying the default delta-compaction threshold:
/// a relation's delta is merged into a fresh frozen base when
/// `delta.len() > ratio × base.len()` after an apply. Read once, when a
/// session is constructed; unset means `0.5`, and
/// [`crate::Session::with_compact_ratio`] overrides it per session.
pub const COMPACT_RATIO_ENV: &str = "TRIEJAX_DELTA_COMPACT_RATIO";

/// Environment variable naming the default cross-query trie cache
/// capacity in mebibytes; unset or `0` disables the cache.
pub const TRIE_CACHE_ENV: &str = "TRIEJAX_TRIE_CACHE_MB";

/// Environment variable naming a saved [`StoredCatalog`] file to preload
/// into the process-wide default trie cache (unset or empty: no preload).
/// With the store set but `TRIEJAX_TRIE_CACHE_MB` unset, the default cache
/// is created unbounded so every stored trie stays servable; an explicit
/// `TRIEJAX_TRIE_CACHE_MB=0` still disables caching entirely.
///
/// [`StoredCatalog`]: triejax_store::StoredCatalog
pub const STORE_ENV: &str = "TRIEJAX_STORE";

/// Worker count (default one per core).
const POOL_ENV: &str = "TRIEJAX_POOL";
/// Wall-clock deadline in milliseconds (default none).
const DEADLINE_ENV: &str = "TRIEJAX_DEADLINE_MS";
/// Result-row cap (default none; `0` is valid and delivers nothing).
const ROW_LIMIT_ENV: &str = "TRIEJAX_ROW_LIMIT";
/// Total entries of the CTJ cache (default unbounded; `0` disables it).
const CACHE_CAP_ENV: &str = "TRIEJAX_CACHE_CAP";
/// Adaptive CTJ cache specs on/off (default off).
const CACHE_ADAPT_ENV: &str = "TRIEJAX_CACHE_ADAPT";

/// Where unset knobs come from: a variable name to its value, `None`
/// when unset. [`process_env`] in production; tests pass a fake so they
/// never touch the process environment.
pub(crate) type Env<'e> = &'e dyn Fn(&str) -> Option<String>;

/// The process environment, as an [`Env`].
pub(crate) fn process_env(key: &str) -> Option<String> {
    std::env::var(key).ok()
}

/// `key`'s value, `None` when unset or blank.
fn var(env: Env, key: &str) -> Option<String> {
    env(key).filter(|v| !v.trim().is_empty())
}

/// `key` parsed as a `T`; panics naming `what` it must be otherwise.
fn parsed<T: FromStr>(env: Env, key: &str, what: &str) -> Option<T> {
    let v = var(env, key)?;
    Some(
        v.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{key} must be {what}, got {v:?}")),
    )
}

/// `key` as an on/off switch; panics naming `what` it must be otherwise.
fn switch(env: Env, key: &str, what: &str) -> Option<bool> {
    Some(match var(env, key)?.trim() {
        "1" | "true" | "on" => true,
        "0" | "false" | "off" => false,
        other => panic!("{key} must be {what}, got {other:?}"),
    })
}

/// The default pool ([`POOL_ENV`]): that many workers, else one per core.
pub(crate) fn default_pool(env: Env) -> WorkerPool {
    parsed::<NonZeroUsize>(env, POOL_ENV, "a positive integer")
        .map_or_else(WorkerPool::new, |w| WorkerPool::with_workers(w.get()))
}

/// The session's compaction ratio default ([`COMPACT_RATIO_ENV`]).
pub(crate) fn compact_ratio(env: Env) -> f64 {
    let Some(v) = var(env, COMPACT_RATIO_ENV) else {
        return 0.5;
    };
    let ratio = v.trim().parse::<f64>().ok().filter(|r| *r >= 0.0);
    ratio.unwrap_or_else(|| panic!("{COMPACT_RATIO_ENV} must be a non-negative number, got {v:?}"))
}

/// The process-wide default trie cache ([`TrieCache::global`]): sized by
/// [`TRIE_CACHE_ENV`] and preloaded from [`STORE_ENV`].
pub(crate) fn default_trie_cache(env: Env) -> Option<TrieCache> {
    let store = var(env, STORE_ENV);
    let mb = parsed::<u64>(env, TRIE_CACHE_ENV, "a non-negative integer (mebibytes)");
    let cache = match (mb, &store) {
        (None | Some(0), None) | (Some(0), Some(_)) => return None,
        (None, Some(_)) => TrieCache::unbounded(),
        (Some(mb), _) => TrieCache::with_capacity_mb(mb),
    };
    if let Some(path) = store {
        let stored = triejax_store::StoredCatalog::open(&path)
            .unwrap_or_else(|e| panic!("{STORE_ENV}={path:?} could not be opened: {e}"));
        cache.preload(&stored);
    }
    Some(cache)
}

/// Every knob of one parallel run, as the caller set it (`None` = not
/// set: resolved from the environment or the default at run time).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunOptions {
    /// Worker count; unset = `TRIEJAX_POOL` or one per core.
    pub(crate) workers: Option<NonZeroUsize>,
    /// Shard count; unset = seeded from the plan's root-domain estimate.
    pub(crate) granularity: Option<NonZeroUsize>,
    /// Wall-clock deadline; unset = `TRIEJAX_DEADLINE_MS` or none.
    pub(crate) deadline: Option<Duration>,
    /// Result-row cap; unset = `TRIEJAX_ROW_LIMIT` or none.
    pub(crate) row_limit: Option<u64>,
    /// Cap on charged intermediate tuples; no variable.
    pub(crate) intermediate_limit: Option<u64>,
    /// External cancellation token; no variable.
    pub(crate) cancel: Option<CancelToken>,
    /// Cross-query trie cache: unset = [`TrieCache::global`],
    /// `Some(None)` = disabled, `Some(Some(c))` = this cache.
    pub(crate) trie_cache: Option<Option<Arc<TrieCache>>>,
    /// `true` runs CTJ with the cache knobs below; `false` runs LFTJ.
    pub(crate) ctj: bool,
    /// The CTJ cache knobs.
    pub(crate) cache: CacheOptions,
}

/// The CTJ cache knobs of a [`RunOptions`], each set independently.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CacheOptions {
    /// [`CtjConfig::entry_capacity`]; no variable, default unbounded.
    pub(crate) entry_capacity: Option<usize>,
    /// [`CtjConfig::max_entries`]: unset = `TRIEJAX_CACHE_CAP` or
    /// unbounded; `Some(None)` is an explicit "unbounded".
    pub(crate) max_entries: Option<Option<usize>>,
    /// [`CtjConfig::adaptive`]; unset = `TRIEJAX_CACHE_ADAPT` or off.
    pub(crate) adaptive: Option<bool>,
}

impl From<CtjConfig> for CacheOptions {
    /// A whole explicit config: every knob set, the variables ignored.
    fn from(config: CtjConfig) -> Self {
        CacheOptions {
            entry_capacity: config.entry_capacity,
            max_entries: Some(config.max_entries),
            adaptive: Some(config.adaptive),
        }
    }
}

/// A [`RunOptions`] with every knob filled in.
pub(crate) struct Resolved {
    pub(crate) pool: WorkerPool,
    pub(crate) granularity: Option<usize>,
    /// `None` when nothing governs the run, so the engine stays on its
    /// zero-cost [`triejax_exec::NoBudget`] code paths.
    pub(crate) budget: Option<Arc<RunBudget>>,
    pub(crate) trie_cache: Option<Arc<TrieCache>>,
    /// The cache configuration of a CTJ run; `None` for LFTJ.
    pub(crate) ctj: Option<CtjConfig>,
}

impl RunOptions {
    /// Fills every unset knob from `env`, else its default.
    ///
    /// # Panics
    ///
    /// Panics when a consulted variable is set to anything its knob
    /// cannot parse.
    pub(crate) fn resolve(&self, env: Env) -> Resolved {
        Resolved {
            budget: self.budget(env),
            pool: self.pool(env),
            granularity: self.granularity.map(NonZeroUsize::get),
            trie_cache: self.trie_cache(),
            ctj: self.ctj.then(|| self.cache_config(env)),
        }
    }

    /// The run's pool: the explicit worker count, else
    /// [`default_pool`].
    fn pool(&self, env: Env) -> WorkerPool {
        self.workers
            .map_or_else(|| default_pool(env), |w| WorkerPool::with_workers(w.get()))
    }

    /// The shared [`RunBudget`] of the run, `None` when nothing governs it.
    pub(crate) fn budget(&self, env: Env) -> Option<Arc<RunBudget>> {
        let deadline = self.deadline.or_else(|| {
            let what = "a non-negative integer of milliseconds";
            parsed(env, DEADLINE_ENV, what).map(Duration::from_millis)
        });
        let row_limit = self
            .row_limit
            .or_else(|| parsed(env, ROW_LIMIT_ENV, "a non-negative integer"));
        if deadline.is_none()
            && row_limit.is_none()
            && self.intermediate_limit.is_none()
            && self.cancel.is_none()
        {
            return None;
        }
        let mut budget = RunBudget::new();
        if let Some(d) = deadline {
            budget = budget.with_deadline(d);
        }
        if let Some(l) = row_limit {
            budget = budget.with_row_limit(l);
        }
        if let Some(l) = self.intermediate_limit {
            budget = budget.with_intermediate_limit(l);
        }
        if let Some(t) = &self.cancel {
            budget = budget.with_cancel_token(t.clone());
        }
        Some(Arc::new(budget))
    }

    pub(crate) fn trie_cache(&self) -> Option<Arc<TrieCache>> {
        match &self.trie_cache {
            Some(choice) => choice.clone(),
            None => TrieCache::global(),
        }
    }

    /// The CTJ cache configuration, knob by knob.
    pub(crate) fn cache_config(&self, env: Env) -> CtjConfig {
        let knobs = self.cache;
        CtjConfig {
            entry_capacity: knobs.entry_capacity,
            max_entries: knobs
                .max_entries
                .unwrap_or_else(|| parsed(env, CACHE_CAP_ENV, "a non-negative integer")),
            adaptive: knobs
                .adaptive
                .or_else(|| switch(env, CACHE_ADAPT_ENV, "an on/off spelling"))
                .unwrap_or(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An environment holding exactly `vars`.
    fn fake(vars: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<String> {
        move |key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_owned())
        }
    }

    fn ctj() -> RunOptions {
        RunOptions {
            ctj: true,
            ..RunOptions::default()
        }
    }

    #[test]
    fn unset_knobs_take_their_variables_and_set_ones_ignore_them() {
        let env = fake(&[
            (POOL_ENV, "3"),
            (ROW_LIMIT_ENV, " 7 "),
            (CACHE_CAP_ENV, "3"),
            (CACHE_ADAPT_ENV, "1"),
        ]);
        let run = ctj().resolve(&env);
        assert_eq!(run.pool.workers(), 3);
        assert_eq!(run.budget.unwrap().row_limit(), Some(7));
        let adaptive_cap3 = CtjConfig {
            entry_capacity: None,
            max_entries: Some(3),
            adaptive: true,
        };
        assert_eq!(run.ctj, Some(adaptive_cap3));

        let set = RunOptions {
            workers: NonZeroUsize::new(5),
            row_limit: Some(2),
            cache: CtjConfig::default().into(),
            ..ctj()
        }
        .resolve(&env);
        assert_eq!(set.pool.workers(), 5);
        assert_eq!(set.budget.unwrap().row_limit(), Some(2));
        assert_eq!(set.ctj, Some(CtjConfig::default()), "with_config sets all");
    }

    #[test]
    fn defaults_apply_when_neither_knob_nor_variable_is_set() {
        let env = fake(&[(POOL_ENV, " "), (CACHE_CAP_ENV, "")]);
        let run = ctj().resolve(&env);
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(run.pool.workers(), cores, "blank is unset");
        assert!(run.budget.is_none(), "ungoverned");
        assert_eq!(run.ctj, Some(CtjConfig::default()));
        assert_eq!(RunOptions::default().resolve(&env).ctj, None, "LFTJ");
        assert_eq!(compact_ratio(&env), 0.5);
    }

    /// `ParCtj::cache_capacity(n)` used to start from `CtjConfig::default()`,
    /// turning an unset `TRIEJAX_CACHE_ADAPT` into an explicit "off".
    #[test]
    fn a_capacity_alone_keeps_the_adapt_variable() {
        let mut opts = ctj();
        opts.cache.max_entries = Some(Some(16));
        let config = opts.cache_config(&fake(&[(CACHE_ADAPT_ENV, "on")]));
        assert_eq!(config.max_entries, Some(16));
        assert!(config.adaptive, "TRIEJAX_CACHE_ADAPT still applies");
    }

    /// `ParCtj::with_cache_adapt(b)` used to freeze `TRIEJAX_CACHE_CAP` as
    /// it stood when the builder ran; it resolves when the query runs.
    #[test]
    fn an_adapt_choice_alone_reads_the_capacity_at_run_time() {
        let mut opts = ctj();
        opts.cache.adaptive = Some(true);
        let before = opts.cache_config(&fake(&[]));
        let after = opts.cache_config(&fake(&[(CACHE_CAP_ENV, "2")]));
        assert_eq!(before.max_entries, None);
        assert_eq!(after.max_entries, Some(2), "the capacity is not frozen");
        assert!(before.adaptive && after.adaptive);
    }

    #[test]
    #[should_panic(expected = "TRIEJAX_CACHE_ADAPT must be an on/off spelling, got \"maybe\"")]
    fn a_junk_switch_panics() {
        ctj().resolve(&fake(&[(CACHE_ADAPT_ENV, " maybe ")]));
    }

    #[test]
    #[should_panic(expected = "TRIEJAX_POOL must be a positive integer, got \"0\"")]
    fn a_zero_pool_panics() {
        default_pool(&fake(&[(POOL_ENV, "0")]));
    }

    #[test]
    #[should_panic(expected = "TRIEJAX_CACHE_CAP must be a non-negative integer, got \"lots\"")]
    fn a_junk_capacity_panics_for_ctj() {
        let env = fake(&[(CACHE_CAP_ENV, "lots")]);
        assert_eq!(
            RunOptions::default().resolve(&env).ctj,
            None,
            "LFTJ ignores it"
        );
        ctj().resolve(&env);
    }

    #[test]
    #[should_panic(expected = "TRIEJAX_DELTA_COMPACT_RATIO must be a non-negative number")]
    fn a_negative_compact_ratio_panics() {
        compact_ratio(&fake(&[(COMPACT_RATIO_ENV, "-0.5")]));
    }
}
