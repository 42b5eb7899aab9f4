//! Run configuration: every knob of the parallel engines, and the one
//! place `triejax-join` reads the environment.
//!
//! Every knob is a builder value. Four have a `TRIEJAX_*` variable that
//! supplies it when the builder was not called — the pool size, the CTJ
//! cache capacity, the default trie cache's size and its store — and
//! each of them resolves independently of the others, when a query runs.
//! A variable that is set to anything unparsable panics instead of
//! falling back — a configured knob that silently reverted to its
//! default would defeat its purpose (CI pins `TRIEJAX_POOL=2` or a tiny
//! `TRIEJAX_CACHE_CAP` precisely to force those paths through the whole
//! suite). Unset and blank are the same. The two trie-cache variables
//! are process-wide rather than per run: they shape the default trie
//! cache ([`TrieCache::global`], built once per process).

use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::Arc;

use triejax_exec::{CancelToken, RunBudget, WorkerPool};

use crate::{CtjConfig, TrieCache};

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
/// Total entries of the CTJ cache (default unbounded; `0` disables it).
const CACHE_CAP_ENV: &str = "TRIEJAX_CACHE_CAP";

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

/// The default pool ([`POOL_ENV`]): that many workers, else one per core.
pub(crate) fn default_pool(env: Env) -> WorkerPool {
    parsed::<NonZeroUsize>(env, POOL_ENV, "a positive integer")
        .map_or_else(WorkerPool::new, |w| WorkerPool::with_workers(w.get()))
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
/// set: resolved from its variable, if it has one, or the default at run
/// time).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunOptions {
    /// Worker count; unset = `TRIEJAX_POOL` or one per core.
    pub(crate) workers: Option<NonZeroUsize>,
    /// Shard count; unset = seeded from the plan's root-domain estimate.
    pub(crate) granularity: Option<NonZeroUsize>,
    /// Wall-clock deadline; unset = none.
    pub(crate) deadline: Option<std::time::Duration>,
    /// Result-row cap; unset = none.
    pub(crate) row_limit: Option<u64>,
    /// External cancellation token; unset = none.
    pub(crate) cancel: Option<CancelToken>,
    /// Cross-query trie cache: unset = [`TrieCache::global`],
    /// `Some(None)` = disabled, `Some(Some(c))` = this cache.
    pub(crate) trie_cache: Option<Option<Arc<TrieCache>>>,
    /// `true` runs CTJ with the cache capacity below; `false` runs LFTJ.
    pub(crate) ctj: bool,
    /// The CTJ cache's total capacity, [`CtjConfig::max_entries`]: unset
    /// = `TRIEJAX_CACHE_CAP` or unbounded; `Some(None)` is an explicit
    /// "unbounded".
    pub(crate) max_entries: Option<Option<usize>>,
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
    /// Fills every unset knob from its variable in `env`, if it has one,
    /// else its default.
    ///
    /// # Panics
    ///
    /// Panics when a consulted variable is set to anything its knob
    /// cannot parse.
    pub(crate) fn resolve(&self, env: Env) -> Resolved {
        Resolved {
            budget: self.budget(),
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

    fn trie_cache(&self) -> Option<Arc<TrieCache>> {
        match &self.trie_cache {
            Some(choice) => choice.clone(),
            None => TrieCache::global(),
        }
    }

    /// The CTJ cache configuration: the set capacity, else the variable.
    pub(crate) fn cache_config(&self, env: Env) -> CtjConfig {
        CtjConfig {
            max_entries: self
                .max_entries
                .unwrap_or_else(|| parsed(env, CACHE_CAP_ENV, "a non-negative integer")),
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
        let store =
            std::env::temp_dir().join(format!("triejax-options-{}.tjx", std::process::id()));
        triejax_store::StoredCatalog::new().save(&store).unwrap();
        let path = store.to_str().unwrap().to_owned();
        let env = |key: &str| match key {
            POOL_ENV => Some("3".to_owned()),
            CACHE_CAP_ENV => Some(" 7 ".to_owned()),
            STORE_ENV => Some(path.clone()),
            _ => None,
        };
        let run = ctj().resolve(&env);
        assert_eq!(run.pool.workers(), 3);
        let cap7 = CtjConfig {
            max_entries: Some(7),
        };
        assert_eq!(run.ctj, Some(cap7));
        let preloaded = default_trie_cache(&env).expect("a store makes a cache");
        assert_eq!(preloaded.capacity_bytes(), None, "a store alone: unbounded");
        let sized = |key: &str| match key {
            TRIE_CACHE_ENV => Some("2".to_owned()),
            _ => env(key),
        };
        let sized = default_trie_cache(&sized).expect("a sized cache");
        assert_eq!(sized.capacity_bytes(), Some(2 << 20));
        std::fs::remove_file(&store).unwrap();

        let set = RunOptions {
            workers: NonZeroUsize::new(5),
            max_entries: Some(None),
            trie_cache: Some(None),
            ..ctj()
        }
        .resolve(&env);
        assert_eq!(set.pool.workers(), 5);
        assert_eq!(set.ctj, Some(CtjConfig::default()), "explicit wins");
        assert!(set.trie_cache.is_none(), "without_trie_cache wins");
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
    }

    /// Variables the library no longer reads are not consulted at all,
    /// so even unparsable values neither panic nor govern the run. Their
    /// names are assembled from parts, so that this file spells out only
    /// the variables it reads (CI compares those with the README).
    #[test]
    fn retired_variables_are_ignored() {
        let retired = [
            (["CACHE", "ADAPT"], "maybe"),
            (["DEADLINE", "MS"], "soon"),
            (["ROW", "LIMIT"], "lots"),
        ];
        let env = |key: &str| {
            let named = |parts: &[&str; 2]| key == format!("TRIEJAX_{}", parts.join("_"));
            let found = retired.iter().find(|(parts, _)| named(parts));
            found.map(|(_, value)| (*value).to_owned())
        };
        let row_limit = ["TRIEJAX", "ROW", "LIMIT"].join("_");
        assert_eq!(env(&row_limit).as_deref(), Some("lots"), "the fake is set");
        let run = ctj().resolve(&env);
        assert!(run.budget.is_none(), "no budget from the environment");
        assert_eq!(run.ctj, Some(CtjConfig::default()));
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
}
