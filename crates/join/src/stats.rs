use triejax_relation::{Counting, Tally};

/// Work counters accumulated by a join engine during one execution.
///
/// These feed three consumers: the paper's Figure 17 (main-memory accesses
/// per system), Figure 18 (intermediate results, CTJ versus pairwise), and
/// the baseline performance models in `triejax-baselines`, which convert
/// operation counts into cycles and energy.
///
/// The memory-access side is generic over a [`Tally`]: the default
/// [`Counting`] parameter records every simulated word touch (paper-figure
/// mode), while [`triejax_relation::NoTally`] turns the whole access
/// accounting into no-ops that the optimizer deletes (throughput mode).
/// The discrete operation counters (`lub_ops`, `match_ops`, …) are plain
/// integer increments and are kept in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats<T: Tally = Counting> {
    /// Number of result tuples emitted.
    pub results: u64,
    /// Intermediate results materialized: cached partial-join values for
    /// CTJ, intermediate-relation tuples for pairwise joins, candidate-set
    /// values for Generic Join. LFTJ materializes none.
    pub intermediates: u64,
    /// Partial-join cache hits (CTJ only).
    pub cache_hits: u64,
    /// Partial-join cache misses on cacheable lookups (CTJ only).
    pub cache_misses: u64,
    /// Cache entries evicted to make room for newer ones. Always 0: the
    /// PJR cache is unbounded, so no entry is ever evicted. Kept so
    /// reports that read it stay valid.
    pub cache_evictions: u64,
    /// Insert races lost on the shared cache: a sibling worker published
    /// the same entry first, so this worker's duplicate build was
    /// discarded (first writer wins) and its miss reclassified as a late
    /// hit. Summed `cache_misses` therefore count *unique* entry builds.
    pub cache_races: u64,
    /// Shared-cache stripe locks that were contended — another worker
    /// held the stripe when this one arrived, so the acquisition waited.
    pub cache_contention: u64,
    /// Lowest-upper-bound (binary-search) operations issued.
    pub lub_ops: u64,
    /// Child-range expansions (the Midwife operation).
    pub expand_ops: u64,
    /// Per-variable match attempts (MatchMaker invocations / leapfrog
    /// searches, or per-level intersection calls for Generic Join, or
    /// probe operations for hash joins).
    pub match_ops: u64,
    /// Root-range shards executed by a trie join (1 when it ran one
    /// range on the calling thread, always so for `Lftj`/`Ctj`; 0 for the
    /// other engines).
    pub shards: u64,
    /// Shards obtained by work stealing — a sibling worker's queue ran dry
    /// and took the shard — rather than from the owning worker's queue
    /// (parallel engines only).
    pub steals: u64,
    /// Dynamic shard splits performed. Always 0: the parallel engines
    /// run one static schedule (4x oversharding plus work stealing), and
    /// no shard splits itself mid-run. Kept so reports that read it stay
    /// valid.
    pub splits: u64,
    /// Wall-clock nanoseconds spent building (or fetching) the query's
    /// [`crate::TrieSet`] before the join proper started (trie joins
    /// only; the other engines report 0). Set once per run by the
    /// driving engine, so merging per-shard stats does not inflate it.
    pub trie_build_ns: u64,
    /// Tries served from the cross-query [`crate::TrieCache`] instead of
    /// being built (trie joins with a trie cache only).
    pub trie_cache_hits: u64,
    /// Wall-clock nanoseconds spent checking and decoding store entries
    /// on their first touch (see `triejax-store`): the part of fetching
    /// the query's tries that read a store file's trie bodies. Not part of
    /// [`EngineStats::trie_build_ns`], which stays `0` for a query served
    /// entirely from a store.
    pub trie_load_ns: u64,
    /// Store entries this query was the first to touch, and so checked
    /// and decoded.
    pub store_entries_verified: u64,
    /// Simulated memory touches, reported through the [`Tally`].
    pub access: T,
}

impl<T: Tally> EngineStats<T> {
    /// Creates zeroed stats; identical to `Default::default()`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total main-memory accesses (the Figure 17 metric): every simulated
    /// word touch of index, intermediate, or result data. Always zero when
    /// the tally is [`triejax_relation::NoTally`].
    pub fn memory_accesses(&self) -> u64 {
        self.access.snapshot().total_accesses()
    }

    /// Total simulated bytes moved. Always zero when the tally is
    /// [`triejax_relation::NoTally`].
    pub fn bytes_moved(&self) -> u64 {
        self.access.snapshot().total_bytes()
    }

    /// Total discrete engine operations (used by software cost models).
    pub fn total_ops(&self) -> u64 {
        self.lub_ops + self.expand_ops + self.match_ops
    }

    /// Cache hit rate in `[0, 1]`; `0` when no cacheable lookups happened.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// These stats with the access tally snapshotted into the concrete
    /// [`Counting`] representation. A cancelled run reports its partial
    /// progress through [`crate::JoinError::Cancelled`] in this form
    /// regardless of which tally the engine ran with.
    pub fn to_counting(&self) -> EngineStats<Counting> {
        EngineStats {
            results: self.results,
            intermediates: self.intermediates,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_evictions: self.cache_evictions,
            cache_races: self.cache_races,
            cache_contention: self.cache_contention,
            lub_ops: self.lub_ops,
            expand_ops: self.expand_ops,
            match_ops: self.match_ops,
            shards: self.shards,
            steals: self.steals,
            splits: self.splits,
            trie_build_ns: self.trie_build_ns,
            trie_cache_hits: self.trie_cache_hits,
            trie_load_ns: self.trie_load_ns,
            store_entries_verified: self.store_entries_verified,
            access: self.access.snapshot(),
        }
    }

    /// Adds another run's totals into this one (used by the parallel
    /// engine to combine per-shard stats).
    pub fn merge(&mut self, other: &Self) {
        self.results += other.results;
        self.intermediates += other.intermediates;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_races += other.cache_races;
        self.cache_contention += other.cache_contention;
        self.lub_ops += other.lub_ops;
        self.expand_ops += other.expand_ops;
        self.match_ops += other.match_ops;
        self.shards += other.shards;
        self.steals += other.steals;
        self.splits += other.splits;
        self.trie_build_ns += other.trie_build_ns;
        self.trie_cache_hits += other.trie_cache_hits;
        self.trie_load_ns += other.trie_load_ns;
        self.store_entries_verified += other.store_entries_verified;
        Tally::merge(&mut self.access, &other.access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_relation::{AccessKind, NoTally};

    #[test]
    fn totals_sum_fields() {
        let mut s = EngineStats::<Counting>::new();
        s.lub_ops = 3;
        s.expand_ops = 2;
        s.match_ops = 5;
        assert_eq!(s.total_ops(), 10);
        s.access.record(AccessKind::IndexRead, 4);
        s.access.record(AccessKind::ResultWrite, 8);
        assert_eq!(s.memory_accesses(), 2);
        assert_eq!(s.bytes_moved(), 12);
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let mut s = EngineStats::<Counting>::new();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = EngineStats::<Counting>::new();
        a.results = 2;
        a.lub_ops = 1;
        a.cache_evictions = 4;
        a.access.record(AccessKind::IndexRead, 4);
        let mut b = EngineStats::<Counting>::new();
        b.results = 3;
        b.match_ops = 7;
        b.cache_evictions = 1;
        b.cache_races = 2;
        b.cache_contention = 3;
        a.splits = 4;
        b.splits = 1;
        b.access.record(AccessKind::ResultWrite, 8);
        a.merge(&b);
        assert_eq!(a.results, 5);
        assert_eq!(a.splits, 5, "splits sum");
        assert_eq!(a.lub_ops, 1);
        assert_eq!(a.match_ops, 7);
        assert_eq!(a.cache_evictions, 5);
        assert_eq!(a.cache_races, 2);
        assert_eq!(a.cache_contention, 3);
        assert_eq!(a.memory_accesses(), 2);
        assert_eq!(a.bytes_moved(), 12);
    }

    #[test]
    fn to_counting_preserves_counters_and_snapshots_the_tally() {
        let mut s: EngineStats<NoTally> = EngineStats::new();
        s.results = 7;
        s.shards = 3;
        s.splits = 2;
        s.access.record(AccessKind::IndexRead, 1 << 20);
        let c = s.to_counting();
        assert_eq!(c.results, 7);
        assert_eq!(c.shards, 3);
        assert_eq!(c.splits, 2);
        assert_eq!(c.memory_accesses(), 0, "NoTally snapshots to zero");

        let mut t = EngineStats::<Counting>::new();
        t.access.record(AccessKind::ResultWrite, 8);
        assert_eq!(t.to_counting().bytes_moved(), 8);
    }

    #[test]
    fn untallied_stats_report_zero_traffic() {
        let mut s: EngineStats<NoTally> = EngineStats::new();
        s.results = 9;
        s.access.record(AccessKind::ResultWrite, 1 << 30);
        assert_eq!(s.memory_accesses(), 0);
        assert_eq!(s.bytes_moved(), 0);
        let other = s;
        s.merge(&other);
        assert_eq!(s.results, 18);
    }
}
