use triejax_memsim::{EnergyBreakdown, MemStats};

/// Operation counts per accelerator component (drives core energy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentOps {
    /// Cupid control steps (match handling, backtracking, emission).
    pub cupid: u64,
    /// MatchMaker leapfrog alignments.
    pub matchmaker: u64,
    /// LUB seek operations issued.
    pub lub_seeks: u64,
    /// Individual LUB binary-search probes (memory touches).
    pub lub_probes: u64,
    /// Midwife child-range expansions.
    pub midwife: u64,
}

impl ComponentOps {
    /// Total component operations (the core-energy op count).
    pub fn total(&self) -> u64 {
        self.cupid + self.matchmaker + self.lub_seeks + self.lub_probes + self.midwife
    }
}

/// PJR-cache behaviour over one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PjrStats {
    /// Lookups that found a committed entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries committed from the insertion buffer.
    pub insertions: u64,
    /// Entries discarded (capacity overflow, in-flight conflicts, or
    /// spawn-split recordings).
    pub discarded: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Total SRAM bank accesses (lookups + entry-value reads + fills).
    pub accesses: u64,
    /// Cached values replayed instead of being recomputed.
    pub values_replayed: u64,
    /// Values written into committed entries (the CTJ "intermediate
    /// results" of paper Figure 18).
    pub values_stored: u64,
}

impl PjrStats {
    /// Hit rate in `[0, 1]` (0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Everything measured in one simulated TrieJax run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Total cycles at the accelerator clock.
    pub cycles: u64,
    /// Wall-clock seconds at the configured frequency.
    pub runtime_s: f64,
    /// Result tuples produced.
    pub results: u64,
    /// Result cache lines streamed to DRAM.
    pub result_lines_written: u64,
    /// Per-component operation counts.
    pub ops: ComponentOps,
    /// PJR-cache statistics.
    pub pjr: PjrStats,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Energy breakdown (paper Figure 15 axes).
    pub energy: EnergyBreakdown,
    /// Thread contexts that ever ran.
    pub threads_used: u64,
    /// Dynamic spawns performed.
    pub spawns: u64,
}

impl SimReport {
    /// Total joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_total_sums() {
        let ops = ComponentOps {
            cupid: 1,
            matchmaker: 2,
            lub_seeks: 3,
            lub_probes: 4,
            midwife: 5,
        };
        assert_eq!(ops.total(), 15);
    }

    #[test]
    fn pjr_hit_rate_safe_on_zero() {
        assert_eq!(PjrStats::default().hit_rate(), 0.0);
        let s = PjrStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
