use crate::{CacheGeometry, DramConfig};

/// Full memory-system configuration (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Core clock in GHz (2.38 for TrieJax, 2.4 for the Xeon baseline).
    pub freq_ghz: f64,
    /// Private L1 (read-only on TrieJax: index data only).
    pub l1: CacheGeometry,
    /// Private L2.
    pub l2: CacheGeometry,
    /// Shared last-level cache.
    pub llc: CacheGeometry,
    /// Main memory.
    pub dram: DramConfig,
    /// Result writes bypass the caches and stream to DRAM (paper §3.1).
    pub write_bypass: bool,
}

impl MemConfig {
    /// TrieJax-side configuration: `L1D ReadOnly 32KB 8-way`,
    /// `L2 ReadOnly 32KB 8-way`, `L3 20MB`, `4x DDR3-1600, 2x 12.8GB/s`.
    pub fn triejax() -> Self {
        MemConfig {
            freq_ghz: 2.38,
            l1: CacheGeometry {
                capacity: 32 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 3,
            },
            l2: CacheGeometry {
                capacity: 32 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 10,
            },
            llc: CacheGeometry {
                capacity: 20 << 20,
                ways: 16,
                line_bytes: 64,
                latency: 48,
            },
            dram: DramConfig::default(),
            write_bypass: true,
        }
    }

    /// Software-baseline (Xeon E5-2630 v3) configuration:
    /// `L1 32KB`, `L2 512KB`, `L3 40MB`, `4x DDR3-2133, 2x 17GB/s`.
    pub fn cpu() -> Self {
        MemConfig {
            freq_ghz: 2.4,
            l1: CacheGeometry {
                capacity: 32 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheGeometry {
                capacity: 512 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 12,
            },
            llc: CacheGeometry {
                capacity: 40 << 20,
                ways: 16,
                line_bytes: 64,
                latency: 42,
            },
            dram: DramConfig {
                channels: 2,
                banks: 8,
                row_bytes: 8192,
                row_hit_cycles: 101,  // ~42 ns at 2.4 GHz
                row_miss_cycles: 156, // ~65 ns
                burst_cycles: 9,      // 64 B / 17 GB/s ≈ 3.8 ns
            },
            write_bypass: false,
        }
    }

    /// Seconds represented by `cycles` at this clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemConfig {
        /// Cycles for a duration given in nanoseconds at this clock.
        fn ns_to_cycles(&self, ns: f64) -> u64 {
            (ns * self.freq_ghz).round() as u64
        }
    }

    #[test]
    fn presets_match_table3() {
        let t = MemConfig::triejax();
        assert_eq!(t.l1.capacity, 32 << 10);
        assert_eq!(t.l2.capacity, 32 << 10);
        assert_eq!(t.llc.capacity, 20 << 20);
        assert!(t.write_bypass);
        let c = MemConfig::cpu();
        assert_eq!(c.l2.capacity, 512 << 10);
        assert_eq!(c.llc.capacity, 40 << 20);
        assert!(!c.write_bypass);
    }

    #[test]
    fn time_conversions_round_trip() {
        let t = MemConfig::triejax();
        let cycles = t.ns_to_cycles(100.0);
        assert_eq!(cycles, 238);
        let secs = t.cycles_to_seconds(2_380_000_000);
        assert!((secs - 1.0).abs() < 1e-9);
    }
}
