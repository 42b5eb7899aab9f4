use crate::{Addr, Cycle};

/// DDR3 channel/bank/timing configuration, in accelerator-clock cycles.
///
/// Defaults model the paper's DDR3-1600 with two 12.8 GB/s channels seen
/// from a 2.38 GHz core (paper Table 3): ~45 ns row-hit and ~70 ns
/// row-miss latency, 5 ns of channel occupancy per 64-byte burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: u32,
    /// Banks per channel (row buffers tracked per bank).
    pub banks: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Latency of an access hitting the open row, in core cycles.
    pub row_hit_cycles: u64,
    /// Latency of an access that must activate a new row.
    pub row_miss_cycles: u64,
    /// Channel occupancy of one 64-byte burst, in core cycles.
    pub burst_cycles: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // 2.38 GHz core: 1 ns ~ 2.38 cycles.
        DramConfig {
            channels: 2,
            banks: 8,
            row_bytes: 8192,
            row_hit_cycles: 107,  // ~45 ns
            row_miss_cycles: 167, // ~70 ns
            burst_cycles: 12,     // 64 B / 12.8 GB/s = 5 ns
        }
    }
}

/// Access counters for the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramStats {
    /// 64-byte read bursts served.
    pub reads: u64,
    /// 64-byte write bursts served.
    pub writes: u64,
    /// Accesses that hit an open row buffer.
    pub row_hits: u64,
    /// Accesses that required an activate.
    pub row_misses: u64,
    /// Cycles spent waiting for a busy channel (queueing delay).
    pub queue_cycles: u64,
}

impl DramStats {
    /// Total bursts.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved (64 bytes per burst).
    pub fn bytes(&self) -> u64 {
        self.accesses() * 64
    }
}

/// A banked DDR3 main-memory model (Ramulator substitute).
///
/// Latency = queueing (channel busy) + row-buffer hit or miss service
/// time. Bandwidth emerges from per-channel burst occupancy, which is what
/// throttles TrieJax on result-heavy queries like Path4 on wiki (paper
/// §4.3).
///
/// # Example
///
/// ```
/// use triejax_memsim::{Dram, DramConfig};
///
/// let mut d = Dram::new(DramConfig::default());
/// let first = d.access(0, 0, false);
/// // Address 128 maps to the same channel and row: a fast row-buffer hit.
/// let again = d.access(128, first, false);
/// assert!(again < first);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    /// Open row per (channel, bank); `u64::MAX` = closed.
    open_rows: Vec<u64>,
    /// Cycle when each channel becomes free.
    channel_free: Vec<Cycle>,
    stats: DramStats,
}

impl Dram {
    /// Builds the model with all rows closed.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `banks` is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.channels > 0 && config.banks > 0,
            "need channels and banks"
        );
        Dram {
            config,
            open_rows: vec![u64::MAX; (config.channels * config.banks) as usize],
            channel_free: vec![0; config.channels as usize],
            stats: DramStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Serves one 64-byte burst at `addr` issued at time `now`; returns the
    /// total latency in cycles (queueing + service).
    pub fn access(&mut self, addr: Addr, now: Cycle, is_write: bool) -> Cycle {
        let line = addr / 64;
        let channel = (line % self.config.channels as u64) as usize;
        let per_channel = line / self.config.channels as u64;
        let row = per_channel * 64 / self.config.row_bytes;
        let bank = (row % self.config.banks as u64) as usize;
        let slot = channel * self.config.banks as usize + bank;

        let free = self.channel_free[channel];
        let start = free.max(now);
        let queued = start - now;
        self.stats.queue_cycles += queued;

        let service = if self.open_rows[slot] == row {
            self.stats.row_hits += 1;
            self.config.row_hit_cycles
        } else {
            self.stats.row_misses += 1;
            self.open_rows[slot] = row;
            self.config.row_miss_cycles
        };
        self.channel_free[channel] = start + self.config.burst_cycles;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        queued + service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Dram {
        /// Achievable peak bandwidth in bytes per cycle (all channels).
        fn peak_bytes_per_cycle(&self) -> f64 {
            self.config.channels as f64 * 64.0 / self.config.burst_cycles as f64
        }
    }

    #[test]
    fn row_hits_are_faster() {
        let mut d = Dram::new(DramConfig::default());
        let miss = d.access(0, 0, false);
        let hit = d.access(128, 1000, false);
        assert_eq!(miss, DramConfig::default().row_miss_cycles);
        assert_eq!(hit, DramConfig::default().row_hit_cycles);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn channel_contention_queues() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg);
        // Two back-to-back accesses on the same channel at the same time.
        let a = d.access(0, 0, false);
        let b = d.access(256, 0, false); // line 4, channel 0 (4 % 2 == 0)
        assert!(
            b > a - cfg.row_miss_cycles + cfg.row_hit_cycles - 1,
            "second waits for burst"
        );
        assert!(d.stats().queue_cycles >= cfg.burst_cycles);
    }

    #[test]
    fn channels_are_independent() {
        let mut d = Dram::new(DramConfig::default());
        d.access(0, 0, false); // channel 0
        let lat = d.access(64, 0, false); // line 1 -> channel 1
        assert_eq!(
            lat,
            DramConfig::default().row_miss_cycles,
            "no queueing across channels"
        );
        assert_eq!(d.stats().queue_cycles, 0);
    }

    #[test]
    fn write_read_counters() {
        let mut d = Dram::new(DramConfig::default());
        d.access(0, 0, true);
        d.access(64, 0, false);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().bytes(), 128);
    }

    #[test]
    fn peak_bandwidth_matches_config() {
        let d = Dram::new(DramConfig::default());
        // 2 channels x 64B / 12 cycles ≈ 10.7 B/cycle ≈ 25.4 GB/s @2.38GHz.
        assert!((d.peak_bytes_per_cycle() - 10.666).abs() < 0.01);
    }
}
