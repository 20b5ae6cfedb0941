//! Memory-hierarchy configuration.

use crate::ChaosConfig;

/// Geometry and latency parameters of the memory hierarchy.
///
/// Defaults approximate the paper's GTX480 (Fermi) configuration (Table II);
/// `MemConfig::pascal()` approximates the GTX1080Ti one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 data cache size per SM, bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 MSHR entries.
    pub l1_mshrs: usize,
    /// L1 hit latency (core cycles from service to completion).
    pub l1_hit_latency: u64,
    /// Requests the L1 can start servicing per cycle.
    pub l1_ports: usize,
    /// Number of L2 partitions (memory channels).
    pub l2_partitions: usize,
    /// L2 slice size per partition, bytes.
    pub l2_bytes_per_partition: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Interconnect latency SM→partition (and back), one way, cycles.
    pub icnt_latency: u64,
    /// L2 hit latency, cycles.
    pub l2_hit_latency: u64,
    /// Requests an L2 partition can start servicing per cycle.
    pub l2_ports: usize,
    /// Extra latency of a DRAM access beyond L2, cycles.
    pub dram_latency: u64,
    /// Minimum interval between DRAM services per channel, cycles
    /// (bandwidth limit: one 128 B line per interval).
    pub dram_interval: u64,
    /// Fault injection; [`ChaosConfig::off`] (the default) disables it and
    /// keeps timing bit-identical to a chaos-free build.
    pub chaos: ChaosConfig,
}

/// The furthest ahead of the scheduling cycle a response event may be due
/// ([`MemConfig::max_event_offset`]); the memory system's response wheel
/// has one slot per cycle of that horizon. `GpuConfig::validate` refuses a
/// configuration past it.
pub const MAX_EVENT_OFFSET: u64 = 65_535;

impl MemConfig {
    /// How many cycles after the cycle that schedules it a response event
    /// can be due: the largest of an L1 hit, an L2 hit plus the
    /// interconnect back, and a DRAM access plus the interconnect back
    /// (each counted from the cycle the access is served), plus the
    /// largest chaos delay of an atomic response.
    pub fn max_event_offset(&self) -> u64 {
        let chaos = if self.chaos.atomic_delay_ppm == 0 {
            0
        } else {
            self.chaos.max_atomic_delay.max(1)
        };
        self.l1_hit_latency
            .max(self.l2_hit_latency.saturating_add(self.icnt_latency))
            .max(self.dram_latency.saturating_add(self.icnt_latency))
            .saturating_add(chaos)
    }
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig::fermi()
    }
}

impl MemConfig {
    /// GTX480-like hierarchy: 16 KB L1, 6 × 64 KB L2 partitions.
    pub fn fermi() -> MemConfig {
        MemConfig {
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l1_mshrs: 32,
            l1_hit_latency: 28,
            l1_ports: 1,
            l2_partitions: 6,
            l2_bytes_per_partition: 64 * 1024,
            l2_ways: 8,
            icnt_latency: 40,
            l2_hit_latency: 40,
            l2_ports: 1,
            dram_latency: 120,
            dram_interval: 4,
            chaos: ChaosConfig::off(),
        }
    }

    /// GTX1080Ti-like hierarchy: 48 KB L1, 11 × 128 KB-ish L2 partitions
    /// (we use 12 partitions so the set count stays a power of two).
    pub fn pascal() -> MemConfig {
        MemConfig {
            l1_bytes: 48 * 1024,
            l1_ways: 6,
            l1_mshrs: 64,
            l1_hit_latency: 24,
            l1_ports: 1,
            l2_partitions: 12,
            l2_bytes_per_partition: 128 * 1024,
            l2_ways: 16,
            icnt_latency: 30,
            l2_hit_latency: 34,
            l2_ports: 1,
            dram_latency: 100,
            dram_interval: 2,
            chaos: ChaosConfig::off(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cache, LINE_BYTES};

    #[test]
    fn preset_geometries_are_constructible() {
        for cfg in [MemConfig::fermi(), MemConfig::pascal()] {
            let l1 = Cache::new(cfg.l1_bytes, cfg.l1_ways);
            assert!(l1.sets().is_power_of_two());
            let l2 = Cache::new(cfg.l2_bytes_per_partition, cfg.l2_ways);
            assert!(l2.sets() * l2.ways() > 0);
            assert_eq!(cfg.l1_bytes % LINE_BYTES, 0);
        }
    }

    #[test]
    fn event_offsets_cover_every_response_path() {
        let fermi = MemConfig::fermi();
        assert_eq!(fermi.max_event_offset(), 120 + 40);
        let chaotic = MemConfig {
            chaos: crate::ChaosConfig::with_level(1, 3),
            ..MemConfig::fermi()
        };
        assert_eq!(chaotic.max_event_offset(), 160 + 256);
        let slow_l1 = MemConfig {
            l1_hit_latency: 500,
            ..MemConfig::pascal()
        };
        assert_eq!(slow_l1.max_event_offset(), 500);
    }

    #[test]
    fn default_is_fermi() {
        assert_eq!(MemConfig::default(), MemConfig::fermi());
    }
}
