//! GPU configuration presets (the paper's Table II).

use crate::WarpSet;
use simt_mem::{MemConfig, MAX_EVENT_OFFSET};

/// Functional-unit latencies (cycles from issue to register writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Integer / logic / predicate ops.
    pub int_alu: u64,
    /// Single-precision float ops.
    pub fp_alu: u64,
    /// Special function unit (div, rem, sqrt).
    pub sfu: u64,
    /// Shared-memory access.
    pub shared_mem: u64,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            int_alu: 4,
            fp_alu: 6,
            sfu: 16,
            shared_mem: 24,
        }
    }
}

/// How the main simulation loop advances time.
///
/// Both engines simulate the identical cycle-by-cycle machine; `Skip`
/// merely refuses to *walk* through cycles in which nothing can happen.
/// Every observable — final memory, [`crate::SimStats`], simulated-cycle
/// totals, hang classification — is bit-identical between the two (see
/// `tests/engine_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Cycle every SM with work every cycle, even when it cannot issue and
    /// no memory event is due. The legacy loop; kept as the equivalence
    /// reference.
    Cycle,
    /// Per-SM sleep: an SM whose cycle issued nothing is not cycled again
    /// until its own timers or an external input can change its state,
    /// and bulk-accrues the slept span's stall statistics when it wakes;
    /// while every SM sleeps the clock jumps to the next memory event.
    #[default]
    Skip,
}

/// Top-level GPU configuration.
///
/// Presets follow the paper's Table II: [`GpuConfig::gtx480`] (Fermi) and
/// [`GpuConfig::gtx1080ti`] (Pascal).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name.
    pub name: String,
    /// Streaming multiprocessors ("cores" in Table II).
    pub num_sms: usize,
    /// Threads per warp (32 throughout the paper).
    pub warp_size: usize,
    /// Max resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Max resident CTAs per SM.
    pub max_ctas_per_sm: usize,
    /// 32-bit registers per SM (limits CTA residency).
    pub regs_per_sm: usize,
    /// Shared-memory words per SM.
    pub shared_words_per_sm: usize,
    /// Warp-scheduler units per SM; warp *w* belongs to unit `w % n`.
    pub schedulers_per_sm: usize,
    /// Core clock, MHz (converts cycles to wall time for Figure 1b).
    pub core_clock_mhz: u64,
    /// Functional-unit latencies.
    pub lat: Latencies,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// GTO age-priority rotation period (the paper rotates every 50 000
    /// cycles to avoid livelock on HT/ATM).
    pub gto_rotate_period: u64,
    /// Abort the run after this many cycles (0 = unlimited).
    pub max_cycles: u64,
    /// Declare livelock if no SM issues and memory is quiescent for this
    /// many consecutive cycles. Also the persistence window of the
    /// spin-livelock scan and the per-warp starvation bound.
    pub watchdog_cycles: u64,
    /// Fail with a classified hang report if a BOWS backed-off warp goes
    /// this many cycles without issuing (0 disables the guard). Catches
    /// mistuned back-off delays that starve a warp outright.
    pub backoff_starvation_cycles: u64,
    /// Enable the idealized queue-based blocking-lock mechanism at the L2
    /// partitions (the HQL-style comparator of the paper's Section VII /
    /// Figure 16b). Off for all paper-reproduction runs.
    pub blocking_locks: bool,
    /// Capture per-thread architectural state (registers, predicates,
    /// shared memory) of every CTA as it retires, attached to
    /// [`crate::KernelReport::final_state`]. Used by the differential
    /// oracle; off by default so measurement runs pay nothing for it.
    pub capture_final_state: bool,
    /// Report the run's host wall time and its SM-cycle counts in
    /// [`crate::KernelReport::profile`]. The clock is read at the run's
    /// start and end only, never inside the loop. Purely observational:
    /// never touches simulated state, excluded from the snapshot
    /// fingerprint.
    pub profile: bool,
    /// Main-loop time-advance strategy (see [`Engine`]).
    pub engine: Engine,
    /// Read by nothing (the run loop is serial); declared only because
    /// `benchmark/` still assigns it — ROADMAP has the follow-up that drops it.
    pub sm_threads: usize,
}

impl GpuConfig {
    /// GTX480 (Fermi): 15 SMs, 1536 threads/SM, 2 schedulers/SM, 700 MHz.
    pub fn gtx480() -> GpuConfig {
        GpuConfig {
            name: "GTX480".to_string(),
            num_sms: 15,
            warp_size: 32,
            max_threads_per_sm: 1536,
            max_ctas_per_sm: 8,
            regs_per_sm: 32768,
            shared_words_per_sm: 48 * 1024 / 4,
            schedulers_per_sm: 2,
            core_clock_mhz: 700,
            lat: Latencies::default(),
            mem: MemConfig::fermi(),
            gto_rotate_period: 50_000,
            max_cycles: 0,
            watchdog_cycles: 1_000_000,
            backoff_starvation_cycles: 0,
            blocking_locks: false,
            capture_final_state: false,
            profile: false,
            engine: Engine::default(),
            sm_threads: 0,
        }
    }

    /// GTX1080Ti (Pascal): 28 SMs, 2048 threads/SM, 4 schedulers/SM,
    /// 1481 MHz.
    pub fn gtx1080ti() -> GpuConfig {
        GpuConfig {
            name: "GTX1080Ti".to_string(),
            num_sms: 28,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_ctas_per_sm: 32,
            regs_per_sm: 65536,
            shared_words_per_sm: 96 * 1024 / 4,
            schedulers_per_sm: 4,
            core_clock_mhz: 1481,
            lat: Latencies::default(),
            mem: MemConfig::pascal(),
            gto_rotate_period: 50_000,
            max_cycles: 0,
            watchdog_cycles: 1_000_000,
            backoff_starvation_cycles: 0,
            blocking_locks: false,
            capture_final_state: false,
            profile: false,
            engine: Engine::default(),
            sm_threads: 0,
        }
    }

    /// A deliberately small single-SM configuration for unit tests.
    pub fn test_tiny() -> GpuConfig {
        GpuConfig {
            name: "tiny".to_string(),
            num_sms: 1,
            warp_size: 32,
            max_threads_per_sm: 256,
            max_ctas_per_sm: 4,
            regs_per_sm: 16384,
            shared_words_per_sm: 4096,
            schedulers_per_sm: 2,
            core_clock_mhz: 700,
            lat: Latencies::default(),
            mem: MemConfig::fermi(),
            gto_rotate_period: 50_000,
            max_cycles: 20_000_000,
            watchdog_cycles: 200_000,
            backoff_starvation_cycles: 0,
            blocking_locks: false,
            capture_final_state: false,
            profile: false,
            engine: Engine::default(),
            sm_threads: 0,
        }
    }

    /// Warp slots per SM.
    pub fn warps_per_sm(&self) -> usize {
        self.max_threads_per_sm / self.warp_size
    }

    /// The preset named `tiny` | `gtx480` | `gtx1080ti`.
    pub fn preset(name: &str) -> Option<GpuConfig> {
        match name {
            "tiny" => Some(GpuConfig::test_tiny()),
            "gtx480" => Some(GpuConfig::gtx480()),
            "gtx1080ti" => Some(GpuConfig::gtx1080ti()),
            _ => None,
        }
    }

    /// Structural sanity checks that `Gpu::run` performs before building
    /// any hardware state. A zero in any of these fields would otherwise
    /// panic deep inside the run loop (`sms[0]`, `units()[0]`, or a
    /// division by `warp_size`) — reachable from a hostile `simt-serve`
    /// request config, so it must surface as a structured error instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("num_sms must be at least 1".to_string());
        }
        if self.schedulers_per_sm == 0 {
            return Err("schedulers_per_sm must be at least 1".to_string());
        }
        if self.warp_size == 0 {
            return Err("warp_size must be at least 1".to_string());
        }
        if self.max_threads_per_sm < self.warp_size {
            return Err(format!(
                "max_threads_per_sm ({}) must hold at least one warp ({})",
                self.max_threads_per_sm, self.warp_size
            ));
        }
        if self.max_ctas_per_sm == 0 {
            return Err("max_ctas_per_sm must be at least 1".to_string());
        }
        if self.warps_per_sm() > WarpSet::CAPACITY {
            return Err(format!(
                "max_threads_per_sm ({}) / warp_size ({}) is {} warp slots per SM; at most {} \
                 are supported",
                self.max_threads_per_sm,
                self.warp_size,
                self.warps_per_sm(),
                WarpSet::CAPACITY
            ));
        }
        let offset = self.mem.max_event_offset();
        if offset > MAX_EVENT_OFFSET {
            return Err(format!(
                "a memory response can be due {offset} cycles ahead (the largest of \
                 l1_hit_latency, l2_hit_latency + icnt_latency and dram_latency + icnt_latency, \
                 plus the chaos max_atomic_delay); at most {MAX_EVENT_OFFSET} is supported"
            ));
        }
        Ok(())
    }

    /// Convert a cycle count into milliseconds at the core clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.core_clock_mhz as f64 * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_headline_numbers() {
        let fermi = GpuConfig::gtx480();
        assert_eq!(fermi.num_sms, 15);
        assert_eq!(fermi.warps_per_sm(), 48);
        assert_eq!(fermi.schedulers_per_sm, 2);
        let pascal = GpuConfig::gtx1080ti();
        assert_eq!(pascal.num_sms, 28);
        assert_eq!(pascal.warps_per_sm(), 64);
        assert_eq!(pascal.schedulers_per_sm, 4);
        // Warp slots per scheduler: 24 on Fermi vs 16 on Pascal; combined
        // with twice the SMs, a fixed workload leaves each Pascal scheduler
        // with ~1/4 of the warps (the paper's Section VI-D analysis).
        assert_eq!(fermi.warps_per_sm() / fermi.schedulers_per_sm, 24);
        assert_eq!(pascal.warps_per_sm() / pascal.schedulers_per_sm, 16);
    }

    #[test]
    fn cycles_to_ms() {
        let c = GpuConfig::gtx480();
        assert!((c.cycles_to_ms(700_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn presets_validate_clean() {
        for cfg in [
            GpuConfig::gtx480(),
            GpuConfig::gtx1080ti(),
            GpuConfig::test_tiny(),
        ] {
            assert!(cfg.validate().is_ok(), "{}", cfg.name);
        }
    }

    #[test]
    fn validate_rejects_degenerate_topologies() {
        type BreakCfg = fn(&mut GpuConfig);
        let cases: &[(BreakCfg, &str)] = &[
            (|c| c.num_sms = 0, "num_sms"),
            (|c| c.schedulers_per_sm = 0, "schedulers_per_sm"),
            (|c| c.warp_size = 0, "warp_size"),
            (|c| c.max_threads_per_sm = 16, "max_threads_per_sm"),
            (|c| c.max_ctas_per_sm = 0, "max_ctas_per_sm"),
            (|c| c.max_threads_per_sm = 65 * 32, "65 warp slots"),
            (|c| c.mem.dram_latency = 65_536 - 40, "dram_latency"),
        ];
        for (break_cfg, field) in cases {
            let mut cfg = GpuConfig::test_tiny();
            break_cfg(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert!(err.contains(field), "`{err}` should name `{field}`");
        }
    }

    #[test]
    fn preset_names_resolve() {
        for name in ["tiny", "gtx480", "gtx1080ti"] {
            assert!(GpuConfig::preset(name).is_some(), "{name}");
        }
        assert_eq!(GpuConfig::preset("h100"), None);
    }
}
