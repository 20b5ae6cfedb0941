//! A GPUWattch-flavoured event-based energy model.
//!
//! The paper reports *normalized dynamic energy* from GPUWattch. We account
//! energy per architectural event with McPAT-flavoured constants. BOWS
//! saves energy by executing fewer instructions and moving less data, but
//! it cuts each event count by a different factor, so normalized results
//! depend on the constants within a band, not invariantly: over the sync
//! suite at Small, GTO against GTO + adaptive BOWS, the gmean saving reads
//! 1.64x at these constants, 1.61–1.67x with any one constant halved or
//! doubled, and 1.06x (only L1 or only DRAM costs) to 1.80x (only issue
//! costs) at the corners.

use crate::SimStats;
use simt_mem::MemStats;

/// Per-event energies in picojoules, plus static power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Fetch/decode/issue overhead per warp instruction.
    pub issue_pj: f64,
    /// Per-lane execution (datapath + register file) per thread instruction.
    pub lane_pj: f64,
    /// L1 access.
    pub l1_pj: f64,
    /// L2 access.
    pub l2_pj: f64,
    /// DRAM access (per 128 B line).
    pub dram_pj: f64,
    /// Atomic lane operation at the L2 atomic unit.
    pub atomic_pj: f64,
    /// Static power per SM, watts (reported separately from dynamic).
    pub static_w_per_sm: f64,
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel {
            issue_pj: 30.0,
            lane_pj: 8.0,
            l1_pj: 60.0,
            l2_pj: 90.0,
            dram_pj: 320.0,
            atomic_pj: 45.0,
            static_w_per_sm: 0.9,
        }
    }
}

/// Energy totals for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core dynamic energy (issue + lanes), joules.
    pub core_j: f64,
    /// Memory-hierarchy dynamic energy, joules.
    pub mem_j: f64,
    /// Static (leakage) energy over the run, joules.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy (what the paper's Figure 9b/15b normalize).
    pub fn dynamic_j(&self) -> f64 {
        self.core_j + self.mem_j
    }
}

impl EnergyModel {
    /// Evaluate the model over a run's statistics.
    pub fn evaluate(
        &self,
        sim: &SimStats,
        mem: &MemStats,
        num_sms: usize,
        core_clock_mhz: u64,
    ) -> EnergyBreakdown {
        let pj = 1e-12;
        let core_j =
            (sim.issued_inst as f64 * self.issue_pj + sim.thread_inst as f64 * self.lane_pj) * pj;
        let mem_j = (mem.l1_accesses as f64 * self.l1_pj
            + mem.l2_accesses as f64 * self.l2_pj
            + (mem.dram_reads + mem.dram_writes) as f64 * self.dram_pj
            + mem.atomic_lane_ops as f64 * self.atomic_pj)
            * pj;
        let seconds = sim.cycles as f64 / (core_clock_mhz as f64 * 1e6);
        let static_j = self.static_w_per_sm * num_sms as f64 * seconds;
        EnergyBreakdown {
            core_j,
            mem_j,
            static_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_instructions_means_less_dynamic_energy() {
        let m = EnergyModel::default();
        let mem = MemStats::default();
        let a = SimStats {
            issued_inst: 1000,
            thread_inst: 32_000,
            ..SimStats::default()
        };
        let mut b = a.clone();
        b.issued_inst = 500;
        b.thread_inst = 16_000;
        let ea = m.evaluate(&a, &mem, 15, 700);
        let eb = m.evaluate(&b, &mem, 15, 700);
        assert!(eb.dynamic_j() < ea.dynamic_j());
        assert!((ea.dynamic_j() / eb.dynamic_j() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn static_energy_scales_with_time() {
        let m = EnergyModel::default();
        let mem = MemStats::default();
        let s = SimStats {
            cycles: 700_000, // 1 ms at 700 MHz
            ..SimStats::default()
        };
        let e = m.evaluate(&s, &mem, 15, 700);
        // 0.9 W * 15 SMs * 1 ms = 13.5 mJ.
        assert!((e.static_j - 0.0135).abs() < 1e-6);
        assert_eq!(e.dynamic_j(), 0.0);
    }

    #[test]
    fn memory_events_contribute() {
        let m = EnergyModel::default();
        let sim = SimStats::default();
        let mem = MemStats {
            l1_accesses: 10,
            l2_accesses: 5,
            dram_reads: 2,
            dram_writes: 1,
            atomic_lane_ops: 4,
            ..MemStats::default()
        };
        let e = m.evaluate(&sim, &mem, 1, 700);
        let expect = (10.0 * 60.0 + 5.0 * 90.0 + 3.0 * 320.0 + 4.0 * 45.0) * 1e-12;
        assert!((e.mem_j - expect).abs() < 1e-18);
    }
}
