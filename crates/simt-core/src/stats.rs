//! Core-side simulation statistics (the raw material of every figure).

simt_snap::snap_counters! {
    /// Counters accumulated during a kernel run.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct SimStats {
        /// Cycles simulated for this kernel.
        pub cycles: u64,
        /// Warp instructions issued.
        pub issued_inst: u64,
        /// Sum over issued instructions of executing lanes (guard-passing active
        /// lanes) — the numerator of SIMD efficiency and the paper's "dynamic
        /// instruction" count at thread granularity.
        pub thread_inst: u64,
        /// Of `thread_inst`, lanes executing instructions annotated `!sync`
        /// (synchronization overhead, Figure 1c).
        pub sync_thread_inst: u64,
        /// Warp instructions that were detected spin-inducing branches at issue.
        pub sib_inst: u64,
        /// Lanes leaving a `!wait` loop (wait branch not taken).
        pub wait_exit_success: u64,
        /// Lanes staying in a `!wait` loop (wait branch taken).
        pub wait_exit_fail: u64,
        /// Per-cycle samples: resident warps that were in the backed-off state
        /// (only nonzero under BOWS).
        pub backed_off_warp_samples: u64,
        /// Per-cycle samples: resident (not yet finished) warps.
        pub resident_warp_samples: u64,
        /// Cycles in which at least one instruction issued on some SM.
        pub busy_cycles: u64,
        /// Barrier instructions executed (warp granularity).
        pub barriers: u64,
        /// Atomic instructions issued (warp granularity).
        pub atomic_inst: u64,
        /// Loads issued (warp granularity).
        pub load_inst: u64,
        /// Stores issued (warp granularity).
        pub store_inst: u64,
        /// CTAs completed.
        pub ctas_completed: u64,
        /// Warp-cycles stalled at a CTA barrier.
        pub stall_barrier: u64,
        /// Warp-cycles draining a memory fence.
        pub stall_membar: u64,
        /// Warp-cycles blocked on a scoreboard hazard (ALU latency or an
        /// outstanding load/atomic result).
        pub stall_data: u64,
        /// Warp-cycles held by BOWS's pending back-off delay.
        pub stall_backoff: u64,
        /// Warp-cycles eligible but losing issue arbitration to another warp.
        pub stall_arbitration: u64,
        /// Warp-cycles in which the warp issued.
        pub issued_cycles: u64,
    }
}

impl SimStats {
    /// SIMD efficiency: mean fraction of the 32 lanes doing useful work per
    /// issued instruction (Figure 1e / 13c).
    pub fn simd_efficiency(&self) -> f64 {
        if self.issued_inst == 0 {
            0.0
        } else {
            self.thread_inst as f64 / (self.issued_inst as f64 * 32.0)
        }
    }

    /// Fraction of thread-level instructions that are synchronization
    /// overhead (Figure 1c).
    pub fn sync_inst_fraction(&self) -> f64 {
        if self.thread_inst == 0 {
            0.0
        } else {
            self.sync_thread_inst as f64 / self.thread_inst as f64
        }
    }

    /// Mean fraction of resident warps sitting in the backed-off state
    /// (Figure 11).
    pub fn backed_off_fraction(&self) -> f64 {
        if self.resident_warp_samples == 0 {
            0.0
        } else {
            self.backed_off_warp_samples as f64 / self.resident_warp_samples as f64
        }
    }

    /// Warp-cycle stall breakdown as fractions of all resident warp-cycles:
    /// (issued, data, barrier, membar, backoff, arbitration). The residue to
    /// 1.0 is idle slots (e.g. pipeline re-issue gaps).
    pub fn stall_breakdown(&self) -> [f64; 6] {
        let denom = self.resident_warp_samples.max(1) as f64;
        [
            self.issued_cycles as f64 / denom,
            self.stall_data as f64 / denom,
            self.stall_barrier as f64 / denom,
            self.stall_membar as f64 / denom,
            self.stall_backoff as f64 / denom,
            self.stall_arbitration as f64 / denom,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws() {
        use simt_snap::Snap;
        simt_snap::assert_snap_laws(&SimStats::default());
        assert_eq!(SimStats::MIN_BYTES, 21 * 8);
    }

    #[test]
    fn simd_efficiency_math() {
        let s = SimStats {
            issued_inst: 10,
            thread_inst: 160,
            ..SimStats::default()
        };
        assert!((s.simd_efficiency() - 0.5).abs() < 1e-12);
        assert_eq!(SimStats::default().simd_efficiency(), 0.0);
    }

    #[test]
    fn fractions() {
        let s = SimStats {
            thread_inst: 100,
            sync_thread_inst: 61,
            backed_off_warp_samples: 30,
            resident_warp_samples: 60,
            ..SimStats::default()
        };
        assert!((s.sync_inst_fraction() - 0.61).abs() < 1e-12);
        assert!((s.backed_off_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_accumulates() {
        let mut a = SimStats {
            cycles: 5,
            issued_inst: 2,
            ..SimStats::default()
        };
        a.add(&SimStats {
            cycles: 7,
            thread_inst: 3,
            ..SimStats::default()
        });
        assert_eq!(a.cycles, 12);
        assert_eq!(a.issued_inst, 2);
        assert_eq!(a.thread_inst, 3);
    }
}
