//! Memory-system statistics (feed Figures 1d, 13b and the energy model).

simt_snap::snap_counters! {
    /// Counters accumulated by [`crate::MemorySystem`].
    ///
    /// "Transactions" are coalesced 128-byte requests, the unit the paper's
    /// Figure 1d / 13b report. Requests annotated as synchronization code are
    /// counted separately so overhead breakdowns can be reported.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MemStats {
        /// Transactions presented to an L1 (loads + stores, not atomics).
        pub l1_accesses: u64,
        /// L1 hits.
        pub l1_hits: u64,
        /// L1 misses (including merges into pending MSHRs).
        pub l1_misses: u64,
        /// Transactions serviced by L2 partitions (all kinds).
        pub l2_accesses: u64,
        /// L2 hits.
        pub l2_hits: u64,
        /// L2 misses.
        pub l2_misses: u64,
        /// DRAM line reads.
        pub dram_reads: u64,
        /// DRAM line writes.
        pub dram_writes: u64,
        /// Atomic transactions serviced (warp-level, coalesced per line).
        pub atomic_transactions: u64,
        /// Individual lane atomic operations applied.
        pub atomic_lane_ops: u64,
        /// Total memory transactions (L1-level loads/stores + atomics),
        /// the paper's "number of memory transactions".
        pub total_transactions: u64,
        /// Of `total_transactions`, those tagged as synchronization code.
        pub sync_transactions: u64,
        /// Lane-level lock acquires that succeeded (CAS saw the free value).
        pub lock_success: u64,
        /// Failed acquires where the lock was held by the *same* warp.
        pub lock_intra_fail: u64,
        /// Failed acquires where the lock was held by a *different* warp.
        pub lock_inter_fail: u64,
    }
}

impl MemStats {
    /// L1 hit rate in [0,1]; 0 when there were no accesses.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// Fraction of transactions attributable to synchronization.
    pub fn sync_fraction(&self) -> f64 {
        if self.total_transactions == 0 {
            0.0
        } else {
            self.sync_transactions as f64 / self.total_transactions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_snap::Snap;

    #[test]
    fn snap_laws() {
        simt_snap::assert_snap_laws(&MemStats::default());
        assert_eq!(MemStats::MIN_BYTES, 15 * 8);
    }

    #[test]
    fn rates() {
        let s = MemStats {
            l1_accesses: 10,
            l1_hits: 7,
            total_transactions: 4,
            sync_transactions: 1,
            ..MemStats::default()
        };
        assert!((s.l1_hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.sync_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(MemStats::default().l1_hit_rate(), 0.0);
    }

    #[test]
    fn add_accumulates() {
        let mut a = MemStats {
            l1_accesses: 1,
            ..Default::default()
        };
        let b = MemStats {
            l1_accesses: 2,
            dram_reads: 3,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.l1_accesses, 3);
        assert_eq!(a.dram_reads, 3);
    }
}
