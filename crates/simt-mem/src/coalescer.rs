//! Memory-access coalescing: a warp's lane accesses → line transactions.

use crate::{line_of, Addr};

/// A coalesced 128-byte transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Line-aligned address.
    pub line: Addr,
    /// Bitmask of lanes participating in this transaction.
    pub lane_mask: u32,
}

impl Transaction {
    /// Number of lanes served by this transaction.
    pub fn lanes(&self) -> u32 {
        self.lane_mask.count_ones()
    }
}

/// Coalescing unit: groups the active lanes' addresses by cache line,
/// preserving first-touch order (the order transactions are issued to the
/// memory system, as on hardware).
#[derive(Debug, Clone, Copy, Default)]
pub struct Coalescer;

impl Coalescer {
    /// Coalesce a warp's accesses — `addrs[lane]` for each lane in `lanes`
    /// — into per-line transactions, replacing the contents of `out` (a
    /// buffer the caller reuses, so the per-instruction path allocates
    /// nothing once it has grown).
    pub fn coalesce_into(lanes: u32, addrs: &[Addr; 32], out: &mut Vec<Transaction>) {
        out.clear();
        for (lane, &addr) in addrs.iter().enumerate() {
            if lanes >> lane & 1 == 0 {
                continue;
            }
            let line = line_of(addr);
            match out.iter_mut().find(|t| t.line == line) {
                Some(t) => t.lane_mask |= 1u32 << lane,
                None => out.push(Transaction {
                    line,
                    lane_mask: 1u32 << lane,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_BYTES;

    /// Coalesce `lanes` of a warp whose lane `l` accesses `addr(l)`.
    fn coalesce(lanes: u32, addr: impl Fn(u64) -> Addr) -> Vec<Transaction> {
        let addrs = std::array::from_fn(|l| addr(l as u64));
        // Stale contents must not survive into the result.
        let mut out = vec![Transaction {
            line: 0xdead_0000,
            lane_mask: 1,
        }];
        Coalescer::coalesce_into(lanes, &addrs, &mut out);
        out
    }

    #[test]
    fn unit_stride_coalesces_to_one_line() {
        let txs = coalesce(u32::MAX, |l| 0x1000 + l * 4);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].line, 0x1000);
        assert_eq!(txs[0].lane_mask, u32::MAX);
        assert_eq!(txs[0].lanes(), 32);
    }

    #[test]
    fn strided_accesses_fan_out() {
        // 128-byte stride: every lane its own line.
        let txs = coalesce(u32::MAX, |l| l * LINE_BYTES);
        assert_eq!(txs.len(), 32);
        for (i, t) in txs.iter().enumerate() {
            assert_eq!(t.lanes(), 1);
            assert_eq!(t.line, i as u64 * LINE_BYTES);
        }
    }

    #[test]
    fn same_address_merges() {
        // All lanes hit the same mutex word (the lock-acquire pattern).
        let txs = coalesce(u32::MAX, |_| 0x2000);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].lane_mask, u32::MAX);
    }

    #[test]
    fn misaligned_straddle_hits_two_lines() {
        // Lane 0 at line end, lane 1 in next line.
        let txs = coalesce(0b11, |l| LINE_BYTES - 4 + l * 4);
        assert_eq!(txs.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce(0, |l| l * 4).is_empty());
    }

    #[test]
    fn inactive_lanes_are_not_accessed() {
        // Lanes 1 and 4 only; the others' addresses (one line each) are
        // whatever the register column held.
        let txs = coalesce(0b1_0010, |l| l * LINE_BYTES);
        let lines: Vec<_> = txs.iter().map(|t| (t.line, t.lane_mask)).collect();
        assert_eq!(lines, [(LINE_BYTES, 1 << 1), (4 * LINE_BYTES, 1 << 4)]);
    }

    #[test]
    fn lane_union_covers_all_inputs() {
        let txs = coalesce(u32::MAX, |l| (l % 3) * LINE_BYTES);
        let union: u32 = txs.iter().fold(0, |m, t| m | t.lane_mask);
        assert_eq!(union, u32::MAX);
        // Masks are disjoint (each access is word-sized, one line each).
        let total: u32 = txs.iter().map(|t| t.lanes()).sum();
        assert_eq!(total, 32);
    }
}
