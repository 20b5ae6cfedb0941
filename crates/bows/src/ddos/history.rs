//! Per-warp path/value history registers and the match-pointer loop
//! detector (the Figure 7 walk-through, exactly).

use crate::ddos::hash::{hash_path, hash_value, HashKind};
use std::collections::VecDeque;

/// One `setp` observation after hashing: its path hash and the two source
/// value hashes (the value history holds two entries per `setp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Hashed `setp` PC (m bits).
    pub path: u16,
    /// Hashed source operand values (k bits each).
    pub vals: [u16; 2],
}

/// A warp's history registers plus the match-pointer periodicity detector.
///
/// States: *searching* (`remaining == None`) — the match pointer grows with
/// every mismatching insertion, and an insertion matching the record
/// `match_pointer + 1` positions back proposes that distance as the loop
/// period; *confirming* (`remaining == Some(n > 0)`) — each further
/// insertion must match the record one period back; after `period - 1`
/// consecutive matches the warp enters the *spinning* state; any mismatch
/// resets everything (and clears the registers).
///
/// A period-`p` loop is only detectable when both full iterations fit in
/// the registers (`2p < l`) — this is the paper's "DDOS needs at least five
/// entries in its history registers" (a two-`setp` loop needs `l >= 5`).
#[derive(Debug, Clone)]
pub struct WarpHistory {
    hash: HashKind,
    path_bits: u8,
    value_bits: u8,
    capacity: usize,
    /// When false, only the path history is compared — the ablation that
    /// shows why DDOS needs the value history at all (every loop repeats
    /// its path; only busy-wait loops also repeat their values).
    track_values: bool,
    /// Newest record at the front.
    records: VecDeque<Record>,
    match_pointer: usize,
    remaining: Option<u32>,
    spinning: bool,
}

impl WarpHistory {
    /// Registers holding `history_len` records (`l` in the paper).
    pub fn new(hash: HashKind, path_bits: u8, value_bits: u8, history_len: usize) -> WarpHistory {
        WarpHistory {
            hash,
            path_bits,
            value_bits,
            capacity: history_len.max(1),
            track_values: true,
            records: VecDeque::with_capacity(history_len.max(1)),
            match_pointer: 0,
            remaining: None,
            spinning: false,
        }
    }

    /// Disable value-history comparison (path-only ablation).
    pub fn without_value_history(mut self) -> WarpHistory {
        self.track_values = false;
        self
    }

    /// Is the warp currently classified as spinning?
    pub fn spinning(&self) -> bool {
        self.spinning
    }

    /// Current match pointer (test access).
    pub fn match_pointer(&self) -> usize {
        self.match_pointer
    }

    /// Remaining confirmations (test access).
    pub fn remaining(&self) -> Option<u32> {
        self.remaining
    }

    /// Clear everything (warp reassigned, or time-sharing owner switch).
    pub fn reset(&mut self) {
        self.records.clear();
        self.match_pointer = 0;
        self.remaining = None;
        self.spinning = false;
    }

    /// Largest loop period this register length can detect.
    pub fn max_period(&self) -> usize {
        // 2p < l  ⇔  p <= (l - 1) / 2.
        self.capacity.saturating_sub(1) / 2
    }

    /// Observe a `setp` execution: hash and insert, updating the detector.
    pub fn observe(&mut self, inst_index: usize, srcs: [u32; 2]) {
        let vals = if self.track_values {
            [
                hash_value(self.hash, srcs[0], self.value_bits),
                hash_value(self.hash, srcs[1], self.value_bits),
            ]
        } else {
            [0, 0]
        };
        let rec = Record {
            path: hash_path(self.hash, inst_index, self.path_bits),
            vals,
        };
        self.insert(rec);
    }

    fn insert(&mut self, rec: Record) {
        match self.remaining {
            Some(rem) => {
                // Confirming / holding at period `match_pointer`.
                let p = self.match_pointer;
                let matches = p >= 1 && self.records.get(p - 1) == Some(&rec);
                if matches {
                    if rem > 0 {
                        let rem = rem - 1;
                        self.remaining = Some(rem);
                        if rem == 0 {
                            self.spinning = true;
                        }
                    }
                    // rem == 0: stays spinning.
                } else {
                    self.reset();
                    return; // mismatching record is discarded with the reset
                }
            }
            None => {
                // Searching.
                if !self.records.is_empty() {
                    let mp = self.match_pointer;
                    let period = mp + 1;
                    let detectable = 2 * period < self.capacity;
                    if detectable && self.records.get(mp) == Some(&rec) {
                        // Loop of length `period` proposed: need period-1
                        // further consecutive matches.
                        self.match_pointer = period;
                        let rem = (period - 1) as u32;
                        self.remaining = Some(rem);
                        if rem == 0 {
                            self.spinning = true;
                        }
                    } else if mp + 1 >= self.capacity {
                        // Ran off the register without finding a period:
                        // start over so a later-starting loop can align.
                        self.reset();
                        return;
                    } else {
                        self.match_pointer = mp + 1;
                    }
                }
            }
        }
        self.records.push_front(rec);
        if self.records.len() > self.capacity {
            self.records.pop_back();
        }
    }
}

simt_snap::snap_struct!(Record {
    path: u16,
    vals: [u16; 2]
});

// The dynamic detector state — records newest-first, the match pointer,
// confirmation countdown, and spinning flag. Hash scheme and register
// geometry are construction-time.
simt_snap::snap_struct!(state WarpHistory {
    records: VecDeque<Record>,
    match_pointer: usize,
    remaining: Option<u32>,
    spinning: bool,
} check |h: &WarpHistory| {
    if h.records.len() <= h.capacity {
        Ok(())
    } else {
        Err(simt_snap::SnapshotError::malformed(format!(
            "warp history holds {} records, registers hold {}",
            h.records.len(),
            h.capacity
        )))
    }
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws_and_capacity_check() {
        simt_snap::assert_snap_laws(&Record {
            path: 1,
            vals: [2, 3],
        });
        let mut h = hist(8);
        for i in 0..5 {
            h.observe(10 + (i % 2), [i as u32, 0]);
        }
        let mut w = simt_snap::SnapWriter::new();
        h.save_fields(&mut w);
        let body = w.into_bytes();
        let mut back = hist(8);
        back.load_fields(&mut simt_snap::SnapReader::new(&body))
            .unwrap();
        assert_eq!(back.records, h.records);
        assert_eq!(
            (back.match_pointer, back.remaining, back.spinning),
            (h.match_pointer, h.remaining, h.spinning)
        );
        let err = hist(2)
            .load_fields(&mut simt_snap::SnapReader::new(&body))
            .unwrap_err();
        assert!(err.to_string().contains("registers hold 2"), "{err}");
    }

    fn hist(l: usize) -> WarpHistory {
        WarpHistory::new(HashKind::Xor, 8, 8, l)
    }

    /// The Figure 7b walk-through: a two-`setp` busy-wait loop. Records:
    /// A = setp@0x038 (CAS result, fails: %r15 = 1), B = setp@0x090
    /// (done flag, still 0).
    #[test]
    fn figure7b_walkthrough() {
        let mut h = hist(8);
        let a = [1u32, 0]; // %r15 = 1 (lock busy), compared against 0
        let b = [0u32, 0]; // %r21 = 0 (not done)
                           // 1: insert A.
        h.observe(7, a);
        assert_eq!(h.match_pointer(), 0);
        assert!(!h.spinning());
        // 2: insert B — mismatch, MP -> 1.
        h.observe(18, b);
        assert_eq!(h.match_pointer(), 1);
        // 3: insert A again — matches 2 back: period 2, RM = 1.
        h.observe(7, a);
        assert_eq!(h.match_pointer(), 2);
        assert_eq!(h.remaining(), Some(1));
        assert!(!h.spinning());
        // 4: insert B again — RM = 0: spinning.
        h.observe(18, b);
        assert_eq!(h.remaining(), Some(0));
        assert!(h.spinning(), "warp identified as spinning");
        // 5: lock acquired — the CAS setp sees %r15 = 0: value mismatch,
        // everything resets, spinning state lost.
        h.observe(7, [0, 0]);
        assert!(!h.spinning());
        assert_eq!(h.match_pointer(), 0);
        assert_eq!(h.remaining(), None);
    }

    /// The Figure 7d walk-through: a normal `for` loop — the induction
    /// variable's value changes every iteration, so the value history never
    /// matches even though the path repeats.
    #[test]
    fn figure7d_normal_loop_not_spinning() {
        let mut h = hist(8);
        for i in 0..20u32 {
            h.observe(11, [i, 100]); // setp.lt %p4, %r20(=i), %r15(=100)
            assert!(!h.spinning(), "iteration {i}");
        }
    }

    #[test]
    fn period_one_loop_detected() {
        // while (atomicCAS(..) != 0): a single setp per iteration with a
        // constant failing value.
        let mut h = hist(8);
        h.observe(3, [1, 0]);
        assert!(!h.spinning());
        h.observe(3, [1, 0]);
        assert!(h.spinning(), "period-1 loop spins after 2 observations");
        // And stays spinning while values repeat.
        h.observe(3, [1, 0]);
        assert!(h.spinning());
    }

    #[test]
    fn modulo_aliasing_causes_false_spin() {
        // A loop counting by 256 with k = 8 MODULO hashing: the hashed value
        // never changes, so DDOS falsely detects spinning (Figure 14).
        let mut h = WarpHistory::new(HashKind::Modulo, 8, 8, 8);
        for i in 0..6u32 {
            h.observe(5, [i * 256, 10 * 256]);
        }
        assert!(h.spinning(), "MODULO hash aliases the stride away");
        // XOR hashing sees the high bits and never matches.
        let mut h = WarpHistory::new(HashKind::Xor, 8, 8, 8);
        for i in 0..6u32 {
            h.observe(5, [i * 256, 10 * 256]);
        }
        assert!(!h.spinning());
    }

    #[test]
    fn short_registers_cannot_detect() {
        // l <= 2: no period is detectable at all (2p < l has no solution).
        for l in [1usize, 2] {
            let mut h = hist(l);
            assert_eq!(h.max_period(), 0);
            for _ in 0..20 {
                h.observe(3, [1, 0]);
                h.observe(9, [0, 0]);
            }
            assert!(!h.spinning(), "l = {l}");
        }
        // l = 4 detects period 1 but not period 2.
        let mut h = hist(4);
        assert_eq!(h.max_period(), 1);
        for _ in 0..20 {
            h.observe(3, [1, 0]);
            h.observe(9, [0, 0]);
        }
        assert!(!h.spinning(), "period-2 loop needs l >= 5");
        let mut h = hist(4);
        for _ in 0..20 {
            h.observe(3, [1, 0]);
        }
        assert!(h.spinning(), "period-1 loop fits in l = 4");
    }

    #[test]
    fn preceding_junk_realigns_after_reset() {
        // Unrelated setps before the spin loop push the match pointer off
        // alignment; the detector must still converge.
        let mut h = hist(8);
        for j in 0..5u32 {
            h.observe(20 + j as usize, [j, j + 1]);
        }
        for _ in 0..12 {
            h.observe(3, [1, 0]);
            h.observe(9, [0, 0]);
        }
        assert!(h.spinning(), "detector recovers from preceding history");
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = hist(8);
        h.observe(3, [1, 0]);
        h.observe(3, [1, 0]);
        assert!(h.spinning());
        h.reset();
        assert!(!h.spinning());
        assert_eq!(h.remaining(), None);
        assert_eq!(h.match_pointer(), 0);
    }

    #[test]
    fn path_only_ablation_false_detects_normal_loops() {
        // Without value history, the Figure 7d normal loop looks periodic
        // and is (wrongly) classified as spinning — the ablation that
        // justifies the value registers.
        let mut h = hist(8).without_value_history();
        for i in 0..10u32 {
            h.observe(11, [i, 100]);
        }
        assert!(h.spinning(), "path-only detection cannot tell loops apart");
        // The full detector on the same stream stays clean.
        let mut h = hist(8);
        for i in 0..10u32 {
            h.observe(11, [i, 100]);
        }
        assert!(!h.spinning());
    }

    #[test]
    fn three_setp_spin_loop_detected_at_l8() {
        // Nested-lock failure path: three setps per iteration (ATM-style).
        let mut h = hist(8);
        assert_eq!(h.max_period(), 3);
        for _ in 0..12 {
            h.observe(3, [1, 0]);
            h.observe(7, [0, 0]);
            h.observe(11, [0, 0]);
        }
        assert!(h.spinning());
    }
}
