//! Warp and CTA (thread block) state.

use crate::scoreboard::Scoreboard;
use crate::stack::SimtStack;
use simt_isa::{Pred, Reg};

/// A resident CTA's architectural state: per-thread registers/predicates,
/// shared memory, barrier bookkeeping.
#[derive(Debug, Clone)]
pub struct Cta {
    /// Global CTA index in the grid.
    pub id: usize,
    /// Threads in this CTA.
    pub threads: usize,
    /// Registers per thread (from the kernel).
    pub regs_per_thread: usize,
    /// Warps this CTA occupies.
    pub num_warps: usize,
    /// Of those, warps whose threads have all exited.
    pub warps_done: usize,
    /// Warps currently waiting at the CTA barrier.
    pub barrier_arrived: usize,
    regs: Vec<u32>,
    preds: Vec<u8>,
    /// Shared-memory words.
    pub shared: Vec<u32>,
}

impl Cta {
    /// Fresh CTA state, zero-initialized.
    pub fn new(id: usize, threads: usize, regs_per_thread: usize, shared_words: usize) -> Cta {
        let num_warps = threads.div_ceil(32);
        Cta {
            id,
            threads,
            regs_per_thread,
            num_warps,
            warps_done: 0,
            barrier_arrived: 0,
            regs: vec![0; threads * regs_per_thread],
            preds: vec![0; threads],
            shared: vec![0; shared_words],
        }
    }

    /// Read thread-private register `r` of `thread`.
    #[inline]
    pub fn reg(&self, thread: usize, r: Reg) -> u32 {
        self.regs[thread * self.regs_per_thread + r.index()]
    }

    /// Write thread-private register `r` of `thread`.
    #[inline]
    pub fn set_reg(&mut self, thread: usize, r: Reg, v: u32) {
        self.regs[thread * self.regs_per_thread + r.index()] = v;
    }

    /// Read predicate `p` of `thread`.
    #[inline]
    pub fn pred(&self, thread: usize, p: Pred) -> bool {
        self.preds[thread] & (1 << p.0) != 0
    }

    /// Write predicate `p` of `thread`.
    #[inline]
    pub fn set_pred(&mut self, thread: usize, p: Pred, v: bool) {
        if v {
            self.preds[thread] |= 1 << p.0;
        } else {
            self.preds[thread] &= !(1 << p.0);
        }
    }

    /// Warps still running (for barrier release).
    pub fn live_warps(&self) -> usize {
        self.num_warps - self.warps_done
    }

    /// Move the CTA's architectural state out at retirement (for the
    /// differential oracle's final-state capture). The CTA is consumed, so
    /// the register file transfers without a clone.
    pub fn into_state(self) -> CtaState {
        CtaState {
            cta_id: self.id,
            threads: self.threads,
            regs_per_thread: self.regs_per_thread,
            regs: self.regs,
            preds: self.preds,
            shared: self.shared,
        }
    }
}

// Geometry, barrier bookkeeping, and all architectural state. Geometry is
// stored, not derived, so a snapshot whose counts disagree is corrupt.
simt_snap::snap_struct!(Cta {
    id: usize,
    threads: usize,
    regs_per_thread: usize,
    num_warps: usize,
    warps_done: usize,
    barrier_arrived: usize,
    regs: Vec<u32>,
    preds: Vec<u8>,
    shared: Vec<u32>,
} check |c: &Cta| {
    use simt_snap::SnapshotError;
    let Cta { id, threads, regs_per_thread, num_warps, warps_done, barrier_arrived, .. } = *c;
    if num_warps != threads.div_ceil(32) || warps_done > num_warps || barrier_arrived > num_warps
    {
        return Err(SnapshotError::malformed(format!(
            "cta {id}: inconsistent warp bookkeeping \
             ({num_warps} warps for {threads} threads, \
             {warps_done} done, {barrier_arrived} at barrier)"
        )));
    }
    if c.regs.len() != threads.saturating_mul(regs_per_thread) {
        return Err(SnapshotError::malformed(format!(
            "cta {id}: {} regs for {threads} threads x {regs_per_thread}",
            c.regs.len()
        )));
    }
    if c.preds.len() != threads {
        return Err(SnapshotError::malformed(format!(
            "cta {id}: {} predicate bytes for {threads} threads",
            c.preds.len()
        )));
    }
    Ok(())
});

/// Architectural state of one CTA at retirement: what the differential
/// oracle compares against the reference interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtaState {
    /// Global CTA index in the grid.
    pub cta_id: usize,
    /// Threads in the CTA.
    pub threads: usize,
    /// Registers per thread.
    pub regs_per_thread: usize,
    /// Row-major per-thread registers: `regs[thread * regs_per_thread + r]`.
    pub regs: Vec<u32>,
    /// Per-thread predicate bitmasks (bit `p` = predicate `p`).
    pub preds: Vec<u8>,
    /// Final shared-memory words.
    pub shared: Vec<u32>,
}

impl CtaState {
    /// Register `r` of `thread`.
    pub fn reg(&self, thread: usize, r: usize) -> u32 {
        self.regs[thread * self.regs_per_thread + r]
    }
}

simt_snap::snap_struct!(CtaState {
    cta_id: usize,
    threads: usize,
    regs_per_thread: usize,
    regs: Vec<u32>,
    preds: Vec<u8>,
    shared: Vec<u32>,
});

/// One warp slot on an SM.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Slot holds a live warp.
    pub resident: bool,
    /// All threads exited (slot awaiting CTA completion).
    pub done: bool,
    /// Which CTA slot on the SM this warp belongs to.
    pub cta_slot: usize,
    /// Warp index within its CTA.
    pub warp_in_cta: usize,
    /// SIMT reconvergence stack.
    pub stack: SimtStack,
    /// Register dependency scoreboard.
    pub sb: Scoreboard,
    /// Earliest cycle the warp may issue again (issue port pipelining).
    pub next_issue: u64,
    /// Memory instructions with outstanding transactions (fences drain it).
    pub outstanding_mem: u32,
    /// Warp executed `membar` and waits for `outstanding_mem == 0`.
    pub waiting_membar: bool,
    /// Warp arrived at the CTA barrier and waits for release.
    pub at_barrier: bool,
    /// Launch-order key (smaller = older) for GTO/age policies.
    pub age_key: u64,
}

impl Warp {
    /// An empty (non-resident) slot.
    pub fn vacant() -> Warp {
        Warp {
            resident: false,
            done: false,
            cta_slot: 0,
            warp_in_cta: 0,
            stack: SimtStack::new(0, 0),
            sb: Scoreboard::new(),
            next_issue: 0,
            outstanding_mem: 0,
            waiting_membar: false,
            at_barrier: false,
            age_key: u64::MAX,
        }
    }

    /// Launch a warp into this slot.
    pub fn launch(&mut self, cta_slot: usize, warp_in_cta: usize, mask: u32, age_key: u64) {
        *self = Warp {
            resident: true,
            done: false,
            cta_slot,
            warp_in_cta,
            stack: SimtStack::new(mask, 0),
            sb: Scoreboard::new(),
            next_issue: 0,
            outstanding_mem: 0,
            waiting_membar: false,
            at_barrier: false,
            age_key,
        };
    }

    /// Thread index (within the CTA) of `lane`.
    #[inline]
    pub fn thread_of(&self, lane: usize) -> usize {
        self.warp_in_cta * 32 + lane
    }
}

simt_snap::snap_struct!(Warp {
    resident: bool,
    done: bool,
    cta_slot: usize,
    warp_in_cta: usize,
    stack: SimtStack,
    sb: Scoreboard,
    next_issue: u64,
    outstanding_mem: u32,
    waiting_membar: bool,
    at_barrier: bool,
    age_key: u64,
});

#[cfg(test)]
mod tests {
    use super::*;


    #[test]
    fn snap_laws() {
        use simt_snap::assert_snap_laws;
        assert_snap_laws(&Cta::new(0, 0, 0, 0));
        assert_snap_laws(&Cta::new(3, 100, 4, 16));
        assert_snap_laws(&Cta::new(3, 100, 4, 16).into_state());
        assert_snap_laws(&Cta::new(0, 0, 0, 0).into_state());
        let mut w = Warp::vacant();
        w.launch(2, 1, 0xffff_ffff, 7);
        assert_snap_laws(&w);
        w.stack.exit_threads(u32::MAX); // empty stack: the smallest warp
        assert_snap_laws(&w);
    }

    #[test]
    fn cta_with_inconsistent_bookkeeping_is_rejected() {
        use simt_snap::{encode, Snap, SnapReader};
        type Corrupt = fn(&mut Cta);
        let cases: [(&str, Corrupt); 4] = [
            ("inconsistent warp bookkeeping", |c| c.num_warps += 1),
            ("inconsistent warp bookkeeping", |c| c.warps_done = c.num_warps + 1),
            ("regs for", |c| c.regs.push(0)),
            ("predicate bytes", |c| c.preds.push(0)),
        ];
        for (what, corrupt) in cases {
            let mut cta = Cta::new(3, 100, 4, 16);
            corrupt(&mut cta);
            let err = Cta::load(&mut SnapReader::new(&encode(&cta))).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn cta_register_isolation() {
        let mut cta = Cta::new(0, 64, 8, 16);
        cta.set_reg(0, Reg(3), 11);
        cta.set_reg(1, Reg(3), 22);
        assert_eq!(cta.reg(0, Reg(3)), 11);
        assert_eq!(cta.reg(1, Reg(3)), 22);
        assert_eq!(cta.reg(2, Reg(3)), 0);
    }

    #[test]
    fn cta_predicates() {
        let mut cta = Cta::new(0, 32, 4, 0);
        assert!(!cta.pred(5, Pred(1)));
        cta.set_pred(5, Pred(1), true);
        assert!(cta.pred(5, Pred(1)));
        assert!(!cta.pred(5, Pred(0)));
        cta.set_pred(5, Pred(1), false);
        assert!(!cta.pred(5, Pred(1)));
    }

    #[test]
    fn warp_counts() {
        let cta = Cta::new(0, 100, 4, 0);
        assert_eq!(cta.num_warps, 4, "100 threads = 4 warps (last partial)");
        assert_eq!(cta.live_warps(), 4);
    }

    #[test]
    fn warp_launch_resets_state() {
        let mut w = Warp::vacant();
        assert!(!w.resident);
        w.launch(2, 1, 0xffff_ffff, 7);
        assert!(w.resident);
        assert_eq!(w.thread_of(5), 37);
        assert_eq!(w.stack.active_mask(), u32::MAX);
        assert_eq!(w.age_key, 7);
    }
}
