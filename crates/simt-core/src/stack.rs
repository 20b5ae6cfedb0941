//! The stack-based SIMT reconvergence mechanism.
//!
//! This is the "SIMT stack" of pre-Volta NVIDIA/AMD GPUs that the paper
//! targets: divergent branches push entries for each side, threads execute
//! one side at a time, and diverged threads reconverge at the branch's
//! immediate post-dominator. It is also the mechanism that produces
//! *SIMT-induced deadlock* (Section IV of the paper) when a spin loop's exit
//! is control-dependent on threads blocked below the reconvergence point —
//! which is why the workloads place lock releases inside the loop body.

use simt_isa::RECONV_EXIT;

/// One reconvergence-stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Next PC for the threads in `mask`.
    pub pc: usize,
    /// Reconvergence PC: when `pc` reaches it, this entry pops.
    pub rpc: usize,
    /// Active thread mask.
    pub mask: u32,
}

/// A warp's SIMT reconvergence stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtStack {
    entries: Vec<StackEntry>,
}

impl SimtStack {
    /// A converged warp with `mask` threads starting at `entry_pc`.
    pub fn new(mask: u32, entry_pc: usize) -> SimtStack {
        SimtStack {
            entries: vec![StackEntry {
                pc: entry_pc,
                rpc: RECONV_EXIT,
                mask,
            }],
        }
    }

    /// True when every thread has exited.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current PC (top of stack).
    ///
    /// # Panics
    ///
    /// Panics if the warp has fully exited.
    pub fn pc(&self) -> usize {
        self.top().pc
    }

    /// Current active mask.
    pub fn active_mask(&self) -> u32 {
        self.entries.last().map_or(0, |e| e.mask)
    }

    /// Stack depth (test/instrumentation).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    fn top(&self) -> &StackEntry {
        self.entries.last().expect("SIMT stack empty")
    }

    fn top_mut(&mut self) -> &mut StackEntry {
        self.entries.last_mut().expect("SIMT stack empty")
    }

    /// Advance the top entry to `next_pc` (non-branch or uniform control
    /// flow), popping on reconvergence.
    pub fn advance(&mut self, next_pc: usize) {
        self.top_mut().pc = next_pc;
        self.maybe_reconverge();
    }

    /// Apply a (possibly divergent) branch executed by the top entry.
    ///
    /// `taken` is the mask of active threads taking the branch to `target`;
    /// the remaining active threads fall through to `fallthrough`. `rpc` is
    /// the branch's reconvergence point (its block's immediate
    /// post-dominator, [`RECONV_EXIT`] if none).
    pub fn branch(&mut self, taken: u32, target: usize, fallthrough: usize, rpc: usize) {
        let active = self.top().mask;
        let taken = taken & active;
        let not_taken = active & !taken;
        if not_taken == 0 {
            self.advance(target);
        } else if taken == 0 {
            self.advance(fallthrough);
        } else {
            // Divergence: the current entry becomes the reconvergence entry;
            // push fall-through then taken (taken executes first, matching
            // GPGPU-Sim).
            self.top_mut().pc = rpc;
            self.entries.push(StackEntry {
                pc: fallthrough,
                rpc,
                mask: not_taken,
            });
            self.entries.push(StackEntry {
                pc: target,
                rpc,
                mask: taken,
            });
            // A side that starts at the reconvergence point (e.g. an
            // `if`-guarded block whose "skip" target is the join) has
            // nothing to execute and reconverges immediately.
            self.maybe_reconverge();
        }
    }

    /// Remove exited threads (from every entry); pops emptied entries.
    pub fn exit_threads(&mut self, mask: u32) {
        for e in &mut self.entries {
            e.mask &= !mask;
        }
        while let Some(top) = self.entries.last() {
            if top.mask == 0 {
                self.entries.pop();
            } else {
                break;
            }
        }
        // Interior empty entries also vanish (they would pop as empty later,
        // but removing them now keeps depth() meaningful).
        self.entries.retain(|e| e.mask != 0);
        self.maybe_reconverge();
    }

    fn maybe_reconverge(&mut self) {
        while let Some(top) = self.entries.last() {
            if top.rpc != RECONV_EXIT && top.pc == top.rpc && self.entries.len() > 1 {
                self.entries.pop();
            } else {
                break;
            }
        }
    }

    /// The full stack, for invariant checks in tests.
    pub fn entries(&self) -> &[StackEntry] {
        &self.entries
    }
}

simt_snap::snap_struct!(StackEntry {
    pc: usize,
    rpc: usize,
    mask: u32
});
// Every entry, bottom to top.
simt_snap::snap_struct!(SimtStack { entries: Vec<StackEntry> });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws() {
        let mut s = SimtStack::new(0xf, 0);
        s.branch(0x3, 10, 1, 20);
        simt_snap::assert_snap_laws(&s);
        s.exit_threads(0xf);
        simt_snap::assert_snap_laws(&s); // empty: the smallest stack
    }

    const FULL: u32 = u32::MAX;

    #[test]
    fn uniform_advance() {
        let mut s = SimtStack::new(FULL, 0);
        s.advance(1);
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), FULL);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn divergence_and_reconvergence() {
        // Branch at pc 1: lanes 0..16 take to 5, rest fall to 2, rpc 8.
        let mut s = SimtStack::new(FULL, 1);
        let taken = 0x0000_ffff;
        s.branch(taken, 5, 2, 8);
        // Taken side executes first.
        assert_eq!(s.pc(), 5);
        assert_eq!(s.active_mask(), taken);
        assert_eq!(s.depth(), 3);
        // Taken side reaches the reconvergence point.
        s.advance(8);
        assert_eq!(s.pc(), 2, "fall-through side now runs");
        assert_eq!(s.active_mask(), !taken);
        // Fall-through reaches rpc: both pop, warp reconverges.
        s.advance(8);
        assert_eq!(s.pc(), 8);
        assert_eq!(s.active_mask(), FULL);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn uniform_taken_branch_no_push() {
        let mut s = SimtStack::new(FULL, 1);
        s.branch(FULL, 7, 2, 9);
        assert_eq!(s.pc(), 7);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn uniform_not_taken_branch() {
        let mut s = SimtStack::new(FULL, 1);
        s.branch(0, 7, 2, 9);
        assert_eq!(s.pc(), 2);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0xff, 0);
        s.branch(0x0f, 10, 1, 20); // outer
        assert_eq!(s.pc(), 10);
        s.branch(0x03, 12, 11, 15); // inner, within taken side
        assert_eq!(s.pc(), 12);
        assert_eq!(s.active_mask(), 0x03);
        assert_eq!(s.depth(), 5);
        s.advance(15); // inner taken reconverges
        assert_eq!(s.pc(), 11);
        assert_eq!(s.active_mask(), 0x0c);
        s.advance(15); // inner fallthrough reconverges
        assert_eq!(s.pc(), 15);
        assert_eq!(s.active_mask(), 0x0f);
        s.advance(20); // outer taken side reaches outer rpc
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0xf0);
        s.advance(20);
        assert_eq!(s.active_mask(), 0xff);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn masks_within_entry_are_subset_of_parent() {
        let mut s = SimtStack::new(0xffff, 0);
        s.branch(0x00ff, 5, 1, 9);
        let e = s.entries();
        // Child masks partition the parent's.
        assert_eq!(e[1].mask | e[2].mask, 0xffff);
        assert_eq!(e[1].mask & e[2].mask, 0);
    }

    #[test]
    fn exit_all_threads_empties_stack() {
        let mut s = SimtStack::new(0xf, 0);
        s.exit_threads(0xf);
        assert!(s.is_empty());
        assert_eq!(s.active_mask(), 0);
    }

    #[test]
    fn partial_exit_under_divergence() {
        let mut s = SimtStack::new(0xf, 0);
        s.branch(0x3, 10, 1, 20);
        // The two taken threads exit inside their side.
        s.exit_threads(0x3);
        // Fall-through side becomes top.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0xc);
        // Remaining threads reach rpc and reconverge to the base entry.
        s.advance(20);
        assert_eq!(s.active_mask(), 0xc);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn branch_target_at_reconvergence_point_pops_immediately() {
        // `@!p bra JOIN` guarding an if-block: the taken side's target IS
        // the join, so only the fall-through side executes before
        // reconvergence.
        let mut s = SimtStack::new(0xf, 1);
        s.branch(0xc, 9, 2, 9); // lanes 2,3 skip to the join at 9
        assert_eq!(s.pc(), 2, "if-block side runs first");
        assert_eq!(s.active_mask(), 0x3);
        s.advance(9);
        assert_eq!(s.pc(), 9);
        assert_eq!(s.active_mask(), 0xf, "full warp at the join");
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn reconverge_at_exit_sentinel_never_pops_base() {
        let mut s = SimtStack::new(0xf, 0);
        s.advance(RECONV_EXIT - 1); // arbitrary large pc, base entry remains
        assert_eq!(s.depth(), 1);
    }
}
