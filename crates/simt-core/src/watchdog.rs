//! Per-warp forward-progress tracking and structured hang diagnostics.
//!
//! The paper's failure modes are all *liveness* failures: SIMT-induced
//! deadlock (Section II), scheduler livelock under strict GTO/CAWA, and
//! starvation of backed-off warps if BOWS's delay is mistuned. A plain
//! "no issue for N cycles" watchdog only catches the first; spinning warps
//! keep issuing forever, so livelock looks like progress. This module
//! tracks, per warp:
//!
//! * the last cycle it issued any instruction,
//! * the last cycle its PC moved to a new instruction,
//! * how many consecutive iterations of the same short, store-free loop it
//!   has executed (the spin-iteration counter).
//!
//! From these the GPU loop classifies hangs ([`HangClass`]) and builds a
//! [`HangReport`] snapshotting every live warp — PC, SIMT-stack depth,
//! scoreboard state, back-off queue position, in-flight memory — so a hung
//! simulation fails with a diagnosis instead of a timeout.

use std::fmt;

/// Sentinel for "never happened yet".
const NEVER: u64 = u64::MAX;

/// Consecutive same-loop iterations before a warp counts as spinning.
pub const SPIN_MIN_ITERS: u64 = 32;

/// Largest backward-branch distance (instructions) that can count as a
/// spin loop. Busy-wait loops are a handful of instructions; long compute
/// loops are excluded so they are never misclassified.
pub const SPIN_MAX_LOOP_LEN: usize = 32;

/// Forward-progress state of one warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpProgress {
    /// Last cycle the warp issued (NEVER until first observed alive).
    pub last_issue: u64,
    /// Last cycle the warp's PC differed from the previous issue's PC.
    pub last_pc_change: u64,
    last_pc: usize,
    /// Consecutive iterations of the current candidate spin loop.
    pub spin_iters: u64,
    loop_head: usize,
    loop_tail: usize,
}

impl Default for WarpProgress {
    fn default() -> WarpProgress {
        WarpProgress {
            last_issue: NEVER,
            last_pc_change: NEVER,
            last_pc: usize::MAX,
            spin_iters: 0,
            loop_head: usize::MAX,
            loop_tail: usize::MAX,
        }
    }
}

impl WarpProgress {
    /// First time the warp is seen alive, anchor its timestamps so idle
    /// ages are measured from residency, not from cycle 0 of the kernel.
    pub fn note_alive(&mut self, now: u64) {
        if self.last_issue == NEVER {
            self.last_issue = now;
            self.last_pc_change = now;
        }
    }

    /// The warp issued the instruction described by `info` at `now`.
    pub fn on_issue(&mut self, now: u64, info: &crate::sched::IssueInfo) {
        self.last_issue = now;
        if info.pc != self.last_pc {
            self.last_pc = info.pc;
            self.last_pc_change = now;
        }
        if info.writes_mem {
            // Stores are externally visible progress: a loop containing one
            // (NW's producer loops, work queues) is productive by
            // definition and must never be classified as spinning.
            self.reset_loop();
            return;
        }
        if info.is_branch && info.taken_backward {
            let head = info.pc - info.branch_distance;
            if self.loop_head == head && self.loop_tail == info.pc {
                self.spin_iters += 1;
            } else {
                self.loop_head = head;
                self.loop_tail = info.pc;
                self.spin_iters = 1;
            }
        } else if self.loop_tail != usize::MAX
            && (info.pc < self.loop_head || info.pc > self.loop_tail)
        {
            // Left the loop body: whatever it was, it terminated.
            self.reset_loop();
        }
    }

    fn reset_loop(&mut self) {
        self.spin_iters = 0;
        self.loop_head = usize::MAX;
        self.loop_tail = usize::MAX;
    }

    /// Currently iterating a short, store-free loop past the spin bound.
    pub fn spinning(&self) -> bool {
        self.spin_iters >= SPIN_MIN_ITERS
            && self.loop_tail.wrapping_sub(self.loop_head) <= SPIN_MAX_LOOP_LEN
    }

    /// Cycles since the warp last issued (0 if it never ran).
    pub fn idle_for(&self, now: u64) -> u64 {
        if self.last_issue == NEVER {
            0
        } else {
            now.saturating_sub(self.last_issue)
        }
    }
}

// The private loop-tracking fields ride along: hang classification after a
// resume must match the uninterrupted run bit for bit.
simt_snap::snap_struct!(WarpProgress {
    last_issue: u64,
    last_pc_change: u64,
    last_pc: usize,
    spin_iters: u64,
    loop_head: usize,
    loop_tail: usize,
});

/// Why the simulation was declared hung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangClass {
    /// Nothing issued and memory was idle for the whole watchdog window:
    /// every live warp is blocked (barrier, fence, or empty SIMT stack).
    GlobalDeadlock,
    /// One warp made no progress for the watchdog window while the rest of
    /// the machine kept issuing.
    Starvation {
        /// SM of the starved warp.
        sm: usize,
        /// Warp slot of the starved warp.
        warp: usize,
    },
    /// Every live warp is spinning (or blocked behind spinners) with zero
    /// lock acquisitions for the whole watchdog window — SIMT-induced
    /// deadlock or scheduler livelock.
    SpinLivelock,
    /// A BOWS backed-off warp exceeded the configured starvation bound
    /// without issuing (`GpuConfig::backoff_starvation_cycles`).
    BackoffStarvation {
        /// SM of the starved warp.
        sm: usize,
        /// Warp slot of the starved warp.
        warp: usize,
    },
    /// `max_cycles` elapsed before the grid completed.
    CycleLimit,
}

impl fmt::Display for HangClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HangClass::GlobalDeadlock => write!(f, "global deadlock"),
            HangClass::Starvation { sm, warp } => {
                write!(f, "starvation of sm {sm} warp {warp}")
            }
            HangClass::SpinLivelock => write!(f, "spin livelock"),
            HangClass::BackoffStarvation { sm, warp } => {
                write!(f, "back-off starvation of sm {sm} warp {warp}")
            }
            HangClass::CycleLimit => write!(f, "cycle limit"),
        }
    }
}

/// State of one live warp at hang time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpSnapshot {
    /// SM index.
    pub sm: usize,
    /// Warp slot on the SM.
    pub warp: usize,
    /// Current PC (top of the SIMT stack).
    pub pc: usize,
    /// SIMT reconvergence stack depth.
    pub stack_depth: usize,
    /// Active lanes at the top of the stack.
    pub active_lanes: u32,
    /// Memory instructions with outstanding transactions.
    pub outstanding_mem: u32,
    /// Waiting at the CTA barrier.
    pub at_barrier: bool,
    /// Draining a memory fence.
    pub waiting_membar: bool,
    /// In the scheduler's backed-off state (BOWS).
    pub backed_off: bool,
    /// Position in the back-off FIFO (0 = next to issue), if any.
    pub backoff_queue_position: Option<usize>,
    /// Consecutive iterations of the current spin-loop candidate.
    pub spin_iters: u64,
    /// Cycles since the warp last issued.
    pub idle_cycles: u64,
    /// Cycles since the warp's PC last changed.
    pub pc_stuck_cycles: u64,
    /// Registers with outstanding writes in the scoreboard.
    pub pending_regs: Vec<u16>,
}

impl fmt::Display for WarpSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sm {} warp {:2}: pc {:3} ({} lanes, stack depth {}), idle {} cy, pc stuck {} cy",
            self.sm,
            self.warp,
            self.pc,
            self.active_lanes,
            self.stack_depth,
            self.idle_cycles,
            self.pc_stuck_cycles
        )?;
        if self.spin_iters > 0 {
            write!(f, ", spin iters {}", self.spin_iters)?;
        }
        if self.outstanding_mem > 0 {
            write!(f, ", {} mem in flight", self.outstanding_mem)?;
        }
        if self.at_barrier {
            write!(f, ", at barrier")?;
        }
        if self.waiting_membar {
            write!(f, ", draining fence")?;
        }
        if self.backed_off {
            match self.backoff_queue_position {
                Some(p) => write!(f, ", backed off (queue #{p})")?,
                None => write!(f, ", backed off")?,
            }
        }
        if !self.pending_regs.is_empty() {
            write!(f, ", pending regs {:?}", self.pending_regs)?;
        }
        Ok(())
    }
}

/// Structured diagnosis of a hung (or cycle-limited) simulation, attached
/// to [`crate::SimError::Deadlock`] and [`crate::SimError::CycleLimit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Classification of the hang.
    pub class: HangClass,
    /// Cycle at which it was declared.
    pub cycle: u64,
    /// Scheduler policy name (e.g. `"bows(gto)"`).
    pub scheduler: String,
    /// Every live (resident, unfinished) warp, across all SMs.
    pub warps: Vec<WarpSnapshot>,
    /// Requests in flight anywhere in the memory system.
    pub mem_in_flight: usize,
    /// Successful lock acquisitions so far (a zero delta is the livelock
    /// signature).
    pub lock_success: u64,
    /// Failed lock-acquisition attempts so far.
    pub lock_fails: u64,
}

impl HangReport {
    /// Warps currently classified as spinning.
    pub fn spinning_warps(&self) -> impl Iterator<Item = &WarpSnapshot> {
        self.warps.iter().filter(|w| w.spin_iters >= SPIN_MIN_ITERS)
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hang diagnosis: {} at cycle {} (scheduler {})",
            self.class, self.cycle, self.scheduler
        )?;
        writeln!(
            f,
            "  memory requests in flight: {}; locks acquired: {} (failed attempts: {})",
            self.mem_in_flight, self.lock_success, self.lock_fails
        )?;
        if self.warps.is_empty() {
            writeln!(f, "  no live warps")?;
        }
        for w in &self.warps {
            writeln!(f, "  {w}")?;
        }
        Ok(())
    }
}

/// Aggregate view of one SM's warps for the periodic hang scan
/// (built by `Sm::scan_progress`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressScan {
    /// Resident, unfinished warps.
    pub live: u32,
    /// Of those, warps spinning past the bound.
    pub spinning: u32,
    /// Warps spinning **or** blocked (barrier / fence / outstanding
    /// memory). Livelock requires this to cover every live warp.
    pub spinning_or_blocked: u32,
    /// An unblocked warp that has not issued for the starvation bound.
    pub starved: Option<usize>,
    /// A backed-off warp idle past the back-off starvation bound.
    pub backoff_starved: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::IssueInfo;

    #[test]
    fn snap_laws() {
        simt_snap::assert_snap_laws(&WarpProgress::default());
    }

    fn branch(pc: usize, distance: usize) -> IssueInfo {
        IssueInfo {
            pc,
            is_branch: true,
            taken_backward: true,
            branch_distance: distance,
            ..IssueInfo::default()
        }
    }

    #[test]
    fn spin_counter_grows_on_repeated_backward_branch() {
        let mut p = WarpProgress::default();
        for i in 0..40 {
            p.on_issue(
                i,
                &IssueInfo {
                    pc: 5,
                    ..IssueInfo::default()
                },
            );
            p.on_issue(i, &branch(7, 2));
        }
        assert!(p.spinning());
        assert_eq!(p.spin_iters, 40);
    }

    #[test]
    fn store_in_loop_is_productive() {
        let mut p = WarpProgress::default();
        for i in 0..100 {
            p.on_issue(i, &branch(7, 2));
            p.on_issue(
                i,
                &IssueInfo {
                    pc: 6,
                    writes_mem: true,
                    ..IssueInfo::default()
                },
            );
        }
        assert!(!p.spinning(), "producer loops never count as spinning");
        assert_eq!(p.spin_iters, 0);
    }

    #[test]
    fn leaving_the_loop_resets_spin() {
        let mut p = WarpProgress::default();
        for i in 0..50 {
            p.on_issue(i, &branch(7, 2));
        }
        assert!(p.spinning());
        p.on_issue(
            50,
            &IssueInfo {
                pc: 9,
                ..IssueInfo::default()
            },
        );
        assert!(!p.spinning());
        assert_eq!(p.spin_iters, 0);
    }

    #[test]
    fn long_loops_are_not_spins() {
        let mut p = WarpProgress::default();
        for i in 0..100 {
            p.on_issue(i, &branch(500, 400));
        }
        assert!(
            !p.spinning(),
            "a 400-instruction loop is compute, not a spin"
        );
        assert_eq!(p.spin_iters, 100, "iterations still counted");
    }

    #[test]
    fn idle_age_is_anchored_at_first_sight() {
        let mut p = WarpProgress::default();
        assert_eq!(p.idle_for(1000), 0, "never-seen warp has no idle age");
        p.note_alive(100);
        assert_eq!(p.idle_for(150), 50);
        p.on_issue(200, &IssueInfo::default());
        assert_eq!(p.idle_for(205), 5);
    }

    #[test]
    fn report_display_mentions_class_and_warps() {
        let report = HangReport {
            class: HangClass::SpinLivelock,
            cycle: 12345,
            scheduler: "gto".to_string(),
            warps: vec![WarpSnapshot {
                sm: 0,
                warp: 3,
                pc: 7,
                stack_depth: 2,
                active_lanes: 32,
                outstanding_mem: 1,
                at_barrier: false,
                waiting_membar: false,
                backed_off: true,
                backoff_queue_position: Some(0),
                spin_iters: 999,
                idle_cycles: 40,
                pc_stuck_cycles: 4000,
                pending_regs: vec![2],
            }],
            mem_in_flight: 1,
            lock_success: 0,
            lock_fails: 512,
        };
        let s = report.to_string();
        assert!(s.contains("spin livelock"));
        assert!(s.contains("cycle 12345"));
        assert!(s.contains("sm 0 warp  3"));
        assert!(s.contains("spin iters 999"));
        assert!(s.contains("backed off (queue #0)"));
        assert_eq!(report.spinning_warps().count(), 1);
    }
}
