//! The streaming multiprocessor: issue, functional execution, divergence,
//! barriers, memory interfacing and scheduler-unit orchestration.

use crate::detect::{BranchLog, SpinDetector};
use crate::sched::{IssueInfo, SchedCtx, SchedulerPolicy, WarpMeta, WarpSet};
use crate::warp::{Cta, Warp};
use crate::watchdog::{ProgressScan, WarpProgress, WarpSnapshot};
use crate::{GpuConfig, SimError, SimStats};
use simt_isa::{
    Column, DecodedInst, DecodedKernel, ExecClass, Kernel, OpClass, Operand, Reg, Special,
};
use simt_mem::{LaneAtomic, LockRole, MemCompletion, MemRequest, MemorySystem, ReqKind, TagSlab};
use simt_snap::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

/// Writeback-wheel capacity; must exceed every ALU latency.
const WHEEL: usize = 64;

/// Shorthand for reporting a broken internal invariant instead of panicking.
fn invariant(what: String) -> SimError {
    SimError::InternalInvariant { what }
}

/// Immutable launch context shared by all SMs during a kernel run.
#[derive(Debug)]
pub struct LaunchCtx<'a> {
    /// The kernel being executed.
    pub kernel: &'a Kernel,
    /// The kernel's pre-decoded micro-op stream (same indices as
    /// `kernel.insts`); the per-cycle issue/execute path reads only this.
    pub decoded: &'a DecodedKernel,
    /// Kernel parameters (32-bit slots; `ld.param [4*i]` reads slot *i*).
    pub params: &'a [u32],
    /// Threads per CTA.
    pub threads_per_cta: usize,
    /// CTAs in the grid.
    pub grid_ctas: usize,
}

#[derive(Debug, Clone, Copy)]
struct WbEntry {
    warp: usize,
    reg: Option<Reg>,
    pred: Option<simt_isa::Pred>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendKind {
    Load { dst: Reg },
    Store,
    Atomic { dst: Reg },
}

#[derive(Debug, Clone, Copy)]
struct PendingMem {
    warp: usize,
    remaining: u32,
    kind: PendKind,
}

/// CTA-level event produced by executing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtaEvent {
    /// All live warps arrived at the barrier: release them.
    BarrierFull(usize),
    /// A warp finished; the CTA may be complete.
    WarpDone(usize),
}

#[derive(Debug, Default)]
struct ExecOutcome {
    info: IssueInfo,
    sib_taken: bool,
    cta_event: Option<CtaEvent>,
}

/// Kernel/launch-derived bounds that every restored snapshot index is
/// validated against in [`Sm::load_snap`] before a single cycle runs.
pub struct SnapLimits {
    /// Instructions in the kernel (bounds every pc/rpc).
    pub insts: usize,
    /// Registers per thread (bounds every restored register index).
    pub regs_per_thread: usize,
    /// Threads per CTA in the launch.
    pub threads_per_cta: usize,
    /// Shared-memory words per CTA.
    pub shared_words: usize,
    /// CTAs in the grid (bounds every CTA id).
    pub grid_ctas: usize,
    /// The restored run's clock: the cycle about to be simulated (bounds
    /// every warp's `next_issue`).
    pub now: u64,
}

/// Host-side accounting for one SM: wall-clock phase accumulators,
/// populated only when [`GpuConfig::profile`] is set, and the three
/// counts, which are always kept. `issue_ns` brackets the whole scheduler
/// loop *including* nested execute time; the GPU-level aggregation carves
/// execute back out (see [`crate::ProfileReport`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct SmProf {
    /// Writeback drain + CTA retirement + reclassifying the warps an event
    /// touched since the last cycle.
    pub fetch_ns: u64,
    /// Scheduler-unit issue loop + end-of-cycle bookkeeping (incl. execute).
    pub issue_ns: u64,
    /// Instruction execution proper.
    pub execute_ns: u64,
    /// Calls to [`Sm::cycle`].
    pub cycles_run: u64,
    /// Simulated cycles accrued in bulk while the SM slept instead.
    pub cycles_slept: u64,
    /// Warp slots (re)classified by [`Sm::cycle`]: one per marked slot per
    /// cycle, so it tracks events and issues, not live warps x cycles.
    pub warps_classified: u64,
}

/// A warp slot's standing with the issue stage, as of its last
/// classification ([`classify`] is the one definition).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum StallClass {
    /// Counted nowhere: the slot is not live, or has nothing to fetch.
    #[default]
    None,
    /// Waiting at the CTA barrier.
    Barrier,
    /// Draining a fence.
    Membar,
    /// Next instruction has a scoreboard hazard.
    Data,
    /// Ready to issue, subject to the policy's own veto.
    Eligible,
}

/// The single definition of warp `i`'s stall class and scheduler-visible
/// metadata at cycle `now`, used by [`Sm::cycle`] for the slots an event
/// marked and by the debug-build oracle for every slot. Also where a
/// drained fence is cleared, which makes that the first cycle after the
/// completion that drained it.
///
/// Nothing here depends on `now` passing: a warp's issue port
/// (`next_issue`, the cycle after its last issue) is free again by the
/// next cycle, and [`Sm::load_snap`] refuses a snapshot that says
/// otherwise. A scheme driven by events could not see such a class change.
fn classify(
    sm: usize,
    i: usize,
    w: &mut Warp,
    now: u64,
    lctx: &LaunchCtx<'_>,
) -> Result<(StallClass, WarpMeta), SimError> {
    let class = if !w.resident || w.done {
        StallClass::None
    } else {
        if w.waiting_membar && w.outstanding_mem == 0 {
            w.waiting_membar = false;
        }
        debug_assert!(
            now >= w.next_issue,
            "warp {i} issues next at {}",
            w.next_issue
        );
        if w.at_barrier {
            StallClass::Barrier
        } else if w.waiting_membar {
            StallClass::Membar
        } else if w.stack.is_empty() {
            StallClass::None
        } else {
            let pc = w.stack.pc();
            // A well-formed kernel ends in an unconditional `exit`, but a
            // guarded exit on the last instruction (or a resumed snapshot
            // that passed shape validation with a semantically twisted
            // stack) can run a warp off the end of the program. Fail
            // structured, not by index.
            let Some(d) = lctx.decoded.insts.get(pc) else {
                return Err(invariant(format!(
                    "sm {sm}: warp {i} pc {pc} past program end ({} insts)",
                    lctx.decoded.insts.len()
                )));
            };
            if w.sb.has_hazard_masks(&d.reg_mask, d.pred_mask) {
                StallClass::Data
            } else {
                StallClass::Eligible
            }
        }
    };
    let meta = WarpMeta {
        resident: w.resident,
        done: w.done,
        age_key: w.age_key,
        eligible: class == StallClass::Eligible,
    };
    Ok((class, meta))
}

/// What one cycle adds to the per-warp stall and occupancy counters of
/// [`SimStats`]. `barrier`, `membar`, `data` and `resident` are running
/// totals over the slots' cached [`StallClass`] and `meta`, moved only
/// when [`Sm::cycle`] reclassifies a slot; `backoff` and `backed_off` are
/// counted afresh by each cycle, which then posts the whole tally once. A
/// dead cycle's tally is also what every following dead cycle would have
/// counted — each live warp's stall class is frozen while nothing issues,
/// completes or writes back — so [`Sm::fast_forward`] posts it again,
/// times the span.
#[derive(Debug, Default, Clone, Copy)]
struct StallTally {
    barrier: u64,
    membar: u64,
    data: u64,
    backoff: u64,
    resident: u64,
    backed_off: u64,
}

impl StallTally {
    /// The running total a slot of `class` is counted in, if any.
    fn of(&mut self, class: StallClass) -> Option<&mut u64> {
        match class {
            StallClass::Barrier => Some(&mut self.barrier),
            StallClass::Membar => Some(&mut self.membar),
            StallClass::Data => Some(&mut self.data),
            StallClass::None | StallClass::Eligible => None,
        }
    }

    /// Post `cycles` cycles' worth of this tally.
    fn post(&self, cycles: u64, stats: &mut SimStats) {
        stats.stall_barrier += self.barrier * cycles;
        stats.stall_membar += self.membar * cycles;
        stats.stall_data += self.data * cycles;
        stats.stall_backoff += self.backoff * cycles;
        stats.resident_warp_samples += self.resident * cycles;
        stats.backed_off_warp_samples += self.backed_off * cycles;
    }
}

/// An SM the run loop has stopped cycling (see [`Sm::sleep`]).
#[derive(Debug, Clone, Copy)]
struct Sleep {
    /// Last cycle on the SM's books: the dead cycle that put it to sleep,
    /// moved forward by every [`Sm::settle`].
    since: u64,
    /// First cycle at which the SM can change state again, so must be
    /// cycled; 0 once an external input has arrived.
    wake_at: u64,
}

/// Result of one SM cycle.
#[derive(Debug, Default, Clone, Copy)]
pub struct SmCycle {
    /// Warp instructions issued this cycle.
    pub issued: u32,
    /// CTAs that completed this cycle.
    pub ctas_finished: u32,
}

/// One streaming multiprocessor.
pub struct Sm {
    /// SM index.
    pub id: usize,
    num_units: usize,
    lat_int: u64,
    lat_fp: u64,
    lat_sfu: u64,
    lat_shared: u64,
    /// Warp slots.
    pub warps: Vec<Warp>,
    ctas: Vec<Option<Cta>>,
    units: Vec<Box<dyn SchedulerPolicy>>,
    /// The SM's spin detector (DDOS, static oracle, or none).
    pub detector: Box<dyn SpinDetector>,
    /// Backward-branch encounter timelines (Table I's DPR denominator).
    pub branch_log: BranchLog,
    pending: TagSlab<PendingMem>,
    wheel: Vec<Vec<WbEntry>>,
    /// Entries across all wheel slots, so empty-wheel cycles skip both the
    /// drain and the horizon scan.
    wheel_len: usize,
    /// Occupied CTA slots, so [`Sm::has_work`] is a compare instead of a
    /// per-call slot sweep.
    ctas_resident: usize,
    /// Forward-progress watchdog state, one entry per warp slot.
    progress: Vec<WarpProgress>,
    resident_version: u64,
    regs_in_use: usize,
    shared_in_use: usize,
    max_regs: usize,
    max_shared: usize,
    meta: Vec<WarpMeta>,
    /// Each slot's stall class as of its last classification; with `meta`,
    /// `ready` and the running totals of `tally`, what [`Sm::cycle`] keeps
    /// up to date from events instead of rescanning every live warp.
    class: Vec<StallClass>,
    /// Slots an event has touched since they were last classified — the
    /// only ones whose class can have changed. Every site that can move a
    /// warp's class inserts here; step 3 of [`Sm::cycle`] drains it.
    marked: WarpSet,
    /// Slots of class [`StallClass::Eligible`].
    ready: WarpSet,
    /// Live (resident, not done) warp slots, handed to the scheduler
    /// policies (each unit's share) in place of every slot of the unit.
    /// Rebuilt lazily by [`Sm::refresh_live`] whenever `resident_version`
    /// moves (CTA launch or retirement); a warp that merely finishes
    /// (`done`) stays a member until its CTA retires. Behavior-identical:
    /// every in-tree policy either ignores the set or filters it on
    /// `meta.resident && !meta.done`, which excludes exactly the slots the
    /// live set omits.
    live: WarpSet,
    /// `resident_version` value the live set was built against;
    /// initialized out-of-sync to force a build on the first cycle.
    live_version: u64,
    /// Per scheduler unit, the slots it owns (`w % units == u`).
    unit_slots: Vec<WarpSet>,
    /// Per-cycle scratch: the warp each unit issued (reused, never freed).
    issued_scratch: Vec<Option<usize>>,
    /// Per-instruction scratch: the coalescer's transactions and an
    /// atomic's per-line groups — line, lane count, lane ops — (reused,
    /// never freed).
    txs: Vec<simt_mem::Transaction>,
    atom_groups: Vec<(u64, usize, Vec<LaneAtomic>)>,
    /// Capture CTA architectural state at retirement (differential oracle).
    capture_state: bool,
    /// Snapshots of retired CTAs, in retirement order (drained by the GPU
    /// loop into [`crate::KernelReport::final_state`]).
    pub captured: Vec<crate::warp::CtaState>,
    /// Collect per-phase wall time into [`Sm::prof`] (observational only;
    /// never serialized, never consulted by simulation logic).
    profile: bool,
    /// Phase accumulators (all zero unless profiling is on) and cycle
    /// counts.
    pub prof: SmProf,
    /// The last cycle's stall tally, part of it kept running (see
    /// [`StallTally`]).
    tally: StallTally,
    /// A unit had an issuable warp last cycle and its policy issued none.
    idled_by_choice: bool,
    /// `Some` while the SM sleeps. Run-loop state, not machine state: a
    /// sleeping SM whose books are settled is indistinguishable from one
    /// that was cycled through the same dead cycles, so this is never
    /// serialized and a restored SM starts awake.
    sleep: Option<Sleep>,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("warps", &self.warps.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl Sm {
    /// Build an SM with one scheduler policy instance per unit.
    ///
    /// # Panics
    ///
    /// Panics if `units` does not match `cfg.schedulers_per_sm`.
    pub fn new(
        id: usize,
        cfg: &GpuConfig,
        units: Vec<Box<dyn SchedulerPolicy>>,
        detector: Box<dyn SpinDetector>,
    ) -> Sm {
        assert_eq!(units.len(), cfg.schedulers_per_sm, "one policy per unit");
        let nwarps = cfg.warps_per_sm();
        assert!(
            nwarps <= WarpSet::CAPACITY,
            "{nwarps} warp slots exceed a WarpSet"
        );
        assert!(
            (cfg.lat
                .int_alu
                .max(cfg.lat.fp_alu)
                .max(cfg.lat.sfu)
                .max(cfg.lat.shared_mem) as usize)
                < WHEEL,
            "latency exceeds writeback wheel"
        );
        Sm {
            id,
            num_units: cfg.schedulers_per_sm,
            lat_int: cfg.lat.int_alu,
            lat_fp: cfg.lat.fp_alu,
            lat_sfu: cfg.lat.sfu,
            lat_shared: cfg.lat.shared_mem,
            warps: (0..nwarps).map(|_| Warp::vacant()).collect(),
            ctas: (0..cfg.max_ctas_per_sm).map(|_| None).collect(),
            units,
            detector,
            branch_log: BranchLog::default(),
            pending: TagSlab::new(),
            wheel: (0..WHEEL).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            ctas_resident: 0,
            progress: vec![WarpProgress::default(); nwarps],
            resident_version: 0,
            regs_in_use: 0,
            shared_in_use: 0,
            max_regs: cfg.regs_per_sm,
            max_shared: cfg.shared_words_per_sm,
            meta: vec![WarpMeta::default(); nwarps],
            class: vec![StallClass::None; nwarps],
            marked: WarpSet::EMPTY,
            ready: WarpSet::EMPTY,
            live: WarpSet::EMPTY,
            live_version: u64::MAX,
            unit_slots: (0..cfg.schedulers_per_sm)
                .map(|u| (u..nwarps).step_by(cfg.schedulers_per_sm).collect())
                .collect(),
            issued_scratch: vec![None; cfg.schedulers_per_sm],
            txs: Vec::new(),
            atom_groups: Vec::new(),
            capture_state: cfg.capture_final_state,
            captured: Vec::new(),
            profile: cfg.profile,
            prof: SmProf::default(),
            tally: StallTally::default(),
            idled_by_choice: false,
            sleep: None,
        }
    }

    /// Per-unit scheduler policies (instrumentation access).
    pub fn units(&self) -> &[Box<dyn SchedulerPolicy>] {
        &self.units
    }

    /// Try to launch CTA `cta_id`; returns false if resources are exhausted.
    /// Only the pool launches (`SmPool::dispatch`), so that its set of SMs
    /// with work stays exact.
    pub(crate) fn try_launch_cta(
        &mut self,
        cta_id: usize,
        lctx: &LaunchCtx<'_>,
        age_counter: &mut u64,
    ) -> bool {
        let threads = lctx.threads_per_cta;
        let regs_needed = threads * lctx.kernel.num_regs as usize;
        let shared_needed = lctx.kernel.shared_words as usize;
        let num_warps = threads.div_ceil(32);
        let Some(slot) = self.ctas.iter().position(Option::is_none) else {
            return false;
        };
        if self.regs_in_use + regs_needed > self.max_regs
            || self.shared_in_use + shared_needed > self.max_shared
        {
            return false;
        }
        let free_slots: Vec<usize> = self
            .warps
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.resident)
            .map(|(i, _)| i)
            .take(num_warps)
            .collect();
        if free_slots.len() < num_warps {
            return false;
        }
        self.ctas[slot] = Some(Cta::new(
            cta_id,
            threads,
            lctx.kernel.num_regs as usize,
            shared_needed,
        ));
        self.regs_in_use += regs_needed;
        self.shared_in_use += shared_needed;
        self.ctas_resident += 1;
        // Age keys are assigned as one contiguous block per CTA (base + 1
        // + warp-in-cta), not by incrementing the counter once per warp:
        // the keys a CTA's warps receive depend only on the counter value
        // at launch, never on how the interleaving of per-warp increments
        // with other bookkeeping happens to be ordered. GTO age priorities
        // therefore come out identical however CTA retirements were
        // discovered (serial or parallel SM cycling).
        let base = *age_counter;
        for (wic, &ws) in free_slots.iter().enumerate() {
            let lanes = (threads - wic * 32).min(32);
            let mask = if lanes == 32 {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            };
            self.warps[ws].launch(slot, wic, mask, base + 1 + wic as u64);
            self.progress[ws] = WarpProgress::default();
            self.units[ws % self.num_units].on_warp_launch(ws, lctx.kernel.static_len());
            self.detector.warp_reset(ws);
        }
        *age_counter = base + num_warps as u64;
        self.resident_version += 1;
        self.rouse();
        true
    }

    fn free_cta(&mut self, cta_slot: usize) {
        let cta = self.ctas[cta_slot].take().expect("freeing live CTA");
        self.ctas_resident -= 1;
        self.regs_in_use -= cta.threads * cta.regs_per_thread;
        self.shared_in_use -= cta.shared.len();
        for (i, w) in self.warps.iter_mut().enumerate() {
            if w.resident && w.cta_slot == cta_slot {
                w.resident = false;
                w.done = false;
                // `meta.resident` flips on the retiring cycle itself.
                self.marked.insert(i);
            }
        }
        self.resident_version += 1;
        if self.capture_state {
            // The CTA is already detached from the slot: move its register
            // file into the capture instead of cloning it.
            self.captured.push(cta.into_state());
        }
    }

    /// Handle a memory completion routed to this SM.
    ///
    /// # Errors
    ///
    /// [`SimError::InternalInvariant`] on a completion for an unknown tag
    /// or a retired CTA (simulator bugs surfaced as errors, not panics).
    pub fn on_mem_complete(&mut self, c: &MemCompletion) -> Result<(), SimError> {
        self.rouse();
        let Some(entry) = self.pending.get_mut(c.tag) else {
            return Err(invariant(format!(
                "sm {}: memory completion for unknown tag {}",
                self.id, c.tag
            )));
        };
        let warp = entry.warp;
        let kind = entry.kind;
        entry.remaining -= 1;
        let finished = entry.remaining == 0;
        if finished {
            self.pending.remove(c.tag);
        }
        if let PendKind::Atomic { dst } = kind {
            let cta_slot = self.warps[warp].cta_slot;
            let warp_in_cta = self.warps[warp].warp_in_cta;
            let Some(cta) = self.ctas[cta_slot].as_mut() else {
                return Err(invariant(format!(
                    "sm {}: atomic completion for retired CTA slot {cta_slot}",
                    self.id
                )));
            };
            for op in &c.atomic_results {
                cta.set_reg(warp_in_cta * 32 + op.lane as usize, dst, op.old);
            }
        }
        if finished {
            let w = &mut self.warps[warp];
            w.outstanding_mem -= 1;
            match kind {
                PendKind::Load { dst } | PendKind::Atomic { dst } => w.sb.release_reg(dst),
                PendKind::Store => {}
            }
            // A hazard may have cleared, a fence may have drained.
            self.marked.insert(warp);
        }
        Ok(())
    }

    /// Rebuild the live set if a CTA launched or retired since the last
    /// build (or a snapshot was restored), and start the event-driven
    /// state over from the warps themselves: `meta` is re-frozen for every
    /// slot — slots outside the set keep the metadata a full scan would
    /// have kept recomputing for them (non-resident or done, never
    /// eligible), which the scheduler policies and the dead-span sampling
    /// rely on — every class, the ready set and every running total is
    /// reset, and every live slot is marked, so this cycle's step 3
    /// classifies all of them.
    fn refresh_live(&mut self) {
        if self.live_version == self.resident_version {
            return;
        }
        self.live_version = self.resident_version;
        self.live = WarpSet::EMPTY;
        self.ready = WarpSet::EMPTY;
        self.class.fill(StallClass::None);
        self.tally = StallTally::default();
        for (i, w) in self.warps.iter().enumerate() {
            self.meta[i] = WarpMeta {
                resident: w.resident,
                done: w.done,
                age_key: w.age_key,
                eligible: false,
            };
            if w.resident && !w.done {
                self.live.insert(i);
                self.marked.insert(i);
                self.tally.resident += 1;
            }
        }
    }

    /// Bring slot `i`'s cached class, `meta`, ready-set membership and the
    /// running totals up to date with the warp ([`classify`] says what
    /// they are). `meta[i]` is rewritten exactly when the per-cycle rescan
    /// this replaces would have changed it.
    fn reclassify(&mut self, i: usize, now: u64, lctx: &LaunchCtx<'_>) -> Result<(), SimError> {
        self.prof.warps_classified += 1;
        let (class, m) = classify(self.id, i, &mut self.warps[i], now, lctx)?;
        let was = std::mem::replace(&mut self.class[i], class);
        if was != class {
            if let Some(n) = self.tally.of(was) {
                *n -= 1;
            }
            if let Some(n) = self.tally.of(class) {
                *n += 1;
            }
            self.ready.set(i, class == StallClass::Eligible);
        }
        let live = |m: &WarpMeta| m.resident && !m.done;
        if live(&m) {
            self.progress[i].note_alive(now);
        }
        // `resident` follows `meta`, not `Warp::done`: a warp issuing
        // `exit` is still counted on the cycle it issues.
        self.tally.resident += u64::from(live(&m));
        self.tally.resident -= u64::from(live(&self.meta[i]));
        self.meta[i] = m;
        Ok(())
    }

    /// Debug-build oracle: the full rescan the marks replace. Classifies
    /// every slot and checks the cached class, `meta`, ready-set
    /// membership and running totals against it, so a missed mark fails
    /// on the first cycle it matters.
    #[cfg(debug_assertions)]
    fn assert_rescan_agrees(&mut self, now: u64, lctx: &LaunchCtx<'_>) {
        let mut want = StallTally::default();
        for i in 0..self.warps.len() {
            let (class, m) = classify(self.id, i, &mut self.warps[i], now, lctx)
                .expect("a warp no event touched cannot start faulting");
            assert_eq!(self.class[i], class, "sm {} warp {i}: stale class", self.id);
            assert_eq!(self.meta[i], m, "sm {} warp {i}: stale meta", self.id);
            assert_eq!(
                self.ready.contains(i),
                class == StallClass::Eligible,
                "sm {} warp {i}: ready set",
                self.id
            );
            if let Some(n) = want.of(class) {
                *n += 1;
            }
            want.resident += u64::from(m.resident && !m.done);
        }
        let totals = |t: &StallTally| (t.barrier, t.membar, t.data, t.resident);
        assert_eq!(
            totals(&self.tally),
            totals(&want),
            "sm {}: running totals",
            self.id
        );
    }

    /// Release CTA slot `slot`'s barrier: every warp of the CTA leaves it.
    fn release_barrier(&mut self, slot: usize, stats: &mut SimStats) {
        stats.barriers += 1;
        for (i, w) in self.warps.iter_mut().enumerate() {
            if w.resident && w.cta_slot == slot {
                w.at_barrier = false;
                self.marked.insert(i);
            }
        }
    }

    /// Advance one cycle: writebacks, then one issue attempt per unit. A
    /// global load, store or atomic touches `mem` as it issues.
    ///
    /// # Errors
    ///
    /// [`SimError::InternalInvariant`] when execution hits a state the
    /// kernel should have made impossible (out-of-range parameter or
    /// shared-memory access, a store to param space, a retired CTA);
    /// [`SimError::DeviceFault`] on a wild global access. Either stops the
    /// cycle at the faulting instruction: later units issue nothing.
    pub fn cycle(
        &mut self,
        now: u64,
        lctx: &LaunchCtx<'_>,
        mem: &mut MemorySystem,
        stats: &mut SimStats,
    ) -> Result<SmCycle, SimError> {
        debug_assert!(self.sleep.is_none(), "cycling a sleeping SM");
        let mut result = SmCycle::default();
        self.idled_by_choice = false;
        self.prof.cycles_run += 1;
        // Phase timer: `profile` is off by default, making this a single
        // untaken branch — the hot path takes no timestamps.
        let t0 = self.profile.then(std::time::Instant::now);
        // Catch the live set up with any launches since the last cycle.
        // (A retirement in step 2 below leaves it one cycle stale — a
        // harmless superset, since every consumer re-checks the warp's
        // resident/done flags.)
        self.refresh_live();
        // 1. Writebacks. The slot's vector is swapped out, drained and
        // swapped back so its capacity is reused every WHEEL cycles.
        let slot = (now as usize) % WHEEL;
        if !self.wheel[slot].is_empty() {
            let mut drained = std::mem::take(&mut self.wheel[slot]);
            self.wheel_len -= drained.len();
            for wb in drained.drain(..) {
                let w = &mut self.warps[wb.warp];
                if let Some(r) = wb.reg {
                    w.sb.release_reg(r);
                }
                if let Some(p) = wb.pred {
                    w.sb.release_pred(p);
                }
                self.marked.insert(wb.warp);
            }
            self.wheel[slot] = drained;
        }
        // 2. Retire CTAs whose warps have all exited and drained their
        // outstanding memory (stores may still be in flight at exit).
        for slot in 0..self.ctas.len() {
            let complete = matches!(&self.ctas[slot], Some(c) if c.warps_done == c.num_warps);
            if complete {
                let drained = self
                    .warps
                    .iter()
                    .all(|w| !(w.resident && w.cta_slot == slot) || w.outstanding_mem == 0);
                if drained {
                    self.free_cta(slot);
                    result.ctas_finished += 1;
                    stats.ctas_completed += 1;
                }
            }
        }
        // 3. Reclassify the slots an event has marked since the last
        // cycle, in ascending order: a writeback or memory completion
        // released a scoreboard bit, the warp itself issued (pc,
        // scoreboard, barrier, fence and `done` all move there), its
        // barrier released, its CTA retired, or `refresh_live` started
        // over. Every other slot's class, `meta` and place in the running
        // totals are exactly what a rescan would recompute. The set is
        // taken for the walk, which leaves it empty.
        for i in std::mem::take(&mut self.marked).iter() {
            self.reclassify(i, now, lctx)?;
        }
        #[cfg(debug_assertions)]
        self.assert_rescan_agrees(now, lctx);
        // Phase boundary: everything above is "fetch", the rest "issue".
        let t_issue = t0.map(|t0| {
            let t = std::time::Instant::now();
            self.prof.fetch_ns += (t - t0).as_nanos() as u64;
            t
        });
        // 4. Issue per scheduler unit, from the unit's share of the ready
        // set minus the policy's veto, which is asked every cycle the unit
        // has a ready warp — a BOWS delay expires with no event on the
        // SM's side. The per-unit issue record lives in a reusable scratch
        // buffer — this loop runs every cycle and must not allocate.
        self.tally.backoff = 0;
        for slot in &mut self.issued_scratch {
            *slot = None;
        }
        for u in 0..self.num_units {
            let ready = self.ready & self.unit_slots[u];
            if ready.is_empty() {
                continue;
            }
            let vetoed = ready & self.units[u].vetoed(now);
            self.tally.backoff += vetoed.len() as u64;
            let eligible = ready - vetoed;
            if eligible.is_empty() {
                continue;
            }
            let ctx = SchedCtx {
                now,
                meta: &self.meta,
                resident_version: self.resident_version,
            };
            let Some(w) = self.units[u].pick(&ctx, eligible) else {
                self.idled_by_choice = true;
                continue;
            };
            debug_assert!(eligible.contains(w), "policy picked ineligible warp");
            stats.issued_cycles += 1;
            stats.stall_arbitration += (eligible.len() - 1) as u64;
            let outcome = if self.profile {
                let t = std::time::Instant::now();
                let o = self.execute(w, now, lctx, mem, stats)?;
                self.prof.execute_ns += t.elapsed().as_nanos() as u64;
                o
            } else {
                self.execute(w, now, lctx, mem, stats)?
            };
            result.issued += 1;
            self.marked.insert(w);
            self.issued_scratch[u] = Some(w);
            self.progress[w].on_issue(now, &outcome.info);
            let ctx = SchedCtx {
                now,
                meta: &self.meta,
                resident_version: self.resident_version,
            };
            // Issue bookkeeping first; a SIB pushes the warp into the
            // backed-off state only *after* the SIB itself has issued (the
            // next instruction is what leaves the state again).
            self.units[u].on_issue(&ctx, w, &outcome.info);
            if outcome.sib_taken {
                self.units[u].on_sib(&ctx, w);
            }
            match outcome.cta_event {
                Some(CtaEvent::BarrierFull(slot)) => {
                    let Some(cta) = self.ctas[slot].as_mut() else {
                        return Err(invariant(format!(
                            "sm {}: barrier release on retired CTA slot {slot}",
                            self.id
                        )));
                    };
                    cta.barrier_arrived = 0;
                    self.release_barrier(slot, stats);
                }
                Some(CtaEvent::WarpDone(slot)) => {
                    let Some(cta) = self.ctas[slot].as_mut() else {
                        return Err(invariant(format!(
                            "sm {}: warp completion on retired CTA slot {slot}",
                            self.id
                        )));
                    };
                    // A warp exiting may also release the barrier.
                    if cta.live_warps() > 0 && cta.barrier_arrived >= cta.live_warps() {
                        cta.barrier_arrived = 0;
                        self.release_barrier(slot, stats);
                    }
                }
                None => {}
            }
        }
        // 5. End-of-cycle policy bookkeeping + Figure 11 sampling.
        self.tally.backed_off = 0;
        for u in 0..self.num_units {
            let issued = self.issued_scratch[u];
            let ctx = SchedCtx {
                now,
                meta: &self.meta,
                resident_version: self.resident_version,
            };
            let live = self.live & self.unit_slots[u];
            self.units[u].end_cycle(&ctx, live, issued);
            let backed_off = self.units[u].backed_off();
            debug_assert_eq!(
                backed_off
                    - live
                        .iter()
                        .filter(|&w| self.meta[w].resident && !self.meta[w].done)
                        .collect(),
                WarpSet::EMPTY,
                "sm {} unit {u}: backed-off warps outside the unit's live ones",
                self.id
            );
            self.tally.backed_off += backed_off.len() as u64;
        }
        self.tally.post(1, stats);
        if let Some(t) = t_issue {
            self.prof.issue_ns += t.elapsed().as_nanos() as u64;
        }
        Ok(result)
    }

    /// Earliest future cycle (strictly after `now`) at which this SM can
    /// change state *without external input*: a pending writeback drains
    /// (clearing a scoreboard hazard) or a scheduler policy's internal timer
    /// fires (a BOWS back-off delay or adaptive-window update). `None` when
    /// the SM can only be woken externally (memory completions; a barrier
    /// or fence likewise releases only via issues or completions). A
    /// warp's issue port is no candidate: `next_issue` is the cycle after
    /// its last issue, which a dead cycle has already reached.
    ///
    /// Called by [`Sm::sleep`] immediately after a `cycle(now)` in which no
    /// unit issued.
    fn next_ready_cycle(&self, now: u64) -> Option<u64> {
        if self.idled_by_choice {
            // An issuable warp the policy nevertheless left idle. No
            // in-tree policy ever does this (their `pick` on a non-empty
            // set always issues), but a policy that idles by choice must
            // be re-consulted every cycle: refuse to sleep.
            return Some(now + 1);
        }
        // Writeback wheel: every entry lies within (now, now + WHEEL), and
        // slot `now % WHEEL` was drained this cycle, so the first non-empty
        // slot ahead of `now` is the earliest scoreboard release.
        let wheel = if self.wheel_len > 0 {
            (now + 1..now + WHEEL as u64).find(|&t| !self.wheel[t as usize % WHEEL].is_empty())
        } else {
            None
        };
        let timers = self.units.iter().filter_map(|u| u.next_wakeup(now));
        wheel.into_iter().chain(timers).filter(|&t| t > now).min()
    }

    /// Bulk-apply `span` dead cycles (`now+1 ..= now+span`, none of which
    /// can issue, complete memory, or drain a writeback), accruing exactly
    /// the per-cycle statistics [`Sm::cycle`] would have: the dead cycle at
    /// `now` counted them, and they are frozen across the span, as are the
    /// live set and `meta` the policies' idle bookkeeping reads. (A CTA
    /// launched since fills slots outside the set, and its warps are
    /// first counted by the cycle that follows the wake; `refresh_live`
    /// must NOT run here — it would wipe the `eligible` bits of `meta`.)
    fn fast_forward(&mut self, now: u64, span: u64, stats: &mut SimStats) {
        self.tally.post(span, stats);
        for u in 0..self.num_units {
            let ctx = SchedCtx {
                now,
                meta: &self.meta,
                resident_version: self.resident_version,
            };
            self.units[u].on_idle_span(&ctx, self.live & self.unit_slots[u], span);
        }
    }

    /// Go to sleep after a `cycle(now)` that issued nothing and retired
    /// nothing: until [`Sm::next_ready_cycle`] or an external input (a
    /// memory completion, a CTA launch) every cycle of this SM is a dead
    /// one whose only effect is the statistics [`Sm::fast_forward`]
    /// accrues in bulk, so the caller may stop cycling it. Returns the
    /// wake-up cycle.
    pub fn sleep(&mut self, now: u64) -> u64 {
        let wake_at = self.next_ready_cycle(now).unwrap_or(u64::MAX);
        self.sleep = Some(Sleep {
            since: now,
            wake_at,
        });
        wake_at
    }

    /// The wake-up cycle of an SM that sleeps through cycle `now`; `None`
    /// when it is awake or due to be woken.
    pub fn asleep_until(&self, now: u64) -> Option<u64> {
        self.sleep.map(|s| s.wake_at).filter(|&t| now < t)
    }

    /// An external input arrived: cycle the SM at the next opportunity.
    ///
    /// The slept span is accrued then, *after* the input has been applied,
    /// which is sound because [`Sm::fast_forward`] reads nothing either
    /// input writes — only the sleep-starting cycle's tally, and `meta`
    /// and the live set on the policies' behalf. A completion
    /// touches a warp's scoreboard, `outstanding_mem` and CTA registers,
    /// and marks the warp for the next cycle's reclassification (the
    /// running totals in the tally move only there); a launch fills warp
    /// slots that are outside the frozen live set and resets only their
    /// policy and detector state.
    fn rouse(&mut self) {
        if let Some(s) = &mut self.sleep {
            s.wake_at = 0;
        }
    }

    /// Bring a sleeping SM's books up to the start of cycle `now` — accrue
    /// the dead cycles slept so far, through `now - 1` — and leave it
    /// asleep. Must precede every read of this SM's statistics or
    /// snapshot state from outside the pool; a no-op on an SM that is
    /// awake or already settled.
    pub fn settle(&mut self, now: u64, stats: &mut SimStats) {
        let Some(s) = &mut self.sleep else { return };
        let upto = now.saturating_sub(1);
        if upto > s.since {
            let (from, span) = (s.since, upto - s.since);
            s.since = upto;
            self.prof.cycles_slept += span;
            self.fast_forward(from, span, stats);
        }
    }

    /// Wake up to be cycled at `now`: settle, then end the sleep.
    pub fn wake(&mut self, now: u64, stats: &mut SimStats) {
        self.settle(now, stats);
        self.sleep = None;
    }

    /// Functionally execute the instruction at the warp's PC. A global
    /// access reads, writes or validates its lanes in lane order, stopping
    /// at the first faulting one (the lanes before it are done, none of
    /// the instruction's requests is submitted), then submits its
    /// coalesced requests to `mem`. A load may write its destination now
    /// because the scoreboard holds it until the last request completes.
    fn execute(
        &mut self,
        w_idx: usize,
        now: u64,
        lctx: &LaunchCtx<'_>,
        mem: &mut MemorySystem,
        stats: &mut SimStats,
    ) -> Result<ExecOutcome, SimError> {
        let (lat_int, lat_fp, lat_sfu, lat_shared) =
            (self.lat_int, self.lat_fp, self.lat_sfu, self.lat_shared);
        let latency = move |class: OpClass| match class {
            OpClass::IntAlu | OpClass::Control => lat_int,
            OpClass::FpAlu => lat_fp,
            OpClass::Sfu => lat_sfu,
            OpClass::SharedMem => lat_shared,
            OpClass::GlobalMem | OpClass::Atomic | OpClass::Sync => lat_int,
        };
        let warp = &mut self.warps[w_idx];
        let pc = warp.stack.pc();
        let Some(d) = lctx.decoded.insts.get(pc) else {
            return Err(invariant(format!(
                "sm {}: warp {w_idx} pc {pc} past program end ({} insts)",
                self.id,
                lctx.decoded.insts.len()
            )));
        };
        let active = warp.stack.active_mask();
        let cta_slot = warp.cta_slot;
        let sm_id = self.id;
        // A kernel-driven wild access, surfaced as a typed error (never a
        // panic).
        let wild = move |fault| SimError::DeviceFault {
            sm: sm_id,
            pc,
            fault,
        };
        let Some(cta) = self.ctas[cta_slot].as_mut() else {
            return Err(invariant(format!(
                "sm {sm_id}: issuing warp {w_idx} belongs to retired CTA slot {cta_slot}"
            )));
        };

        let wic = warp.warp_in_cta;
        // Guard evaluation: one AND with the predicate's lane mask.
        let exec = match d.guard {
            Some((p, true)) => active & cta.pred_mask(wic, p),
            Some((p, false)) => active & !cta.pred_mask(wic, p),
            None => active,
        };
        let lanes = exec.count_ones();
        stats.issued_inst += 1;
        stats.thread_inst += lanes as u64;
        if d.sync {
            stats.sync_thread_inst += lanes as u64;
        }
        warp.next_issue = now + 1;

        let mut outcome = ExecOutcome {
            info: IssueInfo {
                pc,
                active_lanes: lanes,
                ..IssueInfo::default()
            },
            ..ExecOutcome::default()
        };

        let sval = SpecialCtx {
            sm_id: self.id,
            cta_id: cta.id,
            threads_per_cta: lctx.threads_per_cta,
            grid_ctas: lctx.grid_ctas,
            now,
        };

        // Every class below works on whole columns: operand kinds are
        // resolved once per instruction (`ta`/`tb`/`tc` back the sources
        // that are not registers), all 32 lanes are evaluated, and `exec`
        // decides which of them reach the destination.
        //
        // Decoding unwrapped every class-required operand (dst/pdst/
        // target/addr) relying on `simt_isa::check_operand_shape`, which
        // every kernel passes in `Kernel::validate`/`from_insts` before it
        // can be launched — a malformed request fails there with a typed
        // `KernelError`.
        match d.class {
            // ---- ALU ----
            ExecClass::Alu(alu) => {
                let dst = d.dst;
                let [mut ta, mut tb, mut tc, mut out] = [[0u32; 32]; 4];
                alu(
                    operand_column(d.srcs[0], cta, wic, &sval, &mut ta),
                    operand_column(d.srcs[1], cta, wic, &sval, &mut tb),
                    operand_column(d.srcs[2], cta, wic, &sval, &mut tc),
                    &mut out,
                );
                blend(cta.column_mut(wic, dst), &out, exec);
                warp.sb.reserve_reg(dst);
                let lat = latency(d.op_class);
                self.wheel_len += 1;
                self.wheel[((now + lat) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::Selp => {
                let dst = d.dst;
                let [mut ta, mut tb] = [[0u32; 32]; 2];
                let mut out = *operand_column(d.srcs[1], cta, wic, &sval, &mut tb);
                blend(
                    &mut out,
                    operand_column(d.srcs[0], cta, wic, &sval, &mut ta),
                    cta.pred_mask(wic, d.psrc0),
                );
                blend(cta.column_mut(wic, dst), &out, exec);
                warp.sb.reserve_reg(dst);
                self.wheel_len += 1;
                self.wheel[((now + lat_int) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::Setp(cmp) => {
                let pdst = d.pdst;
                let [mut ta, mut tb] = [[0u32; 32]; 2];
                let a = operand_column(d.srcs[0], cta, wic, &sval, &mut ta);
                let b = operand_column(d.srcs[1], cta, wic, &sval, &mut tb);
                let bits = cmp(a, b);
                // DDOS profiles the first executing lane's two sources.
                let profiled = (exec != 0).then(|| {
                    let lane = exec.trailing_zeros() as usize;
                    [a[lane], b[lane]]
                });
                cta.set_pred_mask(wic, pdst, exec, bits);
                warp.sb.reserve_pred(pdst);
                let lat = latency(d.op_class);
                self.wheel_len += 1;
                self.wheel[((now + lat) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: None,
                    pred: Some(pdst),
                });
                if let Some(srcs) = profiled {
                    self.detector.on_setp(now, w_idx, pc, srcs);
                }
                warp.stack.advance(pc + 1);
            }
            ExecClass::PAnd | ExecClass::POr | ExecClass::PNot => {
                let pdst = d.pdst;
                let a = cta.pred_mask(wic, d.psrc0);
                let bits = match d.class {
                    ExecClass::PAnd => a & cta.pred_mask(wic, d.psrc1),
                    ExecClass::POr => a | cta.pred_mask(wic, d.psrc1),
                    _ => !a,
                };
                cta.set_pred_mask(wic, pdst, exec, bits);
                warp.sb.reserve_pred(pdst);
                self.wheel_len += 1;
                self.wheel[((now + lat_int) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: None,
                    pred: Some(pdst),
                });
                warp.stack.advance(pc + 1);
            }
            // ---- Control ----
            ExecClass::Bra => {
                let target = d.target;
                let taken = exec;
                let taken_any = taken != 0;
                let backward = d.backward;
                if backward {
                    self.branch_log.record(pc, now);
                }
                self.detector.on_branch(now, w_idx, pc, target, taken_any);
                let is_sib = self.detector.is_sib(pc);
                if is_sib {
                    stats.sib_inst += 1;
                }
                if d.wait {
                    stats.wait_exit_fail += taken.count_ones() as u64;
                    stats.wait_exit_success += (active & !taken).count_ones() as u64;
                }
                warp.stack.branch(taken, target, pc + 1, d.rpc);
                outcome.info.is_branch = true;
                outcome.info.taken_backward = backward && taken_any;
                outcome.info.branch_distance = d.branch_distance;
                outcome.info.is_sib = is_sib;
                outcome.sib_taken = is_sib && backward && taken_any;
            }
            ExecClass::Exit => {
                warp.stack.exit_threads(exec);
                if warp.stack.is_empty() {
                    warp.done = true;
                    cta.warps_done += 1;
                    outcome.cta_event = Some(CtaEvent::WarpDone(cta_slot));
                } else if warp.stack.pc() == pc {
                    // Guarded exit: surviving lanes fall through.
                    warp.stack.advance(pc + 1);
                }
            }
            ExecClass::Nop => warp.stack.advance(pc + 1),
            ExecClass::Clock => {
                let dst = d.dst;
                blend(cta.column_mut(wic, dst), &[now as u32; 32], exec);
                warp.sb.reserve_reg(dst);
                self.wheel_len += 1;
                self.wheel[((now + lat_int) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::Bar => {
                warp.at_barrier = true;
                warp.stack.advance(pc + 1);
                cta.barrier_arrived += 1;
                if cta.barrier_arrived >= cta.live_warps() {
                    outcome.cta_event = Some(CtaEvent::BarrierFull(cta_slot));
                }
            }
            ExecClass::Membar => {
                if warp.outstanding_mem > 0 {
                    warp.waiting_membar = true;
                }
                warp.stack.advance(pc + 1);
            }
            // ---- Memory ----
            ExecClass::LdParam => {
                let dst = d.dst;
                let addrs = addr_column(d, cta, wic);
                let mut out = [0u32; 32];
                for lane in BitIter(exec) {
                    let slot = (addrs[lane] / 4) as usize;
                    let Some(&v) = lctx.params.get(slot) else {
                        return Err(invariant(format!(
                            "sm {sm_id} pc {pc}: ld.param slot {slot} out of \
                             range ({} params passed)",
                            lctx.params.len()
                        )));
                    };
                    out[lane] = v;
                }
                blend(cta.column_mut(wic, dst), &out, exec);
                warp.sb.reserve_reg(dst);
                self.wheel_len += 1;
                self.wheel[((now + lat_int) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::LdShared => {
                let dst = d.dst;
                let addrs = addr_column(d, cta, wic);
                let mut out = [0u32; 32];
                for lane in BitIter(exec) {
                    let addr = addrs[lane];
                    let Some(&v) = cta.shared.get((addr / 4) as usize) else {
                        return Err(invariant(format!(
                            "sm {sm_id} pc {pc}: ld.shared at byte {addr} past \
                             the CTA's {} shared words",
                            cta.shared.len()
                        )));
                    };
                    out[lane] = v;
                }
                blend(cta.column_mut(wic, dst), &out, exec);
                warp.sb.reserve_reg(dst);
                self.wheel_len += 1;
                self.wheel[((now + lat_shared) as usize) % WHEEL].push(WbEntry {
                    warp: w_idx,
                    reg: Some(dst),
                    pred: None,
                });
                warp.stack.advance(pc + 1);
            }
            ExecClass::LdGlobal { bypass_l1 } => {
                let dst = d.dst;
                stats.load_inst += 1;
                if exec != 0 {
                    let addrs = addr_column(d, cta, wic);
                    let column = cta.column_mut(wic, dst);
                    for lane in BitIter(exec) {
                        column[lane] = mem.gmem().try_read_u32(addrs[lane]).map_err(wild)?;
                    }
                    warp.sb.reserve_reg(dst);
                    simt_mem::Coalescer::coalesce_into(exec, &addrs, &mut self.txs);
                    let tag = self.pending.insert(PendingMem {
                        warp: w_idx,
                        remaining: self.txs.len() as u32,
                        kind: PendKind::Load { dst },
                    });
                    warp.outstanding_mem += 1;
                    for tx in &self.txs {
                        let mut req = MemRequest::new(ReqKind::Load { bypass_l1 }, tx.line, tag);
                        if d.sync {
                            req = req.sync();
                        }
                        mem.enqueue(sm_id, req, now);
                    }
                }
                warp.stack.advance(pc + 1);
            }
            ExecClass::StParam => {
                return Err(invariant(format!(
                    "sm {sm_id} pc {pc}: store to param space"
                )));
            }
            ExecClass::StShared => {
                // A store no lane executes is not progress anyone can see.
                outcome.info.writes_mem = exec != 0;
                let addrs = addr_column(d, cta, wic);
                let mut ta = [0u32; 32];
                let vals = *operand_column(d.srcs[0], cta, wic, &sval, &mut ta);
                for lane in BitIter(exec) {
                    let addr = addrs[lane];
                    let words = cta.shared.len();
                    let Some(s) = cta.shared.get_mut((addr / 4) as usize) else {
                        return Err(invariant(format!(
                            "sm {sm_id} pc {pc}: st.shared at byte {addr} past \
                             the CTA's {words} shared words"
                        )));
                    };
                    *s = vals[lane];
                }
                // Shared stores complete in-pipeline; no scoreboard.
                warp.stack.advance(pc + 1);
            }
            ExecClass::StGlobal => {
                outcome.info.writes_mem = exec != 0;
                stats.store_inst += 1;
                if exec != 0 {
                    let addrs = addr_column(d, cta, wic);
                    let mut ta = [0u32; 32];
                    let vals = operand_column(d.srcs[0], cta, wic, &sval, &mut ta);
                    for lane in BitIter(exec) {
                        mem.gmem_mut()
                            .try_write_u32(addrs[lane], vals[lane])
                            .map_err(wild)?;
                    }
                    simt_mem::Coalescer::coalesce_into(exec, &addrs, &mut self.txs);
                    let tag = self.pending.insert(PendingMem {
                        warp: w_idx,
                        remaining: self.txs.len() as u32,
                        kind: PendKind::Store,
                    });
                    warp.outstanding_mem += 1;
                    for tx in &self.txs {
                        let mut req = MemRequest::new(ReqKind::Store, tx.line, tag);
                        if d.sync {
                            req = req.sync();
                        }
                        mem.enqueue(sm_id, req, now);
                    }
                }
                warp.stack.advance(pc + 1);
            }
            ExecClass::Atom(aop) => {
                stats.atomic_inst += 1;
                let dst = d.dst;
                let role = if d.acquire {
                    LockRole::Acquire
                } else if d.release {
                    LockRole::Release
                } else {
                    LockRole::None
                };
                let holder = ((self.id as u64) << 32) | w_idx as u64;
                if exec != 0 {
                    let addrs = addr_column(d, cta, wic);
                    let [mut ta, mut tb] = [[0u32; 32]; 2];
                    let a = operand_column(d.srcs[0], cta, wic, &sval, &mut ta);
                    let b = operand_column(d.srcs[1], cta, wic, &sval, &mut tb);
                    // Addresses are validated here: the lane ops are
                    // applied later inside the partition's atomic unit,
                    // which has no error path back to the warp.
                    for lane in BitIter(exec) {
                        mem.gmem().check_addr(addrs[lane]).map_err(wild)?;
                    }
                    // Group lane ops by line, in first-touch line order and
                    // lane order, in the SM's reused list: count each
                    // line's lanes, take a buffer of that size from the
                    // memory system, then fill it. The buffer moves into
                    // the request and comes back in its completion.
                    let groups = &mut self.atom_groups;
                    let mut group_of = [0u8; 32];
                    for lane in BitIter(exec) {
                        let line = simt_mem::line_of(addrs[lane]);
                        let g = match groups.iter().position(|&(l, ..)| l == line) {
                            Some(g) => g,
                            None => {
                                groups.push((line, 0, Vec::new()));
                                groups.len() - 1
                            }
                        };
                        groups[g].1 += 1;
                        group_of[lane] = g as u8;
                    }
                    for (_, lanes, ops) in groups.iter_mut() {
                        *ops = mem.lane_buf(*lanes);
                    }
                    for lane in BitIter(exec) {
                        groups[usize::from(group_of[lane])].2.push(LaneAtomic {
                            lane: lane as u8,
                            addr: addrs[lane],
                            op: aop,
                            a: a[lane],
                            b: b[lane],
                            old: 0,
                            role,
                            holder,
                        });
                    }
                    warp.sb.reserve_reg(dst);
                    let n_reqs = groups.len() as u32;
                    let tag = self.pending.insert(PendingMem {
                        warp: w_idx,
                        remaining: n_reqs,
                        kind: PendKind::Atomic { dst },
                    });
                    warp.outstanding_mem += 1;
                    let sole = n_reqs == 1;
                    for (line, _, ops) in groups.drain(..) {
                        let mut req = MemRequest::new(ReqKind::Atomic { ops }, line, tag);
                        req.sole = sole;
                        if d.sync {
                            req = req.sync();
                        }
                        mem.enqueue(sm_id, req, now);
                    }
                }
                warp.stack.advance(pc + 1);
            }
        }

        Ok(outcome)
    }

    /// Aggregate forward-progress view for the periodic hang scan.
    /// `starvation_bound` is the no-issue age at which an unblocked warp
    /// counts as starved; `backoff_bound` (0 = disabled) is the same for
    /// warps in the scheduler's backed-off state.
    pub fn scan_progress(
        &self,
        now: u64,
        starvation_bound: u64,
        backoff_bound: u64,
    ) -> ProgressScan {
        let mut scan = ProgressScan::default();
        for (i, w) in self.warps.iter().enumerate() {
            if !w.resident || w.done {
                continue;
            }
            scan.live += 1;
            let p = &self.progress[i];
            let blocked = w.at_barrier || w.waiting_membar || w.outstanding_mem > 0;
            let spinning = p.spinning();
            if spinning {
                scan.spinning += 1;
            }
            if spinning || blocked {
                scan.spinning_or_blocked += 1;
            }
            let idle = p.idle_for(now);
            // The reported victim is the explicit minimum warp index (the
            // GPU-level scan then takes the lexicographic minimum over
            // `(sm, warp)`), so attribution is a property of the machine
            // state, not of traversal order.
            if backoff_bound > 0
                && idle >= backoff_bound
                && self.units[i % self.num_units].backed_off().contains(i)
                && scan.backoff_starved.is_none_or(|b| i < b)
            {
                scan.backoff_starved = Some(i);
            }
            if !blocked && idle >= starvation_bound && scan.starved.is_none_or(|b| i < b) {
                scan.starved = Some(i);
            }
        }
        scan
    }

    /// Snapshot every live warp for a [`crate::HangReport`].
    pub fn snapshots(&self, now: u64) -> Vec<WarpSnapshot> {
        let mut out = Vec::new();
        for (i, w) in self.warps.iter().enumerate() {
            if !w.resident || w.done {
                continue;
            }
            let p = &self.progress[i];
            let unit = &self.units[i % self.num_units];
            let pc_stuck = if p.last_pc_change == u64::MAX {
                0
            } else {
                now.saturating_sub(p.last_pc_change)
            };
            out.push(WarpSnapshot {
                sm: self.id,
                warp: i,
                pc: if w.stack.is_empty() { 0 } else { w.stack.pc() },
                stack_depth: w.stack.depth(),
                active_lanes: w.stack.active_mask().count_ones(),
                outstanding_mem: w.outstanding_mem,
                at_barrier: w.at_barrier,
                waiting_membar: w.waiting_membar,
                backed_off: unit.backed_off().contains(i),
                backoff_queue_position: unit.backoff_queue_position(i),
                spin_iters: p.spin_iters,
                idle_cycles: p.idle_for(now),
                pc_stuck_cycles: pc_stuck,
                pending_regs: w.sb.pending_regs(),
            });
        }
        out
    }

    /// Resident-version counter (bumped on CTA launch/retire).
    pub fn resident_version(&self) -> u64 {
        self.resident_version
    }

    /// Any CTA slots occupied?
    pub fn has_work(&self) -> bool {
        self.ctas_resident > 0
    }

    /// Occupied CTA slots.
    pub fn resident_ctas(&self) -> usize {
        self.ctas_resident
    }

    /// Serialize the SM's full dynamic state at a checkpoint boundary (top
    /// of a run-loop iteration, before any cycle work).
    ///
    /// Construction-derived members (latencies, capacities, `unit_slots`
    /// striding, scratch buffers) are rebuilt from the config on restore and
    /// not written.
    pub fn save_snap(&self, w: &mut SnapWriter) {
        self.warps.save(w);
        self.ctas.save(w);
        // Policy/detector state goes in nested length-prefixed blobs so a
        // unit that misreads its own encoding cannot desynchronize the rest
        // of the snapshot.
        w.usize(self.units.len());
        for unit in &self.units {
            w.nested(|w| unit.save_state(w));
        }
        w.nested(|w| self.detector.save_state(w));
        self.save_fields(w);
    }

    /// Restore state written by [`Sm::save_snap`] into this freshly
    /// constructed SM (same config, same policy/detector kinds).
    ///
    /// Decodes straight into the SM — scheduler units and detector included,
    /// as their blobs are reached — then validates every table length
    /// against this SM's construction and every restored index against
    /// `limits`. On error the SM is partly restored and must be discarded
    /// (the caller rebuilds every SM).
    pub fn load_snap(
        &mut self,
        r: &mut SnapReader<'_>,
        limits: &SnapLimits,
    ) -> Result<(), SnapshotError> {
        let id = self.id;
        let bad = |what: String| Err(SnapshotError::malformed(format!("sm {id}: {what}")));
        let (nwarps, nctas, nunits) = (self.warps.len(), self.ctas.len(), self.units.len());
        self.warps = Snap::load(r)?;
        self.ctas = Snap::load(r)?;
        let units_in_snapshot = usize::load(r)?;
        if units_in_snapshot != nunits {
            return bad(format!(
                "snapshot has {units_in_snapshot} scheduler units, config has {nunits}"
            ));
        }
        for unit in &mut self.units {
            r.nested(|r| unit.load_state(r))?;
        }
        r.nested(|r| self.detector.load_state(r))?;
        self.load_fields(r)?;

        // Shape: every per-slot table must have the length this SM's
        // config builds.
        for (what, got, want) in [
            ("warp slots", self.warps.len(), nwarps),
            ("CTA slots", self.ctas.len(), nctas),
            ("writeback wheel slots", self.wheel.len(), WHEEL),
            ("progress entries", self.progress.len(), nwarps),
            ("meta entries", self.meta.len(), nwarps),
        ] {
            if got != want {
                return bad(format!("snapshot has {got} {what}, config has {want}"));
            }
        }
        // Semantic bounds. Parsing proved the bytes are well-formed; these
        // checks prove the *values* can run: every index the cycle loop
        // will touch — warp slots, registers, program counters, CTA slots,
        // lane→thread mappings — is validated against the kernel and launch
        // before a single cycle runs. A snapshot that reaches the machine
        // with a damaged body (its envelope checksum bypassed or its bytes
        // flipped in memory) must die here with a structured error, not
        // panic mid-cycle.
        for (_, p) in self.pending.iter() {
            if p.warp >= nwarps {
                return bad(format!("pending entry names warp {} of {nwarps}", p.warp));
            }
            if let PendKind::Load { dst } | PendKind::Atomic { dst } = p.kind {
                if dst.index() >= limits.regs_per_thread {
                    return bad(format!(
                        "pending entry writes r{} of {} kernel registers",
                        dst.0, limits.regs_per_thread
                    ));
                }
            }
        }
        for e in self.wheel.iter().flatten() {
            if e.warp >= nwarps {
                return bad(format!("writeback entry names warp {} of {nwarps}", e.warp));
            }
            if e.reg.is_some_and(|rg| rg.index() >= limits.regs_per_thread) {
                return bad("writeback register out of kernel range".to_string());
            }
            if let Some(p) = e.pred.filter(|p| p.0 >= 8) {
                return bad(format!("writeback predicate p{} out of range", p.0));
            }
        }
        for (i, warp) in self.warps.iter().enumerate() {
            // A warp's class must not depend on the clock alone: the issue
            // port is free from the cycle after the last issue, which any
            // checkpoint boundary has reached (see `classify`).
            if warp.next_issue > limits.now {
                return bad(format!(
                    "warp {i} issues next at cycle {}, past the restored cycle {}",
                    warp.next_issue, limits.now
                ));
            }
            for e in warp.stack.entries() {
                if e.pc >= limits.insts || (e.rpc != simt_isa::RECONV_EXIT && e.rpc >= limits.insts)
                {
                    return bad(format!(
                        "warp {i} stack pc {} / rpc {} outside the kernel's {} instructions",
                        e.pc, e.rpc, limits.insts
                    ));
                }
            }
            if warp.resident {
                let Some(Some(cta)) = self.ctas.get(warp.cta_slot) else {
                    return bad(format!(
                        "resident warp {i} names empty CTA slot {}",
                        warp.cta_slot
                    ));
                };
                if warp.warp_in_cta >= cta.num_warps {
                    return bad(format!(
                        "warp {i} is warp {} of a {}-warp CTA",
                        warp.warp_in_cta, cta.num_warps
                    ));
                }
                for e in warp.stack.entries() {
                    let top_lane = (31 - e.mask.leading_zeros()) as usize;
                    if e.mask != 0 && warp.thread_of(top_lane) >= cta.threads {
                        return bad(format!(
                            "warp {i} mask {:#010x} activates a lane past the CTA's {} threads",
                            e.mask, cta.threads
                        ));
                    }
                }
            }
        }
        for cta in self.ctas.iter().flatten() {
            if cta.id >= limits.grid_ctas
                || cta.threads != limits.threads_per_cta
                || cta.regs_per_thread != limits.regs_per_thread
                || cta.shared.len() != limits.shared_words
            {
                return bad(format!("CTA {} geometry does not match the launch", cta.id));
            }
        }
        // The Figure 11 sample is the size of each unit's backed-off set,
        // which must hold only live warps of the unit from the start.
        for (u, unit) in self.units.iter().enumerate() {
            let live: WarpSet = (u..nwarps)
                .step_by(nunits)
                .filter(|&i| self.warps[i].resident && !self.warps[i].done)
                .collect();
            let stray = unit.backed_off() - live;
            if !stray.is_empty() {
                return bad(format!(
                    "scheduler unit {u} holds backed-off warps {:?} that are not live warps of its own",
                    stray.iter().collect::<Vec<_>>()
                ));
            }
        }
        // Derived members are never serialized: recount, and force the
        // first post-restore cycle to rebuild the live set — and with it
        // every stall class, the ready set and every running total — from
        // the restored warps.
        self.ctas_resident = self.ctas.iter().flatten().count();
        self.wheel_len = self.wheel.iter().map(Vec::len).sum();
        self.live_version = self.resident_version.wrapping_add(1);
        Ok(())
    }
}

// Everything after the unit and detector blobs, in wire order. The slab
// serializes its slot layout verbatim (generations and free-list order
// included), so resumed runs assign future tags bit-identically.
snap_struct!(state Sm {
    branch_log: BranchLog,
    pending: TagSlab<PendingMem>,
    wheel: Vec<Vec<WbEntry>>,
    progress: Vec<WarpProgress>,
    resident_version: u64,
    regs_in_use: usize,
    shared_in_use: usize,
    meta: Vec<WarpMeta>,
    captured: Vec<crate::warp::CtaState>,
});
snap_struct!(WbEntry { warp: usize, reg: Option<Reg>, pred: Option<simt_isa::Pred> });
snap_enum!(PendKind, "pending-mem kind" {
    0 => Load { dst: Reg },
    1 => Store {},
    2 => Atomic { dst: Reg },
});
snap_struct!(PendingMem {
    warp: usize,
    remaining: u32,
    kind: PendKind
});

/// Values needed to evaluate special registers.
struct SpecialCtx {
    sm_id: usize,
    cta_id: usize,
    threads_per_cta: usize,
    grid_ctas: usize,
    now: u64,
}

fn special_value(s: Special, thread: usize, lane: usize, ctx: &SpecialCtx) -> u32 {
    match s {
        Special::TidX => thread as u32,
        Special::CtaIdX => ctx.cta_id as u32,
        Special::NTidX => ctx.threads_per_cta as u32,
        Special::NCtaIdX => ctx.grid_ctas as u32,
        Special::LaneId => lane as u32,
        Special::WarpId => (thread / 32) as u32,
        Special::GlobalTid => (ctx.cta_id * ctx.threads_per_cta + thread) as u32,
        Special::Clock => ctx.now as u32,
        Special::SmId => ctx.sm_id as u32,
    }
}

/// `op` across the lanes of warp `wic` of `cta`, its kind resolved once: a
/// register is its own column, borrowed; an immediate or a special register
/// is written to `tmp` for all 32 lanes.
#[inline]
fn operand_column<'a>(
    op: Operand,
    cta: &'a Cta,
    wic: usize,
    ctx: &SpecialCtx,
    tmp: &'a mut Column,
) -> &'a Column {
    match op {
        Operand::Reg(r) => return cta.column(wic, r),
        Operand::Imm(v) => *tmp = [v; 32],
        Operand::Special(s) => *tmp = special_column(s, wic, ctx),
    }
    tmp
}

/// Special register `s` for each lane of warp `wic`. Kept out of line:
/// kernels read specials in their first few instructions and rarely after.
#[inline(never)]
fn special_column(s: Special, wic: usize, ctx: &SpecialCtx) -> Column {
    std::array::from_fn(|lane| special_value(s, wic * 32 + lane, lane, ctx))
}

/// Effective byte address of a decoded memory operand, per lane of warp
/// `wic`.
fn addr_column(d: &DecodedInst, cta: &Cta, wic: usize) -> [u64; 32] {
    let off = d.addr_off as i64;
    match d.addr_base {
        Some(r) => cta.column(wic, r).map(|base| (base as i64 + off) as u64),
        None => [off as u64; 32],
    }
}

/// Write `src` to the lanes of `dst` in `exec`; the others keep their value.
/// Branch-free — each lane's bit is widened to a word mask — so the cost is
/// the same for a full, an empty and a ragged `exec`.
#[inline]
fn blend(dst: &mut Column, src: &Column, exec: u32) {
    for lane in 0..32 {
        let take = 0u32.wrapping_sub(exec >> lane & 1);
        dst[lane] = (dst[lane] & !take) | (src[lane] & take);
    }
}

/// Iterator over set bits of a u32 (lane indices).
struct BitIter(u32);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{alu_column_fn, Op, Ty};

    #[test]
    fn snap_laws() {
        use simt_snap::assert_snap_laws;
        assert_snap_laws(&WbEntry {
            warp: 0,
            reg: None,
            pred: None,
        });
        assert_snap_laws(&WbEntry {
            warp: 3,
            reg: Some(Reg(9)),
            pred: Some(simt_isa::Pred(2)),
        });
        for kind in [
            PendKind::Store,
            PendKind::Load { dst: Reg(1) },
            PendKind::Atomic { dst: Reg(2) },
        ] {
            assert_snap_laws(&PendingMem {
                warp: 1,
                remaining: 2,
                kind,
            });
        }
        let mut pending = TagSlab::new();
        assert_snap_laws(&pending);
        let tag = pending.insert(PendingMem {
            warp: 0,
            remaining: 1,
            kind: PendKind::Store,
        });
        pending.insert(PendingMem {
            warp: 1,
            remaining: 4,
            kind: PendKind::Load { dst: Reg(5) },
        });
        pending.remove(tag);
        assert_snap_laws(&pending);
    }

    /// A unit that claims a backed-off warp which is not one of its live
    /// warps is refused at restore: the SM samples the size of the
    /// backed-off set every cycle as Figure 11's count.
    #[test]
    fn backed_off_warps_must_be_live_at_restore() {
        struct Claims(WarpSet);
        impl SchedulerPolicy for Claims {
            fn name(&self) -> String {
                "claims".to_string()
            }
            fn pick(&mut self, _: &SchedCtx<'_>, eligible: WarpSet) -> Option<usize> {
                eligible.first()
            }
            fn backed_off(&self) -> WarpSet {
                self.0
            }
        }
        let cfg = GpuConfig::test_tiny();
        let sm = |claim: WarpSet| {
            let units = (0..cfg.schedulers_per_sm)
                .map(|_| Box::new(Claims(claim)) as Box<dyn SchedulerPolicy>)
                .collect();
            Sm::new(0, &cfg, units, Box::new(crate::NullDetector))
        };
        let mut w = SnapWriter::new();
        sm(WarpSet::EMPTY).save_snap(&mut w);
        let body = w.into_bytes();
        let limits = SnapLimits {
            insts: 1,
            regs_per_thread: 1,
            threads_per_cta: 32,
            shared_words: 0,
            grid_ctas: 1,
            now: 0,
        };
        sm(WarpSet::EMPTY)
            .load_snap(&mut SnapReader::new(&body), &limits)
            .unwrap();
        let err = sm(WarpSet(0b10))
            .load_snap(&mut SnapReader::new(&body), &limits)
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("holds backed-off warps [1] that are not live"),
            "{err}"
        );
    }

    /// Every class that writes a register or a predicate leaves the lanes
    /// outside `exec` exactly as they were — for an empty, a one-lane, a
    /// sparse and a full guard, on a CTA whose last warp is partial (its
    /// padding lanes are checked by `Cta::rows` as the state is captured).
    #[test]
    fn lanes_outside_exec_keep_their_registers_and_predicates() {
        use crate::{BasePolicy, Gpu, LaunchSpec};
        #[derive(Clone, Copy)]
        enum R5 {
            Is(fn(u32, u32) -> u32),
            Clock,
        }
        type P1 = fn(u32) -> bool;
        // Before the guarded instruction, thread `t` (lane `l`) holds
        // r2 = t, r7 = l, r3 = 4t, r4 = &buf[t], r5 = 0x1000 + t,
        // p1 = l < 5, p2 = l >= 3, buf[t] = shared[t] = 7t + 1, and
        // p7 = bit l of the mask under test. Each case: the instruction,
        // then r5 and p1 of a lane that executes it.
        let kept = (R5::Is(|t, _| 0x1000 + t), (|l| l < 5) as P1);
        let cases: [(&str, R5, P1); 13] = [
            ("add r5, r5, 1", R5::Is(|t, _| 0x1001 + t), kept.1),
            ("mov r5, %laneid", R5::Is(|_, l| l), kept.1),
            ("mad r5, r2, 3, r7", R5::Is(|t, l| 3 * t + l), kept.1),
            (
                "selp r5, r2, r7, p2",
                R5::Is(|t, l| if l >= 3 { t } else { l }),
                kept.1,
            ),
            ("setp.ge.s32 p1, r7, 2", kept.0, |l| l >= 2),
            ("pand p1, p1, p2", kept.0, |l| (3..5).contains(&l)),
            ("por p1, p1, p2", kept.0, |_| true),
            ("pnot p1, p2", kept.0, |l| l < 3),
            ("clock r5", R5::Clock, kept.1),
            ("ld.param r5, [8]", R5::Is(|_, _| 0xabcd), kept.1),
            ("ld.shared r5, [r3]", R5::Is(|t, _| 7 * t + 1), kept.1),
            ("ld.global r5, [r4]", R5::Is(|t, _| 7 * t + 1), kept.1),
            (
                "atom.global.add r5, [r4], 1",
                R5::Is(|t, _| 7 * t + 1),
                kept.1,
            ),
        ];
        for (inst, r5, p1) in cases {
            let kernel = simt_isa::asm::assemble(&format!(
                r#"
                .kernel lanes
                .regs 8
                .params 3
                .shared 40
                    ld.param r1, [0]
                    ld.param r6, [4]
                    mov r2, %tid
                    mov r7, %laneid
                    shr r3, r6, r7
                    and r3, r3, 1
                    setp.ne.s32 p7, r3, 0
                    setp.lt.s32 p1, r7, 5
                    setp.ge.s32 p2, r7, 3
                    shl r3, r2, 2
                    add r4, r3, r1
                    mad r5, r2, 7, 1
                    st.shared [r3], r5
                    add r5, r2, 0x1000
                @p7 {inst}
                    exit
                "#
            ))
            .unwrap();
            for mask in [0, 1 << 3, 0x8000_0429, u32::MAX] {
                let mut gpu = Gpu::new(GpuConfig {
                    capture_final_state: true,
                    ..GpuConfig::test_tiny()
                });
                let buf = gpu.mem_mut().gmem_mut().alloc(40);
                for t in 0..40 {
                    gpu.mem_mut()
                        .gmem_mut()
                        .write_u32(buf + t * 4, 7 * t as u32 + 1);
                }
                let launch = LaunchSpec {
                    grid_ctas: 1,
                    threads_per_cta: 40,
                    params: vec![buf as u32, mask, 0xabcd],
                };
                let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
                let state = &report.final_state.as_ref().expect("capture is on")[0];
                for t in 0..40u32 {
                    let l = t % 32;
                    let executes = mask >> l & 1 != 0;
                    let what = format!("`{inst}` mask {mask:#x} thread {t}");
                    let got = state.reg(t as usize, 5);
                    match if executes { r5 } else { kept.0 } {
                        R5::Is(want) => assert_eq!(got, want(t, l), "r5 after {what}"),
                        R5::Clock => assert!(
                            got > 0 && u64::from(got) < report.cycles,
                            "r5 = {got} after {what}"
                        ),
                    }
                    let want = if executes { p1(l) } else { (kept.1)(l) };
                    assert_eq!(
                        state.preds[t as usize] >> 1 & 1 != 0,
                        want,
                        "p1 after {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_iter_yields_lanes() {
        let v: Vec<usize> = BitIter(0b1010_0001).collect();
        assert_eq!(v, vec![0, 5, 7]);
        assert_eq!(BitIter(0).count(), 0);
        assert_eq!(BitIter(u32::MAX).count(), 32);
    }

    // The executor's ALU semantics come from `simt_isa`'s table; these stay
    // as known-answer coverage of the column evaluators it calls.
    fn alu_eval(op: Op, a: u32, b: u32, c: u32) -> u32 {
        let mut out = [0; 32];
        alu_column_fn(op)(&[a; 32], &[b; 32], &[c; 32], &mut out);
        assert_eq!(out, [out[0]; 32], "{op:?}: equal inputs, equal lanes");
        out[0]
    }

    #[test]
    fn alu_eval_int() {
        assert_eq!(alu_eval(Op::Add(Ty::S32), 2, 3, 0), 5);
        assert_eq!(alu_eval(Op::Sub(Ty::S32), 2, 3, 0), (-1i32) as u32);
        assert_eq!(alu_eval(Op::Mad(Ty::S32), 2, 3, 4), 10);
        assert_eq!(alu_eval(Op::Div(Ty::S32), 7, 2, 0), 3);
        assert_eq!(alu_eval(Op::Div(Ty::S32), 7, 0, 0), u32::MAX);
        assert_eq!(alu_eval(Op::Rem(Ty::S32), 7, 3, 0), 1);
        assert_eq!(alu_eval(Op::Shl, 1, 5, 0), 32);
        assert_eq!(alu_eval(Op::Sra, (-8i32) as u32, 1, 0), (-4i32) as u32);
        assert_eq!(
            alu_eval(Op::Min(Ty::S32), (-1i32) as u32, 1, 0),
            (-1i32) as u32
        );
        assert_eq!(alu_eval(Op::Min(Ty::U32), u32::MAX, 1, 0), 1);
    }

    #[test]
    fn alu_eval_float() {
        let b = |x: f32| x.to_bits();
        assert_eq!(alu_eval(Op::Add(Ty::F32), b(1.5), b(2.0), 0), b(3.5));
        assert_eq!(alu_eval(Op::Sqrt, b(9.0), 0, 0), b(3.0));
        assert_eq!(alu_eval(Op::CvtI2F, 3, 0, 0), b(3.0));
        assert_eq!(alu_eval(Op::CvtF2I, b(3.7), 0, 0), 3);
    }

    #[test]
    fn special_values() {
        let ctx = SpecialCtx {
            sm_id: 2,
            cta_id: 5,
            threads_per_cta: 128,
            grid_ctas: 10,
            now: 42,
        };
        assert_eq!(special_value(Special::TidX, 37, 5, &ctx), 37);
        assert_eq!(special_value(Special::LaneId, 37, 5, &ctx), 5);
        assert_eq!(special_value(Special::WarpId, 37, 5, &ctx), 1);
        assert_eq!(special_value(Special::GlobalTid, 37, 5, &ctx), 677);
        assert_eq!(special_value(Special::Clock, 37, 5, &ctx), 42);
        assert_eq!(special_value(Special::NCtaIdX, 0, 0, &ctx), 10);
        assert_eq!(special_value(Special::SmId, 0, 0, &ctx), 2);
    }
}
