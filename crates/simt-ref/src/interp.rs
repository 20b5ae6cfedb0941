//! The functional execution loop.

use crate::hb::{HbChecker, RaceObs, WordKey};
use crate::stack::RefStack;
use simt_isa::{Inst, Kernel, Op, Operand, Space, Special, Ty};
use simt_mem::GlobalMem;
use std::collections::HashMap;
use std::fmt;

/// Launch geometry for a reference run (the reference has no residency
/// limits, so this is all it needs to know).
#[derive(Debug, Clone)]
pub struct RefLaunch<'a> {
    /// CTAs in the grid.
    pub grid_ctas: usize,
    /// Threads per CTA (the last warp may be partial).
    pub threads_per_cta: usize,
    /// 32-bit parameter slots, read by `ld.param`.
    pub params: &'a [u32],
}

/// Final architectural state of one CTA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefCta {
    /// Global CTA index.
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

impl RefCta {
    /// Register `r` of `thread`.
    pub fn reg(&self, thread: usize, r: usize) -> u32 {
        self.regs[thread * self.regs_per_thread + r]
    }
}

/// Who last changed a global-memory word (for divergence attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writer {
    /// Global CTA index of the writing warp.
    pub cta: usize,
    /// Warp index within that CTA.
    pub warp: usize,
    /// Instruction index of the store/atomic.
    pub pc: usize,
    /// Kernel source line of that instruction.
    pub line: u32,
}

/// Everything a reference run produces.
#[derive(Debug, Clone)]
pub struct RefOutcome {
    /// Final global memory.
    pub gmem: GlobalMem,
    /// Final per-CTA register/predicate/shared state, ordered by CTA id.
    pub ctas: Vec<RefCta>,
    /// Total instructions executed (across all warps).
    pub steps: u64,
    /// Last writer of every global word that was stored or atomically
    /// updated, keyed by byte address.
    pub writers: HashMap<u64, Writer>,
}

/// Why a reference run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefError {
    /// The fuel limit was exhausted: the kernel livelocks under fair
    /// round-robin interleaving (e.g. a SIMT-induced deadlock, where the
    /// lock holder is trapped below the spinners' reconvergence point).
    Fuel {
        /// Instructions executed before giving up.
        steps: u64,
        /// `(cta, warp, pc)` of every unfinished warp.
        stuck: Vec<(usize, usize, usize)>,
    },
    /// No warp can step but the grid is unfinished (barrier deadlock), or
    /// the kernel performed an architecturally impossible access.
    Invariant(String),
}

impl fmt::Display for RefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefError::Fuel { steps, stuck } => write!(
                f,
                "reference fuel exhausted after {steps} steps; {} warps stuck (first at {:?})",
                stuck.len(),
                stuck.first()
            ),
            RefError::Invariant(what) => write!(f, "reference invariant violated: {what}"),
        }
    }
}

impl std::error::Error for RefError {}

/// One warp's control state.
struct RefWarp {
    stack: RefStack,
    at_barrier: bool,
    done: bool,
    /// Instructions this warp has executed (`clock`'s time base).
    retired: u64,
}

/// One CTA's architectural state.
struct CtaState {
    id: usize,
    threads: usize,
    warps: Vec<RefWarp>,
    regs: Vec<u32>,
    preds: Vec<u8>,
    shared: Vec<u32>,
    barrier_arrived: usize,
    warps_done: usize,
}

impl CtaState {
    fn new(id: usize, threads: usize, regs_per_thread: usize, shared_words: usize) -> CtaState {
        let num_warps = threads.div_ceil(32);
        let warps = (0..num_warps)
            .map(|w| {
                let lanes = (threads - w * 32).min(32);
                let mask = if lanes == 32 {
                    u32::MAX
                } else {
                    (1u32 << lanes) - 1
                };
                RefWarp {
                    stack: RefStack::new(mask, 0),
                    at_barrier: false,
                    done: false,
                    retired: 0,
                }
            })
            .collect();
        CtaState {
            id,
            threads,
            warps,
            regs: vec![0; threads * regs_per_thread],
            preds: vec![0; threads],
            shared: vec![0; shared_words],
            barrier_arrived: 0,
            warps_done: 0,
        }
    }

    fn live_warps(&self) -> usize {
        self.warps.len() - self.warps_done
    }

    fn release_barrier_if_full(&mut self) {
        if self.live_warps() > 0 && self.barrier_arrived >= self.live_warps() {
            self.barrier_arrived = 0;
            for w in &mut self.warps {
                w.at_barrier = false;
            }
        }
    }
}

/// Execute `kernel` to completion on `gmem` and return the final
/// architectural state.
///
/// `fuel` bounds the total instruction count across all warps; a kernel
/// that cannot finish within it (a livelock under fair interleaving, or
/// genuinely more work than the caller budgeted) fails with
/// [`RefError::Fuel`] instead of hanging the harness.
///
/// # Errors
///
/// [`RefError::Fuel`] on fuel exhaustion; [`RefError::Invariant`] on
/// barrier deadlock or an impossible memory access (out of bounds,
/// unaligned, a store to parameter space).
pub fn run_ref(
    kernel: &Kernel,
    launch: &RefLaunch<'_>,
    gmem: GlobalMem,
    fuel: u64,
) -> Result<RefOutcome, RefError> {
    run_ref_inner(kernel, launch, gmem, fuel, None).outcome
}

/// A reference run with the happens-before race checker attached.
#[derive(Debug)]
pub struct TracedRun {
    /// The run result, exactly as [`run_ref`] would report it.
    pub outcome: Result<RefOutcome, RefError>,
    /// Dynamic race observations, in observation order (also populated for
    /// failed runs — a racy kernel may race before it hangs).
    pub races: Vec<RaceObs>,
}

/// Like [`run_ref`], but observing every shared/global access through the
/// vector-clock happens-before checker ([`crate::hb`]).
pub fn run_ref_traced(
    kernel: &Kernel,
    launch: &RefLaunch<'_>,
    gmem: GlobalMem,
    fuel: u64,
) -> TracedRun {
    run_ref_inner(
        kernel,
        launch,
        gmem,
        fuel,
        Some(HbChecker::new(launch.grid_ctas, launch.threads_per_cta)),
    )
}

fn run_ref_inner(
    kernel: &Kernel,
    launch: &RefLaunch<'_>,
    gmem: GlobalMem,
    fuel: u64,
    hb: Option<HbChecker>,
) -> TracedRun {
    let fail = |e: RefError| TracedRun {
        outcome: Err(e),
        races: Vec::new(),
    };
    if launch.grid_ctas == 0 || launch.threads_per_cta == 0 {
        return fail(RefError::Invariant("empty grid".to_string()));
    }
    if launch.threads_per_cta > 1024 {
        return fail(RefError::Invariant(format!(
            "{} threads per CTA exceeds the 1024 architectural limit",
            launch.threads_per_cta
        )));
    }
    let mut m = Machine {
        kernel,
        params: launch.params,
        threads_per_cta: launch.threads_per_cta,
        grid_ctas: launch.grid_ctas,
        gmem,
        ctas: (0..launch.grid_ctas)
            .map(|id| {
                CtaState::new(
                    id,
                    launch.threads_per_cta,
                    kernel.num_regs as usize,
                    kernel.shared_words as usize,
                )
            })
            .collect(),
        writers: HashMap::new(),
        steps: 0,
        hb,
    };

    loop {
        let mut stepped = false;
        let mut unfinished = false;
        for c in 0..m.ctas.len() {
            for w in 0..m.ctas[c].warps.len() {
                {
                    let warp = &m.ctas[c].warps[w];
                    if warp.done {
                        continue;
                    }
                    unfinished = true;
                    if warp.at_barrier {
                        continue;
                    }
                }
                if let Err(e) = m.step(c, w) {
                    return TracedRun {
                        outcome: Err(e),
                        races: m.hb.map(|h| h.races).unwrap_or_default(),
                    };
                }
                stepped = true;
                if m.steps >= fuel {
                    return TracedRun {
                        outcome: Err(RefError::Fuel {
                            steps: m.steps,
                            stuck: m.stuck(),
                        }),
                        races: m.hb.map(|h| h.races).unwrap_or_default(),
                    };
                }
            }
        }
        if !unfinished {
            break;
        }
        if !stepped {
            return TracedRun {
                outcome: Err(RefError::Invariant(format!(
                    "barrier deadlock: no warp can step, stuck at {:?}",
                    m.stuck()
                ))),
                races: m.hb.map(|h| h.races).unwrap_or_default(),
            };
        }
    }

    let ctas = m
        .ctas
        .iter()
        .map(|c| RefCta {
            cta_id: c.id,
            threads: c.threads,
            regs_per_thread: kernel.num_regs as usize,
            regs: c.regs.clone(),
            preds: c.preds.clone(),
            shared: c.shared.clone(),
        })
        .collect();
    TracedRun {
        outcome: Ok(RefOutcome {
            gmem: m.gmem,
            ctas,
            steps: m.steps,
            writers: m.writers,
        }),
        races: m.hb.map(|h| h.races).unwrap_or_default(),
    }
}

struct Machine<'a> {
    kernel: &'a Kernel,
    params: &'a [u32],
    threads_per_cta: usize,
    grid_ctas: usize,
    gmem: GlobalMem,
    ctas: Vec<CtaState>,
    writers: HashMap<u64, Writer>,
    steps: u64,
    hb: Option<HbChecker>,
}

impl Machine<'_> {
    fn stuck(&self) -> Vec<(usize, usize, usize)> {
        let mut v = Vec::new();
        for c in &self.ctas {
            for (w, warp) in c.warps.iter().enumerate() {
                if !warp.done {
                    let pc = if warp.stack.is_empty() {
                        0
                    } else {
                        warp.stack.pc()
                    };
                    v.push((c.id, w, pc));
                }
            }
        }
        v
    }

    fn invariant(&self, c: usize, pc: usize, what: &str) -> RefError {
        RefError::Invariant(format!("cta {c} pc {pc}: {what}"))
    }

    fn reg(&self, c: usize, thread: usize, r: simt_isa::Reg) -> u32 {
        let cta = &self.ctas[c];
        cta.regs[thread * self.kernel.num_regs as usize + r.index()]
    }

    fn set_reg(&mut self, c: usize, thread: usize, r: simt_isa::Reg, v: u32) {
        let rp = self.kernel.num_regs as usize;
        self.ctas[c].regs[thread * rp + r.index()] = v;
    }

    fn pred(&self, c: usize, thread: usize, p: simt_isa::Pred) -> bool {
        self.ctas[c].preds[thread] & (1 << p.0) != 0
    }

    fn set_pred(&mut self, c: usize, thread: usize, p: simt_isa::Pred, v: bool) {
        if v {
            self.ctas[c].preds[thread] |= 1 << p.0;
        } else {
            self.ctas[c].preds[thread] &= !(1 << p.0);
        }
    }

    fn special(&self, s: Special, c: usize, w: usize, thread: usize, lane: usize) -> u32 {
        match s {
            Special::TidX => thread as u32,
            Special::CtaIdX => self.ctas[c].id as u32,
            Special::NTidX => self.threads_per_cta as u32,
            Special::NCtaIdX => self.grid_ctas as u32,
            Special::LaneId => lane as u32,
            Special::WarpId => (thread / 32) as u32,
            Special::GlobalTid => (self.ctas[c].id * self.threads_per_cta + thread) as u32,
            // Timing state has no cycle-level meaning here: `clock` counts
            // the warp's executed instructions (monotonic, so clock-delta
            // loops still terminate), `%smid` is always 0. Kernels reading
            // either are expected to diverge from the simulator.
            Special::Clock => self.ctas[c].warps[w].retired as u32,
            Special::SmId => 0,
        }
    }

    fn value(&self, op: &Operand, c: usize, w: usize, thread: usize, lane: usize) -> u32 {
        match op {
            Operand::Reg(r) => self.reg(c, thread, *r),
            Operand::Imm(v) => *v,
            Operand::Special(s) => self.special(*s, c, w, thread, lane),
        }
    }

    fn addr_of(&self, inst: &Inst, c: usize, thread: usize) -> u64 {
        let a = inst.addr.expect("memory instruction has an address");
        let base = a.base.map(|r| self.reg(c, thread, r)).unwrap_or(0) as i64;
        (base + a.offset as i64) as u64
    }

    /// Bounds-and-alignment check for a global access; the reference
    /// reports these as errors rather than panicking so the fuzzer can
    /// reject ill-formed mutants gracefully.
    fn check_global(&self, c: usize, pc: usize, addr: u64) -> Result<usize, RefError> {
        if !addr.is_multiple_of(4) {
            return Err(self.invariant(c, pc, &format!("unaligned global access at {addr:#x}")));
        }
        let idx = (addr / 4) as usize;
        if idx >= self.gmem.image().len() {
            return Err(self.invariant(
                c,
                pc,
                &format!("global access out of bounds at {addr:#x}"),
            ));
        }
        Ok(idx)
    }

    /// Execute one instruction of warp `w` of CTA `c`.
    fn step(&mut self, c: usize, w: usize) -> Result<(), RefError> {
        let pc = self.ctas[c].warps[w].stack.pc();
        let Some(inst) = self.kernel.insts.get(pc).cloned() else {
            return Err(self.invariant(c, pc, "pc past end of kernel"));
        };
        self.steps += 1;
        self.ctas[c].warps[w].retired += 1;
        let active = self.ctas[c].warps[w].stack.active();
        let warp_base = w * 32;

        // Guard evaluation.
        let mut exec = active;
        if let Some((p, want)) = inst.guard {
            let mut m = 0u32;
            for lane in bits(active) {
                if self.pred(c, warp_base + lane, p) == want {
                    m |= 1 << lane;
                }
            }
            exec = m;
        }

        match inst.op {
            Op::Mov
            | Op::Add(_)
            | Op::Sub(_)
            | Op::Mul(_)
            | Op::Mad(_)
            | Op::Div(_)
            | Op::Rem(_)
            | Op::Min(_)
            | Op::Max(_)
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Not
            | Op::Neg(_)
            | Op::Shl
            | Op::Shr
            | Op::Sra
            | Op::Sqrt
            | Op::CvtI2F
            | Op::CvtF2I => {
                let dst = inst.dst.expect("ALU dst");
                for lane in bits(exec) {
                    let t = warp_base + lane;
                    let a = inst
                        .srcs
                        .first()
                        .map(|s| self.value(s, c, w, t, lane))
                        .unwrap_or(0);
                    let b = inst
                        .srcs
                        .get(1)
                        .map(|s| self.value(s, c, w, t, lane))
                        .unwrap_or(0);
                    let cc = inst
                        .srcs
                        .get(2)
                        .map(|s| self.value(s, c, w, t, lane))
                        .unwrap_or(0);
                    let v = eval_alu(inst.op, a, b, cc);
                    self.set_reg(c, t, dst, v);
                }
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
            Op::Selp => {
                let dst = inst.dst.expect("selp dst");
                let p = inst.psrcs[0];
                for lane in bits(exec) {
                    let t = warp_base + lane;
                    let a = self.value(&inst.srcs[0], c, w, t, lane);
                    let b = self.value(&inst.srcs[1], c, w, t, lane);
                    let v = if self.pred(c, t, p) { a } else { b };
                    self.set_reg(c, t, dst, v);
                }
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
            Op::Setp(cmp, ty) => {
                let pdst = inst.pdst.expect("setp pdst");
                for lane in bits(exec) {
                    let t = warp_base + lane;
                    let a = self.value(&inst.srcs[0], c, w, t, lane);
                    let b = self.value(&inst.srcs[1], c, w, t, lane);
                    self.set_pred(c, t, pdst, cmp.eval(ty, a, b));
                }
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
            Op::PAnd | Op::POr | Op::PNot => {
                let pdst = inst.pdst.expect("pred dst");
                for lane in bits(exec) {
                    let t = warp_base + lane;
                    let a = self.pred(c, t, inst.psrcs[0]);
                    let v = match inst.op {
                        Op::PAnd => a && self.pred(c, t, inst.psrcs[1]),
                        Op::POr => a || self.pred(c, t, inst.psrcs[1]),
                        _ => !a,
                    };
                    self.set_pred(c, t, pdst, v);
                }
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
            Op::Bra => {
                let target = inst.target.expect("resolved branch target");
                let rpc = self.kernel.reconv[pc];
                self.ctas[c].warps[w]
                    .stack
                    .branch(exec, target, pc + 1, rpc);
            }
            Op::Exit => {
                let warp = &mut self.ctas[c].warps[w];
                warp.stack.exit_threads(exec);
                if warp.stack.is_empty() {
                    warp.done = true;
                    self.ctas[c].warps_done += 1;
                    // The CTA barrier counts live warps; a warp exiting can
                    // therefore release it.
                    self.release_barrier(c);
                } else if warp.stack.pc() == pc {
                    // Guarded exit: surviving lanes fall through.
                    warp.stack.advance(pc + 1);
                }
            }
            Op::Nop => self.ctas[c].warps[w].stack.advance(pc + 1),
            Op::Clock => {
                let dst = inst.dst.expect("clock dst");
                let ticks = self.ctas[c].warps[w].retired as u32;
                for lane in bits(exec) {
                    self.set_reg(c, warp_base + lane, dst, ticks);
                }
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
            Op::Bar => {
                let warp = &mut self.ctas[c].warps[w];
                warp.at_barrier = true;
                warp.stack.advance(pc + 1);
                self.ctas[c].barrier_arrived += 1;
                self.release_barrier(c);
            }
            Op::Membar => {
                // Memory is sequentially consistent: every prior store is
                // already visible.
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
            Op::Ld(space, volatile) => {
                let dst = inst.dst.expect("load dst");
                for lane in bits(exec) {
                    let t = warp_base + lane;
                    let addr = self.addr_of(&inst, c, t);
                    let (v, word) = match space {
                        Space::Param => {
                            let slot = (addr / 4) as usize;
                            let v = *self.params.get(slot).ok_or_else(|| {
                                self.invariant(c, pc, &format!("ld.param slot {slot} out of range"))
                            })?;
                            (v, None)
                        }
                        Space::Shared => {
                            let slot = (addr / 4) as usize;
                            let v = *self.ctas[c].shared.get(slot).ok_or_else(|| {
                                self.invariant(
                                    c,
                                    pc,
                                    &format!("ld.shared out of bounds at {addr:#x}"),
                                )
                            })?;
                            (v, Some(WordKey::Shared(c, slot)))
                        }
                        Space::Global => {
                            self.check_global(c, pc, addr)?;
                            (self.gmem.read_u32(addr), Some(WordKey::Global(addr)))
                        }
                    };
                    if let (Some(hb), Some(word)) = (self.hb.as_mut(), word) {
                        if volatile {
                            hb.acquire(c, w, word);
                        } else {
                            hb.plain_read(c, w, word, pc, inst.line);
                        }
                    }
                    self.set_reg(c, t, dst, v);
                }
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
            Op::St(space, volatile) => {
                for lane in bits(exec) {
                    let t = warp_base + lane;
                    let addr = self.addr_of(&inst, c, t);
                    let v = self.value(&inst.srcs[0], c, w, t, lane);
                    let word = match space {
                        Space::Param => {
                            return Err(self.invariant(c, pc, "store to param space"));
                        }
                        Space::Shared => {
                            let slot = (addr / 4) as usize;
                            let words = self.ctas[c].shared.len();
                            let Some(s) = self.ctas[c].shared.get_mut(slot) else {
                                return Err(self.invariant(
                                    c,
                                    pc,
                                    &format!("st.shared at {addr:#x} past {words} shared words"),
                                ));
                            };
                            *s = v;
                            WordKey::Shared(c, slot)
                        }
                        Space::Global => {
                            self.check_global(c, pc, addr)?;
                            self.gmem.write_u32(addr, v);
                            self.note_writer(addr, c, w, pc, inst.line);
                            WordKey::Global(addr)
                        }
                    };
                    if let Some(hb) = self.hb.as_mut() {
                        if volatile {
                            // A sync store is a pure release: not a race
                            // candidate itself.
                            hb.release(c, w, word);
                        } else {
                            hb.plain_write(c, w, word, pc, inst.line);
                        }
                    }
                }
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
            Op::Atom(aop) => {
                let dst = inst.dst.expect("atomic dst");
                // Lane order is the serialization order, exactly as the
                // cycle-level L2 partitions apply a warp's lane ops.
                for lane in bits(exec) {
                    let t = warp_base + lane;
                    let addr = self.addr_of(&inst, c, t);
                    self.check_global(c, pc, addr)?;
                    let a = self.value(&inst.srcs[0], c, w, t, lane);
                    let b = inst
                        .srcs
                        .get(1)
                        .map(|s| self.value(s, c, w, t, lane))
                        .unwrap_or(0);
                    let old = self.gmem.read_u32(addr);
                    let new = aop.apply(old, a, b);
                    if new != old {
                        self.gmem.write_u32(addr, new);
                        self.note_writer(addr, c, w, pc, inst.line);
                    }
                    if let Some(hb) = self.hb.as_mut() {
                        // An atomic RMW is both halves of a sync edge, even
                        // when the CAS fails: the read alone carries the
                        // winner's release to the spinning loser.
                        hb.acquire(c, w, WordKey::Global(addr));
                        hb.release(c, w, WordKey::Global(addr));
                    }
                    self.set_reg(c, t, dst, old);
                }
                self.ctas[c].warps[w].stack.advance(pc + 1);
            }
        }
        Ok(())
    }

    /// Release the CTA barrier if everyone arrived, recording the
    /// happens-before join across the participating warps first.
    fn release_barrier(&mut self, c: usize) {
        let cta = &self.ctas[c];
        let releasing = cta.live_warps() > 0 && cta.barrier_arrived >= cta.live_warps();
        if releasing {
            if let Some(hb) = self.hb.as_mut() {
                let participants: Vec<usize> = cta
                    .warps
                    .iter()
                    .enumerate()
                    .filter(|(_, warp)| !warp.done)
                    .map(|(i, _)| i)
                    .collect();
                hb.barrier(c, &participants);
            }
        }
        self.ctas[c].release_barrier_if_full();
    }

    fn note_writer(&mut self, addr: u64, c: usize, w: usize, pc: usize, line: u32) {
        self.writers.insert(
            addr,
            Writer {
                cta: self.ctas[c].id,
                warp: w,
                pc,
                line,
            },
        );
    }
}

/// Iterate the set lane indices of a mask.
fn bits(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |i| mask & (1 << i) != 0)
}

/// The ISA's ALU semantics, re-derived from the instruction set contract
/// (wrapping two's-complement integers, IEEE f32 on bit patterns, total
/// division, masked shift counts).
fn eval_alu(op: Op, a: u32, b: u32, c: u32) -> u32 {
    let fa = f32::from_bits(a);
    let fb = f32::from_bits(b);
    match op {
        Op::Mov => a,
        Op::Add(Ty::F32) => (fa + fb).to_bits(),
        Op::Add(_) => a.wrapping_add(b),
        Op::Sub(Ty::F32) => (fa - fb).to_bits(),
        Op::Sub(_) => a.wrapping_sub(b),
        Op::Mul(Ty::F32) => (fa * fb).to_bits(),
        Op::Mul(_) => a.wrapping_mul(b),
        Op::Mad(Ty::F32) => (fa * fb + f32::from_bits(c)).to_bits(),
        Op::Mad(_) => a.wrapping_mul(b).wrapping_add(c),
        Op::Div(Ty::F32) => (fa / fb).to_bits(),
        Op::Div(Ty::U32) => a.checked_div(b).unwrap_or(u32::MAX),
        Op::Div(Ty::S32) => {
            if b == 0 {
                u32::MAX
            } else {
                (a as i32).wrapping_div(b as i32) as u32
            }
        }
        Op::Rem(Ty::U32) => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        Op::Rem(_) => {
            if b == 0 {
                a
            } else {
                (a as i32).wrapping_rem(b as i32) as u32
            }
        }
        Op::Min(Ty::F32) => fa.min(fb).to_bits(),
        Op::Min(Ty::U32) => a.min(b),
        Op::Min(_) => (a as i32).min(b as i32) as u32,
        Op::Max(Ty::F32) => fa.max(fb).to_bits(),
        Op::Max(Ty::U32) => a.max(b),
        Op::Max(_) => (a as i32).max(b as i32) as u32,
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        Op::Not => !a,
        Op::Neg(Ty::F32) => (-fa).to_bits(),
        Op::Neg(_) => (a as i32).wrapping_neg() as u32,
        Op::Shl => a.wrapping_shl(b & 31),
        Op::Shr => a.wrapping_shr(b & 31),
        Op::Sra => (a as i32).wrapping_shr(b & 31) as u32,
        Op::Sqrt => fa.sqrt().to_bits(),
        Op::CvtI2F => (a as i32 as f32).to_bits(),
        Op::CvtF2I => (fa as i32) as u32,
        other => unreachable!("{other:?} is not an ALU op"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::asm::assemble;

    fn launch(ctas: usize, tpc: usize, params: Vec<u32>) -> (RefLaunch<'static>, &'static [u32]) {
        let leaked: &'static [u32] = Box::leak(params.into_boxed_slice());
        (
            RefLaunch {
                grid_ctas: ctas,
                threads_per_cta: tpc,
                params: leaked,
            },
            leaked,
        )
    }

    #[test]
    fn thread_private_stores_and_final_registers() {
        let k = assemble(
            r#"
            .kernel private
            .regs 4
                ld.param r1, [0]
                mov r2, %gtid
                shl r3, r2, 2
                add r3, r3, r1
                mul r2, r2, 3
                st.global [r3], r2
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let buf = g.alloc(64);
        let (l, _) = launch(2, 32, vec![buf as u32]);
        let out = run_ref(&k, &l, g, 1 << 16).unwrap();
        for t in 0..64u64 {
            assert_eq!(out.gmem.read_u32(buf + t * 4), t as u32 * 3);
        }
        // r2 of thread 5 of CTA 1 holds gtid * 3 = 111.
        assert_eq!(out.ctas[1].reg(5, 2), 37 * 3);
        // Every store site is attributed.
        let wr = out.writers[&(buf + 4 * 37)];
        assert_eq!((wr.cta, wr.warp), (1, 0));
    }

    #[test]
    fn divergent_branch_reconverges() {
        let k = assemble(
            r#"
            .kernel diverge
            .regs 4
                ld.param r1, [0]
                mov r2, %tid
                and r3, r2, 1
                setp.eq.s32 p0, r3, 0
            @!p0 bra ODD
                mov r3, 100
                bra JOIN
            ODD:
                mov r3, 200
            JOIN:
                shl r2, r2, 2
                add r2, r2, r1
                st.global [r2], r3
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let buf = g.alloc(32);
        let (l, _) = launch(1, 32, vec![buf as u32]);
        let out = run_ref(&k, &l, g, 1 << 16).unwrap();
        for t in 0..32u64 {
            let expect = if t % 2 == 0 { 100 } else { 200 };
            assert_eq!(out.gmem.read_u32(buf + t * 4), expect, "thread {t}");
        }
    }

    #[test]
    fn spin_lock_across_warps_terminates_and_counts() {
        // Four warps of one CTA increment a shared counter under a CAS
        // lock; fair round-robin must drain every spinner.
        let k = assemble(
            r#"
            .kernel lock_count
            .regs 8
                ld.param r1, [0]      ; lock
                ld.param r2, [4]      ; counter
                mov r7, %laneid
                mov r6, 0             ; i = lane serializer
            SERIAL:
                setp.eq.s32 p2, r7, r6
            @!p2 bra NEXT
            SPIN:
                atom.global.cas r3, [r1], 0, 1 !acquire
                setp.ne.s32 p0, r3, 0
            @p0 bra SPIN !sib
                ld.global.volatile r4, [r2]
                add r4, r4, 1
                st.global [r2], r4
                membar
                atom.global.exch r5, [r1], 0 !release
            NEXT:
                add r6, r6, 1
                setp.lt.s32 p1, r6, 32
            @p1 bra SERIAL
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let lock = g.alloc(1);
        let ctr = g.alloc(1);
        let (l, _) = launch(1, 128, vec![lock as u32, ctr as u32]);
        let out = run_ref(&k, &l, g, 1 << 22).unwrap();
        assert_eq!(out.gmem.read_u32(ctr), 128);
        assert_eq!(out.gmem.read_u32(lock), 0, "lock released");
    }

    #[test]
    fn barrier_synchronizes_warps() {
        // Warp 1 reads what warp 0 wrote before the barrier.
        let k = assemble(
            r#"
            .kernel barrier
            .regs 6
            .shared 64
                mov r1, %tid
                shl r2, r1, 2
                st.shared [r2], r1
                bar.sync
                mov r3, 63
                sub r3, r3, r1        ; partner = 63 - tid
                shl r4, r3, 2
                ld.shared r5, [r4]
                ld.param r2, [0]
                shl r4, r1, 2
                add r4, r4, r2
                st.global [r4], r5
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let buf = g.alloc(64);
        let (l, _) = launch(1, 64, vec![buf as u32]);
        let out = run_ref(&k, &l, g, 1 << 16).unwrap();
        for t in 0..64u64 {
            assert_eq!(out.gmem.read_u32(buf + t * 4), 63 - t as u32);
        }
    }

    #[test]
    fn simt_deadlock_exhausts_fuel() {
        // Intra-warp wait below the reconvergence point: lane 0 never
        // signals because it waits (diverged) for the spinners to finish.
        let k = assemble(
            r#"
            .kernel deadlock
            .regs 4
                ld.param r1, [0]
                mov r2, %laneid
                setp.eq.s32 p0, r2, 0
            @!p0 bra WAIT
                st.global [r1], 1     ; never runs: spinners execute first
                bra DONE
            WAIT:
                ld.global.volatile r3, [r1]
                setp.eq.s32 p1, r3, 0
            @p1 bra WAIT !sib
            DONE:
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let flag = g.alloc(1);
        let (l, _) = launch(1, 32, vec![flag as u32]);
        let err = run_ref(&k, &l, g, 1 << 14).unwrap_err();
        assert!(matches!(err, RefError::Fuel { .. }), "{err}");
    }

    #[test]
    fn guarded_exit_falls_through_for_survivors() {
        let k = assemble(
            r#"
            .kernel guarded
            .regs 4
                ld.param r1, [0]
                mov r2, %tid
                setp.gt.s32 p0, r2, 15
            @p0 exit
                shl r3, r2, 2
                add r3, r3, r1
                st.global [r3], 7
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let buf = g.alloc(32);
        let (l, _) = launch(1, 32, vec![buf as u32]);
        let out = run_ref(&k, &l, g, 1 << 16).unwrap();
        for t in 0..32u64 {
            let expect = if t < 16 { 7 } else { 0 };
            assert_eq!(out.gmem.read_u32(buf + t * 4), expect);
        }
    }

    #[test]
    fn traced_run_detects_unsynchronized_race() {
        // Two warps increment the same word with plain accesses: the
        // happens-before checker must observe the race even though the
        // fair interleaving produces *some* final value.
        let k = assemble(
            r#"
            .kernel racy
            .regs 6
                ld.param r1, [0]
                ld.global r2, [r1]
                add r2, r2, 1
                st.global [r1], r2
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let ctr = g.alloc(1);
        let (l, _) = launch(1, 64, vec![ctr as u32]);
        let traced = run_ref_traced(&k, &l, g, 1 << 16);
        traced.outcome.unwrap();
        assert!(!traced.races.is_empty(), "race observed");
    }

    #[test]
    fn traced_run_clean_on_lock_protected_counter() {
        let k = assemble(
            r#"
            .kernel locked
            .regs 10
                ld.param r1, [0]
                ld.param r2, [4]
                mov r9, 0
            SPIN:
                atom.global.cas r3, [r1], 0, 1 !acquire
                setp.eq.s32 p1, r3, 0
            @!p1 bra TEST
                ld.global r4, [r2]
                add r4, r4, 1
                st.global [r2], r4
                membar
                atom.global.exch r5, [r1], 0 !release
                mov r9, 1
            TEST:
                setp.eq.s32 p2, r9, 0
            @p2 bra SPIN !sib
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let lock = g.alloc(1);
        let ctr = g.alloc(1);
        let (l, _) = launch(1, 128, vec![lock as u32, ctr as u32]);
        let traced = run_ref_traced(&k, &l, g, 1 << 22);
        let out = traced.outcome.unwrap();
        assert_eq!(out.gmem.read_u32(ctr), 128);
        assert!(traced.races.is_empty(), "{:?}", traced.races);
    }

    #[test]
    fn traced_run_barrier_separates_publish() {
        // tid 0 publishes before the barrier; every warp reads after.
        let k = assemble(
            r#"
            .kernel publish
            .regs 8
                ld.param r1, [0]
                mov r2, %tid
                setp.ne.s32 p0, r2, 0
            @!p0 st.global [r1], 42
                bar.sync
                ld.global r3, [r1]
                exit
            "#,
        )
        .unwrap();
        let mut g = GlobalMem::new();
        let flag = g.alloc(1);
        let (l, _) = launch(1, 128, vec![flag as u32]);
        let traced = run_ref_traced(&k, &l, g, 1 << 16);
        let out = traced.outcome.unwrap();
        assert_eq!(out.ctas[0].reg(100, 3), 42, "read the published value");
        assert!(traced.races.is_empty(), "{:?}", traced.races);
    }

    #[test]
    fn fuel_error_reports_stuck_warps() {
        let k = assemble(
            r#"
            .kernel forever
            .regs 2
            L:  bra L
                exit              ; unreachable, satisfies the assembler
            "#,
        )
        .unwrap();
        let g = GlobalMem::new();
        let (l, _) = launch(1, 64, vec![]);
        match run_ref(&k, &l, g, 100).unwrap_err() {
            RefError::Fuel { steps, stuck } => {
                assert_eq!(steps, 100);
                assert_eq!(stuck.len(), 2, "both warps unfinished");
            }
            other => panic!("expected fuel exhaustion, got {other}"),
        }
    }
}
