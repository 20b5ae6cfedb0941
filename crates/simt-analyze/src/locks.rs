//! Lock identification and may-held lockset analysis.
//!
//! The corpus (and `kernels/spinlock.s`) implements locks with one idiom:
//! acquire by `atom.*.cas rD, [L], 0, 1` spun until `rD == 0`, release by
//! `atom.*.exch rX, [L], 0` (or a plain store of 0). This module recognizes
//! those shapes by value-tracing through reaching definitions, gives every
//! lock word an abstract identity, and runs a forward *may-held* dataflow
//! so every instruction can be asked which locks a warp might hold there.
//!
//! The acquire transfer is **edge-sensitive**: the CAS itself does not gen
//! its lock — the *success edge* of the guard that tests `rD` against 0
//! does. On the spin-fail path the lock is therefore never considered held,
//! which is what keeps the held-at-exit check (missing-release) quiet on
//! every correct retry loop in the corpus.

use crate::cfgx::{BitSet, FlowGraph};
use crate::defs::{defs, ReachingDefs, Var};
use simt_isa::{AtomOp, CmpOp, Inst, Op, Operand, Reg, Space};
use std::fmt;

/// Abstract identity of a memory word.
///
/// `Param`/`Abs` identities are functions of the launch parameters and
/// immediates alone, so two warps computing them refer to the *same* word —
/// these are the only identities the race pass compares across warps.
/// `Sym` roots the address at its single reaching definition: meaningful
/// for matching a release to its acquire inside one kernel (the corpus
/// computes both from the same register chain), but never provably the
/// same word in two different warps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// `param[slot] + offset` (byte offsets).
    Param { slot: i32, offset: i32 },
    /// Absolute address.
    Abs(i64),
    /// Rooted at the unresolvable single definition at `def_pc`.
    Sym { def_pc: usize, offset: i32 },
}

impl Location {
    /// True when two warps evaluating the defining expression are
    /// guaranteed to name the same memory word.
    pub fn comparable(&self) -> bool {
        !matches!(self, Location::Sym { .. })
    }

    fn shift(self, delta: i32) -> Location {
        match self {
            Location::Param { slot, offset } => Location::Param {
                slot,
                offset: offset + delta,
            },
            Location::Abs(a) => Location::Abs(a + delta as i64),
            Location::Sym { def_pc, offset } => Location::Sym {
                def_pc,
                offset: offset + delta,
            },
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Param { slot, offset } if *offset == 0 => write!(f, "param[{slot}]"),
            Location::Param { slot, offset } => write!(f, "param[{slot}]+{offset}"),
            Location::Abs(a) => write!(f, "0x{a:x}"),
            Location::Sym { def_pc, offset } if *offset == 0 => write!(f, "addr@pc{def_pc}"),
            Location::Sym { def_pc, offset } => write!(f, "addr@pc{def_pc}+{offset}"),
        }
    }
}

/// A recognized lock-acquire site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquire {
    /// The CAS instruction.
    pub pc: usize,
    /// Identity of the lock word.
    pub lock: Location,
    /// CFG edge `(block, successor)` on which the acquire succeeds; `None`
    /// when no `rD == 0` guard shape was found, in which case the lock gens
    /// at the instruction itself (a conservative over-approximation).
    pub success_edge: Option<(usize, usize)>,
}

/// A recognized lock-release site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Release {
    pub pc: usize,
    pub lock: Location,
}

/// Resolve register `reg`, as read at `pc`, to an abstract address.
///
/// Follows single-reaching-definition chains through `mov`, `add`/`sub`
/// with a constant side, and `ld.param`. Anything else (multiple defs,
/// thread-varying math) roots a [`Location::Sym`] at the definition.
pub fn resolve_reg(
    g: &FlowGraph,
    insts: &[Inst],
    rd: &ReachingDefs,
    pc: usize,
    reg: Reg,
    depth: usize,
) -> Option<Location> {
    if depth == 0 {
        return None;
    }
    let (real, uninit) = rd.reaching(g, insts, pc, Var::Reg(reg));
    if uninit || real.len() != 1 {
        return None;
    }
    let d = real[0];
    let inst = &insts[d];
    // A guarded definition is a merge with the fall-through value; only an
    // unconditional def pins the address.
    if inst.guard.is_some() {
        return Some(Location::Sym {
            def_pc: d,
            offset: 0,
        });
    }
    let sym = Location::Sym {
        def_pc: d,
        offset: 0,
    };
    let resolved = match inst.op {
        Op::Ld(Space::Param, _) => match inst.addr {
            Some(a) if a.base.is_none() => Some(Location::Param {
                slot: a.offset,
                offset: 0,
            }),
            _ => None,
        },
        Op::Mov => match inst.srcs.first() {
            Some(&Operand::Imm(v)) => Some(Location::Abs(v as i64)),
            Some(&Operand::Reg(r)) => resolve_reg(g, insts, rd, d, r, depth - 1),
            _ => None,
        },
        Op::Add(_) | Op::Sub(_) => {
            let (x, y) = (inst.srcs.first().copied(), inst.srcs.get(1).copied());
            let sign = if matches!(inst.op, Op::Sub(_)) {
                -1i64
            } else {
                1
            };
            match (x, y) {
                (Some(Operand::Reg(r)), Some(c)) => const_operand(g, insts, rd, d, c, depth - 1)
                    .and_then(|c| {
                        resolve_reg(g, insts, rd, d, r, depth - 1)
                            .map(|base| base.shift((sign * c) as i32))
                    }),
                (Some(c), Some(Operand::Reg(r))) if sign == 1 => {
                    const_operand(g, insts, rd, d, c, depth - 1).and_then(|c| {
                        resolve_reg(g, insts, rd, d, r, depth - 1).map(|base| base.shift(c as i32))
                    })
                }
                _ => None,
            }
        }
        _ => None,
    };
    Some(resolved.unwrap_or(sym))
}

/// Evaluate an operand to a compile-time constant, if it is one.
fn const_operand(
    g: &FlowGraph,
    insts: &[Inst],
    rd: &ReachingDefs,
    pc: usize,
    op: Operand,
    depth: usize,
) -> Option<i64> {
    match op {
        Operand::Imm(v) => Some(v as i32 as i64),
        Operand::Reg(r) => {
            if depth == 0 {
                return None;
            }
            let (real, uninit) = rd.reaching(g, insts, pc, Var::Reg(r));
            if uninit || real.len() != 1 {
                return None;
            }
            let d = real[0];
            let inst = &insts[d];
            if inst.guard.is_some() {
                return None;
            }
            match inst.op {
                Op::Mov => const_operand(g, insts, rd, d, *inst.srcs.first()?, depth - 1),
                Op::Add(_) => Some(
                    const_operand(g, insts, rd, d, *inst.srcs.first()?, depth - 1)?
                        + const_operand(g, insts, rd, d, *inst.srcs.get(1)?, depth - 1)?,
                )
                .filter(|v| v.abs() < i32::MAX as i64),
                Op::Shl => Some(
                    const_operand(g, insts, rd, d, *inst.srcs.first()?, depth - 1)?
                        << const_operand(g, insts, rd, d, *inst.srcs.get(1)?, depth - 1)?
                            .clamp(0, 31),
                ),
                _ => None,
            }
        }
        Operand::Special(_) => None,
    }
}

/// Identity of the memory operand of the access at `pc`, if resolvable.
pub fn access_location(
    g: &FlowGraph,
    insts: &[Inst],
    rd: &ReachingDefs,
    pc: usize,
) -> Option<Location> {
    let a = insts[pc].addr?;
    match a.base {
        None => Some(Location::Abs(a.offset as i64)),
        Some(base) => Some(resolve_reg(g, insts, rd, pc, base, 16)?.shift(a.offset)),
    }
}

const RESOLVE_DEPTH: usize = 16;

/// The lockset analysis result for one kernel.
pub struct LockAnalysis {
    /// Distinct lock identities, sorted (the bit index space of locksets).
    pub locks: Vec<Location>,
    pub acquires: Vec<Acquire>,
    pub releases: Vec<Release>,
    /// May-held lockset at each block entry.
    block_in: Vec<BitSet>,
}

impl LockAnalysis {
    /// Identify locks and solve the may-held dataflow.
    pub fn solve(g: &FlowGraph, insts: &[Inst], rd: &ReachingDefs) -> LockAnalysis {
        let mut acquires = Vec::new();
        for (pc, inst) in insts.iter().enumerate() {
            if !is_acquire_shape(inst) {
                continue;
            }
            let Some(lock) = lock_location(g, insts, rd, pc) else {
                continue;
            };
            acquires.push(Acquire {
                pc,
                lock,
                success_edge: success_edge(g, insts, pc),
            });
        }

        let mut locks: Vec<Location> = acquires.iter().map(|a| a.lock).collect();
        locks.sort();
        locks.dedup();

        let mut releases = Vec::new();
        for (pc, inst) in insts.iter().enumerate() {
            let annotated = inst.ann.release;
            let exch_zero = matches!(inst.op, Op::Atom(AtomOp::Exch))
                && inst.srcs.first() == Some(&Operand::Imm(0));
            let store_zero =
                matches!(inst.op, Op::St(..)) && inst.srcs.first() == Some(&Operand::Imm(0));
            if !(annotated || exch_zero || store_zero) {
                continue;
            }
            let Some(lock) = lock_location(g, insts, rd, pc) else {
                continue;
            };
            // A plain store of zero only counts as a release of a word some
            // acquire names as a lock; exchanges and annotated sites always
            // count (they are unambiguous release idioms).
            if store_zero && !annotated && !locks.contains(&lock) {
                continue;
            }
            releases.push(Release { pc, lock });
        }

        let idx = |l: &Location| locks.binary_search(l).ok();
        let nb = g.blocks.len();
        let nl = locks.len();

        // Per-edge gens from edge-sensitive acquires.
        let mut edge_gens: Vec<(usize, usize, usize)> = Vec::new();
        for a in &acquires {
            if let (Some((b, s)), Some(i)) = (a.success_edge, idx(&a.lock)) {
                edge_gens.push((b, s, i));
            }
        }

        // Forward may-union fixpoint.
        let mut block_in: Vec<BitSet> = (0..nb).map(|_| BitSet::new(nl.max(1))).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                if !g.reachable.contains(b) {
                    continue;
                }
                let mut out = block_in[b].clone();
                transfer_range(
                    g.blocks[b].start..g.blocks[b].end,
                    &acquires,
                    &releases,
                    &locks,
                    &mut out,
                );
                for &s in &g.blocks[b].succs {
                    let mut contrib = out.clone();
                    for &(eb, es, l) in &edge_gens {
                        if eb == b && es == s {
                            contrib.insert(l);
                        }
                    }
                    changed |= block_in[s].union_with(&contrib);
                }
            }
        }

        LockAnalysis {
            locks,
            acquires,
            releases,
            block_in,
        }
    }

    /// May-held lockset just before executing `pc` (bit indices into
    /// [`LockAnalysis::locks`]).
    pub fn held_at(&self, g: &FlowGraph, pc: usize) -> BitSet {
        let b = g.block_of(pc);
        let mut held = self.block_in[b].clone();
        transfer_range(
            g.blocks[b].start..pc,
            &self.acquires,
            &self.releases,
            &self.locks,
            &mut held,
        );
        held
    }

    /// Render a lockset bitset as sorted lock names.
    pub fn names(&self, set: &BitSet) -> Vec<String> {
        set.iter().map(|i| self.locks[i].to_string()).collect()
    }
}

fn transfer_range(
    range: std::ops::Range<usize>,
    acquires: &[Acquire],
    releases: &[Release],
    locks: &[Location],
    held: &mut BitSet,
) {
    for pc in range {
        if let Some(a) = acquires.iter().find(|a| a.pc == pc) {
            if a.success_edge.is_none() {
                if let Ok(i) = locks.binary_search(&a.lock) {
                    held.insert(i);
                }
            }
        }
        if let Some(r) = releases.iter().find(|r| r.pc == pc) {
            if let Ok(i) = locks.binary_search(&r.lock) {
                held.remove(i);
            }
        }
    }
}

/// `atom.*.cas rD, [L], 0, new` — the corpus's only acquire idiom — or any
/// CAS explicitly annotated `!acquire`.
fn is_acquire_shape(inst: &Inst) -> bool {
    if !matches!(inst.op, Op::Atom(AtomOp::Cas)) {
        return false;
    }
    inst.ann.acquire || inst.srcs.first() == Some(&Operand::Imm(0))
}

/// Identity of the lock word at an acquire/release site. `Sym` identities
/// are allowed — within one kernel the acquire and release compute the
/// address from the same definition chain, so they still match.
fn lock_location(g: &FlowGraph, insts: &[Inst], rd: &ReachingDefs, pc: usize) -> Option<Location> {
    let a = insts[pc].addr?;
    match a.base {
        None => Some(Location::Abs(a.offset as i64)),
        Some(base) => Some(resolve_reg(g, insts, rd, pc, base, RESOLVE_DEPTH)?.shift(a.offset)),
    }
}

/// Find the CFG edge on which the CAS at `pc` is known to have returned 0.
///
/// Pattern: later in the same block, `setp.eq/ne pX, rD, 0` with `rD` (the
/// CAS destination) not redefined in between, and the block terminator a
/// branch guarded on `pX` (`pX` also not redefined). The successor on the
/// `rD == 0` side is the success edge.
fn success_edge(g: &FlowGraph, insts: &[Inst], pc: usize) -> Option<(usize, usize)> {
    let dst = insts[pc].dst?;
    let b = g.block_of(pc);
    let end = g.blocks[b].end;
    // Locate the comparison against zero.
    let mut setp = None;
    for (p, i) in insts.iter().enumerate().take(end).skip(pc + 1) {
        if setp.is_none() {
            if let Op::Setp(cmp @ (CmpOp::Eq | CmpOp::Ne), _) = i.op {
                if i.srcs.first() == Some(&Operand::Reg(dst))
                    && i.srcs.get(1) == Some(&Operand::Imm(0))
                {
                    setp = Some((p, cmp, i.pdst?));
                    continue;
                }
            }
            if defs(i).contains(&Var::Reg(dst)) {
                return None; // rD clobbered before any test
            }
        }
    }
    let (setp_pc, cmp, pred) = setp?;
    // The terminator must be a branch guarded on that predicate, with the
    // predicate intact in between.
    let term = &insts[end - 1];
    if !term.op.is_branch() {
        return None;
    }
    let (gp, want) = term.guard?;
    if gp != pred {
        return None;
    }
    for i in &insts[setp_pc + 1..end - 1] {
        if defs(i).contains(&Var::Pred(pred)) {
            return None;
        }
    }
    // `success` is the CFG edge taken when rD == 0.
    let success_pred_value = cmp == CmpOp::Eq; // p <=> (rD == 0) for eq
    let target_block = term
        .target
        .filter(|&t| t < insts.len())
        .map(|t| g.block_of(t))?;
    let fall_block = if end < insts.len() {
        Some(g.block_of(end))
    } else {
        None
    };
    let succ = if success_pred_value == want {
        Some(target_block)
    } else {
        fall_block
    }?;
    // The patched CFG must actually have the edge (it always does for
    // valid kernels; invalid ones fall back to inst-level gen).
    if g.blocks[b].succs.contains(&succ) {
        Some((b, succ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::asm::assemble;

    fn setup(src: &str) -> (Vec<Inst>, FlowGraph) {
        let insts = assemble(src).expect("test kernel assembles").insts;
        let g = FlowGraph::build(&insts);
        (insts, g)
    }

    const SPINLOCK: &str = r#"
        .kernel spinlock
        .regs 10
            ld.param r1, [0]
            ld.param r2, [4]
            mov r9, 0
        SPIN:
            atom.global.cas r3, [r1], 0, 1 !acquire
            setp.eq.s32 p1, r3, 0
        @!p1 bra TEST
            ld.global.volatile r4, [r2]
            add r4, r4, 1
            st.global [r2], r4
            membar
            atom.global.exch r5, [r1], 0 !release
            mov r9, 1
        TEST:
            setp.eq.s32 p2, r9, 0
        @p2 bra SPIN !sib
            exit
    "#;

    #[test]
    fn spinlock_acquire_release_identified() {
        let (insts, g) = setup(SPINLOCK);
        let rd = ReachingDefs::solve(&g, &insts);
        let la = LockAnalysis::solve(&g, &insts, &rd);
        assert_eq!(la.locks, vec![Location::Param { slot: 0, offset: 0 }]);
        assert_eq!(la.acquires.len(), 1);
        assert!(la.acquires[0].success_edge.is_some(), "guard shape found");
        assert_eq!(la.releases.len(), 1);
    }

    #[test]
    fn critical_section_holds_lock_and_fail_path_does_not() {
        let (insts, g) = setup(SPINLOCK);
        let rd = ReachingDefs::solve(&g, &insts);
        let la = LockAnalysis::solve(&g, &insts, &rd);
        let store = insts
            .iter()
            .position(|i| matches!(i.op, Op::St(..)))
            .unwrap();
        assert!(
            !la.held_at(&g, store).is_empty(),
            "critical-section store is protected"
        );
        // The exit test (reached from both the fail edge and the released
        // path) holds nothing, and neither does exit.
        let exit = insts.iter().position(|i| i.op == Op::Exit).unwrap();
        assert!(la.held_at(&g, exit).is_empty(), "released at exit");
    }

    #[test]
    fn dropped_release_is_held_at_exit() {
        let (insts, g) = setup(
            r#"
            .kernel leak
            .regs 10
                ld.param r1, [0]
            SPIN:
                atom.global.cas r3, [r1], 0, 1 !acquire
                setp.ne.s32 p1, r3, 0
            @p1 bra SPIN
                exit
            "#,
        );
        let rd = ReachingDefs::solve(&g, &insts);
        let la = LockAnalysis::solve(&g, &insts, &rd);
        let exit = insts.iter().position(|i| i.op == Op::Exit).unwrap();
        assert!(
            !la.held_at(&g, exit).is_empty(),
            "lock leaks through to exit"
        );
    }

    #[test]
    fn distinct_param_locks_are_distinct() {
        let (insts, g) = setup(
            r#"
            .kernel two
            .regs 10
                ld.param r1, [0]
                ld.param r2, [4]
                atom.global.cas r3, [r1], 0, 1 !acquire
                atom.global.cas r4, [r2], 0, 1 !acquire
                atom.global.exch r5, [r2], 0 !release
                atom.global.exch r6, [r1], 0 !release
                exit
            "#,
        );
        let rd = ReachingDefs::solve(&g, &insts);
        let la = LockAnalysis::solve(&g, &insts, &rd);
        assert_eq!(la.locks.len(), 2);
    }

    #[test]
    fn divergent_lock_addresses_are_symbolic() {
        let (insts, g) = setup(
            r#"
            .kernel perthread
            .regs 10
                ld.param r1, [0]
                mov r2, %gtid
                shl r2, r2, 2
                add r3, r1, r2
                atom.global.cas r4, [r3], 0, 1 !acquire
                atom.global.exch r5, [r3], 0 !release
                exit
            "#,
        );
        let rd = ReachingDefs::solve(&g, &insts);
        let la = LockAnalysis::solve(&g, &insts, &rd);
        assert_eq!(la.locks.len(), 1);
        assert!(
            !la.locks[0].comparable(),
            "gtid-derived address is symbolic"
        );
        // Acquire and release still pair up: nothing held at exit.
        let exit = insts.iter().position(|i| i.op == Op::Exit).unwrap();
        assert!(la.held_at(&g, exit).is_empty());
    }
}
