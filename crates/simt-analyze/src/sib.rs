//! The static spin-loop oracle.
//!
//! Classifies a backward branch as *spin-inducing* (paper terminology: SIB)
//! when its natural loop looks like busy-waiting rather than productive
//! iteration. The test mirrors the paper's Section II taxonomy of spin loops
//! (lock polling, flag wait-and-signal) and has four conditions:
//!
//! 1. **Natural back edge with an exit test** — the branch is conditional and
//!    its target dominates it (irreducible backward jumps are skipped).
//! 2. **Polling observer** — the *dependence closure* of the branch's guard
//!    predicate (data dependences through loop-resident definitions, plus
//!    control dependences through the guards of in-loop branches) contains a
//!    load or atomic whose address is loop-invariant. The loop's exit
//!    decision hinges on re-reading the same location: the signature of
//!    `while (!flag)` and CAS retry loops alike.
//! 3. **Store/atomic-light body** — every store/atomic in the loop either
//!    feeds the closure (the polling CAS itself) or executes conditionally
//!    (the critical section entered on lock success). A loop that writes
//!    memory on *every* iteration is doing productive work.
//! 4. **No value escapes** — no register/predicate defined by a non-memory
//!    instruction in the loop is live on a loop exit. Spin loops produce
//!    nothing but the observed value; counted loops leak their accumulator
//!    or induction variable. (Load/atomic results are exempt: a wait loop
//!    may legitimately consume the flag value it observed.)

use crate::cfgx::{BitSet, FlowGraph};
use crate::defs::{defs, uses, Liveness, Var, NUM_VARS};
use crate::loops::{natural_loops, NaturalLoop};
use simt_isa::{Inst, Op};

/// A backward branch statically classified as spin-inducing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticSib {
    /// Instruction index of the backward branch.
    pub branch_pc: usize,
    /// Instruction index of the loop header (the branch target).
    pub header_pc: usize,
    /// The polling loads/atomics (loop-invariant address, feeding the exit
    /// predicate) that justified the classification.
    pub observers: Vec<usize>,
}

/// Run the oracle over an instruction sequence.
///
/// Branch pcs are returned in program order. Invalid input (out-of-range
/// targets) yields no classification for the affected branch; the lints
/// report the defect itself.
pub fn static_sibs(insts: &[Inst]) -> Vec<StaticSib> {
    let g = FlowGraph::build(insts);
    let lv = Liveness::solve(&g, insts);
    let cd = g.control_deps();
    natural_loops(&g, insts)
        .iter()
        .filter_map(|l| classify(&g, insts, &lv, &cd, l))
        .collect()
}

fn classify(
    g: &FlowGraph,
    insts: &[Inst],
    lv: &Liveness,
    cd: &[Vec<usize>],
    l: &NaturalLoop,
) -> Option<StaticSib> {
    // C1: the back edge must carry an exit test.
    let (guard_pred, _) = insts[l.branch_pc].guard?;

    // C2: dependence closure of the guard predicate, within the loop.
    let mut closure_vars = BitSet::new(NUM_VARS);
    let mut closure_insts = BitSet::new(insts.len());
    let mut worklist = vec![Var::Pred(guard_pred)];
    closure_vars.insert(Var::Pred(guard_pred).index());
    let mut observers = Vec::new();
    while let Some(v) = worklist.pop() {
        for pc in l.insts(g) {
            if !defs(&insts[pc]).contains(&v) || !closure_insts.insert(pc) {
                continue;
            }
            let inst = &insts[pc];
            if matches!(inst.op, Op::Ld(..) | Op::Atom(_)) {
                let invariant = match inst.addr.and_then(|a| a.base) {
                    None => true,
                    Some(base) => !l
                        .insts(g)
                        .any(|dpc| defs(&insts[dpc]).contains(&Var::Reg(base))),
                };
                if invariant {
                    observers.push(pc);
                }
            }
            // Data dependences of the definition.
            for u in uses(inst) {
                if closure_vars.insert(u.index()) {
                    worklist.push(u);
                }
            }
            // Control dependences: the guards of in-loop branches the
            // defining block depends on.
            for &c in &cd[g.block_of(pc)] {
                if !l.blocks.contains(c) {
                    continue;
                }
                let term = &insts[g.blocks[c].end - 1];
                if let Some((p, _)) = term.guard {
                    let pv = Var::Pred(p);
                    if closure_vars.insert(pv.index()) {
                        worklist.push(pv);
                    }
                }
            }
        }
    }
    observers.sort_unstable();
    observers.dedup();
    if observers.is_empty() {
        return None;
    }

    // C3: every store/atomic is closure-feeding or conditionally executed.
    for pc in l.insts(g) {
        if !matches!(insts[pc].op, Op::St(..) | Op::Atom(_)) {
            continue;
        }
        let in_closure = closure_insts.contains(pc);
        let conditional = insts[pc].guard.is_some() || !g.dominates(g.block_of(pc), l.latch);
        if !in_closure && !conditional {
            return None;
        }
    }

    // C4: no non-memory definition escapes the loop.
    let mut alu_defs = BitSet::new(NUM_VARS);
    for pc in l.insts(g) {
        if matches!(insts[pc].op, Op::Ld(..) | Op::Atom(_)) {
            continue;
        }
        for v in defs(&insts[pc]) {
            alu_defs.insert(v.index());
        }
    }
    for &(_, to) in &l.exits {
        for v in lv.live_in[to].iter() {
            if alu_defs.contains(v) {
                return None;
            }
        }
    }

    Some(StaticSib {
        branch_pc: l.branch_pc,
        header_pc: insts[l.branch_pc].target.unwrap_or(0),
        observers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::asm::assemble;

    fn sibs_of(src: &str) -> Vec<StaticSib> {
        static_sibs(&assemble(src).expect("test kernel assembles").insts)
    }

    #[test]
    fn flag_wait_loop_is_spin() {
        let s = sibs_of(
            r#"
            .kernel wait
            .regs 4
                ld.param r1, [0]
            W:  ld.global.volatile r2, [r1]
                setp.eq.s32 p0, r2, 0
            @p0 bra W
                exit
            "#,
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].branch_pc, 3);
        assert_eq!(s[0].observers, vec![1], "the volatile poll load");
    }

    #[test]
    fn counted_loop_is_not_spin() {
        // Induction-variable exit test: no observer in the closure.
        let s = sibs_of(
            r#"
            .kernel count
            .regs 4
                mov r1, 0
            L:  add r1, r1, 1
                setp.lt.s32 p0, r1, 64
            @p0 bra L
                exit
            "#,
        );
        assert!(s.is_empty());
    }

    #[test]
    fn memory_bound_counted_loop_is_not_spin() {
        // The trip count is loaded up front, but the exit test still tracks
        // the induction variable; the accumulator also escapes the loop.
        let s = sibs_of(
            r#"
            .kernel sum
            .regs 8
                ld.param r1, [0]
                ld.param r2, [4]
                mov r3, 0
                mov r4, 0
            L:  ld.global r5, [r1]
                add r4, r4, r5
                add r1, r1, 4
                add r3, r3, 1
                setp.lt.s32 p0, r3, r2
            @p0 bra L
                st.global [r1], r4
                exit
            "#,
        );
        assert!(s.is_empty());
    }

    #[test]
    fn cas_retry_lock_is_spin() {
        let s = sibs_of(
            r#"
            .kernel lock
            .regs 6
                ld.param r1, [0]
            L:  atom.global.cas r2, [r1], 0, 1
                setp.ne.s32 p0, r2, 0
            @p0 bra L
                exit
            "#,
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].observers, vec![1]);
    }

    #[test]
    fn spin_with_conditional_critical_section_is_spin() {
        // The paper's Figure-1a shape: lock poll + guarded critical section
        // inside one loop. The stores are conditional, the exit predicate
        // traces through the acquired-flag to the CAS.
        let s = sibs_of(
            r#"
            .kernel spinlock
            .regs 10
                ld.param r1, [0]
                ld.param r2, [4]
                mov r9, 0
            SPIN:
                atom.global.cas r3, [r1], 0, 1
                setp.eq.s32 p1, r3, 0
            @!p1 bra TEST
                ld.global.volatile r4, [r2]
                add r4, r4, 1
                st.global [r2], r4
                membar
                atom.global.exch r5, [r1], 0
                mov r9, 1
            TEST:
                setp.eq.s32 p2, r9, 0
            @p2 bra SPIN
                exit
            "#,
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].observers, vec![3], "the acquire CAS");
    }

    #[test]
    fn unconditional_store_every_iteration_is_not_spin() {
        // A producer writing memory on every iteration is productive even
        // though it also polls a flag.
        let s = sibs_of(
            r#"
            .kernel producer
            .regs 6
                ld.param r1, [0]
                ld.param r2, [4]
            L:  ld.global.volatile r3, [r1]
                st.global [r2], r3
                setp.eq.s32 p0, r3, 0
            @p0 bra L
                exit
            "#,
        );
        assert!(s.is_empty());
    }

    #[test]
    fn escaping_value_blocks_classification_unless_loaded() {
        // The consumed value comes straight from the poll load: still spin
        // (ST's consumer loop shape).
        let s = sibs_of(
            r#"
            .kernel consume
            .regs 6
                ld.param r1, [0]
                ld.param r2, [4]
            W:  ld.global.volatile r3, [r1]
                setp.lt.s32 p0, r3, 0
            @p0 bra W
                add r4, r3, 1
                st.global [r2], r4
                exit
            "#,
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clock_delay_loop_is_not_spin() {
        // Software back-off: exit test follows %clock, no memory observer.
        let s = sibs_of(
            r#"
            .kernel delay
            .regs 6
                clock r1
            D:  clock r2
                sub r3, r2, r1
                setp.lt.u32 p0, r3, 100
            @p0 bra D
                exit
            "#,
        );
        assert!(s.is_empty());
    }
}
