//! Correctness lints over raw (possibly invalid) instruction sequences.
//!
//! Each finding is a structured [`Diagnostic`] carrying a severity, the
//! offending instruction index, its basic block, and the variable involved
//! (when one is). Error-severity findings indicate kernels that are wrong or
//! will hang; warnings flag suspicious-but-runnable code, including
//! disagreements between the `!sib` ground-truth annotations and the static
//! spin oracle.

use crate::cfgx::FlowGraph;
use crate::defs::{uses, ReachingDefs, Var};
use crate::loops::natural_loops;
use crate::sib::static_sibs;
use crate::uniform::Uniformity;
use simt_isa::{Inst, Op};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious; the kernel still runs.
    Warning,
    /// The kernel is wrong: it reads garbage, cannot terminate, or deadlocks.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The lint that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A register/predicate is read but no definition reaches the read.
    UndefinedRead,
    /// A block can never execute.
    UnreachableBlock,
    /// A loop with no exit path and no memory side effects: a guaranteed
    /// hang that not even another thread can release.
    InfiniteLoop,
    /// `bar.sync` under divergent control flow: lanes of one warp can
    /// disagree on whether they reach the barrier (reconvergence-stack
    /// deadlock).
    DivergentBarrier,
    /// A branch target outside the kernel.
    BadTarget,
    /// The static spin oracle disagrees with the `!sib` annotation.
    SibMismatch,
    /// Two accesses to the same shared/global word can execute concurrently
    /// in different warps with no common lock and no separating barrier.
    RaceUnlocked,
    /// Like [`LintKind::RaceUnlocked`], but the accesses sit in different
    /// barrier intervals — a barrier exists between them on *some* path yet
    /// fails the dominance criterion, so the phases can still overlap.
    RaceCrossPhase,
    /// The only barrier between the racing accesses is under divergent
    /// control, so it does not reliably separate them.
    RaceDivergentBarrier,
    /// A lock may still be held when the kernel exits.
    MissingRelease,
    /// The lock-order graph has a cycle (ABBA deadlock), or a lock may be
    /// re-acquired while already held (self-deadlock for a spin lock).
    LockCycle,
    /// A divergent acquire spin loop whose release lies outside the loop:
    /// on a reconvergence-stack machine the winning lane parks at the
    /// reconvergence point while the losers spin — SIMT-induced deadlock.
    SimtDeadlock,
}

impl LintKind {
    /// Stable lint name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::UndefinedRead => "undefined-read",
            LintKind::UnreachableBlock => "unreachable-block",
            LintKind::InfiniteLoop => "infinite-loop",
            LintKind::DivergentBarrier => "divergent-barrier",
            LintKind::BadTarget => "bad-target",
            LintKind::SibMismatch => "sib-mismatch",
            LintKind::RaceUnlocked => "data-race",
            LintKind::RaceCrossPhase => "cross-phase-race",
            LintKind::RaceDivergentBarrier => "divergent-barrier-race",
            LintKind::MissingRelease => "missing-release",
            LintKind::LockCycle => "lock-cycle",
            LintKind::SimtDeadlock => "simt-deadlock",
        }
    }
}

/// Machine-readable evidence attached to synchronization diagnostics, for
/// tooling (the JSON lint format, the service's 422 bodies, `race_oracle`'s
/// static×dynamic join).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// A racing access pair: the pcs, the word, and each side's may-held
    /// lockset and barrier-interval index.
    Race {
        a_pc: usize,
        b_pc: usize,
        location: String,
        lockset_a: Vec<String>,
        lockset_b: Vec<String>,
        phase_a: usize,
        phase_b: usize,
    },
    /// A lock held on a path from `acquire_pc` to `exit_pc`; `path` lists
    /// the entry pc of each block on one such path.
    HeldAtExit {
        lock: String,
        acquire_pc: usize,
        exit_pc: usize,
        path: Vec<usize>,
    },
    /// A cycle in the lock-order graph as `(lock, acquire_pc)` steps; a
    /// single entry is a self-cycle (re-acquire while held).
    LockCycle { cycle: Vec<(String, usize)> },
    /// An acquire spin loop that cannot release from inside itself.
    SpinHold {
        loop_branch_pc: usize,
        acquire_pc: usize,
        release_pc: Option<usize>,
    },
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub kind: LintKind,
    /// Offending instruction index.
    pub pc: usize,
    /// Basic block id containing `pc`.
    pub block: usize,
    /// The variable involved, when the finding is about one.
    pub var: Option<Var>,
    /// Human-readable explanation.
    pub message: String,
    /// Machine-readable evidence (synchronization lints only).
    pub witness: Option<Witness>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: pc {} (block {}): {}",
            self.severity,
            self.kind.name(),
            self.pc,
            self.block,
            self.message
        )
    }
}

/// Run every lint over an instruction sequence.
///
/// Tolerates invalid input (that is the point: the assembler refuses such
/// kernels, so the linter is the tool that can still explain them).
/// Diagnostics are ordered by severity (errors first), then pc.
pub fn lint(insts: &[Inst]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if insts.is_empty() {
        return out;
    }
    let g = FlowGraph::build(insts);

    // Bad branch targets.
    for (pc, inst) in insts.iter().enumerate() {
        if let Some(t) = inst.target {
            if t >= insts.len() {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    kind: LintKind::BadTarget,
                    pc,
                    block: g.block_of(pc),
                    var: None,
                    message: format!(
                        "branch target {t} is outside the kernel ({} instructions); \
                         the simulator CFG would silently treat it as fall-through",
                        insts.len()
                    ),
                    witness: None,
                });
            }
        }
    }

    // Unreachable blocks.
    for (b, blk) in g.blocks.iter().enumerate() {
        if !g.reachable.contains(b) {
            out.push(Diagnostic {
                severity: Severity::Error,
                kind: LintKind::UnreachableBlock,
                pc: blk.start,
                block: b,
                var: None,
                message: format!(
                    "block at pc {}..{} is unreachable from the kernel entry",
                    blk.start, blk.end
                ),
                witness: None,
            });
        }
    }

    // Undefined reads (reachable code only; unreachable blocks are already
    // reported and have vacuous dataflow).
    let rd = ReachingDefs::solve(&g, insts);
    for (pc, inst) in insts.iter().enumerate() {
        if !g.reachable.contains(g.block_of(pc)) {
            continue;
        }
        for v in uses(inst) {
            let (real, _uninit) = rd.reaching(&g, insts, pc, v);
            if real.is_empty() {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    kind: LintKind::UndefinedRead,
                    pc,
                    block: g.block_of(pc),
                    var: Some(v),
                    message: format!("{v} is read but never written on any path to here"),
                    witness: None,
                });
            }
        }
    }

    // Guaranteed infinite loops with no memory side effects. An `exit`
    // instruction inside the loop body is an escape hatch even when the CFG
    // has no exit edge.
    for l in natural_loops(&g, insts) {
        let has_escape = !l.exits.is_empty() || l.insts(&g).any(|pc| insts[pc].op == Op::Exit);
        let has_side_effect = l
            .insts(&g)
            .any(|pc| matches!(insts[pc].op, Op::St(..) | Op::Atom(_)));
        if !has_escape && !has_side_effect {
            out.push(Diagnostic {
                severity: Severity::Error,
                kind: LintKind::InfiniteLoop,
                pc: l.branch_pc,
                block: l.latch,
                var: None,
                message: format!(
                    "loop at pc {} has no exit path and no memory side effects: \
                     every thread entering it hangs",
                    insts[l.branch_pc].target.unwrap_or(0)
                ),
                witness: None,
            });
        }
    }

    // Barriers under divergent control flow.
    let u = Uniformity::solve(&g, insts);
    let cd = g.control_deps();
    for (pc, inst) in insts.iter().enumerate() {
        if inst.op != Op::Bar || !g.reachable.contains(g.block_of(pc)) {
            continue;
        }
        let b = g.block_of(pc);
        let divergent_guard = inst
            .guard
            .is_some_and(|(p, _)| u.is_divergent(Var::Pred(p)));
        let mut ctrl = cd[b]
            .iter()
            .copied()
            .find(|&c| u.divergent_branches.contains(c));
        if ctrl.is_none() && divergent_guard {
            ctrl = Some(b);
        }
        if let Some(c) = ctrl {
            out.push(Diagnostic {
                severity: Severity::Error,
                kind: LintKind::DivergentBarrier,
                pc,
                block: b,
                var: None,
                message: format!(
                    "bar.sync is control-dependent on the divergent branch at pc {}: \
                     lanes of one warp can disagree on reaching the barrier",
                    g.blocks[c].end - 1
                ),
                witness: None,
            });
        }
    }

    // Static oracle vs `!sib` annotations (advisory).
    let static_set: Vec<usize> = static_sibs(insts).iter().map(|s| s.branch_pc).collect();
    for (pc, inst) in insts.iter().enumerate() {
        let annotated = inst.ann.sib;
        let classified = static_set.contains(&pc);
        if annotated != classified && (annotated || inst.is_backward_branch(pc)) {
            out.push(Diagnostic {
                severity: Severity::Warning,
                kind: LintKind::SibMismatch,
                pc,
                block: g.block_of(pc),
                var: None,
                message: if annotated {
                    "annotated !sib but the static oracle does not classify it as a \
                     spin loop"
                        .to_string()
                } else {
                    "the static oracle classifies this backward branch as spin-inducing \
                     but it is not annotated !sib"
                        .to_string()
                },
                witness: None,
            });
        }
    }

    // Synchronization lints: lockset/barrier-phase races, lock-order
    // cycles, missing releases, SIMT-induced deadlock.
    let la = crate::locks::LockAnalysis::solve(&g, insts, &rd);
    let bp = crate::barrier::BarrierPhases::solve(&g, insts, &u);
    out.extend(crate::race::race_lints(&g, insts, &rd, &u, &la, &bp));
    out.extend(crate::lockgraph::lock_order_lints(&g, insts, &u, &la));

    // Stable emission order: errors first, then pc, then lint name so the
    // JSON output is byte-deterministic and cacheable.
    out.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.pc.cmp(&b.pc))
            .then(a.kind.name().cmp(b.kind.name()))
    });
    out
}

/// True when any diagnostic is error-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::asm::assemble;

    fn diags_of(src: &str) -> Vec<Diagnostic> {
        lint(&assemble(src).expect("test kernel assembles").insts)
    }

    fn kinds(d: &[Diagnostic]) -> Vec<LintKind> {
        d.iter().map(|x| x.kind).collect()
    }

    #[test]
    fn clean_kernel_is_clean() {
        let d = diags_of(
            r#"
            .kernel clean
            .regs 4
                ld.param r1, [0]
                mov r2, %tid
                shl r2, r2, 2
                add r1, r1, r2
                st.global [r1], r2
                exit
            "#,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn undefined_read_flagged() {
        let d = diags_of(
            r#"
            .kernel bad
            .regs 8
                add r1, r2, 1
                exit
            "#,
        );
        assert!(kinds(&d).contains(&LintKind::UndefinedRead), "{d:?}");
        let f = d
            .iter()
            .find(|x| x.kind == LintKind::UndefinedRead)
            .unwrap();
        assert_eq!(f.severity, Severity::Error);
        assert_eq!(f.pc, 0);
        assert_eq!(f.var, Some(Var::Reg(simt_isa::Reg(2))));
    }

    #[test]
    fn undefined_guard_predicate_flagged() {
        let d = diags_of(
            r#"
            .kernel badp
            .regs 4
                mov r1, 0
            @p3 bra DONE
            DONE:
                exit
            "#,
        );
        let f = d
            .iter()
            .find(|x| x.kind == LintKind::UndefinedRead)
            .unwrap();
        assert_eq!(f.var, Some(Var::Pred(simt_isa::Pred(3))));
    }

    #[test]
    fn conditional_def_is_not_undefined() {
        // r2 defined on one arm only, read after the join: a *may*-uninit,
        // not flagged by the must-analysis.
        let d = diags_of(
            r#"
            .kernel cond
            .regs 4
                mov r1, %ctaid
                setp.eq.s32 p0, r1, 0
            @p0 bra SKIP
                mov r2, 5
            SKIP:
                mov r2, 6
                st.global [r1], r2
                exit
            "#,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unreachable_block_flagged() {
        let d = diags_of(
            r#"
            .kernel dead
            .regs 4
                mov r1, 0
                exit
                mov r2, 1
                exit
            "#,
        );
        let f = d
            .iter()
            .find(|x| x.kind == LintKind::UnreachableBlock)
            .unwrap();
        assert_eq!(f.severity, Severity::Error);
        assert_eq!(f.pc, 2);
    }

    #[test]
    fn guarded_exit_fallthrough_is_reachable() {
        let d = diags_of(
            r#"
            .kernel early
            .regs 4
                mov r1, %ctaid
                setp.ge.s32 p0, r1, 4
            @p0 exit
                st.global [r1], r1
                exit
            "#,
        );
        assert!(
            !kinds(&d).contains(&LintKind::UnreachableBlock),
            "guarded exit falls through: {d:?}"
        );
    }

    #[test]
    fn infinite_sideeffect_free_loop_flagged() {
        let d = diags_of(
            r#"
            .kernel hang
            .regs 4
            L:  mov r1, 1
                bra L
                exit          ; unreachable, satisfies the has-exit check
            "#,
        );
        let f = d.iter().find(|x| x.kind == LintKind::InfiniteLoop).unwrap();
        assert_eq!(f.severity, Severity::Error);
    }

    #[test]
    fn infinite_loop_with_store_not_flagged() {
        // Another thread can observe the stores; not provably useless.
        let d = diags_of(
            r#"
            .kernel beacon
            .regs 4
                ld.param r1, [0]
            L:  st.global [r1], r1
                bra L
                exit          ; unreachable, satisfies the has-exit check
            "#,
        );
        assert!(!kinds(&d).contains(&LintKind::InfiniteLoop), "{d:?}");
    }

    #[test]
    fn divergent_barrier_flagged() {
        let d = diags_of(
            r#"
            .kernel divbar
            .regs 4
                mov r1, %tid
                setp.eq.s32 p0, r1, 0
            @p0 bra SKIP
                bar.sync
            SKIP:
                exit
            "#,
        );
        let f = d
            .iter()
            .find(|x| x.kind == LintKind::DivergentBarrier)
            .unwrap();
        assert_eq!(f.severity, Severity::Error);
    }

    #[test]
    fn uniform_barrier_not_flagged() {
        let d = diags_of(
            r#"
            .kernel unibar
            .regs 4
                mov r1, %ctaid
                setp.eq.s32 p0, r1, 0
            @p0 bra SKIP
                bar.sync
            SKIP:
                bar.sync
                exit
            "#,
        );
        assert!(!kinds(&d).contains(&LintKind::DivergentBarrier), "{d:?}");
    }

    #[test]
    fn sib_annotation_mismatch_warns() {
        // A counted loop wrongly annotated !sib.
        let d = diags_of(
            r#"
            .kernel wrong
            .regs 4
                mov r1, 0
            L:  add r1, r1, 1
                setp.lt.s32 p0, r1, 9
            @p0 bra L !sib
                exit
            "#,
        );
        let f = d.iter().find(|x| x.kind == LintKind::SibMismatch).unwrap();
        assert_eq!(f.severity, Severity::Warning);
        assert!(!has_errors(&d));
    }
}
