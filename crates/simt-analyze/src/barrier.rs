//! Barrier-phase partitioning of the CFG.
//!
//! `bar.sync` splits a kernel into *phases*: two shared/global accesses in
//! different warps of a CTA cannot overlap when a barrier provably sits
//! between them on every execution. "Provably between" is the dominance
//! criterion from the race model: a barrier separates access A from access
//! B when its block postdominates A's block and dominates B's block (with
//! program-order refinement when they share a block). A barrier under
//! divergent control does **not** separate anything — lanes of a warp can
//! disagree on reaching it (that is the existing divergent-barrier lint) —
//! but the pass remembers such barriers so races they *fail* to prevent
//! can be reported as divergent-barrier races rather than plain ones.

use crate::cfgx::FlowGraph;
use crate::defs::Var;
use crate::uniform::Uniformity;
use simt_isa::{Inst, Op};

/// One `bar.sync` site.
#[derive(Debug, Clone, Copy)]
pub struct BarrierSite {
    pub pc: usize,
    pub block: usize,
    /// Control-dependent on a divergent branch (or divergently guarded):
    /// does not reliably separate accesses.
    pub divergent: bool,
}

/// The barrier structure of one kernel.
pub struct BarrierPhases {
    pub sites: Vec<BarrierSite>,
    /// Phase index per block: the number of non-divergent barrier sites
    /// whose block strictly dominates the block (barriers in the same block
    /// refine by pc at query time). Blocks with equal indices belong to the
    /// same barrier interval.
    phase: Vec<usize>,
}

impl BarrierPhases {
    pub fn solve(g: &FlowGraph, insts: &[Inst], u: &Uniformity) -> BarrierPhases {
        let cd = g.control_deps();
        let mut sites = Vec::new();
        for (pc, inst) in insts.iter().enumerate() {
            if inst.op != Op::Bar {
                continue;
            }
            let b = g.block_of(pc);
            if !g.reachable.contains(b) {
                continue;
            }
            let guard_div = inst
                .guard
                .is_some_and(|(p, _)| u.is_divergent(Var::Pred(p)));
            let ctrl_div = cd[b].iter().any(|&c| u.divergent_branches.contains(c));
            sites.push(BarrierSite {
                pc,
                block: b,
                divergent: guard_div || ctrl_div,
            });
        }
        let phase = (0..g.blocks.len())
            .map(|b| {
                sites
                    .iter()
                    .filter(|s| !s.divergent && s.block != b && g.dominates(s.block, b))
                    .count()
            })
            .collect();
        BarrierPhases { sites, phase }
    }

    /// Barrier-interval index of the access at `pc` (barriers earlier in
    /// the same block count toward the phase).
    pub fn phase_of(&self, g: &FlowGraph, pc: usize) -> usize {
        let b = g.block_of(pc);
        self.phase[b]
            + self
                .sites
                .iter()
                .filter(|s| !s.divergent && s.block == b && s.pc < pc)
                .count()
    }

    /// Does some *non-divergent* barrier separate the accesses at `a` and
    /// `b` (in either orientation)?
    pub fn separated(&self, g: &FlowGraph, a: usize, b: usize) -> bool {
        self.sites
            .iter()
            .any(|s| !s.divergent && (separates(g, s, a, b) || separates(g, s, b, a)))
    }

    /// Is a *divergent* barrier on some path between the accesses (in either
    /// orientation)? Used to classify a race as "a barrier was meant to
    /// order these, but divergence breaks it" rather than a plain race.
    /// Deliberately path-existential, not dominance-based: the whole failure
    /// mode is that divergence routes some lanes around the barrier.
    pub fn divergent_site_between(&self, g: &FlowGraph, a: usize, b: usize) -> bool {
        self.sites
            .iter()
            .filter(|s| s.divergent)
            .any(|s| on_some_path(g, s, a, b) || on_some_path(g, s, b, a))
    }
}

/// Can barrier `s` execute after `first` and before `second` on *some* path?
fn on_some_path(g: &FlowGraph, s: &BarrierSite, first: usize, second: usize) -> bool {
    let (fb, sb) = (g.block_of(first), g.block_of(second));
    let after_first = (s.block == fb && s.pc > first) || reaches(g, fb, s.block);
    let before_second = (s.block == sb && s.pc < second) || reaches(g, s.block, sb);
    after_first && before_second
}

/// Block-level reachability `from → to` via at least one CFG edge.
fn reaches(g: &FlowGraph, from: usize, to: usize) -> bool {
    let mut seen = vec![false; g.blocks.len()];
    let mut queue: Vec<usize> = g.blocks[from].succs.clone();
    while let Some(b) = queue.pop() {
        if b == to {
            return true;
        }
        if !seen[b] {
            seen[b] = true;
            queue.extend(&g.blocks[b].succs);
        }
    }
    false
}

/// Does barrier `s` sit between `first` and `second`: on every path after
/// `first` (postdominates) and on every path before `second` (dominates)?
fn separates(g: &FlowGraph, s: &BarrierSite, first: usize, second: usize) -> bool {
    let (fb, sb) = (g.block_of(first), g.block_of(second));
    let after_first = if s.block == fb {
        s.pc > first
    } else {
        g.pdom[fb].contains(s.block)
    };
    let before_second = if s.block == sb {
        s.pc < second
    } else {
        g.dominates(s.block, sb)
    };
    after_first && before_second
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::asm::assemble;

    fn setup(src: &str) -> (Vec<Inst>, FlowGraph, Uniformity) {
        let insts = assemble(src).expect("test kernel assembles").insts;
        let g = FlowGraph::build(&insts);
        let u = Uniformity::solve(&g, &insts);
        (insts, g, u)
    }

    #[test]
    fn straight_line_barrier_separates() {
        let (insts, g, u) = setup(
            r#"
            .kernel phases
            .regs 6
                ld.param r1, [0]
                st.global [r1], r1
                bar.sync
                ld.global r2, [r1]
                exit
            "#,
        );
        let bp = BarrierPhases::solve(&g, &insts, &u);
        assert_eq!(bp.sites.len(), 1);
        assert!(!bp.sites[0].divergent);
        let (st, ld) = (1, 3);
        assert!(bp.separated(&g, st, ld));
        assert!(bp.separated(&g, ld, st), "orientation-symmetric");
        assert_eq!(bp.phase_of(&g, st), 0);
        assert_eq!(bp.phase_of(&g, ld), 1);
    }

    #[test]
    fn divergent_barrier_does_not_separate() {
        let (insts, g, u) = setup(
            r#"
            .kernel divsep
            .regs 6
                ld.param r1, [0]
                mov r2, %tid
                setp.eq.s32 p0, r2, 0
                st.global [r1], r2
            @p0 bra SKIP
                bar.sync
            SKIP:
                ld.global r3, [r1]
                exit
            "#,
        );
        let bp = BarrierPhases::solve(&g, &insts, &u);
        assert!(bp.sites[0].divergent);
        let (st, ld) = (3, 6);
        assert!(!bp.separated(&g, st, ld));
        assert!(bp.divergent_site_between(&g, st, ld));
    }

    #[test]
    fn conditional_barrier_does_not_postdominate_store() {
        // Uniform branch around the barrier: the barrier neither
        // postdominates the store nor dominates the load.
        let (insts, g, u) = setup(
            r#"
            .kernel skipbar
            .regs 6
                ld.param r1, [0]
                mov r2, %ctaid
                setp.eq.s32 p0, r2, 0
                st.global [r1], r2
            @p0 bra SKIP
                bar.sync
            SKIP:
                ld.global r3, [r1]
                exit
            "#,
        );
        let bp = BarrierPhases::solve(&g, &insts, &u);
        assert!(!bp.sites[0].divergent, "ctaid guard is uniform");
        assert!(!bp.separated(&g, 3, 6));
    }

    #[test]
    fn same_block_order_respected() {
        let (insts, g, u) = setup(
            r#"
            .kernel inblock
            .regs 6
                ld.param r1, [0]
                ld.global r2, [r1]
                bar.sync
                st.global [r1], r2
                exit
            "#,
        );
        let bp = BarrierPhases::solve(&g, &insts, &u);
        assert!(bp.separated(&g, 1, 3));
        // Two accesses on the same side of the barrier are not separated.
        assert!(!bp.separated(&g, 3, 3));
    }
}
