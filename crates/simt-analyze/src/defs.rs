//! Register/predicate dataflow: reaching definitions and liveness.
//!
//! Both passes treat general registers and predicates uniformly as [`Var`]s.
//! Reaching definitions adds one *virtual* definition per variable at kernel
//! entry (the "uninitialized" def), so a use reached **only** by virtual defs
//! is provably a read of a never-written variable.

use crate::cfgx::{BitSet, FlowGraph};
use simt_isa::{Inst, Pred, Reg};

/// A dataflow variable: a general register or a predicate register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Var {
    Reg(Reg),
    Pred(Pred),
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Var::Reg(r) => write!(f, "{r}"),
            Var::Pred(p) => write!(f, "{p}"),
        }
    }
}

/// Dense index space for [`Var`]: registers first, then predicates.
pub const NUM_VARS: usize = 256 + Pred::COUNT as usize;

impl Var {
    /// Dense index in `0..NUM_VARS`.
    pub fn index(self) -> usize {
        match self {
            Var::Reg(r) => r.0 as usize,
            Var::Pred(p) => 256 + p.0 as usize,
        }
    }

    /// Inverse of [`Var::index`].
    pub fn from_index(i: usize) -> Var {
        if i < 256 {
            Var::Reg(Reg(i as u8))
        } else {
            Var::Pred(Pred((i - 256) as u8))
        }
    }
}

/// Variables read by an instruction: source registers (including the address
/// base), predicate sources, and the guard predicate.
pub fn uses(inst: &Inst) -> Vec<Var> {
    let mut v: Vec<Var> = inst.src_regs().into_iter().map(Var::Reg).collect();
    v.extend(inst.psrcs.iter().map(|&p| Var::Pred(p)));
    if let Some((p, _)) = inst.guard {
        v.push(Var::Pred(p));
    }
    v
}

/// Variables written by an instruction (destination register / predicate).
pub fn defs(inst: &Inst) -> Vec<Var> {
    let mut v = Vec::new();
    if let Some(r) = inst.dst {
        v.push(Var::Reg(r));
    }
    if let Some(p) = inst.pdst {
        v.push(Var::Pred(p));
    }
    v
}

/// Reaching-definitions solution.
///
/// Definition ids: `0..insts.len()` are real definitions at that pc (an
/// instruction defining both a register and a predicate shares the id — the
/// variable disambiguates); `insts.len() + v` is the virtual entry def of
/// variable index `v`.
pub struct ReachingDefs {
    /// Per-block IN sets over definition ids.
    block_in: Vec<BitSet>,
    n_insts: usize,
}

impl ReachingDefs {
    /// Solve reaching definitions over the flow graph.
    pub fn solve(g: &FlowGraph, insts: &[Inst]) -> ReachingDefs {
        let n = insts.len();
        let universe = n + NUM_VARS;
        let nb = g.blocks.len();

        // Last definition of each variable inside each block (gen), and the
        // set of variables a block redefines (kill, per-variable).
        let transfer = |mut state: BitSet, b: usize, g: &FlowGraph, insts: &[Inst]| -> BitSet {
            for pc in g.blocks[b].start..g.blocks[b].end {
                for var in defs(&insts[pc]) {
                    // Kill every other def of this variable.
                    for (dpc, i) in insts.iter().enumerate() {
                        if dpc != pc && defs(i).contains(&var) {
                            state.remove(dpc);
                        }
                    }
                    state.remove(n + var.index());
                    state.insert(pc);
                }
            }
            state
        };

        let mut block_in: Vec<BitSet> = (0..nb).map(|_| BitSet::new(universe)).collect();
        let mut block_out: Vec<BitSet> = (0..nb).map(|_| BitSet::new(universe)).collect();
        // Entry: every variable carries its virtual uninitialized def.
        let mut entry = BitSet::new(universe);
        for v in 0..NUM_VARS {
            entry.insert(n + v);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                let mut inb = if b == 0 {
                    entry.clone()
                } else {
                    BitSet::new(universe)
                };
                for &p in &g.preds[b] {
                    inb.union_with(&block_out[p]);
                }
                if inb != block_in[b] {
                    block_in[b] = inb.clone();
                    changed = true;
                }
                let outb = transfer(inb, b, g, insts);
                if outb != block_out[b] {
                    block_out[b] = outb;
                    changed = true;
                }
            }
        }
        ReachingDefs {
            block_in,
            n_insts: n,
        }
    }

    /// The definitions of `var` reaching the *use* at `pc`: real def pcs,
    /// plus `None` standing for the virtual (uninitialized) entry def.
    pub fn reaching(
        &self,
        g: &FlowGraph,
        insts: &[Inst],
        pc: usize,
        var: Var,
    ) -> (Vec<usize>, bool) {
        let b = g.block_of(pc);
        // Walk the block prefix to get the state just before `pc`.
        let mut state = self.block_in[b].clone();
        for p in g.blocks[b].start..pc {
            for v in defs(&insts[p]) {
                if v == var {
                    for (dpc, i) in insts.iter().enumerate() {
                        if dpc != p && defs(i).contains(&var) {
                            state.remove(dpc);
                        }
                    }
                    state.remove(self.n_insts + var.index());
                    state.insert(p);
                }
            }
        }
        let mut real = Vec::new();
        for (dpc, i) in insts.iter().enumerate().take(self.n_insts) {
            if state.contains(dpc) && defs(i).contains(&var) {
                real.push(dpc);
            }
        }
        let uninit = state.contains(self.n_insts + var.index());
        (real, uninit)
    }
}

/// Liveness solution: per-block live-in variable sets.
pub struct Liveness {
    /// `live_in[b]` over [`Var::index`].
    pub live_in: Vec<BitSet>,
}

impl Liveness {
    /// Solve backward liveness over the flow graph.
    pub fn solve(g: &FlowGraph, insts: &[Inst]) -> Liveness {
        let nb = g.blocks.len();
        let mut live_in: Vec<BitSet> = (0..nb).map(|_| BitSet::new(NUM_VARS)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                let mut live = BitSet::new(NUM_VARS);
                for &s in &g.blocks[b].succs {
                    live.union_with(&live_in[s]);
                }
                for pc in (g.blocks[b].start..g.blocks[b].end).rev() {
                    for v in defs(&insts[pc]) {
                        live.remove(v.index());
                    }
                    for v in uses(&insts[pc]) {
                        live.insert(v.index());
                    }
                }
                if live != live_in[b] {
                    live_in[b] = live;
                    changed = true;
                }
            }
        }
        Liveness { live_in }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{CmpOp, Op, Ty};

    #[test]
    fn var_index_roundtrip() {
        for i in [0usize, 7, 255, 256, 256 + Pred::COUNT as usize - 1] {
            assert_eq!(Var::from_index(i).index(), i);
        }
    }

    #[test]
    fn straightline_reaching() {
        // 0: mov r1, 5; 1: mov r1, 6; 2: st uses r1
        let insts = vec![
            Inst::mov(Reg(1), 5),
            Inst::mov(Reg(1), 6),
            Inst::st(simt_isa::Space::Global, simt_isa::MemAddr::abs(0), Reg(1)),
            Inst::new(Op::Exit),
        ];
        let g = FlowGraph::build(&insts);
        let rd = ReachingDefs::solve(&g, &insts);
        let (real, uninit) = rd.reaching(&g, &insts, 2, Var::Reg(Reg(1)));
        assert_eq!(real, vec![1], "later def kills earlier");
        assert!(!uninit);
    }

    #[test]
    fn uninitialized_read_detected() {
        let insts = vec![
            Inst::st(simt_isa::Space::Global, simt_isa::MemAddr::abs(0), Reg(3)),
            Inst::new(Op::Exit),
        ];
        let g = FlowGraph::build(&insts);
        let rd = ReachingDefs::solve(&g, &insts);
        let (real, uninit) = rd.reaching(&g, &insts, 0, Var::Reg(Reg(3)));
        assert!(real.is_empty());
        assert!(uninit);
    }

    #[test]
    fn loop_carried_def_reaches_header() {
        // 0: mov r1, 0; 1: add r1, r1, 1; 2: setp.lt p0, r1, 9;
        // 3: @p0 bra 1; 4: exit
        let mut back = Inst::bra(1);
        back.guard = Some((Pred(0), true));
        let insts = vec![
            Inst::mov(Reg(1), 0),
            Inst::binary(Op::Add(Ty::S32), Reg(1), Reg(1), 1),
            Inst::setp(CmpOp::Lt, Ty::S32, Pred(0), Reg(1), 9),
            back,
            Inst::new(Op::Exit),
        ];
        let g = FlowGraph::build(&insts);
        let rd = ReachingDefs::solve(&g, &insts);
        let (real, uninit) = rd.reaching(&g, &insts, 1, Var::Reg(Reg(1)));
        assert_eq!(real, vec![0, 1], "both init and loop-carried defs reach");
        assert!(!uninit);
    }

    #[test]
    fn liveness_across_loop() {
        // Same loop: r1 is live-in at the loop head block.
        let mut back = Inst::bra(1);
        back.guard = Some((Pred(0), true));
        let insts = vec![
            Inst::mov(Reg(1), 0),
            Inst::binary(Op::Add(Ty::S32), Reg(1), Reg(1), 1),
            Inst::setp(CmpOp::Lt, Ty::S32, Pred(0), Reg(1), 9),
            back,
            Inst::new(Op::Exit),
        ];
        let g = FlowGraph::build(&insts);
        let lv = Liveness::solve(&g, &insts);
        let head = g.block_of(1);
        assert!(lv.live_in[head].contains(Var::Reg(Reg(1)).index()));
        assert!(!lv.live_in[head].contains(Var::Pred(Pred(0)).index()));
        let exit_block = g.block_of(4);
        assert!(lv.live_in[exit_block].is_empty());
    }
}
