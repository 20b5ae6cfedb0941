//! Control-flow graph construction and immediate post-dominator analysis.
//!
//! The SIMT reconvergence stack needs, for every (potentially divergent)
//! branch, the program counter at which diverged threads reconverge. Following
//! GPGPU-Sim and the stack-based architectures the paper targets, that point
//! is the *immediate post-dominator* (IPDOM) of the branch's basic block.

use crate::{Inst, Op, RECONV_EXIT};
use std::collections::BTreeMap;

/// A basic block: instruction index range `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pub start: usize,
    pub end: usize,
    /// Successor block ids. Empty when the block ends in `exit` or falls off
    /// the end of the kernel.
    pub succs: Vec<usize>,
}

/// The control-flow graph of a kernel.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub blocks: Vec<Block>,
    /// Map from instruction index to containing block id.
    block_of: Vec<usize>,
}

impl Cfg {
    /// Build the CFG of an instruction sequence with resolved branch targets.
    ///
    /// Out-of-range targets are tolerated by dropping the edge, so analyses
    /// (the `simt-analyze` lints) stay total on invalid input. Valid kernels
    /// can never contain one: [`crate::Kernel::from_insts`] rejects
    /// out-of-range targets *before* building the CFG, precisely because the
    /// dropped edge would otherwise silently become a fall-through.
    ///
    /// # Panics
    ///
    /// Panics if a branch has no resolved target (assembler bugs only; the
    /// assembler resolves all labels before calling this).
    pub fn build(insts: &[Inst]) -> Cfg {
        let n = insts.len();
        // Leaders: instruction 0, branch targets, instructions after branches
        // and after exits.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, inst) in insts.iter().enumerate() {
            match inst.op {
                Op::Bra => {
                    let t = inst.target.expect("unresolved branch target");
                    if t < n {
                        leader[t] = true;
                    }
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Op::Exit if pc + 1 < n => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (pc, &lead) in leader.iter().enumerate() {
            if pc > start && lead {
                blocks.push(Block {
                    start,
                    end: pc,
                    succs: Vec::new(),
                });
                start = pc;
            }
        }
        if n > 0 {
            blocks.push(Block {
                start,
                end: n,
                succs: Vec::new(),
            });
        }
        for (bid, b) in blocks.iter().enumerate() {
            block_of[b.start..b.end].fill(bid);
        }
        // Successors.
        let by_start: BTreeMap<usize, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.start, i))
            .collect();
        for b in blocks.iter_mut() {
            let last = b.end - 1;
            let inst = &insts[last];
            let mut succs = Vec::new();
            match inst.op {
                Op::Exit => {}
                Op::Bra => {
                    let t = inst.target.expect("unresolved branch target");
                    if t < n {
                        succs.push(by_start[&t]);
                    }
                    // A guarded branch falls through when the guard is false;
                    // an unguarded `bra` is unconditional.
                    if inst.guard.is_some() && last + 1 < n {
                        let ft = by_start[&(last + 1)];
                        if !succs.contains(&ft) {
                            succs.push(ft);
                        }
                    }
                }
                _ => {
                    if last + 1 < n {
                        succs.push(by_start[&(last + 1)]);
                    }
                }
            }
            b.succs = succs;
        }
        Cfg { blocks, block_of }
    }

    /// The block containing instruction `pc`.
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// Immediate post-dominator block of each block, or `None` when the only
    /// post-dominator is the (virtual) exit.
    ///
    /// Computed with the Cooper–Harvey–Kennedy iterative algorithm on the
    /// reverse CFG, with a virtual exit node post-dominating every block that
    /// has no successors (and, for robustness, every block — so infinite
    /// loops don't leave the analysis undefined).
    pub fn ipdom_blocks(&self) -> Vec<Option<usize>> {
        let nb = self.blocks.len();
        if nb == 0 {
            return Vec::new();
        }
        let exit = nb; // virtual exit node id
        let total = nb + 1;
        // Reverse CFG: preds in reverse graph = succs in forward graph.
        let mut rev_succs: Vec<Vec<usize>> = vec![Vec::new(); total]; // forward preds
        for (bid, b) in self.blocks.iter().enumerate() {
            if b.succs.is_empty() {
                rev_succs[exit].push(bid);
            }
            for &s in &b.succs {
                rev_succs[s].push(bid);
            }
        }
        // Reverse postorder of the *reverse* graph starting at exit.
        let mut order = Vec::with_capacity(total);
        let mut visited = vec![false; total];
        // Iterative DFS computing postorder.
        let mut stack: Vec<(usize, usize)> = vec![(exit, 0)];
        visited[exit] = true;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx < rev_succs[node].len() {
                let next = rev_succs[node][*idx];
                *idx += 1;
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
        // order is postorder over reverse graph; reverse postorder index:
        let mut rpo_num = vec![usize::MAX; total];
        for (i, &node) in order.iter().rev().enumerate() {
            rpo_num[node] = i;
        }
        let rpo: Vec<usize> = order.iter().rev().copied().collect();

        let mut idom = vec![usize::MAX; total]; // in reverse graph = ipdom
        idom[exit] = exit;
        let intersect = |idom: &[usize], rpo_num: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_num[a] > rpo_num[b] {
                    a = idom[a];
                }
                while rpo_num[b] > rpo_num[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &node in &rpo {
                if node == exit {
                    continue;
                }
                // Predecessors in reverse graph = forward successors, plus the
                // virtual exit edge for blocks without successors.
                let mut preds: Vec<usize> = self.blocks[node].succs.clone();
                if self.blocks[node].succs.is_empty() {
                    preds.push(exit);
                }
                let mut new_idom = usize::MAX;
                for &p in &preds {
                    if idom[p] != usize::MAX || p == exit {
                        new_idom = if new_idom == usize::MAX {
                            p
                        } else {
                            intersect(&idom, &rpo_num, new_idom, p)
                        };
                    }
                }
                if new_idom != usize::MAX && idom[node] != new_idom {
                    idom[node] = new_idom;
                    changed = true;
                }
            }
        }
        (0..nb)
            .map(|b| {
                let d = idom[b];
                if d == exit || d == usize::MAX {
                    None
                } else {
                    Some(d)
                }
            })
            .collect()
    }

    /// Per-instruction reconvergence PC for branches: the start of the
    /// branch's block's immediate post-dominator, or [`RECONV_EXIT`] when
    /// threads reconverge only at kernel exit.
    pub fn reconv_points(&self, insts: &[Inst]) -> Vec<usize> {
        let ipdom = self.ipdom_blocks();
        insts
            .iter()
            .enumerate()
            .map(|(pc, inst)| {
                if inst.op.is_branch() {
                    match ipdom[self.block_of(pc)] {
                        Some(b) => self.blocks[b].start,
                        None => RECONV_EXIT,
                    }
                } else {
                    RECONV_EXIT
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Pred, Reg, Ty};

    /// Build: if/else diamond.
    ///
    /// ```text
    /// 0: setp.eq p0, r0, 0
    /// 1: @p0 bra THEN(3)
    /// 2: bra JOIN(4)
    /// 3: nop            ; THEN
    /// 4: exit           ; JOIN
    /// ```
    fn diamond() -> Vec<Inst> {
        let mut b1 = Inst::bra(3);
        b1.guard = Some((Pred(0), true));
        vec![
            Inst::setp(CmpOp::Eq, Ty::S32, Pred(0), Reg(0), 0),
            b1,
            Inst::bra(4),
            Inst::new(Op::Nop),
            Inst::new(Op::Exit),
        ]
    }

    #[test]
    fn diamond_blocks_and_reconv() {
        let insts = diamond();
        let cfg = Cfg::build(&insts);
        // Blocks: [0,2) [2,3) [3,4) [4,5)
        assert_eq!(cfg.blocks.len(), 4);
        let reconv = cfg.reconv_points(&insts);
        // The conditional branch at 1 reconverges at the join (pc 4).
        assert_eq!(reconv[1], 4);
    }

    #[test]
    fn loop_reconverges_after_exit_test() {
        // 0: nop            ; HEAD
        // 1: setp.lt p0,...
        // 2: @p0 bra 0      ; back edge
        // 3: exit
        let mut back = Inst::bra(0);
        back.guard = Some((Pred(0), true));
        let insts = vec![
            Inst::new(Op::Nop),
            Inst::setp(CmpOp::Lt, Ty::S32, Pred(0), Reg(0), 10),
            back,
            Inst::new(Op::Exit),
        ];
        let cfg = Cfg::build(&insts);
        let reconv = cfg.reconv_points(&insts);
        // Loop-exit branch reconverges at the loop exit, pc 3.
        assert_eq!(reconv[2], 3);
    }

    #[test]
    fn branch_to_exit_block_reconverges_at_exit_sentinel() {
        // 0: @p0 bra 2
        // 1: exit
        // 2: exit
        let mut b = Inst::bra(2);
        b.guard = Some((Pred(0), true));
        let insts = vec![b, Inst::new(Op::Exit), Inst::new(Op::Exit)];
        let cfg = Cfg::build(&insts);
        let reconv = cfg.reconv_points(&insts);
        assert_eq!(reconv[0], RECONV_EXIT);
    }

    #[test]
    fn straightline_single_block() {
        let insts = vec![
            Inst::mov(Reg(1), 5),
            Inst::mov(Reg(2), 6),
            Inst::new(Op::Exit),
        ];
        let cfg = Cfg::build(&insts);
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
        assert_eq!(cfg.block_of(2), 0);
    }

    #[test]
    fn nested_diamonds_reconverge_innermost_first() {
        // 0: @p0 bra 6        ; outer
        // 1: @p1 bra 4        ; inner
        // 2: nop
        // 3: bra 5
        // 4: nop              ; inner then
        // 5: nop              ; inner join
        // 6: exit             ; outer join (also outer then target)
        let mut b0 = Inst::bra(6);
        b0.guard = Some((Pred(0), true));
        let mut b1 = Inst::bra(4);
        b1.guard = Some((Pred(1), true));
        let insts = vec![
            b0,
            b1,
            Inst::new(Op::Nop),
            Inst::bra(5),
            Inst::new(Op::Nop),
            Inst::new(Op::Nop),
            Inst::new(Op::Exit),
        ];
        let cfg = Cfg::build(&insts);
        let reconv = cfg.reconv_points(&insts);
        assert_eq!(reconv[0], 6, "outer reconverges at outer join");
        assert_eq!(reconv[1], 5, "inner reconverges at inner join");
    }
}
