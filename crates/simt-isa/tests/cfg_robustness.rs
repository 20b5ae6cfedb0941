//! Robustness of CFG construction and post-dominator analysis on hostile
//! shapes: irreducible graphs, infinite loops with no exit, single-block
//! kernels, and an exhaustive enumeration of small programs. `Cfg::build`
//! and `ipdom_blocks` must stay total (no panics, no missing entries), and
//! every branch's reconvergence PC must be a real block start or the
//! `RECONV_EXIT` sentinel.

use simt_isa::cfg::Cfg;
use simt_isa::{Inst, Op, Pred, RECONV_EXIT};

fn guarded_bra(t: usize) -> Inst {
    let mut b = Inst::bra(t);
    b.guard = Some((Pred(0), true));
    b
}

/// Check the invariants every CFG must satisfy, whatever the input shape.
fn check_total(insts: &[Inst]) {
    let cfg = Cfg::build(insts);
    let n_blocks = cfg.blocks.len();
    let ipdom = cfg.ipdom_blocks();
    assert_eq!(ipdom.len(), n_blocks, "ipdom entry per block");
    for d in ipdom.iter().flatten() {
        assert!(*d < n_blocks, "ipdom points at a real block");
    }
    let starts: Vec<usize> = cfg.blocks.iter().map(|b| b.start).collect();
    for (bid, b) in cfg.blocks.iter().enumerate() {
        assert!(b.start < b.end && b.end <= insts.len(), "well-formed range");
        for pc in b.start..b.end {
            assert_eq!(cfg.block_of(pc), bid, "block_of is consistent");
        }
        for &s in &b.succs {
            assert!(s < n_blocks, "successor in range");
        }
    }
    let reconv = cfg.reconv_points(insts);
    assert_eq!(reconv.len(), insts.len());
    for (pc, inst) in insts.iter().enumerate() {
        if inst.op.is_branch() {
            assert!(
                reconv[pc] == RECONV_EXIT || starts.contains(&reconv[pc]),
                "reconvergence PC {} of branch {pc} is a block start",
                reconv[pc]
            );
        }
    }
}

#[test]
fn irreducible_two_entry_loop() {
    // 0: @p0 bra 3     ; jump into the middle of the "loop"
    // 1: nop           ; loop entry A
    // 2: @p0 bra 4
    // 3: bra 1         ; loop entry B -> A (second entry edge)
    // 4: exit
    let insts = vec![
        guarded_bra(3),
        Inst::new(Op::Nop),
        guarded_bra(4),
        Inst::bra(1),
        Inst::new(Op::Exit),
    ];
    check_total(&insts);
}

#[test]
fn infinite_loop_with_no_exit() {
    // 0: nop
    // 1: bra 0         ; no path to any exit
    let insts = vec![Inst::new(Op::Nop), Inst::bra(0)];
    check_total(&insts);
    let cfg = Cfg::build(&insts);
    // Nothing post-dominates a non-terminating program except the virtual
    // exit, which reconv_points reports as the sentinel.
    assert_eq!(cfg.reconv_points(&insts)[1], RECONV_EXIT);
}

#[test]
fn self_loop_single_instruction() {
    let insts = vec![Inst::bra(0)];
    check_total(&insts);
}

#[test]
fn single_block_kernel() {
    let insts = vec![Inst::new(Op::Nop), Inst::new(Op::Exit)];
    check_total(&insts);
    assert_eq!(Cfg::build(&insts).blocks.len(), 1);
}

#[test]
fn empty_program() {
    let insts: Vec<Inst> = Vec::new();
    let cfg = Cfg::build(&insts);
    assert!(cfg.blocks.is_empty());
    assert!(cfg.ipdom_blocks().is_empty());
    assert!(cfg.reconv_points(&insts).is_empty());
}

#[test]
fn guarded_branch_past_the_end_drops_the_edge() {
    // Cfg::build tolerates an out-of-range target by dropping the edge
    // (Kernel::from_insts rejects it long before; simt-analyze's lints
    // rely on build staying total).
    let insts = vec![guarded_bra(9), Inst::new(Op::Exit)];
    check_total(&insts);
    let cfg = Cfg::build(&insts);
    assert_eq!(cfg.blocks[0].succs, vec![1], "only the fall-through edge");
}

/// Exhaustively enumerate every program of length up to 4 over
/// {nop, exit, bra t, @p0 bra t | t in 0..n}: all 11k+ shapes — including
/// irreducible graphs, unreachable code, and infinite loops — must keep
/// the analyses total.
#[test]
fn exhaustive_small_programs() {
    for n in 1..=4usize {
        let choices = 2 + 2 * n;
        let program_count = choices.pow(n as u32);
        for code in 0..program_count {
            let mut c = code;
            let insts: Vec<Inst> = (0..n)
                .map(|_| {
                    let k = c % choices;
                    c /= choices;
                    match k {
                        0 => Inst::new(Op::Nop),
                        1 => Inst::new(Op::Exit),
                        k if k < 2 + n => Inst::bra(k - 2),
                        k => guarded_bra(k - 2 - n),
                    }
                })
                .collect();
            check_total(&insts);
        }
    }
}

/// Deterministically sampled longer programs (no RNG seed drift: a fixed
/// LCG), with targets occasionally out of range.
#[test]
fn sampled_larger_programs() {
    let mut state: u64 = 0x243F_6A88_85A3_08D3; // fixed seed
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..2000 {
        let n = 5 + next() % 12;
        let insts: Vec<Inst> = (0..n)
            .map(|_| match next() % 4 {
                0 => Inst::new(Op::Nop),
                1 => Inst::new(Op::Exit),
                2 => Inst::bra(next() % (n + 2)), // may be out of range
                _ => guarded_bra(next() % (n + 2)),
            })
            .collect();
        check_total(&insts);
    }
}
