//! Property-style tests for the ISA crate: assembler/disassembler round
//! trips and CFG invariants over randomly generated (structured) programs.
//!
//! Uses a local deterministic PRNG rather than an external property-test
//! framework so the suite builds and runs fully offline.

use simt_isa::asm::assemble;
use simt_isa::RECONV_EXIT;

/// Deterministic splitmix64 generator for test-case construction.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Generate a structured random kernel: a sequence of blocks, each with a
/// few ALU ops and ending in a (possibly guarded) branch to a random label
/// or a fall-through; always ends with exit.
fn arb_kernel(rng: &mut Rng) -> simt_isa::Kernel {
    let nblocks = rng.range(2, 8);
    let mut text = String::from(".kernel prop\n.regs 8\n.params 8\n");
    for i in 0..nblocks {
        text += &format!("L{i}:\n");
        let nops = rng.range(1, 4);
        for j in 0..nops {
            let dst = j % 4;
            text += &match rng.range(0, 5) {
                0 => format!("    mov r{dst}, 1\n"),
                1 => format!("    add r{dst}, r1, 2\n"),
                2 => format!("    xor r{dst}, r2, r3\n"),
                3 => "    setp.lt p0, r0, 5\n".to_string(),
                _ => format!("    shl r{dst}, r0, 1\n"),
            };
        }
        // Branch to a random block; guarded branches fall through.
        let target = rng.range(0, nblocks);
        let guard = if rng.flag() { "@p0 " } else { "" };
        text += &format!("    {guard}bra L{target}\n");
    }
    // Note: blocks may branch anywhere, including skipping the exit; the
    // final exit keeps validation happy.
    text += &format!("L{nblocks}:\n    exit\n");
    assemble(&text).expect("structured kernel assembles")
}

/// Disassembling and reassembling preserves the instruction stream.
#[test]
fn disasm_reassembles_identically() {
    for seed in 0..64 {
        let k = arb_kernel(&mut Rng::new(seed));
        let text = k.disasm();
        let k2 = assemble(&text).expect("disassembly reassembles");
        assert_eq!(k.insts.len(), k2.insts.len(), "seed {seed}");
        for (a, b) in k.insts.iter().zip(&k2.insts) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.srcs, b.srcs);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.pdst, b.pdst);
            assert_eq!(a.target, b.target);
            assert_eq!(a.guard, b.guard);
            assert_eq!(a.ann, b.ann);
        }
    }
}

/// Reconvergence points are strictly after their branch for forward
/// control flow, or the exit sentinel; and they are block leaders.
#[test]
fn reconvergence_points_are_valid_pcs() {
    for seed in 0..64 {
        let k = arb_kernel(&mut Rng::new(seed));
        for (pc, inst) in k.insts.iter().enumerate() {
            let r = k.reconv[pc];
            if inst.op.is_branch() {
                assert!(r == RECONV_EXIT || r < k.insts.len(), "seed {seed} pc {pc}");
                if r != RECONV_EXIT {
                    // A reconvergence point post-dominates: executing from
                    // the branch the warp must be able to reach it, so it
                    // can never be the branch itself.
                    assert_ne!(r, pc, "seed {seed}");
                }
            } else {
                assert_eq!(r, RECONV_EXIT, "seed {seed} pc {pc}");
            }
        }
    }
}

/// `backward_branches` finds exactly the branches with target <= pc.
#[test]
fn backward_branch_listing_is_exact() {
    for seed in 0..64 {
        let k = arb_kernel(&mut Rng::new(seed));
        let expect: Vec<usize> = k
            .insts
            .iter()
            .enumerate()
            .filter(|(pc, i)| i.op.is_branch() && i.target.unwrap() <= *pc)
            .map(|(pc, _)| pc)
            .collect();
        assert_eq!(k.backward_branches(), expect, "seed {seed}");
    }
}

/// The assembler rejects garbage without panicking.
#[test]
fn assembler_never_panics() {
    // A character pool biased toward assembler syntax so fuzz inputs reach
    // deep into the parser, plus some non-ASCII noise.
    const POOL: &[char] = &[
        'a', 'b', 'k', 'r', 'x', '0', '1', '9', ' ', '\n', '\t', ',', '[', ']', '.', '%', '@', '!',
        '-', '_', ':', ';', '#', 'µ', 'λ', '□',
    ];
    for seed in 0..256 {
        let mut rng = Rng::new(seed);
        let len = rng.range(0, 201);
        let text: String = (0..len).map(|_| POOL[rng.range(0, POOL.len())]).collect();
        let _ = assemble(&text);
    }
}

/// Immediate parsing round-trips through Display for plain integers.
#[test]
fn imm_display_roundtrip() {
    for v in (-4096i32..=4096).step_by(17) {
        let src = format!(".kernel t\n.regs 4\n mov r1, {v}\n exit\n");
        let k = assemble(&src).expect("assembles");
        assert_eq!(k.insts[0].srcs[0], simt_isa::Operand::imm_i32(v));
        let text = k.disasm();
        let k2 = assemble(&text).expect("reassembles");
        assert_eq!(k2.insts[0].srcs[0], simt_isa::Operand::imm_i32(v));
    }
    // Boundary values regardless of step alignment.
    for v in [-4096, -1, 0, 1, 4096] {
        let src = format!(".kernel t\n.regs 4\n mov r1, {v}\n exit\n");
        let k = assemble(&src).expect("assembles");
        assert_eq!(k.insts[0].srcs[0], simt_isa::Operand::imm_i32(v));
    }
}
