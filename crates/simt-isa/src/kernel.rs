//! Assembled kernels.

use crate::cfg::Cfg;
use crate::{Inst, Op, Pred, INST_BYTES};
use std::collections::HashMap;
use std::fmt;

/// Reconvergence-PC sentinel meaning "reconverge only at thread exit".
pub const RECONV_EXIT: usize = usize::MAX;

/// Errors produced by [`Kernel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A register index is out of the declared range.
    RegOutOfRange { pc: usize, reg: u8, regs: u8 },
    /// A predicate index is out of range.
    PredOutOfRange { pc: usize, pred: u8 },
    /// A branch target does not point inside the kernel.
    BadTarget { pc: usize, target: usize },
    /// The kernel contains no `exit` instruction.
    NoExit,
    /// The kernel is empty.
    Empty,
    /// An instruction is missing an operand its opcode requires (a
    /// destination, address, branch target, or source). The assembler
    /// never emits such instructions; this guards kernels built
    /// programmatically (the builder API, fuzzers, service clients) so
    /// the execution pipelines can rely on operand presence without
    /// panicking.
    MalformedOperands {
        /// Instruction index.
        pc: usize,
        /// What is missing.
        what: &'static str,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::RegOutOfRange { pc, reg, regs } => {
                write!(f, "pc {pc}: register r{reg} out of declared range {regs}")
            }
            KernelError::PredOutOfRange { pc, pred } => {
                write!(f, "pc {pc}: predicate p{pred} out of range")
            }
            KernelError::BadTarget { pc, target } => {
                write!(f, "pc {pc}: branch target {target} outside kernel")
            }
            KernelError::NoExit => write!(f, "kernel has no exit instruction"),
            KernelError::Empty => write!(f, "kernel is empty"),
            KernelError::MalformedOperands { pc, what } => {
                write!(f, "pc {pc}: {what}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// An assembled, validated kernel ready to launch on the simulator.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name from the `.kernel` directive.
    pub name: String,
    /// The instruction stream; the program counter is an index here.
    pub insts: Vec<Inst>,
    /// Label name → instruction index.
    pub labels: HashMap<String, usize>,
    /// Per-thread general registers required (`.regs`).
    pub num_regs: u8,
    /// Number of 32-bit kernel parameters (`.params` or inferred).
    pub num_params: u32,
    /// Shared-memory words per CTA (`.shared`).
    pub shared_words: u32,
    /// Per-instruction reconvergence PC: for branches, the IPDOM start;
    /// [`RECONV_EXIT`] otherwise.
    pub reconv: Vec<usize>,
    /// Ground-truth spin-inducing branches (from `!sib` annotations): the
    /// oracle that Table I's detection-accuracy metrics compare DDOS against.
    pub true_sibs: Vec<usize>,
}

impl Kernel {
    /// Assemble a kernel from parts: resolves nothing (targets must already
    /// be instruction indices), computes reconvergence points, validates.
    ///
    /// # Errors
    ///
    /// Returns the first [`KernelError`] found by [`Kernel::validate`].
    pub fn from_insts(
        name: impl Into<String>,
        insts: Vec<Inst>,
        labels: HashMap<String, usize>,
        num_regs: u8,
        num_params: u32,
        shared_words: u32,
    ) -> Result<Kernel, KernelError> {
        // Branch targets must be validated *before* CFG construction:
        // `Cfg::build` tolerates out-of-range targets by dropping the edge
        // (so the linter can analyze invalid input), which would silently
        // turn the branch into a fall-through here.
        // Operand shape likewise: `Cfg::build` expects every branch to carry
        // a resolved target.
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.target {
                if t >= insts.len() {
                    return Err(KernelError::BadTarget { pc, target: t });
                }
            }
            check_operand_shape(pc, inst)?;
        }
        let cfg = Cfg::build(&insts);
        let reconv = cfg.reconv_points(&insts);
        let true_sibs = insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.ann.sib)
            .map(|(pc, _)| pc)
            .collect();
        let k = Kernel {
            name: name.into(),
            insts,
            labels,
            num_regs,
            num_params,
            shared_words,
            reconv,
            true_sibs,
        };
        k.validate()?;
        Ok(k)
    }

    /// Check internal consistency (register ranges, branch targets, an exit).
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), KernelError> {
        if self.insts.is_empty() {
            return Err(KernelError::Empty);
        }
        let mut has_exit = false;
        for (pc, inst) in self.insts.iter().enumerate() {
            if inst.op == Op::Exit {
                has_exit = true;
            }
            for r in inst.src_regs().into_iter().chain(inst.dst_reg()) {
                if r.0 >= self.num_regs {
                    return Err(KernelError::RegOutOfRange {
                        pc,
                        reg: r.0,
                        regs: self.num_regs,
                    });
                }
            }
            let preds = inst
                .pdst
                .into_iter()
                .chain(inst.psrcs.iter().copied())
                .chain(inst.guard.map(|(p, _)| p));
            for p in preds {
                if p.0 >= Pred::COUNT {
                    return Err(KernelError::PredOutOfRange { pc, pred: p.0 });
                }
            }
            if let Some(t) = inst.target {
                if t >= self.insts.len() {
                    return Err(KernelError::BadTarget { pc, target: t });
                }
            }
            check_operand_shape(pc, inst)?;
        }
        if !has_exit {
            return Err(KernelError::NoExit);
        }
        Ok(())
    }

    /// Byte program counter of an instruction index, as hardware (and DDOS's
    /// path hashing) sees it.
    pub fn byte_pc(&self, pc: usize) -> u64 {
        pc as u64 * INST_BYTES
    }

    /// All backward branches — the candidate set DDOS classifies.
    pub fn backward_branches(&self) -> Vec<usize> {
        self.insts
            .iter()
            .enumerate()
            .filter(|(pc, i)| i.is_backward_branch(*pc))
            .map(|(pc, _)| pc)
            .collect()
    }

    /// Static instruction count (used by CAWA's initial `nInst` estimate).
    pub fn static_len(&self) -> usize {
        self.insts.len()
    }

    /// Render a human-readable disassembly with synthesized labels.
    pub fn disasm(&self) -> String {
        use std::collections::BTreeSet;
        let targets: BTreeSet<usize> = self.insts.iter().filter_map(|i| i.target).collect();
        let mut out = format!(
            ".kernel {}\n.regs {}\n.params {}\n.shared {}\n",
            self.name, self.num_regs, self.num_params, self.shared_words
        );
        for (pc, inst) in self.insts.iter().enumerate() {
            if targets.contains(&pc) {
                out.push_str(&format!("L{pc}:\n"));
            }
            let mut line = format!("    {inst}");
            if let Some(t) = inst.target {
                line = line.replace(&format!("@{t}"), &format!("L{t}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Operand-shape check: every opcode's required operands (destination,
/// address, branch target, source/predicate counts) must be present.
///
/// The execution pipelines (`simt-core`'s SM and `simt-ref`'s interpreter)
/// rely on these invariants with `expect`/indexing; enforcing them here —
/// on the [`Kernel::validate`] path that every launch runs through — means
/// a malformed kernel built through the programmatic APIs surfaces as a
/// typed [`KernelError`] instead of panicking a simulation thread.
fn check_operand_shape(pc: usize, inst: &Inst) -> Result<(), KernelError> {
    use Op::*;
    let err = |what: &'static str| Err(KernelError::MalformedOperands { pc, what });
    let need_dst = |what: &'static str| {
        if inst.dst.is_none() {
            return Err(KernelError::MalformedOperands { pc, what });
        }
        Ok(())
    };
    let need_srcs = |n: usize, what: &'static str| {
        if inst.srcs.len() < n {
            return Err(KernelError::MalformedOperands { pc, what });
        }
        Ok(())
    };
    let need_pdst = |what: &'static str| {
        if inst.pdst.is_none() {
            return Err(KernelError::MalformedOperands { pc, what });
        }
        Ok(())
    };
    let need_psrcs = |n: usize, what: &'static str| {
        if inst.psrcs.len() < n {
            return Err(KernelError::MalformedOperands { pc, what });
        }
        Ok(())
    };
    match inst.op {
        Mov | Not | Neg(_) | Sqrt | CvtI2F | CvtF2I => {
            need_dst("unary ALU op missing destination register")?;
            need_srcs(1, "unary ALU op missing its source operand")?;
        }
        Add(_) | Sub(_) | Mul(_) | Div(_) | Rem(_) | Min(_) | Max(_) | And | Or | Xor | Shl
        | Shr | Sra => {
            need_dst("binary ALU op missing destination register")?;
            need_srcs(2, "binary ALU op missing a source operand")?;
        }
        Mad(_) => {
            need_dst("mad missing destination register")?;
            need_srcs(3, "mad requires three source operands")?;
        }
        Selp => {
            need_dst("selp missing destination register")?;
            need_srcs(2, "selp requires two source operands")?;
            need_psrcs(1, "selp missing its select predicate")?;
        }
        Setp(..) => {
            need_pdst("setp missing destination predicate")?;
            need_srcs(2, "setp requires two source operands")?;
        }
        PAnd | POr => {
            need_pdst("predicate op missing destination predicate")?;
            need_psrcs(2, "binary predicate op missing a source predicate")?;
        }
        PNot => {
            need_pdst("pnot missing destination predicate")?;
            need_psrcs(1, "pnot missing its source predicate")?;
        }
        Bra => {
            if inst.target.is_none() {
                return err("branch has no resolved target");
            }
        }
        Ld(..) => {
            need_dst("load missing destination register")?;
            if inst.addr.is_none() {
                return err("load missing its address operand");
            }
        }
        St(..) => {
            if inst.addr.is_none() {
                return err("store missing its address operand");
            }
            need_srcs(1, "store missing its value operand")?;
        }
        Atom(a) => {
            need_dst("atomic missing destination register")?;
            if inst.addr.is_none() {
                return err("atomic missing its address operand");
            }
            if inst.srcs.len() < a.src_count() {
                return err("atomic missing a source operand");
            }
        }
        Clock => need_dst("clock missing destination register")?,
        Bar | Membar | Exit | Nop => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Reg, Ty};

    fn tiny() -> Vec<Inst> {
        vec![Inst::mov(Reg(0), 1), Inst::new(Op::Exit)]
    }

    #[test]
    fn from_insts_validates() {
        let k = Kernel::from_insts("t", tiny(), HashMap::new(), 4, 0, 0).unwrap();
        assert_eq!(k.static_len(), 2);
        assert_eq!(k.byte_pc(1), 8);
    }

    #[test]
    fn rejects_reg_out_of_range() {
        let insts = vec![Inst::mov(Reg(9), 1), Inst::new(Op::Exit)];
        let err = Kernel::from_insts("t", insts, HashMap::new(), 4, 0, 0).unwrap_err();
        assert!(matches!(err, KernelError::RegOutOfRange { reg: 9, .. }));
    }

    #[test]
    fn rejects_missing_exit() {
        let insts = vec![Inst::mov(Reg(0), 1)];
        let err = Kernel::from_insts("t", insts, HashMap::new(), 4, 0, 0).unwrap_err();
        assert_eq!(err, KernelError::NoExit);
    }

    #[test]
    fn rejects_empty() {
        let err = Kernel::from_insts("t", vec![], HashMap::new(), 4, 0, 0).unwrap_err();
        assert_eq!(err, KernelError::Empty);
    }

    #[test]
    fn rejects_bad_target() {
        let insts = vec![Inst::bra(17), Inst::new(Op::Exit)];
        let err = Kernel::from_insts("t", insts, HashMap::new(), 4, 0, 0).unwrap_err();
        assert!(matches!(err, KernelError::BadTarget { target: 17, .. }));
    }

    #[test]
    fn backward_branch_and_sib_listing() {
        // 0: nop
        // 1: setp
        // 2: @p0 bra 0 (!sib)
        // 3: exit
        let mut back = Inst::bra(0);
        back.guard = Some((Pred(0), true));
        back.ann.sib = true;
        let insts = vec![
            Inst::new(Op::Nop),
            Inst::setp(CmpOp::Lt, Ty::S32, Pred(0), Reg(0), 3),
            back,
            Inst::new(Op::Exit),
        ];
        let k = Kernel::from_insts("t", insts, HashMap::new(), 4, 0, 0).unwrap();
        assert_eq!(k.backward_branches(), vec![2]);
        assert_eq!(k.true_sibs, vec![2]);
    }

    #[test]
    fn rejects_malformed_operands() {
        // Each case: a hand-broken instruction that the assembler can never
        // emit but the programmatic APIs could.
        let cases: Vec<(Inst, &str)> = vec![
            (Inst::new(Op::Mov), "mov with no operands"),
            (
                {
                    let mut i = Inst::new(Op::Add(Ty::S32));
                    i.dst = Some(Reg(0));
                    i.srcs.push(1.into());
                    i
                },
                "add with one source",
            ),
            (
                {
                    let mut i = Inst::new(Op::Setp(CmpOp::Eq, Ty::S32));
                    i.srcs.push(1.into());
                    i.srcs.push(2.into());
                    i
                },
                "setp without pdst",
            ),
            (Inst::new(Op::Bra), "bra without target"),
            (
                {
                    let mut i = Inst::new(Op::Ld(crate::Space::Global, false));
                    i.dst = Some(Reg(0));
                    i
                },
                "load without address",
            ),
            (
                {
                    let mut i = Inst::new(Op::St(crate::Space::Global, false));
                    i.addr = Some(crate::MemAddr::new(Reg(0), 0));
                    i
                },
                "store without value",
            ),
            (
                {
                    let mut i = Inst::new(Op::Atom(crate::AtomOp::Cas));
                    i.dst = Some(Reg(0));
                    i.addr = Some(crate::MemAddr::new(Reg(1), 0));
                    i.srcs.push(0.into()); // CAS needs two sources
                    i
                },
                "cas with one source",
            ),
            (Inst::new(Op::Clock), "clock without dst"),
        ];
        for (bad, label) in cases {
            let insts = vec![bad, Inst::new(Op::Exit)];
            let err = Kernel::from_insts("t", insts, HashMap::new(), 4, 0, 0).unwrap_err();
            assert!(
                matches!(err, KernelError::MalformedOperands { pc: 0, .. }),
                "{label}: expected MalformedOperands, got {err:?}"
            );
        }
    }

    #[test]
    fn well_formed_constructors_pass_shape_check() {
        let insts = vec![
            Inst::ld(crate::Space::Param, Reg(1), crate::MemAddr::abs(0)),
            Inst::atom(
                crate::AtomOp::Cas,
                Reg(2),
                crate::MemAddr::new(Reg(1), 0),
                vec![0.into(), 1.into()],
            ),
            Inst::st(crate::Space::Global, crate::MemAddr::new(Reg(1), 4), Reg(2)),
            Inst::new(Op::Exit),
        ];
        Kernel::from_insts("t", insts, HashMap::new(), 4, 1, 0).unwrap();
    }

    #[test]
    fn disasm_roundtrip_smoke() {
        let mut back = Inst::bra(0);
        back.guard = Some((Pred(0), true));
        let insts = vec![
            Inst::new(Op::Nop),
            Inst::setp(CmpOp::Lt, Ty::S32, Pred(0), Reg(0), 3),
            back,
            Inst::new(Op::Exit),
        ];
        let k = Kernel::from_insts("t", insts, HashMap::new(), 4, 0, 0).unwrap();
        let d = k.disasm();
        assert!(d.contains("L0:"), "{d}");
        assert!(d.contains("bra L0"), "{d}");
    }
}
