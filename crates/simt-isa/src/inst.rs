//! Instruction encoding: operands, memory addresses, annotations.

use crate::{AtomOp, CmpOp, Op, Pred, Reg, Space, Special, Ty};
use std::fmt;

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register.
    Reg(Reg),
    /// A 32-bit immediate (bit pattern; may encode a float).
    Imm(u32),
    /// A read-only special register.
    Special(Special),
}

impl Operand {
    /// Immediate from a signed value.
    pub fn imm_i32(v: i32) -> Operand {
        Operand::Imm(v as u32)
    }

    /// Immediate carrying an `f32` bit pattern.
    pub fn imm_f32(v: f32) -> Operand {
        Operand::Imm(v.to_bits())
    }

    /// The register, if this operand is one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<Special> for Operand {
    fn from(s: Special) -> Self {
        Operand::Special(s)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::imm_i32(v)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => {
                // Print small values as signed decimal, large as hex.
                let s = *v as i32;
                if (-4096..=4096).contains(&s) {
                    write!(f, "{s}")
                } else {
                    write!(f, "0x{v:x}")
                }
            }
            Operand::Special(s) => write!(f, "{s}"),
        }
    }
}

/// A `[base + offset]` memory address operand. Param loads may use a bare
/// immediate (`[0]`), in which case `base` is `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAddr {
    /// Base address register (byte address), if any.
    pub base: Option<Reg>,
    /// Constant byte offset.
    pub offset: i32,
}

impl MemAddr {
    /// Register-relative address.
    pub fn new(base: Reg, offset: i32) -> MemAddr {
        MemAddr {
            base: Some(base),
            offset,
        }
    }

    /// Absolute (immediate-only) address, mainly for param slots.
    pub fn abs(offset: i32) -> MemAddr {
        MemAddr { base: None, offset }
    }
}

impl fmt::Display for MemAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.base {
            Some(b) if self.offset == 0 => write!(f, "[{b}]"),
            Some(b) if self.offset > 0 => write!(f, "[{}+{}]", b, self.offset),
            Some(b) => write!(f, "[{}{}]", b, self.offset),
            None => write!(f, "[{}]", self.offset),
        }
    }
}

/// Static annotations used by the reproduction's instrumentation, written as
/// trailing `!name` tokens in assembly.
///
/// These do not alter execution semantics; they feed the statistics that the
/// paper's figures are built from (lock-acquire outcome classification,
/// synchronization-overhead instruction counts, DDOS ground truth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Annot {
    /// `!acquire` — this atomic CAS is a lock-acquire attempt.
    pub acquire: bool,
    /// `!release` — this atomic releases a lock.
    pub release: bool,
    /// `!wait` — this branch is the exit test of a wait-and-signal loop
    /// (taken = still waiting).
    pub wait: bool,
    /// `!sib` — ground truth: this backward branch is a spin-inducing branch.
    pub sib: bool,
    /// `!sync` — this instruction is part of synchronization code (overhead
    /// accounting for Figure 1c).
    pub sync: bool,
}

impl Annot {
    /// True if no annotation is set.
    pub fn is_empty(self) -> bool {
        self == Annot::default()
    }
}

impl fmt::Display for Annot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        let mut put = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if wrote {
                f.write_str(" ")?;
            }
            wrote = true;
            write!(f, "!{s}")
        };
        if self.acquire {
            put(f, "acquire")?;
        }
        if self.release {
            put(f, "release")?;
        }
        if self.wait {
            put(f, "wait")?;
        }
        if self.sib {
            put(f, "sib")?;
        }
        if self.sync {
            put(f, "sync")?;
        }
        Ok(())
    }
}

/// One decoded instruction.
///
/// Operand layout:
/// * ALU ops: `dst`, then `srcs` in assembler order.
/// * `setp`: `pdst`, two `srcs`.
/// * `selp`: `dst`, `srcs[0]`, `srcs[1]`, guard predicate in `psrc`.
/// * predicate logic (`pand` etc.): `pdst` and predicate sources in `psrcs`.
/// * `bra`: `target` holds the resolved instruction index.
/// * loads: `dst` and `addr`; stores: `addr` and `srcs[0]` (the value).
/// * atomics: `dst` (old value), `addr`, then 1–2 `srcs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inst {
    /// Opcode.
    pub op: Op,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Destination predicate (for `setp` / predicate logic).
    pub pdst: Option<Pred>,
    /// Register/immediate/special sources.
    pub srcs: Vec<Operand>,
    /// Predicate sources (for `selp` and predicate logic).
    pub psrcs: Vec<Pred>,
    /// Memory address operand for loads/stores/atomics.
    pub addr: Option<MemAddr>,
    /// Resolved branch target (instruction index).
    pub target: Option<usize>,
    /// Optional `@p` / `@!p` guard: (predicate, expected value).
    pub guard: Option<(Pred, bool)>,
    /// Instrumentation annotations.
    pub ann: Annot,
    /// Source line in the assembly text (for diagnostics), 1-based; 0 when
    /// built programmatically.
    pub line: u32,
}

impl Inst {
    /// A bare instruction with the given opcode and no operands.
    pub fn new(op: Op) -> Inst {
        Inst {
            op,
            dst: None,
            pdst: None,
            srcs: Vec::new(),
            psrcs: Vec::new(),
            addr: None,
            target: None,
            guard: None,
            ann: Annot::default(),
            line: 0,
        }
    }

    /// Registers read by this instruction (including address base).
    pub fn src_regs(&self) -> Vec<Reg> {
        let mut v: Vec<Reg> = self.srcs.iter().filter_map(|o| o.as_reg()).collect();
        if let Some(b) = self.addr.and_then(|a| a.base) {
            v.push(b);
        }
        v
    }

    /// Register written by this instruction, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        self.dst
    }

    /// True if this is a backward branch relative to its own position —
    /// the candidate population for spin-inducing branches.
    pub fn is_backward_branch(&self, pc: usize) -> bool {
        self.op.is_branch() && self.target.is_some_and(|t| t <= pc)
    }

    fn mnemonic(&self) -> String {
        use Op::*;
        fn ty_sfx(t: Ty) -> String {
            if t == Ty::S32 {
                String::new()
            } else {
                format!(".{t}")
            }
        }
        match self.op {
            Mov => "mov".into(),
            Add(t) => format!("add{}", ty_sfx(t)),
            Sub(t) => format!("sub{}", ty_sfx(t)),
            Mul(t) => format!("mul{}", ty_sfx(t)),
            Mad(t) => format!("mad{}", ty_sfx(t)),
            Div(t) => format!("div{}", ty_sfx(t)),
            Rem(t) => format!("rem{}", ty_sfx(t)),
            Min(t) => format!("min{}", ty_sfx(t)),
            Max(t) => format!("max{}", ty_sfx(t)),
            And => "and".into(),
            Or => "or".into(),
            Xor => "xor".into(),
            Not => "not".into(),
            Neg(t) => format!("neg{}", ty_sfx(t)),
            Shl => "shl".into(),
            Shr => "shr".into(),
            Sra => "sra".into(),
            Sqrt => "sqrt.f32".into(),
            CvtI2F => "cvt.f32.s32".into(),
            CvtF2I => "cvt.s32.f32".into(),
            Selp => "selp".into(),
            Setp(c, t) => format!("setp.{c}{}", ty_sfx(t)),
            PAnd => "pand".into(),
            POr => "por".into(),
            PNot => "pnot".into(),
            Bra => "bra".into(),
            Ld(s, v) => format!("ld.{s}{}", if v { ".volatile" } else { "" }),
            St(s, v) => format!("st.{s}{}", if v { ".volatile" } else { "" }),
            Atom(a) => format!("atom.global.{a}"),
            Bar => "bar.sync".into(),
            Membar => "membar".into(),
            Clock => "clock".into(),
            Exit => "exit".into(),
            Nop => "nop".into(),
        }
    }
}

impl fmt::Display for Inst {
    /// Disassembly, parseable back by the assembler (branch targets print as
    /// `@<index>` pseudo-labels only here; `Kernel::disasm` emits real ones).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((p, v)) = self.guard {
            write!(f, "@{}{} ", if v { "" } else { "!" }, p)?;
        }
        write!(f, "{}", self.mnemonic())?;
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = self.pdst {
            parts.push(p.to_string());
        }
        if let Some(d) = self.dst {
            parts.push(d.to_string());
        }
        match self.op {
            Op::St(..) => {
                if let Some(a) = self.addr {
                    parts.push(a.to_string());
                }
                for s in &self.srcs {
                    parts.push(s.to_string());
                }
            }
            _ => {
                if let Some(a) = self.addr {
                    parts.push(a.to_string());
                }
                for s in &self.srcs {
                    parts.push(s.to_string());
                }
            }
        }
        for p in &self.psrcs {
            parts.push(p.to_string());
        }
        if let Some(t) = self.target {
            parts.push(format!("@{t}"));
        }
        if !parts.is_empty() {
            write!(f, " {}", parts.join(", "))?;
        }
        if !self.ann.is_empty() {
            write!(f, " {}", self.ann)?;
        }
        Ok(())
    }
}

/// Convenience constructors used by tests and the builder.
impl Inst {
    pub fn mov(dst: Reg, src: impl Into<Operand>) -> Inst {
        let mut i = Inst::new(Op::Mov);
        i.dst = Some(dst);
        i.srcs.push(src.into());
        i
    }

    pub fn binary(op: Op, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Inst {
        let mut i = Inst::new(op);
        i.dst = Some(dst);
        i.srcs.push(a.into());
        i.srcs.push(b.into());
        i
    }

    pub fn setp(cmp: CmpOp, ty: Ty, p: Pred, a: impl Into<Operand>, b: impl Into<Operand>) -> Inst {
        let mut i = Inst::new(Op::Setp(cmp, ty));
        i.pdst = Some(p);
        i.srcs.push(a.into());
        i.srcs.push(b.into());
        i
    }

    pub fn bra(target: usize) -> Inst {
        let mut i = Inst::new(Op::Bra);
        i.target = Some(target);
        i
    }

    pub fn ld(space: Space, dst: Reg, addr: MemAddr) -> Inst {
        let mut i = Inst::new(Op::Ld(space, false));
        i.dst = Some(dst);
        i.addr = Some(addr);
        i
    }

    pub fn st(space: Space, addr: MemAddr, val: impl Into<Operand>) -> Inst {
        let mut i = Inst::new(Op::St(space, false));
        i.addr = Some(addr);
        i.srcs.push(val.into());
        i
    }

    pub fn atom(op: AtomOp, dst: Reg, addr: MemAddr, srcs: Vec<Operand>) -> Inst {
        let mut i = Inst::new(Op::Atom(op));
        i.dst = Some(dst);
        i.addr = Some(addr);
        i.srcs = srcs;
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_branch_detection() {
        let b = Inst::bra(3);
        assert!(b.is_backward_branch(5));
        assert!(b.is_backward_branch(3));
        assert!(!b.is_backward_branch(2));
        let nop = Inst::new(Op::Nop);
        assert!(!nop.is_backward_branch(5));
    }

    #[test]
    fn src_regs_include_addr_base() {
        let st = Inst::st(Space::Global, MemAddr::new(Reg(2), 4), Reg(3));
        let regs = st.src_regs();
        assert!(regs.contains(&Reg(2)));
        assert!(regs.contains(&Reg(3)));
    }

    #[test]
    fn display_smoke() {
        let mut i = Inst::setp(CmpOp::Eq, Ty::S32, Pred(2), Reg(15), 0);
        i.guard = Some((Pred(1), false));
        let s = i.to_string();
        assert!(s.starts_with("@!p1 setp.eq"), "{s}");
        assert!(s.contains("p2, r15, 0"), "{s}");
    }

    #[test]
    fn annot_display() {
        let a = Annot {
            acquire: true,
            sync: true,
            ..Annot::default()
        };
        assert_eq!(a.to_string(), "!acquire !sync");
        assert!(Annot::default().is_empty());
    }
}
