//! Opcodes, comparison operators, types, atomic operations and address spaces.

use std::fmt;

/// Operand/result interpretation for ALU and `setp` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ty {
    /// Signed 32-bit integer (the default).
    #[default]
    S32,
    /// Unsigned 32-bit integer.
    U32,
    /// IEEE-754 single precision, stored bit-exact in the 32-bit register.
    F32,
}

impl Ty {
    /// Assembler suffix (`.s32` etc.); the default `s32` may be omitted.
    pub fn suffix(self) -> &'static str {
        match self {
            Ty::S32 => "s32",
            Ty::U32 => "u32",
            Ty::F32 => "f32",
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Comparison operator of a `setp` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    pub fn from_mnemonic(s: &str) -> Option<CmpOp> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }

    /// Evaluate over two 32-bit words under the given type interpretation.
    #[inline]
    pub fn eval(self, ty: Ty, a: u32, b: u32) -> bool {
        match ty {
            Ty::S32 => {
                let (a, b) = (a as i32, b as i32);
                match self {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                }
            }
            Ty::U32 => match self {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            },
            Ty::F32 => {
                let (a, b) = (f32::from_bits(a), f32::from_bits(b));
                match self {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                }
            }
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Read-modify-write operation of an `atom` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// Compare-and-swap: `atom.cas d, [a], cmp, new`.
    Cas,
    /// Exchange: `atom.exch d, [a], new`.
    Exch,
    /// Fetch-and-add.
    Add,
    /// Fetch-and-max (signed).
    Max,
    /// Fetch-and-min (signed).
    Min,
    /// Fetch-and-and.
    And,
    /// Fetch-and-or.
    Or,
}

// In-flight atomic requests ride in checkpoints.
simt_snap::snap_enum!(AtomOp, "atomic op" {
    0 => Cas {},
    1 => Exch {},
    2 => Add {},
    3 => Max {},
    4 => Min {},
    5 => And {},
    6 => Or {},
});

impl AtomOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            AtomOp::Cas => "cas",
            AtomOp::Exch => "exch",
            AtomOp::Add => "add",
            AtomOp::Max => "max",
            AtomOp::Min => "min",
            AtomOp::And => "and",
            AtomOp::Or => "or",
        }
    }

    pub fn from_mnemonic(s: &str) -> Option<AtomOp> {
        Some(match s {
            "cas" => AtomOp::Cas,
            "exch" => AtomOp::Exch,
            "add" => AtomOp::Add,
            "max" => AtomOp::Max,
            "min" => AtomOp::Min,
            "and" => AtomOp::And,
            "or" => AtomOp::Or,
            _ => return None,
        })
    }

    /// Number of non-address source operands the instruction carries.
    pub fn src_count(self) -> usize {
        match self {
            AtomOp::Cas => 2,
            _ => 1,
        }
    }

    /// Apply the read-modify-write: returns the new memory value given the
    /// old value and the operands. CAS takes `(compare, new)`.
    pub fn apply(self, old: u32, a: u32, b: u32) -> u32 {
        match self {
            AtomOp::Cas => {
                if old == a {
                    b
                } else {
                    old
                }
            }
            AtomOp::Exch => a,
            AtomOp::Add => old.wrapping_add(a),
            AtomOp::Max => (old as i32).max(a as i32) as u32,
            AtomOp::Min => (old as i32).min(a as i32) as u32,
            AtomOp::And => old & a,
            AtomOp::Or => old | a,
        }
    }
}

impl fmt::Display for AtomOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Memory address space of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device global memory, cached in L1/L2.
    Global,
    /// CTA-private scratchpad.
    Shared,
    /// Read-only kernel parameters.
    Param,
}

impl Space {
    pub fn mnemonic(self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Shared => "shared",
            Space::Param => "param",
        }
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The instruction set.
///
/// Type-parameterized arithmetic carries a [`Ty`]; everything defaults to
/// `s32`. The operand layout per opcode is documented on [`crate::Inst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `mov d, a`.
    Mov,
    /// `add[.ty] d, a, b`.
    Add(Ty),
    /// `sub[.ty] d, a, b`.
    Sub(Ty),
    /// `mul[.ty] d, a, b` (low 32 bits for integers).
    Mul(Ty),
    /// `mad[.ty] d, a, b, c` — `d = a * b + c`.
    Mad(Ty),
    /// `div[.ty] d, a, b`. Integer division by zero yields all-ones.
    Div(Ty),
    /// `rem d, a, b` (integer only). Remainder by zero yields `a`.
    Rem(Ty),
    /// `min[.ty] d, a, b`.
    Min(Ty),
    /// `max[.ty] d, a, b`.
    Max(Ty),
    /// `and d, a, b` (bitwise).
    And,
    /// `or d, a, b`.
    Or,
    /// `xor d, a, b`.
    Xor,
    /// `not d, a`.
    Not,
    /// `neg[.ty] d, a`.
    Neg(Ty),
    /// `shl d, a, b` — logical shift left by `b & 31`.
    Shl,
    /// `shr d, a, b` — logical shift right.
    Shr,
    /// `sra d, a, b` — arithmetic shift right.
    Sra,
    /// `sqrt.f32 d, a`.
    Sqrt,
    /// `cvt.f32.s32 d, a` — int to float.
    CvtI2F,
    /// `cvt.s32.f32 d, a` — float to int (round toward zero).
    CvtF2I,
    /// `selp d, a, b, p` — `d = p ? a : b`.
    Selp,
    /// `setp.<cmp>[.ty] p, a, b` — the predicate-setting instruction DDOS
    /// observes (path hash of its PC, value hashes of its two sources).
    Setp(CmpOp, Ty),
    /// `pand d, a, b` on predicates.
    PAnd,
    /// `por d, a, b` on predicates.
    POr,
    /// `pnot d, a` on predicates.
    PNot,
    /// `bra target` — branch, usually guarded `@p bra target`.
    Bra,
    /// `ld.<space>[.volatile] d, [a+imm]`. Volatile global loads bypass L1.
    Ld(Space, bool),
    /// `st.<space>[.volatile] [a+imm], b`.
    St(Space, bool),
    /// `atom.global.<op> d, [a+imm], b[, c]` — performed at the L2 partition.
    Atom(AtomOp),
    /// `bar.sync` — CTA-wide barrier.
    Bar,
    /// `membar` — wait until all of this warp's outstanding memory operations
    /// have completed (conservative `__threadfence`).
    Membar,
    /// `clock d` — read the SM cycle counter (low 32 bits).
    Clock,
    /// `exit` — thread termination.
    Exit,
    /// `nop`.
    Nop,
}

/// Coarse functional-unit class, used for issue latency and energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer / logic / predicate ALU.
    IntAlu,
    /// Floating point unit.
    FpAlu,
    /// Special function unit (div, sqrt).
    Sfu,
    /// Control (branch, exit, nop, clock).
    Control,
    /// Global/param memory access.
    GlobalMem,
    /// Shared memory access.
    SharedMem,
    /// Atomic operation.
    Atomic,
    /// Barrier / fence.
    Sync,
}

impl Op {
    /// Functional-unit class of this opcode.
    pub fn class(self) -> OpClass {
        use Op::*;
        match self {
            Mov | And | Or | Xor | Not | Shl | Shr | Sra | Selp | PAnd | POr | PNot => {
                OpClass::IntAlu
            }
            Add(t) | Sub(t) | Mul(t) | Mad(t) | Min(t) | Max(t) | Neg(t) => match t {
                Ty::F32 => OpClass::FpAlu,
                _ => OpClass::IntAlu,
            },
            Div(_) | Rem(_) | Sqrt => OpClass::Sfu,
            CvtI2F | CvtF2I => OpClass::FpAlu,
            Setp(_, t) => match t {
                Ty::F32 => OpClass::FpAlu,
                _ => OpClass::IntAlu,
            },
            Bra | Exit | Nop | Clock => OpClass::Control,
            Ld(Space::Shared, _) | St(Space::Shared, _) => OpClass::SharedMem,
            Ld(_, _) | St(_, _) => OpClass::GlobalMem,
            Atom(_) => OpClass::Atomic,
            Bar | Membar => OpClass::Sync,
        }
    }

    /// True for instructions that access the memory pipeline.
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Ld(..) | Op::St(..) | Op::Atom(..))
    }

    /// True for `setp` — the instruction DDOS profiles.
    pub fn is_setp(self) -> bool {
        matches!(self, Op::Setp(..))
    }

    /// True for control-transfer instructions.
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Bra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_op_snap_tags_are_pinned() {
        use AtomOp::*;
        for (tag, op) in [Cas, Exch, Add, Max, Min, And, Or].into_iter().enumerate() {
            assert_eq!(simt_snap::assert_snap_laws(&op), [tag as u8]);
        }
    }

    #[test]
    fn cmp_eval_signed_vs_unsigned() {
        // 0xffff_ffff is -1 signed, u32::MAX unsigned.
        assert!(CmpOp::Lt.eval(Ty::S32, 0xffff_ffff, 0));
        assert!(!CmpOp::Lt.eval(Ty::U32, 0xffff_ffff, 0));
        assert!(CmpOp::Ge.eval(Ty::U32, 0xffff_ffff, 0));
    }

    #[test]
    fn cmp_eval_float() {
        let a = 1.5f32.to_bits();
        let b = 2.5f32.to_bits();
        assert!(CmpOp::Lt.eval(Ty::F32, a, b));
        assert!(CmpOp::Ne.eval(Ty::F32, a, b));
        assert!(CmpOp::Eq.eval(Ty::F32, a, a));
    }

    #[test]
    fn atom_cas_semantics() {
        // Successful CAS: old == compare, memory becomes new.
        assert_eq!(AtomOp::Cas.apply(0, 0, 1), 1);
        // Failed CAS: memory unchanged.
        assert_eq!(AtomOp::Cas.apply(7, 0, 1), 7);
    }

    #[test]
    fn atom_arith() {
        assert_eq!(AtomOp::Add.apply(5, 3, 0), 8);
        assert_eq!(AtomOp::Exch.apply(5, 3, 0), 3);
        assert_eq!(AtomOp::Max.apply(5, (-3i32) as u32, 0), 5);
        assert_eq!(AtomOp::Min.apply(5, (-3i32) as u32, 0), (-3i32) as u32);
        assert_eq!(AtomOp::And.apply(0b1100, 0b1010, 0), 0b1000);
        assert_eq!(AtomOp::Or.apply(0b1100, 0b1010, 0), 0b1110);
    }

    #[test]
    fn op_classes() {
        assert_eq!(Op::Add(Ty::S32).class(), OpClass::IntAlu);
        assert_eq!(Op::Add(Ty::F32).class(), OpClass::FpAlu);
        assert_eq!(Op::Div(Ty::S32).class(), OpClass::Sfu);
        assert_eq!(Op::Ld(Space::Global, false).class(), OpClass::GlobalMem);
        assert_eq!(Op::Ld(Space::Shared, false).class(), OpClass::SharedMem);
        assert_eq!(Op::Atom(AtomOp::Cas).class(), OpClass::Atomic);
        assert!(Op::Atom(AtomOp::Cas).is_mem());
        assert!(Op::Setp(CmpOp::Eq, Ty::S32).is_setp());
        assert!(Op::Bra.is_branch());
    }

    #[test]
    fn wrapping_add_applies() {
        assert_eq!(AtomOp::Add.apply(u32::MAX, 1, 0), 0);
    }
}
