//! Pre-decoded micro-op stream: the flat, hot-path form of a kernel.
//!
//! The `Inst` form is optimized for assembly, linting and display: operands
//! live in `Vec`s, opcodes carry nested type parameters, and every consumer
//! re-derives what it needs (source-register lists, branch direction,
//! reconvergence points) on each use. The SM's issue/execute path runs that
//! derivation once per instruction *per cycle*, which is pure overhead.
//!
//! [`DecodedKernel::decode`] lowers a validated [`Kernel`] once, at launch,
//! into a dense [`DecodedInst`] table:
//!
//! * scoreboard hazard masks (`reg_mask`/`pred_mask`) are precomputed, so
//!   eligibility checks are four ANDs instead of a `Vec`-allocating walk over
//!   the operand list;
//! * sources are a fixed `[Operand; 3]` (absent slots read as `Imm(0)`,
//!   matching the executor's defaults), destinations and predicates are
//!   unwrapped, and the address operand is split into base/offset fields;
//! * ALU opcodes and `setp` comparisons resolve to monomorphic *column*
//!   evaluators over all 32 lanes of a warp — fixed-trip loops the compiler
//!   vectorises — so the executor makes one indirect call per instruction
//!   instead of one per lane;
//! * branches carry their reconvergence pc, direction and distance.
//!
//! Decoding relies on the operand-shape validation that every kernel passes
//! before launch (`Kernel::validate` / `Kernel::from_insts`): a class that
//! requires a destination or address is guaranteed to have one.

use crate::{AtomOp, CmpOp, Inst, Kernel, Op, OpClass, Operand, Pred, Reg, Space, Ty};

/// One register (or broadcast operand) across the 32 lanes of a warp.
pub type Column = [u32; 32];

/// Monomorphic ALU evaluator for a whole warp: `(a, b, c, out)`. Every
/// lane is evaluated, active or not — no opcode can fault — and the caller
/// keeps the lanes it wants.
pub type AluColumnFn = fn(&Column, &Column, &Column, &mut Column);

/// Monomorphic `setp` evaluator for a whole warp: bit `i` of the result is
/// the comparison of lane `i`.
pub type CmpColumnFn = fn(&Column, &Column) -> u32;

/// Executor dispatch class with pre-resolved payloads. One flat match in the
/// SM replaces the nested `Op`/`Space` matches of the `Inst` path.
#[derive(Debug, Clone, Copy)]
pub enum ExecClass {
    /// Register-writing ALU op; the payload evaluates all 32 lanes.
    Alu(AluColumnFn),
    /// Predicate-select between two sources.
    Selp,
    /// Predicate-writing compare; the payload evaluates all 32 lanes.
    Setp(CmpColumnFn),
    /// Predicate logic over `psrc0`/`psrc1`.
    PAnd,
    POr,
    PNot,
    /// Branch to `target` (reconvergence at `rpc`).
    Bra,
    /// Parameter-space load.
    LdParam,
    /// Shared-memory load.
    LdShared,
    /// Global load; `bypass_l1` for volatile accesses.
    LdGlobal {
        bypass_l1: bool,
    },
    /// Store to param space is a kernel bug the executor reports.
    StParam,
    StShared,
    StGlobal,
    /// Global atomic.
    Atom(AtomOp),
    Bar,
    Membar,
    Clock,
    Exit,
    Nop,
}

/// One pre-decoded instruction. All fields are flat and `Copy`; fields that
/// a class does not use hold harmless defaults (`Reg(0)`, `Pred(0)`, zero).
#[derive(Debug, Clone, Copy)]
pub struct DecodedInst {
    /// Executor dispatch class.
    pub class: ExecClass,
    /// Latency/statistics class (from [`Op::class`]).
    pub op_class: OpClass,
    /// Sources, padded with `Imm(0)` (the executor's default for absent
    /// operands).
    pub srcs: [Operand; 3],
    /// Destination register, when the class writes one.
    pub dst: Reg,
    /// Destination predicate (`setp` / predicate logic).
    pub pdst: Pred,
    /// First predicate source (`selp` select, `pand`/`por`/`pnot` input).
    pub psrc0: Pred,
    /// Second predicate source (`pand`/`por`).
    pub psrc1: Pred,
    /// `@p` / `@!p` guard.
    pub guard: Option<(Pred, bool)>,
    /// Memory address base register, when the address has one.
    pub addr_base: Option<Reg>,
    /// Memory address byte offset.
    pub addr_off: i32,
    /// Branch target (instruction index).
    pub target: usize,
    /// Reconvergence pc for this instruction's branch.
    pub rpc: usize,
    /// `target <= pc`: a backward branch.
    pub backward: bool,
    /// `pc - target` for backward branches, else 0.
    pub branch_distance: usize,
    /// Scoreboard register read/write set as bit mask (sources, address
    /// base, and destination — matching `Inst::src_regs` + `dst`).
    pub reg_mask: [u64; 4],
    /// Scoreboard predicate read/write set (psrcs, guard, pdst).
    pub pred_mask: u8,
    /// `!acquire` annotation.
    pub acquire: bool,
    /// `!release` annotation.
    pub release: bool,
    /// `!wait` annotation.
    pub wait: bool,
    /// `!sync` annotation.
    pub sync: bool,
}

/// A kernel lowered to its dense decoded form. Index with the warp's pc;
/// the table is parallel to `Kernel::insts`.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    /// One entry per instruction, same indices as `Kernel::insts`.
    pub insts: Vec<DecodedInst>,
}

impl DecodedKernel {
    /// Lower `kernel` (already shape-validated) into its decoded table.
    pub fn decode(kernel: &Kernel) -> DecodedKernel {
        let insts = kernel
            .insts
            .iter()
            .enumerate()
            .map(|(pc, inst)| decode_inst(pc, inst, kernel))
            .collect();
        DecodedKernel { insts }
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

fn decode_inst(pc: usize, inst: &Inst, kernel: &Kernel) -> DecodedInst {
    use Op::*;
    let class = match inst.op {
        Mov | Add(_) | Sub(_) | Mul(_) | Mad(_) | Div(_) | Rem(_) | Min(_) | Max(_) | And | Or
        | Xor | Not | Neg(_) | Shl | Shr | Sra | Sqrt | CvtI2F | CvtF2I => {
            ExecClass::Alu(alu_column_fn(inst.op))
        }
        Selp => ExecClass::Selp,
        Setp(c, t) => ExecClass::Setp(cmp_column_fn(c, t)),
        PAnd => ExecClass::PAnd,
        POr => ExecClass::POr,
        PNot => ExecClass::PNot,
        Bra => ExecClass::Bra,
        Ld(Space::Param, _) => ExecClass::LdParam,
        Ld(Space::Shared, _) => ExecClass::LdShared,
        Ld(Space::Global, v) => ExecClass::LdGlobal { bypass_l1: v },
        St(Space::Param, _) => ExecClass::StParam,
        St(Space::Shared, _) => ExecClass::StShared,
        St(Space::Global, _) => ExecClass::StGlobal,
        Atom(a) => ExecClass::Atom(a),
        Bar => ExecClass::Bar,
        Membar => ExecClass::Membar,
        Clock => ExecClass::Clock,
        Exit => ExecClass::Exit,
        Nop => ExecClass::Nop,
    };
    let mut srcs = [Operand::Imm(0); 3];
    for (slot, s) in inst.srcs.iter().take(3).enumerate() {
        srcs[slot] = *s;
    }
    let mut reg_mask = [0u64; 4];
    let mut set_reg = |r: Reg| reg_mask[(r.0 >> 6) as usize] |= 1u64 << (r.0 & 63);
    for r in inst.src_regs() {
        set_reg(r);
    }
    if let Some(d) = inst.dst {
        set_reg(d);
    }
    let mut pred_mask = 0u8;
    for p in &inst.psrcs {
        pred_mask |= 1 << (p.0 & 7);
    }
    if let Some((p, _)) = inst.guard {
        pred_mask |= 1 << (p.0 & 7);
    }
    if let Some(p) = inst.pdst {
        pred_mask |= 1 << (p.0 & 7);
    }
    let target = inst.target.unwrap_or(0);
    let backward = matches!(inst.op, Bra) && target <= pc;
    DecodedInst {
        class,
        op_class: inst.op.class(),
        srcs,
        dst: inst.dst.unwrap_or(Reg(0)),
        pdst: inst.pdst.unwrap_or(Pred(0)),
        psrc0: inst.psrcs.first().copied().unwrap_or(Pred(0)),
        psrc1: inst.psrcs.get(1).copied().unwrap_or(Pred(0)),
        guard: inst.guard,
        addr_base: inst.addr.and_then(|a| a.base),
        addr_off: inst.addr.map(|a| a.offset).unwrap_or(0),
        target,
        rpc: kernel.reconv.get(pc).copied().unwrap_or(crate::RECONV_EXIT),
        backward,
        branch_distance: if backward { pc - target } else { 0 },
        reg_mask,
        pred_mask,
        acquire: inst.ann.acquire,
        release: inst.ann.release,
        wait: inst.ann.wait,
        sync: inst.ann.sync,
    }
}

#[inline(always)]
fn f(x: u32) -> f32 {
    f32::from_bits(x)
}

/// The one table of ALU semantics. Each row gives an opcode's result for
/// one lane — F32 ops reinterpret register bits, integer division by zero
/// yields `u32::MAX`, remainder by zero yields the dividend, shifts mask
/// their count to 5 bits — and [`alu_column_fn`] wraps that expression in a
/// fixed 32-trip loop. The tests' `alu_fn` instantiates the same row for
/// one lane, so there is no second place to edit and nothing to disagree.
macro_rules! alu_table {
    ($($op:pat => |$a:pat_param, $b:pat_param, $c:pat_param| $lane:expr,)+) => {
        /// The one-lane evaluator for an ALU opcode: the row as written,
        /// which the column evaluator is checked against lane for lane.
        #[cfg(test)]
        fn alu_fn(op: Op) -> fn(u32, u32, u32) -> u32 {
            match op {
                $($op => |$a, $b, $c| $lane,)+
                other => unreachable!("{other:?} is not an ALU op"),
            }
        }

        /// The whole-warp evaluator for an ALU opcode: its row of the table
        /// over each of the 32 lanes.
        ///
        /// # Panics
        ///
        /// On a non-ALU opcode — callers dispatch those to their own classes.
        pub fn alu_column_fn(op: Op) -> AluColumnFn {
            match op {
                $($op => |xs, ys, zs, out| {
                    for lane in 0..32 {
                        let ($a, $b, $c) = (xs[lane], ys[lane], zs[lane]);
                        out[lane] = $lane;
                    }
                },)+
                other => unreachable!("{other:?} is not an ALU op"),
            }
        }
    };
}

alu_table! {
    Op::Mov => |a, _, _| a,
    Op::Add(Ty::F32) => |a, b, _| (f(a) + f(b)).to_bits(),
    Op::Add(_) => |a, b, _| a.wrapping_add(b),
    Op::Sub(Ty::F32) => |a, b, _| (f(a) - f(b)).to_bits(),
    Op::Sub(_) => |a, b, _| a.wrapping_sub(b),
    Op::Mul(Ty::F32) => |a, b, _| (f(a) * f(b)).to_bits(),
    Op::Mul(_) => |a, b, _| a.wrapping_mul(b),
    Op::Mad(Ty::F32) => |a, b, c| (f(a) * f(b) + f(c)).to_bits(),
    Op::Mad(_) => |a, b, c| a.wrapping_mul(b).wrapping_add(c),
    Op::Div(Ty::F32) => |a, b, _| (f(a) / f(b)).to_bits(),
    Op::Div(Ty::U32) => |a, b, _| a.checked_div(b).unwrap_or(u32::MAX),
    Op::Div(Ty::S32) => |a, b, _| match b {
        0 => u32::MAX,
        _ => (a as i32).wrapping_div(b as i32) as u32,
    },
    Op::Rem(Ty::U32) => |a, b, _| if b == 0 { a } else { a % b },
    Op::Rem(_) => |a, b, _| if b == 0 { a } else { (a as i32).wrapping_rem(b as i32) as u32 },
    Op::Min(Ty::F32) => |a, b, _| f(a).min(f(b)).to_bits(),
    Op::Min(Ty::U32) => |a, b, _| a.min(b),
    Op::Min(_) => |a, b, _| (a as i32).min(b as i32) as u32,
    Op::Max(Ty::F32) => |a, b, _| f(a).max(f(b)).to_bits(),
    Op::Max(Ty::U32) => |a, b, _| a.max(b),
    Op::Max(_) => |a, b, _| (a as i32).max(b as i32) as u32,
    Op::And => |a, b, _| a & b,
    Op::Or => |a, b, _| a | b,
    Op::Xor => |a, b, _| a ^ b,
    Op::Not => |a, _, _| !a,
    Op::Neg(Ty::F32) => |a, _, _| (-f(a)).to_bits(),
    Op::Neg(_) => |a, _, _| (a as i32).wrapping_neg() as u32,
    Op::Shl => |a, b, _| a.wrapping_shl(b & 31),
    Op::Shr => |a, b, _| a.wrapping_shr(b & 31),
    Op::Sra => |a, b, _| (a as i32).wrapping_shr(b & 31) as u32,
    Op::Sqrt => |a, _, _| f(a).sqrt().to_bits(),
    Op::CvtI2F => |a, _, _| (a as i32 as f32).to_bits(),
    Op::CvtF2I => |a, _, _| (f(a) as i32) as u32,
}

/// The whole-warp evaluator for a `setp` comparison: [`CmpOp::eval`], the
/// one definition, instantiated per (comparison, type) so that each loop
/// body is a single compare.
pub fn cmp_column_fn(cmp: CmpOp, ty: Ty) -> CmpColumnFn {
    macro_rules! column {
        ($cmp:ident, $ty:ident) => {
            |xs, ys| {
                let mut bits = 0u32;
                for lane in 0..32 {
                    bits |= u32::from(CmpOp::$cmp.eval(Ty::$ty, xs[lane], ys[lane])) << lane;
                }
                bits
            }
        };
    }
    macro_rules! per_ty {
        ($cmp:ident) => {
            match ty {
                Ty::S32 => column!($cmp, S32),
                Ty::U32 => column!($cmp, U32),
                Ty::F32 => column!($cmp, F32),
            }
        };
    }
    match cmp {
        CmpOp::Eq => per_ty!(Eq),
        CmpOp::Ne => per_ty!(Ne),
        CmpOp::Lt => per_ty!(Lt),
        CmpOp::Le => per_ty!(Le),
        CmpOp::Gt => per_ty!(Gt),
        CmpOp::Ge => per_ty!(Ge),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemAddr;

    fn decode_kernel(body: Vec<Inst>) -> DecodedKernel {
        let k = Kernel::from_insts("t", body, std::collections::HashMap::new(), 128, 4, 0)
            .expect("valid kernel");
        DecodedKernel::decode(&k)
    }

    fn decode_one(inst: Inst) -> DecodedInst {
        decode_kernel(vec![inst, Inst::new(Op::Exit)]).insts[0]
    }

    #[test]
    fn hazard_masks_cover_sources_dest_and_addr_base() {
        let d = decode_one(Inst::st(Space::Global, MemAddr::new(Reg(2), 4), Reg(67)));
        assert_ne!(d.reg_mask[0] & (1 << 2), 0, "addr base r2");
        assert_ne!(d.reg_mask[1] & (1 << 3), 0, "value source r67");
        let d = decode_one(Inst::binary(Op::Add(Ty::S32), Reg(1), Reg(5), 7));
        assert_ne!(d.reg_mask[0] & (1 << 1), 0, "dst r1 (WAW)");
        assert_ne!(d.reg_mask[0] & (1 << 5), 0, "src r5");
    }

    #[test]
    fn pred_masks_cover_guard_and_pdst() {
        let mut i = Inst::setp(CmpOp::Eq, Ty::S32, Pred(2), Reg(1), 0);
        i.guard = Some((Pred(5), true));
        let d = decode_one(i);
        assert_eq!(d.pred_mask, (1 << 2) | (1 << 5));
    }

    #[test]
    fn branch_direction_and_distance() {
        let dk = decode_kernel(vec![
            Inst::mov(Reg(0), 1),
            Inst::bra(0),
            Inst::new(Op::Exit),
        ]);
        let d = &dk.insts[1];
        assert!(d.backward);
        assert_eq!(d.target, 0);
        assert_eq!(d.branch_distance, 1);
    }

    #[test]
    fn alu_fn_matches_reference_semantics() {
        assert_eq!(alu_fn(Op::Add(Ty::S32))(2, 3, 0), 5);
        assert_eq!(alu_fn(Op::Div(Ty::S32))(7, 0, 0), u32::MAX);
        assert_eq!(alu_fn(Op::Div(Ty::U32))(7, 0, 0), u32::MAX);
        assert_eq!(alu_fn(Op::Rem(Ty::U32))(7, 0, 0), 7);
        assert_eq!(
            alu_fn(Op::Shl)(1, 37, 0),
            32,
            "shift count masked to 5 bits"
        );
        let b = |x: f32| x.to_bits();
        assert_eq!(alu_fn(Op::Mad(Ty::F32))(b(2.0), b(3.0), b(1.0)), b(7.0));
    }

    /// Every typed ALU opcode (aliases included: `add.s32` and `add.u32`
    /// share a row of the table).
    fn all_alu_ops() -> Vec<Op> {
        let tys = [Ty::S32, Ty::U32, Ty::F32];
        let mut ops = vec![
            Op::Mov,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Not,
            Op::Shl,
            Op::Shr,
            Op::Sra,
            Op::Sqrt,
            Op::CvtI2F,
            Op::CvtF2I,
        ];
        for ty in tys {
            ops.extend([
                Op::Add(ty),
                Op::Sub(ty),
                Op::Mul(ty),
                Op::Mad(ty),
                Op::Div(ty),
                Op::Rem(ty),
                Op::Min(ty),
                Op::Max(ty),
                Op::Neg(ty),
            ]);
        }
        ops
    }

    /// Integer corner cases: 0, 1, all-ones (−1), `i32::MIN` and its
    /// neighbours, shift counts ≥ 32. Read as floats, several of these are
    /// NaNs with different payloads.
    const INT_EDGES: [u32; 12] = [
        0,
        1,
        2,
        7,
        31,
        32,
        33,
        63,
        0x7fff_ffff,
        0x8000_0000,
        0x8000_0001,
        u32::MAX,
    ];

    /// Float corner cases: ±0.0, ±inf, denormals of both signs, values
    /// outside `i32` for `cvt.s32.f32` — and exactly one NaN: which of two
    /// *different* NaN operands an x86 `addss`/`mulss` propagates depends on
    /// operand order, which the compiler is free to pick per instantiation.
    const FLOAT_EDGES: [u32; 14] = [
        0,           // +0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest denormal
        0x8000_0001, // ... negative
        0x007f_ffff, // largest denormal
        0x3f80_0000, // 1.0
        0xc0a0_0000, // -5.0
        0x7f7f_ffff, // f32::MAX
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // NaN
        0x4f00_0000, // 2^31, first float past i32::MAX
        0x4f32_d05e, // 3e9
        0xcf32_d05e, // -3e9
    ];

    /// The edge values an opcode is exercised on: float arithmetic with two
    /// or more float sources sees one NaN only, everything else — integer
    /// ops, and the unary float ops, for which any NaN is deterministic —
    /// sees both sets.
    fn edges_for(op: Op) -> Vec<u32> {
        use Op::*;
        match op {
            Add(Ty::F32) | Sub(Ty::F32) | Mul(Ty::F32) | Mad(Ty::F32) | Div(Ty::F32)
            | Min(Ty::F32) | Max(Ty::F32) => FLOAT_EDGES.to_vec(),
            _ => [&INT_EDGES[..], &FLOAT_EDGES[..]].concat(),
        }
    }

    /// Columns cycling through every (a, b) pair of `edges`, once per `c` in
    /// 0, 63 and +inf (never a NaN, see [`FLOAT_EDGES`]), 32 lanes at a
    /// time.
    fn edge_columns(edges: &[u32]) -> impl Iterator<Item = [Column; 3]> + '_ {
        let n = edges.len();
        (0..n * n * 3).step_by(32).map(move |base| {
            [
                std::array::from_fn(|l| edges[(base + l) % n]),
                std::array::from_fn(|l| edges[(base + l) / n % n]),
                std::array::from_fn(|l| [0, 63, 0x7f80_0000][(base + l) / (n * n) % 3]),
            ]
        })
    }

    #[test]
    fn column_evaluators_equal_the_lane_definition() {
        for op in all_alu_ops() {
            let (lane_fn, column_fn) = (alu_fn(op), alu_column_fn(op));
            for [a, b, c] in edge_columns(&edges_for(op)) {
                let mut out = [0xdead_beef; 32];
                column_fn(&a, &b, &c, &mut out);
                for l in 0..32 {
                    assert_eq!(
                        out[l],
                        lane_fn(a[l], b[l], c[l]),
                        "{op:?} lane {l}: a={:#x} b={:#x} c={:#x}",
                        a[l],
                        b[l],
                        c[l]
                    );
                }
            }
        }
    }

    #[test]
    fn cmp_columns_equal_the_lane_definition() {
        use CmpOp::*;
        let edges = [&INT_EDGES[..], &FLOAT_EDGES[..]].concat();
        for cmp in [Eq, Ne, Lt, Le, Gt, Ge] {
            for ty in [Ty::S32, Ty::U32, Ty::F32] {
                let column_fn = cmp_column_fn(cmp, ty);
                for [a, b, _] in edge_columns(&edges) {
                    let bits = column_fn(&a, &b);
                    for l in 0..32 {
                        assert_eq!(
                            bits >> l & 1 != 0,
                            cmp.eval(ty, a[l], b[l]),
                            "{cmp:?}.{ty:?} lane {l}: a={:#x} b={:#x}",
                            a[l],
                            b[l]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edge_columns_cover_the_named_corner_cases() {
        let pairs = |op| -> std::collections::HashSet<(u32, u32)> {
            edge_columns(&edges_for(op))
                .flat_map(|[a, b, _]| (0..32).map(move |l| (a[l], b[l])))
                .collect()
        };
        let int = pairs(Op::Div(Ty::S32));
        for want in [
            (0x8000_0000, u32::MAX), // i32::MIN / -1, i32::MIN % -1
            (7, 0),                  // x / 0, x % 0
            (1, 33),                 // shift count >= 32
            (0x4f32_d05e, 0),        // cvt.s32.f32 out of range
        ] {
            assert!(int.contains(&want), "{want:x?} not generated");
        }
        let float = pairs(Op::Add(Ty::F32));
        for want in [
            (0x7fc0_0000, 0x3f80_0000), // NaN + 1.0
            (0x7f80_0000, 0xff80_0000), // inf + -inf
            (0, 0x8000_0000),           // +0.0 vs -0.0
            (0x0000_0001, 0x007f_ffff), // denormals
        ] {
            assert!(float.contains(&want), "{want:x?} not generated");
        }
    }
}
