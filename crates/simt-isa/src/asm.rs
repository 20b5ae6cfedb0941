//! A line-oriented assembler for the PTX-flavoured text syntax.
//!
//! Syntax overview (see the crate docs for a complete example):
//!
//! ```text
//! .kernel name          ; required, first directive
//! .regs 24              ; per-thread registers used
//! .params 4             ; 32-bit parameter slots
//! .shared 128           ; shared-memory words per CTA
//! label:
//!     mov r1, %tid
//! @p2 bra label         ; guarded branch (@!p2 for negated guard)
//!     atom.global.cas r5, [r2], 0, 1 !acquire !sync
//!     st.global [r2+4], r5
//!     exit
//! ```
//!
//! Comments start with `;`, `//` or `#`. Trailing `!name` tokens attach
//! [`Annot`] instrumentation flags. Immediates may be decimal, `0x` hex, or
//! `f32` literals (`1.5`, `2f`).

use crate::{
    Annot, AtomOp, CmpOp, Inst, Kernel, KernelError, MemAddr, Op, Operand, Pred, Reg, Space,
    Special, Ty,
};
use std::collections::HashMap;
use std::fmt;

/// An assembly error with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    pub line: u32,
    pub msg: String,
}

impl AsmError {
    fn new(line: u32, msg: impl Into<String>) -> AsmError {
        AsmError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

impl From<KernelError> for AsmError {
    fn from(e: KernelError) -> AsmError {
        AsmError::new(0, e.to_string())
    }
}

/// A parsed-but-unvalidated kernel: labels are resolved, instruction lines
/// recorded, but none of [`Kernel::validate`]'s checks have run. This is the
/// input the `simt-analyze` lints operate on — a kernel the assembler would
/// *reject* (say, a branch past the end of the program) can still be
/// analyzed and explained.
#[derive(Debug, Clone)]
pub struct RawKernel {
    /// Kernel name from the `.kernel` directive.
    pub name: String,
    /// The instruction stream with targets resolved to indices.
    pub insts: Vec<Inst>,
    /// Label name → instruction index.
    pub labels: HashMap<String, usize>,
    /// Declared per-thread register count.
    pub num_regs: u8,
    /// Declared parameter slots.
    pub num_params: u32,
    /// Declared shared-memory words.
    pub shared_words: u32,
}

impl RawKernel {
    /// Validate and finish into a launchable [`Kernel`].
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] carrying the *source line* of the offending
    /// instruction for pc-specific [`KernelError`]s (file-level errors such
    /// as a missing `exit` report line 0).
    pub fn finish(self) -> Result<Kernel, AsmError> {
        let lines: Vec<u32> = self.insts.iter().map(|i| i.line).collect();
        Kernel::from_insts(
            self.name,
            self.insts,
            self.labels,
            self.num_regs,
            self.num_params,
            self.shared_words,
        )
        .map_err(|e| {
            let pc = match e {
                KernelError::RegOutOfRange { pc, .. }
                | KernelError::PredOutOfRange { pc, .. }
                | KernelError::BadTarget { pc, .. }
                | KernelError::MalformedOperands { pc, .. } => Some(pc),
                KernelError::NoExit | KernelError::Empty => None,
            };
            let line = pc.and_then(|pc| lines.get(pc).copied()).unwrap_or(0);
            AsmError::new(line, e.to_string())
        })
    }
}

/// Assemble a kernel from text.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics, unresolved labels, or kernel-level validation failures.
pub fn assemble(text: &str) -> Result<Kernel, AsmError> {
    assemble_raw(text)?.finish()
}

/// Assemble without validating: the entry point for the linter, which must
/// accept kernels [`assemble`] rejects.
///
/// # Errors
///
/// Returns an [`AsmError`] for syntax errors, unknown mnemonics, duplicate
/// or unresolved labels — defects that prevent even *parsing* the kernel.
pub fn assemble_raw(text: &str) -> Result<RawKernel, AsmError> {
    let mut name: Option<String> = None;
    let mut num_regs: u8 = 32;
    let mut num_params: u32 = 8;
    let mut shared_words: u32 = 0;
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut pending: Vec<(u32, RawInst)> = Vec::new();

    for (ln0, raw_line) in text.lines().enumerate() {
        let line_no = ln0 as u32 + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut it = rest.split_whitespace();
            let dir = it.next().unwrap_or("");
            let arg = it.next();
            match dir {
                "kernel" => {
                    let n = arg.ok_or_else(|| AsmError::new(line_no, ".kernel needs a name"))?;
                    name = Some(n.to_string());
                }
                "regs" => num_regs = parse_u32(arg, line_no, ".regs")? as u8,
                "params" => num_params = parse_u32(arg, line_no, ".params")?,
                "shared" => shared_words = parse_u32(arg, line_no, ".shared")?,
                other => {
                    return Err(AsmError::new(
                        line_no,
                        format!("unknown directive .{other}"),
                    ))
                }
            }
            continue;
        }
        // One or more labels may prefix an instruction on the same line.
        let mut rest = line;
        loop {
            if let Some(colon) = rest.find(':') {
                let head = &rest[..colon];
                if !head.is_empty()
                    && head
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
                    && !head.chars().next().unwrap().is_ascii_digit()
                {
                    if labels.insert(head.to_string(), pending.len()).is_some() {
                        return Err(AsmError::new(line_no, format!("duplicate label {head}")));
                    }
                    rest = rest[colon + 1..].trim_start();
                    continue;
                }
            }
            break;
        }
        if rest.is_empty() {
            continue;
        }
        let raw = parse_inst_line(rest, line_no)?;
        pending.push((line_no, raw));
    }

    let name = name.ok_or_else(|| AsmError::new(1, "missing .kernel directive"))?;
    let n = pending.len();
    let mut insts = Vec::with_capacity(n);
    for (line_no, raw) in pending {
        let mut inst = raw.inst;
        if let Some(lbl) = raw.target_label {
            let t = *labels
                .get(&lbl)
                .ok_or_else(|| AsmError::new(line_no, format!("unknown label {lbl}")))?;
            inst.target = Some(t);
        }
        inst.line = line_no;
        insts.push(inst);
    }
    Ok(RawKernel {
        name,
        insts,
        labels,
        num_regs,
        num_params,
        shared_words,
    })
}

struct RawInst {
    inst: Inst,
    target_label: Option<String>,
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for marker in [";", "//", "#"] {
        if let Some(p) = line.find(marker) {
            end = end.min(p);
        }
    }
    &line[..end]
}

fn parse_u32(arg: Option<&str>, line: u32, what: &str) -> Result<u32, AsmError> {
    arg.and_then(|a| a.parse().ok())
        .ok_or_else(|| AsmError::new(line, format!("{what} needs an integer argument")))
}

/// Split the operand field on commas that are not inside brackets.
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' => {
                depth += 1;
                cur.push(c);
            }
            ']' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn parse_inst_line(rest: &str, line: u32) -> Result<RawInst, AsmError> {
    let mut rest = rest.trim();
    // Guard.
    let mut guard = None;
    if let Some(g) = rest.strip_prefix('@') {
        let end = g
            .find(char::is_whitespace)
            .ok_or_else(|| AsmError::new(line, "guard without instruction"))?;
        let (gtok, tail) = g.split_at(end);
        let (neg, ptok) = match gtok.strip_prefix('!') {
            Some(p) => (true, p),
            None => (false, gtok),
        };
        let p = parse_pred(ptok, line)?;
        guard = Some((p, !neg));
        rest = tail.trim_start();
    }
    // Annotations at the end.
    let mut ann = Annot::default();
    while let Some(pos) = rest.rfind('!') {
        let tok = rest[pos + 1..].trim();
        if tok.contains(char::is_whitespace) || tok.is_empty() {
            break;
        }
        match tok {
            "acquire" => ann.acquire = true,
            "release" => ann.release = true,
            "wait" => ann.wait = true,
            "sib" => ann.sib = true,
            "sync" => ann.sync = true,
            other => return Err(AsmError::new(line, format!("unknown annotation !{other}"))),
        }
        rest = rest[..pos].trim_end();
    }
    // Mnemonic and operands.
    let (mnem, ops_str) = match rest.find(char::is_whitespace) {
        Some(p) => (&rest[..p], rest[p..].trim()),
        None => (rest, ""),
    };
    let ops = split_operands(ops_str);
    let mut raw = decode(mnem, &ops, line)?;
    raw.inst.guard = guard;
    raw.inst.ann = ann;
    Ok(raw)
}

fn parse_reg(tok: &str, line: u32) -> Result<Reg, AsmError> {
    tok.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .map(Reg)
        .ok_or_else(|| AsmError::new(line, format!("expected register, got `{tok}`")))
}

fn parse_pred(tok: &str, line: u32) -> Result<Pred, AsmError> {
    tok.strip_prefix('p')
        .and_then(|n| n.parse::<u8>().ok())
        .map(Pred)
        .ok_or_else(|| AsmError::new(line, format!("expected predicate, got `{tok}`")))
}

fn parse_operand(tok: &str, line: u32) -> Result<Operand, AsmError> {
    if let Some(sp) = tok.strip_prefix('%') {
        return Special::from_mnemonic(sp)
            .map(Operand::Special)
            .ok_or_else(|| AsmError::new(line, format!("unknown special register %{sp}")));
    }
    if tok.starts_with('r') && tok[1..].chars().all(|c| c.is_ascii_digit()) && tok.len() > 1 {
        return Ok(Operand::Reg(parse_reg(tok, line)?));
    }
    parse_imm(tok, line)
}

fn parse_imm(tok: &str, line: u32) -> Result<Operand, AsmError> {
    let t = tok.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return u32::from_str_radix(hex, 16)
            .map(Operand::Imm)
            .map_err(|_| AsmError::new(line, format!("bad hex immediate `{tok}`")));
    }
    if let Some(hex) = t.strip_prefix("-0x") {
        return u32::from_str_radix(hex, 16)
            .map(|v| Operand::Imm((v as i64).wrapping_neg() as u32))
            .map_err(|_| AsmError::new(line, format!("bad hex immediate `{tok}`")));
    }
    if t.ends_with('f') || t.contains('.') {
        let ft = t.trim_end_matches('f');
        return ft
            .parse::<f32>()
            .map(Operand::imm_f32)
            .map_err(|_| AsmError::new(line, format!("bad float immediate `{tok}`")));
    }
    t.parse::<i64>()
        .map(|v| Operand::Imm(v as u32))
        .map_err(|_| AsmError::new(line, format!("bad immediate `{tok}`")))
}

fn parse_addr(tok: &str, line: u32) -> Result<MemAddr, AsmError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| AsmError::new(line, format!("expected [addr], got `{tok}`")))?
        .trim();
    // Forms: imm, rN, rN+imm, rN-imm.
    if let Ok(abs) = inner.parse::<i32>() {
        return Ok(MemAddr::abs(abs));
    }
    if let Some(plus) = inner.find('+') {
        let base = parse_reg(inner[..plus].trim(), line)?;
        let off: i32 = inner[plus + 1..]
            .trim()
            .parse()
            .map_err(|_| AsmError::new(line, format!("bad address offset in `{tok}`")))?;
        return Ok(MemAddr::new(base, off));
    }
    if let Some(minus) = inner[1..].find('-') {
        let minus = minus + 1;
        let base = parse_reg(inner[..minus].trim(), line)?;
        let off: i32 = inner[minus + 1..]
            .trim()
            .parse()
            .map_err(|_| AsmError::new(line, format!("bad address offset in `{tok}`")))?;
        return Ok(MemAddr::new(base, -off));
    }
    Ok(MemAddr::new(parse_reg(inner, line)?, 0))
}

fn parse_ty(parts: &[&str], line: u32) -> Result<Ty, AsmError> {
    match parts {
        [] => Ok(Ty::S32),
        ["s32"] => Ok(Ty::S32),
        ["u32"] => Ok(Ty::U32),
        ["f32"] => Ok(Ty::F32),
        other => Err(AsmError::new(
            line,
            format!("unknown type suffix .{}", other.join(".")),
        )),
    }
}

fn need(ops: &[String], n: usize, mnem: &str, line: u32) -> Result<(), AsmError> {
    if ops.len() != n {
        Err(AsmError::new(
            line,
            format!("{mnem} expects {n} operands, got {}", ops.len()),
        ))
    } else {
        Ok(())
    }
}

fn decode(mnem: &str, ops: &[String], line: u32) -> Result<RawInst, AsmError> {
    let parts: Vec<&str> = mnem.split('.').collect();
    let base = parts[0];
    let sfx = &parts[1..];
    let mut target_label = None;

    let inst = match base {
        "mov" => {
            need(ops, 2, mnem, line)?;
            let mut i = Inst::new(Op::Mov);
            i.dst = Some(parse_reg(&ops[0], line)?);
            i.srcs.push(parse_operand(&ops[1], line)?);
            i
        }
        "add" | "sub" | "mul" | "min" | "max" | "div" | "rem" => {
            need(ops, 3, mnem, line)?;
            let ty = parse_ty(sfx, line)?;
            let op = match base {
                "add" => Op::Add(ty),
                "sub" => Op::Sub(ty),
                "mul" => Op::Mul(ty),
                "min" => Op::Min(ty),
                "max" => Op::Max(ty),
                "div" => Op::Div(ty),
                _ => Op::Rem(ty),
            };
            three(op, ops, line)?
        }
        "mad" => {
            need(ops, 4, mnem, line)?;
            let ty = parse_ty(sfx, line)?;
            let mut i = Inst::new(Op::Mad(ty));
            i.dst = Some(parse_reg(&ops[0], line)?);
            for o in &ops[1..] {
                i.srcs.push(parse_operand(o, line)?);
            }
            i
        }
        "and" | "or" | "xor" | "shl" | "shr" | "sra" => {
            need(ops, 3, mnem, line)?;
            let op = match base {
                "and" => Op::And,
                "or" => Op::Or,
                "xor" => Op::Xor,
                "shl" => Op::Shl,
                "shr" => Op::Shr,
                _ => Op::Sra,
            };
            three(op, ops, line)?
        }
        "not" | "neg" | "sqrt" => {
            need(ops, 2, mnem, line)?;
            let op = match base {
                "not" => Op::Not,
                "neg" => Op::Neg(parse_ty(sfx, line)?),
                _ => Op::Sqrt,
            };
            let mut i = Inst::new(op);
            i.dst = Some(parse_reg(&ops[0], line)?);
            i.srcs.push(parse_operand(&ops[1], line)?);
            i
        }
        "cvt" => {
            need(ops, 2, mnem, line)?;
            let op = match sfx {
                ["f32", "s32"] => Op::CvtI2F,
                ["s32", "f32"] => Op::CvtF2I,
                _ => return Err(AsmError::new(line, format!("unknown cvt form {mnem}"))),
            };
            let mut i = Inst::new(op);
            i.dst = Some(parse_reg(&ops[0], line)?);
            i.srcs.push(parse_operand(&ops[1], line)?);
            i
        }
        "selp" => {
            need(ops, 4, mnem, line)?;
            let mut i = Inst::new(Op::Selp);
            i.dst = Some(parse_reg(&ops[0], line)?);
            i.srcs.push(parse_operand(&ops[1], line)?);
            i.srcs.push(parse_operand(&ops[2], line)?);
            i.psrcs.push(parse_pred(&ops[3], line)?);
            i
        }
        "setp" => {
            need(ops, 3, mnem, line)?;
            if sfx.is_empty() {
                return Err(AsmError::new(line, "setp needs a comparison suffix"));
            }
            let cmp = CmpOp::from_mnemonic(sfx[0])
                .ok_or_else(|| AsmError::new(line, format!("unknown comparison .{}", sfx[0])))?;
            let ty = parse_ty(&sfx[1..], line)?;
            let mut i = Inst::new(Op::Setp(cmp, ty));
            i.pdst = Some(parse_pred(&ops[0], line)?);
            i.srcs.push(parse_operand(&ops[1], line)?);
            i.srcs.push(parse_operand(&ops[2], line)?);
            i
        }
        "pand" | "por" => {
            need(ops, 3, mnem, line)?;
            let mut i = Inst::new(if base == "pand" { Op::PAnd } else { Op::POr });
            i.pdst = Some(parse_pred(&ops[0], line)?);
            i.psrcs.push(parse_pred(&ops[1], line)?);
            i.psrcs.push(parse_pred(&ops[2], line)?);
            i
        }
        "pnot" => {
            need(ops, 2, mnem, line)?;
            let mut i = Inst::new(Op::PNot);
            i.pdst = Some(parse_pred(&ops[0], line)?);
            i.psrcs.push(parse_pred(&ops[1], line)?);
            i
        }
        "bra" => {
            need(ops, 1, mnem, line)?;
            target_label = Some(ops[0].clone());
            Inst::new(Op::Bra)
        }
        "ld" => {
            need(ops, 2, mnem, line)?;
            let (space, vol) = parse_space(sfx, line)?;
            let mut i = Inst::new(Op::Ld(space, vol));
            i.dst = Some(parse_reg(&ops[0], line)?);
            i.addr = Some(parse_addr(&ops[1], line)?);
            i
        }
        "st" => {
            need(ops, 2, mnem, line)?;
            let (space, vol) = parse_space(sfx, line)?;
            let mut i = Inst::new(Op::St(space, vol));
            i.addr = Some(parse_addr(&ops[0], line)?);
            i.srcs.push(parse_operand(&ops[1], line)?);
            i
        }
        "atom" => {
            // atom.global.<op>
            let aop = match sfx {
                ["global", rest] => AtomOp::from_mnemonic(rest)
                    .ok_or_else(|| AsmError::new(line, format!("unknown atomic .{rest}")))?,
                _ => {
                    return Err(AsmError::new(
                        line,
                        "atomics must be atom.global.<op>".to_string(),
                    ))
                }
            };
            need(ops, 2 + aop.src_count(), mnem, line)?;
            let mut i = Inst::new(Op::Atom(aop));
            i.dst = Some(parse_reg(&ops[0], line)?);
            i.addr = Some(parse_addr(&ops[1], line)?);
            for o in &ops[2..] {
                i.srcs.push(parse_operand(o, line)?);
            }
            i
        }
        "bar" => Inst::new(Op::Bar),
        "membar" => Inst::new(Op::Membar),
        "clock" => {
            need(ops, 1, mnem, line)?;
            let mut i = Inst::new(Op::Clock);
            i.dst = Some(parse_reg(&ops[0], line)?);
            i
        }
        "exit" => Inst::new(Op::Exit),
        "nop" => Inst::new(Op::Nop),
        other => return Err(AsmError::new(line, format!("unknown mnemonic `{other}`"))),
    };
    Ok(RawInst { inst, target_label })
}

fn three(op: Op, ops: &[String], line: u32) -> Result<Inst, AsmError> {
    let mut i = Inst::new(op);
    i.dst = Some(parse_reg(&ops[0], line)?);
    i.srcs.push(parse_operand(&ops[1], line)?);
    i.srcs.push(parse_operand(&ops[2], line)?);
    Ok(i)
}

fn parse_space(sfx: &[&str], line: u32) -> Result<(Space, bool), AsmError> {
    let (space_tok, rest) = sfx
        .split_first()
        .ok_or_else(|| AsmError::new(line, "memory op needs a space suffix"))?;
    let space = match *space_tok {
        "global" => Space::Global,
        "shared" => Space::Shared,
        "param" => Space::Param,
        other => return Err(AsmError::new(line, format!("unknown space .{other}"))),
    };
    let vol = match rest {
        [] => false,
        ["volatile"] => true,
        other => {
            return Err(AsmError::new(
                line,
                format!("unknown memory suffix .{}", other.join(".")),
            ))
        }
    };
    Ok((space, vol))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPIN: &str = r#"
        ; Figure 7a busy-wait loop, in our syntax.
        .kernel spin
        .regs 30
        .params 1
            ld.param r29, [0]
            mov r21, 0
        BB2:
            atom.global.cas r15, [r29], 0, 1 !acquire !sync
            setp.eq.s32 p2, r15, 0
        @p2 bra BB3
            bra BB4
        BB3:
            mov r21, 1          ; critical section
        BB4:
            setp.eq.s16 p3, r21, 0
        @p3 bra BB2 !sib !sync
            exit
    "#;

    // Note: .s16 is not in our ISA; keep sources 32-bit.
    const SPIN_FIXED: &str = r#"
        .kernel spin
        .regs 30
        .params 1
            ld.param r29, [0]
            mov r21, 0
        BB2:
            atom.global.cas r15, [r29], 0, 1 !acquire !sync
            setp.eq.s32 p2, r15, 0
        @p2 bra BB3
            bra BB4
        BB3:
            mov r21, 1
        BB4:
            setp.eq.s32 p3, r21, 0
        @p3 bra BB2 !sib !sync
            exit
    "#;

    #[test]
    fn rejects_unknown_type_suffix() {
        assert!(assemble(SPIN).is_err());
    }

    #[test]
    fn assembles_figure7a_loop() {
        let k = assemble(SPIN_FIXED).unwrap();
        assert_eq!(k.name, "spin");
        assert_eq!(k.insts.len(), 10);
        assert_eq!(k.labels["BB2"], 2);
        // The !sib branch is the backward branch at index 8.
        assert_eq!(k.true_sibs, vec![8]);
        assert_eq!(k.backward_branches(), vec![8]);
        // CAS annotation.
        assert!(k.insts[2].ann.acquire);
        assert!(k.insts[2].ann.sync);
        // Guarded branch at 4 targets BB3 (index 6).
        assert_eq!(k.insts[4].target, Some(6));
        assert_eq!(k.insts[4].guard, Some((Pred(2), true)));
        // Reconvergence of the if/else at the BB4 setp (index 7).
        assert_eq!(k.reconv[4], 7);
    }

    #[test]
    fn parses_all_operand_kinds() {
        let k = assemble(
            r#"
            .kernel ops
            .regs 8
                mov r1, %tid
                mov r2, -5
                mov r3, 0x10
                mov r4, 1.5
                mov r5, 2f
                add.u32 r1, r1, r2
                ld.global.volatile r2, [r1+8]
                st.shared [r1-4], r3
                selp r1, r2, r3, p0
                clock r6
                exit
            "#,
        )
        .unwrap();
        assert_eq!(k.insts[1].srcs[0], Operand::imm_i32(-5));
        assert_eq!(k.insts[2].srcs[0], Operand::Imm(0x10));
        assert_eq!(k.insts[3].srcs[0], Operand::imm_f32(1.5));
        assert_eq!(k.insts[4].srcs[0], Operand::imm_f32(2.0));
        assert_eq!(k.insts[6].op, Op::Ld(Space::Global, true));
        assert_eq!(k.insts[6].addr, Some(MemAddr::new(Reg(1), 8)));
        assert_eq!(k.insts[7].addr, Some(MemAddr::new(Reg(1), -4)));
    }

    #[test]
    fn negated_guard() {
        let k = assemble(
            r#"
            .kernel g
            .regs 4
            top:
            @!p1 bra top
                exit
            "#,
        )
        .unwrap();
        assert_eq!(k.insts[0].guard, Some((Pred(1), false)));
    }

    #[test]
    fn error_reports_line() {
        let err = assemble(".kernel x\n.regs 4\n    bogus r1, r2\n    exit").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("bogus"));
    }

    #[test]
    fn unknown_label_is_error() {
        let err = assemble(".kernel x\n.regs 4\n bra nowhere\n exit").unwrap_err();
        assert!(err.msg.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_error() {
        let err = assemble(".kernel x\na:\na:\n exit").unwrap_err();
        assert!(err.msg.contains("duplicate"));
    }

    #[test]
    fn comments_everywhere() {
        let k = assemble("; top\n.kernel c // name\n.regs 4 # regs\n mov r1, 2 ; set\n exit\n")
            .unwrap();
        assert_eq!(k.insts.len(), 2);
    }

    #[test]
    fn atom_operand_counts() {
        // cas needs 2 value operands, exch 1.
        assert!(assemble(".kernel a\n.regs 4\n atom.global.cas r1, [r2], 0\n exit").is_err());
        let k = assemble(".kernel a\n.regs 4\n atom.global.exch r1, [r2], 0\n exit").unwrap();
        assert_eq!(k.insts[0].srcs.len(), 1);
    }

    #[test]
    fn disasm_reassembles() {
        let k = assemble(SPIN_FIXED).unwrap();
        let d = k.disasm();
        let k2 = assemble(&d).unwrap();
        assert_eq!(k.insts.len(), k2.insts.len());
        for (a, b) in k.insts.iter().zip(&k2.insts) {
            assert_eq!(a.op, b.op, "{a} vs {b}");
            assert_eq!(a.target, b.target);
            assert_eq!(a.srcs, b.srcs);
        }
    }
}
