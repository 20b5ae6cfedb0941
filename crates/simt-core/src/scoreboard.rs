//! Per-warp scoreboard tracking in-flight register writes.

use simt_isa::{Pred, Reg};

/// Dependency scoreboard for one warp: registers and predicates with
/// outstanding writes. An instruction may not issue while any of its source
/// *or* destination registers is pending (RAW and WAW hazards).
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    /// Bitmask over 256 possible registers.
    regs: [u64; 4],
    /// Bitmask over 8 predicates.
    preds: u8,
}

impl Scoreboard {
    /// Fresh scoreboard with nothing pending.
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    #[inline]
    fn reg_bit(r: Reg) -> (usize, u64) {
        ((r.0 >> 6) as usize, 1u64 << (r.0 & 63))
    }

    /// Is this register pending?
    pub fn reg_pending(&self, r: Reg) -> bool {
        let (w, b) = Self::reg_bit(r);
        self.regs[w] & b != 0
    }

    /// Is this predicate pending?
    pub fn pred_pending(&self, p: Pred) -> bool {
        self.preds & (1 << p.0) != 0
    }

    /// Mask-based hazard check against a pre-decoded instruction's
    /// read/write sets (`DecodedInst::reg_mask` / `pred_mask`): would the
    /// instruction have a hazard right now? Four ANDs and one predicate
    /// AND, no allocation.
    #[inline]
    pub fn has_hazard_masks(&self, regs: &[u64; 4], preds: u8) -> bool {
        ((self.regs[0] & regs[0])
            | (self.regs[1] & regs[1])
            | (self.regs[2] & regs[2])
            | (self.regs[3] & regs[3]))
            != 0
            || (self.preds & preds) != 0
    }

    /// Reserve a single destination register at issue (decoded path).
    #[inline]
    pub fn reserve_reg(&mut self, r: Reg) {
        let (w, b) = Self::reg_bit(r);
        self.regs[w] |= b;
    }

    /// Reserve a single destination predicate at issue (decoded path).
    #[inline]
    pub fn reserve_pred(&mut self, p: Pred) {
        self.preds |= 1 << p.0;
    }

    /// Release a register at writeback.
    pub fn release_reg(&mut self, r: Reg) {
        let (w, b) = Self::reg_bit(r);
        self.regs[w] &= !b;
    }

    /// Release a predicate at writeback.
    pub fn release_pred(&mut self, p: Pred) {
        self.preds &= !(1 << p.0);
    }

    /// Anything still pending? (warp-completion sanity check)
    pub fn is_clear(&self) -> bool {
        self.regs == [0; 4] && self.preds == 0
    }

    /// Register indices with outstanding writes (hang diagnostics).
    pub fn pending_regs(&self) -> Vec<u16> {
        let mut out = Vec::new();
        for (word, &bits) in self.regs.iter().enumerate() {
            let mut b = bits;
            while b != 0 {
                out.push((word as u16) * 64 + b.trailing_zeros() as u16);
                b &= b - 1;
            }
        }
        out
    }
}

simt_snap::snap_struct!(Scoreboard {
    regs: [u64; 4],
    preds: u8
});

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{CmpOp, DecodedKernel, Inst, Kernel, Op, Ty};

    /// The live issue-side pair, as `Sm` drives it: the hazard check reads
    /// the masks a launch decodes for `inst`, and the destinations are
    /// reserved one by one.
    fn has_hazard(sb: &Scoreboard, inst: &Inst) -> bool {
        let kernel = Kernel::from_insts(
            "probe",
            vec![inst.clone(), Inst::new(Op::Exit)],
            Default::default(),
            u8::MAX,
            0,
            0,
        )
        .expect("probe kernel is valid");
        let d = &DecodedKernel::decode(&kernel).insts[0];
        sb.has_hazard_masks(&d.reg_mask, d.pred_mask)
    }

    fn reserve(sb: &mut Scoreboard, inst: &Inst) {
        if let Some(d) = inst.dst {
            sb.reserve_reg(d);
        }
        if let Some(p) = inst.pdst {
            sb.reserve_pred(p);
        }
    }

    #[test]
    fn raw_hazard() {
        let mut sb = Scoreboard::new();
        let producer = Inst::mov(Reg(5), 1);
        reserve(&mut sb, &producer);
        let consumer = Inst::binary(Op::Add(Ty::S32), Reg(6), Reg(5), 1);
        assert!(has_hazard(&sb, &consumer));
        sb.release_reg(Reg(5));
        assert!(!has_hazard(&sb, &consumer));
        assert!(sb.is_clear());
    }

    #[test]
    fn waw_hazard() {
        let mut sb = Scoreboard::new();
        reserve(&mut sb, &Inst::mov(Reg(5), 1));
        assert!(has_hazard(&sb, &Inst::mov(Reg(5), 2)));
        assert!(!has_hazard(&sb, &Inst::mov(Reg(6), 2)));
    }

    #[test]
    fn pred_hazards_including_guard() {
        let mut sb = Scoreboard::new();
        let setp = Inst::setp(CmpOp::Eq, Ty::S32, Pred(2), Reg(0), 0);
        reserve(&mut sb, &setp);
        assert!(sb.pred_pending(Pred(2)));
        // A branch guarded by p2 must wait.
        let mut bra = Inst::bra(0);
        bra.guard = Some((Pred(2), true));
        assert!(has_hazard(&sb, &bra));
        sb.release_pred(Pred(2));
        assert!(!has_hazard(&sb, &bra));
    }

    #[test]
    fn high_register_indices() {
        let mut sb = Scoreboard::new();
        reserve(&mut sb, &Inst::mov(Reg(200), 1));
        assert!(sb.reg_pending(Reg(200)));
        assert!(!sb.reg_pending(Reg(199)));
        sb.release_reg(Reg(200));
        assert!(sb.is_clear());
    }

    #[test]
    fn addr_base_is_a_source() {
        let mut sb = Scoreboard::new();
        reserve(&mut sb, &Inst::mov(Reg(3), 1));
        let ld = Inst::ld(
            simt_isa::Space::Global,
            Reg(4),
            simt_isa::MemAddr::new(Reg(3), 0),
        );
        assert!(has_hazard(&sb, &ld));
    }
}
