//! Register, predicate and special-register names.

use std::fmt;

/// A general-purpose per-thread 32-bit register, `r0`..`r254`.
///
/// Registers hold untyped 32-bit words; floating-point operations reinterpret
/// the bits as IEEE-754 `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Index into a per-thread register file.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

// Checkpoints carry register names (pending writebacks, in-flight loads).
simt_snap::snap_struct!(Reg { 0: u8 });
simt_snap::snap_struct!(Pred { 0: u8 });

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A per-thread 1-bit predicate register, `p0`..`p7`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pred(pub u8);

impl Pred {
    /// Number of predicate registers per thread.
    pub const COUNT: u8 = 8;

    /// Index into a per-thread predicate file.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Read-only special registers, the `%`-prefixed names of PTX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within the CTA (x dimension).
    TidX,
    /// CTA index within the grid (x dimension).
    CtaIdX,
    /// Threads per CTA.
    NTidX,
    /// CTAs in the grid.
    NCtaIdX,
    /// Lane index within the warp (0..32).
    LaneId,
    /// Warp index within the CTA.
    WarpId,
    /// Global thread id, `ctaid.x * ntid.x + tid.x` (a convenience PTX lacks
    /// but every kernel computes).
    GlobalTid,
    /// Core cycle counter (low 32 bits), the `%clock` register. Used by the
    /// software back-off delay code of Figure 3a.
    Clock,
    /// The SM this thread is running on.
    SmId,
}

impl Special {
    /// The assembler spelling, without the leading `%`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Special::TidX => "tid",
            Special::CtaIdX => "ctaid",
            Special::NTidX => "ntid",
            Special::NCtaIdX => "nctaid",
            Special::LaneId => "laneid",
            Special::WarpId => "warpid",
            Special::GlobalTid => "gtid",
            Special::Clock => "clock",
            Special::SmId => "smid",
        }
    }

    /// Parse an assembler spelling (without the `%`).
    pub fn from_mnemonic(s: &str) -> Option<Special> {
        Some(match s {
            "tid" | "tid.x" => Special::TidX,
            "ctaid" | "ctaid.x" => Special::CtaIdX,
            "ntid" | "ntid.x" => Special::NTidX,
            "nctaid" | "nctaid.x" => Special::NCtaIdX,
            "laneid" => Special::LaneId,
            "warpid" => Special::WarpId,
            "gtid" => Special::GlobalTid,
            "clock" => Special::Clock,
            "smid" => Special::SmId,
            _ => return None,
        })
    }
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws() {
        simt_snap::assert_snap_laws(&Reg(200));
        simt_snap::assert_snap_laws(&Pred(7));
    }

    #[test]
    fn special_mnemonic_roundtrip() {
        for s in [
            Special::TidX,
            Special::CtaIdX,
            Special::NTidX,
            Special::NCtaIdX,
            Special::LaneId,
            Special::WarpId,
            Special::GlobalTid,
            Special::Clock,
            Special::SmId,
        ] {
            assert_eq!(Special::from_mnemonic(s.mnemonic()), Some(s));
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(Pred(1).to_string(), "p1");
        assert_eq!(Special::TidX.to_string(), "%tid");
    }

    #[test]
    fn unknown_special_rejected() {
        assert_eq!(Special::from_mnemonic("nonsense"), None);
    }
}
