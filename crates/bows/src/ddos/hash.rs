//! The two hashing schemes of DDOS's history registers (Section IV-B).

/// Hashing scheme used before inserting into the path/value history
/// registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashKind {
    /// Fold the 32-bit input into `bits` by XOR-ing successive `bits`-wide
    /// chunks: `v[b-1:0] ^ v[2b-1:b] ^ ...`. The paper's default; zero
    /// false detections at 8 bits.
    Xor,
    /// Keep only the least-significant `bits`. Cheap, but loops whose
    /// induction variable advances by a multiple of `2^bits` alias to a
    /// constant and cause false spin detections (Merge Sort / Heart Wall,
    /// Figure 14).
    Modulo,
}

impl HashKind {
    /// Hash a 32-bit value into `bits` bits (1..=16).
    pub fn hash(self, v: u32, bits: u8) -> u16 {
        debug_assert!((1..=16).contains(&bits));
        let mask = (1u32 << bits) - 1;
        match self {
            HashKind::Modulo => (v & mask) as u16,
            HashKind::Xor => {
                let mut acc = 0u32;
                let mut x = v;
                // Fold all 32 bits, including the final partial chunk.
                let mut consumed = 0;
                while consumed < 32 {
                    acc ^= x & mask;
                    x >>= bits;
                    consumed += bits as u32;
                }
                (acc & mask) as u16
            }
        }
    }

    /// Lower-case name for reports ("xor" / "modulo").
    pub fn name(self) -> &'static str {
        match self {
            HashKind::Xor => "xor",
            HashKind::Modulo => "modulo",
        }
    }
}

/// Hash a path-history input: the instruction *index* (the paper hashes
/// `((PC - PC_kernel_start) / inst_size)`).
pub fn hash_path(kind: HashKind, inst_index: usize, bits: u8) -> u16 {
    kind.hash(inst_index as u32, bits)
}

/// Hash a value-history input: a `setp` source operand value.
pub fn hash_value(kind: HashKind, v: u32, bits: u8) -> u16 {
    kind.hash(v, bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_keeps_low_bits() {
        assert_eq!(HashKind::Modulo.hash(0x1234_5678, 8), 0x78);
        assert_eq!(HashKind::Modulo.hash(0x1234_5678, 4), 0x8);
    }

    #[test]
    fn modulo_aliases_power_of_two_strides() {
        // Induction variable stepping by 256: the low 8 bits never change —
        // the false-detection mechanism of Figure 14.
        let h0 = HashKind::Modulo.hash(0x0100, 8);
        let h1 = HashKind::Modulo.hash(0x0200, 8);
        assert_eq!(h0, h1);
        // XOR folding sees the high bits.
        assert_ne!(HashKind::Xor.hash(0x0100, 8), HashKind::Xor.hash(0x0200, 8));
    }

    #[test]
    fn xor_folds_all_chunks() {
        // 8-bit: 0x12 ^ 0x34 ^ 0x56 ^ 0x78.
        assert_eq!(
            HashKind::Xor.hash(0x1234_5678, 8),
            (0x12 ^ 0x34 ^ 0x56 ^ 0x78) as u16
        );
        // 4-bit: fold 8 nibbles.
        let expect = 0x8;
        assert_eq!(HashKind::Xor.hash(0x1234_5678, 4), expect as u16);
    }

    #[test]
    fn hash_fits_width() {
        for bits in [2u8, 3, 4, 8] {
            for v in [0u32, 1, 0xffff_ffff, 0x8000_0001, 12345] {
                for kind in [HashKind::Xor, HashKind::Modulo] {
                    assert!(kind.hash(v, bits) < (1 << bits));
                }
            }
        }
    }

    #[test]
    fn one_bit_width_is_parity_or_lsb() {
        // bits = 1, the narrowest legal width: XOR folding degenerates to
        // the parity of all 32 bits, MODULO to the least-significant bit.
        assert_eq!(HashKind::Xor.hash(0, 1), 0);
        assert_eq!(HashKind::Xor.hash(1, 1), 1);
        assert_eq!(HashKind::Xor.hash(0b11, 1), 0);
        assert_eq!(HashKind::Xor.hash(0x8000_0000, 1), 1);
        assert_eq!(HashKind::Xor.hash(0xffff_ffff, 1), 0);
        for v in [0u32, 1, 2, 3, 0xffff_fffe, 0xffff_ffff] {
            assert_eq!(HashKind::Xor.hash(v, 1), (v.count_ones() & 1) as u16);
            assert_eq!(HashKind::Modulo.hash(v, 1), (v & 1) as u16);
        }
    }

    #[test]
    fn sixteen_bit_width_folds_exactly_two_halves() {
        // bits = 16, the widest legal width: the mask computation must not
        // overflow, XOR folds high half into low half, MODULO truncates.
        assert_eq!(HashKind::Xor.hash(0x1234_5678, 16), 0x1234 ^ 0x5678);
        assert_eq!(HashKind::Xor.hash(0xffff_0000, 16), 0xffff);
        assert_eq!(HashKind::Xor.hash(0xffff_ffff, 16), 0);
        assert_eq!(HashKind::Modulo.hash(0x1234_5678, 16), 0x5678);
        assert_eq!(HashKind::Modulo.hash(0xffff_0000, 16), 0);
    }

    #[test]
    fn hash_fits_width_at_boundaries() {
        for bits in [1u8, 16] {
            for v in [0u32, 1, 0xffff_ffff, 0x8000_0001, 12345] {
                for kind in [HashKind::Xor, HashKind::Modulo] {
                    assert!(u32::from(kind.hash(v, bits)) < (1u32 << bits));
                }
            }
        }
    }

    #[test]
    fn xor_with_non_divisor_width() {
        // 3-bit chunks over 32 bits: 11 chunks, last partial. Must not
        // panic and must fit.
        let h = HashKind::Xor.hash(0xdead_beef, 3);
        assert!(h < 8);
    }
}
