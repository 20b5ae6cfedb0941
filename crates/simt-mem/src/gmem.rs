//! Functional device global memory.

use crate::{Addr, LINE_BYTES};
use std::fmt;

/// A rejected device-memory access: the address was unaligned or outside
/// every allocation. Produced by the checked accessors
/// ([`GlobalMem::try_read_u32`] / [`GlobalMem::try_write_u32`] /
/// [`GlobalMem::check_addr`]) so the simulation pipeline can turn a buggy
/// kernel's wild access into a typed error instead of a panic — a
/// malformed service request must never take down a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The offending byte address.
    pub addr: Addr,
    /// True when the fault is an alignment violation (else out of bounds).
    pub unaligned: bool,
    /// Bytes allocated at fault time (the valid range is `0..allocated`).
    pub allocated: u64,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unaligned {
            write!(f, "unaligned global access at {:#x}", self.addr)
        } else {
            write!(
                f,
                "global access out of bounds: {:#x} (allocated {:#x})",
                self.addr, self.allocated
            )
        }
    }
}

/// A flat, bump-allocated functional global memory.
///
/// Timing is modeled elsewhere; this type only answers "what value does this
/// word hold". Allocations are line-aligned so distinct buffers never share a
/// cache line (matching how CUDA allocators behave and keeping experiments
/// free of false sharing).
#[derive(Debug, Clone, Default)]
pub struct GlobalMem {
    data: Vec<u32>,
    next: Addr,
}

impl GlobalMem {
    /// An empty memory.
    pub fn new() -> GlobalMem {
        GlobalMem::default()
    }

    /// Allocate `words` 32-bit words; returns the (line-aligned) base byte
    /// address. The contents are zero-initialized.
    pub fn alloc(&mut self, words: u64) -> Addr {
        let base = self.next;
        let bytes = words * 4;
        let aligned = (bytes + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        self.next += aligned;
        self.data.resize((self.next / 4) as usize, 0);
        base
    }

    /// Total allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.next
    }

    /// Read the word at a 4-byte-aligned address.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-bounds access — both indicate a kernel
    /// bug, and failing loudly beats silently corrupting an experiment.
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        assert_eq!(addr % 4, 0, "unaligned global read at {addr:#x}");
        let idx = (addr / 4) as usize;
        assert!(
            idx < self.data.len(),
            "global read out of bounds: {addr:#x} (allocated {:#x})",
            self.next
        );
        self.data[idx]
    }

    /// Write the word at a 4-byte-aligned address.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-bounds access.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        assert_eq!(addr % 4, 0, "unaligned global write at {addr:#x}");
        let idx = (addr / 4) as usize;
        assert!(
            idx < self.data.len(),
            "global write out of bounds: {addr:#x} (allocated {:#x})",
            self.next
        );
        self.data[idx] = value;
    }

    /// Validate an address for a 4-byte access without touching it.
    ///
    /// # Errors
    ///
    /// Returns the [`MemFault`] a [`GlobalMem::read_u32`] /
    /// [`GlobalMem::write_u32`] of the same address would panic with.
    #[inline]
    pub fn check_addr(&self, addr: Addr) -> Result<(), MemFault> {
        if !addr.is_multiple_of(4) {
            return Err(MemFault {
                addr,
                unaligned: true,
                allocated: self.next,
            });
        }
        if addr / 4 >= self.data.len() as u64 {
            return Err(MemFault {
                addr,
                unaligned: false,
                allocated: self.next,
            });
        }
        Ok(())
    }

    /// Checked read: like [`GlobalMem::read_u32`] but returns a typed
    /// fault instead of panicking. The simulation pipeline uses this for
    /// kernel-driven accesses, keeping wild addresses survivable.
    ///
    /// # Errors
    ///
    /// See [`GlobalMem::check_addr`].
    #[inline]
    pub fn try_read_u32(&self, addr: Addr) -> Result<u32, MemFault> {
        self.check_addr(addr)?;
        Ok(self.data[(addr / 4) as usize])
    }

    /// Checked write: like [`GlobalMem::write_u32`] but returns a typed
    /// fault instead of panicking.
    ///
    /// # Errors
    ///
    /// See [`GlobalMem::check_addr`].
    #[inline]
    pub fn try_write_u32(&mut self, addr: Addr, value: u32) -> Result<(), MemFault> {
        self.check_addr(addr)?;
        self.data[(addr / 4) as usize] = value;
        Ok(())
    }

    /// Copy a slice into memory starting at `base`.
    pub fn write_slice(&mut self, base: Addr, values: &[u32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write_u32(base + i as u64 * 4, v);
        }
    }

    /// Read `len` words starting at `base`.
    pub fn read_vec(&self, base: Addr, len: u64) -> Vec<u32> {
        (0..len).map(|i| self.read_u32(base + i * 4)).collect()
    }

    /// The full memory image as words (word `i` holds byte address `4*i`).
    ///
    /// This is the deterministic final-memory readback used by the
    /// differential oracle: after a kernel completes, the image *is* the
    /// architectural memory state, with no cache or in-flight-request
    /// residue (the timing model writes through to this array at its
    /// serialization points).
    pub fn image(&self) -> &[u32] {
        &self.data
    }

    /// Byte address of the first word where `self` and `other` disagree,
    /// or `None` when the images are identical.
    ///
    /// Images of different lengths differ at the first address past the
    /// shorter one (allocation sequences diverged — itself a finding).
    pub fn first_diff(&self, other: &GlobalMem) -> Option<Addr> {
        let n = self.data.len().min(other.data.len());
        for i in 0..n {
            if self.data[i] != other.data[i] {
                return Some(i as Addr * 4);
            }
        }
        if self.data.len() != other.data.len() {
            return Some(n as Addr * 4);
        }
        None
    }
}

// The allocation cursor and the full image. The cursor is redundant with
// the image length; a snapshot in which they disagree is corrupt.
simt_snap::snap_struct!(GlobalMem { next: Addr, data: Vec<u32> } check |m: &GlobalMem| {
    if m.data.len() as u64 * 4 == m.next {
        Ok(())
    } else {
        Err(simt_snap::SnapshotError::malformed(format!(
            "global memory image is {} words but allocation cursor is {:#x} bytes",
            m.data.len(),
            m.next
        )))
    }
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws_and_cursor_check() {
        use simt_snap::{assert_snap_laws, Snap, SnapReader};
        assert_snap_laws(&GlobalMem::new());
        let mut m = GlobalMem::new();
        let a = m.alloc(3);
        m.write_u32(a + 4, 7);
        let mut bytes = assert_snap_laws(&m);
        bytes[0] ^= 0x80; // cursor no longer matches the image length
        let err = GlobalMem::load(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("allocation cursor"), "{err}");
    }

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut m = GlobalMem::new();
        let a = m.alloc(1);
        let b = m.alloc(33); // 132 bytes -> two lines
        let c = m.alloc(1);
        assert_eq!(a % LINE_BYTES, 0);
        assert_eq!(b % LINE_BYTES, 0);
        assert_eq!(c % LINE_BYTES, 0);
        assert_eq!(b, a + LINE_BYTES);
        assert_eq!(c, b + 2 * LINE_BYTES);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMem::new();
        let a = m.alloc(64);
        m.write_u32(a + 8, 0xdead_beef);
        assert_eq!(m.read_u32(a + 8), 0xdead_beef);
        assert_eq!(m.read_u32(a), 0, "zero initialized");
    }

    #[test]
    fn slice_helpers() {
        let mut m = GlobalMem::new();
        let a = m.alloc(8);
        m.write_slice(a, &[1, 2, 3]);
        assert_eq!(m.read_vec(a, 4), vec![1, 2, 3, 0]);
    }

    #[test]
    fn first_diff_finds_earliest_byte_address() {
        let mut a = GlobalMem::new();
        let base = a.alloc(8);
        let mut b = a.clone();
        assert_eq!(a.first_diff(&b), None);
        b.write_u32(base + 12, 7);
        b.write_u32(base + 20, 9);
        assert_eq!(a.first_diff(&b), Some(base + 12));
        assert_eq!(b.first_diff(&a), Some(base + 12));
        // Length mismatch differs at the end of the shorter image.
        let longer_end = a.allocated_bytes();
        b.alloc(1);
        a.write_u32(base + 12, 7);
        a.write_u32(base + 20, 9);
        assert_eq!(a.first_diff(&b), Some(longer_end));
    }

    #[test]
    fn checked_accessors_fault_instead_of_panicking() {
        let mut m = GlobalMem::new();
        let a = m.alloc(4);
        assert_eq!(m.try_read_u32(a), Ok(0));
        assert!(m.try_write_u32(a, 7).is_ok());
        assert_eq!(m.try_read_u32(a), Ok(7));
        let oob = m.try_read_u32(1 << 40).unwrap_err();
        assert!(!oob.unaligned);
        assert!(oob.to_string().contains("out of bounds"));
        let unaligned = m.try_write_u32(a + 2, 1).unwrap_err();
        assert!(unaligned.unaligned);
        assert!(unaligned.to_string().contains("unaligned"));
        assert!(m.check_addr(a + 4).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let m = GlobalMem::new();
        m.read_u32(0);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        let mut m = GlobalMem::new();
        m.alloc(4);
        m.write_u32(2, 1);
    }
}
