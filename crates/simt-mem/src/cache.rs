//! A set-associative cache with true-LRU replacement.

use crate::{line_of, Addr, LINE_BYTES};
use simt_snap::{Snap, SnapReader, SnapWriter, SnapshotError};

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent (the caller decides whether to allocate via
    /// [`Cache::fill`]).
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// Set-associative, true-LRU cache directory (tags only — data lives in the
/// functional [`crate::GlobalMem`]).
///
/// Both the per-SM L1D and each L2 partition slice use this type; write
/// policy (write-through, no write-allocate) is enforced by the caller in
/// [`crate::MemorySystem`].
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    lines: Vec<Way>,
    tick: u64,
}

impl Cache {
    /// A cache of `size_bytes` capacity with `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, capacity not a
    /// multiple of `ways * LINE_BYTES`, or a non-power-of-two set count).
    pub fn new(size_bytes: u64, ways: usize) -> Cache {
        assert!(ways > 0, "cache needs at least one way");
        let lines_total = size_bytes / LINE_BYTES;
        assert!(
            (lines_total as usize).is_multiple_of(ways),
            "capacity {size_bytes} not a multiple of ways*line"
        );
        let sets = lines_total as usize / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        Cache {
            sets,
            ways,
            lines: vec![
                Way {
                    tag: 0,
                    valid: false,
                    last_use: 0,
                };
                sets * ways
            ],
            tick: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_of(&self, line: Addr) -> usize {
        ((line / LINE_BYTES) as usize) & (self.sets - 1)
    }

    /// Probe for the line containing `addr`, updating LRU state on hit.
    pub fn access(&mut self, addr: Addr) -> AccessOutcome {
        self.tick += 1;
        let line = line_of(addr);
        let set = self.set_of(line);
        for w in 0..self.ways {
            let e = &mut self.lines[set * self.ways + w];
            if e.valid && e.tag == line {
                e.last_use = self.tick;
                return AccessOutcome::Hit;
            }
        }
        AccessOutcome::Miss
    }

    /// Probe without updating LRU state (for instrumentation).
    pub fn peek(&self, addr: Addr) -> AccessOutcome {
        let line = line_of(addr);
        let set = self.set_of(line);
        for w in 0..self.ways {
            let e = &self.lines[set * self.ways + w];
            if e.valid && e.tag == line {
                return AccessOutcome::Hit;
            }
        }
        AccessOutcome::Miss
    }

    /// Insert the line containing `addr`, evicting the LRU way if needed.
    /// Returns the evicted line address, if any.
    pub fn fill(&mut self, addr: Addr) -> Option<Addr> {
        self.tick += 1;
        let line = line_of(addr);
        let set = self.set_of(line);
        // Already present (racing fills merge silently).
        for w in 0..self.ways {
            let e = &mut self.lines[set * self.ways + w];
            if e.valid && e.tag == line {
                e.last_use = self.tick;
                return None;
            }
        }
        // Free way?
        let mut victim = 0;
        let mut victim_use = u64::MAX;
        for w in 0..self.ways {
            let e = &self.lines[set * self.ways + w];
            if !e.valid {
                victim = w;
                break;
            }
            if e.last_use < victim_use {
                victim = w;
                victim_use = e.last_use;
            }
        }
        let e = &mut self.lines[set * self.ways + victim];
        let evicted = e.valid.then_some(e.tag);
        e.tag = line;
        e.valid = true;
        e.last_use = self.tick;
        evicted
    }

    /// Invalidate every line (kernel-launch boundary).
    pub fn flush(&mut self) {
        for e in &mut self.lines {
            e.valid = false;
        }
    }

    /// Number of valid lines (test/instrumentation helper).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|e| e.valid).count()
    }

    /// Reject a decoded directory whose geometry differs from the cache
    /// this machine's config builds.
    pub(crate) fn check_geometry(&self, configured: &Cache) -> Result<(), SnapshotError> {
        if (self.sets, self.ways) == (configured.sets, configured.ways) {
            Ok(())
        } else {
            Err(SnapshotError::malformed(format!(
                "cache geometry mismatch: snapshot {}x{}, config {}x{}",
                self.sets, self.ways, configured.sets, configured.ways
            )))
        }
    }
}

simt_snap::snap_struct!(Way {
    tag: u64,
    valid: bool,
    last_use: u64
});

/// Geometry, LRU clock, then every way in set-major order. The way count is
/// `sets * ways`, not a length prefix, so this is written out by hand; the
/// owner compares the decoded geometry against its configured cache.
impl Snap for Cache {
    const MIN_BYTES: usize = 24;

    fn save(&self, w: &mut SnapWriter) {
        (self.sets, self.ways).save(w);
        self.tick.save(w);
        for e in &self.lines {
            e.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Cache, SnapshotError> {
        let (sets, ways) = Snap::load(r)?;
        let tick = Snap::load(r)?;
        let n = usize::checked_mul(sets, ways)
            .filter(|&n| n <= r.remaining() / Way::MIN_BYTES)
            .ok_or_else(|| {
                SnapshotError::malformed(format!(
                    "cache geometry {sets}x{ways} exceeds remaining input"
                ))
            })?;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            lines.push(Way::load(r)?);
        }
        Ok(Cache {
            sets,
            ways,
            lines,
            tick,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws_and_geometry_checks() {
        use simt_snap::assert_snap_laws;
        let mut c = Cache::new(1024, 2);
        c.fill(0);
        c.access(0);
        let mut bytes = assert_snap_laws(&c);
        // The smallest directory the wire can describe: 0 sets x 0 ways.
        assert_snap_laws(&Cache {
            sets: 0,
            ways: 0,
            lines: Vec::new(),
            tick: 0,
        });
        let back = Cache::load(&mut SnapReader::new(&bytes)).unwrap();
        back.check_geometry(&c).unwrap();
        assert!(back.check_geometry(&Cache::new(2048, 2)).is_err());
        // A hostile set count must fail the remaining-bytes cap, not
        // allocate (or overflow `sets * ways`).
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Cache::load(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("exceeds remaining input"), "{err}");
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(16 * 1024, 4);
        assert_eq!(c.access(0x1000), AccessOutcome::Miss);
        c.fill(0x1000);
        assert_eq!(c.access(0x1000), AccessOutcome::Hit);
        // Same line, different word.
        assert_eq!(c.access(0x107c), AccessOutcome::Hit);
        // Next line misses.
        assert_eq!(c.access(0x1080), AccessOutcome::Miss);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, small cache: sets = 2*128*2/128/2 ... pick 512B, 2-way => 2 sets.
        let mut c = Cache::new(512, 2);
        assert_eq!(c.sets(), 2);
        // Three lines mapping to set 0: line numbers 0, 2, 4 (even).
        let l0 = 0;
        let l2 = 2 * LINE_BYTES;
        let l4 = 4 * LINE_BYTES;
        c.fill(l0);
        c.fill(l2);
        // Touch l0 so l2 is LRU.
        assert_eq!(c.access(l0), AccessOutcome::Hit);
        let evicted = c.fill(l4);
        assert_eq!(evicted, Some(l2));
        assert_eq!(c.access(l0), AccessOutcome::Hit);
        assert_eq!(c.access(l2), AccessOutcome::Miss);
        assert_eq!(c.access(l4), AccessOutcome::Hit);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = Cache::new(1024, 2); // 8 lines
        for i in 0..100u64 {
            c.fill(i * LINE_BYTES);
        }
        assert!(c.occupancy() <= 8);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = Cache::new(1024, 2);
        c.fill(0);
        c.flush();
        assert_eq!(c.access(0), AccessOutcome::Miss);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let mut c = Cache::new(1024, 2);
        assert_eq!(c.fill(0), None);
        assert_eq!(c.fill(0), None);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        // 3 sets.
        let _ = Cache::new(3 * 2 * LINE_BYTES, 2);
    }
}
