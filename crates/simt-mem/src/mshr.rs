//! Miss-status holding registers: merge concurrent misses to the same line.

use crate::Addr;
use simt_snap::{Snap, SnapReader, SnapWriter, SnapshotError};

/// MSHR file for one cache. Each entry tracks an in-flight line fill and the
/// opaque request tags waiting on it.
///
/// Capacity is a handful of entries (the paper's Table II configures 16-32),
/// so entries live in a dense insertion-ordered vector: lookups are a linear
/// scan over a few words — faster than hashing at this size — and iteration
/// order is deterministic by construction, so snapshots encode the vector
/// verbatim with no sorting pass.
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: Vec<(Addr, Vec<u64>)>,
    capacity: usize,
}

impl Mshr {
    /// An MSHR file with `capacity` distinct in-flight lines.
    pub fn new(capacity: usize) -> Mshr {
        Mshr {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// True if a new (non-merging) miss can currently be tracked.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// True if `line` already has an in-flight fill.
    pub fn pending(&self, line: Addr) -> bool {
        self.entries.iter().any(|(l, _)| *l == line)
    }

    /// Record a miss on `line` for `tag`.
    ///
    /// Returns `true` if this allocated a new entry (the caller must send a
    /// fill request downstream) and `false` if it merged into an existing
    /// one. Callers should check [`Mshr::has_space`] / [`Mshr::pending`]
    /// first; allocating past capacity panics.
    pub fn record(&mut self, line: Addr, tag: u64) -> bool {
        if let Some((_, waiters)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            waiters.push(tag);
            false
        } else {
            assert!(
                self.entries.len() < self.capacity,
                "MSHR overflow: caller must check has_space()"
            );
            self.entries.push((line, vec![tag]));
            true
        }
    }

    /// The fill for `line` arrived: release and return all waiting tags.
    pub fn fill(&mut self, line: Addr) -> Vec<u64> {
        match self.entries.iter().position(|(l, _)| *l == line) {
            // `remove`, not `swap_remove`: later entries keep their relative
            // (allocation) order, which the snapshot encoding exposes.
            Some(i) => self.entries.remove(i).1,
            None => Vec::new(),
        }
    }

    /// Number of lines currently in flight.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Give a decoded file (see the [`Snap`] impl) its configured capacity,
    /// which must cover what the snapshot says was in flight.
    pub(crate) fn restore_capacity(&mut self, capacity: usize) -> Result<(), SnapshotError> {
        let n = self.entries.len();
        if n > capacity {
            return Err(SnapshotError::malformed(format!(
                "mshr snapshot has {n} entries, capacity {capacity}"
            )));
        }
        for (i, (line, _)) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|(l, _)| l == line) {
                return Err(SnapshotError::malformed(format!("duplicate mshr line {line:#x}")));
            }
        }
        self.capacity = capacity;
        Ok(())
    }
}

/// In-flight entries in their live (allocation) order; waiter lists keep
/// their arrival order verbatim (fills release waiters in that order).
/// Capacity is configuration, not state, and is not on the wire: a decoded
/// file is exactly full until [`Mshr::restore_capacity`] re-sizes it.
impl Snap for Mshr {
    const MIN_BYTES: usize = Vec::<(Addr, Vec<u64>)>::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        self.entries.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Mshr, SnapshotError> {
        let entries: Vec<(Addr, Vec<u64>)> = Snap::load(r)?;
        Ok(Mshr { capacity: entries.len(), entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;


    #[test]
    fn snap_laws_and_capacity_restore() {
        use simt_snap::assert_snap_laws;
        assert_snap_laws(&Mshr::new(4));
        let mut m = Mshr::new(4);
        m.record(0x100, 1);
        m.record(0x100, 2);
        m.record(0x200, 3);
        let bytes = assert_snap_laws(&m);
        let decode = || Mshr::load(&mut SnapReader::new(&bytes)).unwrap();
        let mut back = decode();
        assert!(!back.has_space(), "a decoded file is exactly full");
        back.restore_capacity(4).unwrap();
        assert!(back.has_space());
        assert_eq!(back.fill(0x100), vec![1, 2]);
        let err = decode().restore_capacity(1).unwrap_err();
        assert!(err.to_string().contains("capacity 1"), "{err}");
        let mut dup = Mshr { entries: vec![(0x80, vec![1]), (0x80, vec![2])], capacity: 2 };
        let err = dup.restore_capacity(2).unwrap_err();
        assert!(err.to_string().contains("duplicate mshr line"), "{err}");
    }

    #[test]
    fn merge_and_release() {
        let mut m = Mshr::new(4);
        assert!(m.record(0x100, 1), "first miss allocates");
        assert!(!m.record(0x100, 2), "second merges");
        assert!(m.pending(0x100));
        assert_eq!(m.in_flight(), 1);
        let tags = m.fill(0x100);
        assert_eq!(tags, vec![1, 2]);
        assert!(!m.pending(0x100));
    }

    #[test]
    fn capacity_gates_new_entries() {
        let mut m = Mshr::new(2);
        m.record(0x000, 1);
        m.record(0x080, 2);
        assert!(!m.has_space());
        // Merging into an existing line is still allowed.
        assert!(!m.record(0x000, 3));
        m.fill(0x000);
        assert!(m.has_space());
    }

    #[test]
    #[should_panic(expected = "MSHR overflow")]
    fn overflow_panics() {
        let mut m = Mshr::new(1);
        m.record(0x000, 1);
        m.record(0x080, 2);
    }

    #[test]
    fn fill_unknown_line_is_empty() {
        let mut m = Mshr::new(1);
        assert!(m.fill(0x40).is_empty());
    }

    #[test]
    fn fill_preserves_allocation_order_of_survivors() {
        let mut m = Mshr::new(4);
        m.record(0x000, 1);
        m.record(0x080, 2);
        m.record(0x100, 3);
        m.fill(0x080);
        assert_eq!(m.fill(0x000), vec![1]);
        assert_eq!(m.fill(0x100), vec![3]);
    }
}
