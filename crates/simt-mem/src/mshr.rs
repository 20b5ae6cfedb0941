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
    /// Emptied waiter lists of filled entries, which new entries reuse
    /// (derived: never encoded, empty after restore; at most `capacity`).
    spare: Vec<Vec<u64>>,
}

impl Mshr {
    /// An MSHR file with `capacity` distinct in-flight lines.
    pub fn new(capacity: usize) -> Mshr {
        Mshr {
            entries: Vec::with_capacity(capacity),
            capacity,
            spare: Vec::new(),
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
            let mut waiters = self.spare.pop().unwrap_or_default();
            waiters.push(tag);
            self.entries.push((line, waiters));
            true
        }
    }

    /// The fill for `line` arrived: free its entry and pass each waiting
    /// tag to `release`, in arrival order.
    pub fn fill(&mut self, line: Addr, release: impl FnMut(u64)) {
        let Some(i) = self.entries.iter().position(|(l, _)| *l == line) else {
            return;
        };
        // `remove`, not `swap_remove`: later entries keep their relative
        // (allocation) order, which the snapshot encoding exposes.
        let (_, mut waiters) = self.entries.remove(i);
        waiters.drain(..).for_each(release);
        self.spare.push(waiters);
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
                return Err(SnapshotError::malformed(format!(
                    "duplicate mshr line {line:#x}"
                )));
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
        Ok(Mshr {
            capacity: entries.len(),
            entries,
            spare: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tags the fill for `line` releases, in order.
    fn fill(m: &mut Mshr, line: Addr) -> Vec<u64> {
        let mut tags = Vec::new();
        m.fill(line, |tag| tags.push(tag));
        tags
    }

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
        assert_eq!(fill(&mut back, 0x100), [1, 2]);
        let err = decode().restore_capacity(1).unwrap_err();
        assert!(err.to_string().contains("capacity 1"), "{err}");
        let entries = vec![(0x80, vec![1]), (0x80, vec![2])];
        let mut dup = Mshr {
            entries,
            capacity: 2,
            spare: Vec::new(),
        };
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
        assert_eq!(fill(&mut m, 0x100), [1, 2]);
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
        fill(&mut m, 0x000);
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
        assert!(fill(&mut m, 0x40).is_empty());
    }

    #[test]
    fn fill_preserves_allocation_order_of_survivors() {
        let mut m = Mshr::new(4);
        m.record(0x000, 1);
        m.record(0x080, 2);
        m.record(0x100, 3);
        fill(&mut m, 0x080);
        assert_eq!(fill(&mut m, 0x000), [1]);
        assert_eq!(fill(&mut m, 0x100), [3]);
    }

    /// A filled entry's waiter list is reused by the next allocation, and
    /// the spares are never encoded.
    #[test]
    fn waiter_lists_are_reused() {
        let mut m = Mshr::new(2);
        m.record(0x000, 1);
        m.record(0x000, 2);
        let list = m.entries[0].1.as_ptr();
        assert_eq!(fill(&mut m, 0x000), [1, 2]);
        assert_eq!(m.spare.len(), 1);
        let bytes = simt_snap::encode(&m);
        assert_eq!(
            bytes,
            simt_snap::encode(&Mshr::new(2)),
            "spares are not state"
        );
        m.record(0x080, 3);
        assert_eq!(m.entries[0].1.as_ptr(), list, "the emptied list is reused");
        assert!(m.spare.is_empty());
        assert_eq!(fill(&mut m, 0x080), [3]);
    }
}
