//! The Spin-inducing Branch Prediction Table (SIB-PT), shared per SM.

/// One SIB-PT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SibEntry {
    /// Branch instruction index.
    pub pc: usize,
    /// Saturating confidence counter.
    pub confidence: u32,
    /// Cycle the confidence first reached the threshold, if ever.
    pub confirmed_at: Option<u64>,
}

/// A small, per-SM table of backward-branch PCs with confidence counters.
///
/// A branch executed by a *spinning* warp gains confidence; once it reaches
/// the threshold `t` the branch is predicted spin-inducing. A branch
/// executed (taken) by a *non-spinning* warp loses confidence, guarding
/// against accumulated hash-aliasing errors.
#[derive(Debug, Clone)]
pub struct SibPt {
    entries: Vec<SibEntry>,
    capacity: usize,
    threshold: u32,
}

impl SibPt {
    /// A table with `capacity` entries and confidence threshold `t`.
    pub fn new(capacity: usize, threshold: u32) -> SibPt {
        SibPt {
            entries: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
            threshold: threshold.max(1),
        }
    }

    /// A spinning warp executed the backward branch at `pc`.
    pub fn observe_spinning(&mut self, pc: usize, now: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.pc == pc) {
            e.confidence = e.confidence.saturating_add(1);
            if e.confidence >= self.threshold && e.confirmed_at.is_none() {
                e.confirmed_at = Some(now);
            }
            return;
        }
        if self.entries.len() == self.capacity {
            // Evict the least-confident unconfirmed entry, if any.
            if let Some(idx) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.confirmed_at.is_none())
                .min_by_key(|(_, e)| e.confidence)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(idx);
            } else {
                return; // table full of confirmed entries: drop the observation
            }
        }
        let confirmed_at = (self.threshold == 1).then_some(now);
        self.entries.push(SibEntry {
            pc,
            confidence: 1,
            confirmed_at,
        });
    }

    /// A non-spinning warp took the backward branch at `pc`.
    pub fn observe_non_spinning(&mut self, pc: usize) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.pc == pc) {
            e.confidence = e.confidence.saturating_sub(1);
        }
    }

    /// Current prediction for `pc` (confidence at or above threshold).
    pub fn predict(&self, pc: usize) -> bool {
        self.entries
            .iter()
            .any(|e| e.pc == pc && e.confidence >= self.threshold)
    }

    /// All entries ever confirmed, with confirmation cycle.
    pub fn confirmed(&self) -> Vec<(usize, u64)> {
        self.entries
            .iter()
            .filter_map(|e| e.confirmed_at.map(|c| (e.pc, c)))
            .collect()
    }
}

simt_snap::snap_struct!(SibEntry { pc: usize, confidence: u32, confirmed_at: Option<u64> });

// Entries verbatim — slot order matters: lookup, decrement, and
// `swap_remove` eviction all walk the table in insertion order, so a
// resumed table must be position-identical. Capacity and threshold are
// construction-time.
simt_snap::snap_struct!(state SibPt { entries: Vec<SibEntry> } check |t: &SibPt| {
    if t.entries.len() <= t.capacity {
        Ok(())
    } else {
        Err(simt_snap::SnapshotError::malformed(format!(
            "SIB-PT holds {} entries, capacity is {}",
            t.entries.len(),
            t.capacity
        )))
    }
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws_and_capacity_check() {
        simt_snap::assert_snap_laws(&SibEntry {
            pc: 0,
            confidence: 0,
            confirmed_at: None,
        });
        simt_snap::assert_snap_laws(&SibEntry {
            pc: 9,
            confidence: 4,
            confirmed_at: Some(103),
        });
        let mut t = SibPt::new(4, 2);
        for pc in [9, 9, 11, 13] {
            t.observe_spinning(pc, 100);
        }
        let mut w = simt_snap::SnapWriter::new();
        t.save_fields(&mut w);
        let body = w.into_bytes();
        let mut back = SibPt::new(4, 2);
        back.load_fields(&mut simt_snap::SnapReader::new(&body))
            .unwrap();
        assert_eq!(back.entries, t.entries);
        let err = SibPt::new(2, 2)
            .load_fields(&mut simt_snap::SnapReader::new(&body))
            .unwrap_err();
        assert!(err.to_string().contains("capacity is 2"), "{err}");
    }

    #[test]
    fn confirms_at_threshold() {
        let mut t = SibPt::new(16, 4);
        for i in 0..3 {
            t.observe_spinning(9, 100 + i);
            assert!(!t.predict(9), "below threshold after {} hits", i + 1);
        }
        t.observe_spinning(9, 103);
        assert!(t.predict(9));
        assert_eq!(t.confirmed(), vec![(9, 103)]);
    }

    #[test]
    fn non_spinning_decrements() {
        let mut t = SibPt::new(16, 2);
        t.observe_spinning(9, 0);
        t.observe_non_spinning(9);
        t.observe_spinning(9, 1);
        assert!(!t.predict(9), "1 - 1 + 1 = 1 < 2");
        t.observe_spinning(9, 2);
        assert!(t.predict(9));
        // Confidence can drop back below threshold (dynamic prediction)...
        t.observe_non_spinning(9);
        assert!(!t.predict(9));
        // ...but the confirmation record remains for accuracy metrics.
        assert_eq!(t.confirmed().len(), 1);
    }

    #[test]
    fn decrement_of_unknown_pc_is_noop() {
        let mut t = SibPt::new(4, 2);
        t.observe_non_spinning(77);
        assert_eq!(t.entries.len(), 0);
    }

    #[test]
    fn eviction_prefers_low_confidence_unconfirmed() {
        let mut t = SibPt::new(2, 4);
        t.observe_spinning(1, 0);
        t.observe_spinning(1, 1);
        t.observe_spinning(2, 2);
        // Table full; pc 3 evicts pc 2 (confidence 1 < 2).
        t.observe_spinning(3, 3);
        assert_eq!(t.entries.len(), 2);
        assert!(t.entries.iter().any(|e| e.pc == 1));
        assert!(t.entries.iter().any(|e| e.pc == 3));
    }

    #[test]
    fn threshold_one_confirms_immediately() {
        let mut t = SibPt::new(4, 1);
        t.observe_spinning(5, 42);
        assert!(t.predict(5));
        assert_eq!(t.confirmed(), vec![(5, 42)]);
    }
}
