//! Spin-detection interface (implemented by DDOS in the `bows` crate) and
//! two baseline implementations.

use simt_snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use std::collections::HashMap;

/// A per-SM spin detector: observes `setp` executions and branches, and
/// classifies branch PCs as spin-inducing branches (SIBs).
///
/// The simulator calls [`SpinDetector::on_setp`] from the ALU execution
/// stage with the *profiled thread's* (first active lane's) source values —
/// exactly the information the paper's DDOS hardware taps — and
/// [`SpinDetector::on_branch`] when a warp executes a backward branch.
pub trait SpinDetector {
    /// A warp executed a `setp`; `srcs` are the profiled lane's two source
    /// operand values.
    fn on_setp(&mut self, now: u64, warp: usize, pc: usize, srcs: [u32; 2]);

    /// A warp executed a branch. `taken_any` is true if at least one active
    /// lane takes it. Only backward branches are candidates.
    fn on_branch(&mut self, now: u64, warp: usize, pc: usize, target: usize, taken_any: bool);

    /// Is `pc` currently classified as a spin-inducing branch?
    fn is_sib(&self, pc: usize) -> bool;

    /// Reset per-warp state (the warp was reassigned to a new CTA).
    fn warp_reset(&mut self, _warp: usize) {}

    /// PCs confirmed as SIBs, with the cycle of confirmation.
    fn confirmed_sibs(&self) -> Vec<(usize, u64)>;

    /// Detector name, for reports.
    fn name(&self) -> &'static str;

    /// Serialize dynamic detector state into a checkpoint. Detectors whose
    /// classification is a pure function of construction (the static
    /// oracle, the null detector) keep the default no-op; stateful
    /// detectors (DDOS) must write everything a resumed run needs to
    /// classify identically.
    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        let _ = w;
    }

    /// Restore state written by [`SpinDetector::save_state`] into a
    /// freshly constructed detector of the same kind.
    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        let _ = r;
        Ok(())
    }
}

/// Oracle detector: knows the ground-truth SIBs from `!sib` annotations.
/// This models the "identified by programmer or compiler" alternative the
/// paper mentions, and serves as the reference for DDOS accuracy metrics.
#[derive(Debug, Clone)]
pub struct StaticSibDetector {
    sibs: Vec<usize>,
}

impl StaticSibDetector {
    /// Detector treating exactly `sibs` (instruction indices) as SIBs.
    pub fn new(mut sibs: Vec<usize>) -> StaticSibDetector {
        sibs.sort_unstable();
        StaticSibDetector { sibs }
    }
}

impl SpinDetector for StaticSibDetector {
    fn on_setp(&mut self, _: u64, _: usize, _: usize, _: [u32; 2]) {}

    fn on_branch(&mut self, _: u64, _: usize, _: usize, _: usize, _: bool) {}

    fn is_sib(&self, pc: usize) -> bool {
        self.sibs.binary_search(&pc).is_ok()
    }

    fn confirmed_sibs(&self) -> Vec<(usize, u64)> {
        self.sibs.iter().map(|&pc| (pc, 0)).collect()
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// The [`StaticSibDetector`] of a kernel's `!sib` annotations — the
/// detector factory of every run that takes the programmer's word for its
/// spin branches instead of detecting them.
pub fn static_sib_detector(k: &simt_isa::Kernel) -> Box<dyn SpinDetector> {
    Box::new(StaticSibDetector::new(k.true_sibs.clone()))
}

/// The detector of a run without DDOS: [`NullDetector`] for a kernel with
/// no `!sib` annotation, else its [`static_sib_detector`]. Reports carry
/// the detector's name (`none` / `static`), so the choice is one function.
pub fn baseline_detector(k: &simt_isa::Kernel) -> Box<dyn SpinDetector> {
    if k.true_sibs.is_empty() {
        Box::new(NullDetector)
    } else {
        static_sib_detector(k)
    }
}

/// Detector that never classifies anything (baseline schedulers without
/// BOWS use this).
#[derive(Debug, Clone, Default)]
pub struct NullDetector;

impl SpinDetector for NullDetector {
    fn on_setp(&mut self, _: u64, _: usize, _: usize, _: [u32; 2]) {}

    fn on_branch(&mut self, _: u64, _: usize, _: usize, _: usize, _: bool) {}

    fn is_sib(&self, _: usize) -> bool {
        false
    }

    fn confirmed_sibs(&self) -> Vec<(usize, u64)> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// Per-branch encounter timeline, kept by the SM for every backward branch.
/// Feeds Table I's Detection Phase Ratio: how long a detector took relative
/// to the branch's dynamic lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchTimeline {
    /// Cycle the branch was first executed.
    pub first: u64,
    /// Cycle the branch was last executed.
    pub last: u64,
    /// Dynamic execution count.
    pub count: u64,
}

/// Accumulates encounter timelines per (backward) branch PC.
#[derive(Debug, Clone, Default)]
pub struct BranchLog {
    timelines: HashMap<usize, BranchTimeline>,
}

impl BranchLog {
    /// Record an execution of the backward branch at `pc`.
    pub fn record(&mut self, pc: usize, now: u64) {
        self.timelines
            .entry(pc)
            .and_modify(|t| {
                t.last = now;
                t.count += 1;
            })
            .or_insert(BranchTimeline {
                first: now,
                last: now,
                count: 1,
            });
    }

    /// Timeline for `pc`, if it ever executed.
    pub fn get(&self, pc: usize) -> Option<BranchTimeline> {
        self.timelines.get(&pc).copied()
    }

    /// All recorded timelines.
    pub fn iter(&self) -> impl Iterator<Item = (usize, BranchTimeline)> + '_ {
        self.timelines.iter().map(|(&pc, &t)| (pc, t))
    }

    /// Merge another log (across SMs).
    pub fn merge(&mut self, other: &BranchLog) {
        for (pc, t) in other.iter() {
            self.timelines
                .entry(pc)
                .and_modify(|mine| {
                    mine.first = mine.first.min(t.first);
                    mine.last = mine.last.max(t.last);
                    mine.count += t.count;
                })
                .or_insert(t);
        }
    }
}

simt_snap::snap_struct!(BranchTimeline {
    first: u64,
    last: u64,
    count: u64
});

/// Timelines in sorted-PC order: the map's own iteration order is
/// process-dependent and must not reach the wire.
impl Snap for BranchLog {
    const MIN_BYTES: usize = Vec::<(usize, BranchTimeline)>::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        let mut timelines: Vec<(usize, BranchTimeline)> = self.iter().collect();
        timelines.sort_unstable_by_key(|&(pc, _)| pc);
        timelines.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<BranchLog, SnapshotError> {
        let timelines = Vec::<(usize, BranchTimeline)>::load(r)?
            .into_iter()
            .collect();
        Ok(BranchLog { timelines })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_log_snapshots_in_pc_order() {
        use simt_snap::assert_snap_laws;
        assert_snap_laws(&BranchLog::default());
        let mut log = BranchLog::default();
        for pc in [40, 7, 19, 3] {
            log.record(pc, pc as u64 * 10);
        }
        let bytes = assert_snap_laws(&log);
        // Length, then (pc, first, last, count) per entry: pcs ascend.
        let pcs: Vec<u64> = (0..4)
            .map(|i| u64::from_le_bytes(bytes[8 + i * 32..16 + i * 32].try_into().unwrap()))
            .collect();
        assert_eq!(pcs, [3, 7, 19, 40]);
        let back = BranchLog::load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.get(19), log.get(19));
    }

    #[test]
    fn static_detector_matches_annotations() {
        let d = StaticSibDetector::new(vec![9, 3]);
        assert!(d.is_sib(3));
        assert!(d.is_sib(9));
        assert!(!d.is_sib(4));
        assert_eq!(d.confirmed_sibs().len(), 2);
    }

    #[test]
    fn null_detector_sees_nothing() {
        let mut d = NullDetector;
        d.on_setp(0, 0, 5, [0, 0]);
        d.on_branch(0, 0, 5, 0, true);
        assert!(!d.is_sib(5));
        assert!(d.confirmed_sibs().is_empty());
    }

    #[test]
    fn branch_log_timeline() {
        let mut log = BranchLog::default();
        log.record(7, 100);
        log.record(7, 250);
        log.record(9, 180);
        let t = log.get(7).unwrap();
        assert_eq!((t.first, t.last, t.count), (100, 250, 2));
        assert_eq!(log.get(9).unwrap().count, 1);
        assert!(log.get(1).is_none());
    }

    #[test]
    fn branch_log_merge() {
        let mut a = BranchLog::default();
        a.record(7, 100);
        let mut b = BranchLog::default();
        b.record(7, 50);
        b.record(7, 300);
        b.record(8, 10);
        a.merge(&b);
        let t = a.get(7).unwrap();
        assert_eq!((t.first, t.last, t.count), (50, 300, 3));
        assert!(a.get(8).is_some());
    }
}
