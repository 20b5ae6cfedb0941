//! DDOS — Dynamic Detection Of Spinning (paper Section IV).
//!
//! Per warp, DDOS keeps a path history and a value history of the `setp`
//! instructions the warp's *profiled thread* (first active lane) executes;
//! a match-pointer mechanism detects periodicity in the combined stream,
//! classifying the warp as *spinning*. A per-SM [`SibPt`] accumulates
//! confidence that a given backward branch is a *spin-inducing branch*
//! (SIB); BOWS consumes those predictions.

pub mod hash;
pub mod history;
pub mod sibpt;

pub use hash::HashKind;
pub use history::{Record, WarpHistory};
pub use sibpt::{SibEntry, SibPt};

use simt_core::SpinDetector;
use simt_snap::Snap;

/// DDOS design parameters (the knobs of Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdosConfig {
    /// Hashing scheme (`h`): XOR (default) or MODULO.
    pub hash: HashKind,
    /// Path-hash width in bits (`m`).
    pub path_bits: u8,
    /// Value-hash width in bits (`k`).
    pub value_bits: u8,
    /// History length in `setp` records (`l`).
    pub history_len: usize,
    /// SIB-PT confidence threshold (`t`).
    pub confidence: u32,
    /// `Some(epoch)`: one shared history-register set time-multiplexed
    /// between warps with the given epoch length in cycles; `None`:
    /// dedicated registers per warp.
    pub time_share_epoch: Option<u64>,
    /// SIB-PT entries.
    pub sibpt_entries: usize,
    /// Ablation: when false, DDOS compares only path history (every loop
    /// then looks like a spin loop — Section IV's justification for the
    /// value registers).
    pub track_values: bool,
}

impl Default for DdosConfig {
    /// The paper's evaluation configuration: XOR, m = k = 8, l = 8, t = 4,
    /// no time sharing, 16-entry SIB-PT.
    fn default() -> DdosConfig {
        DdosConfig {
            hash: HashKind::Xor,
            path_bits: 8,
            value_bits: 8,
            history_len: 8,
            confidence: 4,
            time_share_epoch: None,
            sibpt_entries: 16,
            track_values: true,
        }
    }
}

impl DdosConfig {
    /// Storage for the history registers, bits per warp
    /// (`l*m + 2*l*k`; 192 bits at the default configuration — Table III).
    pub fn history_bits_per_warp(&self) -> u64 {
        self.history_len as u64 * self.path_bits as u64
            + 2 * self.history_len as u64 * self.value_bits as u64
    }

    /// SIB-PT storage in bits (35 bits per entry — Table III).
    pub fn sibpt_bits(&self) -> u64 {
        self.sibpt_entries as u64 * 35
    }
}

/// The per-SM DDOS unit. Implements [`SpinDetector`] so `simt-core` can
/// drive it from the ALU execution stage.
#[derive(Debug)]
pub struct Ddos {
    cfg: DdosConfig,
    /// Per-warp histories (length 1 when time-shared).
    hists: Vec<WarpHistory>,
    /// Per-warp spinning flag (kept separate so time-sharing can leave
    /// non-owner warps in a known state).
    spinning: Vec<bool>,
    sibpt: SibPt,
    /// Time-sharing owner rotation.
    owner: usize,
    num_warps: usize,
}

impl Ddos {
    /// A DDOS unit for an SM with `num_warps` warp slots.
    pub fn new(cfg: DdosConfig, num_warps: usize) -> Ddos {
        let mk = || {
            let h = WarpHistory::new(cfg.hash, cfg.path_bits, cfg.value_bits, cfg.history_len);
            if cfg.track_values {
                h
            } else {
                h.without_value_history()
            }
        };
        let hists = if cfg.time_share_epoch.is_some() {
            vec![mk()]
        } else {
            (0..num_warps).map(|_| mk()).collect()
        };
        Ddos {
            cfg,
            hists,
            spinning: vec![false; num_warps],
            sibpt: SibPt::new(cfg.sibpt_entries, cfg.confidence),
            owner: 0,
            num_warps,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DdosConfig {
        &self.cfg
    }

    /// Is the warp currently classified as spinning?
    pub fn warp_spinning(&self, warp: usize) -> bool {
        self.spinning.get(warp).copied().unwrap_or(false)
    }

    fn time_share_owner(&self, now: u64) -> Option<usize> {
        self.cfg
            .time_share_epoch
            .map(|epoch| ((now / epoch) as usize) % self.num_warps.max(1))
    }
}

impl SpinDetector for Ddos {
    fn on_setp(&mut self, now: u64, warp: usize, pc: usize, srcs: [u32; 2]) {
        match self.time_share_owner(now) {
            None => {
                let h = &mut self.hists[warp];
                h.observe(pc, srcs);
                self.spinning[warp] = h.spinning();
            }
            Some(owner) => {
                if owner != self.owner {
                    // Epoch rolled over: the registers change hands.
                    self.hists[0].reset();
                    self.spinning[self.owner] = false;
                    self.owner = owner;
                }
                if warp == owner {
                    self.hists[0].observe(pc, srcs);
                    self.spinning[warp] = self.hists[0].spinning();
                }
            }
        }
    }

    fn on_branch(&mut self, now: u64, warp: usize, pc: usize, target: usize, taken_any: bool) {
        if target > pc {
            return; // only backward branches are SIB candidates
        }
        if self.spinning.get(warp).copied().unwrap_or(false) {
            self.sibpt.observe_spinning(pc, now);
        } else if taken_any {
            // Decrement only when the time-sharing arrangement actually
            // observes this warp (non-owners have unknown state).
            let observed = match self.time_share_owner(now) {
                None => true,
                Some(owner) => warp == owner,
            };
            if observed {
                self.sibpt.observe_non_spinning(pc);
            }
        }
    }

    fn is_sib(&self, pc: usize) -> bool {
        self.sibpt.predict(pc)
    }

    fn warp_reset(&mut self, warp: usize) {
        if self.cfg.time_share_epoch.is_none() {
            if let Some(h) = self.hists.get_mut(warp) {
                h.reset();
            }
        } else if warp == self.owner {
            self.hists[0].reset();
        }
        if let Some(s) = self.spinning.get_mut(warp) {
            *s = false;
        }
    }

    fn confirmed_sibs(&self) -> Vec<(usize, u64)> {
        self.sibpt.confirmed()
    }

    fn name(&self) -> &'static str {
        "ddos"
    }

    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        self.hists.len().save(w);
        for h in &self.hists {
            h.save_fields(w);
        }
        self.spinning.save(w);
        self.sibpt.save_fields(w);
        self.owner.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        use simt_snap::SnapshotError;
        let nh = usize::load(r)?;
        if nh != self.hists.len() {
            return Err(SnapshotError::malformed(format!(
                "ddos: snapshot has {nh} history sets, this unit has {}",
                self.hists.len()
            )));
        }
        for h in &mut self.hists {
            h.load_fields(r)?;
        }
        let spinning = Vec::<bool>::load(r)?;
        if spinning.len() != self.spinning.len() {
            return Err(SnapshotError::malformed(format!(
                "ddos: snapshot tracks {} warps, this unit has {}",
                spinning.len(),
                self.spinning.len()
            )));
        }
        self.spinning = spinning;
        self.sibpt.load_fields(r)?;
        let owner = usize::load(r)?;
        if owner >= self.num_warps.max(1) {
            return Err(SnapshotError::malformed(format!(
                "ddos: owner {owner} out of range for {} warps",
                self.num_warps
            )));
        }
        self.owner = owner;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a synthetic warp through a two-setp spin loop with the
    /// backward branch at `bra_pc`.
    fn spin_iterations(d: &mut Ddos, warp: usize, n: usize, start: u64) -> u64 {
        let mut now = start;
        for _ in 0..n {
            d.on_setp(now, warp, 3, [1, 0]);
            now += 1;
            d.on_setp(now, warp, 9, [0, 0]);
            now += 1;
            d.on_branch(now, warp, 10, 2, true);
            now += 1;
        }
        now
    }

    #[test]
    fn detects_spin_loop_and_confirms_sib() {
        let mut d = Ddos::new(DdosConfig::default(), 4);
        assert!(!d.is_sib(10));
        spin_iterations(&mut d, 0, 10, 0);
        assert!(d.warp_spinning(0));
        assert!(d.is_sib(10), "branch confirmed after t=4 spinning hits");
        assert_eq!(d.confirmed_sibs().len(), 1);
        assert_eq!(d.name(), "ddos");
    }

    #[test]
    fn normal_loop_never_confirms() {
        let mut d = Ddos::new(DdosConfig::default(), 4);
        let mut now = 0;
        for i in 0..100u32 {
            d.on_setp(now, 0, 5, [i, 100]);
            now += 1;
            d.on_branch(now, 0, 6, 4, true);
            now += 1;
        }
        assert!(!d.warp_spinning(0));
        assert!(!d.is_sib(6));
        assert!(d.confirmed_sibs().is_empty());
    }

    #[test]
    fn forward_branches_ignored() {
        let mut d = Ddos::new(DdosConfig::default(), 4);
        spin_iterations(&mut d, 0, 10, 0);
        // A forward branch executed by a spinning warp is not a candidate.
        d.on_branch(100, 0, 4, 8, true);
        assert!(!d.is_sib(4));
    }

    #[test]
    fn multiple_warps_accumulate_confidence_faster() {
        let cfg = DdosConfig::default();
        let mut d = Ddos::new(cfg, 4);
        // Two warps each contribute 2 spinning observations: confirmed.
        for w in 0..2 {
            let mut now = (w as u64) * 1000;
            // Warm up the detector for this warp (needs 2 iterations).
            now = spin_iterations(&mut d, w, 2, now);
            spin_iterations(&mut d, w, 2, now);
        }
        assert!(d.is_sib(10));
    }

    #[test]
    fn warp_reset_clears_history() {
        let mut d = Ddos::new(DdosConfig::default(), 4);
        spin_iterations(&mut d, 0, 3, 0);
        assert!(d.warp_spinning(0));
        d.warp_reset(0);
        assert!(!d.warp_spinning(0));
    }

    #[test]
    fn non_spinning_branches_erode_confidence() {
        let cfg = DdosConfig {
            confidence: 2,
            ..DdosConfig::default()
        };
        let mut d = Ddos::new(cfg, 4);
        spin_iterations(&mut d, 0, 6, 0);
        assert!(d.is_sib(10));
        // A non-spinning warp (warp 1, no history) takes the same branch
        // repeatedly: prediction decays.
        for i in 0..10 {
            d.on_branch(1000 + i, 1, 10, 2, true);
        }
        assert!(!d.is_sib(10));
        // The confirmation event is still recorded for Table I.
        assert_eq!(d.confirmed_sibs().len(), 1);
    }

    #[test]
    fn time_sharing_only_tracks_owner() {
        let cfg = DdosConfig {
            time_share_epoch: Some(1000),
            ..DdosConfig::default()
        };
        let mut d = Ddos::new(cfg, 2);
        // Warp 1 spins during warp 0's ownership epoch: ignored.
        spin_iterations(&mut d, 1, 10, 0);
        assert!(!d.warp_spinning(1));
        assert!(!d.is_sib(10));
        // Warp 1 spins during its own epoch (cycles 1000..2000): detected.
        spin_iterations(&mut d, 1, 10, 1000);
        assert!(d.warp_spinning(1));
        assert!(d.is_sib(10));
    }

    #[test]
    fn table3_storage_numbers() {
        let cfg = DdosConfig::default();
        assert_eq!(cfg.history_bits_per_warp(), 192);
        assert_eq!(cfg.sibpt_bits(), 560);
        assert_eq!(48 * cfg.history_bits_per_warp(), 9216);
    }
}
