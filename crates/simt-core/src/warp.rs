//! Warp and CTA (thread block) state.

use crate::scoreboard::Scoreboard;
use crate::stack::SimtStack;
use simt_isa::{Column, Pred, Reg};

/// A resident CTA's architectural state: per-thread registers/predicates,
/// shared memory, barrier bookkeeping.
///
/// Registers and predicates are held the way a warp instruction reads them:
/// one [`Column`] per (warp, register) — `regs[warp * regs_per_thread + r]`,
/// lane `l` of it being thread `warp * 32 + l` — and one 32-bit lane mask
/// per (warp, predicate). A partial last warp is padded to 32 lanes; the
/// padding lanes are never in a launch mask, so nothing ever writes them.
/// The by-thread accessors remain for the per-thread callers, and the
/// snapshot and [`CtaState`] keep the row-major / byte-per-thread layout
/// ([`Cta::rows`] transposes).
#[derive(Debug, Clone)]
pub struct Cta {
    /// Global CTA index in the grid.
    pub id: usize,
    /// Threads in this CTA.
    pub threads: usize,
    /// Registers per thread (from the kernel).
    pub regs_per_thread: usize,
    /// Warps this CTA occupies.
    pub num_warps: usize,
    /// Of those, warps whose threads have all exited.
    pub warps_done: usize,
    /// Warps currently waiting at the CTA barrier.
    pub barrier_arrived: usize,
    regs: Vec<Column>,
    preds: Vec<u32>,
    /// Shared-memory words.
    pub shared: Vec<u32>,
}

/// Predicate registers per thread, as an index stride.
const PREDS: usize = Pred::COUNT as usize;

impl Cta {
    /// Fresh CTA state, zero-initialized.
    pub fn new(id: usize, threads: usize, regs_per_thread: usize, shared_words: usize) -> Cta {
        let num_warps = threads.div_ceil(32);
        Cta {
            id,
            threads,
            regs_per_thread,
            num_warps,
            warps_done: 0,
            barrier_arrived: 0,
            regs: vec![[0; 32]; num_warps * regs_per_thread],
            preds: vec![0; num_warps * PREDS],
            shared: vec![0; shared_words],
        }
    }

    /// Register `r` of every lane of `warp`.
    #[inline]
    pub fn column(&self, warp: usize, r: Reg) -> &Column {
        &self.regs[warp * self.regs_per_thread + r.index()]
    }

    /// Mutable [`Cta::column`]. Writers keep inactive lanes as they are.
    #[inline]
    pub fn column_mut(&mut self, warp: usize, r: Reg) -> &mut Column {
        &mut self.regs[warp * self.regs_per_thread + r.index()]
    }

    /// Predicate `p` of every lane of `warp`, bit `l` for lane `l`.
    #[inline]
    pub fn pred_mask(&self, warp: usize, p: Pred) -> u32 {
        self.preds[warp * PREDS + p.index()]
    }

    /// Set predicate `p` to `bits` on the lanes in `exec`; the other lanes
    /// keep theirs.
    #[inline]
    pub fn set_pred_mask(&mut self, warp: usize, p: Pred, exec: u32, bits: u32) {
        let m = &mut self.preds[warp * PREDS + p.index()];
        *m = (*m & !exec) | (bits & exec);
    }

    /// Read thread-private register `r` of `thread`.
    #[inline]
    pub fn reg(&self, thread: usize, r: Reg) -> u32 {
        self.column(thread / 32, r)[thread % 32]
    }

    /// Write thread-private register `r` of `thread`.
    #[inline]
    pub fn set_reg(&mut self, thread: usize, r: Reg, v: u32) {
        self.column_mut(thread / 32, r)[thread % 32] = v;
    }

    /// Read predicate `p` of `thread`.
    #[inline]
    pub fn pred(&self, thread: usize, p: Pred) -> bool {
        self.pred_mask(thread / 32, p) & (1 << (thread % 32)) != 0
    }

    /// Warps still running (for barrier release).
    pub fn live_warps(&self) -> usize {
        self.num_warps - self.warps_done
    }

    /// The register file and predicates in the layout of the snapshot and
    /// of [`CtaState`]: row-major `regs[thread * regs_per_thread + r]` and
    /// one predicate byte per thread (bit `p` = predicate `p`), padding
    /// lanes dropped.
    fn rows(&self) -> (Vec<u32>, Vec<u8>) {
        debug_assert!(
            self.padding_is_clear(),
            "cta {}: a padding lane was written",
            self.id
        );
        let mut regs = Vec::with_capacity(self.threads * self.regs_per_thread);
        let mut preds = Vec::with_capacity(self.threads);
        for t in 0..self.threads {
            let (warp, lane) = (t / 32, t % 32);
            let columns = &self.regs[warp * self.regs_per_thread..][..self.regs_per_thread];
            regs.extend(columns.iter().map(|c| c[lane]));
            let masks = &self.preds[warp * PREDS..][..PREDS];
            preds.push(
                masks
                    .iter()
                    .enumerate()
                    .fold(0u8, |byte, (p, m)| byte | ((m >> lane & 1) as u8) << p),
            );
        }
        (regs, preds)
    }

    /// No register or predicate of a lane past `threads` was ever written.
    fn padding_is_clear(&self) -> bool {
        let lanes = self.threads % 32;
        let last = self.num_warps.saturating_sub(1);
        lanes == 0
            || (self.regs[last * self.regs_per_thread..]
                .iter()
                .all(|c| c[lanes..] == [0; 32][lanes..])
                && self.preds[last * PREDS..].iter().all(|m| m >> lanes == 0))
    }

    /// Move the CTA's architectural state out at retirement (for the
    /// differential oracle's final-state capture; capture runs only).
    pub fn into_state(self) -> CtaState {
        let (regs, preds) = self.rows();
        CtaState {
            cta_id: self.id,
            threads: self.threads,
            regs_per_thread: self.regs_per_thread,
            regs,
            preds,
            shared: self.shared,
        }
    }
}

/// [`Cta`] as the snapshot carries it (format version 2): geometry, barrier
/// bookkeeping, and all architectural state with registers row-major and
/// predicates a byte per thread — the layout `Cta` itself had when the
/// format was fixed. Geometry is stored, not derived, so a snapshot whose
/// counts disagree is corrupt.
struct CtaWire {
    id: usize,
    threads: usize,
    regs_per_thread: usize,
    num_warps: usize,
    warps_done: usize,
    barrier_arrived: usize,
    regs: Vec<u32>,
    preds: Vec<u8>,
    shared: Vec<u32>,
}

simt_snap::snap_struct!(CtaWire {
    id: usize,
    threads: usize,
    regs_per_thread: usize,
    num_warps: usize,
    warps_done: usize,
    barrier_arrived: usize,
    regs: Vec<u32>,
    preds: Vec<u8>,
    shared: Vec<u32>,
} check |c: &CtaWire| {
    use simt_snap::SnapshotError;
    let CtaWire { id, threads, regs_per_thread, num_warps, warps_done, barrier_arrived, .. } = *c;
    if num_warps != threads.div_ceil(32) || warps_done > num_warps || barrier_arrived > num_warps
    {
        return Err(SnapshotError::malformed(format!(
            "cta {id}: inconsistent warp bookkeeping \
             ({num_warps} warps for {threads} threads, \
             {warps_done} done, {barrier_arrived} at barrier)"
        )));
    }
    if c.regs.len() != threads.saturating_mul(regs_per_thread) {
        return Err(SnapshotError::malformed(format!(
            "cta {id}: {} regs for {threads} threads x {regs_per_thread}",
            c.regs.len()
        )));
    }
    if c.preds.len() != threads {
        return Err(SnapshotError::malformed(format!(
            "cta {id}: {} predicate bytes for {threads} threads",
            c.preds.len()
        )));
    }
    // `Cta` pads a partial warp to 32 lanes per register: bound what a
    // snapshot of one thread can make `load` allocate.
    if regs_per_thread > usize::from(u8::MAX) + 1 {
        return Err(SnapshotError::malformed(format!(
            "cta {id}: {regs_per_thread} registers per thread, past an 8-bit register name"
        )));
    }
    Ok(())
});

impl simt_snap::Snap for Cta {
    const MIN_BYTES: usize = CtaWire::MIN_BYTES;

    fn save(&self, w: &mut simt_snap::SnapWriter) {
        let (regs, preds) = self.rows();
        CtaWire {
            id: self.id,
            threads: self.threads,
            regs_per_thread: self.regs_per_thread,
            num_warps: self.num_warps,
            warps_done: self.warps_done,
            barrier_arrived: self.barrier_arrived,
            regs,
            preds,
            shared: self.shared.clone(),
        }
        .save(w);
    }

    fn load(r: &mut simt_snap::SnapReader<'_>) -> Result<Cta, simt_snap::SnapshotError> {
        // `check` has tied every length to the geometry by now.
        let wire = CtaWire::load(r)?;
        let mut cta = Cta::new(wire.id, wire.threads, wire.regs_per_thread, 0);
        cta.warps_done = wire.warps_done;
        cta.barrier_arrived = wire.barrier_arrived;
        cta.shared = wire.shared;
        for (t, byte) in wire.preds.iter().enumerate() {
            let row = &wire.regs[t * wire.regs_per_thread..][..wire.regs_per_thread];
            for (column, &v) in cta.regs[t / 32 * wire.regs_per_thread..]
                .iter_mut()
                .zip(row)
            {
                column[t % 32] = v;
            }
            for (p, mask) in cta.preds[t / 32 * PREDS..][..PREDS].iter_mut().enumerate() {
                *mask |= u32::from(byte >> p & 1) << (t % 32);
            }
        }
        Ok(cta)
    }
}

/// Architectural state of one CTA at retirement: what the differential
/// oracle compares against the reference interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtaState {
    /// Global CTA index in the grid.
    pub cta_id: usize,
    /// Threads in the CTA.
    pub threads: usize,
    /// Registers per thread.
    pub regs_per_thread: usize,
    /// Row-major per-thread registers: `regs[thread * regs_per_thread + r]`.
    pub regs: Vec<u32>,
    /// Per-thread predicate bitmasks (bit `p` = predicate `p`).
    pub preds: Vec<u8>,
    /// Final shared-memory words.
    pub shared: Vec<u32>,
}

impl CtaState {
    /// Register `r` of `thread`.
    pub fn reg(&self, thread: usize, r: usize) -> u32 {
        self.regs[thread * self.regs_per_thread + r]
    }
}

simt_snap::snap_struct!(CtaState {
    cta_id: usize,
    threads: usize,
    regs_per_thread: usize,
    regs: Vec<u32>,
    preds: Vec<u8>,
    shared: Vec<u32>,
});

/// One warp slot on an SM.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Slot holds a live warp.
    pub resident: bool,
    /// All threads exited (slot awaiting CTA completion).
    pub done: bool,
    /// Which CTA slot on the SM this warp belongs to.
    pub cta_slot: usize,
    /// Warp index within its CTA.
    pub warp_in_cta: usize,
    /// SIMT reconvergence stack.
    pub stack: SimtStack,
    /// Register dependency scoreboard.
    pub sb: Scoreboard,
    /// Earliest cycle the warp may issue again (issue port pipelining).
    pub next_issue: u64,
    /// Memory instructions with outstanding transactions (fences drain it).
    pub outstanding_mem: u32,
    /// Warp executed `membar` and waits for `outstanding_mem == 0`.
    pub waiting_membar: bool,
    /// Warp arrived at the CTA barrier and waits for release.
    pub at_barrier: bool,
    /// Launch-order key (smaller = older) for GTO/age policies.
    pub age_key: u64,
}

impl Warp {
    /// An empty (non-resident) slot.
    pub fn vacant() -> Warp {
        Warp {
            resident: false,
            done: false,
            cta_slot: 0,
            warp_in_cta: 0,
            stack: SimtStack::new(0, 0),
            sb: Scoreboard::new(),
            next_issue: 0,
            outstanding_mem: 0,
            waiting_membar: false,
            at_barrier: false,
            age_key: u64::MAX,
        }
    }

    /// Launch a warp into this slot.
    pub fn launch(&mut self, cta_slot: usize, warp_in_cta: usize, mask: u32, age_key: u64) {
        *self = Warp {
            resident: true,
            done: false,
            cta_slot,
            warp_in_cta,
            stack: SimtStack::new(mask, 0),
            sb: Scoreboard::new(),
            next_issue: 0,
            outstanding_mem: 0,
            waiting_membar: false,
            at_barrier: false,
            age_key,
        };
    }

    /// Thread index (within the CTA) of `lane`.
    #[inline]
    pub fn thread_of(&self, lane: usize) -> usize {
        self.warp_in_cta * 32 + lane
    }
}

simt_snap::snap_struct!(Warp {
    resident: bool,
    done: bool,
    cta_slot: usize,
    warp_in_cta: usize,
    stack: SimtStack,
    sb: Scoreboard,
    next_issue: u64,
    outstanding_mem: u32,
    waiting_membar: bool,
    at_barrier: bool,
    age_key: u64,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws() {
        use simt_snap::assert_snap_laws;
        assert_snap_laws(&Cta::new(0, 0, 0, 0));
        assert_snap_laws(&Cta::new(3, 100, 4, 16));
        assert_snap_laws(&Cta::new(3, 100, 4, 16).into_state());
        assert_snap_laws(&Cta::new(0, 0, 0, 0).into_state());
        let mut w = Warp::vacant();
        w.launch(2, 1, 0xffff_ffff, 7);
        assert_snap_laws(&w);
        w.stack.exit_threads(u32::MAX); // empty stack: the smallest warp
        assert_snap_laws(&w);
    }

    /// A 100-thread CTA (partial last warp) with a distinct value in every
    /// register, predicate byte and shared word.
    fn filled_cta() -> Cta {
        let mut cta = Cta::new(3, 100, 4, 16);
        cta.warps_done = 1;
        cta.barrier_arrived = 2;
        for t in 0..100 {
            for r in 0..4 {
                cta.set_reg(t, Reg(r), 0x0100_0000 + ((t as u32) << 8) + r as u32);
            }
            for p in 0..8 {
                let bit = (t * 37 + 11) >> p & 1 != 0;
                cta.set_pred_mask(t / 32, Pred(p), 1 << (t % 32), u32::from(bit) << (t % 32));
            }
        }
        for (i, w) in cta.shared.iter_mut().enumerate() {
            *w = 0xabcd_0000 + i as u32;
        }
        cta
    }

    /// The version-2 encoding, built by hand: six `u64` geometry words,
    /// row-major registers, one predicate byte per thread, shared words —
    /// each vector behind a `u64` length, everything little-endian.
    fn filled_cta_wire() -> Vec<u8> {
        let mut b = Vec::new();
        for word in [3u64, 100, 4, 4, 1, 2] {
            b.extend(word.to_le_bytes());
        }
        b.extend(400u64.to_le_bytes());
        for t in 0..100u32 {
            for r in 0..4u32 {
                b.extend((0x0100_0000 + (t << 8) + r).to_le_bytes());
            }
        }
        b.extend(100u64.to_le_bytes());
        b.extend((0..100u32).map(|t| (t * 37 + 11) as u8));
        b.extend(16u64.to_le_bytes());
        for i in 0..16u32 {
            b.extend((0xabcd_0000 + i).to_le_bytes());
        }
        b
    }

    #[test]
    fn cta_wire_format_is_row_major_with_predicate_bytes() {
        use simt_snap::{encode, Snap, SnapReader};
        let (cta, wire) = (filled_cta(), filled_cta_wire());
        assert_eq!(encode(&cta), wire);
        // `load` inverts `save`: every by-thread view reads back, and the
        // padding lanes of the last warp stay clear.
        let back = Cta::load(&mut SnapReader::new(&wire)).unwrap();
        assert_eq!(encode(&back), wire);
        assert_eq!(back.regs, cta.regs);
        assert_eq!(back.preds, cta.preds);
        assert_eq!(back.reg(99, Reg(3)), 0x0100_6303);
        assert_eq!(back.pred(99, Pred(0)), (99 * 37 + 11) & 1 != 0);
        assert_eq!(back.column(3, Reg(0))[4..], [0; 28]);
        assert_eq!(back.pred_mask(3, Pred(0)) >> 4, 0);
        // The differential oracle's view is the same layout.
        let state = cta.into_state();
        assert_eq!(state.reg(37, 2), 0x0100_2502);
        assert_eq!(state.regs.len(), 400);
        assert_eq!(
            state.preds,
            (0..100u32).map(|t| (t * 37 + 11) as u8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cta_with_inconsistent_bookkeeping_is_rejected() {
        use simt_snap::{encode, Snap, SnapReader};
        // Byte offsets into the wire form: `num_warps` and `warps_done` are
        // the fourth and fifth geometry words; the two vector lengths sit
        // in front of the registers and the predicate bytes.
        const NUM_WARPS: usize = 3 * 8;
        const WARPS_DONE: usize = 4 * 8;
        const REGS_LEN: usize = 6 * 8;
        const PREDS_LEN: usize = REGS_LEN + 8 + 400 * 4;
        type Corrupt = fn(&mut Vec<u8>);
        let cases: [(&str, Corrupt); 4] = [
            ("inconsistent warp bookkeeping", |b| b[NUM_WARPS] += 1),
            ("inconsistent warp bookkeeping", |b| b[WARPS_DONE] = 5),
            // One more register word: grow the length and give it bytes.
            ("regs for", |b| {
                b[REGS_LEN..][..8].copy_from_slice(&401u64.to_le_bytes());
                b.splice(PREDS_LEN..PREDS_LEN, [0; 4]);
            }),
            ("predicate bytes", |b| {
                b[PREDS_LEN..][..8].copy_from_slice(&101u64.to_le_bytes());
                b.insert(PREDS_LEN + 8, 0);
            }),
        ];
        for (what, corrupt) in cases {
            let mut wire = filled_cta_wire();
            corrupt(&mut wire);
            let err = Cta::load(&mut SnapReader::new(&wire)).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        // One thread of 257 registers is consistent with itself, but no
        // kernel can name r256 and `load` would pad it to 32 lanes.
        let mut wire = encode(&Cta::new(0, 1, 256, 0));
        Cta::load(&mut SnapReader::new(&wire)).unwrap();
        wire[2 * 8..][..8].copy_from_slice(&257u64.to_le_bytes());
        wire[REGS_LEN..][..8].copy_from_slice(&257u64.to_le_bytes());
        wire.splice(REGS_LEN + 8..REGS_LEN + 8, [0; 4]);
        let err = Cta::load(&mut SnapReader::new(&wire)).unwrap_err();
        assert!(
            err.to_string().contains("257 registers per thread"),
            "{err}"
        );
    }

    #[test]
    fn cta_register_isolation() {
        let mut cta = Cta::new(0, 64, 8, 16);
        cta.set_reg(0, Reg(3), 11);
        cta.set_reg(1, Reg(3), 22);
        cta.set_reg(33, Reg(3), 33);
        assert_eq!(cta.reg(0, Reg(3)), 11);
        assert_eq!(cta.reg(1, Reg(3)), 22);
        assert_eq!(cta.reg(2, Reg(3)), 0);
        assert_eq!(cta.column(0, Reg(3))[..3], [11, 22, 0]);
        assert_eq!(
            cta.column(1, Reg(3))[1],
            33,
            "thread 33 is lane 1 of warp 1"
        );
        assert_eq!(cta.column(1, Reg(2))[1], 0);
    }

    #[test]
    fn cta_predicates() {
        let mut cta = Cta::new(0, 64, 4, 0);
        assert!(!cta.pred(37, Pred(1)));
        cta.set_pred_mask(1, Pred(1), 1 << 5, u32::MAX);
        assert!(cta.pred(37, Pred(1)), "thread 37 is lane 5 of warp 1");
        assert!(!cta.pred(37, Pred(0)));
        assert!(!cta.pred(5, Pred(1)));
        assert_eq!(
            cta.pred_mask(1, Pred(1)),
            1 << 5,
            "lanes outside `exec` keep theirs"
        );
        cta.set_pred_mask(1, Pred(1), 1 << 5, 0);
        assert!(!cta.pred(37, Pred(1)));
    }

    #[test]
    fn warp_counts() {
        let cta = Cta::new(0, 100, 4, 0);
        assert_eq!(cta.num_warps, 4, "100 threads = 4 warps (last partial)");
        assert_eq!(cta.live_warps(), 4);
    }

    #[test]
    fn warp_launch_resets_state() {
        let mut w = Warp::vacant();
        assert!(!w.resident);
        w.launch(2, 1, 0xffff_ffff, 7);
        assert!(w.resident);
        assert_eq!(w.thread_of(5), 37);
        assert_eq!(w.stack.active_mask(), u32::MAX);
        assert_eq!(w.age_key, 7);
    }
}
