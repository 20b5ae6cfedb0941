//! Warp-scheduler framework and the paper's three baseline policies.
//!
//! Each SM has `schedulers_per_sm` *units*; warp `w` belongs to unit
//! `w % units`. Every cycle each unit picks at most one eligible warp to
//! issue. Policies implement [`SchedulerPolicy`]; the BOWS wrapper in the
//! `bows` crate composes over any of them.

use simt_snap::Snap;

/// Per-warp metadata visible to schedulers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpMeta {
    /// Warp slot holds live threads.
    pub resident: bool,
    /// All threads exited.
    pub done: bool,
    /// Monotonic launch order: smaller = older ("older warps are those with
    /// lower thread IDs").
    pub age_key: u64,
    /// SM-computed readiness this cycle (scoreboard clear, not at barrier,
    /// not draining a fence, issue port free).
    pub eligible: bool,
}

simt_snap::snap_struct!(WarpMeta {
    resident: bool,
    done: bool,
    age_key: u64,
    eligible: bool
});

/// What a scheduler learns about the instruction its warp just issued.
#[derive(Debug, Clone, Copy, Default)]
pub struct IssueInfo {
    /// Instruction index.
    pub pc: usize,
    /// This was a control-flow instruction.
    pub is_branch: bool,
    /// A backward branch taken by at least one lane.
    pub taken_backward: bool,
    /// For taken backward branches, `pc - target` (a loop-size estimate
    /// CAWA's criticality predictor uses).
    pub branch_distance: usize,
    /// The detector currently classifies this PC as a spin-inducing branch.
    pub is_sib: bool,
    /// Number of lanes that executed.
    pub active_lanes: u32,
    /// The instruction wrote memory (global or shared store) — externally
    /// visible progress, used by the forward-progress watchdog to exempt
    /// producer loops from spin classification.
    pub writes_mem: bool,
}

/// A set of one SM's warp slots, one bit per slot: the issue stage's
/// per-cycle sets (marked, ready, live, eligible, vetoed, backed off) are
/// all of this type. An SM has at most [`WarpSet::CAPACITY`] slots —
/// [`crate::GpuConfig::validate`] refuses more. Iteration is in ascending
/// slot order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpSet(pub u64);

impl WarpSet {
    /// Warp slots a set can hold (and so an SM can have).
    pub const CAPACITY: usize = 64;

    /// No slots.
    pub const EMPTY: WarpSet = WarpSet(0);

    /// Is `slot` a member?
    pub fn contains(self, slot: usize) -> bool {
        slot < WarpSet::CAPACITY && self.0 >> slot & 1 != 0
    }

    /// Add `slot`.
    pub fn insert(&mut self, slot: usize) {
        self.0 |= 1 << slot;
    }

    /// Remove `slot`.
    pub fn remove(&mut self, slot: usize) {
        self.0 &= !(1 << slot);
    }

    /// Add or remove `slot`.
    pub fn set(&mut self, slot: usize, member: bool) {
        if member {
            self.insert(slot);
        } else {
            self.remove(slot);
        }
    }

    /// Number of members.
    pub fn len(self) -> usize {
        // Most sets the SM counts every cycle are empty, and the baseline
        // x86-64 target has no popcount instruction.
        if self.0 == 0 {
            0
        } else {
            self.0.count_ones() as usize
        }
    }

    /// No members?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest member.
    pub fn first(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0.trailing_zeros() as usize)
    }

    /// The members at or above `slot`.
    pub fn at_or_above(self, slot: usize) -> WarpSet {
        WarpSet(self.0 & u64::MAX.checked_shl(slot as u32).unwrap_or(0))
    }

    /// Members in ascending slot order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let slot = WarpSet(bits).first()?;
            bits &= bits - 1;
            Some(slot)
        })
    }
}

impl std::ops::BitAnd for WarpSet {
    type Output = WarpSet;
    fn bitand(self, rhs: WarpSet) -> WarpSet {
        WarpSet(self.0 & rhs.0)
    }
}

/// Set difference: the members of `self` not in `rhs`.
impl std::ops::Sub for WarpSet {
    type Output = WarpSet;
    fn sub(self, rhs: WarpSet) -> WarpSet {
        WarpSet(self.0 & !rhs.0)
    }
}

impl FromIterator<usize> for WarpSet {
    fn from_iter<I: IntoIterator<Item = usize>>(slots: I) -> WarpSet {
        let mut set = WarpSet::EMPTY;
        slots.into_iter().for_each(|slot| set.insert(slot));
        set
    }
}

/// Scheduling context for one cycle.
#[derive(Debug)]
pub struct SchedCtx<'a> {
    /// Current cycle.
    pub now: u64,
    /// Metadata for every warp slot on the SM (indexed by warp slot).
    pub meta: &'a [WarpMeta],
    /// Bumped whenever warp residency changes; lets policies cache derived
    /// orderings.
    pub resident_version: u64,
}

/// A warp-scheduling policy for one scheduler unit.
///
/// Implementations are single-unit: every [`WarpSet`] they are handed
/// holds only warp slots of their own unit.
pub trait SchedulerPolicy {
    /// Policy name for reports (e.g. `"gto"`, `"bows(gto)"`).
    fn name(&self) -> String;

    /// A warp slot was (re)assigned to a fresh warp with `static_inst`
    /// static instructions (CAWA seeds its remaining-instruction estimate).
    fn on_warp_launch(&mut self, _warp: usize, _static_inst: usize) {}

    /// Choose one of `eligible` to issue (never empty). `None` idles.
    fn pick(&mut self, ctx: &SchedCtx<'_>, eligible: WarpSet) -> Option<usize>;

    /// The chosen warp issued `info`.
    fn on_issue(&mut self, _ctx: &SchedCtx<'_>, _warp: usize, _info: &IssueInfo) {}

    /// The warp executed (took) a spin-inducing branch: BOWS's trigger.
    fn on_sib(&mut self, _ctx: &SchedCtx<'_>, _warp: usize) {}

    /// End of cycle bookkeeping. `live` is this unit's live warp slots;
    /// `issued` is the warp that issued this cycle, if any.
    fn end_cycle(&mut self, _ctx: &SchedCtx<'_>, _live: WarpSet, _issued: Option<usize>) {}

    /// The warps this policy forbids to issue at `now` however ready they
    /// are (BOWS's pending back-off delay). Asked once per unit per cycle
    /// in which the unit has a ready warp; the SM issues from its ready
    /// set minus this one and counts the ready warps it removes as
    /// back-off stalls.
    fn vetoed(&self, _now: u64) -> WarpSet {
        WarpSet::EMPTY
    }

    /// The warps in the backed-off state (Figure 11). The SM samples its
    /// size every cycle; it must hold only live warps of this unit — a
    /// warp leaves the state no later than its own `exit` issues — and
    /// `Sm::load_snap` refuses restored state that says otherwise.
    fn backed_off(&self) -> WarpSet {
        WarpSet::EMPTY
    }

    /// Current back-off delay limit (Figure 10 instrumentation); 0 for
    /// non-BOWS policies.
    fn current_delay_limit(&self) -> u64 {
        0
    }

    /// Position of `warp` in the policy's back-off FIFO (0 = next to
    /// issue), for hang diagnostics. `None` for policies without one or
    /// warps not queued.
    fn backoff_queue_position(&self, _warp: usize) -> Option<usize> {
        None
    }

    /// Earliest future cycle (strictly after `now`) at which this unit's
    /// internal state can change *on its own* — e.g. a BOWS back-off delay
    /// expiring or an adaptive-window update firing. `None` when the policy
    /// has no self-scheduled state changes (the baselines). Used by the
    /// fast-forward engine; returning too-early cycles only costs speed,
    /// returning too-late ones breaks cycle-engine equivalence.
    fn next_wakeup(&self, _now: u64) -> Option<u64> {
        None
    }

    /// Bulk-apply `span` consecutive issue-free end-of-cycle updates, as if
    /// [`SchedulerPolicy::end_cycle`] ran with `issued = None` at cycles
    /// `now+1 ..= now+span` (with `ctx` frozen at `now`, which is exact for
    /// dead cycles: warp metadata cannot change while nothing issues).
    /// The default literally loops `end_cycle`, which is always correct;
    /// policies whose idle update is closed-form override it.
    fn on_idle_span(&mut self, ctx: &SchedCtx<'_>, live: WarpSet, span: u64) {
        for _ in 0..span {
            self.end_cycle(ctx, live, None);
        }
    }

    /// Serialize the unit's dynamic state into a checkpoint. A policy whose
    /// next decision depends on anything beyond the per-cycle `SchedCtx`
    /// (LRR's last-issued slot, CAWA's criticality counters, BOWS's queue
    /// and delay state) must write it all; a resumed run must pick the same
    /// warps the uninterrupted run would have.
    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        let _ = w;
    }

    /// Restore state written by [`SchedulerPolicy::save_state`] into a
    /// freshly constructed unit of the same policy.
    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        let _ = r;
        Ok(())
    }
}

/// Which baseline policy to build (convenience for experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasePolicy {
    /// Loose round-robin.
    Lrr,
    /// Greedy-then-oldest with periodic age rotation.
    Gto,
    /// Criticality-aware warp acceleration.
    Cawa,
}

impl BasePolicy {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BasePolicy::Lrr => "lrr",
            BasePolicy::Gto => "gto",
            BasePolicy::Cawa => "cawa",
        }
    }

    /// Instantiate one scheduler unit of this policy.
    pub fn build(self, gto_rotate_period: u64) -> Box<dyn SchedulerPolicy> {
        match self {
            BasePolicy::Lrr => Box::new(Lrr::new()),
            BasePolicy::Gto => Box::new(Gto::new(gto_rotate_period)),
            BasePolicy::Cawa => Box::new(Cawa::new()),
        }
    }
}

impl std::str::FromStr for BasePolicy {
    type Err = ();

    /// Parse a [`BasePolicy::name`] (`lrr` | `gto` | `cawa`).
    fn from_str(s: &str) -> Result<BasePolicy, ()> {
        [BasePolicy::Lrr, BasePolicy::Gto, BasePolicy::Cawa]
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or(())
    }
}

/// Loose round-robin: cycle through warp slots, starting after the slot that
/// issued most recently.
#[derive(Debug, Clone)]
pub struct Lrr {
    last: usize,
}

impl Default for Lrr {
    fn default() -> Lrr {
        Lrr::new()
    }
}

impl Lrr {
    const MOD: usize = 1 << 16;

    pub fn new() -> Lrr {
        Lrr { last: Lrr::MOD - 1 }
    }
}

impl SchedulerPolicy for Lrr {
    fn name(&self) -> String {
        "lrr".to_string()
    }

    // The first eligible slot after the last one issued, wrapping. `last`
    // starts at `MOD - 1`, one before slot 0 modulo `MOD`.
    fn pick(&mut self, _ctx: &SchedCtx<'_>, eligible: WarpSet) -> Option<usize> {
        let next = (self.last + 1) % Lrr::MOD;
        let w = eligible.at_or_above(next).first().or(eligible.first())?;
        self.last = w;
        Some(w)
    }

    // Idle cycles touch no LRR state.
    fn on_idle_span(&mut self, _ctx: &SchedCtx<'_>, _live: WarpSet, _span: u64) {}

    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        self.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        *self = Lrr::load(r)?;
        Ok(())
    }
}

simt_snap::snap_struct!(Lrr { last: usize });

/// Greedy-then-oldest. Strict GTO can livelock under busy-wait
/// synchronization (the paper observed this on HT and ATM), so age priority
/// rotates every `rotate_period` cycles.
#[derive(Debug, Clone)]
pub struct Gto {
    rotate_period: u64,
    last_issued: Option<usize>,
    /// The rank cache, derived from `(resident_version, rotation)` and
    /// never serialized: the rotation `now / rotate_period` and the cycles
    /// `window` it holds for, the key the ranks were built for, the
    /// per-slot ranks and the resident list they were built from (both
    /// buffers reused across refreshes).
    rotation: u64,
    window: std::ops::Range<u64>,
    ranked: (u64, u64),
    ranks: Vec<u64>,
    resident: Vec<(u64, usize)>,
}

impl Gto {
    pub fn new(rotate_period: u64) -> Gto {
        Gto {
            rotate_period: rotate_period.max(1),
            last_issued: None,
            rotation: 0,
            window: 0..0,
            ranked: (u64::MAX, u64::MAX),
            ranks: Vec::new(),
            resident: Vec::new(),
        }
    }

    fn refresh(&mut self, ctx: &SchedCtx<'_>) {
        if !self.window.contains(&ctx.now) {
            self.rotation = ctx.now / self.rotate_period;
            let start = self.rotation * self.rotate_period;
            self.window = start..start.saturating_add(self.rotate_period);
        }
        let key = (ctx.resident_version, self.rotation);
        if self.ranked == key && self.ranks.len() == ctx.meta.len() {
            return;
        }
        self.ranked = key;
        // Rank resident warps by age, then rotate the order.
        self.resident.clear();
        self.resident.extend(
            ctx.meta
                .iter()
                .enumerate()
                .filter(|(_, m)| m.resident && !m.done)
                .map(|(w, m)| (m.age_key, w)),
        );
        self.resident.sort_unstable();
        let n = self.resident.len().max(1) as u64;
        self.ranks.clear();
        self.ranks.resize(ctx.meta.len(), u64::MAX);
        for (pos, &(_, w)) in self.resident.iter().enumerate() {
            self.ranks[w] = (pos as u64 + self.rotation) % n;
        }
    }
}

impl SchedulerPolicy for Gto {
    fn name(&self) -> String {
        "gto".to_string()
    }

    fn pick(&mut self, ctx: &SchedCtx<'_>, eligible: WarpSet) -> Option<usize> {
        // Greedy: stick with the last issued warp while it stays eligible.
        if let Some(last) = self.last_issued {
            if eligible.contains(last) {
                return Some(last);
            }
        }
        self.refresh(ctx);
        let w = eligible.iter().min_by_key(|&w| self.ranks[w])?;
        self.last_issued = Some(w);
        Some(w)
    }

    // Idle cycles touch no GTO state (the rank cache refreshes lazily in
    // `pick`, from the cycle it is called at), so an SM may sleep across
    // a rotation boundary.
    fn on_idle_span(&mut self, _ctx: &SchedCtx<'_>, _live: WarpSet, _span: u64) {}

    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        self.save_fields(w);
    }

    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        self.load_fields(r)?;
        self.window = 0..0;
        self.ranked = (u64::MAX, u64::MAX);
        Ok(())
    }
}

// The rank cache is a pure function of (resident_version, now) and
// refreshes lazily, so only the greedy pointer persists.
simt_snap::snap_struct!(state Gto { last_issued: Option<usize> });

#[derive(Debug, Clone, Copy, Default)]
struct CawaWarp {
    /// Remaining-instruction estimate (`nInst`).
    n_inst: f64,
    /// Instructions issued.
    issued: u64,
    /// Cycles since launch (denominator of CPI).
    cycles: u64,
    /// Cycles the warp was resident but did not issue (`nStall`).
    stalls: u64,
}

/// Criticality-Aware Warp Acceleration (Lee et al., ISCA 2015), as the paper
/// models it: criticality = `nInst × CPIavg + nStall`; the most critical
/// eligible warp issues.
///
/// `nInst` grows by the loop length whenever the warp takes a backward
/// branch — which is exactly why CAWA pathologically *prioritizes spinning
/// warps*: every failed lock-acquire iteration inflates the spinner's
/// criticality (paper Sections I–II).
#[derive(Debug, Clone, Default)]
pub struct Cawa {
    warps: Vec<CawaWarp>,
}

impl Cawa {
    pub fn new() -> Cawa {
        Cawa::default()
    }

    fn ensure(&mut self, warp: usize) {
        if self.warps.len() <= warp {
            self.warps.resize(warp + 1, CawaWarp::default());
        }
    }

    fn criticality(&self, warp: usize) -> f64 {
        let Some(w) = self.warps.get(warp) else {
            return 0.0;
        };
        let cpi = if w.issued == 0 {
            1.0
        } else {
            w.cycles as f64 / w.issued as f64
        };
        w.n_inst * cpi + w.stalls as f64
    }
}

impl SchedulerPolicy for Cawa {
    fn name(&self) -> String {
        "cawa".to_string()
    }

    fn on_warp_launch(&mut self, warp: usize, static_inst: usize) {
        self.ensure(warp);
        self.warps[warp] = CawaWarp {
            n_inst: static_inst as f64,
            ..CawaWarp::default()
        };
    }

    // On a tie the highest slot wins (`max_by` keeps the last maximum).
    fn pick(&mut self, _ctx: &SchedCtx<'_>, eligible: WarpSet) -> Option<usize> {
        eligible.iter().max_by(|&a, &b| {
            self.criticality(a)
                .partial_cmp(&self.criticality(b))
                .expect("criticality is finite")
        })
    }

    fn on_issue(&mut self, _ctx: &SchedCtx<'_>, warp: usize, info: &IssueInfo) {
        self.ensure(warp);
        let w = &mut self.warps[warp];
        w.issued += 1;
        w.n_inst = (w.n_inst - 1.0).max(1.0);
        if info.taken_backward {
            w.n_inst += info.branch_distance as f64;
        }
    }

    fn end_cycle(&mut self, ctx: &SchedCtx<'_>, live: WarpSet, issued: Option<usize>) {
        for w in live.iter() {
            self.ensure(w);
            let m = ctx.meta[w];
            if m.resident && !m.done {
                self.warps[w].cycles += 1;
                if issued != Some(w) {
                    self.warps[w].stalls += 1;
                }
            }
        }
    }

    // `span` issue-free end_cycles in closed form: every resident live warp
    // ages and stalls once per skipped cycle.
    fn on_idle_span(&mut self, ctx: &SchedCtx<'_>, live: WarpSet, span: u64) {
        for w in live.iter() {
            self.ensure(w);
            let m = ctx.meta[w];
            if m.resident && !m.done {
                self.warps[w].cycles += span;
                self.warps[w].stalls += span;
            }
        }
    }

    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        self.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        *self = Cawa::load(r)?;
        Ok(())
    }
}

simt_snap::snap_struct!(CawaWarp {
    n_inst: f64,
    issued: u64,
    cycles: u64,
    stalls: u64
});
simt_snap::snap_struct!(Cawa { warps: Vec<CawaWarp> });

#[cfg(test)]
mod tests {
    use super::*;

    fn set(slots: &[usize]) -> WarpSet {
        slots.iter().copied().collect()
    }

    #[test]
    fn warp_set_ops_and_ascending_iteration() {
        let mut s = set(&[63, 3, 40, 3]);
        s.set(40, false);
        s.set(7, true);
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 7, 63]);
        assert_eq!((s.len(), s.first()), (3, Some(3)));
        assert!(s.contains(63) && !s.contains(40) && !s.contains(64));
        assert_eq!(s.at_or_above(8), set(&[63]));
        assert_eq!(s.at_or_above(64), WarpSet::EMPTY);
        assert_eq!(s & set(&[3, 4]), set(&[3]));
        assert_eq!(s - set(&[3, 63]), set(&[7]));
        assert_eq!(WarpSet(u64::MAX).len(), 64);
        assert_eq!(WarpSet::EMPTY.first(), None);
        assert_eq!(WarpSet::EMPTY.iter().count(), 0);
    }

    #[test]
    fn snap_laws() {
        use simt_snap::assert_snap_laws;
        assert_snap_laws(&WarpMeta::default());
        assert_snap_laws(&Lrr::new());
        assert_snap_laws(&Cawa::new());
        let mut cawa = Cawa::new();
        cawa.on_warp_launch(2, 100);
        assert_snap_laws(&cawa);
    }

    fn meta(n: usize) -> Vec<WarpMeta> {
        (0..n)
            .map(|i| WarpMeta {
                resident: true,
                done: false,
                age_key: i as u64,
                eligible: true,
            })
            .collect()
    }

    fn ctx<'a>(now: u64, meta: &'a [WarpMeta]) -> SchedCtx<'a> {
        SchedCtx {
            now,
            meta,
            resident_version: 1,
        }
    }

    #[test]
    fn lrr_round_robins() {
        let m = meta(6);
        let c = ctx(0, &m);
        let mut lrr = Lrr::new();
        let eligible = set(&[0, 2, 4]);
        assert_eq!(lrr.pick(&c, eligible), Some(0));
        assert_eq!(lrr.pick(&c, eligible), Some(2));
        assert_eq!(lrr.pick(&c, eligible), Some(4));
        assert_eq!(lrr.pick(&c, eligible), Some(0), "wraps");
    }

    #[test]
    fn lrr_starts_at_slot_0_and_wraps_at_slot_63() {
        let m = meta(64);
        let c = ctx(0, &m);
        // The initial `last` is one before slot 0: the lowest slot goes first.
        let mut lrr = Lrr::new();
        assert_eq!(lrr.pick(&c, set(&[5, 63])), Some(5));
        assert_eq!(lrr.pick(&c, set(&[5, 63])), Some(63));
        // Nothing lies after slot 63: wrap to the lowest eligible slot.
        assert_eq!(lrr.pick(&c, set(&[0, 63])), Some(0));
        assert_eq!(lrr.pick(&c, set(&[63])), Some(63));
        assert_eq!(lrr.pick(&c, set(&[63])), Some(63), "the only slot, again");
    }

    #[test]
    fn gto_is_greedy_then_oldest() {
        let m = meta(6);
        let c = ctx(0, &m);
        let mut gto = Gto::new(50_000);
        // Oldest (lowest age) among eligible first.
        assert_eq!(gto.pick(&c, set(&[4, 2])), Some(2));
        // Greedy: keeps picking 2 while eligible.
        assert_eq!(gto.pick(&c, set(&[0, 2, 4])), Some(2));
        // 2 stalls: falls back to oldest = 0.
        assert_eq!(gto.pick(&c, set(&[0, 4])), Some(0));
    }

    #[test]
    fn gto_rotation_changes_oldest() {
        let m = meta(4);
        let mut gto = Gto::new(100);
        let c0 = ctx(0, &m);
        assert_eq!(gto.pick(&c0, set(&[0, 1, 2, 3])), Some(0));
        // After one rotation period, warp 0's rank is 1; the "oldest" rank 0
        // belongs to warp 3 ((3 + 1) % 4 == 0).
        let mut gto2 = Gto::new(100);
        let c1 = ctx(100, &m);
        assert_eq!(gto2.pick(&c1, set(&[0, 1, 2, 3])), Some(3));
    }

    #[test]
    fn gto_keeps_its_rotation_inside_the_window_and_moves_past_it() {
        let m = meta(4);
        let mut gto = Gto::new(100);
        assert_eq!(gto.pick(&ctx(0, &m), set(&[1, 2, 3])), Some(1));
        // Still rotation 0 at cycle 99: ages rank 0 < 1 < 2 < 3.
        assert_eq!(gto.pick(&ctx(99, &m), set(&[2, 3])), Some(2));
        // Rotation 1 from cycle 100: warp 3 is ranked first.
        assert_eq!(gto.pick(&ctx(100, &m), set(&[0, 1, 3])), Some(3));
        // Rotation 2 from cycle 200: warp 2 first, then warp 3.
        assert_eq!(gto.pick(&ctx(250, &m), set(&[0, 3])), Some(3), "greedy");
        assert_eq!(gto.pick(&ctx(250, &m), set(&[0, 1, 2])), Some(2));
    }

    #[test]
    fn cawa_prioritizes_spinning_warp() {
        // Two warps; warp 1 keeps taking a backward branch (spinning):
        // its criticality balloons, so CAWA keeps prioritizing it — the
        // pathology the paper describes.
        let m = meta(2);
        let c = ctx(0, &m);
        let mut cawa = Cawa::new();
        cawa.on_warp_launch(0, 100);
        cawa.on_warp_launch(1, 100);
        for _ in 0..10 {
            cawa.on_issue(
                &c,
                1,
                &IssueInfo {
                    is_branch: true,
                    taken_backward: true,
                    branch_distance: 8,
                    ..IssueInfo::default()
                },
            );
            cawa.end_cycle(&c, set(&[0, 1]), Some(1));
        }
        assert_eq!(cawa.pick(&c, set(&[0, 1])), Some(1));
    }

    #[test]
    fn cawa_stall_accounting_raises_criticality() {
        let m = meta(2);
        let c = ctx(0, &m);
        let mut cawa = Cawa::new();
        cawa.on_warp_launch(0, 10);
        cawa.on_warp_launch(1, 10);
        // Warp 1 stalls for 100 cycles while warp 0 issues.
        for _ in 0..100 {
            cawa.end_cycle(&c, set(&[0, 1]), Some(0));
        }
        assert!(cawa.criticality(1) > cawa.criticality(0));
        assert_eq!(cawa.pick(&c, set(&[0, 1])), Some(1));
    }

    #[test]
    fn cawa_tie_goes_to_the_highest_slot() {
        let m = meta(64);
        let c = ctx(0, &m);
        let mut cawa = Cawa::new();
        for w in 0..64 {
            cawa.on_warp_launch(w, 10);
        }
        assert_eq!(cawa.pick(&c, set(&[1, 5, 2])), Some(5));
        assert_eq!(cawa.pick(&c, set(&[0, 63])), Some(63));
    }

    #[test]
    fn base_policy_builders() {
        for p in [BasePolicy::Lrr, BasePolicy::Gto, BasePolicy::Cawa] {
            let unit = p.build(50_000);
            assert_eq!(unit.name(), p.name());
            assert_eq!(unit.vetoed(0), WarpSet::EMPTY);
            assert_eq!(unit.backed_off(), WarpSet::EMPTY);
            assert_eq!(unit.current_delay_limit(), 0);
        }
    }
}
