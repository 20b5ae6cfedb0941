//! BOWS — Back-Off Warp Spinning (paper Section III).
//!
//! BOWS wraps a baseline scheduler and adds two mechanisms:
//!
//! 1. **Backed-off state**: a warp that executes (takes) a spin-inducing
//!    branch is pushed to the back of the scheduling priority — it can only
//!    issue when no normal warp is eligible. Issuing its next instruction
//!    returns it to normal priority.
//! 2. **Pending back-off delay**: when a warp leaves the backed-off state,
//!    a delay register is loaded with the delay limit and drains every
//!    cycle; if the warp executes a SIB again before the register reaches
//!    zero, it may not issue until it does. This enforces a minimum
//!    interval between consecutive spin-loop iterations of the same warp.
//!
//! The delay limit is fixed or adapted per Figure 5 (see [`DelayMode`]).

use simt_core::{IssueInfo, SchedCtx, SchedulerPolicy, WarpSet};
use simt_snap::Snap;
use std::collections::VecDeque;

/// Adaptive back-off delay-limit controller parameters (paper Figure 5 and
/// Table II).
///
/// Note on fidelity: Table II lists `FRAC1 = 0.5`, but read literally
/// (`SIB instructions > FRAC1 × total instructions`) the increase rule could
/// never fire — a spin iteration is several instructions long, so SIBs are
/// well under half of the total even in pathological spinning. Table II also
/// lists Min = Max = 1000, which would make the controller degenerate,
/// contradicting Figures 10–11 (adaptive ≠ 1000) and Table III (14-bit
/// counters for delays up to 10 000). We treat both as typos: the default
/// here is `frac1 = 0.1`, limits [0, 10 000]; every value is configurable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Execution-window length `T` in cycles.
    pub window: u64,
    /// Delay step added/subtracted per window.
    pub step: u64,
    /// Increase the limit while `SIB / total > frac1`.
    pub frac1: f64,
    /// Decrease (by `2 × step`) when the useful-work proxy
    /// `total / SIB` drops below `frac2 ×` its previous-window value.
    pub frac2: f64,
    /// Lower clamp.
    pub min: u64,
    /// Upper clamp.
    pub max: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            window: 1000,
            step: 250,
            frac1: 0.1,
            frac2: 0.8,
            min: 0,
            max: 10_000,
        }
    }
}

/// Which of BOWS's two mechanisms are active — the ablation knob for the
/// design-choice studies (full BOWS = both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BowsComponents {
    /// Push SIB-executing warps to the back of the scheduling priority.
    pub deprioritize: bool,
    /// Enforce the minimum interval between spin iterations (the pending
    /// back-off delay register).
    pub throttle: bool,
}

impl Default for BowsComponents {
    fn default() -> BowsComponents {
        BowsComponents {
            deprioritize: true,
            throttle: true,
        }
    }
}

/// How the back-off delay limit is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayMode {
    /// A fixed limit in cycles (the 0/500/1000/3000/5000 sweep of Fig. 10).
    Fixed(u64),
    /// The Figure 5 adaptive controller.
    Adaptive(AdaptiveConfig),
}

impl DelayMode {
    /// Label used in reports ("0", "500", ..., "adaptive").
    pub fn label(&self) -> String {
        match self {
            DelayMode::Fixed(v) => v.to_string(),
            DelayMode::Adaptive(_) => "adaptive".to_string(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BowsWarp {
    backed_off: bool,
    /// Cycle at which the pending back-off delay reaches zero.
    delay_zero_at: u64,
}

/// The Figure 5 controller state.
#[derive(Debug, Clone, Copy)]
struct Adaptive {
    cfg: AdaptiveConfig,
    window_total: u64,
    window_sib: u64,
    prev_ratio: Option<f64>,
    next_update: u64,
}

impl Adaptive {
    fn new(cfg: AdaptiveConfig) -> Adaptive {
        Adaptive {
            cfg,
            window_total: 0,
            window_sib: 0,
            prev_ratio: None,
            next_update: cfg.window,
        }
    }

    /// Apply the Figure 5 update; returns the new delay limit.
    fn update(&mut self, mut limit: u64) -> u64 {
        let total = self.window_total.max(1) as f64;
        let sib = self.window_sib as f64;
        if sib > self.cfg.frac1 * total {
            limit = limit.saturating_add(self.cfg.step);
        }
        if self.window_sib > 0 {
            let ratio = total / sib;
            if let Some(prev) = self.prev_ratio {
                if ratio < self.cfg.frac2 * prev {
                    limit = limit.saturating_sub(2 * self.cfg.step);
                }
            }
            self.prev_ratio = Some(ratio);
        }
        limit = limit.clamp(self.cfg.min, self.cfg.max);
        self.window_total = 0;
        self.window_sib = 0;
        limit
    }
}

/// The BOWS scheduling policy, wrapping a baseline
/// [`SchedulerPolicy`] (LRR, GTO or CAWA).
pub struct Bows {
    inner: Box<dyn SchedulerPolicy>,
    warps: Vec<BowsWarp>,
    /// FIFO of backed-off warps (issue order when nothing else is ready).
    queue: VecDeque<usize>,
    /// The FIFO's members as a set (derived; rebuilt at restore).
    backed: WarpSet,
    delay_limit: u64,
    adaptive: Option<Adaptive>,
    components: BowsComponents,
}

impl std::fmt::Debug for Bows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bows")
            .field("inner", &self.inner.name())
            .field("delay_limit", &self.delay_limit)
            .field("backed_off", &self.queue.len())
            .finish()
    }
}

impl Bows {
    /// Wrap `inner` with the given delay mode (full BOWS: both mechanisms).
    pub fn new(inner: Box<dyn SchedulerPolicy>, delay: DelayMode) -> Bows {
        Bows::with_components(inner, delay, BowsComponents::default())
    }

    /// Wrap `inner` with only selected mechanisms (ablation studies).
    pub fn with_components(
        inner: Box<dyn SchedulerPolicy>,
        delay: DelayMode,
        components: BowsComponents,
    ) -> Bows {
        let (delay_limit, adaptive) = match delay {
            DelayMode::Fixed(v) => (v, None),
            DelayMode::Adaptive(cfg) => (cfg.min, Some(Adaptive::new(cfg))),
        };
        Bows {
            inner,
            warps: Vec::new(),
            queue: VecDeque::new(),
            backed: WarpSet::EMPTY,
            delay_limit,
            adaptive,
            components,
        }
    }

    fn ensure(&mut self, warp: usize) {
        if self.warps.len() <= warp {
            self.warps.resize(warp + 1, BowsWarp::default());
        }
    }

    fn state(&self, warp: usize) -> BowsWarp {
        self.warps.get(warp).copied().unwrap_or_default()
    }
}

impl SchedulerPolicy for Bows {
    fn name(&self) -> String {
        format!("bows({})", self.inner.name())
    }

    fn on_warp_launch(&mut self, warp: usize, static_inst: usize) {
        self.ensure(warp);
        self.warps[warp] = BowsWarp::default();
        self.queue.retain(|&w| w != warp);
        self.backed.remove(warp);
        self.inner.on_warp_launch(warp, static_inst);
    }

    fn pick(&mut self, ctx: &SchedCtx<'_>, eligible: WarpSet) -> Option<usize> {
        if !self.components.deprioritize {
            return self.inner.pick(ctx, eligible);
        }
        // Normal warps first; backed-off warps only when nothing else is
        // ready, in FIFO back-off order.
        let normal = eligible - self.backed;
        if !normal.is_empty() {
            return self.inner.pick(ctx, normal);
        }
        self.queue.iter().copied().find(|&w| eligible.contains(w))
    }

    fn on_issue(&mut self, ctx: &SchedCtx<'_>, warp: usize, info: &IssueInfo) {
        self.ensure(warp);
        if self.warps[warp].backed_off {
            // Leaving the backed-off state: normal priority returns and the
            // pending back-off delay register is loaded.
            self.warps[warp].backed_off = false;
            self.queue.retain(|&w| w != warp);
            self.backed.remove(warp);
            self.warps[warp].delay_zero_at = ctx.now + self.delay_limit;
        }
        if let Some(a) = &mut self.adaptive {
            a.window_total += 1;
            if info.is_sib {
                a.window_sib += 1;
            }
        }
        self.inner.on_issue(ctx, warp, info);
    }

    fn on_sib(&mut self, ctx: &SchedCtx<'_>, warp: usize) {
        self.ensure(warp);
        if !self.warps[warp].backed_off {
            self.warps[warp].backed_off = true;
            self.queue.push_back(warp);
            self.backed.insert(warp);
        }
        self.inner.on_sib(ctx, warp);
    }

    fn end_cycle(&mut self, ctx: &SchedCtx<'_>, live: WarpSet, issued: Option<usize>) {
        if let Some(a) = &mut self.adaptive {
            if ctx.now >= a.next_update {
                a.next_update = ctx.now + a.cfg.window;
                self.delay_limit = {
                    let limit = self.delay_limit;
                    a.update(limit)
                };
            }
        }
        self.inner.end_cycle(ctx, live, issued);
    }

    // A backed-off warp (it just executed a SIB) may not start another
    // spin iteration until its pending delay has drained. Backed-off warps
    // are exactly the FIFO's members (see `next_wakeup`).
    fn vetoed(&self, now: u64) -> WarpSet {
        let mut vetoed = self.inner.vetoed(now);
        if self.components.throttle {
            for &warp in &self.queue {
                if now < self.state(warp).delay_zero_at {
                    vetoed.insert(warp);
                }
            }
        }
        vetoed
    }

    fn backed_off(&self) -> WarpSet {
        self.backed
    }

    fn current_delay_limit(&self) -> u64 {
        self.delay_limit
    }

    fn backoff_queue_position(&self, warp: usize) -> Option<usize> {
        self.queue.iter().position(|&w| w == warp)
    }

    fn next_wakeup(&self, now: u64) -> Option<u64> {
        let mut next = self.inner.next_wakeup(now);
        let mut fold = |t: u64| {
            if t > now {
                next = Some(next.map_or(t, |n: u64| n.min(t)));
            }
        };
        if let Some(a) = &self.adaptive {
            // Always a wakeup candidate: even an update that leaves the
            // delay limit unchanged resets the window phase
            // (`next_update = fire + window`), so skipping past it would
            // desynchronize every later update from the cycle engine.
            fold(a.next_update);
        }
        if self.components.throttle {
            // Backed-off warps are exactly the back-off FIFO's members
            // (`on_sib` enqueues, `on_issue`/`on_warp_launch` dequeue), so
            // the scan is over the queue, not every warp slot.
            for &warp in &self.queue {
                let s = self.state(warp);
                if s.backed_off && s.delay_zero_at > now {
                    // The veto flips off at delay_zero_at.
                    fold(s.delay_zero_at);
                }
            }
        }
        next
    }

    fn on_idle_span(&mut self, ctx: &SchedCtx<'_>, live: WarpSet, span: u64) {
        // No BOWS state advances during a dead span: window counters move
        // only on issue, and the adaptive update cannot fire inside a span
        // (next_update is a wakeup candidate above). Only the inner policy
        // gets its idle bookkeeping.
        self.inner.on_idle_span(ctx, live, span);
    }

    fn save_state(&self, w: &mut simt_snap::SnapWriter) {
        // The wrapped baseline's state rides along as a length-prefixed
        // blob, mirroring how the SM frames each unit.
        w.nested(|w| self.inner.save_state(w));
        self.save_fields(w);
        self.adaptive.is_some().save(w);
        if let Some(a) = &self.adaptive {
            a.save_fields(w);
        }
    }

    fn load_state(
        &mut self,
        r: &mut simt_snap::SnapReader<'_>,
    ) -> Result<(), simt_snap::SnapshotError> {
        r.nested(|r| self.inner.load_state(r))?;
        self.load_fields(r)?;
        self.backed = WarpSet::EMPTY;
        for &warp in &self.queue {
            if warp >= WarpSet::CAPACITY {
                return Err(simt_snap::SnapshotError::malformed(format!(
                    "bows: backed-off queue names warp {warp}, past the {}-slot cap",
                    WarpSet::CAPACITY
                )));
            }
            self.backed.insert(warp);
        }
        if bool::load(r)? != self.adaptive.is_some() {
            return Err(simt_snap::SnapshotError::malformed(
                "bows: snapshot delay mode (fixed/adaptive) does not match this unit",
            ));
        }
        if let Some(a) = &mut self.adaptive {
            a.load_fields(r)?;
        }
        Ok(())
    }
}

simt_snap::snap_struct!(BowsWarp {
    backed_off: bool,
    delay_zero_at: u64
});

// The Figure 5 window counters; the controller parameters are
// construction-time.
simt_snap::snap_struct!(state Adaptive {
    window_total: u64,
    window_sib: u64,
    prev_ratio: Option<f64>,
    next_update: u64,
});

// Per-warp back-off state, the back-off FIFO, and the current delay limit.
// The wrapped policy, the adaptive controller and the ablation switches
// are framed separately or construction-time.
simt_snap::snap_struct!(state Bows {
    warps: Vec<BowsWarp>,
    queue: VecDeque<usize>,
    delay_limit: u64,
} check |b: &Bows| {
    // The FIFO holds each backed-off warp exactly once and nothing else:
    // `vetoed`, `next_wakeup` and the backed-off set read the queue in
    // place of the per-warp flags.
    let bad = |what: String| Err(simt_snap::SnapshotError::malformed(format!("bows: {what}")));
    let mut queued = vec![false; b.warps.len()];
    for &warp in &b.queue {
        match queued.get_mut(warp) {
            None => return bad(format!("backed-off queue names warp {warp} of {}", b.warps.len())),
            Some(seen) if *seen => return bad(format!("backed-off queue names warp {warp} twice")),
            Some(seen) => *seen = true,
        }
    }
    match b.warps.iter().zip(&queued).position(|(w, &q)| w.backed_off != q) {
        Some(warp) => bad(format!(
            "warp {warp} has backed_off = {}, but the backed-off queue says {}",
            b.warps[warp].backed_off, queued[warp]
        )),
        None => Ok(()),
    }
});

#[cfg(test)]
mod tests {
    use super::*;
    use simt_core::sched::Lrr;
    use simt_core::WarpMeta;

    fn set(slots: &[usize]) -> WarpSet {
        slots.iter().copied().collect()
    }

    #[test]
    fn snap_laws_and_queue_check() {
        simt_snap::assert_snap_laws(&BowsWarp::default());
        simt_snap::assert_snap_laws(&BowsWarp {
            backed_off: true,
            delay_zero_at: 99,
        });
        let m = meta(4);
        let c = ctx(0, &m);
        let mut b = bows(DelayMode::Adaptive(AdaptiveConfig::default()));
        b.on_sib(&c, 3);
        assert_eq!(b.backed_off().len(), 1);
        let mut w = simt_snap::SnapWriter::new();
        b.save_state(&mut w);
        let body = w.into_bytes();
        let mut back = bows(DelayMode::Adaptive(AdaptiveConfig::default()));
        back.load_state(&mut simt_snap::SnapReader::new(&body))
            .unwrap();
        assert!(back.backed_off().contains(3));
        assert_eq!(back.backoff_queue_position(3), Some(0));
        // The queue must hold each backed-off warp once and nothing else:
        // a member the table does not hold, a disagreement with the
        // per-warp flags either way round, or a repeat is corrupt.
        type Corrupt = fn(&mut Bows);
        let cases: [(&str, Corrupt); 5] = [
            ("names warp 17", |b| b.queue.push_back(17)),
            ("names warp 65, past the 64-slot cap", |b| {
                b.warps.resize(70, BowsWarp::default());
                b.warps[65].backed_off = true;
                b.queue.push_back(65);
            }),
            ("warp 3 has backed_off = false", |b| {
                b.warps[3].backed_off = false
            }),
            ("warp 1 has backed_off = true", |b| {
                b.warps[1].backed_off = true
            }),
            ("names warp 3 twice", |b| b.queue.push_back(3)),
        ];
        for (what, corrupt) in cases {
            let mut b = bows(DelayMode::Adaptive(AdaptiveConfig::default()));
            b.on_sib(&c, 3);
            corrupt(&mut b);
            let mut w = simt_snap::SnapWriter::new();
            b.save_state(&mut w);
            let err = bows(DelayMode::Adaptive(AdaptiveConfig::default()))
                .load_state(&mut simt_snap::SnapReader::new(&w.into_bytes()))
                .unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
        // A fixed-delay unit refuses an adaptive unit's blob.
        let err = bows(DelayMode::Fixed(500))
            .load_state(&mut simt_snap::SnapReader::new(&body))
            .unwrap_err();
        assert!(err.to_string().contains("delay mode"), "{err}");
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

    fn bows(delay: DelayMode) -> Bows {
        Bows::new(Box::new(Lrr::new()), delay)
    }

    #[test]
    fn name_composes() {
        assert_eq!(bows(DelayMode::Fixed(0)).name(), "bows(lrr)");
    }

    #[test]
    fn backed_off_warp_deprioritized() {
        let m = meta(4);
        let c = ctx(0, &m);
        let mut b = bows(DelayMode::Fixed(0));
        b.on_sib(&c, 1);
        assert!(b.backed_off().contains(1));
        // Warp 1 loses to any normal warp...
        assert_eq!(b.pick(&c, set(&[1, 2])), Some(2));
        // ...but issues when it is the only one ready.
        assert_eq!(b.pick(&c, set(&[1])), Some(1));
        // Issuing clears the backed-off state.
        b.on_issue(&c, 1, &IssueInfo::default());
        assert!(!b.backed_off().contains(1));
    }

    #[test]
    fn backed_off_fifo_order() {
        let m = meta(8);
        let c = ctx(0, &m);
        let mut b = bows(DelayMode::Fixed(0));
        b.on_sib(&c, 3);
        b.on_sib(&c, 1);
        b.on_sib(&c, 5);
        // All backed off; FIFO picks 3 first.
        assert_eq!(b.pick(&c, set(&[1, 3, 5])), Some(3));
        b.on_issue(&c, 3, &IssueInfo::default());
        assert_eq!(b.pick(&c, set(&[1, 5])), Some(1));
    }

    #[test]
    fn pending_delay_gates_next_spin_iteration() {
        let m = meta(2);
        let mut b = bows(DelayMode::Fixed(100));
        // Warp 0 backed off at t=0, issues (alone) at t=5: delay loaded,
        // zero at 105.
        let c0 = ctx(0, &m);
        b.on_sib(&c0, 0);
        let c5 = ctx(5, &m);
        assert!(
            !b.vetoed(5).contains(0),
            "first post-SIB issue is not delay-gated"
        );
        b.on_issue(&c5, 0, &IssueInfo::default());
        // It executes the SIB again at t=20 (critical section shorter than
        // the limit): backed off AND delay-gated until 105.
        let c20 = ctx(20, &m);
        b.on_sib(&c20, 0);
        assert!(b.vetoed(50).contains(0));
        assert!(!b.vetoed(105).contains(0));
    }

    #[test]
    fn long_critical_section_outlives_delay() {
        let m = meta(2);
        let mut b = bows(DelayMode::Fixed(30));
        let c0 = ctx(0, &m);
        b.on_sib(&c0, 0);
        b.on_issue(&ctx(1, &m), 0, &IssueInfo::default()); // delay zero at 31
                                                           // SIB executed again at t=100 (> 31): no delay gating at all — the
                                                           // Figure 4 case where the critical section exceeds the limit.
        b.on_sib(&ctx(100, &m), 0);
        assert!(!b.vetoed(100).contains(0));
    }

    #[test]
    fn adaptive_raises_under_spinning_and_clamps() {
        let acfg = AdaptiveConfig {
            window: 10,
            step: 250,
            frac1: 0.1,
            frac2: 0.8,
            min: 0,
            max: 600,
        };
        let m = meta(2);
        let mut b = bows(DelayMode::Adaptive(acfg));
        assert_eq!(b.current_delay_limit(), 0);
        // Every instruction is a SIB: limit climbs by `step` per window,
        // clamped at max.
        let mut now = 0;
        for _ in 0..5 {
            for _ in 0..10 {
                let c = ctx(now, &m);
                b.on_issue(
                    &c,
                    0,
                    &IssueInfo {
                        is_sib: true,
                        ..IssueInfo::default()
                    },
                );
                now += 1;
                let c = ctx(now, &m);
                b.end_cycle(&c, set(&[0, 1]), Some(0));
            }
        }
        assert_eq!(b.current_delay_limit(), 600, "clamped at max");
    }

    #[test]
    fn adaptive_stays_low_without_spinning() {
        let acfg = AdaptiveConfig {
            window: 10,
            ..AdaptiveConfig::default()
        };
        let m = meta(2);
        let mut b = bows(DelayMode::Adaptive(acfg));
        let mut now = 0;
        for _ in 0..100 {
            let c = ctx(now, &m);
            b.on_issue(&c, 0, &IssueInfo::default());
            now += 1;
            let c = ctx(now, &m);
            b.end_cycle(&c, set(&[0, 1]), Some(0));
        }
        assert_eq!(
            b.current_delay_limit(),
            0,
            "TSP-like workloads keep the delay at the minimum"
        );
    }

    #[test]
    fn adaptive_backs_off_when_ratio_collapses() {
        let acfg = AdaptiveConfig {
            window: 10,
            step: 100,
            frac1: 0.05,
            frac2: 0.8,
            min: 0,
            max: 10_000,
        };
        let mut a = Adaptive::new(acfg);
        // Window 1: 10% SIBs → ratio 10, limit += step.
        a.window_total = 100;
        a.window_sib = 10;
        let l1 = a.update(500);
        assert_eq!(l1, 600);
        // Window 2: 50% SIBs → ratio 2 < 0.8*10 → increase then double-step
        // decrease.
        a.window_total = 100;
        a.window_sib = 50;
        let l2 = a.update(l1);
        assert_eq!(l2, 600 + 100 - 200);
    }

    #[test]
    fn ablation_deprioritize_only_never_delays() {
        let m = meta(2);
        let mut b = Bows::with_components(
            Box::new(Lrr::new()),
            DelayMode::Fixed(5000),
            BowsComponents {
                deprioritize: true,
                throttle: false,
            },
        );
        let c = ctx(0, &m);
        b.on_sib(&c, 0);
        b.on_issue(&ctx(1, &m), 0, &IssueInfo::default());
        b.on_sib(&ctx(2, &m), 0);
        // Throttling disabled: despite the 5000-cycle limit, the warp may
        // issue immediately (it is still deprioritized though).
        assert!(!b.vetoed(3).contains(0));
        assert!(b.backed_off().contains(0));
        assert_eq!(b.pick(&ctx(3, &m), set(&[0, 1])), Some(1));
    }

    #[test]
    fn ablation_throttle_only_never_deprioritizes() {
        let m = meta(2);
        let mut b = Bows::with_components(
            Box::new(Lrr::new()),
            DelayMode::Fixed(100),
            BowsComponents {
                deprioritize: false,
                throttle: true,
            },
        );
        let c = ctx(0, &m);
        b.on_sib(&c, 0);
        // Deprioritization disabled: the inner policy sees everyone.
        // (LRR starting fresh picks warp 0 first.)
        assert_eq!(b.pick(&c, set(&[0, 1])), Some(0));
        // But the delay still gates post-SIB issue after a round trip.
        b.on_issue(&ctx(1, &m), 0, &IssueInfo::default());
        b.on_sib(&ctx(2, &m), 0);
        assert!(b.vetoed(50).contains(0));
        assert!(!b.vetoed(101).contains(0));
    }

    /// Normal warps first, then the back-off FIFO in its own order (not
    /// slot order); `vetoed` is exactly the backed-off warps whose delay
    /// is still pending.
    #[test]
    fn normal_warps_first_then_the_fifo_and_vetoed_is_the_throttled_set() {
        let m = meta(64);
        let mut b = bows(DelayMode::Fixed(100));
        let c = ctx(0, &m);
        for w in [40, 2, 63] {
            b.on_sib(&c, w);
        }
        assert_eq!(b.backed_off(), set(&[2, 40, 63]));
        assert_eq!(b.pick(&c, set(&[2, 9, 40])), Some(9), "the one normal warp");
        assert_eq!(b.pick(&c, set(&[2, 40, 63])), Some(40), "FIFO head");
        assert_eq!(b.pick(&c, set(&[2, 63])), Some(2));
        // Nothing issued since backing off: no delay pending yet.
        assert_eq!(b.vetoed(0), WarpSet::EMPTY);
        // Warp 40 issues at 10 (delay until 110) and spins again at 20;
        // warp 63 issues at 10 and spins again at 150, after its delay.
        b.on_issue(&ctx(10, &m), 40, &IssueInfo::default());
        b.on_issue(&ctx(10, &m), 63, &IssueInfo::default());
        b.on_sib(&ctx(20, &m), 40);
        assert_eq!(b.vetoed(20), set(&[40]));
        assert_eq!(b.vetoed(109), set(&[40]));
        assert_eq!(b.vetoed(110), WarpSet::EMPTY);
        b.on_sib(&ctx(150, &m), 63);
        assert_eq!(b.vetoed(150), WarpSet::EMPTY);
        assert_eq!(b.backed_off(), set(&[2, 40, 63]));
        let c150 = ctx(150, &m);
        assert_eq!(b.pick(&c150, set(&[2, 40, 63])), Some(2), "FIFO: 2, 40, 63");
    }

    #[test]
    fn warp_relaunch_clears_bows_state() {
        let m = meta(2);
        let c = ctx(0, &m);
        let mut b = bows(DelayMode::Fixed(50));
        b.on_sib(&c, 0);
        assert!(b.backed_off().contains(0));
        b.on_warp_launch(0, 100);
        assert!(!b.backed_off().contains(0));
        assert!(!b.vetoed(0).contains(0));
        assert_eq!(b.pick(&c, set(&[0, 1])), Some(0), "fresh warp is normal");
    }
}
