//! The SMs of one kernel run, and which of them a simulated cycle has to
//! cycle.
//!
//! [`SmPool`] owns the machine's SMs in id order (`sms[i].id == i`) and the
//! statistics they accrue into. The run loop in `gpu.rs` indexes `sms`
//! directly; the three whole-machine operations live here:
//! [`SmPool::cycle`], [`SmPool::settle`] and [`SmPool::fold_stats`].
//!
//! `cycle` walks the SMs in ascending id on the calling thread, and an SM
//! submits its global-memory work to the memory system as it issues, so
//! the memory system sees "SM 0's requests, then SM 1's, ..." every cycle
//! (DESIGN.md, "Why the run loop is serial").
//!
//! What the run loop must do in return: call [`SmPool::settle`] before
//! reading any SM's statistics or snapshot state. With `sleep` on, an SM
//! whose cycle issued nothing and retired nothing is put to sleep
//! ([`Sm::sleep`]) and not cycled again until its own wake-up cycle or an
//! external input; the dead cycles in between reach its books only when it
//! wakes or is settled.

use crate::sm::{LaunchCtx, Sm};
use crate::{SimError, SimStats};
use simt_mem::MemorySystem;

/// What one [`SmPool::cycle`] round did, reduced over all SMs.
#[derive(Debug, Default)]
pub(crate) struct Round {
    /// Some SM issued a warp instruction.
    pub issued: bool,
    /// CTAs retired across the machine.
    pub finished: u32,
    /// `Some` when the round left every SM with work asleep: the earliest
    /// cycle at which one of them wakes by itself (`u64::MAX` if none
    /// ever does). Until then only the memory system can change the
    /// machine. `None` while any SM is awake — always, without `sleep`.
    pub ready: Option<u64>,
}

/// The SMs of one kernel run and their statistics accumulator.
pub(crate) struct SmPool {
    /// Every SM, in ascending id order.
    pub sms: Vec<Sm>,
    /// Per-SM counters accrued since the last [`SmPool::fold_stats`].
    stats: SimStats,
}

impl SmPool {
    /// A pool holding `sms`, in id order.
    pub(crate) fn new(sms: Vec<Sm>) -> SmPool {
        debug_assert!(sms.iter().enumerate().all(|(id, sm)| sm.id == id));
        SmPool {
            sms,
            stats: SimStats::default(),
        }
    }

    /// Cycle, in ascending id, every SM with work that is awake at `now`
    /// or due to wake; with `sleep`, put the ones that had a dead cycle to
    /// sleep (`Engine::Cycle` passes `false` and cycles every SM every
    /// cycle).
    ///
    /// # Errors
    ///
    /// The first erroring SM's [`Sm::cycle`] error; the SMs after it are
    /// not cycled.
    pub(crate) fn cycle(
        &mut self,
        now: u64,
        sleep: bool,
        lctx: &LaunchCtx<'_>,
        mem: &mut MemorySystem,
    ) -> Result<Round, SimError> {
        let mut round = Round {
            ready: sleep.then_some(u64::MAX),
            ..Round::default()
        };
        for sm in &mut self.sms {
            if !sm.has_work() {
                continue;
            }
            if let Some(wake_at) = sm.asleep_until(now) {
                round.ready = round.ready.map(|r| r.min(wake_at));
                continue;
            }
            sm.wake(now, &mut self.stats);
            let r = sm.cycle(now, lctx, mem, &mut self.stats)?;
            round.issued |= r.issued > 0;
            round.finished += r.ctas_finished;
            round.ready = if sleep && r.issued == 0 && r.ctas_finished == 0 {
                let wake_at = sm.sleep(now);
                round.ready.map(|r| r.min(wake_at))
            } else {
                None
            };
        }
        Ok(round)
    }

    /// Bring every sleeping SM's books up to the start of cycle `now`
    /// ([`Sm::settle`]); the sleepers stay asleep.
    pub(crate) fn settle(&mut self, now: u64) {
        for sm in &mut self.sms {
            sm.settle(now, &mut self.stats);
        }
    }

    /// Settle at `now`, then move the statistics accumulated so far into
    /// `into`. Every field is a sum, so folding early (at a checkpoint) or
    /// late (at the end of the run) gives the same totals.
    pub(crate) fn fold_stats(&mut self, now: u64, into: &mut SimStats) {
        self.settle(now);
        into.add(&std::mem::take(&mut self.stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasePolicy, GpuConfig, NullDetector};
    use simt_isa::asm::assemble;
    use simt_isa::DecodedKernel;

    /// One warp per SM. In the same cycle, SMs 1 and 2 fault on a shared
    /// load past the CTA's allocation while SMs 0 and 3 issue a global
    /// store.
    const FAULT_ON_SM_1_AND_2: &str = r#"
        .kernel smid_fault
        .regs 8
        .params 1
        .shared 1
            ld.param r1, [0]
            mov r2, %smid
            sub r3, r2, 1
            setp.lt.u32 p1, r3, 2
        @p1 bra BAD
            st.global [r1], r2
            exit
        BAD:
            ld.shared r4, [4096]
            exit
    "#;

    /// Run `f` over a 4-SM machine with CTA `id` of `src`, `threads_per_cta`
    /// wide, resident on each of the first `ctas` SMs. `f` also gets the
    /// launch context, for cycling and for launching further CTAs.
    fn with_pool<R>(
        src: &str,
        params: &[u32],
        (ctas, threads_per_cta): (usize, usize),
        f: impl FnOnce(&mut SmPool, &LaunchCtx<'_>) -> R,
    ) -> R {
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 4;
        let kernel = assemble(src).unwrap();
        let decoded = DecodedKernel::decode(&kernel);
        let lctx = LaunchCtx {
            kernel: &kernel,
            decoded: &decoded,
            params,
            threads_per_cta,
            grid_ctas: 4,
        };
        let mut age = 0;
        let sms = (0..cfg.num_sms)
            .map(|id| {
                let units = (0..cfg.schedulers_per_sm)
                    .map(|_| BasePolicy::Lrr.build(cfg.gto_rotate_period))
                    .collect();
                let mut sm = Sm::new(id, &cfg, units, Box::new(NullDetector));
                assert!(id >= ctas || sm.try_launch_cta(id, &lctx, &mut age));
                sm
            })
            .collect();
        f(&mut SmPool::new(sms), &lctx)
    }

    /// SMs 1 and 2 fault in the same cycle: the sweep stops at SM 1. SM 0,
    /// before it, has issued its store — the word is in global memory and
    /// its request in flight — and SMs 2 and 3, after it, are not cycled.
    #[test]
    fn the_sweep_stops_at_the_first_erroring_sm() {
        let cfg = GpuConfig::test_tiny();
        let mut mem = MemorySystem::new(cfg.mem.clone(), 4);
        // Non-zero, so that SM 0's store of its own id (0) is visible.
        let buf = mem.gmem_mut().alloc(1);
        mem.gmem_mut().write_u32(buf, 0xdead);
        with_pool(FAULT_ON_SM_1_AND_2, &[buf as u32], (4, 32), |pool, lctx| {
            for now in 0..1000 {
                let run_before: Vec<u64> = pool.sms.iter().map(|sm| sm.prof.cycles_run).collect();
                match pool.cycle(now, false, lctx, &mut mem) {
                    Ok(_) => {
                        assert_eq!(mem.in_flight(), 0, "only the fault cycle touches memory");
                        assert_eq!(mem.gmem().read_u32(buf), 0xdead);
                    }
                    Err(e) => {
                        let expect = "sm 1 pc 7: ld.shared";
                        assert!(
                            matches!(&e, SimError::InternalInvariant { what } if what.starts_with(expect)),
                            "{e}"
                        );
                        assert_eq!(mem.gmem().read_u32(buf), 0, "SM 0's store");
                        assert_eq!(mem.in_flight(), 1, "SM 0's request");
                        let run: Vec<u64> = pool.sms.iter().map(|sm| sm.prof.cycles_run).collect();
                        assert_eq!(run[..2], [run_before[0] + 1, run_before[1] + 1]);
                        assert_eq!(run[2..], run_before[2..], "SMs after the error are not cycled");
                        return;
                    }
                }
            }
            panic!("the kernel never faulted");
        })
    }

    /// One warp per SM: SM 0 counts to 300, SM 1 issues one cold global
    /// load and waits for it.
    const SPIN_ON_SM_0_LOAD_ON_SM_1: &str = r#"
        .kernel spin_or_load
        .regs 8
        .params 1
            ld.param r1, [0]
            mov r2, %smid
            setp.eq.u32 p1, r2, 1
        @p1 bra WAIT
            mov r3, 0
        LOOP:
            add r3, r3, 1
            setp.lt.u32 p2, r3, 300
        @p2 bra LOOP
            exit
        WAIT:
            ld.global r4, [r1]
            add r5, r4, 1
            exit
    "#;

    /// What [`run_spin_or_load`] observed.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// First cycle with no work left anywhere.
        cycles: u64,
        sim: SimStats,
        mem: simt_mem::MemStats,
    }

    /// A miniature run loop (completions, then a round; the clock never
    /// jumps) until no SM has work left; `after_round` runs at the end of
    /// every iteration. Returns the books, settled and folded.
    fn drive(
        pool: &mut SmPool,
        lctx: &LaunchCtx<'_>,
        mem: &mut MemorySystem,
        sleep: bool,
        mut after_round: impl FnMut(&mut SmPool, u64),
    ) -> Outcome {
        let mut done = Vec::new();
        let mut now = 0;
        while pool.sms.iter().any(Sm::has_work) {
            mem.cycle_into(now, &mut done);
            for c in done.drain(..) {
                pool.sms[c.sm].on_mem_complete(c).unwrap();
            }
            pool.cycle(now, sleep, lctx, mem).unwrap();
            after_round(pool, now);
            now += 1;
            assert!(now < 100_000, "the kernel never finished");
        }
        let mut sim = SimStats::default();
        pool.fold_stats(now, &mut sim);
        Outcome {
            cycles: now,
            sim,
            mem: *mem.stats(),
        }
    }

    /// Drive the spin/load kernel to completion. With `inject`, CTA 2 is
    /// launched onto SM 1 after that cycle's round. Also returns
    /// [`Sm::cycle`] calls per SM.
    fn run_spin_or_load(sleep: bool, inject: Option<u64>) -> (Outcome, Vec<u64>) {
        let cfg = GpuConfig::test_tiny();
        let mut mem = MemorySystem::new(cfg.mem.clone(), 4);
        let buf = mem.gmem_mut().alloc(1) as u32;
        with_pool(SPIN_ON_SM_0_LOAD_ON_SM_1, &[buf], (2, 32), |pool, lctx| {
            let mut age = 2;
            // SM 1's cycle count before the current round.
            let mut run_before = 0;
            let outcome = drive(pool, lctx, &mut mem, sleep, |pool, now| {
                if inject == Some(now) {
                    // By now SM 1 waits on its load, with no timer of its
                    // own to wake it.
                    assert_eq!(pool.sms[1].asleep_until(now + 1), sleep.then_some(u64::MAX));
                    assert!(pool.sms[1].try_launch_cta(2, lctx, &mut age));
                    assert_eq!(pool.sms[1].asleep_until(now + 1), None);
                } else if now > 0 && inject == Some(now - 1) {
                    // The launch was a wake source: the new warp was seen
                    // alive on the very next cycle.
                    assert_eq!(pool.sms[1].prof.cycles_run, run_before + 1);
                }
                run_before = pool.sms[1].prof.cycles_run;
            });
            let run = pool.sms.iter().map(|sm| sm.prof.cycles_run).collect();
            for sm in &pool.sms[..2] {
                // Every cycle an SM had work was either run or slept.
                assert!(sm.prof.cycles_run + sm.prof.cycles_slept <= outcome.cycles);
                assert_eq!(sm.prof.cycles_slept > 0, sleep, "sm {}", sm.id);
            }
            (outcome, run)
        })
    }

    /// While SM 0 keeps issuing, SM 1 — one warp blocked on a cold load —
    /// is cycled a handful of times (its few instructions, their
    /// writebacks, the completion), not once per simulated cycle, and the
    /// books come out as the cycle engine's.
    #[test]
    fn an_sm_waiting_on_a_load_is_not_cycled() {
        let (oracle, run) = run_spin_or_load(false, None);
        assert!(run[1] > 200, "the load is long: {run:?}");
        let (got, run) = run_spin_or_load(true, None);
        assert_eq!(got, oracle);
        assert!(run[1] <= 16, "{run:?}");
        assert_eq!(run[2..], [0, 0], "drained SMs are never cycled");
    }

    /// A CTA launched onto a sleeping SM wakes it for the next cycle, and
    /// the span slept before the launch is accrued as the cycle engine
    /// would have counted it.
    #[test]
    fn a_launch_wakes_a_sleeping_sm() {
        let (oracle, _) = run_spin_or_load(false, Some(100));
        let (got, _) = run_spin_or_load(true, Some(100));
        assert_eq!(got, oracle);
    }

    /// One CTA of eight warps: warp 0 counts to 170 (some 500 issues), the
    /// other seven issue one cold global load each, to a line of their own,
    /// and wait for it.
    const ONE_LOOPS_SEVEN_WAIT: &str = r#"
        .kernel loop_or_wait
        .regs 8
        .params 1
            ld.param r1, [0]
            mov r2, %warpid
            setp.eq.u32 p1, r2, 0
        @p1 bra COUNT
            shl r3, r2, 7
            add r1, r1, r3
            ld.global r4, [r1]
            add r5, r4, 1
            exit
        COUNT:
            mov r3, 0
        LOOP:
            add r3, r3, 1
            setp.lt.u32 p2, r3, 170
        @p2 bra LOOP
            exit
    "#;

    /// A cycle classifies the warps an event touched, not the live ones:
    /// with seven of eight warps parked on a load, the count follows the
    /// instructions issued — a per-cycle rescan would read eight warps
    /// every cycle — whether or not the SM may sleep, and the books agree.
    #[test]
    fn classification_follows_events_not_live_warps() {
        let run = |sleep: bool| {
            let cfg = GpuConfig::test_tiny();
            let mut mem = MemorySystem::new(cfg.mem.clone(), 4);
            let buf = mem.gmem_mut().alloc(8 * 32) as u32;
            with_pool(ONE_LOOPS_SEVEN_WAIT, &[buf], (1, 256), |pool, lctx| {
                let outcome = drive(pool, lctx, &mut mem, sleep, |_, _| {});
                (outcome, pool.sms[0].prof)
            })
        };
        let (oracle, _) = run(false);
        assert!(oracle.sim.issued_inst > 500, "{:?}", oracle.sim);
        for sleep in [false, true] {
            let (got, prof) = run(sleep);
            assert_eq!(got, oracle, "sleep {sleep}");
            let bound = 4 * got.sim.issued_inst + 16;
            assert!(prof.warps_classified <= bound, "sleep {sleep}: {prof:?}");
            assert!(
                8 * got.cycles > 2 * bound,
                "a rescan would not meet the bound: {got:?}"
            );
        }
    }
}
