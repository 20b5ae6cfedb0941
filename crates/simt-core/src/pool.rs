//! The SMs of one kernel run, and which of them a simulated cycle has to
//! cycle.
//!
//! [`SmPool`] owns the machine's SMs in id order (`sms[i].id == i`), the
//! set of those with work, and the statistics they accrue into. The run
//! loop in `gpu.rs` indexes `sms` directly to deliver completions and read
//! state; every operation that can change which SMs have work lives here:
//! [`SmPool::cycle`] (an SM retires its last CTA), [`SmPool::dispatch`]
//! (a CTA launches) and [`SmPool::load_snap`] (a restore). The with-work
//! set is what `cycle` walks, so a round costs the SMs with work, not the
//! machine.
//!
//! `cycle` walks those SMs in ascending id on the calling thread, and an SM
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

use crate::sm::{LaunchCtx, Sm, SnapLimits};
use crate::{SimError, SimStats};
use simt_mem::MemorySystem;
use simt_snap::{SnapReader, SnapshotError};
use std::collections::VecDeque;

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
    /// The ids of the SMs with work ([`Sm::has_work`]), a bit per SM:
    /// sleepers included, drained SMs not.
    working: Vec<u64>,
    /// Per-SM counters accrued since the last [`SmPool::fold_stats`].
    stats: SimStats,
}

impl SmPool {
    /// A pool holding `sms`, in id order.
    pub(crate) fn new(sms: Vec<Sm>) -> SmPool {
        debug_assert!(sms.iter().enumerate().all(|(id, sm)| sm.id == id));
        let mut pool = SmPool {
            working: vec![0; sms.len().div_ceil(64)],
            sms,
            stats: SimStats::default(),
        };
        pool.rebuild_working();
        pool
    }

    fn rebuild_working(&mut self) {
        self.working.fill(0);
        for sm in &self.sms {
            if sm.has_work() {
                self.working[sm.id / 64] |= 1 << (sm.id % 64);
            }
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
        for word in 0..self.working.len() {
            // No SM gains work inside a round, so a copy of the word is
            // the walk; an SM that drains clears its own bit.
            let mut bits = self.working[word];
            while bits != 0 {
                let id = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let sm = &mut self.sms[id];
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
                if r.ctas_finished > 0 && !sm.has_work() {
                    self.working[word] &= !(1 << (id % 64));
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_working_agrees();
        Ok(round)
    }

    /// Round-robin CTA dispatch: repeatedly offer the oldest pending CTA
    /// to each SM in turn (ascending id) until a full pass launches
    /// nothing. The run loop's only way to launch a CTA, for the initial
    /// dispatch and for refills after a CTA retires.
    pub(crate) fn dispatch(
        &mut self,
        pending: &mut VecDeque<usize>,
        lctx: &LaunchCtx<'_>,
        age_counter: &mut u64,
    ) {
        let mut made_progress = true;
        while made_progress && !pending.is_empty() {
            made_progress = false;
            for sm in &mut self.sms {
                let Some(&cta) = pending.front() else { break };
                if sm.try_launch_cta(cta, lctx, age_counter) {
                    pending.pop_front();
                    self.working[sm.id / 64] |= 1 << (sm.id % 64);
                    made_progress = true;
                }
            }
        }
    }

    /// Restore every SM from a snapshot body, in id order
    /// ([`Sm::load_snap`]), and the with-work set from them. Returns the
    /// CTAs resident across the machine.
    ///
    /// # Errors
    ///
    /// The first SM's decode error; the pool must then be discarded.
    pub(crate) fn load_snap(
        &mut self,
        r: &mut SnapReader<'_>,
        limits: &SnapLimits,
    ) -> Result<usize, SnapshotError> {
        let mut resident_ctas = 0;
        for sm in &mut self.sms {
            sm.load_snap(r, limits)?;
            resident_ctas += sm.resident_ctas();
        }
        self.rebuild_working();
        Ok(resident_ctas)
    }

    /// Debug-build oracle: the with-work set is exactly the SMs with work.
    #[cfg(debug_assertions)]
    fn assert_working_agrees(&self) {
        for sm in &self.sms {
            let walked = self.working[sm.id / 64] >> (sm.id % 64) & 1 != 0;
            assert_eq!(walked, sm.has_work(), "sm {} in the with-work set", sm.id);
        }
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

    /// Run `f` over a machine of `num_sms` SMs with CTA `i` of `src`,
    /// `threads_per_cta` wide, resident on SM `placement[i]`. `f` also gets
    /// the launch context, for cycling and for launching further CTAs.
    fn with_pool<R>(
        src: &str,
        params: &[u32],
        (num_sms, placement, threads_per_cta): (usize, &[usize], usize),
        f: impl FnOnce(&mut SmPool, &LaunchCtx<'_>) -> R,
    ) -> R {
        let cfg = GpuConfig::test_tiny();
        let kernel = assemble(src).unwrap();
        let decoded = DecodedKernel::decode(&kernel);
        let lctx = LaunchCtx {
            kernel: &kernel,
            decoded: &decoded,
            params,
            threads_per_cta,
            grid_ctas: placement.len() + 1,
        };
        let mut age = 0;
        let mut sms: Vec<Sm> = (0..num_sms)
            .map(|id| {
                let units = (0..cfg.schedulers_per_sm)
                    .map(|_| BasePolicy::Lrr.build(cfg.gto_rotate_period))
                    .collect();
                Sm::new(id, &cfg, units, Box::new(NullDetector))
            })
            .collect();
        for (cta, &sm) in placement.iter().enumerate() {
            assert!(sms[sm].try_launch_cta(cta, &lctx, &mut age));
        }
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
        let shape = (4, &[0, 1, 2, 3][..], 32);
        with_pool(FAULT_ON_SM_1_AND_2, &[buf as u32], shape, |pool, lctx| {
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
                        assert_eq!(
                            run[2..],
                            run_before[2..],
                            "SMs after the error are not cycled"
                        );
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
                pool.sms[c.sm].on_mem_complete(&c).unwrap();
                mem.recycle(c.atomic_results);
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

    /// Drive the spin/load kernel, 32 threads a CTA, to completion on four
    /// SMs, CTA `i` starting on SM `placement[i]`. With `inject`, one more
    /// CTA is offered through [`SmPool::dispatch`] after that cycle's
    /// round; the test names the SM it must land on. Also returns
    /// [`Sm::cycle`] calls per SM.
    fn run_spin_or_load(
        sleep: bool,
        placement: &[usize],
        inject: Option<(u64, usize)>,
    ) -> (Outcome, Vec<u64>) {
        let cfg = GpuConfig::test_tiny();
        let mut mem = MemorySystem::new(cfg.mem.clone(), 4);
        let buf = mem.gmem_mut().alloc(1) as u32;
        let shape = (4, placement, 32);
        with_pool(SPIN_ON_SM_0_LOAD_ON_SM_1, &[buf], shape, |pool, lctx| {
            let mut age = 1 << 20;
            // SM cycle counts before the current round.
            let mut run_before = [0; 4];
            let outcome = drive(pool, lctx, &mut mem, sleep, |pool, now| {
                match inject {
                    Some((at, target)) if at == now => {
                        let sm = &pool.sms[target];
                        if sm.has_work() {
                            // By now the target waits on its load, with no
                            // timer of its own to wake it.
                            assert_eq!(sm.asleep_until(now + 1), sleep.then_some(u64::MAX));
                        }
                        let before = sm.resident_ctas();
                        let mut pending = VecDeque::from([placement.len()]);
                        pool.dispatch(&mut pending, lctx, &mut age);
                        assert!(pending.is_empty());
                        let sm = &pool.sms[target];
                        assert_eq!(sm.resident_ctas(), before + 1, "landed on {target}");
                        assert_eq!(sm.asleep_until(now + 1), None);
                    }
                    Some((at, target)) if at + 1 == now => {
                        // The launch was a wake source: the new warp was
                        // seen alive on the very next cycle.
                        let run = pool.sms[target].prof.cycles_run;
                        assert_eq!(run, run_before[target] + 1, "sm {target}");
                    }
                    _ => {}
                }
                for (before, sm) in run_before.iter_mut().zip(&pool.sms) {
                    *before = sm.prof.cycles_run;
                }
            });
            let run = pool.sms.iter().map(|sm| sm.prof.cycles_run).collect();
            for sm in pool.sms.iter().filter(|sm| sm.prof.cycles_run > 0) {
                // Every cycle an SM had work was either run or slept.
                assert!(sm.prof.cycles_run + sm.prof.cycles_slept <= outcome.cycles);
            }
            for sm in &pool.sms[..2] {
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
        let (oracle, run) = run_spin_or_load(false, &[0, 1], None);
        assert!(run[1] > 200, "the load is long: {run:?}");
        let (got, run) = run_spin_or_load(true, &[0, 1], None);
        assert_eq!(got, oracle);
        assert!(run[1] <= 16, "{run:?}");
        assert_eq!(run[2..], [0, 0], "drained SMs are never cycled");
    }

    /// A CTA dispatched onto a sleeping SM (SM 0's four CTA slots are
    /// full, so the pool passes it over) wakes it for the next cycle, and
    /// the span slept before the launch is accrued as the cycle engine
    /// would have counted it.
    #[test]
    fn a_launch_wakes_a_sleeping_sm() {
        let placement = [0, 1, 0, 0, 0];
        let (oracle, _) = run_spin_or_load(false, &placement, Some((100, 1)));
        let (got, _) = run_spin_or_load(true, &placement, Some((100, 1)));
        assert_eq!(got, oracle);
    }

    /// An SM with no work is outside the walked set; a CTA the pool
    /// dispatches onto it (SMs 0 and 1 are full) puts it back, and it is
    /// cycled on the very next cycle, with either engine's books.
    #[test]
    fn a_dispatch_onto_an_idle_sm_is_cycled_next_cycle() {
        let placement = [0, 0, 0, 0, 1, 1, 1, 1];
        let (oracle, run) = run_spin_or_load(false, &placement, Some((100, 2)));
        assert!(run[2] > 0 && run[3] == 0, "{run:?}");
        let (got, _) = run_spin_or_load(true, &placement, Some((100, 2)));
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
            let shape = (4, &[0][..], 256);
            with_pool(ONE_LOOPS_SEVEN_WAIT, &[buf], shape, |pool, lctx| {
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

    /// On a 28-SM machine with one CTA, a round walks one SM, and the books
    /// come out as the cycle engine's (every SM with work cycled every
    /// cycle); the 27 idle SMs are never cycled.
    #[test]
    fn one_busy_sm_of_28_keeps_the_cycle_engines_books() {
        let run = |sleep: bool| {
            let cfg = GpuConfig::test_tiny();
            let mut mem = MemorySystem::new(cfg.mem.clone(), 28);
            let buf = mem.gmem_mut().alloc(8 * 32) as u32;
            let shape = (28, &[0][..], 256);
            with_pool(ONE_LOOPS_SEVEN_WAIT, &[buf], shape, |pool, lctx| {
                let outcome = drive(pool, lctx, &mut mem, sleep, |pool, _| {
                    let walked: u32 = pool.working.iter().map(|w| w.count_ones()).sum();
                    assert!(walked <= 1, "{walked} SMs in the with-work set");
                });
                assert!(pool.sms[1..].iter().all(|sm| sm.prof.cycles_run == 0));
                outcome
            })
        };
        let oracle = run(false);
        assert!(oracle.sim.issued_inst > 500, "{:?}", oracle.sim);
        assert_eq!(run(true), oracle);
    }
}
