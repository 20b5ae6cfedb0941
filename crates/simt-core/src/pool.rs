//! The SM worker pool: everything about *which host thread* cycles an SM.
//!
//! [`SmPool`] owns the machine's SMs for the length of one kernel run and
//! presents them to the run loop as "the SMs": id-ordered access
//! ([`SmPool::sm`], [`SmPool::sm_mut`], [`SmPool::sms`]) and three
//! whole-machine operations ([`SmPool::cycle`], [`SmPool::settle`],
//! [`SmPool::fold_stats`]). How the SMs are split over worker threads, how
//! a round is handed off and collected, how per-worker results are
//! reduced, and which SMs a round actually cycles are private to this
//! file; the run loop in `gpu.rs` never sees a worker count.
//!
//! What the run loop may assume: between two calls every SM is resident on
//! the calling thread; `cycle` has cycled SMs exactly as a serial
//! ascending-id sweep would have *observed* them (SMs never touch shared
//! state while cycling — each stages its global-memory work on itself, and
//! the caller replays the stages in SM-id order); and the round summary is
//! the same at every worker count.
//!
//! What it must do in return: call [`SmPool::settle`] before reading any
//! SM's statistics or snapshot state. With `sleep` on, an SM whose cycle
//! issued nothing and retired nothing is put to sleep ([`Sm::sleep`]) and
//! not cycled again until its own wake-up cycle or an external input; the
//! dead cycles in between reach its books only when it wakes or is
//! settled.

use crate::sm::{LaunchCtx, Sm};
use crate::{SimError, SimStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What one [`SmPool::cycle`] round did, reduced over all SMs.
#[derive(Debug, Default)]
pub(crate) struct Round {
    /// Some SM issued a warp instruction.
    pub issued: bool,
    /// CTAs retired across the machine.
    pub finished: u32,
    /// The cycle error of the lowest-id erroring SM — the one serial
    /// execution would have hit first. SMs below that id cycled normally;
    /// the caller must not replay stages above it.
    pub err: Option<(usize, SimError)>,
    /// `Some` when the round left every SM with work asleep: the earliest
    /// cycle at which one of them wakes by itself (`u64::MAX` if none
    /// ever does). Until then only the memory system can change the
    /// machine. `None` while any SM is awake — always, without `sleep`.
    pub ready: Option<u64>,
}

/// The SMs of one kernel run, behind whatever worker threads cycle them.
pub(crate) struct SmPool<'a> {
    /// Chunk `w` owns SMs `w, w+workers, w+2*workers, ...` (ascending).
    /// The striding is deliberate: CTAs dispatch round-robin from SM 0, so
    /// at low occupancy contiguous chunking would cluster every busy SM
    /// onto the first workers.
    chunks: Vec<Chunk>,
    /// Worker handoff slots (none when serial); slot `w` serves chunk
    /// `w + 1`, chunk 0 runs on the calling thread.
    slots: &'a [Slot],
    lctx: &'a LaunchCtx<'a>,
    round: u64,
    num_sms: usize,
}

impl SmPool<'_> {
    /// Run `f` over a pool holding `sms` (in id order, `sms[i].id == i`),
    /// cycled by `workers` threads (1 = serial, everything on the calling
    /// thread). Worker threads live exactly as long as the call.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= workers <= sms.len()`.
    pub(crate) fn scoped<R>(
        sms: Vec<Sm>,
        workers: usize,
        lctx: &LaunchCtx<'_>,
        f: impl FnOnce(&mut SmPool<'_>) -> R,
    ) -> R {
        let num_sms = sms.len();
        // Every chunk must own an SM: a handed-off chunk is recognized by
        // its taken (empty) `sms`.
        assert!(
            (1..=num_sms).contains(&workers),
            "{workers} workers for {num_sms} SMs"
        );
        let mut chunks: Vec<Chunk> = (0..workers).map(|_| Chunk::default()).collect();
        for (id, sm) in sms.into_iter().enumerate() {
            debug_assert_eq!(sm.id, id);
            chunks[id % workers].sms.push(sm);
        }
        // Workers spin between rounds — a blocking handoff would cost a
        // park/unpark round trip per simulated cycle, dwarfing the cycle
        // itself.
        let slots: Vec<Slot> = (1..workers).map(|_| Slot::default()).collect();
        std::thread::scope(|scope| {
            // Unblocks (and thereby joins) every worker on any exit path,
            // including panics — workers otherwise spin forever and the
            // scope never closes.
            let _guard = ShutdownGuard(&slots);
            for slot in &slots {
                scope.spawn(move || worker(slot, lctx));
            }
            f(&mut SmPool {
                chunks,
                slots: &slots,
                lctx,
                round: 0,
                num_sms,
            })
        })
    }

    /// Number of SMs.
    pub(crate) fn len(&self) -> usize {
        self.num_sms
    }

    /// The SM with id `id`.
    pub(crate) fn sm(&self, id: usize) -> &Sm {
        let workers = self.chunks.len();
        &self.chunks[id % workers].sms[id / workers]
    }

    /// The SM with id `id`, mutable.
    pub(crate) fn sm_mut(&mut self, id: usize) -> &mut Sm {
        let workers = self.chunks.len();
        &mut self.chunks[id % workers].sms[id / workers]
    }

    /// Every SM, in ascending id order.
    pub(crate) fn sms(&self) -> impl Iterator<Item = &Sm> {
        (0..self.num_sms).map(move |id| self.sm(id))
    }

    /// Cycle every SM with work that is awake at `now` or due to wake;
    /// with `sleep`, put the ones that had a dead cycle to sleep
    /// (`Engine::Cycle` passes `false` and cycles every SM every cycle).
    pub(crate) fn cycle(&mut self, now: u64, sleep: bool) -> Round {
        self.run_round(Job { now, sleep });
        let mut r = Round {
            ready: sleep.then_some(u64::MAX),
            ..Round::default()
        };
        for ch in &mut self.chunks {
            r.issued |= ch.issued > 0;
            r.finished += ch.finished;
            // Each chunk min-reduced its own sleepers during the round;
            // folding the chunk minima equals the serial fold.
            r.ready = r.ready.zip(ch.ready).map(|(a, b)| a.min(b));
            if let Some((id, e)) = ch.err.take() {
                if r.err.as_ref().is_none_or(|(best, _)| id < *best) {
                    r.err = Some((id, e));
                }
            }
        }
        r
    }

    /// Bring every sleeping SM's books up to the start of cycle `now`
    /// ([`Sm::settle`]); the sleepers stay asleep.
    pub(crate) fn settle(&mut self, now: u64) {
        for ch in &mut self.chunks {
            for sm in &mut ch.sms {
                sm.settle(now, &mut ch.stats);
            }
        }
    }

    /// Settle at `now`, then move the per-worker statistics accumulated so
    /// far into `into`. Every field is an order-independent sum, so
    /// folding early (at a checkpoint) or late (at the end of the run)
    /// gives the same totals.
    pub(crate) fn fold_stats(&mut self, now: u64, into: &mut SimStats) {
        self.settle(now);
        for ch in &mut self.chunks {
            into.add(&std::mem::take(&mut ch.stats));
        }
    }

    /// Run one round: hand chunks 1.. to the workers, process chunk 0 on
    /// the coordinator thread, then collect every chunk back. With one
    /// thread (serial) this degenerates to an inline `run_job` on the
    /// single chunk.
    fn run_round(&mut self, job: Job) {
        self.round += 1;
        let (round, slots, lctx) = (self.round, self.slots, self.lctx);
        let chunks = &mut self.chunks;
        // A chunk whose SMs are all drained or asleep has nothing to do;
        // processing it inline (a cheap sweep that resets its round
        // outputs) avoids paying a handoff for it. Common in the tail of a
        // run, when only a few SMs still hold CTAs, and throughout a
        // busy-wait kernel, whose SMs mostly sleep on the lock's memory
        // round trip. A handed-off chunk is recognizable afterwards by its
        // taken (empty) `sms` — every real chunk owns at least one SM
        // because `workers <= num_sms`.
        for (w, slot) in slots.iter().enumerate() {
            if !chunks[w + 1].sms.iter().any(|sm| runs_at(sm, job.now)) {
                continue;
            }
            let chunk = std::mem::take(&mut chunks[w + 1]);
            *slot.cell.lock().expect("handoff cell poisoned") = Some((job, chunk));
            slot.go.store(round, Ordering::Release);
        }
        for chunk in chunks.iter_mut() {
            if !chunk.sms.is_empty() {
                run_job(job, chunk, lctx);
            }
        }
        for (w, slot) in slots.iter().enumerate() {
            if !chunks[w + 1].sms.is_empty() {
                continue;
            }
            spin_until_at_least(&slot.done, round);
            let (_, chunk) = slot
                .cell
                .lock()
                .expect("handoff cell poisoned")
                .take()
                .expect("worker returned no chunk");
            chunks[w + 1] = chunk;
        }
    }
}

/// One worker's share of the machine: its SMs (strided by SM id) plus its
/// private statistics accumulator and the per-round outputs of
/// [`run_job`].
#[derive(Default)]
struct Chunk {
    /// SMs with ids `w, w+workers, w+2*workers, ...`, ascending.
    sms: Vec<Sm>,
    /// Per-chunk statistics (workers cannot share one accumulator),
    /// drained by [`SmPool::fold_stats`].
    stats: SimStats,
    /// Warp instructions issued across the chunk this round.
    issued: u32,
    /// CTAs retired across the chunk this round.
    finished: u32,
    /// First (lowest-SM-id) cycle error in the chunk this round.
    err: Option<(usize, SimError)>,
    /// [`Round::ready`] for this chunk's SMs alone.
    ready: Option<u64>,
}

/// One round's work order for a chunk: cycle at `now`, letting dead SMs go
/// to sleep if `sleep`.
#[derive(Clone, Copy)]
struct Job {
    now: u64,
    sleep: bool,
}

/// Does a round at `now` have to cycle `sm`?
fn runs_at(sm: &Sm, now: u64) -> bool {
    sm.has_work() && sm.asleep_until(now).is_none()
}

/// Spin-based handoff cell between the coordinator and one worker.
///
/// Ownership of the chunk ping-pongs through `cell`, sequenced by the two
/// monotonic round counters: the coordinator stores the chunk and bumps
/// `go`; the worker processes and bumps `done`. Only one side touches the
/// cell at a time, so the mutex is always uncontended — it exists to keep
/// the handoff in safe code.
#[derive(Default)]
struct Slot {
    cell: Mutex<Option<(Job, Chunk)>>,
    go: AtomicU64,
    done: AtomicU64,
}

/// Unblocks workers on scope exit (normal, error, or panic) by publishing
/// the shutdown round.
struct ShutdownGuard<'a>(&'a [Slot]);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        for s in self.0 {
            s.go.store(u64::MAX, Ordering::Release);
        }
    }
}

/// Wait until `a >= target`. Spin briefly — on a multi-core host the
/// other side publishes within a few hundred nanoseconds — then fall back
/// to `yield_now`. The spin budget is deliberately small: when the host
/// is oversubscribed (more simulation threads than cores), the other side
/// cannot run until this thread yields, and a long spin would serialize
/// every handoff behind a burned scheduler quantum.
fn spin_until_at_least(a: &AtomicU64, target: u64) -> u64 {
    let mut spins = 0u32;
    loop {
        let v = a.load(Ordering::Acquire);
        if v >= target {
            return v;
        }
        spins = spins.wrapping_add(1);
        if spins < 256 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Worker thread body: take each round's job, run it, hand the chunk
/// back, acknowledging the round number the coordinator published (the
/// coordinator skips a worker on rounds when its chunk is idle, so the
/// sequence a worker sees is increasing but not contiguous).
fn worker(slot: &Slot, lctx: &LaunchCtx<'_>) {
    let mut last = 0u64;
    loop {
        let round = spin_until_at_least(&slot.go, last + 1);
        if round == u64::MAX {
            return;
        }
        let (job, mut chunk) = slot
            .cell
            .lock()
            .expect("handoff cell poisoned")
            .take()
            .expect("round published without a job");
        run_job(job, &mut chunk, lctx);
        *slot.cell.lock().expect("handoff cell poisoned") = Some((job, chunk));
        slot.done.store(round, Ordering::Release);
        last = round;
    }
}

/// Execute one round's job on one chunk (on a worker or the coordinator).
fn run_job(job: Job, chunk: &mut Chunk, lctx: &LaunchCtx<'_>) {
    let Job { now, sleep } = job;
    chunk.issued = 0;
    chunk.finished = 0;
    debug_assert!(chunk.err.is_none());
    let mut ready = Some(u64::MAX);
    for sm in &mut chunk.sms {
        if !sm.has_work() {
            continue;
        }
        if let Some(wake_at) = sm.asleep_until(now) {
            ready = ready.map(|r| r.min(wake_at));
            continue;
        }
        sm.wake(now, &mut chunk.stats);
        match sm.cycle(now, lctx, &mut chunk.stats) {
            Ok(r) => {
                chunk.issued += r.issued;
                chunk.finished += r.ctas_finished;
                ready = if sleep && r.issued == 0 && r.ctas_finished == 0 {
                    let wake_at = sm.sleep(now);
                    ready.map(|r| r.min(wake_at))
                } else {
                    None
                };
            }
            Err(e) => {
                // Stop at the first error, as the serial loop would:
                // later SMs in the chunk must not stage anything.
                chunk.err = Some((sm.id, e));
                ready = None;
                break;
            }
        }
    }
    chunk.ready = ready;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasePolicy, GpuConfig, NullDetector};
    use simt_isa::asm::assemble;
    use simt_isa::DecodedKernel;

    /// One warp per SM. In the same cycle, SMs 1 and 2 fault on a shared
    /// load past the CTA's allocation while SMs 0 and 3 stage a global
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
    /// wide, resident on each of the first `ctas` SMs, at the worker count
    /// `sm_threads` resolves to. `f` also gets the launch context, for
    /// launching further CTAs.
    fn with_pool<R>(
        sm_threads: usize,
        src: &str,
        params: &[u32],
        (ctas, threads_per_cta): (usize, usize),
        f: impl FnOnce(&mut SmPool<'_>, &LaunchCtx<'_>) -> R,
    ) -> R {
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 4;
        cfg.sm_threads = sm_threads;
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
        SmPool::scoped(sms, cfg.sm_workers(), &lctx, |pool| f(pool, &lctx))
    }

    /// Cycle the fault kernel until a round errors; return the reported SM
    /// id and which SMs hold staged work afterwards.
    fn run_to_fault(sm_threads: usize) -> (usize, Vec<bool>) {
        with_pool(sm_threads, FAULT_ON_SM_1_AND_2, &[0], (4, 32), |pool, _| {
            for now in 0..1000 {
                let round = pool.cycle(now, false);
                let staged: Vec<bool> = pool.sms().map(Sm::has_staged).collect();
                if let Some((id, e)) = round.err {
                    assert!(matches!(e, SimError::InternalInvariant { .. }), "{e}");
                    return (id, staged);
                }
                assert_eq!(staged, [false; 4], "only the fault cycle stages anything");
            }
            panic!("the kernel never faulted");
        })
    }

    /// SM 1 (chunk 1 at two workers) and SM 2 (chunk 0) fault in the same
    /// round: the lower id is reported at every worker count, as serial
    /// execution would have hit it first, and an SM after the faulting one
    /// in its chunk is never cycled, so it stages nothing.
    #[test]
    fn lowest_sm_id_wins_and_later_sms_stay_unstaged() {
        // Serial: one chunk, the sweep stops at SM 1.
        assert_eq!(run_to_fault(1), (1, vec![true, false, false, false]));
        // Two workers: chunk 0 = {0, 2} faults on SM 2, chunk 1 = {1, 3}
        // stops at SM 1 before cycling SM 3.
        assert_eq!(run_to_fault(2), (1, vec![true, false, false, false]));
        // One SM per worker: SM 3 does cycle and stage. Its stage is above
        // the reported id, which is why the run loop's replay stops there.
        assert_eq!(run_to_fault(8), (1, vec![true, false, false, true]));
    }

    /// Id-ordered access holds however the SMs are strided over workers.
    #[test]
    fn sms_are_visited_in_id_order_at_every_worker_count() {
        for sm_threads in [1, 2, 3, 8] {
            with_pool(sm_threads, FAULT_ON_SM_1_AND_2, &[0], (4, 32), |pool, _| {
                assert_eq!(pool.chunks.len(), sm_threads.min(4));
                assert_eq!(pool.len(), 4);
                let ids: Vec<usize> = pool.sms().map(|sm| sm.id).collect();
                assert_eq!(ids, [0, 1, 2, 3], "{sm_threads} threads");
                for id in 0..4 {
                    assert_eq!(pool.sm(id).id, id);
                    assert_eq!(pool.sm_mut(id).id, id);
                }
            });
        }
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

    /// A miniature run loop (completions, round, replay; the clock never
    /// jumps) until no SM has work left; `after_round` runs at the end of
    /// every iteration. Returns the books, settled and folded.
    fn drive(
        pool: &mut SmPool<'_>,
        mem: &mut simt_mem::MemorySystem,
        sleep: bool,
        mut after_round: impl FnMut(&mut SmPool<'_>, u64),
    ) -> Outcome {
        let mut done = Vec::new();
        let mut now = 0;
        while pool.sms().any(Sm::has_work) {
            mem.cycle_into(now, &mut done);
            for c in done.drain(..) {
                pool.sm_mut(c.sm).on_mem_complete(c).unwrap();
            }
            let round = pool.cycle(now, sleep);
            assert!(round.err.is_none());
            for id in 0..pool.len() {
                pool.sm_mut(id).replay_stage(mem, now).unwrap();
            }
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
    fn run_spin_or_load(
        sm_threads: usize,
        sleep: bool,
        inject: Option<u64>,
    ) -> (Outcome, Vec<u64>) {
        let cfg = GpuConfig::test_tiny();
        let mut mem = simt_mem::MemorySystem::new(cfg.mem.clone(), 4);
        let buf = mem.gmem_mut().alloc(1) as u32;
        with_pool(
            sm_threads,
            SPIN_ON_SM_0_LOAD_ON_SM_1,
            &[buf],
            (2, 32),
            |pool, lctx| {
                let mut age = 2;
                // SM 1's cycle count before the current round.
                let mut run_before = 0;
                let outcome = drive(pool, &mut mem, sleep, |pool, now| {
                    if inject == Some(now) {
                        // By now SM 1 waits on its load, with no timer of its
                        // own to wake it.
                        assert_eq!(pool.sm(1).asleep_until(now + 1), sleep.then_some(u64::MAX));
                        assert!(pool.sm_mut(1).try_launch_cta(2, lctx, &mut age));
                        assert_eq!(pool.sm(1).asleep_until(now + 1), None);
                    } else if now > 0 && inject == Some(now - 1) {
                        // The launch was a wake source: the new warp was seen
                        // alive on the very next cycle.
                        assert_eq!(pool.sm(1).prof.cycles_run, run_before + 1);
                    }
                    run_before = pool.sm(1).prof.cycles_run;
                });
                let run = pool.sms().map(|sm| sm.prof.cycles_run).collect();
                for sm in pool.sms().take(2) {
                    // Every cycle an SM had work was either run or slept.
                    assert!(sm.prof.cycles_run + sm.prof.cycles_slept <= outcome.cycles);
                    assert_eq!(sm.prof.cycles_slept > 0, sleep, "sm {}", sm.id);
                }
                (outcome, run)
            },
        )
    }

    /// While SM 0 keeps issuing, SM 1 — one warp blocked on a cold load —
    /// is cycled a handful of times (its few instructions, their
    /// writebacks, the completion), not once per simulated cycle, and the
    /// books come out as the cycle engine's at every worker count.
    #[test]
    fn an_sm_waiting_on_a_load_is_not_cycled() {
        let (oracle, run) = run_spin_or_load(1, false, None);
        assert!(run[1] > 200, "the load is long: {run:?}");
        for sm_threads in [1, 2, 8] {
            let (got, run) = run_spin_or_load(sm_threads, true, None);
            assert_eq!(got, oracle, "{sm_threads} threads");
            assert!(run[1] <= 16, "{sm_threads} threads: {run:?}");
            assert_eq!(run[2..], [0, 0], "drained SMs are never cycled");
        }
    }

    /// A CTA launched onto a sleeping SM wakes it for the next cycle, and
    /// the span slept before the launch is accrued as the cycle engine
    /// would have counted it.
    #[test]
    fn a_launch_wakes_a_sleeping_sm() {
        let (oracle, _) = run_spin_or_load(1, false, Some(100));
        for sm_threads in [1, 2, 8] {
            let (got, _) = run_spin_or_load(sm_threads, true, Some(100));
            assert_eq!(got, oracle, "{sm_threads} threads");
        }
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
            let mut mem = simt_mem::MemorySystem::new(cfg.mem.clone(), 4);
            let buf = mem.gmem_mut().alloc(8 * 32) as u32;
            with_pool(1, ONE_LOOPS_SEVEN_WAIT, &[buf], (1, 256), |pool, _| {
                let outcome = drive(pool, &mut mem, sleep, |_, _| {});
                (outcome, pool.sm(0).prof)
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
