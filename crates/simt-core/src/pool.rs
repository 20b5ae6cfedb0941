//! The SM worker pool: everything about *which host thread* cycles an SM.
//!
//! [`SmPool`] owns the machine's SMs for the length of one kernel run and
//! presents them to the run loop as "the SMs": id-ordered access
//! ([`SmPool::sm`], [`SmPool::sm_mut`], [`SmPool::sms`]) and three
//! whole-machine operations ([`SmPool::cycle`], [`SmPool::skip`],
//! [`SmPool::fold_stats`]). How the SMs are split over worker threads, how
//! a round is handed off and collected, and how per-worker results are
//! reduced are private to this file; the run loop in `gpu.rs` never sees a
//! worker count.
//!
//! What the run loop may assume: between two calls every SM is resident on
//! the calling thread; `cycle` has cycled SMs exactly as a serial
//! ascending-id sweep would have *observed* them (SMs never touch shared
//! state while cycling — each stages its global-memory work on itself, and
//! the caller replays the stages in SM-id order); and the round summary is
//! the same at every worker count.

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
    /// Minimum of [`Sm::next_ready_cycle`] over SMs with work. Computed
    /// only when asked for, and only for a dead round (nothing issued,
    /// nothing retired, no error) — the only time the fast-forward horizon
    /// reads it; `None` otherwise.
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

    /// Cycle every SM with work at `now`; with `want_ready`, also
    /// min-reduce `next_ready_cycle` when the round turns out dead.
    pub(crate) fn cycle(&mut self, now: u64, want_ready: bool) -> Round {
        self.run_round(Job::Cycle { now, want_ready });
        let mut r = Round::default();
        for ch in &mut self.chunks {
            r.issued |= ch.issued > 0;
            r.finished += ch.finished;
            // Each chunk min-reduced its own SMs during the round (the
            // per-SM scan is as costly as the cycle itself, so it
            // parallelizes with it); folding the chunk minima equals the
            // serial fold.
            if let Some(t) = ch.ready {
                r.ready = Some(r.ready.map_or(t, |m| m.min(t)));
            }
            if let Some((id, e)) = ch.err.take() {
                if r.err.as_ref().is_none_or(|(best, _)| id < *best) {
                    r.err = Some((id, e));
                }
            }
        }
        // A quiet chunk's minimum says nothing about a machine that moved.
        if r.issued || r.finished > 0 || r.err.is_some() {
            r.ready = None;
        }
        r
    }

    /// Bulk-apply a dead span (`fast_forward`) to every SM with work.
    pub(crate) fn skip(&mut self, now: u64, span: u64) {
        self.run_round(Job::Skip { now, span });
    }

    /// Move the per-worker statistics accumulated so far into `into`.
    /// Every field is an order-independent sum, so folding early (at a
    /// checkpoint) or late (at the end of the run) gives the same totals.
    pub(crate) fn fold_stats(&mut self, into: &mut SimStats) {
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
        // A chunk whose SMs are all drained has nothing to do; processing it
        // inline (a cheap `has_work` sweep that resets its round outputs)
        // avoids paying a handoff for it. Common in the tail of a run, when
        // only a few SMs still hold CTAs. A handed-off chunk is recognizable
        // afterwards by its taken (empty) `sms` — every real chunk owns at
        // least one SM because `workers <= num_sms`.
        for (w, slot) in slots.iter().enumerate() {
            if !chunks[w + 1].sms.iter().any(Sm::has_work) {
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
    /// Chunk-local minimum of [`Sm::next_ready_cycle`], computed only when
    /// the chunk issued and finished nothing (valid exactly when the whole
    /// machine had a dead cycle — no chunk issued — which is the only time
    /// the fast-forward horizon reads it).
    ready: Option<u64>,
}

/// One round's work order for a chunk.
#[derive(Clone, Copy)]
enum Job {
    /// Cycle every SM with work at `now`; when `want_ready`, also
    /// min-reduce `next_ready_cycle` if the chunk stayed quiet.
    Cycle { now: u64, want_ready: bool },
    /// Bulk-apply a dead span (`fast_forward`) to every SM with work.
    Skip { now: u64, span: u64 },
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
    match job {
        Job::Cycle { now, want_ready } => {
            chunk.issued = 0;
            chunk.finished = 0;
            chunk.ready = None;
            debug_assert!(chunk.err.is_none());
            for sm in &mut chunk.sms {
                if !sm.has_work() {
                    continue;
                }
                match sm.cycle(now, lctx, &mut chunk.stats) {
                    Ok(r) => {
                        chunk.issued += r.issued;
                        chunk.finished += r.ctas_finished;
                    }
                    Err(e) => {
                        // Stop at the first error, as the serial loop would:
                        // later SMs in the chunk must not stage anything.
                        chunk.err = Some((sm.id, e));
                        break;
                    }
                }
            }
            if want_ready && chunk.issued == 0 && chunk.finished == 0 && chunk.err.is_none() {
                let mut ready: Option<u64> = None;
                for sm in &chunk.sms {
                    if sm.has_work() {
                        if let Some(t) = sm.next_ready_cycle(now) {
                            ready = Some(ready.map_or(t, |r| r.min(t)));
                        }
                    }
                }
                chunk.ready = ready;
            }
        }
        Job::Skip { now, span } => {
            for sm in &mut chunk.sms {
                if sm.has_work() {
                    sm.fast_forward(now, span, &mut chunk.stats);
                }
            }
        }
    }
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

    /// Run `f` over a 4-SM machine with one CTA of the fault kernel
    /// resident on every SM, at the worker count `sm_threads` resolves to.
    fn with_pool<R>(sm_threads: usize, f: impl FnOnce(&mut SmPool<'_>) -> R) -> R {
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 4;
        cfg.sm_threads = sm_threads;
        let kernel = assemble(FAULT_ON_SM_1_AND_2).unwrap();
        let decoded = DecodedKernel::decode(&kernel);
        let lctx = LaunchCtx {
            kernel: &kernel,
            decoded: &decoded,
            params: &[0],
            threads_per_cta: 32,
            grid_ctas: 4,
        };
        let mut age = 0;
        let sms = (0..cfg.num_sms)
            .map(|id| {
                let units = (0..cfg.schedulers_per_sm)
                    .map(|_| BasePolicy::Lrr.build(cfg.gto_rotate_period))
                    .collect();
                let mut sm = Sm::new(id, &cfg, units, Box::new(NullDetector));
                assert!(sm.try_launch_cta(id, &lctx, &mut age));
                sm
            })
            .collect();
        SmPool::scoped(sms, cfg.sm_workers(), &lctx, f)
    }

    /// Cycle the fault kernel until a round errors; return the reported SM
    /// id and which SMs hold staged work afterwards.
    fn run_to_fault(sm_threads: usize) -> (usize, Vec<bool>) {
        with_pool(sm_threads, |pool| {
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
            with_pool(sm_threads, |pool| {
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
}
