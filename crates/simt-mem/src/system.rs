//! The cycle-level memory system: per-SM L1s, banked L2 partitions with
//! atomic units, and DRAM channels.

use crate::wheel::{body_slot, EventWheel};
use crate::{
    line_of, AccessOutcome, Addr, Cache, ChaosEngine, ChaosStats, GlobalMem, MemConfig, MemStats,
    Mshr, ProbeMap, LINE_BYTES,
};
use simt_isa::AtomOp;
use std::collections::VecDeque;

/// Lock-protocol role of an atomic lane operation, for the exact
/// lock-outcome classification the paper's Figures 2 and 12 report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LockRole {
    /// Not part of a lock protocol.
    #[default]
    None,
    /// A lock-acquire attempt (CAS whose compare operand is the "free"
    /// value); success is `old == compare`.
    Acquire,
    /// A lock release (the owner is cleared).
    Release,
}

/// One lane's atomic operation within a warp-level atomic request, and,
/// once the partition has served it, the value the lane read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAtomic {
    /// Lane index (0..32).
    pub lane: u8,
    /// Word address the lane operates on.
    pub addr: Addr,
    /// The read-modify-write operation.
    pub op: AtomOp,
    /// First operand (CAS compare value / add amount / exchange value...).
    pub a: u32,
    /// Second operand (CAS new value; unused otherwise).
    pub b: u32,
    /// The value the lane read at the serialization point; 0 until the
    /// partition serves the request.
    pub old: u32,
    /// Lock-protocol role, for outcome statistics.
    pub role: LockRole,
    /// Identity of the issuing warp (`sm << 32 | warp`), used to classify
    /// failed acquires as intra- vs inter-warp.
    pub holder: u64,
}

impl LaneAtomic {
    /// A plain atomic lane op with no lock-protocol role.
    pub fn new(lane: u8, addr: Addr, op: AtomOp, a: u32, b: u32) -> LaneAtomic {
        LaneAtomic {
            lane,
            addr,
            op,
            a,
            b,
            old: 0,
            role: LockRole::None,
            holder: 0,
        }
    }
}

/// Kind of a coalesced memory request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqKind {
    /// A read of one line. `bypass_l1` models `ld.volatile`, which skips the
    /// (incoherent) L1 and is serviced at the L2 partition.
    Load { bypass_l1: bool },
    /// A write-through of (part of) one line.
    Store,
    /// A warp-level atomic: bypasses L1; the lane operations are applied to
    /// functional memory in lane order at the instant the request is
    /// serviced by the partition's atomic unit. That service instant is the
    /// global serialization point that makes inter-warp lock races behave
    /// as on hardware.
    Atomic { ops: Vec<LaneAtomic> },
}

/// A coalesced (single-line) memory request from an SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRequest {
    /// Request kind.
    pub kind: ReqKind,
    /// Line-aligned address.
    pub line: Addr,
    /// Opaque tag returned in the matching [`MemCompletion`].
    pub tag: u64,
    /// Statistic annotation: this request is synchronization traffic.
    pub sync: bool,
    /// True when this is the *only* request its instruction generated.
    /// Queue-lock parking is restricted to sole requests: a warp must never
    /// block on one line while holding locks acquired through a sibling
    /// request of the same instruction (hold-and-wait would deadlock).
    pub sole: bool,
}

impl MemRequest {
    /// Build a request; `addr` may be any address within the line.
    pub fn new(kind: ReqKind, addr: Addr, tag: u64) -> MemRequest {
        MemRequest {
            kind,
            line: line_of(addr),
            tag,
            sync: false,
            sole: true,
        }
    }

    /// Mark as synchronization traffic (for overhead accounting).
    pub fn sync(mut self) -> MemRequest {
        self.sync = true;
        self
    }
}

/// Completion of a [`MemRequest`].
///
/// Equality is what an SM observes: the SM, the tag, and each lane's
/// `(lane, old)`. The request-side fields of the lane ops are not compared,
/// and a completion restored from a snapshot does not carry them.
#[derive(Debug, Clone)]
pub struct MemCompletion {
    /// SM that issued the request.
    pub sm: usize,
    /// The request's tag.
    pub tag: u64,
    /// For atomics: the request's own lane ops, in lane-op order, each
    /// with the value its lane read in `old`. Hand it back with
    /// [`MemorySystem::recycle`] once read. Loads and stores carry an
    /// unallocated `Vec`.
    pub atomic_results: Vec<LaneAtomic>,
}

impl PartialEq for MemCompletion {
    fn eq(&self, other: &MemCompletion) -> bool {
        fn seen(c: &MemCompletion) -> impl Iterator<Item = (u8, u32)> + '_ {
            c.atomic_results.iter().map(|op| (op.lane, op.old))
        }
        self.sm == other.sm && self.tag == other.tag && seen(self).eq(seen(other))
    }
}

impl Eq for MemCompletion {}

/// A response's served lane ops. On the wire they are a length and the
/// `(lane, old)` pairs an SM reads (the snapshot VERSION 2 layout); the
/// request-side fields decode as zero.
#[derive(Debug)]
struct LaneResults(Vec<LaneAtomic>);

/// One slot of the event-body table.
#[derive(Debug)]
enum Event {
    /// Vacant slot (on the free list).
    Free,
    /// A line fill arrives at an SM's L1.
    L1Fill { sm: usize, line: Addr },
    /// A request completes back at its SM; the fields of the
    /// [`MemCompletion`] it will deliver.
    Complete {
        sm: usize,
        tag: u64,
        atomic_results: LaneResults,
    },
}

#[derive(Debug)]
struct L1 {
    cache: Cache,
    mshr: Mshr,
    inq: VecDeque<(u64, MemRequest)>,
}

#[derive(Debug)]
struct PartReq {
    sm: usize,
    req: MemRequest,
    /// True when this is an L1 miss fill (completion goes via L1Fill).
    l1_fill: bool,
    /// Times the chaos engine has NACKed this request (bounds its backoff).
    retries: u32,
}

#[derive(Debug)]
struct Partition {
    cache: Cache,
    inq: VecDeque<(u64, PartReq)>,
    /// DRAM-bound work: `(earliest_start, Option<request>)`; `None` is a
    /// fire-and-forget write that only consumes bandwidth.
    dramq: VecDeque<(u64, Option<PartReq>)>,
    dram_next_free: u64,
    /// The atomic unit applies one lane operation per cycle, so a k-lane
    /// atomic occupies the partition port for k cycles. This is the
    /// serialization that lets spinning warps' failed CAS traffic delay
    /// lock holders — the paper's central contention mechanism.
    port_free: u64,
}

impl Partition {
    /// The first cycle a visit can serve the head-blocking input queue or
    /// start the DRAM queue's head; `u64::MAX` with both queues empty.
    fn due(&self) -> u64 {
        let port = self.inq.front().map(|f| f.0.max(self.port_free));
        let dram = self.dramq.front().map(|f| f.0.max(self.dram_next_free));
        port.into_iter().chain(dram).min().unwrap_or(u64::MAX)
    }
}

/// A set of L1 indices as a bitset: the L1s with queued work, so a cycle
/// visits only those, in ascending index.
#[derive(Debug, Clone)]
struct BusySet(Vec<u64>);

impl BusySet {
    fn new(queues: usize) -> BusySet {
        BusySet(vec![0; queues.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    #[cfg(debug_assertions)]
    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }

    /// The lowest member at or above `i`, read from the live bits.
    fn next_from(&self, i: usize) -> Option<usize> {
        let mut word = i / 64;
        let mut bits = *self.0.get(word)? & (u64::MAX << (i % 64));
        while bits == 0 {
            word += 1;
            bits = *self.0.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

/// The device memory system shared by all SMs.
///
/// Drive it by calling [`MemorySystem::enqueue`] when warps issue memory
/// instructions and [`MemorySystem::cycle_into`] once per core cycle.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    gmem: GlobalMem,
    l1s: Vec<L1>,
    parts: Vec<Partition>,
    /// L1s whose input queue is non-empty: set on push, cleared by the
    /// visit that empties it (derived; rebuilt at restore).
    busy_l1s: BusySet,
    /// Per partition, [`Partition::due`], and their minimum: set by every
    /// visit and by `queue_at` (derived; rebuilt at restore).
    part_due: Vec<u64>,
    parts_due: u64,
    /// Lines in flight across every L1's MSHRs (derived; recounted at
    /// restore), so `quiescent` need not sweep them.
    mshr_lines: usize,
    /// Pending response events, due time and key per body in
    /// `event_bodies`.
    events: EventWheel,
    event_bodies: Vec<Event>,
    free_slots: Vec<usize>,
    seq: u64,
    stats: MemStats,
    lock_owners: ProbeMap<u64>,
    /// Idealized queue-based blocking locks (the HQL-style mechanism of
    /// Yilmazer & Kaeli that the paper compares against, without its cache
    /// constraints): when enabled, a lock-acquire whose lock is held by
    /// *another* warp — and whose request has acquired nothing yet — parks
    /// at the partition instead of failing; the matching release wakes the
    /// oldest parked request. Deadlock-free as long as programs acquire
    /// multiple locks in a global order (all bundled workloads do).
    blocking_locks: bool,
    parked: ProbeMap<VecDeque<PartReq>>,
    chaos: ChaosEngine,
    /// Emptied atomic lane buffers handed back by [`MemorySystem::recycle`],
    /// per capacity class of [`LANE_CLASSES`] (derived: empty at
    /// construction, never encoded, empty after restore).
    spare_lanes: [Vec<Vec<LaneAtomic>>; LANE_CLASSES.len()],
}

/// The capacities spare lane buffers are sorted into and new ones are
/// allocated at: those `Vec` growth gives a buffer pushed one lane at a
/// time, so the allocator sees the chunk sizes it always has.
const LANE_CLASSES: [usize; 5] = [1, 4, 8, 16, 32];

/// Lanes in a warp: the most lane ops one atomic request carries.
const WARP_LANES: usize = 32;

/// The smallest class that holds `n ≤ 32` lanes.
fn class_for_lanes(n: usize) -> usize {
    LANE_CLASSES
        .iter()
        .position(|&c| c >= n)
        .unwrap_or(LANE_CLASSES.len() - 1)
}

/// The largest class a buffer of `capacity ≥ 1` covers.
fn class_of_capacity(capacity: usize) -> usize {
    LANE_CLASSES
        .iter()
        .rposition(|&c| c <= capacity)
        .unwrap_or(0)
}

impl MemorySystem {
    /// A memory system serving `num_sms` SMs.
    pub fn new(cfg: MemConfig, num_sms: usize) -> MemorySystem {
        let l1s = (0..num_sms)
            .map(|_| L1 {
                cache: Cache::new(cfg.l1_bytes, cfg.l1_ways),
                mshr: Mshr::new(cfg.l1_mshrs),
                inq: VecDeque::new(),
            })
            .collect();
        let parts = (0..cfg.l2_partitions)
            .map(|_| Partition {
                cache: Cache::new(cfg.l2_bytes_per_partition, cfg.l2_ways),
                inq: VecDeque::new(),
                dramq: VecDeque::new(),
                dram_next_free: 0,
                port_free: 0,
            })
            .collect();
        let chaos = ChaosEngine::new(cfg.chaos.clone());
        MemorySystem {
            busy_l1s: BusySet::new(num_sms),
            part_due: vec![u64::MAX; cfg.l2_partitions],
            parts_due: u64::MAX,
            mshr_lines: 0,
            events: EventWheel::new(cfg.max_event_offset()),
            cfg,
            chaos,
            gmem: GlobalMem::new(),
            l1s,
            parts,
            event_bodies: Vec::new(),
            free_slots: Vec::new(),
            seq: 0,
            stats: MemStats::default(),
            lock_owners: ProbeMap::new(),
            blocking_locks: false,
            parked: ProbeMap::new(),
            spare_lanes: Default::default(),
        }
    }

    /// An empty buffer for the lane ops of one atomic request of `n` lanes
    /// (`1 ≤ n ≤ 32`), with capacity for at least `n`: a recycled one when
    /// its class has a spare.
    pub fn lane_buf(&mut self, n: usize) -> Vec<LaneAtomic> {
        let class = class_for_lanes(n);
        self.spare_lanes[class]
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(LANE_CLASSES[class]))
    }

    /// Take back a delivered completion's `atomic_results` for reuse by
    /// [`MemorySystem::lane_buf`]. A load's or store's unallocated `Vec`
    /// costs one compare.
    #[inline]
    pub fn recycle(&mut self, mut buf: Vec<LaneAtomic>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        self.spare_lanes[class_of_capacity(buf.capacity())].push(buf);
    }

    /// Enable idealized queue-based blocking locks (see the field docs).
    pub fn set_blocking_locks(&mut self, on: bool) {
        self.blocking_locks = on;
    }

    /// Parked (blocked) acquire requests currently queued at locks.
    pub fn parked_requests(&self) -> usize {
        self.parked.values().map(VecDeque::len).sum()
    }

    /// Requests currently in flight anywhere in the hierarchy (queues,
    /// MSHRs, DRAM, response events) — hang-diagnostics support.
    pub fn in_flight(&self) -> usize {
        self.events.len()
            + self
                .l1s
                .iter()
                .map(|l| l.inq.len() + l.mshr.in_flight())
                .sum::<usize>()
            + self
                .parts
                .iter()
                .map(|p| p.inq.len() + p.dramq.len())
                .sum::<usize>()
    }

    /// Fault-injection counters (all zero when chaos is off).
    pub fn chaos_stats(&self) -> &ChaosStats {
        self.chaos.stats()
    }

    /// Functional global memory.
    pub fn gmem(&self) -> &GlobalMem {
        &self.gmem
    }

    /// Functional global memory, mutable (host-side setup and the SM's
    /// at-issue load/store semantics).
    pub fn gmem_mut(&mut self) -> &mut GlobalMem {
        &mut self.gmem
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// True when no request is in flight anywhere (watchdog support).
    pub fn quiescent(&self) -> bool {
        self.events.is_empty()
            && self.mshr_lines == 0
            && self.busy_l1s.next_from(0).is_none()
            && self.parts_due == u64::MAX
    }

    /// Earliest future cycle (strictly after `now`) at which this memory
    /// system can change state on its own: deliver a scheduled event,
    /// serve an L1 or partition queue head, or start a DRAM access.
    /// `None` when nothing is in flight. Parked blocking-lock requests
    /// contribute nothing: they wake only via a release, which is itself
    /// an in-flight atomic already counted here.
    ///
    /// Called by the fast-forward engine after `cycle_into(now)` has run:
    /// anything servable at `now` was already served (or lost port
    /// arbitration and retries next cycle), so every candidate is clamped
    /// to at least `now + 1`. All queues are head-blocking, so only each
    /// busy queue's front matters.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // MSHR-squeeze chaos rolls the RNG on *every* cycle in which an L1
        // has queued work; skipping any such cycle would desynchronize the
        // deterministic chaos stream, so refuse to skip at all.
        if self.chaos.squeeze_possible() && self.busy_l1s.next_from(0).is_some() {
            return Some(now + 1);
        }
        let events = self.events.earliest().unwrap_or(u64::MAX);
        let mut next = events.min(self.parts_due);
        let mut from = 0;
        while let Some(sm) = self.busy_l1s.next_from(from) {
            from = sm + 1;
            let l1 = &self.l1s[sm];
            let Some((ready, req)) = l1.inq.front() else {
                continue;
            };
            if matches!(req.kind, ReqKind::Load { .. })
                && l1.cache.peek(req.line) == AccessOutcome::Miss
                && !l1.mshr.pending(req.line)
                && !l1.mshr.has_space()
            {
                // MSHR-blocked head: it unblocks only through an L1 fill,
                // which the event wheel above already covers.
                continue;
            }
            next = next.min(*ready);
        }
        (next != u64::MAX).then(|| next.max(now + 1))
    }

    fn partition_of(&self, line: Addr) -> usize {
        ((line / LINE_BYTES) % self.parts.len() as u64) as usize
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.event_bodies[s] = ev;
                s
            }
            None => {
                self.event_bodies.push(ev);
                self.event_bodies.len() - 1
            }
        };
        self.seq += 1;
        self.events.push(at, (self.seq << 32) | slot as u64);
    }

    /// Queue `preq` at partition `part`, servable from cycle `at`.
    fn queue_at(&mut self, part: usize, at: u64, preq: PartReq) {
        // A push can only lower the due cycle, but in the partition being
        // visited, whose visit ends by recomputing it; a `min` will do.
        self.parts[part].inq.push_back((at, preq));
        self.part_due[part] = self.parts[part].due();
        self.parts_due = self.parts_due.min(self.part_due[part]);
    }

    /// Send `sm`'s request on to the partition that owns its line, arriving
    /// after the interconnect from cycle `from`.
    fn forward(&mut self, sm: usize, req: MemRequest, l1_fill: bool, from: u64) {
        let part = self.partition_of(req.line);
        let preq = PartReq {
            sm,
            req,
            l1_fill,
            retries: 0,
        };
        self.queue_at(part, from + self.cfg.icnt_latency, preq);
    }

    /// Submit a coalesced request from `sm` at `cycle`.
    ///
    /// Atomics and volatile loads route directly to the owning L2 partition;
    /// everything else enters the SM's L1 queue.
    pub fn enqueue(&mut self, sm: usize, req: MemRequest, cycle: u64) {
        self.stats.total_transactions += 1;
        if req.sync {
            self.stats.sync_transactions += 1;
        }
        // Chaos: charge extra interconnect/queueing latency up front (0
        // when disabled — the draw itself is skipped).
        let cycle = cycle + self.chaos.extra_request_latency();
        match &req.kind {
            ReqKind::Atomic { ops } => {
                self.stats.atomic_transactions += 1;
                self.stats.atomic_lane_ops += ops.len() as u64;
                self.forward(sm, req, false, cycle);
            }
            ReqKind::Load { bypass_l1: true } => self.forward(sm, req, false, cycle),
            _ => {
                self.l1s[sm].inq.push_back((cycle, req));
                self.busy_l1s.insert(sm);
            }
        }
    }

    /// Advance one cycle, appending completions that fire this cycle to
    /// `out` (which is *not* cleared — the caller owns and recycles it).
    ///
    /// Only queues that can move are visited: an idle L1, or an L2
    /// partition before its due cycle (say, while its atomic unit drains a
    /// contended CAS), costs nothing.
    ///
    /// The caller must not skip a cycle [`MemorySystem::next_event`] names
    /// (the run loop never does): the response wheel orders only events
    /// due within its span of the earliest pending one.
    pub fn cycle_into(&mut self, now: u64, out: &mut Vec<MemCompletion>) {
        self.step_l1s(now);
        self.step_partitions(now);
        self.drain_events(now, out);
        #[cfg(debug_assertions)]
        self.assert_derived_state_agrees(now);
    }

    /// Debug-build oracle for the derived state the cycle reads in place
    /// of full sweeps: the L1 busy set is exactly the non-empty queues,
    /// every partition's due cycle is the one its queue fronts give and
    /// `parts_due` their minimum, the MSHR total is the sum over the L1s,
    /// the wheel's earliest time is the minimum pending one, and
    /// `quiescent` and `next_event` agree with full scans.
    #[cfg(debug_assertions)]
    fn assert_derived_state_agrees(&self, now: u64) {
        for (sm, l1) in self.l1s.iter().enumerate() {
            let busy = self.busy_l1s.contains(sm);
            assert_eq!(!l1.inq.is_empty(), busy, "L1 {sm} busy bit");
        }
        for (p, part) in self.parts.iter().enumerate() {
            assert_eq!(self.part_due[p], part.due(), "partition {p} due cycle");
        }
        let min_due = self.part_due.iter().copied().min().unwrap_or(u64::MAX);
        assert_eq!(self.parts_due, min_due, "earliest partition due cycle");
        let mshr_lines: usize = self.l1s.iter().map(|l| l.mshr.in_flight()).sum();
        assert_eq!(self.mshr_lines, mshr_lines, "MSHR lines in flight");
        self.events.assert_consistent(now);
        let l1s_idle = |l: &L1| l.inq.is_empty() && l.mshr.in_flight() == 0;
        let parts_idle = |p: &Partition| p.inq.is_empty() && p.dramq.is_empty();
        let full_scan = self.events.is_empty()
            && self.l1s.iter().all(l1s_idle)
            && self.parts.iter().all(parts_idle);
        assert_eq!(self.quiescent(), full_scan, "quiescent, full scan");
        let full_scan = self.next_event_full_scan(now);
        assert_eq!(self.next_event(now), full_scan, "next event, full scan");
        for (class, spares) in self.spare_lanes.iter().enumerate() {
            for buf in spares {
                assert!(buf.is_empty(), "spare lane buffer holds lanes");
                assert_eq!(
                    class_of_capacity(buf.capacity()),
                    class,
                    "spare lane buffer class"
                );
            }
        }
    }

    /// [`MemorySystem::next_event`] computed from every queue's front, as
    /// before partitions kept their due cycles (debug-build oracle).
    #[cfg(debug_assertions)]
    fn next_event_full_scan(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| match next {
            Some(n) if n <= t => {}
            _ => next = Some(t),
        };
        if let Some(at) = self.events.earliest() {
            fold(at.max(now + 1));
        }
        if self.chaos.squeeze_possible() && self.l1s.iter().any(|l| !l.inq.is_empty()) {
            return Some(now + 1);
        }
        for l1 in &self.l1s {
            let Some((ready, req)) = l1.inq.front() else {
                continue;
            };
            if matches!(req.kind, ReqKind::Load { .. })
                && l1.cache.peek(req.line) == AccessOutcome::Miss
                && !l1.mshr.pending(req.line)
                && !l1.mshr.has_space()
            {
                continue;
            }
            fold((*ready).max(now + 1));
        }
        for p in &self.parts {
            if let Some(&(ready, _)) = p.inq.front() {
                fold(ready.max(p.port_free).max(now + 1));
            }
            if let Some(&(earliest, _)) = p.dramq.front() {
                fold(earliest.max(p.dram_next_free).max(now + 1));
            }
        }
        next
    }

    fn step_l1s(&mut self, now: u64) {
        let mut from = 0;
        while let Some(sm) = self.busy_l1s.next_from(from) {
            from = sm + 1;
            // Chaos: transient MSHR-full back-pressure — this L1 serves
            // nothing this cycle (drawn only when work is pending).
            if !self.l1s[sm].inq.is_empty() && self.chaos.mshr_squeeze() {
                continue;
            }
            let mut served = 0;
            while served < self.cfg.l1_ports {
                let Some((ready, req)) = self.l1s[sm].inq.front() else {
                    break;
                };
                if *ready > now {
                    break;
                }
                // MSHR-full loads stall the queue head (models backpressure).
                if matches!(req.kind, ReqKind::Load { .. }) {
                    let line = req.line;
                    let l1 = &self.l1s[sm];
                    if l1.cache.peek(line) == AccessOutcome::Miss
                        && !l1.mshr.pending(line)
                        && !l1.mshr.has_space()
                    {
                        break;
                    }
                }
                let Some((_, req)) = self.l1s[sm].inq.pop_front() else {
                    break;
                };
                self.service_l1(sm, req, now);
                served += 1;
            }
            if self.l1s[sm].inq.is_empty() {
                self.busy_l1s.remove(sm);
            }
        }
    }

    fn service_l1(&mut self, sm: usize, req: MemRequest, now: u64) {
        self.stats.l1_accesses += 1;
        let line = req.line;
        match req.kind {
            ReqKind::Load { .. } => {
                let l1 = &mut self.l1s[sm];
                if l1.cache.access(line) == AccessOutcome::Hit {
                    self.stats.l1_hits += 1;
                    let done = now + self.cfg.l1_hit_latency;
                    self.schedule(
                        done,
                        Event::Complete {
                            sm,
                            tag: req.tag,
                            atomic_results: LaneResults(Vec::new()),
                        },
                    );
                } else {
                    self.stats.l1_misses += 1;
                    let allocated = l1.mshr.record(line, req.tag);
                    if allocated {
                        self.mshr_lines += 1;
                        self.forward(sm, req, true, now);
                    }
                }
            }
            ReqKind::Store => {
                // Write-through, no write-allocate: probe for stats, always
                // forward to the partition; completion happens there.
                let l1 = &mut self.l1s[sm];
                if l1.cache.access(line) == AccessOutcome::Hit {
                    self.stats.l1_hits += 1;
                } else {
                    self.stats.l1_misses += 1;
                }
                self.forward(sm, req, false, now);
            }
            // Atomics bypass the L1 at enqueue; if one ever lands here,
            // recover by routing it to its partition rather than aborting.
            ReqKind::Atomic { .. } => {
                debug_assert!(false, "atomics bypass L1");
                self.forward(sm, req, false, now);
            }
        }
    }

    /// Visit, in ascending index, every partition due at `now` (read live,
    /// as a sweep would see a waiter woken into a higher partition). A
    /// visit before the due cycle pops nothing and draws no NACK.
    fn step_partitions(&mut self, now: u64) {
        if self.parts_due > now {
            return;
        }
        for p in 0..self.parts.len() {
            if self.part_due[p] > now {
                continue;
            }
            // DRAM channel: start at most one service per `dram_interval`.
            let mut started = false;
            while let Some(&(earliest, _)) = self.parts[p].dramq.front() {
                let part = &mut self.parts[p];
                if earliest > now || part.dram_next_free > now {
                    break;
                }
                part.dram_next_free = now + self.cfg.dram_interval;
                let Some((_, body)) = part.dramq.pop_front() else {
                    break;
                };
                started = true;
                if let Some(preq) = body {
                    let done = now + self.cfg.dram_latency;
                    self.finish_at_partition(p, preq, done);
                } else {
                    self.stats.dram_writes += 1;
                }
            }
            // L2 service ports; the atomic unit may still be draining a
            // previous multi-lane atomic.
            let mut served = 0;
            while served < self.cfg.l2_ports {
                if self.parts[p].port_free > now {
                    break;
                }
                let Some(&(ready, _)) = self.parts[p].inq.front() else {
                    break;
                };
                if ready > now {
                    break;
                }
                let Some((_, mut preq)) = self.parts[p].inq.pop_front() else {
                    break;
                };
                // Chaos: NACK the request back into the queue with an
                // exponential backoff (consumes the port slot, models a
                // rejected interconnect packet). Decided *before* any cache
                // or atomic side effect, so a retried request replays
                // nothing.
                if let Some(delay) = self.chaos.nack_delay(preq.retries) {
                    preq.retries += 1;
                    self.queue_at(p, now + delay, preq);
                    served += 1;
                    continue;
                }
                if let ReqKind::Atomic { ops } = &preq.req.kind {
                    self.parts[p].port_free = now + ops.len() as u64;
                }
                self.service_partition(p, preq, now);
                served += 1;
            }
            debug_assert!(started || served > 0, "idle visit to partition {p}");
            self.part_due[p] = self.parts[p].due();
        }
        self.parts_due = self.part_due.iter().copied().min().unwrap_or(u64::MAX);
    }

    fn service_partition(&mut self, p: usize, preq: PartReq, now: u64) {
        self.stats.l2_accesses += 1;
        let line = preq.req.line;
        let hit = self.parts[p].cache.access(line) == AccessOutcome::Hit;
        if hit {
            self.stats.l2_hits += 1;
        } else {
            self.stats.l2_misses += 1;
        }
        match preq.req.kind {
            ReqKind::Store => {
                // Write-through to DRAM (bandwidth only), complete now+L2 lat.
                let done = now + self.cfg.l2_hit_latency;
                self.schedule(
                    done,
                    Event::Complete {
                        sm: preq.sm,
                        tag: preq.req.tag,
                        atomic_results: LaneResults(Vec::new()),
                    },
                );
                self.parts[p].dramq.push_back((now, None));
            }
            ReqKind::Load { .. } | ReqKind::Atomic { .. } => {
                if hit {
                    let done = now + self.cfg.l2_hit_latency;
                    self.finish_at_partition(p, preq, done);
                } else {
                    self.stats.dram_reads += 1;
                    self.parts[p].cache.fill(line);
                    self.parts[p].dramq.push_back((now, Some(preq)));
                }
            }
        }
    }

    /// A load/atomic finished its L2/DRAM access at `done`; apply side
    /// effects and send the response toward the SM.
    fn finish_at_partition(&mut self, _p: usize, preq: PartReq, done: u64) {
        let back = done + self.cfg.icnt_latency;
        match preq.req.kind {
            ReqKind::Load { .. } => {
                if preq.l1_fill {
                    self.schedule(
                        back,
                        Event::L1Fill {
                            sm: preq.sm,
                            line: preq.req.line,
                        },
                    );
                } else {
                    self.schedule(
                        back,
                        Event::Complete {
                            sm: preq.sm,
                            tag: preq.req.tag,
                            atomic_results: LaneResults(Vec::new()),
                        },
                    );
                }
            }
            ReqKind::Atomic { ref ops } => {
                // Idealized blocking locks: a pure-acquire request that
                // would succeed on no lane — and whose locks are all held
                // by *other* warps — parks until a release wakes it.
                // Requests park only while holding nothing, so there is no
                // hold-and-wait and no deadlock.
                if self.blocking_locks
                    && preq.req.sole
                    && ops.iter().all(|o| o.role == LockRole::Acquire)
                {
                    let would_succeed = ops.iter().any(|o| self.gmem.read_u32(o.addr) == o.a);
                    let intra = ops
                        .iter()
                        .any(|o| self.lock_owners.get(o.addr) == Some(&o.holder));
                    if !would_succeed && !intra {
                        let park_on = ops[0].addr;
                        self.parked
                            .get_or_insert_with(park_on, VecDeque::new)
                            .push_back(preq);
                        return;
                    }
                }
                let ReqKind::Atomic { mut ops } = preq.req.kind else {
                    unreachable!()
                };
                // Serialization point: apply lane ops in order against
                // functional memory, each keeping the value it read.
                for op in &mut ops {
                    let old = self.gmem.read_u32(op.addr);
                    let new = op.op.apply(old, op.a, op.b);
                    self.gmem.write_u32(op.addr, new);
                    match op.role {
                        LockRole::Acquire => {
                            if old == op.a {
                                self.stats.lock_success += 1;
                                self.lock_owners.insert(op.addr, op.holder);
                            } else if self.lock_owners.get(op.addr) == Some(&op.holder) {
                                self.stats.lock_intra_fail += 1;
                            } else {
                                self.stats.lock_inter_fail += 1;
                            }
                        }
                        LockRole::Release => {
                            self.lock_owners.remove(op.addr);
                        }
                        LockRole::None => {}
                    }
                    op.old = old;
                }
                // Releases, in lane-op order, wake the oldest parked
                // acquirer (it re-enters the partition queue and
                // re-arbitrates for the port).
                let released = ops.iter().filter(|o| o.role == LockRole::Release);
                for addr in released.map(|o| o.addr) {
                    let waiter = match self.parked.get_mut(addr) {
                        Some(q) => {
                            let w = q.pop_front();
                            if q.is_empty() {
                                self.parked.remove(addr);
                            }
                            w
                        }
                        None => None,
                    };
                    if let Some(waiter) = waiter {
                        let part = self.partition_of(waiter.req.line);
                        self.queue_at(part, done, waiter);
                    }
                }
                // Chaos: delay the *response* only — the lane ops above
                // already applied at the serialization point, so timing
                // chaos can never alter architectural results.
                let back = back + self.chaos.atomic_delay();
                self.schedule(
                    back,
                    Event::Complete {
                        sm: preq.sm,
                        tag: preq.req.tag,
                        atomic_results: LaneResults(ops),
                    },
                );
            }
            // Stores complete at service; a store reaching here is a
            // bookkeeping bug but is harmless to complete normally.
            ReqKind::Store => {
                debug_assert!(false, "stores complete at service");
                self.schedule(
                    back,
                    Event::Complete {
                        sm: preq.sm,
                        tag: preq.req.tag,
                        atomic_results: LaneResults(Vec::new()),
                    },
                );
            }
        }
    }

    fn drain_events(&mut self, now: u64, out: &mut Vec<MemCompletion>) {
        while let Some(slot) = self.events.pop_due(now) {
            let ev = match self.event_bodies.get_mut(slot) {
                Some(body) => std::mem::replace(body, Event::Free),
                None => Event::Free,
            };
            match ev {
                // A dead slot would mean double-scheduling; skip rather
                // than abort (debug builds still flag it).
                Event::Free => {
                    debug_assert!(false, "event slot {slot} not live");
                    continue;
                }
                Event::Complete {
                    sm,
                    tag,
                    atomic_results,
                } => out.push(MemCompletion {
                    sm,
                    tag,
                    atomic_results: atomic_results.0,
                }),
                Event::L1Fill { sm, line } => {
                    let l1 = &mut self.l1s[sm];
                    l1.cache.fill(line);
                    let before = l1.mshr.in_flight();
                    l1.mshr.fill(line, |tag| {
                        out.push(MemCompletion {
                            sm,
                            tag,
                            atomic_results: Vec::new(),
                        })
                    });
                    self.mshr_lines -= before - l1.mshr.in_flight();
                }
            }
            self.free_slots.push(slot);
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint serialization.
//
// The field lists below are the wire format of the memory system's
// complete dynamic state — functional memory, cache directories, MSHRs,
// every queued request, the pending events, lock/parking bookkeeping,
// stats, and the chaos RNG stream — so a restored system is
// bit-indistinguishable from one that never stopped. Queue contents keep
// their order verbatim; the pending events are written as sorted
// (time, key) pairs plus the slot-addressed bodies and the free-slot stack
// (LIFO order matters: slot reuse feeds the `seq`-keyed event order). The
// L1 busy set, the partition due cycles, the MSHR total and the response
// wheel are derived, and rebuilt at restore.
// ---------------------------------------------------------------------------

use simt_snap::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

snap_enum!(LockRole, "lock role" { 0 => None {}, 1 => Acquire {}, 2 => Release {} });

/// A queued lane op is unserved, so `old` (0 until served) is not on the
/// wire: seven fields, and `old` decodes as 0.
impl Snap for LaneAtomic {
    const MIN_BYTES: usize = u8::MIN_BYTES
        + Addr::MIN_BYTES
        + AtomOp::MIN_BYTES
        + 2 * u32::MIN_BYTES
        + LockRole::MIN_BYTES
        + u64::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        self.lane.save(w);
        self.addr.save(w);
        self.op.save(w);
        self.a.save(w);
        self.b.save(w);
        self.role.save(w);
        self.holder.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<LaneAtomic, SnapshotError> {
        Ok(LaneAtomic {
            lane: Snap::load(r)?,
            addr: Snap::load(r)?,
            op: Snap::load(r)?,
            a: Snap::load(r)?,
            b: Snap::load(r)?,
            old: 0,
            role: Snap::load(r)?,
            holder: Snap::load(r)?,
        })
    }
}

impl Snap for LaneResults {
    const MIN_BYTES: usize = usize::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.0.len());
        for op in &self.0 {
            (op.lane, op.old).save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<LaneResults, SnapshotError> {
        let n = r.len(<(u8, u32)>::MIN_BYTES)?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let (lane, old): (u8, u32) = Snap::load(r)?;
            ops.push(LaneAtomic {
                old,
                ..LaneAtomic::new(lane, 0, AtomOp::Cas, 0, 0)
            });
        }
        Ok(LaneResults(ops))
    }
}
snap_enum!(ReqKind, "request kind" {
    0 => Load { bypass_l1: bool },
    1 => Store {},
    2 => Atomic { ops: Vec<LaneAtomic> },
});
snap_struct!(MemRequest {
    kind: ReqKind,
    line: Addr,
    tag: u64,
    sync: bool,
    sole: bool
});
snap_struct!(PartReq {
    sm: usize,
    req: MemRequest,
    l1_fill: bool,
    retries: u32
});
snap_enum!(Event, "event body" {
    0 => Free {},
    1 => L1Fill { sm: usize, line: Addr },
    2 => Complete { sm: usize, tag: u64, atomic_results: LaneResults },
});
snap_struct!(L1 { cache: Cache, mshr: Mshr, inq: VecDeque<(u64, MemRequest)> });
snap_struct!(Partition {
    cache: Cache,
    inq: VecDeque<(u64, PartReq)>,
    dramq: VecDeque<(u64, Option<PartReq>)>,
    dram_next_free: u64,
    port_free: u64,
});

// Everything between the event keys and the chaos stream, in wire order.
// Probe tables serialize their layout verbatim (slot order is the iteration
// order), so a restored table is bit-identical.
snap_struct!(state MemorySystem {
    event_bodies: Vec<Event>,
    free_slots: Vec<usize>,
    seq: u64,
    stats: MemStats,
    lock_owners: ProbeMap<u64>,
    parked: ProbeMap<VecDeque<PartReq>>,
    blocking_locks: bool,
});

impl MemorySystem {
    /// Serialize complete dynamic state for a checkpoint.
    pub fn save_snap(&self, w: &mut SnapWriter) {
        self.gmem.save(w);
        self.l1s.save(w);
        self.parts.save(w);
        // Pending events: unique (time, seq|slot) keys make pop order a
        // pure function of the key set, so a sorted encoding restores
        // exactly.
        self.events.sorted_keys().save(w);
        self.save_fields(w);
        self.chaos.save(w);
    }

    /// Decode state written by [`MemorySystem::save_snap`] into a freshly
    /// constructed system with this one's config and SM count, validate it
    /// against that config and against `now`, the cycle the restored run
    /// simulates next (every pending event is due from it on, within the
    /// response wheel's span), and return it. `self` is never touched, so
    /// a malformed body cannot leave partially mutated state behind; the
    /// caller swaps the result in once everything else about the snapshot
    /// has checked out.
    pub fn load_snap(
        &self,
        r: &mut SnapReader<'_>,
        now: u64,
    ) -> Result<MemorySystem, SnapshotError> {
        let num_sms = self.l1s.len();
        let mut fresh = MemorySystem::new(self.cfg.clone(), num_sms);
        fresh.gmem = Snap::load(r)?;
        fresh.l1s = Snap::load(r)?;
        fresh.parts = Snap::load(r)?;
        let keys: Vec<(u64, u64)> = Snap::load(r)?;
        fresh.load_fields(r)?;
        fresh.chaos.restore(r)?;

        // The bytes are well-formed; now prove the values can run. Every
        // SM index must exist, every structure must have the shape the
        // config builds, and the event tables must agree with each other.
        let gmem = &fresh.gmem;
        // Atomics execute against global memory with unchecked accesses (a
        // live run can only produce valid addresses), so a restored address
        // must be re-validated here or a corrupted snapshot would panic
        // mid-simulation later. Likewise a request has one to 32 lane ops
        // (the blocking-lock path reads the first) and a response at most
        // 32 results, each for a lane of the warp (the SM writes the
        // lane's register).
        let check_lanes = |what: &str, ops: &[LaneAtomic]| {
            if ops.len() > WARP_LANES {
                return Err(SnapshotError::malformed(format!(
                    "atomic {what} with {} lanes",
                    ops.len()
                )));
            }
            match ops.iter().find(|op| usize::from(op.lane) >= WARP_LANES) {
                Some(op) => Err(SnapshotError::malformed(format!(
                    "atomic {what} for lane {}",
                    op.lane
                ))),
                None => Ok(()),
            }
        };
        let check_req = |req: &MemRequest| match &req.kind {
            ReqKind::Atomic { ops } => {
                if ops.is_empty() {
                    return Err(SnapshotError::malformed("atomic request with 0 lanes"));
                }
                check_lanes("request", ops)?;
                ops.iter().try_for_each(|op| {
                    gmem.check_addr(op.addr).map_err(|_| {
                        SnapshotError::malformed(format!(
                            "atomic address {:#x} outside restored memory",
                            op.addr
                        ))
                    })
                })
            }
            _ => Ok(()),
        };
        let check_preq = |p: &PartReq| {
            if p.sm >= num_sms {
                return Err(SnapshotError::malformed(format!(
                    "partition request sm {}",
                    p.sm
                )));
            }
            check_req(&p.req)
        };
        for (what, got, want) in [
            ("L1s", fresh.l1s.len(), num_sms),
            ("partitions", fresh.parts.len(), self.parts.len()),
        ] {
            if got != want {
                return Err(SnapshotError::malformed(format!(
                    "snapshot has {got} {what}, config has {want}"
                )));
            }
        }
        for (l1, configured) in fresh.l1s.iter_mut().zip(&self.l1s) {
            l1.cache.check_geometry(&configured.cache)?;
            l1.mshr.restore_capacity(self.cfg.l1_mshrs)?;
            l1.inq.iter().try_for_each(|(_, req)| check_req(req))?;
        }
        for (p, configured) in fresh.parts.iter().zip(&self.parts) {
            p.cache.check_geometry(&configured.cache)?;
            p.inq.iter().try_for_each(|(_, p)| check_preq(p))?;
            p.dramq
                .iter()
                .filter_map(|(_, p)| p.as_ref())
                .try_for_each(check_preq)?;
        }
        fresh.parked.values().flatten().try_for_each(check_preq)?;
        for body in &fresh.event_bodies {
            if let Event::L1Fill { sm, .. } | Event::Complete { sm, .. } = body {
                if *sm >= num_sms {
                    return Err(SnapshotError::malformed(format!("event for sm {sm}")));
                }
            }
            if let Event::Complete { atomic_results, .. } = body {
                check_lanes("response", &atomic_results.0)?;
            }
        }
        // Each body slot is scheduled, or free, at most once: the wheel
        // threads its FIFOs through the slots.
        let vacant = |slot: usize| matches!(fresh.event_bodies.get(slot), Some(Event::Free));
        let mut named = vec![false; fresh.event_bodies.len()];
        for &(_, key) in &keys {
            let slot = body_slot(key);
            if slot >= fresh.event_bodies.len() || vacant(slot) {
                return Err(SnapshotError::malformed(format!(
                    "event key {key:#x} (slot {slot}) has no live body"
                )));
            }
            if std::mem::replace(&mut named[slot], true) {
                return Err(SnapshotError::malformed(format!(
                    "event slot {slot} is scheduled twice"
                )));
            }
        }
        for &slot in &fresh.free_slots {
            if !vacant(slot) {
                return Err(SnapshotError::malformed(format!(
                    "free slot {slot} is live"
                )));
            }
            if std::mem::replace(&mut named[slot], true) {
                return Err(SnapshotError::malformed(format!(
                    "free slot {slot} is listed twice"
                )));
            }
        }
        let slots = fresh.events.slots() as u64;
        if let Some(&(at, _)) = keys.iter().find(|&&(at, _)| at < now || at - now >= slots) {
            return Err(SnapshotError::malformed(format!(
                "an event due at cycle {at} is outside the {slots}-slot response wheel from \
                 the restored cycle {now}"
            )));
        }
        for (at, key) in keys {
            fresh.events.push(at, key);
        }
        for (sm, l1) in fresh.l1s.iter().enumerate() {
            if !l1.inq.is_empty() {
                fresh.busy_l1s.insert(sm);
            }
            fresh.mshr_lines += l1.mshr.in_flight();
        }
        fresh.part_due = fresh.parts.iter().map(Partition::due).collect();
        fresh.parts_due = fresh.part_due.iter().copied().min().unwrap_or(u64::MAX);
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_laws_for_every_wire_type() {
        use simt_snap::assert_snap_laws as laws;
        let mut op = LaneAtomic::new(3, 0x80, AtomOp::Cas, 0, 1);
        op.role = LockRole::Acquire;
        let release = LaneAtomic {
            role: LockRole::Release,
            ..LaneAtomic::new(0, 0, AtomOp::Or, 0, 0)
        };
        let reqs = [
            MemRequest::new(ReqKind::Store, 0, 0),
            MemRequest::new(ReqKind::Load { bypass_l1: true }, 0x100, 1),
            MemRequest::new(
                ReqKind::Atomic {
                    ops: vec![op, release],
                },
                0x80,
                9,
            )
            .sync(),
        ];
        let preq = |i: usize| PartReq {
            sm: 1,
            req: reqs[i].clone(),
            l1_fill: true,
            retries: 2,
        };
        reqs.iter().for_each(|req| drop(laws(req)));
        laws(&preq(0));
        laws(&Event::Free);
        laws(&Event::L1Fill { sm: 1, line: 0x80 });
        let served = LaneResults(vec![LaneAtomic { old: 1, ..op }]);
        laws(&Event::Complete {
            sm: 0,
            tag: 7,
            atomic_results: served,
        });
        let mut l1 = L1 {
            cache: Cache::new(256, 2),
            mshr: Mshr::new(2),
            inq: VecDeque::new(),
        };
        laws(&l1);
        l1.mshr.record(0x80, 1);
        l1.inq.push_back((5, reqs[1].clone()));
        laws(&l1);
        let mut part = MemorySystem::new(MemConfig::default(), 1).parts.remove(0);
        part.cache = Cache::new(256, 2);
        laws(&part);
        part.inq.push_back((5, preq(2)));
        part.dramq.extend([(6, None), (7, Some(preq(1)))]);
        laws(&part);
    }

    /// A served lane op fills `LaneAtomic`'s padding, and its `old` is not
    /// on the wire: a queued request is unserved.
    #[test]
    fn lane_atomic_stays_32_bytes_and_old_decodes_as_zero() {
        assert_eq!(std::mem::size_of::<LaneAtomic>(), 32);
        let served = LaneAtomic {
            old: 7,
            ..LaneAtomic::new(5, 0x40, AtomOp::Add, 1, 0)
        };
        let bytes = simt_snap::assert_snap_laws(&served);
        let back = LaneAtomic::load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, LaneAtomic { old: 0, ..served });
    }

    /// A response's results are on the wire exactly as the
    /// `Vec<(u8, u32)>` of `(lane, old)` pairs they replaced.
    #[test]
    fn response_results_encode_as_lane_old_pairs() {
        let pairs: Vec<(u8, u32)> = vec![(0, 1), (3, 0), (31, u32::MAX)];
        let ops = pairs.iter().map(|&(lane, old)| LaneAtomic {
            old,
            role: LockRole::Acquire,
            holder: 9,
            ..LaneAtomic::new(lane, 0x80, AtomOp::Cas, 0, 1)
        });
        let results = LaneResults(ops.collect());
        assert_eq!(simt_snap::encode(&results), simt_snap::encode(&pairs));
        simt_snap::assert_snap_laws(&results);
        assert_eq!(
            simt_snap::encode(&LaneResults(Vec::new())),
            simt_snap::encode(&Vec::<(u8, u32)>::new())
        );
    }

    /// Completions are equal when an SM could not tell them apart.
    #[test]
    fn completion_equality_ignores_request_side_fields() {
        let op = LaneAtomic {
            old: 1,
            ..LaneAtomic::new(2, 0x80, AtomOp::Cas, 0, 1)
        };
        let done = |ops: Vec<LaneAtomic>| MemCompletion {
            sm: 1,
            tag: 4,
            atomic_results: ops,
        };
        let restored = LaneAtomic {
            old: 1,
            ..LaneAtomic::new(2, 0, AtomOp::Add, 9, 9)
        };
        assert_eq!(
            done(vec![op]),
            done(vec![LaneAtomic {
                holder: 3,
                ..restored
            }])
        );
        assert_ne!(done(vec![op]), done(vec![LaneAtomic { old: 0, ..op }]));
        assert_ne!(done(vec![op]), done(vec![LaneAtomic { lane: 3, ..op }]));
        assert_ne!(done(vec![op]), done(vec![op, op]));
        assert_ne!(
            done(vec![op]),
            MemCompletion {
                tag: 5,
                ..done(vec![op])
            }
        );
        assert_ne!(
            done(vec![op]),
            MemCompletion {
                sm: 0,
                ..done(vec![op])
            }
        );
    }

    /// `lane_buf` covers every request size; a recycled buffer is handed
    /// out again, empty, to a request of its class; spares are not state.
    #[test]
    fn lane_buffers_are_recycled_by_class() {
        let mut mem = new_mem();
        for n in 1..=32 {
            let buf = mem.lane_buf(n);
            assert!(buf.is_empty() && buf.capacity() >= n, "{n} lanes");
        }
        let fresh_body = {
            let mut w = SnapWriter::new();
            mem.save_snap(&mut w);
            w.into_bytes()
        };
        let mut buf = mem.lane_buf(5);
        buf.push(LaneAtomic::new(0, 0, AtomOp::Add, 1, 0));
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        mem.recycle(buf);
        mem.recycle(Vec::new());
        assert_eq!(mem.spare_lanes.iter().map(Vec::len).sum::<usize>(), 1);
        let mut w = SnapWriter::new();
        mem.save_snap(&mut w);
        let body = w.into_bytes();
        assert_eq!(body, fresh_body, "spares are not encoded");
        let restored = mem.load_snap(&mut SnapReader::new(&body), 0).unwrap();
        assert!(
            restored.spare_lanes.iter().all(Vec::is_empty),
            "no spares after restore"
        );
        assert_eq!(mem.lane_buf(4).capacity(), 4, "another class is untouched");
        let again = mem.lane_buf(8);
        assert_eq!(
            (again.as_ptr(), again.capacity()),
            (ptr, cap),
            "the spare is reused"
        );
        assert!(again.is_empty());
        // A restored response's exact-size buffer joins the largest class
        // it covers.
        mem.recycle(Vec::with_capacity(6));
        assert_eq!(mem.spare_lanes[1].len(), 1);
    }

    /// A checksum-valid body that encodes an atomic request with no lane
    /// op, or more than a warp's, a response with more than a warp's
    /// results, or a lane outside the warp, is refused at restore: the
    /// blocking-lock path reads a request's first op, and the SM writes
    /// each result into its lane's register. One hand-crafted body per
    /// case.
    #[test]
    fn impossible_atomic_lanes_are_refused_at_restore() {
        let lanes = |n: u8| (0..n).map(|l| LaneAtomic::new(l, 4 * u64::from(l), AtomOp::Add, 1, 0));
        let request = |ops: Vec<LaneAtomic>| {
            let mut mem = new_mem();
            let req = MemRequest::new(ReqKind::Atomic { ops }, 0, 1);
            mem.queue_at(
                0,
                3,
                PartReq {
                    sm: 0,
                    req,
                    l1_fill: false,
                    retries: 0,
                },
            );
            mem
        };
        let response = |ops: Vec<LaneAtomic>| {
            let mut mem = new_mem();
            mem.schedule(
                3,
                Event::Complete {
                    sm: 0,
                    tag: 1,
                    atomic_results: LaneResults(ops),
                },
            );
            mem
        };
        let restore = |mem: &MemorySystem| {
            let mut w = SnapWriter::new();
            mem.save_snap(&mut w);
            let body = w.into_bytes();
            new_mem()
                .load_snap(&mut SnapReader::new(&body), 0)
                .map(drop)
        };
        let lane_32 = || {
            lanes(32)
                .map(|op| LaneAtomic {
                    lane: op.lane + 1,
                    ..op
                })
                .collect()
        };
        restore(&request(lanes(32).collect())).expect("a full warp's request restores");
        restore(&response(lanes(32).collect())).expect("a full warp's response restores");
        restore(&response(Vec::new())).expect("a load's response restores");
        let cases: [(&str, MemorySystem); 5] = [
            ("atomic request with 0 lanes", request(Vec::new())),
            ("atomic request with 33 lanes", request(lanes(33).collect())),
            ("atomic request for lane 32", request(lane_32())),
            (
                "atomic response with 33 lanes",
                response(lanes(33).collect()),
            ),
            ("atomic response for lane 32", response(lane_32())),
        ];
        for (what, mem) in cases {
            match restore(&mem) {
                Err(SnapshotError::Malformed { what: msg }) => {
                    assert!(msg.contains(what), "{what}: unhelpful message: {msg}")
                }
                other => panic!("{what}: expected a Malformed error, got {other:?}"),
            }
        }
    }

    /// Advance `mem` one cycle; the completions that fire in it.
    fn cycle(mem: &mut MemorySystem, now: u64) -> Vec<MemCompletion> {
        let mut done = Vec::new();
        mem.cycle_into(now, &mut done);
        done
    }

    fn run_until(mem: &mut MemorySystem, mut now: u64, horizon: u64) -> (u64, Vec<MemCompletion>) {
        let mut all = Vec::new();
        while now < horizon {
            let done = cycle(mem, now);
            if !done.is_empty() {
                return (now, done);
            }
            all.extend(done);
            now += 1;
        }
        (now, all)
    }

    fn new_mem() -> MemorySystem {
        let mut mem = MemorySystem::new(MemConfig::default(), 2);
        let base = mem.gmem_mut().alloc(1024);
        assert_eq!(base, 0);
        mem
    }

    #[test]
    fn cold_load_miss_then_hit() {
        let mut mem = new_mem();
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1),
            0,
        );
        let (t_miss, done) = run_until(&mut mem, 0, 100_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        let cfg = MemConfig::default();
        // Miss path: icnt + L2 (miss→DRAM) + icnt at least.
        assert!(t_miss >= cfg.icnt_latency + cfg.dram_latency);

        // Second load to the same line: L1 hit, much faster.
        let start = t_miss + 1;
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 4, 2),
            start,
        );
        let (t_hit, done) = run_until(&mut mem, start, start + 100_000);
        assert_eq!(done[0].tag, 2);
        assert_eq!(t_hit - start, cfg.l1_hit_latency);
        assert!(t_hit - start < t_miss);
        assert_eq!(mem.stats().l1_hits, 1);
        assert_eq!(mem.stats().l1_misses, 1);
    }

    /// `cycle_into` appends to — never clears — the caller's sink.
    #[test]
    fn cycle_into_appends_to_the_sink() {
        let mut mem = new_mem();
        for (i, addr) in [0u64, 8, 256, 512].iter().enumerate() {
            mem.enqueue(
                i % 2,
                MemRequest::new(ReqKind::Load { bypass_l1: false }, *addr, i as u64 + 1),
                0,
            );
        }
        let mut sink = vec![MemCompletion {
            sm: 9,
            tag: 999,
            atomic_results: Vec::new(),
        }];
        for now in 0..100_000u64 {
            mem.cycle_into(now, &mut sink);
            if sink.len() == 5 {
                break;
            }
        }
        assert_eq!(
            sink[0].tag, 999,
            "sink contents are appended to, not cleared"
        );
        let mut tags: Vec<u64> = sink[1..].iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, [1, 2, 3, 4], "all requests completed");
        assert!(mem.quiescent());
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut mem = new_mem();
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1),
            0,
        );
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 8, 2),
            0,
        );
        let mut now = 0;
        let mut tags = Vec::new();
        while tags.len() < 2 && now < 100_000 {
            tags.extend(cycle(&mut mem, now).into_iter().map(|c| c.tag));
            now += 1;
        }
        assert_eq!(tags, vec![1, 2], "both complete on the single fill");
        assert_eq!(mem.stats().dram_reads, 1, "only one DRAM read");
    }

    #[test]
    fn volatile_load_bypasses_l1() {
        let mut mem = new_mem();
        // Warm the L1.
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1),
            0,
        );
        let (t1, _) = run_until(&mut mem, 0, 100_000);
        let l1_accesses = mem.stats().l1_accesses;
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: true }, 0, 2),
            t1 + 1,
        );
        let (_, done) = run_until(&mut mem, t1 + 1, t1 + 100_000);
        assert_eq!(done[0].tag, 2);
        assert_eq!(mem.stats().l1_accesses, l1_accesses, "L1 untouched");
        assert!(mem.stats().l2_accesses >= 2);
    }

    #[test]
    fn atomic_applies_at_service_in_lane_order() {
        let mut mem = new_mem();
        mem.gmem_mut().write_u32(0, 0);
        // Two lanes CAS the same mutex: exactly one wins.
        let ops = vec![
            LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1),
            LaneAtomic::new(1, 0, AtomOp::Cas, 0, 1),
        ];
        mem.enqueue(0, MemRequest::new(ReqKind::Atomic { ops }, 0, 9), 0);
        let (_, done) = run_until(&mut mem, 0, 100_000);
        let seen: Vec<_> = done[0]
            .atomic_results
            .iter()
            .map(|op| (op.lane, op.old))
            .collect();
        assert_eq!(seen, [(0, 0), (1, 1)]);
        assert_eq!(mem.gmem().read_u32(0), 1);
        assert_eq!(mem.stats().atomic_transactions, 1);
        assert_eq!(mem.stats().atomic_lane_ops, 2);
    }

    #[test]
    fn two_warps_cas_serialize_by_queue_order() {
        let mut mem = new_mem();
        // SM0 and SM1 both try to take the lock at cycle 0.
        for (sm, tag) in [(0usize, 10u64), (1, 11)] {
            let ops = vec![LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1)];
            mem.enqueue(sm, MemRequest::new(ReqKind::Atomic { ops }, 0, tag), 0);
        }
        let mut now = 0;
        let mut got = Vec::new();
        while got.len() < 2 && now < 100_000 {
            got.extend(cycle(&mut mem, now));
            now += 1;
        }
        let winners: Vec<_> = got
            .iter()
            .filter(|c| c.atomic_results[0].old == 0)
            .collect();
        assert_eq!(winners.len(), 1, "exactly one CAS wins the inter-SM race");
        assert_eq!(mem.gmem().read_u32(0), 1);
    }

    #[test]
    fn store_completes_and_consumes_dram_bandwidth() {
        let mut mem = new_mem();
        mem.enqueue(0, MemRequest::new(ReqKind::Store, 0, 5), 0);
        let (_, done) = run_until(&mut mem, 0, 100_000);
        assert_eq!(done[0].tag, 5);
        // Drain the fire-and-forget DRAM write.
        let mut now = 0;
        while !mem.quiescent() && now < 100_000 {
            cycle(&mut mem, now);
            now += 1;
        }
        assert_eq!(mem.stats().dram_writes, 1);
    }

    #[test]
    fn dram_bandwidth_limits_throughput() {
        let cfg = MemConfig {
            l2_partitions: 1,
            ..MemConfig::default()
        };
        let interval = cfg.dram_interval;
        let mut mem = MemorySystem::new(cfg, 1);
        mem.gmem_mut().alloc(100_000);
        // 16 loads to distinct lines, all missing L2, same partition.
        for i in 0..16u64 {
            mem.enqueue(
                0,
                MemRequest::new(ReqKind::Load { bypass_l1: true }, i * LINE_BYTES, i),
                0,
            );
        }
        let mut now = 0;
        let mut times = Vec::new();
        while times.len() < 16 && now < 1_000_000 {
            for c in cycle(&mut mem, now) {
                times.push((now, c.tag));
            }
            now += 1;
        }
        assert_eq!(times.len(), 16);
        // Completions must be spaced by at least the DRAM interval.
        for w in times.windows(2) {
            assert!(w[1].0 - w[0].0 >= interval, "{:?}", times);
        }
    }

    #[test]
    fn sync_transactions_counted() {
        let mut mem = new_mem();
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1).sync(),
            0,
        );
        mem.enqueue(0, MemRequest::new(ReqKind::Store, 256, 2), 0);
        assert_eq!(mem.stats().total_transactions, 2);
        assert_eq!(mem.stats().sync_transactions, 1);
    }

    #[test]
    fn lock_outcome_classification() {
        let mut mem = new_mem();
        let acquire = |holder: u64| {
            let mut op = LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1);
            op.role = LockRole::Acquire;
            op.holder = holder;
            op
        };
        let release = |holder: u64| {
            let mut op = LaneAtomic::new(0, 0, AtomOp::Exch, 0, 0);
            op.role = LockRole::Release;
            op.holder = holder;
            op
        };
        let run = |mem: &mut MemorySystem, start: u64| -> u64 {
            let mut now = start;
            while now < start + 100_000 {
                if !cycle(mem, now).is_empty() {
                    return now + 1;
                }
                now += 1;
            }
            panic!("no completion");
        };
        // Warp A acquires (success).
        mem.enqueue(
            0,
            MemRequest::new(
                ReqKind::Atomic {
                    ops: vec![acquire(1)],
                },
                0,
                1,
            ),
            0,
        );
        let t = run(&mut mem, 0);
        // Warp A retries (intra-warp fail), warp B tries (inter-warp fail).
        mem.enqueue(
            0,
            MemRequest::new(
                ReqKind::Atomic {
                    ops: vec![acquire(1)],
                },
                0,
                2,
            ),
            t,
        );
        let t = run(&mut mem, t);
        mem.enqueue(
            0,
            MemRequest::new(
                ReqKind::Atomic {
                    ops: vec![acquire(2)],
                },
                0,
                3,
            ),
            t,
        );
        let t = run(&mut mem, t);
        // A releases; B acquires (success).
        mem.enqueue(
            0,
            MemRequest::new(
                ReqKind::Atomic {
                    ops: vec![release(1)],
                },
                0,
                4,
            ),
            t,
        );
        let t = run(&mut mem, t);
        mem.enqueue(
            0,
            MemRequest::new(
                ReqKind::Atomic {
                    ops: vec![acquire(2)],
                },
                0,
                5,
            ),
            t,
        );
        run(&mut mem, t);
        let s = mem.stats();
        assert_eq!(s.lock_success, 2);
        assert_eq!(s.lock_intra_fail, 1);
        assert_eq!(s.lock_inter_fail, 1);
    }

    #[test]
    fn blocking_locks_park_and_wake_in_order() {
        let mut mem = new_mem();
        mem.set_blocking_locks(true);
        let acquire = |holder: u64, tag: u64| {
            let mut op = LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1);
            op.role = LockRole::Acquire;
            op.holder = holder;
            MemRequest::new(ReqKind::Atomic { ops: vec![op] }, 0, tag)
        };
        let release = |holder: u64, tag: u64| {
            let mut op = LaneAtomic::new(0, 0, AtomOp::Exch, 0, 0);
            op.role = LockRole::Release;
            op.holder = holder;
            MemRequest::new(ReqKind::Atomic { ops: vec![op] }, 0, tag)
        };
        // Warp 1 takes the lock; warps 2 and 3 park (in that order).
        mem.enqueue(0, acquire(1, 10), 0);
        mem.enqueue(0, acquire(2, 20), 1);
        mem.enqueue(0, acquire(3, 30), 2);
        let mut done: Vec<u64> = Vec::new();
        let mut now = 0;
        while done.is_empty() && now < 100_000 {
            done.extend(cycle(&mut mem, now).into_iter().map(|c| c.tag));
            now += 1;
        }
        assert_eq!(done, vec![10], "only the winner completes");
        assert_eq!(
            mem.parked_requests(),
            2,
            "the losers are parked, not spinning"
        );
        // Release: warp 2 wakes and completes with the lock.
        mem.enqueue(0, release(1, 11), now);
        while done.len() < 3 && now < 100_000 {
            done.extend(cycle(&mut mem, now).into_iter().map(|c| c.tag));
            now += 1;
        }
        assert_eq!(done, vec![10, 11, 20], "FIFO hand-off to warp 2");
        assert_eq!(mem.parked_requests(), 1);
        assert_eq!(mem.stats().lock_inter_fail, 0, "no spin failures at all");
        // Warp 2 releases; warp 3 gets it.
        mem.enqueue(0, release(2, 21), now);
        while done.len() < 5 && now < 200_000 {
            done.extend(cycle(&mut mem, now).into_iter().map(|c| c.tag));
            now += 1;
        }
        assert_eq!(done, vec![10, 11, 20, 21, 30]);
        assert_eq!(mem.parked_requests(), 0);
        assert_eq!(mem.stats().lock_success, 3);
    }

    #[test]
    fn blocking_locks_nack_non_sole_requests() {
        let mut mem = new_mem();
        mem.set_blocking_locks(true);
        // Take the lock.
        let mut op = LaneAtomic::new(0, 0, AtomOp::Cas, 0, 1);
        op.role = LockRole::Acquire;
        op.holder = 1;
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Atomic { ops: vec![op] }, 0, 1),
            0,
        );
        let mut now = 0;
        while cycle(&mut mem, now).is_empty() && now < 100_000 {
            now += 1;
        }
        // A second acquire marked non-sole must fail normally (spin), not park.
        let mut op2 = op;
        op2.holder = 2;
        let mut req = MemRequest::new(ReqKind::Atomic { ops: vec![op2] }, 0, 2);
        req.sole = false;
        mem.enqueue(0, req, now);
        let mut got = Vec::new();
        while got.is_empty() && now < 200_000 {
            got.extend(cycle(&mut mem, now));
            now += 1;
        }
        assert_eq!(got[0].tag, 2, "non-sole request completes with a failure");
        assert_eq!(
            got[0].atomic_results[0].old, 1,
            "CAS observed the held lock"
        );
        assert_eq!(mem.parked_requests(), 0);
        assert_eq!(mem.stats().lock_inter_fail, 1);
    }

    #[test]
    fn chaos_conserves_requests_and_results() {
        use crate::ChaosConfig;
        // Same request mix, chaos off vs. aggressive chaos: every request
        // still completes exactly once and the final memory state (the
        // serialized atomic counter) is identical.
        let run = |chaos: ChaosConfig| -> (Vec<u64>, u32, u64) {
            let cfg = MemConfig {
                chaos,
                ..MemConfig::default()
            };
            let mut mem = MemorySystem::new(cfg, 2);
            mem.gmem_mut().alloc(1024);
            let mut tags = Vec::new();
            for i in 0..40u64 {
                let addr = (i % 8) * LINE_BYTES;
                let kind = match i % 3 {
                    0 => ReqKind::Load { bypass_l1: false },
                    1 => ReqKind::Store,
                    _ => ReqKind::Atomic {
                        ops: vec![LaneAtomic::new(0, 0, AtomOp::Add, 1, 0)],
                    },
                };
                mem.enqueue((i % 2) as usize, MemRequest::new(kind, addr, i), i);
                tags.push(i);
            }
            let mut done = Vec::new();
            let mut now = 0;
            while (!mem.quiescent() || done.len() < tags.len()) && now < 500_000 {
                done.extend(cycle(&mut mem, now).into_iter().map(|c| c.tag));
                now += 1;
            }
            done.sort_unstable();
            (done, mem.gmem().read_u32(0), now)
        };
        let (base_done, base_ctr, base_cycles) = run(ChaosConfig::off());
        let (chaos_done, chaos_ctr, chaos_cycles) = run(ChaosConfig::with_level(99, 3));
        assert_eq!(base_done, (0..40).collect::<Vec<u64>>());
        assert_eq!(chaos_done, base_done, "chaos loses/duplicates nothing");
        assert_eq!(chaos_ctr, base_ctr, "architectural state unchanged");
        assert!(chaos_cycles >= base_cycles, "chaos only slows things down");
    }

    #[test]
    fn chaos_runs_are_seed_deterministic() {
        use crate::ChaosConfig;
        let run = |seed: u64| -> (u64, ChaosStats) {
            let cfg = MemConfig {
                chaos: ChaosConfig::with_level(seed, 3),
                ..MemConfig::default()
            };
            let mut mem = MemorySystem::new(cfg, 1);
            mem.gmem_mut().alloc(1024);
            for i in 0..60u64 {
                let kind = if i % 2 == 0 {
                    ReqKind::Load {
                        bypass_l1: i % 4 == 0,
                    }
                } else {
                    ReqKind::Atomic {
                        ops: vec![LaneAtomic::new(0, 4, AtomOp::Add, 1, 0)],
                    }
                };
                mem.enqueue(0, MemRequest::new(kind, (i % 6) * LINE_BYTES, i), i * 3);
            }
            let mut last = 0;
            let mut now = 0;
            let mut ndone = 0;
            while ndone < 60 && now < 500_000 {
                for c in cycle(&mut mem, now) {
                    ndone += 1;
                    let _ = c;
                    last = now;
                }
                now += 1;
            }
            (last, *mem.chaos_stats())
        };
        let a = run(1234);
        let b = run(1234);
        let c = run(5678);
        assert_eq!(a, b, "same seed => bit-identical timing and stats");
        // Different seeds virtually always perturb differently; we only
        // require that chaos actually fired.
        assert!(c.1.latency_injections + c.1.nacks + c.1.atomic_delays > 0);
    }

    #[test]
    fn quiescent_reflects_inflight_work() {
        let mut mem = new_mem();
        assert!(mem.quiescent());
        mem.enqueue(
            0,
            MemRequest::new(ReqKind::Load { bypass_l1: false }, 0, 1),
            0,
        );
        assert!(!mem.quiescent());
        let mut now = 0;
        while !mem.quiescent() && now < 100_000 {
            cycle(&mut mem, now);
            now += 1;
        }
        assert!(mem.quiescent());
    }

    /// Snapshot a system with requests in flight (queues, MSHRs, events,
    /// parked locks, chaos stream all live), restore it into a fresh
    /// instance, and run both to quiescence: every observable — completion
    /// stream, stats, chaos counters, memory image — must be identical.
    #[test]
    fn mid_flight_snapshot_round_trips_bit_exact() {
        let build = || {
            let cfg = MemConfig {
                chaos: crate::ChaosConfig::with_level(42, 2),
                ..MemConfig::default()
            };
            let mut mem = MemorySystem::new(cfg, 2);
            mem.set_blocking_locks(true);
            mem.gmem_mut().alloc(1024);
            mem
        };
        let drive = |mem: &mut MemorySystem, upto: u64| {
            let mut done = Vec::new();
            for now in 0..upto {
                if now % 7 == 0 {
                    let tag = 100 + now;
                    mem.enqueue(
                        (now % 2) as usize,
                        MemRequest::new(
                            ReqKind::Load {
                                bypass_l1: now % 3 == 0,
                            },
                            now * 8,
                            tag,
                        ),
                        now,
                    );
                }
                if now % 11 == 0 {
                    let mut op = LaneAtomic::new(0, 512, AtomOp::Cas, 0, 1);
                    op.role = LockRole::Acquire;
                    op.holder = now;
                    mem.enqueue(
                        0,
                        MemRequest::new(ReqKind::Atomic { ops: vec![op] }, 512, 1_000 + now).sync(),
                        now,
                    );
                }
                mem.cycle_into(now, &mut done);
            }
            done
        };
        let finish = |mem: &mut MemorySystem, from: u64| {
            let mut done = Vec::new();
            let mut now = from;
            while !mem.quiescent() && now < from + 100_000 {
                mem.cycle_into(now, &mut done);
                now += 1;
            }
            done
        };

        // Uninterrupted run.
        let mut a = build();
        let mut a_done = drive(&mut a, 200);
        a_done.extend(finish(&mut a, 200));

        // Same run snapshotted mid-flight and restored into a fresh system.
        let mut b = build();
        let mut b_done = drive(&mut b, 200);
        let mut w = SnapWriter::new();
        b.save_snap(&mut w);
        let body = w.into_bytes();
        let mut c = build();
        let mut r = SnapReader::new(&body);
        c = c.load_snap(&mut r, 200).expect("round trip");
        r.expect_exhausted().expect("full consumption");
        b_done.extend(finish(&mut c, 200));

        assert_eq!(a_done, b_done, "completion streams diverged");
        assert_eq!(a.stats(), c.stats());
        assert_eq!(a.chaos_stats(), c.chaos_stats());
        assert_eq!(a.gmem().first_diff(c.gmem()), None);

        // A second snapshot of the restored system is byte-identical to
        // the original snapshot taken at the same point (canonical form).
        let mut b2 = build();
        drive(&mut b2, 200);
        let mut w2 = SnapWriter::new();
        b2.save_snap(&mut w2);
        let mut c2 = build();
        let body2 = w2.into_bytes();
        let mut r2 = SnapReader::new(&body2);
        c2 = c2.load_snap(&mut r2, 200).unwrap();
        let mut w3 = SnapWriter::new();
        c2.save_snap(&mut w3);
        let mut w4 = SnapWriter::new();
        b2.save_snap(&mut w4);
        assert_eq!(w3.into_bytes(), w4.into_bytes(), "snapshot not canonical");
    }
}
