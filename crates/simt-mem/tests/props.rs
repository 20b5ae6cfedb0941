//! Property-style tests for the memory hierarchy: cache bounds and LRU
//! equivalence against a reference model, coalescer invariants, MSHR
//! bookkeeping, end-to-end request conservation, the response wheel
//! against a reference priority queue, and the system stepped only at its
//! next events against the system stepped every cycle.
//!
//! Uses a local deterministic PRNG rather than an external property-test
//! framework so the suite builds and runs fully offline.

use simt_mem::{
    line_of, AccessOutcome, Cache, ChaosConfig, Coalescer, EventWheel, LaneAtomic, LockRole,
    MemCompletion, MemConfig, MemRequest, MemorySystem, Mshr, ReqKind, LINE_BYTES,
};
use simt_snap::{SnapReader, SnapWriter, SnapshotError};
use std::collections::BTreeSet;

/// Deterministic splitmix64 generator for test-case construction.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// The cache never exceeds its capacity and agrees with a simple reference
/// LRU model on hits and misses.
#[test]
fn cache_matches_reference_lru() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        // 8 lines, 2-way => 4 sets.
        let mut c = Cache::new(8 * LINE_BYTES, 2);
        let sets = 4usize;
        // Reference: per set, a Vec kept in LRU order (front = MRU).
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets];
        let nops = rng.range(1, 300);
        for _ in 0..nops {
            let line_no = rng.range(0, 64);
            let is_fill = rng.flag();
            let addr = line_no * LINE_BYTES;
            let set = (line_no as usize) % sets;
            if is_fill {
                c.fill(addr);
                let s = &mut model[set];
                if let Some(pos) = s.iter().position(|&l| l == line_no) {
                    s.remove(pos);
                } else if s.len() == 2 {
                    s.pop();
                }
                s.insert(0, line_no);
            } else {
                let got = c.access(addr);
                let s = &mut model[set];
                let expect = if let Some(pos) = s.iter().position(|&l| l == line_no) {
                    let v = s.remove(pos);
                    s.insert(0, v);
                    AccessOutcome::Hit
                } else {
                    AccessOutcome::Miss
                };
                assert_eq!(got, expect, "seed {seed} line {line_no}");
            }
            assert!(c.occupancy() <= 8);
        }
    }
}

/// Coalescing covers every input lane exactly once and produces at most
/// one transaction per distinct line.
#[test]
fn coalescer_partitions_lanes() {
    for seed in 0..128 {
        let mut rng = Rng::new(seed);
        // A random (possibly sparse) lane mask; every lane has an address,
        // only the masked ones are accessed.
        let lanes = (rng.next() as u32) | 1 << rng.range(0, 32);
        let addrs: [u64; 32] = std::array::from_fn(|_| rng.range(0, 1 << 16));
        let mut txs = Vec::new();
        Coalescer::coalesce_into(lanes, &addrs, &mut txs);
        // Each accessed lane appears in exactly one transaction, no other does.
        let union: u32 = txs.iter().fold(0, |m, t| m | t.lane_mask);
        let total: u32 = txs.iter().map(|t| t.lane_mask.count_ones()).sum();
        assert_eq!(union, lanes, "seed {seed}");
        assert_eq!(total, lanes.count_ones(), "seed {seed}");
        // Transactions have distinct, line-aligned addresses containing
        // their lanes' addresses.
        for (i, t) in txs.iter().enumerate() {
            assert_eq!(t.line % LINE_BYTES, 0);
            for u in &txs[i + 1..] {
                assert_ne!(t.line, u.line);
            }
        }
        for lane in (0..32).filter(|l| lanes >> l & 1 != 0) {
            let line = line_of(addrs[lane]);
            let t = txs.iter().find(|t| t.line == line).expect("line present");
            assert!(t.lane_mask & (1 << lane) != 0);
        }
    }
}

/// MSHR: fills release exactly the recorded tags, in order, and occupancy
/// tracks distinct lines.
#[test]
fn mshr_releases_what_was_recorded() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let mut m = Mshr::new(8);
        let mut model: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        let nops = rng.range(1, 100);
        for _ in 0..nops {
            let line = rng.range(0, 8) * LINE_BYTES;
            let tag = rng.range(0, 1000);
            if m.pending(line) || m.has_space() {
                m.record(line, tag);
                model.entry(line).or_default().push(tag);
            }
            assert_eq!(m.in_flight(), model.len(), "seed {seed}");
        }
        let lines: Vec<u64> = model.keys().copied().collect();
        for line in lines {
            let mut got = Vec::new();
            m.fill(line, |tag| got.push(tag));
            assert_eq!(got, model.remove(&line).unwrap(), "seed {seed}");
        }
        assert_eq!(m.in_flight(), 0);
    }
}

/// Every enqueued load/store/atomic completes exactly once, regardless of
/// the mix, and the system goes quiescent.
#[test]
fn memory_system_conserves_requests() {
    for seed in 0..24 {
        let mut rng = Rng::new(seed);
        let mut mem = MemorySystem::new(MemConfig::default(), 2);
        mem.gmem_mut().alloc(64 * 32);
        let nreqs = rng.range(1, 60);
        let mut expected: Vec<u64> = Vec::new();
        for i in 0..nreqs {
            let addr = rng.range(0, 64) * LINE_BYTES;
            let tag = i;
            let kind = match rng.range(0, 3) {
                0 => ReqKind::Load { bypass_l1: false },
                1 => ReqKind::Store,
                _ => ReqKind::Atomic {
                    ops: vec![simt_mem::LaneAtomic::new(
                        0,
                        addr,
                        simt_isa::AtomOp::Add,
                        1,
                        0,
                    )],
                },
            };
            let sm = rng.range(0, 2) as usize;
            mem.enqueue(sm, MemRequest::new(kind, addr, tag), 0);
            expected.push(tag);
        }
        let mut done = Vec::new();
        let mut now = 0u64;
        while (!mem.quiescent() || done.len() < expected.len()) && now < 200_000 {
            mem.cycle_into(now, &mut done);
            now += 1;
        }
        let mut completed: Vec<u64> = done.iter().map(|c| c.tag).collect();
        completed.sort_unstable();
        assert_eq!(completed, expected, "seed {seed}");
        assert!(mem.quiescent());
    }
}

/// The response wheel pops what a min-heap of `(time, key)` pairs — the
/// structure it replaced, modelled by an ordered set — would pop, in the
/// same order: event times up to the largest offset a chaotic config
/// allows, many of them on one of the fixed latencies so equal times
/// collide, `seq` wrapping in half the seeds, the clock jumping to the
/// next event as the Skip engine does, `earliest` (what `next_event`
/// reads) checked after every step, and a mid-flight rebuild from the
/// sorted key list a snapshot writes.
#[test]
fn event_wheel_matches_a_reference_priority_queue() {
    let cfg = MemConfig {
        chaos: ChaosConfig::with_level(7, 3),
        ..MemConfig::fermi()
    };
    let max = cfg.max_event_offset();
    let fixed = [
        cfg.l1_hit_latency,
        cfg.l2_hit_latency + cfg.icnt_latency,
        cfg.dram_latency + cfg.icnt_latency,
    ];
    for seed in 0..48 {
        let mut rng = Rng::new(seed);
        let mut wheel = EventWheel::new(max);
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut free: Vec<u64> = (0..96).rev().collect();
        let mut seq: u64 = if seed % 2 == 0 { 0 } else { (1 << 32) - 40 };
        let mut now = rng.range(0, 1 << 40);
        for step in 0..1500 {
            for _ in 0..rng.range(0, 4) {
                let Some(slot) = free.pop() else { break };
                let offset = match rng.range(0, 3) {
                    0 => rng.range(0, max + 1),
                    1 => fixed[rng.range(0, 3) as usize],
                    // An atomic response with chaos jitter on top.
                    _ => fixed[2] + rng.range(1, cfg.chaos.max_atomic_delay + 1),
                };
                seq += 1;
                let key = (seq << 32) | slot;
                wheel.push(now + offset, key);
                model.insert((now + offset, key));
            }
            while let Some(slot) = wheel.pop_due(now) {
                let (at, key) = model.pop_first().expect("model has the event");
                assert!(at <= now, "seed {seed} step {step}: popped early");
                assert_eq!(slot as u64, key & 0xffff_ffff, "seed {seed} step {step}");
                free.push(slot as u64);
            }
            assert!(
                model.first().is_none_or(|&(at, _)| at > now),
                "seed {seed}: left due"
            );
            assert_eq!(wheel.len(), model.len());
            let earliest = model.first().map(|&(at, _)| at);
            assert_eq!(wheel.earliest(), earliest, "seed {seed} step {step}");
            if step == 700 {
                let keys = wheel.sorted_keys();
                assert_eq!(keys, model.iter().copied().collect::<Vec<_>>());
                let mut restored = EventWheel::new(max);
                keys.iter().for_each(|&(at, key)| restored.push(at, key));
                assert_eq!(restored.sorted_keys(), keys);
                wheel = restored;
            }
            now = match (rng.range(0, 2), earliest) {
                (0, Some(at)) => at.max(now + 1),
                _ => now + 1,
            };
        }
    }
}

/// A request script: `(cycle, sm, request)` in cycle order.
fn script(rng: &mut Rng, n: u64) -> Vec<(u64, usize, MemRequest)> {
    let mut at = 0;
    (0..n)
        .map(|tag| {
            at += rng.range(0, 6);
            let addr = rng.range(0, 48) * LINE_BYTES + rng.range(0, 32) * 4;
            let kind = match rng.range(0, 5) {
                0 => ReqKind::Load { bypass_l1: false },
                1 => ReqKind::Load { bypass_l1: true },
                2 => ReqKind::Store,
                _ => {
                    let mut op = LaneAtomic::new(0, addr, simt_isa::AtomOp::Cas, 0, 1);
                    op.role = [LockRole::Acquire, LockRole::Release][rng.range(0, 2) as usize];
                    op.holder = rng.range(0, 4);
                    ReqKind::Atomic { ops: vec![op] }
                }
            };
            (
                at,
                rng.range(0, 2) as usize,
                MemRequest::new(kind, addr, tag),
            )
        })
        .collect()
}

/// Drive `mem` through `script` from cycle `now` (the first `*next`
/// requests already issued) until it reaches cycle `stop` or the script is
/// done and the system quiescent. With `skip`, cycles nothing can happen
/// in are jumped over as the Skip engine does, through `next_event`.
/// Returns the completions with their cycles and the cycle reached.
fn drive(
    mem: &mut MemorySystem,
    script: &[(u64, usize, MemRequest)],
    next: &mut usize,
    mut now: u64,
    stop: u64,
    skip: bool,
) -> (Vec<(u64, MemCompletion)>, u64) {
    let mut trace = Vec::new();
    let mut done = Vec::new();
    while now < stop && (*next < script.len() || !mem.quiescent()) {
        while let Some((_, sm, req)) = script.get(*next).filter(|r| r.0 == now) {
            mem.enqueue(*sm, req.clone(), now);
            *next += 1;
        }
        mem.cycle_into(now, &mut done);
        trace.extend(done.drain(..).map(|c| (now, c)));
        now = if skip {
            let request = script.get(*next).map_or(u64::MAX, |r| r.0);
            mem.next_event(now)
                .unwrap_or(u64::MAX)
                .min(request)
                .max(now + 1)
        } else {
            now + 1
        };
    }
    (trace, now)
}

fn body(mem: &MemorySystem) -> Vec<u8> {
    let mut w = SnapWriter::new();
    mem.save_snap(&mut w);
    w.into_bytes()
}

/// Run `script` on a `build()` stepped every cycle and on one stepped only
/// at the cycles `next_event` names, the second snapshotted at the first
/// cycle it reaches from `split` on and restored into a fresh `build()`:
/// the same completions at the same cycles, byte-identical snapshot
/// bodies at the restore point and at the end, and the same statistics.
/// Returns the finished every-cycle system and its completions, with the
/// cycle of each.
fn assert_jumps_match_every_cycle(
    what: &str,
    build: impl Fn() -> MemorySystem,
    script: &[(u64, usize, MemRequest)],
    split: u64,
) -> (MemorySystem, Vec<(u64, MemCompletion)>) {
    let (mut every, mut jumping) = (build(), build());
    let (mut i_every, mut i_jump) = (0, 0);
    let (mut want, at) = drive(&mut jumping, script, &mut i_jump, 0, split, true);
    let (head, reached) = drive(&mut every, script, &mut i_every, 0, at, false);
    assert_eq!(head, want, "{what}: completions before the snapshot");
    assert_eq!(i_every, i_jump);
    let saved = body(&jumping);
    assert_eq!(saved, body(&every), "{what}: snapshot at cycle {at}");

    let mut r = SnapReader::new(&saved);
    let mut restored = build().load_snap(&mut r, at).expect("restores");
    r.expect_exhausted().unwrap();
    assert_eq!(body(&restored), saved, "{what}: restored body");
    let (tail, _) = drive(&mut restored, script, &mut i_jump, at, u64::MAX, true);
    want.extend(tail);
    let (rest, _) = drive(&mut every, script, &mut i_every, reached, u64::MAX, false);
    let mut got = head;
    got.extend(rest);
    assert_eq!(got, want, "{what}: completions");
    assert_eq!(every.stats(), restored.stats(), "{what}");
    assert_eq!(every.chaos_stats(), restored.chaos_stats(), "{what}");
    assert_eq!(body(&every), body(&restored), "{what}: final bodies");
    (every, got)
}

/// The memory system stepped every cycle, and stepped only at the cycles
/// `next_event` names, snapshotted mid-flight and restored, agree — chaos
/// off, on, and with MSHR squeezes (which forbid jumps), blocking locks on
/// for odd seeds.
#[test]
fn skip_jumps_and_a_mid_flight_restore_match_every_cycle() {
    for seed in 0..24 {
        let mut rng = Rng::new(seed);
        let cfg = MemConfig {
            chaos: ChaosConfig::with_level(seed, (seed % 4) as u8),
            ..MemConfig::fermi()
        };
        let build = || {
            let mut mem = MemorySystem::new(cfg.clone(), 2);
            mem.gmem_mut().alloc(48 * LINE_BYTES);
            mem.set_blocking_locks(seed % 2 == 1);
            mem
        };
        let script = script(&mut rng, 120);
        let split = rng.range(50, 400);
        assert_jumps_match_every_cycle(&format!("seed {seed}"), build, &script, split);
    }
}

/// The same agreement under the traffic that moves partition due cycles
/// from outside a visit: chaos NACKs re-queueing requests behind their
/// partition's head, and blocking-lock waiters a release wakes into
/// another partition. A lock in partition 3 is taken, two acquirers park
/// on it, and two releases — atomics whose request lines lie in
/// partitions 5 and 0 — wake them into a lower and then a higher
/// partition than the one serving the release; the snapshot is taken
/// while both wait (each completes only after the release that wakes
/// it).
#[test]
fn woken_waiters_and_nacks_match_every_cycle() {
    let part_line = |part: u64, k: u64| (6 * k + part) * LINE_BYTES;
    let lock = part_line(3, 8);
    let lock_op = |role: LockRole, holder: u64| {
        let (op, a, b) = match role {
            LockRole::Release => (simt_isa::AtomOp::Exch, 0, 0),
            _ => (simt_isa::AtomOp::Cas, 0, 1),
        };
        let mut op = LaneAtomic::new(0, lock, op, a, b);
        op.role = role;
        op.holder = holder;
        ReqKind::Atomic { ops: vec![op] }
    };
    let mut nacks = 0;
    for seed in 0..16 {
        let mut rng = Rng::new(seed);
        let cfg = MemConfig {
            chaos: ChaosConfig::with_level(seed, 2),
            ..MemConfig::fermi()
        };
        assert_eq!(cfg.l2_partitions, 6);
        let build = || {
            let mut mem = MemorySystem::new(cfg.clone(), 2);
            mem.gmem_mut().alloc(64 * LINE_BYTES);
            mem.set_blocking_locks(true);
            mem
        };
        let mut script = script(&mut rng, 120);
        script.extend([
            (
                0,
                0,
                MemRequest::new(lock_op(LockRole::Acquire, 1), lock, 1_000),
            ),
            (
                5,
                1,
                MemRequest::new(lock_op(LockRole::Acquire, 2), lock, 1_001),
            ),
            (
                6,
                0,
                MemRequest::new(lock_op(LockRole::Acquire, 3), lock, 1_002),
            ),
            (
                500,
                0,
                MemRequest::new(lock_op(LockRole::Release, 1), part_line(5, 8), 1_003),
            ),
            (
                900,
                1,
                MemRequest::new(lock_op(LockRole::Release, 2), part_line(0, 9), 1_004),
            ),
        ]);
        script.sort_by_key(|&(at, ..)| at);
        let split = rng.range(380, 490);
        let what = format!("seed {seed}");
        let (mem, done) = assert_jumps_match_every_cycle(&what, build, &script, split);
        let mut acquired: Vec<u64> = done
            .iter()
            .filter(|(_, c)| (1_000..1_003).contains(&c.tag))
            .map(|&(at, _)| at)
            .collect();
        acquired.sort_unstable();
        // One acquirer wins outright; the others complete only once the
        // first release (served from cycle 540) and then the second (from
        // cycle 940) has woken them.
        assert_eq!(acquired.len(), 3, "{what}");
        assert!(
            acquired[0] < split && acquired[1] > 540 && acquired[2] > 940,
            "{what}: {acquired:?}"
        );
        assert!(mem.stats().lock_success >= 3, "{what}: {:?}", mem.stats());
        nacks += mem.chaos_stats().nacks;
    }
    assert!(nacks > 0, "no request was NACKed");
}

/// A snapshot whose pending events lie further ahead of the restored cycle
/// than the restoring system's response wheel has slots, or before it, is
/// refused: the wheel could not order them.
#[test]
fn events_outside_the_wheel_are_refused() {
    let slow = MemConfig {
        dram_latency: 1000,
        ..MemConfig::fermi()
    };
    let mut mem = MemorySystem::new(slow, 1);
    mem.gmem_mut().alloc(4 * LINE_BYTES);
    // A store completes 80 cycles after the partition serves it; a
    // volatile load's DRAM access a thousand cycles later than that.
    mem.enqueue(0, MemRequest::new(ReqKind::Store, 0, 1), 0);
    mem.enqueue(
        0,
        MemRequest::new(ReqKind::Load { bypass_l1: true }, LINE_BYTES, 2),
        0,
    );
    let mut done = Vec::new();
    for now in 0..60 {
        mem.cycle_into(now, &mut done);
    }
    assert!(done.is_empty());
    let saved = body(&mem);
    let fits = MemorySystem::new(
        MemConfig {
            dram_latency: 1000,
            ..MemConfig::fermi()
        },
        1,
    );
    fits.load_snap(&mut SnapReader::new(&saved), 60)
        .expect("a wheel as wide as the run's");
    let fermi = MemorySystem::new(MemConfig::fermi(), 1);
    for (now, what) in [
        (60, "256-slot response wheel from the restored cycle 60"),
        (90, "due at cycle 80"),
    ] {
        match fits
            .load_snap(&mut SnapReader::new(&saved), now)
            .and(fermi.load_snap(&mut SnapReader::new(&saved), now))
        {
            Err(SnapshotError::Malformed { what: got }) => assert!(got.contains(what), "{got}"),
            other => panic!("expected a malformed snapshot, got {other:?}"),
        }
    }
}
