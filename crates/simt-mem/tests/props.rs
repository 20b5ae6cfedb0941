//! Property-style tests for the memory hierarchy: cache bounds and LRU
//! equivalence against a reference model, coalescer invariants, MSHR
//! bookkeeping, and end-to-end request conservation.
//!
//! Uses a local deterministic PRNG rather than an external property-test
//! framework so the suite builds and runs fully offline.

use simt_mem::{
    line_of, AccessOutcome, Cache, Coalescer, MemConfig, MemRequest, MemorySystem, Mshr, ReqKind,
    LINE_BYTES,
};

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
            let got = m.fill(line);
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
                    ops: vec![simt_mem::LaneAtomic::new(0, addr, simt_isa::AtomOp::Add, 1, 0)],
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
