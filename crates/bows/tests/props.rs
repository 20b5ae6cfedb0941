//! Property-style tests for DDOS and BOWS: detection soundness over
//! synthetic observation streams, hashing bounds, and scheduler-state
//! invariants.
//!
//! Uses a local deterministic PRNG rather than an external property-test
//! framework so the suite builds and runs fully offline.

use bows::{AdaptiveConfig, Bows, Ddos, DdosConfig, DelayMode, HashKind, WarpHistory};
use simt_core::sched::{IssueInfo, SchedCtx, WarpMeta};
use simt_core::{SchedulerPolicy, SpinDetector, WarpSet};

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

    fn word(&mut self) -> u32 {
        self.next() as u32
    }
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

/// Hash outputs always fit the configured width, for both schemes.
#[test]
fn hash_respects_width() {
    let mut rng = Rng::new(1);
    for _ in 0..256 {
        let v = rng.word();
        let bits = rng.range(1, 17) as u8;
        for kind in [HashKind::Xor, HashKind::Modulo] {
            assert!(u32::from(kind.hash(v, bits)) < (1u32 << bits));
        }
    }
}

/// Any strictly periodic setp stream (period <= (l-1)/2) with constant
/// values is eventually classified as spinning.
#[test]
fn periodic_streams_are_detected() {
    for seed in 0..128 {
        let mut rng = Rng::new(seed);
        let period = rng.range(1, 4) as usize;
        let reps = rng.range(4, 20);
        let pcs: Vec<usize> = (0..3).map(|_| rng.range(0, 64) as usize).collect();
        let vals: Vec<u32> = (0..3).map(|_| rng.word()).collect();
        let mut h = WarpHistory::new(HashKind::Xor, 8, 8, 8);
        for _ in 0..reps {
            for i in 0..period {
                h.observe(pcs[i], [vals[i], vals[(i + 1) % period]]);
            }
        }
        // Distinct PCs guarantee a clean period; duplicated PCs in the
        // sample may detect a shorter period — also spinning. Either way,
        // after `reps >= 4` full periods the warp must be spinning.
        assert!(h.spinning(), "seed {seed} period {period} reps {reps}");
    }
}

/// A stream whose value changes every observation is never classified as
/// spinning under XOR hashing (the Figure 7c property).
#[test]
fn changing_values_never_spin() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let pc = rng.range(0, 64) as usize;
        let start = rng.word();
        let n = rng.range(5, 100) as u32;
        let mut h = WarpHistory::new(HashKind::Xor, 8, 8, 8);
        for i in 0..n {
            h.observe(pc, [start.wrapping_add(i), 1000]);
            assert!(!h.spinning(), "seed {seed} iteration {i}");
        }
    }
}

/// DDOS never confirms a forward branch, no matter the stream.
#[test]
fn forward_branches_never_confirmed() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let mut d = Ddos::new(DdosConfig::default(), 8);
        let nevents = rng.range(1, 200);
        for i in 0..nevents {
            let warp = rng.range(0, 8) as usize;
            let pc = rng.range(0, 32) as usize;
            let val = rng.word();
            d.on_setp(i, warp, pc, [val, 0]);
            // Forward branch: target beyond pc.
            d.on_branch(i, warp, pc, pc + 1, true);
        }
        assert!(d.confirmed_sibs().is_empty(), "seed {seed}");
    }
}

/// BOWS invariants under arbitrary event interleavings: issuing always
/// clears the backed-off state; picks stay within the eligible set and
/// prefer a normal warp to a backed-off one; only backed-off warps are
/// vetoed.
#[test]
fn bows_state_machine_consistent() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let m = meta(8);
        let mut b = Bows::new(
            simt_core::BasePolicy::Gto.build(50_000),
            DelayMode::Fixed(100),
        );
        let nevents = rng.range(1, 300);
        for now in 1..=nevents {
            let warp = rng.range(0, 8) as usize;
            let ctx = SchedCtx {
                now,
                meta: &m,
                resident_version: 1,
            };
            match rng.range(0, 3) {
                0 => b.on_sib(&ctx, warp),
                1 => {
                    b.on_issue(&ctx, warp, &IssueInfo::default());
                    let backed_off = b.backed_off();
                    assert!(
                        !backed_off.contains(warp),
                        "issue clears state (seed {seed})"
                    );
                }
                _ => {
                    let vetoed = b.vetoed(now);
                    assert_eq!(vetoed - b.backed_off(), WarpSet::EMPTY, "seed {seed}");
                    let eligible = WarpSet((rng.next() & 0xff) | 1) - vetoed;
                    if !eligible.is_empty() {
                        let w = b.pick(&ctx, eligible).expect("BOWS always picks");
                        assert!(eligible.contains(w), "seed {seed}");
                        let normal = eligible - b.backed_off();
                        assert!(normal.is_empty() || normal.contains(w), "seed {seed}");
                    }
                }
            }
        }
    }
}

/// The adaptive controller's delay limit always stays in [min, max] after
/// any sequence of windows.
#[test]
fn adaptive_limit_always_clamped() {
    for seed in 0..16 {
        let mut rng = Rng::new(seed);
        let acfg = AdaptiveConfig {
            window: 10,
            step: 250,
            frac1: 0.1,
            frac2: 0.8,
            min: 100,
            max: 2000,
        };
        let m = meta(2);
        let mut b = Bows::new(
            simt_core::BasePolicy::Lrr.build(1),
            DelayMode::Adaptive(acfg),
        );
        let mut now = 0u64;
        let windows = rng.range(1, 20);
        for _ in 0..windows {
            let sib = rng.range(0, 500);
            let total = rng.range(0, 500).max(sib);
            for i in 0..total {
                let ctx = SchedCtx {
                    now,
                    meta: &m,
                    resident_version: 1,
                };
                b.on_issue(
                    &ctx,
                    0,
                    &IssueInfo {
                        is_sib: i < sib,
                        ..IssueInfo::default()
                    },
                );
                now += 1;
                let ctx = SchedCtx {
                    now,
                    meta: &m,
                    resident_version: 1,
                };
                b.end_cycle(&ctx, WarpSet(0b11), Some(0));
                let limit = b.current_delay_limit();
                assert!((100..=2000).contains(&limit), "limit {limit} (seed {seed})");
            }
        }
    }
}
