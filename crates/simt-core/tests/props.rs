//! Property-style tests for the core: SIMT-stack invariants under random
//! divergence, scoreboard consistency, and scheduler-policy sanity.
//!
//! Uses a local deterministic PRNG rather than an external property-test
//! framework so the suite builds and runs fully offline.

use simt_core::sched::{BasePolicy, SchedCtx, WarpMeta, WarpSet};
use simt_core::{Scoreboard, SimtStack};
use simt_isa::{DecodedKernel, Inst, Kernel, Op, Reg, Ty};

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

    fn mask(&mut self) -> u32 {
        self.next() as u32
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// Random walk over the SIMT stack: branch with arbitrary masks/targets,
/// advance toward reconvergence. Invariants: the active mask is always a
/// subset of the initial mask; entries partition cleanly; depth recovers.
#[test]
fn simt_stack_mask_conservation() {
    for seed in 0..128 {
        let mut rng = Rng::new(seed);
        let init = rng.mask() | 1; // non-empty
        let mut s = SimtStack::new(init, 0);
        let steps = rng.range(1, 40);
        for _ in 0..steps {
            if s.is_empty() {
                break;
            }
            let active = s.active_mask();
            assert!(active != 0);
            assert_eq!(active & !init, 0, "never gains threads (seed {seed})");
            // The union of entry masks never exceeds the base mask.
            let total: u32 = s.entries().iter().fold(0, |m, e| m | e.mask);
            assert_eq!(total & !init, 0, "seed {seed}");
            let taken = rng.mask() & active;
            let pc_seed = rng.range(0, 64) as usize;
            let target = pc_seed % 64;
            let fallthrough = (pc_seed + 1) % 64;
            let rpc = 100 + (pc_seed % 8); // distinct from targets
            s.branch(taken, target, fallthrough, rpc);
            // Drain: advance the top entry to its rpc a few times to force
            // reconvergence activity.
            for _ in 0..2 {
                if s.is_empty() {
                    break;
                }
                let top_rpc = s.entries().last().unwrap().rpc;
                if top_rpc != simt_isa::RECONV_EXIT {
                    s.advance(top_rpc);
                }
            }
        }
        // Fully unwind: keep advancing to rpc; the stack must settle at
        // depth 1 with the base entry holding all surviving threads.
        for _ in 0..100 {
            if s.depth() <= 1 {
                break;
            }
            let top_rpc = s.entries().last().unwrap().rpc;
            s.advance(top_rpc);
        }
        assert_eq!(s.depth(), 1, "seed {seed}");
        assert_eq!(s.active_mask() & !init, 0, "seed {seed}");
    }
}

/// Exiting threads in arbitrary chunks always empties the stack without
/// ever resurrecting a thread.
#[test]
fn simt_stack_exit_monotone() {
    for seed in 0..128 {
        let mut rng = Rng::new(seed);
        let init = rng.mask() | 1;
        let mut s = SimtStack::new(init, 0);
        s.branch(init & 0xffff, 5, 1, 9);
        let mut alive = init;
        let chunks = rng.range(1, 40);
        for _ in 0..chunks {
            let dying = rng.mask() & alive;
            s.exit_threads(dying);
            alive &= !dying;
            assert_eq!(s.active_mask() & !alive, 0, "no resurrection (seed {seed})");
            if alive == 0 {
                assert!(s.is_empty(), "seed {seed}");
            }
        }
        s.exit_threads(alive);
        assert!(s.is_empty(), "seed {seed}");
    }
}

/// Scoreboard: after any reserve/release interleaving, pending state
/// matches a reference set. Driven through the live issue path: the probe
/// is lowered by `DecodedKernel::decode` and checked by mask, destinations
/// are reserved with `reserve_reg`.
#[test]
fn scoreboard_matches_reference() {
    // One `add r31, r<reg>, 1` probe per register, decoded as a launch would.
    let probes: Vec<Inst> = (0u8..32)
        .map(|reg| Inst::binary(Op::Add(Ty::S32), Reg(31), Reg(reg), 1))
        .chain([Inst::new(Op::Exit)])
        .collect();
    let kernel = Kernel::from_insts("probes", probes, Default::default(), 32, 0, 0).unwrap();
    let decoded = DecodedKernel::decode(&kernel);
    for seed in 0..32 {
        let mut rng = Rng::new(seed);
        let mut sb = Scoreboard::new();
        let mut model = std::collections::HashSet::new();
        let nops = rng.range(1, 200);
        for _ in 0..nops {
            let reg = rng.range(0, 32) as u8;
            if rng.flag() {
                sb.reserve_reg(Reg(reg));
                model.insert(reg);
            } else {
                sb.release_reg(Reg(reg));
                model.remove(&reg);
            }
            for r in 0u8..32 {
                assert_eq!(sb.reg_pending(Reg(r)), model.contains(&r), "seed {seed}");
            }
            let probe = &decoded.insts[reg as usize];
            assert_eq!(
                sb.has_hazard_masks(&probe.reg_mask, probe.pred_mask),
                model.contains(&reg) || model.contains(&31),
                "seed {seed}"
            );
        }
        assert_eq!(sb.is_clear(), model.is_empty(), "seed {seed}");
    }
}

/// The baseline picks over a `WarpSet` make the choices the list-based
/// picks they replaced made, modelled here as they were written: LRR the
/// first slot after the last one modulo 2^16, GTO greedy then the lowest
/// age rank rotated by `now / period`, CAWA the last maximum. Random
/// eligible sets over all 64 slots, residency changes and clock jumps
/// across rotation windows.
#[test]
fn mask_picks_match_the_list_models() {
    const MOD: usize = 1 << 16;
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let period = rng.range(1, 300);
        let mut lrr = BasePolicy::Lrr.build(period);
        let mut gto = BasePolicy::Gto.build(period);
        let mut cawa = BasePolicy::Cawa.build(period);
        for w in 0..64 {
            cawa.on_warp_launch(w, 100);
        }
        let (mut lrr_last, mut gto_last) = (MOD - 1, None::<usize>);
        let mut meta = vec![WarpMeta::default(); 64];
        let (mut now, mut version) = (0, 0);
        for step in 0..300 {
            if step % 37 == 0 {
                version += 1;
                for (i, m) in meta.iter_mut().enumerate() {
                    *m = WarpMeta {
                        resident: rng.range(0, 4) != 0,
                        done: rng.range(0, 8) == 0,
                        age_key: rng.range(0, 1000) * 64 + i as u64,
                        eligible: false,
                    };
                }
            }
            now += rng.range(0, 2 * period);
            let live: Vec<usize> = (0..64)
                .filter(|&w| meta[w].resident && !meta[w].done)
                .collect();
            let mut eligible: Vec<usize> = live.iter().copied().filter(|_| rng.flag()).collect();
            if eligible.is_empty() {
                match live.first() {
                    Some(&w) => eligible.push(w),
                    None => continue,
                }
            }
            let set: WarpSet = eligible.iter().copied().collect();
            let ctx = SchedCtx {
                now,
                meta: &meta,
                resident_version: version,
            };
            let want = *eligible
                .iter()
                .min_by_key(|&&w| (w + MOD - lrr_last - 1) % MOD)
                .unwrap();
            lrr_last = want;
            assert_eq!(
                lrr.pick(&ctx, set),
                Some(want),
                "lrr seed {seed} step {step}"
            );

            let want = match gto_last.filter(|w| eligible.contains(w)) {
                Some(w) => w,
                None => {
                    let mut ages: Vec<(u64, usize)> =
                        live.iter().map(|&w| (meta[w].age_key, w)).collect();
                    ages.sort_unstable();
                    let rank = |w: usize| {
                        let pos = ages.iter().position(|&(_, v)| v == w).unwrap() as u64;
                        (pos + now / period) % ages.len() as u64
                    };
                    let w = *eligible.iter().min_by_key(|&&w| rank(w)).unwrap();
                    gto_last = Some(w);
                    w
                }
            };
            assert_eq!(
                gto.pick(&ctx, set),
                Some(want),
                "gto seed {seed} step {step}"
            );

            // Every warp launched with the same estimate and nothing issued:
            // all tie, and the last maximum is the highest slot.
            assert_eq!(
                cawa.pick(&ctx, set),
                eligible.last().copied(),
                "cawa seed {seed}"
            );
        }
    }
}
