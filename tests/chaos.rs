//! Chaos-engineering integration tests: the simulator under deterministic
//! memory fault injection, and the forward-progress watchdog's structured
//! hang diagnostics.
//!
//! Two claims are exercised end to end:
//!
//! 1. **Robustness** — every fine-grained-synchronization workload stays
//!    functionally correct when memory timing is perturbed (extra latency,
//!    NACKs, delayed atomics), across several chaos seeds, and the
//!    perturbation stream itself is deterministic per seed.
//! 2. **Diagnosability** — kernels that genuinely hang (SIMT-induced
//!    deadlock, a lock nobody releases, a mistuned BOWS back-off) produce a
//!    classified [`HangReport`] instead of a bare timeout.
//!
//! A third section pins which fault a run reports, and what it leaves in
//! global memory, when several instructions fault in one cycle: the first
//! in issue order — lower SM id, then lower scheduler unit.

use bows_sim::prelude::*;
use simt_isa::Kernel;

/// The chaos seeds every robustness test sweeps. Three distinct streams is
/// the minimum to claim seed-independence without tripling test time.
const SEEDS: [u64; 3] = [1, 42, 0xDEAD_BEEF];

fn tiny_with_chaos(seed: u64, level: u8) -> GpuConfig {
    let mut cfg = GpuConfig::test_tiny();
    cfg.mem.chaos = ChaosConfig::with_level(seed, level);
    cfg
}

/// Every sync workload completes and verifies under latency chaos, for
/// every seed. This is the headline robustness claim: BOWS-relevant
/// synchronization (spin locks, flags, barriers) must not depend on lucky
/// memory timing.
#[test]
fn sync_suite_verifies_under_latency_chaos_for_all_seeds() {
    for seed in SEEDS {
        let cfg = tiny_with_chaos(seed, 1);
        for w in sync_suite(Scale::Tiny) {
            let res = run_baseline(&cfg, w.as_ref(), BasePolicy::Gto)
                .unwrap_or_else(|e| panic!("{} @ seed {seed}: {e}", w.name()));
            res.verified
                .as_ref()
                .unwrap_or_else(|e| panic!("{} @ seed {seed}: {e}", res.name));
        }
    }
}

/// The contended hashtable also survives the harsher level-2 mix (NACKs
/// and delayed atomic responses on top of latency jitter).
#[test]
fn contended_hashtable_verifies_under_nack_chaos() {
    for seed in SEEDS {
        let cfg = tiny_with_chaos(seed, 2);
        let ht = Hashtable::with_params(256, 2, 4, 128);
        let res =
            run_baseline(&cfg, &ht, BasePolicy::Gto).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        res.verified
            .as_ref()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// With chaos off (the default), the engine draws nothing: repeated runs
/// are cycle-identical and the injection counters stay at zero.
#[test]
fn chaos_off_is_identical_and_draws_nothing() {
    let cfg = GpuConfig::test_tiny();
    let ht = Hashtable::with_params(256, 2, 4, 128);
    let a = run_baseline(&cfg, &ht, BasePolicy::Gto).unwrap();
    let b = run_baseline(&cfg, &ht, BasePolicy::Gto).unwrap();
    assert_eq!(a.cycles, b.cycles, "chaos-off runs must be bit-identical");

    // Direct run so the memory system's counters are inspectable.
    let kernel = flag_free_kernel();
    let mut gpu = Gpu::new(cfg);
    let buf = gpu.mem_mut().gmem_mut().alloc(64);
    let launch = LaunchSpec {
        grid_ctas: 1,
        threads_per_cta: 64,
        params: vec![buf as u32],
    };
    gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
    assert_eq!(*gpu.mem().chaos_stats(), ChaosStats::default());
}

/// The perturbation stream is a pure function of the seed: the same seed
/// reproduces the run bit-identically, and other seeds actually change the
/// timing (else the sweep above proves nothing).
#[test]
fn chaos_is_deterministic_per_seed() {
    let ht = Hashtable::with_params(256, 2, 4, 128);
    let run = |seed: u64| {
        run_baseline(&tiny_with_chaos(seed, 2), &ht, BasePolicy::Gto)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
            .cycles
    };
    let first = run(7);
    assert_eq!(first, run(7), "same seed must be bit-identical");
    assert!(
        SEEDS.iter().any(|&s| run(s) != first),
        "distinct seeds must perturb timing differently"
    );

    // Faults were actually injected (a run can only differ if they were).
    let kernel = flag_free_kernel();
    let mut gpu = Gpu::new(tiny_with_chaos(7, 2));
    let buf = gpu.mem_mut().gmem_mut().alloc(64);
    let launch = LaunchSpec {
        grid_ctas: 1,
        threads_per_cta: 64,
        params: vec![buf as u32],
    };
    gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
    assert!(gpu.mem().chaos_stats().latency_injections > 0);
}

/// A classic SIMT-induced deadlock: the spinning side of a divergent
/// branch executes first, so the lane that would set the flag never runs.
/// The watchdog must classify this as spin livelock and snapshot the
/// divergence (stack depth 2) rather than just timing out.
#[test]
fn simt_deadlock_yields_classified_hang_report() {
    let kernel = assemble(
        r#"
        .kernel simt_deadlock
        .regs 8
        .params 1
            ld.param r1, [0]
            mov r2, %tid
            setp.ne.s32 p1, r2, 0
        @p1 bra SPIN
            mov r3, 1
            st.global [r1], r3        ; lane 0 would set the flag...
            bra DONE
        SPIN:
            ld.global.volatile r4, [r1]
            setp.eq.s32 p2, r4, 0
        @p2 bra SPIN                  ; ...but lanes 1-31 spin first
        DONE:
            exit
        "#,
    )
    .unwrap();
    let mut cfg = GpuConfig::test_tiny();
    cfg.watchdog_cycles = 10_000;
    cfg.max_cycles = 1_000_000;
    let mut gpu = Gpu::new(cfg);
    let flag = gpu.mem_mut().gmem_mut().alloc(1);
    let launch = LaunchSpec {
        grid_ctas: 1,
        threads_per_cta: 32,
        params: vec![flag as u32],
    };
    let err = gpu
        .run_baseline(&kernel, &launch, BasePolicy::Gto)
        .unwrap_err();
    let SimError::Deadlock { cycle, report } = err else {
        panic!("expected a classified deadlock, got {err:?}");
    };
    assert_eq!(report.class, HangClass::SpinLivelock);
    assert!(cycle < 1_000_000, "diagnosed well before the cycle limit");
    let spinner = report
        .spinning_warps()
        .next()
        .expect("report names the spinning warp");
    assert!(spinner.spin_iters > 0);
    assert!(
        spinner.stack_depth >= 2,
        "divergence is visible in the snapshot: depth {}",
        spinner.stack_depth
    );
    // The rendered report is operator-readable.
    let text = report.to_string();
    assert!(text.contains("spin livelock"), "got: {text}");
    assert!(text.contains("spin iters"), "got: {text}");
}

/// Property: a lock that is never released deadlocks every geometry, is
/// classified (not a bare cycle-limit), and is reported within the
/// watchdog window — well before `max_cycles`.
#[test]
fn never_released_lock_deadlocks_within_watchdog_window() {
    let kernel = assemble(
        r#"
        .kernel stuck_lock
        .regs 8
        .params 1
            ld.param r1, [0]
        ACQ:
            atom.global.cas r2, [r1], 0, 1 !acquire !sync
            setp.ne.s32 p1, r2, 0 !sync
        @p1 bra ACQ !sib !sync
            exit
        "#,
    )
    .unwrap();
    for (ctas, tpc) in [(1usize, 32usize), (1, 128), (2, 64)] {
        let mut cfg = GpuConfig::test_tiny();
        cfg.watchdog_cycles = 10_000;
        cfg.max_cycles = 2_000_000;
        let max_cycles = cfg.max_cycles;
        let mut gpu = Gpu::new(cfg);
        let lock = gpu.mem_mut().gmem_mut().alloc(1);
        gpu.mem_mut().gmem_mut().write_u32(lock, 1); // held forever
        let launch = LaunchSpec {
            grid_ctas: ctas,
            threads_per_cta: tpc,
            params: vec![lock as u32],
        };
        let err = gpu
            .run_baseline(&kernel, &launch, BasePolicy::Gto)
            .unwrap_err();
        let SimError::Deadlock { cycle, report } = err else {
            panic!("{ctas}x{tpc}: expected a classified deadlock, got {err:?}");
        };
        assert_eq!(report.class, HangClass::SpinLivelock, "{ctas}x{tpc}");
        assert!(cycle <= max_cycles);
        assert!(
            cycle < 200_000,
            "{ctas}x{tpc}: diagnosed within the watchdog window, not at the \
             cycle limit (cycle {cycle})"
        );
        assert_eq!(report.lock_success, 0, "nobody ever got the lock");
        assert!(report.lock_fails > 0, "the CAS attempts are visible");
    }
}

/// A store whose guard masks off every lane is not externally visible
/// progress: a warp waiting in `ld; setp; @p st.global; @!done bra` on a flag
/// nobody sets is spinning, and the watchdog says so. The same loop with
/// one lane really storing each time round is a producer loop and is never
/// called a spin — it runs into the cycle limit instead.
#[test]
fn fully_predicated_off_store_does_not_hide_a_spin() {
    let kernel = assemble(
        r#"
        .kernel wait_flag
        .regs 8
        .params 3
            ld.param r1, [0]
            ld.param r2, [4]
            ld.param r4, [8]
            mov r5, %laneid
            setp.lt.s32 p2, r5, r4
        LOOP:
            ld.global.volatile r3, [r1]
            setp.ne.s32 p1, r3, 0
        @p2 st.global [r2], r3
        @!p1 bra LOOP
            exit
        "#,
    )
    .unwrap();
    let run = |storing_lanes: u32, max_cycles: u64| {
        let mut cfg = GpuConfig::test_tiny();
        cfg.watchdog_cycles = 10_000;
        cfg.max_cycles = max_cycles;
        let mut gpu = Gpu::new(cfg);
        let flag = gpu.mem_mut().gmem_mut().alloc(1); // stays 0 forever
        let out = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 40,
            params: vec![flag as u32, out as u32, storing_lanes],
        };
        gpu.run_baseline(&kernel, &launch, BasePolicy::Gto)
            .unwrap_err()
    };

    let SimError::Deadlock { cycle, report } = run(0, 2_000_000) else {
        panic!("no lane stores: expected a classified hang");
    };
    assert_eq!(report.class, HangClass::SpinLivelock);
    assert!(
        cycle < 200_000,
        "diagnosed within the watchdog window (cycle {cycle})"
    );
    assert_eq!(
        report.spinning_warps().count(),
        2,
        "both warps of the 40-thread CTA"
    );

    let SimError::CycleLimit { report, .. } = run(1, 100_000) else {
        panic!("lane 0 stores every iteration: only the cycle limit ends this");
    };
    assert_eq!(report.warps.len(), 2);
    for w in &report.warps {
        // 1 between the backward branch and the store that resets it.
        assert!(
            w.spin_iters <= 1,
            "warp {}: a loop with a live store is productive",
            w.warp
        );
    }
}

/// A mistuned BOWS back-off (delay far beyond any useful bound) starves the
/// backed-off warps outright. With the starvation guard armed, the
/// watchdog pins the blame on BOWS instead of reporting a generic hang.
#[test]
fn mistuned_backoff_is_classified_as_backoff_starvation() {
    let kernel = assemble(
        r#"
        .kernel stuck_lock
        .regs 8
        .params 1
            ld.param r1, [0]
        ACQ:
            atom.global.cas r2, [r1], 0, 1 !acquire !sync
            setp.ne.s32 p1, r2, 0 !sync
        @p1 bra ACQ !sib !sync
            exit
        "#,
    )
    .unwrap();
    let mut cfg = GpuConfig::test_tiny();
    cfg.watchdog_cycles = 50_000;
    cfg.backoff_starvation_cycles = 2_000;
    cfg.max_cycles = 2_000_000;
    let rotate = cfg.gto_rotate_period;
    let mut gpu = Gpu::new(cfg);
    let lock = gpu.mem_mut().gmem_mut().alloc(1);
    gpu.mem_mut().gmem_mut().write_u32(lock, 1);
    let launch = LaunchSpec {
        grid_ctas: 1,
        threads_per_cta: 64,
        params: vec![lock as u32],
    };
    let policy =
        bows_sim::bows::policy_factory(BasePolicy::Gto, Some(DelayMode::Fixed(1_000_000)), rotate);
    let err = gpu
        .run(&kernel, &launch, &policy, &simt_core::static_sib_detector)
        .unwrap_err();
    let SimError::Deadlock { report, .. } = err else {
        panic!("expected a classified deadlock, got {err:?}");
    };
    let HangClass::BackoffStarvation { sm, warp } = report.class else {
        panic!("expected back-off starvation, got {:?}", report.class);
    };
    let snap = report
        .warps
        .iter()
        .find(|w| w.sm == sm && w.warp == warp)
        .expect("the starved warp is in the snapshot");
    assert!(snap.backed_off);
    assert!(
        snap.backoff_queue_position.is_some(),
        "queue position recorded"
    );
    assert!(snap.idle_cycles >= 2_000);
}

/// Chaos timing-equivalence: fault injection may change *when* things
/// happen, never *what* the kernel computes. For a schedule-independent
/// workload (ST) the final memory image under every chaos seed/level must
/// be byte-identical to the chaos-off run even as cycle counts move; for
/// a racy workload (HT) the declared postconditions must hold at every
/// chaos point.
#[test]
fn chaos_changes_timing_never_architectural_results() {
    use experiments::differ::{run_sim_cell, DifferCell, CHAOS_POINTS};
    use experiments::SchedConfig;

    let base = GpuConfig::test_tiny();
    let quiet_cell = DifferCell {
        sched: SchedConfig::baseline(BasePolicy::Gto),
        chaos: None,
    };

    // Exact workload: bytewise equality against the chaos-off image.
    let st = sync_suite(Scale::Tiny).remove(1);
    let quiet = run_sim_cell(&base, st.as_ref(), &quiet_cell).unwrap();
    let mut timing_moved = false;
    for &(seed, level) in &CHAOS_POINTS {
        let cell = DifferCell {
            sched: quiet_cell.sched,
            chaos: Some((seed, level)),
        };
        let noisy = run_sim_cell(&base, st.as_ref(), &cell)
            .unwrap_or_else(|e| panic!("{} @ chaos({seed},{level}): {e}", st.name()));
        assert_eq!(
            quiet.gmem.first_diff(&noisy.gmem),
            None,
            "chaos({seed},{level}) changed {}'s architectural result",
            st.name()
        );
        timing_moved |= noisy.result.cycles != quiet.result.cycles;
    }
    assert!(
        timing_moved,
        "no chaos point changed the cycle count — injection cannot be live"
    );

    // Racy workload: every declared postcondition holds at every point.
    let ht = sync_suite(Scale::Tiny).remove(4);
    for &(seed, level) in &CHAOS_POINTS {
        let cell = DifferCell {
            sched: quiet_cell.sched,
            chaos: Some((seed, level)),
        };
        let run = run_sim_cell(&base, ht.as_ref(), &cell)
            .unwrap_or_else(|e| panic!("{} @ chaos({seed},{level}): {e}", ht.name()));
        let posts = run
            .equivalence
            .postconditions()
            .expect("HT declares postconditions");
        for p in posts {
            (p.check)(&run.gmem).unwrap_or_else(|e| {
                panic!(
                    "{} postcondition `{}` @ chaos({seed},{level}): {e}",
                    ht.name(),
                    p.name
                )
            });
        }
    }
}

// ---------------------------------------------------------------------
// Fault precedence. The kernels below derive every wild address from the
// `clock` register, so a `DeviceFault`'s address names the cycle it was
// computed in: equal errors mean equal cycles.
// ---------------------------------------------------------------------

/// Base of the wild addresses: word-aligned, past every allocation.
const WILD: u64 = 0x00f0_0000;

/// Run `src` on a `num_sms`-SM machine over a fresh 64-word buffer whose
/// address is parameter 0 (`param1` is parameter 1) until it faults, under
/// both engines; the error and the buffer afterwards, which the engines
/// must agree on.
fn fault_of(
    src: &str,
    num_sms: usize,
    launch: (usize, usize),
    param1: u32,
) -> (SimError, Vec<u32>) {
    let kernel = assemble(src).unwrap();
    let under = |engine: Engine| {
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = num_sms;
        cfg.engine = engine;
        let mut gpu = Gpu::new(cfg);
        let buf = gpu.mem_mut().gmem_mut().alloc(64);
        assert!(gpu.mem().gmem().allocated_bytes() < WILD);
        let launch = LaunchSpec {
            grid_ctas: launch.0,
            threads_per_cta: launch.1,
            params: vec![buf as u32, param1],
        };
        let err = gpu
            .run_baseline(&kernel, &launch, BasePolicy::Lrr)
            .expect_err("the kernel faults");
        (err, gpu.mem().gmem().read_vec(buf, 64))
    };
    let cycle = under(Engine::Cycle);
    assert_eq!(
        under(Engine::Skip),
        cycle,
        "the engines disagree on a fault"
    );
    cycle
}

/// The SM, pc and address of a `DeviceFault`.
fn device_fault(e: &SimError) -> (usize, usize, u64) {
    match e {
        SimError::DeviceFault { sm, pc, fault } => {
            assert!(!fault.unaligned && fault.addr >= WILD, "{fault}");
            (*sm, *pc, fault.addr)
        }
        other => panic!("expected a DeviceFault, got {other}"),
    }
}

/// Two SMs run one warp each in lockstep and issue a `st.global` whose
/// lanes 5.. are wild in the same cycle: the fault names SM 0, its five
/// lanes before the faulting one are in memory, and nothing of SM 1 is.
/// With SM 0's store made valid (parameter 1), SM 1 faults at the same
/// address — the same cycle — after SM 0's whole row went in.
#[test]
fn of_two_sms_faulting_in_one_cycle_the_lower_id_is_reported() {
    let src = r#"
        .kernel wild_store
        .regs 10
        .params 2
            ld.param r1, [0]
            ld.param r8, [4]          ; first SM whose store goes wild
            mov r2, %smid
            mov r3, %tid
            shl r4, r3, 2
            shl r5, r2, 7
            add r1, r1, r4
            add r1, r1, r5            ; &buf[32 * smid + tid]
            clock r6
            shl r6, r6, 2
            add r6, r6, 0x00f00000
            setp.ge.u32 p1, r3, 5
            setp.ge.u32 p2, r2, r8
            pand p1, p1, p2
        @p1 mov r1, r6                ; lanes 5.. of a wild SM
            add r7, r2, 7
            st.global [r1], r7
            exit
    "#;
    let (err, buf) = fault_of(src, 2, (2, 32), 0);
    let (sm, pc, addr) = device_fault(&err);
    assert_eq!((sm, pc), (0, 16));
    assert_eq!(buf[..5], [7; 5], "SM 0's lanes before the faulting one");
    assert_eq!(buf[5..], [0; 59], "no later lane, and nothing of SM 1");

    let (err, buf) = fault_of(src, 2, (2, 32), 1);
    assert_eq!(
        device_fault(&err),
        (1, 16, addr),
        "SM 1 stored in that same cycle"
    );
    assert_eq!(buf[..32], [7; 32]);
    assert_eq!(buf[32..37], [8; 5]);
    assert_eq!(buf[37..], [0; 27]);
}

/// One SM, one warp on each of its two scheduler units, in lockstep: in
/// the same cycle one warp issues a wild `st.global` (a `DeviceFault`)
/// and the other a `st.shared` past the CTA's allocation (an
/// `InternalInvariant`). Unit 0 issues first, so its error is the run's,
/// whichever of the two it is; and a unit-1 store is never issued.
#[test]
fn of_two_units_faulting_in_one_cycle_unit_0_is_reported() {
    let src = r#"
        .kernel two_faults
        .regs 10
        .params 2
        .shared 1
            ld.param r1, [0]
            ld.param r8, [4]          ; the warp that stores to shared
            mov r2, %warpid
            mov r3, %tid
            shl r4, r3, 2
            add r1, r1, r4            ; &buf[tid]
            clock r6
            shl r6, r6, 2
            add r6, r6, 0x00f00000
            and r5, r3, 31
            setp.ge.u32 p1, r5, 5
        @p1 mov r1, r6                ; lanes 5.. of either warp go wild
            setp.eq.u32 p2, r2, r8
        @p2 bra SHARED
            st.global [r1], r3
            exit
        SHARED:
            st.shared [4096], r3
            exit
    "#;
    let (err, buf) = fault_of(src, 1, (1, 64), 1);
    let (sm, pc, _) = device_fault(&err);
    assert_eq!((sm, pc), (0, 14));
    assert_eq!(
        buf[..5],
        [0, 1, 2, 3, 4],
        "unit 0's lanes before the faulting one"
    );
    assert_eq!(buf[5..], [0; 59]);

    let (err, buf) = fault_of(src, 1, (1, 64), 0);
    assert!(
        matches!(&err, SimError::InternalInvariant { what } if what.contains("pc 16: st.shared")),
        "{err}"
    );
    assert_eq!(buf, [0; 64], "unit 1's store was not issued");
}

/// A wild `ld.global` and a wild `atom.global` are each reported at their
/// own pc (parameter 1 picks the one that runs).
#[test]
fn wild_loads_and_atomics_report_their_own_pc() {
    let src = r#"
        .kernel wild_read
        .regs 8
        .params 2
            ld.param r2, [4]
            clock r1
            shl r1, r1, 2
            add r1, r1, 0x00f00000
            setp.eq.u32 p1, r2, 0
        @p1 bra ATOM
            ld.global r3, [r1]
            exit
        ATOM:
            atom.global.add r3, [r1], 1
            exit
    "#;
    let (load, _) = fault_of(src, 1, (1, 32), 1);
    let (atom, _) = fault_of(src, 1, (1, 32), 0);
    let (_, load_pc, addr) = device_fault(&load);
    assert_eq!(load_pc, 6);
    assert_eq!(device_fault(&atom), (0, 8, addr));
}

/// A sync-free helper kernel: every thread bumps its own word 100 times,
/// generating enough memory traffic that probabilistic injections are
/// near-certain to fire. Used where tests need a direct `Gpu` to inspect
/// memory-system counters.
fn flag_free_kernel() -> Kernel {
    assemble(
        r#"
        .kernel bump
        .regs 8
        .params 1
            ld.param r1, [0]
            mov r2, %gtid
            shl r3, r2, 2
            add r1, r1, r3
            mov r5, 0
        LOOP:
            ld.global r4, [r1]
            add r4, r4, 1
            st.global [r1], r4
            add r5, r5, 1
            setp.lt.s32 p1, r5, 100
        @p1 bra LOOP
            exit
        "#,
    )
    .unwrap()
}
