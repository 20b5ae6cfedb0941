//! Checkpoint/resume invariance across the full 22-kernel corpus.
//!
//! For every workload, under both engines, the three-run pattern must hold
//! stage by stage:
//!
//! 1. **reference** — an uninterrupted run;
//! 2. **checkpointing** — the same run taking periodic snapshots must be
//!    bit-identical (snapshotting is pure observation);
//! 3. **resumed** — a fresh GPU restored from a mid-flight snapshot of the
//!    longest stage must finish with the same cycle count, bit-equal
//!    statistics, and a byte-identical final memory image, and still pass
//!    the workload's own verifier.
//!
//! The sync suite runs under BOWS-on-GTO with a live DDOS so the nested
//! policy/detector blobs (backed-off queue, adaptive window, SIB-PT) ride
//! through the snapshot; the Rodinia suite runs under plain GTO with the
//! static oracle, covering the memory-heavy kernels.

use bows::{AdaptiveConfig, DdosConfig, DelayMode};
use bows_sim::core::{CheckpointCtl, Engine, Gpu, GpuConfig, KernelReport, LaunchSpec};
use bows_sim::isa::asm::assemble;
use bows_sim::workloads::{rodinia_suite, sync_suite, Prepared, Scale, Stage, Workload};

/// Per-stage outcome kept for cross-run comparison.
struct StageOutcome {
    report: KernelReport,
}

fn config(engine: Engine) -> GpuConfig {
    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 4;
    cfg.engine = engine;
    cfg
}

/// Prepare `w` on a fresh GPU and run every stage, checkpointing stage
/// `snap_stage` (if any) at `every` cycles into `snaps`. Returns the
/// per-stage reports, the final memory image, and the GPU (for verify).
fn run_stages(
    cfg: &GpuConfig,
    w: &dyn Workload,
    bows: bool,
    snap_stage: Option<usize>,
    every: u64,
    snaps: &mut Vec<Vec<u8>>,
    resume: Option<&[u8]>,
) -> (Vec<StageOutcome>, Vec<u32>, Gpu, Prepared) {
    let mut keep = |body: &[u8]| snaps.push(body.to_vec());
    let delay = bows.then(|| DelayMode::Adaptive(AdaptiveConfig::default()));
    run_stages_into(cfg, w, delay, snap_stage, every, &mut keep, resume)
}

/// [`run_stages`], handing each snapshot body to `keep`, under BOWS-on-GTO
/// with back-off delay `delay` and a live DDOS (plain GTO with the static
/// oracle for `None`). A resumed run checkpoints at `every` too.
fn run_stages_into(
    cfg: &GpuConfig,
    w: &dyn Workload,
    delay: Option<DelayMode>,
    snap_stage: Option<usize>,
    every: u64,
    keep: &mut dyn FnMut(&[u8]),
    resume: Option<&[u8]>,
) -> (Vec<StageOutcome>, Vec<u32>, Gpu, Prepared) {
    let bows = delay.is_some();
    let policy = bows::policy_factory(
        bows_sim::core::BasePolicy::Gto,
        delay,
        cfg.gto_rotate_period,
    );
    let detector: Box<bows_sim::core::DetectorFactory<'static>> = if bows {
        bows::ddos_factory(DdosConfig::default(), cfg.warps_per_sm())
    } else {
        Box::new(bows_sim::core::baseline_detector)
    };
    let mut gpu = Gpu::new(cfg.clone());
    let prepared = w.prepare(&mut gpu);
    let mut outcomes = Vec::new();
    for (i, stage) in prepared.stages.iter().enumerate() {
        let mut sink = |_at: u64, body: &[u8]| keep(body);
        let ctl = if snap_stage == Some(i) {
            Some(CheckpointCtl {
                every,
                sink: &mut sink,
                resume,
            })
        } else {
            None
        };
        let report = gpu
            .run_with_checkpoints(&stage.kernel, &stage.launch, &policy, &detector, ctl)
            .unwrap_or_else(|e| panic!("{} stage {i}: {e}", w.name()));
        outcomes.push(StageOutcome { report });
    }
    let image = gpu.mem().gmem().image().to_vec();
    (outcomes, image, gpu, prepared)
}

fn assert_stages_eq(tag: &str, a: &[StageOutcome], b: &[StageOutcome]) {
    assert_eq!(a.len(), b.len(), "stage count: {tag}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.report.cycles, y.report.cycles, "cycles, stage {i}: {tag}");
        assert_eq!(x.report.sim, y.report.sim, "SimStats, stage {i}: {tag}");
        assert_eq!(x.report.mem, y.report.mem, "MemStats, stage {i}: {tag}");
    }
}

/// The full three-run pattern for one workload under one engine.
fn check_workload(cfg: &GpuConfig, w: &dyn Workload, bows: bool) {
    let tag = format!(
        "{} ({:?}{})",
        w.name(),
        cfg.engine,
        if bows { ", bows" } else { "" }
    );

    // Run 1: reference.
    let mut no_snaps = Vec::new();
    let (ref_out, ref_image, ref_gpu, ref_prep) =
        run_stages(cfg, w, bows, None, 0, &mut no_snaps, None);
    (ref_prep.verify)(&ref_gpu).unwrap_or_else(|e| panic!("reference verify: {tag}: {e}"));

    // Checkpoint the longest stage, ~3 snapshots across its lifetime.
    let snap_stage = ref_out
        .iter()
        .enumerate()
        .max_by_key(|(_, o)| o.report.cycles)
        .map(|(i, _)| i)
        .expect("workloads have at least one stage");
    let every = (ref_out[snap_stage].report.cycles / 3).max(1);

    // Run 2: checkpointing is pure observation.
    let mut snaps = Vec::new();
    let (chk_out, chk_image, _, _) =
        run_stages(cfg, w, bows, Some(snap_stage), every, &mut snaps, None);
    assert_stages_eq(
        &format!("checkpointing perturbed: {tag}"),
        &ref_out,
        &chk_out,
    );
    assert_eq!(
        ref_image, chk_image,
        "checkpointing perturbed memory: {tag}"
    );
    assert!(!snaps.is_empty(), "no snapshots harvested: {tag}");

    // Run 3: resume the longest stage from its middle snapshot.
    let mid = snaps[snaps.len() / 2].clone();
    let mut no_snaps = Vec::new();
    let (res_out, res_image, res_gpu, res_prep) =
        run_stages(cfg, w, bows, Some(snap_stage), 0, &mut no_snaps, Some(&mid));
    assert_stages_eq(&format!("resume diverged: {tag}"), &ref_out, &res_out);
    assert_eq!(ref_image, res_image, "resume diverged in memory: {tag}");
    (res_prep.verify)(&res_gpu).unwrap_or_else(|e| panic!("resumed verify: {tag}: {e}"));
}

fn sweep(suite: &[Box<dyn Workload>], engine: Engine, bows: bool) {
    for w in suite {
        check_workload(&config(engine), w.as_ref(), bows);
    }
}

#[test]
fn sync_suite_resume_invariance_cycle_engine() {
    sweep(&sync_suite(Scale::Tiny), Engine::Cycle, true);
}

#[test]
fn sync_suite_resume_invariance_skip_engine() {
    sweep(&sync_suite(Scale::Tiny), Engine::Skip, true);
}

#[test]
fn rodinia_suite_resume_invariance_cycle_engine() {
    sweep(&rodinia_suite(Scale::Tiny), Engine::Cycle, false);
}

#[test]
fn rodinia_suite_resume_invariance_skip_engine() {
    sweep(&rodinia_suite(Scale::Tiny), Engine::Skip, false);
}

/// Settling a sleeping SM's books is transparent at any cycle: under the
/// skip engine, HT on four SMs (BOWS-on-GTO, adaptive, live DDOS — its SMs
/// sleep on the lock's round trip most of the time) checkpointed every
/// cycle, at an odd period, and just before, on and just after the
/// forward-progress scan boundary reports what the uncheckpointed run and
/// the cycle engine report. Each snapshot settles the sleepers and leaves
/// them asleep; an accrual lost or doubled there, or at a scan-boundary
/// settle followed by a clock jump, shows up in `SimStats`.
#[test]
fn settle_is_transparent_at_any_cycle() {
    let suite = sync_suite(Scale::Tiny);
    let ht = suite.iter().find(|w| w.name() == "HT").expect("in suite");
    let run = |engine: Engine, every: u64| {
        let mut snapshots = 0u64;
        let snap_stage = (every > 0).then_some(0);
        let cfg = config(engine);
        let (out, image, _, _) = run_stages_into(
            &cfg,
            ht.as_ref(),
            Some(DelayMode::Adaptive(AdaptiveConfig::default())),
            snap_stage,
            every,
            &mut |_| snapshots += 1,
            None,
        );
        (out, image, snapshots)
    };
    let (oracle, oracle_image, _) = run(Engine::Cycle, 0);
    let cycles = oracle[0].report.cycles;
    assert!(cycles > 2 * 2049, "HT must cross scan boundaries: {cycles}");
    for every in [0, 1, 7, 2047, 2048, 2049] {
        let (out, image, snapshots) = run(Engine::Skip, every);
        let tag = format!("skip engine, checkpoint every {every}");
        assert_stages_eq(&tag, &oracle, &out);
        assert_eq!(oracle_image, image, "memory: {tag}");
        let boundaries = (cycles - 1).checked_div(every).unwrap_or(0);
        assert_eq!(snapshots, boundaries, "snapshots: {tag}");
    }
}

/// A one-kernel workload built in place: `ctas` CTAs of `tpc` threads of
/// `src`, its parameters fresh zeroed buffers of `bufs` words each.
struct Probe {
    name: &'static str,
    src: &'static str,
    ctas: usize,
    tpc: usize,
    bufs: &'static [u64],
}

impl Workload for Probe {
    fn name(&self) -> &'static str {
        self.name
    }

    fn prepare(&self, gpu: &mut Gpu) -> Prepared {
        let params = self
            .bufs
            .iter()
            .map(|&words| gpu.mem_mut().gmem_mut().alloc(words) as u32)
            .collect();
        let stage = Stage {
            kernel: assemble(self.src).expect("probe kernel assembles"),
            launch: LaunchSpec {
                grid_ctas: self.ctas,
                threads_per_cta: self.tpc,
                params,
            },
        };
        Prepared::exact(vec![stage], |_| Ok(()))
    }
}

/// Run `probe` under both engines with a checkpoint every 0, 1 and 7
/// cycles. Every leg must report the cycle engine's cycles, statistics and
/// memory; the two engines must write the same snapshot bodies (past the
/// 8-byte identity, which hashes the engine; compared by FNV-1a, so a leg
/// holds one body, not thousands); and a run resumed from the middle body
/// must end the same way and write the same bodies from there on. `SmProf`
/// aside, everything event-driven eligibility keeps is in those bodies or
/// feeds those statistics, and tier-1 runs this in the dev profile, where
/// every cycle is also checked against the full rescan. Returns the cycle
/// engine's report.
fn check_probe(probe: &Probe, delay: Option<DelayMode>) -> KernelReport {
    // One run: its outcome, its memory, the hash of every body it wrote,
    // and body number `keep` itself.
    let run = |engine: Engine, every: u64, resume: Option<&[u8]>, keep: usize| {
        let mut hashes = Vec::new();
        let mut kept = Vec::new();
        let (mut out, image, _, _) = run_stages_into(
            &config(engine),
            probe,
            delay,
            (every > 0).then_some(0),
            every,
            &mut |body| {
                if hashes.len() == keep {
                    kept = body.to_vec();
                }
                hashes.push(bows_sim::snap::fnv1a(&body[8..]));
            },
            resume,
        );
        (out.remove(0), image, hashes, kept)
    };
    let (oracle, oracle_image, _, _) = run(Engine::Cycle, 0, None, 0);
    let same_outcome = |tag: &str, out: &StageOutcome, image: &[u32]| {
        assert_stages_eq(
            tag,
            std::slice::from_ref(&oracle),
            std::slice::from_ref(out),
        );
        assert_eq!(oracle_image, image, "memory: {tag}");
    };
    for every in [0, 1, 7] {
        let boundaries = (oracle.report.cycles - 1).checked_div(every).unwrap_or(0) as usize;
        let mid = boundaries / 2;
        let mut reference = None;
        for engine in [Engine::Cycle, Engine::Skip] {
            let tag = format!("{}: {engine:?}, checkpoint every {every}", probe.name);
            let (out, image, hashes, body) = run(engine, every, None, mid);
            same_outcome(&tag, &out, &image);
            assert_eq!(hashes.len(), boundaries, "snapshots: {tag}");
            assert_eq!(
                &hashes,
                reference.get_or_insert(hashes.clone()),
                "bodies: {tag}"
            );
            if boundaries > 0 {
                let tag = format!("{tag}, resumed from body {mid}");
                let (out, image, rest, _) = run(engine, every, Some(&body), usize::MAX);
                same_outcome(&tag, &out, &image);
                assert_eq!(rest, hashes[mid + 1..], "later bodies: {tag}");
            }
        }
    }
    oracle.report
}

/// Every event that can move a warp's stall class, at its edge. (The one
/// source this cannot reach is a CTA launched onto a *sleeping* SM: the
/// run loop dispatches only after a retirement, and whatever room there
/// is was filled the last time — `pool.rs` injects that launch by hand.)
#[test]
fn eligibility_events_are_seen_at_their_edges() {
    // Four warps reach the barrier at different times; the last to arrive
    // releases the others.
    let report = check_probe(
        &Probe {
            name: "barrier released by the last arrival",
            src: r#"
                .kernel last_arrival
                .regs 8
                .params 1
                    ld.param r1, [0]
                    mov r2, %gtid
                    shl r3, r2, 2
                    add r1, r1, r3
                    mov r4, %warpid
                    shl r4, r4, 2
                    mov r5, 0
                WORK:
                    add r5, r5, 1
                    setp.le.u32 p1, r5, r4
                @p1 bra WORK
                    bar.sync
                    st.global [r1], r5
                    exit
            "#,
            ctas: 2,
            tpc: 128,
            bufs: &[256],
        },
        None,
    );
    assert_eq!(report.sim.barriers, 2);
    assert!(report.sim.stall_barrier > 0);

    // Three warps wait at the barrier for a fourth that never arrives: its
    // `exit` releases them.
    let report = check_probe(
        &Probe {
            name: "barrier released by an exit",
            src: r#"
                .kernel exit_releases
                .regs 8
                .params 1
                    ld.param r1, [0]
                    mov r2, %gtid
                    shl r3, r2, 2
                    add r1, r1, r3
                    mov r4, %warpid
                    setp.eq.u32 p1, r4, 3
                @p1 bra LEAVE
                    bar.sync
                    st.global [r1], r2
                    exit
                LEAVE:
                    mov r5, 0
                WORK:
                    add r5, r5, 1
                    setp.lt.u32 p2, r5, 12
                @p2 bra WORK
                    exit
            "#,
            ctas: 1,
            tpc: 128,
            bufs: &[128],
        },
        None,
    );
    assert_eq!(report.sim.barriers, 1);
    assert!(report.sim.stall_barrier > 0);

    // A fence behind a store in flight: it clears, and the warp is
    // eligible again, on the cycle the store's completion arrives.
    let report = check_probe(
        &Probe {
            name: "membar cleared by a completion",
            src: r#"
                .kernel fence
                .regs 8
                .params 1
                    ld.param r1, [0]
                    mov r2, %gtid
                    shl r3, r2, 2
                    add r1, r1, r3
                    st.global [r1], r2
                    membar
                    add r4, r2, 1
                    st.global [r1], r4
                    exit
            "#,
            ctas: 2,
            tpc: 64,
            bufs: &[128],
        },
        None,
    );
    assert!(report.sim.stall_membar > 0);

    // Six CTAs per SM where four fit, of uneven length: CTAs retire and
    // `dispatch_pending` refills their warp slots in the same round.
    let report = check_probe(
        &Probe {
            name: "retire and refill in one round",
            src: r#"
                .kernel refill
                .regs 8
                .params 1
                    ld.param r1, [0]
                    mov r2, %gtid
                    shl r3, r2, 2
                    add r1, r1, r3
                    mov r4, %ctaid
                    and r4, r4, 3
                    mov r5, 0
                WORK:
                    add r5, r5, 1
                    setp.le.u32 p1, r5, r4
                @p1 bra WORK
                    st.global [r1], r5
                    exit
            "#,
            ctas: 24,
            tpc: 64,
            bufs: &[24 * 64],
        },
        None,
    );
    assert_eq!(report.sim.ctas_completed, 24);

    // CTA 0 spins on a flag CTA 1 sets late, under a fixed back-off delay
    // that outlasts the flag's round trip: the backed-off warp sits ready
    // but vetoed on an SM where nothing else happens, and issues when its
    // delay runs out — no event marks it.
    let report = check_probe(
        &Probe {
            name: "back-off delay expiring on a quiet SM",
            src: r#"
                .kernel wait_for_flag
                .regs 8
                .params 1
                    ld.param r1, [0]
                    mov r2, %ctaid
                    setp.eq.u32 p1, r2, 1
                @p1 bra SET
                SPIN:
                    ld.global.volatile r3, [r1] !sync
                    setp.eq.u32 p2, r3, 0 !sync
                @p2 bra SPIN !sib !sync
                    exit
                SET:
                    mov r4, 0
                WORK:
                    add r4, r4, 1
                    setp.lt.u32 p3, r4, 330
                @p3 bra WORK
                    st.global [r1], r4
                    exit
            "#,
            ctas: 2,
            tpc: 32,
            bufs: &[1],
        },
        Some(DelayMode::Fixed(400)),
    );
    assert!(report.sim.stall_backoff > 0 && report.sim.backed_off_warp_samples > 0);
}

/// The column register file goes through the row-major wire format at every
/// checkpoint: 40-thread CTAs (a full warp and a partial one) whose
/// registers and predicates are written under guards, so that at most
/// boundaries some lanes of a column hold new values and some old ones.
#[test]
fn guarded_writes_on_a_partial_warp_survive_every_boundary() {
    let report = check_probe(
        &Probe {
            name: "guarded register and predicate writes, 40 threads",
            src: r#"
                .kernel guarded_lanes
                .regs 8
                .params 1
                    ld.param r1, [0]
                    mov r2, %gtid
                    shl r3, r2, 2
                    add r1, r1, r3
                    mov r4, %laneid
                    and r5, r4, 1
                    setp.eq.u32 p1, r5, 0
                    setp.lt.u32 p2, r4, 5
                    mov r6, 7
                @p1 add r6, r6, r2
                @!p1 mad r6, r4, 3, r6
                @p2 setp.gt.u32 p1, r4, 2
                    pand p3, p1, p2
                @p3 pnot p2, p2
                    selp r7, r6, r4, p2
                    st.global [r1], r7
                    membar
                @p1 ld.global r5, [r1]
                @p1 add r5, r5, 1
                @!p3 st.global [r1], r5
                @p3 st.global [r1], r6
                    exit
            "#,
            ctas: 3,
            tpc: 40,
            bufs: &[120],
        },
        None,
    );
    assert_eq!(report.sim.ctas_completed, 3);
    // 22 instructions a warp, guards or not; fewer than 32 lanes each.
    assert_eq!(report.sim.issued_inst, 3 * 2 * 22);
    assert!(report.sim.thread_inst < 3 * 40 * 22);
}
