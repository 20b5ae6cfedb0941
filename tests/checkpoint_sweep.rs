//! Checkpoint/resume invariance across the full 22-kernel corpus.
//!
//! For every workload, under both engines and every SM worker count, the
//! three-run pattern must hold stage by stage:
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
use bows_sim::core::{CheckpointCtl, Engine, Gpu, GpuConfig, KernelReport};
use bows_sim::workloads::{rodinia_suite, sync_suite, Prepared, Scale, Workload};

/// Per-stage outcome kept for cross-run comparison.
struct StageOutcome {
    report: KernelReport,
}

fn config(engine: Engine, sm_threads: usize) -> GpuConfig {
    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 4;
    cfg.engine = engine;
    cfg.sm_threads = sm_threads;
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
    run_stages_into(cfg, w, bows, snap_stage, every, &mut keep, resume)
}

/// [`run_stages`], handing each snapshot body to `keep`.
fn run_stages_into(
    cfg: &GpuConfig,
    w: &dyn Workload,
    bows: bool,
    snap_stage: Option<usize>,
    every: u64,
    keep: &mut dyn FnMut(&[u8]),
    resume: Option<&[u8]>,
) -> (Vec<StageOutcome>, Vec<u32>, Gpu, Prepared) {
    let policy = bows::policy_factory(
        bows_sim::core::BasePolicy::Gto,
        bows.then(|| DelayMode::Adaptive(AdaptiveConfig::default())),
        cfg.gto_rotate_period,
    );
    let detector: Box<bows_sim::core::DetectorFactory<'static>> = if bows {
        bows::ddos_factory(DdosConfig::default(), cfg.warps_per_sm())
    } else {
        Box::new(|k: &bows_sim::isa::Kernel| -> Box<dyn bows_sim::core::SpinDetector> {
            if k.true_sibs.is_empty() {
                Box::new(bows_sim::core::NullDetector)
            } else {
                Box::new(bows_sim::core::StaticSibDetector::new(k.true_sibs.clone()))
            }
        })
    };
    let mut gpu = Gpu::new(cfg.clone());
    let prepared = w.prepare(&mut gpu);
    let mut outcomes = Vec::new();
    for (i, stage) in prepared.stages.iter().enumerate() {
        let mut sink = |_at: u64, body: &[u8]| keep(body);
        let ctl = if snap_stage == Some(i) {
            Some(CheckpointCtl {
                every: if resume.is_some() { 0 } else { every },
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

/// The full three-run pattern for one workload under one (engine,
/// sm_threads) cell.
fn check_workload(cfg: &GpuConfig, w: &dyn Workload, bows: bool) {
    let tag = format!(
        "{} ({:?}, {} sm-threads{})",
        w.name(),
        cfg.engine,
        cfg.sm_threads,
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
    assert_stages_eq(&format!("checkpointing perturbed: {tag}"), &ref_out, &chk_out);
    assert_eq!(ref_image, chk_image, "checkpointing perturbed memory: {tag}");
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
        for sm_threads in [1usize, 2, 8] {
            check_workload(&config(engine, sm_threads), w.as_ref(), bows);
        }
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
        let cfg = config(engine, 1);
        let (out, image, _, _) = run_stages_into(
            &cfg,
            ht.as_ref(),
            true,
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
