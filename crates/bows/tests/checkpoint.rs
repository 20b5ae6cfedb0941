//! Checkpoint/restore carries BOWS + DDOS state bit-exactly.
//!
//! Three runs of the same contended spin-lock kernel under BOWS-on-GTO with
//! DDOS: an uninterrupted run, a run that takes periodic snapshots, and a run
//! resumed from a mid-flight snapshot. All three must agree on every stat and
//! on final device memory — this exercises the nested policy/detector blobs
//! (backed-off queue, adaptive controller window, warp histories, SIB-PT).

use bows::{AdaptiveConfig, Bows, Ddos, DdosConfig, DelayMode};
use simt_core::{sched::BasePolicy, CheckpointCtl, Gpu, GpuConfig, KernelReport, LaunchSpec};
use simt_isa::asm::assemble;
use simt_isa::Kernel;

const LOCK_KERNEL: &str = r#"
    .kernel locked_inc
    .regs 10
    .params 2
        ld.param r1, [0]      ; mutex
        ld.param r2, [4]      ; counter
        mov r9, 0             ; done = false
    SPIN:
        atom.global.cas r3, [r1], 0, 1 !acquire !sync
        setp.eq.s32 p1, r3, 0
    @!p1 bra TEST
        ld.global.volatile r4, [r2]
        add r4, r4, 1
        st.global [r2], r4
        membar
        atom.global.exch r5, [r1], 0 !release !sync
        mov r9, 1
    TEST:
        setp.eq.s32 p2, r9, 0 !sync
    @p2 bra SPIN !sib !sync
        exit
"#;

fn setup() -> (Gpu, u64, LaunchSpec) {
    let cfg = GpuConfig::test_tiny();
    let mut gpu = Gpu::new(cfg);
    let mutex = gpu.mem_mut().gmem_mut().alloc(1);
    let counter = gpu.mem_mut().gmem_mut().alloc(1);
    let launch = LaunchSpec {
        grid_ctas: 2,
        threads_per_cta: 64,
        params: vec![mutex as u32, counter as u32],
    };
    (gpu, counter, launch)
}

fn run_one(
    gpu: &mut Gpu,
    kernel: &Kernel,
    launch: &LaunchSpec,
    ctl: Option<CheckpointCtl<'_>>,
) -> KernelReport {
    let warps = GpuConfig::test_tiny().warps_per_sm();
    gpu.run_with_checkpoints(
        kernel,
        launch,
        &|| {
            Box::new(Bows::new(
                BasePolicy::Gto.build(50_000),
                DelayMode::Adaptive(AdaptiveConfig::default()),
            ))
        },
        &move |_k| Box::new(Ddos::new(DdosConfig::default(), warps)),
        ctl,
    )
    .expect("kernel completes")
}

#[test]
fn bows_ddos_checkpoint_resume_is_bit_identical() {
    let kernel = assemble(LOCK_KERNEL).expect("assembles");

    // Run A: uninterrupted.
    let (mut gpu_a, counter_a, launch) = setup();
    let rep_a = run_one(&mut gpu_a, &kernel, &launch, None);
    assert_eq!(gpu_a.mem().gmem().read_u32(counter_a), 128);
    assert!(
        !rep_a.confirmed_sibs.is_empty(),
        "DDOS found the spin branch"
    );

    // Run B: checkpointing every 256 cycles must not perturb the run.
    let mut snaps: Vec<(u64, Vec<u8>)> = Vec::new();
    let (mut gpu_b, counter_b, _) = setup();
    let mut sink = |at: u64, body: &[u8]| snaps.push((at, body.to_vec()));
    let rep_b = run_one(
        &mut gpu_b,
        &kernel,
        &launch,
        Some(CheckpointCtl {
            every: 256,
            sink: &mut sink,
            resume: None,
        }),
    );
    assert_eq!(rep_a.sim, rep_b.sim, "checkpointing perturbed the run");
    assert_eq!(rep_a.cycles, rep_b.cycles);
    assert_eq!(rep_a.mem, rep_b.mem);
    assert_eq!(gpu_b.mem().gmem().read_u32(counter_b), 128);
    assert!(
        snaps.len() >= 2,
        "lock contention should outlast 512 cycles"
    );

    // Run C: resume from a middle snapshot; stats and memory must match.
    let mid = &snaps[snaps.len() / 2];
    let (mut gpu_c, counter_c, _) = setup();
    let rep_c = run_one(
        &mut gpu_c,
        &kernel,
        &launch,
        Some(CheckpointCtl {
            every: 0,
            sink: &mut |_, _| {},
            resume: Some(&mid.1),
        }),
    );
    assert_eq!(rep_a.sim, rep_c.sim, "resumed run diverged");
    assert_eq!(rep_a.cycles, rep_c.cycles);
    assert_eq!(rep_a.mem, rep_c.mem);
    assert_eq!(rep_a.confirmed_sibs, rep_c.confirmed_sibs);
    assert_eq!(gpu_c.mem().gmem().read_u32(counter_c), 128);
    assert_eq!(
        gpu_a.mem().gmem().image(),
        gpu_c.mem().gmem().image(),
        "device memory diverged after resume"
    );
}
