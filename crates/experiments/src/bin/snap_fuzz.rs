//! `snap_fuzz` — seeded corruption fuzz for the snapshot decoder.
//!
//! Takes real mid-run snapshots of a contended sync kernel, then feeds
//! seeded truncations and bit-flips through the two decode layers and
//! demands graceful failure at each:
//!
//! * **envelope layer** — any damaged *file* image (truncated anywhere,
//!   any single bit flipped) must be rejected by
//!   [`simt_snap::decode_envelope`] with a structured
//!   [`simt_snap::SnapshotError`]; the FNV-1a checksum makes this total.
//! * **body layer** — a damaged snapshot *body* handed to
//!   `Gpu::run_with_checkpoints` as a resume image must never panic; when
//!   it is rejected the error must be `SimError::Snapshot`, and the
//!   rejection must leave the GPU unmutated — a fresh run on the same GPU
//!   afterwards must be bit-identical to a control run. (A flip that
//!   lands in a don't-care or still-plausible field may restore and run;
//!   determinism then makes the outcome well-defined, and the fuzz only
//!   demands it be panic-free and structured.)
//!
//! The whole run is a pure function of `--seed`/`--count`, so CI replays
//! the identical corruption corpus on every commit. Exits 0 when every
//! case degrades gracefully, 1 otherwise, 2 on usage errors.

use simt_core::{sched::BasePolicy, CheckpointCtl, Gpu, GpuConfig, LaunchSpec, SimError};
use simt_isa::asm::assemble;
use simt_isa::Kernel;
use simt_serve::chaos::splitmix64 as snap_mix;
use simt_snap::{decode_envelope, encode_envelope};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

const LOCK_KERNEL: &str = r#"
    .kernel locked_inc
    .regs 10
    .params 2
        ld.param r1, [0]
        ld.param r2, [4]
        mov r9, 0
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

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\nflags: --seed <n>   --count <n>");
    std::process::exit(2);
}

fn setup() -> (Gpu, LaunchSpec) {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let mutex = gpu.mem_mut().gmem_mut().alloc(1);
    let counter = gpu.mem_mut().gmem_mut().alloc(1);
    let launch = LaunchSpec {
        grid_ctas: 2,
        threads_per_cta: 64,
        params: vec![mutex as u32, counter as u32],
    };
    (gpu, launch)
}

fn run(gpu: &mut Gpu, kernel: &Kernel, launch: &LaunchSpec, ctl: Option<CheckpointCtl<'_>>) -> Result<simt_core::KernelReport, SimError> {
    gpu.run_with_checkpoints(
        kernel,
        launch,
        &|| BasePolicy::Gto.build(50_000),
        &simt_core::static_sib_detector,
        ctl,
    )
}

fn main() -> ExitCode {
    let mut seed = 1u64;
    let mut count = 500u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--seed" => seed = val("--seed").parse().unwrap_or_else(|_| usage_error("bad --seed")),
            "--count" => {
                count = val("--count").parse().unwrap_or_else(|_| usage_error("bad --count"));
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }

    let kernel = assemble(LOCK_KERNEL).expect("fixture kernel assembles");

    // Harvest real snapshots and the control outcome.
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let (mut gpu, launch) = setup();
    let mut sink = |_c: u64, b: &[u8]| bodies.push(b.to_vec());
    let control = run(
        &mut gpu,
        &kernel,
        &launch,
        Some(CheckpointCtl {
            every: 128,
            sink: &mut sink,
            resume: None,
        }),
    )
    .expect("control run completes");
    let control_mem = gpu.mem().gmem().image().to_vec();
    assert!(!bodies.is_empty(), "fixture must produce mid-run snapshots");

    let mut violations = 0u64;
    let mut envelope_cases = 0u64;
    let mut body_rejected = 0u64;
    let mut body_restored = 0u64;
    for case in 0..count {
        let r = snap_mix(seed.wrapping_add(case.wrapping_mul(0x9e37_79b9)));
        let body = &bodies[(r as usize) % bodies.len()];

        if case % 2 == 0 {
            // Envelope layer: corrupt the file image.
            let mut file = encode_envelope(body);
            if r & 1 == 0 {
                file.truncate((snap_mix(r) as usize) % file.len());
            } else {
                let bit = (snap_mix(r) as usize) % (file.len() * 8);
                file[bit / 8] ^= 1 << (bit % 8);
            }
            envelope_cases += 1;
            match catch_unwind(AssertUnwindSafe(|| decode_envelope(&file).map(<[u8]>::to_vec))) {
                Ok(Err(_structured)) => {}
                Ok(Ok(_)) => {
                    eprintln!("case {case}: corrupted envelope decoded successfully");
                    violations += 1;
                }
                Err(_) => {
                    eprintln!("case {case}: decode_envelope panicked");
                    violations += 1;
                }
            }
        } else {
            // Body layer: corrupt the decoded body and try to resume it.
            let mut bad = body.clone();
            if r & 1 == 0 {
                bad.truncate((snap_mix(r) as usize) % bad.len());
            } else {
                let bit = (snap_mix(r) as usize) % (bad.len() * 8);
                bad[bit / 8] ^= 1 << (bit % 8);
            }
            let (mut victim, victim_launch) = setup();
            let mut nosink = |_c: u64, _b: &[u8]| {};
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run(
                    &mut victim,
                    &kernel,
                    &victim_launch,
                    Some(CheckpointCtl {
                        every: 0,
                        sink: &mut nosink,
                        resume: Some(&bad),
                    }),
                )
            }));
            match outcome {
                Err(_) => {
                    eprintln!("case {case}: resume of corrupted body panicked");
                    violations += 1;
                }
                Ok(Err(SimError::Snapshot { .. })) => {
                    // Structured rejection. The GPU must be unmutated: a
                    // fresh run on it must match the control bit-exactly.
                    body_rejected += 1;
                    match run(&mut victim, &kernel, &victim_launch, None) {
                        Ok(rep)
                            if rep.cycles == control.cycles
                                && rep.sim == control.sim
                                && victim.mem().gmem().image() == &control_mem[..] => {}
                        Ok(_) => {
                            eprintln!(
                                "case {case}: rejected resume left partial state behind \
                                 (fresh run diverged from control)"
                            );
                            violations += 1;
                        }
                        Err(e) => {
                            eprintln!("case {case}: GPU unusable after rejected resume: {e}");
                            violations += 1;
                        }
                    }
                }
                Ok(Err(e)) => {
                    // A flip that survives parsing may put the machine in a
                    // state that then fails deterministically (deadlock,
                    // cycle limit…). Structured is what matters.
                    let _ = e;
                    body_restored += 1;
                }
                Ok(Ok(_)) => body_restored += 1,
            }
        }
    }

    println!(
        "{{\"drill\":\"snap_fuzz\",\"seed\":{seed},\"count\":{count},\
         \"envelope_cases\":{envelope_cases},\"body_rejected\":{body_rejected},\
         \"body_restored_or_failed_structured\":{body_restored},\
         \"violations\":{violations}}}"
    );
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
