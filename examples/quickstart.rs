//! Quickstart: write a spin-lock kernel in the PTX-like DSL, run it under a
//! baseline scheduler and under BOWS+DDOS, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bows_sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A kernel: every thread increments a shared counter under a global
    //    spin lock (the canonical fine-grained-synchronization pattern the
    //    paper targets; note the lock release *inside* the loop, avoiding
    //    SIMT-induced deadlock, and the annotations feeding the stats).
    let kernel = assemble(
        r#"
        .kernel locked_inc
        .regs 10
        .params 2
            ld.param r1, [0]       ; &mutex
            ld.param r2, [4]       ; &counter
            mov r9, 0              ; done = false
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
        "#,
    )?;

    // 2. A GPU (the paper's GTX480 preset) with the lock and counter in
    //    device memory.
    let cfg = GpuConfig::gtx480();
    let threads = 4096;

    let run = |use_bows: bool| -> Result<(u64, u64, u32), SimError> {
        let mut gpu = Gpu::new(cfg.clone());
        let mutex = gpu.mem_mut().gmem_mut().alloc(1);
        let counter = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: threads / 256,
            threads_per_cta: 256,
            params: vec![mutex as u32, counter as u32],
        };
        let report = if use_bows {
            let warps = cfg.warps_per_sm();
            gpu.run(
                &kernel,
                &launch,
                &bows_sim::bows::policy_factory(
                    BasePolicy::Gto,
                    Some(DelayMode::Adaptive(AdaptiveConfig::default())),
                    cfg.gto_rotate_period,
                ),
                &bows_sim::bows::ddos_factory(DdosConfig::default(), warps),
            )?
        } else {
            gpu.run_baseline(&kernel, &launch, BasePolicy::Gto)?
        };
        Ok((
            report.cycles,
            report.sim.thread_inst,
            gpu.mem().gmem().read_u32(counter),
        ))
    };

    let (base_cycles, base_inst, base_count) = run(false)?;
    let (bows_cycles, bows_inst, bows_count) = run(true)?;

    println!("{threads} threads incrementing one counter under a spin lock:");
    println!("  GTO baseline : {base_cycles:>9} cycles, {base_inst:>9} thread instructions");
    println!("  GTO + BOWS   : {bows_cycles:>9} cycles, {bows_inst:>9} thread instructions");
    println!(
        "  speedup {:.2}x, {:.2}x fewer instructions",
        base_cycles as f64 / bows_cycles as f64,
        base_inst as f64 / bows_inst as f64
    );
    assert_eq!(
        base_count, threads as u32,
        "mutual exclusion held (baseline)"
    );
    assert_eq!(bows_count, threads as u32, "mutual exclusion held (BOWS)");
    println!("  counter = {bows_count} (exact under both schedulers)");
    Ok(())
}
