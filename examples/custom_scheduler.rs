//! Domain example: plugging a *custom* warp-scheduling policy into the
//! simulator — the extension point BOWS itself uses. Implements a toy
//! "random-ish" policy and races it against GTO and BOWS on the bank-
//! transfer (ATM) workload.
//!
//! ```sh
//! cargo run --release --example custom_scheduler
//! ```

use bows_sim::prelude::*;
use simt_core::{IssueInfo, SchedCtx, SchedulerPolicy, WarpSet};

/// A deliberately naive policy: xorshift over eligible warps. Useful as a
/// "no intelligence" control when evaluating scheduling effects.
struct XorShift {
    state: u64,
}

impl XorShift {
    fn new() -> XorShift {
        XorShift { state: 0x9e3779b9 }
    }
}

impl SchedulerPolicy for XorShift {
    fn name(&self) -> String {
        "xorshift".to_string()
    }

    // `eligible` is a bitmask of this unit's ready warp slots; iterating it
    // yields slots in ascending order.
    fn pick(&mut self, _ctx: &SchedCtx<'_>, eligible: WarpSet) -> Option<usize> {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        eligible
            .iter()
            .nth((self.state % eligible.len() as u64) as usize)
    }

    fn on_issue(&mut self, _ctx: &SchedCtx<'_>, _warp: usize, _info: &IssueInfo) {}
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = GpuConfig::gtx480();
    let atm = BankTransfer::with_params(12288, 1, 512, 256);

    println!("ATM (nested-lock bank transfers) under three schedulers:\n");
    let mut rows: Vec<(String, u64, u64)> = Vec::new();

    // Custom policy, wired through the same factory interface BOWS uses.
    let custom = run_workload(
        &cfg,
        &atm,
        &|| Box::new(XorShift::new()),
        &simt_core::static_sib_detector,
    )?;
    custom.verified.as_ref().map_err(|e| e.clone())?;
    rows.push(("xorshift".into(), custom.cycles, custom.sim.thread_inst));

    let gto = run_baseline(&cfg, &atm, BasePolicy::Gto)?;
    gto.verified.as_ref().map_err(|e| e.clone())?;
    rows.push(("gto".into(), gto.cycles, gto.sim.thread_inst));

    // And BOWS can wrap the custom policy too:
    let bows_custom = run_workload(
        &cfg,
        &atm,
        &|| {
            Box::new(Bows::new(
                Box::new(XorShift::new()),
                DelayMode::Adaptive(AdaptiveConfig::default()),
            ))
        },
        &bows_sim::bows::ddos_factory(DdosConfig::default(), cfg.warps_per_sm()),
    )?;
    bows_custom.verified.as_ref().map_err(|e| e.clone())?;
    rows.push((
        "bows(xorshift)".into(),
        bows_custom.cycles,
        bows_custom.sim.thread_inst,
    ));

    println!("{:>16} {:>12} {:>14}", "policy", "cycles", "thread_inst");
    for (name, cycles, inst) in &rows {
        println!("{name:>16} {cycles:>12} {inst:>14}");
    }
    println!(
        "\nBOWS composes over *any* SchedulerPolicy — including yours — \n\
         exactly as it wraps LRR/GTO/CAWA in the paper."
    );
    Ok(())
}
