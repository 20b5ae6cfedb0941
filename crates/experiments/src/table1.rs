//! Table I: DDOS sensitivity to its design parameters — hashing function,
//! hash width, confidence threshold, history length, and time sharing.
//! Reports, per configuration, the average True Spin Detection Rate (TSDR),
//! False Spin Detection Rate (FSDR) and Detection Phase Ratio (DPR) over
//! the benchmark suite (sync kernels for TSDR; both suites for FSDR).
//!
//! All DDOS variants observe the *same* execution passively (a fan-out
//! detector), so the whole table costs one simulation per workload.

use crate::paper::Paper;
use crate::{grid, pct, r3, Table};
use bows::{Ddos, DdosConfig, HashKind};
use simt_core::{BasePolicy, Gpu, GpuConfig, SpinDetector};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use workloads::{rodinia_suite, sync_suite, Workload};

/// `(config index, branch pc) -> earliest confirmation cycle` across SMs.
type Sink = Arc<Mutex<HashMap<(usize, usize), u64>>>;

/// Runs many DDOS instances against one execution; is_sib is always false
/// (pure observation — scheduling is unaffected). Confirmations are merged
/// into the shared sink when the simulator collects per-SM reports at the
/// end of the run ([`SpinDetector::confirmed_sibs`]): an explicit,
/// idempotent min-merge rather than a Drop-time side effect, so the merge
/// point is deterministic and safe to drive from harness worker threads.
struct FanOut {
    dets: Vec<Ddos>,
    sink: Sink,
}

impl FanOut {
    fn merge_into_sink(&self) {
        let mut sink = self.sink.lock().expect("sink lock");
        for (i, d) in self.dets.iter().enumerate() {
            for (pc, at) in d.confirmed_sibs() {
                sink.entry((i, pc))
                    .and_modify(|c| *c = (*c).min(at))
                    .or_insert(at);
            }
        }
    }
}

impl SpinDetector for FanOut {
    fn on_setp(&mut self, now: u64, warp: usize, pc: usize, srcs: [u32; 2]) {
        for d in &mut self.dets {
            d.on_setp(now, warp, pc, srcs);
        }
    }

    fn on_branch(&mut self, now: u64, warp: usize, pc: usize, target: usize, taken: bool) {
        for d in &mut self.dets {
            d.on_branch(now, warp, pc, target, taken);
        }
    }

    fn is_sib(&self, _pc: usize) -> bool {
        false
    }

    fn warp_reset(&mut self, warp: usize) {
        for d in &mut self.dets {
            d.warp_reset(warp);
        }
    }

    fn confirmed_sibs(&self) -> Vec<(usize, u64)> {
        self.merge_into_sink();
        // The fan-out rows are reported via the sink, not the kernel report.
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "ddos-fanout"
    }
}

/// One Table I row: a named DDOS configuration.
struct Variant {
    group: &'static str,
    label: String,
    cfg: DdosConfig,
}

fn variants() -> Vec<Variant> {
    let mut v = Vec::new();
    let base = DdosConfig::default(); // XOR, m=k=8, l=8, t=4, no sharing
    let mk = |group, label: String, cfg| Variant { group, label, cfg };
    // Hashing function at t=4, l=8.
    for (h, bits) in [
        (HashKind::Xor, 4),
        (HashKind::Xor, 8),
        (HashKind::Modulo, 4),
        (HashKind::Modulo, 8),
    ] {
        v.push(mk(
            "hash h (t=4, l=8)",
            format!("{}, m=k={}", h.name(), bits),
            DdosConfig {
                hash: h,
                path_bits: bits,
                value_bits: bits,
                ..base
            },
        ));
    }
    // Hash width at XOR.
    for bits in [2u8, 3, 4, 8] {
        v.push(mk(
            "width m=k (t=4, l=8, xor)",
            format!("m=k={bits}"),
            DdosConfig {
                path_bits: bits,
                value_bits: bits,
                ..base
            },
        ));
    }
    // Confidence threshold.
    for t in [2u32, 4, 8, 12] {
        v.push(mk(
            "threshold t (m=k=8, l=8, xor)",
            format!("t={t}"),
            DdosConfig {
                confidence: t,
                ..base
            },
        ));
    }
    // History length.
    for l in [1usize, 2, 4, 8] {
        v.push(mk(
            "history length l (t=4, m=k=8, xor)",
            format!("l={l}"),
            DdosConfig {
                history_len: l,
                ..base
            },
        ));
    }
    // Time sharing.
    for (sh, bits) in [(false, 8u8), (true, 4), (true, 8)] {
        v.push(mk(
            "time sharing (l=8, t=4, xor, epoch=1000)",
            format!("sh={}, m=k={}", u8::from(sh), bits),
            DdosConfig {
                path_bits: bits,
                value_bits: bits,
                time_share_epoch: sh.then_some(1000),
                ..base
            },
        ));
    }
    v
}

#[derive(Default, Clone, Copy)]
struct Acc {
    tsdr_sum: f64,
    tsdr_n: usize,
    fsdr_sum: f64,
    fsdr_n: usize,
    dpr_true_sum: f64,
    dpr_true_n: usize,
    dpr_false_sum: f64,
    dpr_false_n: usize,
}

/// Table I, as `paper table1` prints it.
pub(crate) fn render(p: &mut Paper) -> String {
    let opts = &p.opts;
    let cfg = GpuConfig::gtx480();
    let vars = variants();

    let mut acc = vec![Acc::default(); vars.len()];
    let mut workload_list: Vec<(Box<dyn Workload>, bool)> = Vec::new();
    for w in sync_suite(opts.scale) {
        workload_list.push((w, true));
    }
    for w in rodinia_suite(opts.scale) {
        workload_list.push((w, false));
    }

    // One harness cell per workload: every DDOS variant observes that
    // workload's single execution through the fan-out detector, so the
    // whole table still costs one simulation per workload.
    let det_cfgs: Vec<DdosConfig> = vars.iter().map(|v| v.cfg).collect();
    let cell_results = grid::parallel_map(&workload_list, |_, (w, _)| {
        let sink: Sink = Arc::new(Mutex::new(HashMap::new()));
        let warps = cfg.warps_per_sm();
        let sink_for_factory = Arc::clone(&sink);
        let det_cfgs = &det_cfgs;
        let mut gpu = Gpu::new(cfg.clone());
        let prepared = w.prepare(&mut gpu);
        let rotate = cfg.gto_rotate_period;
        let mut stages_meta = Vec::new();
        for stage in &prepared.stages {
            let report = gpu
                .run(
                    &stage.kernel,
                    &stage.launch,
                    &move || BasePolicy::Gto.build(rotate),
                    &|_k| {
                        Box::new(FanOut {
                            dets: det_cfgs.iter().map(|&c| Ddos::new(c, warps)).collect(),
                            sink: Arc::clone(&sink_for_factory),
                        })
                    },
                )
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            stages_meta.push((
                stage.kernel.true_sibs.clone(),
                stage.kernel.backward_branches(),
                report,
            ));
        }
        let verify_err = (prepared.verify)(&gpu).err();
        let confirmed = sink.lock().expect("sink lock").clone();
        (stages_meta, confirmed, verify_err)
    });

    for ((w, is_sync), (stages_meta, confirmed, verify_err)) in
        workload_list.iter().zip(&cell_results)
    {
        if let Some(e) = verify_err {
            eprintln!("WARNING: {} failed verification: {e}", w.name());
        }
        for (i, a) in acc.iter_mut().enumerate() {
            for (true_sibs, backs, report) in stages_meta {
                for &pc in backs {
                    let Some(tl) = report.branch_log.get(pc) else {
                        continue;
                    };
                    let hit = confirmed.get(&(i, pc));
                    let lifetime = (tl.last - tl.first).max(1) as f64;
                    if true_sibs.contains(&pc) {
                        if *is_sync {
                            a.tsdr_n += 1;
                            if let Some(&at) = hit {
                                a.tsdr_sum += 1.0;
                                a.dpr_true_sum +=
                                    (at.saturating_sub(tl.first) as f64 / lifetime).min(1.0);
                                a.dpr_true_n += 1;
                            }
                        }
                    } else {
                        a.fsdr_n += 1;
                        if let Some(&at) = hit {
                            a.fsdr_sum += 1.0;
                            a.dpr_false_sum +=
                                (at.saturating_sub(tl.first) as f64 / lifetime).min(1.0);
                            a.dpr_false_n += 1;
                        }
                    }
                }
            }
        }
    }

    let mut t = Table::new(&[
        "sweep",
        "config",
        "avg_TSDR",
        "avg_DPR(true)",
        "avg_FSDR",
        "avg_DPR(false)",
    ]);
    for (v, a) in vars.iter().zip(&acc) {
        let div = |s: f64, n: usize| if n == 0 { 0.0 } else { s / n as f64 };
        t.row(vec![
            v.group.to_string(),
            v.label.clone(),
            pct(div(a.tsdr_sum, a.tsdr_n)),
            r3(div(a.dpr_true_sum, a.dpr_true_n)),
            pct(div(a.fsdr_sum, a.fsdr_n)),
            r3(div(a.dpr_false_sum, a.dpr_false_n)),
        ]);
    }
    format!(
        "Table I: DDOS sensitivity ({} configurations observed passively)\n\n{}\
         Paper reference: XOR m=k=8 reaches TSDR=100% with FSDR=0%; MODULO\n\
         hashing false-detects (MS/HL); l<=2 detects nothing; larger t\n\
         lowers FSDR but lengthens the detection phase.\n",
        vars.len(),
        t.render(opts.csv)
    )
}
