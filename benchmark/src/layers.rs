//! Per-layer legs of the traced run: each times one crate's public calls
//! from outside, or runs the same cells down an alternate path (other
//! engine, more threads, through a checkpoint) and checks nothing
//! simulated moved.

use crate::harness::Opts;
use crate::metrics::Metrics;
use crate::sim::{self, CellId, CellStats, Pass, Plan};
use crate::span::Tracer;
use crate::stats;
use simt_core::{CheckpointCtl, Engine, Gpu, GpuConfig, SimStats};
use simt_isa::Kernel;
use simt_mem::MemStats;
use std::cell::Cell;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// BOWS over GTO on the eight busy-wait kernels, the paper's Figure 9.
/// The model is validated against it in shape only.
pub const PAPER_FIG9_SPEEDUP: f64 = 1.4;

/// The service's in-flight checkpoint cadence (`PoolConfig::default()`).
const CHECKPOINT_EVERY: u64 = 32_768;

/// Exact simulated counters of the `simt-core`, `simt-mem` and `bows`
/// layers, summed over a pass.
pub fn simulated_counters(m: &mut Metrics, sim: &SimStats, mem: &MemStats, confirmed_sibs: u64) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let [_, data, _, _, backoff, arbitration] = sim.stall_breakdown();
    m.set("core.ipc", ratio(sim.issued_inst, sim.cycles));
    m.set("core.stall_data_share", data);
    m.set("core.stall_arbitration_share", arbitration);
    m.set("mem.l1_hit_rate", mem.l1_hit_rate());
    m.set("mem.l2_hit_rate", ratio(mem.l2_hits, mem.l2_accesses));
    m.set("mem.atomic_tx", mem.atomic_transactions as f64);
    m.set("mem.dram_reads", mem.dram_reads as f64);
    let lock_fails = mem.lock_intra_fail + mem.lock_inter_fail;
    m.set(
        "mem.lock_fail_ratio",
        ratio(lock_fails, lock_fails + mem.lock_success),
    );
    m.set("bows.backed_off_fraction", sim.backed_off_fraction());
    m.set("bows.stall_backoff_share", backoff);
    m.set("bows.sib_inst", sim.sib_inst as f64);
    m.set("bows.confirmed_sibs", confirmed_sibs as f64);
}

/// Every kernel a plan launches, one per (group, workload) stage.
pub fn plan_kernels(plan: &Plan) -> Vec<Kernel> {
    let mut kernels = Vec::new();
    for g in &plan.groups {
        for w in &g.suite {
            let mut gpu = Gpu::new(g.cfg.clone());
            kernels.extend(w.prepare(&mut gpu).stages.into_iter().map(|s| s.kernel));
        }
    }
    kernels
}

/// Best-of-five host microseconds for one call of `f`.
fn best_us<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// `simt-isa` and `simt-analyze`: assemble, decode and lint each kernel;
/// the metric is the median kernel.
///
/// # Errors
///
/// A kernel whose disassembly does not assemble back.
pub fn isa_and_lint(m: &mut Metrics, kernels: &[Kernel], t: &mut Tracer) -> Result<(), String> {
    let (mut asm, mut dec, mut lint) = (Vec::new(), Vec::new(), Vec::new());
    t.span("layers.isa_and_lint", 0, |_| {
        for k in kernels {
            let text = k.disasm();
            let back = simt_isa::asm::assemble(&text).map_err(|e| format!("{}: {e}", k.name))?;
            if back.insts.len() != k.insts.len() {
                return Err(format!("{}: disassembly does not round-trip", k.name));
            }
            asm.push(best_us(|| simt_isa::asm::assemble(black_box(&text))));
            dec.push(best_us(|| simt_isa::DecodedKernel::decode(black_box(k))));
            lint.push(best_us(|| simt_analyze::analyze_insts(black_box(&k.insts))));
        }
        Ok(())
    })?;
    m.set("isa.assemble_us", stats::median(&asm)?);
    m.set("isa.decode_us", stats::median(&dec)?);
    m.set("analyze.lint_us", stats::median(&lint)?);
    Ok(())
}

fn time_cells(
    plan: &Plan,
    cells: &[CellId],
    vary: impl Fn(&mut GpuConfig),
) -> Result<(f64, Vec<CellStats>), String> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(cells.len());
    for &id in cells {
        let mut cfg = plan.parts(id).0.clone();
        vary(&mut cfg);
        out.push(sim::run_cell_on(plan, id, &cfg)?);
    }
    Ok((t0.elapsed().as_secs_f64(), out))
}

/// `simt-core`'s alternate paths over `cells`: `Engine::Cycle` against
/// `Engine::Skip`, and two SM threads against one. Returns whether every
/// statistic stayed identical.
pub fn alternate_paths(
    m: &mut Metrics,
    plan: &Plan,
    cells: &[CellId],
    t: &mut Tracer,
) -> Result<bool, String> {
    t.span("layers.alternate_paths", 0, |_| {
        let (skip_s, reference) = time_cells(plan, cells, |_| {})?;
        let (cycle_s, by_cycle) = time_cells(plan, cells, |c| c.engine = Engine::Cycle)?;
        let (two_s, by_two) = time_cells(plan, cells, |c| c.sm_threads = 2)?;
        m.set("core.skip_speedup", cycle_s / skip_s);
        m.set("core.smthreads2_speedup", skip_s / two_s);
        Ok(reference == by_cycle && reference == by_two)
    })
}

/// `bows`: host time of the BOWS cells over the plain-GTO cells, on
/// kernels where there is nothing to back off from.
pub fn bows_host_overhead(m: &mut Metrics, plan: &Plan, pass: &Pass) -> Result<(), String> {
    let (mut gto, mut bows) = (0.0, 0.0);
    for (&id, &wall) in plan.cells().iter().zip(&pass.cell_wall_s) {
        let sched = plan.parts(id).2;
        match (sched.bows.is_some(), sched.force_ddos) {
            (true, _) => bows += wall,
            (false, false) => gto += wall,
            (false, true) => {}
        }
    }
    if gto <= 0.0 || bows <= 0.0 {
        return Err("plan has no gto / gto+bows pair".into());
    }
    m.set("bows.host_overhead_ratio", bows / gto);
    Ok(())
}

/// `experiments::grid`: the same pass on two grid workers. Returns whether
/// the results equal the serial pass's.
pub fn grid_jobs2(
    m: &mut Metrics,
    plan: &Plan,
    order: &[usize],
    serial: &Pass,
    t: &mut Tracer,
) -> Result<bool, String> {
    t.span("layers.grid_jobs2", 0, |_| {
        let ids = plan.cells();
        let t0 = Instant::now();
        let results =
            experiments::grid::parallel_map_with(2, order, |_, &ci| sim::run_cell(plan, ids[ci]));
        let wall_s = t0.elapsed().as_secs_f64();
        m.set("grid.jobs2_speedup", serial.wall_s / wall_s);
        for (&ci, r) in order.iter().zip(results) {
            if r? != serial.cells[ci] {
                return Ok(false);
            }
        }
        Ok(true)
    })
}

struct Snapshot {
    path: PathBuf,
    bytes: usize,
    /// Sink entry and exit, seconds since the launch began.
    entered_s: f64,
    left_s: f64,
}

/// Wall seconds and final statistics of one launch.
struct Launched {
    wall_s: f64,
    end: (u64, SimStats, MemStats),
}

/// One launch of a baseline cell's first kernel on a fresh GPU, optionally
/// under a checkpoint controller. `started` is stamped as the launch
/// begins, so a sink can date its calls; the wall time covers the launch
/// alone.
fn launch(
    plan: &Plan,
    id: CellId,
    ctl: Option<CheckpointCtl<'_>>,
    started: &Cell<Instant>,
) -> Result<Launched, String> {
    let (cfg, w, sched) = plan.parts(id);
    let mut gpu = Gpu::new(cfg.clone());
    let prepared = w.prepare(&mut gpu);
    let stage = &prepared.stages[0];
    let rotate = cfg.gto_rotate_period;
    let base = sched.base;
    started.set(Instant::now());
    let report = gpu
        .run_with_checkpoints(
            &stage.kernel,
            &stage.launch,
            &move || base.build(rotate),
            &|k: &Kernel| Box::new(simt_core::StaticSibDetector::new(k.true_sibs.clone())),
            ctl,
        )
        .map_err(|e| format!("{}: {e}", plan.label(id)))?;
    Ok(Launched {
        wall_s: started.get().elapsed().as_secs_f64(),
        end: (report.cycles, report.sim, report.mem),
    })
}

/// A launch that writes every snapshot to `dir`, enveloped and atomically.
fn launch_saving(
    plan: &Plan,
    id: CellId,
    every: u64,
    dir: &Path,
) -> Result<(Launched, Vec<Snapshot>), String> {
    let started = Cell::new(Instant::now());
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut write_error = None;
    let mut save = |cycle: u64, body: &[u8]| {
        let entered_s = started.get().elapsed().as_secs_f64();
        let path = dir.join(format!("{cycle}.bsnp"));
        let data = simt_snap::encode_envelope(body);
        if let Err(e) = simt_snap::atomic_write(&path, &data) {
            write_error = Some(e.to_string());
        }
        snaps.push(Snapshot {
            path,
            bytes: data.len(),
            entered_s,
            left_s: started.get().elapsed().as_secs_f64(),
        });
    };
    let ctl = CheckpointCtl {
        every,
        sink: &mut save,
        resume: None,
    };
    let launched = launch(plan, id, Some(ctl), &started)?;
    match write_error {
        Some(e) => Err(format!("writing a snapshot: {e}")),
        None => Ok((launched, snaps)),
    }
}

/// A launch resumed from the snapshot file at `path`; also the seconds
/// from opening the file to the resumed run's next checkpoint boundary.
fn launch_resumed(
    plan: &Plan,
    id: CellId,
    every: u64,
    path: &Path,
) -> Result<(Launched, f64), String> {
    let t0 = Instant::now();
    let data = simt_snap::read_file(path).map_err(|e| e.to_string())?;
    let body = simt_snap::decode_envelope(&data).map_err(|e| e.to_string())?;
    let read_s = t0.elapsed().as_secs_f64();
    let started = Cell::new(Instant::now());
    let mut boundary_s = None;
    let mut watch = |_: u64, _: &[u8]| {
        boundary_s.get_or_insert(started.get().elapsed().as_secs_f64());
    };
    let ctl = CheckpointCtl {
        every,
        sink: &mut watch,
        resume: Some(body),
    };
    let launched = launch(plan, id, Some(ctl), &started)?;
    let boundary_s = boundary_s.ok_or("the resumed run never reached a boundary")?;
    Ok((launched, read_s + boundary_s))
}

/// `simt-snap`: one cell run plain, then checkpointing every
/// [`CHECKPOINT_EVERY`] cycles into enveloped, atomically written files,
/// then resumed from the middle snapshot. Returns whether all three end
/// in identical statistics.
pub fn checkpoint(
    m: &mut Metrics,
    plan: &Plan,
    id: CellId,
    opts: &Opts,
    t: &mut Tracer,
) -> Result<bool, String> {
    let dir = opts
        .out_dir
        .join(format!("tmp-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = t.span("layers.checkpoint", 0, |_| {
        checkpoint_legs(m, plan, id, &dir)
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn checkpoint_legs(m: &mut Metrics, plan: &Plan, id: CellId, dir: &Path) -> Result<bool, String> {
    let sched = plan.parts(id).2;
    if sched.bows.is_some() || sched.force_ddos {
        return Err("the checkpoint leg runs a baseline cell".into());
    }
    // Every leg runs twice and the faster run counts: the figures below
    // are differences of like runs, which one disturbed run would swamp.
    let started = Cell::new(Instant::now());
    let plain = [
        launch(plan, id, None, &started)?,
        launch(plan, id, None, &started)?,
    ];
    let cycles = plain[0].end.0;
    // Tiny-scale kernels end before the service's cadence comes round.
    let every = if cycles >= 4 * CHECKPOINT_EVERY {
        CHECKPOINT_EVERY
    } else {
        (cycles / 4).max(1)
    };
    let saved = [
        launch_saving(plan, id, every, dir)?,
        launch_saving(plan, id, every, dir)?,
    ];
    let snaps = &saved[0].1;
    if snaps.len() < 2 || saved[1].1.len() != snaps.len() {
        return Err(format!("{}: too short to checkpoint twice", plan.label(id)));
    }
    let mid = (snaps.len() - 1) / 2;
    let resumed = [
        launch_resumed(plan, id, every, &snaps[mid].path)?,
        launch_resumed(plan, id, every, &snaps[mid].path)?,
    ];

    let min = |a: f64, b: f64| a.min(b);
    let plain_s = min(plain[0].wall_s, plain[1].wall_s);
    let saved_s = min(saved[0].0.wall_s, saved[1].0.wall_s);
    // The restore cost is the time a resumed run takes from opening the
    // file to the next boundary, less the time the checkpointing run took
    // between the same two boundaries: both simulate the same cycles and
    // serialize the same next snapshot.
    let gap = |snaps: &[Snapshot]| snaps[mid + 1].entered_s - snaps[mid].left_s;
    let restore_s = min(resumed[0].1, resumed[1].1) - min(gap(&saved[0].1), gap(&saved[1].1));
    let save_ms: Vec<f64> = saved
        .iter()
        .flat_map(|(_, snaps)| snaps.iter().map(|s| (s.left_s - s.entered_s) * 1e3))
        .collect();
    let sizes: Vec<f64> = snaps.iter().map(|s| s.bytes as f64).collect();
    m.set("snap.save_ms", stats::median(&save_ms)?);
    m.set("snap.bytes", stats::median(&sizes)?);
    m.set("snap.restore_ms", restore_s * 1e3);
    m.set("snap.overhead_pct", (saved_s / plain_s - 1.0) * 100.0);
    let want = &plain[0].end;
    Ok(plain[1].end == *want
        && saved.iter().all(|(l, _)| l.end == *want)
        && resumed.iter().all(|(l, _)| l.end == *want))
}

/// Write the run's spans to `out/trace-<workload>.jsonl` and print, per
/// span name, its total and self time.
///
/// # Errors
///
/// The I/O failure.
pub fn write_trace(opts: &Opts, t: &Tracer) -> Result<(), String> {
    for (name, self_ns) in t.self_ns_by_name() {
        println!(
            "# span {name:<24} total {:>12.3} ms   self {:>12.3} ms",
            t.total_ns(name) as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    t.write_jsonl(&opts.out_dir.join(format!("trace-{}.jsonl", opts.workload)))
}
