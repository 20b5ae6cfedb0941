//! The three simulator workloads: `dense_sync`, `dense_alu`,
//! `sparse_latency`. Each is a fixed list of (GPU, kernel, scheduler)
//! cells run serially in one process — `grid::set_jobs(1)`,
//! `sm_threads = 1`, `Engine::Skip` set explicitly — so host time per
//! simulated event is what moves, not the harness.

use crate::harness::{timed_passes, Opts, AGREE};
use crate::metrics::{Metrics, Outcome};
use crate::span::Tracer;
use crate::{host, layers, stats};
use experiments::SchedConfig;
use simt_core::{BasePolicy, Engine, Gpu, GpuConfig, ProfileReport, SimStats};
use simt_mem::MemStats;
use simt_serve::chaos::splitmix64;
use std::time::Instant;
use workloads::{rodinia_suite, sync_suite, Scale, Workload};

/// One (GPU × suite × schedulers) block of cells.
pub struct Group {
    pub cfg: GpuConfig,
    pub suite: Vec<Box<dyn Workload>>,
    pub scheds: Vec<SchedConfig>,
}

/// A workload's cells and how often a pass runs them.
pub struct Plan {
    pub groups: Vec<Group>,
    /// A pass runs every cell this many times (tiny cells are repeated so
    /// a pass lasts seconds, not milliseconds).
    pub repeats: usize,
}

/// A cell's place in its plan: (group, kernel, scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellId {
    pub group: usize,
    pub kernel: usize,
    pub sched: usize,
}

/// What one cell's simulation produced. Equal simulated state means equal
/// values here, whatever the engine, thread count or pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    pub cycles: u64,
    pub sim: SimStats,
    pub mem: MemStats,
    /// DDOS/static detector confirmations, over the cell's kernels.
    pub confirmed_sibs: u64,
    pub verified: bool,
}

fn pinned(mut cfg: GpuConfig) -> GpuConfig {
    cfg.engine = Engine::Skip;
    cfg.sm_threads = 1;
    cfg.profile = false;
    cfg
}

fn xor_detector_only() -> SchedConfig {
    SchedConfig {
        force_ddos: true,
        ..SchedConfig::baseline(BasePolicy::Gto)
    }
}

impl Plan {
    /// The cells of `workload` at `scale` (`sparse_latency` is tiny-scale
    /// by definition).
    pub fn of(workload: &str, scale: Scale, smoke: bool) -> Plan {
        let gto = SchedConfig::baseline(BasePolicy::Gto);
        let bows = SchedConfig::bows_adaptive(BasePolicy::Gto);
        match workload {
            "dense_sync" => Plan {
                groups: vec![Group {
                    cfg: pinned(GpuConfig::gtx480()),
                    suite: sync_suite(scale),
                    scheds: vec![gto, bows],
                }],
                repeats: 1,
            },
            "dense_alu" => Plan {
                groups: vec![Group {
                    cfg: pinned(GpuConfig::gtx480()),
                    suite: rodinia_suite(scale),
                    scheds: vec![gto, xor_detector_only(), bows],
                }],
                repeats: if smoke { 1 } else { 2 },
            },
            "sparse_latency" => Plan {
                groups: vec![
                    Group {
                        cfg: pinned(GpuConfig::gtx480()),
                        suite: sync_suite(Scale::Tiny),
                        scheds: vec![
                            SchedConfig::baseline(BasePolicy::Lrr),
                            gto,
                            SchedConfig::baseline(BasePolicy::Cawa),
                            bows,
                        ],
                    },
                    Group {
                        cfg: pinned(GpuConfig::gtx1080ti()),
                        suite: sync_suite(Scale::Tiny),
                        scheds: vec![gto],
                    },
                ],
                repeats: if smoke { 2 } else { 48 },
            },
            other => unreachable!("`{other}` is not a simulator workload"),
        }
    }

    /// Every cell, in canonical order.
    pub fn cells(&self) -> Vec<CellId> {
        let mut v = Vec::new();
        for (group, g) in self.groups.iter().enumerate() {
            for kernel in 0..g.suite.len() {
                for sched in 0..g.scheds.len() {
                    v.push(CellId {
                        group,
                        kernel,
                        sched,
                    });
                }
            }
        }
        v
    }

    pub fn parts(&self, id: CellId) -> (&GpuConfig, &dyn Workload, SchedConfig) {
        let g = &self.groups[id.group];
        (&g.cfg, g.suite[id.kernel].as_ref(), g.scheds[id.sched])
    }

    pub fn label(&self, id: CellId) -> String {
        let (cfg, w, sched) = self.parts(id);
        format!("{}/{}/{}", cfg.name, w.name(), sched.label())
    }

    /// The cell of `kernel` under the plain `gto` baseline in group 0.
    pub fn gto_cell(&self, kernel: &str) -> Option<CellId> {
        self.cells().into_iter().find(|&id| {
            let (_, w, sched) = self.parts(id);
            id.group == 0
                && w.name() == kernel
                && sched.bows.is_none()
                && !sched.force_ddos
                && sched.base == BasePolicy::Gto
        })
    }
}

/// Fisher–Yates with the repository's seed mixer.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Run one cell through `experiments::run`, the path every figure binary
/// takes.
pub fn run_cell(plan: &Plan, id: CellId) -> Result<CellStats, String> {
    run_cell_on(plan, id, plan.parts(id).0)
}

/// [`run_cell`] on a variant of the cell's GPU configuration (another
/// engine, another thread count).
pub fn run_cell_on(plan: &Plan, id: CellId, cfg: &GpuConfig) -> Result<CellStats, String> {
    let (_, w, sched) = plan.parts(id);
    let r = experiments::run(cfg, w, sched).map_err(|e| format!("{}: {e}", plan.label(id)))?;
    Ok(CellStats {
        cycles: r.cycles,
        confirmed_sibs: r
            .stages
            .iter()
            .map(|s| s.report.confirmed_sibs.len() as u64)
            .sum(),
        verified: r.verified.is_ok(),
        sim: r.sim,
        mem: r.mem,
    })
}

/// The same cell taken apart at the layer boundaries, a span around each
/// call, with the phase profiler on. Mirrors `experiments::run` +
/// `workloads::run_workload`; the traced pass asserts it reproduces their
/// statistics exactly.
pub fn run_cell_traced(
    plan: &Plan,
    id: CellId,
    tag: u64,
    t: &mut Tracer,
) -> Result<(CellStats, ProfileReport), String> {
    let (cfg, w, sched) = plan.parts(id);
    let cfg = GpuConfig {
        profile: true,
        ..cfg.clone()
    };
    let rotate = cfg.gto_rotate_period;
    let warps = cfg.warps_per_sm();
    t.span("cell", tag, |t| {
        let mut gpu = t.span("core.gpu_new", tag, |_| Gpu::new(cfg.clone()));
        let prepared = t.span("workloads.prepare", tag, |_| w.prepare(&mut gpu));
        let mut stats = CellStats {
            cycles: 0,
            sim: SimStats::default(),
            mem: MemStats::default(),
            confirmed_sibs: 0,
            verified: false,
        };
        let mut profile = ProfileReport::default();
        for stage in &prepared.stages {
            let report = t.span("core.run", tag, |_| {
                if sched.bows.is_some() || sched.force_ddos {
                    gpu.run(
                        &stage.kernel,
                        &stage.launch,
                        &bows::policy_factory(sched.base, sched.bows, rotate),
                        &bows::ddos_factory(sched.ddos, warps),
                    )
                } else {
                    gpu.run_baseline(&stage.kernel, &stage.launch, sched.base)
                }
            });
            let report = report.map_err(|e| format!("{}: {e}", plan.label(id)))?;
            stats.cycles += report.cycles;
            stats.sim.add(&report.sim);
            stats.mem.add(&report.mem);
            stats.confirmed_sibs += report.confirmed_sibs.len() as u64;
            if let Some(p) = &report.profile {
                profile.add(p);
            }
        }
        stats.verified = t.span("workloads.verify", tag, |_| (prepared.verify)(&gpu).is_ok());
        Ok((stats, profile))
    })
}

/// FNV-1a over every cell's cycles, `SimStats` and `MemStats` in canonical
/// cell order. A change that only makes the simulator faster must leave
/// it as it was.
pub fn fingerprint(cells: &[CellStats]) -> u64 {
    let mut w = simt_snap::SnapWriter::new();
    for c in cells {
        w.u64(c.cycles);
        c.sim.save_snap(&mut w);
        c.mem.save_snap(&mut w);
        w.u64(c.confirmed_sibs);
        w.bool(c.verified);
    }
    simt_snap::fnv1a(&w.into_bytes())
}

/// One timed pass: every cell `repeats` times, in seeded order.
pub struct Pass {
    pub wall_s: f64,
    /// Host milliseconds per job, in the order run.
    pub job_ms: Vec<f64>,
    /// Per-cell statistics, canonical order.
    pub cells: Vec<CellStats>,
    /// Per-cell host seconds summed over repeats, canonical order.
    pub cell_wall_s: Vec<f64>,
    /// Phase profile summed over the pass (traced passes only).
    pub profile: ProfileReport,
}

impl Pass {
    pub fn failed(&self, repeats: usize) -> u64 {
        self.cells.iter().filter(|c| !c.verified).count() as u64 * repeats as u64
    }
}

/// The job list of a pass: every cell `repeats` times, shuffled by seed.
/// Every pass of a run uses the same order, so passes are like for like.
pub fn job_order(plan: &Plan, seed: u64) -> Vec<usize> {
    let n = plan.cells().len();
    let mut jobs: Vec<usize> = (0..plan.repeats).flat_map(|_| 0..n).collect();
    shuffle(&mut jobs, seed);
    jobs
}

/// Run one pass. With an enabled tracer the cells go through
/// [`run_cell_traced`], otherwise through [`run_cell`].
///
/// # Errors
///
/// A simulator error, or a cell whose statistics differ between repeats.
pub fn run_pass(plan: &Plan, order: &[usize], t: &mut Tracer) -> Result<Pass, String> {
    let ids = plan.cells();
    let mut cells: Vec<Option<CellStats>> = vec![None; ids.len()];
    let mut cell_wall_s = vec![0.0; ids.len()];
    let mut job_ms = Vec::with_capacity(order.len());
    let mut profile = ProfileReport::default();
    let t0 = Instant::now();
    t.span("pass", 0, |t| {
        for (job, &ci) in order.iter().enumerate() {
            let j0 = Instant::now();
            let stats = if t.enabled() {
                let (stats, p) = run_cell_traced(plan, ids[ci], job as u64, t)?;
                profile.add(&p);
                stats
            } else {
                run_cell(plan, ids[ci])?
            };
            let dt = j0.elapsed().as_secs_f64();
            job_ms.push(dt * 1e3);
            cell_wall_s[ci] += dt;
            match &cells[ci] {
                Some(prev) if *prev != stats => {
                    return Err(format!(
                        "{}: statistics differ between repeats",
                        plan.label(ids[ci])
                    ))
                }
                Some(_) => {}
                None => cells[ci] = Some(stats),
            }
        }
        Ok(())
    })?;
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        job_ms,
        cells: cells
            .into_iter()
            .map(|c| c.expect("every cell runs"))
            .collect(),
        cell_wall_s,
        profile,
    })
}

/// Geometric mean of cycles(gto) ÷ cycles(gto+bows) over the kernels of
/// every group that runs both.
pub fn bows_speedup_gmean(plan: &Plan, cells: &[CellStats]) -> Result<f64, String> {
    let ids = plan.cells();
    let mut ratios = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let (_, _, sched) = plan.parts(id);
        if sched.bows.is_none() || sched.base != BasePolicy::Gto {
            continue;
        }
        let base = ids.iter().position(|&b| {
            let (_, _, s) = plan.parts(b);
            b.group == id.group
                && b.kernel == id.kernel
                && s.bows.is_none()
                && !s.force_ddos
                && s.base == BasePolicy::Gto
        });
        if let Some(b) = base {
            ratios.push(cells[b].cycles as f64 / cells[i].cycles as f64);
        }
    }
    stats::gmean(&ratios)
}

/// Timings of one cell a run must take before the best stands for it.
const MIN_CELL_SAMPLES: usize = 2;

/// Every timing of every cell (each repeat of each pass), ms.
fn cell_timings(plan: &Plan, order: &[usize], passes: &[Pass]) -> Vec<Vec<f64>> {
    let mut timings = vec![Vec::new(); plan.cells().len()];
    for pass in passes {
        for (&ci, &ms) in order.iter().zip(&pass.job_ms) {
            timings[ci].push(ms);
        }
    }
    timings
}

/// Whether a cell's two fastest timings agree.
fn settled(timings: &[f64]) -> bool {
    let mut best = [f64::INFINITY; 2];
    for &t in timings {
        if t < best[0] {
            best = [t, best[0]];
        } else if t < best[1] {
            best[1] = t;
        }
    }
    best[1] <= best[0] * (1.0 + AGREE)
}

/// Time again, for up to `budget_s`, the cells whose two fastest timings
/// disagree, and return how many timings that added.
///
/// The host this runs on is shared: interference only ever adds time, in
/// bursts from milliseconds to a minute long, so the sum over a pass
/// swings by a fifth from run to run while a cell's fastest timing
/// repeats within a few percent (`bench_report` takes best-of-reps for
/// the same reason). Every timed simulator metric is built from each
/// cell's fastest timing; a second timing close to it shows that it is
/// the undisturbed one.
fn settle(
    plan: &Plan,
    known: &[CellStats],
    timings: &mut [Vec<f64>],
    budget_s: f64,
) -> Result<u64, String> {
    let ids = plan.cells();
    let started = Instant::now();
    let mut added = 0;
    loop {
        let open: Vec<usize> = (0..ids.len())
            .filter(|&ci| !settled(&timings[ci]))
            .collect();
        if open.is_empty() {
            return Ok(added);
        }
        for ci in open {
            if started.elapsed().as_secs_f64() >= budget_s {
                return Ok(added);
            }
            let t0 = Instant::now();
            let stats = run_cell(plan, ids[ci])?;
            timings[ci].push(t0.elapsed().as_secs_f64() * 1e3);
            added += 1;
            if stats != known[ci] {
                return Err(format!(
                    "{}: statistics differ between repeats",
                    plan.label(ids[ci])
                ));
            }
        }
    }
}

/// Build the plan and warm up: one pass of the tiny-scale plan, untimed.
fn setup(opts: &Opts, scale: Scale) -> Result<(Plan, Vec<usize>), String> {
    experiments::grid::set_jobs(1);
    let plan = Plan::of(&opts.workload, scale, opts.smoke);
    let warm = Plan {
        repeats: 1,
        ..Plan::of(&opts.workload, Scale::Tiny, true)
    };
    let pass = run_pass(&warm, &job_order(&warm, opts.seed), &mut Tracer::new(false))?;
    if pass.failed(1) > 0 {
        return Err("warm-up pass failed verification".into());
    }
    let order = job_order(&plan, opts.seed);
    Ok((plan, order))
}

fn totals(pass: &Pass, order: &[usize]) -> (u64, u64) {
    order.iter().fold((0, 0), |(c, i), &ci| {
        (
            c + pass.cells[ci].cycles,
            i + pass.cells[ci].sim.issued_inst,
        )
    })
}

/// Run a simulator workload to its [`Outcome`].
///
/// # Errors
///
/// Anything that stops the run before it can report: a simulator error,
/// an I/O failure writing the trace.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
    if opts.trace {
        return run_traced(opts, scale);
    }
    let plan = Plan::of(&opts.workload, scale, opts.smoke);
    let order = job_order(&plan, opts.seed);
    let (setup_s, passes) = timed_passes(
        opts,
        MIN_CELL_SAMPLES.div_ceil(plan.repeats),
        || setup(opts, scale),
        |_| Ok(()),
        |(plan, order)| run_pass(&plan, &order, &mut Tracer::new(false)),
    )?;
    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM")?;
    let first = &passes[0];

    let mut correct = true;
    let mut note = |ok: bool, what: &str| require(&mut correct, ok, what);
    let print = fingerprint(&first.cells);
    note(
        passes.iter().all(|p| fingerprint(&p.cells) == print),
        "statistics fingerprint differs between passes",
    );
    let failed: u64 = passes.iter().map(|p| p.failed(plan.repeats)).sum();
    note(failed == 0, "a cell failed functional verification");
    note(
        false_detections(&plan, &first.cells) == 0,
        "DDOS confirmed a spin-inducing branch in a sync-free kernel",
    );

    // One pass with every job at its cell's fastest timing, and the
    // latency of each job of that pass.
    let mut timings = cell_timings(&plan, &order, &passes);
    let retimed = settle(&plan, &first.cells, &mut timings, opts.seconds / 2.0)?;
    if retimed > 0 {
        eprintln!(
            "note: {}: noisy host, timed {retimed} cells again",
            opts.workload
        );
    }
    let best: Vec<f64> = timings
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let jobs: Vec<f64> = order.iter().map(|&ci| best[ci]).collect();
    let wall_s = jobs.iter().sum::<f64>() / 1e3;
    let (cycles, winst) = totals(first, &order);
    let mut m = Metrics::default();
    m.set("wall_s", wall_s);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("sim_mcycles_per_s", cycles as f64 / wall_s / 1e6);
    m.set("sim_minstr_per_s", winst as f64 / wall_s / 1e6);
    m.set("jobs_per_s", order.len() as f64 / wall_s);
    m.set("job_p50_ms", stats::median(&jobs)?);
    m.set("job_tail_ms", stats::tail(&jobs, 0.9)?.0);
    m.set(
        "bows_speedup_gmean",
        bows_speedup_gmean(&plan, &first.cells)?,
    );
    Ok(Outcome {
        passes: passes.len(),
        correct,
        attempted: (order.len() * passes.len()) as u64 + retimed,
        failed,
        metrics: m,
    })
}

/// One condition of the correctness gate: say what broke, clear `correct`.
fn require(correct: &mut bool, ok: bool, what: &str) {
    if !ok {
        eprintln!("INCORRECT: {what}");
        *correct = false;
    }
}

/// Detector confirmations in kernels that have no spin loop at all.
pub fn false_detections(plan: &Plan, cells: &[CellStats]) -> u64 {
    plan.cells()
        .iter()
        .zip(cells)
        .filter(|(&id, _)| !plan.parts(id).1.is_sync())
        .map(|(_, c)| c.confirmed_sibs)
        .sum()
}

/// The per-layer run: one untraced pass for reference, one traced pass
/// (spans + phase profiler), then the alternate-path legs.
fn run_traced(opts: &Opts, scale: Scale) -> Result<Outcome, String> {
    let (plan, order) = setup(opts, scale)?;
    let plain = run_pass(&plan, &order, &mut Tracer::new(false))?;
    let mut t = Tracer::new(true);
    let traced = run_pass(&plan, &order, &mut t)?;

    let mut correct = true;
    let mut note = |ok: bool, what: &str| require(&mut correct, ok, what);
    let print = fingerprint(&plain.cells);
    note(
        fingerprint(&traced.cells) == print,
        "the traced cell runner does not reproduce experiments::run",
    );
    let failed = plain.failed(plan.repeats) + traced.failed(plan.repeats);
    note(failed == 0, "a cell failed functional verification");
    let false_hits = false_detections(&plan, &plain.cells);
    note(
        false_hits == 0,
        "DDOS confirmed a spin-inducing branch in a sync-free kernel",
    );

    let mut m = Metrics::default();
    let secs = |ns: u64| ns as f64 / 1e9;
    let new_s = secs(t.total_ns("core.gpu_new"));
    let run_s = secs(t.total_ns("core.run"));
    m.set("workloads.prepare_s", secs(t.total_ns("workloads.prepare")));
    m.set("workloads.verify_s", secs(t.total_ns("workloads.verify")));
    m.set("core.gpu_new_s", new_s);
    m.set("core.run_s", new_s + run_s);

    let (cycles, winst) = totals(&traced, &order);
    let p = &traced.profile;
    let total = p.total_ns.max(1) as f64;
    m.set("core.ns_per_cycle", p.total_ns as f64 / cycles as f64);
    m.set("core.ns_per_winst", p.total_ns as f64 / winst as f64);
    m.set("core.fetch_share", p.fetch_ns as f64 / total);
    m.set("core.issue_share", p.issue_ns as f64 / total);
    m.set("core.execute_share", p.execute_ns as f64 / total);
    m.set("core.mem_cycle_share", p.mem_cycle_ns as f64 / total);
    m.set("core.merge_share", p.merge_ns as f64 / total);
    m.set("core.skip_horizon_share", p.skip_horizon_ns as f64 / total);
    m.set("core.other_share", p.other_ns() as f64 / total);
    m.set("core.sim_cycles", cycles as f64);
    m.set("core.sim_winst", winst as f64);
    // 48 bits survive the trip through a JSON double.
    m.set("core.stats_fingerprint", (print & 0xffff_ffff_ffff) as f64);

    let mut sim = SimStats::default();
    let mut mem = MemStats::default();
    for &ci in &order {
        sim.add(&traced.cells[ci].sim);
        mem.add(&traced.cells[ci].mem);
    }
    layers::simulated_counters(
        &mut m,
        &sim,
        &mem,
        order
            .iter()
            .map(|&ci| traced.cells[ci].confirmed_sibs)
            .sum(),
    );
    m.set(
        "mem.ns_per_transaction",
        p.mem_cycle_ns as f64 / mem.total_transactions.max(1) as f64,
    );
    m.set("bows.ddos_false_detections", false_hits as f64);

    layers::isa_and_lint(&mut m, &layers::plan_kernels(&plan), &mut t)?;
    match opts.workload.as_str() {
        "dense_sync" => {
            let speedup = bows_speedup_gmean(&plan, &plain.cells)?;
            m.set(
                "bows.paper_fig9_error",
                (speedup - layers::PAPER_FIG9_SPEEDUP).abs() / layers::PAPER_FIG9_SPEEDUP,
            );
            let ds = plan.gto_cell("DS").ok_or("plan has no DS/gto cell")?;
            note(
                layers::alternate_paths(&mut m, &plan, &[ds], &mut t)?,
                "engine or thread count changed a statistic",
            );
            let ht = plan.gto_cell("HT").ok_or("plan has no HT/gto cell")?;
            note(
                layers::checkpoint(&mut m, &plan, ht, opts, &mut t)?,
                "checkpoint or resume changed a statistic",
            );
        }
        "dense_alu" => {
            m.set(
                "bows.syncfree_slowdown",
                1.0 / bows_speedup_gmean(&plan, &plain.cells)?,
            );
            layers::bows_host_overhead(&mut m, &plan, &plain)?;
            note(
                layers::grid_jobs2(&mut m, &plan, &order, &plain, &mut t)?,
                "two grid workers changed a statistic",
            );
        }
        _ => {
            let all = plan.cells();
            note(
                layers::alternate_paths(&mut m, &plan, &all, &mut t)?,
                "engine or thread count changed a statistic",
            );
        }
    }

    // What the traced pass spent in no layer: the self time of the spans
    // that only hold other spans.
    let own = t.self_ns_by_name();
    m.set(
        "trace.gap_pct",
        secs(own["pass"] + own["cell"]) / traced.wall_s * 100.0,
    );
    m.set(
        "trace.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    );
    m.set("trace.spans", t.spans().len() as f64);
    m.set("harness.tail_quantile", stats::tail(&plain.job_ms, 0.9)?.1);
    let attempted = 2 * order.len() as u64;
    m.set("harness.failed_ratio", failed as f64 / attempted as f64);
    layers::write_trace(opts, &t)?;
    Ok(Outcome {
        passes: 2,
        correct,
        attempted,
        failed,
        metrics: m,
    })
}
