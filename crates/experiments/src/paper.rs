//! The paper's evaluation as a registry: [`FIGURES`] names one render
//! function per figure, table or supporting analysis, and the `paper`
//! binary prints the ones it is asked for.
//!
//! Figures 2, 9, 10–13 and the stall breakdown are views of the same runs —
//! the sync suite on the GTX480 — so they read one [`SuiteGrid`] owned by
//! the [`Paper`]: a process simulates each (workload, scheduler) cell of it
//! at most once, however many of those figures it renders. The sharing
//! stops here; [`crate::run`] simulates every time it is called.

use crate::{
    detection_metrics, grid, pct, r3, run, run_suite_grid, table3_report, Opts, SchedConfig, Table,
};
use bows::{AdaptiveConfig, Bows, BowsComponents, DdosConfig, DelayMode, HashKind};
use simt_core::{BasePolicy, GpuConfig};
use std::time::Instant;
use workloads::sync::{Hashtable, HtMode};
use workloads::{rodinia_suite, run_workload, sync_suite, Lcg, Scale, Workload, WorkloadResult};

/// One suite on one machine, simulated on demand: a scheduler is run over
/// the suite the first time a figure asks for it and read from here after
/// that.
pub struct SuiteGrid {
    cfg: GpuConfig,
    suite: Vec<Box<dyn Workload>>,
    /// The schedulers run so far.
    ran: Vec<SchedConfig>,
    /// Per workload, its result under each of `ran`, in that order.
    results: Vec<Vec<WorkloadResult>>,
}

impl SuiteGrid {
    /// An empty grid of `suite` on `cfg`; nothing runs until [`Self::rows`].
    pub fn new(cfg: GpuConfig, suite: Vec<Box<dyn Workload>>) -> SuiteGrid {
        let results = suite.iter().map(|_| Vec::new()).collect();
        SuiteGrid {
            cfg,
            suite,
            ran: Vec::new(),
            results,
        }
    }

    /// Cells simulated so far.
    pub fn simulated(&self) -> usize {
        self.ran.len() * self.suite.len()
    }

    /// Per-workload result rows in suite order, `scheds` order within each
    /// row — [`run_suite_grid`]'s shape — simulating only the schedulers no
    /// earlier call has run.
    pub fn rows(&mut self, scheds: &[SchedConfig]) -> Vec<Vec<&WorkloadResult>> {
        let mut missing: Vec<SchedConfig> = Vec::new();
        for s in scheds {
            if !missing.contains(s) && !self.ran.contains(s) {
                missing.push(*s);
            }
        }
        if !missing.is_empty() {
            let new = run_suite_grid(&self.cfg, &self.suite, &missing);
            for (have, new) in self.results.iter_mut().zip(new) {
                have.extend(new);
            }
            self.ran.extend(missing);
        }
        let at: Vec<usize> = scheds
            .iter()
            .map(|s| self.ran.iter().position(|r| r == s).expect("just run"))
            .collect();
        self.results
            .iter()
            .map(|row| at.iter().map(|&i| &row[i]).collect())
            .collect()
    }
}

/// What the render functions share: the command line and the one grid more
/// than one of them reads.
pub struct Paper {
    /// Scale and CSV choice.
    pub opts: Opts,
    /// The sync suite on the GTX480 (Figures 2, 9, 10–13, stall breakdown).
    pub fermi_sync: SuiteGrid,
}

impl Paper {
    /// A paper with nothing simulated yet.
    pub fn new(opts: Opts) -> Paper {
        let fermi_sync = SuiteGrid::new(GpuConfig::gtx480(), sync_suite(opts.scale));
        Paper { opts, fermi_sync }
    }
}

/// Renders one entry to the text its file under `results/` holds.
pub type Render = fn(&mut Paper) -> String;

/// Every figure, table and supporting analysis, in the paper's order.
pub const FIGURES: &[(&str, Render)] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("table1", crate::table1::render),
    ("table3", table3),
    ("stalls", stalls),
    ("ablation", ablation),
    ("blocking", blocking),
];

const GTO: BasePolicy = BasePolicy::Gto;

/// `head` cells followed by `cells`.
fn row(head: &[&str], cells: impl IntoIterator<Item = String>) -> Vec<String> {
    head.iter().map(|s| s.to_string()).chain(cells).collect()
}

/// A table headed by `head` columns and then one column per label.
fn labelled_table(head: &[&str], labels: &[String]) -> Table {
    let header: Vec<&str> = head
        .iter()
        .copied()
        .chain(labels.iter().map(String::as_str))
        .collect();
    Table::new(&header)
}

/// `metric` of every run over that of the first, the divisor floored.
fn normalized(
    runs: &[&WorkloadResult],
    floor: f64,
    metric: impl Fn(&WorkloadResult) -> f64,
) -> Vec<f64> {
    let base = metric(runs[0]).max(floor);
    runs.iter().map(|r| metric(r) / base).collect()
}

/// Column-wise geometric mean of per-workload ratio rows.
fn gmean(rows: &[Vec<f64>]) -> impl Iterator<Item = String> + '_ {
    let n = rows.len() as f64;
    (0..rows[0].len()).map(move |i| r3((rows.iter().map(|r| r[i].ln()).sum::<f64>() / n).exp()))
}

/// The hashtable launch the contention figures share:
/// `(threads, insertions per thread, threads per CTA)`.
fn ht_scale(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Tiny => (1024, 1, 128),
        Scale::Small => (12288, 2, 256),
        Scale::Full => (24576, 4, 256),
    }
}

/// The hashtable of [`ht_scale`] with `buckets` buckets.
fn hashtable(scale: Scale, buckets: u32) -> Hashtable {
    let (threads, per_thread, tpc) = ht_scale(scale);
    Hashtable::with_params(threads, per_thread, buckets, tpc)
}

/// The bucket counts of the contention sweep (Figures 1 and 16).
fn contention_buckets(scale: Scale) -> &'static [u32] {
    match scale {
        Scale::Tiny => &[32, 128, 512],
        _ => &[128, 256, 512, 1024, 2048, 4096],
    }
}

/// Three runs per bucket count, `cell(buckets, 0..3)`, as one parallel grid.
fn bucket_sweep(
    buckets: &[u32],
    cell: impl Fn(u32, u8) -> WorkloadResult + Sync,
) -> Vec<(u32, [WorkloadResult; 3])> {
    let cells: Vec<(u32, u8)> = buckets
        .iter()
        .flat_map(|&b| (0u8..3).map(move |k| (b, k)))
        .collect();
    let mut results = grid::parallel_map(&cells, |_, &(b, k)| cell(b, k)).into_iter();
    buckets
        .iter()
        .map(|&b| {
            (
                b,
                std::array::from_fn(|_| results.next().expect("three per bucket count")),
            )
        })
        .collect()
}

/// Native serial CPU hashtable insertion (the paper's Intel i7 baseline).
/// Returns milliseconds for `insertions` chained-list insertions.
fn cpu_hashtable_ms(insertions: usize, buckets: usize) -> f64 {
    #[derive(Clone, Copy)]
    #[allow(dead_code)]
    struct Node {
        key: u32,
        next: u32,
    }
    let mut heads = vec![0u32; buckets];
    let mut pool: Vec<Node> = Vec::with_capacity(insertions);
    let mut lcg = Lcg::new(1);
    let t0 = Instant::now();
    for _ in 0..insertions {
        let key = lcg.next_u32();
        let b = (key % buckets as u32) as usize;
        pool.push(Node {
            key,
            next: heads[b],
        });
        heads[b] = pool.len() as u32;
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    // Keep the work observable.
    assert_eq!(pool.len(), insertions);
    std::hint::black_box(&heads);
    ms
}

/// Figure 1: the motivation study. Hashtable insertions vs. bucket count:
/// (b) GPU (Fermi & Pascal configs) vs. a native serial CPU implementation,
/// (c) dynamic-instruction synchronization overhead,
/// (d) memory-traffic synchronization overhead,
/// (e) SIMD efficiency with a single warp vs. the full machine.
fn fig1(p: &mut Paper) -> String {
    let scale = p.opts.scale;
    let (threads, per_thread, _) = ht_scale(scale);
    let insertions = threads * per_thread;
    let (fermi, pascal) = (GpuConfig::gtx480(), GpuConfig::gtx1080ti());
    // Per bucket count: Fermi multi-warp (reused for Fig 1e's "multi"
    // column), Pascal multi-warp, and the single-warp run. The serial CPU
    // reference stays on this thread: it is a wall-clock timing
    // measurement and must not compete with simulator workers.
    let sched = SchedConfig::baseline(GTO);
    let results = bucket_sweep(contention_buckets(scale), |buckets, kind| match kind {
        0 => run(&fermi, &hashtable(scale, buckets), sched).expect("fermi run"),
        1 => run(&pascal, &hashtable(scale, buckets), sched).expect("pascal run"),
        _ => run(
            &fermi,
            &Hashtable::with_params(32, per_thread, buckets, 32),
            sched,
        )
        .expect("single-warp run"),
    });
    let mut bd = Table::new(&[
        "buckets",
        "cpu_ms",
        "fermi_ms",
        "pascal_ms",
        "sync_inst",
        "sync_mem",
        "simd_eff",
    ]);
    let mut e = Table::new(&["buckets", "simd_eff_1warp", "simd_eff_multi"]);
    for (buckets, [multi, on_pascal, single]) in &results {
        bd.row(vec![
            buckets.to_string(),
            r3(cpu_hashtable_ms(insertions, *buckets as usize)),
            r3(multi.time_ms(&fermi)),
            r3(on_pascal.time_ms(&pascal)),
            pct(multi.sim.sync_inst_fraction()),
            pct(multi.mem.sync_fraction()),
            pct(multi.sim.simd_efficiency()),
        ]);
        e.row(vec![
            buckets.to_string(),
            pct(single.sim.simd_efficiency()),
            pct(multi.sim.simd_efficiency()),
        ]);
    }
    format!(
        "Figure 1: hashtable motivation ({insertions} insertions, {threads} threads)\n\n\
         Fig 1b-d: execution time and synchronization overheads\n{}\
         Fig 1e: divergence overheads (inter-warp lock conflicts)\n{}",
        bd.render(p.opts.csv),
        e.render(p.opts.csv)
    )
}

/// Figure 2: distribution of lock-acquire and wait-exit outcomes across the
/// eight synchronization kernels under LRR, GTO and CAWA.
fn fig2(p: &mut Paper) -> String {
    let mut t = Table::new(&[
        "kernel",
        "policy",
        "lock_success",
        "inter_warp_fail",
        "intra_warp_fail",
        "wait_exit_ok",
        "wait_exit_fail",
        "attempts_per_success",
    ]);
    let policies = [BasePolicy::Lrr, GTO, BasePolicy::Cawa];
    for results in p.fermi_sync.rows(&policies.map(SchedConfig::baseline)) {
        for (policy, res) in policies.iter().zip(results) {
            let lock_total =
                res.mem.lock_success + res.mem.lock_inter_fail + res.mem.lock_intra_fail;
            let wait_total = res.sim.wait_exit_success + res.sim.wait_exit_fail;
            let total = (lock_total + wait_total).max(1) as f64;
            let aps = if res.mem.lock_success > 0 {
                lock_total as f64 / res.mem.lock_success as f64
            } else {
                0.0
            };
            t.row(vec![
                res.name.clone(),
                policy.name().to_string(),
                pct(res.mem.lock_success as f64 / total),
                pct(res.mem.lock_inter_fail as f64 / total),
                pct(res.mem.lock_intra_fail as f64 / total),
                pct(res.sim.wait_exit_success as f64 / total),
                pct(res.sim.wait_exit_fail as f64 / total),
                format!("{aps:.2}"),
            ]);
        }
    }
    format!(
        "Figure 2: synchronization status distribution (GTX480)\n\n{}\
         Paper's observations to check: most lock failures are inter-warp,\n\
         and the failure volume varies strongly with the scheduling policy.\n",
        t.render(p.opts.csv)
    )
}

/// Figure 3: software-only back-off delay (the clock-polling loop of
/// Fig. 3a) on the hashtable — the paper's point is that it does NOT help
/// on recent GPUs because the delay code itself wastes issue slots.
fn fig3(p: &mut Paper) -> String {
    let scale = p.opts.scale;
    // The paper measured this on a Pascal GTX1080.
    let cfg = GpuConfig::gtx1080ti();
    let buckets_sweep: &[u32] = match scale {
        Scale::Tiny => &[32, 512],
        _ => &[128, 512, 2048],
    };
    let mut t = Table::new(&[
        "buckets",
        "delay_factor",
        "time_ms",
        "vs_no_delay",
        "thread_inst",
    ]);
    let factors = [0u32, 50, 100, 500, 1000];
    let cells: Vec<(u32, u32)> = buckets_sweep
        .iter()
        .flat_map(|&b| factors.iter().map(move |&f| (b, f)))
        .collect();
    let results = grid::parallel_map(&cells, |_, &(buckets, factor)| {
        let mode = if factor == 0 {
            HtMode::Normal
        } else {
            HtMode::SwBackoff { factor }
        };
        let ht = hashtable(scale, buckets).with_mode(mode);
        run(&cfg, &ht, SchedConfig::baseline(GTO)).expect("run")
    });
    let mut no_delay_ms = 0.0;
    for (&(buckets, factor), res) in cells.iter().zip(&results) {
        let ms = res.time_ms(&cfg);
        if factor == 0 {
            no_delay_ms = ms;
        }
        t.row(vec![
            buckets.to_string(),
            factor.to_string(),
            r3(ms),
            r3(ms / no_delay_ms),
            res.sim.thread_inst.to_string(),
        ]);
    }
    format!(
        "Figure 3: software back-off delay on the hashtable (Pascal)\n\n{}\
         Paper's shape: delay factors >= 50 do not beat no-delay except at\n\
         extreme contention — the delay loop burns the issue slots it saves.\n",
        t.render(p.opts.csv)
    )
}

/// Shared body of Figures 9 (Fermi) and 15 (Pascal), as a renderable
/// table: normalized execution time and dynamic energy for
/// {LRR, GTO, CAWA} with and without BOWS, normalized to LRR,
/// geometric-mean row at the end.
fn perf_energy(grid: &mut SuiteGrid) -> Table {
    let configs: Vec<SchedConfig> = [BasePolicy::Lrr, GTO, BasePolicy::Cawa]
        .into_iter()
        .flat_map(|b| [SchedConfig::baseline(b), SchedConfig::bows_adaptive(b)])
        .collect();
    let labels: Vec<String> = configs.iter().map(SchedConfig::label).collect();
    let mut t = labelled_table(&["kernel", "metric"], &labels);
    let (mut times, mut energies) = (Vec::new(), Vec::new());
    for results in grid.rows(&configs) {
        let name = results[0].name.as_str();
        let time = normalized(&results, 1.0, |r| r.cycles as f64);
        let energy = normalized(&results, 1e-18, |r| r.dynamic_j);
        t.row(row(&[name, "time"], time.iter().map(|&x| r3(x))));
        t.row(row(&[name, "energy"], energy.iter().map(|&x| r3(x))));
        times.push(time);
        energies.push(energy);
    }
    t.row(row(&["Gmean", "time"], gmean(&times)));
    t.row(row(&["Gmean", "energy"], gmean(&energies)));
    t
}

/// [`perf_energy`] of the sync suite at `scale` on `cfg`, simulated afresh.
pub fn perf_energy_table(cfg: &GpuConfig, scale: Scale) -> Table {
    perf_energy(&mut SuiteGrid::new(cfg.clone(), sync_suite(scale)))
}

/// The Figure 9/15 body with its caption.
fn perf_energy_figure(grid: &mut SuiteGrid, csv: bool, figure: &str) -> String {
    let table = perf_energy(grid);
    format!(
        "{figure}: normalized execution time and dynamic energy on {} \
         (normalized to LRR; lower is better)\n\n{}",
        grid.cfg.name,
        table.render(csv)
    )
}

/// Figure 9: normalized execution time and dynamic energy on the GTX480
/// (Fermi) for LRR/GTO/CAWA with and without BOWS (adaptive delay, DDOS).
///
/// Paper reference points: BOWS speedups of 2.2x / 1.4x / 1.5x and energy
/// savings of 2.3x / 1.7x / 1.6x over LRR / GTO / CAWA respectively.
fn fig9(p: &mut Paper) -> String {
    perf_energy_figure(&mut p.fermi_sync, p.opts.csv, "Figure 9")
}

/// Figure 15: the Figure 9 experiment on the GTX1080Ti (Pascal) config.
///
/// Paper reference points: BOWS speedups of 1.9x / 1.7x / 1.5x over
/// LRR / GTO / CAWA; behavior is flatter across baselines because the same
/// inputs under-subscribe Pascal (about a quarter of the warps per
/// scheduler compared to Fermi).
fn fig15(p: &mut Paper) -> String {
    let mut grid = SuiteGrid::new(GpuConfig::gtx1080ti(), sync_suite(p.opts.scale));
    perf_energy_figure(&mut grid, p.opts.csv, "Figure 15")
}

/// The Figure 10–13 sweep: GTO baseline plus BOWS at fixed delays and
/// adaptive. Returns `(labels, per-workload results)`.
fn delay_sweep(grid: &mut SuiteGrid) -> (Vec<String>, Vec<Vec<&WorkloadResult>>) {
    let configs: Vec<SchedConfig> = std::iter::once(SchedConfig::baseline(GTO))
        .chain([0u64, 500, 1000, 3000, 5000].map(|d| SchedConfig::bows(GTO, DelayMode::Fixed(d))))
        .chain(std::iter::once(SchedConfig::bows_adaptive(GTO)))
        .collect();
    (
        configs.iter().map(SchedConfig::label).collect(),
        grid.rows(&configs),
    )
}

/// Figure 10: normalized execution time at different back-off delay limit
/// values (GTO baseline; BOWS with DDOS at 0/500/1000/3000/5000/adaptive).
fn fig10(p: &mut Paper) -> String {
    let (labels, results) = delay_sweep(&mut p.fermi_sync);
    let mut t = labelled_table(&["kernel"], &labels);
    let mut times = Vec::new();
    for runs in &results {
        let time = normalized(runs, 1.0, |r| r.cycles as f64);
        t.row(row(&[&runs[0].name], time.iter().map(|&x| r3(x))));
        times.push(time);
    }
    t.row(row(&["Gmean"], gmean(&times)));
    format!(
        "Figure 10: execution time vs back-off delay limit (normalized to GTO)\n\n{}\
         Paper's shape: large fixed delays help contended kernels (HT, ATM)\n\
         but hurt TSP; adaptive tracks the best fixed value per kernel.\n",
        t.render(p.opts.csv)
    )
}

/// Figure 11: average distribution of warps at the scheduler — backed-off
/// vs not — across the back-off delay sweep.
fn fig11(p: &mut Paper) -> String {
    let (labels, results) = delay_sweep(&mut p.fermi_sync);
    let mut t = labelled_table(&["kernel"], &labels);
    for runs in &results {
        t.row(row(
            &[&runs[0].name],
            runs.iter().map(|r| pct(r.sim.backed_off_fraction())),
        ));
    }
    format!(
        "Figure 11: fraction of resident warps in the backed-off state\n\n{}\
         Paper's shape: 0% without BOWS; the backed-off share grows with the\n\
         delay limit once it exceeds each kernel's natural iteration gap.\n",
        t.render(p.opts.csv)
    )
}

/// Figure 12: lock-acquire / wait outcome distribution across the back-off
/// delay sweep (GTO baseline).
fn fig12(p: &mut Paper) -> String {
    let (labels, results) = delay_sweep(&mut p.fermi_sync);
    let mut t = labelled_table(&["kernel", "outcome"], &labels);
    let labelled = [
        "success",
        "inter_fail",
        "intra_fail",
        "wait_ok",
        "wait_fail",
    ];
    let outcomes = |r: &WorkloadResult| {
        [
            r.mem.lock_success,
            r.mem.lock_inter_fail,
            r.mem.lock_intra_fail,
            r.sim.wait_exit_success,
            r.sim.wait_exit_fail,
        ]
    };
    for runs in &results {
        let norm = outcomes(runs[0]).iter().sum::<u64>().max(1) as f64;
        for (i, label) in labelled.into_iter().enumerate() {
            t.row(row(
                &[&runs[0].name, label],
                runs.iter().map(|r| r3(outcomes(r)[i] as f64 / norm)),
            ));
        }
    }
    format!(
        "Figure 12: lock/wait outcomes per config, normalized to the GTO\n\
         baseline's total attempts (success stays constant; failures shrink)\n\n{}",
        t.render(p.opts.csv)
    )
}

/// Figure 13: BOWS's impact on dynamic overheads across the delay sweep —
/// (a) dynamic instruction count, (b) memory transactions, (c) SIMD
/// efficiency (all relative to GTO).
///
/// Paper reference points: 2.1x fewer dynamic instructions and 19% fewer
/// memory transactions on average; HT/ATM SIMD efficiency up 3.4x / 1.85x.
fn fig13(p: &mut Paper) -> String {
    let (labels, results) = delay_sweep(&mut p.fermi_sync);
    let mut t = labelled_table(&["kernel", "metric"], &labels);
    let (mut insts, mut mems) = (Vec::new(), Vec::new());
    for runs in &results {
        let name = runs[0].name.as_str();
        let inst = normalized(runs, 1.0, |r| r.sim.thread_inst as f64);
        let mem = normalized(runs, 1.0, |r| r.mem.total_transactions as f64);
        t.row(row(&[name, "inst"], inst.iter().map(|&x| r3(x))));
        t.row(row(&[name, "mem_tx"], mem.iter().map(|&x| r3(x))));
        t.row(row(
            &[name, "simd_eff"],
            runs.iter().map(|r| pct(r.sim.simd_efficiency())),
        ));
        insts.push(inst);
        mems.push(mem);
    }
    t.row(row(&["Gmean", "inst"], gmean(&insts)));
    t.row(row(&["Gmean", "mem_tx"], gmean(&mems)));
    format!(
        "Figure 13: dynamic overheads vs back-off delay (normalized to GTO)\n\n{}",
        t.render(p.opts.csv)
    )
}

/// Figure 14: overheads due to DDOS detection errors. Under MODULO hashing
/// (k = 8), Merge Sort and Heart Wall's power-of-two loop strides alias to
/// constants and are falsely detected as spin loops; BOWS then throttles
/// innocent loops. XOR hashing has no false detections, so results are
/// identical to the baseline.
fn fig14(p: &mut Paper) -> String {
    let delays = [0u64, 500, 1000, 3000, 5000];
    let labels: Vec<String> = delays
        .iter()
        .map(|d| format!("bows({d})"))
        .chain(["bows(5000)+xor".to_string()])
        .collect();
    let mut t = labelled_table(&["kernel", "falsely_detected"], &labels);
    // Per-workload config row: GTO baseline, the MODULO-hashing delay
    // sweep, and the XOR control at the largest delay (must be exactly 1.0).
    let mut scheds = vec![SchedConfig::baseline(GTO)];
    scheds.extend(delays.map(|d| SchedConfig {
        ddos: DdosConfig {
            hash: HashKind::Modulo,
            ..DdosConfig::default()
        },
        ..SchedConfig::bows(GTO, DelayMode::Fixed(d))
    }));
    scheds.push(SchedConfig::bows(GTO, DelayMode::Fixed(5000)));
    let mut slowdowns = Vec::new();
    for results in run_suite_grid(&GpuConfig::gtx480(), &rodinia_suite(p.opts.scale), &scheds) {
        let results: Vec<&WorkloadResult> = results.iter().collect();
        let modulo = &results[1..=delays.len()];
        let detected = modulo
            .iter()
            .any(|r| r.stages.iter().any(|s| !s.report.confirmed_sibs.is_empty()));
        let time = normalized(&results, 1.0, |r| r.cycles as f64);
        t.row(row(
            &[&results[0].name, if detected { "yes" } else { "no" }],
            time[1..].iter().map(|&x| r3(x)),
        ));
        slowdowns.push(time[1..=delays.len()].to_vec());
    }
    t.row(row(
        &["Gmean", "-"],
        gmean(&slowdowns).chain(["1.000".to_string()]),
    ));
    format!(
        "Figure 14: sync-free kernels under BOWS with MODULO hashing\n\
         (execution time normalized to GTO; 1.000 means unaffected)\n\n{}\
         Paper's shape: only MS and HL are falsely detected; the slowdown\n\
         grows with the delay limit, and the 14-kernel mean stays small\n\
         (paper: ~2.1% at 5000 cycles).\n",
        t.render(p.opts.csv)
    )
}

/// Figure 16: sensitivity to contention. Hashtable bucket sweep:
/// (a) BOWS speedup over GTO, (b) dynamic instruction count vs GTO plus the
/// "ideal blocking" proxy (a lock that always succeeds on the first try).
fn fig16(p: &mut Paper) -> String {
    let scale = p.opts.scale;
    let cfg = GpuConfig::gtx480();
    let mut t = Table::new(&[
        "buckets",
        "bows_speedup",
        "bows_inst_ratio",
        "ideal_block_inst_ratio",
    ]);
    // Per bucket count: GTO baseline, BOWS, and the ideal-no-lock
    // instruction proxy.
    let results = bucket_sweep(contention_buckets(scale), |buckets, kind| {
        let ht = hashtable(scale, buckets);
        match kind {
            0 => run(&cfg, &ht, SchedConfig::baseline(GTO)).expect("gto"),
            1 => run(&cfg, &ht, SchedConfig::bows_adaptive(GTO)).expect("bows"),
            _ => run(
                &cfg,
                &ht.with_mode(HtMode::IdealNoLock),
                SchedConfig::baseline(GTO),
            )
            .expect("ideal"),
        }
    });
    for (buckets, [base, bows, ideal]) in &results {
        t.row(vec![
            buckets.to_string(),
            r3(base.cycles as f64 / bows.cycles.max(1) as f64),
            r3(bows.sim.thread_inst as f64 / base.sim.thread_inst.max(1) as f64),
            r3(ideal.sim.thread_inst as f64 / base.sim.thread_inst.max(1) as f64),
        ]);
    }
    format!(
        "Figure 16: BOWS sensitivity to contention (hashtable bucket sweep)\n\n{}\
         Paper's shape: speedup and instruction savings are largest at high\n\
         contention (few buckets) and shrink toward 1x as buckets grow; the\n\
         ideal-blocking gap narrows with bucket count.\n",
        t.render(p.opts.csv)
    )
}

/// Table III: implementation cost of DDOS and BOWS, derived from the
/// configuration (bit-accurate against the paper's reference numbers).
fn table3(p: &mut Paper) -> String {
    format!(
        "Table III: DDOS and BOWS implementation costs per SM\n\n{}",
        table3_report(p.opts.csv)
    )
}

/// Stall-cycle breakdown (not a paper figure — supporting analysis for the
/// paper's Sections II–III): where every resident warp-cycle goes under GTO
/// vs GTO+BOWS on the sync suite. Shows the mechanism of BOWS's win: issue
/// and data-stall cycles spent on failed spin iterations turn into
/// backed-off cycles, freeing the machine for lock holders.
fn stalls(p: &mut Paper) -> String {
    let mut t = Table::new(&[
        "kernel",
        "sched",
        "issued",
        "data_stall",
        "barrier",
        "membar",
        "backoff",
        "arb_loss",
    ]);
    let scheds = [SchedConfig::baseline(GTO), SchedConfig::bows_adaptive(GTO)];
    for results in p.fermi_sync.rows(&scheds) {
        for (sched, res) in scheds.iter().zip(results) {
            let label = sched.label();
            t.row(row(
                &[&res.name, &label],
                res.sim.stall_breakdown().map(pct),
            ));
        }
    }
    format!(
        "Warp-cycle breakdown per kernel (fractions of resident warp-cycles)\n\n{}",
        t.render(p.opts.csv)
    )
}

/// Ablation studies for the design choices DESIGN.md calls out (not a
/// paper figure — the paper asserts these designs, we isolate them):
///
/// 1. **BOWS components**: deprioritization only (the backed-off queue),
///    throttling only (the pending back-off delay), and both — on the
///    contended hashtable.
/// 2. **DDOS value history**: path-only detection falsely classifies every
///    loop as spinning; the value registers are what make detection sound.
fn ablation(p: &mut Paper) -> String {
    let cfg = GpuConfig::gtx480();
    let buckets = match p.opts.scale {
        Scale::Tiny => 32,
        Scale::Small => 256,
        Scale::Full => 1024,
    };
    let ht = hashtable(p.opts.scale, buckets);

    let mut components = Table::new(&["variant", "time_vs_gto", "inst_vs_gto", "lock_fail_vs_gto"]);
    let variants = [
        (
            "deprioritize only",
            BowsComponents {
                deprioritize: true,
                throttle: false,
            },
        ),
        (
            "throttle only",
            BowsComponents {
                deprioritize: false,
                throttle: true,
            },
        ),
        ("full BOWS", BowsComponents::default()),
    ];
    // Cell 0 is the GTO baseline; cells 1..=3 are the component variants.
    let cells: Vec<usize> = (0..=variants.len()).collect();
    let results = grid::parallel_map(&cells, |_, &v| {
        if v == 0 {
            return run(&cfg, &ht, SchedConfig::baseline(GTO)).expect("baseline");
        }
        let comps = variants[v - 1].1;
        let rotate = cfg.gto_rotate_period;
        run_workload(
            &cfg,
            &ht,
            &move || {
                Box::new(Bows::with_components(
                    GTO.build(rotate),
                    DelayMode::Adaptive(AdaptiveConfig::default()),
                    comps,
                ))
            },
            &bows::ddos_factory(DdosConfig::default(), cfg.warps_per_sm()),
        )
        .expect("ablation run")
    });
    let base = &results[0];
    let fails = |r: &WorkloadResult| (r.mem.lock_inter_fail + r.mem.lock_intra_fail).max(1) as f64;
    for ((name, _), res) in variants.iter().zip(&results[1..]) {
        assert!(res.verified.is_ok(), "{name} broke correctness");
        components.row(vec![
            name.to_string(),
            r3(res.cycles as f64 / base.cycles as f64),
            r3(res.sim.thread_inst as f64 / base.sim.thread_inst as f64),
            r3(fails(res) / fails(base)),
        ]);
    }

    let mut history = Table::new(&["kernel", "sync?", "full_ddos_FSDR", "path_only_FSDR"]);
    let full = SchedConfig {
        force_ddos: true,
        ..SchedConfig::baseline(GTO)
    };
    let path_only = SchedConfig {
        ddos: DdosConfig {
            track_values: false,
            ..DdosConfig::default()
        },
        ..full
    };
    let suite: Vec<_> = rodinia_suite(Scale::Tiny).into_iter().take(6).collect();
    for results in run_suite_grid(&cfg, &suite, &[full, path_only]) {
        history.row(vec![
            results[0].name.clone(),
            "no".to_string(),
            pct(detection_metrics(&results[0]).fsdr),
            pct(detection_metrics(&results[1]).fsdr),
        ]);
    }
    format!(
        "Ablation 1: BOWS mechanisms in isolation (hashtable, GTO base)\n\n{}\
         Ablation 2: DDOS without value history (path-only detection)\n\n{}\
         Expected: path-only detection flags ordinary loops as spin loops\n\
         (FSDR >> 0), demonstrating why DDOS tracks setp source values.\n",
        components.render(p.opts.csv),
        history.render(p.opts.csv)
    )
}

/// Blocking-lock comparison (the paper's Section VII / Figure 16b
/// narrative): BOWS vs an *idealized* HQL-style queue-lock mechanism at the
/// L2 partitions (warps park instead of spinning) across the hashtable
/// contention sweep. The paper argues BOWS approximates the benefits of
/// queue-based locking without its hardware; this experiment quantifies the
/// remaining gap against a best-case (constraint-free) queue lock.
fn blocking(p: &mut Paper) -> String {
    let scale = p.opts.scale;
    let cfg = GpuConfig::gtx480();
    let parking = GpuConfig {
        blocking_locks: true,
        ..cfg.clone()
    };
    let buckets_sweep: &[u32] = match scale {
        Scale::Tiny => &[32, 128],
        // 32 buckets fit one cache line (parking fully engages); larger
        // counts span several lines, where the mechanism degrades to
        // spinning exactly as HQL does with many concurrent locks.
        _ => &[32, 128, 512, 2048],
    };
    let mut t = Table::new(&[
        "buckets",
        "bows_time",
        "blocking_time",
        "bows_inst",
        "blocking_inst",
        "blocking_fails",
    ]);
    // Per bucket count: GTO baseline, BOWS, and the blocking-lock GPU.
    let results = bucket_sweep(buckets_sweep, |buckets, kind| {
        let ht = hashtable(scale, buckets);
        match kind {
            0 => run(&cfg, &ht, SchedConfig::baseline(GTO)).expect("gto"),
            1 => run(&cfg, &ht, SchedConfig::bows_adaptive(GTO)).expect("bows"),
            _ => run(&parking, &ht, SchedConfig::baseline(GTO)).expect("blocking"),
        }
    });
    for (buckets, [base, bows, blocking]) in &results {
        assert!(base.verified.is_ok());
        assert!(bows.verified.is_ok());
        assert!(blocking.verified.is_ok(), "{:?}", blocking.verified);
        t.row(vec![
            buckets.to_string(),
            r3(bows.cycles as f64 / base.cycles as f64),
            r3(blocking.cycles as f64 / base.cycles as f64),
            r3(bows.sim.thread_inst as f64 / base.sim.thread_inst as f64),
            r3(blocking.sim.thread_inst as f64 / base.sim.thread_inst as f64),
            (blocking.mem.lock_inter_fail + blocking.mem.lock_intra_fail).to_string(),
        ]);
    }
    format!(
        "BOWS vs idealized queue-based blocking locks (hashtable sweep)\n\
         (time and dynamic instructions normalized to the GTO baseline)\n\n{}\
         Expected shape: where parking engages (few buckets, locks within a\n\
         warp's line reach) blocking is the time/instruction floor; as locks\n\
         spread over more lines the mechanism reverts to spinning and loses\n\
         its edge — the same degradation-with-many-locks the paper (Sec. VII)\n\
         reports for HQL past 512 buckets, while BOWS keeps working. That is\n\
         the paper's case for scheduler-side spin management.\n",
        t.render(p.opts.csv)
    )
}
