//! Shared harness for the `paper` binary (one render function per figure
//! or table, [`paper::FIGURES`]) and the `check` binary beside it (one gate
//! per checkable claim, [`check::GATES`]).
//!
//! Both binaries parse [`Opts`], which accepts:
//!
//! * `--scale tiny|small|full` — problem sizes (default `small`; `tiny` is
//!   for smoke-testing the harness itself),
//! * `--csv` — emit machine-readable CSV after the human-readable table,
//! * `--jobs <n>` — worker threads for the simulation grid (default: the
//!   machine's available parallelism).
//!
//! Results are printed as the same rows/series the paper's figures plot.
//! Every grid of independent (workload × config) cells runs through
//! [`grid::parallel_map`], which reassembles results in submission order so
//! output is byte-identical to a serial run at any `--jobs` value.

pub mod check;
pub mod differ;
pub mod fixture;
pub mod fuzz;
pub mod grid;
pub mod mutants;
pub mod oracle;
pub mod paper;
mod table1;

pub use paper::perf_energy_table;

use bows::{AdaptiveConfig, DdosConfig, DelayMode};
use simt_core::{BasePolicy, GpuConfig, SimError};
use std::fmt::Write as _;
use workloads::{run_workload, Scale, Workload, WorkloadResult};

/// Scheduling configuration under test: a baseline policy, optionally
/// wrapped in BOWS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// The baseline policy.
    pub base: BasePolicy,
    /// BOWS delay mode, if BOWS is enabled.
    pub bows: Option<DelayMode>,
    /// DDOS configuration (ignored without BOWS unless `force_ddos`).
    pub ddos: DdosConfig,
    /// Run DDOS even without BOWS (detection-accuracy experiments).
    pub force_ddos: bool,
}

impl SchedConfig {
    /// A bare baseline.
    pub fn baseline(base: BasePolicy) -> SchedConfig {
        SchedConfig {
            base,
            bows: None,
            ddos: DdosConfig::default(),
            force_ddos: false,
        }
    }

    /// Baseline + BOWS with the given delay mode and default DDOS.
    pub fn bows(base: BasePolicy, delay: DelayMode) -> SchedConfig {
        SchedConfig {
            base,
            bows: Some(delay),
            ddos: DdosConfig::default(),
            force_ddos: false,
        }
    }

    /// The paper's default BOWS: adaptive delay.
    pub fn bows_adaptive(base: BasePolicy) -> SchedConfig {
        SchedConfig::bows(base, DelayMode::Adaptive(AdaptiveConfig::default()))
    }

    /// Column label, e.g. `gto`, `gto+bows(1000)`.
    pub fn label(&self) -> String {
        match self.bows {
            None => self.base.name().to_string(),
            Some(d) => format!("{}+bows({})", self.base.name(), d.label()),
        }
    }
}

/// Run one workload under one scheduling configuration.
///
/// # Errors
///
/// Propagates simulator errors (deadlock, cycle limit).
pub fn run(
    cfg: &GpuConfig,
    w: &dyn Workload,
    sched: SchedConfig,
) -> Result<WorkloadResult, SimError> {
    let rotate = cfg.gto_rotate_period;
    let warps = cfg.warps_per_sm();
    let policy = bows::policy_factory(sched.base, sched.bows, rotate);
    let res = if sched.bows.is_some() || sched.force_ddos {
        run_workload(cfg, w, &policy, &bows::ddos_factory(sched.ddos, warps))?
    } else {
        workloads::run_baseline(cfg, w, sched.base)?
    };
    if let Err(e) = &res.verified {
        eprintln!(
            "WARNING: {} under {} failed verification: {e}",
            res.name,
            sched.label()
        );
    }
    Ok(res)
}

/// Common command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Problem scale.
    pub scale: Scale,
    /// Also print CSV.
    pub csv: bool,
    /// Grid worker threads (also set globally via [`grid::set_jobs`]).
    pub jobs: usize,
}

/// Print `msg` and the usage text to stderr, then exit with status 2.
/// Experiment sweeps must fail loudly on a malformed invocation — silently
/// running at default settings would poison committed results.
pub fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

impl Opts {
    /// Parse from `std::env::args`: the common flags here, every other
    /// argument offered to `extra` with the rest of the command line to take
    /// a value from.
    ///
    /// Exits with status 2 (after printing `usage` to stderr) on an unknown
    /// scale, a flag missing its value, `--jobs 0`, or an error
    /// from `extra`; exits 0 on `--help`.
    pub fn parse_with(
        usage: &str,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<(), String>,
    ) -> Opts {
        let mut opts = Opts::at_scale(Scale::Small);
        let mut args = std::env::args().skip(1);
        let value = |args: &mut dyn Iterator<Item = String>, flag: &str, of: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(usage, &format!("{flag} requires a value ({of})")))
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    opts.scale = match value(&mut args, "--scale", "tiny|small|full").as_str() {
                        "tiny" => Scale::Tiny,
                        "small" => Scale::Small,
                        "full" => Scale::Full,
                        other => usage_error(
                            usage,
                            &format!("unknown scale `{other}` (tiny|small|full)"),
                        ),
                    };
                }
                "--csv" => opts.csv = true,
                "--jobs" => {
                    let v = value(&mut args, "--jobs", "a worker count");
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => grid::set_jobs(n),
                        _ => usage_error(usage, &format!("invalid --jobs value `{v}`")),
                    }
                }
                "--help" | "-h" => {
                    println!("{usage}");
                    std::process::exit(0);
                }
                other => {
                    if let Err(msg) = extra(other, &mut args) {
                        usage_error(usage, &msg);
                    }
                }
            }
        }
        opts.jobs = grid::jobs();
        opts
    }

    /// Options for library/test use at a given scale (CSV off, current
    /// global worker count).
    pub fn at_scale(scale: Scale) -> Opts {
        Opts {
            scale,
            csv: false,
            jobs: grid::jobs(),
        }
    }
}

/// A simple aligned text table that can also render as CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column names.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Render aligned text.
    pub fn text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render CSV.
    pub fn csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Text, and CSV when requested, each followed by a blank line.
    pub fn render(&self, csv: bool) -> String {
        let mut out = self.text() + "\n";
        if csv {
            let _ = writeln!(out, "CSV:\n{}", self.csv());
        }
        out
    }
}

/// Format a ratio with 3 significant decimals.
pub fn r3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// DDOS detection-accuracy metrics for one run (Table I).
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectionMetrics {
    /// True spin detection rate: detected true SIBs / true SIBs that were
    /// dynamically executed.
    pub tsdr: f64,
    /// False spin detection rate: detected non-SIB backward branches /
    /// executed non-SIB backward branches.
    pub fsdr: f64,
    /// Mean detection-phase ratio over true detections.
    pub dpr_true: f64,
    /// Mean detection-phase ratio over false detections.
    pub dpr_false: f64,
}

/// Compute Table I's metrics from a finished run.
pub fn detection_metrics(res: &WorkloadResult) -> DetectionMetrics {
    let mut true_total = 0usize;
    let mut true_found = 0usize;
    let mut false_total = 0usize;
    let mut false_found = 0usize;
    let mut dpr_t = Vec::new();
    let mut dpr_f = Vec::new();
    for s in &res.stages {
        let confirmed = &s.report.confirmed_sibs;
        for &pc in &s.backward_branches {
            let Some(t) = s.report.branch_log.get(pc) else {
                continue; // never executed
            };
            let is_true = s.true_sibs.contains(&pc);
            let hit = confirmed.iter().find(|&&(p, _)| p == pc);
            if is_true {
                true_total += 1;
            } else {
                false_total += 1;
            }
            if let Some(&(_, at)) = hit {
                let lifetime = (t.last - t.first).max(1) as f64;
                let phase = at.saturating_sub(t.first) as f64 / lifetime;
                if is_true {
                    true_found += 1;
                    dpr_t.push(phase.min(1.0));
                } else {
                    false_found += 1;
                    dpr_f.push(phase.min(1.0));
                }
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    DetectionMetrics {
        tsdr: if true_total == 0 {
            1.0
        } else {
            true_found as f64 / true_total as f64
        },
        fsdr: if false_total == 0 {
            0.0
        } else {
            false_found as f64 / false_total as f64
        },
        dpr_true: mean(&dpr_t),
        dpr_false: mean(&dpr_f),
    }
}

/// Run every (workload × scheduler) cell of a figure grid on the thread
/// pool, returning per-workload result rows in suite order (config order
/// within each row). Output is deterministic at any worker count.
///
/// # Panics
///
/// Panics with workload/config context if any cell returns a
/// [`SimError`] — matching the serial `.expect("run")` behavior.
pub fn run_suite_grid(
    cfg: &GpuConfig,
    suite: &[Box<dyn Workload>],
    scheds: &[SchedConfig],
) -> Vec<Vec<WorkloadResult>> {
    let cells: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|w| (0..scheds.len()).map(move |c| (w, c)))
        .collect();
    let flat = grid::parallel_map(&cells, |_, &(w, c)| {
        run(cfg, suite[w].as_ref(), scheds[c])
            .unwrap_or_else(|e| panic!("{} under {}: {e}", suite[w].name(), scheds[c].label()))
    });
    let mut flat = flat.into_iter();
    suite
        .iter()
        .map(|_| scheds.iter().map(|_| flat.next().expect("cell")).collect())
        .collect()
}

/// Table III (implementation cost of DDOS and BOWS) as a string, one
/// section per GPU configuration. Pure configuration arithmetic — no
/// simulation — but the per-config sections still go through the grid so
/// determinism tests can compare serial and parallel assembly end to end.
pub fn table3_report(csv: bool) -> String {
    let cfgs = [GpuConfig::gtx480(), GpuConfig::gtx1080ti()];
    let sections = grid::parallel_map(&cfgs, |_, cfg| {
        let warps = cfg.warps_per_sm() as u64;
        let mut ddos = DdosConfig::default();
        let mut out = format!("{} ({} warps/SM):\n", cfg.name, warps);
        let mut t = Table::new(&["component", "bits", "notes"]);
        let c = bows::ImplementationCost::per_sm(&ddos, warps);
        t.row(vec![
            "SIB-PT".into(),
            c.sibpt_bits.to_string(),
            format!("{} entries x 35 bits", ddos.sibpt_entries),
        ]);
        t.row(vec![
            "history registers".into(),
            c.history_bits.to_string(),
            format!("{} warps x {} bits", warps, ddos.history_bits_per_warp()),
        ]);
        t.row(vec![
            "detector FSM".into(),
            c.fsm_bits.to_string(),
            format!("{warps} x 4-state FSM"),
        ]);
        t.row(vec![
            "pending delay counters".into(),
            c.delay_counter_bits.to_string(),
            format!("{warps} x 14 bits (delays to 10000)"),
        ]);
        t.row(vec![
            "backed-off queue".into(),
            c.backed_off_queue_bits.to_string(),
            format!("{warps} x 5 bits"),
        ]);
        t.row(vec![
            "TOTAL".into(),
            c.total_bits().to_string(),
            format!("{} bytes", c.total_bytes()),
        ]);
        let _ = writeln!(out, "{}", t.text());
        if csv {
            let _ = writeln!(out, "CSV:\n{}", t.csv());
        }
        // The cost-reduction option the paper mentions: time sharing.
        ddos.time_share_epoch = Some(1000);
        let shared = bows::ImplementationCost::per_sm(&ddos, warps);
        let _ = writeln!(
            out,
            "with time-shared history registers: {} bits total ({} bytes)\n",
            shared.total_bits(),
            shared.total_bytes()
        );
        out
    });
    sections.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.5".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let text = t.text();
        assert!(text.contains("long-name"));
        assert!(text.lines().count() == 4);
        let csv = t.csv();
        assert_eq!(csv.lines().next(), Some("name,value"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn sched_config_labels() {
        assert_eq!(SchedConfig::baseline(BasePolicy::Gto).label(), "gto");
        assert_eq!(
            SchedConfig::bows(BasePolicy::Lrr, DelayMode::Fixed(500)).label(),
            "lrr+bows(500)"
        );
        assert_eq!(
            SchedConfig::bows_adaptive(BasePolicy::Cawa).label(),
            "cawa+bows(adaptive)"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(r3(1.23456), "1.235");
        assert_eq!(pct(0.613), "61.3%");
    }

    #[test]
    fn end_to_end_run_and_metrics() {
        use workloads::sync::Hashtable;
        let cfg = GpuConfig::test_tiny();
        let ht = Hashtable::with_params(128, 2, 4, 64);
        let mut sc = SchedConfig::baseline(BasePolicy::Gto);
        sc.force_ddos = true;
        let res = run(&cfg, &ht, sc).unwrap();
        assert!(res.verified.is_ok());
        let m = detection_metrics(&res);
        assert!(m.tsdr > 0.99, "DDOS finds HT's spin branch: {m:?}");
        assert_eq!(m.fsdr, 0.0, "no false detections with XOR");
        assert!(m.dpr_true < 0.5, "detection is early in the run");
    }
}
