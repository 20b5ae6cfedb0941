//! Tracked-performance report: runs one tiny-scale pass per figure group
//! and writes `BENCH_<label>.json` — wall time per group plus
//! simulated-cycles-per-second throughput. With `--check <baseline>`, the
//! fresh run is compared against a committed baseline: any simulated-cycle
//! drift fails (the simulator is deterministic), wall-time drift only
//! warns. Not an experiment regenerator: `run_experiments.sh` skips it.

use experiments::{grid, SchedConfig};
use simt_core::{BasePolicy, Engine, GpuConfig};
use std::time::Instant;
use workloads::sync::{Hashtable, HtMode};
use workloads::{rodinia_suite, sync_suite, Scale};

/// Run every (workload × sched) cell of a suite, returning total cycles.
fn suite_cycles(cfg: &GpuConfig, suite: &[Box<dyn workloads::Workload>], scheds: &[SchedConfig]) -> u64 {
    experiments::run_suite_grid(cfg, suite, scheds)
        .iter()
        .flatten()
        .map(|r| r.cycles)
        .sum()
}

fn group_fig2() -> u64 {
    let cfg = GpuConfig::gtx480();
    let scheds: Vec<SchedConfig> = [BasePolicy::Lrr, BasePolicy::Gto, BasePolicy::Cawa]
        .iter()
        .map(|&p| SchedConfig::baseline(p))
        .collect();
    suite_cycles(&cfg, &sync_suite(Scale::Tiny), &scheds)
}

fn group_fig9() -> u64 {
    let cfg = GpuConfig::gtx480();
    let scheds = [
        SchedConfig::baseline(BasePolicy::Gto),
        SchedConfig::bows_adaptive(BasePolicy::Gto),
    ];
    suite_cycles(&cfg, &sync_suite(Scale::Tiny), &scheds)
}

fn group_fig14() -> u64 {
    let cfg = GpuConfig::gtx480();
    let mut modulo = SchedConfig::bows(BasePolicy::Gto, bows::DelayMode::Fixed(1000));
    modulo.ddos = bows::DdosConfig {
        hash: bows::HashKind::Modulo,
        ..bows::DdosConfig::default()
    };
    let scheds = [SchedConfig::baseline(BasePolicy::Gto), modulo];
    suite_cycles(&cfg, &rodinia_suite(Scale::Tiny), &scheds)
}

fn group_fig16() -> u64 {
    let cfg = GpuConfig::gtx480();
    let cells: Vec<(u32, u8)> = [32u32, 128, 512]
        .iter()
        .flat_map(|&b| (0u8..3).map(move |k| (b, k)))
        .collect();
    grid::parallel_map(&cells, |_, &(buckets, kind)| {
        let ht = Hashtable::with_params(1024, 1, buckets, 128);
        let res = match kind {
            0 => experiments::run(&cfg, &ht, SchedConfig::baseline(BasePolicy::Gto)),
            1 => experiments::run(&cfg, &ht, SchedConfig::bows_adaptive(BasePolicy::Gto)),
            _ => experiments::run(
                &cfg,
                &ht.with_mode(HtMode::IdealNoLock),
                SchedConfig::baseline(BasePolicy::Gto),
            ),
        };
        res.expect("fig16 group cell").cycles
    })
    .iter()
    .sum()
}

fn group_pascal() -> u64 {
    let cfg = GpuConfig::gtx1080ti();
    let scheds = [SchedConfig::baseline(BasePolicy::Gto)];
    suite_cycles(&cfg, &sync_suite(Scale::Tiny), &scheds)
}

/// A named figure group returning its total simulated cycles.
type Group = (&'static str, fn() -> u64);

const GROUPS: &[Group] = &[
    ("fig2_baseline_policies", group_fig2),
    ("fig9_bows_vs_baseline", group_fig9),
    ("fig14_modulo_false_detect", group_fig14),
    ("fig16_ideal_blocking", group_fig16),
    ("pascal_sync_suite", group_pascal),
];

const USAGE: &str = "usage: bench_report [--label <name>] [--out <dir>] [--check <baseline.json>] [--check-wall [<ratio>]] [--reps <n>] [--only <substr>] [--jobs <n>] [--engine cycle|skip] [--profile]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Cli {
    label: String,
    out_dir: String,
    check: Option<String>,
    /// Wall-time gate ratio for `--check`: regressions beyond it fail the
    /// check instead of warning. `None` keeps wall drift advisory.
    check_wall: Option<f64>,
    profile: bool,
    /// Timing repetitions per group; the best (minimum) wall time is
    /// reported. Simulated cycles must agree across reps (determinism).
    reps: usize,
    /// Run only groups whose name contains this substring.
    only: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        label: "local".to_string(),
        out_dir: ".".to_string(),
        check: None,
        check_wall: None,
        profile: false,
        reps: 1,
        only: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--label" => match args.next() {
                Some(v) if v.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') => {
                    cli.label = v;
                }
                Some(v) => usage_error(&format!("label `{v}` must be [A-Za-z0-9_-]")),
                None => usage_error("--label requires a value"),
            },
            "--out" => match args.next() {
                Some(v) => cli.out_dir = v,
                None => usage_error("--out requires a value"),
            },
            "--check" => match args.next() {
                Some(v) => cli.check = Some(v),
                None => usage_error("--check requires a value"),
            },
            // The tolerance value is optional: a bare `--check-wall` gates
            // at the default 1.25x.
            "--check-wall" => match args.peek().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r.is_finite() && r >= 1.0 => {
                    args.next();
                    cli.check_wall = Some(r);
                }
                Some(_) => usage_error("--check-wall ratio must be >= 1.0 (e.g. 1.25)"),
                None => cli.check_wall = Some(1.25),
            },
            "--profile" => {
                cli.profile = true;
                experiments::set_profile(true);
            }
            "--reps" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cli.reps = n,
                _ => usage_error("--reps requires a positive integer"),
            },
            "--only" => match args.next() {
                Some(v) => cli.only = Some(v),
                None => usage_error("--only requires a value"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => grid::set_jobs(n),
                _ => usage_error("--jobs requires a positive integer"),
            },
            // Simulated cycles are engine-independent (the equivalence
            // suite enforces it); the flag exists here to measure the
            // wall-time delta between the two engines on identical work.
            "--engine" => match args.next().and_then(|v| v.parse::<Engine>().ok()) {
                Some(e) => experiments::set_engine(Some(e)),
                None => usage_error("--engine requires `cycle` or `skip`"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }
    cli
}

/// Render the per-group phase breakdown `--profile` collected: one row
/// per group, one column per phase, in milliseconds with the share of the
/// group's attributed time, then the share of SM-cycles slept through and
/// the warps classified per SM-cycle run; under it, what `other` is made
/// of.
fn print_profiles(profiles: &[(&str, simt_core::ProfileReport)]) {
    if profiles.is_empty() {
        eprintln!("profile: no phase data collected");
        return;
    }
    println!("\nphase profile (ms, % of run-loop wall):");
    for (name, p) in profiles {
        let ms = |ns: u64| ns as f64 / 1e6;
        let pct = |ns: u64| 100.0 * ns as f64 / (p.total_ns.max(1)) as f64;
        let cells: Vec<String> = p
            .phases()
            .iter()
            .map(|&(ph, ns)| format!("{ph} {:.1} ({:.0}%)", ms(ns), pct(ns)))
            .collect();
        println!(
            "  {name}: total {:.1}  {}  other {:.1}  sm-cycles slept {:.0}%  classified per SM-cycle {:.2}",
            ms(p.total_ns),
            cells.join("  "),
            ms(p.other_ns()),
            100.0 * p.slept_share(),
            p.classified_per_cycle()
        );
        let other: Vec<String> = p
            .other_breakdown()
            .iter()
            .map(|&(part, ns)| format!("{part} {:.1} ({:.0}%)", ms(ns), pct(ns)))
            .collect();
        println!("    other: {}", other.join("  "));
    }
}

fn main() {
    let cli = parse_cli();
    if cli.check_wall.is_some() && cli.check.is_none() {
        usage_error("--check-wall needs --check <baseline.json> to gate against");
    }
    let jobs = grid::jobs();
    let mut groups = Vec::new();
    let mut profiles: Vec<(&str, simt_core::ProfileReport)> = Vec::new();
    for (name, f) in GROUPS {
        if cli.only.as_ref().is_some_and(|s| !name.contains(s.as_str())) {
            continue;
        }
        // Wall time is best-of-`reps`: the minimum is the run least
        // disturbed by whatever else the host was doing, which is the
        // honest estimate of the code's speed. Cycles must not vary — the
        // simulator is deterministic, so a flicker here is a real bug.
        let mut wall_ms = f64::INFINITY;
        let mut cycles = 0u64;
        for rep in 0..cli.reps {
            experiments::take_profile_totals(); // drop any stale accumulation
            let t0 = Instant::now();
            let c = f();
            let rep_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(p) = experiments::take_profile_totals() {
                if rep == 0 {
                    profiles.push((name, p));
                }
            }
            if rep > 0 && c != cycles {
                eprintln!("FAIL: {name}: cycles flickered across reps ({cycles} vs {c})");
                std::process::exit(1);
            }
            cycles = c;
            wall_ms = wall_ms.min(rep_ms);
        }
        eprintln!("{name}: {wall_ms:.1}ms, {cycles} cycles");
        groups.push(experiments::report::GroupResult {
            name: name.to_string(),
            wall_ms,
            cycles,
            cycles_per_sec: cycles as f64 / (wall_ms / 1e3).max(1e-9),
        });
    }
    if cli.profile {
        print_profiles(&profiles);
    }
    let report = experiments::report::BenchReport {
        label: cli.label,
        scale: "tiny".to_string(),
        jobs,
        groups,
    };

    if let Some(baseline_path) = cli.check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read `{baseline_path}`: {e}")));
        let mut baseline = experiments::report::BenchReport::from_json(&text)
            .unwrap_or_else(|e| usage_error(&format!("bad baseline `{baseline_path}`: {e}")));
        // `--only` narrows the baseline the same way it narrowed the run,
        // so a partial check compares the groups that ran instead of
        // failing on the ones it deliberately skipped.
        if let Some(only) = &cli.only {
            baseline.groups.retain(|g| g.name.contains(only.as_str()));
            if baseline.groups.is_empty() {
                usage_error(&format!("--only {only} matches no baseline group"));
            }
        }
        let (failures, warnings) = match cli.check_wall {
            Some(tol) => report.check_wall(&baseline, tol),
            None => report.check_against(&baseline),
        };
        for d in report.wall_deltas(&baseline) {
            eprintln!("wall: {d}");
        }
        for w in &warnings {
            eprintln!("WARNING: {w}");
        }
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        if failures.is_empty() {
            println!(
                "bench check OK: {} groups match baseline `{}` ({} warnings)",
                baseline.groups.len(),
                baseline.label,
                warnings.len()
            );
        } else {
            eprintln!("bench check FAILED ({} failures)", failures.len());
            std::process::exit(1);
        }
        return;
    }

    let path = format!("{}/{}", cli.out_dir, report.file_name());
    std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
        eprintln!("error: cannot write `{path}`: {e}");
        std::process::exit(1);
    });
    println!("wrote {path}");
}
