//! `bows-run` — assemble and execute a kernel file on the simulated GPU.
//!
//! ```sh
//! bows-run kernels/spinlock.s --ctas 16 --tpc 256 \
//!     --param buf:1 --param buf:1 --sched gto --bows adaptive --dump 1:1
//! ```
//!
//! Parameters are declared left to right with `--param`:
//! * `--param <u32>` — a scalar parameter slot,
//! * `--param buf:<words>[=<fill>]` — allocate a zero- (or fill-)
//!   initialized device buffer and pass its base address.
//!
//! `--dump <i>:<len>` prints the first `len` words of the buffer passed in
//! parameter slot `i` after the run. `--format json` prints, instead of the
//! report, the one-line body `simt_serve::run_request` returns for the
//! same launch.

use bows_sim::prelude::*;
use simt_serve::json::{error_body, kernel_report_json, sim_error_json};
use simt_serve::request::{check_dump, launch, LaunchError, ParamSpec};
use simt_serve::{Json, SimRequest};
use std::process::ExitCode;

struct Cli {
    kernel_path: String,
    /// The launch as the service would be asked for it (`kernel` is filled
    /// in from the file); the service's size caps do not apply here.
    req: SimRequest,
    timeout_wall_s: Option<f64>,
    lint: bool,
    format_json: bool,
    profile: bool,
    checkpoint_every: Option<u64>,
    resume: Option<String>,
    state_dir: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bows-run <kernel.s> [--ctas N] [--tpc N] [--param V|buf:W[=F]]...\n\
         \x20            [--sched lrr|gto|cawa] [--bows <cycles>|adaptive] [--no-ddos]\n\
         \x20            [--gpu gtx480|gtx1080ti|tiny] [--dump I:LEN]...\n\
         \x20            [--chaos-seed N] [--chaos-level 0..3]\n\
         \x20            [--timeout-cycles N] [--timeout-wall SECS] [--lint]\n\
         \x20            [--format human|json] [--profile]\n\
         \x20            [--state-dir DIR] [--checkpoint-every N] [--resume SNAP]\n\
         \n\
         --checkpoint-every writes a deterministic snapshot of the full\n\
         simulation state into --state-dir every N cycles (atomic\n\
         temp-file + fsync + rename; requires --state-dir). --resume\n\
         restarts from such a snapshot file and produces bit-identical\n\
         final stats and memory to the uninterrupted run. A snapshot\n\
         records the kernel, launch geometry, and GPU config it was\n\
         taken under; resuming with a mismatched kernel or config exits\n\
         2 with a clear error.\n\
         \n\
         --profile collects a host wall-clock breakdown of the run loop\n\
         (fetch/issue/execute/mem-cycle/skip-horizon, and what the\n\
         remaining `other` is made of), the share of SM-cycles the skip\n\
         engine slept through and the warps classified per SM-cycle run,\n\
         printed after the run report; with --format json the breakdown is\n\
         one JSON object on a second line. Purely observational: simulated\n\
         results are bit-identical with and without it.\n\
         \n\
         --chaos-seed seeds the deterministic memory fault injector\n\
         (same seed => bit-identical run); --chaos-level picks intensity\n\
         (0 off, 1 latency jitter, 2 +NACKs, 3 +MSHR squeeze; default 1\n\
         when only a seed is given).\n\
         \n\
         --timeout-cycles caps the run at N cycles (0 = unlimited),\n\
         overriding the --gpu preset's limit; a capped hang exits with a\n\
         classified hang report like any other watchdog trip.\n\
         \n\
         --timeout-wall caps *host* wall-clock time (fractional seconds\n\
         allowed). On expiry the simulator exits at its next\n\
         forward-progress scan with a structured JSON timeout error on\n\
         stdout and exit status 3; when checkpointing is on, it first\n\
         writes a snapshot of the cycle it stopped at, and the JSON\n\
         carries that path so the run can be picked up with --resume.\n\
         \n\
         --lint runs the static analyzer instead of simulating: prints\n\
         correctness diagnostics and the statically-classified spin\n\
         branches, exits 2 when any error-severity diagnostic fires.\n\
         --format json emits the diagnostics as one structured JSON\n\
         object (severity, lint name, pc/line span, machine-readable\n\
         witness) — the same payload the service's pre-admission lint\n\
         returns in its 422 bodies.\n\
         \n\
         --format json on a run prints one JSON line on stdout instead\n\
         of the report: the body the simulation service answers the same\n\
         launch with — the kernel report and --dump words on success,\n\
         {{\"error\":{{\"kind\",\"message\",..}}}} on a failed simulation (exit\n\
         statuses are the same in both formats)."
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut cli = Cli {
        kernel_path: String::new(),
        req: SimRequest {
            kernel: String::new(),
            ctas: 1,
            tpc: 128,
            params: Vec::new(),
            gpu: "gtx480".into(),
            sched: BasePolicy::Gto,
            bows: None,
            ddos: true,
            timeout_cycles: None,
            chaos_seed: None,
            chaos_level: None,
            dumps: Vec::new(),
            tenant: "anon".into(),
            priority: 1,
        },
        timeout_wall_s: None,
        lint: false,
        format_json: false,
        profile: false,
        checkpoint_every: None,
        resume: None,
        state_dir: None,
    };
    let next = |args: &mut dyn Iterator<Item = String>, what: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {what}");
            usage()
        })
    };
    let req = &mut cli.req;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ctas" => {
                req.ctas = next(&mut args, "--ctas")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--tpc" => req.tpc = next(&mut args, "--tpc").parse().unwrap_or_else(|_| usage()),
            "--param" => {
                let v = next(&mut args, "--param");
                if let Some(spec) = v.strip_prefix("buf:") {
                    let (words, fill) = match spec.split_once('=') {
                        Some((w, f)) => (
                            w.parse().unwrap_or_else(|_| usage()),
                            f.parse().unwrap_or_else(|_| usage()),
                        ),
                        None => (spec.parse().unwrap_or_else(|_| usage()), 0),
                    };
                    req.params.push(ParamSpec::Buffer { words, fill });
                } else {
                    req.params
                        .push(ParamSpec::Scalar(v.parse().unwrap_or_else(|_| usage())));
                }
            }
            "--sched" => {
                req.sched = next(&mut args, "--sched")
                    .parse()
                    .unwrap_or_else(|()| usage());
            }
            "--bows" => {
                let v = next(&mut args, "--bows");
                req.bows = Some(if v == "adaptive" {
                    DelayMode::Adaptive(AdaptiveConfig::default())
                } else {
                    DelayMode::Fixed(v.parse().unwrap_or_else(|_| usage()))
                });
            }
            "--no-ddos" => req.ddos = false,
            "--gpu" => {
                req.gpu = next(&mut args, "--gpu");
                if GpuConfig::preset(&req.gpu).is_none() {
                    usage();
                }
            }
            "--dump" => {
                let v = next(&mut args, "--dump");
                let (i, len) = v.split_once(':').unwrap_or_else(|| usage());
                req.dumps.push((
                    i.parse().unwrap_or_else(|_| usage()),
                    len.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--chaos-seed" => {
                req.chaos_seed = Some(
                    next(&mut args, "--chaos-seed")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--chaos-level" => {
                let lvl: u8 = next(&mut args, "--chaos-level")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if lvl > 3 {
                    usage();
                }
                req.chaos_level = Some(lvl);
            }
            "--timeout-cycles" => {
                req.timeout_cycles = Some(
                    next(&mut args, "--timeout-cycles")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--timeout-wall" => {
                let s: f64 = next(&mut args, "--timeout-wall")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if !s.is_finite() || s <= 0.0 {
                    usage();
                }
                cli.timeout_wall_s = Some(s);
            }
            "--checkpoint-every" => {
                let n: u64 = next(&mut args, "--checkpoint-every")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if n == 0 {
                    eprintln!("--checkpoint-every must be positive");
                    usage();
                }
                cli.checkpoint_every = Some(n);
            }
            "--resume" => cli.resume = Some(next(&mut args, "--resume")),
            "--state-dir" => {
                cli.state_dir = Some(next(&mut args, "--state-dir").into());
            }
            "--lint" => cli.lint = true,
            "--profile" => cli.profile = true,
            "--format" => match next(&mut args, "--format").as_str() {
                "human" => cli.format_json = false,
                "json" => cli.format_json = true,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            other if cli.kernel_path.is_empty() && !other.starts_with('-') => {
                cli.kernel_path = other.to_string();
            }
            _ => usage(),
        }
    }
    if cli.kernel_path.is_empty() {
        usage();
    }
    for &(slot, len) in &cli.req.dumps {
        if let Err(e) = check_dump(&cli.req.params, slot, len) {
            eprintln!("--dump {slot}:{len}: {e}");
            usage();
        }
    }
    if cli.checkpoint_every.is_some() && cli.state_dir.is_none() {
        eprintln!("--checkpoint-every needs --state-dir to know where snapshots go");
        usage();
    }
    if cli.lint && (cli.checkpoint_every.is_some() || cli.resume.is_some()) {
        eprintln!("--lint does not simulate, so --checkpoint-every/--resume make no sense with it");
        usage();
    }
    cli
}

/// `--lint`: static analysis without simulation.
///
/// Assembles without validation ([`simt_isa::asm::assemble_raw`]) so that
/// kernels the assembler would reject — the very bugs the lints explain —
/// can still be analyzed. Prints every diagnostic with its source line and
/// the static spin-branch classification; exits 2 when any error-severity
/// diagnostic fires (mirroring the usage exit so scripts can distinguish
/// "kernel is broken" from "simulation failed").
fn lint_file(path: &str, src: &str, as_json: bool) -> ExitCode {
    let raw = match simt_isa::asm::assemble_raw(src) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = simt_analyze::analyze_insts(&raw.insts);
    if as_json {
        use simt_serve::json::diagnostics_json;
        let doc = Json::Obj(vec![
            ("kernel".into(), Json::Str(raw.name.clone())),
            ("instructions".into(), Json::UInt(raw.insts.len() as u64)),
            (
                "sibs".into(),
                Json::Arr(
                    analysis
                        .sibs
                        .iter()
                        .map(|s| Json::UInt(s.branch_pc as u64))
                        .collect(),
                ),
            ),
            (
                "diagnostics".into(),
                diagnostics_json(&raw.insts, &analysis.diagnostics),
            ),
        ]);
        println!("{}", doc.render());
        return if analysis.has_errors() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    println!(
        "kernel      : {} ({} instructions)",
        raw.name,
        raw.insts.len()
    );
    if analysis.sibs.is_empty() {
        println!("spin loops  : none");
    } else {
        for sib in &analysis.sibs {
            println!(
                "spin loop   : branch pc {} -> header pc {} (observes loads at {:?})",
                sib.branch_pc, sib.header_pc, sib.observers
            );
        }
    }
    for d in &analysis.diagnostics {
        let line = raw.insts.get(d.pc).map_or(0, |i| i.line);
        println!("{path}:{line}: {d}");
    }
    if analysis.has_errors() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Read and envelope-check a snapshot file written by `--checkpoint-every`.
///
/// Returns the decoded body, ready for [`CheckpointCtl::resume`]. Any
/// problem — unreadable file, bad magic, truncation, checksum mismatch —
/// comes back as one human-readable line; the caller exits 2 (the same
/// status as a usage error: the *invocation* is wrong, not the simulator).
fn read_snapshot(path: &str) -> Result<Vec<u8>, String> {
    let bytes = bows_sim::snap::read_file(std::path::Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?;
    bows_sim::snap::decode_envelope(&bytes)
        .map(<[u8]>::to_vec)
        .map_err(|e| format!("{path}: {e}"))
}

/// `--profile --format json`: the phase breakdown as one JSON object.
fn profile_json(p: &simt_core::ProfileReport) -> Json {
    let mut fields: Vec<(String, Json)> = p
        .phases()
        .iter()
        .map(|&(name, ns)| (format!("{name}_ns"), Json::UInt(ns)))
        .collect();
    fields.push(("other_ns".into(), Json::UInt(p.other_ns())));
    for (name, ns) in p.other_breakdown() {
        fields.push((format!("other_{name}_ns"), Json::UInt(ns)));
    }
    fields.push(("total_ns".into(), Json::UInt(p.total_ns)));
    fields.push(("sm_cycles_run".into(), Json::UInt(p.sm_cycles_run)));
    fields.push(("sm_cycles_slept".into(), Json::UInt(p.sm_cycles_slept)));
    fields.push(("warps_classified".into(), Json::UInt(p.warps_classified)));
    Json::Obj(vec![("profile".into(), Json::Obj(fields))])
}

fn main() -> ExitCode {
    let mut cli = parse_cli();
    cli.req.kernel = match std::fs::read_to_string(&cli.kernel_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", cli.kernel_path);
            return ExitCode::FAILURE;
        }
    };
    if cli.lint {
        return lint_file(&cli.kernel_path, &cli.req.kernel, cli.format_json);
    }
    let resume_body = match cli.resume.as_deref() {
        Some(path) => match read_snapshot(path) {
            Ok(b) => Some(b),
            Err(msg) => {
                eprintln!("cannot resume: {msg}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    if let Some(dir) = &cli.state_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --state-dir {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let mut last_ckpt: Option<std::path::PathBuf> = None;
    let every = cli.checkpoint_every.unwrap_or(0);
    let mut sink = |cycle: u64, body: &[u8]| {
        let Some(dir) = &cli.state_dir else { return };
        let path = dir.join(format!("ckpt-{cycle:012}.bsnp"));
        let bytes = bows_sim::snap::encode_envelope(body);
        match bows_sim::snap::atomic_write(&path, &bytes) {
            // Only a fully written, fsynced, renamed file counts as
            // "the last checkpoint" — a failed write leaves the
            // previous one in charge.
            Ok(()) => last_ckpt = Some(path),
            Err(e) => eprintln!("warning: checkpoint at cycle {cycle} not written: {e}"),
        }
    };
    let ctl = (every > 0 || resume_body.is_some()).then_some(CheckpointCtl {
        every,
        sink: &mut sink,
        resume: resume_body.as_deref(),
    });
    let deadline = cli
        .timeout_wall_s
        .map(|secs| std::time::Instant::now() + std::time::Duration::from_secs_f64(secs));
    // The launch path of `simt_serve::run_request`, so `--format json`
    // prints the bytes the service answers the same launch with.
    let run = match launch(&cli.req, cli.profile, deadline, ctl) {
        Ok(run) => run,
        Err(LaunchError::Asm(e)) => {
            if cli.format_json {
                println!("{}", error_body("asm_error", &e.to_string()));
            } else {
                eprintln!("{}: {e}", cli.kernel_path);
            }
            return ExitCode::FAILURE;
        }
        Err(LaunchError::Sim(e @ SimError::Cancelled { .. })) => {
            // Structured, machine-readable timeout on stdout (the same
            // shape the simulation service returns) and a distinct
            // exit status, so wrappers can tell "out of wall time"
            // from "kernel is broken". When checkpointing was on, the
            // snapshot of the cycle the run stopped at rides along so
            // the caller can pick the run back up with --resume.
            let mut fields = vec![("error".into(), sim_error_json(&e))];
            if let Some(p) = &last_ckpt {
                fields.push(("checkpoint".into(), Json::Str(p.display().to_string())));
            }
            println!("{}", Json::Obj(fields).render());
            return ExitCode::from(3);
        }
        Err(LaunchError::Sim(e @ SimError::Snapshot { .. })) => {
            // The snapshot didn't match this invocation (different
            // kernel, launch geometry, or GPU config) or was corrupt
            // past the envelope. Like a flag conflict: the command
            // line is wrong, not the simulator.
            eprintln!("cannot resume: {e}");
            return ExitCode::from(2);
        }
        Err(LaunchError::Sim(e)) => {
            if cli.format_json {
                println!(
                    "{}",
                    Json::Obj(vec![("error".into(), sim_error_json(&e))]).render()
                );
            } else {
                eprintln!("simulation failed: {e}");
                if let Some(report) = e.hang_report() {
                    eprintln!("{report}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let (kernel, gpu, report, dumps) = (run.kernel, run.gpu, run.report, run.dumps);
    if cli.format_json {
        println!("{}", kernel_report_json(&report, &dumps).render());
        if let Some(p) = &report.profile {
            println!("{}", profile_json(p).render());
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "kernel      : {} ({} instructions)",
        kernel.name,
        kernel.static_len()
    );
    println!("gpu         : {}", gpu.cfg.name);
    println!("scheduler   : {}", report.scheduler);
    println!("detector    : {}", report.detector);
    println!("cycles      : {} ({:.3} ms)", report.cycles, report.time_ms);
    println!("warp inst   : {}", report.sim.issued_inst);
    println!("thread inst : {}", report.sim.thread_inst);
    println!("SIMD eff    : {:.1}%", 100.0 * report.sim.simd_efficiency());
    println!(
        "memory      : {} transactions ({} atomics, {} DRAM reads)",
        report.mem.total_transactions, report.mem.atomic_transactions, report.mem.dram_reads
    );
    println!(
        "locks       : {} acquired, {} inter-warp fails, {} intra-warp fails",
        report.mem.lock_success, report.mem.lock_inter_fail, report.mem.lock_intra_fail
    );
    println!(
        "energy      : {:.3} mJ dynamic",
        report.energy.dynamic_j() * 1e3
    );
    if let Some(p) = &report.profile {
        let ms = |ns: u64| ns as f64 / 1e6;
        let pct = |ns: u64| 100.0 * ns as f64 / (p.total_ns.max(1)) as f64;
        println!(
            "profile     : {:.2} ms host wall, {:.0} cycles/sec",
            ms(p.total_ns),
            report.cycles as f64 / (p.total_ns as f64 / 1e9).max(1e-9)
        );
        for (name, ns) in p.phases() {
            println!("  {name:<12}: {:>10.3} ms ({:>4.1}%)", ms(ns), pct(ns));
        }
        println!(
            "  {:<12}: {:>10.3} ms ({:>4.1}%)",
            "other",
            ms(p.other_ns()),
            pct(p.other_ns())
        );
        for (name, ns) in p.other_breakdown() {
            println!("    {name:<10}: {:>10.3} ms ({:>4.1}%)", ms(ns), pct(ns));
        }
        println!(
            "  {:<12}: {} run, {} slept ({:.1}% slept), {:.2} classified per SM-cycle",
            "sm-cycles",
            p.sm_cycles_run,
            p.sm_cycles_slept,
            100.0 * p.slept_share(),
            p.classified_per_cycle()
        );
    }
    if gpu.cfg.mem.chaos.enabled() {
        let c = gpu.mem().chaos_stats();
        println!(
            "chaos       : seed {}: {} delayed (+{} cy), {} NACKs, {} atomic delays, \
             {} MSHR squeezes",
            gpu.cfg.mem.chaos.seed,
            c.latency_injections,
            c.extra_latency_cycles,
            c.nacks,
            c.atomic_delays,
            c.mshr_squeezes
        );
    }
    if !report.confirmed_sibs.is_empty() {
        println!(
            "DDOS        : spin-inducing branches {:?}",
            report.confirmed_sibs
        );
    }
    for (slot, vals) in &dumps {
        println!("param[{slot}][0..{}] = {vals:?}", vals.len());
    }
    ExitCode::SUCCESS
}
