//! The repository's checkable claims as a registry: [`GATES`] names one
//! gate per claim, and the `check` binary runs the ones it is asked for.
//!
//! A gate returns a [`Verdict`]: the report its file under `results/`
//! holds, and whether the claim held. `oracle` checks the paper's detection
//! claims (XOR DDOS makes no false detection, MODULO aliases on MS/HL);
//! `race_oracle`, `differ`, `fuzz` and `snap_fuzz` check the simulator
//! against independent oracles; `crash_drill`, `serve` and `serve_chaos`
//! ([`service`]) drive the simulation service. The corpus the first three
//! share is built once per [`Check`], and the drill kernels below are the
//! one copy every drill submits. A seed-window gate that checked nothing
//! fails.

pub mod service;

use crate::differ::{check_suite, matrix, DEFAULT_FUEL};
use crate::fixture::check_fixture;
use crate::fuzz::{run_seed, shrink, FuzzCase};
use crate::mutants::{sync_mutant, Mutation, SyncMutant};
use crate::oracle::{oracle_stages, precision_recall, OracleStage};
use crate::{grid, pct, Opts, Table};
use bows::HashKind;
use simt_analyze::{analyze_insts, AnalyzeExt, Severity, Witness};
use simt_core::{
    sched::BasePolicy, CheckpointCtl, Gpu, GpuConfig, KernelReport, LaunchSpec, SimError,
};
use simt_isa::asm::assemble;
use simt_isa::Kernel;
use simt_mem::GlobalMem;
use simt_ref::{run_ref_traced, RefError, RefLaunch, TracedRun, WordKey};
use simt_serve::chaos::splitmix64;
use simt_snap::{decode_envelope, encode_envelope};
use std::fmt::Write as _;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use workloads::{rodinia_suite, sync_suite, Scale, Workload};

/// The bundled spin-lock counter: every thread increments `[param1]` once
/// under the lock at `[param0]`.
const LOCK_KERNEL: &str = include_str!("../../../kernels/spinlock.s");

/// Every thread increments its own word of `[param0]`.
const VEC_KERNEL: &str = "\
.kernel inc
.regs 8
.params 1
    ld.param r1, [0]
    mov r2, %gtid
    shl r2, r2, 2
    add r1, r1, r2
    ld.global r3, [r1]
    add r3, r3, 1
    st.global [r1], r3
    exit
";

/// Spins until `[param0] == 1`; the buffer holds 0, so it never exits. The
/// watchdog (or the cycle budget) turns this into a deterministic
/// structured 422 — never a hung worker.
const HANG_KERNEL: &str = "\
.kernel waits_forever
.regs 6
.params 1
    ld.param r1, [0]
SPIN:
    ld.global.volatile r2, [r1]
    setp.eq.s32 p1, r2, 1 !sync
@!p1 bra SPIN !sib !sync
    exit
";

/// A gate's outcome: its report, and whether its claim held.
#[derive(Debug)]
pub struct Verdict {
    /// The text `check` prints, or writes to `DIR/<gate>.txt`.
    pub report: String,
    /// True when every check of the gate passed.
    pub pass: bool,
}

/// Runs one gate.
pub type Gate = fn(&mut Check) -> Verdict;

/// Every gate, in the order `check` runs them.
pub const GATES: &[(&str, Gate)] = &[
    ("oracle", oracle),
    ("race_oracle", race_oracle),
    ("differ", differ),
    ("fuzz", fuzz),
    ("snap_fuzz", snap_fuzz),
    ("crash_drill", service::crash_drill),
    ("serve", service::serve),
    ("serve_chaos", service::serve_chaos),
];

/// What the gates share: the command line and the workload corpus.
pub struct Check {
    /// Scale and CSV choice.
    pub opts: Opts,
    /// `--seed`: the first seed of `fuzz` and `snap_fuzz`, the drill seed
    /// of `crash_drill`, `serve` and `serve_chaos`; each has its own
    /// default.
    pub seed: Option<u64>,
    /// `--matrix full`: `differ` sweeps the 27-cell matrix, not the 7-cell
    /// one.
    pub full_matrix: bool,
    /// `--emit DIR`: `fuzz` writes each shrunk divergence there as a
    /// fixture.
    pub emit: Option<PathBuf>,
    /// The 8 sync and 14 Rodinia workloads at `opts.scale`.
    corpus: Vec<Box<dyn Workload>>,
}

impl Check {
    /// The gates at `opts`, with every other setting at its default.
    pub fn new(opts: Opts) -> Check {
        let mut corpus = sync_suite(opts.scale);
        corpus.extend(rodinia_suite(opts.scale));
        Check {
            opts,
            seed: None,
            full_matrix: false,
            emit: None,
            corpus,
        }
    }
}

/// Runs `gates` in order, handing each verdict to `done`. A gate that
/// panics is a FAIL, and the gates after it still run. True when every
/// gate passed.
pub fn run_all(
    check: &mut Check,
    gates: &[(&str, Gate)],
    mut done: impl FnMut(&str, &Verdict),
) -> bool {
    let mut all = true;
    for &(name, gate) in gates {
        // The panic hook has already printed the message to stderr.
        let verdict = catch_unwind(AssertUnwindSafe(|| gate(check))).unwrap_or_else(|_| Verdict {
            report: format!("{name}: panicked\n"),
            pass: false,
        });
        all &= verdict.pass;
        done(name, &verdict);
    }
    all
}

/// Space-separated pcs, `-` for none.
fn pcs(v: &[usize]) -> String {
    if v.is_empty() {
        return "-".to_string();
    }
    v.iter().map(usize::to_string).collect::<Vec<_>>().join(" ")
}

/// Cross-validates DDOS against the static spin-loop oracle: every workload
/// runs twice under a passive DDOS (GTO, detection only), once with XOR and
/// once with MODULO history hashing, and the confirmations are joined per
/// kernel against the `!sib` annotations and the static classification.
fn oracle(c: &mut Check) -> Verdict {
    let cfg = GpuConfig::gtx480();
    let stages = oracle_stages(&cfg, &c.corpus);
    let mut report = format!(
        "oracle: static spin-loop classification vs DDOS confirmations \
         (passive GTO runs on {})\n\n",
        cfg.name
    );
    let mut t = Table::new(&[
        "workload",
        "kernel",
        "annotated",
        "static",
        "executed",
        "xor",
        "modulo",
        "xor-false",
        "mod-false",
    ]);
    for s in &stages {
        t.row(vec![
            s.workload.clone(),
            s.kernel.clone(),
            pcs(&s.true_sibs),
            pcs(&s.static_sibs),
            pcs(&s.executed),
            pcs(&s.xor_confirmed),
            pcs(&s.modulo_confirmed),
            pcs(&s.xor_false()),
            pcs(&s.modulo_false()),
        ]);
    }
    report += &t.render(c.opts.csv);
    let mut sum = Table::new(&["detector", "suite", "tp", "fp", "fn", "precision", "recall"]);
    for hash in [HashKind::Xor, HashKind::Modulo] {
        for (label, sync_only) in [
            ("sync", Some(true)),
            ("rodinia", Some(false)),
            ("all", None),
        ] {
            let pr = precision_recall(&stages, hash, sync_only);
            sum.row(vec![
                hash.name().to_string(),
                label.to_string(),
                pr.tp.to_string(),
                pr.fp.to_string(),
                pr.fn_.to_string(),
                pct(pr.precision()),
                pct(pr.recall()),
            ]);
        }
    }
    report += &sum.render(c.opts.csv);
    let verdicts = oracle_verdicts(&stages);
    Verdict {
        report: report + &verdicts.report,
        pass: verdicts.pass,
    }
}

/// `oracle`'s four claims on the joined stages, one PASS/FAIL line each:
/// the static classification reproduces the annotations; XOR confirms no
/// branch the oracle rejects; the oracle claims no spin on the sync-free
/// suite; and every branch MODULO confirms beyond XOR is one the oracle
/// rejects (Figure 14: the hashes differ by aliasing, not by detection).
pub fn oracle_verdicts(stages: &[OracleStage]) -> Verdict {
    let mut v = Verdict {
        report: String::new(),
        pass: true,
    };
    let mut check = |name: &str, offenders: Vec<String>, detail: String| {
        let pass = offenders.is_empty();
        let listed = if pass {
            String::new()
        } else {
            format!(": {offenders:?}")
        };
        let status = if pass { "PASS" } else { "FAIL" };
        let _ = writeln!(v.report, "{status} {name}{detail}{listed}");
        v.pass &= pass;
    };
    let offenders = |bad: &dyn Fn(&OracleStage) -> bool| -> Vec<String> {
        stages
            .iter()
            .filter(|s| bad(s))
            .map(|s| format!("{}/{}", s.workload, s.kernel))
            .collect()
    };

    check(
        "static classification == !sib annotations on every kernel",
        offenders(&|s| !s.static_matches_annotation()),
        String::new(),
    );
    let xor_fp = precision_recall(stages, HashKind::Xor, None).fp;
    check(
        "XOR confirmations all statically classified (zero false detections)",
        offenders(&|s| !s.xor_false().is_empty()),
        format!(" [{xor_fp} rejected]"),
    );
    check(
        "no static spin claims on the synchronization-free suite",
        offenders(&|s| !s.is_sync && !s.static_sibs.is_empty()),
        String::new(),
    );
    let mod_fp = precision_recall(stages, HashKind::Modulo, None).fp;
    check(
        "MODULO extras reported as false detections",
        offenders(&|s| {
            let rejected = s.modulo_false();
            s.modulo_confirmed
                .iter()
                .any(|pc| !s.xor_confirmed.contains(pc) && !rejected.contains(pc))
        }),
        format!(" [{mod_fp} false detections attributed]"),
    );
    v
}

/// Fuel for mutant runs expected to finish. The mutant kernels are small
/// (≤128 threads, two critical sections) — this is far above their worst
/// case.
const RUN_FUEL: u64 = 1 << 24;
/// Fuel for runs expected to hang: a dropped release deadlocks every
/// remaining thread deterministically, so any generous budget suffices.
const HANG_FUEL: u64 = 1 << 21;

/// One leg of `race_oracle`: checks counted, failures listed in the report.
struct Leg {
    name: &'static str,
    checked: usize,
    failures: usize,
}

impl Leg {
    fn new(name: &'static str) -> Leg {
        Leg {
            name,
            checked: 0,
            failures: 0,
        }
    }

    fn check(&mut self, report: &mut String, ok: bool, what: &str) {
        self.checked += 1;
        if !ok {
            self.failures += 1;
            let _ = writeln!(report, "FAIL [{}] {what}", self.name);
        }
    }
}

/// Run `src` on the traced reference with the standard mutant memory
/// layout: four words — lock A, lock B, data, flag — passed as params.
fn run_mutant_kernel(src: &str, tpc: usize, fuel: u64) -> (TracedRun, [u64; 4]) {
    let kernel = assemble(src).expect("mutant assembles");
    let mut gmem = GlobalMem::new();
    let base = gmem.alloc(16);
    let words = [base, base + 4, base + 8, base + 12];
    let params: Vec<u32> = words.iter().map(|&w| w as u32).collect();
    let launch = RefLaunch {
        grid_ctas: 1,
        threads_per_cta: tpc,
        params: &params,
    };
    (run_ref_traced(&kernel, &launch, gmem, fuel), words)
}

/// `race_oracle`'s corpus checks for one workload, in order: every kernel
/// lints completely clean, and a traced reference run of every stage
/// observes no race.
fn corpus_precision(cfg: &GpuConfig, w: &dyn Workload) -> Vec<(bool, String)> {
    let mut checks = Vec::new();
    let mut gpu = Gpu::new(cfg.clone());
    for stage in &w.prepare(&mut gpu).stages {
        let analysis = stage.kernel.analyze();
        checks.push((
            analysis.diagnostics.is_empty(),
            format!(
                "{}/{}: static diagnostics on clean corpus: {:?}",
                w.name(),
                stage.kernel.name,
                analysis.diagnostics
            ),
        ));
    }
    let plan = workloads::reference_plan(cfg, w);
    let mut gmem = plan.initial_gmem;
    for stage in &plan.stages {
        let launch = RefLaunch {
            grid_ctas: stage.launch.grid_ctas,
            threads_per_cta: stage.launch.threads_per_cta,
            params: &stage.launch.params,
        };
        let traced = run_ref_traced(&stage.kernel, &launch, gmem, DEFAULT_FUEL);
        checks.push((
            traced.races.is_empty(),
            format!(
                "{}/{}: dynamic races on clean corpus: {:?}",
                w.name(),
                stage.kernel.name,
                traced.races
            ),
        ));
        match traced.outcome {
            Ok(out) => gmem = out.gmem,
            Err(e) => {
                checks.push((false, format!("{}: reference run failed: {e:?}", w.name())));
                break;
            }
        }
    }
    checks
}

/// The static verdict on a mutant: does the expected lint fire at error
/// severity, and what does its witness point at?
fn static_verdict(m: &SyncMutant) -> (bool, Option<String>) {
    let kernel = assemble(&m.mutated).expect("mutant assembles");
    let analysis = analyze_insts(&kernel.insts);
    let hit = analysis
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error && d.kind == m.mutation.expected_lint());
    let location = hit.and_then(|d| match &d.witness {
        Some(Witness::Race { location, .. }) => Some(location.clone()),
        _ => None,
    });
    (hit.is_some(), location)
}

/// Cross-validates the static race/deadlock analyzer against the reference
/// interpreter's happens-before checker, in three legs:
///
/// * **corpus precision** — every corpus kernel lints completely clean (no
///   errors *and* no warnings: the corpus is the analyzer's false-positive
///   budget, and it is zero), and a traced reference run of every workload
///   observes zero dynamic races;
/// * **mutant recall** — for each seed, the planted-defect mutants
///   ([`crate::mutants`]) each report their expected error-severity lint,
///   while their un-mutated base kernels lint clean;
/// * **dynamic agreement** — hoisted-publish mutants race dynamically on
///   the flag word the static witness names, dropped-release mutants hang
///   (fuel exhaustion), and order-swapped mutants and all base kernels run
///   to completion with zero observations.
fn race_oracle(c: &mut Check) -> Verdict {
    let mut report =
        "race_oracle: static race/deadlock verdicts vs happens-before observations\n\n".to_string();
    let cfg = GpuConfig::test_tiny();
    let mut precision = Leg::new("corpus-precision");
    let per_workload = grid::parallel_map(&c.corpus, |_, w| corpus_precision(&cfg, w.as_ref()));
    for (ok, what) in per_workload.into_iter().flatten() {
        precision.check(&mut report, ok, &what);
    }
    let mut recall = Leg::new("mutant-recall");
    let mut agree = Leg::new("dynamic-agreement");

    let mut t = Table::new(&["seed", "mutation", "expected", "static", "dynamic", "agree"]);
    let seeds = match c.opts.scale {
        Scale::Tiny => 3,
        Scale::Small => 6,
        Scale::Full => 12,
    };
    for seed in 0..seeds {
        // The base kernel is shared by all three mutations of a seed:
        // statically clean, runs to completion, zero observations, and the
        // data/flag words land on their single-schedule values.
        let b = sync_mutant(seed, Mutation::HoistStore);
        let base_kernel = assemble(&b.base).expect("base assembles");
        recall.check(
            &mut report,
            analyze_insts(&base_kernel.insts).diagnostics.is_empty(),
            &format!("seed {seed}: base kernel not lint-clean"),
        );
        let (run, words) = run_mutant_kernel(&b.base, b.threads_per_cta, RUN_FUEL);
        let clean_end = run.outcome.as_ref().is_ok_and(|out| {
            out.gmem.read_u32(words[2]) == b.expected_data
                && out.gmem.read_u32(words[3]) == b.flag_value
        });
        let races = &run.races;
        let what = format!("seed {seed}: base kernel must run clean (races {races:?})");
        agree.check(&mut report, clean_end && races.is_empty(), &what);

        for mu in Mutation::ALL {
            let m = sync_mutant(seed, mu);
            let (name, expected) = (mu.name(), mu.expected_lint().name());
            let (hit, witness_loc) = static_verdict(&m);
            let what = format!("seed {seed} {name}: expected lint {expected} missing");
            recall.check(&mut report, hit, &what);

            let fuel = if mu.expects_hang() {
                HANG_FUEL
            } else {
                RUN_FUEL
            };
            let (run, words) = run_mutant_kernel(&m.mutated, m.threads_per_cta, fuel);
            let flag_word = WordKey::Global(words[3]);
            let (dynamic, ok) = if mu.expects_hang() {
                (
                    "hang".to_string(),
                    matches!(run.outcome, Err(RefError::Fuel { .. })) && run.races.is_empty(),
                )
            } else if mu.expects_dynamic_race() {
                // Every observation must be on the flag word the static
                // witness names (param[12] resolves to words[3]).
                let on_flag =
                    !run.races.is_empty() && run.races.iter().all(|r| r.word == flag_word);
                let witness_names_flag = witness_loc.as_deref() == Some("param[12]");
                (
                    format!("{} race(s)", run.races.len()),
                    run.outcome.is_ok() && on_flag && witness_names_flag,
                )
            } else {
                (
                    "clean".to_string(),
                    run.outcome.is_ok() && run.races.is_empty(),
                )
            };
            let what = format!("seed {seed} {name}: dynamic verdict disagrees ({dynamic})");
            agree.check(&mut report, ok, &what);
            t.row(vec![
                seed.to_string(),
                name.to_string(),
                expected.to_string(),
                if hit { "hit" } else { "MISS" }.to_string(),
                dynamic,
                if ok { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    report += &t.render(c.opts.csv);

    report.push('\n');
    let mut sum = Table::new(&["leg", "checked", "failures", "pass"]);
    let legs = [precision, recall, agree];
    for leg in &legs {
        sum.row(vec![
            leg.name.to_string(),
            leg.checked.to_string(),
            leg.failures.to_string(),
            pct(1.0 - leg.failures as f64 / leg.checked.max(1) as f64),
        ]);
    }
    report += &sum.render(c.opts.csv);
    let failures: usize = legs.iter().map(|l| l.failures).sum();
    if failures > 0 {
        let _ = writeln!(report, "\nrace_oracle: {failures} failure(s)");
    } else {
        report += "\nrace_oracle: all verdicts agree\n";
    }
    Verdict {
        report,
        pass: failures == 0,
    }
}

/// The committed divergence fixtures, relative to the repository root.
const FIXTURES: &str = "tests/fixtures/differential";

/// Sweeps the corpus through the cycle-level simulator and the functional
/// reference interpreter across the `--matrix` of {scheduler × BOWS × DDOS
/// hash × chaos} cells, then re-judges every committed fixture against its
/// `expect` directive.
fn differ(c: &mut Check) -> Verdict {
    let cfg = match c.opts.scale {
        Scale::Tiny => GpuConfig::test_tiny(),
        _ => GpuConfig::gtx480(),
    };
    let cells = matrix(c.full_matrix);
    let mut report = format!(
        "differ: {} workloads x {} cells on {} (fuel {DEFAULT_FUEL})\n",
        c.corpus.len(),
        cells.len(),
        cfg.name
    );
    let divergences = check_suite(&cfg, &c.corpus, &cells, DEFAULT_FUEL);
    let mut pass = divergences.is_empty();
    if pass {
        let runs = c.corpus.len() * cells.len();
        let _ = writeln!(report, "corpus: engines agree on all {runs} runs\n");
    } else {
        let _ = writeln!(report, "corpus: {} divergence(s):", divergences.len());
        for d in &divergences {
            let _ = writeln!(report, "  {d}");
        }
        report.push('\n');
    }

    let mut paths: Vec<PathBuf> = std::fs::read_dir(FIXTURES)
        .unwrap_or_else(|e| panic!("cannot read {FIXTURES}: {e}"))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    // Fixtures encode residency-limit expectations against the test_tiny
    // machine; they do not scale with --scale.
    let tiny = GpuConfig::test_tiny();
    let mut t = Table::new(&["fixture", "expect", "observed", "status"]);
    let mut failed = 0usize;
    for path in &paths {
        let name = path.file_stem().expect("a .s file has a stem");
        let name = name.to_string_lossy().into_owned();
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|src| check_fixture(&tiny, &name, &src, DEFAULT_FUEL));
        let (expect, observed, verdict) = match outcome {
            Ok(out) => {
                let observed = out.reports.first().map_or("agree", |r| r.divergence.kind());
                (
                    out.fixture.expect.clone(),
                    observed.to_string(),
                    out.verdict(),
                )
            }
            Err(e) => ("-".into(), "-".into(), Err(e)),
        };
        failed += usize::from(verdict.is_err());
        let status = verdict.map_or_else(|e| format!("FAIL: {e}"), |()| "ok".to_string());
        t.row(vec![name, expect, observed, status]);
    }
    let _ = writeln!(report, "{}", t.text());
    if failed == 0 {
        let n = paths.len();
        let _ = writeln!(report, "fixtures: {n} reproduced their expected divergence");
    } else {
        let _ = writeln!(report, "fixtures: {failed} FAILED");
        pass = false;
    }
    Verdict { report, pass }
}

/// The number of seeds `fuzz` checks at `scale`, from `--seed` (default 1)
/// on; `--seed` plus this must fit in a `u64`.
pub fn fuzz_window(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 500,
        Scale::Small => 5_000,
        Scale::Full => 20_000,
    }
}

/// Accepted mutations a diverging fuzz kernel is shrunk by, at most.
const SHRINK_STEPS: usize = 64;

/// The seed-window fuzzer: one generated kernel per seed, each through the
/// reference interpreter and the simulator under a seed-derived
/// scheduler/chaos cell. A pure function of the window, so CI replays the
/// same kernels on every commit.
fn fuzz(c: &mut Check) -> Verdict {
    let first = c.seed.unwrap_or(1);
    fuzz_seeds(c, first..first + fuzz_window(c.opts.scale))
}

/// `fuzz` over `seeds`: fails on any divergence, and when no kernel was
/// checked. Each diverging kernel is shrunk to a minimal reproducer,
/// written to `--emit DIR` as a fixture when one is given.
pub fn fuzz_seeds(c: &Check, seeds: Range<u64>) -> Verdict {
    let cfg = GpuConfig::test_tiny();
    let mut report = format!(
        "fuzz: seeds {}..{} on {} (fuel {DEFAULT_FUEL})\n",
        seeds.start, seeds.end, cfg.name
    );
    let seeds: Vec<u64> = seeds.collect();
    let cases = grid::parallel_map(&seeds, |_, &s| run_seed(&cfg, s, DEFAULT_FUEL));
    let rejected = cases.iter().filter(|c| c.is_none()).count();
    let checked = cases.len() - rejected;
    let diverging: Vec<&FuzzCase> = cases
        .iter()
        .flatten()
        .filter(|c| !c.reports.is_empty())
        .collect();
    let _ = writeln!(
        report,
        "fuzz: {checked} kernels checked, {rejected} rejected by the lint filter, {} diverging",
        diverging.len()
    );
    for case in &diverging {
        let _ = writeln!(
            report,
            "\nseed {} diverged: {}",
            case.kernel.seed, case.reports[0]
        );
        let small = shrink(&cfg, case, DEFAULT_FUEL, SHRINK_STEPS);
        let k = &small.kernel;
        let _ = writeln!(
            report,
            "  shrunk to {} nodes, ctas={} tpc={}",
            k.node_count(),
            k.ctas,
            k.tpc
        );
        match &c.emit {
            Some(dir) => {
                let path = dir.join(format!("fuzz_{}.s", k.seed));
                std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&path, small.fixture_source()))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
                let _ = writeln!(report, "  wrote {}", path.display());
            }
            None => {
                let _ = writeln!(
                    report,
                    "  reproduce with: check fuzz --scale tiny --seed {}",
                    k.seed
                );
            }
        }
    }
    Verdict {
        report,
        pass: checked > 0 && diverging.is_empty(),
    }
}

/// A fresh GPU holding [`LOCK_KERNEL`]'s lock and counter words, and the
/// launch of two CTAs of 64 threads over them.
fn lock_gpu(cfg: &GpuConfig) -> (Gpu, LaunchSpec) {
    let mut gpu = Gpu::new(cfg.clone());
    let mutex = gpu.mem_mut().gmem_mut().alloc(1);
    let counter = gpu.mem_mut().gmem_mut().alloc(1);
    let launch = LaunchSpec {
        grid_ctas: 2,
        threads_per_cta: 64,
        params: vec![mutex as u32, counter as u32],
    };
    (gpu, launch)
}

/// Runs [`LOCK_KERNEL`] under GTO, its `!sib` annotations as the detector.
fn run_lock(
    gpu: &mut Gpu,
    kernel: &Kernel,
    launch: &LaunchSpec,
    ctl: Option<CheckpointCtl<'_>>,
) -> Result<KernelReport, SimError> {
    gpu.run_with_checkpoints(
        kernel,
        launch,
        &|| BasePolicy::Gto.build(50_000),
        &simt_core::static_sib_detector,
        ctl,
    )
}

/// Truncates `bytes` or flips one bit of it, as `r` says.
fn corrupt(bytes: &mut Vec<u8>, r: u64) {
    if r & 1 == 0 {
        bytes.truncate((splitmix64(r) as usize) % bytes.len());
    } else {
        let bit = (splitmix64(r) as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// The layer one snapshot corruption case exercised and how it ended.
enum SnapCase {
    /// A damaged file image, refused by the envelope decoder.
    Envelope,
    /// A damaged body refused as a resume image, the GPU left untouched.
    Rejected,
    /// A damaged body that restored, or failed later with a structured
    /// error.
    Restored,
    /// A damaged body whose resume panicked: a violation, nothing else.
    Panicked,
}

/// Seeded corruption fuzz for the snapshot decoder: real mid-run snapshots
/// of [`LOCK_KERNEL`], truncated and bit-flipped. A damaged file image must
/// be refused by [`decode_envelope`] with a structured error; a damaged
/// body resumed by `Gpu::run_with_checkpoints` must never panic, and when
/// refused must be a `SimError::Snapshot` that leaves the GPU able to
/// reproduce the control run bit for bit.
fn snap_fuzz(c: &mut Check) -> Verdict {
    let count = match c.opts.scale {
        Scale::Tiny => 200,
        Scale::Small => 1_000,
        Scale::Full => 5_000,
    };
    snap_fuzz_cases(c.seed.unwrap_or(1), count)
}

/// `snap_fuzz` over `count` cases from `seed`: fails on any violation, and
/// when no case ran.
pub fn snap_fuzz_cases(seed: u64, count: u64) -> Verdict {
    let cfg = GpuConfig::test_tiny();
    let kernel = assemble(LOCK_KERNEL).expect("drill kernel assembles");
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let mut sink = |_c: u64, b: &[u8]| bodies.push(b.to_vec());
    let ctl = CheckpointCtl {
        every: 128,
        sink: &mut sink,
        resume: None,
    };
    let (mut gpu, launch) = lock_gpu(&cfg);
    let control = run_lock(&mut gpu, &kernel, &launch, Some(ctl)).expect("control run completes");
    let control_mem = gpu.mem().gmem().image().to_vec();
    assert!(!bodies.is_empty(), "fixture must produce mid-run snapshots");

    let cases: Vec<u64> = (0..count).collect();
    let outcomes = grid::parallel_map(&cases, |_, &case| {
        let r = splitmix64(seed.wrapping_add(case.wrapping_mul(0x9e37_79b9)));
        let body = &bodies[(r as usize) % bodies.len()];
        if case % 2 == 0 {
            let mut file = encode_envelope(body);
            corrupt(&mut file, r);
            return match catch_unwind(|| decode_envelope(&file).map(<[u8]>::to_vec)) {
                Ok(Err(_structured)) => (SnapCase::Envelope, None),
                Ok(Ok(_)) => (
                    SnapCase::Envelope,
                    Some(format!(
                        "case {case}: corrupted envelope decoded successfully"
                    )),
                ),
                Err(_) => (
                    SnapCase::Envelope,
                    Some(format!("case {case}: decode_envelope panicked")),
                ),
            };
        }
        let mut bad = body.clone();
        corrupt(&mut bad, r);
        let (mut victim, launch) = lock_gpu(&cfg);
        let mut nosink = |_c: u64, _b: &[u8]| {};
        let ctl = CheckpointCtl {
            every: 0,
            sink: &mut nosink,
            resume: Some(&bad),
        };
        match catch_unwind(AssertUnwindSafe(|| {
            run_lock(&mut victim, &kernel, &launch, Some(ctl))
        })) {
            Err(_) => (
                SnapCase::Panicked,
                Some(format!("case {case}: resume of corrupted body panicked")),
            ),
            Ok(Err(SimError::Snapshot { .. })) => {
                // A structured rejection must leave the GPU unmutated: a
                // fresh run on it must match the control bit for bit.
                let problem = match run_lock(&mut victim, &kernel, &launch, None) {
                    Ok(rep)
                        if rep.cycles == control.cycles
                            && rep.sim == control.sim
                            && victim.mem().gmem().image() == &control_mem[..] =>
                    {
                        None
                    }
                    Ok(_) => Some(format!(
                        "case {case}: rejected resume left partial state behind \
                         (fresh run diverged from control)"
                    )),
                    Err(e) => Some(format!(
                        "case {case}: GPU unusable after rejected resume: {e}"
                    )),
                };
                (SnapCase::Rejected, problem)
            }
            // A flip that survives parsing may put the machine in a state
            // that then fails deterministically (deadlock, cycle limit…).
            // Structured is what matters.
            Ok(_) => (SnapCase::Restored, None),
        }
    });

    let (mut envelope_cases, mut body_rejected, mut body_restored, mut violations) = (0, 0, 0, 0);
    for (layer, problem) in outcomes {
        match layer {
            SnapCase::Envelope => envelope_cases += 1,
            SnapCase::Rejected => body_rejected += 1,
            SnapCase::Restored => body_restored += 1,
            SnapCase::Panicked => {}
        }
        if let Some(p) = problem {
            eprintln!("{p}");
            violations += 1;
        }
    }
    let report = format!(
        "{{\"drill\":\"snap_fuzz\",\"seed\":{seed},\"count\":{count},\
         \"envelope_cases\":{envelope_cases},\"body_rejected\":{body_rejected},\
         \"body_restored_or_failed_structured\":{body_restored},\
         \"violations\":{violations}}}\n"
    );
    Verdict {
        report,
        pass: count > 0 && violations == 0,
    }
}
