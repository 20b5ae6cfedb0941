//! `race_oracle`: cross-validate the static race/deadlock analyzer
//! against the reference interpreter's happens-before checker.
//!
//! Three legs, joined the way the SIB `oracle` binary joins static
//! classification against DDOS confirmations:
//!
//! * **Precision** — every kernel of the 22-kernel paper corpus must lint
//!   completely clean (no errors *and* no warnings: the corpus is the
//!   analyzer's false-positive budget, and it is zero), and a traced
//!   reference run of every workload must observe zero dynamic races.
//! * **Recall** — for each seed, the planted-defect mutants
//!   ([`experiments::mutants`]) must each report their expected
//!   error-severity lint, while their un-mutated base kernels lint clean.
//! * **Dynamic agreement** — the happens-before checker must agree with
//!   every dynamic-race verdict: hoisted-publish mutants race dynamically
//!   on the flag word named by the static witness, dropped-release
//!   mutants hang (fuel exhaustion), order-swapped mutants and all base
//!   kernels run to completion with zero observations.
//!
//! Exits 2 on any false positive, missed mutant, or static/dynamic
//! disagreement, so CI can gate on it.

use experiments::mutants::{sync_mutant, Mutation, SyncMutant};
use experiments::{pct, Opts, Table};
use simt_analyze::{analyze_insts, AnalyzeExt, LintKind, Severity, Witness};
use simt_core::{Gpu, GpuConfig};
use simt_isa::asm::assemble;
use simt_mem::GlobalMem;
use simt_ref::{run_ref_traced, RefError, RefLaunch, TracedRun, WordKey};
use std::process::ExitCode;
use workloads::Scale;

/// Fuel for runs expected to finish. The mutant kernels are small (≤128
/// threads, two critical sections) — this is far above their worst case.
const RUN_FUEL: u64 = 1 << 24;
/// Fuel for runs expected to hang: a dropped release deadlocks every
/// remaining thread deterministically, so any generous budget suffices.
const HANG_FUEL: u64 = 1 << 21;

fn seeds_for(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 3,
        Scale::Small => 6,
        Scale::Full => 12,
    }
}

/// Run `src` on the traced reference with the standard mutant memory
/// layout: four words — lock A, lock B, data, flag — passed as params.
fn run_mutant_kernel(src: &str, tpc: usize, fuel: u64) -> (TracedRun, u64, [u64; 4]) {
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
    (run_ref_traced(&kernel, &launch, gmem, fuel), base, words)
}

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

    fn check(&mut self, ok: bool, what: &str) {
        self.checked += 1;
        if !ok {
            self.failures += 1;
            println!("FAIL [{}] {what}", self.name);
        }
    }
}

/// Leg 1: the paper corpus is the zero-false-positive budget, statically
/// and dynamically.
fn corpus_precision(opts: &Opts) -> Leg {
    let mut leg = Leg::new("corpus-precision");
    let cfg = opts.config(GpuConfig::test_tiny());
    let mut suite = workloads::sync_suite(opts.scale);
    suite.extend(workloads::rodinia_suite(opts.scale));
    for w in &suite {
        let mut gpu = Gpu::new(cfg.clone());
        let prepared = w.prepare(&mut gpu);
        for stage in &prepared.stages {
            let analysis = stage.kernel.analyze();
            leg.check(
                analysis.diagnostics.is_empty(),
                &format!(
                    "{}/{}: static diagnostics on clean corpus: {:?}",
                    w.name(),
                    stage.kernel.name,
                    analysis.diagnostics
                ),
            );
        }
        // Dynamic leg: trace every stage of the workload in sequence.
        let plan = workloads::reference_plan(&cfg, w.as_ref());
        let mut gmem = plan.initial_gmem;
        for stage in &plan.stages {
            let launch = RefLaunch {
                grid_ctas: stage.launch.grid_ctas,
                threads_per_cta: stage.launch.threads_per_cta,
                params: &stage.launch.params,
            };
            let traced = run_ref_traced(&stage.kernel, &launch, gmem, experiments::differ::DEFAULT_FUEL);
            leg.check(
                traced.races.is_empty(),
                &format!(
                    "{}/{}: dynamic races on clean corpus: {:?}",
                    w.name(),
                    stage.kernel.name,
                    traced.races
                ),
            );
            match traced.outcome {
                Ok(out) => gmem = out.gmem,
                Err(e) => {
                    leg.check(false, &format!("{}: reference run failed: {e:?}", w.name()));
                    break;
                }
            }
        }
    }
    leg
}

/// The static verdict on a mutant: does the expected lint fire at error
/// severity, and what does its witness point at?
fn static_verdict(m: &SyncMutant) -> (bool, Option<String>) {
    let kernel = assemble(&m.mutated).expect("mutant assembles");
    let analysis = analyze_insts(&kernel.insts);
    let hit = analysis.diagnostics.iter().find(|d| {
        d.severity == Severity::Error && d.kind.name() == m.mutation.expected_lint()
    });
    let location = hit.and_then(|d| match &d.witness {
        Some(Witness::Race { location, .. }) => Some(location.clone()),
        _ => None,
    });
    (hit.is_some(), location)
}

fn main() -> ExitCode {
    let opts = Opts::parse();
    println!("race_oracle: static race/deadlock verdicts vs happens-before observations\n");

    let mut legs = vec![corpus_precision(&opts)];
    let mut recall = Leg::new("mutant-recall");
    let mut agree = Leg::new("dynamic-agreement");

    let mut t = Table::new(&[
        "seed", "mutation", "expected", "static", "dynamic", "agree",
    ]);
    for seed in 0..seeds_for(opts.scale) {
        // The base kernel is shared by all three mutations of a seed:
        // statically clean, runs to completion, zero observations, and the
        // data/flag words land on their single-schedule values.
        let b = sync_mutant(seed, Mutation::HoistStore);
        let base_kernel = assemble(&b.base).expect("base assembles");
        recall.check(
            analyze_insts(&base_kernel.insts).diagnostics.is_empty(),
            &format!("seed {seed}: base kernel not lint-clean"),
        );
        let (run, _, words) = run_mutant_kernel(&b.base, b.threads_per_cta, RUN_FUEL);
        let clean_end = match run.outcome {
            Ok(out) => {
                let data = out.gmem.read_u32(words[2]);
                let flag = out.gmem.read_u32(words[3]);
                data == b.expected_data && flag == b.flag_value
            }
            Err(_) => false,
        };
        agree.check(
            clean_end && run.races.is_empty(),
            &format!("seed {seed}: base kernel must run clean (races {:?})", run.races),
        );

        for mu in Mutation::ALL {
            let m = sync_mutant(seed, mu);
            let (hit, witness_loc) = static_verdict(&m);
            recall.check(
                hit,
                &format!("seed {seed} {}: expected lint {} missing", mu.name(), m.mutation.expected_lint()),
            );

            let fuel = if mu.expects_hang() { HANG_FUEL } else { RUN_FUEL };
            let (run, _, words) = run_mutant_kernel(&m.mutated, m.threads_per_cta, fuel);
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
            agree.check(ok, &format!("seed {seed} {}: dynamic verdict disagrees ({dynamic})", mu.name()));

            t.row(vec![
                seed.to_string(),
                mu.name().to_string(),
                m.mutation.expected_lint().to_string(),
                if hit { "hit" } else { "MISS" }.to_string(),
                dynamic,
                if ok { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.emit(&opts);
    legs.push(recall);
    legs.push(agree);

    println!();
    let mut sum = Table::new(&["leg", "checked", "failures", "pass"]);
    let mut failures = 0;
    for leg in &legs {
        failures += leg.failures;
        sum.row(vec![
            leg.name.to_string(),
            leg.checked.to_string(),
            leg.failures.to_string(),
            pct(1.0 - leg.failures as f64 / leg.checked.max(1) as f64),
        ]);
    }
    sum.emit(&opts);

    // Quiet-but-load-bearing: the lint names asserted above must stay in
    // sync with the analyzer's vocabulary.
    assert_eq!(LintKind::RaceUnlocked.name(), "data-race");

    if failures > 0 {
        println!("\nrace_oracle: {failures} failure(s)");
        ExitCode::from(2)
    } else {
        println!("\nrace_oracle: all verdicts agree");
        ExitCode::SUCCESS
    }
}
