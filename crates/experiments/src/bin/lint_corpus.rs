//! `lint_corpus`: run the `simt-analyze` lints over every kernel of the
//! workload corpus (8 sync + 14 Rodinia workloads, as prepared at Tiny
//! scale) and check the static spin classification against the `!sib`
//! annotations.
//!
//! The workload kernels live as assembler text inside the `workloads`
//! crate, so unlike `bows-run --lint` (which lints a kernel *file*) this
//! binary prepares each workload and lints the assembled result. Exits 2
//! when any error-severity diagnostic fires or any kernel's static spin
//! set disagrees with its annotations — CI runs this to keep the corpus
//! clean and the classifier honest.

use experiments::Opts;
use simt_analyze::AnalyzeExt;
use simt_core::{Gpu, GpuConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = Opts::parse();
    let cfg = opts.config(GpuConfig::test_tiny());
    let mut kernels = 0usize;
    let mut failures = 0usize;
    let mut suite = workloads::sync_suite(opts.scale);
    suite.extend(workloads::rodinia_suite(opts.scale));
    for w in &suite {
        let mut gpu = Gpu::new(cfg.clone());
        let prepared = w.prepare(&mut gpu);
        for stage in &prepared.stages {
            kernels += 1;
            let analysis = stage.kernel.analyze();
            for d in &analysis.diagnostics {
                println!("{}/{}: {d}", w.name(), stage.kernel.name);
            }
            if analysis.has_errors() {
                failures += 1;
                continue;
            }
            if analysis.sib_pcs() != stage.kernel.true_sibs {
                println!(
                    "{}/{}: static spin set {:?} != annotated {:?}",
                    w.name(),
                    stage.kernel.name,
                    analysis.sib_pcs(),
                    stage.kernel.true_sibs
                );
                failures += 1;
            }
        }
    }
    println!("linted {kernels} kernels across {} workloads: {failures} failing", suite.len());
    if failures > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
