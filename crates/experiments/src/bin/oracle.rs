//! `oracle`: cross-validate DDOS detection against the static spin-loop
//! oracle from `simt-analyze`.
//!
//! Runs every workload (8 sync + 14 Rodinia) twice under a passive DDOS
//! (GTO scheduling, detection only) — once with XOR history hashing, once
//! with MODULO — and joins the dynamic confirmations per kernel against
//! the `!sib` annotations and the static classification. Prints the
//! per-kernel join and a precision/recall summary per hashing scheme, then
//! checks the paper's claims:
//!
//! * the static classification reproduces the annotations exactly,
//! * XOR never confirms a branch the oracle rejects (zero false
//!   detections; its few misses are branches that happened not to spin),
//! * MODULO's extra confirmations are all rejected by the oracle
//!   (Figure 14's power-of-two-stride aliasing, reported as such).
//!
//! Exits 1 if any claim fails, so CI can gate on it.

use bows::HashKind;
use experiments::oracle::{oracle_stages, precision_recall, OracleStage};
use experiments::{pct, Opts, Table};
use simt_core::GpuConfig;
use std::process::ExitCode;

fn pcs(v: &[usize]) -> String {
    if v.is_empty() {
        "-".to_string()
    } else {
        v.iter()
            .map(|pc| pc.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn main() -> ExitCode {
    let opts = Opts::parse();
    let cfg = opts.config(GpuConfig::gtx480());
    let mut suite = workloads::sync_suite(opts.scale);
    suite.extend(workloads::rodinia_suite(opts.scale));
    let stages = oracle_stages(&cfg, &suite);

    println!(
        "oracle: static spin-loop classification vs DDOS confirmations \
         (passive GTO runs on {})\n",
        cfg.name
    );
    let mut t = Table::new(&[
        "workload", "kernel", "annotated", "static", "executed", "xor", "modulo",
        "xor-false", "mod-false",
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
    t.emit(&opts);

    let mut sum = Table::new(&["detector", "suite", "tp", "fp", "fn", "precision", "recall"]);
    for hash in [HashKind::Xor, HashKind::Modulo] {
        for (label, sync_only) in [("sync", Some(true)), ("rodinia", Some(false)), ("all", None)]
        {
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
    sum.emit(&opts);

    verdicts(&stages)
}

/// Check the cross-validation claims, printing one line per verdict.
fn verdicts(stages: &[OracleStage]) -> ExitCode {
    let mut ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("{} {name}{detail}", if pass { "PASS" } else { "FAIL" });
        ok &= pass;
    };

    let mismatched: Vec<String> = stages
        .iter()
        .filter(|s| !s.static_matches_annotation())
        .map(|s| format!("{}/{}", s.workload, s.kernel))
        .collect();
    check(
        "static classification == !sib annotations on every kernel",
        mismatched.is_empty(),
        if mismatched.is_empty() {
            String::new()
        } else {
            format!(": {mismatched:?}")
        },
    );

    let xor_fp = precision_recall(stages, HashKind::Xor, None).fp;
    check(
        "XOR confirmations all statically classified (zero false detections)",
        xor_fp == 0,
        format!(" [{xor_fp} rejected]"),
    );

    let static_on_rodinia: Vec<String> = stages
        .iter()
        .filter(|s| !s.is_sync && !s.static_sibs.is_empty())
        .map(|s| format!("{}/{}", s.workload, s.kernel))
        .collect();
    check(
        "no static spin claims on the synchronization-free suite",
        static_on_rodinia.is_empty(),
        if static_on_rodinia.is_empty() {
            String::new()
        } else {
            format!(": {static_on_rodinia:?}")
        },
    );

    let mod_pr = precision_recall(stages, HashKind::Modulo, None);
    let mod_false_ok = stages.iter().all(|s| {
        s.modulo_confirmed
            .iter()
            .all(|pc| s.static_sibs.contains(pc) || s.modulo_false().contains(pc))
    });
    check(
        "MODULO extras reported as false detections",
        mod_false_ok,
        format!(" [{} false detections attributed]", mod_pr.fp),
    );

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
