//! The `check` registry: the verdicts its gates reach on constructed
//! evidence, the runner, and the binary's command line.

use experiments::check::service::{Expect, Item, Oracle, ServeRun};
use experiments::check::{
    fuzz_seeds, oracle_verdicts, run_all, snap_fuzz_cases, Check, Gate, Verdict,
};
use experiments::oracle::OracleStage;
use experiments::Opts;
use simt_serve::http::client::HttpResponse;
use std::process::{Command, Output};
use workloads::Scale;

// The workspace's document checks live in the root `tests/docs.rs`; the
// flags of `paper` and `check` are checked here, where both binaries are
// built. `headings` is used by those checks only.
#[allow(dead_code)]
#[path = "../../../tests/docs/markdown.rs"]
mod markdown;

fn tiny() -> Check {
    Check::new(Opts::at_scale(Scale::Tiny))
}

/// A sync kernel whose spin branch, pc 5, every source agrees on, plus a
/// MODULO-only confirmation of pc 9 the oracle rejects — Figure 14's
/// aliasing, which the fourth verdict must attribute.
fn agreed() -> OracleStage {
    OracleStage {
        workload: "HT".into(),
        kernel: "ht_insert".into(),
        is_sync: true,
        executed: vec![5, 9],
        true_sibs: vec![5],
        static_sibs: vec![5],
        xor_confirmed: vec![5],
        modulo_confirmed: vec![5, 9],
    }
}

#[test]
fn each_oracle_verdict_fails_on_its_own_violation() {
    let clean = oracle_verdicts(&[agreed()]);
    assert!(clean.pass, "{}", clean.report);
    assert!(clean.report.contains("[1 false detections attributed]"));
    let cases = [
        (
            "XOR confirmations all statically classified",
            OracleStage {
                xor_confirmed: vec![5, 9],
                ..agreed()
            },
        ),
        (
            "static classification == !sib annotations",
            OracleStage {
                true_sibs: vec![5, 7],
                ..agreed()
            },
        ),
        (
            "no static spin claims on the synchronization-free suite",
            OracleStage {
                is_sync: false,
                ..agreed()
            },
        ),
        (
            "MODULO extras reported as false detections",
            OracleStage {
                xor_confirmed: vec![],
                ..agreed()
            },
        ),
    ];
    for (claim, stage) in cases {
        let v = oracle_verdicts(&[agreed(), stage]);
        assert!(!v.pass, "{claim}");
        let failed: Vec<&str> = v.report.lines().filter(|l| l.starts_with("FAIL")).collect();
        assert_eq!(failed.len(), 1, "{claim}: {}", v.report);
        assert!(
            failed[0].starts_with(&format!("FAIL {claim}")),
            "{}",
            v.report
        );
        assert!(failed[0].ends_with(r#": ["HT/ht_insert"]"#), "{}", v.report);
    }
}

fn response(status: u16, body: &str, retry_after: Option<u64>) -> HttpResponse {
    HttpResponse {
        status,
        body: body.to_string(),
        x_cache: None,
        retry_after,
    }
}

const SHED_BODY: &str = r#"{"error":{"kind":"overloaded","message":"busy"}}"#;

#[test]
fn serve_slos_catch_a_wrong_body_a_bare_shed_and_a_chaos_run_that_injected_nothing() {
    let oracle: Oracle = [(7, (Expect::Ok, "right".to_string()))].into();
    let item = Item {
        body: "{}".to_string(),
        expect: Expect::Ok,
        key: Some(7),
    };
    // A run that meets every SLO: the oracle's body, a structured shed
    // with `Retry-After`, and a `/stats` that counts an injected fault.
    let run = |extra: &[HttpResponse], stats: &str| {
        let mut run = ServeRun::default();
        let answers = [
            response(200, "right", None),
            response(429, SHED_BODY, Some(1)),
        ];
        for resp in answers.iter().chain(extra) {
            run.tally.record(&item, resp, 1, &oracle);
        }
        run.stats = Some(stats.to_string());
        run
    };
    let faulted = r#"{"worker_panics_caught":1}"#;
    let quiet = r#"{"worker_panics_caught":0,"worker_timeouts":0}"#;
    let met = run(&[], faulted).verdict(42, true);
    assert!(met.pass, "{}", met.report);
    assert!(met
        .report
        .ends_with("\"slo_violations\":[],\"pass\":true}\n"));

    for (extra, stats, chaos, violation) in [
        (
            response(200, "wrong", None),
            faulted,
            false,
            "1 wrong-result responses",
        ),
        (
            response(503, SHED_BODY, None),
            faulted,
            false,
            "503 shed without Retry-After",
        ),
        (
            response(200, "right", None),
            quiet,
            true,
            "chaos drill injected no faults",
        ),
    ] {
        let v = run(&[extra], stats).verdict(42, chaos);
        assert!(!v.pass, "{violation}");
        assert!(v.report.contains(violation), "{violation}: {}", v.report);
    }
    assert!(
        run(&[], quiet).verdict(42, false).pass,
        "only chaos needs a fault"
    );
}

fn boom(_: &mut Check) -> Verdict {
    panic!("deliberate");
}

fn fine(_: &mut Check) -> Verdict {
    Verdict {
        report: "fine\n".to_string(),
        pass: true,
    }
}

#[test]
fn a_panicking_gate_fails_and_the_gates_after_it_still_run() {
    let gates: [(&str, Gate); 2] = [("boom", boom), ("fine", fine)];
    let mut seen = Vec::new();
    let all = run_all(&mut tiny(), &gates, |name, v| {
        seen.push((name.to_string(), v.pass, v.report.clone()));
    });
    assert!(!all);
    assert_eq!(
        seen,
        [
            ("boom".to_string(), false, "boom: panicked\n".to_string()),
            ("fine".to_string(), true, "fine\n".to_string()),
        ]
    );
}

#[test]
fn a_seed_window_gate_that_checked_nothing_fails() {
    let check = tiny();
    let empty = fuzz_seeds(&check, 9..9);
    assert!(!empty.pass);
    assert!(
        empty.report.contains("fuzz: 0 kernels checked"),
        "{}",
        empty.report
    );
    assert!(fuzz_seeds(&check, 9..11).pass);
    assert!(!snap_fuzz_cases(1, 0).pass);
    assert!(snap_fuzz_cases(1, 4).pass);
}

fn check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_check"))
        .args(args)
        // `differ` reads its fixtures relative to the repository root.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawn check")
}

#[test]
fn malformed_invocations_exit_2_with_usage() {
    let mut cases: Vec<Vec<&str>> = vec![
        vec!["nosuchgate"],
        vec!["--scale", "bogus"],
        vec!["--jobs", "0"],
        vec!["--matrix", "huge"],
        // The seed window would overflow u64.
        vec!["fuzz", "--seed", "18446744073709551615"],
    ];
    // Every flag of the eight mains `check` replaced, beyond its own seven,
    // and `--engine`: the engine is `GpuConfig::engine`'s alone.
    for deleted in [
        "--engine",
        "--count",
        "--fuel",
        "--timeout-cycles",
        "--fixtures",
        "--no-fixtures",
        "--shrink-steps",
        "--requests",
        "--threads",
        "--workers",
        "--slo-ok-p99-ms",
        "--self-host",
        "--chaos",
        "--addr",
    ] {
        cases.push(vec!["fuzz", deleted, "5"]);
    }
    for args in cases {
        let out = check(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: check"), "{args:?}: {stderr}");
    }
}

#[test]
fn flags_the_docs_write_after_paper_or_check_are_in_its_usage() {
    let bins = [
        ("paper", env!("CARGO_BIN_EXE_paper")),
        ("check", env!("CARGO_BIN_EXE_check")),
    ];
    for (name, exe) in bins {
        let out = Command::new(exe).arg("--help").output().expect("spawn");
        assert!(out.status.success(), "{name} --help");
        let usage = markdown::flags(&String::from_utf8_lossy(&out.stdout));
        assert!(usage.contains("--scale"), "{name}: no usage on stdout");
        for doc in ["README.md", "EXPERIMENTS.md"] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + doc;
            let text = std::fs::read_to_string(&path).expect(doc);
            let written = markdown::flags_after(&text, name);
            let unknown: Vec<&String> = written.difference(&usage).collect();
            assert!(
                unknown.is_empty(),
                "{doc} writes {name} with {unknown:?}, which its usage lacks"
            );
        }
    }
}
