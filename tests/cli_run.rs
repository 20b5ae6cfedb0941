//! End-to-end tests for `bows-run`'s run path (the lint path has
//! `tests/lint.rs` and `tests/race_lint.rs`): `--format json` prints, for
//! every outcome of a simulation, the body the service's `run_request`
//! returns for the same launch, under the documented exit status.

use simt_serve::json::json_string;
use simt_serve::{run_request, Json, RunOutcome, SimRequest};
use std::path::Path;
use std::process::{Command, Output};

const KERNEL: &str = "kernels/spinlock.s";

/// `bows-run kernels/spinlock.s <args> --format json`, in the repo root.
fn bows_run(args: &[&str]) -> Output {
    bows_run_as("json", args)
}

/// `bows-run kernels/spinlock.s <args> --format <format>`, in the repo root.
fn bows_run_as(format: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bows-run"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .arg(KERNEL)
        .args(args)
        .args(["--format", format])
        .output()
        .expect("spawn bows-run")
}

/// Stdout of a `bows-run` that must have exited with `status`.
fn stdout_at(out: &Output, status: i32) -> String {
    assert_eq!(
        out.status.code(),
        Some(status),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// What the service answers a gtx480 launch of the spin-lock kernel with;
/// `fields` are the request's remaining JSON members.
fn service(fields: &str) -> RunOutcome {
    let src = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(KERNEL)).unwrap();
    let body = format!(
        "{{\"kernel\":{},\"gpu\":\"gtx480\",{fields}}}",
        json_string(&src)
    );
    run_request(&SimRequest::from_json(&body).expect("request"), None)
}

/// 2 CTAs x 32 threads contending for one lock; `--dump 1:1` is the counter.
const LAUNCH: [&str; 10] = [
    "--ctas", "2", "--tpc", "32", "--param", "buf:1", "--param", "buf:1", "--dump", "1:1",
];
const LAUNCH_JSON: &str =
    "\"ctas\":2,\"tpc\":32,\"params\":[{\"buf\":1},{\"buf\":1}],\"dumps\":[[1,1]]";

#[test]
fn json_report_is_the_service_body() {
    let cells: [(&[&str], &str); 3] = [
        (&[], ""),
        (&["--bows", "adaptive"], ",\"bows\":\"adaptive\""),
        (&["--no-ddos"], ",\"ddos\":false"),
    ];
    for (flags, fields) in cells {
        let out = bows_run(&[&LAUNCH[..], flags].concat());
        let RunOutcome::Ok(body) = service(&format!("{LAUNCH_JSON}{fields}")) else {
            panic!("{flags:?}: the service failed the launch");
        };
        assert_eq!(stdout_at(&out, 0), format!("{body}\n"), "{flags:?}");
        assert!(
            body.contains("\"dumps\":{\"1\":[64]}"),
            "64 increments under the lock: {body}"
        );
    }
}

/// The engine is not a launch setting: `--engine` is an unknown flag.
#[test]
fn engine_flag_exits_2_with_usage() {
    let out = bows_run(&["--engine", "cycle"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: bows-run"), "{stderr}");
}

#[test]
fn hang_exits_1_with_the_service_error_body() {
    // The lock is passed in already held and nobody releases it.
    let out = bows_run(&[
        "--ctas",
        "1",
        "--tpc",
        "64",
        "--param",
        "buf:1=1",
        "--param",
        "buf:1",
        "--timeout-cycles",
        "5000",
    ]);
    let RunOutcome::SimError(body) = service(
        "\"ctas\":1,\"tpc\":64,\"params\":[{\"buf\":1,\"fill\":1},{\"buf\":1}],\"timeout_cycles\":5000",
    ) else {
        panic!("the service ran a hang to completion");
    };
    assert_eq!(stdout_at(&out, 1), format!("{body}\n"));
    assert!(
        body.starts_with("{\"error\":{\"kind\":\"cycle_limit\""),
        "{body}"
    );
}

#[test]
fn wall_timeout_exits_3_with_a_cancelled_error() {
    let out = bows_run(&[
        "--ctas",
        "16",
        "--tpc",
        "256",
        "--param",
        "buf:1",
        "--param",
        "buf:1",
        "--timeout-wall",
        "0.2",
    ]);
    let stdout = stdout_at(&out, 3);
    assert!(
        stdout.starts_with("{\"error\":{\"kind\":\"cancelled\""),
        "{stdout}"
    );
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn resumed_run_prints_the_uninterrupted_body() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_run_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();

    let plain = stdout_at(&bows_run(&LAUNCH), 0);
    let ckpt_flags = ["--checkpoint-every", "5000", "--state-dir", dir_arg];
    let checkpointed = stdout_at(&bows_run(&[&LAUNCH[..], &ckpt_flags].concat()), 0);
    assert_eq!(checkpointed, plain, "checkpointing perturbed the run");

    let last = std::fs::read_dir(&dir)
        .expect("state dir")
        .map(|e| e.unwrap().path())
        .max()
        .expect("the run outlives one 5000-cycle checkpoint interval");
    let resumed = bows_run(&[&LAUNCH[..], &["--resume", last.to_str().unwrap()]].concat());
    assert_eq!(
        stdout_at(&resumed, 0),
        plain,
        "resumed from {}",
        last.display()
    );
}

#[test]
fn cancelled_run_names_its_snapshot_and_resumes_from_it() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_run_cancel");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();

    // The deadline has passed by the first boundary, and the cadence is
    // never reached: the one snapshot is the cancel cycle's.
    let cancel_flags = [
        "--timeout-wall",
        "0.000001",
        "--checkpoint-every",
        "1000000",
        "--state-dir",
        dir_arg,
    ];
    let cancelled = stdout_at(&bows_run(&[&LAUNCH[..], &cancel_flags].concat()), 3);
    let snap = dir.join("ckpt-000000002048.bsnp");
    let named = format!(
        ",\"checkpoint\":{}}}\n",
        json_string(snap.to_str().unwrap())
    );
    assert!(
        cancelled.starts_with("{\"error\":{\"kind\":\"cancelled\"") && cancelled.ends_with(&named),
        "{cancelled}"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "one snapshot");

    let plain = stdout_at(&bows_run(&LAUNCH), 0);
    let resumed = bows_run(&[&LAUNCH[..], &["--resume", snap.to_str().unwrap()]].concat());
    assert_eq!(stdout_at(&resumed, 0), plain);
}

/// `--profile` reports the run's host wall time and three SM-cycle counts,
/// after the run, and changes nothing simulated: 15 CTAs on the 15 SMs of
/// a gtx480, most of whose SM-cycles are slept.
#[test]
fn profile_reports_wall_time_and_sm_cycle_counts_only() {
    let launch = [
        "--ctas", "15", "--tpc", "128", "--param", "buf:1", "--param", "buf:1", "--gpu", "gtx480",
    ];
    let profiled = [&launch[..], &["--profile"]].concat();
    let plain = stdout_at(&bows_run(&launch), 0);
    let both = stdout_at(&bows_run(&profiled), 0);
    let (report, profile) = both.split_once('\n').expect("two lines");
    assert_eq!(format!("{report}\n"), plain, "--profile perturbed the run");
    let profile = Json::parse(profile.strip_suffix('\n').expect("one line")).unwrap();
    let Json::Obj(top) = &profile else {
        panic!("{profile:?}")
    };
    assert_eq!(top.len(), 1, "{profile:?}");
    let counts = profile.get("profile").unwrap();
    let Json::Obj(fields) = counts else {
        panic!("{profile:?}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "total_ns",
            "sm_cycles_run",
            "sm_cycles_slept",
            "warps_classified"
        ]
    );
    let count = |k: &str| counts.get(k).and_then(|v| v.as_u64(k)).unwrap();
    let report = Json::parse(report).unwrap();
    let cycles = report
        .get("cycles")
        .and_then(|v| v.as_u64("cycles"))
        .unwrap();
    assert!(count("sm_cycles_run") > 0);
    assert!(count("sm_cycles_run") + count("sm_cycles_slept") <= cycles * 15);

    let human = stdout_at(&bows_run_as("human", &profiled), 0);
    let mut tail = human.lines().rev();
    let (last, wall) = (tail.next().unwrap(), tail.next().unwrap());
    assert!(last.starts_with("  sm-cycles   : "), "{human}");
    assert!(
        wall.starts_with("profile     : ") && wall.ends_with(" cycles/sec"),
        "{human}"
    );
}
