//! End-to-end tests for the race/deadlock analyzer through `bows-run
//! --lint --format json`: each committed fixture yields *exactly* its
//! expected diagnostic set (no extras, no misses), clean fixtures and the
//! shipped kernels stay clean, and the JSON payload is deterministic and
//! carries machine-readable witnesses.

use std::path::Path;
use std::process::{Command, Output};

fn lint_json(fixture: &str) -> Output {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(fixture);
    Command::new(env!("CARGO_BIN_EXE_bows-run"))
        .arg(path)
        .arg("--lint")
        .arg("--format")
        .arg("json")
        .output()
        .expect("spawn bows-run")
}

/// Every `"lint":"<name>"` occurrence in the JSON body, in emitted order.
fn lint_names(stdout: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = stdout;
    while let Some(i) = rest.find("\"lint\":\"") {
        let tail = &rest[i + 8..];
        let end = tail.find('"').expect("closing quote");
        names.push(tail[..end].to_string());
        rest = &tail[end..];
    }
    names
}

/// Assert the fixture exits with `code` and reports exactly `expected`
/// (as a sorted multiset of lint names).
fn assert_exact(fixture: &str, code: i32, expected: &[&str]) {
    let out = lint_json(fixture);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(code),
        "{fixture}: expected exit {code}\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut got = lint_names(&stdout);
    got.sort();
    let mut want: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(got, want, "{fixture}: diagnostic set\nstdout:\n{stdout}");
}

#[test]
fn clean_two_lock_kernel_lints_clean() {
    assert_exact("tests/fixtures/race/clean_two_locks.s", 0, &[]);
}

#[test]
fn benign_same_lock_contention_lints_clean() {
    assert_exact("tests/fixtures/race/benign_same_lock.s", 0, &[]);
}

#[test]
fn abba_nesting_is_exactly_a_lock_cycle() {
    assert_exact("tests/fixtures/race/abba.s", 2, &["lock-cycle"]);
}

#[test]
fn missing_release_reports_the_leak_three_ways() {
    // The same dropped release is a leak at exit, a re-acquire of a held
    // lock on the retry back edge, and a spin loop with no release — the
    // analyzer reports all three views, nothing else.
    assert_exact(
        "tests/fixtures/race/missing_release.s",
        2,
        &["lock-cycle", "missing-release", "simt-deadlock"],
    );
}

#[test]
fn divergent_barrier_race_is_classified() {
    assert_exact(
        "tests/fixtures/race/divergent_barrier_race.s",
        2,
        &["divergent-barrier", "divergent-barrier-race"],
    );
}

#[test]
fn cross_phase_race_is_classified() {
    assert_exact(
        "tests/fixtures/race/cross_phase_race.s",
        2,
        &["cross-phase-race"],
    );
}

/// The shipped kernels are part of the zero-false-positive budget.
#[test]
fn shipped_kernels_lint_clean_under_race_analysis() {
    for k in [
        "kernels/spinlock.s",
        "kernels/saxpy.s",
        "kernels/histogram.s",
    ] {
        assert_exact(k, 0, &[]);
    }
}

/// The JSON payload carries a machine-readable witness for race and
/// deadlock diagnostics, and rendering is byte-deterministic (diagnostics
/// are sorted by severity, pc, lint name before emission).
#[test]
fn json_payload_is_deterministic_and_witnessed() {
    let a = lint_json("tests/fixtures/race/missing_release.s");
    let b = lint_json("tests/fixtures/race/missing_release.s");
    assert_eq!(a.stdout, b.stdout, "lint output must be byte-stable");
    let stdout = String::from_utf8_lossy(&a.stdout);
    for key in [
        "\"witness\"",
        "\"held-at-exit\"",
        "\"spin-hold\"",
        "\"acquire_pc\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in:\n{stdout}");
    }
    // Severity-major order: no warning may precede an error.
    let last_error = stdout.rfind("\"severity\":\"error\"");
    let first_warning = stdout.find("\"severity\":\"warning\"");
    if let (Some(e), Some(w)) = (last_error, first_warning) {
        assert!(e < w, "errors must sort before warnings:\n{stdout}");
    }
}

/// The human format still works and mentions the lint slug.
#[test]
fn human_format_remains_default() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/race/abba.s");
    let out = Command::new(env!("CARGO_BIN_EXE_bows-run"))
        .arg(path)
        .arg("--lint")
        .output()
        .expect("spawn bows-run");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("lock-cycle") && !stdout.starts_with('{'),
        "human format expected:\n{stdout}"
    );
}
