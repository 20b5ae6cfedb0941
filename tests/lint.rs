//! End-to-end tests for `bows-run --lint`: each seeded bad-kernel fixture
//! triggers its intended diagnostic and the process exits 2; clean kernels
//! exit 0. The fixtures cover every error-severity lint.

use std::path::Path;
use std::process::{Command, Output};

fn lint(fixture: &str) -> Output {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(fixture);
    Command::new(env!("CARGO_BIN_EXE_bows-run"))
        .arg(path)
        .arg("--lint")
        .output()
        .expect("spawn bows-run")
}

/// Assert the fixture exits 2 and stdout mentions the lint slug.
fn assert_lint_fires(fixture: &str, slug: &str) {
    let out = lint(fixture);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{fixture}: expected exit 2, got {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(slug),
        "{fixture}: expected `{slug}` diagnostic\nstdout:\n{stdout}"
    );
}

#[test]
fn undefined_register_read_is_flagged() {
    assert_lint_fires("tests/fixtures/lint/undefined_read.s", "undefined-read");
}

#[test]
fn unreachable_block_is_flagged() {
    assert_lint_fires("tests/fixtures/lint/unreachable.s", "unreachable-block");
}

#[test]
fn divergent_barrier_is_flagged() {
    assert_lint_fires("tests/fixtures/lint/divergent_bar.s", "divergent-barrier");
}

#[test]
fn out_of_range_branch_is_flagged() {
    assert_lint_fires("tests/fixtures/lint/bad_target.s", "bad-target");
}

/// The same out-of-range kernel is also rejected at assembly time (the
/// satellite fix: a dropped CFG edge must not silently become a
/// fall-through), with the source line of the offending branch.
#[test]
fn out_of_range_branch_fails_assembly_with_line() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint/bad_target.s");
    let out = Command::new(env!("CARGO_BIN_EXE_bows-run"))
        .arg(path)
        .output()
        .expect("spawn bows-run");
    assert_eq!(out.status.code(), Some(1), "assembly must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 8") && stderr.contains("target"),
        "expected a line-8 bad-target assembly error, got:\n{stderr}"
    );
}

#[test]
fn clean_kernels_lint_clean() {
    for k in [
        "kernels/spinlock.s",
        "kernels/saxpy.s",
        "kernels/histogram.s",
    ] {
        let out = lint(k);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{k}: expected clean lint\nstdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// The spin-loop oracle's classification shows up in the report, and a
/// kernel whose `!sib` annotation disagrees with it gets a warning (but
/// still exits 0 — annotation drift is not an error).
#[test]
fn spinlock_report_names_the_spin_branch() {
    let out = lint("kernels/spinlock.s");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("spin loop   : branch pc 13"),
        "stdout:\n{stdout}"
    );
}
