//! Tier-1 differential-oracle tests: committed divergence fixtures must
//! reproduce their expected `DivergenceReport`, and a corpus subset must
//! agree bytewise between the reference interpreter and the simulator.
//! (The full corpus × configuration matrix runs in the CI `differential`
//! job via the `differ` binary.)

use experiments::differ::{
    check_cell, matrix, run_reference, DifferCell, Divergence, DEFAULT_FUEL,
};
use experiments::fixture::{check_fixture, FixtureOutcome};
use experiments::SchedConfig;
use simt_core::{BasePolicy, GpuConfig};
use workloads::Scale;

fn cfg() -> GpuConfig {
    GpuConfig::test_tiny()
}

fn run(name: &str) -> FixtureOutcome {
    let path = format!("tests/fixtures/differential/{name}.s");
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let out = check_fixture(&cfg(), name, &src, DEFAULT_FUEL).unwrap();
    out.verdict().unwrap_or_else(|e| panic!("{name}: {e}"));
    out
}

#[test]
fn clock_skew_diverges_in_memory_with_attribution() {
    let out = run("clock_skew");
    let r = &out.reports[0];
    let Divergence::Memory {
        ref_val, writer, ..
    } = &r.divergence
    else {
        panic!("want memory divergence, got {r}");
    };
    // The reference's delta is exactly the 6 instructions retired from the
    // first clock read up to the second (the first `clock` plus the 5-op
    // chain); the simulator's is pipeline-latency scaled.
    assert_eq!(*ref_val, 6, "{r}");
    // Attribution points at the st.global inside clock_skew.
    let (_, w) = writer.expect("reference wrote the diverging word");
    assert_eq!(r.kernel.as_deref(), Some("clock_skew"), "{r}");
    assert_eq!(r.line, Some(w.line));
}

#[test]
fn smid_zero_in_reference_diverges_per_sm() {
    let out = run("smid");
    let r = &out.reports[0];
    let Divergence::Memory {
        addr,
        ref_val,
        sim_val,
        ..
    } = r.divergence
    else {
        panic!("want memory divergence, got {r}");
    };
    // out[0] agrees (CTA 0 runs on SM 0 in both engines); out[1] is the
    // first diff: the reference pins %smid to 0, the simulator's CTA 1
    // runs on SM 1.
    assert_eq!(ref_val, 0, "{r}");
    assert_eq!(sim_val, 1, "{r}");
    assert_eq!(addr % 8, 4, "first diff must be an odd word: {r}");
}

#[test]
fn clock_in_register_invisible_to_memory_compare() {
    let out = run("clock_reg");
    let r = &out.reports[0];
    let Divergence::Register {
        stage,
        cta,
        thread,
        reg,
        ref_val,
        sim_val,
    } = r.divergence
    else {
        panic!("want register divergence, got {r}");
    };
    assert_eq!((stage, cta, thread, reg), (0, 0, 0, 4), "{r}");
    assert_ne!(ref_val, sim_val);
    assert_eq!(r.kernel.as_deref(), Some("clock_reg"));
}

#[test]
fn held_lock_fails_postcondition_on_both_engines() {
    let out = run("held_lock");
    // Both engines leave the lock taken: one report per side.
    assert_eq!(out.reports.len(), 2, "{:?}", out.reports);
    for r in &out.reports {
        let Divergence::Postcondition { name, error, .. } = &r.divergence else {
            panic!("want postcondition divergence, got {r}");
        };
        assert_eq!(name, "lock[0]");
        assert!(error.contains("want 0x0"), "{error}");
    }
}

#[test]
fn inter_cta_wait_hangs_only_the_simulator() {
    let out = run("inter_cta_wait");
    let r = &out.reports[0];
    let Divergence::SimFailed { error } = &r.divergence else {
        panic!("want sim-failed divergence, got {r}");
    };
    // The residency-limited spin is classified as a hang, not a crash.
    assert!(
        error.contains("livelock") || error.contains("hang") || error.contains("cycle"),
        "{error}"
    );
}

#[test]
fn corpus_subset_agrees_across_schedulers() {
    // One exact sync workload (ST), one racy one (HT), one Rodinia analog,
    // across three scheduler configurations — the tier-1 slice of the CI
    // matrix.
    let base = cfg();
    let cells = [
        DifferCell {
            sched: SchedConfig::baseline(BasePolicy::Gto),
            chaos: None,
        },
        DifferCell {
            sched: SchedConfig::bows_adaptive(BasePolicy::Lrr),
            chaos: Some((42, 2)),
        },
        DifferCell {
            sched: SchedConfig::baseline(BasePolicy::Cawa),
            chaos: Some((1, 1)),
        },
    ];
    let mut suite = vec![
        workloads::sync_suite(Scale::Tiny).remove(1),
        workloads::sync_suite(Scale::Tiny).remove(4),
        workloads::rodinia_suite(Scale::Tiny).remove(0),
    ];
    for w in suite.drain(..) {
        let reference = run_reference(&base, w.as_ref(), DEFAULT_FUEL);
        assert!(reference.is_ok(), "{} reference failed", w.name());
        for cell in &cells {
            let reports = check_cell(&base, w.as_ref(), cell, &reference);
            assert!(
                reports.is_empty(),
                "{} [{}]: {}",
                w.name(),
                cell.label(),
                reports[0]
            );
        }
    }
}

#[test]
fn full_matrix_is_well_formed() {
    // The CI job sweeps this matrix; keep its promised shape honest.
    let full = matrix(true);
    assert_eq!(full.len(), 27);
    let chaos: std::collections::HashSet<_> = full.iter().filter_map(|c| c.chaos).collect();
    assert!(chaos.len() >= 3);
}
