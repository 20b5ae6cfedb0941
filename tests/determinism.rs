//! Determinism of the parallel experiment harness and the allocation-free
//! simulator hot loops, end to end.
//!
//! The harness contract: a grid of (workload × SchedConfig) cells run on N
//! worker threads produces *byte-identical* tables and CSV to a serial
//! run, because results are reassembled in submission order and each cell
//! simulates on its own `Gpu`. The hot-loop contract: reused scratch
//! buffers and completion sinks carry no state between cycles or runs, so
//! repeated runs of the same cell are bit-equal. And the pin: the total
//! simulated cycles of the five figure groups are constants of this file.

use bows_sim::prelude::*;
use experiments::{grid, SchedConfig};

/// Serial (1 worker) vs parallel (2 and 8 workers) harness output for a
/// real figure (Fig. 9 perf/energy over the sync suite) and a real table
/// (Table III): byte-identical text and CSV.
///
/// All worker-count comparisons live in this ONE test because the worker
/// count is a process-global knob ([`grid::set_jobs`]); spreading them
/// over several #[test]s would race under the threaded test harness.
#[test]
fn parallel_grid_output_is_byte_identical_to_serial() {
    // Parametrized over both simulation engines: skip-engine cells must
    // reassemble identically to cycle-engine cells' schedule-invariant
    // output, and each engine must be thread-count invariant.
    for engine in [Engine::Cycle, Engine::Skip] {
        let mut cfg = GpuConfig::gtx480();
        cfg.engine = engine;
        grid::set_jobs(1);
        let fig9_serial = experiments::perf_energy_table(&cfg, Scale::Tiny);
        let table3_serial = experiments::table3_report(true);
        for workers in [2usize, 8] {
            grid::set_jobs(workers);
            let fig9 = experiments::perf_energy_table(&cfg, Scale::Tiny);
            assert_eq!(
                fig9.text(),
                fig9_serial.text(),
                "fig9 table drifted at {workers} workers ({engine:?})"
            );
            assert_eq!(
                fig9.csv(),
                fig9_serial.csv(),
                "fig9 CSV drifted at {workers} workers ({engine:?})"
            );
            assert_eq!(
                experiments::table3_report(true),
                table3_serial,
                "table3 drifted at {workers} workers ({engine:?})"
            );
        }
        grid::set_jobs(1);
    }
}

/// Regression guard for the scratch-buffer/completion-sink rework: two
/// fresh runs of the same contended cell (BOWS exercises the backed-off
/// queue, the hashtable exercises atomics and the L1/partition skip
/// paths) must agree on every observable statistic.
#[test]
fn repeated_runs_are_bit_equal() {
    for engine in [Engine::Cycle, Engine::Skip] {
        let mut cfg = GpuConfig::test_tiny();
        cfg.engine = engine;
        let ht = Hashtable::with_params(256, 2, 8, 64);
        let sched = SchedConfig::bows_adaptive(BasePolicy::Gto);
        let a = experiments::run(&cfg, &ht, sched).expect("first run");
        let b = experiments::run(&cfg, &ht, sched).expect("second run");
        assert!(a.verified.is_ok() && b.verified.is_ok(), "{engine:?}");
        assert_eq!(a.cycles, b.cycles, "{engine:?}");
        assert_eq!(a.sim.thread_inst, b.sim.thread_inst, "{engine:?}");
        assert_eq!(a.mem.lock_success, b.mem.lock_success, "{engine:?}");
        assert_eq!(a.mem.lock_inter_fail, b.mem.lock_inter_fail, "{engine:?}");
        assert_eq!(a.mem.l1_hits, b.mem.l1_hits, "{engine:?}");
        assert_eq!(a.dynamic_j.to_bits(), b.dynamic_j.to_bits(), "{engine:?}");
    }
}

/// Total simulated cycles of every (workload × sched) cell of a suite.
fn suite_cycles(cfg: &GpuConfig, suite: &[Box<dyn Workload>], scheds: &[SchedConfig]) -> u64 {
    experiments::run_suite_grid(cfg, suite, scheds)
        .iter()
        .flatten()
        .map(|r| r.cycles)
        .sum()
}

/// One tiny-scale pass per figure group of the paper's evaluation — Fig. 2
/// baselines, Fig. 9 BOWS vs GTO, Fig. 14 MODULO false detections, the
/// Fig. 16 contention sweep, the Pascal suite — as total simulated cycles.
fn figure_group_cycles(engine: Engine, profile: bool) -> [u64; 5] {
    let with = |mut cfg: GpuConfig| {
        cfg.engine = engine;
        cfg.profile = profile;
        cfg
    };
    let fermi = with(GpuConfig::gtx480());
    let gto = SchedConfig::baseline(BasePolicy::Gto);
    let bows = SchedConfig::bows_adaptive(BasePolicy::Gto);

    let baselines = [BasePolicy::Lrr, BasePolicy::Gto, BasePolicy::Cawa].map(SchedConfig::baseline);
    let fig2 = suite_cycles(&fermi, &sync_suite(Scale::Tiny), &baselines);

    let fig9 = suite_cycles(&fermi, &sync_suite(Scale::Tiny), &[gto, bows]);

    let mut modulo = SchedConfig::bows(BasePolicy::Gto, DelayMode::Fixed(1000));
    modulo.ddos.hash = HashKind::Modulo;
    let fig14 = suite_cycles(&fermi, &rodinia_suite(Scale::Tiny), &[gto, modulo]);

    let cells: Vec<(u32, u8)> = [32u32, 128, 512]
        .iter()
        .flat_map(|&b| (0u8..3).map(move |k| (b, k)))
        .collect();
    let fig16 = grid::parallel_map(&cells, |_, &(buckets, kind)| {
        let ht = Hashtable::with_params(1024, 1, buckets, 128);
        let res = match kind {
            0 => experiments::run(&fermi, &ht, gto),
            1 => experiments::run(&fermi, &ht, bows),
            _ => experiments::run(&fermi, &ht.with_mode(HtMode::IdealNoLock), gto),
        };
        res.expect("fig16 cell").cycles
    })
    .iter()
    .sum();

    let pascal = suite_cycles(
        &with(GpuConfig::gtx1080ti()),
        &sync_suite(Scale::Tiny),
        &[gto],
    );

    [fig2, fig9, fig14, fig16, pascal]
}

/// The simulator is deterministic, so the five figure-group totals move
/// only when simulated behaviour moves: any drift fails, under either
/// engine and with the phase profiler on (it must observe, not perturb).
/// A change that means to move them updates the constants and says why.
#[test]
fn figure_group_cycle_totals_are_pinned() {
    const PINNED: [u64; 5] = [703_492, 504_467, 50_710, 71_131, 194_969];
    for (engine, profile) in [
        (Engine::Cycle, false),
        (Engine::Skip, false),
        (Engine::Skip, true),
    ] {
        assert_eq!(
            figure_group_cycles(engine, profile),
            PINNED,
            "fig2 / fig9 / fig14 / fig16 / pascal totals drifted ({engine:?}, profile {profile})"
        );
    }
}
