//! Snapshot format stability.
//!
//! `checkpoint_sweep.rs` proves save and restore agree with each other; it
//! cannot see a change that both sides make together (a reordered field, a
//! widened integer, a dropped length prefix). This suite pins the bytes:
//! three small cells checkpoint periodically and the FNV-1a of every
//! emitted body must equal the constant recorded when format version 2 was
//! cut. The leading 8-byte config fingerprint is skipped — it hashes the
//! `Debug` rendering of the config and kernel, which may change without
//! the layout changing — so only the layout is pinned.
//!
//! A mismatch means the snapshot format changed: either restore the old
//! layout or bump `simt_snap::VERSION` and re-record the constants (the
//! assertion message prints the new values).

use bows::{AdaptiveConfig, DdosConfig, DelayMode};
use bows_sim::core::{
    baseline_detector, BasePolicy, CheckpointCtl, DetectorFactory, Gpu, GpuConfig,
};
use bows_sim::mem::ChaosConfig;
use bows_sim::snap::fnv1a;
use bows_sim::workloads::{rodinia_suite, sync_suite, Scale, Workload};

fn four_sm_config() -> GpuConfig {
    let mut cfg = GpuConfig::test_tiny();
    cfg.num_sms = 4;
    cfg
}

fn named(suite: Vec<Box<dyn Workload>>, name: &str) -> Box<dyn Workload> {
    suite
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("no workload named {name}"))
}

/// Run every stage of `w`, checkpointing each at `every` cycles, and return
/// the layout hash of every emitted body in emission order.
fn layout_hashes(
    cfg: &GpuConfig,
    w: &dyn Workload,
    base: BasePolicy,
    bows: bool,
    every: u64,
) -> Vec<u64> {
    let policy = bows::policy_factory(
        base,
        bows.then(|| DelayMode::Adaptive(AdaptiveConfig::default())),
        cfg.gto_rotate_period,
    );
    let detector: Box<DetectorFactory<'static>> = if bows {
        bows::ddos_factory(DdosConfig::default(), cfg.warps_per_sm())
    } else {
        Box::new(baseline_detector)
    };
    let mut gpu = Gpu::new(cfg.clone());
    let prepared = w.prepare(&mut gpu);
    let mut hashes = Vec::new();
    for (i, stage) in prepared.stages.iter().enumerate() {
        let mut sink = |_at: u64, body: &[u8]| hashes.push(fnv1a(&body[8..]));
        let ctl = CheckpointCtl {
            every,
            sink: &mut sink,
            resume: None,
        };
        gpu.run_with_checkpoints(&stage.kernel, &stage.launch, &policy, &detector, Some(ctl))
            .unwrap_or_else(|e| panic!("{} stage {i}: {e}", w.name()));
    }
    (prepared.verify)(&gpu).unwrap_or_else(|e| panic!("{} verify: {e}", w.name()));
    hashes
}

fn assert_layout(cell: &str, got: &[u64], want: &[u64]) {
    assert_eq!(
        got,
        want,
        "{cell}: snapshot layout changed (format version {}); got {got:#018x?}",
        bows_sim::snap::VERSION
    );
}

/// The paper's full dynamic state in one body: BOWS back-off queue and
/// adaptive window, DDOS history registers and SIB-PT (XOR hashing is the
/// `DdosConfig` default), GTO's greedy pointer, lock-owner tables, in-flight
/// atomics, diverged SIMT stacks — across four SMs.
#[test]
fn hashtable_under_bows_gto_ddos() {
    let w = named(sync_suite(Scale::Tiny), "HT");
    let got = layout_hashes(
        &four_sm_config(),
        w.as_ref(),
        BasePolicy::Gto,
        true,
        HT_EVERY,
    );
    assert_layout("HT gto+bows+ddos", &got, HT_BODIES);
}

/// CAWA's per-warp criticality counters plus a live chaos stream (NACK
/// retries, delayed atomics, latency injections) on a memory-heavy kernel.
#[test]
fn rodinia_under_cawa_with_chaos() {
    let mut cfg = GpuConfig::test_tiny();
    cfg.mem.chaos = ChaosConfig::with_level(42, 2);
    let w = named(rodinia_suite(Scale::Tiny), "BFS");
    let got = layout_hashes(&cfg, w.as_ref(), BasePolicy::Cawa, false, BFS_EVERY);
    assert_layout("BFS cawa chaos(42,2)", &got, BFS_BODIES);
}

/// The LRR unit's round-robin pointer and the static-oracle detector's
/// empty blob.
#[test]
fn spinlock_suite_kernel_under_lrr() {
    let w = named(sync_suite(Scale::Tiny), "ATM");
    let got = layout_hashes(
        &GpuConfig::test_tiny(),
        w.as_ref(),
        BasePolicy::Lrr,
        false,
        ATM_EVERY,
    );
    assert_layout("ATM lrr", &got, ATM_BODIES);
}

const HT_EVERY: u64 = 10_000;
const HT_BODIES: &[u64] = &[
    0xb8269be57d3d4b3b,
    0xa640c61c70077825,
    0xd7a21330e257c8a7,
    0xbfd0a1256b540255,
];

const BFS_EVERY: u64 = 500;
const BFS_BODIES: &[u64] = &[
    0x6383376970ce0ad4,
    0x7ace7680990935d2,
    0x25bfa0374efad450,
    0x8ee8fc11119932bc,
];

const ATM_EVERY: u64 = 12_000;
const ATM_BODIES: &[u64] = &[
    0x2de53a2e59e326c6,
    0x0b0c4a4357e2ae6d,
    0x592fb015756ae71d,
    0xc02390859e8040c8,
];
