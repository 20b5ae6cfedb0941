//! The benchmark suite of the HPCA 2018 BOWS paper, reimplemented for the
//! `bows-sim` simulator.
//!
//! Two families:
//!
//! * [`sync_suite`] — the eight busy-wait-synchronization kernels of
//!   Section V: **TB** and **ST** (BarnesHut tree-build and sort), **DS**
//!   (cloth-physics distance solver, nested locks), **ATM** (bank transfers,
//!   nested locks), **HT** (chained hashtable, Figure 1a), **TSP**
//!   (lane-serialized global lock), **NW1/NW2** (wavefront wait-and-signal).
//! * [`rodinia_suite`] — fourteen synchronization-free kernels with the
//!   Rodinia loop shapes that matter to DDOS (unit-increment `for` loops,
//!   power-of-two increments as in Merge Sort / Heart Wall, data-dependent
//!   trip counts, float stencils).
//!
//! Every workload verifies its functional output after simulation, so
//! scheduler/detector bugs that break mutual exclusion are caught, not
//! averaged away.

pub mod racy;
pub mod rodinia;
pub mod sync;
mod util;

pub use util::Lcg;

use simt_core::{
    BasePolicy, DetectorFactory, Gpu, GpuConfig, KernelReport, LaunchSpec, PolicyFactory, SimError,
    SimStats,
};
use simt_isa::Kernel;
use simt_mem::{GlobalMem, MemStats};
use std::sync::Arc;

/// Relative problem sizing. `Small` saturates the GTX480 and is the scale
/// of every committed result; `paper --scale full` renders every figure in
/// about four and a half minutes on a 2-core host. Whether a preset keeps
/// the paper's contention (threads per lock) is an open hypothesis, not a
/// property: `Full` doubles threads but quadruples many lock counts, so it
/// may be a lower-contention point than `Small` (ROADMAP item 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long unit-test sizes.
    Tiny,
    /// Default experiment sizes (used by the `experiments` binaries).
    Small,
    /// Larger inputs; no test, gate or committed result uses them.
    Full,
}

/// One kernel launch within a workload.
pub struct Stage {
    /// The assembled kernel.
    pub kernel: Kernel,
    /// Launch geometry.
    pub launch: LaunchSpec,
}

/// One declarative property of a kernel's final global memory.
///
/// Postconditions are the equivalence language for *racy* workloads: where
/// the exact final memory image is schedule-dependent (e.g. insertion order
/// in a chained hashtable), the workload instead declares what every legal
/// schedule must produce ("all N bodies inserted exactly once", "every lock
/// word is 0"). The differential oracle checks these on both the reference
/// interpreter's and the simulator's final memory.
pub struct Postcond {
    /// Short property name, e.g. `"locks-free"` (used in divergence reports).
    pub name: String,
    /// The property itself, over the final global-memory image.
    #[allow(clippy::type_complexity)]
    pub check: Box<dyn Fn(&GlobalMem) -> Result<(), String> + Send + Sync>,
}

impl Postcond {
    /// A named postcondition.
    pub fn new<F>(name: &str, check: F) -> Postcond
    where
        F: Fn(&GlobalMem) -> Result<(), String> + Send + Sync + 'static,
    {
        Postcond {
            name: name.to_string(),
            check: Box::new(check),
        }
    }
}

/// How the differential oracle should compare a workload's final state
/// between the reference interpreter and the cycle-level simulator.
#[derive(Clone)]
pub enum Equivalence {
    /// Final global memory is schedule-independent: compare bytewise.
    /// (Registers are additionally compared for non-sync workloads, whose
    /// per-thread state carries no schedule-dependent atomics results.)
    Exact,
    /// Final memory is schedule-dependent; both engines must instead
    /// satisfy every listed postcondition.
    Postconditions(Arc<Vec<Postcond>>),
}

impl Equivalence {
    /// The postconditions, if this is a postcondition-mode workload.
    pub fn postconditions(&self) -> Option<&[Postcond]> {
        match self {
            Equivalence::Exact => None,
            Equivalence::Postconditions(p) => Some(p),
        }
    }
}

/// A prepared workload: device memory is initialized, kernels are ready.
pub struct Prepared {
    /// Kernels to run in order (NW runs two).
    pub stages: Vec<Stage>,
    /// Functional verification against host-side expectations.
    #[allow(clippy::type_complexity)]
    pub verify: Box<dyn Fn(&Gpu) -> Result<(), String>>,
    /// Differential-comparison mode (see [`Equivalence`]).
    pub equivalence: Equivalence,
}

impl Prepared {
    /// A workload whose final memory is schedule-independent: the given
    /// `verify` checks it against host expectations, and the differential
    /// oracle compares it bytewise against the reference interpreter.
    pub fn exact<F>(stages: Vec<Stage>, verify: F) -> Prepared
    where
        F: Fn(&Gpu) -> Result<(), String> + 'static,
    {
        Prepared {
            stages,
            verify: Box::new(verify),
            equivalence: Equivalence::Exact,
        }
    }

    /// A racy workload: final memory is schedule-dependent, so functional
    /// verification *and* differential comparison both reduce to the given
    /// postconditions over final global memory.
    pub fn racy(stages: Vec<Stage>, postconds: Vec<Postcond>) -> Prepared {
        let posts = Arc::new(postconds);
        let for_verify = Arc::clone(&posts);
        Prepared {
            stages,
            verify: Box::new(move |gpu: &Gpu| {
                for p in for_verify.iter() {
                    (p.check)(gpu.mem().gmem()).map_err(|e| format!("{}: {e}", p.name))?;
                }
                Ok(())
            }),
            equivalence: Equivalence::Postconditions(posts),
        }
    }
}

/// A benchmark from the paper's suite.
///
/// `Send + Sync` is a supertrait so suites of boxed workloads can be shared
/// across the experiment harness's worker threads (every implementor is
/// plain data: sizes, seeds, mode flags).
pub trait Workload: Send + Sync {
    /// Paper name ("HT", "ATM", ..., or a Rodinia analog name).
    fn name(&self) -> &'static str;

    /// True for the busy-wait synchronization kernels.
    fn is_sync(&self) -> bool {
        true
    }

    /// Allocate and initialize device memory; return the launch plan.
    fn prepare(&self, gpu: &mut Gpu) -> Prepared;
}

/// Per-stage measurement within a [`WorkloadResult`].
pub struct StageResult {
    /// Kernel name.
    pub kernel: String,
    /// Ground-truth spin-inducing branches (instruction indices).
    pub true_sibs: Vec<usize>,
    /// All backward branches (the DDOS candidate set).
    pub backward_branches: Vec<usize>,
    /// The instructions that ran, for post-hoc static analysis (the
    /// `oracle` experiment re-derives spin branches from these and joins
    /// them against `report.confirmed_sibs`).
    pub insts: Vec<simt_isa::Inst>,
    /// The simulator's report.
    pub report: KernelReport,
}

/// Everything measured over one workload run.
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Per-kernel results.
    pub stages: Vec<StageResult>,
    /// Total cycles across stages.
    pub cycles: u64,
    /// Aggregated core stats.
    pub sim: SimStats,
    /// Aggregated memory stats.
    pub mem: MemStats,
    /// Total dynamic energy, joules.
    pub dynamic_j: f64,
    /// Functional verification outcome.
    pub verified: Result<(), String>,
}

impl WorkloadResult {
    /// Milliseconds at the configured clock.
    pub fn time_ms(&self, cfg: &GpuConfig) -> f64 {
        cfg.cycles_to_ms(self.cycles)
    }
}

/// Run `workload` on a fresh GPU of configuration `cfg` under the given
/// scheduler and detector factories.
///
/// # Errors
///
/// Propagates [`SimError`] from any stage (deadlock, cycle limit, bad
/// launch).
pub fn run_workload(
    cfg: &GpuConfig,
    workload: &dyn Workload,
    policy_factory: &PolicyFactory<'_>,
    detector_factory: &DetectorFactory<'_>,
) -> Result<WorkloadResult, SimError> {
    run_workload_captured(cfg, workload, policy_factory, detector_factory).map(|c| c.result)
}

/// A completed run that also keeps what the differential oracle compares:
/// the final global-memory image and the workload's comparison mode.
pub struct CapturedRun {
    /// The ordinary measurement result.
    pub result: WorkloadResult,
    /// Final global memory after all stages.
    pub gmem: GlobalMem,
    /// How to compare this workload against the reference interpreter.
    pub equivalence: Equivalence,
}

/// [`run_workload`], but returning the final memory image and equivalence
/// mode as well (enable [`GpuConfig::capture_final_state`] to additionally
/// get per-stage register state in each [`KernelReport`]).
///
/// # Errors
///
/// See [`run_workload`].
pub fn run_workload_captured(
    cfg: &GpuConfig,
    workload: &dyn Workload,
    policy_factory: &PolicyFactory<'_>,
    detector_factory: &DetectorFactory<'_>,
) -> Result<CapturedRun, SimError> {
    let mut gpu = Gpu::new(cfg.clone());
    let prepared = workload.prepare(&mut gpu);
    let mut stages = Vec::new();
    let mut sim = SimStats::default();
    let mut mem = MemStats::default();
    let mut cycles = 0;
    let mut dynamic_j = 0.0;
    for stage in &prepared.stages {
        let report = gpu.run(
            &stage.kernel,
            &stage.launch,
            policy_factory,
            detector_factory,
        )?;
        cycles += report.cycles;
        sim.add(&report.sim);
        mem.add(&report.mem);
        dynamic_j += report.energy.dynamic_j();
        stages.push(StageResult {
            kernel: stage.kernel.name.clone(),
            true_sibs: stage.kernel.true_sibs.clone(),
            backward_branches: stage.kernel.backward_branches(),
            insts: stage.kernel.insts.clone(),
            report,
        });
    }
    let verified = (prepared.verify)(&gpu);
    Ok(CapturedRun {
        result: WorkloadResult {
            name: workload.name().to_string(),
            stages,
            cycles,
            sim,
            mem,
            dynamic_j,
            verified,
        },
        // The `Gpu` is dropped here anyway: move its memory image out.
        gmem: std::mem::take(gpu.mem_mut().gmem_mut()),
        equivalence: prepared.equivalence,
    })
}

/// What a functional (reference) execution of a workload needs: the launch
/// plan, the initialized pre-run memory image, and the comparison mode.
///
/// `prepare` is deterministic in `cfg`, so the allocations and parameters
/// here are identical to those of any simulator run of the same workload
/// under the same configuration — the precondition for bytewise comparison.
pub struct RefPlan {
    /// Kernels to execute in order.
    pub stages: Vec<Stage>,
    /// Global memory as initialized by `prepare`, before any kernel ran.
    pub initial_gmem: GlobalMem,
    /// How to compare final states.
    pub equivalence: Equivalence,
}

/// Prepare `workload` on a throwaway GPU and extract the [`RefPlan`].
pub fn reference_plan(cfg: &GpuConfig, workload: &dyn Workload) -> RefPlan {
    let mut gpu = Gpu::new(cfg.clone());
    let prepared = workload.prepare(&mut gpu);
    RefPlan {
        initial_gmem: std::mem::take(gpu.mem_mut().gmem_mut()),
        stages: prepared.stages,
        equivalence: prepared.equivalence,
    }
}

/// Shorthand: run under a baseline policy with the static (oracle) SIB
/// detector.
///
/// # Errors
///
/// See [`run_workload`].
pub fn run_baseline(
    cfg: &GpuConfig,
    workload: &dyn Workload,
    policy: BasePolicy,
) -> Result<WorkloadResult, SimError> {
    let rotate = cfg.gto_rotate_period;
    run_workload(
        cfg,
        workload,
        &move || policy.build(rotate),
        &simt_core::baseline_detector,
    )
}

/// The paper's eight busy-wait synchronization kernels, in Figure-2 order:
/// TB, ST, DS, ATM, HT, TSP, NW1, NW2.
pub fn sync_suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(sync::tb::TreeBuild::new(scale)),
        Box::new(sync::st::SortSignal::new(scale)),
        Box::new(sync::ds::DistanceSolver::new(scale)),
        Box::new(sync::atm::BankTransfer::new(scale)),
        Box::new(sync::ht::Hashtable::new(scale)),
        Box::new(sync::tsp::Tsp::new(scale)),
        Box::new(sync::nw::NeedlemanWunsch::new(scale, false)),
        Box::new(sync::nw::NeedlemanWunsch::new(scale, true)),
    ]
}

/// Fourteen synchronization-free Rodinia-analog kernels.
pub fn rodinia_suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    rodinia::suite(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_paper_cardinality() {
        assert_eq!(sync_suite(Scale::Tiny).len(), 8);
        assert_eq!(rodinia_suite(Scale::Tiny).len(), 14);
    }

    #[test]
    fn suite_names_match_figure2() {
        let names: Vec<&str> = sync_suite(Scale::Tiny).iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec!["TB", "ST", "DS", "ATM", "HT", "TSP", "NW1", "NW2"]
        );
    }

    #[test]
    fn sync_workloads_have_ground_truth_sibs() {
        let cfg = GpuConfig::test_tiny();
        for w in sync_suite(Scale::Tiny) {
            let mut gpu = Gpu::new(cfg.clone());
            let p = w.prepare(&mut gpu);
            let has_sib = p.stages.iter().any(|s| !s.kernel.true_sibs.is_empty());
            assert!(has_sib, "{} must annotate its spin branches", w.name());
        }
    }

    #[test]
    fn rodinia_workloads_have_no_sibs_but_have_loops() {
        let cfg = GpuConfig::test_tiny();
        for w in rodinia_suite(Scale::Tiny) {
            let mut gpu = Gpu::new(cfg.clone());
            let p = w.prepare(&mut gpu);
            for s in &p.stages {
                assert!(s.kernel.true_sibs.is_empty(), "{} is sync-free", w.name());
                assert!(
                    !s.kernel.backward_branches().is_empty(),
                    "{} should contain loops (the DDOS candidate set)",
                    w.name()
                );
            }
            assert!(!w.is_sync());
        }
    }
}
