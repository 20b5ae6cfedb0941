//! GPU top level: CTA dispatch, the main cycle loop, run reports.

use crate::detect::{baseline_detector, BranchLog, SpinDetector};
use crate::pool::SmPool;
use crate::sched::{BasePolicy, SchedulerPolicy};
use crate::sm::{LaunchCtx, Sm, SmProf, SnapLimits};
use crate::watchdog::{HangClass, HangReport, ProgressScan};
use crate::{EnergyBreakdown, EnergyModel, Engine, GpuConfig, SimStats};
use simt_isa::Kernel;
use simt_mem::{MemStats, MemorySystem};
use simt_snap::{Snap, SnapshotError};
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

/// Cycles between forward-progress scans. A power of two well below any
/// sensible `watchdog_cycles`, so scan cost stays negligible while hang
/// detection latency stays within ~2x the watchdog window.
const SCAN_PERIOD: u64 = 2048;

/// Factory producing one scheduler-policy instance per scheduler unit.
pub type PolicyFactory<'a> = dyn Fn() -> Box<dyn SchedulerPolicy> + 'a;

/// Factory producing one spin detector per SM.
pub type DetectorFactory<'a> = dyn Fn(&Kernel) -> Box<dyn SpinDetector> + 'a;

/// Kernel launch geometry and parameters.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// CTAs in the grid.
    pub grid_ctas: usize,
    /// Threads per CTA (≤ 1024; the last warp may be partial).
    pub threads_per_cta: usize,
    /// 32-bit parameter slots, read by `ld.param`.
    pub params: Vec<u32>,
}

/// Checkpoint control for [`Gpu::run_with_checkpoints`].
///
/// The GPU produces and consumes raw snapshot *bodies*: framing them in the
/// `simt-snap` envelope, writing them atomically, and naming files is the
/// caller's concern (see `bows-run --checkpoint-every` / `--resume`).
/// Snapshot boundaries are the tops of run-loop iterations at cycles that
/// are multiples of `every`, where the machine is between cycles. A run
/// whose deadline passes hands the sink the snapshot of the boundary it
/// stopped at before returning [`SimError::Cancelled`].
///
/// Snapshots are engine-specific only through the config fingerprint
/// (resuming under a different [`Engine`](crate::Engine) is rejected, not
/// silently wrong).
pub struct CheckpointCtl<'a> {
    /// Snapshot cadence in cycles; `0` disables periodic snapshots, so
    /// the sink sees at most the snapshot of a cancelled run.
    pub every: u64,
    /// Receives each snapshot as `(cycle, body)`.
    pub sink: &'a mut dyn FnMut(u64, &[u8]),
    /// Snapshot body to restore instead of performing the initial CTA
    /// dispatch (bytes a previous `sink` call received).
    pub resume: Option<&'a [u8]>,
}

impl std::fmt::Debug for CheckpointCtl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointCtl")
            .field("every", &self.every)
            .field("resume", &self.resume.map(<[u8]>::len))
            .finish()
    }
}

/// Why a run stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The forward-progress watchdog declared a hang: a SIMT-induced
    /// deadlock, spin livelock, or warp starvation. The report classifies
    /// the hang and snapshots every live warp.
    Deadlock {
        /// Cycle at which the hang was declared.
        cycle: u64,
        /// Structured diagnosis.
        report: Box<HangReport>,
    },
    /// `max_cycles` exceeded without the watchdog seeing a hang pattern.
    CycleLimit {
        /// The cycle limit that was hit.
        cycle: u64,
        /// Warp snapshots at the limit (class [`HangClass::CycleLimit`]).
        report: Box<HangReport>,
    },
    /// Launch geometry the configuration can never satisfy.
    LaunchTooLarge {
        /// What did not fit.
        reason: String,
    },
    /// The [`GpuConfig`] itself is structurally invalid (zero SMs, zero
    /// scheduler units, zero warp size, ...). Reachable from a hostile
    /// `simt-serve` request config, so it surfaces as a typed error at
    /// run entry — never a panic deep inside the run loop.
    InvalidConfig {
        /// What is wrong with the configuration.
        what: String,
    },
    /// The simulator caught itself in a state that should be unreachable.
    /// Surfaced as an error (not a panic) so sweeps over many workloads can
    /// report and continue.
    InternalInvariant {
        /// The broken invariant.
        what: String,
    },
    /// A simulated kernel accessed device global memory outside every
    /// allocation (or unaligned) — a kernel/request bug, surfaced as a
    /// typed error so a malformed service request can never panic a
    /// worker thread.
    DeviceFault {
        /// SM that issued the faulting access.
        sm: usize,
        /// PC of the faulting instruction.
        pc: usize,
        /// The fault (address, kind, allocated extent).
        fault: simt_mem::MemFault,
    },
    /// The run's wall-clock deadline ([`Gpu::set_deadline`]) passed
    /// before the grid completed.
    Cancelled {
        /// Simulated cycle at which the passed deadline was observed.
        cycle: u64,
    },
    /// A checkpoint snapshot could not be restored: corrupt bytes, or a
    /// snapshot taken under a different configuration, kernel, launch,
    /// scheduler, or detector than this run's.
    Snapshot {
        /// What failed.
        what: String,
    },
}

impl SimError {
    /// The hang diagnosis, when this error carries one.
    pub fn hang_report(&self) -> Option<&HangReport> {
        match self {
            SimError::Deadlock { report, .. } | SimError::CycleLimit { report, .. } => Some(report),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, report } => {
                write!(f, "{} detected at cycle {cycle}", report.class)
            }
            SimError::CycleLimit { cycle, .. } => write!(f, "cycle limit reached at {cycle}"),
            SimError::LaunchTooLarge { reason } => write!(f, "launch too large: {reason}"),
            SimError::InvalidConfig { what } => {
                write!(f, "invalid GPU configuration: {what}")
            }
            SimError::InternalInvariant { what } => {
                write!(f, "internal invariant violated: {what}")
            }
            SimError::DeviceFault { sm, pc, fault } => {
                write!(f, "device memory fault at pc {pc} (sm {sm}): {fault}")
            }
            SimError::Cancelled { cycle } => {
                write!(
                    f,
                    "run cancelled at cycle {cycle}: wall-clock deadline exceeded"
                )
            }
            SimError::Snapshot { what } => write!(f, "snapshot error: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Wall-clock breakdown of where *host* time went during a run, collected
/// only when [`GpuConfig::profile`] is set. The `_ns` figures are
/// nanoseconds.
///
/// SM-side phases (`fetch`/`issue`/`execute`) are summed over SMs; the
/// run loop's own (`mem_cycle`/`skip_horizon`) and `total` are timed
/// around it. All of it is wall time on the one thread that runs the loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Writeback wheel drain, CTA retirement, and reclassifying the warps
    /// an event touched since the last cycle — fence clearing and
    /// eligibility for those alone (the front of every SM cycle).
    pub fetch_ns: u64,
    /// Scheduler-unit arbitration and end-of-cycle policy bookkeeping,
    /// excluding the nested execute time.
    pub issue_ns: u64,
    /// Instruction execution proper (decoded-dispatch, operand reads,
    /// register writes, global-memory accesses and their submission).
    pub execute_ns: u64,
    /// Memory-system cycling plus completion delivery to SMs.
    pub mem_cycle_ns: u64,
    /// Always 0: global-memory work is submitted at issue, inside
    /// `execute_ns`. Declared only because `benchmark/` still reads it.
    pub merge_ns: u64,
    /// Skip-engine horizon computation for clock jumps. (A sleeping SM's
    /// bulk accrual runs where it wakes or is settled: in `other`, under
    /// the pool walk, a watchdog scan or a checkpoint.)
    pub skip_horizon_ns: u64,
    /// The whole run loop, launch to grid completion.
    pub total_ns: u64,
    /// Every `SmPool::cycle` round, SM phases included; part of `other`
    /// (see [`ProfileReport::other_breakdown`]), like the next three.
    pub pool_ns: u64,
    /// CTA dispatch: the initial one and every refill.
    pub dispatch_ns: u64,
    /// Forward-progress scans, with the settle that precedes each.
    pub watchdog_ns: u64,
    /// Checkpoints: the statistics fold and the encoding of the body (not
    /// the caller's sink).
    pub checkpoint_ns: u64,
    /// [`Sm::cycle`] calls, summed over SMs. A count, not nanoseconds.
    pub sm_cycles_run: u64,
    /// Simulated cycles SMs with work slept through instead (accrued in
    /// bulk), summed over SMs. A count; always 0 under `Engine::Cycle`.
    pub sm_cycles_slept: u64,
    /// Warp slots (re)classified, summed over SMs. A count.
    pub warps_classified: u64,
}

impl ProfileReport {
    /// `(label, nanoseconds)` rows in display order — the five phases.
    pub fn phases(&self) -> [(&'static str, u64); 5] {
        [
            ("fetch", self.fetch_ns),
            ("issue", self.issue_ns),
            ("execute", self.execute_ns),
            ("mem-cycle", self.mem_cycle_ns),
            ("skip-horizon", self.skip_horizon_ns),
        ]
    }

    /// Run-loop wall time not attributed to any phase (watchdog scans,
    /// checkpoint serialization, dispatch refills, loop overhead).
    pub fn other_ns(&self) -> u64 {
        let attributed: u64 = self.phases().iter().map(|&(_, ns)| ns).sum();
        self.total_ns.saturating_sub(attributed)
    }

    /// What [`ProfileReport::other_ns`] is made of, as `(label,
    /// nanoseconds)` rows: the pool walk (the rounds' wall time minus the
    /// SM phases inside them: waking, settling and putting SMs to sleep),
    /// CTA dispatch, watchdog scans, checkpoints, and the rest of the run
    /// loop.
    pub fn other_breakdown(&self) -> [(&'static str, u64); 5] {
        let sm_phases = self.fetch_ns + self.issue_ns + self.execute_ns;
        let pool_walk = self.pool_ns.saturating_sub(sm_phases);
        let timed = pool_walk + self.dispatch_ns + self.watchdog_ns + self.checkpoint_ns;
        [
            ("pool-walk", pool_walk),
            ("dispatch", self.dispatch_ns),
            ("watchdog", self.watchdog_ns),
            ("checkpoint", self.checkpoint_ns),
            ("loop", self.other_ns().saturating_sub(timed)),
        ]
    }

    /// Fold another report into this one (multi-kernel aggregation).
    pub fn add(&mut self, o: &ProfileReport) {
        self.fetch_ns += o.fetch_ns;
        self.issue_ns += o.issue_ns;
        self.execute_ns += o.execute_ns;
        self.mem_cycle_ns += o.mem_cycle_ns;
        self.merge_ns += o.merge_ns;
        self.skip_horizon_ns += o.skip_horizon_ns;
        self.total_ns += o.total_ns;
        self.pool_ns += o.pool_ns;
        self.dispatch_ns += o.dispatch_ns;
        self.watchdog_ns += o.watchdog_ns;
        self.checkpoint_ns += o.checkpoint_ns;
        self.sm_cycles_run += o.sm_cycles_run;
        self.sm_cycles_slept += o.sm_cycles_slept;
        self.warps_classified += o.warps_classified;
    }

    /// Share of SM-cycles with work that were slept through, not run
    /// (0 when nothing was simulated). Near 0 on a run whose SMs issue
    /// almost every cycle — or that ran under `Engine::Cycle`.
    pub fn slept_share(&self) -> f64 {
        let all = self.sm_cycles_run + self.sm_cycles_slept;
        self.sm_cycles_slept as f64 / all.max(1) as f64
    }

    /// Warp slots classified per [`Sm::cycle`] call (0 when nothing was
    /// simulated): what a cycle costs beyond its issues, against the live
    /// warps per SM a rescan would read.
    pub fn classified_per_cycle(&self) -> f64 {
        self.warps_classified as f64 / self.sm_cycles_run.max(1) as f64
    }
}

/// Everything measured during one kernel run.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Cycles from launch to grid completion.
    pub cycles: u64,
    /// Core statistics.
    pub sim: SimStats,
    /// Memory statistics (delta over this kernel only).
    pub mem: MemStats,
    /// Energy model evaluation.
    pub energy: EnergyBreakdown,
    /// Detector-confirmed SIB PCs with confirmation cycles, merged over SMs
    /// (deduplicated to the earliest confirmation).
    pub confirmed_sibs: Vec<(usize, u64)>,
    /// Backward-branch encounter timelines merged over SMs.
    pub branch_log: BranchLog,
    /// Scheduler name (from unit 0 of SM 0).
    pub scheduler: String,
    /// Detector name.
    pub detector: String,
    /// Wall-clock milliseconds at the configured core clock.
    pub time_ms: f64,
    /// Per-CTA architectural state at retirement, sorted by CTA id. Only
    /// populated when [`GpuConfig::capture_final_state`] is set; `None`
    /// otherwise, so measurement runs carry no capture cost.
    pub final_state: Option<Vec<crate::warp::CtaState>>,
    /// Host wall-clock phase breakdown. Only populated when
    /// [`GpuConfig::profile`] is set; `None` otherwise, so measurement runs
    /// take no timestamps.
    pub profile: Option<ProfileReport>,
}

/// A simulated GPU: configuration plus device memory. SM state is created
/// per kernel launch, so one `Gpu` can run a sequence of kernels sharing
/// memory (as NW1/NW2 do).
#[derive(Debug)]
pub struct Gpu {
    /// The configuration (Table II preset or custom).
    pub cfg: GpuConfig,
    mem: MemorySystem,
    deadline: Option<Instant>,
}

impl Gpu {
    /// A GPU with fresh device memory.
    pub fn new(cfg: GpuConfig) -> Gpu {
        let mut mem = MemorySystem::new(cfg.mem.clone(), cfg.num_sms);
        mem.set_blocking_locks(cfg.blocking_locks);
        Gpu {
            cfg,
            mem,
            deadline: None,
        }
    }

    /// Set a wall-clock deadline for subsequent runs. It is compared with
    /// [`Instant::now`] at the top of the run loop on forward-progress-scan
    /// boundaries (every [`SCAN_PERIOD`] cycles), so a passed deadline
    /// stops the run within microseconds of real time while costing
    /// nothing on the per-cycle hot path. The deadline only observes: a
    /// run that finishes before it is bit-identical to one without it.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Device memory (host-side setup: allocate buffers, write inputs).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Device memory, mutable.
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Run a kernel with a baseline policy and the ground-truth (static)
    /// spin detector — the common case for baseline measurements.
    ///
    /// # Errors
    ///
    /// See [`Gpu::run`].
    pub fn run_baseline(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchSpec,
        policy: BasePolicy,
    ) -> Result<KernelReport, SimError> {
        let rotate = self.cfg.gto_rotate_period;
        self.run(
            kernel,
            launch,
            &move || policy.build(rotate),
            &baseline_detector,
        )
    }

    /// Run a kernel to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a structurally invalid
    /// [`GpuConfig`]; [`SimError::Deadlock`] (with a classified
    /// [`HangReport`]) when the watchdog declares a global deadlock, spin
    /// livelock, or warp starvation; [`SimError::CycleLimit`] past
    /// `cfg.max_cycles`; [`SimError::LaunchTooLarge`] when a single CTA
    /// cannot fit on an SM; [`SimError::DeviceFault`] on a wild global
    /// access; and [`SimError::InternalInvariant`] if the simulator catches
    /// itself in an impossible state.
    pub fn run(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchSpec,
        policy_factory: &PolicyFactory<'_>,
        detector_factory: &DetectorFactory<'_>,
    ) -> Result<KernelReport, SimError> {
        self.run_with_checkpoints(kernel, launch, policy_factory, detector_factory, None)
    }

    /// [`Gpu::run`], with optional checkpoint/restore.
    ///
    /// With `ctl.every > 0`, the run-loop pauses at every cycle that is a
    /// multiple of `every` and hands a full-machine snapshot body to
    /// `ctl.sink`. With `ctl.resume`, the initial CTA dispatch is replaced
    /// by restoring that body, and the run continues to completion exactly
    /// as the uninterrupted run would have: final stats, memory image, and
    /// any hang report are bit-identical. A run cancelled by its
    /// deadline gives `ctl.sink` the snapshot of the cycle it stopped at,
    /// whatever `ctl.every` is. Checkpointing itself is
    /// observation-free — a checkpointing run and a plain run of the same
    /// kernel produce identical reports (under the Skip engine, boundaries
    /// only add explicit dead cycles that the engine-equivalence invariant
    /// already guarantees change nothing).
    ///
    /// # Errors
    ///
    /// Everything [`Gpu::run`] returns, plus [`SimError::Snapshot`] when a
    /// resume body is corrupt or belongs to a different run (config,
    /// kernel, launch, scheduler, or detector mismatch). A failed resume
    /// leaves device memory untouched.
    pub fn run_with_checkpoints(
        &mut self,
        kernel: &Kernel,
        launch: &LaunchSpec,
        policy_factory: &PolicyFactory<'_>,
        detector_factory: &DetectorFactory<'_>,
        ctl: Option<CheckpointCtl<'_>>,
    ) -> Result<KernelReport, SimError> {
        self.cfg
            .validate()
            .map_err(|what| SimError::InvalidConfig { what })?;
        kernel.validate().map_err(|e| SimError::InternalInvariant {
            what: format!("kernel failed validation at launch: {e}"),
        })?;
        // Lower the kernel into its pre-decoded micro-op stream once per
        // launch; the per-cycle hot path dispatches on this flat table.
        let decoded = simt_isa::DecodedKernel::decode(kernel);
        let lctx = LaunchCtx {
            kernel,
            decoded: &decoded,
            params: &launch.params,
            threads_per_cta: launch.threads_per_cta,
            grid_ctas: launch.grid_ctas,
        };
        if launch.threads_per_cta == 0 || launch.grid_ctas == 0 {
            return Err(SimError::LaunchTooLarge {
                reason: "empty grid".to_string(),
            });
        }
        if launch.threads_per_cta > self.cfg.max_threads_per_sm
            || launch.threads_per_cta * kernel.num_regs as usize > self.cfg.regs_per_sm
            || (kernel.shared_words as usize) > self.cfg.shared_words_per_sm
        {
            return Err(SimError::LaunchTooLarge {
                reason: format!(
                    "CTA of {} threads x {} regs does not fit on an SM",
                    launch.threads_per_cta, kernel.num_regs
                ),
            });
        }

        let sms: Vec<Sm> = (0..self.cfg.num_sms)
            .map(|id| {
                let units = (0..self.cfg.schedulers_per_sm)
                    .map(|_| policy_factory())
                    .collect();
                Sm::new(id, &self.cfg, units, detector_factory(kernel))
            })
            .collect();
        let scheduler = sms[0].units()[0].name();
        let detector = sms[0].detector.name().to_string();
        // Snapshot identity: config + kernel + launch. Computed only when
        // checkpointing is in play.
        let fingerprint = if ctl.is_some() {
            snapshot_fingerprint(&self.cfg, kernel, launch)
        } else {
            0
        };
        let Gpu { cfg, mem, deadline } = self;
        let mut run = Run {
            rs: RunState::new(launch.grid_ctas, *mem.stats()),
            cfg,
            mem,
            deadline: *deadline,
            pool: SmPool::new(sms),
            lctx: &lctx,
            fingerprint,
            scheduler,
            detector,
            started: cfg.profile.then(Instant::now),
            prof: ProfileReport::default(),
        };
        if let Some(body) = ctl.as_ref().and_then(|c| c.resume) {
            // Resume replaces the initial dispatch wholesale: warp
            // slots, CTA residency, the pending-CTA queue, and every
            // run-loop local come from the snapshot.
            run.restore(body).map_err(|e| SimError::Snapshot {
                what: e.to_string(),
            })?;
        } else {
            // Initial CTA dispatch: round-robin while anything fits.
            run.dispatch_pending();
            if run.rs.pending.len() == launch.grid_ctas {
                return Err(SimError::LaunchTooLarge {
                    reason: "no CTA could be dispatched".to_string(),
                });
            }
        }
        run.drive(ctl)?;
        Ok(run.finish())
    }
}

/// One kernel launch in flight: the machine (SMs, device memory) and the
/// run loop's own state.
struct Run<'a> {
    cfg: &'a GpuConfig,
    mem: &'a mut MemorySystem,
    deadline: Option<Instant>,
    pool: SmPool,
    lctx: &'a LaunchCtx<'a>,
    rs: RunState,
    /// Snapshot identity (0 when checkpointing is off).
    fingerprint: u64,
    /// Scheduler name (from unit 0 of SM 0).
    scheduler: String,
    /// Detector name.
    detector: String,
    /// The run loop's phase timers. `profile` is false by default and
    /// [`Run::timer`] makes the off path a single untaken branch per
    /// phase — no timestamps, no accumulation.
    started: Option<Instant>,
    prof: ProfileReport,
}

/// Close a phase opened by [`Run::timer`].
fn lap(t: Option<Instant>, acc: &mut u64) {
    if let Some(t) = t {
        *acc += t.elapsed().as_nanos() as u64;
    }
}

impl Run<'_> {
    /// Open a profiled phase (`None` unless profiling).
    fn timer(&self) -> Option<Instant> {
        self.started.map(|_| Instant::now())
    }

    /// The run loop: one iteration per simulated cycle, until the grid
    /// retires. `Engine::Cycle` is this loop with SM sleep, and so the
    /// clock jump, off.
    fn drive(&mut self, ctl: Option<CheckpointCtl<'_>>) -> Result<(), SimError> {
        let start_cycle = self.rs.now;
        let skip = self.cfg.engine == Engine::Skip;
        let (every, mut sink) = match ctl {
            Some(c) => (c.every, Some(c.sink)),
            None => (0, None),
        };
        // Reusable completion sink: the cycle loop never allocates for the
        // common zero-or-few-completions case.
        let mut completions = Vec::new();
        while self.rs.remaining > 0 {
            let now = self.rs.now;
            // The wall deadline, read on the forward-progress scan's
            // cadence (Skip-engine horizons are clamped to SCAN_PERIOD
            // boundaries, so dead spans cannot outrun it).
            let cancelled = now.is_multiple_of(SCAN_PERIOD)
                && now > 0
                && self.deadline.is_some_and(|d| Instant::now() >= d);
            // Checkpoint boundary: the machine is between cycles, so the
            // snapshot is simply "about to simulate cycle `now`". The
            // SMs' stats are folded into the run accumulator first — a
            // sum the end-of-run fold would have performed anyway. A
            // cancelled run hands over this boundary's snapshot, so its
            // caller can resume exactly where it stopped.
            if let Some(sink) = &mut sink {
                if cancelled || (every > 0 && now > start_cycle && now.is_multiple_of(every)) {
                    let t = self.timer();
                    self.pool.fold_stats(now, &mut self.rs.stats);
                    let body = self.snapshot_body();
                    lap(t, &mut self.prof.checkpoint_ns);
                    sink(now, &body);
                }
            }
            if cancelled {
                return Err(SimError::Cancelled { cycle: now });
            }
            // Memory completions first so unblocked warps can issue today.
            let t = self.timer();
            self.mem.cycle_into(now, &mut completions);
            for c in completions.drain(..) {
                self.pool.sms[c.sm].on_mem_complete(&c)?;
                self.mem.recycle(c.atomic_results);
            }
            lap(t, &mut self.prof.mem_cycle_ns);
            let t = self.timer();
            let round = self.pool.cycle(now, skip, self.lctx, self.mem)?;
            lap(t, &mut self.prof.pool_ns);
            if round.finished > 0 {
                self.rs.remaining -= round.finished as usize;
                // Refill SMs that just freed resources.
                self.dispatch_pending();
            }
            if round.issued {
                self.rs.stats.busy_cycles += 1;
                self.rs.idle_since = now + 1;
            } else if now - self.rs.idle_since >= self.cfg.watchdog_cycles && self.mem.quiescent() {
                // Nothing can ever issue again: classic SIMT deadlock.
                return Err(self.hang(HangClass::GlobalDeadlock));
            }
            if now.is_multiple_of(SCAN_PERIOD) && now > 0 && self.rs.remaining > 0 {
                let t = self.timer();
                let hung = self.scan_progress();
                lap(t, &mut self.prof.watchdog_ns);
                if let Some(class) = hung {
                    return Err(self.hang(class));
                }
            }
            // With every SM that has work asleep, the machine cannot
            // change before the event horizon: jump the clock straight
            // there. The sleepers stay asleep, and accrue the span like
            // any other when they wake or are settled.
            let mut next = now + 1;
            if let Some(sm_ready) = round.ready {
                let t = self.timer();
                next = next.max(self.skip_horizon(sm_ready, every));
                lap(t, &mut self.prof.skip_horizon_ns);
            }
            self.rs.now = next;
            if self.cfg.max_cycles > 0 && next >= self.cfg.max_cycles {
                return Err(self.hang(HangClass::CycleLimit));
            }
        }
        Ok(())
    }

    /// Launch pending CTAs onto the SMs that fit them ([`SmPool::dispatch`]).
    fn dispatch_pending(&mut self) {
        let t = self.timer();
        let rs = &mut self.rs;
        self.pool
            .dispatch(&mut rs.pending, self.lctx, &mut rs.age_counter);
        lap(t, &mut self.prof.dispatch_ns);
    }

    /// Periodic forward-progress scan: catches hangs where warps keep
    /// issuing (spin livelock) or where one warp silently starves while
    /// the rest of the machine stays busy. Returns the hang it diagnoses.
    fn scan_progress(&mut self) -> Option<HangClass> {
        let now = self.rs.now;
        self.pool.settle(now);
        let mut agg = ProgressScan::default();
        let mut starved: Option<(usize, usize)> = None;
        let mut backoff_starved: Option<(usize, usize)> = None;
        for (id, sm) in self.pool.sms.iter().enumerate() {
            let s = sm.scan_progress(
                now,
                self.cfg.watchdog_cycles,
                self.cfg.backoff_starvation_cycles,
            );
            agg.live += s.live;
            agg.spinning += s.spinning;
            agg.spinning_or_blocked += s.spinning_or_blocked;
            // SMs are visited in ascending id, so the first hit is the
            // lexicographic minimum `(sm, warp)` pair.
            backoff_starved = backoff_starved.or(s.backoff_starved.map(|w| (id, w)));
            starved = starved.or(s.starved.map(|w| (id, w)));
        }
        let locks_now = self.mem.stats().lock_success;
        let lock_delta = locks_now - self.rs.locks_at_scan;
        self.rs.locks_at_scan = locks_now;
        if let Some((sm, warp)) = backoff_starved {
            return Some(HangClass::BackoffStarvation { sm, warp });
        }
        if let Some((sm, warp)) = starved {
            return Some(HangClass::Starvation { sm, warp });
        }
        let stalled = agg.live > 0
            && agg.spinning > 0
            && agg.spinning_or_blocked == agg.live
            && lock_delta == 0;
        if !stalled {
            self.rs.livelock_since = None;
            return None;
        }
        let since = *self.rs.livelock_since.get_or_insert(now);
        (now - since >= self.cfg.watchdog_cycles).then_some(HangClass::SpinLivelock)
    }

    /// Event horizon after a round at `rs.now` that left every SM with
    /// work asleep: the earliest later cycle at which the machine can
    /// change state — (a) the memory system delivers or serves something,
    /// or (b) a sleeper's own timers fire (writeback wheel, BOWS back-off
    /// expiry, adaptive-window update; `sm_ready`, from the round). Clamps
    /// keep every externally observable transition on its cycle-engine
    /// schedule: forward-progress scans stay on SCAN_PERIOD boundaries,
    /// the global-deadlock watchdog fires at exactly `idle_since +
    /// watchdog_cycles`, and the cycle limit trips at exactly `max_cycles`.
    fn skip_horizon(&self, sm_ready: u64, checkpoint_every: u64) -> u64 {
        let now = self.rs.now;
        let next_multiple = |period: u64| (now / period + 1) * period;
        let mut horizon = next_multiple(SCAN_PERIOD)
            .min(self.mem.next_event(now).unwrap_or(u64::MAX))
            .min(sm_ready);
        // Checkpoint boundaries are kept as explicit cycles. Safe by the
        // engine-equivalence invariant: a span is only skippable when
        // every cycle in it changes nothing, so landing on the boundary
        // and continuing is bit-identical to jumping over it.
        if checkpoint_every > 0 {
            horizon = horizon.min(next_multiple(checkpoint_every));
        }
        if self.mem.quiescent() {
            // Quiescence cannot end inside a dead span, so the deadlock
            // deadline is a hard horizon bound.
            horizon = horizon.min(self.rs.idle_since + self.cfg.watchdog_cycles);
        }
        if self.cfg.max_cycles > 0 {
            horizon = horizon.min(self.cfg.max_cycles);
        }
        horizon
    }

    /// A classified hang error at the current cycle, with a full
    /// warp-state snapshot (warps in SM-id order).
    fn hang(&mut self, class: HangClass) -> SimError {
        let cycle = self.rs.now;
        self.pool.settle(cycle);
        let mstats = self.mem.stats();
        let report = Box::new(HangReport {
            class,
            cycle,
            scheduler: self.scheduler.clone(),
            warps: self
                .pool
                .sms
                .iter()
                .flat_map(|sm| sm.snapshots(cycle))
                .collect(),
            mem_in_flight: self.mem.in_flight(),
            lock_success: mstats.lock_success,
            lock_fails: mstats.lock_intra_fail + mstats.lock_inter_fail,
        });
        match class {
            HangClass::CycleLimit => SimError::CycleLimit { cycle, report },
            _ => SimError::Deadlock { cycle, report },
        }
    }

    /// Assemble the report of a run whose grid has retired.
    fn finish(mut self) -> KernelReport {
        let cycles = self.rs.now;
        self.pool.fold_stats(cycles, &mut self.rs.stats);
        let mut sim = self.rs.stats;
        sim.cycles = cycles;
        let mem = self
            .mem
            .stats()
            .delta(&self.rs.mem_before)
            .expect("memory counters only grow (a resumed baseline is checked at restore)");
        let energy =
            EnergyModel::default().evaluate(&sim, &mem, self.cfg.num_sms, self.cfg.core_clock_mhz);
        let mut branch_log = BranchLog::default();
        let mut confirmed_sibs: Vec<(usize, u64)> = Vec::new();
        let mut sm_prof = SmProf::default();
        for sm in &self.pool.sms {
            branch_log.merge(&sm.branch_log);
            for (pc, cycle) in sm.detector.confirmed_sibs() {
                match confirmed_sibs.iter_mut().find(|(p, _)| *p == pc) {
                    Some((_, c)) => *c = (*c).min(cycle),
                    None => confirmed_sibs.push((pc, cycle)),
                }
            }
            sm_prof.fetch_ns += sm.prof.fetch_ns;
            sm_prof.issue_ns += sm.prof.issue_ns;
            sm_prof.execute_ns += sm.prof.execute_ns;
            sm_prof.cycles_run += sm.prof.cycles_run;
            sm_prof.cycles_slept += sm.prof.cycles_slept;
            sm_prof.warps_classified += sm.prof.warps_classified;
        }
        confirmed_sibs.sort_unstable();
        let final_state = self.cfg.capture_final_state.then(|| {
            let mut ctas: Vec<crate::warp::CtaState> = self
                .pool
                .sms
                .iter_mut()
                .flat_map(|sm| std::mem::take(&mut sm.captured))
                .collect();
            ctas.sort_by_key(|c| c.cta_id);
            ctas
        });
        let profile = self.started.map(|start| ProfileReport {
            fetch_ns: sm_prof.fetch_ns,
            // The SM's issue timer brackets the whole scheduler loop;
            // carve the nested execute time out so phases don't overlap.
            issue_ns: sm_prof.issue_ns.saturating_sub(sm_prof.execute_ns),
            execute_ns: sm_prof.execute_ns,
            total_ns: start.elapsed().as_nanos() as u64,
            sm_cycles_run: sm_prof.cycles_run,
            sm_cycles_slept: sm_prof.cycles_slept,
            warps_classified: sm_prof.warps_classified,
            ..self.prof
        });
        KernelReport {
            cycles,
            sim,
            mem,
            energy,
            confirmed_sibs,
            branch_log,
            scheduler: self.scheduler,
            detector: self.detector,
            time_ms: self.cfg.cycles_to_ms(cycles),
            final_state,
            profile,
        }
    }

    /// Serialize the whole machine into a snapshot body: identity header,
    /// run-loop locals, SMs in id order, memory system last.
    fn snapshot_body(&self) -> Vec<u8> {
        #[cfg(test)]
        tests::BODIES_ENCODED.with(|n| n.set(n.get() + 1));
        let mut w = simt_snap::SnapWriter::new();
        w.u64(self.fingerprint);
        w.str(&self.scheduler);
        w.str(&self.detector);
        self.rs.save(&mut w);
        w.usize(self.pool.sms.len());
        for sm in &self.pool.sms {
            sm.save_snap(&mut w);
        }
        self.mem.save_snap(&mut w);
        w.into_bytes()
    }

    /// Parse a snapshot body and restore it into the freshly constructed
    /// SMs, the run-loop state and the device memory system. Identity
    /// (fingerprint, scheduler, detector) is checked before anything
    /// mutates; the memory system is decoded on the side and swapped in
    /// last, after every check has passed, so on any error the GPU's
    /// device memory is untouched.
    fn restore(&mut self, body: &[u8]) -> Result<(), SnapshotError> {
        let mut r = simt_snap::SnapReader::new(body);
        if r.u64()? != self.fingerprint {
            return Err(SnapshotError::malformed(
                "fingerprint mismatch: snapshot was taken under a different \
                 GPU config, kernel, or launch",
            ));
        }
        for (what, ours) in [("scheduler", &self.scheduler), ("detector", &self.detector)] {
            let theirs = r.str()?;
            if theirs != *ours {
                return Err(SnapshotError::malformed(format!(
                    "{what} mismatch: snapshot has {theirs:?}, this run has {ours:?}"
                )));
            }
        }
        let kernel = self.lctx.kernel;
        let state = RunState::load(&mut r)?;
        let limits = SnapLimits {
            insts: kernel.insts.len(),
            regs_per_thread: kernel.num_regs as usize,
            threads_per_cta: self.lctx.threads_per_cta,
            shared_words: kernel.shared_words as usize,
            grid_ctas: self.lctx.grid_ctas,
            now: state.now,
        };
        let nsms = usize::load(&mut r)?;
        if nsms != self.pool.sms.len() {
            return Err(SnapshotError::malformed(format!(
                "snapshot has {nsms} SMs, this machine has {}",
                self.pool.sms.len()
            )));
        }
        let resident_ctas = self.pool.load_snap(&mut r, &limits)?;
        let restored_mem = self.mem.load_snap(&mut r, state.now)?;
        r.expect_exhausted()?;
        state.check(restored_mem.stats(), resident_ctas, self.lctx.grid_ctas)?;
        *self.mem = restored_mem;
        self.rs = state;
        Ok(())
    }
}

/// The run loop's own locals — everything outside the SMs and the memory
/// system that a checkpoint must carry. `now` is the cycle about to be
/// simulated.
struct RunState {
    now: u64,
    pending: VecDeque<usize>,
    age_counter: u64,
    stats: SimStats,
    idle_since: u64,
    remaining: usize,
    livelock_since: Option<u64>,
    locks_at_scan: u64,
    mem_before: MemStats,
}

simt_snap::snap_struct!(RunState {
    now: u64,
    pending: VecDeque<usize>,
    age_counter: u64,
    stats: SimStats,
    idle_since: u64,
    remaining: usize,
    livelock_since: Option<u64>,
    locks_at_scan: u64,
    mem_before: MemStats,
});

impl RunState {
    /// The state of a launch before its initial dispatch: every CTA
    /// pending, cycle 0.
    fn new(grid_ctas: usize, mem_before: MemStats) -> RunState {
        RunState {
            now: 0,
            pending: (0..grid_ctas).collect(),
            age_counter: 0,
            // Run-level statistics. Per-SM counters accrue inside the pool
            // and are folded in at checkpoints and at the end.
            stats: SimStats::default(),
            idle_since: 0,
            remaining: grid_ctas,
            // Spin-livelock persistence: the first cycle at which every
            // live warp was spinning-or-blocked with zero lock progress,
            // or `None` while the machine is making progress.
            livelock_since: None,
            locks_at_scan: mem_before.lock_success,
            mem_before,
        }
    }

    /// Validate restored run-loop locals against the rest of the restored
    /// machine: the memory system's counters, the CTAs resident on the SMs,
    /// and the launch. The run loop subtracts these values from `now` and
    /// from the live counters every cycle; an inconsistent set must be
    /// rejected here, not overflow there.
    fn check(
        &self,
        mem: &MemStats,
        resident_ctas: usize,
        grid_ctas: usize,
    ) -> Result<(), SnapshotError> {
        let bad = |what: String| Err(SnapshotError::malformed(what));
        if self.pending.len() > grid_ctas {
            return bad(format!(
                "{} pending CTAs for a {grid_ctas}-CTA grid",
                self.pending.len()
            ));
        }
        if let Some(cta) = self.pending.iter().find(|&&cta| cta >= grid_ctas) {
            return bad(format!(
                "pending CTA {cta} outside the {grid_ctas}-CTA grid"
            ));
        }
        if self.remaining > grid_ctas || self.remaining != self.pending.len() + resident_ctas {
            return bad(format!(
                "{} CTAs remaining, but {} pending + {resident_ctas} resident of {grid_ctas}",
                self.remaining,
                self.pending.len()
            ));
        }
        if self.idle_since > self.now {
            return bad(format!(
                "idle since cycle {} at cycle {}",
                self.idle_since, self.now
            ));
        }
        if let Some(since) = self.livelock_since.filter(|&since| since > self.now) {
            return bad(format!(
                "livelock since cycle {since} at cycle {}",
                self.now
            ));
        }
        if self.locks_at_scan > mem.lock_success {
            return bad(format!(
                "{} lock acquisitions at the last scan, {} in total",
                self.locks_at_scan, mem.lock_success
            ));
        }
        if mem.delta(&self.mem_before).is_none() {
            return bad("launch-time memory counters exceed the restored ones".to_string());
        }
        Ok(())
    }
}

/// Stable identity of (config, kernel, launch): a snapshot resumes only
/// into the run that produced it. `sm_threads`, which nothing reads, is
/// zeroed so that whatever `benchmark/` assigns it cannot split
/// identities; it stays in the hashed `{cfg:?}` string so that checkpoints
/// written while it meant something still resume.
fn snapshot_fingerprint(cfg: &GpuConfig, kernel: &Kernel, launch: &LaunchSpec) -> u64 {
    let mut c = cfg.clone();
    c.sm_threads = 0;
    // Profiling is observational (wall-clock timers only), so a profiled
    // run and a plain run share a snapshot identity.
    c.profile = false;
    // The kernel must be encoded canonically — its `labels` map has
    // process- and instance-dependent iteration order, so `{kernel:?}`
    // would make the fingerprint differ between two assemblies of the
    // same source and spuriously reject cross-process resumes.
    let mut labels: Vec<(&str, usize)> = kernel
        .labels
        .iter()
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    labels.sort_unstable();
    simt_snap::fnv1a(
        format!(
            "{c:?}|{}|{:?}|{labels:?}|{}|{}|{}|{:?}|{:?}|{}|{}|{:?}",
            kernel.name,
            kernel.insts,
            kernel.num_regs,
            kernel.num_params,
            kernel.shared_words,
            kernel.reconv,
            kernel.true_sibs,
            launch.grid_ctas,
            launch.threads_per_cta,
            launch.params
        )
        .as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullDetector;
    use simt_isa::asm::assemble;

    fn vec_add_kernel() -> Kernel {
        assemble(
            r#"
            .kernel vec_add
            .regs 8
            .params 3
                ld.param r1, [0]      ; a
                ld.param r2, [4]      ; b
                ld.param r3, [8]      ; out
                mov r4, %gtid
                shl r5, r4, 2
                add r1, r1, r5
                add r2, r2, r5
                add r3, r3, r5
                ld.global r6, [r1]
                ld.global r7, [r2]
                add r6, r6, r7
                st.global [r3], r6
                exit
            "#,
        )
        .unwrap()
    }

    /// A fresh GPU with the three `vec_add` buffers allocated and the two
    /// inputs filled; returns the output base and the kernel parameters.
    fn vec_add_gpu(cfg: GpuConfig) -> (Gpu, u64, Vec<u32>) {
        let mut gpu = Gpu::new(cfg);
        let n = 1024u64;
        let a = gpu.mem_mut().gmem_mut().alloc(n);
        let b = gpu.mem_mut().gmem_mut().alloc(n);
        let out = gpu.mem_mut().gmem_mut().alloc(n);
        for i in 0..n {
            gpu.mem_mut().gmem_mut().write_u32(a + i * 4, i as u32);
            gpu.mem_mut().gmem_mut().write_u32(b + i * 4, 2 * i as u32);
        }
        (gpu, out, vec![a as u32, b as u32, out as u32])
    }

    #[test]
    fn vector_add_end_to_end() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let n = 256u64;
        let a = gpu.mem_mut().gmem_mut().alloc(n);
        let b = gpu.mem_mut().gmem_mut().alloc(n);
        let out = gpu.mem_mut().gmem_mut().alloc(n);
        for i in 0..n {
            gpu.mem_mut().gmem_mut().write_u32(a + i * 4, i as u32);
            gpu.mem_mut().gmem_mut().write_u32(b + i * 4, 2 * i as u32);
        }
        let kernel = vec_add_kernel();
        let launch = LaunchSpec {
            grid_ctas: 2,
            threads_per_cta: 128,
            params: vec![a as u32, b as u32, out as u32],
        };
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        for i in 0..n {
            assert_eq!(
                gpu.mem().gmem().read_u32(out + i * 4),
                3 * i as u32,
                "element {i}"
            );
        }
        assert!(report.cycles > 0);
        assert_eq!(report.sim.ctas_completed, 2);
        assert!(report.sim.issued_inst >= 13 * 8, "8 warps x 13 insts");
        assert!(report.mem.dram_reads > 0);
        assert_eq!(report.scheduler, "gto");
        // Full warps on a straight-line kernel: SIMD efficiency 1.0.
        assert!((report.sim.simd_efficiency() - 1.0).abs() < 1e-9);
    }

    /// A degenerate topology must come back as a structured error, not a
    /// panic: `run` used to index `sms[0].units()[0]` for the scheduler
    /// name before checking the machine actually has an SM or a scheduler.
    #[test]
    fn degenerate_topology_is_a_structured_error() {
        let kernel = vec_add_kernel();
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![0, 0, 0],
        };
        for break_cfg in [
            (|c: &mut GpuConfig| c.num_sms = 0) as fn(&mut GpuConfig),
            |c| c.schedulers_per_sm = 0,
            |c| c.warp_size = 0,
            |c| c.max_threads_per_sm = 0,
            |c| c.max_ctas_per_sm = 0,
        ] {
            let mut cfg = GpuConfig::test_tiny();
            break_cfg(&mut cfg);
            let mut gpu = Gpu::new(cfg);
            match gpu.run_baseline(&kernel, &launch, BasePolicy::Gto) {
                Err(SimError::InvalidConfig { what }) => {
                    assert!(!what.is_empty());
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_three_baselines_complete() {
        for policy in [BasePolicy::Lrr, BasePolicy::Gto, BasePolicy::Cawa] {
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let n = 64u64;
            let a = gpu.mem_mut().gmem_mut().alloc(n);
            let b = gpu.mem_mut().gmem_mut().alloc(n);
            let out = gpu.mem_mut().gmem_mut().alloc(n);
            let kernel = vec_add_kernel();
            let launch = LaunchSpec {
                grid_ctas: 1,
                threads_per_cta: 64,
                params: vec![a as u32, b as u32, out as u32],
            };
            let report = gpu.run_baseline(&kernel, &launch, policy).unwrap();
            assert_eq!(report.scheduler, policy.name());
            assert_eq!(report.sim.ctas_completed, 1);
        }
    }

    #[test]
    fn divergent_kernel_reconverges() {
        // Odd threads add 10, even threads add 20; all store.
        let kernel = assemble(
            r#"
            .kernel diverge
            .regs 8
            .params 1
                ld.param r1, [0]
                mov r2, %tid
                and r3, r2, 1
                setp.eq.s32 p1, r3, 1
                mov r4, 20
            @p1 mov r4, 10
                shl r5, r2, 2
                add r1, r1, r5
                st.global [r1], r4
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.mem_mut().gmem_mut().alloc(32);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![out as u32],
        };
        gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        for i in 0..32u64 {
            let expect = if i % 2 == 1 { 10 } else { 20 };
            assert_eq!(gpu.mem().gmem().read_u32(out + i * 4), expect, "thread {i}");
        }
    }

    #[test]
    fn loop_kernel_counts_iterations() {
        // Each thread sums 0..10 and stores 45.
        let kernel = assemble(
            r#"
            .kernel looper
            .regs 8
            .params 1
                ld.param r1, [0]
                mov r2, %gtid
                shl r2, r2, 2
                add r1, r1, r2
                mov r3, 0          ; acc
                mov r4, 0          ; i
            top:
                add r3, r3, r4
                add r4, r4, 1
                setp.lt.s32 p1, r4, 10
            @p1 bra top
                st.global [r1], r3
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.mem_mut().gmem_mut().alloc(64);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 64,
            params: vec![out as u32],
        };
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Lrr).unwrap();
        for i in 0..64u64 {
            assert_eq!(gpu.mem().gmem().read_u32(out + i * 4), 45);
        }
        // The backward branch executed 10 times per warp.
        let (pc, t) = report.branch_log.iter().next().unwrap();
        assert_eq!(kernel.insts[pc].op, simt_isa::Op::Bra);
        assert_eq!(t.count, 10 * 2, "10 iterations x 2 warps");
    }

    #[test]
    fn barrier_synchronizes_cta() {
        // Thread 0 writes shared[1]=99 before the barrier; all threads read
        // it after and store it to global.
        let kernel = assemble(
            r#"
            .kernel barrier
            .regs 8
            .params 1
            .shared 4
                mov r2, %tid
                setp.eq.s32 p1, r2, 0
                mov r3, 99
            @p1 st.shared [4], r3
                bar.sync
                ld.shared r4, [4]
                ld.param r1, [0]
                shl r5, r2, 2
                add r1, r1, r5
                st.global [r1], r4
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.mem_mut().gmem_mut().alloc(64);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 64,
            params: vec![out as u32],
        };
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        for i in 0..64u64 {
            assert_eq!(gpu.mem().gmem().read_u32(out + i * 4), 99, "thread {i}");
        }
        assert!(report.sim.barriers >= 1);
    }

    #[test]
    fn launch_too_large_is_rejected() {
        let kernel = vec_add_kernel();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 4096,
            params: vec![0, 0, 0],
        };
        assert!(matches!(
            gpu.run_baseline(&kernel, &launch, BasePolicy::Gto),
            Err(SimError::LaunchTooLarge { .. })
        ));
    }

    #[test]
    fn expired_deadline_stops_a_spin() {
        // Same endless spin as `deadlock_watchdog_fires`, but an
        // already-expired wall deadline stops it at the first progress
        // scan, long before the watchdog would classify it.
        let kernel = assemble(
            r#"
            .kernel stuck
            .regs 8
            .params 1
                ld.param r1, [0]
            top:
                ld.global.volatile r2, [r1]
                setp.eq.s32 p1, r2, 0
            @p1 bra top
                exit
            "#,
        )
        .unwrap();
        let mut cfg = GpuConfig::test_tiny();
        cfg.max_cycles = 10_000_000;
        let mut gpu = Gpu::new(cfg);
        let flag = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![flag as u32],
        };
        gpu.set_deadline(Instant::now());
        match gpu.run_baseline(&kernel, &launch, BasePolicy::Gto) {
            Err(e @ SimError::Cancelled { .. }) => {
                assert_eq!(e, SimError::Cancelled { cycle: SCAN_PERIOD });
                assert_eq!(
                    e.to_string(),
                    "run cancelled at cycle 2048: wall-clock deadline exceeded"
                );
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn completed_run_ignores_pending_deadline() {
        // A run that finishes before any scan boundary is unaffected by a
        // deadline: the deadline is observational only.
        let kernel = vec_add_kernel();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let n = 64u64;
        let a = gpu.mem_mut().gmem_mut().alloc(n);
        let b = gpu.mem_mut().gmem_mut().alloc(n);
        let out = gpu.mem_mut().gmem_mut().alloc(n);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 64,
            params: vec![a as u32, b as u32, out as u32],
        };
        gpu.set_deadline(Instant::now() + std::time::Duration::from_secs(3600));
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        assert_eq!(report.sim.ctas_completed, 1);
    }

    #[test]
    fn wild_global_access_is_a_device_fault() {
        // The kernel dereferences an unallocated address; the run must fail
        // with a typed DeviceFault, not a panic.
        let kernel = assemble(
            r#"
            .kernel wild
            .regs 8
            .params 1
                ld.param r1, [0]
                ld.global r2, [r1]
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![0x00ff_0000],
        };
        match gpu.run_baseline(&kernel, &launch, BasePolicy::Gto) {
            Err(SimError::DeviceFault { fault, .. }) => {
                assert!(!fault.unaligned, "out-of-bounds, not unaligned: {fault}");
            }
            other => panic!("expected DeviceFault, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_watchdog_fires() {
        // A kernel where thread 0 spins forever on a flag nobody sets.
        let kernel = assemble(
            r#"
            .kernel stuck
            .regs 8
            .params 1
                ld.param r1, [0]
            top:
                ld.global.volatile r2, [r1]
                setp.eq.s32 p1, r2, 0
            @p1 bra top
                exit
            "#,
        )
        .unwrap();
        let mut cfg = GpuConfig::test_tiny();
        cfg.watchdog_cycles = 5_000;
        cfg.max_cycles = 100_000;
        let mut gpu = Gpu::new(cfg);
        let flag = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![flag as u32],
        };
        let err = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto);
        // The spin loop keeps issuing, so the idle watchdog never trips;
        // the forward-progress scan classifies it as spin livelock instead.
        match err {
            Err(SimError::Deadlock { cycle, report }) => {
                assert_eq!(report.class, crate::HangClass::SpinLivelock);
                assert!(cycle < 100_000, "diagnosed before the cycle limit");
                assert!(report.spinning_warps().next().is_some());
            }
            other => panic!("expected a classified deadlock, got {other:?}"),
        }
    }

    #[test]
    fn atomic_counter_mutual_exclusion() {
        // Every thread atomically increments one counter.
        let kernel = assemble(
            r#"
            .kernel count
            .regs 8
            .params 1
                ld.param r1, [0]
                atom.global.add r2, [r1], 1
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let ctr = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 4,
            threads_per_cta: 128,
            params: vec![ctr as u32],
        };
        let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Lrr).unwrap();
        assert_eq!(gpu.mem().gmem().read_u32(ctr), 512);
        assert_eq!(report.mem.atomic_lane_ops, 512);
    }

    #[test]
    fn partial_warp_launch() {
        let kernel = vec_add_kernel();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let n = 40u64; // 1 full warp + 8 lanes
        let a = gpu.mem_mut().gmem_mut().alloc(n);
        let b = gpu.mem_mut().gmem_mut().alloc(n);
        let out = gpu.mem_mut().gmem_mut().alloc(n);
        for i in 0..n {
            gpu.mem_mut().gmem_mut().write_u32(a + i * 4, 1);
            gpu.mem_mut().gmem_mut().write_u32(b + i * 4, i as u32);
        }
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 40,
            params: vec![a as u32, b as u32, out as u32],
        };
        gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        for i in 0..n {
            assert_eq!(gpu.mem().gmem().read_u32(out + i * 4), 1 + i as u32);
        }
    }

    /// Checkpoint/restore oracle at unit scope: a run that snapshots
    /// periodically matches a plain run bit-for-bit, and resuming from any
    /// captured snapshot reproduces the plain run's report and memory.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let setup = vec_add_gpu;
        let kernel = vec_add_kernel();
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 2;
        let (mut plain, out, params) = setup(cfg.clone());
        let launch = LaunchSpec {
            grid_ctas: 8,
            threads_per_cta: 128,
            params,
        };
        // Plain run (params match the allocation order in `setup`).
        let plain_report = plain
            .run_baseline(&kernel, &launch, BasePolicy::Gto)
            .unwrap();
        let plain_mem: Vec<u32> = (0..1024)
            .map(|i| plain.mem().gmem().read_u32(out + i * 4))
            .collect();

        // Checkpointing run: capture every 64 cycles.
        let mut bodies: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut ck, _, _) = setup(cfg.clone());
        let mut sink = |cycle: u64, body: &[u8]| bodies.push((cycle, body.to_vec()));
        let rotate = cfg.gto_rotate_period;
        let ck_report = ck
            .run_with_checkpoints(
                &kernel,
                &launch,
                &move || BasePolicy::Gto.build(rotate),
                &baseline_detector,
                Some(CheckpointCtl {
                    every: 64,
                    sink: &mut sink,
                    resume: None,
                }),
            )
            .unwrap();
        assert_eq!(
            ck_report.cycles, plain_report.cycles,
            "checkpointing perturbed the run"
        );
        assert_eq!(ck_report.sim, plain_report.sim);
        assert_eq!(ck_report.mem, plain_report.mem);
        assert!(!bodies.is_empty(), "run too short to checkpoint");

        // Resume from a mid-run snapshot on a fresh GPU.
        let (cycle, body) = bodies[bodies.len() / 2].clone();
        assert!(cycle > 0 && cycle < plain_report.cycles);
        let (mut res, _, _) = setup(cfg.clone());
        let mut sink2 = |_: u64, _: &[u8]| {};
        let res_report = res
            .run_with_checkpoints(
                &kernel,
                &launch,
                &move || BasePolicy::Gto.build(rotate),
                &baseline_detector,
                Some(CheckpointCtl {
                    every: 0,
                    sink: &mut sink2,
                    resume: Some(&body),
                }),
            )
            .unwrap();
        assert_eq!(res_report.cycles, plain_report.cycles, "resume diverged");
        assert_eq!(res_report.sim, plain_report.sim);
        assert_eq!(res_report.mem, plain_report.mem);
        let res_mem: Vec<u32> = (0..1024)
            .map(|i| res.mem().gmem().read_u32(out + i * 4))
            .collect();
        assert_eq!(res_mem, plain_mem, "memory image diverged");

        // A snapshot from a different launch is rejected, memory untouched.
        let (mut other, _, _) = setup(cfg);
        let wrong = LaunchSpec {
            grid_ctas: 4,
            ..launch.clone()
        };
        let mut sink3 = |_: u64, _: &[u8]| {};
        match other.run_with_checkpoints(
            &kernel,
            &wrong,
            &move || BasePolicy::Gto.build(rotate),
            &|_: &Kernel| Box::new(NullDetector),
            Some(CheckpointCtl {
                every: 0,
                sink: &mut sink3,
                resume: Some(&body),
            }),
        ) {
            Err(SimError::Snapshot { what }) => {
                assert!(what.contains("mismatch"), "unhelpful message: {what}");
            }
            other => panic!("expected Snapshot error, got {other:?}"),
        }
    }

    thread_local! {
        /// Snapshot bodies this thread's runs have encoded.
        pub(super) static BODIES_ENCODED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    /// A run cancelled at a loop-top boundary hands its sink that
    /// boundary's snapshot, and only that one; resuming it without a deadline
    /// finishes exactly as the uninterrupted run. Without a checkpoint
    /// control the same cancellation encodes nothing.
    #[test]
    fn cancelled_run_hands_over_its_boundary_snapshot() {
        // Each thread sums 0..1000: a few thousand cycles of issue.
        let kernel = assemble(
            r#"
            .kernel looper
            .regs 8
            .params 1
                ld.param r1, [0]
                mov r2, %gtid
                shl r2, r2, 2
                add r1, r1, r2
                mov r3, 0
                mov r4, 0
            top:
                add r3, r3, r4
                add r4, r4, 1
                setp.lt.s32 p1, r4, 1000
            @p1 bra top
                st.global [r1], r3
                exit
            "#,
        )
        .unwrap();
        let cfg = GpuConfig::test_tiny();
        let rotate = cfg.gto_rotate_period;
        let policy = move || BasePolicy::Gto.build(rotate);
        let gpu = |deadline: Option<Instant>| {
            let mut gpu = Gpu::new(cfg.clone());
            let out = gpu.mem_mut().gmem_mut().alloc(64);
            if let Some(d) = deadline {
                gpu.set_deadline(d);
            }
            (gpu, out)
        };
        let launch = |out: u64| LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 64,
            params: vec![out as u32],
        };
        let image = |gpu: &Gpu, out: u64| -> Vec<u32> {
            (0..64)
                .map(|i| gpu.mem().gmem().read_u32(out + i * 4))
                .collect()
        };
        let (mut plain, out) = gpu(None);
        let plain_report = plain
            .run_baseline(&kernel, &launch(out), BasePolicy::Gto)
            .unwrap();
        assert!(
            plain_report.cycles > 2 * SCAN_PERIOD,
            "run too short to cancel"
        );
        // A deadline that never passes leaves every scan boundary alone.
        let (mut far, out) = gpu(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        let far_report = far
            .run_baseline(&kernel, &launch(out), BasePolicy::Gto)
            .unwrap();
        assert_eq!(far_report.cycles, plain_report.cycles);
        assert_eq!(far_report.sim, plain_report.sim);
        let encoded = || BODIES_ENCODED.with(std::cell::Cell::get);
        let before = encoded();

        // No checkpoint control: cancelled at the first boundary, nothing encoded.
        let (mut bare, out) = gpu(Some(Instant::now()));
        match bare.run_baseline(&kernel, &launch(out), BasePolicy::Gto) {
            Err(SimError::Cancelled { cycle, .. }) => assert_eq!(cycle, SCAN_PERIOD),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(encoded(), before, "a run without a ctl encoded a snapshot");

        // With one: exactly one body, the boundary the run stopped at.
        let mut bodies: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut sink = |cycle: u64, body: &[u8]| bodies.push((cycle, body.to_vec()));
        let (mut ck, out) = gpu(Some(Instant::now()));
        let ctl = CheckpointCtl {
            every: 0,
            sink: &mut sink,
            resume: None,
        };
        match ck.run_with_checkpoints(
            &kernel,
            &launch(out),
            &policy,
            &baseline_detector,
            Some(ctl),
        ) {
            Err(SimError::Cancelled { cycle, .. }) => assert_eq!(cycle, SCAN_PERIOD),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(encoded(), before + 1);
        assert_eq!(bodies.len(), 1);
        assert_eq!(bodies[0].0, SCAN_PERIOD);

        // Resumed without a deadline: the uninterrupted run, bit for bit.
        let mut nosink = |_: u64, _: &[u8]| {};
        let (mut res, out) = gpu(None);
        let ctl = CheckpointCtl {
            every: 0,
            sink: &mut nosink,
            resume: Some(&bodies[0].1),
        };
        let res_report = res
            .run_with_checkpoints(
                &kernel,
                &launch(out),
                &policy,
                &baseline_detector,
                Some(ctl),
            )
            .unwrap();
        assert_eq!(res_report.cycles, plain_report.cycles, "resume diverged");
        assert_eq!(res_report.sim, plain_report.sim);
        assert_eq!(res_report.mem, plain_report.mem);
        assert_eq!(
            image(&res, out),
            image(&plain, out),
            "memory image diverged"
        );
        assert_eq!(image(&res, out)[63], 499_500);
    }

    /// The identity of one fixed (config, kernel, launch), computed at the
    /// commit before direct submission: a checkpoint written there still
    /// resumes here. A change to what the fingerprint hashes has to move
    /// this constant on purpose, and say that old checkpoints restart.
    #[test]
    fn snapshot_identity_is_pinned() {
        let launch = LaunchSpec {
            grid_ctas: 8,
            threads_per_cta: 128,
            params: vec![0, 4096, 8192],
        };
        assert_eq!(
            snapshot_fingerprint(&GpuConfig::test_tiny(), &vec_add_kernel(), &launch),
            0x7a66_4e4b_53db_7894
        );
    }

    #[test]
    fn run_state_snap_laws() {
        simt_snap::assert_snap_laws(&RunState::new(0, MemStats::default()));
        let mut mid_run = RunState::new(6, MemStats::default());
        mid_run.pending.drain(..4);
        mid_run.livelock_since = Some(64);
        simt_snap::assert_snap_laws(&mid_run);
    }

    /// A checksum-valid body whose run-loop locals are inconsistent with
    /// the rest of the machine must be refused at restore: the run loop
    /// computes `now - idle_since`, `now - livelock_since`, `lock_success -
    /// locks_at_scan`, `mem - mem_before` and `remaining - finished`, so
    /// accepting such values is an overflow panic in debug builds and a
    /// silent wrap in release. One hand-crafted body per rejected case.
    #[test]
    fn inconsistent_run_state_is_rejected_at_restore() {
        let kernel = vec_add_kernel();
        let mut cfg = GpuConfig::test_tiny();
        cfg.num_sms = 2;
        let (mut gpu, _, params) = vec_add_gpu(cfg.clone());
        let launch = LaunchSpec {
            grid_ctas: 8,
            threads_per_cta: 128,
            params,
        };
        let rotate = cfg.gto_rotate_period;
        let policy = move || BasePolicy::Gto.build(rotate);
        let detector = |_: &Kernel| -> Box<dyn SpinDetector> { Box::new(NullDetector) };
        let mut bodies: Vec<Vec<u8>> = Vec::new();
        let mut sink = |_: u64, body: &[u8]| bodies.push(body.to_vec());
        gpu.run_with_checkpoints(
            &kernel,
            &launch,
            &policy,
            &detector,
            Some(CheckpointCtl {
                every: 64,
                sink: &mut sink,
                resume: None,
            }),
        )
        .unwrap();
        let body = bodies[bodies.len() / 2].clone();

        // Re-encode `body` with its RunState passed through `corrupt`.
        let with_state = |corrupt: &dyn Fn(&mut RunState)| {
            let mut r = simt_snap::SnapReader::new(&body);
            r.u64().unwrap();
            r.str().unwrap();
            r.str().unwrap();
            let head = body.len() - r.remaining();
            let mut state = RunState::load(&mut r).unwrap();
            let tail = body.len() - r.remaining();
            corrupt(&mut state);
            let mut w = simt_snap::SnapWriter::new();
            state.save(&mut w);
            [&body[..head], &w.into_bytes(), &body[tail..]].concat()
        };
        let resume = |bad: &[u8]| {
            let (mut victim, _, _) = vec_add_gpu(cfg.clone());
            let before = victim.mem().gmem().image().to_vec();
            let mut nosink = |_: u64, _: &[u8]| {};
            let result = victim.run_with_checkpoints(
                &kernel,
                &launch,
                &policy,
                &detector,
                Some(CheckpointCtl {
                    every: 0,
                    sink: &mut nosink,
                    resume: Some(bad),
                }),
            );
            if result.is_err() {
                assert_eq!(
                    victim.mem().gmem().image(),
                    &before[..],
                    "rejection touched memory"
                );
            }
            result
        };
        resume(&with_state(&|_| {})).expect("the unmodified re-encoding resumes");

        type Corrupt<'a> = &'a dyn Fn(&mut RunState);
        let cases: [(&str, Corrupt<'_>); 9] = [
            // The SMs are checked against the restored clock: a warp whose
            // issue port frees in the future has a class that changes with
            // no event, which the SM's event-driven eligibility cannot see.
            ("issues next at", &|s| (s.now, s.idle_since) = (1, 0)),
            ("idle since", &|s| s.idle_since = s.now + 1),
            ("livelock since", &|s| s.livelock_since = Some(s.now + 1)),
            ("lock acquisitions", &|s| s.locks_at_scan = u64::MAX),
            ("memory counters", &|s| s.mem_before.dram_reads = u64::MAX),
            ("remaining", &|s| s.remaining += 1),
            ("remaining", &|s| s.remaining = 0),
            ("remaining", &|s| {
                // Consistent with pending + resident, but more than the grid.
                s.pending.extend([0, 1, 2, 3, 4, 5, 6, 7]);
                s.remaining += 8;
            }),
            ("pending CTA", &|s| {
                if let Some(cta) = s.pending.front_mut() {
                    *cta = 8;
                } else {
                    s.pending.push_back(8);
                    s.remaining += 1;
                }
            }),
        ];
        for (what, corrupt) in cases {
            match resume(&with_state(corrupt)) {
                Err(SimError::Snapshot { what: msg }) => {
                    assert!(msg.contains(what), "{what}: unhelpful message: {msg}");
                }
                other => panic!("{what}: expected Snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn clock_register_advances() {
        let kernel = assemble(
            r#"
            .kernel clk
            .regs 8
            .params 1
                ld.param r1, [0]
                clock r2
                clock r3
                sub r4, r3, r2
                st.global [r1], r4
                exit
            "#,
        )
        .unwrap();
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.mem_mut().gmem_mut().alloc(1);
        let launch = LaunchSpec {
            grid_ctas: 1,
            threads_per_cta: 32,
            params: vec![out as u32],
        };
        gpu.run_baseline(&kernel, &launch, BasePolicy::Gto).unwrap();
        let dt = gpu.mem().gmem().read_u32(out);
        assert!(dt > 0, "second clock read is later");
    }
}
