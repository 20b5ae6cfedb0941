//! Simulation requests: JSON schema, validation, the content-address key,
//! and the (pure, deterministic) execution function.
//!
//! A request fully determines its result: the simulator is bit-exact for a
//! fixed (kernel, config, seed), so [`SimRequest::cache_key`] can
//! content-address the rendered response body. Everything that can change
//! a single output byte must feed the key; the cache-soundness tests in
//! `tests/cache_key.rs` hold this to account.

use crate::json::{error_body, kernel_report_json, sim_error_json, Json};
use bows::{AdaptiveConfig, DdosConfig, DelayMode};
use simt_core::{BasePolicy, CheckpointCtl, Gpu, GpuConfig, KernelReport, LaunchSpec, SimError};
use simt_isa::{AsmError, Kernel};
use simt_mem::ChaosConfig;
use std::time::Instant;

/// One kernel parameter slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamSpec {
    /// A scalar value passed as-is.
    Scalar(u32),
    /// A device buffer: allocate `words` words, fill them, pass the base.
    Buffer { words: u64, fill: u32 },
}

/// A validated simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Kernel assembly source.
    pub kernel: String,
    /// Grid size in CTAs.
    pub ctas: usize,
    /// Threads per CTA.
    pub tpc: usize,
    /// Parameter slots, left to right.
    pub params: Vec<ParamSpec>,
    /// GPU preset name (`tiny` | `gtx480` | `gtx1080ti`).
    pub gpu: String,
    /// Baseline scheduler.
    pub sched: BasePolicy,
    /// BOWS back-off: `None` = baseline, fixed cycles, or adaptive.
    pub bows: Option<DelayMode>,
    /// Run the DDOS detector (else the static `!sib` oracle).
    pub ddos: bool,
    /// Simulated-cycle budget override (`GpuConfig::max_cycles`).
    pub timeout_cycles: Option<u64>,
    /// Memory-chaos seed (simulated-hardware faults, not service chaos).
    pub chaos_seed: Option<u64>,
    /// Memory-chaos intensity 0..=3.
    pub chaos_level: Option<u8>,
    /// Post-run dumps: `(param slot, words)`.
    pub dumps: Vec<(usize, u64)>,
    /// Requesting tenant (quota accounting); `"anon"` by default.
    pub tenant: String,
    /// Priority 0 (highest) ..= 2 (lowest); default 1.
    pub priority: u8,
}

/// Caps that keep one request from monopolizing a worker. Validation
/// rejects anything larger with a 400-class error before admission.
pub const MAX_KERNEL_BYTES: usize = 64 * 1024;
pub const MAX_CTAS: usize = 4096;
pub const MAX_PARAMS: usize = 32;
pub const MAX_BUFFER_WORDS: u64 = 1 << 22;
pub const MAX_DUMP_WORDS: u64 = 4096;

/// Can a run with these parameters answer a dump of `words` words from
/// parameter `slot`? The message names what is wrong with the pair.
pub fn check_dump(params: &[ParamSpec], slot: usize, words: u64) -> Result<(), String> {
    match params.get(slot) {
        None => Err(format!("slot {slot} has no parameter")),
        Some(ParamSpec::Scalar(_)) => Err(format!("slot {slot} is a scalar, not a buffer")),
        Some(&ParamSpec::Buffer { words: have, .. }) if words > have => Err(format!(
            "{words} words from slot {slot}, a {have}-word buffer"
        )),
        Some(ParamSpec::Buffer { .. }) => Ok(()),
    }
}

impl SimRequest {
    /// Parse and validate a request body.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found; the HTTP
    /// layer maps it to 400.
    pub fn from_json(body: &str) -> Result<SimRequest, String> {
        let j = Json::parse(body)?;
        let kernel = j.get("kernel")?.as_str("kernel")?.to_string();
        if kernel.is_empty() {
            return Err("kernel: empty".into());
        }
        if kernel.len() > MAX_KERNEL_BYTES {
            return Err(format!("kernel: larger than {MAX_KERNEL_BYTES} bytes"));
        }
        let ctas = match j.opt("ctas")? {
            Some(v) => v.as_u64("ctas")? as usize,
            None => 1,
        };
        if ctas == 0 || ctas > MAX_CTAS {
            return Err(format!("ctas: must be in 1..={MAX_CTAS}"));
        }
        let tpc = match j.opt("tpc")? {
            Some(v) => v.as_u64("tpc")? as usize,
            None => 32,
        };
        if tpc == 0 || tpc > 1024 {
            return Err("tpc: must be in 1..=1024".into());
        }
        let mut params = Vec::new();
        if let Some(list) = j.opt("params")? {
            for (i, p) in list.as_array("params")?.iter().enumerate() {
                if params.len() >= MAX_PARAMS {
                    return Err(format!("params: more than {MAX_PARAMS}"));
                }
                match p {
                    Json::Obj(_) => {
                        let words = p.get("buf")?.as_u64(&format!("params[{i}].buf"))?;
                        if words == 0 || words > MAX_BUFFER_WORDS {
                            return Err(format!(
                                "params[{i}].buf: must be in 1..={MAX_BUFFER_WORDS}"
                            ));
                        }
                        let fill = match p.opt("fill")? {
                            Some(v) => v.as_u64(&format!("params[{i}].fill"))? as u32,
                            None => 0,
                        };
                        params.push(ParamSpec::Buffer { words, fill });
                    }
                    _ => {
                        let v = p.as_u64(&format!("params[{i}]"))?;
                        if v > u32::MAX as u64 {
                            return Err(format!("params[{i}]: exceeds u32"));
                        }
                        params.push(ParamSpec::Scalar(v as u32));
                    }
                }
            }
        }
        let gpu = match j.opt("gpu")? {
            Some(v) => v.as_str("gpu")?.to_string(),
            None => "tiny".to_string(),
        };
        if GpuConfig::preset(&gpu).is_none() {
            return Err("gpu: expected tiny | gtx480 | gtx1080ti".into());
        }
        let sched = match j.opt("sched")? {
            Some(v) => v
                .as_str("sched")?
                .parse()
                .map_err(|()| "sched: expected lrr | gto | cawa")?,
            None => BasePolicy::Gto,
        };
        let bows = match j.opt("bows")? {
            None => None,
            Some(Json::Str(s)) if s == "adaptive" => {
                Some(DelayMode::Adaptive(AdaptiveConfig::default()))
            }
            Some(v) => Some(DelayMode::Fixed(v.as_u64("bows")?)),
        };
        let ddos = match j.opt("ddos")? {
            Some(v) => v.as_bool("ddos")?,
            None => true,
        };
        let timeout_cycles = match j.opt("timeout_cycles")? {
            Some(v) => Some(v.as_u64("timeout_cycles")?),
            None => None,
        };
        let chaos_seed = match j.opt("chaos_seed")? {
            Some(v) => Some(v.as_u64("chaos_seed")?),
            None => None,
        };
        let chaos_level = match j.opt("chaos_level")? {
            Some(v) => {
                let l = v.as_u64("chaos_level")?;
                if l > 3 {
                    return Err("chaos_level: must be 0..=3".into());
                }
                Some(l as u8)
            }
            None => None,
        };
        let mut dumps = Vec::new();
        if let Some(list) = j.opt("dumps")? {
            for d in list.as_array("dumps")? {
                let pair = d.as_array("dumps[]")?;
                if pair.len() != 2 {
                    return Err("dumps[]: expected [slot, words]".into());
                }
                let slot = pair[0].as_u64("dumps[].slot")? as usize;
                let words = pair[1].as_u64("dumps[].words")?;
                if words > MAX_DUMP_WORDS {
                    return Err(format!("dumps[].words: more than {MAX_DUMP_WORDS}"));
                }
                // Checked here so a request that cannot be answered is a
                // 400 at the door, not an out-of-bounds read after the run.
                check_dump(&params, slot, words).map_err(|e| format!("dumps[]: {e}"))?;
                dumps.push((slot, words));
            }
        }
        let tenant = match j.opt("tenant")? {
            Some(v) => v.as_str("tenant")?.to_string(),
            None => "anon".to_string(),
        };
        if tenant.is_empty() || tenant.len() > 64 {
            return Err("tenant: must be 1..=64 bytes".into());
        }
        let priority = match j.opt("priority")? {
            Some(v) => {
                let p = v.as_u64("priority")?;
                if p > 2 {
                    return Err("priority: must be 0..=2".into());
                }
                p as u8
            }
            None => 1,
        };
        Ok(SimRequest {
            kernel,
            ctas,
            tpc,
            params,
            gpu,
            sched,
            bows,
            ddos,
            timeout_cycles,
            chaos_seed,
            chaos_level,
            dumps,
            tenant,
            priority,
        })
    }

    /// Canonical encoding of every result-affecting field — the identity
    /// the cache binds entries to. `tenant` and `priority` are deliberately
    /// excluded — they steer scheduling, not simulation — so identical work
    /// from different tenants shares one cache entry. Two requests have
    /// equal encodings iff they produce the same response body; the kernel
    /// is length-prefixed so no field can masquerade as another.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut c = String::with_capacity(self.kernel.len() + 128);
        let _ = write!(
            c,
            "k={}:{};ctas={};tpc={};p=[",
            self.kernel.len(),
            self.kernel,
            self.ctas,
            self.tpc
        );
        for p in &self.params {
            match *p {
                ParamSpec::Scalar(v) => {
                    let _ = write!(c, "s:{v},");
                }
                ParamSpec::Buffer { words, fill } => {
                    let _ = write!(c, "b:{words}:{fill},");
                }
            }
        }
        let _ = write!(c, "];gpu={};sched={}", self.gpu, self.sched.name());
        match self.bows {
            None => c.push_str(";bows=-"),
            Some(DelayMode::Fixed(cycles)) => {
                let _ = write!(c, ";bows=f:{cycles}");
            }
            Some(DelayMode::Adaptive(_)) => c.push_str(";bows=a"),
        }
        let _ = write!(c, ";ddos={}", self.ddos as u8);
        let _ = write!(
            c,
            ";tc={:?};cs={:?};cl={:?};dumps=[",
            self.timeout_cycles, self.chaos_seed, self.chaos_level
        );
        for &(slot, words) in &self.dumps {
            let _ = write!(c, "{slot}:{words},");
        }
        c.push(']');
        c
    }

    /// 64-bit content-address of [`SimRequest::canonical`] — the cache's
    /// *index*, not its identity. FNV is not collision-resistant, so the
    /// cache stores the canonical encoding beside each entry and verifies
    /// it on every hit; a crafted key collision degrades to a miss, never
    /// to serving another request's body.
    pub fn cache_key(&self) -> u64 {
        SimRequest::cache_key_of(&self.canonical())
    }

    /// [`SimRequest::cache_key`] of an encoding already made with
    /// [`SimRequest::canonical`], so a caller holding both encodes once.
    pub fn cache_key_of(canon: &str) -> u64 {
        simt_snap::fnv1a(canon.as_bytes())
    }

    /// The effective [`GpuConfig`] after preset + overrides.
    pub fn gpu_config(&self) -> GpuConfig {
        let mut cfg = GpuConfig::preset(&self.gpu).expect("preset name validated at parse");
        if self.chaos_seed.is_some() || self.chaos_level.is_some() {
            let seed = self.chaos_seed.unwrap_or(1);
            let level = self.chaos_level.unwrap_or(1);
            cfg.mem.chaos = ChaosConfig::with_level(seed, level);
        }
        if let Some(t) = self.timeout_cycles {
            cfg.max_cycles = t;
        }
        cfg
    }
}

/// How one execution of a request ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Simulation completed; the rendered success body.
    Ok(String),
    /// Simulation failed deterministically (deadlock, device fault, cycle
    /// limit, bad launch). Retrying is pointless; the rendered error body.
    SimError(String),
    /// The run's wall deadline passed: retryable.
    Cancelled,
}

/// Execute a request to completion and render the response body.
///
/// This is the one function both the service workers and the load
/// generator's expected-result oracle call, so "the service returned the
/// right bytes" is checkable by construction. The optional `deadline`
/// bounds wall time.
pub fn run_request(req: &SimRequest, deadline: Option<Instant>) -> RunOutcome {
    run_request_resumable(req, deadline, None)
}

/// [`run_request`], resuming from the snapshot `slot` holds and, when
/// `deadline` stops the run, leaving the snapshot of the cycle it stopped
/// at in `slot`. The supervised pool passes one slot across all attempts
/// of a job, so a retry resumes where its cancelled predecessor stopped
/// instead of replaying from cycle 0. The resume snapshot is taken out of
/// the slot; one the simulator rejects (impossible for a slot the same
/// request filled, but assume damage) is dropped and the attempt replays
/// from cycle 0 rather than failing the job.
pub fn run_request_resumable(
    req: &SimRequest,
    deadline: Option<Instant>,
    mut slot: Option<&mut Option<Vec<u8>>>,
) -> RunOutcome {
    let resume = slot.as_mut().and_then(|s| s.take());
    match attempt_once(req, deadline, slot.as_deref_mut(), resume.as_deref()) {
        Ok(out) => out,
        // The checkpoint was rejected: re-simulate, never fail the request
        // on a recovery artifact.
        Err(()) => attempt_once(req, deadline, slot, None).unwrap_or(RunOutcome::Cancelled),
    }
}

/// One execution attempt. `Err(())` means the resume snapshot was
/// rejected before any simulation happened.
fn attempt_once(
    req: &SimRequest,
    deadline: Option<Instant>,
    slot: Option<&mut Option<Vec<u8>>>,
    resume: Option<&[u8]>,
) -> Result<RunOutcome, ()> {
    // The simulator reads the deadline only at forward-progress scans,
    // which a short kernel never reaches — so honor a passed deadline here
    // (e.g. an attempt delayed past its deadline before it could start).
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Ok(RunOutcome::Cancelled);
    }
    // Only a cancelled run calls the sink: `every` is 0.
    let mut sink;
    let ctl = match slot {
        Some(s) => {
            sink = move |_cycle: u64, body: &[u8]| *s = Some(body.to_vec());
            Some(CheckpointCtl {
                every: 0,
                sink: &mut sink,
                resume,
            })
        }
        None => None,
    };
    Ok(match launch(req, false, deadline, ctl) {
        Ok(run) => RunOutcome::Ok(kernel_report_json(&run.report, &run.dumps).render()),
        Err(LaunchError::Asm(e)) => RunOutcome::SimError(error_body("asm_error", &e.to_string())),
        Err(LaunchError::Sim(SimError::Snapshot { .. })) if resume.is_some() => return Err(()),
        Err(LaunchError::Sim(SimError::Cancelled { .. })) => RunOutcome::Cancelled,
        Err(LaunchError::Sim(e)) => {
            let body = Json::Obj(vec![("error".into(), sim_error_json(&e))]).render();
            RunOutcome::SimError(body)
        }
    })
}

/// What a finished [`launch`] leaves: the assembled kernel, the GPU after
/// the run, the run's report and the words of each requested dump.
pub struct Launched {
    /// The request's kernel, assembled.
    pub kernel: Kernel,
    /// The GPU as the run left it (memory, chaos counters, its config).
    pub gpu: Gpu,
    /// The run's report.
    pub report: KernelReport,
    /// `(param slot, words)` per requested dump, in request order.
    pub dumps: Vec<(usize, Vec<u32>)>,
}

/// Why a [`launch`] has no report.
#[derive(Debug)]
pub enum LaunchError {
    /// The kernel text does not assemble.
    Asm(AsmError),
    /// The simulation failed, was cancelled, or refused its resume snapshot.
    Sim(SimError),
}

/// Assemble and run `req` on a fresh GPU: allocate and fill its buffers,
/// build the scheduler and detector it names, run (checkpointing through
/// `ctl`, bounded by `deadline`) and read the dumps back. The one launch path
/// of the service workers and `bows-run`, so both report the same bytes.
/// `profile` reports the run's host wall time and SM-cycle counts
/// (`bows-run --profile`); it changes nothing simulated.
///
/// # Errors
///
/// An assembly error or whatever [`Gpu::run_with_checkpoints`] returns.
pub fn launch(
    req: &SimRequest,
    profile: bool,
    deadline: Option<Instant>,
    ctl: Option<CheckpointCtl<'_>>,
) -> Result<Launched, LaunchError> {
    let kernel = simt_isa::asm::assemble(&req.kernel).map_err(LaunchError::Asm)?;
    let mut gpu = Gpu::new(GpuConfig {
        profile,
        ..req.gpu_config()
    });
    if let Some(d) = deadline {
        gpu.set_deadline(d);
    }
    let mut params = Vec::new();
    let mut bases: Vec<Option<u64>> = Vec::new();
    for p in &req.params {
        match *p {
            ParamSpec::Scalar(v) => {
                params.push(v);
                bases.push(None);
            }
            ParamSpec::Buffer { words, fill } => {
                let base = gpu.mem_mut().gmem_mut().alloc(words);
                if fill != 0 {
                    for i in 0..words {
                        gpu.mem_mut().gmem_mut().write_u32(base + i * 4, fill);
                    }
                }
                params.push(base as u32);
                bases.push(Some(base));
            }
        }
    }
    let launch = LaunchSpec {
        grid_ctas: req.ctas,
        threads_per_cta: req.tpc,
        params,
    };
    let rotate = gpu.cfg.gto_rotate_period;
    let warps = gpu.cfg.warps_per_sm();
    let policy = bows::policy_factory(req.sched, req.bows, rotate);
    let result = if req.ddos {
        let det = bows::ddos_factory(DdosConfig::default(), warps);
        gpu.run_with_checkpoints(&kernel, &launch, &policy, &det, ctl)
    } else {
        gpu.run_with_checkpoints(
            &kernel,
            &launch,
            &policy,
            &simt_core::static_sib_detector,
            ctl,
        )
    };
    let report = result.map_err(LaunchError::Sim)?;
    // A dump names a large-enough buffer: `check_dump` at the door.
    let dumps = req
        .dumps
        .iter()
        .filter_map(|&(slot, words)| {
            let base = (*bases.get(slot)?)?;
            Some((slot, gpu.mem().gmem().read_vec(base, words)))
        })
        .collect();
    Ok(Launched {
        kernel,
        gpu,
        report,
        dumps,
    })
}

/// Checksum of a response body, stored beside each cache entry.
pub fn body_checksum(body: &str) -> u64 {
    simt_snap::fnv1a(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    pub const VEC_KERNEL: &str = r#"
        .kernel inc
        .regs 8
        .params 1
            ld.param r1, [0]
            mov r2, %gtid
            shl r2, r2, 2
            add r1, r1, r2
            ld.global r3, [r1]
            add r3, r3, 1
            st.global [r1], r3
            exit
    "#;

    fn sample_body() -> String {
        format!(
            "{{\"kernel\":{},\"ctas\":1,\"tpc\":32,\
             \"params\":[{{\"buf\":32,\"fill\":5}}],\"dumps\":[[0,4]]}}",
            crate::json::json_string(VEC_KERNEL)
        )
    }

    #[test]
    fn parse_and_defaults() {
        let r = SimRequest::from_json(&sample_body()).unwrap();
        assert_eq!(r.ctas, 1);
        assert_eq!(r.sched, BasePolicy::Gto);
        assert!(r.ddos);
        assert_eq!(r.tenant, "anon");
        assert_eq!(r.priority, 1);
        assert_eq!(r.dumps, vec![(0, 4)]);
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(SimRequest::from_json("not json").is_err());
        assert!(SimRequest::from_json("{}").is_err(), "kernel required");
        assert!(SimRequest::from_json("{\"kernel\":\"x\",\"ctas\":0}").is_err());
        assert!(SimRequest::from_json("{\"kernel\":\"x\",\"gpu\":\"h100\"}").is_err());
        assert!(
            SimRequest::from_json("{\"kernel\":\"x\",\"dumps\":[[3,4]]}").is_err(),
            "dump slot must reference a parameter"
        );
    }

    /// A dump must name a buffer at least as long as the dump: a request
    /// the run cannot answer is refused before admission, not after the
    /// simulation by an out-of-bounds read in the worker.
    #[test]
    fn rejects_dumps_the_run_cannot_answer() {
        let with = |params: &str, dumps: &str| {
            SimRequest::from_json(&format!(
                "{{\"kernel\":\"x\",\"params\":{params},\"dumps\":{dumps}}}"
            ))
        };
        let longer = with("[{\"buf\":1}]", "[[0,4096]]").unwrap_err();
        assert!(longer.contains("1-word buffer"), "{longer}");
        let scalar = with("[{\"buf\":8},7]", "[[1,1]]").unwrap_err();
        assert!(scalar.contains("scalar"), "{scalar}");
        assert_eq!(
            with("[{\"buf\":8},7]", "[[0,8]]").unwrap().dumps,
            vec![(0, 8)]
        );
    }

    /// Keys and checksums sit in `DurableStore` logs written by earlier
    /// builds, so the hash must stay FNV-1a/64 (standard test vector).
    #[test]
    fn checksum_is_fnv1a_64() {
        assert_eq!(body_checksum("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn tenant_and_priority_do_not_change_the_key() {
        let a = SimRequest::from_json(&sample_body()).unwrap();
        let mut b = a.clone();
        b.tenant = "other".into();
        b.priority = 0;
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn result_knobs_change_the_key() {
        let a = SimRequest::from_json(&sample_body()).unwrap();
        for mutate in [
            |r: &mut SimRequest| r.ctas = 2,
            |r: &mut SimRequest| r.sched = BasePolicy::Lrr,
            |r: &mut SimRequest| r.chaos_seed = Some(7),
            |r: &mut SimRequest| r.kernel.push(' '),
        ] {
            let mut b = a.clone();
            mutate(&mut b);
            assert_ne!(a.cache_key(), b.cache_key());
        }
    }

    #[test]
    fn run_request_succeeds_and_dumps() {
        let r = SimRequest::from_json(&sample_body()).unwrap();
        match run_request(&r, None) {
            RunOutcome::Ok(body) => {
                let j = Json::parse(&body).unwrap();
                let dumps = j.get("dumps").unwrap();
                let d0 = dumps.get("0").unwrap().as_array("d0").unwrap();
                assert_eq!(d0, &vec![Json::UInt(6); 4], "fill 5 incremented once");
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    /// A spin-lock kernel with enough contention to run past the first
    /// cancellation boundary, so a cancelled run leaves a mid-run snapshot.
    const LOCK_KERNEL: &str = r#"
        .kernel locked_inc
        .regs 10
        .params 2
            ld.param r1, [0]      ; mutex
            ld.param r2, [4]      ; counter
            mov r9, 0             ; done = false
        SPIN:
            atom.global.cas r3, [r1], 0, 1 !acquire !sync
            setp.eq.s32 p1, r3, 0
        @!p1 bra TEST
            ld.global.volatile r4, [r2]
            add r4, r4, 1
            st.global [r2], r4
            membar
            atom.global.exch r5, [r1], 0 !release !sync
            mov r9, 1
        TEST:
            setp.eq.s32 p2, r9, 0 !sync
        @p2 bra SPIN !sib !sync
            exit
    "#;

    fn lock_body() -> String {
        format!(
            "{{\"kernel\":{},\"ctas\":2,\"tpc\":32,\"bows\":\"adaptive\",\
             \"params\":[{{\"buf\":1,\"fill\":0}},{{\"buf\":1,\"fill\":0}}],\
             \"dumps\":[[1,1]]}}",
            crate::json::json_string(LOCK_KERNEL)
        )
    }

    fn expect_ok(out: RunOutcome) -> String {
        match out {
            RunOutcome::Ok(body) => body,
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    /// Fill `slot` as a cancelled attempt does: launch `req` under an
    /// expired deadline, so it stops at its first cancellation boundary
    /// and hands over that boundary's snapshot.
    fn fill_from_cancelled_launch(req: &SimRequest, slot: &mut Option<Vec<u8>>) {
        let mut sink = |_: u64, body: &[u8]| *slot = Some(body.to_vec());
        let ctl = CheckpointCtl {
            every: 0,
            sink: &mut sink,
            resume: None,
        };
        match launch(req, false, Some(Instant::now()), Some(ctl)) {
            Err(LaunchError::Sim(SimError::Cancelled { .. })) => {}
            Err(e) => panic!("expected a cancelled launch, got {e:?}"),
            Ok(_) => panic!("the launch finished before its first boundary"),
        }
        assert!(slot.is_some(), "a cancelled launch left no snapshot");
    }

    #[test]
    fn resumed_run_returns_byte_identical_body() {
        let r = SimRequest::from_json(&lock_body()).unwrap();
        let fresh = expect_ok(run_request(&r, None));

        // An empty slot arms the checkpoint control, which must not
        // perturb a run that is never cancelled.
        let mut slot = None;
        let armed = expect_ok(run_request_resumable(&r, None, Some(&mut slot)));
        assert_eq!(fresh, armed, "the checkpoint control perturbed the run");
        assert!(slot.is_none(), "an uncancelled run wrote the slot");

        // Resume from a cancelled launch's snapshot: same bytes out.
        fill_from_cancelled_launch(&r, &mut slot);
        let resumed = expect_ok(run_request_resumable(&r, None, Some(&mut slot)));
        assert_eq!(fresh, resumed, "resumed body must be byte-identical");
    }

    #[test]
    fn rejected_resume_snapshot_degrades_to_a_fresh_run() {
        // Poison the slot with a snapshot from a *different* request: the
        // fingerprint check rejects it, the slot is cleared, and the run
        // replays from cycle 0 — correct bytes, no error surfaced.
        let lock = SimRequest::from_json(&lock_body()).unwrap();
        let mut slot = None;
        fill_from_cancelled_launch(&lock, &mut slot);

        let vec = SimRequest::from_json(&sample_body()).unwrap();
        let fresh = expect_ok(run_request(&vec, None));
        let recovered = expect_ok(run_request_resumable(&vec, None, Some(&mut slot)));
        assert_eq!(fresh, recovered, "degraded run must still be correct");
        assert!(slot.is_none(), "the rejected snapshot must be discarded");
    }

    #[test]
    fn garbage_resume_snapshot_degrades_to_a_fresh_run() {
        // Structurally broken snapshot bytes (not just a mismatched
        // fingerprint) take the same degradation path: discard, replay.
        let vec = SimRequest::from_json(&sample_body()).unwrap();
        let mut slot = Some(vec![0xAB; 64]);
        let fresh = expect_ok(run_request(&vec, None));
        let recovered = expect_ok(run_request_resumable(&vec, None, Some(&mut slot)));
        assert_eq!(fresh, recovered);
        assert!(slot.is_none());
    }

    #[test]
    fn asm_error_is_a_sim_error_body() {
        let r = SimRequest::from_json("{\"kernel\":\"bogus text\"}").unwrap();
        match run_request(&r, None) {
            RunOutcome::SimError(body) => {
                let j = Json::parse(&body).unwrap();
                let kind = j.get("error").unwrap().get("kind").unwrap().clone();
                assert_eq!(kind, Json::Str("asm_error".into()));
            }
            other => panic!("expected SimError, got {other:?}"),
        }
    }
}
