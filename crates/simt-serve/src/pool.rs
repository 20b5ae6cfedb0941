//! Supervised execution: panic isolation, a wall deadline per attempt,
//! and retry.
//!
//! Each attempt of a job runs on the calling worker thread behind
//! `catch_unwind`, so a panicking simulation (a simulator bug, or the
//! chaos injector) kills the *attempt*, never the worker. The attempt's
//! wall deadline is handed to the simulator, which compares it with the
//! clock at forward-progress scans, so a live-but-slow run exits with
//! `SimError::Cancelled`, leaving the snapshot of the cycle it stopped at
//! for the retry to resume from.
//!
//! Panics and timeouts are retried at once, up to a retry budget: the
//! retry runs the same deterministic simulator on the same worker, so
//! waiting first would free nothing. Deterministic simulation failures
//! (deadlock, device fault, cycle limit) are **not** retried — re-running
//! a bit-exact simulator reproduces them bit-exactly — and are returned as
//! structured errors instead.

use crate::chaos::ServiceChaos;
use crate::request::{run_request_resumable, RunOutcome, SimRequest};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Supervision knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Retries after the first attempt (total attempts = `max_retries`+1).
    pub max_retries: u32,
    /// Per-attempt wall deadline, milliseconds.
    pub attempt_deadline_ms: u64,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            max_retries: 2,
            attempt_deadline_ms: 10_000,
        }
    }
}

/// Failure-path counters, shared across workers.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Attempts that panicked (caught).
    pub panics: AtomicU64,
    /// Attempts stopped by their wall deadline.
    pub timeouts: AtomicU64,
    /// Retry attempts started.
    pub retries: AtomicU64,
    /// Retry attempts that resumed from the snapshot a cancelled attempt
    /// left at the cycle it stopped at.
    pub resumed: AtomicU64,
}

/// Terminal result of a supervised job.
#[derive(Debug)]
pub enum JobResult {
    /// Success body.
    Ok(String),
    /// Deterministic simulation failure: structured error body, no retry.
    SimError(String),
    /// Deadline exhausted on every attempt.
    TimedOut,
    /// Panicked on every attempt.
    Crashed,
}

/// Marker prefix on chaos-injected panics so binaries can install a quiet
/// panic hook that hides expected noise but keeps real panics loud.
pub const CHAOS_PANIC_PREFIX: &str = "chaos: ";

/// Install a process-wide panic hook that silences panics whose payload
/// starts with [`CHAOS_PANIC_PREFIX`] (they are part of a chaos drill) and
/// defers to the default hook for everything else.
pub fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|s| s.starts_with(CHAOS_PANIC_PREFIX));
        if !injected {
            default(info);
        }
    }));
}

/// Run one job to a terminal result under the supervision policy.
///
/// `job_id` keys the chaos decision stream, so a fixed (chaos seed, job
/// id) replays the same fault schedule.
pub fn execute_supervised(
    req: &SimRequest,
    job_id: u64,
    cfg: &PoolConfig,
    chaos: &ServiceChaos,
    counters: &PoolCounters,
) -> JobResult {
    let mut last_failure_was_panic = false;
    // One checkpoint slot for the whole job: a cancelled attempt leaves
    // the snapshot of the cycle it stopped at here, and the next attempt
    // resumes from it. A panicking attempt leaves none; chaos panics fire
    // before the run starts, and a simulator panic would repeat on replay,
    // so nothing is lost by starting over.
    let mut slot = None;
    for attempt in 0..=cfg.max_retries {
        if attempt > 0 {
            counters.retries.fetch_add(1, Ordering::Relaxed);
            if slot.is_some() {
                counters.resumed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let deadline = Instant::now() + Duration::from_millis(cfg.attempt_deadline_ms);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if chaos.slow_attempt(job_id, attempt) {
                std::thread::sleep(Duration::from_millis(chaos.slow_ms));
            }
            if chaos.panic_attempt(job_id, attempt) {
                panic!("{CHAOS_PANIC_PREFIX}injected worker panic (job {job_id})");
            }
            run_request_resumable(req, Some(deadline), Some(&mut slot))
        }));
        match outcome {
            Ok(RunOutcome::Ok(body)) => return JobResult::Ok(body),
            Ok(RunOutcome::SimError(body)) => return JobResult::SimError(body),
            Ok(RunOutcome::Cancelled) => {
                counters.timeouts.fetch_add(1, Ordering::Relaxed);
                last_failure_was_panic = false;
            }
            Err(_panic) => {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                last_failure_was_panic = true;
            }
        }
    }
    if last_failure_was_panic {
        JobResult::Crashed
    } else {
        JobResult::TimedOut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_request() -> SimRequest {
        SimRequest::from_json(
            r#"{"kernel":".kernel t\n.regs 4\n    mov r1, 1\n    exit\n","tpc":32}"#,
        )
        .unwrap()
    }

    fn pool_cfg() -> PoolConfig {
        PoolConfig {
            max_retries: 2,
            attempt_deadline_ms: 5_000,
        }
    }

    /// Find a job id whose chaos schedule fails attempt 0 but not 1.
    fn job_failing_only_first(chaos: &ServiceChaos) -> u64 {
        (0..10_000)
            .find(|&j| chaos.panic_attempt(j, 0) && !chaos.panic_attempt(j, 1))
            .expect("some job fails only its first attempt")
    }

    #[test]
    fn clean_job_succeeds_first_try() {
        let counters = PoolCounters::default();
        let r = execute_supervised(
            &tiny_request(),
            1,
            &pool_cfg(),
            &ServiceChaos::off(),
            &counters,
        );
        assert!(matches!(r, JobResult::Ok(_)));
        assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panicked_attempt_is_retried_to_success() {
        install_quiet_panic_hook();
        let chaos = ServiceChaos {
            seed: 3,
            worker_panic_ppm: 300_000,
            worker_slow_ppm: 0,
            slow_ms: 0,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let job = job_failing_only_first(&chaos);
        let counters = PoolCounters::default();
        let r = execute_supervised(&tiny_request(), job, &pool_cfg(), &chaos, &counters);
        assert!(matches!(r, JobResult::Ok(_)), "got {r:?}");
        assert_eq!(counters.panics.load(Ordering::Relaxed), 1);
        assert_eq!(counters.retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn always_panicking_job_crashes_structurally() {
        install_quiet_panic_hook();
        let chaos = ServiceChaos {
            seed: 3,
            worker_panic_ppm: 1_000_000,
            worker_slow_ppm: 0,
            slow_ms: 0,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let counters = PoolCounters::default();
        let r = execute_supervised(&tiny_request(), 9, &pool_cfg(), &chaos, &counters);
        assert!(matches!(r, JobResult::Crashed), "got {r:?}");
        assert_eq!(
            counters.panics.load(Ordering::Relaxed),
            3,
            "all attempts panicked"
        );
    }

    #[test]
    fn slow_attempt_times_out_and_recovers() {
        // Slowness (100ms) past the attempt deadline (20ms): the attempt
        // wakes, sees its passed deadline, and exits; the retry is not
        // slowed and succeeds.
        let chaos = ServiceChaos {
            seed: 11,
            worker_panic_ppm: 0,
            worker_slow_ppm: 300_000,
            slow_ms: 100,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let job = (0..10_000)
            .find(|&j| chaos.slow_attempt(j, 0) && !chaos.slow_attempt(j, 1))
            .unwrap();
        let cfg = PoolConfig {
            attempt_deadline_ms: 20,
            ..pool_cfg()
        };
        let counters = PoolCounters::default();
        let r = execute_supervised(&tiny_request(), job, &cfg, &chaos, &counters);
        assert!(matches!(r, JobResult::Ok(_)), "got {r:?}");
        assert_eq!(counters.timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(counters.retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn deterministic_sim_error_is_not_retried() {
        // A kernel that always deadlocks: one structured error, no retries.
        let req = SimRequest::from_json(
            r#"{"kernel":".kernel stuck\n.regs 8\n.params 1\n    ld.param r1, [0]\ntop:\n    ld.global.volatile r2, [r1]\n    setp.eq.s32 p1, r2, 0\n@p1 bra top\n    exit\n","tpc":32,"params":[{"buf":1}],"timeout_cycles":50000}"#,
        )
        .unwrap();
        let counters = PoolCounters::default();
        let r = execute_supervised(&req, 5, &pool_cfg(), &ServiceChaos::off(), &counters);
        match r {
            JobResult::SimError(body) => {
                assert!(body.contains("\"kind\""), "structured: {body}");
            }
            other => panic!("expected SimError, got {other:?}"),
        }
        assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
    }
}
