//! Cooperative cancellation for in-flight simulations.
//!
//! A [`CancelToken`] is handed to a [`crate::Gpu`] before `run` and
//! polled at the top of the run loop on the forward-progress scan's
//! boundaries, so checking costs one relaxed atomic load every couple of
//! thousand simulated cycles and nothing on the per-cycle hot path. A run
//! with a [`crate::CheckpointCtl`] that is cancelled there first hands its
//! sink the snapshot of that boundary, where the machine is between
//! cycles, so the run can be resumed exactly where it stopped. Both
//! consumers of the hook share it:
//!
//! * `bows-run --timeout-wall` arms a token with a wall-clock deadline so
//!   a wedged run exits with a structured timeout (naming that snapshot
//!   when checkpointing is on) instead of hanging, and
//! * the `simt-serve` worker pool arms one per attempt, letting the
//!   supervisor reap workers that blow their deadline without killing
//!   threads; the retry resumes from the cancelled attempt's snapshot.
//!
//! Cancellation is *observational only*: a token never changes how the
//! simulation executes, so runs that complete before the deadline remain
//! bit-identical with or without one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called (supervisor reap, shutdown
    /// drain, client disconnect).
    Requested,
    /// The token's wall-clock deadline passed.
    WallDeadline,
}

impl std::fmt::Display for CancelCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelCause::Requested => write!(f, "cancellation requested"),
            CancelCause::WallDeadline => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable handle that asks a running simulation to stop.
///
/// Cheap to clone (one `Arc`); all clones observe the same state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally fires once `timeout` of wall time passes.
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// The cause to stop with, if the token has fired.
    ///
    /// The flag is checked before the deadline so an explicit
    /// [`CancelToken::cancel`] reports [`CancelCause::Requested`] even
    /// after the deadline has also passed.
    pub fn fired(&self) -> Option<CancelCause> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Some(CancelCause::Requested);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(CancelCause::WallDeadline),
            _ => None,
        }
    }

    /// Time remaining until the wall deadline (`None` when deadline-free).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_quiet() {
        let t = CancelToken::new();
        assert_eq!(t.fired(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_fires_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert_eq!(c.fired(), Some(CancelCause::Requested));
    }

    #[test]
    fn elapsed_deadline_fires() {
        let t = CancelToken::with_deadline(Duration::from_secs(0));
        assert_eq!(t.fired(), Some(CancelCause::WallDeadline));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::with_deadline(Duration::from_secs(0));
        t.cancel();
        assert_eq!(t.fired(), Some(CancelCause::Requested));
    }

    #[test]
    fn future_deadline_is_quiet() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.fired(), None);
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }
}
