//! Run options and the timed-pass loop every workload shares.

use crate::stats;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    /// Drives `serve_mix`'s request parameters and the order simulator
    /// cells run in; the simulator corpora themselves are fixed.
    pub seed: u64,
    /// The timed phase repeats fixed-size passes until it has lasted this
    /// long (and the workload's minimum of passes have run).
    pub seconds: f64,
    /// Per-layer run: spans and `GpuConfig::profile` on.
    pub trace: bool,
    /// Tiny scale, one pass: proves the harness and the correctness gate.
    pub smoke: bool,
    /// Scratch and trace output (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// Two timings agree when the slower is within this share of the faster.
pub const AGREE: f64 = 0.03;

/// Set-ups measured per run, so `setup_s` is a median and not one sample.
pub const SETUP_SAMPLES: usize = 9;

/// Everything a workload does before it can time a pass is its set-up:
/// building inputs, starting servers, the warm-up. `setup` runs
/// [`SETUP_SAMPLES`] times at least — once before each pass, the rest up
/// front with the result handed to `discard` — and `setup_s` is the median. Passes
/// repeat until `min_passes` have run and `opts.seconds` have gone by
/// (a smoke run makes one). Returns the median set-up and the passes.
///
/// # Errors
///
/// The first error of `setup`, `discard` or `pass`.
pub fn timed_passes<S, P>(
    opts: &Opts,
    min_passes: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut discard: impl FnMut(S) -> Result<(), String>,
    mut pass: impl FnMut(S) -> Result<P, String>,
) -> Result<(f64, Vec<P>), String> {
    let mut setup_s = Vec::new();
    let mut timed_setup = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let s = setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok::<S, String>(s)
    };
    let (min_passes, extra) = if opts.smoke {
        (1, 0)
    } else {
        (min_passes, SETUP_SAMPLES.saturating_sub(min_passes))
    };
    for _ in 0..extra {
        discard(timed_setup(&mut setup_s)?)?;
    }
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < opts.seconds {
        let s = timed_setup(&mut setup_s)?;
        passes.push(pass(s)?);
    }
    Ok((stats::median(&setup_s)?, passes))
}
