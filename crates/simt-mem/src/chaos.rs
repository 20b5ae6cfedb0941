//! Deterministic fault injection ("chaos") for the memory hierarchy.
//!
//! The paper's central claim is that fine-grained synchronization makes
//! GPUs fragile: spin loops, SIMT-induced deadlock, and scheduler-driven
//! livelock are all *timing*-dependent failure modes. This module perturbs
//! memory timing — never functional values — so tests can prove that
//! BOWS/DDOS results are robust to latency variation and that hangs are
//! diagnosed rather than silently timing out:
//!
//! * extra DRAM/L2 request latency,
//! * NACK-and-retry of partition requests with capped exponential backoff,
//! * delayed atomic completions (the response, never the serialized
//!   read-modify-write itself, so architectural results are unchanged),
//! * transient MSHR-full back-pressure at the L1s.
//!
//! All perturbations are driven by a seeded splitmix64 stream drawn in
//! simulation order, so a given `(seed, workload)` pair is bit-identical
//! across runs. With [`ChaosConfig::off`] (the default) the engine draws
//! **zero** random numbers and injects nothing: baseline simulations are
//! bit-identical to a build without the chaos layer.

use simt_snap::{Snap, SnapReader, SnapWriter, SnapshotError};

/// Probability scale: knobs are expressed in parts-per-million.
const PPM: u64 = 1_000_000;

/// Fault-injection configuration. The default ([`ChaosConfig::off`])
/// disables every perturbation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the deterministic perturbation stream.
    pub seed: u64,
    /// Probability (ppm) that a request entering the memory system is
    /// charged extra interconnect/queueing latency.
    pub latency_ppm: u32,
    /// Maximum extra latency per injection, cycles (uniform in `1..=max`).
    pub max_extra_latency: u64,
    /// Probability (ppm) that an L2 partition NACKs a request at service,
    /// forcing a retry after an exponential backoff.
    pub nack_ppm: u32,
    /// Retries after which a request can no longer be NACKed (caps the
    /// worst-case delay and guarantees forward progress).
    pub max_nacks: u32,
    /// Backoff delay of the first retry, cycles; doubles per retry.
    pub nack_backoff_base: u64,
    /// Probability (ppm) that an atomic's *response* is delayed after its
    /// lane ops have been applied at the serialization point.
    pub atomic_delay_ppm: u32,
    /// Maximum atomic response delay, cycles (uniform in `1..=max`).
    pub max_atomic_delay: u64,
    /// Probability (ppm), per SM per cycle with L1 work pending, that the
    /// L1 pretends its MSHRs are full and stalls its input queue.
    pub mshr_squeeze_ppm: u32,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig::off()
    }
}

impl ChaosConfig {
    /// No fault injection (the default): zero draws, bit-identical
    /// baseline.
    pub fn off() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            latency_ppm: 0,
            max_extra_latency: 0,
            nack_ppm: 0,
            max_nacks: 0,
            nack_backoff_base: 0,
            atomic_delay_ppm: 0,
            max_atomic_delay: 0,
            mshr_squeeze_ppm: 0,
        }
    }

    /// Preset intensities for the `--chaos-level` CLI flag:
    /// 0 = off, 1 = mild latency jitter, 2 = latency + NACKs + delayed
    /// atomics, 3 = aggressive everything (including MSHR squeezes).
    pub fn with_level(seed: u64, level: u8) -> ChaosConfig {
        match level {
            0 => ChaosConfig::off(),
            1 => ChaosConfig {
                seed,
                latency_ppm: 20_000, // 2% of requests
                max_extra_latency: 64,
                ..ChaosConfig::off()
            },
            2 => ChaosConfig {
                seed,
                latency_ppm: 50_000, // 5%
                max_extra_latency: 128,
                nack_ppm: 10_000, // 1%
                max_nacks: 3,
                nack_backoff_base: 16,
                atomic_delay_ppm: 20_000,
                max_atomic_delay: 96,
                ..ChaosConfig::off()
            },
            _ => ChaosConfig {
                seed,
                latency_ppm: 120_000, // 12%
                max_extra_latency: 256,
                nack_ppm: 40_000, // 4%
                max_nacks: 4,
                nack_backoff_base: 32,
                atomic_delay_ppm: 60_000,
                max_atomic_delay: 256,
                mshr_squeeze_ppm: 15_000,
            },
        }
    }

    /// True when any perturbation can fire.
    pub fn enabled(&self) -> bool {
        self.latency_ppm != 0
            || self.nack_ppm != 0
            || self.atomic_delay_ppm != 0
            || self.mshr_squeeze_ppm != 0
    }
}

/// Counters of injected faults, for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Requests charged extra latency.
    pub latency_injections: u64,
    /// Total extra cycles charged.
    pub extra_latency_cycles: u64,
    /// Partition NACKs issued.
    pub nacks: u64,
    /// Atomic responses delayed.
    pub atomic_delays: u64,
    /// L1 cycles stalled by a fake MSHR-full condition.
    pub mshr_squeezes: u64,
}

/// The seeded fault injector. One instance lives inside
/// [`crate::MemorySystem`]; every decision consumes the deterministic
/// stream in simulation order.
#[derive(Debug, Clone)]
pub struct ChaosEngine {
    cfg: ChaosConfig,
    state: u64,
    enabled: bool,
    stats: ChaosStats,
}

impl ChaosEngine {
    /// Build an engine; disabled configs never draw from the stream.
    pub fn new(cfg: ChaosConfig) -> ChaosEngine {
        let enabled = cfg.enabled();
        ChaosEngine {
            state: cfg.seed,
            cfg,
            enabled,
            stats: ChaosStats::default(),
        }
    }

    /// True when any perturbation can fire.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Injection counters so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// splitmix64 step.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Bernoulli draw at `ppm` parts-per-million; `ppm == 0` draws nothing.
    fn roll(&mut self, ppm: u32) -> bool {
        ppm != 0 && self.next() % PPM < u64::from(ppm)
    }

    /// Extra latency to charge a request entering the memory system.
    pub fn extra_request_latency(&mut self) -> u64 {
        if !self.enabled || !self.roll(self.cfg.latency_ppm) {
            return 0;
        }
        let extra = 1 + self.next() % self.cfg.max_extra_latency.max(1);
        self.stats.latency_injections += 1;
        self.stats.extra_latency_cycles += extra;
        extra
    }

    /// Decide whether a partition NACKs a request that has already been
    /// retried `retries` times. Returns the backoff delay before the retry
    /// re-arbitrates; `None` means "service normally". The delay grows
    /// exponentially (base << retries) and the retry count is capped so a
    /// request can never be starved indefinitely by the injector itself.
    pub fn nack_delay(&mut self, retries: u32) -> Option<u64> {
        if !self.enabled || retries >= self.cfg.max_nacks || !self.roll(self.cfg.nack_ppm) {
            return None;
        }
        self.stats.nacks += 1;
        let shift = retries.min(5);
        Some(self.cfg.nack_backoff_base.max(1) << shift)
    }

    /// Extra delay for an atomic response (after its ops were applied).
    pub fn atomic_delay(&mut self) -> u64 {
        if !self.enabled || !self.roll(self.cfg.atomic_delay_ppm) {
            return 0;
        }
        let extra = 1 + self.next() % self.cfg.max_atomic_delay.max(1);
        self.stats.atomic_delays += 1;
        extra
    }

    /// Whether an L1 with pending work should pretend its MSHRs are full
    /// this cycle.
    pub fn mshr_squeeze(&mut self) -> bool {
        if !self.enabled || !self.roll(self.cfg.mshr_squeeze_ppm) {
            return false;
        }
        self.stats.mshr_squeezes += 1;
        true
    }

    /// Whether [`ChaosEngine::mshr_squeeze`] can ever consume an RNG draw.
    /// When true, any cycle with a non-empty L1 queue rolls the dice, so
    /// the fast-forward engine must not skip such cycles (a skipped roll
    /// would desynchronize the deterministic chaos stream). When the
    /// squeeze probability is zero, `roll` short-circuits before drawing
    /// and skipping is safe.
    pub fn squeeze_possible(&self) -> bool {
        self.enabled && self.cfg.mshr_squeeze_ppm != 0
    }

    /// Serialize the stream identity, position and injection counters.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        self.cfg.seed.save(w);
        self.save_fields(w);
    }

    /// Restore the stream written by [`ChaosEngine::save`]. The config (and
    /// therefore `enabled`) comes from construction — resuming under a
    /// different chaos config would silently change the fault schedule, so
    /// the seed on the wire is cross-checked first.
    pub(crate) fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let seed = u64::load(r)?;
        if seed != self.cfg.seed {
            return Err(SnapshotError::malformed(format!(
                "chaos seed mismatch: snapshot {seed}, config {}",
                self.cfg.seed
            )));
        }
        self.load_fields(r)
    }
}

simt_snap::snap_struct!(ChaosStats {
    latency_injections: u64,
    extra_latency_cycles: u64,
    nacks: u64,
    atomic_delays: u64,
    mshr_squeezes: u64,
});

simt_snap::snap_struct!(state ChaosEngine { state: u64, stats: ChaosStats });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_round_trips_and_seed_is_cross_checked() {
        simt_snap::assert_snap_laws(&ChaosStats::default());
        let cfg = ChaosConfig::with_level(42, 3);
        let mut a = ChaosEngine::new(cfg.clone());
        for _ in 0..100 {
            a.extra_request_latency();
            a.nack_delay(0);
        }
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let body = w.into_bytes();
        let mut b = ChaosEngine::new(cfg);
        b.restore(&mut SnapReader::new(&body)).unwrap();
        assert_eq!((b.state, b.stats), (a.state, a.stats));
        assert_eq!(a.extra_request_latency(), b.extra_request_latency());
        let mut other = ChaosEngine::new(ChaosConfig::with_level(43, 3));
        let err = other.restore(&mut SnapReader::new(&body)).unwrap_err();
        assert!(err.to_string().contains("chaos seed mismatch"), "{err}");
        for cut in 0..body.len() {
            let mut c = ChaosEngine::new(ChaosConfig::with_level(42, 3));
            assert!(
                c.restore(&mut SnapReader::new(&body[..cut])).is_err(),
                "prefix {cut}"
            );
        }
    }

    #[test]
    fn off_engine_never_injects_or_draws() {
        let mut e = ChaosEngine::new(ChaosConfig::off());
        assert!(!e.enabled());
        for _ in 0..1000 {
            assert_eq!(e.extra_request_latency(), 0);
            assert_eq!(e.nack_delay(0), None);
            assert_eq!(e.atomic_delay(), 0);
            assert!(!e.mshr_squeeze());
        }
        assert_eq!(e.state, ChaosConfig::off().seed, "no draws when off");
        assert_eq!(*e.stats(), ChaosStats::default());
    }

    #[test]
    fn same_seed_same_stream() {
        let cfg = ChaosConfig::with_level(42, 3);
        let mut a = ChaosEngine::new(cfg.clone());
        let mut b = ChaosEngine::new(cfg);
        for i in 0..5000 {
            assert_eq!(a.extra_request_latency(), b.extra_request_latency(), "{i}");
            assert_eq!(a.nack_delay(i % 5), b.nack_delay(i % 5), "{i}");
            assert_eq!(a.atomic_delay(), b.atomic_delay(), "{i}");
            assert_eq!(a.mshr_squeeze(), b.mshr_squeeze(), "{i}");
        }
        assert_eq!(*a.stats(), *b.stats());
    }

    #[test]
    fn level_presets_inject_at_roughly_configured_rates() {
        let mut e = ChaosEngine::new(ChaosConfig::with_level(7, 2));
        let n = 100_000;
        for _ in 0..n {
            e.extra_request_latency();
        }
        let hits = e.stats().latency_injections;
        // 5% nominal; allow a generous band.
        assert!((3 * n / 100..7 * n / 100).contains(&hits), "{hits}");
    }

    #[test]
    fn nack_backoff_grows_and_caps() {
        let cfg = ChaosConfig {
            nack_ppm: PPM as u32, // always NACK until the cap
            max_nacks: 3,
            nack_backoff_base: 16,
            ..ChaosConfig::with_level(1, 1)
        };
        let mut e = ChaosEngine::new(cfg);
        assert_eq!(e.nack_delay(0), Some(16));
        assert_eq!(e.nack_delay(1), Some(32));
        assert_eq!(e.nack_delay(2), Some(64));
        assert_eq!(e.nack_delay(3), None, "retry cap reached");
        assert_eq!(e.nack_delay(100), None);
        assert_eq!(e.stats().nacks, 3);
    }
}
