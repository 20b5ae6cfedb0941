//! Service-level chaos: seeded fault injection for the serving plane.
//!
//! The simulator already has a *memory* chaos plane (`simt_mem::chaos`)
//! that perturbs the simulated hardware. This one attacks the service
//! around it — the part a paper never stresses but an artifact server
//! lives or dies by:
//!
//! * **worker panics** — an attempt aborts as if the simulator crashed,
//! * **worker slowness** — an attempt stalls past its deadline,
//! * **cache corruption** — a stored response body is bit-flipped.
//!
//! Decisions are a pure function of `(seed, job id, attempt)` via
//! splitmix64, so a chaos run is reproducible regardless of thread
//! interleaving, and a retry of the same job sees fresh (but still
//! deterministic) coin flips — which is what lets the retry path actually
//! recover.

/// splitmix64: the same mixer the memory chaos plane and the experiment
/// harness use for seed derivation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Chaos plan for the serving plane. All rates are parts-per-million per
/// *attempt* (or per insert, for cache corruption and the persistence
/// faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceChaos {
    /// Seed of the decision stream (same seed ⇒ same faults).
    pub seed: u64,
    /// Probability an attempt panics mid-simulation.
    pub worker_panic_ppm: u32,
    /// Probability an attempt stalls for `slow_ms` before simulating.
    pub worker_slow_ppm: u32,
    /// Stall duration for a slow attempt, milliseconds.
    pub slow_ms: u64,
    /// Probability a freshly inserted cache entry is corrupted.
    pub cache_corrupt_ppm: u32,
    /// Probability a durable-store append is torn mid-record (only the
    /// first half of the record reaches the log, as if the process died
    /// between `write` and `fsync`).
    pub store_torn_ppm: u32,
    /// Probability a durable-store append loses its final byte (a short
    /// write the file system acknowledged anyway).
    pub store_short_ppm: u32,
    /// Probability one bit of a durable-store record flips on its way to
    /// the log (silent media corruption).
    pub store_flip_ppm: u32,
}

/// One persistence-path fault, chosen deterministically per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Write the record intact.
    None,
    /// Write only the first half of the record.
    Torn,
    /// Drop the record's last byte.
    Short,
    /// Flip one payload bit (the record checksum no longer matches).
    BitFlip,
}

impl ServiceChaos {
    /// No faults.
    pub fn off() -> ServiceChaos {
        ServiceChaos {
            seed: 0,
            worker_panic_ppm: 0,
            worker_slow_ppm: 0,
            slow_ms: 0,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        }
    }

    /// True when any fault rate is nonzero.
    pub fn enabled(&self) -> bool {
        self.worker_panic_ppm > 0
            || self.worker_slow_ppm > 0
            || self.cache_corrupt_ppm > 0
            || self.store_torn_ppm > 0
            || self.store_short_ppm > 0
            || self.store_flip_ppm > 0
    }

    fn roll(&self, salt: u64, job: u64, attempt: u32, ppm: u32) -> bool {
        if ppm == 0 {
            return false;
        }
        let x = splitmix64(
            self.seed ^ salt ^ job.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((attempt as u64) << 48),
        );
        (x % 1_000_000) < ppm as u64
    }

    /// Should this attempt panic?
    pub fn panic_attempt(&self, job: u64, attempt: u32) -> bool {
        self.roll(0x0070_616e_6963, job, attempt, self.worker_panic_ppm)
    }

    /// Should this attempt stall past its deadline?
    pub fn slow_attempt(&self, job: u64, attempt: u32) -> bool {
        self.roll(0x736c_6f77, job, attempt, self.worker_slow_ppm)
    }

    /// Should this cache insert be corrupted?
    pub fn corrupt_insert(&self, job: u64) -> bool {
        self.roll(0x636f_7272, job, 0, self.cache_corrupt_ppm)
    }

    /// Which persistence fault (if any) hits this job's durable-store
    /// append. At most one fires; torn wins over short wins over bit-flip
    /// so overlapping rates stay deterministic.
    pub fn store_fault(&self, job: u64) -> StoreFault {
        if self.roll(0x746f_726e, job, 0, self.store_torn_ppm) {
            StoreFault::Torn
        } else if self.roll(0x7368_7274, job, 0, self.store_short_ppm) {
            StoreFault::Short
        } else if self.roll(0x666c_6970, job, 0, self.store_flip_ppm) {
            StoreFault::BitFlip
        } else {
            StoreFault::None
        }
    }
}

impl Default for ServiceChaos {
    fn default() -> ServiceChaos {
        ServiceChaos::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_never_fires() {
        let c = ServiceChaos::off();
        assert!(!c.enabled());
        for job in 0..100 {
            assert!(!c.panic_attempt(job, 0));
            assert!(!c.slow_attempt(job, 0));
            assert!(!c.corrupt_insert(job));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_dependent() {
        let c = ServiceChaos {
            seed: 42,
            worker_panic_ppm: 500_000,
            worker_slow_ppm: 500_000,
            slow_ms: 1,
            cache_corrupt_ppm: 500_000,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let d = c; // Copy
        let mut differs_by_attempt = false;
        for job in 0..64 {
            for attempt in 0..4 {
                assert_eq!(c.panic_attempt(job, attempt), d.panic_attempt(job, attempt));
            }
            if c.panic_attempt(job, 0) != c.panic_attempt(job, 1) {
                differs_by_attempt = true;
            }
        }
        assert!(differs_by_attempt, "retries must see fresh coin flips");
    }

    #[test]
    fn rate_is_roughly_honored() {
        let c = ServiceChaos {
            seed: 7,
            worker_panic_ppm: 250_000, // 25%
            worker_slow_ppm: 0,
            slow_ms: 0,
            cache_corrupt_ppm: 0,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        };
        let fired = (0..10_000).filter(|&j| c.panic_attempt(j, 0)).count();
        assert!((1_500..3_500).contains(&fired), "got {fired} / 10000");
    }

    #[test]
    fn store_faults_are_deterministic_and_exclusive() {
        let c = ServiceChaos {
            store_torn_ppm: 400_000,
            store_short_ppm: 400_000,
            store_flip_ppm: 400_000,
            ..ServiceChaos::off()
        };
        let mut seen = [false; 4];
        for job in 0..1_000 {
            let f = c.store_fault(job);
            assert_eq!(f, c.store_fault(job), "same job, same fault");
            seen[match f {
                StoreFault::None => 0,
                StoreFault::Torn => 1,
                StoreFault::Short => 2,
                StoreFault::BitFlip => 3,
            }] = true;
        }
        assert!(seen.iter().all(|&s| s), "all faults occur at these rates");
        assert_eq!(ServiceChaos::off().store_fault(7), StoreFault::None);
    }
}
