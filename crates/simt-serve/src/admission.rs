//! Admission control: bounded priority queues, per-tenant quotas, and
//! load-aware shedding.
//!
//! The goal is the service SLO shape: when offered load exceeds capacity,
//! excess requests get a *fast, structured* rejection (429/503 with a
//! `Retry-After` hint) instead of queueing toward timeout. Three gates, in
//! order:
//!
//! 1. **drain** — a draining service admits nothing new;
//! 2. **tenant quota** — one tenant cannot occupy more than its share of
//!    queue + in-flight slots (429);
//! 3. **queue bound & wait estimate** — a full queue, or an estimated
//!    queue wait beyond the configured bound (EWMA of recent service
//!    times × backlog ÷ workers), sheds with 503.
//!
//! The queue itself is three FIFOs, popped highest-priority-first, so
//! priority-0 work overtakes background batches without starving them
//! mid-flight (quota still bounds each tenant).

use std::collections::{HashMap, VecDeque};

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Service is draining: retry against a replica, not here.
    Draining,
    /// The tenant is at its quota of queued + in-flight requests.
    TenantQuota {
        /// Suggested client back-off, seconds.
        retry_after_s: u64,
    },
    /// Queue full or estimated wait over bound.
    Overloaded {
        /// Suggested client back-off, seconds.
        retry_after_s: u64,
    },
}

/// Admission configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum queued jobs across all priorities.
    pub queue_cap: usize,
    /// Maximum queued + in-flight jobs per tenant.
    pub tenant_quota: usize,
    /// Shed when `backlog × ewma_service_ms ÷ workers` exceeds this.
    pub max_queue_wait_ms: u64,
    /// Worker count (the denominator of the wait estimate).
    pub workers: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            queue_cap: 64,
            tenant_quota: 16,
            max_queue_wait_ms: 10_000,
            workers: 4,
        }
    }
}

/// A queued job ticket.
#[derive(Debug)]
pub struct Ticket<T> {
    /// Tenant owning the slot (released on completion).
    pub tenant: String,
    /// The payload.
    pub job: T,
}

/// The admission queue. Not internally synchronized — the service wraps it
/// in its own mutex beside the condvar workers sleep on.
pub struct Admission<T> {
    cfg: AdmissionConfig,
    queues: [VecDeque<Ticket<T>>; 3],
    /// Queued + in-flight per tenant.
    occupancy: HashMap<String, usize>,
    /// EWMA of completed-job service time, milliseconds (α = 1/8).
    ewma_service_ms: u64,
    draining: bool,
    admitted: u64,
    shed_quota: u64,
    shed_overload: u64,
}

impl<T> Admission<T> {
    pub fn new(cfg: AdmissionConfig) -> Admission<T> {
        Admission {
            cfg,
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            occupancy: HashMap::new(),
            ewma_service_ms: 50,
            draining: false,
            admitted: 0,
            shed_quota: 0,
            shed_overload: 0,
        }
    }

    /// Total queued jobs.
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Estimated wait for a newly queued job, milliseconds.
    pub fn estimated_wait_ms(&self) -> u64 {
        let per_worker = (self.backlog() as u64).div_ceil(self.cfg.workers.max(1) as u64);
        per_worker * self.ewma_service_ms
    }

    fn retry_after_s(&self) -> u64 {
        // At least one second; otherwise the time to drain half the queue.
        (self.estimated_wait_ms() / 2 / 1000).max(1)
    }

    /// Try to admit a job. On success the tenant's occupancy is charged
    /// until [`Admission::release`].
    pub fn offer(&mut self, tenant: &str, priority: u8, job: T) -> Result<(), Refusal> {
        if self.draining {
            return Err(Refusal::Draining);
        }
        let occ = self.occupancy.get(tenant).copied().unwrap_or(0);
        if occ >= self.cfg.tenant_quota {
            self.shed_quota += 1;
            return Err(Refusal::TenantQuota {
                retry_after_s: self.retry_after_s(),
            });
        }
        // Project the wait as if this job were already queued: shedding is
        // about the experience the *candidate* would get, not the queue's
        // current residents.
        let projected_wait_ms = (self.backlog() as u64 + 1)
            .div_ceil(self.cfg.workers.max(1) as u64)
            * self.ewma_service_ms;
        if self.backlog() >= self.cfg.queue_cap || projected_wait_ms > self.cfg.max_queue_wait_ms {
            self.shed_overload += 1;
            return Err(Refusal::Overloaded {
                retry_after_s: self.retry_after_s(),
            });
        }
        *self.occupancy.entry(tenant.to_string()).or_insert(0) += 1;
        self.admitted += 1;
        self.queues[priority.min(2) as usize].push_back(Ticket {
            tenant: tenant.to_string(),
            job,
        });
        Ok(())
    }

    /// Pop the highest-priority queued job, if any. The tenant stays
    /// charged while the job is in flight.
    pub fn take(&mut self) -> Option<Ticket<T>> {
        self.queues.iter_mut().find_map(VecDeque::pop_front)
    }

    /// A job finished (however it ended): release the tenant slot and feed
    /// the service-time EWMA.
    pub fn release(&mut self, tenant: &str, service_ms: u64) {
        if let Some(n) = self.occupancy.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.occupancy.remove(tenant);
            }
        }
        self.ewma_service_ms = (self.ewma_service_ms * 7 + service_ms) / 8;
    }

    /// Enter drain: refuse new work; queued work still drains.
    pub fn start_drain(&mut self) {
        self.draining = true;
    }

    /// True once draining was requested.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// `(admitted, shed_quota, shed_overload)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.admitted, self.shed_quota, self.shed_overload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(queue_cap: usize, tenant_quota: usize) -> AdmissionConfig {
        AdmissionConfig {
            queue_cap,
            tenant_quota,
            max_queue_wait_ms: u64::MAX,
            workers: 2,
        }
    }

    #[test]
    fn fifo_within_priority_and_priority_order_across() {
        let mut a: Admission<u32> = Admission::new(cfg(16, 16));
        a.offer("t", 1, 10).unwrap();
        a.offer("t", 2, 20).unwrap();
        a.offer("t", 0, 0).unwrap();
        a.offer("t", 1, 11).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| a.take().map(|t| t.job)).collect();
        assert_eq!(order, vec![0, 10, 11, 20]);
    }

    #[test]
    fn tenant_quota_sheds_with_429() {
        let mut a: Admission<()> = Admission::new(cfg(16, 2));
        a.offer("small", 1, ()).unwrap();
        a.offer("small", 1, ()).unwrap();
        assert!(matches!(
            a.offer("small", 1, ()),
            Err(Refusal::TenantQuota { retry_after_s }) if retry_after_s >= 1
        ));
        // Another tenant is unaffected.
        a.offer("other", 1, ()).unwrap();
        // Releasing an in-flight job frees the slot.
        let t = a.take().unwrap();
        a.release(&t.tenant, 10);
        a.offer("small", 1, ()).unwrap();
    }

    #[test]
    fn full_queue_sheds_with_503() {
        let mut a: Admission<()> = Admission::new(cfg(2, 16));
        a.offer("t", 1, ()).unwrap();
        a.offer("t", 1, ()).unwrap();
        assert!(matches!(
            a.offer("t", 1, ()),
            Err(Refusal::Overloaded { .. })
        ));
        let (admitted, _, overload) = a.stats();
        assert_eq!((admitted, overload), (2, 1));
    }

    #[test]
    fn wait_estimate_sheds_before_the_queue_fills() {
        let mut a: Admission<()> = Admission::new(AdmissionConfig {
            queue_cap: 1000,
            tenant_quota: 1000,
            max_queue_wait_ms: 100,
            workers: 1,
        });
        // EWMA starts at 50ms; by the third queued job the estimated wait
        // (3 × 50ms) exceeds the 100ms bound.
        a.offer("t", 1, ()).unwrap();
        a.offer("t", 1, ()).unwrap();
        assert!(matches!(
            a.offer("t", 1, ()),
            Err(Refusal::Overloaded { .. })
        ));
    }

    #[test]
    fn drain_refuses_everything_but_queue_still_drains() {
        let mut a: Admission<u32> = Admission::new(cfg(16, 16));
        a.offer("t", 1, 1).unwrap();
        a.start_drain();
        assert!(matches!(a.offer("t", 1, 2), Err(Refusal::Draining)));
        assert_eq!(a.take().map(|t| t.job), Some(1));
    }

    #[test]
    fn ewma_tracks_service_time() {
        let mut a: Admission<()> = Admission::new(cfg(16, 16));
        for _ in 0..64 {
            a.release("t", 400);
        }
        assert!(
            a.ewma_service_ms > 300,
            "ewma {} should approach 400",
            a.ewma_service_ms
        );
    }
}
