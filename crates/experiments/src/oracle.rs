//! Cross-validation of DDOS against the static spin-loop oracle.
//!
//! Three independent sources claim to know which backward branches spin:
//!
//! 1. the hand-written `!sib` annotations (`Kernel::true_sibs`),
//! 2. `simt-analyze`'s static classification ([`simt_analyze::static_sibs`]),
//! 3. DDOS's dynamic confirmations (`confirmed_sibs()`), under XOR and
//!    MODULO hashing.
//!
//! This module runs every workload once per hashing scheme with DDOS
//! observing passively (`force_ddos`, no BOWS — scheduling is unchanged) and
//! joins the three sets per kernel. The paper's claims become checkable
//! propositions: XOR confirmations must be a subset of the static spin set
//! (zero false detections, Figure 14), and MODULO's extra confirmations are
//! *provably* false because the oracle shows the loop writes its induction
//! variable and no polling load exists.

use crate::{grid, SchedConfig};
use bows::{DdosConfig, HashKind};
use simt_analyze::analyze_insts;
use simt_core::{BasePolicy, GpuConfig};
use workloads::Workload;

/// The joined spin-branch evidence for one kernel launch (stage).
#[derive(Debug, Clone)]
pub struct OracleStage {
    /// Workload name (e.g. "HT", "MS").
    pub workload: String,
    /// Kernel name.
    pub kernel: String,
    /// True for the busy-wait synchronization suite.
    pub is_sync: bool,
    /// Backward branches that executed at least once (DDOS's candidate set).
    pub executed: Vec<usize>,
    /// Ground-truth `!sib` annotations.
    pub true_sibs: Vec<usize>,
    /// The static oracle's classification.
    pub static_sibs: Vec<usize>,
    /// DDOS confirmations under XOR hashing.
    pub xor_confirmed: Vec<usize>,
    /// DDOS confirmations under MODULO hashing.
    pub modulo_confirmed: Vec<usize>,
}

impl OracleStage {
    /// Does the static classification agree exactly with the annotations?
    pub fn static_matches_annotation(&self) -> bool {
        self.static_sibs == self.true_sibs
    }

    /// XOR confirmations the oracle rejects (must be empty — the paper's
    /// zero-false-detection claim).
    pub fn xor_false(&self) -> Vec<usize> {
        diff(&self.xor_confirmed, &self.static_sibs)
    }

    /// MODULO confirmations the oracle rejects (MS/HL's power-of-two stride
    /// aliasing, Figure 14).
    pub fn modulo_false(&self) -> Vec<usize> {
        diff(&self.modulo_confirmed, &self.static_sibs)
    }
}

fn diff(a: &[usize], b: &[usize]) -> Vec<usize> {
    a.iter().copied().filter(|x| !b.contains(x)).collect()
}

/// Precision/recall of one DDOS variant against the static oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrecisionRecall {
    /// Confirmations the oracle also classifies as spin.
    pub tp: usize,
    /// Confirmations the oracle rejects (false detections).
    pub fp: usize,
    /// Executed static spin branches DDOS never confirmed.
    pub fn_: usize,
}

impl PrecisionRecall {
    /// `tp / (tp + fp)`; 1.0 when nothing was confirmed.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// `tp / (tp + fn)`; 1.0 when nothing was there to find.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// Aggregate precision/recall of a hashing scheme over a set of stages.
pub fn precision_recall(
    stages: &[OracleStage],
    hash: HashKind,
    sync_only: Option<bool>,
) -> PrecisionRecall {
    let mut pr = PrecisionRecall::default();
    for s in stages {
        if sync_only.is_some_and(|want| s.is_sync != want) {
            continue;
        }
        let confirmed = match hash {
            HashKind::Xor => &s.xor_confirmed,
            HashKind::Modulo => &s.modulo_confirmed,
        };
        pr.tp += confirmed
            .iter()
            .filter(|pc| s.static_sibs.contains(pc))
            .count();
        pr.fp += confirmed
            .iter()
            .filter(|pc| !s.static_sibs.contains(pc))
            .count();
        pr.fn_ += s
            .static_sibs
            .iter()
            .filter(|pc| s.executed.contains(pc) && !confirmed.contains(pc))
            .count();
    }
    pr
}

/// Run the given workloads under passive DDOS with XOR and MODULO hashing
/// and join the results against the static oracle and the annotations.
///
/// Two simulations per workload, parallelized over the experiment grid's
/// worker pool. The static analysis itself is free (microseconds per
/// kernel).
///
/// # Panics
///
/// Panics with workload context if a simulation fails (deadlock / cycle
/// limit), as the experiment binaries do.
pub fn oracle_stages(cfg: &GpuConfig, suite: &[Box<dyn Workload>]) -> Vec<OracleStage> {
    let per_workload = grid::parallel_map(suite, |_, w| {
        let mut variants = Vec::new();
        for hash in [HashKind::Xor, HashKind::Modulo] {
            let mut sc = SchedConfig::baseline(BasePolicy::Gto);
            sc.force_ddos = true;
            sc.ddos = DdosConfig {
                hash,
                ..DdosConfig::default()
            };
            let res = crate::run(cfg, w.as_ref(), sc)
                .unwrap_or_else(|e| panic!("{} ({}): {e}", w.name(), hash.name()));
            variants.push(res);
        }
        let [xor_res, mod_res] = <[_; 2]>::try_from(variants).ok().expect("two runs");
        let mut stages = Vec::new();
        for (xs, ms) in xor_res.stages.iter().zip(&mod_res.stages) {
            let analysis = analyze_insts(&xs.insts);
            stages.push(OracleStage {
                workload: w.name().to_string(),
                kernel: xs.kernel.clone(),
                is_sync: w.is_sync(),
                executed: xs
                    .backward_branches
                    .iter()
                    .copied()
                    .filter(|&pc| xs.report.branch_log.get(pc).is_some())
                    .collect(),
                true_sibs: xs.true_sibs.clone(),
                static_sibs: analysis.sib_pcs(),
                xor_confirmed: sorted_pcs(&xs.report.confirmed_sibs),
                modulo_confirmed: sorted_pcs(&ms.report.confirmed_sibs),
            });
        }
        stages
    });
    per_workload.into_iter().flatten().collect()
}

fn sorted_pcs(confirmed: &[(usize, u64)]) -> Vec<usize> {
    let mut v: Vec<usize> = confirmed.iter().map(|&(pc, _)| pc).collect();
    v.sort_unstable();
    v.dedup();
    v
}
