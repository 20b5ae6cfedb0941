//! DS — Cloth-physics Distance Solver analog (the paper's CP benchmark):
//! each constraint locks *two* particles (nested locks) before adjusting
//! their positions.

use crate::{Prepared, Scale, Stage, Workload};
use simt_core::{Gpu, LaunchSpec};
use simt_isa::asm::assemble;
use simt_isa::Kernel;

/// The DS workload: `threads` constraint-solver threads; constraint `t`
/// joins particles `t` and `t+1` (a chain, so neighboring constraints
/// contend). Each solver iterates `rounds` relaxation steps; each step
/// takes both particle locks (in index order), moves the pair toward the
/// rest distance, and releases.
#[derive(Debug, Clone)]
pub struct DistanceSolver {
    /// Constraints (== threads).
    pub constraints: usize,
    /// Relaxation rounds per constraint.
    pub rounds: usize,
    /// Threads per CTA.
    pub threads_per_cta: usize,
}

impl DistanceSolver {
    /// Paper-shaped defaults.
    pub fn new(scale: Scale) -> DistanceSolver {
        let (constraints, rounds, tpc) = match scale {
            Scale::Tiny => (128, 2, 128),
            Scale::Small => (12288, 1, 256),
            Scale::Full => (24576, 3, 256),
        };
        DistanceSolver {
            constraints,
            rounds,
            threads_per_cta: tpc,
        }
    }

    /// Fully parameterized constructor.
    pub fn with_params(
        constraints: usize,
        rounds: usize,
        threads_per_cta: usize,
    ) -> DistanceSolver {
        DistanceSolver {
            constraints,
            rounds,
            threads_per_cta,
        }
    }

    fn kernel(&self) -> Kernel {
        // Integer positions keep verification exact: each step transfers
        // delta = (x[j] - x[i] - REST) / 4 from j to i, preserving the sum.
        assemble(
            r#"
            .kernel ds_solve
            .regs 26
            .params 4
                ld.param r1, [0]     ; particle locks
                ld.param r2, [4]     ; positions
                ld.param r3, [8]     ; rounds
                ld.param r24, [12]   ; rest distance
                mov r4, %gtid
                add r5, r4, 1        ; j = i + 1
                shl r6, r4, 2
                add r7, r1, r6       ; &lock[i]
                add r8, r2, r6       ; &x[i]
                shl r9, r5, 2
                add r10, r1, r9      ; &lock[j]
                add r11, r2, r9      ; &x[j]
                mov r12, 0           ; round
            OUTER:
                mov r13, 0           ; done = false
            SPIN:
                atom.global.cas r14, [r7], 0, 1 !acquire !sync
                setp.eq.s32 p1, r14, 0 !sync
            @!p1 bra SKIP
                atom.global.cas r15, [r10], 0, 1 !acquire !sync
                setp.eq.s32 p2, r15, 0 !sync
            @!p2 bra INNERFAIL
                ; critical section: relax the pair
                ld.global.volatile r16, [r8]      ; xi
                ld.global.volatile r17, [r11]     ; xj
                sub r18, r17, r16
                sub r18, r18, r24                 ; stretch = xj - xi - rest
                sra r19, r18, 2                   ; delta = stretch / 4
                add r16, r16, r19
                sub r17, r17, r19
                st.global [r8], r16
                st.global [r11], r17
                membar
                atom.global.exch r20, [r10], 0 !release !sync
                atom.global.exch r21, [r7], 0 !release !sync
                mov r13, 1
                bra SKIP
            INNERFAIL:
                atom.global.exch r22, [r7], 0 !release !sync
            SKIP:
                setp.eq.s32 p3, r13, 0 !sync
            @p3 bra SPIN !sib !sync
                add r12, r12, 1
                setp.lt.s32 p4, r12, r3
            @p4 bra OUTER
                exit
            "#,
        )
        .expect("DS kernel assembles")
    }
}

impl Workload for DistanceSolver {
    fn name(&self) -> &'static str {
        "DS"
    }

    fn prepare(&self, gpu: &mut Gpu) -> Prepared {
        const REST: u32 = 16;
        let particles = self.constraints as u64 + 1;
        let g = gpu.mem_mut().gmem_mut();
        let locks = g.alloc(particles);
        let pos = g.alloc(particles);
        // Initial positions: stretched chain x_i = 64 * i.
        let mut initial_sum = 0u64;
        for p in 0..particles {
            let x = 64 * p as u32;
            g.write_u32(pos + p * 4, x);
            initial_sum += x as u64;
        }
        let launch = LaunchSpec {
            grid_ctas: self.constraints.div_ceil(self.threads_per_cta),
            threads_per_cta: self.threads_per_cta,
            params: vec![locks as u32, pos as u32, self.rounds as u32, REST],
        };
        // Final positions depend on relaxation interleaving; what every
        // legal schedule preserves is the position sum (transfers are
        // zero-sum under the per-pair locks) and solver progress.
        Prepared::racy(
            vec![Stage {
                kernel: self.kernel(),
                launch,
            }],
            vec![
                crate::Postcond::new("position-sum-conserved", move |g| {
                    let mut sum = 0u64;
                    for p in 0..particles {
                        sum += g.read_u32(pos + p * 4) as u64;
                    }
                    if sum != initial_sum {
                        return Err(format!(
                            "position sum not conserved: {sum} != {initial_sum} (racy update)"
                        ));
                    }
                    Ok(())
                }),
                crate::Postcond::new("first-constraint-relaxed", move |g| {
                    // Every interior pair should be closer to rest than the
                    // initial 64 stretch (the solver made progress).
                    let x0 = g.read_u32(pos) as i64;
                    let x1 = g.read_u32(pos + 4) as i64;
                    if (x1 - x0 - REST as i64).abs() >= 64 - REST as i64 {
                        return Err("first constraint did not relax".to_string());
                    }
                    Ok(())
                }),
                crate::Postcond::new("locks-free", move |g| {
                    for p in 0..particles {
                        let v = g.read_u32(locks + p * 4);
                        if v != 0 {
                            return Err(format!("particle lock {p} still held ({v})"));
                        }
                    }
                    Ok(())
                }),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_baseline;
    use simt_core::{BasePolicy, GpuConfig};

    #[test]
    fn kernel_shape() {
        let k = DistanceSolver::new(Scale::Tiny).kernel();
        assert_eq!(k.true_sibs.len(), 1);
        assert_eq!(k.insts.iter().filter(|i| i.ann.acquire).count(), 2);
    }

    #[test]
    fn chain_relaxes_with_conserved_sum() {
        let ds = DistanceSolver::with_params(96, 2, 96);
        let res = run_baseline(&GpuConfig::test_tiny(), &ds, BasePolicy::Gto).unwrap();
        res.verified.as_ref().expect("sum conserved");
        assert!(
            res.mem.lock_inter_fail + res.mem.lock_intra_fail > 0,
            "neighboring constraints contend"
        );
    }

    #[test]
    fn cawa_also_verifies() {
        let ds = DistanceSolver::with_params(64, 2, 64);
        let res = run_baseline(&GpuConfig::test_tiny(), &ds, BasePolicy::Cawa).unwrap();
        res.verified.as_ref().unwrap();
    }
}
