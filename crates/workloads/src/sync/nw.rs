//! NW1 / NW2 — Needleman–Wunsch wavefront propagation with flag-based
//! fine-grained synchronization (the lock-based dataflow implementation of
//! Li et al. (ICS 2015) that the paper evaluates as two kernels traversing the
//! grid in opposite directions).

use crate::{Prepared, Scale, Stage, Workload};
use simt_core::{Gpu, LaunchSpec};
use simt_isa::asm::assemble;
use simt_isa::Kernel;

/// The NW workload: an `n x n` dynamic-programming grid. Thread `i` owns
/// row `i` and sweeps it left to right; cell `(i, j)` needs `(i-1, j)`
/// (published by the neighbor thread through a per-cell ready flag) and
/// `(i, j-1)` (local). NW2 performs the same computation on the
/// anti-diagonal traversal (rows reversed), as the paper's second kernel.
#[derive(Debug, Clone)]
pub struct NeedlemanWunsch {
    /// Grid dimension (threads == n rows).
    pub n: usize,
    /// Threads per CTA.
    pub threads_per_cta: usize,
    /// False: NW1 (top-down rows); true: NW2 (bottom-up rows).
    pub reversed: bool,
}

impl NeedlemanWunsch {
    /// Paper-shaped defaults.
    pub fn new(scale: Scale, reversed: bool) -> NeedlemanWunsch {
        // NW's parallelism is bounded by the grid dimension (one thread
        // per row), so it under-subscribes the GPU by nature — as the
        // paper's NW does.
        let n = match scale {
            Scale::Tiny => 48,
            Scale::Small => 256,
            Scale::Full => 512,
        };
        NeedlemanWunsch {
            n,
            threads_per_cta: 64,
            reversed,
        }
    }

    /// Fully parameterized constructor.
    pub fn with_params(n: usize, threads_per_cta: usize, reversed: bool) -> NeedlemanWunsch {
        NeedlemanWunsch {
            n,
            threads_per_cta,
            reversed,
        }
    }

    /// Host reference: the same recurrence, row-major.
    /// `score[i][j] = max(up, left) + cost(i, j)` with virtual zero borders.
    pub fn host_reference(&self) -> Vec<u32> {
        let n = self.n;
        let mut score = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                let up = if i > 0 { score[(i - 1) * n + j] } else { 0 };
                let left = if j > 0 { score[i * n + j - 1] } else { 0 };
                let cost = self.cost(i, j);
                score[i * n + j] = up.max(left).wrapping_add(cost);
            }
        }
        score
    }

    /// The per-cell cost, computable on both host and device:
    /// `(i * 7 + j * 13) & 0xf`.
    fn cost(&self, i: usize, j: usize) -> u32 {
        ((i as u32)
            .wrapping_mul(7)
            .wrapping_add((j as u32).wrapping_mul(13)))
            & 0xf
    }

    fn kernel(&self) -> Kernel {
        // Diagonal skew: the thread owning row `i` computes cell (i, j) at
        // step T = i + j, looping T over 0..2n-1 with a guarded body. A
        // cell's up-neighbor (i-1, j) was produced at step T-1, so
        // intra-warp dependencies resolve through lockstep order, while
        // cross-warp dependencies are enforced by spinning on the per-cell
        // ready flag — the fine-grained synchronization under study. Row
        // index: NW1 uses gtid directly; NW2 flips (n-1-gtid) so the
        // wavefront sweeps the opposite way with identical dependencies.
        let row_setup = if self.reversed {
            "sub r5, r3, %gtid\n                sub r5, r5, 1      ; row = n-1-gtid"
        } else {
            "mov r5, %gtid         ; row = gtid"
        };
        let name = if self.reversed { "nw2" } else { "nw1" };
        let src = format!(
            r#"
            .kernel {name}
            .regs 26
            .params 4
                ld.param r1, [0]     ; score grid
                ld.param r2, [4]     ; ready flags
                ld.param r3, [8]     ; n
                setp.ge.s32 p0, %gtid, r3
            @p0 exit                 ; surplus threads in the last CTA
                {row_setup}
                mul r6, r5, r3       ; row * n
                mov r7, 0            ; T
                mov r8, 0            ; left = 0 (virtual border)
                mad r23, r3, 2, -1   ; 2n - 1 steps
            TLOOP:
                sub r9, r7, r5       ; j = T - row
                setp.lt.s32 p1, r9, 0
            @p1 bra NEXT
                setp.ge.s32 p2, r9, r3
            @p2 bra NEXT
                add r10, r6, r9      ; cell = row*n + j
                shl r11, r10, 2
                add r12, r1, r11     ; &score[cell]
                add r13, r2, r11     ; &ready[cell]
                ; ---- fetch the up-neighbor (row-1, j), waiting if needed --
                setp.eq.s32 p3, r5, 0
            @p3 bra TOPROW
                sub r14, r10, r3     ; cell above
                shl r15, r14, 2
                add r16, r2, r15     ; &ready[above]
            WAITUP:
                ld.global.volatile r17, [r16] !sync
                setp.eq.s32 p4, r17, 0 !sync
            @p4 bra WAITUP !sib !wait !sync
                add r18, r1, r15
                ld.global.volatile r18, [r18]    ; up value
                bra COMPUTE
            TOPROW:
                mov r18, 0
            COMPUTE:
                max.u32 r19, r18, r8             ; max(up, left)
                ; cost = (i*7 + j*13) & 0xf
                mul r20, r5, 7
                mul r21, r9, 13
                add r20, r20, r21
                and r20, r20, 15
                add r8, r19, r20                 ; new cell value (-> left)
                st.global [r12], r8
                membar                           ; value visible before flag
                mov r22, 1
                st.global.volatile [r13], r22 !sync  ; publish ready flag
            NEXT:
                add r7, r7, 1
                setp.lt.s32 p5, r7, r23
            @p5 bra TLOOP
                exit
            "#,
        );
        assemble(&src).expect("NW kernel assembles")
    }
}

impl Workload for NeedlemanWunsch {
    fn name(&self) -> &'static str {
        if self.reversed {
            "NW2"
        } else {
            "NW1"
        }
    }

    fn prepare(&self, gpu: &mut Gpu) -> Prepared {
        let n = self.n as u64;
        let g = gpu.mem_mut().gmem_mut();
        let score = g.alloc(n * n);
        let ready = g.alloc(n * n);
        let launch = LaunchSpec {
            grid_ctas: self.n.div_ceil(self.threads_per_cta),
            threads_per_cta: self.threads_per_cta,
            params: vec![score as u32, ready as u32, self.n as u32],
        };
        let spec = self.clone();
        let verify = Box::new(move |gpu: &Gpu| -> Result<(), String> {
            let g = gpu.mem().gmem();
            let expect = spec.host_reference();
            for i in 0..spec.n {
                for j in 0..spec.n {
                    let got = g.read_u32(score + ((i * spec.n + j) as u64) * 4);
                    if got != expect[i * spec.n + j] {
                        return Err(format!(
                            "cell ({i},{j}): {got} != {} (dependency violated)",
                            expect[i * spec.n + j]
                        ));
                    }
                }
            }
            Ok(())
        });
        Prepared::exact(
            vec![Stage {
                kernel: self.kernel(),
                launch,
            }],
            verify,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_baseline;
    use simt_core::{BasePolicy, GpuConfig};

    #[test]
    fn kernels_assemble_with_wait_sib() {
        for rev in [false, true] {
            let k = NeedlemanWunsch::new(Scale::Tiny, rev).kernel();
            assert_eq!(k.true_sibs.len(), 1);
            assert!(k.insts[k.true_sibs[0]].ann.wait);
        }
    }

    #[test]
    fn nw1_matches_host_dp() {
        let nw = NeedlemanWunsch::with_params(32, 32, false);
        let res = run_baseline(&GpuConfig::test_tiny(), &nw, BasePolicy::Gto).unwrap();
        res.verified.as_ref().expect("DP table exact");
        assert!(res.sim.wait_exit_success > 0, "wait loops exercised");
    }

    #[test]
    fn nw1_waits_when_warps_outnumber_schedulers() {
        // With 4 warps on 2 scheduler units under LRR, consumers reach
        // flags before producers publish them: real spinning occurs.
        let nw = NeedlemanWunsch::with_params(128, 128, false);
        let res = run_baseline(&GpuConfig::test_tiny(), &nw, BasePolicy::Lrr).unwrap();
        res.verified.as_ref().unwrap();
        assert!(res.sim.wait_exit_fail > 0, "rows below must wait");
    }

    #[test]
    fn nw2_reversed_rows_match_too() {
        let nw = NeedlemanWunsch::with_params(32, 32, true);
        let res = run_baseline(&GpuConfig::test_tiny(), &nw, BasePolicy::Gto).unwrap();
        res.verified.as_ref().unwrap();
    }

    #[test]
    fn gto_age_priority_helps_nw() {
        // Older warps (lower rows) gate younger ones; both policies must
        // still complete and agree.
        let cfg = GpuConfig::test_tiny();
        let nw = NeedlemanWunsch::with_params(64, 64, false);
        let gto = run_baseline(&cfg, &nw, BasePolicy::Gto).unwrap();
        let lrr = run_baseline(&cfg, &nw, BasePolicy::Lrr).unwrap();
        gto.verified.as_ref().unwrap();
        lrr.verified.as_ref().unwrap();
    }
}
