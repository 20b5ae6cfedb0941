//! TB — BarnesHut tree-build analog: lock-based insertion of bodies into
//! tree cells, throttled by a CTA barrier between acquisition attempts
//! (the optimization the paper notes makes TB nearly insensitive to BOWS).

use crate::{Prepared, Scale, Stage, Workload};
use simt_core::{Gpu, LaunchSpec};
use simt_isa::asm::assemble;
use simt_isa::Kernel;

/// The TB workload: every thread inserts one body into a cell's linked
/// list under the cell's lock; a `bar.sync` each round limits how many
/// lock attempts are in flight, exactly like BarnesHut's software
/// throttling.
#[derive(Debug, Clone)]
pub struct TreeBuild {
    /// Bodies (== threads).
    pub bodies: usize,
    /// Tree cells (locks).
    pub cells: u32,
    /// Threads per CTA.
    pub threads_per_cta: usize,
}

impl TreeBuild {
    /// Paper-shaped defaults (paper: 30 000 bodies; TB limits CTA count to
    /// reduce contention).
    pub fn new(scale: Scale) -> TreeBuild {
        let (bodies, cells, tpc) = match scale {
            Scale::Tiny => (128, 8, 128),
            Scale::Small => (12288, 256, 256),
            Scale::Full => (24576, 512, 256),
        };
        TreeBuild {
            bodies,
            cells,
            threads_per_cta: tpc,
        }
    }

    /// Fully parameterized constructor.
    pub fn with_params(bodies: usize, cells: u32, threads_per_cta: usize) -> TreeBuild {
        TreeBuild {
            bodies,
            cells,
            threads_per_cta,
        }
    }

    fn kernel(&self) -> Kernel {
        // Every round: threads that have not yet inserted try the cell lock
        // once; then the whole CTA barriers (at least one thread per warp
        // reaches the barrier each round, the property the paper says TB's
        // software approach requires). The round loop exits when the CTA's
        // done-counter reaches the CTA size.
        assemble(
            r#"
            .kernel tb_insert
            .regs 24
            .params 5
                ld.param r1, [0]    ; cell locks
                ld.param r2, [4]    ; cell heads (index+1 chains)
                ld.param r3, [8]    ; body next-pointers
                ld.param r4, [12]   ; cells
                ld.param r5, [16]   ; per-CTA done counters
                mov r6, %gtid
                mad r7, r6, 1664525, 1013904223   ; body's cell hash source
                rem.u32 r8, r7, r4                ; cell
                shl r9, r8, 2
                add r10, r1, r9                   ; &locks[cell]
                add r11, r2, r9                   ; &heads[cell]
                shl r12, r6, 2
                add r12, r3, r12                  ; &next[body]
                mov r13, %ctaid
                shl r13, r13, 2
                add r13, r5, r13                  ; &done_count[cta]
                mov r14, 0                        ; inserted = false
            ROUND:
                setp.eq.s32 p1, r14, 1
            @p1 bra WAIT                          ; already inserted
                atom.global.cas r15, [r10], 0, 1 !acquire !sync
                setp.eq.s32 p2, r15, 0 !sync
            @!p2 bra WAIT
                ld.global.volatile r16, [r11]     ; head
                st.global [r12], r16              ; next[body] = head
                add r17, r6, 1
                st.global [r11], r17              ; head = body + 1
                membar
                atom.global.exch r18, [r10], 0 !release !sync
                mov r14, 1
                atom.global.add r19, [r13], 1 !sync   ; done_count++
            WAIT:
                bar.sync
                ld.global.volatile r20, [r13] !sync
                setp.lt.u32 p3, r20, %ntid !sync
            @p3 bra ROUND !sib !sync
                exit
            "#,
        )
        .expect("TB kernel assembles")
    }
}

impl Workload for TreeBuild {
    fn name(&self) -> &'static str {
        "TB"
    }

    fn prepare(&self, gpu: &mut Gpu) -> Prepared {
        let cells = self.cells as u64;
        let bodies = self.bodies as u64;
        let ctas = self.bodies.div_ceil(self.threads_per_cta) as u64;
        let g = gpu.mem_mut().gmem_mut();
        let locks = g.alloc(cells);
        let heads = g.alloc(cells);
        let next = g.alloc(bodies);
        let done = g.alloc(ctas);
        let launch = LaunchSpec {
            grid_ctas: ctas as usize,
            threads_per_cta: self.threads_per_cta,
            params: vec![
                locks as u32,
                heads as u32,
                next as u32,
                self.cells,
                done as u32,
            ],
        };
        let spec = self.clone();
        // Chain order is schedule-dependent (each insertion pushes at the
        // head), so equivalence is declared as postconditions: the *set* of
        // linked bodies and their hashed cells are invariants, the order is
        // not.
        let chain_ok = move |g: &simt_mem::GlobalMem| -> Result<(), String> {
            let mut seen = vec![false; bodies as usize];
            let mut count = 0u64;
            for c in 0..cells {
                let mut cur = g.read_u32(heads + c * 4);
                let mut hops = 0u64;
                while cur != 0 {
                    let body = (cur - 1) as u64;
                    if body >= bodies {
                        return Err(format!("cell {c}: body {body} out of range"));
                    }
                    if seen[body as usize] {
                        return Err(format!("body {body} inserted twice"));
                    }
                    seen[body as usize] = true;
                    // The body must be in its hashed cell (the kernel's
                    // `mad gtid, A, C` followed by `rem`).
                    let hash = crate::Lcg::step(body as u32) % spec.cells;
                    if hash != c as u32 {
                        return Err(format!("body {body} in cell {c}, expected {hash}"));
                    }
                    count += 1;
                    hops += 1;
                    if hops > bodies {
                        return Err(format!("cell {c}: chain cycle"));
                    }
                    cur = g.read_u32(next + body * 4);
                }
            }
            if count != bodies {
                return Err(format!("{count} bodies linked, expected {bodies}"));
            }
            Ok(())
        };
        Prepared::racy(
            vec![Stage {
                kernel: self.kernel(),
                launch,
            }],
            vec![
                crate::Postcond::new("bodies-linked-once", chain_ok),
                crate::Postcond::new("locks-free", move |g| {
                    for c in 0..cells {
                        let v = g.read_u32(locks + c * 4);
                        if v != 0 {
                            return Err(format!("cell lock {c} still held ({v})"));
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
    fn kernel_uses_barrier_throttling() {
        let k = TreeBuild::new(Scale::Tiny).kernel();
        assert_eq!(k.true_sibs.len(), 1);
        assert!(k.insts.iter().any(|i| i.op == simt_isa::Op::Bar));
    }

    #[test]
    fn all_bodies_inserted_exactly_once() {
        let tb = TreeBuild::with_params(128, 4, 64);
        let res = run_baseline(&GpuConfig::test_tiny(), &tb, BasePolicy::Gto).unwrap();
        res.verified.as_ref().expect("tree consistent");
        assert!(res.sim.barriers > 0, "barrier throttling exercised");
    }

    #[test]
    fn works_under_lrr() {
        let tb = TreeBuild::with_params(64, 2, 64);
        let res = run_baseline(&GpuConfig::test_tiny(), &tb, BasePolicy::Lrr).unwrap();
        res.verified.as_ref().unwrap();
    }
}
