//! Lock-order graph and deadlock lints.
//!
//! Three checks built on the lockset analysis:
//!
//! 1. **Lock cycles.** Every acquire adds edges `held → acquired` for each
//!    lock in the may-held set at the acquire site. A cycle in that graph
//!    is a potential ABBA deadlock: one warp can hold A wanting B while
//!    another holds B wanting A. Barrier phases deliberately do not prune
//!    edges — barriers are CTA-scoped, so warps of *different* CTAs contend
//!    on global locks across phases. A self-edge is a re-acquire of a held
//!    spin lock, which deadlocks on its own.
//! 2. **Missing release.** A lock may-held at an `exit` escaped its
//!    critical section on some path; for a spin lock that means every later
//!    contender hangs.
//! 3. **SIMT-induced deadlock.** An acquire inside a natural loop with no
//!    release of that lock inside the loop, where the latch branch is
//!    divergent: on a reconvergence-stack machine the winning lane parks at
//!    the reconvergence point while its siblings spin for a lock only the
//!    parked lane can release (the paper's Fig. 1 hazard). Loops whose
//!    header is control-dependent on a divergent branch *outside* the loop
//!    are exempt — that is the lane-serialization idiom (each lane runs the
//!    loop alone, so no sibling can be parked holding the lock).

use crate::cfgx::FlowGraph;
use crate::lint::{Diagnostic, LintKind, Severity, Witness};
use crate::locks::LockAnalysis;
use crate::loops::natural_loops;
use crate::uniform::Uniformity;
use simt_isa::{Inst, Op};

/// Run the lock-order and deadlock lints.
pub fn lock_order_lints(
    g: &FlowGraph,
    insts: &[Inst],
    u: &Uniformity,
    la: &LockAnalysis,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(cycle_lints(g, la));
    out.extend(missing_release_lints(g, insts, la));
    out.extend(simt_deadlock_lints(g, insts, u, la));
    out
}

/// Lock-order graph construction + cycle detection.
fn cycle_lints(g: &FlowGraph, la: &LockAnalysis) -> Vec<Diagnostic> {
    let n = la.locks.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    // edge[a][b] = Some(acquire pc of b while a held), smallest pc wins.
    let mut edge: Vec<Vec<Option<usize>>> = vec![vec![None; n]; n];
    for a in &la.acquires {
        let Ok(to) = la.locks.binary_search(&a.lock) else {
            continue;
        };
        if !g.reachable.contains(g.block_of(a.pc)) {
            continue;
        }
        let held = la.held_at(g, a.pc);
        for from in held.iter() {
            let slot = &mut edge[from][to];
            match *slot {
                Some(pc) if pc <= a.pc => {}
                _ => *slot = Some(a.pc),
            }
        }
    }

    // Self-edges: re-acquiring a held spin lock never succeeds.
    for (l, row) in edge.iter().enumerate() {
        if let Some(pc) = row[l] {
            let name = la.locks[l].to_string();
            out.push(Diagnostic {
                severity: Severity::Error,
                kind: LintKind::LockCycle,
                pc,
                block: g.block_of(pc),
                var: None,
                message: format!(
                    "lock {name} may already be held when re-acquired here; \
                     a spin lock can never be taken twice"
                ),
                witness: Some(Witness::LockCycle {
                    cycle: vec![(name, pc)],
                }),
            });
        }
    }

    // Proper cycles: DFS from each lock in sorted order; report each cycle
    // once, keyed by its smallest member, walking smallest-successor-first
    // so the witness is deterministic.
    let mut reported: Vec<usize> = Vec::new();
    for start in 0..n {
        if reported.contains(&start) {
            continue;
        }
        if let Some(cycle) = find_cycle(&edge, start) {
            let min = *cycle.iter().min().expect("cycle is non-empty");
            if cycle.len() < 2 || reported.contains(&min) {
                continue;
            }
            reported.extend(&cycle);
            let steps: Vec<(String, usize)> = cycle
                .iter()
                .zip(cycle.iter().cycle().skip(1))
                .map(|(&from, &to)| {
                    let pc = edge[from][to].expect("cycle edge exists");
                    (la.locks[to].to_string(), pc)
                })
                .collect();
            let order: Vec<String> = cycle.iter().map(|&l| la.locks[l].to_string()).collect();
            let pc = steps.iter().map(|s| s.1).min().expect("non-empty");
            out.push(Diagnostic {
                severity: Severity::Error,
                kind: LintKind::LockCycle,
                pc,
                block: g.block_of(pc),
                var: None,
                message: format!(
                    "lock-order cycle {}: two warps taking these locks in \
                     opposite orders deadlock (ABBA)",
                    order.join(" -> ")
                ),
                witness: Some(Witness::LockCycle { cycle: steps }),
            });
        }
    }
    out
}

/// Find a cycle through `start` in the lock-order graph, as the list of
/// lock indices on the cycle (rotated so the smallest index is first).
fn find_cycle(edge: &[Vec<Option<usize>>], start: usize) -> Option<Vec<usize>> {
    let n = edge.len();
    let mut path = vec![start];
    let mut on_path = vec![false; n];
    on_path[start] = true;
    // Iterative DFS with an explicit next-successor cursor per path entry.
    let mut cursor = vec![0usize];
    while let Some(&node) = path.last() {
        let c = cursor.last_mut().expect("cursor tracks path");
        let mut advanced = false;
        while *c < n {
            let succ = *c;
            *c += 1;
            if edge[node][succ].is_none() || succ == node {
                continue;
            }
            if succ == start {
                return Some(path.clone());
            }
            if !on_path[succ] {
                on_path[succ] = true;
                path.push(succ);
                cursor.push(0);
                advanced = true;
                break;
            }
        }
        if !advanced && !path.is_empty() {
            let popped = path.pop().expect("non-empty");
            on_path[popped] = false;
            cursor.pop();
        }
    }
    None
}

/// Locks may-held at a kernel exit.
fn missing_release_lints(g: &FlowGraph, insts: &[Inst], la: &LockAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (pc, inst) in insts.iter().enumerate() {
        if inst.op != Op::Exit || !g.reachable.contains(g.block_of(pc)) {
            continue;
        }
        let held = la.held_at(g, pc);
        for l in held.iter() {
            let lock = la.locks[l];
            let acquire_pc = la
                .acquires
                .iter()
                .filter(|a| a.lock == lock)
                .map(|a| a.pc)
                .min()
                .unwrap_or(0);
            out.push(Diagnostic {
                severity: Severity::Error,
                kind: LintKind::MissingRelease,
                pc,
                block: g.block_of(pc),
                var: None,
                message: format!(
                    "lock {lock} acquired at pc {acquire_pc} may still be held \
                     at this exit; every later contender spins forever"
                ),
                witness: Some(Witness::HeldAtExit {
                    lock: lock.to_string(),
                    acquire_pc,
                    exit_pc: pc,
                    path: block_path(g, g.block_of(acquire_pc), g.block_of(pc)),
                }),
            });
        }
    }
    out
}

/// Entry pcs of the blocks on one shortest CFG path `from → to`.
fn block_path(g: &FlowGraph, from: usize, to: usize) -> Vec<usize> {
    let n = g.blocks.len();
    let mut prev = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::from([from]);
    prev[from] = from;
    while let Some(b) = queue.pop_front() {
        if b == to {
            break;
        }
        for &s in &g.blocks[b].succs {
            if prev[s] == usize::MAX {
                prev[s] = b;
                queue.push_back(s);
            }
        }
    }
    if prev[to] == usize::MAX {
        return Vec::new();
    }
    let mut path = vec![to];
    while *path.last().expect("non-empty") != from {
        path.push(prev[*path.last().expect("non-empty")]);
    }
    path.reverse();
    path.into_iter().map(|b| g.blocks[b].start).collect()
}

/// Acquire spin loops that cannot release from inside themselves.
fn simt_deadlock_lints(
    g: &FlowGraph,
    insts: &[Inst],
    u: &Uniformity,
    la: &LockAnalysis,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if la.acquires.is_empty() {
        return out;
    }
    let cd = g.control_deps();
    for l in natural_loops(g, insts) {
        if !u.divergent_branches.contains(l.latch) {
            continue;
        }
        // Lane-serialization exemption: the whole loop runs under a
        // divergent branch outside it, one lane at a time.
        if cd[l.header]
            .iter()
            .any(|&c| u.divergent_branches.contains(c) && !l.blocks.contains(c))
        {
            continue;
        }
        for a in &la.acquires {
            if !l.blocks.contains(g.block_of(a.pc)) {
                continue;
            }
            let released_inside = la
                .releases
                .iter()
                .any(|r| r.lock == a.lock && l.blocks.contains(g.block_of(r.pc)));
            if released_inside {
                continue;
            }
            let release_pc = la
                .releases
                .iter()
                .filter(|r| r.lock == a.lock)
                .map(|r| r.pc)
                .min();
            let where_release = match release_pc {
                Some(pc) => format!("the release at pc {pc} is outside the loop"),
                None => "no release of it exists".to_string(),
            };
            out.push(Diagnostic {
                severity: Severity::Error,
                kind: LintKind::SimtDeadlock,
                pc: a.pc,
                block: g.block_of(a.pc),
                var: None,
                message: format!(
                    "SIMT-induced deadlock: the divergent spin loop at pc {} \
                     acquires lock {} but {}; the winning lane parks at the \
                     reconvergence point while its siblings spin",
                    l.branch_pc, a.lock, where_release
                ),
                witness: Some(Witness::SpinHold {
                    loop_branch_pc: l.branch_pc,
                    acquire_pc: a.pc,
                    release_pc,
                }),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint;

    fn kinds_of(src: &str) -> Vec<LintKind> {
        lint(
            &simt_isa::asm::assemble(src)
                .expect("test kernel assembles")
                .insts,
        )
        .into_iter()
        .map(|d| d.kind)
        .collect()
    }

    #[test]
    fn consistent_nesting_is_clean() {
        let k = kinds_of(
            r#"
            .kernel nested
            .regs 10
                ld.param r1, [0]
                ld.param r2, [4]
                atom.global.cas r3, [r1], 0, 1 !acquire
                atom.global.cas r4, [r2], 0, 1 !acquire
                atom.global.exch r5, [r2], 0 !release
                atom.global.exch r6, [r1], 0 !release
                exit
            "#,
        );
        assert!(!k.contains(&LintKind::LockCycle), "{k:?}");
        assert!(!k.contains(&LintKind::MissingRelease), "{k:?}");
    }

    #[test]
    fn abba_cycle_detected() {
        let k = kinds_of(
            r#"
            .kernel abba
            .regs 12
                ld.param r1, [0]
                ld.param r2, [4]
                mov r7, %ctaid
                setp.eq.s32 p0, r7, 0
            @p0 bra OTHER
                atom.global.cas r3, [r1], 0, 1 !acquire
                atom.global.cas r4, [r2], 0, 1 !acquire
                atom.global.exch r5, [r2], 0 !release
                atom.global.exch r6, [r1], 0 !release
                exit
            OTHER:
                atom.global.cas r3, [r2], 0, 1 !acquire
                atom.global.cas r4, [r1], 0, 1 !acquire
                atom.global.exch r5, [r1], 0 !release
                atom.global.exch r6, [r2], 0 !release
                exit
            "#,
        );
        assert!(k.contains(&LintKind::LockCycle), "{k:?}");
    }

    #[test]
    fn dropped_release_reported_at_exit() {
        let k = kinds_of(
            r#"
            .kernel leak
            .regs 10
                ld.param r1, [0]
            SPIN:
                atom.global.cas r3, [r1], 0, 1 !acquire
                setp.ne.s32 p1, r3, 0
            @p1 bra SPIN !sib
                exit
            "#,
        );
        assert!(k.contains(&LintKind::MissingRelease), "{k:?}");
        assert!(k.contains(&LintKind::SimtDeadlock), "{k:?}");
    }

    #[test]
    fn single_block_spin_with_outside_release_is_simt_deadlock() {
        let k = kinds_of(
            r#"
            .kernel fig1
            .regs 10
                ld.param r1, [0]
            SPIN:
                atom.global.cas r3, [r1], 0, 1 !acquire
                setp.ne.s32 p1, r3, 0
            @p1 bra SPIN !sib
                atom.global.exch r5, [r1], 0 !release
                exit
            "#,
        );
        assert!(k.contains(&LintKind::SimtDeadlock), "{k:?}");
        assert!(!k.contains(&LintKind::MissingRelease), "released: {k:?}");
    }

    #[test]
    fn branch_to_reconvergence_spinlock_is_clean() {
        // The corpus idiom: release inside the retry loop.
        let k = kinds_of(
            r#"
            .kernel good
            .regs 10
                ld.param r1, [0]
                mov r9, 0
            SPIN:
                atom.global.cas r3, [r1], 0, 1 !acquire
                setp.eq.s32 p1, r3, 0
            @!p1 bra TEST
                atom.global.exch r5, [r1], 0 !release
                mov r9, 1
            TEST:
                setp.eq.s32 p2, r9, 0
            @p2 bra SPIN !sib
                exit
            "#,
        );
        assert!(!k.contains(&LintKind::SimtDeadlock), "{k:?}");
        assert!(!k.contains(&LintKind::MissingRelease), "{k:?}");
        assert!(!k.contains(&LintKind::LockCycle), "{k:?}");
    }

    #[test]
    fn lane_serialized_global_lock_is_exempt() {
        // The paper's TSP idiom: the spin loop runs under a divergent
        // lane-serialization branch, so the parked lane cannot hold the
        // lock. The release is outside the loop but inside the lane guard.
        let k = kinds_of(
            r#"
            .kernel lane
            .regs 12
                ld.param r1, [0]
                mov r6, 0
            LANE:
                mov r7, %laneid
                setp.ne.s32 p5, r7, r6
            @p5 bra NEXT
            SPIN:
                atom.global.cas r3, [r1], 0, 1 !acquire
                setp.ne.s32 p1, r3, 0
            @p1 bra SPIN !sib
                atom.global.exch r5, [r1], 0 !release
            NEXT:
                add r6, r6, 1
                setp.lt.s32 p6, r6, 32
            @p6 bra LANE
                exit
            "#,
        );
        assert!(!k.contains(&LintKind::SimtDeadlock), "{k:?}");
    }
}
