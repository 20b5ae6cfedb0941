//! Static race detection: lockset ∩ barrier-phase may-happen-in-parallel.
//!
//! Concurrency granularity is the **warp**: every warp of the grid executes
//! the same code, so two instructions race when different warps can touch
//! the same word at overlapping times. Two accesses are ordered only when
//! (a) their may-held locksets share a lock, or (b) a non-divergent
//! `bar.sync` separates them (postdominates one, dominates the other — see
//! [`crate::barrier`]). Everything else with at least one write is a race.
//!
//! The model is deliberately biased toward false negatives so that the
//! error class stays trustworthy (the service rejects on it):
//! only *plain* (non-volatile, non-atomic) loads and stores to global or
//! shared memory whose address resolves to a warp-invariant word
//! ([`Location::comparable`]) are candidates. Volatile accesses, atomics,
//! lock words themselves, `!sync`-annotated instructions, and
//! thread-indexed addresses are all exempt — the corpus's wait-and-signal
//! and per-thread-slot idioms are intentional synchronization, not bugs.

use crate::barrier::BarrierPhases;
use crate::cfgx::FlowGraph;
use crate::defs::{ReachingDefs, Var};
use crate::lint::{Diagnostic, LintKind, Severity, Witness};
use crate::locks::{access_location, Location, LockAnalysis};
use crate::uniform::Uniformity;
use simt_isa::{Inst, Op, Operand, Space};

/// One race-candidate access.
struct Access {
    pc: usize,
    block: usize,
    space: Space,
    loc: Location,
    is_store: bool,
    /// Guarded by a divergent predicate (e.g. the `tid==0` publish idiom:
    /// a single lane executes, so the same-pc pair is not a warp-wide
    /// write-write race).
    divergent_guard: bool,
    /// For stores: the value written is warp-invariant, so concurrent
    /// same-pc writes are idempotent (benign).
    value_uniform: bool,
}

/// Collect the plain global/shared accesses the race model compares.
fn candidates(
    g: &FlowGraph,
    insts: &[Inst],
    rd: &ReachingDefs,
    u: &Uniformity,
    la: &LockAnalysis,
) -> Vec<Access> {
    let mut lock_words: Vec<Location> = la
        .acquires
        .iter()
        .map(|a| a.lock)
        .chain(la.releases.iter().map(|r| r.lock))
        .collect();
    lock_words.sort();
    lock_words.dedup();

    let mut out = Vec::new();
    for (pc, inst) in insts.iter().enumerate() {
        let (space, volatile, is_store) = match inst.op {
            Op::Ld(s, v) => (s, v, false),
            Op::St(s, v) => (s, v, true),
            _ => continue,
        };
        if volatile || !matches!(space, Space::Global | Space::Shared) {
            continue;
        }
        if inst.ann.sync {
            continue;
        }
        let b = g.block_of(pc);
        if !g.reachable.contains(b) {
            continue;
        }
        let Some(loc) = access_location(g, insts, rd, pc) else {
            continue;
        };
        if !loc.comparable() || lock_words.contains(&loc) {
            continue;
        }
        let divergent_guard = inst
            .guard
            .is_some_and(|(p, _)| u.is_divergent(Var::Pred(p)));
        let value_uniform = is_store
            && match inst.srcs.first() {
                Some(Operand::Imm(_)) => true,
                Some(&Operand::Reg(r)) => !u.is_divergent(Var::Reg(r)),
                _ => false,
            };
        out.push(Access {
            pc,
            block: b,
            space,
            loc,
            is_store,
            divergent_guard,
            value_uniform,
        });
    }
    out
}

/// Run the race lints.
pub fn race_lints(
    g: &FlowGraph,
    insts: &[Inst],
    rd: &ReachingDefs,
    u: &Uniformity,
    la: &LockAnalysis,
    bp: &BarrierPhases,
) -> Vec<Diagnostic> {
    let accs = candidates(g, insts, rd, u, la);
    let mut out = Vec::new();
    // One diagnostic per (word, lint kind, severity): the smallest racing
    // pair is the witness; further pairs on the same word add no signal.
    let mut reported: Vec<(Space, Location, LintKind, Severity)> = Vec::new();

    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..accs.len() {
        for j in i..accs.len() {
            let (a, b) = (&accs[i], &accs[j]);
            if a.space != b.space || a.loc != b.loc {
                continue;
            }
            if !a.is_store && !b.is_store {
                continue; // read-read never races
            }
            if i == j && (a.divergent_guard || !a.is_store) {
                // Same instruction in two warps: only a warp-wide store
                // races with itself, and a divergently-guarded one is the
                // single-lane publish idiom.
                continue;
            }
            pairs.push((i, j));
        }
    }

    for (i, j) in pairs {
        let (a, b) = (&accs[i], &accs[j]);
        let held_a = la.held_at(g, a.pc);
        let mut common = held_a.clone();
        let held_b = la.held_at(g, b.pc);
        common.intersect_with(&held_b);
        if !common.is_empty() {
            continue; // a common lock orders the pair
        }
        if i != j && bp.separated(g, a.pc, b.pc) {
            continue; // a uniform barrier orders the pair
        }

        let (kind, severity, note) = if i == j {
            if a.value_uniform {
                (
                    LintKind::RaceUnlocked,
                    Severity::Warning,
                    "; the stored value is warp-invariant, so the writes are \
                     idempotent (benign unless timing-sensitive)",
                )
            } else {
                (LintKind::RaceUnlocked, Severity::Error, "")
            }
        } else if bp.divergent_site_between(g, a.pc, b.pc) {
            (
                LintKind::RaceDivergentBarrier,
                Severity::Error,
                "; the only barrier between them is under divergent control \
                 and does not reliably separate them",
            )
        } else if bp.phase_of(g, a.pc) != bp.phase_of(g, b.pc) {
            (
                LintKind::RaceCrossPhase,
                Severity::Error,
                "; a barrier starts a new phase on some paths but does not \
                 separate these accesses on all of them",
            )
        } else {
            (LintKind::RaceUnlocked, Severity::Error, "")
        };

        let key = (a.space, a.loc, kind, severity);
        if reported.contains(&key) {
            continue;
        }
        reported.push(key);

        let what = |x: &Access| if x.is_store { "store" } else { "load" };
        let message = if i == j {
            format!(
                "every warp may {} to {} concurrently with no common lock \
                 and no ordering{}",
                what(a),
                a.loc,
                note
            )
        } else {
            format!(
                "{} at pc {} and {} at pc {} touch {} in concurrent warps \
                 with no common lock and no separating barrier{}",
                what(a),
                a.pc,
                what(b),
                b.pc,
                a.loc,
                note
            )
        };
        out.push(Diagnostic {
            severity,
            kind,
            pc: a.pc,
            block: a.block,
            var: None,
            message,
            witness: Some(Witness::Race {
                a_pc: a.pc,
                b_pc: b.pc,
                location: a.loc.to_string(),
                lockset_a: la.names(&held_a),
                lockset_b: la.names(&held_b),
                phase_a: bp.phase_of(g, a.pc),
                phase_b: bp.phase_of(g, b.pc),
            }),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint;
    use simt_isa::asm::assemble;

    fn kinds_of(src: &str) -> Vec<(LintKind, Severity)> {
        lint(&assemble(src).expect("test kernel assembles").insts)
            .into_iter()
            .map(|d| (d.kind, d.severity))
            .collect()
    }

    #[test]
    fn unprotected_shared_counter_races() {
        let k = kinds_of(
            r#"
            .kernel racy
            .regs 6
                ld.param r1, [0]
                ld.global r2, [r1]
                add r2, r2, 1
                st.global [r1], r2
                exit
            "#,
        );
        assert!(
            k.contains(&(LintKind::RaceUnlocked, Severity::Error)),
            "{k:?}"
        );
    }

    #[test]
    fn lock_protected_counter_is_clean() {
        let k = kinds_of(
            r#"
            .kernel locked
            .regs 10
                ld.param r1, [0]
                ld.param r2, [4]
                mov r9, 0
            SPIN:
                atom.global.cas r3, [r1], 0, 1 !acquire
                setp.eq.s32 p1, r3, 0
            @!p1 bra TEST
                ld.global r4, [r2]
                add r4, r4, 1
                st.global [r2], r4
                membar
                atom.global.exch r5, [r1], 0 !release
                mov r9, 1
            TEST:
                setp.eq.s32 p2, r9, 0
            @p2 bra SPIN !sib
                exit
            "#,
        );
        assert!(
            !k.iter().any(|(x, _)| matches!(
                x,
                LintKind::RaceUnlocked | LintKind::RaceCrossPhase | LintKind::RaceDivergentBarrier
            )),
            "{k:?}"
        );
    }

    #[test]
    fn barrier_separated_publish_is_clean() {
        // tid==0 publishes, everyone reads after the barrier.
        let k = kinds_of(
            r#"
            .kernel publish
            .regs 8
                ld.param r1, [0]
                mov r2, %tid
                setp.ne.s32 p0, r2, 0
            @!p0 st.global [r1], r2
                bar.sync
                ld.global r3, [r1]
                exit
            "#,
        );
        assert!(!k.iter().any(|(_, s)| *s == Severity::Error), "{k:?}");
    }

    #[test]
    fn hoisted_load_above_barrier_races() {
        // The read happens before the barrier that orders the publish.
        let k = kinds_of(
            r#"
            .kernel hoisted
            .regs 8
                ld.param r1, [0]
                mov r2, %tid
                setp.ne.s32 p0, r2, 0
                ld.global r3, [r1]
            @!p0 st.global [r1], r2
                bar.sync
                exit
            "#,
        );
        assert!(
            k.contains(&(LintKind::RaceUnlocked, Severity::Error)),
            "{k:?}"
        );
    }

    #[test]
    fn divergent_barrier_race_classified() {
        let k = kinds_of(
            r#"
            .kernel divbar
            .regs 8
                ld.param r1, [0]
                mov r2, %tid
                setp.eq.s32 p0, r2, 0
                st.global [r1], r2
            @p0 bra SKIP
                bar.sync
            SKIP:
                ld.global r3, [r1]
                exit
            "#,
        );
        assert!(
            k.contains(&(LintKind::RaceDivergentBarrier, Severity::Error)),
            "{k:?}"
        );
    }

    #[test]
    fn thread_indexed_accesses_are_exempt() {
        let k = kinds_of(
            r#"
            .kernel slots
            .regs 8
                ld.param r1, [0]
                mov r2, %gtid
                shl r2, r2, 2
                add r1, r1, r2
                ld.global r3, [r1]
                add r3, r3, 1
                st.global [r1], r3
                exit
            "#,
        );
        assert!(k.is_empty(), "{k:?}");
    }

    #[test]
    fn uniform_broadcast_store_is_warning_only() {
        let k = kinds_of(
            r#"
            .kernel bcast
            .regs 6
                ld.param r1, [0]
                st.global [r1], 7
                exit
            "#,
        );
        assert_eq!(k, vec![(LintKind::RaceUnlocked, Severity::Warning)]);
    }
}
