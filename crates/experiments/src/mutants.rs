//! Planted-defect kernels for the race/deadlock analyzer's recall oracle.
//!
//! The fuzzer ([`crate::fuzz`]) generates *well-synchronized* kernels to
//! exercise the differential harness; this module is its adversarial
//! counterpart. It generates a seeded, correctly-synchronized base kernel —
//! two nested-lock critical sections in the corpus's
//! branch-to-reconvergence spin idiom, separated by a `bar.sync` with a
//! `tid==0` publish — and then plants one of three known defects:
//!
//! * [`Mutation::DropRelease`] removes the final unlock of the second
//!   critical section (expected lint: `missing-release`; dynamically the
//!   launch hangs — every other thread spins on the orphaned lock);
//! * [`Mutation::SwapAcquireOrder`] reverses the nesting order in the
//!   second critical section, creating an ABBA cycle against the first
//!   (expected lint: `lock-cycle`; dynamically clean — within each phase
//!   the order is consistent, which is exactly why this bug class needs a
//!   static check);
//! * [`Mutation::HoistStore`] sinks the publish below the barrier so it
//!   races with the consumer loads (expected lint: `data-race`; the
//!   happens-before checker observes the race dynamically).
//!
//! Every mutant carries its expected diagnostic, so the recall corpus is
//! self-annotating: the `race_oracle` gate asserts the static analyzer
//! reports exactly the planted defect and nothing on the base.

use crate::fuzz::Rng;
use simt_analyze::LintKind;

/// The three planted defect classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Drop the final `!release` of the second critical section.
    DropRelease,
    /// Acquire B before A in the second critical section (ABBA).
    SwapAcquireOrder,
    /// Move the `tid==0` publish store below the separating barrier.
    HoistStore,
}

impl Mutation {
    pub const ALL: [Mutation; 3] = [
        Mutation::DropRelease,
        Mutation::SwapAcquireOrder,
        Mutation::HoistStore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropRelease => "drop-release",
            Mutation::SwapAcquireOrder => "swap-acquire-order",
            Mutation::HoistStore => "hoist-store",
        }
    }

    /// The lint the static analyzer must report on the mutant.
    pub fn expected_lint(self) -> LintKind {
        match self {
            Mutation::DropRelease => LintKind::MissingRelease,
            Mutation::SwapAcquireOrder => LintKind::LockCycle,
            Mutation::HoistStore => LintKind::RaceUnlocked,
        }
    }

    /// Does the reference interpreter's happens-before checker observe a
    /// race on this mutant? Only the hoisted publish races dynamically:
    /// the dropped release hangs instead, and the ABBA swap is consistent
    /// within each barrier phase.
    pub fn expects_dynamic_race(self) -> bool {
        matches!(self, Mutation::HoistStore)
    }

    /// Does the mutant hang (fuel exhaustion) under the reference?
    pub fn expects_hang(self) -> bool {
        matches!(self, Mutation::DropRelease)
    }
}

/// One generated mutant: the clean base kernel and its mutated twin.
pub struct SyncMutant {
    pub seed: u64,
    pub mutation: Mutation,
    /// Kernel name of the mutated variant.
    pub name: String,
    /// Correctly-synchronized base source (must lint clean and run clean).
    pub base: String,
    /// Source with the defect planted.
    pub mutated: String,
    pub threads_per_cta: usize,
    /// Expected final value of the data word (param\[8\]) on a clean run:
    /// every thread increments once in CS1 and by `inc2` in CS2.
    pub expected_data: u32,
    /// Value the `tid==0` lane publishes to the flag word (param\[12\]).
    pub flag_value: u32,
}

struct Shape {
    tpc: usize,
    inc2: u32,
    flag_value: u32,
}

impl Shape {
    fn from_seed(seed: u64) -> Shape {
        let mut rng = Rng::new(seed ^ 0x5afe_5eed_0000_0000);
        Shape {
            tpc: rng.pick(&[64, 96, 128]),
            inc2: 1 + rng.below(3) as u32,
            flag_value: 7 + rng.below(5) as u32,
        }
    }
}

/// Emit one critical section in the branch-to-reconvergence idiom: spin
/// on a done-flag loop, take `first` then `second`, bump the data word,
/// unlock in reverse order. `keep_final_release` drops the outer unlock
/// on the success path when false (the REL arm keeps its release, so the
/// retry path is still correct — only the winner leaks the lock).
fn emit_cs(
    out: &mut String,
    idx: usize,
    first: &str,
    second: &str,
    inc: u32,
    keep_final_release: bool,
) {
    let cs = format!("CS{idx}");
    let rel = format!("REL{idx}");
    let ret = format!("RET{idx}");
    out.push_str(&format!(
        "    mov r9, 0\n\
         {cs}:\n\
         \x20   atom.global.cas r4, [{first}], 0, 1 !acquire\n\
         \x20   setp.eq.s32 p1, r4, 0\n\
         @!p1 bra {ret}\n\
         \x20   atom.global.cas r5, [{second}], 0, 1 !acquire\n\
         \x20   setp.eq.s32 p2, r5, 0\n\
         @!p2 bra {rel}\n\
         \x20   ld.global r6, [r3]\n\
         \x20   add r6, r6, {inc}\n\
         \x20   st.global [r3], r6\n\
         \x20   membar\n\
         \x20   atom.global.exch r7, [{second}], 0 !release\n"
    ));
    if keep_final_release {
        out.push_str(&format!("    atom.global.exch r8, [{first}], 0 !release\n"));
    }
    out.push_str(&format!(
        "    mov r9, 1\n\
         \x20   bra {ret}\n\
         {rel}:\n\
         \x20   atom.global.exch r8, [{first}], 0 !release\n\
         {ret}:\n\
         \x20   setp.eq.s32 p3, r9, 0\n\
         @p3 bra {cs} !sib\n"
    ));
}

fn emit(name: &str, shape: &Shape, mutation: Option<Mutation>) -> String {
    let swap = mutation == Some(Mutation::SwapAcquireOrder);
    let drop_rel = mutation == Some(Mutation::DropRelease);
    let hoist = mutation == Some(Mutation::HoistStore);

    let mut s = format!(
        ".kernel {name}\n\
         .regs 12\n\
         \x20   ld.param r1, [0]\n\
         \x20   ld.param r2, [4]\n\
         \x20   ld.param r3, [8]\n\
         \x20   ld.param r10, [12]\n"
    );
    emit_cs(&mut s, 1, "r1", "r2", 1, true);

    let publish = format!("@!p4 st.global [r10], {}\n", shape.flag_value);
    s.push_str("    mov r11, %tid\n    setp.ne.s32 p4, r11, 0\n");
    if !hoist {
        s.push_str(&publish);
    }
    s.push_str("    bar.sync\n");
    if hoist {
        s.push_str(&publish);
    }
    s.push_str("    ld.global r6, [r10]\n");

    let (first, second) = if swap { ("r2", "r1") } else { ("r1", "r2") };
    emit_cs(&mut s, 2, first, second, shape.inc2, !drop_rel);
    s.push_str("    exit\n");
    s
}

/// Generate the mutant for `seed` and `mutation`.
pub fn sync_mutant(seed: u64, mutation: Mutation) -> SyncMutant {
    let shape = Shape::from_seed(seed);
    let name = format!("mut_{}_{seed}", mutation.name().replace('-', "_"));
    let base = emit(&format!("sync_base_{seed}"), &shape, None);
    let mutated = emit(&name, &shape, Some(mutation));
    SyncMutant {
        seed,
        mutation,
        name,
        base,
        mutated,
        threads_per_cta: shape.tpc,
        expected_data: (shape.tpc as u32) * (1 + shape.inc2),
        flag_value: shape.flag_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_analyze::analyze_insts;
    use simt_isa::asm::assemble;

    fn lints(src: &str) -> Vec<(LintKind, simt_analyze::Severity)> {
        let k = assemble(src).expect("mutant assembles");
        analyze_insts(&k.insts)
            .diagnostics
            .into_iter()
            .map(|d| (d.kind, d.severity))
            .collect()
    }

    #[test]
    fn base_kernels_lint_clean() {
        for seed in 0..8 {
            let m = sync_mutant(seed, Mutation::DropRelease);
            let diags = lints(&m.base);
            assert!(diags.is_empty(), "seed {seed}: {diags:?}\n{}", m.base);
        }
    }

    #[test]
    fn every_mutation_yields_its_expected_lint_as_error() {
        for seed in 0..8 {
            for mu in Mutation::ALL {
                let m = sync_mutant(seed, mu);
                let diags = lints(&m.mutated);
                assert!(
                    diags.contains(&(mu.expected_lint(), simt_analyze::Severity::Error)),
                    "seed {seed} {}: expected {:?} in {diags:?}\n{}",
                    mu.name(),
                    mu.expected_lint(),
                    m.mutated
                );
            }
        }
    }

    #[test]
    fn mutants_report_nothing_beyond_the_planted_defect() {
        // The analyzer must not drown the planted lint in noise: every
        // diagnostic on a mutant names the expected defect class.
        for seed in 0..4 {
            for mu in Mutation::ALL {
                let m = sync_mutant(seed, mu);
                for (kind, _) in lints(&m.mutated) {
                    assert!(
                        kind == mu.expected_lint()
                            // A dropped release inside a retry loop also
                            // reads as a spin that can't progress and as a
                            // re-acquire of a held lock on the back edge —
                            // both are the same planted defect.
                            || (mu == Mutation::DropRelease
                                && matches!(kind, LintKind::SimtDeadlock | LintKind::LockCycle)),
                        "seed {seed} {}: stray lint {kind:?}",
                        mu.name()
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = sync_mutant(3, Mutation::HoistStore);
        let b = sync_mutant(3, Mutation::HoistStore);
        assert_eq!(a.mutated, b.mutated);
        assert_eq!(a.base, b.base);
    }
}
