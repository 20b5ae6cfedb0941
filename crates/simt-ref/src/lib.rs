//! Functional reference interpreter for `bows-sim` kernels.
//!
//! This crate is the *architectural oracle* of the differential-testing
//! layer: it executes a kernel warp-by-warp against a sequentially-
//! consistent memory, with the same reconvergence-stack semantics as the
//! cycle-level machine but none of its timing model — no scoreboard, no
//! caches, no latencies, no warp scheduler. For any kernel whose final
//! state is schedule-independent, the reference and the simulator must
//! agree bit for bit on final global memory and per-thread registers; a
//! mismatch means one of them executes the ISA wrong.
//!
//! Deliberate design constraints:
//!
//! * **Independent implementation.** The interpreter depends only on
//!   `simt-isa` (the ISA definition, including [`simt_isa::CmpOp::eval`]
//!   and [`simt_isa::AtomOp::apply`], which *are* the ISA) and on
//!   `simt-mem`'s [`GlobalMem`] (the functional memory array). The ALU,
//!   the reconvergence stack and the execution loop are re-implemented
//!   from the ISA semantics, not shared with `simt-core` — shared code
//!   would hide shared bugs.
//! * **Fair interleaving.** All warps of *all* CTAs are resident at once
//!   and stepped round-robin, one instruction each. This guarantees
//!   forward progress through inter-warp and inter-CTA busy-wait
//!   synchronization (flags, spin locks) without modeling a scheduler:
//!   every spinning warp's partner eventually runs.
//! * **Sequential consistency.** Loads read and stores/atomics update
//!   [`GlobalMem`] at the instruction step that executes them, in lane
//!   order. `membar` is a no-op (memory is already SC); `bar.sync` uses
//!   the same arrive/release counting as the cycle-level SM.
//!
//! Timing-dependent values have *defined but different* semantics:
//! `clock`/`%clock` read the warp's executed-instruction count and
//! `%smid` is always 0. Kernels using them are architecturally
//! deterministic under the reference but will not match the simulator —
//! the differential harness treats that as a (wanted) divergence; the
//! corpus workloads avoid both in their measured configurations.
//!
//! # Example
//!
//! ```
//! use simt_isa::asm::assemble;
//! use simt_mem::GlobalMem;
//! use simt_ref::{run_ref, RefLaunch};
//!
//! let k = assemble(
//!     r#"
//!     .kernel add_one
//!     .regs 4
//!         ld.param r1, [0]
//!         mov r2, %gtid
//!         shl r2, r2, 2
//!         add r2, r2, r1
//!         ld.global r3, [r2]
//!         add r3, r3, 1
//!         st.global [r2], r3
//!         exit
//!     "#,
//! )?;
//! let mut gmem = GlobalMem::new();
//! let buf = gmem.alloc(64);
//! let launch = RefLaunch { grid_ctas: 1, threads_per_cta: 64, params: &[buf as u32] };
//! let out = run_ref(&k, &launch, gmem, 1 << 20).unwrap();
//! assert_eq!(out.gmem.read_u32(buf + 4 * 63), 1);
//! # Ok::<(), simt_isa::AsmError>(())
//! ```

pub mod hb;
mod interp;
mod stack;

pub use hb::{HbChecker, RaceKind, RaceObs, WordKey};
pub use interp::{
    run_ref, run_ref_traced, RefCta, RefError, RefLaunch, RefOutcome, TracedRun, Writer,
};
pub use stack::RefStack;
