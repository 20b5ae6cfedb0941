//! PTX-like instruction set architecture for the `bows-sim` SIMT GPU simulator.
//!
//! This crate defines everything the simulator core needs to describe a GPU
//! kernel:
//!
//! * [`Op`]/[`Inst`] — the instruction set (a RISC-style subset of NVIDIA PTX:
//!   integer/float ALU ops, `setp` predicate generation, predicated branches,
//!   global/shared/param memory accesses, atomics, barriers and fences),
//! * [`Kernel`] — an assembled kernel, with labels resolved and reconvergence
//!   points (immediate post-dominators) precomputed for the SIMT stack,
//! * [`asm::assemble`] — a line-oriented assembler for a PTX-flavoured text
//!   syntax (this is how the workloads in the reproduction are written),
//! * [`cfg`] — basic-block construction and immediate-post-dominator analysis.
//!
//! # Example
//!
//! ```
//! use simt_isa::asm::assemble;
//!
//! let k = assemble(
//!     r#"
//!     .kernel add_one
//!     .regs 4
//!     entry:
//!         mov      r1, %tid
//!         shl      r2, r1, 2
//!         ld.param r3, [0]
//!         add      r2, r2, r3
//!         ld.global r1, [r2]
//!         add      r1, r1, 1
//!         st.global [r2], r1
//!         exit
//!     "#,
//! )?;
//! assert_eq!(k.name, "add_one");
//! assert_eq!(k.insts.len(), 8);
//! # Ok::<(), simt_isa::AsmError>(())
//! ```

pub mod asm;
pub mod cfg;
mod decoded;
mod inst;
mod kernel;
mod op;
mod reg;

pub use asm::{AsmError, RawKernel};
pub use decoded::{
    alu_column_fn, cmp_column_fn, AluColumnFn, CmpColumnFn, Column, DecodedInst, DecodedKernel,
    ExecClass,
};
pub use inst::{Annot, Inst, MemAddr, Operand};
pub use kernel::{Kernel, KernelError, RECONV_EXIT};
pub use op::{AtomOp, CmpOp, Op, OpClass, Space, Ty};
pub use reg::{Pred, Reg, Special};

/// Architectural byte size of one instruction, used when converting an
/// instruction index into a byte program counter (as DDOS hashing does).
pub const INST_BYTES: u64 = 8;
