//! # `mph-ram` — the sequential word-RAM model
//!
//! The upper-bound side of Theorem 3.1: the hard function "can be computed
//! using memory of size O(S) in O(T·n) time by a RAM computation with
//! access to RO". This crate makes that claim executable:
//!
//! * [`isa`] — a small word-RAM instruction set (16 registers, word-indexed
//!   memory, arithmetic/logic/branches) extended with an `Oracle`
//!   instruction that reads an `n_in`-bit query from memory and writes the
//!   `n_out`-bit answer back, charged `O(n)` time (one unit per word
//!   moved), matching the paper's "making a query to RO takes O(n) time".
//! * [`machine`] — the interpreter, with exact time accounting and a
//!   space high-water mark, and hard step limits so runaway programs fail
//!   loudly.
//! * [`cost`] — the [`RamStats`] accounting record those runs produce, and
//!   its relation to the telemetry events of `mph-metrics`.
//! * [`program`] — a builder with labels/fixups for generated code.
//! * [`asm`] — a tiny two-pass text assembler, for tests and examples.
//! * [`codegen`] — generators that emit genuine RAM programs evaluating
//!   `Line` and `SimLine` for arbitrary parameters, including the bit-level
//!   packing of oracle queries out of word memory. Running these programs
//!   *is* the paper's RAM algorithm; the experiments report its measured
//!   `O(T·n)` time and `O(S)` space next to the MPC round counts.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod codegen;
pub mod cost;
pub mod isa;
pub mod machine;
pub mod program;

pub use asm::{assemble, disassemble};
pub use codegen::{gen_line_program, gen_simline_program, LineShape};
pub use cost::RamStats;
pub use isa::{Instr, Reg};
pub use machine::{Ram, RamError};
pub use program::{Label, Program, ProgramBuilder};
