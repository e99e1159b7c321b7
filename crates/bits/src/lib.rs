//! # `mph-bits` — bit-string substrate
//!
//! The paper "On the Hardness of Massively Parallel Computation"
//! (Chung–Ho–Sun, SPAA 2020) is stated entirely over bit strings: the random
//! oracle maps `{0,1}^n → {0,1}^n`, machine memories are `s` **bits**, input
//! blocks are `u` bits, and the compression argument counts encoding lengths
//! in bits. This crate provides the exact-width bit-string machinery that the
//! rest of the workspace is built on:
//!
//! * [`BitVec`] — a word-packed, growable bit vector with slicing, integer
//!   views, and bitwise algebra. All higher-level objects (oracle
//!   inputs/outputs, MPC messages, RAM memories, encodings) are `BitVec`s.
//! * [`Layout`] — named fixed-width field layouts used to pack and unpack
//!   oracle queries such as `(i, x_{ℓ_i}, r_i, 0^*)` and oracle answers such
//!   as `(ℓ_{i+1}, r_{i+1}, z_{i+1})` (paper Table 3).
//! * [`intlog`] — the `⌈log₂·⌉` / `⌊log₂·⌋` helpers the paper's parameter
//!   table uses (`ℓ_i` takes `⌈log v⌉` bits, etc.).
//! * [`sample`] — uniform sampling of bit strings, the `X ← {0,1}^{uv}`
//!   distribution of the average-case definitions.
//!
//! Everything here is deterministic given an RNG seed and has no interior
//! mutability; thread-safety concerns live in `mph-oracle` / `mph-mpc`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod bitvec;
pub mod cursor;
pub mod intlog;
pub mod layout;
pub mod sample;
pub mod slice;

pub use bitvec::BitVec;
pub use cursor::{BitReader, BitWriter};
pub use intlog::{bits_for_index, ceil_log2, floor_log2, is_power_of_two};
pub use layout::{Field, FieldValue, Layout, LayoutError};
pub use sample::{random_bitvec, random_blocks};
pub use slice::BitSlice;
