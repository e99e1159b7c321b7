//! # `mph-compression` — the compression argument, executable
//!
//! The lower-bound proofs of Chung–Ho–Sun hinge on *encoding schemes*: if
//! a small-memory machine's round reveals many input blocks through its
//! oracle queries, then `(RO, X)` can be described in fewer bits than its
//! entropy — contradiction (Claim 3.8). This crate implements those
//! schemes as literal `Enc`/`Dec` programs that run against real machine
//! rounds on enumerable table oracles:
//!
//! * [`adversary`] — the `𝒜₁`/`𝒜₂` decomposition: anything that exposes a
//!   memory image and a deterministic, replayable round of oracle queries.
//!   Includes the bridge that snapshots a live `mph-mpc` simulation.
//! * [`simline_enc`] — Claim A.4's scheme for `SimLine`: record where each
//!   revealed block sits in the query transcript (`log q + log v` bits)
//!   instead of the block itself (`u` bits).
//! * [`line_enc`] — Claim 3.7's scheme for `Line`, with Definition 3.4's
//!   rewired oracles `RO^{(k)}_{a_1,…,a_p}`: enumerate all `v^p` pointer
//!   continuations, replay the machine against each, and harvest the
//!   blocks it reveals — the set `B_i^{(k)}`.
//! * [`counting`] — Claim 3.8's information-theoretic floor, plus a
//!   pigeonhole demonstration that *no* injective scheme beats it.
//!
//! Every encoding round-trips exactly (`Dec(Enc(RO, X)) = (RO, X)`), and
//! every part's bit-length is accounted, so the experiments can place
//! measured `|Enc|` against the paper's bound formulas.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod counting;
pub mod line_enc;
pub mod simline_enc;
pub mod vset;

pub use adversary::{PipelineRound, RoundAlgorithm, StoredBlocks};
pub use counting::{counting_floor_bits, CountingDemo};
pub use line_enc::{LineEncoder, LineEncoding};
pub use simline_enc::{SimLineEncoder, SimLineEncoding};
pub use vset::{v_set, ReachableEntry};
