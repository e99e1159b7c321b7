//! # `mph-core` — the paper's contribution
//!
//! The hard functions of "On the Hardness of Massively Parallel
//! Computation" (Chung–Ho–Sun, SPAA 2020) and everything needed to study
//! them:
//!
//! * [`params`] — the parameter system of Tables 2 and 3 (`u = n/3`,
//!   `v = S/u`, `w = T`, field widths), with the theorem's regime
//!   constraints checked explicitly.
//! * [`mod@line`] / [`simline`] — the oracle functions `Line_{n,w,u,v}`
//!   (Section 3) and `SimLine_{n,w,u,v}` (Appendix A): native evaluators,
//!   full traces, and bridges to the `mph-ram` generated programs.
//! * [`algorithms`] — the MPC algorithms whose measured round complexity
//!   reproduces both sides of Theorems 3.1 and A.1: the honest token
//!   pipeline with replicated block windows, the one-round wide-memory
//!   algorithm, and the guessing adversary of Lemma 3.3 / A.7.
//! * [`theorem`] — measurement harnesses: round complexity, per-round
//!   line-advance distributions (the `(h/v)^p` decay engine of Claim 3.9),
//!   and Monte-Carlo success probabilities over `(RO, X)`.
//! * [`correctness`] — the worst-case / average-case success notions of
//!   Definitions 2.4 and 2.5.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod correctness;
pub mod line;
pub mod params;
pub mod simline;
pub mod theorem;
pub mod trace;

pub use line::Line;
pub use params::{LineParams, RegimeReport};
pub use simline::SimLine;
pub use trace::{EvalTrace, Node};
