//! # `mph-bounds` — the paper's inequalities, evaluated
//!
//! Every quantitative statement in Chung–Ho–Sun involves quantities like
//! `v^{log² w}·q·2^{-u}` at parameters where direct floating point
//! overflows instantly (`n` in the thousands, `T = 2^{40}`). This crate
//! evaluates all of them exactly where the paper states them:
//!
//! * [`logspace`] — arithmetic on probabilities/counts represented by
//!   their base-2 logarithms, with stable log-sum-exp addition.
//! * [`line_bounds`] — Lemma 3.3, Lemma 3.6, Claim 3.9 and Theorem 3.1's
//!   success bound for the `Line` function.
//! * [`simline_bounds`] — Lemma A.3, Lemma A.7, Claim A.8 and Theorem
//!   A.1's round bound for `SimLine`.
//! * [`regimes`] — sweeps parameter space to chart where each theorem's
//!   conclusion is non-vacuous (success bound < 1/3) — the content of the
//!   paper's Table 2 made quantitative.
//! * [`tables`] — programmatic reconstructions of the paper's Tables 1-3.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod line_bounds;
pub mod logspace;
pub mod regimes;
pub mod simline_bounds;
pub mod tables;

pub use line_bounds::LineBoundInputs;
pub use logspace::Log2;
pub use regimes::{regime_sweep, RegimePoint};
pub use simline_bounds::SimLineBoundInputs;
