//! # `mph-mpc-algos` — parallelizable baselines on the same simulator
//!
//! The paper's introduction motivates the hardness question by how *well*
//! MPC handles ordinary workloads: graph problems, clustering, sorting and
//! aggregation all run in `O(1)`–`O(log N)` rounds. This crate implements
//! classic representatives of those families on the very same `mph-mpc`
//! simulator that hosts the hard functions, so the contrast the paper
//! draws — everything parallelizes except functions built to serialize —
//! is demonstrated inside one system:
//!
//! * [`sum`] — tree-structured aggregation, `⌈log₂ m⌉` rounds.
//! * [`prefix`] — two-level parallel prefix sums (scan), 3 rounds.
//! * [`sort`] — one-pass sample sort (the TeraSort pattern), 4 rounds.
//! * [`connectivity`] — connected components by min-label propagation.
//! * [`wordcount`] — the canonical MapReduce shuffle, 2 rounds.
//!
//! All of them move through the same `s`-bit memories and message router,
//! so their round counts are measured under identical rules as `Line`'s.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod connectivity;
pub mod prefix;
pub mod sort;
pub mod sum;
pub mod wire;
pub mod wordcount;

pub use connectivity::ConnectivityConfig;
pub use prefix::PrefixSumConfig;
pub use sort::SampleSortConfig;
pub use sum::TreeSumConfig;
pub use wordcount::WordCountConfig;
