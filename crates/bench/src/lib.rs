//! # `mph-bench` — benchmark harness
//!
//! Criterion benches, one group per paper artifact plus substrate
//! microbenchmarks. See `benches/` and EXPERIMENTS.md; run with
//! `cargo bench --workspace`.

#![forbid(unsafe_code)]
