//! # `mph-experiments` — regenerators for every table and figure
//!
//! One binary per artifact of the paper (see DESIGN.md §4 for the index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1`..`table3` | Tables 1–3 (parameter glossaries, instantiated) |
//! | `figure1` | Figure 1 (the `Line` structure, ASCII + DOT) |
//! | `exp_simline_rounds` | Theorem A.1's `≈ w·u/s` round envelope (E1) |
//! | `exp_line_rounds` | Theorem 3.1's `Ω̃(T)` round envelope (E2) |
//! | `exp_skip_decay` | Claim 3.9's `(h/v)^p` decay (E3) |
//! | `exp_compression` | Claims A.4/3.7 encodings vs Claim 3.8 floor (E4) |
//! | `exp_guessing` | Lemma 3.3 / A.7's `2^{-u}` guessing bound (E5) |
//! | `exp_crossover` | RAM-vs-MPC best-possible-hardness crossover (E6) |
//! | `exp_baselines` | §1's parallelizable-workload contrast (E7) |
//! | `exp_bounds` | all bound formulas at paper scale (E8) |
//! | `exp_instantiation` | the `f^h` RO-methodology instantiation (E9) |
//! | `exp_ablation` | placement & coordination ablations (E10) |
//! | `exp_success_cliff` | Pr[success within R rounds], Definition 2.5 (E11) |
//! | `exp_fault_tolerance` | replication vs crash faults (E12) |
//! | `exp_resume` | kill-and-resume checkpoint byte-identity (E13) |
//! | `exp_shard_recovery` | SIGKILL recovery latency/overhead vs shard count (E14) |
//!
//! The shared [`report`] module renders aligned markdown tables so the
//! binaries' stdout can be pasted into EXPERIMENTS.md verbatim. The
//! [`sweep`] module is the throughput layer underneath the
//! round-complexity binaries: it fans a whole parameter grid into one
//! worker-pool pass with simulation reuse, deterministically (see
//! docs/PERFORMANCE.md). Trial counts and seeds are adjustable on every
//! such binary via the shared [`setup::SweepArgs`] flags
//! (`--trials N --seed N --quick`).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod report;
pub mod setup;
pub mod shard;
pub mod sweep;

pub use report::Report;
