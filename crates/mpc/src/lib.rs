//! # `mph-mpc` — the Massively Parallel Computation simulator
//!
//! An executable rendition of the MPC model of Karloff–Suri–Vassilvitskii as
//! formalized in Definitions 2.1/2.2 of Chung–Ho–Sun (SPAA 2020):
//!
//! * `m` machines, each with local memory of **`s` bits**;
//! * computation proceeds in synchronous rounds; within a round each machine
//!   computes locally (with oracle access and the shared random tape) and
//!   emits messages;
//! * between rounds the system routes messages; a machine may receive **no
//!   more communication than its memory** (`Σ incoming ≤ s`);
//! * the input is split across machines before round 0;
//! * each machine may make at most `q` oracle queries per round;
//! * the union of machine *outputs* at the end of round `R` is the result.
//!
//! The simulator takes the paper's definition literally in the one place
//! that matters for the lower bound: **machines carry no hidden state**.
//! [`MachineLogic::round`] is a pure function of the incoming messages (the
//! round's memory image), so anything a machine wants to remember it must
//! send to itself — and self-messages are counted against `s` like any other
//! communication. Violations (over-full memory, exceeded query budget,
//! misaddressed messages) are surfaced as [`ModelViolation`]s, never
//! silently tolerated; the test suite injects each kind deliberately.
//!
//! Machines within a round are independent by definition, so the executor
//! runs them data-parallel (rayon). Determinism is preserved because the
//! oracle substrate derives answers from the query (order-independent) and
//! message routing is sequenced in machine order after the parallel step.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod error;
pub mod executor;
pub mod faults;
pub mod input;
pub mod machine;
pub mod message;
pub mod shard;
pub mod snapshot;
mod soa;
pub mod stats;
pub mod transport;

pub use error::ModelViolation;
pub use executor::{RunOutcome, RunResult, ShardRoundOutput, Simulation};
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use input::{partition_blocks, Partition, PartitionStrategy};
pub use machine::{MachineLogic, Outbox, RoundCtx, SendRecord};
pub use message::{Inbox, InboxBuffer, InboxEntry, MachineId, Message, MsgRef};
pub use shard::{
    partition_shards, worker_serve, worker_serve_with, Ack, Frame, KillSpec, ShardError,
    Supervisor, SupervisorConfig,
};
pub use snapshot::{FaultSnapshot, SimulationSnapshot};
pub use stats::{RoundStats, SimStats};
pub use transport::{ChaosDirection, ChaosFaultKind, ChaosSpec, ForcedFault, TransportKind};
