//! The honest token-walking MPC algorithm.
//!
//! Machines hold replicated contiguous windows of input blocks
//! ([`super::BlockAssignment`]); a single *token* `(i, ℓ, r)` carries the
//! evaluation front. Per round, the machine holding the token advances the
//! line as far as its local blocks allow — each advance is one oracle query
//! — then hands the token to the machine routed for the next needed block.
//! Blocks persist by self-messaging, so the *entire* cross-round state is
//! message traffic, charged bit-for-bit against `s`.
//!
//! This is the strategy the paper's intuition describes ("the machines can
//! only learn the value of at most `s/u` new nodes" per round), and its
//! measured round complexity is exactly the theorems' envelope:
//!
//! * `SimLine`, contiguous windows: advances `≈ window` nodes per visit →
//!   `≈ w·u/s` rounds (Theorem A.1 tight).
//! * `Line`: each advance survives locally with probability `window/v`, so
//!   visits advance `≈ 1/(1 − window/v)` nodes → `≈ w·(1 − s/S)` rounds —
//!   `Ω(w)` for any `s ≤ S/c` (Theorem 3.1's shape).
//! * `window = v` (i.e. `s ≥ S` plus overhead): one round.

use super::{BlockAssignment, Codec, ParsedView};
use crate::params::LineParams;
use mph_bits::{BitSlice, BitVec};
use mph_mpc::{Inbox, MachineLogic, ModelViolation, Outbox, RoundCtx, Simulation};
use mph_oracle::{Oracle, RandomTape};
use std::cell::RefCell;
use std::sync::Arc;

/// Which function the pipeline computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// `Line` (Section 3): oracle-chosen pointers.
    Line,
    /// `SimLine` (Appendix A): the public cyclic schedule.
    SimLine,
}

/// The pipeline algorithm: configuration plus [`MachineLogic`].
pub struct Pipeline {
    params: LineParams,
    assignment: BlockAssignment,
    codec: Codec,
    target: Target,
}

impl Pipeline {
    /// A pipeline for `params` over `assignment`, computing `target`.
    pub fn new(params: LineParams, assignment: BlockAssignment, target: Target) -> Arc<Self> {
        assert_eq!(assignment.v, params.v, "assignment/params block count mismatch");
        Arc::new(Pipeline { params, assignment, codec: Codec::new(params), target })
    }

    /// The widest-memory configuration: one machine holds everything and
    /// finishes in one round (the trivial upper bound when `s ≥ S`).
    pub fn wide(params: LineParams, m: usize, target: Target) -> Arc<Self> {
        Self::new(params, BlockAssignment::new(params.v, m, params.v), target)
    }

    /// The instance parameters.
    pub fn params(&self) -> &LineParams {
        &self.params
    }

    /// The block assignment.
    pub fn assignment(&self) -> &BlockAssignment {
        &self.assignment
    }

    /// The wire codec.
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// Which function this pipeline computes.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The local memory `s` (bits) this configuration needs: the window
    /// plus a token, but never less than the `n`-bit oracle answer the
    /// finishing machine must hold to emit as output (the executor bounds a
    /// round's sends *plus output* by `s`).
    pub fn required_s(&self) -> usize {
        self.codec.required_s(self.assignment.window).max(self.params.n)
    }

    /// Builds a ready-to-run simulation: installs the logic on all `m`
    /// machines, seeds every machine's block window and the initial token
    /// `(i=1, ℓ=0, r=0^u)` at the machine routed for block 0.
    pub fn build_simulation(
        self: &Arc<Self>,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        s_bits: usize,
        q: Option<u64>,
        blocks: &[BitVec],
    ) -> Simulation {
        assert_eq!(blocks.len(), self.params.v, "expected v blocks");
        let mut sim = Simulation::new(self.assignment.m, s_bits, oracle, tape);
        if let Some(q) = q {
            sim.set_query_budget(q);
        }
        self.install_and_seed(&mut sim, blocks);
        sim
    }

    /// Reuses an already-built simulation for a fresh trial: swaps in the
    /// new oracle/tape/budget via [`Simulation::reinit`] (retaining the
    /// executor's internal buffers), reinstalls this pipeline's logic
    /// (the previous trial may have run a different pipeline with the
    /// same machine count), and re-seeds blocks and the initial token.
    /// Observationally identical to [`Self::build_simulation`]; the
    /// simulation must have matching `m` and `s_bits`.
    pub fn reset_simulation(
        self: &Arc<Self>,
        sim: &mut Simulation,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        q: Option<u64>,
        blocks: &[BitVec],
    ) {
        assert_eq!(blocks.len(), self.params.v, "expected v blocks");
        assert_eq!(sim.m(), self.assignment.m, "machine count mismatch on reuse");
        sim.reinit(oracle, tape, q);
        self.install_and_seed(sim, blocks);
    }

    /// The shared tail of [`Self::build_simulation`] and
    /// [`Self::reset_simulation`]: installs the logic on all machines,
    /// seeds every machine's block window, and places the initial token
    /// `(i=1, ℓ=0, r=0^u)` at the machine routed for block 0.
    fn install_and_seed(self: &Arc<Self>, sim: &mut Simulation, blocks: &[BitVec]) {
        let logic: Arc<dyn MachineLogic> = Arc::clone(self) as Arc<dyn MachineLogic>;
        sim.set_uniform_logic(logic);
        for machine in 0..self.assignment.m {
            for idx in self.assignment.blocks_of(machine) {
                sim.seed_memory(machine, self.codec.encode_block(idx, &blocks[idx]));
            }
        }
        let start = self.assignment.route(0);
        sim.seed_memory(start, self.codec.encode_token(1, 0, &BitVec::zeros(self.params.u)));
    }

    /// The block needed by node `i` when the current pointer is `l`.
    fn needed_block(&self, i: u64, l: usize) -> usize {
        match self.target {
            Target::Line => l,
            Target::SimLine => ((i - 1) % self.params.v as u64) as usize,
        }
    }

    /// One oracle step: query node `i` with block `x` and chain
    /// `scratch.r`, updating the scratch buffers in place and returning the
    /// new pointer `ℓ`. Steady-state advances touch only the reused
    /// buffers — no allocation per step.
    fn advance(
        &self,
        ctx: &RoundCtx<'_>,
        i: u64,
        x: &BitSlice<'_>,
        scratch: &mut WalkScratch,
    ) -> Result<usize, ModelViolation> {
        let r = scratch.r.as_view();
        match self.target {
            Target::Line => self.params.pack_query_into(i, x, &r, &mut scratch.query),
            Target::SimLine => self.params.pack_simline_query_into(x, &r, &mut scratch.query),
        }
        ctx.query_into(&scratch.query.as_view(), &mut scratch.answer)?;
        let l = match self.target {
            Target::Line => self.params.extract_pointer(&scratch.answer),
            // SimLine answers are (r, z): the chain value leads, and the
            // pointer is unused (the schedule is public).
            Target::SimLine => 0,
        };
        // The chain field of the answer becomes the next step's r. Copy it
        // out (u bits into a reused buffer) so the answer buffer is free to
        // be overwritten by the next query.
        let r_off = match self.target {
            Target::Line => self.params.l_width(),
            Target::SimLine => 0,
        };
        scratch.r.clear();
        scratch.r.extend_from_view(&scratch.answer.view(r_off, self.params.u));
        Ok(l)
    }
}

/// Where each block sits in the token holder's memory image: for block
/// `idx`, the inbox message and the record within it. Slots are stamped
/// with the walk that wrote them, so starting a walk empties the table
/// without touching its `v` slots.
#[derive(Default)]
struct BlockTable {
    walk: u32,
    slots: Vec<Slot>,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    walk: u32,
    msg: usize,
    record: usize,
}

impl BlockTable {
    /// Empties the table for a walk over `v` blocks.
    fn begin(&mut self, v: usize) {
        if self.slots.len() < v {
            self.slots.resize(v, Slot::default());
        }
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            self.slots.fill(Slot::default());
            self.walk = 1;
        }
    }

    /// Records that block `idx` is record `record` of message `msg`; a
    /// later insert for the same block replaces an earlier one.
    fn insert(&mut self, idx: usize, msg: usize, record: usize) {
        self.slots[idx] = Slot { walk: self.walk, msg, record };
    }

    /// The `(msg, record)` holding block `idx` in this walk, if any.
    fn get(&self, idx: usize) -> Option<(usize, usize)> {
        let slot = self.slots[idx];
        (slot.walk == self.walk).then_some((slot.msg, slot.record))
    }
}

/// Reusable state for the token walk: the block table, the chain value,
/// the packed query, the oracle answer, and the outgoing token. One
/// instance lives per worker thread, so the walk allocates nothing in
/// steady state.
#[derive(Default)]
struct WalkScratch {
    blocks: BlockTable,
    r: BitVec,
    query: BitVec,
    answer: BitVec,
    token: BitVec,
}

thread_local! {
    static WALK_SCRATCH: RefCell<WalkScratch> = RefCell::default();
}

impl MachineLogic for Pipeline {
    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        incoming: &Inbox<'_>,
        out: &mut Outbox,
    ) -> Result<(), ModelViolation> {
        // Parse memory zero-copy: the block window and (possibly) the
        // token stay as views into the round arena. Every block record is
        // validated every round by one header read
        // ([`Codec::validate_bundle`]). The window is persisted by
        // re-bundling every held block record into ONE concatenated
        // self-message — a machine's cross-round state is a single s-bit
        // memory image, and shipping it as a single message costs one send
        // record, one routing decision and one inbox entry per round
        // instead of one per block (the wire bits are identical). Round-0
        // seeds arrive as single-block bundles and coalesce on the first
        // forward.
        let mut token: Option<(u64, usize, BitSlice<'_>)> = None;
        let mut holds_blocks = false;
        for msg in incoming.iter() {
            if self.codec.validate_bundle(&msg.payload).is_some() {
                holds_blocks = true;
            } else if self.codec.bundle_records(&msg.payload).is_some() {
                return Err(ctx.error(format!(
                    "malformed block record in bundle ({} bits) in memory",
                    msg.payload.len()
                )));
            } else {
                match self.codec.decode_view(msg.payload) {
                    Some(ParsedView::Token { i, l, r }) => token = Some((i, l, r)),
                    _ => {
                        return Err(ctx.error(format!(
                            "malformed message ({} bits) in memory",
                            msg.payload.len()
                        )))
                    }
                }
            }
        }
        if holds_blocks {
            out.push_concat(
                ctx.machine(),
                incoming
                    .iter()
                    .filter(|msg| self.codec.bundle_records(&msg.payload).is_some())
                    .map(|msg| msg.payload),
            );
        }

        // Walk the line as far as local blocks allow. Only the token
        // holder indexes its blocks, from one more header read per record
        // into its thread's reused table; when an index repeats, the last
        // record in delivery order wins. Queried blocks stay zero-copy
        // views into the round arena, and the chain value, packed query,
        // oracle answer and outgoing token cycle through per-thread
        // buffers.
        let Some((mut i, mut l, r)) = token else {
            return Ok(());
        };
        WALK_SCRATCH.with_borrow_mut(|scratch| {
            scratch.blocks.begin(self.params.v);
            for (j, msg) in incoming.iter().enumerate() {
                if self.codec.bundle_records(&msg.payload).is_some() {
                    for (k, idx) in self.codec.bundle_indices(&msg.payload).enumerate() {
                        scratch.blocks.insert(idx, j, k);
                    }
                }
            }
            scratch.r.clear();
            scratch.r.extend_from_view(&r);
            loop {
                debug_assert!(i <= self.params.w, "token index past the line");
                let needed = self.needed_block(i, l);
                match scratch.blocks.get(needed) {
                    Some((j, k)) => {
                        let x = self.codec.record_body(&incoming.get(j).payload, k);
                        l = self.advance(ctx, i, &x, scratch)?;
                        i += 1;
                        if i > self.params.w {
                            // The answer to query w is the function output.
                            // The machine is done — drop the window
                            // persistence self-messages (there is no next
                            // round to persist for), so the round's sends
                            // plus the output stay within the s-bit send
                            // bound.
                            let me = ctx.machine();
                            out.retain_sends(|to| to != me);
                            out.emit(std::mem::take(&mut scratch.answer));
                            return Ok(());
                        }
                    }
                    None => {
                        let dest = self.assignment.route(needed);
                        debug_assert_ne!(
                            dest,
                            ctx.machine(),
                            "routed to self for a block we do not hold"
                        );
                        self.codec.encode_token_into(
                            i,
                            l,
                            &scratch.r.as_view(),
                            &mut scratch.token,
                        );
                        out.push(dest, &scratch.token);
                        return Ok(());
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Line, SimLine};
    use mph_bits::random_blocks;
    use mph_oracle::LazyOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(
        params: LineParams,
        m: usize,
        window: usize,
        target: Target,
        seed: u64,
    ) -> (BitVec, usize, Vec<BitVec>, LazyOracle) {
        let assignment = BlockAssignment::new(params.v, m, window);
        let pipeline = Pipeline::new(params, assignment, target);
        let oracle = Arc::new(LazyOracle::square(seed, params.n));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let s = pipeline.required_s();
        let mut sim =
            pipeline.build_simulation(oracle.clone(), RandomTape::new(0), s, None, &blocks);
        let result = sim.run_until_output(10 * params.w as usize + 10).unwrap();
        assert!(result.completed(), "pipeline must finish");
        (
            result.sole_output().unwrap().clone(),
            result.rounds(),
            blocks,
            LazyOracle::square(seed, params.n),
        )
    }

    #[test]
    fn line_pipeline_computes_the_function() {
        let params = LineParams::new(64, 60, 16, 12);
        let (out, _rounds, blocks, oracle) = run(params, 4, 4, Target::Line, 1);
        assert_eq!(out, Line::new(params).eval(&oracle, &blocks));
    }

    #[test]
    fn simline_pipeline_computes_the_function() {
        let params = LineParams::new(64, 60, 16, 12);
        let (out, _rounds, blocks, oracle) = run(params, 4, 4, Target::SimLine, 2);
        assert_eq!(out, SimLine::new(params).eval(&oracle, &blocks));
    }

    #[test]
    fn wide_memory_finishes_in_one_round() {
        let params = LineParams::new(64, 50, 16, 12);
        let (out, rounds, blocks, oracle) = run(params, 4, params.v, Target::Line, 3);
        assert_eq!(rounds, 1);
        assert_eq!(out, Line::new(params).eval(&oracle, &blocks));
    }

    #[test]
    fn simline_rounds_scale_inversely_with_window() {
        // Theorem A.1's tight shape: rounds ≈ w / window.
        let params = LineParams::new(64, 96, 16, 16);
        let (_, r_small, _, _) = run(params, 4, 4, Target::SimLine, 4);
        let (_, r_big, _, _) = run(params, 4, 8, Target::SimLine, 4);
        // window 4: ~w/4 = 24+; window 8: ~w/8 = 12+. Allow slack for
        // hop rounds.
        assert!(r_small > r_big, "rounds {r_small} vs {r_big}");
        assert!((20..=40).contains(&r_small), "r_small = {r_small}");
        assert!((10..=20).contains(&r_big), "r_big = {r_big}");
    }

    #[test]
    fn line_rounds_stay_linear_despite_big_windows() {
        // Theorem 3.1's shape: as long as window/v is bounded below 1,
        // rounds stay Ω(w) — unlike SimLine.
        let params = LineParams::new(64, 200, 16, 16);
        let (_, r4, _, _) = run(params, 4, 4, Target::Line, 5);
        let (_, r8, _, _) = run(params, 4, 8, Target::Line, 5);
        // Expected ≈ w(1 - f): f=0.25 -> 150, f=0.5 -> 100.
        assert!(r4 as f64 > 200.0 * 0.55, "r4 = {r4}");
        assert!(r8 as f64 > 200.0 * 0.3, "r8 = {r8}");
        // Both remain a constant fraction of w; the win from doubling the
        // window is bounded (vs SimLine's proportional win).
        assert!((r4 as f64) < 200.0, "r4 = {r4}");
        assert!(r8 < r4);
    }

    #[test]
    fn memory_bound_is_respected_exactly() {
        let params = LineParams::new(64, 30, 16, 12);
        let assignment = BlockAssignment::new(params.v, 4, 4);
        let pipeline = Pipeline::new(params, assignment, Target::Line);
        let oracle = Arc::new(LazyOracle::square(9, params.n));
        let mut rng = StdRng::seed_from_u64(9);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        // Exactly the required s works ...
        let s = pipeline.required_s();
        let mut sim =
            pipeline.build_simulation(oracle.clone(), RandomTape::new(0), s, None, &blocks);
        let result = sim.run_until_output(1000).unwrap();
        assert!(result.completed());
        assert!(result.stats.peak_memory_bits() <= s);
        // ... one bit less does not.
        let mut sim = pipeline.build_simulation(oracle, RandomTape::new(0), s - 1, None, &blocks);
        let err = sim.run_until_output(1000).unwrap_err();
        assert!(matches!(err, ModelViolation::MemoryExceeded { .. }));
    }

    #[test]
    fn query_budget_suffices_at_window_per_round() {
        let params = LineParams::new(64, 40, 16, 8);
        let assignment = BlockAssignment::new(params.v, 4, 4);
        let pipeline = Pipeline::new(params, assignment, Target::SimLine);
        let oracle = Arc::new(LazyOracle::square(10, params.n));
        let mut rng = StdRng::seed_from_u64(10);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let s = pipeline.required_s();
        // SimLine advances at most window+? nodes per visit; q = window + 1
        // is plenty.
        let mut sim = pipeline.build_simulation(
            oracle,
            RandomTape::new(0),
            s,
            Some(params.v as u64 + 1),
            &blocks,
        );
        let result = sim.run_until_output(1000).unwrap();
        assert!(result.completed());
        assert!(result.stats.peak_queries() <= params.v as u64 + 1);
    }

    #[test]
    fn reset_simulation_matches_fresh_build_across_targets() {
        // One simulation carried across trials — including a switch of
        // pipeline (Line → SimLine) with the same machine count — must
        // reproduce fresh-built runs exactly.
        let params = LineParams::new(64, 60, 16, 12);
        let assignment = BlockAssignment::new(params.v, 4, 4);
        let line = Pipeline::new(params, assignment, Target::Line);
        let simline = Pipeline::new(params, assignment, Target::SimLine);
        let s = line.required_s().max(simline.required_s());

        let fresh = |pipeline: &Arc<Pipeline>, seed: u64| {
            let oracle = Arc::new(LazyOracle::square(seed, params.n));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
            let blocks = random_blocks(&mut rng, params.v, params.u);
            let mut sim =
                pipeline.build_simulation(oracle, RandomTape::new(seed), s, None, &blocks);
            sim.run_until_output(10_000).unwrap()
        };

        let mut sim = {
            let oracle = Arc::new(LazyOracle::square(7, params.n));
            let mut rng = StdRng::seed_from_u64(7 ^ 0x55);
            let blocks = random_blocks(&mut rng, params.v, params.u);
            line.build_simulation(oracle, RandomTape::new(7), s, None, &blocks)
        };
        sim.run_until_output(10_000).unwrap();

        for (pipeline, seed) in [(&line, 21u64), (&simline, 22), (&line, 23), (&simline, 21)] {
            let oracle = Arc::new(LazyOracle::square(seed, params.n));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
            let blocks = random_blocks(&mut rng, params.v, params.u);
            pipeline.reset_simulation(&mut sim, oracle, RandomTape::new(seed), None, &blocks);
            let reused = sim.run_until_output(10_000).unwrap();
            let baseline = fresh(pipeline, seed);
            assert_eq!(reused.outputs, baseline.outputs);
            assert_eq!(reused.rounds(), baseline.rounds());
            assert_eq!(reused.stats, baseline.stats);
        }
    }

    /// Rewrites a window self-message in place.
    type TamperFn = fn(&Pipeline, &mut BitVec);

    /// The honest pipeline, except that after machine `victim`'s round
    /// `at` its window self-message is rewritten by `tamper`.
    struct Tamper {
        inner: Arc<Pipeline>,
        victim: usize,
        at: usize,
        tamper: TamperFn,
    }

    impl MachineLogic for Tamper {
        fn round(
            &self,
            ctx: &RoundCtx<'_>,
            incoming: &Inbox<'_>,
            out: &mut Outbox,
        ) -> Result<(), ModelViolation> {
            if ctx.machine() != self.victim || ctx.round() != self.at {
                return self.inner.round(ctx, incoming, out);
            }
            let mut honest = Outbox::new();
            self.inner.round(ctx, incoming, &mut honest)?;
            for send in honest.sends() {
                let mut payload = honest.payload(send).to_bitvec();
                if send.to == self.victim {
                    (self.tamper)(&self.inner, &mut payload);
                }
                out.push(send.to, &payload);
            }
            if let Some(output) = honest.output.take() {
                out.emit(output);
            }
            Ok(())
        }
    }

    /// A Line run whose `v = 12` leaves index values 12..16 representable
    /// but out of range, with memory head-room for appended bits.
    fn malformed_setup() -> (Arc<Pipeline>, Simulation) {
        let params = LineParams::new(64, 60, 16, 12);
        let pipeline = Pipeline::new(params, BlockAssignment::new(12, 4, 4), Target::Line);
        let oracle = Arc::new(LazyOracle::square(12, params.n));
        let mut rng = StdRng::seed_from_u64(12);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let s = pipeline.required_s() + 64;
        let sim = pipeline.build_simulation(oracle, RandomTape::new(0), s, None, &blocks);
        (pipeline, sim)
    }

    fn malformed(machine: usize, round: usize, what: &str, bits: usize) -> ModelViolation {
        ModelViolation::AlgorithmError {
            machine,
            round,
            reason: format!("{what} ({bits} bits) in memory"),
        }
    }

    const BAD_RECORD: &str = "malformed block record in bundle";
    const BAD_MESSAGE: &str = "malformed message";

    #[test]
    fn malformed_seeded_memory_is_rejected_in_round_zero() {
        let (pipeline, _) = malformed_setup();
        let codec = pipeline.codec();
        let bb = codec.block_bits();
        let record = codec.encode_block(3, &BitVec::ones(16));
        let mut flipped_tag = record.clone();
        flipped_tag.write_u64(0, 0, 2);
        let mut out_of_range = record.clone();
        out_of_range.write_u64(2, 14, pipeline.params().l_width());
        let mut ragged = record;
        ragged.extend_zeros(3);
        let cases = [
            (flipped_tag, malformed(2, 0, BAD_MESSAGE, bb)),
            (out_of_range, malformed(2, 0, BAD_RECORD, bb)),
            (ragged, malformed(2, 0, BAD_MESSAGE, bb + 3)),
        ];
        for (payload, expected) in cases {
            let (_, mut sim) = malformed_setup();
            sim.seed_memory(2, payload);
            assert_eq!(sim.run_until_output(1000).unwrap_err(), expected);
        }
    }

    #[test]
    fn malformed_window_bundle_is_rejected_the_next_round() {
        // Machine 1's steady-state window is one 4-record bundle; each
        // tamper breaks it at round 3, and the machine must refuse its
        // memory image at round 4.
        let (pipeline, _) = malformed_setup();
        let window_bits = 4 * pipeline.codec().block_bits();
        let cases: [(TamperFn, ModelViolation); 4] = [
            // A later record's tag: still bundle-shaped, one bad record.
            (
                |p, bundle| bundle.write_u64(p.codec().block_bits(), 3, 2),
                malformed(1, 4, BAD_RECORD, window_bits),
            ),
            // The leading tag: no longer a bundle, and not a token either.
            (|_, bundle| bundle.write_u64(0, 2, 2), malformed(1, 4, BAD_MESSAGE, window_bits)),
            // The last record's index, out of range.
            (
                |p, bundle| {
                    let l_width = p.params().l_width();
                    bundle.write_u64(3 * p.codec().block_bits() + 2, 15, l_width)
                },
                malformed(1, 4, BAD_RECORD, window_bits),
            ),
            // Not a whole number of records.
            (|_, bundle| bundle.extend_zeros(5), malformed(1, 4, BAD_MESSAGE, window_bits + 5)),
        ];
        for (tamper, expected) in cases {
            let (pipeline, mut sim) = malformed_setup();
            sim.set_logic(1, Arc::new(Tamper { inner: pipeline, victim: 1, at: 3, tamper }));
            assert_eq!(sim.run_until_output(1000).unwrap_err(), expected);
        }
    }

    #[test]
    fn repeated_block_index_last_record_wins() {
        // Every holder of block 0 also gets a later record for block 0
        // with another body. The walk must use the later body everywhere,
        // i.e. compute the function of the patched input.
        let params = LineParams::new(64, 60, 16, 12);
        let assignment = BlockAssignment::new(params.v, 4, 4);
        let pipeline = Pipeline::new(params, assignment, Target::Line);
        let oracle = Arc::new(LazyOracle::square(13, params.n));
        let mut rng = StdRng::seed_from_u64(13);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let mut patched = blocks.clone();
        patched[0] = BitVec::from_u64(!blocks[0].read_u64(0, 16) & 0xFFFF, 16);
        let s = pipeline.required_s() + pipeline.codec().block_bits();
        let mut sim =
            pipeline.build_simulation(oracle.clone(), RandomTape::new(0), s, None, &blocks);
        for machine in (0..assignment.m).filter(|&j| assignment.holds(j, 0)) {
            sim.seed_memory(machine, pipeline.codec().encode_block(0, &patched[0]));
        }
        let result = sim.run_until_output(1000).unwrap();
        let line = Line::new(params);
        assert_eq!(result.sole_output().unwrap(), &line.eval(&*oracle, &patched));
        assert_ne!(result.sole_output().unwrap(), &line.eval(&*oracle, &blocks));
    }

    #[test]
    fn block_table_empties_on_every_walk_including_wraparound() {
        let mut table = BlockTable::default();
        table.begin(4);
        table.insert(2, 0, 1);
        table.insert(2, 1, 3);
        assert_eq!(table.get(2), Some((1, 3)));
        assert_eq!(table.get(1), None);
        table.begin(8);
        assert_eq!(table.get(2), None);
        table.insert(7, 0, 0);
        // A stamp wrapping to zero must not revive slots written under it.
        table.walk = u32::MAX;
        table.insert(5, 0, 0);
        table.begin(8);
        assert_eq!(table.walk, 1);
        assert!((0..8).all(|idx| table.get(idx).is_none()));
    }

    #[test]
    fn total_queries_equal_w() {
        // The honest algorithm queries each node exactly once.
        let params = LineParams::new(64, 70, 16, 8);
        let (out, _, blocks, oracle) = run(params, 4, 3, Target::Line, 11);
        let _ = (out, blocks, oracle);
        let assignment = BlockAssignment::new(params.v, 4, 3);
        let pipeline = Pipeline::new(params, assignment, Target::Line);
        let oracle = Arc::new(LazyOracle::square(11, params.n));
        let mut rng = StdRng::seed_from_u64(11 ^ 0x55);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let s = pipeline.required_s();
        let mut sim = pipeline.build_simulation(oracle, RandomTape::new(0), s, None, &blocks);
        let result = sim.run_until_output(10_000).unwrap();
        assert_eq!(result.stats.total_queries(), params.w);
    }
}
