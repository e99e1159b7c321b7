//! The sweep engine: one pool pass over a whole parameter grid.
//!
//! Every round-complexity experiment has the same shape — a grid of
//! *cells* (one pipeline configuration each), a handful of independent
//! `(RO, X)` trials per cell, and a table row plus a telemetry snapshot
//! per cell. Before this module, each binary looped over its cells and
//! parallelized only *within* a cell, so the pool drained and refilled
//! once per parameter point and the tail of each point ran
//! under-subscribed. [`run_sweep`] instead fans **all** (cell × trial
//! chunk) units of an experiment into a single pool pass: workers pull
//! whichever cell still has trials left, each chunk reuses one
//! simulation via [`theorem::TrialRunner`], and results are reassembled
//! in cell-then-seed order.
//!
//! The engine degrades instead of dying. Each chunk runs inside
//! `catch_unwind`, so a panicking cell (a misconfigured memory bound, an
//! incorrect fault-free trial) is marked [`CellStatus::Failed`] with its
//! panic message while every other cell completes normally. Cells may
//! also opt into fault injection ([`Cell::faults`]): their trials run
//! under a deterministic [`mph_mpc::FaultPlan`], failed trials are
//! retried with a deterministically reseeded schedule under the shared
//! supervisor policy [`RetryPolicy::for_retries`]`(cell.retries)` (see
//! [`mph_mpc::faults::derive_seed`]), and the injected faults are
//! tallied in the cell's telemetry snapshot. A report built from a sweep
//! should carry [`degraded`] as its health flag.
//!
//! Determinism: trial `t` of cell `c` is a pure function of
//! `(pipeline_c, base_seed_c + t)` (plus `(fault_seed_c, attempt)` for
//! faulty cells), chunks are reassembled in input order, and each cell's
//! [`Recorder`] fold is order-independent — so the completed
//! [`CellResult`]s (and any report built from them) are byte-identical
//! regardless of `RAYON_NUM_THREADS` or scheduling. The cross-crate test
//! `sweep_determinism` pins this down by diffing whole report files
//! across thread counts.

use mph_core::theorem::{self, MeasurablePipeline, RetryPolicy, RoundMeasurement, TrialRunner};
use mph_metrics::{MetricsSink, MetricsSnapshot, Recorder};
use mph_mpc::FaultSpec;
use mph_oracle::OracleHub;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One parameter point of a sweep: a pipeline plus its trial plan.
pub struct Cell {
    /// Display label for tables and telemetry keys (e.g. `"window=16"`).
    pub label: String,
    /// The configuration to run — any [`MeasurablePipeline`] (the plain
    /// pipeline or the replicated, fault-tolerant one).
    pub pipeline: Arc<dyn MeasurablePipeline>,
    /// Per-machine memory override; `None` uses the pipeline's
    /// required memory.
    pub s_bits: Option<usize>,
    /// Per-round query budget; `None` leaves it unenforced.
    pub q: Option<u64>,
    /// Number of independent `(RO, X)` draws.
    pub trials: usize,
    /// Seed of trial 0; trial `t` uses `base_seed + t`.
    pub base_seed: u64,
    /// Round cap per trial.
    pub max_rounds: usize,
    /// Record a tagged [`MetricsSnapshot`] for this cell.
    pub telemetry: bool,
    /// Fault rates injected into every trial; `None` runs fault-free
    /// (and then an incorrect trial fails the cell — see
    /// [`CellStatus`]).
    pub faults: Option<FaultSpec>,
    /// Base seed of the fault schedules; trial `t`, attempt `a` uses
    /// `derive_seed(fault_seed, base_seed + t, a)`.
    pub fault_seed: u64,
    /// Extra attempts per faulty trial that fails: each retry reruns the
    /// same `(RO, X)` instance under a reseeded fault schedule. Only
    /// consulted when [`Cell::faults`] is set.
    pub retries: usize,
    /// Shared warm oracle tables (see [`OracleHub`]); `None` builds a
    /// private per-seed cache per trial chunk, exactly as before. A
    /// daemon hosting many sessions passes one hub to every cell so
    /// seeds warmed by one session answer from the shared table in the
    /// next — byte-identically.
    pub hub: Option<Arc<OracleHub>>,
}

impl Cell {
    /// A telemetry-recording, fault-free cell with default memory and no
    /// query budget — the configuration every envelope experiment uses.
    pub fn new<P: MeasurablePipeline + 'static>(
        label: impl Into<String>,
        pipeline: Arc<P>,
        trials: usize,
        base_seed: u64,
        max_rounds: usize,
    ) -> Self {
        Cell {
            label: label.into(),
            pipeline,
            s_bits: None,
            q: None,
            trials,
            base_seed,
            max_rounds,
            telemetry: true,
            faults: None,
            fault_seed: 0,
            retries: 0,
            hub: None,
        }
    }

    /// Injects faults into this cell's trials: every trial runs under a
    /// deterministic schedule at `spec`'s rates, and a failed trial is
    /// retried up to `retries` times with a reseeded schedule.
    pub fn with_faults(mut self, spec: FaultSpec, fault_seed: u64, retries: usize) -> Self {
        self.faults = Some(spec);
        self.fault_seed = fault_seed;
        self.retries = retries;
        self
    }

    /// Checks this cell's per-seed oracle caches out of a shared
    /// [`OracleHub`] instead of building private ones. Observationally
    /// invisible — results are byte-identical with or without a hub.
    pub fn with_hub(mut self, hub: Arc<OracleHub>) -> Self {
        self.hub = Some(hub);
        self
    }
}

/// Health of a completed cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Every trial ran to a measurement. (Under injected faults,
    /// individual trials may still be incorrect — that is the
    /// experiment's data, visible in [`CellResult::measurements`].)
    Ok,
    /// The cell could not be measured: a worker panicked mid-chunk, or a
    /// fault-free trial produced an incorrect output. Other cells of the
    /// sweep are unaffected.
    Failed {
        /// The panic message or correctness-failure description.
        reason: String,
    },
    /// Every trial of a fault-injected cell ran but none produced the
    /// correct output. That is legitimate data (e.g. ρ = 1 under a high
    /// crash rate collapses to 0/N correct), but the cell has no correct
    /// trials to average over — its `mean_rounds` is a placeholder `0.0`,
    /// never `NaN` — so a report built on it must carry the degraded
    /// flag rather than present the mean as a measurement.
    Degraded {
        /// Why the cell has no usable mean.
        reason: String,
    },
}

impl CellStatus {
    /// Whether this is [`CellStatus::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, CellStatus::Failed { .. })
    }

    /// Whether this is [`CellStatus::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, CellStatus::Degraded { .. })
    }
}

/// A completed cell: its per-trial measurements (in seed order) and the
/// telemetry snapshot recorded across them.
pub struct CellResult {
    /// The cell's label, copied through.
    pub label: String,
    /// Whether the cell's trials all ran (see [`CellStatus`]).
    pub status: CellStatus,
    /// Trial `t`'s measurement — for fault-free cells identical to
    /// `measure_rounds(pipeline, base_seed + t, ..)`. A failed cell
    /// keeps the measurements of the chunks that survived.
    pub measurements: Vec<RoundMeasurement>,
    /// Mean rounds across the correct trials (`0.0` when none were).
    pub mean_rounds: f64,
    /// Total retry attempts spent on this cell's faulty trials.
    pub retries_used: usize,
    /// The cell's aggregated telemetry (when requested), tagged via
    /// [`theorem::run_tags`] with the resolved `s` and `q`. Boxed,
    /// because inline the snapshot is most of a `CellResult`'s size and
    /// most cells carry none: a caller that keeps many results holds
    /// about a third of the bytes per cell.
    pub snapshot: Option<Box<MetricsSnapshot>>,
}

impl CellResult {
    /// Injected-fault tallies folded from the cell's telemetry: fault
    /// kind (`"crash"`, `"message_dropped"`, …) → occurrences across all
    /// trials (including retried attempts). Empty without telemetry or
    /// when nothing fired.
    pub fn fault_tallies(&self) -> BTreeMap<String, u64> {
        self.snapshot.as_ref().map(|s| s.faults.clone()).unwrap_or_default()
    }

    /// Trials whose final attempt completed with the correct output.
    pub fn correct_trials(&self) -> usize {
        self.measurements.iter().filter(|m| m.correct).count()
    }
}

/// Whether any cell of a completed sweep failed or has no correct trials
/// to average — the `degraded` flag a report built from these results
/// should carry.
pub fn degraded(results: &[CellResult]) -> bool {
    results.iter().any(|r| r.status.is_failed() || r.status.is_degraded())
}

/// How many trial chunks to aim for per cell. Oversplitting lets the
/// pool balance cells of uneven cost; chunks stay long enough that
/// simulation reuse amortizes.
const CHUNKS_PER_CELL: usize = 4;

/// Runs every cell of a sweep through one pool pass and returns the
/// results in cell order. A cell whose worker panics — or whose
/// fault-free trial produces an incorrect output — comes back
/// [`CellStatus::Failed`] with the reason; the remaining cells complete
/// normally. Check [`degraded`] before trusting a sweep's aggregate.
pub fn run_sweep(cells: Vec<Cell>) -> Vec<CellResult> {
    let recorders: Vec<Option<Arc<Recorder>>> = cells
        .iter()
        .map(|cell| {
            cell.telemetry.then(|| {
                let recorder = Arc::new(Recorder::new());
                let s = cell.s_bits.unwrap_or_else(|| cell.pipeline.required_s());
                theorem::run_tags(&recorder, cell.pipeline.params(), s, cell.q);
                recorder
            })
        })
        .collect();

    // Flatten the grid into (cell, seed-chunk) units — the single pool
    // pass — then reassemble per cell. Units are generated and collected
    // in (cell, chunk) order, so concatenation restores seed order.
    let mut units: Vec<(usize, u64, usize)> = Vec::new(); // (cell, seed0, len)
    for (ci, cell) in cells.iter().enumerate() {
        let chunk = cell.trials.div_ceil(CHUNKS_PER_CELL).max(1);
        let mut t = 0usize;
        while t < cell.trials {
            let len = chunk.min(cell.trials - t);
            units.push((ci, cell.base_seed.wrapping_add(t as u64), len));
            t += len;
        }
    }
    type ChunkOutcome = Result<(Vec<RoundMeasurement>, usize), String>;
    let measured: Vec<ChunkOutcome> = units
        .par_iter()
        .map(|&(ci, seed0, len)| {
            let cell = &cells[ci];
            let sink: Option<Arc<dyn MetricsSink>> =
                recorders[ci].clone().map(|r| r as Arc<dyn MetricsSink>);
            // The unwind boundary sits inside the pool closure: a panic
            // poisons only this chunk's cell, not the whole sweep (the
            // pool rethrows worker panics on the submitting thread).
            catch_unwind(AssertUnwindSafe(|| run_chunk(cell, seed0, len, sink)))
                .map_err(|payload| panic_reason(payload.as_ref()))
        })
        .collect();

    let mut per_cell: Vec<Vec<RoundMeasurement>> =
        cells.iter().map(|cell| Vec::with_capacity(cell.trials)).collect();
    let mut failures: Vec<Option<String>> = cells.iter().map(|_| None).collect();
    let mut retries_used: Vec<usize> = vec![0; cells.len()];
    for (&(ci, _, _), outcome) in units.iter().zip(measured) {
        match outcome {
            Ok((chunk, retries)) => {
                per_cell[ci].extend(chunk);
                retries_used[ci] += retries;
            }
            Err(reason) => {
                failures[ci].get_or_insert(reason);
            }
        }
    }
    cells
        .into_iter()
        .zip(per_cell)
        .zip(failures)
        .zip(retries_used)
        .zip(recorders)
        .map(|((((cell, measurements), failure), retries_used), recorder)| {
            let status = cell_status(&cell, &measurements, failure);
            let correct: Vec<RoundMeasurement> =
                measurements.iter().filter(|m| m.correct).cloned().collect();
            CellResult {
                label: cell.label,
                status,
                mean_rounds: if correct.is_empty() { 0.0 } else { theorem::mean_of(&correct) },
                measurements,
                retries_used,
                snapshot: recorder.map(|r| Box::new(r.snapshot())),
            }
        })
        .collect()
}

/// One contiguous seed chunk of a cell: `len` trials from `seed0`,
/// sharing a [`TrialRunner`]. Returns the measurements plus the retry
/// attempts spent.
fn run_chunk(
    cell: &Cell,
    seed0: u64,
    len: usize,
    sink: Option<Arc<dyn MetricsSink>>,
) -> (Vec<RoundMeasurement>, usize) {
    let mut runner = match &cell.hub {
        Some(hub) => TrialRunner::new().with_hub(Arc::clone(hub)),
        None => TrialRunner::new(),
    };
    let mut retries = 0usize;
    let measurements = (0..len as u64)
        .map(|t| {
            let seed = seed0.wrapping_add(t);
            let Some(spec) = cell.faults else {
                return runner.measure(
                    &cell.pipeline,
                    seed,
                    cell.s_bits,
                    cell.q,
                    cell.max_rounds,
                    sink.clone(),
                );
            };
            // `retries` extra attempts = `retries + 1` total attempts;
            // RetryPolicy::for_retries documents exactly this mapping.
            let outcome = runner.measure_with_policy(
                &cell.pipeline,
                seed,
                cell.s_bits,
                cell.q,
                cell.max_rounds,
                sink.clone(),
                Some((spec, cell.fault_seed)),
                &RetryPolicy::for_retries(cell.retries),
            );
            retries += outcome.attempts - 1;
            outcome.measurement
        })
        .collect();
    (measurements, retries)
}

fn cell_status(
    cell: &Cell,
    measurements: &[RoundMeasurement],
    failure: Option<String>,
) -> CellStatus {
    if let Some(reason) = failure {
        return CellStatus::Failed { reason };
    }
    if cell.faults.is_none() {
        // Fault-free trials are honest-algorithm measurements: a wrong
        // answer is a configuration bug, and the cell says so instead of
        // poisoning the whole sweep.
        if let Some(t) = measurements.iter().position(|m| !m.correct) {
            return CellStatus::Failed { reason: format!("trial {t}: incorrect output") };
        }
    } else if !measurements.is_empty() && measurements.iter().all(|m| !m.correct) {
        // All trials of a faulty cell failed: a real data point, but one
        // with no correct trials to average, so the mean is not a
        // measurement and downstream reports must say so.
        return CellStatus::Degraded {
            reason: format!("0/{} trials correct under injected faults", measurements.len()),
        };
    }
    CellStatus::Ok
}

/// Renders a caught panic payload (`&str` or `String`, the two shapes
/// `panic!` produces) into the failure reason.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

/// Maps `f` over grid items on the worker pool, preserving input order —
/// the sweep primitive for experiments whose cells are pure computation
/// (the parameter-table regenerators) rather than simulator trials.
pub fn grid_map<T, O, F>(items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    items.into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::algorithms::pipeline::{Pipeline, Target};
    use mph_core::algorithms::{BlockAssignment, ReplicatedPipeline};
    use mph_core::LineParams;

    fn cell(label: &str, target: Target, trials: usize, seed: u64) -> Cell {
        let params = LineParams::new(64, 48, 16, 8);
        let pipeline = Pipeline::new(params, BlockAssignment::new(8, 4, 3), target);
        Cell::new(label, pipeline, trials, seed, 10_000)
    }

    #[test]
    fn sweep_matches_per_cell_batches() {
        let results = run_sweep(vec![
            cell("line", Target::Line, 5, 100),
            cell("simline", Target::SimLine, 3, 200),
        ]);
        assert_eq!(results.len(), 2);
        let line = cell("line", Target::Line, 5, 100);
        let expected = theorem::measure_rounds_batch(&line.pipeline, 5, 100, None, None, 10_000);
        assert_eq!(results[0].measurements, expected);
        assert_eq!(results[0].mean_rounds, theorem::mean_of(&expected));
        assert_eq!(results[0].status, CellStatus::Ok);
        assert_eq!(results[1].measurements.len(), 3);
        assert!(!degraded(&results));
    }

    #[test]
    fn sweep_telemetry_is_tagged_and_aggregated() {
        let results = run_sweep(vec![cell("c", Target::SimLine, 4, 50)]);
        let snap = results[0].snapshot.as_ref().expect("telemetry requested");
        assert_eq!(snap.tags["w"], "48");
        // Oracle-query counts fold additively across trials; rounds are
        // keyed by index, so totals.rounds is the longest trial.
        let queries: u64 = results[0].measurements.iter().map(|m| m.total_queries).sum();
        assert_eq!(snap.totals.oracle_queries, queries);
        let longest = results[0].measurements.iter().map(|m| m.rounds).max().unwrap();
        assert_eq!(snap.totals.rounds as usize, longest);
    }

    #[test]
    fn telemetry_can_be_disabled() {
        let mut c = cell("quiet", Target::Line, 2, 10);
        c.telemetry = false;
        let results = run_sweep(vec![c]);
        assert!(results[0].snapshot.is_none());
    }

    #[test]
    fn panicking_cell_fails_alone() {
        // s_bits = 1 can't hold the input delivery: the fault-free
        // TrialRunner treats the resulting ModelViolation as a harness
        // bug and panics. The sweep must contain that panic to the cell.
        let mut poisoned = cell("poisoned", Target::Line, 3, 10);
        poisoned.s_bits = Some(1);
        let results = run_sweep(vec![
            cell("before", Target::Line, 3, 100),
            poisoned,
            cell("after", Target::SimLine, 3, 200),
        ]);
        assert_eq!(results[0].status, CellStatus::Ok);
        assert_eq!(results[2].status, CellStatus::Ok);
        assert_eq!(results[0].measurements.len(), 3);
        assert_eq!(results[2].measurements.len(), 3);
        let CellStatus::Failed { reason } = &results[1].status else {
            panic!("poisoned cell should fail");
        };
        assert!(reason.contains("model violations"), "unexpected reason: {reason}");
        assert!(degraded(&results));
    }

    #[test]
    fn faulty_cells_tally_faults_without_failing() {
        let spec = FaultSpec { drop_rate: 0.05, ..FaultSpec::default() };
        let results =
            run_sweep(vec![cell("faulty", Target::SimLine, 4, 50).with_faults(spec, 7, 0)]);
        assert_eq!(results[0].status, CellStatus::Ok, "faulty trials are data, not bugs");
        let tallies = results[0].fault_tallies();
        assert!(tallies.contains_key("message_dropped"), "tallies: {tallies:?}");
        assert!(!degraded(&results));
    }

    #[test]
    fn retries_recover_transient_fault_cells() {
        // Crash rate high enough that most schedules kill the 4-machine
        // plain pipeline, low enough that some reseeded schedule leaves
        // it alone: with a retry budget the cell ends up with more
        // correct trials than without one.
        let spec = FaultSpec { crash_rate: 0.02, ..FaultSpec::default() };
        let without = run_sweep(vec![cell("r0", Target::SimLine, 6, 50).with_faults(spec, 3, 0)]);
        let with = run_sweep(vec![cell("r8", Target::SimLine, 6, 50).with_faults(spec, 3, 8)]);
        assert!(with[0].retries_used > 0, "retries should have been needed");
        assert!(
            with[0].correct_trials() >= without[0].correct_trials(),
            "retries can only help: {} vs {}",
            with[0].correct_trials(),
            without[0].correct_trials()
        );
        assert!(with[0].correct_trials() > 0, "some reseeded schedule should succeed");
    }

    #[test]
    fn sweeps_accept_replicated_pipelines() {
        let params = LineParams::new(64, 48, 16, 8);
        let replicated = ReplicatedPipeline::new(params, 4, 3, 2, Target::SimLine);
        let results = run_sweep(vec![Cell::new("rho=2", replicated, 3, 100, 10_000)]);
        assert_eq!(results[0].status, CellStatus::Ok);
        assert_eq!(results[0].correct_trials(), 3);
        assert!(results[0].mean_rounds > 0.0);
    }

    #[test]
    fn faulty_sweeps_are_deterministic() {
        let spec = FaultSpec {
            drop_rate: 0.02,
            crash_rate: 0.005,
            straggler_rate: 0.02,
            ..FaultSpec::default()
        };
        let run = || {
            run_sweep(vec![
                cell("a", Target::SimLine, 5, 40).with_faults(spec, 11, 2),
                cell("b", Target::Line, 4, 70).with_faults(spec, 13, 1),
            ])
        };
        let (first, second) = (run(), run());
        for (x, y) in first.iter().zip(&second) {
            assert_eq!(x.measurements, y.measurements);
            assert_eq!(x.retries_used, y.retries_used);
            assert_eq!(x.fault_tallies(), y.fault_tallies());
            assert_eq!(
                x.snapshot.as_ref().map(|s| s.to_json_string()),
                y.snapshot.as_ref().map(|s| s.to_json_string())
            );
        }
    }

    #[test]
    fn retry_accounting_is_pinned() {
        // `retries = r` means r + 1 total attempts per trial, and
        // `retries_used` counts attempts beyond the first. Pin the exact
        // counts against a hand-rolled reseeded loop so the RetryPolicy
        // refactor can never silently shift the attempt budget.
        use mph_mpc::faults::derive_seed;
        use mph_mpc::FaultPlan;
        let spec = FaultSpec { crash_rate: 0.02, ..FaultSpec::default() };
        let (trials, base_seed, retries) = (6usize, 50u64, 3usize);
        let results = run_sweep(vec![
            cell("pinned", Target::SimLine, trials, base_seed).with_faults(spec, 3, retries)
        ]);
        let reference = cell("pinned", Target::SimLine, trials, base_seed);
        let mut runner = TrialRunner::new();
        let mut expected_retries = 0usize;
        let expected: Vec<RoundMeasurement> = (0..trials as u64)
            .map(|t| {
                let seed = base_seed + t;
                let mut attempt = 0u64;
                loop {
                    let plan = FaultPlan::new(derive_seed(3, seed, attempt), spec);
                    let m = runner.measure_with_faults(
                        &reference.pipeline,
                        seed,
                        None,
                        None,
                        10_000,
                        None,
                        Some(plan),
                    );
                    if m.correct || attempt as usize >= retries {
                        return m;
                    }
                    attempt += 1;
                    expected_retries += 1;
                }
            })
            .collect();
        assert_eq!(results[0].measurements, expected);
        assert_eq!(results[0].retries_used, expected_retries);
        assert!(expected_retries > 0, "the pinned spec should force at least one retry");
    }

    /// A pipeline whose every trial panics before producing a
    /// measurement — the worst-behaved configuration a daemon-hosted
    /// sweep can be handed.
    struct AlwaysPanics {
        params: LineParams,
    }

    impl MeasurablePipeline for AlwaysPanics {
        fn params(&self) -> &LineParams {
            &self.params
        }
        fn target(&self) -> Target {
            Target::Line
        }
        fn machines(&self) -> usize {
            4
        }
        fn required_s(&self) -> usize {
            1024
        }
        fn build_simulation(
            self: Arc<Self>,
            _oracle: Arc<dyn mph_oracle::Oracle>,
            _tape: mph_oracle::RandomTape,
            _s_bits: usize,
            _q: Option<u64>,
            _blocks: &[mph_bits::BitVec],
        ) -> mph_mpc::Simulation {
            panic!("this pipeline always panics");
        }
        fn reset_simulation(
            self: Arc<Self>,
            _sim: &mut mph_mpc::Simulation,
            _oracle: Arc<dyn mph_oracle::Oracle>,
            _tape: mph_oracle::RandomTape,
            _q: Option<u64>,
            _blocks: &[mph_bits::BitVec],
        ) {
            panic!("this pipeline always panics");
        }
    }

    #[test]
    fn all_panicking_trials_yield_failed_status_and_finite_mean() {
        // Regression: a cell whose trials *all* die must publish a
        // Failed status and a finite placeholder mean — never a NaN that
        // leaks into report JSON (Json::F64 renders non-finite as null,
        // which would silently corrupt the published table).
        let params = LineParams::new(64, 48, 16, 8);
        let results = run_sweep(vec![
            Cell::new("panics", Arc::new(AlwaysPanics { params }), 4, 10, 10_000),
            cell("healthy", Target::Line, 3, 100),
        ]);
        assert!(results[0].status.is_failed(), "status: {:?}", results[0].status);
        assert!(results[0].measurements.is_empty());
        assert!(results[0].mean_rounds.is_finite(), "mean must never be NaN");
        assert_eq!(results[0].mean_rounds, 0.0);
        assert_eq!(results[1].status, CellStatus::Ok, "healthy cell unaffected");
        assert!(degraded(&results));
    }

    #[test]
    fn all_failed_faulty_trials_degrade_instead_of_publishing_a_mean() {
        // crash_rate = 1.0 kills every machine in round 1 of every
        // attempt: all trials run, none is correct. That is data, not a
        // harness bug — but the cell must say Degraded (and the sweep
        // degraded()) instead of presenting mean_rounds = 0.0 as a
        // measurement.
        let spec = FaultSpec { crash_rate: 1.0, ..FaultSpec::default() };
        let results =
            run_sweep(vec![cell("doomed", Target::SimLine, 3, 50).with_faults(spec, 7, 1)]);
        assert_eq!(results[0].measurements.len(), 3, "every trial still ran");
        assert_eq!(results[0].correct_trials(), 0);
        let CellStatus::Degraded { reason } = &results[0].status else {
            panic!("expected Degraded, got {:?}", results[0].status);
        };
        assert!(reason.contains("0/3"), "reason: {reason}");
        assert!(results[0].mean_rounds.is_finite());
        assert!(degraded(&results));
    }

    #[test]
    fn hub_backed_sweeps_are_byte_identical_to_private_caches() {
        let hub = Arc::new(mph_oracle::OracleHub::new(16));
        let shared = run_sweep(vec![
            cell("line", Target::Line, 4, 100).with_hub(hub.clone()),
            cell("simline", Target::SimLine, 3, 100).with_hub(hub.clone()),
        ]);
        let private = run_sweep(vec![
            cell("line", Target::Line, 4, 100),
            cell("simline", Target::SimLine, 3, 100),
        ]);
        for (s, p) in shared.iter().zip(&private) {
            assert_eq!(s.measurements, p.measurements);
            assert_eq!(s.mean_rounds, p.mean_rounds);
            assert_eq!(
                s.snapshot.as_ref().map(|x| x.to_json_string()),
                p.snapshot.as_ref().map(|x| x.to_json_string())
            );
        }
        assert!(!hub.is_empty(), "the sweep should have populated the hub");
    }

    #[test]
    fn grid_map_preserves_order() {
        let out = grid_map((0..100u64).collect(), |x| x * 2);
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }
}
