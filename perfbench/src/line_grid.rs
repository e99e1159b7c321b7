//! `line_grid`: the E2 `exp_line_rounds` grid, in-process.
//!
//! One *session* here is one regeneration of the whole E2 grid at its
//! published 5 trials per cell — the memory sweep (window ∈ {8,16,32,48}
//! at w = 512) plus the length sweep (w ∈ {128,256,512,1024} at window
//! 16), Line with v = 64, m = 8 — through one `sweep::run_sweep` pool
//! pass on one pool thread. Sessions cycle through a pool of
//! [`SEED_POOL`] base-seed pairs drawn from the workload seed; every
//! trial draws its instance afresh and no oracle cache outlives a
//! trial, so a repeated seed costs exactly what a new one does.
//!
//! Correctness: every trial is correct, and every session's measurements
//! equal `theorem::measure_rounds_batch` for the same seeds, computed
//! once per pool entry after the timed region.
//!
//! The traced run replays the same sessions through `sweep::grid_map`,
//! with spans around `theorem::draw_instance`, `reference_output`, the
//! pipeline's `build_simulation`/`reset_simulation` and every
//! `Simulation::step`, and an [`Oracle`] decorator around the cached
//! oracle the simulation queries.

use crate::trace::{self, Analysis};
use crate::util::{median, quantile, HostSpeed, Outcome, SplitMix};
use crate::Args;
use mph_bits::{BitSlice, BitVec};
use mph_core::algorithms::pipeline::{Pipeline, Target};
use mph_core::theorem::{
    self, draw_instance, reference_output, MeasurablePipeline, RoundMeasurement,
};
use mph_experiments::setup::demo_pipeline;
use mph_experiments::sweep::{grid_map, run_sweep, Cell, CellStatus};
use mph_metrics::{MetricsSink, Recorder};
use mph_mpc::Simulation;
use mph_oracle::{CachedOracle, LazyOracle, Oracle, RandomTape};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// E2's round cap.
const MAX_ROUNDS: usize = 1_000_000;
/// E2's published trials per cell.
const TRIALS: usize = 5;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 25;
/// Distinct base-seed pairs the sessions of one run cycle through.
const SEED_POOL: usize = 32;
/// Trial chunks per cell in `run_sweep` (its own constant is private);
/// the traced replay chunks the same way.
const SWEEP_CHUNKS_PER_CELL: usize = 4;

/// The E2 grid: `(label, pipeline, is_memory_sweep_cell)`.
pub struct Grid {
    cells: Vec<(String, Arc<Pipeline>, bool)>,
}

impl Grid {
    /// The full E2 grid, or E2's `--quick` grid at smoke size.
    pub fn new(smoke: bool) -> Self {
        let (v, m, w_mem, windows, lengths, length_window): (
            usize,
            usize,
            u64,
            &[usize],
            &[u64],
            usize,
        ) = if smoke {
            (16, 4, 64, &[4, 8], &[32, 64], 4)
        } else {
            (64, 8, 512, &[8, 16, 32, 48], &[128, 256, 512, 1024], 16)
        };
        let mut cells: Vec<(String, Arc<Pipeline>, bool)> = windows
            .iter()
            .map(|&window| {
                (format!("window={window}"), demo_pipeline(w_mem, v, m, window, Target::Line), true)
            })
            .collect();
        cells.extend(lengths.iter().map(|&w| {
            (format!("w={w}"), demo_pipeline(w, v, m, length_window, Target::Line), false)
        }));
        Grid { cells }
    }

    fn base_seed(&self, cell: usize, seeds: (u64, u64)) -> u64 {
        if self.cells[cell].2 {
            seeds.0
        } else {
            seeds.1
        }
    }

    /// The sweep cells of one session with base seeds `(memory, length)`.
    fn sweep_cells(&self, seeds: (u64, u64), trials: usize) -> Vec<Cell> {
        (0..self.cells.len())
            .map(|i| {
                let (label, pipeline, _) = &self.cells[i];
                Cell::new(
                    label.clone(),
                    Arc::clone(pipeline),
                    trials,
                    self.base_seed(i, seeds),
                    MAX_ROUNDS,
                )
            })
            .collect()
    }

    fn trials(&self) -> usize {
        self.cells.len() * TRIALS
    }
}

/// One timed session: its seeds (entry `pool` of the seed pool), its
/// per-cell measurements, and latency.
struct Session {
    pool: usize,
    seeds: (u64, u64),
    cells: Vec<Vec<RoundMeasurement>>,
    started: Instant,
    latency: Duration,
}

/// Runs sessions back to back, cycling through `seeds`, until `budget`
/// is spent, sampling the host's speed between sessions.
fn run_sessions(
    grid: &Grid,
    seeds: &[(u64, u64)],
    budget: Duration,
    speed: &mut HostSpeed,
    out: &mut Outcome,
) -> Vec<Session> {
    let mut sessions = Vec::new();
    let start = Instant::now();
    while sessions.is_empty() || start.elapsed() < budget {
        let pool = sessions.len() % seeds.len();
        let seeds = seeds[pool];
        let cells = grid.sweep_cells(seeds, TRIALS);
        speed.tick();
        let t = Instant::now();
        let results = run_sweep(cells);
        let latency = t.elapsed();
        for r in &results {
            if r.status != CellStatus::Ok {
                out.fail(format!("cell {} of session {seeds:?}: {:?}", r.label, r.status));
            }
        }
        sessions.push(Session {
            pool,
            seeds,
            cells: results.into_iter().map(|r| r.measurements).collect(),
            started: t,
            latency,
        });
    }
    sessions
}

/// Checks every trial of `sessions` against `reference(session, cell)`
/// and counts the attempts.
fn check<'r>(
    grid: &Grid,
    sessions: &[Session],
    out: &mut Outcome,
    reference: impl Fn(usize, usize) -> &'r [RoundMeasurement],
) {
    for (si, s) in sessions.iter().enumerate() {
        for (ci, got) in s.cells.iter().enumerate() {
            let base = grid.base_seed(ci, s.seeds);
            let want = reference(si, ci);
            out.attempted += TRIALS as u64;
            for t in 0..TRIALS {
                match (got.get(t), want.get(t)) {
                    (Some(g), Some(w)) if g == w && g.correct => {}
                    (g, w) => out.fail(format!(
                        "{} seed {}: got {g:?}, reference {w:?}",
                        grid.cells[ci].0,
                        base + t as u64
                    )),
                }
            }
        }
    }
}

/// `theorem::measure_rounds_batch` of every cell of the first `used`
/// seed-pool entries, indexed `[pool][cell]`, on `CHECK_THREADS` threads.
fn pool_references(
    grid: &Grid,
    seeds: &[(u64, u64)],
    used: usize,
) -> Vec<Vec<Vec<RoundMeasurement>>> {
    let jobs: Vec<(usize, usize)> =
        (0..used).flat_map(|p| (0..grid.cells.len()).map(move |ci| (p, ci))).collect();
    let measure = |&(p, ci): &(usize, usize)| {
        let base = grid.base_seed(ci, seeds[p]);
        theorem::measure_rounds_batch(&grid.cells[ci].1, TRIALS, base, None, None, MAX_ROUNDS)
    };
    let per = jobs.len().div_ceil(crate::CHECK_THREADS).max(1);
    let done: Vec<Vec<RoundMeasurement>> = std::thread::scope(|scope| {
        let parts: Vec<_> = jobs
            .chunks(per)
            .map(|part| scope.spawn(move || part.iter().map(measure).collect::<Vec<_>>()))
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
    });
    let mut refs: Vec<Vec<Vec<RoundMeasurement>>> = vec![Vec::new(); used];
    for ((p, _), m) in jobs.into_iter().zip(done) {
        refs[p].push(m);
    }
    refs
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = SplitMix::new(args.seed);
    let mut speed = HostSpeed::new();
    // Set-up: build the grid's pipelines, warm the pool and the
    // allocator with one trial per cell. Repeated; the median is set-up.
    let mut setup = Vec::new();
    let mut grid = None;
    for _ in 0..SETUP_REPS {
        let seeds = (rng.seed(), rng.seed());
        speed.sample();
        let t = Instant::now();
        let g = Grid::new(args.smoke);
        let warm = run_sweep(g.sweep_cells(seeds, 1));
        setup.push(speed.secs(t, t.elapsed()));
        if let Some(r) = warm.iter().find(|r| r.status != CellStatus::Ok) {
            eprintln!("perfbench: warm-up cell {} failed: {:?}", r.label, r.status);
        }
        grid = Some(g);
    }
    let grid = grid.expect("SETUP_REPS > 0");
    let seeds: Vec<(u64, u64)> = (0..SEED_POOL).map(|_| (rng.seed(), rng.seed())).collect();

    if args.trace {
        return traced(args, &grid, &seeds, &mut speed, out);
    }

    let sessions = run_sessions(&grid, &seeds, args.seconds, &mut speed, &mut out);
    let rss = crate::util::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    let refs = pool_references(&grid, &seeds, sessions.len().min(SEED_POOL));
    check(&grid, &sessions, &mut out, |si, ci| &refs[sessions[si].pool][ci]);

    // Every time below is at the reference host speed (see `HostSpeed`).
    let latencies: Vec<f64> =
        sessions.iter().map(|s| speed.secs(s.started, s.latency) * 1e3).collect();
    let busy = latencies.iter().sum::<f64>() * 1e-3;
    let n = sessions.len();
    let trials = n * grid.trials();
    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric("trials_per_s", trials as f64 / busy, "1/s", trials);
    out.metric("sessions_per_s", n as f64 / busy, "1/s", n);
    out.metric("session_p50_ms", quantile(&latencies, 0.5), "ms", n);
    out.metric("session_p90_ms", quantile(&latencies, 0.9), "ms", n);
    out.metric("peak_rss_mb", rss, "MiB", 1);
    out
}

/// The untraced share of the run budget the shard probe gets (1/6).
const SHARD_PROBE_SHARE: u32 = 6;

/// The traced run: untraced sessions for half the budget, then the same
/// sessions again under the span tracer, compared trial for trial; then
/// the shard probe (`sharded::probe`), which emits the `shard.*` layer.
fn traced(
    args: &Args,
    grid: &Grid,
    seeds: &[(u64, u64)],
    speed: &mut HostSpeed,
    mut out: Outcome,
) -> Outcome {
    let untraced = run_sessions(grid, seeds, args.seconds / 2, speed, &mut out);
    let untraced_ns: u128 = untraced.iter().map(|s| s.latency.as_nanos()).sum();

    let stats = Arc::new(LayerStats::default());
    let t0 = trace::now_ns();
    let traced: Vec<Vec<Vec<RoundMeasurement>>> =
        untraced.iter().map(|s| traced_session(grid, s.seeds, &stats)).collect();
    let wall_ns = trace::now_ns() - t0;
    check(grid, &untraced, &mut out, |si, ci| &traced[si][ci]);

    let spans = trace::take();
    let a = Analysis::new(&spans);
    report_layers(&mut out, &a, &stats, wall_ns, untraced_ns as f64);
    if let Err(e) = crate::sharded::probe(args, args.seconds / SHARD_PROBE_SHARE, &mut out) {
        out.fail(format!("shard probe: {e}"));
        crate::sharded::report_absent(&mut out);
    }
    out
}

/// Counters that the oracle decorator and the traced trials accumulate.
#[derive(Default)]
pub struct LayerStats {
    pub queries: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub messages: AtomicU64,
    pub comm_bits: AtomicU64,
    pub rounds: AtomicU64,
}

/// Emits every per-layer metric of `line_grid`'s layers; the layers this
/// workload never reaches report 0.
fn report_layers(
    out: &mut Outcome,
    a: &Analysis,
    stats: &LayerStats,
    wall_ns: u64,
    untraced_ns: f64,
) {
    let trials = a.count("trial") as usize;
    report_in_process_layers(out, a, stats);
    out.metric("sweep.trials", trials as f64, "count", trials);
    out.metric(
        "sweep.utilization",
        a.total_s("trial") / (wall_ns as f64 * 1e-9 * crate::POOL_THREADS as f64),
        "ratio",
        trials,
    );
    crate::mphd::report_absent(out);
    report_trace(out, a, wall_ns, untraced_ns, wall_ns);
}

/// Oracle, executor and trial set-up metrics from a trace of
/// [`traced_trial`]s.
pub fn report_in_process_layers(out: &mut Outcome, a: &Analysis, stats: &LayerStats) {
    let queries = stats.queries.load(Ordering::Relaxed);
    let (hits, misses) = (stats.hits.load(Ordering::Relaxed), stats.misses.load(Ordering::Relaxed));
    let rounds = stats.rounds.load(Ordering::Relaxed);
    let steps = a.count("executor.step") as usize;
    out.metric("oracle.queries", queries as f64, "count", a.count("oracle.query") as usize);
    out.metric("oracle.busy_s", a.total_s("oracle.query"), "s", a.count("oracle.query") as usize);
    out.metric(
        "oracle.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    out.metric(
        "oracle.reference_s",
        a.total_s("oracle.reference"),
        "s",
        a.count("oracle.reference") as usize,
    );
    out.metric("executor.rounds", rounds as f64, "count", steps);
    out.metric("executor.step_s", a.total_s("executor.step"), "s", steps);
    out.metric(
        "executor.self_ns_per_round",
        a.self_s("executor.step") * 1e9 / rounds.max(1) as f64,
        "ns",
        steps,
    );
    out.metric("executor.messages", stats.messages.load(Ordering::Relaxed) as f64, "count", steps);
    out.metric("executor.comm_bits", stats.comm_bits.load(Ordering::Relaxed) as f64, "bits", steps);
    out.metric("trial.draw_s", a.total_s("trial.draw"), "s", a.count("trial.draw") as usize);
    out.metric("trial.build_s", a.total_s("trial.build"), "s", a.count("trial.build") as usize);
}

/// Absent-layer placeholders for workloads that never run the
/// in-process trial path.
pub fn report_absent(out: &mut Outcome) {
    for (name, unit) in [
        ("oracle.queries", "count"),
        ("oracle.busy_s", "s"),
        ("oracle.hit_ratio", "ratio"),
        ("oracle.reference_s", "s"),
        ("executor.rounds", "count"),
        ("executor.step_s", "s"),
        ("executor.self_ns_per_round", "ns"),
        ("executor.messages", "count"),
        ("executor.comm_bits", "bits"),
        ("trial.draw_s", "s"),
        ("trial.build_s", "s"),
    ] {
        out.metric(name, 0.0, unit, 0);
    }
}

/// The tracer's own figures: the traced replay's time against the
/// untraced run of the same work, and the share of the traced phase's
/// wall time (`wall_ns`) that the top-level spans cover.
pub fn report_trace(
    out: &mut Outcome,
    a: &Analysis,
    traced_ns: u64,
    untraced_ns: f64,
    wall_ns: u64,
) {
    let spans: u64 = a.by_name.values().map(|e| e.0).sum();
    out.metric("trace.overhead", traced_ns as f64 / untraced_ns.max(1.0), "ratio", 2);
    out.metric("trace.coverage", a.coverage(wall_ns), "ratio", spans as usize);
}

/// Replays one session through `grid_map` under the tracer, chunked the
/// way `run_sweep` chunks it, and returns per-cell measurements.
fn traced_session(
    grid: &Grid,
    seeds: (u64, u64),
    stats: &Arc<LayerStats>,
) -> Vec<Vec<RoundMeasurement>> {
    let chunk = TRIALS.div_ceil(SWEEP_CHUNKS_PER_CELL);
    let mut units = Vec::new();
    for ci in 0..grid.cells.len() {
        let base = grid.base_seed(ci, seeds);
        let mut t = 0;
        while t < TRIALS {
            let len = chunk.min(TRIALS - t);
            units.push((ci, base + t as u64, len));
            t += len;
        }
    }
    // One telemetry recorder per cell, as `run_sweep` attaches.
    let recorders: Vec<Arc<Recorder>> =
        grid.cells.iter().map(|_| Arc::new(Recorder::new())).collect();
    let measured: Vec<(usize, Vec<RoundMeasurement>)> = grid_map(units, |(ci, seed0, len)| {
        let sink: Arc<dyn MetricsSink> = recorders[ci].clone();
        let pipeline = &grid.cells[ci].1;
        let mut sim = None;
        let ms = (0..len as u64)
            .map(|t| traced_trial(pipeline, seed0 + t, &mut sim, Some(&sink), stats, &mut |_| {}))
            .collect();
        trace::flush_thread();
        (ci, ms)
    });
    let mut cells: Vec<Vec<RoundMeasurement>> = vec![Vec::new(); grid.cells.len()];
    for (ci, ms) in measured {
        cells[ci].extend(ms);
    }
    cells
}

/// One trial by `TrialRunner`'s recipe, with a span around every layer
/// call: draw, cold reference pass, build (or reset), each round.
/// `on_round` sees the simulation after every round.
pub fn traced_trial<P: MeasurablePipeline + ?Sized>(
    pipeline: &Arc<P>,
    seed: u64,
    sim: &mut Option<Simulation>,
    sink: Option<&Arc<dyn MetricsSink>>,
    stats: &Arc<LayerStats>,
    on_round: &mut dyn FnMut(&Simulation),
) -> RoundMeasurement {
    trace::span("trial", || {
        let (lazy, blocks) = trace::span("trial.draw", || draw_instance(pipeline.params(), seed));
        let cached = Arc::new(CachedOracle::new(lazy));
        let expected =
            trace::span("oracle.reference", || reference_output(&**pipeline, &*cached, &blocks));
        let (h0, m0) = (cached.hits(), cached.misses());
        let oracle: Arc<dyn Oracle> =
            Arc::new(TimedOracle { inner: Arc::clone(&cached), stats: Arc::clone(stats) });
        let s = pipeline.required_s();
        let built = trace::span("trial.build", || {
            let tape = RandomTape::new(seed);
            match sim.take() {
                Some(mut prev) if prev.m() == pipeline.machines() && prev.s_bits() == s => {
                    Arc::clone(pipeline).reset_simulation(&mut prev, oracle, tape, None, &blocks);
                    prev
                }
                _ => Arc::clone(pipeline).build_simulation(oracle, tape, s, None, &blocks),
            }
        });
        let sim = sim.insert(built);
        match sink {
            Some(sink) => sim.set_metrics(Arc::clone(sink)),
            None => sim.clear_metrics(),
        };
        sim.clear_fault_plan();
        let mut completed = false;
        for _ in 0..MAX_ROUNDS {
            let produced = trace::span("executor.step", || sim.step().map(|o| !o.is_empty()))
                .expect("fault-free trials never violate the model");
            on_round(sim);
            if produced {
                completed = true;
                break;
            }
        }
        let st = sim.stats();
        stats.hits.fetch_add(cached.hits() - h0, Ordering::Relaxed);
        stats.misses.fetch_add(cached.misses() - m0, Ordering::Relaxed);
        stats.messages.fetch_add(st.total_messages() as u64, Ordering::Relaxed);
        stats.comm_bits.fetch_add(st.total_bits() as u64, Ordering::Relaxed);
        stats.rounds.fetch_add(st.num_rounds() as u64, Ordering::Relaxed);
        let outputs = sim.outputs();
        let unanimous = outputs.split_first().and_then(|((_, first), rest)| {
            rest.iter().all(|(_, bits)| bits == first).then_some(first)
        });
        RoundMeasurement {
            rounds: st.num_rounds(),
            completed,
            correct: completed && unanimous == Some(&expected),
            total_queries: st.total_queries(),
            peak_memory_bits: st.peak_memory_bits(),
            total_comm_bits: st.total_bits(),
        }
    })
}

/// The oracle decorator: forwards all eight [`Oracle`] methods to the
/// cached oracle, so batching stays intact, and wraps each call in an
/// `oracle.query` span while counting the queries it carries.
struct TimedOracle {
    inner: Arc<CachedOracle<Arc<LazyOracle>>>,
    stats: Arc<LayerStats>,
}

impl TimedOracle {
    fn timed<R>(&self, queries: usize, f: impl FnOnce(&CachedOracle<Arc<LazyOracle>>) -> R) -> R {
        self.stats.queries.fetch_add(queries as u64, Ordering::Relaxed);
        trace::span("oracle.query", || f(&self.inner))
    }
}

impl Oracle for TimedOracle {
    fn n_in(&self) -> usize {
        self.inner.n_in()
    }
    fn n_out(&self) -> usize {
        self.inner.n_out()
    }
    fn query(&self, input: &BitVec) -> BitVec {
        self.timed(1, |o| o.query(input))
    }
    fn query_many(&self, inputs: &[BitVec]) -> Vec<BitVec> {
        self.timed(inputs.len(), |o| o.query_many(inputs))
    }
    fn query_slice(&self, input: &BitSlice<'_>) -> BitVec {
        self.timed(1, |o| o.query_slice(input))
    }
    fn query_many_slices(&self, inputs: &[BitSlice<'_>]) -> Vec<BitVec> {
        self.timed(inputs.len(), |o| o.query_many_slices(inputs))
    }
    fn query_into(&self, input: &BitSlice<'_>, out: &mut BitVec) {
        self.timed(1, |o| o.query_into(input, out))
    }
    fn query_many_into(&self, inputs: &[BitSlice<'_>], out: &mut BitVec) {
        self.timed(inputs.len(), |o| o.query_many_into(inputs, out))
    }
}
