//! The shard probe of `line_grid`'s traced run: Line through the shard
//! supervisor on 2 pipe workers.
//!
//! The E2 geometry (v = 64, m = 8, window = 16) at two lengths,
//! w = 256 and w = 1024, each with its own warm fleet of 2 worker
//! processes (`mphd_worker`). The probe spawns both fleets, completes
//! their handshakes with a 16-node warm-up trial, then runs *sessions*
//! of one trial per length untraced, each trial rebinding its length's
//! live fleet through `ShardedRunner::measure`. It replays the same
//! trials with spans around `Supervisor::new`, `Supervisor::rebind` and
//! `Supervisor::run_until_output` (driven exactly as
//! `ShardedRunner::measure` drives them), then runs an in-process twin
//! of every trial that encodes `Simulation::snapshot()` after each round
//! to size the barrier. Both lengths separate per-round-constant wire
//! costs from the barrier snapshot's growth with w.
//!
//! This is a probe, not a timed workload: under steal on a shared
//! 2-vCPU host, a round that waits on two worker processes slowed far
//! more than any calibration could account for, and its end-to-end
//! figures spread past every bound (trials/s 0.29 of the median over
//! ten seeds, p90 0.95).
//!
//! Correctness: the traced trials and the in-process twin equal the
//! untraced trials, which are correct; a degraded fleet counts as a
//! failure.

use crate::line_grid::{traced_trial, LayerStats};
use crate::trace::{self, Analysis};
use crate::util::{Outcome, SplitMix};
use crate::Args;
use mph_core::algorithms::pipeline::Target;
use mph_core::theorem::{draw_instance, reference_output, RoundMeasurement};
use mph_experiments::shard::{build_from_spec, default_worker_cmd, ShardSpec, ShardedRunner};
use mph_metrics::{MetricsSink, Recorder};
use mph_mpc::shard::{Supervisor, SupervisorConfig};
use mph_oracle::CachedOracle;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_ROUNDS: usize = 1_000_000;
/// Worker processes per fleet.
const SHARDS: usize = 2;
/// Mixed into the workload seed for the probe's trial seeds.
const PROBE_SEED: u64 = 0x5AAD_ED00;
/// Metric-name suffixes of the short and the long length.
const LENGTH_NAMES: [&str; 2] = ["w256", "w1024"];

/// Geometry: `(lengths, v, m, window)`; smoke size shrinks all four.
fn geometry(smoke: bool) -> ([u64; 2], usize, usize, usize) {
    if smoke {
        ([32, 64], 16, 4, 4)
    } else {
        ([256, 1024], 64, 8, 16)
    }
}

fn spec(smoke: bool, w: u64, seed: u64) -> ShardSpec {
    let (_, v, m, window) = geometry(smoke);
    ShardSpec { target: Target::Line, w, v, m, window, s_bits: None, q: None, seed }
}

/// The supervisor configuration: 2 pipe workers running `mphd_worker`,
/// found next to this executable.
fn config() -> Result<SupervisorConfig, String> {
    let cmd = default_worker_cmd();
    if !std::path::Path::new(&cmd[0]).is_file() {
        return Err(format!(
            "shard worker binary not found (looked for {:?}); build mphd_worker",
            cmd[0]
        ));
    }
    Ok(SupervisorConfig::new(SHARDS, cmd))
}

/// One timed trial.
struct Trial {
    length: usize,
    seed: u64,
    measurement: RoundMeasurement,
}

/// Spawns one warm fleet per length. Each fleet's handshake completes
/// inside a tiny warm-up trial, which leaves the live fleet in the runner.
fn spawn_fleets(
    smoke: bool,
    cfg: &SupervisorConfig,
    sink: &Arc<Recorder>,
) -> Result<Vec<ShardedRunner>, String> {
    let (lengths, ..) = geometry(smoke);
    lengths
        .iter()
        .map(|_| {
            let mut runner =
                ShardedRunner::new(cfg.clone(), Some(Arc::clone(sink) as Arc<dyn MetricsSink>));
            runner
                .measure(&spec(smoke, 16, 1), MAX_ROUNDS)
                .map_err(|e| format!("fleet warm-up: {e}"))?;
            Ok(runner)
        })
        .collect()
}

/// Runs sessions (one trial per length) until `budget` is spent.
fn run_sessions(
    smoke: bool,
    runners: &mut [ShardedRunner],
    rng: &mut SplitMix,
    budget: Duration,
    out: &mut Outcome,
) -> Vec<Trial> {
    let (lengths, ..) = geometry(smoke);
    let mut trials = Vec::new();
    let start = Instant::now();
    while trials.is_empty() || start.elapsed() < budget {
        for (length, runner) in runners.iter_mut().enumerate() {
            let seed = rng.seed();
            let measured = runner.measure(&spec(smoke, lengths[length], seed), MAX_ROUNDS);
            match (measured, runner.last_degradation()) {
                (Ok(measurement), None) => trials.push(Trial { length, seed, measurement }),
                (Ok(_), Some(reason)) => {
                    out.fail(format!("w={} seed {seed}: degraded: {reason}", lengths[length]))
                }
                (Err(e), _) => out.fail(format!("w={} seed {seed}: {e}", lengths[length])),
            }
            out.attempted += 1;
        }
    }
    trials
}

/// Checks each trial against `reference(trial)`.
fn check(
    trials: &[Trial],
    out: &mut Outcome,
    mut reference: impl FnMut(usize, &Trial) -> RoundMeasurement,
) {
    for (i, t) in trials.iter().enumerate() {
        let want = reference(i, t);
        if t.measurement != want || !t.measurement.correct {
            out.fail(format!(
                "length {} seed {}: got {:?}, reference {want:?}",
                t.length, t.seed, t.measurement
            ));
        }
    }
}

/// Runs the probe for about `budget` untraced plus its traced replay,
/// and emits every `shard.*` metric into `out`.
pub fn probe(args: &Args, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let cfg = &config()?;
    let mut rng = SplitMix::new(args.seed ^ PROBE_SEED);
    let recorder = Arc::new(Recorder::new());
    let (lengths, ..) = geometry(args.smoke);
    let mut runners = spawn_fleets(args.smoke, cfg, &recorder)?;
    let untraced = run_sessions(args.smoke, &mut runners, &mut rng, budget, out);
    drop(runners); // the fleets are killed and reaped

    let sink: Arc<dyn MetricsSink> = Arc::clone(&recorder) as Arc<dyn MetricsSink>;
    let mut fleets: Vec<Option<Supervisor>> = vec![None, None];
    let mut sharded = Vec::with_capacity(untraced.len());
    for t in &untraced {
        let s = spec(args.smoke, lengths[t.length], t.seed);
        let m = traced_sharded_trial(cfg, &s, &mut fleets[t.length], &sink, t.length)?;
        sharded.push(m);
    }
    drop(fleets);
    check(&untraced, out, |i, _| sharded[i].clone());

    // The in-process twin: same seeds, barrier snapshot encoded per round.
    // (Its oracle and executor counters are not reported: `line_grid`'s
    // own trace measures those layers.)
    let stats = Arc::new(LayerStats::default());
    let mut barrier = [(0u64, 0u64); 2]; // (bytes, rounds) per length
    for t in &untraced {
        let pipeline = spec(args.smoke, lengths[t.length], t.seed).pipeline();
        let (bytes, rounds) = &mut barrier[t.length];
        let twin = traced_trial(&pipeline, t.seed, &mut None, None, &stats, &mut |sim| {
            *bytes +=
                trace::span("shard.barrier_encode", || sim.snapshot().to_bytes().len()) as u64;
            *rounds += 1;
        });
        if twin != t.measurement {
            out.fail(format!("in-process twin of seed {} differs: {twin:?}", t.seed));
        }
    }

    let a = Analysis::new(&trace::take());
    let trials = a.count("shard.trial") as usize;
    let mean = |name: &str| a.total_s(name) / a.count(name).max(1) as f64;
    out.metric("shard.spawn_s", mean("shard.spawn"), "s", a.count("shard.spawn") as usize);
    out.metric("shard.rebind_s", mean("shard.rebind"), "s", a.count("shard.rebind") as usize);
    for (length, name) in LENGTH_NAMES.iter().enumerate() {
        let run = RUN_SPANS[length];
        let rounds: usize = sharded
            .iter()
            .zip(&untraced)
            .filter(|(_, t)| t.length == length)
            .map(|(m, _)| m.rounds)
            .sum();
        out.metric(
            format!("shard.us_per_round.{name}"),
            a.total_s(run) * 1e6 / rounds.max(1) as f64,
            "us",
            rounds,
        );
        let (bytes, rounds) = barrier[length];
        out.metric(
            format!("shard.barrier_bytes_per_round.{name}"),
            bytes as f64 / rounds.max(1) as f64,
            "bytes",
            rounds as usize,
        );
    }
    let in_process = a.total_s("trial") - a.total_s("shard.barrier_encode");
    out.metric("shard.isolation_s", a.total_s("shard.trial") - in_process, "s", trials);
    out.metric(
        "shard.barrier_encode_s",
        a.total_s("shard.barrier_encode"),
        "s",
        a.count("shard.barrier_encode") as usize,
    );
    let respawns = recorder.snapshot().workers.get("respawn").copied().unwrap_or(0);
    out.metric("shard.respawns", respawns as f64, "count", trials);
    Ok(())
}

/// Span names of `Supervisor::run_until_output`, per length.
const RUN_SPANS: [&str; 2] = ["shard.run.short", "shard.run.long"];

/// One sharded trial, driven through the supervisor's public calls in
/// the order `ShardedRunner::measure` makes them: the supervisor-side
/// reference output, then a fleet spawn (first trial) or rebind (every
/// later one), then the supervised run.
fn traced_sharded_trial(
    cfg: &SupervisorConfig,
    spec: &ShardSpec,
    fleet: &mut Option<Supervisor>,
    sink: &Arc<dyn MetricsSink>,
    length: usize,
) -> Result<RoundMeasurement, String> {
    trace::span("shard.trial", || {
        let pipeline = spec.pipeline();
        let expected = trace::span("shard.reference", || {
            let (oracle, blocks) = draw_instance(pipeline.params(), spec.seed);
            reference_output(&*pipeline, &CachedOracle::new(oracle), &blocks)
        });
        let bytes = spec.encode();
        let sup = match fleet {
            Some(sup) => {
                trace::span("shard.rebind", || sup.rebind(bytes))
                    .map_err(|e| format!("rebind: {e}"))?;
                sup
            }
            None => {
                let m = spec.m;
                let mut sup = trace::span("shard.spawn", || {
                    Supervisor::new(cfg.clone(), bytes, m, Some(Arc::clone(sink)))
                })
                .map_err(|e| format!("spawn: {e}"))?;
                sup.set_fallback_builder(Arc::new(|b: &[u8]| build_from_spec(b, None)));
                fleet.insert(sup)
            }
        };
        let run = trace::span(RUN_SPANS[length], || sup.run_until_output(MAX_ROUNDS))
            .map_err(|e| format!("run: {e}"))?;
        if let Some(reason) = sup.degradation() {
            return Err(format!("fleet degraded: {reason}"));
        }
        Ok(RoundMeasurement {
            rounds: run.rounds(),
            completed: run.completed(),
            correct: run.completed() && run.unanimous_output() == Some(&expected),
            total_queries: run.stats.total_queries(),
            peak_memory_bits: run.stats.peak_memory_bits(),
            total_comm_bits: run.stats.total_bits(),
        })
    })
}

/// Absent-layer placeholders for workloads that never shard.
pub fn report_absent(out: &mut Outcome) {
    for (name, unit) in [
        ("shard.spawn_s", "s"),
        ("shard.rebind_s", "s"),
        ("shard.us_per_round.w256", "us"),
        ("shard.us_per_round.w1024", "us"),
        ("shard.isolation_s", "s"),
        ("shard.barrier_bytes_per_round.w256", "bytes"),
        ("shard.barrier_bytes_per_round.w1024", "bytes"),
        ("shard.barrier_encode_s", "s"),
        ("shard.respawns", "count"),
    ] {
        out.metric(name, 0.0, unit, 0);
    }
}
