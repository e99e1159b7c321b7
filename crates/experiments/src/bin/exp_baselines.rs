//! E7 — the parallelizable-workload contrast (the paper's §1 motivation).
//!
//! Runs representative MPC workloads on the same simulator, same memory
//! discipline, and charts the round-complexity spectrum: `O(1)` shuffles,
//! `O(log m)` aggregation, `O(diameter)` label propagation — and the hard
//! functions at `Θ(w·u/s)` and `Θ(w)`.
//!
//! Besides the stdout table, writes `target/reports/exp_baselines.json`
//! with the same cells plus the telemetry snapshots of the two hard-function
//! runs recorded by `mph-metrics` (see docs/OBSERVABILITY.md). Flags:
//! `--trials N --seed N --quick --checkpoint-every N` (the last makes the
//! hard-function sweep durably resumable — see docs/ROBUSTNESS.md).

#![forbid(unsafe_code)]

use mph_core::algorithms::pipeline::Target;
use mph_experiments::checkpoint;
use mph_experiments::setup::{demo_pipeline, fmt, SweepArgs};
use mph_experiments::sweep::Cell;
use mph_experiments::Report;
use mph_metrics::json::Json;
use mph_mpc_algos::{ConnectivityConfig, SampleSortConfig, TreeSumConfig, WordCountConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = SweepArgs::parse();
    let mut report = Report::new();
    report.h1("E7 — round complexity across workloads, one simulator");

    let m = if args.quick { 4usize } else { 8 };
    let mut rng = StdRng::seed_from_u64(7);
    let mut rows = Vec::new();
    let mut telemetry: Vec<(String, Json)> = Vec::new();

    // Word count: 2 rounds.
    let words: Vec<u64> = (0..4000).map(|_| rng.gen_range(0..200)).collect();
    let wc = WordCountConfig { m, id_width: 20 };
    let mut sim = wc.build(&words, 1 << 17);
    let r = sim.run_until_output(16).unwrap();
    rows.push(vec![
        "word count (MapReduce)".into(),
        "4000 words".into(),
        r.rounds().to_string(),
        "O(1)".into(),
    ]);

    // Sample sort: 4 rounds.
    let keys: Vec<u64> = (0..4000).map(|_| rng.gen_range(0..1u64 << 30)).collect();
    let sort = SampleSortConfig { m, key_width: 32, samples_per_machine: 8 };
    let mut sim = sort.build(&keys, 1 << 18);
    let r = sim.run_until_output(16).unwrap();
    rows.push(vec![
        "sample sort (TeraSort)".into(),
        "4000 keys".into(),
        r.rounds().to_string(),
        "O(1)".into(),
    ]);

    // Tree sum: log2(m)+1 rounds.
    let values: Vec<u64> = (0..4000).collect();
    let sum = TreeSumConfig { m };
    let mut sim = sum.build(&values, 1 << 18);
    let r = sim.run_until_output(16).unwrap();
    rows.push(vec![
        "tree aggregation".into(),
        "4000 values".into(),
        r.rounds().to_string(),
        "O(log m)".into(),
    ]);

    // Connectivity: diameter rounds (path of 12 vertices, diameter 11).
    let edges: Vec<(u64, u64)> = (0..11).map(|i| (i, i + 1)).collect();
    let conn = ConnectivityConfig { m, vertices: 12, id_width: 16, propagation_rounds: 12 };
    let mut sim = conn.build(&edges, 1 << 16);
    let r = sim.run_until_output(20).unwrap();
    rows.push(vec![
        "connectivity (path, diam 11)".into(),
        "12 vertices".into(),
        r.rounds().to_string(),
        "O(diameter)".into(),
    ]);

    // The two hard functions — SimLine at Θ(w·u/s), Line at Θ(w) — run
    // as one sweep pass.
    let (w, v, window) = if args.quick { (64u64, 16usize, 4usize) } else { (256, 32, 8) };
    let trials = args.trials(3);
    let results = checkpoint::run_sweep_with_args(
        "exp_baselines",
        &args,
        vec![
            Cell::new(
                "simline",
                demo_pipeline(w, v, m, window, Target::SimLine),
                trials,
                args.seed(11),
                100_000,
            ),
            Cell::new(
                "line",
                demo_pipeline(w, v, m, window, Target::Line),
                trials,
                args.seed(11).wrapping_add(1), // default 12, as published
                1_000_000,
            ),
        ],
    );
    for result in &results {
        telemetry
            .push((result.label.clone(), result.snapshot.as_ref().expect("telemetry").to_json()));
    }
    rows.push(vec![
        "SimLine (warm-up hard fn)".into(),
        format!("w = {w}"),
        fmt(results[0].mean_rounds),
        "Θ(T·u/s)".into(),
    ]);
    rows.push(vec![
        "Line (the hard function)".into(),
        format!("w = T = {w}"),
        fmt(results[1].mean_rounds),
        "Ω̃(T)".into(),
    ]);

    report.table(&["workload", "input", "measured rounds", "theory"], &rows);
    report.json_extra("telemetry", Json::Object(telemetry));
    report.para(
        "The spectrum the paper is about: everything ordinary finishes in \
         a handful of rounds regardless of input size; the oracle-chained \
         functions scale with T, and Line's rounds track T itself. Same \
         machines, same s-bit memories, same router.",
    );
    report.print_and_write("exp_baselines");
}
