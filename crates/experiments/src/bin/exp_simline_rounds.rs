//! E1 — Theorem A.1's round envelope for `SimLine`.
//!
//! Sweep the per-machine memory `s` (via the block window) and measure the
//! honest pipeline's rounds against the theorem's `w/h` prediction
//! (`h ≈ s/u` blocks per machine). The shape to reproduce: rounds scale as
//! `w·u/s` — memory buys a proportional round reduction, because the
//! block schedule is public and contiguous windows stream perfectly.
//!
//! All windows run as one [`mph_experiments::sweep::run_sweep`] pool pass (see
//! docs/PERFORMANCE.md). Flags: `--trials N --seed N --quick
//! --checkpoint-every N` (the last makes the sweep durably resumable —
//! see docs/ROBUSTNESS.md).
//!
//! Besides the stdout tables, writes `target/reports/exp_simline_rounds.json`
//! with the same cells plus the per-point telemetry snapshots recorded by
//! `mph-metrics` (see docs/OBSERVABILITY.md).

#![forbid(unsafe_code)]

use mph_bounds::SimLineBoundInputs;
use mph_core::algorithms::pipeline::Target;
use mph_experiments::checkpoint;
use mph_experiments::setup::{demo_pipeline, fmt, SweepArgs};
use mph_experiments::sweep::Cell;
use mph_experiments::Report;
use mph_metrics::json::Json;

fn main() {
    let args = SweepArgs::parse();
    let mut report = Report::new();
    report.h1("E1 — SimLine rounds vs local memory (Theorem A.1)");

    let (w, v, m, windows): (u64, usize, usize, &[usize]) =
        if args.quick { (64, 16, 4, &[4, 8]) } else { (512, 64, 8, &[8, 16, 32, 64]) };
    let trials = args.trials(5);
    let base_seed = args.seed(1000);
    report
        .kv("instance", format!("n = 64, u = 16, v = {v}, w = {w}, m = {m}"))
        .kv("trials per point", trials)
        .end_block();

    let cells: Vec<Cell> = windows
        .iter()
        .map(|&window| {
            Cell::new(
                format!("window={window}"),
                demo_pipeline(w, v, m, window, Target::SimLine),
                trials,
                base_seed,
                100_000,
            )
        })
        .collect();
    let results = checkpoint::run_sweep_with_args("exp_simline_rounds", &args, cells);

    let mut rows = Vec::new();
    let mut telemetry: Vec<(String, Json)> = Vec::new();
    for (&window, result) in windows.iter().zip(&results) {
        let s = demo_pipeline(w, v, m, window, Target::SimLine).required_s();
        let measured = result.mean_rounds;
        telemetry
            .push((result.label.clone(), result.snapshot.as_ref().expect("telemetry").to_json()));
        // The theorem's prediction with the *actual* s and the paper's
        // q = window + 1 (the honest per-round query count).
        let inputs = SimLineBoundInputs {
            n: 64.0,
            w: w as f64,
            u: 16.0,
            v: v as f64,
            m: m as f64,
            s: s as f64,
            q: window as f64 + 1.0,
        };
        rows.push(vec![
            window.to_string(),
            s.to_string(),
            fmt(measured),
            fmt(w as f64 / window as f64),
            fmt(inputs.certified_rounds()),
            fmt(measured * window as f64 / w as f64),
        ]);
    }
    report.table(
        &[
            "window (blocks)",
            "s (bits)",
            "measured rounds",
            "w/window",
            "theorem w/h",
            "measured·window/w",
        ],
        &rows,
    );
    report.json_extra("telemetry", Json::Object(telemetry));
    report.para(
        "Shape check: measured rounds track w/window (the last column is \
         ≈ constant ≈ 1), i.e. rounds = Θ(w·u/s) — Theorem A.1 is tight, \
         and doubling memory halves the rounds.",
    );
    report.print_and_write("exp_simline_rounds");
}
