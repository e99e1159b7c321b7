//! E11 — the theorem's statement, verbatim: success probability vs round
//! budget.
//!
//! Theorem 3.1 concludes: "the probability that `𝒜^RO` computes `f^RO`
//! correctly in `o(T/log² T)` rounds is at most 1/3 over the random choice
//! of RO and input". This experiment measures that probability directly
//! (Definition 2.5's average case): sweep the round cap `R` as a fraction
//! of `w` and Monte-Carlo the success rate of the best algorithm we have.
//! The shape: a cliff — near-zero success below the algorithm's intrinsic
//! round need `≈ w·(1 − s/S)`, certain success above it, and the 1/3
//! threshold crossed inside a narrow window.

#![forbid(unsafe_code)]

use mph_core::algorithms::pipeline::Target;
use mph_core::correctness;
use mph_experiments::setup::{demo_pipeline, SweepArgs};
use mph_experiments::Report;

fn main() {
    let args = SweepArgs::parse();
    let mut report = Report::new();
    report.h1("E11 — Pr[success within R rounds] (Definition 2.5, measured)");

    let (w, v, m, window) = if args.quick { (64u64, 16usize, 4usize, 4) } else { (160, 16, 4, 4) };
    let trials = args.trials(if args.quick { 20 } else { 60 });
    let pipeline = demo_pipeline(w, v, m, window, Target::Line);
    let f = window as f64 / v as f64;
    report
        .kv("instance", format!("n = 64, u = 16, v = {v}, w = T = {w}, m = {m}"))
        .kv("memory fraction s/S", format!("{f:.2}"))
        .kv("expected intrinsic rounds w·(1−f)", format!("{:.0}", w as f64 * (1.0 - f)))
        .kv("trials per point", trials)
        .end_block();

    let mut rows = Vec::new();
    for cap_frac in [0.25f64, 0.5, 0.65, 0.72, 0.78, 0.85, 1.0] {
        let cap = (w as f64 * cap_frac) as usize;
        let est = correctness::average_case_success(&pipeline, cap, trials, args.seed(4040));
        rows.push(vec![
            format!("{cap_frac:.2}"),
            cap.to_string(),
            format!("{:.3}", est.rate()),
            est.succeeds_per_definition().to_string(),
        ]);
    }
    report.table(&["R/w", "round cap R", "measured Pr[success]", "≥ 1/3 (Def 2.4/2.5)"], &rows);
    report.para(
        "The cliff sits at the algorithm's intrinsic round requirement \
         ≈ w·(1−f): below it success probability is ~0 (far under the \
         theorem's 1/3), above it ~1. The theorem's claim is that NO \
         algorithm can move this cliff below Ω(w/log²w); the best strategy \
         we can implement leaves it at Θ(w).",
    );
    report.print();
}
