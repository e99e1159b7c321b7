//! E3 — the exponential decay engine of Claim 3.9.
//!
//! The proof's core quantitative step: the probability a machine learns
//! `p` fresh line nodes in one round decays like `(h/v)^p`, because each
//! further node needs the next (uniformly random) pointer to land in the
//! machine's stored block set. We measure the per-round advance
//! distribution of real pipeline runs and compare its tail to the
//! geometric prediction.

#![forbid(unsafe_code)]

use mph_core::algorithms::pipeline::Target;
use mph_core::theorem;
use mph_experiments::setup::{demo_pipeline, SweepArgs};
use mph_experiments::Report;

fn main() {
    let args = SweepArgs::parse();
    let mut report = Report::new();
    report.h1("E3 — P(advance ≥ p) vs (h/v)^(p−1) (Claim 3.9's decay)");

    let (w, v, m) = if args.quick { (100u64, 16usize, 4usize) } else { (400, 32, 8) };
    let trials = args.trials(if args.quick { 10 } else { 40 });
    let windows: &[usize] = if args.quick { &[4, 8] } else { &[8, 16] };

    for &window in windows {
        let f = window as f64 / v as f64;
        report.h2(&format!("window = {window} blocks (h/v = {f:.3})"));
        let pipeline = demo_pipeline(w, v, m, window, Target::Line);
        let dist = theorem::advance_distribution(&pipeline, trials, args.seed(7000), 1_000_000);
        let base = dist.tail(1); // condition on rounds that advanced at all
        let mut rows = Vec::new();
        for p in 1..=6usize {
            let measured = dist.tail(p) / base;
            let predicted = f.powi(p as i32 - 1);
            if measured == 0.0 {
                break;
            }
            rows.push(vec![
                p.to_string(),
                format!("{measured:.4}"),
                format!("{predicted:.4}"),
                format!("{:.2}", measured / predicted),
            ]);
        }
        report.table(
            &["p", "measured P(advance ≥ p | advance ≥ 1)", "geometric f^(p−1)", "ratio"],
            &rows,
        );
        if let Some(ratio) = dist.decay_ratio(5) {
            report
                .kv("fitted decay ratio", format!("{ratio:.3}"))
                .kv("h/v", format!("{f:.3}"))
                .end_block();
        }
    }
    report.para(
        "Shape check: the tail decays geometrically with ratio ≈ h/v — \
         exactly the per-node survival probability Claim 3.9 aggregates \
         into (h/v)^{log²w}. Learning log²w nodes in one round is \
         exponentially unlikely, which is what forces Ω(w/log²w) rounds.",
    );
    report.print();
}
