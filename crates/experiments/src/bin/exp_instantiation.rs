//! E9 — the random-oracle methodology's second step: `f^h`.
//!
//! Replaces `RO` with the from-scratch SHA-256 instantiation and measures
//! the concrete function: sequential evaluation wall-clock scaling in `T`
//! and `n` (the `O(T·t_h)` claim), determinism across parties, and the
//! non-parallelizability interpretation (a sequential KDF / time-lock
//! flavor, the MHF connection of §1.2).

#![forbid(unsafe_code)]

use mph_core::{Line, LineParams};
use mph_experiments::setup::fmt;
use mph_experiments::Report;
use mph_oracle::HashOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn measure(params: LineParams, label: &str) -> (f64, u64) {
    let line = Line::new(params);
    let h = HashOracle::square(label, params.n);
    let mut rng = StdRng::seed_from_u64(9);
    let blocks = mph_bits::random_blocks(&mut rng, params.v, params.u);
    let start = Instant::now();
    let out = line.eval(&h, &blocks);
    let elapsed = start.elapsed().as_secs_f64();
    // Determinism check: anyone with the label computes the same value.
    assert_eq!(out, Line::new(params).eval(&HashOracle::square(label, params.n), &blocks));
    (elapsed * 1e6, params.w)
}

fn main() {
    let mut report = Report::new();
    report.h1("E9 — the concrete instantiation f^h (SHA-256)");

    report.h2("wall-clock scaling in T (n = 96)");
    let mut rows = Vec::new();
    let mut base = None;
    for w in [1_000u64, 4_000, 16_000, 64_000] {
        let params = LineParams::new(96, w, 32, 16);
        let (us, _) = measure(params, "e9-t");
        let per_node = us / w as f64;
        let base_val = *base.get_or_insert(per_node);
        rows.push(vec![
            w.to_string(),
            fmt(us),
            format!("{per_node:.3}"),
            format!("{:.2}", per_node / base_val),
        ]);
    }
    report.table(&["T = w", "total (µs)", "µs/node", "vs smallest T"], &rows);
    report.para("Shape check: µs/node is flat — evaluation time is Θ(T·t_h).");

    report.h2("wall-clock scaling in n (w = 8000)");
    let mut rows = Vec::new();
    for n in [48usize, 96, 192, 384] {
        let params = LineParams::new(n, 8_000, n / 3, 16);
        let (us, w) = measure(params, "e9-n");
        rows.push(vec![n.to_string(), fmt(us), format!("{:.3}", us / w as f64)]);
    }
    report.table(&["n (bits)", "total (µs)", "µs/node"], &rows);
    report.para(
        "The per-node cost grows with n through t_h = poly(n) — the RAM \
         complexity O(T·t_h) of the instantiated function. Because every \
         node chains through the previous answer, evaluation is inherently \
         sequential: the MHF-style interpretation (§1.2) is that f^h is a \
         delay function for memory-bounded distributed evaluators.",
    );
    report.print();
}
