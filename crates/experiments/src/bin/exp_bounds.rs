//! E8 — every bound formula, evaluated at paper scale.
//!
//! The simulations necessarily run at toy `n`; here the same formulas are
//! evaluated (in log₂-space) at the parameter magnitudes the theorems are
//! stated for, showing each lemma's bound doing its job and how the terms
//! trade off.

#![forbid(unsafe_code)]

use mph_bounds::{regimes, Log2};
use mph_bounds::{LineBoundInputs, SimLineBoundInputs};
use mph_experiments::Report;

fn main() {
    let mut report = Report::new();
    report.h1("E8 — the paper's bounds at full scale (log₂-space)");

    report.h2("Theorem 3.1 chain, n = 2^14, S = 2^18 bits, T = 2^20, m = 2^10, s = S/8, q = 2^12");
    let b = LineBoundInputs::from_nst(
        2f64.powi(14),
        2f64.powi(18),
        2f64.powi(20),
        2f64.powi(10),
        2f64.powi(15),
        2f64.powi(12),
    );
    report
        .kv("u = n/3", format!("{:.0} bits", b.u))
        .kv("v = S/u", format!("{:.1}", b.v))
        .kv("log² w", format!("{:.0}", b.log2w_sq()))
        .kv("Lemma 3.6 denominator", format!("{:.0} bits", b.lemma36_denominator()))
        .kv("h (blocks memory can encode)", format!("{:.2}", b.h()))
        .kv(
            "Lemma 3.3  Pr[E^(k)], k = R",
            format!("{}", b.lemma33_guess_bound(b.certified_rounds())),
        )
        .kv("Lemma 3.6  Pr[|B| > h]", format!("{}", b.lemma36_overflow_bound()))
        .kv("Claim 3.9 per-machine trio", format!("{}", b.claim39_per_machine_term()))
        .kv("Theorem 3.1 success bound at R = w/log²w", format!("{}", b.theorem31_success_bound()))
        .kv("certified rounds w/log²w", format!("{:.0}", b.certified_rounds()))
        .end_block();

    report.h2("how the bound dies as s grows (the s ≤ S/c condition)");
    let mut rows = Vec::new();
    for frac_exp in [-6i32, -4, -3, -2, -1, 0] {
        let mut b2 = b;
        b2.s = 2f64.powi(18 + frac_exp);
        let bound =
            if b2.lemma36_denominator() > 0.0 { b2.theorem31_success_bound() } else { Log2::ONE };
        rows.push(vec![
            format!("2^{frac_exp}"),
            format!("{:.1}", b2.h()),
            format!("{bound}"),
            (bound.log2() < (1.0f64 / 3.0).log2()).to_string(),
        ]);
    }
    report.table(&["s/S", "h", "success bound", "hardness certified"], &rows);

    report.h2("Theorem A.1 chain (SimLine), n = 3000, S = 2^16 bits, T = 2^24, m = 2^8, s = 2^13, q = 2^10");
    let a = SimLineBoundInputs::from_nst(
        3000.0,
        2f64.powi(16),
        2f64.powi(24),
        2f64.powi(8),
        2f64.powi(13),
        2f64.powi(10),
    );
    report
        .kv("h = s/(u − log q − log v) + 1", format!("{:.2}", a.h()))
        .kv("Lemma A.3  Pr[|Q ∩ C| ≥ h]", format!("{}", a.lemma_a3_bound(a.h())))
        .kv("Lemma A.3  Pr[|Q ∩ C| ≥ 2h]", format!("{}", a.lemma_a3_bound(2.0 * a.h())))
        .kv("Lemma A.7  per-guess", format!("{}", a.lemma_a7_bound()))
        .kv("Theorem A.1 success bound at R = w/h", format!("{}", a.theorem_a1_success_bound()))
        .kv("certified rounds w/h", format!("{:.0}", a.certified_rounds()))
        .end_block();

    report.h2("minimum certifying n per workload (binary search)");
    let mut rows = Vec::new();
    for (log_s, log_t) in [(16u32, 18u32), (18, 20), (20, 24), (24, 30)] {
        let n = regimes::min_certifying_n(
            2f64.powi(log_s as i32),
            2f64.powi(log_t as i32),
            0.125,
            1024.0,
            4096.0,
            6,
            24,
        );
        rows.push(vec![
            format!("2^{log_s}"),
            format!("2^{log_t}"),
            n.map(|n| format!("2^{:.0}", n.log2())).unwrap_or_else(|| "none ≤ 2^24".into()),
        ]);
    }
    report.table(&["S (bits)", "T", "min n certifying hardness"], &rows);
    report.para(
        "Reading: n = polylog(T) suffices (the paper's instantiation \
         remark) — the minimum certifying n grows far slower than T.",
    );
    report.print();
}
