//! Regenerates Table 2 of the paper: Theorem 3.1's parameters, plus the
//! quantitative regime check — for which `n` the theorem's machinery
//! actually certifies hardness at a fixed workload.

#![forbid(unsafe_code)]

use mph_bounds::regimes;
use mph_bounds::tables;
use mph_core::LineParams;
use mph_experiments::sweep::grid_map;
use mph_experiments::Report;

fn main() {
    let mut report = Report::new();
    report.h1("Table 2 — parameters of Theorem 3.1");

    // A paper-scale instantiation where every constraint is satisfiable.
    let (n, s_ram, t, q) = (1u64 << 14, 1u64 << 18, 1u64 << 20, 1u64 << 12);
    let rows: Vec<Vec<String>> =
        grid_map(tables::table2(n, s_ram, t, q), |r| vec![r.symbol, r.description, r.value]);
    report.table(&["symbol", "definition", "value"], &rows);

    report.h2("constraint report for this instantiation (s = S/8, m = 1024)");
    let params = LineParams::from_nst(n as usize, s_ram as usize, t);
    let rr = params.regime_report(1024, (s_ram / 8) as usize, q);
    report
        .kv("S ≥ n", rr.s_at_least_n)
        .kv("T ≥ S", rr.t_at_least_s)
        .kv("S < 2^O(n^1/4)", rr.s_below_exp)
        .kv("T < 2^O(n^1/4)", rr.t_below_exp)
        .kv("m < 2^O(n^1/4)", rr.m_below_exp)
        .kv("q < 2^(n/4)", rr.q_below_quarter)
        .kv("s/S", format!("{:.4}", rr.local_memory_fraction))
        .kv("Lemma 3.6 margin (bits)", format!("{:.0}", rr.lemma36_u_margin))
        .kv("in regime", rr.in_regime())
        .end_block();

    report.h2("where the theorem turns on (sweep n, same workload)");
    let ns: Vec<f64> = (6..=16).map(|e| 2f64.powi(e)).collect();
    let points = regimes::regime_sweep(&ns, s_ram as f64, t as f64, 0.125, 1024.0, q as f64);
    let rows: Vec<Vec<String>> = grid_map(points, |p| {
        vec![
            format!("2^{:.0}", p.n.log2()),
            format!("{:.0}", p.lemma36_denominator),
            format!("2^{:.1}", p.success_bound_log2),
            p.certified.to_string(),
            format!("{:.0}", p.rounds),
        ]
    });
    report.table(
        &["n", "Lemma 3.6 denom (bits)", "success bound", "certified", "rounds ≥ w/log²w"],
        &rows,
    );
    report.print();
}
