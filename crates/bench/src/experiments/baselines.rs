//! E3 — three-way comparison: Liang-Vaidya vs bitwise consensus vs
//! Fitzi-Hirt, sweeping `L` (the paper's §1 positioning).
//!
//! Expected shape: bitwise grows with slope `Θ(n²)` per bit and loses
//! quickly; ours and Fitzi-Hirt are both `O(nL)`-class for large `L`
//! ("similar complexity"), with crossovers at small `L` where fixed
//! control overheads dominate. Ours buys *error-freedom* at that price
//! (see E8).

use mvbc_baselines::bitwise::{model_bits_theta_n2, simulate_bitwise};
use mvbc_baselines::fitzi_hirt::{simulate_fitzi_hirt, FhOutcome, FitziHirtConfig};
use mvbc_core::{ConsensusConfig, NoopHooks};
use mvbc_metrics::MetricsSink;

use crate::{measure_consensus, workload_value, AsciiChart, Report, Table};

pub(super) fn run(quick: bool) -> Report {
    let (n, t) = (7usize, 2usize);
    let l_exps: &[usize] = if quick { &[8, 11, 14] } else { &[6, 8, 10, 12, 14, 16, 17] };

    let mut table = Table::new(&[
        "L (bits)", "ours (bits)", "bitwise (bits)", "fitzi-hirt (bits)",
        "ours/L", "bitwise/L", "fh/L", "winner", "bitwise model 2n^2*L",
    ]);

    let mut ours_curve = Vec::new();
    let mut bitwise_curve = Vec::new();
    let mut fh_curve = Vec::new();
    for &l_exp in l_exps {
        let l_bytes = ((1usize << l_exp) / 8).max(8);
        let l_bits = (l_bytes * 8) as f64;
        let v = workload_value(l_bytes, l_exp as u64);

        let cfg = ConsensusConfig::new(n, t, l_bytes).expect("valid");
        let hooks = (0..n).map(|_| NoopHooks::boxed()).collect();
        let ours = measure_consensus(&cfg, hooks, &[], 3).total_bits as f64;

        let bw_metrics = MetricsSink::new();
        let outs = simulate_bitwise(n, t, vec![v.clone(); n], bw_metrics.clone());
        assert!(outs.iter().all(|o| *o == v));
        let bitwise = bw_metrics.snapshot().total_logical_bits() as f64;

        let fh_cfg = FitziHirtConfig::new(n, t, l_bytes);
        let fh_metrics = MetricsSink::new();
        let fh_outs = simulate_fitzi_hirt(&fh_cfg, vec![v.clone(); n], fh_metrics.clone());
        assert!(fh_outs.iter().all(|o| *o == FhOutcome::Delivered(v.clone())));
        let fh = fh_metrics.snapshot().total_logical_bits() as f64;

        ours_curve.push((l_exp as f64, (ours / l_bits).log2()));
        bitwise_curve.push((l_exp as f64, (bitwise / l_bits).log2()));
        fh_curve.push((l_exp as f64, (fh / l_bits).log2()));
        let winner = if ours <= bitwise && ours <= fh {
            "ours"
        } else if fh <= bitwise {
            "fitzi-hirt"
        } else {
            "bitwise"
        };
        table.row(vec![
            format!("{}", l_bytes * 8),
            format!("{ours:.0}"),
            format!("{bitwise:.0}"),
            format!("{fh:.0}"),
            format!("{:.1}", ours / l_bits),
            format!("{:.1}", bitwise / l_bits),
            format!("{:.1}", fh / l_bits),
            winner.to_string(),
            format!("{:.0}", model_bits_theta_n2(n, l_bits as u64)),
        ]);
    }

    let mut r = Report::default();
    r.line(format!("# E3: ours vs bitwise vs Fitzi-Hirt, n = {n}, t = {t}\n"));
    r.line(table.to_markdown());

    // Figure: per-bit cost (log2) vs log2 L — bitwise stays flat and
    // high, ours falls through it (the crossover) toward FH.
    let mut chart = AsciiChart::new(56, 14);
    chart.series('o', "ours", ours_curve);
    chart.series('b', "bitwise", bitwise_curve);
    chart.series('f', "fitzi-hirt", fh_curve);
    r.line("figure: log2(per-value-bit cost) vs log2(L)\n");
    r.line(chart.render());
    r.line("paper: bitwise is Ω(n²L); ours and FH are both O(nL)-class for large L,");
    r.line("with ours error-free (E8) — 'improvement over Fitzi-Hirt' is in guarantees.");
    r.csv("e3_baselines", table);
    r
}
