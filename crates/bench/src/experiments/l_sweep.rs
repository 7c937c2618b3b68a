//! E1 — `C_con(L)` vs `L` (the paper's Eq. (1)/(3) as a measured curve).
//!
//! For each `n` and a sweep of `L`, runs failure-free consensus and
//! reports measured total bits, the per-bit cost, the Eq. (1) model with
//! the measured Phase-King `B` and with the paper's `Θ(n²)` `B`, and the
//! asymptotic target `n(n-1)/(n-2t)·L`. The paper's claim: the per-bit
//! cost approaches the linear coefficient as `L` grows.

use mvbc_core::{dsel, ConsensusConfig, NoopHooks};

use crate::{fmt_bits, measure_consensus, AsciiChart, ChartSeries, Report, Table};

pub(super) fn run(quick: bool) -> Report {
    let configs: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (7, 2)] };
    let l_exp_max = if quick { 14 } else { 17 };

    let mut table = Table::new(&[
        "n", "t", "L (bits)", "D* (bits)", "measured (bits)", "per-bit",
        "Eq1 (B=PK)", "Eq1 (B=2n^2)", "n(n-1)/(n-2t)*L", "rounds",
    ]);

    let mut curves: Vec<ChartSeries> = Vec::new();
    for &(n, t) in configs {
        let mut measured_curve: Vec<(f64, f64)> = Vec::new();
        let mut target_curve: Vec<(f64, f64)> = Vec::new();
        for l_exp in (10..=l_exp_max).step_by(2).chain([l_exp_max + 1]) {
            let l_bytes = (1usize << l_exp) / 8;
            let cfg = ConsensusConfig::new(n, t, l_bytes).expect("valid parameters");
            let hooks = (0..n).map(|_| NoopHooks::boxed()).collect();
            let m = measure_consensus(&cfg, hooks, &[], l_exp as u64);

            let l_bits = (l_bytes * 8) as u64;
            let d_bits = cfg.resolved_gen_bytes() as u64 * 8;
            let model_pk = dsel::model_ccon_failure_free_bits(
                n, t, l_bits, d_bits, dsel::model_b_phase_king(n, t),
            );
            let model_n2 = dsel::model_ccon_failure_free_bits(
                n, t, l_bits, d_bits, dsel::model_b_theta_n2(n),
            );
            let linear = dsel::linear_coefficient(n, t) * l_bits as f64;
            measured_curve.push((l_exp as f64, m.total_bits as f64 / l_bits as f64));
            target_curve.push((l_exp as f64, dsel::linear_coefficient(n, t)));
            table.row(vec![
                n.to_string(),
                t.to_string(),
                l_bits.to_string(),
                d_bits.to_string(),
                m.total_bits.to_string(),
                format!("{:.2}", m.total_bits as f64 / l_bits as f64),
                fmt_bits(model_pk),
                fmt_bits(model_n2),
                fmt_bits(linear),
                m.rounds.to_string(),
            ]);
        }
        let glyph = char::from_digit(n as u32 % 10, 10).unwrap_or('*');
        curves.push((glyph, format!("measured per-bit, n={n}"), measured_curve));
        curves.push(('-', format!("coefficient target, n={n}"), target_curve));
    }

    let mut r = Report::default();
    r.line("# E1: communication complexity vs L (failure-free)\n");
    r.line(table.to_markdown());

    // The paper's Figure-equivalent: per-bit cost falling toward the
    // linear coefficient as L grows (x axis: log2 L; y: bits per bit).
    let mut chart = AsciiChart::new(56, 14);
    for (glyph, label, points) in curves {
        chart.series(glyph, &label, points);
    }
    r.line("figure: per-value-bit cost vs log2(L)\n");
    r.line(chart.render());
    r.line("paper: Eq. (3) — per-bit cost approaches n(n-1)/(n-2t) for large L");
    r.csv("e1_l_sweep", table);
    r
}
