//! E5 — the Eq. (2) generation-size optimum: sweep `D` around `D*` and
//! verify the measured total is minimised near `D*`, both failure-free
//! and under the worst-case adversary (whose diagnosis cost is what the
//! `D`-tradeoff balances against the per-generation BSB overhead).

use mvbc_adversary::WorstCaseDiagnosis;
use mvbc_core::{dsel, ConsensusConfig, NoopHooks, ProtocolHooks};

use crate::{measure_consensus, Report, Table};

pub(super) fn run(quick: bool) -> Report {
    let (n, t) = (4usize, 1usize);
    let l_bytes = if quick { 4 * 1024 } else { 16 * 1024 };
    let d_star_bits = dsel::optimal_d_bits(n, t, (l_bytes * 8) as u64);
    let d_star_bytes = (d_star_bits / 8).max(1) as usize;

    let mut table = Table::new(&[
        "D (bytes)", "D/D*", "generations", "clean bits", "attacked bits", "diagnoses",
    ]);

    let mut best: Option<(usize, f64)> = None;
    for factor_num in [1usize, 2, 4, 8, 16, 32, 64] {
        // Sweep D from D*/8 to 8*D* on a geometric grid.
        let d = (d_star_bytes * factor_num / 8).max(1);
        let cfg = ConsensusConfig::with_gen_bytes(n, t, l_bytes, d).expect("valid");

        let honest: Vec<Box<dyn ProtocolHooks>> = (0..n).map(|_| NoopHooks::boxed()).collect();
        let clean = measure_consensus(&cfg, honest, &[], 1).total_bits as f64;

        let mut hooks: Vec<Box<dyn ProtocolHooks>> = (0..n).map(|_| NoopHooks::boxed()).collect();
        hooks[0] = Box::new(WorstCaseDiagnosis::new(vec![0]));
        let attacked = measure_consensus(&cfg, hooks, &[0], 2);
        let total = attacked.total_bits as f64;
        if best.is_none_or(|(_, b)| total < b) {
            best = Some((d, total));
        }

        table.row(vec![
            d.to_string(),
            format!("{:.2}", d as f64 / d_star_bytes as f64),
            cfg.generations().to_string(),
            format!("{clean:.0}"),
            format!("{total:.0}"),
            attacked.diagnosis_invocations.to_string(),
        ]);
    }

    let mut r = Report::default();
    r.line(format!(
        "# E5: generation-size sweep around Eq. (2)'s D* = {d_star_bytes} bytes (n = {n}, t = {t}, L = {} bits)\n",
        l_bytes * 8
    ));
    r.line(table.to_markdown());
    let (best_d, _) = best.expect("swept at least one D");
    r.line(format!(
        "measured optimum at D = {best_d} bytes; Eq. (2) predicts D* = {d_star_bytes} bytes \
         (agreement within the grid step is expected)."
    ));
    r.csv("e5_d_sweep", table);
    r
}
