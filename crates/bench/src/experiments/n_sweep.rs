//! E2 — scaling in `n` at fixed large `L`: the paper's headline is that
//! total communication is `O(nL)`, i.e. *linear* in the network size.
//!
//! The dominant symbol traffic per processor stays ~constant
//! (`(n-1)/(n-2t)·L ≈ 3L`) while the total grows like the linear
//! coefficient `n(n-1)/(n-2t) ≈ 3(n-1)`; the BSB control overhead grows
//! faster but is sub-linear in `L` and fades for large values.

use mvbc_core::{dsel, ConsensusConfig, NoopHooks};

use crate::{fmt_bits, measure_consensus, Report, Table};

pub(super) fn run(quick: bool) -> Report {
    let l_bytes = if quick { 2 * 1024 } else { 8 * 1024 };
    let configs: &[(usize, usize)] = if quick {
        &[(4, 1), (7, 2)]
    } else {
        &[(4, 1), (7, 2), (10, 3), (13, 4)]
    };

    let mut table = Table::new(&[
        "n", "t", "L (bits)", "measured (bits)", "symbol traffic", "control (BSB)",
        "coeff n(n-1)/(n-2t)", "measured/L", "sym-traffic/L",
    ]);

    for &(n, t) in configs {
        let cfg = ConsensusConfig::new(n, t, l_bytes).expect("valid parameters");
        let hooks = (0..n).map(|_| NoopHooks::boxed()).collect();
        let m = measure_consensus(&cfg, hooks, &[], n as u64);
        let l_bits = (l_bytes * 8) as f64;
        let sym = m.snapshot.logical_bits_with_prefix("consensus.matching.symbol") as f64;
        let control = m.total_bits as f64 - sym;
        table.row(vec![
            n.to_string(),
            t.to_string(),
            ((l_bytes * 8) as u64).to_string(),
            m.total_bits.to_string(),
            fmt_bits(sym),
            fmt_bits(control),
            format!("{:.2}", dsel::linear_coefficient(n, t)),
            format!("{:.2}", m.total_bits as f64 / l_bits),
            format!("{:.2}", sym / l_bits),
        ]);
    }

    let mut r = Report::default();
    r.line("# E2: scaling in n at fixed L (failure-free)\n");
    r.line(table.to_markdown());
    r.line("paper: the L-proportional term scales as n(n-1)/(n-2t) = Θ(n); the");
    r.line("sym-traffic/L column must track the coeff column row by row.");
    r.csv("e2_n_sweep", table);
    r
}
