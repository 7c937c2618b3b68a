//! E7 — the `Broadcast_Single_Bit` cost `B(n)`: measured bits per 1-bit
//! broadcast vs the paper's assumed `Θ(n²)` and this workspace's
//! Phase-King model `Θ(n²(t+1))` (the documented substitution).

use mvbc_core::dsel;

use super::bsb_batch;
use crate::{Report, Table};

pub(super) fn run(quick: bool) -> Report {
    let configs: &[(usize, usize)] = if quick {
        &[(4, 1), (7, 2), (10, 3)]
    } else {
        &[(4, 1), (7, 2), (10, 3), (13, 4), (16, 5), (19, 6)]
    };
    let instances = 64; // amortise fixed effects

    let mut table = Table::new(&[
        "n", "t", "B measured (bits/instance)", "PK model", "paper 2n^2", "measured/n^2", "measured/n^3",
    ]);
    for &(n, t) in configs {
        let b = bsb_batch("phase-king", n, t, instances).total_logical_bits() as f64 / instances as f64;
        table.row(vec![
            n.to_string(),
            t.to_string(),
            format!("{b:.1}"),
            format!("{:.1}", dsel::model_b_phase_king(n, t)),
            format!("{:.1}", dsel::model_b_theta_n2(n)),
            format!("{:.3}", b / (n * n) as f64),
            format!("{:.4}", b / (n * n * n) as f64),
        ]);
    }

    let mut r = Report::default();
    r.line("# E7: Broadcast_Single_Bit cost B(n)\n");
    r.line(table.to_markdown());
    r.line("paper assumes B = Θ(n²) (bit-optimal BGP/Coan-Welch); our Phase-King");
    r.line("construction measures Θ(n²(t+1)) ≈ Θ(n³) — the documented substitution.");
    r.line("The measured/n^3 column stabilising confirms the model; B multiplies only");
    r.line("the sub-linear terms of Eq. (1), so the O(nL) headline is unaffected.");
    r.csv("e7_bsb", table);
    r
}
