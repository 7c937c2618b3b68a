//! E11 — the `Broadcast_Single_Bit` substitution (§4): cost and
//! resilience profile of the three substrates (Phase-King, EIG,
//! Dolev-Strong) at the primitive level and inside the full consensus.
//!
//! The paper parameterises Eq. (1) by the black-box broadcast cost `B`
//! and §4 proposes swapping the substrate to trade error-freedom for
//! resilience. This experiment measures exactly that trade: per-instance
//! `B`, rounds per batch, tolerated `t`, and the end-to-end consensus
//! cost under each substrate (identical symbol traffic, different
//! control traffic).

use mvbc_core::{ConsensusConfig, NoopHooks};

use super::{bsb_batch, fleet, SUBSTRATES};
use crate::{fmt_bits, measure_consensus_with, Report, Table};

pub(super) fn run(quick: bool) -> Report {
    let mut r = Report::default();

    // ---- primitive-level profile ----
    let configs: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (7, 2)] };
    let instances = 64;
    let mut prim = Table::new(&[
        "substrate", "n", "t", "max t", "error-free", "B (bits/instance)", "rounds/batch",
    ]);
    for &(n, t) in configs {
        for name in SUBSTRATES {
            let snap = bsb_batch(name, n, t, instances);
            let b = snap.total_logical_bits() as f64 / instances as f64;
            let (max_t, errorfree) = match name {
                "phase-king" | "eig" => ((n - 1) / 3, "yes"),
                _ => (n - 1, "signature-assumption"),
            };
            prim.row(vec![
                name.to_string(),
                n.to_string(),
                t.to_string(),
                max_t.to_string(),
                errorfree.to_string(),
                format!("{b:.1}"),
                snap.rounds().to_string(),
            ]);
        }
    }
    r.line("# E11a: Broadcast_Single_Bit substrate profile\n");
    r.line(prim.to_markdown());
    r.csv("e11_substrates_primitive", prim);

    // ---- consensus-level profile ----
    let l_bytes = if quick { 1 << 10 } else { 1 << 12 };
    let mut cons = Table::new(&[
        "substrate", "n", "t", "L (bits)", "total bits", "per value bit", "rounds",
    ]);
    for &(n, t) in configs {
        for name in SUBSTRATES {
            let cfg = ConsensusConfig::new(n, t, l_bytes).expect("valid parameters");
            let hooks = (0..n).map(|_| NoopHooks::boxed()).collect();
            let m = measure_consensus_with(&cfg, hooks, fleet(name, n), &[], 11);
            cons.row(vec![
                name.to_string(),
                n.to_string(),
                t.to_string(),
                (l_bytes * 8).to_string(),
                fmt_bits(m.total_bits as f64),
                format!("{:.2}", m.total_bits as f64 / (l_bytes * 8) as f64),
                m.rounds.to_string(),
            ]);
        }
    }
    r.line("# E11b: consensus cost under each substrate\n");
    r.line(cons.to_markdown());
    r.line("The L-linear symbol traffic is substrate-independent; only the B-priced");
    r.line("control traffic moves. Dolev-Strong trades error-freedom for resilience");
    r.line("(t < n with idealised signatures) exactly as §4 prescribes — the");
    r.line("consensus layer's own lemmas still need t < n/3 (README.md, \"Substitutions\").");
    r.csv("e11_substrates_consensus", cons);
    r
}
