//! E13 — message complexity vs the Dolev-Reischuk bound.
//!
//! §1 of the paper invokes the Ω(n²) lower bound on *messages* for
//! error-free consensus (Dolev & Reischuk 1985, Ω(nt) messages — Ω(n²)
//! at `t = Θ(n)`) to derive the Ω(n²) bit bound for 1-bit consensus, the
//! baseline the `O(nL)` headline is measured against. This experiment
//! counts the messages our implementation actually exchanges:
//!
//! - per 1-bit broadcast instance (`Broadcast_Single_Bit`), and
//! - per minimal consensus (1-byte value, one generation),
//!
//! confirming measured message counts sit above the Ω(nt) bound and
//! grow as the Θ(n²·t) the Phase-King substrate predicts — i.e. our
//! implementation is message-lower-bound-respecting, as every correct
//! protocol must be, and within the expected polynomial envelope.

use mvbc_core::{simulate_consensus, ConsensusConfig, NoopHooks};
use mvbc_metrics::MetricsSink;

use super::bsb_batch;
use crate::{Report, Table};

/// Messages per 1-bit broadcast instance, amortised over a batch of
/// `instances` (batched instances share physical messages).
fn bsb_messages(n: usize, t: usize, instances: usize) -> f64 {
    bsb_batch("phase-king", n, t, instances).total_messages() as f64 / instances as f64
}

/// Messages for one full (minimal, 1-byte) consensus.
fn consensus_messages(n: usize, t: usize) -> u64 {
    let cfg = ConsensusConfig::new(n, t, 1).expect("valid parameters");
    let v = vec![0x42u8];
    let metrics = MetricsSink::new();
    let hooks = (0..n).map(|_| NoopHooks::boxed()).collect();
    let run = simulate_consensus(&cfg, vec![v.clone(); n], hooks, metrics.clone());
    for out in &run.outputs {
        assert_eq!(out, &v);
    }
    metrics.snapshot().total_messages()
}

pub(super) fn run(quick: bool) -> Report {
    let configs: &[(usize, usize)] = if quick {
        &[(4, 1), (7, 2)]
    } else {
        &[(4, 1), (7, 2), (10, 3), (13, 4), (16, 5)]
    };

    let mut table = Table::new(&[
        "n", "t", "msgs / BSB batch (unamortised)", "msgs / BSB instance (batch 64)",
        "msgs / 1-byte consensus", "DR bound n·t", "n²",
    ]);
    for &(n, t) in configs {
        let unamortised = bsb_messages(n, t, 1);
        let amortised = bsb_messages(n, t, 64);
        let consensus = consensus_messages(n, t);
        table.row(vec![
            n.to_string(),
            t.to_string(),
            format!("{unamortised:.0}"),
            format!("{amortised:.2}"),
            consensus.to_string(),
            (n * t).to_string(),
            (n * n).to_string(),
        ]);
    }

    let mut r = Report::default();
    r.line("# E13: message complexity vs the Dolev-Reischuk bound\n");
    r.line(table.to_markdown());
    r.line("One unbatched Broadcast_Single_Bit already exchanges ≥ n·t messages");
    r.line("(the Ω(nt) Dolev-Reischuk bound; Ω(n²) at t = Θ(n)), growing as the");
    r.line("Θ(n²·t) of the Phase-King substrate. A full 1-byte consensus runs");
    r.line("Θ(n) batched broadcasts, so its message count is what makes 1-bit-at-");
    r.line("a-time consensus cost Ω(n²) bits per bit — the baseline the paper's");
    r.line("O(nL) result beats for large L (E3).");
    r.csv("e13_messages", table);
    r
}
