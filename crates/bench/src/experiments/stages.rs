//! E10 — the §3.4 per-stage cost itemisation, measured.
//!
//! The paper's complexity analysis prices each stage separately:
//!
//! - matching: `n(n-1)/(n-2t)·D` symbol bits plus `n(n-1)·B` for the `M`
//!   vectors, per generation;
//! - checking: `t·B` for the `Detected` flags, per generation;
//! - diagnosis: `(n-t)/(n-2t)·D·B + n(n-t)·B`, at most `t(t+1)` times.
//!
//! This experiment reproduces that table from the metered tags,
//! failure-free and under the worst-case adversary. Its one
//! configuration is small, so `quick` changes nothing.

use mvbc_adversary::WorstCaseDiagnosis;
use mvbc_core::{dsel, ConsensusConfig, NoopHooks, ProtocolHooks};

use crate::{fmt_bits, measure_consensus, Report, Table};

pub(super) fn run(_quick: bool) -> Report {
    let (n, t, l_bytes, d_bytes) = (7usize, 2usize, 8 * 1024usize, 256usize);
    let cfg = ConsensusConfig::with_gen_bytes(n, t, l_bytes, d_bytes).expect("valid");
    let gens = cfg.generations() as f64;
    let b = dsel::model_b_phase_king(n, t);
    let d_bits = (d_bytes * 8) as f64;
    let k = (n - 2 * t) as f64;

    let honest: Vec<Box<dyn ProtocolHooks>> = (0..n).map(|_| NoopHooks::boxed()).collect();
    let clean = measure_consensus(&cfg, honest, &[], 1);

    let mut attacked_hooks: Vec<Box<dyn ProtocolHooks>> =
        (0..n).map(|_| NoopHooks::boxed()).collect();
    attacked_hooks[0] = Box::new(WorstCaseDiagnosis::new(vec![0]));
    let attacked = measure_consensus(&cfg, attacked_hooks, &[0], 2);

    let rows: &[(&str, &str, f64)] = &[
        (
            "matching: symbols",
            "consensus.matching.symbol",
            (n * (n - 1)) as f64 / k * d_bits * gens,
        ),
        (
            "matching: M vectors (BSB)",
            "consensus.matching.m",
            (n * n) as f64 * b * gens, // n sources x n bits each
        ),
        (
            "checking: Detected (BSB)",
            "consensus.checking.detected",
            t as f64 * b * gens,
        ),
        (
            "diagnosis: R# + Trust (BSB)",
            "consensus.diagnosis",
            // Worst case per Eq. (1): only in attacked runs.
            (t * (t + 1)) as f64 * ((n - t) as f64 / k * d_bits + (n * (n - t)) as f64) * b,
        ),
    ];

    let mut table = Table::new(&["stage", "model (Eq. 1 terms)", "failure-free", "worst-case attack"]);
    for &(name, prefix, model) in rows {
        table.row(vec![
            name.to_string(),
            fmt_bits(model),
            fmt_bits(clean.snapshot.logical_bits_with_prefix(prefix) as f64),
            fmt_bits(attacked.snapshot.logical_bits_with_prefix(prefix) as f64),
        ]);
    }
    table.row(vec![
        "total".into(),
        "—".into(),
        fmt_bits(clean.total_bits as f64),
        fmt_bits(attacked.total_bits as f64),
    ]);

    let mut r = Report::default();
    r.line(format!(
        "# E10: per-stage cost itemisation (§3.4), n = {n}, t = {t}, L = {} bits, D = {} bits\n",
        l_bytes * 8,
        d_bytes * 8
    ));
    r.line(table.to_markdown());
    r.line("notes: the M-vector model row uses n bits per source (the implementation");
    r.line("broadcasts fixed-width vectors; the paper books n-1). The diagnosis row's");
    r.line("model is the Eq. (1) worst case; measured diagnosis appears only under attack.");
    r.line("Under attack the matching and checking rows also count the generations each");
    r.line("diagnosis discarded from its window and ran again (fewer than 2W in all).");
    r.csv("e10_stages", table);
    r
}
