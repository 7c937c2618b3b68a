//! E15 — the Fitzi-Hirt cost/error dial vs error-freedom.
//!
//! Fitzi-Hirt's complexity `O(nL + n³(n + κ))` contains the security
//! parameter κ: more hash bits cost more communication and buy a smaller
//! (but never zero) collision probability. The paper's contribution is
//! removing that dial entirely — deterministic correctness at a fixed
//! price. This experiment sweeps κ and prints both sides: FH's measured
//! bits and collision-probability bound against Liang-Vaidya's fixed
//! cost and zero error.

use mvbc_baselines::fitzi_hirt::{simulate_fitzi_hirt, FhOutcome, FitziHirtConfig};
use mvbc_core::{ConsensusConfig, NoopHooks};
use mvbc_metrics::MetricsSink;

use crate::{fmt_bits, measure_consensus, workload_value, Report, Table};

/// Upper bound on the ε-universal polynomial hash's collision
/// probability: per 16-bit key, two distinct degree-`m` polynomials
/// agree on at most `m - 1` of the 2^16 evaluation points; κ_symbols
/// independent keys multiply.
fn collision_bound(value_bytes: usize, kappa_symbols: usize) -> f64 {
    let symbols = value_bytes.div_ceil(2).max(2) as f64;
    ((symbols - 1.0) / 65536.0).powi(kappa_symbols as i32)
}

pub(super) fn run(quick: bool) -> Report {
    let (n, t) = (7usize, 2usize);
    let l = if quick { 1 << 12 } else { 1 << 14 }; // bytes

    // The error-free reference point (one measurement; κ-independent).
    let cfg = ConsensusConfig::new(n, t, l).expect("valid parameters");
    let hooks = (0..n).map(|_| NoopHooks::boxed()).collect();
    let ours = measure_consensus(&cfg, hooks, &[], 21);

    let mut table = Table::new(&[
        "kappa (bits)", "FH bits", "FH collision bound", "LV bits (error-free)", "FH/LV bits",
    ]);
    for kappa_symbols in [1usize, 2, 3, 4, 6, 8] {
        let mut fh_cfg = FitziHirtConfig::new(n, t, l);
        fh_cfg.kappa_symbols = kappa_symbols;
        let value = workload_value(l, 21);
        let metrics = MetricsSink::new();
        let outputs = simulate_fitzi_hirt(&fh_cfg, vec![value.clone(); n], metrics.clone());
        for out in &outputs {
            assert_eq!(out, &FhOutcome::Delivered(value.clone()), "FH honest run must deliver");
        }
        let fh_bits = metrics.snapshot().total_logical_bits();
        table.row(vec![
            (16 * kappa_symbols).to_string(),
            fmt_bits(fh_bits as f64),
            format!("{:.2e}", collision_bound(l, kappa_symbols)),
            fmt_bits(ours.total_bits as f64),
            format!("{:.3}", fh_bits as f64 / ours.total_bits as f64),
        ]);
    }

    let mut r = Report::default();
    r.line("# E15: the Fitzi-Hirt κ dial vs error-freedom\n");
    r.line(table.to_markdown());
    r.line("FH buys a smaller error probability with more κ bits but never reaches");
    r.line("zero — and E8 constructs an actual collision for any fixed κ, since the");
    r.line("full-information adversary knows the hash key. Liang-Vaidya's row is");
    r.line("constant: deterministic correctness is not priced per-κ. (FH stays");
    r.line("cheaper in raw bits at these sizes — the paper's claim is error-freedom");
    r.line("at *similar* asymptotic cost, not fewer bits than FH.)");
    r.csv("e15_kappa", table);
    r
}
