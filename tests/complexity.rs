//! Communication-complexity integration tests: the measured bit counts
//! must track the paper's §3.4 analysis (Eq. 1) across parameters.

use mvbc_core::{dsel, simulate_consensus, ConsensusConfig};
use mvbc_metrics::MetricsSink;
use mvbc_systests::{honest_hooks, test_value};

fn measure(n: usize, t: usize, l: usize, gen_bytes: Option<usize>) -> (f64, ConsensusConfig) {
    let cfg = match gen_bytes {
        Some(d) => ConsensusConfig::with_gen_bytes(n, t, l, d).unwrap(),
        None => ConsensusConfig::new(n, t, l).unwrap(),
    };
    let metrics = MetricsSink::new();
    let v = test_value(l, 1);
    let run = simulate_consensus(&cfg, vec![v.clone(); n], honest_hooks(n), metrics.clone());
    assert!(run.outputs.iter().all(|o| *o == v));
    (metrics.snapshot().total_logical_bits() as f64, cfg)
}

#[test]
fn matching_stage_symbol_bits_match_formula_exactly() {
    // The matching stage sends n(n-1)/(n-2t) * D bits of symbols per
    // generation — this term is deterministic and must match exactly.
    let (n, t, l, d) = (7usize, 2usize, 3000usize, 300usize);
    let cfg = ConsensusConfig::with_gen_bytes(n, t, l, d).unwrap();
    let metrics = MetricsSink::new();
    let v = test_value(l, 2);
    let _ = simulate_consensus(&cfg, vec![v; n], honest_hooks(n), metrics.clone());
    let snap = metrics.snapshot();
    let measured = snap.logical_bits_with_prefix("consensus.matching.symbol");
    // Per generation: n senders x (n-1) recipients x chunk_bits.
    let chunk_bits = (d.div_ceil(n - 2 * t) * 8) as u64;
    let expect = (n * (n - 1)) as u64 * chunk_bits * cfg.generations() as u64;
    assert_eq!(measured, expect);
}

#[test]
fn failure_free_within_model_envelope_across_params() {
    for (n, t) in [(4usize, 1usize), (7, 2)] {
        let l = 2048usize;
        let (measured, cfg) = measure(n, t, l, None);
        let b = dsel::model_b_phase_king(n, t);
        let model = dsel::model_ccon_failure_free_bits(
            n,
            t,
            (l * 8) as u64,
            cfg.resolved_gen_bytes() as u64 * 8,
            b,
        );
        let ratio = measured / model;
        assert!(
            (0.5..2.0).contains(&ratio),
            "n={n} t={t}: measured {measured} vs model {model} (ratio {ratio})"
        );
    }
}

#[test]
fn amortized_cost_decreases_toward_linear_coefficient() {
    // Eq. (3): C_con(L)/L approaches n(n-1)/(n-2t) as L grows. With our
    // Θ(n³) BSB the sub-linear term is larger, but the per-bit cost must
    // still *decrease* monotonically in L and head toward the
    // coefficient.
    let (n, t) = (4usize, 1usize);
    let coeff = dsel::linear_coefficient(n, t); // 6.0
    let mut last_ratio = f64::INFINITY;
    for l in [1usize << 10, 1 << 12, 1 << 14, 1 << 16] {
        let (measured, _) = measure(n, t, l, None);
        let per_bit = measured / ((l * 8) as f64);
        assert!(
            per_bit < last_ratio,
            "per-bit cost must shrink with L: {per_bit} at L={l}"
        );
        last_ratio = per_bit;
        assert!(per_bit > coeff, "cannot beat the linear coefficient");
    }
    // By 64 KiB the per-bit cost should be within 4x of the coefficient.
    assert!(
        last_ratio < 4.0 * coeff,
        "per-bit cost {last_ratio} still far from coefficient {coeff}"
    );
}

#[test]
fn eq2_optimum_beats_extreme_d_choices() {
    // E5 in miniature: Eq. (2)'s D* yields lower total cost than a much
    // smaller or much larger D, under a worst-case adversary... here
    // failure-free (the D tradeoff already shows because the per-
    // generation BSB overhead dominates at small D).
    let (n, t, l) = (4usize, 1usize, 1 << 14);
    let (at_opt, cfg) = measure(n, t, l, None);
    let d_star = cfg.resolved_gen_bytes();
    let (small_d, _) = measure(n, t, l, Some((d_star / 16).max(1)));
    assert!(
        at_opt < small_d,
        "D* ({d_star}B, {at_opt} bits) must beat D*/16 ({small_d} bits)"
    );
}

#[test]
fn cost_scales_linearly_in_n_for_fixed_ratio() {
    // E2 in miniature: at fixed L, total bits grow ~n(n-1)/(n-2t) ≈ 3n
    // for the symbol traffic. The BSB terms grow faster, so assert that
    // the *symbol* traffic specifically scales linearly in n.
    let l = 4096usize;
    let mut per_n = Vec::new();
    for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
        let cfg = ConsensusConfig::with_gen_bytes(n, t, l, 512).unwrap();
        let metrics = MetricsSink::new();
        let v = test_value(l, 3);
        let _ = simulate_consensus(&cfg, vec![v; n], honest_hooks(n), metrics.clone());
        let sym_bits =
            metrics.snapshot().logical_bits_with_prefix("consensus.matching.symbol") as f64;
        per_n.push((n, sym_bits));
    }
    for w in per_n.windows(2) {
        let (n1, b1) = w[0];
        let (n2, b2) = w[1];
        let coeff1 = dsel::linear_coefficient(n1, (n1 - 1) / 3);
        let coeff2 = dsel::linear_coefficient(n2, (n2 - 1) / 3);
        let predicted = coeff2 / coeff1;
        let got = b2 / b1;
        assert!(
            (got / predicted - 1.0).abs() < 0.25,
            "n={n1}->{n2}: symbol traffic ratio {got}, predicted {predicted}"
        );
    }
}

#[test]
fn diagnosis_overhead_is_bounded_under_attack() {
    use mvbc_adversary::WorstCaseDiagnosis;
    use mvbc_core::ProtocolHooks;
    // Even the worst-case adversary adds only the bounded t(t+1)
    // diagnosis term of Eq. (1) and the window's rerun term: compare
    // attacked vs failure-free cost.
    let (n, t, l, d) = (4usize, 1usize, 8192usize, 64usize);
    let (clean, _) = measure(n, t, l, Some(d));

    let cfg = ConsensusConfig::with_gen_bytes(n, t, l, d).unwrap();
    let metrics = MetricsSink::new();
    let v = test_value(l, 4);
    let mut hooks: Vec<Box<dyn ProtocolHooks>> = honest_hooks(n);
    hooks[0] = Box::new(WorstCaseDiagnosis::new(vec![0]));
    let run = simulate_consensus(&cfg, vec![v.clone(); n], hooks, metrics.clone());
    for id in 1..n {
        assert_eq!(run.outputs[id], v);
    }
    let attacked = metrics.snapshot().total_logical_bits() as f64;

    // Diagnosis adds (per stage) about (n-t)/(n-2t)*D*B + n(n-t)*B bits,
    // and one execution discards at most rerun_bound(W) < 2W generations
    // that already ran matching and checking; with at most t(t+1) = 2
    // stages the overhead is bounded by the worst-case terms of the
    // windowed Eq. (1). Generous envelope: attacked <= clean + 3
    // * model worst-case terms. (The attacked run can even be *cheaper*
    // than the clean one: once the faulty processor is isolated, nobody
    // pays for its traffic in the remaining generations — the flip side
    // of "memory across generations".)
    let b = dsel::model_b_phase_king(n, t);
    let l_bits = (l * 8) as u64;
    let d_bits = (d * 8) as u64;
    let diag_term = dsel::model_ccon_bits(n, t, l_bits, d_bits, b)
        - dsel::model_ccon_failure_free_bits(n, t, l_bits, d_bits, b);
    assert_eq!(
        run.reports[1].diagnosis_invocations,
        (t * (t + 1)) as u64,
        "the worst-case adversary must exhaust its diagnosis budget"
    );
    assert!(
        attacked < clean + 3.0 * diag_term,
        "attacked {attacked} vs clean {clean} + 3x worst-case model terms {diag_term}"
    );
}
