//! End-to-end broadcast tests: fault-free and adversarial executions.

use mvbc_broadcast::attacks::{
    EquivocatingSource, FalseDetector, LyingDiagnosisSource, LyingEcho, SilentSource,
};
use mvbc_broadcast::{
    simulate_broadcast, BroadcastConfig, BroadcastHooks, BroadcastRun, NoopBroadcastHooks,
};
use mvbc_metrics::MetricsSink;

fn value(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed)).collect()
}

fn honest(n: usize) -> Vec<Box<dyn BroadcastHooks>> {
    (0..n).map(|_| NoopBroadcastHooks::boxed()).collect()
}

/// Byzantine-broadcast safety: all fault-free outputs equal; when the
/// source is fault-free they equal its input (validity).
fn assert_bcast_safety(run: &BroadcastRun, faulty: &[usize], source_input: Option<&[u8]>) {
    let n = run.outputs.len();
    let honest_ids: Vec<usize> = (0..n).filter(|id| !faulty.contains(id)).collect();
    for w in honest_ids.windows(2) {
        assert_eq!(
            run.outputs[w[0]], run.outputs[w[1]],
            "consistency violated between honest {} and {}",
            w[0], w[1]
        );
    }
    if let Some(v) = source_input {
        for &id in &honest_ids {
            assert_eq!(run.outputs[id], v, "validity violated at {id}");
        }
    }
    for &id in &honest_ids {
        for iso in &run.reports[id].isolated {
            assert!(faulty.contains(iso), "honest processor {iso} isolated");
        }
    }
}

#[test]
fn honest_broadcast_various_sizes() {
    for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
        for src in [0, n - 1] {
            let cfg = BroadcastConfig::new(n, t, src, 256).unwrap();
            let v = value(256, src as u8);
            let run = simulate_broadcast(&cfg, v.clone(), honest(n), MetricsSink::new());
            assert_bcast_safety(&run, &[], Some(&v));
            assert_eq!(run.reports[0].diagnosis_invocations, 0);
        }
    }
}

#[test]
fn multi_generation_broadcast() {
    let cfg = BroadcastConfig::with_gen_bytes(4, 1, 0, 100, 8).unwrap();
    let v = value(100, 9);
    let run = simulate_broadcast(&cfg, v.clone(), honest(4), MetricsSink::new());
    assert_bcast_safety(&run, &[], Some(&v));
}

#[test]
fn t_zero_broadcast() {
    let cfg = BroadcastConfig::new(4, 0, 2, 64).unwrap();
    let v = value(64, 5);
    let run = simulate_broadcast(&cfg, v.clone(), honest(4), MetricsSink::new());
    assert_bcast_safety(&run, &[], Some(&v));
}

#[test]
fn equivocating_source_still_delivers_consistently() {
    let n = 4;
    let cfg = BroadcastConfig::with_gen_bytes(n, 1, 0, 64, 16).unwrap();
    let v = value(64, 1);
    let mut hooks = honest(n);
    hooks[0] = Box::new(EquivocatingSource);
    let run = simulate_broadcast(&cfg, v.clone(), hooks, MetricsSink::new());
    // Source faulty: consistency only (no validity requirement).
    assert_bcast_safety(&run, &[0], None);
    assert!(run.reports[1].diagnosis_invocations >= 1);
}

#[test]
fn silent_source_defaults_consistently() {
    let n = 4;
    let cfg = BroadcastConfig::with_gen_bytes(n, 1, 0, 32, 8).unwrap();
    let v = value(32, 2);
    let mut hooks = honest(n);
    hooks[0] = Box::new(SilentSource);
    let run = simulate_broadcast(&cfg, v, hooks, MetricsSink::new());
    assert_bcast_safety(&run, &[0], None);
}

#[test]
fn lying_diagnosis_source_commits_to_lie_consistently() {
    // The source disperses the truth but lies in the diagnosis broadcast:
    // honest processors must deliver a *common* value (the lie), and the
    // source loses edges.
    let n = 4;
    let cfg = BroadcastConfig::with_gen_bytes(n, 1, 0, 32, 8).unwrap();
    let v = value(32, 3);
    let mut hooks = honest(n);
    hooks[0] = Box::new(CombinedSourceAttack);
    let run = simulate_broadcast(&cfg, v, hooks, MetricsSink::new());
    assert_bcast_safety(&run, &[0], None);
}

/// Equivocate in dispersal (to force a diagnosis) *and* lie in the
/// diagnosis data broadcast.
#[derive(Debug, Clone, Copy, Default)]
struct CombinedSourceAttack;

impl mvbc_bsb::BsbHooks for CombinedSourceAttack {}

impl BroadcastHooks for CombinedSourceAttack {
    fn dispersal_symbol(&mut self, g: usize, to: usize, payload: &mut Vec<u8>) -> bool {
        let mut inner = EquivocatingSource;
        inner.dispersal_symbol(g, to, payload)
    }

    fn data_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        let mut inner = LyingDiagnosisSource;
        inner.data_bits(g, bits);
    }
}

#[test]
fn lying_echo_caught_and_value_delivered() {
    let n = 4;
    let cfg = BroadcastConfig::with_gen_bytes(n, 1, 0, 64, 16).unwrap();
    let v = value(64, 4);
    let mut hooks = honest(n);
    hooks[2] = Box::new(LyingEcho::new(vec![3]));
    let run = simulate_broadcast(&cfg, v.clone(), hooks, MetricsSink::new());
    assert_bcast_safety(&run, &[2], Some(&v));
    assert!(run.reports[0].diagnosis_invocations >= 1);
    // The liar's edges shrink; check at least one edge was removed.
    assert!(run.reports[0].edges_removed >= 1);
}

#[test]
fn false_detector_isolated() {
    let n = 4;
    let cfg = BroadcastConfig::with_gen_bytes(n, 1, 0, 64, 8).unwrap();
    let v = value(64, 6);
    let mut hooks = honest(n);
    hooks[3] = Box::new(FalseDetector);
    let run = simulate_broadcast(&cfg, v.clone(), hooks, MetricsSink::new());
    assert_bcast_safety(&run, &[3], Some(&v));
    assert_eq!(run.reports[0].isolated, vec![3]);
}

#[test]
fn diagnosis_count_bounded() {
    // t(t+2) bound from the crate docs, under a persistent attacker.
    let n = 7;
    let t = 2;
    let cfg = BroadcastConfig::with_gen_bytes(n, t, 0, 256, 8).unwrap();
    let v = value(256, 7);
    let mut hooks = honest(n);
    hooks[5] = Box::new(LyingEcho::new(vec![1, 2]));
    hooks[6] = Box::new(FalseDetector);
    let run = simulate_broadcast(&cfg, v.clone(), hooks, MetricsSink::new());
    assert_bcast_safety(&run, &[5, 6], Some(&v));
    assert!(
        run.reports[0].diagnosis_invocations <= (t * (t + 2)) as u64,
        "diagnosis bound exceeded: {}",
        run.reports[0].diagnosis_invocations
    );
}

#[test]
fn failure_free_cost_near_two_nl() {
    // README.md, "Substitutions": failure-free cost ≈ (n-t)(n-1)/(n-2t) · L plus
    // sub-linear terms; for n = 7, t = 2 the coefficient is 10(n-1)/3 ≈
    // 3.33(n-1)... measured against (n-1)L directly.
    let n = 7;
    let t = 2;
    let l = 8192usize;
    let cfg = BroadcastConfig::new(n, t, 0, l).unwrap();
    let v = value(l, 8);
    let metrics = MetricsSink::new();
    let run = simulate_broadcast(&cfg, v.clone(), honest(n), metrics.clone());
    assert_bcast_safety(&run, &[], Some(&v));
    let total = metrics.snapshot().total_logical_bits() as f64;
    let lower = ((n - 1) * l * 8) as f64;
    let ratio = total / lower;
    // (n-t+1)/(n-2t) = 6/3 = 2 for the symbol traffic; BSB overhead adds
    // more at this moderate L. Must stay well below the bitwise baseline.
    assert!(ratio > 1.0, "cannot beat the (n-1)L lower bound: {ratio}");
    assert!(ratio < 8.0, "ratio {ratio} too far from the model");
}

#[test]
fn silent_echo_tolerated() {
    use mvbc_broadcast::attacks::SilentEcho;
    let n = 7;
    let cfg = BroadcastConfig::with_gen_bytes(n, 2, 0, 96, 16).unwrap();
    let v = value(96, 10);
    let mut hooks = honest(n);
    hooks[2] = Box::new(SilentEcho); // node 2 is in the echo set
    let run = simulate_broadcast(&cfg, v.clone(), hooks, MetricsSink::new());
    assert_bcast_safety(&run, &[2], Some(&v));
}

#[test]
fn framing_echo_burns_its_own_edges() {
    use mvbc_broadcast::attacks::FramingEcho;
    let n = 7;
    let cfg = BroadcastConfig::with_gen_bytes(n, 2, 0, 96, 16).unwrap();
    let v = value(96, 11);
    let mut hooks = honest(n);
    hooks[3] = Box::new(FramingEcho);
    let run = simulate_broadcast(&cfg, v.clone(), hooks, MetricsSink::new());
    assert_bcast_safety(&run, &[3], Some(&v));
    // The frame-up claims "source sent me nothing" while the source's
    // data broadcast says otherwise: the (source, echo) edge is removed,
    // and since the source is honest, the removal bill lands on node 3.
    assert!(run.reports[0].diagnosis_invocations >= 1);
    assert!(run.reports[0].edges_removed >= 1);
}

#[test]
fn two_byzantine_echoes_n7() {
    use mvbc_broadcast::attacks::{LyingEcho, SilentEcho};
    let n = 7;
    let cfg = BroadcastConfig::with_gen_bytes(n, 2, 0, 128, 16).unwrap();
    let v = value(128, 12);
    let mut hooks = honest(n);
    hooks[1] = Box::new(SilentEcho);
    hooks[4] = Box::new(LyingEcho::new(vec![5, 6]));
    let run = simulate_broadcast(&cfg, v.clone(), hooks, MetricsSink::new());
    assert_bcast_safety(&run, &[1, 4], Some(&v));
}

#[test]
fn source_at_every_position() {
    for src in 0..4 {
        let cfg = BroadcastConfig::with_gen_bytes(4, 1, src, 40, 8).unwrap();
        let v = value(40, src as u8);
        let run = simulate_broadcast(&cfg, v.clone(), honest(4), MetricsSink::new());
        assert_bcast_safety(&run, &[], Some(&v));
    }
}

#[test]
fn one_byte_broadcast() {
    let cfg = BroadcastConfig::new(4, 1, 0, 1).unwrap();
    let run = simulate_broadcast(&cfg, vec![0x7F], honest(4), MetricsSink::new());
    assert!(run.outputs.iter().all(|o| *o == vec![0x7F]));
}
