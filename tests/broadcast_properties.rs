//! Property-based tests of the broadcast extension: consistency always,
//! validity for a fault-free source, bounded dispute budget.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mvbc_broadcast::attacks::{
    EquivocatingSource, FalseDetector, FramingAccuser, FramingEcho, LyingDiagnosisSource,
    LyingEcho, SilentEcho, SilentSource,
};
use mvbc_broadcast::{
    simulate_broadcast, BroadcastConfig, BroadcastHooks, NoopBroadcastHooks,
};
use mvbc_bsb::BsbHooks;
use mvbc_metrics::MetricsSink;
use mvbc_systests::test_value;
use proptest::prelude::*;

fn honest(n: usize) -> Vec<Box<dyn BroadcastHooks>> {
    (0..n).map(|_| NoopBroadcastHooks::boxed()).collect()
}

fn check_broadcast(
    n: usize,
    t: usize,
    source: usize,
    value: Vec<u8>,
    gen_bytes: usize,
    hooks: Vec<Box<dyn BroadcastHooks>>,
    faulty: Vec<usize>,
) -> Result<(), TestCaseError> {
    let cfg = BroadcastConfig::with_gen_bytes(n, t, source, value.len(), gen_bytes).unwrap();
    let run = simulate_broadcast(&cfg, value.clone(), hooks, MetricsSink::new());
    let honest_ids: Vec<usize> = (0..n).filter(|i| !faulty.contains(i)).collect();
    // Consistency among all fault-free processors.
    for w in honest_ids.windows(2) {
        prop_assert_eq!(&run.outputs[w[0]], &run.outputs[w[1]]);
    }
    // Validity when the source is fault-free.
    if !faulty.contains(&source) {
        prop_assert_eq!(&run.outputs[honest_ids[0]], &value);
    }
    // Dispute budget (crate docs: t(t+2)).
    for &h in &honest_ids {
        prop_assert!(run.reports[h].diagnosis_invocations <= (t * (t + 2)) as u64);
        for iso in &run.reports[h].isolated {
            prop_assert!(faulty.contains(iso), "fault-free processor isolated");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    #[test]
    fn honest_source_any_value(
        seed in any::<u64>(),
        l in 1usize..150,
        gen in 1usize..48,
        source in 0usize..4,
    ) {
        let v = test_value(l, seed);
        check_broadcast(4, 1, source, v, gen, honest(4), vec![])?;
    }

    #[test]
    fn lying_echo_any_position(
        echo in 1usize..7,
        target in 0usize..7,
        seed in any::<u64>(),
    ) {
        prop_assume!(echo != target);
        let v = test_value(64, seed);
        let mut hooks = honest(7);
        hooks[echo] = Box::new(LyingEcho::new(vec![target]));
        check_broadcast(7, 2, 0, v, 16, hooks, vec![echo])?;
    }

    #[test]
    fn equivocating_source_consistent(
        seed in any::<u64>(),
        l in 8usize..100,
    ) {
        let v = test_value(l, seed);
        let mut hooks = honest(4);
        hooks[0] = Box::new(EquivocatingSource);
        check_broadcast(4, 1, 0, v, 16, hooks, vec![0])?;
    }
}

#[test]
fn silent_source_all_positions() {
    for source in 0..4 {
        let v = test_value(32, source as u64);
        let mut hooks = honest(4);
        hooks[source] = Box::new(SilentSource);
        check_broadcast(4, 1, source, v, 8, hooks, vec![source]).unwrap();
    }
}

/// One Byzantine processor running a strategy of
/// `mvbc_broadcast::attacks`, given its own id and `n`.
type Attack = fn(usize, usize) -> Box<dyn BroadcastHooks>;

/// A `FalseDetector` that also frames the source like a
/// `FramingAccuser`. The frame in generation 0 costs it one edge; its
/// false detection in generation 1 removes nothing, which isolates it.
/// That is two diagnoses from one processor. Every strategy alone costs at
/// most one, below half of the smallest `t(t+2)` budget (3 at `t = 1`).
struct FramingFalseDetector;

impl BsbHooks for FramingFalseDetector {}

impl BroadcastHooks for FramingFalseDetector {
    fn detected_flag(&mut self, g: usize, flag: &mut bool) {
        FalseDetector.detected_flag(g, flag);
    }

    fn trust_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        FramingAccuser.trust_bits(g, bits);
    }
}

/// Every broadcast attack in the role it targets: the source-role ones at
/// the source, the echo-role ones at every other position. `L = 2D + 3`
/// leaves a short final generation, and every `n` runs at its largest
/// `t`. `LyingDiagnosisSource` and `SilentEcho` are inert alone: the one
/// lies only inside a diagnosis, the other leaves `n - t - 1 >= k`
/// symbols, so nothing triggers one.
#[test]
fn every_attack_in_its_role_at_every_position() {
    let source_role: [(&str, Attack); 3] = [
        ("EquivocatingSource", |_, _| Box::new(EquivocatingSource)),
        ("SilentSource", |_, _| Box::new(SilentSource)),
        ("LyingDiagnosisSource", |_, _| Box::new(LyingDiagnosisSource)),
    ];
    let echo_role: [(&str, Attack); 6] = [
        ("LyingEcho", |me, n| Box::new(LyingEcho::new((0..n).filter(|&x| x != me).collect()))),
        ("SilentEcho", |_, _| Box::new(SilentEcho)),
        ("FramingEcho", |_, _| Box::new(FramingEcho)),
        ("FalseDetector", |_, _| Box::new(FalseDetector)),
        ("FramingAccuser", |_, _| Box::new(FramingAccuser)),
        ("FramingFalseDetector", |_, _| Box::new(FramingFalseDetector)),
    ];
    let (source, gen) = (0, 8);
    let l = 2 * gen + 3;
    for n in [4, 7, 10] {
        let t = (n - 1) / 3;
        let runs = source_role
            .iter()
            .map(|attack| (attack, source))
            .chain(echo_role.iter().flat_map(|attack| (1..n).map(move |at| (attack, at))));
        for (&(name, attack), at) in runs {
            let mut hooks = honest(n);
            hooks[at] = attack(at, n);
            let value = test_value(l, (n * 100 + at) as u64);
            // `prop_assert!` panics outside `proptest!`: catch it to name the row.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                check_broadcast(n, t, source, value, gen, hooks, vec![at])
            }));
            assert!(matches!(outcome, Ok(Ok(()))), "{name} at {at}, n = {n}, t = {t}");
        }
    }
}

#[test]
fn colluding_echo_and_detector() {
    let v = test_value(96, 5);
    let mut hooks = honest(7);
    hooks[3] = Box::new(LyingEcho::new(vec![1, 2]));
    hooks[6] = Box::new(FalseDetector);
    check_broadcast(7, 2, 0, v, 24, hooks, vec![3, 6]).unwrap();
}

#[test]
fn broadcast_beats_measured_unicast_plus_consensus() {
    // Structural claim of §4: the dispersal broadcast costs ≈ 2(n-1)L,
    // beating the classic reduction "source unicasts the value to all,
    // then everyone runs multi-valued consensus on what they received"
    // — measured like-for-like at the same L.
    let (n, t, l) = (7usize, 2usize, 16 * 1024usize);
    let cfg = BroadcastConfig::new(n, t, 0, l).unwrap();
    let metrics = MetricsSink::new();
    let v = test_value(l, 1);
    let run = simulate_broadcast(&cfg, v.clone(), honest(n), metrics.clone());
    assert!(run.outputs.iter().all(|o| *o == v));
    let measured = metrics.snapshot().total_logical_bits() as f64;

    // The naive reduction, measured: (n-1)·L unicast plus a full
    // consensus execution on the L-byte value.
    let ccfg = mvbc_core::ConsensusConfig::new(n, t, l).unwrap();
    let cmetrics = MetricsSink::new();
    let crun = mvbc_core::simulate_consensus(
        &ccfg,
        vec![v.clone(); n],
        mvbc_systests::honest_hooks(n),
        cmetrics.clone(),
    );
    assert!(crun.outputs.iter().all(|o| *o == v));
    let naive =
        ((n - 1) * l * 8) as f64 + cmetrics.snapshot().total_logical_bits() as f64;
    assert!(
        measured < naive,
        "dispersal broadcast ({measured}) should beat unicast+consensus ({naive})"
    );
}
