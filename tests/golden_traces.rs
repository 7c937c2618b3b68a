//! Golden-transcript tests: the simulator is a deterministic lockstep
//! round model, so a run's full network trace is a pure function of the
//! parameters, inputs and adversary strategy. These tests pin that
//! determinism (identical digests run-to-run), cross-check the trace
//! against the metrics, and use trace structure to verify protocol-shape
//! claims (who talks in which stage).

use mvbc_adversary::CorruptSymbolTo;
use mvbc_bsb::{BsbDriver, EigDriver, PhaseKingDriver};
use mvbc_core::{
    simulate_consensus_traced, ConsensusConfig, NoopHooks, ProtocolHooks, GENERATION_WINDOW,
};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::trace::TraceSink;

fn drivers(n: usize, eig: bool) -> Vec<Box<dyn BsbDriver>> {
    (0..n)
        .map(|_| {
            if eig {
                Box::new(EigDriver) as Box<dyn BsbDriver>
            } else {
                Box::new(PhaseKingDriver) as Box<dyn BsbDriver>
            }
        })
        .collect()
}

fn traced_run(
    cfg: &ConsensusConfig,
    byzantine: Option<(usize, Vec<usize>)>,
    eig: bool,
) -> (TraceSink, MetricsSink) {
    let v: Vec<u8> = (0..cfg.value_bytes).map(|i| (i * 13 + 7) as u8).collect();
    let hooks: Vec<Box<dyn ProtocolHooks>> = (0..cfg.n)
        .map(|i| match &byzantine {
            Some((f, targets)) if *f == i => {
                Box::new(CorruptSymbolTo::new(targets.clone())) as Box<dyn ProtocolHooks>
            }
            _ => NoopHooks::boxed(),
        })
        .collect();
    let trace = TraceSink::new();
    let metrics = MetricsSink::new();
    let run = simulate_consensus_traced(
        cfg,
        vec![v.clone(); cfg.n],
        hooks,
        drivers(cfg.n, eig),
        metrics.clone(),
        trace.clone(),
    );
    let honest = (0..cfg.n).find(|i| byzantine.as_ref().map(|(f, _)| f != i).unwrap_or(true));
    assert_eq!(run.outputs[honest.unwrap()], v);
    (trace, metrics)
}

#[test]
fn identical_runs_produce_identical_traces() {
    let cfg = ConsensusConfig::new(4, 1, 64).unwrap();
    let (a, _) = traced_run(&cfg, None, false);
    let (b, _) = traced_run(&cfg, None, false);
    assert_eq!(a.digest(), b.digest(), "honest runs must be trace-identical");
    assert_eq!(a.len(), b.len());

    // Under attack too: the adversary is deterministic, so the whole
    // attacked transcript replays bit-identically.
    let (c, _) = traced_run(&cfg, Some((0, vec![3])), false);
    let (d, _) = traced_run(&cfg, Some((0, vec![3])), false);
    assert_eq!(c.digest(), d.digest(), "attacked runs must be trace-identical");
    assert_ne!(a.digest(), c.digest(), "the attack must change the transcript");
}

#[test]
fn trace_agrees_with_metrics() {
    let cfg = ConsensusConfig::new(4, 1, 96).unwrap();
    let (trace, metrics) = traced_run(&cfg, None, false);
    let snap = metrics.snapshot();
    assert_eq!(trace.len() as u64, snap.total_messages(), "message counts must agree");
    let trace_bits: u64 = trace.events().iter().map(|e| e.logical_bits).sum();
    assert_eq!(trace_bits, snap.total_logical_bits(), "bit totals must agree");
}

#[test]
fn matching_stage_sends_one_symbol_per_trusted_pair() {
    // Protocol-shape check via the trace: in a failure-free run, the
    // matching stage's symbol dispersal is exactly one message per
    // ordered pair per generation (each processor sends its own coded
    // symbol to every other), and a window's generations share one
    // round.
    let cfg = ConsensusConfig::with_gen_bytes(4, 1, 32, 8).unwrap(); // 4 generations
    let (trace, _) = traced_run(&cfg, None, false);
    let symbol_events = trace.events_with_tag_prefix("consensus.matching.symbol");
    assert_eq!(symbol_events.len(), 4 * (4 * 3));
    // And all of them in the first round of their window: rounds are
    // distinct per window.
    let mut rounds: Vec<u64> = symbol_events.iter().map(|e| e.round).collect();
    rounds.sort_unstable();
    rounds.dedup();
    assert_eq!(rounds.len(), 4usize.div_ceil(GENERATION_WINDOW), "one dispersal round per window");
}

#[test]
fn diagnosis_traffic_appears_only_under_attack() {
    let cfg = ConsensusConfig::with_gen_bytes(4, 1, 16, 16).unwrap();
    let (honest_trace, _) = traced_run(&cfg, None, false);
    assert!(
        honest_trace.events_with_tag_prefix("consensus.diagnosis").is_empty(),
        "failure-free runs must not pay for diagnosis"
    );
    let (attacked_trace, _) = traced_run(&cfg, Some((0, vec![3])), false);
    assert!(
        !attacked_trace.events_with_tag_prefix("consensus.diagnosis").is_empty(),
        "the attack must trigger diagnosis traffic"
    );
}

#[test]
fn substrates_produce_different_transcripts_same_decision() {
    let cfg = ConsensusConfig::new(4, 1, 48).unwrap();
    let (king, _) = traced_run(&cfg, None, false);
    let (eig, _) = traced_run(&cfg, None, true);
    assert_ne!(king.digest(), eig.digest(), "substrates differ on the wire");
    // The symbol dispersal, however, is identical traffic in both.
    let king_syms = king.events_with_tag_prefix("consensus.matching.symbol").len();
    let eig_syms = eig.events_with_tag_prefix("consensus.matching.symbol").len();
    assert_eq!(king_syms, eig_syms);
}

#[test]
fn csv_export_is_complete() {
    let cfg = ConsensusConfig::new(4, 1, 16).unwrap();
    let (trace, _) = traced_run(&cfg, None, false);
    let csv = trace.to_csv();
    assert_eq!(csv.lines().count(), trace.len() + 1); // header + one line per event
}
