//! Adversarial tests of the Phase-King / Broadcast_Single_Bit layer in
//! isolation: Byzantine participants attack the primitive directly and
//! agreement + validity must survive for every fault placement.

use mvbc_bsb::{BsbConfig, BsbDriver, BsbHooks, BsbInstance, NoopBsbHooks, PhaseKingDriver};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::{node_task, run_tasks, NodeCtx, NodeId, NodeTask, SimConfig};

/// Flips every outgoing bit at every hook point, equivocating by
/// recipient parity.
#[derive(Debug, Clone, Copy)]
struct Chaos;

impl BsbHooks for Chaos {
    fn source_bits(&mut self, _s: &'static str, to: NodeId, bits: &mut [bool]) {
        for b in bits.iter_mut() {
            *b = to.is_multiple_of(2);
        }
    }
    fn king_values(&mut self, _s: &'static str, _p: usize, to: NodeId, values: &mut [bool]) {
        for v in values.iter_mut() {
            *v = to % 2 == 1;
        }
    }
    fn king_proposals(&mut self, _s: &'static str, p: usize, to: NodeId, proposals: &mut [u8]) {
        for q in proposals.iter_mut() {
            *q = ((to + p) % 3) as u8;
        }
    }
    fn king_bits(&mut self, _s: &'static str, _p: usize, to: NodeId, bits: &mut [bool]) {
        for b in bits.iter_mut() {
            *b = to.is_multiple_of(2);
        }
    }
}

/// Runs one broadcast with `byzantine` applying `Chaos`, returns honest
/// outputs.
fn broadcast_with_chaos(n: usize, t: usize, source: usize, bit: bool, byzantine: usize) -> Vec<bool> {
    let tasks: Vec<NodeTask<bool>> = (0..n)
        .map(|id| {
            node_task(async move |ctx: &mut NodeCtx| {
                let cfg = BsbConfig::new(t, "adv", vec![true; ctx.n()]);
                let inst = [BsbInstance {
                    source,
                    input: (id == source).then_some(bit),
                }];
                if id == byzantine {
                    PhaseKingDriver.run_batch(ctx, &cfg, &inst, &mut Chaos).await[0]
                } else {
                    PhaseKingDriver.run_batch(ctx, &cfg, &inst, &mut NoopBsbHooks).await[0]
                }
            })
        })
        .collect();
    run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs
}

#[test]
fn byzantine_non_source_cannot_break_validity() {
    // Honest source: every honest participant must output the source bit,
    // for every placement of the Byzantine node and both bit values.
    for n_t in [(4usize, 1usize), (7, 2)] {
        let (n, t) = n_t;
        for bit in [false, true] {
            for byz in 1..n {
                let outs = broadcast_with_chaos(n, t, 0, bit, byz);
                for (id, &o) in outs.iter().enumerate() {
                    if id != byz {
                        assert_eq!(o, bit, "n={n} byz={byz} bit={bit} node={id}");
                    }
                }
            }
        }
    }
}

#[test]
fn byzantine_source_cannot_break_consistency() {
    // Byzantine source equivocates in round 0 and throughout Phase-King:
    // honest outputs must still be identical (some common bit).
    for n_t in [(4usize, 1usize), (7, 2)] {
        let (n, t) = n_t;
        let outs = broadcast_with_chaos(n, t, 0, true, 0);
        let first = outs[1];
        for (id, &o) in outs.iter().enumerate().skip(1) {
            assert_eq!(o, first, "n={n} node={id} diverged");
        }
    }
}

#[test]
fn byzantine_king_phase_recovered_by_honest_king() {
    // The Byzantine node is king of phase equal to its id; even as king 0
    // (first phase) its split is repaired by the later honest kings.
    let outs = broadcast_with_chaos(4, 1, 2, true, 0);
    for (id, &o) in outs.iter().enumerate() {
        if id != 0 {
            assert!(o, "node {id}");
        }
    }
}

#[test]
fn batch_with_byzantine_all_instances_agree() {
    // 8 instances, mixed sources, one chaotic node: per-instance
    // agreement among honest nodes, validity for honest sources.
    let n = 4;
    let t = 1;
    let byz = 3;
    let tasks: Vec<NodeTask<Vec<bool>>> = (0..n)
        .map(|id| {
            node_task(async move |ctx: &mut NodeCtx| {
                let cfg = BsbConfig::new(t, "advb", vec![true; ctx.n()]);
                let insts: Vec<BsbInstance> = (0..8)
                    .map(|i| BsbInstance {
                        source: i % 4,
                        input: (id == i % 4).then_some(i % 3 == 0),
                    })
                    .collect();
                if id == byz {
                    PhaseKingDriver.run_batch(ctx, &cfg, &insts, &mut Chaos).await
                } else {
                    PhaseKingDriver.run_batch(ctx, &cfg, &insts, &mut NoopBsbHooks).await
                }
            })
        })
        .collect();
    let outs = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
    #[allow(clippy::needless_range_loop)] // indexes three parallel vectors
    for i in 0..8 {
        // Agreement among honest nodes.
        assert_eq!(outs[0][i], outs[1][i], "instance {i}");
        assert_eq!(outs[1][i], outs[2][i], "instance {i}");
        // Validity for honest sources.
        if i % 4 != byz {
            assert_eq!(outs[0][i], i % 3 == 0, "instance {i} validity");
        }
    }
}

#[test]
fn exhaustive_small_space_n4() {
    // All 16 initial value assignments of a 4-node King consensus with
    // one chaotic node at every position: agreement must always hold,
    // and unanimity among the 3 honest nodes must be preserved.
    use mvbc_bsb::run_king_batch;
    for byz in 0..4usize {
        for assignment in 0..16u32 {
            let tasks: Vec<NodeTask<bool>> = (0..4)
                .map(|id| {
                    let my = assignment & (1 << id) != 0;
                    node_task(async move |ctx: &mut NodeCtx| {
                        let cfg = BsbConfig::new(1, "exh", vec![true; 4]);
                        if id == byz {
                            run_king_batch(ctx, &cfg, vec![my], &mut Chaos).await[0]
                        } else {
                            run_king_batch(ctx, &cfg, vec![my], &mut NoopBsbHooks).await[0]
                        }
                    })
                })
                .collect();
            let outs = run_tasks(SimConfig::new(4), MetricsSink::new(), None, tasks).outputs;
            let honest: Vec<usize> = (0..4).filter(|&i| i != byz).collect();
            let first = outs[honest[0]];
            for &h in &honest {
                assert_eq!(outs[h], first, "byz={byz} assignment={assignment:04b}");
            }
            let honest_bits: Vec<bool> =
                honest.iter().map(|&h| assignment & (1 << h) != 0).collect();
            if honest_bits.iter().all(|&b| b) {
                assert!(first, "byz={byz} assignment={assignment:04b}: validity(1)");
            }
            if honest_bits.iter().all(|&b| !b) {
                assert!(!first, "byz={byz} assignment={assignment:04b}: validity(0)");
            }
        }
    }
}

#[test]
fn dolev_strong_composes_after_other_phases() {
    // Regression: the chain-length check must use protocol-relative
    // rounds, or a broadcast started after earlier phases rejects the
    // source's 1-signature chain.
    use mvbc_bsb::dolev_strong::{run_dolev_strong, SignatureOracle};
    let n = 4;
    let t = 2;
    let oracle = SignatureOracle::new();
    let tasks: Vec<NodeTask<bool>> = (0..n)
        .map(|id| {
            let oracle = oracle.clone();
            node_task(async move |ctx: &mut NodeCtx| {
                // Burn a few unrelated rounds first.
                for _ in 0..5 {
                    ctx.next_round().await;
                }
                let cfg = BsbConfig::new(t, "ds-late", vec![true; ctx.n()]);
                let handle = oracle.handle(id);
                run_dolev_strong(ctx, &cfg, 1, (id == 1).then_some(true), &handle, &oracle).await
            })
        })
        .collect();
    let outs = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
    assert_eq!(outs, vec![true; n]);
}
