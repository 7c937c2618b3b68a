//! Baseline 1: bitwise multi-valued consensus.
//!
//! Runs one Phase-King binary consensus instance per bit of the value
//! (all `8L` instances batched into shared rounds — batching changes
//! wall-clock time only, not the bit count). This is the strawman of the
//! paper's §1: with a `Θ(n²)`-bit 1-bit primitive the total is `Θ(n² L)`
//! bits, a factor `≈ n/3` worse than Liang-Vaidya for large `L`.

use mvbc_bsb::{run_king_batch, BsbConfig, NoopBsbHooks};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::bits::{pack_bits, unpack_bits};
use mvbc_netsim::{node_task, run_tasks, NodeCtx, NodeTask, SimConfig};

/// Modelled bit cost of the bitwise baseline with the paper's assumed
/// `B = Θ(n²)` primitive.
pub fn model_bits_theta_n2(n: usize, l_bits: u64) -> f64 {
    2.0 * (n as f64) * (n as f64) * l_bits as f64
}

/// Modelled bit cost with this workspace's Phase-King primitive
/// (`Θ(n²(t+1))` per bit; no extra source round since consensus is run
/// directly on local input bits).
pub fn model_bits_phase_king(n: usize, t: usize, l_bits: u64) -> f64 {
    let nf = n as f64;
    let tf = t as f64;
    (tf + 1.0) * (3.0 * nf * (nf - 1.0) + (nf - 1.0)) * l_bits as f64
}

/// Runs bitwise consensus among `n` fault-free processors over the
/// simulator and returns the decided values.
///
/// # Panics
///
/// Panics when `t >= n/3`, `inputs.len() != n`, or the inputs have
/// unequal lengths.
pub fn simulate_bitwise(
    n: usize,
    t: usize,
    inputs: Vec<Vec<u8>>,
    metrics: MetricsSink,
) -> Vec<Vec<u8>> {
    assert_eq!(inputs.len(), n, "one input per processor");
    let len = inputs[0].len();
    assert!(inputs.iter().all(|v| v.len() == len), "equal-length inputs");

    let tasks: Vec<NodeTask<Vec<u8>>> = inputs
        .into_iter()
        .map(|value| {
            node_task(async move |ctx: &mut NodeCtx| {
                let bits = unpack_bits(&value, value.len() * 8).expect("exact length");
                let cfg = BsbConfig::new(t, "baseline.bitwise", vec![true; ctx.n()]);
                let decided = run_king_batch(ctx, &cfg, bits, &mut NoopBsbHooks).await;
                pack_bits(&decided)
            })
        })
        .collect();
    run_tasks(SimConfig::new(n), metrics, None, tasks).outputs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed)).collect()
    }

    #[test]
    fn validity_unanimous() {
        let v = value(32, 1);
        let outs = simulate_bitwise(4, 1, vec![v.clone(); 4], MetricsSink::new());
        assert!(outs.iter().all(|o| *o == v));
    }

    #[test]
    fn agreement_differing_inputs() {
        // Bitwise consensus decides *bit by bit*: agreement per bit, but
        // the result can be a blend that equals no processor's input —
        // exactly why it is only used as a complexity baseline here.
        let inputs: Vec<Vec<u8>> = (0..4).map(|i| value(16, i)).collect();
        let outs = simulate_bitwise(4, 1, inputs, MetricsSink::new());
        for o in &outs {
            assert_eq!(*o, outs[0]);
        }
    }

    #[test]
    fn measured_bits_match_phase_king_model() {
        let (n, t, l) = (4usize, 1usize, 64usize);
        let metrics = MetricsSink::new();
        let v = value(l, 3);
        let _ = simulate_bitwise(n, t, vec![v; n], metrics.clone());
        let measured = metrics.snapshot().total_logical_bits() as f64;
        let model = model_bits_phase_king(n, t, (l * 8) as u64);
        let ratio = measured / model;
        assert!((0.9..1.1).contains(&ratio), "measured {measured} vs model {model}");
    }

    #[test]
    fn cost_grows_quadratically_in_n() {
        let l = 16usize;
        let mut costs = Vec::new();
        for (n, t) in [(4usize, 1usize), (8, 2)] {
            let metrics = MetricsSink::new();
            let v = value(l, 0);
            let _ = simulate_bitwise(n, t, vec![v; n], metrics.clone());
            costs.push(metrics.snapshot().total_logical_bits() as f64);
        }
        // Doubling n (and scaling t) should grow cost by ≈ (t+1)·4 >> 2.
        assert!(costs[1] / costs[0] > 4.0);
    }

    #[test]
    #[should_panic(expected = "equal-length inputs")]
    fn unequal_inputs_rejected() {
        let _ = simulate_bitwise(
            2,
            0,
            vec![vec![0u8; 4], vec![0u8; 5]],
            MetricsSink::new(),
        );
    }
}
