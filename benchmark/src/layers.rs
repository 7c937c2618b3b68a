//! Per-layer numbers read off a traced repetition: layer shares from the
//! span tree, counts at the span boundaries, and the phase shares of the
//! existing telemetry spans.

use std::collections::BTreeMap;

use crate::spans::{layer_shares, Span};
use crate::stats;
use crate::workloads::{Outcome, NODE_STRIDE};

/// The telemetry phases and the metric each one's share is reported as.
const PHASE_METRICS: [(&str, &str); 6] = [
    ("propose", "smr.propose_share"),
    ("commit", "smr.commit_share"),
    ("dispersal", "broadcast.dispersal_share"),
    ("echo", "broadcast.echo_share"),
    ("vote", "broadcast.vote_share"),
    ("diagnosis", "broadcast.diagnosis_share"),
];

/// Share of each telemetry phase in the summed wall time of all phase
/// spans (`phase_totals()`); nothing when the sink carried no telemetry.
pub fn from_phases(out: &Outcome) -> Vec<(String, f64)> {
    let total: u64 = out.phase_wall_ns.values().sum();
    if total == 0 {
        return Vec::new();
    }
    PHASE_METRICS
        .iter()
        .map(|&(phase, metric)| {
            let ns = out.phase_wall_ns.get(phase).copied().unwrap_or(0);
            (metric.to_owned(), ns as f64 / total as f64)
        })
        .collect()
}

/// The lowest honest node of each simulation: the node whose spans are
/// counted where a per-node count is wanted.
fn reference_nodes(honest: &[usize]) -> Vec<usize> {
    let mut nodes = honest.to_vec();
    nodes.sort_unstable();
    nodes.dedup_by_key(|n| *n / NODE_STRIDE);
    nodes
}

/// Layer shares, span counts and span-derived timings of one traced
/// repetition.
pub fn from_trace(spans: &[Span], out: &Outcome) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_owned(), value));

    // Self time by layer, averaged over honest nodes. Time under no
    // protocol span is the scheduling layer's: barrier, lane hand-off.
    let shares = layer_shares(spans, &out.honest);
    let share = |layer: &str| shares.get(layer).copied().unwrap_or(0.0);
    put("netsim.wait_share", share("netsim"));
    put("smr.self_share", share("smr"));
    put("broadcast.self_share", share("broadcast"));
    put("core.self_share", share("core"));
    put("bsb.wall_share", share("bsb"));
    let sum: f64 = shares.values().sum();
    assert!((sum - 1.0).abs() < 1e-6, "layer shares sum to {sum}, not 1");
    put("trace.spans", spans.len() as f64);

    let references = reference_nodes(&out.honest);
    let at_reference = |name: &str| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.name == name && references.binary_search(&s.node).is_ok())
            .collect()
    };
    let ops = out.ops.max(1) as f64;
    let mean_us = |set: &[&Span]| -> f64 {
        set.iter().map(|s| s.duration_ns() as f64).sum::<f64>() / set.len().max(1) as f64 / 1e3
    };

    put("bsb.batches_per_op", at_reference("bsb.batch").len() as f64 / ops);
    let broadcast_gens = at_reference("broadcast.gen");
    if !broadcast_gens.is_empty() {
        put("broadcast.gen_us", mean_us(&broadcast_gens));
        put("broadcast.generations_per_op", broadcast_gens.len() as f64 / ops);
    }
    let core_gens = at_reference("core.gen");
    if !core_gens.is_empty() {
        put("core.gen_us", mean_us(&core_gens));
        put("core.generations_per_op", core_gens.len() as f64 / ops);
        // Stage shares of generation wall, BSB batches included.
        let total: u64 = core_gens.iter().map(|s| s.duration_ns()).sum();
        for (stage, metric) in [
            ("core.matching", "core.matching_share"),
            ("core.checking", "core.checking_share"),
            ("core.diagnosis", "core.diagnosis_share"),
        ] {
            let ns: u64 = at_reference(stage).iter().map(|s| s.duration_ns()).sum();
            put(metric, ns as f64 / total.max(1) as f64);
        }
    }

    // Wall gap between consecutive slot-attempt starts at the reference
    // replica of each simulation.
    let mut by_node: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for s in at_reference("smr.slot") {
        by_node.entry(s.node).or_default().push(s.start_ns);
    }
    let mut gaps_ms: Vec<f64> = Vec::new();
    for starts in by_node.values_mut() {
        starts.sort_unstable();
        gaps_ms.extend(starts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6));
    }
    if !gaps_ms.is_empty() {
        put("smr.slot_gap_ms_p50", stats::median(&gaps_ms));
        put("smr.slot_gap_ms_p90", stats::supported_tail(&gaps_ms, 90.0).1);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_the_lowest_honest_node_per_simulation() {
        assert_eq!(reference_nodes(&[3, 1, 2]), vec![1]);
        assert_eq!(reference_nodes(&[102, 0, 1, 101, 205]), vec![0, 101, 205]);
    }

    #[test]
    fn phase_shares_divide_by_the_phase_total() {
        let mut out = Outcome::default();
        assert!(from_phases(&out).is_empty());
        out.phase_wall_ns.insert("vote".to_owned(), 75);
        out.phase_wall_ns.insert("commit".to_owned(), 25);
        let shares: BTreeMap<String, f64> = from_phases(&out).into_iter().collect();
        assert_eq!(shares["broadcast.vote_share"], 0.75);
        assert_eq!(shares["smr.commit_share"], 0.25);
        assert_eq!(shares["broadcast.echo_share"], 0.0);
    }
}
