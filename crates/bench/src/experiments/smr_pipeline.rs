//! E17 — SMR pipelining: simulation rounds of the replicated log vs
//! pipeline depth.
//!
//! The same 1600 commands are committed in the same 100 batches
//! (n = 7, t = 2, fault-free) at depths W ∈ {1, 2, 4, 8}. The pipelined
//! scheduler interleaves up to `W` broadcast slots per synchronous round
//! (one simulation lane per slot), so total rounds divide by ≈ W while —
//! by construction — the committed log, the traffic and the final
//! `KvStore` digest are identical at every depth (asserted here).
//!
//! Fails loudly unless depth 4 cuts total rounds at least 3x vs
//! sequential. The grid is small enough to run in full, so `quick`
//! changes nothing.

use mvbc_metrics::MetricsSink;
use mvbc_smr::{simulate_smr, synthetic_workloads, Command, HonestReplica, SmrConfig, SmrHooks};

use crate::{Report, Table};

const N: usize = 7;
const T: usize = 2;
const SLOTS: usize = 100;
const BATCH: usize = 16;
const SEED: u64 = 11;
const DEPTHS: [usize; 4] = [1, 2, 4, 8];

struct Measured {
    depth: usize,
    rounds: u64,
    bits: u64,
    commands: u64,
    digest: u64,
    restarts: u64,
}

fn run_at_depth(depth: usize) -> Measured {
    let cfg = SmrConfig::new(N, T, SLOTS, BATCH)
        .expect("valid parameters")
        .with_pipeline(depth);
    let workloads = synthetic_workloads(N, SLOTS.div_ceil(N) * BATCH, SEED);
    let hooks: Vec<Box<dyn SmrHooks>> = (0..N).map(|_| HonestReplica::boxed()).collect();
    let metrics = MetricsSink::new();
    let run = simulate_smr(&cfg, workloads, hooks, metrics.clone());
    for w in run.reports.windows(2) {
        assert_eq!(w[0].agreed_log(), w[1].agreed_log(), "harness: replicas diverged");
    }
    let r = &run.reports[0];
    assert_eq!(r.fallback_slots, 0, "harness: fault-free run fell back");
    Measured {
        depth,
        rounds: run.rounds,
        bits: metrics.snapshot().total_logical_bits(),
        commands: r.committed_commands,
        digest: r.digest,
        restarts: r.restarts,
    }
}

pub(super) fn run(_quick: bool) -> Report {
    let runs: Vec<Measured> = DEPTHS.iter().map(|&w| run_at_depth(w)).collect();
    let seq = &runs[0];
    for m in &runs[1..] {
        assert_eq!(m.digest, seq.digest, "depth {} changed the final state", m.depth);
        assert_eq!(m.commands, seq.commands, "depth {} changed the committed commands", m.depth);
        assert_eq!(m.bits, seq.bits, "depth {} changed the traffic (honest runs never discard)", m.depth);
    }
    let w4 = runs.iter().find(|m| m.depth == 4).expect("depth 4 measured");
    let speedup4 = seq.rounds as f64 / w4.rounds as f64;
    assert!(
        speedup4 >= 3.0,
        "pipelining regression: depth 4 only {speedup4:.2}x fewer rounds (expected >= 3x)"
    );

    let mut table = Table::new(&["depth W", "rounds", "speedup", "restarts", "commands", "digest"]);
    for m in &runs {
        table.row(vec![
            m.depth.to_string(),
            m.rounds.to_string(),
            format!("{:.2}x", seq.rounds as f64 / m.rounds as f64),
            m.restarts.to_string(),
            m.commands.to_string(),
            format!("{:016x}", m.digest),
        ]);
    }
    let mut r = Report::default();
    r.line(format!(
        "# E17: SMR concurrent-slot pipelining (n = {N}, t = {T}, {SLOTS} slots x {BATCH} commands of {} bytes)\n",
        Command::WIRE_BYTES,
    ));
    r.line(table.to_markdown());
    r.line(format!(
        "pipelining: depth 4 runs the log in {} rounds vs {} sequential ({speedup4:.2}x) with identical digests",
        w4.rounds, seq.rounds
    ));
    r.csv("e17_smr_pipeline", table);
    r
}
