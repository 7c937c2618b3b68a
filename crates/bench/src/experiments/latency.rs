//! E22 — virtual-time commit latency of the pipelined replicated log
//! under the event-driven scheduler, clique vs WAN.
//!
//! Runs the same replicated log (n = 9, t = 2) under two network models
//! — a flat clique with 100-tick links and a 3-cluster WAN (100-tick
//! intra, 3000-tick inter, 200-tick jitter) — at pipeline depths 1 and
//! 4, and reports the virtual-time cost per committed slot. It then
//! re-runs the WAN log with cluster 2 cut off mid-run (crossing messages
//! delayed until the cut heals) and checks the log still commits every
//! slot with full agreement.
//!
//! Fails loudly unless the WAN runs are slower than the clique runs and
//! depth-4 pipelining beats depth 1 on virtual time.

use mvbc_metrics::MetricsSink;
use mvbc_netsim::{
    LinkModel, NetModel, Partition, PartitionBehavior, SchedulingPolicy, Topology, VirtualTime,
};
use mvbc_smr::{
    simulate_smr, synthetic_workloads, HonestReplica, SmrConfig, SmrHooks, SmrRun, COMMIT_GAP_TAG,
};

use crate::{Report, Table};

const N: usize = 9;
const T: usize = 2;
const BATCH: usize = 4;
const CLUSTERS: [usize; 3] = [3, 3, 3];
const INTRA_TICKS: VirtualTime = 100;
const INTER_TICKS: VirtualTime = 3000;
const JITTER_TICKS: VirtualTime = 200;
const SEED: u64 = 43;

fn clique_model() -> NetModel {
    NetModel::new(LinkModel::Fixed(INTRA_TICKS), Topology::Clique).with_seed(SEED)
}

fn wan_model() -> NetModel {
    NetModel::new(
        LinkModel::Wan { intra: INTRA_TICKS, inter: INTER_TICKS, jitter: JITTER_TICKS },
        Topology::Clusters(CLUSTERS.to_vec()),
    )
    .with_seed(SEED)
}

struct CaseMeasure {
    topology: &'static str,
    depth: usize,
    slots: usize,
    rounds: u64,
    final_vtime: VirtualTime,
    vtime_per_slot: f64,
    mean_commit_gap: f64,
    commit_gap_p50: u64,
    commit_gap_p99: u64,
}

fn run_log(model: NetModel, depth: usize, slots: usize) -> (SmrRun, MetricsSink) {
    let cfg = SmrConfig::new(N, T, slots, BATCH)
        .expect("valid parameters")
        .with_pipeline(depth)
        .with_policy(SchedulingPolicy::EventDriven(model));
    let workloads = synthetic_workloads(N, slots.div_ceil(N) * BATCH, SEED);
    let hooks: Vec<Box<dyn SmrHooks>> = (0..N).map(|_| HonestReplica::boxed()).collect();
    let metrics = MetricsSink::with_telemetry();
    let run = simulate_smr(&cfg, workloads, hooks, metrics.clone());
    for w in run.reports.windows(2) {
        assert_eq!(w[0].agreed_log(), w[1].agreed_log(), "harness: replicas diverged");
    }
    (run, metrics)
}

fn measure_case(topology: &'static str, model: NetModel, depth: usize, slots: usize) -> CaseMeasure {
    let (run, metrics) = run_log(model, depth, slots);
    // Inter-commit-gap percentiles (in ticks), merged across replicas.
    let gaps = metrics
        .telemetry()
        .expect("latency sinks carry telemetry")
        .snapshot()
        .histogram_for_tag(COMMIT_GAP_TAG);
    let report = &run.reports[0];
    assert_eq!(report.slots.len(), slots, "harness: {topology} log committed too few slots");
    // Mean virtual-time gap between successive commits at replica 0 —
    // the steady-state commit latency the pipeline hides.
    let vtimes: Vec<VirtualTime> = report.slots.iter().map(|s| s.commit_vtime).collect();
    let mean_commit_gap = if vtimes.len() > 1 {
        (vtimes[vtimes.len() - 1] - vtimes[0]) as f64 / (vtimes.len() - 1) as f64
    } else {
        vtimes.first().copied().unwrap_or(0) as f64
    };
    CaseMeasure {
        topology,
        depth,
        slots,
        rounds: run.rounds,
        final_vtime: run.vtime,
        vtime_per_slot: run.vtime as f64 / slots as f64,
        mean_commit_gap,
        commit_gap_p50: gaps.percentile(50.0),
        commit_gap_p99: gaps.percentile(99.0),
    }
}

/// The acceptance scenario: a 3-cluster WAN log with cluster 2 cut off
/// from virtual time `start` until `heal` (crossings delayed, not
/// dropped). The synchronous protocol stretches the affected rounds
/// across the cut, so every slot still commits with full agreement.
/// Returns the run's final virtual time.
fn measure_partition(depth: usize, slots: usize, start: VirtualTime, heal: VirtualTime) -> VirtualTime {
    let model = wan_model().with_partition(Partition::of_cluster(
        &Topology::Clusters(CLUSTERS.to_vec()),
        2,
        start,
        heal,
        PartitionBehavior::Delay,
    ));
    let (run, _) = run_log(model, depth, slots);
    let report = &run.reports[0];
    assert_eq!(report.slots.len(), slots, "partition run committed too few slots");
    assert!(
        report.slots.iter().all(|s| !s.committed.is_empty()),
        "partition run fell back on a slot despite delay-only crossings"
    );
    assert!(
        run.vtime >= heal,
        "partition run finished at virtual time {} before the cut healed at {heal}",
        run.vtime
    );
    run.vtime
}

pub(super) fn run(quick: bool) -> Report {
    let slots = if quick { 8 } else { 40 };
    let partition_depth = if quick { 1 } else { 4 };

    let mut cases = Vec::new();
    for depth in [1usize, 4] {
        cases.push(measure_case("clique", clique_model(), depth, slots));
        cases.push(measure_case("wan-3x3", wan_model(), depth, slots));
    }
    let case = |topology: &str, depth: usize| {
        cases.iter().find(|c| c.topology == topology && c.depth == depth).expect("case measured")
    };

    // Place the cut strictly inside the run: the depth-1 WAN case just
    // measured tells us how long the log takes, so a window from 25% to
    // 50% of that span is guaranteed to form and heal mid-run.
    let wan_d1 = case("wan-3x3", 1);
    let (start, heal) = (wan_d1.final_vtime / 4, wan_d1.final_vtime / 2);
    let partition_vtime = measure_partition(partition_depth, slots, start, heal);

    // Headline sanity: inter-cluster links dominate the WAN clock, and
    // pipelining hides latency (depth 4 beats depth 1 on virtual time).
    for depth in [1usize, 4] {
        let (clique, wan) = (case("clique", depth), case("wan-3x3", depth));
        assert!(
            wan.final_vtime > clique.final_vtime,
            "latency model inverted: WAN ({}) not slower than clique ({}) at depth {depth}",
            wan.final_vtime,
            clique.final_vtime
        );
    }

    let mut table = Table::new(&[
        "topology",
        "depth",
        "slots",
        "rounds",
        "final vtime",
        "vtime/slot",
        "commit gap",
        "gap p50",
        "gap p99",
    ]);
    for c in &cases {
        table.row(vec![
            c.topology.to_string(),
            c.depth.to_string(),
            c.slots.to_string(),
            c.rounds.to_string(),
            c.final_vtime.to_string(),
            format!("{:.0}", c.vtime_per_slot),
            format!("{:.0}", c.mean_commit_gap),
            c.commit_gap_p50.to_string(),
            c.commit_gap_p99.to_string(),
        ]);
    }
    let mut r = Report::default();
    r.line(format!(
        "# E22: virtual-time commit latency — clique vs 3-cluster WAN (n = {N}, t = {T}){}\n",
        if quick { " (--quick)" } else { "" }
    ));
    r.line(table.to_markdown());
    r.line(format!(
        "partition: cluster 2 cut (delay) over [{start}, {heal}) at depth {partition_depth}: \
         {slots} slot(s) committed, final vtime {partition_vtime}",
    ));
    for topology in ["clique", "wan-3x3"] {
        let (d1, d4) = (case(topology, 1), case(topology, 4));
        assert!(
            d4.final_vtime < d1.final_vtime,
            "pipelining regression: depth 4 ({}) not faster than depth 1 ({}) on {topology}",
            d4.final_vtime,
            d1.final_vtime
        );
        r.line(format!(
            "{topology}: depth 4 commits the log in {:.2}x less virtual time than depth 1",
            d1.final_vtime as f64 / d4.final_vtime as f64
        ));
    }
    r.csv("e22_latency", table);
    r
}
