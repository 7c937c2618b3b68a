//! Scheduler-equivalence and event-driven network tests.
//!
//! The netsim refactor split the coordinator into two scheduling
//! policies: the legacy `RoundBarrier` and the event-driven
//! virtual-clock scheduler. These tests pin the refactor's central
//! promise — `RoundBarrier` is *byte-identical* to the pre-refactor
//! coordinator — against trace digests captured on the commit before
//! the refactor, and cover the event-driven scheduler's system-level
//! properties: seeded determinism and liveness across a healing WAN
//! partition.

use mvbc_adversary::CorruptSymbolTo;
use mvbc_bsb::{BsbDriver, PhaseKingDriver};
use mvbc_core::{simulate_consensus_traced, ConsensusConfig, NoopHooks, ProtocolHooks};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::{LinkModel, NetModel, Partition, PartitionBehavior, SchedulingPolicy, Topology};
use mvbc_smr::{
    simulate_smr_traced, synthetic_workloads, EquivocatingPrimary, HonestReplica, RunReport,
    SmrConfig, SmrHooks,
};

/// The CLI's xorshift workload generator (the pre-refactor digests were
/// captured with these inputs).
fn value(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

fn consensus_digest(n: usize, t: usize, l: usize, seed: u64, corrupt: bool) -> u64 {
    let cfg = ConsensusConfig::new(n, t, l).unwrap();
    let v = value(l, seed);
    let hooks: Vec<Box<dyn ProtocolHooks>> = (0..n)
        .map(|i| {
            if corrupt && i == 0 {
                Box::new(CorruptSymbolTo::new(vec![n - 1])) as Box<dyn ProtocolHooks>
            } else {
                NoopHooks::boxed()
            }
        })
        .collect();
    let drivers: Vec<Box<dyn BsbDriver>> =
        (0..n).map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>).collect();
    let trace = TraceSink::new();
    let _ = simulate_consensus_traced(
        &cfg,
        vec![v; n],
        hooks,
        drivers,
        MetricsSink::new(),
        trace.clone(),
    );
    trace.digest()
}

/// A replicated-log run through the public entry point under an explicit
/// scheduling policy. Depth 1 is `mvbc smr`'s default path; the capture
/// harness that pinned the digests below ran the windowed engine at every
/// depth, including depth 1.
fn smr_digest(policy: SchedulingPolicy, depth: usize, seed: u64, equivocate: bool) -> u64 {
    smr_digest_with_sink(policy, depth, seed, equivocate, MetricsSink::new())
}

fn smr_digest_with_sink(
    policy: SchedulingPolicy,
    depth: usize,
    seed: u64,
    equivocate: bool,
    metrics: MetricsSink,
) -> u64 {
    let n = 4;
    let cfg = SmrConfig::new(n, 1, 8, 2).unwrap().with_pipeline(depth);
    let workloads = synthetic_workloads(n, 2 * cfg.batch_capacity(), seed);
    let hooks: Vec<Box<dyn SmrHooks>> = (0..n)
        .map(|i| -> Box<dyn SmrHooks> {
            if equivocate && i == 1 {
                Box::new(EquivocatingPrimary::default())
            } else {
                HonestReplica::boxed()
            }
        })
        .collect();
    let trace = TraceSink::new();
    let _ = simulate_smr_traced(
        &cfg.with_policy(policy),
        workloads,
        hooks,
        metrics,
        Some(trace.clone()),
    );
    trace.digest()
}

/// Pinned against the pre-refactor coordinator: the consensus trace
/// digest is a pure function of the parameters and adversary (the
/// digest covers message shape, not payload bytes, so it is also
/// independent of the seeded inputs).
///
/// Re-pinned when Algorithm 1 began running generations in windows of
/// `GENERATION_WINDOW`: a window's symbols share one round and its
/// control bits one batch each, which moves rounds, tags and message
/// counts. With the window set to 1 the engine reproduces the earlier
/// pins, `0x655d_9f92_3e01_71e5` and `0xb6f2_452e_f2a8_e9da`.
#[test]
fn round_barrier_consensus_digests_match_the_pre_refactor_coordinator() {
    for seed in [3u64, 11, 29] {
        assert_eq!(
            consensus_digest(4, 1, 48, seed, false),
            0x21f3_9c24_6620_b179,
            "honest n=4 digest drifted from the pre-refactor coordinator (seed {seed})"
        );
        assert_eq!(
            consensus_digest(7, 2, 96, seed, true),
            0x4274_a135_0a17_8cb4,
            "attacked n=7 digest drifted from the pre-refactor coordinator (seed {seed})"
        );
    }
}

/// Pinned against the pre-refactor coordinator: replicated-log
/// traces under the explicit `RoundBarrier` policy, at depths 1 and 4,
/// honest and under an equivocating primary.
///
/// Re-pinned when the broadcast began running generations in windows:
/// a window frames its generations' symbols into one message per pair
/// and round, which moves payload sizes, rounds and message counts (the
/// earlier pins were `0x49b4_b016_b74a_44d6`, `0xae4c_13c1_0264_9e13`,
/// `0x9bdc_6f37_60b6_8765` and `0xd763_b919_ca81_5a0d`). The same change
/// cancels a discarded slot attempt instead of draining it, so the
/// depth-4 equivocation trace also ends that attempt's traffic early.
#[test]
fn round_barrier_smr_digests_match_the_pre_refactor_coordinator() {
    let pins = [
        (1usize, false, 0x36f2_8978_7c3b_6c0du64),
        (1, true, 0x2291_edb3_90c6_1ebe),
        (4, false, 0x98ec_6233_f36f_22d5),
        (4, true, 0x8c1f_6823_4016_9f83),
    ];
    for seed in [3u64, 11] {
        for &(depth, equivocate, want) in &pins {
            assert_eq!(
                smr_digest(SchedulingPolicy::RoundBarrier, depth, seed, equivocate),
                want,
                "smr digest drifted (depth {depth}, equivocate {equivocate}, seed {seed})"
            );
        }
    }
}

/// Telemetry is observational: attaching a recorder (phase spans, commit
/// histograms, link accounting) must not move a single message, so the
/// pinned `RoundBarrier` trace digests hold with a telemetry sink too.
#[test]
fn round_barrier_digests_are_unchanged_by_telemetry() {
    let pins = [
        (1usize, false, 0x36f2_8978_7c3b_6c0du64),
        (1, true, 0x2291_edb3_90c6_1ebe),
        (4, false, 0x98ec_6233_f36f_22d5),
        (4, true, 0x8c1f_6823_4016_9f83),
    ];
    for &(depth, equivocate, want) in &pins {
        let metrics = MetricsSink::with_telemetry();
        assert_eq!(
            smr_digest_with_sink(
                SchedulingPolicy::RoundBarrier,
                depth,
                3,
                equivocate,
                metrics.clone(),
            ),
            want,
            "telemetry perturbed the trace (depth {depth}, equivocate {equivocate})"
        );
        // And the recorder really was live during the run.
        let telemetry = metrics.telemetry().expect("telemetry attached").snapshot();
        assert!(!telemetry.spans.is_empty(), "no phase spans recorded");
        assert!(!telemetry.histograms.is_empty(), "no commit histograms recorded");
    }
}

fn wan_model(seed: u64) -> NetModel {
    NetModel::new(
        LinkModel::Wan { intra: 50, inter: 1000, jitter: 100 },
        Topology::Clusters(vec![2, 2, 2]),
    )
    .with_seed(seed)
}

/// Two event-driven runs with the same jitter seed produce the same
/// trace down to every virtual timestamp; a different seed moves the
/// timestamps (and with them the delivery order) while carrying the
/// same protocol traffic.
#[test]
fn seeded_wan_runs_are_deterministic() {
    let run = |seed: u64| {
        let cfg = SmrConfig::new(6, 1, 6, 2)
            .unwrap()
            .with_pipeline(2)
            .with_policy(SchedulingPolicy::EventDriven(wan_model(seed)));
        let workloads = synthetic_workloads(6, 2, 5);
        let hooks: Vec<Box<dyn SmrHooks>> = (0..6).map(|_| HonestReplica::boxed()).collect();
        let trace = TraceSink::new();
        let _ = simulate_smr_traced(&cfg, workloads, hooks, MetricsSink::new(), Some(trace.clone()));
        trace
    };
    let (a, b) = (run(9), run(9));
    assert_eq!(a.events(), b.events(), "same seed must replay the identical delivery schedule");
    assert_eq!(a.digest(), b.digest());

    // A different jitter seed moves the delivery schedule (so the
    // order-sensitive digest moves too) but carries the same protocol
    // traffic: same message count, same total bits.
    let c = run(10);
    assert_eq!(a.len(), c.len(), "jitter must not add or lose messages");
    assert_eq!(
        a.events().iter().map(|e| e.logical_bits).sum::<u64>(),
        c.events().iter().map(|e| e.logical_bits).sum::<u64>(),
    );
    assert_ne!(
        a.events().iter().map(|e| e.vtime).collect::<Vec<_>>(),
        c.events().iter().map(|e| e.vtime).collect::<Vec<_>>(),
        "a different jitter seed must move the delivery schedule"
    );
}

/// The acceptance scenario: a seeded 3-cluster WAN log with one cluster
/// cut off mid-run (crossings delayed until the cut heals). The
/// synchronous protocol stretches the affected rounds across the cut,
/// so every slot commits, with agreement and validity intact, and the
/// run's final virtual time lands past the heal.
#[test]
fn wan_partition_heals_and_the_log_survives() {
    let topology = Topology::Clusters(vec![2, 2, 2]);
    let (start, heal) = (5_000u64, 60_000u64);
    let model = wan_model(9).with_partition(Partition::of_cluster(
        &topology,
        2,
        start,
        heal,
        PartitionBehavior::Delay,
    ));
    let (n, slots, batch) = (6usize, 6usize, 2usize);
    let cfg = SmrConfig::new(n, 1, slots, batch)
        .unwrap()
        .with_pipeline(2)
        .with_policy(SchedulingPolicy::EventDriven(model));
    let workloads = synthetic_workloads(n, slots.div_ceil(n) * batch, 5);
    let hooks: Vec<Box<dyn SmrHooks>> = (0..n).map(|_| HonestReplica::boxed()).collect();
    let run = simulate_smr_traced(&cfg, workloads.clone(), hooks, MetricsSink::new(), None);

    // Agreement: every replica holds the identical log and state.
    for w in run.reports.windows(2) {
        assert_eq!(w[0].agreed_log(), w[1].agreed_log(), "replicas diverged across the partition");
    }
    assert!(run.stores.windows(2).all(|w| w[0] == w[1]), "state machines diverged");

    // Liveness: all slots committed their full batches — the delayed
    // crossings stretched rounds instead of losing proposals.
    let report = &run.reports[0];
    assert_eq!(report.slots.len(), slots);
    assert_eq!(report.committed_commands, (slots * batch) as u64);
    assert!(report.slots.iter().all(|s| !s.fallback), "a delay-only cut must not cause fallbacks");

    // Validity: each slot committed exactly its primary's proposed batch.
    for s in &report.slots {
        let expected: Vec<_> = workloads[s.primary].iter().take(batch).cloned().collect();
        assert_eq!(s.committed, expected, "slot {} committed foreign commands", s.slot);
    }

    // And the run really did span the cut: it finished after the heal.
    assert!(
        run.vtime >= heal,
        "run finished at virtual time {} before the cut healed at {heal}",
        run.vtime
    );
}

/// The report contains only virtual-time-derived values (wall-clock
/// span durations are deliberately excluded), so a fixed seed yields a
/// byte-identical `RunReport` JSON — and that JSON carries the
/// acceptance headlines: nonzero commit percentiles, phase shares
/// summing to ~100%, per-link delay totals, and the partition's outage
/// window.
#[test]
fn seeded_event_driven_run_reports_are_identical_and_complete() {
    let (start, heal) = (5_000u64, 60_000u64);
    let run_report = || {
        let topology = Topology::Clusters(vec![2, 2, 2]);
        let model = wan_model(9).with_partition(Partition::of_cluster(
            &topology,
            2,
            start,
            heal,
            PartitionBehavior::Delay,
        ));
        let (n, slots, batch) = (6usize, 6usize, 2usize);
        let cfg = SmrConfig::new(n, 1, slots, batch)
            .unwrap()
            .with_pipeline(2)
            .with_policy(SchedulingPolicy::EventDriven(model));
        let workloads = synthetic_workloads(n, slots.div_ceil(n) * batch, 5);
        let hooks: Vec<Box<dyn SmrHooks>> = (0..n).map(|_| HonestReplica::boxed()).collect();
        let metrics = MetricsSink::with_telemetry();
        let run = simulate_smr_traced(&cfg, workloads, hooks, metrics.clone(), None);
        RunReport::build(&cfg, &run, &metrics)
    };

    let (a, b) = (run_report(), run_report());
    assert_eq!(a.to_json(), b.to_json(), "same seed must yield a byte-identical report");

    // The JSON round-trips through the hand-rolled parser. (Float fields
    // are rounded at render time, so the struct comparison is on the
    // re-rendered JSON: parse→render must be a fixed point.)
    let parsed = RunReport::from_json(&a.to_json()).expect("report parses back");
    assert_eq!(parsed.to_json(), a.to_json());

    // Commit-latency percentiles are nonzero (absolute commit vtimes).
    assert!(a.commit_vtime.count > 0, "no commits recorded");
    assert!(a.commit_vtime.p50 > 0 && a.commit_vtime.p99 > 0 && a.commit_vtime.max > 0);

    // Phase shares sum to ~100% and cover the protocol's rounds.
    let share_sum: f64 = a.phases.iter().map(|p| p.share_pct).sum();
    assert!((share_sum - 100.0).abs() < 0.5, "phase shares sum to {share_sum}");
    for phase in ["dispersal", "echo", "vote"] {
        assert!(a.phases.iter().any(|p| p.phase == phase), "missing phase {phase}");
    }

    // Per-link delay totals made it into the top-k table.
    assert!(!a.links.is_empty(), "no link accounting recorded");
    assert!(a.links.iter().all(|l| l.messages > 0 && l.total_delay > 0));

    // The partition's outage window is reported with its affected
    // traffic (delay behaviour: crossings held, none lost).
    assert_eq!(a.outages.len(), 1);
    assert_eq!((a.outages[0].start, a.outages[0].heal), (start, heal));
    assert_eq!(a.outages[0].behavior, "delay");
    assert_eq!(a.outages[0].dropped, 0);
    assert!(a.outages[0].delayed > 0, "no crossings were held by the cut");

    // The per-slot timeline covers every slot.
    assert_eq!(a.timeline.len(), 6);
    assert!(a.timeline.iter().all(|s| s.commands == 2 && !s.fallback));
}
