//! Standalone probes: each times one layer's public functions at the
//! *workload's own* n, t, D and message sizes, outside any protocol run.
//! They answer "how fast is this layer alone", so that the traced run's
//! shares can be read against a floor.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mvbc_adversary::campaign::ScenarioGenerator;
use mvbc_baselines::bitwise::simulate_bitwise;
use mvbc_baselines::fitzi_hirt::{simulate_fitzi_hirt, FitziHirtConfig};
use mvbc_bsb::{run_bsb_batch, BsbConfig, BsbInstance, NoopBsbHooks};
use mvbc_core::{find_clique_of_size, simulate_consensus, ConsensusConfig, DiagGraph, NoopHooks};
use mvbc_gf::kernels::{addmul_rows, addmul_slice, addmul_slice_scalar};
use mvbc_gf::{Field, Gf65536, PreparedMul65536};
use mvbc_metrics::{intern_tag, MetricsSink};
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::{
    run_simulation, run_simulation_traced, LinkModel, NetModel, NodeCtx, NodeLogic,
    SchedulingPolicy, SimConfig, Topology,
};
use mvbc_rscode::{StripedCode, Symbol};
use mvbc_smr::{decode_batch, encode_batch, synthetic_workloads, SmrConfig};

use crate::workloads::{input_value, log_config, Shape, Spec};

/// Wall budget of one timing loop.
const LOOP_BUDGET: Duration = Duration::from_millis(40);

/// Nanoseconds per call of `f`, over as many calls as fit the budget
/// (after one warm-up call).
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut calls = 0u64;
    let mut batch = 1u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = started.elapsed();
        if elapsed >= LOOP_BUDGET {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
        batch = batch.saturating_mul(2);
    }
}

/// Probe results by metric name.
pub type Metrics = Vec<(String, f64)>;

fn put(out: &mut Metrics, name: &str, value: f64) {
    out.push((name.to_owned(), value));
}

/// The parameters a workload hands its probes.
#[derive(Debug, Clone, Copy)]
struct Params {
    n: usize,
    t: usize,
    /// Messages a node sends each peer per round (the pipeline depth).
    depth: usize,
    /// Generation size D in bytes.
    gen_bytes: usize,
    /// One-bit BSB instances per generation.
    instances: usize,
    cmds_per_slot: usize,
}

/// `log_faulty` mixes n ∈ {4, 7, 10}; its probes run at the middle size
/// with a mid-range scenario's slots, batch and depth.
const FAULTY_PROBE: (usize, usize, usize, usize, usize) = (7, 2, 10, 2, 2);

fn params(spec: &Spec) -> Params {
    match spec.shape {
        Shape::Log { n, t, depth, cmds_per_slot, .. } => {
            let gen_bytes = log_config(spec).resolved_gen_bytes();
            Params { n, t, depth, gen_bytes, instances: n - 1, cmds_per_slot }
        }
        Shape::Faulty => {
            let (n, t, slots, batch, depth) = FAULTY_PROBE;
            let cfg = SmrConfig::new(n, t, slots, batch).expect("valid log parameters");
            Params {
                n,
                t,
                depth,
                gen_bytes: cfg.resolved_gen_bytes(),
                instances: n - 1,
                cmds_per_slot: batch,
            }
        }
        Shape::Consensus { n, t, value_bytes } => {
            let cfg = ConsensusConfig::new(n, t, value_bytes).expect("valid consensus parameters");
            // The M vectors (n bits from each of n processors) plus the
            // detected flags of the t processors outside P_match.
            Params {
                n,
                t,
                depth: 1,
                gen_bytes: cfg.resolved_gen_bytes(),
                instances: n * n + t,
                cmds_per_slot: 0,
            }
        }
    }
}

/// Runs every probe that applies to `spec`; `msg_bytes` is the mean
/// payload of the messages the workload itself sent.
pub fn run(spec: &Spec, seed: u64, msg_bytes: usize) -> Metrics {
    let p = params(spec);
    let mut out = Metrics::new();
    // rscode first: its cold constructor must see empty process-wide caches.
    rscode(&p, seed, &mut out);
    gf(&mut out);
    netsim(&p, msg_bytes.max(1), &mut out);
    metrics(&mut out);
    bsb(&p, &mut out);
    match spec.shape {
        Shape::Consensus { n, t, value_bytes } => {
            core_clique(&p, &mut out);
            baselines(n, t, value_bytes, seed, &mut out);
        }
        Shape::Faulty => {
            smr_batch(&p, seed, &mut out);
            let mut generator = ScenarioGenerator::new(seed);
            let generate_ns = ns_per_call(|| {
                black_box(generator.next_scenario());
            });
            put(&mut out, "adversary.generate_us", generate_ns / 1e3);
        }
        Shape::Log { .. } => smr_batch(&p, seed, &mut out),
    }
    put(&mut out, "probe.gen_bytes", p.gen_bytes as f64);
    put(&mut out, "probe.n", p.n as f64);
    put(&mut out, "probe.t", p.t as f64);
    out
}

fn gf(out: &mut Metrics) {
    const LONG: usize = 32 * 1024;
    const SHORT: usize = 64;
    const ROWS: usize = 8;
    let element = |i: usize| Gf65536::from_u64((i as u64).wrapping_mul(0x9E37) | 1);
    let c = element(12_345);
    let src: Vec<Gf65536> = (0..LONG).map(element).collect();
    let mut dst = vec![Gf65536::ZERO; LONG];
    let mbps = |symbols: usize, ns: f64| symbols as f64 * 2.0 / 1e6 / (ns / 1e9);

    let long_ns = ns_per_call(|| addmul_slice(c, black_box(&src), &mut dst));
    let scalar_ns = ns_per_call(|| addmul_slice_scalar(c, black_box(&src), &mut dst));
    let short_ns = ns_per_call(|| addmul_slice(c, black_box(&src[..SHORT]), &mut dst[..SHORT]));
    let coeffs: Vec<Gf65536> = (1..=ROWS).map(element).collect();
    let rows: Vec<Vec<Gf65536>> =
        (0..ROWS).map(|r| (0..LONG).map(|i| element(i + r)).collect()).collect();
    let row_refs: Vec<&[Gf65536]> = rows.iter().map(Vec::as_slice).collect();
    let rows_ns = ns_per_call(|| addmul_rows(&coeffs, black_box(&row_refs), &mut dst));
    let build_ns = ns_per_call(|| {
        black_box(PreparedMul65536::new(black_box(c)));
    });
    black_box(&dst);

    put(out, "gf.addmul_long_mbps", mbps(LONG, long_ns));
    put(out, "gf.addmul_short_mbps", mbps(SHORT, short_ns));
    put(out, "gf.addmul_rows_mbps", mbps(LONG * ROWS, rows_ns));
    put(out, "gf.packed_over_scalar", scalar_ns / long_ns);
    put(out, "gf.prepared_build_ns", build_ns);
}

fn rscode(p: &Params, seed: u64, out: &mut Metrics) {
    let build = || StripedCode::c2t(p.n, p.t, p.gen_bytes).expect("valid code parameters");
    let started = Instant::now();
    let code = build();
    let cold_us = started.elapsed().as_nanos() as f64 / 1e3;
    let warm_us = ns_per_call(|| {
        black_box(build());
    }) / 1e3;

    let value = input_value(p.gen_bytes, seed);
    let symbols = code.encode_value(&value).expect("value has the generation size");
    // What a receiver holds after the echo round: the n - t echo symbols.
    let held: Vec<(usize, Symbol)> = symbols.iter().cloned().enumerate().take(p.n - p.t).collect();
    let k = code.layout().k;
    let encode_ns = ns_per_call(|| {
        black_box(code.encode_value(black_box(&value)).expect("sized value"));
    });
    let consistent_ns = ns_per_call(|| {
        black_box(code.is_consistent(black_box(&held)).expect("valid positions"));
    });
    let decode_ns = ns_per_call(|| {
        black_box(code.decode_value(black_box(&held)).expect("enough symbols"));
    });
    let extend_ns = ns_per_call(|| {
        black_box(code.extend_symbols(black_box(&held[..k])).expect("k symbols"));
    });
    assert_eq!(
        code.decode_value(&held).expect("enough symbols"),
        value,
        "probe decode round-trips"
    );
    let mbps = |ns: f64| p.gen_bytes as f64 / 1e6 / (ns / 1e9);

    put(out, "rscode.new_cold_us", cold_us);
    put(out, "rscode.new_warm_us", warm_us);
    put(out, "rscode.encode_us", encode_ns / 1e3);
    put(out, "rscode.consistent_us", consistent_ns / 1e3);
    put(out, "rscode.decode_us", decode_ns / 1e3);
    put(out, "rscode.extend_us", extend_ns / 1e3);
    put(out, "rscode.encode_mbps", mbps(encode_ns));
    put(out, "rscode.decode_mbps", mbps(decode_ns));
}

/// The null protocol: for `rounds` rounds every node sends `copies`
/// messages of `bytes` bytes to every peer and ends the round. Returns
/// wall seconds.
fn null_protocol(
    n: usize,
    rounds: usize,
    copies: usize,
    bytes: usize,
    policy: SchedulingPolicy,
    trace: Option<TraceSink>,
) -> f64 {
    let logics: Vec<NodeLogic<()>> = (0..n)
        .map(|_| {
            Box::new(move |ctx: &mut NodeCtx| {
                let payload = vec![0xA5u8; bytes];
                for _ in 0..rounds {
                    for to in 0..ctx.n() {
                        if to == ctx.id() {
                            continue;
                        }
                        for _ in 0..copies {
                            ctx.send(to, "probe.null", payload.clone(), bytes as u64 * 8);
                        }
                    }
                    black_box(ctx.end_round());
                }
            }) as NodeLogic<()>
        })
        .collect();
    let started = Instant::now();
    run_simulation_traced(SimConfig::new(n).with_policy(policy), MetricsSink::new(), trace, logics);
    started.elapsed().as_secs_f64()
}

fn netsim(p: &Params, msg_bytes: usize, out: &mut Metrics) {
    let barrier = || SchedulingPolicy::RoundBarrier;
    let event =
        || SchedulingPolicy::EventDriven(NetModel::new(LinkModel::Fixed(1), Topology::Clique));
    let n = p.n;
    // Thread spawn and teardown: the median of a few zero-round runs.
    let spawns: Vec<f64> = (0..5).map(|_| null_protocol(n, 0, 0, 0, barrier(), None)).collect();
    let spawn_s = crate::stats::median(&spawns);
    // Size the round count for roughly 0.1 s per run; every figure is the
    // median of three interleaved runs, so a scheduling hiccup during one
    // configuration does not skew its ratio to the others.
    let pilot_rounds = 20;
    let pilot =
        (null_protocol(n, pilot_rounds, p.depth, msg_bytes, barrier(), None) - spawn_s).max(1e-6);
    let rounds = ((0.1 / (pilot / pilot_rounds as f64)) as usize).clamp(20, 5000);
    let per_round_us = |wall: f64| (wall - spawn_s).max(0.0) / rounds as f64 * 1e6;
    let (mut empty, mut loaded, mut traced, mut evented) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        empty.push(per_round_us(null_protocol(n, rounds, 0, 0, barrier(), None)));
        loaded.push(per_round_us(null_protocol(n, rounds, p.depth, msg_bytes, barrier(), None)));
        traced.push(per_round_us(null_protocol(
            n,
            rounds,
            p.depth,
            msg_bytes,
            barrier(),
            Some(TraceSink::new()),
        )));
        evented.push(per_round_us(null_protocol(n, rounds, p.depth, msg_bytes, event(), None)));
    }
    let median = crate::stats::median;
    let (empty_us, loaded_us) = (median(&empty), median(&loaded));
    let messages_per_round = (n * (n - 1) * p.depth) as f64;

    // 64 KiB all-to-all: bytes delivered per wall second.
    const BULK: usize = 64 * 1024;
    let bulk_rounds = (512 / (n * n)).clamp(2, 64);
    let bulk_s = (null_protocol(n, bulk_rounds, 1, BULK, barrier(), None) - spawn_s).max(1e-9);
    let bulk_bytes = (bulk_rounds * n * (n - 1) * BULK) as f64;

    put(out, "netsim.spawn_ms", spawn_s * 1e3);
    put(out, "netsim.round_us_empty", empty_us);
    put(out, "netsim.round_us_loaded", loaded_us);
    put(out, "netsim.msg_ns", (loaded_us - empty_us).max(0.0) * 1e3 / messages_per_round);
    put(out, "netsim.payload_mbps", bulk_bytes / 1e6 / bulk_s);
    put(out, "netsim.trace_ratio", median(&traced) / loaded_us);
    put(out, "netsim.event_over_barrier", median(&evented) / loaded_us);
}

fn metrics(out: &mut Metrics) {
    let sink = MetricsSink::new();
    let tag = intern_tag("probe.metrics.send");
    let record_ns = ns_per_call(|| sink.record_send(black_box(3), tag, 16, 2));
    let intern_ns = ns_per_call(|| {
        black_box(intern_tag(black_box("probe.metrics.send")));
    });
    // 1000 distinct (node, tag) counters: what a log of ~140 slots at
    // n = 7 has accumulated when the sequential engine snapshots it.
    let wide = MetricsSink::new();
    for i in 0..1000 {
        wide.record_send(i % 7, intern_tag(&format!("probe.metrics.slot{}.tag", i / 7)), 8, 1);
    }
    let snapshot_ns = ns_per_call(|| {
        black_box(wide.snapshot());
    });
    put(out, "metrics.record_send_ns", record_ns);
    put(out, "metrics.intern_tag_ns", intern_ns);
    put(out, "metrics.snapshot_us_1k_tags", snapshot_ns / 1e3);
}

fn bsb(p: &Params, out: &mut Metrics) {
    let (n, t, instances) = (p.n, p.t, p.instances);
    let run = |batches: usize| -> (f64, u64, u64) {
        let sink = MetricsSink::new();
        let logics: Vec<NodeLogic<()>> = (0..n)
            .map(|_| {
                Box::new(move |ctx: &mut NodeCtx| {
                    let config = BsbConfig::new(t, "probe.bsb", vec![true; n]);
                    let me = ctx.id();
                    let batch: Vec<BsbInstance> = (0..instances)
                        .map(|i| BsbInstance {
                            source: i % n,
                            input: (i % n == me).then_some(i % 3 == 0),
                        })
                        .collect();
                    for _ in 0..batches {
                        black_box(run_bsb_batch(ctx, &config, &batch, &mut NoopBsbHooks));
                    }
                }) as NodeLogic<()>
            })
            .collect();
        let started = Instant::now();
        let result = run_simulation(SimConfig::new(n), sink.clone(), logics);
        (started.elapsed().as_secs_f64(), result.rounds, sink.snapshot().total_logical_bits())
    };
    let (spawn_s, _, _) = run(0);
    let (pilot_s, _, _) = run(2);
    let per_batch = ((pilot_s - spawn_s) / 2.0).max(1e-6);
    let batches = ((0.25 / per_batch) as usize).clamp(2, 2000);
    let (wall_s, rounds, bits) = run(batches);
    put(out, "bsb.batch_us", (wall_s - spawn_s).max(0.0) / batches as f64 * 1e6);
    put(out, "bsb.rounds_per_batch", rounds as f64 / batches as f64);
    put(out, "bsb.bits_per_instance", bits as f64 / (batches * instances) as f64);
}

fn core_clique(p: &Params, out: &mut Metrics) {
    // The worst case the dispute budget allows: each of t faulty
    // processors has burnt all t + 1 of its disposable edges.
    let (n, t) = (p.n, p.t);
    let mut diag = DiagGraph::new(n, t);
    for faulty in 0..t {
        for k in 0..=t {
            diag.remove_edge(faulty, t + (faulty + k) % (n - t));
        }
    }
    let active = diag.active_ids();
    let ns = ns_per_call(|| {
        black_box(find_clique_of_size(black_box(&active), n - t, |a, b| diag.trusts(a, b)));
    });
    put(out, "core.clique_us", ns / 1e3);
}

fn smr_batch(p: &Params, seed: u64, out: &mut Metrics) {
    let commands = synthetic_workloads(1, p.cmds_per_slot, seed).remove(0);
    let ns = ns_per_call(|| {
        let bytes = encode_batch(black_box(&commands), p.cmds_per_slot);
        black_box(decode_batch(&bytes));
    });
    put(out, "smr.batch_codec_us", ns / 1e3);
}

/// The two baselines at the workload's n and t: Fitzi-Hirt at the
/// workload's L (wall and bits, which the caller divides by the
/// workload's own), and bitwise consensus against Algorithm 1 at 16 KiB
/// (bitwise at 1 MiB would move gigabytes).
fn baselines(n: usize, t: usize, value_bytes: usize, seed: u64, out: &mut Metrics) {
    let value = input_value(value_bytes, seed);
    let sink = MetricsSink::new();
    let started = Instant::now();
    let outcomes =
        simulate_fitzi_hirt(&FitziHirtConfig::new(n, t, value_bytes), vec![value; n], sink.clone());
    let fh_wall = started.elapsed().as_secs_f64();
    black_box(outcomes);
    put(out, "baselines.fitzi_hirt_wall_s", fh_wall);
    put(out, "baselines.fitzi_hirt_bits", sink.snapshot().total_logical_bits() as f64);

    const SMALL: usize = 16 * 1024;
    let small = input_value(SMALL, seed);
    let bitwise_sink = MetricsSink::new();
    black_box(simulate_bitwise(n, t, vec![small.clone(); n], bitwise_sink.clone()));
    let consensus_sink = MetricsSink::new();
    let cfg = ConsensusConfig::new(n, t, SMALL).expect("valid consensus parameters");
    let hooks = (0..n).map(|_| NoopHooks::boxed()).collect();
    black_box(simulate_consensus(&cfg, vec![small; n], hooks, consensus_sink.clone()));
    let bits = |sink: &MetricsSink| sink.snapshot().total_logical_bits() as f64;
    put(out, "baselines.bitwise_bits_ratio_16kib", bits(&bitwise_sink) / bits(&consensus_sink));
}
