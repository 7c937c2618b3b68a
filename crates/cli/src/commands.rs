//! Command execution: run the simulations and print human-oriented
//! summaries.

use std::io::Read as _;

use mvbc_adversary::campaign::{run_scenario, CampaignReport, CampaignRunner, Scenario};
use mvbc_adversary::{CorruptSymbolTo, RandomAdversary, Silent, WorstCaseDiagnosis};
use mvbc_bsb::{BsbDriver, DolevStrongDriver, EigDriver, PhaseKingDriver};
use mvbc_broadcast::attacks::{
    EquivocatingSource, FalseDetector, FramingEcho, LyingDiagnosisSource, LyingEcho, SilentEcho,
    SilentSource,
};
use mvbc_broadcast::{simulate_broadcast, BroadcastConfig, BroadcastHooks, NoopBroadcastHooks};
use mvbc_core::{dsel, simulate_consensus_traced, ConsensusConfig, NoopHooks, ProtocolHooks};
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::{LinkModel, NetModel, Partition, PartitionBehavior, SchedulingPolicy, Topology};
use mvbc_metrics::MetricsSink;
use mvbc_smr::{
    simulate_smr, synthetic_workloads, EquivocatingPrimary, HonestReplica, RunReport,
    SilentPrimary, SmrConfig, SmrHooks,
};

use crate::args::{
    BroadcastAttack, BsbChoice, Command, ConsensusAttack, IslandSpec, LatencySpec, NetSpec,
    SmrAttack, TopologySpec,
};

fn workload(len: usize, seed: u64) -> Vec<u8> {
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

/// The largest file `inspect` and `smr soak --scenario` read. Run
/// reports and scenarios are kilobytes; the big files this binary
/// writes are `consensus --trace` CSVs, 46 MiB at n = 7 and 484 MiB at
/// n = 16 for L = 1 MiB.
const MAX_INPUT_BYTES: u64 = 1 << 30;

/// Reads the text file at `path` for subcommand `sub`, refusing one
/// larger than [`MAX_INPUT_BYTES`] before allocating for it. Exits with
/// status 2 on any failure.
fn read_input(sub: &str, path: &str) -> String {
    let fail = |msg: String| -> ! {
        eprintln!("{sub}: {msg}");
        std::process::exit(2);
    };
    let file = std::fs::File::open(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let len = file.metadata().map(|m| m.len()).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    if len > MAX_INPUT_BYTES {
        fail(format!("{path} is {len} bytes, over the {MAX_INPUT_BYTES}-byte input limit"));
    }
    let mut text = String::with_capacity(len as usize);
    // `take` also bounds a file that grows after the length check.
    file.take(MAX_INPUT_BYTES)
        .read_to_string(&mut text)
        .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    text
}

/// Executes a parsed command.
pub fn run(cmd: Command) {
    match cmd {
        Command::Consensus { n, t, l, d, seed, attack, differing, bsb, trace } => {
            consensus(n, t, l, d, seed, attack, differing, bsb, trace)
        }
        Command::Broadcast { n, t, l, d, source, seed, attack } => {
            broadcast(n, t, l, d, source, seed, attack)
        }
        Command::Smr {
            n,
            t,
            slots,
            batch,
            batch_bytes,
            seed,
            attack,
            byz,
            pipeline,
            net,
            report,
        } => smr(n, t, slots, batch, batch_bytes, seed, attack, byz, pipeline, net, report),
        Command::Inspect { path } => inspect(&path),
        Command::Info { n, t, l } => info(n, t, l),
        Command::Soak { runs, seed } => soak(runs, seed),
        Command::SmrSoak { runs, seed, scenario, emit_failures } => {
            smr_soak(runs, seed, scenario, &emit_failures)
        }
    }
}

/// Small deterministic PRNG for soak parameter draws (xorshift64*).
struct SoakRng(u64);

impl SoakRng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn soak(runs: usize, seed: u64) {
    use mvbc_adversary::{
        CorruptSymbolTo, EquivocateSymbol, FalseDetect, LieMVector, RandomAdversary,
        ShiftedInput, Silent, Sleeper,
    };

    let mut rng = SoakRng(seed | 1);
    let mut diagnosed_runs = 0usize;
    for run_idx in 0..runs {
        let (n, t) = [(4usize, 1usize), (7, 2), (10, 3)][rng.below(3)];
        let l = 8 + rng.below(120);
        let cfg = ConsensusConfig::new(n, t, l).expect("soak draws valid parameters");
        let value = workload(l, rng.next());
        let faulty = rng.below(n);
        let hooks: Vec<Box<dyn ProtocolHooks>> = (0..n)
            .map(|i| {
                if i != faulty {
                    return NoopHooks::boxed();
                }
                let strategy: Box<dyn ProtocolHooks> = match rng.below(8) {
                    0 => Box::new(Silent),
                    1 => Box::new(CorruptSymbolTo::new(vec![(faulty + 1) % n])),
                    2 => Box::new(EquivocateSymbol),
                    3 => Box::new(FalseDetect),
                    4 => Box::new(LieMVector { claim: true }),
                    5 => Box::new(ShiftedInput),
                    6 => Box::new(Sleeper::new(1 + rng.below(3), EquivocateSymbol)),
                    _ => Box::new(RandomAdversary::new(rng.next(), 0.35)),
                };
                strategy
            })
            .collect();
        let run = simulate_consensus_traced(
            &cfg,
            vec![value.clone(); n],
            hooks,
            bsb_fleet(BsbChoice::PhaseKing, n),
            MetricsSink::new(),
            TraceSink::new(),
        );
        let honest: Vec<usize> = (0..n).filter(|&i| i != faulty).collect();
        for &h in &honest {
            assert_eq!(
                run.outputs[h], value,
                "soak run {run_idx}: node {h} violated validity (n={n}, t={t}, l={l})"
            );
            assert!(run.reports[h].diagnosis_invocations <= (t * (t + 1)) as u64);
            assert!(run.reports[h].isolated.iter().all(|&i| i == faulty));
        }
        if run.reports[honest[0]].diagnosis_invocations > 0 {
            diagnosed_runs += 1;
        }

        // Paired broadcast draw: one single-shot broadcast execution under
        // a random broadcast-layer attack, asserting the per-execution
        // t(t+2) dispute budget alongside the consensus t(t+1) above.
        let bl = 8 + rng.below(64);
        let source = rng.below(n);
        let bfaulty = rng.below(n);
        let bcfg = mvbc_broadcast::BroadcastConfig::new(n, t, source, bl)
            .expect("soak draws valid broadcast parameters");
        let bvalue = workload(bl, rng.next());
        let bhooks: Vec<Box<dyn BroadcastHooks>> = (0..n)
            .map(|i| -> Box<dyn BroadcastHooks> {
                if i != bfaulty {
                    return NoopBroadcastHooks::boxed();
                }
                if i == source {
                    match rng.below(3) {
                        0 => Box::new(EquivocatingSource),
                        1 => Box::new(SilentSource),
                        _ => Box::new(LyingDiagnosisSource),
                    }
                } else {
                    match rng.below(4) {
                        0 => Box::new(LyingEcho::new(vec![(bfaulty + 1) % n])),
                        1 => Box::new(SilentEcho),
                        2 => Box::new(FramingEcho),
                        _ => Box::new(FalseDetector),
                    }
                }
            })
            .collect();
        let brun = simulate_broadcast(&bcfg, bvalue.clone(), bhooks, MetricsSink::new());
        let bhonest: Vec<usize> = (0..n).filter(|&i| i != bfaulty).collect();
        for w in bhonest.windows(2) {
            assert_eq!(
                brun.outputs[w[0]], brun.outputs[w[1]],
                "soak run {run_idx}: broadcast agreement violated (n={n}, t={t}, source={source})"
            );
        }
        if source != bfaulty {
            assert_eq!(
                brun.outputs[bhonest[0]], bvalue,
                "soak run {run_idx}: broadcast validity violated (n={n}, t={t}, source={source})"
            );
        }
        for &h in &bhonest {
            assert!(
                brun.reports[h].diagnosis_invocations <= (t * (t + 2)) as u64,
                "soak run {run_idx}: broadcast dispute budget t(t+2) exceeded \
                 ({} > {}, n={n}, t={t})",
                brun.reports[h].diagnosis_invocations,
                t * (t + 2),
            );
            assert!(brun.reports[h].isolated.iter().all(|&i| i == bfaulty));
        }
    }
    println!(
        "soak: {runs} randomized consensus+broadcast run pairs OK ({diagnosed_runs} reached the \
         diagnosis stage); validity, consistency, the consensus t(t+1) and broadcast t(t+2) \
         dispute budgets and isolation safety held on every run"
    );
}

/// The adversary-campaign soak: generated (or replayed) scenarios,
/// each machine-checked; failing scenarios are emitted as replayable
/// JSON artifacts and fail the process.
fn smr_soak(runs: usize, seed: u64, scenario_path: Option<String>, emit_failures: &str) {
    if let Some(path) = scenario_path {
        let text = read_input("smr soak", &path);
        let scenario = Scenario::from_json(&text).unwrap_or_else(|e| {
            eprintln!("smr soak: {path} is not a valid scenario: {e}");
            std::process::exit(2);
        });
        let outcome = run_scenario(&scenario).unwrap_or_else(|e| {
            eprintln!("smr soak: scenario {path} failed to run: {e}");
            std::process::exit(2);
        });
        println!(
            "replay {}: n = {}, t = {}, {} slot(s), pipeline depth {}, {} corruption(s), {}",
            scenario.name,
            scenario.n,
            scenario.t,
            scenario.slots,
            scenario.pipeline,
            scenario.corruptions.len(),
            if scenario.net.is_some() { "event-driven" } else { "round-barrier" },
        );
        if !scenario.is_model_preserving() {
            println!(
                "note: the scenario leaves the error-free model (more than t corruptions \
                 or drop partitions) — violations are expected, not protocol bugs"
            );
        }
        println!(
            "log digest {:016x}, trace digest {:016x}; {} command(s) committed, \
             {} fallback slot(s), {} diagnosis invocation(s) (budget t(t+2) = {})",
            outcome.log_digest,
            outcome.trace_digest,
            outcome.committed_commands,
            outcome.fallback_slots,
            outcome.diagnosis_total,
            scenario.t * (scenario.t + 2),
        );
        if outcome.violations.is_empty() {
            println!("replay: every invariant held");
        } else {
            for v in &outcome.violations {
                println!("VIOLATION [{}] {}", v.check, v.detail);
            }
            std::process::exit(1);
        }
        return;
    }

    let mut runner = CampaignRunner::new(seed);
    let mut report = CampaignReport::new();
    let mut artifacts: Vec<String> = Vec::new();
    for _ in 0..runs {
        let run = runner.next_run();
        report.absorb(&run);
        if run.outcome.violations.is_empty() {
            continue;
        }
        for v in &run.outcome.violations {
            println!("{}: VIOLATION [{}] {}", run.scenario.name, v.check, v.detail);
        }
        if let Err(e) = std::fs::create_dir_all(emit_failures) {
            eprintln!("smr soak: cannot create {emit_failures}: {e}");
        }
        let path = format!("{emit_failures}/{}.json", run.scenario.name);
        match std::fs::write(&path, run.scenario.to_json() + "\n") {
            Ok(()) => artifacts.push(path),
            Err(e) => eprintln!("smr soak: cannot write {path}: {e}"),
        }
    }
    let mix: Vec<String> =
        report.behavior_mix.iter().map(|(k, v)| format!("{k} x{v}")).collect();
    println!(
        "smr soak: {} campaign scenario(s) from seed {seed}; {} slot(s), {} command(s) \
         committed, {} diagnosis invocation(s), worst commit vtime {} tick(s)",
        report.scenarios,
        report.total_slots,
        report.total_commands,
        report.total_diagnosis,
        report.worst_commit_vtime,
    );
    println!("behavior mix: {}", mix.join(", "));
    if report.failed.is_empty() {
        println!(
            "agreement, validity, prefix consistency, sequential equivalence, isolation \
             safety and the t(t+2) dispute budget held on every scenario"
        );
    } else {
        println!(
            "{} scenario(s) violated invariants ({} violation(s) total):",
            report.failed.len(),
            report.violations,
        );
        for path in &artifacts {
            println!("  replay with: mvbc smr soak --scenario {path}");
        }
        std::process::exit(1);
    }
}

fn bsb_fleet(choice: BsbChoice, n: usize) -> Vec<Box<dyn BsbDriver>> {
    match choice {
        BsbChoice::PhaseKing => {
            (0..n).map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>).collect()
        }
        BsbChoice::Eig => (0..n).map(|_| Box::new(EigDriver) as Box<dyn BsbDriver>).collect(),
        BsbChoice::DolevStrong => DolevStrongDriver::fleet(n)
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn BsbDriver>)
            .collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn consensus(
    n: usize,
    t: usize,
    l: usize,
    d: Option<usize>,
    seed: u64,
    attack: ConsensusAttack,
    differing: bool,
    bsb: BsbChoice,
    trace_path: Option<String>,
) {
    let cfg = match d {
        Some(d) => ConsensusConfig::with_gen_bytes(n, t, l, d),
        None => ConsensusConfig::new(n, t, l),
    }
    .unwrap_or_else(|e| {
        eprintln!("invalid parameters: {e}");
        std::process::exit(2);
    });

    let inputs: Vec<Vec<u8>> = (0..n)
        .map(|i| workload(l, seed.wrapping_add(if differing { i as u64 } else { 0 })))
        .collect();
    let mut hooks: Vec<Box<dyn ProtocolHooks>> = (0..n).map(|_| NoopHooks::boxed()).collect();
    let mut faulty: Vec<usize> = Vec::new();
    match attack {
        ConsensusAttack::None => {}
        ConsensusAttack::Silent => {
            hooks[n - 1] = Box::new(Silent);
            faulty.push(n - 1);
        }
        ConsensusAttack::Corrupt => {
            hooks[0] = Box::new(CorruptSymbolTo::new(vec![n - 1]));
            faulty.push(0);
        }
        ConsensusAttack::Random => {
            hooks[n - 1] = Box::new(RandomAdversary::new(seed, 0.35));
            faulty.push(n - 1);
        }
        ConsensusAttack::WorstCase => {
            let team: Vec<usize> = (0..t.max(1)).collect();
            for &f in &team {
                hooks[f] = Box::new(WorstCaseDiagnosis::new(team.clone()));
            }
            faulty = team;
        }
    }

    let metrics = MetricsSink::new();
    let trace = TraceSink::new();
    let run = simulate_consensus_traced(
        &cfg,
        inputs.clone(),
        hooks,
        bsb_fleet(bsb, n),
        metrics.clone(),
        trace.clone(),
    );
    if let Some(path) = &trace_path {
        match std::fs::write(path, trace.to_csv()) {
            Ok(()) => println!("trace: {} deliveries written to {path}", trace.len()),
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }

    println!(
        "consensus: n = {n}, t = {t}, L = {l} bytes, D = {} bytes, {} generation(s), BSB = {bsb:?}",
        cfg.resolved_gen_bytes(),
        cfg.generations()
    );
    println!("attack: {attack:?}; Byzantine processors: {faulty:?}");
    let honest: Vec<usize> = (0..n).filter(|i| !faulty.contains(i)).collect();
    let agreed = honest.windows(2).all(|w| run.outputs[w[0]] == run.outputs[w[1]]);
    println!("fault-free agreement: {}", if agreed { "YES" } else { "NO (BUG!)" });
    let decided = &run.outputs[honest[0]];
    if *decided == inputs[honest[0]] && !differing {
        println!("decision: the common input (validity holds)");
    } else if *decided == cfg.default_value() {
        println!("decision: the default value (inputs provably differed)");
    } else {
        println!("decision: {} bytes (first 8: {:02x?})", decided.len(), &decided[..decided.len().min(8)]);
    }
    let report = &run.reports[honest[0]];
    println!(
        "diagnosis stages: {} (Theorem 1 bound: {}); isolated: {:?}",
        report.diagnosis_invocations,
        t * (t + 1),
        report.isolated
    );
    let snap = metrics.snapshot();
    println!(
        "communication: {} bits over {} rounds ({:.2} bits per value bit; Eq. (3) coefficient {:.2})",
        snap.total_logical_bits(),
        snap.rounds(),
        snap.total_logical_bits() as f64 / (l * 8) as f64,
        dsel::linear_coefficient(n, t),
    );
    println!("\nper-stage breakdown:\n{}", snap.to_markdown());
}

fn broadcast(
    n: usize,
    t: usize,
    l: usize,
    d: Option<usize>,
    source: usize,
    seed: u64,
    attack: BroadcastAttack,
) {
    let cfg = match d {
        Some(d) => BroadcastConfig::with_gen_bytes(n, t, source, l, d),
        None => BroadcastConfig::new(n, t, source, l),
    }
    .unwrap_or_else(|e| {
        eprintln!("invalid parameters: {e}");
        std::process::exit(2);
    });

    let value = workload(l, seed);
    let mut hooks: Vec<Box<dyn BroadcastHooks>> =
        (0..n).map(|_| NoopBroadcastHooks::boxed()).collect();
    let mut faulty: Vec<usize> = Vec::new();
    match attack {
        BroadcastAttack::None => {}
        BroadcastAttack::Equivocate => {
            hooks[source] = Box::new(EquivocatingSource);
            faulty.push(source);
        }
        BroadcastAttack::SilentSource => {
            hooks[source] = Box::new(SilentSource);
            faulty.push(source);
        }
        BroadcastAttack::LyingEcho => {
            let echo = (source + 1) % n;
            hooks[echo] = Box::new(LyingEcho::new(vec![(source + 2) % n]));
            faulty.push(echo);
        }
    }

    let metrics = MetricsSink::new();
    let run = simulate_broadcast(&cfg, value.clone(), hooks, metrics.clone());

    println!(
        "broadcast: n = {n}, t = {t}, source = {source}, L = {l} bytes, {} generation(s)",
        cfg.generations()
    );
    println!("attack: {attack:?}; Byzantine processors: {faulty:?}");
    let honest: Vec<usize> = (0..n).filter(|i| !faulty.contains(i)).collect();
    let agreed = honest.windows(2).all(|w| run.outputs[w[0]] == run.outputs[w[1]]);
    println!("fault-free agreement: {}", if agreed { "YES" } else { "NO (BUG!)" });
    if !faulty.contains(&source) {
        println!(
            "validity (delivered == source input): {}",
            if run.outputs[honest[0]] == value { "YES" } else { "NO (BUG!)" }
        );
    }
    let snap = metrics.snapshot();
    println!(
        "communication: {} bits = {:.2} x (n-1)L over {} rounds; diagnosis stages: {}",
        snap.total_logical_bits(),
        snap.total_logical_bits() as f64 / ((n - 1) * l * 8) as f64,
        snap.rounds(),
        run.reports[honest[0]].diagnosis_invocations,
    );
}

/// Converts the CLI's [`NetSpec`] into a [`SchedulingPolicy`], exiting
/// with a friendly message when the flags are inconsistent with `n`
/// (cluster sizes that don't sum to `n`, a `c<k>` island without a
/// clusters topology, out-of-range partition node ids, or wan latency on
/// a clique).
fn build_policy(n: usize, net: &NetSpec) -> SchedulingPolicy {
    if !net.is_event_driven() {
        return SchedulingPolicy::RoundBarrier;
    }
    let invalid = |msg: String| -> ! {
        eprintln!("invalid network flags: {msg}");
        std::process::exit(2);
    };
    let topology = match &net.topology {
        None | Some(TopologySpec::Clique) => Topology::Clique,
        Some(TopologySpec::Clusters(sizes)) => {
            if sizes.iter().sum::<usize>() != n {
                invalid(format!("cluster sizes {sizes:?} must sum to n = {n}"));
            }
            Topology::Clusters(sizes.clone())
        }
    };
    let link = match net.latency.unwrap_or(LatencySpec::Fixed(1)) {
        LatencySpec::Fixed(t) => LinkModel::Fixed(t),
        LatencySpec::Jitter { base, jitter } => LinkModel::UniformJitter { base, jitter },
        LatencySpec::Wan { intra, inter, jitter } => {
            if matches!(topology, Topology::Clique) {
                invalid("the wan latency model needs --topology clusters:<a,b,...>".into());
            }
            LinkModel::Wan { intra, inter, jitter }
        }
    };
    let mut model = NetModel::new(link, topology).with_seed(net.net_seed.unwrap_or(1));
    if let Some(p) = &net.partition {
        let behavior = if p.drop { PartitionBehavior::Drop } else { PartitionBehavior::Delay };
        let partition = match &p.island {
            IslandSpec::Cluster(c) => {
                let Topology::Clusters(sizes) = &model.topology else {
                    invalid(format!("island c{c} needs --topology clusters:<a,b,...>"));
                };
                if *c >= sizes.len() {
                    invalid(format!("island c{c} is out of range ({} cluster(s))", sizes.len()));
                }
                Partition::of_cluster(&model.topology, *c, p.start, p.heal, behavior)
            }
            IslandSpec::Nodes(ids) => {
                if let Some(bad) = ids.iter().find(|id| **id >= n) {
                    invalid(format!("partition node id {bad} is out of range (n = {n})"));
                }
                Partition { start: p.start, heal: p.heal, island: ids.clone(), behavior }
            }
        };
        model = model.with_partition(partition);
    }
    SchedulingPolicy::EventDriven(model)
}

#[allow(clippy::too_many_arguments)]
fn smr(
    n: usize,
    t: usize,
    slots: usize,
    batch: usize,
    batch_bytes: Option<usize>,
    seed: u64,
    attack: SmrAttack,
    byz: usize,
    pipeline: usize,
    net: NetSpec,
    report_path: Option<String>,
) {
    let policy = build_policy(n, &net);
    let mut cfg = match batch_bytes {
        Some(b) => SmrConfig::with_batch_bytes(n, t, slots, batch, b),
        None => SmrConfig::new(n, t, slots, batch),
    }
    .unwrap_or_else(|e| {
        eprintln!("invalid parameters: {e}");
        std::process::exit(2);
    })
    .with_pipeline(pipeline.max(1))
    .with_policy(policy.clone());
    if let Some(limit) = net.max_vtime {
        cfg = cfg.with_max_vtime(limit);
    }
    if byz >= n {
        eprintln!("invalid parameters: --byz {byz} is out of range");
        std::process::exit(2);
    }

    // Deterministic per-replica client streams: replica i proposes keys
    // from its own range on its primary turns.
    let per_replica = slots.div_ceil(n) * cfg.batch_capacity();
    let workloads = synthetic_workloads(n, per_replica, seed);

    let hooks: Vec<Box<dyn SmrHooks>> = (0..n)
        .map(|i| -> Box<dyn SmrHooks> {
            if i != byz {
                return HonestReplica::boxed();
            }
            match attack {
                SmrAttack::None => HonestReplica::boxed(),
                SmrAttack::Equivocate => Box::new(EquivocatingPrimary::default()),
                SmrAttack::Silent => Box::new(SilentPrimary),
            }
        })
        .collect();
    let faulty: Vec<usize> = match attack {
        SmrAttack::None => Vec::new(),
        _ => vec![byz],
    };

    // Telemetry (phase spans, latency histograms, link accounting) is
    // only worth recording when a report will be written.
    let metrics =
        if report_path.is_some() { MetricsSink::with_telemetry() } else { MetricsSink::new() };
    let run = simulate_smr(&cfg, workloads, hooks, metrics.clone());
    if let Some(path) = &report_path {
        let report = RunReport::build(&cfg, &run, &metrics);
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("report: run report written to {path}"),
            Err(e) => eprintln!("report: failed to write {path}: {e}"),
        }
    }

    println!(
        "smr: n = {n}, t = {t}, {slots} slot(s), batch = {} command(s) ({} bytes/slot, D = {} bytes), pipeline depth {}",
        cfg.batch_capacity(),
        cfg.slot_bytes(),
        cfg.resolved_gen_bytes(),
        cfg.pipeline,
    );
    println!("attack: {attack:?}; Byzantine replicas: {faulty:?}");
    if let SchedulingPolicy::EventDriven(model) = &policy {
        println!(
            "scheduling: event-driven ({:?} over {:?}, {} partition(s), jitter seed {})",
            model.link,
            model.topology,
            model.partitions.len(),
            model.seed,
        );
    }
    let honest: Vec<usize> = (0..n).filter(|i| !faulty.contains(i)).collect();
    let agreed = honest
        .windows(2)
        .all(|w| run.reports[w[0]].agreed_log() == run.reports[w[1]].agreed_log());
    println!("fault-free log agreement: {}", if agreed { "YES" } else { "NO (BUG!)" });
    let state_ok = honest.windows(2).all(|w| run.stores[w[0]] == run.stores[w[1]]);
    println!("fault-free state agreement: {}", if state_ok { "YES" } else { "NO (BUG!)" });
    let r = &run.reports[honest[0]];
    println!(
        "committed: {} command(s) over {} slot(s); fallback slots: {}; state digest: {:016x}",
        r.committed_commands,
        r.slots.len(),
        r.fallback_slots,
        r.digest,
    );
    println!("suspects (out of rotation): {:?}; isolated: {:?}", r.suspects, r.isolated);
    if cfg.pipeline > 1 {
        println!(
            "pipelining: {} slot attempt(s) discarded by dispute-state changes (committed log is identical to a sequential run)",
            r.restarts,
        );
    }
    let snap = metrics.snapshot();
    let bits = snap.total_logical_bits();
    println!(
        "communication: {} bits over {} rounds ({:.1} bits/command, {:.2} rounds/slot)",
        bits,
        snap.rounds(),
        bits as f64 / r.committed_commands.max(1) as f64,
        snap.rounds() as f64 / r.slots.len().max(1) as f64,
    );
    println!(
        "virtual time: {} tick(s) ({:.1} ticks/slot) under the {} policy",
        run.vtime,
        run.vtime as f64 / r.slots.len().max(1) as f64,
        policy.name(),
    );
    for s in r.slots.iter().take(8) {
        println!(
            "  slot {:>3}: primary {} -> {} command(s){}{}",
            s.slot,
            s.primary,
            s.committed.len(),
            if s.diagnosis_ran { ", diagnosis ran" } else { "" },
            if s.fallback { ", FELL BACK" } else { "" },
        );
    }
    if r.slots.len() > 8 {
        println!("  ... ({} more slots)", r.slots.len() - 8);
    }
}

/// Pretty-prints a `RunReport` JSON (from `smr --report`) or a network
/// trace CSV (from `consensus --trace`).
fn inspect(path: &str) {
    let text = read_input("inspect", path);
    if text.trim_start().starts_with("round,from,to") {
        inspect_trace_csv(path, &text);
        return;
    }
    match RunReport::from_json(&text) {
        Ok(report) => inspect_report(path, &report),
        Err(e) => {
            eprintln!("inspect: {path} is neither a run report nor a trace CSV: {e}");
            std::process::exit(2);
        }
    }
}

fn inspect_report(path: &str, r: &RunReport) {
    println!(
        "run report {path}: n = {}, t = {}, {} slot(s), batch = {}, pipeline depth {}, {} policy",
        r.n, r.t, r.slots, r.batch_commands, r.pipeline, r.policy,
    );
    println!(
        "committed: {} command(s) over {} round(s), final virtual time {} ({} fallback slot(s))",
        r.committed_commands, r.rounds, r.final_vtime, r.fallback_slots,
    );
    println!(
        "commit vtime (ticks): p50 {} / p90 {} / p99 {} / max {} over {} commit(s)",
        r.commit_vtime.p50, r.commit_vtime.p90, r.commit_vtime.p99, r.commit_vtime.max,
        r.commit_vtime.count,
    );
    println!(
        "commit gap   (ticks): p50 {} / p90 {} / p99 {} / max {}",
        r.commit_gap.p50, r.commit_gap.p90, r.commit_gap.p99, r.commit_gap.max,
    );
    if !r.phases.is_empty() {
        println!("\nphase shares (virtual time):");
        for p in &r.phases {
            let bar = "#".repeat((p.share_pct / 2.0).round() as usize);
            println!("  {:>10}  {:>6.2}%  {:>12} tick(s)  {bar}", p.phase, p.share_pct, p.vtime);
        }
    }
    if !r.timeline.is_empty() {
        println!("\nper-slot timeline:");
        println!("  slot  primary  commit_vtime  commands  rounds");
        for s in &r.timeline {
            println!(
                "  {:>4}  {:>7}  {:>12}  {:>8}  {:>6}{}",
                s.slot, s.primary, s.commit_vtime, s.commands, s.rounds,
                if s.fallback { "  FELL BACK" } else { "" },
            );
        }
    }
    if !r.nodes.is_empty() {
        println!("\ntop nodes by logical bits sent:");
        println!("  node  messages  logical_bits  payload_bytes");
        for n in &r.nodes {
            println!(
                "  {:>4}  {:>8}  {:>12}  {:>13}",
                n.node, n.messages, n.logical_bits, n.payload_bytes
            );
        }
    }
    if !r.links.is_empty() {
        println!("\nhot links by cumulative delivery delay:");
        println!("  link     messages  payload_bytes  total_delay  mean_delay");
        for l in &r.links {
            println!(
                "  {:>2}->{:<2}   {:>8}  {:>13}  {:>11}  {:>10.2}",
                l.from, l.to, l.messages, l.payload_bytes, l.total_delay, l.mean_delay
            );
        }
    }
    if r.queue_high_water > 0 {
        println!("\ndelivery-queue high-water mark: {} message(s)", r.queue_high_water);
    }
    for o in &r.outages {
        println!(
            "outage [{}, {}): {} crossing message(s) {}",
            o.start,
            o.heal,
            o.dropped + o.delayed,
            if o.behavior == "drop" { "dropped" } else { "delayed until heal" },
        );
    }
}

fn inspect_trace_csv(path: &str, text: &str) {
    // Aggregate the delivery log (round,from,to,tag,logical_bits,
    // payload_bytes,vtime) by sender and by link.
    let mut by_node: std::collections::BTreeMap<usize, (u64, u64, u64)> = Default::default();
    let mut by_link: std::collections::BTreeMap<(usize, usize), (u64, u64)> = Default::default();
    let mut rounds = 0u64;
    let mut deliveries = 0u64;
    for line in text.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() < 6 {
            continue;
        }
        let (Ok(round), Ok(from), Ok(to), Ok(bits), Ok(bytes)) = (
            cells[0].parse::<u64>(),
            cells[1].parse::<usize>(),
            cells[2].parse::<usize>(),
            cells[4].parse::<u64>(),
            cells[5].parse::<u64>(),
        ) else {
            continue;
        };
        rounds = rounds.max(round + 1);
        deliveries += 1;
        let node = by_node.entry(from).or_default();
        node.0 += 1;
        node.1 += bits;
        node.2 += bytes;
        let link = by_link.entry((from, to)).or_default();
        link.0 += 1;
        link.1 += bytes;
    }
    println!("trace {path}: {deliveries} delivery(ies) over {rounds} round(s)");
    println!("\nper-node activity (by sender):");
    println!("  node  messages  logical_bits  payload_bytes");
    for (node, (msgs, bits, bytes)) in &by_node {
        println!("  {node:>4}  {msgs:>8}  {bits:>12}  {bytes:>13}");
    }
    let mut links: Vec<_> = by_link.into_iter().collect();
    links.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
    println!("\nhot links by messages:");
    println!("  link     messages  payload_bytes");
    for ((from, to), (msgs, bytes)) in links.into_iter().take(8) {
        println!("  {from:>2}->{to:<2}   {msgs:>8}  {bytes:>13}");
    }
}

fn info(n: usize, t: usize, l: usize) {
    let Ok(cfg) = ConsensusConfig::new(n, t, l) else {
        eprintln!("invalid parameters (need t < n/3, n <= 65535, l >= 1)");
        std::process::exit(2);
    };
    let l_bits = (l * 8) as u64;
    let d_bits = cfg.resolved_gen_bytes() as u64 * 8;
    let b_pk = dsel::model_b_phase_king(n, t);
    let b_n2 = dsel::model_b_theta_n2(n);
    println!("parameters: n = {n}, t = {t}, L = {l_bits} bits");
    println!("code: (n, k) = ({n}, {}), distance {}", cfg.k(), 2 * t + 1);
    println!("Eq. (2) optimal D: {d_bits} bits ({} bytes, {} generations)", cfg.resolved_gen_bytes(), cfg.generations());
    println!("Eq. (3) linear coefficient n(n-1)/(n-2t): {:.2}", dsel::linear_coefficient(n, t));
    println!("Broadcast_Single_Bit cost B: {:.0} bits (Phase-King) / {:.0} (paper's 2n^2)", b_pk, b_n2);
    println!(
        "Eq. (1) failure-free model: {:.0} bits ({:.2} per value bit)",
        dsel::model_ccon_failure_free_bits(n, t, l_bits, d_bits, b_pk),
        dsel::model_ccon_failure_free_bits(n, t, l_bits, d_bits, b_pk) / l_bits as f64
    );
    println!(
        "Eq. (1) worst-case model:   {:.0} bits (includes t(t+1) = {} diagnosis stages)",
        dsel::model_ccon_bits(n, t, l_bits, d_bits, b_pk),
        t * (t + 1)
    );
    println!("\nBroadcast_Single_Bit substrates (--bsb; see §4):");
    println!("  phase-king    error-free, t < n/3, B = Θ(n²(t+1)), 1+3(t+1) rounds/batch");
    println!("  eig           error-free, t < n/3, B = Θ(n^(t+2)), 1+(t+1) rounds/batch");
    println!("  dolev-strong  idealised signatures, t < n at the broadcast layer, t+1 rounds/batch");
}
