//! Command execution: run the simulations and print human-oriented
//! summaries.

use std::fmt;
use std::io::Read as _;

use mvbc_adversary::campaign::{run_scenario, CampaignReport, CampaignRunner, NetPlan, Scenario};
use mvbc_adversary::{CorruptSymbolTo, RandomAdversary, Silent, WorstCaseDiagnosis};
use mvbc_bsb::{BsbDriver, DolevStrongDriver, EigDriver, PhaseKingDriver};
use mvbc_broadcast::attacks::{EquivocatingSource, LyingEcho, SilentSource};
use mvbc_broadcast::{
    simulate_broadcast, BroadcastConfig, BroadcastHooks, BroadcastReport, NoopBroadcastHooks,
};
use mvbc_core::{
    dsel, rerun_bound, simulate_consensus_traced, ConsensusConfig, EngineReport, NoopHooks,
    ProtocolHooks, GENERATION_WINDOW,
};
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::SchedulingPolicy;
use mvbc_metrics::MetricsSink;
use mvbc_smr::{
    simulate_smr, synthetic_workloads, EquivocatingPrimary, HonestReplica, KvStore, RunReport,
    SilentPrimary, SmrConfig, SmrHooks, SmrReport,
};

use crate::args::{
    BroadcastAttack, BsbChoice, Command, ConsensusAttack, SmrAttack, MAX_INPUT_BYTES,
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

/// The error for an `--attack` other than `none` at `t = 0`: the model
/// then admits no Byzantine processor, so a violation under the attack
/// would blame the protocol for a fault outside its bound.
fn attack_outside_model<A: fmt::Debug + PartialEq>(t: usize, attack: A, none: A) -> Option<String> {
    (t == 0 && attack != none).then(|| {
        format!(
            "invalid parameters: --attack {attack:?} corrupts a processor, but t = 0 admits \
             none (the model tolerates at most t Byzantine processors)"
        )
    })
}

/// Exits 2 with [`attack_outside_model`]'s error, if there is one.
fn refuse_attack_outside_model<A: fmt::Debug + PartialEq>(t: usize, attack: A, none: A) {
    if let Some(e) = attack_outside_model(t, attack, none) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// The communication cost as a multiple of the naive `(n-1)L` bits
/// (the source sending every peer the value); `None` when there is no
/// peer to send to.
fn over_naive_broadcast(bits: u64, n: usize, l: usize) -> Option<f64> {
    let naive = (n - 1) * l * 8;
    (naive > 0).then(|| bits as f64 / naive as f64)
}

/// Reads the text file at `path` for subcommand `sub`, refusing one
/// larger than [`MAX_INPUT_BYTES`] before allocating for it. Exits with
/// status 2 on any failure.
/// The window line of `consensus` and `broadcast`: windows run, of up to
/// `width` generations after a first probe when `probe_first`, and the
/// generations discarded after a diagnosis and run again.
fn window_line(windows: usize, probe_first: bool, width: usize, rerun: usize) -> String {
    let probe = if probe_first { "a probe generation, then " } else { "" };
    format!("windows: {windows} ({probe}up to {width} at a time); generations rerun: {rerun}")
}

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
            max_vtime,
            report,
        } => smr(n, t, slots, batch, batch_bytes, seed, attack, byz, pipeline, net, max_vtime, report),
        Command::Inspect { path } => inspect(&path),
        Command::Info { n, t, l } => info(n, t, l),
        Command::SmrSoak { runs, seed, scenario, emit_failures } => {
            smr_soak(runs, seed, scenario, &emit_failures)
        }
    }
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
    refuse_attack_outside_model(t, attack, ConsensusAttack::None);

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
            let team: Vec<usize> = (0..t).collect();
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
    let violations = consensus_violations(t, &inputs, differing, &honest, &run.reports);
    let agreed = !violations.contains(&Violation::Disagreement);
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
    println!("{}", window_line(report.windows, false, cfg.window(), report.generations_rerun));
    let snap = metrics.snapshot();
    println!(
        "communication: {} bits over {} rounds ({:.2} bits per value bit; Eq. (3) coefficient {:.2})",
        snap.total_logical_bits(),
        snap.rounds(),
        snap.total_logical_bits() as f64 / (l * 8) as f64,
        dsel::linear_coefficient(n, t),
    );
    println!("\nper-stage breakdown:\n{}", snap.to_markdown());
    exit_on_violations(&violations);
}

/// A property a consensus, broadcast or log execution broke at its
/// honest nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Violation {
    /// Two honest nodes decided (or delivered) different values.
    Disagreement,
    /// Honest inputs were common (and not `--differing`), yet an honest
    /// node decided something else.
    Validity,
    /// The broadcast source was honest, yet an honest node delivered
    /// something other than its input.
    SourceValidity,
    /// An honest node ran more diagnosis stages than Theorem 1's
    /// `t(t+1)`.
    DiagnosisBound,
    /// An honest node ran more diagnosis stages than the `t(t+2)`
    /// dispute budget of a broadcast, or of a whole log.
    DisputeBudget,
    /// An honest node isolated an honest node.
    HonestIsolated,
    /// Two honest replicas committed different logs.
    LogDisagreement,
    /// Two honest replicas ended in different states.
    StateDisagreement,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Violation::Disagreement => "honest nodes decided different values",
            Violation::Validity => "honest nodes shared an input but decided another value",
            Violation::SourceValidity => "honest nodes delivered other than the honest source's input",
            Violation::DiagnosisBound => "diagnosis stages exceed Theorem 1's t(t+1)",
            Violation::DisputeBudget => "diagnosis stages exceed the t(t+2) dispute budget",
            Violation::HonestIsolated => "an honest node was isolated",
            Violation::LogDisagreement => "honest replicas committed different logs",
            Violation::StateDisagreement => "honest replicas hold different states",
        })
    }
}

/// Prints every violation as a `VIOLATION:` line and exits 1, or
/// returns when there is none.
fn exit_on_violations(violations: &[Violation]) {
    if !violations.is_empty() {
        for v in violations {
            println!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}

/// The properties the honest nodes' `reports` violate, in declaration
/// order; empty for a correct run. `inputs` holds every node's input.
fn consensus_violations(
    t: usize,
    inputs: &[Vec<u8>],
    differing: bool,
    honest: &[usize],
    reports: &[EngineReport],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if honest.windows(2).any(|w| reports[w[0]].output != reports[w[1]].output) {
        violations.push(Violation::Disagreement);
    }
    let common_input = honest.windows(2).all(|w| inputs[w[0]] == inputs[w[1]]);
    if !differing
        && common_input
        && honest.iter().any(|&i| reports[i].output != inputs[honest[0]])
    {
        violations.push(Violation::Validity);
    }
    if honest.iter().any(|&i| reports[i].diagnosis_invocations > (t * (t + 1)) as u64) {
        violations.push(Violation::DiagnosisBound);
    }
    if honest.iter().any(|&i| reports[i].isolated.iter().any(|v| honest.contains(v))) {
        violations.push(Violation::HonestIsolated);
    }
    violations
}

/// The broadcast properties the honest nodes' `reports` violate —
/// agreement, source validity, honest isolation, the dispute budget, in
/// that order; empty for a correct run. `value` is the source's input
/// when the source is honest.
fn broadcast_violations(
    t: usize,
    value: Option<&[u8]>,
    honest: &[usize],
    reports: &[BroadcastReport],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if honest.windows(2).any(|w| reports[w[0]].output != reports[w[1]].output) {
        violations.push(Violation::Disagreement);
    }
    if value.is_some_and(|v| honest.iter().any(|&i| reports[i].output != v)) {
        violations.push(Violation::SourceValidity);
    }
    if honest.iter().any(|&i| reports[i].isolated.iter().any(|v| honest.contains(v))) {
        violations.push(Violation::HonestIsolated);
    }
    if honest.iter().any(|&i| reports[i].diagnosis_invocations > (t * (t + 2)) as u64) {
        violations.push(Violation::DisputeBudget);
    }
    violations
}

/// The log properties the honest replicas' `reports` and `stores`
/// violate — log agreement, state agreement, honest isolation, the
/// log-wide dispute budget over every committed slot's diagnoses, in
/// that order; empty for a correct run.
fn smr_violations(
    t: usize,
    honest: &[usize],
    reports: &[SmrReport],
    stores: &[KvStore],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if honest.windows(2).any(|w| reports[w[0]].agreed_log() != reports[w[1]].agreed_log()) {
        violations.push(Violation::LogDisagreement);
    }
    if honest.windows(2).any(|w| stores[w[0]] != stores[w[1]]) {
        violations.push(Violation::StateDisagreement);
    }
    if honest.iter().any(|&i| reports[i].isolated.iter().any(|v| honest.contains(v))) {
        violations.push(Violation::HonestIsolated);
    }
    if honest.iter().any(|&i| {
        let diagnoses: u64 = reports[i].slots.iter().map(|s| s.diagnosis_invocations).sum();
        diagnoses > (t * (t + 2)) as u64
    }) {
        violations.push(Violation::DisputeBudget);
    }
    violations
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
    refuse_attack_outside_model(t, attack, BroadcastAttack::None);

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
    let source_honest = !faulty.contains(&source);
    let violations = broadcast_violations(
        t,
        source_honest.then_some(value.as_slice()),
        &honest,
        &run.reports,
    );
    let agreed = !violations.contains(&Violation::Disagreement);
    println!("fault-free agreement: {}", if agreed { "YES" } else { "NO (BUG!)" });
    if source_honest {
        let valid = !violations.contains(&Violation::SourceValidity);
        println!("validity (delivered == source input): {}", if valid { "YES" } else { "NO (BUG!)" });
    }
    let snap = metrics.snapshot();
    let ratio = over_naive_broadcast(snap.total_logical_bits(), n, l)
        .map_or_else(String::new, |r| format!(" = {r:.2} x (n-1)L"));
    let report = &run.reports[honest[0]];
    println!("{}", window_line(report.windows, true, cfg.window(), report.generations_rerun));
    println!(
        "communication: {} bits{ratio} over {} rounds; diagnosis stages: {}",
        snap.total_logical_bits(),
        snap.rounds(),
        report.diagnosis_invocations,
    );
    exit_on_violations(&violations);
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
    net: Option<NetPlan>,
    max_vtime: Option<u64>,
    report_path: Option<String>,
) {
    let policy = net.as_ref().map_or(SchedulingPolicy::RoundBarrier, NetPlan::policy);
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
    if let Some(limit) = max_vtime {
        cfg = cfg.with_max_vtime(limit);
    }
    if byz >= n {
        eprintln!("invalid parameters: --byz {byz} is out of range");
        std::process::exit(2);
    }
    refuse_attack_outside_model(t, attack, SmrAttack::None);

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
    let violations = smr_violations(t, &honest, &run.reports, &run.stores);
    let agreed = !violations.contains(&Violation::LogDisagreement);
    println!("fault-free log agreement: {}", if agreed { "YES" } else { "NO (BUG!)" });
    let state_ok = !violations.contains(&Violation::StateDisagreement);
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
    exit_on_violations(&violations);
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
        "Eq. (1) worst-case model:   {:.0} bits (includes t(t+1) = {} diagnosis stages \
         and at most {} generations rerun)",
        dsel::model_ccon_bits(n, t, l_bits, d_bits, b_pk),
        t * (t + 1),
        if t == 0 { 0 } else { rerun_bound(GENERATION_WINDOW) }
    );
    println!("\nBroadcast_Single_Bit substrates (--bsb; see §4):");
    println!("  phase-king    error-free, t < n/3, B = Θ(n²(t+1)), 1+3(t+1) rounds/batch");
    println!("  eig           error-free, t < n/3, B = Θ(n^(t+2)), 1+(t+1) rounds/batch");
    println!("  dolev-strong  idealised signatures, t < n at the broadcast layer, t+1 rounds/batch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvbc_smr::{Command, SlotReport, StateMachine};

    /// Four nodes, node 3 faulty; every honest node decides `[7; 4]`
    /// from the common input `[7; 4]` after one diagnosis that isolated
    /// node 3.
    fn clean() -> (Vec<Vec<u8>>, Vec<EngineReport>) {
        let inputs = vec![vec![7u8; 4]; 4];
        let report = EngineReport {
            output: vec![7; 4],
            diagnosis_invocations: 1,
            generations_completed: 2,
            windows: 2,
            generations_rerun: 0,
            defaulted: false,
            isolated: vec![3],
            edges_removed: 3,
        };
        (inputs, vec![report; 4])
    }

    const HONEST: [usize; 3] = [0, 1, 2];

    #[test]
    fn a_clean_run_violates_nothing() {
        let (inputs, reports) = clean();
        assert!(consensus_violations(1, &inputs, false, &HONEST, &reports).is_empty());
        // The faulty node's report does not count.
        let mut reports = reports;
        reports[3].output = vec![0; 4];
        reports[3].diagnosis_invocations = 99;
        reports[3].isolated = vec![0, 1];
        assert!(consensus_violations(1, &inputs, false, &HONEST, &reports).is_empty());
    }

    #[test]
    fn disagreement_alone() {
        // Differing inputs: validity has nothing to say.
        let (mut inputs, mut reports) = clean();
        inputs[1] = vec![8; 4];
        reports[2].output = vec![0; 4];
        assert_eq!(
            consensus_violations(1, &inputs, true, &HONEST, &reports),
            vec![Violation::Disagreement]
        );
    }

    #[test]
    fn validity_alone() {
        let (inputs, mut reports) = clean();
        for r in &mut reports[..3] {
            r.output = vec![0; 4];
        }
        assert_eq!(
            consensus_violations(1, &inputs, false, &HONEST, &reports),
            vec![Violation::Validity]
        );
        // `--differing` waives validity.
        assert!(consensus_violations(1, &inputs, true, &HONEST, &reports).is_empty());
    }

    #[test]
    fn diagnosis_bound_alone() {
        let (inputs, mut reports) = clean();
        reports[1].diagnosis_invocations = 3; // t(t+1) = 2 at t = 1
        assert_eq!(
            consensus_violations(1, &inputs, false, &HONEST, &reports),
            vec![Violation::DiagnosisBound]
        );
    }

    #[test]
    fn honest_isolated_alone() {
        let (inputs, mut reports) = clean();
        reports[0].isolated = vec![2, 3];
        assert_eq!(
            consensus_violations(1, &inputs, false, &HONEST, &reports),
            vec![Violation::HonestIsolated]
        );
    }

    /// Four broadcast nodes, node 3 faulty, source 0 honest: every
    /// honest node delivers `[5; 4]` after one diagnosis that isolated
    /// node 3.
    fn clean_broadcast() -> (Vec<u8>, Vec<BroadcastReport>) {
        let report = BroadcastReport {
            output: vec![5; 4],
            diagnosis_invocations: 1,
            windows: 2,
            generations_rerun: 0,
            defaulted: false,
            isolated: vec![3],
            edges_removed: 3,
        };
        (vec![5; 4], vec![report; 4])
    }

    #[test]
    fn a_clean_broadcast_violates_nothing() {
        let (value, mut reports) = clean_broadcast();
        assert!(broadcast_violations(1, Some(&value), &HONEST, &reports).is_empty());
        reports[3].output = vec![0; 4];
        reports[3].diagnosis_invocations = 99;
        reports[3].isolated = vec![0];
        assert!(broadcast_violations(1, Some(&value), &HONEST, &reports).is_empty());
    }

    #[test]
    fn broadcast_disagreement_alone() {
        let (_, mut reports) = clean_broadcast();
        reports[1].output = vec![6; 4];
        // A faulty source: validity has nothing to say.
        assert_eq!(
            broadcast_violations(1, None, &HONEST, &reports),
            vec![Violation::Disagreement]
        );
    }

    #[test]
    fn broadcast_source_validity_alone() {
        let (value, mut reports) = clean_broadcast();
        for r in &mut reports[..3] {
            r.output = vec![0; 4];
        }
        assert_eq!(
            broadcast_violations(1, Some(&value), &HONEST, &reports),
            vec![Violation::SourceValidity]
        );
        assert!(broadcast_violations(1, None, &HONEST, &reports).is_empty());
    }

    #[test]
    fn broadcast_honest_isolated_alone() {
        let (value, mut reports) = clean_broadcast();
        reports[2].isolated = vec![1, 3];
        assert_eq!(
            broadcast_violations(1, Some(&value), &HONEST, &reports),
            vec![Violation::HonestIsolated]
        );
    }

    #[test]
    fn broadcast_dispute_budget_alone() {
        let (value, mut reports) = clean_broadcast();
        reports[0].diagnosis_invocations = 3;
        assert!(broadcast_violations(1, Some(&value), &HONEST, &reports).is_empty());
        reports[0].diagnosis_invocations = 4; // t(t+2) = 3 at t = 1
        assert_eq!(
            broadcast_violations(1, Some(&value), &HONEST, &reports),
            vec![Violation::DisputeBudget]
        );
    }

    /// Four replicas, replica 3 faulty: every honest replica committed
    /// one command in slot 0 and a fallback in slot 1 (one diagnosis
    /// each), and isolated replica 3.
    fn clean_log() -> (Vec<SmrReport>, Vec<KvStore>) {
        let command = Command { key: 1, value: 10 };
        let mut store = KvStore::default();
        store.apply_batch(&[command]);
        let mut slots = vec![SlotReport::degraded(0, 0, 9), SlotReport::degraded(1, 3, 18)];
        slots[0].committed = vec![command];
        slots[0].fallback = false;
        for s in &mut slots {
            s.diagnosis_ran = true;
            s.diagnosis_invocations = 1;
        }
        let report = SmrReport {
            slots,
            digest: store.digest(),
            committed_commands: 1,
            fallback_slots: 1,
            isolated: vec![3],
            suspects: vec![3],
            restarts: 0,
        };
        (vec![report; 4], vec![store; 4])
    }

    #[test]
    fn a_clean_log_violates_nothing() {
        let (mut reports, mut stores) = clean_log();
        assert!(smr_violations(1, &HONEST, &reports, &stores).is_empty());
        reports[3].slots.clear();
        reports[3].isolated = vec![0];
        stores[3] = KvStore::default();
        assert!(smr_violations(1, &HONEST, &reports, &stores).is_empty());
    }

    #[test]
    fn log_disagreement_alone() {
        let (mut reports, stores) = clean_log();
        reports[1].slots[1].primary = 2;
        assert_eq!(
            smr_violations(1, &HONEST, &reports, &stores),
            vec![Violation::LogDisagreement]
        );
    }

    #[test]
    fn state_disagreement_alone() {
        let (reports, mut stores) = clean_log();
        stores[2].apply_batch(&[Command { key: 2, value: 20 }]);
        assert_eq!(
            smr_violations(1, &HONEST, &reports, &stores),
            vec![Violation::StateDisagreement]
        );
    }

    #[test]
    fn log_honest_isolated_alone() {
        let (mut reports, stores) = clean_log();
        reports[0].isolated = vec![1, 3];
        assert_eq!(
            smr_violations(1, &HONEST, &reports, &stores),
            vec![Violation::HonestIsolated]
        );
    }

    #[test]
    fn log_dispute_budget_counts_every_slot() {
        // Two diagnoses per replica are within t(t+2) = 3; a third slot
        // diagnosis at one replica is not, though no slot alone exceeds it.
        let (mut reports, stores) = clean_log();
        reports[1].slots[0].diagnosis_invocations = 2;
        assert!(smr_violations(1, &HONEST, &reports, &stores).is_empty());
        reports[1].slots[1].diagnosis_invocations = 2;
        assert_eq!(
            smr_violations(1, &HONEST, &reports, &stores),
            vec![Violation::DisputeBudget]
        );
    }

    #[test]
    fn consensus_refuses_an_attack_at_t0() {
        use ConsensusAttack::*;
        for attack in [Silent, Corrupt, Random, WorstCase] {
            let e = attack_outside_model(0, attack, None).expect("refused");
            assert!(e.contains("t = 0") && e.contains(&format!("{attack:?}")), "{e}");
            assert_eq!(attack_outside_model(1, attack, None), Option::None);
        }
        assert_eq!(attack_outside_model(0, None, None), Option::None);
    }

    #[test]
    fn broadcast_refuses_an_attack_at_t0() {
        use BroadcastAttack::*;
        for attack in [Equivocate, SilentSource, LyingEcho] {
            assert!(attack_outside_model(0, attack, None).is_some(), "{attack:?}");
            assert_eq!(attack_outside_model(1, attack, None), Option::None);
        }
        assert_eq!(attack_outside_model(0, None, None), Option::None);
    }

    #[test]
    fn smr_refuses_an_attack_at_t0() {
        use SmrAttack::*;
        for attack in [Equivocate, Silent] {
            assert!(attack_outside_model(0, attack, None).is_some(), "{attack:?}");
            assert_eq!(attack_outside_model(1, attack, None), Option::None);
        }
        assert_eq!(attack_outside_model(0, None, None), Option::None);
    }

    #[test]
    fn a_lone_broadcast_source_has_no_naive_ratio() {
        assert_eq!(over_naive_broadcast(0, 1, 8), None);
        assert_eq!(over_naive_broadcast(160, 2, 8), Some(2.5));
    }
}
