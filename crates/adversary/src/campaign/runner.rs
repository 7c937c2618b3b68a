//! Executing scenarios and machine-checking the paper's guarantees.
//!
//! [`run_scenario`] replays one [`Scenario`] through the replicated-log
//! engine under the event-driven network simulator and checks every
//! guarantee the Liang-Vaidya construction owes a model-preserving
//! environment: per-slot agreement and validity, committed-log prefix
//! consistency (a pipelined log commits exactly its depth-1 log),
//! honest-isolation safety (Lemma 4) and the global `t(t+2)` dispute
//! budget. [`CampaignRunner`] streams generated scenarios through it
//! and [`CampaignReport`] aggregates the results; emitting failing
//! scenarios to disk is the caller's job (the CLI and bench do it), so
//! this crate stays free of file IO.

use std::collections::BTreeMap;

use mvbc_metrics::MetricsSink;
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::{SchedulingPolicy, VirtualTime};
use mvbc_smr::{simulate_smr_traced, synthetic_workloads, SmrConfig, SmrReport};

use super::behavior::hooks_for;
use super::generator::ScenarioGenerator;
use super::scenario::{NetPlan, Scenario};

/// One failed invariant check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed (`agreement`, `validity`, `liveness`,
    /// `prefix`, `sequential-equivalence`, `honest-isolated`,
    /// `dispute-budget`).
    pub check: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    fn new(check: &'static str, detail: String) -> Self {
        Violation { check, detail }
    }
}

/// The machine-checked result of one scenario execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Every invariant violation found (empty = the run upheld all the
    /// paper's guarantees).
    pub violations: Vec<Violation>,
    /// FNV-1a digest of the committed log (agreement-relevant fields of
    /// every slot) — the replay-determinism fingerprint.
    pub log_digest: u64,
    /// Message-trace digest (see [`TraceSink::digest`]): pins the whole
    /// delivery schedule shape, not just the committed output.
    pub trace_digest: u64,
    /// Commands committed across the log (at the reference honest
    /// replica).
    pub committed_commands: u64,
    /// Slots that committed the agreed fallback (empty) batch.
    pub fallback_slots: u64,
    /// Total diagnosis-stage invocations across the whole log — the
    /// quantity the `t(t+2)` dispute budget bounds.
    pub diagnosis_total: u64,
    /// Pipelined slot attempts discarded by dispute-state changes.
    pub restarts: u64,
    /// Latest per-slot commit virtual time observed at the reference
    /// honest replica (worst-case commit latency of the run).
    pub max_commit_vtime: VirtualTime,
    /// Final virtual clock of the simulation.
    pub vtime: VirtualTime,
    /// Synchronous rounds the log consumed.
    pub rounds: u64,
}

/// The [`SmrConfig`] a scenario describes.
fn config_for(scenario: &Scenario) -> Result<SmrConfig, String> {
    let mut cfg = SmrConfig::new(scenario.n, scenario.t, scenario.slots, scenario.batch)
        .map_err(|e| format!("scenario {}: {e:?}", scenario.name))?
        .with_pipeline(scenario.pipeline)
        .with_policy(scenario.net.as_ref().map_or(SchedulingPolicy::RoundBarrier, NetPlan::policy));
    if let Some(limit) = scenario.max_vtime {
        cfg = cfg.with_max_vtime(limit);
    }
    Ok(cfg)
}

/// FNV-1a over the agreement-relevant fields of a committed log.
fn log_digest(report: &SmrReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_be_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for s in &report.slots {
        eat(s.slot);
        eat(s.primary as u64);
        eat(u64::from(s.fallback));
        eat(s.committed.len() as u64);
        for c in &s.committed {
            eat(u64::from(c.key));
            eat(u64::from(c.value));
        }
    }
    h
}

/// Executes `scenario` and machine-checks every guarantee of the
/// error-free model. For a model-preserving scenario any reported
/// violation is a protocol bug; for a non-model-preserving one (more
/// than `t` corruptions, drop partitions) violations are the *expected*
/// demonstration that the checker catches real damage.
///
/// # Errors
///
/// Returns the validation or configuration error of a structurally
/// broken scenario (a generated scenario never is).
pub fn run_scenario(scenario: &Scenario) -> Result<RunOutcome, String> {
    scenario.validate()?;
    let cfg = config_for(scenario)?;
    let per_replica = scenario.batch * scenario.slots;
    let workloads = synthetic_workloads(scenario.n, per_replica, scenario.seed);
    // Only the digest is read: fold it without keeping the events.
    let trace = TraceSink::digest_only();
    let run = simulate_smr_traced(
        &cfg,
        workloads.clone(),
        hooks_for(scenario),
        MetricsSink::new(),
        Some(trace.clone()),
    );

    let corrupted = scenario.byzantine();
    let honest: Vec<usize> = (0..scenario.n).filter(|i| !corrupted.contains(i)).collect();
    let reference = honest[0]; // validate() guarantees n - t >= 3 honest
    let mut violations = Vec::new();

    // Liveness: every honest replica committed every slot.
    for &h in &honest {
        let got = run.reports[h].slots.len();
        if got != scenario.slots {
            violations.push(Violation::new(
                "liveness",
                format!("replica {h} committed {got} of {} slots", scenario.slots),
            ));
        }
    }

    // Prefix consistency: the committed log is the contiguous slot
    // sequence 0, 1, 2, ... with no gap or reorder.
    for (i, s) in run.reports[reference].slots.iter().enumerate() {
        if s.slot != i as u64 {
            violations.push(Violation::new(
                "prefix",
                format!("position {i} of the log holds slot {}", s.slot),
            ));
        }
    }

    // Agreement: all honest replicas committed the same log and hold the
    // same state.
    for &h in &honest[1..] {
        if run.reports[h].agreed_log() != run.reports[reference].agreed_log() {
            violations.push(Violation::new(
                "agreement",
                format!("replicas {reference} and {h} committed different logs"),
            ));
        }
        if run.reports[h].digest != run.reports[reference].digest
            || run.stores[h] != run.stores[reference]
        {
            violations.push(Violation::new(
                "agreement",
                format!("replicas {reference} and {h} hold different state"),
            ));
        }
    }

    // Validity: what an honest primary's slots commit (fallbacks aside)
    // is a prefix of that primary's client stream, in order — framed
    // primaries re-queue, so no honest command is reordered or invented.
    for &p in &honest {
        let committed: Vec<_> = run.reports[reference]
            .slots
            .iter()
            .filter(|s| s.primary == p && !s.fallback)
            .flat_map(|s| s.committed.iter().copied())
            .collect();
        if committed != workloads[p][..committed.len().min(workloads[p].len())]
            || committed.len() > workloads[p].len()
        {
            violations.push(Violation::new(
                "validity",
                format!("honest primary {p}'s committed commands are not a prefix of its stream"),
            ));
        }
    }

    // Lemma 4 safety: only faulty replicas are ever isolated.
    for &h in &honest {
        for &iso in &run.reports[h].isolated {
            if !corrupted.contains(&iso) {
                violations.push(Violation::new(
                    "honest-isolated",
                    format!("replica {h} isolated fault-free replica {iso}"),
                ));
            }
        }
    }

    // Global dispute budget: the diagnosis graph persists across the
    // log, so total diagnosis invocations are bounded by t(t+2).
    let diagnosis_total: u64 = run.reports[reference]
        .slots
        .iter()
        .map(|s| s.diagnosis_invocations)
        .sum();
    let budget = (scenario.t * (scenario.t + 2)) as u64;
    if diagnosis_total > budget {
        violations.push(Violation::new(
            "dispute-budget",
            format!("{diagnosis_total} diagnosis invocations exceed t(t+2) = {budget}"),
        ));
    }

    // Sequential equivalence: a log at depth W > 1 must commit exactly
    // the log the same engine commits at depth 1.
    if scenario.pipeline > 1 {
        let seq_cfg = config_for(&Scenario { pipeline: 1, ..scenario.clone() })?;
        let seq = simulate_smr_traced(
            &seq_cfg,
            workloads,
            hooks_for(scenario),
            MetricsSink::new(),
            None,
        );
        if seq.reports[reference].agreed_log() != run.reports[reference].agreed_log() {
            violations.push(Violation::new(
                "sequential-equivalence",
                format!("pipeline = {} commits a different log than sequential", scenario.pipeline),
            ));
        }
    }

    let reference_report = &run.reports[reference];
    Ok(RunOutcome {
        violations,
        log_digest: log_digest(reference_report),
        trace_digest: trace.digest(),
        committed_commands: reference_report.committed_commands,
        fallback_slots: reference_report.fallback_slots,
        diagnosis_total,
        restarts: reference_report.restarts,
        max_commit_vtime: reference_report
            .slots
            .iter()
            .map(|s| s.commit_vtime)
            .max()
            .unwrap_or(0),
        vtime: run.vtime,
        rounds: run.rounds,
    })
}

/// One executed campaign draw.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The scenario that ran (serialize with [`Scenario::to_json`] to
    /// emit a replayable failure artifact).
    pub scenario: Scenario,
    /// Its machine-checked outcome.
    pub outcome: RunOutcome,
}

/// Streams bounded-random scenarios from a seeded generator through the
/// invariant checker.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    generator: ScenarioGenerator,
}

impl CampaignRunner {
    /// A campaign whose draw sequence is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        CampaignRunner { generator: ScenarioGenerator::new(seed) }
    }

    /// Draws and executes the next scenario.
    pub fn next_run(&mut self) -> CampaignRun {
        let scenario = self.generator.next_scenario();
        let outcome = run_scenario(&scenario)
            .unwrap_or_else(|e| panic!("generated scenario {} failed to run: {e}", scenario.name));
        CampaignRun { scenario, outcome }
    }
}

/// Aggregated campaign statistics.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Scenarios executed.
    pub scenarios: u64,
    /// Total invariant violations across all runs.
    pub violations: u64,
    /// Names of the scenarios that violated an invariant.
    pub failed: Vec<String>,
    /// How often each behaviour kind appeared across all corruption
    /// timelines.
    pub behavior_mix: BTreeMap<String, u64>,
    /// Slots committed across all runs.
    pub total_slots: u64,
    /// Commands committed across all runs.
    pub total_commands: u64,
    /// Diagnosis invocations across all runs.
    pub total_diagnosis: u64,
    /// Worst per-slot commit virtual time seen in any run.
    pub worst_commit_vtime: VirtualTime,
}

impl CampaignReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one executed run into the statistics.
    pub fn absorb(&mut self, run: &CampaignRun) {
        self.scenarios += 1;
        self.violations += run.outcome.violations.len() as u64;
        if !run.outcome.violations.is_empty() {
            self.failed.push(run.scenario.name.clone());
        }
        for c in &run.scenario.corruptions {
            *self.behavior_mix.entry(c.behavior.kind().to_owned()).or_insert(0) += 1;
        }
        self.total_slots += run.scenario.slots as u64;
        self.total_commands += run.outcome.committed_commands;
        self.total_diagnosis += run.outcome.diagnosis_total;
        self.worst_commit_vtime = self.worst_commit_vtime.max(run.outcome.max_commit_vtime);
    }
}

#[cfg(test)]
mod tests {
    use super::super::scenario::{Behavior, Corruption};
    use super::*;

    fn honest_scenario() -> Scenario {
        Scenario {
            name: "honest".to_owned(),
            seed: 5,
            n: 4,
            t: 1,
            slots: 4,
            batch: 2,
            pipeline: 1,
            max_vtime: None,
            net: None,
            corruptions: Vec::new(),
        }
    }

    #[test]
    fn honest_run_upholds_every_invariant() {
        let out = run_scenario(&honest_scenario()).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.committed_commands > 0);
        assert_eq!(out.diagnosis_total, 0);
    }

    #[test]
    fn replay_is_deterministic() {
        let mut s = honest_scenario();
        s.corruptions.push(Corruption {
            replica: 1,
            from_slot: 0,
            until_slot: None,
            behavior: Behavior::Equivocate,
        });
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        assert_eq!(a, b, "same scenario, same outcome");
        assert!(a.violations.is_empty());
        assert!(a.diagnosis_total >= 1, "the equivocation forced diagnosis");
    }

    #[test]
    fn equivocator_burns_budget_but_stays_within_it() {
        let mut s = honest_scenario();
        s.slots = 8;
        s.corruptions.push(Corruption {
            replica: 2,
            from_slot: 0,
            until_slot: None,
            behavior: Behavior::Equivocate,
        });
        let out = run_scenario(&s).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.diagnosis_total <= (s.t * (s.t + 2)) as u64);
        assert!(out.fallback_slots >= 1);
    }

    #[test]
    fn campaign_runner_aggregates() {
        let mut runner = CampaignRunner::new(123);
        let mut report = CampaignReport::new();
        for _ in 0..3 {
            report.absorb(&runner.next_run());
        }
        assert_eq!(report.scenarios, 3);
        assert!(report.total_slots >= 18, "at least 6 slots per draw");
        assert!(!report.behavior_mix.is_empty());
    }

    /// `run_scenario`'s digest-only trace against a full sink over the
    /// same run.
    fn assert_digest_matches_a_full_trace(scenario: &Scenario) {
        let outcome = run_scenario(scenario).unwrap();
        let full = TraceSink::new();
        let cfg = config_for(scenario).unwrap();
        let workloads = synthetic_workloads(scenario.n, scenario.batch * scenario.slots, scenario.seed);
        simulate_smr_traced(&cfg, workloads, hooks_for(scenario), MetricsSink::new(), Some(full.clone()));
        assert!(!full.is_empty(), "{}: the full sink keeps its events", scenario.name);
        assert_eq!(outcome.trace_digest, full.digest(), "{}", scenario.name);
    }

    #[test]
    fn digest_only_trace_matches_a_full_trace() {
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/known_bad_drop_partition.json"
        );
        let known_bad = Scenario::from_json(&std::fs::read_to_string(fixture).unwrap()).unwrap();
        assert_digest_matches_a_full_trace(&known_bad);
        assert_digest_matches_a_full_trace(&ScenarioGenerator::new(11).next_scenario());
    }
}
