//! Parent-side orchestration: repetitions in fresh child processes, the
//! correctness gate, medians, and the assembly of per-layer numbers from
//! the plain, telemetry, traced and probe children.

use std::collections::BTreeMap;
use std::time::Instant;

use mvbc_metrics::json::JsonValue;

use crate::catalog::MetricDef;
use crate::child::{spawn, Report, Task};
use crate::doc::{num, obj, text};
use crate::stats;
use crate::workloads::{Mode, Shape, Spec};

/// Set-up-only children run after every repetition: cheap (a few
/// milliseconds each) and all of one kind. A repetition's `setup_s` is
/// their median, so that, like every other metric, `setup_s` has one
/// value per repetition. (Process start-up is bimodal — the child lands
/// on the parent's warm CPU or on the idle one — and its level drifts
/// with the host's pace: one burst of children is one sample, not many.)
const SETUPS_PER_REP: usize = 21;

/// How long the end-to-end measurement of one workload goes on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Reps(usize),
    /// Repetitions start while the next one is expected to end within this
    /// many seconds of the start. `log_faulty`'s accounting child and the
    /// set-up samples count towards the seconds. One repetition always
    /// runs, however long: `log_n64`'s single wave takes 21 s on two cores.
    Seconds(f64),
}

/// One summarised metric: a value (with the repetitions behind it) or an
/// explicit "does not apply".
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Value { median: f64, values: Vec<f64> },
    NotApplicable(&'static str),
}

impl Cell {
    fn of(values: Vec<f64>) -> Cell {
        Cell::Value { median: stats::median(&values), values }
    }

    pub fn median(&self) -> Option<f64> {
        match self {
            Cell::Value { median, .. } => Some(*median),
            Cell::NotApplicable(_) => None,
        }
    }

    pub fn to_json(&self, unit: &str) -> JsonValue {
        match self {
            Cell::Value { median, values } => {
                let (min, max) = stats::min_max(values);
                obj([
                    ("unit", text(unit)),
                    ("median", num(*median)),
                    ("min", num(min)),
                    ("max", num(max)),
                    ("reps", num(values.len() as f64)),
                    ("values", JsonValue::Arr(values.iter().copied().map(num).collect())),
                ])
            }
            Cell::NotApplicable(reason) => {
                obj([("unit", text(unit)), ("value", JsonValue::Null), ("reason", text(reason))])
            }
        }
    }
}

/// What was measured on one workload.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub ops_per_rep: usize,
    /// Ops attempted and failed over every repetition.
    pub attempted: u64,
    pub failed_ops: u64,
    pub failures: Vec<String>,
    pub digest: String,
    pub cells: BTreeMap<String, Cell>,
    /// What a reader needs beside the cells: sample counts and the
    /// percentile a tail metric could support.
    pub notes: BTreeMap<&'static str, f64>,
}

impl Measured {
    fn absorb(&mut self, report: &Report, what: &str) {
        self.attempted += report.get("ops").unwrap_or(0.0) as u64;
        self.failed_ops += report.get("failed_ops").unwrap_or(0.0) as u64;
        self.failures.extend(report.failures.iter().map(|f| format!("{what}: {f}")));
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed_ops += ops;
        self.failures.push(why);
    }

    /// No op failed and every check held.
    pub fn passed(&self) -> bool {
        self.failed_ops == 0 && self.failures.is_empty()
    }

    pub fn to_json(&self, section: &str, defs: &[MetricDef]) -> JsonValue {
        let cells = defs
            .iter()
            .filter_map(|d| self.cells.get(&d.name).map(|c| (d.name.as_str(), c.to_json(&d.unit))));
        obj([
            ("ops", num(self.ops_per_rep as f64)),
            ("attempted", num(self.attempted as f64)),
            ("failed_ops", num(self.failed_ops as f64)),
            ("digest", text(&self.digest)),
            ("failures", JsonValue::Arr(self.failures.iter().map(|f| text(f)).collect())),
            ("notes", obj(self.notes.iter().map(|(&k, &v)| (k, num(v))))),
            (section, obj(cells)),
        ])
    }
}

/// What `run_scenario` and the accounting path both report: equal values
/// show that the two ran the same executions.
const SHARED_WITH_ACCOUNTING: [&str; 6] = [
    "ops",
    "rounds",
    "payload_bytes",
    "smr.restarts",
    "smr.fallback_slots",
    "diagnosis_invocations",
];

/// The end-to-end measurement of one workload: repetitions of the plain
/// path in fresh processes, tracing and telemetry off.
///
/// # Errors
///
/// Returns a description when a child cannot run to completion.
pub fn end_to_end(
    spec: &Spec,
    seed: u64,
    defs: &[MetricDef],
    budget: Budget,
) -> Result<Measured, String> {
    let started = Instant::now();
    let ops = spec.ops as u64;
    let mut measured = Measured { ops_per_rep: spec.ops, ..Measured::default() };

    // `run_scenario` keeps its sink to itself, so the logical bits and
    // commit times of `log_faulty` come from one accounting child that
    // runs the same scenarios with a sink of its own. Deterministic, so
    // once is enough.
    let accounting = match spec.shape {
        Shape::Faulty => Some(spawn(spec, seed, Task::Rep(Mode::Direct), None, 0)?),
        _ => None,
    };

    let mut reps: Vec<Report> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let rep_started = Instant::now();
        reps.push(spawn(spec, seed, Task::Rep(Mode::Plain), None, 0)?);
        let mut burst = Vec::with_capacity(SETUPS_PER_REP);
        for _ in 0..SETUPS_PER_REP {
            burst.push(spawn(spec, seed, Task::Setup, None, 0)?.require("setup_s"));
        }
        setups.push(stats::median(&burst));
        longest = longest.max(rep_started.elapsed().as_secs_f64());
        let more = match budget {
            Budget::Reps(n) => reps.len() < n,
            Budget::Seconds(limit) => started.elapsed().as_secs_f64() + longest <= limit,
        };
        if !more {
            break;
        }
    }

    for (i, rep) in reps.iter().enumerate() {
        measured.absorb(rep, &format!("repetition {i}"));
        if rep.digest != reps[0].digest {
            measured.fail(
                ops,
                format!("repetition {i}: digest {} differs from {}", rep.digest, reps[0].digest),
            );
        }
    }
    measured.digest = reps[0].digest.clone();
    if let Some(accounting) = &accounting {
        measured.absorb(accounting, "accounting pass");
        for key in SHARED_WITH_ACCOUNTING {
            if accounting.get(key) != reps[0].get(key) {
                measured.fail(
                    ops,
                    format!(
                        "accounting pass and run_scenario disagree on {key}: {:?} vs {:?}",
                        accounting.get(key),
                        reps[0].get(key)
                    ),
                );
            }
        }
    }

    let exact_source = accounting.as_ref().unwrap_or(&reps[0]);
    for note in ["commit_vticks_samples", "commit_vticks_tail_percentile"] {
        measured.notes.insert(note, exact_source.require(note));
    }
    for def in defs {
        let cell = if def.name == "setup_s" {
            Cell::of(setups.clone())
        } else if def.exact() {
            // Deterministic given the seed: every repetition that reports
            // the metric must agree.
            let value = exact_source.require(&def.name);
            if reps.iter().any(|r| r.get(&def.name).is_some_and(|v| v != value)) {
                measured.fail(ops, format!("{} differs between repetitions", def.name));
            }
            Cell::of(vec![value])
        } else {
            Cell::of(reps.iter().map(|r| r.require(&def.name)).collect())
        };
        measured.cells.insert(def.name.clone(), cell);
    }
    Ok(measured)
}

/// Encode, consistency-check and decode calls one generation costs,
/// summed over the n processors, on the fault-free path.
fn codec_calls_per_generation(shape: Shape, n: f64, t: f64) -> (f64, f64, f64) {
    match shape {
        // Every processor encodes its own input; the t outside P_match
        // check; everyone decodes.
        Shape::Consensus { .. } => (n, t, n),
        // The source encodes; everyone checks; all but the source decode.
        Shape::Log { .. } | Shape::Faulty => (1.0, n, n - 1.0),
    }
}

/// The traced measurement of one workload: one plain repetition (the
/// untraced reference), one with telemetry, one traced, and the probes.
///
/// # Errors
///
/// Returns a description when a child cannot run to completion.
pub fn per_layer(
    spec: &Spec,
    seed: u64,
    defs: &[MetricDef],
    trace_out: Option<&str>,
) -> Result<Measured, String> {
    let ops = spec.ops as u64;
    let mut measured = Measured { ops_per_rep: spec.ops, ..Measured::default() };
    let plain = spawn(spec, seed, Task::Rep(Mode::Plain), None, 0)?;
    measured.absorb(&plain, "plain");
    measured.digest = plain.digest.clone();
    // The observer ratios divide by a run on the same path with a plain
    // sink: the plain repetition itself, except on `log_faulty`.
    let base = match spec.shape {
        Shape::Faulty => {
            let direct = spawn(spec, seed, Task::Rep(Mode::Direct), None, 0)?;
            measured.absorb(&direct, "direct");
            direct
        }
        _ => plain.clone(),
    };
    let telemetry = spawn(spec, seed, Task::Rep(Mode::Telemetry), None, 0)?;
    measured.absorb(&telemetry, "telemetry");
    let traced = spawn(spec, seed, Task::Rep(Mode::Traced), trace_out, 0)?;
    measured.absorb(&traced, "traced");
    for (observed, what) in [(&telemetry, "telemetry"), (&traced, "traced")] {
        if observed.digest != base.digest {
            measured.fail(
                ops,
                format!(
                    "{what} run decided differently: digest {} vs {}",
                    observed.digest, base.digest
                ),
            );
        }
    }
    let msg_bytes = base.require("netsim.mean_msg_bytes").round() as usize;
    let probe = spawn(spec, seed, Task::Probe, None, msg_bytes)?;

    let (n, t) = match spec.shape {
        Shape::Log { n, t, .. } | Shape::Consensus { n, t, .. } => (n as f64, t as f64),
        Shape::Faulty => (probe.require("probe.n"), probe.require("probe.t")),
    };
    let ops_f = base.require("ops");
    let gens_key = if matches!(spec.shape, Shape::Consensus { .. }) {
        "core.generations_per_op"
    } else {
        "broadcast.generations_per_op"
    };
    let gens_per_op = traced.require(gens_key);
    let (enc, cons, dec) = codec_calls_per_generation(spec.shape, n, t);
    // Each diagnosis additionally re-encodes the claimed value everywhere.
    let diagnoses_per_op = plain.require("diagnosis_invocations") / ops_f;
    let codec_seconds_per_op = (gens_per_op
        * (enc * probe.require("rscode.encode_us")
            + cons * probe.require("rscode.consistent_us")
            + dec * probe.require("rscode.decode_us"))
        + diagnoses_per_op * n * probe.require("rscode.encode_us"))
        / 1e6;
    let cpu_seconds = plain.require("process.cpu_user_s") + plain.require("process.cpu_sys_s");

    let derived: BTreeMap<&str, Option<f64>> = BTreeMap::from([
        ("rscode.calls_per_op", Some(gens_per_op * (enc + cons + dec) + diagnoses_per_op * n)),
        (
            "rscode.cpu_share",
            Some(codec_seconds_per_op * plain.require("ops") / cpu_seconds.max(0.01)),
        ),
        (
            "netsim.skeleton_share",
            Some(
                probe.require("netsim.round_us_loaded") * base.require("rounds")
                    / (base.require("wall_s") * 1e6),
            ),
        ),
        ("metrics.telemetry_ratio", Some(telemetry.require("wall_s") / base.require("wall_s"))),
        ("metrics.trace_ratio", Some(traced.require("wall_s") / base.require("wall_s"))),
        ("smr.rounds_per_slot", Some(base.require("rounds") / ops_f)),
        ("broadcast.diagnosis_invocations", plain.get("diagnosis_invocations")),
        ("core.diagnosis_invocations", plain.get("diagnosis_invocations")),
        // Every failure of the plain `log_faulty` run is a scenario that
        // violated an invariant (or could not run).
        ("adversary.violations", Some(plain.failures.len() as f64)),
        (
            "baselines.fitzi_hirt_wall_ratio",
            probe
                .get("baselines.fitzi_hirt_wall_s")
                .map(|s| s / (plain.require("wall_s") / plain.require("ops"))),
        ),
        (
            "baselines.fitzi_hirt_bits_ratio",
            probe
                .get("baselines.fitzi_hirt_bits")
                .map(|b| b / (plain.require("logical_bits") / plain.require("ops"))),
        ),
    ]);

    for def in defs {
        if let Some(reason) = def.not_applicable(spec) {
            measured.cells.insert(def.name.clone(), Cell::NotApplicable(reason));
            continue;
        }
        // Derived first, then the probes, the plain repetition (process
        // accounting, counts) and, for what only spans and phases give,
        // the traced one.
        let value = derived
            .get(def.name.as_str())
            .copied()
            .flatten()
            .or_else(|| probe.get(&def.name))
            .or_else(|| plain.get(&def.name))
            .or_else(|| traced.get(&def.name));
        match value {
            Some(v) => {
                measured.cells.insert(def.name.clone(), Cell::of(vec![v]));
            }
            None => measured.fail(0, format!("per-layer metric {} was not produced", def.name)),
        }
    }
    Ok(measured)
}

/// The last line the contract asks for.
pub fn contract_line(measured: &Measured, defs: &[MetricDef]) -> String {
    let metrics = defs.iter().map(|d| {
        // The contract's line has no way to say "does not apply": such a
        // cell reads 0 there, and null with its reason in the result files.
        let value = measured.cells.get(&d.name).and_then(Cell::median).unwrap_or(0.0);
        (d.name.as_str(), obj([("value", num(value)), ("unit", text(&d.unit))]))
    });
    obj([
        ("correct", JsonValue::Bool(measured.passed())),
        ("attempted", num(measured.attempted.max(1) as f64)),
        ("failed", num(measured.failed_ops as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}

/// Prints every metric of one workload by name, with its unit.
pub fn print_metrics(workload: &str, measured: &Measured, defs: &[MetricDef]) {
    for def in defs {
        match measured.cells.get(&def.name) {
            Some(Cell::Value { median, values }) if values.len() > 1 => {
                let (min, max) = stats::min_max(values);
                println!(
                    "{workload:<15} {:<34} {median:>16.6} {:<8} (min {min:.6}, max {max:.6}, {} reps)",
                    def.name,
                    def.unit,
                    values.len()
                );
            }
            Some(Cell::Value { median, .. }) => {
                println!("{workload:<15} {:<34} {median:>16.6} {}", def.name, def.unit);
            }
            Some(Cell::NotApplicable(reason)) => {
                println!(
                    "{workload:<15} {:<34} {:>16} {:<8} ({reason})",
                    def.name, "null", def.unit
                );
            }
            None => println!("{workload:<15} {:<34} {:>16}", def.name, "MISSING"),
        }
    }
    println!(
        "{workload:<15} {:<34} {:>16} of {} ops (digest {})",
        "failed_ops", measured.failed_ops, measured.attempted, measured.digest
    );
    for failure in &measured.failures {
        println!("{workload:<15} FAILED: {failure}");
    }
}
