//! One repetition = one fresh child process, so process-wide caches, the
//! lane pool and `VmHWM` never leak between repetitions. The parent
//! spawns this same executable with the hidden `child` subcommand and
//! reads back one JSON line of named numbers.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use mvbc_metrics::json::{parse_json, JsonValue};

use crate::doc::{num, obj, text};
use crate::layers;
use crate::probes;
use crate::procfs;
use crate::spans::Collector;
use crate::stats;
use crate::workloads::{execute, prepare, Mode, Spec};

/// What a child is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// One repetition of the workload, observed as `Mode` says.
    Rep(Mode),
    /// Set-up only: synthesise inputs and configuration, then exit.
    Setup,
    /// The standalone layer probes at this workload's parameters.
    Probe,
}

impl Task {
    fn name(self) -> &'static str {
        match self {
            Task::Rep(mode) => mode.name(),
            Task::Setup => "setup",
            Task::Probe => "probe",
        }
    }

    pub fn parse(s: &str) -> Option<Task> {
        match s {
            "setup" => Some(Task::Setup),
            "probe" => Some(Task::Probe),
            other => Mode::parse(other).map(Task::Rep),
        }
    }
}

/// The numbers one child reported, by name; `None` is an explicit
/// "does not apply".
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub values: BTreeMap<String, Option<f64>>,
    pub digest: String,
    pub failures: Vec<String>,
}

impl Report {
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied().flatten()
    }

    /// A value every repetition reports.
    pub fn require(&self, key: &str) -> f64 {
        self.get(key).unwrap_or_else(|| panic!("child report lacks `{key}`"))
    }

    fn set(&mut self, key: &str, value: f64) {
        self.set_opt(key, Some(value));
    }

    /// Non-finite values (a ratio over zero) have no JSON form: they are
    /// reported as absent.
    fn set_opt(&mut self, key: &str, value: Option<f64>) {
        self.values.insert(key.to_owned(), value.filter(|v| v.is_finite()));
    }

    fn to_json(&self) -> JsonValue {
        let values = self.values.iter().map(|(k, v)| (k.as_str(), v.map_or(JsonValue::Null, num)));
        obj([
            ("values", obj(values)),
            ("digest", text(&self.digest)),
            ("failures", JsonValue::Arr(self.failures.iter().map(|f| text(f)).collect())),
        ])
    }

    fn from_json(doc: &JsonValue) -> Option<Report> {
        let JsonValue::Obj(fields) = doc.get("values")? else {
            return None;
        };
        Some(Report {
            values: fields.iter().map(|(k, v)| (k.clone(), v.as_f64())).collect(),
            digest: doc.get("digest")?.as_str()?.to_owned(),
            failures: doc
                .get("failures")?
                .as_array()?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_owned))
                .collect(),
        })
    }
}

fn unix_ns() -> u128 {
    SystemTime::now().duration_since(UNIX_EPOCH).expect("the clock is past 1970").as_nanos()
}

/// Spawns one child and waits for its report.
///
/// # Errors
///
/// Returns a description when the child cannot be spawned, exits
/// non-zero (a panic inside the protocol, say) or prints no report.
pub fn spawn(
    spec: &Spec,
    seed: u64,
    task: Task,
    trace_out: Option<&str>,
    msg_bytes: usize,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("child")
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--task", task.name()])
        .args(["--msg-bytes", &msg_bytes.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        command.args(["--trace-out", path]);
    }
    // Last, so process creation itself counts towards the child's set-up.
    command.args(["--spawned-at-ns", &unix_ns().to_string()]);
    let output = command.output().map_err(|e| format!("cannot spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} child ({}) exited with {}", spec.name, task.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = parse_json(line).map_err(|e| format!("child report is not JSON: {e}"))?;
    Report::from_json(&doc).ok_or_else(|| "child report has the wrong shape".to_owned())
}

/// The `child` subcommand: does the task and prints its report.
pub fn main(
    spec: &Spec,
    seed: u64,
    task: Task,
    spawned_at_ns: u128,
    trace_out: Option<&str>,
    msg_bytes: usize,
) {
    let mut report = Report::default();
    if task == Task::Probe {
        for (name, value) in probes::run(spec, seed, msg_bytes) {
            report.set(&name, value);
        }
        println!("{}", report.to_json().render());
        return;
    }
    let mode = match task {
        Task::Rep(mode) => mode,
        _ => Mode::Plain,
    };
    let sampler = procfs::ThreadSampler::start();
    let collector = (mode == Mode::Traced).then(Collector::new);
    let prepared = prepare(spec, seed);
    // Child start (as the parent saw it) to the timed region. First-use
    // cache fills stay inside the timed region, as a CLI user pays them.
    report.set("setup_s", unix_ns().saturating_sub(spawned_at_ns) as f64 / 1e9);
    if task == Task::Setup {
        sampler.finish();
        println!("{}", report.to_json().render());
        return;
    }
    let out = execute(prepared, mode, collector.as_ref());
    let (cpu_user, cpu_sys) = procfs::cpu_seconds();
    report.set("process.threads_peak", sampler.finish() as f64);
    report.set("process.cpu_user_s", cpu_user);
    report.set("process.cpu_sys_s", cpu_sys);
    report.set("process.cpu_per_wall", (cpu_user + cpu_sys) / out.wall_s);
    report.set("peak_rss_mb", procfs::peak_rss_mib());

    let ops_done = out.ops as f64;
    report.set("ops", ops_done);
    report.set("failed_ops", out.failed_ops.min(out.ops) as f64);
    report.set("wall_s", out.wall_s);
    report.set("ops_per_s", ops_done / out.wall_s);
    report.set("commit_mbps", out.payload_bytes as f64 / 1e6 / out.wall_s);
    report.set("payload_bytes", out.payload_bytes as f64);
    report.set("rounds", out.rounds as f64);
    report.set("rounds_per_op", out.rounds as f64 / ops_done);
    report.set_opt("logical_bits", out.logical_bits.map(|b| b as f64));
    report.set_opt(
        "netsim.mean_msg_bytes",
        (out.messages > 0).then(|| out.wire_bytes as f64 / out.messages as f64),
    );
    report.set_opt(
        "wire_bits_per_payload_bit",
        out.logical_bits.map(|bits| bits as f64 / (out.payload_bytes as f64 * 8.0)),
    );
    let gaps: Option<Vec<f64>> =
        out.vtick_gaps.as_ref().map(|g| g.iter().map(|&v| v as f64).collect());
    // The tail is p99 where the sample supports it (ten samples beyond),
    // else the highest percentile that does; both are recorded.
    let tail = gaps.as_ref().map(|g| stats::supported_tail(g, 99.0));
    report.set_opt("commit_vticks_p50", gaps.as_ref().map(|g| stats::median(g)));
    report.set_opt("commit_vticks_p99", tail.map(|(_, value)| value));
    report.set_opt("commit_vticks_tail_percentile", tail.map(|(percentile, _)| percentile));
    report.set_opt("commit_vticks_samples", gaps.as_ref().map(|g| g.len() as f64));
    report.set("smr.restarts", out.restarts as f64);
    report.set("smr.fallback_slots", out.fallback_slots as f64);
    report.set("diagnosis_invocations", out.diagnosis_invocations as f64);
    if !out.scenario_ms.is_empty() {
        report.set("adversary.scenario_ms_p50", stats::median(&out.scenario_ms));
        report.set("adversary.scenario_ms_p90", stats::supported_tail(&out.scenario_ms, 90.0).1);
        report.set("adversary.scenarios", out.scenario_ms.len() as f64);
    }
    report.digest = format!("{:016x}", out.digest);
    report.failures = out.failures.clone();

    if let Some(collector) = collector {
        let spans = collector.take();
        for (name, value) in layers::from_trace(&spans, &out) {
            report.set(&name, value);
        }
        if let Some(path) = trace_out {
            if let Err(e) =
                crate::spans::write_trace(std::path::Path::new(path), spec.name, seed, &spans)
            {
                panic!("cannot write trace file {path}: {e}");
            }
        }
    }
    for (name, value) in layers::from_phases(&out) {
        report.set(&name, value);
    }
    println!("{}", report.to_json().render());
}
