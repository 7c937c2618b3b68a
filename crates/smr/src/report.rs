//! Structured run reports: where a replicated-log run's time went.
//!
//! [`RunReport`] condenses a telemetry-instrumented SMR run (a sink built
//! with [`MetricsSink::with_telemetry`]) into one JSON artifact: commit
//! latency percentiles, per-phase virtual-time shares, per-node and
//! per-link top-k tables, queue-depth high-water marks, partition outage
//! windows, and the per-slot commit timeline. The CLI surfaces it as
//! `smr --report <path>` and reads it back with `inspect <path>`.
//!
//! Everything in the report is derived from the *virtual* clock and
//! message counters, so under a fixed seed the JSON is byte-identical
//! across runs and machines — wall-clock span durations stay available on
//! [`TelemetrySnapshot::spans`](mvbc_metrics::TelemetrySnapshot) but are
//! deliberately excluded here.
//!
//! The workspace has no external JSON dependency; the escape helper, the
//! [`JsonValue`] document model and the recursive-descent parser live in
//! [`mvbc_metrics::json`] (shared with the bench manifests and the
//! `mvbc-lint` diagnostics) and are re-exported here for compatibility.

use std::fmt::Write as _;

use mvbc_metrics::json::escape as escape_json;
use mvbc_metrics::{Histogram, MetricsSink};

pub use mvbc_metrics::json::{parse_json, JsonValue};

use crate::log::{SmrConfig, SmrRun, COMMIT_GAP_TAG, COMMIT_VTIME_TAG};

/// Schema marker embedded in every report.
pub const RUN_REPORT_SCHEMA: &str = "mvbc.run_report.v1";

/// Rows kept in the per-node and per-link top-k tables.
pub const TOP_K: usize = 8;

/// Percentile summary of a latency histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes a histogram.
    pub fn of(hist: &Histogram) -> Self {
        LatencySummary {
            count: hist.count(),
            p50: hist.percentile(50.0),
            p90: hist.percentile(90.0),
            p99: hist.percentile(99.0),
            max: hist.max(),
        }
    }
}

/// One protocol phase's share of the run's span time.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseShare {
    /// Phase name (`"propose"`, `"dispersal"`, `"echo"`, `"vote"`,
    /// `"diagnosis"`, `"commit"`).
    pub phase: String,
    /// Total virtual-time ticks spent in this phase, summed over all
    /// nodes and slots.
    pub vtime: u64,
    /// This phase's percentage of all phase time (the shares of a report
    /// sum to ~100, modulo rounding).
    pub share_pct: f64,
}

/// One node's traffic totals (a top-k row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeActivity {
    /// Node id.
    pub node: usize,
    /// Messages sent.
    pub messages: u64,
    /// Logical bits sent.
    pub logical_bits: u64,
    /// Payload bytes sent.
    pub payload_bytes: u64,
}

/// One directed link's delivery totals (a top-k row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkActivity {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Cumulative delivery delay in ticks.
    pub total_delay: u64,
    /// Mean per-message delay in ticks.
    pub mean_delay: f64,
}

/// One partition outage window (as reported).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageReport {
    /// Virtual time the cut starts.
    pub start: u64,
    /// Virtual time the cut heals.
    pub heal: u64,
    /// `"drop"` or `"delay"`.
    pub behavior: String,
    /// Messages lost to the cut.
    pub dropped: u64,
    /// Messages held until the heal.
    pub delayed: u64,
}

/// One slot's commit, on the report's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTimeline {
    /// Slot index.
    pub slot: u64,
    /// Primary that proposed it.
    pub primary: usize,
    /// Virtual time it committed (as observed by replica 0).
    pub commit_vtime: u64,
    /// Whether it fell back to the empty batch.
    pub fallback: bool,
    /// Commands committed.
    pub commands: u64,
    /// Synchronous rounds the slot took.
    pub rounds: u64,
}

/// The structured artifact of one instrumented replicated-log run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Number of replicas.
    pub n: usize,
    /// Fault tolerance.
    pub t: usize,
    /// Configured slots.
    pub slots: usize,
    /// Batch capacity in commands.
    pub batch_commands: usize,
    /// Pipeline depth.
    pub pipeline: usize,
    /// Scheduling policy name.
    pub policy: String,
    /// Synchronous rounds executed.
    pub rounds: u64,
    /// Final virtual time.
    pub final_vtime: u64,
    /// Commands committed across the log.
    pub committed_commands: u64,
    /// Slots that fell back to the empty batch.
    pub fallback_slots: u64,
    /// Percentiles of per-slot commit *times* (when slots landed).
    pub commit_vtime: LatencySummary,
    /// Percentiles of per-slot commit *gaps* (inter-commit latency).
    pub commit_gap: LatencySummary,
    /// Per-phase virtual-time totals and shares.
    pub phases: Vec<PhaseShare>,
    /// Top-k nodes by logical bits sent.
    pub nodes: Vec<NodeActivity>,
    /// Top-k links by cumulative delivery delay (event-driven runs only).
    pub links: Vec<LinkActivity>,
    /// Largest delivery-queue depth the scheduler observed.
    pub queue_high_water: u64,
    /// Partition outage windows.
    pub outages: Vec<OutageReport>,
    /// Per-slot commit timeline.
    pub timeline: Vec<SlotTimeline>,
}

impl RunReport {
    /// Builds a report from a finished run and the sink it ran with.
    ///
    /// The sink should have been created with
    /// [`MetricsSink::with_telemetry`]; without a recorder the latency,
    /// phase and link sections come out empty (counters and the timeline
    /// still fill in).
    pub fn build(cfg: &SmrConfig, run: &SmrRun, metrics: &MetricsSink) -> RunReport {
        let snapshot = metrics.snapshot();
        let telemetry = metrics.telemetry().map(|t| t.snapshot()).unwrap_or_default();

        let commit_vtime = LatencySummary::of(&telemetry.histogram_for_tag(COMMIT_VTIME_TAG));
        let commit_gap = LatencySummary::of(&telemetry.histogram_for_tag(COMMIT_GAP_TAG));

        let phase_totals = telemetry.phase_totals();
        let total_phase_vtime: u64 = phase_totals.values().map(|&(v, _)| v).sum();
        let phases = phase_totals
            .iter()
            .map(|(phase, &(vtime, _))| PhaseShare {
                phase: phase.clone(),
                vtime,
                share_pct: if total_phase_vtime == 0 {
                    0.0
                } else {
                    vtime as f64 * 100.0 / total_phase_vtime as f64
                },
            })
            .collect();

        let mut nodes: Vec<NodeActivity> = (0..cfg.n)
            .map(|node| {
                let c = snapshot.counter_for_node(node);
                NodeActivity {
                    node,
                    messages: c.messages,
                    logical_bits: c.logical_bits,
                    payload_bytes: c.payload_bytes,
                }
            })
            .collect();
        nodes.sort_by(|a, b| (b.logical_bits, a.node).cmp(&(a.logical_bits, b.node)));
        nodes.truncate(TOP_K);

        let mut links: Vec<LinkActivity> = telemetry
            .links
            .iter()
            .map(|(&(from, to), stat)| LinkActivity {
                from,
                to,
                messages: stat.messages,
                payload_bytes: stat.payload_bytes,
                total_delay: stat.total_delay,
                mean_delay: stat.mean_delay(),
            })
            .collect();
        links.sort_by(|a, b| (b.total_delay, a.from, a.to).cmp(&(a.total_delay, b.from, b.to)));
        links.truncate(TOP_K);

        let report = &run.reports[0];
        RunReport {
            n: cfg.n,
            t: cfg.t,
            slots: cfg.slots,
            batch_commands: cfg.batch_capacity(),
            pipeline: cfg.pipeline.max(1),
            policy: cfg.policy.name().to_owned(),
            rounds: run.rounds,
            final_vtime: run.vtime,
            committed_commands: report.committed_commands,
            fallback_slots: report.fallback_slots,
            commit_vtime,
            commit_gap,
            phases,
            nodes,
            links,
            queue_high_water: telemetry.queue_high_water,
            outages: telemetry
                .outages
                .iter()
                .map(|o| OutageReport {
                    start: o.start,
                    heal: o.heal,
                    behavior: o.behavior.clone(),
                    dropped: o.dropped,
                    delayed: o.delayed,
                })
                .collect(),
            timeline: report
                .slots
                .iter()
                .map(|s| SlotTimeline {
                    slot: s.slot,
                    primary: s.primary,
                    commit_vtime: s.commit_vtime,
                    fallback: s.fallback,
                    commands: s.committed.len() as u64,
                    rounds: s.rounds,
                })
                .collect(),
        }
    }

    /// Renders the report as JSON. Deterministic: a fixed seed yields a
    /// byte-identical document (no wall-clock values, no map iteration
    /// nondeterminism).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{RUN_REPORT_SCHEMA}\",");
        let _ = writeln!(
            out,
            "  \"config\": {{\"n\": {}, \"t\": {}, \"slots\": {}, \"batch_commands\": {}, \"pipeline\": {}, \"policy\": \"{}\"}},",
            self.n,
            self.t,
            self.slots,
            self.batch_commands,
            self.pipeline,
            escape_json(&self.policy)
        );
        let _ = writeln!(out, "  \"rounds\": {},", self.rounds);
        let _ = writeln!(out, "  \"final_vtime\": {},", self.final_vtime);
        let _ = writeln!(out, "  \"committed_commands\": {},", self.committed_commands);
        let _ = writeln!(out, "  \"fallback_slots\": {},", self.fallback_slots);
        let summary = |s: &LatencySummary| {
            format!(
                "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                s.count, s.p50, s.p90, s.p99, s.max
            )
        };
        let _ = writeln!(out, "  \"commit_vtime\": {},", summary(&self.commit_vtime));
        let _ = writeln!(out, "  \"commit_gap\": {},", summary(&self.commit_gap));
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\": \"{}\", \"vtime\": {}, \"share_pct\": {:.4}}}",
                    escape_json(&p.phase),
                    p.vtime,
                    p.share_pct
                )
            })
            .collect();
        let _ = writeln!(out, "  \"phases\": [{}],", phases.join(", "));
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"node\": {}, \"messages\": {}, \"logical_bits\": {}, \"payload_bytes\": {}}}",
                    n.node, n.messages, n.logical_bits, n.payload_bytes
                )
            })
            .collect();
        let _ = writeln!(out, "  \"nodes\": [{}],", nodes.join(", "));
        let links: Vec<String> = self
            .links
            .iter()
            .map(|l| {
                format!(
                    "{{\"from\": {}, \"to\": {}, \"messages\": {}, \"payload_bytes\": {}, \"total_delay\": {}, \"mean_delay\": {:.2}}}",
                    l.from, l.to, l.messages, l.payload_bytes, l.total_delay, l.mean_delay
                )
            })
            .collect();
        let _ = writeln!(out, "  \"links\": [{}],", links.join(", "));
        let _ = writeln!(out, "  \"queue_high_water\": {},", self.queue_high_water);
        let outages: Vec<String> = self
            .outages
            .iter()
            .map(|o| {
                format!(
                    "{{\"start\": {}, \"heal\": {}, \"behavior\": \"{}\", \"dropped\": {}, \"delayed\": {}}}",
                    o.start,
                    o.heal,
                    escape_json(&o.behavior),
                    o.dropped,
                    o.delayed
                )
            })
            .collect();
        let _ = writeln!(out, "  \"outages\": [{}],", outages.join(", "));
        let timeline: Vec<String> = self
            .timeline
            .iter()
            .map(|s| {
                format!(
                    "{{\"slot\": {}, \"primary\": {}, \"commit_vtime\": {}, \"fallback\": {}, \"commands\": {}, \"rounds\": {}}}",
                    s.slot, s.primary, s.commit_vtime, s.fallback, s.commands, s.rounds
                )
            })
            .collect();
        let _ = writeln!(out, "  \"timeline\": [{}]", timeline.join(", "));
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a report back from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let root = parse_json(text)?;
        let schema = root.get("schema").and_then(JsonValue::as_str).unwrap_or("");
        if schema != RUN_REPORT_SCHEMA {
            return Err(format!("not a run report (schema {schema:?})"));
        }
        let config = root.get("config").ok_or("missing config")?;
        let u = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let summary = |key: &str| -> Result<LatencySummary, String> {
            let v = root.get(key).ok_or_else(|| format!("missing {key:?}"))?;
            Ok(LatencySummary {
                count: u(v, "count")?,
                p50: u(v, "p50")?,
                p90: u(v, "p90")?,
                p99: u(v, "p99")?,
                max: u(v, "max")?,
            })
        };
        let arr = |key: &str| -> Result<Vec<JsonValue>, String> {
            Ok(root
                .get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("missing array {key:?}"))?
                .to_vec())
        };
        Ok(RunReport {
            n: u(config, "n")? as usize,
            t: u(config, "t")? as usize,
            slots: u(config, "slots")? as usize,
            batch_commands: u(config, "batch_commands")? as usize,
            pipeline: u(config, "pipeline")? as usize,
            policy: config
                .get("policy")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_owned(),
            rounds: u(&root, "rounds")?,
            final_vtime: u(&root, "final_vtime")?,
            committed_commands: u(&root, "committed_commands")?,
            fallback_slots: u(&root, "fallback_slots")?,
            commit_vtime: summary("commit_vtime")?,
            commit_gap: summary("commit_gap")?,
            phases: arr("phases")?
                .iter()
                .map(|p| {
                    Ok(PhaseShare {
                        phase: p
                            .get("phase")
                            .and_then(JsonValue::as_str)
                            .ok_or("phase name")?
                            .to_owned(),
                        vtime: u(p, "vtime")?,
                        share_pct: p
                            .get("share_pct")
                            .and_then(JsonValue::as_f64)
                            .filter(|pct| (0.0..=100.0).contains(pct))
                            .ok_or("share_pct is not a percentage in 0..=100")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            nodes: arr("nodes")?
                .iter()
                .map(|v| {
                    Ok(NodeActivity {
                        node: u(v, "node")? as usize,
                        messages: u(v, "messages")?,
                        logical_bits: u(v, "logical_bits")?,
                        payload_bytes: u(v, "payload_bytes")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            links: arr("links")?
                .iter()
                .map(|v| {
                    Ok(LinkActivity {
                        from: u(v, "from")? as usize,
                        to: u(v, "to")? as usize,
                        messages: u(v, "messages")?,
                        payload_bytes: u(v, "payload_bytes")?,
                        total_delay: u(v, "total_delay")?,
                        mean_delay: v
                            .get("mean_delay")
                            .and_then(JsonValue::as_f64)
                            .ok_or("mean_delay")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            queue_high_water: u(&root, "queue_high_water")?,
            outages: arr("outages")?
                .iter()
                .map(|v| {
                    Ok(OutageReport {
                        start: u(v, "start")?,
                        heal: u(v, "heal")?,
                        behavior: v
                            .get("behavior")
                            .and_then(JsonValue::as_str)
                            .ok_or("behavior")?
                            .to_owned(),
                        dropped: u(v, "dropped")?,
                        delayed: u(v, "delayed")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            timeline: arr("timeline")?
                .iter()
                .map(|v| {
                    Ok(SlotTimeline {
                        slot: u(v, "slot")?,
                        primary: u(v, "primary")? as usize,
                        commit_vtime: u(v, "commit_vtime")?,
                        fallback: v
                            .get("fallback")
                            .and_then(JsonValue::as_bool)
                            .ok_or("fallback")?,
                        commands: u(v, "commands")?,
                        rounds: u(v, "rounds")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            n: 6,
            t: 1,
            slots: 6,
            batch_commands: 2,
            pipeline: 2,
            policy: "event-driven".into(),
            rounds: 120,
            final_vtime: 70_000,
            committed_commands: 12,
            fallback_slots: 0,
            commit_vtime: LatencySummary { count: 36, p50: 30_000, p90: 60_000, p99: 65_000, max: 70_000 },
            commit_gap: LatencySummary { count: 36, p50: 4_000, p90: 9_000, p99: 12_000, max: 15_000 },
            phases: vec![
                PhaseShare { phase: "dispersal".into(), vtime: 100, share_pct: 25.0 },
                PhaseShare { phase: "echo".into(), vtime: 300, share_pct: 75.0 },
            ],
            nodes: vec![NodeActivity { node: 3, messages: 10, logical_bits: 999, payload_bytes: 4 }],
            links: vec![LinkActivity {
                from: 0,
                to: 5,
                messages: 7,
                payload_bytes: 70,
                total_delay: 7_000,
                mean_delay: 1000.0,
            }],
            queue_high_water: 42,
            outages: vec![OutageReport {
                start: 5_000,
                heal: 60_000,
                behavior: "delay".into(),
                dropped: 0,
                delayed: 9,
            }],
            timeline: vec![SlotTimeline {
                slot: 0,
                primary: 0,
                commit_vtime: 9_000,
                fallback: false,
                commands: 2,
                rounds: 24,
            }],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_report();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_a_share_outside_0_to_100() {
        // `inspect` draws one '#' per two percent of a phase share, so an
        // unchecked share is an allocation as large as the file says.
        let good = sample_report().to_json();
        let echo = "\"share_pct\": 75.0000";
        assert!(good.contains(echo));
        for pct in ["100", "0"] {
            let edited = good.replace(echo, &format!("\"share_pct\": {pct}"));
            assert!(RunReport::from_json(&edited).is_ok(), "{pct}");
        }
        for pct in ["1e300", "4e9", "1e400", "-0.5", "100.5"] {
            let edited = good.replace(echo, &format!("\"share_pct\": {pct}"));
            let err = RunReport::from_json(&edited).unwrap_err();
            assert!(err.contains("share_pct"), "{pct}: {err}");
        }
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(RunReport::from_json("{\"schema\": \"other\"}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }
}
