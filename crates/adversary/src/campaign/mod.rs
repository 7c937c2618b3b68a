//! Adversary campaigns: scenarios as data, executed and machine-checked.
//!
//! The one-off adversary strategies elsewhere in this crate each script
//! a single attack. A *campaign* instead treats the whole adversarial
//! environment as a replayable document: a [`Scenario`] captures the
//! system size, the network model (link latencies, cluster topology,
//! delay partitions, eclipse-style single-node suppression) and a
//! timeline of composable Byzantine behaviours — corruptions switching
//! on mid-run, slow-compromise ramps, colluding frame groups across
//! slots. Scenarios (de)serialize byte-stably through the shared
//! [`mvbc_metrics::json`] model, so a failing draw replays exactly from
//! its JSON.
//!
//! [`ScenarioGenerator`] expands a campaign seed into bounded-random,
//! model-preserving scenarios; [`run_scenario`] executes one through
//! the replicated-log engine and machine-checks agreement, validity,
//! prefix consistency, sequential equivalence, isolation safety and the
//! global `t(t+2)` dispute budget; [`CampaignRunner`] and
//! [`CampaignReport`] drive and aggregate whole campaigns. The CLI
//! surfaces all of it as `mvbc smr soak`, and the nightly CI gauntlet
//! runs a fresh randomized campaign every day.

mod behavior;
mod generator;
mod runner;
mod scenario;

pub use behavior::{hooks_for, ScenarioHooks};
pub use generator::ScenarioGenerator;
pub use runner::{
    run_scenario, CampaignReport, CampaignRun, CampaignRunner, RunOutcome, Violation,
};
pub use scenario::{
    Behavior, Corruption, LinkPlan, NetPlan, PartitionPlan, Scenario, MAX_SCENARIO_BATCH,
    MAX_SCENARIO_COMMANDS, MAX_SCENARIO_N, MAX_SCENARIO_SLOTS, SCENARIO_SCHEMA,
};
