//! One-call broadcast simulation runner.

use mvbc_bsb::{BsbDriver, PhaseKingDriver};
use mvbc_core::DiagGraph;
use mvbc_metrics::MetricsSink;
use mvbc_netsim::{node_task, run_tasks, NodeCtx, NodeTask, SimConfig};

use crate::config::BroadcastConfig;
use crate::engine::{run_broadcast_slot, BroadcastReport, STANDALONE_SCOPE};
use crate::hooks::BroadcastHooks;

/// Result of a simulated broadcast.
#[derive(Debug)]
pub struct BroadcastRun {
    /// Delivered values by processor id (the source's entry is its input).
    pub outputs: Vec<Vec<u8>>,
    /// Per-processor reports.
    pub reports: Vec<BroadcastReport>,
    /// Synchronous rounds executed.
    pub rounds: u64,
}

/// Runs one broadcast of `value` from `cfg.source` over the in-process
/// simulator.
///
/// # Panics
///
/// Panics when `hooks.len() != cfg.n` or `value.len() != cfg.value_bytes`.
pub fn simulate_broadcast(
    cfg: &BroadcastConfig,
    value: Vec<u8>,
    hooks: Vec<Box<dyn BroadcastHooks>>,
    metrics: MetricsSink,
) -> BroadcastRun {
    let drivers = (0..cfg.n)
        .map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>)
        .collect();
    simulate_broadcast_with(cfg, value, hooks, drivers, metrics)
}

/// As [`simulate_broadcast`] with one explicit
/// [`BsbDriver`] per processor (the §4 substitution
/// seam; see [`mvbc_core::simulate_consensus_with`] for the driver-fleet
/// convention).
///
/// # Panics
///
/// As [`simulate_broadcast`], plus when `drivers.len() != cfg.n`.
pub fn simulate_broadcast_with(
    cfg: &BroadcastConfig,
    value: Vec<u8>,
    hooks: Vec<Box<dyn BroadcastHooks>>,
    drivers: Vec<Box<dyn BsbDriver>>,
    metrics: MetricsSink,
) -> BroadcastRun {
    assert_eq!(hooks.len(), cfg.n, "one hooks object per processor");
    assert_eq!(value.len(), cfg.value_bytes, "value must be L bytes");
    assert_eq!(drivers.len(), cfg.n, "one BSB driver per processor");

    let tasks: Vec<NodeTask<BroadcastReport>> = hooks
        .into_iter()
        .zip(drivers)
        .enumerate()
        .map(|(id, (mut hook, mut driver))| {
            let cfg = cfg.clone();
            let input = (id == cfg.source).then(|| value.clone());
            node_task(async move |ctx: &mut NodeCtx| {
                let mut diag = DiagGraph::new(cfg.n, cfg.t);
                let (input, hook, driver) = (input.as_deref(), hook.as_mut(), driver.as_mut());
                run_broadcast_slot(ctx, &cfg, input, STANDALONE_SCOPE, &mut diag, hook, driver).await
            })
        })
        .collect();

    let result = run_tasks(SimConfig::new(cfg.n), metrics, None, tasks);
    let outputs = result.outputs.iter().map(|r| r.output.clone()).collect();
    BroadcastRun {
        outputs,
        reports: result.outputs,
        rounds: result.rounds,
    }
}
