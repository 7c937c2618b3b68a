//! One-call simulation runner: spawn `n` processors, run consensus,
//! collect outputs, reports and communication metrics.

use mvbc_bsb::{BsbDriver, PhaseKingDriver};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::{node_task, run_tasks, NodeCtx, NodeTask, SimConfig};

use crate::config::ConsensusConfig;
use crate::engine::{consensus, EngineReport};
use crate::hooks::ProtocolHooks;

/// The result of a simulated consensus execution.
#[derive(Debug)]
pub struct ConsensusRun {
    /// Decided values, indexed by processor id. Entries of Byzantine
    /// processors are meaningless.
    pub outputs: Vec<Vec<u8>>,
    /// Per-processor engine reports (diagnosis counts, isolation sets...).
    pub reports: Vec<EngineReport>,
    /// Synchronous rounds executed.
    pub rounds: u64,
}

/// Runs one consensus over the in-process network simulator.
///
/// `inputs[i]` is processor `i`'s `L`-byte input; `hooks[i]` its
/// behaviour ([`NoopHooks`](crate::NoopHooks) for fault-free processors,
/// an `mvbc-adversary` strategy for Byzantine ones). The supplied
/// `metrics` sink accumulates the communication-complexity counters.
///
/// # Panics
///
/// Panics when the vector lengths disagree with `cfg.n` or when any input
/// has the wrong length.
pub fn simulate_consensus(
    cfg: &ConsensusConfig,
    inputs: Vec<Vec<u8>>,
    hooks: Vec<Box<dyn ProtocolHooks>>,
    metrics: MetricsSink,
) -> ConsensusRun {
    let drivers = (0..cfg.n)
        .map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>)
        .collect();
    simulate_consensus_with(cfg, inputs, hooks, drivers, metrics)
}

/// As [`simulate_consensus`] with one explicit
/// [`BsbDriver`] per processor (the §4 substitution seam).
///
/// All fault-free processors must receive the same *kind* of driver;
/// per-processor driver values exist because some substrates carry
/// per-processor state (e.g. the Dolev-Strong signing handle — see
/// [`DolevStrongDriver::fleet`](mvbc_bsb::DolevStrongDriver::fleet)).
///
/// # Panics
///
/// Panics when the vector lengths disagree with `cfg.n` or when any input
/// has the wrong length.
pub fn simulate_consensus_with(
    cfg: &ConsensusConfig,
    inputs: Vec<Vec<u8>>,
    hooks: Vec<Box<dyn ProtocolHooks>>,
    drivers: Vec<Box<dyn BsbDriver>>,
    metrics: MetricsSink,
) -> ConsensusRun {
    simulate_inner(cfg, inputs, hooks, drivers, metrics, None)
}

/// As [`simulate_consensus_with`], additionally recording every
/// delivered message into `trace` (see
/// [`TraceSink`]) for golden-transcript tests,
/// debugging and offline analysis. Tracing never changes results — the
/// simulator is deterministic either way.
///
/// # Panics
///
/// As [`simulate_consensus_with`].
pub fn simulate_consensus_traced(
    cfg: &ConsensusConfig,
    inputs: Vec<Vec<u8>>,
    hooks: Vec<Box<dyn ProtocolHooks>>,
    drivers: Vec<Box<dyn BsbDriver>>,
    metrics: MetricsSink,
    trace: TraceSink,
) -> ConsensusRun {
    simulate_inner(cfg, inputs, hooks, drivers, metrics, Some(trace))
}

fn simulate_inner(
    cfg: &ConsensusConfig,
    inputs: Vec<Vec<u8>>,
    hooks: Vec<Box<dyn ProtocolHooks>>,
    drivers: Vec<Box<dyn BsbDriver>>,
    metrics: MetricsSink,
    trace: Option<TraceSink>,
) -> ConsensusRun {
    assert_eq!(inputs.len(), cfg.n, "one input per processor");
    assert_eq!(hooks.len(), cfg.n, "one hooks object per processor");
    assert_eq!(drivers.len(), cfg.n, "one BSB driver per processor");

    let tasks: Vec<NodeTask<EngineReport>> = inputs
        .into_iter()
        .zip(hooks)
        .zip(drivers)
        .map(|((input, mut hook), mut driver)| {
            let cfg = cfg.clone();
            node_task(async move |ctx: &mut NodeCtx| {
                consensus(ctx, &cfg, &input, hook.as_mut(), driver.as_mut(), cfg.window()).await
            })
        })
        .collect();

    let result = run_tasks(SimConfig::new(cfg.n), metrics, trace, tasks);
    let outputs = result.outputs.iter().map(|r| r.output.clone()).collect();
    ConsensusRun {
        outputs,
        reports: result.outputs,
        rounds: result.rounds,
    }
}
