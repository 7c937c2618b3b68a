//! The experiment registry and the helpers several experiments share.
//!
//! One module per experiment, named like its `mvbc-bench` subcommand.
//! Each module's doc says what paper claim it reproduces.

use mvbc_bsb::{BsbConfig, BsbDriver, BsbInstance, DolevStrongDriver, EigDriver, NoopBsbHooks, PhaseKingDriver};
use mvbc_metrics::{MetricsSink, Snapshot};
use mvbc_netsim::{node_task, run_tasks, NodeCtx, NodeTask, SimConfig};

use crate::Report;

mod ablation;
mod attack_rate;
mod baselines;
mod broadcast;
mod bsb;
mod d_sweep;
mod errorfree;
mod kappa;
mod l_sweep;
mod latency;
mod messages;
mod n_sweep;
mod rounds;
mod smr_pipeline;
mod smr_throughput;
mod stages;
mod substrates;
mod worst_case;

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Subcommand name, also the stem of its golden file.
    pub name: &'static str,
    /// Renders the report; `quick` selects the reduced parameter grid.
    pub run: fn(quick: bool) -> Report,
}

/// Every experiment, in the order `mvbc-bench all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "l_sweep", run: l_sweep::run },
    Experiment { name: "n_sweep", run: n_sweep::run },
    Experiment { name: "baselines", run: baselines::run },
    Experiment { name: "worst_case", run: worst_case::run },
    Experiment { name: "d_sweep", run: d_sweep::run },
    Experiment { name: "broadcast", run: broadcast::run },
    Experiment { name: "bsb", run: bsb::run },
    Experiment { name: "errorfree", run: errorfree::run },
    Experiment { name: "ablation", run: ablation::run },
    Experiment { name: "stages", run: stages::run },
    Experiment { name: "substrates", run: substrates::run },
    Experiment { name: "rounds", run: rounds::run },
    Experiment { name: "messages", run: messages::run },
    Experiment { name: "attack_rate", run: attack_rate::run },
    Experiment { name: "kappa", run: kappa::run },
    Experiment { name: "smr_throughput", run: smr_throughput::run },
    Experiment { name: "smr_pipeline", run: smr_pipeline::run },
    Experiment { name: "latency", run: latency::run },
];

/// The three `Broadcast_Single_Bit` substrates, by CLI name.
const SUBSTRATES: [&str; 3] = ["phase-king", "eig", "dolev-strong"];

/// One driver per node for the substrate called `name`.
fn fleet(name: &str, n: usize) -> Vec<Box<dyn BsbDriver>> {
    match name {
        "phase-king" => (0..n).map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>).collect(),
        "eig" => (0..n).map(|_| Box::new(EigDriver) as Box<dyn BsbDriver>).collect(),
        "dolev-strong" => DolevStrongDriver::fleet(n)
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn BsbDriver>)
            .collect(),
        other => panic!("unknown substrate {other}"),
    }
}

/// Runs one batch of `instances` single-bit broadcasts, instance `i`
/// sourced by node `i % n` with input `i % 2 == 0`, on the substrate
/// called `substrate`, and returns the run's metrics.
///
/// # Panics
///
/// Panics when two nodes decide differently.
fn bsb_batch(substrate: &str, n: usize, t: usize, instances: usize) -> Snapshot {
    let metrics = MetricsSink::new();
    let tasks: Vec<NodeTask<Vec<bool>>> = fleet(substrate, n)
        .into_iter()
        .enumerate()
        .map(|(id, mut driver)| {
            node_task(async move |ctx: &mut NodeCtx| {
                let cfg = BsbConfig::new(t, "bench", vec![true; ctx.n()]);
                let insts: Vec<BsbInstance> = (0..instances)
                    .map(|i| BsbInstance {
                        source: i % ctx.n(),
                        input: (id == i % ctx.n()).then_some(i % 2 == 0),
                    })
                    .collect();
                driver.run_batch(ctx, &cfg, &insts, &mut NoopBsbHooks).await
            })
        })
        .collect();
    let out = run_tasks(SimConfig::new(n), metrics.clone(), None, tasks);
    for o in &out.outputs {
        assert_eq!(*o, out.outputs[0], "substrate {substrate}: instances must agree");
    }
    metrics.snapshot()
}
