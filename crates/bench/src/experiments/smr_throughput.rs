//! E16 — SMR amortization: bytes/command of a batched replicated log
//! vs. independent single-shot broadcasts of the same total payload.
//!
//! Both sides deliver the *same* 1600 commands in the *same* 100 batches
//! of 96 bytes (n = 7, t = 2, fault-free). The difference is purely
//! structural:
//!
//! - **batched log** — one simulation, slots run back-to-back through
//!   [`mvbc_smr::simulate_smr`]; the persistent dispute budget lets the
//!   log size broadcast generations against the aggregate payload
//!   (`100 × 96` bytes), so the fixed per-generation
//!   `Broadcast_Single_Bit` overhead is paid ~`sqrt(slots)`× less often;
//! - **single-shot** — 100 independent
//!   [`mvbc_broadcast::simulate_broadcast`] runs, each a fresh protocol
//!   instance with per-run (Eq. (2)) generation sizing.
//!
//! Fails loudly unless the batched log is at least 2× cheaper per
//! command. There is one grid, so `quick` changes nothing.

use mvbc_broadcast::{simulate_broadcast, BroadcastConfig, BroadcastHooks, NoopBroadcastHooks};
use mvbc_metrics::MetricsSink;
use mvbc_smr::{encode_batch, simulate_smr, synthetic_workloads, Command, HonestReplica, SmrConfig, SmrHooks};

use crate::{fmt_bits, Report, Table};

const N: usize = 7;
const T: usize = 2;
const SLOTS: usize = 100;
const BATCH: usize = 16;
const SEED: u64 = 11;

/// The command stream: replica `i` proposes keys from its own range, the
/// same stream both strategies commit.
fn workloads() -> Vec<Vec<Command>> {
    synthetic_workloads(N, SLOTS.div_ceil(N) * BATCH, SEED)
}

struct Measured {
    bits: u64,
    rounds: u64,
    commands: u64,
    gen_bytes: usize,
}

impl Measured {
    fn bytes_per_command(&self) -> f64 {
        self.bits as f64 / 8.0 / self.commands as f64
    }
}

fn run_batched(cfg: &SmrConfig) -> Measured {
    let hooks: Vec<Box<dyn SmrHooks>> = (0..N).map(|_| HonestReplica::boxed()).collect();
    let metrics = MetricsSink::new();
    let run = simulate_smr(cfg, workloads(), hooks, metrics.clone());
    for w in run.reports.windows(2) {
        assert_eq!(w[0].agreed_log(), w[1].agreed_log(), "harness: replicas diverged");
    }
    assert_eq!(run.reports[0].fallback_slots, 0, "harness: fault-free run fell back");
    let snap = metrics.snapshot();
    Measured {
        bits: snap.total_logical_bits(),
        rounds: snap.rounds(),
        commands: run.reports[0].committed_commands,
        gen_bytes: cfg.resolved_gen_bytes(),
    }
}

fn run_single_shot(cfg: &SmrConfig) -> Measured {
    // The same batches the log commits, but each slot is an independent
    // protocol instance: fresh simulation, fresh diagnosis state, per-run
    // generation sizing.
    let mut queues = workloads();
    let metrics = MetricsSink::new();
    let mut commands = 0u64;
    let mut rounds = 0u64;
    let mut gen_bytes = 0usize;
    for slot in 0..SLOTS {
        let primary = slot % N;
        let batch: Vec<Command> = {
            let q = &mut queues[primary];
            let take = q.len().min(BATCH);
            q.drain(..take).collect()
        };
        let bcfg = BroadcastConfig::new(N, T, primary, cfg.slot_bytes())
            .expect("valid single-shot parameters");
        gen_bytes = bcfg.resolved_gen_bytes();
        let value = encode_batch(&batch, cfg.batch_capacity());
        let hooks: Vec<Box<dyn BroadcastHooks>> =
            (0..N).map(|_| NoopBroadcastHooks::boxed()).collect();
        let run = simulate_broadcast(&bcfg, value.clone(), hooks, metrics.clone());
        for out in &run.outputs {
            assert_eq!(*out, value, "harness: single-shot broadcast diverged");
        }
        commands += batch.len() as u64;
        rounds += run.rounds;
    }
    let snap = metrics.snapshot();
    Measured {
        bits: snap.total_logical_bits(),
        rounds,
        commands,
        gen_bytes,
    }
}

pub(super) fn run(_quick: bool) -> Report {
    let cfg = SmrConfig::new(N, T, SLOTS, BATCH).expect("valid parameters");
    let payload_bytes = SLOTS * cfg.slot_bytes();

    let batched = run_batched(&cfg);
    let single = run_single_shot(&cfg);
    assert_eq!(batched.commands, single.commands, "both strategies serve the same commands");
    let ratio = single.bytes_per_command() / batched.bytes_per_command();
    assert!(
        ratio >= 2.0,
        "amortization regression: batched log only {ratio:.2}x cheaper (expected >= 2x)"
    );

    let mut table = Table::new(&[
        "strategy",
        "slots",
        "D (bytes)",
        "total bits",
        "rounds",
        "commands",
        "bytes/command",
    ]);
    for (name, m) in [("batched log", &batched), ("single-shot x100", &single)] {
        table.row(vec![
            name.into(),
            SLOTS.to_string(),
            m.gen_bytes.to_string(),
            fmt_bits(m.bits as f64),
            m.rounds.to_string(),
            m.commands.to_string(),
            format!("{:.1}", m.bytes_per_command()),
        ]);
    }
    let mut r = Report::default();
    r.line(format!(
        "# E16: SMR batching amortization (n = {N}, t = {T}, {SLOTS} slots x {BATCH} commands, {payload_bytes} payload bytes)\n"
    ));
    r.line(table.to_markdown());
    r.line(format!("amortization: batched log is {ratio:.2}x cheaper per command"));
    r.csv("e16_smr_throughput", table);
    r
}
