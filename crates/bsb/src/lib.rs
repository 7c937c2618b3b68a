//! `Broadcast_Single_Bit`: error-free 1-bit Byzantine broadcast for
//! `t < n/3`.
//!
//! Liang & Vaidya's consensus algorithm (PODC 2011) distributes all its
//! control information — the `M` match vectors, the `Detected` flags, the
//! diagnosis symbols `R#` and the `Trust` vectors — with an error-free
//! 1-bit Byzantine broadcast primitive the paper calls
//! `Broadcast_Single_Bit` (citing Berman-Garay-Perry and Coan-Welch). The
//! broadcast guarantees that all fault-free processors receive the *same*
//! bit, even when the source is faulty, which is what keeps the diagnosis
//! graph consistent across processors.
//!
//! This crate implements the primitive as:
//!
//! 1. the source sends its bit to every processor, then
//! 2. all processors run **Phase-King binary consensus** (the King
//!    algorithm: `t + 1` phases of 3 rounds, rotating king) on the received
//!    bits.
//!
//! Consistency follows from consensus agreement; validity from consensus
//! validity (an honest source gives every honest processor the same input).
//!
//! **Substitution note (see README.md, "Substitutions"):** the paper
//! assumes a bit-optimal primitive with `B = Θ(n²)` total bits; the simple
//! Phase-King construction used here costs `B = Θ(n²·t)` bits. `B` only multiplies the
//! sub-linear terms of the paper's Eq. (1), so the headline `O(nL)` result
//! is unaffected; the benchmark harness reports both the measured `B` and
//! the paper's `Θ(n²)` model.
//!
//! Many broadcast instances that start in the same round are **batched**:
//! they share the phase/round structure and pack their bits into a single
//! message per (sender, receiver) pair per round. Batching changes only
//! wall-clock time, not the per-instance bit count.
//!
//! Every round of the source multicast and of Phase-King is all-to-all,
//! so what a node does per message is multiplied by `n²`. Per round a
//! node packs its outgoing bits **once** and sends the `n−1` recipients
//! refcount clones of that one payload; on receipt it checks each
//! payload's length and tallies straight from the packed bytes, a 64-bit
//! word at a time, into counters allocated once per batch. Hooks still
//! get a private per-recipient copy, called in recipient order; only a
//! copy a hook changed is packed again.
//!
//! # Examples
//!
//! ```
//! use mvbc_bsb::{BsbConfig, BsbDriver, BsbInstance, NoopBsbHooks, PhaseKingDriver};
//! use mvbc_metrics::MetricsSink;
//! use mvbc_netsim::{node_task, run_tasks, NodeCtx, SimConfig};
//!
//! // n = 4, t = 1: node 0 broadcasts `true`; everyone agrees.
//! let n = 4;
//! let tasks = (0..n)
//!     .map(|id| {
//!         node_task(async move |ctx: &mut NodeCtx| {
//!             let cfg = BsbConfig::new(1, "demo", vec![true; 4]);
//!             let inst = [BsbInstance {
//!                 source: 0,
//!                 input: (id == 0).then_some(true),
//!             }];
//!             PhaseKingDriver.run_batch(ctx, &cfg, &inst, &mut NoopBsbHooks).await[0]
//!         })
//!     })
//!     .collect();
//! let out = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks);
//! assert_eq!(out.outputs, vec![true; 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dolev_strong;
mod driver;
mod eig;
mod hooks;
mod king;

pub use driver::{BsbDriver, BsbFuture, DolevStrongDriver, EigDriver, PhaseKingDriver};
pub use eig::{run_eig_batch, EigTree};
pub use hooks::{BsbHooks, NoopBsbHooks};
pub use king::run_king_batch;

use mvbc_metrics::intern_tag;
use mvbc_netsim::bits::pack_bits;
use mvbc_netsim::{block_on, NodeCtx, NodeId};

use king::{multicast, packed_bit};

/// The interned message tags of one `Broadcast_Single_Bit` session, one
/// per substrate wire stage, derived from the session name **once**.
///
/// Interning goes through a global table (a mutex plus an allocation per
/// formatted lookup), which must stay off the send path: a multi-slot
/// protocol like the `mvbc-smr` replicated log runs thousands of BSB
/// batches, and re-deriving tags per batch made every steady-state send
/// pay for formatting and locking. Deriving a `SessionTags` when the
/// session is named — and carrying it inside [`BsbConfig`] — makes every
/// subsequent send a plain `&'static str` load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTags {
    /// Round-0 source multicast (`<session>.bsb.src`).
    pub src: &'static str,
    /// Phase-King value round (`<session>.bsb.value`).
    pub value: &'static str,
    /// Phase-King proposal round (`<session>.bsb.propose`).
    pub propose: &'static str,
    /// Phase-King king round (`<session>.bsb.king`).
    pub king: &'static str,
    /// EIG relay rounds (`<session>.bsb.eig`).
    pub eig: &'static str,
    /// Dolev-Strong single-instance relays (`<session>.ds`).
    pub ds: &'static str,
    /// Dolev-Strong batched relays (`<session>.dsb`).
    pub dsb: &'static str,
}

impl SessionTags {
    /// Interns every derived tag of `session` (the only point where this
    /// session's tags pay the interning cost).
    pub fn derive(session: &str) -> Self {
        SessionTags {
            src: intern_tag(&format!("{session}.bsb.src")),
            value: intern_tag(&format!("{session}.bsb.value")),
            propose: intern_tag(&format!("{session}.bsb.propose")),
            king: intern_tag(&format!("{session}.bsb.king")),
            eig: intern_tag(&format!("{session}.bsb.eig")),
            ds: intern_tag(&format!("{session}.ds")),
            dsb: intern_tag(&format!("{session}.dsb")),
        }
    }
}

/// Static parameters of a batch of broadcast instances.
#[derive(Debug, Clone)]
pub struct BsbConfig {
    /// Maximum number of Byzantine processors tolerated (`t < n/3`).
    pub t: usize,
    /// Session tag; metric tags and message tags derive from it, so two
    /// batches in flight must use distinct sessions.
    pub session: &'static str,
    /// The session's pre-interned wire tags (see [`SessionTags`]).
    pub tags: SessionTags,
    /// `participants[i]` is false when processor `i` has been isolated by
    /// the diagnosis graph: no messages are sent to it and its messages
    /// are ignored. Fault-free processors are always participants.
    pub participants: Vec<bool>,
}

impl BsbConfig {
    /// Convenience constructor; derives (and interns) the session's wire
    /// tags. Callers that run many batches under the same session should
    /// derive a [`SessionTags`] once and use [`BsbConfig::with_tags`].
    pub fn new(t: usize, session: &'static str, participants: Vec<bool>) -> Self {
        Self::with_tags(t, session, SessionTags::derive(session), participants)
    }

    /// As [`BsbConfig::new`] with pre-derived tags: no interning, no
    /// formatting, no locking — the hot-path constructor for per-slot /
    /// per-generation protocols.
    pub fn with_tags(
        t: usize,
        session: &'static str,
        tags: SessionTags,
        participants: Vec<bool>,
    ) -> Self {
        BsbConfig {
            t,
            session,
            tags,
            participants,
        }
    }

    pub(crate) fn assert_valid(&self, n: usize) {
        assert_eq!(self.participants.len(), n, "participants mask length");
        assert!(3 * self.t < n, "Phase-King requires t < n/3 (t = {}, n = {n})", self.t);
    }
}

/// One broadcast instance within a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsbInstance {
    /// The broadcasting processor.
    pub source: NodeId,
    /// The bit to broadcast; `Some` exactly when the local processor is
    /// the source.
    pub input: Option<bool>,
}

/// Runs a [`PhaseKingDriver`] batch to completion on a node thread of
/// [`run_simulation`](mvbc_netsim::run_simulation), blocking through its
/// rounds: the shim kept only for the benchmark's probes until they move
/// to node tasks. Protocol code awaits [`BsbDriver::run_batch`] instead,
/// which documents the calling convention and the panics.
pub fn run_bsb_batch(
    ctx: &mut NodeCtx,
    config: &BsbConfig,
    instances: &[BsbInstance],
    hooks: &mut dyn BsbHooks,
) -> Vec<bool> {
    block_on(bsb_batch(ctx, config, instances, hooks))
}

/// The body of [`PhaseKingDriver`]'s batch: source multicast, then
/// Phase-King.
pub(crate) async fn bsb_batch(
    ctx: &mut NodeCtx,
    config: &BsbConfig,
    instances: &[BsbInstance],
    hooks: &mut dyn BsbHooks,
) -> Vec<bool> {
    config.assert_valid(ctx.n());
    let initial = source_round_initial(ctx, config, instances, hooks).await;
    // Phase-King consensus over the received bits.
    king::run_king_batch(ctx, config, initial, hooks).await
}

/// Round 0 of the source-multicast construction shared by the Phase-King
/// and EIG substrates: every source sends its instances' bits to every
/// participant, and each node assembles its initial consensus inputs
/// (own bit for self-sourced instances; received bit, defaulting to
/// `false` on silence, otherwise).
pub(crate) async fn source_round_initial(
    ctx: &mut NodeCtx,
    config: &BsbConfig,
    instances: &[BsbInstance],
    hooks: &mut dyn BsbHooks,
) -> Vec<bool> {
    for inst in instances {
        assert!(
            config.participants[inst.source],
            "instance sourced at isolated processor {}",
            inst.source
        );
        debug_assert_eq!(
            inst.input.is_some(),
            inst.source == ctx.id(),
            "input must be set exactly at the source"
        );
    }

    let me = ctx.id();
    let n = ctx.n();
    let src_tag = config.tags.src;
    let mut per_source_count: Vec<usize> = vec![0; n];
    for inst in instances {
        per_source_count[inst.source] += 1;
    }

    // Round 0: each source sends its instances' bits to every participant.
    if config.participants[me] && per_source_count[me] > 0 {
        let base: Vec<bool> = instances
            .iter()
            .filter(|inst| inst.source == me)
            .map(|inst| inst.input.unwrap_or(false))
            .collect();
        multicast(ctx, config, src_tag, base.len() as u64, &base, pack_bits, |to, bits| {
            hooks.source_bits(config.session, to, bits)
        });
    }
    let mut inbox = ctx.next_round().await;

    // Collect initial consensus inputs: the bit received from each source
    // (own bit for self-sourced instances; false when silent/malformed).
    let received: Vec<Option<_>> = (0..n)
        .map(|source| {
            let expected = per_source_count[source];
            if source == me || expected == 0 || !config.participants[source] {
                return None;
            }
            inbox.take(source, src_tag).filter(|p| p.len() == expected.div_ceil(8))
        })
        .collect();
    let mut seen_per_source: Vec<usize> = vec![0; n];
    instances
        .iter()
        .map(|inst| {
            let idx = seen_per_source[inst.source];
            seen_per_source[inst.source] += 1;
            if inst.source == me {
                inst.input.unwrap_or(false)
            } else {
                received[inst.source].as_ref().is_some_and(|p| packed_bit(p, idx))
            }
        })
        .collect()
}

/// A multi-bit broadcast request: `source` broadcasts `bits` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsbValueSpec {
    /// The broadcasting processor.
    pub source: NodeId,
    /// Number of bits the source will broadcast (common knowledge).
    pub bits: usize,
    /// The value, present exactly at the source.
    pub input: Option<Vec<bool>>,
}

/// The 1-bit instances of `specs`, one per bit in spec order.
pub(crate) fn value_instances(specs: &[BsbValueSpec]) -> Vec<BsbInstance> {
    let mut instances = Vec::new();
    for spec in specs {
        if let Some(input) = &spec.input {
            assert_eq!(input.len(), spec.bits, "input length must equal bits");
        }
        for b in 0..spec.bits {
            instances.push(BsbInstance {
                source: spec.source,
                input: spec.input.as_ref().map(|v| v[b]),
            });
        }
    }
    instances
}

/// Splits the flat per-bit decisions of [`value_instances`] back into
/// one value per spec.
pub(crate) fn split_values(specs: &[BsbValueSpec], flat: &[bool]) -> Vec<Vec<bool>> {
    let mut out = Vec::with_capacity(specs.len());
    let mut off = 0;
    for spec in specs {
        out.push(flat[off..off + spec.bits].to_vec());
        off += spec.bits;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvbc_metrics::MetricsSink;
    use mvbc_netsim::{node_task, run_tasks, NodeTask, SimConfig};

    fn all_participants(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    /// Runs one broadcast of `bit` from `source` among `n` honest nodes.
    fn broadcast_honest(n: usize, t: usize, source: NodeId, bit: bool) -> (Vec<bool>, MetricsSink) {
        let metrics = MetricsSink::new();
        let tasks: Vec<NodeTask<bool>> = (0..n)
            .map(|id| {
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(t, "t", all_participants(n));
                    let inst = [BsbInstance {
                        source,
                        input: (id == source).then_some(bit),
                    }];
                    bsb_batch(ctx, &cfg, &inst, &mut NoopBsbHooks).await[0]
                })
            })
            .collect();
        let out = run_tasks(SimConfig::new(n), metrics.clone(), None, tasks);
        (out.outputs, metrics)
    }

    #[test]
    fn honest_source_true_and_false() {
        for bit in [false, true] {
            let (outs, _) = broadcast_honest(4, 1, 2, bit);
            assert_eq!(outs, vec![bit; 4], "bit={bit}");
        }
    }

    #[test]
    fn various_network_sizes() {
        for (n, t) in [(4, 1), (7, 2), (10, 3), (13, 4)] {
            let (outs, _) = broadcast_honest(n, t, n - 1, true);
            assert_eq!(outs, vec![true; n], "n={n} t={t}");
        }
    }

    #[test]
    fn t_zero_single_phase() {
        let (outs, metrics) = broadcast_honest(4, 0, 0, true);
        assert_eq!(outs, vec![true; 4]);
        // t = 0: one phase of 3 rounds plus the source round.
        assert_eq!(metrics.snapshot().rounds(), 4);
    }

    #[test]
    fn batch_of_independent_instances() {
        let n = 4;
        let metrics = MetricsSink::new();
        let tasks: Vec<NodeTask<Vec<bool>>> = (0..n)
            .map(|id| {
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(1, "batch", all_participants(n));
                    // Every node broadcasts two bits: (id is even, id >= 2).
                    let instances: Vec<BsbInstance> = (0..n)
                        .flat_map(|src| {
                            [
                                BsbInstance {
                                    source: src,
                                    input: (id == src).then_some(src % 2 == 0),
                                },
                                BsbInstance {
                                    source: src,
                                    input: (id == src).then_some(src >= 2),
                                },
                            ]
                        })
                        .collect();
                    bsb_batch(ctx, &cfg, &instances, &mut NoopBsbHooks).await
                })
            })
            .collect();
        let out = run_tasks(SimConfig::new(n), metrics, None, tasks);
        let expect: Vec<bool> = (0..n).flat_map(|src| [src % 2 == 0, src >= 2]).collect();
        for o in &out.outputs {
            assert_eq!(*o, expect);
        }
    }

    #[test]
    fn values_api_roundtrip() {
        let n = 4;
        let value = vec![true, false, true, true, false];
        let expect = value.clone();
        let tasks: Vec<NodeTask<Vec<Vec<bool>>>> = (0..n)
            .map(|id| {
                let value = value.clone();
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(1, "values", all_participants(n));
                    let specs = [BsbValueSpec {
                        source: 1,
                        bits: 5,
                        input: (id == 1).then_some(value.clone()),
                    }];
                    PhaseKingDriver.run_values(ctx, &cfg, &specs, &mut NoopBsbHooks).await
                })
            })
            .collect();
        let out = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks);
        for o in &out.outputs {
            assert_eq!(o[0], expect);
        }
    }

    #[test]
    fn silent_source_yields_consistent_default() {
        // Source is a participant but crashes before sending: all honest
        // nodes must still agree (on false).
        let n = 4;
        let tasks: Vec<NodeTask<Option<bool>>> = (0..n)
            .map(|id| {
                node_task(async move |ctx: &mut NodeCtx| {
                    if id == 0 {
                        return None; // crash immediately
                    }
                    let cfg = BsbConfig::new(1, "silent", all_participants(n));
                    let inst = [BsbInstance {
                        source: 0,
                        input: None,
                    }];
                    Some(bsb_batch(ctx, &cfg, &inst, &mut NoopBsbHooks).await[0])
                })
            })
            .collect();
        let out = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks);
        assert_eq!(out.outputs[1], Some(false));
        assert_eq!(out.outputs[1], out.outputs[2]);
        assert_eq!(out.outputs[2], out.outputs[3]);
    }

    #[test]
    fn isolated_node_excluded_from_traffic() {
        // Node 3 is isolated: no participant sends to it; broadcast still
        // completes among the rest.
        let n = 4;
        let metrics = MetricsSink::new();
        let tasks: Vec<NodeTask<Option<bool>>> = (0..n)
            .map(|id| {
                node_task(async move |ctx: &mut NodeCtx| {
                    if id == 3 {
                        return None; // isolated node does nothing
                    }
                    let mut participants = all_participants(n);
                    participants[3] = false;
                    let cfg = BsbConfig::new(1, "iso", participants);
                    let inst = [BsbInstance {
                        source: 1,
                        input: (id == 1).then_some(true),
                    }];
                    Some(bsb_batch(ctx, &cfg, &inst, &mut NoopBsbHooks).await[0])
                })
            })
            .collect();
        let out = run_tasks(SimConfig::new(n), metrics, None, tasks);
        assert_eq!(out.outputs, vec![Some(true), Some(true), Some(true), None]);
    }

    #[test]
    fn measured_bits_scale_with_n() {
        // B(n) grows superlinearly (Θ(n^2 (t+1)) for the Phase-King
        // construction).
        let mut costs = Vec::new();
        for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
            let (_, metrics) = broadcast_honest(n, t, 0, true);
            costs.push(metrics.snapshot().total_logical_bits());
        }
        assert!(costs[0] < costs[1] && costs[1] < costs[2]);
        // Sanity: n = 4 cost is at least the analytic floor
        // n-1 source bits + (t+1) * n(n-1) value bits.
        assert!(costs[0] >= 3 + 2 * 12);
    }

    #[test]
    #[should_panic(expected = "t < n/3")]
    fn rejects_too_many_faults() {
        let tasks: Vec<NodeTask<()>> = (0..3)
            .map(|_| {
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(1, "bad", vec![true; 3]);
                    let inst = [BsbInstance {
                        source: 0,
                        input: (ctx.id() == 0).then_some(true),
                    }];
                    let _ = bsb_batch(ctx, &cfg, &inst, &mut NoopBsbHooks).await;
                })
            })
            .collect();
        let _ = run_tasks(SimConfig::new(3), MetricsSink::new(), None, tasks);
    }

    #[test]
    fn empty_batch_is_noop() {
        let n = 4;
        let tasks: Vec<NodeTask<usize>> = (0..n)
            .map(|_| {
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(1, "empty", all_participants(n));
                    bsb_batch(ctx, &cfg, &[], &mut NoopBsbHooks).await.len()
                })
            })
            .collect();
        let out = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks);
        assert_eq!(out.outputs, vec![0; 4]);
    }

    /// The benchmark's `bsb` probe batch at `n = 7`, `t = 2`: 21
    /// instances, three per source, node `me` sourcing its own.
    fn probe_batch(me: NodeId) -> Vec<BsbInstance> {
        (0..21)
            .map(|i| BsbInstance {
                source: i % 7,
                input: (i % 7 == me).then_some(i % 3 == 0),
            })
            .collect()
    }

    /// [`run_bsb_batch`] under the benchmark probes' shim decides the same
    /// bits in the same rounds, at the same cost, as [`PhaseKingDriver`]
    /// under the driver: two batches back to back, as the probe runs them.
    #[test]
    fn the_probes_blocking_batch_matches_the_driver() {
        use mvbc_netsim::{run_simulation, NodeLogic};

        let (n, t) = (7, 2);
        let cfg = BsbConfig::new(t, "probe.bsb", all_participants(n));
        let shim_metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<Vec<Vec<bool>>>> = (0..n)
            .map(|me| {
                let cfg = cfg.clone();
                Box::new(move |ctx: &mut NodeCtx| {
                    (0..2).map(|_| run_bsb_batch(ctx, &cfg, &probe_batch(me), &mut NoopBsbHooks)).collect()
                }) as NodeLogic<Vec<Vec<bool>>>
            })
            .collect();
        let shim = run_simulation(SimConfig::new(n), shim_metrics.clone(), logics);
        let driver_metrics = MetricsSink::new();
        let tasks: Vec<NodeTask<Vec<Vec<bool>>>> = (0..n)
            .map(|me| {
                let cfg = cfg.clone();
                node_task(async move |ctx: &mut NodeCtx| {
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        let batch = probe_batch(me);
                        out.push(PhaseKingDriver.run_batch(ctx, &cfg, &batch, &mut NoopBsbHooks).await);
                    }
                    out
                })
            })
            .collect();
        let driver = run_tasks(SimConfig::new(n), driver_metrics.clone(), None, tasks);
        let expect: Vec<bool> = (0..21).map(|i| i % 3 == 0).collect();
        assert_eq!(driver.outputs, vec![vec![expect; 2]; n]);
        assert_eq!(shim.outputs, driver.outputs);
        assert_eq!(shim.rounds, driver.rounds);
        let (shim_snapshot, driver_snapshot) = (shim_metrics.snapshot(), driver_metrics.snapshot());
        assert_eq!(shim_snapshot.total_logical_bits(), driver_snapshot.total_logical_bits());
        assert_eq!(shim_snapshot, driver_snapshot);
    }
}
