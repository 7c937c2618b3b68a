//! Lane multiplexing: several concurrent protocol instances ("lanes")
//! sharing one node's synchronous round barrier.
//!
//! The simulator's round model is strictly lockstep: one [`NodeCtx`], one
//! [`NodeCtx::end_round`] per round. Protocols that want to *pipeline*
//! several sub-protocol instances inside one simulation (the `mvbc-smr`
//! replicated log runs a window of broadcast slots concurrently) need
//! every instance to advance one protocol round per physical round,
//! with all instances' messages multiplexed into the node's single round
//! submission and demultiplexed back by message-tag scope.
//!
//! [`LaneMux`] implements exactly that:
//!
//! - [`LaneMux::spawn`] starts a lane: a blocking closure over its own
//!   lane-local [`NodeCtx`] running on its own thread. The closure is
//!   unchanged protocol code — re-entrant functions like
//!   `run_broadcast_slot` run as-is.
//! - [`LaneMux::step`] advances *every* live lane by one round: it
//!   collects each lane's round submission (or completion), forwards the
//!   union through the real [`NodeCtx`] in **one** physical
//!   [`NodeCtx::end_round`], then routes the delivered inbox back to
//!   lanes by tag scope.
//!
//! Determinism and alignment: all fault-free nodes that spawn the same
//! lanes at the same physical round, and step them together, keep every
//! lane's protocol rounds aligned across nodes — a lane's round-`k`
//! messages are delivered while every fault-free peer is in the same
//! lane's round `k`. The caller is responsible for spawning lanes at
//! common-knowledge points (the `mvbc-smr` scheduler derives them from
//! agreed protocol outputs).
//!
//! Scopes must be prefix-free: no lane's scope may be a `.`-boundary
//! prefix of another live lane's scope, so every message routes to at
//! most one lane (enforced at spawn time).
//!
//! # Examples
//!
//! Two lanes per node, each a one-round peer exchange, driven by one
//! physical round:
//!
//! ```
//! use mvbc_netsim::lanes::LaneMux;
//! use mvbc_netsim::{run_simulation, NodeCtx, NodeLogic, SimConfig};
//! use mvbc_metrics::MetricsSink;
//!
//! let logics: Vec<NodeLogic<Vec<u8>>> = (0..2)
//!     .map(|_| {
//!         Box::new(|ctx: &mut NodeCtx| {
//!             let mut mux: LaneMux<u8> = LaneMux::new();
//!             for (scope, mark) in [("ping.a", 10u8), ("ping.b", 20u8)] {
//!                 let me = ctx.id() as u8;
//!                 mux.spawn(ctx, scope, move |lane| {
//!                     let peer = 1 - lane.id();
//!                     let tag = mvbc_netsim::scoped_tag(scope, "msg");
//!                     lane.send(peer, tag, vec![me + mark], 8);
//!                     let mut inbox = lane.end_round();
//!                     inbox.take(peer, tag).map(|b| b[0]).unwrap_or(0)
//!                 });
//!             }
//!             let mut out = Vec::new();
//!             while mux.has_lanes() {
//!                 for lane in mux.step(ctx) {
//!                     out.push(lane.output);
//!                 }
//!             }
//!             out.sort_unstable();
//!             out
//!         }) as NodeLogic<Vec<u8>>
//!     })
//!     .collect();
//! let run = run_simulation(SimConfig::new(2), MetricsSink::new(), logics);
//! assert_eq!(run.outputs[0], vec![11, 21]); // peer id 1, lanes a and b
//! assert_eq!(run.rounds, 1); // both lanes shared one physical round
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Receiver, Sender};

use crate::{CoordMsg, Inbox, InboxPool, NodeCtx};

/// Identifier of one spawned lane, unique within its [`LaneMux`].
pub type LaneId = u64;

/// A lane that completed during a [`LaneMux::step`] call.
#[derive(Debug)]
pub struct FinishedLane<O> {
    /// The lane's id (as returned by [`LaneMux::spawn`]).
    pub id: LaneId,
    /// The lane closure's return value.
    pub output: O,
    /// Protocol rounds the lane consumed: its context's
    /// [`NodeCtx::round`] advance over the lane's lifetime.
    pub rounds: u64,
    /// Logical bits the lane sent over its lifetime: its context's
    /// [`NodeCtx::bits_sent`].
    pub logical_bits: u64,
}

struct Lane<O> {
    scope: String,
    up: Receiver<CoordMsg>,
    down: Sender<Inbox>,
    /// The lane thread reports itself, its context's counters included.
    join: JoinHandle<FinishedLane<O>>,
}

/// Multiplexes several concurrent protocol lanes over one node's round
/// barrier (see the module docs).
pub struct LaneMux<O> {
    lanes: BTreeMap<LaneId, Lane<O>>,
    next_id: LaneId,
    /// Recycles the per-lane routed inboxes across steps (lane threads
    /// return shells when they drop them), mirroring the coordinator's
    /// own inbox pool.
    pool: Arc<InboxPool>,
}

impl<O> Default for LaneMux<O> {
    fn default() -> Self {
        LaneMux {
            lanes: BTreeMap::new(),
            next_id: 0,
            // 2 shells per lane in steady state; depth-16 pipelines fit.
            pool: InboxPool::with_cap(32),
        }
    }
}

/// True when `tag` equals `scope` or continues it at a `.` boundary.
fn scope_matches(tag: &str, scope: &str) -> bool {
    tag.len() >= scope.len()
        && tag.starts_with(scope)
        && (tag.len() == scope.len() || tag.as_bytes()[scope.len()] == b'.')
}

impl<O: Send + 'static> LaneMux<O> {
    /// An empty multiplexer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True while any lane is live. A caller that stops early must keep
    /// calling [`LaneMux::step`] until this returns false (draining), or
    /// the lane threads are left blocked on a dropped channel.
    pub fn has_lanes(&self) -> bool {
        !self.lanes.is_empty()
    }

    /// Starts a lane running `logic` against a lane-local [`NodeCtx`]
    /// that shares `ctx`'s identity and metrics sink. All the lane's
    /// message tags must live under `scope` (see [`crate::scoped_tag`]);
    /// incoming messages are routed to the lane by that scope.
    ///
    /// The lane begins executing immediately on its own thread, up to
    /// its first `end_round`; it makes no further progress until the
    /// next [`LaneMux::step`].
    ///
    /// # Panics
    ///
    /// Panics when `scope` overlaps a live lane's scope (one is a
    /// `.`-boundary prefix of the other): routing would be ambiguous.
    pub fn spawn<F>(&mut self, ctx: &NodeCtx, scope: impl Into<String>, logic: F) -> LaneId
    where
        F: FnOnce(&mut NodeCtx) -> O + Send + 'static,
    {
        let scope = scope.into();
        for lane in self.lanes.values() {
            assert!(
                !scope_matches(&scope, &lane.scope) && !scope_matches(&lane.scope, &scope),
                "lane scope {scope:?} overlaps live lane scope {:?}",
                lane.scope
            );
        }
        let (up_tx, up_rx) = channel::unbounded::<CoordMsg>();
        let (down_tx, down_rx) = channel::unbounded::<Inbox>();
        let id = ctx.id();
        let n = ctx.n();
        let round = ctx.round();
        let vtime = ctx.vtime();
        let metrics = ctx.metrics().clone();
        let lane_id = self.next_id;
        self.next_id += 1;
        let join = std::thread::spawn(move || {
            let mut lane_ctx = NodeCtx {
                id,
                n,
                round,
                vtime,
                bits_sent: 0,
                pending: Vec::new(),
                to_coord: up_tx.clone(),
                from_coord: down_rx,
                metrics,
            };
            let output = logic(&mut lane_ctx);
            let _ = up_tx.send(CoordMsg::Finished { from: id });
            FinishedLane {
                id: lane_id,
                output,
                rounds: lane_ctx.round() - round,
                logical_bits: lane_ctx.bits_sent(),
            }
        });
        self.lanes.insert(
            lane_id,
            Lane {
                scope,
                up: up_rx,
                down: down_tx,
                join,
            },
        );
        lane_id
    }

    /// Advances every live lane by one protocol round through **one**
    /// physical round of `ctx` (no physical round when every lane
    /// finished instead of submitting), and returns the lanes that
    /// completed.
    ///
    /// Round accounting: each submitting lane's messages are merged into
    /// `ctx`'s pending queue as-is (the lane's own sends already recorded
    /// the metrics and its context's bit counter), and the round's inbox
    /// is partitioned among the live lanes by tag scope. Messages
    /// matching no live lane — late traffic
    /// for finished lanes, or Byzantine noise — are dropped, exactly as
    /// an unread inbox message would be.
    ///
    /// # Panics
    ///
    /// Panics when called with no live lanes (callers gate on
    /// [`LaneMux::has_lanes`]), or when a lane's thread panicked (the
    /// panic is propagated with the lane's scope).
    pub fn step(&mut self, ctx: &mut NodeCtx) -> Vec<FinishedLane<O>> {
        assert!(self.has_lanes(), "step with no live lanes");
        let mut submitted: Vec<LaneId> = Vec::new();
        let mut done: Vec<LaneId> = Vec::new();
        for (&id, lane) in &self.lanes {
            // A live lane always either submits a round or finishes; recv
            // blocks until it does. A closed channel means the lane
            // panicked before announcing termination — surfaced at join.
            match lane.up.recv() {
                Ok(CoordMsg::Submit { outgoing, .. }) => {
                    ctx.pending.extend(outgoing);
                    submitted.push(id);
                }
                Ok(CoordMsg::Finished { .. }) | Err(_) => done.push(id),
            }
        }
        if !submitted.is_empty() {
            let mut inbox = ctx.end_round();
            let n = ctx.n();
            let mut routed: BTreeMap<LaneId, Inbox> = submitted
                .iter()
                .map(|&id| {
                    let mut sub_inbox = Inbox::pooled(n, &self.pool);
                    // Lanes share the physical round's clock: every
                    // sub-inbox (and thus every lane's `vtime()`) carries
                    // the round-end time of the underlying context.
                    sub_inbox.vtime = inbox.vtime();
                    (id, sub_inbox)
                })
                .collect();
            // Drain (rather than consume) the inbox so its buffers flow
            // back to the simulator's recycling pool on drop.
            for msg in inbox.drain_messages() {
                let target = self
                    .lanes
                    .iter()
                    .find(|(id, lane)| routed.contains_key(id) && scope_matches(msg.tag, &lane.scope))
                    .map(|(&id, _)| id);
                if let Some(id) = target {
                    let lane_inbox = routed.get_mut(&id).unwrap_or_else(|| {
                        panic!(
                            "lane routing: no inbox for lane {id} \
                             (tag {:?} from node {} routed to a lane that never submitted)",
                            msg.tag, msg.from
                        )
                    });
                    lane_inbox.by_sender[msg.from].push(msg);
                }
            }
            for (id, sub_inbox) in routed {
                // A send error means the lane finished right after this
                // submission without reading the inbox; it will report
                // Finished at the next step.
                let _ = self.lanes[&id].down.send(sub_inbox);
            }
        }
        done.into_iter()
            .map(|id| {
                let lane = self.lanes.remove(&id).expect("finished lane is live");
                match lane.join.join() {
                    Ok(finished) => finished,
                    Err(e) => {
                        let msg = e
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| e.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic>");
                        panic!("lane {:?} panicked: {msg}", lane.scope);
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_simulation, NodeLogic, SimConfig};
    use mvbc_metrics::MetricsSink;

    #[test]
    fn scope_matching_respects_dot_boundaries() {
        assert!(scope_matches("a.b", "a.b"));
        assert!(scope_matches("a.b.c", "a.b"));
        assert!(!scope_matches("a.bc", "a.b"));
        assert!(!scope_matches("a", "a.b"));
        assert!(!scope_matches("smr.slot1.a1.echo", "smr.slot1.a0"));
        assert!(scope_matches("smr.slot1.a0.echo", "smr.slot1.a0"));
    }

    /// Each node runs `w` lanes; lane `l` ping-pongs with the peer for
    /// `l + 1` protocol rounds. Lanes of different lengths share the
    /// physical rounds; total physical rounds = longest lane.
    #[test]
    fn lanes_of_unequal_length_share_physical_rounds() {
        let n = 2;
        let w = 3u64;
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<Vec<(LaneId, u64, u64)>>> = (0..n)
            .map(|_| {
                Box::new(move |ctx: &mut NodeCtx| {
                    let mut mux: LaneMux<u64> = LaneMux::new();
                    for l in 0..w {
                        let scope = format!("lane{l}");
                        let tag = crate::scoped_tag(&scope, "ping");
                        mux.spawn(ctx, scope, move |lane| {
                            let peer = 1 - lane.id();
                            let mut acc = 0u64;
                            for r in 0..=l {
                                lane.send(peer, tag, vec![r as u8], 8);
                                let mut inbox = lane.end_round();
                                acc += u64::from(inbox.take(peer, tag).expect("peer pinged")[0]);
                            }
                            acc
                        });
                    }
                    let mut out = Vec::new();
                    while mux.has_lanes() {
                        for f in mux.step(ctx) {
                            out.push((f.id, f.output, f.rounds));
                        }
                    }
                    out.sort_unstable();
                    out
                }) as NodeLogic<Vec<(LaneId, u64, u64)>>
            })
            .collect();
        let run = run_simulation(SimConfig::new(n), metrics.clone(), logics);
        for out in &run.outputs {
            // Lane l exchanged sum(0..=l) and took l + 1 protocol rounds.
            assert_eq!(*out, vec![(0, 0, 1), (1, 1, 2), (2, 3, 3)]);
        }
        // Three lanes of 1/2/3 protocol rounds in 3 physical rounds.
        assert_eq!(run.rounds, 3);
        // Lane sends were metered exactly once: 2 nodes x (1+2+3) pings.
        assert_eq!(metrics.snapshot().total_messages(), 12);
        assert_eq!(metrics.snapshot().total_logical_bits(), 96);
    }

    #[test]
    fn per_lane_bit_accounting_is_exact() {
        let logics: Vec<NodeLogic<u64>> = (0..2)
            .map(|_| {
                Box::new(|ctx: &mut NodeCtx| {
                    let mut mux: LaneMux<()> = LaneMux::new();
                    let tag = crate::scoped_tag("acct", "x");
                    mux.spawn(ctx, "acct", move |lane| {
                        let peer = 1 - lane.id();
                        lane.send(peer, tag, vec![1, 2, 3], 24);
                        lane.end_round();
                        lane.send(peer, tag, vec![4], 8);
                        lane.end_round();
                    });
                    let mut bits = 0;
                    while mux.has_lanes() {
                        for f in mux.step(ctx) {
                            bits = f.logical_bits;
                            assert_eq!(f.rounds, 2);
                        }
                    }
                    bits
                }) as NodeLogic<u64>
            })
            .collect();
        let run = run_simulation(SimConfig::new(2), MetricsSink::new(), logics);
        assert_eq!(run.outputs, vec![32, 32]);
    }

    #[test]
    fn lane_context_counts_only_its_own_sends() {
        let logics: Vec<NodeLogic<(u64, u64)>> = (0..2)
            .map(|_| {
                Box::new(|ctx: &mut NodeCtx| {
                    let peer = 1 - ctx.id();
                    ctx.send(peer, "outer", vec![0], 5);
                    let mut mux: LaneMux<u64> = LaneMux::new();
                    let tag = crate::scoped_tag("inner", "x");
                    mux.spawn(ctx, "inner", move |lane| {
                        let at_start = lane.bits_sent();
                        lane.send(peer, tag, vec![1, 2], 16);
                        lane.end_round();
                        at_start
                    });
                    let mut lane_bits = (u64::MAX, 0);
                    while mux.has_lanes() {
                        for f in mux.step(ctx) {
                            lane_bits = (f.output, f.logical_bits);
                        }
                    }
                    // The node context counts its own send, not the
                    // lane's, though it forwarded both.
                    assert_eq!(ctx.bits_sent(), 5);
                    lane_bits
                }) as NodeLogic<(u64, u64)>
            })
            .collect();
        let metrics = MetricsSink::new();
        let run = run_simulation(SimConfig::new(2), metrics.clone(), logics);
        assert_eq!(run.outputs, vec![(0, 16), (0, 16)]);
        assert_eq!(metrics.snapshot().logical_bits_by_node(0), 5 + 16);
    }

    #[test]
    fn messages_for_finished_lanes_are_dropped() {
        // Node 0 runs a short lane "a" and a long lane "b"; node 1 keeps
        // sending "a"-scoped messages after lane "a" finished. The late
        // traffic is dropped, lane "b" is unaffected.
        let tag_a = crate::scoped_tag("a", "m");
        let tag_b = crate::scoped_tag("b", "m");
        let logics: Vec<NodeLogic<u64>> = (0..2)
            .map(|id| {
                Box::new(move |ctx: &mut NodeCtx| {
                    if id == 1 {
                        // Raw peer: 3 rounds, spamming both scopes.
                        for _ in 0..3 {
                            ctx.send(0, tag_a, vec![9], 8);
                            ctx.send(0, tag_b, vec![7], 8);
                            ctx.end_round();
                        }
                        return 0;
                    }
                    let mut mux: LaneMux<u64> = LaneMux::new();
                    mux.spawn(ctx, "a", move |lane| {
                        let mut inbox = lane.end_round();
                        u64::from(inbox.take(1, tag_a).expect("round-1 a")[0])
                    });
                    mux.spawn(ctx, "b", move |lane| {
                        let mut acc = 0u64;
                        for _ in 0..3 {
                            let mut inbox = lane.end_round();
                            acc += u64::from(inbox.take(1, tag_b).expect("b every round")[0]);
                        }
                        acc
                    });
                    let mut total = 0;
                    while mux.has_lanes() {
                        for f in mux.step(ctx) {
                            total += f.output;
                        }
                    }
                    total
                }) as NodeLogic<u64>
            })
            .collect();
        let run = run_simulation(SimConfig::new(2), MetricsSink::new(), logics);
        assert_eq!(run.outputs[0], 9 + 21);
    }

    #[test]
    fn lanes_spawned_mid_run_join_the_next_round() {
        // One lane finishes, then a new lane with the same traffic
        // pattern is spawned from its result — sequential composition
        // through the mux.
        let logics: Vec<NodeLogic<u64>> = (0..2)
            .map(|_| {
                Box::new(move |ctx: &mut NodeCtx| {
                    let mut mux: LaneMux<u64> = LaneMux::new();
                    let spawn_exchange = |mux: &mut LaneMux<u64>, ctx: &NodeCtx, add: u64| {
                        let me = ctx.id() as u64;
                        mux.spawn(ctx, format!("gen{add}"), move |lane| {
                            let peer = 1 - lane.id();
                            let tag = crate::scoped_tag(&format!("gen{add}"), "m");
                            lane.send(peer, tag, vec![(me + add) as u8], 8);
                            let mut inbox = lane.end_round();
                            u64::from(inbox.take(peer, tag).expect("peer sent")[0])
                        });
                    };
                    spawn_exchange(&mut mux, ctx, 1);
                    let mut results = Vec::new();
                    while mux.has_lanes() {
                        for f in mux.step(ctx) {
                            results.push(f.output);
                            if results.len() == 1 {
                                spawn_exchange(&mut mux, ctx, 10);
                            }
                        }
                    }
                    results.iter().sum()
                }) as NodeLogic<u64>
            })
            .collect();
        let run = run_simulation(SimConfig::new(2), MetricsSink::new(), logics);
        // Node 0 hears 1+1=2 then 1+10=11; node 1 hears 0+1 then 0+10.
        assert_eq!(run.outputs, vec![13, 11]);
        assert_eq!(run.rounds, 2);
    }

    #[test]
    #[should_panic(expected = "overlaps live lane scope")]
    fn overlapping_scopes_rejected() {
        let logics: Vec<NodeLogic<()>> = vec![Box::new(|ctx: &mut NodeCtx| {
            let mut mux: LaneMux<()> = LaneMux::new();
            mux.spawn(ctx, "s.slot1", |lane| {
                lane.end_round();
            });
            mux.spawn(ctx, "s.slot1.a0", |lane| {
                lane.end_round();
            });
        })];
        let _ = run_simulation(SimConfig::new(1), MetricsSink::new(), logics);
    }

    #[test]
    #[should_panic(expected = "lane \"boom\" panicked: lane exploded")]
    fn lane_panic_propagates_with_scope() {
        let logics: Vec<NodeLogic<()>> = vec![Box::new(|ctx: &mut NodeCtx| {
            let mut mux: LaneMux<()> = LaneMux::new();
            mux.spawn(ctx, "boom", |_lane| panic!("lane exploded"));
            while mux.has_lanes() {
                mux.step(ctx);
            }
        })];
        let _ = run_simulation(SimConfig::new(1), MetricsSink::new(), logics);
    }
}
