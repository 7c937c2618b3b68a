//! Lane multiplexing: several concurrent protocol instances ("lanes")
//! sharing one node's synchronous round barrier.
//!
//! The simulator's round model is strictly lockstep: one [`NodeCtx`], one
//! round submission per round. Protocols that want to *pipeline* several
//! sub-protocol instances inside one simulation (the `mvbc-smr`
//! replicated log runs a window of broadcast slots concurrently) need
//! every instance to advance one protocol round per physical round, with
//! all instances' messages multiplexed into the node's single round
//! submission and demultiplexed back by message-tag scope.
//!
//! [`LaneMux`] implements exactly that, inside the node's own future:
//!
//! - [`LaneMux::spawn`] starts a lane: an async closure over its own
//!   lane-local [`NodeCtx`]. The closure is ordinary `async` protocol
//!   code — re-entrant functions like `run_broadcast_slot` run as-is —
//!   whose every [`NodeCtx::next_round`] yields the lane back to the mux.
//! - [`LaneMux::step`] advances *every* live lane by one round: it polls
//!   each lane up to its round submission (or completion), forwards the
//!   union through the real [`NodeCtx`] in **one** physical round, then
//!   routes the delivered inbox back to lanes by tag scope. A lane polled
//!   outside its mux ([`crate::block_on`]) or calling the blocking
//!   [`NodeCtx::end_round`] panics.
//!
//! - [`LaneMux::cancel`] drops a lane mid-protocol: it sends nothing
//!   more, and later traffic to its scope is dropped as unmatched.
//!
//! Determinism and alignment: all fault-free nodes that spawn the same
//! lanes at the same physical round, and step them together, keep every
//! lane's protocol rounds aligned across nodes — a lane's round-`k`
//! messages are delivered while every fault-free peer is in the same
//! lane's round `k`. The caller is responsible for spawning and
//! cancelling lanes at common-knowledge points (the `mvbc-smr` scheduler
//! derives both from agreed protocol outputs), so no fault-free node
//! awaits a lane its peers have cancelled.
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
//! use mvbc_netsim::{node_task, run_tasks, NodeCtx, SimConfig};
//! use mvbc_metrics::MetricsSink;
//!
//! let tasks = (0..2)
//!     .map(|_| {
//!         node_task(async |ctx: &mut NodeCtx| {
//!             let mut mux: LaneMux<u8> = LaneMux::new();
//!             for (scope, mark) in [("ping.a", 10u8), ("ping.b", 20u8)] {
//!                 let me = ctx.id() as u8;
//!                 mux.spawn(ctx, scope, async move |lane: &mut NodeCtx| {
//!                     let peer = 1 - lane.id();
//!                     let tag = mvbc_netsim::scoped_tag(scope, "msg");
//!                     lane.send(peer, tag, vec![me + mark], 8);
//!                     let mut inbox = lane.next_round().await;
//!                     inbox.take(peer, tag).map(|b| b[0]).unwrap_or(0)
//!                 });
//!             }
//!             let mut out = Vec::new();
//!             while mux.has_lanes() {
//!                 for lane in mux.step(ctx).await {
//!                     out.push(lane.output);
//!                 }
//!             }
//!             out.sort_unstable();
//!             out
//!         })
//!     })
//!     .collect();
//! let run = run_tasks(SimConfig::new(2), MetricsSink::new(), None, tasks);
//! assert_eq!(run.outputs[0], vec![11, 21]); // peer id 1, lanes a and b
//! assert_eq!(run.rounds, 1); // both lanes shared one physical round
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::{panic_message, Inbox, InboxPool, Link, NodeCtx, Outgoing};

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

/// The hand-off between a lane's context and its mux, or a task's context
/// and the driver ([`crate::run_tasks`]): the lane or task parks its round
/// submission here, and the mux or driver parks the routed inbox.
#[derive(Default)]
pub(crate) struct LaneLink {
    pub(crate) submission: Cell<Option<Vec<Outgoing>>>,
    pub(crate) inbox: Cell<Option<Inbox>>,
}

struct Lane<O> {
    scope: String,
    link: Rc<LaneLink>,
    /// The lane's protocol code; it reports itself, its context's
    /// counters included.
    future: Pin<Box<dyn Future<Output = FinishedLane<O>>>>,
}

/// Multiplexes several concurrent protocol lanes over one node's round
/// barrier (see the module docs).
pub struct LaneMux<O> {
    lanes: BTreeMap<LaneId, Lane<O>>,
    next_id: LaneId,
    /// Recycles the per-lane routed inboxes across steps (lanes return
    /// shells when they drop them), mirroring the coordinator's own
    /// inbox pool.
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

impl<O: 'static> LaneMux<O> {
    /// An empty multiplexer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True while any lane is live: spawned, and neither finished nor
    /// cancelled.
    pub fn has_lanes(&self) -> bool {
        !self.lanes.is_empty()
    }

    /// Cancels lane `id`: drops its future mid-protocol, so it sends
    /// nothing more and never finishes. Later messages to its scope match
    /// no live lane and are dropped; the other lanes are unaffected.
    /// Returns whether the lane was live (a finished or already
    /// cancelled lane is left alone).
    ///
    /// A lane's peers at other nodes expect its messages as long as they
    /// run their own copy of it, so callers cancel at common-knowledge
    /// points, as they spawn: every fault-free node then cancels the same
    /// lane after the same [`LaneMux::step`].
    pub fn cancel(&mut self, id: LaneId) -> bool {
        self.lanes.remove(&id).is_some()
    }

    /// Starts a lane running `logic` against a lane-local [`NodeCtx`]
    /// that shares `ctx`'s identity, round, clock and metrics sink. All
    /// the lane's message tags must live under `scope` (see
    /// [`crate::scoped_tag`]); incoming messages are routed to the lane
    /// by that scope.
    ///
    /// The lane first runs, up to its first round submission, at the next
    /// [`LaneMux::step`].
    ///
    /// # Panics
    ///
    /// Panics when `scope` overlaps a live lane's scope (one is a
    /// `.`-boundary prefix of the other): routing would be ambiguous.
    pub fn spawn<F>(&mut self, ctx: &NodeCtx, scope: impl Into<String>, logic: F) -> LaneId
    where
        F: AsyncFnOnce(&mut NodeCtx) -> O + 'static,
    {
        let scope = scope.into();
        for lane in self.lanes.values() {
            assert!(
                !scope_matches(&scope, &lane.scope) && !scope_matches(&lane.scope, &scope),
                "lane scope {scope:?} overlaps live lane scope {:?}",
                lane.scope
            );
        }
        let link = Rc::new(LaneLink::default());
        let start = ctx.round;
        let mut lane_ctx = NodeCtx::with_link(ctx.id, ctx.n, Link::Lane(link.clone()), ctx.metrics.clone());
        lane_ctx.round = start;
        lane_ctx.vtime = ctx.vtime;
        let id = self.next_id;
        self.next_id += 1;
        let future = Box::pin(async move {
            let output = logic(&mut lane_ctx).await;
            FinishedLane {
                id,
                output,
                rounds: lane_ctx.round - start,
                logical_bits: lane_ctx.bits_sent,
            }
        });
        self.lanes.insert(id, Lane { scope, link, future });
        id
    }

    /// Advances every live lane by one protocol round through **one**
    /// physical round of `ctx` (no physical round when every lane
    /// finished instead of submitting), and returns the lanes that
    /// completed.
    ///
    /// Lanes are polled in lane-id order, and each submitting lane's
    /// messages are appended to `ctx`'s pending queue in that order,
    /// as-is (the lane's own sends already recorded the metrics and its
    /// context's bit counter). The round's inbox is partitioned among the
    /// live lanes by tag scope. Messages matching no live lane — late
    /// traffic for finished lanes, or Byzantine noise — are dropped,
    /// exactly as an unread inbox message would be.
    ///
    /// # Panics
    ///
    /// Panics when called with no live lanes (callers gate on
    /// [`LaneMux::has_lanes`]), or when a lane panicked (the panic is
    /// re-raised with the lane's scope).
    pub async fn step(&mut self, ctx: &mut NodeCtx) -> Vec<FinishedLane<O>> {
        assert!(self.has_lanes(), "step with no live lanes");
        let mut finished = Vec::new();
        {
            let mut cx = Context::from_waker(Waker::noop());
            for lane in self.lanes.values_mut() {
                match panic::catch_unwind(AssertUnwindSafe(|| lane.future.as_mut().poll(&mut cx))) {
                    Ok(Poll::Ready(done)) => finished.push(done),
                    Ok(Poll::Pending) => {
                        let outgoing = lane.link.submission.take().unwrap_or_else(|| {
                            panic!("lane {:?} yielded without awaiting its next_round", lane.scope)
                        });
                        ctx.pending.extend(outgoing);
                    }
                    Err(payload) => {
                        panic!("lane {:?} panicked: {}", lane.scope, panic_message(&*payload))
                    }
                }
            }
        }
        for done in &finished {
            self.lanes.remove(&done.id);
        }
        // Every lane still live submitted a round.
        if self.has_lanes() {
            let mut inbox = ctx.next_round().await;
            let n = ctx.n();
            let mut routed: Vec<(&str, Inbox)> = self
                .lanes
                .values()
                .map(|lane| {
                    let mut sub_inbox = Inbox::pooled(n, &self.pool);
                    // Lanes share the physical round's clock: every
                    // sub-inbox (and thus every lane's `vtime()`) carries
                    // the round-end time of the underlying context.
                    sub_inbox.vtime = inbox.vtime();
                    (lane.scope.as_str(), sub_inbox)
                })
                .collect();
            // Drain (rather than consume) the inbox so its buffers flow
            // back to the simulator's recycling pool on drop.
            for msg in inbox.drain_messages() {
                let lane = routed.iter_mut().find(|(scope, _)| scope_matches(msg.tag, scope));
                if let Some((_, sub_inbox)) = lane {
                    sub_inbox.by_sender[msg.from].push(msg);
                }
            }
            for (lane, (_, sub_inbox)) in self.lanes.values().zip(routed) {
                lane.link.inbox.set(Some(sub_inbox));
            }
        }
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{block_on, node_task, run_tasks, scoped_tag, SimConfig, SimResult};
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

    /// Runs `n` nodes; node `id` runs the async `logic(id)` as its task.
    fn run<O, F>(n: usize, metrics: &MetricsSink, mut logic: impl FnMut(usize) -> F) -> SimResult<O>
    where
        O: Send + 'static,
        F: AsyncFnOnce(&mut NodeCtx) -> O + Send + 'static,
    {
        let tasks = (0..n).map(|id| node_task(logic(id))).collect();
        run_tasks(SimConfig::new(n), metrics.clone(), None, tasks)
    }

    /// Steps `mux` until it is empty, collecting every finished lane.
    async fn drain<O: 'static>(mux: &mut LaneMux<O>, ctx: &mut NodeCtx) -> Vec<FinishedLane<O>> {
        let mut out = Vec::new();
        while mux.has_lanes() {
            out.extend(mux.step(ctx).await);
        }
        out
    }

    /// Each node runs three lanes; lane `l` ping-pongs with the peer for
    /// `l + 1` protocol rounds. Lanes of different lengths share the
    /// physical rounds; total physical rounds = longest lane.
    #[test]
    fn lanes_of_unequal_length_share_physical_rounds() {
        let metrics = MetricsSink::new();
        let run = run(2, &metrics, |_| async |ctx: &mut NodeCtx| {
            let mut mux: LaneMux<u64> = LaneMux::new();
            for l in 0..3u64 {
                let tag = scoped_tag(&format!("lane{l}"), "ping");
                mux.spawn(ctx, format!("lane{l}"), async move |lane: &mut NodeCtx| {
                    let peer = 1 - lane.id();
                    let mut acc = 0u64;
                    for r in 0..=l {
                        lane.send(peer, tag, vec![r as u8], 8);
                        let mut inbox = lane.next_round().await;
                        acc += u64::from(inbox.take(peer, tag).expect("peer pinged")[0]);
                    }
                    acc
                });
            }
            let finished = drain(&mut mux, ctx).await;
            finished.iter().map(|f| (f.id, f.output, f.rounds)).collect::<Vec<_>>()
        });
        for out in &run.outputs {
            // Lane l exchanged sum(0..=l) and took l + 1 protocol rounds.
            assert_eq!(*out, vec![(0, 0, 1), (1, 1, 2), (2, 3, 3)]);
        }
        assert_eq!(run.rounds, 3);
        // Lane sends were metered exactly once: 2 nodes x (1+2+3) pings.
        assert_eq!(metrics.snapshot().total_messages(), 12);
        assert_eq!(metrics.snapshot().total_logical_bits(), 96);
    }

    #[test]
    fn submissions_reach_the_wire_in_lane_id_order() {
        // Node 0 spawns lanes "c", "a", "b" (ids 0, 1, 2), each sending
        // one message to node 1, which reads its raw inbox: the messages
        // arrive in lane-id order, not scope order.
        let run = run(2, &MetricsSink::new(), |id| async move |ctx: &mut NodeCtx| {
            if id == 1 {
                let inbox = ctx.next_round().await;
                return inbox.from_sender(0).iter().map(|m| m.tag).collect();
            }
            let mut mux: LaneMux<()> = LaneMux::new();
            for scope in ["c", "a", "b"] {
                mux.spawn(ctx, scope, async move |lane: &mut NodeCtx| {
                    lane.send(1, scoped_tag(scope, "m"), vec![0], 8);
                    lane.next_round().await;
                });
            }
            drain(&mut mux, ctx).await;
            Vec::new()
        });
        assert_eq!(run.outputs[1], ["c.m", "a.m", "b.m"]);
        assert_eq!(run.rounds, 1);
    }

    #[test]
    fn per_lane_bit_accounting_is_exact() {
        let run = run(2, &MetricsSink::new(), |_| async |ctx: &mut NodeCtx| {
            let mut mux: LaneMux<()> = LaneMux::new();
            let tag = scoped_tag("acct", "x");
            mux.spawn(ctx, "acct", async move |lane: &mut NodeCtx| {
                let peer = 1 - lane.id();
                lane.send(peer, tag, vec![1, 2, 3], 24);
                lane.next_round().await;
                lane.send(peer, tag, vec![4], 8);
                lane.next_round().await;
            });
            let f = drain(&mut mux, ctx).await.remove(0);
            (f.rounds, f.logical_bits)
        });
        assert_eq!(run.outputs, vec![(2, 32), (2, 32)]);
    }

    #[test]
    fn lane_context_counts_only_its_own_sends() {
        let metrics = MetricsSink::new();
        let run = run(2, &metrics, |_| async |ctx: &mut NodeCtx| {
            let peer = 1 - ctx.id();
            ctx.send(peer, "outer", vec![0], 5);
            let mut mux: LaneMux<u64> = LaneMux::new();
            let tag = scoped_tag("inner", "x");
            mux.spawn(ctx, "inner", async move |lane: &mut NodeCtx| {
                let at_start = lane.bits_sent();
                lane.send(peer, tag, vec![1, 2], 16);
                lane.next_round().await;
                at_start
            });
            let f = drain(&mut mux, ctx).await.remove(0);
            // The node context counts its own send, not the lane's,
            // though it forwarded both.
            assert_eq!(ctx.bits_sent(), 5);
            (f.output, f.logical_bits)
        });
        assert_eq!(run.outputs, vec![(0, 16), (0, 16)]);
        assert_eq!(metrics.snapshot().logical_bits_by_node(0), 5 + 16);
    }

    #[test]
    fn messages_for_finished_lanes_are_dropped() {
        // Node 0 runs a short lane "a" and a long lane "b"; node 1 keeps
        // sending "a"-scoped messages after lane "a" finished. The late
        // traffic is dropped, lane "b" is unaffected.
        let tag_a = scoped_tag("a", "m");
        let tag_b = scoped_tag("b", "m");
        let run = run(2, &MetricsSink::new(), |id| async move |ctx: &mut NodeCtx| {
            if id == 1 {
                // Raw peer: 3 rounds, spamming both scopes.
                for _ in 0..3 {
                    ctx.send(0, tag_a, vec![9], 8);
                    ctx.send(0, tag_b, vec![7], 8);
                    ctx.next_round().await;
                }
                return 0;
            }
            let mut mux: LaneMux<u64> = LaneMux::new();
            mux.spawn(ctx, "a", async move |lane: &mut NodeCtx| {
                let mut inbox = lane.next_round().await;
                u64::from(inbox.take(1, tag_a).expect("round-1 a")[0])
            });
            mux.spawn(ctx, "b", async move |lane: &mut NodeCtx| {
                let mut acc = 0u64;
                for _ in 0..3 {
                    let mut inbox = lane.next_round().await;
                    acc += u64::from(inbox.take(1, tag_b).expect("b every round")[0]);
                }
                acc
            });
            drain(&mut mux, ctx).await.iter().map(|f| f.output).sum()
        });
        assert_eq!(run.outputs[0], 9 + 21);
    }

    #[test]
    fn a_cancelled_lane_goes_quiet_and_its_siblings_run_on() {
        // Both nodes run lanes "a" and "b", each sending one message per
        // round for three rounds; node 0 cancels "a" after the first
        // step, while node 1 keeps its "a" running. Node 0 sends nothing
        // more on "a", node 1's later "a" messages are dropped at node 0,
        // and "b" is untouched on both.
        let tag_a = scoped_tag("a", "m");
        let tag_b = scoped_tag("b", "m");
        let run = run(2, &MetricsSink::new(), |id| async move |ctx: &mut NodeCtx| {
            let mut mux: LaneMux<Vec<u8>> = LaneMux::new();
            let mut ids = Vec::new();
            for tag in [tag_a, tag_b] {
                ids.push(mux.spawn(ctx, &tag[..1], async move |lane: &mut NodeCtx| {
                    let peer = 1 - lane.id();
                    let mut heard = Vec::new();
                    for r in 0..3u8 {
                        lane.send(peer, tag, vec![r], 8);
                        let mut inbox = lane.next_round().await;
                        heard.extend(inbox.take(peer, tag).map(|b| b[0]));
                    }
                    heard
                }));
            }
            let mut finished = mux.step(ctx).await;
            if id == 0 {
                assert!(mux.cancel(ids[0]), "lane a was live");
                assert!(!mux.cancel(ids[0]), "a second cancel is a no-op");
            }
            finished.extend(drain(&mut mux, ctx).await);
            let mut heard: Vec<(LaneId, Vec<u8>)> = finished.into_iter().map(|f| (f.id, f.output)).collect();
            heard.sort_unstable();
            heard
        });
        // Node 0's lane a never finishes; its b heard every round.
        assert_eq!(run.outputs[0], vec![(1, vec![0, 1, 2])]);
        // Node 1's lane a heard only round 0 from node 0; b every round.
        assert_eq!(run.outputs[1], vec![(0, vec![0]), (1, vec![0, 1, 2])]);
        assert_eq!(run.rounds, 3);
    }

    #[test]
    fn lanes_spawned_mid_run_join_the_next_round() {
        // One lane finishes, then a new lane with the same traffic
        // pattern is spawned from its result — sequential composition
        // through the mux.
        fn spawn_exchange(mux: &mut LaneMux<u64>, ctx: &NodeCtx, add: u64) {
            let me = ctx.id() as u64;
            let tag = scoped_tag(&format!("gen{add}"), "m");
            mux.spawn(ctx, format!("gen{add}"), async move |lane: &mut NodeCtx| {
                let peer = 1 - lane.id();
                lane.send(peer, tag, vec![(me + add) as u8], 8);
                let mut inbox = lane.next_round().await;
                u64::from(inbox.take(peer, tag).expect("peer sent")[0])
            });
        }
        let run = run(2, &MetricsSink::new(), |_| async |ctx: &mut NodeCtx| {
            let mut mux: LaneMux<u64> = LaneMux::new();
            spawn_exchange(&mut mux, ctx, 1);
            let mut results = Vec::new();
            while mux.has_lanes() {
                for f in mux.step(ctx).await {
                    results.push(f.output);
                    if results.len() == 1 {
                        spawn_exchange(&mut mux, ctx, 10);
                    }
                }
            }
            results.iter().sum::<u64>()
        });
        // Node 0 hears 1+1=2 then 1+10=11; node 1 hears 0+1 then 0+10.
        assert_eq!(run.outputs, vec![13, 11]);
        assert_eq!(run.rounds, 2);
    }

    /// Runs `logic` as the only lane of a one-node simulation.
    fn run_one_lane(scope: &'static str, logic: impl AsyncFnOnce(&mut NodeCtx) + Send + 'static) {
        let mut logic = Some(logic);
        run(1, &MetricsSink::new(), |_| {
            let logic = logic.take().expect("one node");
            async move |ctx: &mut NodeCtx| {
                let mut mux: LaneMux<()> = LaneMux::new();
                mux.spawn(ctx, scope, logic);
                drain(&mut mux, ctx).await;
            }
        });
    }

    #[test]
    #[should_panic(expected = "overlaps live lane scope")]
    fn overlapping_scopes_rejected() {
        run(1, &MetricsSink::new(), |_| async |ctx: &mut NodeCtx| {
            let mut mux: LaneMux<()> = LaneMux::new();
            mux.spawn(ctx, "s.slot1", async |_: &mut NodeCtx| {});
            mux.spawn(ctx, "s.slot1.a0", async |_: &mut NodeCtx| {});
        });
    }

    #[test]
    #[should_panic(expected = "lane \"boom\" panicked: lane exploded")]
    fn lane_panic_propagates_with_scope() {
        run_one_lane("boom", async |_: &mut NodeCtx| panic!("lane exploded"));
    }

    #[test]
    #[should_panic(expected = "lane futures must be driven by their LaneMux")]
    fn block_on_of_a_lane_round_panics() {
        run_one_lane("outside", async |lane: &mut NodeCtx| {
            block_on(lane.next_round());
        });
    }

    #[test]
    #[should_panic(expected = "end_round() on a lane context")]
    fn blocking_end_round_on_a_lane_panics() {
        run_one_lane("blocking", async |lane: &mut NodeCtx| {
            lane.end_round();
        });
    }
}
