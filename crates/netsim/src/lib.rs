//! Synchronous fully-connected network simulator.
//!
//! Implements the system model of Liang & Vaidya (PODC 2011) §1:
//!
//! - a synchronous network of `n` processors with common knowledge of
//!   processor identities,
//! - a pair of directed point-to-point channels between every two
//!   processors, and
//! - *authenticated channels*: when a processor receives a message on such
//!   a channel it knows which processor sent it (the simulator stamps the
//!   true sender on every delivery; a Byzantine processor can lie about
//!   content but never about its identity).
//!
//! Each processor runs on its own OS thread and proceeds in lockstep
//! rounds: messages sent during round `r` (via [`NodeCtx::send`]) are
//! delivered to every recipient at the end of round `r` (from
//! [`NodeCtx::end_round`]). A coordinator thread enforces the round
//! barrier, routes messages, and feeds the
//! [`MetricsSink`] that experiments use to
//! measure communication complexity.
//!
//! Protocol code that ends rounds is `async`: it awaits
//! [`NodeCtx::next_round`], and a synchronous entry point runs it with
//! [`block_on`], which on a node's context completes every round at once.
//! That makes a protocol execution a future, so a node can run several
//! of them concurrently on its own thread as [`lanes`] sharing its round
//! barrier — no executor but the coordinator starts a thread.
//!
//! # Scheduling policies
//!
//! The coordinator runs one of two [`SchedulingPolicy`]s (configured via
//! [`SimConfig::with_policy`]). Both share one delivery path: each round
//! the coordinator stamps every message with an arrival tick, sorts the
//! round's messages stably by that tick (ties keep stamp order: sender
//! id, then send order), and delivers, traces and closes the round in
//! that order. The policies differ only in the stamp:
//!
//! - [`SchedulingPolicy::RoundBarrier`] (the default): the classic
//!   lockstep model above, where the round counter *is* the clock —
//!   every round-`r` message arrives at tick `r` and every node's round
//!   ends at `r`.
//! - [`SchedulingPolicy::EventDriven`]: timed rounds over a
//!   [`NetModel`]. Every node keeps its own virtual clock; a message
//!   arrives at its sender's dispatch tick plus a sampled per-link
//!   latency (seeded, FIFO per directed link, held or lost at an active
//!   partition cut), and a node's round ends at the arrival of its last
//!   round message. Round *semantics* are unchanged — every round-`r`
//!   message still reaches its recipient within the recipient's round
//!   `r`, so protocol code runs unmodified — but [`NodeCtx::vtime`],
//!   [`Inbox::vtime`] and the trace's virtual timestamps now measure the
//!   latency shape of a WAN deployment, including partitions that form
//!   and heal mid-run.
//!
//! Ticks saturate at `u64::MAX`: a latency or heal time near the top of
//! the range pins the clock there instead of wrapping it.
//!
//! # Examples
//!
//! ```
//! use mvbc_netsim::{run_simulation, NodeCtx, SimConfig};
//! use mvbc_metrics::MetricsSink;
//!
//! // Two nodes exchange their ids and report the peer's id.
//! let metrics = MetricsSink::new();
//! let mk = |_: usize| {
//!     Box::new(move |ctx: &mut NodeCtx| {
//!         let peer = 1 - ctx.id();
//!         ctx.send(peer, "hello", vec![ctx.id() as u8], 8);
//!         let mut inbox = ctx.end_round();
//!         inbox.take(peer, "hello").map(|b| b[0] as usize)
//!     }) as Box<dyn FnOnce(&mut NodeCtx) -> Option<usize> + Send>
//! };
//! let out = run_simulation(SimConfig::new(2), metrics, (0..2).map(mk).collect());
//! assert_eq!(out.outputs, vec![Some(1), Some(0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod lanes;
pub mod net;
pub mod trace;

use std::fmt;
use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use mvbc_metrics::MetricsSink;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use mvbc_metrics::NodeId;
pub use net::{
    LinkModel, NetModel, Partition, PartitionBehavior, SchedulingPolicy, Topology,
};

/// A point on the simulation's virtual clock, in ticks. By convention
/// the workspace reads one tick as one microsecond, so a 50 ms WAN hop
/// is `50_000` ticks.
pub type VirtualTime = u64;

/// Default for [`SimConfig::round_timeout`]: how long the coordinator
/// waits for a node's round submission before declaring the simulation
/// wedged. Protocol bugs (mismatched `end_round` counts between nodes)
/// surface as this panic instead of a silent hang.
pub const DEFAULT_ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of processors.
    pub n: usize,
    /// Abort the run if it exceeds this many rounds (guards against
    /// run-away protocols in tests). `None` disables the check.
    pub max_rounds: Option<u64>,
    /// How long the coordinator waits for any round submission before
    /// declaring the simulation wedged. Long multi-slot runs on slow
    /// machines may need more than [`DEFAULT_ROUND_TIMEOUT`]. This is a
    /// *wall-clock* guard against protocol bugs; for a *virtual-time*
    /// budget, see [`SimConfig::max_vtime`].
    pub round_timeout: Duration,
    /// How the coordinator schedules rounds (see the crate docs).
    pub policy: SchedulingPolicy,
    /// Abort the run if the virtual clock exceeds this many ticks
    /// (guards event-driven runs the way `max_rounds` guards round
    /// counts). `None` disables the check.
    pub max_vtime: Option<VirtualTime>,
}

impl SimConfig {
    /// Configuration with the default round limit (1 million), round
    /// timeout ([`DEFAULT_ROUND_TIMEOUT`]), and the
    /// [`SchedulingPolicy::RoundBarrier`] policy.
    pub fn new(n: usize) -> Self {
        SimConfig {
            n,
            max_rounds: Some(1_000_000),
            round_timeout: DEFAULT_ROUND_TIMEOUT,
            policy: SchedulingPolicy::RoundBarrier,
            max_vtime: None,
        }
    }

    /// Returns the configuration with a different wedge-detection timeout.
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Returns the configuration with a different scheduling policy.
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the configuration with a virtual-time budget.
    pub fn with_max_vtime(mut self, limit: VirtualTime) -> Self {
        self.max_vtime = Some(limit);
        self
    }
}

/// Interns `"{scope}.{suffix}"` as a `'static` message/metric tag.
///
/// Protocols that run many sequential executions inside one simulation
/// (e.g. the `mvbc-smr` replicated log) scope their tags per execution so
/// a Byzantine processor sending a message early or late cannot have it
/// mistaken for the like-tagged message of an adjacent slot.
pub fn scoped_tag(scope: &str, suffix: &str) -> &'static str {
    mvbc_metrics::intern_tag(&format!("{scope}.{suffix}"))
}

/// Interns the per-slot tag scope `"{proto}.slot{slot}"` (see
/// [`scoped_tag`]).
pub fn slot_scope(proto: &str, slot: u64) -> &'static str {
    mvbc_metrics::intern_tag(&format!("{proto}.slot{slot}"))
}

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// True sender identity (authenticated channel).
    pub from: NodeId,
    /// Protocol tag; sub-protocols use distinct tags to multiplex a round.
    pub tag: &'static str,
    /// Opaque payload.
    pub payload: Bytes,
    /// Virtual delivery time, stamped by the coordinator at routing (0
    /// while the message is still queued on the sender). Under the
    /// round-barrier policy this is the round counter; under the
    /// event-driven policy it is the message's arrival tick.
    pub at: VirtualTime,
}

/// A drained inbox buffer (`n` per-sender message vectors, emptied but
/// with capacity retained).
type InboxShell = Vec<Vec<Message>>;

/// Recycling pool for inbox buffers, shared between the coordinator
/// (which takes a shell per node per round) and the node-side [`Inbox`]
/// drops (which return them). Without the pool, routing allocated
/// `vec![Vec::new(); n]` per node per round; with it, a steady-state
/// simulation reuses the same `2n` shells — and their grown inner
/// capacities — for the whole run.
#[derive(Debug, Default)]
struct InboxPool {
    shells: std::sync::Mutex<Vec<InboxShell>>,
    /// Maximum shells retained (`2n`: one in flight + one draining per
    /// node). Returns beyond the cap are dropped, bounding memory even
    /// if a protocol clones or hoards inboxes.
    cap: usize,
}

impl InboxPool {
    fn with_cap(cap: usize) -> Arc<Self> {
        Arc::new(InboxPool {
            shells: std::sync::Mutex::new(Vec::with_capacity(cap)),
            cap,
        })
    }

    fn take(&self, n: usize) -> InboxShell {
        let shell = self
            .shells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        match shell {
            Some(mut shell) => {
                shell.resize_with(n, Vec::new);
                shell
            }
            None => vec![Vec::new(); n],
        }
    }

    fn put(&self, mut shell: InboxShell) {
        for msgs in &mut shell {
            msgs.clear();
        }
        let mut shells = self
            .shells
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shells.len() < self.cap {
            shells.push(shell);
        }
    }
}

/// All messages delivered to one node at one round boundary, grouped by
/// sender.
///
/// Inboxes delivered by the simulator carry a handle to the
/// coordinator's buffer pool: dropping the inbox (however the protocol
/// code is structured) returns its buffers for reuse in a later round.
#[derive(Debug, Default)]
pub struct Inbox {
    by_sender: InboxShell,
    pool: Option<Arc<InboxPool>>,
    vtime: VirtualTime,
}

impl Clone for Inbox {
    fn clone(&self) -> Self {
        // Clones are detached from the pool: only the original returns
        // its (capacity-grown) buffers.
        Inbox {
            by_sender: self.by_sender.clone(),
            pool: None,
            vtime: self.vtime,
        }
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.by_sender));
        }
    }
}

impl Inbox {
    fn pooled(n: usize, pool: &Arc<InboxPool>) -> Self {
        Inbox {
            by_sender: pool.take(n),
            pool: Some(pool.clone()),
            vtime: 0,
        }
    }

    /// The virtual time at which this round ended for the recipient:
    /// the round counter under the round-barrier policy, the arrival
    /// tick of the round's last message under the event-driven policy.
    pub fn vtime(&self) -> VirtualTime {
        self.vtime
    }

    /// Messages received from `sender`, in send order.
    pub fn from_sender(&self, sender: NodeId) -> &[Message] {
        &self.by_sender[sender]
    }

    /// Removes and returns the first message from `sender` carrying `tag`.
    ///
    /// Returns `None` when no such message arrived — Byzantine silence and
    /// "message not sent" are indistinguishable, exactly as in the model.
    pub fn take(&mut self, sender: NodeId, tag: &str) -> Option<Bytes> {
        let msgs = &mut self.by_sender[sender];
        let idx = msgs.iter().position(|m| m.tag == tag)?;
        Some(msgs.remove(idx).payload)
    }

    /// Drains every message (senders in id order, send order within a
    /// sender), leaving the inbox empty but its buffers intact for
    /// recycling. Each [`Message`] still names its authenticated sender.
    pub fn drain_messages(&mut self) -> impl Iterator<Item = Message> + '_ {
        self.by_sender.iter_mut().flat_map(|msgs| msgs.drain(..))
    }

    /// Total number of messages in the inbox.
    pub fn len(&self) -> usize {
        self.by_sender.iter().map(Vec::len).sum()
    }

    /// True when no messages were delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Outgoing {
    to: NodeId,
    msg: Message,
    logical_bits: u64,
}

enum CoordMsg {
    Submit {
        from: NodeId,
        outgoing: Vec<Outgoing>,
    },
    Finished {
        from: NodeId,
    },
}

/// Where a context's round submissions go.
enum Link {
    /// A simulator node: submits to the coordinator and blocks for the
    /// routed inbox.
    Node {
        to_coord: Sender<CoordMsg>,
        from_coord: Receiver<Inbox>,
    },
    /// A lane ([`lanes::LaneMux::spawn`]): parks its submission for the
    /// mux, which hands the routed inbox back on the next poll.
    Lane(Rc<lanes::LaneLink>),
}

/// Handle through which node logic interacts with the network.
///
/// See the crate docs for the round semantics.
pub struct NodeCtx {
    id: NodeId,
    n: usize,
    round: u64,
    vtime: VirtualTime,
    /// Logical bits this context has sent (see [`NodeCtx::bits_sent`]).
    bits_sent: u64,
    pending: Vec<Outgoing>,
    link: Link,
    metrics: MetricsSink,
}

impl fmt::Debug for NodeCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCtx")
            .field("id", &self.id)
            .field("n", &self.n)
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl NodeCtx {
    /// This processor's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of processors in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This processor's virtual clock: the end time of its last
    /// completed round (0 before the first [`NodeCtx::end_round`]).
    /// Under the round-barrier policy this equals [`NodeCtx::round`];
    /// under the event-driven policy it is the node's position on the
    /// simulation's virtual clock, in ticks.
    pub fn vtime(&self) -> VirtualTime {
        self.vtime
    }

    /// Logical bits sent through this context so far: the sum of every
    /// [`NodeCtx::send`]'s `logical_bits`, counted exactly as the metrics
    /// sink counts them (self-sends and sends to finished nodes
    /// included). A lane context ([`lanes::LaneMux::spawn`]) starts at 0
    /// and counts only the lane's own sends; the node context the lanes
    /// share does not count what it forwards for them.
    ///
    /// Read twice and subtracted, it gives the cost of one stretch of
    /// protocol in constant time, with no [`MetricsSink::snapshot`].
    pub fn bits_sent(&self) -> u64 {
        self.bits_sent
    }

    /// Shared metrics sink (e.g. for protocol-level custom counters).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Queues a message for delivery at the end of the current round.
    ///
    /// `logical_bits` is the message's size under the algorithm's own
    /// accounting (see [`mvbc_metrics`]); it is what the communication
    /// complexity experiments sum up.
    ///
    /// Sending to self is allowed and delivered like any other message.
    ///
    /// # Panics
    ///
    /// Panics when `to >= n`.
    pub fn send(&mut self, to: NodeId, tag: &'static str, payload: impl Into<Bytes>, logical_bits: u64) {
        assert!(to < self.n, "recipient {to} out of range (n = {})", self.n);
        let payload = payload.into();
        self.metrics
            .record_send(self.id, tag, logical_bits, payload.len() as u64);
        self.bits_sent += logical_bits;
        self.pending.push(Outgoing {
            to,
            msg: Message {
                from: self.id,
                tag,
                payload,
                at: 0,
            },
            logical_bits,
        });
    }

    /// Completes the current round: flushes queued messages and blocks
    /// until every other processor has completed the round too, then
    /// returns the messages delivered to this processor.
    ///
    /// # Panics
    ///
    /// Panics when the coordinator has shut down (another node panicked or
    /// the round limit was hit), and on a lane context, whose rounds only
    /// its [`lanes::LaneMux`] can complete: lane code awaits
    /// [`NodeCtx::next_round`] instead.
    pub fn end_round(&mut self) -> Inbox {
        let Link::Node { to_coord, from_coord } = &self.link else {
            panic!("end_round() on a lane context: lane code must await next_round()");
        };
        let outgoing = std::mem::take(&mut self.pending);
        to_coord
            .send(CoordMsg::Submit {
                from: self.id,
                outgoing,
            })
            .expect("coordinator alive");
        let inbox = from_coord.recv().expect("coordinator delivers a round inbox");
        self.finish_round(inbox)
    }

    /// Completes the current round like [`NodeCtx::end_round`], as a
    /// future: protocol code that ends rounds is `async` and awaits this.
    ///
    /// On a simulator node's context the first poll does the blocking
    /// [`NodeCtx::end_round`] and is ready, so [`block_on`] runs such
    /// code to completion in one poll. On a lane context the first poll
    /// parks the round's messages for the lane's [`lanes::LaneMux`] and
    /// yields; the mux's next step resumes it with the routed inbox.
    pub async fn next_round(&mut self) -> Inbox {
        let Link::Lane(link) = &self.link else {
            return self.end_round();
        };
        let link = link.clone();
        link.submission.set(Some(std::mem::take(&mut self.pending)));
        let mut parked = false;
        std::future::poll_fn(|_| {
            if std::mem::replace(&mut parked, true) { Poll::Ready(()) } else { Poll::Pending }
        })
        .await;
        let inbox = link.inbox.take().expect("a lane resumes only after its mux routed its inbox");
        self.finish_round(inbox)
    }

    /// Counts a completed round whose deliveries are `inbox`.
    fn finish_round(&mut self, inbox: Inbox) -> Inbox {
        self.round += 1;
        self.vtime = inbox.vtime;
        inbox
    }
}

/// Runs a protocol future to completion on the calling thread.
///
/// Every `async` protocol function of the workspace ends its rounds with
/// [`NodeCtx::next_round`]; on a simulator node's context each of those
/// completes at once, so one poll runs the future to its end. This is
/// the whole executor of the synchronous entry points (`run_bsb_batch`,
/// `run_consensus`, `run_replicated_log`, ...).
///
/// # Panics
///
/// Panics when the future is not ready after one poll: it awaited a lane
/// context's round, and lane futures run only under their
/// [`lanes::LaneMux`].
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    match future.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(output) => output,
        Poll::Pending => panic!(
            "block_on: the future awaited a lane context's round; \
             lane futures must be driven by their LaneMux"
        ),
    }
}

/// The boxed per-node logic closure executed by [`run_simulation`].
pub type NodeLogic<O> = Box<dyn FnOnce(&mut NodeCtx) -> O + Send>;

/// Coordinator-side state of an event-driven run.
struct EventState {
    model: NetModel,
    /// Per-node dispatch time of the *next* round: its last round-end
    /// plus the model's compute ticks.
    clocks: Vec<VirtualTime>,
    /// Last delivery tick per directed link `[from][to]`: sampled
    /// latencies are clamped to it so links stay FIFO under jitter and a
    /// recipient's per-sender inbox order always equals send order.
    link_last: Vec<Vec<VirtualTime>>,
    /// Seeded jitter stream ([`NetModel::seed`]).
    rng: StdRng,
}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimResult<O> {
    /// Output of each node's logic, indexed by node id.
    pub outputs: Vec<O>,
    /// Rounds executed.
    pub rounds: u64,
    /// Final virtual time: the latest round-end tick across all nodes
    /// (equals `rounds` under the round-barrier policy).
    pub vtime: VirtualTime,
}

/// Runs `n` node closures to completion under the synchronous round model.
///
/// Each closure runs on its own thread; outputs are collected by node id.
/// Byzantine "crash"/"silence" is modelled by a closure returning early.
///
/// # Panics
///
/// Panics if any node logic panics (the panic is propagated with the node
/// id), if `nodes.len() != config.n`, or if `config.max_rounds` is
/// exceeded.
pub fn run_simulation<O: Send + 'static>(
    config: SimConfig,
    metrics: MetricsSink,
    nodes: Vec<NodeLogic<O>>,
) -> SimResult<O> {
    run_simulation_traced(config, metrics, None, nodes)
}

/// As [`run_simulation`], additionally recording every delivered message
/// into `trace` (when supplied). Tracing does not change scheduling or
/// results — the simulator is deterministic either way — so a traced run
/// is bit-identical to an untraced one.
///
/// # Panics
///
/// As [`run_simulation`].
pub fn run_simulation_traced<O: Send + 'static>(
    config: SimConfig,
    metrics: MetricsSink,
    trace: Option<trace::TraceSink>,
    nodes: Vec<NodeLogic<O>>,
) -> SimResult<O> {
    let n = config.n;
    assert!(n > 0, "simulation needs at least one node");
    assert_eq!(nodes.len(), n, "one logic closure per node required");

    let (to_coord, coord_rx) = channel::unbounded::<CoordMsg>();

    std::thread::scope(|scope| {
        let mut node_txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (id, logic) in nodes.into_iter().enumerate() {
            let (tx, rx) = channel::unbounded::<Inbox>();
            node_txs.push(tx);
            let to_coord = to_coord.clone();
            let metrics = metrics.clone();
            handles.push(scope.spawn(move || {
                let mut ctx = NodeCtx {
                    id,
                    n,
                    round: 0,
                    vtime: 0,
                    bits_sent: 0,
                    pending: Vec::new(),
                    link: Link::Node {
                        to_coord: to_coord.clone(),
                        from_coord: rx,
                    },
                    metrics,
                };
                // Always announce termination, even on panic, so the
                // coordinator never wedges; the panic is re-raised and
                // surfaced with the node id at join time.
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| logic(&mut ctx)));
                let _ = to_coord.send(CoordMsg::Finished { from: id });
                match result {
                    Ok(out) => out,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }));
        }
        drop(to_coord);

        // Coordinator loop (runs on the scope's owning thread).
        let pool = InboxPool::with_cap(2 * n);
        let mut active = vec![true; n];
        let mut active_count = n;
        let mut rounds: u64 = 0;
        // The simulation's virtual clock: the latest round-end tick
        // routed so far. Under the round-barrier policy it tracks the
        // round counter exactly.
        let mut vtime_now: VirtualTime = 0;
        let mut event_state = match &config.policy {
            SchedulingPolicy::RoundBarrier => None,
            SchedulingPolicy::EventDriven(model) => {
                model.topology.validate(n);
                assert!(model.compute_ticks >= 1, "compute_ticks must be at least 1");
                for p in &model.partitions {
                    assert!(
                        p.start < p.heal,
                        "partition heals at {} before it starts at {}",
                        p.heal,
                        p.start
                    );
                    for &node in &p.island {
                        assert!(node < n, "partition island node {node} out of range (n = {n})");
                    }
                }
                Some(EventState {
                    clocks: vec![0; n],
                    link_last: vec![vec![0; n]; n],
                    rng: StdRng::seed_from_u64(model.seed),
                    model: model.clone(),
                })
            }
        };
        // Optional telemetry (attached via `MetricsSink::with_telemetry`):
        // per-link delivery accounting, partition outage windows, and the
        // largest round's delivery count. Purely observational — it adds no
        // messages and moves no timestamps, so trace digests are
        // unchanged whether or not a recorder is attached.
        let telemetry = metrics.telemetry();
        if let (Some(st), Some(tel)) = (&event_state, &telemetry) {
            for p in &st.model.partitions {
                let behavior = match p.behavior {
                    PartitionBehavior::Drop => "drop",
                    PartitionBehavior::Delay => "delay",
                };
                tel.register_outage(p.start, p.heal, behavior);
            }
        }
        // One round's messages with their arrival ticks (reused).
        let mut deliveries: Vec<(VirtualTime, Outgoing)> = Vec::new();
        while active_count > 0 {
            let mut submissions: Vec<Option<Vec<Outgoing>>> = (0..n).map(|_| None).collect();
            let mut waiting = active_count;
            while waiting > 0 {
                let msg = match coord_rx.recv_timeout(config.round_timeout) {
                    Ok(msg) => msg,
                    Err(e) => {
                        let missing: Vec<NodeId> = (0..n)
                            .filter(|&i| active[i] && submissions[i].is_none())
                            .collect();
                        panic!(
                            "simulation wedged in round {}: node(s) {missing:?} never submitted \
                             within {:?} under the {} policy at virtual time {vtime_now} \
                             ({waiting} of {active_count} active node(s) outstanding, \
                             channel state: {e:?})",
                            rounds + 1,
                            config.round_timeout,
                            config.policy.name(),
                        );
                    }
                };
                match msg {
                    CoordMsg::Submit { from, outgoing } => {
                        assert!(
                            submissions[from].is_none(),
                            "node {from} submitted twice in one round"
                        );
                        submissions[from] = Some(outgoing);
                        waiting -= 1;
                    }
                    CoordMsg::Finished { from } => {
                        if active[from] {
                            active[from] = false;
                            active_count -= 1;
                            // A node that had already submitted this round and
                            // then finished: its submission stays valid.
                            if submissions[from].is_none() {
                                waiting -= 1;
                            }
                        }
                    }
                }
            }
            if active_count == 0 && submissions.iter().all(Option::is_none) {
                break;
            }
            rounds += 1;
            if let Some(limit) = config.max_rounds {
                assert!(rounds <= limit, "round limit {limit} exceeded");
            }
            metrics.record_round();
            // Stamp every message with its arrival tick, in stamp order:
            // senders in id order, send order within a sender.
            let mut round_end = match &mut event_state {
                // Round barrier: the round counter is every message's
                // arrival tick and every node's round end.
                None => {
                    deliveries.extend(submissions.into_iter().flatten().flatten().map(|out| (rounds, out)));
                    vec![rounds; n]
                }
                // Event-driven: sample a latency per message (so the
                // jitter stream is a pure function of the send pattern),
                // apply partitions at dispatch time and clamp each
                // directed link to FIFO. A node's round ends no earlier
                // than its dispatch tick.
                Some(st) => {
                    for (from, sub) in submissions.into_iter().enumerate() {
                        let Some(sub) = sub else { continue };
                        let dispatch = st.clocks[from];
                        for out in sub {
                            // Sample before the partition check so the
                            // jitter stream does not depend on the
                            // partition schedule: with and without a
                            // partition, the same seed yields the same
                            // latencies for the surviving messages.
                            let latency = st
                                .model
                                .link
                                .sample(st.model.same_cluster(from, out.to), &mut st.rng);
                            let mut base = dispatch;
                            let mut dropped = false;
                            for (cut, p) in st.model.partitions.iter().enumerate() {
                                if p.cuts(dispatch, from, out.to) {
                                    match p.behavior {
                                        PartitionBehavior::Drop => dropped = true,
                                        PartitionBehavior::Delay => base = base.max(p.heal),
                                    }
                                    if let Some(tel) = &telemetry {
                                        tel.record_outage_hit(cut, dropped);
                                    }
                                    break;
                                }
                            }
                            if dropped {
                                // Lost at the cut: no delivery, no trace
                                // event. The send itself was already
                                // metered — the bits left the sender.
                                continue;
                            }
                            let link_last = &mut st.link_last[from][out.to];
                            let at = base.saturating_add(latency).max(*link_last);
                            *link_last = at;
                            deliveries.push((at, out));
                        }
                    }
                    if let Some(tel) = &telemetry {
                        tel.record_queue_depth(deliveries.len() as u64);
                    }
                    st.clocks.clone()
                }
            };
            // Deliver in arrival order. The sort is stable, so ties keep
            // stamp order — a barrier round keeps it entirely.
            deliveries.sort_by_key(|&(at, _)| at);
            // Recipients see messages grouped by sender id. Buffers come
            // from the recycling pool: nodes return them when they drop
            // the previous round's inbox.
            let mut inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::pooled(n, &pool)).collect();
            for (at, mut out) in deliveries.drain(..) {
                out.msg.at = at;
                if let (Some(st), Some(tel)) = (&event_state, &telemetry) {
                    // Delivery delay: sampled latency plus any partition
                    // hold and FIFO clamping (clocks still hold this
                    // round's dispatch times).
                    tel.record_link(
                        out.msg.from,
                        out.to,
                        out.msg.payload.len() as u64,
                        at - st.clocks[out.msg.from],
                    );
                }
                if let Some(trace) = &trace {
                    trace.record(trace::TraceEvent {
                        round: rounds,
                        from: out.msg.from,
                        to: out.to,
                        tag: out.msg.tag,
                        logical_bits: out.logical_bits,
                        payload_bytes: out.msg.payload.len() as u64,
                        vtime: at,
                    });
                }
                if active[out.to] {
                    round_end[out.to] = round_end[out.to].max(at);
                    inboxes[out.to].by_sender[out.msg.from].push(out.msg);
                }
            }
            for (id, inbox) in inboxes.iter_mut().enumerate() {
                inbox.vtime = round_end[id];
                vtime_now = vtime_now.max(round_end[id]);
                if let Some(st) = &mut event_state {
                    st.clocks[id] = round_end[id].saturating_add(st.model.compute_ticks);
                }
            }
            if let Some(limit) = config.max_vtime {
                assert!(
                    vtime_now <= limit,
                    "virtual time limit {limit} exceeded (virtual time {vtime_now} at round {rounds})"
                );
            }
            for (id, inbox) in inboxes.into_iter().enumerate() {
                if active[id] {
                    // A send error means the node finished right after
                    // submitting; it will be deactivated via Finished.
                    let _ = node_txs[id].send(inbox);
                }
            }
        }

        let outputs: Vec<O> = handles
            .into_iter()
            .enumerate()
            .map(|(id, h)| match h.join() {
                Ok(o) => o,
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| e.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic>");
                    panic!("node {id} panicked: {msg}");
                }
            })
            .collect();
        SimResult {
            outputs,
            rounds,
            vtime: vtime_now,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    type Logic<O> = Box<dyn FnOnce(&mut NodeCtx) -> O + Send>;

    fn run<O: Send + 'static>(n: usize, mk: impl Fn(usize) -> Logic<O>) -> (SimResult<O>, MetricsSink) {
        let metrics = MetricsSink::new();
        let logics = (0..n).map(&mk).collect();
        let res = run_simulation(SimConfig::new(n), metrics.clone(), logics);
        (res, metrics)
    }

    #[test]
    fn all_to_all_exchange() {
        let (res, metrics) = run(4, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                for to in 0..ctx.n() {
                    if to != ctx.id() {
                        ctx.send(to, "ping", vec![ctx.id() as u8], 8);
                    }
                }
                let inbox = ctx.end_round();
                let mut got: Vec<usize> = (0..ctx.n())
                    .filter(|&s| !inbox.from_sender(s).is_empty())
                    .collect();
                got.sort_unstable();
                got
            })
        });
        for (id, got) in res.outputs.iter().enumerate() {
            let expect: Vec<usize> = (0..4).filter(|&s| s != id).collect();
            assert_eq!(*got, expect);
        }
        assert_eq!(res.rounds, 1);
        let snap = metrics.snapshot();
        assert_eq!(snap.total_messages(), 12);
        assert_eq!(snap.total_logical_bits(), 96);
        assert_eq!(snap.rounds(), 1);
    }

    #[test]
    fn bits_sent_counts_what_the_sink_counts() {
        let (res, metrics) = run(2, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 1 {
                    return 0; // finished before node 0's sends
                }
                assert_eq!(ctx.bits_sent(), 0);
                // Round 1 retires node 1, so round 2's send to it is
                // never delivered, yet it was sent and metered.
                ctx.end_round();
                ctx.send(0, "self", vec![1], 8);
                ctx.send(1, "gone", vec![2, 3], 16);
                assert_eq!(ctx.bits_sent(), 24);
                let inbox = ctx.end_round();
                assert_eq!(inbox.len(), 1, "only the self-send is delivered");
                ctx.bits_sent()
            })
        });
        assert_eq!(res.outputs, vec![24, 0]);
        assert_eq!(metrics.snapshot().logical_bits_by_node(0), 24);
    }

    #[test]
    fn multi_round_pipeline() {
        // Token passes 0 -> 1 -> 2 -> 0 over three rounds.
        let (res, _) = run(3, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                let mut token: Option<u8> = (ctx.id() == 0).then_some(42);
                for _ in 0..3 {
                    if let Some(t) = token.take() {
                        ctx.send((ctx.id() + 1) % ctx.n(), "tok", vec![t], 8);
                    }
                    let mut inbox = ctx.end_round();
                    let prev = (ctx.id() + ctx.n() - 1) % ctx.n();
                    if let Some(b) = inbox.take(prev, "tok") {
                        token = Some(b[0]);
                    }
                }
                token
            })
        });
        assert_eq!(res.outputs, vec![Some(42), None, None]);
        assert_eq!(res.rounds, 3);
    }

    #[test]
    fn early_finisher_does_not_deadlock() {
        // Node 2 "crashes" immediately; others exchange for 2 rounds.
        let (res, _) = run(3, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 2 {
                    return 0usize;
                }
                let mut received = 0usize;
                for _ in 0..2 {
                    for to in 0..ctx.n() {
                        if to != ctx.id() {
                            ctx.send(to, "x", Bytes::new(), 1);
                        }
                    }
                    let inbox = ctx.end_round();
                    received += inbox.len();
                }
                received
            })
        });
        // Each active node hears only from the other active node.
        assert_eq!(res.outputs[0], 2);
        assert_eq!(res.outputs[1], 2);
        assert_eq!(res.outputs[2], 0);
    }

    #[test]
    fn messages_to_finished_nodes_are_dropped() {
        let (res, metrics) = run(2, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 1 {
                    return 0usize;
                }
                ctx.send(1, "into-void", vec![1, 2, 3], 24);
                let inbox = ctx.end_round();
                inbox.len()
            })
        });
        assert_eq!(res.outputs[0], 0);
        // The send is still *counted*: the bits were transmitted.
        assert_eq!(metrics.snapshot().total_logical_bits(), 24);
    }

    #[test]
    fn sender_identity_is_authenticated() {
        // Receiver sees the true `from` regardless of payload claims.
        let (res, _) = run(2, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 0 {
                    // claims to be node 7 in the payload
                    ctx.send(1, "spoof", vec![7u8], 8);
                    ctx.end_round();
                    None
                } else {
                    let inbox = ctx.end_round();
                    inbox.from_sender(0).first().map(|m| m.from)
                }
            })
        });
        assert_eq!(res.outputs[1], Some(0));
    }

    #[test]
    fn take_consumes_messages_in_order() {
        let (res, _) = run(2, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id == 0 {
                    ctx.send(1, "a", vec![1], 8);
                    ctx.send(1, "b", vec![2], 8);
                    ctx.send(1, "a", vec![3], 8);
                    ctx.end_round();
                    Vec::new()
                } else {
                    let mut inbox = ctx.end_round();
                    let mut got = Vec::new();
                    got.push(inbox.take(0, "a").unwrap()[0]);
                    got.push(inbox.take(0, "a").unwrap()[0]);
                    assert!(inbox.take(0, "a").is_none());
                    got.push(inbox.take(0, "b").unwrap()[0]);
                    got
                }
            })
        });
        assert_eq!(res.outputs[1], vec![1, 3, 2]);
    }

    #[test]
    fn self_send_is_delivered() {
        let (res, _) = run(1, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                ctx.send(0, "self", vec![9], 8);
                let mut inbox = ctx.end_round();
                inbox.take(0, "self").map(|b| b[0])
            })
        });
        assert_eq!(res.outputs[0], Some(9));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        let _ = run(1, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                ctx.send(5, "bad", Bytes::new(), 0);
            })
        });
    }

    #[test]
    #[should_panic(expected = "round limit")]
    fn round_limit_enforced() {
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<()>> = vec![Box::new(|ctx| loop {
            ctx.end_round();
        })];
        let cfg = SimConfig {
            max_rounds: Some(10),
            ..SimConfig::new(1)
        };
        let _ = run_simulation(cfg, metrics, logics);
    }

    #[test]
    #[should_panic(expected = "node 0 panicked")]
    fn node_panic_propagates() {
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<()>> = vec![Box::new(|_| panic!("boom"))];
        let _ = run_simulation(SimConfig::new(1), metrics, logics);
    }

    #[test]
    fn scoped_tags_intern_and_compose() {
        let a = scoped_tag("smr.slot3", "dispersal.symbol");
        let b = scoped_tag(&format!("smr.slot{}", 3), "dispersal.symbol");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "smr.slot3.dispersal.symbol");
        assert_eq!(slot_scope("smr", 7), "smr.slot7");
        assert_ne!(slot_scope("smr", 7), slot_scope("smr", 8));
    }

    #[test]
    fn round_timeout_is_configurable() {
        let cfg = SimConfig::new(2).with_round_timeout(Duration::from_secs(5));
        assert_eq!(cfg.round_timeout, Duration::from_secs(5));
        assert_eq!(SimConfig::new(2).round_timeout, DEFAULT_ROUND_TIMEOUT);
        // A short timeout still completes a healthy run.
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<u64>> = (0..2)
            .map(|_| {
                Box::new(|ctx: &mut NodeCtx| {
                    ctx.end_round();
                    ctx.round()
                }) as NodeLogic<u64>
            })
            .collect();
        let res = run_simulation(cfg, metrics, logics);
        assert_eq!(res.outputs, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "simulation wedged in round 2: node(s) [1] never submitted")]
    // The stall is the point of the test: a real thread must out-sleep
    // the wedge timeout. Exempt from the clippy determinism mirror.
    #[allow(clippy::disallowed_methods)]
    fn wedge_panic_names_missing_nodes_and_round() {
        // Node 1 completes round 1 and then stalls (sleeps past the
        // timeout before finishing); node 0 keeps going. The coordinator
        // must name the stalled node and the wedged round.
        let metrics = MetricsSink::new();
        let logics: Vec<NodeLogic<()>> = (0..2)
            .map(|id| {
                Box::new(move |ctx: &mut NodeCtx| {
                    ctx.end_round();
                    if id == 1 {
                        std::thread::sleep(Duration::from_millis(400));
                    } else {
                        ctx.end_round();
                    }
                }) as NodeLogic<()>
            })
            .collect();
        let cfg = SimConfig::new(2).with_round_timeout(Duration::from_millis(50));
        let _ = run_simulation(cfg, metrics, logics);
    }

    #[test]
    fn inbox_pool_recycles_and_caps() {
        let pool = InboxPool::with_cap(2);
        let shell = pool.take(3);
        assert_eq!(shell.len(), 3);
        // Dropping a pooled inbox returns its (cleared) buffers.
        {
            let mut inbox = Inbox::pooled(3, &pool);
            inbox.by_sender[1].push(Message {
                from: 1,
                tag: "t",
                payload: Bytes::new(),
                at: 0,
            });
        }
        let recycled = pool.take(3);
        assert!(recycled.iter().all(Vec::is_empty), "shells come back drained");
        // The cap bounds retention.
        pool.put(vec![Vec::new(); 3]);
        pool.put(vec![Vec::new(); 3]);
        pool.put(vec![Vec::new(); 3]);
        assert!(
            pool.shells
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
                <= 2
        );
        // Shells are resized to the requested width on reuse.
        pool.put(vec![Vec::new(); 7]);
        assert_eq!(pool.take(2).len(), 2);
        // Clones are detached: dropping one never double-returns.
        let inbox = Inbox::pooled(2, &pool);
        let clone = inbox.clone();
        drop(clone);
        drop(inbox);
    }

    #[test]
    fn drain_messages_yields_sender_order_and_empties() {
        let (res, _) = run(3, |id| {
            Box::new(move |ctx: &mut NodeCtx| {
                if id != 2 {
                    ctx.send(2, "m", vec![id as u8], 8);
                    ctx.send(2, "m", vec![id as u8 + 10], 8);
                    ctx.end_round();
                    return Vec::new();
                }
                let mut inbox = ctx.end_round();
                let drained: Vec<(usize, u8)> =
                    inbox.drain_messages().map(|m| (m.from, m.payload[0])).collect();
                assert!(inbox.is_empty());
                drained
            })
        });
        assert_eq!(res.outputs[2], vec![(0, 0), (0, 10), (1, 1), (1, 11)]);
    }

    #[test]
    fn rounds_match_between_result_and_metrics() {
        let (res, metrics) = run(2, |_| {
            Box::new(|ctx: &mut NodeCtx| {
                for _ in 0..5 {
                    ctx.end_round();
                }
            })
        });
        assert_eq!(res.rounds, 5);
        assert_eq!(metrics.snapshot().rounds(), 5);
    }

    // --- event-driven scheduling ---

    fn run_with<O: Send + 'static>(
        cfg: SimConfig,
        mk: impl Fn(usize) -> Logic<O>,
    ) -> SimResult<O> {
        let logics = (0..cfg.n).map(&mk).collect();
        run_simulation(cfg, MetricsSink::new(), logics)
    }

    /// Both nodes ping each other every round for `rounds` rounds.
    fn ping_pong(rounds: usize) -> impl Fn(usize) -> Logic<Vec<VirtualTime>> {
        move |_| {
            Box::new(move |ctx: &mut NodeCtx| {
                let mut ends = Vec::new();
                for _ in 0..rounds {
                    ctx.send(1 - ctx.id(), "ping", vec![1u8], 8);
                    let inbox = ctx.end_round();
                    assert_eq!(inbox.vtime(), ctx.vtime());
                    ends.push(ctx.vtime());
                }
                ends
            })
        }
    }

    #[test]
    fn round_barrier_vtime_is_the_round_counter() {
        let res = run_with(SimConfig::new(2), ping_pong(3));
        assert_eq!(res.rounds, 3);
        assert_eq!(res.vtime, 3, "round-barrier virtual time == rounds");
        assert_eq!(res.outputs[0], vec![1, 2, 3]);
    }

    #[test]
    fn fixed_latency_advances_the_virtual_clock() {
        let model = NetModel::new(LinkModel::Fixed(50), Topology::Clique).with_compute_ticks(10);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(cfg, ping_pong(3));
        // Round k ends at arrival of the peer's ping: dispatch + 50,
        // with dispatch advancing by (50 + 10) per round.
        assert_eq!(res.outputs[0], vec![50, 110, 170]);
        assert_eq!(res.outputs[1], vec![50, 110, 170]);
        assert_eq!(res.rounds, 3);
        assert_eq!(res.vtime, 170);
    }

    #[test]
    fn jitter_respects_bounds_and_link_fifo() {
        let model = NetModel::new(
            LinkModel::UniformJitter { base: 100, jitter: 40 },
            Topology::Clique,
        )
        .with_seed(42);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(
            cfg,
            |_| {
                Box::new(|ctx: &mut NodeCtx| {
                    // Two same-round messages on one link must not reorder.
                    ctx.send(1 - ctx.id(), "a", vec![1u8], 8);
                    ctx.send(1 - ctx.id(), "b", vec![2u8], 8);
                    let inbox = ctx.end_round();
                    let msgs = inbox.from_sender(1 - ctx.id());
                    assert_eq!(msgs.len(), 2);
                    assert_eq!(msgs[0].tag, "a", "link FIFO preserves send order");
                    assert!(msgs[0].at <= msgs[1].at);
                    for m in msgs {
                        assert!((100..=140).contains(&m.at), "jitter bounds: {}", m.at);
                    }
                    ctx.vtime()
                }) as Logic<VirtualTime>
            },
        );
        assert!((100..=140).contains(&res.vtime));
    }

    #[test]
    fn wan_links_are_slower_across_clusters() {
        let model = NetModel::new(
            LinkModel::Wan { intra: 10, inter: 1000, jitter: 0 },
            Topology::Clusters(vec![2, 2]),
        );
        let cfg = SimConfig::new(4).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(
            cfg,
            |_| {
                Box::new(|ctx: &mut NodeCtx| {
                    for to in 0..ctx.n() {
                        if to != ctx.id() {
                            ctx.send(to, "m", vec![1u8], 8);
                        }
                    }
                    let inbox = ctx.end_round();
                    let same = if ctx.id() < 2 { 1 - ctx.id() } else { 5 - ctx.id() };
                    let far = (ctx.id() + 2) % 4;
                    (inbox.from_sender(same)[0].at, inbox.from_sender(far)[0].at)
                }) as Logic<(VirtualTime, VirtualTime)>
            },
        );
        for &(near, far) in &res.outputs {
            assert_eq!(near, 10);
            assert_eq!(far, 1000);
        }
        assert_eq!(res.vtime, 1000, "the round waits for the WAN stragglers");
    }

    #[test]
    fn partition_drop_loses_crossings_and_delay_defers_them() {
        let topo = Topology::Clusters(vec![1, 1]);
        for (behavior, expect_lost) in
            [(PartitionBehavior::Drop, true), (PartitionBehavior::Delay, false)]
        {
            let model = NetModel::new(LinkModel::Fixed(10), topo.clone())
                .with_partition(Partition {
                    start: 0,
                    heal: 500,
                    island: vec![1],
                    behavior,
                });
            let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
            let res = run_with(
                cfg,
                |_| {
                    Box::new(|ctx: &mut NodeCtx| {
                        ctx.send(1 - ctx.id(), "x", vec![1u8], 8);
                        let inbox = ctx.end_round();
                        inbox.from_sender(1 - ctx.id()).first().map(|m| m.at)
                    }) as Logic<Option<VirtualTime>>
                },
            );
            if expect_lost {
                assert_eq!(res.outputs, vec![None, None], "drop partitions lose crossings");
            } else {
                // Delayed crossings arrive at heal + latency; the round
                // stretches past the heal instead of losing the message.
                assert_eq!(res.outputs, vec![Some(510), Some(510)]);
                assert_eq!(res.vtime, 510);
            }
        }
    }

    #[test]
    fn healed_partition_restores_normal_latency() {
        // Round-1 dispatches (t = 0) cross the active cut and are
        // delayed to heal + latency; once healed, later rounds flow at
        // plain link latency again.
        let model = NetModel::new(LinkModel::Fixed(10), Topology::Clusters(vec![1, 1]))
            .with_partition(Partition {
                start: 0,
                heal: 100,
                island: vec![0],
                behavior: PartitionBehavior::Delay,
            });
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(cfg, ping_pong(2));
        // Round 1 ends at 110 for both; round-2 dispatch at 111 is past
        // the heal, so round 2 ends at 121.
        assert_eq!(res.outputs[0], vec![110, 121]);
        assert_eq!(res.outputs[1], vec![110, 121]);
    }

    #[test]
    fn event_driven_runs_are_deterministic() {
        let mk = || {
            let model = NetModel::new(
                LinkModel::Wan { intra: 50, inter: 2000, jitter: 300 },
                Topology::Clusters(vec![2, 1]),
            )
            .with_seed(7);
            SimConfig::new(3).with_policy(SchedulingPolicy::EventDriven(model))
        };
        let run_once = || {
            run_with(mk(), |_| {
                Box::new(|ctx: &mut NodeCtx| {
                    let mut arrivals = Vec::new();
                    for _ in 0..4 {
                        for to in 0..ctx.n() {
                            ctx.send(to, "m", vec![ctx.id() as u8], 8);
                        }
                        let mut inbox = ctx.end_round();
                        arrivals.extend(inbox.drain_messages().map(|m| (m.from, m.at)));
                    }
                    arrivals
                }) as Logic<Vec<(usize, VirtualTime)>>
            })
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a.outputs, b.outputs, "same seed, same delivery schedule");
        assert_eq!(a.vtime, b.vtime);
    }

    #[test]
    fn max_latency_saturates_the_clock() {
        let model = NetModel::new(LinkModel::Fixed(VirtualTime::MAX), Topology::Clique);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(cfg, ping_pong(2));
        assert_eq!(res.rounds, 2);
        assert_eq!(res.outputs[0], vec![VirtualTime::MAX; 2]);
        assert_eq!(res.vtime, VirtualTime::MAX);
    }

    #[test]
    fn delay_cut_healing_at_the_top_saturates_the_clock() {
        let model = NetModel::new(LinkModel::Fixed(10), Topology::Clusters(vec![1, 1]))
            .with_partition(Partition::of_node(1, 0, VirtualTime::MAX, PartitionBehavior::Delay));
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let res = run_with(cfg, ping_pong(2));
        assert_eq!(res.rounds, 2);
        assert_eq!(res.outputs[1], vec![VirtualTime::MAX; 2]);
        assert_eq!(res.vtime, VirtualTime::MAX);
    }

    /// One traced event-driven round in which node `id` sends to each
    /// recipient of `sends(id)` in order, numbering its messages in
    /// their payload and logical bits.
    struct TracedRound {
        /// Trace events as `(from, to, number, vtime)`.
        trace: Vec<(NodeId, NodeId, u64, VirtualTime)>,
        /// Each node's inbox as `(from, number, at)`.
        inboxes: Vec<Vec<(NodeId, u64, VirtualTime)>>,
    }

    fn traced_round(n: usize, model: NetModel, sends: fn(NodeId) -> Vec<NodeId>) -> TracedRound {
        let trace = trace::TraceSink::new();
        let cfg = SimConfig::new(n).with_policy(SchedulingPolicy::EventDriven(model));
        let logics = (0..n)
            .map(|_| {
                Box::new(move |ctx: &mut NodeCtx| {
                    for (i, to) in sends(ctx.id()).into_iter().enumerate() {
                        ctx.send(to, "m", vec![i as u8], i as u64);
                    }
                    let mut inbox = ctx.end_round();
                    inbox.drain_messages().map(|m| (m.from, u64::from(m.payload[0]), m.at)).collect()
                }) as Logic<Vec<(NodeId, u64, VirtualTime)>>
            })
            .collect();
        let res = run_simulation_traced(cfg, MetricsSink::new(), Some(trace.clone()), logics);
        TracedRound {
            trace: trace.events().iter().map(|e| (e.from, e.to, e.logical_bits, e.vtime)).collect(),
            inboxes: res.outputs,
        }
    }

    #[test]
    fn ties_at_one_tick_keep_stamp_order() {
        // Nodes 0 and 1 share a site, node 2 is across the WAN. Each of
        // 0 and 1 alternates 25 sends to its neighbour (tick 5) with 25
        // to node 2 (tick 50), so the round really needs sorting, and
        // node 2 gets two senders' worth of same-link ties at tick 50.
        let model = NetModel::new(
            LinkModel::Wan { intra: 5, inter: 50, jitter: 0 },
            Topology::Clusters(vec![2, 1]),
        );
        let round = traced_round(3, model, |id| match id {
            2 => Vec::new(),
            _ => (0..50).map(|i| if i % 2 == 0 { 2 } else { 1 - id }).collect(),
        });
        // Stamp order within each tick: sender id, then send order.
        let stamped = |from: NodeId, to: NodeId, at| {
            (0..50u64)
                .filter(move |i| (i % 2 == 0) == (to == 2))
                .map(move |i| (from, to, i, at))
        };
        let expect: Vec<_> = stamped(0, 1, 5)
            .chain(stamped(1, 0, 5))
            .chain(stamped(0, 2, 50))
            .chain(stamped(1, 2, 50))
            .collect();
        assert_eq!(round.trace, expect, "deliveries are traced in stamp order");
        let inbox: Vec<_> = expect.iter().filter(|e| e.1 == 2).map(|&(f, _, i, at)| (f, i, at)).collect();
        assert_eq!(round.inboxes[2], inbox, "and delivered in it");
    }

    #[test]
    fn earlier_tick_goes_first_whatever_the_sender() {
        // Node 0 is alone in its site; node 1 shares node 2's site. The
        // higher-id sender's message lands first and is delivered first.
        let model = NetModel::new(
            LinkModel::Wan { intra: 5, inter: 50, jitter: 0 },
            Topology::Clusters(vec![1, 2]),
        );
        let round = traced_round(3, model, |id| if id == 2 { Vec::new() } else { vec![2] });
        assert_eq!(round.trace, vec![(1, 2, 0, 5), (0, 2, 0, 50)]);
        assert_eq!(round.inboxes[2], vec![(0, 0, 50), (1, 0, 5)], "inboxes stay grouped by sender");
    }

    fn run_with_sink<O: Send + 'static>(
        cfg: SimConfig,
        metrics: MetricsSink,
        mk: impl Fn(usize) -> Logic<O>,
    ) -> SimResult<O> {
        let logics = (0..cfg.n).map(&mk).collect();
        run_simulation(cfg, metrics, logics)
    }

    #[test]
    fn telemetry_records_links_and_queue_depth() {
        let model = NetModel::new(LinkModel::Fixed(50), Topology::Clique);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let metrics = MetricsSink::with_telemetry();
        let _ = run_with_sink(cfg, metrics.clone(), ping_pong(3));
        let snap = metrics.telemetry().unwrap().snapshot();
        // Each direction carried one 1-byte ping per round at 50 ticks.
        for key in [(0usize, 1usize), (1, 0)] {
            let link = snap.links[&key];
            assert_eq!(link.messages, 3, "link {key:?}");
            assert_eq!(link.payload_bytes, 3);
            assert_eq!(link.total_delay, 150);
            assert!((link.mean_delay() - 50.0).abs() < 1e-9);
        }
        // Two in-flight deliveries per round.
        assert_eq!(snap.queue_high_water, 2);
        assert!(snap.outages.is_empty());
    }

    #[test]
    fn telemetry_counts_partition_outage_traffic() {
        for (behavior, name) in
            [(PartitionBehavior::Drop, "drop"), (PartitionBehavior::Delay, "delay")]
        {
            let model = NetModel::new(LinkModel::Fixed(10), Topology::Clusters(vec![1, 1]))
                .with_partition(Partition {
                    start: 0,
                    heal: 500,
                    island: vec![1],
                    behavior,
                });
            let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
            let metrics = MetricsSink::with_telemetry();
            let _ = run_with_sink(cfg, metrics.clone(), |_| {
                Box::new(|ctx: &mut NodeCtx| {
                    ctx.send(1 - ctx.id(), "x", vec![1u8], 8);
                    let _ = ctx.end_round();
                }) as Logic<()>
            });
            let snap = metrics.telemetry().unwrap().snapshot();
            assert_eq!(snap.outages.len(), 1);
            let o = &snap.outages[0];
            assert_eq!((o.start, o.heal, o.behavior.as_str()), (0, 500, name));
            // Both crossings of the round hit the cut.
            if o.behavior == "drop" {
                assert_eq!((o.dropped, o.delayed), (2, 0));
                assert!(snap.links.is_empty(), "dropped crossings never deliver");
            } else {
                assert_eq!((o.dropped, o.delayed), (0, 2));
                // Held until the heal: delay = heal + latency - dispatch.
                assert_eq!(snap.links[&(0, 1)].total_delay, 510);
            }
        }
    }

    #[test]
    fn plain_sink_records_no_telemetry_under_event_driven() {
        let model = NetModel::new(LinkModel::Fixed(50), Topology::Clique);
        let cfg = SimConfig::new(2).with_policy(SchedulingPolicy::EventDriven(model));
        let metrics = MetricsSink::new();
        let res = run_with_sink(cfg, metrics.clone(), ping_pong(2));
        assert_eq!(res.rounds, 2);
        assert!(res.vtime >= 100, "two 50-tick rounds ran");
        assert!(metrics.telemetry().is_none());
    }

    #[test]
    #[should_panic(expected = "virtual time limit 100 exceeded")]
    fn max_vtime_is_enforced() {
        let model = NetModel::new(LinkModel::Fixed(60), Topology::Clique);
        let cfg = SimConfig::new(2)
            .with_policy(SchedulingPolicy::EventDriven(model))
            .with_max_vtime(100);
        let _ = run_with(cfg, ping_pong(5));
    }

    #[test]
    #[should_panic(expected = "cluster sizes")]
    fn event_driven_validates_topology_against_n() {
        let model = NetModel::new(LinkModel::Fixed(1), Topology::Clusters(vec![2, 2]));
        let cfg = SimConfig::new(3).with_policy(SchedulingPolicy::EventDriven(model));
        let _ = run_with(cfg, |_| Box::new(|_ctx: &mut NodeCtx| ()) as Logic<()>);
    }
}
