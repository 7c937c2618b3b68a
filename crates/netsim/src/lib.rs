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
//! Processors proceed in lockstep rounds: messages sent during round `r`
//! (via [`NodeCtx::send`]) are delivered to every recipient at the end of
//! round `r` (from [`NodeCtx::next_round`]). The calling thread enforces
//! the round barrier, routes messages, and feeds the [`MetricsSink`] that
//! experiments use to measure communication complexity.
//!
//! # Nodes are futures
//!
//! Protocol code that ends rounds is `async`: it awaits
//! [`NodeCtx::next_round`], which parks the round's messages and yields.
//! Within a round a node only sends, and nothing it does depends on a
//! peer before the round's barrier, so a node needs no thread of its own:
//! [`run_tasks`] builds each node's [`NodeTask`] into a future and polls
//! it once per round. Two workers poll — the calling thread and one
//! scoped thread — each a fixed, contiguous range of node ids; the
//! calling thread then merges the round's submissions by node id and
//! routes them. The split only trades wall-clock time: outputs, traces
//! and metrics are the same for any number of workers. A node can in turn
//! run several protocol executions as [`lanes`] sharing its round barrier,
//! and no code but this driver starts a thread.
//!
//! [`run_simulation`] is the synchronous adapter, for [`NodeLogic`]
//! closures that block in [`NodeCtx::end_round`]: each closure runs on its
//! own scoped thread, whose rounds a per-node bridge task carries through
//! the same driver. On such a thread, [`block_on`] runs async protocol
//! code to completion.
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
//! use mvbc_netsim::{node_task, run_tasks, NodeCtx, SimConfig};
//! use mvbc_metrics::MetricsSink;
//!
//! // Two nodes exchange their ids and report the peer's id.
//! let tasks = (0..2)
//!     .map(|_| {
//!         node_task(async |ctx: &mut NodeCtx| {
//!             let peer = 1 - ctx.id();
//!             ctx.send(peer, "hello", vec![ctx.id() as u8], 8);
//!             let mut inbox = ctx.next_round().await;
//!             inbox.take(peer, "hello").map(|b| b[0] as usize)
//!         })
//!     })
//!     .collect();
//! let out = run_tasks(SimConfig::new(2), MetricsSink::new(), None, tasks);
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
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use mvbc_metrics::{MetricsSink, Telemetry};
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

/// Default for [`SimConfig::round_timeout`]: how long a
/// [`run_simulation`] node's bridge waits for the node thread's round
/// submission before declaring the simulation wedged. Protocol bugs
/// (mismatched `end_round` counts between nodes) surface as this panic
/// instead of a silent hang.
pub const DEFAULT_ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of processors.
    pub n: usize,
    /// Abort the run if it exceeds this many rounds (guards against
    /// run-away protocols in tests). `None` disables the check.
    pub max_rounds: Option<u64>,
    /// How long a [`run_simulation`] node's bridge waits for the node
    /// thread's round submission before declaring the simulation wedged.
    /// Long multi-slot runs on slow machines may need more than
    /// [`DEFAULT_ROUND_TIMEOUT`]. This is a *wall-clock* guard against
    /// protocol bugs in blocking node code; [`run_tasks`] needs none (a
    /// task that yields without submitting its round is a wedge at once),
    /// and for a *virtual-time* budget, see [`SimConfig::max_vtime`].
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
/// drops (which return them, on whichever worker steps the node).
/// Without the pool, routing allocated `vec![Vec::new(); n]` per node per
/// round; with it, a steady-state simulation reuses the same `2n` shells
/// — and their grown inner capacities — for the whole run.
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

/// Where a context's round submissions go.
enum Link {
    /// A node thread of the synchronous adapter ([`run_simulation`]):
    /// submits to its node's bridge task and blocks for the routed inbox.
    Node {
        to_bridge: Sender<Vec<Outgoing>>,
        from_bridge: Receiver<Inbox>,
    },
    /// A driver task ([`run_tasks`]) or a lane ([`lanes::LaneMux::spawn`]):
    /// parks its submission for the driver or the mux, which hands the
    /// routed inbox back on the next poll.
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
    /// A context for node `id` at round 0, submitting through `link`.
    fn with_link(id: NodeId, n: usize, link: Link, metrics: MetricsSink) -> Self {
        NodeCtx {
            id,
            n,
            round: 0,
            vtime: 0,
            bits_sent: 0,
            pending: Vec::new(),
            link,
            metrics,
        }
    }

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
    /// completed round (0 before the first one completes).
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
    /// returns the messages delivered to this processor. Only the
    /// blocking [`NodeLogic`] closures of the synchronous adapter
    /// ([`run_simulation`]) can call this.
    ///
    /// # Panics
    ///
    /// Panics when the simulation has shut down (another node panicked or
    /// a limit was hit), and on a task's or a lane's context, whose rounds
    /// only the driver or the lane's [`lanes::LaneMux`] can complete: such
    /// code awaits [`NodeCtx::next_round`] instead.
    pub fn end_round(&mut self) -> Inbox {
        let Link::Node { to_bridge, from_bridge } = &self.link else {
            panic!("end_round() on a lane context: task and lane code must await next_round()");
        };
        let outgoing = std::mem::take(&mut self.pending);
        to_bridge.send(outgoing).expect("simulation alive");
        let inbox = from_bridge.recv().expect("the driver delivers a round inbox");
        self.finish_round(inbox)
    }

    /// Completes the current round like [`NodeCtx::end_round`], as a
    /// future: protocol code that ends rounds is `async` and awaits this.
    ///
    /// On a task's or a lane's context the first poll parks the round's
    /// messages for the driver ([`run_tasks`]) or the lane's
    /// [`lanes::LaneMux`] and yields; the next poll resumes it with the
    /// routed inbox. On a [`run_simulation`] node thread's context the
    /// first poll does the blocking [`NodeCtx::end_round`] and is ready,
    /// so [`block_on`] runs such code to completion in one poll.
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
        let inbox = link.inbox.take().expect("a task or lane resumes only after its round was routed");
        self.finish_round(inbox)
    }

    /// Counts a completed round whose deliveries are `inbox`.
    fn finish_round(&mut self, inbox: Inbox) -> Inbox {
        self.round += 1;
        self.vtime = inbox.vtime;
        inbox
    }
}

/// Runs a protocol future to completion on a node thread of the
/// synchronous adapter ([`run_simulation`]).
///
/// Every `async` protocol function of the workspace ends its rounds with
/// [`NodeCtx::next_round`]; on such a thread's context each of those
/// completes at once, so one poll runs the future to its end. This is
/// the whole executor of the synchronous entry points (`run_bsb_batch`,
/// `run_consensus`, `run_replicated_log`, ...); a [`NodeTask`] awaits
/// their async forms instead.
///
/// # Panics
///
/// Panics when the future is not ready after one poll: it awaited a
/// task's or a lane's round, which only the driver or the lane's
/// [`lanes::LaneMux`] can complete.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    match future.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(output) => output,
        Poll::Pending => panic!(
            "block_on: the future awaited a task's or a lane's round; task futures must be \
             driven by run_tasks, lane futures must be driven by their LaneMux"
        ),
    }
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

/// The boxed per-node logic closure executed by [`run_simulation`], the
/// synchronous adapter: it runs on a thread of its own and ends rounds
/// with the blocking [`NodeCtx::end_round`] (or [`block_on`]).
pub type NodeLogic<O> = Box<dyn FnOnce(&mut NodeCtx) -> O + Send>;

/// The future of one node's protocol; it lives on the worker that built
/// it.
type NodeFuture<O> = Pin<Box<dyn Future<Output = O>>>;

/// One node's protocol for [`run_tasks`], built by [`node_task`].
///
/// The task is `Send`, so it can move to the worker that steps its node;
/// the future it builds there is not, and never leaves that worker.
pub struct NodeTask<O>(Box<dyn FnOnce(NodeCtx) -> NodeFuture<O> + Send>);

/// Wraps `logic`, an async closure running one node's protocol against
/// the node's [`NodeCtx`], as a [`NodeTask`].
///
/// Inside it, await the async forms of the protocol entry points: every
/// [`NodeCtx::next_round`] yields the node to the driver until the round
/// is routed. The blocking [`NodeCtx::end_round`] and [`block_on`] panic
/// on a task's context.
pub fn node_task<O, F>(logic: F) -> NodeTask<O>
where
    O: 'static,
    F: AsyncFnOnce(&mut NodeCtx) -> O + Send + 'static,
{
    NodeTask(Box::new(move |mut ctx: NodeCtx| {
        Box::pin(async move { logic(&mut ctx).await })
    }))
}

/// How many workers [`run_tasks`] steps the nodes on: the calling thread
/// plus one scoped thread (fewer when `n` is smaller). A constant, not a
/// machine-shape read, so every host splits the nodes the same way; the
/// results are the same for every count (see [`drive`]).
const WORKERS: usize = 2;

/// What one node did when polled for a round.
enum Step<O> {
    /// Parked the round's messages and awaits the round's inbox.
    Submitted(Vec<Outgoing>),
    /// Returned its output; whatever it sent after its last round is
    /// dropped with its context.
    Finished(O),
    /// Panicked, with the panic's message.
    Panicked(String),
    /// Yielded without parking a submission: it awaited something that
    /// is not its round, which nothing will ever complete.
    Wedged,
}

/// A node as a lane of the driver: its future and the cell its context
/// parks round submissions in.
struct Stepped<O> {
    id: NodeId,
    link: Rc<lanes::LaneLink>,
    /// `None` once the node finished or panicked.
    future: Option<NodeFuture<O>>,
}

impl<O: 'static> Stepped<O> {
    /// Builds `task`'s future as node `id`, on the calling thread.
    fn start(id: NodeId, n: usize, metrics: &MetricsSink, task: NodeTask<O>) -> Self {
        let link = Rc::new(lanes::LaneLink::default());
        let ctx = NodeCtx::with_link(id, n, Link::Lane(link.clone()), metrics.clone());
        Stepped {
            id,
            link,
            future: Some((task.0)(ctx)),
        }
    }

    /// Hands the node its routed inbox (none before its first round) and
    /// polls it up to its next round submission or its end; `None` when
    /// it is no longer running.
    fn step(&mut self, inbox: Option<Inbox>) -> Option<Step<O>> {
        let future = self.future.as_mut()?;
        self.link.inbox.set(inbox);
        let mut cx = Context::from_waker(Waker::noop());
        let step = match panic::catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {
                return Some(self.link.submission.take().map_or(Step::Wedged, Step::Submitted))
            }
            Ok(Poll::Ready(output)) => Step::Finished(output),
            Err(payload) => Step::Panicked(panic_message(&*payload).to_owned()),
        };
        self.future = None;
        Some(step)
    }
}

/// Steps one worker's running nodes through a round, in id order;
/// `inboxes` lines up with `nodes`.
fn step_range<O: 'static>(nodes: &mut [Stepped<O>], inboxes: Vec<Option<Inbox>>) -> Vec<(NodeId, Step<O>)> {
    nodes
        .iter_mut()
        .zip(inboxes)
        .filter_map(|(node, inbox)| Some((node.id, node.step(inbox)?)))
        .collect()
}

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

/// The coordinator: the calling thread's half of a run, holding the round
/// counter, the virtual clock and the one stamp-sort-deliver path both
/// scheduling policies share.
struct Router {
    n: usize,
    max_rounds: Option<u64>,
    max_vtime: Option<VirtualTime>,
    metrics: MetricsSink,
    /// Optional telemetry (attached via `MetricsSink::with_telemetry`):
    /// per-link delivery accounting, partition outage windows, and the
    /// largest round's delivery count. Purely observational — it adds no
    /// messages and moves no timestamps, so trace digests are unchanged
    /// whether or not a recorder is attached.
    telemetry: Option<Telemetry>,
    trace: Option<trace::TraceSink>,
    pool: Arc<InboxPool>,
    /// Rounds routed so far.
    rounds: u64,
    /// The simulation's virtual clock: the latest round-end tick routed
    /// so far. Under the round-barrier policy it tracks the round counter
    /// exactly.
    vtime_now: VirtualTime,
    event_state: Option<EventState>,
    /// One round's messages with their arrival ticks (reused).
    deliveries: Vec<(VirtualTime, Outgoing)>,
}

impl Router {
    fn new(config: &SimConfig, metrics: &MetricsSink, trace: Option<trace::TraceSink>) -> Self {
        let n = config.n;
        let event_state = match &config.policy {
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
        Router {
            n,
            max_rounds: config.max_rounds,
            max_vtime: config.max_vtime,
            metrics: metrics.clone(),
            telemetry,
            trace,
            pool: InboxPool::with_cap(2 * n),
            rounds: 0,
            vtime_now: 0,
            event_state,
            deliveries: Vec::new(),
        }
    }

    /// Routes one round: `submissions[id]` holds node `id`'s messages
    /// (`None` when it finished instead), and `active[id]` tells whether
    /// it is still running. Returns the inbox of every running node.
    fn route(&mut self, submissions: Vec<Option<Vec<Outgoing>>>, active: &[bool]) -> Vec<Option<Inbox>> {
        let n = self.n;
        self.rounds += 1;
        let rounds = self.rounds;
        if let Some(limit) = self.max_rounds {
            assert!(rounds <= limit, "round limit {limit} exceeded");
        }
        self.metrics.record_round();
        let telemetry = &self.telemetry;
        // Stamp every message with its arrival tick, in stamp order:
        // senders in id order, send order within a sender.
        let mut round_end = match &mut self.event_state {
            // Round barrier: the round counter is every message's
            // arrival tick and every node's round end.
            None => {
                self.deliveries
                    .extend(submissions.into_iter().flatten().flatten().map(|out| (rounds, out)));
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
                                if let Some(tel) = telemetry {
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
                        self.deliveries.push((at, out));
                    }
                }
                if let Some(tel) = telemetry {
                    tel.record_queue_depth(self.deliveries.len() as u64);
                }
                st.clocks.clone()
            }
        };
        // Deliver in arrival order. The sort is stable, so ties keep
        // stamp order — a barrier round keeps it entirely.
        self.deliveries.sort_by_key(|&(at, _)| at);
        // Recipients see messages grouped by sender id. Buffers come
        // from the recycling pool: nodes return them when they drop
        // the previous round's inbox.
        let mut inboxes: Vec<Inbox> = (0..n).map(|_| Inbox::pooled(n, &self.pool)).collect();
        for (at, mut out) in self.deliveries.drain(..) {
            out.msg.at = at;
            if let (Some(st), Some(tel)) = (&self.event_state, telemetry) {
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
            if let Some(trace) = &self.trace {
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
            self.vtime_now = self.vtime_now.max(round_end[id]);
            if let Some(st) = &mut self.event_state {
                st.clocks[id] = round_end[id].saturating_add(st.model.compute_ticks);
            }
        }
        if let Some(limit) = self.max_vtime {
            assert!(
                self.vtime_now <= limit,
                "virtual time limit {limit} exceeded (virtual time {} at round {rounds})",
                self.vtime_now
            );
        }
        inboxes.into_iter().zip(active).map(|(inbox, &live)| live.then_some(inbox)).collect()
    }
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

/// Runs `n` node tasks to completion under the synchronous round model.
///
/// Every round, two workers (the calling thread and one scoped thread)
/// poll their live nodes up to the round's submission; the calling thread
/// then routes the round (see the crate docs). Outputs are collected by
/// node id. Byzantine "crash"/"silence" is modelled by a task returning
/// early. Deliveries are recorded into `trace` when supplied; tracing
/// does not change scheduling or results, so a traced run is
/// bit-identical to an untraced one.
///
/// # Panics
///
/// Panics if a task panics (as `node {id} panicked: {msg}`), if a task
/// yields without submitting its round (a wedge: it awaited something
/// other than [`NodeCtx::next_round`]), if `tasks.len() != config.n`, or
/// if `config.max_rounds` or `config.max_vtime` is exceeded.
pub fn run_tasks<O: Send + 'static>(
    config: SimConfig,
    metrics: MetricsSink,
    trace: Option<trace::TraceSink>,
    tasks: Vec<NodeTask<O>>,
) -> SimResult<O> {
    drive(WORKERS, config, metrics, trace, tasks)
}

/// How many times a worker polls for a round hand-off before it blocks:
/// enough to cover a light round without a thread wake-up, few enough
/// that a worker waiting out a heavy round soon stops using its core.
const HAND_OFF_SPINS: u32 = 1 << 11;

/// Receives the next round hand-off on `rx`, polling for it a bounded
/// number of times before blocking: within a run the other side usually
/// hands off within microseconds, sooner than a blocked thread wakes.
fn recv_spinning<T>(rx: &Receiver<T>) -> Result<T, channel::RecvError> {
    for _ in 0..HAND_OFF_SPINS {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(channel::TryRecvError::Empty) => std::hint::spin_loop(),
            Err(channel::TryRecvError::Disconnected) => return Err(channel::RecvError),
        }
    }
    rx.recv()
}

/// [`run_tasks`] on `k` workers (capped at `n`): the calling thread steps
/// the first range of node ids and routes, `k - 1` scoped threads step
/// the others. Each worker polls its running nodes in id order, and the
/// calling thread files every step under its node id before anything
/// observable happens: routing reads the submissions in node-id order.
/// Outputs, rounds, virtual time, trace and metrics are therefore the
/// same for every `k`; `k = 1` is the spec.
fn drive<O: Send + 'static>(
    k: usize,
    config: SimConfig,
    metrics: MetricsSink,
    trace: Option<trace::TraceSink>,
    tasks: Vec<NodeTask<O>>,
) -> SimResult<O> {
    let n = config.n;
    assert!(n > 0, "simulation needs at least one node");
    assert_eq!(tasks.len(), n, "one task per node required");
    let k = k.clamp(1, n);
    // Worker `w` steps node ids `bounds[w]..bounds[w + 1]`.
    let bounds: Vec<NodeId> = (0..=k).map(|w| w * n / k).collect();
    let mut router = Router::new(&config, &metrics, trace);
    std::thread::scope(|scope| {
        let mut tasks = tasks.into_iter().enumerate();
        let mut own: Vec<Stepped<O>> = tasks
            .by_ref()
            .take(bounds[1])
            .map(|(id, task)| Stepped::start(id, n, &metrics, task))
            .collect();
        // Each other worker's round hand-off: its nodes' inboxes out, their
        // steps back. A worker ends when the calling thread hangs up, after
        // the last round or when a panic unwinds it.
        let mut workers = Vec::with_capacity(k - 1);
        for w in 1..k {
            let range: Vec<(NodeId, NodeTask<O>)> = tasks.by_ref().take(bounds[w + 1] - bounds[w]).collect();
            let (to_worker, inboxes) = channel::unbounded::<Vec<Option<Inbox>>>();
            let (steps, from_worker) = channel::unbounded::<Vec<(NodeId, Step<O>)>>();
            let metrics = metrics.clone();
            scope.spawn(move || {
                let mut nodes: Vec<Stepped<O>> =
                    range.into_iter().map(|(id, task)| Stepped::start(id, n, &metrics, task)).collect();
                while let Ok(round) = recv_spinning(&inboxes) {
                    if steps.send(step_range(&mut nodes, round)).is_err() {
                        break;
                    }
                }
            });
            workers.push((to_worker, from_worker));
        }

        let mut outputs: Vec<Option<O>> = (0..n).map(|_| None).collect();
        let mut active = vec![true; n];
        let mut active_count = n;
        // Each node's inbox for its next poll: none before round 1.
        let mut inboxes: Vec<Option<Inbox>> = (0..n).map(|_| None).collect();
        while active_count > 0 {
            // Hand every other worker with a running node its inboxes,
            // step this thread's range meanwhile, then collect.
            let mut handed = vec![false; workers.len()];
            for (w, (to_worker, _)) in workers.iter().enumerate().rev() {
                let (lo, hi) = (bounds[w + 1], bounds[w + 2]);
                let range = inboxes.split_off(lo);
                if active[lo..hi].contains(&true) {
                    to_worker.send(range).expect("a worker outlives the run");
                    handed[w] = true;
                }
            }
            let mut steps = step_range(&mut own, std::mem::take(&mut inboxes));
            for ((_, from_worker), handed) in workers.iter().zip(handed) {
                if handed {
                    steps.extend(recv_spinning(from_worker).expect("a worker outlives the run"));
                }
            }
            let mut submissions: Vec<Option<Vec<Outgoing>>> = (0..n).map(|_| None).collect();
            for (id, step) in steps {
                match step {
                    Step::Submitted(outgoing) => submissions[id] = Some(outgoing),
                    Step::Finished(output) => {
                        outputs[id] = Some(output);
                        active[id] = false;
                        active_count -= 1;
                    }
                    Step::Panicked(msg) => panic!("node {id} panicked: {msg}"),
                    Step::Wedged => panic!(
                        "simulation wedged in round {}: node {id} yielded at vtime {} without \
                         submitting the round; it awaited something other than its next_round()",
                        router.rounds + 1,
                        router.vtime_now,
                    ),
                }
            }
            if active_count > 0 {
                inboxes = router.route(submissions, &active);
            }
        }
        SimResult {
            outputs: outputs.into_iter().map(|o| o.expect("every node finished")).collect(),
            rounds: router.rounds,
            vtime: router.vtime_now,
        }
    })
}

/// Runs `n` blocking node closures to completion under the synchronous
/// round model: the synchronous adapter over [`run_tasks`]' driver.
///
/// Each closure runs on its own scoped thread and ends rounds with the
/// blocking [`NodeCtx::end_round`]; a bridge task per node moves each of
/// the thread's round submissions into the driver and sends the routed
/// inbox back. Outputs are collected by node id. Byzantine
/// "crash"/"silence" is modelled by a closure returning early. Async
/// protocol code belongs in a [`NodeTask`] instead, which costs no thread.
///
/// # Panics
///
/// Panics if any node logic panics (the panic is propagated with the node
/// id), if a node thread does not submit a round within
/// `config.round_timeout` (a wedge), if `nodes.len() != config.n`, or if
/// `config.max_rounds` or `config.max_vtime` is exceeded.
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
    let (timeout, policy) = (config.round_timeout, config.policy.name());
    std::thread::scope(|scope| {
        let mut threads = Vec::with_capacity(n);
        let mut bridges = Vec::with_capacity(n);
        for (id, logic) in nodes.into_iter().enumerate() {
            let (to_bridge, submissions) = channel::unbounded::<Vec<Outgoing>>();
            let (to_node, from_bridge) = channel::unbounded::<Inbox>();
            let metrics = metrics.clone();
            // The thread's context hangs up on its bridge when the logic
            // returns or panics; the join then reports which.
            threads.push(scope.spawn(move || {
                logic(&mut NodeCtx::with_link(id, n, Link::Node { to_bridge, from_bridge }, metrics))
            }));
            bridges.push(node_task(async move |ctx: &mut NodeCtx| loop {
                match submissions.recv_timeout(timeout) {
                    Ok(outgoing) => {
                        ctx.pending = outgoing;
                        let inbox = ctx.next_round().await;
                        // The thread blocks for this inbox, so only a
                        // thread that has panicked since can refuse it.
                        let _ = to_node.send(inbox);
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => panic!(
                        "simulation wedged in round {}: node(s) [{id}] never submitted within \
                         {timeout:?} under the {policy} policy at virtual time {vtime}",
                        ctx.round() + 1,
                        vtime = ctx.vtime(),
                    ),
                }
            }));
        }
        let run = drive(WORKERS, config, metrics, trace, bridges);
        let outputs = threads
            .into_iter()
            .enumerate()
            .map(|(id, thread)| match thread.join() {
                Ok(output) => output,
                Err(payload) => panic!("node {id} panicked: {}", panic_message(&*payload)),
            })
            .collect();
        SimResult {
            outputs,
            rounds: run.rounds,
            vtime: run.vtime,
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

    // --- the task driver ---

    /// Everything a node saw: each delivered message as `(from, tag,
    /// payload, at)`, then its final round, clock and bit count.
    type NodeLog = (Vec<(NodeId, &'static str, Vec<u8>, VirtualTime)>, u64, VirtualTime, u64);

    /// Node `id` first runs two lanes of unequal length, each sending to
    /// the next node and to itself, then `id` all-to-all rounds of its
    /// own. Node 0 therefore finishes first and later rounds keep sending
    /// to it; lanes drop what arrives for scopes that already finished.
    fn mixed_protocol(id: NodeId) -> NodeTask<NodeLog> {
        node_task(async move |ctx: &mut NodeCtx| {
            let mut seen = Vec::new();
            let mut mux: lanes::LaneMux<Vec<_>> = lanes::LaneMux::new();
            for (scope, len) in [("eq.a", 1 + id % 2), ("eq.b", 2)] {
                let tag = scoped_tag(scope, "m");
                mux.spawn(ctx, scope, async move |lane: &mut NodeCtx| {
                    let mut got = Vec::new();
                    for r in 0..len {
                        lane.send((id + 1) % lane.n(), tag, vec![id as u8, r as u8], 8);
                        lane.send(id, tag, vec![r as u8], 4);
                        let mut inbox = lane.next_round().await;
                        got.extend(inbox.drain_messages().map(|m| (m.from, m.tag, m.payload.to_vec(), m.at)));
                    }
                    got
                });
            }
            while mux.has_lanes() {
                for lane in mux.step(ctx).await {
                    seen.extend(lane.output);
                }
            }
            for r in 0..id {
                for to in 0..ctx.n() {
                    ctx.send(to, "eq.all", vec![id as u8, r as u8, to as u8], 16 + to as u64);
                }
                let mut inbox = ctx.next_round().await;
                seen.extend(inbox.drain_messages().map(|m| (m.from, m.tag, m.payload.to_vec(), m.at)));
            }
            (seen, ctx.round(), ctx.vtime(), ctx.bits_sent())
        })
    }

    /// What a run of [`mixed_protocol`] exposes.
    #[derive(Debug, PartialEq)]
    struct Observed {
        outputs: Vec<NodeLog>,
        rounds: u64,
        vtime: VirtualTime,
        trace: Vec<trace::TraceEvent>,
        snapshot: mvbc_metrics::Snapshot,
    }

    const MIXED_N: usize = 5;

    fn observe(k: usize, policy: &SchedulingPolicy) -> Observed {
        let trace = trace::TraceSink::new();
        let metrics = MetricsSink::new();
        let cfg = SimConfig::new(MIXED_N).with_policy(policy.clone());
        let run = drive(k, cfg, metrics.clone(), Some(trace.clone()), (0..MIXED_N).map(mixed_protocol).collect());
        Observed {
            outputs: run.outputs,
            rounds: run.rounds,
            vtime: run.vtime,
            trace: trace.events(),
            snapshot: metrics.snapshot(),
        }
    }

    #[test]
    fn results_are_the_same_for_every_worker_count() {
        let wan = NetModel::new(
            LinkModel::Wan { intra: 5, inter: 40, jitter: 7 },
            Topology::Clusters(vec![2, 3]),
        )
        .with_seed(3)
        .with_partition(Partition::of_node(4, 0, 60, PartitionBehavior::Delay));
        for policy in [SchedulingPolicy::RoundBarrier, SchedulingPolicy::EventDriven(wan)] {
            let spec = observe(1, &policy);
            // The protocol reaches what it is meant to: an early finisher
            // that is still sent to, self-sends, and a clock of its own
            // under the WAN.
            let last = |id: NodeId| spec.outputs[id].1;
            assert!(last(0) < last(MIXED_N - 1));
            assert!(spec.trace.iter().any(|e| e.to == 0 && e.round > last(0)));
            assert!(spec.trace.iter().any(|e| e.from == e.to));
            if let SchedulingPolicy::EventDriven(_) = policy {
                assert!(spec.vtime > 60, "the partition holds node 4's crossings to its heal");
            }
            for k in [2, 3, MIXED_N] {
                assert_eq!(observe(k, &policy), spec, "k = {k} under the {} policy", policy.name());
            }
        }
    }

    /// `n` tasks; node `id` runs `logic(id)`.
    fn tasks<O: 'static, F>(n: usize, logic: impl Fn(NodeId) -> F) -> Vec<NodeTask<O>>
    where
        F: AsyncFnOnce(&mut NodeCtx) -> O + Send + 'static,
    {
        (0..n).map(|id| node_task(logic(id))).collect()
    }

    #[test]
    #[should_panic(expected = "node 3 panicked: boom in round 2")]
    fn task_panic_on_the_second_worker_names_the_node() {
        let _ = run_tasks(
            SimConfig::new(4),
            MetricsSink::new(),
            None,
            tasks(4, |id| async move |ctx: &mut NodeCtx| {
                ctx.next_round().await;
                assert!(id != 3, "boom in round {}", ctx.round() + 1);
                ctx.next_round().await;
            }),
        );
    }

    #[test]
    #[should_panic(expected = "simulation wedged in round 2: node 1 yielded at vtime 1")]
    fn task_awaiting_a_foreign_future_is_a_wedge() {
        let _ = run_tasks(
            SimConfig::new(2),
            MetricsSink::new(),
            None,
            tasks(2, |id| async move |ctx: &mut NodeCtx| {
                ctx.next_round().await;
                if id == 1 {
                    std::future::pending::<()>().await;
                }
                ctx.next_round().await;
            }),
        );
    }

    #[test]
    #[should_panic(expected = "task futures must be driven by run_tasks")]
    fn block_on_of_a_task_round_panics() {
        let _ = run_tasks(
            SimConfig::new(1),
            MetricsSink::new(),
            None,
            tasks(1, |_| async |ctx: &mut NodeCtx| {
                block_on(ctx.next_round());
            }),
        );
    }

    /// Two tasks, one per worker, that exchange a ping every round forever.
    fn endless() -> Vec<NodeTask<()>> {
        tasks(2, |id| async move |ctx: &mut NodeCtx| loop {
            ctx.send(1 - id, "ping", vec![1u8], 8);
            ctx.next_round().await;
        })
    }

    #[test]
    #[should_panic(expected = "round limit 10 exceeded")]
    fn round_limit_ends_a_two_worker_run() {
        let cfg = SimConfig {
            max_rounds: Some(10),
            ..SimConfig::new(2)
        };
        let _ = drive(2, cfg, MetricsSink::new(), None, endless());
    }

    #[test]
    #[should_panic(expected = "virtual time limit 100 exceeded")]
    fn vtime_limit_ends_a_two_worker_run() {
        let model = NetModel::new(LinkModel::Fixed(60), Topology::Clique);
        let cfg = SimConfig::new(2)
            .with_policy(SchedulingPolicy::EventDriven(model))
            .with_max_vtime(100);
        let _ = drive(2, cfg, MetricsSink::new(), None, endless());
    }
}
