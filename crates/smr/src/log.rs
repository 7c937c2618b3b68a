//! The replicated-log engine: many broadcast slots in one simulation,
//! through a window of up to [`MAX_PIPELINE`] concurrent slots, each a
//! lane future polled inside the replica's own future. Every depth, 1
//! included, runs and commits through the same code.

use std::collections::BTreeMap;
use std::fmt;

use mvbc_broadcast::{
    broadcast_optimal_d_bits, run_broadcast_slot, BroadcastConfig, BroadcastConfigError, BroadcastReport,
};
use mvbc_bsb::PhaseKingDriver;
use mvbc_core::DiagGraph;
use mvbc_metrics::MetricsSink;
use mvbc_netsim::lanes::{LaneId, LaneMux};
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::{
    node_task, run_tasks, slot_scope, NodeCtx, NodeTask, SchedulingPolicy, SimConfig, VirtualTime,
};

use crate::batch::{decode_batch, encode_batch, BatchBuilder, Command};
use crate::primary::{plan_for_slot, SlotPlan};
use crate::slot::{AgreedSlot, SlotReport, SmrHooks};
use crate::state_machine::{KvStore, StateMachine};

/// Histogram tag for per-slot commit times: each replica records the
/// virtual time at which it committed each slot (so percentiles over this
/// tag summarize when the log's slots landed).
pub const COMMIT_VTIME_TAG: &str = "smr.commit.vtime";

/// Histogram tag for per-slot commit latency: the virtual-time gap
/// between a replica's consecutive commits (the time slot `s` spent being
/// agreed on, as observed by that replica; under pipelining several slots
/// can commit at the same tick, so gaps of zero are real).
pub const COMMIT_GAP_TAG: &str = "smr.commit.gap";

/// Deepest pipeline [`SmrConfig::with_pipeline`] accepts. Each in-flight
/// slot is one lane future on its replica's thread, so depth costs
/// memory and per-round polling, not threads. 16 is twice the deepest
/// pipeline the repo runs (the `smr_pipeline` paper table's W = 8).
pub const MAX_PIPELINE: usize = 16;

/// Error for invalid replicated-log parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmrConfigError {
    /// `t >= n/3`.
    TooManyFaults {
        /// Number of replicas.
        n: usize,
        /// Requested tolerance.
        t: usize,
    },
    /// A log needs at least one slot.
    ZeroSlots,
    /// The batch budget admits no command.
    EmptyBatchBudget,
    /// Every slot is one broadcast, and its parameters are invalid
    /// (e.g. `n` exceeds the coding field).
    Broadcast(BroadcastConfigError),
}

impl fmt::Display for SmrConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmrConfigError::TooManyFaults { n, t } => {
                write!(f, "error-free replication requires t < n/3 (n = {n}, t = {t})")
            }
            SmrConfigError::ZeroSlots => write!(f, "the log must have at least one slot"),
            SmrConfigError::EmptyBatchBudget => {
                write!(f, "the batch budget must admit at least one command")
            }
            SmrConfigError::Broadcast(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SmrConfigError {}

/// Parameters of one replicated-log run.
///
/// # Examples
///
/// ```
/// use mvbc_smr::SmrConfig;
///
/// let cfg = SmrConfig::new(4, 1, 10, 8)?;
/// assert_eq!(cfg.batch_capacity(), 8);
/// assert_eq!(cfg.slot_bytes(), 8 * 6);
/// # Ok::<(), mvbc_smr::SmrConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrConfig {
    /// Number of replicas.
    pub n: usize,
    /// Fault tolerance (`t < n/3`).
    pub t: usize,
    /// Number of log slots to run.
    pub slots: usize,
    /// Maximum commands per slot batch.
    pub batch_commands: usize,
    /// Byte budget per slot batch (caps `batch_commands` when tighter).
    pub batch_bytes: usize,
    /// Explicit broadcast generation size in bytes (`None` = sized for
    /// the *aggregate* log payload; see [`SmrConfig::resolved_gen_bytes`]).
    pub gen_bytes: Option<usize>,
    /// Scheduling policy of the underlying simulation: the lockstep
    /// round barrier (default) or an event-driven
    /// [`NetModel`](mvbc_netsim::NetModel) with per-link latencies,
    /// topology, and partitions.
    pub policy: SchedulingPolicy,
    /// Abort the run if the virtual clock exceeds this many ticks
    /// (`None` = unbounded), e.g. a latency SLA under an event-driven
    /// WAN model.
    pub max_vtime: Option<VirtualTime>,
    /// Pipeline depth `W`: how many slots may be in flight concurrently
    /// inside the single simulation. `1` (the default) runs slots
    /// back-to-back; larger depths interleave up to `W` broadcast slots
    /// per synchronous round, dividing total rounds by up to `W` while
    /// committing the **exact same log** (see [`replicate`]).
    /// At most [`MAX_PIPELINE`].
    pub pipeline: usize,
}

impl SmrConfig {
    /// Validated constructor with an unbounded byte budget.
    ///
    /// # Errors
    ///
    /// Returns a [`SmrConfigError`] for invalid parameters.
    pub fn new(n: usize, t: usize, slots: usize, batch_commands: usize) -> Result<Self, SmrConfigError> {
        Self::with_batch_bytes(n, t, slots, batch_commands, usize::MAX)
    }

    /// As [`SmrConfig::new`] with an explicit per-slot byte budget.
    ///
    /// # Errors
    ///
    /// As [`SmrConfig::new`], plus [`SmrConfigError::EmptyBatchBudget`]
    /// when the budget admits no command.
    pub fn with_batch_bytes(
        n: usize,
        t: usize,
        slots: usize,
        batch_commands: usize,
        batch_bytes: usize,
    ) -> Result<Self, SmrConfigError> {
        // `t < n/3` without forming `3 * t`, which can wrap.
        if t >= n.div_ceil(3) {
            return Err(SmrConfigError::TooManyFaults { n, t });
        }
        if slots == 0 {
            return Err(SmrConfigError::ZeroSlots);
        }
        if batch_commands == 0 || batch_bytes < Command::WIRE_BYTES {
            return Err(SmrConfigError::EmptyBatchBudget);
        }
        // The slot broadcasts' own validator bounds `n` by the coding
        // field, so `broadcast_config` cannot fail later.
        BroadcastConfig::new(n, t, 0, 1).map_err(SmrConfigError::Broadcast)?;
        Ok(SmrConfig {
            n,
            t,
            slots,
            batch_commands,
            batch_bytes,
            gen_bytes: None,
            policy: SchedulingPolicy::RoundBarrier,
            max_vtime: None,
            pipeline: 1,
        })
    }

    /// Returns the configuration with a different scheduling policy for
    /// the underlying simulation (see [`SmrConfig::policy`]).
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the configuration with a virtual-time budget (see
    /// [`SmrConfig::max_vtime`]).
    pub fn with_max_vtime(mut self, limit: VirtualTime) -> Self {
        self.max_vtime = Some(limit);
        self
    }

    /// Returns the configuration with pipeline depth `w` (see
    /// [`SmrConfig::pipeline`]).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= w <= MAX_PIPELINE` (the log needs at least
    /// one slot in flight, and each in-flight slot costs every replica a
    /// lane).
    pub fn with_pipeline(mut self, w: usize) -> Self {
        assert!(
            (1..=MAX_PIPELINE).contains(&w),
            "pipeline depth {w} is outside 1..={MAX_PIPELINE}"
        );
        self.pipeline = w;
        self
    }

    /// Commands per slot under both budgets.
    pub fn batch_capacity(&self) -> usize {
        self.batch_commands.min(self.batch_bytes / Command::WIRE_BYTES)
    }

    /// Fixed slot payload size (common knowledge; batches are padded).
    pub fn slot_bytes(&self) -> usize {
        self.batch_capacity() * Command::WIRE_BYTES
    }

    /// Broadcast generation size per slot.
    ///
    /// The default sizes generations against the *aggregate* log payload
    /// (`slots * slot_bytes`), not one slot: the diagnosis graph — and
    /// with it the paper's `t(t+2)` dispute budget — persists across the
    /// whole log, so the Eq. (2)-style balance between per-generation
    /// `Broadcast_Single_Bit` overhead and worst-case diagnosis cost is
    /// struck once for the log. This is the amortization the
    /// `mvbc-bench smr_throughput` experiment measures: per-slot sizing
    /// pays the fixed overhead `sqrt(slots)` times more often.
    pub fn resolved_gen_bytes(&self) -> usize {
        let slot_bytes = self.slot_bytes();
        match self.gen_bytes {
            Some(d) => d.clamp(1, slot_bytes),
            None => {
                let aggregate_bits = (self.slots * slot_bytes) as u64 * 8;
                let d_bits = broadcast_optimal_d_bits(self.n, self.t, aggregate_bits);
                (d_bits.div_ceil(8) as usize).clamp(1, slot_bytes)
            }
        }
    }

    /// The broadcast parameters of one slot led by `primary`.
    ///
    /// # Panics
    ///
    /// Panics when `primary >= n` (callers pick primaries from the
    /// rotation, which only yields valid ids).
    pub fn broadcast_config(&self, primary: usize) -> BroadcastConfig {
        BroadcastConfig::with_gen_bytes(
            self.n,
            self.t,
            primary,
            self.slot_bytes(),
            self.resolved_gen_bytes(),
        )
        .expect("validated SMR parameters yield valid broadcast parameters")
    }
}

/// One replica's summary of a whole log run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmrReport {
    /// Per-slot records, in slot order.
    pub slots: Vec<SlotReport>,
    /// Final state-machine digest.
    pub digest: u64,
    /// Total commands committed (across all slots).
    pub committed_commands: u64,
    /// Slots that committed the fallback (empty) batch.
    pub fallback_slots: u64,
    /// Replicas isolated by the end of the run.
    pub isolated: Vec<usize>,
    /// Replicas excluded from primary rotation by the end of the run
    /// (isolated or caught misbehaving as primary).
    pub suspects: Vec<usize>,
    /// Slot attempts discarded because a commit changed the shared
    /// dispute state while they were in flight (always `0` at depth 1,
    /// where the committing slot is the only one in flight). Discards cost
    /// extra traffic and rounds but never reach the log: every
    /// *committed* slot ran against exactly the depth-1 state.
    pub restarts: u64,
}

impl SmrReport {
    /// The agreement-relevant per-slot views (see [`SlotReport::agreed`]):
    /// identical at every fault-free replica.
    pub fn agreed_log(&self) -> Vec<AgreedSlot<'_>> {
        self.slots.iter().map(SlotReport::agreed).collect()
    }
}

/// One in-flight slot attempt (or an instantly-resolved degraded slot,
/// which runs no broadcast).
struct Flight {
    primary: usize,
    /// Shared-state version this attempt was proposed under; stale
    /// attempts (version < the current one) are discarded, never
    /// committed.
    version: u64,
    degraded: bool,
    /// The attempt's lane (`None` for a degraded slot).
    lane: Option<LaneId>,
    /// The batch this replica popped for its own proposal (requeued if
    /// the attempt is discarded or the slot falls back).
    my_batch: Option<Vec<Command>>,
    /// `diag.trusts(primary, x)` at proposal time (for the caught rule).
    pre_trust: Vec<bool>,
    outcome: Option<(BroadcastReport, DiagGraph)>,
    rounds: u64,
    bits: u64,
}

/// Runs the replicated log for one replica, with up to
/// [`SmrConfig::pipeline`] slots in flight, applying every committed
/// batch to `state`: the per-node loop of [`simulate_smr`], and the way to
/// drive a custom [`StateMachine`]. It is `async`: await it inside a node
/// task ([`node_task`]); its only awaits are the mux's physical rounds.
///
/// `commands` is this replica's client command stream; it proposes them
/// in batches on its primary turns. The diagnosis graph and the suspect
/// set persist across slots — the paper's "memory across generations"
/// lifted to the log level — so a primary caught equivocating in slot `s`
/// is excluded from rotation for every slot proposed after `s` commits,
/// and its slot commits the agreed fallback (an empty batch) at every
/// fault-free replica.
///
/// The eviction rule is deliberately conservative: the primary is
/// *caught* whenever its slot's diagnosis removed an edge incident to it,
/// and a removed edge only proves that *one* of its endpoints is faulty —
/// so a Byzantine accuser can frame a fault-free primary (forcing its
/// slot to fall back and evicting it from rotation) at the price of one
/// of its own `t + 1` disposable edges. The cost is bounded by the log's
/// global dispute budget: each Byzantine replica's `(t + 1)`-th
/// accusation isolates it, so `t` colluders frame at most `t²` fault-free
/// primaries over the whole log. If every active replica nevertheless
/// ends up suspected, the log enters **degraded mode**
/// ([`SlotPlan::DegradedEmpty`](crate::SlotPlan::DegradedEmpty)): no
/// suspect regains proposal rights — in particular a caught equivocator
/// is never re-elected — and every remaining slot commits the agreed
/// empty batch at every fault-free replica, deterministically and with no
/// broadcast at all. A framed fault-free primary re-queues its batch, but
/// a suspect never leads again, so those clients' commands stay pending:
/// the log stays safe and live (in degraded mode for empty slots only),
/// sacrificing only progress on client commands.
///
/// # How a window of slots commits the window-of-one log
///
/// Each in-flight slot runs the unmodified [`run_broadcast_slot`] against
/// a *clone* of the diagnosis graph taken at proposal time, under its own
/// attempt scope `smr.slot<S>.a<K>`, as a [`lane`](mvbc_netsim::lanes)
/// future polled inside the replica's own future, so up to `W` slots share
/// every synchronous round (the per-attempt tag scopes prevent
/// cross-delivery). A window of one is a mux with one lane.
/// Commits apply strictly in slot order. The shared dispute state
/// (diagnosis graph + suspect set + this replica's pending queue) carries
/// a version counter: a commit that changes any of it — a caught primary,
/// a removed edge, an isolation — bumps the version and **discards every
/// other in-flight attempt** (their popped batches are returned to the
/// queue in order, their lanes are [cancelled](LaneMux::cancel), and the
/// slots are re-proposed under the updated state with a fresh attempt
/// scope).
///
/// Cancelling is safe because a discard follows from an agreed commit:
/// lanes are aligned across replicas, so every fault-free replica commits
/// the same slot after the same physical round and cancels the same
/// attempts there. No fault-free replica is left awaiting a cancelled
/// lane's messages, and so none reads a peer's silence as a fault. A
/// Byzantine replica's later messages on a cancelled scope match no live
/// lane and are dropped, and a re-proposal runs under a fresh
/// `smr.slot<S>.a<K>` scope, so they cannot reach it either.
///
/// The invariant this buys: the attempt that *commits* slot `s` was
/// proposed under exactly the post-slot-`(s-1)` state — the same primary,
/// the same diagnosis snapshot, the same pending batch as a window of one
/// — so per-slot reports, the committed log, and the state digest are
/// identical at every depth, under any attack schedule. Fault-free steady
/// state never discards (the graph only changes when a diagnosis runs),
/// so honest logs pipeline at full depth, dividing total rounds by up to
/// `W`; attack slots pay discarded work bounded by the log's global
/// dispute budget.
///
/// Every slot runs `Broadcast_Single_Bit` on [`PhaseKingDriver`], which
/// is stateless, so concurrent lanes share no driver state.
/// [`SmrHooks::slot_hooks`] may be called more than once per slot (once
/// per attempt) and must be deterministic in `(slot, i_am_primary)`.
pub async fn replicate<S: StateMachine>(
    ctx: &mut NodeCtx,
    cfg: &SmrConfig,
    commands: Vec<Command>,
    hooks: &mut dyn SmrHooks,
    state: &mut S,
) -> SmrReport {
    let me = ctx.id();
    let n = cfg.n;
    let window = cfg.pipeline.max(1);
    let total = cfg.slots as u64;
    let mut pending = BatchBuilder::new(cfg.batch_capacity());
    pending.extend(commands);
    let mut diag = DiagGraph::new(n, cfg.t);
    let mut suspects = vec![false; n];
    let mut version: u64 = 0;
    let mut slots: Vec<SlotReport> = Vec::with_capacity(cfg.slots);
    let mut restarts: u64 = 0;
    let mut mux: LaneMux<(u64, BroadcastReport, DiagGraph)> = LaneMux::new();
    // Ordered maps: this is protocol state on the commit path, and the
    // determinism rules (`mvbc-lint` hash_state) keep unordered
    // containers out of it even when, as here, they are only ever
    // accessed by key.
    let mut flights: BTreeMap<u64, Flight> = BTreeMap::new();
    let mut attempts: BTreeMap<u64, u32> = BTreeMap::new();
    let mut next_slot: u64 = 0;
    let mut stopped = false;
    let telemetry = ctx.metrics().telemetry();
    let mut last_commit_vtime = ctx.vtime();

    loop {
        // --- Fill the window with proposals under the committed state. ---
        while !stopped && flights.len() < window && next_slot < total {
            if diag.is_isolated(me) {
                // An identified-faulty replica is cut off; fault-free
                // replicas never land here (Lemma 4).
                stopped = true;
                break;
            }
            let slot = next_slot;
            let primary = match plan_for_slot(slot, &diag, &suspects) {
                SlotPlan::Stall => {
                    stopped = true;
                    break;
                }
                SlotPlan::DegradedEmpty(nominal) => {
                    // Every active replica is suspect: common knowledge,
                    // so every fault-free replica commits the agreed empty
                    // batch locally — no suspect is handed proposal rights.
                    flights.insert(
                        slot,
                        Flight {
                            primary: nominal,
                            version,
                            degraded: true,
                            lane: None,
                            my_batch: None,
                            pre_trust: Vec::new(),
                            outcome: None,
                            rounds: 0,
                            bits: 0,
                        },
                    );
                    next_slot += 1;
                    continue;
                }
                SlotPlan::Lead(p) => p,
            };
            next_slot += 1;
            let attempt = attempts.entry(slot).or_insert(0);
            let scope = format!("smr.slot{slot}.a{attempt}");
            *attempt += 1;
            let span = telemetry
                .as_ref()
                .map(|t| t.span(me, mvbc_metrics::intern_tag(&scope), "propose", ctx.vtime()));
            let my_batch = (me == primary).then(|| pending.next_batch());
            let proposal: Option<Vec<u8>> =
                my_batch.as_ref().map(|b| encode_batch(b, cfg.batch_capacity()));
            if let Some(span) = span {
                span.finish(ctx.vtime());
            }
            let pre_trust = (0..n).map(|x| diag.trusts(primary, x)).collect();
            let mut slot_hooks = hooks.slot_hooks(slot, me == primary);
            let bcfg = cfg.broadcast_config(primary);
            let mut slot_diag = diag.clone();
            let lane = mux.spawn(ctx, scope.clone(), async move |slot_ctx: &mut NodeCtx| {
                let report = run_broadcast_slot(
                    slot_ctx,
                    &bcfg,
                    proposal.as_deref(),
                    &scope,
                    &mut slot_diag,
                    slot_hooks.as_mut(),
                    &mut PhaseKingDriver,
                )
                .await;
                (slot, report, slot_diag)
            });
            flights.insert(
                slot,
                Flight {
                    primary,
                    version,
                    degraded: false,
                    lane: Some(lane),
                    my_batch,
                    pre_trust,
                    outcome: None,
                    rounds: 0,
                    bits: 0,
                },
            );
        }

        // --- Commit resolved flights, strictly in slot order. ---
        while let Some(head) = flights.get(&(slots.len() as u64)) {
            if !head.degraded && head.outcome.is_none() {
                break;
            }
            let slot = slots.len() as u64;
            let flight = flights.remove(&slot).expect("head flight present");
            debug_assert_eq!(
                flight.version, version,
                "live flights are never stale (discards clear them)"
            );
            if flight.degraded {
                slots.push(SlotReport::degraded(slot, flight.primary, ctx.vtime()));
                continue;
            }
            let (report, new_diag) = flight.outcome.expect("resolved flight has an outcome");
            // The primary is *caught* when this slot's diagnosis
            // implicated it: it was isolated outright, it could not
            // sustain an echo set, or it lost a dispute edge to a replica
            // that was *not itself* identified as faulty (an edge removed
            // by isolating a proven liar says nothing about the primary,
            // so it does not count). All inputs are common knowledge, so
            // every fault-free replica reaches the same verdict, commits
            // the same fallback, and drops the primary from rotation
            // together.
            let caught = report.defaulted
                || new_diag.is_isolated(flight.primary)
                || (0..n).any(|x| {
                    flight.pre_trust[x]
                        && !new_diag.trusts(flight.primary, x)
                        && !new_diag.is_isolated(x)
                });
            let diag_changed = new_diag != diag;
            diag = new_diag;
            if caught {
                suspects[flight.primary] = true;
            }
            if caught || diag_changed {
                // The shared state moved: every other in-flight attempt
                // was proposed against a now-stale snapshot. Discard them
                // — deepest slot first so requeues rebuild the pending
                // queue in exact proposal order — *before* this slot's
                // own requeue, and rewind proposals to the next slot.
                // A discarded attempt's lane is cancelled: the discard
                // follows from this agreed commit, so every fault-free
                // replica cancels it after the same physical round and
                // none awaits another's silence on it.
                version += 1;
                restarts += flights.len() as u64;
                for (_, doomed) in std::mem::take(&mut flights).into_iter().rev() {
                    if let Some(lane) = doomed.lane {
                        mux.cancel(lane);
                    }
                    if let Some(batch) = doomed.my_batch {
                        pending.requeue(batch);
                    }
                }
                next_slot = slot + 1;
                // A stall/isolation verdict was reached against the old
                // state; re-evaluate it at the next fill (both conditions
                // are monotone, so this can only un-stick a byz self).
                stopped = false;
            }
            let committed = if caught { Vec::new() } else { decode_batch(&report.output) };
            if caught {
                if let Some(batch) = flight.my_batch {
                    pending.requeue(batch);
                }
            }
            let span = telemetry
                .as_ref()
                .map(|t| t.span(me, slot_scope("smr", slot), "commit", ctx.vtime()));
            state.apply_batch(&committed);
            if let Some(span) = span {
                span.finish(ctx.vtime());
            }
            if let Some(tel) = &telemetry {
                tel.record_value(me, COMMIT_VTIME_TAG, ctx.vtime());
                tel.record_value(me, COMMIT_GAP_TAG, ctx.vtime() - last_commit_vtime);
            }
            last_commit_vtime = ctx.vtime();
            slots.push(SlotReport {
                slot,
                primary: flight.primary,
                committed,
                fallback: caught,
                diagnosis_ran: report.diagnosis_invocations > 0,
                diagnosis_invocations: report.diagnosis_invocations,
                bits_sent_by_me: flight.bits,
                rounds: flight.rounds,
                commit_vtime: ctx.vtime(),
            });
        }

        if slots.len() as u64 >= total || (stopped && flights.is_empty()) {
            break;
        }
        if flights.is_empty() {
            // The window was wiped by a discard: refill first, so the
            // re-proposed slots join the very next physical round.
            continue;
        }

        // --- One physical round: every live lane advances one round
        // (the commit head is an unresolved lane flight here, so the mux
        // is non-empty; discarded attempts' lanes were cancelled). ---
        for finished in mux.step(ctx).await {
            let (slot, report, slot_diag) = finished.output;
            let flight = flights.get_mut(&slot).expect("only live flights have lanes");
            flight.outcome = Some((report, slot_diag));
            flight.rounds = finished.rounds;
            flight.bits = finished.logical_bits;
        }
    }

    SmrReport {
        digest: state.digest(),
        committed_commands: slots.iter().map(|s| s.committed.len() as u64).sum(),
        fallback_slots: slots.iter().filter(|s| s.fallback).count() as u64,
        isolated: (0..n).filter(|&v| diag.is_isolated(v)).collect(),
        suspects: (0..n).filter(|&v| suspects[v] || diag.is_isolated(v)).collect(),
        restarts,
        slots,
    }
}

/// Result of a simulated replicated-log run.
#[derive(Debug)]
pub struct SmrRun {
    /// Per-replica reports, indexed by replica id.
    pub reports: Vec<SmrReport>,
    /// Final key-value stores, indexed by replica id.
    pub stores: Vec<KvStore>,
    /// Synchronous rounds executed for the whole log.
    pub rounds: u64,
    /// Final virtual time of the simulation (equals `rounds` under the
    /// round-barrier policy; the latency-model tick of the last round's
    /// end under an event-driven policy).
    pub vtime: VirtualTime,
}

/// Runs a whole replicated log — every slot — inside **one** simulation:
/// one [`run_tasks`] call, each replica a node task running
/// [`replicate`]'s future with dispute-control state carried across slots
/// and a fresh Phase-King driver per slot attempt.
///
/// `workloads[i]` is replica `i`'s client command stream (proposed on its
/// primary turns); `hooks[i]` its behaviour.
///
/// # Panics
///
/// Panics when `workloads.len() != cfg.n` or `hooks.len() != cfg.n`.
///
/// # Examples
///
/// ```
/// use mvbc_smr::{simulate_smr, Command, HonestReplica, SmrConfig};
/// use mvbc_metrics::MetricsSink;
///
/// let cfg = SmrConfig::new(4, 1, 4, 2)?;
/// let workloads: Vec<Vec<Command>> = (0..4u16)
///     .map(|i| vec![Command { key: i + 1, value: u32::from(i) * 10 }])
///     .collect();
/// let hooks = (0..4).map(|_| HonestReplica::boxed()).collect();
/// let run = simulate_smr(&cfg, workloads, hooks, MetricsSink::new());
/// // All replicas hold identical state and committed every command.
/// assert!(run.reports.windows(2).all(|w| w[0].digest == w[1].digest));
/// assert_eq!(run.reports[0].committed_commands, 4);
/// # Ok::<(), mvbc_smr::SmrConfigError>(())
/// ```
pub fn simulate_smr(
    cfg: &SmrConfig,
    workloads: Vec<Vec<Command>>,
    hooks: Vec<Box<dyn SmrHooks>>,
    metrics: MetricsSink,
) -> SmrRun {
    simulate_smr_traced(cfg, workloads, hooks, metrics, None)
}

/// As [`simulate_smr`], additionally recording every delivered message
/// into `trace` (when supplied). Tracing never changes scheduling or
/// results; with an event-driven [`SmrConfig::policy`] the trace's
/// virtual timestamps give the per-message delivery schedule.
///
/// # Panics
///
/// As [`simulate_smr`].
pub fn simulate_smr_traced(
    cfg: &SmrConfig,
    workloads: Vec<Vec<Command>>,
    hooks: Vec<Box<dyn SmrHooks>>,
    metrics: MetricsSink,
    trace: Option<TraceSink>,
) -> SmrRun {
    assert_eq!(workloads.len(), cfg.n, "one command stream per replica");
    assert_eq!(hooks.len(), cfg.n, "one hooks object per replica");

    let tasks: Vec<NodeTask<(SmrReport, KvStore)>> = workloads
        .into_iter()
        .zip(hooks)
        .map(|(commands, mut hook)| {
            let cfg = cfg.clone();
            node_task(async move |ctx: &mut NodeCtx| {
                let mut store = KvStore::default();
                let report = replicate(ctx, &cfg, commands, hook.as_mut(), &mut store).await;
                (report, store)
            })
        })
        .collect();
    let mut sim_cfg = SimConfig::new(cfg.n).with_policy(cfg.policy.clone());
    if let Some(limit) = cfg.max_vtime {
        sim_cfg = sim_cfg.with_max_vtime(limit);
    }
    let result = run_tasks(sim_cfg, metrics, trace, tasks);
    let (reports, stores) = result.outputs.into_iter().unzip();
    SmrRun {
        reports,
        stores,
        rounds: result.rounds,
        vtime: result.vtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::{EquivocatingPrimary, HonestReplica};

    fn workloads(n: usize, per_node: u16) -> Vec<Vec<Command>> {
        (0..n)
            .map(|i| {
                (0..per_node)
                    .map(|j| Command {
                        key: (i as u16) * per_node + j + 1,
                        value: u32::from(j) + 100 * i as u32,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(SmrConfig::new(4, 1, 10, 4).is_ok());
        assert_eq!(
            SmrConfig::new(3, 1, 10, 4),
            Err(SmrConfigError::TooManyFaults { n: 3, t: 1 })
        );
        assert_eq!(SmrConfig::new(4, 1, 0, 4), Err(SmrConfigError::ZeroSlots));
        assert_eq!(SmrConfig::new(4, 1, 10, 0), Err(SmrConfigError::EmptyBatchBudget));
        assert_eq!(
            SmrConfig::with_batch_bytes(4, 1, 10, 4, 5),
            Err(SmrConfigError::EmptyBatchBudget)
        );
        assert!(SmrConfigError::ZeroSlots.to_string().contains("slot"));
    }

    #[test]
    fn config_rejects_network_past_the_coding_field() {
        // Checked by the slot broadcasts' validator, so
        // `broadcast_config` never meets an `n` it cannot code.
        assert_eq!(
            SmrConfig::new(70_000, 0, 1, 1),
            Err(SmrConfigError::Broadcast(BroadcastConfigError::TooManyProcessors { n: 70_000 }))
        );
        let max = SmrConfig::new(65_535, 0, 1, 1).unwrap();
        assert_eq!(max.broadcast_config(65_534).n, 65_535);
        let err = SmrConfig::new(65_536, 0, 1, 1).unwrap_err();
        assert!(err.to_string().contains("at most 65535 processors"), "{err}");
    }

    #[test]
    fn config_rejects_t_whose_triple_wraps() {
        // 3t = 2^64 + 2 wraps to 2 < n.
        let t = 6_148_914_691_236_517_206;
        assert_eq!(SmrConfig::new(7, t, 10, 4), Err(SmrConfigError::TooManyFaults { n: 7, t }));
    }

    #[test]
    fn byte_budget_caps_batch() {
        let cfg = SmrConfig::with_batch_bytes(4, 1, 10, 100, 20).unwrap();
        assert_eq!(cfg.batch_capacity(), 3); // 20 / 6
        assert_eq!(cfg.slot_bytes(), 18);
    }

    #[test]
    fn aggregate_gen_sizing_beats_per_slot_sizing() {
        // The log sizes generations against slots * slot_bytes, so a
        // longer log gets larger generations (fewer per slot).
        let short = SmrConfig::new(7, 2, 1, 16).unwrap();
        let long = SmrConfig::new(7, 2, 100, 16).unwrap();
        assert!(long.resolved_gen_bytes() > short.resolved_gen_bytes());
        let bcfg = long.broadcast_config(3);
        assert_eq!(bcfg.source, 3);
        assert_eq!(bcfg.value_bytes, long.slot_bytes());
    }

    #[test]
    fn honest_log_commits_everything_in_rotation_order() {
        let n = 4;
        let cfg = SmrConfig::new(n, 1, 8, 2).unwrap();
        let hooks = (0..n).map(|_| HonestReplica::boxed()).collect();
        let run = simulate_smr(&cfg, workloads(n, 2), hooks, MetricsSink::new());
        for w in run.reports.windows(2) {
            assert_eq!(w[0].agreed_log(), w[1].agreed_log(), "replicas disagree on the log");
            assert_eq!(w[0].digest, w[1].digest);
        }
        let r = &run.reports[0];
        assert_eq!(r.committed_commands, 4 * 2);
        assert_eq!(r.fallback_slots, 0);
        assert!(r.suspects.is_empty());
        // Slot s is led by replica s % n and carries its commands.
        for s in &r.slots {
            assert_eq!(s.primary, (s.slot % n as u64) as usize);
            assert!(!s.fallback);
        }
        assert_eq!(run.stores[0], run.stores[3]);
    }

    #[test]
    fn equivocating_primary_is_caught_and_rotated_out() {
        let n = 4;
        let byz = 1usize;
        let cfg = SmrConfig::new(n, 1, 9, 2).unwrap();
        let hooks = (0..n)
            .map(|i| {
                if i == byz {
                    Box::new(EquivocatingPrimary::default()) as Box<dyn SmrHooks>
                } else {
                    HonestReplica::boxed()
                }
            })
            .collect();
        let run = simulate_smr(&cfg, workloads(n, 3), hooks, MetricsSink::new());
        let honest: Vec<usize> = (0..n).filter(|&i| i != byz).collect();
        for w in honest.windows(2) {
            assert_eq!(run.reports[w[0]].agreed_log(), run.reports[w[1]].agreed_log());
            assert_eq!(run.stores[w[0]], run.stores[w[1]]);
        }
        let r = &run.reports[honest[0]];
        // Slot 1 (the Byzantine replica's first turn) fell back...
        let s1 = &r.slots[1];
        assert_eq!(s1.primary, byz);
        assert!(s1.fallback && s1.committed.is_empty() && s1.diagnosis_ran);
        // ...and the replica never led again.
        assert!(r.suspects.contains(&byz));
        assert!(r.slots[2..].iter().all(|s| s.primary != byz));
        assert_eq!(r.fallback_slots, 1);
    }

    #[test]
    fn pipelined_honest_log_matches_sequential_in_fewer_rounds() {
        let n = 4;
        let seq_cfg = SmrConfig::new(n, 1, 12, 2).unwrap();
        let seq = simulate_smr(
            &seq_cfg,
            workloads(n, 4),
            (0..n).map(|_| HonestReplica::boxed()).collect(),
            MetricsSink::new(),
        );
        for w in [2usize, 4] {
            let cfg = seq_cfg.clone().with_pipeline(w);
            let run = simulate_smr(
                &cfg,
                workloads(n, 4),
                (0..n).map(|_| HonestReplica::boxed()).collect(),
                MetricsSink::new(),
            );
            for (a, b) in run.reports.iter().zip(&seq.reports) {
                assert_eq!(a.agreed_log(), b.agreed_log(), "W = {w}: log diverged");
                assert_eq!(a.digest, b.digest);
                assert_eq!(a.restarts, 0, "honest runs never discard");
            }
            assert_eq!(run.stores, seq.stores);
            assert!(
                run.rounds < seq.rounds,
                "W = {w}: {} rounds not below sequential {}",
                run.rounds,
                seq.rounds
            );
        }
    }

    #[test]
    fn pipelined_equivocating_primary_commits_the_sequential_log() {
        let n = 4;
        let byz = 1usize;
        let mk_hooks = || -> Vec<Box<dyn SmrHooks>> {
            (0..n)
                .map(|i| {
                    if i == byz {
                        Box::new(EquivocatingPrimary::default()) as Box<dyn SmrHooks>
                    } else {
                        HonestReplica::boxed()
                    }
                })
                .collect()
        };
        let seq_cfg = SmrConfig::new(n, 1, 9, 2).unwrap();
        let seq = simulate_smr(&seq_cfg, workloads(n, 3), mk_hooks(), MetricsSink::new());
        let cfg = seq_cfg.clone().with_pipeline(4);
        let run = simulate_smr(&cfg, workloads(n, 3), mk_hooks(), MetricsSink::new());
        let honest: Vec<usize> = (0..n).filter(|&i| i != byz).collect();
        for &h in &honest {
            assert_eq!(run.reports[h].agreed_log(), seq.reports[h].agreed_log());
            assert_eq!(run.reports[h].digest, seq.reports[h].digest);
            assert_eq!(run.stores[h], seq.stores[h]);
            // The equivocation commit wiped the in-flight window once.
            assert!(run.reports[h].restarts > 0, "expected discarded attempts");
        }
    }

    #[test]
    fn pipeline_depth_validation() {
        let cfg = SmrConfig::new(4, 1, 4, 2).unwrap();
        assert_eq!(cfg.pipeline, 1);
        assert_eq!(cfg.clone().with_pipeline(4).pipeline, 4);
        assert_eq!(cfg.clone().with_pipeline(MAX_PIPELINE).pipeline, MAX_PIPELINE);
        for w in [0, MAX_PIPELINE + 1] {
            let cfg = cfg.clone();
            let result = std::panic::catch_unwind(|| cfg.with_pipeline(w));
            assert!(result.is_err(), "depth {w} must be rejected");
        }
    }

    #[test]
    fn round_barrier_commit_vtimes_are_cumulative_rounds() {
        let n = 4;
        let cfg = SmrConfig::new(n, 1, 4, 2).unwrap();
        let hooks = (0..n).map(|_| HonestReplica::boxed()).collect();
        let run = simulate_smr(&cfg, workloads(n, 1), hooks, MetricsSink::new());
        assert_eq!(run.vtime, run.rounds);
        let r = &run.reports[0];
        let mut elapsed = 0;
        for s in &r.slots {
            elapsed += s.rounds;
            assert_eq!(s.commit_vtime, elapsed, "slot {} commit clock", s.slot);
        }
    }

    #[test]
    fn event_driven_log_commits_on_the_latency_clock() {
        use mvbc_netsim::{LinkModel, NetModel, SchedulingPolicy, Topology};
        let n = 4;
        let model = NetModel::new(LinkModel::Fixed(100), Topology::Clique);
        let cfg = SmrConfig::new(n, 1, 4, 2)
            .unwrap()
            .with_policy(SchedulingPolicy::EventDriven(model));
        let hooks = (0..n).map(|_| HonestReplica::boxed()).collect();
        let run = simulate_smr(&cfg, workloads(n, 1), hooks, MetricsSink::new());
        for w in run.reports.windows(2) {
            assert_eq!(w[0].agreed_log(), w[1].agreed_log());
            assert_eq!(w[0].digest, w[1].digest);
        }
        let r = &run.reports[0];
        assert_eq!(r.committed_commands, n as u64);
        assert!(
            r.slots.windows(2).all(|w| w[0].commit_vtime < w[1].commit_vtime),
            "commit clocks advance slot to slot"
        );
        assert!(r.slots.last().unwrap().commit_vtime <= run.vtime);
        // Message-free rounds cost only compute ticks, but every slot
        // carries traffic, so the run pays the 100-tick hop per slot at
        // minimum — far beyond the round-barrier clock (== rounds).
        assert!(
            run.vtime >= 100 * cfg.slots as u64,
            "virtual time {} below one link hop per slot",
            run.vtime
        );
        assert!(run.vtime > run.rounds);
    }

    #[test]
    fn smr_max_vtime_budget_is_enforced() {
        use mvbc_netsim::{LinkModel, NetModel, SchedulingPolicy, Topology};
        let n = 4;
        let model = NetModel::new(LinkModel::Fixed(1000), Topology::Clique);
        let cfg = SmrConfig::new(n, 1, 8, 2)
            .unwrap()
            .with_policy(SchedulingPolicy::EventDriven(model))
            .with_max_vtime(1500);
        let hooks = (0..n).map(|_| HonestReplica::boxed()).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            simulate_smr(&cfg, workloads(n, 1), hooks, MetricsSink::new())
        }));
        let err = result.expect_err("a 1000-tick link blows a 1500-tick budget");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("virtual time limit 1500 exceeded"), "got: {msg}");
    }

    #[test]
    fn per_slot_deltas_cover_the_run() {
        use mvbc_netsim::{LinkModel, NetModel, Topology};
        let n = 4;
        let byz = 1usize;
        let base = SmrConfig::new(n, 1, 6, 2).unwrap();
        let honest = || -> Vec<Box<dyn SmrHooks>> { (0..n).map(|_| HonestReplica::boxed()).collect() };
        let equivocating = || -> Vec<Box<dyn SmrHooks>> {
            (0..n)
                .map(|i| {
                    if i == byz {
                        Box::new(EquivocatingPrimary::default()) as Box<dyn SmrHooks>
                    } else {
                        HonestReplica::boxed()
                    }
                })
                .collect()
        };
        let event = SchedulingPolicy::EventDriven(NetModel::new(LinkModel::Fixed(100), Topology::Clique));
        let cases = [
            ("depth 1", base.clone(), honest()),
            ("equivocating primary", base.clone(), equivocating()),
            ("event-driven", base.clone().with_policy(event), honest()),
            ("pipelined", base.clone().with_pipeline(4), honest()),
        ];
        for (name, cfg, hooks) in cases {
            let metrics = MetricsSink::new();
            let run = simulate_smr(&cfg, workloads(n, 2), hooks, metrics.clone());
            let snap = metrics.snapshot();
            for (i, r) in run.reports.iter().enumerate() {
                assert_eq!(r.slots.len(), cfg.slots, "{name}: replica {i} ran every slot");
                let own_bits: u64 = r.slots.iter().map(|s| s.bits_sent_by_me).sum();
                assert_eq!(own_bits, snap.logical_bits_by_node(i), "{name}: replica {i} bits");
                if cfg.pipeline == 1 {
                    assert!(r.slots.iter().all(|s| s.rounds > 0), "{name}: replica {i}");
                    let rounds: u64 = r.slots.iter().map(|s| s.rounds).sum();
                    assert_eq!(rounds, run.rounds, "{name}: replica {i} rounds");
                }
            }
        }
    }
}
