//! `mvbc-smr`: a pipelined, batched replicated command log on top of the
//! paper's broadcast primitive — Byzantine state-machine replication.
//!
//! A one-shot Byzantine broadcast becomes a throughput engine the classic
//! way: **state-machine replication**. `n` replicas run a slot-indexed
//! command log; the primary of each slot proposes a *batch* of client
//! commands, the slot is committed with the §4 dispersal-based broadcast
//! of [`mvbc_broadcast`], and every fault-free replica applies the same
//! batch to its local [`StateMachine`] — so all fault-free replicas hold
//! identical state after every slot, even with Byzantine primaries in the
//! rotation.
//!
//! What makes this a *subsystem* rather than a loop around
//! [`simulate_broadcast`](mvbc_broadcast::simulate_broadcast):
//!
//! - **One simulation, many slots.** The whole log runs inside a single
//!   [`run_tasks`](mvbc_netsim::run_tasks) call via the
//!   re-entrant [`run_broadcast_slot`](mvbc_broadcast::run_broadcast_slot)
//!   seam — no per-slot setup/teardown, and slot-scoped message tags
//!   (`smr.slot17.…`) keep adjacent slots' messages from cross-delivering.
//! - **Concurrent-slot pipelining.** One engine, the async
//!   [`replicate`], keeps a window of [`SmrConfig::pipeline`]
//!   `= W` slots in flight. At `W = 1` (the default) the one slot runs
//!   inline on the replica's own context; at `W > 1` each slot runs on
//!   its own [lane](mvbc_netsim::lanes) of the simulation, so up to `W`
//!   slots share every synchronous round, dividing total rounds by up to
//!   `W` while committing the **exact same log** as depth 1 — commits
//!   stay in slot order, and any commit that changes the shared dispute
//!   state discards and re-proposes the slots in flight.
//! - **Dispute memory across slots.** The diagnosis graph persists for
//!   the life of the log (the paper's "memory across generations" lifted
//!   to the log level): a primary caught equivocating in slot `s` has
//!   burnt trust edges — or is isolated — in every later slot, its slot
//!   commits an agreed fallback (empty batch) everywhere, and the
//!   rotation excludes it from then on.
//! - **Batching toward `O(nL)`.** Commands are packed per slot under a
//!   configurable command/byte budget, and broadcast generations are
//!   sized against the *aggregate* log payload (the dispute budget
//!   `t(t+2)` is global, so the Eq. (2) balance is struck once), which
//!   amortizes the fixed per-generation `Broadcast_Single_Bit` overhead
//!   toward the paper's `O(nL)` bound. `mvbc-bench smr_throughput`
//!   measures the win over independent single-shot broadcasts.
//!
//! # Examples
//!
//! ```
//! use mvbc_smr::{simulate_smr, Command, EquivocatingPrimary, HonestReplica, SmrConfig, SmrHooks};
//! use mvbc_metrics::MetricsSink;
//!
//! // 4 replicas, t = 1; replica 1 equivocates on its first primary turn.
//! let cfg = SmrConfig::new(4, 1, 6, 2)?;
//! let workloads: Vec<Vec<Command>> = (0..4u16)
//!     .map(|i| vec![Command { key: i + 1, value: 7 }])
//!     .collect();
//! let hooks: Vec<Box<dyn SmrHooks>> = (0..4)
//!     .map(|i| {
//!         if i == 1 {
//!             Box::new(EquivocatingPrimary::default()) as Box<dyn SmrHooks>
//!         } else {
//!             HonestReplica::boxed()
//!         }
//!     })
//!     .collect();
//! let run = simulate_smr(&cfg, workloads, hooks, MetricsSink::new());
//! // Fault-free replicas agree on the whole log and the final state...
//! assert_eq!(run.reports[0].agreed_log(), run.reports[2].agreed_log());
//! assert_eq!(run.stores[0], run.stores[3]);
//! // ...the equivocating slot fell back to the empty batch everywhere...
//! assert!(run.reports[0].slots[1].fallback);
//! // ...and the caught primary is out of the rotation.
//! assert!(run.reports[0].suspects.contains(&1));
//! # Ok::<(), mvbc_smr::SmrConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod log;
mod primary;
mod report;
mod slot;
mod state_machine;

pub use batch::{decode_batch, encode_batch, synthetic_workloads, BatchBuilder, Command};
pub use log::{
    replicate, simulate_smr, simulate_smr_traced, SmrConfig, SmrConfigError, SmrReport, SmrRun,
    COMMIT_GAP_TAG, COMMIT_VTIME_TAG, MAX_PIPELINE,
};
pub use primary::{plan_for_slot, primary_for_slot, SlotPlan};
pub use report::{
    parse_json, JsonValue, LatencySummary, LinkActivity, NodeActivity, OutageReport, PhaseShare,
    RunReport, SlotTimeline, RUN_REPORT_SCHEMA, TOP_K,
};
pub use slot::{AgreedSlot, EquivocatingPrimary, HonestReplica, SilentPrimary, SlotReport, SmrHooks};
pub use state_machine::{KvStore, StateMachine};
