//! Per-slot reports and per-slot Byzantine behaviour hooks.

use mvbc_broadcast::attacks::EquivocatingSource;
use mvbc_broadcast::attacks::SilentSource;
use mvbc_broadcast::{BroadcastHooks, NoopBroadcastHooks};
use mvbc_netsim::{NodeId, VirtualTime};

use crate::batch::Command;

/// One replica's record of one committed slot.
///
/// Every field except `bits_sent_by_me` and `commit_vtime` is identical
/// across fault-free replicas (they are all derived from agreed protocol
/// outputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotReport {
    /// Slot index.
    pub slot: u64,
    /// The primary that proposed this slot.
    pub primary: NodeId,
    /// The committed batch (empty on fallback).
    pub committed: Vec<Command>,
    /// True when the slot committed the agreed fallback (empty batch)
    /// because the primary was caught misbehaving or could not be used.
    pub fallback: bool,
    /// Whether any generation of this slot ran the diagnosis stage.
    pub diagnosis_ran: bool,
    /// How many generations of this slot ran the diagnosis stage. The
    /// diagnosis graph persists across the log, so the *sum* of this
    /// field over all slots is bounded by the paper's global dispute
    /// budget `t(t+2)` — campaign checkers assert exactly that.
    pub diagnosis_invocations: u64,
    /// Logical bits *this* replica sent during the slot: the advance of
    /// the [`NodeCtx::bits_sent`](mvbc_netsim::NodeCtx::bits_sent)
    /// counter of the context that ran the slot (the replica's own, or the
    /// slot's lane under pipelining). Exact, and constant-cost to read.
    pub bits_sent_by_me: u64,
    /// Synchronous rounds the slot consumed: the advance of that
    /// context's [`NodeCtx::round`](mvbc_netsim::NodeCtx::round).
    pub rounds: u64,
    /// *This* replica's virtual clock at the moment the slot committed
    /// ([`NodeCtx::vtime`](mvbc_netsim::NodeCtx::vtime)): the round
    /// counter under the round-barrier policy, the latency-model tick
    /// under the event-driven policy. A local measurement — like
    /// `bits_sent_by_me`, it is excluded from [`AgreedSlot`], and it
    /// depends on the scheduling (a pipelined run commits later slots at
    /// earlier clocks than a depth-1 one).
    pub commit_vtime: VirtualTime,
}

/// The agreement-relevant view of a [`SlotReport`]: every field that is
/// guaranteed identical at fault-free replicas (everything but the local
/// measurement `bits_sent_by_me`). Compare these across replicas to
/// check log agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgreedSlot<'a> {
    /// Slot index.
    pub slot: u64,
    /// The slot's primary.
    pub primary: NodeId,
    /// The committed batch.
    pub committed: &'a [Command],
    /// Whether the slot committed the fallback batch.
    pub fallback: bool,
    /// Whether diagnosis ran.
    pub diagnosis_ran: bool,
    /// Rounds the slot consumed.
    pub rounds: u64,
}

impl SlotReport {
    /// The agreed-empty record of a **degraded** slot (every active
    /// replica suspect; see
    /// [`SlotPlan::DegradedEmpty`](crate::SlotPlan::DegradedEmpty)): no
    /// broadcast runs, nothing commits, `nominal` is the rotation pick
    /// recorded for reporting only. `commit_vtime` is the committing
    /// replica's clock when it resolved the slot (degraded slots consume
    /// no rounds, so it is simply the clock carried over from the
    /// previous slot).
    pub fn degraded(slot: u64, nominal: NodeId, commit_vtime: VirtualTime) -> Self {
        SlotReport {
            slot,
            primary: nominal,
            committed: Vec::new(),
            fallback: true,
            diagnosis_ran: false,
            diagnosis_invocations: 0,
            bits_sent_by_me: 0,
            rounds: 0,
            commit_vtime,
        }
    }

    /// This slot's [`AgreedSlot`] view.
    pub fn agreed(&self) -> AgreedSlot<'_> {
        AgreedSlot {
            slot: self.slot,
            primary: self.primary,
            committed: &self.committed,
            fallback: self.fallback,
            diagnosis_ran: self.diagnosis_ran,
            rounds: self.rounds,
        }
    }
}

/// Per-replica behaviour of the replicated log: chooses the
/// broadcast-layer hooks each slot runs under.
///
/// The honest implementation is [`HonestReplica`]; Byzantine replicas
/// substitute attack hooks for the slots where they are primary.
pub trait SmrHooks: Send {
    /// Called at the start of every slot *attempt*; returns the broadcast
    /// hooks the replica uses for that attempt's broadcast execution.
    ///
    /// At pipeline depth `W > 1` ([`replicate`](crate::replicate)) a slot
    /// may be attempted more than once — an attempt in flight when a commit
    /// changes the dispute state is discarded and the slot re-proposed —
    /// so this method can be called several times for one `slot` and must
    /// be deterministic in `(slot, i_am_primary)` for every depth to
    /// commit exactly the depth-1 log.
    ///
    /// The returned hooks live in the attempt's lane future, which the
    /// replica polls inside its own future next to the other attempts in
    /// flight; they are dropped when the attempt ends or is discarded
    /// (a discarded attempt's lane is cancelled mid-protocol).
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks>;
}

/// A fault-free replica: honest hooks every slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HonestReplica;

impl SmrHooks for HonestReplica {
    fn slot_hooks(&mut self, _slot: u64, _i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        NoopBroadcastHooks::boxed()
    }
}

impl HonestReplica {
    /// Boxed honest behaviour.
    pub fn boxed() -> Box<dyn SmrHooks> {
        Box::new(HonestReplica)
    }
}

/// A replica that equivocates during dispersal whenever it is primary
/// (restricted to `on_slots` when set): the split proposal is detected,
/// the slot falls back everywhere, and the rotation drops the replica.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EquivocatingPrimary {
    /// Slots on which to equivocate (`None` = every primary turn).
    pub on_slots: Option<Vec<u64>>,
}

impl SmrHooks for EquivocatingPrimary {
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        let armed = i_am_primary
            && self.on_slots.as_ref().is_none_or(|s| s.contains(&slot));
        if armed {
            Box::new(EquivocatingSource)
        } else {
            NoopBroadcastHooks::boxed()
        }
    }
}

/// A replica that never disperses when primary (a crashed/withholding
/// leader): receivers detect the silence, the slot falls back, and the
/// rotation routes around it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SilentPrimary;

impl SmrHooks for SilentPrimary {
    fn slot_hooks(&mut self, _slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        if i_am_primary {
            Box::new(SilentSource)
        } else {
            NoopBroadcastHooks::boxed()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivocating_primary_arms_only_on_its_turn() {
        let mut h = EquivocatingPrimary { on_slots: Some(vec![2]) };
        // Not primary: honest hooks (mutating a dispersal symbol is a
        // pass-through).
        let mut payload = vec![0xAAu8];
        assert!(h.slot_hooks(2, false).dispersal_symbol(0, 1, &mut payload));
        assert_eq!(payload, vec![0xAA]);
        // Primary on the armed slot: odd recipients get corrupted symbols.
        let mut payload = vec![0xAAu8];
        assert!(h.slot_hooks(2, true).dispersal_symbol(0, 1, &mut payload));
        assert_eq!(payload, vec![0x55]);
        // Primary on another slot: honest again.
        let mut payload = vec![0xAAu8];
        assert!(h.slot_hooks(3, true).dispersal_symbol(0, 1, &mut payload));
        assert_eq!(payload, vec![0xAA]);
    }

    #[test]
    fn silent_primary_suppresses_dispersal() {
        let mut h = SilentPrimary;
        let mut payload = vec![1u8];
        assert!(!h.slot_hooks(0, true).dispersal_symbol(0, 1, &mut payload));
        assert!(h.slot_hooks(0, false).dispersal_symbol(0, 1, &mut payload));
    }
}
