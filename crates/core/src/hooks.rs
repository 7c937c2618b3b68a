//! Byzantine behaviour hooks for the consensus protocol.
//!
//! Faulty processors in this workspace execute the honest protocol code
//! but may mutate any outgoing information through a [`ProtocolHooks`]
//! implementation. The paper's adversary controls message *content* only
//! (channels are authenticated, §1), so mutation hooks at every send
//! point — including inside the `Broadcast_Single_Bit` sub-protocol via
//! the inherited [`BsbHooks`] — realise the full adversary. Concrete
//! attack strategies live in the `mvbc-adversary` crate.

use mvbc_bsb::BsbHooks;
use mvbc_netsim::NodeId;

use crate::diag::DiagGraph;

/// Mutation points of Algorithm 1, by stage and line number.
///
/// All methods default to honest no-ops. Slices/vectors are mutated in
/// place; indices refer to processor ids except where noted.
///
/// # Call order
///
/// The engine runs generations in windows of up to
/// [`GENERATION_WINDOW`](crate::GENERATION_WINDOW) (see the crate
/// documentation's *Windows* section), and the calls for a window's
/// generations are interleaved stage by stage:
///
/// 1. [`crash_before_generation`](Self::crash_before_generation) for each
///    generation of the window in order, until one returns `true` (the
///    processor then crashes at the window's start);
/// 2. [`observe_generation_start`](Self::observe_generation_start) and
///    [`input_override`](Self::input_override) per generation — every
///    generation sees the diagnosis graph of the window's start;
/// 3. [`matching_symbol`](Self::matching_symbol) for every generation,
///    then [`m_vector`](Self::m_vector) for every generation, then one
///    `Broadcast_Single_Bit` batch (the [`BsbHooks`] calls) for all of
///    them;
/// 4. [`detected_flag`](Self::detected_flag) for each generation before
///    the first without a `P_match` in which this processor is outside
///    `P_match`, then one batch for all those generations' flags;
/// 5. [`diagnosis_symbol_bits`](Self::diagnosis_symbol_bits) and
///    [`trust_vector`](Self::trust_vector), with their batches, for the
///    first generation with a detection, if any.
///
/// A diagnosis discards the window's later generations, which the next
/// window runs again: their hooks are called again, under the updated
/// graph. A strategy whose behaviour in generation `g` should match the
/// one-generation-at-a-time algorithm must therefore key its state by
/// the `g` argument, not by call order. BSB-level hooks carry no
/// generation, and one batch serves the whole window.
pub trait ProtocolHooks: BsbHooks {
    /// Observation point: called at the start of every generation with
    /// this processor's id and the current diagnosis graph (the graph at
    /// the start of the generation's window, which is the graph the
    /// generation runs under). The paper's
    /// adversary has complete knowledge of all state (§1, "no secret is
    /// hidden from the adversary"); adaptive strategies use this to plan
    /// which edges to sacrifice.
    fn observe_generation_start(&mut self, g: usize, me: NodeId, diag: &DiagGraph) {
        let _ = (g, me, diag);
    }

    /// Replace this processor's input for generation `g` (models a faulty
    /// processor that "has" different values at different times).
    fn input_override(&mut self, g: usize, value: &mut Vec<u8>) {
        let _ = (g, value);
    }

    /// Line 1(a): mutate the serialized coded symbol about to be sent to
    /// `to`; clearing the buffer models sending garbage (the receiver
    /// treats it as `⊥`). Returning `false` suppresses the send entirely.
    fn matching_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        let _ = (g, to, payload);
        true
    }

    /// Line 1(d): mutate the `M` vector before it is broadcast. (Per-
    /// recipient equivocation of the broadcast itself goes through the
    /// inherited [`BsbHooks::source_bits`].)
    fn m_vector(&mut self, g: usize, m: &mut Vec<bool>) {
        let _ = (g, m);
    }

    /// Line 2(b): flip the `Detected` flag before broadcasting it.
    fn detected_flag(&mut self, g: usize, flag: &mut bool) {
        let _ = (g, flag);
    }

    /// Line 3(a): mutate the bits of `S_j[j]` this member of `P_match` is
    /// about to broadcast in the diagnosis stage.
    fn diagnosis_symbol_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        let _ = (g, bits);
    }

    /// Line 3(d): mutate the `Trust` vector (indexed by position within
    /// `P_match`) before broadcasting it.
    fn trust_vector(&mut self, g: usize, trust: &mut Vec<bool>) {
        let _ = (g, trust);
    }

    /// Called before generation `g`'s window starts; returning `true`
    /// makes the processor crash (stop participating permanently) at the
    /// start of that window.
    fn crash_before_generation(&mut self, g: usize) -> bool {
        let _ = g;
        false
    }
}

/// The honest behaviour: every hook is a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopHooks;

impl BsbHooks for NoopHooks {}
impl ProtocolHooks for NoopHooks {}

impl NoopHooks {
    /// Boxed honest hooks, convenient for building hook vectors.
    pub fn boxed() -> Box<dyn ProtocolHooks> {
        Box::new(NoopHooks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_defaults() {
        let mut h = NoopHooks;
        let mut v = vec![1u8, 2];
        h.input_override(0, &mut v);
        assert_eq!(v, vec![1, 2]);
        let mut payload = vec![3u8];
        assert!(h.matching_symbol(0, 1, &mut payload));
        assert_eq!(payload, vec![3]);
        let mut m = vec![true];
        h.m_vector(0, &mut m);
        assert_eq!(m, vec![true]);
        let mut flag = false;
        h.detected_flag(0, &mut flag);
        assert!(!flag);
        assert!(!h.crash_before_generation(5));
    }

    #[test]
    fn hooks_are_object_safe() {
        let mut boxed: Box<dyn ProtocolHooks> = NoopHooks::boxed();
        let mut trust = vec![true, false];
        boxed.trust_vector(1, &mut trust);
        assert_eq!(trust, vec![true, false]);
    }
}
