//! Byzantine behaviour hooks for the broadcast protocol.

use mvbc_bsb::BsbHooks;
use mvbc_core::DiagGraph;
use mvbc_netsim::NodeId;

/// Mutation points of the broadcast protocol (dispersal / echo /
/// diagnosis), mirroring [`mvbc_core::ProtocolHooks`] for consensus.
///
/// Generations run in windows (see the crate docs), and every hook is
/// still called per generation, with that generation's index `g`, in
/// this order within a window:
///
/// 1. at its start, [`crash_before_generation`](Self::crash_before_generation)
///    for each member in order until one returns `true` (which crashes
///    the node there, before the window runs), then
///    [`observe_generation_start`](Self::observe_generation_start) for
///    every member, then, at the source,
///    [`input_override`](Self::input_override) for every member;
/// 2. [`dispersal_symbol`](Self::dispersal_symbol) (the source), then
///    [`echo_symbol`](Self::echo_symbol) (echo-set members): recipient
///    by recipient in ascending id and, for each recipient, generation
///    by generation, each on a private copy of the honest symbol;
/// 3. [`detected_flag`](Self::detected_flag) for every member, in order,
///    then the `BsbHooks` of the window's one `Detected` batch;
/// 4. only for the first generation with a detection: its
///    [`data_bits`](Self::data_bits),
///    [`echo_claim_bits`](Self::echo_claim_bits) and
///    [`trust_bits`](Self::trust_bits).
///
/// The generations after a diagnosed one are discarded and run again in
/// a later window, so their hooks are called again. A strategy that
/// should act in generation `g` as it would one generation at a time
/// keys its behaviour by `g`, as every strategy in
/// [`attacks`](crate::attacks) does.
pub trait BroadcastHooks: BsbHooks {
    /// Called at the start of each generation's window with the shared
    /// diagnosis graph (the paper's full-information adversary).
    fn observe_generation_start(&mut self, g: usize, me: NodeId, diag: &DiagGraph) {
        let _ = (g, me, diag);
    }

    /// Source only: replace the generation data before encoding.
    fn input_override(&mut self, g: usize, value: &mut Vec<u8>) {
        let _ = (g, value);
    }

    /// Source only: mutate the coded symbol sent to processor `to` in the
    /// dispersal round; return `false` to suppress the send.
    fn dispersal_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        let _ = (g, to, payload);
        true
    }

    /// Echo-set members: mutate the relayed symbol sent to `to`; return
    /// `false` to suppress.
    fn echo_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        let _ = (g, to, payload);
        true
    }

    /// Flip the 1-bit `Detected` verdict before broadcast.
    fn detected_flag(&mut self, g: usize, flag: &mut bool) {
        let _ = (g, flag);
    }

    /// Source only, diagnosis stage: mutate the full generation data bits
    /// before the `Broadcast_Single_Bit` re-broadcast.
    fn data_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        let _ = (g, bits);
    }

    /// Echo-set members, diagnosis stage: mutate the claimed
    /// presence+symbol bits.
    fn echo_claim_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        let _ = (g, bits);
    }

    /// Mutate the trust vector (`[trust-source, trust-echo...]`) before
    /// broadcast.
    fn trust_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        let _ = (g, bits);
    }

    /// Crash (stop participating) before generation `g`: at the start
    /// of the window that holds `g`.
    fn crash_before_generation(&mut self, g: usize) -> bool {
        let _ = g;
        false
    }
}

/// The honest broadcast behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopBroadcastHooks;

impl BsbHooks for NoopBroadcastHooks {}
impl BroadcastHooks for NoopBroadcastHooks {}

impl NoopBroadcastHooks {
    /// Boxed honest hooks.
    pub fn boxed() -> Box<dyn BroadcastHooks> {
        Box::new(NoopBroadcastHooks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_defaults_do_nothing() {
        let mut h = NoopBroadcastHooks;
        let mut v = vec![1u8];
        h.input_override(0, &mut v);
        assert_eq!(v, vec![1]);
        let mut p = vec![2u8];
        assert!(h.dispersal_symbol(0, 1, &mut p));
        assert!(h.echo_symbol(0, 1, &mut p));
        assert_eq!(p, vec![2]);
        let mut flag = true;
        h.detected_flag(0, &mut flag);
        assert!(flag);
        assert!(!h.crash_before_generation(0));
    }
}
