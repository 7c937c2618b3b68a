//! Late-activation ("sleeper") adversary combinator.
//!
//! The paper's adversary "can take over up to `t` processors **at any
//! point during the algorithm**" (§1). Most strategies in this crate
//! misbehave from generation 0; [`Sleeper`] wraps any strategy and keeps
//! it dormant (honest) until a chosen generation, modelling a processor
//! that is taken over mid-run — after the diagnosis graph has already
//! accumulated trust in it. The `t(t+1)` bound of Theorem 1 is global,
//! so late activation must not buy the adversary extra diagnoses.

use mvbc_bsb::BsbHooks;
use mvbc_core::{DiagGraph, ProtocolHooks};
use mvbc_netsim::NodeId;

/// Wraps an inner strategy, activating it from `start_generation` on.
///
/// Before activation every hook behaves honestly. Protocol-level hooks
/// are gated by their generation argument. BSB-level hooks have none and
/// are gated by the most recent `observe_generation_start` call; a window
/// observes all its generations before its batches run, so that is the
/// window's last generation: BSB-level gating follows the window.
///
/// # Examples
///
/// ```
/// use mvbc_adversary::{CorruptSymbolTo, Sleeper};
/// use mvbc_core::{simulate_consensus, ConsensusConfig, NoopHooks, ProtocolHooks};
/// use mvbc_metrics::MetricsSink;
///
/// // Honest for 3 generations, then corrupts toward processor 3.
/// let cfg = ConsensusConfig::with_gen_bytes(4, 1, 48, 8)?;
/// let v = vec![5u8; 48];
/// let mut hooks: Vec<Box<dyn ProtocolHooks>> =
///     (0..4).map(|_| NoopHooks::boxed()).collect();
/// hooks[2] = Box::new(Sleeper::new(3, CorruptSymbolTo::new(vec![3])));
/// let run = simulate_consensus(&cfg, vec![v.clone(); 4], hooks, MetricsSink::new());
/// assert_eq!(run.outputs[0], v); // agreement survives the mid-run takeover
/// # Ok::<(), mvbc_core::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Sleeper<H> {
    inner: H,
    start_generation: usize,
    current_generation: usize,
}

impl<H: ProtocolHooks> Sleeper<H> {
    /// Sleeps through generations `0..start_generation`, then runs
    /// `inner`.
    pub fn new(start_generation: usize, inner: H) -> Self {
        Sleeper {
            inner,
            start_generation,
            current_generation: 0,
        }
    }

    /// BSB-level gate: the window's last generation is awake.
    fn awake(&self) -> bool {
        self.awake_at(self.current_generation)
    }

    fn awake_at(&self, g: usize) -> bool {
        g >= self.start_generation
    }
}

impl<H: ProtocolHooks> BsbHooks for Sleeper<H> {
    fn source_bits(&mut self, session: &'static str, to: NodeId, bits: &mut [bool]) {
        if self.awake() {
            self.inner.source_bits(session, to, bits);
        }
    }

    fn king_values(&mut self, session: &'static str, phase: usize, to: NodeId, values: &mut [bool]) {
        if self.awake() {
            self.inner.king_values(session, phase, to, values);
        }
    }

    fn king_proposals(&mut self, session: &'static str, phase: usize, to: NodeId, proposals: &mut [u8]) {
        if self.awake() {
            self.inner.king_proposals(session, phase, to, proposals);
        }
    }

    fn king_bits(&mut self, session: &'static str, phase: usize, to: NodeId, bits: &mut [bool]) {
        if self.awake() {
            self.inner.king_bits(session, phase, to, bits);
        }
    }

    fn eig_values(&mut self, session: &'static str, round: usize, to: NodeId, values: &mut [bool]) {
        if self.awake() {
            self.inner.eig_values(session, round, to, values);
        }
    }

    fn ds_relay(&mut self, session: &'static str, round: usize, instance: usize, bit: bool) -> bool {
        if self.awake() {
            self.inner.ds_relay(session, round, instance, bit)
        } else {
            true
        }
    }
}

impl<H: ProtocolHooks> ProtocolHooks for Sleeper<H> {
    fn observe_generation_start(&mut self, g: usize, me: NodeId, diag: &DiagGraph) {
        self.current_generation = g;
        self.inner.observe_generation_start(g, me, diag);
    }

    fn input_override(&mut self, g: usize, value: &mut Vec<u8>) {
        if self.awake_at(g) {
            self.inner.input_override(g, value);
        }
    }

    fn matching_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        if self.awake_at(g) {
            self.inner.matching_symbol(g, to, payload)
        } else {
            true
        }
    }

    fn m_vector(&mut self, g: usize, m: &mut Vec<bool>) {
        if self.awake_at(g) {
            self.inner.m_vector(g, m);
        }
    }

    fn detected_flag(&mut self, g: usize, flag: &mut bool) {
        if self.awake_at(g) {
            self.inner.detected_flag(g, flag);
        }
    }

    fn diagnosis_symbol_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        if self.awake_at(g) {
            self.inner.diagnosis_symbol_bits(g, bits);
        }
    }

    fn trust_vector(&mut self, g: usize, trust: &mut Vec<bool>) {
        if self.awake_at(g) {
            self.inner.trust_vector(g, trust);
        }
    }

    fn crash_before_generation(&mut self, g: usize) -> bool {
        self.awake_at(g) && self.inner.crash_before_generation(g)
    }
}

/// The inverse of [`Sleeper`]: runs the inner strategy only for
/// generations `0..stop_generation`, honest afterwards.
///
/// Used by experiment E14 to bound how long an orchestrated adversary
/// keeps attacking, separating "attack persistence" from the `t(t+1)`
/// diagnosis budget it can actually spend. Gating is as for [`Sleeper`]:
/// protocol-level hooks by their generation argument, BSB-level hooks by
/// the window.
#[derive(Debug)]
pub struct Deadline<H> {
    inner: H,
    stop_generation: usize,
    current_generation: usize,
}

impl<H: ProtocolHooks> Deadline<H> {
    /// Runs `inner` for generations `0..stop_generation`, then honest.
    pub fn new(stop_generation: usize, inner: H) -> Self {
        Deadline {
            inner,
            stop_generation,
            current_generation: 0,
        }
    }

    /// BSB-level gate: the window's last generation is still active.
    fn active(&self) -> bool {
        self.active_at(self.current_generation)
    }

    fn active_at(&self, g: usize) -> bool {
        g < self.stop_generation
    }
}

impl<H: ProtocolHooks> BsbHooks for Deadline<H> {
    fn source_bits(&mut self, session: &'static str, to: NodeId, bits: &mut [bool]) {
        if self.active() {
            self.inner.source_bits(session, to, bits);
        }
    }

    fn king_values(&mut self, session: &'static str, phase: usize, to: NodeId, values: &mut [bool]) {
        if self.active() {
            self.inner.king_values(session, phase, to, values);
        }
    }

    fn king_proposals(&mut self, session: &'static str, phase: usize, to: NodeId, proposals: &mut [u8]) {
        if self.active() {
            self.inner.king_proposals(session, phase, to, proposals);
        }
    }

    fn king_bits(&mut self, session: &'static str, phase: usize, to: NodeId, bits: &mut [bool]) {
        if self.active() {
            self.inner.king_bits(session, phase, to, bits);
        }
    }

    fn eig_values(&mut self, session: &'static str, round: usize, to: NodeId, values: &mut [bool]) {
        if self.active() {
            self.inner.eig_values(session, round, to, values);
        }
    }

    fn ds_relay(&mut self, session: &'static str, round: usize, instance: usize, bit: bool) -> bool {
        if self.active() {
            self.inner.ds_relay(session, round, instance, bit)
        } else {
            true
        }
    }
}

impl<H: ProtocolHooks> ProtocolHooks for Deadline<H> {
    fn observe_generation_start(&mut self, g: usize, me: NodeId, diag: &DiagGraph) {
        self.current_generation = g;
        self.inner.observe_generation_start(g, me, diag);
    }

    fn input_override(&mut self, g: usize, value: &mut Vec<u8>) {
        if self.active_at(g) {
            self.inner.input_override(g, value);
        }
    }

    fn matching_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        if self.active_at(g) {
            self.inner.matching_symbol(g, to, payload)
        } else {
            true
        }
    }

    fn m_vector(&mut self, g: usize, m: &mut Vec<bool>) {
        if self.active_at(g) {
            self.inner.m_vector(g, m);
        }
    }

    fn detected_flag(&mut self, g: usize, flag: &mut bool) {
        if self.active_at(g) {
            self.inner.detected_flag(g, flag);
        }
    }

    fn diagnosis_symbol_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        if self.active_at(g) {
            self.inner.diagnosis_symbol_bits(g, bits);
        }
    }

    fn trust_vector(&mut self, g: usize, trust: &mut Vec<bool>) {
        if self.active_at(g) {
            self.inner.trust_vector(g, trust);
        }
    }

    fn crash_before_generation(&mut self, g: usize) -> bool {
        self.active_at(g) && self.inner.crash_before_generation(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorruptSymbolTo;
    use mvbc_core::{simulate_consensus, ConsensusConfig, NoopHooks, ProtocolHooks};
    use mvbc_metrics::MetricsSink;

    #[test]
    fn dormant_phase_is_honest() {
        let mut sleeper = Sleeper::new(2, CorruptSymbolTo::new(vec![1]));
        sleeper.observe_generation_start(0, 0, &DiagGraph::new(4, 1));
        let mut payload = vec![0xFFu8];
        assert!(sleeper.matching_symbol(0, 1, &mut payload));
        assert_eq!(payload, vec![0xFF], "dormant sleeper must not corrupt");
    }

    #[test]
    fn wakes_at_start_generation() {
        let mut sleeper = Sleeper::new(2, CorruptSymbolTo::new(vec![1]));
        sleeper.observe_generation_start(2, 0, &DiagGraph::new(4, 1));
        let mut payload = vec![0xFFu8];
        let _ = sleeper.matching_symbol(2, 1, &mut payload);
        assert_ne!(payload, vec![0xFF], "awake sleeper must corrupt");
    }

    #[test]
    fn deadline_stops_attacking() {
        let mut d = Deadline::new(2, CorruptSymbolTo::new(vec![1]));
        d.observe_generation_start(1, 0, &DiagGraph::new(4, 1));
        let mut payload = vec![0xFFu8];
        let _ = d.matching_symbol(1, 1, &mut payload);
        assert_ne!(payload, vec![0xFF], "active deadline must corrupt");
        d.observe_generation_start(2, 0, &DiagGraph::new(4, 1));
        let mut payload = vec![0xFFu8];
        assert!(d.matching_symbol(2, 1, &mut payload));
        assert_eq!(payload, vec![0xFF], "expired deadline must be honest");
    }

    #[test]
    fn deadline_bounded_attack_preserves_invariants() {
        let cfg = ConsensusConfig::with_gen_bytes(4, 1, 48, 8).unwrap();
        let v: Vec<u8> = (0..48).map(|i| (i * 5) as u8).collect();
        let hooks: Vec<Box<dyn ProtocolHooks>> = (0..4)
            .map(|i| {
                if i == 0 {
                    Box::new(Deadline::new(2, CorruptSymbolTo::new(vec![3])))
                        as Box<dyn ProtocolHooks>
                } else {
                    NoopHooks::boxed()
                }
            })
            .collect();
        let run = simulate_consensus(&cfg, vec![v.clone(); 4], hooks, MetricsSink::new());
        for honest in 1..4 {
            assert_eq!(run.outputs[honest], v);
            assert!(run.reports[honest].diagnosis_invocations <= 2);
        }
    }

    #[test]
    fn late_takeover_cannot_break_agreement_or_bounds() {
        // Processor 2 behaves honestly for 3 generations, then corrupts
        // symbols: agreement, validity and the t(t+1) diagnosis bound
        // must all survive the mid-run takeover.
        let cfg = ConsensusConfig::with_gen_bytes(4, 1, 48, 8).unwrap();
        let v: Vec<u8> = (0..48).map(|i| i as u8).collect();
        let hooks: Vec<Box<dyn ProtocolHooks>> = (0..4)
            .map(|i| {
                if i == 2 {
                    // Corrupt toward a single victim so the sleeper stays
                    // inside P_match and the inconsistency must be
                    // diagnosed (corrupting toward everyone would merely
                    // exclude it from P_match, diagnosis-free).
                    Box::new(Sleeper::new(3, CorruptSymbolTo::new(vec![3])))
                        as Box<dyn ProtocolHooks>
                } else {
                    NoopHooks::boxed()
                }
            })
            .collect();
        let run = simulate_consensus(&cfg, vec![v.clone(); 4], hooks, MetricsSink::new());
        for honest in [0usize, 1, 3] {
            assert_eq!(run.outputs[honest], v);
            assert!(run.reports[honest].diagnosis_invocations <= 2);
            assert!(run.reports[honest].isolated.iter().all(|&i| i == 2));
        }
        // The attack really fired: at least one diagnosis ran after g=3.
        assert!(run.reports[0].diagnosis_invocations >= 1);
    }
}
