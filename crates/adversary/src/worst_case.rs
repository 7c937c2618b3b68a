//! The orchestrated worst-case adversary for experiment E4.
//!
//! Theorem 1 bounds the number of diagnosis-stage executions by `t(t+1)`:
//! each diagnosis removes at least one edge adjacent to a faulty vertex
//! (Lemma 4), and a faulty vertex is isolated once `t + 1` of its edges
//! are gone, so `t` faulty processors can spend at most `t(t+1)` edges.
//!
//! [`WorstCaseDiagnosis`] tries to *realise* that bound: the colluding
//! faulty processors take turns (one per generation); the acting processor
//! corrupts its matching-stage symbol toward a single carefully chosen
//! honest victim — the highest-id processor that still trusts it — and
//! claims a (false) detection when it ends up outside `P_match` itself.
//! Either path triggers a diagnosis stage, and behaving honestly *inside*
//! the diagnosis keeps the damage to roughly one sacrificed edge per
//! diagnosis, stretching the faulty processors' edge budget as far as it
//! goes.

use mvbc_bsb::BsbHooks;
use mvbc_core::{DiagGraph, ProtocolHooks};
use mvbc_netsim::NodeId;

/// One member of the colluding worst-case team (create one per faulty
/// processor, all with the same `faulty` list).
///
/// Its state is keyed by the generation argument of each hook, so the
/// stage-by-stage interleaving of a window's generations (see
/// [`ProtocolHooks`]) attacks each generation exactly as the
/// one-generation-at-a-time engine would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstCaseDiagnosis {
    faulty: Vec<NodeId>,
    me: Option<NodeId>,
    isolated: bool,
    /// The highest-id honest processor that trusts `me` in the most
    /// recently observed diagnosis graph.
    target: Option<NodeId>,
    /// The most recently observed generation.
    last: usize,
}

impl WorstCaseDiagnosis {
    /// Creates the strategy for one member of the colluding set `faulty`
    /// (ascending ids; every member must receive the same list).
    pub fn new(faulty: Vec<NodeId>) -> Self {
        WorstCaseDiagnosis {
            faulty,
            me: None,
            isolated: false,
            target: None,
            last: 0,
        }
    }

    /// Whether this member acts in generation `g`. The team takes turns:
    /// faulty processor `g mod |faulty|` acts (isolated members skip
    /// their turn implicitly — the engine stops running them).
    fn acting(&self, g: usize) -> bool {
        self.me == Some(self.faulty[g % self.faulty.len()]) && !self.isolated
    }

    /// The victim of generation `g`, when this member acts in it.
    fn victim_in(&self, g: usize) -> Option<NodeId> {
        self.target.filter(|_| self.acting(g))
    }

    /// The victim in the most recently observed generation (visible for
    /// tests).
    pub fn victim(&self) -> Option<NodeId> {
        self.victim_in(self.last)
    }
}

impl BsbHooks for WorstCaseDiagnosis {}

impl ProtocolHooks for WorstCaseDiagnosis {
    fn observe_generation_start(&mut self, g: usize, me: NodeId, diag: &DiagGraph) {
        self.me = Some(me);
        self.isolated = diag.is_isolated(me);
        self.last = g;
        // Victim: highest-id honest processor that still trusts me.
        self.target = (0..diag.n())
            .rev()
            .find(|&v| v != me && !self.faulty.contains(&v) && diag.trusts(me, v));
    }

    fn matching_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        if self.victim_in(g) == Some(to) {
            for b in payload.iter_mut() {
                *b ^= 0xFF;
            }
        }
        true
    }

    fn detected_flag(&mut self, g: usize, flag: &mut bool) {
        // If the acting processor landed outside P_match its symbol
        // corruption is invisible (all P_match symbols are consistent);
        // claim a detection anyway to force the diagnosis stage and burn
        // one more of our own edges (or get isolated per line 3(f)).
        if self.acting(g) {
            *flag = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turn_taking_round_robin() {
        let diag = DiagGraph::new(7, 2);
        let mut a = WorstCaseDiagnosis::new(vec![0, 1]);
        a.observe_generation_start(0, 0, &diag);
        assert!(a.acting(0));
        assert!(!a.acting(1));
        assert!(a.acting(2));
        // Keyed by the generation, not by the last observation: a window
        // observes all its generations before any of them sends.
        a.observe_generation_start(1, 0, &diag);
        assert!(a.acting(0));
        assert!(!a.acting(1));
    }

    #[test]
    fn victim_is_highest_trusted_honest() {
        let mut diag = DiagGraph::new(7, 2);
        let mut a = WorstCaseDiagnosis::new(vec![0, 1]);
        a.observe_generation_start(0, 0, &diag);
        assert_eq!(a.victim(), Some(6));
        // After losing the edge to 6, the next victim is 5.
        diag.remove_edge(0, 6);
        a.observe_generation_start(2, 0, &diag);
        assert_eq!(a.victim(), Some(5));
    }

    #[test]
    fn non_acting_member_stays_honest() {
        let diag = DiagGraph::new(7, 2);
        let mut a = WorstCaseDiagnosis::new(vec![0, 1]);
        a.observe_generation_start(0, 1, &diag); // node 1, but turn = 0
        assert!(!a.acting(0));
        let mut payload = vec![0xAB];
        a.matching_symbol(0, 6, &mut payload);
        assert_eq!(payload, vec![0xAB]);
        let mut flag = false;
        a.detected_flag(0, &mut flag);
        assert!(!flag);
    }

    #[test]
    fn acting_member_corrupts_only_victim() {
        let diag = DiagGraph::new(4, 1);
        let mut a = WorstCaseDiagnosis::new(vec![0]);
        a.observe_generation_start(0, 0, &diag);
        assert_eq!(a.victim(), Some(3));
        let mut to_victim = vec![0x00];
        a.matching_symbol(0, 3, &mut to_victim);
        assert_eq!(to_victim, vec![0xFF]);
        let mut to_other = vec![0x00];
        a.matching_symbol(0, 2, &mut to_other);
        assert_eq!(to_other, vec![0x00]);
    }
}
