//! Compiling a [`Scenario`] corruption timeline into [`SmrHooks`].
//!
//! Each corrupted replica gets a [`ScenarioHooks`] that, per slot,
//! selects the broadcast-layer attack matching its currently-active
//! behaviour and role (primary vs. echo-set member). Selection is a
//! pure function of `(slot, i_am_primary)` — the determinism the
//! pipelined log requires for discard-and-repropose to commit exactly
//! the depth-1 log.

use mvbc_broadcast::attacks::{
    EquivocatingSource, FramingAccuser, LyingDiagnosisSource, LyingEcho, SilentEcho, SilentSource,
};
use mvbc_broadcast::{BroadcastHooks, NoopBroadcastHooks};
use mvbc_smr::{HonestReplica, SmrHooks};

use super::scenario::{Behavior, Corruption, Scenario};

/// The per-slot behaviour of one corrupted replica, driven by the
/// scenario's corruption timeline.
#[derive(Debug, Clone)]
pub struct ScenarioHooks {
    replica: usize,
    n: usize,
    corruptions: Vec<Corruption>,
}

impl ScenarioHooks {
    /// Hooks for `replica` under `scenario` (only that replica's
    /// corruption entries are kept).
    pub fn new(scenario: &Scenario, replica: usize) -> Self {
        ScenarioHooks {
            replica,
            n: scenario.n,
            corruptions: scenario
                .corruptions
                .iter()
                .filter(|c| c.replica == replica)
                .cloned()
                .collect(),
        }
    }
}

impl SmrHooks for ScenarioHooks {
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        // First active entry whose behaviour applies to this role wins;
        // entry order in the scenario document is the tiebreak.
        for c in self.corruptions.iter().filter(|c| c.active(slot)) {
            match (&c.behavior, i_am_primary) {
                (Behavior::Equivocate, true) => return Box::new(EquivocatingSource),
                (Behavior::SilentLeader, true) => return Box::new(SilentSource),
                (Behavior::LyingDiagnosis, true) => return Box::new(LyingDiagnosisSource),
                (Behavior::LyingEcho { step }, false) => {
                    return Box::new(LyingEcho::new(vec![(self.replica + step) % self.n]));
                }
                (Behavior::SilentEcho, false) => return Box::new(SilentEcho),
                (Behavior::Frame { slots }, false) if slots.contains(&slot) => {
                    return Box::new(FramingAccuser);
                }
                _ => {}
            }
        }
        NoopBroadcastHooks::boxed()
    }
}

/// One [`SmrHooks`] per replica for `scenario`: [`ScenarioHooks`] for
/// corrupted replicas, [`HonestReplica`] for the rest.
pub fn hooks_for(scenario: &Scenario) -> Vec<Box<dyn SmrHooks>> {
    let corrupted = scenario.byzantine();
    (0..scenario.n)
        .map(|i| -> Box<dyn SmrHooks> {
            if corrupted.contains(&i) {
                Box::new(ScenarioHooks::new(scenario, i))
            } else {
                HonestReplica::boxed()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_with(corruptions: Vec<Corruption>) -> Scenario {
        Scenario {
            name: "t".to_owned(),
            seed: 1,
            n: 7,
            t: 2,
            slots: 10,
            batch: 1,
            pipeline: 1,
            max_vtime: None,
            net: None,
            corruptions,
        }
    }

    #[test]
    fn behaviour_respects_role_and_window() {
        let s = scenario_with(vec![Corruption {
            replica: 2,
            from_slot: 3,
            until_slot: Some(6),
            behavior: Behavior::Equivocate,
        }]);
        let mut h = ScenarioHooks::new(&s, 2);
        // Equivocate is a primary-role behaviour: as primary inside the
        // window the dispersal symbol toward an odd id is corrupted.
        let mut p = vec![0xAAu8];
        assert!(h.slot_hooks(4, true).dispersal_symbol(0, 1, &mut p));
        assert_eq!(p, vec![0x55]);
        // Outside the window, honest.
        let mut p = vec![0xAAu8];
        assert!(h.slot_hooks(6, true).dispersal_symbol(0, 1, &mut p));
        assert_eq!(p, vec![0xAA]);
        // Wrong role (not primary): honest.
        let mut p = vec![0xAAu8];
        assert!(h.slot_hooks(4, false).dispersal_symbol(0, 1, &mut p));
        assert_eq!(p, vec![0xAA]);
    }

    #[test]
    fn frame_fires_only_on_listed_slots() {
        let s = scenario_with(vec![Corruption {
            replica: 1,
            from_slot: 0,
            until_slot: None,
            behavior: Behavior::Frame { slots: vec![5] },
        }]);
        let mut h = ScenarioHooks::new(&s, 1);
        let mut flag = false;
        h.slot_hooks(5, false).detected_flag(0, &mut flag);
        assert!(flag, "accuses on the listed slot");
        let mut flag = false;
        h.slot_hooks(4, false).detected_flag(0, &mut flag);
        assert!(!flag, "honest elsewhere");
    }

    #[test]
    fn lying_echo_targets_step_ahead_mod_n() {
        let s = scenario_with(vec![Corruption {
            replica: 6,
            from_slot: 0,
            until_slot: None,
            behavior: Behavior::LyingEcho { step: 2 },
        }]);
        let mut h = ScenarioHooks::new(&s, 6);
        // (6 + 2) % 7 == 1: relays toward node 1 are corrupted.
        let mut p = vec![0x0Fu8];
        assert!(h.slot_hooks(0, false).echo_symbol(0, 1, &mut p));
        assert_eq!(p, vec![0xF0]);
        let mut p = vec![0x0Fu8];
        assert!(h.slot_hooks(0, false).echo_symbol(0, 3, &mut p));
        assert_eq!(p, vec![0x0F]);
    }

    #[test]
    fn hooks_for_marks_only_corrupted_replicas() {
        let s = scenario_with(vec![Corruption {
            replica: 3,
            from_slot: 0,
            until_slot: None,
            behavior: Behavior::SilentLeader,
        }]);
        let mut all = hooks_for(&s);
        assert_eq!(all.len(), 7);
        let mut p = vec![1u8];
        assert!(!all[3].slot_hooks(0, true).dispersal_symbol(0, 1, &mut p), "silent leader");
        assert!(all[0].slot_hooks(0, true).dispersal_symbol(0, 1, &mut p), "honest replica");
    }
}
