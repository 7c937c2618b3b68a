//! A randomized Byzantine strategy for property-based testing.

use mvbc_bsb::BsbHooks;
use mvbc_core::ProtocolHooks;
use mvbc_netsim::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deviates at every hook point with probability `p`, driven by a seeded
/// RNG (deterministic per seed, so failures reproduce).
///
/// Used by the property tests: for *any* seed, fault-free safety must
/// hold — agreement, validity, bounded diagnosis count, and no
/// honest-honest diagnosis-graph edge ever removed.
///
/// Its choices depend on the order of hook calls, not on the generation
/// argument: one RNG draw per opportunity, in call order. The engine's
/// window interleaves its generations' hook calls stage by stage and
/// calls them again for generations it runs again, so the same seed
/// misbehaves differently at different window sizes.
#[derive(Debug)]
pub struct RandomAdversary {
    rng: StdRng,
    p: f64,
}

impl RandomAdversary {
    /// Creates a strategy that misbehaves at each opportunity with
    /// probability `p` (clamped to `[0, 1]`).
    pub fn new(seed: u64, p: f64) -> Self {
        RandomAdversary {
            rng: StdRng::seed_from_u64(seed),
            p: p.clamp(0.0, 1.0),
        }
    }

    fn fire(&mut self) -> bool {
        self.rng.random_bool(self.p)
    }
}

impl BsbHooks for RandomAdversary {
    fn source_bits(&mut self, _session: &'static str, _to: NodeId, bits: &mut [bool]) {
        for b in bits.iter_mut() {
            if self.fire() {
                *b = !*b;
            }
        }
    }

    fn king_values(&mut self, _session: &'static str, _phase: usize, _to: NodeId, values: &mut [bool]) {
        for v in values.iter_mut() {
            if self.fire() {
                *v = !*v;
            }
        }
    }

    fn king_proposals(&mut self, _session: &'static str, _phase: usize, _to: NodeId, proposals: &mut [u8]) {
        for p in proposals.iter_mut() {
            if self.fire() {
                *p = self.rng.random_range(0..3);
            }
        }
    }

    fn king_bits(&mut self, _session: &'static str, _phase: usize, _to: NodeId, bits: &mut [bool]) {
        for b in bits.iter_mut() {
            if self.fire() {
                *b = !*b;
            }
        }
    }
}

impl ProtocolHooks for RandomAdversary {
    fn matching_symbol(&mut self, _g: usize, _to: NodeId, payload: &mut Vec<u8>) -> bool {
        if self.fire() {
            for b in payload.iter_mut() {
                *b = self.rng.random();
            }
        }
        !self.fire() || !payload.is_empty() // occasionally suppress empty sends
    }

    fn m_vector(&mut self, _g: usize, m: &mut Vec<bool>) {
        for e in m.iter_mut() {
            if self.fire() {
                *e = !*e;
            }
        }
    }

    fn detected_flag(&mut self, _g: usize, flag: &mut bool) {
        if self.fire() {
            *flag = !*flag;
        }
    }

    fn diagnosis_symbol_bits(&mut self, _g: usize, bits: &mut Vec<bool>) {
        for b in bits.iter_mut() {
            if self.fire() {
                *b = !*b;
            }
        }
    }

    fn trust_vector(&mut self, _g: usize, trust: &mut Vec<bool>) {
        for e in trust.iter_mut() {
            if self.fire() {
                *e = !*e;
            }
        }
    }

    fn input_override(&mut self, _g: usize, value: &mut Vec<u8>) {
        if self.fire() {
            for b in value.iter_mut() {
                *b = self.rng.random();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut a = RandomAdversary::new(seed, 0.5);
            let mut m = vec![true; 32];
            a.m_vector(0, &mut m);
            m
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn zero_probability_is_honest() {
        let mut a = RandomAdversary::new(1, 0.0);
        let mut m = vec![true, false, true];
        a.m_vector(0, &mut m);
        assert_eq!(m, vec![true, false, true]);
        let mut flag = false;
        a.detected_flag(0, &mut flag);
        assert!(!flag);
    }

    #[test]
    fn full_probability_always_fires() {
        let mut a = RandomAdversary::new(1, 1.0);
        let mut flag = false;
        a.detected_flag(0, &mut flag);
        assert!(flag);
    }
}
