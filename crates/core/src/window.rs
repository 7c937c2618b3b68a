//! The window schedule Algorithm 1 and `mvbc-broadcast` share. A window
//! commits its generations up to the first detection and reruns the rest.
//! Widths read only agreed state (the configuration, window outcomes and
//! the diagnosis graph), so every fault-free processor runs the same
//! windows: a *probe* of one generation after a diagnosis; else
//! `max(1, W >> h)`, `h` the diagnoses so far that discarded generations;
//! `W` again once `t` processors are isolated, when no diagnosis can
//! follow ([`DiagGraph::all_faulty_isolated`]). A diagnosis discards fewer
//! generations than its window holds, so one execution reruns at most
//! [`rerun_bound`]`(W) < 2W` generations whatever `t` is.

use std::ops::Range;

use crate::DiagGraph;

/// What one window decided.
#[derive(Debug)]
pub struct WindowOutcome {
    /// `D`-byte values of the committed generations, from the first.
    pub decided: Vec<Vec<u8>>,
    /// The last committed generation ran the diagnosis stage.
    pub diagnosed: bool,
    /// Every later generation decides the default value: the run stops.
    pub defaulted: bool,
}

/// The most generations one execution's windows of up to `w` discard: `Σₖ((w >> k) − 1) < 2w`.
pub fn rerun_bound(w: usize) -> usize {
    (0..usize::BITS).map(|k| (w >> k).saturating_sub(1)).sum()
}

/// What one execution's windows decided and cost.
#[derive(Debug, Default)]
pub struct WindowTotals {
    /// The decided `L`-byte value, padded with the default byte.
    pub output: Vec<u8>,
    /// Generations committed: all of them unless the run stopped early.
    pub committed: usize,
    /// Windows run.
    pub windows: usize,
    /// Windows whose diagnosis stage ran.
    pub diagnoses: u64,
    /// Generations discarded after a diagnosis and run again.
    pub reruns: usize,
    /// Whether a window defaulted the rest of the value.
    pub defaulted: bool,
}

/// The window schedule of one execution (module docs).
#[derive(Debug)]
pub struct WindowSchedule {
    value_bytes: usize,
    gen_bytes: usize,
    default_byte: u8,
    width: usize,
    probe: bool,
    halvings: u32,
    current: usize,
    totals: WindowTotals,
}

impl WindowSchedule {
    /// Windows of up to `width` `gen_bytes`-byte generations over a
    /// `value_bytes`-byte value; `probe` makes the first one a probe.
    pub fn new(value_bytes: usize, gen_bytes: usize, default_byte: u8, width: usize, probe: bool) -> Self {
        assert!(width >= 1, "a window holds at least one generation");
        let totals = WindowTotals { output: Vec::with_capacity(value_bytes), ..WindowTotals::default() };
        WindowSchedule { value_bytes, gen_bytes, default_byte, width, probe, halvings: 0, current: 0, totals }
    }

    /// The next window's generations under `diag`; `None` once all are decided.
    pub fn next_window(&mut self, diag: &DiagGraph) -> Option<Range<usize>> {
        let left = self.value_bytes.div_ceil(self.gen_bytes) - self.totals.committed;
        if self.totals.defaulted || left == 0 {
            return None;
        }
        self.current = match (self.probe, diag.all_faulty_isolated()) {
            (true, _) => 1,
            (false, true) => self.width.min(left),
            (false, false) => (self.width >> self.halvings).clamp(1, left),
        };
        Some(self.totals.committed..self.totals.committed + self.current)
    }

    /// Generation `g`'s bytes of `input`, padded to `D` bytes.
    pub fn part(&self, input: &[u8], g: usize) -> Vec<u8> {
        let mut part = input[g * self.gen_bytes..((g + 1) * self.gen_bytes).min(input.len())].to_vec();
        part.resize(self.gen_bytes, self.default_byte);
        part
    }

    /// Commits what the last [`next_window`](Self::next_window) decided.
    pub fn record(&mut self, outcome: WindowOutcome) {
        let (committed, totals) = (outcome.decided.len(), &mut self.totals);
        totals.windows += 1;
        totals.committed += committed;
        for value in &outcome.decided {
            debug_assert_eq!(value.len(), self.gen_bytes);
            totals.output.extend_from_slice(value);
        }
        if outcome.diagnosed {
            totals.diagnoses += 1;
            totals.reruns += self.current - committed;
            self.halvings += u32::from(committed < self.current);
        }
        self.probe = outcome.diagnosed;
        totals.defaulted = outcome.defaulted;
    }

    /// What the windows decided and cost.
    pub fn finish(mut self) -> WindowTotals {
        self.totals.output.truncate(self.value_bytes);
        self.totals.output.resize(self.value_bytes, self.default_byte);
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window outcome that commits `committed` generations of zeros.
    fn outcome(committed: usize, diagnosed: bool) -> WindowOutcome {
        WindowOutcome { decided: vec![vec![0; 2]; committed], diagnosed, defaulted: false }
    }

    /// A schedule of `generations` two-byte generations.
    fn schedule(generations: usize, width: usize, probe: bool) -> WindowSchedule {
        WindowSchedule::new(2 * generations, 2, 0xDD, width, probe)
    }

    #[test]
    fn widths_probe_after_a_diagnosis_and_halve_after_a_rerun() {
        let diag = DiagGraph::new(7, 2);
        let mut s = schedule(100, 32, false);
        // (window, committed, diagnosed) in order.
        let steps = [
            (0..32, 10, true),   // a rerun: 22 discarded, windows halve
            (10..11, 1, false),  // the probe
            (11..27, 16, false), // W >> 1
            (27..43, 3, true),   // a rerun: 13 discarded
            (30..31, 1, true),   // a probe diagnosis discards nothing
            (31..32, 1, false),  // so another probe, and no halving
            (32..40, 8, false),  // W >> 2
        ];
        for (window, committed, diagnosed) in steps {
            assert_eq!(s.next_window(&diag), Some(window));
            s.record(outcome(committed, diagnosed));
        }
        let t = &s.totals;
        assert_eq!((t.committed, t.windows, t.diagnoses, t.reruns), (40, 7, 3, 22 + 13));
        assert_eq!(s.next_window(&diag), Some(40..48));
    }

    #[test]
    fn the_first_window_is_a_probe_on_request() {
        let diag = DiagGraph::new(4, 1);
        let mut s = schedule(20, 8, true);
        assert_eq!(s.next_window(&diag), Some(0..1));
        s.record(outcome(1, false));
        assert_eq!(s.next_window(&diag), Some(1..9));
    }

    #[test]
    fn full_width_returns_once_t_processors_are_isolated() {
        let mut diag = DiagGraph::new(7, 2);
        let mut s = schedule(1000, 32, false);
        for _ in 0..3 {
            let w = s.next_window(&diag).expect("generations left");
            s.record(outcome(1, true)); // discards all but one
            assert_eq!(s.next_window(&diag).map(|r| r.len()), Some(1), "{w:?}: a probe follows");
            s.record(outcome(1, false));
        }
        assert_eq!(s.next_window(&diag).map(|r| r.len()), Some(4));
        diag.isolate(5);
        assert_eq!(s.next_window(&diag).map(|r| r.len()), Some(4), "one of t = 2 isolated");
        diag.isolate(6);
        assert_eq!(s.next_window(&diag).map(|r| r.len()), Some(32));
        // A probe still follows a diagnosis.
        s.record(outcome(32, true));
        assert_eq!(s.next_window(&diag).map(|r| r.len()), Some(1));
    }

    #[test]
    fn reruns_stay_within_the_bound_whatever_the_diagnoses() {
        assert_eq!(rerun_bound(32), 57);
        assert_eq!(rerun_bound(8), 11);
        assert_eq!(rerun_bound(1), 0);
        let diag = DiagGraph::new(7, 2);
        for w in 1..=64 {
            assert!(rerun_bound(w) < 2 * w);
            // Worst case: every window but a probe diagnoses its first
            // generation.
            let mut s = schedule(10_000, w, false);
            while let Some(gens) = s.next_window(&diag) {
                s.record(outcome(1, gens.len() > 1));
            }
            assert_eq!(s.totals.reruns, rerun_bound(w), "W = {w}");
            // Diagnoses anywhere: a fixed pseudo-random sequence.
            let mut s = schedule(500, w, false);
            let mut x = w as u64;
            while let Some(gens) = s.next_window(&diag) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let diagnosed = x >> 62 == 0;
                let committed = if diagnosed { 1 + (x >> 33) as usize % gens.len() } else { gens.len() };
                s.record(outcome(committed, diagnosed));
            }
            let t = s.finish();
            assert!(t.reruns <= rerun_bound(w), "W = {w}: {} reruns", t.reruns);
            assert_eq!(t.committed, 500);
        }
    }

    #[test]
    fn parts_pad_and_the_output_defaults_after_a_default() {
        let mut s = WindowSchedule::new(5, 2, 0xDD, 4, false);
        let input = [1, 2, 3, 4, 5];
        assert_eq!(s.part(&input, 0), vec![1, 2]);
        assert_eq!(s.part(&input, 2), vec![5, 0xDD]);
        assert_eq!(s.next_window(&DiagGraph::new(4, 1)), Some(0..3));
        s.record(WindowOutcome { decided: vec![vec![1, 2]], diagnosed: false, defaulted: true });
        assert_eq!(s.next_window(&DiagGraph::new(4, 1)), None);
        let t = s.finish();
        assert!(t.defaulted);
        assert_eq!(t.output, vec![1, 2, 0xDD, 0xDD, 0xDD]);
    }
}
