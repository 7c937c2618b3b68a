//! The multi-generation consensus engine (Theorem 1).
//!
//! Splits the `L`-bit input into `L/D` generations, runs Algorithm 1 on
//! them in windows of up to [`GENERATION_WINDOW`] on the
//! [`WindowSchedule`] (crate docs, "Windows"), with a diagnosis graph
//! carried across generations ("memory across generations", §2), and
//! assembles the `L`-bit decision.
//!
//! Cost: a fault-free run takes `⌈G/W⌉·(1 + 2b)` rounds instead of
//! `G·(1 + 2b)` (`b` rounds per batch) with the same bits; under attack a
//! run discards fewer than `2W` generations whatever `t` is
//! ([`dsel::model_window_rerun_bits`](crate::dsel::model_window_rerun_bits)).

use mvbc_bsb::BsbDriver;
use mvbc_netsim::NodeCtx;
use mvbc_rscode::StripedCode;

use crate::config::ConsensusConfig;
use crate::diag::DiagGraph;
use crate::generation::{run_window, RunTags};
use crate::hooks::ProtocolHooks;
use crate::window::WindowSchedule;

/// `W`: the most generations one window runs together.
///
/// Chosen from a sweep over `W ∈ {1, 2, 4, 8, 16, 32}` on the 1 MiB,
/// `n = 7` workload: the smallest `W` within 10 % of the best
/// throughput. One run reruns at most
/// [`rerun_bound`](crate::rerun_bound)`(32) = 57` generations. See
/// [`ConsensusConfig::window`].
pub const GENERATION_WINDOW: usize = 32;

/// Per-node summary of one consensus execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// The decided `L`-byte value.
    pub output: Vec<u8>,
    /// Number of generations in which the diagnosis stage executed.
    /// Theorem 1 bounds this by `t(t + 1)` in every execution.
    pub diagnosis_invocations: u64,
    /// Generations fully executed (equals `cfg.generations()` unless the
    /// default decision of line 1(f) terminated the run early).
    pub generations_completed: usize,
    /// Windows run, each one symbol round and two BSB batches.
    pub windows: usize,
    /// Generations discarded after a diagnosis earlier in their window
    /// and run again: fewer than `2W` ([`rerun_bound`](crate::rerun_bound)).
    pub generations_rerun: usize,
    /// Whether line 1(f) fired (fault-free inputs provably differed).
    pub defaulted: bool,
    /// Processors identified as faulty and isolated, ascending.
    pub isolated: Vec<usize>,
    /// Undirected diagnosis-graph edges removed over the whole run.
    pub edges_removed: usize,
}

/// Runs the full multi-valued consensus protocol for one processor, in
/// windows of up to `window` generations: [`ConsensusConfig::window`] in
/// every runner; other widths decide the same value (crate docs,
/// "Windows").
///
/// Every fault-free processor must invoke this in round 0 of the
/// simulation with an identical `cfg` and `window`; `input` is this
/// processor's `L`-byte input value, `hooks` its (possibly Byzantine)
/// behaviour, and `bsb` its `Broadcast_Single_Bit` substrate (§4's
/// substitution seam; see [`BsbDriver`]). All fault-free processors of
/// one execution must supply the same kind of driver — the substrates
/// differ in round structure. The consensus algorithm's own lemmas still
/// require `t < n/3` (enforced by `cfg`) even when the driver tolerates
/// more faults.
///
/// It is `async`: await it inside a node task
/// ([`node_task`](mvbc_netsim::node_task)), or call
/// [`simulate_consensus`](crate::simulate_consensus) for a whole run.
///
/// # Panics
///
/// Panics when `input.len() != cfg.value_bytes` or the internal
/// invariants guaranteed by the paper's lemmas are violated (which would
/// indicate an implementation bug, not an adversary effect).
pub async fn consensus(
    ctx: &mut NodeCtx,
    cfg: &ConsensusConfig,
    input: &[u8],
    hooks: &mut dyn ProtocolHooks,
    bsb: &mut dyn BsbDriver,
    window: usize,
) -> EngineReport {
    assert_eq!(input.len(), cfg.value_bytes, "input must be exactly L = value_bytes bytes");
    let d = cfg.resolved_gen_bytes();
    let code = StripedCode::c2t(cfg.n, cfg.t, d).expect("validated parameters");
    let tags = RunTags::new(window.min(cfg.generations()));
    let me = ctx.id();
    let mut diag = DiagGraph::new(cfg.n, cfg.t);
    // No probe first: a fault-free value would pay one more window.
    let mut schedule = WindowSchedule::new(cfg.value_bytes, d, cfg.default_byte, window, false);

    while let Some(gens) = schedule.next_window(&diag) {
        if gens.clone().any(|g| hooks.crash_before_generation(g)) || diag.is_isolated(me) {
            // A Byzantine crash, or fault-free processors isolated this one:
            // only a faulty processor stops here; its output is meaningless.
            break;
        }
        if cfg.ablation_reset_diag {
            // E9 ablation: forget everything learned about fault
            // locations (disables the paper's memory across generations).
            diag = DiagGraph::new(cfg.n, cfg.t);
        }
        let parts: Vec<Vec<u8>> = gens
            .clone()
            .map(|g| {
                hooks.observe_generation_start(g, me, &diag);
                let mut part = schedule.part(input, g);
                hooks.input_override(g, &mut part);
                part
            })
            .collect();
        schedule.record(run_window(ctx, cfg, &code, &tags, &mut diag, gens.start, &parts, hooks, bsb).await);
    }

    let totals = schedule.finish();
    EngineReport {
        output: totals.output,
        diagnosis_invocations: totals.diagnoses,
        generations_completed: totals.committed,
        windows: totals.windows,
        generations_rerun: totals.reruns,
        defaulted: totals.defaulted,
        isolated: (0..cfg.n).filter(|&v| diag.is_isolated(v)).collect(),
        edges_removed: diag.total_removed(),
    }
}

#[cfg(test)]
mod tests {
    //! Window equivalence: every window size decides what the
    //! one-generation-at-a-time engine (`W = 1`) decides, under the same
    //! diagnosis-graph updates.

    use mvbc_bsb::{BsbHooks, PhaseKingDriver};
    use mvbc_metrics::{intern_tag, MetricsSink};
    use mvbc_netsim::{node_task, run_tasks, NodeId, NodeTask, SimConfig};

    use super::*;
    use crate::NoopHooks;

    /// Test-local Byzantine behaviour, keyed by generation.
    #[derive(Default, Clone)]
    struct Script {
        /// `(g, to)`: flip the matching-stage symbol sent to `to` in `g`.
        corrupt: Vec<(usize, NodeId)>,
        /// Claim a detection (as an outsider) in these generations.
        false_detect: Vec<usize>,
        /// Send malformed matching-stage symbols in every generation:
        /// truncated, oversized or empty by `g mod 3`.
        malformed: bool,
    }

    impl BsbHooks for Script {}

    impl ProtocolHooks for Script {
        fn matching_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
            if self.corrupt.contains(&(g, to)) {
                payload.iter_mut().for_each(|b| *b ^= 0xFF);
            }
            if self.malformed {
                match g % 3 {
                    0 => payload.truncate(payload.len() / 2),
                    1 => payload.extend_from_slice(&[0xAB; 5]),
                    _ => payload.clear(),
                }
            }
            true
        }

        fn detected_flag(&mut self, g: usize, flag: &mut bool) {
            if self.false_detect.contains(&g) {
                *flag = true;
            }
        }
    }

    /// Everything a run decides or learns, per node.
    #[derive(Debug, PartialEq, Eq)]
    struct Decisions {
        outputs: Vec<Vec<u8>>,
        diagnoses: Vec<u64>,
        isolated: Vec<Vec<usize>>,
        edges_removed: Vec<usize>,
        defaulted: Vec<bool>,
    }

    struct Run {
        decisions: Decisions,
        reports: Vec<EngineReport>,
        rounds: u64,
        bits: u64,
    }

    fn run(
        cfg: &ConsensusConfig,
        inputs: &[Vec<u8>],
        scripts: &[(NodeId, Script)],
        window: usize,
    ) -> Run {
        let metrics = MetricsSink::new();
        let tasks: Vec<NodeTask<EngineReport>> = (0..cfg.n)
            .map(|id| {
                let cfg = cfg.clone();
                let input = inputs[id].clone();
                let mut hooks: Box<dyn ProtocolHooks> =
                    match scripts.iter().find(|(who, _)| *who == id) {
                        Some((_, script)) => Box::new(script.clone()),
                        None => NoopHooks::boxed(),
                    };
                node_task(async move |ctx: &mut NodeCtx| {
                    consensus(ctx, &cfg, &input, hooks.as_mut(), &mut PhaseKingDriver, window).await
                })
            })
            .collect();
        let result = run_tasks(SimConfig::new(cfg.n), metrics.clone(), None, tasks);
        let reports = result.outputs;
        Run {
            decisions: Decisions {
                outputs: reports.iter().map(|r| r.output.clone()).collect(),
                diagnoses: reports.iter().map(|r| r.diagnosis_invocations).collect(),
                isolated: reports.iter().map(|r| r.isolated.clone()).collect(),
                edges_removed: reports.iter().map(|r| r.edges_removed).collect(),
                defaulted: reports.iter().map(|r| r.defaulted).collect(),
            },
            reports,
            rounds: result.rounds,
            bits: metrics.snapshot().total_logical_bits(),
        }
    }

    fn value(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    /// n = 4, t = 1, seven generations of 4 bytes.
    fn small_cfg() -> ConsensusConfig {
        ConsensusConfig::with_gen_bytes(4, 1, 28, 4).expect("valid parameters")
    }

    /// The window sizes under test for `g` generations.
    fn windows(g: usize) -> [usize; 5] {
        [1, 2, 3, g, g + 1]
    }

    /// Runs `scripts` at each window size of `ws` and asserts each
    /// reproduces `W = 1` on the honest nodes with fewer than `2W`
    /// reruns; returns the `W = 1` decisions and the most reruns seen.
    fn assert_window_equivalent(
        cfg: &ConsensusConfig,
        inputs: &[Vec<u8>],
        scripts: &[(NodeId, Script)],
        ws: &[usize],
    ) -> (Decisions, usize) {
        let honest: Vec<usize> =
            (0..cfg.n).filter(|id| scripts.iter().all(|(who, _)| who != id)).collect();
        let only_honest = |d: Decisions| Decisions {
            outputs: honest.iter().map(|&i| d.outputs[i].clone()).collect(),
            diagnoses: honest.iter().map(|&i| d.diagnoses[i]).collect(),
            isolated: honest.iter().map(|&i| d.isolated[i].clone()).collect(),
            edges_removed: honest.iter().map(|&i| d.edges_removed[i]).collect(),
            defaulted: honest.iter().map(|&i| d.defaulted[i]).collect(),
        };
        let reference = only_honest(run(cfg, inputs, scripts, 1).decisions);
        let mut most_reruns = 0;
        for &w in ws {
            let got = run(cfg, inputs, scripts, w);
            for &i in &honest {
                let r = &got.reports[i];
                assert!(
                    r.generations_rerun < 2 * w,
                    "W = {w}: {} reruns for {} diagnoses",
                    r.generations_rerun,
                    r.diagnosis_invocations
                );
                most_reruns = most_reruns.max(r.generations_rerun);
            }
            assert_eq!(only_honest(got.decisions), reference, "W = {w}");
        }
        (reference, most_reruns)
    }

    #[test]
    fn fault_free_windows_decide_the_same_in_fewer_rounds() {
        let cfg = small_cfg();
        let g = cfg.generations() as u64;
        assert_eq!(g, 7);
        let v = value(cfg.value_bytes, 3);
        let inputs = vec![v.clone(); cfg.n];
        let reference = run(&cfg, &inputs, &[], 1);
        assert!(reference.decisions.outputs.iter().all(|o| *o == v));
        // Per window: one symbol round plus two Phase-King batches of
        // 1 + 3(t + 1) rounds each.
        let b = 1 + 3 * (cfg.t as u64 + 1);
        for w in windows(cfg.generations()) {
            let got = run(&cfg, &inputs, &[], w);
            assert_eq!(got.decisions, reference.decisions, "W = {w}");
            assert_eq!(got.bits, reference.bits, "W = {w}: logical bits");
            assert_eq!(got.rounds, g.div_ceil(w as u64) * (1 + 2 * b), "W = {w}: rounds");
            assert!(got.reports.iter().all(|r| r.generations_rerun == 0));
        }
    }

    #[test]
    fn symbol_corruption_anywhere_in_a_window_matches_w1() {
        let cfg = small_cfg();
        let v = value(cfg.value_bytes, 5);
        let inputs = vec![v.clone(); cfg.n];
        // Generations 0, 1 and 2 are the start, middle and end of the
        // first W = 3 window; 3 and 6 start later ones, and pairs put two
        // corruptions in one window.
        let mut most_reruns = 0;
        for corrupt in [vec![0], vec![1], vec![2], vec![3], vec![6], vec![1, 2], vec![0, 4, 5]] {
            let script = Script {
                corrupt: corrupt.iter().map(|&g| (g, 3)).collect(),
                ..Script::default()
            };
            let (d, reruns) =
                assert_window_equivalent(&cfg, &inputs, &[(0, script)], &windows(cfg.generations()));
            most_reruns = most_reruns.max(reruns);
            assert!(d.outputs.iter().all(|o| *o == v), "corrupt {corrupt:?}");
            assert!(d.diagnoses[0] >= 1, "corrupt {corrupt:?} must be diagnosed");
        }
        assert!(most_reruns > 0, "a mid-window detection discards later generations");
    }

    #[test]
    fn false_detection_at_a_window_end_matches_w1() {
        let cfg = small_cfg();
        let v = value(cfg.value_bytes, 9);
        let inputs = vec![v.clone(); cfg.n];
        // The last generation of a W = 2, a W = 3 and the W = G window.
        for g in [1, 2, cfg.generations() - 1] {
            // With every symbol intact the clique search settles on the
            // lowest ids, P_match = {0, 1, 2}, so processor 3 is the
            // outsider whose flag counts.
            let script = Script { false_detect: vec![g], ..Script::default() };
            let (d, _) = assert_window_equivalent(&cfg, &inputs, &[(3, script)], &windows(cfg.generations()));
            assert!(d.outputs.iter().all(|o| *o == v), "false detect at {g}");
            assert_eq!(d.diagnoses[0], 1, "false detect at {g} is diagnosed once");
            assert_eq!(d.isolated[0], vec![3], "the false detector is isolated");
        }
    }

    #[test]
    fn no_match_mid_window_matches_w1() {
        let cfg = small_cfg();
        // Honest inputs agree on generations 0..3 and differ from
        // generation 3 on: line 1(f) fires there, mid-window for W = 2
        // and W = G.
        let common = value(cfg.value_bytes, 1);
        let inputs: Vec<Vec<u8>> = (0..cfg.n)
            .map(|i| {
                let mut v = common.clone();
                v[3 * 4 + i] ^= 0x5A;
                v
            })
            .collect();
        let ws = windows(cfg.generations());
        let (d, _) = assert_window_equivalent(&cfg, &inputs, &[], &ws);
        for out in &d.outputs {
            assert_eq!(out[..12], common[..12], "generations before the mismatch commit");
            assert!(out[12..].iter().all(|&b| b == cfg.default_byte), "then the default");
        }
        assert!(d.defaulted.iter().all(|&x| x));

        // The same mismatch behind a diagnosed corruption in its window.
        let script = Script { corrupt: vec![(1, 3)], ..Script::default() };
        assert_window_equivalent(&cfg, &inputs, &[(0, script)], &ws);
    }

    #[test]
    fn malformed_symbols_at_every_offset_are_bottom() {
        // A faulty peer sends truncated, oversized and empty symbols in
        // every generation, so every window offset sees each kind.
        let cfg = small_cfg();
        let v = value(cfg.value_bytes, 7);
        let inputs = vec![v.clone(); cfg.n];
        let script = Script { malformed: true, ..Script::default() };
        let (d, _) = assert_window_equivalent(&cfg, &inputs, &[(2, script)], &windows(cfg.generations()));
        assert!(d.outputs.iter().all(|o| *o == v));
    }

    #[test]
    fn raw_peer_symbols_at_every_offset_are_bottom() {
        // A raw peer that never runs the engine: in round 0 it sends a
        // truncated, an oversized and an empty payload under every
        // offset's symbol tag, then stops.
        let cfg = small_cfg();
        let g = cfg.generations();
        let v = value(cfg.value_bytes, 11);
        for w in windows(g) {
            let tasks: Vec<NodeTask<Option<EngineReport>>> = (0..cfg.n)
                .map(|id| {
                    let cfg = cfg.clone();
                    let v = v.clone();
                    node_task(async move |ctx: &mut NodeCtx| {
                        if id != 1 {
                            let report =
                                consensus(ctx, &cfg, &v, &mut NoopHooks, &mut PhaseKingDriver, w).await;
                            return Some(report);
                        }
                        for k in 0..w.min(g) {
                            let tag = match k {
                                0 => "consensus.matching.symbol",
                                k => intern_tag(&format!("consensus.matching.symbol.w{k}")),
                            };
                            let payloads: [&[u8]; 3] = [&[0x01], &[0xEE; 64], &[]];
                            for to in (0..cfg.n).filter(|&to| to != id) {
                                ctx.send(to, tag, payloads[(k + to) % 3].to_vec(), 8);
                            }
                        }
                        ctx.next_round().await;
                        None
                    })
                })
                .collect();
            let result = run_tasks(SimConfig::new(cfg.n), MetricsSink::new(), None, tasks);
            for (id, report) in result.outputs.iter().enumerate() {
                if id != 1 {
                    let report = report.as_ref().expect("honest nodes report");
                    assert_eq!(report.output, v, "W = {w}: node {id}");
                }
            }
        }
    }

    /// Two liars turn dirty in the middle of successive windows at
    /// n = 7, t = 2: four diagnoses, each after its window ran later
    /// generations. Halving the windows keeps the reruns below `2W`;
    /// full windows after each probe would rerun 15 + 23 + 27 + 23 = 88
    /// generations at W = 32.
    #[test]
    fn mid_window_liars_rerun_less_than_2w_and_match_w1() {
        let cfg = ConsensusConfig::with_gen_bytes(7, 2, 64 * 3, 3).expect("valid parameters");
        assert_eq!(cfg.generations(), 64);
        let v = value(cfg.value_bytes, 13);
        let inputs = vec![v.clone(); cfg.n];
        let liars = [
            (0, Script { corrupt: vec![(16, 6), (26, 5)], ..Script::default() }),
            (1, Script { corrupt: vec![(32, 6), (40, 5)], ..Script::default() }),
        ];
        for w in [4, 8, 32] {
            let (d, reruns) = assert_window_equivalent(&cfg, &inputs, &liars, &[w]);
            assert!(d.outputs.iter().all(|o| *o == v), "W = {w}: validity");
            assert!(d.diagnoses.iter().all(|&x| x == 4), "W = {w}: every lie is diagnosed");
            assert!(reruns > 0, "W = {w}: diagnoses land mid-window");
        }
    }
}
