//! Multi-generation broadcast engine: splits the `L`-byte value into
//! `D`-byte generations and runs them on `mvbc-core`'s [`WindowSchedule`],
//! a probe first, then up to [`BroadcastConfig::window`] at a time.

use mvbc_bsb::BsbDriver;
use mvbc_core::{DiagGraph, WindowSchedule};
use mvbc_netsim::NodeCtx;
use mvbc_rscode::StripedCode;

use crate::config::BroadcastConfig;
use crate::generation::{run_window, SlotTags};
use crate::hooks::BroadcastHooks;

/// Tag scope of a stand-alone broadcast execution (see
/// [`run_broadcast_slot`] for scoped executions).
pub(crate) const STANDALONE_SCOPE: &str = "broadcast";

/// Per-node summary of one broadcast execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastReport {
    /// The delivered `L`-byte value (equals the source's input when the
    /// source is fault-free; common across fault-free processors always).
    pub output: Vec<u8>,
    /// Number of generations whose diagnosis stage ran.
    pub diagnosis_invocations: u64,
    /// Windows run (each one dispersal round, one echo round and one
    /// `Detected` batch).
    pub windows: usize,
    /// Generations discarded after a diagnosis earlier in their window
    /// and run again: fewer than `2W` ([`rerun_bound`](mvbc_core::rerun_bound)).
    pub generations_rerun: usize,
    /// Whether the run fell back to the default value because the source
    /// became unusable (isolated or unable to sustain an echo set).
    pub defaulted: bool,
    /// Processors identified as faulty and isolated.
    pub isolated: Vec<usize>,
    /// Total diagnosis-graph edges removed.
    pub edges_removed: usize,
}

/// Runs the full multi-valued broadcast for one processor, against
/// caller-owned diagnosis state and under a caller-chosen tag scope.
///
/// The source passes `Some(value)` (of `cfg.value_bytes` bytes); all other
/// processors pass `None`. `bsb` is the `Broadcast_Single_Bit` substrate
/// (the §4 substitution seam, as in [`mvbc_core::consensus`]); all
/// fault-free processors must supply the same kind of driver.
///
/// A stand-alone broadcast ([`simulate_broadcast`](crate::simulate_broadcast))
/// passes a fresh graph. The caller-owned state is the seam that lets a
/// slot-indexed protocol (the `mvbc-smr` replicated log) run many
/// consecutive broadcasts inside one simulation:
///
/// - `diag` persists across calls, so dispute-control memory carries over
///   from slot to slot — a processor caught equivocating in one slot has
///   already burnt edges (or is isolated) when the next slot starts. All
///   fault-free callers must pass identical graphs (they stay identical
///   because every update is driven by `Broadcast_Single_Bit` outputs).
/// - `scope` prefixes every message tag and `Broadcast_Single_Bit`
///   session of this execution (e.g. `"smr.slot17"`), so messages from
///   adjacent slots cannot cross-deliver.
///
/// The returned report's `isolated` / `edges_removed` fields describe the
/// *cumulative* state of `diag`, not just this call's changes; callers
/// interested in per-slot changes should diff the graph around the call.
///
/// It is `async`: await it inside a node task
/// ([`node_task`](mvbc_netsim::node_task)), or as a
/// [`LaneMux`](mvbc_netsim::lanes::LaneMux) lane next to other slots.
///
/// # Panics
///
/// Panics when the input presence/length disagrees with the
/// configuration, or when `diag` does not have `cfg.n` vertices.
pub async fn run_broadcast_slot(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    input: Option<&[u8]>,
    scope: &str,
    diag: &mut DiagGraph,
    hooks: &mut dyn BroadcastHooks,
    bsb: &mut dyn BsbDriver,
) -> BroadcastReport {
    run_windowed(ctx, cfg, input, scope, diag, hooks, bsb, cfg.window()).await
}

/// [`run_broadcast_slot`] with windows of up to `window` generations.
#[allow(clippy::too_many_arguments)] // run_broadcast_slot's arguments plus the window
pub(crate) async fn run_windowed(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    input: Option<&[u8]>,
    scope: &str,
    diag: &mut DiagGraph,
    hooks: &mut dyn BroadcastHooks,
    bsb: &mut dyn BsbDriver,
    window: usize,
) -> BroadcastReport {
    assert_eq!(input.is_some(), ctx.id() == cfg.source, "exactly the source supplies the value");
    assert!(input.is_none_or(|v| v.len() == cfg.value_bytes), "value must be L bytes");
    assert_eq!(diag.n(), cfg.n, "diagnosis graph size must match n");
    let d = cfg.resolved_gen_bytes();
    let code = StripedCode::c2t(cfg.n, cfg.t, d).expect("validated parameters");
    let tags = SlotTags::new(scope);
    let me = ctx.id();
    // A probe first: the campaign's behaviours act from a slot's first generation.
    let mut schedule = WindowSchedule::new(cfg.value_bytes, d, cfg.default_byte, window, true);

    while let Some(gens) = schedule.next_window(diag) {
        if gens.clone().any(|g| hooks.crash_before_generation(g)) || diag.is_isolated(me) {
            break;
        }
        gens.clone().for_each(|g| hooks.observe_generation_start(g, me, diag));
        let mut parts = input.map(|v| gens.clone().map(|g| schedule.part(v, g)).collect::<Vec<_>>());
        gens.clone().zip(parts.iter_mut().flatten()).for_each(|(g, p)| hooks.input_override(g, p));
        let (first, w, parts) = (gens.start, gens.len(), parts.as_deref());
        schedule.record(run_window(ctx, cfg, &code, diag, tags, first, w, parts, hooks, bsb).await);
    }

    let totals = schedule.finish();
    BroadcastReport {
        output: totals.output,
        diagnosis_invocations: totals.diagnoses,
        windows: totals.windows,
        generations_rerun: totals.reruns,
        defaulted: totals.defaulted,
        isolated: (0..cfg.n).filter(|&v| diag.is_isolated(v)).collect(),
        edges_removed: diag.total_removed(),
    }
}

#[cfg(test)]
mod tests {
    //! Window equivalence: every window size delivers what the
    //! one-generation-at-a-time protocol (`W = 1`) delivers, under the
    //! same diagnosis-graph updates.

    use mvbc_bsb::{BsbHooks, PhaseKingDriver};
    use mvbc_metrics::MetricsSink;
    use mvbc_netsim::{node_task, run_tasks, NodeId, NodeTask, SimConfig};

    use super::*;
    use crate::attacks::{
        EquivocatingSource, FalseDetector, FramingAccuser, FramingEcho, LyingDiagnosisSource, LyingEcho,
        SilentEcho, SilentSource,
    };
    use crate::{NoopBroadcastHooks, MAX_WINDOW};

    /// What one node delivers or learns.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Decision {
        output: Vec<u8>,
        diagnoses: u64,
        isolated: Vec<usize>,
        edges_removed: usize,
        defaulted: bool,
    }

    /// The decisions of nodes `ids`.
    fn decisions(reports: &[BroadcastReport], ids: &[usize]) -> Vec<Decision> {
        ids.iter()
            .map(|&i| {
                let r = &reports[i];
                Decision {
                    output: r.output.clone(),
                    diagnoses: r.diagnosis_invocations,
                    isolated: r.isolated.clone(),
                    edges_removed: r.edges_removed,
                    defaulted: r.defaulted,
                }
            })
            .collect()
    }

    struct Run {
        reports: Vec<BroadcastReport>,
        rounds: u64,
        bits: u64,
    }

    /// The behaviour of node `id` in a run.
    type Behaviour = fn(NodeId, usize) -> Box<dyn BroadcastHooks>;

    fn honest(_: NodeId, _: usize) -> Box<dyn BroadcastHooks> {
        NoopBroadcastHooks::boxed()
    }

    fn run(cfg: &BroadcastConfig, value: &[u8], byz: &[(NodeId, Behaviour)], window: usize) -> Run {
        let metrics = MetricsSink::new();
        let tasks: Vec<NodeTask<BroadcastReport>> = (0..cfg.n)
            .map(|id| {
                let cfg = cfg.clone();
                let input = (id == cfg.source).then(|| value.to_vec());
                let behaviour = byz.iter().find(|(who, _)| *who == id).map_or(honest as Behaviour, |b| b.1);
                let mut hooks = behaviour(id, cfg.n);
                node_task(async move |ctx: &mut NodeCtx| {
                    let mut diag = DiagGraph::new(cfg.n, cfg.t);
                    let (input, hooks, bsb) = (input.as_deref(), hooks.as_mut(), &mut PhaseKingDriver);
                    run_windowed(ctx, &cfg, input, STANDALONE_SCOPE, &mut diag, hooks, bsb, window).await
                })
            })
            .collect();
        let result = run_tasks(SimConfig::new(cfg.n), metrics.clone(), None, tasks);
        Run {
            reports: result.outputs,
            rounds: result.rounds,
            bits: metrics.snapshot().total_logical_bits(),
        }
    }

    fn value(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed)).collect()
    }

    /// `n` nodes at their largest `t`, six generations of 8 bytes, the
    /// last one short.
    fn cfg(n: usize, source: usize) -> BroadcastConfig {
        BroadcastConfig::with_gen_bytes(n, (n - 1) / 3, source, 5 * 8 + 3, 8).expect("valid parameters")
    }

    /// Window sizes for `g` generations: windows that split the value
    /// unevenly, the production cap and one past the whole value.
    fn windows(g: usize) -> [usize; 4] {
        [2, 3, MAX_WINDOW, g + 1]
    }

    /// Runs `byz` at every window size and asserts each reproduces
    /// `W = 1` on the honest nodes with fewer than `2W` reruns; returns
    /// the `W = 1` decisions and the most reruns seen.
    fn assert_window_equivalent(
        cfg: &BroadcastConfig,
        v: &[u8],
        byz: &[(NodeId, Behaviour)],
    ) -> (Vec<Decision>, usize) {
        let honest: Vec<usize> = (0..cfg.n).filter(|id| byz.iter().all(|(who, _)| who != id)).collect();
        let reference = run(cfg, v, byz, 1);
        assert!(reference.reports.iter().all(|r| r.generations_rerun == 0));
        let reference = decisions(&reference.reports, &honest);
        let mut most_reruns = 0;
        for w in windows(cfg.generations()) {
            let got = run(cfg, v, byz, w);
            for &i in &honest {
                let r = &got.reports[i];
                assert!(
                    r.generations_rerun < 2 * w,
                    "n = {}, W = {w}: {} reruns for {} diagnoses",
                    cfg.n,
                    r.generations_rerun,
                    r.diagnosis_invocations
                );
                most_reruns = most_reruns.max(r.generations_rerun);
            }
            let byz_ids: Vec<NodeId> = byz.iter().map(|b| b.0).collect();
            let got = decisions(&got.reports, &honest);
            assert_eq!(got, reference, "n = {}, W = {w}, byz {byz_ids:?}", cfg.n);
        }
        (reference, most_reruns)
    }

    #[test]
    fn fault_free_windows_deliver_the_same_in_fewer_rounds() {
        let cfg = cfg(4, 1);
        let g = cfg.generations() as u64;
        assert_eq!(g, 6);
        let v = value(cfg.value_bytes, 3);
        let reference = run(&cfg, &v, &[], 1);
        assert!(reference.reports.iter().all(|r| r.output == v));
        let all: Vec<usize> = (0..cfg.n).collect();
        // Per window: a dispersal round, an echo round and one Phase-King
        // batch of 1 + 3(t + 1) rounds.
        let per_window = 2 + 1 + 3 * (cfg.t as u64 + 1);
        for w in windows(cfg.generations()) {
            let got = run(&cfg, &v, &[], w);
            assert_eq!(decisions(&got.reports, &all), decisions(&reference.reports, &all), "W = {w}");
            assert_eq!(got.bits, reference.bits, "W = {w}: logical bits");
            // The probe, then windows of up to W over the rest.
            let windows = 1 + (g - 1).div_ceil(w as u64);
            assert_eq!(got.rounds, windows * per_window, "W = {w}: rounds");
            assert!(got.reports.iter().all(|r| r.windows as u64 == windows && r.generations_rerun == 0));
        }
    }

    /// Every strategy of [`crate::attacks`] in its role at every
    /// position of `n` nodes: the source-role ones as the source,
    /// wherever it sits, the others at every position beside source 0.
    /// Each shows in the probe, so none costs a rerun.
    fn every_attack_in_its_role_matches_w1_without_reruns(n: usize) {
        let source_role: [Behaviour; 3] = [
            |_, _| Box::new(EquivocatingSource),
            |_, _| Box::new(SilentSource),
            |_, _| Box::new(LyingDiagnosisSource),
        ];
        let echo_role: [Behaviour; 5] = [
            |me, n| Box::new(LyingEcho::new((0..n).filter(|&x| x != me).collect())),
            |_, _| Box::new(SilentEcho),
            |_, _| Box::new(FramingEcho),
            |_, _| Box::new(FalseDetector),
            |_, _| Box::new(FramingAccuser),
        ];
        let mut cases: Vec<(BroadcastConfig, NodeId, Behaviour)> = Vec::new();
        for p in 0..n {
            cases.extend(source_role.iter().map(|&b| (cfg(n, p), p, b)));
        }
        for p in 1..n {
            cases.extend(echo_role.iter().map(|&b| (cfg(n, 0), p, b)));
        }
        for (cfg, p, behaviour) in cases {
            let v = value(cfg.value_bytes, p as u8);
            let (d, most_reruns) = assert_window_equivalent(&cfg, &v, &[(p, behaviour)]);
            assert_eq!(most_reruns, 0, "n = {n}, byz {p}: a probe shows every attack");
            assert!(d.windows(2).all(|w| w[0].output == w[1].output), "n = {n}, byz {p}: agreement");
            if p != cfg.source {
                assert!(d.iter().all(|x| x.output == v), "n = {n}, byz {p}: validity");
            }
        }
    }

    #[test]
    fn every_attack_in_its_role_n4() {
        every_attack_in_its_role_matches_w1_without_reruns(4);
    }

    #[test]
    fn every_attack_in_its_role_n7() {
        every_attack_in_its_role_matches_w1_without_reruns(7);
    }

    #[test]
    fn every_attack_in_its_role_n10() {
        every_attack_in_its_role_matches_w1_without_reruns(10);
    }

    /// Honest through generation 1, then a liar: it flips every symbol
    /// it relays and claims detections (as an outsider), or, as the
    /// source, equivocates toward odd ids.
    #[derive(Default, Clone, Copy)]
    struct LateLiar;

    const DIRTY_FROM: usize = 2;

    impl BsbHooks for LateLiar {}

    impl BroadcastHooks for LateLiar {
        fn dispersal_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
            if g >= DIRTY_FROM && to % 2 == 1 {
                payload.iter_mut().for_each(|b| *b ^= 0xFF);
            }
            true
        }

        fn echo_symbol(&mut self, g: usize, _to: NodeId, payload: &mut Vec<u8>) -> bool {
            if g >= DIRTY_FROM {
                payload.iter_mut().for_each(|b| *b ^= 0x0F);
            }
            true
        }

        fn detected_flag(&mut self, g: usize, flag: &mut bool) {
            *flag |= g >= DIRTY_FROM;
        }
    }

    /// A behaviour that turns dirty mid-slot, past the probe, forces
    /// reruns — fewer than `2W` in all — and still delivers what `W = 1`
    /// delivers.
    #[test]
    fn a_late_liar_costs_bounded_reruns_and_matches_w1() {
        let mut most_reruns = 0;
        for n in [4, 7] {
            for p in 0..n {
                let cfg = cfg(n, 0);
                let v = value(cfg.value_bytes, 7);
                let (d, reruns) = assert_window_equivalent(&cfg, &v, &[(p, |_, _| Box::new(LateLiar))]);
                most_reruns = most_reruns.max(reruns);
                assert!(d.windows(2).all(|w| w[0].output == w[1].output), "n = {n}, byz {p}: agreement");
                if p != cfg.source {
                    assert!(d.iter().all(|x| x.output == v), "n = {n}, byz {p}: validity");
                }
                assert!(d.iter().all(|x| x.diagnoses >= 1), "n = {n}, byz {p}: the lie is diagnosed");
            }
        }
        assert!(most_reruns > 0, "a mid-window detection discards later generations");
    }
}
