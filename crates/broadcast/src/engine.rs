//! Multi-generation broadcast engine.

use mvbc_bsb::{BsbDriver, PhaseKingDriver};
use mvbc_core::DiagGraph;
use mvbc_netsim::{block_on, NodeCtx};
use mvbc_rscode::StripedCode;

use crate::config::BroadcastConfig;
use crate::generation::{run_broadcast_generation, BroadcastGenerationOutcome, SlotTags};
use crate::hooks::BroadcastHooks;

/// Tag scope of a stand-alone broadcast execution (see
/// [`run_broadcast_slot`] for scoped executions).
const STANDALONE_SCOPE: &str = "broadcast";

/// Per-node summary of one broadcast execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastReport {
    /// The delivered `L`-byte value (equals the source's input when the
    /// source is fault-free; common across fault-free processors always).
    pub output: Vec<u8>,
    /// Number of generations whose diagnosis stage ran.
    pub diagnosis_invocations: u64,
    /// Whether the run fell back to the default value because the source
    /// became unusable (isolated or unable to sustain an echo set).
    pub defaulted: bool,
    /// Processors identified as faulty and isolated.
    pub isolated: Vec<usize>,
    /// Total diagnosis-graph edges removed.
    pub edges_removed: usize,
}

/// Runs the full multi-valued broadcast for one processor.
///
/// The source passes `Some(value)` (of `cfg.value_bytes` bytes); all other
/// processors pass `None`.
///
/// # Panics
///
/// Panics when the input presence/length disagrees with the
/// configuration.
pub fn run_broadcast(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    input: Option<&[u8]>,
    hooks: &mut dyn BroadcastHooks,
) -> BroadcastReport {
    run_broadcast_with(ctx, cfg, input, hooks, &mut PhaseKingDriver)
}

/// As [`run_broadcast`] with an explicit `Broadcast_Single_Bit`
/// substrate (the §4 substitution seam, as in
/// [`run_consensus_with`](mvbc_core::run_consensus_with)). All
/// fault-free processors must supply the same kind of driver.
///
/// # Panics
///
/// As [`run_broadcast`].
pub fn run_broadcast_with(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    input: Option<&[u8]>,
    hooks: &mut dyn BroadcastHooks,
    bsb: &mut dyn BsbDriver,
) -> BroadcastReport {
    block_on(broadcast(ctx, cfg, input, hooks, bsb))
}

/// [`run_broadcast_with`] as a future, for a simulation's node tasks.
pub(crate) async fn broadcast(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    input: Option<&[u8]>,
    hooks: &mut dyn BroadcastHooks,
    bsb: &mut dyn BsbDriver,
) -> BroadcastReport {
    let mut diag = DiagGraph::new(cfg.n, cfg.t);
    run_broadcast_slot(ctx, cfg, input, STANDALONE_SCOPE, &mut diag, hooks, bsb).await
}

/// Runs one broadcast execution *mid-simulation*, against caller-owned
/// diagnosis state and a caller-chosen tag scope.
///
/// This is the re-entrant core of [`run_broadcast_with`], the seam that
/// lets a slot-indexed protocol (the `mvbc-smr` replicated log) run many
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
/// It is `async` so that a slot can run as a
/// [`LaneMux`](mvbc_netsim::lanes::LaneMux) lane next to other slots; on a
/// simulator node's context, [`block_on`] runs it to completion.
///
/// # Panics
///
/// As [`run_broadcast`]; additionally `diag` must have `cfg.n` vertices.
pub async fn run_broadcast_slot(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    input: Option<&[u8]>,
    scope: &str,
    diag: &mut DiagGraph,
    hooks: &mut dyn BroadcastHooks,
    bsb: &mut dyn BsbDriver,
) -> BroadcastReport {
    assert_eq!(
        input.is_some(),
        ctx.id() == cfg.source,
        "exactly the source supplies the value"
    );
    if let Some(v) = input {
        assert_eq!(v.len(), cfg.value_bytes, "value must be L bytes");
    }
    assert_eq!(diag.n(), cfg.n, "diagnosis graph size must match n");
    let d = cfg.resolved_gen_bytes();
    let generations = cfg.generations();
    let code = StripedCode::c2t(cfg.n, cfg.t, d).expect("validated parameters");
    let tags = SlotTags::new(scope);

    let mut output: Vec<u8> = Vec::with_capacity(cfg.value_bytes);
    let mut diagnosis_invocations = 0u64;
    let mut defaulted = false;

    for g in 0..generations {
        if hooks.crash_before_generation(g) || diag.is_isolated(ctx.id()) {
            output.resize(cfg.value_bytes, cfg.default_byte);
            break;
        }
        hooks.observe_generation_start(g, ctx.id(), diag);

        let part: Option<Vec<u8>> = input.map(|v| {
            let start = g * d;
            let end = ((g + 1) * d).min(cfg.value_bytes);
            let mut p = v[start..end].to_vec();
            p.resize(d, cfg.default_byte);
            hooks.input_override(g, &mut p);
            p
        });

        let report =
            run_broadcast_generation(ctx, cfg, &code, diag, tags, g, part.as_deref(), hooks, bsb)
                .await;
        if report.diagnosis_ran {
            diagnosis_invocations += 1;
        }
        match report.outcome {
            BroadcastGenerationOutcome::Decided(v) => {
                debug_assert_eq!(v.len(), d);
                output.extend_from_slice(&v);
            }
            BroadcastGenerationOutcome::SourceUnusable => {
                defaulted = true;
                output.resize(cfg.value_bytes, cfg.default_byte);
                break;
            }
        }
    }
    output.truncate(cfg.value_bytes);
    output.resize(cfg.value_bytes, cfg.default_byte);

    let isolated: Vec<usize> = (0..cfg.n).filter(|&v| diag.is_isolated(v)).collect();
    BroadcastReport {
        output,
        diagnosis_invocations,
        defaulted,
        isolated,
        edges_removed: diag.total_removed(),
    }
}
