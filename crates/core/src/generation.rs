//! One window of Algorithm 1: the matching and checking stages of up to
//! [`GENERATION_WINDOW`](crate::GENERATION_WINDOW) consecutive
//! generations, and the diagnosis stage of the first generation that
//! needs one.
//!
//! The line numbers in comments refer to the pseudo-code of Algorithm 1 in
//! the paper (§3). All control information flows through
//! `Broadcast_Single_Bit`, so every fault-free processor derives the same
//! `P_match`, the same `Detected` flags, the same `R#`, the same `Trust`
//! vectors — and therefore makes the same decisions and the same diagnosis
//! graph updates.
//!
//! Generations share only the diagnosis graph, and only the diagnosis
//! stage changes it. A window therefore runs its generations' matching
//! and checking stages side by side under the graph from the window's
//! start: one symbol round carries every generation's symbols (one
//! message per generation per trusted ordered pair), one
//! `Broadcast_Single_Bit` batch every generation's `M` vectors and one
//! more every generation's `Detected` flags. Generations commit in order
//! up to the first one with a detection, which alone runs the diagnosis
//! stage; the generations after it are discarded and run again in the
//! next window under the updated graph — the graph the
//! one-generation-at-a-time algorithm would have given them.

use mvbc_bsb::{BsbConfig, BsbDriver, BsbInstance, BsbValueSpec, SessionTags};
use mvbc_metrics::intern_tag;
use mvbc_netsim::bits::{pack_bits, unpack_bits};
use mvbc_netsim::NodeCtx;
use mvbc_rscode::{StripedCode, Symbol};

use crate::clique::find_clique_of_size;
use crate::config::ConsensusConfig;
use crate::diag::DiagGraph;
use crate::hooks::ProtocolHooks;
use crate::window::WindowOutcome;

/// Message tag for the matching-stage symbol dispersal (line 1(a)) of a
/// window's first generation; offset `k > 0` appends `.w<k>`.
const TAG_SYMBOL: &str = "consensus.matching.symbol";
/// BSB session for the `M` vectors (line 1(d)).
const SESSION_M: &str = "consensus.matching.m";
/// BSB session for the `Detected` flags (line 2(b)).
const SESSION_DETECTED: &str = "consensus.checking.detected";
/// BSB session for the diagnosis symbols `R#` (line 3(a)).
const SESSION_RSHARP: &str = "consensus.diagnosis.rsharp";
/// BSB session for the `Trust` vectors (line 3(d)).
const SESSION_TRUST: &str = "consensus.diagnosis.trust";

/// The wire tags of one consensus run, interned once per run.
pub(crate) struct RunTags {
    /// The symbol tag of each window offset.
    symbol: Vec<&'static str>,
    m: SessionTags,
    detected: SessionTags,
}

impl RunTags {
    /// Tags for windows of up to `window` generations.
    pub(crate) fn new(window: usize) -> Self {
        let symbol = (0..window)
            .map(|k| if k == 0 { TAG_SYMBOL } else { intern_tag(&format!("{TAG_SYMBOL}.w{k}")) })
            .collect();
        RunTags {
            symbol,
            m: SessionTags::derive(SESSION_M),
            detected: SessionTags::derive(SESSION_DETECTED),
        }
    }
}

/// One generation that found its `P_match` (lines 1(a)-(e)).
struct Matched {
    /// This processor's codeword of its input part.
    symbols: Vec<Symbol>,
    /// Line 1(b)'s symbols; `None` is ⊥.
    received: Vec<Option<Symbol>>,
    p_match: Vec<usize>,
    in_match: Vec<bool>,
    /// Active processors outside `P_match`, ascending.
    outsiders: Vec<usize>,
    /// The symbols this processor holds from trusted members of
    /// `P_match` (the set X in the paper's Lemma 4 case 2a).
    my_x: Vec<(usize, Symbol)>,
}

/// Executes one window of Algorithm 1: generations
/// `first..first + parts.len()`, where `parts[k]` is this processor's
/// `D`-byte input part for generation `first + k`.
///
/// All fault-free processors must call this in the same round with equal
/// `cfg`, `code`, a diagnosis graph in the same state, `first` and
/// window length.
#[allow(clippy::too_many_arguments)] // one call site; mirrors the paper's per-generation state
pub(crate) async fn run_window(
    ctx: &mut NodeCtx,
    cfg: &ConsensusConfig,
    code: &StripedCode,
    tags: &RunTags,
    diag: &mut DiagGraph,
    first: usize,
    parts: &[Vec<u8>],
    hooks: &mut dyn ProtocolHooks,
    bsb: &mut dyn BsbDriver,
) -> WindowOutcome {
    let n = cfg.n;
    let t = cfg.t;
    let me = ctx.id();
    let active = diag.active_ids();
    let participants = diag.participants();
    let stripes = code.layout().stripes;

    // ------------------------------------------------------------------
    // Matching stage
    // ------------------------------------------------------------------

    // 1(a): encode each generation's value and send own symbol to every
    // trusted processor, one message per generation.
    let codewords: Vec<Vec<Symbol>> = parts
        .iter()
        .map(|part| code.encode_value(part).expect("generation part has the configured size"))
        .collect();
    if participants[me] {
        for (k, symbols) in codewords.iter().enumerate() {
            for j in 0..n {
                if j == me || !diag.trusts(me, j) {
                    continue;
                }
                let mut payload = symbols[me].to_bytes();
                if hooks.matching_symbol(first + k, j, &mut payload) {
                    ctx.send(j, tags.symbol[k], payload, code.symbol_bits());
                }
            }
        }
    }
    let mut inbox = ctx.next_round().await;

    // 1(b): receive symbols; untrusted senders and malformed payloads
    // become the distinguished symbol ⊥ (None), per generation.
    // 1(c): match flags against the local codeword.
    let mut received_all: Vec<Vec<Option<Symbol>>> = Vec::with_capacity(parts.len());
    let mut m_specs: Vec<BsbValueSpec> = Vec::with_capacity(parts.len() * active.len());
    for (k, symbols) in codewords.iter().enumerate() {
        let mut received: Vec<Option<Symbol>> = vec![None; n];
        received[me] = Some(symbols[me].clone());
        for (j, slot) in received.iter_mut().enumerate() {
            if j == me || !diag.trusts(me, j) {
                continue;
            }
            *slot = inbox
                .take(j, tags.symbol[k])
                .and_then(|b| Symbol::from_bytes(&b, stripes, code.symbol_bits()));
        }
        let mut m: Vec<bool> = (0..n)
            .map(|j| j == me || (diag.trusts(me, j) && received[j].as_ref() == Some(&symbols[j])))
            .collect();
        hooks.m_vector(first + k, &mut m);
        m_specs.extend(active.iter().map(|&src| BsbValueSpec {
            source: src,
            bits: n,
            input: (src == me).then(|| m.clone()),
        }));
        received_all.push(received);
    }

    // 1(d): broadcast every generation's M_i in one Broadcast_Single_Bit
    // batch (one instance per bit); isolated processors neither broadcast
    // nor are broadcast to.
    let bsb_m = BsbConfig::with_tags(t, SESSION_M, tags.m, participants.clone());
    let m_broadcast = bsb.run_values(ctx, &bsb_m, &m_specs, &mut *hooks).await;

    // 1(e): find P_match of size n - t with pairwise true M flags. 1(f):
    // no P_match means the fault-free inputs differ, and the window stops
    // at that generation.
    let mut matched: Vec<Matched> = Vec::with_capacity(parts.len());
    for ((symbols, received), m_rows) in
        codewords.into_iter().zip(received_all).zip(m_broadcast.chunks(active.len()))
    {
        let mut m_all: Vec<&[bool]> = vec![&[]; n];
        for (&src, row) in active.iter().zip(m_rows) {
            m_all[src] = row;
        }
        let Some(p_match) = find_clique_of_size(&active, n - t, |a, b| m_all[a][b] && m_all[b][a])
        else {
            break;
        };
        let mut in_match = vec![false; n];
        for &j in &p_match {
            in_match[j] = true;
        }
        let outsiders = active.iter().copied().filter(|&j| !in_match[j]).collect();
        let my_x = p_match.iter().filter_map(|&j| received[j].clone().map(|s| (j, s))).collect();
        matched.push(Matched { symbols, received, p_match, in_match, outsiders, my_x });
    }
    // Line 1(f) for the first generation without a `P_match`.
    let defaulted = matched.len() < parts.len();
    if matched.is_empty() {
        return WindowOutcome { decided: Vec::new(), diagnosed: false, defaulted };
    }

    // ------------------------------------------------------------------
    // Checking stage
    // ------------------------------------------------------------------

    // 2(a)/2(b): processors outside P_match check consistency and
    // broadcast their 1-bit verdicts, every generation's in one batch.
    let mut det_instances: Vec<BsbInstance> = Vec::new();
    for (k, gen) in matched.iter().enumerate() {
        let mut detected = false;
        if !gen.in_match[me] {
            detected = !code.is_consistent(&gen.my_x).expect("received positions are valid");
            hooks.detected_flag(first + k, &mut detected);
        }
        det_instances.extend(gen.outsiders.iter().map(|&src| BsbInstance {
            source: src,
            input: (src == me).then_some(detected),
        }));
    }
    let bsb_det = BsbConfig::with_tags(t, SESSION_DETECTED, tags.detected, participants);
    let det_flags = bsb.run_batch(ctx, &bsb_det, &det_instances, &mut *hooks).await;

    // 2(c): generations in which nobody detected an inconsistency decode
    // from the symbols at hand. (For a fault-free processor this succeeds
    // and all fault-free processors obtain the same value, Lemma 3; only
    // a *faulty* processor can reach the fallback.) The first generation
    // with a detection runs the diagnosis stage and ends the window.
    let mut decided: Vec<Vec<u8>> = Vec::with_capacity(matched.len());
    let mut flags = det_flags.as_slice();
    for (k, gen) in matched.iter().enumerate() {
        let (gen_flags, rest) = flags.split_at(gen.outsiders.len());
        flags = rest;
        if gen_flags.iter().any(|&d| d) {
            decided.push(diagnose(ctx, cfg, code, diag, first + k, gen, gen_flags, hooks, bsb).await);
            return WindowOutcome { decided, diagnosed: true, defaulted: false };
        }
        decided.push(
            code.decode_value(&gen.my_x)
                .unwrap_or_else(|_| vec![cfg.default_byte; code.layout().value_bytes]),
        );
    }
    WindowOutcome { decided, diagnosed: false, defaulted }
}

/// The diagnosis stage (lines 3(a)-(i)) of generation `g`, whose checking
/// stage returned `det_flags` (aligned with `gen.outsiders`); updates
/// `diag` and returns the generation's decided value.
#[allow(clippy::too_many_arguments)] // one call site; mirrors the paper's per-generation state
async fn diagnose(
    ctx: &mut NodeCtx,
    cfg: &ConsensusConfig,
    code: &StripedCode,
    diag: &mut DiagGraph,
    g: usize,
    gen: &Matched,
    det_flags: &[bool],
    hooks: &mut dyn ProtocolHooks,
    bsb: &mut dyn BsbDriver,
) -> Vec<u8> {
    let n = cfg.n;
    let t = cfg.t;
    let me = ctx.id();
    let active = diag.active_ids();
    let participants = diag.participants();
    let stripes = code.layout().stripes;
    let sym_wire_bits = stripes * 16;
    let Matched { symbols, received, p_match, in_match, outsiders, .. } = gen;

    // 3(a)/3(b): every member of P_match broadcasts the symbol it sent in
    // the matching stage (one Broadcast_Single_Bit per bit); R#[j] is the
    // common result.
    let mut my_sym_bits: Vec<bool> = unpack_bits(&symbols[me].to_bytes(), sym_wire_bits)
        .expect("symbol serialisation is self-consistent");
    if in_match[me] {
        hooks.diagnosis_symbol_bits(g, &mut my_sym_bits);
    }
    let bsb_rsharp = BsbConfig::new(t, SESSION_RSHARP, participants.clone());
    let rsharp_specs: Vec<BsbValueSpec> = p_match
        .iter()
        .map(|&src| BsbValueSpec {
            source: src,
            bits: sym_wire_bits,
            input: (src == me).then(|| my_sym_bits.clone()),
        })
        .collect();
    let rsharp_bits = bsb.run_values(ctx, &bsb_rsharp, &rsharp_specs, &mut *hooks).await;
    let rsharp: Vec<(usize, Symbol)> = p_match
        .iter()
        .zip(&rsharp_bits)
        .map(|(&j, bits)| {
            let sym = Symbol::from_bytes(&pack_bits(bits), stripes, code.symbol_bits())
                .expect("fixed-width broadcast yields a well-formed symbol");
            (j, sym)
        })
        .collect();

    // 3(c): local trust verdicts about P_match members.
    let mut trust: Vec<bool> = rsharp
        .iter()
        .map(|(j, sym)| diag.trusts(me, *j) && received[*j].as_ref() == Some(sym))
        .collect();
    hooks.trust_vector(g, &mut trust);

    // 3(d): broadcast Trust_i / P_match from every (non-isolated)
    // processor.
    let bsb_trust = BsbConfig::new(t, SESSION_TRUST, participants);
    let trust_specs: Vec<BsbValueSpec> = active
        .iter()
        .map(|&src| BsbValueSpec {
            source: src,
            bits: p_match.len(),
            input: (src == me).then(|| trust.clone()),
        })
        .collect();
    let trust_all = bsb.run_values(ctx, &bsb_trust, &trust_specs, &mut *hooks).await;

    // 3(e): remove accused edges. All processors hold identical
    // trust_all, so they remove identical edges.
    let mut edge_removed_at = vec![false; n];
    for (ai, &i) in active.iter().enumerate() {
        for (pj, &j) in p_match.iter().enumerate() {
            if i == j || !diag.trusts(i, j) {
                continue;
            }
            if !trust_all[ai][pj] {
                diag.remove_edge(i, j);
                edge_removed_at[i] = true;
                edge_removed_at[j] = true;
            }
        }
    }

    // 3(f): when the broadcast symbols form a codeword, an outsider that
    // claimed detection without any removed edge exposed itself as
    // faulty.
    let rsharp_consistent = code
        .is_consistent(&rsharp)
        .expect("broadcast positions are valid");
    if rsharp_consistent {
        for (oi, &j) in outsiders.iter().enumerate() {
            if det_flags[oi] && !edge_removed_at[j] && !diag.is_isolated(j) {
                diag.isolate(j);
            }
        }
    }

    // 3(g): the cumulative t + 1 rule.
    diag.enforce_isolation();

    // 3(h): P_decide ⊂ P_match of size n - 2t, pairwise trusting in the
    // updated graph (existence guaranteed by Lemma 5: the ≥ n - 2t
    // fault-free members of P_match always trust each other).
    let p_decide = find_clique_of_size(p_match, n - 2 * t, |a, b| diag.trusts(a, b))
        .expect("Lemma 5: P_decide always exists");

    // 3(i): decide on the broadcast symbols of P_decide. For a fault-free
    // processor the restriction is always consistent (Lemma 5); the
    // fallback is reachable only by faulty processors.
    let decide_pairs: Vec<(usize, Symbol)> = rsharp
        .iter()
        .filter(|(j, _)| p_decide.contains(j))
        .cloned()
        .collect();
    code.decode_value(&decide_pairs)
        .unwrap_or_else(|_| vec![cfg.default_byte; code.layout().value_bytes])
}
