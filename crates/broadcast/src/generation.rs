//! One generation of the broadcast protocol: dispersal, echo/checking,
//! and diagnosis.

use mvbc_bsb::{BsbConfig, BsbDriver, BsbInstance, BsbValueSpec, SessionTags};
use mvbc_core::DiagGraph;
use mvbc_netsim::bits::{pack_bits, unpack_bits};
use mvbc_netsim::{scoped_tag, NodeCtx};
use mvbc_rscode::{StripedCode, Symbol};

use crate::config::BroadcastConfig;
use crate::hooks::BroadcastHooks;

/// Message tags and `Broadcast_Single_Bit` session names of one broadcast
/// execution, derived from a caller-chosen scope. A stand-alone broadcast
/// uses the scope `"broadcast"`; slot-indexed callers (the `mvbc-smr`
/// replicated log) scope per slot (`"smr.slot17"`, …) so a Byzantine
/// processor cannot replay one slot's messages into another.
///
/// The BSB-derived tags of each session are interned here too — **once
/// per slot execution** — so the per-generation [`BsbConfig`]s are built
/// with [`BsbConfig::with_tags`] and steady-state sends never touch the
/// global interning table (no formatting, no locking on the hot path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotTags {
    /// The raw scope itself (`"broadcast"`, `"smr.slot17"`, …), used to
    /// label telemetry phase spans with their slot/lane identity.
    pub scope: &'static str,
    pub dispersal: &'static str,
    pub echo: &'static str,
    pub detected: &'static str,
    pub data: &'static str,
    pub claims: &'static str,
    pub trust: &'static str,
    pub detected_session: SessionTags,
    pub data_session: SessionTags,
    pub claims_session: SessionTags,
    pub trust_session: SessionTags,
}

impl SlotTags {
    pub(crate) fn new(scope: &str) -> Self {
        let detected = scoped_tag(scope, "checking.detected");
        let data = scoped_tag(scope, "diagnosis.data");
        let claims = scoped_tag(scope, "diagnosis.claims");
        let trust = scoped_tag(scope, "diagnosis.trust");
        SlotTags {
            scope: mvbc_metrics::intern_tag(scope),
            dispersal: scoped_tag(scope, "dispersal.symbol"),
            echo: scoped_tag(scope, "echo.symbol"),
            detected,
            data,
            claims,
            trust,
            detected_session: SessionTags::derive(detected),
            data_session: SessionTags::derive(data),
            claims_session: SessionTags::derive(claims),
            trust_session: SessionTags::derive(trust),
        }
    }
}

/// Decision of one broadcast generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BroadcastGenerationOutcome {
    /// The generation value was delivered.
    Decided(Vec<u8>),
    /// The source is isolated or provably faulty (cannot assemble an echo
    /// set); all fault-free processors decide the default value.
    SourceUnusable,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BroadcastGenReport {
    pub outcome: BroadcastGenerationOutcome,
    pub diagnosis_ran: bool,
    pub edges_removed: Vec<(usize, usize)>,
    pub newly_isolated: Vec<usize>,
}

/// Computes the common-knowledge echo set: the source plus the
/// `n - t - 1` lowest-id active processors that still trust the source.
/// Returns `None` when fewer than `n - t - 1` such processors exist
/// (possible only for a faulty source, since fault-free processors never
/// lose edges to a fault-free source).
pub(crate) fn echo_set(cfg: &BroadcastConfig, diag: &DiagGraph) -> Option<Vec<usize>> {
    let non_src: Vec<usize> = diag
        .active_ids()
        .into_iter()
        .filter(|&v| v != cfg.source && diag.trusts(v, cfg.source))
        .take(cfg.n - cfg.t - 1)
        .collect();
    if non_src.len() < cfg.n - cfg.t - 1 {
        return None;
    }
    let mut e_set = non_src;
    e_set.push(cfg.source);
    e_set.sort_unstable();
    Some(e_set)
}

#[allow(clippy::too_many_arguments)] // one call site; mirrors the paper's per-generation state
pub(crate) async fn run_broadcast_generation(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    code: &StripedCode,
    diag: &mut DiagGraph,
    tags: SlotTags,
    g: usize,
    my_part: Option<&[u8]>,
    hooks: &mut dyn BroadcastHooks,
    bsb: &mut dyn BsbDriver,
) -> BroadcastGenReport {
    let t = cfg.t;
    let k = cfg.k();
    let src = cfg.source;
    let me = ctx.id();
    let active = diag.active_ids();
    let participants = diag.participants();
    let stripes = code.layout().stripes;
    let sym_wire_bits = stripes * 16;
    let no_report = |outcome| BroadcastGenReport {
        outcome,
        diagnosis_ran: false,
        edges_removed: Vec::new(),
        newly_isolated: Vec::new(),
    };

    // Optional phase spans (dispersal / echo / vote / diagnosis), keyed
    // by the slot scope. `None` unless the caller's sink was built with
    // `MetricsSink::with_telemetry` — the default records nothing.
    let telemetry = ctx.metrics().telemetry();

    // The echo set is common knowledge (derived from the shared graph).
    let Some(e_set) = echo_set(cfg, diag) else {
        return no_report(BroadcastGenerationOutcome::SourceUnusable);
    };
    let i_am_echo = e_set.contains(&me);

    // ------------------------------------------------------------------
    // Round 1: dispersal — the source sends coded symbol j to processor j.
    // ------------------------------------------------------------------
    let span = telemetry.as_ref().map(|t| t.span(me, tags.scope, "dispersal", ctx.vtime()));
    let my_symbols: Option<Vec<Symbol>> = my_part.map(|part| {
        code.encode_value(part)
            .expect("generation part has the configured size")
    });
    if me == src && participants[me] {
        let symbols = my_symbols.as_ref().expect("source holds the value");
        for (j, sym) in symbols.iter().enumerate() {
            if j == src || !diag.trusts(src, j) {
                continue;
            }
            let mut payload = sym.to_bytes();
            if hooks.dispersal_symbol(g, j, &mut payload) {
                ctx.send(j, tags.dispersal, payload, code.symbol_bits());
            }
        }
    }
    let mut inbox = ctx.next_round().await;
    let own: Option<Symbol> = if me == src {
        my_symbols.as_ref().map(|s| s[src].clone())
    } else if diag.trusts(me, src) {
        inbox
            .take(src, tags.dispersal)
            .and_then(|b| Symbol::from_bytes(&b, stripes, code.symbol_bits()))
    } else {
        None
    };
    if let Some(span) = span {
        span.finish(ctx.vtime());
    }

    // ------------------------------------------------------------------
    // Round 2: echo — echo-set members relay their symbols to everyone.
    // ------------------------------------------------------------------
    let span = telemetry.as_ref().map(|t| t.span(me, tags.scope, "echo", ctx.vtime()));
    if i_am_echo && participants[me] {
        if let Some(sym) = &own {
            for j in &active {
                let j = *j;
                if j == me || !diag.trusts(me, j) {
                    continue;
                }
                let mut payload = sym.to_bytes();
                if hooks.echo_symbol(g, j, &mut payload) {
                    ctx.send(j, tags.echo, payload, code.symbol_bits());
                }
            }
        }
    }
    let mut inbox = ctx.next_round().await;
    let echo_rx: Vec<Option<Symbol>> = e_set
        .iter()
        .map(|&e| {
            if e == me {
                own.clone().filter(|_| i_am_echo)
            } else if diag.trusts(me, e) {
                inbox
                    .take(e, tags.echo)
                    .and_then(|b| Symbol::from_bytes(&b, stripes, code.symbol_bits()))
            } else {
                None
            }
        })
        .collect();
    if let Some(span) = span {
        span.finish(ctx.vtime());
    }

    // ------------------------------------------------------------------
    // Checking: consistency of everything this processor holds.
    // ------------------------------------------------------------------
    let mut pairs: Vec<(usize, Symbol)> = e_set
        .iter()
        .zip(&echo_rx)
        .filter_map(|(&e, s)| s.clone().map(|s| (e, s)))
        .collect();
    if !i_am_echo {
        if let Some(own_sym) = &own {
            pairs.push((me, own_sym.clone()));
        }
    }
    let echo_present = e_set
        .iter()
        .zip(&echo_rx)
        .filter(|(_, s)| s.is_some())
        .count();
    let consistent = code.is_consistent(&pairs).expect("positions are valid");
    let mut detected = if me == src {
        false
    } else {
        let missing_own = diag.trusts(me, src) && own.is_none();
        !consistent || echo_present < k || missing_own
    };
    if me != src {
        hooks.detected_flag(g, &mut detected);
    }
    let det_sources: Vec<usize> = active.iter().copied().filter(|&v| v != src).collect();
    let bsb_det = BsbConfig::with_tags(t, tags.detected, tags.detected_session, participants.clone());
    let det_instances: Vec<BsbInstance> = det_sources
        .iter()
        .map(|&v| BsbInstance {
            source: v,
            input: (v == me).then_some(detected),
        })
        .collect();
    let span = telemetry.as_ref().map(|t| t.span(me, tags.scope, "vote", ctx.vtime()));
    let det_flags = bsb.run_batch(ctx, &bsb_det, &det_instances, &mut *hooks).await;
    let any_detected = det_flags.iter().any(|&d| d);
    if let Some(span) = span {
        span.finish(ctx.vtime());
    }

    if !any_detected {
        let value = if me == src {
            my_part.expect("source holds the value").to_vec()
        } else {
            code.decode_value(&pairs)
                .unwrap_or_else(|_| vec![cfg.default_byte; code.layout().value_bytes])
        };
        return no_report(BroadcastGenerationOutcome::Decided(value));
    }

    // ------------------------------------------------------------------
    // Diagnosis stage.
    // ------------------------------------------------------------------
    let span = telemetry.as_ref().map(|t| t.span(me, tags.scope, "diagnosis", ctx.vtime()));

    // (d1) The source broadcasts the full generation data.
    let data_bits_len = code.layout().value_bytes * 8;
    let mut my_data_bits: Vec<bool> = if me == src {
        unpack_bits(my_part.expect("source holds the value"), data_bits_len)
            .expect("length matches by construction")
    } else {
        vec![false; data_bits_len]
    };
    if me == src {
        hooks.data_bits(g, &mut my_data_bits);
    }
    let bsb_data = BsbConfig::with_tags(t, tags.data, tags.data_session, participants.clone());
    let data_spec = [BsbValueSpec {
        source: src,
        bits: data_bits_len,
        input: (me == src).then(|| my_data_bits.clone()),
    }];
    let data_bits = bsb.run_values(ctx, &bsb_data, &data_spec, &mut *hooks).await.remove(0);
    let data_bytes = pack_bits(&data_bits);
    let claimed_codeword = code
        .encode_value(&data_bytes)
        .expect("claimed data has the generation size");

    // (d2) Echo-set members broadcast their claims: 1 presence bit plus
    // the symbol bits.
    let claim_len = 1 + sym_wire_bits;
    let mut my_claim: Vec<bool> = if i_am_echo {
        let mut bits = vec![own.is_some()];
        match &own {
            Some(sym) => {
                bits.extend(unpack_bits(&sym.to_bytes(), sym_wire_bits).expect("fixed width"))
            }
            None => bits.extend(std::iter::repeat_n(false, sym_wire_bits)),
        }
        bits
    } else {
        vec![false; claim_len]
    };
    if i_am_echo {
        hooks.echo_claim_bits(g, &mut my_claim);
    }
    let bsb_claims = BsbConfig::with_tags(t, tags.claims, tags.claims_session, participants.clone());
    let claim_specs: Vec<BsbValueSpec> = e_set
        .iter()
        .map(|&e| BsbValueSpec {
            source: e,
            bits: claim_len,
            input: (e == me).then(|| my_claim.clone()),
        })
        .collect();
    let claim_bits = bsb.run_values(ctx, &bsb_claims, &claim_specs, &mut *hooks).await;
    let claims: Vec<Option<Symbol>> = claim_bits
        .iter()
        .map(|bits| {
            bits[0].then(|| {
                Symbol::from_bytes(&pack_bits(&bits[1..]), stripes, code.symbol_bits())
                    .expect("fixed-width broadcast yields a well-formed symbol")
            })
        })
        .collect();

    // (d3) Trust vectors: [trust-source, trust-echo(e) for e in E].
    let mut trust: Vec<bool> = Vec::with_capacity(claim_len);
    trust.push(if me == src || !diag.trusts(me, src) {
        true // nothing to accuse (or no edge left to remove)
    } else {
        own.as_ref() == Some(&claimed_codeword[me])
    });
    for (idx, &e) in e_set.iter().enumerate() {
        trust.push(if e == me || !diag.trusts(me, e) {
            true
        } else {
            echo_rx[idx] == claims[idx]
        });
    }
    hooks.trust_bits(g, &mut trust);
    let bsb_trust = BsbConfig::with_tags(t, tags.trust, tags.trust_session, participants.clone());
    let trust_specs: Vec<BsbValueSpec> = active
        .iter()
        .map(|&v| BsbValueSpec {
            source: v,
            bits: 1 + e_set.len(),
            input: (v == me).then(|| trust.clone()),
        })
        .collect();
    let trust_all = bsb.run_values(ctx, &bsb_trust, &trust_specs, &mut *hooks).await;

    // Edge removals: accusations (i -> source), (i -> echo), and
    // source-vs-echo claim mismatches. Every removed edge is adjacent to
    // at least one faulty processor (see crate docs).
    let mut edges_removed: Vec<(usize, usize)> = Vec::new();
    let remove = |diag: &mut DiagGraph, a: usize, b: usize, out: &mut Vec<(usize, usize)>| {
        if a != b && diag.trusts(a, b) {
            diag.remove_edge(a, b);
            out.push((a.min(b), a.max(b)));
        }
    };
    for (ai, &i) in active.iter().enumerate() {
        let tv = &trust_all[ai];
        if !tv[0] {
            remove(diag, i, src, &mut edges_removed);
        }
        for (idx, &e) in e_set.iter().enumerate() {
            if !tv[1 + idx] {
                remove(diag, i, e, &mut edges_removed);
            }
        }
    }
    let mut newly_isolated: Vec<usize> = Vec::new();
    for (idx, &e) in e_set.iter().enumerate() {
        let expected = Some(&claimed_codeword[e]);
        let claim_matches = claims[idx].as_ref() == expected;
        if claim_matches {
            continue;
        }
        if e == src {
            // The source contradicted itself across two broadcasts: its
            // claimed echo symbol does not lie on its claimed codeword.
            if !diag.is_isolated(src) {
                diag.isolate(src);
                newly_isolated.push(src);
            }
        } else {
            remove(diag, src, e, &mut edges_removed);
        }
    }

    // False-accuser isolation: when a diagnosis removes nothing at all, a
    // fault-free processor cannot have detected anything (every honest
    // detection implies a removable edge), so all claimed detections were
    // lies.
    if edges_removed.is_empty() && newly_isolated.is_empty() {
        for (di, &v) in det_sources.iter().enumerate() {
            if det_flags[di] && !diag.is_isolated(v) {
                diag.isolate(v);
                newly_isolated.push(v);
            }
        }
    }
    newly_isolated.extend(diag.enforce_isolation());
    newly_isolated.sort_unstable();
    newly_isolated.dedup();

    if let Some(span) = span {
        span.finish(ctx.vtime());
    }

    // Decide on the source's (common) claim.
    let mut value = data_bytes;
    value.truncate(code.layout().value_bytes);
    BroadcastGenReport {
        outcome: BroadcastGenerationOutcome::Decided(value),
        diagnosis_ran: true,
        edges_removed,
        newly_isolated,
    }
}
