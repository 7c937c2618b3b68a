//! One window of the broadcast protocol: the dispersal, echo and checking
//! stages of up to `W` consecutive generations, and the diagnosis stage
//! of the first generation that needs one.
//!
//! Generations share only the diagnosis graph, and only the diagnosis
//! stage changes it. A window therefore runs its generations side by side
//! under the graph from the window's start: one dispersal round and one
//! echo round carry every generation's symbols (one [framed](frame)
//! message per trusted ordered pair and round), and one
//! `Broadcast_Single_Bit` batch every generation's `Detected` flags.
//! Generations commit in order up to the first one with a detection,
//! which alone runs the diagnosis stage; the generations after it are
//! discarded and run again in the next window, under the updated graph —
//! the graph the one-generation-at-a-time protocol gives them.

use mvbc_bsb::{BsbConfig, BsbDriver, BsbInstance, BsbValueSpec, SessionTags};
use mvbc_core::{DiagGraph, WindowOutcome};
use mvbc_netsim::bits::{pack_bits, unpack_bits};
use mvbc_netsim::{scoped_tag, Message, NodeCtx, NodeId};
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
/// per slot execution** — so the per-window [`BsbConfig`]s are built
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

/// Presence marker of a framed symbol.
const PRESENT: u8 = 1;
/// Marker of a window offset whose symbol the sender left out.
const ABSENT: u8 = 0;

/// Frames one window's symbols for one recipient: per window offset, an
/// [`ABSENT`] byte, or a [`PRESENT`] byte followed by the symbol's length
/// (4 bytes, little-endian) and its bytes.
fn frame(symbols: &[Option<Vec<u8>>]) -> Vec<u8> {
    let len: usize = symbols.iter().map(|s| s.as_ref().map_or(1, |s| 5 + s.len())).sum();
    let mut out = Vec::with_capacity(len);
    for symbol in symbols {
        match symbol {
            Some(bytes) => {
                let n = u32::try_from(bytes.len()).expect("a symbol is shorter than 4 GiB");
                out.push(PRESENT);
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(bytes);
            }
            None => out.push(ABSENT),
        }
    }
    out
}

/// The symbol at window offset `k` of a [`frame`], or `None` — that
/// generation's silence — when the sender left it out or the frame is
/// malformed at or before offset `k`. Total over any byte string: a
/// faulty sender's bytes never panic the receiver.
fn unframe(frame: &[u8], k: usize) -> Option<&[u8]> {
    let mut rest = frame;
    for offset in 0..=k {
        let (&marker, tail) = rest.split_first()?;
        rest = tail;
        match marker {
            ABSENT => {}
            PRESENT => {
                let (len, tail) = rest.split_first_chunk::<4>()?;
                let len = usize::try_from(u32::from_le_bytes(*len)).ok()?;
                if tail.len() < len {
                    return None;
                }
                let (symbol, tail) = tail.split_at(len);
                if offset == k {
                    return Some(symbol);
                }
                rest = tail;
            }
            _ => return None,
        }
    }
    None
}

/// Sends `symbols` to `to` as one frame, charging the logical bits of the
/// symbols present; sends nothing when every symbol was left out.
fn send_frame(ctx: &mut NodeCtx, to: NodeId, tag: &'static str, symbols: &[Option<Vec<u8>>], bits: u64) {
    let present = symbols.iter().flatten().count() as u64;
    if present > 0 {
        ctx.send(to, tag, frame(symbols), present * bits);
    }
}

/// Executes one window: generations `first..first + w`. The source
/// passes `parts`, its `w` generation parts of `D` bytes each; everyone
/// else passes `None`.
///
/// All fault-free processors must call this in the same round with equal
/// `cfg`, `code`, a diagnosis graph in the same state, `first` and `w`.
#[allow(clippy::too_many_arguments)] // one call site; mirrors the paper's per-generation state
pub(crate) async fn run_window(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    code: &StripedCode,
    diag: &mut DiagGraph,
    tags: SlotTags,
    first: usize,
    w: usize,
    parts: Option<&[Vec<u8>]>,
    hooks: &mut dyn BroadcastHooks,
    bsb: &mut dyn BsbDriver,
) -> WindowOutcome {
    let t = cfg.t;
    let k = cfg.k();
    let src = cfg.source;
    let me = ctx.id();
    let active = diag.active_ids();
    let participants = diag.participants();
    let stripes = code.layout().stripes;
    let symbol_bits = code.symbol_bits();

    // Optional phase spans (dispersal / echo / vote / diagnosis), keyed
    // by the slot scope. `None` unless the caller's sink was built with
    // `MetricsSink::with_telemetry` — the default records nothing.
    let telemetry = ctx.metrics().telemetry();

    // The echo set is common knowledge (derived from the shared graph).
    // Without one the source is isolated or provably faulty, and every
    // fault-free processor decides the default value from here on.
    let Some(e_set) = echo_set(cfg, diag) else {
        return WindowOutcome { decided: Vec::new(), diagnosed: false, defaulted: true };
    };
    let i_am_echo = e_set.contains(&me);

    // ------------------------------------------------------------------
    // Round 1: dispersal — the source sends coded symbol j of every
    // generation to processor j, in one frame.
    // ------------------------------------------------------------------
    let span = telemetry.as_ref().map(|t| t.span(me, tags.scope, "dispersal", ctx.vtime()));
    let codewords: Option<Vec<Vec<Symbol>>> = parts.map(|parts| {
        parts
            .iter()
            .map(|part| code.encode_value(part).expect("generation part has the configured size"))
            .collect()
    });
    if me == src && participants[me] {
        let codewords = codewords.as_ref().expect("source holds the value");
        for j in 0..cfg.n {
            if j == src || !diag.trusts(src, j) {
                continue;
            }
            let symbols: Vec<Option<Vec<u8>>> = codewords
                .iter()
                .enumerate()
                .map(|(o, codeword)| {
                    let mut payload = codeword[j].to_bytes();
                    hooks.dispersal_symbol(first + o, j, &mut payload).then_some(payload)
                })
                .collect();
            send_frame(ctx, j, tags.dispersal, &symbols, symbol_bits);
        }
    }
    let mut inbox = ctx.next_round().await;
    let to_symbol = |bytes: &[u8]| Symbol::from_bytes(bytes, stripes, symbol_bits);
    let own: Vec<Option<Symbol>> = if me == src {
        let codewords = codewords.as_ref().expect("source holds the value");
        codewords.iter().map(|codeword| Some(codeword[src].clone())).collect()
    } else {
        let dispersal = diag.trusts(me, src).then(|| inbox.take(src, tags.dispersal)).flatten();
        (0..w)
            .map(|o| dispersal.as_deref().and_then(|f| unframe(f, o)).and_then(to_symbol))
            .collect()
    };
    // Inboxes go back to their pool as soon as they are read, and the
    // source's codewords go too: a lane would otherwise hold them through
    // the whole `Detected` batch.
    drop(inbox);
    drop(codewords);
    if let Some(span) = span {
        span.finish(ctx.vtime());
    }

    // ------------------------------------------------------------------
    // Round 2: echo — echo-set members relay their symbols to everyone.
    // The honest frame is built once; recipients whose hooked copies are
    // unchanged get refcount clones of it.
    // ------------------------------------------------------------------
    let span = telemetry.as_ref().map(|t| t.span(me, tags.scope, "echo", ctx.vtime()));
    let present = own.iter().flatten().count() as u64;
    if i_am_echo && participants[me] && present > 0 {
        let honest: Vec<Option<Vec<u8>>> = own.iter().map(|s| s.as_ref().map(Symbol::to_bytes)).collect();
        // `Message::payload` is the netsim's refcounted wire buffer;
        // building one names that type without depending on `bytes`.
        let shared = Message { from: me, tag: tags.echo, payload: frame(&honest).into(), at: 0 }.payload;
        // Each recipient's hooked copies, in buffers reused across
        // recipients.
        let mut copies: Vec<Option<Vec<u8>>> = vec![None; w];
        for &j in &active {
            if j == me || !diag.trusts(me, j) {
                continue;
            }
            let mut changed = false;
            for (o, (copy, symbol)) in copies.iter_mut().zip(&honest).enumerate() {
                let buffer = copy.take();
                let Some(symbol) = symbol else { continue };
                let mut payload = buffer.unwrap_or_default();
                payload.clear();
                payload.extend_from_slice(symbol);
                let keep = hooks.echo_symbol(first + o, j, &mut payload);
                changed |= !keep || payload != *symbol;
                *copy = keep.then_some(payload);
            }
            if changed {
                send_frame(ctx, j, tags.echo, &copies, symbol_bits);
            } else {
                ctx.send(j, tags.echo, shared.clone(), present * symbol_bits);
            }
        }
    }
    let mut inbox = ctx.next_round().await;
    let echo_frames: Vec<_> = e_set
        .iter()
        .map(|&e| (e != me && diag.trusts(me, e)).then(|| inbox.take(e, tags.echo)).flatten())
        .collect();
    drop(inbox);
    // The echo-set symbols this processor holds for window offset `o`,
    // parsed from the frames on demand: one generation at a time.
    let echo_row = |o: usize| -> Vec<Option<Symbol>> {
        e_set
            .iter()
            .zip(&echo_frames)
            .map(|(&e, f)| {
                if e == me {
                    own[o].clone()
                } else {
                    f.as_deref().and_then(|f| unframe(f, o)).and_then(to_symbol)
                }
            })
            .collect()
    };
    if let Some(span) = span {
        span.finish(ctx.vtime());
    }

    // ------------------------------------------------------------------
    // Checking: consistency of everything this processor holds, one
    // generation at a time; keep only the verdicts and decoded values.
    // ------------------------------------------------------------------
    let det_sources: Vec<usize> = active.iter().copied().filter(|&v| v != src).collect();
    let mut det_instances: Vec<BsbInstance> = Vec::with_capacity(w * det_sources.len());
    let mut values: Vec<Option<Vec<u8>>> = Vec::with_capacity(w);
    for (o, own_sym) in own.iter().enumerate() {
        let mut pairs: Vec<(usize, Symbol)> = e_set
            .iter()
            .zip(echo_row(o))
            .filter_map(|(&e, s)| s.map(|s| (e, s)))
            .collect();
        let echo_present = pairs.len();
        if !i_am_echo {
            if let Some(own_sym) = own_sym {
                pairs.push((me, own_sym.clone()));
            }
        }
        let consistent = code.is_consistent(&pairs).expect("positions are valid");
        let mut detected = if me == src {
            false
        } else {
            let missing_own = diag.trusts(me, src) && own_sym.is_none();
            !consistent || echo_present < k || missing_own
        };
        // A generation this processor detected on commits only through
        // its diagnosis, which decides the source's claim instead.
        values.push((me != src && !detected).then(|| {
            code.decode_value(&pairs)
                .unwrap_or_else(|_| vec![cfg.default_byte; code.layout().value_bytes])
        }));
        if me != src {
            hooks.detected_flag(first + o, &mut detected);
        }
        det_instances.extend(det_sources.iter().map(|&v| BsbInstance {
            source: v,
            input: (v == me).then_some(detected),
        }));
    }
    let bsb_det = BsbConfig::with_tags(t, tags.detected, tags.detected_session, participants);
    let span = telemetry.as_ref().map(|t| t.span(me, tags.scope, "vote", ctx.vtime()));
    let det_flags = bsb.run_batch(ctx, &bsb_det, &det_instances, &mut *hooks).await;
    if let Some(span) = span {
        span.finish(ctx.vtime());
    }

    // Generations without a detection commit in order; the first with one
    // runs the diagnosis stage and ends the window.
    let m = det_sources.len();
    let mut decided: Vec<Vec<u8>> = Vec::with_capacity(w);
    for (o, value) in values.into_iter().enumerate() {
        let flags = &det_flags[o * m..(o + 1) * m];
        let my_part = parts.map(|p| p[o].as_slice());
        if flags.iter().any(|&d| d) {
            let held = Held { own: own[o].clone(), echo_rx: echo_row(o), my_part };
            let value =
                diagnose(ctx, cfg, code, diag, tags, first + o, &e_set, held, &det_sources, flags, hooks, bsb)
                    .await;
            decided.push(value);
            return WindowOutcome { decided, diagnosed: true, defaulted: false };
        }
        decided.push(match my_part {
            Some(part) => part.to_vec(),
            None => value.unwrap_or_else(|| vec![cfg.default_byte; code.layout().value_bytes]),
        });
    }
    WindowOutcome { decided, diagnosed: false, defaulted: false }
}

/// What one processor holds of the generation under diagnosis.
struct Held<'a> {
    /// The symbol it received from the source (its own, at the source).
    own: Option<Symbol>,
    /// The symbols it holds from each echo-set member, aligned with `E`.
    echo_rx: Vec<Option<Symbol>>,
    /// The generation data (the source only).
    my_part: Option<&'a [u8]>,
}

/// The diagnosis stage of generation `g`, whose checking stage returned
/// `det_flags` (aligned with `det_sources`); updates `diag` and returns
/// the generation's decided value, the source's (common) claim.
#[allow(clippy::too_many_arguments)] // one call site; mirrors the paper's per-generation state
async fn diagnose(
    ctx: &mut NodeCtx,
    cfg: &BroadcastConfig,
    code: &StripedCode,
    diag: &mut DiagGraph,
    tags: SlotTags,
    g: usize,
    e_set: &[usize],
    held: Held<'_>,
    det_sources: &[usize],
    det_flags: &[bool],
    hooks: &mut dyn BroadcastHooks,
    bsb: &mut dyn BsbDriver,
) -> Vec<u8> {
    let t = cfg.t;
    let src = cfg.source;
    let me = ctx.id();
    let active = diag.active_ids();
    let participants = diag.participants();
    let stripes = code.layout().stripes;
    let sym_wire_bits = stripes * 16;
    let i_am_echo = e_set.contains(&me);
    let Held { own, echo_rx, my_part } = held;
    let telemetry = ctx.metrics().telemetry();
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
            }
        }
    }
    diag.enforce_isolation();

    if let Some(span) = span {
        span.finish(ctx.vtime());
    }

    // Decide on the source's (common) claim.
    let mut value = data_bytes;
    value.truncate(code.layout().value_bytes);
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbols(parts: &[Option<&[u8]>]) -> Vec<Option<Vec<u8>>> {
        parts.iter().map(|p| p.map(<[u8]>::to_vec)).collect()
    }

    #[test]
    fn frames_round_trip_every_offset() {
        let window = symbols(&[Some(&[1, 2]), None, Some(&[]), Some(&[9; 300])]);
        let f = frame(&window);
        for (o, symbol) in window.iter().enumerate() {
            assert_eq!(unframe(&f, o), symbol.as_deref(), "offset {o}");
        }
        assert_eq!(unframe(&f, window.len()), None, "past the window is silence");
    }

    #[test]
    fn malformed_frames_read_as_silence() {
        let f = frame(&symbols(&[Some(&[1, 2, 3]), Some(&[4, 5])]));
        // Truncated anywhere: the cut offset and every later one are silent.
        for cut in 0..f.len() {
            let prefix = &f[..cut];
            assert_eq!(unframe(prefix, 1), None, "cut at {cut}");
            let first = unframe(prefix, 0);
            assert!(first.is_none() || first == Some(&[1, 2, 3][..]), "cut at {cut}");
        }
        // A bad marker, an oversized length and an empty frame.
        assert_eq!(unframe(&[7, 1, 2], 0), None);
        assert_eq!(unframe(&[PRESENT, 0xFF, 0xFF, 0xFF, 0xFF, 1], 0), None);
        assert_eq!(unframe(&[], 0), None);
        // A bad second offset leaves the first readable.
        let mut f = frame(&symbols(&[Some(&[8]), Some(&[9])]));
        f[6] = 0x42;
        assert_eq!(unframe(&f, 0), Some(&[8][..]));
        assert_eq!(unframe(&f, 1), None);
    }
}
