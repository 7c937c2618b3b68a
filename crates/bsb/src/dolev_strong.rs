//! Authenticated 1-bit Byzantine broadcast (Dolev-Strong, 1983).
//!
//! §4 of Liang-Vaidya notes that the `t < n/3` requirement of their
//! consensus algorithm comes *only* from the error-free
//! `Broadcast_Single_Bit`; substituting "any probabilistically correct
//! 1-bit broadcast algorithm that tolerates the desired number of
//! failures (ones with authentication from [Pfitzmann-Waidner 96,
//! Dolev-Strong 83] for example)" trades error-freedom for higher
//! resilience. This module provides that substitute: the classic
//! Dolev-Strong protocol, tolerating **any** number `t < n` of Byzantine
//! processors in `t + 1` rounds using signatures.
//!
//! Since the paper's headline algorithm makes *no cryptographic
//! assumptions*, real signatures would be out of scope; instead a
//! [`SignatureOracle`] simulates an idealised unforgeable signature
//! scheme (the standard modelling device): signing is only possible
//! through a per-processor [`SignerHandle`], so a Byzantine processor can
//! sign anything *as itself* but can never forge another processor's
//! signature. This preserves exactly the behaviour the protocol relies
//! on, with forgery probability 0 instead of cryptographically
//! negligible.
//!
//! # Protocol
//!
//! - Round 0: the source signs its bit and sends `(bit, {sig_src})` to
//!   everyone.
//! - Round `r`: a processor that *newly* accepted a bit with `r` distinct
//!   valid signatures (the source's first) adds its own signature and
//!   relays.
//! - After round `t`: a processor that accepted exactly one bit outputs
//!   it; otherwise (silent or provably equivocating source) it outputs
//!   the default `false`.
//!
//! Consistency: if an honest processor accepts bit `b` at round `r <= t`
//! it relays `b` with `r + 1` signatures, so every honest processor
//! accepts `b` by round `r + 1 <= t`... and a bit accepted first at round
//! `t + 1`-equivalent carries `t + 1` signatures, one of which is honest
//! and already relayed it earlier. Hence all honest processors accept the
//! same *set* of bits and decide identically.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::BsbConfig;
use mvbc_netsim::{NodeCtx, NodeId};

/// The oracle's ledger of (signer, message) pairs. Ordered so no
/// iteration-order nondeterminism can ever leak out of the oracle
/// (membership is all the protocol uses, but the determinism rules keep
/// unordered containers out of protocol state altogether).
type SignedSet = BTreeSet<(NodeId, Vec<u8>)>;

/// An idealised signature scheme: unforgeable by construction.
///
/// One oracle is shared by all processors of a simulation; each processor
/// holds a [`SignerHandle`] bound to its identity.
#[derive(Debug, Default, Clone)]
pub struct SignatureOracle {
    signed: Arc<Mutex<SignedSet>>,
}

impl SignatureOracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues the signing handle for processor `id`. Call once per
    /// processor and move the handle into its node logic; whoever holds
    /// the handle can sign as `id` (a Byzantine processor misuses *its
    /// own* handle only).
    pub fn handle(&self, id: NodeId) -> SignerHandle {
        SignerHandle {
            id,
            oracle: self.clone(),
        }
    }

    /// Verifies that `signer` really signed `message`.
    pub fn verify(&self, signer: NodeId, message: &[u8]) -> bool {
        self.signed.lock().contains(&(signer, message.to_vec()))
    }
}

/// The capability to sign messages as one particular processor.
#[derive(Debug, Clone)]
pub struct SignerHandle {
    id: NodeId,
    oracle: SignatureOracle,
}

impl SignerHandle {
    /// The identity this handle signs as.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Signs `message`; the resulting (signer, message) pair verifies
    /// against the oracle forever after.
    pub fn sign(&self, message: &[u8]) {
        self.oracle.signed.lock().insert((self.id, message.to_vec()));
    }
}

/// The message a signature covers: the broadcast bit in this session.
/// (Session is included so concurrent broadcasts cannot cross-replay.)
fn signed_payload(session: &str, source: NodeId, bit: bool) -> Vec<u8> {
    let mut m = session.as_bytes().to_vec();
    m.push(0);
    m.extend_from_slice(&source.to_be_bytes());
    m.push(bit as u8);
    m
}

/// Serialises `(bit, signer-set)` for the wire.
fn encode_chain(bit: bool, signers: &[NodeId]) -> Vec<u8> {
    let mut out = vec![bit as u8, signers.len() as u8];
    for &s in signers {
        out.extend_from_slice(&(s as u16).to_be_bytes());
    }
    out
}

fn decode_chain(payload: &[u8]) -> Option<(bool, Vec<NodeId>)> {
    if payload.len() < 2 {
        return None;
    }
    let bit = match payload[0] {
        0 => false,
        1 => true,
        _ => return None,
    };
    let count = payload[1] as usize;
    if payload.len() != 2 + 2 * count {
        return None;
    }
    let signers = payload[2..]
        .chunks_exact(2)
        .map(|c| u16::from_be_bytes([c[0], c[1]]) as NodeId)
        .collect();
    Some((bit, signers))
}

/// Runs one Dolev-Strong broadcast.
///
/// Unlike [`run_bsb_batch`](crate::run_bsb_batch) this tolerates any
/// `config.t < n` (at the cost of the signature assumption). All
/// participants must call it in the same round; `input` is `Some` exactly
/// at `source`. Returns the broadcast bit (default `false` when the
/// source is silent or equivocates).
///
/// # Panics
///
/// Panics when `config.t >= n` or the participants mask is malformed.
pub async fn run_dolev_strong(
    ctx: &mut NodeCtx,
    config: &BsbConfig,
    source: NodeId,
    input: Option<bool>,
    signer: &SignerHandle,
    oracle: &SignatureOracle,
) -> bool {
    let n = ctx.n();
    let t = config.t;
    assert!(t < n, "Dolev-Strong needs t < n");
    assert_eq!(config.participants.len(), n, "participants mask length");
    debug_assert_eq!(input.is_some(), ctx.id() == source);
    let me = ctx.id();
    let tag = config.tags.ds;

    // Rounds are counted relative to this sub-protocol's start so the
    // broadcast composes correctly after earlier protocol phases.
    let start_round = ctx.round();
    // accepted[bit] = Some(signer set we accepted it with)
    let mut accepted: [Option<Vec<NodeId>>; 2] = [None, None];
    // Bits that we newly accepted and must relay this round.
    let mut relay: Vec<bool> = Vec::new();

    if me == source {
        let bit = input.unwrap_or(false);
        signer.sign(&signed_payload(config.session, source, bit));
        accepted[bit as usize] = Some(vec![source]);
        relay.push(bit);
    }

    // Rounds 0..=t: relay newly-accepted bits with our signature added.
    for _round in 0..=t {
        for &bit in &relay {
            let mut signers = accepted[bit as usize].clone().expect("accepted before relay");
            if !signers.contains(&me) {
                signer.sign(&signed_payload(config.session, source, bit));
                signers.push(me);
                accepted[bit as usize] = Some(signers.clone());
            }
            let payload = encode_chain(bit, &signers);
            // 1 logical bit of value + the signature chain (counted at 16
            // bits per signature, a modelling constant).
            let logical = 1 + 16 * signers.len() as u64;
            for to in 0..n {
                if to != me && config.participants[to] {
                    ctx.send(to, tag, payload.clone(), logical);
                }
            }
        }
        relay.clear();
        let inbox = ctx.next_round().await;

        for from in 0..n {
            if from == me || !config.participants[from] {
                continue;
            }
            for msg in inbox.from_sender(from) {
                if msg.tag != tag {
                    continue;
                }
                let Some((bit, signers)) = decode_chain(&msg.payload) else {
                    continue;
                };
                if accepted[bit as usize].is_some() {
                    continue; // already accepted
                }
                // Chain validity: enough distinct signatures, source
                // first, every signature verifies. A chain arriving at
                // the end of (relative) round r must carry >= r + 1
                // signatures.
                let round = ctx.round() - start_round; // completed DS rounds
                let distinct: BTreeSet<NodeId> = signers.iter().copied().collect();
                let valid = signers.first() == Some(&source)
                    && distinct.len() == signers.len()
                    && signers.len() as u64 >= round.min(t as u64 + 1)
                    && signers.iter().all(|&s| {
                        oracle.verify(s, &signed_payload(config.session, source, bit))
                    });
                if valid {
                    accepted[bit as usize] = Some(signers);
                    relay.push(bit);
                }
            }
        }
    }

    // Decide: exactly one accepted bit wins; zero or two -> default.
    match (&accepted[0], &accepted[1]) {
        (Some(_), None) => false,
        (None, Some(_)) => true,
        _ => false,
    }
}

/// The message a signature covers in the *batched* protocol: session,
/// instance index, source and bit — instances must not cross-replay.
fn signed_payload_batch(session: &str, instance: usize, source: NodeId, bit: bool) -> Vec<u8> {
    let mut m = session.as_bytes().to_vec();
    m.push(1);
    m.extend_from_slice(&(instance as u32).to_be_bytes());
    m.extend_from_slice(&source.to_be_bytes());
    m.push(bit as u8);
    m
}

/// Serialises a round's relays: `count`, then per entry
/// `(instance: u16, bit: u8, signer-count: u8, signers: u16 each)`.
fn encode_batch(entries: &[(usize, bool, Vec<NodeId>)]) -> Vec<u8> {
    let mut out = (entries.len() as u16).to_be_bytes().to_vec();
    for (instance, bit, signers) in entries {
        out.extend_from_slice(&(*instance as u16).to_be_bytes());
        out.push(*bit as u8);
        out.push(signers.len() as u8);
        for &s in signers {
            out.extend_from_slice(&(s as u16).to_be_bytes());
        }
    }
    out
}

fn decode_batch(payload: &[u8]) -> Option<Vec<(usize, bool, Vec<NodeId>)>> {
    let mut rest = payload;
    let count = u16::from_be_bytes([*rest.first()?, *rest.get(1)?]) as usize;
    rest = &rest[2..];
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        if rest.len() < 4 {
            return None;
        }
        let instance = u16::from_be_bytes([rest[0], rest[1]]) as usize;
        let bit = match rest[2] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let sig_count = rest[3] as usize;
        rest = &rest[4..];
        if rest.len() < 2 * sig_count {
            return None;
        }
        let signers = rest[..2 * sig_count]
            .chunks_exact(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]) as NodeId)
            .collect();
        rest = &rest[2 * sig_count..];
        entries.push((instance, bit, signers));
    }
    rest.is_empty().then_some(entries)
}

/// Runs a batch of Dolev-Strong broadcasts concurrently, one per
/// instance, in `t + 1` synchronous rounds total.
///
/// The [`BsbDriver`](crate::BsbDriver) substitution entry point (§4 of
/// the paper): same calling convention as
/// [`run_bsb_batch`](crate::run_bsb_batch), but tolerating any
/// `config.t < n` under the idealised-signature assumption. The
/// adversary surface is [`BsbHooks::ds_relay`] (withholding) plus
/// arbitrary misuse of the node's own [`SignerHandle`]; forging other
/// processors' signatures is impossible by construction.
///
/// # Panics
///
/// Panics when `config.t >= n`, the participants mask is malformed, or
/// an instance is sourced at a non-participant.
pub async fn run_ds_batch(
    ctx: &mut NodeCtx,
    config: &BsbConfig,
    instances: &[crate::BsbInstance],
    signer: &SignerHandle,
    oracle: &SignatureOracle,
    hooks: &mut dyn crate::BsbHooks,
) -> Vec<bool> {
    let n = ctx.n();
    let t = config.t;
    assert!(t < n, "Dolev-Strong needs t < n");
    assert_eq!(config.participants.len(), n, "participants mask length");
    let me = ctx.id();
    let participating = config.participants[me];
    let tag = config.tags.dsb;
    let start_round = ctx.round();

    // accepted[inst][bit] = Some(signers we accepted it with)
    let mut accepted: Vec<[Option<Vec<NodeId>>; 2]> = vec![[None, None]; instances.len()];
    let mut relay: Vec<(usize, bool)> = Vec::new();

    for (i, inst) in instances.iter().enumerate() {
        assert!(
            config.participants[inst.source],
            "instance sourced at isolated processor {}",
            inst.source
        );
        debug_assert_eq!(inst.input.is_some(), inst.source == me);
        if inst.source == me && participating {
            let bit = inst.input.unwrap_or(false);
            signer.sign(&signed_payload_batch(config.session, i, me, bit));
            accepted[i][bit as usize] = Some(vec![me]);
            relay.push((i, bit));
        }
    }

    for round in 0..=t {
        let mut entries: Vec<(usize, bool, Vec<NodeId>)> = Vec::new();
        if participating {
            for &(i, bit) in &relay {
                if !hooks.ds_relay(config.session, round, i, bit) {
                    continue;
                }
                let mut signers = accepted[i][bit as usize].clone().expect("accepted before relay");
                if !signers.contains(&me) {
                    signer.sign(&signed_payload_batch(config.session, i, instances[i].source, bit));
                    signers.push(me);
                    accepted[i][bit as usize] = Some(signers.clone());
                }
                entries.push((i, bit, signers));
            }
        }
        relay.clear();
        if !entries.is_empty() {
            let payload = encode_batch(&entries);
            let logical: u64 = entries.iter().map(|(_, _, s)| 1 + 16 * s.len() as u64).sum();
            for to in 0..n {
                if to != me && config.participants[to] {
                    ctx.send(to, tag, payload.clone(), logical);
                }
            }
        }
        let inbox = ctx.next_round().await;

        for from in 0..n {
            if from == me || !config.participants[from] {
                continue;
            }
            for msg in inbox.from_sender(from) {
                if msg.tag != tag {
                    continue;
                }
                let Some(decoded) = decode_batch(&msg.payload) else {
                    continue;
                };
                for (i, bit, signers) in decoded {
                    if i >= instances.len() || accepted[i][bit as usize].is_some() {
                        continue;
                    }
                    let source = instances[i].source;
                    let completed = ctx.round() - start_round;
                    let distinct: BTreeSet<NodeId> = signers.iter().copied().collect();
                    let valid = signers.first() == Some(&source)
                        && distinct.len() == signers.len()
                        && signers.len() as u64 >= completed.min(t as u64 + 1)
                        && signers.iter().all(|&s| {
                            oracle.verify(
                                s,
                                &signed_payload_batch(config.session, i, source, bit),
                            )
                        });
                    if valid {
                        accepted[i][bit as usize] = Some(signers);
                        relay.push((i, bit));
                    }
                }
            }
        }
    }

    accepted
        .iter()
        .map(|acc| match (&acc[0], &acc[1]) {
            (Some(_), None) => false,
            (None, Some(_)) => true,
            _ => false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvbc_netsim::block_on;
    use crate::BsbConfig;
    use mvbc_metrics::MetricsSink;
    use mvbc_netsim::{run_simulation, NodeLogic, SimConfig};

    fn honest_run(n: usize, t: usize, source: NodeId, bit: bool) -> Vec<bool> {
        let oracle = SignatureOracle::new();
        let logics: Vec<NodeLogic<bool>> = (0..n)
            .map(|id| {
                let oracle = oracle.clone();
                Box::new(move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(t, "ds", vec![true; ctx.n()]);
                    let handle = oracle.handle(id);
                    block_on(run_dolev_strong(ctx, &cfg, source, (id == source).then_some(bit), &handle, &oracle))
                }) as NodeLogic<bool>
            })
            .collect();
        run_simulation(SimConfig::new(n), MetricsSink::new(), logics).outputs
    }

    #[test]
    fn honest_source_validity() {
        for bit in [false, true] {
            for (n, t) in [(4usize, 1usize), (4, 2), (4, 3), (7, 4)] {
                let outs = honest_run(n, t, 0, bit);
                assert_eq!(outs, vec![bit; n], "n={n} t={t} bit={bit}");
            }
        }
    }

    #[test]
    fn tolerates_t_at_least_n_over_3() {
        // The whole point of the substitution: t = 2 of n = 4 (t >= n/3).
        let outs = honest_run(4, 2, 3, true);
        assert_eq!(outs, vec![true; 4]);
    }

    #[test]
    fn silent_source_defaults() {
        let n = 4;
        let oracle = SignatureOracle::new();
        let logics: Vec<NodeLogic<Option<bool>>> = (0..n)
            .map(|id| {
                let oracle = oracle.clone();
                Box::new(move |ctx: &mut NodeCtx| {
                    if id == 0 {
                        return None; // crash
                    }
                    let cfg = BsbConfig::new(2, "ds-silent", vec![true; ctx.n()]);
                    let handle = oracle.handle(id);
                    Some(block_on(run_dolev_strong(ctx, &cfg, 0, None, &handle, &oracle)))
                }) as NodeLogic<Option<bool>>
            })
            .collect();
        let outs = run_simulation(SimConfig::new(n), MetricsSink::new(), logics).outputs;
        assert_eq!(outs[1], Some(false));
        assert_eq!(outs[1], outs[2]);
        assert_eq!(outs[2], outs[3]);
    }

    #[test]
    fn equivocating_source_detected_consistently() {
        // Byzantine source signs BOTH bits and sends 0 to half, 1 to the
        // other half: honest relays spread both chains, everyone accepts
        // both bits, and all honest processors default identically.
        let n = 4;
        let t = 2;
        let oracle = SignatureOracle::new();
        let logics: Vec<NodeLogic<Option<bool>>> = (0..n)
            .map(|id| {
                let oracle = oracle.clone();
                Box::new(move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(t, "ds-equiv", vec![true; ctx.n()]);
                    let handle = oracle.handle(id);
                    if id == 0 {
                        // Byzantine source: hand-rolled equivocation.
                        for bit in [false, true] {
                            handle.sign(&signed_payload("ds-equiv", 0, bit));
                        }
                        for to in 1..ctx.n() {
                            let bit = to % 2 == 0;
                            ctx.send(to, "ds-equiv.ds", encode_chain(bit, &[0]), 17);
                        }
                        for _ in 0..=t {
                            ctx.end_round();
                        }
                        return None;
                    }
                    Some(block_on(run_dolev_strong(ctx, &cfg, 0, None, &handle, &oracle)))
                }) as NodeLogic<Option<bool>>
            })
            .collect();
        let outs = run_simulation(SimConfig::new(n), MetricsSink::new(), logics).outputs;
        let honest: Vec<bool> = (1..n).map(|i| outs[i].unwrap()).collect();
        assert!(honest.windows(2).all(|w| w[0] == w[1]), "honest diverged: {honest:?}");
    }

    #[test]
    fn forged_chains_are_rejected() {
        // A Byzantine relay claims the source signed `true` although the
        // source (honest, silent this session) never did: the oracle
        // rejects, nobody accepts, everyone defaults to false.
        let n = 4;
        let t = 2;
        let oracle = SignatureOracle::new();
        let logics: Vec<NodeLogic<Option<bool>>> = (0..n)
            .map(|id| {
                let oracle = oracle.clone();
                Box::new(move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(t, "ds-forge", vec![true; ctx.n()]);
                    let handle = oracle.handle(id);
                    if id == 3 {
                        // Forger: fabricates a chain [source=0, me] for
                        // `true`. It can sign as itself but NOT as 0.
                        handle.sign(&signed_payload("ds-forge", 0, true));
                        for to in 0..3 {
                            ctx.send(to, "ds-forge.ds", encode_chain(true, &[0, 3]), 33);
                        }
                        for _ in 0..=t {
                            ctx.end_round();
                        }
                        return None;
                    }
                    if id == 0 {
                        // Honest source broadcasting false.
                        return Some(block_on(run_dolev_strong(
                            ctx, &cfg, 0, Some(false), &handle, &oracle,
                        )));
                    }
                    Some(block_on(run_dolev_strong(ctx, &cfg, 0, None, &handle, &oracle)))
                }) as NodeLogic<Option<bool>>
            })
            .collect();
        let outs = run_simulation(SimConfig::new(n), MetricsSink::new(), logics).outputs;
        for (id, out) in outs.iter().enumerate().take(3) {
            assert_eq!(*out, Some(false), "node {id} accepted a forged chain");
        }
    }

    #[test]
    fn oracle_unforgeability() {
        let oracle = SignatureOracle::new();
        let h1 = oracle.handle(1);
        h1.sign(b"hello");
        assert!(oracle.verify(1, b"hello"));
        assert!(!oracle.verify(2, b"hello"), "nobody else signed this");
        assert!(!oracle.verify(1, b"other"));
        assert_eq!(h1.id(), 1);
    }

    #[test]
    fn chain_codec_roundtrip_and_rejection() {
        let payload = encode_chain(true, &[0, 3, 7]);
        assert_eq!(decode_chain(&payload), Some((true, vec![0, 3, 7])));
        assert_eq!(decode_chain(&[]), None);
        assert_eq!(decode_chain(&[2, 0]), None); // bad bit
        assert_eq!(decode_chain(&[1, 2, 0]), None); // truncated
    }
}
