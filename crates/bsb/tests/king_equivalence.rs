//! The packed Phase-King path (one pack per round, shared payloads,
//! tallies straight from the packed bytes) against the per-recipient
//! construction it replaced.
//!
//! `reference` is the seed's source round and Phase-King, copied here
//! verbatim apart from imports and using only the public `NodeCtx` and
//! `bits` API: it clones and packs per recipient and unpacks every
//! received payload into a `Vec`. Both must produce the same outputs at
//! every node, the same hook calls (order, arguments and the honest copy
//! handed over, which exposes every node's per-phase values and
//! proposals), the same logical bit total and the same trace digest —
//! under per-recipient equivocation through the hooks, and against a
//! raw peer that writes malformed bytes straight onto the wire.

use mvbc_bsb::{run_bsb_batch, BsbConfig, BsbHooks, BsbInstance, NoopBsbHooks, SessionTags};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::{run_simulation_traced, NodeCtx, NodeId, NodeLogic, SimConfig};
use proptest::prelude::*;

/// The seed's `source_round_initial` + `run_king_batch`.
mod reference {
    use mvbc_bsb::{BsbConfig, BsbHooks, BsbInstance};
    use mvbc_netsim::bits::{pack_bits, pack_crumbs, unpack_bits};
    use mvbc_netsim::{Inbox, NodeCtx, NodeId};

    const NO_PROPOSAL: u8 = 0;
    const PROPOSE_FALSE: u8 = 1;
    const PROPOSE_TRUE: u8 = 2;

    /// The seed's `mvbc_netsim::bits::unpack_crumbs`, which the packed
    /// tally made dead code.
    fn unpack_crumbs(bytes: &[u8], count: usize) -> Option<Vec<u8>> {
        if bytes.len() != count.div_ceil(4) {
            return None;
        }
        Some((0..count).map(|i| (bytes[i / 4] >> (2 * (i % 4))) & 0b11).collect())
    }

    pub fn run_bsb_batch(
        ctx: &mut NodeCtx,
        config: &BsbConfig,
        instances: &[BsbInstance],
        hooks: &mut dyn BsbHooks,
    ) -> Vec<bool> {
        assert_eq!(config.participants.len(), ctx.n(), "participants mask length");
        assert!(3 * config.t < ctx.n(), "Phase-King requires t < n/3");
        let initial = source_round_initial(ctx, config, instances, hooks);
        run_king_batch(ctx, config, initial, hooks)
    }

    fn source_round_initial(
        ctx: &mut NodeCtx,
        config: &BsbConfig,
        instances: &[BsbInstance],
        hooks: &mut dyn BsbHooks,
    ) -> Vec<bool> {
        let me = ctx.id();
        let n = ctx.n();
        let participating = config.participants[me];
        let src_tag = config.tags.src;

        let my_sourced: Vec<usize> =
            (0..instances.len()).filter(|&i| instances[i].source == me).collect();
        if participating && !my_sourced.is_empty() {
            let base: Vec<bool> =
                my_sourced.iter().map(|&i| instances[i].input.unwrap_or(false)).collect();
            for to in 0..n {
                if to == me || !config.participants[to] {
                    continue;
                }
                let mut bits = base.clone();
                hooks.source_bits(config.session, to, &mut bits);
                ctx.send(to, src_tag, pack_bits(&bits), bits.len() as u64);
            }
        }
        let mut inbox = ctx.end_round();

        let mut per_source_count: Vec<usize> = vec![0; n];
        let mut initial = vec![false; instances.len()];
        let mut received: Vec<Option<Vec<bool>>> = vec![None; n];
        for inst in instances {
            per_source_count[inst.source] += 1;
        }
        for source in 0..n {
            if source == me || per_source_count[source] == 0 || !config.participants[source] {
                continue;
            }
            received[source] = inbox
                .take(source, src_tag)
                .and_then(|payload| unpack_bits(&payload, per_source_count[source]));
        }
        let mut seen_per_source: Vec<usize> = vec![0; n];
        for (i, inst) in instances.iter().enumerate() {
            let idx = seen_per_source[inst.source];
            seen_per_source[inst.source] += 1;
            initial[i] = if inst.source == me {
                inst.input.unwrap_or(false)
            } else {
                received[inst.source].as_ref().map(|bits| bits[idx]).unwrap_or(false)
            };
        }
        initial
    }

    fn run_king_batch(
        ctx: &mut NodeCtx,
        config: &BsbConfig,
        initial: Vec<bool>,
        hooks: &mut dyn BsbHooks,
    ) -> Vec<bool> {
        let n = ctx.n();
        let me = ctx.id();
        let t = config.t;
        let count = initial.len();
        let participating = config.participants[me];

        let val_tag = config.tags.value;
        let prop_tag = config.tags.propose;
        let king_tag = config.tags.king;

        let mut values = initial;

        for phase in 0..=t {
            let king: NodeId = phase;

            if participating && count > 0 {
                for to in 0..n {
                    if to == me || !config.participants[to] {
                        continue;
                    }
                    let mut bits = values.clone();
                    hooks.king_values(config.session, phase, to, &mut bits);
                    ctx.send(to, val_tag, pack_bits(&bits), count as u64);
                }
            }
            let mut inbox = ctx.end_round();
            let peer_values = gather_bits(&mut inbox, config, me, val_tag, count);

            let mut count_true = vec![0usize; count];
            let mut count_false = vec![0usize; count];
            for (i, &v) in values.iter().enumerate() {
                if v {
                    count_true[i] += 1;
                } else {
                    count_false[i] += 1;
                }
            }
            for bits in peer_values.iter().flatten() {
                for (i, &v) in bits.iter().enumerate() {
                    if v {
                        count_true[i] += 1;
                    } else {
                        count_false[i] += 1;
                    }
                }
            }

            let my_proposals: Vec<u8> = (0..count)
                .map(|i| {
                    if count_true[i] >= n - t {
                        PROPOSE_TRUE
                    } else if count_false[i] >= n - t {
                        PROPOSE_FALSE
                    } else {
                        NO_PROPOSAL
                    }
                })
                .collect();
            if participating && count > 0 {
                for to in 0..n {
                    if to == me || !config.participants[to] {
                        continue;
                    }
                    let mut crumbs = my_proposals.clone();
                    hooks.king_proposals(config.session, phase, to, &mut crumbs);
                    ctx.send(to, prop_tag, pack_crumbs(&crumbs), 2 * count as u64);
                }
            }
            let mut inbox = ctx.end_round();
            let peer_props = gather_crumbs(&mut inbox, config, me, prop_tag, count);

            let mut props_true = vec![0usize; count];
            let mut props_false = vec![0usize; count];
            for (i, &p) in my_proposals.iter().enumerate() {
                match p {
                    PROPOSE_TRUE => props_true[i] += 1,
                    PROPOSE_FALSE => props_false[i] += 1,
                    _ => {}
                }
            }
            for crumbs in peer_props.iter().flatten() {
                for (i, &p) in crumbs.iter().enumerate() {
                    match p {
                        PROPOSE_TRUE => props_true[i] += 1,
                        PROPOSE_FALSE => props_false[i] += 1,
                        _ => {}
                    }
                }
            }

            let mut confident = vec![false; count];
            for i in 0..count {
                if props_true[i] > t && props_true[i] >= props_false[i] {
                    values[i] = true;
                    confident[i] = props_true[i] >= n - t;
                } else if props_false[i] > t {
                    values[i] = false;
                    confident[i] = props_false[i] >= n - t;
                }
            }

            if participating && me == king && count > 0 {
                for to in 0..n {
                    if to == me || !config.participants[to] {
                        continue;
                    }
                    let mut bits = values.clone();
                    hooks.king_bits(config.session, phase, to, &mut bits);
                    ctx.send(to, king_tag, pack_bits(&bits), count as u64);
                }
            }
            let mut inbox = ctx.end_round();
            let king_bits: Option<Vec<bool>> = if me == king {
                Some(values.clone())
            } else if config.participants[king] {
                inbox.take(king, king_tag).and_then(|payload| unpack_bits(&payload, count))
            } else {
                None
            };
            for i in 0..count {
                if !confident[i] {
                    values[i] = king_bits.as_ref().map(|b| b[i]).unwrap_or(false);
                }
            }
        }

        values
    }

    fn gather_bits(
        inbox: &mut Inbox,
        config: &BsbConfig,
        me: NodeId,
        tag: &'static str,
        count: usize,
    ) -> Vec<Option<Vec<bool>>> {
        let n = config.participants.len();
        (0..n)
            .map(|from| {
                if from == me || !config.participants[from] || count == 0 {
                    return None;
                }
                inbox.take(from, tag).and_then(|payload| unpack_bits(&payload, count))
            })
            .collect()
    }

    fn gather_crumbs(
        inbox: &mut Inbox,
        config: &BsbConfig,
        me: NodeId,
        tag: &'static str,
        count: usize,
    ) -> Vec<Option<Vec<u8>>> {
        let n = config.participants.len();
        (0..n)
            .map(|from| {
                if from == me || !config.participants[from] || count == 0 {
                    return None;
                }
                inbox.take(from, tag).and_then(|payload| {
                    unpack_crumbs(&payload, count).map(|mut crumbs| {
                        for c in &mut crumbs {
                            if *c > PROPOSE_TRUE {
                                *c = NO_PROPOSAL;
                            }
                        }
                        crumbs
                    })
                })
            })
            .collect()
    }
}

/// xorshift64* — the tests' only randomness, seeded per case and node.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A Byzantine node's hooks: per call (so per recipient) it leaves the
/// copy alone, flips a random subset, or overwrites everything, and
/// proposal crumbs may take any 2-bit value, 3 included. Both
/// implementations draw the same stream only if they call the hooks in
/// the same order with the same inputs.
struct SeededHook(Rng);

impl SeededHook {
    fn bits(&mut self, to: NodeId, bits: &mut [bool]) {
        match self.0.below(3) {
            0 => {}
            1 => bits.iter_mut().for_each(|b| *b ^= self.0.next() & 1 == 1),
            _ => bits.iter_mut().for_each(|b| *b = to % 2 == 1),
        }
    }
}

impl BsbHooks for SeededHook {
    fn source_bits(&mut self, _: &'static str, to: NodeId, bits: &mut [bool]) {
        self.bits(to, bits);
    }
    fn king_values(&mut self, _: &'static str, _: usize, to: NodeId, values: &mut [bool]) {
        self.bits(to, values);
    }
    fn king_proposals(&mut self, _: &'static str, _: usize, to: NodeId, proposals: &mut [u8]) {
        match self.0.below(3) {
            0 => {}
            1 => proposals.iter_mut().for_each(|p| *p = (self.0.next() & 3) as u8),
            _ => proposals.fill((to % 4) as u8),
        }
    }
    fn king_bits(&mut self, _: &'static str, _: usize, to: NodeId, bits: &mut [bool]) {
        self.bits(to, bits);
    }
}

/// One hook call: the hook, its phase (0 in the source round), the
/// recipient, and the honest copy the hook was handed.
type Call = (&'static str, usize, NodeId, Vec<u8>);

/// Records every hook call, then lets `inner` mutate the copy.
struct Recording<H> {
    inner: H,
    calls: Vec<Call>,
}

impl<H> Recording<H> {
    fn new(inner: H) -> Self {
        Recording { inner, calls: Vec::new() }
    }

    fn record(&mut self, hook: &'static str, phase: usize, to: NodeId, copy: &[bool]) {
        self.calls.push((hook, phase, to, copy.iter().map(|&b| u8::from(b)).collect()));
    }
}

impl<H: BsbHooks> BsbHooks for Recording<H> {
    fn source_bits(&mut self, s: &'static str, to: NodeId, bits: &mut [bool]) {
        self.record("source_bits", 0, to, bits);
        self.inner.source_bits(s, to, bits);
    }
    fn king_values(&mut self, s: &'static str, phase: usize, to: NodeId, values: &mut [bool]) {
        self.record("king_values", phase, to, values);
        self.inner.king_values(s, phase, to, values);
    }
    fn king_proposals(&mut self, s: &'static str, phase: usize, to: NodeId, props: &mut [u8]) {
        self.calls.push(("king_proposals", phase, to, props.to_vec()));
        self.inner.king_proposals(s, phase, to, props);
    }
    fn king_bits(&mut self, s: &'static str, phase: usize, to: NodeId, bits: &mut [bool]) {
        self.record("king_bits", phase, to, bits);
        self.inner.king_bits(s, phase, to, bits);
    }
}

/// What one node's logic returns: its decisions and its hook calls.
type NodeOut = (Vec<bool>, Vec<Call>);

/// Everything the two implementations must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    outputs: Vec<NodeOut>,
    logical_bits: u64,
    digest: u64,
}

fn observe(n: usize, logics: Vec<NodeLogic<NodeOut>>) -> Observed {
    let metrics = MetricsSink::new();
    let trace = TraceSink::new();
    let out =
        run_simulation_traced(SimConfig::new(n), metrics.clone(), Some(trace.clone()), logics);
    Observed {
        outputs: out.outputs,
        logical_bits: metrics.snapshot().total_logical_bits(),
        digest: trace.digest(),
    }
}

/// Runs one node's batch through the packed path or the reference.
fn run_node(
    packed: bool,
    ctx: &mut NodeCtx,
    cfg: &BsbConfig,
    instances: &[BsbInstance],
    hooks: impl BsbHooks,
) -> NodeOut {
    let mut hooks = Recording::new(hooks);
    let out = if packed {
        run_bsb_batch(ctx, cfg, instances, &mut hooks)
    } else {
        reference::run_bsb_batch(ctx, cfg, instances, &mut hooks)
    };
    (out, hooks.calls)
}

/// One randomized batch: who is Byzantine (and possibly isolated), who
/// sources what, and the seeds of the Byzantine hooks.
#[derive(Debug, Clone)]
struct Case {
    t: usize,
    byzantine: Vec<Option<u64>>,
    participants: Vec<bool>,
    instances: Vec<(NodeId, bool)>,
}

impl Case {
    fn draw(n: usize, count: usize, seed: u64) -> Self {
        let t = (n - 1) / 3;
        let mut rng = Rng::new(seed);
        let mut byzantine = vec![None; n];
        for _ in 0..rng.below(t + 1) {
            byzantine[rng.below(n)] = Some(rng.next());
        }
        let mut participants = vec![true; n];
        if rng.next() & 1 == 1 {
            if let Some(isolated) = byzantine.iter().position(Option::is_some) {
                participants[isolated] = false;
            }
        }
        let sources: Vec<NodeId> = (0..n).filter(|&p| participants[p]).collect();
        let instances =
            (0..count).map(|_| (sources[rng.below(sources.len())], rng.next() & 1 == 1)).collect();
        Case { t, byzantine, participants, instances }
    }

    fn logics(&self, packed: bool) -> Vec<NodeLogic<NodeOut>> {
        (0..self.participants.len())
            .map(|id| {
                let case = self.clone();
                Box::new(move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(case.t, "equiv", case.participants.clone());
                    let instances = instances_at(id, &case.instances);
                    match case.byzantine[id] {
                        Some(seed) => {
                            run_node(packed, ctx, &cfg, &instances, SeededHook(Rng::new(seed)))
                        }
                        None => run_node(packed, ctx, &cfg, &instances, NoopBsbHooks),
                    }
                }) as NodeLogic<NodeOut>
            })
            .collect()
    }
}

/// The batch as node `id` sees it: inputs only at the sources.
fn instances_at(id: NodeId, instances: &[(NodeId, bool)]) -> Vec<BsbInstance> {
    instances
        .iter()
        .map(|&(source, bit)| BsbInstance { source, input: (source == id).then_some(bit) })
        .collect()
}

const NS: [usize; 4] = [4, 7, 10, 16];
const COUNTS: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 200];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Random inputs, random sources, up to `t` equivocating nodes (one
    /// of them possibly isolated): identical outputs, hook calls, bits
    /// and digest.
    #[test]
    fn packed_king_equals_reference(ni in 0usize..4, ci in 0usize..9, seed in any::<u64>()) {
        let (n, count) = (NS[ni], COUNTS[ci]);
        let case = Case::draw(n, count, seed);
        let packed = observe(n, case.logics(true));
        let reference = observe(n, case.logics(false));
        prop_assert_eq!(packed, reference, "n={} count={} case={:?}", n, count, case);
    }
}

/// Every (n, count) pair once, so each size is covered whatever the
/// property draws.
#[test]
fn every_size_equals_reference() {
    for (i, &n) in NS.iter().enumerate() {
        for (j, &count) in COUNTS.iter().enumerate() {
            let case = Case::draw(n, count, (i * COUNTS.len() + j) as u64);
            assert_eq!(observe(n, case.logics(true)), observe(n, case.logics(false)), "{case:?}");
        }
    }
}

/// A peer that skips the protocol and writes bytes straight onto the
/// wire under the session's tags, varying by recipient and round:
/// padding bits of the last byte set, payloads one byte long or short,
/// every crumb 3, and two messages under one tag (valid then garbage,
/// or garbage then valid — only the first counts).
fn raw_peer(ctx: &mut NodeCtx, t: usize, count: usize, sourced: usize) -> NodeOut {
    const ONES: u8 = 0xff; // every bit true, every crumb 3
    let tags = SessionTags::derive("raw");
    let mut rounds = vec![(tags.src, sourced.div_ceil(8))];
    for _ in 0..=t {
        rounds.push((tags.value, count.div_ceil(8)));
        rounds.push((tags.propose, count.div_ceil(4)));
        rounds.push((tags.king, count.div_ceil(8)));
    }
    let me = ctx.id();
    let mut rng = Rng::new(me as u64 + 1);
    for (r, &(tag, len)) in rounds.iter().enumerate() {
        // Last-byte bits past the payload's symbols.
        let used = match len {
            0 => 0,
            _ if tag == tags.propose => 2 * (count - 4 * (len - 1)),
            _ if tag == tags.src => sourced - 8 * (len - 1),
            _ => count - 8 * (len - 1),
        };
        let padding = if used == 0 || used >= 8 { 0 } else { 0xffu8 << used };
        for to in (0..ctx.n()).filter(|&to| to != me) {
            let mut body: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            if let Some(last) = body.last_mut() {
                *last |= padding;
            }
            match (to + r) % 5 {
                0 => ctx.send(to, tag, body, 1),
                1 => ctx.send(to, tag, vec![ONES; len + 1], 1),
                2 => ctx.send(to, tag, vec![ONES; len.saturating_sub(1)], 1),
                3 => {
                    ctx.send(to, tag, body, 1);
                    ctx.send(to, tag, vec![ONES; len], 1);
                }
                _ => {
                    ctx.send(to, tag, vec![0u8; len + 2], 1);
                    ctx.send(to, tag, vec![ONES; len], 1);
                }
            }
        }
        let _ = ctx.end_round();
    }
    (Vec::new(), Vec::new())
}

#[test]
fn raw_byzantine_bytes_read_like_the_reference() {
    for (n, count) in [(4usize, 13usize), (4, 1), (7, 5), (7, 67), (10, 30)] {
        let t = (n - 1) / 3;
        for raw in [0, t] {
            let instances: Vec<(NodeId, bool)> = (0..count).map(|i| (i % n, i % 3 == 0)).collect();
            let sourced = instances.iter().filter(|&&(s, _)| s == raw).count();
            let logics = |packed: bool| -> Vec<NodeLogic<NodeOut>> {
                (0..n)
                    .map(|id| {
                        let instances = instances_at(id, &instances);
                        Box::new(move |ctx: &mut NodeCtx| {
                            if id == raw {
                                return raw_peer(ctx, t, count, sourced);
                            }
                            let cfg = BsbConfig::new(t, "raw", vec![true; n]);
                            run_node(packed, ctx, &cfg, &instances, NoopBsbHooks)
                        }) as NodeLogic<NodeOut>
                    })
                    .collect()
            };
            let packed = observe(n, logics(true));
            assert_eq!(packed, observe(n, logics(false)), "n={n} count={count} raw={raw}");

            // And the honest nodes still agree, with validity for every
            // honest source.
            let honest: Vec<&Vec<bool>> =
                (0..n).filter(|&id| id != raw).map(|id| &packed.outputs[id].0).collect();
            assert!(honest.windows(2).all(|w| w[0] == w[1]), "n={n} count={count} raw={raw}");
            for (i, &(source, bit)) in instances.iter().enumerate() {
                if source != raw {
                    assert_eq!(honest[0][i], bit, "n={n} count={count} raw={raw} instance {i}");
                }
            }
        }
    }
}
