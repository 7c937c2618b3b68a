//! Bench-side wrappers around the public hook traits (`SmrHooks`,
//! `BroadcastHooks`, `ProtocolHooks`, and through them `BsbHooks`).
//!
//! A wrapper forwards every call to the behaviour it wraps (honest or
//! Byzantine) and uses the call itself as a timestamped boundary: the
//! protocol crates call their hooks at fixed points of every generation,
//! so the sequence of calls delimits slot attempts, generations, protocol
//! stages and `Broadcast_Single_Bit` batches without touching `crates/*`.
//!
//! What the hooks cannot see is the *end* of a batch: the last call of a
//! Phase-King batch is a send-side mutation, and nothing is called when
//! its final round returns. A `bsb.batch` span therefore runs to the next
//! boundary (the next batch, stage, generation, or the drop of the hooks
//! object) and includes the local work in between — clique search,
//! consistency check, decode — which the `rscode`/`core` probes size
//! separately.

use std::sync::Arc;

use mvbc_broadcast::BroadcastHooks;
use mvbc_bsb::BsbHooks;
use mvbc_core::{DiagGraph, ProtocolHooks};
use mvbc_netsim::NodeId;
use mvbc_smr::SmrHooks;

use crate::spans::{Collector, Span};

/// A span that has started but not finished.
#[derive(Debug)]
struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
}

/// Span state of one protocol execution (one slot attempt, or one
/// consensus run) at one node: an outer span plus the current
/// generation, stage and BSB batch.
#[derive(Debug)]
struct Tracer {
    collector: Arc<Collector>,
    node: usize,
    op: u64,
    /// Layer of the generation and stage spans: `broadcast` or `core`.
    layer: &'static str,
    gen_name: &'static str,
    /// The stage a generation opens in, and the ones its checking and
    /// diagnosis sessions belong to.
    stages: [&'static str; 3],
    outer: Option<Open>,
    gen: Option<Open>,
    stage: Option<Open>,
    batch: Option<(Open, &'static str)>,
    buffer: Vec<Span>,
}

impl Tracer {
    /// A tracer for the §4 broadcast (whose `outer` span is the slot
    /// attempt) or, with `core`, for Algorithm 1 (which has no enclosing
    /// slot: the node's root span opens with its first generation).
    fn new(collector: &Arc<Collector>, node: usize, op: u64, core: bool) -> Self {
        let (layer, gen_name, stages) = if core {
            ("core", "core.gen", ["core.matching", "core.checking", "core.diagnosis"])
        } else {
            (
                "broadcast",
                "broadcast.gen",
                ["broadcast.disperse", "broadcast.vote", "broadcast.diagnosis"],
            )
        };
        Tracer {
            collector: collector.clone(),
            node,
            op,
            layer,
            gen_name,
            stages,
            outer: None,
            gen: None,
            stage: None,
            batch: None,
            buffer: Vec::new(),
        }
    }

    fn open(&self, parent: Option<u64>, name: &'static str, layer: &'static str, at: u64) -> Open {
        Open { id: self.collector.next_id(), parent, name, layer, start_ns: at }
    }

    fn close(&mut self, open: Option<Open>, at: u64) {
        if let Some(o) = open {
            self.buffer.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                layer: o.layer,
                node: self.node,
                op: self.op,
                start_ns: o.start_ns,
                end_ns: at,
            });
        }
    }

    /// A new generation starts (`crash_before_generation`).
    fn generation(&mut self) {
        let now = self.collector.now_ns();
        self.finish_generation(now);
        if self.outer.is_none() {
            self.outer = Some(self.open(None, "node.run", "netsim", now));
        }
        let parent = self.outer.as_ref().map(|o| o.id);
        let gen = self.open(parent, self.gen_name, self.layer, now);
        self.stage = Some(self.open(Some(gen.id), self.stages[0], self.layer, now));
        self.gen = Some(gen);
    }

    fn finish_generation(&mut self, at: u64) {
        let batch = self.batch.take().map(|(open, _)| open);
        self.close(batch, at);
        let stage = self.stage.take();
        self.close(stage, at);
        let gen = self.gen.take();
        self.close(gen, at);
    }

    /// A protocol-level hook of `stage` fired: close the previous stage
    /// (and its batch) if this is a different one.
    fn stage(&mut self, stage: &'static str) {
        if self.stage.as_ref().is_some_and(|s| s.name == stage) || self.gen.is_none() {
            return;
        }
        let now = self.collector.now_ns();
        let batch = self.batch.take().map(|(open, _)| open);
        self.close(batch, now);
        let previous = self.stage.take();
        self.close(previous, now);
        let parent = self.gen.as_ref().map(|g| g.id);
        self.stage = Some(self.open(parent, stage, self.layer, now));
    }

    /// A `BsbHooks` call of `session` fired. Session names carry the
    /// stage (`….checking.detected`, `….diagnosis.trust`, …).
    fn bsb(&mut self, session: &'static str) {
        if self.batch.as_ref().is_some_and(|(_, s)| std::ptr::eq(*s, session)) {
            return;
        }
        self.stage(self.stage_of(session));
        let now = self.collector.now_ns();
        let batch = self.batch.take().map(|(open, _)| open);
        self.close(batch, now);
        let parent = self.stage.as_ref().map(|s| s.id);
        self.batch = Some((self.open(parent, "bsb.batch", "bsb", now), session));
    }

    fn stage_of(&self, session: &str) -> &'static str {
        if session.contains(".diagnosis.") {
            self.stages[2]
        } else if session.contains(".checking.") {
            self.stages[1]
        } else {
            self.stages[0]
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        let now = self.collector.now_ns();
        self.finish_generation(now);
        let outer = self.outer.take();
        self.close(outer, now);
        self.collector.absorb(&mut self.buffer);
    }
}

/// A hooks object with a [`Tracer`] in front of it.
pub struct Traced<H: ?Sized> {
    tracer: Tracer,
    inner: Box<H>,
}

impl<H: BsbHooks + ?Sized> BsbHooks for Traced<H> {
    fn source_bits(&mut self, session: &'static str, to: NodeId, bits: &mut [bool]) {
        self.tracer.bsb(session);
        self.inner.source_bits(session, to, bits);
    }

    fn king_values(
        &mut self,
        session: &'static str,
        phase: usize,
        to: NodeId,
        values: &mut [bool],
    ) {
        self.tracer.bsb(session);
        self.inner.king_values(session, phase, to, values);
    }

    fn king_proposals(
        &mut self,
        session: &'static str,
        phase: usize,
        to: NodeId,
        proposals: &mut [u8],
    ) {
        self.tracer.bsb(session);
        self.inner.king_proposals(session, phase, to, proposals);
    }

    fn king_bits(&mut self, session: &'static str, phase: usize, to: NodeId, bits: &mut [bool]) {
        self.tracer.bsb(session);
        self.inner.king_bits(session, phase, to, bits);
    }

    fn eig_values(&mut self, session: &'static str, round: usize, to: NodeId, values: &mut [bool]) {
        self.tracer.bsb(session);
        self.inner.eig_values(session, round, to, values);
    }

    fn ds_relay(
        &mut self,
        session: &'static str,
        round: usize,
        instance: usize,
        bit: bool,
    ) -> bool {
        self.tracer.bsb(session);
        self.inner.ds_relay(session, round, instance, bit)
    }
}

impl BroadcastHooks for Traced<dyn BroadcastHooks> {
    fn observe_generation_start(&mut self, g: usize, me: NodeId, diag: &DiagGraph) {
        self.inner.observe_generation_start(g, me, diag);
    }

    fn input_override(&mut self, g: usize, value: &mut Vec<u8>) {
        self.inner.input_override(g, value);
    }

    fn dispersal_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        self.inner.dispersal_symbol(g, to, payload)
    }

    fn echo_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        self.inner.echo_symbol(g, to, payload)
    }

    fn detected_flag(&mut self, g: usize, flag: &mut bool) {
        self.tracer.stage("broadcast.vote");
        self.inner.detected_flag(g, flag);
    }

    fn data_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        self.tracer.stage("broadcast.diagnosis");
        self.inner.data_bits(g, bits);
    }

    fn echo_claim_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        self.tracer.stage("broadcast.diagnosis");
        self.inner.echo_claim_bits(g, bits);
    }

    fn trust_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        self.tracer.stage("broadcast.diagnosis");
        self.inner.trust_bits(g, bits);
    }

    fn crash_before_generation(&mut self, g: usize) -> bool {
        self.tracer.generation();
        self.inner.crash_before_generation(g)
    }
}

impl ProtocolHooks for Traced<dyn ProtocolHooks> {
    fn observe_generation_start(&mut self, g: usize, me: NodeId, diag: &DiagGraph) {
        self.inner.observe_generation_start(g, me, diag);
    }

    fn input_override(&mut self, g: usize, value: &mut Vec<u8>) {
        self.inner.input_override(g, value);
    }

    fn matching_symbol(&mut self, g: usize, to: NodeId, payload: &mut Vec<u8>) -> bool {
        self.inner.matching_symbol(g, to, payload)
    }

    fn m_vector(&mut self, g: usize, m: &mut Vec<bool>) {
        self.inner.m_vector(g, m);
    }

    fn detected_flag(&mut self, g: usize, flag: &mut bool) {
        self.tracer.stage("core.checking");
        self.inner.detected_flag(g, flag);
    }

    fn diagnosis_symbol_bits(&mut self, g: usize, bits: &mut Vec<bool>) {
        self.tracer.stage("core.diagnosis");
        self.inner.diagnosis_symbol_bits(g, bits);
    }

    fn trust_vector(&mut self, g: usize, trust: &mut Vec<bool>) {
        self.tracer.stage("core.diagnosis");
        self.inner.trust_vector(g, trust);
    }

    fn crash_before_generation(&mut self, g: usize) -> bool {
        self.tracer.generation();
        self.inner.crash_before_generation(g)
    }
}

/// Wraps one processor's consensus hooks for decided value `op`. The
/// node's root span runs from its first generation to the drop of the
/// returned object (the end of the node's logic).
pub fn traced_protocol_hooks(
    collector: &Arc<Collector>,
    node: usize,
    op: u64,
    inner: Box<dyn ProtocolHooks>,
) -> Box<dyn ProtocolHooks> {
    Box::new(Traced::<dyn ProtocolHooks> { tracer: Tracer::new(collector, node, op, true), inner })
}

/// Wraps one replica's log behaviour. The replica's root span
/// (`node.run`, layer `netsim`) runs from its first slot attempt to the
/// drop of this object; every slot attempt is an `smr.slot` span from the
/// `slot_hooks` call to the drop of the broadcast hooks it returned.
pub struct TracedReplica {
    collector: Arc<Collector>,
    node: usize,
    inner: Box<dyn SmrHooks>,
    root: Option<Open>,
}

impl TracedReplica {
    pub fn boxed(
        collector: &Arc<Collector>,
        node: usize,
        inner: Box<dyn SmrHooks>,
    ) -> Box<dyn SmrHooks> {
        Box::new(TracedReplica { collector: collector.clone(), node, inner, root: None })
    }
}

impl SmrHooks for TracedReplica {
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        let now = self.collector.now_ns();
        let root_id = self
            .root
            .get_or_insert_with(|| Open {
                id: self.collector.next_id(),
                parent: None,
                name: "node.run",
                layer: "netsim",
                start_ns: now,
            })
            .id;
        let inner = self.inner.slot_hooks(slot, i_am_primary);
        let mut tracer = Tracer::new(&self.collector, self.node, slot, false);
        tracer.outer = Some(tracer.open(Some(root_id), "smr.slot", "smr", now));
        Box::new(Traced::<dyn BroadcastHooks> { tracer, inner })
    }
}

impl Drop for TracedReplica {
    fn drop(&mut self) {
        if let Some(root) = self.root.take() {
            let mut one = vec![Span {
                id: root.id,
                parent: None,
                name: root.name,
                layer: root.layer,
                node: self.node,
                op: 0,
                start_ns: root.start_ns,
                end_ns: self.collector.now_ns(),
            }];
            self.collector.absorb(&mut one);
        }
    }
}
