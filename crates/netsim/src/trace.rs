//! Execution traces: a per-delivery record of everything the network
//! carried, for debugging, golden-transcript tests and offline analysis.
//!
//! A [`TraceSink`] handed to
//! [`run_simulation_traced`](crate::run_simulation_traced) records one
//! [`TraceEvent`] per delivered message (round, sender, recipient, tag,
//! logical bits, payload bytes). Because the simulator is a lockstep
//! deterministic round model, the trace of a run is a pure function of
//! the inputs and the adversary strategy — two runs with the same
//! parameters produce byte-identical traces, which
//! [`TraceSink::digest`] turns into a golden value tests can pin.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::{NodeId, VirtualTime};

/// One delivered message, as observed by the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Round in which the message was sent (1-based, matching the
    /// metrics round counter).
    pub round: u64,
    /// Sender (authenticated).
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Protocol tag.
    pub tag: &'static str,
    /// The algorithm's own size accounting for this message.
    pub logical_bits: u64,
    /// Serialized payload size.
    pub payload_bytes: u64,
    /// Virtual delivery time: the round counter under the round-barrier
    /// policy, the arrival tick under the event-driven policy.
    pub vtime: VirtualTime,
}

/// Shared, thread-safe recorder of [`TraceEvent`]s.
///
/// Cloning is cheap and all clones feed one buffer, mirroring the
/// [`MetricsSink`](mvbc_metrics::MetricsSink) convention.
///
/// # Examples
///
/// ```
/// use mvbc_metrics::MetricsSink;
/// use mvbc_netsim::trace::TraceSink;
/// use mvbc_netsim::{run_simulation_traced, NodeCtx, SimConfig};
///
/// let trace = TraceSink::new();
/// let logics = (0..2)
///     .map(|_| {
///         Box::new(move |ctx: &mut NodeCtx| {
///             let peer = 1 - ctx.id();
///             ctx.send(peer, "hello", vec![1u8], 8);
///             let _ = ctx.end_round();
///         }) as Box<dyn FnOnce(&mut NodeCtx) + Send>
///     })
///     .collect();
/// run_simulation_traced(SimConfig::new(2), MetricsSink::new(), Some(trace.clone()), logics);
/// assert_eq!(trace.len(), 2); // one delivery each way
/// assert_eq!(trace.events()[0].tag, "hello");
/// ```
#[derive(Debug, Clone)]
pub struct TraceSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

/// Events a new sink has room for (64 KiB); a run records thousands to
/// hundreds of thousands. Starting above the allocator's small-object
/// caches keeps the buffer in the recording thread's own arena: glibc
/// regrows a buffer in the arena its first chunk came from, a recycled
/// small chunk can come from any thread's arena, and every arena a
/// multi-MiB trace has grown in keeps that memory resident (8 MiB of
/// peak RSS on the benchmark's `log_faulty`, depending on nothing but
/// which threads happened to free what).
const INITIAL_EVENTS: usize = 1024;

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink { events: Arc::new(Mutex::new(Vec::with_capacity(INITIAL_EVENTS))) }
    }
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&self, event: TraceEvent) {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).push(event);
    }

    /// A snapshot of all events recorded so far, in delivery order
    /// (round-major; within a round, sender-submission order).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Number of recorded deliveries.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events of one round only.
    pub fn round_events(&self, round: u64) -> Vec<TraceEvent> {
        self.events().into_iter().filter(|e| e.round == round).collect()
    }

    /// Events carrying a tag with the given prefix (protocol stages use
    /// dotted tag namespaces, so prefixes select stages).
    pub fn events_with_tag_prefix(&self, prefix: &str) -> Vec<TraceEvent> {
        self.events().into_iter().filter(|e| e.tag.starts_with(prefix)).collect()
    }

    /// An order-sensitive FNV-1a digest of the whole trace. Two runs
    /// with identical inputs produce identical digests; golden tests pin
    /// this value to detect any unintended protocol change.
    ///
    /// The digest deliberately excludes [`TraceEvent::vtime`]: it hashes
    /// *what the protocol said* (round, endpoints, tag, sizes), not when
    /// the network delivered it, so golden digests pinned under the
    /// round-barrier policy stay valid and a latency-model change never
    /// masquerades as a protocol change.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for e in self.events() {
            eat(&e.round.to_be_bytes());
            eat(&e.from.to_be_bytes());
            eat(&e.to.to_be_bytes());
            eat(e.tag.as_bytes());
            eat(&[0]);
            eat(&e.logical_bits.to_be_bytes());
            eat(&e.payload_bytes.to_be_bytes());
        }
        h
    }

    /// Renders the trace as CSV
    /// (`round,from,to,tag,logical_bits,payload_bytes,vtime`).
    ///
    /// The virtual-time column is kept last so positional consumers of
    /// the original columns keep working.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("round,from,to,tag,logical_bits,payload_bytes,vtime\n");
        for e in self.events() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                e.round, e.from, e.to, e.tag, e.logical_bits, e.payload_bytes, e.vtime
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(round: u64, from: NodeId, to: NodeId) -> TraceEvent {
        TraceEvent {
            round,
            from,
            to,
            tag: "test.tag",
            logical_bits: 8,
            payload_bytes: 1,
            vtime: round,
        }
    }

    #[test]
    fn records_and_snapshots() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.record(event(1, 0, 1));
        sink.record(event(2, 1, 0));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0].round, 1);
        assert_eq!(sink.round_events(2).len(), 1);
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = TraceSink::new();
        let clone = sink.clone();
        clone.record(event(1, 0, 1));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = TraceSink::new();
        a.record(event(1, 0, 1));
        a.record(event(1, 1, 0));
        let b = TraceSink::new();
        b.record(event(1, 1, 0));
        b.record(event(1, 0, 1));
        assert_ne!(a.digest(), b.digest());
        let c = TraceSink::new();
        c.record(event(1, 0, 1));
        c.record(event(1, 1, 0));
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn tag_prefix_filter() {
        let sink = TraceSink::new();
        sink.record(TraceEvent { tag: "consensus.matching.symbol", ..event(1, 0, 1) });
        sink.record(TraceEvent { tag: "other.tag", ..event(1, 0, 2) });
        assert_eq!(sink.events_with_tag_prefix("consensus.").len(), 1);
    }

    #[test]
    fn csv_render() {
        let sink = TraceSink::new();
        sink.record(event(3, 2, 1));
        let csv = sink.to_csv();
        assert!(csv.starts_with("round,from,to,tag"));
        assert!(csv.contains("3,2,1,test.tag,8,1,3"));
        // The virtual-time column stays last.
        assert!(csv.lines().next().unwrap().ends_with(",vtime"));
    }

    #[test]
    fn digest_excludes_vtime() {
        let a = TraceSink::new();
        a.record(event(1, 0, 1));
        let b = TraceSink::new();
        b.record(TraceEvent { vtime: 999, ..event(1, 0, 1) });
        assert_eq!(a.digest(), b.digest(), "latency shape must not change the digest");
    }
}
