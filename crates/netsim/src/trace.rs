//! Execution traces: a per-delivery record of everything the network
//! carried, for debugging, golden-transcript tests and offline analysis.
//!
//! A [`TraceSink`] handed to [`run_tasks`](crate::run_tasks) records one
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
/// use mvbc_netsim::{node_task, run_tasks, NodeCtx, SimConfig};
///
/// let trace = TraceSink::new();
/// let tasks = (0..2)
///     .map(|_| {
///         node_task(async |ctx: &mut NodeCtx| {
///             let peer = 1 - ctx.id();
///             ctx.send(peer, "hello", vec![1u8], 8);
///             let _ = ctx.next_round().await;
///         })
///     })
///     .collect();
/// run_tasks(SimConfig::new(2), MetricsSink::new(), Some(trace.clone()), tasks);
/// assert_eq!(trace.len(), 2); // one delivery each way
/// assert_eq!(trace.events()[0].tag, "hello");
/// ```
#[derive(Debug, Clone)]
pub struct TraceSink {
    inner: Arc<Mutex<Recorded>>,
}

/// The events recorded so far and the digest folded over them.
#[derive(Debug)]
struct Recorded {
    /// `None` for a [digest-only](TraceSink::digest_only) sink.
    events: Option<Vec<TraceEvent>>,
    /// FNV-1a state after the last event (see [`TraceSink::digest`]).
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

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
        TraceSink {
            inner: Arc::new(Mutex::new(Recorded {
                events: Some(Vec::with_capacity(INITIAL_EVENTS)),
                digest: FNV_OFFSET,
            })),
        }
    }
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that folds every delivery into [`TraceSink::digest`], as
    /// [`TraceSink::new`]'s does, but keeps no event: its
    /// [`events`](TraceSink::events) stay empty. For callers that read
    /// only the digest, where a long run's events would cost memory for
    /// nothing.
    pub fn digest_only() -> Self {
        TraceSink {
            inner: Arc::new(Mutex::new(Recorded { events: None, digest: FNV_OFFSET })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub(crate) fn record(&self, event: TraceEvent) {
        let mut rec = self.lock();
        let mut h = rec.digest;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&event.round.to_be_bytes());
        eat(&event.from.to_be_bytes());
        eat(&event.to.to_be_bytes());
        eat(event.tag.as_bytes());
        eat(&[0]);
        eat(&event.logical_bits.to_be_bytes());
        eat(&event.payload_bytes.to_be_bytes());
        if let Some(events) = &mut rec.events {
            events.push(event);
        }
        rec.digest = h;
    }

    /// A snapshot of all events recorded so far, in delivery order
    /// (round-major; within a round, sender-submission order).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.clone().unwrap_or_default()
    }

    /// Number of recorded deliveries (always 0 for a digest-only sink).
    pub fn len(&self) -> usize {
        self.lock().events.as_ref().map_or(0, Vec::len)
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
    ///
    /// Each event is folded in as it is recorded, so this reads one word
    /// and copies no event.
    pub fn digest(&self) -> u64 {
        self.lock().digest
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
    fn digest_only_sink_folds_the_same_digest_and_keeps_no_event() {
        let full = TraceSink::new();
        let lean = TraceSink::digest_only();
        for e in [event(1, 0, 1), event(1, 1, 0), event(2, 0, 1)] {
            full.record(e.clone());
            lean.record(e);
        }
        assert_eq!(lean.digest(), full.digest());
        assert!(lean.is_empty() && lean.events().is_empty());
        assert_eq!(full.len(), 3);
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
