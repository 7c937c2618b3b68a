//! Communication-complexity metering for the `mvbc` workspace.
//!
//! The Liang-Vaidya paper's only evaluation metric is *communication
//! complexity*: the total number of bits transmitted by all processors
//! according to the algorithm specification (Yao's measure). This crate
//! provides the shared [`MetricsSink`] that the network simulator feeds on
//! every send, broken down by sending node and by hierarchical *tag*
//! (e.g. `"consensus.matching.symbol"` or `"consensus.matching.m.bsb.value"`),
//! so experiments can reproduce the per-stage cost terms of the paper's
//! §3.4 analysis.
//!
//! Logical vs physical size: each message records the *logical* bit count
//! the algorithm assigns to it (a 1-bit broadcast counts one bit, a
//! `D/(n-2t)`-bit symbol counts that many bits) alongside the serialized
//! payload size, so accounting matches the paper's measure rather than
//! wire-format overhead.
//!
//! # Examples
//!
//! ```
//! use mvbc_metrics::MetricsSink;
//!
//! let sink = MetricsSink::new();
//! sink.record_send(0, "consensus.matching.symbol", 16, 4);
//! sink.record_send(1, "consensus.matching.m.bsb.value", 1, 1);
//! let snap = sink.snapshot();
//! assert_eq!(snap.total_logical_bits(), 17);
//! assert_eq!(snap.logical_bits_with_prefix("consensus.matching"), 17);
//! assert_eq!(snap.logical_bits_with_prefix("consensus.matching.m"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

pub mod json;
pub mod telemetry;

pub use telemetry::{
    Histogram, LinkStat, Outage, SpanRecord, SpanTimer, Telemetry, TelemetrySnapshot,
};

/// Identifier of a simulated processor (0-based).
pub type NodeId = usize;

/// Interns a tag string, returning a `&'static str` suitable for metric
/// tags. Repeated calls with equal content return the same leaked
/// allocation, so composing hierarchical tags at runtime (e.g.
/// `"consensus.matching.m" + ".bsb.value"`) does not grow memory per call.
///
/// Read-mostly: interning a tag that already exists only takes the
/// shared read lock, so concurrent node threads re-interning known tags
/// never serialize on a write lock.
pub fn intern_tag(tag: &str) -> &'static str {
    static INTERNED: RwLock<Option<std::collections::HashSet<&'static str>>> = RwLock::new(None);
    if let Some(set) = INTERNED.read().as_ref() {
        if let Some(&existing) = set.get(tag) {
            return existing;
        }
    }
    let mut guard = INTERNED.write();
    let set = guard.get_or_insert_with(std::collections::HashSet::new);
    if let Some(&existing) = set.get(tag) {
        // Raced with another interner between the read and write locks.
        return existing;
    }
    let leaked: &'static str = Box::leak(tag.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Counters kept per `(node, tag)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    /// Number of point-to-point messages sent.
    pub messages: u64,
    /// Logical bits per the algorithm's own accounting.
    pub logical_bits: u64,
    /// Serialized payload bytes actually moved by the simulator.
    pub payload_bytes: u64,
}

impl Counter {
    fn absorb(&mut self, other: Counter) {
        self.messages += other.messages;
        self.logical_bits += other.logical_bits;
        self.payload_bytes += other.payload_bytes;
    }
}

/// Lock-free counter cells for one `(node, tag)` pair. Updates use
/// `Relaxed` ordering: the three fields are independent monotone sums,
/// and the reader ([`MetricsSink::snapshot`]) runs at run end, after the
/// node threads joined, where that join already ordered the writes.
#[derive(Debug, Default)]
struct AtomicCounter {
    messages: AtomicU64,
    logical_bits: AtomicU64,
    payload_bytes: AtomicU64,
}

impl AtomicCounter {
    fn add(&self, logical_bits: u64, payload_bytes: u64) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.logical_bits.fetch_add(logical_bits, Ordering::Relaxed);
        self.payload_bytes.fetch_add(payload_bytes, Ordering::Relaxed);
    }

    fn load(&self) -> Counter {
        Counter {
            messages: self.messages.load(Ordering::Relaxed),
            logical_bits: self.logical_bits.load(Ordering::Relaxed),
            payload_bytes: self.payload_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Number of counter shards. Node `i` hits shard `i % SHARD_COUNT`, so
/// for every practical simulation size (`n <= 64`) each node owns its
/// shard exclusively and [`MetricsSink::record_send`] never contends
/// with another node's sends.
pub(crate) const SHARD_COUNT: usize = 64;

/// One shard: the counters of the nodes mapped to it. The inner lock is
/// read-mostly — the steady state (tag already seen) is a shared read
/// lock plus three relaxed `fetch_add`s; only a node's *first* send of a
/// given tag takes the shard's write lock.
#[derive(Debug, Default)]
struct Shard {
    counters: RwLock<HashMap<(NodeId, &'static str), Arc<AtomicCounter>>>,
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Shard>,
    rounds: AtomicU64,
    /// Attached telemetry recorder, if any. `None` (the default) keeps
    /// every instrumentation site a no-op — no histogram or span storage
    /// exists unless a caller opted in via
    /// [`MetricsSink::with_telemetry`].
    telemetry: Option<Telemetry>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            rounds: AtomicU64::new(0),
            telemetry: None,
        }
    }
}

/// Thread-safe sink collecting per-send counters.
///
/// Cheap to clone (it is an `Arc` handle); the simulator and all node
/// threads share one sink per run. Counters are sharded by sending node
/// and merged only at [`MetricsSink::snapshot`] time, so the per-send
/// hot path ([`NodeCtx::send`](../mvbc_netsim/struct.NodeCtx.html)) is
/// contention-free across nodes — no global mutex.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    inner: Arc<Inner>,
}

impl MetricsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sink with a [`Telemetry`] recorder attached, so
    /// instrumentation sites (phase spans, latency histograms, link
    /// accounting) record instead of no-opping. The recorder travels
    /// with every clone of the sink — the simulator and all node threads
    /// see the same one via [`MetricsSink::telemetry`].
    pub fn with_telemetry() -> Self {
        MetricsSink {
            inner: Arc::new(Inner {
                telemetry: Some(Telemetry::new()),
                ..Inner::default()
            }),
        }
    }

    /// The attached telemetry recorder, if any (a cheap `Arc` handle).
    /// Instrumentation sites gate on this: `None` means record nothing.
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.inner.telemetry.clone()
    }

    /// Records one sent message. Contention-free across sending nodes.
    pub fn record_send(
        &self,
        from: NodeId,
        tag: &'static str,
        logical_bits: u64,
        payload_bytes: u64,
    ) {
        let shard = &self.inner.shards[from % SHARD_COUNT];
        {
            let counters = shard.counters.read();
            if let Some(counter) = counters.get(&(from, tag)) {
                counter.add(logical_bits, payload_bytes);
                return;
            }
        }
        let counter = {
            let mut counters = shard.counters.write();
            counters.entry((from, tag)).or_default().clone()
        };
        counter.add(logical_bits, payload_bytes);
    }

    /// Records the completion of one synchronous communication round.
    pub fn record_round(&self) {
        self.inner.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes an immutable snapshot of all counters, merging the per-node
    /// shards. Its cost grows with the number of `(node, tag)` counters
    /// the run has created, so it is meant for the end of a run, not for
    /// per-slot bookkeeping (a replicated log reads each slot's own
    /// rounds and bits from its node context instead). A snapshot raced
    /// with in-flight sends sees each counter at some recent value but no
    /// torn individual counter.
    pub fn snapshot(&self) -> Snapshot {
        let mut by_node_tag: BTreeMap<(NodeId, String), Counter> = BTreeMap::new();
        for shard in &self.inner.shards {
            let counters = shard.counters.read();
            for (&(node, tag), counter) in counters.iter() {
                // Distinct `&'static str`s with equal content merge here.
                by_node_tag
                    .entry((node, tag.to_owned()))
                    .or_default()
                    .absorb(counter.load());
            }
        }
        Snapshot {
            by_node_tag,
            rounds: self.inner.rounds.load(Ordering::Relaxed),
        }
    }

    /// Clears all counters (for reusing a sink across runs).
    pub fn reset(&self) {
        for shard in &self.inner.shards {
            shard.counters.write().clear();
        }
        self.inner.rounds.store(0, Ordering::Relaxed);
    }
}

/// Immutable view of the counters of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    by_node_tag: BTreeMap<(NodeId, String), Counter>,
    rounds: u64,
}

impl Snapshot {
    /// Number of synchronous rounds executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Sum of logical bits over all nodes and tags.
    pub fn total_logical_bits(&self) -> u64 {
        self.by_node_tag.values().map(|c| c.logical_bits).sum()
    }

    /// Sum of messages over all nodes and tags.
    pub fn total_messages(&self) -> u64 {
        self.by_node_tag.values().map(|c| c.messages).sum()
    }

    /// Logical bits sent by one node (all tags).
    pub fn logical_bits_by_node(&self, node: NodeId) -> u64 {
        self.by_node_tag
            .iter()
            .filter(|((n, _), _)| *n == node)
            .map(|(_, c)| c.logical_bits)
            .sum()
    }

    /// Logical bits summed over tags sharing a prefix (hierarchical query).
    ///
    /// A tag matches when it equals the prefix or continues it at a `.`
    /// boundary, so `"a.b"` matches `"a.b"` and `"a.b.c"` but not `"a.bc"`.
    pub fn logical_bits_with_prefix(&self, prefix: &str) -> u64 {
        self.by_node_tag
            .iter()
            .filter(|((_, tag), _)| tag_matches(tag, prefix))
            .map(|(_, c)| c.logical_bits)
            .sum()
    }

    /// Logical bits for a prefix restricted to a set of (e.g. fault-free)
    /// nodes. The paper's complexity measure counts bits sent per the
    /// algorithm specification; Byzantine nodes' extra bits can be excluded
    /// by passing only the honest node ids.
    pub fn logical_bits_with_prefix_by_nodes(&self, prefix: &str, nodes: &[NodeId]) -> u64 {
        self.by_node_tag
            .iter()
            .filter(|((n, tag), _)| nodes.contains(n) && tag_matches(tag, prefix))
            .map(|(_, c)| c.logical_bits)
            .sum()
    }

    /// All distinct tags seen, sorted.
    pub fn tags(&self) -> Vec<String> {
        let mut tags: Vec<String> = self
            .by_node_tag
            .keys()
            .map(|(_, tag)| tag.clone())
            .collect();
        tags.sort();
        tags.dedup();
        tags
    }

    /// Aggregated counter for one node across all tags.
    pub fn counter_for_node(&self, node: NodeId) -> Counter {
        let mut acc = Counter::default();
        for ((n, _), c) in &self.by_node_tag {
            if *n == node {
                acc.absorb(*c);
            }
        }
        acc
    }

    /// Aggregated counter for one tag across all nodes.
    pub fn counter_for_tag(&self, tag: &str) -> Counter {
        let mut acc = Counter::default();
        for ((_, t), c) in &self.by_node_tag {
            if t == tag {
                acc.absorb(*c);
            }
        }
        acc
    }

    /// Renders the per-(node, tag) counters as CSV
    /// (`node,tag,messages,logical_bits,payload_bytes`), sorted by node
    /// then tag — the machine-readable companion of
    /// [`to_markdown`](Snapshot::to_markdown) for offline analysis.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("node,tag,messages,logical_bits,payload_bytes\n");
        // BTreeMap iteration is already (node, tag)-sorted.
        for ((node, tag), c) in &self.by_node_tag {
            out.push_str(&format!(
                "{node},{tag},{},{},{}\n",
                c.messages, c.logical_bits, c.payload_bytes
            ));
        }
        out
    }

    /// Renders a per-tag summary as a markdown table (used by the harness).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| tag | messages | logical bits | payload bytes |\n");
        out.push_str("|---|---:|---:|---:|\n");
        for tag in self.tags() {
            let c = self.counter_for_tag(&tag);
            out.push_str(&format!(
                "| {tag} | {} | {} | {} |\n",
                c.messages, c.logical_bits, c.payload_bytes
            ));
        }
        out.push_str(&format!(
            "| **total** | {} | {} | — |\n",
            self.total_messages(),
            self.total_logical_bits()
        ));
        out
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

fn tag_matches(tag: &str, prefix: &str) -> bool {
    tag == prefix
        || (tag.len() > prefix.len()
            && tag.starts_with(prefix)
            && tag.as_bytes()[prefix.len()] == b'.')
}

#[cfg(test)]
mod tests {
    #[test]
    fn csv_export_sorted_and_complete() {
        let sink = crate::MetricsSink::new();
        sink.record_send(1, "b.tag", 8, 1);
        sink.record_send(0, "a.tag", 16, 2);
        sink.record_send(0, "a.tag", 16, 2);
        let csv = sink.snapshot().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "node,tag,messages,logical_bits,payload_bytes");
        assert_eq!(lines[1], "0,a.tag,2,32,4");
        assert_eq!(lines[2], "1,b.tag,1,8,1");
        assert_eq!(lines.len(), 3);
    }

    use super::*;

    #[test]
    fn empty_snapshot() {
        let s = MetricsSink::new().snapshot();
        assert_eq!(s.total_logical_bits(), 0);
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.rounds(), 0);
        assert!(s.tags().is_empty());
    }

    #[test]
    fn record_and_aggregate() {
        let sink = MetricsSink::new();
        sink.record_send(0, "a.x", 10, 2);
        sink.record_send(0, "a.x", 5, 1);
        sink.record_send(1, "a.y", 3, 1);
        let s = sink.snapshot();
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_logical_bits(), 18);
        assert_eq!(s.logical_bits_by_node(0), 15);
        assert_eq!(s.logical_bits_by_node(1), 3);
        assert_eq!(s.counter_for_tag("a.x").messages, 2);
    }

    #[test]
    fn prefix_queries_respect_dot_boundaries() {
        let sink = MetricsSink::new();
        sink.record_send(0, "match.sym", 4, 1);
        sink.record_send(0, "match.symbols", 8, 1);
        sink.record_send(0, "match", 1, 1);
        let s = sink.snapshot();
        assert_eq!(s.logical_bits_with_prefix("match.sym"), 4);
        assert_eq!(s.logical_bits_with_prefix("match"), 13);
        assert_eq!(s.logical_bits_with_prefix("mat"), 0);
    }

    #[test]
    fn per_node_prefix_filter() {
        let sink = MetricsSink::new();
        sink.record_send(0, "x", 1, 1);
        sink.record_send(1, "x", 2, 1);
        sink.record_send(2, "x", 4, 1);
        let s = sink.snapshot();
        assert_eq!(s.logical_bits_with_prefix_by_nodes("x", &[0, 2]), 5);
        assert_eq!(s.logical_bits_with_prefix_by_nodes("x", &[]), 0);
    }

    #[test]
    fn rounds_counted() {
        let sink = MetricsSink::new();
        sink.record_round();
        sink.record_round();
        assert_eq!(sink.snapshot().rounds(), 2);
    }

    #[test]
    fn reset_clears_everything() {
        let sink = MetricsSink::new();
        sink.record_send(0, "x", 1, 1);
        sink.record_round();
        sink.reset();
        let s = sink.snapshot();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.rounds(), 0);
    }

    #[test]
    fn clone_shares_state() {
        let sink = MetricsSink::new();
        let clone = sink.clone();
        clone.record_send(3, "y", 7, 2);
        assert_eq!(sink.snapshot().logical_bits_by_node(3), 7);
    }

    #[test]
    fn tags_sorted_dedup() {
        let sink = MetricsSink::new();
        sink.record_send(0, "b", 1, 1);
        sink.record_send(1, "a", 1, 1);
        sink.record_send(2, "b", 1, 1);
        assert_eq!(sink.snapshot().tags(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn markdown_render_contains_rows() {
        let sink = MetricsSink::new();
        sink.record_send(0, "stage.one", 9, 3);
        let md = sink.snapshot().to_markdown();
        assert!(md.contains("stage.one"));
        assert!(md.contains("**total**"));
        assert_eq!(format!("{}", sink.snapshot()), md);
    }

    #[test]
    fn snapshot_clone_eq() {
        let sink = MetricsSink::new();
        sink.record_send(0, "x.y", 12, 4);
        let s = sink.snapshot();
        assert_eq!(s.clone(), s);
        assert_ne!(s, Snapshot::default());
    }

    #[test]
    fn intern_tag_dedups() {
        let a = intern_tag("x.y.z");
        let b = intern_tag(&format!("x.y.{}", 'z'));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "x.y.z");
    }

    #[test]
    fn distinct_statics_with_equal_content_merge() {
        // Two different &'static str allocations spelling the same tag
        // land in one snapshot entry (keys merge by content).
        let sink = MetricsSink::new();
        let a: &'static str = "merge.me";
        let b: &'static str = Box::leak(String::from("merge.me").into_boxed_str());
        assert!(!std::ptr::eq(a, b));
        sink.record_send(0, a, 1, 1);
        sink.record_send(0, b, 2, 1);
        let s = sink.snapshot();
        assert_eq!(s.tags(), vec!["merge.me".to_owned()]);
        assert_eq!(s.counter_for_tag("merge.me").messages, 2);
        assert_eq!(s.total_logical_bits(), 3);
    }

    /// Parses [`Snapshot::to_csv`] output back into `(node, tag) -> Counter`.
    fn parse_csv(csv: &str) -> BTreeMap<(NodeId, String), Counter> {
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("node,tag,messages,logical_bits,payload_bytes"),
            "csv header drifted"
        );
        lines
            .map(|line| {
                let cells: Vec<&str> = line.split(',').collect();
                assert_eq!(cells.len(), 5, "malformed csv row: {line}");
                (
                    (cells[0].parse().unwrap(), cells[1].to_owned()),
                    Counter {
                        messages: cells[2].parse().unwrap(),
                        logical_bits: cells[3].parse().unwrap(),
                        payload_bytes: cells[4].parse().unwrap(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn csv_round_trips_every_counter() {
        let sink = MetricsSink::new();
        sink.record_send(2, "z.last", 1, 9);
        sink.record_send(0, "a.first", 64, 8);
        sink.record_send(0, "a.first", 64, 8);
        sink.record_send(1, "a.first", 32, 4);
        let snap = sink.snapshot();
        let parsed = parse_csv(&snap.to_csv());
        assert_eq!(parsed.len(), 3);
        for ((node, tag), c) in &parsed {
            let direct = snap.counter_for_tag(tag);
            assert!(direct.messages >= c.messages);
            assert_eq!(
                snap.logical_bits_with_prefix_by_nodes(tag, &[*node]),
                c.logical_bits,
                "({node}, {tag}) logical bits lost in csv"
            );
        }
        let total: u64 = parsed.values().map(|c| c.logical_bits).sum();
        assert_eq!(total, snap.total_logical_bits());
    }

    #[test]
    fn csv_merges_interned_tag_aliases() {
        // Two distinct &'static str allocations with equal content must
        // appear as ONE csv row (the snapshot merges by content).
        let sink = MetricsSink::new();
        let a = intern_tag("alias.tag");
        let b: &'static str = Box::leak(String::from("alias.tag").into_boxed_str());
        assert!(!std::ptr::eq(a, b));
        sink.record_send(0, a, 5, 1);
        sink.record_send(0, b, 7, 2);
        let parsed = parse_csv(&sink.snapshot().to_csv());
        assert_eq!(parsed.len(), 1);
        let c = &parsed[&(0, "alias.tag".to_owned())];
        assert_eq!((c.messages, c.logical_bits, c.payload_bytes), (2, 12, 3));
    }

    #[test]
    fn markdown_rows_match_counter_queries() {
        let sink = MetricsSink::new();
        sink.record_send(0, "m.one", 8, 2);
        sink.record_send(1, "m.one", 8, 2);
        sink.record_send(1, "m.two", 4, 1);
        let snap = sink.snapshot();
        let md = snap.to_markdown();
        let rows: Vec<&str> = md.lines().collect();
        assert_eq!(rows[0], "| tag | messages | logical bits | payload bytes |");
        assert_eq!(rows[1], "|---|---:|---:|---:|");
        // One row per distinct tag, each matching counter_for_tag.
        for tag in snap.tags() {
            let c = snap.counter_for_tag(&tag);
            let want = format!("| {tag} | {} | {} | {} |", c.messages, c.logical_bits, c.payload_bytes);
            assert!(md.contains(&want), "missing markdown row {want:?}");
        }
        let total_row = format!(
            "| **total** | {} | {} | — |",
            snap.total_messages(),
            snap.total_logical_bits()
        );
        assert_eq!(rows.last(), Some(&total_row.as_str()));
    }

    #[test]
    fn plain_sink_has_no_telemetry() {
        assert!(MetricsSink::new().telemetry().is_none());
        assert!(MetricsSink::default().telemetry().is_none());
    }

    #[test]
    fn telemetry_travels_with_clones() {
        let sink = MetricsSink::with_telemetry();
        let clone = sink.clone();
        clone.telemetry().unwrap().record_value(0, "lat", 42);
        let snap = sink.telemetry().unwrap().snapshot();
        assert_eq!(snap.histogram_for_tag("lat").count(), 1);
        assert_eq!(snap.histogram_for_tag("lat").max(), 42);
    }

    #[test]
    fn concurrent_recording() {
        let sink = MetricsSink::new();
        std::thread::scope(|scope| {
            for node in 0..8 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        sink.record_send(node, "t", 1, 1);
                    }
                });
            }
        });
        assert_eq!(sink.snapshot().total_logical_bits(), 800);
    }
}
