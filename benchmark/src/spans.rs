//! In-memory spans recorded around the calls into each layer, and the
//! arithmetic that turns them into per-layer self time.
//!
//! Spans are recorded only from this package (the hook wrappers in
//! `hooks.rs`); nothing inside `crates/*` knows about them. Each wrapper
//! buffers its own spans and hands them to the shared [`Collector`] once,
//! when it is dropped, so recording never contends across threads.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. Spans of one slot (or one decided value) share
/// `op`; `parent` is the `id` of the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    pub node: usize,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Shared sink of a traced run: a clock, an id source and the merged
/// span list.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Collector {
    pub fn new() -> Arc<Self> {
        Arc::new(Collector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the collector was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id. Relaxed: the counter publishes no other data.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Merges one wrapper's buffer.
    pub fn absorb(&self, buffer: &mut Vec<Span>) {
        if !buffer.is_empty() {
            self.spans.lock().expect("no span is recorded while panicking").append(buffer);
        }
    }

    /// Takes every span recorded so far, ordered by `(node, start, id)`.
    pub fn take(&self) -> Vec<Span> {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().expect("no span is recorded while panicking"));
        spans.sort_by_key(|s| (s.node, s.start_ns, s.id));
        spans
    }
}

/// Wall time attributed to each layer at one node, plus the node's
/// covered wall (first span start to last span end).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeAttribution {
    pub wall_ns: f64,
    pub by_layer: BTreeMap<&'static str, f64>,
}

/// Attributes every instant of one node's wall to exactly one layer.
///
/// A span's self time is its duration minus what its children cover: at
/// each instant the time goes to the *deepest* active span (one with no
/// active child). Where siblings overlap — pipelined slots run on
/// concurrent lanes of one node — the instant is split equally among the
/// deepest spans of the concurrent branches, so the attributed times
/// always sum to the node's wall and the layer shares sum to 1.
pub fn attribute_node(spans: &[&Span]) -> NodeAttribution {
    let mut out = NodeAttribution::default();
    if spans.is_empty() {
        return out;
    }
    let index_of: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // (time, is_start, span index); ends sort before starts at equal
    // times so back-to-back spans never count as overlapping.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns > s.start_ns {
            events.push((s.start_ns, true, i));
            events.push((s.end_ns, false, i));
        }
    }
    events.sort_unstable();
    let mut active: Vec<usize> = Vec::new();
    let mut active_children = vec![0u32; spans.len()];
    let mut is_active = vec![false; spans.len()];
    let mut counted_parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut last = events.first().map_or(0, |e| e.0);
    let first = last;
    for (time, is_start, i) in events {
        let dt = (time - last) as f64;
        if dt > 0.0 && !active.is_empty() {
            let leaves: Vec<usize> =
                active.iter().copied().filter(|&a| active_children[a] == 0).collect();
            let each = dt / leaves.len() as f64;
            for leaf in leaves {
                *out.by_layer.entry(spans[leaf].layer).or_default() += each;
            }
        }
        last = time;
        if is_start {
            active.push(i);
            is_active[i] = true;
            // A child counts against its parent only while both are
            // active; `counted_parent` remembers whether it did, so a
            // span that outlives (or precedes) its parent stays balanced.
            counted_parent[i] =
                spans[i].parent.and_then(|p| index_of.get(&p).copied()).filter(|&p| is_active[p]);
            if let Some(p) = counted_parent[i] {
                active_children[p] += 1;
            }
        } else {
            active.retain(|&a| a != i);
            is_active[i] = false;
            if let Some(p) = counted_parent[i].take() {
                active_children[p] -= 1;
            }
        }
    }
    out.wall_ns = (last - first) as f64;
    // Instants covered by no span at all (none in practice: every node
    // has a root span) are wait time of the scheduling layer.
    let covered: f64 = out.by_layer.values().sum();
    if out.wall_ns > covered {
        *out.by_layer.entry("netsim").or_default() += out.wall_ns - covered;
    }
    out
}

/// Layer shares of wall time averaged over `nodes` (the honest nodes).
pub fn layer_shares(spans: &[Span], nodes: &[usize]) -> BTreeMap<&'static str, f64> {
    let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counted = 0usize;
    for &node in nodes {
        let mine: Vec<&Span> = spans.iter().filter(|s| s.node == node).collect();
        let attribution = attribute_node(&mine);
        if attribution.wall_ns <= 0.0 {
            continue;
        }
        counted += 1;
        for (layer, ns) in attribution.by_layer {
            *shares.entry(layer).or_default() += ns / attribution.wall_ns;
        }
    }
    for share in shares.values_mut() {
        *share /= counted.max(1) as f64;
    }
    shares
}

/// Writes a trace file: one JSON document with a header and the span
/// list (see benchmark/README.md, "Reading a trace file").
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"schema\": \"mvbc.benchmark.trace.v1\", \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"clock\": \"ns since the traced run's collector was created\", \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \"node\": {}, \
             \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
            s.id, s.name, s.layer, s.node, s.op, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name: "t", layer, node: 0, op: 0, start_ns: start, end_ns: end }
    }

    fn attribute(spans: &[Span]) -> NodeAttribution {
        attribute_node(&spans.iter().collect::<Vec<_>>())
    }

    #[test]
    fn nested_children_leave_the_parent_its_self_time() {
        // root 0..100; child 10..60 with grandchild 20..30; child 70..90.
        let spans = [
            span(1, None, "netsim", 0, 100),
            span(2, Some(1), "smr", 10, 60),
            span(3, Some(2), "bsb", 20, 30),
            span(4, Some(1), "smr", 70, 90),
        ];
        let a = attribute(&spans);
        assert_eq!(a.wall_ns, 100.0);
        assert_eq!(a.by_layer["netsim"], 30.0); // 0-10, 60-70, 90-100
        assert_eq!(a.by_layer["smr"], 60.0); // 50 - 10 + 20
        assert_eq!(a.by_layer["bsb"], 10.0);
        assert_eq!(a.by_layer.values().sum::<f64>(), a.wall_ns);
    }

    #[test]
    fn overlapping_siblings_split_the_instant() {
        // Two lanes under one root overlap on 40..60.
        let spans = [
            span(1, None, "netsim", 0, 100),
            span(2, Some(1), "broadcast", 20, 60),
            span(3, Some(1), "bsb", 40, 80),
        ];
        let a = attribute(&spans);
        assert_eq!(a.by_layer["netsim"], 40.0); // 0-20 and 80-100
        assert_eq!(a.by_layer["broadcast"], 30.0); // 20 + 20/2
        assert_eq!(a.by_layer["bsb"], 30.0); // 20/2 + 20
        assert_eq!(a.by_layer.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn back_to_back_spans_do_not_overlap_and_gaps_go_to_netsim() {
        // No root: the gap 50..60 between two top-level spans is wait.
        let spans = [span(1, None, "core", 0, 50), span(2, None, "core", 60, 100)];
        let a = attribute(&spans);
        assert_eq!(a.by_layer["core"], 90.0);
        assert_eq!(a.by_layer["netsim"], 10.0);
        let touching = [span(1, None, "core", 0, 50), span(2, None, "bsb", 50, 100)];
        let a = attribute(&touching);
        assert_eq!((a.by_layer["core"], a.by_layer["bsb"]), (50.0, 50.0));
    }

    #[test]
    fn shares_average_over_the_listed_nodes_and_sum_to_one() {
        let mut spans = vec![span(1, None, "netsim", 0, 100), span(2, Some(1), "smr", 0, 50)];
        let mut other = span(3, None, "netsim", 0, 200);
        other.node = 1;
        spans.push(other);
        let mut byz = span(4, None, "bsb", 0, 10);
        byz.node = 2;
        spans.push(byz);
        let shares = layer_shares(&spans, &[0, 1]);
        assert!((shares["netsim"] - 0.75).abs() < 1e-12);
        assert!((shares["smr"] - 0.25).abs() < 1e-12);
        assert!(!shares.contains_key("bsb"), "node 2 is not honest");
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
