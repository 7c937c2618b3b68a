//! The diagnosis graph (paper §2, "Diagnosis Graph").
//!
//! An undirected graph on the `n` processors capturing the fault-free
//! processors' collective knowledge about fault locations. Processors
//! *trust* each other iff their vertices are adjacent. The graph starts
//! complete; the diagnosis stage removes edges, and the paper proves
//! (Lemma 4) three invariants that [`DiagGraph`] exposes as queries and
//! that the property tests assert:
//!
//! 1. an edge is removed only if one of its endpoints is faulty,
//! 2. fault-free processors always trust each other, and
//! 3. a vertex that loses more than `t` edges belongs to a faulty
//!    processor (and is then *isolated*: all its edges are removed and
//!    fault-free processors stop communicating with it).
//!
//! Every fault-free processor maintains its own copy; all updates are
//! driven by `Broadcast_Single_Bit` outputs, so the copies stay identical.

use std::fmt;

/// The shared trust bookkeeping of one consensus execution.
///
/// # Examples
///
/// ```
/// use mvbc_core::DiagGraph;
///
/// let mut g = DiagGraph::new(4, 1);
/// assert!(g.trusts(0, 3));
/// g.remove_edge(0, 3);
/// assert!(!g.trusts(0, 3));
/// assert_eq!(g.removed_count(3), 1);
/// // Losing t + 1 = 2 edges identifies the processor as faulty.
/// g.remove_edge(1, 3);
/// g.enforce_isolation();
/// assert!(g.is_isolated(3));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DiagGraph {
    n: usize,
    t: usize,
    /// Row-major adjacency; `edges[i * n + j]` for `i != j`.
    edges: Vec<bool>,
    isolated: Vec<bool>,
}

impl fmt::Debug for DiagGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DiagGraph(n={}, t={})", self.n, self.t)?;
        for i in 0..self.n {
            write!(f, "  {i}: trusts [")?;
            let mut first = true;
            for j in 0..self.n {
                if i != j && self.trusts(i, j) {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{j}")?;
                    first = false;
                }
            }
            write!(f, "]")?;
            if self.isolated[i] {
                write!(f, " ISOLATED")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl DiagGraph {
    /// A complete graph on `n` vertices: everyone initially trusts
    /// everyone.
    pub fn new(n: usize, t: usize) -> Self {
        let mut edges = vec![true; n * n];
        for i in 0..n {
            edges[i * n + i] = false;
        }
        DiagGraph {
            n,
            t,
            edges,
            isolated: vec![false; n],
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether `i` trusts `j`. Every processor trusts itself.
    pub fn trusts(&self, i: usize, j: usize) -> bool {
        if i == j {
            return !self.isolated[i];
        }
        self.edges[i * self.n + j]
    }

    /// Removes the undirected edge `(i, j)` (idempotent; no-op for
    /// `i == j`).
    pub fn remove_edge(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        self.edges[i * self.n + j] = false;
        self.edges[j * self.n + i] = false;
    }

    /// Number of edges at `v` removed since initialisation.
    pub fn removed_count(&self, v: usize) -> usize {
        (self.n - 1) - self.degree(v)
    }

    /// Current degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (0..self.n).filter(|&u| u != v && self.edges[v * self.n + u]).count()
    }

    /// Removes all edges at `v` and marks it as an identified faulty
    /// processor; fault-free processors will no longer communicate with
    /// it.
    pub fn isolate(&mut self, v: usize) {
        for u in 0..self.n {
            self.remove_edge(v, u);
        }
        self.isolated[v] = true;
    }

    /// True when `v` has been identified as faulty and cut off.
    pub fn is_isolated(&self, v: usize) -> bool {
        self.isolated[v]
    }

    /// Whether `t` processors are isolated. Fault-free processors never
    /// are, so then every faulty one is and no diagnosis can follow
    /// (Lemma 4).
    pub(crate) fn all_faulty_isolated(&self) -> bool {
        self.isolated.iter().filter(|&&v| v).count() >= self.t
    }

    /// Applies line 3(g): any vertex that has lost at least `t + 1` edges
    /// must be faulty and is isolated. Returns the vertices newly
    /// isolated.
    pub fn enforce_isolation(&mut self) -> Vec<usize> {
        let mut newly = Vec::new();
        loop {
            let mut changed = false;
            for v in 0..self.n {
                if !self.isolated[v] && self.removed_count(v) > self.t {
                    self.isolate(v);
                    newly.push(v);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        newly.sort_unstable();
        newly
    }

    /// Participation mask: `true` for processors not (yet) identified as
    /// faulty. This is what the `Broadcast_Single_Bit` layer uses to skip
    /// isolated processors.
    pub fn participants(&self) -> Vec<bool> {
        self.isolated.iter().map(|&i| !i).collect()
    }

    /// Ids of non-isolated processors, ascending.
    pub fn active_ids(&self) -> Vec<usize> {
        (0..self.n).filter(|&v| !self.isolated[v]).collect()
    }

    /// Total number of removed edges (counting each undirected edge once),
    /// including edges dropped by isolation.
    pub fn total_removed(&self) -> usize {
        let mut removed = 0;
        for i in 0..self.n {
            for j in i + 1..self.n {
                if !self.edges[i * self.n + j] {
                    removed += 1;
                }
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_complete() {
        let g = DiagGraph::new(5, 1);
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert!(g.trusts(i, j));
                }
            }
            assert_eq!(g.degree(i), 4);
            assert_eq!(g.removed_count(i), 0);
            assert!(!g.is_isolated(i));
        }
        assert_eq!(g.total_removed(), 0);
    }

    #[test]
    fn removal_is_symmetric_and_idempotent() {
        let mut g = DiagGraph::new(4, 1);
        g.remove_edge(1, 2);
        g.remove_edge(2, 1);
        assert!(!g.trusts(1, 2));
        assert!(!g.trusts(2, 1));
        assert_eq!(g.removed_count(1), 1);
        assert_eq!(g.removed_count(2), 1);
        assert_eq!(g.total_removed(), 1);
    }

    #[test]
    fn self_edge_noop() {
        let mut g = DiagGraph::new(4, 1);
        g.remove_edge(2, 2);
        assert_eq!(g.removed_count(2), 0);
        assert!(g.trusts(2, 2));
    }

    #[test]
    fn isolation_cuts_all_edges() {
        let mut g = DiagGraph::new(5, 1);
        g.isolate(3);
        assert!(g.is_isolated(3));
        for u in 0..5 {
            if u != 3 {
                assert!(!g.trusts(u, 3));
                assert!(!g.trusts(3, u));
            }
        }
        assert!(!g.trusts(3, 3), "isolated processors do not self-trust");
        assert_eq!(g.participants(), vec![true, true, true, false, true]);
        assert_eq!(g.active_ids(), vec![0, 1, 2, 4]);
    }

    #[test]
    fn t_plus_one_rule() {
        let mut g = DiagGraph::new(7, 2);
        g.remove_edge(0, 6);
        g.remove_edge(1, 6);
        assert!(g.enforce_isolation().is_empty()); // only t = 2 edges
        g.remove_edge(2, 6);
        assert_eq!(g.enforce_isolation(), vec![6]);
        assert!(g.is_isolated(6));
    }

    #[test]
    fn isolation_cascade() {
        // Isolating v removes edges at its neighbours too, which can push
        // *them* over the t + 1 threshold; enforce_isolation loops until
        // stable. n = 4, t = 1: vertex 3 loses 2 edges (isolated), which
        // costs each other vertex one edge; then removing (0,1) pushes 0
        // and 1 to two removed edges each -> cascade isolates everyone
        // except... all of 0 and 1; vertex 2 then lost edges to 0,1,3.
        let mut g = DiagGraph::new(4, 1);
        g.remove_edge(0, 3);
        g.remove_edge(1, 3);
        let newly = g.enforce_isolation();
        assert_eq!(newly, vec![3]);
        // 0, 1, 2 each lost exactly one edge (to 3): below threshold.
        assert_eq!(g.removed_count(0), 1);
        assert!(!g.is_isolated(0));
        g.remove_edge(0, 1);
        let newly = g.enforce_isolation();
        // 0 and 1 now at 2 removed edges = t + 1: both isolated; that
        // removes their edges to 2, pushing 2 to 3 removed edges: cascade.
        assert_eq!(newly, vec![0, 1, 2]);
    }

    #[test]
    fn honest_majority_never_isolated_under_correct_usage() {
        // Simulate a worst-case adversary that only ever sacrifices edges
        // adjacent to faulty vertices (the Lemma 4 guarantee): honest
        // vertices lose at most t edges and stay connected.
        let n = 10;
        let t = 3;
        let faulty = [7, 8, 9];
        let mut g = DiagGraph::new(n, t);
        for &f in &faulty {
            for honest in 0..n - 3 {
                g.remove_edge(f, honest);
            }
        }
        g.enforce_isolation();
        for honest in 0..n - 3 {
            assert!(!g.is_isolated(honest));
            // All faulty neighbours gone, honest neighbours intact.
            assert_eq!(g.degree(honest), n - 4);
        }
        for &f in &faulty {
            assert!(g.is_isolated(f));
        }
    }

    #[test]
    fn debug_render() {
        let mut g = DiagGraph::new(3, 0);
        g.isolate(1);
        let s = format!("{g:?}");
        assert!(s.contains("ISOLATED"));
        assert!(s.contains("DiagGraph(n=3, t=0)"));
    }
}
