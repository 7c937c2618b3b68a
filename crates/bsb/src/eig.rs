//! Batched EIG (exponential information gathering) binary consensus.
//!
//! The classic deterministic Byzantine agreement algorithm of
//! Lamport-Shostak-Pease (1982), in the iterative tree formulation:
//! `t + 1` rounds of all-to-all relaying over a tree of "who said who
//! said ..." values, resolved bottom-up by recursive majority. Tolerates
//! `t < n/3` Byzantine processors and is error-free, like Phase-King, but
//! with a different cost profile:
//!
//! - **rounds**: `t + 1` (vs `3(t + 1)` for Phase-King) — the fewest any
//!   deterministic algorithm can take in the worst case;
//! - **bits**: `Θ(n^{t+2})` per instance (vs `Θ(n²·t)`) — exponential in
//!   `t`, the price of the round optimality.
//!
//! Within this workspace EIG serves two purposes: it is an alternative
//! [`BsbDriver`](crate::BsbDriver) substrate for the paper's
//! `Broadcast_Single_Bit` (the paper treats the 1-bit primitive as a
//! black box of cost `B`, so swapping substrates directly exhibits how
//! `B` enters Eq. (1)), and it is an independently-derived oracle against
//! which the Phase-King implementation is cross-checked.
//!
//! # The EIG tree
//!
//! Tree nodes are labelled by sequences of *distinct* processor ids;
//! level `r` holds the `n·(n-1)···(n-r+1)` labels of length `r`. The root
//! `ε` stores this processor's input. In round `r` every processor
//! relays the values of all level-`(r-1)` labels that do not contain its
//! own id; a value received from `j` for label `α` is stored at `α·j`
//! ("`j` said that `α`'s value is ..."). After round `t + 1` each label is
//! resolved bottom-up: leaves resolve to their stored value, inner labels
//! to the strict majority of their children (default `false`), and the
//! resolved root is the decision.

use mvbc_netsim::bits::{pack_bits, unpack_bits};
use mvbc_netsim::{NodeCtx, NodeId};

use crate::{BsbConfig, BsbHooks};

/// The EIG tree shape for `n` processors and `t` faults: label sets for
/// levels `0..=t+1` plus the child-index arithmetic shared by every
/// processor.
///
/// Level `r` labels are enumerated parent-major: the children of the
/// level-`r` label at index `p` are `α·j` for every `j ∉ α` in increasing
/// order of `j`, stored contiguously from `p * (n - r)`. This gives all
/// processors an identical numbering without transmitting labels.
#[derive(Debug, Clone)]
pub struct EigTree {
    n: usize,
    t: usize,
    /// `labels[r]` lists the level-`r` labels in enumeration order.
    labels: Vec<Vec<Vec<NodeId>>>,
}

impl EigTree {
    /// Builds the tree shape for `n` processors tolerating `t` faults.
    ///
    /// # Panics
    ///
    /// Panics when `t + 1 > n` (labels repeat ids) — callers enforce the
    /// stronger `t < n/3` before constructing the tree.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(t < n, "EIG tree depth t + 1 = {} exceeds n = {n}", t + 1);
        let mut labels: Vec<Vec<Vec<NodeId>>> = vec![vec![Vec::new()]];
        for r in 1..=t + 1 {
            let mut level = Vec::with_capacity(labels[r - 1].len() * (n - r + 1));
            for parent in &labels[r - 1] {
                for j in 0..n {
                    if !parent.contains(&j) {
                        let mut child = parent.clone();
                        child.push(j);
                        level.push(child);
                    }
                }
            }
            labels.push(level);
        }
        EigTree { n, t, labels }
    }

    /// Number of labels at level `r`.
    pub fn level_len(&self, r: usize) -> usize {
        self.labels[r].len()
    }

    /// The labels of level `r`, in the shared enumeration order.
    pub fn level(&self, r: usize) -> &[Vec<NodeId>] {
        &self.labels[r]
    }

    /// Index (within level `r + 1`) of the child `α·j` of the level-`r`
    /// label at index `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `j` occurs in `α` (no such child exists).
    pub fn child_index(&self, r: usize, parent: usize, j: NodeId) -> usize {
        let label = &self.labels[r][parent];
        let rank = (0..j).filter(|i| !label.contains(i)).count();
        assert!(!label.contains(&j), "label {label:?} already contains {j}");
        parent * (self.n - r) + rank
    }

    /// Indices of the level-`r` labels that do **not** contain `id` —
    /// exactly the values processor `id` relays in round `r + 1`.
    pub fn relay_indices(&self, r: usize, id: NodeId) -> Vec<usize> {
        (0..self.labels[r].len())
            .filter(|&idx| !self.labels[r][idx].contains(&id))
            .collect()
    }

    /// Total stored values across all levels (per batch instance).
    pub fn total_nodes(&self) -> usize {
        self.labels.iter().map(Vec::len).sum()
    }

    /// Tree depth `t + 1`.
    pub fn depth(&self) -> usize {
        self.t + 1
    }
}

/// Runs batched EIG binary consensus.
///
/// Drop-in alternative to [`run_king_batch`](crate::run_king_batch): all
/// participants must call it in the same round with equal `config` and
/// equal batch size; `initial` holds this node's input per instance.
/// Returns the decided bit per instance — identical at every fault-free
/// participant, and equal to the common input when the fault-free
/// participants start unanimous.
///
/// Non-participants (isolated processors) return a locally-computed
/// vector without sending or receiving.
///
/// # Panics
///
/// Panics when `t >= n/3` or the participants mask length differs from
/// `n`.
pub async fn run_eig_batch(
    ctx: &mut NodeCtx,
    config: &BsbConfig,
    initial: Vec<bool>,
    hooks: &mut dyn BsbHooks,
) -> Vec<bool> {
    let n = ctx.n();
    config.assert_valid(n);
    let me = ctx.id();
    let t = config.t;
    let count = initial.len();
    let participating = config.participants[me];
    let tag = config.tags.eig;

    let tree = EigTree::new(n, t);
    // tree_vals[r][label_idx * count + inst] = stored bit. Missing
    // information (silent or malformed senders) keeps the default false.
    let mut tree_vals: Vec<Vec<bool>> = (0..=t + 1)
        .map(|r| vec![false; tree.level_len(r) * count])
        .collect();
    tree_vals[0][..count].copy_from_slice(&initial);

    for round in 1..=t + 1 {
        let level = round - 1;
        let my_relay = tree.relay_indices(level, me);

        // Relay the previous level to every participant.
        if participating && count > 0 && !my_relay.is_empty() {
            let base: Vec<bool> = my_relay
                .iter()
                .flat_map(|&idx| {
                    tree_vals[level][idx * count..(idx + 1) * count].iter().copied()
                })
                .collect();
            for to in 0..n {
                if to == me || !config.participants[to] {
                    continue;
                }
                let mut bits = base.clone();
                hooks.eig_values(config.session, round, to, &mut bits);
                ctx.send(to, tag, pack_bits(&bits), bits.len() as u64);
            }
        }
        let mut inbox = ctx.next_round().await;

        // My own relayed values populate my α·me nodes directly.
        for &idx in &my_relay {
            let child = tree.child_index(level, idx, me);
            for inst in 0..count {
                tree_vals[level + 1][child * count + inst] = tree_vals[level][idx * count + inst];
            }
        }

        // Peers' relays populate α·j.
        for from in 0..n {
            if from == me || !config.participants[from] || count == 0 {
                continue;
            }
            let relay = tree.relay_indices(level, from);
            if relay.is_empty() {
                continue;
            }
            let Some(bits) = inbox
                .take(from, tag)
                .and_then(|payload| unpack_bits(&payload, relay.len() * count))
            else {
                continue; // silence / malformed: children stay false
            };
            for (pos, &idx) in relay.iter().enumerate() {
                let child = tree.child_index(level, idx, from);
                for inst in 0..count {
                    tree_vals[level + 1][child * count + inst] = bits[pos * count + inst];
                }
            }
        }
    }

    resolve_root(&tree, &tree_vals, count)
}

/// Bottom-up majority resolution; returns the resolved root per instance.
fn resolve_root(tree: &EigTree, tree_vals: &[Vec<bool>], count: usize) -> Vec<bool> {
    let n = tree.n;
    let t = tree.t;
    // Leaves resolve to their stored values.
    let mut resolved = tree_vals[t + 1].clone();
    for r in (0..=t).rev() {
        let kids = n - r; // children per level-r label
        let mut level_resolved = vec![false; tree.level_len(r) * count];
        for p in 0..tree.level_len(r) {
            for inst in 0..count {
                let mut trues = 0usize;
                for c in 0..kids {
                    if resolved[(p * kids + c) * count + inst] {
                        trues += 1;
                    }
                }
                // Strict majority of children; ties and no-majority
                // default to false at every processor alike.
                level_resolved[p * count + inst] = 2 * trues > kids;
            }
        }
        resolved = level_resolved;
    }
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoopBsbHooks;
    use mvbc_metrics::MetricsSink;
    use mvbc_netsim::{node_task, run_tasks, NodeTask, SimConfig};

    #[test]
    fn tree_shape_matches_falling_factorial() {
        let tree = EigTree::new(7, 2);
        assert_eq!(tree.level_len(0), 1);
        assert_eq!(tree.level_len(1), 7);
        assert_eq!(tree.level_len(2), 42);
        assert_eq!(tree.level_len(3), 210);
        assert_eq!(tree.total_nodes(), 260);
        assert_eq!(tree.depth(), 3);
    }

    #[test]
    fn tree_labels_are_distinct_ids() {
        let tree = EigTree::new(5, 2);
        for r in 0..=3 {
            for label in tree.level(r) {
                assert_eq!(label.len(), r);
                let mut sorted = label.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), r, "repeated id in {label:?}");
            }
        }
    }

    #[test]
    fn child_index_agrees_with_enumeration() {
        let tree = EigTree::new(5, 2);
        for r in 0..=2 {
            for (p, label) in tree.level(r).iter().enumerate() {
                for j in 0..5 {
                    if label.contains(&j) {
                        continue;
                    }
                    let idx = tree.child_index(r, p, j);
                    let mut expect = label.clone();
                    expect.push(j);
                    assert_eq!(tree.level(r + 1)[idx], expect);
                }
            }
        }
    }

    #[test]
    fn relay_indices_exclude_own_id() {
        let tree = EigTree::new(4, 1);
        let relay = tree.relay_indices(1, 2);
        for idx in relay {
            assert!(!tree.level(1)[idx].contains(&2));
        }
        // Level 1 has 4 labels, exactly one contains id 2.
        assert_eq!(tree.relay_indices(1, 2).len(), 3);
    }

    fn consensus_run(n: usize, t: usize, inputs: Vec<Vec<bool>>) -> Vec<Vec<bool>> {
        let tasks: Vec<NodeTask<Vec<bool>>> = inputs
            .into_iter()
            .map(|init| {
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(t, "eig", vec![true; ctx.n()]);
                    run_eig_batch(ctx, &cfg, init, &mut NoopBsbHooks).await
                })
            })
            .collect();
        run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs
    }

    #[test]
    fn validity_unanimous_inputs() {
        for bit in [false, true] {
            let outs = consensus_run(4, 1, vec![vec![bit]; 4]);
            assert_eq!(outs, vec![vec![bit]; 4]);
        }
    }

    #[test]
    fn agreement_all_splits_n4() {
        for ones in 0..=4usize {
            let inputs: Vec<Vec<bool>> = (0..4).map(|i| vec![i < ones]).collect();
            let outs = consensus_run(4, 1, inputs);
            let first = outs[0][0];
            assert!(outs.iter().all(|o| o[0] == first), "ones={ones}");
            if ones == 4 {
                assert!(first);
            }
            if ones == 0 {
                assert!(!first);
            }
        }
    }

    #[test]
    fn agreement_all_splits_n7_t2() {
        for ones in 0..=7usize {
            let inputs: Vec<Vec<bool>> = (0..7).map(|i| vec![i < ones]).collect();
            let outs = consensus_run(7, 2, inputs);
            let first = outs[0][0];
            assert!(outs.iter().all(|o| o[0] == first), "ones={ones}");
        }
    }

    #[test]
    fn batch_instances_do_not_interfere() {
        let inputs: Vec<Vec<bool>> = (0..4).map(|i| vec![true, false, i % 2 == 0]).collect();
        let outs = consensus_run(4, 1, inputs);
        for o in &outs {
            assert!(o[0]);
            assert!(!o[1]);
            assert_eq!(o[2], outs[0][2]);
        }
    }

    #[test]
    fn round_count_is_t_plus_one() {
        let n = 4;
        let metrics = MetricsSink::new();
        let tasks: Vec<NodeTask<Vec<bool>>> = (0..n)
            .map(|_| {
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(1, "eig-rounds", vec![true; 4]);
                    run_eig_batch(ctx, &cfg, vec![true], &mut NoopBsbHooks).await
                })
            })
            .collect();
        let out = run_tasks(SimConfig::new(n), metrics, None, tasks);
        assert_eq!(out.rounds, 2); // t + 1
    }

    #[test]
    fn silent_faulty_node_does_not_break_agreement() {
        let n = 4;
        let tasks: Vec<NodeTask<Option<bool>>> = (0..n)
            .map(|id| {
                node_task(async move |ctx: &mut NodeCtx| {
                    if id == 3 {
                        return None; // crash from the start
                    }
                    let cfg = BsbConfig::new(1, "eig-silent", vec![true; 4]);
                    Some(run_eig_batch(ctx, &cfg, vec![id == 0], &mut NoopBsbHooks).await[0])
                })
            })
            .collect();
        let outs = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn equivocating_adversary_cannot_split_honest() {
        // The faulty node sends different relays to different peers in
        // every round; honest processors must still agree.
        struct Equivocate;
        impl BsbHooks for Equivocate {
            fn eig_values(&mut self, _: &'static str, _round: usize, to: NodeId, values: &mut [bool]) {
                for (i, v) in values.iter_mut().enumerate() {
                    *v = (to + i).is_multiple_of(2);
                }
            }
        }
        for faulty in 0..4usize {
            let n = 4;
            let tasks: Vec<NodeTask<bool>> = (0..n)
                .map(|id| {
                    node_task(async move |ctx: &mut NodeCtx| {
                        let cfg = BsbConfig::new(1, "eig-equiv", vec![true; 4]);
                        let init = vec![id % 2 == 0];
                        if id == faulty {
                            run_eig_batch(ctx, &cfg, init, &mut Equivocate).await[0]
                        } else {
                            run_eig_batch(ctx, &cfg, init, &mut NoopBsbHooks).await[0]
                        }
                    })
                })
                .collect();
            let outs = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
            let honest: Vec<bool> = (0..n).filter(|&i| i != faulty).map(|i| outs[i]).collect();
            assert!(
                honest.windows(2).all(|w| w[0] == w[1]),
                "faulty={faulty}: honest diverged {honest:?}"
            );
        }
    }

    #[test]
    fn equivocation_preserves_validity_of_unanimous_honest() {
        // All honest processors start with `true`; the adversary relays
        // garbage. Validity: honest must decide `true`.
        struct AllFalse;
        impl BsbHooks for AllFalse {
            fn eig_values(&mut self, _: &'static str, _: usize, _: NodeId, values: &mut [bool]) {
                values.iter_mut().for_each(|v| *v = false);
            }
        }
        for faulty in 0..4usize {
            let n = 4;
            let tasks: Vec<NodeTask<bool>> = (0..n)
                .map(|id| {
                    node_task(async move |ctx: &mut NodeCtx| {
                        let cfg = BsbConfig::new(1, "eig-valid", vec![true; 4]);
                        if id == faulty {
                            run_eig_batch(ctx, &cfg, vec![false], &mut AllFalse).await[0]
                        } else {
                            run_eig_batch(ctx, &cfg, vec![true], &mut NoopBsbHooks).await[0]
                        }
                    })
                })
                .collect();
            let outs = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
            for (id, out) in outs.iter().enumerate() {
                if id != faulty {
                    assert!(*out, "faulty={faulty}: node {id} decided false");
                }
            }
        }
    }

    #[test]
    fn isolated_node_excluded() {
        let n = 4;
        let tasks: Vec<NodeTask<Option<bool>>> = (0..n)
            .map(|id| {
                node_task(async move |ctx: &mut NodeCtx| {
                    if id == 3 {
                        return None;
                    }
                    let mut participants = vec![true; 4];
                    participants[3] = false;
                    let cfg = BsbConfig::new(1, "eig-iso", participants);
                    Some(run_eig_batch(ctx, &cfg, vec![true], &mut NoopBsbHooks).await[0])
                })
            })
            .collect();
        let outs = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
        assert_eq!(&outs[..3], &[Some(true), Some(true), Some(true)]);
    }

    #[test]
    fn empty_batch_still_synchronises_rounds() {
        let outs = consensus_run(4, 1, vec![Vec::new(); 4]);
        assert_eq!(outs, vec![Vec::<bool>::new(); 4]);
    }

    #[test]
    fn bits_grow_exponentially_with_t() {
        // n = 3t + 1: measured bits for t = 1 vs t = 2 should grow by
        // far more than the n² ratio (EIG is Θ(n^{t+2})).
        let mut costs = Vec::new();
        for (n, t) in [(4usize, 1usize), (7, 2)] {
            let metrics = MetricsSink::new();
            let tasks: Vec<NodeTask<Vec<bool>>> = (0..n)
                .map(|_| {
                    node_task(async move |ctx: &mut NodeCtx| {
                        let cfg = BsbConfig::new(t, "eig-cost", vec![true; ctx.n()]);
                        run_eig_batch(ctx, &cfg, vec![true], &mut NoopBsbHooks).await
                    })
                })
                .collect();
            let _ = run_tasks(SimConfig::new(n), metrics.clone(), None, tasks);
            costs.push(metrics.snapshot().total_logical_bits());
        }
        let ratio = costs[1] as f64 / costs[0] as f64;
        assert!(ratio > 10.0, "expected superquadratic growth, got {ratio}");
    }

    #[test]
    #[should_panic(expected = "t < n/3")]
    fn rejects_too_many_faults() {
        let tasks: Vec<NodeTask<()>> = (0..3)
            .map(|_| {
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(1, "eig-bad", vec![true; 3]);
                    let _ = run_eig_batch(ctx, &cfg, vec![true], &mut NoopBsbHooks).await;
                })
            })
            .collect();
        let _ = run_tasks(SimConfig::new(3), MetricsSink::new(), None, tasks);
    }
}
