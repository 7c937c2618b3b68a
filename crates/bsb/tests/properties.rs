//! Property-based tests for the BSB substrates: EIG tree structure,
//! substrate agreement under randomized inputs, and Dolev-Strong batch
//! behaviour.

use mvbc_bsb::{
    BsbConfig, BsbDriver, BsbInstance, DolevStrongDriver, EigDriver, EigTree, NoopBsbHooks,
    PhaseKingDriver,
};
use mvbc_metrics::MetricsSink;
use mvbc_netsim::{node_task, run_tasks, NodeCtx, NodeTask, SimConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Every level-r label is reachable as a child of exactly one parent,
    /// and `child_index` is the inverse of label extension.
    #[test]
    fn eig_tree_child_index_is_a_bijection(n in 4usize..9, t in 0usize..3) {
        prop_assume!(3 * t < n);
        let tree = EigTree::new(n, t);
        for r in 0..tree.depth() {
            let mut seen = vec![false; tree.level_len(r + 1)];
            for p in 0..tree.level_len(r) {
                let label = &tree.level(r)[p];
                for j in 0..n {
                    if label.contains(&j) {
                        continue;
                    }
                    let c = tree.child_index(r, p, j);
                    prop_assert!(!seen[c], "child index {c} hit twice");
                    seen[c] = true;
                    let mut want = label.clone();
                    want.push(j);
                    prop_assert_eq!(&tree.level(r + 1)[c], &want);
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "some level-{} label unreachable", r + 1);
        }
    }

    /// The relay sets of all processors cover each level exactly
    /// `n - r` times (each label is relayed by everyone not in it).
    #[test]
    fn eig_tree_relay_sets_partition(n in 4usize..9, t in 0usize..3) {
        prop_assume!(3 * t < n);
        let tree = EigTree::new(n, t);
        for r in 0..=t {
            let mut counts = vec![0usize; tree.level_len(r)];
            for id in 0..n {
                for idx in tree.relay_indices(r, id) {
                    counts[idx] += 1;
                }
            }
            for (idx, &c) in counts.iter().enumerate() {
                prop_assert_eq!(c, n - r, "label {} relayed {} times", idx, c);
            }
        }
    }

    /// All three substrates agree with each other on arbitrary honest
    /// input patterns (fault-free cross-validation: three independently
    /// implemented protocols must compute the same function).
    #[test]
    fn substrates_cross_validate_honest(inputs in proptest::collection::vec(any::<bool>(), 4)) {
        let n = 4;
        let fleets: Vec<Vec<Box<dyn BsbDriver>>> = vec![
            (0..n).map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>).collect(),
            (0..n).map(|_| Box::new(EigDriver) as Box<dyn BsbDriver>).collect(),
            DolevStrongDriver::fleet(n)
                .into_iter()
                .map(|d| Box::new(d) as Box<dyn BsbDriver>)
                .collect(),
        ];
        for (which, fleet) in fleets.into_iter().enumerate() {
            let tasks: Vec<NodeTask<Vec<bool>>> = fleet
                .into_iter()
                .enumerate()
                .map(|(id, mut driver)| {
                    let inputs = inputs.clone();
                    node_task(async move |ctx: &mut NodeCtx| {
                        let cfg = BsbConfig::new(1, "xval", vec![true; ctx.n()]);
                        let insts: Vec<BsbInstance> = (0..ctx.n())
                            .map(|src| BsbInstance {
                                source: src,
                                input: (id == src).then_some(inputs[src]),
                            })
                            .collect();
                        driver.run_batch(ctx, &cfg, &insts, &mut NoopBsbHooks).await
                    })
                })
                .collect();
            let out = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
            for o in &out {
                prop_assert_eq!(o, &out[0], "substrate {} internal disagreement", which);
            }
            // Honest sources: deliver the inputs verbatim (validity).
            prop_assert_eq!(&out[0], &inputs, "substrate {} broke validity", which);
        }
    }

    /// Dolev-Strong batch: arbitrary mixed-source batches deliver
    /// verbatim with honest processors, for any tolerated t.
    #[test]
    fn dolev_strong_batch_validity(
        bits in proptest::collection::vec(any::<bool>(), 1..24),
        t in 1usize..4,
    ) {
        let n = 4;
        let fleet = DolevStrongDriver::fleet(n);
        let expect = bits.clone();
        let tasks: Vec<NodeTask<Vec<bool>>> = fleet
            .into_iter()
            .enumerate()
            .map(|(id, mut driver)| {
                let bits = bits.clone();
                node_task(async move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(t, "ds-prop", vec![true; ctx.n()]);
                    let insts: Vec<BsbInstance> = bits
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| BsbInstance {
                            source: i % ctx.n(),
                            input: (id == i % ctx.n()).then_some(b),
                        })
                        .collect();
                    driver.run_batch(ctx, &cfg, &insts, &mut NoopBsbHooks).await
                })
            })
            .collect();
        let out = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
        for o in &out {
            prop_assert_eq!(o, &expect);
        }
    }
}

/// Deterministic (non-proptest) cross-validation of the Dolev-Strong
/// fleet against Phase-King over all 16 input patterns at n = 4.
#[test]
fn dolev_strong_matches_phase_king_all_patterns() {
    let n = 4;
    for pattern in 0..16u32 {
        let inputs: Vec<bool> = (0..n).map(|i| pattern & (1 << i) != 0).collect();
        let mut all = Vec::new();
        for which in 0..2 {
            let fleet: Vec<Box<dyn BsbDriver>> = if which == 0 {
                (0..n).map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>).collect()
            } else {
                DolevStrongDriver::fleet(n)
                    .into_iter()
                    .map(|d| Box::new(d) as Box<dyn BsbDriver>)
                    .collect()
            };
            let tasks: Vec<NodeTask<Vec<bool>>> = fleet
                .into_iter()
                .enumerate()
                .map(|(id, mut driver)| {
                    let inputs = inputs.clone();
                    node_task(async move |ctx: &mut NodeCtx| {
                        let cfg = BsbConfig::new(1, "xval2", vec![true; ctx.n()]);
                        let insts: Vec<BsbInstance> = (0..ctx.n())
                            .map(|src| BsbInstance {
                                source: src,
                                input: (id == src).then_some(inputs[src]),
                            })
                            .collect();
                        driver.run_batch(ctx, &cfg, &insts, &mut NoopBsbHooks).await
                    })
                })
                .collect();
            let out = run_tasks(SimConfig::new(n), MetricsSink::new(), None, tasks).outputs;
            all.push(out[0].clone());
        }
        assert_eq!(all[0], all[1], "pattern {pattern:04b}: substrates disagree");
        assert_eq!(all[0], inputs, "pattern {pattern:04b}: validity broken");
    }
}
