//! E8 — the error-freedom separation: the same colliding-input +
//! equivocation scenario breaks Fitzi-Hirt's agreement while Liang-Vaidya
//! (which hashes nothing) decides correctly. This regenerates the
//! paper's abstract claim "in contrast to Fitzi and Hirt, our algorithm
//! is guaranteed to be always error-free". The scenario is fixed, so
//! `quick` changes nothing.

use mvbc_adversary::RandomAdversary;
use mvbc_baselines::fitzi_hirt::{
    find_collision, simulate_fitzi_hirt_with_attack, FhOutcome, FitziHirtConfig, SplitWorldAttack,
};
use mvbc_core::{simulate_consensus, ConsensusConfig, NoopHooks, ProtocolHooks};
use mvbc_metrics::MetricsSink;

use crate::{workload_value, Report, Table};

pub(super) fn run(_quick: bool) -> Report {
    let (n, t, l) = (7usize, 2usize, 64usize);
    let mut table = Table::new(&["scenario", "algorithm", "honest agreement", "note"]);

    let fh_cfg = FitziHirtConfig::new(n, t, l);
    let keys = fh_cfg.keys();
    let v = workload_value(l, 1);
    let v2 = find_collision(&v, &keys).expect("value long enough to embed a collision");
    assert_ne!(v, v2);

    let mut inputs = vec![v.clone(); n];
    inputs[3].clone_from(&v2);
    inputs[4].clone_from(&v2);

    // Fitzi-Hirt under collision + split-world equivocation.
    let fh_out = simulate_fitzi_hirt_with_attack(
        &fh_cfg,
        inputs.clone(),
        vec![5, 6],
        Some(SplitWorldAttack { v: v.clone(), v2: v2.clone() }),
        MetricsSink::new(),
    );
    let fh_agree = (0..5).all(|i| fh_out[i] == fh_out[0]);
    table.row(vec![
        "collision + equivocation".into(),
        "fitzi-hirt".into(),
        if fh_agree { "PRESERVED (unexpected)" } else { "VIOLATED" }.into(),
        format!(
            "outcomes: {}",
            fh_out
                .iter()
                .take(5)
                .map(|o| match o {
                    FhOutcome::Delivered(x) if *x == v => "v",
                    FhOutcome::Delivered(x) if *x == v2 => "v2",
                    FhOutcome::Delivered(_) => "other",
                    FhOutcome::Defaulted => "default",
                })
                .collect::<Vec<_>>()
                .join(",")
        ),
    ]);

    // Liang-Vaidya on the same inputs, Byzantine 5 and 6 randomized.
    let cfg = ConsensusConfig::new(n, t, l).expect("valid");
    let mut hooks: Vec<Box<dyn ProtocolHooks>> = (0..n).map(|_| NoopHooks::boxed()).collect();
    hooks[5] = Box::new(RandomAdversary::new(11, 0.4));
    hooks[6] = Box::new(RandomAdversary::new(12, 0.4));
    let run = simulate_consensus(&cfg, inputs, hooks, MetricsSink::new());
    let lv_agree = (0..5).all(|i| run.outputs[i] == run.outputs[0]);
    let decided = &run.outputs[0];
    let legal = *decided == v || *decided == v2 || *decided == cfg.default_value();
    table.row(vec![
        "collision + equivocation".into(),
        "liang-vaidya".into(),
        if lv_agree && legal { "PRESERVED" } else { "VIOLATED (bug!)" }.into(),
        format!(
            "decision = {}",
            if *decided == v { "v" } else if *decided == v2 { "v2" } else { "default" }
        ),
    ]);
    assert!(lv_agree && legal, "Liang-Vaidya must be error-free");
    assert!(!fh_agree, "the collision scenario should break Fitzi-Hirt");

    let mut r = Report::default();
    r.line("# E8: error-freedom separation (abstract's claim vs Fitzi-Hirt)\n");
    r.line(table.to_markdown());
    r.line("paper: FH's error probability is lower-bounded by the hash collision");
    r.line("probability; Liang-Vaidya is deterministic and error-free in all runs.");
    r.csv("e8_errorfree", table);
    r
}
