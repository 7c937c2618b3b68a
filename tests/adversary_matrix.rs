//! The adversary matrix: every attack strategy at every position, plus
//! mixed colluding teams up to the full `t` budget at `n = 13` — the
//! broadest safety sweep in the suite. Every cell must preserve
//! Consistency + Validity for fault-free processors, keep the diagnosis
//! count within Theorem 1's bound, and never isolate a fault-free
//! processor.
//!
//! The single-strategy sweeps also pin each cell's outcome — the first
//! honest node's `(diagnosis_invocations, isolated, edges_removed)` — to
//! what the one-generation-at-a-time engine produced: the windowed engine
//! must run every committed generation under the same diagnosis graph.

use mvbc_adversary::{
    BsbEquivocator, CorruptDiagnosisSymbol, CorruptSymbolTo, CrashAt, Deadline,
    EquivocateSymbol, FalseDetect, KingLiar, LieMVector, LieTrust, RandomAdversary,
    ShiftedInput, Silent, Sleeper, WorstCaseDiagnosis,
};
use mvbc_bsb::{BsbDriver, EigDriver};
use mvbc_core::{simulate_consensus, simulate_consensus_with, ConsensusConfig, ProtocolHooks};
use mvbc_metrics::MetricsSink;
use mvbc_systests::{honest_hooks, test_value};

/// All single-node strategies, constructed fresh per use.
fn strategy(name: &str, n: usize) -> Box<dyn ProtocolHooks> {
    match name {
        "silent" => Box::new(Silent),
        "crash_mid" => Box::new(CrashAt::new(2)),
        "corrupt_low" => Box::new(CorruptSymbolTo::new(vec![0])),
        "corrupt_high" => Box::new(CorruptSymbolTo::new(vec![n - 1])),
        "equivocate" => Box::new(EquivocateSymbol),
        "lie_m_true" => Box::new(LieMVector { claim: true }),
        "lie_m_false" => Box::new(LieMVector { claim: false }),
        "false_detect" => Box::new(FalseDetect),
        "lie_trust" => Box::new(LieTrust::new(vec![])),
        "corrupt_diag" => Box::new(CorruptDiagnosisSymbol),
        "bsb_equivocate" => Box::new(BsbEquivocator),
        "king_liar" => Box::new(KingLiar),
        "shifted_input" => Box::new(ShiftedInput),
        "random" => Box::new(RandomAdversary::new(0xA11CE, 0.35)),
        "sleeper_corrupt" => Box::new(Sleeper::new(2, CorruptSymbolTo::new(vec![n - 1]))),
        "sleeper_equivocate" => Box::new(Sleeper::new(1, EquivocateSymbol)),
        "deadline_corrupt" => Box::new(Deadline::new(2, CorruptSymbolTo::new(vec![n - 1]))),
        "deadline_random" => Box::new(Deadline::new(3, RandomAdversary::new(0xBEEF, 0.4))),
        other => panic!("unknown strategy {other}"),
    }
}

const ALL_STRATEGIES: &[&str] = &[
    "silent",
    "crash_mid",
    "corrupt_low",
    "corrupt_high",
    "equivocate",
    "lie_m_true",
    "lie_m_false",
    "false_detect",
    "lie_trust",
    "corrupt_diag",
    "bsb_equivocate",
    "king_liar",
    "shifted_input",
    "random",
    "sleeper_corrupt",
    "sleeper_equivocate",
    "deadline_corrupt",
    "deadline_random",
];

/// The first honest node's `(diagnosis_invocations, isolated,
/// edges_removed)`.
type Cell = (u64, &'static [usize], usize);

/// Strategies whose cells may differ from the one-generation-at-a-time
/// engine and are held to the property checks only: `RandomAdversary`
/// draws in hook-call order, which the window interleaves, and a crash
/// moves to the start of its window.
const UNPINNED: &[&str] = &["random", "deadline_random", "crash_mid"];

/// `every_strategy_every_position_n4`'s cells, per strategy and position
/// 0..4, as the one-generation-at-a-time engine produced them.
const CELLS_N4: &[(&str, [Cell; 4])] = &[
    ("silent", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (0, &[], 0)]),
    ("crash_mid", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (0, &[], 0)]),
    ("corrupt_low", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (0, &[], 0)]),
    ("corrupt_high", [(1, &[], 1), (1, &[], 1), (1, &[], 1), (0, &[], 0)]),
    ("equivocate", [(0, &[], 0), (1, &[], 1), (0, &[], 0), (0, &[], 0)]),
    ("lie_m_true", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (0, &[], 0)]),
    ("lie_m_false", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (0, &[], 0)]),
    ("false_detect", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (1, &[3], 3)]),
    ("lie_trust", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (1, &[3], 3)]),
    ("corrupt_diag", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (1, &[3], 3)]),
    ("bsb_equivocate", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (1, &[3], 3)]),
    ("king_liar", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (0, &[], 0)]),
    ("shifted_input", [(0, &[], 0), (0, &[], 0), (0, &[], 0), (0, &[], 0)]),
    ("random", [(1, &[0], 3), (1, &[], 1), (1, &[], 1), (1, &[], 1)]),
    ("sleeper_corrupt", [(1, &[], 1), (1, &[], 1), (1, &[], 1), (0, &[], 0)]),
    ("sleeper_equivocate", [(0, &[], 0), (1, &[], 1), (0, &[], 0), (0, &[], 0)]),
    ("deadline_corrupt", [(1, &[], 1), (1, &[], 1), (1, &[], 1), (0, &[], 0)]),
    ("deadline_random", [(2, &[0], 3), (1, &[1], 3), (1, &[2], 3), (1, &[3], 3)]),
];

/// `every_strategy_once_n7`'s cells, per strategy (at position
/// `i mod 7`), as the one-generation-at-a-time engine produced them.
const CELLS_N7: &[(&str, Cell)] = &[
    ("silent", (0, &[], 0)),
    ("crash_mid", (0, &[], 0)),
    ("corrupt_low", (0, &[], 0)),
    ("corrupt_high", (1, &[], 1)),
    ("equivocate", (0, &[], 0)),
    ("lie_m_true", (0, &[], 0)),
    ("lie_m_false", (0, &[], 0)),
    ("false_detect", (0, &[], 0)),
    ("lie_trust", (0, &[], 0)),
    ("corrupt_diag", (0, &[], 0)),
    ("bsb_equivocate", (0, &[], 0)),
    ("king_liar", (0, &[], 0)),
    ("shifted_input", (0, &[], 0)),
    ("random", (0, &[], 0)),
    ("sleeper_corrupt", (1, &[], 1)),
    ("sleeper_equivocate", (1, &[], 2)),
    ("deadline_corrupt", (1, &[], 1)),
    ("deadline_random", (2, &[3], 6)),
];

fn assert_cell(name: &str, pos: usize, got: (u64, Vec<usize>, usize), pinned: &Cell) {
    if UNPINNED.contains(&name) {
        return;
    }
    let want = (pinned.0, pinned.1.to_vec(), pinned.2);
    assert_eq!(got, want, "{name} at {pos}: (diagnoses, isolated, edges removed)");
}

/// Runs one team against unanimous inputs, checks the safety properties
/// and returns the first honest node's cell.
fn run_and_check(
    n: usize,
    t: usize,
    l: usize,
    d: usize,
    team: &[(usize, &str)],
) -> (u64, Vec<usize>, usize) {
    let cfg = ConsensusConfig::with_gen_bytes(n, t, l, d).unwrap();
    let v = test_value(l, 0xC0FFEE);
    let mut hooks = honest_hooks(n);
    let faulty: Vec<usize> = team.iter().map(|(id, _)| *id).collect();
    assert!(faulty.len() <= t);
    for &(id, name) in team {
        hooks[id] = strategy(name, n);
    }
    let run = simulate_consensus(&cfg, vec![v.clone(); n], hooks, MetricsSink::new());
    for id in 0..n {
        if faulty.contains(&id) {
            continue;
        }
        assert_eq!(run.outputs[id], v, "team {team:?}: node {id} broke validity");
        let r = &run.reports[id];
        assert!(
            r.diagnosis_invocations <= (t * (t + 1)) as u64,
            "team {team:?}: diagnosis bound exceeded"
        );
        for iso in &r.isolated {
            assert!(faulty.contains(iso), "team {team:?}: honest {iso} isolated");
        }
    }
    let first_honest = (0..n).find(|id| !faulty.contains(id)).expect("an honest node");
    let r = &run.reports[first_honest];
    (r.diagnosis_invocations, r.isolated.clone(), r.edges_removed)
}

#[test]
fn every_strategy_every_position_n4() {
    assert_eq!(ALL_STRATEGIES.len(), CELLS_N4.len());
    for (name, (pinned_name, pinned)) in ALL_STRATEGIES.iter().zip(CELLS_N4) {
        assert_eq!(name, pinned_name);
        for (pos, pinned) in pinned.iter().enumerate() {
            let cell = run_and_check(4, 1, 48, 12, &[(pos, name)]);
            assert_cell(name, pos, cell, pinned);
        }
    }
}

#[test]
fn every_strategy_once_n7() {
    assert_eq!(ALL_STRATEGIES.len(), CELLS_N7.len());
    for (i, (name, (pinned_name, pinned))) in ALL_STRATEGIES.iter().zip(CELLS_N7).enumerate() {
        assert_eq!(name, pinned_name);
        let pos = i % 7;
        let cell = run_and_check(7, 2, 48, 16, &[(pos, name)]);
        assert_cell(name, pos, cell, pinned);
    }
}

#[test]
fn strategy_pairs_n7() {
    // A quadratic-but-subsampled sweep of colluding pairs.
    let pairs = [
        ("corrupt_high", "false_detect"),
        ("equivocate", "lie_m_true"),
        ("silent", "random"),
        ("corrupt_diag", "lie_trust"),
        ("bsb_equivocate", "king_liar"),
        ("lie_m_false", "corrupt_low"),
        ("random", "random"),
    ];
    for (i, (a, b)) in pairs.into_iter().enumerate() {
        let p1 = i % 7;
        let p2 = (i + 3) % 7;
        if p1 == p2 {
            continue;
        }
        run_and_check(7, 2, 48, 16, &[(p1, a), (p2, b)]);
    }
}

#[test]
fn every_strategy_under_eig_substrate_n4() {
    // The adversary matrix re-run under the EIG Broadcast_Single_Bit
    // substrate: safety must be substrate-independent.
    let (n, t, l, d) = (4usize, 1usize, 48usize, 12usize);
    let cfg = ConsensusConfig::with_gen_bytes(n, t, l, d).unwrap();
    for name in ALL_STRATEGIES {
        let v = test_value(l, 0xE16);
        let mut hooks = honest_hooks(n);
        let pos = 1;
        hooks[pos] = strategy(name, n);
        let drivers: Vec<Box<dyn BsbDriver>> =
            (0..n).map(|_| Box::new(EigDriver) as Box<dyn BsbDriver>).collect();
        let run = simulate_consensus_with(&cfg, vec![v.clone(); n], hooks, drivers, MetricsSink::new());
        for id in 0..n {
            if id == pos {
                continue;
            }
            assert_eq!(run.outputs[id], v, "{name} under EIG: node {id} broke validity");
            assert!(run.reports[id].diagnosis_invocations <= (t * (t + 1)) as u64);
            assert!(run.reports[id].isolated.iter().all(|&i| i == pos));
        }
    }
}

#[test]
fn full_team_n13_t4_mixed() {
    // The largest configuration: 13 processors, a full team of 4 mixed
    // Byzantine strategies.
    run_and_check(
        13,
        4,
        64,
        16,
        &[
            (2, "corrupt_high"),
            (5, "false_detect"),
            (8, "bsb_equivocate"),
            (12, "random"),
        ],
    );
}

#[test]
fn full_team_n13_t4_worst_case_plus_noise() {
    let n = 13;
    let t = 4;
    let cfg = ConsensusConfig::with_gen_bytes(n, t, 128, 8).unwrap();
    let v = test_value(128, 0xDEAD);
    let mut hooks = honest_hooks(n);
    let team: Vec<usize> = vec![0, 1, 2, 3];
    for &f in &team {
        hooks[f] = Box::new(WorstCaseDiagnosis::new(team.clone()));
    }
    let run = simulate_consensus(&cfg, vec![v.clone(); n], hooks, MetricsSink::new());
    for id in 4..n {
        assert_eq!(run.outputs[id], v);
        assert!(run.reports[id].diagnosis_invocations <= (t * (t + 1)) as u64);
    }
}

#[test]
fn strategies_against_differing_honest_inputs() {
    // Attacks while honest inputs already differ: the decision must be
    // common and non-forged (an honest input or the default).
    let n = 4;
    let t = 1;
    let cfg = ConsensusConfig::with_gen_bytes(n, t, 32, 8).unwrap();
    for name in ["corrupt_high", "false_detect", "random", "lie_m_true"] {
        let mut inputs: Vec<Vec<u8>> = (0..n).map(|i| test_value(32, i as u64 % 2)).collect();
        inputs[3] = test_value(32, 9);
        let mut hooks = honest_hooks(n);
        hooks[3] = strategy(name, n);
        let run = simulate_consensus(&cfg, inputs.clone(), hooks, MetricsSink::new());
        for w in [0usize, 1, 2].windows(2) {
            assert_eq!(run.outputs[w[0]], run.outputs[w[1]], "{name}: inconsistent");
        }
        let decided = &run.outputs[0];
        assert!(
            *decided == inputs[0] || *decided == inputs[1] || *decided == cfg.default_value(),
            "{name}: forged decision"
        );
    }
}
