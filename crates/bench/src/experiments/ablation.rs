//! E9 (ablation) — what "memory across generations" (§2) buys.
//!
//! Runs the same worst-case adversary against (a) the paper's algorithm
//! and (b) an ablated variant whose diagnosis graph is reset before every
//! generation. Without memory, Theorem 1's `t(t+1)` cap disappears: the
//! adversary forces a diagnosis stage in essentially every generation and
//! the diagnosis term of Eq. (1) becomes `Θ(L/D · D · B) = Θ(L·B)` —
//! destroying the `O(nL)` headline. This regenerates the paper's §2
//! design argument as a measured ablation.

use mvbc_adversary::WorstCaseDiagnosis;
use mvbc_core::{ConsensusConfig, NoopHooks, ProtocolHooks};

use crate::{measure_consensus, MeasuredRun, Report, Table};

fn attacked(cfg: &ConsensusConfig) -> MeasuredRun {
    let mut hooks: Vec<Box<dyn ProtocolHooks>> =
        (0..cfg.n).map(|_| NoopHooks::boxed()).collect();
    hooks[0] = Box::new(WorstCaseDiagnosis::new(vec![0]));
    measure_consensus(cfg, hooks, &[0], 5)
}

pub(super) fn run(quick: bool) -> Report {
    let (n, t) = (4usize, 1usize);
    let gen_bytes = 16usize;
    let l_list: &[usize] = if quick { &[512, 2048] } else { &[512, 2048, 8192, 32768] };

    let mut table = Table::new(&[
        "L (bits)", "generations", "with memory: diagnoses", "bits",
        "ablated: diagnoses", "bits", "ablation cost",
    ]);

    for &l_bytes in l_list {
        let cfg = ConsensusConfig::with_gen_bytes(n, t, l_bytes, gen_bytes).expect("valid");
        let with_memory = attacked(&cfg);

        let mut ablated_cfg = cfg.clone();
        ablated_cfg.ablation_reset_diag = true;
        let ablated = attacked(&ablated_cfg);

        assert!(
            with_memory.diagnosis_invocations <= (t * (t + 1)) as u64,
            "Theorem 1 must hold with memory"
        );
        table.row(vec![
            (l_bytes * 8).to_string(),
            cfg.generations().to_string(),
            with_memory.diagnosis_invocations.to_string(),
            with_memory.total_bits.to_string(),
            ablated.diagnosis_invocations.to_string(),
            ablated.total_bits.to_string(),
            format!(
                "{:.2}x",
                ablated.total_bits as f64 / with_memory.total_bits as f64
            ),
        ]);
    }

    let mut r = Report::default();
    r.line("# E9 (ablation): removing 'memory across generations' (§2)\n");
    r.line(table.to_markdown());
    r.line("paper §2: the diagnosis graph carried across generations caps misbehaviour");
    r.line("at t(t+1) diagnoses; the ablated variant pays a diagnosis in (almost) every");
    r.line("generation and its cost grows without bound relative to the original.");
    r.csv("e9_ablation", table);
    r
}
