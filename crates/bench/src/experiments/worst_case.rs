//! E4 — Theorem 1's diagnosis bound under the orchestrated worst-case
//! adversary: the `t` colluders force diagnosis stages until isolated;
//! the count must reach (and never exceed) `t(t+1)`.

use mvbc_adversary::WorstCaseDiagnosis;
use mvbc_core::{ConsensusConfig, NoopHooks, ProtocolHooks};

use crate::{measure_consensus, Report, Table};

pub(super) fn run(quick: bool) -> Report {
    let configs: &[(usize, usize)] = if quick {
        &[(4, 1), (7, 2)]
    } else {
        &[(4, 1), (7, 2), (10, 3), (13, 4)]
    };

    let mut table = Table::new(&[
        "n", "t", "bound t(t+1)", "diagnoses (measured)", "isolated",
        "clean bits", "attacked bits", "overhead",
    ]);

    for &(n, t) in configs {
        // Enough small generations for every colluder to act t+1 times.
        let gen_bytes = 8usize;
        let generations_needed = t * (t + 2) + 4;
        let l_bytes = gen_bytes * generations_needed.max(8);
        let cfg = ConsensusConfig::with_gen_bytes(n, t, l_bytes, gen_bytes).expect("valid");

        let honest: Vec<Box<dyn ProtocolHooks>> = (0..n).map(|_| NoopHooks::boxed()).collect();
        let clean = measure_consensus(&cfg, honest, &[], 1).total_bits as f64;

        let faulty: Vec<usize> = (0..t).collect();
        let mut hooks: Vec<Box<dyn ProtocolHooks>> = (0..n).map(|_| NoopHooks::boxed()).collect();
        for &f in &faulty {
            hooks[f] = Box::new(WorstCaseDiagnosis::new(faulty.clone()));
        }
        let m = measure_consensus(&cfg, hooks, &faulty, 2);
        let bound = (t * (t + 1)) as u64;
        assert!(
            m.diagnosis_invocations <= bound,
            "Theorem 1 violated: {} > {bound}",
            m.diagnosis_invocations
        );
        table.row(vec![
            n.to_string(),
            t.to_string(),
            bound.to_string(),
            m.diagnosis_invocations.to_string(),
            format!("{:?}", m.isolated),
            format!("{clean:.0}"),
            format!("{:.0}", m.total_bits),
            format!("{:+.1}%", (m.total_bits as f64 / clean - 1.0) * 100.0),
        ]);
    }

    let mut r = Report::default();
    r.line("# E4: worst-case diagnosis adversary vs Theorem 1's t(t+1) bound\n");
    r.line(table.to_markdown());
    r.line("paper: at most t(t+1) diagnosis stages in any execution; all faulty");
    r.line("processors end up identified and isolated. Negative overhead is real:");
    r.line("isolated processors stop costing traffic in later generations.");
    r.csv("e4_worst_case", table);
    r
}
