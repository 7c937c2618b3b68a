//! E6 — multi-valued broadcast (§4): measured `C_bro(L)` vs the
//! `(n-1)L` lower bound, the companion TR's `1.5(n-1)L` claim, and this
//! workspace's `≈ (n-t+1)/(n-2t)·(n-1)L` variant model.

use mvbc_broadcast::{simulate_broadcast, BroadcastConfig, NoopBroadcastHooks};
use mvbc_metrics::MetricsSink;

use crate::{workload_value, Report, Table};

pub(super) fn run(quick: bool) -> Report {
    let configs: &[(usize, usize)] = if quick { &[(4, 1)] } else { &[(4, 1), (7, 2)] };
    let l_exps: &[usize] = if quick { &[12, 14] } else { &[12, 14, 16, 17, 18] };

    let mut table = Table::new(&[
        "n", "t", "L (bits)", "measured (bits)", "measured/(n-1)L",
        "variant model", "TR target 1.5", "rounds",
    ]);

    for &(n, t) in configs {
        for &l_exp in l_exps {
            let l_bytes = (1usize << l_exp) / 8;
            let cfg = BroadcastConfig::new(n, t, 0, l_bytes).expect("valid");
            let v = workload_value(l_bytes, l_exp as u64);
            let metrics = MetricsSink::new();
            let hooks = (0..n).map(|_| NoopBroadcastHooks::boxed()).collect();
            let run = simulate_broadcast(&cfg, v.clone(), hooks, metrics.clone());
            assert!(run.outputs.iter().all(|o| *o == v), "broadcast failed");
            let total = metrics.snapshot().total_logical_bits() as f64;
            let lower = ((n - 1) * l_bytes * 8) as f64;
            // Failure-free symbol-traffic coefficient of our variant:
            // (1 + (n-t)) echo+dispersal symbols of D/(n-2t) bits per
            // generation, i.e. (n-t+1)/(n-2t) per value bit per receiver.
            let variant = (n - t + 1) as f64 / (n - 2 * t) as f64;
            table.row(vec![
                n.to_string(),
                t.to_string(),
                (l_bytes * 8).to_string(),
                format!("{total:.0}"),
                format!("{:.2}", total / lower),
                format!("{variant:.2}"),
                "1.50".into(),
                metrics.snapshot().rounds().to_string(),
            ]);
        }
    }

    let mut r = Report::default();
    r.line("# E6: error-free multi-valued broadcast cost vs the (n-1)L lower bound\n");
    r.line(table.to_markdown());
    r.line("paper §4 / TR: 1.5(n-1)L + Θ(n^4 sqrt(L)); our documented variant");
    r.line("converges to the 'variant model' column as L grows (BSB overhead fades).");
    r.csv("e6_broadcast", table);
    r
}
