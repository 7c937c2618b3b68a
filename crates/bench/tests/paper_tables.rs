//! Pins every `mvbc-bench` report byte for byte.
//!
//! Each experiment's `--quick` report must equal `golden/<name>.txt`, so
//! a change that moves any bit count, round count, virtual time or
//! digest of the paper's tables fails here instead of going unnoticed.
//! After a deliberate change, regenerate a golden with
//!
//! ```sh
//! cargo run --release -p mvbc-bench -- <name> --quick > crates/bench/tests/golden/<name>.txt
//! ```
//!
//! and say in the change why the numbers moved.

use std::path::PathBuf;

use mvbc_bench::EXPERIMENTS;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str) {
    let experiment = EXPERIMENTS.iter().find(|e| e.name == name).expect("registered experiment");
    let actual = (experiment.run)(true).text;
    let path = golden_dir().join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if actual == expected {
        return;
    }
    let (a, e): (Vec<&str>, Vec<&str>) = (actual.lines().collect(), expected.lines().collect());
    let line = (0..a.len().max(e.len())).find(|&i| a.get(i) != e.get(i)).unwrap_or(a.len());
    panic!(
        "{name}: report differs from {} at line {}\n  golden: {:?}\n  actual: {:?}\n\nfull report:\n{actual}",
        path.display(),
        line + 1,
        e.get(line).copied().unwrap_or("<end of file>"),
        a.get(line).copied().unwrap_or("<end of report>"),
    );
}

macro_rules! golden_tests {
    ($($name:ident),* $(,)?) => {
        $(#[test] fn $name() { check(stringify!($name)); })*

        /// Every registered experiment has a test above and a golden
        /// file, and every golden file belongs to one.
        #[test]
        fn every_experiment_is_pinned() {
            let mut tested = vec![$(stringify!($name)),*];
            let mut registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            let mut goldens: Vec<String> = std::fs::read_dir(golden_dir())
                .expect("golden directory")
                .map(|entry| entry.expect("golden entry").file_name().to_string_lossy().into_owned())
                .collect();
            tested.sort_unstable();
            registered.sort_unstable();
            goldens.sort_unstable();
            assert_eq!(tested, registered);
            let expected: Vec<String> = registered.iter().map(|n| format!("{n}.txt")).collect();
            assert_eq!(goldens, expected);
        }
    };
}

golden_tests!(
    l_sweep,
    n_sweep,
    baselines,
    worst_case,
    d_sweep,
    broadcast,
    bsb,
    errorfree,
    ablation,
    stages,
    substrates,
    rounds,
    messages,
    attack_rate,
    kappa,
    smr_throughput,
    smr_pipeline,
    latency,
);
