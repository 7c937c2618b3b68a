//! `mvbc-bench` — regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p mvbc-bench -- l_sweep          # one experiment
//! cargo run --release -p mvbc-bench -- all --quick      # every one, reduced grids
//! ```
//!
//! Prints each experiment's report and writes its tables as CSV into
//! `results/`. The `--quick` output is what `tests/paper_tables.rs`
//! pins.

use std::path::Path;
use std::process::ExitCode;

use mvbc_bench::{Experiment, EXPERIMENTS};

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!("usage: mvbc-bench <name>|all [--quick]\nexperiments: {}", names.join(", "))
}

fn run(experiment: &Experiment, quick: bool) -> std::io::Result<()> {
    let report = (experiment.run)(quick);
    print!("{}", report.text);
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    for (stem, table) in &report.csvs {
        std::fs::write(dir.join(format!("{stem}.csv")), table.to_csv())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut name = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            _ if arg.starts_with("--") || name.is_some() => {
                eprintln!("mvbc-bench: unexpected argument '{arg}'\n{}", usage());
                return ExitCode::FAILURE;
            }
            _ => name = Some(arg),
        }
    }
    let selected: Vec<&Experiment> = match name.as_deref() {
        Some("all") => EXPERIMENTS.iter().collect(),
        Some(name) => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => vec![e],
            None => {
                eprintln!("mvbc-bench: unknown experiment '{name}'\n{}", usage());
                return ExitCode::FAILURE;
            }
        },
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let banner = selected.len() > 1;
    for experiment in selected {
        if banner {
            println!("\n================ {} ================\n", experiment.name);
        }
        if let Err(e) = run(experiment, quick) {
            eprintln!("mvbc-bench: cannot write results/ for {}: {e}", experiment.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
