//! `mvbc` — command-line runner for the Liang-Vaidya consensus and
//! broadcast simulations.
//!
//! ```sh
//! mvbc consensus --n 7 --t 2 --l 4096 --attack worst-case
//! mvbc broadcast --n 7 --t 2 --l 4096 --source 3 --attack equivocate
//! mvbc info --n 7 --t 2 --l 1048576
//! ```

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => {
            commands::run(cmd);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(e.exit_code())
        }
    }
}
