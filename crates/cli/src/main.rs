//! `escalate` — command-line interface to the ESCALATE reproduction.
//!
//! Run `escalate help` for usage.

mod args;
mod commands;
mod manifest;

use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = match args::ParsedArgs::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match commands::dispatch(&parsed, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
