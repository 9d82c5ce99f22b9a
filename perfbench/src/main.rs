//! The ESCALATE reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <simulate_cold|sweep_grid|serve_warm> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|smoke]
//! perfbench record
//! ```
//!
//! A run prints one full record (provenance, every metric it measured,
//! the output checks) and, as its last line, the result object:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`). See
//! README.md for the workloads and the metric catalogue.

mod cold;
mod common;
mod record;
mod serve;
mod sweep;
mod traced;

use common::{json_string, Ctx, Size, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <simulate_cold|sweep_grid|serve_warm> \
--seed <n> --seconds <s> --trace <0|1> [--size full|smoke] | perfbench record";

/// Parses `--key value` pairs (and bare `--flag`s) after the subcommand.
fn options(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}\n{USAGE}"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => "true".to_string(),
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

fn parsed<T: std::str::FromStr>(opts: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    let raw = opts
        .get(key)
        .ok_or_else(|| format!("missing --{key}\n{USAGE}"))?;
    raw.parse()
        .map_err(|_| format!("bad value {raw:?} for --{key}"))
}

fn size(opts: &BTreeMap<String, String>) -> Result<Size, String> {
    opts.get("size").map_or(Ok(Size::Full), |s| Size::parse(s))
}

fn run(args: &[String], started: Instant) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("record") => return record::record(),
        Some("worker-simulate") => {
            let opts = options(&args[1..])?;
            let network = parsed(&opts, "network")?;
            return cold::worker(size(&opts)?, network, opts.contains_key("setup-only"));
        }
        Some("worker-sweep") => {
            let opts = options(&args[1..])?;
            return sweep::worker(size(&opts)?, opts.contains_key("setup-only"));
        }
        _ => {}
    }
    let opts = options(args)?;
    let workload: String = parsed(&opts, "workload")?;
    let seconds: f64 = parsed(&opts, "seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let ctx = Ctx {
        seed: parsed(&opts, "seed")?,
        seconds,
        trace: match parsed::<u8>(&opts, "trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
        size: size(&opts)?,
        started,
    };
    let mut outcome = match workload.as_str() {
        "simulate_cold" => cold::run(&ctx),
        "sweep_grid" => sweep::run(&ctx),
        "serve_warm" => serve::run(&ctx),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }?;
    if outcome.attempted == 0 {
        return Err("the run checked no output".to_string());
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted as f64;
    outcome.metrics.set("ops_failed_frac", "ratio", failed_frac);
    let info: String = outcome
        .info
        .iter()
        .map(|(k, v)| format!(", {}: {v}", json_string(k)))
        .collect();
    println!(
        "{{\"schema\": \"escalate-perfbench/v1\", \"workload\": {}, \"trace\": {}{info}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        json_string(&workload),
        u8::from(ctx.trace),
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json(None)
    );
    let catalogue = if ctx.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json(Some(catalogue))
    );
    Ok(())
}

fn main() {
    let started = Instant::now();
    // Measure the programs' defaults, whatever the caller's environment
    // says; workers inherit the cleaned environment.
    for var in [
        "ESCALATE_SEEDS",
        "ESCALATE_THREADS",
        "ESCALATE_CACHE_CAP",
        "RAYON_NUM_THREADS",
    ] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args, started) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
