//! `simulate_cold`: the one-shot `escalate simulate NET --threads 1` over
//! a fixed set of networks, each in a fresh process as a user runs it, so
//! every process cache starts empty. Compression dominates; the
//! simulators are a small share.

use crate::common::{
    announce_ready, another_round, fields, matches_reference, median, num, peak_rss_mb,
    permutation, quantile, ratio, setup_probes, Ctx, Outcome, Size, Tally, Worker, INPUT_SEEDS,
    SETUP_PROBES,
};
use crate::traced::{self, timed, Extras, TOP_LEVEL};
use escalate_bench::{render::render_simulate, run_model};
use escalate_models::ModelProfile;
use escalate_obs::Registry;
use escalate_sim::SimConfig;
use std::sync::Arc;
use std::time::Instant;

/// Networks of one round, in canonical order (the seed permutes them).
pub fn networks(size: Size) -> &'static [&'static str] {
    match size {
        Size::Full => &[
            "MobileNet",
            "MobileNetV2",
            "ResNet18",
            "VGG16",
            "ResNet50",
            "gen:bottleneck",
        ],
        Size::Smoke => &["gen:bottleneck"],
    }
}

/// The simulate configuration: defaults (serial schedule, M = 6) on one
/// host thread.
pub fn sim_config() -> SimConfig {
    SimConfig {
        threads: 1,
        ..SimConfig::default()
    }
}

/// Reference key of one simulate output.
pub fn reference_key(spec: &str, cfg: &SimConfig) -> String {
    format!("simulate/{spec}/{}", cfg.schedule.as_str())
}

/// What the one-shot CLI prints for `simulate` of `profile` under `cfg`.
///
/// # Errors
///
/// Propagates pipeline failures as text.
pub fn one_shot(profile: &ModelProfile, cfg: &SimConfig) -> Result<String, String> {
    let run = run_model(profile, cfg, INPUT_SEEDS).map_err(|e| e.to_string())?;
    Ok(render_simulate(&run, cfg))
}

fn resolve(spec: &str) -> Result<ModelProfile, String> {
    escalate_models::resolve(spec).map_err(|e| e.to_string())
}

/// Worker side: resolve the network (set-up), announce `ready`, simulate
/// it and print `done <wall_s> <peak_rss_mb> <ok|mismatch|error>`. With
/// `setup_only` the worker exits right after `ready`.
pub fn worker(size: Size, network: usize, setup_only: bool) -> Result<(), String> {
    let spec = networks(size)
        .get(network)
        .ok_or("network index out of range")?;
    let profile = resolve(spec)?;
    announce_ready();
    if setup_only {
        return Ok(());
    }
    let cfg = sim_config();
    let start = Instant::now();
    let status = match one_shot(&profile, &cfg) {
        Ok(text) if matches_reference(&reference_key(spec, &cfg), &text) => "ok",
        Ok(_) => "mismatch",
        Err(_) => "error",
    };
    let wall = start.elapsed().as_secs_f64();
    println!("done {wall} {} {status}", peak_rss_mb());
    Ok(())
}

/// One network's cold process.
struct Cold {
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
}

fn worker_args(size: Size, network: usize, setup_only: bool) -> Vec<String> {
    let mut args = vec![
        "worker-simulate".to_string(),
        "--size".to_string(),
        size.as_str().to_string(),
        "--network".to_string(),
        network.to_string(),
    ];
    if setup_only {
        args.push("--setup-only".to_string());
    }
    args
}

fn cold_run(size: Size, network: usize, out: &mut Outcome) -> Result<Cold, String> {
    let (mut w, setup_s) = Worker::spawn(&worker_args(size, network, false))?;
    let line = w.next_line()?.ok_or("worker ended without a done line")?;
    let (tag, f) = fields(&line);
    if tag != "done" {
        return Err(format!("unexpected worker line {line:?}"));
    }
    out.check(f.get(2) == Some(&"ok"));
    let cold = Cold {
        setup_s,
        wall_s: num(f.first())?,
        rss_mb: num(f.get(1))?,
    };
    w.finish()?;
    Ok(cold)
}

/// One round: every network once, in `order`, each in its own process.
/// Returns the per-network runs; the round's wall time is their sum.
fn cold_round(size: Size, order: &[usize], out: &mut Outcome) -> Result<Vec<Cold>, String> {
    order.iter().map(|&i| cold_run(size, i, out)).collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let specs = networks(ctx.size);
    let order = permutation(specs.len(), ctx.seed);
    let mut out = Outcome::default();
    out.provenance(ctx, specs.len());
    out.info_num("threads", sim_config().threads);
    out.info_num("input_seeds", INPUT_SEEDS);
    if ctx.trace {
        return run_traced(ctx, &order, out);
    }
    let probe = |i: usize| worker_args(ctx.size, order[i % order.len()], true);
    let mut setups = setup_probes(SETUP_PROBES / 2, probe)?;
    let started = Instant::now();
    let mut rounds: Vec<Vec<Cold>> = Vec::new();
    while another_round(started.elapsed().as_secs_f64(), rounds.len(), ctx.seconds) {
        rounds.push(cold_round(ctx.size, &order, &mut out)?);
    }
    let runs: Vec<&Cold> = rounds.iter().flatten().collect();
    setups.extend(runs.iter().map(|r| r.setup_s));
    setups.extend(setup_probes(SETUP_PROBES / 2, probe)?);
    let walls: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|c| c.wall_s).sum())
        .collect();
    let latency_ms: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e3).collect();
    let m = &mut out.metrics;
    m.set("setup_s", "s", median(&setups));
    m.set("wall_s", "s", median(&walls));
    m.set(
        "throughput_per_s",
        "1/s",
        ratio(runs.len() as f64, walls.iter().sum::<f64>()),
    );
    m.set("latency_p50_ms", "ms", quantile(&latency_ms, 0.5));
    m.set("latency_p90_ms", "ms", quantile(&latency_ms, 0.9));
    m.set(
        "peak_rss_mb",
        "MB",
        runs.iter().map(|r| r.rss_mb).fold(0.0, f64::max),
    );
    out.info_num("rounds", rounds.len());
    out.info_num("setup_samples", setups.len());
    out.info_num("latency_samples", latency_ms.len());
    Ok(out)
}

/// Traced run: one untraced round in fresh workers for the overhead
/// baseline, then one traced round in this process (networks share no
/// cache entries, so each still starts cold), then the
/// per-network-layer host-time histogram.
fn run_traced(ctx: &Ctx, order: &[usize], mut out: Outcome) -> Result<Outcome, String> {
    let specs = networks(ctx.size);
    let untraced: f64 = cold_round(ctx.size, order, &mut out)?
        .iter()
        .map(|c| c.wall_s)
        .sum();
    let cfg = sim_config();
    let reg = Arc::new(Registry::new());
    escalate_obs::install(Arc::clone(&reg));
    let start = Instant::now();
    let mut profiles = Vec::new();
    for &i in order {
        let profile = timed(&reg, "perfbench.resolve", || resolve(specs[i]))?;
        let text = traced::simulate(&reg, &profile, &cfg, INPUT_SEEDS);
        out.check(matches!(&text, Ok(t) if matches_reference(&reference_key(specs[i], &cfg), t)));
        profiles.push(profile);
    }
    let wall_t = start.elapsed().as_secs_f64();
    escalate_obs::uninstall();
    let layers = traced::layer_times(&profiles, &cfg)?;
    let mut tally = Tally::default();
    tally.add(&reg.snapshot(), 1.0);
    let covered: f64 = TOP_LEVEL.iter().map(|s| tally.span(s)).sum::<f64>() / 1e3;
    let extras = Extras {
        overhead_frac: wall_t / untraced - 1.0,
        unattributed_frac: 1.0 - covered / wall_t,
        layers,
        serve: Vec::new(),
    };
    traced::finish(&mut out, &tally, extras, wall_t, untraced);
    Ok(out)
}
