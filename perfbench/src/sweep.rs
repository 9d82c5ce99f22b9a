//! `sweep_grid`: the dense 256-point design-space grid (MobileNet and
//! MobileNetV2, 128 uniform samples each, one input seed, M in 4..8),
//! streamed to a fresh JSONL file in a fresh process per round. This is
//! the path where the cross-point sharing layers do work: derived-state
//! caches, plan reuse, M-invariant unit reuse and the streaming frontier.

use crate::common::{
    announce_ready, another_round, digest, fields, matches_reference, median, num, peak_rss_mb,
    quantile, ratio, reference, setup_probes, tmp_dir, Ctx, Outcome, Size, Tally, Worker,
    SETUP_PROBES,
};
use crate::traced::{self, timed, Extras};
use escalate_bench::sweep::{run_sweep, Sampler, SweepOptions};
use escalate_core::pipeline::CompressionConfig;
use escalate_obs::Registry;
use escalate_sim::Workload;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The grid. The seed of the benchmark does not change it: the stream is
/// checked against one recorded digest per line.
pub fn options(size: Size, out: PathBuf) -> SweepOptions {
    let (networks, samples) = match size {
        Size::Full => (vec!["MobileNet", "MobileNetV2"], 128),
        Size::Smoke => (vec!["gen:bottleneck", "gen:vit"], 4),
    };
    SweepOptions {
        networks: networks.into_iter().map(String::from).collect(),
        samples,
        master_seed: 42,
        input_seeds: 1,
        threads: 1,
        out,
        m_range: (4, 8),
        pe_range: (8, 64),
        sampler: Sampler::Uniform,
        golden: None,
        ..SweepOptions::default()
    }
}

/// Reference key of the whole stream.
pub fn stream_key(size: Size) -> String {
    format!("sweep/{}/stream", size.as_str())
}

/// Reference key of one stream line.
pub fn line_key(size: Size, i: usize) -> String {
    format!("sweep/{}/line/{i}", size.as_str())
}

/// Checks a finished stream line by line and as a whole. Returns
/// `(attempted, failed)`; a missing or extra line counts as failed.
pub fn check_stream(size: Size, text: &str) -> (u64, u64) {
    let lines: Vec<&str> = text.lines().collect();
    let mut expected = 0;
    while reference(&line_key(size, expected)).is_some() {
        expected += 1;
    }
    let mut failed = 0u64;
    for i in 0..expected.max(lines.len()) {
        let ok = lines
            .get(i)
            .is_some_and(|l| matches_reference(&line_key(size, i), l));
        failed += u64::from(!ok);
    }
    let whole_ok = reference(&stream_key(size)) == Some(digest(text).as_str());
    (
        expected.max(lines.len()) as u64 + 1,
        failed + u64::from(!whole_ok),
    )
}

fn stream_path(tag: &str) -> Result<PathBuf, String> {
    let path = tmp_dir()?.join(format!("sweep-{tag}-{}.jsonl", std::process::id()));
    // A fresh stream every round: a leftover file would resume.
    let _ = std::fs::remove_file(&path);
    Ok(path)
}

/// Worker side of one round: resolve the grid's networks (set-up), run
/// the sweep, then print `check <attempted> <failed>` and
/// `done <wall_s> <peak_rss_mb>`.
pub fn worker(size: Size, setup_only: bool) -> Result<(), String> {
    let path = stream_path("worker")?;
    let opts = options(size, path.clone());
    for spec in &opts.networks {
        escalate_models::resolve(spec).map_err(|e| e.to_string())?;
    }
    announce_ready();
    if setup_only {
        return Ok(());
    }
    let start = Instant::now();
    run_sweep(&opts, &mut Vec::new()).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    let (attempted, failed) = check_stream(size, &text);
    println!("check {attempted} {failed}");
    println!("done {wall} {}", peak_rss_mb());
    Ok(())
}

struct Round {
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
}

fn worker_args(size: Size, setup_only: bool) -> Vec<String> {
    let mut args = vec![
        "worker-sweep".to_string(),
        "--size".to_string(),
        size.as_str().to_string(),
    ];
    if setup_only {
        args.push("--setup-only".to_string());
    }
    args
}

fn sweep_round(size: Size, out: &mut Outcome) -> Result<Round, String> {
    let (mut w, setup_s) = Worker::spawn(&worker_args(size, false))?;
    while let Some(line) = w.next_line()? {
        let (tag, f) = fields(&line);
        match tag {
            "check" => {
                out.attempted += num(f.first())? as u64;
                out.failed += num(f.get(1))? as u64;
            }
            "done" => {
                let round = Round {
                    setup_s,
                    wall_s: num(f.first())?,
                    rss_mb: num(f.get(1))?,
                };
                w.finish()?;
                return Ok(round);
            }
            _ => return Err(format!("unexpected worker line {line:?}")),
        }
    }
    Err("worker ended without a done line".to_string())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let opts = options(ctx.size, PathBuf::new());
    let mut out = Outcome::default();
    out.provenance(ctx, opts.networks.len() * opts.samples);
    out.info_num("threads", opts.threads);
    out.info_num("input_seeds", opts.input_seeds);
    if ctx.trace {
        return run_traced(ctx, out);
    }
    let probe = |_| worker_args(ctx.size, true);
    let mut setups = setup_probes(SETUP_PROBES / 2, probe)?;
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while another_round(started.elapsed().as_secs_f64(), rounds.len(), ctx.seconds) {
        rounds.push(sweep_round(ctx.size, &mut out)?);
    }
    setups.extend(rounds.iter().map(|r| r.setup_s));
    setups.extend(setup_probes(SETUP_PROBES / 2, probe)?);
    // The operation a user waits on is the whole sweep: the stream is
    // written in grid order once every point ran, so points have no
    // latency of their own to observe.
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let latency_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let points = (opts.networks.len() * opts.samples * rounds.len()) as f64;
    let points_per_s = ratio(points, walls.iter().sum::<f64>());
    let m = &mut out.metrics;
    m.set("setup_s", "s", median(&setups));
    m.set("wall_s", "s", median(&walls));
    m.set("throughput_per_s", "1/s", points_per_s);
    m.set("latency_p50_ms", "ms", quantile(&latency_ms, 0.5));
    m.set("latency_p90_ms", "ms", quantile(&latency_ms, 0.9));
    m.set(
        "peak_rss_mb",
        "MB",
        rounds.iter().map(|r| r.rss_mb).fold(0.0, f64::max),
    );
    m.set("points_per_s", "1/s", points_per_s);
    out.info_num("rounds", rounds.len());
    out.info_num("setup_samples", setups.len());
    out.info_num("latency_samples", latency_ms.len());
    Ok(out)
}

/// Traced run: one untraced round in a fresh worker for the overhead
/// baseline, then the sweep traced in this (cold) process, then timed
/// workload builds for every `(network, M)` pair of the grid and the
/// per-network-layer histogram.
fn run_traced(ctx: &Ctx, mut out: Outcome) -> Result<Outcome, String> {
    let untraced = sweep_round(ctx.size, &mut out)?;
    let path = stream_path("traced")?;
    let opts = options(ctx.size, path.clone());
    let reg = Arc::new(Registry::new());
    let mut profiles = Vec::new();
    for spec in &opts.networks {
        profiles.push(timed(&reg, "perfbench.resolve", || {
            escalate_models::resolve(spec).map_err(|e| e.to_string())
        })?);
    }
    escalate_obs::install(Arc::clone(&reg));
    let start = Instant::now();
    let result = run_sweep(&opts, &mut Vec::new());
    let wall_t = start.elapsed().as_secs_f64();
    escalate_obs::uninstall();
    result.map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    let (attempted, failed) = check_stream(ctx.size, &text);
    out.attempted += attempted;
    out.failed += failed;

    // The sweep builds each (network, M) workload once and caches it;
    // rebuild each from the cached artifacts under a timer.
    for profile in &profiles {
        for m in opts.m_range.0..=opts.m_range.1 {
            let cfg = CompressionConfig {
                m,
                ..CompressionConfig::default()
            };
            let artifacts =
                escalate_bench::compress_cached(profile, &cfg).map_err(|e| e.to_string())?;
            timed(&reg, "perfbench.workload_build", || {
                Workload::from_artifacts(&profile.name, &artifacts, profile)
            });
        }
    }
    let layers = traced::layer_times(&profiles, &crate::cold::sim_config())?;
    let mut tally = Tally::default();
    tally.add(&reg.snapshot(), 1.0);
    let covered = (tally.spans_with_prefix("pipeline.compress_model/")
        + tally.spans_with_prefix("bench.accelerator/"))
        / 1e3;
    let extras = Extras {
        overhead_frac: wall_t / untraced.wall_s - 1.0,
        unattributed_frac: 1.0 - covered / wall_t,
        layers,
        serve: Vec::new(),
    };
    traced::finish(&mut out, &tally, extras, wall_t, untraced.wall_s);
    Ok(out)
}
