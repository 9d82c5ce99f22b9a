//! `serve_warm`: an in-process daemon with one worker and a small queue,
//! driven closed-loop by two clients over the public `escalate-serve/v1`
//! protocol. Set-up starts the daemon and fills its artifact cache for
//! every network of the mix, so compression does no work while jobs are
//! timed: served simulate time is almost all position kernel.

use crate::cold;
use crate::common::{
    matches_reference, median, permutation, quantile, ratio, splitmix, Ctx, Outcome, Size, Tally,
    INPUT_SEEDS,
};
use crate::traced::{self, timed, Extras};
use escalate_obs::jsonl::{json_f64_field, json_string_field, json_u64_field};
use escalate_obs::Registry;
use escalate_serve::proto::{read_frame, write_frame, RETRY_AFTER_MS};
use escalate_serve::{start, submit, Request, ServeOptions};
use escalate_sim::{ScheduleKind, SimConfig};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon worker threads.
pub const WORKERS: usize = 1;
/// Daemon queue capacity.
pub const QUEUE: usize = 4;
/// Closed-loop clients: each holds one connection and one request at a
/// time, so the generator never uses more threads than the host's two
/// cores.
pub const CLIENTS: usize = 2;

/// Host seconds one mix cycle takes at the revision the benchmark was
/// defined on; `--seconds` converts to a fixed cycle count through it.
const CYCLE_SECONDS: f64 = 5.0;

/// Networks the mix simulates.
pub fn networks(size: Size) -> Vec<&'static str> {
    match size {
        Size::Full => cold::networks(size)
            .iter()
            .copied()
            .chain(["gen:vit"])
            .collect(),
        Size::Smoke => vec!["gen:bottleneck", "gen:vit"],
    }
}

/// Cheap golden experiments the mix reports.
pub fn reports(size: Size) -> &'static [&'static str] {
    match size {
        Size::Full => &["table4", "fig13"],
        Size::Smoke => &["table4"],
    }
}

/// A simulate request as the mix sends it.
pub fn simulate_request(model: &str, schedule: ScheduleKind) -> Request {
    Request::Simulate {
        model: model.to_string(),
        m: 6,
        seeds: INPUT_SEEDS,
        schedule: schedule.as_str().to_string(),
    }
}

/// Reference key of a job's rendered output.
pub fn request_key(req: &Request) -> String {
    match req {
        Request::Simulate {
            model, schedule, ..
        } => format!("simulate/{model}/{schedule}"),
        Request::Report { experiment } => format!("report/{experiment}"),
        other => other.verb().to_string(),
    }
}

/// One cycle of the mix, unshuffled: every network twice on the serial
/// schedule, a rotating few on the pipelined one, and the reports
/// (full size: 14 + 3 simulate, 3 report).
fn cycle(size: Size, c: usize) -> Vec<Request> {
    let nets = networks(size);
    let mut jobs: Vec<Request> = nets
        .iter()
        .flat_map(|n| [*n, *n])
        .map(|n| simulate_request(n, ScheduleKind::LayerSerial))
        .collect();
    let pipelined = match size {
        Size::Full => 3,
        Size::Smoke => 1,
    };
    for j in 0..pipelined {
        let n = nets[(c * pipelined + j) % nets.len()];
        jobs.push(simulate_request(n, ScheduleKind::Pipelined));
    }
    let reps: &[&str] = match size {
        Size::Full => &["table4", "table4", "fig13"],
        Size::Smoke => &["table4"],
    };
    jobs.extend(reps.iter().map(|r| Request::Report {
        experiment: (*r).to_string(),
    }));
    jobs
}

/// The seeded job sequence: `cycles` cycles, each shuffled once, then
/// rotated to a start drawn from the seed. Rotation keeps every seed's
/// jobs and nearly all of their neighbours the same, so which job waits
/// behind which (and with it the latency quantiles) does not vary by seed.
pub fn mix(size: Size, seed: u64, cycles: usize) -> Vec<Request> {
    let mut jobs: Vec<Request> = (0..cycles)
        .flat_map(|c| {
            let jobs = cycle(size, c);
            permutation(jobs.len(), c as u64)
                .into_iter()
                .map(move |i| jobs[i].clone())
        })
        .collect();
    let mut state = seed;
    let start = (splitmix(&mut state) % jobs.len() as u64) as usize;
    jobs.rotate_left(start);
    jobs
}

/// Every distinct job the mix can send (what `perfbench record` covers).
pub fn distinct_jobs(size: Size) -> Vec<Request> {
    let mut jobs: Vec<Request> = Vec::new();
    for n in networks(size) {
        for s in [ScheduleKind::LayerSerial, ScheduleKind::Pipelined] {
            jobs.push(simulate_request(n, s));
        }
    }
    jobs.extend(reports(size).iter().map(|r| Request::Report {
        experiment: (*r).to_string(),
    }));
    jobs
}

/// What one submission experienced, client side. Times are ms from the
/// first submit attempt.
struct Job {
    req: Request,
    ok: bool,
    rejected: u64,
    latency_ms: f64,
    exec_ms: f64,
    first_unit_ms: Option<f64>,
    stream_ms: Option<f64>,
    output: Option<String>,
}

enum Reply {
    Done {
        at: f64,
        exec_ms: f64,
        first_unit: Option<f64>,
        last_unit: Option<f64>,
        output: Option<String>,
    },
    Rejected(u64),
    Failed,
}

/// One connection: send the request, timestamp the frames until the
/// terminal one.
fn exchange(port: u16, req: &Request, started: Instant) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    write_frame(&mut stream, &req.to_line())?;
    let mut reader = BufReader::new(stream);
    let (mut first_unit, mut last_unit) = (None, None);
    while let Some(frame) = read_frame(&mut reader)? {
        let now = started.elapsed().as_secs_f64() * 1e3;
        match json_string_field(&frame, "type").as_deref() {
            Some("accepted") => {}
            Some("unit") => {
                first_unit.get_or_insert(now);
                last_unit = Some(now);
            }
            Some("done") => {
                return Ok(Reply::Done {
                    at: now,
                    exec_ms: json_f64_field(&frame, "ms").unwrap_or(0.0),
                    first_unit,
                    last_unit,
                    output: json_string_field(&frame, "output"),
                })
            }
            Some("rejected") => {
                return Ok(Reply::Rejected(
                    json_u64_field(&frame, "retry_after_ms").unwrap_or(RETRY_AFTER_MS),
                ))
            }
            _ => return Ok(Reply::Failed),
        }
    }
    Ok(Reply::Failed)
}

/// Submits one job, retrying refusals after the daemon's hint (bounded).
fn drive(port: u16, req: &Request) -> Job {
    const MAX_ATTEMPTS: u64 = 200;
    let started = Instant::now();
    let mut job = Job {
        req: req.clone(),
        ok: false,
        rejected: 0,
        latency_ms: 0.0,
        exec_ms: 0.0,
        first_unit_ms: None,
        stream_ms: None,
        output: None,
    };
    while job.rejected < MAX_ATTEMPTS {
        match exchange(port, req, started) {
            Ok(Reply::Rejected(wait_ms)) => {
                job.rejected += 1;
                std::thread::sleep(Duration::from_millis(wait_ms));
            }
            Ok(Reply::Done {
                at,
                exec_ms,
                first_unit,
                last_unit,
                output,
            }) => {
                job.ok = true;
                job.latency_ms = at;
                job.exec_ms = exec_ms;
                job.first_unit_ms = first_unit;
                job.stream_ms = last_unit.map(|l| at - l);
                job.output = output;
                break;
            }
            Ok(Reply::Failed) | Err(_) => break,
        }
    }
    job
}

/// Runs `jobs` through `CLIENTS` closed-loop clients; returns every
/// submission's record and the phase wall time in seconds.
fn closed_loop(port: u16, jobs: &[Request]) -> (Vec<Job>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let done = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = jobs.get(i) else { break };
                        mine.push(drive(port, req));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    (done, start.elapsed().as_secs_f64())
}

/// Sends one warm-up job and requires a `done` frame.
fn warm(port: u16, req: &Request) -> Result<(), String> {
    let frames = submit(port, req).map_err(|e| format!("warm-up {}: {e}", req.verb()))?;
    match frames
        .last()
        .and_then(|f| json_string_field(f, "type"))
        .as_deref()
    {
        Some("done") => Ok(()),
        _ => Err(format!("warm-up {} failed: {frames:?}", request_key(req))),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cycles = match ctx.size {
        Size::Full => ((ctx.seconds / CYCLE_SECONDS).round() as usize).max(1),
        Size::Smoke => 1,
    };
    let jobs = mix(ctx.size, ctx.seed, cycles);
    let mut out = Outcome::default();
    out.provenance(ctx, jobs.len());
    out.info_num("workers", WORKERS);
    out.info_num("queue", QUEUE);
    out.info_num("clients", CLIENTS);
    out.info_num("jobs", jobs.len());
    out.info_num("input_seeds", INPUT_SEEDS);
    out.info_num("threads", escalate_core::par::resolve_threads(0));

    // Set-up: daemon start, then fill the artifact cache for every
    // network of the mix and run each report once.
    let handle = start(ServeOptions {
        port: 0,
        workers: WORKERS,
        queue: QUEUE,
        cache: None,
        port_file: None,
    })?;
    let port = handle.port();
    let served = (|| {
        // `pong` proves the accept loop runs, so the daemon's registry
        // is installed.
        let pong = submit(port, &Request::Ping).map_err(|e| format!("ping: {e}"))?;
        if pong.len() != 1 {
            return Err(format!("ping answered {pong:?}"));
        }
        for n in networks(ctx.size) {
            warm(
                port,
                &Request::Compress {
                    model: n.to_string(),
                    m: 6,
                    qat: 0,
                    seed: 42,
                    layers: false,
                },
            )?;
        }
        for r in reports(ctx.size) {
            warm(
                port,
                &Request::Report {
                    experiment: (*r).to_string(),
                },
            )?;
        }
        let setup_s = ctx.started.elapsed().as_secs_f64();
        // The daemon installs its own registry for its lifetime.
        let daemon = escalate_obs::global().ok_or("daemon installed no registry")?;
        let before = daemon.snapshot();
        let (done, wall) = closed_loop(port, &jobs);
        let after = daemon.snapshot();
        let mut delta = Tally::default();
        delta.add(&after, 1.0);
        delta.add(&before, -1.0);
        Ok::<_, String>((setup_s, done, wall, delta))
    })();
    let shutdown = submit(port, &Request::Shutdown).map_err(|e| format!("shutdown: {e}"));
    let joined = handle.join();
    let (setup_s, done, wall, delta) = served?;
    shutdown?;
    joined?;

    for job in &done {
        let ok = job.ok
            && job
                .output
                .as_deref()
                .is_some_and(|text| matches_reference(&request_key(&job.req), text));
        out.check(ok);
    }
    let ok_jobs: Vec<&Job> = done.iter().filter(|j| j.ok).collect();
    let latency: Vec<f64> = ok_jobs.iter().map(|j| j.latency_ms).collect();
    out.info_num("job_samples", latency.len());
    if ctx.trace {
        return run_traced(ctx, out, &done, wall, &delta);
    }
    let jobs_per_s = ratio(ok_jobs.len() as f64, wall);
    let (p50, p90) = (quantile(&latency, 0.5), quantile(&latency, 0.9));
    let m = &mut out.metrics;
    m.set("setup_s", "s", setup_s);
    m.set("wall_s", "s", wall);
    m.set("throughput_per_s", "1/s", jobs_per_s);
    m.set("latency_p50_ms", "ms", p50);
    m.set("latency_p90_ms", "ms", p90);
    m.set("peak_rss_mb", "MB", crate::common::peak_rss_mb());
    m.set("job_p50_ms", "ms", p50);
    m.set("job_p90_ms", "ms", p90);
    m.set("jobs_per_s", "1/s", jobs_per_s);
    Ok(out)
}

/// Traced run: the client-side phase split and the daemon's own counters
/// from the run above, plus a replay of each distinct simulate job through
/// the benchmark-side composition (untraced, then traced), weighted by how
/// often the mix sent it. The replay's output must equal what the daemon
/// served for the same request.
fn run_traced(
    ctx: &Ctx,
    mut out: Outcome,
    done: &[Job],
    wall: f64,
    delta: &Tally,
) -> Result<Outcome, String> {
    let ok: Vec<&Job> = done.iter().filter(|j| j.ok).collect();
    let queue_wait: Vec<f64> = ok
        .iter()
        .map(|j| (j.latency_ms - j.exec_ms).max(0.0))
        .collect();
    let exec: Vec<f64> = ok.iter().map(|j| j.exec_ms).collect();
    let first_unit: Vec<f64> = ok.iter().filter_map(|j| j.first_unit_ms).collect();
    let stream: Vec<f64> = ok.iter().filter_map(|j| j.stream_ms).collect();
    let serve = vec![
        ("serve.queue_wait_ms.p50", median(&queue_wait)),
        ("serve.queue_wait_ms.p90", quantile(&queue_wait, 0.9)),
        ("serve.exec_ms.p50", median(&exec)),
        ("serve.exec_ms.p90", quantile(&exec, 0.9)),
        ("serve.first_unit_ms.p50", median(&first_unit)),
        ("serve.stream_ms.p50", median(&stream)),
        (
            "serve.jobs_coalesced",
            delta.counter("serve.jobs_coalesced"),
        ),
        (
            "serve.rejected",
            done.iter().map(|j| j.rejected as f64).sum(),
        ),
    ];

    // Replay each distinct simulate job once, weighted by its count: the
    // request, how often it was sent, and one served output.
    let mut counts: BTreeMap<String, (&str, &str, f64, Option<&str>)> = BTreeMap::new();
    for job in done {
        let Request::Simulate {
            model, schedule, ..
        } = &job.req
        else {
            continue;
        };
        let e = counts
            .entry(request_key(&job.req))
            .or_insert((model, schedule, 0.0, None));
        e.2 += 1.0;
        if e.3.is_none() {
            e.3 = job.output.as_deref();
        }
    }
    let mut replay = Tally::default();
    let (mut wall_u, mut wall_t) = (0.0, 0.0);
    for (model, schedule, count, served) in counts.values() {
        let cfg = SimConfig {
            schedule: ScheduleKind::parse(schedule)?,
            ..cold::sim_config()
        };
        let profile = escalate_models::resolve(model).map_err(|e| e.to_string())?;
        let start = Instant::now();
        cold::one_shot(&profile, &cfg)?;
        wall_u += start.elapsed().as_secs_f64() * count;

        let reg = Arc::new(Registry::new());
        escalate_obs::install(Arc::clone(&reg));
        let start = Instant::now();
        let text = timed(&reg, "perfbench.resolve", || {
            escalate_models::resolve(model)
        })
        .map_err(|e| e.to_string())
        .and_then(|p| traced::simulate(&reg, &p, &cfg, INPUT_SEEDS));
        wall_t += start.elapsed().as_secs_f64() * count;
        escalate_obs::uninstall();
        out.check(matches!((&text, served), (Ok(t), Some(s)) if t == s));
        replay.add(&reg.snapshot(), *count);
    }
    // Program spans and counters come from the daemon's own registry for
    // the timed phase; the replay contributes only benchmark-side spans.
    let mut tally = delta.clone();
    for (k, v) in replay
        .spans
        .iter()
        .filter(|(k, _)| k.starts_with("perfbench."))
    {
        tally.spans.insert(k.clone(), *v);
    }
    let profiles = networks(ctx.size)
        .iter()
        .map(|n| escalate_models::resolve(n).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let layers = traced::layer_times(&profiles, &cold::sim_config())?;
    let executing = delta.spans_with_prefix("serve.job/") / 1e3;
    let extras = Extras {
        overhead_frac: ratio(wall_t, wall_u) - 1.0,
        unattributed_frac: 1.0 - executing / wall,
        layers,
        serve,
    };
    traced::finish(&mut out, &tally, extras, wall_t, wall_u);
    Ok(out)
}
