//! A seeded traffic generator proving the daemon under load: an
//! in-process server, a deterministic request mix over the model zoo,
//! and a latency/throughput summary. It is the only open-loop driver;
//! the benchmark's `serve_warm` workload drives the daemon closed-loop.
//!
//! The *schedule* (verbs, models, arrival offsets) is fully determined
//! by the seed; the measured latencies of course are not.

use crate::client::submit;
use crate::proto::{Request, RETRY_AFTER_MS};
use crate::server::{start, ServeOptions};
use escalate_bench::plan::splitmix64;
use escalate_obs::json_string_field;
use std::time::{Duration, Instant};

/// How the load run is shaped.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Total requests to send.
    pub jobs: usize,
    /// Schedule seed (verb mix, model mix, arrival offsets).
    pub seed: u64,
    /// Daemon worker threads.
    pub workers: usize,
    /// Daemon queue capacity (small enough to exercise backpressure).
    pub queue: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            jobs: 24,
            seed: 42,
            workers: 2,
            queue: 4,
        }
    }
}

/// What the load run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests sent.
    pub jobs: usize,
    /// Requests that reached a `done` frame.
    pub done: usize,
    /// Requests that ended in an `error` frame (or I/O failure).
    pub failed: usize,
    /// Backpressure retries across all requests (`rejected` frames).
    pub retries: usize,
    /// Wall-clock for the whole run, ms.
    pub wall_ms: f64,
    /// Median submit→done latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile submit→done latency, ms.
    pub p99_ms: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Daemon worker threads.
    pub workers: usize,
    /// Daemon queue capacity.
    pub queue: usize,
}

/// One scheduled request: what to send and when (offset from run start).
struct Slot {
    at: Duration,
    req: Request,
}

/// Builds the deterministic schedule: ~70% `simulate` (one seed each) /
/// ~30% `compress`, round-robin-ish over the model zoo, inter-arrival
/// draws uniform in 0..120 ms.
fn schedule(jobs: usize, seed: u64) -> Vec<Slot> {
    let zoo: Vec<String> = escalate_models::zoo_names();
    let mut rng = seed;
    let mut at = Duration::ZERO;
    (0..jobs)
        .map(|_| {
            at += Duration::from_millis(splitmix64(&mut rng) % 120);
            let model = zoo[(splitmix64(&mut rng) as usize) % zoo.len()].to_string();
            let req = if splitmix64(&mut rng) % 10 < 7 {
                Request::Simulate {
                    model,
                    m: 6,
                    seeds: 1,
                    schedule: "serial".into(),
                }
            } else {
                Request::Compress {
                    model,
                    m: 6,
                    qat: 0,
                    seed: 42,
                    layers: false,
                }
            };
            Slot { at, req }
        })
        .collect()
}

/// What one request experienced end to end.
struct Outcome {
    done: bool,
    retries: usize,
    latency: Duration,
}

/// Submits one scheduled request, honouring `rejected` backpressure by
/// waiting `retry_after_ms` and retrying (bounded). Latency runs from
/// the *first* submit attempt to the terminal frame — a rejected job's
/// queue wait is part of what the client experienced.
fn drive(port: u16, req: &Request) -> Outcome {
    const MAX_ATTEMPTS: usize = 200;
    let started = Instant::now();
    let mut retries = 0usize;
    for _ in 0..MAX_ATTEMPTS {
        let frames = match submit(port, req) {
            Ok(f) => f,
            Err(_) => break,
        };
        match frames
            .last()
            .and_then(|f| json_string_field(f, "type"))
            .as_deref()
        {
            Some("done") => {
                return Outcome {
                    done: true,
                    retries,
                    latency: started.elapsed(),
                }
            }
            Some("rejected") => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(RETRY_AFTER_MS));
            }
            _ => break,
        }
    }
    Outcome {
        done: false,
        retries,
        latency: started.elapsed(),
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Runs the whole load experiment: start an in-process daemon, fire the
/// seeded schedule (one thread per request, sleeping to its arrival
/// offset), drain, shut the daemon down, and summarize.
///
/// # Errors
///
/// Returns daemon startup/shutdown failures.
pub fn run_loadgen(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    let handle = start(ServeOptions {
        port: 0,
        workers: opts.workers,
        queue: opts.queue,
        cache: None,
        port_file: None,
    })?;
    let port = handle.port();

    let started = Instant::now();
    let threads: Vec<_> = schedule(opts.jobs, opts.seed)
        .into_iter()
        .map(|slot| {
            std::thread::spawn(move || {
                let now = started.elapsed();
                if slot.at > now {
                    std::thread::sleep(slot.at - now);
                }
                drive(port, &slot.req)
            })
        })
        .collect();
    let outcomes: Vec<Outcome> = threads
        .into_iter()
        .map(|t| t.join().expect("loadgen thread panicked"))
        .collect();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    submit(port, &Request::Shutdown).map_err(|e| format!("shutdown failed: {e}"))?;
    handle.join()?;

    let mut latencies_ms: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.done)
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let done = latencies_ms.len();
    Ok(LoadgenReport {
        jobs: opts.jobs,
        done,
        failed: opts.jobs - done,
        retries: outcomes.iter().map(|o| o.retries).sum(),
        wall_ms,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        jobs_per_sec: done as f64 / (wall_ms / 1e3).max(1e-9),
        workers: opts.workers,
        queue: opts.queue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_deterministic_in_the_seed() {
        let a = schedule(16, 7);
        let b = schedule(16, 7);
        let c = schedule(16, 8);
        assert_eq!(a.len(), 16);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.req == y.req));
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.req != y.req || x.at != y.at),
            "a different seed draws a different schedule"
        );
        assert!(
            a.iter().all(|s| s.req.is_job()),
            "the schedule only submits job verbs"
        );
    }

    #[test]
    fn percentiles_pick_from_the_sorted_tail() {
        let ms = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&ms, 0.50), 3.0);
        assert_eq!(percentile(&ms, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }
}
