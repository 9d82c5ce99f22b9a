//! Shared plumbing: the metric catalogue, summary statistics, output
//! digests, the recorded references, provenance, and the child-process
//! protocol the cold workloads use.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// End-to-end metrics: every workload reports each of these on the
/// result line of an untraced run (`--trace 0`), in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every workload reports each of these on the result
/// line of a traced run (`--trace 1`); a layer the workload never enters
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.resolve_ms", "ms"),
    ("pipeline.compress_ms", "ms"),
    ("pipeline.synth_ms", "ms"),
    ("pipeline.decompose_ms", "ms"),
    ("pipeline.quant_ms", "ms"),
    ("pipeline.reconstruct_ms", "ms"),
    ("pipeline.synth_hits", "count"),
    ("pipeline.synth_misses", "count"),
    ("pipeline.unit_hits", "count"),
    ("pipeline.unit_misses", "count"),
    ("bench.cache_hits", "count"),
    ("bench.cache_misses", "count"),
    ("bench.cache_evictions", "count"),
    ("bench.cache_hit_ratio", "ratio"),
    ("sim.workload_build_ms", "ms"),
    ("sim.escalate_ms", "ms"),
    ("sim.kernel_ms", "ms"),
    ("sim.positions_walked", "count"),
    ("sim.positions_per_s", "1/s"),
    ("ca.plan_compiles", "count"),
    ("ca.plan_reuses", "count"),
    ("ca.plan_reuse_ratio", "ratio"),
    ("sim.layer_host_us.p50", "us"),
    ("sim.layer_host_us.p90", "us"),
    ("sim.layer_host_us.max", "us"),
    ("sweep.derived_hits", "count"),
    ("sweep.derived_misses", "count"),
    ("sweep.derived_evictions", "count"),
    ("sweep.walk_hits", "count"),
    ("sweep.derived_hit_ratio", "ratio"),
    ("sim.pipelined_ms", "ms"),
    ("baselines.eyeriss_ms", "ms"),
    ("baselines.scnn_ms", "ms"),
    ("baselines.sparten_ms", "ms"),
    ("energy.model_energy_ms", "ms"),
    ("render.ms", "ms"),
    ("sweep.frontier_comparisons", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.exec_ms.p90", "ms"),
    ("serve.first_unit_ms.p50", "ms"),
    ("serve.stream_ms.p50", "ms"),
    ("serve.jobs_coalesced", "count"),
    ("serve.rejected", "count"),
    ("obs.overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
];

/// Input seeds every simulate averages over: the CLI default (10).
pub const INPUT_SEEDS: u64 = escalate_bench::DEFAULT_INPUT_SEEDS;

/// Bound on `unattributed_frac`: the traced per-layer self times must
/// cover all but this share of the traced wall time.
pub const UNATTRIBUTED_BOUND: f64 = 0.15;

/// Benchmark scale. `Full` is the defined workload; `Smoke` is the
/// minimal version of each workload the smoke test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload as defined.
    Full,
    /// Minimal inputs: generated networks only.
    Smoke,
}

impl Size {
    /// Parses `full` or `smoke`.
    pub fn parse(s: &str) -> Result<Size, String> {
        match s {
            "full" => Ok(Size::Full),
            "smoke" => Ok(Size::Smoke),
            other => Err(format!("unknown size {other:?} (expected full or smoke)")),
        }
    }

    /// The spelling [`Size::parse`] accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed (permutes or draws the inputs).
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// When `main` started (the serve workload's set-up begins here).
    pub started: Instant,
}

/// Named measurements with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    /// Adds (or replaces) one metric.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), unit, value),
            None => self.0.push((name.to_string(), unit, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.2)
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}` for the given
    /// names (every metric when `only` is `None`).
    pub fn to_json(&self, only: Option<&[(&str, &str)]>) -> String {
        let entry = |(name, unit, value): &(String, &str, f64)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        };
        let parts: Vec<String> = match only {
            None => self.0.iter().map(entry).collect(),
            Some(list) => list
                .iter()
                .map(|(name, unit)| {
                    let value = self.get(name).unwrap_or(0.0);
                    entry(&(name.to_string(), unit, value))
                })
                .collect(),
        };
        format!("{{{}}}", parts.join(", "))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a refusal, or an output that
    /// differs from its reference.
    pub failed: u64,
    /// Every metric measured (end-to-end or per-layer, plus the
    /// workload-specific names the record carries).
    pub metrics: Metrics,
    /// Extra record fields: key and already-rendered JSON value.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds a record field holding a JSON string.
    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info.push((key.to_string(), json_string(value)));
    }

    /// Adds a record field holding a JSON number.
    pub fn info_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Adds the provenance fields every record carries.
    pub fn provenance(&mut self, ctx: &Ctx, inputs: usize) {
        self.info_str("git_rev", &git_rev());
        self.info_num("host_cores", host_cores());
        self.info_num("seed", ctx.seed);
        self.info_num("seconds", ctx.seconds);
        self.info_str("size", ctx.size.as_str());
        self.info_num("inputs", inputs);
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut w = escalate_obs::JsonWriter::new();
    w.string(s);
    w.finish()
}

/// Linear-interpolation quantile of an ascending slice (0 when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 64-bit FNV-1a of `text`, as 16 hex digits: the digest outputs are
/// compared by.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The reference digests recorded from the repository at the revision the
/// benchmark was defined on (`perfbench record` rewrites the file).
const REFERENCE: &str = include_str!("../reference/digests.txt");

/// The recorded digest for `key`, if any.
pub fn reference(key: &str) -> Option<&'static str> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .map(|(_, d)| d.trim())
}

/// Whether `text` matches the reference recorded under `key`; a missing
/// reference is a mismatch.
pub fn matches_reference(key: &str, text: &str) -> bool {
    reference(key) == Some(digest(text).as_str())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Short revision of the checkout, or `unknown` when the checkout root
/// is not a git tree (git may not look above it).
pub fn git_rev() -> String {
    let bench_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let above_root = bench_dir
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap_or(bench_dir);
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(bench_dir)
        .env("GIT_CEILING_DIRECTORIES", above_root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Directory for stream files the workloads write (inside the benchmark
/// directory, ignored by git).
pub fn tmp_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A deterministic permutation of `0..n` drawn from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// SplitMix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether another round fits the budget: rounds stop at the count whose
/// total lands nearest `seconds`, with at least one.
pub fn another_round(elapsed: f64, rounds: usize, seconds: f64) -> bool {
    if rounds == 0 {
        return true;
    }
    let per_round = elapsed / rounds as f64;
    // Stay well inside the 180 s a run may take.
    elapsed + per_round <= (seconds + per_round / 2.0).min(150.0)
}

/// A child process of this binary running one cold round, speaking the
/// line protocol: `ready` once set-up is done, then workload lines.
pub struct Worker {
    child: Child,
    lines: std::io::Lines<BufReader<ChildStdout>>,
}

impl Worker {
    /// Spawns `perfbench <args>` and waits for its `ready` line. Returns
    /// the worker and its set-up time: process start plus whatever the
    /// child prepares before `ready`.
    pub fn spawn(args: &[String]) -> Result<(Worker, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut worker = Worker {
            child,
            lines: BufReader::new(stdout).lines(),
        };
        match worker.next_line()? {
            Some(l) if l == "ready" => Ok((worker, started.elapsed().as_secs_f64())),
            other => {
                let _ = worker.finish();
                Err(format!("worker did not start: {other:?}"))
            }
        }
    }

    /// The next protocol line, or `None` at end of output.
    pub fn next_line(&mut self) -> Result<Option<String>, String> {
        self.lines
            .next()
            .transpose()
            .map_err(|e| format!("worker output: {e}"))
    }

    /// Waits for the child to exit; fails unless it exited cleanly.
    pub fn finish(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| format!("worker wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("worker exited with {status}"))
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // A worker abandoned on an error path must not outlive the run.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Set-up-only workers per run, half before and half after the measured
/// rounds, so `setup_s` is a median of many process starts rather than
/// of the few rounds that fit.
pub const SETUP_PROBES: usize = 30;

/// Set-up times of `n` set-up-only workers, the `i`-th started with
/// `args(i)`. A short pause before each keeps one start from running in
/// the wake of the previous one.
pub fn setup_probes(n: usize, args: impl Fn(usize) -> Vec<String>) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|i| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let (w, setup_s) = Worker::spawn(&args(i))?;
            w.finish()?;
            Ok(setup_s)
        })
        .collect()
}

/// Child side of the protocol: announces that set-up is done.
pub fn announce_ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}

/// Splits a protocol line into its tag and fields.
pub fn fields(line: &str) -> (&str, Vec<&str>) {
    let mut it = line.split(' ');
    let tag = it.next().unwrap_or("");
    (tag, it.collect())
}

/// Parses one numeric protocol field.
pub fn num(field: Option<&&str>) -> Result<f64, String> {
    field
        .and_then(|f| f.parse::<f64>().ok())
        .ok_or_else(|| format!("bad worker field {field:?}"))
}

/// Sums of spans (ms) and counters, built from registry snapshots.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Span totals in milliseconds by name.
    pub spans: BTreeMap<String, f64>,
    /// Counter values by name.
    pub counters: BTreeMap<String, f64>,
}

impl Tally {
    /// Adds `weight` × every span and counter of `snap`.
    pub fn add(&mut self, snap: &escalate_obs::Snapshot, weight: f64) {
        for (k, s) in &snap.spans {
            *self.spans.entry(k.clone()).or_default() += s.total_ms() * weight;
        }
        for (k, v) in &snap.counters {
            *self.counters.entry(k.clone()).or_default() += *v as f64 * weight;
        }
    }

    /// Total of one span, ms.
    pub fn span(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0)
    }

    /// Total of every span whose name starts with `prefix`, ms.
    pub fn spans_with_prefix(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// One counter.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}
