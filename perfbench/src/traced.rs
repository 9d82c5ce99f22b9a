//! The traced path. Spans are recorded from the benchmark's side, around
//! the calls into each crate's public functions, into a registry the
//! benchmark owns; the program's own spans and counters (pipeline stages,
//! `ca.kernel`, cache counters) land in the same registry when it is
//! installed. Nothing here changes what the program computes: the traced
//! composition below renders byte-identical output to `run_model` with
//! one thread, which every caller checks.

use crate::common::{
    json_string, quantile_sorted, ratio, Metrics, Outcome, Tally, PER_LAYER, UNATTRIBUTED_BOUND,
};
use escalate_baselines::{BaselineSim, BaselineWorkload, Eyeriss, Scnn, SparTen};
use escalate_bench::{compress_cached, render::render_simulate, run_accelerator, ModelRun};
use escalate_core::pipeline::CompressionConfig;
use escalate_energy::BufferCaps;
use escalate_models::ModelProfile;
use escalate_obs::Registry;
use escalate_sim::{
    Accelerator, Escalate, LayerStats, ModelStats, ScheduleKind, SimConfig, Workload,
};
use std::time::Instant;

/// Runs `f`, recording its wall time under `name` in `reg`.
pub fn timed<T>(reg: &Registry, name: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    reg.record_span_ns(name, start.elapsed().as_nanos() as u64);
    out
}

/// An [`Accelerator`] that times each whole-model `simulate` call of the
/// accelerator it wraps and otherwise delegates.
struct Timed<'a> {
    inner: &'a dyn Accelerator,
    reg: &'a Registry,
    span: &'static str,
}

impl Accelerator for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn model_name(&self) -> String {
        self.inner.model_name()
    }

    fn num_layers(&self) -> usize {
        self.inner.num_layers()
    }

    fn simulate_layer(&self, index: usize, seed: u64) -> LayerStats {
        self.inner.simulate_layer(index, seed)
    }

    fn simulate(&self, seed: u64, threads: usize) -> ModelStats {
        timed(self.reg, self.span, || self.inner.simulate(seed, threads))
    }
}

/// Top-level benchmark spans: disjoint calls whose sum must account for
/// the traced wall time of a simulate.
pub const TOP_LEVEL: &[&str] = &[
    "perfbench.resolve",
    "perfbench.compress",
    "perfbench.workload_build",
    "perfbench.run_accelerator",
    "perfbench.baseline_workload",
    "perfbench.render",
];

/// The four-accelerator comparison of `escalate simulate --threads 1`,
/// composed from the crates' public functions in `run_model`'s order with
/// a timer around each call. Returns the rendered table.
///
/// # Errors
///
/// Propagates compression failures as text.
pub fn simulate(
    reg: &Registry,
    profile: &ModelProfile,
    cfg: &SimConfig,
    seeds: u64,
) -> Result<String, String> {
    escalate_core::par::configure_threads(cfg.threads);
    let compression = CompressionConfig {
        m: cfg.m,
        ..CompressionConfig::default()
    };
    let artifacts = timed(reg, "perfbench.compress", || {
        compress_cached(profile, &compression)
    })
    .map_err(|e| e.to_string())?;
    let workload = timed(reg, "perfbench.workload_build", || {
        Workload::from_artifacts(&profile.name, &artifacts, profile)
    });
    let run = |acc: &dyn Accelerator, span: &'static str, caps: &BufferCaps| {
        timed(reg, "perfbench.run_accelerator", || {
            run_accelerator(
                &Timed {
                    inner: acc,
                    reg,
                    span,
                },
                caps,
                seeds,
                cfg.threads,
            )
        })
    };
    let escalate_span = match cfg.schedule {
        ScheduleKind::LayerSerial => "perfbench.escalate",
        ScheduleKind::Pipelined => "perfbench.escalate_pipelined",
    };
    let escalate = run(
        &Escalate::new(&workload, cfg),
        escalate_span,
        &BufferCaps::from_config(cfg),
    );
    let bw = timed(reg, "perfbench.baseline_workload", || {
        BaselineWorkload::for_profile(profile)
    });
    let caps = BufferCaps::baseline(64 * 1024);
    let (eyeriss, scnn, sparten) = (Eyeriss::default(), Scnn::default(), SparTen::default());
    let run = ModelRun {
        model: profile.name.clone(),
        escalate,
        eyeriss: run(&BaselineSim::new(&eyeriss, &bw), "perfbench.eyeriss", &caps),
        scnn: run(&BaselineSim::new(&scnn, &bw), "perfbench.scnn", &caps),
        sparten: run(&BaselineSim::new(&sparten, &bw), "perfbench.sparten", &caps),
    };
    Ok(timed(reg, "perfbench.render", || {
        render_simulate(&run, cfg)
    }))
}

/// Host time of one ESCALATE network layer.
#[derive(Debug, Clone)]
pub struct LayerTime {
    /// Network spec.
    pub network: String,
    /// Layer name.
    pub layer: String,
    /// Host microseconds of `Escalate::simulate_layer(i, 0)`.
    pub us: f64,
}

/// Times `Escalate::simulate_layer(i, 0)` for every layer of every
/// network (compressing through the artifact cache first), untraced.
///
/// # Errors
///
/// Propagates compression failures as text.
pub fn layer_times(profiles: &[ModelProfile], cfg: &SimConfig) -> Result<Vec<LayerTime>, String> {
    let mut out = Vec::new();
    for profile in profiles {
        let compression = CompressionConfig {
            m: cfg.m,
            ..CompressionConfig::default()
        };
        let artifacts = compress_cached(profile, &compression).map_err(|e| e.to_string())?;
        let workload = Workload::from_artifacts(&profile.name, &artifacts, profile);
        let acc = Escalate::new(&workload, cfg);
        for (i, layer) in workload.layers.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(acc.simulate_layer(i, 0));
            out.push(LayerTime {
                network: profile.name.clone(),
                layer: layer.name.clone(),
                us: start.elapsed().as_secs_f64() * 1e6,
            });
        }
    }
    Ok(out)
}

/// Client-side serve numbers and run-level ratios the registry cannot
/// hold, passed into [`per_layer`].
#[derive(Debug, Default)]
pub struct Extras {
    /// `sim.layer_host_us` samples.
    pub layers: Vec<LayerTime>,
    /// Traced ÷ untraced wall time − 1.
    pub overhead_frac: f64,
    /// Share of the traced wall time no top-level span covers.
    pub unattributed_frac: f64,
    /// Serve client metrics (already final values), by catalogue name.
    pub serve: Vec<(&'static str, f64)>,
}

/// Builds every [`PER_LAYER`] metric from a tally of benchmark-side and
/// program spans/counters. Layers a workload never enters read 0.
fn per_layer(t: &Tally, extras: &Extras) -> Metrics {
    let mut m = Metrics::default();
    let hit_ratio = |hits: &str, misses: &str| {
        let (h, x) = (t.counter(hits), t.counter(misses));
        ratio(h, h + x)
    };
    let simulated = [
        "perfbench.escalate",
        "perfbench.escalate_pipelined",
        "perfbench.eyeriss",
        "perfbench.scnn",
        "perfbench.sparten",
    ]
    .iter()
    .map(|s| t.span(s))
    .sum::<f64>();
    // A run that bypasses the benchmark-side composition (the sweep calls
    // `run_sweep` whole) attributes ESCALATE to the program's own
    // per-accelerator span, which also covers its energy pricing.
    let escalate_ms = if t.spans.contains_key("perfbench.escalate")
        || t.spans.contains_key("perfbench.escalate_pipelined")
    {
        t.span("perfbench.escalate") + t.span("perfbench.escalate_pipelined")
    } else {
        t.span("bench.accelerator/ESCALATE")
    };
    let kernel_ms = t.span("ca.kernel");
    let mut us: Vec<f64> = extras.layers.iter().map(|l| l.us).collect();
    us.sort_by(f64::total_cmp);
    let values: Vec<(&str, f64)> = vec![
        ("models.resolve_ms", t.span("perfbench.resolve")),
        (
            "pipeline.compress_ms",
            t.spans_with_prefix("pipeline.compress_model/"),
        ),
        ("pipeline.synth_ms", t.span("pipeline.synth")),
        ("pipeline.decompose_ms", t.span("pipeline.decompose")),
        ("pipeline.quant_ms", t.span("pipeline.quant")),
        ("pipeline.reconstruct_ms", t.span("pipeline.reconstruct")),
        ("pipeline.synth_hits", t.counter("pipeline.synth_hits")),
        ("pipeline.synth_misses", t.counter("pipeline.synth_misses")),
        ("pipeline.unit_hits", t.counter("pipeline.unit_hits")),
        ("pipeline.unit_misses", t.counter("pipeline.unit_misses")),
        ("bench.cache_hits", t.counter("bench.cache_hits")),
        ("bench.cache_misses", t.counter("bench.cache_misses")),
        ("bench.cache_evictions", t.counter("bench.cache_evictions")),
        (
            "bench.cache_hit_ratio",
            hit_ratio("bench.cache_hits", "bench.cache_misses"),
        ),
        ("sim.workload_build_ms", t.span("perfbench.workload_build")),
        ("sim.escalate_ms", escalate_ms),
        ("sim.kernel_ms", kernel_ms),
        ("sim.positions_walked", t.counter("sim.positions_walked")),
        (
            "sim.positions_per_s",
            ratio(t.counter("sim.positions_walked"), kernel_ms / 1e3),
        ),
        ("ca.plan_compiles", t.counter("ca.plan_compiles")),
        ("ca.plan_reuses", t.counter("ca.plan_reuses")),
        (
            "ca.plan_reuse_ratio",
            hit_ratio("ca.plan_reuses", "ca.plan_compiles"),
        ),
        ("sim.layer_host_us.p50", quantile_sorted(&us, 0.5)),
        ("sim.layer_host_us.p90", quantile_sorted(&us, 0.9)),
        ("sim.layer_host_us.max", us.last().copied().unwrap_or(0.0)),
        ("sweep.derived_hits", t.counter("sweep.derived_hits")),
        ("sweep.derived_misses", t.counter("sweep.derived_misses")),
        (
            "sweep.derived_evictions",
            t.counter("sweep.derived_evictions"),
        ),
        ("sweep.walk_hits", t.counter("sweep.walk_hits")),
        (
            "sweep.derived_hit_ratio",
            hit_ratio("sweep.derived_hits", "sweep.derived_misses"),
        ),
        ("sim.pipelined_ms", t.span("perfbench.escalate_pipelined")),
        ("baselines.eyeriss_ms", t.span("perfbench.eyeriss")),
        ("baselines.scnn_ms", t.span("perfbench.scnn")),
        ("baselines.sparten_ms", t.span("perfbench.sparten")),
        (
            "energy.model_energy_ms",
            (t.span("perfbench.run_accelerator") - simulated).max(0.0),
        ),
        ("render.ms", t.span("perfbench.render")),
        (
            "sweep.frontier_comparisons",
            t.counter("sweep.frontier_comparisons"),
        ),
        ("obs.overhead_frac", extras.overhead_frac),
        ("unattributed_frac", extras.unattributed_frac),
    ];
    for (name, value) in values.into_iter().chain(extras.serve.iter().copied()) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("count", |(_, u)| *u);
        m.set(name, unit, value);
    }
    for (name, unit) in PER_LAYER {
        if m.get(name).is_none() {
            m.set(name, unit, 0.0);
        }
    }
    m
}

/// Shared tail of every traced run: per-layer metrics, the reconciliation
/// check (outside its bound it counts as a failed check), and the slowest
/// layers for the record. `wall_t` and `wall_u` are the traced and
/// untraced wall times behind `obs.overhead_frac`.
pub fn finish(out: &mut Outcome, tally: &Tally, extras: Extras, wall_t: f64, wall_u: f64) {
    out.info_num("traced_wall_s", wall_t);
    out.info_num("untraced_wall_s", wall_u);
    out.info_num("unattributed_bound", UNATTRIBUTED_BOUND);
    out.info
        .push(("slowest_layers".to_string(), slowest_layers(&extras.layers)));
    out.info_num("layer_samples", extras.layers.len());
    out.check(extras.unattributed_frac.abs() <= UNATTRIBUTED_BOUND);
    out.metrics = per_layer(tally, &extras);
}

/// The five slowest `(network, layer)` pairs, rendered for the record.
fn slowest_layers(layers: &[LayerTime]) -> String {
    let mut v: Vec<&LayerTime> = layers.iter().collect();
    v.sort_by(|a, b| b.us.total_cmp(&a.us));
    let items: Vec<String> = v
        .iter()
        .take(5)
        .map(|l| {
            format!(
                "{{\"network\": {}, \"layer\": {}, \"us\": {:.1}}}",
                json_string(&l.network),
                json_string(&l.layer),
                l.us
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}
