//! The accelerator abstraction the whole harness runs through.
//!
//! An [`Accelerator`] is a model-bound simulator instance: it knows how
//! many layers its workload has and how to produce [`LayerStats`] for any
//! one of them. The provided [`Accelerator::simulate`] is the *single*
//! fold from per-layer stats into [`ModelStats`] — ESCALATE and every
//! baseline in `escalate-baselines` go through it, so the seed-averaging
//! harness in `escalate-bench` treats all designs uniformly through one
//! `&dyn Accelerator` runner.
//!
//! The trait is object-safe and `Sync`: harnesses iterate heterogeneous
//! accelerator lists and fan input seeds out across threads against a
//! shared instance.

use crate::config::{ScheduleKind, SimConfig};
use crate::engine::simulate_layer;
use crate::stats::{LayerStats, ModelStats, PipelineStats};
use crate::workload::Workload;
use rayon::prelude::*;

/// A model-bound accelerator simulator.
pub trait Accelerator: Sync {
    /// Accelerator display name (e.g. `"ESCALATE"`, `"Eyeriss"`).
    fn name(&self) -> &str;

    /// The `ModelStats::model_name` tag for this run. Defaults to the
    /// lower-cased accelerator name (the baselines' convention); ESCALATE
    /// overrides it with the workload's model name.
    fn model_name(&self) -> String {
        self.name().to_lowercase()
    }

    /// Number of layers in the bound workload.
    fn num_layers(&self) -> usize;

    /// Simulates one layer. `seed` selects the synthetic input draw;
    /// deterministic accelerator models ignore it.
    fn simulate_layer(&self, index: usize, seed: u64) -> LayerStats;

    /// Simulates the whole model: the one fold from per-layer stats into
    /// [`ModelStats`]. Layers are independent, so with `threads != 1` they
    /// fan out over the global pool and reassemble in execution order —
    /// bit-identical to the sequential walk. The default is the
    /// layer-serial schedule; ESCALATE overrides this to dispatch on
    /// [`SimConfig::schedule`].
    fn simulate(&self, seed: u64, threads: usize) -> ModelStats {
        serial_fold(self, seed, threads)
    }
}

/// The one per-layer fold every schedule builds on: simulate each layer
/// independently and reassemble in execution order (sequentially or over
/// the global pool — bit-identical either way).
fn serial_fold<A: Accelerator + ?Sized>(acc: &A, seed: u64, threads: usize) -> ModelStats {
    let layers = if threads == 1 {
        (0..acc.num_layers())
            .map(|i| acc.simulate_layer(i, seed))
            .collect()
    } else {
        (0..acc.num_layers())
            .into_par_iter()
            .map(|i| acc.simulate_layer(i, seed))
            .collect()
    };
    ModelStats {
        model_name: acc.model_name(),
        layers,
        pipeline: None,
    }
}

/// Analytic steady-state model of the layer-pipelined schedule, built on
/// the per-layer results of the serial fold (whose cycles assume the full
/// PE array):
///
/// 1. consecutive layers group into `min(layers, N_PE/2)` stages, closing
///    a stage once it holds its proportional share of the remaining work
///    (capping at half the array keeps the one-PE-minimum grants from
///    consuming every PE, which would strand a dominant layer on a
///    single PE);
/// 2. each stage is allocated PEs proportionally to its work
///    (water-filling, at least one PE each, summing to `N_PE`), and its
///    time scales by `N_PE / allocated` — work-proportional slowdown;
/// 3. each stage boundary hands its producer's compressed OFM to the
///    consumer; when it exceeds the on-chip handoff capacity (the
///    distributed input buffers plus the output buffer) the boundary
///    spills through DRAM and the producer pays the write + re-read;
/// 4. the initiation interval is the slowest stage; fill latency is the
///    stage sum; stall cycles are the slack the interval leaves in every
///    other stage.
///
/// Emits `sim.pipeline_stalls` and a `sim.stage_occupancy_bytes`
/// histogram through `escalate-obs`.
fn pipeline_model(stats: &ModelStats, cfg: &SimConfig) -> PipelineStats {
    let n = stats.layers.len();
    if n == 0 {
        return PipelineStats::default();
    }
    let cycles: Vec<u64> = stats.layers.iter().map(|l| l.cycles).collect();
    let total: u64 = cycles.iter().sum();
    let stage_count = n.min((cfg.n_pe / 2).max(1));

    // 1. Group consecutive layers into work-balanced stages.
    let mut groups: Vec<std::ops::Range<usize>> = Vec::with_capacity(stage_count);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut done = 0u64;
    for (i, &layer_cycles) in cycles.iter().enumerate() {
        acc += layer_cycles;
        let groups_left = stage_count - groups.len();
        if groups_left <= 1 {
            continue;
        }
        // Close when this stage reached its share of the remaining work,
        // or when every remaining stage needs one of the remaining layers.
        let target = (total - done).div_ceil(groups_left as u64);
        let must_close = n - i - 1 == groups_left - 1;
        if acc >= target || must_close {
            groups.push(start..i + 1);
            start = i + 1;
            done += acc;
            acc = 0;
        }
    }
    groups.push(start..n);
    let works: Vec<u64> = groups
        .iter()
        .map(|g| cycles[g.clone()].iter().sum::<u64>().max(1))
        .collect();
    let total_work: u64 = works.iter().sum();

    // 2. Water-filling PE allocation proportional to stage work.
    let n_pe = cfg.n_pe.max(groups.len()) as u64;
    let mut alloc: Vec<u64> = works
        .iter()
        .map(|&w| ((n_pe as u128 * w as u128) / total_work as u128).max(1) as u64)
        .collect();
    let most_starved = |alloc: &[u64]| {
        // Largest work-per-PE; ties break on the earliest stage.
        (0..alloc.len())
            .max_by(|&a, &b| {
                (works[a] as u128 * alloc[b] as u128)
                    .cmp(&(works[b] as u128 * alloc[a] as u128))
                    .then(b.cmp(&a))
            })
            .expect("at least one stage")
    };
    while alloc.iter().sum::<u64>() > n_pe {
        // Reclaim from the most over-provisioned stage that can spare one.
        let i = (0..alloc.len())
            .filter(|&i| alloc[i] > 1)
            .min_by(|&a, &b| {
                (works[a] as u128 * alloc[b] as u128)
                    .cmp(&(works[b] as u128 * alloc[a] as u128))
                    .then(a.cmp(&b))
            })
            .expect("allocations exceed stage count");
        alloc[i] -= 1;
    }
    while alloc.iter().sum::<u64>() < n_pe {
        let i = most_starved(&alloc);
        alloc[i] += 1;
    }

    // 3. Stage times under the allocation, plus DRAM spills at
    // over-capacity boundaries.
    let mut times: Vec<u64> = works
        .iter()
        .zip(&alloc)
        .map(|(&w, &a)| ((w as u128 * n_pe as u128).div_ceil(a as u128)) as u64)
        .collect();
    let handoff_capacity = (cfg.total_input_buf_bytes() + cfg.output_buf_bytes) as u64;
    let mut spilled = 0u64;
    let mut spilled_bytes = 0u64;
    let mut peak = 0u64;
    for (i, g) in groups.iter().enumerate().take(groups.len() - 1) {
        let bytes = stats.layers[g.end - 1].dram.ofm;
        escalate_obs::observe("sim.stage_occupancy_bytes", bytes);
        peak = peak.max(bytes);
        if bytes > handoff_capacity {
            spilled += 1;
            spilled_bytes += bytes;
            let penalty = (2.0 * bytes as f64 / cfg.dram_bytes_per_cycle.max(1e-9)).ceil() as u64;
            times[i] += penalty;
        }
    }

    // 4. Interval, latency, and stage-balance stalls.
    let interval = *times.iter().max().expect("at least one stage");
    let latency: u64 = times.iter().sum();
    let stall: u64 = times.iter().map(|&t| interval - t).sum();
    escalate_obs::counter_add("sim.pipeline_stalls", stall);

    PipelineStats {
        stages: groups.len(),
        interval_cycles: interval,
        latency_cycles: latency,
        stall_cycles: stall,
        spilled_boundaries: spilled,
        spilled_bytes,
        peak_buffer_bytes: peak,
    }
}

/// ESCALATE itself as an [`Accelerator`]: the sampled engine bound to a
/// compressed-model workload and a [`SimConfig`].
pub struct Escalate<'a> {
    workload: &'a Workload,
    cfg: &'a SimConfig,
}

impl<'a> Escalate<'a> {
    /// Binds the engine to a workload and configuration.
    pub fn new(workload: &'a Workload, cfg: &'a SimConfig) -> Self {
        Escalate { workload, cfg }
    }
}

impl Accelerator for Escalate<'_> {
    fn name(&self) -> &str {
        "ESCALATE"
    }

    fn model_name(&self) -> String {
        self.workload.model_name.clone()
    }

    fn num_layers(&self) -> usize {
        self.workload.layers.len()
    }

    fn simulate_layer(&self, index: usize, seed: u64) -> LayerStats {
        simulate_layer(&self.workload.layers[index], self.cfg, seed)
    }

    /// ESCALATE dispatches on [`SimConfig::schedule`]: the paper's
    /// layer-serial fold, or that fold plus the steady-state model of
    /// HPIPE-style layer pipelining ([`pipeline_model`]). The baselines
    /// keep the default layer-serial fold (they model the published
    /// designs, which have no pipelined mode).
    fn simulate(&self, seed: u64, threads: usize) -> ModelStats {
        let mut stats = serial_fold(self, seed, threads);
        match self.cfg.schedule {
            ScheduleKind::LayerSerial => {}
            ScheduleKind::Pipelined => stats.pipeline = Some(pipeline_model(&stats, self.cfg)),
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CoefMasks, LayerWorkload, WorkloadMode};
    use escalate_core::quant::TernaryCoeffs;
    use escalate_models::LayerShape;
    use escalate_tensor::Tensor;

    fn toy_workload() -> Workload {
        let layers = (0..3)
            .map(|i| {
                let (c, k) = (32 + 16 * i, 32);
                let coeffs =
                    Tensor::from_fn(&[k, c, 6], |ix| match (ix[0] + ix[1] * 2 + ix[2]) % 4 {
                        0 => 1.0,
                        1 => -1.0,
                        _ => 0.0,
                    });
                let t = TernaryCoeffs::ternarize(&coeffs, 0.0).unwrap();
                LayerWorkload {
                    name: format!("l{i}"),
                    shape: LayerShape::conv("t", c, k, 8, 8, 3, 1, 1),
                    out_channels: k,
                    mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
                    act_sparsity: 0.5,
                    out_sparsity: 0.5,
                    weight_bytes: 100,
                }
            })
            .collect();
        Workload {
            model_name: "toy".into(),
            layers,
        }
    }

    #[test]
    fn escalate_keeps_the_workload_model_name() {
        let w = toy_workload();
        let cfg = SimConfig::default();
        let acc = Escalate::new(&w, &cfg);
        assert_eq!(acc.name(), "ESCALATE");
        let stats = acc.simulate(0, 1);
        assert_eq!(stats.model_name, "toy");
        assert_eq!(stats.layers.len(), 3);
    }

    #[test]
    fn provided_fold_matches_per_layer_calls() {
        let w = toy_workload();
        let cfg = SimConfig::default();
        let acc = Escalate::new(&w, &cfg);
        let whole = acc.simulate(5, 1);
        for (i, l) in whole.layers.iter().enumerate() {
            assert_eq!(*l, acc.simulate_layer(i, 5), "layer {i}");
        }
    }

    #[test]
    fn serial_schedule_is_byte_identical_to_the_plain_fold() {
        let w = toy_workload();
        let cfg = SimConfig {
            schedule: ScheduleKind::LayerSerial,
            ..SimConfig::default()
        };
        let acc = Escalate::new(&w, &cfg);
        let via_schedule = acc.simulate(3, 1);
        let direct = serial_fold(&acc, 3, 1);
        assert_eq!(via_schedule, direct);
        assert_eq!(via_schedule.pipeline, None);
        let default_cfg = SimConfig::default();
        let default_run = Escalate::new(&w, &default_cfg).simulate(3, 1);
        assert_eq!(default_run, direct, "default config is serial");
    }

    #[test]
    fn pipelined_schedule_attaches_consistent_pipeline_stats() {
        let w = toy_workload();
        let cfg = SimConfig {
            schedule: ScheduleKind::Pipelined,
            ..SimConfig::default()
        };
        let acc = Escalate::new(&w, &cfg);
        let stats = acc.simulate(3, 1);
        let p = stats.pipeline.as_ref().expect("pipelined run");
        // Per-layer results are untouched by the schedule.
        let serial_cfg = SimConfig::default();
        let serial = Escalate::new(&w, &serial_cfg).simulate(3, 1);
        assert_eq!(stats.layers, serial.layers);
        // Three layers on 32 PEs: one stage per layer.
        assert_eq!(p.stages, 3);
        assert!(p.interval_cycles <= p.latency_cycles);
        assert!(p.interval_cycles >= p.latency_cycles.div_ceil(p.stages as u64));
        // Slack accounting: Σ(interval − tᵢ) = stages·interval − latency.
        assert_eq!(
            p.stall_cycles,
            p.stages as u64 * p.interval_cycles - p.latency_cycles
        );
        // Work conservation: with Σalloc = N_PE and stage time scaling by
        // N_PE/alloc, the slowest stage can never undercut the serial sum
        // — partitioning trades cycles for pinned weights, not speed.
        assert!(p.interval_cycles >= serial.total_cycles());
        assert!(p.latency_cycles >= serial.total_cycles());
        // Rounding and integer PE grants cost at most a small factor on a
        // balanced three-stage toy.
        assert!(p.interval_cycles < 2 * serial.total_cycles(), "{p:?}");
        assert_eq!(stats.schedule_cycles(), p.latency_cycles);
    }

    #[test]
    fn pipeline_model_accounts_spilled_boundaries() {
        use crate::stats::DramTraffic;
        // Two equal stages on a four-PE array; the boundary OFM exceeds
        // the on-chip handoff capacity, so the producer pays the DRAM
        // round trip.
        let cfg = SimConfig {
            n_pe: 4,
            ..SimConfig::default()
        };
        let capacity = (cfg.total_input_buf_bytes() + cfg.output_buf_bytes) as u64;
        let layer = |name: &str, ofm| LayerStats {
            name: name.into(),
            cycles: 1000,
            dram: DramTraffic {
                weights: 0,
                ifm: 0,
                ofm,
            },
            ..LayerStats::default()
        };
        let fits = ModelStats {
            model_name: "fits".into(),
            layers: vec![layer("a", capacity), layer("b", 0)],
            pipeline: None,
        };
        let p = pipeline_model(&fits, &cfg);
        assert_eq!(p.stages, 2);
        assert_eq!(p.spilled_boundaries, 0);
        assert_eq!(p.peak_buffer_bytes, capacity);
        // Equal work → two PEs each → both stages at 2× their serial time.
        assert_eq!(p.interval_cycles, 2000);
        assert_eq!(p.stall_cycles, 0);

        let spills = ModelStats {
            model_name: "spills".into(),
            layers: vec![layer("a", capacity + 640), layer("b", 0)],
            pipeline: None,
        };
        let p = pipeline_model(&spills, &cfg);
        assert_eq!(p.spilled_boundaries, 1);
        let penalty = (2.0 * (capacity + 640) as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
        assert_eq!(p.interval_cycles, 2000 + penalty);
        assert_eq!(p.stall_cycles, penalty);
    }

    #[test]
    fn pipeline_stages_cap_at_half_the_pe_array() {
        let layers: Vec<LayerStats> = (0..10)
            .map(|i| LayerStats {
                name: format!("l{i}"),
                cycles: 100 + i,
                ..LayerStats::default()
            })
            .collect();
        let stats = ModelStats {
            model_name: "m".into(),
            layers,
            pipeline: None,
        };
        let cfg = SimConfig {
            n_pe: 4,
            ..SimConfig::default()
        };
        let p = pipeline_model(&stats, &cfg);
        assert_eq!(p.stages, 2, "stages cap at half the PE array");
        let wide = SimConfig::default();
        assert_eq!(pipeline_model(&stats, &wide).stages, 10);
    }

    #[test]
    fn trait_is_object_safe_and_threads_agnostic() {
        let w = toy_workload();
        let cfg = SimConfig::default();
        let acc: &dyn Accelerator = &Escalate::new(&w, &cfg);
        assert_eq!(
            acc.simulate(1, 1),
            acc.simulate(1, 0),
            "thread count changed results"
        );
    }
}
