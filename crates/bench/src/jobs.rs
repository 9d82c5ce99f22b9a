//! The job verbs, each defined once as a [`RunPlan`]: `simulate` (the
//! four-accelerator comparison), `compress` (the compression pipeline)
//! and `report` (registered experiments). The one-shot CLI, the serve
//! daemon and the experiments all run these plans ([`crate::run_model`]
//! is the simulate plan run into a [`TableSink`], `escalate report` the
//! report plan run into the report runner's sinks), so a served job's
//! output is the one-shot output by construction. Each constructor
//! validates its request (`M` in `1..=MAX_M`, a registered experiment),
//! so no front end can queue work that fails half-way. Each unit streams
//! one [`MANIFEST_SCHEMA`] record; the plan keeps its typed result.
//!
//! [`TableSink`]: crate::plan::TableSink

use crate::experiments::{find, ExpContext, ExpError, Experiment, Table};
use crate::plan::{execute, unit_seed, RunPlan, UnitOutput, UnitSink, WorkUnit};
use crate::{
    compress_cached, render, run_accelerator, run_escalate_workload, workload_cached, AccelRun,
    ModelRun, ACCELERATOR_NAMES,
};
use escalate_baselines::{BaselineSim, BaselineWorkload, Eyeriss, LayerModel, Scnn, SparTen};
use escalate_core::par::lock_recover;
use escalate_core::pipeline::CompressionConfig;
use escalate_core::{CompressedLayer, ModelCompression};
use escalate_energy::BufferCaps;
use escalate_models::ModelProfile;
use escalate_obs::JsonWriter;
use escalate_sim::{check_basis_count, SimConfig, SimError};
use std::sync::{Arc, Mutex};

/// Schema tag of a run-manifest record: a unit record of a plan here, or
/// the `--metrics` document of a one-shot `simulate`.
pub const MANIFEST_SCHEMA: &str = "escalate-run-manifest/v1";

/// The result a plan's unit left in its slot.
fn produced<T>(slot: Option<T>, verb: &str) -> Result<T, ExpError> {
    slot.ok_or_else(|| ExpError::Msg(format!("{verb} unit produced no result")))
}

/// A one-record unit output: `key` and `schema`, then `fields`.
fn record(unit: &WorkUnit, fields: impl FnOnce(&mut JsonWriter)) -> UnitOutput {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("key", &unit.key);
    w.field_str("schema", MANIFEST_SCHEMA);
    fields(&mut w);
    w.end_object();
    UnitOutput {
        table: Table::default(),
        jsonl: vec![w.finish()],
    }
}

/// `simulate`: one unit per design of [`ACCELERATOR_NAMES`], averaged
/// over input seeds, assembled into a [`ModelRun`].
pub struct SimulatePlan {
    profile: ModelProfile,
    cfg: SimConfig,
    seeds: u64,
    /// One slot per design, filled by `run_unit` (units run on worker
    /// threads; the plan is shared by reference).
    results: Mutex<Vec<Option<AccelRun>>>,
}

impl SimulatePlan {
    /// The comparison of `profile` under `cfg` at `m` basis kernels, with
    /// `l` shrunk to keep `cfg`'s multiplier budget
    /// ([`SimConfig::with_m`], the identity when `m == cfg.m`).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidBasisCount`] unless `1 ≤ m ≤ MAX_M`.
    pub fn new(
        profile: ModelProfile,
        cfg: &SimConfig,
        m: usize,
        seeds: u64,
    ) -> Result<SimulatePlan, SimError> {
        Ok(SimulatePlan {
            profile,
            cfg: cfg.with_m(m)?,
            seeds,
            results: Mutex::new(vec![None; ACCELERATOR_NAMES.len()]),
        })
    }

    /// The configuration every design is simulated under.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Executes the plan into `sink` and assembles the four designs'
    /// results.
    ///
    /// # Errors
    ///
    /// The first unit failure in unit order, or the sink's write failure.
    pub fn run(&self, sink: &mut dyn UnitSink) -> Result<ModelRun, ExpError> {
        // Size the pool before the first job starts its workers.
        escalate_core::par::configure_threads(self.cfg.threads);
        execute(self, sink)?;
        let mut slots = lock_recover(&self.results);
        let mut take = |i: usize| produced(slots[i].take(), "simulate");
        Ok(ModelRun {
            model: self.profile.name.clone(),
            eyeriss: take(0)?,
            scnn: take(1)?,
            sparten: take(2)?,
            escalate: take(3)?,
        })
    }
}

impl RunPlan for SimulatePlan {
    fn name(&self) -> &str {
        "simulate"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok(ACCELERATOR_NAMES
            .iter()
            .enumerate()
            .map(|(i, accel)| WorkUnit {
                key: format!("simulate/{}/{accel}", self.profile.name),
                seed: unit_seed(self.seeds, i as u64),
                index: i,
            })
            .collect())
    }

    /// Runs one design: ESCALATE on the cached workload of the profile
    /// compressed at `cfg.m`, a baseline with the 64 KiB baseline buffers.
    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        let baseline = |model: &dyn LayerModel| {
            let bw = BaselineWorkload::for_profile(&self.profile);
            let caps = BufferCaps::baseline(64 * 1024);
            run_accelerator(
                &BaselineSim::new(model, &bw),
                &caps,
                self.seeds,
                self.cfg.threads,
            )
        };
        let run = match ACCELERATOR_NAMES[unit.index] {
            "Eyeriss" => baseline(&Eyeriss::default()),
            "SCNN" => baseline(&Scnn::default()),
            "SparTen" => baseline(&SparTen::default()),
            _ => {
                let compression = CompressionConfig {
                    m: self.cfg.m,
                    ..CompressionConfig::default()
                };
                let workload = workload_cached(&self.profile, &compression)?;
                run_escalate_workload(&workload, &self.cfg, self.seeds)
            }
        };
        let out = record(unit, |w| {
            w.field_str("name", &run.name);
            w.field_f64("mean_cycles", run.cycles);
            w.field_f64("mean_dram_bytes", run.dram_bytes);
            w.field_f64("mean_energy_pj", run.energy_pj);
        });
        lock_recover(&self.results)[unit.index] = Some(run);
        Ok(out)
    }

    /// ESCALATE, the one design that compresses, is claimed first, so the
    /// baselines run beside it rather than after it; on one worker the
    /// designs run ESCALATE, Eyeriss, SCNN, SparTen.
    fn schedule(&self, pending: &[&WorkUnit]) -> Option<Vec<usize>> {
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by_key(|&i| ACCELERATOR_NAMES[pending[i].index] != "ESCALATE");
        Some(order)
    }
}

/// `compress`: one unit running the compression pipeline through the
/// artifact cache ([`compress_cached`]; identical configs in flight
/// dedupe via its single-flight slots).
pub struct CompressPlan {
    profile: ModelProfile,
    cfg: CompressionConfig,
    layers: bool,
    result: Mutex<Option<(Arc<Vec<CompressedLayer>>, String)>>,
}

impl CompressPlan {
    /// Compression of `profile` under `cfg`; `layers` adds the per-layer
    /// table to the report.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidBasisCount`] unless `1 ≤ cfg.m ≤ MAX_M`.
    pub fn new(
        profile: ModelProfile,
        cfg: CompressionConfig,
        layers: bool,
    ) -> Result<CompressPlan, SimError> {
        check_basis_count(cfg.m)?;
        Ok(CompressPlan {
            profile,
            cfg,
            layers,
            result: Mutex::new(None),
        })
    }

    /// Executes the plan into `sink`, returning the per-layer artifacts
    /// (what `escalate compress --out` saves) and the rendered report (what
    /// `escalate compress` prints).
    ///
    /// # Errors
    ///
    /// The compression failure, or the sink's write failure.
    pub fn run(
        &self,
        sink: &mut dyn UnitSink,
    ) -> Result<(Arc<Vec<CompressedLayer>>, String), ExpError> {
        execute(self, sink)?;
        produced(lock_recover(&self.result).take(), "compress")
    }
}

impl RunPlan for CompressPlan {
    fn name(&self) -> &str {
        "compress"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok(vec![WorkUnit {
            key: format!("compress/{}/m{}", self.profile.name, self.cfg.m),
            seed: self.cfg.seed,
            index: 0,
        }])
    }

    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        let p = &self.profile;
        let artifacts = compress_cached(p, &self.cfg)?;
        let result = ModelCompression::from_artifacts(&p.name, &artifacts);
        let out = record(unit, |w| {
            w.field_str("model", &p.name);
            w.field_f64("compression_ratio", result.compression_ratio());
            w.field_f64("compressed_mb", result.compressed_size_mb());
            w.field_f64("coeff_sparsity", result.coeff_sparsity());
        });
        let text =
            render::render_compress(&p.name, p.baseline_top1, self.cfg.m, &result, self.layers);
        *lock_recover(&self.result) = Some((artifacts, text));
        Ok(out)
    }
}

/// Fixed master seed of the report plan: experiments derive their own
/// randomness internally, but every work unit still carries a seed per
/// the plan contract.
const REPORT_PLAN_SEED: u64 = 0x5eca_1a7e_9e37_79b9;

/// `report`: one unit per selected experiment, keyed `report/NAME`,
/// carrying the experiment's [`Table`] and its manifest record.
/// `escalate report` executes it into the report runner's print, file and
/// golden sinks; the daemon into a client's socket.
pub struct ReportPlan {
    exps: Vec<&'static Experiment>,
    ctx: ExpContext,
}

impl ReportPlan {
    /// The experiments `exps`, in this order, run under `ctx`.
    pub(crate) fn new(exps: Vec<&'static Experiment>, ctx: ExpContext) -> ReportPlan {
        ReportPlan { exps, ctx }
    }

    /// The registered experiment `name` under the default context: what
    /// `escalate report NAME` runs.
    ///
    /// # Errors
    ///
    /// A user-facing message when no experiment has that name.
    pub fn named(name: &str) -> Result<ReportPlan, String> {
        let exp = find(name)
            .ok_or_else(|| format!("unknown experiment {name:?} (see `escalate report --list`)"))?;
        Ok(ReportPlan::new(vec![exp], ExpContext::default()))
    }

    /// Executes the plan into `sink` and returns the report text, what
    /// `escalate report` prints for these experiments.
    ///
    /// # Errors
    ///
    /// The first experiment failure in unit order, or the sink's write
    /// failure.
    pub fn run(&self, sink: &mut dyn UnitSink) -> Result<String, ExpError> {
        // Size the pool before the first job starts its workers.
        escalate_core::par::configure_threads(0);
        let mut tee = TextTee {
            sink,
            text: String::new(),
        };
        execute(self, &mut tee)?;
        Ok(tee.text)
    }
}

/// Forwards every unit to `sink` and keeps its text, experiments
/// separated by a blank line as `escalate report` prints them.
struct TextTee<'s> {
    sink: &'s mut dyn UnitSink,
    text: String,
}

impl UnitSink for TextTee<'_> {
    fn write_unit(&mut self, unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
        if unit.index > 0 {
            self.text.push('\n');
        }
        self.text.push_str(&out.table.render_text());
        self.sink.write_unit(unit, out)
    }
}

impl RunPlan for ReportPlan {
    fn name(&self) -> &str {
        "report"
    }

    fn units(&self) -> Result<Vec<WorkUnit>, ExpError> {
        Ok(self
            .exps
            .iter()
            .enumerate()
            .map(|(i, e)| WorkUnit {
                key: format!("report/{}", e.name),
                seed: unit_seed(REPORT_PLAN_SEED, i as u64),
                index: i,
            })
            .collect())
    }

    fn run_unit(&self, unit: &WorkUnit) -> Result<UnitOutput, ExpError> {
        let exp = self.exps[unit.index];
        let table = exp.table(&self.ctx)?;
        Ok(UnitOutput {
            table,
            ..record(unit, |w| w.field_str("experiment", exp.name))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_simulate_plan_claims_escalate_first() {
        let plan = SimulatePlan::new(
            ModelProfile::for_model("MobileNet").unwrap(),
            &SimConfig::default(),
            6,
            1,
        )
        .unwrap();
        let units = plan.units().unwrap();
        let pending: Vec<&WorkUnit> = units.iter().collect();
        let order = plan.schedule(&pending).unwrap();
        let claimed: Vec<&str> = order
            .iter()
            .map(|&i| ACCELERATOR_NAMES[pending[i].index])
            .collect();
        assert_eq!(claimed, ["ESCALATE", "Eyeriss", "SCNN", "SparTen"]);
    }
}
