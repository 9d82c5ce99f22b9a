//! Request → job: each accepted request compiles into one of the job
//! plans of `escalate_bench::jobs`, the same plans the one-shot CLI runs,
//! so a served job's output is the CLI's by construction. The plan's
//! constructor validates the request; this module adds only the
//! coalescing key and the verb label.

use crate::proto::Request;
use escalate_bench::experiments::ExpError;
use escalate_bench::jobs::{CompressPlan, ReportPlan, SimulatePlan};
use escalate_bench::plan::UnitSink;
use escalate_bench::render;
use escalate_core::pipeline::CompressionConfig;
use escalate_sim::{ScheduleKind, SimConfig};

/// A validated, ready-to-run job.
pub struct CompiledJob {
    plan: JobPlan,
    verb: &'static str,
    key: String,
}

enum JobPlan {
    Simulate(SimulatePlan),
    Compress(CompressPlan),
    Report(ReportPlan),
}

impl CompiledJob {
    /// Validates a job request (model exists, `M` in range, experiment is
    /// registered) and compiles it into its plan. Control verbs are not
    /// jobs.
    ///
    /// # Errors
    ///
    /// Returns the user-facing message for the `error` frame.
    pub fn compile(req: &Request) -> Result<CompiledJob, String> {
        // One resolver for every model spec the daemon accepts — the same
        // zoo-name / `@FILE` / `gen:` grammar as the CLI. The profile is
        // resolved once at compile time (a network file is read here, not
        // re-read per work unit).
        let resolve = |spec: &str| escalate_models::resolve(spec).map_err(|e| e.to_string());
        let (plan, fingerprint) = match req {
            Request::Simulate {
                model,
                m,
                seeds,
                schedule,
            } => {
                let profile = resolve(model)?;
                let fingerprint = profile.fingerprint();
                let cfg = SimConfig {
                    schedule: ScheduleKind::parse(schedule)?,
                    ..SimConfig::default()
                };
                let plan =
                    SimulatePlan::new(profile, &cfg, *m, *seeds).map_err(|e| e.to_string())?;
                (JobPlan::Simulate(plan), Some(fingerprint))
            }
            Request::Compress {
                model,
                m,
                qat,
                seed,
                layers,
            } => {
                let profile = resolve(model)?;
                let fingerprint = profile.fingerprint();
                let cfg = CompressionConfig {
                    m: *m,
                    qat_epochs: *qat,
                    seed: *seed,
                    ..CompressionConfig::default()
                };
                let plan = CompressPlan::new(profile, cfg, *layers).map_err(|e| e.to_string())?;
                (JobPlan::Compress(plan), Some(fingerprint))
            }
            Request::Report { experiment } => {
                (JobPlan::Report(ReportPlan::named(experiment)?), None)
            }
            other => return Err(format!("{:?} is not a job verb", other.verb())),
        };
        // Every knob a job does not read from its request is a fixed
        // default, so equal requests ask for bit-identical work. The
        // resolved network's fingerprint joins them: one `@FILE` spec can
        // name different layers from one submission to the next.
        Ok(CompiledJob {
            plan,
            verb: req.verb(),
            key: format!("{req:?}|{fingerprint:?}"),
        })
    }

    /// The coalescing identity, computed at compile time: two
    /// submissions with equal keys request bit-identical work. The queue
    /// uses this to fan one execution out to every client waiting on the
    /// same work.
    pub fn coalesce_key(&self) -> &str {
        &self.key
    }

    /// The verb label jobs are counted/timed under.
    pub fn verb(&self) -> &'static str {
        self.verb
    }

    /// Runs the job, streaming unit records through `sink`, and returns
    /// the rendered output text (what the one-shot CLI prints).
    ///
    /// # Errors
    ///
    /// Returns the first unit failure in unit order, or the sink's write
    /// failure (a disconnected client aborts the run early).
    pub fn run(&self, sink: &mut dyn UnitSink) -> Result<String, ExpError> {
        match &self.plan {
            JobPlan::Simulate(plan) => plan
                .run(sink)
                .map(|run| render::render_simulate(&run, plan.config())),
            JobPlan::Compress(plan) => plan.run(sink).map(|(_, text)| text),
            JobPlan::Report(plan) => plan.run(sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escalate_bench::jobs::MANIFEST_SCHEMA;
    use escalate_bench::plan::{UnitOutput, WorkUnit};
    use escalate_bench::ACCELERATOR_NAMES;

    /// Collects streamed records in memory.
    #[derive(Default)]
    struct MemSink {
        records: Vec<String>,
    }

    impl UnitSink for MemSink {
        fn write_unit(&mut self, _unit: &WorkUnit, out: UnitOutput) -> Result<(), ExpError> {
            self.records.extend(out.jsonl);
            Ok(())
        }
    }

    #[test]
    fn compile_validates_models_and_experiments() {
        let bad = Request::Simulate {
            model: "LeNet".into(),
            m: 6,
            seeds: 1,
            schedule: "serial".into(),
        };
        let Err(e) = CompiledJob::compile(&bad) else {
            panic!("unknown model must not compile")
        };
        assert!(e.contains("LeNet"), "{e}");
        let bad = Request::Simulate {
            model: "MobileNet".into(),
            m: 6,
            seeds: 1,
            schedule: "warp-speed".into(),
        };
        let Err(e) = CompiledJob::compile(&bad) else {
            panic!("unknown schedule must not compile")
        };
        assert!(e.contains("warp-speed"), "{e}");
        let bad = Request::Report {
            experiment: "fig99".into(),
        };
        let Err(e) = CompiledJob::compile(&bad) else {
            panic!("unknown experiment must not compile")
        };
        assert!(e.contains("fig99"), "{e}");
        assert!(CompiledJob::compile(&Request::Ping).is_err());
    }

    #[test]
    fn simulate_job_streams_four_manifest_records_and_renders_the_table() {
        let job = CompiledJob::compile(&Request::Simulate {
            model: "MobileNet".into(),
            m: 6,
            seeds: 1,
            schedule: "serial".into(),
        })
        .unwrap();
        let mut sink = MemSink::default();
        let out = job.run(&mut sink).unwrap();
        assert_eq!(sink.records.len(), 4, "one record per design");
        for (record, accel) in sink.records.iter().zip(ACCELERATOR_NAMES) {
            assert_eq!(
                escalate_obs::jsonl::json_string_field(record, "schema").as_deref(),
                Some(MANIFEST_SCHEMA)
            );
            assert_eq!(
                escalate_obs::jsonl::json_string_field(record, "name").as_deref(),
                Some(accel)
            );
            assert!(escalate_obs::jsonl::json_f64_field(record, "mean_cycles").unwrap() > 0.0);
        }
        assert!(out.contains("vs Eyeriss"), "{out}");
        assert!(out.contains("ESCALATE"), "{out}");
    }

    #[test]
    fn generator_specs_compile_and_schedules_separate_coalesce_keys() {
        let req = |schedule: &str| Request::Simulate {
            model: "gen:grouped:blocks=1,c=16,x=8".into(),
            m: 6,
            seeds: 1,
            schedule: schedule.into(),
        };
        let serial = CompiledJob::compile(&req("serial")).unwrap();
        let pipelined = CompiledJob::compile(&req("pipelined")).unwrap();
        assert_ne!(
            serial.coalesce_key(),
            pipelined.coalesce_key(),
            "a pipelined run is different work; it must not coalesce with a serial one"
        );
        // Same spec twice is the same work.
        assert_eq!(
            serial.coalesce_key(),
            CompiledJob::compile(&req("serial")).unwrap().coalesce_key()
        );
    }

    #[test]
    fn compress_job_renders_the_cli_report() {
        let job = CompiledJob::compile(&Request::Compress {
            model: "MobileNet".into(),
            m: 6,
            qat: 0,
            seed: 42,
            layers: false,
        })
        .unwrap();
        let mut sink = MemSink::default();
        let out = job.run(&mut sink).unwrap();
        assert_eq!(sink.records.len(), 1);
        assert!(out.starts_with("MobileNet (M=6):"), "{out}");
    }
}
