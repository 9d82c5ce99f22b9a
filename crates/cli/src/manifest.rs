//! Run-manifest emission backing the CLI's `--metrics <FILE>` flag.
//!
//! A manifest is one JSON object capturing everything needed to interpret
//! (and re-run) a simulation: the command and model, the resolved
//! configuration, each accelerator's averaged result, ESCALATE's
//! per-layer stats, and the full metrics snapshot (counters, histograms,
//! and timing spans) recorded by the `escalate-obs` registry during the
//! run. The schema is documented in DESIGN.md ("Observability").

use escalate_bench::jobs::MANIFEST_SCHEMA;
use escalate_bench::ModelRun;
use escalate_obs::{JsonWriter, Snapshot};
use escalate_sim::SimConfig;

/// Renders the run manifest as a JSON string.
///
/// The `layers` section mirrors [`escalate_sim::LayerStats`] of the
/// first-seed ESCALATE run field for field, so its counters reconcile
/// exactly with the `sim.*` counters in the `metrics` section (the
/// observer flushes the very stats object the simulation returns).
pub fn render_manifest(
    command: &str,
    model: &str,
    cfg: &SimConfig,
    seeds: u64,
    run: &ModelRun,
    metrics: &Snapshot,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", MANIFEST_SCHEMA);
    w.field_str("command", command);
    w.field_str("model", model);

    w.key("config");
    w.begin_object();
    w.field_u64("m", cfg.m as u64);
    w.field_u64("n_pe", cfg.n_pe as u64);
    w.field_u64("l", cfg.l as u64);
    w.field_f64("frequency_mhz", cfg.frequency_mhz);
    w.field_f64("dram_bytes_per_cycle", cfg.dram_bytes_per_cycle);
    w.field_u64("sample_channels", cfg.sample_channels as u64);
    w.field_str("schedule", cfg.schedule.as_str());
    w.field_u64("seeds", seeds);
    w.field_u64(
        "threads",
        escalate_core::par::resolve_threads(cfg.threads) as u64,
    );
    w.end_object();

    w.key("accelerators");
    w.begin_array();
    for r in [&run.eyeriss, &run.scnn, &run.sparten, &run.escalate] {
        w.begin_object();
        w.field_str("name", &r.name);
        w.field_f64("mean_cycles", r.cycles);
        w.field_f64("mean_dram_bytes", r.dram_bytes);
        w.field_f64("mean_energy_pj", r.energy_pj);
        w.end_object();
    }
    w.end_array();

    w.key("layers");
    w.begin_array();
    for l in &run.escalate.first_seed_stats.layers {
        w.begin_object();
        w.field_str("name", &l.name);
        w.field_u64("cycles", l.cycles);
        w.field_u64("mac_ops", l.mac_ops);
        w.field_u64("ca_adds", l.ca_adds);
        w.field_u64("gather_passes", l.gather_passes);
        w.field_u64("mac_idle_cycles", l.mac_idle_cycles);
        w.field_u64("dram_bytes", l.dram.total());
        w.field_u64("sram_bytes", l.sram.total());
        w.field_bool("fallback", l.fallback);
        w.end_object();
    }
    w.end_array();

    w.key("metrics");
    metrics.write_json(&mut w);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use escalate_bench::AccelRun;
    use escalate_sim::{LayerStats, ModelStats};

    fn accel(name: &str) -> AccelRun {
        AccelRun {
            name: name.into(),
            cycles: 100.0,
            dram_bytes: 200.0,
            energy_pj: 300.0,
            first_seed_stats: ModelStats {
                model_name: "m".into(),
                layers: vec![LayerStats {
                    name: "l1".into(),
                    cycles: 10,
                    mac_ops: 20,
                    ca_adds: 30,
                    ..LayerStats::default()
                }],
                pipeline: None,
            },
            energy: Default::default(),
        }
    }

    #[test]
    fn manifest_contains_every_section() {
        let run = ModelRun {
            model: "m".into(),
            escalate: accel("ESCALATE"),
            eyeriss: accel("Eyeriss"),
            scnn: accel("SCNN"),
            sparten: accel("SparTen"),
        };
        let reg = escalate_obs::Registry::new();
        reg.counter_add("sim.cycles", 10);
        let json = render_manifest(
            "simulate",
            "m",
            &SimConfig {
                schedule: escalate_sim::ScheduleKind::Pipelined,
                ..SimConfig::default()
            },
            3,
            &run,
            &reg.snapshot(),
        );
        for needle in [
            "\"schema\": \"escalate-run-manifest/v1\"",
            "\"config\":",
            "\"schedule\": \"pipelined\"",
            "\"seeds\": 3",
            "\"accelerators\":",
            "\"ESCALATE\"",
            "\"layers\":",
            "\"ca_adds\": 30",
            "\"metrics\":",
            "\"sim.cycles\": 10",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
