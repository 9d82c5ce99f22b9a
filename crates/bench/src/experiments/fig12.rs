//! **Figure 12**: the accuracy / latency / energy trade-off as the number
//! of basis kernels `M` varies, with `l` shrunk to keep the multiplier
//! budget constant (ResNet18 and ResNet50).

use super::{Cell, ExpContext, ExpError, Experiment, Record, Table};
use crate::{compress_cached, run_escalate, tline};
use escalate_core::pipeline::{accuracy_proxy, CompressionConfig};
use escalate_core::{EscalateError, ModelCompression};
use escalate_models::ModelProfile;
use escalate_sim::SimConfig;

/// Registry entry for Figure 12.
pub struct Fig12;

impl Experiment for Fig12 {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn paper_anchor(&self) -> &'static str {
        "Figure 12"
    }

    fn summary(&self) -> &'static str {
        "accuracy/latency/energy trade-off vs M at a fixed MAC budget"
    }

    fn run(&self, _ctx: &ExpContext) -> Result<Table, ExpError> {
        let mut t = Table::new(self.name(), self.paper_anchor());
        tline!(
            t,
            "Figure 12: accuracy and latency/energy trade-off vs M (l keeps MAC budget)"
        );
        for model in ["ResNet18", "ResNet50"] {
            let profile = ModelProfile::for_model(model).expect("known model");
            tline!(t);
            tline!(t, "{model}:");
            tline!(
                t,
                "{:<4} {:<4} {:>12} {:>12} {:>12} {:>11}",
                "M",
                "l",
                "proxy top-1",
                "latency(ms)",
                "energy(mJ)",
                "comp(x)"
            );
            for m in 4..=8usize {
                let sim_cfg = SimConfig::default()
                    .with_m(m)
                    .map_err(EscalateError::from)?;
                let cfg = CompressionConfig {
                    m,
                    ..CompressionConfig::default()
                };
                let artifacts = compress_cached(&profile, &cfg)?;
                let stats = ModelCompression {
                    model_name: model.to_string(),
                    layers: artifacts.iter().map(|a| a.stats.clone()).collect(),
                };
                let run = run_escalate(&profile, &artifacts, &sim_cfg, 3);
                let proxy = accuracy_proxy(profile.baseline_top1, stats.mean_weight_error());
                let latency_ms = run.cycles / (sim_cfg.frequency_mhz * 1e3);
                let energy_mj = run.energy_pj * 1e-9;
                tline!(
                    t,
                    "{:<4} {:<4} {:>12.2} {:>12.3} {:>12.3} {:>11.1}",
                    m,
                    sim_cfg.l,
                    proxy,
                    latency_ms,
                    energy_mj,
                    stats.compression_ratio(),
                );
                t.push_record(Record::new([
                    ("model", Cell::from(model)),
                    ("m", Cell::from(m)),
                    ("l", Cell::from(sim_cfg.l)),
                    ("proxy_top1", proxy.into()),
                    ("latency_ms", latency_ms.into()),
                    ("energy_mj", energy_mj.into()),
                    ("compression_x", stats.compression_ratio().into()),
                ]));
            }
        }
        tline!(t);
        tline!(
            t,
            "Expected shape (paper): accuracy rises with M; a larger M shrinks l (row"
        );
        tline!(
            t,
            "parallelism), increasing latency; energy changes little, dominated by the"
        );
        tline!(
            t,
            "off-chip-access change from the l-dependent input buffering."
        );
        Ok(t)
    }
}
