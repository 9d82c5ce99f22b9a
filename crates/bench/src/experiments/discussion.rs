//! The §6.3 discussion data point: on a sparse-aware accelerator, a large
//! redundant model (sparse VGG16) can outrun a modern compact model
//! (sparse MobileNetV2) at similar accuracy — the paper measures sparse
//! VGG16 as 1.5× faster than sparse MobileNetV2.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::{compress_cached, run_escalate_workload, tline, workload_cached};
use escalate_core::pipeline::{accuracy_proxy, CompressionConfig};
use escalate_core::ModelCompression;
use escalate_models::ModelProfile;

pub(super) fn run(ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let cfg = &ctx.sim;
    tline!(
        t,
        "Section 6.3: redundant-but-sparse vs compact models on ESCALATE"
    );
    tline!(t);
    tline!(
        t,
        "{:<12} {:>10} {:>12} {:>12} {:>12} {:>11}",
        "Model",
        "dense MB",
        "comp. MB",
        "latency(ms)",
        "energy(mJ)",
        "proxy top-1"
    );
    let mut latencies = Vec::new();
    for name in ["VGG16", "MobileNetV2"] {
        let profile = ModelProfile::for_model(name).expect("known model");
        let compression = CompressionConfig::default();
        let stats =
            ModelCompression::from_artifacts(name, &compress_cached(&profile, &compression)?);
        let workload = workload_cached(&profile, &compression)?;
        let run = run_escalate_workload(&workload, cfg, 5);
        let latency = run.cycles / (cfg.frequency_mhz * 1e3);
        let proxy = accuracy_proxy(profile.baseline_top1, stats.mean_weight_error());
        tline!(
            t,
            "{:<12} {:>10.2} {:>12.3} {:>12.4} {:>12.3} {:>11.2}",
            name,
            profile.model().conv_size_mb_fp32(),
            stats.compressed_size_mb(),
            latency,
            run.energy_pj * 1e-9,
            proxy,
        );
        t.push_record(Record::new([
            ("model", Cell::from(name)),
            ("dense_mb", profile.model().conv_size_mb_fp32().into()),
            ("compressed_mb", stats.compressed_size_mb().into()),
            ("latency_ms", latency.into()),
            ("energy_mj", (run.energy_pj * 1e-9).into()),
            ("proxy_top1", proxy.into()),
        ]));
        latencies.push(latency);
    }
    tline!(t);
    tline!(
        t,
        "sparse VGG16 is {:.2}x {} than sparse MobileNetV2 (paper: 1.5x faster at a",
        (latencies[1] / latencies[0]).max(latencies[0] / latencies[1]),
        if latencies[0] < latencies[1] {
            "faster"
        } else {
            "slower"
        },
    );
    tline!(
        t,
        "0.5%-accuracy gap). Compact models are designed for dense edge processors"
    );
    tline!(
        t,
        "and leave little sparsity for a sparse-aware accelerator to harvest (§6.3)."
    );
    Ok(())
}
