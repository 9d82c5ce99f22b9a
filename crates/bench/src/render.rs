//! Shared textual renderers for the one-shot CLI and the serve daemon.
//!
//! The daemon's acceptance bar is that a served job's output is
//! bit-identical to the equivalent one-shot command, so the table
//! rendering lives here — one copy, two callers — instead of being
//! duplicated (and drifting) between `escalate simulate` and
//! `escalate serve`.

use crate::ModelRun;
use escalate_core::pipeline::accuracy_proxy;
use escalate_core::ModelCompression;
use escalate_sim::SimConfig;

/// Renders the four-accelerator comparison table `escalate simulate`
/// prints (design / cycles / latency / energy / DRAM / speedup rows).
pub fn render_simulate(run: &ModelRun, cfg: &SimConfig) -> String {
    let mut out = format!(
        "{:<10} {:>12} {:>12} {:>12} {:>10} {:>10}\n",
        "design", "cycles", "latency(ms)", "energy(mJ)", "DRAM(MB)", "vs Eyeriss"
    );
    for r in [&run.eyeriss, &run.scnn, &run.sparten, &run.escalate] {
        out.push_str(&format!(
            "{:<10} {:>12.0} {:>12.4} {:>12.4} {:>10.2} {:>9.2}x\n",
            r.name,
            r.cycles,
            r.cycles / (cfg.frequency_mhz * 1e3),
            r.energy_pj * 1e-9,
            r.dram_bytes / 1e6,
            run.speedup_over_eyeriss(r),
        ));
    }
    // The pipeline section appears only when a pipelined schedule actually
    // ran — a serial run's bytes stay exactly what they were before the
    // schedule abstraction existed (the goldens pin this).
    if let Some(p) = &run.escalate.first_seed_stats.pipeline {
        out.push_str(&format!(
            "\npipeline: {} stage(s), interval {} cycles, latency {} cycles, \
             stall {} cycles, {} spilled boundary(ies), peak handoff {} B\n",
            p.stages,
            p.interval_cycles,
            p.latency_cycles,
            p.stall_cycles,
            p.spilled_boundaries,
            p.peak_buffer_bytes
        ));
    }
    out
}

/// Renders the `escalate compress` report: the optional per-layer table
/// (`layers == true`) followed by the one-line summary.
pub fn render_compress(
    model: &str,
    baseline_top1: f64,
    m: usize,
    result: &ModelCompression,
    layers: bool,
) -> String {
    let mut out = String::new();
    if layers {
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>8} {:>8}\n",
            "layer", "params", "bits", "spar%", "ratio"
        ));
        for l in &result.layers {
            out.push_str(&format!(
                "{:<24} {:>10} {:>10} {:>7.1}% {:>7.1}x\n",
                l.name,
                l.original_params,
                l.compressed_bits,
                l.coeff_sparsity() * 100.0,
                l.compression_ratio()
            ));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{} (M={}): {:.2}x compression, {:.3} MB, {:.2}% sparsity, {:.2}% pruned, proxy top-1 {:.2}%\n",
        model,
        m,
        result.compression_ratio(),
        result.compressed_size_mb(),
        result.coeff_sparsity() * 100.0,
        result.pruning_ratio() * 100.0,
        accuracy_proxy(baseline_top1, result.mean_weight_error()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use escalate_models::ModelProfile;

    #[test]
    fn simulate_table_has_all_four_designs_in_row_order() {
        let profile = ModelProfile::for_model("MobileNet").unwrap();
        let cfg = SimConfig::default();
        let run = crate::run_model(&profile, &cfg, 1).unwrap();
        let out = render_simulate(&run, &cfg);
        let rows: Vec<&str> = out.lines().collect();
        assert_eq!(rows.len(), 5, "header plus one row per design:\n{out}");
        for (row, name) in rows[1..]
            .iter()
            .zip(["Eyeriss", "SCNN", "SparTen", "ESCALATE"])
        {
            assert!(row.starts_with(name), "expected {name} in {row:?}");
        }
    }

    #[test]
    fn compress_summary_names_the_model_and_ratio() {
        let profile = ModelProfile::for_model("MobileNet").unwrap();
        let cfg = escalate_core::pipeline::CompressionConfig::default();
        let artifacts = crate::compress_cached(&profile, &cfg).unwrap();
        let result = ModelCompression::from_artifacts(&profile.name, &artifacts);
        let brief = render_compress(&profile.name, profile.baseline_top1, cfg.m, &result, false);
        assert!(brief.starts_with("MobileNet (M=6):"), "{brief}");
        let detailed = render_compress(&profile.name, profile.baseline_top1, cfg.m, &result, true);
        assert!(detailed.contains("layer"), "{detailed}");
        assert!(detailed.ends_with(&brief), "the summary line is shared");
    }
}
