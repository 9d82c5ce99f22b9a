//! Design-space exploration: sweep the number of basis kernels `M` and PE
//! organization for a custom workload and find the latency/accuracy knee
//! (the Figure 12 methodology, applied to a user-supplied layer mix).
//!
//! Run with: `cargo run --release --example design_space`

use escalate::algo::pipeline::{accuracy_proxy, compress_layer_artifact, CompressionConfig};
use escalate::models::{LayerShape, ModelProfile};
use escalate::sim::workload::CoefMasks;
use escalate::sim::{simulate_layer, LayerWorkload, SimConfig, Workload, WorkloadMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A custom "edge detector" workload: a small VGG-ish stack.
    let layers = [
        LayerShape::conv("stem", 16, 32, 64, 64, 3, 1, 1),
        LayerShape::conv("mid", 32, 64, 32, 32, 3, 1, 1),
        LayerShape::conv("deep", 64, 128, 16, 16, 3, 2, 1),
        LayerShape::conv("head", 128, 128, 8, 8, 3, 1, 1),
    ];
    // Reuse the ResNet18 profile's activation statistics for the sweep.
    let profile = ModelProfile::for_model("ResNet18").expect("known model");

    println!("Design-space sweep over M (MAC budget fixed at 960):");
    println!();
    println!(
        "{:<3} {:<3} {:>12} {:>12} {:>11} {:>12}",
        "M", "l", "cycles", "latency(us)", "comp(x)", "proxy top-1"
    );
    for m in 3..=9usize {
        let sim_cfg = SimConfig::default().with_m(m)?;
        let cfg = CompressionConfig {
            m,
            ..CompressionConfig::default()
        };
        let mut cycles = 0u64;
        let mut orig_bits = 0usize;
        let mut comp_bits = 0usize;
        let mut err = 0.0f64;
        let mut params = 0usize;
        let mut wls = Vec::new();
        for (i, layer) in layers.iter().enumerate() {
            let a = compress_layer_artifact(layer, &cfg, 0.95, 1000 + i as u64)?;
            orig_bits += a.stats.original_bits;
            comp_bits += a.stats.compressed_bits;
            err += a.stats.weight_error as f64 * a.stats.original_params as f64;
            params += a.stats.original_params;
            let hybrid = a
                .quantized
                .as_ref()
                .expect("decomposed layer has artifacts");
            wls.push(LayerWorkload {
                name: layer.name.clone(),
                shape: layer.clone(),
                out_channels: layer.k,
                mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&hybrid.coeffs)),
                act_sparsity: 0.5,
                out_sparsity: 0.5,
                weight_bytes: (a.stats.compressed_bits as u64).div_ceil(8),
            });
        }
        let _ = Workload {
            model_name: "custom".into(),
            layers: wls.clone(),
        };
        for lw in &wls {
            cycles += simulate_layer(lw, &sim_cfg, 0).cycles;
        }
        println!(
            "{:<3} {:<3} {:>12} {:>12.1} {:>11.1} {:>12.2}",
            m,
            sim_cfg.l,
            cycles,
            cycles as f64 / sim_cfg.frequency_mhz,
            orig_bits as f64 / comp_bits as f64,
            accuracy_proxy(profile.baseline_top1, err / params as f64),
        );
    }
    println!();
    println!("Pick the smallest M whose proxy accuracy clears your target; every extra");
    println!("basis kernel costs row parallelism (l) and therefore latency.");
    Ok(())
}
