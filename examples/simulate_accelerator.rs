//! End-to-end hardware evaluation: compress VGG16, run it on the ESCALATE
//! accelerator simulator and the three baselines, and print the speedup,
//! energy, and DRAM comparison for this one model.
//!
//! Run with: `cargo run --release --example simulate_accelerator`

use escalate::algo::compress_model_artifacts;
use escalate::algo::pipeline::CompressionConfig;
use escalate::baselines::{BaselineWorkload, Eyeriss, LayerModel, Scnn, SparTen};
use escalate::energy::{model_energy, BufferCaps, UnitEnergy};
use escalate::models::ModelProfile;
use escalate::sim::{simulate_model, SimConfig, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ModelProfile::for_model("VGG16").expect("known model");
    let sim_cfg = SimConfig::default();
    let units = UnitEnergy::table3();
    // All four designs are compared at the same clock.
    let latency_ms = |cycles: u64| cycles as f64 / (sim_cfg.frequency_mhz * 1e3);

    // 1. Compress the model (Table 1 pipeline) and build the workload.
    let artifacts = compress_model_artifacts(&profile, &CompressionConfig::default())?;
    let workload = Workload::from_artifacts(&profile.name, &artifacts, &profile);

    // 2. Simulate ESCALATE.
    let esc = simulate_model(&workload, &sim_cfg, 0);
    let esc_energy = model_energy(&esc, &BufferCaps::from_config(&sim_cfg), &units);

    // 3. Simulate the baselines on the pruned checkpoint.
    let bw = BaselineWorkload::for_profile(&profile);
    let caps = BufferCaps::baseline(64 * 1024);
    let accels: Vec<Box<dyn LayerModel>> = vec![
        Box::new(Eyeriss::default()),
        Box::new(Scnn::default()),
        Box::new(SparTen::default()),
    ];

    println!("{} on four accelerators:", profile.name);
    println!();
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10}",
        "design", "cycles", "latency(ms)", "energy(mJ)", "DRAM(MB)"
    );
    println!(
        "{:<10} {:>12} {:>12.3} {:>12.3} {:>10.2}",
        "ESCALATE",
        esc.total_cycles(),
        latency_ms(esc.total_cycles()),
        esc_energy.total_mj(),
        esc.total_dram().total() as f64 / 1e6
    );
    for acc in &accels {
        let stats = acc.simulate(&bw, 0);
        let energy = model_energy(&stats, &caps, &units);
        println!(
            "{:<10} {:>12} {:>12.3} {:>12.3} {:>10.2}",
            acc.name(),
            stats.total_cycles(),
            latency_ms(stats.total_cycles()),
            energy.total_mj(),
            stats.total_dram().total() as f64 / 1e6
        );
    }
    println!();
    println!("Per-layer ESCALATE detail (first 5 layers):");
    for l in esc.layers.iter().take(5) {
        println!(
            "  {:<12} {:>9} cycles, MAC idle {:>5.1}%, DRAM {:>8} B{}",
            l.name,
            l.cycles,
            l.mac_idle_fraction() * 100.0,
            l.dram.total(),
            if l.fallback { "  (dense fallback)" } else { "" }
        );
    }
    Ok(())
}
