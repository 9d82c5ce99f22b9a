//! Criterion benchmarks for the cycle-level simulators: one ESCALATE
//! layer simulation, one baseline model sweep, and the whole-model
//! compression pipeline on the smallest network.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use escalate_baselines::{BaselineWorkload, Eyeriss, LayerModel, Scnn, SparTen};
use escalate_core::pipeline::CompressionConfig;
use escalate_core::quant::TernaryCoeffs;
use escalate_models::{LayerShape, ModelProfile};
use escalate_sim::workload::CoefMasks;
use escalate_sim::{simulate_layer, LayerWorkload, SimConfig, WorkloadMode};
use escalate_tensor::Tensor;

fn escalate_layer_workload() -> LayerWorkload {
    let coeffs = Tensor::from_fn(&[128, 128, 6], |i| {
        let h = (i[0] * 7919 + i[1] * 104729 + i[2] * 1299709) % 1000;
        if h < 950 {
            0.0
        } else if h % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    });
    let t = TernaryCoeffs::ternarize(&coeffs, 0.0).expect("valid threshold");
    LayerWorkload {
        name: "bench".into(),
        shape: LayerShape::conv("bench", 128, 128, 16, 16, 3, 1, 1),
        out_channels: 128,
        mode: WorkloadMode::Decomposed(CoefMasks::from_ternary(&t)),
        act_sparsity: 0.5,
        out_sparsity: 0.5,
        weight_bytes: 10_000,
    }
}

fn bench_escalate_layer(c: &mut Criterion) {
    let lw = escalate_layer_workload();
    let cfg = SimConfig::default();
    c.bench_function("sim_escalate_layer_128x128", |b| {
        b.iter(|| simulate_layer(black_box(&lw), &cfg, 0))
    });
}

fn bench_baselines(c: &mut Criterion) {
    let profile = ModelProfile::for_model("ResNet18").expect("known model");
    let w = BaselineWorkload::for_profile(&profile);
    let mut g = c.benchmark_group("baseline_models");
    g.bench_function("eyeriss_resnet18", |b| {
        b.iter(|| Eyeriss::default().simulate(black_box(&w), 0))
    });
    g.bench_function("scnn_resnet18", |b| {
        b.iter(|| Scnn::default().simulate(black_box(&w), 0))
    });
    g.bench_function("sparten_resnet18", |b| {
        b.iter(|| SparTen::default().simulate(black_box(&w), 0))
    });
    g.finish();
}

fn bench_compression_pipeline(c: &mut Criterion) {
    let profile = ModelProfile::for_model("MobileNet").expect("known model");
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("compress_mobilenet", |b| {
        b.iter(|| escalate_core::compress_model(black_box(&profile), &CompressionConfig::default()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_escalate_layer,
    bench_baselines,
    bench_compression_pipeline
);
criterion_main!(benches);
