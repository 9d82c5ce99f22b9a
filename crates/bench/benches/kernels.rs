//! Criterion micro-benchmarks for the computational kernels of the
//! reproduction: synthetic weight generation, kernel decomposition, the
//! compression tail (threshold search, ternarization, coefficient error,
//! nonzero counts, coefficient masks), the bit-gather network, dilution,
//! concentration, and the two forward-pass orders. Each compression-tail
//! loop is checked bit for bit against its scalar oracle before it is
//! timed.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use escalate_core::decompose;
use escalate_core::pipeline::ternary_storage_bits;
use escalate_core::quant::{oracle, threshold_for_sparsity, TernaryCoeffs};
use escalate_core::reorg::{forward_eq2, forward_eq3};
use escalate_models::{synth, LayerShape};
use escalate_sim::workload::CoefMasks;
use escalate_sparse::{
    dilute, gather_bits, gather_bits_butterfly, ConcentrationBuffer, DilutionInput,
};
use escalate_tensor::Tensor;

fn bench_synth(c: &mut Criterion) {
    let mut g = c.benchmark_group("synth");
    let pw = LayerShape::pwconv("b", 512, 512, 8, 8);
    g.bench_function("weights_512x512x1x1", |b| {
        b.iter(|| synth::weights(black_box(&pw), 1, 1.0, 1))
    });
    let conv = LayerShape::conv("b", 256, 256, 8, 8, 3, 1, 1);
    g.bench_function("weights_256x256x3x3_rank6", |b| {
        b.iter(|| synth::weights(black_box(&conv), 6, 0.05, 1))
    });
    g.bench_function("pointwise_weights_512x512", |b| {
        b.iter(|| synth::pointwise_weights(black_box(512), 512, 1))
    });
    g.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let mut g = c.benchmark_group("decompose");
    for &(ch, k) in &[(64usize, 64usize), (256, 256)] {
        let layer = LayerShape::conv("b", ch, k, 8, 8, 3, 1, 1);
        let w = synth::weights(&layer, 6, 0.05, 1);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{ch}x{k}x3x3")),
            &w,
            |b, w| b.iter(|| decompose(black_box(w), 6).expect("decomposition succeeds")),
        );
    }
    g.finish();
}

/// Every tail loop must agree with its scalar oracle before we time it:
/// a benchmark of a wrong loop is worse than no benchmark.
fn assert_tail_matches_oracles(coeffs: &Tensor, t: f32, target: f64) {
    assert_eq!(
        threshold_for_sparsity(coeffs, target).to_bits(),
        oracle::threshold_for_sparsity(coeffs, target).to_bits()
    );
    let q = TernaryCoeffs::ternarize(coeffs, t).expect("valid threshold");
    let o = oracle::ternarize(coeffs, t).expect("valid threshold");
    assert_eq!(q.ternary, o.ternary);
    assert_eq!(q.quotient_code, o.quotient_code);
    let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&q.w_pos), bits(&o.w_pos));
    assert_eq!(
        q.dequantized_error(coeffs).to_bits(),
        oracle::dequantized_error(&q, coeffs).to_bits()
    );
    let counts = q.counts();
    assert_eq!(counts.nnz, oracle::nnz(&q));
    assert_eq!(counts.nonzero_groups, oracle::nonzero_groups(&q));
    assert_eq!(ternary_storage_bits(&q), oracle::ternary_storage_bits(&q));
    assert_eq!(
        CoefMasks::from_ternary(&q),
        CoefMasks::from_ternary_scalar(&q)
    );
}

fn bench_compression_tail(c: &mut Criterion) {
    let coeffs = Tensor::from_fn(&[256, 256, 6], |i| {
        ((i[0] * 7 + i[1] * 3 + i[2]) as f32 * 0.37).sin()
    });
    // The pipeline ternarizes at the threshold its sparsity target picks.
    let target = 0.95;
    let t = threshold_for_sparsity(&coeffs, target);
    assert_tail_matches_oracles(&coeffs, t, target);
    assert_tail_matches_oracles(&coeffs, 0.05, target);
    let q = TernaryCoeffs::ternarize(&coeffs, t).expect("valid threshold");
    c.bench_function("threshold_search_256x256x6", |b| {
        b.iter(|| threshold_for_sparsity(black_box(&coeffs), target))
    });
    c.bench_function("ternarize_256x256x6", |b| {
        b.iter(|| TernaryCoeffs::ternarize(black_box(&coeffs), 0.05).expect("valid threshold"))
    });
    c.bench_function("dequantized_error_256x256x6", |b| {
        b.iter(|| black_box(&q).dequantized_error(black_box(&coeffs)))
    });
    c.bench_function("ternary_counts_256x256x6", |b| {
        b.iter(|| black_box(&q).counts())
    });
    c.bench_function("coef_masks_256x256x6", |b| {
        b.iter(|| CoefMasks::from_ternary(black_box(&q)))
    });
}

fn bench_bitgather(c: &mut Criterion) {
    let data = 0x0123_4567_89AB_CDEFu64;
    let mask = 0xA5A5_5A5A_F00F_0FF0u64;
    let mut g = c.benchmark_group("bitgather");
    g.bench_function("functional", |b| {
        b.iter(|| gather_bits(black_box(data), black_box(mask)))
    });
    g.bench_function("butterfly_model", |b| {
        b.iter(|| gather_bits_butterfly(black_box(data), black_box(mask)))
    });
    g.finish();
}

fn bench_dilution(c: &mut Criterion) {
    let act_values: Vec<f32> = (0..32).map(|i| i as f32 + 1.0).collect();
    let act_map = 0x5555_5555_5555_5555u64;
    let coef_signs: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    let coef_map = 0x1111_1111_1111_1111u64;
    c.bench_function("dilute_64wide", |b| {
        b.iter(|| {
            dilute(black_box(&DilutionInput {
                act_values: &act_values,
                act_map,
                coef_signs: &coef_signs,
                coef_map,
                width: 64,
            }))
        })
    });
}

fn bench_concentration(c: &mut Criterion) {
    let slots: Vec<Option<f32>> = (0..1024)
        .map(|i| if i % 7 < 2 { Some(i as f32) } else { None })
        .collect();
    c.bench_function("concentration_1k_slots", |b| {
        b.iter(|| {
            let mut buf = ConcentrationBuffer::new(16, 4, 1);
            buf.push_slots(black_box(&slots));
            buf.drain_sum()
        })
    });
}

fn bench_forward_orders(c: &mut Criterion) {
    let layer = LayerShape::conv("b", 32, 32, 16, 16, 3, 1, 1);
    let w = synth::weights(&layer, 6, 0.05, 1);
    let d = decompose(&w, 6).expect("decomposition succeeds");
    let input = synth::activations(&layer, 0.5, 2);
    let mut g = c.benchmark_group("forward");
    g.bench_function("eq2_order", |b| {
        b.iter(|| forward_eq2(black_box(&d), black_box(&input), 1, 1))
    });
    g.bench_function("eq3_order", |b| {
        b.iter(|| forward_eq3(black_box(&d), black_box(&input), 1, 1))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_synth,
    bench_decompose,
    bench_compression_tail,
    bench_bitgather,
    bench_dilution,
    bench_concentration,
    bench_forward_orders
);
criterion_main!(benches);
