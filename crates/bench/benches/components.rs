//! Criterion benchmarks for the component models under the throughput
//! engine: the cycle-stepped slice, the GEMM convolution path, and the
//! bounded cache every derived-state cache is built on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use escalate_core::cache::SingleFlightCache;
use escalate_sim::slice::{run_slice, PositionInput};
use escalate_sim::SimConfig;
use escalate_tensor::im2col::conv2d_gemm;
use escalate_tensor::{conv::conv2d, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_slice(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let positions: Vec<PositionInput> = (0..16)
        .map(|_| {
            let mut act = vec![0u64; 2];
            let mut coefs = vec![vec![0u64; 2]; 6];
            for i in 0..128 {
                if rng.gen_bool(0.5) {
                    act[i / 64] |= 1 << (i % 64);
                }
                for cm in coefs.iter_mut() {
                    if rng.gen_bool(0.1) {
                        cm[i / 64] |= 1 << (i % 64);
                    }
                }
            }
            PositionInput {
                act_mask: act,
                coef_masks: coefs,
                c: 128,
            }
        })
        .collect();
    let cfg = SimConfig::default();
    c.bench_function("slice_cycle_stepped_16pos", |b| {
        b.iter(|| run_slice(&cfg, 6, 9, black_box(&positions)))
    });
}

fn bench_gemm_vs_direct(c: &mut Criterion) {
    let input = Tensor::from_fn(&[32, 16, 16], |i| {
        ((i[0] * 7 + i[1] * 3 + i[2]) % 9) as f32 * 0.1
    });
    let weight = Tensor::from_fn(&[32, 32, 3, 3], |i| {
        ((i[0] + i[1] + i[2] * i[3]) % 7) as f32 * 0.1
    });
    let mut g = c.benchmark_group("conv_paths");
    g.bench_function("direct", |b| {
        b.iter(|| conv2d(black_box(&input), black_box(&weight), 1, 1))
    });
    g.bench_function("im2col_gemm", |b| {
        b.iter(|| conv2d_gemm(black_box(&input), black_box(&weight), 1, 1))
    });
    g.finish();
}

/// One evicting miss on a full [`SingleFlightCache`]: every iteration
/// looks up a fresh key in a cache already at its bound, so it pays the
/// lookup, the insert and one victim search. 512 is the plan cache's
/// bound and 16384 the walk cache's.
fn bench_cache_eviction(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    for capacity in [512u64, 16384] {
        let cache: SingleFlightCache<u64, u64> = SingleFlightCache::new(capacity as usize);
        for key in 0..capacity {
            cache.get_or_insert_with(key, || key);
        }
        let mut next = capacity;
        g.bench_function(format!("evicting_miss_{capacity}"), |b| {
            b.iter(|| {
                next += 1;
                let look = cache.get_or_insert_with(black_box(next), || next);
                assert_eq!(look.evicted, 1, "a full cache evicts once per miss");
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_slice,
    bench_gemm_vs_direct,
    bench_cache_eviction
);
criterion_main!(benches);
