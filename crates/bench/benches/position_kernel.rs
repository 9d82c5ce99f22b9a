//! Criterion microbenchmark for the Dilution-Concentration position walk:
//! the scalar reference (`position_cost_scalar`) against the word-parallel
//! `PositionKernel`, one position at a time and batched (`cost_batch`), on
//! a dense-activation / sparse-coefficient MobileNet-shaped layer (the
//! regime the ESCALATE paper optimizes: ~95% coefficient sparsity meeting
//! mostly-nonzero activations), plus the batched walk of a C = 1024
//! dense-coefficient channel (MobileNet's fused `dw13+pw13`), where the
//! concentration drain dominates. `scripts/tier1.sh` runs this in criterion
//! test mode (`-- --test`) so the bench executes in CI; `cargo bench
//! --bench position_kernel` measures it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use escalate_bench::plan::splitmix64;
use escalate_sim::ca::{position_cost_scalar, CaScratch, LayerPlan, PositionKernel, MAX_BATCH};
use escalate_sim::{PositionCost, SimConfig};

/// Input channels of the benchmarked layer (a mid-network MobileNet
/// pointwise shape: multi-word masks).
const C: usize = 256;
/// Input channels of the dense-coefficient layer (MobileNet `dw13+pw13`).
const C_DENSE: usize = 1024;
const M: usize = 6;
/// Positions per walk — matches the sampled engine's per-channel walk
/// length so one iteration is one realistic channel visit.
const POSITIONS: usize = 48;

/// A `c`-channel mask with roughly `keep_per_mille`/1000 bits set.
fn mask(seed: &mut u64, c: usize, keep_per_mille: u64) -> Vec<u64> {
    let words = c.div_ceil(64);
    (0..words)
        .map(|_| {
            let mut w = 0u64;
            for b in 0..64 {
                if splitmix64(seed) % 1000 < keep_per_mille {
                    w |= 1 << b;
                }
            }
            w
        })
        .collect()
}

struct WalkInput {
    coef: Vec<Vec<u64>>,
    acts: Vec<Vec<u64>>,
    /// The same positions packed `MAX_BATCH` masks at a time for
    /// `cost_batch`.
    acts_flat: Vec<u64>,
}

/// A `c`-channel walk with the given coefficient and activation densities
/// (per mille).
fn walk_input(c: usize, coef_keep: u64, act_keep: u64) -> WalkInput {
    let mut seed = 0x5eed_c0de_u64;
    let coef: Vec<Vec<u64>> = (0..M).map(|_| mask(&mut seed, c, coef_keep)).collect();
    let acts: Vec<Vec<u64>> = (0..POSITIONS)
        .map(|_| mask(&mut seed, c, act_keep))
        .collect();
    let acts_flat: Vec<u64> = acts.iter().flatten().copied().collect();
    WalkInput {
        coef,
        acts,
        acts_flat,
    }
}

/// A kernel holding the one-channel [`LayerPlan`] of `refs`, as the
/// walk's plan cache hands it out: binding it is `bind_planned`.
fn planned_kernel(cfg: &SimConfig, c: usize, refs: &[&[u64]]) -> PositionKernel {
    let mut kernel = PositionKernel::new(cfg);
    kernel.install_plan(LayerPlan::build(c, refs.len(), &[0], |_, mi| refs[mi]));
    kernel
}

/// Every timed path must agree before we time it — a benchmark of a
/// wrong kernel is worse than no benchmark.
fn assert_paths_agree(cfg: &SimConfig, c: usize, input: &WalkInput) {
    let refs: Vec<&[u64]> = input.coef.iter().map(Vec::as_slice).collect();
    let words = c.div_ceil(64);
    let mut scratch = CaScratch::new(cfg);
    let mut kernel = planned_kernel(cfg, c, &refs);
    kernel.bind_planned(0);
    let mut batched = vec![Default::default(); MAX_BATCH];
    for (p, act) in input.acts.iter().enumerate() {
        let scalar = position_cost_scalar(cfg, c, act, &refs, &mut scratch);
        assert_eq!(kernel.cost(act), scalar);
        let (chunk, off) = (p / MAX_BATCH, p % MAX_BATCH);
        let n = MAX_BATCH.min(POSITIONS - chunk * MAX_BATCH);
        kernel.cost_batch(
            &input.acts_flat[chunk * MAX_BATCH * words..(chunk * MAX_BATCH + n) * words],
            n,
            &mut batched,
        );
        assert_eq!(batched[off], scalar);
    }
}

/// One channel visit through the production batched walk: bind the
/// installed plan's channel, then `MAX_BATCH` positions per pass over the
/// bound coefficient words.
fn batched_walk(
    kernel: &mut PositionKernel,
    c: usize,
    acts_flat: &[u64],
    costs: &mut [PositionCost],
) -> u64 {
    let words = c.div_ceil(64);
    kernel.bind_planned(0);
    let mut total = 0u64;
    let mut p = 0usize;
    while p < POSITIONS {
        let n = MAX_BATCH.min(POSITIONS - p);
        kernel.cost_batch(black_box(&acts_flat[p * words..(p + n) * words]), n, costs);
        for cost in &costs[..n] {
            total += cost.ca_cycles;
        }
        p += n;
    }
    total
}

fn bench_position_walk(c: &mut Criterion) {
    // ~95% sparse coefficients, ~90% dense activations.
    let input = walk_input(C, 50, 900);
    let refs: Vec<&[u64]> = input.coef.iter().map(Vec::as_slice).collect();
    let cfg = SimConfig::default();
    assert_paths_agree(&cfg, C, &input);

    let mut g = c.benchmark_group("position_walk");
    g.sample_size(30);

    let mut scratch = CaScratch::new(&cfg);
    g.bench_function("scalar", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for act in &input.acts {
                total +=
                    position_cost_scalar(&cfg, C, black_box(act), &refs, &mut scratch).ca_cycles;
            }
            total
        })
    });

    // One position at a time through the kernel, re-binding per iteration
    // like run_positions does per channel.
    let mut kernel = planned_kernel(&cfg, C, &refs);
    g.bench_function("word_parallel", |b| {
        b.iter(|| {
            kernel.bind_planned(0);
            let mut total = 0u64;
            for act in &input.acts {
                total += kernel.cost(black_box(act)).ca_cycles;
            }
            total
        })
    });

    // The production walk: MAX_BATCH positions per pass over the bound
    // coefficient words.
    let mut costs = vec![PositionCost::default(); MAX_BATCH];
    g.bench_function("batched", |b| {
        b.iter(|| batched_walk(&mut kernel, C, &input.acts_flat, &mut costs))
    });

    // Dense coefficients meeting half-dense activations at C = 1024: every
    // basis buffers a long row stream, so the drain dominates.
    let dense = walk_input(C_DENSE, 900, 500);
    let dense_refs: Vec<&[u64]> = dense.coef.iter().map(Vec::as_slice).collect();
    assert_paths_agree(&cfg, C_DENSE, &dense);
    let mut kernel = planned_kernel(&cfg, C_DENSE, &dense_refs);
    g.bench_function("batched_dense_c1024", |b| {
        b.iter(|| batched_walk(&mut kernel, C_DENSE, &dense.acts_flat, &mut costs))
    });

    g.finish();
}

criterion_group!(benches, bench_position_walk);
criterion_main!(benches);
