//! Seeded synthetic weight and activation generators.
//!
//! There is no offline DNN-training ecosystem, so trained checkpoints are
//! replaced by synthetic tensors that preserve the properties the ESCALATE
//! pipeline and simulators actually consume:
//!
//! - **Weights** are generated with a controllable *effective kernel rank*:
//!   each 2-D kernel is a linear combination of `rank` shared latent
//!   kernels plus scaled Gaussian noise, mirroring the empirical low-rank
//!   structure kernel decomposition exploits (PENNI's observation), and the
//!   combination coefficients are long-tailed so that ternary pruning at a
//!   threshold produces realistic sparsity.
//! - **Activations** are Gaussian maps passed through a quantile threshold
//!   ("synthetic ReLU") that hits a requested sparsity exactly, with mild
//!   spatial correlation so nonzeros cluster the way feature maps do.

use crate::layer::{LayerKind, LayerShape};
use escalate_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard Gaussian sample via Box–Muller (keeps us independent of
/// `rand_distr`).
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Generates a synthetic weight tensor for a layer with a target effective
/// kernel rank.
///
/// For regular convolutions the result is `K×C×R×S`; for depthwise layers
/// `C×R×S`; for pointwise/FC layers `K×C` reshaped to `K×C×1×1`.
///
/// `rank` bounds the dimension of the subspace the kernels live in
/// (clamped to `R*S`); `noise` adds a full-rank perturbation of that
/// relative magnitude, so `noise = 0` gives exactly-rank-`rank` kernels.
///
/// # Examples
///
/// ```
/// use escalate_models::{LayerShape, synth};
///
/// let l = LayerShape::conv("l", 8, 16, 16, 16, 3, 1, 1);
/// let w = synth::weights(&l, 4, 0.0, 7);
/// assert_eq!(w.shape(), &[16, 8, 3, 3]);
/// ```
pub fn weights(layer: &LayerShape, rank: usize, noise: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
    let rs = layer.r * layer.s;
    let rank = rank.clamp(1, rs);
    let (k, c) = match layer.kind {
        LayerKind::DwConv => (1, layer.c),
        // Grouped filters only see their group's slice of the input.
        LayerKind::GroupedConv { .. } => (layer.k, layer.c / layer.groups()),
        _ => (layer.k, layer.c),
    };

    // Shared latent kernels, roughly orthogonal by random draw.
    let latent: Vec<Vec<f32>> = (0..rank)
        .map(|_| (0..rs).map(|_| gaussian(&mut rng)).collect())
        .collect();

    // Long-tailed combination coefficients: most kernels are dominated by
    // one or two latent components, which is what magnitude pruning of the
    // projected coefficients exploits.
    let mut data = vec![0.0f32; k * c * rs];
    for kernel in data.chunks_exact_mut(rs) {
        for l in &latent {
            // Laplace-like heavy tail: sign * exp-distributed magnitude.
            let mag = -gaussian(&mut rng).abs().ln_1p() + gaussian(&mut rng).abs().powi(2) * 0.4;
            let coef = if rng.gen_bool(0.5) { mag } else { -mag };
            for (kv, &lv) in kernel.iter_mut().zip(l) {
                *kv += coef * lv;
            }
        }
        for kv in kernel.iter_mut() {
            *kv += noise * gaussian(&mut rng);
        }
    }

    // Normalize to a He-like fan-in scale so outputs are well-conditioned.
    let fan_in = (c * rs) as f32;
    let scale = (2.0 / fan_in).sqrt();
    let norm: f32 = data.iter().map(|v| v * v).sum::<f32>().sqrt() / (data.len() as f32).sqrt();
    let adj = if norm > 0.0 { scale / norm } else { scale };
    for v in data.iter_mut() {
        *v *= adj;
    }

    match layer.kind {
        LayerKind::DwConv => Tensor::from_vec(&[layer.c, layer.r, layer.s], data),
        LayerKind::GroupedConv { .. } => {
            Tensor::from_vec(&[layer.k, layer.c / layer.groups(), layer.r, layer.s], data)
        }
        _ => Tensor::from_vec(&[layer.k, layer.c, layer.r, layer.s], data),
    }
}

/// Generates a synthetic pointwise weight matrix (`K×C`) for DSC layers.
pub fn pointwise_weights(c: usize, k: usize, seed: u64) -> escalate_tensor::Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
    let scale = (2.0 / c as f32).sqrt();
    escalate_tensor::Matrix::from_vec(
        k,
        c,
        (0..k * c).map(|_| gaussian(&mut rng) * scale).collect(),
    )
}

/// Generates a synthetic input feature map (`C×X×Y`) with exactly the
/// requested sparsity (fraction of zeros), emulating post-ReLU activations.
///
/// Values are mildly spatially correlated (a 1-pole filter along rows) so
/// nonzeros cluster like real feature maps; the zero pattern comes from
/// thresholding at the requested quantile, and surviving values are
/// strictly positive like ReLU outputs.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use escalate_models::{LayerShape, synth};
///
/// let l = LayerShape::conv("l", 4, 8, 16, 16, 3, 1, 1);
/// let a = synth::activations(&l, 0.5, 42);
/// let zeros = a.as_slice().iter().filter(|&&v| v == 0.0).count();
/// assert!((zeros as f64 / a.len() as f64 - 0.5).abs() < 0.02);
/// ```
pub fn activations(layer: &LayerShape, sparsity: f64, seed: u64) -> Tensor {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0003);
    let c = layer.c;
    let (x, y) = (layer.x, layer.y);
    let mut data = vec![0.0f32; c * x * y];
    for ci in 0..c {
        let mut prev = 0.0f32;
        for xi in 0..x {
            for yi in 0..y {
                let fresh = gaussian(&mut rng);
                let v = 0.6 * prev + 0.8 * fresh;
                prev = v;
                data[(ci * x + xi) * y + yi] = v;
            }
        }
    }
    // Threshold at the requested quantile.
    let mut sorted = data.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let cut_idx = ((sorted.len() as f64 * sparsity) as usize).min(sorted.len().saturating_sub(1));
    let cut = if sparsity >= 1.0 {
        f32::INFINITY
    } else {
        sorted[cut_idx]
    };
    for v in data.iter_mut() {
        // Shift survivors to be positive (ReLU-like) with the threshold as 0.
        *v = if *v > cut { *v - cut } else { 0.0 };
    }
    Tensor::from_vec(&[c, x, y], data)
}

/// Deterministic per-layer seed derived from a base seed, layer index, and
/// sample index, so different experiments agree on workloads.
pub fn layer_seed(base: u64, layer_index: usize, sample: usize) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (layer_index as u64);
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB) ^ (sample as u64);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use escalate_tensor::{linalg, Matrix};

    fn reshaped(layer: &LayerShape, w: &Tensor) -> Matrix {
        let rs = layer.r * layer.s;
        Matrix::from_vec(w.len() / rs, rs, w.as_slice().to_vec())
    }

    #[test]
    fn weights_have_requested_shape() {
        let l = LayerShape::conv("l", 4, 8, 8, 8, 3, 1, 1);
        assert_eq!(weights(&l, 3, 0.1, 1).shape(), &[8, 4, 3, 3]);
        let d = LayerShape::dwconv("d", 16, 8, 8, 3, 1, 1);
        assert_eq!(weights(&d, 3, 0.1, 1).shape(), &[16, 3, 3]);
        let g = LayerShape::grouped_conv("g", 16, 8, 8, 8, 3, 1, 1, 4);
        assert_eq!(weights(&g, 3, 0.1, 1).shape(), &[8, 4, 3, 3]);
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let l = LayerShape::conv("l", 4, 8, 8, 8, 3, 1, 1);
        assert_eq!(weights(&l, 3, 0.1, 7), weights(&l, 3, 0.1, 7));
        assert_ne!(weights(&l, 3, 0.1, 7), weights(&l, 3, 0.1, 8));
    }

    #[test]
    fn noiseless_weights_have_exact_rank() {
        let l = LayerShape::conv("l", 6, 12, 8, 8, 3, 1, 1);
        let w = weights(&l, 4, 0.0, 3);
        let m = reshaped(&l, &w);
        let f = linalg::truncated_svd(&m, 4).unwrap();
        // Rank-4 construction ⇒ rank-4 SVD reconstructs (nearly) exactly.
        assert!(f.captured_energy > 0.999, "captured {}", f.captured_energy);
    }

    #[test]
    fn noise_raises_effective_rank() {
        let l = LayerShape::conv("l", 6, 12, 8, 8, 3, 1, 1);
        let clean = reshaped(&l, &weights(&l, 2, 0.0, 3));
        let noisy = reshaped(&l, &weights(&l, 2, 0.5, 3));
        let ec = linalg::truncated_svd(&clean, 2).unwrap().captured_energy;
        let en = linalg::truncated_svd(&noisy, 2).unwrap().captured_energy;
        assert!(ec > en, "noise should spread energy: clean={ec} noisy={en}");
    }

    #[test]
    fn activations_hit_target_sparsity() {
        let l = LayerShape::conv("l", 8, 8, 32, 32, 3, 1, 1);
        for target in [0.0, 0.3, 0.5, 0.8] {
            let a = activations(&l, target, 11);
            assert!(
                (a.sparsity() - target).abs() < 0.02,
                "target {target}, got {}",
                a.sparsity()
            );
        }
    }

    #[test]
    fn activations_are_nonnegative() {
        let l = LayerShape::conv("l", 4, 4, 16, 16, 3, 1, 1);
        let a = activations(&l, 0.6, 5);
        assert!(a.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn full_sparsity_gives_zero_map() {
        let l = LayerShape::conv("l", 2, 2, 8, 8, 3, 1, 1);
        let a = activations(&l, 1.0, 5);
        assert_eq!(a.nnz(), 0);
    }

    /// 64-bit FNV-1a over the little-endian bit patterns of `values`.
    fn fnv1a(values: &[f32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn synthesized_bits_are_pinned() {
        // Every compression golden rests on these exact draws: a changed
        // RNG draw order or float op in the generators fails here in
        // milliseconds instead of in the full `report --all --check`.
        let conv = LayerShape::conv("c", 16, 32, 8, 8, 3, 1, 1);
        let pw = LayerShape::pwconv("p", 24, 16, 8, 8);
        let dw = LayerShape::dwconv("d", 32, 8, 8, 3, 1, 1);
        let grouped = LayerShape::grouped_conv("g", 16, 8, 8, 8, 3, 1, 1, 4);
        let digests = [
            fnv1a(weights(&conv, 6, 0.05, 42).as_slice()),
            fnv1a(weights(&pw, 1, 1.0, 7).as_slice()),
            fnv1a(weights(&dw, 6, 0.05, 11).as_slice()),
            fnv1a(weights(&grouped, 3, 0.1, 13).as_slice()),
            fnv1a(pointwise_weights(24, 40, 17).as_slice()),
        ];
        assert_eq!(
            digests,
            [
                0x87c1_c7c1_84ee_6ec9,
                0xb76b_17ee_daed_69e6,
                0xc5d4_3780_bdc2_4406,
                0x86e1_cdec_4aff_5e96,
                0x3582_cd1e_30c4_518c,
            ]
        );
    }

    #[test]
    fn layer_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for layer in 0..50 {
            for sample in 0..10 {
                assert!(seen.insert(layer_seed(42, layer, sample)));
            }
        }
    }
}
