//! Layer workloads: the sparse structure the accelerator executes.
//!
//! The simulator consumes only the *nonzero structure* of the compressed
//! model — per-(output-channel, basis) coefficient bitmasks over the input
//! channels — plus layer shapes and activation sparsity. Workloads are
//! built from the compression pipeline's artifacts so the hardware
//! evaluation runs the very model Table 1 accounts for.

use escalate_core::quant::TernaryCoeffs;
use escalate_core::CompressedLayer;
use escalate_models::{LayerShape, ModelProfile};
use escalate_sparse::pack_byte_flags;

/// Per-layer coefficient bitmasks: for each output channel `k` and basis
/// index `m`, one bit per input channel `c` (set when `Ce(k,c,m) ≠ 0`).
///
/// Also holds the seed-invariant per-layer state the sampled engine reads
/// on every walk — the channels in stable nonzero-count order and the
/// total nonzero count — computed once here instead of per layer per
/// seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoefMasks {
    k: usize,
    c: usize,
    m: usize,
    words_per_mask: usize,
    /// Masks laid out `[k][m][word]`.
    words: Vec<u64>,
    /// Channel ids stably sorted by nonzero count (ties keep id order),
    /// as `u32` to halve its share of the workload caches (a sweep holds
    /// one workload per network and M).
    nnz_order: Vec<u32>,
    /// Total nonzero coefficients.
    total_nnz: usize,
}

impl CoefMasks {
    /// Builds masks from ternary coefficients (`K×C×M`). Each mask word
    /// is gathered in a register from 64 channels' codes of one basis.
    pub fn from_ternary(t: &TernaryCoeffs) -> Self {
        let [k, c, m] = t.shape();
        let words_per_mask = c.div_ceil(64);
        let mut words = vec![0u64; k * m * words_per_mask];
        // No words at all when any dimension is zero.
        if !words.is_empty() {
            for (ki, masks) in words.chunks_exact_mut(m * words_per_mask).enumerate() {
                let slice = t.slice(ki); // C×M row-major
                for (mi, mask) in masks.chunks_exact_mut(words_per_mask).enumerate() {
                    for (word, channels) in mask.iter_mut().zip(slice.chunks(64 * m)) {
                        let mut nonzero = [0u8; 64];
                        for (flag, &v) in
                            nonzero.iter_mut().zip(channels.iter().skip(mi).step_by(m))
                        {
                            *flag = u8::from(v != 0);
                        }
                        *word = pack_byte_flags(&nonzero);
                    }
                }
            }
        }
        Self::from_words(k, c, m, words)
    }

    /// [`CoefMasks::from_ternary`] as one branch per coefficient: the
    /// scalar body the register gather replaced, kept as its differential
    /// oracle (the tail property test and the `kernels` bench).
    pub fn from_ternary_scalar(t: &TernaryCoeffs) -> Self {
        let [k, c, m] = t.shape();
        let words_per_mask = c.div_ceil(64);
        let mut words = vec![0u64; k * m * words_per_mask];
        for ki in 0..k {
            let slice = t.slice(ki); // C×M row-major
            for ci in 0..c {
                for mi in 0..m {
                    if slice[ci * m + mi] != 0 {
                        let base = (ki * m + mi) * words_per_mask;
                        words[base + ci / 64] |= 1u64 << (ci % 64);
                    }
                }
            }
        }
        Self::from_words(k, c, m, words)
    }

    /// The masks over mask `words` laid out `[k][m][word]`, with the
    /// per-channel state derived from them.
    fn from_words(k: usize, c: usize, m: usize, words: Vec<u64>) -> Self {
        let words_per_mask = c.div_ceil(64);
        let stride = m * words_per_mask;
        let nnz: Vec<usize> = (0..k)
            .map(|ki| {
                words[ki * stride..(ki + 1) * stride]
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum()
            })
            .collect();
        let k32 = u32::try_from(k).expect("the mask words of K channels fit in memory");
        let mut nnz_order: Vec<u32> = (0..k32).collect();
        nnz_order.sort_by_key(|&ki| nnz[ki as usize]);
        CoefMasks {
            k,
            c,
            m,
            words_per_mask,
            words,
            nnz_order,
            total_nnz: nnz.iter().sum(),
        }
    }

    /// Number of output channels `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of input channels `C`.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Number of basis kernels `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The mask words for `(k, m)` covering all `C` input channels.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `m` is out of range.
    pub fn mask(&self, k: usize, m: usize) -> &[u64] {
        assert!(k < self.k && m < self.m, "mask index out of range");
        let base = (k * self.m + m) * self.words_per_mask;
        &self.words[base..base + self.words_per_mask]
    }

    /// Nonzero coefficients for output channel `k` across all bases.
    pub fn nnz_for_channel(&self, k: usize) -> usize {
        (0..self.m)
            .map(|m| {
                self.mask(k, m)
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Total nonzero coefficients.
    pub fn total_nnz(&self) -> usize {
        self.total_nnz
    }

    /// Channel ids in stable ascending order of
    /// [`CoefMasks::nnz_for_channel`] (equal counts keep id order).
    pub(crate) fn nnz_order(&self) -> &[u32] {
        &self.nnz_order
    }
}

/// How a layer executes on the accelerator.
#[derive(Debug, Clone)]
pub enum WorkloadMode {
    /// Decomposed convolution through the CA + MAC-row pipeline.
    Decomposed(CoefMasks),
    /// Dense fallback (first layer): input-stationary on the MAC rows,
    /// CAs bypassed (§4.1).
    Dense,
}

/// One layer's workload.
#[derive(Debug, Clone)]
pub struct LayerWorkload {
    /// Name (fused DSC pairs use the combined name).
    pub name: String,
    /// Driving shape: input dims, kernel size, stride, padding.
    pub shape: LayerShape,
    /// Output channels produced (the pointwise `K` for fused DSC pairs).
    pub out_channels: usize,
    /// Execution mode.
    pub mode: WorkloadMode,
    /// Activation sparsity of this layer's input.
    pub act_sparsity: f64,
    /// ReLU sparsity of this layer's output (the next layer's input),
    /// used to size the compressed OFM write-back.
    pub out_sparsity: f64,
    /// Compressed weight footprint in bytes (DRAM weight traffic).
    pub weight_bytes: u64,
}

impl LayerWorkload {
    /// Number of input positions (`X × Y`).
    pub fn positions(&self) -> usize {
        self.shape.x * self.shape.y
    }

    /// Basis count `M` of this workload (1 for dense).
    pub fn m(&self) -> usize {
        match &self.mode {
            WorkloadMode::Decomposed(masks) => masks.m(),
            WorkloadMode::Dense => 1,
        }
    }
}

/// A whole model's workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Model name.
    pub model_name: String,
    /// Layers in execution order.
    pub layers: Vec<LayerWorkload>,
}

impl Workload {
    /// Builds the workload from compression artifacts and the model
    /// profile (which supplies per-layer activation sparsity).
    pub fn from_artifacts(
        model_name: &str,
        artifacts: &[CompressedLayer],
        profile: &ModelProfile,
    ) -> Workload {
        let n = artifacts.len();
        let layers = artifacts
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mode = match &a.quantized {
                    Some(h) => WorkloadMode::Decomposed(CoefMasks::from_ternary(&h.coeffs)),
                    None => WorkloadMode::Dense,
                };
                LayerWorkload {
                    name: a.stats.name.clone(),
                    shape: a.shape.clone(),
                    out_channels: a.out_channels(),
                    mode,
                    act_sparsity: profile.activation_sparsity(i, n),
                    out_sparsity: profile.activation_sparsity((i + 1).min(n - 1), n),
                    weight_bytes: (a.stats.compressed_bits as u64).div_ceil(8),
                }
            })
            .collect();
        Workload {
            model_name: model_name.to_string(),
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escalate_tensor::Tensor;

    fn ternary(k: usize, c: usize, m: usize) -> TernaryCoeffs {
        let t = Tensor::from_fn(&[k, c, m], |i| match (i[0] + i[1] * 2 + i[2]) % 3 {
            0 => 1.0,
            1 => -1.0,
            _ => 0.0,
        });
        TernaryCoeffs::ternarize(&t, 0.0).unwrap()
    }

    #[test]
    fn masks_match_ternary_pattern() {
        let t = ternary(3, 70, 4); // C > 64 exercises multi-word masks
        let masks = CoefMasks::from_ternary(&t);
        assert_eq!(masks.total_nnz(), t.nnz());
        for k in 0..3 {
            let slice = t.slice(k);
            for c in 0..70 {
                for m in 0..4 {
                    let bit = masks.mask(k, m)[c / 64] >> (c % 64) & 1 == 1;
                    assert_eq!(bit, slice[c * 4 + m] != 0, "k={k} c={c} m={m}");
                }
            }
        }
    }

    #[test]
    fn per_channel_nnz_sums_to_total() {
        let t = ternary(5, 33, 6);
        let masks = CoefMasks::from_ternary(&t);
        let sum: usize = (0..5).map(|k| masks.nnz_for_channel(k)).sum();
        assert_eq!(sum, masks.total_nnz());
    }

    #[test]
    fn cached_channel_order_and_total_match_a_recount() {
        // Skewed per-channel densities with many ties, multi-word masks.
        for &(k, c, m) in &[
            (1usize, 1usize, 1usize),
            (7, 70, 3),
            (40, 130, 6),
            (64, 9, 1),
        ] {
            let t = Tensor::from_fn(&[k, c, m], |i| {
                let h = (i[0] * 31 + i[1] * 7 + i[2] * 3) % 11;
                if h < i[0] % 5 {
                    1.0
                } else {
                    0.0
                }
            });
            let masks = CoefMasks::from_ternary(&TernaryCoeffs::ternarize(&t, 0.0).unwrap());
            // The historical per-walk form: a stable sort keyed by a fresh
            // popcount on every comparison, and a recount of every word.
            let mut order: Vec<u32> = (0..k as u32).collect();
            order.sort_by_key(|&ki| masks.nnz_for_channel(ki as usize));
            assert_eq!(masks.nnz_order(), &order[..], "k={k} c={c} m={m}");
            let recount: usize = (0..k)
                .flat_map(|ki| (0..m).map(move |mi| (ki, mi)))
                .flat_map(|(ki, mi)| masks.mask(ki, mi).iter())
                .map(|w| w.count_ones() as usize)
                .sum();
            assert_eq!(masks.total_nnz(), recount, "k={k} c={c} m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_bounds_checked() {
        let masks = CoefMasks::from_ternary(&ternary(2, 8, 2));
        let _ = masks.mask(2, 0);
    }
}
