//! Hybrid quantization (paper §3.2).
//!
//! The two decomposed weight components have very different reuse
//! frequencies: the `M` basis kernels participate in every output-channel
//! computation, while each coefficient is used for exactly one
//! (input, output)-channel pair. ESCALATE therefore keeps the basis at
//! 8 bits and pushes the coefficients to *ternary* values with per-filter
//! positive/negative scaling factors (Eq. (4)). To keep the hardware
//! multiplier-free in stage 1, the negative/positive scale quotient is
//! further quantized to a 2-bit shift code so the sign can be attached to
//! each activation and the negative scale applied as a shift.

use crate::decompose::Decomposed;
use crate::error::EscalateError;
use escalate_sparse::pack_byte_flags;
use escalate_sparse::sparsemap::CHUNK_BITS;
use escalate_tensor::{RelativeError, Tensor};

pub mod oracle;

/// Linearly (symmetrically) quantizes a tensor to the given bit width,
/// returning the dequantized tensor and the storage cost in bits.
///
/// Used for the basis kernels (8 bits by default) and for the uniform /
/// basis-only policies of the Figure 7 sweep.
///
/// # Errors
///
/// Returns [`EscalateError::InvalidQuantization`] when `bits` is 0 or > 16.
pub fn quantize_linear(t: &Tensor, bits: u32) -> Result<(Tensor, usize), EscalateError> {
    if bits == 0 || bits > 16 {
        return Err(EscalateError::InvalidQuantization {
            what: format!("bits={bits}"),
        });
    }
    let qmax = ((1i32 << (bits - 1)) - 1) as f32;
    let max = t.max_abs();
    if max == 0.0 {
        return Ok((t.clone(), t.len() * bits as usize + 32));
    }
    let scale = max / qmax;
    let deq = t.map(|v| (v / scale).round().clamp(-qmax, qmax) * scale);
    // Storage: `bits` per value plus one fp32 scale.
    Ok((deq, t.len() * bits as usize + 32))
}

/// Linearly quantizes a tensor with one symmetric scale per contiguous
/// group of `group_len` elements (e.g. per output-channel coefficient
/// slice), returning the dequantized tensor and the storage cost in bits.
///
/// # Errors
///
/// Returns [`EscalateError::InvalidQuantization`] when `bits` is 0 or > 16,
/// or when `group_len` is zero or does not divide the tensor length.
pub fn quantize_linear_grouped(
    t: &Tensor,
    bits: u32,
    group_len: usize,
) -> Result<(Tensor, usize), EscalateError> {
    if bits == 0 || bits > 16 {
        return Err(EscalateError::InvalidQuantization {
            what: format!("bits={bits}"),
        });
    }
    if group_len == 0 || !t.len().is_multiple_of(group_len) {
        return Err(EscalateError::InvalidQuantization {
            what: format!("group_len={group_len}"),
        });
    }
    let qmax = ((1i32 << (bits - 1)) - 1) as f32;
    let mut out = Vec::with_capacity(t.len());
    let groups = t.len() / group_len;
    for g in 0..groups {
        let slice = &t.as_slice()[g * group_len..(g + 1) * group_len];
        let max = slice.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        if max == 0.0 {
            out.extend_from_slice(slice);
            continue;
        }
        let scale = max / qmax;
        out.extend(
            slice
                .iter()
                .map(|&v| (v / scale).round().clamp(-qmax, qmax) * scale),
        );
    }
    // Storage: `bits` per value plus one 8-bit scale per group.
    let size = t.len() * bits as usize + groups * 8;
    Ok((Tensor::from_vec(t.shape(), out), size))
}

/// Re-quantizes an output feature map (`K×X'×Y'`) to `bits` with one
/// symmetric scale per output channel — the §3.2 step that matches each
/// channel's range after the per-filter coefficient scaling, so the next
/// layer receives uniformly-scaled 8-bit activations.
///
/// Returns the dequantized map and the per-channel scales.
///
/// # Errors
///
/// Returns [`EscalateError::InvalidQuantization`] when `bits` is 0 or > 16.
///
/// # Panics
///
/// Panics if `ofm` is not rank-3.
pub fn requantize_output(ofm: &Tensor, bits: u32) -> Result<(Tensor, Vec<f32>), EscalateError> {
    if bits == 0 || bits > 16 {
        return Err(EscalateError::InvalidQuantization {
            what: format!("bits={bits}"),
        });
    }
    let [k, x, y]: [usize; 3] = ofm.shape().try_into().expect("ofm must be K*X'*Y'");
    let plane = x * y;
    let qmax = ((1i32 << (bits - 1)) - 1) as f32;
    let mut out = Vec::with_capacity(ofm.len());
    let mut scales = Vec::with_capacity(k);
    for ki in 0..k {
        let slice = &ofm.as_slice()[ki * plane..(ki + 1) * plane];
        let max = slice.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let scale = if max == 0.0 { 1.0 } else { max / qmax };
        scales.push(scale);
        out.extend(
            slice
                .iter()
                .map(|&v| (v / scale).round().clamp(-qmax, qmax) * scale),
        );
    }
    Ok((Tensor::from_vec(ofm.shape(), out), scales))
}

/// The 8-bit quantized basis kernels.
#[derive(Debug, Clone)]
pub struct QuantizedBasis {
    /// Quantized integer values, `M×R×S` in row-major order.
    pub q: Vec<i8>,
    /// Symmetric scale: real value = `q * scale`.
    pub scale: f32,
    shape: [usize; 3],
}

impl QuantizedBasis {
    /// Quantizes a basis tensor (`M×R×S`) to 8 bits symmetric.
    ///
    /// # Panics
    ///
    /// Panics if `basis` is not rank-3.
    pub fn quantize(basis: &Tensor) -> Self {
        let shape: [usize; 3] = basis.shape().try_into().expect("basis must be M*R*S");
        let max = basis.max_abs();
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        let q = basis
            .as_slice()
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantizedBasis { q, scale, shape }
    }

    /// Dequantizes back to an `M×R×S` tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            &self.shape,
            self.q.iter().map(|&v| v as f32 * self.scale).collect(),
        )
    }

    /// Storage cost in bits (8 per value plus the fp32 scale).
    pub fn size_bits(&self) -> usize {
        self.q.len() * 8 + 32
    }

    /// Shape `[M, R, S]`.
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }
}

/// The 2-bit quotient codebook: the negative scale is the positive scale
/// shifted by `QUOTIENT_SHIFTS[code]` bit positions.
pub const QUOTIENT_SHIFTS: [i8; 4] = [-1, 0, 1, 2];

/// The quotient multiplier for a 2-bit code.
fn quotient_value(code: u8) -> f32 {
    debug_assert!(code < 4, "quotient codes are 2 bits");
    2.0f32.powi(QUOTIENT_SHIFTS[code as usize & 3] as i32)
}

/// Encodes a positive quotient to the nearest 2-bit shift code.
pub fn encode_quotient(q: f32) -> u8 {
    let mut best = 0u8;
    let mut best_err = f32::INFINITY;
    for code in 0..4u8 {
        let err = (quotient_value(code) - q).abs();
        if err < best_err {
            best = code;
            best_err = err;
        }
    }
    best
}

/// Ternary coefficients with per-filter scaling (Eq. (4)).
#[derive(Debug, Clone)]
pub struct TernaryCoeffs {
    /// Ternary values in `{-1, 0, +1}`, `K×C×M` row-major.
    pub ternary: Vec<i8>,
    /// Per-output-channel positive scaling factor `w_k^pos`.
    pub w_pos: Vec<f32>,
    /// Per-output-channel 2-bit quotient code; the effective negative
    /// scale is `w_pos[k] * quotient_value(code[k])`.
    pub quotient_code: Vec<u8>,
    pub(crate) shape: [usize; 3],
}

impl TernaryCoeffs {
    /// Ternarizes a `K×C×M` coefficient tensor with threshold factor `t`
    /// (Eq. (4)): values within `t·max|slice|` become zero; survivors map
    /// to `±1` with per-slice scales initialized to the mean magnitude of
    /// the surviving values on each side (the standard TTQ/TWN
    /// initialization, refined further by [`crate::qat`]).
    ///
    /// # Errors
    ///
    /// Returns [`EscalateError::InvalidQuantization`] unless `0 ≤ t < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is not rank-3.
    pub fn ternarize(coeffs: &Tensor, t: f32) -> Result<Self, EscalateError> {
        if !(0.0..1.0).contains(&t) {
            return Err(EscalateError::InvalidQuantization {
                what: format!("t={t}"),
            });
        }
        let shape: [usize; 3] = coeffs.shape().try_into().expect("coeffs must be K*C*M");
        let [k, c, m] = shape;
        let slice_len = c * m;
        let mut ternary = vec![0i8; k * slice_len];
        let mut w_pos = Vec::with_capacity(k);
        let mut quotient_code = Vec::with_capacity(k);
        for ki in 0..k {
            let slice = &coeffs.as_slice()[ki * slice_len..(ki + 1) * slice_len];
            let codes = &mut ternary[ki * slice_len..(ki + 1) * slice_len];
            let max = max_abs(slice);
            let thr = t * max;
            // The scales are f32 sums in index order over the survivors
            // only, found through each 64-value block's sign bits. `thr` is
            // never negative (at most `-0.0`), so no value passes both
            // tests.
            let mut pos_sum = 0.0f32;
            let mut pos_n = 0usize;
            let mut neg_sum = 0.0f32;
            let mut neg_n = 0usize;
            for (values, block) in slice.chunks(64).zip(codes.chunks_mut(64)) {
                let mut up = [0u8; 64];
                let mut down = [0u8; 64];
                for (j, (code, &v)) in block.iter_mut().zip(values).enumerate() {
                    up[j] = u8::from(v > thr);
                    down[j] = u8::from(v < -thr);
                    *code = up[j] as i8 - down[j] as i8;
                }
                let (mut pos, mut neg) = (pack_byte_flags(&up), pack_byte_flags(&down));
                pos_n += pos.count_ones() as usize;
                neg_n += neg.count_ones() as usize;
                while pos != 0 {
                    pos_sum += values[pos.trailing_zeros() as usize];
                    pos &= pos - 1;
                }
                while neg != 0 {
                    neg_sum += -values[neg.trailing_zeros() as usize];
                    neg &= neg - 1;
                }
            }
            let wp = if pos_n > 0 {
                pos_sum / pos_n as f32
            } else {
                max.max(f32::MIN_POSITIVE)
            };
            let wn = if neg_n > 0 {
                neg_sum / neg_n as f32
            } else {
                wp
            };
            w_pos.push(wp);
            quotient_code.push(encode_quotient(wn / wp));
        }
        Ok(TernaryCoeffs {
            ternary,
            w_pos,
            quotient_code,
            shape,
        })
    }

    /// Shape `[K, C, M]`.
    pub fn shape(&self) -> [usize; 3] {
        self.shape
    }

    /// The effective negative scale for output channel `k`.
    pub fn w_neg(&self, k: usize) -> f32 {
        self.w_pos[k] * quotient_value(self.quotient_code[k])
    }

    /// Fraction of zero ternary values.
    pub fn sparsity(&self) -> f64 {
        if self.ternary.is_empty() {
            return 0.0;
        }
        self.ternary.iter().filter(|&&v| v == 0).count() as f64 / self.ternary.len() as f64
    }

    /// Number of nonzero ternary values.
    pub fn nnz(&self) -> usize {
        self.ternary.iter().filter(|&&v| v != 0).count()
    }

    /// Number of surviving `(k, c)` coefficient groups — input-output
    /// channel pairs with at least one nonzero coefficient across the `M`
    /// bases. This is the "remaining connections" count behind Table 1's
    /// pruning-ratio column: a pruned kernel connection disappears only
    /// when all of its basis coefficients are zero.
    pub fn nonzero_groups(&self) -> usize {
        self.counts().nonzero_groups
    }

    /// The nonzero counts the pipeline's accounting reads, from one pass
    /// over the codes: each code becomes one bit of a packed nonzero
    /// bitmap, and the groups and SparseMap chunks are tests of bit
    /// ranges in it.
    pub fn counts(&self) -> TernaryCounts {
        let [k, c, m] = self.shape;
        let slice_len = c * m;
        let bits = nonzero_bits(&self.ternary);
        let stored_chunks = (0..k)
            .map(|ki| {
                (0..slice_len)
                    .step_by(CHUNK_BITS)
                    .filter(|&off| {
                        any_bit(&bits, ki * slice_len + off, CHUNK_BITS.min(slice_len - off))
                    })
                    .count()
            })
            .sum();
        TernaryCounts {
            nnz: bits.iter().map(|w| w.count_ones() as usize).sum(),
            nonzero_groups: (0..k * c).filter(|&g| any_bit(&bits, g * m, m)).count(),
            chunks: k * slice_len.div_ceil(CHUNK_BITS),
            stored_chunks,
        }
    }

    /// Dequantizes to a full `K×C×M` tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(&self.shape, self.dequantized_values().collect())
    }

    /// The dequantized values in row-major `K×C×M` order.
    fn dequantized_values(&self) -> impl Iterator<Item = f32> + '_ {
        let [_, c, m] = self.shape;
        // An empty slice length means no values at all; `chunks` needs 1+.
        self.ternary
            .chunks((c * m).max(1))
            .enumerate()
            .flat_map(move |(ki, slice)| {
                let (pos, neg) = self.levels(ki);
                slice.iter().map(move |&v| level(v, pos, neg))
            })
    }

    /// The ternary slice (length `C*M`) for output channel `k`.
    pub fn slice(&self, k: usize) -> &[i8] {
        let [_, c, m] = self.shape;
        &self.ternary[k * c * m..(k + 1) * c * m]
    }

    /// The values `+1` and `-1` dequantize to in output channel `k`.
    fn levels(&self, k: usize) -> (f32, f32) {
        (self.w_pos[k], -self.w_neg(k))
    }

    /// Relative error of the dequantized coefficients against `reference`,
    /// the float coefficients they were ternarized from: the bits of
    /// `reference.relative_error(&self.dequantize())` without
    /// materializing the dequantized tensor.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is not `K×C×M`.
    pub fn dequantized_error(&self, reference: &Tensor) -> f32 {
        assert_eq!(
            reference.shape(),
            &self.shape[..],
            "dequantized_error requires the coefficient shape"
        );
        let [k, c, m] = self.shape;
        let slice_len = c * m;
        let mut acc = RelativeError::default();
        for ki in 0..k {
            let (pos, neg) = self.levels(ki);
            let table = [0.0, pos, neg];
            let range = ki * slice_len..(ki + 1) * slice_len;
            for (&r, &v) in reference.as_slice()[range.clone()]
                .iter()
                .zip(&self.ternary[range])
            {
                acc.push(r, table[level_index(v)]);
            }
        }
        acc.value()
    }
}

/// The nonzero counts of a [`TernaryCoeffs`], from
/// [`TernaryCoeffs::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TernaryCounts {
    /// Nonzero codes ([`TernaryCoeffs::nnz`]).
    pub nnz: usize,
    /// `(k, c)` groups with a nonzero code
    /// ([`TernaryCoeffs::nonzero_groups`]).
    pub nonzero_groups: usize,
    /// 16-code SparseMap chunks over the `K` filter slices, each slice
    /// starting a fresh chunk.
    pub chunks: usize,
    /// Those chunks that hold a nonzero code (the ones a 2-level SparseMap
    /// stores).
    pub stored_chunks: usize,
}

/// Where [`level`] finds `v` in a `[0.0, pos, neg]` table.
#[inline]
fn level_index(v: i8) -> usize {
    usize::from(v == 1) | usize::from(v == -1) << 1
}

/// `max |v|` over `values`, NaN skipped, `0.0` when nothing is left: the
/// fold `values.iter().fold(0.0, |a, &v| a.max(v.abs()))` taken in 16
/// lanes. Every candidate is a non-NaN magnitude, so the maximum is one
/// value whatever order the lanes combine in.
fn max_abs(values: &[f32]) -> f32 {
    const LANES: usize = 16;
    let mut lanes = [0.0f32; LANES];
    let blocks = values.chunks_exact(LANES);
    let tail = blocks.remainder();
    for block in blocks {
        for (lane, &v) in lanes.iter_mut().zip(block) {
            *lane = lane.max(v.abs());
        }
    }
    lanes
        .iter()
        .chain(tail)
        .fold(0.0f32, |a, &v| a.max(v.abs()))
}

/// One bit per code, set where the code is nonzero, in 64-code words,
/// then one zero word so that any 64-bit field can be read from two words.
fn nonzero_bits(codes: &[i8]) -> Vec<u64> {
    let mut bits = Vec::with_capacity(codes.len().div_ceil(64) + 1);
    bits.extend(codes.chunks(64).map(|block| {
        let mut nonzero = [0u8; 64];
        for (flag, &v) in nonzero.iter_mut().zip(block) {
            *flag = u8::from(v != 0);
        }
        pack_byte_flags(&nonzero)
    }));
    bits.push(0);
    bits
}

/// Whether any of the bits `start..start + len` of `bits` is set.
#[inline]
fn any_bit(bits: &[u64], start: usize, len: usize) -> bool {
    let end = start + len;
    let mut at = start;
    let mut any = 0;
    while at < end {
        let n = (end - at).min(64);
        let window = (u128::from(bits[at / 64]) | u128::from(bits[at / 64 + 1]) << 64) >> (at % 64);
        any |= window as u64 & (u64::MAX >> (64 - n));
        at += n;
    }
    any != 0
}

/// The dequantized value of ternary `v` given its channel's levels.
#[inline]
fn level(v: i8, pos: f32, neg: f32) -> f32 {
    match v {
        1 => pos,
        -1 => neg,
        _ => 0.0,
    }
}

/// Finds a threshold factor `t` such that [`TernaryCoeffs::ternarize`]
/// yields at least the target sparsity.
///
/// Eq. (4) zeroes an element when `|c| ≤ t · max|slice|`, so the smallest
/// sufficient `t` is the target-quantile of the per-element ratios
/// `|c| / max|slice|`: the order statistic that
/// `select_nth_unstable_by(f32::total_cmp)` picks from those ratios
/// ([`oracle::threshold_for_sparsity`]). Each ratio is compared as its
/// [`total_order_key`], whose unsigned order is `total_cmp`'s. A sample of
/// the keys brackets the quantile; one pass then counts the keys below
/// the bracket and keeps those inside it, and the quantile is selected
/// among the kept keys. If the sample missed, the bracket widens to every
/// key, which is the exact selection over all ratios. A ratio is NaN only
/// when the slice holds non-finite values; `total_cmp` ranks a positive
/// NaN above every number and a negative one (`inf / inf`) below.
pub fn threshold_for_sparsity(coeffs: &Tensor, target: f64) -> f32 {
    /// Sampled keys (at least this many, fewer than twice as many).
    const SAMPLE: usize = 4096;
    let shape: [usize; 3] = coeffs.shape().try_into().expect("coeffs must be K*C*M");
    let [_, c, m] = shape;
    let slice_len = c * m;
    let n = coeffs.len();
    if n == 0 {
        return 0.0;
    }
    let idx = ((target * n as f64).ceil() as usize)
        .min(n)
        .saturating_sub(1);
    let values = coeffs.as_slice();
    // `n > 0`, so the slices are not empty.
    let maxes: Vec<f32> = values.chunks_exact(slice_len).map(max_abs).collect();
    let key_at = |i: usize| ratio_key(values[i], maxes[i / slice_len]);
    // A Weyl sequence spreads the sample over the tensor without locking
    // onto its K×C×M strides.
    let samples = n.min(SAMPLE);
    let mut sample: Vec<u32> = (0..samples as u64)
        .map(|j| {
            let u = j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            key_at(((u128::from(u) * n as u128) >> 64) as usize)
        })
        .collect();
    sample.sort_unstable();
    // Four standard deviations of the sample quantile's rank either side.
    let rank = idx as f64 / n as f64 * samples as f64;
    let spread = 4.0 * (rank * (1.0 - rank / samples as f64)).sqrt() + 2.0;
    let lo = sample[((rank - spread).max(0.0) as usize).min(samples - 1)];
    let hi = sample[((rank + spread) as usize).min(samples - 1)];
    let key = select_key(values, slice_len, &maxes, idx, lo, hi)
        .or_else(|| select_key(values, slice_len, &maxes, idx, 0, u32::MAX))
        .expect("the whole key range holds every ratio");
    f32::from_bits(from_total_order_key(key)).clamp(0.0, 0.999)
}

/// The key of rank `idx` among the ratio keys of `values`, if it lies in
/// `lo..=hi`: one pass counts the keys below `lo` and keeps those in
/// range.
fn select_key(
    values: &[f32],
    slice_len: usize,
    maxes: &[f32],
    idx: usize,
    lo: u32,
    hi: u32,
) -> Option<u32> {
    let mut keys = [0u32; 64];
    let mut below = 0usize;
    // The whole key range keeps every ratio: allocate once for it.
    let whole = lo == 0 && hi == u32::MAX;
    let mut kept = Vec::with_capacity(if whole { values.len() } else { 0 });
    for (slice, &max) in values.chunks_exact(slice_len).zip(maxes) {
        for block in slice.chunks(64) {
            let keys = ratio_keys(block, max, &mut keys);
            let mut flags = [0u8; 64];
            for (flag, &k) in flags.iter_mut().zip(keys) {
                below += usize::from(k < lo);
                *flag = u8::from(k.wrapping_sub(lo) <= hi.wrapping_sub(lo));
            }
            let mut inside = pack_byte_flags(&flags);
            while inside != 0 {
                kept.push(keys[inside.trailing_zeros() as usize]);
                inside &= inside - 1;
            }
        }
    }
    let rank = idx.checked_sub(below).filter(|&r| r < kept.len())?;
    Some(*kept.select_nth_unstable(rank).1)
}

/// The [`total_order_key`] of the ratio `|v| / max` (`0.0` when `max` is
/// zero).
#[inline]
fn ratio_key(v: f32, max: f32) -> u32 {
    let ratio = if max == 0.0 { 0.0 } else { v.abs() / max };
    total_order_key(ratio.to_bits())
}

/// The [`total_order_key`]s of `block`'s ratios `|v| / max` (all `0.0`
/// when `max` is zero), written to the front of `keys`.
#[inline]
fn ratio_keys<'a>(block: &[f32], max: f32, keys: &'a mut [u32; 64]) -> &'a [u32] {
    let keys = &mut keys[..block.len()];
    if max == 0.0 {
        keys.fill(ratio_key(0.0, 0.0));
    } else {
        for (key, &v) in keys.iter_mut().zip(block) {
            *key = total_order_key((v.abs() / max).to_bits());
        }
    }
    keys
}

/// The bits of an `f32` mapped so that unsigned order is
/// [`f32::total_cmp`]'s: a set sign flips every bit, a clear one flips
/// just the sign.
#[inline]
fn total_order_key(bits: u32) -> u32 {
    bits ^ (((bits as i32) >> 31) as u32 | 0x8000_0000)
}

/// The inverse of [`total_order_key`].
#[inline]
fn from_total_order_key(key: u32) -> u32 {
    key ^ (((!key as i32) >> 31) as u32 | 0x8000_0000)
}

/// A fully hybrid-quantized decomposed layer: 8-bit basis plus ternary
/// coefficients.
///
/// # Examples
///
/// ```
/// use escalate_core::{decompose, HybridQuantized};
/// use escalate_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Tensor::from_fn(&[8, 4, 3, 3], |i| ((i[0] * 7 + i[1] * 3 + i[2] + i[3]) % 5) as f32 - 2.0);
/// let d = decompose(&w, 4)?;
/// let h = HybridQuantized::quantize(&d, 0.05)?;
/// assert!(h.coeffs.sparsity() >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HybridQuantized {
    /// 8-bit basis kernels.
    pub basis: QuantizedBasis,
    /// Ternary coefficients with per-filter scales.
    pub coeffs: TernaryCoeffs,
}

impl HybridQuantized {
    /// Quantizes a decomposition with threshold factor `t`.
    ///
    /// # Errors
    ///
    /// Propagates [`EscalateError::InvalidQuantization`] for a bad `t`.
    pub fn quantize(d: &Decomposed, t: f32) -> Result<Self, EscalateError> {
        Ok(HybridQuantized {
            basis: QuantizedBasis::quantize(&d.basis),
            coeffs: TernaryCoeffs::ternarize(&d.coeffs, t)?,
        })
    }

    /// Reconstructs a dequantized [`Decomposed`] for forward evaluation.
    pub fn to_decomposed(&self) -> Decomposed {
        Decomposed {
            basis: self.basis.dequantize(),
            coeffs: self.coeffs.dequantize(),
            captured_energy: 1.0,
        }
    }

    /// Relative error of the quantized reconstruction `Ce · B` against the
    /// original `K×C×R×S` weights: the bits of
    /// `original.relative_error(&self.to_decomposed().reconstruct())`
    /// without materializing either. Each kernel is rebuilt in one `R·S`
    /// scratch row by the loop of [`Matrix::matmul`](escalate_tensor::Matrix::matmul),
    /// including its skip of zero coefficients, and compared in the
    /// original's row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `original` is not `K×C×R×S`.
    pub fn reconstruction_error(&self, original: &Tensor) -> f32 {
        let [k, c, m] = self.coeffs.shape;
        let [_, r, s] = self.basis.shape;
        assert_eq!(
            original.shape(),
            &[k, c, r, s][..],
            "reconstruction_error requires the reconstruction's shape"
        );
        let rs = r * s;
        let basis = self.basis.dequantize();
        let basis = basis.as_slice();
        let mut row = vec![0.0f32; rs];
        let mut acc = RelativeError::default();
        for ki in 0..k {
            let (pos, neg) = self.coeffs.levels(ki);
            for i in ki * c..(ki + 1) * c {
                row.fill(0.0);
                for (mi, &v) in self.coeffs.ternary[i * m..(i + 1) * m].iter().enumerate() {
                    let a = level(v, pos, neg);
                    if a == 0.0 {
                        continue;
                    }
                    for (d, &b) in row.iter_mut().zip(&basis[mi * rs..(mi + 1) * rs]) {
                        *d += a * b;
                    }
                }
                for (&o, &w) in original.as_slice()[i * rs..(i + 1) * rs].iter().zip(&row) {
                    acc.push(o, w);
                }
            }
        }
        acc.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;

    fn coeffs(k: usize, c: usize, m: usize) -> Tensor {
        Tensor::from_fn(&[k, c, m], |i| {
            let v = ((i[0] * 13 + i[1] * 7 + i[2] * 3) % 17) as f32 - 8.0;
            v * 0.1
        })
    }

    #[test]
    fn linear_quant_error_shrinks_with_bits() {
        let t = coeffs(4, 6, 5);
        let mut last = f32::INFINITY;
        for bits in [2u32, 4, 6, 8, 12] {
            let (deq, _) = quantize_linear(&t, bits).unwrap();
            let err = t.relative_error(&deq);
            assert!(err <= last + 1e-6, "bits={bits}");
            last = err;
        }
        assert!(last < 1e-3);
    }

    #[test]
    fn linear_quant_rejects_bad_bits() {
        let t = coeffs(2, 2, 2);
        assert!(quantize_linear(&t, 0).is_err());
        assert!(quantize_linear(&t, 17).is_err());
    }

    #[test]
    fn grouped_quant_beats_global_on_varied_scales() {
        // Two slices with wildly different magnitudes: a global scale
        // crushes the small slice, per-slice scales do not.
        let t = Tensor::from_fn(&[2, 4, 4], |i| {
            let v = ((i[1] * 4 + i[2]) as f32 * 0.37).sin();
            if i[0] == 0 {
                v * 100.0
            } else {
                v * 0.01
            }
        });
        let (global, _) = quantize_linear(&t, 4).unwrap();
        let (grouped, _) = quantize_linear_grouped(&t, 4, 16).unwrap();
        assert!(t.relative_error(&grouped) < t.relative_error(&global));
    }

    #[test]
    fn grouped_quant_rejects_bad_groups() {
        let t = coeffs(2, 3, 2);
        assert!(quantize_linear_grouped(&t, 4, 0).is_err());
        assert!(quantize_linear_grouped(&t, 4, 5).is_err());
        assert!(quantize_linear_grouped(&t, 0, 6).is_err());
    }

    #[test]
    fn grouped_quant_error_shrinks_with_bits() {
        let t = coeffs(4, 6, 5);
        let mut last = f32::INFINITY;
        for bits in [2u32, 4, 8] {
            let (deq, _) = quantize_linear_grouped(&t, bits, 30).unwrap();
            let err = t.relative_error(&deq);
            assert!(err <= last + 1e-6, "bits={bits}");
            last = err;
        }
    }

    #[test]
    fn linear_quant_zero_tensor_is_exact() {
        let z = Tensor::zeros(&[3, 3]);
        let (deq, _) = quantize_linear(&z, 4).unwrap();
        assert_eq!(deq, z);
    }

    #[test]
    fn basis_roundtrip_is_tight() {
        let b = Tensor::from_fn(&[3, 3, 3], |i| ((i[0] + i[1] * 2 + i[2] * 4) as f32).sin());
        let q = QuantizedBasis::quantize(&b);
        assert!(
            b.relative_error(&q.dequantize()) < 0.02,
            "8-bit error too high"
        );
        assert_eq!(q.size_bits(), 27 * 8 + 32);
    }

    #[test]
    fn quotient_codebook_roundtrips() {
        for code in 0..4u8 {
            assert_eq!(encode_quotient(quotient_value(code)), code);
        }
        assert_eq!(encode_quotient(0.9), 1); // nearest to 1.0
        assert_eq!(encode_quotient(3.2), 3); // nearest to 4.0
    }

    #[test]
    fn ternarize_threshold_zero_keeps_all_nonzeros() {
        let c = coeffs(4, 3, 2);
        let t = TernaryCoeffs::ternarize(&c, 0.0).unwrap();
        let nonzeros = c.as_slice().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(t.nnz(), nonzeros);
    }

    #[test]
    fn ternarize_sparsity_monotone_in_t() {
        let c = coeffs(6, 8, 6);
        let mut last = -1.0;
        for &t in &[0.0f32, 0.1, 0.3, 0.5, 0.8] {
            let s = TernaryCoeffs::ternarize(&c, t).unwrap().sparsity();
            assert!(s >= last, "t={t}");
            last = s;
        }
    }

    #[test]
    fn ternarize_rejects_bad_threshold() {
        let c = coeffs(2, 2, 2);
        assert!(TernaryCoeffs::ternarize(&c, 1.0).is_err());
        assert!(TernaryCoeffs::ternarize(&c, -0.1).is_err());
    }

    #[test]
    fn dequantize_respects_signs_and_scales() {
        let c = coeffs(3, 4, 2);
        let t = TernaryCoeffs::ternarize(&c, 0.1).unwrap();
        let d = t.dequantize();
        let slice_len = 8;
        for (i, (&tv, &dv)) in t.ternary.iter().zip(d.as_slice()).enumerate() {
            let k = i / slice_len;
            match tv {
                1 => assert!((dv - t.w_pos[k]).abs() < 1e-6),
                -1 => assert!((dv + t.w_neg(k)).abs() < 1e-6),
                _ => assert_eq!(dv, 0.0),
            }
        }
    }

    #[test]
    fn threshold_search_hits_target() {
        // Continuous values (no ties) so the quantile is sharp.
        let c = Tensor::from_fn(&[8, 16, 6], |i| {
            ((i[0] * 769 + i[1] * 97 + i[2] * 13) as f32 * 0.7315).sin()
        });
        for target in [0.5f64, 0.8, 0.95] {
            let t = threshold_for_sparsity(&c, target);
            let got = TernaryCoeffs::ternarize(&c, t).unwrap().sparsity();
            assert!((got - target).abs() < 0.02, "target={target} got={got}");
        }
    }

    /// The full-sort form of [`threshold_for_sparsity`], kept as the oracle
    /// for the selection.
    fn threshold_by_sort(coeffs: &Tensor, target: f64) -> f32 {
        let [k, c, m]: [usize; 3] = coeffs.shape().try_into().unwrap();
        let slice_len = c * m;
        let mut ratios = Vec::new();
        for ki in 0..k {
            let slice = &coeffs.as_slice()[ki * slice_len..(ki + 1) * slice_len];
            let max = slice.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            if max == 0.0 {
                ratios.extend(std::iter::repeat_n(0.0f32, slice.len()));
            } else {
                ratios.extend(slice.iter().map(|&v| v.abs() / max));
            }
        }
        if ratios.is_empty() {
            return 0.0;
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = ratios.len();
        let idx = ((target * n as f64).ceil() as usize)
            .min(n)
            .saturating_sub(1);
        ratios[idx].clamp(0.0, 0.999)
    }

    #[test]
    fn threshold_selection_matches_the_sort_reference() {
        let smooth = Tensor::from_fn(&[8, 16, 6], |i| {
            ((i[0] * 769 + i[1] * 97 + i[2] * 13) as f32 * 0.7315).sin()
        });
        // Few distinct magnitudes: long runs of tied ratios.
        let tied = coeffs(6, 9, 5);
        // Whole output channels of zeros (ratio 0 for every element), and
        // signed zeros inside live channels.
        let zero_slices = Tensor::from_fn(&[5, 4, 3], |i| match i[0] {
            1 | 3 => 0.0,
            _ if i[2] == 1 => -0.0,
            _ => ((i[0] + 2 * i[1] + i[2]) % 4) as f32 - 1.5,
        });
        let all_zero = Tensor::zeros(&[3, 4, 2]);
        let empty = Tensor::zeros(&[0, 4, 2]);
        let targets = [0.0, 1e-9, 0.25, 0.5, 0.8, 0.95, 1.0, -0.5, 1.5, f64::NAN];
        for t in [&smooth, &tied, &zero_slices, &all_zero, &empty] {
            for target in targets {
                assert_eq!(
                    threshold_for_sparsity(t, target).to_bits(),
                    threshold_by_sort(t, target).to_bits(),
                    "shape {:?} target {target}",
                    t.shape()
                );
            }
        }
    }

    #[test]
    fn a_bracket_that_misses_the_quantile_defers_to_the_whole_key_range() {
        let c = Tensor::from_fn(&[4, 16, 6], |i| {
            ((i[0] * 769 + i[1] * 97 + i[2] * 13) as f32 * 0.7315).sin()
        });
        let values = c.as_slice();
        let maxes: Vec<f32> = values.chunks_exact(96).map(max_abs).collect();
        let n = values.len();
        for idx in [0, n / 2, n - 1] {
            let key = select_key(values, 96, &maxes, idx, 0, u32::MAX)
                .expect("the whole key range holds every ratio");
            assert_eq!(select_key(values, 96, &maxes, idx, key, key), Some(key));
            assert_eq!(select_key(values, 96, &maxes, idx, 0, key - 1), None);
            assert_eq!(select_key(values, 96, &maxes, idx, key + 1, u32::MAX), None);
        }
    }

    #[test]
    fn total_order_keys_sort_as_total_cmp() {
        let values = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            0.25,
            1.0,
            -3.5,
        ];
        for a in values {
            assert_eq!(
                from_total_order_key(total_order_key(a.to_bits())),
                a.to_bits()
            );
            for b in values {
                assert_eq!(
                    total_order_key(a.to_bits()).cmp(&total_order_key(b.to_bits())),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn dequantized_error_is_bit_identical_to_the_materialized_form() {
        for (c, t) in [
            (coeffs(4, 6, 5), 0.3f32),
            (coeffs(3, 4, 2), 0.0),
            (Tensor::zeros(&[2, 3, 4]), 0.5),
        ] {
            let q = TernaryCoeffs::ternarize(&c, t).unwrap();
            assert_eq!(
                q.dequantized_error(&c).to_bits(),
                c.relative_error(&q.dequantize()).to_bits()
            );
        }
    }

    #[test]
    fn reconstruction_error_is_bit_identical_to_the_materialized_form() {
        let w = Tensor::from_fn(&[8, 4, 3, 3], |i| {
            (((i[0] * 31 + i[1] * 17 + i[2] * 5 + i[3]) % 23) as f32 - 11.0) * 0.05
        });
        for m in [1usize, 4, 6, 9] {
            let d = decompose(&w, m).unwrap();
            // Thresholds from keep-everything to near-total pruning, so
            // rows with every coefficient skipped are covered too.
            for t in [0.0f32, 0.05, 0.5, 0.95] {
                let h = HybridQuantized::quantize(&d, t).unwrap();
                assert_eq!(
                    h.reconstruction_error(&w).to_bits(),
                    w.relative_error(&h.to_decomposed().reconstruct()).to_bits(),
                    "m={m} t={t}"
                );
            }
        }
        let zeros = Tensor::zeros(&[2, 3, 3, 3]);
        let h = HybridQuantized::quantize(&decompose(&zeros, 2).unwrap(), 0.1).unwrap();
        assert_eq!(
            h.reconstruction_error(&zeros).to_bits(),
            zeros
                .relative_error(&h.to_decomposed().reconstruct())
                .to_bits()
        );
    }

    #[test]
    fn hybrid_quantized_forward_error_is_bounded() {
        let w = Tensor::from_fn(&[8, 4, 3, 3], |i| {
            (((i[0] * 31 + i[1] * 17 + i[2] * 5 + i[3]) % 23) as f32 - 11.0) * 0.05
        });
        let d = decompose(&w, 6).unwrap();
        let h = HybridQuantized::quantize(&d, 0.05).unwrap();
        let dq = h.to_decomposed();
        // Ternarization is coarse but must stay in a sane range on
        // well-behaved weights.
        let err = d.coeffs.relative_error(&dq.coeffs);
        assert!(err < 0.9, "ternary coeff error {err} out of range");
        // The basis is 8-bit: nearly exact.
        assert!(d.basis.relative_error(&dq.basis) < 0.02);
    }

    #[test]
    fn requantize_output_per_channel_scales() {
        // Channels with very different ranges each keep 8-bit resolution.
        let ofm = Tensor::from_fn(&[2, 4, 4], |i| {
            let v = ((i[1] * 4 + i[2]) as f32 * 0.41).sin();
            if i[0] == 0 {
                v * 50.0
            } else {
                v * 0.05
            }
        });
        let (deq, scales) = requantize_output(&ofm, 8).unwrap();
        assert_eq!(scales.len(), 2);
        assert!(scales[0] > scales[1]);
        assert!(
            ofm.relative_error(&deq) < 0.01,
            "8-bit per-channel should be tight"
        );
    }

    #[test]
    fn requantize_rejects_bad_bits() {
        let ofm = Tensor::zeros(&[1, 2, 2]);
        assert!(requantize_output(&ofm, 0).is_err());
        assert!(requantize_output(&ofm, 17).is_err());
    }

    #[test]
    fn requantize_zero_channel_is_exact() {
        let ofm = Tensor::zeros(&[2, 3, 3]);
        let (deq, scales) = requantize_output(&ofm, 8).unwrap();
        assert_eq!(deq, ofm);
        assert_eq!(scales, vec![1.0, 1.0]);
    }

    #[test]
    fn slice_accessor_is_consistent() {
        let c = coeffs(3, 2, 2);
        let t = TernaryCoeffs::ternarize(&c, 0.2).unwrap();
        for k in 0..3 {
            assert_eq!(t.slice(k), &t.ternary[k * 4..(k + 1) * 4]);
        }
    }
}
