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
use escalate_tensor::{RelativeError, Tensor};

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
pub fn quotient_value(code: u8) -> f32 {
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
            let max = slice.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let thr = t * max;
            let mut pos_sum = 0.0f32;
            let mut pos_n = 0usize;
            let mut neg_sum = 0.0f32;
            let mut neg_n = 0usize;
            for (i, &v) in slice.iter().enumerate() {
                if v > thr {
                    ternary[ki * slice_len + i] = 1;
                    pos_sum += v;
                    pos_n += 1;
                } else if v < -thr {
                    ternary[ki * slice_len + i] = -1;
                    neg_sum += -v;
                    neg_n += 1;
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
        let [k, c, m] = self.shape;
        let mut groups = 0;
        for g in 0..k * c {
            if self.ternary[g * m..(g + 1) * m].iter().any(|&v| v != 0) {
                groups += 1;
            }
        }
        groups
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
        let mut acc = RelativeError::default();
        for (&r, q) in reference.as_slice().iter().zip(self.dequantized_values()) {
            acc.push(r, q);
        }
        acc.value()
    }
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
/// `|c| / max|slice|` — computed exactly in one pass plus a linear-time
/// selection. The ratios are never negative (no `-0.0` either), so
/// [`f32::total_cmp`] orders them as `<` does and the selected order
/// statistic is the one a full sort would put at that index. A ratio is
/// NaN only when the slice holds non-finite values; `total_cmp` ranks it
/// above every number.
pub fn threshold_for_sparsity(coeffs: &Tensor, target: f64) -> f32 {
    let shape: [usize; 3] = coeffs.shape().try_into().expect("coeffs must be K*C*M");
    let [k, c, m] = shape;
    let slice_len = c * m;
    let mut ratios = Vec::with_capacity(coeffs.len());
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
    let n = ratios.len();
    let idx = ((target * n as f64).ceil() as usize)
        .min(n)
        .saturating_sub(1);
    let (_, &mut t, _) = ratios.select_nth_unstable_by(idx, f32::total_cmp);
    t.clamp(0.0, 0.999)
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
