//! Kernel-level decomposition `W = Ce · B` (paper §2.3).
//!
//! The 4-D weight tensor `K×C×R×S` is reshaped to `KC×RS` and factored by
//! a truncated SVD into `M` basis kernels shared by the whole layer and a
//! `K×C×M` coefficient tensor. Because the basis rows are orthonormal, the
//! coefficients are simply the projections of each kernel onto the basis —
//! the least-squares optimal approximation at rank `M`.

use crate::error::EscalateError;
use escalate_tensor::{linalg, Matrix, Tensor};

/// A kernel-decomposed convolutional layer: `M` shared basis kernels plus
/// per-(output, input)-channel combination coefficients.
///
/// # Examples
///
/// ```
/// use escalate_core::decompose;
/// use escalate_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Tensor::from_fn(&[4, 3, 3, 3], |i| (i[0] + i[1] + i[2] * i[3]) as f32);
/// let d = decompose(&w, 2)?;
/// assert_eq!(d.basis.shape(), &[2, 3, 3]);
/// assert_eq!(d.coeffs.shape(), &[4, 3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Decomposed {
    /// Basis kernels, `M×R×S`, with orthonormal flattened rows.
    pub basis: Tensor,
    /// Combination coefficients, `K×C×M`.
    pub coeffs: Tensor,
    /// Fraction of the weights' squared Frobenius norm captured by the
    /// `M` kept components, in `[0, 1]`.
    pub captured_energy: f32,
}

impl Decomposed {
    /// Number of basis kernels `M`.
    pub fn m(&self) -> usize {
        self.basis.shape()[0]
    }

    /// Number of output channels `K`.
    pub fn k(&self) -> usize {
        self.coeffs.shape()[0]
    }

    /// Number of input channels `C`.
    pub fn c(&self) -> usize {
        self.coeffs.shape()[1]
    }

    /// Kernel rows `R`.
    pub fn r(&self) -> usize {
        self.basis.shape()[1]
    }

    /// Kernel columns `S`.
    pub fn s(&self) -> usize {
        self.basis.shape()[2]
    }

    /// Reconstructs the approximated 4-D weight tensor `K×C×R×S`.
    pub fn reconstruct(&self) -> Tensor {
        let (k, c, m) = (self.k(), self.c(), self.m());
        let rs = self.r() * self.s();
        let coeffs = Matrix::from_vec(k * c, m, self.coeffs.as_slice().to_vec());
        let basis = Matrix::from_vec(m, rs, self.basis.as_slice().to_vec());
        let w = coeffs.matmul(&basis);
        Tensor::from_vec(&[k, c, self.r(), self.s()], w.into_vec())
    }

    /// The `m`-th basis kernel as an `R×S` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `m >= self.m()`.
    pub fn basis_kernel(&self, m: usize) -> Tensor {
        assert!(m < self.m(), "basis index out of range");
        let rs = self.r() * self.s();
        let data = self.basis.as_slice()[m * rs..(m + 1) * rs].to_vec();
        Tensor::from_vec(&[self.r(), self.s()], data)
    }

    /// The coefficient for output channel `k`, input channel `c`, basis `m`.
    pub fn coeff(&self, k: usize, c: usize, m: usize) -> f32 {
        self.coeffs.get(&[k, c, m])
    }
}

/// Decomposes a `K×C×R×S` weight tensor into `m` basis kernels.
///
/// # Errors
///
/// Returns [`EscalateError::InvalidBasisCount`] when `m` is zero or exceeds
/// the kernel area `R*S`, and propagates numerical failures from the SVD.
///
/// # Panics
///
/// Panics if `weights` is not rank-4.
pub fn decompose(weights: &Tensor, m: usize) -> Result<Decomposed, EscalateError> {
    let [k, c, r, s]: [usize; 4] = weights.shape().try_into().expect("weights must be K*C*R*S");
    let rs = r * s;
    if m == 0 || m > rs {
        return Err(EscalateError::InvalidBasisCount { m, rs });
    }
    let reshaped = Matrix::from_vec(k * c, rs, weights.as_slice().to_vec());
    Ok(decomposed(
        linalg::truncated_svd(&reshaped, m)?,
        [k, c, r, s],
    ))
}

/// The factorization of a `K×C×R×S` tensor's `KC×RS` reshape as a
/// [`Decomposed`], its buffers moved, not copied.
fn decomposed(f: linalg::Factorization, [k, c, r, s]: [usize; 4]) -> Decomposed {
    let m = f.basis.rows();
    Decomposed {
        basis: Tensor::from_vec(&[m, r, s], f.basis.into_vec()),
        coeffs: Tensor::from_vec(&[k, c, m], f.coeffs.into_vec()),
        captured_energy: f.captured_energy,
    }
}

/// Decomposes a weight tensor with the smallest basis count whose kept
/// components capture at least `energy_threshold` of the squared
/// Frobenius norm (PENNI's adaptive rank selection; the paper fixes
/// `M = 6` for the hardware, and §6.1 discusses the trade-off this
/// function navigates automatically).
///
/// # Errors
///
/// Propagates numerical failures; the threshold is clamped to `[0, 1]`.
///
/// # Examples
///
/// ```
/// use escalate_core::decompose::decompose_adaptive;
/// use escalate_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Rank-1 kernels: a 99% threshold needs only one basis kernel.
/// let w = Tensor::from_fn(&[4, 3, 3, 3], |i| ((i[0] * 3 + i[1]) as f32) * ((i[2] * 3 + i[3]) as f32));
/// let d = decompose_adaptive(&w, 0.99)?;
/// assert_eq!(d.m(), 1);
/// # Ok(())
/// # }
/// ```
pub fn decompose_adaptive(
    weights: &Tensor,
    energy_threshold: f32,
) -> Result<Decomposed, EscalateError> {
    let [k, c, r, s]: [usize; 4] = weights.shape().try_into().expect("weights must be K*C*R*S");
    let rs = r * s;
    let threshold = energy_threshold.clamp(0.0, 1.0);
    let reshaped = Matrix::from_vec(k * c, rs, weights.as_slice().to_vec());
    // One eigendecomposition picks the rank and is then truncated to it.
    let eig = linalg::jacobi_eigen(&reshaped.gram())?;
    let total: f32 = eig.values.iter().map(|&l| l.max(0.0)).sum();
    let mut captured = 0.0f32;
    let mut m = rs;
    for (i, &l) in eig.values.iter().enumerate() {
        captured += l.max(0.0);
        if total == 0.0 || captured >= threshold * total {
            m = i + 1;
            break;
        }
    }
    if m == 0 {
        return Err(EscalateError::InvalidBasisCount { m, rs });
    }
    Ok(decomposed(
        linalg::truncate(&reshaped, &eig, m),
        [k, c, r, s],
    ))
}

/// Decomposes a depthwise weight tensor `C×R×S` (per-channel kernels) into
/// `m` basis kernels shared across channels, returning coefficients
/// `C×M`. Used by the DSC path (Eq. (5)).
///
/// # Errors
///
/// Same as [`decompose()`].
///
/// # Panics
///
/// Panics if `weights` is not rank-3.
pub fn decompose_depthwise(weights: &Tensor, m: usize) -> Result<(Matrix, Tensor), EscalateError> {
    let [c, r, s]: [usize; 3] = weights.shape().try_into().expect("weights must be C*R*S");
    let rs = r * s;
    if m == 0 || m > rs {
        return Err(EscalateError::InvalidBasisCount { m, rs });
    }
    let reshaped = Matrix::from_vec(c, rs, weights.as_slice().to_vec());
    let f = linalg::truncated_svd(&reshaped, m)?;
    Ok((f.coeffs, Tensor::from_vec(&[m, r, s], f.basis.into_vec())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_weights(k: usize, c: usize, rank: usize) -> Tensor {
        // Build exactly-rank-`rank` kernels deterministically.
        let rs = 9;
        let latent: Vec<Vec<f32>> = (0..rank)
            .map(|l| {
                (0..rs)
                    .map(|i| ((l * 13 + i * 7) % 11) as f32 - 5.0)
                    .collect()
            })
            .collect();
        let mut data = Vec::new();
        for kc in 0..k * c {
            let mut kern = vec![0.0f32; rs];
            for (l, lat) in latent.iter().enumerate() {
                let coef = ((kc * (l + 3)) % 7) as f32 - 3.0;
                for (kv, &lv) in kern.iter_mut().zip(lat) {
                    *kv += coef * lv;
                }
            }
            data.extend_from_slice(&kern);
        }
        Tensor::from_vec(&[k, c, 3, 3], data)
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let w = Tensor::from_fn(&[3, 2, 2, 2], |i| {
            ((i[0] * 8 + i[1] * 4 + i[2] * 2 + i[3]) as f32).sin()
        });
        let d = decompose(&w, 4).unwrap();
        assert!(d.reconstruct().all_close(&w, 1e-3));
        assert!(d.captured_energy > 0.9999);
    }

    #[test]
    fn low_rank_weights_compress_exactly() {
        let w = low_rank_weights(8, 4, 3);
        let d = decompose(&w, 3).unwrap();
        assert!(w.relative_error(&d.reconstruct()) < 1e-3);
    }

    #[test]
    fn truncation_is_monotone() {
        let w = low_rank_weights(8, 4, 6);
        let mut last = f32::INFINITY;
        for m in 1..=6 {
            let d = decompose(&w, m).unwrap();
            let err = w.relative_error(&d.reconstruct());
            assert!(err <= last + 1e-5, "m={m}: {err} > {last}");
            last = err;
        }
    }

    #[test]
    fn invalid_basis_counts_error() {
        let w = Tensor::zeros(&[2, 2, 3, 3]);
        assert!(matches!(
            decompose(&w, 0),
            Err(EscalateError::InvalidBasisCount { .. })
        ));
        assert!(matches!(
            decompose(&w, 10),
            Err(EscalateError::InvalidBasisCount { .. })
        ));
    }

    #[test]
    fn accessors_report_shapes() {
        let w = low_rank_weights(5, 3, 2);
        let d = decompose(&w, 2).unwrap();
        assert_eq!((d.k(), d.c(), d.m(), d.r(), d.s()), (5, 3, 2, 3, 3));
        assert_eq!(d.basis_kernel(1).shape(), &[3, 3]);
    }

    #[test]
    fn coeff_indexing_matches_reconstruction() {
        let w = low_rank_weights(4, 2, 2);
        let d = decompose(&w, 2).unwrap();
        // Manually reconstruct one kernel from coefficients.
        let (k, c) = (1usize, 1usize);
        let mut manual = Tensor::zeros(&[3, 3]);
        for m in 0..2 {
            manual.axpy(d.coeff(k, c, m), &d.basis_kernel(m));
        }
        let full = d.reconstruct();
        for r in 0..3 {
            for s in 0..3 {
                assert!((manual.get(&[r, s]) - full.get(&[k, c, r, s])).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn adaptive_rank_tracks_true_rank() {
        for rank in [1usize, 3, 5] {
            let w = low_rank_weights(8, 4, rank);
            let d = decompose_adaptive(&w, 0.999).unwrap();
            assert_eq!(d.m(), rank, "true rank {rank}");
            assert!(w.relative_error(&d.reconstruct()) < 0.05);
        }
    }

    #[test]
    fn adaptive_equals_fixed_rank_at_the_rank_it_picks() {
        // The adaptive path truncates the eigenpairs it picked `m` from;
        // a fixed-rank decomposition at that `m` recomputes them. Both
        // must give the same bits.
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (w, t) in [
            (low_rank_weights(8, 4, 6), 0.9),
            (low_rank_weights(8, 4, 6), 0.999),
            (low_rank_weights(5, 3, 2), 0.5),
            (
                Tensor::from_fn(&[6, 5, 3, 3], |i| {
                    ((i[0] * 45 + i[1] * 9 + i[2] * 3 + i[3]) as f32 * 0.37).sin()
                }),
                0.95,
            ),
        ] {
            let a = decompose_adaptive(&w, t).unwrap();
            let d = decompose(&w, a.m()).unwrap();
            assert_eq!(bits(&a.basis), bits(&d.basis), "basis at m = {}", a.m());
            assert_eq!(bits(&a.coeffs), bits(&d.coeffs), "coeffs at m = {}", a.m());
            assert_eq!(a.captured_energy.to_bits(), d.captured_energy.to_bits());
        }
    }

    #[test]
    fn adaptive_threshold_trades_rank_for_error() {
        let w = low_rank_weights(8, 4, 6);
        let tight = decompose_adaptive(&w, 0.999).unwrap();
        let loose = decompose_adaptive(&w, 0.6).unwrap();
        assert!(loose.m() <= tight.m());
        assert!(
            w.relative_error(&loose.reconstruct()) >= w.relative_error(&tight.reconstruct()) - 1e-5
        );
    }

    #[test]
    fn adaptive_handles_zero_weights() {
        let w = Tensor::zeros(&[2, 2, 3, 3]);
        let d = decompose_adaptive(&w, 0.9).unwrap();
        assert_eq!(d.m(), 1);
        assert!(d.reconstruct().all_close(&w, 1e-6));
    }

    #[test]
    fn depthwise_decomposition_reconstructs() {
        let w = Tensor::from_fn(&[6, 3, 3], |i| {
            ((i[0] + 2 * i[1] + 3 * i[2]) % 5) as f32 - 2.0
        });
        let (coeffs, basis) = decompose_depthwise(&w, 9).unwrap();
        let b = Matrix::from_vec(9, 9, basis.as_slice().to_vec());
        let recon = coeffs.matmul(&b);
        let orig = Matrix::from_vec(6, 9, w.as_slice().to_vec());
        assert!(recon.all_close(&orig, 1e-3));
    }
}
