//! Decomposition of depthwise-separable convolutions (paper §3.3, Eq. (5)).
//!
//! A DSC block is a depthwise convolution `W_DW ∈ R^{C×RS}` followed by a
//! pointwise convolution `W_PW ∈ R^{K×C}`. ESCALATE decomposes the
//! depthwise kernels as `W_DW = Ce' · B` and folds the pointwise weights
//! into the coefficients with a Hadamard product:
//! `Ce(k, c, m) = W_PW(k, c) · Ce'(c, m)`. The result has exactly the same
//! `(basis, coeffs)` form as a decomposed regular convolution, so the same
//! Basis-First hardware executes both.

use crate::decompose::{decompose_depthwise, Decomposed};
use crate::error::EscalateError;
use escalate_tensor::{conv, Matrix, Tensor};

/// Decomposes a DSC block into the unified `(basis, coeffs)` form.
///
/// `dw_weights` is `C×R×S`, `pw_weights` is `K×C`; the returned
/// coefficients are `K×C×M`.
///
/// # Errors
///
/// Returns [`EscalateError::InvalidBasisCount`] for a bad `m` and
/// propagates SVD failures.
///
/// # Panics
///
/// Panics if the channel counts of the two weight sets disagree.
///
/// # Examples
///
/// ```
/// use escalate_core::dsc::decompose_dsc;
/// use escalate_tensor::{Matrix, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dw = Tensor::from_fn(&[4, 3, 3], |i| (i[0] + i[1] * i[2]) as f32);
/// let pw = Matrix::from_vec(8, 4, (0..32).map(|v| v as f32 * 0.1).collect());
/// let d = decompose_dsc(&dw, &pw, 4)?;
/// assert_eq!(d.coeffs.shape(), &[8, 4, 4]);
/// # Ok(())
/// # }
/// ```
pub fn decompose_dsc(
    dw_weights: &Tensor,
    pw_weights: &Matrix,
    m: usize,
) -> Result<Decomposed, EscalateError> {
    let [c, _r, _s]: [usize; 3] = dw_weights
        .shape()
        .try_into()
        .expect("dw weights must be C*R*S");
    assert_eq!(
        pw_weights.cols(),
        c,
        "pointwise weights must have C columns"
    );
    let (ce_prime, basis) = decompose_depthwise(dw_weights, m)?;
    Ok(Decomposed {
        basis,
        coeffs: fold_pointwise(pw_weights, &ce_prime),
        captured_energy: 1.0,
    })
}

/// Eq. (5): `Ce(k, c, m) = W_PW(k, c) · Ce'(c, m)`, built row by row from
/// the pointwise rows and the `C×M` depthwise coefficients.
fn fold_pointwise(pw_weights: &Matrix, ce_prime: &Matrix) -> Tensor {
    let (k, c, m) = (pw_weights.rows(), ce_prime.rows(), ce_prime.cols());
    let mut data = Vec::with_capacity(k * c * m);
    for ki in 0..k {
        for (ci, &w) in pw_weights.row(ki).iter().enumerate() {
            data.extend(ce_prime.row(ci).iter().map(|&e| w * e));
        }
    }
    Tensor::from_vec(&[k, c, m], data)
}

/// Reference DSC forward pass: depthwise convolution followed by pointwise.
///
/// `input` is `C×X×Y`; the result is `K×X'×Y'`.
pub fn dsc_forward(
    input: &Tensor,
    dw_weights: &Tensor,
    pw_weights: &Matrix,
    stride: usize,
    pad: usize,
) -> Tensor {
    let dw_out = conv::depthwise_conv2d(input, dw_weights, stride, pad);
    conv::pointwise_conv2d(&dw_out, pw_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorg::forward_eq3;

    fn setup(c: usize, k: usize) -> (Tensor, Matrix, Tensor) {
        let dw = Tensor::from_fn(&[c, 3, 3], |i| {
            (((i[0] * 29 + i[1] * 5 + i[2] * 3) % 11) as f32 - 5.0) * 0.15
        });
        let pw = Matrix::from_vec(
            k,
            c,
            (0..k * c)
                .map(|i| (((i * 17) % 13) as f32 - 6.0) * 0.1)
                .collect(),
        );
        let input = Tensor::from_fn(&[c, 6, 6], |i| {
            (((i[0] * 7 + i[1] * 3 + i[2]) % 9) as f32 - 4.0) * 0.2
        });
        (dw, pw, input)
    }

    #[test]
    fn full_rank_dsc_decomposition_matches_reference() {
        let (dw, pw, input) = setup(5, 7);
        let d = decompose_dsc(&dw, &pw, 9).unwrap();
        let reference = dsc_forward(&input, &dw, &pw, 1, 1);
        let (ours, _) = forward_eq3(&d, &input, 1, 1);
        assert!(
            reference.all_close(&ours, 1e-3),
            "rel err {}",
            reference.relative_error(&ours)
        );
    }

    #[test]
    fn dsc_equivalence_holds_with_stride() {
        let (dw, pw, input) = setup(4, 6);
        let d = decompose_dsc(&dw, &pw, 9).unwrap();
        let reference = dsc_forward(&input, &dw, &pw, 2, 1);
        let (ours, _) = forward_eq3(&d, &input, 2, 1);
        assert!(reference.all_close(&ours, 1e-3));
    }

    #[test]
    fn truncated_dsc_error_decreases_with_m() {
        let (dw, pw, input) = setup(6, 4);
        let reference = dsc_forward(&input, &dw, &pw, 1, 1);
        let mut last = f32::INFINITY;
        for m in [1usize, 3, 6, 9] {
            let d = decompose_dsc(&dw, &pw, m).unwrap();
            let (ours, _) = forward_eq3(&d, &input, 1, 1);
            let err = reference.relative_error(&ours);
            assert!(err <= last + 1e-4, "m={m}: {err} > {last}");
            last = err;
        }
        assert!(last < 1e-3, "full-rank should be exact, got {last}");
    }

    #[test]
    fn coefficient_fold_matches_manual_product() {
        let (dw, pw, _) = setup(3, 4);
        let (ce_prime, _) = decompose_depthwise(&dw, 4).unwrap();
        let d = decompose_dsc(&dw, &pw, 4).unwrap();
        for k in 0..4 {
            for c in 0..3 {
                for m in 0..4 {
                    let expect = pw.get(k, c) * ce_prime.get(c, m);
                    assert!((d.coeff(k, c, m) - expect).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn slice_fold_is_bit_identical_to_the_per_element_fold() {
        for (c, k, m) in [(3, 4, 4), (6, 5, 9), (1, 7, 1), (8, 1, 3)] {
            let (dw, pw, _) = setup(c, k);
            let (ce_prime, _) = decompose_depthwise(&dw, m).unwrap();
            let mut reference = Tensor::zeros(&[k, c, m]);
            for ki in 0..k {
                for ci in 0..c {
                    let w = pw.get(ki, ci);
                    for mi in 0..m {
                        reference.set(&[ki, ci, mi], w * ce_prime.get(ci, mi));
                    }
                }
            }
            let folded = fold_pointwise(&pw, &ce_prime);
            assert_eq!(folded.shape(), reference.shape());
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&folded), bits(&reference), "c={c} k={k} m={m}");
            let d = decompose_dsc(&dw, &pw, m).unwrap();
            assert_eq!(bits(&d.coeffs), bits(&reference));
        }
    }

    #[test]
    fn invalid_m_is_rejected() {
        let (dw, pw, _) = setup(3, 4);
        assert!(decompose_dsc(&dw, &pw, 0).is_err());
        assert!(decompose_dsc(&dw, &pw, 10).is_err());
    }
}
