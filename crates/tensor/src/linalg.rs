//! Eigendecomposition and SVD routines used by kernel decomposition.
//!
//! Kernel decomposition (PENNI / ESCALATE §2.3) factors the reshaped weight
//! matrix `W' ∈ R^{KC×RS}` as `W' = Ce · B` with `B ∈ R^{M×RS}`. Because
//! `RS ≤ 49` for CNN kernels while `KC` can be tens of thousands, we compute
//! the factorization through the small `RS×RS` Gram matrix: its eigenvectors
//! are the right singular vectors of `W'`, which are exactly the basis
//! kernels.

use crate::{Matrix, TensorError};

/// Result of a symmetric eigendecomposition `A = V diag(λ) Vᵀ`.
///
/// Eigenvalues are sorted in descending order; `vectors` holds the
/// corresponding eigenvectors as *columns*.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub values: Vec<f32>,
    /// Matrix whose `j`-th column is the eigenvector for `values[j]`.
    pub vectors: Matrix,
}

/// Jacobi eigendecomposition of a symmetric matrix.
///
/// Uses the classic cyclic Jacobi rotation scheme, which is simple, robust,
/// and more than fast enough for the `RS×RS` (≤ 49×49) matrices that appear
/// in kernel decomposition.
///
/// # Errors
///
/// Returns [`TensorError::NoConvergence`] if the off-diagonal norm has not
/// dropped below tolerance after 100 sweeps, and
/// [`TensorError::ShapeMismatch`] if `a` is not square.
///
/// # Examples
///
/// ```
/// use escalate_tensor::{Matrix, linalg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let eig = linalg::jacobi_eigen(&a)?;
/// assert!((eig.values[0] - 3.0).abs() < 1e-5);
/// assert!((eig.values[1] - 1.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
pub fn jacobi_eigen(a: &Matrix) -> Result<SymmetricEigen, TensorError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::ShapeMismatch {
            expected: "square matrix".to_string(),
            got: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    if n == 0 {
        return Ok(SymmetricEigen {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        });
    }

    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let max_sweeps = 100;
    // f32 arithmetic: a relative tolerance near machine epsilon is the
    // tightest achievable; demanding more never converges on rank-deficient
    // Gram matrices with repeated eigenvalues.
    let tol = 1e-6_f32 * a.frobenius_norm().max(1.0);

    for sweep in 0..max_sweeps {
        let mut off = 0.0f32;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m.get(p, q).powi(2);
            }
        }
        if off.sqrt() <= tol {
            return Ok(sorted_eigen(m, v));
        }
        let _ = sweep;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                // Skip rotations that cannot change the matrix at f32
                // precision — they only churn rounding error.
                if apq.abs() <= 1e-9 * (app.abs() + aqq.abs()).max(f32::MIN_POSITIVE) {
                    m.set(p, q, 0.0);
                    m.set(q, p, 0.0);
                    continue;
                }
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply the rotation G(p, q, θ) on both sides of m, and
                // accumulate it into v.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    Err(TensorError::NoConvergence {
        routine: "jacobi_eigen",
        iterations: max_sweeps,
    })
}

fn sorted_eigen(m: Matrix, v: Matrix) -> SymmetricEigen {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        m.get(j, j)
            .partial_cmp(&m.get(i, i))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut values = Vec::with_capacity(n);
    let mut vectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        values.push(m.get(src, src));
        for r in 0..n {
            vectors.set(r, dst, v.get(r, src));
        }
    }
    SymmetricEigen { values, vectors }
}

/// Truncated SVD of `a ∈ R^{rows×cols}` computed through the `cols×cols`
/// Gram matrix, returning the factorization `a ≈ coeffs · basis` with
/// `coeffs ∈ R^{rows×m}` and `basis ∈ R^{m×cols}` (orthonormal rows).
///
/// This is exactly the factorization kernel decomposition needs: `basis`
/// rows are the top-`m` right singular vectors (the basis kernels), and
/// `coeffs = a · basisᵀ` are the projection coefficients.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `m` exceeds `a.cols()`, or the
/// underlying eigendecomposition's [`TensorError::NoConvergence`].
///
/// # Examples
///
/// ```
/// use escalate_tensor::{Matrix, linalg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A rank-1 matrix is reproduced exactly by a single component.
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
/// let f = linalg::truncated_svd(&a, 1)?;
/// let approx = f.coeffs.matmul(&f.basis);
/// assert!(approx.all_close(&a, 1e-4));
/// # Ok(())
/// # }
/// ```
pub fn truncated_svd(a: &Matrix, m: usize) -> Result<Factorization, TensorError> {
    if m > a.cols() {
        return Err(TensorError::ShapeMismatch {
            expected: format!("rank m <= {}", a.cols()),
            got: format!("m = {m}"),
        });
    }
    Ok(truncate(a, &jacobi_eigen(&a.gram())?, m))
}

/// The rank-`m` factorization of `a` from `eig`, the eigendecomposition
/// of `a.gram()`: the last step of [`truncated_svd`], for a caller that
/// already holds the eigenpairs (to pick `m` from the spectrum, say).
///
/// # Panics
///
/// Panics if `m` exceeds `a.cols()` or `eig` is not `a.cols()`-square.
pub fn truncate(a: &Matrix, eig: &SymmetricEigen, m: usize) -> Factorization {
    let n = a.cols();
    assert!(
        m <= n && eig.values.len() == n,
        "rank {m} truncation of a {n}-column eigendecomposition"
    );
    // basis: top-m eigenvectors of the Gram matrix as rows (right singular
    // vectors of `a`).
    let mut basis = Matrix::zeros(m, n);
    for comp in 0..m {
        for c in 0..n {
            basis.set(comp, c, eig.vectors.get(c, comp));
        }
    }
    // coeffs = a · basisᵀ (orthonormality of basis rows makes this the
    // least-squares optimal projection).
    let coeffs = a.matmul(&basis.transpose());
    let energy: f32 = eig.values.iter().map(|&l| l.max(0.0)).sum();
    let captured: f32 = eig.values.iter().take(m).map(|&l| l.max(0.0)).sum();
    Factorization {
        coeffs,
        basis,
        captured_energy: if energy > 0.0 {
            (captured / energy).clamp(0.0, 1.0)
        } else {
            1.0
        },
    }
}

/// A rank-`m` factorization `a ≈ coeffs · basis` produced by
/// [`truncated_svd`].
#[derive(Debug, Clone)]
pub struct Factorization {
    /// Projection coefficients, `rows×m`.
    pub coeffs: Matrix,
    /// Orthonormal basis rows, `m×cols`.
    pub basis: Matrix,
    /// Fraction of squared Frobenius norm captured by the kept components
    /// (in `[0, 1]`).
    pub captured_energy: f32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(f: &Factorization) -> Matrix {
        f.coeffs.matmul(&f.basis)
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 5.0]]);
        let e = jacobi_eigen(&a).unwrap();
        assert!((e.values[0] - 5.0).abs() < 1e-5);
        assert!((e.values[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let e = jacobi_eigen(&a).unwrap();
        // A = V diag(λ) Vᵀ
        let n = 3;
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam.set(i, i, e.values[i]);
        }
        let recon = e.vectors.matmul(&lam).matmul(&e.vectors.transpose());
        assert!(recon.all_close(&a, 1e-4));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 2.0]]);
        let e = jacobi_eigen(&a).unwrap();
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!(vtv.all_close(&Matrix::identity(3), 1e-4));
    }

    #[test]
    fn eigen_rejects_non_square() {
        assert!(matches!(
            jacobi_eigen(&Matrix::zeros(2, 3)),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn full_rank_svd_is_exact() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[0.0, 1.0, -1.0],
            &[2.0, 0.5, 0.1],
            &[4.0, 4.0, 4.0],
        ]);
        let f = truncated_svd(&a, 3).unwrap();
        assert!(reconstruct(&f).all_close(&a, 1e-3));
        assert!((f.captured_energy - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rank_one_matrix_needs_one_component() {
        let u = [1.0f32, -2.0, 0.5, 3.0];
        let v = [2.0f32, 1.0, -1.0];
        let a = Matrix::from_vec(
            4,
            3,
            u.iter()
                .flat_map(|&x| v.iter().map(move |&y| x * y))
                .collect(),
        );
        let f = truncated_svd(&a, 1).unwrap();
        assert!(reconstruct(&f).all_close(&a, 1e-4));
    }

    #[test]
    fn truncation_error_decreases_with_rank() {
        // Deterministic non-degenerate matrix.
        let a = Matrix::from_vec(
            8,
            4,
            (0..32)
                .map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.3 + (i as f32 * 0.01))
                .collect(),
        );
        let mut last = f32::INFINITY;
        for m in 1..=4 {
            let f = truncated_svd(&a, m).unwrap();
            let mut err = 0.0f32;
            let r = reconstruct(&f);
            for (x, y) in a.as_slice().iter().zip(r.as_slice()) {
                err += (x - y) * (x - y);
            }
            assert!(err <= last + 1e-4, "error should not grow with rank");
            last = err;
        }
        assert!(last < 1e-4, "full rank should be near-exact");
    }

    #[test]
    fn svd_rejects_oversized_rank() {
        let a = Matrix::zeros(4, 3);
        assert!(matches!(
            truncated_svd(&a, 4),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    /// The Gram and product loops before they went branch-free, with
    /// their zero skip and ragged inner loop, kept as the oracle.
    mod old {
        use crate::Matrix;

        #[allow(clippy::needless_range_loop)]
        pub fn gram(a: &Matrix) -> Matrix {
            let n = a.cols();
            let mut out = Matrix::zeros(n, n);
            for row in 0..a.rows() {
                let r = a.row(row);
                for i in 0..n {
                    let ri = r[i];
                    if ri == 0.0 {
                        continue;
                    }
                    for j in i..n {
                        out.set(i, j, out.get(i, j) + ri * r[j]);
                    }
                }
            }
            for i in 0..n {
                for j in 0..i {
                    out.set(i, j, out.get(j, i));
                }
            }
            out
        }

        #[allow(clippy::needless_range_loop)]
        pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for k in 0..a.cols() {
                    let x = a.get(i, k);
                    if x == 0.0 {
                        continue;
                    }
                    for j in 0..b.cols() {
                        out.set(i, j, out.get(i, j) + x * b.get(k, j));
                    }
                }
            }
            out
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// An entry that is `+0`, `-0` or a value of either sign over six
    /// decades.
    fn entry((kind, v): (u8, i32)) -> f32 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            _ => v as f32 * [1e-3, 1e-1, 1e1][usize::from(kind % 3)],
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn gram_and_matmul_match_the_zero_skipping_loops(
            width in 0usize..6,
            rows in 0usize..24,
            m_pick in 0usize..49,
            zero_rows in proptest::arbitrary::any::<u32>(),
            a in proptest::collection::vec((0u8..6, -1000i32..1000), 24 * 49),
            v in proptest::collection::vec((0u8..6, -1000i32..1000), 49 * 49),
        ) {
            // The Gram's fixed-width copies (1, 9, 16, 49) and two widths
            // that take its runtime-width loop.
            let n = [1, 4, 9, 16, 25, 49][width];
            let m = 1 + m_pick % n;
            let mut a: Vec<f32> = a.into_iter().take(rows * n).map(entry).collect();
            // Whole rows of +0 or -0, which the old loops skipped.
            for (r, row) in a.chunks_exact_mut(n).enumerate() {
                if zero_rows >> (r % 32) & 1 == 1 {
                    row.fill(if r % 2 == 0 { 0.0 } else { -0.0 });
                }
            }
            let a = Matrix::from_vec(rows, n, a);
            // An `n×m` right factor, the shape of the projection `a · basisᵀ`.
            let b = Matrix::from_vec(n, m, v.into_iter().take(n * m).map(entry).collect());
            proptest::prop_assert_eq!(bits(&a.gram()), bits(&old::gram(&a)));
            proptest::prop_assert_eq!(bits(&a.matmul(&b)), bits(&old::matmul(&a, &b)));
        }
    }

    #[test]
    fn basis_rows_are_orthonormal() {
        let a = Matrix::from_vec(6, 4, (0..24).map(|i| (i as f32 * 0.7).sin()).collect());
        let f = truncated_svd(&a, 3).unwrap();
        let bbt = f.basis.matmul(&f.basis.transpose());
        assert!(bbt.all_close(&Matrix::identity(3), 1e-4));
    }
}
