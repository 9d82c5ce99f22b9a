//! Property-based tests for the tensor/linear-algebra substrate.

use escalate_tensor::{conv, linalg, Matrix, Tensor};
use proptest::prelude::*;

fn small_tensor(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    prop::collection::vec(-8i32..8, len).prop_map(move |v| {
        Tensor::from_vec(&shape, v.into_iter().map(|x| x as f32 * 0.25).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Convolution is linear: conv(a + b) = conv(a) + conv(b).
    #[test]
    fn conv_is_linear(
        a in small_tensor(vec![3, 6, 6]),
        b in small_tensor(vec![3, 6, 6]),
        w in small_tensor(vec![4, 3, 3, 3]),
        stride in 1usize..3,
    ) {
        let lhs = conv::conv2d(&a.add(&b), &w, stride, 1);
        let rhs = conv::conv2d(&a, &w, stride, 1).add(&conv::conv2d(&b, &w, stride, 1));
        prop_assert!(lhs.all_close(&rhs, 1e-3));
    }

    /// Matrix multiplication distributes over the Gram identity:
    /// gram(A) = Aᵀ·A for any A.
    #[test]
    fn gram_matches_transpose_product(
        data in prop::collection::vec(-8i32..8, 24),
    ) {
        let a = Matrix::from_vec(6, 4, data.into_iter().map(|x| x as f32 * 0.3).collect());
        let g = a.gram();
        let tt = a.transpose().matmul(&a);
        prop_assert!(g.all_close(&tt, 1e-4));
    }

    /// SVD truncation error is non-increasing in rank and the top-rank
    /// basis is orthonormal.
    #[test]
    fn svd_error_monotone_in_rank(
        data in prop::collection::vec(-8i32..8, 48),
    ) {
        let a = Matrix::from_vec(12, 4, data.into_iter().map(|x| x as f32 * 0.3).collect());
        let mut last = f32::INFINITY;
        for m in 1..=4usize {
            let f = linalg::truncated_svd(&a, m).expect("svd converges");
            let recon = f.coeffs.matmul(&f.basis);
            let mut err = 0.0f32;
            for (x, y) in a.as_slice().iter().zip(recon.as_slice()) {
                err += (x - y) * (x - y);
            }
            prop_assert!(err <= last + 1e-3, "m={m}: {err} > {last}");
            last = err;
            let bbt = f.basis.matmul(&f.basis.transpose());
            prop_assert!(bbt.all_close(&Matrix::identity(m), 1e-3));
        }
        prop_assert!(last < 1e-2, "full rank must reconstruct");
    }

    /// Eigenvalues of a Gram matrix are non-negative and sum to its trace.
    #[test]
    fn gram_eigenvalues_are_nonnegative(
        data in prop::collection::vec(-8i32..8, 30),
    ) {
        let a = Matrix::from_vec(6, 5, data.into_iter().map(|x| x as f32 * 0.3).collect());
        let g = a.gram();
        let eig = linalg::jacobi_eigen(&g).expect("eigen converges");
        let trace: f32 = (0..5).map(|i| g.get(i, i)).sum();
        let sum: f32 = eig.values.iter().sum();
        prop_assert!((trace - sum).abs() <= 1e-3 * trace.abs().max(1.0));
        for &l in &eig.values {
            prop_assert!(l > -1e-3 * trace.abs().max(1.0), "negative eigenvalue {l}");
        }
    }

    /// Tensor reshape/map/axpy algebra holds.
    #[test]
    fn tensor_axpy_matches_scale_add(
        a in small_tensor(vec![4, 4]),
        b in small_tensor(vec![4, 4]),
        alpha in -4i32..4,
    ) {
        let alpha = alpha as f32 * 0.5;
        let mut lhs = a.clone();
        lhs.axpy(alpha, &b);
        let rhs = a.add(&b.scale(alpha));
        prop_assert!(lhs.all_close(&rhs, 1e-4));
    }
}
