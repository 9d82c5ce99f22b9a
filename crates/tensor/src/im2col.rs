//! im2col lowering and GEMM-based convolution.
//!
//! Convolution lowered to a matrix product is both a faster validation
//! path for the larger test workloads and the reference formulation for
//! the reshaped weight matrix `W' ∈ R^{K×CRS}` that kernel decomposition
//! factors. `im2col` unrolls each output position's receptive field into
//! a column; `conv2d_gemm` multiplies the reshaped weights against it.

use crate::conv::conv_out_size;
use crate::{Matrix, Tensor};

/// Unrolls a `C×X×Y` input into the im2col matrix of shape
/// `(C·R·S) × (X'·Y')`: column `j` holds the receptive field of output
/// position `j` in `(c, r, s)` row-major order, with zero padding.
///
/// # Panics
///
/// Panics if `input` is not rank-3 or `stride` is zero.
pub fn im2col(input: &Tensor, r: usize, s: usize, stride: usize, pad: usize) -> Matrix {
    let [c, x, y]: [usize; 3] = input.shape().try_into().expect("input must be C*X*Y");
    assert!(stride > 0, "stride must be positive");
    let ox = conv_out_size(x, r, stride, pad);
    let oy = conv_out_size(y, s, stride, pad);
    let rows = c * r * s;
    let cols = ox * oy;
    let mut m = Matrix::zeros(rows, cols);
    let data = input.as_slice();
    for ci in 0..c {
        for ri in 0..r {
            for si in 0..s {
                let row = (ci * r + ri) * s + si;
                let dst = m.row_mut(row);
                for oxi in 0..ox {
                    let ix = (oxi * stride + ri) as isize - pad as isize;
                    if ix < 0 || ix as usize >= x {
                        continue;
                    }
                    for oyi in 0..oy {
                        let iy = (oyi * stride + si) as isize - pad as isize;
                        if iy < 0 || iy as usize >= y {
                            continue;
                        }
                        dst[oxi * oy + oyi] = data[(ci * x + ix as usize) * y + iy as usize];
                    }
                }
            }
        }
    }
    m
}

/// Convolution as a matrix product: reshapes `weight` (`K×C×R×S`) to
/// `K × (C·R·S)` and multiplies the im2col matrix, producing `K×X'×Y'`.
///
/// # Panics
///
/// Panics on rank or channel mismatches (see [`im2col`]).
pub fn conv2d_gemm(input: &Tensor, weight: &Tensor, stride: usize, pad: usize) -> Tensor {
    let [k, c, r, s]: [usize; 4] = weight.shape().try_into().expect("weight must be K*C*R*S");
    let [ic, x, y]: [usize; 3] = input.shape().try_into().expect("input must be C*X*Y");
    assert_eq!(c, ic, "channel mismatch");
    let cols = im2col(input, r, s, stride, pad);
    let w = Matrix::from_vec(k, c * r * s, weight.as_slice().to_vec());
    let out = w.matmul(&cols);
    let ox = conv_out_size(x, r, stride, pad);
    let oy = conv_out_size(y, s, stride, pad);
    Tensor::from_vec(&[k, ox, oy], out.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d;

    fn input(c: usize, x: usize) -> Tensor {
        Tensor::from_fn(&[c, x, x], |i| {
            (((i[0] * 31 + i[1] * 7 + i[2] * 3) % 17) as f32 - 8.0) * 0.1
        })
    }

    fn weight(k: usize, c: usize, rs: usize) -> Tensor {
        Tensor::from_fn(&[k, c, rs, rs], |i| {
            (((i[0] * 13 + i[1] * 5 + i[2] * 3 + i[3]) % 11) as f32 - 5.0) * 0.2
        })
    }

    #[test]
    fn gemm_matches_direct_convolution() {
        for (stride, pad) in [(1usize, 1usize), (2, 1), (1, 0), (2, 2)] {
            let inp = input(5, 9);
            let w = weight(7, 5, 3);
            let a = conv2d(&inp, &w, stride, pad);
            let b = conv2d_gemm(&inp, &w, stride, pad);
            assert!(a.all_close(&b, 1e-4), "stride={stride} pad={pad}");
        }
    }

    #[test]
    fn gemm_matches_direct_for_large_kernels() {
        let inp = input(3, 12);
        let w = weight(4, 3, 5);
        let a = conv2d(&inp, &w, 2, 2);
        let b = conv2d_gemm(&inp, &w, 2, 2);
        assert!(a.all_close(&b, 1e-4));
    }

    #[test]
    fn im2col_shape_and_padding() {
        let inp = input(2, 4);
        let m = im2col(&inp, 3, 3, 1, 1);
        assert_eq!((m.rows(), m.cols()), (2 * 9, 16));
        // The first output position's top-left tap is padding.
        assert_eq!(m.get(0, 0), 0.0);
        // The center tap of the first column is input[c=0, 0, 0].
        assert_eq!(m.get(4, 0), inp.get(&[0, 0, 0]));
    }

    #[test]
    fn unit_kernel_im2col_is_identity_layout() {
        let inp = input(3, 4);
        let m = im2col(&inp, 1, 1, 1, 0);
        assert_eq!((m.rows(), m.cols()), (3, 16));
        for c in 0..3 {
            for p in 0..16 {
                assert_eq!(m.get(c, p), inp.as_slice()[c * 16 + p]);
            }
        }
    }
}
