//! The scalar, branchy bodies of the compression tail, kept verbatim as
//! differential oracles for the branch-free loops that replaced them (see
//! DESIGN.md §2, "The compression tail"). Nothing in the pipeline calls these; the tail property
//! test (`crates/sim/tests/tail_diff.rs`) and the `kernels` bench check
//! every output against them bit for bit.

use super::{encode_quotient, level, TernaryCoeffs};
use crate::error::EscalateError;
use escalate_sparse::TwoLevelSparseMap;
use escalate_tensor::{RelativeError, Tensor};

/// [`TernaryCoeffs::ternarize`] as one branch per value.
///
/// # Errors
///
/// Returns [`EscalateError::InvalidQuantization`] unless `0 ≤ t < 1`.
///
/// # Panics
///
/// Panics if `coeffs` is not rank-3.
pub fn ternarize(coeffs: &Tensor, t: f32) -> Result<TernaryCoeffs, EscalateError> {
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

/// [`super::threshold_for_sparsity`] as a materialized ratio vector and a
/// comparison-based selection.
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

/// [`TernaryCoeffs::dequantized_error`] with each level chosen by a
/// `match`.
///
/// # Panics
///
/// Panics if `reference` is not `K×C×M`.
pub fn dequantized_error(q: &TernaryCoeffs, reference: &Tensor) -> f32 {
    assert_eq!(
        reference.shape(),
        &q.shape[..],
        "dequantized_error requires the coefficient shape"
    );
    let [_, c, m] = q.shape;
    let values = q
        .ternary
        .chunks((c * m).max(1))
        .enumerate()
        .flat_map(move |(ki, slice)| {
            let (pos, neg) = q.levels(ki);
            slice.iter().map(move |&v| level(v, pos, neg))
        });
    let mut acc = RelativeError::default();
    for (&r, v) in reference.as_slice().iter().zip(values) {
        acc.push(r, v);
    }
    acc.value()
}

/// [`TernaryCoeffs::nnz`] as a filtered count.
pub fn nnz(q: &TernaryCoeffs) -> usize {
    q.ternary.iter().filter(|&&v| v != 0).count()
}

/// [`TernaryCoeffs::nonzero_groups`] as one short-circuiting scan per
/// group.
pub fn nonzero_groups(q: &TernaryCoeffs) -> usize {
    let [k, c, m] = q.shape;
    let mut groups = 0;
    for g in 0..k * c {
        if q.ternary[g * m..(g + 1) * m].iter().any(|&v| v != 0) {
            groups += 1;
        }
    }
    groups
}

/// `escalate_core::pipeline::ternary_storage_bits` as one SparseMap
/// count per filter slice.
pub fn ternary_storage_bits(q: &TernaryCoeffs) -> usize {
    let [k, _, _] = q.shape;
    k * (8 + 2)
        + (0..k)
            .map(|ki| TwoLevelSparseMap::size_bits_of(q.slice(ki), 1))
            .sum::<usize>()
}
