//! Differential property test for the compression tail: every loop that
//! runs after decomposition — the threshold search, ternarization, the
//! coefficient error, the nonzero counts and the coefficient masks —
//! against the scalar bodies it replaced (`escalate_core::quant::oracle`,
//! `CoefMasks::from_ternary_scalar`), bit for bit, on inputs that hold
//! signed zeros, subnormals, NaN, infinities, all-zero slices and long
//! runs of ties.

use escalate_core::pipeline::ternary_storage_bits;
use escalate_core::quant::{oracle, threshold_for_sparsity, TernaryCoeffs};
use escalate_sim::workload::CoefMasks;
use escalate_tensor::Tensor;
use proptest::prelude::*;

/// Input channel counts around the 64-channel mask word, plus a large one.
const CHANNELS: [usize; 5] = [1, 63, 64, 65, 1000];

/// One value from the seed stream under a value `style`: 0 = smooth,
/// 1 = smooth with special values mixed in, 2 = few distinct magnitudes
/// (long tie runs), 3 = mostly zero with infinities.
fn value(state: &mut u64, style: u8) -> f32 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 40) as f32 / (1u64 << 24) as f32;
    let sign = if z & 1 == 0 { 1.0 } else { -1.0 };
    let smooth = sign * -(1.0 - unit).max(1e-7).ln();
    let pick = (z >> 8) % 16;
    match style {
        0 => smooth,
        1 => match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(1 + (z >> 20) as u32 % 0x007F_FFFF) * sign,
            3 => f32::NAN,
            4 => f32::INFINITY * sign,
            _ => smooth,
        },
        2 => sign * ((z >> 12) % 4) as f32 * 0.25,
        _ => match pick {
            0 => f32::INFINITY * sign,
            1 | 2 => smooth,
            _ => 0.0 * sign,
        },
    }
}

/// A `K×C×M` tensor under `style`, with every slice whose bit is set in
/// `zero_slices` forced to zeros.
fn coefficients(k: usize, c: usize, m: usize, seed: u64, style: u8, zero_slices: u8) -> Tensor {
    let mut state = seed;
    let mut values: Vec<f32> = (0..k * c * m).map(|_| value(&mut state, style)).collect();
    for (ki, slice) in values.chunks_mut(c * m).enumerate() {
        if zero_slices >> (ki % 8) & 1 == 1 {
            slice.fill(0.0);
        }
    }
    Tensor::from_vec(&[k, c, m], values)
}

fn f32_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Everything downstream of the codes, against the oracles.
fn assert_codes_match(q: &TernaryCoeffs, coeffs: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        q.dequantized_error(coeffs).to_bits(),
        oracle::dequantized_error(q, coeffs).to_bits()
    );
    let counts = q.counts();
    prop_assert_eq!(counts.nnz, oracle::nnz(q));
    prop_assert_eq!(q.nnz(), oracle::nnz(q));
    prop_assert_eq!(counts.nonzero_groups, oracle::nonzero_groups(q));
    prop_assert_eq!(q.nonzero_groups(), oracle::nonzero_groups(q));
    prop_assert_eq!(ternary_storage_bits(q), oracle::ternary_storage_bits(q));
    prop_assert_eq!(
        CoefMasks::from_ternary(q),
        CoefMasks::from_ternary_scalar(q)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]
    #[test]
    fn the_tail_matches_its_scalar_oracles(
        k in 1usize..=4,
        c_index in 0usize..5,
        m in 1usize..=8,
        seed in any::<u64>(),
        style in 0u8..4,
        zero_slices in any::<u8>(),
        target in 0.0f64..1.0,
        t_kind in 0u8..4,
    ) {
        let c = CHANNELS[c_index];
        let coeffs = coefficients(k, c, m, seed, style, zero_slices);
        for target in [target, 0.0, 1.0] {
            prop_assert_eq!(
                threshold_for_sparsity(&coeffs, target).to_bits(),
                oracle::threshold_for_sparsity(&coeffs, target).to_bits(),
                "target {}", target
            );
        }
        let t = match t_kind {
            0 => 0.0,
            // The largest f32 below 1.
            1 => 1.0 - f32::EPSILON / 2.0,
            2 => target as f32 * 0.999,
            // The threshold the pipeline would use (NaN when a slice
            // holds infinities: both sides must then refuse it).
            _ => threshold_for_sparsity(&coeffs, target),
        };
        match (TernaryCoeffs::ternarize(&coeffs, t), oracle::ternarize(&coeffs, t)) {
            (Ok(mut q), Ok(o)) => {
                prop_assert_eq!(&q.ternary, &o.ternary);
                prop_assert_eq!(f32_bits(&q.w_pos), f32_bits(&o.w_pos));
                prop_assert_eq!(&q.quotient_code, &o.quotient_code);
                assert_codes_match(&q, &coeffs)?;
                // Codes outside {-1, 0, 1} dequantize to zero but still
                // count as nonzero.
                let n = q.ternary.len();
                for i in (seed as usize % n..n).step_by(7) {
                    q.ternary[i] = [2, -2, 127, -128][i % 4];
                }
                assert_codes_match(&q, &coeffs)?;
            }
            (Err(_), Err(_)) => prop_assert!(t.is_nan(), "t = {} refused", t),
            (new, old) => prop_assert!(false, "ternarize {:?} vs oracle {:?}", new.is_ok(), old.is_ok()),
        }
    }
}
