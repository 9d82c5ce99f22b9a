//! Property-based tests for the sparse encodings and hardware primitives.

use escalate_sparse::csr::{Csr, RunLength};
use escalate_sparse::{
    dilute, gather_bits, gather_bits_butterfly, ConcentrationBuffer, DilutionInput, SparseMap,
    TwoLevelSparseMap,
};
use proptest::prelude::*;

/// Strategy: a sparse f32 vector with controllable density.
fn sparse_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(0.0f32),
            1 => (-100i32..100).prop_map(|v| if v == 0 { 1.0 } else { v as f32 }),
        ],
        0..max_len,
    )
}

proptest! {
    #[test]
    fn sparsemap_roundtrips(v in sparse_vec(300)) {
        prop_assert_eq!(SparseMap::encode(&v).decode(), v);
    }

    #[test]
    fn two_level_roundtrips(v in sparse_vec(300)) {
        prop_assert_eq!(TwoLevelSparseMap::encode(&v).decode(), v);
    }

    #[test]
    fn encodings_agree_on_nnz(v in sparse_vec(300)) {
        let flat = SparseMap::encode(&v);
        let two = TwoLevelSparseMap::encode(&v);
        prop_assert_eq!(flat.nnz(), two.nnz());
        prop_assert_eq!(flat.nnz(), v.iter().filter(|&&x| x != 0.0).count());
    }

    #[test]
    fn csr_roundtrips(v in sparse_vec(256), cols in 1usize..16) {
        let rows = v.len() / cols;
        let v = &v[..rows * cols];
        prop_assert_eq!(Csr::encode(rows, cols, v).decode(), v.to_vec());
    }

    #[test]
    fn runlength_roundtrips(v in sparse_vec(300), step_bits in 1usize..8) {
        prop_assert_eq!(RunLength::encode(&v, step_bits).decode(), v);
    }

    #[test]
    fn butterfly_gather_matches_reference(data: u64, mask: u64) {
        prop_assert_eq!(gather_bits_butterfly(data, mask).gathered, gather_bits(data, mask));
    }

    #[test]
    fn gather_result_has_no_high_bits(data: u64, mask: u64) {
        let g = gather_bits(data, mask);
        let pc = mask.count_ones();
        if pc < 64 {
            prop_assert_eq!(g >> pc, 0);
        }
    }

    /// Dilution must equal the dense reference: keep sign-extended
    /// activations exactly where both operands are nonzero.
    #[test]
    fn dilution_matches_dense_reference(
        pattern in prop::collection::vec((0u8..4, -1i8..2), 1..64),
    ) {
        let act: Vec<f32> = pattern.iter().map(|&(a, _)| if a == 0 { 0.0 } else { a as f32 }).collect();
        let coef: Vec<i8> = pattern.iter().map(|&(_, c)| c).collect();
        let mut av = Vec::new();
        let mut am = 0u64;
        for (i, &a) in act.iter().enumerate() {
            if a != 0.0 { av.push(a); am |= 1 << i; }
        }
        let mut cs = Vec::new();
        let mut cm = 0u64;
        for (i, &c) in coef.iter().enumerate() {
            if c != 0 { cs.push(c < 0); cm |= 1 << i; }
        }
        let out = dilute(&DilutionInput {
            act_values: &av, act_map: am, coef_signs: &cs, coef_map: cm, width: act.len(),
        });
        let got: Vec<f32> = out.slots.iter().flatten().copied().collect();
        let expect: Vec<f32> = act.iter().zip(&coef)
            .filter(|&(&a, &c)| a != 0.0 && c != 0)
            .map(|(&a, &c)| if c < 0 { -a } else { a })
            .collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(out.matched, (am & cm).count_ones() as usize);
    }

    /// Concentration preserves the accumulated sum and never does better
    /// than perfect packing.
    #[test]
    fn concentration_conserves_sum_and_respects_lower_bound(
        slots in prop::collection::vec(
            prop_oneof![2 => Just(None), 1 => (1i32..50).prop_map(|v| Some(v as f32))],
            0..200,
        ),
        width in 1usize..17,
        la in 0usize..8,
        ls in 0usize..3,
    ) {
        let mut buf = ConcentrationBuffer::new(width, la, ls);
        buf.push_slots(&slots);
        let (sum, stats) = buf.drain_sum();
        let expect: f32 = slots.iter().flatten().sum();
        prop_assert!((sum - expect).abs() < 1e-3);
        let n = slots.iter().flatten().count();
        prop_assert_eq!(stats.elements, n);
        prop_assert!(stats.rows_drained >= n.div_ceil(width));
        // No packing scheme can beat one row per `width` elements, and the
        // unpacked upper bound is one row per chunk row.
        prop_assert!(stats.rows_drained <= slots.len().div_ceil(width).max(n));
    }

    /// The Figure 4(a) activation layout round-trips any feature map at
    /// any slice count.
    #[test]
    fn actcodec_roundtrips(
        data in prop::collection::vec(
            prop_oneof![2 => Just(0.0f32), 1 => (1i32..100).prop_map(|v| v as f32)],
            1..400,
        ),
        c in 1usize..8,
        l in 1usize..6,
    ) {
        use escalate_sparse::actcodec::{decode_feature_map, encode_feature_map};
        prop_assume!(data.len() >= c);
        let y = 4usize;
        let x = data.len() / (c * y);
        prop_assume!(x >= 1);
        let data = &data[..c * x * y];
        let streams = encode_feature_map(data, c, x, y, l);
        prop_assert_eq!(decode_feature_map(&streams, c, x, y), data.to_vec());
        // Stored values across streams equal the nonzero count.
        let nnz = data.iter().filter(|&&v| v != 0.0).count();
        let stored: usize = streams.iter().map(|s| s.values.len()).sum();
        prop_assert_eq!(stored, nnz);
    }

    /// SparseMap with 2-bit ternary values beats CSR for any vector with at
    /// least ~12.5% density (the paper's storage argument: one 10-bit index
    /// costs more than a mask bit per position once nonzeros are common).
    #[test]
    fn sparsemap_storage_dominates_csr_for_ternary(
        v in prop::collection::vec(
            prop_oneof![4 => Just(0.0f32), 1 => Just(1.0f32)],
            512..1024,
        ),
    ) {
        prop_assume!(v.iter().filter(|&&x| x != 0.0).count() * 8 >= v.len());
        let sm = SparseMap::encode(&v).size_bits(2);
        let csr = Csr::encode(1, v.len(), &v).size_bits(2);
        prop_assert!(sm <= csr, "sm={sm} csr={csr}");
    }
}
