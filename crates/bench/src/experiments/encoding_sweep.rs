//! Ablation: sparse-encoding storage cost across the sparsity range
//! (paper §4.2.1's argument for SparseMap over CSR-style indices, and for
//! the 2-level variant at extreme sparsity).

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::tline;
use escalate_sparse::csr::{Csr, RunLength};
use escalate_sparse::{SparseMap, TwoLevelSparseMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub(super) fn run(_ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let n = 64 * 1024;
    let mut rng = StdRng::seed_from_u64(7);
    tline!(
        t,
        "Storage (bits per position) of a {n}-element ternary vector"
    );
    tline!(t);
    tline!(
        t,
        "{:>9} {:>10} {:>10} {:>10} {:>10}",
        "sparsity",
        "SparseMap",
        "2-level",
        "CSR",
        "RLE(4b)"
    );
    for sparsity in [0.5, 0.8, 0.9, 0.95, 0.97, 0.99, 0.995, 0.999] {
        let dense: Vec<f32> = (0..n)
            .map(|_| {
                if rng.gen_bool(sparsity) {
                    0.0
                } else if rng.gen_bool(0.5) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        // Ternary nonzeros cost 1 bit (the sign); CSR/RLE store 2-bit
        // values since they lack the per-filter scale split.
        let sm = SparseMap::encode(&dense).size_bits(1) as f64 / n as f64;
        let two = TwoLevelSparseMap::encode(&dense).size_bits(1) as f64 / n as f64;
        let csr = Csr::encode(1, n, &dense).size_bits(2) as f64 / n as f64;
        let rle = RunLength::encode(&dense, 4).size_bits(2) as f64 / n as f64;
        tline!(
            t,
            "{:>8.1}% {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            sparsity * 100.0,
            sm,
            two,
            csr,
            rle
        );
        t.push_record(Record::new([
            ("sparsity_pct", (sparsity * 100.0).into()),
            ("sparsemap_bits", sm.into()),
            ("two_level_bits", two.into()),
            ("csr_bits", csr.into()),
            ("rle4_bits", Cell::from(rle)),
        ]));
    }
    tline!(t);
    tline!(
        t,
        "Expected shape: SparseMap beats index-based encodings at moderate sparsity"
    );
    tline!(
        t,
        "(a ternary value is cheaper than its index); the 2-level variant wins past"
    );
    tline!(t, "~97% sparsity by eliding all-zero 16-bit chunks.");
    Ok(())
}
