//! Extension study: per-layer adaptive basis counts (PENNI's energy-
//! threshold rank selection) versus the paper's fixed `M = 6`.
//!
//! The fixed-M design keeps the hardware mapping static (every slice has
//! exactly `M` CA-MAC pairs); adaptive selection shows how much model
//! size the fixed choice leaves on the table, which is the §6.1
//! trade-off viewed from the algorithm side.

use super::{Cell, ExpContext, ExpError, Record, Table};
use crate::tline;
use escalate_core::decompose::{decompose, decompose_adaptive};
use escalate_core::pipeline::ternary_storage_bits;
use escalate_core::quant::{
    threshold_for_sparsity, HybridQuantized, QuantizedBasis, TernaryCoeffs,
};
use escalate_models::{synth, ModelProfile};

pub(super) fn run(_ctx: &ExpContext, t: &mut Table) -> Result<(), ExpError> {
    let profile = ModelProfile::for_model("ResNet18").expect("known model");
    let model = profile.model();
    tline!(
        t,
        "Adaptive per-layer M (99% energy) vs fixed M = 6, ResNet18:"
    );
    tline!(t);
    tline!(
        t,
        "{:<20} {:>4} {:>6} {:>10} {:>10} {:>9} {:>9}",
        "Layer",
        "Mad",
        "Mfix",
        "bits(ad)",
        "bits(fix)",
        "err(ad)",
        "err(fix)"
    );
    let conv: Vec<_> = model
        .conv_layers()
        .filter(|l| l.is_decomposable() && l.c > 3)
        .collect();
    let n = conv.len();
    let mut total_ad = 0usize;
    let mut total_fix = 0usize;
    for (i, layer) in conv.iter().enumerate() {
        let w = synth::weights(layer, 6, 0.05, synth::layer_seed(42, i, 0));
        let target = profile.layer_coeff_sparsity(i, n);

        let quantize = |d: &escalate_core::Decomposed| -> Result<(usize, f32), ExpError> {
            let threshold = threshold_for_sparsity(&d.coeffs, target);
            let coeffs = TernaryCoeffs::ternarize(&d.coeffs, threshold)?;
            let basis = QuantizedBasis::quantize(&d.basis);
            let h = HybridQuantized { basis, coeffs };
            let bits = h.basis.size_bits() + ternary_storage_bits(&h.coeffs);
            let err = h.reconstruction_error(&w);
            Ok((bits, err))
        };

        let ad = decompose_adaptive(&w, 0.99)?;
        let fix = decompose(&w, 6.min(layer.r * layer.s))?;
        let (bits_ad, err_ad) = quantize(&ad)?;
        let (bits_fix, err_fix) = quantize(&fix)?;
        total_ad += bits_ad;
        total_fix += bits_fix;
        tline!(
            t,
            "{:<20} {:>4} {:>6} {:>10} {:>10} {:>9.3} {:>9.3}",
            layer.name,
            ad.m(),
            fix.m(),
            bits_ad,
            bits_fix,
            err_ad,
            err_fix
        );
        t.push_record(Record::new([
            ("layer", Cell::from(layer.name.clone())),
            ("m_adaptive", Cell::from(ad.m())),
            ("m_fixed", Cell::from(fix.m())),
            ("bits_adaptive", Cell::from(bits_ad)),
            ("bits_fixed", Cell::from(bits_fix)),
            ("err_adaptive", f64::from(err_ad).into()),
            ("err_fixed", f64::from(err_fix).into()),
        ]));
    }
    tline!(t);
    tline!(
        t,
        "total: adaptive {:.3} MB vs fixed {:.3} MB ({:+.1}%)",
        total_ad as f64 / 8.0 / 1048576.0,
        total_fix as f64 / 8.0 / 1048576.0,
        100.0 * (total_ad as f64 - total_fix as f64) / total_fix as f64
    );
    tline!(t);
    tline!(
        t,
        "Adaptive selection shrinks layers whose kernels are effectively low-rank;"
    );
    tline!(
        t,
        "the hardware cost is a per-layer reconfiguration of the CA-MAC mapping,"
    );
    tline!(t, "which the fixed-M design deliberately avoids (§6.1).");
    Ok(())
}
